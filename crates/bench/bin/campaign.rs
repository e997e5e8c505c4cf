//! `campaign` — one-command fault-injection campaign reproducing the
//! paper's §V-C detection / correction / SDC tables.
//!
//! ```text
//! cargo run -p bench_harness --release --bin campaign -- --quick
//! cargo run -p bench_harness --release --bin campaign -- \
//!     --rates 10,50,200 --schemes ftkmeans,wu --precisions fp64 \
//!     --reps 3 --out results --jsonl results/injections.jsonl --max-sdc 0.01
//! cargo run -p bench_harness --release --bin campaign -- \
//!     --quant-table 8 --max-sdc 0 --out results
//! ```
//!
//! `--quant-table REPS` is an exclusive mode targeting the *serving* path:
//! per quantization kind (fp16/int8) and state target (codes/scales/norms)
//! it flips REPS bits in the resident quantized table, serves a batch
//! through the guarded quantized predict, and classifies against host
//! reference labels, writing `<out>/quant_table.csv`. The fit-time grid
//! (and `campaign.csv`) is untouched by this mode.
//!
//! Sweeps injection rates × ABFT schemes × precisions over full K-means
//! fits with real bit flips, classifies silent data corruption against
//! fault-free twin runs, prints the aggregated table as markdown and writes
//! `<out>/campaign.csv`. With `--jsonl` every individual injection is
//! logged as one JSON object per line. With `--max-sdc` the process exits
//! non-zero when any protected scheme's SDC rate exceeds the threshold
//! (the CI assertion mode).
//!
//! The table is deterministic: identical under `FTK_EXEC=serial` and the
//! parallel worker pool (cells parallelize, and no fit depends on the block
//! schedule).

use bench_harness::campaign::{
    campaign_table, parse_precision, parse_scheme, quant_table_csv, records_jsonl, run_campaign,
    run_quant_campaign, CampaignGrid, QuantCampaignSpec,
};
use bench_harness::report::ReportSink;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--quick] [--rates R1,R2,...] [--schemes ftkmeans|kosaian|wu|none,...]\n\
         \x20                [--precisions fp32|fp64,...] [--reps N] [--out DIR]\n\
         \x20                [--jsonl PATH] [--max-sdc FRACTION]\n\
         \x20                [--quant-table REPS]   (exclusive: serving-path quantized-state axis)"
    );
    std::process::exit(2)
}

/// The `--quant-table` exclusive mode: bit flips in resident quantized
/// centroid tables served through the guarded predict path. Prints the
/// table, writes `<out>/quant_table.csv`, and applies `--max-sdc` to every
/// row (the guard is the protection — there is no unprotected control).
fn run_quant_mode(reps: u64, out: &PathBuf, max_sdc: Option<f64>) -> ! {
    let spec = QuantCampaignSpec {
        reps,
        ..Default::default()
    };
    eprintln!(
        "campaign: quantized-table axis, {} reps per kind x target cell",
        spec.reps
    );
    let rows = run_quant_campaign(&spec);
    println!("| kind | target | injected | detected | benign | sdc |");
    println!("|------|--------|----------|----------|--------|-----|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.kind, r.target, r.injected, r.detected, r.benign, r.sdc
        );
    }
    let csv = quant_table_csv(&rows);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("campaign: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let path = out.join("quant_table.csv");
    if let Err(e) = std::fs::write(&path, &csv) {
        eprintln!("campaign: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote quant_table.csv to {}", out.display());
    if let Some(threshold) = max_sdc {
        let mut tripped = false;
        for r in &rows {
            if let Some(rate) = r.sdc_rate() {
                if rate > threshold {
                    eprintln!(
                        "campaign: SDC gate tripped: {} {} has SDC rate {:.4} > {:.4}",
                        r.kind, r.target, rate, threshold
                    );
                    tripped = true;
                }
            }
        }
        if tripped {
            std::process::exit(1);
        }
        eprintln!("campaign: quantized serving path within the {threshold} SDC threshold");
    }
    std::process::exit(0)
}

fn parse_list<T>(raw: &str, what: &str, f: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let items: Vec<T> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            f(s).unwrap_or_else(|| {
                eprintln!("campaign: bad {what} value {s:?}");
                usage()
            })
        })
        .collect();
    if items.is_empty() {
        eprintln!("campaign: empty {what} list");
        usage()
    }
    items
}

fn main() {
    let mut quick = false;
    let mut rates: Option<Vec<f64>> = None;
    let mut schemes = None;
    let mut precisions = None;
    let mut reps: Option<usize> = None;
    let mut out = PathBuf::from("results");
    let mut jsonl: Option<PathBuf> = None;
    let mut max_sdc: Option<f64> = None;
    let mut quant_reps: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("campaign: {what} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--rates" => {
                rates = Some(parse_list(&next("--rates"), "rate", |s| {
                    s.parse::<f64>().ok().filter(|r| r.is_finite() && *r >= 0.0)
                }))
            }
            "--schemes" => schemes = Some(parse_list(&next("--schemes"), "scheme", parse_scheme)),
            "--precisions" => {
                precisions = Some(parse_list(
                    &next("--precisions"),
                    "precision",
                    parse_precision,
                ))
            }
            "--reps" => {
                reps = Some(
                    next("--reps")
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => out = PathBuf::from(next("--out")),
            "--jsonl" => jsonl = Some(PathBuf::from(next("--jsonl"))),
            "--max-sdc" => {
                max_sdc = Some(
                    next("--max-sdc")
                        .parse::<f64>()
                        .ok()
                        .filter(|v| (0.0..=1.0).contains(v))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--quant-table" => {
                quant_reps = Some(
                    next("--quant-table")
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if let Some(reps) = quant_reps {
        run_quant_mode(reps, &out, max_sdc);
    }

    let mut grid = if quick {
        CampaignGrid::quick()
    } else {
        CampaignGrid::full()
    };
    if let Some(r) = rates {
        grid.rates_hz = r;
    }
    if let Some(s) = schemes {
        grid.schemes = s;
    }
    if let Some(p) = precisions {
        grid.precisions = p;
    }
    if let Some(n) = reps {
        grid.reps = n;
    }

    eprintln!(
        "campaign: {} cells ({} rates x {} schemes x {} precisions x {} variants x {} shapes x \
         {} reps)",
        grid.len(),
        grid.rates_hz.len(),
        grid.schemes.len(),
        grid.precisions.len(),
        grid.variants.len(),
        grid.shapes.len(),
        grid.reps
    );
    let outcomes = run_campaign(&grid);
    let rep = campaign_table(&outcomes);
    println!("{}", rep.to_markdown());

    if let Some(path) = &jsonl {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("campaign: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        let lines = records_jsonl(&outcomes);
        match std::fs::write(path, &lines) {
            Ok(_) => eprintln!(
                "wrote {} injection record(s) to {}",
                lines.lines().count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("campaign: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // Gate before flushing nothing on error paths: the CSV is the artifact
    // CI archives, so write it even when the SDC gate trips below.
    let mut sink = ReportSink::default();
    sink.add(rep);
    match sink.flush(&out) {
        Ok(_) => eprintln!("wrote campaign.csv to {}", out.display()),
        Err(e) => {
            eprintln!("campaign: failed to write results: {e}");
            std::process::exit(1);
        }
    }

    if let Some(threshold) = max_sdc {
        let mut tripped = false;
        for row in bench_harness::campaign::aggregate(&outcomes) {
            // The unprotected control is expected to corrupt; the gate
            // guards the protected schemes' SDC-freedom claim.
            if row.scheme == "none" {
                continue;
            }
            if let Some(rate) = row.sdc_rate() {
                if rate > threshold {
                    eprintln!(
                        "campaign: SDC gate tripped: {} {} at {} err/s has SDC rate {:.4} > {:.4}",
                        row.scheme, row.precision, row.rate_hz, rate, threshold
                    );
                    tripped = true;
                }
            }
        }
        if tripped {
            std::process::exit(1);
        }
        eprintln!("campaign: all protected schemes within the {threshold} SDC threshold");
    }
}
