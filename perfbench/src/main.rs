//! Layered host wall-clock benchmark of the FT K-means workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_tall --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is a separate run that records the benchmark's own spans
//! around calls into each layer and reports the per-layer metrics. The
//! last line of standard output is the JSON result; the lines before it
//! are the human-readable report. See `perfbench/README.md`.

mod fitpath;
mod inputs;
mod report;
mod servepath;
mod spans;

use fitpath::{
    fit_layers, fit_setup, launch_probe, FitShape, SetupTimes, FIT_FT_WIDE, FIT_TALL, SETUP_REPS,
};
use gpu_sim::Executor;
use report::{median, result_line, Metrics, Tally, END_TO_END, PER_LAYER};
use servepath::{serve_model, serve_setup, stream_layers, traffic_layers, Traffic};
use spans::Recorder;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <fit_tall|fit_ft_wide|serve_mixed> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Rounds of the mini-batch / quantization probe in a traced run.
const STREAM_ROUNDS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    FitTall,
    FitFtWide,
    ServeMixed,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fit_tall" => Workload::FitTall,
                    "fit_ft_wide" => Workload::FitFtWide,
                    "serve_mixed" => Workload::ServeMixed,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Traced run of a fit workload.
fn traced_fit(shape: &FitShape, seed: u64, seconds: f64) -> (Metrics, Tally, Vec<spans::Span>) {
    let origin = Instant::now();
    let data = inputs::blobs(shape.m, shape.dim, shape.k, seed);
    let centers = inputs::centers(shape.dim, shape.k, seed);
    let mut setup = SetupTimes::default();
    let (session, cfg) = setup.reps(SETUP_REPS, &mut fit_setup(shape, seed));
    let mut m = Metrics::default();
    m.set("codegen.selector.host_ms", median(&setup.selector_s) * 1e3);
    m.set("gpu_sim.launch.host_us", launch_probe(&session));
    let reference = fitpath::reference_fit(&cfg, &data);
    let mut all_spans = Vec::new();
    let (fm, mut tally) = fit_layers(
        &session,
        &cfg,
        &fitpath::campaign(&cfg, seed),
        &data,
        reference.result(),
        seconds * 0.6,
        origin,
        &mut all_spans,
    );
    m.extend(fm);

    let rec = Recorder::new(origin);
    let (sm, st) = stream_layers(&session, &reference, &centers, seed, STREAM_ROUNDS, &rec);
    m.extend(sm);
    tally.merge(st);
    spans::append(&mut all_spans, rec.into_spans());

    // The serving probe runs on a model fitted on the pool session.
    let model = session
        .kmeans(cfg.clone())
        .fit_model(&data)
        .expect("fit to serve");
    let served = serve_model(session, model);
    let before = served.server.stats();
    let r = Traffic {
        server: &served.server,
        centers: &centers,
        seed,
        writes: false,
        traced: true,
        origin,
    }
    .run((seconds * 0.15).max(1.0), 0);
    m.extend(traffic_layers(&r, &served.server, &before));
    tally.merge(r.tally);
    spans::append(&mut all_spans, r.spans);
    (m, tally, all_spans)
}

/// Traced run of `serve_mixed`.
fn traced_serve(seed: u64, seconds: f64) -> (Metrics, Tally, Vec<spans::Span>) {
    let origin = Instant::now();
    let train = inputs::blobs(servepath::TRAIN_M, servepath::DIM, servepath::K, seed);
    let centers = inputs::centers(servepath::DIM, servepath::K, seed);
    let mut setup = SetupTimes::default();
    let served = setup.reps(SETUP_REPS, &mut serve_setup(&train, seed));
    let mut m = Metrics::default();
    m.set("codegen.selector.host_ms", median(&setup.selector_s) * 1e3);
    m.set("gpu_sim.launch.host_us", launch_probe(&served.session));
    let tenant = served
        .server
        .registry()
        .get(servepath::TENANT)
        .expect("tenant registered");
    let cfg = servepath::tenant_config(seed);
    let reference = fitpath::reference_fit(&cfg, &train);
    let mut all_spans = Vec::new();
    let (fm, mut tally) = fit_layers(
        &served.session,
        &cfg,
        &cfg,
        &train,
        reference.result(),
        seconds * 0.25,
        origin,
        &mut all_spans,
    );
    m.extend(fm);

    let rec = Recorder::new(origin);
    let (sm, st) = stream_layers(
        &served.session,
        &tenant,
        &centers,
        seed,
        STREAM_ROUNDS,
        &rec,
    );
    m.extend(sm);
    tally.merge(st);
    spans::append(&mut all_spans, rec.into_spans());

    // The end-to-end loop twice: untraced, then with spans on.
    let traffic = |traced: bool| Traffic {
        server: &served.server,
        centers: &centers,
        seed,
        writes: true,
        traced,
        origin,
    };
    let plain = traffic(false).run(seconds * 0.3, 0);
    let before = served.server.stats();
    let traced = traffic(true).run(seconds * 0.3, 1 << 48);
    m.extend(traffic_layers(&traced, &served.server, &before));
    m.set(
        "bench.trace_overhead",
        median(&traced.read_secs) / median(&plain.read_secs),
    );
    tally.merge(plain.tally);
    tally.merge(traced.tally);
    spans::append(&mut all_spans, traced.spans);
    (m, tally, all_spans)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = Executor::global().workers();
    println!(
        "# workload {:?} seed {} seconds {} trace {} exec_workers {workers} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let shape = match args.workload {
        Workload::FitTall => Some(&FIT_TALL),
        Workload::FitFtWide => Some(&FIT_FT_WIDE),
        Workload::ServeMixed => None,
    };
    let (mut metrics, tally, catalogue) = if args.trace {
        let (mut m, tally, all_spans) = match shape {
            Some(s) => traced_fit(s, args.seed, args.seconds),
            None => traced_serve(args.seed, args.seconds),
        };
        m.set("bench.exec_workers", workers as f64);
        print!(
            "{}",
            spans::table(&spans::totals(&all_spans, &gpu_sim::DeviceProfile::a100()))
        );
        println!(
            "checked operations {} failed {}",
            tally.attempted, tally.failed
        );
        (m, tally, PER_LAYER)
    } else {
        let (m, tally, report) = match shape {
            Some(s) => fitpath::run_fit(s, args.seed, args.seconds),
            None => servepath::run_serve(args.seed, args.seconds),
        };
        print!("{report}");
        (m, tally, END_TO_END)
    };
    if !args.trace {
        let rss = peak_rss_mb();
        println!("peak_rss_mb {rss:.1} MB");
        metrics.set("peak_rss_mb", rss);
    }
    for (name, unit) in catalogue {
        println!("{name} {} {unit}", metrics.get(name).unwrap_or(f64::NAN));
    }
    let measured = catalogue
        .iter()
        .all(|(n, _)| metrics.get(n).is_some_and(f64::is_finite));
    println!(
        "{}",
        result_line(catalogue, &metrics, tally, tally.failed == 0 && measured)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        assert_eq!(
            args("--workload serve_mixed --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fit_tall --seed -1 --seconds 1 --trace 0",
            "--workload fit_tall --seed 1 --seconds 0 --trace 0",
            "--workload fit_tall --seed 1 --seconds 1 --trace 2",
            "--workload fit_tall --seed 1 --seconds 1",
            "--workload fit_tall --seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
