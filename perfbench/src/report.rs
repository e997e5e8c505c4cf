//! Statistics, the metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit; `BENCHMARK.json` must list exactly these names (a test checks it).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by the untraced run (`--trace 0`) of every
/// workload. "op" is the workload's timed operation: one `fit_model` on
/// the fit workloads, one client-observed `Server::predict` on
/// `serve_mixed`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by the traced run (`--trace 1`) of every
/// workload. Fit-path layers are per fit (summed over the fit's calls);
/// serving-path layers are per call.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu_sim.launch.host_us", "us"),
    ("kmeans.device_data.upload.host_ms", "ms"),
    ("kmeans.device_data.upload.bytes", "bytes"),
    ("kmeans.device_data.refresh.host_ms", "ms"),
    ("kmeans.assign.host_ms", "ms"),
    ("kmeans.assign.bytes", "bytes"),
    ("kmeans.assign.fma_ops", "count"),
    ("kmeans.assign.mma_ops", "count"),
    ("kmeans.assign.launches", "count"),
    ("kmeans.assign.modeled_ms", "ms"),
    ("abft.assign.host_ms", "ms"),
    ("abft.ft_cuda_ops", "count"),
    ("abft.ft_mma_ops", "count"),
    ("abft.ft_extra_loads", "count"),
    ("abft.dmr.host_ms", "ms"),
    ("fault.host_ms", "ms"),
    ("fault.injected", "count"),
    ("fault.detected", "count"),
    ("fault.corrected", "count"),
    ("fault.sdc_ratio", "ratio"),
    ("kmeans.update.host_ms", "ms"),
    ("kmeans.update.bytes", "bytes"),
    ("kmeans.update.atomic_ops", "count"),
    ("kmeans.update.modeled_ms", "ms"),
    ("kmeans.fit.self.host_ms", "ms"),
    ("kmeans.model.predict.host_us", "us"),
    ("kmeans.model.predict.launches", "count"),
    ("kmeans.model.fallback_ratio", "ratio"),
    ("kmeans.quant.build.host_ms", "ms"),
    ("kmeans.minibatch.partial_fit.host_ms", "ms"),
    ("serve.predict.host_us", "us"),
    ("serve.queue_delay.mean_us", "us"),
    ("serve.queue_delay.max_us", "us"),
    ("serve.coalesce_factor", "ratio"),
    ("serve.self.host_us", "us"),
    ("codegen.selector.host_ms", "ms"),
    ("bench.replay_coverage", "ratio"),
    ("bench.labels_exact_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.exec_workers", "count"),
];

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Metric values collected by a run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Take over every value of `other`, replacing values of the same name.
    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Operation accounting: every attempted operation, and those that
/// returned an error or failed their output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold in another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `catalogue`'s metrics, each with its unit. A metric
/// the run could not measure is printed as `null`, so a broken layer
/// shows instead of silently vanishing.
pub fn result_line(
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
    tally: Tally,
    correct: bool,
) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let v = metrics.get(name).unwrap_or(f64::NAN);
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // ranks round up: the 50th percentile of 5 samples is the 3rd
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0], 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name} leaves [A-Za-z0-9_.-]"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    /// The names listed under `key` in `BENCHMARK.json` (each entry of
    /// those arrays carries one `"name"`).
    fn manifest_names(manifest: &str, key: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing"));
        let open = start + manifest[start..].find('[').expect("array");
        let close = open + manifest[open..].find(']').expect("array end");
        manifest[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("value") + 1..];
                s[..s.find('"').expect("close")].to_string()
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names = |cat: &[(&str, &str)]| cat.iter().map(|(n, _)| n.to_string()).collect();
        let e2e: Vec<String> = names(END_TO_END);
        let layers: Vec<String> = names(PER_LAYER);
        assert_eq!(manifest_names(&manifest, "end_to_end"), e2e);
        assert_eq!(manifest_names(&manifest, "per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "unit of {name} differs");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        let line = result_line(&END_TO_END[..2], &m, t, false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
