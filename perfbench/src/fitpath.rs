//! The fit workloads (`fit_tall`, `fit_ft_wide`) and the fit-path layer
//! probes every traced run makes.
//!
//! The traced replay drives a fit through the crates' public calls —
//! `DeviceData::upload`, then per iteration `run_assignment` →
//! `update_centroids` → `DeviceData::refresh_centroids` — with one span
//! per call. `bench.replay_coverage` compares the summed counters of a
//! replay with those of a `fit_model` of the same configuration, both on
//! a serial executor, so the replay cannot silently drift from the Lloyd loop
//! it mirrors.

use crate::inputs;
use crate::report::{median, Metrics, Tally};
use crate::spans::{self, Recorder};
use abft::SchemeKind;
use bench_harness::campaign::{classify, SdcPolicy};
use fault::{CampaignStats, FaultTarget, InjectionSchedule};
use gpu_sim::mma::NoFault;
use gpu_sim::{
    launch_grid, CounterSnapshot, Counters, Dim3, Executor, LaunchConfig, Matrix, Precision,
    SimError,
};
use kmeans::assign::run_assignment;
use kmeans::update::update_centroids;
use kmeans::{DeviceData, FitResult, FittedModel, FtConfig, KMeansConfig, Session, Variant};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Lloyd iterations of every benchmark fit; with `tol = 0` each fit does
/// the same work whatever the data.
pub const MAX_ITER: usize = 5;

/// Set-up repetitions of a traced run and, before and after its traffic,
/// of `serve_mixed`; `setup_s` is the median of all of a run's.
pub const SETUP_REPS: usize = 9;

/// A fit workload's shape and protection.
#[derive(Debug, Clone, Copy)]
pub struct FitShape {
    pub m: usize,
    pub dim: usize,
    pub k: usize,
    /// Warp ABFT + DMR update under the paper's 50 errors/s campaign.
    pub protected: bool,
}

/// The paper's headline shape, FT off, default tensor tile.
pub const FIT_TALL: FitShape = FitShape {
    m: 131_072,
    dim: 64,
    k: 16,
    protected: false,
};

/// An irregular shape (k ≫ d): tuned tile, ABFT + DMR.
pub const FIT_FT_WIDE: FitShape = FitShape {
    m: 32_768,
    dim: 32,
    k: 256,
    protected: true,
};

/// The estimator configuration of a fit workload. The tuned tile comes
/// from the session's kernel selector.
pub fn fit_config(shape: &FitShape, session: &Session, seed: u64) -> KMeansConfig {
    let mut cfg = KMeansConfig::new(shape.k).with_seed(seed);
    cfg.max_iter = MAX_ITER;
    cfg.tol = 0.0;
    if shape.protected {
        cfg.variant = Variant::Tensor(Some(session.tuned_tile(
            Precision::Fp32,
            shape.k,
            shape.dim,
        )));
        cfg.ft = FtConfig::protected();
    } else {
        cfg.variant = Variant::tensor_default();
    }
    cfg
}

/// `cfg` under the paper's §V-C campaign protocol when it is protected:
/// 50 errors/s into the payload MMA stream over 1 s of modeled residency
/// (about 50 injections per fit). Unprotected configurations come back
/// unchanged.
///
/// The timed fits run without injection. At this commit about 1-2% of
/// injected fits of `fit_ft_wide` come out corrupted by the repository's
/// fp32 SDC rule (1 of 60 serial fits, 5 of about 400 pool fits), so
/// timed injected fits would fail operations at random. The traced run
/// fits under this protocol and reports that share as `fault.sdc_ratio`.
pub fn campaign(cfg: &KMeansConfig, seed: u64) -> KMeansConfig {
    if cfg.ft.scheme == SchemeKind::None {
        return cfg.clone();
    }
    cfg.clone().with_ft(FtConfig {
        injection: InjectionSchedule::Rate {
            errors_per_second: 50.0,
        },
        injection_seed: seed,
        fault_target: FaultTarget::PayloadMma,
        modeled_residency_s: 1.0,
        ..cfg.ft
    })
}

/// Set-up timings of a run, one entry per repetition.
///
/// Repetitions back to back all see the machine in one state, and that
/// state drifts over seconds, so runs spread their repetitions out: the
/// fit workloads set up again after every timed fit, `serve_mixed` before
/// and after its traffic.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Until the first timed operation can start.
    pub setup_s: Vec<f64>,
    /// The first `Session::selector(Fp32)` of a fresh session.
    pub selector_s: Vec<f64>,
}

impl SetupTimes {
    /// Set up once, timed: a fresh session on the global pool, its fp32
    /// kernel selector, then `build` on that session.
    pub fn rep<S>(&mut self, build: &mut impl FnMut(Session) -> S) -> S {
        let t0 = Instant::now();
        let session = Session::a100();
        let t1 = Instant::now();
        black_box(session.selector(Precision::Fp32));
        self.selector_s.push(t1.elapsed().as_secs_f64());
        let built = build(session);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        built
    }

    /// `n` repetitions back to back; returns the last build.
    pub fn reps<S>(&mut self, n: usize, build: &mut impl FnMut(Session) -> S) -> S {
        for _ in 1..n {
            drop(self.rep(build));
        }
        self.rep(build)
    }
}

/// The session reference fits run in: a serial executor, so a reference
/// depends only on data, configuration and seed (pool fits do not yet; see
/// [`FitChecks`]).
pub fn reference_session() -> Session {
    Session::a100().with_executor(Executor::serial())
}

/// The reference fit of `cfg` (which injects no faults) on `samples`.
pub fn reference_fit(cfg: &KMeansConfig, samples: &Matrix<f32>) -> FittedModel<f32> {
    reference_session()
        .kmeans(cfg.clone())
        .fit_model(samples)
        .expect("fault-free reference fit")
}

/// A fit workload's set-up: a session and its estimator configuration.
pub fn fit_setup(
    shape: &FitShape,
    seed: u64,
) -> impl FnMut(Session) -> (Session, KMeansConfig) + '_ {
    move |s| {
        let cfg = fit_config(shape, &s, seed);
        (s, cfg)
    }
}

/// Untraced end-to-end run of a fit workload.
pub fn run_fit(shape: &FitShape, seed: u64, seconds: f64) -> (Metrics, Tally, String) {
    let data = inputs::blobs(shape.m, shape.dim, shape.k, seed);
    let mut setup = SetupTimes::default();
    let mut build = fit_setup(shape, seed);
    let (session, cfg) = setup.rep(&mut build);
    let km = session.kmeans(cfg.clone());
    // Before the clock; every timed fit is checked against it.
    let reference = reference_fit(&cfg, &data);

    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = km.fit_model(&data);
        times.push(t.elapsed().as_secs_f64());
        outcomes.push(r.map(FittedModel::into_result));
        drop(setup.rep(&mut build));
    }
    let wall = start.elapsed().as_secs_f64();
    let setup_s = setup.setup_s;

    let mut checks = FitChecks::default();
    for o in &outcomes {
        checks.record(reference.result(), o.as_ref().ok());
    }
    let tally = checks.tally;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));
    m.set("op_p50_ms", median(&times) * 1e3);
    let report = format!(
        "fit_times_s {:.3?}\nfit_s {:.4} s (median of {} fits; {:.3} fits/s)\nfail_ratio {} ({} of {})\n\
         labels_exact {} of {} fits bit-identical to the reference\n\
         setup_s {:.4} s (median of {:.5?})\n",
        times,
        median(&times),
        times.len(),
        times.len() as f64 / wall,
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted,
        checks.exact,
        tally.attempted,
        median(&setup_s),
        setup_s,
    );
    (m, tally, report)
}

/// Fit outcomes checked against a fault-free reference fit made on a
/// serial executor ([`reference_session`]).
///
/// A fit fails when it returned an error, a label out of range, or an
/// inertia that is not finite or is off the reference's by more than the
/// fp32 tolerance of `SdcPolicy` (the campaign classifier's rule).
///
/// Labels are not compared, because pool fits are not reproducible at this
/// commit: the update folds samples into the centroid sums with
/// cross-block float atomics in schedule order. On `fit_tall` a pool fit
/// then splits a blob shared by two centroids differently from the
/// reference, in up to ~1.1% of the labels at the same inertia (within
/// 5e-6). Bit-identical label vectors are counted, so the defect shows
/// (`labels_exact`, `bench.labels_exact_ratio`).
#[derive(Debug, Default)]
pub struct FitChecks {
    pub tally: Tally,
    pub exact: u64,
}

impl FitChecks {
    pub fn record(&mut self, reference: &FitResult<f32>, fit: Option<&FitResult<f32>>) {
        let policy = SdcPolicy::for_precision(Precision::Fp32);
        let Some(fit) = fit else {
            self.tally.record(false);
            return;
        };
        let class = classify(reference, fit, &policy);
        self.exact += u64::from(class.labels_match);
        let k = reference.centroids.rows();
        self.tally.record(
            fit.labels.iter().all(|&l| (l as usize) < k)
                && fit.inertia.is_finite()
                && class.inertia_rel_diff <= policy.max_inertia_rel_diff,
        );
    }

    /// Share of checked fits with bit-identical labels.
    pub fn exact_ratio(&self) -> f64 {
        self.exact as f64 / self.tally.attempted.max(1) as f64
    }
}

/// What one replay leaves behind for the layer probes.
pub struct Replay {
    pub spans: Vec<spans::Span>,
    pub counters: CounterSnapshot,
    pub data: DeviceData<f32>,
    pub labels: Vec<u32>,
    pub centroids: Matrix<f32>,
    pub secs: f64,
}

/// `KMeans`'s random-samples initialization: k distinct rows by partial
/// Fisher–Yates from the configured seed.
fn init_centroids(samples: &Matrix<f32>, k: usize, seed: u64) -> Matrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = samples.rows();
    let mut idx: Vec<usize> = (0..m).collect();
    for i in 0..k {
        let j = rng.random_range(i..m);
        idx.swap(i, j);
    }
    Matrix::from_fn(k, samples.cols(), |c, d| samples.get(idx[c], d))
}

/// The Lloyd loop's empty-cluster repair: each empty cluster moves onto the
/// next-farthest sample.
fn reseed_empty(centroids: &mut Matrix<f32>, counts: &[u32], samples: &Matrix<f32>, dist: &[f32]) {
    let empties: Vec<usize> = (0..counts.len()).filter(|&c| counts[c] == 0).collect();
    if empties.is_empty() {
        return;
    }
    let mut order: Vec<usize> = (0..dist.len()).collect();
    order.sort_by(|&a, &b| {
        dist[b]
            .partial_cmp(&dist[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (cluster, &i) in empties.into_iter().zip(&order) {
        for d in 0..samples.cols() {
            centroids.set(cluster, d, samples.get(i, d));
        }
    }
}

/// Replay a fault-free fit of `cfg` for `iterations` Lloyd iterations.
pub fn replay(
    session: &Session,
    cfg: &KMeansConfig,
    samples: &Matrix<f32>,
    iterations: usize,
    origin: Instant,
) -> Result<Replay, SimError> {
    let device = session.device();
    let (m, dim) = (samples.rows(), samples.cols());
    let rec = Recorder::new(origin);
    let counters = Counters::new();
    let stats = Mutex::new(CampaignStats::default());
    let (out, secs) = rec.timed("kmeans.fit", || {
        session.run(|| {
            let mut centroids = init_centroids(samples, cfg.k, cfg.seed);
            let mut data = rec.counted("kmeans.device_data.upload", &counters, || {
                DeviceData::upload(device, samples, &centroids, &counters)
            })?;
            let mut labels = Vec::new();
            for _ in 0..iterations {
                let a = rec.counted("kmeans.assign", &counters, || {
                    run_assignment(
                        device,
                        &data,
                        cfg.variant,
                        cfg.ft.scheme,
                        &NoFault,
                        &counters,
                        &stats,
                    )
                })?;
                black_box(
                    a.distances
                        .iter()
                        .map(|&d| f64::from(d).max(0.0))
                        .sum::<f64>(),
                );
                let u = rec.counted("kmeans.update", &counters, || {
                    update_centroids(
                        device,
                        &data.samples,
                        m,
                        dim,
                        &a.labels,
                        &centroids,
                        cfg.ft.dmr_update,
                        &NoFault,
                        &counters,
                    )
                })?;
                centroids = u.centroids;
                reseed_empty(&mut centroids, &u.counts, samples, &a.distances);
                rec.counted("kmeans.device_data.refresh", &counters, || {
                    data.refresh_centroids(device, &centroids, &counters)
                })?;
                labels = a.labels;
            }
            black_box(kmeans::inertia(samples, &centroids, &labels));
            Ok::<_, SimError>((data, labels, centroids))
        })
    });
    let (data, labels, centroids) = out?;
    Ok(Replay {
        spans: rec.into_spans(),
        counters: counters.snapshot(),
        data,
        labels,
        centroids,
        secs,
    })
}

/// Σ min / Σ max over every counter field of two snapshots: 1.0 exactly
/// when they agree field by field.
pub fn coverage(a: &CounterSnapshot, b: &CounterSnapshot) -> f64 {
    let (fa, fb) = (a.nonzero_fields(), b.nonzero_fields());
    let get = |f: &[(&str, u64)], n: &str| f.iter().find(|(k, _)| *k == n).map_or(0, |p| p.1);
    let (mut lo, mut hi) = (0u64, 0u64);
    for name in fa.iter().chain(&fb).map(|p| p.0) {
        let (x, y) = (get(&fa, name), get(&fb, name));
        lo += x.min(y);
        hi += x.max(y);
    }
    if hi == 0 {
        1.0
    } else {
        lo as f64 / hi as f64
    }
}

/// Median host time of a no-op 64-block launch, in microseconds.
pub fn launch_probe(session: &Session) -> f64 {
    let counters = Counters::new();
    let cfg = LaunchConfig {
        grid: Dim3::x(64),
        threads_per_block: 128,
        smem_bytes: 0,
    };
    let mut times = Vec::with_capacity(2000);
    session.run(|| {
        for _ in 0..2000 {
            let t = Instant::now();
            launch_grid(session.device(), cfg, &counters, |ctx| {
                black_box(ctx.bx);
            })
            .expect("no-op launch");
            times.push(t.elapsed().as_secs_f64());
        }
    });
    median(&times) * 1e6
}

/// Median of `with` minus median of `without`, alternating the two so
/// drift in machine load hits both alike.
fn paired_cost(reps: usize, mut without: impl FnMut(), mut with: impl FnMut()) -> f64 {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        without();
        a.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        with();
        b.push(t.elapsed().as_secs_f64());
    }
    median(&b) - median(&a)
}

/// The fit-path layer metrics of one workload: `cfg` fitted on
/// `samples` in `session`, `reference` its fault-free reference fit.
/// Replays, fits of `cfg` and fits under `injected` (the fault probe)
/// alternate until `seconds` have passed (at least twice each). Injected
/// fits that the fp32 SDC rule calls corrupted are counted in
/// `fault.sdc_ratio`, not as failed operations.
#[allow(clippy::too_many_arguments)]
pub fn fit_layers(
    session: &Session,
    cfg: &KMeansConfig,
    injected: &KMeansConfig,
    samples: &Matrix<f32>,
    reference: &FitResult<f32>,
    seconds: f64,
    origin: Instant,
    all_spans: &mut Vec<spans::Span>,
) -> (Metrics, Tally) {
    let device = session.device();
    let (km, km_inj) = (
        session.kmeans(cfg.clone()),
        session.kmeans(injected.clone()),
    );
    let policy = SdcPolicy::for_precision(Precision::Fp32);
    let mut sdc = Vec::new();
    let mut tally = Tally::default();
    let mut checks = FitChecks::default();
    let mut per_fit: Vec<std::collections::BTreeMap<&'static str, spans::Totals>> = Vec::new();
    let (mut replay_s, mut clean_s, mut inj_s) = (Vec::new(), Vec::new(), Vec::new());
    // Coverage compares counters exactly, so it needs a replay as
    // deterministic as the reference: the reference's serial executor.
    let serial_replay = replay(
        &reference_session(),
        cfg,
        samples,
        reference.iterations,
        origin,
    );
    tally.record(serial_replay.is_ok());
    let replay_coverage = serial_replay.map_or(0.0, |r| coverage(&r.counters, &reference.counters));
    let mut ft = CampaignStats::default();
    let mut last = None;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let r = replay(session, cfg, samples, reference.iterations, origin);
        tally.record(r.is_ok());
        let Ok(r) = r else { continue };
        replay_s.push(r.secs);
        per_fit.push(spans::totals(&r.spans, device));
        spans::append(all_spans, r.spans.clone());
        last = Some(r);

        let t = Instant::now();
        let c = km.fit_model(samples);
        clean_s.push(t.elapsed().as_secs_f64());
        checks.record(reference, c.as_ref().ok().map(|c| c.result()));

        let t = Instant::now();
        let f = km_inj.fit_model(samples);
        inj_s.push(t.elapsed().as_secs_f64());
        tally.record(f.is_ok());
        if let Ok(f) = f {
            ft = f.ft_stats;
            sdc.push(f64::from(u8::from(classify(reference, &f, &policy).is_sdc)));
        }
    }
    let last = last.expect("at least one replay succeeded");
    tally.merge(checks.tally);

    type Field = fn(&spans::Totals) -> f64;
    let host_ms: Field = |t| t.total_ns as f64 * 1e-6;
    let bytes: Field = |t| t.delta.total_bytes() as f64;
    let modeled_ms: Field = |t| t.modeled_s * 1e3;
    let span_metrics: [(&'static str, &str, Field); 14] = [
        (
            "kmeans.device_data.upload.host_ms",
            "kmeans.device_data.upload",
            host_ms,
        ),
        (
            "kmeans.device_data.upload.bytes",
            "kmeans.device_data.upload",
            bytes,
        ),
        (
            "kmeans.device_data.refresh.host_ms",
            "kmeans.device_data.refresh",
            host_ms,
        ),
        ("kmeans.assign.host_ms", "kmeans.assign", host_ms),
        ("kmeans.assign.bytes", "kmeans.assign", bytes),
        ("kmeans.assign.fma_ops", "kmeans.assign", |t| {
            t.delta.fma_ops as f64
        }),
        ("kmeans.assign.mma_ops", "kmeans.assign", |t| {
            t.delta.mma_ops as f64
        }),
        ("kmeans.assign.launches", "kmeans.assign", |t| {
            t.delta.kernel_launches as f64
        }),
        ("kmeans.assign.modeled_ms", "kmeans.assign", modeled_ms),
        ("kmeans.update.host_ms", "kmeans.update", host_ms),
        ("kmeans.update.bytes", "kmeans.update", bytes),
        ("kmeans.update.atomic_ops", "kmeans.update", |t| {
            t.delta.atomic_ops as f64
        }),
        ("kmeans.update.modeled_ms", "kmeans.update", modeled_ms),
        ("kmeans.fit.self.host_ms", "kmeans.fit", |t| {
            t.self_ns as f64 * 1e-6
        }),
    ];
    let mut m = Metrics::default();
    for (metric, span, field) in span_metrics {
        let per_replay: Vec<f64> = per_fit
            .iter()
            .map(|t| t.get(span).map_or(0.0, field))
            .collect();
        m.set(metric, median(&per_replay));
    }
    m.set("abft.ft_cuda_ops", last.counters.ft_cuda_ops as f64);
    m.set("abft.ft_mma_ops", last.counters.ft_mma_ops as f64);
    m.set("abft.ft_extra_loads", last.counters.ft_extra_loads as f64);
    m.set("bench.replay_coverage", replay_coverage);
    m.set("bench.labels_exact_ratio", checks.exact_ratio());
    m.set("bench.trace_overhead", median(&replay_s) / median(&clean_s));
    m.set("fault.host_ms", (median(&inj_s) - median(&clean_s)) * 1e3);
    m.set(
        "fault.sdc_ratio",
        sdc.iter().sum::<f64>() / sdc.len().max(1) as f64,
    );
    m.set("fault.injected", ft.injected as f64);
    m.set("fault.detected", ft.detected as f64);
    m.set("fault.corrected", ft.corrected as f64);

    // ABFT on the distance kernel, and DMR on the update, each as the
    // difference between the call with and without it on the same data.
    let (m_rows, dim) = (samples.rows(), samples.cols());
    let stats = Mutex::new(CampaignStats::default());
    let counters = Counters::new();
    let assign = |scheme: SchemeKind| {
        session.run(|| {
            black_box(
                run_assignment(
                    device,
                    &last.data,
                    cfg.variant,
                    scheme,
                    &NoFault,
                    &counters,
                    &stats,
                )
                .expect("assignment probe"),
            );
        })
    };
    let abft_s = paired_cost(
        3,
        || assign(SchemeKind::None),
        || assign(SchemeKind::FtKMeans),
    );
    let update = |dmr: bool| {
        session.run(|| {
            black_box(
                update_centroids(
                    device,
                    &last.data.samples,
                    m_rows,
                    dim,
                    &last.labels,
                    &last.centroids,
                    dmr,
                    &NoFault,
                    &counters,
                )
                .expect("update probe"),
            );
        })
    };
    let dmr_s = paired_cost(3, || update(false), || update(true));
    m.set("abft.assign.host_ms", abft_s * 1e3);
    m.set("abft.dmr.host_ms", dmr_s * 1e3);
    (m, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_one_only_for_equal_snapshots() {
        let a = CounterSnapshot {
            bytes_loaded: 100,
            mma_ops: 10,
            ..Default::default()
        };
        assert_eq!(coverage(&a, &a), 1.0);
        let b = CounterSnapshot { mma_ops: 20, ..a };
        assert!((coverage(&a, &b) - 110.0 / 120.0).abs() < 1e-12);
        assert_eq!(
            coverage(&CounterSnapshot::default(), &CounterSnapshot::default()),
            1.0
        );
    }

    #[test]
    fn replay_mirrors_fit_model_counters_and_labels() {
        // Serial, so both fits fold the update in the same order.
        let session = reference_session();
        let samples = inputs::blobs(1024, 8, 6, 3);
        for protected in [false, true] {
            let shape = FitShape {
                m: 1024,
                dim: 8,
                k: 6,
                protected,
            };
            let cfg = fit_config(&shape, &session, 3);
            let fit = session.kmeans(cfg.clone()).fit_model(&samples).unwrap();
            let r = replay(&session, &cfg, &samples, fit.iterations, Instant::now()).unwrap();
            assert_eq!(r.counters, fit.counters, "protected = {protected}");
            assert_eq!(r.labels, fit.labels, "protected = {protected}");
        }
    }
}
