//! The `serve_mixed` workload, and the serving-path layer probes every
//! traced run makes.
//!
//! Closed loop: each client thread sends its next 16-row
//! `Server::predict` only after the previous one returned. Client 0 also
//! streams a 2048-row `Server::partial_fit` every 250 predicts, so reads
//! run beside model hot swaps.

use crate::fitpath::{SetupTimes, MAX_ITER, SETUP_REPS};
use crate::inputs::fresh_rows;
use crate::report::{median, percentile, Metrics, Tally};
use crate::spans::{Recorder, Span};
use abft::SchemeKind;
use fault::CampaignStats;
use gpu_sim::mma::NoFault;
use gpu_sim::{Counters, DeviceProfile, Matrix};
use kmeans::assign::run_assignment;
use kmeans::quant::fnv1a64;
use kmeans::{DeviceData, FittedModel, KMeansConfig, PredictPolicy, QuantKind, Session, Variant};
use parking_lot::Mutex;
use serve::{ModelRegistry, Server, ServerConfig, ServerStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TENANT: &str = "tenant";
pub const DIM: usize = 64;
pub const K: usize = 16;
/// Rows the tenant is fitted on during set-up.
pub const TRAIN_M: usize = 8192;
pub const REQUEST_ROWS: usize = 16;
pub const WRITE_ROWS: usize = 2048;
/// Client 0 writes after every this many of its predicts.
pub const WRITE_EVERY: u64 = 250;
/// Salt bit separating write batches from request rows.
const WRITE_SALT: u64 = 1 << 62;

/// Closed-loop clients: two, but never more than the machine's cores.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The tenant's estimator configuration: library defaults, seeded, with a
/// fixed `MAX_ITER` iterations (`tol = 0`) so every set-up does the same
/// work.
pub fn tenant_config(seed: u64) -> KMeansConfig {
    KMeansConfig {
        max_iter: MAX_ITER,
        tol: 0.0,
        ..KMeansConfig::new(K).with_seed(seed)
    }
}

/// Upper bound on one client's requests per second, used to size its log
/// up front: a log that grows by reallocation holds two copies at the
/// switch, which would make the peak resident set jump with the request
/// count.
const MAX_REQUESTS_PER_S: f64 = 50_000.0;

/// A running server with its tenant registered, int8 table warm.
pub struct Served {
    pub session: Session,
    pub server: Server<f32>,
}

/// Start a server over `model` (int8 policy), warming its int8 table.
pub fn serve_model(session: Session, model: FittedModel<f32>) -> Served {
    let registry = ModelRegistry::new();
    registry.register(TENANT, model.with_predict_policy(PredictPolicy::Int8));
    let server = Server::new(session.clone(), registry, ServerConfig::default());
    if let Some(m) = server.registry().get(TENANT) {
        black_box(m.quantized_table(QuantKind::Int8));
    }
    Served { session, server }
}

/// `serve_mixed` set-up after session and selector: tenant fit,
/// registration, server start and int8 warm-up.
pub fn serve_setup(train: &Matrix<f32>, seed: u64) -> impl FnMut(Session) -> Served + '_ {
    move |session| {
        let model = session
            .kmeans(tenant_config(seed))
            .fit_model(train)
            .expect("tenant fit");
        serve_model(session, model)
    }
}

/// One predict as the client saw it, kept small: a run logs tens of
/// thousands, and the log must not dominate the process's memory.
struct Read {
    /// Digest of the returned labels; `None` when the call failed.
    labels: Option<u64>,
    /// The models registered just before and just after the call, as
    /// indices into [`ClientLog::versions`]; one of them (or one between)
    /// served it.
    before: u32,
    after: u32,
}

fn request_salt(salt_base: u64, client: usize, i: u64) -> u64 {
    salt_base + ((client as u64) << 32) + i
}

fn digest(labels: &[u32]) -> u64 {
    fnv1a64(labels.iter().map(|&l| u64::from(l)))
}

/// Per-client record of a traffic phase.
#[derive(Default)]
struct ClientLog {
    /// The `i`-th read sent the rows of salt [`request_salt`]`(.., i)`.
    reads: Vec<Read>,
    read_secs: Vec<f64>,
    /// When each read returned, in seconds since the phase began.
    read_done: Vec<f32>,
    /// The centroids of every model this client saw registered, in order.
    /// Copies, not the models: holding every swapped-out model would make
    /// the process's memory grow with the number of writes.
    versions: Vec<Matrix<f32>>,
    /// The latest of them, held so its address cannot be reused.
    serving: Option<Arc<FittedModel<f32>>>,
    write_secs: Vec<f64>,
    writes: Tally,
    spans: Vec<Span>,
    direct: DirectPredicts,
}

/// Traced phase only: `FittedModel::predict` at the rows each served
/// call sent.
#[derive(Debug, Default)]
pub struct DirectPredicts {
    pub secs: Vec<f64>,
    pub launches: u64,
    pub fallbacks: u64,
    pub rows: u64,
}

/// Traffic against a running server.
pub struct Traffic<'a> {
    pub server: &'a Server<f32>,
    pub centers: &'a Matrix<f32>,
    pub seed: u64,
    pub writes: bool,
    pub traced: bool,
    pub origin: Instant,
}

/// What a traffic phase measured, checked.
#[derive(Debug, Default)]
pub struct TrafficResult {
    pub read_secs: Vec<f64>,
    pub write_secs: Vec<f64>,
    pub completed: u64,
    pub wall_s: f64,
    /// Per whole second of the phase: successful reads that returned in it.
    pub window_rate: Vec<f64>,
    /// Per whole second of the phase: p90 latency of the reads that
    /// returned in it.
    pub window_p90: Vec<f64>,
    pub tally: Tally,
    pub spans: Vec<Span>,
    pub direct: DirectPredicts,
}

impl Traffic<'_> {
    fn client(&self, c: usize, salt_base: u64, start: Instant, deadline: Instant) -> ClientLog {
        let rec = Recorder::new(self.origin);
        let registry = self.server.registry();
        let expected = (deadline - Instant::now()).as_secs_f64() * MAX_REQUESTS_PER_S;
        let mut log = ClientLog {
            reads: Vec::with_capacity(expected as usize),
            read_secs: Vec::with_capacity(expected as usize),
            read_done: Vec::with_capacity(expected as usize),
            ..ClientLog::default()
        };
        let current = |log: &mut ClientLog| {
            let m = registry.get(TENANT).expect("tenant stays registered");
            if !log.serving.as_ref().is_some_and(|s| Arc::ptr_eq(s, &m)) {
                log.versions.push(m.centroids.clone());
                log.serving = Some(m);
            }
            (log.versions.len() - 1) as u32
        };
        // The traced phase's direct predicts run on a private clone of the
        // serving model, so its counters meter only those calls.
        let mut private: Option<(Arc<FittedModel<f32>>, FittedModel<f32>)> = None;
        let mut i = 0u64;
        while Instant::now() < deadline {
            let salt = request_salt(salt_base, c, i);
            let rows = fresh_rows(self.centers, REQUEST_ROWS, self.seed, salt);
            let before = current(&mut log);
            let (res, secs) = if self.traced {
                rec.timed("serve.predict", || self.server.predict(TENANT, &rows))
            } else {
                let t = Instant::now();
                let r = self.server.predict(TENANT, &rows);
                (r, t.elapsed().as_secs_f64())
            };
            let after = current(&mut log);
            if self.traced {
                let serving = log.serving.as_ref().expect("just observed");
                if !private
                    .as_ref()
                    .is_some_and(|(a, _)| Arc::ptr_eq(a, serving))
                {
                    private = Some((Arc::clone(serving), (**serving).clone()));
                }
                let model = &private.as_ref().expect("just set").1;
                let copy = rows.clone();
                let before = model.predict_counters();
                let (_, s) = rec.timed("kmeans.model.predict", || model.predict(&copy));
                let delta = model.predict_counters().since(&before);
                log.direct.secs.push(s);
                log.direct.launches += delta.kernel_launches;
                log.direct.fallbacks += delta.quant_fallbacks;
                log.direct.rows += REQUEST_ROWS as u64;
            }
            log.read_secs.push(secs);
            log.read_done.push((Instant::now() - start).as_secs_f32());
            log.reads.push(Read {
                labels: res.ok().map(|r| digest(&r.labels)),
                before,
                after,
            });
            i += 1;
            if self.writes && c == 0 && i.is_multiple_of(WRITE_EVERY) {
                let batch = fresh_rows(self.centers, WRITE_ROWS, self.seed, WRITE_SALT + salt);
                let (res, secs) = rec.timed("serve.partial_fit", || {
                    self.server.partial_fit(TENANT, &batch)
                });
                log.write_secs.push(secs);
                log.writes.record(matches!(&res, Ok(m)
                    if m.centroids.as_slice().iter().all(|v| v.is_finite())));
            }
        }
        log.spans = rec.into_spans();
        log
    }

    /// Run the clients for `seconds`, then check every response against
    /// [`reference_labels`] of the same rows on the model that served it.
    pub fn run(&self, seconds: f64, salt_base: u64) -> TrafficResult {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients())
                .map(|c| s.spawn(move || self.client(c, salt_base, start, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut out = TrafficResult {
            wall_s,
            ..Default::default()
        };
        let mut windows: BTreeMap<u64, (u64, Vec<f64>)> = BTreeMap::new();
        for log in &logs {
            for ((r, &secs), &done) in log.reads.iter().zip(&log.read_secs).zip(&log.read_done) {
                if f64::from(done) < wall_s.floor() {
                    let w = windows.entry(done as u64).or_default();
                    w.0 += u64::from(r.labels.is_some());
                    w.1.push(secs);
                }
            }
        }
        out.window_rate = windows.values().map(|w| w.0 as f64).collect();
        out.window_p90 = windows.values().map(|w| percentile(&w.1, 90.0)).collect();
        for (c, log) in logs.iter().enumerate() {
            out.read_secs.extend(&log.read_secs);
            for (i, r) in log.reads.iter().enumerate() {
                let Some(got) = r.labels else {
                    out.tally.record(false);
                    continue;
                };
                out.completed += 1;
                let salt = request_salt(salt_base, c, i as u64);
                let rows = fresh_rows(self.centers, REQUEST_ROWS, self.seed, salt);
                let own = &log.versions[r.before as usize..=r.after as usize];
                // Client 0 writes, so it saw every version in order; another
                // client may have missed one swapped in and out during its
                // call.
                let all = &logs[0].versions;
                let pos = |m: &Matrix<f32>| all.iter().position(|v| v.as_slice() == m.as_slice());
                let candidates = match (pos(&own[0]), pos(&own[own.len() - 1])) {
                    (Some(i), Some(j)) if i <= j => &all[i..=j],
                    _ => own,
                };
                let ok = candidates
                    .iter()
                    .any(|c| reference_labels(c, &rows).is_some_and(|l| digest(&l) == got));
                out.tally.record(ok);
            }
            out.tally.merge(log.writes);
            out.write_secs.extend(&log.write_secs);
            crate::spans::append(&mut out.spans, log.spans.clone());
            out.direct.secs.extend(&log.direct.secs);
            out.direct.launches += log.direct.launches;
            out.direct.fallbacks += log.direct.fallbacks;
            out.direct.rows += log.direct.rows;
        }
        out
    }
}

/// The exact-policy fp32 labels of `rows` under `centroids`: the
/// naive full scan, which the quantized policies promise to match bit for
/// bit. (The exact policy of a tensor-variant model scores through TF32
/// MMA and is not that reference.)
pub fn reference_labels(centroids: &Matrix<f32>, rows: &Matrix<f32>) -> Option<Vec<u32>> {
    let device = DeviceProfile::a100();
    let counters = Counters::new();
    let stats = Mutex::new(CampaignStats::default());
    let data = DeviceData::upload(&device, rows, centroids, &counters).ok()?;
    run_assignment(
        &device,
        &data,
        Variant::Naive,
        SchemeKind::None,
        &NoFault,
        &counters,
        &stats,
    )
    .ok()
    .map(|a| a.labels)
}

/// Untraced end-to-end run of `serve_mixed`.
pub fn run_serve(seed: u64, seconds: f64) -> (Metrics, Tally, String) {
    let train = crate::inputs::blobs(TRAIN_M, DIM, K, seed);
    let centers = crate::inputs::centers(DIM, K, seed);
    let mut setup = SetupTimes::default();
    let mut build = serve_setup(&train, seed);
    let served = setup.reps(SETUP_REPS.div_ceil(2), &mut build);
    let r = Traffic {
        server: &served.server,
        centers: &centers,
        seed,
        writes: true,
        traced: false,
        origin: Instant::now(),
    }
    .run(seconds, 0);
    drop(setup.reps(SETUP_REPS / 2, &mut build));
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup.setup_s));
    m.set("op_p50_ms", median(&r.read_secs) * 1e3);
    let n = r.read_secs.len();
    let report = format!(
        "req_p50_us {:.2} us (median of {n} requests, {} clients)\n\
         req_p99_us {:.2} us (nearest rank of {n})\n\
         req_p90_us {:.2} us (median over {} one-second windows)\n\
         req_per_s {:.1} 1/s (median over the windows; whole phase {:.1})\n\
         write_p50_ms {:.3} ms (median of {} partial_fit calls)\n\
         fail_ratio {} ({} of {})\n\
         setup_s {:.4} s (median of {:.4?})\n",
        median(&r.read_secs) * 1e6,
        clients(),
        percentile(&r.read_secs, 99.0) * 1e6,
        median(&r.window_p90) * 1e6,
        r.window_rate.len(),
        median(&r.window_rate),
        r.completed as f64 / r.wall_s,
        median(&r.write_secs) * 1e3,
        r.write_secs.len(),
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64,
        r.tally.failed,
        r.tally.attempted,
        median(&setup.setup_s),
        setup.setup_s,
    );
    (m, r.tally, report)
}

/// Serving-path layer metrics from a traced traffic phase; `before` is
/// the server's traffic totals when the phase began. The queue-delay
/// maximum is the server's, over its whole life.
pub fn traffic_layers(r: &TrafficResult, server: &Server<f32>, before: &ServerStats) -> Metrics {
    let mut m = Metrics::default();
    let now = server.stats();
    let stats = ServerStats {
        predict_requests: now.predict_requests - before.predict_requests,
        dispatch_groups: now.dispatch_groups - before.dispatch_groups,
        queued_requests: now.queued_requests - before.queued_requests,
        queue_delay_us_total: now.queue_delay_us_total - before.queue_delay_us_total,
        ..now
    };
    let served_p50 = median(&r.read_secs);
    let direct_p50 = median(&r.direct.secs);
    m.set("serve.predict.host_us", served_p50 * 1e6);
    m.set("kmeans.model.predict.host_us", direct_p50 * 1e6);
    m.set("serve.self.host_us", (served_p50 - direct_p50) * 1e6);
    let calls = r.direct.secs.len().max(1) as f64;
    m.set(
        "kmeans.model.predict.launches",
        r.direct.launches as f64 / calls,
    );
    m.set(
        "kmeans.model.fallback_ratio",
        r.direct.fallbacks as f64 / r.direct.rows.max(1) as f64,
    );
    m.set(
        "serve.queue_delay.mean_us",
        stats.queue_delay_us_total as f64 / stats.queued_requests.max(1) as f64,
    );
    m.set("serve.queue_delay.max_us", stats.queue_delay_us_max as f64);
    m.set(
        "serve.coalesce_factor",
        stats.predict_requests as f64 / stats.dispatch_groups.max(1) as f64,
    );
    m
}

/// Mini-batch and quantization layers on `model`'s shape: `rounds`
/// `KMeans::partial_fit` steps on fresh batches, each followed by the
/// int8 table build of the model it produced.
pub fn stream_layers(
    session: &Session,
    model: &FittedModel<f32>,
    centers: &Matrix<f32>,
    seed: u64,
    rounds: usize,
    rec: &Recorder,
) -> (Metrics, Tally) {
    let km = session.kmeans(model.config().clone());
    let mut cur = model.clone();
    let (mut fit_s, mut quant_s) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    for r in 0..rounds {
        let batch = fresh_rows(centers, WRITE_ROWS, seed, WRITE_SALT + (1 << 40) + r as u64);
        let (next, s) = rec.timed("kmeans.minibatch.partial_fit", || {
            km.partial_fit(Some(cur.clone()), &batch)
        });
        tally.record(next.is_ok());
        let Ok(next) = next else { continue };
        fit_s.push(s);
        let (_, q) = rec.timed("kmeans.quant.build", || {
            black_box(next.quantized_table(QuantKind::Int8))
        });
        quant_s.push(q);
        cur = next;
    }
    let mut m = Metrics::default();
    m.set("kmeans.minibatch.partial_fit.host_ms", median(&fit_s) * 1e3);
    m.set("kmeans.quant.build.host_ms", median(&quant_s) * 1e3);
    (m, tally)
}
