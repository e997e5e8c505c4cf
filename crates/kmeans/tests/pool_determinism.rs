//! A fit depends only on (data, config, seed): pool executors of any size,
//! each shared by two fits running at once, reproduce the serial executor
//! bit for bit — labels, centroids, inertia, counters, FT ledgers and the
//! injected faults themselves. Covers all six assignment variants, a
//! protected fit under FMA-targeted rate injection, and a `partial_fit`
//! stream.

use fault::{CampaignStats, FaultTarget, InjectionRecord, InjectionSchedule};
use gpu_sim::exec::Executor;
use gpu_sim::{CounterSnapshot, Matrix};
use kmeans::{FittedModel, FtConfig, KMeansConfig, Session, Variant};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Everything a fit reports that must not depend on the executor.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    labels: Vec<u32>,
    centroids: Vec<u32>,
    inertia: u64,
    iterations: usize,
    counters: CounterSnapshot,
    ft_stats: CampaignStats,
    dmr_mismatches: u64,
    injection_records: Vec<InjectionRecord>,
    weights: Vec<u64>,
}

fn fingerprint(model: &FittedModel<f32>) -> Fingerprint {
    Fingerprint {
        labels: model.labels.clone(),
        centroids: model
            .centroids
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        inertia: model.inertia.to_bits(),
        iterations: model.iterations,
        counters: model.counters,
        ft_stats: model.ft_stats,
        dmr_mismatches: model.dmr.mismatches,
        injection_records: model.injection_records.clone(),
        weights: model.center_weights().to_vec(),
    }
}

/// f32 blobs with more rows than one 256-sample block, so every phase runs
/// a multi-block grid and float sums have many terms.
fn blobs(m: usize, dim: usize, k: usize, salt: usize) -> Matrix<f32> {
    Matrix::from_fn(m, dim, |r, c| {
        ((r % k) * 5) as f32
            + ((((r * 37 + c * 11 + salt) % 101) as f32) / 101.0 - 0.5) * 3.0
            + c as f32 * 0.37
    })
}

/// A protected fit whose rate schedule strikes the scalar FMA stream (the
/// DMR-protected update), sized so several faults land in every fit.
fn injected_protected() -> FtConfig {
    FtConfig {
        injection: InjectionSchedule::Rate {
            errors_per_second: 200.0,
        },
        injection_seed: 17,
        fault_target: FaultTarget::SimtFma,
        modeled_residency_s: 1.0,
        ..FtConfig::protected()
    }
}

fn configs() -> Vec<KMeansConfig> {
    let mut cfgs: Vec<KMeansConfig> = [
        Variant::Naive,
        Variant::GemmV1,
        Variant::FusedV2,
        Variant::BroadcastV3,
        Variant::tensor_default(),
        Variant::Hamerly,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, v)| KMeansConfig::new(5).with_seed(i as u64 + 1).with_variant(v))
    .collect();
    cfgs.push(
        KMeansConfig::new(5)
            .with_seed(11)
            .with_ft(injected_protected()),
    );
    for cfg in &mut cfgs {
        cfg.max_iter = 6;
        cfg.tol = 0.0;
    }
    cfgs
}

/// Runs `job(i)` for every index, two at a time on separate threads: `i`
/// and `(i + 1) % n` overlap, so every job shares the pool with another.
fn in_pairs<R: Send>(n: usize, job: impl Fn(usize) -> R + Sync) -> Vec<(usize, R)> {
    let job = &job;
    (0..n)
        .flat_map(|i| {
            std::thread::scope(|s| {
                let a = s.spawn(move || (i, job(i)));
                let b = s.spawn(move || ((i + 1) % n, job((i + 1) % n)));
                [a.join().expect("fit"), b.join().expect("fit")]
            })
        })
        .collect()
}

#[test]
fn pool_fits_equal_serial_fits_bitwise() {
    let data = blobs(700, 6, 5, 3);
    let cfgs = configs();
    let serial = Session::a100().with_executor(Executor::serial());
    let want: Vec<Fingerprint> = cfgs
        .iter()
        .map(|cfg| fingerprint(&serial.kmeans(cfg.clone()).fit_model(&data).expect("fit")))
        .collect();
    let injected = want.last().expect("injected config");
    assert!(
        !injected.injection_records.is_empty() && injected.dmr_mismatches > 0,
        "the injected protected fit must strike (and DMR must catch) FMA faults"
    );

    for workers in WORKERS {
        let pool = Session::a100().with_executor(Executor::with_workers(workers));
        for (i, got) in in_pairs(cfgs.len(), |i| {
            fingerprint(&pool.kmeans(cfgs[i].clone()).fit_model(&data).expect("fit"))
        }) {
            assert_eq!(got, want[i], "{workers} workers: {:?}", cfgs[i]);
        }
    }
}

#[test]
fn pool_partial_fit_streams_equal_serial_streams_bitwise() {
    let cfgs = [
        KMeansConfig::new(4).with_seed(5),
        KMeansConfig::new(4)
            .with_seed(6)
            .with_ft(injected_protected()),
    ];
    let stream = |session: &Session, cfg: &KMeansConfig| {
        let km = session.kmeans(cfg.clone());
        let mut model = None;
        for batch in 0..5 {
            model = Some(
                km.partial_fit(model, &blobs(300, 6, 4, batch))
                    .expect("batch"),
            );
        }
        fingerprint(&model.expect("stream"))
    };
    let serial = Session::a100().with_executor(Executor::serial());
    let want: Vec<Fingerprint> = cfgs.iter().map(|cfg| stream(&serial, cfg)).collect();
    assert!(
        !want[1].injection_records.is_empty(),
        "the stream is struck"
    );

    for workers in WORKERS {
        let pool = Session::a100().with_executor(Executor::with_workers(workers));
        for (i, got) in in_pairs(cfgs.len(), |i| stream(&pool, &cfgs[i])) {
            assert_eq!(got, want[i], "{workers} workers: {:?}", cfgs[i]);
        }
    }
}
