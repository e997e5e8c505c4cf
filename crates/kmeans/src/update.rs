//! Centroid-update phase (Fig. 2 step 3) with optional DMR protection.
//!
//! The paper's fused update folds every sample into its centroid with
//! `atomicAdd` (§III-A2), so the float summation order follows the block
//! schedule. This one is an atomic-free segmented reduction instead — the
//! map → combine → reduce split of MapReduce K-means, in the segmented
//! form of Flash-KMeans — in three launches:
//!
//! 1. `update_sort` — a stable counting sort of sample ids by label gives
//!    every cluster its member list (one `u32` per sample) and, through
//!    the offsets, its count. Out-of-range labels are counted and dropped.
//! 2. `update_accumulate` — one block per cluster sums its members' rows
//!    in ascending sample order, starting from zero.
//! 3. `update_divide` — one thread per centroid element averages.
//!
//! Every sum has that one fixed order whatever the executor, so the new
//! centroids are bit-identical under `FTK_EXEC=serial` and any pool (and
//! equal to [`crate::reference::update_reference`]). The phase is
//! memory-bound, so duplicating the arithmetic (DMR) and voting hides
//! behind the loads — the paper measures <1% overhead (§I, §IV).

use abft::dmr::{protected, DmrStats};
use gpu_sim::memory::GlobalIndexBuffer;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Matrix, Scalar,
    ScratchBuf, SimError,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Centroid-matrix elements per threadblock in the averaging kernel.
const ELEMS_PER_BLOCK: usize = 256;

/// Bytes of one `u32` label, member id or offset.
const INDEX_BYTES: u64 = 4;

/// Result of the update phase.
#[derive(Debug, Clone)]
pub struct UpdateResult<T> {
    /// New centroid positions (empty clusters keep their previous ones).
    pub centroids: Matrix<T>,
    /// Members per cluster.
    pub counts: Vec<u32>,
    /// DMR statistics (zeros when DMR was off).
    pub dmr: DmrStats,
    /// Labels found out of range `[0, k)` and excluded from the
    /// accumulation — a fault-injected bit flip in a label is *detected*
    /// here instead of indexing the sums buffer out of bounds.
    pub oob_labels: u64,
}

/// Run the centroid update.
#[allow(clippy::too_many_arguments)]
pub fn update_centroids<T: Scalar>(
    device: &DeviceProfile,
    samples: &GlobalBuffer<T>,
    m: usize,
    dim: usize,
    labels: &[u32],
    old_centroids: &Matrix<T>,
    dmr: bool,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<UpdateResult<T>, SimError> {
    if labels.len() != m {
        return Err(SimError::ShapeMismatch(format!(
            "{} labels for {m} samples",
            labels.len()
        )));
    }
    if u32::try_from(m).is_err() {
        return Err(SimError::InvalidConfig(format!(
            "{m} samples overflow the u32 member ids"
        )));
    }
    let k = old_centroids.rows();
    let members = GlobalIndexBuffer::uninit(m);
    members.set_sanitizer_label("update.members");
    let offsets = GlobalIndexBuffer::uninit(k + 1);
    offsets.set_sanitizer_label("update.offsets");
    let oob_labels = AtomicU64::new(0);

    // Kernel 1: stable counting sort. Cluster c's members are
    // `members[offsets[c]..offsets[c + 1]]`, in ascending sample order.
    let one_block = LaunchConfig {
        grid: Dim3::x(1),
        threads_per_block: 256,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, one_block, counters, "update_sort", |ctx| {
        let mut next = ScratchBuf::<u32, 256>::filled(k, 0);
        let mut oob = 0u64;
        for &label in labels {
            match next.get_mut(label as usize) {
                Some(n) => *n += 1,
                // A bit flip in a label (fail-continue fault model) must not
                // index out of bounds: detect it and drop the sample.
                None => oob += 1,
            }
        }
        let mut start = 0u32;
        offsets.store(0, 0);
        for (c, slot) in next.iter_mut().enumerate() {
            let n = *slot;
            *slot = start;
            start += n;
            offsets.store(c + 1, start);
        }
        for (i, &label) in labels.iter().enumerate() {
            if let Some(slot) = next.get_mut(label as usize) {
                members.store(*slot as usize, i as u32);
                *slot += 1;
            }
        }
        oob_labels.store(oob, Ordering::Relaxed);
        // Two passes over the labels; one member id per kept sample and
        // k + 1 offsets out.
        let kept = m as u64 - oob;
        ctx.counters.add_loaded(2 * m as u64 * INDEX_BYTES);
        ctx.counters.add_stored((kept + k as u64 + 1) * INDEX_BYTES);
    })?;

    // Kernel 2: segmented accumulation, one block per cluster.
    let sums = GlobalBuffer::<T>::uninit(k * dim);
    sums.set_sanitizer_label("update.sums");
    let dmr_stats = Mutex::new(DmrStats::default());
    let cfg = LaunchConfig {
        grid: Dim3::x(k),
        threads_per_block: 256,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "update_accumulate", |ctx| {
        let c = ctx.bx;
        let (lo, hi) = (offsets.load(c) as usize, offsets.load(c + 1) as usize);
        ctx.counters
            .add_loaded((2 + (hi - lo) as u64) * INDEX_BYTES);
        let mut local_dmr = DmrStats::default();
        let mut acc = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut xrow = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let row_site = MmaSite {
            block: (c, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        };
        for slot in lo..hi {
            let i = members.load(slot) as usize;
            samples.load_run(i * dim, &mut xrow, ctx.counters);
            if dmr {
                for (d, (&x, sum)) in xrow.iter().zip(acc.iter_mut()).enumerate() {
                    let site = MmaSite {
                        k_step: d,
                        ..row_site
                    };
                    // Duplicated arithmetic: both replicas run the same FMA
                    // through the fault hook; disagreement is voted out.
                    *sum += protected(|_| hook.post_fma(&site, x), 3, &mut local_dmr);
                }
            } else {
                // One hook call per row; element d is the FMA at k_step d.
                hook.post_fma_row(&row_site, &mut xrow);
                for (&x, sum) in xrow.iter().zip(acc.iter_mut()) {
                    *sum += x;
                }
            }
            ctx.counters.add_fma((dim * if dmr { 2 } else { 1 }) as u64);
        }
        sums.store_run(c * dim, &acc, ctx.counters);
        if dmr {
            dmr_stats.lock().merge(&local_dmr);
        }
    })?;

    // Kernel 3: averaging — one thread per centroid-matrix *element*, so
    // the division work spreads over the worker pool even at small k
    // (k x dim elements rather than k rows of serial dim-loops).
    let out = GlobalBuffer::<T>::zeros(k * dim);
    out.set_sanitizer_label("update.out");
    let cfg2 = LaunchConfig {
        grid: Dim3::x((k * dim).div_ceil(ELEMS_PER_BLOCK).max(1)),
        threads_per_block: 256,
        smem_bytes: 0,
    };
    let old = GlobalBuffer::from_matrix(old_centroids);
    old.set_sanitizer_label("update.old");
    launch_grid_labeled(device, cfg2, counters, "update_divide", |ctx| {
        let e0 = ctx.bx * ELEMS_PER_BLOCK;
        let mut local_dmr = DmrStats::default();
        for e in e0..(e0 + ELEMS_PER_BLOCK).min(k * dim) {
            let (c, d) = (e / dim, e % dim);
            let n = offsets.load(c + 1) - offsets.load(c);
            let v = if n == 0 {
                old.load_counted(e, ctx.counters)
            } else {
                let s = sums.load_counted(e, ctx.counters);
                let site = MmaSite {
                    block: (ctx.bx, 0),
                    warp: 1,
                    k_step: d,
                    is_checksum: false,
                };
                let divide = |_: u32| hook.post_fma(&site, s / T::from_usize(n as usize));
                if dmr {
                    protected(divide, 3, &mut local_dmr)
                } else {
                    divide(0)
                }
            };
            out.store_counted(e, v, ctx.counters);
        }
        if dmr {
            dmr_stats.lock().merge(&local_dmr);
        }
    })?;

    let dmr = *dmr_stats.lock();
    let bounds = offsets.to_vec();
    Ok(UpdateResult {
        centroids: out.to_matrix(k, dim),
        counts: bounds.windows(2).map(|w| w[1] - w[0]).collect(),
        dmr,
        oob_labels: oob_labels.into_inner(),
    })
}

/// Per-centroid drift `‖c_old − c_new‖` of one update step, written into
/// `out` (length `k`) and returned as its maximum — the two quantities the
/// Hamerly variant loosens its bounds by. A standalone kernel (one block
/// per centroid, counted bulk row loads) so the fused update keeps its
/// exact two-launch profile; the driver folds it into the update phase
/// only for [`crate::config::Variant::Hamerly`] fits.
pub fn centroid_drift<T: Scalar>(
    device: &DeviceProfile,
    old: &GlobalBuffer<T>,
    new: &GlobalBuffer<T>,
    k: usize,
    dim: usize,
    out: &GlobalBuffer<T>,
    counters: &Counters,
) -> Result<T, SimError> {
    if old.len() != k * dim || new.len() != k * dim || out.len() != k {
        return Err(SimError::ShapeMismatch(format!(
            "drift buffers: old {} new {} out {} for k={k} dim={dim}",
            old.len(),
            new.len(),
            out.len()
        )));
    }
    let cfg = LaunchConfig {
        grid: Dim3::x(k.max(1)),
        threads_per_block: 32,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "centroid_drift", |ctx| {
        let j = ctx.bx;
        if j >= k {
            return;
        }
        let mut a = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut b = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        old.load_run(j * dim, &mut a, ctx.counters);
        new.load_run(j * dim, &mut b, ctx.counters);
        let mut acc = T::ZERO;
        for (&av, &bv) in a.iter().zip(b.iter()) {
            let diff = av - bv;
            acc += diff * diff;
        }
        ctx.counters.add_fma((2 * dim) as u64);
        out.store_counted(j, acc.max_s(T::ZERO).sqrt(), ctx.counters);
    })?;
    let mut max_drift = T::ZERO;
    for d in out.to_vec() {
        max_drift = max_drift.max_s(d);
    }
    Ok(max_drift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::update_reference;
    use fault::{
        FaultTarget, InjectionSchedule, Injector, InjectorConfig, PlannedInjection, SeuModel,
    };
    use gpu_sim::mma::NoFault;

    fn setup(m: usize, dim: usize, k: usize) -> (Matrix<f64>, Vec<u32>, Matrix<f64>) {
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let labels: Vec<u32> = (0..m).map(|i| (i % k) as u32).collect();
        let old = Matrix::<f64>::from_fn(k, dim, |r, c| (r + c) as f64);
        (samples, labels, old)
    }

    #[test]
    fn matches_reference_update() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(100, 5, 7);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 100, 5, &labels, &old, false, &NoFault, &c).unwrap();
        let (want, want_counts) = update_reference(&samples, &labels, &old);
        assert_eq!(out.counts, want_counts);
        // Same summation order as the reference (zero, then ascending
        // sample ids), so the match is exact.
        assert_eq!(out.centroids, want);
    }

    #[test]
    fn segmented_update_is_atomic_free_and_schedule_independent() {
        let (m, dim, k) = (1000, 40, 3);
        let samples = Matrix::<f32>::from_fn(m, dim, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
        let labels: Vec<u32> = (0..m).map(|i| ((i * i) % k) as u32).collect();
        let old = Matrix::<f32>::zeros(k, dim);
        let run = |exec: gpu_sim::Executor| {
            gpu_sim::exec::with_executor(&exec, || {
                let dev = DeviceProfile::a100();
                let c = Counters::new();
                let buf = GlobalBuffer::from_matrix(&samples);
                let out = update_centroids(&dev, &buf, m, dim, &labels, &old, true, &NoFault, &c)
                    .unwrap();
                (out.centroids, out.counts, c.snapshot())
            })
        };
        let (want, want_counts) = update_reference(&samples, &labels, &old);
        let serial = run(gpu_sim::Executor::serial());
        assert_eq!(serial.0, want);
        assert_eq!(serial.1, want_counts);
        assert_eq!(serial.2.atomic_ops, 0, "no atomics anywhere in the update");
        assert_eq!(serial.2.kernel_launches, 3, "sort, accumulate, divide");
        for workers in [1, 2, 4] {
            assert_eq!(run(gpu_sim::Executor::with_workers(workers)), serial);
        }
    }

    #[test]
    fn empty_cluster_keeps_old_position() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::filled(4, 2, 1.0);
        let labels = vec![0, 0, 0, 0];
        let old = Matrix::from_vec(2, 2, vec![0.0f32, 0.0, 7.0, 8.0]).unwrap();
        let out = update_centroids(
            &dev,
            &GlobalBuffer::from_matrix(&samples),
            4,
            2,
            &labels,
            &old,
            false,
            &NoFault,
            &c,
        )
        .unwrap();
        assert_eq!(out.counts, vec![4, 0]);
        assert_eq!(out.centroids.get(1, 0), 7.0);
        assert_eq!(out.centroids.get(1, 1), 8.0);
        assert_eq!(out.centroids.get(0, 0), 1.0);
    }

    #[test]
    fn dmr_votes_out_injected_fault() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 4, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        // One planned strike on the accumulation FMA of block 0.
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 2,
            elem_idx: 0,
            bit: 62,
            target_checksum: false,
        }]);
        let out = update_centroids(&dev, &buf, 64, 4, &labels, &old, true, &inj, &c).unwrap();
        assert_eq!(inj.injected_count(), 1);
        assert_eq!(out.dmr.mismatches, 1, "DMR caught the corrupted replica");
        let (want, _) = update_reference(&samples, &labels, &old);
        assert!(
            out.centroids.max_abs_diff(&want) < 1e-9,
            "result unaffected"
        );
    }

    /// Reaches the injector through `post_fma` only: a row is handed over
    /// one element at a time, `k_step = d` in ascending `d`, the calls the
    /// update made before it had a row hook.
    struct PerElement<'a>(&'a Injector);

    impl FaultHook<f32> for PerElement<'_> {
        fn post_mma(&self, site: &MmaSite, acc: &mut [f32], wn: usize) {
            self.0.post_mma(site, acc, wn);
        }
        fn post_fma(&self, site: &MmaSite, value: f32) -> f32 {
            self.0.post_fma(site, value)
        }
        fn post_fma_row(&self, site: &MmaSite, row: &mut [f32]) {
            for (d, v) in row.iter_mut().enumerate() {
                *v = self.0.post_fma(&MmaSite { k_step: d, ..*site }, *v);
            }
        }
    }

    #[test]
    fn row_hook_injects_exactly_like_the_per_element_hook() {
        let (m, dim, k) = (400, 6, 5);
        let samples = Matrix::<f32>::from_fn(m, dim, |r, c| ((r * 5 + c) as f32 * 0.31).cos());
        let labels: Vec<u32> = (0..m).map(|i| ((i * 7) % k) as u32).collect();
        let old = Matrix::<f32>::zeros(k, dim);
        let injector = || {
            Injector::new(InjectorConfig {
                schedule: InjectionSchedule::Rate {
                    errors_per_second: 3.0,
                },
                model: SeuModel {
                    target: FaultTarget::SimtFma,
                    max_per_block: 2,
                },
                seed: 11,
                kernel_time_hint_s: 1.0,
                blocks_hint: k,
                // Many candidate strikes per block, so the SEU cap keeps
                // only the first ones in call order.
                events_per_block_hint: dim as u64,
            })
        };
        let run = |hook: &dyn FaultHook<f32>| {
            let dev = DeviceProfile::a100();
            let c = Counters::new();
            let buf = GlobalBuffer::from_matrix(&samples);
            let out = update_centroids(&dev, &buf, m, dim, &labels, &old, false, hook, &c).unwrap();
            (out.centroids, out.counts, c.snapshot())
        };
        let (row, per_element) = (injector(), injector());
        let got = run(&row);
        let want = run(&PerElement(&per_element));
        assert!(row.injected_count() >= 2, "the schedule must strike");
        assert_eq!(row.records(), per_element.records());
        assert_eq!(got.1, want.1);
        assert_eq!(got.2, want.2);
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.0), bits(&want.0));
        assert_ne!(got.0, update_reference(&samples, &labels, &old).0);
    }

    #[test]
    fn unprotected_update_is_corrupted_by_same_fault() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 4, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 2,
            elem_idx: 0,
            bit: 62,
            target_checksum: false,
        }]);
        let out = update_centroids(&dev, &buf, 64, 4, &labels, &old, false, &inj, &c).unwrap();
        let (want, _) = update_reference(&samples, &labels, &old);
        assert!(
            out.centroids.max_abs_diff(&want) > 1.0,
            "without DMR the flip silently lands in a centroid"
        );
    }

    #[test]
    fn out_of_range_label_is_detected_not_fatal() {
        // A bit flip in a label can push it far past k; the update must
        // survive (no OOB indexing, debug or release), report the fault,
        // and exclude only the corrupted sample.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, mut labels, old) = setup(100, 5, 7);
        labels[17] = 7 + (1 << 20); // corrupted label, way out of range
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 100, 5, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.oob_labels, 1, "corruption counted as detected");
        // Result equals the reference computed over the surviving samples.
        let mut clean_labels = labels.clone();
        clean_labels[17] = 0;
        let keep: Vec<usize> = (0..100).filter(|&i| i != 17).collect();
        let kept = Matrix::from_fn(keep.len(), 5, |r, cc| samples.get(keep[r], cc));
        let kept_labels: Vec<u32> = keep.iter().map(|&i| clean_labels[i]).collect();
        let (want, want_counts) = update_reference(&kept, &kept_labels, &old);
        assert_eq!(out.counts, want_counts);
        assert!(out.centroids.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn in_range_labels_report_zero_oob() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 3, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 64, 3, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.oob_labels, 0);
    }

    #[test]
    fn centroid_drift_is_rowwise_euclidean_and_standalone() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let old = GlobalBuffer::<f64>::from_slice(&[0.0, 0.0, 1.0, 1.0, 5.0, 5.0]);
        let new = GlobalBuffer::<f64>::from_slice(&[3.0, 4.0, 1.0, 1.0, 5.0, 4.0]);
        let out = GlobalBuffer::<f64>::zeros(3);
        let before = c.snapshot();
        let max_drift = centroid_drift(&dev, &old, &new, 3, 2, &out, &c).unwrap();
        assert_eq!(out.to_vec(), vec![5.0, 0.0, 1.0]);
        assert_eq!(max_drift, 5.0);
        // one launch — the fused update keeps its two-launch profile
        assert_eq!(c.snapshot().since(&before).kernel_launches, 1);
        // shape mismatches rejected
        assert!(centroid_drift(&dev, &old, &new, 2, 2, &out, &c).is_err());
    }

    #[test]
    fn dmr_off_has_zero_stats() {
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let (samples, labels, old) = setup(16, 2, 2);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 16, 2, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.dmr, DmrStats::default());
    }
}
