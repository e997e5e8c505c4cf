//! The per-warp online checksum state machine fused into the tensor
//! kernel's main loop (paper Fig. 6).
//!
//! Per K-slab the warp already holds its A and B register fragments, so the
//! input checksums (`e1ᵀX`, `Xᵀe2`, `Ye1`, `Ye2` — lines 15–18) cost only
//! CUDA-core adds and **no extra memory traffic** — this is what makes the
//! scheme compatible with `cp.async`, unlike register-reuse ABFT. The three
//! checksum products (lines 22–24) are genuine tensor-core MMAs and pass
//! through the same [`gpu_sim::FaultHook`] as payload MMAs, so injected
//! faults can strike the checksums themselves; the state machine handles
//! that case by re-baselining (under the single-event-upset assumption a
//! located failure in the checksum implies a clean payload).

use crate::checksum::ChecksumTriple;
use crate::correct::correct_in_place;
use crate::detect::compare;
use crate::locate::{locate, Located};
use crate::threshold::ThresholdPolicy;
use gpu_sim::counters::EventSink;
use gpu_sim::mma::{FaultHook, FragmentMma, MmaSite};
use gpu_sim::{Scalar, ScratchBuf};

/// Whether the state machine corrects in place or only detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineMode {
    /// FT K-means: detect, locate, correct in place.
    DetectCorrect,
    /// Kosaian-style: detect only; the caller must recompute.
    DetectOnly,
}

/// Outcome of one online verification sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckOutcome {
    /// Checksums agree within δ.
    Clean,
    /// A single payload error was located and subtracted.
    Corrected {
        row: usize,
        col: usize,
        magnitude: f64,
    },
    /// The discrepancy was inconsistent with a single payload error (the
    /// fault hit a checksum accumulator); the reference was re-baselined to
    /// the payload.
    Rebaselined,
    /// Detection-only mode: an error was detected; recompute from
    /// `since_k`.
    RecomputeRequired { since_k: usize },
}

/// Per-warp online ABFT state.
#[derive(Debug, Clone)]
pub struct WarpOnlineState<T> {
    reference: ChecksumTriple<T>,
    wm: usize,
    wn: usize,
    policy: ThresholdPolicy,
    mode: OnlineMode,
    last_verified_k: usize,
    dot: FragmentMma,
}

impl<T: Scalar> WarpOnlineState<T> {
    /// Fresh state for a `wm x wn` warp accumulator tile.
    pub fn new(wm: usize, wn: usize, policy: ThresholdPolicy, mode: OnlineMode) -> Self {
        WarpOnlineState {
            reference: ChecksumTriple::zero(),
            wm,
            wn,
            policy,
            mode,
            last_verified_k: 0,
            dot: FragmentMma::new::<T>(1, 1),
        }
    }

    /// The mode this state operates in.
    pub fn mode(&self) -> OnlineMode {
        self.mode
    }

    /// Current reference checksums (test introspection).
    pub fn reference(&self) -> &ChecksumTriple<T> {
        &self.reference
    }

    /// Accumulate the checksum contribution of one K-slab from the warp's
    /// register fragments (`a_frag`: `wm x kk`, `b_frag`: `wn x kk`).
    ///
    /// The per-column input sums run on CUDA cores; the three dot products
    /// run as tensor-core MMAs through `hook` (so they are themselves
    /// corruptible — the paper's fault model does not exempt checksum
    /// computation).
    pub fn accumulate<H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &mut self,
        a_frag: &[T],
        b_frag: &[T],
        kk: usize,
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        debug_assert_eq!(a_frag.len(), self.wm * kk);
        debug_assert_eq!(b_frag.len(), self.wn * kk);
        // Input sums (Fig. 6 lines 15-18): e1ᵀA, e2ᵀA, Be1, Be2 per column.
        let weighted = self.mode == OnlineMode::DetectCorrect;
        let mut a1 = ScratchBuf::<T, SLAB_K>::filled(kk, T::ZERO);
        let mut a2 = ScratchBuf::<T, SLAB_K>::filled(kk, T::ZERO);
        let mut b1 = ScratchBuf::<T, SLAB_K>::filled(kk, T::ZERO);
        let mut b2 = ScratchBuf::<T, SLAB_K>::filled(kk, T::ZERO);
        col_sums(a_frag, kk, weighted, &mut a1, &mut a2);
        col_sums(b_frag, kk, weighted, &mut b1, &mut b2);
        counters.add_ft_cuda((2 * (self.wm + self.wn) * kk) as u64);

        let cs_site = MmaSite {
            is_checksum: true,
            ..site
        };
        // s11 += Σ_k a1[k]·b1[k]  (one tensor-core dot per product)
        let mut acc11 = [self.reference.s11];
        self.dot
            .mma(&mut acc11, &a1, &b1, kk, cs_site, hook, counters);
        self.reference.s11 = acc11[0];
        if self.mode == OnlineMode::DetectCorrect {
            let mut acc21 = [self.reference.s21];
            self.dot
                .mma(&mut acc21, &a2, &b1, kk, cs_site, hook, counters);
            self.reference.s21 = acc21[0];
            let mut acc12 = [self.reference.s12];
            self.dot
                .mma(&mut acc12, &a1, &b2, kk, cs_site, hook, counters);
            self.reference.s12 = acc12[0];
        }
    }

    /// Verify the accumulator tile at K-position `k_now` and, in
    /// `DetectCorrect` mode, repair a located error in place (Fig. 6 lines
    /// 25–31).
    ///
    /// Decision tree (all under the single-event-upset assumption):
    ///
    /// 1. payload contains Inf/NaN → in-place arithmetic cannot restore it:
    ///    request recomputation;
    /// 2. checksums agree → clean;
    /// 3. detection-only mode → request recomputation;
    /// 4. the plain-sum checksum `s11` agrees but a weighted checksum
    ///    deviates → a single fault can only do that by striking a checksum
    ///    accumulator, so the payload is trustworthy: re-baseline;
    /// 5. `s11` deviates and the error locates → correct in place, then
    ///    re-verify (a correction polluted by rounding of an astronomical
    ///    error magnitude must not survive — fall back to recomputation);
    /// 6. `s11` deviates but location decoding fails (overflowed weighted
    ///    sums, multi-error) → request recomputation.
    pub fn check<C: EventSink + ?Sized>(
        &mut self,
        acc: &mut [T],
        k_now: usize,
        counters: &C,
    ) -> CheckOutcome {
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        // (1) Inf/NaN in the payload: no subtraction can repair it.
        if acc.iter().any(|v| !v.is_finite_s()) {
            return CheckOutcome::RecomputeRequired {
                since_k: self.last_verified_k,
            };
        }
        let observed = self.observed(acc, counters);
        let Some(disc) = compare(&observed, &self.reference, &self.policy) else {
            self.last_verified_k = k_now;
            return CheckOutcome::Clean;
        };
        // (3) Detection-only schemes never attempt in-place repair.
        if self.mode == OnlineMode::DetectOnly {
            return CheckOutcome::RecomputeRequired {
                since_k: self.last_verified_k,
            };
        }
        // (4) A payload error of magnitude e perturbs s11 by e; if s11
        // agrees, the fault must have hit a checksum accumulator.
        if !self.policy.is_error(disc.d, disc.scale) {
            self.rebaseline(acc, counters);
            self.last_verified_k = k_now;
            return CheckOutcome::Rebaselined;
        }
        match locate(&disc, self.wm, self.wn) {
            Located::At { row, col } => {
                let magnitude = disc.d;
                correct_in_place(acc, self.wn, row, col, magnitude);
                // (5) Re-verify: a mislocated or precision-polluted
                // correction must not survive.
                let after = self.observed(acc, counters);
                if compare(&after, &self.reference, &self.policy).is_none() {
                    self.last_verified_k = k_now;
                    CheckOutcome::Corrected {
                        row,
                        col,
                        magnitude,
                    }
                } else {
                    correct_in_place(acc, self.wn, row, col, -magnitude);
                    CheckOutcome::RecomputeRequired {
                        since_k: self.last_verified_k,
                    }
                }
            }
            Located::Ambiguous => {
                // A payload error of magnitude e moves the weighted sums by
                // (r+1)·e and (c+1)·e ≥ e. If both weighted checksums agree
                // while s11 deviates, the fault hit the s11 accumulator
                // itself: the payload is trustworthy.
                let weighted_clean = !self.policy.is_error(disc.d21, disc.scale * 2.0)
                    && !self.policy.is_error(disc.d12, disc.scale * 2.0);
                if weighted_clean {
                    self.rebaseline(acc, counters);
                    self.last_verified_k = k_now;
                    CheckOutcome::Rebaselined
                } else {
                    // (6) Unlocatable payload error (overflow, multi-error).
                    CheckOutcome::RecomputeRequired {
                        since_k: self.last_verified_k,
                    }
                }
            }
        }
    }

    /// Reset the reference checksums to match the current accumulator
    /// (after an external recompute, or when the checksums were corrupted).
    pub fn rebaseline<C: EventSink + ?Sized>(&mut self, acc: &[T], counters: &C) {
        self.reference = self.observed(acc, counters);
    }

    fn observed<C: EventSink + ?Sized>(&self, acc: &[T], counters: &C) -> ChecksumTriple<T> {
        counters.add_ft_cuda((3 * self.wm * self.wn) as u64);
        let mut t = ChecksumTriple::from_tile(acc, self.wm, self.wn);
        if self.mode == OnlineMode::DetectOnly {
            // Detection-only states never accumulated the weighted
            // references; comparing them against zero would false-alarm.
            t.s21 = T::ZERO;
            t.s12 = T::ZERO;
        }
        t
    }
}

/// Slab depths held on the stack: the MMA K of both precisions (8 for
/// TF32, 4 for FP64). Deeper slabs spill to the heap.
const SLAB_K: usize = 8;

/// Column sums `s1[k] = Σ_i frag[i,k]` and, when `weighted`, `s2[k] =
/// Σ_i (i+1)·frag[i,k]` of a row-major `rows x kk` fragment. Walks the
/// fragment row by row, so each column still adds its terms from zero in
/// ascending `i`: the results equal [`gpu_sim::warp::frag_col_sum`] /
/// [`gpu_sim::warp::frag_col_weighted_sum`] bit for bit, without their
/// strided reads.
fn col_sums<T: Scalar>(frag: &[T], kk: usize, weighted: bool, s1: &mut [T], s2: &mut [T]) {
    if kk == 0 {
        return;
    }
    for (i, row) in frag.chunks_exact(kk).enumerate() {
        for (s, &x) in s1.iter_mut().zip(row) {
            *s += x;
        }
        if weighted {
            let w = T::from_usize(i + 1);
            for (s, &x) in s2.iter_mut().zip(row) {
                *s += w * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::counters::Counters;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Precision;

    const WM: usize = 4;
    const WN: usize = 3;
    const KK: usize = 4;

    fn site() -> MmaSite {
        MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        }
    }

    /// Run `slabs` accumulation steps over deterministic fragments,
    /// returning (state, acc).
    fn run_clean(mode: OnlineMode) -> (WarpOnlineState<f64>, Vec<f64>) {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, mode);
        let exec = FragmentMma::new::<f64>(WM, WN);
        let mut acc = vec![0.0f64; WM * WN];
        for slab in 0..3 {
            let a: Vec<f64> = (0..WM * KK)
                .map(|i| ((i + slab * 7) % 5) as f64 * 0.5 - 1.0)
                .collect();
            let b: Vec<f64> = (0..WN * KK)
                .map(|i| ((i + slab * 3) % 7) as f64 * 0.25 - 0.75)
                .collect();
            exec.mma(&mut acc, &a, &b, KK, site(), &NoFault, &c);
            st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        }
        (st, acc)
    }

    #[test]
    fn clean_run_verifies_clean() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        assert_eq!(st.check(&mut acc, 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn payload_error_is_located_and_corrected() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        acc[2 * WN + 1] += 13.5; // corrupt (2,1)
        match st.check(&mut acc, 12, &c) {
            CheckOutcome::Corrected {
                row,
                col,
                magnitude,
            } => {
                assert_eq!((row, col), (2, 1));
                assert!((magnitude - 13.5).abs() < 1e-9);
            }
            other => panic!("expected correction, got {other:?}"),
        }
        for (a, b) in acc.iter().zip(&clean) {
            assert!((a - b).abs() < 1e-9, "tile restored");
        }
        // A subsequent sweep is clean.
        assert_eq!(st.check(&mut acc, 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn negative_error_corrected_too() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        acc[0] -= 42.0;
        assert!(matches!(
            st.check(&mut acc, 12, &c),
            CheckOutcome::Corrected { row: 0, col: 0, .. }
        ));
        assert!((acc[0] - clean[0]).abs() < 1e-9);
    }

    #[test]
    fn checksum_corruption_rebaselines_without_touching_payload() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        // Corrupt the reference checksum (as if the fault hit a checksum MMA).
        st.reference.s11 += 99.0;
        assert_eq!(st.check(&mut acc, 12, &c), CheckOutcome::Rebaselined);
        assert_eq!(acc, clean, "payload untouched");
        assert_eq!(st.check(&mut acc, 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn detect_only_mode_requests_recompute() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectOnly);
        acc[5] += 7.0;
        assert_eq!(
            st.check(&mut acc, 12, &c),
            CheckOutcome::RecomputeRequired { since_k: 0 }
        );
        // After the caller recomputes, it re-baselines and proceeds.
        acc[5] -= 7.0;
        st.rebaseline(&acc, &c);
        assert_eq!(st.check(&mut acc, 16, &c), CheckOutcome::Clean);
    }

    #[test]
    fn detect_only_skips_weighted_checksums() {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, OnlineMode::DetectOnly);
        let a = vec![1.0f64; WM * KK];
        let b = vec![2.0f64; WN * KK];
        st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        assert_eq!(st.reference().s21, 0.0, "weighted row checksum skipped");
        assert_eq!(st.reference().s12, 0.0, "weighted col checksum skipped");
        // s11 = Σ_k (Σ_i 1)(Σ_j 2) = KK * WM * 2*WN
        assert_eq!(st.reference().s11, (KK * WM * 2 * WN) as f64);
    }

    /// The reference triple after one slab, with the column sums taken by
    /// the strided per-column warp reductions.
    fn strided_reference<T: Scalar>(
        a: &[T],
        b: &[T],
        wm: usize,
        wn: usize,
        kk: usize,
        start: &ChecksumTriple<T>,
    ) -> ChecksumTriple<T> {
        use gpu_sim::warp::{frag_col_sum, frag_col_weighted_sum};
        let a1: Vec<T> = (0..kk).map(|k| frag_col_sum(a, wm, kk, k)).collect();
        let b1: Vec<T> = (0..kk).map(|k| frag_col_sum(b, wn, kk, k)).collect();
        let a2: Vec<T> = (0..kk)
            .map(|k| frag_col_weighted_sum(a, wm, kk, k))
            .collect();
        let b2: Vec<T> = (0..kk)
            .map(|k| frag_col_weighted_sum(b, wn, kk, k))
            .collect();
        let c = Counters::new();
        let dot = FragmentMma::new::<T>(1, 1);
        let mut out = *start;
        for (acc, x, y) in [
            (&mut out.s11, &a1, &b1),
            (&mut out.s21, &a2, &b1),
            (&mut out.s12, &a1, &b2),
        ] {
            let mut tile = [*acc];
            dot.mma(&mut tile, x, y, kk, site(), &NoFault, &c);
            *acc = tile[0];
        }
        out
    }

    fn row_order_sums_match_strided<T: Scalar>(seed: u64) {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(T::PRECISION);
        for _ in 0..200 {
            let wm = 1 + (next() % 63) as usize;
            let wn = 1 + (next() % 63) as usize;
            let kk = [4, 8][(next() % 2) as usize];
            // Mixed magnitudes, so reordered sums would round differently.
            let mut value = || {
                let r = next();
                let mant = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                T::from_f64(mant * 2f64.powi((r % 24) as i32 - 8))
            };
            let a: Vec<T> = (0..wm * kk).map(|_| value()).collect();
            let b: Vec<T> = (0..wn * kk).map(|_| value()).collect();
            let mut st = WarpOnlineState::<T>::new(wm, wn, policy, OnlineMode::DetectCorrect);
            st.reference = ChecksumTriple {
                s11: value(),
                s21: value(),
                s12: value(),
            };
            let want = strided_reference(&a, &b, wm, wn, kk, st.reference());
            st.accumulate(&a, &b, kk, site(), &NoFault, &c);
            let got = st.reference();
            for (g, w) in [
                (got.s11, want.s11),
                (got.s21, want.s21),
                (got.s12, want.s12),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "wm={wm} wn={wn} kk={kk}");
            }
        }
    }

    #[test]
    fn row_order_column_sums_are_bitwise_the_strided_sums() {
        row_order_sums_match_strided::<f32>(0x5eed_0032);
        row_order_sums_match_strided::<f64>(0x5eed_0064);
    }

    #[test]
    fn counters_track_ft_work() {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, OnlineMode::DetectCorrect);
        let a = vec![1.0f64; WM * KK];
        let b = vec![1.0f64; WN * KK];
        st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        let s = c.snapshot();
        assert!(s.ft_cuda_ops > 0);
        assert_eq!(s.ft_mma_ops, 3, "three checksum dot-MMAs per slab");
        assert_eq!(s.mma_ops, 0, "no payload MMAs issued here");
    }
}
