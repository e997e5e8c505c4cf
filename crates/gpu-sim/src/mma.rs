//! Warp-level tensor-core matrix-multiply-accumulate.
//!
//! The paper's kernels issue `mma.sync` instructions over register fragments
//! (`m16n8k8` for TF32, `m8n8k4` for FP64, Fig. 4 line 17). The simulator
//! executes MMA at warp-tile granularity: a warp owns a `wm x wn` block of
//! accumulators and each call performs `acc[i][j] += Σ_k a[i][k] * b[j][k]`
//! for a `kk`-deep slab, applying TF32 input truncation for `f32`.
//!
//! Every MMA call passes through a [`FaultHook`], the interception point the
//! fault injector (crate `ftk-fault`) uses to flip bits in accumulator
//! outputs — errors born *inside the compute units*, exactly the paper's
//! fail-continue fault model (§II-A).

use crate::counters::EventSink;
use crate::scalar::Scalar;

/// Hardware MMA tile shapes per precision (M, N, K of one `mma.sync`).
pub mod shapes {
    /// Ampere TF32 `mma.sync.aligned.m16n8k8`.
    pub const FP32_MMA: (usize, usize, usize) = (16, 8, 8);
    /// Ampere FP64 `mma.sync.aligned.m8n8k4`.
    pub const FP64_MMA: (usize, usize, usize) = (8, 8, 4);
}

/// Identifies one warp-level MMA issue site, for fault targeting and
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmaSite {
    /// Threadblock coordinates in the launch grid.
    pub block: (usize, usize),
    /// Warp index within the threadblock.
    pub warp: usize,
    /// Position along the GEMM K dimension (start of the slab).
    pub k_step: usize,
    /// True when this MMA computes an ABFT checksum rather than payload.
    pub is_checksum: bool,
}

/// Interception point for transient-fault injection into compute results.
///
/// Implementations must be cheap in the common (no fault) case; the hook is
/// invoked once per warp-tile MMA slab, once per SIMT FMA result, and once
/// per row of update sums.
pub trait FaultHook<T: Scalar>: Sync {
    /// Inspect/corrupt the accumulator tile (`wm x wn`, row-major) after the
    /// MMA slab at `site` completed.
    fn post_mma(&self, site: &MmaSite, acc: &mut [T], wn: usize);

    /// Inspect/corrupt a single SIMT FMA result (used by the CUDA-core
    /// kernels of the step-wise variants).
    fn post_fma(&self, site: &MmaSite, value: T) -> T {
        let _ = site;
        value
    }

    /// Inspect/corrupt a row of SIMT FMA results, one per `d` along the row
    /// (the centroid update's per-dimension sums). `site.k_step` is ignored;
    /// element `d` is the result at `k_step = d`.
    ///
    /// Contract: an override must behave exactly like this default, which
    /// calls [`FaultHook::post_fma`] on each element in ascending `d` — the
    /// same calls, in the same order, with the same sites — so injection
    /// decisions and records do not depend on which entry point a kernel
    /// uses. Hooks that never corrupt override it as a no-op, which saves
    /// one dynamic call per element.
    fn post_fma_row(&self, site: &MmaSite, row: &mut [T]) {
        for (d, v) in row.iter_mut().enumerate() {
            let site = MmaSite { k_step: d, ..*site };
            *v = self.post_fma(&site, *v);
        }
    }
}

/// The default hook: faults disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl<T: Scalar> FaultHook<T> for NoFault {
    #[inline]
    fn post_mma(&self, _site: &MmaSite, _acc: &mut [T], _wn: usize) {}

    #[inline]
    fn post_fma_row(&self, _site: &MmaSite, _row: &mut [T]) {}
}

/// Functional warp-tile MMA executor.
///
/// `wm`/`wn` are the warp tile dimensions in elements; the executor derives
/// how many hardware `mma.sync` instructions one slab costs from the
/// precision's tile shape, for counter purposes.
#[derive(Debug, Clone, Copy)]
pub struct FragmentMma {
    wm: usize,
    wn: usize,
    mma_shape: (usize, usize, usize),
}

impl FragmentMma {
    /// Create an executor for a `wm x wn` warp tile of precision `P`.
    pub fn new<T: Scalar>(wm: usize, wn: usize) -> Self {
        let mma_shape = match T::PRECISION {
            crate::device::Precision::Fp32 => shapes::FP32_MMA,
            crate::device::Precision::Fp64 => shapes::FP64_MMA,
        };
        FragmentMma { wm, wn, mma_shape }
    }

    pub fn wm(&self) -> usize {
        self.wm
    }

    pub fn wn(&self) -> usize {
        self.wn
    }

    /// Number of hardware `mma.sync` instructions one `kk`-deep slab costs.
    pub fn hw_mma_count(&self, kk: usize) -> u64 {
        let (tm, tn, tk) = self.mma_shape;
        (self.wm.div_ceil(tm) * self.wn.div_ceil(tn) * kk.div_ceil(tk)) as u64
    }

    /// `acc[i][j] += Σ_k a[i*kk+k] * b[j*kk+k]`, with TF32 truncation of the
    /// inputs for `f32`, fault-hook interception, and MMA counting.
    ///
    /// * `acc` — `wm*wn` row-major accumulator fragment,
    /// * `a` — `wm*kk` row-major A fragment (rows of X),
    /// * `b` — `wn*kk` row-major B fragment (rows of Y),
    /// * `kk` — slab depth.
    ///
    /// The micro-kernel is register-blocked four output columns wide: the
    /// four dot products run as independent accumulation chains over the
    /// contiguous fragment rows. Every output still accumulates its `k`
    /// terms in ascending order, so results are bitwise identical to the
    /// scalar triple loop — only instruction-level parallelism changes.
    ///
    /// Tile padding is charged but not multiplied. A cell whose k-sum is
    /// provably `+0.0` skips its dot product and gets `c += 0.0`, which is
    /// what the triple loop computes for it (`-0.0 + 0.0 = +0.0`, NaN and
    /// ±inf pass through). On the TF32-rounded operands those are the
    /// columns of the trailing all-±0 B rows when the whole A panel is
    /// finite. The counters and the fault hook still see the full
    /// `wm x wn` warp tile.
    #[allow(clippy::too_many_arguments)]
    pub fn mma<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &self,
        acc: &mut [T],
        a: &[T],
        b: &[T],
        kk: usize,
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        debug_assert_eq!(a.len(), self.wm * kk);
        debug_assert_eq!(b.len(), self.wn * kk);
        // Fast path: stage B transposed to k-major in registers/local
        // scratch, TF32-converted exactly once per element. The inner loop
        // then walks contiguous j-runs, which vectorizes across output
        // columns; every output still accumulates its k terms in ascending
        // order, so results stay bitwise identical to the scalar triple
        // loop (TF32 conversion is elementwise and deterministic).
        const AMAX: usize = 64;
        const BT_MAX: usize = 512;
        if kk <= AMAX && self.wn * kk <= BT_MAX {
            let (wm, wn) = (self.wm, self.wn);
            let nonzero = |row: &[T]| {
                row.iter()
                    .fold(false, |nz, &v| nz | (v.to_tf32() != T::ZERO))
            };
            // Live columns: up to the last B row with a nonzero (or NaN)
            // rounded element; an unpadded panel stops at its last row.
            let live_cols = (0..wn)
                .rev()
                .find(|&j| nonzero(&b[j * kk..(j + 1) * kk]))
                .map_or(0, |j| j + 1);
            // Dead columns sum to +0.0 only against a finite A panel
            // (inf * 0 = NaN); one fold per slab, only when padded.
            let finite_a = || a.iter().fold(true, |f, &v| f & v.to_tf32().is_finite_s());
            let cols = if live_cols < wn && finite_a() {
                live_cols
            } else {
                wn
            };
            let rows = if cols == 0 { 0 } else { wm };
            let mut bt = [T::ZERO; BT_MAX];
            for j in 0..cols {
                let brow = &b[j * kk..(j + 1) * kk];
                for (k, &v) in brow.iter().enumerate() {
                    bt[k * wn + j] = v.to_tf32();
                }
            }
            // One zero-init per slab, refilled (first kk slots) per row.
            let mut at = [T::ZERO; AMAX];
            for i in 0..rows {
                for (d, s) in at[..kk].iter_mut().zip(&a[i * kk..(i + 1) * kk]) {
                    *d = s.to_tf32();
                }
                let crow = &mut acc[i * wn..(i + 1) * wn];
                let mut j = 0;
                while j + 16 <= cols {
                    dot_block::<T, 16>(crow, &at[..kk], &bt, wn, j);
                    j += 16;
                }
                while j + 4 <= cols {
                    dot_block::<T, 4>(crow, &at[..kk], &bt, wn, j);
                    j += 4;
                }
                while j < cols {
                    dot_block::<T, 1>(crow, &at[..kk], &bt, wn, j);
                    j += 1;
                }
                for cj in &mut crow[cols..] {
                    *cj += T::ZERO;
                }
            }
            for cj in &mut acc[rows * wn..] {
                *cj += T::ZERO;
            }
        } else {
            // Fallback for oversized fragments: the scalar triple loop.
            for i in 0..self.wm {
                let arow = &a[i * kk..(i + 1) * kk];
                let crow = &mut acc[i * self.wn..(i + 1) * self.wn];
                for (j, cj) in crow.iter_mut().enumerate() {
                    let brow = &b[j * kk..(j + 1) * kk];
                    let mut sum = T::ZERO;
                    for k in 0..kk {
                        sum += arow[k].to_tf32() * brow[k].to_tf32();
                    }
                    *cj += sum;
                }
            }
        }
        let n = self.hw_mma_count(kk);
        if site.is_checksum {
            counters.add_ft_mma(n);
        } else {
            counters.add_mma(n);
        }
        hook.post_mma(&site, acc, self.wn);
    }
}

/// `W` independent dot-product chains over a k-major transposed B panel:
/// `crow[j+l] += Σ_k at[k] * bt[k*wn + j+l]` for `l in 0..W`. Each output's
/// k terms accumulate in ascending order, preserving the bitwise-identity
/// contract of [`FragmentMma::mma`] at every block width.
#[inline]
fn dot_block<T: Scalar, const W: usize>(crow: &mut [T], at: &[T], bt: &[T], wn: usize, j: usize) {
    let mut s = [T::ZERO; W];
    for (k, &av) in at.iter().enumerate() {
        let brun = &bt[k * wn + j..k * wn + j + W];
        for (sl, &bv) in s.iter_mut().zip(brun) {
            *sl += av * bv;
        }
    }
    for (cj, &sl) in crow[j..j + W].iter_mut().zip(&s) {
        *cj += sl;
    }
}

/// A scalar checksum MMA: `acc += a * b` on a tensor core (the paper uses a
/// single `mma.sync` for each of the three checksum products, Fig. 6 lines
/// 22–24). Counted as one checksum MMA.
pub fn checksum_mma<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
    acc: &mut T,
    a: T,
    b: T,
    site: MmaSite,
    hook: &H,
    counters: &C,
) {
    let mut tile = [*acc];
    tile[0] += a.to_tf32() * b.to_tf32();
    counters.add_ft_mma(1);
    hook.post_mma(&site, &mut tile, 1);
    *acc = tile[0];
}

/// SIMT fused multiply-add with fault-hook interception (CUDA-core path of
/// the naive/V1/V2/V3 kernels).
#[inline]
pub fn simt_fma<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
    acc: T,
    a: T,
    b: T,
    site: &MmaSite,
    hook: &H,
    counters: &C,
) -> T {
    counters.add_fma(1);
    hook.post_fma(site, acc + a * b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    struct FlipFirst;
    impl FaultHook<f64> for FlipFirst {
        fn post_mma(&self, _site: &MmaSite, acc: &mut [f64], _wn: usize) {
            acc[0] = acc[0].flip_bit(52); // flip an exponent bit
        }
    }

    fn site() -> MmaSite {
        MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        }
    }

    #[test]
    fn mma_matches_reference_f64() {
        let exec = FragmentMma::new::<f64>(4, 3);
        let kk = 5;
        let a: Vec<f64> = (0..4 * kk).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..3 * kk).map(|i| 1.0 - i as f64 * 0.25).collect();
        let mut acc = vec![0.0f64; 12];
        let c = Counters::new();
        exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &c);
        for i in 0..4 {
            for j in 0..3 {
                let expect: f64 = (0..kk).map(|k| a[i * kk + k] * b[j * kk + k]).sum();
                assert!((acc[i * 3 + j] - expect).abs() < 1e-12);
            }
        }
        assert!(c.snapshot().mma_ops > 0);
    }

    /// The scalar triple loop every path of [`FragmentMma::mma`] must equal
    /// bit for bit.
    fn triple_loop<T: Scalar>(acc: &mut [T], a: &[T], b: &[T], wn: usize, kk: usize) {
        for (i, crow) in acc.chunks_exact_mut(wn).enumerate() {
            for (j, cj) in crow.iter_mut().enumerate() {
                let mut sum = T::ZERO;
                for k in 0..kk {
                    sum += a[i * kk + k].to_tf32() * b[j * kk + k].to_tf32();
                }
                *cj += sum;
            }
        }
    }

    #[test]
    fn register_blocked_path_matches_scalar_reference_bitwise() {
        // wn = 9 exercises both the 4-wide blocked loop and the scalar tail;
        // equality must be bitwise, not approximate — the register blocking
        // may not change any output's accumulation order.
        let (wm, wn, kk) = (5, 9, 7);
        let exec = FragmentMma::new::<f32>(wm, wn);
        let a: Vec<f32> = (0..wm * kk).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..wn * kk).map(|i| (i as f32 * 0.37).cos()).collect();
        let mut acc: Vec<f32> = (0..wm * wn).map(|i| i as f32 * 0.01).collect();
        let mut want = acc.clone();
        triple_loop(&mut want, &a, &b, wn, kk);
        let c = Counters::new();
        exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &c);
        for (got, want) in acc.iter().zip(want.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Random panels with padding-shaped zeros (trailing and interior
    /// all-±0 rows in both panels), special accumulators, and `specials`
    /// sprinkled into the operands; every output must match the triple
    /// loop by `to_bits`.
    fn zero_skip_matches_triple_loop_bitwise<T: Scalar>(specials: &[T]) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let signed_zero = |r: u64| if r & 1 == 0 { T::ZERO } else { -T::ZERO };
        let acc_specials = [
            -T::ZERO,
            T::ZERO,
            T::INFINITY,
            -T::INFINITY,
            T::from_f64(f64::NAN),
        ];
        let wm = 6;
        for wn in [1, 4, 9, 16, 32, 64] {
            for kk in [4, 8] {
                let exec = FragmentMma::new::<T>(wm, wn);
                for case in 0..64u64 {
                    let mut val = || T::from_f64((next() % 2001) as f64 / 250.0 - 4.0);
                    let mut a: Vec<T> = (0..wm * kk).map(|_| val()).collect();
                    let mut b: Vec<T> = (0..wn * kk).map(|_| val()).collect();
                    // Rows from `live` on are padding, and one interior
                    // row is zero too, in both panels.
                    let mut pad = |panel: &mut [T], rows: usize| {
                        let live = (next() % (rows as u64 + 1)) as usize;
                        let interior = (next() % rows as u64) as usize;
                        for r in (live..rows).chain([interior]) {
                            for v in &mut panel[r * kk..(r + 1) * kk] {
                                *v = signed_zero(next());
                            }
                        }
                        live
                    };
                    let live = (pad(&mut a, wm), pad(&mut b, wn));
                    // case % 4: 0 clean, 1 specials in A, 2 in B, 3 in both.
                    let mut poison = |panel: &mut [T]| {
                        for _ in 0..1 + next() % 3 {
                            let at = (next() % panel.len() as u64) as usize;
                            panel[at] = specials[(next() % specials.len() as u64) as usize];
                        }
                    };
                    if case % 2 == 1 {
                        poison(&mut a);
                    }
                    if case % 4 >= 2 {
                        poison(&mut b);
                    }
                    let mut acc: Vec<T> = (0..wm * wn)
                        .map(|_| match next() % 8 {
                            r @ 0..=4 => acc_specials[r as usize],
                            _ => T::from_f64((next() % 100) as f64 - 50.0),
                        })
                        .collect();
                    let mut want = acc.clone();
                    triple_loop(&mut want, &a, &b, wn, kk);
                    let c = Counters::new();
                    exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &c);
                    for (idx, (got, want)) in acc.iter().zip(&want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "wn={wn} kk={kk} case={case} live={live:?} cell={idx}: {got} vs {want}"
                        );
                    }
                    assert_eq!(c.snapshot().mma_ops, exec.hw_mma_count(kk));
                }
            }
        }
    }

    #[test]
    fn zero_skip_matches_triple_loop_bitwise_f32() {
        zero_skip_matches_triple_loop_bitwise::<f32>(&[
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,               // rounds to +inf under TF32
            -f32::MAX,              // rounds to -inf
            f32::from_bits(0x0FFF), // subnormal, rounds to +0.0
            f32::from_bits(0x8000_0FFF),
            f32::from_bits(0x7FFF_F000), // NaN payload, rounds to -0.0
            f32::from_bits(0x7F80_0001), // NaN payload, rounds to +inf
        ]);
    }

    #[test]
    fn zero_skip_matches_triple_loop_bitwise_f64() {
        zero_skip_matches_triple_loop_bitwise::<f64>(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::from_bits(1), // smallest subnormal
            -f64::MIN_POSITIVE,
        ]);
    }

    #[test]
    fn mma_accumulates() {
        let exec = FragmentMma::new::<f64>(2, 2);
        let mut acc = vec![10.0f64; 4];
        let c = Counters::new();
        exec.mma(&mut acc, &[1.0, 1.0], &[2.0, 3.0], 1, site(), &NoFault, &c);
        assert_eq!(acc, vec![12.0, 13.0, 12.0, 13.0]);
    }

    #[test]
    fn tf32_truncation_applies_to_f32_inputs() {
        let exec = FragmentMma::new::<f32>(1, 1);
        let c = Counters::new();
        let mut acc = vec![0.0f32];
        // 1 + 2^-12 is below TF32 resolution -> truncates to 1.0
        let a = [1.0f32 + 2.0_f32.powi(-12)];
        let b = [1.0f32];
        exec.mma(&mut acc, &a, &b, 1, site(), &NoFault, &c);
        assert_eq!(acc[0], 1.0);
    }

    #[test]
    fn hw_mma_count_uses_tile_shapes() {
        let e32 = FragmentMma::new::<f32>(64, 32);
        // 64/16 * 32/8 * 8/8 = 16 instructions per 8-deep slab
        assert_eq!(e32.hw_mma_count(8), 16);
        let e64 = FragmentMma::new::<f64>(32, 32);
        // 32/8 * 32/8 * 4/4 = 16
        assert_eq!(e64.hw_mma_count(4), 16);
    }

    #[test]
    fn fault_hook_corrupts_output() {
        let exec = FragmentMma::new::<f64>(2, 2);
        let c = Counters::new();
        let mut acc = vec![0.0f64; 4];
        exec.mma(
            &mut acc,
            &[1.0, 0.0],
            &[1.0, 1.0],
            1,
            site(),
            &FlipFirst,
            &c,
        );
        // clean result would be [1,1,0,0]; hook flipped a bit of acc[0]
        assert_ne!(acc[0], 1.0);
        assert_eq!(acc[1], 1.0);
    }

    #[test]
    fn checksum_mma_counts_separately() {
        let c = Counters::new();
        let mut acc = 1.0f64;
        checksum_mma(
            &mut acc,
            2.0,
            3.0,
            MmaSite {
                is_checksum: true,
                ..site()
            },
            &NoFault,
            &c,
        );
        assert_eq!(acc, 7.0);
        let s = c.snapshot();
        assert_eq!(s.ft_mma_ops, 1);
        assert_eq!(s.mma_ops, 0);
    }

    #[test]
    fn simt_fma_counts() {
        let c = Counters::new();
        let v = simt_fma(1.0f32, 2.0, 4.0, &site(), &NoFault, &c);
        assert_eq!(v, 9.0);
        assert_eq!(c.snapshot().fma_ops, 1);
    }
}
