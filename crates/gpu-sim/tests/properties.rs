//! Property-based tests of the simulator substrate.

use gpu_sim::atomics::ArgminStore;
use gpu_sim::matrix::gemm_abt_reference;
use gpu_sim::{AsyncPipeline, CopyPath, Counters, GlobalBuffer, Matrix, Scalar};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipeline discipline: for any number of tiles and stages, the
    /// prologue/prefetch/wait pattern used by the tensor kernel never reads
    /// an in-flight stage and always drains.
    #[test]
    fn pipeline_pattern_never_races(
        n_tiles in 1usize..20,
        k_stages in 2usize..5,
    ) {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f32>::new(k_stages, 4, 4, 2, CopyPath::AsyncBypass);
        let prologue = (k_stages - 1).min(n_tiles);
        for s in 0..prologue {
            p.cp_async(s, &c, |t| t.set(0, 0, s as f32), |_| {});
            p.commit_group();
        }
        let mut committed = prologue;
        for kt in 0..n_tiles {
            let pf = kt + k_stages - 1;
            if pf < n_tiles {
                p.cp_async(pf % k_stages, &c, |t| t.set(0, 0, pf as f32), |_| {});
                p.commit_group();
                committed += 1;
            }
            p.wait_group(committed - kt - 1);
            // reading must not panic, and the stage holds tile kt's data
            let v = p.a(kt % k_stages).get(0, 0);
            prop_assert_eq!(v, kt as f32);
        }
        prop_assert_eq!(p.pending_groups(), 0);
    }

    /// Concurrent atomic adds are lossless for any partition of work.
    #[test]
    fn atomic_add_total_is_exact(
        threads in 1usize..8,
        per_thread in 1usize..200,
    ) {
        let c = Counters::new();
        let buf = GlobalBuffer::<f64>::zeros(1);
        crossbeam::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| {
                    for _ in 0..per_thread {
                        buf.atomic_add(0, 1.0, &c);
                    }
                });
            }
        })
        .unwrap();
        prop_assert_eq!(buf.load(0), (threads * per_thread) as f64);
    }

    /// ArgminStore finds the same winner as a sequential scan, for any
    /// merge order.
    #[test]
    fn argmin_store_matches_sequential(
        dists in prop::collection::vec(0u32..1000, 1..60),
    ) {
        let c = Counters::new();
        let store = ArgminStore::<f32>::new(1);
        for (i, &d) in dists.iter().enumerate() {
            store.merge(0, d as f32, i as u32, &c);
        }
        let (best_d, best_i) = store.get(0);
        // sequential argmin with the same tie-break (smallest index)
        let mut want = (f32::INFINITY, u32::MAX);
        for (i, &d) in dists.iter().enumerate() {
            let d = d as f32;
            if d < want.0 || (d == want.0 && (i as u32) < want.1) {
                want = (d, i as u32);
            }
        }
        prop_assert_eq!((best_d, best_i), want);
    }

    /// GEMM reference transpose identity: (A·Bᵀ)ᵀ == B·Aᵀ.
    #[test]
    fn gemm_transpose_identity(
        m in 1usize..8,
        n in 1usize..8,
        k in 1usize..6,
        seed in 0u64..300,
    ) {
        let a = Matrix::<f64>::from_fn(m, k, |r, c| (((r * 3 + c + seed as usize) % 17) as f64) - 8.0);
        let b = Matrix::<f64>::from_fn(n, k, |r, c| (((r * 5 + c * 2 + seed as usize) % 13) as f64) - 6.0);
        let ab = gemm_abt_reference(&a, &b);
        let ba = gemm_abt_reference(&b, &a);
        prop_assert_eq!(ab.transposed(), ba);
    }

    /// TF32 truncation stays within the 10-bit-mantissa relative error
    /// bound and is idempotent.
    #[test]
    fn tf32_error_bound(x in -1e30f32..1e30f32) {
        let t = x.to_tf32();
        prop_assert_eq!(t.to_tf32(), t, "idempotent");
        if x != 0.0 && x.is_finite() && t.is_finite() {
            let rel = ((t - x) / x).abs();
            prop_assert!(rel <= 2.0f32.powi(-10), "rel err {rel} for {x}");
        }
    }

    /// Every `GlobalBuffer` access path keeps arbitrary bit patterns of
    /// both widths, next to the fixed special values.
    #[test]
    fn global_buffer_paths_keep_bits(
        xs in prop::collection::vec(prop::num::f64::ANY, 1..24),
        ys in prop::collection::vec(prop::num::f32::ANY, 1..24),
    ) {
        assert_paths_keep_bits(&[xs, special_f64()].concat());
        assert_paths_keep_bits(&[ys, special_f32()].concat());
    }
}

/// ±0, the smallest and largest subnormals, ±inf, the largest finite
/// value and NaNs with signs and payloads (quiet and signalling).
fn special_f32() -> Vec<f32> {
    [
        0x0000_0000u32,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0x7fc0_0000,
        0xffc0_1234,
        0x7f80_0001,
        0xffbf_ffff,
    ]
    .map(f32::from_bits)
    .to_vec()
}

/// The `f64` counterparts of [`special_f32`].
fn special_f64() -> Vec<f64> {
    [
        0x0000_0000_0000_0000u64,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        0x7ff8_0000_0000_0000,
        0xfff8_0000_dead_beef,
        0x7ff0_0000_0000_0001,
        0xfff7_ffff_ffff_ffff,
    ]
    .map(f64::from_bits)
    .to_vec()
}

/// Load/store, read_range/write_range, fill and atomic_add each return
/// exactly the bits they were given.
fn assert_paths_keep_bits<T: Scalar>(vals: &[T]) {
    let bits = |v: &[T]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let n = vals.len();

    let buf = GlobalBuffer::<T>::from_slice(vals);
    assert_eq!(bits(&buf.to_vec()), bits(vals), "from_slice / load");

    let buf = GlobalBuffer::<T>::zeros(n);
    for (i, &v) in vals.iter().enumerate() {
        buf.store(i, v);
    }
    assert_eq!(bits(&buf.to_vec()), bits(vals), "store / load");

    let buf = GlobalBuffer::<T>::zeros(n + 2);
    buf.write_range(1, vals);
    let mut out = vec![T::ONE; n];
    buf.read_range(1, &mut out);
    assert_eq!(bits(&out), bits(vals), "write_range / read_range");

    for &v in vals {
        let buf = GlobalBuffer::<T>::zeros(3);
        buf.fill(v);
        assert_eq!(bits(&buf.to_vec()), bits(&[v; 3]), "fill");
    }

    // atomic_add returns the stored bits. Adding -0.0 to a `v` cell, or `v`
    // to a -0.0 cell, stores `v` again; a NaN stays NaN (IEEE 754 leaves
    // its payload to the hardware, and a signalling NaN comes back quiet).
    let c = Counters::new();
    let held = GlobalBuffer::<T>::from_slice(vals);
    let zero = GlobalBuffer::<T>::filled(n, -T::ZERO);
    for (i, &v) in vals.iter().enumerate() {
        assert_eq!(held.atomic_add(i, -T::ZERO, &c).to_bits(), v.to_bits());
        assert_eq!(zero.atomic_add(i, v, &c).to_bits(), (-T::ZERO).to_bits());
        for sum in [held.load(i), zero.load(i)] {
            if v.to_f64().is_nan() {
                assert!(sum.to_f64().is_nan(), "atomic_add keeps NaN");
            } else {
                assert_eq!(sum.to_bits(), v.to_bits(), "atomic_add sum");
            }
        }
    }
}
