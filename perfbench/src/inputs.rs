//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of the `--seed` argument (plus a per-call salt), and is
//! generated outside every timed interval.

use data::{make_blobs, BlobSpec};
use gpu_sim::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gaussian blobs with `k` centers in `[-5, 5]^dim`.
pub fn blobs(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f32> {
    make_blobs::<f32>(&BlobSpec {
        samples: m,
        dim,
        centers: k,
        seed,
        ..BlobSpec::default()
    })
    .0
}

/// Draw `rows` fresh samples from the same mixture as `blobs(.., seed)`:
/// the centers are those of `seed`, the noise stream is keyed by `salt`.
/// Every request and write batch gets its own salt, so no two calls send
/// the same matrix (a model memoizes its last assignment by sample
/// identity, so resending one would time a `Vec` clone).
pub fn fresh_rows(centers: &Matrix<f32>, rows: usize, seed: u64, salt: u64) -> Matrix<f32> {
    let mut rng = StdRng::seed_from_u64(mix(seed, salt));
    let (k, dim) = (centers.rows(), centers.cols());
    let std = BlobSpec::default().cluster_std;
    let mut values = Vec::with_capacity(rows * dim);
    for _ in 0..rows {
        let c = rng.random_range(0..k);
        for d in 0..dim {
            values.push(centers.get(c, d) + (normal(&mut rng) * std) as f32);
        }
    }
    Matrix::from_vec(rows, dim, values).expect("rows * dim values")
}

/// The centers `blobs(.., seed)` draws its samples around.
pub fn centers(dim: usize, k: usize, seed: u64) -> Matrix<f32> {
    make_blobs::<f32>(&BlobSpec {
        samples: 0,
        dim,
        centers: k,
        seed,
        ..BlobSpec::default()
    })
    .2
}

fn normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.random::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// SplitMix64 finalizer over `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix<f32>) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(bits(&blobs(300, 8, 5, 7)), bits(&blobs(300, 8, 5, 7)));
        let c = centers(8, 5, 7);
        assert_eq!(
            bits(&fresh_rows(&c, 16, 7, 3)),
            bits(&fresh_rows(&c, 16, 7, 3))
        );
    }

    #[test]
    fn seeds_and_salts_give_distinct_inputs() {
        assert_ne!(bits(&blobs(300, 8, 5, 7)), bits(&blobs(300, 8, 5, 8)));
        let c = centers(8, 5, 7);
        assert_ne!(
            bits(&fresh_rows(&c, 16, 7, 3)),
            bits(&fresh_rows(&c, 16, 7, 4))
        );
        assert_ne!(
            bits(&fresh_rows(&c, 16, 7, 3)),
            bits(&fresh_rows(&c, 16, 8, 3))
        );
    }

    #[test]
    fn centers_are_those_blobs_draws_around() {
        let spec = BlobSpec {
            samples: 50,
            dim: 4,
            centers: 3,
            seed: 11,
            ..BlobSpec::default()
        };
        let (_, _, want) = make_blobs::<f32>(&spec);
        assert_eq!(bits(&centers(4, 3, 11)), bits(&want));
    }
}
