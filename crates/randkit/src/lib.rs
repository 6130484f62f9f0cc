//! Seedable random-distribution toolkit for Nimbus.
//!
//! The model-based pricing mechanism is *randomized*: the broker perturbs the
//! optimal model with Gaussian (or Laplace, or uniform) noise whose variance
//! is set by the noise control parameter. Reproducibility of experiments and
//! tests therefore requires full control over seeding, and the thin ML
//! ecosystem in Rust means the distributions themselves are implemented here
//! (Box–Muller normal, inverse-CDF Laplace, cumulative-weight discrete
//! sampling) on top of the `rand` crate's uniform bit source.
//!
//! Everything is deterministic given a seed: [`seeded_rng`] plus
//! [`split_stream`] give independent, reproducible random streams to each
//! component (dataset generation, mechanism sampling, buyer populations).

pub mod discrete;
pub mod laplace;
pub mod normal;
// Snapped draws are bitwise identical for a given `(seed, tx_id, x)`: no
// wall clock, environment or hash order (lists in `crates/clippy.toml`).
#[cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
pub mod snapped;
pub mod summary;
pub mod uniform;

pub use discrete::WeightedIndex;
pub use laplace::Laplace;
pub use normal::StandardNormal;
pub use snapped::SnappedGaussian;
pub use summary::RunningStats;
pub use uniform::{uniform_in, uniform_symmetric};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG type used across Nimbus. `StdRng` is a platform-independent
/// generator, so seeds give identical streams on every machine — a
/// requirement for the experiment harness to be re-runnable.
pub type NimbusRng = StdRng;

/// Creates the workspace-standard RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> NimbusRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent child seed from a parent seed and a stream label.
///
/// This is a SplitMix64 finalizer over the combined value: cheap, stateless
/// and collision-resistant enough to hand each component (datasets,
/// mechanisms, buyers, Monte-Carlo repetitions) its own stream without any
/// cross-correlation in practice.
pub fn split_stream(parent_seed: u64, label: u64) -> u64 {
    let mut z = parent_seed ^ label.wrapping_mul(0x9e3779b97f4a7c15);
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_stream_is_deterministic_and_spreads() {
        assert_eq!(split_stream(7, 1), split_stream(7, 1));
        assert_ne!(split_stream(7, 1), split_stream(7, 2));
        assert_ne!(split_stream(7, 1), split_stream(8, 1));
        // Labels 0..n should give distinct seeds.
        let mut seen = std::collections::HashSet::new();
        for label in 0..1000u64 {
            assert!(seen.insert(split_stream(1234, label)));
        }
    }
}
