//! Seeded per-entity RNG streams.
//!
//! The engine's determinism discipline is the campaign engine's: one run
//! seed, split into independent per-entity streams with SplitMix64 so the
//! randomness an entity sees never depends on scheduling order, thread
//! count, or how many entities came before it. Streams are seeded by
//! [`netgraph::mix_seed`], the experiment registry's per-point mixer, so
//! a scenario seeded from a registry point inherits the same stream
//! family.

use netgraph::mix_seed;
use rand::RngCore;

/// A SplitMix64 stream: tiny, fast, and statistically solid for the
/// simulation's needs (entity selection, arrival jitter, size sampling).
///
/// Implements [`rand::RngCore`], so the workload generators' existing
/// `Rng`-based helpers (`gen_range`, `SliceRandom::shuffle`) run on an
/// engine stream unchanged.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The stream for entity `index` of a run seeded with `base`.
    #[must_use]
    pub fn stream(base: u64, index: u64) -> Self {
        SplitMix64::new(mix_seed(base, index))
    }

    /// Next raw 64-bit draw.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; returns 0 for `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift reduction: unbiased enough for simulation use and
        // branch-free (Lemire's reduction without the rejection loop).
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_of_sibling_count() {
        let a = SplitMix64::stream(42, 7).next();
        // Creating other streams first must not perturb stream 7.
        let _ = SplitMix64::stream(42, 0).next();
        let b = SplitMix64::stream(42, 7).next();
        assert_eq!(a, b);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
