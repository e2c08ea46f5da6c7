//! Seed mixers: per-index RNG streams that never depend on scheduling.
//!
//! A parallel sweep stays thread-count-invariant only if every item's
//! randomness derives from its index, not from a generator shared
//! across workers. These are the workspace's two ways of deriving an
//! item's seed from a run seed; which one a caller uses is pinned by
//! artifacts and digests, so neither may change.

/// Derives the seed of stream `index` under `seed`: SplitMix64's output
/// function over `seed ^ index·γ`. The experiment registry's per-point
/// seeds, the traffic engine's per-entity streams and the load
/// generator's per-connection streams all use it, so a scenario seeded
/// from a registry point inherits the same stream family.
#[inline]
#[must_use]
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault-campaign engine's stream mixer: the SplitMix64 finalizer
/// over `seed + γ + stream·κ`, additive where [`mix_seed`] XORs. Every
/// campaign trial, fault step and pair sample is seeded through it, so
/// its outputs are pinned by the recorded campaign results.
#[inline]
#[must_use]
pub fn mix_seed_additive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_are_pinned() {
        // Moving these silently re-seeds every experiment and campaign.
        // `mix_seed(0, 1)` is SplitMix64's first output from seed 0.
        assert_eq!(mix_seed(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix_seed_additive(0, 1), 0xE4BA_CEA5_C4B9_B499);
        assert_ne!(mix_seed(1, 0), mix_seed(0, 1));
        assert_ne!(mix_seed(7, 0), mix_seed(7, 1));
        assert_ne!(mix_seed_additive(7, 0), mix_seed_additive(7, 1));
    }
}
