//! Permutation generation for ABCCC routing.
//!
//! The one-to-one routing algorithm corrects the differing address digits
//! in some order; the order (the "permutation" of the ICC'15 companion
//! paper *Permutation Generation for Routing in BCube Connected Crossbars*)
//! determines how many intra-group crossbar hops the route pays. A level
//! can only be corrected at the group position that owns it, so a good
//! permutation groups levels by owner and sequences the owners to start at
//! the source's position and end at the destination's.

use crate::{AbcccParams, ServerAddr};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Strategy for ordering the digit corrections of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PermStrategy {
    /// Correct levels in ascending order (`0, 1, …, k`). The naive order of
    /// the original BCube routing; pays an owner change every `h − 1`
    /// levels plus whatever the start/end positions cost.
    Ascending,
    /// Correct levels in descending order.
    Descending,
    /// Group levels by owner and visit owners cyclically starting at the
    /// source's position (ICC'15 "take advantage of the structure").
    CyclicFromSource,
    /// Like [`PermStrategy::CyclicFromSource`], but additionally rotates the
    /// owner sequence so that the destination's position is corrected
    /// *last*, saving the final crossbar hop when possible. This is the
    /// default strategy of [`crate::Abccc`].
    DestinationAware,
    /// Greedy nearest-owner: repeatedly correct every remaining level owned
    /// by the current position, then jump to the owner at minimum position
    /// distance with work remaining.
    Greedy,
    /// Uniform random order, derandomized per (seed, src, dst) pair; the
    /// "no discussion yet about how to choose the permutation" baseline.
    Random(u64),
}

impl PermStrategy {
    /// Produces the correction order for routing `src → dst`: a permutation
    /// of exactly the levels where the two cube labels differ.
    pub fn order(&self, p: &AbcccParams, src: ServerAddr, dst: ServerAddr) -> Vec<u32> {
        let mut diff = src.label.differing_levels(p, dst.label);
        match self {
            PermStrategy::Ascending => diff,
            PermStrategy::Descending => {
                diff.reverse();
                diff
            }
            PermStrategy::CyclicFromSource => {
                let m = p.group_size();
                diff.sort_by_key(|&i| ((p.owner(i) + m - src.pos) % m, i));
                diff
            }
            PermStrategy::DestinationAware => {
                let m = p.group_size();
                let key = |i: u32| (p.owner(i) + m - src.pos) % m;
                diff.sort_by_key(|&i| (key(i), i));
                // If the destination's position owns some differing levels
                // and is not already last in the cyclic order, rotate its
                // block to the end (when it is not also the source block).
                if dst.pos != src.pos {
                    let dst_key = (dst.pos + m - src.pos) % m;
                    let (mut rest, tail): (Vec<u32>, Vec<u32>) =
                        diff.into_iter().partition(|&i| key(i) != dst_key);
                    rest.extend(tail);
                    return rest;
                }
                diff
            }
            PermStrategy::Greedy => {
                let mut remaining = diff;
                let mut order = Vec::with_capacity(remaining.len());
                let mut cur = src.pos;
                while !remaining.is_empty() {
                    let here: Vec<u32> = remaining
                        .iter()
                        .copied()
                        .filter(|&i| p.owner(i) == cur)
                        .collect();
                    if here.is_empty() {
                        // Jump to the owner at minimum |distance| with work.
                        cur = remaining
                            .iter()
                            .map(|&i| p.owner(i))
                            .min_by_key(|&o| (o.abs_diff(cur), o))
                            .expect("non-empty");
                    } else {
                        remaining.retain(|&i| p.owner(i) != cur);
                        order.extend(here);
                    }
                }
                order
            }
            PermStrategy::Random(seed) => {
                let salt = u64::from(src.node_id(p).0) << 32 | u64::from(dst.node_id(p).0);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ salt);
                diff.shuffle(&mut rng);
                diff
            }
        }
    }

    /// The first entry of [`PermStrategy::order`] without materializing the
    /// permutation: `first(p, src, dst) == order(p, src, dst).first().copied()`
    /// for every strategy (pinned by tests).
    ///
    /// This is the differing-level mask of the two labels followed by
    /// [`PermStrategy::first_of`]. All deterministic strategies run in
    /// O(levels) with no heap use; [`PermStrategy::Random`] has no closed
    /// form and falls back to `order()`.
    pub fn first(&self, p: &AbcccParams, src: ServerAddr, dst: ServerAddr) -> Option<u32> {
        if matches!(self, PermStrategy::Random(_)) {
            return self.order(p, src, dst).first().copied();
        }
        // Bitmask of differing levels (levels ≤ 20, so u32 suffices).
        let n = u64::from(p.n());
        let mut mask = 0u32;
        let (mut ra, mut rb) = (src.label.0, dst.label.0);
        for lvl in 0..p.levels() {
            if ra % n != rb % n {
                mask |= 1 << lvl;
            }
            ra /= n;
            rb /= n;
        }
        (mask != 0).then(|| self.first_of(mask, p.group_size(), src.pos, dst.pos, |i| p.owner(i)))
    }

    /// The first level to correct among the set bits of `mask` (bit `i`
    /// set: level `i` still differs), for a server at group position `pos`
    /// heading for position `dst_pos` in groups of `m`, where `owner` maps
    /// a level to the position that owns it.
    ///
    /// Compiled forwarding tables only ever consume the *first* correction
    /// level of a route — the suffix property means the rest of the journey
    /// is re-derived hop by hop — so a table walk calls this once per hop
    /// with a mask it keeps itself, and [`PermStrategy::first`] calls it
    /// with a mask it decodes from the labels: one selection for both, so
    /// the two cannot drift. No division, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty, or for [`PermStrategy::Random`], whose
    /// order has no closed-form first entry.
    #[inline]
    pub fn first_of(
        &self,
        mask: u32,
        m: u32,
        pos: u32,
        dst_pos: u32,
        owner: impl Fn(u32) -> u32,
    ) -> u32 {
        assert!(mask != 0, "no differing level to choose from");
        // Cyclic distance from `pos` to owner `o`, i.e. `(o + m - pos) % m`
        // for positions below `m`.
        let key = |o: u32| if o >= pos { o - pos } else { o + m - pos };
        // The set levels ascending, so `min_by_key` breaks ties by level
        // as `order`'s sorts do.
        let mut rest = mask;
        let levels = std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros();
                rest &= rest - 1;
                i
            })
        });
        let chosen = match self {
            PermStrategy::Ascending => Some(mask.trailing_zeros()),
            PermStrategy::Descending => Some(31 - mask.leading_zeros()),
            PermStrategy::CyclicFromSource => levels.min_by_key(|&i| key(owner(i))),
            // The destination's block moves to the back of the cyclic
            // order (when it is not also the source's block), so the
            // first entry is the cyclic minimum over the other blocks, or
            // over the destination's when no other block has work.
            PermStrategy::DestinationAware => levels.min_by_key(|&i| {
                let o = owner(i);
                (o == dst_pos && dst_pos != pos, key(o))
            }),
            // Levels owned by the current position come first; otherwise
            // jump to the nearest owner with work remaining (the lower on
            // a tie) and take its lowest level.
            PermStrategy::Greedy => levels.min_by_key(|&i| {
                let o = owner(i);
                (o.abs_diff(pos), o)
            }),
            PermStrategy::Random(_) => panic!("random orders have no closed-form first level"),
        };
        chosen.expect("non-empty mask")
    }

    /// All strategies with a representative random seed — handy for sweeps.
    pub fn all() -> Vec<PermStrategy> {
        vec![
            PermStrategy::Ascending,
            PermStrategy::Descending,
            PermStrategy::CyclicFromSource,
            PermStrategy::DestinationAware,
            PermStrategy::Greedy,
            PermStrategy::Random(0xABCC_C015),
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            PermStrategy::Ascending => "ascending",
            PermStrategy::Descending => "descending",
            PermStrategy::CyclicFromSource => "cyclic-from-source",
            PermStrategy::DestinationAware => "destination-aware",
            PermStrategy::Greedy => "greedy",
            PermStrategy::Random(_) => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CubeLabel;

    fn setup() -> (AbcccParams, ServerAddr, ServerAddr) {
        // L = 6, h = 3 → m = 3 owners: 0:{0,1} 1:{2,3} 2:{4,5}
        let p = AbcccParams::new(2, 5, 3).unwrap();
        let src = ServerAddr::new(&p, CubeLabel::from_digits(&p, &[0; 6]), 1);
        let dst = ServerAddr::new(&p, CubeLabel::from_digits(&p, &[1; 6]), 0);
        (p, src, dst)
    }

    fn is_perm_of_diff(p: &AbcccParams, src: ServerAddr, dst: ServerAddr, order: &[u32]) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, src.label.differing_levels(p, dst.label));
    }

    #[test]
    fn every_strategy_yields_a_permutation_of_diff() {
        let (p, src, dst) = setup();
        for s in PermStrategy::all() {
            is_perm_of_diff(&p, src, dst, &s.order(&p, src, dst));
        }
    }

    #[test]
    fn ascending_and_descending() {
        let (p, src, dst) = setup();
        assert_eq!(
            PermStrategy::Ascending.order(&p, src, dst),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(
            PermStrategy::Descending.order(&p, src, dst),
            vec![5, 4, 3, 2, 1, 0]
        );
    }

    #[test]
    fn cyclic_starts_at_source_position() {
        let (p, src, dst) = setup();
        // src.pos = 1 owns levels 2,3 → they come first, then owner 2, then 0.
        assert_eq!(
            PermStrategy::CyclicFromSource.order(&p, src, dst),
            vec![2, 3, 4, 5, 0, 1]
        );
    }

    #[test]
    fn destination_aware_puts_dst_block_last() {
        let (p, src, dst) = setup();
        // dst.pos = 0 owns levels 0,1 → moved to the very end.
        assert_eq!(
            PermStrategy::DestinationAware.order(&p, src, dst),
            vec![2, 3, 4, 5, 0, 1]
        );
        // With dst at position 2 the block {4,5} goes last instead.
        let dst2 = ServerAddr::new(&p, dst.label, 2);
        assert_eq!(
            PermStrategy::DestinationAware.order(&p, src, dst2),
            vec![2, 3, 0, 1, 4, 5]
        );
    }

    #[test]
    fn greedy_consumes_current_owner_first() {
        let (p, src, dst) = setup();
        let order = PermStrategy::Greedy.order(&p, src, dst);
        assert_eq!(&order[..2], &[2, 3]); // src.pos = 1 owns 2,3
        is_perm_of_diff(&p, src, dst, &order);
    }

    #[test]
    fn random_is_deterministic_per_pair() {
        let (p, src, dst) = setup();
        let s = PermStrategy::Random(42);
        assert_eq!(s.order(&p, src, dst), s.order(&p, src, dst));
        is_perm_of_diff(&p, src, dst, &s.order(&p, src, dst));
    }

    #[test]
    fn identical_labels_give_empty_order() {
        let (p, src, _) = setup();
        for s in PermStrategy::all() {
            assert!(s.order(&p, src, src).is_empty());
        }
    }

    #[test]
    fn first_matches_order_head_on_exhaustive_small_instance() {
        // Every (src, dst) pair of ABCCC(2,3,3) and ABCCC(3,2,2), every
        // strategy: the allocation-free fast path must equal order()[0].
        for (n, k, h) in [(2, 3, 3), (3, 2, 2), (2, 5, 3)] {
            let p = AbcccParams::new(n, k, h).unwrap();
            let servers = p.server_count() as u32;
            for s in PermStrategy::all() {
                for a in 0..servers {
                    for b in 0..servers {
                        let src = ServerAddr::from_node_id(&p, netgraph::NodeId(a));
                        let dst = ServerAddr::from_node_id(&p, netgraph::NodeId(b));
                        assert_eq!(
                            s.first(&p, src, dst),
                            s.order(&p, src, dst).first().copied(),
                            "{s:?} src={a} dst={b} in ABCCC({n},{k},{h})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_matches_order_head_on_sampled_large_instance() {
        // Wide-radix, deep instance where digit arithmetic could overflow a
        // naive implementation: sampled pairs, all strategies.
        let p = AbcccParams::new(16, 4, 4).unwrap();
        let servers = p.server_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1257);
        use rand::Rng;
        for _ in 0..256 {
            let a = rng.gen_range(0..servers) as u32;
            let b = rng.gen_range(0..servers) as u32;
            let src = ServerAddr::from_node_id(&p, netgraph::NodeId(a));
            let dst = ServerAddr::from_node_id(&p, netgraph::NodeId(b));
            for s in PermStrategy::all() {
                assert_eq!(
                    s.first(&p, src, dst),
                    s.order(&p, src, dst).first().copied(),
                    "{s:?} src={a} dst={b}"
                );
            }
        }
    }

    #[test]
    fn sparse_diff_only_contains_differing_levels() {
        let p = AbcccParams::new(3, 3, 2).unwrap();
        let src = ServerAddr::new(&p, CubeLabel::from_digits(&p, &[0, 0, 0, 0]), 0);
        let dst = ServerAddr::new(&p, CubeLabel::from_digits(&p, &[0, 2, 0, 1]), 3);
        for s in PermStrategy::all() {
            let order = s.order(&p, src, dst);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 3]);
        }
    }
}
