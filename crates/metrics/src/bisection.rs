//! Bisection bandwidth measurement.
//!
//! The paper reports bisection width in links (equivalently bandwidth at
//! unit link capacity). For structured topologies the canonical balanced
//! cut is known; we compute its exact min-cut value with max-flow, and
//! additionally probe random balanced bipartitions (every probe is an
//! *upper bound* on the true bisection — if a probe ever beat the
//! canonical cut the formula would be refuted).

use netgraph::maxflow::bisection_width;
use netgraph::{Network, NodeId};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Exact min-cut for the "first half by server id" bipartition — the
/// canonical cut for every family in this repository (all builders order
/// server ids so that the most-significant address component splits first).
pub fn exact_bisection_by_id(net: &Network) -> u64 {
    let n = net.server_count();
    let side: Vec<bool> = (0..net.node_count()).map(|i| i < n / 2).collect();
    bisection_width(net, &side)
}

/// Result of random balanced-bipartition probing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BisectionProbe {
    /// Minimum cut found over all probes (an upper bound on bisection).
    pub min_cut: u64,
    /// Mean cut over probes.
    pub mean_cut: f64,
    /// Probes run.
    pub trials: usize,
}

/// Probes `trials` uniformly random balanced server bipartitions and
/// returns the min/mean exact cut values.
///
/// # Panics
///
/// Panics if the network has fewer than two servers or `trials == 0`.
pub fn random_balanced_probe(
    net: &Network,
    trials: usize,
    rng: &mut impl rand::Rng,
) -> BisectionProbe {
    assert!(trials > 0, "need at least one trial");
    let servers: Vec<NodeId> = net.server_ids().collect();
    assert!(servers.len() >= 2, "need at least two servers");
    let mut min_cut = u64::MAX;
    let mut sum = 0u64;
    let mut shuffled = servers.clone();
    for _ in 0..trials {
        shuffled.shuffle(rng);
        let mut side = vec![false; net.node_count()];
        for s in &shuffled[..servers.len() / 2] {
            side[s.index()] = true;
        }
        let cut = bisection_width(net, &side);
        min_cut = min_cut.min(cut);
        sum += cut;
    }
    BisectionProbe {
        min_cut,
        mean_cut: sum as f64 / trials as f64,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{Abccc, AbcccParams};
    use dcn_baselines::prelude::{BCube, BCubeParams, FatTree, FatTreeParams};
    use netgraph::Topology;
    use rand::SeedableRng;

    #[test]
    fn abccc_canonical_cut_matches_formula() {
        for (n, k, h) in [(2, 1, 2), (2, 2, 2), (4, 1, 2), (2, 2, 3), (2, 1, 3)] {
            let p = AbcccParams::new(n, k, h).unwrap();
            let t = Abccc::new(p).unwrap();
            // Canonical: split by most-significant digit. Server ids are
            // label-major, so first-half-by-id is exactly digit-k < n/2.
            assert_eq!(
                exact_bisection_by_id(t.network()),
                p.bisection_width().unwrap(),
                "{p}"
            );
        }
    }

    #[test]
    fn random_probes_never_beat_formula() {
        let p = AbcccParams::new(2, 2, 2).unwrap();
        let t = Abccc::new(p).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let probe = random_balanced_probe(t.network(), 16, &mut rng);
        assert!(probe.min_cut >= p.bisection_width().unwrap(), "{probe:?}");
        assert!(probe.mean_cut >= probe.min_cut as f64);
    }

    #[test]
    fn bcube_canonical() {
        let t = BCube::new(BCubeParams::new(4, 1).unwrap()).unwrap();
        assert_eq!(exact_bisection_by_id(t.network()), 8); // n^(k+1)/2
    }

    #[test]
    fn fattree_full_bisection() {
        let pt = FatTreeParams::new(4).unwrap();
        let t = FatTree::new(pt).unwrap();
        assert_eq!(exact_bisection_by_id(t.network()), pt.bisection_width());
    }
}
