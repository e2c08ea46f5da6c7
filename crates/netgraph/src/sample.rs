//! Sampled graph-metric estimators for instances beyond the O(V²) wall.
//!
//! Exact diameter/APL need one BFS per server — quadratic work that stops
//! being feasible around 10⁴–10⁵ servers. Past that point the accepted
//! methodology (Jellyfish, and the flat-network scale studies) is *source
//! sampling*: run the same single-source sweep from `k ≪ V` seeded sources
//! and report a point estimate with a confidence interval. This module
//! implements that over [`DistanceEngine::source_stats_into`], so the
//! sampler and the exact engine share one traversal and one fold.
//!
//! Determinism contract: for a fixed `(network, samples, seed)` the output
//! is **byte-identical at any worker thread count**. Sources are drawn up
//! front by a single seeded RNG, [`crate::par::map_indexed`] returns their
//! stats in source order, and all floating-point folds run sequentially
//! in that order afterward.
//!
//! Estimator semantics (what the error bars mean):
//!
//! * **Diameter** — `max` of sampled eccentricities, a certified *lower
//!   bound* on the exact diameter (each sampled eccentricity is exact).
//! * **APL** — mean of per-source mean distances. Sources are drawn
//!   without replacement, so with `samples == server_count` the estimate
//!   equals the exact APL and the interval collapses to zero. The CI95
//!   half-width is `1.96·s/√k` with `s` the sample standard deviation of
//!   the per-source means — on vertex-transitive instances (every ABCCC)
//!   all per-source means coincide and the interval is exactly zero.
//! * **Bisection** — min cut over seeded random balanced server
//!   bipartitions with switches assigned greedily, an *upper bound* on the
//!   true bisection width (every concrete balanced cut is).

use crate::distance::{BfsScratch, DistanceEngine};
use crate::{Network, NodeId};
use rand::{Rng, SeedableRng};

/// A sampled point estimate with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`1.96·s/√k`).
    pub ci95: f64,
    /// Number of samples behind the estimate.
    pub samples: usize,
}

impl Estimate {
    /// `true` if `value` lies inside `[mean − ci95, mean + ci95]` (with a
    /// tiny epsilon for float folding).
    pub fn brackets(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95 + 1e-9
    }
}

/// Output of one sampled metrics pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledMetrics {
    /// Lower bound on the exact diameter: max eccentricity over the
    /// sampled sources (each individual eccentricity is exact).
    pub diameter_lb: u32,
    /// Estimated average server-hop path length over ordered pairs.
    pub apl: Estimate,
    /// Seed the sources were drawn with (provenance echo).
    pub seed: u64,
}

/// Draws `samples` distinct server ids with a seeded RNG, in draw order.
///
/// Requesting at least `server_count` sources returns every server in id
/// order — the estimate then degenerates to the exact computation.
pub fn sample_sources(server_count: usize, samples: usize, seed: u64) -> Vec<NodeId> {
    if samples >= server_count {
        return (0..server_count as u32).map(NodeId).collect();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(samples);
    let mut out = Vec::with_capacity(samples);
    while out.len() < samples {
        let s = rng.gen_range(0..server_count) as u32;
        if seen.insert(s) {
            out.push(NodeId(s));
        }
    }
    out
}

/// Sampled diameter lower bound and APL estimate over `samples` seeded
/// sources, parallelized by work stealing yet byte-identical at any
/// thread count. `None` if the network has under two servers or some
/// sampled source cannot reach every server.
pub fn sampled_server_metrics(net: &Network, samples: usize, seed: u64) -> Option<SampledMetrics> {
    let _span = dcn_telemetry::span!("netgraph.sample.metrics");
    let n = net.server_count();
    if n < 2 || samples == 0 {
        return None;
    }
    let sources = sample_sources(n, samples, seed);
    let engine = DistanceEngine::new(net);
    let (slots, _) = crate::par::map_indexed(
        sources.len(),
        0,
        BfsScratch::new,
        |scratch, i| engine.source_stats_into(sources[i], scratch),
        drop,
    );
    // Sequential fold in slot (draw) order: thread count cannot reorder it.
    let k = sources.len();
    let mut diameter_lb = 0u32;
    let mut means = Vec::with_capacity(k);
    for slot in slots {
        let s = slot?;
        diameter_lb = diameter_lb.max(s.ecc);
        means.push(s.dist_sum as f64 / (n as f64 - 1.0));
    }
    let mean = means.iter().sum::<f64>() / k as f64;
    let var = if k > 1 {
        means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (k as f64 - 1.0)
    } else {
        0.0
    };
    Some(SampledMetrics {
        diameter_lb,
        apl: Estimate {
            mean,
            ci95: 1.96 * (var / k as f64).sqrt(),
            samples: k,
        },
        seed,
    })
}

/// Result of seeded balanced-bipartition bisection probing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BisectionEstimate {
    /// Minimum crossing-link count found — an upper bound on the true
    /// bisection width.
    pub min_cut: u64,
    /// Mean crossing-link count over the trials.
    pub mean_cut: f64,
    /// Trials run.
    pub trials: usize,
}

/// Estimates bisection width as the min over `trials` seeded random
/// balanced server bipartitions of the physical links crossing the cut,
/// with each switch assigned to the side holding the majority of its
/// already-assigned neighbors (ties and isolated switches go to side A).
///
/// Every probe is a concrete balanced cut, so the result is always an
/// **upper bound** on the true bisection width. Trials run sequentially
/// off one seeded RNG — deterministic by construction. `None` if the
/// network has fewer than two servers or `trials == 0`.
pub fn sampled_bisection(net: &Network, trials: usize, seed: u64) -> Option<BisectionEstimate> {
    let _span = dcn_telemetry::span!("netgraph.sample.bisection");
    let n = net.server_count();
    if n < 2 || trials == 0 {
        return None;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut servers: Vec<u32> = (0..n as u32).collect();
    let mut side = vec![false; net.node_count()];
    let mut min_cut = u64::MAX;
    let mut sum = 0u64;
    for _ in 0..trials {
        // Partial Fisher–Yates: only the first half needs shuffling.
        for i in 0..n / 2 {
            let j = rng.gen_range(i..n);
            servers.swap(i, j);
        }
        side.iter_mut().for_each(|s| *s = false);
        for &s in &servers[..n / 2] {
            side[s as usize] = true;
        }
        for sw in net.switch_ids() {
            let (mut a, mut b) = (0usize, 0usize);
            for &(nb, _) in net.neighbors(sw) {
                if side[nb.index()] {
                    a += 1;
                } else {
                    b += 1;
                }
            }
            side[sw.index()] = a > b;
        }
        let mut cut = 0u64;
        for l in 0..net.link_count() as u32 {
            let link = net.link(crate::LinkId(l));
            cut += u64::from(side[link.a.index()] != side[link.b.index()]);
        }
        min_cut = min_cut.min(cut);
        sum += cut;
    }
    Some(BisectionEstimate {
        min_cut,
        mean_cut: sum as f64 / trials as f64,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two switch stars bridged by a server: (s0,s1)-swA-(b)-swB-(s2,s3).
    fn dumbbell() -> Network {
        let mut net = Network::new();
        let servers: Vec<_> = (0..5).map(|_| net.add_server()).collect();
        let swa = net.add_switch();
        let swb = net.add_switch();
        for &s in &[servers[0], servers[1], servers[2]] {
            net.add_link(s, swa, 1.0);
        }
        for &s in &[servers[2], servers[3], servers[4]] {
            net.add_link(s, swb, 1.0);
        }
        net
    }

    #[test]
    fn full_sampling_recovers_exact_values() {
        let net = dumbbell();
        let exact = DistanceEngine::new(&net).all_pairs().unwrap();
        let s = sampled_server_metrics(&net, net.server_count(), 7).unwrap();
        assert_eq!(s.diameter_lb, exact.diameter);
        assert!((s.apl.mean - exact.avg_path_length).abs() < 1e-12);
        assert_eq!(s.apl.samples, net.server_count());
        assert!(s.apl.brackets(exact.avg_path_length));
    }

    #[test]
    fn partial_sampling_is_a_diameter_lower_bound() {
        let net = dumbbell();
        let exact = DistanceEngine::new(&net).all_pairs().unwrap();
        for seed in 0..16 {
            let s = sampled_server_metrics(&net, 2, seed).unwrap();
            assert!(s.diameter_lb <= exact.diameter, "seed {seed}");
            assert!(s.apl.ci95 >= 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let net = dumbbell();
        let a = sampled_server_metrics(&net, 3, 42).unwrap();
        let b = sampled_server_metrics(&net, 3, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(sample_sources(100, 10, 1), sample_sources(100, 10, 1));
        assert_ne!(sample_sources(100, 10, 1), sample_sources(100, 10, 2));
    }

    #[test]
    fn sources_are_distinct_and_clamped() {
        let srcs = sample_sources(8, 100, 3);
        assert_eq!(srcs.len(), 8);
        let srcs = sample_sources(1000, 16, 3);
        assert_eq!(srcs.len(), 16);
        let mut dedup = srcs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn disconnected_reports_none() {
        let mut net = Network::new();
        net.add_server();
        net.add_server();
        assert_eq!(sampled_server_metrics(&net, 2, 0), None);
    }

    #[test]
    fn bisection_estimate_bounds_the_bridge_cut() {
        // With 5 servers the balanced split is 2 vs 3; putting one star's
        // outer pair alone on a side crosses exactly the bridge cable, so
        // the best probe finds cut 1 — and no concrete cut is ever 0 on a
        // connected network.
        let net = dumbbell();
        let est = sampled_bisection(&net, 32, 5).unwrap();
        assert!(est.min_cut >= 1, "{est:?}");
        assert!(est.mean_cut >= est.min_cut as f64);
        assert_eq!(est.trials, 32);
        assert_eq!(
            sampled_bisection(&net, 32, 5),
            sampled_bisection(&net, 32, 5)
        );
    }

    #[test]
    fn bisection_estimate_upper_bounds_the_maxflow_cut() {
        // For the canonical first-half-by-id bipartition the exact min cut
        // comes from max-flow; every probe is a concrete cut of *some*
        // balanced bipartition, so the estimate can never beat the global
        // minimum over bipartitions, which is ≤ the canonical exact value…
        // and on this 6-server double-star the canonical cut is the true
        // bisection.
        let mut net = Network::new();
        let servers: Vec<_> = (0..6).map(|_| net.add_server()).collect();
        let swa = net.add_switch();
        let swb = net.add_switch();
        for &s in &servers[..3] {
            net.add_link(s, swa, 1.0);
        }
        for &s in &servers[3..] {
            net.add_link(s, swb, 1.0);
        }
        net.add_link(swa, swb, 1.0);
        let n = net.server_count();
        let side: Vec<bool> = (0..net.node_count()).map(|i| i < n / 2).collect();
        let exact = crate::maxflow::bisection_width(&net, &side);
        let est = sampled_bisection(&net, 64, 11).unwrap();
        assert!(est.min_cut >= exact, "{est:?} vs exact {exact}");
    }
}
