//! Valiant load balancing (VLB) — two-stage randomized routing.
//!
//! Deterministic shortest-path routing concentrates adversarial traffic
//! (e.g. every flow correcting the same digit) onto few switches. VLB
//! fixes the worst case by routing via a uniformly random intermediate
//! group: `src → w → dst`, each stage with the shortest-path router. The
//! price is up to 2× path length on benign traffic; the win is that *any*
//! permutation spreads like uniform random traffic (experiment F17).
//!
//! [`VlbRouter`] is the [`Router`] face of the scheme: it derives a
//! per-pair RNG from its seed (see [`pair_seed`] mixing), so the same
//! router value always picks the same intermediate for a pair regardless
//! of call order — the determinism the campaign engine relies on.
//! [`route_two_stage_with`] exposes the scheme with a pluggable stage
//! router so alternative data planes (e.g. compiled forwarding tables)
//! reproduce it exactly.

use crate::router::{check_endpoints, pair_seed, RouteOutcome, RouteTier, Router};
use crate::routing::DigitRouter;
use crate::{Abccc, AbcccParams, CubeLabel, ServerAddr};
use netgraph::{FaultMask, NodeId, Route, RouteError, Topology};
use rand::{Rng, SeedableRng};

/// How many random intermediates to try before falling back to the direct
/// shortest-path route (rejections only happen when the stages intersect,
/// i.e. in tiny networks).
const INTERMEDIATE_ATTEMPTS: u32 = 16;

/// The two-stage scheme parameterized over the stage router: picks a
/// random intermediate from `rng` and concatenates `stage(src, mid)` with
/// `stage(mid, dst)`; returns the route plus how many candidates were
/// examined.
///
/// The RNG consumption (one label draw, then — only if the label is
/// usable — one position draw, per attempt) is the determinism contract of
/// [`VlbRouter`]: any caller that seeds the same stream and supplies a
/// stage router agreeing with [`DigitRouter::shortest`] reproduces its
/// routes bit for bit. The compiled forwarding tables of `dcn-fib` rely on
/// exactly this to serve VLB queries from table walks.
pub fn route_two_stage_with(
    p: &AbcccParams,
    src: ServerAddr,
    dst: ServerAddr,
    rng: &mut impl Rng,
    mut stage: impl FnMut(ServerAddr, ServerAddr) -> Route,
) -> (Route, u32) {
    for attempt in 1..=INTERMEDIATE_ATTEMPTS {
        let label = CubeLabel(rng.gen_range(0..p.label_space()));
        if label == src.label || label == dst.label {
            continue;
        }
        let pos = rng.gen_range(0..p.group_size());
        let mid = ServerAddr::new(p, label, pos);
        let first = stage(src, mid);
        let second = stage(mid, dst);
        let mut nodes = first.nodes().to_vec();
        nodes.extend_from_slice(&second.nodes()[1..]);
        // Stages can intersect (they share digit corrections); only accept
        // simple concatenations.
        let mut seen = std::collections::HashSet::with_capacity(nodes.len());
        if nodes.iter().all(|n| seen.insert(*n)) {
            return (Route::new(nodes), attempt);
        }
    }
    (stage(src, dst), INTERMEDIATE_ATTEMPTS + 1)
}

/// The canonical instantiation: both stages routed by
/// [`DigitRouter::shortest`].
fn route_two_stage(
    p: &AbcccParams,
    src: ServerAddr,
    dst: ServerAddr,
    rng: &mut impl Rng,
) -> (Route, u32) {
    let shortest = DigitRouter::shortest();
    route_two_stage_with(p, src, dst, rng, |a, b| shortest.route_addrs(p, a, b))
}

/// Valiant load-balancing router: the [`Router`] impl of the two-stage
/// randomized scheme.
///
/// The router owns a seed; each pair's intermediate is drawn from a fresh
/// stream mixed from `(seed, src, dst)`, so routes are deterministic and
/// independent of call order. Like [`DigitRouter`] it is
/// *fault-oblivious* — under a mask the produced route is validated and
/// rejected with [`RouteError::GaveUp`] rather than detoured around
/// failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlbRouter {
    seed: u64,
}

impl VlbRouter {
    /// A VLB router whose per-pair intermediate choices derive from `seed`.
    pub fn new(seed: u64) -> Self {
        VlbRouter { seed }
    }

    /// The seed the per-pair streams are mixed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Routes between two server addresses, drawing the intermediate from
    /// the caller's RNG stream instead of the router's per-pair stream.
    /// This is the legacy entry point benches that interleave many draws
    /// on one RNG still use.
    pub fn route_addrs_with(
        p: &AbcccParams,
        src: ServerAddr,
        dst: ServerAddr,
        rng: &mut impl Rng,
    ) -> Route {
        route_two_stage(p, src, dst, rng).0
    }
}

impl Router for VlbRouter {
    fn name(&self) -> String {
        "vlb".to_string()
    }

    fn route(
        &self,
        topo: &Abccc,
        src: NodeId,
        dst: NodeId,
        mask: Option<&FaultMask>,
    ) -> Result<RouteOutcome, RouteError> {
        check_endpoints(topo, src, dst, mask)?;
        let p = topo.params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(pair_seed(self.seed, src, dst));
        let (route, attempts) = route_two_stage(
            p,
            ServerAddr::from_node_id(p, src),
            ServerAddr::from_node_id(p, dst),
            &mut rng,
        );
        if let Some(m) = mask {
            if route.validate(topo.network(), Some(m)).is_err() {
                return Err(RouteError::GaveUp {
                    src,
                    dst,
                    attempts: attempts as usize,
                });
            }
        }
        Ok(RouteOutcome {
            route,
            tier: RouteTier::Primary,
            attempts,
            backoff_units: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{routing, Abccc};
    use netgraph::Topology;
    use rand::SeedableRng;

    #[test]
    fn vlb_routes_are_valid_and_bounded() {
        let p = AbcccParams::new(3, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let router = VlbRouter::new(7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let s = NodeId(rng.gen_range(0..p.server_count()) as u32);
            let d = NodeId(rng.gen_range(0..p.server_count()) as u32);
            if s == d {
                continue;
            }
            let out = router.route(&topo, s, d, None).unwrap();
            out.route.validate(topo.network(), None).unwrap();
            assert_eq!(out.route.src(), s);
            assert_eq!(out.route.dst(), d);
            // Two stages ⇒ at most 2× diameter.
            assert!(routing::hops(&out.route) as u64 <= 2 * p.diameter());
        }
    }

    #[test]
    fn per_pair_streams_make_routes_call_order_independent() {
        let p = AbcccParams::new(3, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let router = VlbRouter::new(42);
        let pairs = [(0u32, 40u32), (1, 33), (2, 57)];
        let forward: Vec<Route> = pairs
            .iter()
            .map(|&(s, d)| router.route_simple(&topo, NodeId(s), NodeId(d)).unwrap())
            .collect();
        let backward: Vec<Route> = pairs
            .iter()
            .rev()
            .map(|&(s, d)| router.route_simple(&topo, NodeId(s), NodeId(d)).unwrap())
            .collect();
        for (f, b) in forward.iter().zip(backward.iter().rev()) {
            assert_eq!(f, b);
        }
        // A different seed picks different intermediates for at least one pair.
        let other = VlbRouter::new(43);
        assert!(pairs.iter().any(|&(s, d)| {
            router.route_simple(&topo, NodeId(s), NodeId(d)).unwrap()
                != other.route_simple(&topo, NodeId(s), NodeId(d)).unwrap()
        }));
    }

    /// The convergent permutation: every group sends all `m` of its flows
    /// through its position-0 level-0 uplink under deterministic routing
    /// (`(x, j) → (x ± digit0, j)` must cross `S_0` at position 0).
    fn convergent_pairs(p: &AbcccParams) -> Vec<(ServerAddr, ServerAddr)> {
        let mut pairs = Vec::new();
        for raw in 0..p.label_space() {
            let label = CubeLabel(raw);
            let d0 = label.digit(p, 0);
            let dst_label = label.with_digit(p, 0, (d0 + 1) % p.n());
            for j in 0..p.group_size() {
                pairs.push((
                    ServerAddr::new(p, label, j),
                    ServerAddr::new(p, dst_label, j),
                ));
            }
        }
        pairs
    }

    fn max_directed_load(net: &netgraph::Network, routes: &[Route]) -> u32 {
        let mut load = vec![0u32; net.link_count() * 2];
        for r in routes {
            for w in r.nodes().windows(2) {
                let l = net.find_link(w[0], w[1]).expect("adjacent");
                load[l.index() * 2 + usize::from(net.link(l).a == w[0])] += 1;
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn direct_routing_concentrates_the_convergent_pattern() {
        let p = AbcccParams::new(4, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let shortest = DigitRouter::shortest();
        let routes: Vec<Route> = convergent_pairs(&p)
            .iter()
            .map(|&(s, d)| shortest.route_addrs(&p, s, d))
            .collect();
        // All m flows of each group share the position-0 S0 uplink.
        assert_eq!(max_directed_load(topo.network(), &routes), p.group_size());
    }

    #[test]
    fn vlb_is_oblivious_to_the_traffic_pattern() {
        // VLB's hot-link load on the crafted convergent pattern stays close
        // to its load on a random permutation of the same size — the
        // obliviousness guarantee deterministic routing lacks.
        let p = AbcccParams::new(4, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let net = topo.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let adv: Vec<Route> = convergent_pairs(&p)
            .iter()
            .map(|&(s, d)| VlbRouter::route_addrs_with(&p, s, d, &mut rng))
            .collect();
        // Random permutation with the same flow count, also through VLB.
        use rand::seq::SliceRandom;
        let mut dsts: Vec<u32> = (0..p.server_count() as u32).collect();
        dsts.shuffle(&mut rng);
        let rand_routes: Vec<Route> = dsts
            .iter()
            .enumerate()
            .filter(|(i, &d)| *i as u32 != d)
            .map(|(i, &d)| {
                VlbRouter::route_addrs_with(
                    &p,
                    ServerAddr::from_node_id(&p, NodeId(i as u32)),
                    ServerAddr::from_node_id(&p, NodeId(d)),
                    &mut rng,
                )
            })
            .collect();
        let adv_load = max_directed_load(net, &adv);
        let rand_load = max_directed_load(net, &rand_routes);
        assert!(
            f64::from(adv_load) <= 2.5 * f64::from(rand_load),
            "adversarial {adv_load} vs random {rand_load}"
        );
    }

    #[test]
    fn two_stage_hook_reproduces_the_router() {
        // The contract dcn-fib builds on: seeding the per-pair stream and
        // supplying a shortest-path-agreeing stage router reproduces
        // `VlbRouter::route` bit for bit.
        let p = AbcccParams::new(3, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let router = VlbRouter::new(9);
        let shortest = DigitRouter::shortest();
        for (s, d) in [(0u32, 50u32), (3, 44), (17, 2)] {
            let (s, d) = (NodeId(s), NodeId(d));
            let via_router = router.route(&topo, s, d, None).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(pair_seed(9, s, d));
            let (route, attempts) = route_two_stage_with(
                &p,
                ServerAddr::from_node_id(&p, s),
                ServerAddr::from_node_id(&p, d),
                &mut rng,
                |a, b| shortest.route_addrs(&p, a, b),
            );
            assert_eq!(via_router.route, route);
            assert_eq!(via_router.attempts, attempts);
        }
    }

    #[test]
    fn rejects_switch_endpoint() {
        let p = AbcccParams::new(2, 1, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let sw = NodeId(p.server_count() as u32);
        let router = VlbRouter::new(0);
        assert!(router.route(&topo, sw, NodeId(0), None).is_err());
    }
}
