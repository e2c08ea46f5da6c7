//! Three-tier folded-Clos "fat-tree" (Al-Fares et al., SIGCOMM 2008) —
//! the switch-centric baseline.
//!
//! `FatTree(p)` (`p` even): `p` pods, each with `p/2` edge and `p/2`
//! aggregation switches; `(p/2)²` core switches; `p³/4` single-NIC servers.
//! All switches have radix `p`. Servers never forward, so every path is
//! exactly one *server* hop; the interesting metrics are link hops (≤ 6),
//! switch cost, and the non-expandability: growing beyond `p³/4` servers
//! requires replacing every switch with a larger radix.

use netgraph::{FaultMask, Network, NetworkError, NodeId, Route, RouteError, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of a `FatTree(p)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FatTreeParams {
    p: u32,
}

impl FatTreeParams {
    /// Creates and validates parameters (`p` even, `2 ≤ p ≤ 256`).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidParameter`] on invalid `p`.
    pub fn new(p: u32) -> Result<Self, NetworkError> {
        if !(2..=256).contains(&p) || !p.is_multiple_of(2) {
            return Err(NetworkError::InvalidParameter {
                name: "p",
                reason: format!("port count must be even and in 2..=256, got {p}"),
            });
        }
        Ok(FatTreeParams { p })
    }

    /// Switch radix `p`.
    pub fn p(&self) -> u32 {
        self.p
    }

    fn half(&self) -> u64 {
        u64::from(self.p) / 2
    }

    /// Servers: `p³/4`.
    pub fn server_count(&self) -> u64 {
        u64::from(self.p) * self.half() * self.half()
    }

    /// Switches: `p` edge + `p` agg per… in total `p²` pod switches plus
    /// `(p/2)²` core.
    pub fn switch_count(&self) -> u64 {
        u64::from(self.p) * u64::from(self.p) + self.half() * self.half()
    }

    /// Cables: `3p³/4` (server–edge, edge–agg, agg–core tiers).
    pub fn wire_count(&self) -> u64 {
        3 * self.server_count()
    }

    /// Link-hop diameter: 6 (up to core and back down).
    pub fn link_diameter(&self) -> u64 {
        6
    }

    /// Bisection width in links: `p³/8` (full bisection bandwidth).
    pub fn bisection_width(&self) -> u64 {
        self.server_count() / 2
    }

    // Address helpers: server (pod, edge, idx).
    fn server_id(&self, pod: u64, edge: u64, idx: u64) -> NodeId {
        NodeId((pod * self.half() * self.half() + edge * self.half() + idx) as u32)
    }

    fn edge_id(&self, pod: u64, e: u64) -> NodeId {
        NodeId((self.server_count() + pod * self.half() + e) as u32)
    }

    fn agg_id(&self, pod: u64, a: u64) -> NodeId {
        NodeId(
            (self.server_count() + u64::from(self.p) * self.half() + pod * self.half() + a) as u32,
        )
    }

    fn core_id(&self, a: u64, j: u64) -> NodeId {
        NodeId(
            (self.server_count() + 2 * u64::from(self.p) * self.half() + a * self.half() + j)
                as u32,
        )
    }

    fn addr(&self, server: u64) -> (u64, u64, u64) {
        let per_pod = self.half() * self.half();
        (
            server / per_pod,
            (server % per_pod) / self.half(),
            server % self.half(),
        )
    }
}

impl fmt::Display for FatTreeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FatTree({})", self.p)
    }
}

impl std::str::FromStr for FatTreeParams {
    type Err = NetworkError;

    /// Parses the bare port count `"8"` or the [`fmt::Display`] form
    /// `"FatTree(8)"`.
    fn from_str(text: &str) -> Result<Self, NetworkError> {
        let v = crate::family::parse_positional(
            crate::family::strip_display_wrapper(text, "fattree"),
            &["p"],
        )?;
        FatTreeParams::new(v[0])
    }
}

/// A materialized `FatTree(p)` with deterministic ECMP-style routing (the
/// core/aggregation choice is a hash of the endpoint pair, spreading flows
/// across the equal-cost paths as flow-level ECMP would).
#[derive(Debug, Clone)]
pub struct FatTree {
    params: FatTreeParams,
    net: Network,
}

impl FatTree {
    /// Builds the network with unit link capacity.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::TooLarge`] above the materialization guard.
    pub fn new(params: FatTreeParams) -> Result<Self, NetworkError> {
        let nodes = params.server_count() + params.switch_count();
        if nodes > abccc::MAX_MATERIALIZED_NODES {
            return Err(NetworkError::TooLarge {
                nodes: u128::from(nodes),
                limit: u128::from(abccc::MAX_MATERIALIZED_NODES),
            });
        }
        let mut net = Network::with_capacity(nodes as usize, params.wire_count() as usize);
        for _ in 0..params.server_count() {
            net.add_server();
        }
        for _ in 0..params.switch_count() {
            net.add_switch();
        }
        let p = u64::from(params.p);
        let h = params.half();
        for pod in 0..p {
            for e in 0..h {
                let edge = params.edge_id(pod, e);
                for idx in 0..h {
                    net.add_link(params.server_id(pod, e, idx), edge, 1.0);
                }
                for a in 0..h {
                    net.add_link(edge, params.agg_id(pod, a), 1.0);
                }
            }
            for a in 0..h {
                for j in 0..h {
                    net.add_link(params.agg_id(pod, a), params.core_id(a, j), 1.0);
                }
            }
        }
        debug_assert_eq!(net.link_count() as u64, params.wire_count());
        Ok(FatTree { params, net })
    }

    /// The parameters this network was built from.
    pub fn params(&self) -> &FatTreeParams {
        &self.params
    }
}

impl Topology for FatTree {
    fn name(&self) -> String {
        self.params.to_string()
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        let p = &self.params;
        if u64::from(src.0) >= p.server_count() {
            return Err(RouteError::NotAServer(src));
        }
        if u64::from(dst.0) >= p.server_count() {
            return Err(RouteError::NotAServer(dst));
        }
        if src == dst {
            return Ok(Route::new(vec![src]));
        }
        let (sp, se, _) = p.addr(u64::from(src.0));
        let (dp, de, _) = p.addr(u64::from(dst.0));
        let hash = crate::ecmp_mix(u64::from(src.0), u64::from(dst.0));
        let mut nodes = vec![src, p.edge_id(sp, se)];
        if (sp, se) != (dp, de) {
            let a = hash % p.half();
            if sp == dp {
                nodes.push(p.agg_id(sp, a));
            } else {
                let j = (hash / p.half()) % p.half();
                nodes.push(p.agg_id(sp, a));
                nodes.push(p.core_id(a, j));
                nodes.push(p.agg_id(dp, a));
            }
            nodes.push(p.edge_id(dp, de));
        }
        nodes.push(dst);
        Ok(Route::new(nodes))
    }

    /// The ECMP [`Topology::route`] while every node and cable on it
    /// survives the mask, else the fewest-cables detour on the surviving
    /// graph ([`netgraph::bfs::link_shortest_path`]). The default's
    /// server-hop fallback would be free to meander through switches,
    /// since every fat-tree path is one server hop.
    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<Route, RouteError> {
        let route = self.route(src, dst)?;
        if route.validate(&self.net, Some(mask)).is_ok() {
            return Ok(route);
        }
        netgraph::bfs::link_shortest_path(&self.net, src, dst, Some(mask))
            .map(Route::new)
            .ok_or(RouteError::Unreachable { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(FatTreeParams::new(3).is_err());
        assert!(FatTreeParams::new(0).is_err());
        assert!(FatTreeParams::new(4).is_ok());
    }

    #[test]
    fn k4_counts() {
        let p = FatTreeParams::new(4).unwrap();
        assert_eq!(p.server_count(), 16);
        assert_eq!(p.switch_count(), 20);
        assert_eq!(p.wire_count(), 48);
        let t = FatTree::new(p).unwrap();
        assert_eq!(t.network().server_count(), 16);
        assert_eq!(t.network().switch_count(), 20);
        assert_eq!(t.network().link_count(), 48);
        // All switches have radix p.
        for sw in t.network().switch_ids() {
            assert_eq!(t.network().degree(sw), 4);
        }
        for s in t.network().server_ids() {
            assert_eq!(t.network().degree(s), 1);
        }
    }

    #[test]
    fn routing_valid_all_pairs() {
        let p = FatTreeParams::new(4).unwrap();
        let t = FatTree::new(p).unwrap();
        for s in 0..p.server_count() {
            for d in 0..p.server_count() {
                let r = t.route(NodeId(s as u32), NodeId(d as u32)).unwrap();
                r.validate(t.network(), None).unwrap();
                assert!(r.link_hops() as u64 <= p.link_diameter());
                if s != d {
                    assert_eq!(r.server_hops(t.network()), 1);
                }
            }
        }
    }

    #[test]
    fn route_avoiding_keeps_the_ecmp_route_until_it_breaks() {
        let t = FatTree::new(FatTreeParams::new(4).unwrap()).unwrap();
        let (src, dst) = (NodeId(0), NodeId(15));
        let ecmp = t.route(src, dst).unwrap();
        let mut mask = FaultMask::new(t.network());
        assert_eq!(t.route_avoiding(src, dst, &mask).unwrap(), ecmp);
        // Fail the core switch the ECMP route crosses: the detour is
        // another six-cable path, never a meander through more switches.
        mask.fail_node(ecmp.nodes()[3]);
        let detour = t.route_avoiding(src, dst, &mask).unwrap();
        detour.validate(t.network(), Some(&mask)).unwrap();
        assert_ne!(detour, ecmp);
        assert_eq!(detour.link_hops(), ecmp.link_hops());
        mask.fail_node(dst);
        assert!(matches!(
            t.route_avoiding(src, dst, &mask),
            Err(RouteError::Unreachable { .. })
        ));
    }

    #[test]
    fn link_diameter_matches_bfs() {
        let p = FatTreeParams::new(4).unwrap();
        let t = FatTree::new(p).unwrap();
        // max link distance between servers = 6
        let mut worst = 0;
        for s in 0..p.server_count() {
            let d = netgraph::bfs::link_distances(t.network(), NodeId(s as u32), None);
            for v in t.network().server_ids() {
                worst = worst.max(d[v.index()]);
            }
        }
        assert_eq!(u64::from(worst), p.link_diameter());
    }

    #[test]
    fn ecmp_spreads_cores() {
        let p = FatTreeParams::new(4).unwrap();
        let t = FatTree::new(p).unwrap();
        let mut cores = std::collections::HashSet::new();
        // Cross-pod pairs from server 0.
        for d in 8..16 {
            let r = t.route(NodeId(0), NodeId(d)).unwrap();
            assert_eq!(r.nodes().len(), 7);
            cores.insert(r.nodes()[3]);
        }
        assert!(cores.len() >= 2, "hash never spread across cores");
    }

    #[test]
    fn full_bisection() {
        let p = FatTreeParams::new(4).unwrap();
        let t = FatTree::new(p).unwrap();
        let side: Vec<bool> = (0..t.network().node_count())
            .map(|i| (i as u64) < p.server_count() / 2)
            .collect();
        assert_eq!(
            netgraph::maxflow::bisection_width(t.network(), &side),
            p.bisection_width()
        );
    }
}
