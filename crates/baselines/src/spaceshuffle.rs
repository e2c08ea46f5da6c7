//! Space Shuffle / S2 (Yu & Qian, ICNP 2014) — greedy routing over random
//! ring coordinates.
//!
//! `SpaceShuffle(v,d,s,seed)`: `v` switches are placed on `d` independent
//! seeded random rings (one circular permutation per "space"); a switch is
//! physically cabled to its two ring neighbors in every space (deduplicated
//! across spaces, so switch degree is at most `2d`) and hosts `s` servers.
//!
//! Routing is greedy: forward to the physical neighbor that minimizes the
//! *minimum circular distance to the destination across all spaces*,
//! accepting only strict decreases. Delivery is guaranteed fault-free: in
//! the space achieving the minimum, a ring neighbor always decreases that
//! circular distance by one, so a strictly improving neighbor exists at
//! every step and the greedy switch-hop count is bounded by the source's
//! minimum-space ring distance. Under faults the same greedy walk skips
//! dead elements and falls back to BFS on the surviving graph when stuck.

use netgraph::{FaultMask, Network, NetworkError, NodeId, Route, RouteError, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Parameters of a `SpaceShuffle(v,d,s,seed)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpaceShuffleParams {
    v: u32,
    d: u32,
    s: u32,
    seed: u64,
}

impl SpaceShuffleParams {
    /// Default space count when a spec omits `d`.
    pub const DEFAULT_D: u32 = 2;
    /// Default servers per switch when a spec omits `s`.
    pub const DEFAULT_S: u32 = 1;
    /// Default construction seed when a spec omits `seed`.
    pub const DEFAULT_SEED: u64 = 7;

    /// Creates and validates parameters: `v ≥ 3` switches, `1 ≤ d ≤ 64`
    /// spaces, `s ≥ 1` servers per switch.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidParameter`] on any violation.
    pub fn new(v: u32, d: u32, s: u32, seed: u64) -> Result<Self, NetworkError> {
        if !(3..=1_000_000).contains(&v) {
            return Err(NetworkError::InvalidParameter {
                name: "v",
                reason: format!("switch count must be in 3..=1000000, got {v}"),
            });
        }
        if !(1..=64).contains(&d) {
            return Err(NetworkError::InvalidParameter {
                name: "d",
                reason: format!("space count must be in 1..=64, got {d}"),
            });
        }
        if !(1..=256).contains(&s) {
            return Err(NetworkError::InvalidParameter {
                name: "s",
                reason: format!("servers per switch must be in 1..=256, got {s}"),
            });
        }
        Ok(SpaceShuffleParams { v, d, s, seed })
    }

    /// Number of switches `v`.
    pub fn v(&self) -> u32 {
        self.v
    }

    /// Number of spaces (rings) `d`.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Servers per switch `s`.
    pub fn s(&self) -> u32 {
        self.s
    }

    /// Construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Servers: `v·s`.
    pub fn server_count(&self) -> u64 {
        u64::from(self.v) * u64::from(self.s)
    }

    /// Switches: `v`.
    pub fn switch_count(&self) -> u64 {
        u64::from(self.v)
    }

    /// Maximum switch radix `2d + s` (ring edges can coincide across
    /// spaces, so the realized inter-switch degree may be lower).
    pub fn max_switch_radix(&self) -> u32 {
        2 * self.d + self.s
    }

    fn switch_node(&self, sw: u32) -> NodeId {
        NodeId(self.server_count() as u32 + sw)
    }

    fn host_switch(&self, server: NodeId) -> NodeId {
        self.switch_node(server.0 / self.s)
    }
}

impl fmt::Display for SpaceShuffleParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpaceShuffle(v={},d={},s={},seed={})",
            self.v, self.d, self.s, self.seed
        )
    }
}

impl FromStr for SpaceShuffleParams {
    type Err = NetworkError;

    /// Parses `v=64,d=2,s=1,seed=7` (any key order, each key at most once; `d`, `s`, `seed`
    /// optional) or the [`fmt::Display`] form `SpaceShuffle(v=64,...)`.
    fn from_str(text: &str) -> Result<Self, NetworkError> {
        use crate::family::{parse_keyed, parse_u32, parse_u64, strip_display_wrapper};
        let body = strip_display_wrapper(text, "spaceshuffle");
        let [v, d, s, seed] = parse_keyed(body, "spaceshuffle", ["v", "d", "s", "seed"])?;
        let v = v.ok_or_else(|| NetworkError::InvalidParameter {
            name: "v",
            reason: "spaceshuffle spec requires v=<switches>".into(),
        })?;
        SpaceShuffleParams::new(
            parse_u32("v", v)?,
            d.map_or(Ok(Self::DEFAULT_D), |d| parse_u32("d", d))?,
            s.map_or(Ok(Self::DEFAULT_S), |s| parse_u32("s", s))?,
            seed.map_or(Ok(Self::DEFAULT_SEED), |seed| parse_u64("seed", seed))?,
        )
    }
}

/// A materialized `SpaceShuffle(v,d,s,seed)` network with greedy
/// multi-space routing.
#[derive(Debug, Clone)]
pub struct SpaceShuffle {
    params: SpaceShuffleParams,
    net: Network,
    /// `pos[space][switch]` — the switch's position on that space's ring.
    pos: Vec<Vec<u32>>,
}

impl SpaceShuffle {
    /// Builds the seeded network with unit link capacity. Deterministic:
    /// the same parameters always produce an identical [`Network`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::TooLarge`] above the materialization guard.
    pub fn new(params: SpaceShuffleParams) -> Result<Self, NetworkError> {
        let nodes = params.server_count() + params.switch_count();
        if nodes > abccc::MAX_MATERIALIZED_NODES {
            return Err(NetworkError::TooLarge {
                nodes: u128::from(nodes),
                limit: u128::from(abccc::MAX_MATERIALIZED_NODES),
            });
        }
        let v = params.v;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut pos = Vec::with_capacity(params.d as usize);
        let mut edges = std::collections::BTreeSet::new();
        for _ in 0..params.d {
            let mut ring: Vec<u32> = (0..v).collect();
            ring.shuffle(&mut rng);
            let mut positions = vec![0u32; v as usize];
            for (p, &sw) in ring.iter().enumerate() {
                positions[sw as usize] = p as u32;
            }
            for i in 0..v as usize {
                let (a, b) = (ring[i], ring[(i + 1) % v as usize]);
                edges.insert(if a < b { (a, b) } else { (b, a) });
            }
            pos.push(positions);
        }

        let wires = params.server_count() as usize + edges.len();
        let mut net = Network::with_capacity(nodes as usize, wires);
        for _ in 0..params.server_count() {
            net.add_server();
        }
        for _ in 0..params.switch_count() {
            net.add_switch();
        }
        for srv in 0..params.server_count() as u32 {
            net.add_link(NodeId(srv), params.host_switch(NodeId(srv)), 1.0);
        }
        for &(a, b) in &edges {
            net.add_link(params.switch_node(a), params.switch_node(b), 1.0);
        }
        Ok(SpaceShuffle { params, net, pos })
    }

    /// The parameters this network was built from.
    pub fn params(&self) -> &SpaceShuffleParams {
        &self.params
    }

    /// Circular distance between two switches in one space.
    fn circular(&self, space: usize, a: u32, b: u32) -> u32 {
        let (pa, pb) = (self.pos[space][a as usize], self.pos[space][b as usize]);
        let lin = pa.abs_diff(pb);
        lin.min(self.params.v - lin)
    }

    /// The routing metric: minimum circular distance to `dst` over all
    /// spaces ("minimum multi-space distance" in the S2 paper).
    pub fn min_space_distance(&self, a_switch: u32, dst_switch: u32) -> u32 {
        (0..self.pos.len())
            .map(|sp| self.circular(sp, a_switch, dst_switch))
            .min()
            .expect("d >= 1")
    }

    fn switch_index(&self, node: NodeId) -> u32 {
        node.0 - self.params.server_count() as u32
    }

    fn check_server(&self, n: NodeId) -> Result<(), RouteError> {
        if u64::from(n.0) >= self.params.server_count() {
            Err(RouteError::NotAServer(n))
        } else {
            Ok(())
        }
    }

    /// Greedy strictly-decreasing walk over switches. Fault-free it always
    /// delivers; with a mask it may get stuck, in which case the caller
    /// falls back to BFS.
    fn greedy_switch_walk(
        &self,
        from: NodeId,
        dst_switch: u32,
        mask: Option<&FaultMask>,
    ) -> Option<Vec<NodeId>> {
        let mut nodes = vec![from];
        let mut cur = from;
        let mut cur_md = self.min_space_distance(self.switch_index(cur), dst_switch);
        while cur_md > 0 {
            let mut best: Option<(u32, NodeId)> = None;
            for &(n, l) in self.net.neighbors(cur) {
                if !self.net.is_server(n) && mask.is_none_or(|m| m.node_alive(n) && m.link_alive(l))
                {
                    let md = self.min_space_distance(self.switch_index(n), dst_switch);
                    // Strict improvement only; ties on the metric broken by
                    // the lower node id for determinism.
                    if md < cur_md && best.is_none_or(|(bmd, bn)| md < bmd || (md == bmd && n < bn))
                    {
                        best = Some((md, n));
                    }
                }
            }
            let (md, next) = best?;
            cur = next;
            cur_md = md;
            nodes.push(cur);
        }
        Some(nodes)
    }

    fn greedy_route(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: Option<&FaultMask>,
    ) -> Result<Route, RouteError> {
        if src == dst {
            return Ok(Route::new(vec![src]));
        }
        let (src_sw, dst_sw) = (self.params.host_switch(src), self.params.host_switch(dst));
        let dst_idx = self.switch_index(dst_sw);
        let alive = |n: NodeId, l| match mask {
            Some(m) => m.node_alive(n) && m.link_alive(l),
            None => true,
        };
        let first = self.net.find_link(src, src_sw).expect("host link");
        let last = self.net.find_link(dst_sw, dst).expect("host link");
        if alive(src_sw, first) && alive(dst_sw, last) {
            if let Some(mut nodes) = self.greedy_switch_walk(src_sw, dst_idx, mask) {
                nodes.insert(0, src);
                nodes.push(dst);
                return Ok(Route::new(nodes));
            }
        }
        // Greedy got stuck (possible only under faults): omniscient BFS on
        // the surviving graph.
        netgraph::bfs::link_shortest_path(&self.net, src, dst, mask)
            .map(Route::new)
            .ok_or(RouteError::Unreachable { src, dst })
    }
}

impl Topology for SpaceShuffle {
    fn name(&self) -> String {
        self.params.to_string()
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        self.check_server(src)?;
        self.check_server(dst)?;
        self.greedy_route(src, dst, None)
    }

    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<Route, RouteError> {
        self.check_server(src)?;
        self.check_server(dst)?;
        if !mask.node_alive(src) || !mask.node_alive(dst) {
            return Err(RouteError::Unreachable { src, dst });
        }
        self.greedy_route(src, dst, Some(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(SpaceShuffleParams::new(2, 2, 1, 0).is_err());
        assert!(SpaceShuffleParams::new(8, 0, 1, 0).is_err());
        assert!(SpaceShuffleParams::new(8, 2, 0, 0).is_err());
        assert!(SpaceShuffleParams::new(8, 2, 1, 0).is_ok());
    }

    #[test]
    fn spec_roundtrip() {
        let p: SpaceShuffleParams = "v=16,d=3,s=2,seed=9".parse().unwrap();
        assert_eq!(p, SpaceShuffleParams::new(16, 3, 2, 9).unwrap());
        let q: SpaceShuffleParams = "v=16".parse().unwrap();
        assert_eq!(q, SpaceShuffleParams::new(16, 2, 1, 7).unwrap());
        let back: SpaceShuffleParams = p.to_string().parse().unwrap();
        assert_eq!(back, p);
        assert!("d=2".parse::<SpaceShuffleParams>().is_err());
    }

    #[test]
    fn counts_and_connectivity() {
        for seed in 0..8 {
            let p = SpaceShuffleParams::new(15, 2, 2, seed).unwrap();
            let t = SpaceShuffle::new(p).unwrap();
            assert_eq!(t.network().server_count() as u64, p.server_count());
            assert_eq!(t.network().switch_count() as u64, p.switch_count());
            for sw in t.network().switch_ids() {
                assert!(t.network().degree(sw) as u32 <= p.max_switch_radix());
            }
            assert!(netgraph::connectivity::servers_connected(t.network(), None));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = SpaceShuffleParams::new(12, 2, 1, 5).unwrap();
        let (a, b) = (SpaceShuffle::new(p).unwrap(), SpaceShuffle::new(p).unwrap());
        assert_eq!(a.network().links(), b.network().links());
    }

    #[test]
    fn greedy_delivers_all_pairs_within_bound() {
        let p = SpaceShuffleParams::new(14, 2, 2, 3).unwrap();
        let t = SpaceShuffle::new(p).unwrap();
        let n = p.server_count() as u32;
        for s in 0..n {
            for d in 0..n {
                let r = t.route(NodeId(s), NodeId(d)).unwrap();
                r.validate(t.network(), None).unwrap();
                if s == d {
                    continue;
                }
                // Greedy switch hops are bounded by the min-space ring
                // distance between the host switches.
                let (ssw, dsw) = (
                    t.switch_index(t.params.host_switch(NodeId(s))),
                    t.switch_index(t.params.host_switch(NodeId(d))),
                );
                let bound = t.min_space_distance(ssw, dsw) as usize + 2;
                assert!(
                    r.link_hops() <= bound,
                    "greedy {} hops exceeds bound {bound}",
                    r.link_hops()
                );
            }
        }
    }

    #[test]
    fn route_avoiding_detours_or_gives_up() {
        let p = SpaceShuffleParams::new(12, 2, 1, 1).unwrap();
        let t = SpaceShuffle::new(p).unwrap();
        let primary = t.route(NodeId(0), NodeId(7)).unwrap();
        let mut mask = FaultMask::new(t.network());
        for &n in &primary.nodes()[1..primary.nodes().len() - 1] {
            if !t.network().is_server(n)
                && n != t.params.host_switch(NodeId(0))
                && n != t.params.host_switch(NodeId(7))
            {
                mask.fail_node(n);
            }
        }
        match t.route_avoiding(NodeId(0), NodeId(7), &mask) {
            Ok(r) => r.validate(t.network(), Some(&mask)).unwrap(),
            Err(RouteError::Unreachable { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
