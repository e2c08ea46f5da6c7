//! Jellyfish (Singla et al., NSDI 2012) — the random-graph rival.
//!
//! `Jellyfish(v,r,s,seed)`: `v` switches wired into a seeded random
//! `r`-regular graph, each hosting `s` servers (switch radix `r + s`,
//! `v·s` single-NIC servers). Construction uses the configuration model
//! (stub shuffle + pairing) followed by deterministic 2-swap repair of
//! self-loops/multi-edges and cross-component swaps until connected, so a
//! fixed seed yields a byte-identical graph on any host or thread count.
//!
//! Routing is k-shortest-path as the paper proposes: [`Jellyfish::route`]
//! walks a BFS distance field with a deterministic ECMP hash tie-break,
//! [`Jellyfish::k_shortest_paths`] is Yen's algorithm over link hops, and
//! `route_avoiding` runs the same ECMP walk on the surviving graph.

use netgraph::{FaultMask, Network, NetworkError, NodeId, Route, RouteError, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Parameters of a `Jellyfish(v,r,s,seed)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JellyfishParams {
    v: u32,
    r: u32,
    s: u32,
    seed: u64,
}

impl JellyfishParams {
    /// Default servers per switch when a spec omits `s`.
    pub const DEFAULT_S: u32 = 1;
    /// Default construction seed when a spec omits `seed`.
    pub const DEFAULT_SEED: u64 = 7;

    /// Creates and validates parameters: `v ≥ 3` switches, network degree
    /// `2 ≤ r < v` with `v·r` even (an r-regular graph must have an even
    /// stub count), and `s ≥ 1` servers per switch.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidParameter`] on any violation.
    pub fn new(v: u32, r: u32, s: u32, seed: u64) -> Result<Self, NetworkError> {
        if !(3..=1_000_000).contains(&v) {
            return Err(NetworkError::InvalidParameter {
                name: "v",
                reason: format!("switch count must be in 3..=1000000, got {v}"),
            });
        }
        if r < 2 || r >= v {
            return Err(NetworkError::InvalidParameter {
                name: "r",
                reason: format!("network degree must satisfy 2 <= r < v, got r={r} v={v}"),
            });
        }
        if u64::from(v) * u64::from(r) % 2 != 0 {
            return Err(NetworkError::InvalidParameter {
                name: "r",
                reason: format!("v*r must be even for an r-regular graph, got v={v} r={r}"),
            });
        }
        if !(1..=256).contains(&s) {
            return Err(NetworkError::InvalidParameter {
                name: "s",
                reason: format!("servers per switch must be in 1..=256, got {s}"),
            });
        }
        Ok(JellyfishParams { v, r, s, seed })
    }

    /// Number of switches `v`.
    pub fn v(&self) -> u32 {
        self.v
    }

    /// Inter-switch degree `r`.
    pub fn r(&self) -> u32 {
        self.r
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

    /// Cables: `v·s` server links plus `v·r/2` switch-switch links.
    pub fn wire_count(&self) -> u64 {
        self.server_count() + u64::from(self.v) * u64::from(self.r) / 2
    }

    /// Uniform switch radix `r + s`.
    pub fn switch_radix(&self) -> u32 {
        self.r + self.s
    }

    fn switch_node(&self, sw: u32) -> NodeId {
        NodeId(self.server_count() as u32 + sw)
    }

    fn host_switch(&self, server: NodeId) -> NodeId {
        self.switch_node(server.0 / self.s)
    }
}

impl fmt::Display for JellyfishParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Jellyfish(v={},r={},s={},seed={})",
            self.v, self.r, self.s, self.seed
        )
    }
}

impl FromStr for JellyfishParams {
    type Err = NetworkError;

    /// Parses `v=64,r=4,s=1,seed=7` (any key order, each key at most once; `s` and `seed`
    /// optional) or the [`fmt::Display`] form `Jellyfish(v=64,...)`.
    fn from_str(text: &str) -> Result<Self, NetworkError> {
        use crate::family::{parse_keyed, parse_u32, parse_u64, strip_display_wrapper};
        let body = strip_display_wrapper(text, "jellyfish");
        let [v, r, s, seed] = parse_keyed(body, "jellyfish", ["v", "r", "s", "seed"])?;
        let v = v.ok_or_else(|| NetworkError::InvalidParameter {
            name: "v",
            reason: "jellyfish spec requires v=<switches>".into(),
        })?;
        let r = r.ok_or_else(|| NetworkError::InvalidParameter {
            name: "r",
            reason: "jellyfish spec requires r=<degree>".into(),
        })?;
        JellyfishParams::new(
            parse_u32("v", v)?,
            parse_u32("r", r)?,
            s.map_or(Ok(Self::DEFAULT_S), |s| parse_u32("s", s))?,
            seed.map_or(Ok(Self::DEFAULT_SEED), |seed| parse_u64("seed", seed))?,
        )
    }
}

/// Normalized undirected edge key.
fn norm(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One configuration-model draw: shuffle `v·r` stubs, pair consecutively,
/// then repair self-loops and duplicate edges with 2-swaps (each successful
/// swap strictly reduces the conflict count and preserves degrees). Returns
/// `None` if a repair pass gets stuck (caller retries with a derived seed).
fn try_regular_edges(v: u32, r: u32, rng: &mut StdRng) -> Option<Vec<(u32, u32)>> {
    let mut stubs: Vec<u32> = (0..v)
        .flat_map(|sw| std::iter::repeat_n(sw, r as usize))
        .collect();
    stubs.shuffle(rng);
    let mut edges: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|p| norm(p[0], p[1])).collect();
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    loop {
        let mut conflicts = Vec::new();
        seen.clear();
        for (i, &e) in edges.iter().enumerate() {
            if e.0 == e.1 || !seen.insert(e) {
                conflicts.push(i);
            }
        }
        if conflicts.is_empty() {
            return Some(edges);
        }
        for &i in &conflicts {
            let (u, vv) = edges[i];
            let start = rng.gen_range(0..edges.len());
            let mut swapped = false;
            for off in 0..edges.len() {
                let j = (start + off) % edges.len();
                if j == i {
                    continue;
                }
                let (x, y) = edges[j];
                // Candidate rewiring (u,v),(x,y) -> (u,x),(v,y): all four
                // endpoints distinct, neither new edge already present.
                if u == x || u == y || vv == x || vv == y {
                    continue;
                }
                let (a, b) = (norm(u, x), norm(vv, y));
                if a == b || seen.contains(&a) || seen.contains(&b) {
                    continue;
                }
                seen.remove(&norm(u, vv));
                seen.remove(&norm(x, y));
                seen.insert(a);
                seen.insert(b);
                edges[i] = a;
                edges[j] = b;
                swapped = true;
                break;
            }
            if !swapped {
                return None;
            }
        }
    }
}

/// Merges graph components with degree-preserving cross-component 2-swaps.
/// An edge from each of two different components can always be rewired
/// across them without creating a self-loop or duplicate (the new edges
/// span components, where no edge existed).
fn connect_components(v: u32, edges: &mut [(u32, u32)]) {
    loop {
        // Union-find over switches.
        let mut parent: Vec<u32> = (0..v).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &(a, b) in edges.iter() {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
        let root0 = find(&mut parent, 0);
        let Some(outside) = (0..v).find(|&x| find(&mut parent, x) != root0) else {
            return;
        };
        let root1 = find(&mut parent, outside);
        let i = edges
            .iter()
            .position(|&(a, _)| find(&mut parent, a) == root0)
            .expect("component 0 has r-regular degree, so it has edges");
        let j = edges
            .iter()
            .position(|&(a, _)| find(&mut parent, a) == root1)
            .expect("every component of an r>=2-regular graph has edges");
        let ((a, b), (c, d)) = (edges[i], edges[j]);
        edges[i] = norm(a, c);
        edges[j] = norm(b, d);
    }
}

/// A materialized `Jellyfish(v,r,s,seed)` random regular graph with
/// k-shortest-path routing.
#[derive(Debug, Clone)]
pub struct Jellyfish {
    params: JellyfishParams,
    net: Network,
}

impl Jellyfish {
    /// Builds the seeded random r-regular network with unit link capacity.
    /// Deterministic: the same parameters (seed included) always produce an
    /// identical [`Network`], independent of host or thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::TooLarge`] above the materialization guard.
    pub fn new(params: JellyfishParams) -> Result<Self, NetworkError> {
        let nodes = params.server_count() + params.switch_count();
        if nodes > abccc::MAX_MATERIALIZED_NODES {
            return Err(NetworkError::TooLarge {
                nodes: u128::from(nodes),
                limit: u128::from(abccc::MAX_MATERIALIZED_NODES),
            });
        }
        let mut edges = None;
        for attempt in 0.. {
            let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(attempt));
            if let Some(found) = try_regular_edges(params.v, params.r, &mut rng) {
                edges = Some(found);
                break;
            }
        }
        let mut edges = edges.expect("loop breaks only with edges");
        connect_components(params.v, &mut edges);
        edges.sort_unstable();

        let mut net = Network::with_capacity(nodes as usize, params.wire_count() as usize);
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
        debug_assert_eq!(net.link_count() as u64, params.wire_count());
        Ok(Jellyfish { params, net })
    }

    /// The parameters this network was built from.
    pub fn params(&self) -> &JellyfishParams {
        &self.params
    }

    fn check_server(&self, n: NodeId) -> Result<(), RouteError> {
        if u64::from(n.0) >= self.params.server_count() {
            Err(RouteError::NotAServer(n))
        } else {
            Ok(())
        }
    }

    /// BFS distance field from `dst` walked src→dst, breaking equal-cost
    /// ties with a deterministic hash of (src, dst, position) — flow-level
    /// ECMP over the shortest-path DAG.
    fn ecmp_walk(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: Option<&FaultMask>,
    ) -> Result<Route, RouteError> {
        if src == dst {
            return Ok(Route::new(vec![src]));
        }
        let dist = netgraph::bfs::link_distances(&self.net, dst, mask);
        if dist[src.index()] == u32::MAX {
            return Err(RouteError::Unreachable { src, dst });
        }
        let hash = crate::ecmp_mix(u64::from(src.0), u64::from(dst.0));
        let mut nodes = vec![src];
        let mut cur = src;
        while cur != dst {
            let d = dist[cur.index()];
            let next: Vec<NodeId> = self
                .net
                .neighbors(cur)
                .iter()
                .filter(|(n, l)| {
                    dist[n.index()] == d - 1
                        && mask.is_none_or(|m| m.node_alive(*n) && m.link_alive(*l))
                })
                .map(|&(n, _)| n)
                .collect();
            debug_assert!(!next.is_empty(), "BFS distance field admits a step");
            cur = next[(crate::ecmp_mix(hash, nodes.len() as u64) % next.len() as u64) as usize];
            nodes.push(cur);
        }
        Ok(Route::new(nodes))
    }

    /// Yen's algorithm: up to `k` loopless shortest paths by link hops,
    /// shortest first, deterministic. This is the routing basis the
    /// Jellyfish paper proposes (k-shortest-paths + MPTCP).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NotAServer`] on a non-server endpoint and
    /// [`RouteError::Unreachable`] if no path exists at all.
    pub fn k_shortest_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> Result<Vec<Route>, RouteError> {
        self.check_server(src)?;
        self.check_server(dst)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        if src == dst {
            return Ok(vec![Route::new(vec![src])]);
        }
        let first = netgraph::bfs::link_shortest_path(&self.net, src, dst, None)
            .ok_or(RouteError::Unreachable { src, dst })?;
        let mut found: Vec<Vec<NodeId>> = vec![first];
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        while found.len() < k {
            let prev = found.last().expect("nonempty").clone();
            for spur_idx in 0..prev.len() - 1 {
                let spur = prev[spur_idx];
                let root = &prev[..=spur_idx];
                let mut mask = FaultMask::new(&self.net);
                for path in found.iter().chain(candidates.iter()) {
                    if path.len() > spur_idx && path[..=spur_idx] == *root {
                        if let Some(l) = self.net.find_link(path[spur_idx], path[spur_idx + 1]) {
                            mask.fail_link(l);
                        }
                    }
                }
                for &n in &root[..spur_idx] {
                    mask.fail_node(n);
                }
                if let Some(tail) =
                    netgraph::bfs::link_shortest_path(&self.net, spur, dst, Some(&mask))
                {
                    let mut path = root[..spur_idx].to_vec();
                    path.extend(tail);
                    if !found.contains(&path) && !candidates.contains(&path) {
                        candidates.push(path);
                    }
                }
            }
            // Shortest candidate next; ties broken by node sequence so the
            // order is a pure function of the graph.
            candidates.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
            if candidates.is_empty() {
                break;
            }
            found.push(candidates.remove(0));
        }
        Ok(found.into_iter().map(Route::new).collect())
    }
}

impl Topology for Jellyfish {
    fn name(&self) -> String {
        self.params.to_string()
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        self.check_server(src)?;
        self.check_server(dst)?;
        self.ecmp_walk(src, dst, None)
    }

    fn parallel_routes(
        &self,
        src: NodeId,
        dst: NodeId,
        want: usize,
    ) -> Result<Vec<Route>, RouteError> {
        // Over-sample Yen, then greedily keep internally disjoint paths.
        let pool = self.k_shortest_paths(src, dst, want.saturating_mul(4).max(8))?;
        let mut picked: Vec<Route> = Vec::new();
        for r in pool {
            if picked.len() >= want {
                break;
            }
            if picked.iter().all(|p| p.is_internally_disjoint_from(&r)) {
                picked.push(r);
            }
        }
        Ok(picked)
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
        self.ecmp_walk(src, dst, Some(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(JellyfishParams::new(2, 2, 1, 0).is_err()); // v too small
        assert!(JellyfishParams::new(8, 1, 1, 0).is_err()); // r too small
        assert!(JellyfishParams::new(8, 8, 1, 0).is_err()); // r >= v
        assert!(JellyfishParams::new(5, 3, 1, 0).is_err()); // v*r odd
        assert!(JellyfishParams::new(8, 3, 0, 0).is_err()); // s zero
        assert!(JellyfishParams::new(8, 3, 1, 0).is_ok());
    }

    #[test]
    fn spec_roundtrip() {
        let p: JellyfishParams = "v=16,r=4,s=2,seed=9".parse().unwrap();
        assert_eq!(p, JellyfishParams::new(16, 4, 2, 9).unwrap());
        // Defaults and display-form re-parse.
        let q: JellyfishParams = "r=4,v=16".parse().unwrap();
        assert_eq!(q, JellyfishParams::new(16, 4, 1, 7).unwrap());
        let back: JellyfishParams = p.to_string().parse().unwrap();
        assert_eq!(back, p);
        assert!("v=16".parse::<JellyfishParams>().is_err());
        assert!("v=16,r=4,bogus=1".parse::<JellyfishParams>().is_err());
    }

    #[test]
    fn regular_connected_counts() {
        for seed in 0..8 {
            let p = JellyfishParams::new(20, 4, 2, seed).unwrap();
            let t = Jellyfish::new(p).unwrap();
            assert_eq!(t.network().server_count() as u64, p.server_count());
            assert_eq!(t.network().switch_count() as u64, p.switch_count());
            assert_eq!(t.network().link_count() as u64, p.wire_count());
            for sw in t.network().switch_ids() {
                assert_eq!(t.network().degree(sw) as u32, p.switch_radix());
            }
            assert!(netgraph::connectivity::servers_connected(t.network(), None));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = JellyfishParams::new(16, 3, 1, 42).unwrap();
        let (a, b) = (Jellyfish::new(p).unwrap(), Jellyfish::new(p).unwrap());
        assert_eq!(a.network().links(), b.network().links());
        let q = JellyfishParams::new(16, 3, 1, 43).unwrap();
        let c = Jellyfish::new(q).unwrap();
        assert_ne!(a.network().links(), c.network().links());
    }

    #[test]
    fn routing_valid_all_pairs() {
        let p = JellyfishParams::new(12, 3, 2, 1).unwrap();
        let t = Jellyfish::new(p).unwrap();
        let n = p.server_count() as u32;
        for s in 0..n {
            for d in 0..n {
                let r = t.route(NodeId(s), NodeId(d)).unwrap();
                r.validate(t.network(), None).unwrap();
                // ECMP walk is a shortest path in link hops.
                let bfs =
                    netgraph::bfs::link_shortest_path(t.network(), NodeId(s), NodeId(d), None)
                        .unwrap();
                assert_eq!(r.link_hops(), bfs.len() - 1);
            }
        }
        assert!(t.route(NodeId(n), NodeId(0)).is_err());
    }

    #[test]
    fn yen_paths_are_sorted_simple_and_distinct() {
        let p = JellyfishParams::new(10, 3, 1, 5).unwrap();
        let t = Jellyfish::new(p).unwrap();
        let paths = t.k_shortest_paths(NodeId(0), NodeId(7), 5).unwrap();
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].link_hops() <= w[1].link_hops());
            assert_ne!(w[0], w[1]);
        }
        for r in &paths {
            r.validate(t.network(), None).unwrap();
        }
    }

    #[test]
    fn parallel_routes_disjoint() {
        let p = JellyfishParams::new(12, 4, 1, 3).unwrap();
        let t = Jellyfish::new(p).unwrap();
        let rs = t.parallel_routes(NodeId(0), NodeId(9), 3).unwrap();
        assert!(!rs.is_empty());
        for i in 0..rs.len() {
            for j in i + 1..rs.len() {
                assert!(rs[i].is_internally_disjoint_from(&rs[j]));
            }
        }
    }

    #[test]
    fn route_avoiding_detours() {
        let p = JellyfishParams::new(12, 3, 1, 2).unwrap();
        let t = Jellyfish::new(p).unwrap();
        let primary = t.route(NodeId(0), NodeId(8)).unwrap();
        let mut mask = FaultMask::new(t.network());
        // Fail every intermediate node of the primary path.
        for &n in &primary.nodes()[1..primary.nodes().len() - 1] {
            mask.fail_node(n);
        }
        match t.route_avoiding(NodeId(0), NodeId(8), &mask) {
            Ok(r) => r.validate(t.network(), Some(&mask)).unwrap(),
            Err(RouteError::Unreachable { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}
