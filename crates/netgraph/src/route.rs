//! Routes and the topology abstraction shared by all network families.

use crate::{FaultMask, LinkId, Network, NodeId, NodeKind, RouteError};
use serde::{Deserialize, Serialize};

/// A concrete path through a [`Network`]: the full node sequence from a
/// source server to a destination server, *including* the switches crossed.
///
/// In the server-centric DCN literature (BCube, BCCC, ABCCC, DCell) path
/// length is counted in **server hops**: a `server → switch → server`
/// traversal is one hop, and so is a direct `server → server` cable. A
/// switch never appears as an endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    nodes: Vec<NodeId>,
}

impl Route {
    /// Builds a route from the full node sequence.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty. (Use a single-element sequence for the
    /// trivial route from a server to itself.)
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a route has at least one node");
        Route { nodes }
    }

    /// The full node sequence, source first.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Source server.
    #[inline]
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination server.
    #[inline]
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("non-empty")
    }

    /// Number of physical cables traversed.
    #[inline]
    pub fn link_hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Path length in **server hops** w.r.t. `net`: each maximal
    /// `server → (switch) → server` step counts 1. This is the length metric
    /// of the ABCCC paper.
    pub fn server_hops(&self, net: &Network) -> usize {
        self.nodes
            .iter()
            .skip(1)
            .filter(|&&n| net.kind(n) == NodeKind::Server)
            .count()
    }

    /// The sequence of link ids traversed.
    ///
    /// Returns `None` if two consecutive nodes of the route are not
    /// adjacent in `net` (i.e. the route is invalid for this network).
    pub fn links(&self, net: &Network) -> Option<Vec<LinkId>> {
        self.nodes
            .windows(2)
            .map(|w| net.find_link(w[0], w[1]))
            .collect()
    }

    /// Validates the route against `net` and an optional fault mask:
    /// endpoints are servers, consecutive nodes are adjacent, no node is
    /// repeated (routes are simple paths), and every traversed element is
    /// alive.
    pub fn validate(&self, net: &Network, mask: Option<&FaultMask>) -> Result<(), String> {
        if !net.is_server(self.src()) {
            return Err(format!("source {} is not a server", self.src()));
        }
        if !net.is_server(self.dst()) {
            return Err(format!("destination {} is not a server", self.dst()));
        }
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        for &n in &self.nodes {
            if !seen.insert(n) {
                return Err(format!("node {n} repeated — route is not a simple path"));
            }
            if let Some(m) = mask {
                if !m.node_alive(n) {
                    return Err(format!("route crosses failed node {n}"));
                }
            }
        }
        for w in self.nodes.windows(2) {
            match net.find_link(w[0], w[1]) {
                None => return Err(format!("{} and {} are not adjacent", w[0], w[1])),
                Some(l) => {
                    if let Some(m) = mask {
                        if !m.link_alive(l) {
                            return Err(format!("route crosses failed link {l}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `true` if this route shares no intermediate node with `other`
    /// (endpoints excluded) — the vertex-disjointness used for the parallel
    /// paths property of ABCCC/BCCC.
    pub fn is_internally_disjoint_from(&self, other: &Route) -> bool {
        let mine: std::collections::HashSet<_> =
            self.nodes[1..self.nodes.len() - 1].iter().collect();
        other.nodes[1..other.nodes.len() - 1]
            .iter()
            .all(|n| !mine.contains(n))
    }
}

/// Object-safe upcast to [`std::any::Any`], so consumers holding a
/// `&dyn Topology` can recover the concrete family (e.g. to reach
/// cube-specific accessors). Blanket-implemented for every `'static` type;
/// implementors never write this by hand.
pub trait AsAny {
    /// `self` as `&dyn Any`, for downcasting.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<T: std::any::Any> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The interface every network family (ABCCC, BCCC, BCube, DCell, fat-tree,
/// …) implements, so metrics and simulators are family-agnostic.
///
/// Implementors must follow the crate conventions: servers are added to the
/// network first (ids `0..server_count`), and `route` uses the family's
/// *native* routing algorithm (not generic shortest path) so that simulator
/// results reflect the algorithms the papers propose.
pub trait Topology: AsAny {
    /// Human-readable family name with parameters, e.g. `"ABCCC(4,2,3)"`.
    fn name(&self) -> String;

    /// The materialized physical network.
    fn network(&self) -> &Network;

    /// Number of servers. Server node ids are `0..server_count()`.
    fn server_count(&self) -> usize {
        self.network().server_count()
    }

    /// Routes from server `src` to server `dst` with the family's native
    /// one-to-one routing algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NotAServer`] if an endpoint is not a server id.
    fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, RouteError>;

    /// Up to `want` internally vertex-disjoint routes between two servers,
    /// primary route first. The default returns just the single native
    /// route; families with native parallel-path constructions (ABCCC,
    /// BCCC, BCube) override this — multipath simulation builds on it.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NotAServer`] if an endpoint is not a server.
    fn parallel_routes(
        &self,
        src: NodeId,
        dst: NodeId,
        want: usize,
    ) -> Result<Vec<Route>, RouteError> {
        let _ = want;
        Ok(vec![self.route(src, dst)?])
    }

    /// Fault-tolerant variant of [`Topology::route`]. The default keeps the
    /// native [`Topology::route`] while it [validates](Route::validate)
    /// under the mask, and otherwise falls back to server-hop breadth-first
    /// search on the surviving graph, a correct (if omniscient) baseline.
    /// Families override this with their native detour schemes.
    fn route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<Route, RouteError> {
        let route = self.route(src, dst)?;
        if route.validate(self.network(), Some(mask)).is_ok() {
            return Ok(route);
        }
        crate::bfs::shortest_path(self.network(), src, dst, Some(mask))
            .map(Route::new)
            .ok_or(RouteError::Unreachable { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    fn line() -> (Network, Vec<NodeId>) {
        // s0 - sw - s1 - s2 (mixed switched and direct links)
        let mut net = Network::new();
        let s0 = net.add_server();
        let s1 = net.add_server();
        let s2 = net.add_server();
        let sw = net.add_switch();
        net.add_link(s0, sw, 1.0);
        net.add_link(sw, s1, 1.0);
        net.add_link(s1, s2, 1.0);
        (net, vec![s0, s1, s2, sw])
    }

    #[test]
    fn hop_metrics() {
        let (net, n) = line();
        let r = Route::new(vec![n[0], n[3], n[1], n[2]]);
        assert_eq!(r.link_hops(), 3);
        assert_eq!(r.server_hops(&net), 2); // s0→(sw)→s1 is 1, s1→s2 is 1
        r.validate(&net, None).unwrap();
        assert_eq!(r.links(&net).unwrap().len(), 3);
        assert_eq!(r.src(), n[0]);
        assert_eq!(r.dst(), n[2]);
    }

    #[test]
    fn trivial_route() {
        let (net, n) = line();
        let r = Route::new(vec![n[0]]);
        assert_eq!(r.server_hops(&net), 0);
        r.validate(&net, None).unwrap();
    }

    #[test]
    fn validate_rejects_nonadjacent() {
        let (net, n) = line();
        let r = Route::new(vec![n[0], n[2]]);
        assert!(r.validate(&net, None).unwrap_err().contains("not adjacent"));
    }

    #[test]
    fn validate_rejects_repeats() {
        let (net, n) = line();
        let r = Route::new(vec![n[0], n[3], n[0]]);
        assert!(r.validate(&net, None).unwrap_err().contains("repeated"));
    }

    #[test]
    fn validate_respects_mask() {
        let (net, n) = line();
        let mut mask = FaultMask::new(&net);
        mask.fail_node(n[3]);
        let r = Route::new(vec![n[0], n[3], n[1]]);
        assert!(r
            .validate(&net, Some(&mask))
            .unwrap_err()
            .contains("failed node"));
    }

    #[test]
    fn disjointness() {
        let (_, n) = line();
        let a = Route::new(vec![n[0], n[3], n[1]]);
        let b = Route::new(vec![n[0], n[2], n[1]]);
        assert!(a.is_internally_disjoint_from(&b));
        let c = Route::new(vec![n[0], n[3], n[2]]);
        assert!(!a.is_internally_disjoint_from(&c));
    }
}
