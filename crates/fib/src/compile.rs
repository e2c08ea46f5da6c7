//! The FIB compiler: lowering digit-correction routing decisions into
//! per-server next-hop tables.
//!
//! # Why per-server, not per-switch
//!
//! The correct next hop out of a *crossbar* depends on which group member
//! the packet arrived from: two servers of the same group heading for the
//! same destination can need different exit members (their remaining
//! correction orders start at different owners). Per-switch
//! destination-indexed tables are therefore ill-defined for this family.
//! Servers, on the other hand, fully determine the next two hops — which
//! matches the server-centric design ABCCC inherits from BCube, where
//! switches are dumb crossbars and all forwarding intelligence lives in
//! the servers. Each table entry packs the pair of egress *ports* (server
//! port, then via-switch port) into one `u32` over the stable
//! link-insertion port order of [`netgraph::Network::neighbors`].
//!
//! # Why one entry per `(server, destination)` suffices
//!
//! Every deterministic [`PermStrategy`] has the *suffix property*: at any
//! intermediate server of a route, recomputing the correction order from
//! the current address yields exactly the unconsumed remainder of the
//! original order. (Blocks of levels grouped by owner keep their cyclic
//! order when the reference position advances with the walk, and the
//! destination-block-last rotation is stable at every intermediate.) So a
//! hop-by-hop table walk reproduces the end-to-end
//! [`DigitRouter::route_addrs`] path bit for bit — the equivalence the
//! property tests pin. [`PermStrategy::Random`] salts its RNG with the
//! *original* source and is the one strategy without the property; the
//! compiler rejects it.

use abccc::{Abccc, PermStrategy, ServerAddr, SwitchAddr};
use netgraph::{Network, NodeId, Route, Topology};
use std::sync::Mutex;

/// Sentinel for the diagonal entries (`src == dst`): never dereferenced,
/// a walk terminates before reading it.
const SELF: u32 = u32::MAX;

/// Why a FIB could not be compiled or installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FibError {
    /// The strategy recomputes differently at intermediate hops (only
    /// [`PermStrategy::Random`]): its routes cannot be expressed as
    /// per-server tables.
    UnsupportedStrategy {
        /// Label of the rejected strategy.
        strategy: &'static str,
    },
    /// A node's degree does not fit the 16-bit port field of a packed
    /// table entry.
    PortOverflow {
        /// The offending node.
        node: NodeId,
        /// Its degree.
        degree: usize,
    },
    /// [`RouteService`](crate::RouteService) requires a
    /// [`PermStrategy::DestinationAware`] table: its faulted fallback is
    /// the `ResilientRouter`, whose first ladder rung is exactly that
    /// strategy — any other table would break the bit-equivalence
    /// contract.
    ServiceRequiresShortest {
        /// Label of the strategy the table was compiled with.
        strategy: &'static str,
    },
    /// The table was compiled for a different topology size.
    TopologyMismatch {
        /// Servers the table covers.
        fib_servers: u32,
        /// Servers of the topology the service was given.
        topo_servers: u64,
    },
}

impl std::fmt::Display for FibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FibError::UnsupportedStrategy { strategy } => write!(
                f,
                "strategy `{strategy}` cannot be compiled: its orders are not \
                 suffix-stable at intermediate hops"
            ),
            FibError::PortOverflow { node, degree } => {
                write!(f, "degree {degree} of {node} exceeds the 16-bit port field")
            }
            FibError::ServiceRequiresShortest { strategy } => write!(
                f,
                "RouteService needs a destination-aware table for its resilient \
                 fallback contract, got `{strategy}`"
            ),
            FibError::TopologyMismatch {
                fib_servers,
                topo_servers,
            } => write!(
                f,
                "table compiled for {fib_servers} servers, topology has {topo_servers}"
            ),
        }
    }
}

impl std::error::Error for FibError {}

/// Compiles [`DigitRouter`] decisions into a [`Fib`].
///
/// The sweep parallelizes over destinations with
/// [`netgraph::par::map_indexed`]; each destination's slab is a disjoint
/// slice of the flat table, filled in place, so assembly needs no
/// reordering.
#[derive(Debug, Clone, Copy)]
pub struct FibCompiler {
    strategy: PermStrategy,
    threads: usize,
}

impl FibCompiler {
    /// A compiler lowering `strategy`'s correction orders.
    pub fn new(strategy: PermStrategy) -> Self {
        FibCompiler {
            strategy,
            threads: 0,
        }
    }

    /// The default compiler: [`PermStrategy::DestinationAware`], the
    /// shortest-path strategy and the one [`RouteService`](crate::RouteService)
    /// accepts.
    pub fn shortest() -> Self {
        FibCompiler::new(PermStrategy::DestinationAware)
    }

    /// Sets the worker-thread count (`0` = all available cores). Never
    /// changes the produced table, only how fast it compiles.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Compiles the full `(server, destination)` next-hop table for `topo`.
    ///
    /// # Errors
    ///
    /// * [`FibError::UnsupportedStrategy`] — [`PermStrategy::Random`] has no
    ///   suffix-stable orders;
    /// * [`FibError::PortOverflow`] — a node degree exceeds the 16-bit port
    ///   field (not reachable for valid ABCCC parameters, checked anyway).
    pub fn compile(&self, topo: &Abccc) -> Result<Fib, FibError> {
        if let PermStrategy::Random(_) = self.strategy {
            return Err(FibError::UnsupportedStrategy {
                strategy: self.strategy.label(),
            });
        }
        let net = topo.network();
        for node in net.node_ids() {
            if net.degree(node) > usize::from(u16::MAX) {
                return Err(FibError::PortOverflow {
                    node,
                    degree: net.degree(node),
                });
            }
        }

        let _span = dcn_telemetry::span!("fib.compile");
        let p = *topo.params();
        let servers = p.server_count() as usize;
        let strategy = self.strategy;
        let mut entries = vec![SELF; servers * servers];
        {
            // Each destination's slab is a disjoint &mut slice of the one
            // flat table, filled in place by whichever worker claims it.
            let slabs: Mutex<Vec<Option<&mut [u32]>>> =
                Mutex::new(entries.chunks_mut(servers).map(Some).collect());
            netgraph::par::map_indexed(
                servers,
                self.threads,
                || (),
                |(), d| {
                    let slab = slabs.lock().expect("slab list")[d]
                        .take()
                        .expect("each slab taken once");
                    fill_slab(&p, net, strategy, d as u32, slab);
                },
                drop,
            );
        }

        let fib = Fib {
            strategy,
            servers: servers as u32,
            // Worst-case node count of any strategy's route: 4 nodes per
            // corrected level plus the final crossbar pair plus the source.
            max_nodes: 4 * p.levels() + 3,
            entries,
        };
        dcn_telemetry::counter!("fib.compiles").inc();
        dcn_telemetry::gauge!("fib.table_bytes").set(fib.bytes() as i64);
        Ok(fib)
    }

    /// Compiles the hierarchical digit-structured table for `topo` —
    /// the same lookups as [`FibCompiler::compile`] at
    /// `O(V·levels + E)` memory instead of `O(V²)`. O(E) single-threaded
    /// (the [`threads`](FibCompiler::threads) knob is irrelevant at that
    /// cost).
    ///
    /// # Errors
    ///
    /// Same as [`FibCompiler::compile`].
    pub fn compile_hier(&self, topo: &Abccc) -> Result<crate::HierFib, FibError> {
        crate::hier::compile(self.strategy, topo)
    }
}

/// Fills the next-hop slab of destination `d`: for every source server,
/// the first two hops of the strategy's route, packed as ports.
fn fill_slab(
    p: &abccc::AbcccParams,
    net: &Network,
    strategy: PermStrategy,
    d: u32,
    slab: &mut [u32],
) {
    let sd = ServerAddr::from_node_id(p, NodeId(d));
    for (u, entry) in slab.iter_mut().enumerate() {
        let u = u as u32;
        if u == d {
            *entry = SELF;
            continue;
        }
        let su = ServerAddr::from_node_id(p, NodeId(u));
        let order = strategy.order(p, su, sd);
        let (via, next) = if let Some(&level) = order.first() {
            let owner = p.owner(level);
            if su.pos == owner {
                // Correct the first digit through the owned level switch.
                let sw = SwitchAddr::Level {
                    level,
                    rest: su.label.rest_index(p, level),
                };
                let corrected = su.label.with_digit(p, level, sd.label.digit(p, level));
                (
                    sw.node_id(p),
                    ServerAddr::new(p, corrected, owner).node_id(p),
                )
            } else {
                // Reach the owner through the group crossbar first.
                (
                    SwitchAddr::Crossbar(su.label).node_id(p),
                    ServerAddr::new(p, su.label, owner).node_id(p),
                )
            }
        } else {
            // Same label, different position: one crossbar hop finishes.
            (SwitchAddr::Crossbar(su.label).node_id(p), NodeId(d))
        };
        let sport = net
            .port_of(NodeId(u), via)
            .expect("fib: server adjacent to its next-hop switch");
        let wport = net
            .port_of(via, next)
            .expect("fib: switch adjacent to the next server");
        *entry = (sport as u32) << 16 | wport as u32;
    }
}

/// A compiled forwarding table: for every `(server, destination)` pair the
/// next two hops (via switch, next server) of the strategy's route, packed
/// as two 16-bit egress ports in one `u32`. Lookups are pure reads of an
/// immutable slab — shareable across any number of query threads without
/// locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fib {
    strategy: PermStrategy,
    servers: u32,
    max_nodes: u32,
    /// `entries[dst * servers + src]`, destination-major so one walk stays
    /// inside one slab.
    entries: Vec<u32>,
}

impl Fib {
    /// The strategy the table was compiled from.
    pub fn strategy(&self) -> PermStrategy {
        self.strategy
    }

    /// Number of servers the table covers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Table size in bytes (entries only).
    pub fn bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<u32>()
    }

    /// The packed `(server port, switch port)` entry for a hop, or `None`
    /// on the diagonal.
    pub fn ports(&self, at: NodeId, toward: NodeId) -> Option<(u16, u16)> {
        let e = self.entries[toward.index() * self.servers as usize + at.index()];
        (e != SELF).then_some(((e >> 16) as u16, (e & 0xFFFF) as u16))
    }

    /// Walks the table from `src` to `dst`, appending the full node
    /// sequence (servers and switches, `src` included) to `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range for the table, or — the
    /// corruption guard — if the walk exceeds the worst-case route length
    /// of any strategy (every level paying a crossbar and a switch hop).
    pub fn walk_into(&self, net: &Network, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) {
        let cap = self.max_nodes as usize;
        nodes.push(src);
        let mut cur = src;
        while cur != dst {
            assert!(
                nodes.len() < cap,
                "fib walk {src}->{dst} exceeded the route-length bound — corrupt table"
            );
            let e = self.entries[dst.index() * self.servers as usize + cur.index()];
            let (via, _) = net.neighbors(cur)[(e >> 16) as usize];
            let (next, _) = net.neighbors(via)[(e & 0xFFFF) as usize];
            nodes.push(via);
            nodes.push(next);
            cur = next;
        }
    }

    /// The compiled route `src → dst` as a [`Route`].
    pub fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> Route {
        let mut nodes = Vec::with_capacity(self.max_nodes as usize);
        self.walk_into(net, src, dst, &mut nodes);
        Route::new(nodes)
    }

    /// Walks `src → dst` under a fault mask, appending to `nodes` and
    /// reporting whether every traversed node and link is alive — the
    /// hot-path equivalent of `Route::validate(net, Some(mask))` for a
    /// structurally valid table walk.
    pub fn walk_live_into(
        &self,
        net: &Network,
        mask: &netgraph::FaultMask,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        let cap = self.max_nodes as usize;
        nodes.push(src);
        let mut alive = mask.node_alive(src);
        let mut cur = src;
        while cur != dst {
            assert!(
                nodes.len() < cap,
                "fib walk {src}->{dst} exceeded the route-length bound — corrupt table"
            );
            let e = self.entries[dst.index() * self.servers as usize + cur.index()];
            let (via, l1) = net.neighbors(cur)[(e >> 16) as usize];
            let (next, l2) = net.neighbors(via)[(e & 0xFFFF) as usize];
            alive = alive
                && mask.link_alive(l1)
                && mask.node_alive(via)
                && mask.link_alive(l2)
                && mask.node_alive(next);
            nodes.push(via);
            nodes.push(next);
            cur = next;
        }
        alive
    }
}

/// Convenience: compiles the shortest-path table with default threading —
/// what [`DigitRouter::shortest`] computes per query, amortized once.
///
/// # Errors
///
/// Propagates [`FibCompiler::compile`] failures (not reachable for valid
/// ABCCC parameters with the destination-aware strategy).
pub fn compile_shortest(topo: &Abccc) -> Result<Fib, FibError> {
    FibCompiler::shortest().compile(topo)
}

/// Convenience: compiles the shortest-path table in the hierarchical
/// layout — same answers as [`compile_shortest`] at `O(V·levels + E)`
/// memory.
///
/// # Errors
///
/// Propagates [`FibCompiler::compile_hier`] failures (not reachable for
/// valid ABCCC parameters with the destination-aware strategy).
pub fn compile_shortest_hier(topo: &Abccc) -> Result<crate::HierFib, FibError> {
    FibCompiler::shortest().compile_hier(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{AbcccParams, DigitRouter};
    use netgraph::Topology;

    fn topo(n: u32, k: u32, h: u32) -> Abccc {
        Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap()
    }

    #[test]
    fn rejects_random_strategy() {
        let t = topo(2, 1, 2);
        let err = FibCompiler::new(PermStrategy::Random(7)).compile(&t);
        assert!(matches!(err, Err(FibError::UnsupportedStrategy { .. })));
        assert!(err.unwrap_err().to_string().contains("random"));
    }

    #[test]
    fn walks_match_on_demand_routes_for_every_deterministic_strategy() {
        for (n, k, h) in [(2, 2, 2), (3, 1, 2), (2, 3, 3), (3, 1, 3)] {
            let t = topo(n, k, h);
            let p = *t.params();
            let net = t.network();
            for strategy in [
                PermStrategy::DestinationAware,
                PermStrategy::CyclicFromSource,
                PermStrategy::Ascending,
                PermStrategy::Descending,
                PermStrategy::Greedy,
            ] {
                let fib = FibCompiler::new(strategy).compile(&t).unwrap();
                let router = DigitRouter::new(strategy);
                for s in 0..p.server_count() as u32 {
                    for d in 0..p.server_count() as u32 {
                        let walked = fib.route(net, NodeId(s), NodeId(d));
                        let direct = router.route_addrs(
                            &p,
                            ServerAddr::from_node_id(&p, NodeId(s)),
                            ServerAddr::from_node_id(&p, NodeId(d)),
                        );
                        assert_eq!(
                            walked,
                            direct,
                            "ABCCC({n},{k},{h}) {} {s}->{d}",
                            strategy.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_table() {
        let t = topo(2, 2, 2);
        let one = FibCompiler::shortest().threads(1).compile(&t).unwrap();
        let many = FibCompiler::shortest().threads(7).compile(&t).unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn table_size_is_quadratic_and_compact() {
        let t = topo(3, 1, 2); // 18 servers
        let fib = compile_shortest(&t).unwrap();
        assert_eq!(fib.servers(), 18);
        assert_eq!(fib.bytes(), 18 * 18 * 4);
        assert!(fib.ports(NodeId(0), NodeId(0)).is_none());
        assert!(fib.ports(NodeId(0), NodeId(17)).is_some());
    }

    #[test]
    fn bcube_endpoint_has_no_crossbars_and_still_compiles() {
        let t = topo(3, 1, 3); // m = 1: no crossbars materialized
        let p = *t.params();
        let fib = compile_shortest(&t).unwrap();
        let r = fib.route(t.network(), NodeId(0), NodeId(8));
        r.validate(t.network(), None).unwrap();
        assert_eq!(
            r,
            DigitRouter::shortest().route_addrs(
                &p,
                ServerAddr::from_node_id(&p, NodeId(0)),
                ServerAddr::from_node_id(&p, NodeId(8)),
            )
        );
    }
}
