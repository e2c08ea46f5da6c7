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
//! the servers. A hop is a pair of egress *ports* (server port, then
//! via-switch port) over the stable link-insertion port order of
//! [`netgraph::Network::neighbors`].
//!
//! # Why the current server and the destination suffice
//!
//! Every deterministic [`PermStrategy`] has the *suffix property*: at any
//! intermediate server of a route, recomputing the correction order from
//! the current address yields exactly the unconsumed remainder of the
//! original order. (Blocks of levels grouped by owner keep their cyclic
//! order when the reference position advances with the walk, and the
//! destination-block-last rotation is stable at every intermediate.) So a
//! hop-by-hop table walk reproduces the end-to-end
//! [`DigitRouter::route_addrs`](abccc::DigitRouter::route_addrs) path bit
//! for bit — the equivalence the property tests pin — and the table only
//! has to store what a hop reads ([`HierFib`] stores it per digit, not
//! per destination). [`PermStrategy::Random`] salts its RNG with the
//! *original* source and is the one strategy without the property; the
//! compiler rejects it.

use crate::hier::HierFib;
use abccc::{Abccc, AbcccParams, PermStrategy};
use netgraph::NodeId;

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
    /// The table was compiled for a different topology. Equal server
    /// counts are not enough: ABCCC(2,3,3) and ABCCC(4,1,2) both have 32
    /// servers but share no address layout.
    TopologyMismatch {
        /// Parameters the table was compiled for.
        table: AbcccParams,
        /// Parameters of the topology the service was given.
        topo: AbcccParams,
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
            FibError::TopologyMismatch { table, topo } => {
                write!(f, "table compiled for {table}, topology is {topo}")
            }
        }
    }
}

impl std::error::Error for FibError {}

/// Compiles [`DigitRouter`](abccc::DigitRouter) decisions into forwarding
/// tables.
#[derive(Debug, Clone, Copy)]
pub struct FibCompiler {
    strategy: PermStrategy,
}

impl FibCompiler {
    /// A compiler lowering `strategy`'s correction orders.
    pub fn new(strategy: PermStrategy) -> Self {
        FibCompiler { strategy }
    }

    /// The default compiler: [`PermStrategy::DestinationAware`], the
    /// shortest-path strategy and the one [`RouteService`](crate::RouteService)
    /// accepts.
    pub fn shortest() -> Self {
        FibCompiler::new(PermStrategy::DestinationAware)
    }

    /// Compiles the digit-structured table for `topo` in O(E) time and
    /// `O(V·levels + E)` memory.
    ///
    /// # Errors
    ///
    /// * [`FibError::UnsupportedStrategy`] — [`PermStrategy::Random`] has no
    ///   suffix-stable orders;
    /// * [`FibError::PortOverflow`] — a node degree exceeds the 16-bit port
    ///   field (not reachable for valid ABCCC parameters, checked anyway).
    pub fn compile(&self, topo: &Abccc) -> Result<HierFib, FibError> {
        crate::hier::compile(self.strategy, topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{DigitRouter, ServerAddr, SwitchAddr};
    use netgraph::Topology;

    /// The strategies with suffix-stable orders, i.e. every compilable one.
    const DETERMINISTIC: [PermStrategy; 5] = [
        PermStrategy::DestinationAware,
        PermStrategy::CyclicFromSource,
        PermStrategy::Ascending,
        PermStrategy::Descending,
        PermStrategy::Greedy,
    ];

    /// Small sizes covering crossbar groups (m > 1) and the BCube endpoint
    /// (m = 1, no crossbars).
    const SIZES: [(u32, u32, u32); 4] = [(2, 2, 2), (3, 1, 2), (2, 3, 3), (3, 1, 3)];

    fn topo(n: u32, k: u32, h: u32) -> Abccc {
        Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap()
    }

    /// The next-hop oracle, independent of the table and of the walk's
    /// level selection: the first two hops of `strategy.order`'s route out
    /// of `u` toward `d`, as ports.
    fn oracle_ports(t: &Abccc, strategy: PermStrategy, u: NodeId, d: NodeId) -> Option<(u16, u16)> {
        if u == d {
            return None;
        }
        let p = t.params();
        let net = t.network();
        let su = ServerAddr::from_node_id(p, u);
        let sd = ServerAddr::from_node_id(p, d);
        let (via, next) = match strategy.order(p, su, sd).first() {
            Some(&level) if su.pos == p.owner(level) => {
                // Correct the first digit through the owned level switch.
                let sw = SwitchAddr::Level {
                    level,
                    rest: su.label.rest_index(p, level),
                };
                let corrected = su.label.with_digit(p, level, sd.label.digit(p, level));
                (
                    sw.node_id(p),
                    ServerAddr::new(p, corrected, su.pos).node_id(p),
                )
            }
            // Reach the owner through the group crossbar first.
            Some(&level) => (
                SwitchAddr::Crossbar(su.label).node_id(p),
                ServerAddr::new(p, su.label, p.owner(level)).node_id(p),
            ),
            // Same label, different position: one crossbar hop finishes.
            None => (SwitchAddr::Crossbar(su.label).node_id(p), d),
        };
        let sport = net.port_of(u, via).expect("server adjacent to its switch");
        let wport = net.port_of(via, next).expect("switch adjacent to next");
        Some((sport as u16, wport as u16))
    }

    #[test]
    fn rejects_random_strategy() {
        let t = topo(2, 1, 2);
        let err = FibCompiler::new(PermStrategy::Random(7)).compile(&t);
        assert!(matches!(err, Err(FibError::UnsupportedStrategy { .. })));
        assert!(err.unwrap_err().to_string().contains("random"));
    }

    #[test]
    fn ports_match_the_order_oracle_exhaustively() {
        for (n, k, h) in SIZES {
            let t = topo(n, k, h);
            let servers = t.params().server_count() as u32;
            for strategy in DETERMINISTIC {
                let table = FibCompiler::new(strategy).compile(&t).unwrap();
                assert_eq!(table.strategy(), strategy);
                assert_eq!(table.params(), t.params());
                assert_eq!(table.servers(), servers);
                for s in 0..servers {
                    for d in 0..servers {
                        assert_eq!(
                            table.ports(NodeId(s), NodeId(d)),
                            oracle_ports(&t, strategy, NodeId(s), NodeId(d)),
                            "ABCCC({n},{k},{h}) {} {s}->{d}",
                            strategy.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn walks_match_on_demand_routes_for_every_deterministic_strategy() {
        for (n, k, h) in SIZES {
            let t = topo(n, k, h);
            let p = *t.params();
            let net = t.network();
            let healthy = netgraph::FaultMask::new(net);
            for strategy in DETERMINISTIC {
                let router = DigitRouter::new(strategy);
                let table = FibCompiler::new(strategy).compile(&t).unwrap();
                for s in 0..p.server_count() as u32 {
                    for d in 0..p.server_count() as u32 {
                        let walked = table.route(net, NodeId(s), NodeId(d));
                        let direct = router.route_addrs(
                            &p,
                            ServerAddr::from_node_id(&p, NodeId(s)),
                            ServerAddr::from_node_id(&p, NodeId(d)),
                        );
                        let at = format!("ABCCC({n},{k},{h}) {} {s}->{d}", strategy.label());
                        assert_eq!(walked, direct, "{at}");
                        let mut live = Vec::new();
                        assert!(
                            table.walk_live_into(net, &healthy, NodeId(s), NodeId(d), &mut live),
                            "{at}"
                        );
                        assert_eq!(live, direct.nodes(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn bcube_endpoint_has_no_crossbars_and_still_compiles() {
        let t = topo(3, 1, 3); // m = 1: no crossbars materialized
        let p = *t.params();
        let fib = FibCompiler::shortest().compile(&t).unwrap();
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
