//! The [`FaultScenario`] builder — the one way to construct a
//! [`FaultMask`].
//!
//! Before this module every experiment hand-rolled its own mask-poking
//! loop (`for s in servers.choose_multiple(..) { mask.fail_node(*s) }`),
//! each with its own sampling convention and seed plumbing. The builder
//! centralizes those conventions:
//!
//! * **fractional failures** fail exactly `round(frac · population)`
//!   uniformly chosen elements of a class — the convention every bench
//!   already used;
//! * **explicit failures** take node/link sets computed by the caller
//!   (e.g. an ABCCC crossbar group resolved through the addressing
//!   layer);
//! * **correlated switch-group failures** take down the named switches
//!   *and every cable incident to them* — the power-feed/cage-loss model
//!   where restoring the switch alone would not bring the cage back;
//! * **seeding** is explicit: [`FaultScenario::seeded`] fixes the random
//!   stream so an identical builder chain yields a bit-identical mask.
//!
//! ```
//! use netgraph::{FaultScenario, Network};
//! let mut net = Network::new();
//! let s: Vec<_> = (0..8).map(|_| net.add_server()).collect();
//! let sw = net.add_switch();
//! for &v in &s {
//!     net.add_link(v, sw, 1.0);
//! }
//! let mask = FaultScenario::seeded(7)
//!     .fail_servers_frac(0.25)
//!     .fail_links_frac(0.25)
//!     .build(&net);
//! assert_eq!(mask.failed_node_count(), 2);
//! assert_eq!(mask.failed_link_count(), 2);
//! // Identical chain + seed ⇒ identical mask.
//! let again = netgraph::FaultScenario::seeded(7)
//!     .fail_servers_frac(0.25)
//!     .fail_links_frac(0.25)
//!     .build(&net);
//! assert_eq!(mask, again);
//! ```

use crate::{FaultMask, LinkId, Network, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One recorded builder step, applied in insertion order by
/// [`FaultScenario::build`].
#[derive(Debug, Clone, PartialEq)]
enum ScenarioOp {
    /// Fail `round(frac · servers)` uniformly chosen servers.
    ServersFrac(f64),
    /// Fail `round(frac · switches)` uniformly chosen switches.
    SwitchesFrac(f64),
    /// Fail `round(frac · links)` uniformly chosen links.
    LinksFrac(f64),
    /// Fail exactly these nodes.
    Nodes(Vec<NodeId>),
    /// Fail exactly these links.
    Links(Vec<LinkId>),
    /// Correlated loss: fail these switches and every incident link.
    SwitchGroup(Vec<NodeId>),
}

/// Declarative, seedable recipe for a [`FaultMask`].
///
/// Build a chain of failure operations, then materialize it against a
/// concrete [`Network`] with [`FaultScenario::build`], which draws from a
/// fresh RNG seeded from the recorded seed, so a mask is a function of the
/// chain, the seed and the network alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    seed: u64,
    ops: Vec<ScenarioOp>,
}

impl FaultScenario {
    /// Starts an empty scenario whose random draws derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultScenario {
            seed,
            ops: Vec::new(),
        }
    }

    /// Fails `round(frac · server_count)` uniformly chosen servers.
    #[must_use]
    pub fn fail_servers_frac(mut self, frac: f64) -> Self {
        self.ops.push(ScenarioOp::ServersFrac(frac));
        self
    }

    /// Fails `round(frac · switch_count)` uniformly chosen switches.
    #[must_use]
    pub fn fail_switches_frac(mut self, frac: f64) -> Self {
        self.ops.push(ScenarioOp::SwitchesFrac(frac));
        self
    }

    /// Fails `round(frac · link_count)` uniformly chosen links.
    #[must_use]
    pub fn fail_links_frac(mut self, frac: f64) -> Self {
        self.ops.push(ScenarioOp::LinksFrac(frac));
        self
    }

    /// Fails exactly the given nodes (servers or switches).
    #[must_use]
    pub fn fail_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.ops
            .push(ScenarioOp::Nodes(nodes.into_iter().collect()));
        self
    }

    /// Fails exactly the given links.
    #[must_use]
    pub fn fail_links(mut self, links: impl IntoIterator<Item = LinkId>) -> Self {
        self.ops
            .push(ScenarioOp::Links(links.into_iter().collect()));
        self
    }

    /// Correlated group loss: fails the given switches **and every link
    /// incident to them**, modelling a shared power feed or cage failure
    /// where the cables die with the switch (and do not come back if the
    /// switch node alone is restored).
    #[must_use]
    pub fn fail_switch_group(mut self, switches: impl IntoIterator<Item = NodeId>) -> Self {
        self.ops
            .push(ScenarioOp::SwitchGroup(switches.into_iter().collect()));
        self
    }

    /// `true` if no operation was recorded (the mask will be all-alive).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Materializes the scenario against `net` using a fresh RNG seeded
    /// from the recorded seed. Identical scenario + network ⇒ identical
    /// mask, regardless of what else the process has sampled.
    ///
    /// # Panics
    ///
    /// Panics if any recorded fraction is outside `[0, 1]`, or if an
    /// explicit node/link id is out of range for `net` (including a
    /// non-switch id passed to [`FaultScenario::fail_switch_group`]).
    pub fn build(&self, net: &Network) -> FaultMask {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut mask = FaultMask::new(net);
        for op in &self.ops {
            match op {
                ScenarioOp::ServersFrac(f) => {
                    let pop: Vec<NodeId> = net.server_ids().collect();
                    for &n in choose_fraction(&pop, *f, "server fraction", &mut rng) {
                        mask.fail_node(n);
                    }
                }
                ScenarioOp::SwitchesFrac(f) => {
                    let pop: Vec<NodeId> = net.switch_ids().collect();
                    for &n in choose_fraction(&pop, *f, "switch fraction", &mut rng) {
                        mask.fail_node(n);
                    }
                }
                ScenarioOp::LinksFrac(f) => {
                    let pop: Vec<LinkId> = (0..net.link_count() as u32).map(LinkId).collect();
                    for &l in choose_fraction(&pop, *f, "link fraction", &mut rng) {
                        mask.fail_link(l);
                    }
                }
                ScenarioOp::Nodes(nodes) => {
                    for &n in nodes {
                        assert!(n.index() < net.node_count(), "node {n} out of range");
                        mask.fail_node(n);
                    }
                }
                ScenarioOp::Links(links) => {
                    for &l in links {
                        assert!(l.index() < net.link_count(), "link {l} out of range");
                        mask.fail_link(l);
                    }
                }
                ScenarioOp::SwitchGroup(switches) => {
                    for &sw in switches {
                        assert!(
                            sw.index() < net.node_count() && !net.is_server(sw),
                            "switch-group member {sw} is not a switch of this network"
                        );
                        mask.fail_node(sw);
                        for &(_, l) in net.neighbors(sw) {
                            mask.fail_link(l);
                        }
                    }
                }
            }
        }
        mask
    }
}

/// `round(frac · pop.len())` members of `pop`, chosen uniformly. The
/// choice depends only on the population's length and the RNG stream.
fn choose_fraction<'p, T>(
    pop: &'p [T],
    frac: f64,
    what: &str,
    rng: &mut StdRng,
) -> impl Iterator<Item = &'p T> {
    assert!(
        (0.0..=1.0).contains(&frac),
        "{what} must be in [0,1], got {frac}"
    );
    let kill = (frac * pop.len() as f64).round() as usize;
    pop.choose_multiple(rng, kill)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `servers` servers on one switch.
    fn star(servers: usize) -> Network {
        let mut net = Network::new();
        let s: Vec<_> = (0..servers).map(|_| net.add_server()).collect();
        let sw = net.add_switch();
        for &v in &s {
            net.add_link(v, sw, 1.0);
        }
        net
    }

    #[test]
    fn fractional_counts_are_exact() {
        let net = star(20);
        let mask = FaultScenario::seeded(1).fail_servers_frac(0.25).build(&net);
        assert_eq!(mask.failed_node_count(), 5);
        assert_eq!(mask.failed_link_count(), 0);
    }

    #[test]
    fn same_seed_same_mask_different_seed_differs() {
        let net = star(40);
        let chain = |seed| -> FaultMask {
            FaultScenario::seeded(seed)
                .fail_servers_frac(0.5)
                .build(&net)
        };
        assert_eq!(chain(9), chain(9));
        assert_ne!(chain(9), chain(10));
    }

    #[test]
    fn explicit_sets_and_order_compose() {
        let net = star(4);
        let sw = net.switch_ids().next().unwrap();
        let mask = FaultScenario::seeded(0)
            .fail_nodes([NodeId(0)])
            .fail_links([LinkId(1)])
            .fail_switch_group([sw])
            .build(&net);
        assert!(!mask.node_alive(NodeId(0)));
        assert!(!mask.link_alive(LinkId(1)));
        assert!(!mask.node_alive(sw));
        // Group loss took every link of the star down with the switch.
        assert_eq!(mask.failed_link_count(), net.link_count());
    }

    #[test]
    fn switch_fraction_never_hits_servers() {
        let net = star(10);
        let mask = FaultScenario::seeded(3).fail_switches_frac(1.0).build(&net);
        assert_eq!(mask.failed_node_count(), 1);
        for s in net.server_ids() {
            assert!(mask.node_alive(s));
        }
    }

    #[test]
    fn empty_scenario_is_all_alive() {
        let net = star(5);
        let sc = FaultScenario::seeded(11);
        assert!(sc.is_empty());
        let mask = sc.build(&net);
        assert_eq!(mask, FaultMask::new(&net));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_fraction_panics() {
        let net = star(4);
        FaultScenario::seeded(0).fail_links_frac(1.5).build(&net);
    }

    #[test]
    #[should_panic(expected = "is not a switch")]
    fn server_in_switch_group_panics() {
        let net = star(4);
        FaultScenario::seeded(0)
            .fail_switch_group([NodeId(0)])
            .build(&net);
    }
}
