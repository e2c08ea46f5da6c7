//! The unified routing surface: the [`Router`] trait.
//!
//! The crate historically grew four disconnected entry points
//! (`route_addrs`, `route_ids`, `route_vlb`, `route_avoiding`) with
//! different signatures, RNG plumbing and fault-mask conventions. Every
//! router now implements one trait:
//!
//! * [`DigitRouter`](crate::routing::DigitRouter) — deterministic
//!   digit-correction routing with a [`PermStrategy`](crate::PermStrategy);
//!   fault-oblivious (a mask only gates acceptance of the produced route);
//! * [`VlbRouter`](crate::vlb::VlbRouter) — Valiant load balancing through
//!   a per-pair seeded intermediate, deterministic and call-order
//!   independent;
//! * [`ResilientRouter`](crate::fault::ResilientRouter) — the escalating
//!   fault-tolerant scheme (deterministic permutations → randomized
//!   permutations → proxy detours → omniscient BFS), parameterized by a
//!   [`RetryBudget`](crate::fault::RetryBudget).
//!
//! Every route comes back as a [`RouteOutcome`] that records *which
//! escalation tier* produced it, how many candidates were examined and how
//! much deterministic backoff was accrued — the observables the resilience
//! campaign engine aggregates into degradation reports.
//!
//! The four original free functions (`route_addrs`, `route_ids`,
//! `route_vlb`, `route_avoiding`) lived on as `#[deprecated]` shims for one
//! release and are now gone; external implementations of the trait (e.g.
//! the compiled forwarding tables of `dcn-fib`) share the exact endpoint
//! and seeding semantics through [`check_endpoints`] and [`pair_seed`].

use crate::Abccc;
use netgraph::{FaultMask, NodeId, Route, RouteError, Topology};
use serde::{Deserialize, Serialize};

/// Which escalation tier produced a route (cheapest first).
///
/// [`DigitRouter`](crate::routing::DigitRouter) and
/// [`VlbRouter`](crate::vlb::VlbRouter) always answer from
/// [`RouteTier::Primary`]; the
/// [`ResilientRouter`](crate::fault::ResilientRouter) climbs the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteTier {
    /// The primary (destination-aware shortest-path) route was usable.
    Primary,
    /// Another deterministic permutation strategy succeeded.
    Deterministic,
    /// A randomized digit-correction permutation succeeded.
    RandomPerm,
    /// A detour through a random proxy server succeeded.
    Proxy,
    /// The omniscient BFS fallback on the surviving graph succeeded.
    Bfs,
}

impl RouteTier {
    /// Stable lowercase label (used in reports and telemetry).
    pub fn label(self) -> &'static str {
        match self {
            RouteTier::Primary => "primary",
            RouteTier::Deterministic => "deterministic",
            RouteTier::RandomPerm => "random_perm",
            RouteTier::Proxy => "proxy",
            RouteTier::Bfs => "bfs",
        }
    }
}

/// A routed path plus the cost accounting of finding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The usable route.
    pub route: Route,
    /// The escalation tier that produced it.
    pub tier: RouteTier,
    /// Candidate routes examined (including rejected ones).
    pub attempts: u32,
    /// Deterministic backoff accrued between escalation tiers, in abstract
    /// backoff units (see [`RetryBudget`](crate::fault::RetryBudget)); zero
    /// when the primary tier answered.
    pub backoff_units: u64,
}

impl RouteOutcome {
    /// Wraps a route that the primary tier produced on the first attempt.
    pub fn primary(route: Route) -> Self {
        RouteOutcome {
            route,
            tier: RouteTier::Primary,
            attempts: 1,
            backoff_units: 0,
        }
    }
}

/// The unified routing interface over a materialized [`Abccc`] network.
///
/// Implementations must be deterministic: the same router value, topology,
/// endpoints and mask yield the same [`RouteOutcome`] on every call.
pub trait Router {
    /// Human-readable router name for reports (e.g. `"resilient"`).
    fn name(&self) -> String;

    /// Routes `src → dst`, optionally under a fault mask.
    ///
    /// # Errors
    ///
    /// * [`RouteError::NotAServer`] — an endpoint is not a server id of the
    ///   topology;
    /// * [`RouteError::Unreachable`] — an endpoint is failed, or (for
    ///   complete routers) the pair is disconnected in the surviving graph;
    /// * [`RouteError::GaveUp`] — the router's budget was exhausted even
    ///   though the pair might be connected (fault-oblivious routers under
    ///   a mask, or a [`ResilientRouter`](crate::fault::ResilientRouter)
    ///   with its BFS fallback disabled).
    fn route(
        &self,
        topo: &Abccc,
        src: NodeId,
        dst: NodeId,
        mask: Option<&FaultMask>,
    ) -> Result<RouteOutcome, RouteError>;

    /// Convenience: the fault-free route alone, without cost accounting.
    ///
    /// # Errors
    ///
    /// Same contract as [`Router::route`].
    fn route_simple(&self, topo: &Abccc, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        Ok(self.route(topo, src, dst, None)?.route)
    }
}

/// Shared endpoint validation for every router: both ids name servers and
/// neither endpoint is failed under the mask.
///
/// Exposed so external [`Router`] implementations (the compiled forwarding
/// tables of `dcn-fib`) reproduce the in-crate routers bit for bit: same
/// error order (`src` checked before `dst`), same
/// [`RouteError::Unreachable`] on a dead endpoint, same telemetry counter.
///
/// # Errors
///
/// * [`RouteError::NotAServer`] — an endpoint is not a server id;
/// * [`RouteError::Unreachable`] — an endpoint is failed under `mask`.
pub fn check_endpoints(
    topo: &Abccc,
    src: NodeId,
    dst: NodeId,
    mask: Option<&FaultMask>,
) -> Result<(), RouteError> {
    // The network's stored count: `AbcccParams::server_count` recomputes
    // the label space on every call, and every lookup passes through here.
    let servers = topo.network().server_count();
    if src.index() >= servers {
        return Err(RouteError::NotAServer(src));
    }
    if dst.index() >= servers {
        return Err(RouteError::NotAServer(dst));
    }
    if let Some(m) = mask {
        if !m.node_alive(src) || !m.node_alive(dst) {
            dcn_telemetry::counter!("abccc.fault.endpoint_failed").inc();
            return Err(RouteError::Unreachable { src, dst });
        }
    }
    Ok(())
}

/// Mixes a pair of endpoints into a router seed: distinct pairs get
/// decorrelated, deterministic streams. Public so alternative data planes
/// can reproduce [`VlbRouter`](crate::vlb::VlbRouter)-style per-pair
/// streams exactly.
pub fn pair_seed(seed: u64, src: NodeId, dst: NodeId) -> u64 {
    seed ^ (u64::from(src.0) << 32) ^ u64::from(dst.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ResilientRouter;
    use crate::routing::DigitRouter;
    use crate::vlb::VlbRouter;
    use crate::AbcccParams;
    use netgraph::Topology;

    fn topo() -> Abccc {
        Abccc::new(AbcccParams::new(3, 2, 2).unwrap()).unwrap()
    }

    #[test]
    fn tier_labels_are_ordered_and_stable() {
        assert!(RouteTier::Primary < RouteTier::Bfs);
        assert_eq!(RouteTier::RandomPerm.label(), "random_perm");
    }

    #[test]
    fn routers_are_object_safe_and_agree_fault_free() {
        let t = topo();
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(DigitRouter::shortest()),
            Box::new(VlbRouter::new(7)),
            Box::new(ResilientRouter::default()),
        ];
        let (a, b) = (NodeId(0), NodeId((t.params().server_count() - 1) as u32));
        for r in &routers {
            let out = r.route(&t, a, b, None).unwrap();
            out.route.validate(t.network(), None).unwrap();
            assert_eq!(out.route.src(), a);
            assert_eq!(out.route.dst(), b);
            assert_eq!(out.tier, RouteTier::Primary, "{}", r.name());
            assert_eq!(out.backoff_units, 0);
        }
    }

    #[test]
    fn every_router_rejects_switch_endpoints() {
        let t = topo();
        let sw = NodeId(t.params().server_count() as u32);
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(DigitRouter::shortest()),
            Box::new(VlbRouter::new(0)),
            Box::new(ResilientRouter::default()),
        ];
        for r in &routers {
            assert!(matches!(
                r.route(&t, sw, NodeId(0), None),
                Err(RouteError::NotAServer(_))
            ));
            assert!(matches!(
                r.route(&t, NodeId(0), sw, None),
                Err(RouteError::NotAServer(_))
            ));
        }
    }

    #[test]
    fn route_simple_strips_accounting() {
        let t = topo();
        let r = DigitRouter::shortest();
        let simple = r.route_simple(&t, NodeId(0), NodeId(5)).unwrap();
        let full = r.route(&t, NodeId(0), NodeId(5), None).unwrap();
        assert_eq!(simple, full.route);
    }
}
