//! The fluid (flow-level) fidelity backend.
//!
//! [`FlowSim`] is the classic one-shot driver: route every pair, hand the
//! flow set to the max-min allocator, report steady-state rates. It is an
//! allocator, not an event loop — the event-driven fluid backend in
//! [`crate::engine`] calls the same [`max_min_allocation`] whenever the
//! active-flow set changes (arrival, completion, fault), so both views
//! share one rate model.

use crate::{max_min_allocation, DirectedLink};
use netgraph::{NodeId, RouteError, Topology};
use serde::{Deserialize, Serialize};

/// Flow-level simulator bound to one topology.
#[derive(Debug, Clone, Copy)]
pub struct FlowSim<'a, T: Topology + ?Sized> {
    topo: &'a T,
}

impl<'a, T: Topology + ?Sized> FlowSim<'a, T> {
    /// Creates a simulator over `topo`.
    pub fn new(topo: &'a T) -> Self {
        FlowSim { topo }
    }

    /// Routes every pair with the family's native algorithm and computes
    /// the max-min fair allocation.
    ///
    /// # Errors
    ///
    /// Propagates the first routing failure (fault-free networks never
    /// fail to route).
    pub fn run(&self, pairs: &[(NodeId, NodeId)]) -> Result<FlowSimReport, RouteError> {
        let _span = dcn_telemetry::span!("flowsim.run");
        let _run_timer = dcn_telemetry::histogram!("flowsim.run_ns").start_timer();
        dcn_telemetry::counter!("flowsim.runs").inc();
        let net = self.topo.network();
        let mut flows: Vec<Vec<DirectedLink>> = Vec::with_capacity(pairs.len());
        let mut hops = Vec::with_capacity(pairs.len());
        for &(s, d) in pairs {
            let route = self.topo.route(s, d)?;
            hops.push(route.server_hops(net) as f64);
            flows.push(DirectedLink::of_route(net, &route));
        }
        dcn_telemetry::counter!("flowsim.flows_routed").add(flows.len() as u64);
        let rates = max_min_allocation(net, &flows);
        Ok(self.report(rates, &hops))
    }

    /// Multipath variant: every pair is split across up to `paths` of the
    /// family's internally-disjoint parallel routes; each subflow gets its
    /// own max-min share and the flow's rate is their sum (idealized
    /// MPTCP-style striping).
    ///
    /// # Errors
    ///
    /// Propagates the first routing failure.
    pub fn run_multipath(
        &self,
        pairs: &[(NodeId, NodeId)],
        paths: usize,
    ) -> Result<FlowSimReport, RouteError> {
        let _span = dcn_telemetry::span!("flowsim.run_multipath");
        let _run_timer = dcn_telemetry::histogram!("flowsim.run_ns").start_timer();
        dcn_telemetry::counter!("flowsim.runs").inc();
        let net = self.topo.network();
        let mut subflows: Vec<Vec<DirectedLink>> = Vec::new();
        let mut owner: Vec<usize> = Vec::new(); // subflow → pair index
        let mut hops = Vec::with_capacity(pairs.len());
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let routes = self.topo.parallel_routes(s, d, paths)?;
            let mut pair_hops = 0usize;
            for r in &routes {
                pair_hops = pair_hops.max(r.server_hops(net));
                subflows.push(DirectedLink::of_route(net, r));
                owner.push(i);
            }
            hops.push(pair_hops as f64);
        }
        let sub_rates = max_min_allocation(net, &subflows);
        let mut rates = vec![0.0f64; pairs.len()];
        for (rate, &o) in sub_rates.iter().zip(&owner) {
            if rate.is_finite() {
                rates[o] += rate;
            } else {
                rates[o] = f64::INFINITY;
            }
        }
        Ok(self.report(rates, &hops))
    }

    /// Summarizes per-pair `rates` (∞ for a self-pair) and the server hops
    /// of each routed pair.
    fn report(&self, rates: Vec<f64>, hops: &[f64]) -> FlowSimReport {
        let finite: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
        let aggregate = finite.iter().sum::<f64>();
        let min_rate = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let flows_n = finite.len();
        FlowSimReport {
            topology: self.topo.name(),
            flows: flows_n,
            unroutable: 0,
            aggregate_rate: aggregate,
            min_rate: if flows_n == 0 { 0.0 } else { min_rate },
            mean_rate: if flows_n == 0 {
                0.0
            } else {
                aggregate / flows_n as f64
            },
            abt: if flows_n == 0 {
                0.0
            } else {
                min_rate * flows_n as f64
            },
            mean_hops: if hops.is_empty() {
                0.0
            } else {
                hops.iter().sum::<f64>() / hops.len() as f64
            },
            rates,
        }
    }
}

/// Result of one flow-level simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSimReport {
    /// Topology name.
    pub topology: String,
    /// Flows that were routed (excludes self-pairs).
    pub flows: usize,
    /// Pairs dropped for want of a route. Always 0: a pair that cannot be
    /// routed fails the run instead. Kept so the report's JSON (the output
    /// of `simulate --json` and `trace --json`) keeps its fields.
    pub unroutable: usize,
    /// Σ rates (network throughput, link-capacity units).
    pub aggregate_rate: f64,
    /// Worst flow rate.
    pub min_rate: f64,
    /// Mean flow rate.
    pub mean_rate: f64,
    /// Aggregate bottleneck throughput `flows × min_rate` (the BCube-paper
    /// metric: total goodput of an all-flows-equal-size job).
    pub abt: f64,
    /// Mean path length (server hops) over routed flows.
    pub mean_hops: f64,
    /// Per-flow rates in input order (∞ for self-pairs).
    pub rates: Vec<f64>,
}

impl FlowSimReport {
    /// Jain's fairness index over the finite per-flow rates:
    /// `(Σx)² / (n·Σx²)` — 1.0 is perfectly fair, `1/n` maximally unfair.
    /// Returns 1.0 for an empty flow set.
    pub fn fairness_index(&self) -> f64 {
        let finite: Vec<f64> = self
            .rates
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .collect();
        if finite.is_empty() {
            return 1.0;
        }
        let sum: f64 = finite.iter().sum();
        let sq: f64 = finite.iter().map(|r| r * r).sum();
        if sq == 0.0 {
            return 1.0;
        }
        sum * sum / (finite.len() as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{Abccc, AbcccParams};
    use rand::SeedableRng;

    fn topo() -> Abccc {
        Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap() // 24 servers
    }

    #[test]
    fn permutation_throughput_positive() {
        let t = topo();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pairs =
            dcn_workloads::traffic::random_permutation(t.network().server_count(), &mut rng);
        let report = FlowSim::new(&t).run(&pairs).unwrap();
        assert_eq!(report.flows, 24);
        assert!(report.min_rate > 0.0);
        assert!(report.aggregate_rate >= report.abt - 1e-9);
        assert!(report.mean_hops > 0.0);
    }

    #[test]
    fn self_pair_is_infinite_and_excluded() {
        let t = topo();
        let pairs = [(NodeId(0), NodeId(0)), (NodeId(0), NodeId(1))];
        let report = FlowSim::new(&t).run(&pairs).unwrap();
        assert!(report.rates[0].is_infinite());
        assert_eq!(report.flows, 1);
    }

    #[test]
    fn incast_is_fair() {
        let t = topo();
        let sink = NodeId(0);
        let pairs: Vec<_> = (1..5).map(|i| (NodeId(i), sink)).collect();
        let report = FlowSim::new(&t).run(&pairs).unwrap();
        // Sink has 2 NIC ports ⇒ aggregate into it ≤ 2.0.
        assert!(report.aggregate_rate <= 2.0 + 1e-9);
        assert!(report.min_rate > 0.0);
    }

    #[test]
    fn lone_flow_doubles_over_disjoint_paths() {
        // A single bulk flow is NIC-limited to 1 Gbps on one path; striping
        // over the two disjoint paths of a dual-port server doubles it.
        let t = topo();
        let pairs = [(NodeId(0), NodeId(23))];
        let single = FlowSim::new(&t).run(&pairs).unwrap();
        assert!((single.rates[0] - 1.0).abs() < 1e-9);
        let multi = FlowSim::new(&t).run_multipath(&pairs, 2).unwrap();
        assert!((multi.rates[0] - 2.0).abs() < 1e-9, "{}", multi.rates[0]);
    }

    #[test]
    fn fairness_index_bounds_and_extremes() {
        let t = topo();
        // Symmetric pair of flows → perfectly fair.
        let pairs = [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))];
        let report = FlowSim::new(&t).run(&pairs).unwrap();
        assert!((report.fairness_index() - 1.0).abs() < 1e-9);
        // Any allocation stays within [1/n, 1].
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let perm = dcn_workloads::traffic::random_permutation(24, &mut rng);
        let r2 = FlowSim::new(&t).run(&perm).unwrap();
        let f = r2.fairness_index();
        assert!(f > 1.0 / 24.0 && f <= 1.0 + 1e-9, "{f}");
    }

    #[test]
    fn multipath_keeps_flow_count_and_positive_rates() {
        let t = topo();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let pairs =
            dcn_workloads::traffic::random_permutation(t.network().server_count(), &mut rng);
        let single = FlowSim::new(&t).run(&pairs).unwrap();
        let multi = FlowSim::new(&t).run_multipath(&pairs, 2).unwrap();
        assert_eq!(multi.flows, single.flows);
        assert!(multi.min_rate > 0.0);
    }

    #[test]
    fn multipath_with_one_path_close_to_single() {
        // want = 1 uses only the primary route ⇒ identical allocation.
        let t = topo();
        let pairs = [(NodeId(0), NodeId(23)), (NodeId(5), NodeId(17))];
        let single = FlowSim::new(&t).run(&pairs).unwrap();
        let multi = FlowSim::new(&t).run_multipath(&pairs, 1).unwrap();
        assert_eq!(single.rates, multi.rates);
    }

    #[test]
    fn rejects_switch_endpoint() {
        let t = topo();
        let sw = NodeId(t.params().server_count() as u32);
        assert!(FlowSim::new(&t).run(&[(sw, NodeId(0))]).is_err());
    }
}
