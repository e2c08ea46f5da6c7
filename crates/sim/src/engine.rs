//! The traffic engine: one seeded discrete-event core, two fidelity
//! backends.
//!
//! [`TrafficEngine::run`] executes a [`Scenario`] on a topology:
//!
//! * **fluid** — flows are rates; the active set's max-min fair
//!   allocation is recomputed on every arrival, completion, and fault
//!   event, and completions are scheduled as events (epoch-tagged so a
//!   rate change invalidates stale predictions);
//! * **packet** — the unified store-and-forward loop in [`crate::packet`].
//!
//! Both backends route through the topology's own algorithms:
//! [`Topology::route`] while the network is healthy and
//! [`Topology::route_avoiding`] once a fault has fired. Fault timelines
//! fire *mid-flow*: in-flight traffic on dead gear is lost, survivors
//! reroute around the failures, flows with no surviving path are killed
//! and accounted.

use crate::maxmin::{max_min_allocation, DirectedLink};
use crate::packet::{run_packet, PacketFlow};
use crate::queue::EventQueue;
use crate::report::{FctSummary, FlowResult, ScenarioReport};
use crate::scenario::{Fidelity, Scenario};
use crate::FlowSpec;
use dcn_telemetry::HdrHistogram;
use netgraph::{FaultMask, NodeId, Route, RouteError, Topology};
use std::fmt;

/// The plane label every report carries: scenarios route on the
/// topology's native algorithms.
const PLANE: &str = "native";

/// Engine-level failure.
#[derive(Debug)]
pub enum EngineError {
    /// A routing error escaped the lenient handling (should not happen
    /// for server-to-server scenario flows).
    Route(RouteError),
    /// The fluid backend found an active flow with zero allocated rate
    /// (a zero-capacity link), which would never complete.
    Stalled {
        /// The scenario that stalled.
        scenario: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Route(e) => write!(f, "routing failed: {e}"),
            EngineError::Stalled { scenario } => {
                write!(
                    f,
                    "scenario {scenario:?} stalled: active flow with zero rate"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RouteError> for EngineError {
    fn from(e: RouteError) -> Self {
        EngineError::Route(e)
    }
}

/// The unified traffic engine over one topology.
pub struct TrafficEngine<'a> {
    topo: &'a dyn Topology,
}

impl<'a> TrafficEngine<'a> {
    /// An engine routing on the topology's own algorithms.
    pub fn new(topo: &'a dyn Topology) -> Self {
        TrafficEngine { topo }
    }

    /// Builds the scenario's cumulative fault-mask timeline: one mask per
    /// injection, each containing every earlier failure, sorted by time.
    fn build_faults(&self, scenario: &Scenario) -> Vec<(u64, FaultMask)> {
        let net = self.topo.network();
        let mut inj: Vec<_> = scenario.faults.iter().collect();
        inj.sort_by_key(|f| f.at_ns);
        let mut out: Vec<(u64, FaultMask)> = Vec::with_capacity(inj.len());
        for f in inj {
            let mut mask = f.scenario.build(net);
            if let Some((_, prev)) = out.last() {
                for n in prev.failed_nodes() {
                    mask.fail_node(n);
                }
                for l in prev.failed_links() {
                    mask.fail_link(l);
                }
            }
            out.push((f.at_ns, mask));
        }
        out
    }

    /// Runs one scenario to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError::Stalled`] when the fluid backend meets a zero-rate
    /// active flow.
    pub fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, EngineError> {
        let _span = dcn_telemetry::span!("dcn_sim.engine.run");
        let _timer = dcn_telemetry::histogram!("dcn_sim.scenario_ns").start_timer();
        dcn_telemetry::counter!("dcn_sim.scenarios").inc();
        let faults = self.build_faults(scenario);
        let mut resolve =
            |s: NodeId, d: NodeId, m: Option<&FaultMask>| -> Result<Route, RouteError> {
                match m {
                    None => self.topo.route(s, d),
                    Some(mask) => self.topo.route_avoiding(s, d, mask),
                }
            };
        match &scenario.fidelity {
            Fidelity::Fluid => self.run_fluid(scenario, &faults, &mut resolve),
            Fidelity::Packet { config, transport } => {
                self.run_packet_scenario(scenario, &faults, *config, *transport, &mut resolve)
            }
        }
    }

    /// The packet-fidelity adapter: scenario flows → packet trains, run
    /// through the unified loop, accounted in bytes.
    fn run_packet_scenario(
        &self,
        scenario: &Scenario,
        faults: &[(u64, FaultMask)],
        config: crate::PacketSimConfig,
        transport: crate::scenario::Transport,
        resolve: &mut crate::packet::Resolver<'_>,
    ) -> Result<ScenarioReport, EngineError> {
        let net = self.topo.network();
        let pb = u64::from(config.packet_bytes);
        let pflows: Vec<PacketFlow> = scenario
            .flows
            .iter()
            .map(|f| PacketFlow {
                spec: FlowSpec {
                    src: f.src,
                    dst: f.dst,
                    packets: f.bytes.div_ceil(pb).max(1),
                    start_ns: f.start_ns,
                    gap_ns: f.gap_ns,
                },
                phase: f.phase,
            })
            .collect();
        let stats = run_packet(net, resolve, &pflows, config, transport, faults, false)?;
        let mut fct_hist = HdrHistogram::new();
        let mut per_flow = Vec::with_capacity(pflows.len());
        let mut completed = 0usize;
        for (i, st) in stats.flows.iter().enumerate() {
            let sf = &scenario.flows[i];
            let complete = st.delivered == st.offered && st.offered > 0;
            let fct = if complete {
                let f = st.completion_ns.saturating_sub(st.activated_ns);
                fct_hist.record(f);
                completed += 1;
                Some(f)
            } else {
                None
            };
            per_flow.push(FlowResult {
                src: sf.src,
                dst: sf.dst,
                phase: sf.phase,
                offered_bytes: st.offered * pb,
                delivered_bytes: st.delivered * pb,
                dropped_bytes: st.dropped * pb,
                killed_bytes: st.killed * pb,
                fct_ns: fct,
                dead: st.dead,
            });
        }
        let bytes_delivered: u64 = per_flow.iter().map(|f| f.delivered_bytes).sum();
        let makespan = stats.last_delivery;
        Ok(ScenarioReport {
            scenario: scenario.name.clone(),
            topology: self.topo.name(),
            fidelity: scenario.fidelity.label().into(),
            plane: PLANE.into(),
            flows: per_flow.len(),
            completed,
            unroutable: stats.unroutable,
            phases: scenario.phase_count(),
            faults_fired: stats.faults_fired,
            bytes_offered: per_flow.iter().map(|f| f.offered_bytes).sum(),
            bytes_delivered,
            bytes_dropped: per_flow.iter().map(|f| f.dropped_bytes).sum(),
            bytes_killed: per_flow.iter().map(|f| f.killed_bytes).sum(),
            makespan_ns: makespan,
            goodput_gbps: if makespan == 0 {
                0.0
            } else {
                bytes_delivered as f64 * 8.0 / makespan as f64
            },
            fct: FctSummary::of(&fct_hist),
            per_flow,
        })
    }

    /// The fluid backend: an event-driven max-min rate simulation.
    fn run_fluid(
        &self,
        scenario: &Scenario,
        faults: &[(u64, FaultMask)],
        resolve: &mut crate::packet::Resolver<'_>,
    ) -> Result<ScenarioReport, EngineError> {
        let net = self.topo.network();
        let n = scenario.flows.len();
        let n_phases = scenario.phase_count();

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            /// Fault `idx` fires.
            Fault(u32),
            /// Flow arrives and starts transmitting.
            Arrival(u32),
            /// Flow predicted complete under rate epoch `.1`.
            Completion(u32, u64),
        }

        struct Flow {
            remaining_bits: f64,
            arrival_ns: u64,
            path: Vec<DirectedLink>,
            active: bool,
            terminal: bool,
            dead: bool,
            delivered_bytes: u64,
            killed_bytes: u64,
            fct_ns: Option<u64>,
        }

        let mut flows: Vec<Flow> = scenario
            .flows
            .iter()
            .map(|_| Flow {
                remaining_bits: 0.0,
                arrival_ns: 0,
                path: Vec::new(),
                active: false,
                terminal: false,
                dead: false,
                delivered_bytes: 0,
                killed_bytes: 0,
                fct_ns: None,
            })
            .collect();
        let mut phase_open: Vec<usize> = vec![0; n_phases as usize];
        for f in &scenario.flows {
            phase_open[f.phase as usize] += 1;
        }

        let mut q: EventQueue<Ev> = EventQueue::new();
        for (i, f) in faults.iter().enumerate() {
            q.push(f.0, Ev::Fault(i as u32));
        }
        for (i, f) in scenario.flows.iter().enumerate() {
            if f.phase == 0 {
                q.push(f.start_ns, Ev::Arrival(i as u32));
            }
        }

        let mut rates: Vec<f64> = vec![0.0; n];
        let mut epoch = 0u64;
        let mut last_t = 0u64;
        let mut cur_mask: Option<&FaultMask> = None;
        let mut cur_phase: u16 = 0;
        let mut unroutable = 0usize;
        let mut faults_fired = 0usize;
        let mut makespan = 0u64;
        let mut fct_hist = HdrHistogram::new();
        let mut completed = 0usize;

        // Retires flow `fi`; opens later phases when its phase drains.
        // Returns arrivals to schedule as `(time, flow)` — pushed by the
        // caller to keep borrows simple.
        #[allow(clippy::too_many_arguments)]
        fn retire(
            fi: usize,
            now: u64,
            scenario: &Scenario,
            flows: &mut [Flow],
            phase_open: &mut [usize],
            cur_phase: &mut u16,
            q: &mut EventQueue<Ev>,
            n_phases: u16,
        ) {
            if flows[fi].terminal {
                return;
            }
            flows[fi].terminal = true;
            flows[fi].active = false;
            let p = scenario.flows[fi].phase;
            phase_open[p as usize] -= 1;
            if p == *cur_phase {
                while *cur_phase + 1 < n_phases && phase_open[*cur_phase as usize] == 0 {
                    *cur_phase += 1;
                    for (i, f) in scenario.flows.iter().enumerate() {
                        if f.phase == *cur_phase {
                            q.push(now + f.start_ns, Ev::Arrival(i as u32));
                        }
                    }
                }
            }
        }

        while let Some((now, _, ev)) = q.pop() {
            // Advance transmission progress to `now` under current rates.
            let elapsed = (now - last_t) as f64;
            if elapsed > 0.0 {
                for (fi, f) in flows.iter_mut().enumerate() {
                    if f.active {
                        f.remaining_bits = (f.remaining_bits - rates[fi] * elapsed).max(0.0);
                    }
                }
            }
            last_t = now;

            // Process every event at this timestamp, then recompute rates
            // once.
            let mut batch = vec![ev];
            while q.peek_key().is_some_and(|(t, _)| t == now) {
                let (_, _, e) = q.pop().expect("peeked");
                batch.push(e);
            }
            let mut changed = false;
            for ev in batch {
                match ev {
                    Ev::Fault(k) => {
                        let mask = &faults[k as usize].1;
                        cur_mask = Some(mask);
                        faults_fired += 1;
                        changed = true;
                        for fi in 0..n {
                            if !flows[fi].active {
                                continue;
                            }
                            let usable = flows[fi]
                                .path
                                .iter()
                                .all(|dl| mask.edge_usable(net, dl.link));
                            if usable {
                                continue;
                            }
                            let sf = &scenario.flows[fi];
                            match resolve(sf.src, sf.dst, Some(mask)) {
                                Ok(r) => {
                                    flows[fi].path = DirectedLink::of_route(net, &r);
                                }
                                Err(_) => {
                                    // Killed mid-flow: account partial
                                    // progress, lose the rest.
                                    let f = &mut flows[fi];
                                    let rem_bytes =
                                        ((f.remaining_bits / 8.0).ceil() as u64).min(sf.bytes);
                                    f.killed_bytes = rem_bytes;
                                    f.delivered_bytes = sf.bytes - rem_bytes;
                                    f.dead = true;
                                    unroutable += 1;
                                    makespan = makespan.max(now);
                                    retire(
                                        fi,
                                        now,
                                        scenario,
                                        &mut flows,
                                        &mut phase_open,
                                        &mut cur_phase,
                                        &mut q,
                                        n_phases,
                                    );
                                }
                            }
                        }
                    }
                    Ev::Arrival(fi) => {
                        let fi = fi as usize;
                        let sf = &scenario.flows[fi];
                        flows[fi].arrival_ns = now;
                        changed = true;
                        if sf.src == sf.dst {
                            // Degenerate self-flow: completes instantly.
                            flows[fi].delivered_bytes = sf.bytes;
                            flows[fi].fct_ns = Some(0);
                            fct_hist.record(0);
                            completed += 1;
                            makespan = makespan.max(now);
                            retire(
                                fi,
                                now,
                                scenario,
                                &mut flows,
                                &mut phase_open,
                                &mut cur_phase,
                                &mut q,
                                n_phases,
                            );
                            continue;
                        }
                        match resolve(sf.src, sf.dst, cur_mask) {
                            Ok(r) => {
                                let f = &mut flows[fi];
                                f.path = DirectedLink::of_route(net, &r);
                                f.remaining_bits = sf.bytes as f64 * 8.0;
                                f.active = true;
                            }
                            Err(_) => {
                                let f = &mut flows[fi];
                                f.killed_bytes = sf.bytes;
                                f.dead = true;
                                unroutable += 1;
                                retire(
                                    fi,
                                    now,
                                    scenario,
                                    &mut flows,
                                    &mut phase_open,
                                    &mut cur_phase,
                                    &mut q,
                                    n_phases,
                                );
                            }
                        }
                    }
                    Ev::Completion(fi, ev_epoch) => {
                        let fi = fi as usize;
                        if ev_epoch != epoch || !flows[fi].active {
                            continue; // stale prediction
                        }
                        let sf = &scenario.flows[fi];
                        let f = &mut flows[fi];
                        f.remaining_bits = 0.0;
                        f.delivered_bytes = sf.bytes;
                        let fct = now - f.arrival_ns;
                        f.fct_ns = Some(fct);
                        fct_hist.record(fct);
                        completed += 1;
                        makespan = makespan.max(now);
                        changed = true;
                        retire(
                            fi,
                            now,
                            scenario,
                            &mut flows,
                            &mut phase_open,
                            &mut cur_phase,
                            &mut q,
                            n_phases,
                        );
                    }
                }
            }

            if !changed {
                continue;
            }
            // Recompute the active set's max-min allocation and
            // re-predict completions under the new epoch.
            epoch += 1;
            let active: Vec<usize> = (0..n).filter(|&i| flows[i].active).collect();
            if active.is_empty() {
                continue;
            }
            let paths: Vec<Vec<DirectedLink>> =
                active.iter().map(|&i| flows[i].path.clone()).collect();
            let alloc = max_min_allocation(net, &paths);
            for (slot, &fi) in active.iter().enumerate() {
                let r = alloc[slot];
                if !r.is_finite() || r <= 1e-12 {
                    return Err(EngineError::Stalled {
                        scenario: scenario.name.clone(),
                    });
                }
                rates[fi] = r;
                let dt = ((flows[fi].remaining_bits / r).ceil() as u64).max(1);
                q.push(now + dt, Ev::Completion(fi as u32, epoch));
            }
        }

        let per_flow: Vec<FlowResult> = scenario
            .flows
            .iter()
            .zip(&flows)
            .map(|(sf, f)| FlowResult {
                src: sf.src,
                dst: sf.dst,
                phase: sf.phase,
                offered_bytes: sf.bytes,
                delivered_bytes: f.delivered_bytes,
                dropped_bytes: 0,
                killed_bytes: f.killed_bytes,
                fct_ns: f.fct_ns,
                dead: f.dead,
            })
            .collect();
        let bytes_delivered: u64 = per_flow.iter().map(|f| f.delivered_bytes).sum();
        Ok(ScenarioReport {
            scenario: scenario.name.clone(),
            topology: self.topo.name(),
            fidelity: scenario.fidelity.label().into(),
            plane: PLANE.into(),
            flows: n,
            completed,
            unroutable,
            phases: n_phases,
            faults_fired,
            bytes_offered: per_flow.iter().map(|f| f.offered_bytes).sum(),
            bytes_delivered,
            bytes_dropped: 0,
            bytes_killed: per_flow.iter().map(|f| f.killed_bytes).sum(),
            makespan_ns: makespan,
            goodput_gbps: if makespan == 0 {
                0.0
            } else {
                bytes_delivered as f64 * 8.0 / makespan as f64
            },
            fct: FctSummary::of(&fct_hist),
            per_flow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultInjection, Fidelity, ScenarioFlow, Transport};
    use abccc::{Abccc, AbcccParams};
    use netgraph::FaultScenario;

    fn topo() -> Abccc {
        Abccc::new(AbcccParams::new(2, 1, 2).unwrap()).unwrap() // 8 servers
    }

    fn fluid_pair() -> Scenario {
        let mut s = Scenario::new("pair", 1, Fidelity::Fluid);
        s.flows
            .push(ScenarioFlow::bulk(NodeId(0), NodeId(7), 125_000));
        s
    }

    #[test]
    fn fluid_lone_flow_fct_is_exact() {
        // One flow on idle links runs at line rate: 125 kB at 1 Gbps is
        // exactly 1 ms.
        let t = topo();
        let r = TrafficEngine::new(&t).run(&fluid_pair()).unwrap();
        assert_eq!(r.completed, 1);
        assert_eq!(r.per_flow[0].fct_ns, Some(1_000_000));
        assert_eq!(r.makespan_ns, 1_000_000);
        assert!((r.goodput_gbps - 1.0).abs() < 1e-9);
        assert!(r.conserves_bytes());
    }

    #[test]
    fn fluid_sharing_halves_rates() {
        // Two flows forced through the same first hop finish later than
        // one alone would.
        let t = topo();
        let mut s = Scenario::new("share", 1, Fidelity::Fluid);
        s.flows
            .push(ScenarioFlow::bulk(NodeId(0), NodeId(7), 125_000));
        s.flows
            .push(ScenarioFlow::bulk(NodeId(0), NodeId(6), 125_000));
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert_eq!(r.completed, 2);
        assert!(
            r.makespan_ns > 1_500_000,
            "shared bottleneck must stretch FCT, got {}",
            r.makespan_ns
        );
        assert!(r.conserves_bytes());
    }

    #[test]
    fn fluid_phases_serialize() {
        let t = topo();
        let mut s = Scenario::new("phased", 1, Fidelity::Fluid);
        s.flows
            .push(ScenarioFlow::bulk(NodeId(0), NodeId(7), 125_000));
        s.flows
            .push(ScenarioFlow::bulk(NodeId(0), NodeId(7), 125_000).in_phase(1));
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert_eq!(r.completed, 2);
        assert_eq!(r.phases, 2);
        // Sequential phases: each runs alone at line rate.
        assert_eq!(r.per_flow[0].fct_ns, Some(1_000_000));
        assert_eq!(r.per_flow[1].fct_ns, Some(1_000_000));
        assert_eq!(r.makespan_ns, 2_000_000);
    }

    #[test]
    fn fluid_midflow_fault_kills_or_reroutes() {
        // Fail half the servers mid-run: some flows die, accounting stays
        // exact, and the fault actually fires.
        let t = topo();
        let mut s = Scenario::new("faulted", 1, Fidelity::Fluid);
        for i in 0..4u32 {
            s.flows
                .push(ScenarioFlow::bulk(NodeId(i), NodeId(7 - i), 1_250_000));
        }
        s.faults.push(FaultInjection {
            at_ns: 1_000_000,
            scenario: FaultScenario::seeded(0xF00D).fail_servers_frac(0.5),
        });
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert_eq!(r.faults_fired, 1);
        assert!(r.conserves_bytes());
        let healthy = TrafficEngine::new(&t).run(&s.without_faults()).unwrap();
        assert_eq!(healthy.completed, 4);
        assert!(crate::report::retention(&healthy, &r) <= 1.0 + 1e-9);
    }

    #[test]
    fn packet_scenario_reports_fct_and_conserves() {
        let t = topo();
        let mut s = Scenario::new("incast", 1, Fidelity::packet_open());
        for i in 1..8u32 {
            s.flows
                .push(ScenarioFlow::burst(NodeId(i), NodeId(0), 30_000, 0));
        }
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert!(r.conserves_bytes());
        assert!(r.bytes_delivered > 0);
        assert!(r.fct.count > 0 || r.bytes_dropped > 0);
        assert_eq!(r.fidelity, "packet");
    }

    #[test]
    fn aimd_scenario_label_and_accounting() {
        let t = topo();
        let mut s = Scenario::new(
            "aimd",
            1,
            Fidelity::Packet {
                config: crate::PacketSimConfig {
                    buffer_packets: 4,
                    ..Default::default()
                },
                transport: Transport::Aimd(crate::AimdConfig::default()),
            },
        );
        for i in 1..8u32 {
            s.flows
                .push(ScenarioFlow::bulk(NodeId(i), NodeId(0), 150_000));
        }
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert_eq!(r.fidelity, "packet+aimd");
        assert!(r.conserves_bytes());
    }

    #[test]
    fn self_flows_complete_instantly() {
        let t = topo();
        let mut s = Scenario::new("self", 1, Fidelity::Fluid);
        s.flows.push(ScenarioFlow::bulk(NodeId(3), NodeId(3), 500));
        let r = TrafficEngine::new(&t).run(&s).unwrap();
        assert_eq!(r.completed, 1);
        assert_eq!(r.per_flow[0].fct_ns, Some(0));
        assert!(r.conserves_bytes());
    }
}
