//! Scenario descriptions: what traffic to offer, at which fidelity, and
//! which faults fire while it runs.
//!
//! A [`Scenario`] is a pure value — flows, phases, a fault timeline, and a
//! fidelity choice — so the same description can run on any topology, and
//! two runs of the same scenario are byte-identical by construction.

use crate::packet::PacketSimConfig;
use crate::AimdConfig;
use netgraph::{FaultScenario, NodeId};
use serde::{Deserialize, Serialize};

/// One flow of a scenario.
///
/// Flows are grouped into *phases*: phase `k + 1` starts only when every
/// phase-`k` flow has terminated (delivered, dropped, or killed). Within a
/// phase, a flow starts `start_ns` after the phase opens. This models
/// bulk-synchronous collectives (ring all-reduce steps) without the engine
/// having to know anything about the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioFlow {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Start offset within the flow's phase (ns).
    pub start_ns: u64,
    /// Packet-mode injection gap (ns); `None` paces at line rate, `Some(0)`
    /// is an unpaced burst. Ignored by the fluid backend.
    pub gap_ns: Option<u64>,
    /// Bulk-synchronous phase index (0 = starts at scenario time zero).
    pub phase: u16,
}

impl ScenarioFlow {
    /// A line-rate-paced phase-0 transfer starting at t = 0.
    pub fn bulk(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        ScenarioFlow {
            src,
            dst,
            bytes,
            start_ns: 0,
            gap_ns: None,
            phase: 0,
        }
    }

    /// An unpaced burst offered all at once at `start_ns` (phase 0).
    pub fn burst(src: NodeId, dst: NodeId, bytes: u64, start_ns: u64) -> Self {
        ScenarioFlow {
            src,
            dst,
            bytes,
            start_ns,
            gap_ns: Some(0),
            phase: 0,
        }
    }

    /// The same flow in phase `phase`.
    #[must_use]
    pub fn in_phase(mut self, phase: u16) -> Self {
        self.phase = phase;
        self
    }

    /// The same flow starting `start_ns` into its phase.
    #[must_use]
    pub fn starting_at(mut self, start_ns: u64) -> Self {
        self.start_ns = start_ns;
        self
    }
}

/// A fault firing mid-run: at `at_ns` (absolute scenario time) the seeded
/// [`FaultScenario`] is built against the network and unioned into the
/// cumulative fault mask. In-flight traffic crossing newly dead gear is
/// dropped; surviving flows reroute with the topology's `route_avoiding`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjection {
    /// Absolute scenario time the fault fires (ns).
    pub at_ns: u64,
    /// What fails (built against the run's network when the time comes).
    pub scenario: FaultScenario,
}

/// How the packet backend injects traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Transport {
    /// Open loop: every packet is offered on schedule regardless of loss.
    Open,
    /// Closed loop: windowed AIMD senders (additive increase per delivery,
    /// multiplicative decrease per loss).
    Aimd(AimdConfig),
}

/// Which fidelity backend runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Fluid: flows are rates under max-min fair sharing, recomputed on
    /// every arrival/completion/fault event. Fast, no loss model.
    Fluid,
    /// Packet: store-and-forward with FIFO output queues and tail drop.
    Packet {
        /// Link/packet/buffer parameters.
        config: PacketSimConfig,
        /// Injection discipline.
        transport: Transport,
    },
}

impl Fidelity {
    /// Packet fidelity with the default config and open-loop injection.
    #[must_use]
    pub fn packet_open() -> Self {
        Fidelity::Packet {
            config: PacketSimConfig::default(),
            transport: Transport::Open,
        }
    }

    /// Packet fidelity with the default config and AIMD senders.
    #[must_use]
    pub fn packet_aimd() -> Self {
        Fidelity::Packet {
            config: PacketSimConfig::default(),
            transport: Transport::Aimd(AimdConfig::default()),
        }
    }

    /// Stable label for reports: `fluid`, `packet`, or `packet+aimd`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Fluid => "fluid",
            Fidelity::Packet {
                transport: Transport::Open,
                ..
            } => "packet",
            Fidelity::Packet {
                transport: Transport::Aimd(_),
                ..
            } => "packet+aimd",
        }
    }
}

/// A complete scenario: named traffic + fault timeline + fidelity.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports carry it).
    pub name: String,
    /// The seed the scenario was generated from (provenance; the engine
    /// itself draws no randomness).
    pub seed: u64,
    /// Fidelity backend to run on.
    pub fidelity: Fidelity,
    /// The offered flows.
    pub flows: Vec<ScenarioFlow>,
    /// Faults firing mid-run, in any order (the engine sorts by time).
    pub faults: Vec<FaultInjection>,
}

impl Scenario {
    /// An empty scenario shell.
    pub fn new(name: impl Into<String>, seed: u64, fidelity: Fidelity) -> Self {
        Scenario {
            name: name.into(),
            seed,
            fidelity,
            flows: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// The same scenario with the fault timeline stripped (the healthy
    /// counterpart used for throughput-retention baselines).
    #[must_use]
    pub fn without_faults(&self) -> Scenario {
        Scenario {
            faults: Vec::new(),
            ..self.clone()
        }
    }

    /// Number of bulk-synchronous phases (`max phase + 1`; 0 if no flows).
    #[must_use]
    pub fn phase_count(&self) -> u16 {
        self.flows
            .iter()
            .map(|f| f.phase + 1)
            .max()
            .unwrap_or_default()
    }

    /// Total bytes offered across all flows and phases.
    #[must_use]
    pub fn offered_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_count_and_offered_bytes() {
        let mut s = Scenario::new("t", 1, Fidelity::Fluid);
        assert_eq!(s.phase_count(), 0);
        s.flows.push(ScenarioFlow::bulk(NodeId(0), NodeId(1), 100));
        s.flows
            .push(ScenarioFlow::bulk(NodeId(1), NodeId(2), 50).in_phase(2));
        assert_eq!(s.phase_count(), 3);
        assert_eq!(s.offered_bytes(), 150);
    }

    #[test]
    fn without_faults_strips_only_faults() {
        let mut s = Scenario::new("t", 1, Fidelity::packet_open());
        s.flows
            .push(ScenarioFlow::burst(NodeId(0), NodeId(1), 9, 5));
        s.faults.push(FaultInjection {
            at_ns: 10,
            scenario: netgraph::FaultScenario::seeded(3).fail_links_frac(0.1),
        });
        let h = s.without_faults();
        assert!(h.faults.is_empty());
        assert_eq!(h.flows, s.flows);
        assert_eq!(h.name, s.name);
    }

    #[test]
    fn fidelity_labels() {
        assert_eq!(Fidelity::Fluid.label(), "fluid");
        assert_eq!(Fidelity::packet_open().label(), "packet");
        assert_eq!(Fidelity::packet_aimd().label(), "packet+aimd");
    }
}
