//! Scenario-level reporting: FCT distributions, byte conservation, and
//! throughput retention.

use dcn_telemetry::HdrHistogram;
use netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Flow-completion-time distribution summary, measured in nanoseconds and
/// quantized by [`dcn_telemetry::HdrHistogram`] (relative error ≤ 1/16).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FctSummary {
    /// Completed flows the distribution covers.
    pub count: u64,
    /// Mean FCT (ns).
    pub mean_ns: f64,
    /// Median FCT (ns).
    pub p50_ns: u64,
    /// 99th-percentile FCT (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile FCT (ns).
    pub p999_ns: u64,
    /// Worst FCT (ns).
    pub max_ns: u64,
}

impl FctSummary {
    /// Summarizes an HDR histogram of FCT samples.
    #[must_use]
    pub fn of(h: &HdrHistogram) -> Self {
        FctSummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.percentile(0.50),
            p99_ns: h.percentile(0.99),
            p999_ns: h.percentile(0.999),
            max_ns: h.max(),
        }
    }
}

/// Per-flow outcome of a scenario run, in scenario flow order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowResult {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Bulk-synchronous phase.
    pub phase: u16,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Bytes lost in the network (tail drop or dead gear; packet mode).
    pub dropped_bytes: u64,
    /// Bytes never injected because the flow died (unroutable).
    pub killed_bytes: u64,
    /// Flow completion time (ns from the flow's activation), for flows
    /// that delivered everything they offered.
    pub fct_ns: Option<u64>,
    /// `true` when the flow was killed by faults (unroutable).
    pub dead: bool,
}

impl FlowResult {
    /// `true` when every offered byte was delivered.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.delivered_bytes == self.offered_bytes
    }
}

/// Result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Topology name.
    pub topology: String,
    /// Fidelity label (`fluid`, `packet`, `packet+aimd`).
    pub fidelity: String,
    /// Routing plane label: always `native`, since scenarios route on the
    /// topology's own algorithms.
    pub plane: String,
    /// Flows offered.
    pub flows: usize,
    /// Flows that delivered every offered byte.
    pub completed: usize,
    /// Flows killed (no route at start or after faults).
    pub unroutable: usize,
    /// Bulk-synchronous phases the scenario ran.
    pub phases: u16,
    /// Faults that fired during the run.
    pub faults_fired: usize,
    /// Total bytes offered.
    pub bytes_offered: u64,
    /// Bytes delivered end to end.
    pub bytes_delivered: u64,
    /// Bytes lost in the network.
    pub bytes_dropped: u64,
    /// Bytes never injected (killed flows).
    pub bytes_killed: u64,
    /// Time of the last delivery or kill (ns).
    pub makespan_ns: u64,
    /// Aggregate delivered goodput in Gbit/s over the makespan.
    pub goodput_gbps: f64,
    /// FCT distribution over completed flows.
    pub fct: FctSummary,
    /// Per-flow outcomes (scenario flow order).
    pub per_flow: Vec<FlowResult>,
}

impl ScenarioReport {
    /// Byte conservation: offered == delivered + dropped + killed, both in
    /// aggregate and per flow (nothing is ever in flight after a run).
    #[must_use]
    pub fn conserves_bytes(&self) -> bool {
        self.bytes_offered == self.bytes_delivered + self.bytes_dropped + self.bytes_killed
            && self
                .per_flow
                .iter()
                .all(|f| f.offered_bytes == f.delivered_bytes + f.dropped_bytes + f.killed_bytes)
    }

    /// Delivered fraction of offered bytes.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.bytes_offered == 0 {
            return 1.0;
        }
        self.bytes_delivered as f64 / self.bytes_offered as f64
    }
}

/// Throughput retention of a faulted run against its healthy counterpart:
/// `faulted.goodput / healthy.goodput`, clamped to 0 when the healthy run
/// moved no bytes.
#[must_use]
pub fn retention(healthy: &ScenarioReport, faulted: &ScenarioReport) -> f64 {
    if healthy.goodput_gbps <= 0.0 {
        return 0.0;
    }
    faulted.goodput_gbps / healthy.goodput_gbps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ScenarioReport {
        ScenarioReport {
            scenario: "t".into(),
            topology: "x".into(),
            fidelity: "fluid".into(),
            plane: "native".into(),
            flows: 1,
            completed: 1,
            unroutable: 0,
            phases: 1,
            faults_fired: 0,
            bytes_offered: 100,
            bytes_delivered: 80,
            bytes_dropped: 15,
            bytes_killed: 5,
            makespan_ns: 1000,
            goodput_gbps: 0.64,
            fct: FctSummary {
                count: 1,
                mean_ns: 5.0,
                p50_ns: 5,
                p99_ns: 5,
                p999_ns: 5,
                max_ns: 5,
            },
            per_flow: vec![FlowResult {
                src: NodeId(0),
                dst: NodeId(1),
                phase: 0,
                offered_bytes: 100,
                delivered_bytes: 80,
                dropped_bytes: 15,
                killed_bytes: 5,
                fct_ns: None,
                dead: false,
            }],
        }
    }

    #[test]
    fn conservation_checks_aggregate_and_per_flow() {
        let mut r = report();
        assert!(r.conserves_bytes());
        r.bytes_dropped += 1;
        assert!(!r.conserves_bytes());
    }

    #[test]
    fn retention_guards_zero_goodput() {
        let h = report();
        let mut f = report();
        f.goodput_gbps = 0.32;
        assert!((retention(&h, &f) - 0.5).abs() < 1e-12);
        let mut dead = report();
        dead.goodput_gbps = 0.0;
        assert_eq!(retention(&dead, &f), 0.0);
    }

    #[test]
    fn delivery_ratio_handles_empty() {
        let mut r = report();
        assert!((r.delivery_ratio() - 0.8).abs() < 1e-12);
        r.bytes_offered = 0;
        assert_eq!(r.delivery_ratio(), 1.0);
    }
}
