//! What a run reports: operation counts, checks that failed, and metrics
//! with units — rendered as the one-line JSON result plus a readable table
//! on stderr.

use crate::quantile::Samples;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with units. A layer the
/// workload does not run through reads 0 and is named on stderr.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_us", "us"),
    ("serve.client.send_us", "us"),
    ("serve.client.recv_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.reply_bytes", "B"),
    ("serve.server.group_us", "us"),
    ("serve.server.frames_per_group", "count"),
    ("serve.server.items_per_group", "count"),
    ("serve.server.rejects", "count"),
    ("serve.unaccounted_pct", "%"),
    ("fib.query_ns", "ns"),
    ("fib.query_batch_us", "us"),
    ("fib.fanout_ratio", "ratio"),
    ("fib.fallbacks", "count"),
    ("fib.patch_hit_ratio", "ratio"),
    ("fib.patch_entries_max", "count"),
    ("fib.fallback_us", "us"),
    ("fib.apply_mask_us", "us"),
    ("fib.compile_s", "s"),
    ("serve.setup.ready_s", "s"),
    ("serve.setup.connect_us", "us"),
    ("regen.module.structural_s", "s"),
    ("regen.module.routing_s", "s"),
    ("regen.module.traffic_sims_s", "s"),
    ("regen.module.packet_s", "s"),
    ("regen.module.faults_s", "s"),
    ("regen.module.arena_s", "s"),
    ("regen.module.traffic_arena_s", "s"),
    ("regen.module.fib_s", "s"),
    ("regen.module.frontier_s", "s"),
    ("regen.module.scale_s", "s"),
    ("regen.cache_builds", "count"),
    ("regen.cache_reuse_ratio", "ratio"),
    ("regen.worker_busy_pct", "%"),
    ("regen.self_s.fib.compile", "s"),
    ("regen.self_s.bench.engine.point", "s"),
    ("regen.self_s.abccc.fault.route_avoiding", "s"),
    ("regen.self_s.resilience.campaign", "s"),
    ("regen.self_s.fib.query_batch", "s"),
    ("regen.self_s.packetsim.run", "s"),
    ("regen.self_s.flowsim.maxmin", "s"),
    ("regen.self_s.netgraph.distance.worker", "s"),
    ("trace_overhead_pct", "%"),
];

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: route lookups, mask pushes and server drains
    /// for the serve workloads; rows artifacts checked for `regen`.
    pub attempted: u64,
    /// Operations whose output did not match the oracle.
    pub failed: u64,
    /// Check failures that are not per-operation (transport errors,
    /// missing outputs).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Remarks printed with the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// `name` = the exact quantile `q` of raw µs samples; a percentile
    /// with fewer than ten samples beyond it is left out and named as a
    /// problem.
    pub fn quantile(&mut self, name: &str, rtt_us: &mut Samples, q: f64) {
        match rtt_us.quantile(q) {
            Some(v) if rtt_us.supports(q) => self.metric(name, v, "us"),
            _ => self.problems.push(format!(
                "{name}: {} samples do not support it",
                rtt_us.len()
            )),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The result line: exactly the metrics of `names`, in order. A name
    /// the run did not measure reads 0 and is returned in the second list.
    pub fn render(&self, names: &[(&str, &'static str)]) -> (String, Vec<String>) {
        let mut missing = Vec::new();
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .value(name)
                    .filter(|v| v.is_finite())
                    .unwrap_or_else(|| {
                        missing.push(name.to_string());
                        0.0
                    });
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (line, missing)
    }
}

/// A finite `f64` as JSON, with every digit Rust's shortest round-trip
/// form carries.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
