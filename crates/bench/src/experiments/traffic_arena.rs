//! The traffic arena: the production scenario library run through the
//! unified traffic engine (`dcn-sim`) across topology families.
//!
//! Every registered scenario — collectives, incast, a
//! storage-reconstruction storm with its *mid-flow* server fault, diurnal
//! load with a flash crowd — runs twice per family: once healthy and once
//! faulted (scenarios without their own fault timeline get a seeded link
//! fault injected at ~30% of the healthy makespan). Rows report the FCT
//! distribution (HDR p50/p99/p999) and throughput retention
//! (faulted goodput over healthy goodput).

use super::titled;
use crate::cache::TopoKey;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use dcn_baselines::family;
use dcn_sim::{retention, FaultInjection, FctSummary, Scenario, TrafficEngine};
use dcn_workloads::scenarios;
use netgraph::{mix_seed, FaultScenario};
use serde::Serialize;

/// Families in the arena, display order — deterministic native routing at
/// every size, so healthy runs are reproducible by construction.
const FAMILIES: [&str; 4] = ["abccc", "bcube", "dcell", "fattree"];

#[derive(Serialize)]
struct TrafficArenaRecord {
    structure: String,
    family: String,
    scenario: String,
    fidelity: String,
    seed: u64,
    servers: u64,
    flows: usize,
    phases: u16,
    completed: usize,
    unroutable_faulted: usize,
    faults_fired: usize,
    bytes_offered: u64,
    bytes_delivered_healthy: u64,
    bytes_delivered_faulted: u64,
    makespan_ns_healthy: u64,
    makespan_ns_faulted: u64,
    goodput_gbps_healthy: f64,
    goodput_gbps_faulted: f64,
    throughput_retention: f64,
    fct_healthy: FctSummary,
    fct_faulted: FctSummary,
}

/// **Traffic arena** — production workloads × topology families on the
/// unified engine.
pub struct TrafficArena;

struct Cfg {
    target: u64,
}

impl TrafficArena {
    fn cfg(preset: Preset) -> Cfg {
        match preset {
            Preset::Tiny => Cfg { target: 16 },
            Preset::Paper => Cfg { target: 240 },
            Preset::Scale => Cfg { target: 1024 },
        }
    }

    fn grid(preset: Preset) -> Vec<TopoKey> {
        let target = Self::cfg(preset).target;
        FAMILIES
            .iter()
            .map(|name| {
                let fam = family::find(name).expect("arena family registered");
                let params = family::size_for_servers(fam, target)
                    .expect("registered families have nonempty sizing ladders");
                TopoKey::new(fam, params)
            })
            .collect()
    }

    /// The faulted counterpart: scenarios with their own timeline run as
    /// built; fault-free ones get a seeded link fault injected at ~30% of
    /// the healthy makespan, so the fault always lands mid-flow.
    fn faulted_variant(scenario: &Scenario, healthy_makespan_ns: u64, seed: u64) -> Scenario {
        if !scenario.faults.is_empty() {
            return scenario.clone();
        }
        let mut s = scenario.clone();
        s.faults.push(FaultInjection {
            at_ns: (healthy_makespan_ns * 3 / 10).max(1),
            scenario: FaultScenario::seeded(mix_seed(seed, 0xFA)).fail_links_frac(0.08),
        });
        s
    }
}

impl Experiment for TrafficArena {
    fn name(&self) -> &'static str {
        "traffic_arena"
    }
    fn paper_ref(&self) -> &'static str {
        "Traffic arena"
    }
    fn summary(&self) -> &'static str {
        "production workload scenarios (collectives, incast, storage rebuild, diurnal) on the unified traffic engine, with FCT quantiles and throughput retention under faults"
    }
    fn title(&self, preset: Preset) -> String {
        let target = Self::cfg(preset).target;
        titled(
            &format!("Traffic arena: workload scenarios × families at ~{target} servers"),
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "structure",
            "scenario",
            "fid",
            "flows",
            "done",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "gbps",
            "retain",
        ]
    }
    fn footer(&self, _preset: Preset) -> Vec<String> {
        vec![
            "(FCT quantiles from the healthy run's HDR histogram; retain = faulted goodput / healthy goodput)".into(),
            "(storage_rebuild carries its own mid-flow server fault; other scenarios get a seeded link fault at 30% of the healthy makespan)".into(),
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(0x7_AFF1C)
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        let cfg = Self::cfg(preset);
        vec![
            ("target_servers", cfg.target.to_string()),
            ("scenarios", scenarios::NAMES.join(",")),
        ]
    }
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        Self::grid(preset)
            .into_iter()
            .map(|key| PointSpec {
                label: key.label(),
                topos: vec![key],
            })
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let grid = Self::grid(ctx.preset);
        let key = &grid[ctx.index];
        let t = ctx.topo(key)?;
        let topo = t.topology();
        let servers = topo.network().server_count();
        let engine = TrafficEngine::new(topo);

        let mut rows = Vec::with_capacity(scenarios::NAMES.len());
        for (si, &name) in scenarios::NAMES.iter().enumerate() {
            let seed = mix_seed(ctx.seed, si as u64);
            let scenario = scenarios::by_name(name, servers, seed)
                .ok_or_else(|| format!("unknown scenario {name}"))?;
            let healthy = engine
                .run(&scenario.without_faults())
                .map_err(|e| e.to_string())?;
            let faulted_scenario = Self::faulted_variant(&scenario, healthy.makespan_ns, seed);
            let faulted = engine.run(&faulted_scenario).map_err(|e| e.to_string())?;
            debug_assert!(healthy.conserves_bytes() && faulted.conserves_bytes());
            let retain = retention(&healthy, &faulted);

            let record = TrafficArenaRecord {
                structure: key.label(),
                family: key.family().to_string(),
                scenario: name.to_string(),
                fidelity: healthy.fidelity.clone(),
                seed,
                servers: servers as u64,
                flows: healthy.flows,
                phases: healthy.phases,
                completed: healthy.completed,
                unroutable_faulted: faulted.unroutable,
                faults_fired: faulted.faults_fired,
                bytes_offered: healthy.bytes_offered,
                bytes_delivered_healthy: healthy.bytes_delivered,
                bytes_delivered_faulted: faulted.bytes_delivered,
                makespan_ns_healthy: healthy.makespan_ns,
                makespan_ns_faulted: faulted.makespan_ns,
                goodput_gbps_healthy: healthy.goodput_gbps,
                goodput_gbps_faulted: faulted.goodput_gbps,
                throughput_retention: retain,
                fct_healthy: healthy.fct.clone(),
                fct_faulted: faulted.fct.clone(),
            };
            rows.push(Row::one(
                vec![
                    record.structure.clone(),
                    name.to_string(),
                    record.fidelity.clone(),
                    record.flows.to_string(),
                    record.completed.to_string(),
                    fmt_f(record.fct_healthy.p50_ns as f64 / 1000.0, 1),
                    fmt_f(record.fct_healthy.p99_ns as f64 / 1000.0, 1),
                    fmt_f(record.fct_healthy.p999_ns as f64 / 1000.0, 1),
                    fmt_f(record.goodput_gbps_healthy, 2),
                    fmt_f(record.throughput_retention, 3),
                ],
                &record,
            ));
        }
        Ok(rows)
    }
}
