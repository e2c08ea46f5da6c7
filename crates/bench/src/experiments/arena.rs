//! The cross-topology arena: every registered [`TopologyFamily`] sized to
//! a matched server count, compared on structure (diameter, APL,
//! bisection), cost (table-2 CAPEX model), the largest configuration that
//! fits the ABCCC reference budget, and fault-degradation curves from the
//! resilience campaign engine — ABCCC through its router control plane,
//! every other family through its native `route_avoiding` plane.

use super::titled;
use crate::cache::TopoKey;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use dcn_baselines::family::{self, TopologyFamily};
use dcn_metrics::{CostModel, TopologyStats};
use dcn_resilience::{CampaignConfig, ScenarioKind};
use netgraph::mix_seed;
use serde::Serialize;

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// Families in the arena, display order. GHC sits out: its ladder has no
/// configuration near the matched server counts without exploding degree.
const FAMILIES: [&str; 7] = [
    "abccc",
    "bccc",
    "bcube",
    "dcell",
    "fattree",
    "jellyfish",
    "spaceshuffle",
];

#[derive(Serialize)]
struct DegradationPoint {
    rate: f64,
    route_completion: f64,
    connectivity: f64,
    mean_stretch: f64,
}

#[derive(Serialize)]
struct ArenaRecord {
    structure: String,
    family: String,
    spec: String,
    servers: u64,
    diameter_server_hops: Option<u32>,
    avg_path_length: Option<f64>,
    bisection_links: u64,
    capex_total_usd: f64,
    capex_per_server_usd: f64,
    budget_usd: f64,
    budget_spec: Option<String>,
    budget_servers: Option<u64>,
    budget_capex_usd: Option<f64>,
    degradation: Vec<DegradationPoint>,
}

/// **Arena** — the cross-topology CAPEX/resilience report.
pub struct Arena;

struct ArenaCfg {
    target: u64,
    rates: Vec<f64>,
    trials: usize,
    pairs: usize,
}

impl Arena {
    fn cfg(preset: Preset) -> ArenaCfg {
        match preset {
            Preset::Tiny => ArenaCfg {
                target: 16,
                rates: vec![0.0, 0.10],
                trials: 2,
                pairs: 12,
            },
            Preset::Paper => ArenaCfg {
                target: 240,
                rates: vec![0.0, 0.05, 0.10, 0.20],
                trials: 4,
                pairs: 48,
            },
            Preset::Scale => ArenaCfg {
                target: 1024,
                rates: vec![0.0, 0.05, 0.10, 0.20],
                trials: 4,
                pairs: 64,
            },
        }
    }

    /// The family's matched-server-count key at `preset`, from its sizing
    /// ladder. Registered families always have a nonempty ladder.
    fn matched_key(fam: &'static dyn TopologyFamily, preset: Preset) -> TopoKey {
        let params = family::size_for_servers(fam, Self::cfg(preset).target)
            .expect("registered families have nonempty sizing ladders");
        TopoKey::new(fam, params)
    }

    fn grid(preset: Preset) -> Vec<TopoKey> {
        FAMILIES
            .iter()
            .map(|name| {
                let fam = family::find(name).expect("arena family registered");
                Self::matched_key(fam, preset)
            })
            .collect()
    }
}

impl Experiment for Arena {
    fn name(&self) -> &'static str {
        "arena"
    }
    fn paper_ref(&self) -> &'static str {
        "Arena"
    }
    fn summary(&self) -> &'static str {
        "cross-topology arena: 7 families at matched servers and matched CAPEX, with fault-degradation curves"
    }
    fn title(&self, preset: Preset) -> String {
        let target = Self::cfg(preset).target;
        titled(
            &format!("Arena: cross-topology comparison at ~{target} servers"),
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "structure",
            "servers",
            "diam",
            "apl",
            "bisect",
            "capex $",
            "$/srv",
            "srv@budget",
            "done@worst",
        ]
    }
    fn footer(&self, preset: Preset) -> Vec<String> {
        let cfg = Self::cfg(preset);
        let worst = cfg.rates.last().copied().unwrap_or(0.0);
        vec![
            "(budget = the ABCCC entry's CAPEX; srv@budget = most servers the family buys within it)".into(),
            format!(
                "(done@worst = route completion at {worst:.0}% uniform server+switch faults; \
                 ABCCC on its resilient router, others on their native routing)",
                worst = worst * 100.0
            ),
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(0xA12E)
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        let cfg = Self::cfg(preset);
        vec![
            ("target_servers", cfg.target.to_string()),
            ("fault_rates", format!("{:?}", cfg.rates)),
            ("trials", cfg.trials.to_string()),
            ("pairs", cfg.pairs.to_string()),
        ]
    }
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        let grid = Self::grid(preset);
        let reference = grid[0].clone();
        grid.into_iter()
            .map(|key| {
                let mut topos = vec![key.clone()];
                if key != reference {
                    // Every point prices itself against the ABCCC budget.
                    topos.push(reference.clone());
                }
                PointSpec {
                    label: key.label(),
                    topos,
                }
            })
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let cfg = Self::cfg(ctx.preset);
        let grid = Self::grid(ctx.preset);
        let key = &grid[ctx.index];
        let t = ctx.topo(key)?;
        let stats = t.stats_full();
        let bisection = t.exact_bisection();
        let cost = CostModel::default();
        let capex = cost.capex(t.stats_quick());

        // Matched-CAPEX sizing: what does this family buy for the ABCCC
        // reference spend at the same target scale?
        let reference = ctx.topo(&grid[0])?;
        let budget = cost.capex(reference.stats_quick()).total();
        let fam = key.descriptor();
        let mut price = |params: &str| -> Option<f64> {
            let built = fam.build(params).ok()?;
            Some(cost.capex(&TopologyStats::quick(built.as_ref())).total())
        };
        let budget_spec =
            family::size_for_budget(fam, cfg.target.saturating_mul(4), budget, &mut price);
        let budget_servers = budget_spec.as_ref().and_then(|p| fam.server_count(p).ok());
        let budget_capex = budget_spec.as_ref().and_then(|p| price(p));

        // Fault-degradation curve over the same campaign engine for every
        // family; the plane (router vs native) is picked by `run_on`.
        let mut degradation = Vec::with_capacity(cfg.rates.len());
        for (i, &rate) in cfg.rates.iter().enumerate() {
            let report = CampaignConfig::new()
                .scenario(ScenarioKind::Uniform {
                    server_rate: rate,
                    switch_rate: rate,
                    link_rate: 0.0,
                })
                .pairs_per_trial(cfg.pairs)
                .trials(cfg.trials)
                .threads(1)
                .seed(mix_seed(ctx.seed, i as u64))
                .measure_throughput(false)
                .run_on(t.topology())
                .map_err(e)?;
            degradation.push(DegradationPoint {
                rate,
                route_completion: report.summary.route_completion,
                connectivity: report.summary.connectivity_fraction,
                mean_stretch: report.summary.mean_stretch,
            });
        }
        let worst_completion = degradation.last().map_or(1.0, |d| d.route_completion);

        let record = ArenaRecord {
            structure: key.label(),
            family: key.family().to_string(),
            spec: key.to_string(),
            servers: stats.servers,
            diameter_server_hops: stats.diameter_server_hops,
            avg_path_length: stats.avg_path_length,
            bisection_links: bisection,
            capex_total_usd: capex.total(),
            capex_per_server_usd: capex.per_server(),
            budget_usd: budget,
            budget_spec: budget_spec.map(|p| format!("{}:{p}", fam.name())),
            budget_servers,
            budget_capex_usd: budget_capex,
            degradation,
        };
        Ok(vec![Row::one(
            vec![
                record.structure.clone(),
                record.servers.to_string(),
                record
                    .diameter_server_hops
                    .map_or("—".into(), |d| d.to_string()),
                record.avg_path_length.map_or("—".into(), |v| fmt_f(v, 2)),
                record.bisection_links.to_string(),
                fmt_f(record.capex_total_usd, 0),
                fmt_f(record.capex_per_server_usd, 2),
                record.budget_servers.map_or("—".into(), |s| s.to_string()),
                fmt_f(worst_completion, 3),
            ],
            &record,
        )])
    }
}
