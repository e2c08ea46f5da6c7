//! The compiled-forwarding experiment: `dcn-fib` table compilation and
//! route-service throughput against on-demand digit routing, healthy and
//! under faults.

use super::titled;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use abccc::{Abccc, AbcccParams, DigitRouter, RouteTier, Router};
use dcn_fib::RouteService;
use netgraph::{FaultScenario, NodeId, Topology};
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// The deterministic slice of a throughput row. Compile time and
/// lookups/s appear only in the stdout table — never in the JSON
/// artifact, which must be byte-identical across runs and worker counts.
#[derive(Serialize)]
struct FibRow {
    config: String,
    servers: u64,
    table_bytes: u64,
    shards: usize,
    queries: usize,
    total_link_hops: u64,
    healthy_matches: usize,
    faulted_ok: usize,
    faulted_fallbacks: usize,
    faulted_errors: usize,
    patches: usize,
}

/// Compiled forwarding tables vs on-demand routing.
pub struct FibThroughput;

impl FibThroughput {
    fn grid(preset: Preset) -> Vec<(u32, u32, u32)> {
        match preset {
            Preset::Tiny => vec![(2, 2, 2), (3, 1, 2)],
            Preset::Paper => vec![(3, 2, 2), (2, 3, 3), (4, 2, 2)],
            Preset::Scale => {
                let mut g = Self::grid(Preset::Paper);
                g.push((4, 3, 2));
                g
            }
        }
    }

    fn queries(preset: Preset) -> usize {
        match preset {
            Preset::Tiny => 2000,
            Preset::Paper | Preset::Scale => 50_000,
        }
    }

    const SHARDS: usize = 8;
    const FAULT_FRAC: f64 = 0.05;
}

impl Experiment for FibThroughput {
    fn name(&self) -> &'static str {
        "fib_throughput"
    }
    fn paper_ref(&self) -> &'static str {
        "Route service"
    }
    fn summary(&self) -> &'static str {
        "compiled FIB tables + sharded route service vs on-demand digit routing"
    }
    fn title(&self, preset: Preset) -> String {
        titled(
            "Compiled forwarding: FIB compile + route-service throughput",
            preset,
        )
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "config",
            "servers",
            "table KiB",
            "compile ms",
            "batch lookups/s",
            "single lookups/s",
            "on-demand routes/s",
            "faulted lookups/s",
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(21)
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        vec![
            ("queries", Self::queries(preset).to_string()),
            ("shards", Self::SHARDS.to_string()),
            ("fault_frac", Self::FAULT_FRAC.to_string()),
        ]
    }
    // Points build fresh topologies: the service consumes its topology and
    // the compile itself is part of what the point times.
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        Self::grid(preset)
            .into_iter()
            .map(|(n, k, h)| PointSpec::pure(format!("ABCCC({n},{k},{h})")))
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let (n, k, h) = Self::grid(ctx.preset)[ctx.index];
        let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
        let topo = Abccc::new(p).map_err(|e| format!("{p}: {e}"))?;

        let t0 = Instant::now();
        let mut svc = RouteService::compile(topo, Self::SHARDS).map_err(|e| format!("{p}: {e}"))?;
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let table_bytes = svc.table().bytes() as u64;

        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed);
        let pairs: Vec<(NodeId, NodeId)> = (0..Self::queries(ctx.preset))
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..p.server_count()) as u32),
                    NodeId(rng.gen_range(0..p.server_count()) as u32),
                )
            })
            .collect();

        // Healthy plane: batched, then single-query, then on-demand.
        let t1 = Instant::now();
        let batch = svc.query_batch(&pairs);
        let batch_qps = pairs.len() as f64 / t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let mut total_link_hops = 0u64;
        for &(s, d) in &pairs {
            let out = svc.query(s, d).map_err(|e| format!("{p}: {e}"))?;
            total_link_hops += out.route.link_hops() as u64;
        }
        let single_qps = pairs.len() as f64 / t2.elapsed().as_secs_f64();

        let digit = DigitRouter::shortest();
        let topo_ref = svc.topo();
        let t3 = Instant::now();
        let mut healthy_matches = 0usize;
        for (&(s, d), compiled) in pairs.iter().zip(&batch) {
            let want = digit
                .route(topo_ref, s, d, None)
                .map_err(|e| e.to_string())?;
            let got = compiled.as_ref().map_err(|e| e.to_string())?;
            if *got == want {
                healthy_matches += 1;
            }
        }
        let on_demand_qps = pairs.len() as f64 / t3.elapsed().as_secs_f64();
        if healthy_matches != pairs.len() {
            return Err(format!(
                "{p}: {}/{} compiled lookups diverged from DigitRouter",
                pairs.len() - healthy_matches,
                pairs.len()
            ));
        }

        // Faulted plane: 5% server faults, batched lookups with fallback.
        let mask = FaultScenario::seeded(ctx.seed)
            .fail_servers_frac(Self::FAULT_FRAC)
            .build(svc.topo().network());
        svc.apply_mask(mask);
        let t4 = Instant::now();
        let faulted = svc.query_batch(&pairs);
        let faulted_qps = pairs.len() as f64 / t4.elapsed().as_secs_f64();
        let faulted_ok = faulted.iter().filter(|r| r.is_ok()).count();
        let faulted_fallbacks = faulted
            .iter()
            .filter(|r| matches!(r, Ok(o) if o.tier > RouteTier::Primary))
            .count();

        let row = FibRow {
            config: p.to_string(),
            servers: p.server_count(),
            table_bytes,
            shards: svc.shard_count(),
            queries: pairs.len(),
            total_link_hops,
            healthy_matches,
            faulted_ok,
            faulted_fallbacks,
            faulted_errors: pairs.len() - faulted_ok,
            patches: svc.patch_count(),
        };
        Ok(vec![Row::one(
            vec![
                row.config.clone(),
                row.servers.to_string(),
                fmt_f(table_bytes as f64 / 1024.0, 1),
                fmt_f(compile_ms, 2),
                fmt_f(batch_qps, 0),
                fmt_f(single_qps, 0),
                fmt_f(on_demand_qps, 0),
                fmt_f(faulted_qps, 0),
            ],
            &row,
        )])
    }
}
