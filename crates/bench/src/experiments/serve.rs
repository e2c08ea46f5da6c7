//! The route-server saturation experiment: the `dcn-serve` loopback load
//! generator swept over shard count × connections × batch size.
//!
//! Every row's JSON record carries only deterministic fields — the config
//! echo, request/reject tallies and the FNV reply digest — so artifacts
//! are byte-identical at any engine worker-thread count. Wall-clock
//! throughput and client RTT quantiles appear in the stdout cells only
//! (the `fib_throughput` convention).

use super::titled;
use crate::fmt_f;
use crate::registry::{Experiment, PointCtx, PointSpec, Preset, Row};
use abccc::{Abccc, AbcccParams};
use dcn_fib::RouteService;
use dcn_serve::loadgen::{run_loopback, LoadgenConfig};
use dcn_serve::ServeConfig;
use netgraph::mix_seed;
use serde::Serialize;

/// The deterministic slice of a saturation row.
#[derive(Serialize)]
struct ServeRow {
    config: String,
    shards: usize,
    connections: usize,
    frames: usize,
    batch: usize,
    window: usize,
    seed: u64,
    requests: u64,
    ok: u64,
    route_errors: u64,
    rejects: u64,
    digest: String,
}

/// TCP route-server saturation sweep.
pub struct RouteServerExperiment;

impl RouteServerExperiment {
    fn grid(preset: Preset) -> (u32, u32, u32) {
        match preset {
            Preset::Tiny => (2, 2, 2),
            Preset::Paper | Preset::Scale => (3, 2, 2),
        }
    }

    /// Shard counts — one experiment point each.
    fn shard_points(preset: Preset) -> Vec<usize> {
        match preset {
            Preset::Tiny => vec![1, 4],
            Preset::Paper => vec![1, 4, 8],
            Preset::Scale => vec![1, 4, 8, 16],
        }
    }

    /// (connections, batch) combos swept inside each point.
    fn combos(preset: Preset) -> Vec<(usize, usize)> {
        match preset {
            Preset::Tiny => vec![(2, 4), (4, 8)],
            Preset::Paper => vec![(2, 1), (4, 16), (8, 64)],
            // (8, 256) is the saturation point: >1M lookups/s over TCP in
            // release builds (window 8 × batch 256 = 2048, half the budget).
            Preset::Scale => vec![(2, 1), (4, 16), (8, 64), (8, 256)],
        }
    }

    fn frames(preset: Preset) -> usize {
        match preset {
            Preset::Tiny => 32,
            Preset::Paper => 256,
            Preset::Scale => 512,
        }
    }

    /// Pipeline window: with the default 4096-item budget, the largest
    /// combo (window × batch = 8 × 64 = 512) never saturates — rejects
    /// would be timing-dependent and break artifact determinism.
    const WINDOW: usize = 8;
}

impl Experiment for RouteServerExperiment {
    fn name(&self) -> &'static str {
        "route_server"
    }
    fn paper_ref(&self) -> &'static str {
        "Route service"
    }
    fn summary(&self) -> &'static str {
        "TCP route-server saturation: shard x connection x batch loopback sweep"
    }
    fn title(&self, preset: Preset) -> String {
        titled("Route server: loopback saturation sweep", preset)
    }
    fn headers(&self) -> &'static [&'static str] {
        &[
            "config",
            "shards",
            "conns",
            "batch",
            "requests",
            "rejects",
            "lookups/s",
            "rtt p50 ns",
            "rtt p99 ns",
            "digest",
        ]
    }
    fn base_seed(&self) -> Option<u64> {
        Some(25)
    }
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)> {
        vec![
            ("frames", Self::frames(preset).to_string()),
            ("window", Self::WINDOW.to_string()),
        ]
    }
    // Each combo compiles a fresh service (the server consumes it), so
    // points skip the shared topology cache.
    fn points(&self, preset: Preset) -> Vec<PointSpec> {
        let (n, k, h) = Self::grid(preset);
        Self::shard_points(preset)
            .into_iter()
            .map(|s| PointSpec::pure(format!("ABCCC({n},{k},{h}) shards={s}")))
            .collect()
    }
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String> {
        let (n, k, h) = Self::grid(ctx.preset);
        let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
        let shards = Self::shard_points(ctx.preset)[ctx.index];
        let frames = Self::frames(ctx.preset);

        let mut rows = Vec::new();
        for (ci, (connections, batch)) in Self::combos(ctx.preset).into_iter().enumerate() {
            let topo = Abccc::new(p).map_err(|e| format!("{p}: {e}"))?;
            let svc = RouteService::compile(topo, shards).map_err(|e| format!("{p}: {e}"))?;
            // Seed from the combo alone, NOT the point: the same combo at
            // a different shard count must reproduce the same digest, so
            // every artifact doubles as a shard-invariance pin.
            let cfg = LoadgenConfig {
                connections,
                frames,
                batch,
                window: Self::WINDOW,
                seed: mix_seed(self.base_seed().unwrap_or(0), ci as u64),
            };
            let (report, drain) = run_loopback(svc, ServeConfig::default(), &cfg)
                .map_err(|e| format!("{p} shards={shards}: {e}"))?;
            if report.rejects != 0 {
                return Err(format!(
                    "{p} shards={shards}: {} rejects under a window-bounded load",
                    report.rejects
                ));
            }
            if drain.connections != connections {
                return Err(format!(
                    "{p} shards={shards}: drained {} of {connections} connections",
                    drain.connections
                ));
            }
            let row = ServeRow {
                config: p.to_string(),
                shards,
                connections,
                frames,
                batch: report.batch,
                window: report.window,
                seed: cfg.seed,
                requests: report.requests,
                ok: report.ok,
                route_errors: report.route_errors,
                rejects: report.rejects,
                digest: report.digest.clone(),
            };
            rows.push(Row::one(
                vec![
                    row.config.clone(),
                    shards.to_string(),
                    connections.to_string(),
                    row.batch.to_string(),
                    row.requests.to_string(),
                    row.rejects.to_string(),
                    fmt_f(report.lookups_per_sec, 0),
                    report.rtt_p50_ns.to_string(),
                    report.rtt_p99_ns.to_string(),
                    row.digest.clone(),
                ],
                &row,
            ));
        }
        Ok(rows)
    }
}
