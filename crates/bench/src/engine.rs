//! The shared sweep engine.
//!
//! [`run`] executes a set of registered [`Experiment`]s at one
//! [`Preset`]: it prewarms the unique topologies the grids declare, then
//! spreads every grid point of every experiment over
//! [`netgraph::par::map_indexed`] workers that share one [`TopoCache`] —
//! so two experiments sweeping the same `(family, n, k, h)` reuse one
//! constructed `Network` and one fused all-pairs distance sweep instead
//! of rebuilding per experiment.
//!
//! Determinism: every point's randomness derives from
//! [`Experiment::point_seed`], and results come back in `(experiment,
//! point)` order before assembly — so stdout tables and the JSON rows
//! artifacts are byte-identical for a fixed seed at any thread count.
//! Only the `<name>.manifest.json` provenance files carry wall-clock
//! timings and are excluded from that guarantee.

use crate::cache::{TopoCache, TopoKey};
use crate::registry::{Experiment, PointCtx, Preset, Row};
use crate::Table;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Options for one engine run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Scale preset selecting each experiment's grid.
    pub preset: Preset,
    /// Worker threads; `0` uses the available parallelism.
    pub threads: usize,
    /// Directory for `<name>.json` rows + `<name>.manifest.json`
    /// artifacts; created if missing. `None` writes no artifacts.
    pub json_dir: Option<PathBuf>,
    /// Print each experiment's stdout table + footer + config line.
    pub print_tables: bool,
    /// Print the engine summary line (cache sharing, wall-clock) at the
    /// end of the run.
    pub print_summary: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            preset: Preset::Paper,
            threads: 0,
            json_dir: None,
            print_tables: true,
            print_summary: false,
        }
    }
}

/// Per-experiment outcome of an engine run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Registry name.
    pub name: &'static str,
    /// Grid points executed.
    pub points: usize,
    /// Table rows produced.
    pub rows: usize,
    /// JSON records contributed to the rows artifact.
    pub records: usize,
}

/// What one engine run did — the logged measurement behind the
/// "one engine run beats 20 sequential binaries" claim.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Preset the run executed.
    pub preset: Preset,
    /// Worker threads used.
    pub threads: usize,
    /// Per-experiment outcomes, in registry order.
    pub experiments: Vec<ExperimentOutcome>,
    /// Topology-cache hits across the run.
    pub cache_hits: u64,
    /// Topology-cache misses (actual constructions).
    pub cache_misses: u64,
    /// Distinct topologies materialized.
    pub cache_entries: usize,
    /// End-to-end wall clock, milliseconds.
    pub wall_ms: f64,
    /// Per-experiment provenance manifests, in registry order — the same
    /// records written as `<name>.manifest.json` under `json_dir`, kept
    /// in memory so callers (the perf sentinel) can consume them without
    /// an artifact directory.
    pub manifests: Vec<dcn_telemetry::RunManifest>,
}

impl EngineReport {
    /// Total grid points executed.
    pub fn total_points(&self) -> usize {
        self.experiments.iter().map(|e| e.points).sum()
    }

    /// Total JSON records produced.
    pub fn total_records(&self) -> usize {
        self.experiments.iter().map(|e| e.records).sum()
    }

    /// The one-line summary printed under `print_summary`.
    pub fn summary_line(&self) -> String {
        format!(
            "engine: {} experiments, {} points, {} records in {:.0} ms \
             (preset={}, threads={}, topo cache: {} built, {} reused)",
            self.experiments.len(),
            self.total_points(),
            self.total_records(),
            self.wall_ms,
            self.preset,
            self.threads,
            self.cache_misses,
            self.cache_hits,
        )
    }
}

/// Runs `specs` at the given options.
///
/// # Errors
///
/// Returns the first failing point (`<experiment>[<label>]: message`) or
/// artifact-write failure. Artifact errors are hard: a missing or
/// unwritable `json_dir` aborts the run instead of silently dropping data.
///
/// # Panics
///
/// Propagates panics from experiment point functions.
pub fn run(specs: &[&'static dyn Experiment], opts: &RunOptions) -> Result<EngineReport, String> {
    let t0 = Instant::now();
    let preset = opts.preset;

    // Manifests carry memory provenance (peak RSS + `*_bytes` allocation
    // gauges), and gauges only record while telemetry is on — turn it on
    // for the sweep, restoring the caller's choice afterwards.
    let _telemetry = TelemetryScope::enable();

    // Root of the run's causal span tree. Worker-side spans parent under
    // it explicitly (they run on other threads, where the thread-local
    // stack cannot see it).
    let run_span = dcn_telemetry::SpanGuard::enter("bench.engine.run");
    let run_id = run_span.id();

    // Create the artifact directory up front so write failures surface
    // before any compute is spent.
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create artifact dir {}: {e}", dir.display()))?;
    }

    // Materialize every grid up front; tasks are (experiment, point) pairs.
    let grids: Vec<Vec<crate::registry::PointSpec>> =
        specs.iter().map(|s| s.points(preset)).collect();
    let tasks: Vec<(usize, usize)> = grids
        .iter()
        .enumerate()
        .flat_map(|(si, g)| (0..g.len()).map(move |pi| (si, pi)))
        .collect();

    let cache = TopoCache::new();

    // Phase 1 — prewarm: build each unique declared topology exactly once,
    // in parallel, so no two points race to construct the same key and the
    // expensive builds don't serialize behind unrelated points. Build
    // errors are deferred to the points that actually use the key.
    let unique_keys: Vec<TopoKey> = {
        let mut seen = std::collections::HashSet::new();
        grids
            .iter()
            .flatten()
            .flat_map(|p| p.topos.iter().cloned())
            .filter(|k| seen.insert(k.clone()))
            .collect()
    };
    netgraph::par::map_indexed(
        unique_keys.len(),
        opts.threads,
        || (),
        |(), i| {
            let _span = dcn_telemetry::SpanGuard::enter_under("bench.engine.prewarm", run_id);
            let _ = cache.get(&unique_keys[i]);
        },
        drop,
    );

    // Phase 2 — execute every point; results come back in (experiment,
    // point) order.
    let (slots, workers) = netgraph::par::map_indexed(
        tasks.len(),
        opts.threads,
        || (),
        |(), t| {
            let (si, pi) = tasks[t];
            let spec = specs[si];
            let ctx = PointCtx {
                preset,
                index: pi,
                seed: spec.point_seed(preset, pi),
                cache: &cache,
            };
            let started = Instant::now();
            let result = {
                // Two causal levels per point: the experiment the point
                // belongs to (parented under the run root, so the tree
                // reads run → experiment → point even across worker
                // threads), then the point itself.
                let _exp_span = dcn_telemetry::SpanGuard::enter_under(spec.name(), run_id);
                let _span = dcn_telemetry::span!("bench.engine.point");
                spec.run_point(&ctx)
            };
            let dur_ns = started.elapsed().as_nanos() as u64;
            dcn_telemetry::histogram!("bench.engine.point_ns").record(dur_ns);
            (result, dur_ns)
        },
        drop,
    );
    let threads = workers.len();

    // Phase 3 — assemble in registry order: tables, artifacts, manifests.
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut manifests = Vec::with_capacity(specs.len());
    let mut slots = slots.into_iter();
    for (si, spec) in specs.iter().enumerate() {
        let grid = &grids[si];
        let mut rows: Vec<Row> = Vec::new();
        let mut point_ns: Vec<u64> = Vec::with_capacity(grid.len());
        for point in grid {
            let (result, dur_ns) = slots.next().expect("one result per task");
            point_ns.push(dur_ns);
            let mut point_rows =
                result.map_err(|e| format!("{}[{}]: {e}", spec.name(), point.label))?;
            rows.append(&mut point_rows);
        }

        if opts.print_tables {
            let mut table = Table::new(&spec.title(preset), spec.headers());
            for row in &rows {
                table.add_row(row.cells.clone());
            }
            table.print();
            for line in spec.footer(preset) {
                println!("{line}");
            }
        }

        let manifest = build_manifest(*spec, preset, grid, &point_ns, threads);
        if opts.print_tables {
            println!("{}", manifest.config_line());
        }

        let records: Vec<Value> = rows
            .iter()
            .flat_map(|r| r.records.iter().cloned())
            .collect();
        let record_count = records.len();
        if let Some(dir) = &opts.json_dir {
            let rows_path = dir.join(format!("{}.json", spec.name()));
            let json = serde_json::to_string_pretty(&Value::Seq(records))
                .map_err(|e| format!("cannot serialize {}: {e}", spec.name()))?;
            std::fs::write(&rows_path, json)
                .map_err(|e| format!("cannot write {}: {e}", rows_path.display()))?;
            let manifest_path = dir.join(format!("{}.manifest.json", spec.name()));
            manifest
                .write(&manifest_path)
                .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
        }
        manifests.push(manifest);

        outcomes.push(ExperimentOutcome {
            name: spec.name(),
            points: grid.len(),
            rows: rows.len(),
            records: record_count,
        });
    }

    let (cache_hits, cache_misses) = cache.stats();
    let report = EngineReport {
        preset,
        threads,
        experiments: outcomes,
        cache_hits,
        cache_misses,
        cache_entries: cache.len(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        manifests,
    };
    if opts.print_summary {
        // The trailer carries run provenance (wall clock, worker count,
        // cache traffic) that varies between otherwise identical runs, so
        // it goes to stderr: report stdout stays byte-identical across
        // thread counts.
        eprintln!("{}", report.summary_line());
    }
    Ok(report)
}

/// Re-disables telemetry on drop unless it was already on when the engine
/// started (e.g. under the CLI's `--trace`).
struct TelemetryScope {
    was_on: bool,
}

impl TelemetryScope {
    fn enable() -> TelemetryScope {
        let was_on = dcn_telemetry::enabled();
        dcn_telemetry::set_enabled(true);
        TelemetryScope { was_on }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if !self.was_on {
            dcn_telemetry::set_enabled(false);
        }
    }
}

/// Builds the per-experiment provenance manifest: declared parameters,
/// base seed, the distinct topologies the grid touched, and per-point
/// timing as an aggregated phase.
fn build_manifest(
    spec: &dyn Experiment,
    preset: Preset,
    grid: &[crate::registry::PointSpec],
    point_ns: &[u64],
    threads: usize,
) -> dcn_telemetry::RunManifest {
    let mut manifest = dcn_telemetry::RunManifest::new(spec.name());
    manifest.param("preset", preset);
    for (k, v) in spec.manifest_params(preset) {
        manifest.param(k, v);
    }
    if let Some(seed) = spec.base_seed() {
        manifest.seed(seed);
    }
    let mut seen = std::collections::HashSet::new();
    for point in grid {
        for key in &point.topos {
            let label = key.label();
            if seen.insert(label.clone()) {
                manifest.topology(label);
            }
        }
    }
    manifest.phases = vec![dcn_telemetry::PhaseAgg {
        name: "engine.point".to_string(),
        count: point_ns.len() as u64,
        total_ns: point_ns.iter().sum(),
        max_ns: point_ns.iter().copied().max().unwrap_or(0),
        threads: threads.min(point_ns.len().max(1)) as u32,
    }];
    // The sweep interleaves experiments, so per-experiment "wall" time is
    // the summed point time — the thread-count-independent figure the
    // perf sentinel guards.
    manifest.wall_ns(point_ns.iter().sum());
    // Memory and histogram provenance: the process high-water mark,
    // whatever `*_bytes` allocation gauges the run's experiments set, and
    // the registry's histogram quantiles (process-level — shared across
    // the manifests of one sweep). Wall-clock, memory and quantiles live
    // only here — never in the row JSON, which must stay byte-identical
    // across runs.
    manifest.measure_memory();
    manifest.capture_histograms();
    manifest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_print_tables_only() {
        let opts = RunOptions::default();
        assert_eq!(opts.preset, Preset::Paper);
        assert!(opts.print_tables);
        assert!(!opts.print_summary);
        assert!(opts.json_dir.is_none());
    }

    #[test]
    fn summary_line_reports_cache_sharing() {
        let report = EngineReport {
            preset: Preset::Tiny,
            threads: 4,
            experiments: vec![ExperimentOutcome {
                name: "x",
                points: 2,
                rows: 3,
                records: 4,
            }],
            cache_hits: 7,
            cache_misses: 2,
            cache_entries: 2,
            wall_ms: 12.0,
            manifests: Vec::new(),
        };
        let line = report.summary_line();
        assert!(line.contains("1 experiments"));
        assert!(line.contains("2 built, 7 reused"));
        assert_eq!(report.total_points(), 2);
        assert_eq!(report.total_records(), 4);
    }
}
