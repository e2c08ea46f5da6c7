//! End-to-end smoke tests of the `abccc-cli` binary: every subcommand is
//! invoked through a real process and its stdout/stderr checked.

use std::process::{Command, Output};
use std::sync::{PoisonError, RwLock};

/// Every test's CLI processes hold this for reading; the perf test, whose
/// `--runs 1` timings would see sibling processes competing for the cores,
/// holds it for writing, so its processes run alone. It guards no data,
/// so a lock poisoned by a failed test is still safe to take.
static CORES: RwLock<()> = RwLock::new(());

/// Runs the CLI without taking [`CORES`].
fn exec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_abccc-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn cli(args: &[&str]) -> Output {
    let _shared = CORES.read().unwrap_or_else(PoisonError::into_inner);
    exec(args)
}

/// The stdout of a run that must succeed.
fn success(args: &[&str], out: Output) -> String {
    assert!(
        out.status.success(),
        "`{args:?}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

fn stdout(args: &[&str]) -> String {
    success(args, cli(args))
}

#[test]
fn props_prints_structure() {
    let out = stdout(&["props", "abccc", "4", "1", "2"]);
    assert!(out.contains("ABCCC(4,1,2)"));
    assert!(out.contains("servers           32"));
    assert!(out.contains("diameter          4 server hops"));
    assert!(out.contains("bisection"));
}

#[test]
fn route_lists_hops() {
    let out = stdout(&["route", "bcube", "3", "1", "0", "8"]);
    assert!(out.contains("BCube(3,1)"));
    assert!(out.contains("server n0"));
    assert!(out.contains("switch"));
    assert!(out.contains("server n8"));
}

#[test]
fn parallel_reports_exact_maximum() {
    let out = stdout(&["parallel", "abccc", "3", "1", "2", "0", "17"]);
    assert!(out.contains("disjoint paths constructed"));
    assert!(out.contains("exact maximum"));
}

#[test]
fn simulate_reports_rates() {
    let out = stdout(&[
        "simulate",
        "abccc",
        "2",
        "1",
        "2",
        "--pattern",
        "permutation",
    ]);
    assert!(out.contains("aggregate"));
    assert!(out.contains("ABT"));
}

#[test]
fn expand_reports_legacy_untouched() {
    let out = stdout(&["expand", "4", "1", "3", "--steps", "2"]);
    assert!(out.contains("legacy NICs added  0"));
    assert!(out.contains("untouched"));
}

#[test]
fn capex_breaks_down_costs() {
    let out = stdout(&["capex", "fattree", "4"]);
    assert!(out.contains("switches"));
    assert!(out.contains("per server"));
}

#[test]
fn dot_emits_graphviz() {
    let out = stdout(&["dot", "abccc", "2", "1", "2"]);
    assert!(out.starts_with("graph "));
    assert!(out.contains(" -- "));
}

#[test]
fn svg_emits_markup() {
    let out = stdout(&["svg", "bcube", "2", "1"]);
    assert!(out.starts_with("<svg"));
    assert!(out.trim_end().ends_with("</svg>"));
}

#[test]
fn broadcast_reports_tree() {
    let out = stdout(&["broadcast", "3", "1", "2", "0"]);
    assert!(out.contains("one-to-all from server 0"));
    assert!(out.contains("tree depth"));
}

#[test]
fn trace_replays_csv() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("trace.csv");
    std::fs::write(&path, "# demo\n0,5,100,0\n3,1,10,50\n").expect("write");
    let out = stdout(&[
        "trace",
        "bcube",
        "3",
        "1",
        "--file",
        path.to_str().expect("utf-8"),
    ]);
    assert!(out.contains("replayed 2 flows"));
    assert!(out.contains("fairness"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn design_ranks_candidates() {
    let out = stdout(&["design", "1000", "--objective", "latency"]);
    assert!(out.contains("candidates reaching"));
    assert!(out.contains("ABCCC("));
}

#[test]
fn bad_family_fails_with_usage() {
    let out = cli(&["props", "nonsense", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown family"));
    assert!(err.contains("usage:"));
}

#[test]
fn help_prints_usage() {
    let out = stdout(&["help"]);
    assert!(out.contains("abccc-cli props"));
    assert!(out.contains("families:"));
}

#[test]
fn out_of_range_server_id_rejected() {
    let out = cli(&["route", "abccc", "2", "1", "2", "0", "999"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("server ids must be <"));
}

#[test]
fn props_json_is_parseable_and_has_bisection() {
    let out = stdout(&["props", "abccc", "4", "1", "2", "--json"]);
    let v: serde::Value = serde_json::from_str(&out).expect("valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    let get = |k: &str| m.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    assert_eq!(get("servers"), Some(&serde::Value::U64(32)));
    assert!(get("exact_bisection_links").is_some());
}

#[test]
fn simulate_json_includes_pattern_and_seed() {
    let out = stdout(&[
        "simulate",
        "abccc",
        "2",
        "1",
        "2",
        "--pattern",
        "permutation",
        "--json",
    ]);
    let v: serde::Value = serde_json::from_str(&out).expect("valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    assert!(m.iter().any(|(k, _)| k == "pattern"));
    assert!(m.iter().any(|(k, _)| k == "seed"));
    assert!(m.iter().any(|(k, _)| k == "aggregate_rate"));
}

#[test]
fn resilience_reports_campaign_summary() {
    let out = stdout(&["resilience", "4", "2", "2", "--trials", "4", "--seed", "1"]);
    assert!(out.contains("`uniform` campaign"));
    assert!(out.contains("route completion"));
    assert!(out.contains("throughput retention"));
    assert!(out.contains("per trial:"));
}

#[test]
fn resilience_json_is_byte_identical_across_runs() {
    let args = [
        "resilience",
        "4",
        "2",
        "2",
        "--trials",
        "4",
        "--seed",
        "7",
        "--json",
    ];
    let a = stdout(&args);
    let b = stdout(&args);
    assert_eq!(a, b, "fixed-seed campaign JSON must be reproducible");
    let v: serde::Value = serde_json::from_str(&a).expect("valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    assert!(m.iter().any(|(k, _)| k == "summary"));
    assert!(a.contains("route_completion"));
}

#[test]
fn resilience_scenarios_and_routers_run() {
    let out = stdout(&[
        "resilience",
        "3",
        "2",
        "2",
        "--scenario",
        "level",
        "--level",
        "1",
        "--router",
        "vlb",
        "--pattern",
        "permutation",
        "--trials",
        "2",
        "--no-throughput",
    ]);
    assert!(out.contains("`level_switches` campaign"));
    assert!(out.contains("router `vlb"));
}

#[test]
fn resilience_accepts_topology_specs() {
    // Spec form of the ABCCC campaign matches the positional form exactly.
    let flags = ["--trials", "4", "--seed", "7", "--json"];
    let positional: Vec<&str> = ["resilience", "4", "2", "2"]
        .into_iter()
        .chain(flags)
        .collect();
    let spec: Vec<&str> = ["resilience", "abccc:4,2,2"]
        .into_iter()
        .chain(flags)
        .collect();
    assert_eq!(stdout(&positional), stdout(&spec));

    // Non-ABCCC families run the campaign on their native routing plane.
    let out = stdout(&[
        "resilience",
        "jellyfish:v=10,r=3,seed=7",
        "--trials",
        "2",
        "--rate",
        "0.1",
        "--pairs",
        "16",
        "--no-throughput",
    ]);
    assert!(out.contains("Jellyfish(v=10,r=3,s=1,seed=7)"));
    assert!(out.contains("router `native`"));
}

#[test]
fn resilience_rejects_cube_scenarios_on_native_plane() {
    let out = cli(&[
        "resilience",
        "spaceshuffle:v=8,seed=7",
        "--scenario",
        "level",
        "--trials",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires an ABCCC topology"));
}

#[test]
fn json_rejected_for_unsupported_subcommand() {
    let out = cli(&["route", "abccc", "2", "1", "2", "0", "3", "--json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--json is not supported"));
}

#[test]
fn trace_flag_prints_spans_and_counters() {
    let out = cli(&[
        "simulate",
        "abccc",
        "2",
        "1",
        "2",
        "--pattern",
        "permutation",
        "--trace",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("flowsim.run"), "missing span: {err}");
    assert!(
        err.contains("flowsim.flows_routed"),
        "missing counter: {err}"
    );
}

#[test]
fn metrics_out_writes_jsonl() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("metrics.jsonl");
    let out = cli(&[
        "props",
        "abccc",
        "2",
        "1",
        "2",
        "--metrics-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success());
    let body = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(!body.is_empty());
    for line in body.lines() {
        let _: serde::Value = serde_json::from_str(line).expect("each line is JSON");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_list_indexes_registry() {
    let out = stdout(&["experiments", "list"]);
    assert!(out.contains("table1_properties"));
    assert!(out.contains("fig17_adversarial"));
    assert!(out.contains("scale_demo"));
    assert!(out.contains("fib_throughput"));
    assert!(out.contains("scale_frontier"));
    assert!(out.contains("arena"));
    assert!(out.contains("traffic_arena"));
    assert!(out.contains("route_server"));
    assert!(out.contains("Figure 11"));
    // One row per registered experiment plus header and trailer.
    assert_eq!(out.lines().count(), 27, "unexpected index length:\n{out}");
}

#[test]
fn experiments_run_prints_table_and_artifacts() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_experiments_{}", std::process::id()));
    let run = cli(&[
        "experiments",
        "run",
        "fig1_diameter",
        "--preset",
        "tiny",
        "--json",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(run.status.success());
    let out = String::from_utf8(run.stdout).expect("utf-8");
    assert!(out.contains("== Figure 1: diameter"));
    assert!(out.contains("[tiny]"));
    // The engine trailer is provenance (wall clock, worker count) and
    // goes to stderr so report stdout is thread-count deterministic.
    assert!(String::from_utf8_lossy(&run.stderr).contains("engine: 1 experiments"));
    assert!(!out.contains("engine:"));
    assert!(dir.join("fig1_diameter.json").is_file());
    assert!(dir.join("fig1_diameter.manifest.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fib_compile_reports_table_stats() {
    let out = stdout(&["fib", "compile", "2", "2", "2"]);
    assert!(out.contains("compiled forwarding table"));
    assert!(out.contains("strategy     destination-aware"));
    assert!(out.contains("servers      24"));
}

#[test]
fn fib_accepts_abccc_specs_only() {
    // The spec form compiles the same table as the positional form
    // (drop the wall-clock `compile time` line before comparing).
    let stable = |out: String| -> String {
        out.lines()
            .filter(|l| !l.contains("compile time"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        stable(stdout(&["fib", "compile", "abccc:2,2,2"])),
        stable(stdout(&["fib", "compile", "2", "2", "2"]))
    );
    // Digit-indexed FIBs have no meaning on random graphs.
    let out = cli(&["fib", "compile", "jellyfish:v=8,r=3,seed=7"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires an ABCCC topology"));
}

#[test]
fn fib_compile_json_table_is_below_the_all_pairs_size() {
    let out = stdout(&["--json", "fib", "compile", "2", "2", "2"]);
    let v: serde::Value = serde_json::from_str(&out).expect("valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    let field = |key: &str| m.iter().find_map(|(k, v)| (k == key).then_some(v));
    assert_eq!(field("servers"), Some(&serde::Value::U64(24)));
    match field("table_bytes") {
        Some(serde::Value::U64(b)) => assert!(*b < 4 * 24 * 24, "table_bytes {b}"),
        other => panic!("table_bytes missing or non-numeric: {other:?}"),
    }
}

#[test]
fn fib_query_walks_the_compiled_table() {
    let out = stdout(&["fib", "query", "2", "2", "2", "0", "17"]);
    assert!(out.contains("via compiled table"));
    assert!(out.contains("tier primary"));
    assert!(out.contains("server n0"));
    assert!(out.contains("server n17"));
}

#[test]
fn fib_bench_digest_is_shard_independent() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_fib_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let d1 = dir.join("digest1.json");
    let d8 = dir.join("digest8.json");
    for (shards, path) in [("1", &d1), ("8", &d8)] {
        let out = stdout(&[
            "fib",
            "bench",
            "2",
            "2",
            "2",
            "--queries",
            "1000",
            "--fail-rate",
            "0.1",
            "--shards",
            shards,
            "--digest",
            path.to_str().expect("utf-8 path"),
        ]);
        assert!(out.contains("lookups/s"));
        assert!(out.contains("route hash"));
    }
    let a = std::fs::read(&d1).expect("digest written");
    let b = std::fs::read(&d8).expect("digest written");
    assert_eq!(a, b, "bench digest must not depend on the shard count");
    let v: serde::Value =
        serde_json::from_str(&String::from_utf8(a).expect("utf-8")).expect("digest is valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    assert!(m.iter().any(|(k, _)| k == "route_hash"));
    assert!(m.iter().any(|(k, _)| k == "fallbacks"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topo_stats_exact_matches_estimate_on_small_net() {
    let exact = stdout(&["topo", "stats", "abccc", "2", "2", "2"]);
    assert!(exact.contains("diameter  6 server hops (exact)"));
    assert!(exact.contains("APL       3.2174"));
    let est = stdout(&["topo", "stats", "abccc", "2", "2", "2", "--estimate"]);
    // 24 servers and 24 default samples: every source is visited, so the
    // sampled numbers coincide with the exact sweep.
    assert!(est.contains("diameter      ≥ 6 server hops"));
    assert!(est.contains("APL           3.2174"));
    assert!(est.contains("bisection     ≤"));
}

#[test]
fn topo_stats_estimate_is_deterministic() {
    let args = [
        "--json",
        "topo",
        "stats",
        "abccc",
        "3",
        "2",
        "2",
        "--estimate",
        "--samples",
        "16",
        "--seed",
        "11",
        "--trials",
        "3",
    ];
    let a = stdout(&args);
    let b = stdout(&args);
    assert_eq!(a, b, "sampled stats must be reproducible for a fixed seed");
    let v: serde::Value = serde_json::from_str(&a).expect("valid JSON");
    let serde::Value::Map(m) = v else {
        panic!("expected object")
    };
    for key in [
        "diameter_lower_bound",
        "apl_mean",
        "apl_ci95",
        "bisection_min_cut",
    ] {
        assert!(m.iter().any(|(k, _)| k == key), "missing `{key}`:\n{a}");
    }
}

#[test]
fn topo_rejects_unknown_subcommand() {
    let out = cli(&["topo", "diameter", "abccc", "2", "1", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topo subcommand"));
}

#[test]
fn fib_rejects_bad_endpoints_and_subcommands() {
    let out = cli(&["fib", "query", "2", "1", "2", "0", "999"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("server ids must be <"));
    let out = cli(&["fib", "decompile", "2", "1", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fib subcommand"));
}

#[test]
fn experiments_run_rejects_unknown_name_and_preset() {
    let out = cli(&["experiments", "run", "fig99_nope", "--preset", "tiny"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
    let out = cli(&["experiments", "run", "--all", "--preset", "huge"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn perf_record_then_diff_is_clean() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_perf_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().expect("utf-8 tmpdir");
    let _alone = CORES.write().unwrap_or_else(PoisonError::into_inner);
    let stdout = |args: &[&str]| success(args, exec(args));
    let record = stdout(&[
        "perf",
        "record",
        "table1_properties",
        "--preset",
        "tiny",
        "--runs",
        "1",
        "--baselines",
        dir_s,
    ]);
    assert!(record.contains("recorded 1 baseline(s)"), "{record}");
    assert!(dir.join("table1_properties.json").exists());
    let diff = stdout(&[
        "--json",
        "perf",
        "diff",
        "table1_properties",
        "--preset",
        "tiny",
        "--runs",
        "1",
        "--baselines",
        dir_s,
    ]);
    assert!(diff.contains("\"ok\": true"), "{diff}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_diff_without_baselines_fails() {
    let out = cli(&[
        "perf",
        "diff",
        "table1_properties",
        "--preset",
        "tiny",
        "--runs",
        "1",
        "--baselines",
        "/nonexistent/abccc_perf_baselines",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no baselines"));
}

#[test]
fn trace_out_produces_a_valid_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_trace_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace = dir.join("trace.json");
    let flame = dir.join("flame.txt");
    stdout(&[
        "--trace-out",
        trace.to_str().expect("utf-8"),
        "--flame-out",
        flame.to_str().expect("utf-8"),
        "fib",
        "bench",
        "2",
        "1",
        "2",
        "--queries",
        "200",
    ]);
    let stat = stdout(&["perf", "trace-stat", trace.to_str().expect("utf-8")]);
    assert!(stat.contains("valid Chrome trace"), "{stat}");
    assert!(!stat.contains(" 0 spans"), "{stat}");
    let folded = std::fs::read_to_string(&flame).expect("flame file");
    assert!(
        folded.lines().any(|l| l.contains("fib.query_batch")),
        "{folded}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn global_flags_before_experiments_keep_its_json_directory() {
    let dir = std::env::temp_dir().join(format!("abccc_cli_trace_exp_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trace = dir.join("trace.json");
    let rows = dir.join("rows");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run = cli(&[
        "--trace-out",
        trace.to_str().expect("utf-8"),
        "experiments",
        "run",
        "table1_properties",
        "--preset",
        "tiny",
        "--json",
        rows.to_str().expect("utf-8"),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(trace.is_file());
    assert!(rows.join("table1_properties.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_rejects_unknown_subcommand() {
    let out = cli(&["perf", "measure"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown perf subcommand"));
}

#[test]
fn fib_bench_reports_hop_quantiles() {
    let out = stdout(&["fib", "bench", "2", "1", "2", "--queries", "500"]);
    assert!(out.contains("link hops"), "{out}");
    assert!(out.contains("p50≤"), "{out}");
    assert!(out.contains("p9999≤"), "{out}");
    assert!(out.contains("lookup ns"), "{out}");
}

#[test]
fn sim_list_prints_catalog() {
    let out = stdout(&["sim", "list"]);
    for name in [
        "all_reduce",
        "all_to_all",
        "incast",
        "storage_rebuild",
        "diurnal",
    ] {
        assert!(out.contains(name), "catalog missing {name}:\n{out}");
    }
}

#[test]
fn sim_run_reports_scenario() {
    let out = stdout(&[
        "sim", "run", "incast", "abccc", "2", "1", "2", "--seed", "7",
    ]);
    assert!(out.contains("`incast`"));
    assert!(out.contains("packet"));
    assert!(out.contains("offered"));
    assert!(out.contains("fct p50/p99/p999"));
}

#[test]
fn sim_run_emits_json_with_midflow_fault() {
    let out = stdout(&["--json", "sim", "run", "storage_rebuild", "fattree:6"]);
    assert!(out.contains("\"scenario\": \"storage_rebuild\""));
    assert!(out.contains("\"faults_fired\": 1"));
    assert!(out.contains("\"per_flow\""));
}

#[test]
fn sim_rejects_unknown_scenario() {
    let out = cli(&["sim", "run", "nope", "abccc", "2", "1", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

#[test]
fn loadgen_reports_throughput_and_digest() {
    let out = stdout(&[
        "loadgen",
        "2",
        "1",
        "2",
        "--connections",
        "2",
        "--frames",
        "16",
        "--batch",
        "4",
        "--window",
        "2",
        "--seed",
        "7",
    ]);
    assert!(out.contains("2 connections × 16 frames × 4 pairs"));
    assert!(out.contains("requests       128"));
    assert!(out.contains("rejects        0"));
    assert!(out.contains("lookups/s over TCP"));
    assert!(out.contains("digest         0x"));
}

#[test]
fn loadgen_json_digest_is_seed_stable() {
    let args = [
        "--json",
        "loadgen",
        "abccc:2,1,2",
        "--connections",
        "2",
        "--frames",
        "16",
        "--batch",
        "4",
        "--window",
        "2",
        "--seed",
        "7",
    ];
    let digest_of = |out: String| -> String {
        out.lines()
            .find(|l| l.contains("\"digest\""))
            .expect("digest field")
            .to_string()
    };
    let a = digest_of(stdout(&args));
    let b = digest_of(stdout(&args));
    assert_eq!(a, b, "fixed seed must reproduce the digest");
    assert!(stdout(&args).contains("\"drained_connections\": 2"));
}

#[test]
fn loadgen_accepts_abccc_specs_only() {
    let out = cli(&["loadgen", "fattree:4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires an ABCCC topology"));
}

#[test]
fn serve_binds_ephemeral_port_and_drains_on_stdin_eof() {
    // `--port 0` binds an ephemeral port; with stdin already at EOF the
    // server prints the bound address, drains and exits 0.
    let out = cli(&["serve", "abccc:2,1,2", "--port", "0", "--shards", "3"]);
    assert!(out.status.success(), "serve must exit 0 on stdin EOF");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("listening on 127.0.0.1:"));
    // Shard counts round to the next power of two, visible in the banner.
    assert!(text.contains("shards 4"));
    assert!(text.contains("drained 0 connection(s) at epoch 0"));
}

#[test]
fn serve_rejects_json_flag() {
    let out = cli(&["--json", "serve", "2", "1", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--json is not supported"));
}

/// Asserts that `args` exits 1 with a one-line `error:` naming `flag`,
/// followed by the usage of that command only.
fn refuses(args: &[&str], flag: &str) {
    let out = cli(args);
    assert_eq!(out.status.code(), Some(1), "`{args:?}` must exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    let mut lines = err.lines();
    let first = lines.next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(flag),
        "{err}"
    );
    assert_eq!(lines.next(), Some(""), "one-line error: {err}");
    assert_eq!(lines.next(), Some("usage:"), "{err}");
    assert!(
        !err.contains("abccc-cli props"),
        "usage of that command only: {err}"
    );
}

#[test]
fn unknown_flags_are_refused() {
    refuses(
        &["fib", "bench", "2", "2", "2", "--querys", "10"],
        "--querys",
    );
    refuses(&["serve", "2", "1", "2", "--prot", "0"], "--prot");
    refuses(
        &["loadgen", "2", "2", "2", "--connection", "3"],
        "--connection",
    );
}

#[test]
fn valueless_flag_is_refused() {
    refuses(&["fib", "bench", "2", "2", "2", "--queries"], "--queries");
}

#[test]
fn repeated_flag_is_refused() {
    refuses(
        &[
            "fib",
            "bench",
            "2",
            "2",
            "2",
            "--queries",
            "5",
            "--queries",
            "7",
        ],
        "--queries",
    );
}

#[test]
fn fail_rate_above_one_is_refused() {
    refuses(
        &["fib", "bench", "2", "2", "2", "--fail-rate", "7"],
        "--fail-rate",
    );
}

#[test]
fn negative_fail_rate_is_refused() {
    refuses(
        &["fib", "query", "2", "2", "2", "0", "5", "--fail-rate", "-1"],
        "--fail-rate",
    );
}

#[test]
fn nan_fail_rate_is_refused() {
    refuses(
        &[
            "fib",
            "query",
            "2",
            "2",
            "2",
            "0",
            "5",
            "--fail-rate",
            "NaN",
        ],
        "--fail-rate",
    );
}

#[test]
fn port_above_u16_is_refused() {
    refuses(&["serve", "2", "2", "2", "--port", "70000"], "--port");
}

#[test]
fn level_above_u32_is_refused() {
    refuses(
        &[
            "resilience",
            "2",
            "2",
            "2",
            "--scenario",
            "level",
            "--level",
            "4294967297",
        ],
        "--level",
    );
}

#[test]
fn fib_query_reads_endpoints_after_a_spec() {
    assert_eq!(
        stdout(&["fib", "query", "abccc:2,2,2", "0", "5"]),
        stdout(&["fib", "query", "2", "2", "2", "0", "5"])
    );
}

#[test]
fn parallel_accepts_a_spec() {
    assert_eq!(
        stdout(&["parallel", "abccc:2,2,2", "0", "5"]),
        stdout(&["parallel", "abccc", "2", "2", "2", "0", "5"])
    );
}

#[test]
fn repeated_spec_keys_are_refused() {
    let out = cli(&["topo", "stats", "jellyfish:v=8,v=16,r=3,seed=7"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`v` is given more than once"), "{err}");
}

#[test]
fn errors_escape_control_bytes_from_argv() {
    for args in [
        &["experiments", "run", "fig1\u{1b}[31mred"][..],
        &["topo", "stats", "jellyfish:v=8,r=3,z\u{1b}=1"],
        &["props", "abccc", "2", "2", "\u{7}2"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "`{args:?}` must exit 1");
        let control = out
            .stderr
            .iter()
            .find(|&&b| b.is_ascii_control() && b != b'\n');
        assert_eq!(control, None, "`{args:?}` echoed a control byte");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("\\u{"), "the byte is shown escaped: {err}");
    }
}
