//! `abccc-cli` — build, inspect, route and simulate ABCCC and baseline
//! topologies from the command line.
//!
//! ```text
//! abccc-cli props    abccc 4 2 3            # structural properties
//! abccc-cli route    abccc 4 2 3 0 127      # one-to-one route with addresses
//! abccc-cli parallel abccc 4 2 3 0 127      # disjoint parallel paths
//! abccc-cli simulate abccc 4 2 3 --pattern permutation --seed 7
//! abccc-cli expand   4 2 3 --steps 3        # expansion plan
//! abccc-cli capex    abccc 4 2 3            # cost breakdown
//! abccc-cli experiments run --all --preset tiny   # full paper sweep, small grids
//! ```
//!
//! Families: `abccc n k h`, `bccc n k`, `bcube n k`, `dcell n k`,
//! `fattree p`, `ghc n d` — or any one-token spec such as `abccc:4,2,3`,
//! `jellyfish:seed=7,r=4,v=64`, `spaceshuffle:seed=7,d=3,v=64`.
//!
//! Global flags (any command): `--trace` prints a telemetry summary to
//! stderr on exit; `--metrics-out FILE` writes the raw span/metric events
//! as JSON lines; `--trace-out FILE` writes a Chrome Trace Event JSON
//! (open in `chrome://tracing` or Perfetto); `--flame-out FILE` writes
//! folded flamegraph stacks. Metric-producing subcommands additionally
//! accept `--json` to emit their report as JSON instead of the aligned
//! table.

use abccc::{Abccc, AbcccParams};
use dcn_baselines::*;
use netgraph::{NodeId, Topology};
use serde::{Serialize, Value};
use std::process::ExitCode;

/// Global flags stripped from the argument list before dispatch.
struct CliOptions {
    /// Print a human-readable telemetry summary to stderr on exit.
    trace: bool,
    /// Write span/metric events as JSON lines to this path on exit.
    metrics_out: Option<String>,
    /// Write a Chrome Trace Event JSON to this path on exit.
    trace_out: Option<String>,
    /// Write folded flamegraph stacks to this path on exit.
    flame_out: Option<String>,
    /// Subcommand output as JSON instead of an aligned table.
    json: bool,
}

impl CliOptions {
    fn extract(args: &mut Vec<String>) -> CliOptions {
        let trace = take_flag(args, "--trace");
        let metrics_out = take_flag_value(args, "--metrics-out");
        let trace_out = take_flag_value(args, "--trace-out");
        let flame_out = take_flag_value(args, "--flame-out");
        // For `experiments` the `--json` flag takes a directory operand
        // and is parsed by the subcommand itself; everywhere else it is a
        // boolean toggling JSON report output. The subcommand is only
        // first once the global flags and their values are gone.
        let experiments = args.first().is_some_and(|a| a == "experiments");
        CliOptions {
            trace,
            metrics_out,
            trace_out,
            flame_out,
            json: !experiments && take_flag(args, "--json"),
        }
    }

    /// Whether any global flag needs telemetry recording turned on.
    fn wants_telemetry(&self) -> bool {
        self.trace
            || self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.flame_out.is_some()
    }
}

/// Removes `flag` from `args`; returns whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `flag` and its value from `args`; returns the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Drains recorded telemetry into whichever sinks the flags selected.
fn finish_telemetry(opts: &CliOptions) {
    if !dcn_telemetry::enabled() {
        return;
    }
    let spans = dcn_telemetry::drain_spans();
    let metrics = dcn_telemetry::registry().snapshot();
    if opts.trace {
        eprint!("{}", dcn_telemetry::render_summary(&spans, &metrics));
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = dcn_telemetry::write_jsonl(path, &spans, &metrics) {
            eprintln!("warning: writing {path}: {e}");
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, dcn_telemetry::chrome_trace_json(&spans)) {
            eprintln!("warning: writing {path}: {e}");
        }
    }
    if let Some(path) = &opts.flame_out {
        if let Err(e) = std::fs::write(path, dcn_telemetry::folded_stacks(&spans)) {
            eprintln!("warning: writing {path}: {e}");
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = CliOptions::extract(&mut args);
    if opts.wants_telemetry() {
        dcn_telemetry::set_enabled(true);
    }
    // Exiting quietly when stdout closes early (`abccc-cli … | head`) is
    // friendlier than the default broken-pipe panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("Broken pipe"));
        if !broken_pipe {
            default_hook(info);
        }
    }));
    let outcome = std::panic::catch_unwind(|| run(&args, &opts));
    match outcome {
        Ok(Ok(code)) => {
            finish_telemetry(&opts);
            code
        }
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if msg.contains("Broken pipe") {
                ExitCode::SUCCESS
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

const USAGE: &str = "usage:
  abccc-cli props    <family…>              structural properties (+diameter for small nets)
  abccc-cli route    <family…> <src> <dst>  one-to-one route (native algorithm)
  abccc-cli parallel <family…> <src> <dst>  vertex-disjoint parallel paths (abccc/bccc only)
  abccc-cli simulate <family…> [--pattern permutation|bisection|alltoall] [--seed N]
  abccc-cli expand   <n> <k> <h> [--steps N]  ABCCC expansion plan
  abccc-cli capex    <family…>              CAPEX breakdown (default cost model)
  abccc-cli dot      <family…> [<src> <dst>]  Graphviz DOT (route highlighted if given)
  abccc-cli broadcast <n> <k> <h> <src>      one-to-all tree statistics
  abccc-cli svg      <family…> [<src> <dst>] [--out FILE]  SVG rendering
  abccc-cli trace    <family…> --file TRACE.csv            replay a CSV flow trace
  abccc-cli design   <target-servers> [--objective cost|latency|bandwidth]
  abccc-cli resilience <spec>|<n> <k> <h> [--scenario uniform|groups|level|flapping]
      [--rate R] [--link-rate R] [--groups N] [--level N] [--steps N]
      [--router resilient|digit|vlb] [--no-bfs] [--pattern random|permutation|convergent]
      [--pairs N] [--trials N] [--seed N] [--threads N] [--no-throughput]
                                             seeded fault campaign with degradation
                                             report (any family; non-ABCCC specs run
                                             on their native routing plane)
  abccc-cli fib compile <spec>|<n> <k> <h> [--layout hier|dense]
                                             compile the forwarding table, print stats
                                             (fib/serve/loadgen: --layout defaults to
                                             hier; dense expands it to all N² pairs)
  abccc-cli fib query   <spec>|<n> <k> <h> <src> <dst> [--shards N] [--layout hier|dense]
      [--fail-rate R] [--fail-seed S]        answer one query from the compiled table
  abccc-cli fib bench   <spec>|<n> <k> <h> [--queries N] [--seed N] [--shards N]
      [--fail-rate R] [--layout hier|dense] [--digest FILE]
                                             batched route-service throughput; --digest
                                             writes a deterministic result digest (JSON)
  abccc-cli serve  <spec>|<n> <k> <h> [--port P] [--shards N] [--layout hier|dense]
      [--max-inflight N] [--max-batch N]      serve the compiled FIB over TCP
                                             (127.0.0.1, --port 0 = ephemeral; prints
                                             the bound address, runs until stdin EOF,
                                             then drains and exits 0)
  abccc-cli loadgen <spec>|<n> <k> <h> [--connections N] [--frames N] [--batch N]
      [--window N] [--seed N] [--shards N] [--layout hier|dense]
                                             loopback load generator: spawn a server,
                                             drive it, report throughput + RTT
                                             quantiles + the deterministic digest
  abccc-cli topo stats  <family…> [--estimate [--samples N] [--seed S] [--trials T]]
                                             graph metrics; --estimate uses seeded
                                             sampling (diameter lower bound, APL ± CI,
                                             bisection upper bound) at any scale
  abccc-cli experiments list                 index of registered paper experiments
  abccc-cli sim list                         production scenario catalog (unified engine)
  abccc-cli sim run <scenario> <family…> [--seed N]
                                             run one workload scenario through the
                                             unified traffic engine; reports the FCT
                                             distribution, goodput, and fault impact
  abccc-cli experiments run <name…> | --all [--preset tiny|paper|scale]
      [--json DIR] [--threads N]             run experiments through the sweep engine
                                             (--json here takes a directory for rows +
                                             manifest artifacts)
  abccc-cli perf record [<name…> | --all] [--preset tiny|paper|scale] [--runs N]
      [--threads N] [--baselines DIR]        run experiments N times, store the
                                             median perf figures as baselines
                                             (default: all, tiny, 3 runs,
                                             bench_results/baselines)
  abccc-cli perf diff   [<name…> | --all] [--preset tiny|paper|scale] [--runs N]
      [--threads N] [--baselines DIR] [--rel R]
                                             re-measure and compare against stored
                                             baselines; exits nonzero on regression
                                             (noise-aware: relative + absolute gates)
  abccc-cli perf trace-stat FILE             validate a --trace-out Chrome trace and
                                             print its span/lane/root counts

families: abccc n k h | bccc n k | bcube n k | dcell n k | fattree p | ghc n d
  every <family…> also accepts one-token specs — `abccc:4,2,3`, `fattree:6`,
  `jellyfish:seed=7,r=4,v=64`, `spaceshuffle:seed=7,d=3,v=64` (the canonical
  round-trip form printed by `topo stats`); jellyfish/spaceshuffle are spec-only

global flags:
  --trace              print a telemetry summary (spans + counters) to stderr
  --metrics-out FILE   write raw telemetry events as JSON lines to FILE
  --trace-out FILE     write a Chrome Trace Event JSON (chrome://tracing, Perfetto)
  --flame-out FILE     write folded flamegraph stacks (self-time weighted)
  --json               JSON report instead of a table
                       (props/simulate/sim/capex/trace/broadcast/resilience/fib/topo/perf/loadgen)";

type DynTopo = Box<dyn Topology>;

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("{what}: expected a number, got `{s}`"))
}

/// Whether an argument is a one-token topology spec (`abccc:4,2,3`,
/// `jellyfish:v=64,r=4`, or the label form `ABCCC(4,2,3)`) rather than a
/// legacy `family n k …` head.
fn is_topology_spec(arg: &str) -> bool {
    arg.contains(':') || arg.contains('(')
}

/// Parses either a one-token canonical spec (any registered family,
/// including `jellyfish:…` and `spaceshuffle:…`) or the legacy
/// `family params…` form, returning the topology plus how many args it
/// consumed.
fn parse_topology(args: &[String]) -> Result<(DynTopo, usize), String> {
    let family = args.first().ok_or("missing topology family")?;
    if is_topology_spec(family) {
        let topo: DynTopo = family::build_spec(family).map_err(|e| e.to_string())?;
        return Ok((topo, 1));
    }
    let need = |n: usize| -> Result<Vec<u32>, String> {
        if args.len() < 1 + n {
            return Err(format!("{family} needs {n} numeric parameter(s)"));
        }
        args[1..1 + n]
            .iter()
            .map(|s| parse_u32(s, "parameter"))
            .collect()
    };
    let err = |e: netgraph::NetworkError| e.to_string();
    match family.as_str() {
        "abccc" => {
            let v = need(3)?;
            let p = AbcccParams::new(v[0], v[1], v[2]).map_err(err)?;
            Ok((Box::new(Abccc::new(p).map_err(err)?), 4))
        }
        "bccc" => {
            let v = need(2)?;
            let p = BcccParams::new(v[0], v[1]).map_err(err)?;
            Ok((Box::new(Bccc::new(p).map_err(err)?), 3))
        }
        "bcube" => {
            let v = need(2)?;
            let p = BCubeParams::new(v[0], v[1]).map_err(err)?;
            Ok((Box::new(BCube::new(p).map_err(err)?), 3))
        }
        "dcell" => {
            let v = need(2)?;
            let p = DCellParams::new(v[0], v[1]).map_err(err)?;
            Ok((Box::new(DCell::new(p).map_err(err)?), 3))
        }
        "fattree" => {
            let v = need(1)?;
            let p = FatTreeParams::new(v[0]).map_err(err)?;
            Ok((Box::new(FatTree::new(p).map_err(err)?), 2))
        }
        "ghc" => {
            let v = need(2)?;
            let p = HypercubeParams::new(v[0], v[1]).map_err(err)?;
            Ok((Box::new(Hypercube::new(p).map_err(err)?), 3))
        }
        other => Err(format!(
            "unknown family `{other}` (try a spec like `{other}:…` — families: {})",
            family::families()
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run(args: &[String], opts: &CliOptions) -> Result<ExitCode, String> {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    let json = opts.json;
    if json
        && !matches!(
            cmd.as_str(),
            "props"
                | "simulate"
                | "sim"
                | "capex"
                | "trace"
                | "broadcast"
                | "resilience"
                | "fib"
                | "topo"
                | "perf"
                | "loadgen"
        )
    {
        return Err(format!("--json is not supported for `{cmd}`"));
    }
    // Most subcommands either succeed or error; only `perf diff` reports
    // a legitimate non-success outcome (a regression verdict) without an
    // error.
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "props" => done(props(rest, json)),
        "route" => done(route(rest)),
        "parallel" => done(parallel(rest)),
        "simulate" => done(simulate(rest, json)),
        "sim" => done(sim_cmd(rest, json)),
        "expand" => done(expand(rest)),
        "capex" => done(capex(rest, json)),
        "dot" => done(dot(rest)),
        "svg" => done(svg_cmd(rest)),
        "trace" => done(trace_cmd(rest, json)),
        "design" => done(design_cmd(rest)),
        "broadcast" => done(broadcast_cmd(rest, json)),
        "resilience" => done(resilience_cmd(rest, json)),
        "fib" => done(fib_cmd(rest, json)),
        "serve" => done(serve_cmd(rest)),
        "loadgen" => done(loadgen_cmd(rest, json)),
        "topo" => done(topo_cmd(rest, json)),
        "experiments" => done(experiments_cmd(rest)),
        "perf" => perf_cmd(rest, json),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Renders a value as pretty JSON on stdout.
fn print_json(v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(())
}

/// Appends extra entries to a serialized struct's JSON object.
fn with_entries(mut v: Value, extra: Vec<(&str, Value)>) -> Value {
    if let Value::Map(ref mut m) = v {
        for (k, val) in extra {
            m.push((k.to_string(), val));
        }
    }
    v
}

fn props(args: &[String], json: bool) -> Result<(), String> {
    let (topo, _) = parse_topology(args)?;
    let small = topo.network().server_count() <= 2048;
    let stats = if small {
        dcn_metrics::TopologyStats::measure(topo.as_ref())
    } else {
        dcn_metrics::TopologyStats::quick(topo.as_ref())
    };
    if json {
        let bisection = if small {
            Value::U64(dcn_metrics::bisection::exact_bisection_by_id(
                topo.network(),
            ))
        } else {
            Value::Null
        };
        return print_json(&with_entries(
            stats.to_value(),
            vec![("exact_bisection_links", bisection)],
        ));
    }
    println!("{}", stats.name);
    println!("  servers           {}", stats.servers);
    println!("  switches          {}", stats.switches);
    for (radix, count) in &stats.switch_radix_histogram {
        println!("    radix {radix:<4}      × {count}");
    }
    println!("  cables            {}", stats.wires);
    println!("  NIC ports/server  ≤ {}", stats.max_server_ports);
    match stats.diameter_server_hops {
        Some(d) => println!("  diameter          {d} server hops (exact BFS)"),
        None => println!("  diameter          (skipped: network too large for exact BFS)"),
    }
    if let Some(apl) = stats.avg_path_length {
        println!("  avg path length   {apl:.3}");
    }
    if small {
        let b = dcn_metrics::bisection::exact_bisection_by_id(topo.network());
        println!("  bisection         {b} links (exact min-cut)");
    }
    Ok(())
}

fn endpoints(topo: &dyn Topology, args: &[String], at: usize) -> Result<(NodeId, NodeId), String> {
    let n = topo.network().server_count() as u32;
    let s = parse_u32(args.get(at).ok_or("missing <src>")?, "src")?;
    let d = parse_u32(args.get(at + 1).ok_or("missing <dst>")?, "dst")?;
    if s >= n || d >= n {
        return Err(format!("server ids must be < {n}"));
    }
    Ok((NodeId(s), NodeId(d)))
}

fn route(args: &[String]) -> Result<(), String> {
    let (topo, used) = parse_topology(args)?;
    let (src, dst) = endpoints(topo.as_ref(), args, used)?;
    let r = topo.route(src, dst).map_err(|e| e.to_string())?;
    r.validate(topo.network(), None)?;
    println!(
        "{}: {} → {} in {} server hops ({} links)",
        topo.name(),
        src,
        dst,
        r.server_hops(topo.network()),
        r.link_hops()
    );
    for node in r.nodes() {
        let kind = topo.network().kind(*node);
        println!("  {kind:<6} {node}");
    }
    Ok(())
}

fn parallel(args: &[String]) -> Result<(), String> {
    let family = args.first().ok_or("missing topology family")?.clone();
    if family != "abccc" && family != "bccc" {
        return Err("parallel paths are implemented for abccc/bccc".into());
    }
    let (topo, used) = parse_topology(args)?;
    let (src, dst) = endpoints(topo.as_ref(), args, used)?;
    if src == dst {
        return Err("src and dst must differ".into());
    }
    // Reconstruct the ABCCC parameterization for the native constructor.
    let v: Vec<u32> = args[1..used]
        .iter()
        .map(|s| parse_u32(s, "parameter"))
        .collect::<Result<_, _>>()?;
    let p = if family == "abccc" {
        AbcccParams::new(v[0], v[1], v[2]).map_err(|e| e.to_string())?
    } else {
        AbcccParams::new(v[0], v[1], 2).map_err(|e| e.to_string())?
    };
    let routes = abccc::parallel::parallel_routes(
        &p,
        abccc::ServerAddr::from_node_id(&p, src),
        abccc::ServerAddr::from_node_id(&p, dst),
        usize::MAX,
    );
    let exact = netgraph::paths::vertex_disjoint_paths(topo.network(), src, dst, usize::MAX, None);
    println!(
        "{}: {} internally disjoint paths constructed (exact maximum: {})",
        topo.name(),
        routes.len(),
        exact.len()
    );
    for (i, r) in routes.iter().enumerate() {
        println!("  path {i}: {} hops", abccc::routing::hops(r));
    }
    Ok(())
}

fn simulate(args: &[String], json: bool) -> Result<(), String> {
    let (topo, _) = parse_topology(args)?;
    let pattern = flag_value(args, "--pattern").unwrap_or_else(|| "permutation".into());
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number"))
        .transpose()?
        .unwrap_or(1);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = topo.network().server_count();
    let pairs = match pattern.as_str() {
        "permutation" => dcn_workloads::traffic::random_permutation(n, &mut rng),
        "bisection" => dcn_workloads::traffic::bisection_pairs(n, &mut rng),
        "alltoall" => {
            if n > 256 {
                return Err("alltoall is quadratic; use a network with ≤ 256 servers".into());
            }
            dcn_workloads::traffic::all_to_all(n)
        }
        other => return Err(format!("unknown pattern `{other}`")),
    };
    let report = dcn_sim::FlowSim::new(topo.as_ref())
        .run(&pairs)
        .map_err(|e| e.to_string())?;
    if json {
        return print_json(&with_entries(
            report.to_value(),
            vec![
                ("pattern", Value::Str(pattern.clone())),
                ("seed", Value::U64(seed)),
            ],
        ));
    }
    println!("{} under `{pattern}` (seed {seed})", report.topology);
    println!("  flows            {}", report.flows);
    println!("  aggregate        {:.2} Gbps", report.aggregate_rate);
    println!("  per-flow mean    {:.4} Gbps", report.mean_rate);
    println!("  per-flow min     {:.4} Gbps", report.min_rate);
    println!("  ABT              {:.2} Gbps", report.abt);
    println!("  mean hops        {:.2}", report.mean_hops);
    Ok(())
}

/// One-line blurbs for the scenario catalog, display order.
const SCENARIO_BLURBS: [(&str, &str); 5] = [
    (
        "all_reduce",
        "ring all-reduce collective (reduce-scatter + all-gather phases)",
    ),
    (
        "all_to_all",
        "shuffle: every ordered participant pair exchanges one chunk",
    ),
    (
        "incast",
        "packet-level fan-in microburst onto one target's last hop",
    ),
    (
        "storage_rebuild",
        "reconstruction storm with a mid-flow server fault",
    ),
    (
        "diurnal",
        "sinusoidal load, 10% elephants, flash crowd at the peak",
    ),
];

fn sim_cmd(args: &[String], json: bool) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for (name, blurb) in SCENARIO_BLURBS {
                println!("{name:<16} {blurb}");
            }
            Ok(())
        }
        Some("run") => sim_run(&args[1..], json),
        _ => Err("sim expects `list` or `run <scenario> <family…>`".into()),
    }
}

fn sim_run(args: &[String], json: bool) -> Result<(), String> {
    let name = args
        .first()
        .ok_or("missing scenario (try `abccc-cli sim list`)")?
        .clone();
    let head = args.get(1).ok_or("missing topology spec")?;
    // The engine's batch runner shares the topology across threads, so
    // build through the family registry (Send + Sync) rather than
    // `parse_topology`; the legacy `family n k …` tail folds into a
    // one-token spec.
    let topo: Box<dyn Topology + Send + Sync> = if is_topology_spec(head) {
        family::build_spec(head).map_err(|e| e.to_string())?
    } else {
        let params: Vec<String> = args[2..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .cloned()
            .collect();
        family::build_spec(&format!("{head}:{}", params.join(","))).map_err(|e| e.to_string())?
    };
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number"))
        .transpose()?
        .unwrap_or(1);
    let servers = topo.network().server_count();
    let scenario = dcn_workloads::scenarios::by_name(&name, servers, seed)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `abccc-cli sim list`)"))?;
    let report = dcn_sim::TrafficEngine::new(topo.as_ref())
        .run(&scenario)
        .map_err(|e| e.to_string())?;
    if json {
        return print_json(&with_entries(
            report.to_value(),
            vec![("seed", Value::U64(seed))],
        ));
    }
    println!(
        "{} `{}` ({}, plane {}, seed {seed})",
        report.topology, report.scenario, report.fidelity, report.plane
    );
    println!(
        "  flows            {} ({} completed, {} unroutable)",
        report.flows, report.completed, report.unroutable
    );
    println!("  phases           {}", report.phases);
    println!("  faults fired     {}", report.faults_fired);
    println!(
        "  bytes            {} offered = {} delivered + {} dropped + {} killed",
        report.bytes_offered, report.bytes_delivered, report.bytes_dropped, report.bytes_killed
    );
    println!(
        "  makespan         {:.3} ms",
        report.makespan_ns as f64 / 1e6
    );
    println!("  goodput          {:.3} Gbps", report.goodput_gbps);
    println!(
        "  fct p50/p99/p999 {:.1} / {:.1} / {:.1} µs",
        report.fct.p50_ns as f64 / 1000.0,
        report.fct.p99_ns as f64 / 1000.0,
        report.fct.p999_ns as f64 / 1000.0
    );
    Ok(())
}

fn expand(args: &[String]) -> Result<(), String> {
    if args.len() < 3 {
        return Err("expand needs <n> <k> <h>".into());
    }
    let n = parse_u32(&args[0], "n")?;
    let k = parse_u32(&args[1], "k")?;
    let h = parse_u32(&args[2], "h")?;
    let steps: u32 = flag_value(args, "--steps")
        .map(|s| s.parse().map_err(|_| "--steps expects a number"))
        .transpose()?
        .unwrap_or(1);
    let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
    let plan = abccc::ExpansionStep::schedule(p, steps).map_err(|e| e.to_string())?;
    for s in &plan {
        println!("{} → {}", s.from, s.to);
        println!(
            "  servers            {} → {}",
            s.from.server_count(),
            s.to.server_count()
        );
        println!("  + servers          {}", s.new_servers);
        println!("  + crossbars        {}", s.new_crossbar_switches);
        println!("  + level switches   {}", s.new_level_switches);
        println!("  + cables           {}", s.new_cables);
        println!(
            "  legacy NICs added  {} (cables into spare ports: {})",
            s.legacy_nics_added, s.legacy_server_ports_newly_used
        );
        assert!(s.legacy_untouched());
    }
    println!("(every step leaves legacy hardware untouched)");
    Ok(())
}

fn dot(args: &[String]) -> Result<(), String> {
    let (topo, used) = parse_topology(args)?;
    if topo.network().node_count() > 4096 {
        return Err("network too large to render usefully (> 4096 nodes)".into());
    }
    let mut opts = netgraph::dot::DotOptions {
        name: topo.name().replace(['(', ')', ','], "_"),
        ..Default::default()
    };
    if args.len() >= used + 2 {
        let (src, dst) = endpoints(topo.as_ref(), args, used)?;
        opts.highlight = vec![topo.route(src, dst).map_err(|e| e.to_string())?];
    }
    print!("{}", netgraph::dot::to_dot(topo.network(), &opts));
    Ok(())
}

fn svg_cmd(args: &[String]) -> Result<(), String> {
    let (topo, used) = parse_topology(args)?;
    if topo.network().node_count() > 2048 {
        return Err("network too large to render usefully (> 2048 nodes)".into());
    }
    let mut opts = netgraph::svg::SvgOptions::default();
    if args.len() > used + 1 && !args[used].starts_with("--") {
        let (src, dst) = endpoints(topo.as_ref(), args, used)?;
        opts.highlight = vec![topo.route(src, dst).map_err(|e| e.to_string())?];
    }
    let svg = netgraph::svg::to_svg(topo.network(), &opts);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(&path, &svg).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path} ({} bytes)", svg.len());
        }
        None => print!("{svg}"),
    }
    Ok(())
}

fn trace_cmd(args: &[String], json: bool) -> Result<(), String> {
    let (topo, _) = parse_topology(args)?;
    let path = flag_value(args, "--file").ok_or("trace needs --file TRACE.csv")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let flows = dcn_workloads::trace::parse_trace(&text, topo.network().server_count() as u64)
        .map_err(|e| e.to_string())?;
    if flows.is_empty() {
        return Err("trace contains no flows".into());
    }
    let pairs: Vec<_> = flows
        .iter()
        .map(dcn_workloads::trace::TraceFlow::pair)
        .collect();
    let report = dcn_sim::FlowSim::new(topo.as_ref())
        .run(&pairs)
        .map_err(|e| e.to_string())?;
    if json {
        return print_json(&with_entries(
            report.to_value(),
            vec![
                ("trace_file", Value::Str(path.clone())),
                ("fairness_index", Value::F64(report.fairness_index())),
            ],
        ));
    }
    println!(
        "{}: replayed {} flows from {path}",
        report.topology, report.flows
    );
    println!("  aggregate     {:.2} Gbps", report.aggregate_rate);
    println!("  per-flow mean {:.4} Gbps", report.mean_rate);
    println!("  per-flow min  {:.4} Gbps", report.min_rate);
    println!("  fairness      {:.3}", report.fairness_index());
    println!("  mean hops     {:.2}", report.mean_hops);
    Ok(())
}

fn broadcast_cmd(args: &[String], json: bool) -> Result<(), String> {
    if args.len() < 4 {
        return Err("broadcast needs <n> <k> <h> <src>".into());
    }
    let n = parse_u32(&args[0], "n")?;
    let k = parse_u32(&args[1], "k")?;
    let h = parse_u32(&args[2], "h")?;
    let src = parse_u32(&args[3], "src")?;
    let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
    if u64::from(src) >= p.server_count() {
        return Err(format!("src must be < {}", p.server_count()));
    }
    let tree = abccc::broadcast::one_to_all(&p, NodeId(src)).map_err(|e| e.to_string())?;
    tree.validate(&p)?;
    if json {
        return print_json(&Value::Map(
            [
                ("topology", Value::Str(p.to_string())),
                ("src", Value::U64(u64::from(src))),
                ("servers_covered", Value::U64(tree.member_count() as u64)),
                ("tree_depth_hops", Value::U64(tree.depth() as u64)),
                ("messages_sent", Value::U64(tree.member_count() as u64 - 1)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        ));
    }
    println!("{p}: one-to-all from server {src}");
    println!("  servers covered  {}", tree.member_count());
    println!("  tree depth       {} hops", tree.depth());
    println!("  messages sent    {}", tree.member_count() - 1);
    let unicast: u64 = (0..p.server_count())
        .map(|d| {
            abccc::routing::distance(
                &p,
                abccc::ServerAddr::from_node_id(&p, NodeId(src)),
                abccc::ServerAddr::from_node_id(&p, NodeId(d as u32)),
            )
        })
        .sum();
    println!("  unicast cost     {unicast} messages (for comparison)");
    Ok(())
}

fn design_cmd(args: &[String]) -> Result<(), String> {
    let target: u64 = args
        .first()
        .ok_or("design needs <target-servers>")?
        .parse()
        .map_err(|_| "target-servers must be a number".to_string())?;
    let objective = match flag_value(args, "--objective").as_deref() {
        None | Some("cost") => dcn_metrics::design::Objective::Cost,
        Some("latency") => dcn_metrics::design::Objective::Latency,
        Some("bandwidth") => dcn_metrics::design::Objective::Bandwidth,
        Some(other) => return Err(format!("unknown objective `{other}`")),
    };
    let cost = dcn_metrics::CostModel::default();
    let cands = dcn_metrics::design::recommend(target, &[4, 8, 16, 24, 48], 6, &cost, objective);
    println!("candidates reaching ≥ {target} servers (best first):");
    println!(
        "{:<16} {:>9} {:>9} {:>6} {:>10} {:>12}",
        "config", "servers", "diameter", "ports", "$/server", "bisect/srv"
    );
    for c in cands.iter().take(12) {
        println!(
            "{:<16} {:>9} {:>9} {:>6} {:>10.2} {:>12}",
            c.params.to_string(),
            c.servers,
            c.diameter,
            c.ports,
            c.capex_per_server,
            c.bisection_per_server
                .map_or("—".to_string(), |b| format!("{b:.4}")),
        );
    }
    Ok(())
}

fn resilience_cmd(args: &[String], json: bool) -> Result<(), String> {
    use dcn_resilience::{CampaignConfig, PairSampling, RouterSpec, ScenarioKind};
    // A one-token spec runs the campaign on any family (native routing
    // plane for non-ABCCC); the legacy `<n> <k> <h>` form stays ABCCC.
    let topo: Box<dyn Topology + Send + Sync> = match args.first().map(|a| is_topology_spec(a)) {
        Some(true) => family::build_spec(&args[0]).map_err(|e| e.to_string())?,
        _ => {
            if args.len() < 3 {
                return Err("resilience needs a topology spec or <n> <k> <h>".into());
            }
            let n = parse_u32(&args[0], "n")?;
            let k = parse_u32(&args[1], "k")?;
            let h = parse_u32(&args[2], "h")?;
            let p = AbcccParams::new(n, k, h).map_err(|e| e.to_string())?;
            Box::new(Abccc::new(p).map_err(|e| e.to_string())?)
        }
    };

    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let fnum = |flag: &str, default: f64| -> Result<f64, String> {
        flag_value(args, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };

    let rate = fnum("--rate", 0.05)?;
    let scenario = match flag_value(args, "--scenario")
        .as_deref()
        .unwrap_or("uniform")
    {
        "uniform" => ScenarioKind::Uniform {
            server_rate: rate,
            switch_rate: rate,
            link_rate: fnum("--link-rate", 0.0)?,
        },
        "groups" => ScenarioKind::CrossbarGroups {
            groups: num("--groups", 1)? as usize,
        },
        "level" => ScenarioKind::LevelSwitches {
            level: num("--level", 0)? as u32,
        },
        "flapping" => ScenarioKind::FlappingLinks {
            rate,
            steps: num("--steps", 4)? as usize,
        },
        other => return Err(format!("unknown scenario `{other}`")),
    };
    let router = match flag_value(args, "--router")
        .as_deref()
        .unwrap_or("resilient")
    {
        "resilient" => RouterSpec::Resilient(abccc::RetryBudget {
            bfs_fallback: !args.iter().any(|a| a == "--no-bfs"),
            ..abccc::RetryBudget::default()
        }),
        "digit" => RouterSpec::Digit(abccc::PermStrategy::DestinationAware),
        "vlb" => RouterSpec::Vlb {
            seed: num("--seed", 0)?,
        },
        other => return Err(format!("unknown router `{other}`")),
    };
    let sampling = match flag_value(args, "--pattern").as_deref().unwrap_or("random") {
        "random" => PairSampling::UniformRandom {
            pairs: num("--pairs", 64)? as usize,
        },
        "permutation" => PairSampling::Permutation,
        "convergent" => PairSampling::Convergent,
        other => return Err(format!("unknown pattern `{other}`")),
    };

    let report = CampaignConfig::new()
        .scenario(scenario)
        .router(router)
        .sampling(sampling)
        .trials(num("--trials", 8)? as usize)
        .seed(num("--seed", 0)?)
        .threads(num("--threads", 0)? as usize)
        .measure_throughput(!args.iter().any(|a| a == "--no-throughput"))
        .run_on(topo.as_ref())
        .map_err(|e| e.to_string())?;

    if json {
        return print_json(&report.to_value());
    }
    let s = &report.summary;
    println!(
        "{} — `{}` campaign, router `{}`, {} trials (seed {})",
        report.topology, report.scenario, report.router, s.trials, report.seed
    );
    println!("  connectivity fraction  {:.4}", s.connectivity_fraction);
    println!("  route completion       {:.4}", s.route_completion);
    println!("  mean stretch           {:.3}", s.mean_stretch);
    println!("  max stretch            {:.3}", s.max_stretch);
    println!("  throughput retention   {:.4}", s.throughput_retention);
    println!(
        "  routed / unreachable / gave-up   {} / {} / {}",
        s.routed, s.unreachable, s.gave_up
    );
    let t = &s.tier_counts;
    println!(
        "  tiers  primary {}  deterministic {}  random-perm {}  proxy {}  bfs {}",
        t.primary, t.deterministic, t.random_perm, t.proxy, t.bfs
    );
    println!(
        "  attempts {}  backoff units {}",
        s.attempts_total, s.backoff_units_total
    );
    println!("  per trial:");
    for tr in &report.trials {
        println!(
            "    #{:<3} failed n/l {:>6.1}/{:>6.1}  conn {:.3}  completion {:.3}  stretch {:.2}  retention {:.3}",
            tr.trial,
            tr.failed_nodes,
            tr.failed_links,
            tr.connectivity_fraction,
            tr.route_completion,
            tr.mean_stretch,
            tr.throughput_retention,
        );
    }
    Ok(())
}

fn fib_cmd(args: &[String], json: bool) -> Result<(), String> {
    use dcn_fib::RouteService;
    use netgraph::FaultScenario;

    let sub = args
        .first()
        .ok_or("fib needs `compile`, `query` or `bench`")?;
    let rest = &args[1..];
    // Compiled FIBs are digit-indexed, so fib only runs on ABCCC: accept
    // an `abccc:n,k,h` spec or the legacy `<n> <k> <h>` form.
    let p = match rest.first().map(|a| is_topology_spec(a)) {
        Some(true) => {
            let (fam, params) = family::parse_spec(&rest[0]).map_err(|e| e.to_string())?;
            if fam.name() != "abccc" {
                return Err(format!(
                    "fib {sub} requires an ABCCC topology, got `{}`",
                    fam.name()
                ));
            }
            params.parse::<AbcccParams>().map_err(|e| e.to_string())?
        }
        _ => {
            if rest.len() < 3 {
                return Err(format!("fib {sub} needs a topology spec or <n> <k> <h>"));
            }
            let n = parse_u32(&rest[0], "n")?;
            let k = parse_u32(&rest[1], "k")?;
            let h = parse_u32(&rest[2], "h")?;
            AbcccParams::new(n, k, h).map_err(|e| e.to_string())?
        }
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flag_value(rest, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let fnum = |flag: &str, default: f64| -> Result<f64, String> {
        flag_value(rest, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let fail_rate = fnum("--fail-rate", 0.0)?;
    let fail_seed = num("--fail-seed", 0)?;

    let build_service = || -> Result<(RouteService, f64), String> {
        let topo = Abccc::new(p).map_err(|e| e.to_string())?;
        let t0 = std::time::Instant::now();
        let mut svc = compile_service(rest, topo)?;
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        if fail_rate > 0.0 {
            let mask = FaultScenario::seeded(fail_seed)
                .fail_servers_frac(fail_rate)
                .fail_switches_frac(fail_rate)
                .build(svc.topo().network());
            svc.apply_mask(mask);
        }
        Ok((svc, compile_ms))
    };

    match sub.as_str() {
        "compile" => {
            let (svc, compile_ms) = build_service()?;
            let fib = svc.table();
            if json {
                return print_json(&Value::Map(
                    [
                        ("topology", Value::Str(p.to_string())),
                        ("servers", Value::U64(u64::from(fib.servers()))),
                        ("strategy", Value::Str(fib.strategy().label().to_string())),
                        ("layout", Value::Str(fib.layout().label().to_string())),
                        ("table_bytes", Value::U64(fib.bytes() as u64)),
                        ("shards", Value::U64(svc.shard_count() as u64)),
                        ("compile_ms", Value::F64(compile_ms)),
                    ]
                    .into_iter()
                    .map(|(key, v)| (key.to_string(), v))
                    .collect(),
                ));
            }
            println!("{p}: compiled forwarding table");
            println!("  strategy     {}", fib.strategy().label());
            println!("  layout       {}", fib.layout().label());
            println!("  servers      {}", fib.servers());
            println!("  table size   {:.1} KiB", fib.bytes() as f64 / 1024.0);
            println!("  shards       {}", svc.shard_count());
            println!("  compile time {compile_ms:.2} ms");
            Ok(())
        }
        "query" => {
            if rest.len() < 5 {
                return Err("fib query needs <n> <k> <h> <src> <dst>".into());
            }
            let s = parse_u32(&rest[3], "src")?;
            let d = parse_u32(&rest[4], "dst")?;
            if u64::from(s) >= p.server_count() || u64::from(d) >= p.server_count() {
                return Err(format!("server ids must be < {}", p.server_count()));
            }
            let (svc, _) = build_service()?;
            let out = svc.query(NodeId(s), NodeId(d)).map_err(|e| e.to_string())?;
            if json {
                return print_json(&Value::Map(
                    [
                        ("topology", Value::Str(p.to_string())),
                        ("src", Value::U64(u64::from(s))),
                        ("dst", Value::U64(u64::from(d))),
                        ("tier", Value::Str(out.tier.label().to_string())),
                        ("attempts", Value::U64(u64::from(out.attempts))),
                        ("link_hops", Value::U64(out.route.link_hops() as u64)),
                        (
                            "nodes",
                            Value::Seq(
                                out.route
                                    .nodes()
                                    .iter()
                                    .map(|node| Value::U64(u64::from(node.0)))
                                    .collect(),
                            ),
                        ),
                    ]
                    .into_iter()
                    .map(|(key, v)| (key.to_string(), v))
                    .collect(),
                ));
            }
            println!(
                "{p}: {s} → {d} via compiled table ({} links, tier {}, {} attempt(s))",
                out.route.link_hops(),
                out.tier.label(),
                out.attempts
            );
            let net = svc.topo().network();
            for node in out.route.nodes() {
                println!("  {:<6} {node}", net.kind(*node));
            }
            Ok(())
        }
        "bench" => {
            let queries = num("--queries", 20_000)? as usize;
            let seed = num("--seed", 21)?;
            let (svc, compile_ms) = build_service()?;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs: Vec<(NodeId, NodeId)> = (0..queries)
                .map(|_| {
                    (
                        NodeId(rng.gen_range(0..p.server_count()) as u32),
                        NodeId(rng.gen_range(0..p.server_count()) as u32),
                    )
                })
                .collect();
            // Record per-lookup latency (`fib.lookup_ns`) even without a
            // global telemetry flag: the bench exists to report it.
            let telemetry_was_on = dcn_telemetry::enabled();
            dcn_telemetry::set_enabled(true);
            let t0 = std::time::Instant::now();
            let results = svc.query_batch(&pairs);
            let qps = pairs.len() as f64 / t0.elapsed().as_secs_f64();
            if !telemetry_was_on {
                dcn_telemetry::set_enabled(false);
            }
            let lookup_ns = dcn_telemetry::registry()
                .snapshot()
                .histogram("fib.lookup_ns")
                .cloned();

            // Deterministic result digest: counts plus an FNV-1a hash over
            // every returned node sequence. Identical for any --shards or
            // thread count; `scripts/check.sh` compares digests byte-wise.
            // The hop histogram is HDR-bucketed and value-addressed, so
            // its quantiles share that guarantee (latency quantiles do
            // not, and stay out of the digest).
            let mut hops = dcn_telemetry::HdrHistogram::new();
            let mut ok = 0u64;
            let mut errors = 0u64;
            let mut fallbacks = 0u64;
            let mut total_link_hops = 0u64;
            let mut hash: u64 = 0xcbf29ce484222325;
            let mut eat = |v: u64| {
                for b in v.to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x100000001b3);
                }
            };
            for r in &results {
                match r {
                    Ok(out) => {
                        ok += 1;
                        if out.tier > abccc::RouteTier::Primary {
                            fallbacks += 1;
                        }
                        total_link_hops += out.route.link_hops() as u64;
                        hops.record(out.route.link_hops() as u64);
                        for node in out.route.nodes() {
                            eat(u64::from(node.0));
                        }
                    }
                    Err(_) => {
                        errors += 1;
                        eat(u64::MAX);
                    }
                }
            }
            let digest = Value::Map(
                [
                    ("topology", Value::Str(p.to_string())),
                    ("queries", Value::U64(queries as u64)),
                    ("seed", Value::U64(seed)),
                    ("fail_rate", Value::F64(fail_rate)),
                    ("fail_seed", Value::U64(fail_seed)),
                    ("ok", Value::U64(ok)),
                    ("errors", Value::U64(errors)),
                    ("fallbacks", Value::U64(fallbacks)),
                    ("total_link_hops", Value::U64(total_link_hops)),
                    ("hop_p50", Value::U64(hops.percentile(0.50))),
                    ("hop_p99", Value::U64(hops.percentile(0.99))),
                    ("hop_p999", Value::U64(hops.percentile(0.999))),
                    ("hop_p9999", Value::U64(hops.percentile(0.9999))),
                    ("route_hash", Value::U64(hash)),
                ]
                .into_iter()
                .map(|(key, v)| (key.to_string(), v))
                .collect(),
            );
            if let Some(path) = flag_value(rest, "--digest") {
                let text = serde_json::to_string_pretty(&digest).map_err(|e| e.to_string())?;
                std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
            }
            if json {
                return print_json(&digest);
            }
            println!("{p}: {queries} queries over {} shards", svc.shard_count());
            println!("  compile time   {compile_ms:.2} ms");
            println!("  throughput     {qps:.0} lookups/s (batched)");
            println!("  ok / errors    {ok} / {errors}");
            println!(
                "  fallbacks      {fallbacks} (patched pairs: {})",
                svc.patch_count()
            );
            println!(
                "  link hops      p50≤{} p99≤{} p999≤{} p9999≤{} max={}",
                hops.percentile(0.50),
                hops.percentile(0.99),
                hops.percentile(0.999),
                hops.percentile(0.9999),
                hops.max()
            );
            if let Some(l) = &lookup_ns {
                println!(
                    "  lookup ns      p50≤{} p99≤{} p999≤{} p9999≤{} max={} (n={})",
                    l.p50, l.p99, l.p999, l.p9999, l.max, l.count
                );
            }
            println!("  route hash     {hash:#018x}");
            Ok(())
        }
        other => Err(format!("unknown fib subcommand `{other}`")),
    }
}

/// Parses the ABCCC head shared by `serve` and `loadgen`: an
/// `abccc:n,k,h` spec or the legacy `<n> <k> <h>` form (the served FIB is
/// digit-indexed, so only ABCCC applies).
fn parse_abccc_head(rest: &[String], what: &str) -> Result<AbcccParams, String> {
    match rest.first().map(|a| is_topology_spec(a)) {
        Some(true) => {
            let (fam, params) = family::parse_spec(&rest[0]).map_err(|e| e.to_string())?;
            if fam.name() != "abccc" {
                return Err(format!(
                    "{what} requires an ABCCC topology, got `{}`",
                    fam.name()
                ));
            }
            params.parse::<AbcccParams>().map_err(|e| e.to_string())
        }
        _ => {
            if rest.len() < 3 {
                return Err(format!("{what} needs a topology spec or <n> <k> <h>"));
            }
            let n = parse_u32(&rest[0], "n")?;
            let k = parse_u32(&rest[1], "k")?;
            let h = parse_u32(&rest[2], "h")?;
            AbcccParams::new(n, k, h).map_err(|e| e.to_string())
        }
    }
}

/// Compiles the route service of `fib`, `serve` and `loadgen` from their
/// shared `--shards` (default 8) and `--layout` (default hier) flags.
fn compile_service(rest: &[String], topo: Abccc) -> Result<dcn_fib::RouteService, String> {
    let shards: usize = match flag_value(rest, "--shards") {
        None => 8,
        Some(s) => s.parse().map_err(|_| "--shards expects a number")?,
    };
    let layout = match flag_value(rest, "--layout") {
        None => dcn_fib::FibLayout::Hier,
        Some(s) => dcn_fib::FibLayout::parse(&s)
            .ok_or_else(|| format!("unknown layout `{s}` (hier|dense)"))?,
    };
    dcn_fib::RouteService::compile_with_layout(topo, layout, shards).map_err(|e| e.to_string())
}

fn serve_cmd(args: &[String]) -> Result<(), String> {
    use dcn_serve::{RouteServer, ServeConfig};
    let p = parse_abccc_head(args, "serve")?;
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let port = num("--port", 0)? as u16;
    let mut cfg = ServeConfig {
        port,
        ..ServeConfig::default()
    };
    cfg.max_inflight = num("--max-inflight", cfg.max_inflight as u64)? as usize;
    cfg.max_batch = num("--max-batch", cfg.max_batch as u64)? as usize;
    let svc = compile_service(args, Abccc::new(p).map_err(|e| e.to_string())?)?;
    let servers = svc.table().servers();
    let shards = svc.shard_count();
    let server = RouteServer::spawn(svc, cfg).map_err(|e| format!("bind: {e}"))?;
    println!(
        "listening on {} ({p}, servers {servers}, shards {shards})",
        server.addr()
    );
    // Serve until stdin closes — the portable "run until the operator
    // stops us" signal (Ctrl-D interactively, closed pipe in scripts).
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    let drain = server.shutdown();
    println!(
        "drained {} connection(s) at epoch {}",
        drain.connections, drain.epoch
    );
    Ok(())
}

fn loadgen_cmd(args: &[String], json: bool) -> Result<(), String> {
    use dcn_serve::loadgen::{run_loopback, LoadgenConfig};
    use dcn_serve::ServeConfig;
    let p = parse_abccc_head(args, "loadgen")?;
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let defaults = LoadgenConfig::default();
    let cfg = LoadgenConfig {
        connections: num("--connections", defaults.connections as u64)? as usize,
        frames: num("--frames", defaults.frames as u64)? as usize,
        batch: num("--batch", defaults.batch as u64)? as usize,
        window: num("--window", defaults.window as u64)? as usize,
        seed: num("--seed", defaults.seed)?,
    };
    let svc = compile_service(args, Abccc::new(p).map_err(|e| e.to_string())?)?;
    let shards = svc.shard_count();
    let (report, drain) =
        run_loopback(svc, ServeConfig::default(), &cfg).map_err(|e| e.to_string())?;
    if json {
        return print_json(&with_entries(
            report.to_value(),
            vec![
                ("topology", Value::Str(p.to_string())),
                ("shards", Value::U64(shards as u64)),
                ("drained_connections", Value::U64(drain.connections as u64)),
            ],
        ));
    }
    println!(
        "{p}: {} connections × {} frames × {} pairs over {shards} shards",
        report.connections, report.frames, report.batch
    );
    println!("  requests       {}", report.requests);
    println!("  ok / errors    {} / {}", report.ok, report.route_errors);
    println!("  rejects        {}", report.rejects);
    println!(
        "  throughput     {:.0} lookups/s over TCP",
        report.lookups_per_sec
    );
    println!(
        "  frame rtt ns   p50≤{} p99≤{} p999≤{}",
        report.rtt_p50_ns, report.rtt_p99_ns, report.rtt_p999_ns
    );
    println!("  digest         {}", report.digest);
    Ok(())
}

fn topo_cmd(args: &[String], json: bool) -> Result<(), String> {
    let sub = args.first().ok_or("topo needs `stats`")?;
    let rest = &args[1..];
    match sub.as_str() {
        "stats" => {
            let mut rest: Vec<String> = rest.to_vec();
            let estimate = take_flag(&mut rest, "--estimate");
            let samples: usize = match take_flag_value(&mut rest, "--samples") {
                None => 64,
                Some(s) => s.parse().map_err(|_| "--samples expects a number")?,
            };
            let seed: u64 = match take_flag_value(&mut rest, "--seed") {
                None => 7,
                Some(s) => s.parse().map_err(|_| "--seed expects a number")?,
            };
            let trials: usize = match take_flag_value(&mut rest, "--trials") {
                None => 4,
                Some(s) => s.parse().map_err(|_| "--trials expects a number")?,
            };
            let (topo, _) = parse_topology(&rest)?;
            let net = topo.network();
            if !estimate {
                // Exact path: same engine `props` uses, without the CAPEX
                // extras — diameter/APL only where the sweep is feasible.
                let small = net.server_count() <= 2048;
                let stats = if small {
                    dcn_metrics::TopologyStats::measure(topo.as_ref())
                } else {
                    dcn_metrics::TopologyStats::quick(topo.as_ref())
                };
                if json {
                    return print_json(&stats.to_value());
                }
                println!("{}", stats.name);
                println!("  servers   {}", stats.servers);
                println!("  switches  {}", stats.switches);
                println!("  wires     {}", stats.wires);
                match stats.diameter_server_hops {
                    Some(d) => println!("  diameter  {d} server hops (exact)"),
                    None => println!("  diameter  - (use --estimate at this size)"),
                }
                if let Some(apl) = stats.avg_path_length {
                    println!("  APL       {apl:.4} server hops (exact)");
                }
                return Ok(());
            }
            // Sampled path: seeded source sampling, byte-identical at any
            // thread count (the smoke test compares digests across runs).
            let metrics = netgraph::sample::sampled_server_metrics(net, samples, seed)
                .ok_or("sampled metrics unavailable (disconnected or <2 servers)")?;
            let bisection = netgraph::sample::sampled_bisection(net, trials, seed)
                .ok_or("sampled bisection unavailable")?;
            if json {
                return print_json(&Value::Map(
                    [
                        ("topology", Value::Str(topo.name())),
                        ("servers", Value::U64(net.server_count() as u64)),
                        ("switches", Value::U64(net.switch_count() as u64)),
                        ("wires", Value::U64(net.link_count() as u64)),
                        ("samples", Value::U64(metrics.apl.samples as u64)),
                        ("seed", Value::U64(seed)),
                        (
                            "diameter_lower_bound",
                            Value::U64(u64::from(metrics.diameter_lb)),
                        ),
                        ("apl_mean", Value::F64(metrics.apl.mean)),
                        ("apl_ci95", Value::F64(metrics.apl.ci95)),
                        ("bisection_trials", Value::U64(bisection.trials as u64)),
                        ("bisection_min_cut", Value::U64(bisection.min_cut)),
                        ("bisection_mean_cut", Value::F64(bisection.mean_cut)),
                    ]
                    .into_iter()
                    .map(|(key, v)| (key.to_string(), v))
                    .collect(),
                ));
            }
            println!("{} (sampled, seed {seed})", topo.name());
            println!("  servers       {}", net.server_count());
            println!("  switches      {}", net.switch_count());
            println!("  wires         {}", net.link_count());
            println!(
                "  diameter      ≥ {} server hops ({} sources)",
                metrics.diameter_lb, metrics.apl.samples
            );
            println!(
                "  APL           {:.4} ± {:.4} server hops (95% CI)",
                metrics.apl.mean, metrics.apl.ci95
            );
            println!(
                "  bisection     ≤ {} links (min of {} balanced probes, mean {:.1})",
                bisection.min_cut, bisection.trials, bisection.mean_cut
            );
            Ok(())
        }
        other => Err(format!("unknown topo subcommand `{other}`")),
    }
}

fn experiments_cmd(args: &[String]) -> Result<(), String> {
    use abccc_bench::engine::{run, RunOptions};
    use abccc_bench::registry::{all, find, Preset};

    let sub = args.first().ok_or("experiments needs `list` or `run`")?;
    let rest = &args[1..];
    match sub.as_str() {
        "list" => {
            println!(
                "{:<20} {:<11} {:>4} {:>5} {:>5}  summary",
                "name", "paper ref", "tiny", "paper", "scale"
            );
            for spec in all() {
                println!(
                    "{:<20} {:<11} {:>4} {:>5} {:>5}  {}",
                    spec.name(),
                    spec.paper_ref(),
                    spec.points(Preset::Tiny).len(),
                    spec.points(Preset::Paper).len(),
                    spec.points(Preset::Scale).len(),
                    spec.summary(),
                );
            }
            println!("(point counts are grid points per preset)");
            Ok(())
        }
        "run" => {
            let mut rest: Vec<String> = rest.to_vec();
            let run_all = take_flag(&mut rest, "--all");
            let preset = match take_flag_value(&mut rest, "--preset") {
                None => Preset::Paper,
                Some(p) => Preset::parse(&p)
                    .ok_or_else(|| format!("unknown preset `{p}` (tiny|paper|scale)"))?,
            };
            let json_dir = take_flag_value(&mut rest, "--json").map(Into::into);
            let threads: usize = match take_flag_value(&mut rest, "--threads") {
                None => 0,
                Some(t) => t.parse().map_err(|_| "--threads expects a number")?,
            };
            if let Some(bad) = rest.iter().find(|a| a.starts_with("--")) {
                return Err(format!("unknown flag `{bad}` for experiments run"));
            }
            let specs: Vec<&'static dyn abccc_bench::registry::Experiment> = if run_all {
                if !rest.is_empty() {
                    return Err("give either --all or experiment names, not both".into());
                }
                all().to_vec()
            } else {
                if rest.is_empty() {
                    return Err(
                        "experiments run needs names or --all (see `experiments list`)".into(),
                    );
                }
                rest.iter()
                    .map(|name| {
                        find(name).ok_or_else(|| {
                            format!("unknown experiment `{name}` (see `experiments list`)")
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            let opts = RunOptions {
                preset,
                threads,
                json_dir,
                print_tables: true,
                print_summary: true,
            };
            run(&specs, &opts)?;
            Ok(())
        }
        other => Err(format!("unknown experiments subcommand `{other}`")),
    }
}

/// `perf record|diff|trace-stat` — the performance sentinel.
///
/// `record` and `diff` run the selected experiments `--runs` times
/// through the sweep engine (no artifact directory needed), fold each
/// experiment's repetitions into a component-wise median
/// [`dcn_telemetry::PerfRecord`], and either store them as baselines or
/// compare them against the stored ones. `diff` exits nonzero when any
/// metric crosses both the relative and absolute regression gates.
fn perf_cmd(args: &[String], json: bool) -> Result<ExitCode, String> {
    use abccc_bench::engine::{run, RunOptions};
    use abccc_bench::registry::{all, find, Preset};

    let sub = args
        .first()
        .ok_or("perf needs `record`, `diff` or `trace-stat`")?;
    let mut rest: Vec<String> = args[1..].to_vec();

    if sub == "trace-stat" {
        let path = rest.first().ok_or("perf trace-stat needs a FILE")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let stat = trace_stat(&text)?;
        if json {
            return print_json(&Value::Map(
                [
                    ("file", Value::Str(path.clone())),
                    ("spans", Value::U64(stat.spans)),
                    ("lanes", Value::U64(stat.lanes)),
                    ("roots", Value::U64(stat.roots)),
                ]
                .into_iter()
                .map(|(key, v)| (key.to_string(), v))
                .collect(),
            ))
            .map(|()| ExitCode::SUCCESS);
        }
        println!(
            "{path}: valid Chrome trace, {} spans, {} lanes, {} roots",
            stat.spans, stat.lanes, stat.roots
        );
        return Ok(ExitCode::SUCCESS);
    }
    if sub != "record" && sub != "diff" {
        return Err(format!("unknown perf subcommand `{sub}`"));
    }

    let run_all = take_flag(&mut rest, "--all");
    let preset = match take_flag_value(&mut rest, "--preset") {
        None => Preset::Tiny,
        Some(p) => {
            Preset::parse(&p).ok_or_else(|| format!("unknown preset `{p}` (tiny|paper|scale)"))?
        }
    };
    let runs: usize = match take_flag_value(&mut rest, "--runs") {
        None => 3,
        Some(r) => match r.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err("--runs expects a number ≥ 1".into()),
        },
    };
    let threads: usize = match take_flag_value(&mut rest, "--threads") {
        None => 0,
        Some(t) => t.parse().map_err(|_| "--threads expects a number")?,
    };
    let baselines_dir = take_flag_value(&mut rest, "--baselines")
        .unwrap_or_else(|| "bench_results/baselines".to_string());
    let rel: Option<f64> = take_flag_value(&mut rest, "--rel")
        .map(|r| r.parse().map_err(|_| "--rel expects a number"))
        .transpose()?;
    if let Some(bad) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{bad}` for perf {sub}"));
    }
    let specs: Vec<&'static dyn abccc_bench::registry::Experiment> = if rest.is_empty() || run_all {
        if run_all && !rest.is_empty() {
            return Err("give either --all or experiment names, not both".into());
        }
        all().to_vec()
    } else {
        rest.iter()
            .map(|name| {
                find(name)
                    .ok_or_else(|| format!("unknown experiment `{name}` (see `experiments list`)"))
            })
            .collect::<Result<_, _>>()?
    };

    // Measure: N quiet engine runs, telemetry reset before each so every
    // repetition's histograms and gauges stand alone (this also discards
    // any spans recorded earlier in the process — perf is a measurement
    // command, not a tracing one).
    let opts = RunOptions {
        preset,
        threads,
        json_dir: None,
        print_tables: false,
        print_summary: false,
    };
    let mut per_run: Vec<Vec<dcn_telemetry::PerfRecord>> = Vec::with_capacity(runs);
    for _ in 0..runs {
        dcn_telemetry::reset();
        let report = run(&specs, &opts)?;
        per_run.push(
            report
                .manifests
                .iter()
                .map(dcn_telemetry::PerfRecord::from_manifest)
                .collect(),
        );
    }
    let current: Vec<dcn_telemetry::PerfRecord> = specs
        .iter()
        .filter_map(|spec| {
            let reps: Vec<dcn_telemetry::PerfRecord> = per_run
                .iter()
                .flat_map(|run| run.iter().filter(|r| r.experiment == spec.name()).cloned())
                .collect();
            dcn_telemetry::PerfRecord::median_of(&reps)
        })
        .collect();

    if sub == "record" {
        dcn_telemetry::save_baselines(&baselines_dir, &current)
            .map_err(|e| format!("writing {baselines_dir}: {e}"))?;
        if json {
            print_json(&Value::Map(
                [
                    ("recorded", Value::U64(current.len() as u64)),
                    ("preset", Value::Str(preset.to_string())),
                    ("runs", Value::U64(runs as u64)),
                    ("dir", Value::Str(baselines_dir.clone())),
                ]
                .into_iter()
                .map(|(key, v)| (key.to_string(), v))
                .collect(),
            ))?;
        } else {
            println!(
                "recorded {} baseline(s) (preset {preset}, median of {runs} run(s)) to {baselines_dir}",
                current.len()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let baselines = dcn_telemetry::load_baselines(&baselines_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no baselines under {baselines_dir} — run `abccc-cli perf record` first"
        ));
    }
    let mut thresholds = dcn_telemetry::DiffThresholds::default();
    if let Some(rel) = rel {
        thresholds.rel = rel;
    }
    let verdict = dcn_telemetry::diff(&baselines, &current, &thresholds);
    if json {
        println!("{}", verdict.to_json());
    } else {
        print!("{}", verdict.render());
    }
    Ok(if verdict.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Summary of a Chrome trace file: complete spans, distinct thread
/// lanes, root spans (`args.parent == 0`).
struct TraceStat {
    spans: u64,
    lanes: u64,
    roots: u64,
}

/// Parses and validates `--trace-out` output.
fn trace_stat(text: &str) -> Result<TraceStat, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = v
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "traceEvents"))
        .and_then(|(_, v)| v.as_seq())
        .ok_or("missing traceEvents array")?;
    let field = |ev: &Value, key: &str| -> Option<Value> {
        ev.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let mut spans = 0u64;
    let mut roots = 0u64;
    let mut lanes: Vec<u64> = Vec::new();
    for ev in events {
        if field(ev, "ph") != Some(Value::Str("X".to_string())) {
            continue;
        }
        spans += 1;
        if let Some(Value::U64(tid)) = field(ev, "tid") {
            if !lanes.contains(&tid) {
                lanes.push(tid);
            }
        }
        let parent = field(ev, "args")
            .as_ref()
            .and_then(|a| a.as_map()?.iter().find(|(k, _)| k == "parent").cloned());
        if let Some((_, Value::U64(0))) = parent {
            roots += 1;
        }
    }
    Ok(TraceStat {
        spans,
        lanes: lanes.len() as u64,
        roots,
    })
}

fn capex(args: &[String], json: bool) -> Result<(), String> {
    let (topo, _) = parse_topology(args)?;
    let stats = dcn_metrics::TopologyStats::quick(topo.as_ref());
    let c = dcn_metrics::CostModel::default().capex(&stats);
    if json {
        return print_json(&with_entries(
            c.to_value(),
            vec![
                ("total_usd", Value::F64(c.total())),
                ("per_server_usd", Value::F64(c.per_server())),
            ],
        ));
    }
    println!("{} — CAPEX (default 2015-commodity model)", c.name);
    println!("  switches   ${:>12.2}", c.switches_usd);
    println!("  NICs       ${:>12.2}", c.nics_usd);
    println!("  cables     ${:>12.2}", c.cables_usd);
    println!("  total      ${:>12.2}", c.total());
    println!("  per server ${:>12.2}", c.per_server());
    Ok(())
}
