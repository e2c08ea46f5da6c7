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
//! Each command's operands and flags (the global `--trace`,
//! `--metrics-out`, `--trace-out`, `--flame-out` and `--json` among them)
//! are declared once, in the tables of this package's library
//! (`abccc_cli`), which parses the argv and prints the usage text.

use abccc::AbcccParams;
use abccc_cli::Invocation;
use dcn_baselines::family;
use netgraph::{NodeId, Topology};
use serde::{Serialize, Value};
use std::process::ExitCode;

/// Global flags that turn telemetry recording on.
const TELEMETRY_FLAGS: [&str; 4] = ["--trace", "--metrics-out", "--trace-out", "--flame-out"];

/// Drains recorded telemetry into whichever sinks the flags selected.
fn finish_telemetry(inv: &Invocation) {
    if !dcn_telemetry::enabled() {
        return;
    }
    let spans = dcn_telemetry::drain_spans();
    let metrics = dcn_telemetry::registry().snapshot();
    if inv.has("--trace") {
        eprint!("{}", dcn_telemetry::render_summary(&spans, &metrics));
    }
    for flag in ["--metrics-out", "--trace-out", "--flame-out"] {
        let Some(path) = inv.text(flag) else { continue };
        let written = match flag {
            "--metrics-out" => dcn_telemetry::write_jsonl(path, &spans, &metrics),
            "--trace-out" => std::fs::write(path, dcn_telemetry::chrome_trace_json(&spans)),
            _ => std::fs::write(path, dcn_telemetry::folded_stacks(&spans)),
        };
        if let Err(e) = written {
            eprintln!("warning: writing {}: {e}", path.escape_debug());
        }
    }
}

/// Prints `error: …` and the usage that explains it. The error may echo
/// argv, so its control characters are escaped as `escape_debug` would.
fn fail(error: &str, usage: &str) -> ExitCode {
    let mut escaped = String::with_capacity(error.len());
    for c in error.chars() {
        if c.is_control() {
            escaped.extend(c.escape_debug());
        } else {
            escaped.push(c);
        }
    }
    eprintln!("error: {escaped}\n\nusage:\n{}", usage.trim_end());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = match abccc_cli::parse(&argv) {
        Ok(inv) => inv,
        Err(e) => return fail(&e.to_string(), &abccc_cli::usage_for(&argv)),
    };
    if TELEMETRY_FLAGS.iter().any(|f| inv.has(f)) {
        dcn_telemetry::set_enabled(true);
    }
    // Exiting quietly when stdout closes early (`abccc-cli … | head`) is
    // friendlier than the default broken-pipe panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !broken_pipe(info.payload()) {
            default_hook(info);
        }
    }));
    match std::panic::catch_unwind(|| run(&inv)) {
        Ok(Ok(code)) => {
            finish_telemetry(&inv);
            code
        }
        Ok(Err(e)) => fail(&e, &inv.command.usage()),
        Err(payload) if broken_pipe(&*payload) => ExitCode::SUCCESS,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Whether a panic is the broken-pipe one of printing to a closed stdout.
fn broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload.downcast_ref::<String>().map(String::as_str);
    msg.or_else(|| payload.downcast_ref::<&str>().copied())
        .is_some_and(|m| m.contains("Broken pipe"))
}

type DynTopo = Box<dyn Topology + Send + Sync>;

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

/// Folds a topology head — a one-token spec of any registered family or
/// the legacy `family params…` form — into one spec, and returns it with
/// the number of operands it spans.
fn head_spec(pos: &[String]) -> Result<(String, usize), String> {
    let head = pos.first().ok_or("missing topology family")?;
    if is_topology_spec(head) {
        return Ok((head.clone(), 1));
    }
    // How many numbers each legacy head takes. Jellyfish and spaceshuffle
    // are spec-only; for them and unknown names the registry's error reads
    // the empty parameter list.
    let arity = match head.as_str() {
        "abccc" => 3,
        "bccc" | "bcube" | "dcell" | "ghc" => 2,
        "fattree" => 1,
        _ => 0,
    };
    let params = pos
        .get(1..1 + arity)
        .ok_or_else(|| format!("{head} needs {arity} numeric parameter(s)"))?;
    Ok((format!("{head}:{}", params.join(",")), 1 + arity))
}

/// Builds the topology of a [`head_spec`] head.
fn parse_topology(pos: &[String]) -> Result<(DynTopo, usize), String> {
    let (spec, used) = head_spec(pos)?;
    Ok((family::build_spec(&spec).map_err(|e| e.to_string())?, used))
}

/// The `<spec>|<n> <k> <h>` head: a one-token spec of any family, or
/// three numbers read as ABCCC. Returns the spec and its operand count.
fn spec_or_abccc(pos: &[String], what: &str) -> Result<(String, usize), String> {
    match (pos.first(), pos.get(..3)) {
        (Some(head), _) if is_topology_spec(head) => Ok((head.clone(), 1)),
        (_, Some(nkh)) => Ok((format!("abccc:{}", nkh.join(",")), 3)),
        _ => Err(format!("{what} needs a topology spec or <n> <k> <h>")),
    }
}

/// A `<spec>|<n> <k> <h>` head that must be ABCCC: the commands built on
/// its digit addressing (`fib`, `serve`, `loadgen`, `expand`, `broadcast`)
/// run on nothing else.
fn abccc_head(pos: &[String], what: &str) -> Result<(AbcccParams, usize), String> {
    let (spec, used) = spec_or_abccc(pos, what)?;
    let (fam, params) = family::parse_spec(&spec).map_err(|e| e.to_string())?;
    if fam.name() != "abccc" {
        let got = fam.name();
        return Err(format!("{what} requires an ABCCC topology, got `{got}`"));
    }
    let p = params
        .parse()
        .map_err(|e: netgraph::NetworkError| e.to_string())?;
    Ok((p, used))
}

fn run(inv: &Invocation) -> Result<ExitCode, String> {
    // Most subcommands either succeed or error; only `perf diff` reports
    // a legitimate non-success outcome (a regression verdict) without an
    // error.
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match inv.command.name {
        "props" => done(props(inv)),
        "route" => done(route(inv)),
        "parallel" => done(parallel(inv)),
        "simulate" => done(simulate(inv)),
        "expand" => done(expand(inv)),
        "capex" => done(capex(inv)),
        "dot" => done(dot(inv)),
        "svg" => done(svg_cmd(inv)),
        "trace" => done(trace_cmd(inv)),
        "design" => done(design_cmd(inv)),
        "broadcast" => done(broadcast_cmd(inv)),
        "resilience" => done(resilience_cmd(inv)),
        "fib compile" => done(fib_compile(inv)),
        "fib query" => done(fib_query(inv)),
        "fib bench" => done(fib_bench(inv)),
        "serve" => done(serve_cmd(inv)),
        "loadgen" => done(loadgen_cmd(inv)),
        "topo stats" => done(topo_stats(inv)),
        "experiments list" => done(experiments_list()),
        "experiments run" => done(experiments_run(inv)),
        "sim list" => {
            println!("{SCENARIO_CATALOG}");
            Ok(ExitCode::SUCCESS)
        }
        "sim run" => done(sim_run(inv)),
        "perf record" | "perf diff" => perf_cmd(inv),
        "perf trace-stat" => done(trace_stat_cmd(inv)),
        "help" => {
            println!("usage:\n{}", abccc_cli::usage().trim_end());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("`{other}` has no handler")),
    }
}

/// Renders a value as pretty JSON on stdout.
fn print_json(v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(())
}

/// A JSON object of `entries`, in order.
fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(entries.map(|(k, v)| (k.to_string(), v)).into())
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

fn props(inv: &Invocation) -> Result<(), String> {
    let (topo, _) = parse_topology(&inv.operands)?;
    let small = topo.network().server_count() <= 2048;
    let stats = if small {
        dcn_metrics::TopologyStats::measure(topo.as_ref())
    } else {
        dcn_metrics::TopologyStats::quick(topo.as_ref())
    };
    let bisection = small.then(|| dcn_metrics::bisection::exact_bisection_by_id(topo.network()));
    if inv.has("--json") {
        let bisection = bisection.map_or(Value::Null, Value::U64);
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
    if let Some(b) = bisection {
        println!("  bisection         {b} links (exact min-cut)");
    }
    Ok(())
}

/// The `<src> <dst>` operands at `at`, checked against `servers`.
fn endpoints(servers: usize, pos: &[String], at: usize) -> Result<(NodeId, NodeId), String> {
    let s = parse_u32(pos.get(at).ok_or("missing <src>")?, "src")?;
    let d = parse_u32(pos.get(at + 1).ok_or("missing <dst>")?, "dst")?;
    if s as usize >= servers || d as usize >= servers {
        return Err(format!("server ids must be < {servers}"));
    }
    Ok((NodeId(s), NodeId(d)))
}

fn route(inv: &Invocation) -> Result<(), String> {
    let (topo, used) = parse_topology(&inv.operands)?;
    let (src, dst) = endpoints(topo.network().server_count(), &inv.operands, used)?;
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

fn parallel(inv: &Invocation) -> Result<(), String> {
    let (spec, used) = head_spec(&inv.operands)?;
    let (fam, params) = family::parse_spec(&spec).map_err(|e| e.to_string())?;
    // The native constructor takes ABCCC parameters; BCCC(n,k) is
    // ABCCC(n,k,2).
    let p: AbcccParams = match fam.name() {
        "abccc" => params.parse(),
        "bccc" => format!("{params},2").parse(),
        _ => return Err("parallel paths are implemented for abccc/bccc".into()),
    }
    .map_err(|e: netgraph::NetworkError| e.to_string())?;
    let topo = fam.build(&params).map_err(|e| e.to_string())?;
    let (src, dst) = endpoints(topo.network().server_count(), &inv.operands, used)?;
    if src == dst {
        return Err("src and dst must differ".into());
    }
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

fn simulate(inv: &Invocation) -> Result<(), String> {
    let (topo, _) = parse_topology(&inv.operands)?;
    let pattern = inv.text("--pattern").unwrap_or_default();
    let seed: u64 = inv.num("--seed")?;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = topo.network().server_count();
    let pairs = match pattern {
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
    if inv.has("--json") {
        return print_json(&with_entries(
            report.to_value(),
            vec![
                ("pattern", Value::Str(pattern.to_string())),
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

/// The scenario catalog `sim list` prints, in display order.
const SCENARIO_CATALOG: &str = "\
all_reduce       ring all-reduce collective (reduce-scatter + all-gather phases)
all_to_all       shuffle: every ordered participant pair exchanges one chunk
incast           packet-level fan-in microburst onto one target's last hop
storage_rebuild  reconstruction storm with a mid-flow server fault
diurnal          sinusoidal load, 10% elephants, flash crowd at the peak";

fn sim_run(inv: &Invocation) -> Result<(), String> {
    let name = inv
        .operands
        .first()
        .ok_or("missing scenario (try `abccc-cli sim list`)")?;
    // The engine's batch runner shares the topology across threads, which
    // the family registry's Send + Sync builds allow.
    let (topo, _) = parse_topology(&inv.operands[1..])?;
    let seed: u64 = inv.num("--seed")?;
    let servers = topo.network().server_count();
    let scenario = dcn_workloads::scenarios::by_name(name, servers, seed)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `abccc-cli sim list`)"))?;
    let report = dcn_sim::TrafficEngine::new(topo.as_ref())
        .run(&scenario)
        .map_err(|e| e.to_string())?;
    if inv.has("--json") {
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

fn expand(inv: &Invocation) -> Result<(), String> {
    let (p, _) = abccc_head(&inv.operands, "expand")?;
    let plan = abccc::ExpansionStep::schedule(p, inv.num("--steps")?).map_err(|e| e.to_string())?;
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

fn dot(inv: &Invocation) -> Result<(), String> {
    let (topo, used) = parse_topology(&inv.operands)?;
    if topo.network().node_count() > 4096 {
        return Err("network too large to render usefully (> 4096 nodes)".into());
    }
    let mut opts = netgraph::dot::DotOptions {
        name: topo.name().replace(['(', ')', ','], "_"),
        ..Default::default()
    };
    if inv.operands.len() >= used + 2 {
        let (src, dst) = endpoints(topo.network().server_count(), &inv.operands, used)?;
        opts.highlight = vec![topo.route(src, dst).map_err(|e| e.to_string())?];
    }
    print!("{}", netgraph::dot::to_dot(topo.network(), &opts));
    Ok(())
}

fn svg_cmd(inv: &Invocation) -> Result<(), String> {
    let (topo, used) = parse_topology(&inv.operands)?;
    if topo.network().node_count() > 2048 {
        return Err("network too large to render usefully (> 2048 nodes)".into());
    }
    let mut opts = netgraph::svg::SvgOptions::default();
    if inv.operands.len() >= used + 2 {
        let (src, dst) = endpoints(topo.network().server_count(), &inv.operands, used)?;
        opts.highlight = vec![topo.route(src, dst).map_err(|e| e.to_string())?];
    }
    let svg = netgraph::svg::to_svg(topo.network(), &opts);
    match inv.text("--out") {
        Some(path) => {
            std::fs::write(path, &svg).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path} ({} bytes)", svg.len());
        }
        None => print!("{svg}"),
    }
    Ok(())
}

fn trace_cmd(inv: &Invocation) -> Result<(), String> {
    let (topo, _) = parse_topology(&inv.operands)?;
    let path = inv.text("--file").ok_or("trace needs --file TRACE.csv")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
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
    if inv.has("--json") {
        return print_json(&with_entries(
            report.to_value(),
            vec![
                ("trace_file", Value::Str(path.to_string())),
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

fn broadcast_cmd(inv: &Invocation) -> Result<(), String> {
    let (p, used) = abccc_head(&inv.operands, "broadcast")?;
    let src = parse_u32(inv.operands.get(used).ok_or("missing <src>")?, "src")?;
    if u64::from(src) >= p.server_count() {
        return Err(format!("src must be < {}", p.server_count()));
    }
    let tree = abccc::broadcast::one_to_all(&p, NodeId(src)).map_err(|e| e.to_string())?;
    tree.validate(&p)?;
    if inv.has("--json") {
        return print_json(&object([
            ("topology", Value::Str(p.to_string())),
            ("src", Value::U64(u64::from(src))),
            ("servers_covered", Value::U64(tree.member_count() as u64)),
            ("tree_depth_hops", Value::U64(tree.depth() as u64)),
            ("messages_sent", Value::U64(tree.member_count() as u64 - 1)),
        ]));
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

fn design_cmd(inv: &Invocation) -> Result<(), String> {
    let target: u64 = inv
        .operands
        .first()
        .ok_or("design needs <target-servers>")?
        .parse()
        .map_err(|_| "target-servers must be a number".to_string())?;
    let objective = match inv.text("--objective").unwrap_or_default() {
        "cost" => dcn_metrics::design::Objective::Cost,
        "latency" => dcn_metrics::design::Objective::Latency,
        "bandwidth" => dcn_metrics::design::Objective::Bandwidth,
        other => return Err(format!("unknown objective `{other}`")),
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

fn resilience_cmd(inv: &Invocation) -> Result<(), String> {
    use dcn_resilience::{CampaignConfig, PairSampling, RouterSpec, ScenarioKind};
    // A one-token spec runs the campaign on any family (native routing
    // plane for non-ABCCC); the legacy `<n> <k> <h>` form stays ABCCC.
    let (spec, _) = spec_or_abccc(&inv.operands, "resilience")?;
    let topo = family::build_spec(&spec).map_err(|e| e.to_string())?;

    let rate: f64 = inv.num("--rate")?;
    let scenario = match inv.text("--scenario").unwrap_or_default() {
        "uniform" => ScenarioKind::Uniform {
            server_rate: rate,
            switch_rate: rate,
            link_rate: inv.num("--link-rate")?,
        },
        "groups" => ScenarioKind::CrossbarGroups {
            groups: inv.num("--groups")?,
        },
        "level" => ScenarioKind::LevelSwitches {
            level: inv.num("--level")?,
        },
        "flapping" => ScenarioKind::FlappingLinks {
            rate,
            steps: inv.num("--steps")?,
        },
        other => return Err(format!("unknown scenario `{other}`")),
    };
    let router = match inv.text("--router").unwrap_or_default() {
        "resilient" => RouterSpec::Resilient(abccc::RetryBudget {
            bfs_fallback: !inv.has("--no-bfs"),
            ..abccc::RetryBudget::default()
        }),
        "digit" => RouterSpec::Digit(abccc::PermStrategy::DestinationAware),
        "vlb" => RouterSpec::Vlb {
            seed: inv.num("--seed")?,
        },
        other => return Err(format!("unknown router `{other}`")),
    };
    let sampling = match inv.text("--pattern").unwrap_or_default() {
        "random" => PairSampling::UniformRandom {
            pairs: inv.num("--pairs")?,
        },
        "permutation" => PairSampling::Permutation,
        "convergent" => PairSampling::Convergent,
        other => return Err(format!("unknown pattern `{other}`")),
    };

    let report = CampaignConfig::new()
        .scenario(scenario)
        .router(router)
        .sampling(sampling)
        .trials(inv.num("--trials")?)
        .seed(inv.num("--seed")?)
        .threads(inv.num("--threads")?)
        .measure_throughput(!inv.has("--no-throughput"))
        .run_on(topo.as_ref())
        .map_err(|e| e.to_string())?;

    if inv.has("--json") {
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

/// Compiles the route service of `fib`, `serve` and `loadgen` from their
/// shared `--shards` flag.
fn compile_service(inv: &Invocation, p: AbcccParams) -> Result<dcn_fib::RouteService, String> {
    let topo = abccc::Abccc::new(p).map_err(|e| e.to_string())?;
    dcn_fib::RouteService::compile(topo, inv.num("--shards")?).map_err(|e| e.to_string())
}

/// The `fib` service: compiled, masked by `--fail-rate`/`--fail-seed`,
/// and its compile time in ms.
fn fib_service(inv: &Invocation, p: AbcccParams) -> Result<(dcn_fib::RouteService, f64), String> {
    let fail_rate: f64 = inv.num("--fail-rate")?;
    let t0 = std::time::Instant::now();
    let mut svc = compile_service(inv, p)?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    if fail_rate > 0.0 {
        let mask = netgraph::FaultScenario::seeded(inv.num("--fail-seed")?)
            .fail_servers_frac(fail_rate)
            .fail_switches_frac(fail_rate)
            .build(svc.topo().network());
        svc.apply_mask(mask);
    }
    Ok((svc, compile_ms))
}

fn fib_compile(inv: &Invocation) -> Result<(), String> {
    let (p, _) = abccc_head(&inv.operands, inv.command.name)?;
    let (svc, compile_ms) = fib_service(inv, p)?;
    let fib = svc.table();
    if inv.has("--json") {
        return print_json(&object([
            ("topology", Value::Str(p.to_string())),
            ("servers", Value::U64(u64::from(fib.servers()))),
            ("strategy", Value::Str(fib.strategy().label().to_string())),
            ("table_bytes", Value::U64(fib.bytes() as u64)),
            ("shards", Value::U64(svc.shard_count() as u64)),
            ("compile_ms", Value::F64(compile_ms)),
        ]));
    }
    println!("{p}: compiled forwarding table");
    println!("  strategy     {}", fib.strategy().label());
    println!("  servers      {}", fib.servers());
    println!("  table size   {:.1} KiB", fib.bytes() as f64 / 1024.0);
    println!("  shards       {}", svc.shard_count());
    println!("  compile time {compile_ms:.2} ms");
    Ok(())
}

fn fib_query(inv: &Invocation) -> Result<(), String> {
    let (p, used) = abccc_head(&inv.operands, inv.command.name)?;
    let (src, dst) = endpoints(p.server_count() as usize, &inv.operands, used)?;
    let (s, d) = (src.0, dst.0);
    let (svc, _) = fib_service(inv, p)?;
    let out = svc.query(src, dst).map_err(|e| e.to_string())?;
    if inv.has("--json") {
        return print_json(&object([
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
        ]));
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

fn fib_bench(inv: &Invocation) -> Result<(), String> {
    let (p, _) = abccc_head(&inv.operands, inv.command.name)?;
    let queries: usize = inv.num("--queries")?;
    let seed: u64 = inv.num("--seed")?;
    let (svc, compile_ms) = fib_service(inv, p)?;
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
    let digest = object([
        ("topology", Value::Str(p.to_string())),
        ("queries", Value::U64(queries as u64)),
        ("seed", Value::U64(seed)),
        ("fail_rate", Value::F64(inv.num("--fail-rate")?)),
        ("fail_seed", Value::U64(inv.num("--fail-seed")?)),
        ("ok", Value::U64(ok)),
        ("errors", Value::U64(errors)),
        ("fallbacks", Value::U64(fallbacks)),
        ("total_link_hops", Value::U64(total_link_hops)),
        ("hop_p50", Value::U64(hops.percentile(0.50))),
        ("hop_p99", Value::U64(hops.percentile(0.99))),
        ("hop_p999", Value::U64(hops.percentile(0.999))),
        ("hop_p9999", Value::U64(hops.percentile(0.9999))),
        ("route_hash", Value::U64(hash)),
    ]);
    if let Some(path) = inv.text("--digest") {
        let text = serde_json::to_string_pretty(&digest).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if inv.has("--json") {
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

fn serve_cmd(inv: &Invocation) -> Result<(), String> {
    use dcn_serve::{RouteServer, ServeConfig};
    let (p, _) = abccc_head(&inv.operands, "serve")?;
    let cfg = ServeConfig {
        port: inv.num("--port")?,
        max_inflight: inv.num("--max-inflight")?,
        max_batch: inv.num("--max-batch")?,
    };
    let svc = compile_service(inv, p)?;
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

fn loadgen_cmd(inv: &Invocation) -> Result<(), String> {
    use dcn_serve::loadgen::{run_loopback, LoadgenConfig};
    use dcn_serve::ServeConfig;
    let (p, _) = abccc_head(&inv.operands, "loadgen")?;
    let cfg = LoadgenConfig {
        connections: inv.num("--connections")?,
        frames: inv.num("--frames")?,
        batch: inv.num("--batch")?,
        window: inv.num("--window")?,
        seed: inv.num("--seed")?,
    };
    let svc = compile_service(inv, p)?;
    let shards = svc.shard_count();
    let (report, drain) =
        run_loopback(svc, ServeConfig::default(), &cfg).map_err(|e| e.to_string())?;
    if inv.has("--json") {
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

fn topo_stats(inv: &Invocation) -> Result<(), String> {
    let samples: usize = inv.num("--samples")?;
    let seed: u64 = inv.num("--seed")?;
    let trials: usize = inv.num("--trials")?;
    let json = inv.has("--json");
    let (topo, _) = parse_topology(&inv.operands)?;
    let net = topo.network();
    if !inv.has("--estimate") {
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
        return print_json(&object([
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
        ]));
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

fn experiments_list() -> Result<(), String> {
    use abccc_bench::registry::{all, Preset};
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

/// The `--preset` of `experiments run` and `perf`.
fn preset(inv: &Invocation) -> Result<abccc_bench::registry::Preset, String> {
    let name = inv.text("--preset").unwrap_or_default();
    abccc_bench::registry::Preset::parse(name)
        .ok_or_else(|| format!("unknown preset `{name}` (tiny|paper|scale)"))
}

/// The experiments the operands name, or every one for `--all` (and,
/// when `all_by_default`, for no names).
fn selected_experiments(
    inv: &Invocation,
    all_by_default: bool,
) -> Result<Vec<&'static dyn abccc_bench::registry::Experiment>, String> {
    use abccc_bench::registry::{all, find};
    let names = &inv.operands;
    if inv.has("--all") || (all_by_default && names.is_empty()) {
        if !names.is_empty() {
            return Err("give either --all or experiment names, not both".into());
        }
        return Ok(all().to_vec());
    }
    if names.is_empty() {
        return Err("experiments run needs names or --all (see `experiments list`)".into());
    }
    names
        .iter()
        .map(|name| {
            find(name)
                .ok_or_else(|| format!("unknown experiment `{name}` (see `experiments list`)"))
        })
        .collect()
}

fn experiments_run(inv: &Invocation) -> Result<(), String> {
    let opts = abccc_bench::engine::RunOptions {
        preset: preset(inv)?,
        threads: inv.num("--threads")?,
        json_dir: inv.text("--json").map(Into::into),
        print_tables: true,
        print_summary: true,
    };
    abccc_bench::engine::run(&selected_experiments(inv, false)?, &opts)?;
    Ok(())
}

/// `perf record|diff` — the performance sentinel.
///
/// Both run the selected experiments `--runs` times through the sweep
/// engine (no artifact directory needed), fold each experiment's
/// repetitions into a component-wise median
/// [`dcn_telemetry::PerfRecord`], and either store them as baselines or
/// compare them against the stored ones. `diff` exits nonzero when any
/// metric crosses both the relative and absolute regression gates.
fn perf_cmd(inv: &Invocation) -> Result<ExitCode, String> {
    let json = inv.has("--json");
    let specs = selected_experiments(inv, true)?;
    let preset = preset(inv)?;
    let runs: usize = inv.num("--runs")?;
    let baselines_dir = inv.text("--baselines").unwrap_or_default();

    // Measure: N quiet engine runs, telemetry reset before each so every
    // repetition's histograms and gauges stand alone (this also discards
    // any spans recorded earlier in the process — perf is a measurement
    // command, not a tracing one).
    let opts = abccc_bench::engine::RunOptions {
        preset,
        threads: inv.num("--threads")?,
        json_dir: None,
        print_tables: false,
        print_summary: false,
    };
    let mut per_run: Vec<Vec<dcn_telemetry::PerfRecord>> = Vec::with_capacity(runs);
    for _ in 0..runs {
        dcn_telemetry::reset();
        let report = abccc_bench::engine::run(&specs, &opts)?;
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

    if inv.command.name == "perf record" {
        dcn_telemetry::save_baselines(baselines_dir, &current)
            .map_err(|e| format!("writing {baselines_dir}: {e}"))?;
        if json {
            print_json(&object([
                ("recorded", Value::U64(current.len() as u64)),
                ("preset", Value::Str(preset.to_string())),
                ("runs", Value::U64(runs as u64)),
                ("dir", Value::Str(baselines_dir.to_string())),
            ]))?;
        } else {
            println!(
                "recorded {} baseline(s) (preset {preset}, median of {runs} run(s)) to {baselines_dir}",
                current.len()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let baselines = dcn_telemetry::load_baselines(baselines_dir)?;
    if baselines.is_empty() {
        return Err(format!(
            "no baselines under {baselines_dir} — run `abccc-cli perf record` first"
        ));
    }
    let thresholds = dcn_telemetry::DiffThresholds {
        rel: inv.num("--rel")?,
        ..dcn_telemetry::DiffThresholds::default()
    };
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

/// `perf trace-stat FILE`: validates a `--trace-out` Chrome trace and
/// counts its complete spans, distinct thread lanes and root spans
/// (`args.parent == 0`).
fn trace_stat_cmd(inv: &Invocation) -> Result<(), String> {
    let path = inv.operands.first().ok_or("perf trace-stat needs a FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
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
    let (mut spans, mut roots, mut lanes) = (0u64, 0u64, Vec::new());
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
    let lanes = lanes.len() as u64;
    if inv.has("--json") {
        return print_json(&object([
            ("file", Value::Str(path.clone())),
            ("spans", Value::U64(spans)),
            ("lanes", Value::U64(lanes)),
            ("roots", Value::U64(roots)),
        ]));
    }
    println!("{path}: valid Chrome trace, {spans} spans, {lanes} lanes, {roots} roots");
    Ok(())
}

fn capex(inv: &Invocation) -> Result<(), String> {
    let (topo, _) = parse_topology(&inv.operands)?;
    let stats = dcn_metrics::TopologyStats::quick(topo.as_ref());
    let c = dcn_metrics::CostModel::default().capex(&stats);
    if inv.has("--json") {
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
