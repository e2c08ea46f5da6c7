//! End-to-end and per-layer benchmark of the two user paths of this
//! repository: the TCP route server (`abccc-cli serve`) and the paper
//! sweep (`abccc-cli experiments run`). The program is built from the
//! checkout and driven only through its CLI, its wire protocol and
//! public library functions. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_bulk --seed 1 --seconds 30 --trace 0
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A readable table goes to stderr.

mod json;
mod proc;
mod quantile;
mod regen;
mod report;
mod rng;
mod serve;
mod spans;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: &[&str] = &["serve_bulk", "serve_faults", "regen"];
const USAGE: &str = "usage: perfbench --workload <serve_bulk|serve_faults|regen> \
--seed <n> --seconds <n> --trace <0|1> [--spans-out FILE]\n       perfbench --self-test";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        spans_out: None,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.max(1),
            "--trace" => {
                a.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--spans-out" => a.spans_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Wall-clock limit of one run after the build, under the 180 s a run may take.
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn run(a: &Args) -> Result<Outcome, String> {
    let root = proc::checkout_root();
    let bin = proc::build_cli(&root)?;
    proc::arm_watchdog(RUN_LIMIT);
    let tmp = proc::Scratch::new(&root, &a.workload)?;
    match (serve::Kind::parse(&a.workload), a.trace) {
        (Some(kind), false) => serve::run(kind, &bin, a.seed, a.seconds, None),
        (Some(kind), true) => serve::run_traced(kind, &bin, &tmp.path, a.seed, a.seconds),
        (None, false) => regen::run(&bin, &tmp.path, a.seconds, None),
        (None, true) => regen::run_traced(&bin, &tmp.path, a.seconds),
    }
}

/// Proves the oracles bite: one flipped reply byte in a short
/// `serve_bulk` run (the last byte of a 64-pair batch reply, so one item
/// differs) and one flipped rows-artifact byte in a `regen` sweep must
/// each be counted as exactly one failed operation.
fn self_test() -> Result<(), String> {
    let root = proc::checkout_root();
    let bin = proc::build_cli(&root)?;
    proc::arm_watchdog(RUN_LIMIT);
    let tmp = proc::Scratch::new(&root, "self-test")?;
    let serve = serve::run(serve::Kind::Bulk, &bin, 7, 1, Some(100))?;
    let regen = regen::run(&bin, &tmp.path, 1, Some("fig7_faults"))?;
    for (name, o) in [("corrupted reply", &serve), ("corrupted artifact", &regen)] {
        eprintln!(
            "self-test {name}: attempted {}, failed {}",
            o.attempted, o.failed
        );
        if o.failed != 1 || !o.problems.is_empty() {
            return Err(format!(
                "{name}: expected exactly 1 failed operation, saw {} ({:?})",
                o.failed, o.problems
            ));
        }
    }
    Ok(())
}

fn print_table(a: &Args, o: &Outcome, names: &[(&str, &str)], missing: &[String]) {
    eprintln!(
        "perfbench {} seed {} ({}s, trace {})",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for &(name, unit) in names {
        if let Some((_, v, _)) = o.metrics.iter().find(|(n, _, _)| n == name) {
            eprintln!("  {name:<42} {v:>16.4} {unit}");
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "  not measured on this workload (reported as 0): {}",
            missing.join(", ")
        );
    }
    for n in &o.notes {
        eprintln!("  note: {n}");
    }
    for p in &o.problems {
        eprintln!("  problem: {p}");
    }
    eprintln!(
        "  attempted {} operations, failed {}",
        o.attempted, o.failed
    );
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.self_test {
        return match self_test() {
            Ok(()) => {
                eprintln!("self-test passed: both corruptions were counted as failed operations");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench self-test: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if a.trace {
        spans::enable();
    }
    let mut o = match run(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if o.attempted == 0 {
        o.problems.push("no operation was attempted".into());
    }
    let names = if a.trace { PER_LAYER } else { END_TO_END };
    let (_, missing) = o.render(names);
    if !a.trace && !missing.is_empty() {
        o.problems.push(format!(
            "end-to-end metrics not measured: {}",
            missing.join(", ")
        ));
    }
    print_table(&a, &o, names, &missing);
    if let Some(path) = &a.spans_out {
        if let Err(e) = spans::write_jsonl(path, &spans::take()) {
            eprintln!("perfbench: {e}");
        }
    }
    println!("{}", o.render(names).0);
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
