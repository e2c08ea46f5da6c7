//! The command-line grammar of `abccc-cli`: one declarative table per
//! command (its operands, and each flag's name, value kind, default and
//! help) and the one parser that reads any argv against them.
//!
//! [`parse`] is total: every argv yields an [`Invocation`] or a typed
//! [`CliError`], never a panic. It only reads the tables, so it runs no
//! command; the binary dispatches on [`Invocation::command`]. The same
//! tables print the usage text ([`usage`], [`Command::usage`]).

#![warn(missing_docs)]

use std::fmt;
use std::num::IntErrorKind;
use std::str::FromStr;
pub use tables::{COMMANDS, GLOBAL};
use Kind::{Choice, Fraction, Int, Real, Switch, Text};

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Free text such as a path; the string is its usage placeholder.
    Text(&'static str),
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// An unsigned integer in `min..=max`.
    Int(u64, u64),
    /// A finite real number.
    Real,
    /// A real number in `[0, 1]`.
    Fraction,
}

impl Kind {
    /// What a well-formed, in-range value looks like.
    fn expected(self) -> String {
        match self {
            Int(min, u64::MAX) => format!("an integer ≥ {min}"),
            Int(min, max) => format!("an integer in {min}..={max}"),
            Real => "a finite number".into(),
            Fraction => "a number in [0, 1]".into(),
            Choice(words) => words.join("|"),
            Text(meta) => meta.into(),
            Switch => "no value".into(),
        }
    }
}

/// One flag of a command's table.
#[derive(Debug, PartialEq)]
pub struct Flag {
    /// `--name`, as typed.
    pub name: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// The value when the flag is absent (`""`: none).
    pub default: &'static str,
    /// One line for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// Accepts `value` if it is of this flag's kind and in its range.
    fn check(&'static self, value: &str) -> Result<(), CliError> {
        let malformed = || CliError::Malformed(self, value.into());
        let in_range = match self.kind {
            Choice(words) if !words.contains(&value) => return Err(malformed()),
            Switch | Text(_) | Choice(_) => true,
            Int(min, max) => match value.parse::<u64>() {
                Ok(v) => (min..=max).contains(&v),
                Err(e) if *e.kind() == IntErrorKind::PosOverflow => false,
                Err(_) => return Err(malformed()),
            },
            Real | Fraction => {
                let v: f64 = value.parse().map_err(|_| malformed())?;
                v.is_finite() && (self.kind == Real || (0.0..=1.0).contains(&v))
            }
        };
        let out_of_range = || CliError::OutOfRange(self, value.into());
        in_range.then_some(()).ok_or_else(out_of_range)
    }

    /// The flag's line in a usage text: `--name PLACEHOLDER  help (default …)`.
    fn help_line(&self) -> String {
        let spelled = match self.kind {
            Switch => self.name.to_string(),
            Choice(words) => format!("{} {}", self.name, words.join("|")),
            Int(..) => format!("{} N", self.name),
            Real | Fraction => format!("{} R", self.name),
            Text(meta) => format!("{} {meta}", self.name),
        };
        let default = match self.default {
            "" => String::new(),
            d => format!(" (default {d})"),
        };
        format!("      {spelled:<26} {}{default}\n", self.help)
    }
}

/// One command: its words, operands, flags, and whether `--json` applies.
#[derive(Debug, PartialEq)]
pub struct Command {
    /// One or two words: `props`, `fib bench`.
    pub name: &'static str,
    /// The operands, for usage text.
    pub operands: &'static str,
    /// Whether the global `--json` switch selects a JSON report.
    pub json: bool,
    /// The flags this command takes besides the global ones.
    pub flags: &'static [Flag],
    /// What the command does, in one line.
    pub about: &'static str,
}

impl Command {
    /// `abccc-cli <name> <operands>`, what it does, and each flag's help.
    pub fn usage(&self) -> String {
        let mut out = format!("  abccc-cli {} {}", self.name, self.operands);
        out = format!("{}\n      {}\n", out.trim_end(), self.about);
        for f in self.flags.iter().chain(self.json.then_some(&tables::JSON)) {
            out += &f.help_line();
        }
        out
    }
}

/// The tables: one entry per line, so rustfmt (which would split each
/// entry over several lines) leaves this module alone.
#[rustfmt::skip]
mod tables {
    use super::*;

    const fn flag(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
        Flag { name, kind, default, help }
    }
    const fn cmd(name: &'static str, operands: &'static str, json: bool, flags: &'static [Flag], about: &'static str) -> Command {
        Command { name, operands, json, flags, about }
    }

    const U64: Kind = Int(0, u64::MAX);
    const U32: Kind = Int(0, u32::MAX as u64);
    const U16: Kind = Int(0, u16::MAX as u64);
    const PRESETS: Kind = Choice(&["tiny", "paper", "scale"]);

    pub const JSON: Flag = flag("--json", Switch, "", "JSON report instead of text");
    /// Flags every command takes, before or after its words.
    pub static GLOBAL: &[Flag] = &[
        flag("--trace", Switch, "", "print a telemetry summary (spans + counters) to stderr"),
        flag("--metrics-out", Text("FILE"), "", "write raw telemetry events as JSON lines"),
        flag("--trace-out", Text("FILE"), "", "write a Chrome Trace Event JSON (Perfetto)"),
        flag("--flame-out", Text("FILE"), "", "write folded flamegraph stacks (self time)"),
        JSON,
    ];

    const SHARDS: Flag = flag("--shards", U64, "8", "route-service shards, rounded up to a power of two");
    const FAIL_RATE: Flag = flag("--fail-rate", Fraction, "0", "fail this fraction of servers and switches");
    const FAIL_SEED: Flag = flag("--fail-seed", U64, "0", "seed of the failure mask");
    const THREADS: Flag = flag("--threads", U64, "0", "worker threads (0 = all cores)");
    const ALL: Flag = flag("--all", Switch, "", "every registered experiment");

    const SIMULATE: &[Flag] = &[
        flag("--pattern", Choice(&["permutation", "bisection", "alltoall"]), "permutation", "traffic pattern"),
        flag("--seed", U64, "1", "pattern seed"),
    ];
    const RESILIENCE: &[Flag] = &[
        flag("--scenario", Choice(&["uniform", "groups", "level", "flapping"]), "uniform", "fault scenario"),
        flag("--rate", Fraction, "0.05", "server and switch failure rate (uniform, flapping)"),
        flag("--link-rate", Fraction, "0", "link failure rate (uniform)"),
        flag("--groups", U64, "1", "crossbar groups to fail (groups)"),
        flag("--level", U32, "0", "cube level whose switches fail (level)"),
        flag("--steps", U64, "4", "flap steps (flapping)"),
        flag("--router", Choice(&["resilient", "digit", "vlb"]), "resilient", "router"),
        flag("--no-bfs", Switch, "", "no BFS fallback in the resilient router"),
        flag("--pattern", Choice(&["random", "permutation", "convergent"]), "random", "pair sampling"),
        flag("--pairs", U64, "64", "pairs per trial (random)"),
        flag("--trials", U64, "8", "trials"),
        flag("--seed", U64, "0", "campaign seed (also the VLB seed)"),
        THREADS,
        flag("--no-throughput", Switch, "", "skip the throughput-retention measurement"),
    ];
    const EXPAND: &[Flag] = &[flag("--steps", U32, "1", "expansion steps")];
    const SVG: &[Flag] = &[flag("--out", Text("FILE"), "", "write to FILE instead of stdout")];
    const TRACE: &[Flag] = &[flag("--file", Text("TRACE.csv"), "", "the CSV flow trace (required)")];
    const DESIGN: &[Flag] = &[flag("--objective", Choice(&["cost", "latency", "bandwidth"]), "cost", "ranking")];
    const SIM_RUN: &[Flag] = &[flag("--seed", U64, "1", "scenario seed")];
    const FIB: &[Flag] = &[SHARDS, FAIL_RATE, FAIL_SEED];
    const FIB_BENCH: &[Flag] = &[
        flag("--queries", U64, "20000", "random pairs to look up"),
        flag("--seed", U64, "21", "pair-sampling seed"),
        SHARDS, FAIL_RATE, FAIL_SEED,
        flag("--digest", Text("FILE"), "", "write the deterministic result digest (JSON)"),
    ];
    const SERVE: &[Flag] = &[
        flag("--port", U16, "0", "TCP port on 127.0.0.1 (0 = ephemeral)"),
        SHARDS,
        flag("--max-inflight", U64, "4096", "per-connection in-flight query budget"),
        flag("--max-batch", U64, "4096", "largest pair count of one batch frame"),
    ];
    const LOADGEN: &[Flag] = &[
        flag("--connections", U64, "4", "client connections"),
        flag("--frames", U64, "256", "frames per connection"),
        flag("--batch", U64, "16", "pairs per frame"),
        flag("--window", U64, "8", "frames in flight per connection"),
        flag("--seed", U64, "1", "pair-sampling seed"),
        SHARDS,
    ];
    const TOPO_STATS: &[Flag] = &[
        flag("--estimate", Switch, "", "seeded sampling instead of exact sweeps"),
        flag("--samples", U64, "64", "sampled BFS sources (--estimate)"),
        flag("--seed", U64, "7", "sampling seed (--estimate)"),
        flag("--trials", U64, "4", "balanced bisection probes (--estimate)"),
    ];
    const EXPERIMENTS_RUN: &[Flag] = &[
        ALL,
        flag("--preset", PRESETS, "paper", "grid size"),
        flag("--json", Text("DIR"), "", "write rows + manifest artifacts to DIR"),
        THREADS,
    ];
    const PERF: &[Flag] = &[
        ALL,
        flag("--preset", PRESETS, "tiny", "grid size"),
        flag("--runs", Int(1, u64::MAX), "3", "runs per experiment (the median is kept)"),
        THREADS,
        flag("--baselines", Text("DIR"), "bench_results/baselines", "baseline directory"),
        flag("--rel", Real, "0.5", "relative regression gate (diff)"),
    ];

    /// Every command, in help order.
    pub static COMMANDS: &[Command] = &[
        cmd("props", "<family…>", true, &[], "structural properties (+diameter for small nets)"),
        cmd("route", "<family…> <src> <dst>", false, &[], "one-to-one route (native algorithm)"),
        cmd("parallel", "<family…> <src> <dst>", false, &[], "vertex-disjoint parallel paths (abccc/bccc only)"),
        cmd("simulate", "<family…>", true, SIMULATE, "flow-level max-min throughput of a traffic pattern"),
        cmd("expand", "<spec>|<n> <k> <h>", false, EXPAND, "ABCCC expansion plan"),
        cmd("capex", "<family…>", true, &[], "CAPEX breakdown (default cost model)"),
        cmd("dot", "<family…> [<src> <dst>]", false, &[], "Graphviz DOT (route highlighted if given)"),
        cmd("broadcast", "<spec>|<n> <k> <h> <src>", true, &[], "ABCCC one-to-all tree statistics"),
        cmd("svg", "<family…> [<src> <dst>]", false, SVG, "SVG rendering (route highlighted if given)"),
        cmd("trace", "<family…>", true, TRACE, "replay a CSV flow trace"),
        cmd("design", "<target-servers>", false, DESIGN, "ABCCC configurations reaching a server count, best first"),
        cmd("resilience", "<spec>|<n> <k> <h>", true, RESILIENCE, "seeded fault campaign (non-ABCCC specs run on their native routing plane)"),
        cmd("fib compile", "<spec>|<n> <k> <h>", true, FIB, "compile the forwarding table, print stats"),
        cmd("fib query", "<spec>|<n> <k> <h> <src> <dst>", true, FIB, "answer one query from the compiled table"),
        cmd("fib bench", "<spec>|<n> <k> <h>", true, FIB_BENCH, "batched route-service throughput"),
        cmd("serve", "<spec>|<n> <k> <h>", false, SERVE, "serve the compiled FIB over TCP until stdin closes, then drain and exit 0"),
        cmd("loadgen", "<spec>|<n> <k> <h>", true, LOADGEN, "loopback load generator: throughput, RTT quantiles, deterministic digest"),
        cmd("topo stats", "<family…>", true, TOPO_STATS, "graph metrics, exact or sampled at any scale"),
        cmd("experiments list", "", false, &[], "index of registered paper experiments"),
        cmd("experiments run", "<name…>", false, EXPERIMENTS_RUN, "run the named experiments (or --all) through the sweep engine"),
        cmd("sim list", "", false, &[], "production scenario catalog (unified engine)"),
        cmd("sim run", "<scenario> <family…>", true, SIM_RUN, "one workload scenario: FCT distribution, goodput, fault impact"),
        cmd("perf record", "[<name…>]", true, PERF, "store median perf figures of N runs as baselines (default: all)"),
        cmd("perf diff", "[<name…>]", true, PERF, "re-measure against the baselines; exit 1 on regression"),
        cmd("perf trace-stat", "FILE", true, &[], "validate a --trace-out file, count spans/lanes/roots"),
        cmd("help", "", false, &[], "this text"),
    ];
}

const FAMILIES: &str = "
families: abccc n k h | bccc n k | bcube n k | dcell n k | fattree p | ghc n d
  every <family…> also accepts one-token specs — `abccc:4,2,3`, `fattree:6`,
  `jellyfish:seed=7,r=4,v=64`, `spaceshuffle:seed=7,d=3,v=64` (the canonical
  round-trip form printed by `topo stats`); jellyfish/spaceshuffle are spec-only

global flags (before or after the command):
";

/// The full help: every command's usage, the families, the global flags.
pub fn usage() -> String {
    let commands: String = COMMANDS.iter().map(Command::usage).collect();
    let globals: String = GLOBAL.iter().map(Flag::help_line).collect();
    format!("{commands}{FAMILIES}{globals}")
}

/// Why an argv was refused. The message is one line: text taken from the
/// argv is escaped.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No command word.
    MissingCommand,
    /// A first word that names no command.
    UnknownCommand(String),
    /// A command group (`fib`, `perf`, …) and its missing or unknown second word.
    UnknownSubcommand(&'static str, Option<String>),
    /// A command and a flag in neither its table nor the global one.
    UnknownFlag(&'static str, String),
    /// A flag given twice.
    RepeatedFlag(&'static Flag),
    /// A value-taking flag that ends argv or is followed by another flag.
    MissingValue(&'static Flag),
    /// A flag and a value that does not parse as its kind.
    Malformed(&'static Flag, String),
    /// A flag and a value of its kind outside its range.
    OutOfRange(&'static Flag, String),
    /// A command that prints no JSON report, given the global `--json`.
    JsonUnsupported(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing command"),
            CliError::UnknownCommand(w) => write!(f, "unknown command `{}`", w.escape_debug()),
            CliError::UnknownSubcommand(group, None) => write!(f, "{group} needs a subcommand"),
            CliError::UnknownSubcommand(group, Some(w)) => {
                write!(f, "unknown {group} subcommand `{}`", w.escape_debug())
            }
            CliError::UnknownFlag(cmd, flag) => {
                write!(f, "unknown flag `{}` for `{cmd}`", flag.escape_debug())
            }
            CliError::RepeatedFlag(flag) => write!(f, "`{}` is given more than once", flag.name),
            CliError::MissingValue(flag) => {
                write!(f, "`{}` needs a value: {}", flag.name, flag.kind.expected())
            }
            CliError::Malformed(flag, value) | CliError::OutOfRange(flag, value) => {
                let (name, expected) = (flag.name, flag.kind.expected());
                let value = value.escape_debug();
                match (self, flag.kind) {
                    (CliError::Malformed(..), Choice(_)) => {
                        let noun = name.trim_start_matches('-');
                        write!(f, "unknown {noun} `{value}` ({expected})")
                    }
                    (CliError::Malformed(..), _) => {
                        write!(f, "`{name}` expects {expected}, got `{value}`")
                    }
                    _ => write!(
                        f,
                        "`{name}` is out of range: expected {expected}, got `{value}`"
                    ),
                }
            }
            CliError::JsonUnsupported(cmd) => write!(f, "--json is not supported for `{cmd}`"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CliError> for String {
    fn from(e: CliError) -> String {
        e.to_string()
    }
}

/// A parsed argv: the command, its operands, and the flags given.
#[derive(Debug)]
pub struct Invocation {
    /// The command the argv names.
    pub command: &'static Command,
    /// The non-flag arguments after the command words, in order.
    pub operands: Vec<String>,
    given: Vec<(&'static Flag, String)>,
}

impl Invocation {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// `name`'s value as given, else its table default (`None`: neither).
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.given.iter().find(|(f, _)| f.name == name) {
            Some((_, value)) => Some(value),
            None => self
                .lookup(name)
                .map(|f| f.default)
                .filter(|d| !d.is_empty()),
        }
    }

    /// A numeric flag's value (as given, else its table default) as `T`.
    ///
    /// # Errors
    ///
    /// A flag outside the command's table, one with no value, or a value
    /// that does not fit `T`.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        let unknown = || CliError::UnknownFlag(self.command.name, name.into());
        let flag = self.lookup(name).ok_or_else(unknown)?;
        let value = self.text(name).ok_or(CliError::MissingValue(flag))?;
        value
            .parse()
            .map_err(|_| CliError::OutOfRange(flag, value.into()))
    }

    fn lookup(&self, name: &str) -> Option<&'static Flag> {
        let command: &'static Command = self.command;
        command.flags.iter().chain(GLOBAL).find(|f| f.name == name)
    }

    /// Reads the flags and operands in `args`, looking flags up in
    /// `tables` in order.
    fn read(&mut self, args: &[String], tables: &[&'static [Flag]]) -> Result<(), CliError> {
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                self.operands.push(arg.clone());
                continue;
            }
            let unknown = || CliError::UnknownFlag(self.command.name, arg.clone());
            let flag = tables.iter().copied().flatten().find(|f| f.name == arg);
            let flag = flag.ok_or_else(unknown)?;
            if self.has(flag.name) {
                return Err(CliError::RepeatedFlag(flag));
            }
            let value = match flag.kind {
                Switch => String::new(),
                _ => match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => v.clone(),
                    None => return Err(CliError::MissingValue(flag)),
                },
            };
            flag.check(&value)?;
            self.given.push((flag, value));
        }
        Ok(())
    }
}

/// Finds the command in `argv`: skips leading global flags and their
/// values, then matches one or two command words. Returns the command,
/// where its words start, and how many there are.
fn locate(argv: &[String]) -> Result<(&'static Command, usize, usize), CliError> {
    let mut at = 0;
    while let Some(f) = argv
        .get(at)
        .and_then(|a| GLOBAL.iter().find(|f| f.name == a))
    {
        let valued = f.kind != Switch && argv.get(at + 1).is_some_and(|v| !v.starts_with("--"));
        at += 1 + usize::from(valued);
    }
    let word = match argv.get(at).ok_or(CliError::MissingCommand)?.as_str() {
        "--help" | "-h" => "help",
        w => w,
    };
    // One command, or a group such as `fib compile|query|bench`.
    let mut group = COMMANDS
        .iter()
        .filter(|c| c.name.split(' ').next() == Some(word))
        .peekable();
    let first = group.peek().copied();
    let first = first.ok_or_else(|| CliError::UnknownCommand(word.into()))?;
    let Some((group_word, _)) = first.name.split_once(' ') else {
        return Ok((first, at, 1));
    };
    let sub = argv.get(at + 1);
    group
        .find(|c| c.name.split_once(' ').map(|(_, s)| s) == sub.map(String::as_str))
        .map(|c| (c, at, 2))
        .ok_or_else(|| CliError::UnknownSubcommand(group_word, sub.cloned()))
}

/// Parses `argv` (without the program name) against the tables. Global
/// flags may come before or after the command words; after them, the
/// command's own flags shadow global ones of the same name.
///
/// # Errors
///
/// Every way an argv can fail to name a command and fit its table.
pub fn parse(argv: &[String]) -> Result<Invocation, CliError> {
    let (command, at, words) = locate(argv)?;
    let mut inv = Invocation {
        command,
        operands: Vec::new(),
        given: Vec::new(),
    };
    inv.read(&argv[..at], &[GLOBAL])?;
    inv.read(&argv[at + words..], &[command.flags, GLOBAL])?;
    if !command.json && inv.given.iter().any(|(f, _)| **f == tables::JSON) {
        return Err(CliError::JsonUnsupported(command.name));
    }
    Ok(inv)
}

/// The usage that explains why `argv` was refused: its command's when
/// it names one, else the full text.
pub fn usage_for(argv: &[String]) -> String {
    match locate(argv) {
        Ok((command, ..)) => command.usage(),
        Err(_) => usage(),
    }
}
