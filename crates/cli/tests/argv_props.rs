//! Property tests pinning the argument parser: any argv gets an
//! [`Invocation`] that fits its command's table or a typed [`CliError`],
//! never a panic, and every argv built from the tables is accepted with
//! the values it gave. Only `abccc_cli::parse` runs, so no case starts a
//! command, a server or a thread.

use abccc_cli::{parse, CliError, Command, Flag, Invocation, Kind, COMMANDS, GLOBAL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick<'a, T>(rng: &mut StdRng, from: &'a [T]) -> &'a T {
    &from[rng.gen_range(0..from.len() as u64) as usize]
}

/// Every flag of every table, the global ones included.
fn all_flags() -> impl Iterator<Item = &'static Flag> {
    COMMANDS.iter().flat_map(|c| c.flags.iter()).chain(GLOBAL)
}

/// Values of every shape: in and out of every kind's range, choice words,
/// specs, paths, and text that looks like a flag.
fn sample_value(rng: &mut StdRng) -> String {
    const VALUES: &[&str] = &[
        "0",
        "1",
        "7",
        "65535",
        "65536",
        "4294967295",
        "4294967297",
        "18446744073709551616",
        "-1",
        "+3",
        "0.5",
        "1.5",
        "NaN",
        "inf",
        "-0",
        "1e3",
        "",
        " ",
        "é",
        "abccc:2,2,2",
        "2",
        "jellyfish:v=8,r=3",
        "/tmp/x",
        "-",
        "--",
        "---",
        "-h",
        "--help",
    ];
    match rng.gen_range(0..3u64) {
        0 => pick(rng, VALUES).to_string(),
        1 => match *pick(rng, &all_flags().map(|f| f.kind).collect::<Vec<_>>()) {
            Kind::Choice(words) => pick(rng, words).to_string(),
            _ => rng.gen_range(0..100u64).to_string(),
        },
        _ => (0..rng.gen_range(0..6u64))
            .filter_map(|_| char::from_u32(rng.gen_range(0..0x800u64) as u32))
            .collect(),
    }
}

/// A flag name as typed, or a misspelling of one.
fn sample_flag(rng: &mut StdRng) -> String {
    let name = *pick(rng, &all_flags().map(|f| f.name).collect::<Vec<_>>());
    match rng.gen_range(0..6u64) {
        0 => format!("{name}s"),
        1 => name[..name.len() - 1].to_string(),
        2 => format!("{name}=1"),
        _ => name.to_string(),
    }
}

/// Draws a pseudo-random argv from a seed (the vendored proptest stand-in
/// has no collection strategies): usually global flags, command words and
/// a dozen random flags, values and operands; sometimes any tokens at all.
fn sample_argv(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut argv = Vec::new();
    let words: Vec<&str> = COMMANDS.iter().flat_map(|c| c.name.split(' ')).collect();
    if rng.gen_range(0..4u64) > 0 {
        for _ in 0..rng.gen_range(0..3u64) {
            argv.push(pick(&mut rng, GLOBAL).name.to_string());
            if rng.gen_range(0..2u64) == 0 {
                argv.push(sample_value(&mut rng));
            }
        }
        argv.extend(pick(&mut rng, COMMANDS).name.split(' ').map(String::from));
    }
    for _ in 0..rng.gen_range(0..13u64) {
        argv.push(match rng.gen_range(0..4u64) {
            0 => sample_flag(&mut rng),
            1 => pick(&mut rng, &words).to_string(),
            _ => sample_value(&mut rng),
        });
    }
    argv
}

/// A valid value of `kind`.
fn valid_value(rng: &mut StdRng, kind: Kind) -> String {
    match kind {
        Kind::Switch => String::new(),
        Kind::Text(_) => format!("v{}", rng.gen_range(0..1000u64)),
        Kind::Choice(words) => pick(rng, words).to_string(),
        Kind::Int(min, max) => rng.gen_range(min..=max.min(min + 1_000_000)).to_string(),
        Kind::Real => format!("{}", rng.gen_range(0..2000u64) as f64 / 7.0 - 100.0),
        Kind::Fraction => format!("{}", rng.gen_range(0..=1000u64) as f64 / 1000.0),
    }
}

/// The flags `inv` accepts: its command's, then the global ones.
fn flags_of(inv: &Invocation) -> impl Iterator<Item = &'static Flag> {
    let command: &'static Command = inv.command;
    command.flags.iter().chain(GLOBAL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    /// Parsing is total. An accepted argv fits its command's table: its
    /// operands are no flags, each valued flag reads back as its kind,
    /// and `--json` only reaches commands with a JSON report. A refusal
    /// is a one-line message.
    #[test]
    fn any_argv_parses_or_is_refused(seed in any::<u64>()) {
        let argv = sample_argv(seed);
        match parse(&argv) {
            Ok(inv) => {
                prop_assert!(inv.operands.iter().all(|o| !o.starts_with("--")), "{:?}", argv);
                for flag in flags_of(&inv) {
                    let read = match flag.kind {
                        Kind::Switch | Kind::Text(_) => true,
                        Kind::Choice(words) => inv.text(flag.name).is_none_or(|v| words.contains(&v)),
                        Kind::Int(min, max) => inv.num::<u64>(flag.name).is_ok_and(|v| (min..=max).contains(&v)),
                        Kind::Real => inv.num::<f64>(flag.name).is_ok_and(f64::is_finite),
                        Kind::Fraction => inv.num::<f64>(flag.name).is_ok_and(|v| (0.0..=1.0).contains(&v)),
                    };
                    prop_assert!(read, "{} in {:?}", flag.name, argv);
                }
                let own_json = inv.command.flags.iter().any(|f| f.name == "--json");
                prop_assert!(inv.command.json || own_json || !inv.has("--json"), "{:?}", argv);
            }
            Err(e) => {
                let text = e.to_string();
                prop_assert!(!text.is_empty() && !text.contains('\n'), "{:?}: {:?}", argv, text);
            }
        }
    }

    /// An argv built from a command's table (global flags before or after
    /// the command words, valid values, operands) is accepted, and every
    /// flag reads back the value given.
    #[test]
    fn table_built_argv_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let command: &'static Command = pick(&mut rng, COMMANDS);
        let mut lead = Vec::new();
        let mut tail: Vec<String> = vec!["1".into(), "2".into()];
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let globals = GLOBAL.iter().filter(|g| command.json || g.name != "--json");
        for flag in command.flags.iter().chain(globals) {
            if rng.gen_range(0..2u64) == 0 || given.iter().any(|(n, _)| *n == flag.name) {
                continue;
            }
            let value = valid_value(&mut rng, flag.kind);
            let before = GLOBAL.contains(flag) && !command.flags.iter().any(|f| f.name == flag.name)
                && rng.gen_range(0..2u64) == 0;
            let side = if before { &mut lead } else { &mut tail };
            side.push(flag.name.to_string());
            if flag.kind != Kind::Switch {
                side.push(value.clone());
            }
            given.push((flag.name, value));
        }
        let argv: Vec<String> = lead
            .into_iter()
            .chain(command.name.split(' ').map(String::from))
            .chain(tail)
            .collect();
        let inv = parse(&argv);
        prop_assert!(inv.is_ok(), "{:?}: {:?}", argv, inv.err());
        let inv = inv.expect("checked");
        prop_assert_eq!(inv.command, command);
        for (name, value) in &given {
            prop_assert!(inv.has(name), "{} in {:?}", name, argv);
            if !value.is_empty() {
                prop_assert_eq!(inv.text(name), Some(value.as_str()));
            }
        }
    }
}

/// Every table default is a valid value of its flag: given explicitly, it
/// parses.
#[test]
fn table_defaults_are_valid_values() {
    for command in COMMANDS {
        for flag in command.flags.iter().chain(GLOBAL) {
            if flag.kind == Kind::Switch || flag.default.is_empty() {
                continue;
            }
            let argv: Vec<String> = command
                .name
                .split(' ')
                .chain([flag.name, flag.default])
                .map(String::from)
                .collect();
            assert!(parse(&argv).is_ok(), "{argv:?}: {:?}", parse(&argv).err());
        }
    }
}

/// The CLI's defaults for the server, the load generator and `perf diff`
/// are the library's.
#[test]
fn table_defaults_match_library_defaults() {
    let default_of = |command: &str, flag: &str| -> u64 {
        let argv: Vec<String> = command.split(' ').map(String::from).collect();
        let inv = parse(&argv).expect("bare command parses");
        inv.num(flag).expect("numeric default")
    };
    let serve = dcn_serve::ServeConfig::default();
    assert_eq!(default_of("serve", "--port"), u64::from(serve.port));
    assert_eq!(
        default_of("serve", "--max-inflight"),
        serve.max_inflight as u64
    );
    assert_eq!(default_of("serve", "--max-batch"), serve.max_batch as u64);
    let load = dcn_serve::loadgen::LoadgenConfig::default();
    assert_eq!(
        default_of("loadgen", "--connections"),
        load.connections as u64
    );
    assert_eq!(default_of("loadgen", "--frames"), load.frames as u64);
    assert_eq!(default_of("loadgen", "--batch"), load.batch as u64);
    assert_eq!(default_of("loadgen", "--window"), load.window as u64);
    assert_eq!(default_of("loadgen", "--seed"), load.seed);
    let diff = parse(&["perf".into(), "diff".into()]).expect("parses");
    let rel: f64 = diff.num("--rel").expect("numeric default");
    assert_eq!(rel, dcn_telemetry::DiffThresholds::default().rel);
}

/// Each way an argv can get a flag wrong has its own `CliError` variant.
#[test]
fn refusals_are_typed() {
    let refuse = |argv: &[&str]| -> CliError {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse(&argv).expect_err("refused")
    };
    let unknown = refuse(&["fib", "bench", "--querys", "10"]);
    assert!(matches!(unknown, CliError::UnknownFlag(..)));
    let repeated = refuse(&["fib", "bench", "--queries", "5", "--queries", "7"]);
    assert!(matches!(repeated, CliError::RepeatedFlag(_)));
    let valueless = refuse(&["fib", "bench", "--queries"]);
    assert!(matches!(valueless, CliError::MissingValue(_)));
    let malformed = refuse(&["fib", "bench", "--queries", "many"]);
    assert!(matches!(malformed, CliError::Malformed(..)));
    let out_of_range = refuse(&["serve", "--port", "70000"]);
    assert!(matches!(out_of_range, CliError::OutOfRange(..)));
    let json = refuse(&["--json", "serve"]);
    assert!(matches!(json, CliError::JsonUnsupported(_)));
}
