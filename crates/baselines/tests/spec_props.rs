//! Totality of the topology-spec parser: any string gets a family and its
//! canonical parameters or a typed [`netgraph::NetworkError`], never a
//! panic, and a canonical spec parses back to itself.

use dcn_baselines::family;
use netgraph::NetworkError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Family names in both cases, and names of no family.
const NAMES: &[&str] = &[
    "abccc",
    "bccc",
    "bcube",
    "dcell",
    "fattree",
    "ghc",
    "jellyfish",
    "spaceshuffle",
    "ABCCC",
    "BCube",
    "FatTree",
    "Jellyfish",
    " ghc ",
    "nope",
    "",
];
/// Parameter keys of the random-graph families, and keys of none.
const KEYS: &[&str] = &[
    "v=", "r=", "s=", "d=", "seed=", "v=", "r=", "seed=", "x=", "=",
];
/// Small numbers that make valid parameters.
const SMALL: &[&str] = &["1", "2", "3", "4", "6", "8", "12", "16"];
/// The integer limits and past them, and non-numbers.
const EDGES: &[&str] = &[
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "-1",
    "+3",
    "1e3",
    "0x10",
    "3.5",
    "NaN",
    " 2",
    "é",
    "",
];
/// Separators and stray characters.
const NOISE: &[&str] = &[":", "(", ")", ",", "=", " ", "\t", "∞", "\u{0}"];

fn pick(rng: &mut StdRng, from: &[&'static str]) -> &'static str {
    from[rng.gen_range(0..from.len() as u64) as usize]
}

/// Draws a pseudo-random spec from a seed (the vendored proptest stand-in
/// has no string strategies): a `family:params` or `Family(params)` shape
/// with random parameters, or up to a dozen random pieces glued together.
fn sample_spec(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = rng.gen_range(0..4u64);
    if shape == 3 {
        let pools = [NAMES, KEYS, SMALL, EDGES, NOISE];
        return (0..rng.gen_range(0..13u64))
            .map(|_| {
                let pool = pools[rng.gen_range(0..5u64) as usize];
                pick(&mut rng, pool)
            })
            .collect();
    }
    let name = pick(&mut rng, NAMES);
    let keyed = rng.gen_range(0..2u64) == 0;
    let params: Vec<String> = (0..rng.gen_range(0..6u64))
        .map(|_| {
            let key = if keyed { pick(&mut rng, KEYS) } else { "" };
            let value = match rng.gen_range(0..4u64) {
                0 => pick(&mut rng, EDGES),
                _ => pick(&mut rng, SMALL),
            };
            format!("{key}{value}")
        })
        .collect();
    match shape {
        0 => format!("{name}:{}", params.join(",")),
        1 => format!("{name}({})", params.join(",")),
        _ => format!("{name}{}{}", pick(&mut rng, NOISE), params.join(",")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    /// `parse_spec` is total, and its canonical output is a fixed point.
    #[test]
    fn parse_spec_is_total_and_canonical(seed in any::<u64>()) {
        let spec = sample_spec(seed);
        if let Ok((fam, canonical)) = family::parse_spec(&spec) {
            let again = family::parse_spec(&format!("{}:{canonical}", fam.name()));
            let again = again.ok().map(|(f, c)| (f.name(), c));
            prop_assert_eq!(again, Some((fam.name(), canonical.clone())), "spec {:?}", spec);
        }
    }

    /// Repeating any key of a valid keyed spec is refused with a typed
    /// error, whatever the second value and wherever it lands, instead of
    /// the last value silently winning.
    #[test]
    fn repeated_keys_are_refused(
        which in 0usize..2,
        key in 0usize..4,
        at in 0usize..5,
        value in 1u32..64,
    ) {
        let (name, fields) = [
            ("jellyfish", ["v=8", "r=3", "s=1", "seed=7"]),
            ("spaceshuffle", ["v=8", "d=2", "s=1", "seed=7"]),
        ][which];
        prop_assert!(family::parse_spec(&format!("{name}:{}", fields.join(","))).is_ok());
        let mut fields: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        let repeated = fields[key].split('=').next().expect("key").to_string();
        fields.insert(at, format!("{repeated}={value}"));
        let spec = format!("{name}:{}", fields.join(","));
        match family::parse_spec(&spec) {
            Err(NetworkError::InvalidParameter { reason, .. }) => {
                prop_assert!(reason.contains("more than once"), "{}: {}", spec, reason);
            }
            other => prop_assert!(false, "{} parsed as {:?}", spec, other.map(|(_, c)| c)),
        }
    }
}
