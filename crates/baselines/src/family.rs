//! The `TopologyFamily` descriptor API — one registration per family.
//!
//! Every network family is described by a parameter type implementing
//! [`FamilyParams`] (a uniform `FromStr`/`Display` pair plus closed-form
//! counts and a builder). The zero-sized adapter [`Family`] erases the
//! parameter type behind the object-safe [`TopologyFamily`] trait, and
//! [`families`] is the single registry every consumer (the bench cache,
//! the experiment registry, the resilience CLI) walks instead of keeping
//! its own `match` over family names. Adding a family is therefore one
//! `impl FamilyParams` plus one entry in [`families`].
//!
//! Specs are round-trip text: `family:params`, e.g. `abccc:4,2,3` or
//! `jellyfish:v=16,r=4,s=1,seed=7`. [`parse_spec`] also accepts the
//! human-facing label form `ABCCC(4,2,3)` that [`TopologyFamily::label`]
//! and `Topology::name` produce, so labels re-parse.

use crate::{
    BCube, BCubeParams, Bccc, BcccParams, DCell, DCellParams, FatTree, FatTreeParams, Hypercube,
    HypercubeParams, Jellyfish, JellyfishParams, SpaceShuffle, SpaceShuffleParams,
};
use abccc::{Abccc, AbcccParams};
use netgraph::{NetworkError, Topology};
use std::fmt;
use std::marker::PhantomData;
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Parsing helpers shared by the per-family `FromStr` implementations.
// ---------------------------------------------------------------------------

/// Strips the `Display` wrapper `Family(...)` (matched case-insensitively
/// against `family`) from `text`, returning the bare parameter body. Text
/// without the wrapper is returned trimmed, so both `"BCCC(4,2)"` and
/// `"4,2"` parse through the same code path.
pub fn strip_display_wrapper<'a>(text: &'a str, family: &str) -> &'a str {
    let t = text.trim();
    if let Some(open) = t.find('(') {
        if t.ends_with(')') && t[..open].trim().eq_ignore_ascii_case(family) {
            return t[open + 1..t.len() - 1].trim();
        }
    }
    t
}

/// Reads a `key=value,…` body against a family's allowed `keys`, in any
/// order, and returns each key's value in `keys` order (`None` when the
/// body omits it). Keys and values are trimmed.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] for a field without `=`, a
/// key outside `keys`, or a key given more than once.
pub fn parse_keyed<'a, const N: usize>(
    body: &'a str,
    family: &str,
    keys: [&'static str; N],
) -> Result<[Option<&'a str>; N], NetworkError> {
    let invalid = |name, reason| NetworkError::InvalidParameter { name, reason };
    let mut values = [None; N];
    for field in body.split(',') {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| invalid("spec", format!("expected key=value, got `{field}`")))?;
        let key = key.trim();
        let slot = keys.iter().position(|&k| k == key).ok_or_else(|| {
            let want = keys.join(",");
            invalid(
                "spec",
                format!("unknown {family} key `{key}` (want {want})"),
            )
        })?;
        if values[slot].replace(value.trim()).is_some() {
            let reason = format!("{family} key `{key}` is given more than once");
            return Err(invalid(keys[slot], reason));
        }
    }
    Ok(values)
}

/// Parses a `u32` field with a labeled error.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] if `value` is not a `u32`.
pub fn parse_u32(name: &'static str, value: &str) -> Result<u32, NetworkError> {
    value
        .trim()
        .parse()
        .map_err(|_| NetworkError::InvalidParameter {
            name,
            reason: format!("`{value}` is not an unsigned integer"),
        })
}

/// Parses a `u64` field with a labeled error.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] if `value` is not a `u64`.
pub fn parse_u64(name: &'static str, value: &str) -> Result<u64, NetworkError> {
    value
        .trim()
        .parse()
        .map_err(|_| NetworkError::InvalidParameter {
            name,
            reason: format!("`{value}` is not an unsigned integer"),
        })
}

/// Parses a comma-separated positional body into exactly `names.len()`
/// integers (the `n,k` style of the cube families).
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] on arity or numeric errors.
pub fn parse_positional(
    body: &str,
    names: &'static [&'static str],
) -> Result<Vec<u32>, NetworkError> {
    let parts: Vec<&str> = body.split(',').map(str::trim).collect();
    if parts.len() != names.len() {
        return Err(NetworkError::InvalidParameter {
            name: "spec",
            reason: format!("expected `{}`, got `{body}`", names.join(",")),
        });
    }
    parts
        .iter()
        .zip(names)
        .map(|(part, name)| parse_u32(name, part))
        .collect()
}

// ---------------------------------------------------------------------------
// The typed side of the API.
// ---------------------------------------------------------------------------

/// A family's parameter type: text round-trip, closed-form counts, and the
/// builder. Implemented once per family; consumed through [`Family`].
pub trait FamilyParams:
    FromStr<Err = NetworkError> + fmt::Display + Clone + Send + Sync + 'static
{
    /// Lowercase spec id, e.g. `"jellyfish"`.
    const FAMILY: &'static str;
    /// Human-facing name used in labels, e.g. `"Jellyfish"`.
    const DISPLAY_NAME: &'static str;
    /// One-line description for CLI help.
    const SUMMARY: &'static str;
    /// Spec syntax for CLI help, e.g. `"jellyfish:v=<v>,r=<r>[,s=<s>][,seed=<seed>]"`.
    const SYNTAX: &'static str;

    /// Canonical parameter text (the part after `family:`); parsing it
    /// back yields an equal value.
    fn canonical(&self) -> String;

    /// Closed-form server count — no materialization.
    fn servers(&self) -> u64;

    /// Materializes the network.
    ///
    /// # Errors
    ///
    /// Returns the family's construction error (size guards etc.).
    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError>;

    /// Closed-form server-hop diameter, if the family proves one.
    fn diameter_formula(&self) -> Option<u64> {
        None
    }

    /// An ascending ladder of valid configurations with at most
    /// `max_servers` servers — the search space of the sizing helpers.
    fn ladder(max_servers: u64) -> Vec<Self>;
}

// ---------------------------------------------------------------------------
// The object-safe side, consumed by cache / registry / CLI.
// ---------------------------------------------------------------------------

/// Object-safe view of one family, operating on parameter *text* so callers
/// need no knowledge of the parameter type. Obtain instances from
/// [`families`] or [`find`].
pub trait TopologyFamily: Send + Sync {
    /// Lowercase spec id (`"abccc"`, `"jellyfish"`, …).
    fn name(&self) -> &'static str;
    /// Human-facing name used in labels.
    fn display_name(&self) -> &'static str;
    /// One-line description for CLI help.
    fn summary(&self) -> &'static str;
    /// Spec syntax for CLI help.
    fn syntax(&self) -> &'static str;

    /// Validates `params` text and returns its canonical form.
    ///
    /// # Errors
    ///
    /// Returns the family's parse/validation error.
    fn canonicalize(&self, params: &str) -> Result<String, NetworkError>;

    /// Closed-form server count of `params`.
    ///
    /// # Errors
    ///
    /// Returns the family's parse/validation error.
    fn server_count(&self, params: &str) -> Result<u64, NetworkError>;

    /// Closed-form server-hop diameter of `params`, if the family has one.
    ///
    /// # Errors
    ///
    /// Returns the family's parse/validation error.
    fn diameter_formula(&self, params: &str) -> Result<Option<u64>, NetworkError>;

    /// Materializes the network described by `params`.
    ///
    /// # Errors
    ///
    /// Returns the family's parse/validation/construction error.
    fn build(&self, params: &str) -> Result<Box<dyn Topology + Send + Sync>, NetworkError>;

    /// Ascending canonical configurations with at most `max_servers`
    /// servers.
    fn ladder(&self, max_servers: u64) -> Vec<String>;

    /// The human-facing label `Display(params)`, formattable even for
    /// invalid parameter text (labels appear in error messages).
    fn label(&self, params: &str) -> String {
        format!("{}({})", self.display_name(), params)
    }
}

/// Zero-sized adapter from a [`FamilyParams`] type to the object-safe
/// [`TopologyFamily`] trait.
pub struct Family<P>(PhantomData<P>);

impl<P: FamilyParams> Family<P> {
    /// The (only) value of this adapter type.
    pub const NEW: Self = Family(PhantomData);
}

impl<P: FamilyParams> TopologyFamily for Family<P> {
    fn name(&self) -> &'static str {
        P::FAMILY
    }

    fn display_name(&self) -> &'static str {
        P::DISPLAY_NAME
    }

    fn summary(&self) -> &'static str {
        P::SUMMARY
    }

    fn syntax(&self) -> &'static str {
        P::SYNTAX
    }

    fn canonicalize(&self, params: &str) -> Result<String, NetworkError> {
        Ok(params.parse::<P>()?.canonical())
    }

    fn server_count(&self, params: &str) -> Result<u64, NetworkError> {
        Ok(params.parse::<P>()?.servers())
    }

    fn diameter_formula(&self, params: &str) -> Result<Option<u64>, NetworkError> {
        Ok(params.parse::<P>()?.diameter_formula())
    }

    fn build(&self, params: &str) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        params.parse::<P>()?.build_topology()
    }

    fn ladder(&self, max_servers: u64) -> Vec<String> {
        P::ladder(max_servers).iter().map(P::canonical).collect()
    }
}

// ---------------------------------------------------------------------------
// FamilyParams implementations.
// ---------------------------------------------------------------------------

impl FamilyParams for AbcccParams {
    const FAMILY: &'static str = "abccc";
    const DISPLAY_NAME: &'static str = "ABCCC";
    const SUMMARY: &'static str = "the paper's cube: n-port crossbars, k+1 levels, h-NIC servers";
    const SYNTAX: &'static str = "abccc:<n>,<k>,<h>";

    fn canonical(&self) -> String {
        format!("{},{},{}", self.n(), self.k(), self.h())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(Abccc::new(*self)?))
    }

    fn diameter_formula(&self) -> Option<u64> {
        Some(self.diameter())
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (2..=10u32)
            .flat_map(|n| (0..=4u32).map(move |k| (n, k)))
            .flat_map(|(n, k)| (2..=4u32).map(move |h| (n, k, h)))
            .filter_map(|(n, k, h)| AbcccParams::new(n, k, h).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

impl FamilyParams for BcccParams {
    const FAMILY: &'static str = "bccc";
    const DISPLAY_NAME: &'static str = "BCCC";
    const SUMMARY: &'static str = "BCube Connected Crossbars — the dual-port predecessor (h = 2)";
    const SYNTAX: &'static str = "bccc:<n>,<k>";

    fn canonical(&self) -> String {
        format!("{},{}", self.n(), self.k())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(Bccc::new(*self)?))
    }

    fn diameter_formula(&self) -> Option<u64> {
        Some(self.diameter())
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (2..=10u32)
            .flat_map(|n| (0..=4u32).map(move |k| (n, k)))
            .filter_map(|(n, k)| BcccParams::new(n, k).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

impl FamilyParams for BCubeParams {
    const FAMILY: &'static str = "bcube";
    const DISPLAY_NAME: &'static str = "BCube";
    const SUMMARY: &'static str = "multi-port server-centric cube (SIGCOMM 2009)";
    const SYNTAX: &'static str = "bcube:<n>,<k>";

    fn canonical(&self) -> String {
        format!("{},{}", self.n(), self.k())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(BCube::new(*self)?))
    }

    fn diameter_formula(&self) -> Option<u64> {
        Some(self.diameter())
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (2..=10u32)
            .flat_map(|n| (0..=3u32).map(move |k| (n, k)))
            .filter_map(|(n, k)| BCubeParams::new(n, k).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

impl FamilyParams for DCellParams {
    const FAMILY: &'static str = "dcell";
    const DISPLAY_NAME: &'static str = "DCell";
    const SUMMARY: &'static str = "recursively-defined server-centric network (SIGCOMM 2008)";
    const SYNTAX: &'static str = "dcell:<n>,<k>";

    fn canonical(&self) -> String {
        format!("{},{}", self.n(), self.k())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(DCell::new(self.clone())?))
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (2..=8u32)
            .flat_map(|n| (0..=2u32).map(move |k| (n, k)))
            .filter_map(|(n, k)| DCellParams::new(n, k).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

impl FamilyParams for FatTreeParams {
    const FAMILY: &'static str = "fattree";
    const DISPLAY_NAME: &'static str = "FatTree";
    const SUMMARY: &'static str = "three-tier folded-Clos switch-centric baseline";
    const SYNTAX: &'static str = "fattree:<p>";

    fn canonical(&self) -> String {
        format!("{}", self.p())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(FatTree::new(*self)?))
    }

    fn diameter_formula(&self) -> Option<u64> {
        // Switch-only paths: every inter-server route is one server hop.
        Some(1)
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (1..=24u32)
            .filter_map(|half| FatTreeParams::new(2 * half).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

impl FamilyParams for HypercubeParams {
    const FAMILY: &'static str = "ghc";
    const DISPLAY_NAME: &'static str = "GHC";
    const SUMMARY: &'static str = "generalized hypercube — the unlimited-port end of the space";
    const SYNTAX: &'static str = "ghc:<n>,<d>";

    fn canonical(&self) -> String {
        format!("{},{}", self.n(), self.d())
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(Hypercube::new(*self)?))
    }

    fn diameter_formula(&self) -> Option<u64> {
        Some(self.diameter())
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        let mut out: Vec<Self> = (2..=6u32)
            .flat_map(|n| (1..=10u32).map(move |d| (n, d)))
            .filter_map(|(n, d)| HypercubeParams::new(n, d).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect();
        out.sort_by_key(|p| (p.server_count(), p.canonical()));
        out
    }
}

/// The geometric switch-count progression shared by the random-graph
/// ladders (Jellyfish, Space Shuffle).
fn random_graph_sizes(min: u32) -> impl Iterator<Item = u32> {
    [
        4u32, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
        3072, 4096,
    ]
    .into_iter()
    .filter(move |&v| v >= min)
}

impl FamilyParams for JellyfishParams {
    const FAMILY: &'static str = "jellyfish";
    const DISPLAY_NAME: &'static str = "Jellyfish";
    const SUMMARY: &'static str = "seeded random r-regular switch graph (NSDI 2012)";
    const SYNTAX: &'static str = "jellyfish:v=<v>,r=<r>[,s=<s>][,seed=<seed>]";

    fn canonical(&self) -> String {
        format!(
            "v={},r={},s={},seed={}",
            self.v(),
            self.r(),
            self.s(),
            self.seed()
        )
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(Jellyfish::new(*self)?))
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        // Fixed degree r = 4 (v·r always even), one server per switch.
        random_graph_sizes(6)
            .filter_map(|v| JellyfishParams::new(v, 4, 1, Self::DEFAULT_SEED).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect()
    }
}

impl FamilyParams for SpaceShuffleParams {
    const FAMILY: &'static str = "spaceshuffle";
    const DISPLAY_NAME: &'static str = "SpaceShuffle";
    const SUMMARY: &'static str = "greedy routing over seeded random ring coordinates (ICNP 2014)";
    const SYNTAX: &'static str = "spaceshuffle:v=<v>[,d=<d>][,s=<s>][,seed=<seed>]";

    fn canonical(&self) -> String {
        format!(
            "v={},d={},s={},seed={}",
            self.v(),
            self.d(),
            self.s(),
            self.seed()
        )
    }

    fn servers(&self) -> u64 {
        self.server_count()
    }

    fn build_topology(&self) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
        Ok(Box::new(SpaceShuffle::new(*self)?))
    }

    fn ladder(max_servers: u64) -> Vec<Self> {
        random_graph_sizes(4)
            .filter_map(|v| SpaceShuffleParams::new(v, Self::DEFAULT_D, 1, Self::DEFAULT_SEED).ok())
            .filter(|p| p.server_count() <= max_servers)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

static ABCCC_FAMILY: Family<AbcccParams> = Family::NEW;
static BCCC_FAMILY: Family<BcccParams> = Family::NEW;
static BCUBE_FAMILY: Family<BCubeParams> = Family::NEW;
static DCELL_FAMILY: Family<DCellParams> = Family::NEW;
static FATTREE_FAMILY: Family<FatTreeParams> = Family::NEW;
static GHC_FAMILY: Family<HypercubeParams> = Family::NEW;
static JELLYFISH_FAMILY: Family<JellyfishParams> = Family::NEW;
static SPACESHUFFLE_FAMILY: Family<SpaceShuffleParams> = Family::NEW;

/// Every registered family, in canonical (paper) order. This is the single
/// family list of the workspace — cache, registry, and CLI all walk it.
pub fn families() -> &'static [&'static dyn TopologyFamily] {
    static LIST: [&dyn TopologyFamily; 8] = [
        &ABCCC_FAMILY,
        &BCCC_FAMILY,
        &BCUBE_FAMILY,
        &DCELL_FAMILY,
        &FATTREE_FAMILY,
        &GHC_FAMILY,
        &JELLYFISH_FAMILY,
        &SPACESHUFFLE_FAMILY,
    ];
    &LIST
}

/// Looks up a family by spec id or display name, case-insensitively.
pub fn find(name: &str) -> Option<&'static dyn TopologyFamily> {
    let name = name.trim();
    families().iter().copied().find(|f| {
        f.name().eq_ignore_ascii_case(name) || f.display_name().eq_ignore_ascii_case(name)
    })
}

/// Parses a topology spec — `family:params` (`abccc:4,2,3`) or the label
/// form `ABCCC(4,2,3)` — into the family and *canonical* parameter text.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] for an unknown family or
/// malformed spec, and the family's own error for invalid parameters.
pub fn parse_spec(spec: &str) -> Result<(&'static dyn TopologyFamily, String), NetworkError> {
    let t = spec.trim();
    let (name, body) = if let Some((name, body)) = t.split_once(':') {
        (name.trim(), body.trim())
    } else if let (Some(open), true) = (t.find('('), t.ends_with(')')) {
        (t[..open].trim(), t[open + 1..t.len() - 1].trim())
    } else {
        return Err(NetworkError::InvalidParameter {
            name: "spec",
            reason: format!(
                "expected `family:params`, got `{t}` (families: {})",
                family_ids()
            ),
        });
    };
    let fam = find(name).ok_or_else(|| NetworkError::InvalidParameter {
        name: "family",
        reason: format!("unknown family `{name}` (families: {})", family_ids()),
    })?;
    let canonical = fam.canonicalize(body)?;
    Ok((fam, canonical))
}

/// Builds the topology named by a spec string (see [`parse_spec`]).
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] for unknown/malformed specs
/// and the family's own parse/construction errors.
pub fn build_spec(spec: &str) -> Result<Box<dyn Topology + Send + Sync>, NetworkError> {
    let (fam, params) = parse_spec(spec)?;
    fam.build(&params)
}

fn family_ids() -> String {
    families()
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Sizing helpers — the equal-server-count / equal-cost arena machinery.
// ---------------------------------------------------------------------------

/// The configuration of `family` whose server count is closest to
/// `target` (ties break toward the smaller network, then canonical text).
/// Returns the canonical parameter text, or `None` if the family has no
/// configuration at all below `4·target`.
pub fn size_for_servers(family: &dyn TopologyFamily, target: u64) -> Option<String> {
    let cap = target.saturating_mul(4).max(32);
    family.ladder(cap).into_iter().min_by_key(|p| {
        let s = family.server_count(p).unwrap_or(u64::MAX);
        (s.abs_diff(target), s, p.clone())
    })
}

/// The largest configuration of `family` (by server count, at most
/// `max_servers`) whose price — as computed by the caller-supplied `price`
/// closure over canonical parameter text — fits within `budget`. Returns
/// the canonical parameter text. Configurations whose price cannot be
/// computed are skipped.
pub fn size_for_budget(
    family: &dyn TopologyFamily,
    max_servers: u64,
    budget: f64,
    price: &mut dyn FnMut(&str) -> Option<f64>,
) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for p in family.ladder(max_servers) {
        let Some(cost) = price(&p) else { continue };
        if cost <= budget {
            let s = family.server_count(&p).unwrap_or(0);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, p));
            }
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(strip_display_wrapper("BCCC(4,2)", "bccc"), "4,2");
        assert_eq!(strip_display_wrapper(" 4,2 ", "bccc"), "4,2");
        assert_eq!(strip_display_wrapper("GHC(2,3)", "ghc"), "2,3");
        // A mismatched wrapper is left intact (and will fail to parse).
        assert_eq!(strip_display_wrapper("BCube(4,2)", "bccc"), "BCube(4,2)");
        let keys = ["v", "r", "seed"];
        assert_eq!(
            parse_keyed("seed=3, v = 8 ", "jellyfish", keys).unwrap(),
            [Some("8"), None, Some("3")]
        );
        assert!(parse_keyed("v", "jellyfish", keys).is_err());
        assert!(parse_keyed("v=8,x=1", "jellyfish", keys).is_err());
        assert!(parse_keyed("v=8,v=16", "jellyfish", keys).is_err());
        assert_eq!(parse_u32("v", "12").unwrap(), 12);
        assert!(parse_u32("v", "x").is_err());
        assert_eq!(parse_positional("4, 2", &["n", "k"]).unwrap(), vec![4, 2]);
        assert!(parse_positional("4", &["n", "k"]).is_err());
    }

    #[test]
    fn registry_is_complete_and_findable() {
        assert_eq!(families().len(), 8);
        for f in families() {
            assert_eq!(find(f.name()).unwrap().name(), f.name());
            assert_eq!(find(f.display_name()).unwrap().name(), f.name());
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn specs_round_trip_through_canonical_form() {
        for spec in [
            "abccc:4,2,3",
            "bccc:4,2",
            "bcube:4,1",
            "dcell:3,1",
            "fattree:4",
            "ghc:2,3",
            "jellyfish:v=8,r=3,s=1,seed=7",
            "spaceshuffle:v=6,d=2,s=1,seed=7",
        ] {
            let (fam, canon) = parse_spec(spec).unwrap();
            // Canonical text re-canonicalizes to itself.
            assert_eq!(fam.canonicalize(&canon).unwrap(), canon);
            // The label form re-parses to the same family + params.
            let label = fam.label(&canon);
            let (fam2, canon2) = parse_spec(&label).unwrap();
            assert_eq!(fam2.name(), fam.name());
            assert_eq!(canon2, canon);
            // Build matches the closed-form server count and the label.
            let topo = fam.build(&canon).unwrap();
            assert_eq!(
                topo.server_count() as u64,
                fam.server_count(&canon).unwrap()
            );
            assert_eq!(topo.name(), label);
        }
    }

    #[test]
    fn spec_errors_are_labeled() {
        assert!(parse_spec("martian:1,2").is_err());
        assert!(parse_spec("abccc").is_err());
        assert!(parse_spec("abccc:9999,9,9").is_err());
    }

    #[test]
    fn diameter_formulas() {
        let (fam, p) = parse_spec("fattree:4").unwrap();
        assert_eq!(fam.diameter_formula(&p).unwrap(), Some(1));
        let (fam, p) = parse_spec("dcell:3,1").unwrap();
        assert_eq!(fam.diameter_formula(&p).unwrap(), None);
        let (fam, p) = parse_spec("jellyfish:v=8,r=3").unwrap();
        assert_eq!(fam.diameter_formula(&p).unwrap(), None);
    }

    #[test]
    fn ladders_ascend_and_respect_cap() {
        for f in families() {
            let ladder = f.ladder(600);
            assert!(!ladder.is_empty(), "{} ladder empty", f.name());
            let mut prev = 0;
            for p in &ladder {
                let s = f.server_count(p).unwrap();
                assert!(s <= 600);
                assert!(s >= prev, "{} ladder not ascending", f.name());
                prev = s;
            }
        }
    }

    #[test]
    fn sizing_matches_servers() {
        for f in families() {
            let p = size_for_servers(*f, 60).unwrap();
            let s = f.server_count(&p).unwrap();
            assert!(
                (16..=240).contains(&s),
                "{}: {} servers for target 60",
                f.name(),
                s
            );
        }
        // Exact where the family can hit it exactly.
        let jf = find("jellyfish").unwrap();
        let p = size_for_servers(jf, 64).unwrap();
        assert_eq!(jf.server_count(&p).unwrap(), 64);
    }

    #[test]
    fn sizing_respects_budget() {
        let jf = find("jellyfish").unwrap();
        // Price = one dollar per server: budget 100 buys at most 100 servers.
        let mut price = |p: &str| Some(jf.server_count(p).unwrap() as f64);
        let picked = size_for_budget(jf, 10_000, 100.0, &mut price).unwrap();
        let s = jf.server_count(&picked).unwrap();
        assert!(s <= 100, "{s} servers over budget");
        assert_eq!(s, 96); // largest ladder step under 100
        assert!(size_for_budget(jf, 10_000, 0.5, &mut price).is_none());
    }
}
