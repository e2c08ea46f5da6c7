//! The declarative experiment registry.
//!
//! Every table/figure of the evaluation is an [`Experiment`]: a name, a
//! paper reference, a parameter grid per scale [`Preset`], and a point
//! function returning serializable [`Row`]s. The registry is the single
//! index over them — `abccc-cli experiments list|run` and
//! `abccc-cli perf record|diff` resolve specs here and hand them to the
//! shared [`engine`](crate::engine).
//!
//! Determinism contract: a point's randomness comes only from
//! [`PointCtx::seed`], derived from the experiment's base seed and the
//! point index — never from thread identity or scheduling — so a run's
//! JSON rows are byte-identical at any worker count.

use crate::cache::{SharedTopo, TopoCache, TopoKey};
use netgraph::mix_seed;
use serde::{Serialize, Value};
use std::sync::Arc;

/// Scale preset of an experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Seconds-scale grid for tests and CI gates.
    Tiny,
    /// The grid reproducing the published tables/figures (the historical
    /// per-binary defaults).
    Paper,
    /// A larger grid exercising the library beyond figure sizes.
    Scale,
}

impl Preset {
    /// All presets, smallest first.
    pub const ALL: [Preset; 3] = [Preset::Tiny, Preset::Paper, Preset::Scale];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Preset::Tiny => "tiny",
            Preset::Paper => "paper",
            Preset::Scale => "scale",
        }
    }

    /// Parses a `--preset` value.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "tiny" => Some(Preset::Tiny),
            "paper" => Some(Preset::Paper),
            "scale" => Some(Preset::Scale),
            _ => None,
        }
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One grid point of an experiment: a display label plus the topologies
/// the point will request from the shared cache (declared up front so the
/// engine can prewarm and share them across points and experiments).
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Display label, e.g. `ABCCC(4,2,2)` or `k=3`.
    pub label: String,
    /// Topologies this point reads through the cache.
    pub topos: Vec<TopoKey>,
}

impl PointSpec {
    /// A point with no materialized topology (closed-form sweeps).
    pub fn pure(label: impl Into<String>) -> PointSpec {
        PointSpec {
            label: label.into(),
            topos: Vec::new(),
        }
    }

    /// A point over one topology.
    pub fn on(label: impl Into<String>, key: TopoKey) -> PointSpec {
        PointSpec {
            label: label.into(),
            topos: vec![key],
        }
    }
}

/// Execution context handed to [`Experiment::run_point`].
pub struct PointCtx<'a> {
    /// The preset the grid was generated for.
    pub preset: Preset,
    /// Index of this point in [`Experiment::points`] order.
    pub index: usize,
    /// The point's deterministic seed (see [`Experiment::point_seed`]).
    pub seed: u64,
    /// The run-wide shared topology cache.
    pub cache: &'a TopoCache,
}

impl PointCtx<'_> {
    /// Fetches (or builds) a cached topology.
    ///
    /// # Errors
    ///
    /// Propagates construction failures as a labeled message.
    pub fn topo(&self, key: &TopoKey) -> Result<Arc<SharedTopo>, String> {
        self.cache.get(key)
    }

    /// Fetches a cached ABCCC topology together with its parameters.
    ///
    /// # Errors
    ///
    /// Fails if the parameters are invalid or the key is not ABCCC.
    pub fn abccc(&self, n: u32, k: u32, h: u32) -> Result<Arc<SharedTopo>, String> {
        let t = self.cache.get(&TopoKey::abccc(n, k, h))?;
        if t.abccc().is_none() {
            return Err(format!(
                "ABCCC({n},{k},{h}): cache returned a non-ABCCC entry"
            ));
        }
        Ok(t)
    }
}

/// One output row: aligned table cells plus the JSON records it
/// contributes to the experiment's rows artifact.
///
/// Most experiments contribute exactly one record per table row; sweeps
/// that fan several series into one table line (e.g. `fig1_diameter`)
/// attach one record per series.
#[derive(Debug, Clone)]
pub struct Row {
    /// Table cells, in [`Experiment::headers`] order.
    pub cells: Vec<String>,
    /// JSON records for the rows artifact.
    pub records: Vec<Value>,
}

impl Row {
    /// A row contributing one serializable record.
    pub fn one<T: Serialize>(cells: Vec<String>, record: &T) -> Row {
        Row {
            cells,
            records: vec![record.to_value()],
        }
    }

    /// A row contributing several records (multi-series table lines).
    pub fn with_records<T: Serialize>(cells: Vec<String>, records: &[T]) -> Row {
        Row {
            cells,
            records: records.iter().map(Serialize::to_value).collect(),
        }
    }
}

/// A declarative experiment: everything the engine needs to run one
/// table/figure of the evaluation at any preset.
pub trait Experiment: Sync {
    /// Unique registry name — the historical binary name
    /// (e.g. `fig6_throughput`).
    fn name(&self) -> &'static str;

    /// Paper reference, e.g. `Figure 6` or `Table 1`.
    fn paper_ref(&self) -> &'static str;

    /// One-line description for `experiments list`.
    fn summary(&self) -> &'static str;

    /// Table title printed above the rows.
    fn title(&self, preset: Preset) -> String;

    /// Table column headers.
    fn headers(&self) -> &'static [&'static str];

    /// Shape notes printed after the table (historical stdout footer).
    fn footer(&self, preset: Preset) -> Vec<String> {
        let _ = preset;
        Vec::new()
    }

    /// Base RNG seed, when the experiment is randomized.
    fn base_seed(&self) -> Option<u64> {
        None
    }

    /// Seed for point `index` of a `preset` grid. The default decorrelates
    /// points by mixing the index into the base seed; experiments whose
    /// historical binaries re-seeded every configuration with the same
    /// constant override this to preserve their published numbers.
    fn point_seed(&self, preset: Preset, index: usize) -> u64 {
        let _ = preset;
        mix_seed(self.base_seed().unwrap_or(0), index as u64)
    }

    /// Named parameters recorded in the run manifest.
    fn manifest_params(&self, preset: Preset) -> Vec<(&'static str, String)>;

    /// The parameter grid at `preset`.
    fn points(&self, preset: Preset) -> Vec<PointSpec>;

    /// Executes one grid point.
    ///
    /// # Errors
    ///
    /// Returns a message when the point cannot run or an internal
    /// consistency assertion fails; the engine aborts the run and
    /// reports it.
    fn run_point(&self, ctx: &PointCtx<'_>) -> Result<Vec<Row>, String>;
}

/// Every registered experiment, in evaluation order (tables first, then
/// figures, then the scale demonstration).
pub fn all() -> &'static [&'static dyn Experiment] {
    crate::experiments::REGISTRY
}

/// Looks up an experiment by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels_roundtrip() {
        for p in Preset::ALL {
            assert_eq!(Preset::parse(p.label()), Some(p));
        }
        assert_eq!(Preset::parse("huge"), None);
    }

    #[test]
    fn find_resolves_registered_names() {
        assert!(find("fig1_diameter").is_some());
        assert!(find("fig99_nonexistent").is_none());
    }

    #[test]
    fn row_collects_records() {
        #[derive(serde::Serialize)]
        struct P {
            x: u32,
        }
        let r = Row::with_records(vec!["a".into()], &[P { x: 1 }, P { x: 2 }]);
        assert_eq!(r.records.len(), 2);
        let r1 = Row::one(vec!["a".into()], &P { x: 3 });
        assert_eq!(r1.records.len(), 1);
    }
}
