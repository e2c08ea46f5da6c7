//! Run manifests: who ran what, with which parameters, and how long each
//! phase took.
//!
//! A [`RunManifest`] is the provenance record written next to every bench
//! artifact: experiment name, topology and its `(n, k, h)`-style
//! parameters, the RNG seed, `git describe` of the working tree, and
//! per-phase elapsed time aggregated from drained spans. It makes every
//! `fig*`/`table*` output attributable to an exact configuration instead
//! of hard-coded unlabeled values.

use crate::sink::PhaseAgg;
use crate::{HistogramSnapshot, SpanEvent};
use serde::Value;
use std::path::Path;
use std::sync::OnceLock;

/// Provenance + timing record for one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Experiment name (e.g. `fig6_throughput`).
    pub experiment: String,
    /// Topology description(s), when one applies to the whole run.
    pub topologies: Vec<String>,
    /// Named parameters in insertion order (`n`, `k`, `h`, …).
    pub params: Vec<(String, String)>,
    /// RNG seed driving the run, when randomness is involved.
    pub seed: Option<u64>,
    /// `git describe --always --dirty` of the tree that produced the run.
    pub git_describe: String,
    /// Wall-clock of manifest creation, Unix milliseconds.
    pub created_unix_ms: u64,
    /// Per-phase elapsed time (from [`crate::aggregate_phases`]).
    pub phases: Vec<PhaseAgg>,
    /// End-to-end wall time of the run in nanoseconds (absent when the
    /// driver never called [`RunManifest::wall_ns`]).
    pub wall_ns: Option<u64>,
    /// Memory accounting sampled at the end of the run (absent when
    /// [`RunManifest::measure_memory`] was never called).
    pub memory: Option<MemoryStats>,
    /// Histogram snapshots captured at the end of the run (empty when
    /// [`RunManifest::capture_histograms`] was never called). These are
    /// process-level: drivers that run several experiments in one
    /// process record the same registry state into each manifest.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Memory figures recorded in a manifest: the process peak RSS plus the
/// byte-denominated allocation gauges live in the metric registry at
/// sampling time (e.g. `fib.table_bytes`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryStats {
    /// Peak resident set size in bytes ([`crate::peak_rss_bytes`];
    /// `None` — serialized as JSON `null` — when the platform does not
    /// expose it).
    pub peak_rss_bytes: Option<u64>,
    /// `(name, level)` for every registered gauge whose name ends in
    /// `_bytes` — the stack's convention for allocation gauges.
    pub alloc_gauges: Vec<(String, i64)>,
}

impl RunManifest {
    /// Creates a manifest stamped with the current time and the working
    /// tree's `git describe` (`"unknown"` outside a git checkout).
    pub fn new(experiment: impl Into<String>) -> Self {
        RunManifest {
            experiment: experiment.into(),
            topologies: Vec::new(),
            params: Vec::new(),
            seed: None,
            git_describe: git_describe(),
            created_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            phases: Vec::new(),
            wall_ns: None,
            memory: None,
            histograms: Vec::new(),
        }
    }

    /// Records a topology the run exercised.
    pub fn topology(&mut self, name: impl Into<String>) -> &mut Self {
        self.topologies.push(name.into());
        self
    }

    /// Records a named parameter (kept in insertion order).
    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Records the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = Some(seed);
        self
    }

    /// Fills [`RunManifest::phases`] from raw span events.
    pub fn set_phases(&mut self, spans: &[SpanEvent]) -> &mut Self {
        self.phases = crate::aggregate_phases(spans);
        self
    }

    /// Records the run's end-to-end wall time.
    pub fn wall_ns(&mut self, ns: u64) -> &mut Self {
        self.wall_ns = Some(ns);
        self
    }

    /// Snapshots every non-empty registry histogram into the manifest —
    /// the quantile record the perf-baseline store diffs against. Call
    /// once, after the run's work is done.
    pub fn capture_histograms(&mut self) -> &mut Self {
        self.histograms = crate::registry()
            .snapshot()
            .histograms
            .into_iter()
            .filter(|h| h.count > 0)
            .collect();
        self
    }

    /// Samples the process peak RSS and the current `*_bytes` allocation
    /// gauges into [`RunManifest::memory`]. Call once, after the run's
    /// work is done — the peak is a process-lifetime high-water mark.
    pub fn measure_memory(&mut self) -> &mut Self {
        let snap = crate::registry().snapshot();
        self.memory = Some(MemoryStats {
            peak_rss_bytes: crate::peak_rss_bytes(),
            alloc_gauges: snap
                .gauges
                .into_iter()
                .filter(|(name, _)| name.ends_with("_bytes"))
                .collect(),
        });
        self
    }

    /// One-line human-readable configuration echo, e.g.
    /// `config: fig6_throughput n=4 k=2 h=2 seed=1926 git=0bb07d7`.
    pub fn config_line(&self) -> String {
        let mut parts = vec![format!("config: {}", self.experiment)];
        for (k, v) in &self.params {
            parts.push(format!("{k}={v}"));
        }
        match self.seed {
            Some(s) => parts.push(format!("seed={s}")),
            None => parts.push("seed=none".to_string()),
        }
        parts.push(format!("git={}", self.git_describe));
        parts.join(" ")
    }

    /// Renders the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            (
                "experiment".to_string(),
                Value::Str(self.experiment.clone()),
            ),
            (
                "topologies".to_string(),
                Value::Seq(
                    self.topologies
                        .iter()
                        .map(|t| Value::Str(t.clone()))
                        .collect(),
                ),
            ),
            (
                "params".to_string(),
                Value::Map(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "seed".to_string(),
                self.seed.map_or(Value::Null, Value::U64),
            ),
            (
                "git_describe".to_string(),
                Value::Str(self.git_describe.clone()),
            ),
            (
                "created_unix_ms".to_string(),
                Value::U64(self.created_unix_ms),
            ),
            (
                "phases".to_string(),
                Value::Seq(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::Map(vec![
                                ("name".to_string(), Value::Str(p.name.clone())),
                                ("count".to_string(), Value::U64(p.count)),
                                ("total_ns".to_string(), Value::U64(p.total_ns)),
                                ("max_ns".to_string(), Value::U64(p.max_ns)),
                                ("threads".to_string(), Value::U64(u64::from(p.threads))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(wall) = self.wall_ns {
            entries.push(("wall_ns".to_string(), Value::U64(wall)));
        }
        if let Some(mem) = &self.memory {
            entries.push((
                "memory".to_string(),
                Value::Map(vec![
                    (
                        "peak_rss_bytes".to_string(),
                        mem.peak_rss_bytes.map_or(Value::Null, Value::U64),
                    ),
                    (
                        "alloc_gauges".to_string(),
                        Value::Map(
                            mem.alloc_gauges
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::I64(*v)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if !self.histograms.is_empty() {
            entries.push((
                "histograms".to_string(),
                Value::Map(
                    self.histograms
                        .iter()
                        .map(|h| {
                            (
                                h.name.clone(),
                                Value::Map(vec![
                                    ("count".to_string(), Value::U64(h.count)),
                                    ("sum".to_string(), Value::U64(h.sum)),
                                    ("mean".to_string(), Value::F64(h.mean)),
                                    ("p50".to_string(), Value::U64(h.p50)),
                                    ("p90".to_string(), Value::U64(h.p90)),
                                    ("p99".to_string(), Value::U64(h.p99)),
                                    ("p999".to_string(), Value::U64(h.p999)),
                                    ("p9999".to_string(), Value::U64(h.p9999)),
                                    ("max".to_string(), Value::U64(h.max)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        serde_json::to_string_pretty(&Value::Map(entries)).expect("render manifest")
    }

    /// Writes the manifest as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// `git describe --always --dirty` for the current directory, or
/// `"unknown"` when git or the repository is unavailable. Git runs once per
/// process; later calls return the first answer.
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("fig_test");
        m.topology("ABCCC(4,2,2)")
            .param("n", 4)
            .param("k", 2)
            .param("h", 2)
            .seed(1926);
        m.set_phases(&[SpanEvent {
            name: "phase.build",
            thread: 0,
            id: 1,
            parent: 0,
            start_ns: 0,
            dur_ns: 123,
        }]);
        m
    }

    #[test]
    fn config_line_names_params_and_seed() {
        let line = sample().config_line();
        assert!(line.starts_with("config: fig_test"));
        assert!(line.contains("n=4"));
        assert!(line.contains("k=2"));
        assert!(line.contains("h=2"));
        assert!(line.contains("seed=1926"));
        assert!(line.contains("git="));
    }

    #[test]
    fn seedless_runs_say_so() {
        let mut m = RunManifest::new("fig_pure");
        m.param("n", 4);
        assert!(m.config_line().contains("seed=none"));
    }

    #[test]
    fn json_roundtrips_key_fields() {
        let json = sample().to_json();
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let Value::Map(entries) = v else {
            panic!("manifest must be an object");
        };
        let get = |key: &str| {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert_eq!(get("experiment"), Value::Str("fig_test".into()));
        assert_eq!(get("seed"), Value::U64(1926));
        match get("params") {
            Value::Map(p) => assert_eq!(p.len(), 3),
            other => panic!("params not an object: {other:?}"),
        }
        match get("phases") {
            Value::Seq(p) => assert_eq!(p.len(), 1),
            other => panic!("phases not an array: {other:?}"),
        }
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn memory_section_records_peak_and_byte_gauges() {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        crate::registry().gauge("manifest_test.table_bytes").set(64);
        crate::registry().gauge("manifest_test.not_memory").set(9);
        crate::set_enabled(false);
        let mut m = sample();
        assert!(!m.to_json().contains("\"memory\""));
        m.measure_memory();
        let mem = m.memory.as_ref().expect("memory measured");
        assert!(mem
            .alloc_gauges
            .iter()
            .any(|(k, v)| k == "manifest_test.table_bytes" && *v == 64));
        assert!(mem.alloc_gauges.iter().all(|(k, _)| k.ends_with("_bytes")));
        let json = m.to_json();
        assert!(json.contains("\"peak_rss_bytes\""));
        assert!(json.contains("\"manifest_test.table_bytes\""));
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("dcn_telemetry_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        sample().write(&path).unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"fig_test\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe().is_empty());
    }
}
