//! # dcn-telemetry — zero-dependency observability for the ABCCC stack
//!
//! Lightweight spans, counters, gauges and log₂ histograms, plus sinks
//! that turn them into human-readable summaries, JSON-lines event streams
//! and per-experiment run manifests. Everything is `std`-only (the JSON
//! sinks go through the vendored `serde`/`serde_json` stand-ins — see
//! `vendor/README.md`).
//!
//! ## Model
//!
//! * **Spans** ([`SpanGuard`], [`span!`]) — RAII wall-clock timers with
//!   causal structure: each finished span records
//!   `(name, thread, id, parent, start, duration)` into a per-thread
//!   buffer that is drained into a global registry either when it fills
//!   or when the thread exits, so worker threads (e.g. the distance
//!   engine's stealing workers) never contend on a lock per span. The
//!   parent link is the innermost open span on the same thread, or an
//!   explicit id via [`SpanGuard::enter_under`] when work crosses
//!   threads.
//! * **Metrics** ([`Counter`], [`Gauge`], [`FloatGauge`], [`Histogram`],
//!   via [`counter!`] and friends) — process-global atomics registered by
//!   name on first use. Histograms are log-bucketed HDR style — every
//!   power-of-two octave split into 16 linear sub-buckets, bounding
//!   quantile error by [`MAX_RELATIVE_ERROR`] — with p50/p90/p99/p999/
//!   p9999 extraction; recording is a couple of atomic adds and never
//!   allocates. [`HdrHistogram`] is the owned, merge-order-invariant
//!   variant for deterministic per-run statistics.
//! * **Sinks** ([`render_summary`], [`write_jsonl`], [`RunManifest`],
//!   [`chrome_trace_json`], [`folded_stacks`]) — pull-based: nothing is
//!   written anywhere until a driver (the CLI's `--trace`/
//!   `--metrics-out`/`--trace-out`, or the sweep engine's [`RunManifest`])
//!   drains the registry.
//! * **Perf sentinel** ([`PerfRecord`], [`diff`]) — condensed manifests
//!   stored under `bench_results/baselines/` and compared with
//!   noise-aware thresholds by `abccc-cli perf record|diff`.
//!
//! ## Cost contract
//!
//! Telemetry is **off** until [`set_enabled`]`(true)`. While disabled,
//! a span guard or counter increment is one relaxed atomic load and a
//! predictable branch, inlined at the call site: about 1 ns for a
//! counter and 3 ns for a span guard, under the 50 ns ceiling of the
//! `telemetry_overhead` bench in `crates/bench`.
//!
//! ## Example
//!
//! ```
//! dcn_telemetry::set_enabled(true);
//! {
//!     let _span = dcn_telemetry::span!("demo.work");
//!     dcn_telemetry::counter!("demo.items").add(3);
//!     dcn_telemetry::histogram!("demo.size_bytes").record(1500);
//! }
//! let spans = dcn_telemetry::drain_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(dcn_telemetry::counter!("demo.items").get(), 3);
//! dcn_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod manifest;
mod memory;
mod metrics;
mod sink;
mod span;
mod trace;

pub use baseline::{
    diff, load_baselines, save_baselines, DiffThresholds, HistQuantiles, PerfRecord, PerfVerdict,
    Regression,
};
pub use manifest::{git_describe, MemoryStats, RunManifest};
pub use memory::{current_rss_bytes, peak_rss_bytes};
pub use metrics::{
    bucket_bounds, Counter, FloatGauge, Gauge, HdrHistogram, Histogram, HistogramSnapshot,
    HistogramTimer, MetricsSnapshot, Registry, MAX_RELATIVE_ERROR, SUB_COUNT,
};
pub use sink::{aggregate_phases, events_to_jsonl, render_summary, write_jsonl, PhaseAgg};
pub use span::{drain_spans, SpanEvent, SpanGuard};
pub use trace::{chrome_trace_json, folded_stacks};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Global recording switch (off at startup).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off process-wide.
///
/// While off, guards and metric operations cost a single relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry is currently recording.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide metric registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Clears every recorded span and zeroes every registered metric.
///
/// Intended for tests and for bench binaries that emit several
/// independent experiment sections from one process.
pub fn reset() {
    span::clear_spans();
    registry().reset();
}

/// Monotonic nanoseconds since the first telemetry call in this process.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Opens a named RAII span; timing stops when the guard drops.
///
/// ```
/// let _guard = dcn_telemetry::span!("flowsim.run");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Returns the named process-global [`Counter`], caching the registry
/// lookup in a per-call-site static (one atomic load after first use).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Returns the named process-global [`Gauge`] (cached like [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Returns the named process-global [`FloatGauge`] (cached like
/// [`counter!`]).
#[macro_export]
macro_rules! float_gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::FloatGauge> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().float_gauge($name))
    }};
}

/// Returns the named process-global [`Histogram`] (cached like
/// [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Serializes unit tests that toggle the process-global enabled flag or
/// drain the shared span buffer.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _lock = test_guard();
        set_enabled(false);
        {
            let _g = span!("lib.disabled");
            counter!("lib.disabled.count").inc();
        }
        assert_eq!(counter!("lib.disabled.count").get(), 0);
        assert!(drain_spans().iter().all(|s| s.name != "lib.disabled"));
    }

    #[test]
    fn macro_caches_resolve_to_same_metric() {
        let a = registry().counter("lib.same");
        let b = registry().counter("lib.same");
        assert!(std::ptr::eq(a, b));
    }
}
