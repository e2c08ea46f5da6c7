//! Micro-benchmark enforcing the telemetry cost contract: with recording
//! disabled (the default), a span guard or a counter/histogram touch must
//! cost only a few nanoseconds — one relaxed atomic load plus a cached
//! call-site lookup. The enabled paths are timed alongside for reference.
//!
//! Each path runs in batches grown until one batch takes at least 2 ms;
//! the median of 20 such batches is its per-call cost. Run with
//! `cargo bench -p abccc-bench --bench telemetry_overhead`; it panics if a
//! disabled path breaks the contract.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Generous ceiling for the disabled paths — "a few ns" with headroom for
/// slow shared CI machines. A regression to a lock, a heap write, or an
/// uncached registry lookup lands well above this.
const DISABLED_MEDIAN_CEILING_NS: f64 = 50.0;

/// Timed batches per path; the median is reported.
const SAMPLES: usize = 20;

/// Shortest timed batch: long enough that clock resolution and the cost of
/// reading the clock vanish from a per-call figure.
const MIN_BATCH: Duration = Duration::from_millis(2);

fn main() {
    dcn_telemetry::set_enabled(false);
    let disabled = [
        report("disabled/span_guard", || {
            dcn_telemetry::span!("bench.overhead.span")
        }),
        report("disabled/counter_inc", || {
            dcn_telemetry::counter!("bench.overhead.counter").inc()
        }),
        report("disabled/histogram_record", || {
            dcn_telemetry::histogram!("bench.overhead.hist").record(black_box(42))
        }),
    ];

    dcn_telemetry::set_enabled(true);
    report("enabled/span_guard", || {
        dcn_telemetry::span!("bench.overhead.span")
    });
    report("enabled/counter_inc", || {
        dcn_telemetry::counter!("bench.overhead.counter").inc()
    });
    report("enabled/histogram_record", || {
        dcn_telemetry::histogram!("bench.overhead.hist").record(black_box(42))
    });
    dcn_telemetry::set_enabled(false);
    // The enabled span runs filled the thread-local buffers; discard them.
    let _ = dcn_telemetry::drain_spans();

    for (id, median_ns) in disabled {
        assert!(
            median_ns < DISABLED_MEDIAN_CEILING_NS,
            "disabled-telemetry contract violated: {id} median {median_ns:.1} ns \
             (ceiling {DISABLED_MEDIAN_CEILING_NS} ns)"
        );
    }
    println!(
        "\ndisabled-path contract: all {} medians < {DISABLED_MEDIAN_CEILING_NS} ns",
        disabled.len()
    );
}

/// Times `f`, prints its median per-call cost under `id`, and returns both.
fn report<R>(id: &'static str, mut f: impl FnMut() -> R) -> (&'static str, f64) {
    let mut batch: u64 = 1;
    while time_batch(&mut f, batch) < MIN_BATCH {
        batch *= 4;
    }
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| time_batch(&mut f, batch).as_secs_f64() * 1e9 / batch as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    let median_ns = per_call[SAMPLES / 2];
    println!("telemetry_overhead/{id:<26} median {median_ns:>8.1} ns  ({batch} calls/batch)");
    (id, median_ns)
}

/// Wall-clock time of `batch` back-to-back calls of `f`.
fn time_batch<R>(f: &mut impl FnMut() -> R, batch: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    start.elapsed()
}
