//! Output sinks: human-readable summary and JSON-lines events.

use crate::{MetricsSnapshot, SpanEvent};
use serde::Value;
use std::io::Write;
use std::path::Path;

/// Per-name aggregate of finished spans.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAgg {
    /// Span name.
    pub name: String,
    /// Number of finished spans with this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Distinct recording threads.
    pub threads: u32,
}

/// Aggregates raw span events into one row per name, ordered by total
/// time descending (ties by name, so output is deterministic).
pub fn aggregate_phases(spans: &[SpanEvent]) -> Vec<PhaseAgg> {
    let mut by_name: Vec<PhaseAgg> = Vec::new();
    let mut threads_seen: Vec<Vec<u32>> = Vec::new();
    for ev in spans {
        let idx = match by_name.iter().position(|p| p.name == ev.name) {
            Some(i) => i,
            None => {
                by_name.push(PhaseAgg {
                    name: ev.name.to_string(),
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                    threads: 0,
                });
                threads_seen.push(Vec::new());
                by_name.len() - 1
            }
        };
        let p = &mut by_name[idx];
        p.count += 1;
        p.total_ns += ev.dur_ns;
        p.max_ns = p.max_ns.max(ev.dur_ns);
        if !threads_seen[idx].contains(&ev.thread) {
            threads_seen[idx].push(ev.thread);
        }
    }
    for (p, t) in by_name.iter_mut().zip(&threads_seen) {
        p.threads = t.len() as u32;
    }
    by_name.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    by_name
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders spans + metrics as an aligned human-readable report.
pub fn render_summary(spans: &[SpanEvent], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let phases = aggregate_phases(spans);
    if !phases.is_empty() {
        out.push_str("-- spans ------------------------------------------------------\n");
        for p in &phases {
            out.push_str(&format!(
                "{:<44} ×{:<7} total {:>10}  max {:>10}  ({} thread{})\n",
                p.name,
                p.count,
                fmt_ns(p.total_ns),
                fmt_ns(p.max_ns),
                p.threads,
                if p.threads == 1 { "" } else { "s" },
            ));
        }
    }
    let any_metric = !metrics.is_empty();
    if any_metric {
        out.push_str("-- metrics ----------------------------------------------------\n");
        for (name, v) in &metrics.counters {
            if *v > 0 {
                out.push_str(&format!("{name:<52} {v}\n"));
            }
        }
        for (name, v) in &metrics.gauges {
            if *v != 0 {
                out.push_str(&format!("{name:<52} {v}\n"));
            }
        }
        for (name, v) in &metrics.float_gauges {
            if *v != 0.0 {
                out.push_str(&format!("{name:<52} {v:.6}\n"));
            }
        }
        for h in &metrics.histograms {
            if h.count > 0 {
                out.push_str(&format!(
                    "{:<52} n={} mean={:.1} p50≤{} p90≤{} p99≤{} p999≤{} max={}\n",
                    h.name, h.count, h.mean, h.p50, h.p90, h.p99, h.p999, h.max
                ));
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders spans and metrics as JSON-lines: one `{"type": …}` object per
/// line (`span`, `counter`, `gauge`, `float_gauge`, `histogram`).
pub fn events_to_jsonl(spans: &[SpanEvent], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut push = |v: Value| {
        out.push_str(&serde_json::to_string(&v).expect("render JSON line"));
        out.push('\n');
    };
    for ev in spans {
        push(map(vec![
            ("type", Value::Str("span".into())),
            ("name", Value::Str(ev.name.into())),
            ("thread", Value::U64(u64::from(ev.thread))),
            ("id", Value::U64(ev.id)),
            ("parent", Value::U64(ev.parent)),
            ("start_ns", Value::U64(ev.start_ns)),
            ("dur_ns", Value::U64(ev.dur_ns)),
        ]));
    }
    for (name, v) in &metrics.counters {
        push(map(vec![
            ("type", Value::Str("counter".into())),
            ("name", Value::Str(name.clone())),
            ("value", Value::U64(*v)),
        ]));
    }
    for (name, v) in &metrics.gauges {
        push(map(vec![
            ("type", Value::Str("gauge".into())),
            ("name", Value::Str(name.clone())),
            ("value", Value::I64(*v)),
        ]));
    }
    for (name, v) in &metrics.float_gauges {
        push(map(vec![
            ("type", Value::Str("float_gauge".into())),
            ("name", Value::Str(name.clone())),
            ("value", Value::F64(*v)),
        ]));
    }
    for h in &metrics.histograms {
        push(map(vec![
            ("type", Value::Str("histogram".into())),
            ("name", Value::Str(h.name.clone())),
            ("count", Value::U64(h.count)),
            ("sum", Value::U64(h.sum)),
            ("mean", Value::F64(h.mean)),
            ("p50", Value::U64(h.p50)),
            ("p90", Value::U64(h.p90)),
            ("p99", Value::U64(h.p99)),
            ("p999", Value::U64(h.p999)),
            ("p9999", Value::U64(h.p9999)),
            ("max", Value::U64(h.max)),
            (
                "buckets",
                Value::Seq(
                    h.buckets
                        .iter()
                        .map(|(bucket, n)| {
                            Value::Seq(vec![Value::U64(u64::from(*bucket)), Value::U64(*n)])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    out
}

/// Writes [`events_to_jsonl`] output to `path` (parent directories must
/// exist).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(
    path: impl AsRef<Path>,
    spans: &[SpanEvent],
    metrics: &MetricsSnapshot,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(events_to_jsonl(spans, metrics).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "a",
                thread: 0,
                id: 1,
                parent: 0,
                start_ns: 0,
                dur_ns: 100,
            },
            SpanEvent {
                name: "a",
                thread: 1,
                id: 2,
                parent: 1,
                start_ns: 50,
                dur_ns: 300,
            },
            SpanEvent {
                name: "b",
                thread: 0,
                id: 3,
                parent: 0,
                start_ns: 10,
                dur_ns: 4_000,
            },
        ]
    }

    #[test]
    fn phases_aggregate_and_sort_by_total() {
        let phases = aggregate_phases(&sample_spans());
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "b"); // 4000 > 400
        assert_eq!(phases[1].count, 2);
        assert_eq!(phases[1].total_ns, 400);
        assert_eq!(phases[1].max_ns, 300);
        assert_eq!(phases[1].threads, 2);
    }

    #[test]
    fn summary_mentions_spans_and_metrics() {
        let reg = crate::Registry::new();
        {
            let _lock = crate::test_guard();
            crate::set_enabled(true);
            reg.counter("sink.events").add(9);
            reg.histogram("sink.depth").record(4);
            crate::set_enabled(false);
        }
        let s = render_summary(&sample_spans(), &reg.snapshot());
        assert!(s.contains("sink.events"));
        assert!(s.contains("sink.depth"));
        assert!(s.contains("×2"));
        let empty = render_summary(&[], &crate::MetricsSnapshot::default());
        assert!(empty.contains("no telemetry"));
    }

    #[test]
    fn jsonl_one_parseable_object_per_line() {
        let reg = crate::Registry::new();
        {
            let _lock = crate::test_guard();
            crate::set_enabled(true);
            reg.counter("sink.c").inc();
            reg.gauge("sink.g").set(-2);
            reg.float_gauge("sink.f").set(0.25);
            reg.histogram("sink.h").record(1000);
            crate::set_enabled(false);
        }
        let text = events_to_jsonl(&sample_spans(), &reg.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3 + 4);
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            match v {
                Value::Map(entries) => {
                    assert!(entries.iter().any(|(k, _)| k == "type"));
                }
                other => panic!("expected object, got {other:?}"),
            }
        }
        assert!(text.contains("\"float_gauge\""));
        assert!(text.contains("\"buckets\""));
    }

    #[test]
    fn jsonl_writes_to_disk() {
        let dir = std::env::temp_dir().join("dcn_telemetry_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        write_jsonl(&path, &sample_spans(), &crate::MetricsSnapshot::default()).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
