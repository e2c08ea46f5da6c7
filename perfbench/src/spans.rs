//! The benchmark's own spans, recorded in traced runs around each call
//! into the program: server start, connect, `send_frame`, `recv_reply`,
//! each sweep process and each probe. The spans of one frame share its
//! wire id. They stay in memory until the run ends, when `--spans-out
//! FILE` writes them as JSON lines.

use crate::quantile::Samples;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// µs since the run started.
    pub start_us: f64,
    pub dur_us: f64,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn span(name: &'static str, id: u64, start: Instant, end: Instant) -> Span {
    Span {
        name,
        id,
        start_us: start.saturating_duration_since(epoch()).as_secs_f64() * 1e6,
        dur_us: (end - start).as_secs_f64() * 1e6,
    }
}

/// Records one span when tracing is on.
pub fn record(name: &'static str, id: u64, start: Instant) {
    if enabled() {
        let s = span(name, id, start, Instant::now());
        SPANS.lock().expect("span buffer").push(s);
    }
}

/// Adds spans a connection kept locally.
pub fn record_all(spans: Vec<Span>) {
    SPANS.lock().expect("span buffer").extend(spans);
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

/// Durations (µs) of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Samples {
    let mut s = Samples::default();
    for sp in spans.iter().filter(|sp| sp.name == name) {
        s.push(sp.dur_us);
    }
    s
}

pub fn write_jsonl(path: &str, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"name\": \"{}\", \"id\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}\n",
            s.name, s.id, s.start_us, s.dur_us
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}
