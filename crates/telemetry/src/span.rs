//! RAII span timing with per-thread buffering and causal parent links.
//!
//! A [`SpanGuard`] stamps wall-clock time on construction and, on drop,
//! pushes one [`SpanEvent`] into a thread-local buffer. Buffers flush
//! into a process-global vector when they reach capacity and when their
//! thread exits, so short-lived worker threads (the distance engine's
//! stealing workers, scoped simulation threads) pay one lock per
//! *lifetime*, not per span.
//!
//! ## Causality
//!
//! Every live span gets a process-unique id and a parent id: by default
//! the innermost span still open **on the same thread** (a thread-local
//! stack tracks this for free), or an explicit id passed to
//! [`SpanGuard::enter_under`] when work hops threads — the sweep engine
//! uses that to parent each worker's per-point spans under the
//! orchestrator's run span. Parent id 0 means "root". The id/parent
//! pairs are what the Chrome-trace and flamegraph exporters in
//! [`crate::trace`] reconstruct the tree from.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static so hot paths never allocate).
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned on first span).
    pub thread: u32,
    /// Process-unique span id (thread id in the high bits, per-thread
    /// sequence in the low 40 — see [`LocalBuf::alloc_id`]). Never 0.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Flush threshold for the thread-local buffer.
const FLUSH_AT: usize = 1024;

/// Bits of the span id reserved for the per-thread sequence number.
const SEQ_BITS: u32 = 40;

static GLOBAL: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Thread-local buffer whose `Drop` flushes leftovers at thread exit.
struct LocalBuf {
    id: u32,
    next_seq: u64,
    /// Ids of the spans currently open on this thread, innermost last.
    stack: Vec<u64>,
    events: Vec<SpanEvent>,
}

impl LocalBuf {
    /// A fresh process-unique span id: `(thread + 1) << SEQ_BITS | seq`.
    /// The `+ 1` keeps 0 free to mean "no parent" even for thread 0's
    /// first span.
    fn alloc_id(&mut self) -> u64 {
        self.next_seq += 1;
        (u64::from(self.id) + 1) << SEQ_BITS | (self.next_seq & ((1 << SEQ_BITS) - 1))
    }

    fn flush(&mut self) {
        if !self.events.is_empty() {
            GLOBAL
                .lock()
                .expect("span buffer poisoned")
                .append(&mut self.events);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        next_seq: 0,
        stack: Vec::new(),
        events: Vec::new(),
    });
}

/// A running span; records a [`SpanEvent`] when dropped.
///
/// When telemetry is disabled at `enter` time the guard is inert and
/// costs a relaxed load plus one branch in `Drop`.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// `u64::MAX` marks an inert guard (telemetry disabled at entry).
    start_ns: u64,
    id: u64,
    parent: u64,
}

impl SpanGuard {
    /// Starts a span named `name` if telemetry is enabled, parented
    /// under the innermost span already open on this thread.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        Self::with_parent(name, None)
    }

    /// Starts a span with an explicit parent id — for work that crosses
    /// threads, where the thread-local stack cannot see the causal
    /// parent. Pass the parent guard's [`SpanGuard::id`]; 0 makes this
    /// a root span.
    #[inline]
    pub fn enter_under(name: &'static str, parent: u64) -> Self {
        Self::with_parent(name, Some(parent))
    }

    fn with_parent(name: &'static str, parent: Option<u64>) -> Self {
        if !crate::enabled() {
            return SpanGuard {
                name,
                start_ns: u64::MAX,
                id: 0,
                parent: 0,
            };
        }
        let start_ns = crate::now_ns();
        let (id, parent) = LOCAL
            .try_with(|local| {
                let mut local = local.borrow_mut();
                let id = local.alloc_id();
                let parent = parent.unwrap_or_else(|| local.stack.last().copied().unwrap_or(0));
                local.stack.push(id);
                (id, parent)
            })
            .unwrap_or((0, 0));
        SpanGuard {
            name,
            start_ns,
            id,
            parent,
        }
    }

    /// This span's process-unique id (0 when the guard is inert), for
    /// parenting cross-thread children via [`SpanGuard::enter_under`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.start_ns == u64::MAX {
            return;
        }
        let dur_ns = crate::now_ns().saturating_sub(self.start_ns);
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            // Guards usually drop LIFO, but search from the end so an
            // out-of-order drop (guard moved into a struct, say) cannot
            // corrupt unrelated entries.
            if let Some(pos) = local.stack.iter().rposition(|&id| id == self.id) {
                local.stack.remove(pos);
            }
            let thread = local.id;
            local.events.push(SpanEvent {
                name: self.name,
                thread,
                id: self.id,
                parent: self.parent,
                start_ns: self.start_ns,
                dur_ns,
            });
            if local.events.len() >= FLUSH_AT {
                local.flush();
            }
        });
    }
}

/// Flushes the calling thread's buffer and takes every globally recorded
/// span, ordered by flush time (stable within a thread).
///
/// Worker threads that already exited have flushed automatically; call
/// this from the orchestrating thread after joins.
pub fn drain_spans() -> Vec<SpanEvent> {
    let _ = LOCAL.try_with(|local| local.borrow_mut().flush());
    std::mem::take(&mut *GLOBAL.lock().expect("span buffer poisoned"))
}

/// Discards all buffered spans (current thread + global).
pub(crate) fn clear_spans() {
    let _ = LOCAL.try_with(|local| local.borrow_mut().events.clear());
    GLOBAL.lock().expect("span buffer poisoned").clear();
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn spans_record_name_thread_and_duration() {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        {
            let _g = SpanGuard::enter("span.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::set_enabled(false);
        let spans = drain_spans();
        let ev = spans
            .iter()
            .find(|s| s.name == "span.test.outer")
            .expect("span recorded");
        assert!(ev.dur_ns >= 1_000_000, "{}", ev.dur_ns);
        assert_ne!(ev.id, 0);
        assert_eq!(ev.parent, 0);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        {
            let outer = SpanGuard::enter("span.test.nest.outer");
            assert_ne!(outer.id(), 0);
            {
                let inner = SpanGuard::enter("span.test.nest.inner");
                assert_ne!(inner.id(), outer.id());
            }
            let sibling = SpanGuard::enter("span.test.nest.sibling");
            drop(sibling);
        }
        crate::set_enabled(false);
        let spans = drain_spans();
        let find = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("{n} recorded"))
        };
        let outer = find("span.test.nest.outer");
        let inner = find("span.test.nest.inner");
        let sibling = find("span.test.nest.sibling");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        let root = SpanGuard::enter("span.test.cross.root");
        let root_id = root.id();
        // An explicit join waits for the thread's exit-time flush; the
        // scope's implicit wait can return before it.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _child = SpanGuard::enter_under("span.test.cross.child", root_id);
                // The thread-local stack still parents grandchildren
                // under the cross-thread child.
                let _grand = SpanGuard::enter("span.test.cross.grand");
            })
            .join()
            .expect("span test thread");
        });
        drop(root);
        crate::set_enabled(false);
        let spans = drain_spans();
        let find = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("{n} recorded"))
        };
        let child = find("span.test.cross.child");
        let grand = find("span.test.cross.grand");
        assert_eq!(child.parent, root_id);
        assert_eq!(grand.parent, child.id);
        assert_ne!(child.thread, find("span.test.cross.root").thread);
    }

    #[test]
    fn worker_thread_spans_flush_at_exit() {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let _g = SpanGuard::enter("span.test.worker");
                    })
                })
                .collect();
            // Joined explicitly, like the `drain_spans` docs ask: the
            // scope's implicit wait can return before the exit flush.
            for w in workers {
                w.join().expect("span test thread");
            }
        });
        crate::set_enabled(false);
        let spans = drain_spans();
        let workers: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "span.test.worker")
            .collect();
        assert_eq!(workers.len(), 3);
        // Distinct worker threads get distinct thread ids and distinct
        // span ids.
        let mut ids: Vec<u32> = workers.iter().map(|s| s.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let mut span_ids: Vec<u64> = workers.iter().map(|s| s.id).collect();
        span_ids.sort_unstable();
        span_ids.dedup();
        assert_eq!(span_ids.len(), 3);
    }

    #[test]
    fn inert_guard_records_nothing() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        let g = SpanGuard::enter("span.test.inert");
        assert_eq!(g.id(), 0);
        drop(g);
        assert!(drain_spans().iter().all(|s| s.name != "span.test.inert"));
    }
}
