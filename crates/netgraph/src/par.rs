//! The workspace's one parallel loop.
//!
//! [`map_indexed`] is the work-stealing pattern every parallel sweep in
//! the workspace runs on — the all-pairs distance sweep, sampled metrics,
//! fault campaigns and the experiment engine:
//!
//! * **Work stealing.** Workers claim indices one at a time from a shared
//!   atomic cursor instead of static chunks, so a worker that drew cheap
//!   items keeps pulling work while a slower one finishes its current
//!   item — no barrier waits on the unluckiest partition.
//! * **Index-ordered results.** Each result lands at its own index,
//!   never in completion order, so any fold the caller runs over them is
//!   sequential and identical at every thread count. This is what makes
//!   each caller's output thread-count-invariant.
//! * **Per-worker state.** `init` builds a worker's reusable state (BFS
//!   scratch, a router, an accumulator) on the worker's own thread and
//!   `finish` consumes it there, so the state need not be `Send` and a
//!   span held in it opens and closes on the thread it measures.
//!
//! A single worker runs inline on the caller's thread: it gains nothing
//! from a spawn and a join.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(&mut state, i)` for every `i in 0..n` on up to `threads`
/// workers (`0` = the available parallelism; never more than `n`) and
/// returns the results in index order, plus each worker's
/// `finish(state)` in no particular order.
///
/// Every worker builds its state with `init` before its first claim and
/// hands it to `finish` after its last, both on its own thread. `n = 0`
/// runs no worker at all.
///
/// # Panics
///
/// Re-raises a panic from `init`, `f` or `finish` on the caller's thread
/// after every worker has stopped.
pub fn map_indexed<S, T, R>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
    finish: impl Fn(S) -> R + Sync,
) -> (Vec<T>, Vec<R>)
where
    T: Send,
    R: Send,
{
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        t => t,
    }
    .min(n);
    if workers == 0 {
        return (Vec::new(), Vec::new());
    }
    if workers == 1 {
        let mut state = init();
        let results = (0..n).map(|i| f(&mut state, i)).collect();
        return (results, vec![finish(state)]);
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(&mut state, i)));
        }
        (done, finish(state))
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut finished = Vec::with_capacity(workers);
    for (done, r) in joined {
        for (i, t) in done {
            slots[i] = Some(t);
        }
        finished.push(r);
    }
    let results = slots
        .into_iter()
        .map(|t| t.expect("the cursor hands out every index exactly once"))
        .collect();
    (results, finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A deliberately uneven workload: index `i` costs `i % 7` spins, so
    /// claims interleave differently at every thread count.
    fn uneven(i: usize) -> u64 {
        (0..(i % 7) * 100).fold(i as u64, |acc, x| acc.rotate_left(3) ^ x as u64)
    }

    #[test]
    fn results_are_index_ordered_and_thread_count_invariant() {
        let n = 50;
        let serial: Vec<u64> = (0..n).map(uneven).collect();
        for threads in [0, 1, 2, 7, n + 3] {
            let (results, workers) = map_indexed(n, threads, || (), |(), i| uneven(i), drop);
            assert_eq!(results, serial, "threads={threads}");
            assert!(
                !workers.is_empty() && workers.len() <= n,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in [1, 2, 7, 53] {
            let seen = Mutex::new(vec![0u32; 50]);
            let (_, counts) = map_indexed(
                50,
                threads,
                || 0usize,
                |claimed, i| {
                    *claimed += 1;
                    seen.lock().expect("test tally")[i] += 1;
                },
                |claimed| claimed,
            );
            assert!(seen
                .into_inner()
                .expect("test tally")
                .iter()
                .all(|&c| c == 1));
            assert_eq!(counts.iter().sum::<usize>(), 50, "threads={threads}");
            assert_eq!(counts.len(), threads.min(50));
        }
    }

    #[test]
    fn zero_items_start_no_worker() {
        let (results, workers) = map_indexed(
            0,
            4,
            || panic!("no worker may start"),
            |_: &mut (), i| i,
            drop,
        );
        assert!(results.is_empty() && workers.is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let (on_caller, _) = map_indexed(
            5,
            1,
            || (),
            |(), _| std::thread::current().id() == caller,
            drop,
        );
        assert_eq!(on_caller, vec![true; 5]);
        let (_, finish_on) = map_indexed(
            5,
            2,
            || (),
            |(), _| (),
            |()| std::thread::current().id() != caller,
        );
        assert_eq!(
            finish_on,
            vec![true; 2],
            "spawned workers finish on their own thread"
        );
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn worker_panics_reach_the_caller() {
        map_indexed(
            8,
            2,
            || (),
            |(), i| assert!(i != 3, "item {i} failed"),
            drop,
        );
    }
}
