//! A dependency-free worker pool for batch workloads.
//!
//! The pool is *scoped*: workers are spawned inside
//! [`std::thread::scope`] for the duration of one batch, so jobs may
//! borrow the plan and the input trees without `'static` gymnastics or
//! unsafe code. Batch items are independent — no job spawns another —
//! so distribution is one shared atomic cursor: every worker, the
//! calling thread included, takes the next unstarted index until the
//! batch is drained. A slow item holds up only the worker running it.
//!
//! Degradation is graceful twice over: a batch smaller than two jobs (or
//! `workers <= 1`) runs inline with no threads at all, and if the OS
//! refuses to spawn a worker (`std::thread::Builder::spawn` failure) the
//! batch still completes — the workers that did start, the calling
//! thread at least, take its share. `rt.pool_fallbacks` counts such
//! events.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `exec(0..n)` across `workers` threads (the calling thread
/// included), returning results in index order and the number of worker
/// spawns the OS refused.
///
/// `workers` is the *total* parallelism: `workers <= 1` runs inline.
///
/// A job that **panics** is contained: the panic is caught, counted
/// under `rt.worker_panics`, and the job's slot is filled with
/// `recover(i)` — one hostile item degrades to one errored result
/// instead of tearing down the batch (or, server-side, the process).
pub(crate) fn run_indexed<R, F, G>(workers: usize, n: usize, exec: F, recover: G) -> (Vec<R>, u64)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    G: Fn(usize) -> R,
{
    let guarded = |i: usize| {
        std::panic::catch_unwind(AssertUnwindSafe(|| exec(i)))
            .ok()
            .map_or_else(
                || {
                    fast_obs::count!("rt.worker_panics");
                    None
                },
                Some,
            )
    };
    if workers <= 1 || n <= 1 {
        let out = (0..n)
            .map(|i| guarded(i).unwrap_or_else(|| recover(i)))
            .collect();
        return (out, 0);
    }
    // `Relaxed` suffices: each `fetch_add` returns a distinct index and
    // the cursor publishes no data; results reach the calling thread
    // through `join`.
    let cursor = AtomicUsize::new(0);
    let work = || -> Vec<(usize, R)> {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            if let Some(r) = guarded(i) {
                out.push((i, r));
            }
        }
    };

    let mut fallbacks = 0u64;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 1..workers.min(n) {
            let builder = std::thread::Builder::new().name(format!("fast-rt-{w}"));
            match builder.spawn_scoped(scope, work) {
                Ok(h) => handles.push(h),
                Err(_) => {
                    // Spawn refused: the cursor hands this worker's share
                    // to the ones that started.
                    fallbacks += 1;
                    fast_obs::count!("rt.pool_fallbacks");
                }
            }
        }
        // The calling thread is worker 0.
        let mut parts = vec![work()];
        for h in handles {
            // `work` catches job panics, so a join failure means the
            // thread died outside a job; its finished results are lost
            // and the indices are refilled below.
            match h.join() {
                Ok(part) => parts.push(part),
                Err(_) => fast_obs::count!("rt.worker_panics"),
            }
        }
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
    });
    // Panicked (or lost) slots are filled by `recover`.
    let out = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| recover(i)))
        .collect();
    (out, fallbacks)
}

/// Resolves a worker-count request: `0` means "ask the OS", anything
/// else is taken literally. Falls back to 1 when parallelism cannot be
/// determined.
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn no_recover(i: usize) -> usize {
        panic!("job {i} should not need recovery")
    }

    #[test]
    fn results_are_in_index_order() {
        let (out, _) = run_indexed(4, 100, |i| i * 2, no_recover);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_when_single_worker() {
        let (out, fallbacks) = run_indexed(1, 10, |i| i, no_recover);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(fallbacks, 0);
    }

    /// Every index runs exactly once and lands in its own slot, whatever
    /// the worker count, batch size and per-job cost.
    #[test]
    fn every_index_runs_exactly_once() {
        for workers in [2, 3, 8] {
            for n in [0, 1, 2, 7, 1000] {
                let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let (out, fallbacks) = run_indexed(
                    workers,
                    n,
                    |i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        // Uneven but sub-millisecond jobs.
                        std::thread::sleep(std::time::Duration::from_micros((i % 7) as u64 * 20));
                        i
                    },
                    no_recover,
                );
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "workers={workers} n={n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "workers={workers} n={n}: an index ran other than once"
                );
                assert_eq!(fallbacks, 0);
            }
        }
    }

    #[test]
    fn uneven_work_completes_in_order() {
        // Every fourth job is slow; the other workers keep taking the
        // fast ones meanwhile. Timing-free: only completion and order
        // are asserted.
        let (out, _) = run_indexed(
            4,
            32,
            |i| {
                if i % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            },
            no_recover,
        );
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs() {
        let (out, _) = run_indexed(16, 3, |i| i + 1, no_recover);
        assert_eq!(out, vec![1, 2, 3]);
    }

    /// A panicking job degrades to its `recover` value; every other job
    /// completes normally and order is preserved. Covers both the
    /// pooled and the inline path.
    #[test]
    fn panicking_job_is_contained() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        for workers in [1, 4] {
            let (out, _) = run_indexed(
                workers,
                16,
                |i| {
                    if i == 7 {
                        panic!("hostile item");
                    }
                    i
                },
                |i| 1000 + i,
            );
            let expected: Vec<usize> = (0..16).map(|i| if i == 7 { 1007 } else { i }).collect();
            assert_eq!(out, expected, "workers = {workers}");
        }
        std::panic::set_hook(hook);
    }
}
