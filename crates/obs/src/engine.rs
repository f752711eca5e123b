//! Windowed telemetry: periodic snapshot deltas in a fixed ring.
//!
//! Cumulative [`crate::Snapshot`]s answer "what happened since process
//! start" — the wrong question for a long-running process, where an
//! operator needs "what happened in the last few seconds". The
//! [`Sampler`] closes that gap: each [`Sampler::tick`] captures a
//! snapshot, differences it against the previous tick, corrects the
//! per-window histogram maximum (see below), and pushes the resulting
//! [`WindowSample`] into a fixed-capacity ring (oldest window dropped
//! when full, so memory stays bounded forever).
//!
//! Derived views come from [`Sampler::view`]: a [`WindowView`] merges
//! the last *n* windows and answers rates (items/s), hit rates, and
//! per-window-correct p50/p99/max, while gauges are read from the
//! newest window (residency is a point-in-time value, not a sum over
//! windows).
//!
//! ## The window-max correction
//!
//! [`crate::HistSnapshot::delta_from`] cannot reset its `max_ns` — a
//! maximum is not differencable — so a raw delta carries the cumulative
//! maximum forever (one slow item at startup would pollute every later
//! window). The sampler tightens each windowed histogram to
//! `bucket_max_ns().min(max_ns)`: the upper bound of the highest
//! non-empty *delta* bucket, which does reset between windows and is
//! within 2× of the true window maximum
//! ([`crate::HistSnapshot::bucket_max_ns`]).
//!
//! ## Driving the sampler
//!
//! Deterministic consumers (tests) call [`Sampler::tick`] themselves
//! between units of work. The background [`Engine`] wraps a sampler in
//! a thread that ticks on a fixed interval, for workloads that cannot
//! yield, and runs a caller-supplied hook after every tick, so a
//! consumer judges each window exactly once as it closes (`fast-serve`
//! evaluates its SLO there). Its overhead is one registry snapshot per
//! interval, measured at under 2% on the `rt_batch` bench (the bench
//! emits `engine_overhead_pct`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::{snapshot, Snapshot};

/// One windowed delta: everything that happened between two consecutive
/// [`Sampler::tick`]s, with the histogram maxima corrected to the
/// window (see the module docs).
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// Tick ordinal, starting at 1 for the first window.
    pub seq: u64,
    /// Length of this window in milliseconds (wall clock between
    /// ticks).
    pub dur_ms: u64,
    /// The windowed delta. Counters and histogram buckets are
    /// per-window; gauges and exemplars are the point-in-time values at
    /// the window's end ([`Snapshot::delta_from`] semantics).
    pub delta: Snapshot,
}

/// A merged read-only view over the newest windows of a [`Sampler`]
/// (see [`Sampler::view`]).
///
/// Counters and histograms are summed across the covered
/// windows (histogram maxima stay window-correct: the merge takes the
/// max of already-corrected per-window maxima). Gauges and exemplars
/// come from the newest covered window only.
#[derive(Debug, Clone)]
pub struct WindowView {
    /// Number of windows merged into this view.
    pub windows: usize,
    /// Wall-clock time covered, in milliseconds.
    pub span_ms: u64,
    /// The merged windowed telemetry (gauges/exemplars: newest window).
    pub snap: Snapshot,
}

impl WindowView {
    /// An empty view (no windows). All rates are 0, all quantiles None.
    pub fn empty() -> WindowView {
        WindowView {
            windows: 0,
            span_ms: 0,
            snap: Snapshot::empty(),
        }
    }

    /// Events per second for counter `name` over the view's span
    /// (0.0 on an empty span).
    pub fn rate(&self, name: &str) -> f64 {
        if self.span_ms == 0 {
            return 0.0;
        }
        self.snap.get(name) as f64 * 1000.0 / self.span_ms as f64
    }

    /// `hits / (hits + misses)` for a counter pair, or `None` when the
    /// cache was never consulted in the view's span — callers must not
    /// conflate "idle" with "0% hit rate".
    pub fn hit_rate(&self, hits: &str, misses: &str) -> Option<f64> {
        let h = self.snap.get(hits);
        let m = self.snap.get(misses);
        let total = h + m;
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// The `q`-quantile of histogram `name` over the view, in
    /// nanoseconds, or `None` when the histogram saw no samples.
    pub fn quantile_ns(&self, name: &str, q: f64) -> Option<u64> {
        self.snap
            .hists
            .get(name)
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(q))
    }

    /// The window-correct maximum of histogram `name` over the view, in
    /// nanoseconds, or `None` when it saw no samples. Unlike a raw
    /// cumulative max this resets: a view over fast windows reports a
    /// small value even if the process once saw a slow item.
    pub fn max_ns(&self, name: &str) -> Option<u64> {
        self.snap
            .hists
            .get(name)
            .filter(|h| h.count > 0)
            .map(|h| h.max_ns)
    }
}

/// The windowing core: a baseline snapshot plus a fixed ring of
/// [`WindowSample`]s (see the module docs). Tick it manually, or let an
/// [`Engine`] thread tick it on an interval.
#[derive(Debug)]
pub struct Sampler {
    ring: VecDeque<WindowSample>,
    capacity: usize,
    last: Snapshot,
    seq: u64,
    last_tick: Instant,
}

impl Sampler {
    /// Creates a sampler retaining at most `capacity` windows
    /// (clamped to ≥ 1), with the current telemetry as its baseline —
    /// the first tick's window covers only activity after this call.
    pub fn new(capacity: usize) -> Sampler {
        Sampler {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            last: snapshot(),
            seq: 0,
            last_tick: Instant::now(),
        }
    }

    /// Closes the current window: captures a snapshot, differences it
    /// against the previous tick, applies the window-max correction to
    /// every histogram, and pushes the sample (dropping the oldest when
    /// the ring is full). Returns a reference to the new sample.
    pub fn tick(&mut self) -> &WindowSample {
        let now = Instant::now();
        let current = snapshot();
        let mut delta = current.delta_from(&self.last);
        for h in delta.hists.values_mut() {
            h.max_ns = h.bucket_max_ns().min(h.max_ns);
        }
        self.last = current;
        self.seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(WindowSample {
            seq: self.seq,
            dur_ms: now.duration_since(self.last_tick).as_millis() as u64,
            delta,
        });
        self.last_tick = now;
        self.ring.back().expect("just pushed")
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowSample> {
        self.ring.iter()
    }

    /// Number of retained windows (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no window has been taken (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// A merged view over the newest `n` retained windows (all of them
    /// when `n` is larger). See [`WindowView`] for the merge rules.
    pub fn view(&self, n: usize) -> WindowView {
        let take = n.min(self.ring.len());
        if take == 0 {
            return WindowView::empty();
        }
        let newest = self.ring.len() - take;
        let mut snap = Snapshot::empty();
        let mut span_ms = 0u64;
        for w in self.ring.iter().skip(newest) {
            snap = snap.merge(&w.delta);
            span_ms += w.dur_ms;
        }
        // Merge sums gauges across windows, which is wrong for a view:
        // residency is point-in-time. Overwrite with the newest
        // window's readings (exemplars, being a top-K union, merge
        // correctly and are left as-is).
        let newest_sample = self.ring.back().expect("take > 0");
        snap.gauges = newest_sample.delta.gauges.clone();
        WindowView {
            windows: take,
            span_ms,
            snap,
        }
    }
}

/// A background thread ticking a [`Sampler`] on a fixed interval, for
/// workloads that cannot yield between items, and running a hook after
/// each tick. [`Engine::stop`] joins the thread, takes one final tick
/// (so trailing activity is never lost), and hands the sampler back.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    sampler: Mutex<Sampler>,
}

impl Shared {
    /// The sampler lock, recovering from poisoning: a panic inside one
    /// `with_sampler` closure must not wedge telemetry for the rest of
    /// the process (a `Sampler` is just a ring of finished windows —
    /// structurally sound whenever the lock is free).
    fn sampler(&self) -> MutexGuard<'_, Sampler> {
        self.sampler.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Engine {
    /// Starts the sampling thread: one [`Sampler::tick`] every
    /// `interval`, retaining `capacity` windows. After each of its
    /// ticks the thread calls `on_tick` with the sampler it just ticked
    /// (still under the sampler lock, so no reader sees the new window
    /// before the hook has judged it): the hook runs exactly once per
    /// window the thread closes. The closing tick of [`Engine::stop`]
    /// does not run it.
    ///
    /// If the OS refuses to spawn the thread, the engine degrades to a
    /// passive sampler: no background ticks, but [`Engine::with_sampler`]
    /// and the closing tick of [`Engine::stop`] still work — telemetry
    /// loses granularity, the process keeps serving.
    pub fn start(
        interval: Duration,
        capacity: usize,
        mut on_tick: impl FnMut(&Sampler) + Send + 'static,
    ) -> Engine {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            sampler: Mutex::new(Sampler::new(capacity)),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fast-obs-engine".into())
            .spawn(move || {
                // Sleep in short slices so stop() never waits a full
                // interval to join.
                let slice = interval
                    .min(Duration::from_millis(20))
                    .max(Duration::from_millis(1));
                let mut slept = Duration::ZERO;
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    slept += slice;
                    if slept >= interval {
                        slept = Duration::ZERO;
                        let mut sampler = thread_shared.sampler();
                        sampler.tick();
                        on_tick(&sampler);
                    }
                }
            })
            .ok();
        Engine { shared, handle }
    }

    /// Runs `f` against the live sampler (under its lock — keep `f`
    /// short; the sampling thread blocks on the same lock).
    pub fn with_sampler<R>(&self, f: impl FnOnce(&Sampler) -> R) -> R {
        f(&self.shared.sampler())
    }

    /// Stops the sampling thread, takes a final closing tick, and
    /// returns the sampler with every retained window.
    pub fn stop(mut self) -> Sampler {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // The thread has joined, so ours is the only Arc clone left and
        // swapping the sampler out under the lock loses nothing.
        let mut sampler = std::mem::replace(&mut *self.shared.sampler(), Sampler::new(1));
        sampler.tick();
        sampler
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_isolate_activity_and_ring_is_bounded() {
        let mut s = Sampler::new(3);
        crate::counter("test.engine.items").add(5);
        s.tick();
        crate::counter("test.engine.items").add(2);
        s.tick();
        let windows: Vec<u64> = s
            .windows()
            .map(|w| w.delta.get("test.engine.items"))
            .collect();
        assert_eq!(windows, vec![5, 2]);
        // Two idle ticks, then one more active: ring keeps newest 3.
        s.tick();
        s.tick();
        crate::counter("test.engine.items").add(9);
        s.tick();
        assert_eq!(s.len(), 3);
        let seqs: Vec<u64> = s.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(
            s.windows().last().unwrap().delta.get("test.engine.items"),
            9
        );
    }

    #[test]
    fn window_max_resets_between_windows() {
        let mut s = Sampler::new(8);
        crate::observe!("test.engine.lat", 4_000_000); // slow window
        s.tick();
        crate::observe!("test.engine.lat", 1_000); // fast window
        s.tick();
        let maxes: Vec<u64> = s
            .windows()
            .map(|w| w.delta.hists["test.engine.lat"].max_ns)
            .collect();
        assert!(maxes[0] >= 4_000_000);
        // The fast window's max is bounded by its bucket, not polluted
        // by the earlier slow sample.
        assert!(maxes[1] < 4_096, "window max did not reset: {maxes:?}");
        // A view over just the fast window reports the small max; over
        // both, the large one.
        assert!(s.view(1).max_ns("test.engine.lat").unwrap() < 4_096);
        assert!(s.view(2).max_ns("test.engine.lat").unwrap() >= 4_000_000);
    }

    #[test]
    fn view_rates_and_hit_rates() {
        let mut s = Sampler::new(4);
        crate::counter("test.engine.hits").add(3);
        crate::counter("test.engine.misses").add(1);
        std::thread::sleep(Duration::from_millis(5));
        s.tick();
        let v = s.view(4);
        assert_eq!(v.windows, 1);
        assert!(v.span_ms >= 5);
        assert!(v.rate("test.engine.hits") > 0.0);
        let hr = v
            .hit_rate("test.engine.hits", "test.engine.misses")
            .unwrap();
        assert!((hr - 0.75).abs() < 1e-9);
        // Untouched pair: idle, not 0%.
        assert_eq!(v.hit_rate("test.engine.nope", "test.engine.nada"), None);
        assert_eq!(v.quantile_ns("test.engine.nohist", 0.99), None);
        // Empty view is total.
        assert_eq!(WindowView::empty().rate("x"), 0.0);
        assert_eq!(s.view(0).windows, 0);
    }

    #[test]
    fn view_gauges_are_point_in_time_not_summed() {
        let mut s = Sampler::new(4);
        crate::gauge("test.engine.resident").set(100);
        s.tick();
        crate::gauge("test.engine.resident").set(40);
        s.tick();
        // Summing across windows would report 140; the view must say 40.
        assert_eq!(s.view(4).snap.gauge("test.engine.resident"), 40);
    }

    #[test]
    fn engine_thread_ticks_and_stops() {
        let engine = Engine::start(Duration::from_millis(5), 64, |_| {});
        crate::counter("test.engine.bg").add(7);
        std::thread::sleep(Duration::from_millis(40));
        let sampler = engine.stop();
        assert!(!sampler.is_empty());
        // The closing tick guarantees the counter bump landed in some
        // window even if the thread never woke.
        let total: u64 = sampler
            .windows()
            .map(|w| w.delta.get("test.engine.bg"))
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn tick_hook_runs_once_per_background_tick() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let hook_seen = Arc::clone(&seen);
        let engine = Engine::start(Duration::from_millis(5), 2, move |s| {
            let newest = s.windows().last().expect("the hook follows a tick");
            hook_seen.lock().unwrap().push(newest.seq);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.lock().unwrap().len() < 4 {
            assert!(
                Instant::now() < deadline,
                "the engine thread never ran the hook"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let sampler = engine.stop();
        let seen = seen.lock().unwrap().clone();
        // Each call saw the window its own tick closed: seq 1, 2, 3, …
        // with none judged twice and none skipped, even though the ring
        // keeps only two windows.
        let expected: Vec<u64> = (1..=seen.len() as u64).collect();
        assert_eq!(seen, expected);
        // Every background tick ran the hook; only the closing tick of
        // `stop` did not.
        let last = sampler.windows().last().unwrap().seq;
        assert_eq!(last, seen.len() as u64 + 1);
    }
}
