//! # fast-obs — workspace observability
//!
//! Five layers, cheapest first:
//!
//! 1. **Counters** — process-wide named monotonic counters; hot paths
//!    pay one relaxed atomic add ([`count!`], [`counter`]).
//! 2. **Gauges** — process-wide point-in-time values for quantities
//!    that go down as well as up (residency, cache entries, bytes):
//!    one relaxed atomic add/sub per update ([`gauge`], [`Gauge`]).
//! 3. **Histograms** — log-bucketed latency histograms ([`histogram`],
//!    [`Hist`]): 64 power-of-two nanosecond buckets recorded lock-free,
//!    merged exactly, summarized as p50/p90/p99/max. [`time`] records
//!    into the histogram of the same name.
//! 4. **Exemplars** — the top-K slowest items per family
//!    ([`record_exemplar`], [`Exemplar`]): identity, state, latency,
//!    output size; one relaxed load per non-tail item.
//! 5. **Spans** — hierarchical wall-clock spans ([`span!`],
//!    [`SpanGuard`]) recorded into a lock-sharded buffer when the global
//!    subscriber is on ([`set_tracing`]) and costing one relaxed load
//!    when it is off. Exported as Chrome `trace_event` JSON, JSON lines,
//!    or an aggregated phase tree (see [`trace`]).
//!
//! Cold paths (CLI `--stats`, bench binaries, `fastc profile`) capture
//! everything as a [`Snapshot`] and print it as JSON. The long-running
//! path (`fast-serve`) runs the windowing sampler in [`engine`] —
//! periodic snapshot deltas into a fixed ring, with per-window rates,
//! percentiles and a correctly-reset window max — and evaluates
//! declarative SLOs against each window as it closes via [`slo`].
//!
//! ## Counter naming
//!
//! Counters use dotted `subsystem.event` names. The workspace emits:
//!
//! | counter | incremented when |
//! |---|---|
//! | `smt.sat_queries` | `LabelAlg::check` is called |
//! | `smt.cache_hits.shard00`..`shard15` | a solver-cache shard returns a memoized result |
//! | `smt.cache_misses` | a formula is actually sent to the solver |
//! | `smt.unknown_results` | the bounded solver answers *unknown* |
//! | `smt.intern_hits` | interning returns an existing `Interned<Formula>` |
//! | `smt.intern_misses` | interning allocates a new formula node |
//! | `smt.minterms_enumerated` | a satisfiable minterm is produced |
//! | `intern.hits` | tree interning returns an existing canonical node |
//! | `intern.misses` | tree interning allocates a new canonical node (== table size: the table never evicts) |
//! | `intern.label_hits` | a label lookup in the interner's label table finds the canonical label |
//! | `intern.label_misses` | the label table allocates a new canonical label (== label table size: it never evicts) |
//! | `intern.hash_collisions` | a new tree node's or label's 64-bit hash is already taken (it goes to the shard's overflow map) |
//! | `intern.contended` | a shard `try_lock` of either interner table fails and the interner falls back to blocking |
//! | `automata.product_states` | `intersect` emits a satisfiable product rule |
//! | `automata.det_states` | determinization creates a subset state |
//! | `compose.reduce_iterations` | one `Reduce` step runs during §4.1 composition |
//! | `compose.pair_states` | a composed pair state `p.q` is discovered |
//! | `compose.preimage_pairs` | a pre-image pair state `(p, d)` is discovered |
//! | `sv.proved_output_equivalent` | the single-valuedness product construction discharges all obligations on a nondeterministic transducer |
//! | `sv.refuted` | the single-valuedness witness search finds a run-verified multi-output input |
//! | `sv.unknown` | a single-valuedness decision exhausts its budget undecided |
//! | `analysis.rules_checked` | `fastc check` visits a rule |
//! | `analysis.solver_calls` | the analyzer issues a satisfiability/model query |
//! | `analysis.diags_emitted` | one `fast_analysis::analyze` run emits diagnostics |
//! | `rt.batch_runs` | a `Plan::run_batch` invocation starts |
//! | `rt.batch_items` | — bumped by the batch size, one per input tree |
//! | `rt.memo_hits` | an item root is found in the shared memo, or an item's `(state, node)` lookup finds a pair the item already needs |
//! | `rt.memo_misses` | an item root is not in the shared memo, or an item adds a `(state, node)` pair |
//! | `rt.memo_evictions` | a full shared memo evicts an entry |
//! | `rt.guard_evals` | an item evaluates a guard formula while lowering its input (once per guard and distinct `(constructor, label)` pair of the item) |
//! | `rt.pool_steals` | a pool worker steals a job from a sibling's deque |
//! | `rt.pool_fallbacks` | a worker thread fails to spawn and the batch degrades |
//! | `rt.timeouts` | a batch item exceeds its per-item deadline |
//! | `rt.pipeline.compiles` | a `Pipeline::compile` invocation starts |
//! | `rt.pipeline.fused_boundaries` | a stage boundary is fused via composition |
//! | `rt.pipeline.cascaded_boundaries` | a stage boundary falls back to cascading |
//! | `rt.pipeline.fuse_cache_hits` | a boundary verdict is served from the fusion cache |
//! | `rt.pipeline.runs` | a `Pipeline::run_batch` invocation starts |
//! | `rt.pipeline.items` | — bumped by the pipeline batch size, one per input tree |
//! | `rt.item_errors` | a batch item finishes with an error (budget, timeout) |
//! | `rt.worker_panics` | a pool job panics and is contained (its slot degrades to an error) |
//! | `serve.requests` | `fast-serve` admits a request for execution |
//! | `serve.shed` | `fast-serve` sheds a request because the work queue is full |
//! | `serve.errors` | a `fast-serve` request finishes with an error response |
//! | `serve.conn_rejected` | `fast-serve` rejects a connection over the connection cap |
//! | `serve.slo_violations` | a closed telemetry window of `fast-serve` violates its SLO spec |
//! | `artifact.bytes` | — bumped by the byte length of a `.fastc` artifact on a successful decode |
//! | `artifact.load_ns` | — bumped by the wall-clock nanoseconds a successful `Artifact::decode` took |
//! | `obs.trace_dropped` | the span buffer is full and an event is discarded |
//!
//! This table is load-bearing: it must list exactly the names in
//! [`DOCUMENTED_COUNTERS`], and `tests/doc_consistency.rs` greps the
//! workspace to ensure every emitted counter appears here — the table
//! cannot silently drift from the code.
//!
//! (`LabelAlg::check` and `Interned<Formula>` live in `fast-smt`; the
//! `rt.*` family is emitted by `fast-rt`, which also mirrors the same
//! numbers per batch in its `BatchStats`.)
//!
//! ## Gauge naming
//!
//! Gauges ([`gauge`], [`Gauge`]) share the dotted namespace and are
//! listed in [`DOCUMENTED_GAUGES`] / [`DOCUMENTED_GAUGE_PREFIXES`],
//! checked by the same consistency test:
//!
//! | gauge | meaning |
//! |---|---|
//! | `intern.resident_nodes.shard00`..`shard15` | canonical tree nodes resident per interner shard (the table never evicts) |
//! | `intern.resident_bytes` | estimated heap bytes held by the tree interner's node and label tables, all shards |
//! | `rt.memo.entries` | item-root entries resident across every live shared memo |
//! | `rt.memo.bytes` | estimated heap bytes held by those memos |
//! | `smt.cache.entries` | satisfiability results resident across every live solver cache |
//! | `serve.connections` | live client connections held by a `fast-serve` server |
//!
//! ## Duration naming
//!
//! Wall-clock durations (histograms and spans) share one dotted
//! namespace, listed in [`DOCUMENTED_DURATIONS`]: per-family analyzer
//! checks (`analysis.check.fa001` … `analysis.check.fa101`,
//! `analysis.total`), solver latency (`smt.check` per query, `smt.solve`
//! spans around actual solver misses), composition phases
//! (`compose.total`, `compose.reduce`, `compose.preimage`), the
//! single-valuedness decision (`sv.decide`), automata
//! algorithms (`automata.intersect`, `automata.determinize`), runtime
//! phases (`rt.run_batch` per batch, `rt.item` per input tree,
//! `plan.dispatch` per item evaluation), pipeline phases
//! (`rt.pipeline.compile` per chain compilation, `rt.pipeline.run` per
//! pipeline batch, `rt.pipeline.stage` per segment pass — also a span
//! and a histogram), the serving path (`serve.request` per admitted
//! request: executor time, queue wait excluded; and one histogram per
//! request phase, each recorded once per admitted request that reaches
//! it, never per node: `serve.phase.queue` the wait in the work queue,
//! `serve.phase.decode` the connection's in-place frame decode plus the
//! executor's unescaping of the input, `serve.phase.parse` the tree
//! parse and intern, `serve.phase.eval` the transducer run, and
//! `serve.phase.render` writing the response), and the `fastc profile` phases
//! (`profile.compile`, `profile.plan_compile`, `profile.run`).
//!
//! ## Reading a snapshot
//!
//! ```
//! fast_obs::counter("demo.widgets").add(3);
//! fast_obs::time("demo.build", || ());
//! let snap = fast_obs::snapshot();
//! assert_eq!(snap.get("demo.widgets"), 3);
//! assert_eq!(snap.hists.get("demo.build").unwrap().count, 1);
//! let json = snap.to_json().to_string();
//! assert!(json.contains("\"demo.widgets\":3"));
//! ```
//!
//! Counters are global and monotonic; tests that need isolation should
//! diff two snapshots ([`Snapshot::delta_from`]) rather than reset.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fast_json::Json;

pub mod engine;
mod exemplar;
mod gauge;
mod hist;
pub mod slo;
pub mod span;
pub mod trace;

pub use exemplar::{exemplar_recorder, record_exemplar, Exemplar, ExemplarRecorder, MAX_EXEMPLARS};
pub use gauge::Gauge;
pub use hist::{Hist, HistSnapshot, HIST_BUCKETS};
pub use span::{
    drain_events, events_len, set_tracing, tracing_enabled, SpanEvent, SpanGuard, MAX_EVENTS,
};

/// Schema version stamped into every emitted `BENCH_*.json` file (the
/// common `{"schema_version": …, "bench": …}` header), so trajectory
/// tooling can parse the whole family uniformly. Bump on any breaking
/// change to the shared header or the telemetry snapshot shape.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Every counter name the workspace emits, mirrored by the doc table in
/// the crate docs (kept in sync by `tests/doc_consistency.rs`). Shard
/// families are covered by [`DOCUMENTED_COUNTER_PREFIXES`].
pub const DOCUMENTED_COUNTERS: &[&str] = &[
    "smt.sat_queries",
    "smt.cache_misses",
    "smt.unknown_results",
    "smt.intern_hits",
    "smt.intern_misses",
    "smt.minterms_enumerated",
    "intern.hits",
    "intern.misses",
    "intern.label_hits",
    "intern.label_misses",
    "intern.hash_collisions",
    "intern.contended",
    "automata.product_states",
    "automata.det_states",
    "compose.reduce_iterations",
    "compose.pair_states",
    "compose.preimage_pairs",
    "sv.proved_output_equivalent",
    "sv.refuted",
    "sv.unknown",
    "analysis.rules_checked",
    "analysis.solver_calls",
    "analysis.diags_emitted",
    "rt.batch_runs",
    "rt.batch_items",
    "rt.memo_hits",
    "rt.memo_misses",
    "rt.memo_evictions",
    "rt.guard_evals",
    "rt.pool_steals",
    "rt.pool_fallbacks",
    "rt.timeouts",
    "rt.pipeline.compiles",
    "rt.pipeline.fused_boundaries",
    "rt.pipeline.cascaded_boundaries",
    "rt.pipeline.fuse_cache_hits",
    "rt.pipeline.runs",
    "rt.pipeline.items",
    "rt.item_errors",
    "rt.worker_panics",
    "serve.requests",
    "serve.shed",
    "serve.errors",
    "serve.conn_rejected",
    "serve.slo_violations",
    "artifact.bytes",
    "artifact.load_ns",
    "obs.trace_dropped",
];

/// Counter-name prefixes expanding to indexed families (the 16 solver
/// cache shards).
pub const DOCUMENTED_COUNTER_PREFIXES: &[&str] = &["smt.cache_hits.shard"];

/// Every gauge name the workspace emits, mirrored by the gauge table in
/// the crate docs (kept in sync by `tests/doc_consistency.rs`). Shard
/// families are covered by [`DOCUMENTED_GAUGE_PREFIXES`].
pub const DOCUMENTED_GAUGES: &[&str] = &[
    "intern.resident_bytes",
    "rt.memo.entries",
    "rt.memo.bytes",
    "smt.cache.entries",
    "serve.connections",
];

/// Gauge-name prefixes expanding to indexed families (the 16 interner
/// shards).
pub const DOCUMENTED_GAUGE_PREFIXES: &[&str] = &["intern.resident_nodes.shard"];

/// Every wall-clock duration name the workspace emits — through
/// [`time`], a histogram ([`histogram`]), or a span ([`span!`]).
pub const DOCUMENTED_DURATIONS: &[&str] = &[
    "analysis.check.fa001",
    "analysis.check.fa002",
    "analysis.check.fa003",
    "analysis.check.fa004",
    "analysis.check.fa005",
    "analysis.check.fa006",
    "analysis.check.fa007",
    "analysis.check.fa100",
    "analysis.check.fa101",
    "analysis.total",
    "sv.decide",
    "smt.check",
    "smt.solve",
    "compose.total",
    "compose.reduce",
    "compose.preimage",
    "automata.intersect",
    "automata.determinize",
    "rt.run_batch",
    "rt.item",
    "rt.pipeline.compile",
    "rt.pipeline.run",
    "rt.pipeline.stage",
    "serve.request",
    "serve.phase.queue",
    "serve.phase.decode",
    "serve.phase.parse",
    "serve.phase.eval",
    "serve.phase.render",
    "plan.dispatch",
    "profile.compile",
    "profile.plan_compile",
    "profile.run",
];

/// A single monotonic telemetry counter.
///
/// Obtained from [`counter`]; references are `'static` and cheap to
/// cache in a `OnceLock` at a call site.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by `n` (relaxed; never blocks).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    hists: Mutex<BTreeMap<&'static str, &'static Hist>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
    })
}

/// Looks up (or registers) the process-wide counter named `name`.
///
/// `name` must be a `'static` string literal; the first call for a name
/// leaks one `Counter` for the life of the process. Hot paths should
/// cache the returned reference:
///
/// ```
/// use std::sync::OnceLock;
/// static HITS: OnceLock<&'static fast_obs::Counter> = OnceLock::new();
/// HITS.get_or_init(|| fast_obs::counter("example.hits")).incr();
/// ```
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
        }))
    })
}

/// Looks up (or registers) the process-wide gauge named `name`.
///
/// Like [`counter`], `name` must be a `'static` string literal and the
/// returned reference is `'static` — hot paths cache it in a `OnceLock`
/// and pay one relaxed atomic add/sub per update.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry().gauges.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Looks up (or registers) the process-wide latency histogram named
/// `name`. Like [`counter`], the reference is `'static`; hot paths cache
/// it and pay only relaxed atomic adds per [`Hist::record_ns`].
pub fn histogram(name: &'static str) -> &'static Hist {
    let mut map = registry().hists.lock().unwrap();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Hist::new())))
}

/// Times `f` under the wall-clock duration `name`: records a sample in
/// the histogram of the same name (whose `count` and `sum_ns` are the
/// call count and total time) and, when the subscriber is on, emits a
/// span, so the call shows up in traces with its children correctly
/// parented.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span::SpanGuard::enter(name);
    let start = Instant::now();
    let out = f();
    histogram(name).record_ns(start.elapsed().as_nanos() as u64);
    out
}

/// A point-in-time copy of every registered counter, gauge, histogram,
/// and exemplar family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings at capture time, sorted by name.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms, sorted by name.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Slow-item exemplars per family, slowest first (at most
    /// [`MAX_EXEMPLARS`] each).
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

/// Captures the current value of every counter, gauge, histogram, and
/// exemplar family.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(name, g)| (name.to_string(), g.get()))
        .collect();
    let hists = reg
        .hists
        .lock()
        .unwrap()
        .iter()
        .map(|(k, h)| (k.to_string(), h.snapshot()))
        .collect();
    Snapshot {
        counters,
        gauges,
        hists,
        exemplars: exemplar::snapshot_all(),
    }
}

impl Snapshot {
    /// An empty snapshot (no metrics of any kind) — the identity for
    /// [`Snapshot::merge`] and [`Snapshot::delta_from`].
    pub fn empty() -> Snapshot {
        Snapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            exemplars: BTreeMap::new(),
        }
    }

    /// The value of counter `name` (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The reading of gauge `name` (0 if never registered).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sums every gauge whose name starts with `prefix` — e.g.
    /// `gauge_sum_prefix("intern.resident_nodes.")` totals all sixteen
    /// interner shard gauges.
    pub fn gauge_sum_prefix(&self, prefix: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sums every counter whose name starts with `prefix` — e.g.
    /// `sum_prefix("smt.cache_hits.")` totals all sixteen shard
    /// counters.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Difference `self - earlier` (saturating), keeping only entries
    /// that changed: counter-wise for counters and bucket-wise for
    /// histograms
    /// ([`HistSnapshot::delta_from`]; the delta's `max_ns` keeps the
    /// later snapshot's maximum, an upper bound for the interval).
    ///
    /// Gauges and exemplars are **not** differenced — a gauge delta is
    /// meaningless (residency is a point-in-time reading), so the delta
    /// keeps the later snapshot's gauges and exemplars verbatim.
    ///
    /// Because counters are global and monotonic, this is how a test or
    /// bench isolates its own activity. Differencing against
    /// [`Snapshot::empty`] returns the changed entries unchanged.
    pub fn delta_from(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.get(k));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|(k, h)| {
                let d = match earlier.hists.get(k) {
                    Some(h0) => h.delta_from(h0),
                    None => h.clone(),
                };
                (d.count > 0).then(|| (k.clone(), d))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            hists,
            exemplars: self.exemplars.clone(),
        }
    }

    /// Entry-wise sum of two snapshots: counters and gauges add (a
    /// fleet's residency is the sum of its processes'), histograms merge
    /// exactly
    /// ([`HistSnapshot::merge`]), and each exemplar family keeps the
    /// [`MAX_EXEMPLARS`] slowest of the union. [`Snapshot::empty`] is
    /// the identity. This is how per-process `BENCH_*.json` snapshots
    /// roll up into a fleet-wide view.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut counters = self.counters.clone();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        let mut gauges = self.gauges.clone();
        for (k, v) in &other.gauges {
            *gauges.entry(k.clone()).or_insert(0) += v;
        }
        let mut hists = self.hists.clone();
        for (k, h) in &other.hists {
            let merged = match hists.get(k) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            hists.insert(k.clone(), merged);
        }
        let mut exemplars = self.exemplars.clone();
        for (k, ex) in &other.exemplars {
            let merged = match exemplars.get(k) {
                Some(mine) => exemplar::merge_exemplars(mine, ex),
                None => ex.clone(),
            };
            exemplars.insert(k.clone(), merged);
        }
        Snapshot {
            counters,
            gauges,
            hists,
            exemplars,
        }
    }

    /// Renders the snapshot as a JSON object with deterministically
    /// sorted keys (every map is a `BTreeMap`):
    ///
    /// ```json
    /// {"counters":{"smt.sat_queries":12,...},
    ///  "exemplars":{"rt.item":[{"item":9,"latency_ns":48211,...}]},
    ///  "gauges":{"intern.resident_bytes":18340,...},
    ///  "hists":{"smt.check":{"count":12,"total_ns":3720,"p50_ns":310,...}}}
    /// ```
    ///
    /// Empty sections (`gauges`, `exemplars`) are omitted; `counters`
    /// and `hists` are always present.
    pub fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                .collect(),
        );
        let hists = Json::Object(
            self.hists
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        let mut fields = vec![("counters", counters)];
        if !self.exemplars.is_empty() {
            fields.push((
                "exemplars",
                Json::Object(
                    self.exemplars
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Array(v.iter().map(|e| e.to_json()).collect()),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges",
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ));
        }
        fields.push(("hists", hists));
        Json::obj(fields)
    }
}

/// Increments a named counter, caching the registry lookup at the call
/// site so repeated hits cost one relaxed atomic add.
///
/// ```
/// fast_obs::count!("demo.macro_hits");
/// fast_obs::count!("demo.macro_hits", 4);
/// assert_eq!(fast_obs::snapshot().get("demo.macro_hits"), 5);
/// ```
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1)
    };
    ($name:literal, $n:expr) => {{
        static __C: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        __C.get_or_init(|| $crate::counter($name)).add($n);
    }};
}

/// Records a nanosecond sample into a named histogram, caching the
/// registry lookup at the call site (the histogram analogue of
/// [`count!`]).
///
/// ```
/// fast_obs::observe!("demo.latency", 1500);
/// assert!(fast_obs::snapshot().hists.get("demo.latency").unwrap().count >= 1);
/// ```
#[macro_export]
macro_rules! observe {
    ($name:literal, $ns:expr) => {{
        static __H: ::std::sync::OnceLock<&'static $crate::Hist> = ::std::sync::OnceLock::new();
        __H.get_or_init(|| $crate::histogram($name)).record_ns($ns);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        counter("test.a").add(2);
        counter("test.a").incr();
        assert!(snapshot().get("test.a") >= 3);
    }

    #[test]
    fn delta_isolates_activity() {
        let before = snapshot();
        counter("test.delta").add(7);
        let d = snapshot().delta_from(&before);
        assert_eq!(d.get("test.delta"), 7);
        assert!(!d.counters.contains_key("test.never_touched"));
    }

    #[test]
    fn sum_prefix_totals_shards() {
        counter("test.shard.00").add(1);
        counter("test.shard.01").add(2);
        assert!(snapshot().sum_prefix("test.shard.") >= 3);
    }

    #[test]
    fn time_records_a_histogram_sample() {
        let before = snapshot();
        let v = time("test.timer", || 41 + 1);
        assert_eq!(v, 42);
        let d = snapshot().delta_from(&before);
        assert_eq!(d.hists.get("test.timer").unwrap().count, 1);
    }

    #[test]
    fn hist_delta_and_merge_through_snapshot() {
        let before = snapshot();
        observe!("test.hist_roundtrip", 100);
        observe!("test.hist_roundtrip", 200_000);
        let d = snapshot().delta_from(&before);
        let h = d.hists.get("test.hist_roundtrip").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 200_100);
        // Merging the delta with itself doubles counts exactly.
        let m = d.merge(&d);
        assert_eq!(m.hists.get("test.hist_roundtrip").unwrap().count, 4);
        assert_eq!(
            m.hists.get("test.hist_roundtrip").unwrap().sum_ns,
            2 * 200_100
        );
    }

    #[test]
    fn empty_snapshot_is_identity() {
        counter("test.empty_edge").incr();
        observe!("test.empty_edge_hist", 10);
        let s = snapshot();
        let empty = Snapshot::empty();
        // delta against empty keeps everything …
        let d = s.delta_from(&empty);
        assert_eq!(d.get("test.empty_edge"), s.get("test.empty_edge"));
        assert_eq!(
            d.hists.get("test.empty_edge_hist"),
            s.hists.get("test.empty_edge_hist")
        );
        // … merge with empty changes nothing …
        assert_eq!(s.merge(&empty), s);
        assert_eq!(empty.merge(&s), s);
        // … and delta of empty from anything is empty.
        let nothing = empty.delta_from(&s);
        assert!(nothing.counters.is_empty());
        assert!(nothing.hists.is_empty());
    }

    #[test]
    fn json_shape() {
        counter("test.json").incr();
        time("test.json_timer", || ());
        let j = snapshot().to_json();
        assert!(j.get("counters").is_some());
        assert!(j.get("hists").is_some());
        let text = j.to_string();
        let parsed = fast_json::Json::parse(&text).unwrap();
        assert!(parsed.get("counters").unwrap().get("test.json").is_some());
        let h = parsed.get("hists").unwrap().get("test.json_timer").unwrap();
        for key in ["count", "total_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            assert!(h.get(key).is_some(), "missing {key}");
        }
    }
}
