//! Compiled evaluation plans and the batch evaluator.

use crate::memo::{CacheStats, MixMap, Sharded};
use crate::pool::{self, PoolStats};
use crate::profile::{self, ProfileData, RuleProfile, RuleProfileEntry};
use fast_automata::StateId;
use fast_core::{Out, Sttr, TransducerError, DEFAULT_RUN_CAP};
use fast_smt::bin::FormulaPool;
use fast_smt::{BoolAlg, Formula, Interned, TransAlg};
use fast_trees::{Tree, TreeId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A rule reference inside a dispatch group: the index into the owning
/// state's rule list, the guard's index in the plan's formula pool, its
/// lookahead requirements, and a precomputed fast-path flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CRule {
    pub(crate) idx: u32,
    /// Index of the guard in [`Plan::guard_pool`].
    pub(crate) guard: u32,
    /// Guard is syntactically ⊤ — skip label evaluation entirely.
    pub(crate) trivial_guard: bool,
    /// The rule's non-empty per-child lookahead sets, as a range of
    /// [`Plan::la_reqs`] (empty for a rule without lookahead).
    pub(crate) reqs: (u32, u32),
}

/// A lookahead-STA rule reference, pre-indexed by constructor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaRule {
    pub(crate) state: u32,
    pub(crate) idx: u32,
    /// Index of the guard in [`Plan::guard_pool`].
    pub(crate) guard: u32,
    pub(crate) trivial_guard: bool,
    /// As [`CRule::reqs`].
    pub(crate) reqs: (u32, u32),
}

/// One non-empty lookahead requirement of a rule: child `child` must be
/// accepted by every state in the mask at word offset `mask` of
/// [`Plan::la_masks`].
#[derive(Debug, Clone, Copy)]
struct LaReq {
    child: u32,
    mask: u32,
}

/// A set of lookahead-STA states as bit words: state `s` is bit `s % 64`
/// of word `s / 64`, over `ceil(n / 64)` words (at least one) for an STA
/// with `n` states. Up to 64 states the set is one inline word; beyond
/// that the words live behind an `Arc`, so a cache hit never copies them.
#[derive(Debug, Clone)]
enum StateBits {
    One(u64),
    Many(Arc<[u64]>),
}

impl StateBits {
    fn from_words(words: &[u64]) -> StateBits {
        match words {
            [w] => StateBits::One(*w),
            _ => StateBits::Many(words.into()),
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            StateBits::One(w) => std::slice::from_ref(w),
            StateBits::Many(ws) => ws,
        }
    }

    /// Whether every state of `req` (a mask of the same width) is in the
    /// set: `req & !have == 0`, word by word.
    #[inline]
    fn covers(&self, req: &[u64]) -> bool {
        req.iter().zip(self.words()).all(|(r, h)| r & !h == 0)
    }

    /// Heap bytes behind the set (the `Arc` block of a wide set).
    fn heap_bytes(&self) -> usize {
        match self {
            StateBits::One(_) => 0,
            StateBits::Many(ws) => 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&**ws),
        }
    }
}

/// Options controlling one batch run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Output-set budget per item — same contract as
    /// [`Sttr::run_bounded`]: exceeding it **errors, never truncates**,
    /// and `cap == 0` allows only empty (outside-the-domain) results.
    pub cap: usize,
    /// Capacity (entries) of the fresh memo table a
    /// [`Plan::run_batch_with`] call builds; full shards evict. A
    /// caller-owned [`BatchMemo`] carries its own capacity.
    pub memo_capacity: usize,
    /// Worker threads, the calling thread included. `0` asks the OS via
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Per-item wall-clock deadline; an item that exceeds it fails with
    /// [`TransducerError::Timeout`] without poisoning its batch-mates.
    pub timeout: Option<Duration>,
    /// Collect a per-rule [`RuleProfile`] for the batch, returned in
    /// [`BatchStats::profile`]. Off by default: profiling adds two clock
    /// reads per dispatched rule.
    pub profile: bool,
    /// Cooperative cancellation token, checked at the same amortized
    /// cadence as the deadline: once it reads `true`, in-flight items
    /// fail with [`TransducerError::Cancelled`] and unstarted items are
    /// skipped. Servers set it on connection teardown or shutdown.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            cap: DEFAULT_RUN_CAP,
            memo_capacity: 1 << 20,
            workers: 0,
            timeout: None,
            profile: false,
            cancel: None,
        }
    }
}

/// Counters describing one batch run (also mirrored into the global
/// `fast_obs` registry under `rt.*`), plus the per-rule profile when
/// [`RunOptions::profile`] is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Items evaluated.
    pub items: usize,
    /// Worker threads used (1 = sequential).
    pub workers: usize,
    /// Memo-table hits — sub-transductions answered without evaluation.
    pub memo_hits: u64,
    /// Memo-table misses.
    pub memo_misses: u64,
    /// Entries evicted from full memo shards.
    pub memo_evictions: u64,
    /// Lookahead-cache hits (shared subtree lookahead sets reused).
    pub la_hits: u64,
    /// Jobs stolen across worker deques.
    pub steals: u64,
    /// Worker spawn failures absorbed by degrading to fewer threads.
    pub spawn_fallbacks: u64,
    /// Per-rule firings, guard evaluations, per-state memo hits and
    /// cumulative inclusive nanoseconds for every `(state, ctor,
    /// rule-index)` — the data behind the `fastc profile` hot-rules
    /// table. `Some` exactly when [`RunOptions::profile`] is set.
    pub profile: Option<RuleProfile>,
}

impl BatchStats {
    /// Memo hit rate in `[0, 1]` (0 when the memo was never consulted).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Shared memo table: `(state, TreeId) → finished output set`.
///
/// [`TreeId`]s come from the global hash-cons table in
/// `fast_trees::intern`: they are assigned once per structurally
/// distinct tree and never reused, so a stale entry can never be
/// aliased by a later tree. Structurally equal trees share an id, so
/// the memo also hits across *independently built* inputs, not just
/// `Arc`-shared clones.
type OutMemo = Sharded<(usize, TreeId), Arc<Vec<Tree>>>;

/// Lookahead cache: `TreeId → accepting lookahead states`.
type LaMemo = Sharded<TreeId, StateBits>;

/// A result memo reporting residency into the process-wide
/// `rt.memo.entries` / `rt.memo.bytes` gauges. Every live table (a
/// batch's fresh one or a caller-owned [`BatchMemo`]) reports into the
/// same pair, so the gauges read total memo residency across the
/// process; each table subtracts its contribution on eviction and drop.
fn out_memo(capacity: usize) -> OutMemo {
    Sharded::with_gauges(
        capacity,
        crate::memo::ResidencyGauges {
            entries: fast_obs::gauge("rt.memo.entries"),
            bytes: fast_obs::gauge("rt.memo.bytes"),
            // Estimate: the key (held twice: in the map and in the
            // shard's eviction order), the Arc's control+vec blocks, and
            // one interned handle per output tree (the trees themselves
            // are owned by the interner and counted there).
            weigh: |k, v| {
                (2 * std::mem::size_of_val(k)
                    + std::mem::size_of::<Arc<Vec<Tree>>>()
                    + v.len() * std::mem::size_of::<Tree>()) as u64
            },
        },
    )
}

/// The lookahead-cache analogue of [`out_memo`] (`rt.la.*` gauges).
fn la_memo(capacity: usize) -> LaMemo {
    Sharded::with_gauges(
        capacity,
        crate::memo::ResidencyGauges {
            entries: fast_obs::gauge("rt.la.entries"),
            bytes: fast_obs::gauge("rt.la.bytes"),
            weigh: |k, v| {
                (2 * std::mem::size_of_val(k) + std::mem::size_of::<StateBits>() + v.heap_bytes())
                    as u64
            },
        },
    )
}

/// A result memo plus lookahead cache that **outlives a single batch**:
/// pass it to [`Plan::run_batch_shared`] to reuse sub-transduction
/// results across successive `run_batch` calls (cascaded pipeline
/// stages, repeated queries over a mutating corpus).
///
/// Dropping input trees between runs is safe by construction: entries
/// are keyed on [`TreeId`]s, which are never reused, so a tree built
/// after a drop can only collide with a resident key by being the
/// *same* structural tree — in which case the cached result is exactly
/// right (see the `memo` module docs for the historical aliasing
/// hazard this design retires).
///
/// The memo keys on the plan's state ids: share one `BatchMemo` only
/// across runs of the **same** [`Plan`]. Cloning is cheap and yields a
/// handle to the same underlying tables.
#[derive(Clone)]
pub struct BatchMemo {
    out: Arc<OutMemo>,
    la: Arc<LaMemo>,
}

impl BatchMemo {
    /// A memo bounded at `capacity` entries total (minimum one entry per
    /// shard, exactly like [`RunOptions::memo_capacity`]).
    pub fn new(capacity: usize) -> BatchMemo {
        let cap = capacity.max(crate::memo::SHARDS);
        BatchMemo {
            out: Arc::new(out_memo(cap)),
            la: Arc::new(la_memo(cap)),
        }
    }
}

impl std::fmt::Debug for BatchMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchMemo").finish_non_exhaustive()
    }
}

/// Per-batch shared state: the caches and their counters.
struct BatchCtx<'p> {
    plan: &'p Plan,
    cap: usize,
    timeout: Option<Duration>,
    /// Cooperative cancellation token ([`RunOptions::cancel`]).
    cancel: Option<Arc<AtomicBool>>,
    /// The result memo and lookahead cache: the caller's, or a fresh
    /// one built by [`Plan::run_batch_with`].
    memo: &'p BatchMemo,
    memo_stats: CacheStats,
    la_stats: CacheStats,
    /// Per-rule attribution, present when [`RunOptions::profile`] is set.
    profile: Option<ProfileData>,
}

/// One item's evaluation state: deadline bookkeeping.
struct ItemRun<'b, 'p> {
    cx: &'b BatchCtx<'p>,
    deadline: Option<Instant>,
    timeout_ms: u64,
    ticks: u32,
}

/// A compiled evaluation plan for one [`Sttr`].
///
/// `Plan::compile` flattens the transducer's rules into dense arrays:
/// the rules dispatching `(state q, ctor c)` are the contiguous slice
/// `groups[group_offsets[q*n_ctors+c] .. group_offsets[q*n_ctors+c+1]]`
/// (guard-ordered: syntactically trivial guards first, so the common
/// unguarded rules skip label evaluation), guards are deduplicated into
/// a formula pool referenced by small indices, and the lookahead STA's
/// rules are flattened by constructor the same way. Every rule's
/// per-child lookahead sets are precomputed as bit masks over the
/// lookahead STA's states, so a lookahead check is a few word
/// operations. Dispatch is pure index arithmetic — the same shape the
/// plan has after round-tripping through a `.fastc` binary artifact (see
/// `fast_rt::Artifact`). The plan is immutable and `Sync`; one plan
/// serves any number of concurrent batches.
///
/// # Examples
///
/// ```
/// use fast_core::{Out, SttrBuilder};
/// use fast_rt::Plan;
/// use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
/// use fast_trees::{Tree, TreeType};
/// use std::sync::Arc;
///
/// let ilist = TreeType::new("IList", LabelSig::single("i", Sort::Int),
///                           vec![("nil", 0), ("cons", 1)]);
/// let alg = Arc::new(LabelAlg::new(ilist.sig().clone()));
/// let (nil, cons) = (ilist.ctor_id("nil").unwrap(), ilist.ctor_id("cons").unwrap());
/// let mut b = SttrBuilder::new(ilist.clone(), alg);
/// let q = b.state("inc");
/// b.plain_rule(q, nil, Formula::True,
///              Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]));
/// b.plain_rule(q, cons, Formula::True,
///              Out::node(cons, LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
///                        vec![Out::Call(q, 0)]));
/// let plan = Plan::compile(&b.build(q));
///
/// let t = Tree::parse(&ilist, "cons[1](nil[0])").unwrap();
/// let batch = vec![t.clone(), t.clone(), t]; // clones share subtrees
/// let results = plan.run_batch(&batch);
/// assert_eq!(results.len(), 3);
/// assert_eq!(results[0].as_ref().unwrap()[0].display(&ilist).to_string(),
///            "cons[2](nil[0])");
/// ```
#[derive(Debug)]
pub struct Plan {
    sttr: Sttr,
    /// Constructor count of the tree type (row width of `group_offsets`).
    n_ctors: usize,
    /// Prefix sums over `groups`: the rules dispatching `(state q,
    /// ctor c)` are `groups[group_offsets[q*n_ctors+c] ..
    /// group_offsets[q*n_ctors+c+1]]`. Dispatch is pure arithmetic —
    /// no hashing, no nested indirection.
    group_offsets: Vec<u32>,
    /// All dispatch groups, flattened; each group guard-ordered.
    groups: Vec<CRule>,
    /// Prefix sums over `la_groups`, indexed by constructor.
    la_group_offsets: Vec<u32>,
    /// Lookahead rules flattened by the constructor they read.
    la_groups: Vec<LaRule>,
    /// Distinct guard formulas, referenced by `CRule::guard` /
    /// `LaRule::guard` pool indices (deduplicated by interned identity).
    guard_pool: Vec<Interned<Formula>>,
    /// Width in words of a lookahead state set: `ceil(n / 64)` for an
    /// STA with `n` states, at least one.
    la_words: usize,
    /// Every rule's non-empty lookahead requirements, ranged by
    /// `CRule::reqs` / `LaRule::reqs`.
    la_reqs: Vec<LaReq>,
    /// The requirement masks, `la_words` words each.
    la_masks: Vec<u64>,
    /// Prefix sums of per-state rule counts: the flat profile index of
    /// `(state q, rule idx)` is `rule_offsets[q.0] + idx`.
    rule_offsets: Vec<usize>,
    total_rules: usize,
}

impl Plan {
    /// Compiles `sttr` into flat dispatch tables. The transducer is
    /// cloned (cheap: `Arc`-shared type/algebra, rule vectors copied
    /// once).
    pub fn compile(sttr: &Sttr) -> Plan {
        let sttr = sttr.clone();
        let tt = sttr.alg().tt();
        let n_ctors = sttr.ty().ctor_count();
        // Guard order: trivially-true guards first (stable on the
        // original index). The output set is a union over enabled rules,
        // so reordering is semantics-preserving.
        let mut buckets: Vec<Vec<(bool, u32)>> = vec![Vec::new(); sttr.state_count() * n_ctors];
        for q in sttr.states() {
            for (idx, r) in sttr.rules(q).iter().enumerate() {
                buckets[q.0 * n_ctors + r.ctor.0].push((r.guard != tt, idx as u32));
            }
        }
        let (group_offsets, group_idxs) = flatten(buckets, |(_, idx)| idx);
        let la = sttr.lookahead_sta();
        let mut la_buckets: Vec<Vec<(u32, bool, u32)>> = vec![Vec::new(); n_ctors];
        for s in la.states() {
            for (idx, r) in la.rules(s).iter().enumerate() {
                la_buckets[r.ctor.0].push((s.0 as u32, r.guard != tt, idx as u32));
            }
        }
        let (la_group_offsets, la_pairs) = flatten(la_buckets, |(s, _, idx)| (s, idx));
        Plan::from_flat(
            sttr,
            group_offsets,
            &group_idxs,
            la_group_offsets,
            &la_pairs,
        )
    }

    /// Builds a plan from flat dispatch tables: the one constructor
    /// behind [`Plan::compile`] and the artifact loader, so a loaded
    /// plan derives its guards, flags and lookahead masks exactly as a
    /// compiled one does. The tables must already be valid (offsets
    /// monotone and in range, rule indices valid for their state, each
    /// rule present exactly once per state — `artifact.rs` checks this
    /// for decoded tables); everything else is recomputed from the
    /// transducer itself, so a hostile artifact cannot smuggle in
    /// mismatched semantics.
    pub(crate) fn from_flat(
        sttr: Sttr,
        group_offsets: Vec<u32>,
        group_idxs: &[u32],
        la_group_offsets: Vec<u32>,
        la_pairs: &[(u32, u32)],
    ) -> Plan {
        let tt = sttr.alg().tt();
        let n_ctors = sttr.ty().ctor_count();
        let la = sttr.lookahead_sta();
        let la_words = la.state_count().div_ceil(64).max(1);
        let mut pool = FormulaPool::new();
        let mut la_reqs = Vec::new();
        let mut la_masks = Vec::new();
        // Appends the masks of a rule's non-empty lookahead sets.
        let mut push_reqs = |lookahead: &[BTreeSet<StateId>]| {
            let start = la_reqs.len() as u32;
            for (child, set) in lookahead.iter().enumerate() {
                if set.is_empty() {
                    continue;
                }
                let mask = la_masks.len();
                la_masks.resize(mask + la_words, 0);
                for s in set {
                    la_masks[mask + s.0 / 64] |= 1 << (s.0 % 64);
                }
                la_reqs.push(LaReq {
                    child: child as u32,
                    mask: mask as u32,
                });
            }
            (start, la_reqs.len() as u32)
        };
        let mut groups = Vec::with_capacity(group_idxs.len());
        for base in 0..group_offsets.len() - 1 {
            let q = StateId(base / n_ctors);
            for k in group_offsets[base]..group_offsets[base + 1] {
                let idx = group_idxs[k as usize];
                let r = &sttr.rules(q)[idx as usize];
                groups.push(CRule {
                    idx,
                    guard: pool.index_of(&r.guard),
                    trivial_guard: r.guard == tt,
                    reqs: push_reqs(&r.lookahead),
                });
            }
        }
        let mut la_groups = Vec::with_capacity(la_pairs.len());
        for &(state, idx) in la_pairs {
            let r = &la.rules(StateId(state as usize))[idx as usize];
            la_groups.push(LaRule {
                state,
                idx,
                guard: pool.index_of(&r.guard),
                trivial_guard: r.guard == tt,
                reqs: push_reqs(&r.lookahead),
            });
        }
        let mut rule_offsets = Vec::with_capacity(sttr.state_count());
        let mut total_rules = 0;
        for q in sttr.states() {
            rule_offsets.push(total_rules);
            total_rules += sttr.rules(q).len();
        }
        Plan {
            sttr,
            n_ctors,
            group_offsets,
            groups,
            la_group_offsets,
            la_groups,
            guard_pool: pool.items().to_vec(),
            la_words,
            la_reqs,
            la_masks,
            rule_offsets,
            total_rules,
        }
    }

    /// The dispatch group for `(state, ctor)` — a contiguous,
    /// guard-ordered slice of the flat rule table.
    #[inline]
    fn group(&self, state: usize, ctor: usize) -> &[CRule] {
        let base = state * self.n_ctors + ctor;
        &self.groups[self.group_offsets[base] as usize..self.group_offsets[base + 1] as usize]
    }

    /// The lookahead rules reading `ctor`.
    #[inline]
    fn la_group(&self, ctor: usize) -> &[LaRule] {
        &self.la_groups
            [self.la_group_offsets[ctor] as usize..self.la_group_offsets[ctor + 1] as usize]
    }

    #[inline]
    fn guard(&self, id: u32) -> &Interned<Formula> {
        &self.guard_pool[id as usize]
    }

    /// A rule's lookahead requirements ([`CRule::reqs`]).
    #[inline]
    fn reqs(&self, (start, end): (u32, u32)) -> &[LaReq] {
        &self.la_reqs[start as usize..end as usize]
    }

    /// The state mask of one requirement.
    #[inline]
    fn mask(&self, req: &LaReq) -> &[u64] {
        &self.la_masks[req.mask as usize..][..self.la_words]
    }

    /// Flat-table views for the artifact encoder.
    pub(crate) fn flat_tables(&self) -> (&[u32], &[CRule], &[u32], &[LaRule]) {
        (
            &self.group_offsets,
            &self.groups,
            &self.la_group_offsets,
            &self.la_groups,
        )
    }

    /// The compiled transducer.
    pub fn sttr(&self) -> &Sttr {
        &self.sttr
    }

    /// Runs a single tree through the plan with default options
    /// (equivalent to [`Sttr::run`], using the compiled dispatch tables).
    ///
    /// # Errors
    ///
    /// Returns [`TransducerError::Budget`] past [`DEFAULT_RUN_CAP`]
    /// outputs.
    pub fn run(&self, t: &Tree) -> Result<Vec<Tree>, TransducerError> {
        self.run_batch(std::slice::from_ref(t)).pop().unwrap()
    }

    /// Evaluates every tree in `items`, in parallel, sharing one memo
    /// table across the batch. Results are in input order; each item
    /// fails independently (a budget error on one tree does not affect
    /// the others).
    pub fn run_batch(&self, items: &[Tree]) -> Vec<Result<Vec<Tree>, TransducerError>> {
        self.run_batch_with(items, &RunOptions::default()).0
    }

    /// [`Plan::run_batch`] with explicit options, also returning the
    /// batch's cache/pool statistics: [`Plan::run_batch_shared`] against
    /// a fresh memo of [`RunOptions::memo_capacity`] entries.
    pub fn run_batch_with(
        &self,
        items: &[Tree],
        opts: &RunOptions,
    ) -> (Vec<Result<Vec<Tree>, TransducerError>>, BatchStats) {
        self.run_batch_shared(items, opts, &BatchMemo::new(opts.memo_capacity))
    }

    /// [`Plan::run_batch_with`] against a caller-owned [`BatchMemo`], so
    /// sub-transduction results and lookahead sets persist across
    /// batches. It is safe to drop the input trees of one call before
    /// the next: [`TreeId`] keys are never reused, so later trees can
    /// only match a resident entry by being structurally identical — in
    /// which case the hit is sound (and free: even a re-parsed copy of
    /// an earlier input hits at its root).
    pub fn run_batch_shared(
        &self,
        items: &[Tree],
        opts: &RunOptions,
        memo: &BatchMemo,
    ) -> (Vec<Result<Vec<Tree>, TransducerError>>, BatchStats) {
        fast_obs::count!("rt.batch_runs");
        fast_obs::count!("rt.batch_items", items.len() as u64);
        fast_obs::time("rt.run_batch", || {
            let cx = BatchCtx {
                plan: self,
                cap: opts.cap,
                timeout: opts.timeout,
                cancel: opts.cancel.clone(),
                memo,
                memo_stats: CacheStats::default(),
                la_stats: CacheStats::default(),
                profile: opts
                    .profile
                    .then(|| ProfileData::new(self.total_rules, self.sttr.state_count())),
            };
            let workers = pool::resolve_workers(opts.workers);
            let pool_stats = PoolStats::default();
            let results = pool::run_indexed(
                workers,
                items.len(),
                &pool_stats,
                |i| run_item(&cx, &items[i]),
                recover_item,
            );
            (
                results,
                finish_stats(&cx, &pool_stats, items.len(), workers),
            )
        })
    }

    /// Folds a batch's raw profile counters into a [`RuleProfile`] with
    /// resolved state and constructor names.
    fn collect_profile(&self, data: &ProfileData) -> RuleProfile {
        let ty = self.sttr.ty();
        let mut entries = Vec::with_capacity(self.total_rules);
        for q in self.sttr.states() {
            let memo_hits = data.state_memo_hits[q.0].load(Ordering::Relaxed);
            for (idx, r) in self.sttr.rules(q).iter().enumerate() {
                let (fired, guard_evals, ns) = profile::load(data, self.rule_offsets[q.0] + idx);
                entries.push(RuleProfileEntry {
                    state: q.0,
                    state_name: self.sttr.state_name(q).to_string(),
                    ctor: r.ctor.0,
                    ctor_name: ty.ctor_name(r.ctor).to_string(),
                    rule_idx: idx,
                    fired,
                    guard_evals,
                    state_memo_hits: memo_hits,
                    ns,
                });
            }
        }
        RuleProfile { entries }
    }
}

/// Sorts each bucket and concatenates them through `f`, returning the
/// prefix-sum offsets and the flat entries.
fn flatten<T: Ord, U>(buckets: Vec<Vec<T>>, f: impl Fn(T) -> U) -> (Vec<u32>, Vec<U>) {
    let mut offsets = Vec::with_capacity(buckets.len() + 1);
    let mut flat = Vec::new();
    offsets.push(0);
    for mut bucket in buckets {
        bucket.sort_unstable();
        flat.extend(bucket.into_iter().map(&f));
        offsets.push(flat.len() as u32);
    }
    (offsets, flat)
}

/// Evaluates one item under the batch context, recording its latency in
/// the `rt.item` histogram (and, when tracing is on, an `rt.item` span
/// wrapping a `plan.dispatch` span around the root dispatch). Errored
/// items bump `rt.item_errors`. Every item is also offered to the
/// always-on `rt.item` slow-item exemplar store — the top-K slowest
/// items process-wide, by `TreeId` — at the cost of one relaxed load
/// for non-tail items.
fn run_item(cx: &BatchCtx<'_>, t: &Tree) -> Result<Vec<Tree>, TransducerError> {
    static ITEM_HIST: OnceLock<&'static fast_obs::Hist> = OnceLock::new();
    static EXEMPLARS: OnceLock<fast_obs::ExemplarRecorder> = OnceLock::new();
    let hist = *ITEM_HIST.get_or_init(|| fast_obs::histogram("rt.item"));
    let _span = fast_obs::span!("rt.item");
    let start = Instant::now();
    let timeout_ms = cx
        .timeout
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    let mut item = ItemRun {
        cx,
        deadline: cx.timeout.map(|d| Instant::now() + d),
        timeout_ms,
        ticks: 0,
    };
    let out = {
        let _dispatch = fast_obs::span!("plan.dispatch");
        item.transduce(cx.plan.sttr.initial(), t)
    };
    let ns = start.elapsed().as_nanos() as u64;
    hist.record_ns(ns);
    if out.is_err() {
        fast_obs::count!("rt.item_errors");
    }
    EXEMPLARS
        .get_or_init(|| fast_obs::exemplar_recorder("rt.item"))
        .record(fast_obs::Exemplar {
            item: t.id().as_u64(),
            state: cx.plan.sttr.initial().0 as u64,
            latency_ns: ns,
            output_size: out.as_ref().map(|o| o.len() as u64).unwrap_or(0),
        });
    Ok(out?.as_ref().clone())
}

/// Fills the slot of an item whose evaluation panicked (the pool caught
/// it and counted `rt.worker_panics`): the item degrades to a typed
/// error — counted like any other errored item — instead of taking the
/// process down.
fn recover_item(_i: usize) -> Result<Vec<Tree>, TransducerError> {
    fast_obs::count!("rt.item_errors");
    Err(TransducerError::Internal {
        context: "worker pool",
    })
}

/// Publishes the batch's local counters into `fast_obs` and folds them
/// (and the profile, when collected) into a [`BatchStats`].
fn finish_stats(
    cx: &BatchCtx<'_>,
    pool_stats: &PoolStats,
    items: usize,
    workers: usize,
) -> BatchStats {
    let stats = BatchStats {
        items,
        workers,
        memo_hits: cx.memo_stats.hits.load(Ordering::Relaxed),
        memo_misses: cx.memo_stats.misses.load(Ordering::Relaxed),
        memo_evictions: cx.memo_stats.evictions.load(Ordering::Relaxed),
        la_hits: cx.la_stats.hits.load(Ordering::Relaxed),
        steals: pool_stats.steals.load(Ordering::Relaxed),
        spawn_fallbacks: pool_stats.fallbacks.load(Ordering::Relaxed),
        profile: cx.profile.as_ref().map(|p| cx.plan.collect_profile(p)),
    };
    fast_obs::count!("rt.memo_hits", stats.memo_hits);
    fast_obs::count!("rt.memo_misses", stats.memo_misses);
    fast_obs::count!("rt.memo_evictions", stats.memo_evictions);
    fast_obs::count!("rt.la_cache_hits", stats.la_hits);
    stats
}

impl<'b, 'p> ItemRun<'b, 'p> {
    /// Cooperative deadline and cancellation check, amortized over 256
    /// evaluation steps.
    fn tick(&mut self) -> Result<(), TransducerError> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(256) {
            if let Some(c) = &self.cx.cancel {
                if c.load(Ordering::Relaxed) {
                    return Err(TransducerError::Cancelled);
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    fast_obs::count!("rt.timeouts");
                    return Err(TransducerError::Timeout {
                        limit_ms: self.timeout_ms,
                    });
                }
            }
        }
        Ok(())
    }

    /// The set of lookahead-STA states accepting `t`, from the shared
    /// cache, computing (and caching) missing subtrees iteratively. Only
    /// rules with a lookahead requirement call it, so the STA has states.
    fn la_states(&mut self, t: &Tree) -> Result<StateBits, TransducerError> {
        if let Some(s) = self.cx.memo.la.get(&t.id(), &self.cx.la_stats) {
            return Ok(s);
        }
        // Explicit post-order stack (deep documents must not overflow),
        // skipping every subtree already in the shared cache.
        let plan = self.cx.plan;
        let alg = plan.sttr.alg();
        let mut stack: Vec<(&Tree, bool)> = vec![(t, false)];
        let mut computed: MixMap<TreeId, StateBits> = MixMap::default();
        let mut accept = vec![0u64; plan.la_words];
        while let Some((node, expanded)) = stack.pop() {
            self.tick()?;
            if computed.contains_key(&node.id()) {
                continue;
            }
            if !expanded {
                // Only probe the shared cache on first visit.
                if let Some(s) = self.cx.memo.la.get(&node.id(), &self.cx.la_stats) {
                    computed.insert(node.id(), s);
                    continue;
                }
                stack.push((node, true));
                for c in node.children() {
                    stack.push((c, false));
                }
                continue;
            }
            accept.fill(0);
            for lr in plan.la_group(node.ctor().0) {
                let (word, bit) = (lr.state as usize / 64, 1u64 << (lr.state % 64));
                if accept[word] & bit != 0 {
                    continue;
                }
                if !lr.trivial_guard && !alg.eval(plan.guard(lr.guard), node.label()) {
                    continue;
                }
                let ok = plan.reqs(lr.reqs).iter().all(|req| {
                    computed[&node.child(req.child as usize).id()].covers(plan.mask(req))
                });
                if ok {
                    accept[word] |= bit;
                }
            }
            let bits = StateBits::from_words(&accept);
            self.cx
                .memo
                .la
                .insert(node.id(), bits.clone(), &self.cx.la_stats);
            computed.insert(node.id(), bits);
        }
        Ok(computed.remove(&t.id()).expect("root computed"))
    }

    /// `T_q(t)` under the plan's dispatch tables (Definition 7), memoized
    /// on `(q, TreeId)` — structural identity, courtesy of the global
    /// tree interner. With [`RunOptions::profile`] set, the loop
    /// charges guard evaluations, firings, and inclusive time to each
    /// dispatched rule and memo hits to the state.
    fn transduce(&mut self, q: StateId, t: &Tree) -> Result<Arc<Vec<Tree>>, TransducerError> {
        self.tick()?;
        let profile = self.cx.profile.as_ref();
        let key = (q.0, t.id());
        if let Some(hit) = self.cx.memo.out.get(&key, &self.cx.memo_stats) {
            if let Some(p) = self.cx.profile.as_ref() {
                p.state_memo_hits[q.0].fetch_add(1, Ordering::Relaxed);
            }
            return Ok(hit);
        }
        let plan = self.cx.plan;
        let alg = plan.sttr.alg();
        let rules = plan.sttr.rules(q);
        let mut out: Vec<Tree> = Vec::new();
        for cr in plan.group(q.0, t.ctor().0) {
            let r = &rules[cr.idx as usize];
            let prof_idx = plan.rule_offsets[q.0] + cr.idx as usize;
            let rule_start = profile.map(|_| Instant::now());
            let charge = move || {
                if let (Some(p), Some(s)) = (profile, rule_start) {
                    p.ns[prof_idx].fetch_add(s.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            };
            if !cr.trivial_guard {
                if let Some(p) = profile {
                    p.guard_evals[prof_idx].fetch_add(1, Ordering::Relaxed);
                }
                if !alg.eval(plan.guard(cr.guard), t.label()) {
                    charge();
                    continue;
                }
            }
            let mut ok = true;
            for req in plan.reqs(cr.reqs) {
                if !self
                    .la_states(t.child(req.child as usize))?
                    .covers(plan.mask(req))
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                charge();
                continue;
            }
            self.eval_out(&r.output, t, &mut out)?;
            if let Some(p) = profile {
                p.fired[prof_idx].fetch_add(1, Ordering::Relaxed);
            }
            charge();
            if out.len() > self.cx.cap {
                return Err(TransducerError::Budget {
                    context: "run",
                    limit: self.cx.cap,
                });
            }
        }
        if out.len() > 1 {
            let set: BTreeSet<Tree> = out.into_iter().collect();
            out = set.into_iter().collect();
        }
        let rc = Arc::new(out);
        self.cx
            .memo
            .out
            .insert(key, rc.clone(), &self.cx.memo_stats);
        Ok(rc)
    }

    /// Appends the output trees of `out` on input `t` to `dst`.
    fn eval_out(
        &mut self,
        out: &Out<fast_smt::LabelAlg>,
        t: &Tree,
        dst: &mut Vec<Tree>,
    ) -> Result<(), TransducerError> {
        let plan = self.cx.plan;
        let alg = plan.sttr.alg();
        match out {
            Out::Call(q, i) => {
                dst.extend(self.transduce(*q, t.child(*i))?.iter().cloned());
                Ok(())
            }
            Out::Node {
                ctor,
                fun,
                children,
            } => {
                let Some(label) = alg.apply_fun(fun, t.label()) else {
                    return Ok(());
                };
                // Single-valued children (the common case) fill one child
                // vector in place. The first child with zero or several
                // outputs switches to the product below.
                let mut kids: Vec<Tree> = Vec::with_capacity(children.len());
                for (k, c) in children.iter().enumerate() {
                    self.eval_out(c, t, &mut kids)?;
                    if kids.len() != k + 1 {
                        let rest = kids.split_off(k);
                        let mut per_child: Vec<Vec<Tree>> =
                            kids.into_iter().map(|o| vec![o]).collect();
                        per_child.push(rest);
                        for c in &children[k + 1..] {
                            let mut alts = Vec::new();
                            self.eval_out(c, t, &mut alts)?;
                            per_child.push(alts);
                        }
                        return self.product(*ctor, label, &per_child, dst);
                    }
                }
                dst.push(Tree::new(*ctor, label, kids));
                Ok(())
            }
        }
    }

    /// Appends one `ctor[label]` node per combination of the per-child
    /// alternatives, bounded by the batch cap exactly like
    /// `Sttr::run_bounded`.
    fn product(
        &self,
        ctor: fast_trees::CtorId,
        label: fast_smt::Label,
        per_child: &[Vec<Tree>],
        dst: &mut Vec<Tree>,
    ) -> Result<(), TransducerError> {
        let mut acc: Vec<Vec<Tree>> = vec![Vec::with_capacity(per_child.len())];
        for opts in per_child {
            let mut next = Vec::with_capacity(acc.len() * opts.len().max(1));
            for partial in &acc {
                for o in opts {
                    let mut p = partial.clone();
                    p.push(o.clone());
                    next.push(p);
                    if next.len() > self.cx.cap {
                        return Err(TransducerError::Budget {
                            context: "run",
                            limit: self.cx.cap,
                        });
                    }
                }
            }
            acc = next;
        }
        dst.extend(
            acc.into_iter()
                .map(|kids| Tree::new(ctor, label.clone(), kids)),
        );
        Ok(())
    }
}
