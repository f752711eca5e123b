//! Compiled evaluation plans and the batch evaluator.

use crate::memo::{CacheStats, MixMap, RootMemo};
use crate::pool;
use crate::profile::{self, ProfileData, RuleProfile, RuleProfileEntry};
use annotate::Annotations;
use fast_automata::StateId;
use fast_core::{Out, Sttr, TRule, TransducerError, DEFAULT_RUN_CAP};
use fast_smt::{BoolAlg, Formula, Interned, LabelAlg, TransAlg};
use fast_trees::{LabelArg, Tree, TreeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod annotate;

/// A rule reference inside a dispatch group: the index into the owning
/// state's rule list, whether it is a copy rule ([`is_copy_rule`]), and
/// what enables the rule.
#[derive(Debug, Clone, Copy)]
struct CRule {
    idx: u32,
    copy: bool,
    sel: Select,
}

/// A lookahead-STA rule, pre-indexed by constructor: the state it
/// belongs to, its index in that state's rules, and its guard.
#[derive(Debug, Clone, Copy)]
struct LaRule {
    state: u32,
    idx: u32,
    sel: Select,
}

/// A rule's guard, as lowering decides it.
#[derive(Debug, Clone, Copy)]
struct Select {
    /// Position of the guard in the list of the guards reading the
    /// rule's constructor ([`Plan::guards`]), so bit `guard` of the
    /// guard bits of a `(constructor, label)` pair.
    guard: u32,
    /// Guard is syntactically ⊤ — skip label evaluation entirely.
    trivial_guard: bool,
}

/// Options controlling one batch run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Output-set budget per item — same contract as
    /// [`Sttr::run_bounded`]: exceeding it **errors, never truncates**,
    /// and `cap == 0` allows only empty (outside-the-domain) results.
    pub cap: usize,
    /// Capacity (entries) of the fresh memo table a
    /// [`Plan::run_batch_with`] call builds: one entry per distinct item
    /// root; a full table evicts its oldest entry. A caller-owned
    /// [`BatchMemo`] carries its own capacity.
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
    /// Memo hits: item roots answered by the shared memo, plus
    /// `(state, node)` lookups inside an item answered by a pair the
    /// item already needed.
    pub memo_hits: u64,
    /// Memo misses: item roots the shared memo did not hold, plus
    /// `(state, node)` pairs each item added.
    pub memo_misses: u64,
    /// Entries evicted from the full shared memo.
    pub memo_evictions: u64,
    /// Worker spawn failures absorbed by degrading to fewer threads.
    pub spawn_fallbacks: u64,
    /// Distinct node annotations the items built, summed over items:
    /// each item builds its own, one per class of nodes that agree on
    /// their lookahead states, enabled rules and copying states.
    pub annotations: u64,
    /// Per-rule firings, guard evaluations, per-state memo hits and
    /// cumulative self nanoseconds for every `(state, ctor,
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

/// A result memo that **outlives a single batch**: pass it to
/// [`Plan::run_batch_shared`] to reuse whole-item results across
/// successive `run_batch` calls (cascaded pipeline stages, a server
/// answering the same document again). It maps `(initial state, root
/// TreeId)` to an item's finished output set; the `(state, node)`
/// results inside an item live in the item's own table and are dropped
/// with it.
///
/// [`TreeId`]s come from the global hash-cons table in
/// `fast_trees::intern`: they are assigned once per structurally
/// distinct tree and never reused, so dropping input trees between runs
/// is safe — a tree built after a drop can only collide with a resident
/// key by being the *same* structural tree, in which case the cached
/// result is exactly right. Structurally equal trees share an id, so
/// the memo also hits across *independently built* inputs, not just
/// `Arc`-shared clones.
///
/// The memo keys on the plan's state ids: share one `BatchMemo` only
/// across runs of the **same** [`Plan`]. Cloning is cheap and yields a
/// handle to the same underlying table.
#[derive(Clone)]
pub struct BatchMemo {
    out: Arc<RootMemo>,
}

impl BatchMemo {
    /// A memo bounded at `capacity` root entries (at least one),
    /// exactly like [`RunOptions::memo_capacity`]. Every live memo
    /// reports into the process-wide `rt.memo.entries` / `rt.memo.bytes`
    /// gauges and subtracts its share on eviction and drop.
    pub fn new(capacity: usize) -> BatchMemo {
        BatchMemo {
            out: Arc::new(RootMemo::new(
                capacity,
                fast_obs::gauge("rt.memo.entries"),
                fast_obs::gauge("rt.memo.bytes"),
            )),
        }
    }
}

impl std::fmt::Debug for BatchMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchMemo").finish_non_exhaustive()
    }
}

/// Per-batch shared state: the root memo and its counters.
struct BatchCtx<'p> {
    plan: &'p Plan,
    cap: usize,
    timeout: Option<Duration>,
    /// Cooperative cancellation token ([`RunOptions::cancel`]).
    cancel: Option<Arc<AtomicBool>>,
    /// The root memo: the caller's, or a fresh one built by
    /// [`Plan::run_batch_with`].
    memo: &'p BatchMemo,
    memo_stats: CacheStats,
    /// Guard formulas the batch's items evaluated while lowering.
    guard_evals: AtomicU64,
    /// Distinct annotations the batch's items built.
    annotations: AtomicU64,
    /// Per-rule attribution, present when [`RunOptions::profile`] is set.
    profile: Option<ProfileData>,
}

/// End of a slot's pair list.
const NONE: u32 = u32::MAX;

/// One distinct node of an item's input; slots are in post-order.
struct Slot<'t> {
    tree: &'t Tree,
    /// Offset of the node's child slots in [`ItemRun::kids`].
    kids: u32,
    /// The slot's most recent pair, or [`NONE`].
    pairs: u32,
    /// The node's annotation in [`ItemRun::anns`].
    ann: u32,
}

/// A `(state, slot)` pair the item needs.
struct Pair {
    state: u32,
    /// The slot's previous pair, or [`NONE`].
    next: u32,
    /// The pair's range of [`ItemRun::tape`].
    tape: (u32, u32),
    /// `T_state(slot)` as a range of [`ItemRun::outs`], once built.
    out: (u32, u32),
}

/// One item's evaluation: [`ItemRun::lower`] the input to annotated
/// slots, then [`ItemRun::dispatch`] top-down and [`ItemRun::build`]
/// bottom-up over them, on tables the item owns (no lock, no hashing
/// and no guard evaluation after lowering, all dropped with the item).
struct ItemRun<'b, 'p, 't> {
    cx: &'b BatchCtx<'p>,
    deadline: Option<Instant>,
    ticks: u32,
    slots: Vec<Slot<'t>>,
    /// Child slot indices, one run per slot.
    kids: Vec<u32>,
    /// The item's annotation table: per slot, its lookahead states,
    /// each state's enabled rules and the states copying it.
    anns: Annotations,
    pairs: Vec<Pair>,
    /// Per pair and enabled rule: the rule's index in its state, then in
    /// template pre-order a [`ItemRun::labels`] index per node and a
    /// pair per call ([`ItemRun::mark`]).
    tape: Vec<u32>,
    /// Template-node labels, `None` where the label function is
    /// undefined; the input node's canonical label where it is the
    /// identity.
    labels: Vec<Option<LabelArg<'t>>>,
    /// Every pair's finished output set, deduplicated.
    outs: Vec<Tree>,
    /// Pair lookups that found an existing pair, and pairs added.
    hits: u64,
    misses: u64,
}

/// A compiled evaluation plan for one [`Sttr`].
///
/// `Plan::compile` flattens the transducer's rules into dense arrays:
/// the rules dispatching `(state q, ctor c)` are the contiguous slice
/// `groups[group_offsets[q*n_ctors+c] .. group_offsets[q*n_ctors+c+1]]`
/// (guard-ordered: syntactically trivial guards first), and the
/// lookahead STA's rules are flattened by constructor the same way.
/// Each constructor gets the list of the distinct non-trivial guards
/// reading it, and *copy rules* — same constructor, identity label
/// function, child `i` output in place as `q_i(x_i)` — are flagged.
///
/// These tables define a bottom-up deterministic automaton that the
/// plan never builds whole: each item builds the part its input
/// reaches. While an item lowers its input, it gives each distinct node
/// one *annotation*: the lookahead states accepting the node, each
/// state's enabled rules there, and the states that copy the node
/// unchanged. The item looks the annotation up by `(constructor,
/// label, child annotations)` in a table of its own and fills the table
/// from the plan's tables on a miss, evaluating each guard once per
/// distinct (constructor, label) pair of the item. Dispatch then reads
/// a pair's rule list from its node's annotation, with no guard or
/// lookahead test, and skips the subtrees a state copies. A `.fastc`
/// binary artifact stores the transducer, not these tables: its loader
/// builds the plan with `Plan::compile` too (see `fast_rt::Artifact`).
/// The plan is immutable and `Sync`; one plan serves any number of
/// concurrent batches.
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
    /// Prefix sums over `guards`, indexed by constructor.
    guard_offsets: Vec<u32>,
    /// Per constructor, the distinct non-trivial guards of the
    /// transducer's and the lookahead STA's rules reading it
    /// (deduplicated by interned identity); [`Select::guard`] is a
    /// position in its constructor's list.
    guards: Vec<Interned<Formula>>,
    /// Prefix sums of per-state rule counts: the flat profile index of
    /// `(state q, rule idx)` is `rule_offsets[q.0] + idx`.
    rule_offsets: Vec<usize>,
    total_rules: usize,
}

impl Plan {
    /// Compiles `sttr` into flat dispatch tables. The transducer is
    /// cloned (`Arc`-shared type/algebra, rule vectors copied once).
    pub fn compile(sttr: &Sttr) -> Plan {
        Plan::compile_owned(sttr.clone())
    }

    /// [`Plan::compile`] on a transducer the caller hands over, so it is
    /// not cloned: the artifact loader compiles every decoded transducer
    /// this way (a clone would add a third to its decode time).
    pub(crate) fn compile_owned(sttr: Sttr) -> Plan {
        let tt = sttr.alg().tt();
        let n_ctors = sttr.ty().ctor_count();
        let la = sttr.lookahead_sta();
        let mut guard_at: HashMap<(usize, u64), u32> = HashMap::new();
        let mut ctor_guards: Vec<Vec<Interned<Formula>>> = vec![Vec::new(); n_ctors];
        // Lists a non-trivial guard for the constructor `ctor` reads.
        let mut select = |ctor: usize, guard: &Interned<Formula>| {
            let trivial_guard = *guard == tt;
            let guard = if trivial_guard {
                0
            } else {
                *guard_at.entry((ctor, guard.id())).or_insert_with(|| {
                    ctor_guards[ctor].push(guard.clone());
                    ctor_guards[ctor].len() as u32 - 1
                })
            };
            Select {
                guard,
                trivial_guard,
            }
        };
        // Guard order: trivially-true guards first (stable on the
        // original index). The output set is a union over enabled rules,
        // so reordering is semantics-preserving.
        let mut keyed = Vec::new();
        for q in sttr.states() {
            for (idx, r) in sttr.rules(q).iter().enumerate() {
                keyed.push((q.0 * n_ctors + r.ctor.0, (r.guard != tt, idx as u32)));
            }
        }
        let cells = sttr.state_count() * n_ctors;
        let (group_offsets, groups) = flatten(cells, keyed, |base, (_, idx)| {
            let r = &sttr.rules(StateId(base / n_ctors))[idx as usize];
            CRule {
                idx,
                copy: is_copy_rule(&sttr, r),
                sel: select(r.ctor.0, &r.guard),
            }
        });
        let mut la_keyed = Vec::new();
        for s in la.states() {
            for (idx, r) in la.rules(s).iter().enumerate() {
                la_keyed.push((r.ctor.0, (s.0 as u32, r.guard != tt, idx as u32)));
            }
        }
        let (la_group_offsets, la_groups) = flatten(n_ctors, la_keyed, |_, (state, _, idx)| {
            let r = &la.rules(StateId(state as usize))[idx as usize];
            LaRule {
                state,
                idx,
                sel: select(r.ctor.0, &r.guard),
            }
        });
        let mut guard_offsets = Vec::with_capacity(n_ctors + 1);
        guard_offsets.push(0);
        let mut guards = Vec::new();
        for list in ctor_guards {
            guards.extend(list);
            guard_offsets.push(guards.len() as u32);
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
            guard_offsets,
            guards,
            rule_offsets,
            total_rules,
        }
    }

    /// The table cells [`Plan::compile`] allocates for `sttr` beyond
    /// one entry per rule: a group offset per `(state, constructor)`
    /// pair, and the guard and lookahead-group offsets per constructor.
    /// The first is a product of counts, so a small transducer can ask
    /// for a large plan; the artifact loader caps this figure against
    /// its buffer length. (The annotation tables are per item, sized by
    /// the item's input.)
    pub(crate) fn table_cells(sttr: &Sttr) -> usize {
        let n_ctors = sttr.ty().ctor_count();
        sttr.state_count()
            .saturating_mul(n_ctors)
            .saturating_add(n_ctors.saturating_add(1).saturating_mul(2))
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

    /// The distinct non-trivial guards reading `ctor`.
    #[inline]
    fn ctor_guards(&self, ctor: usize) -> &[Interned<Formula>] {
        &self.guards[self.guard_offsets[ctor] as usize..self.guard_offsets[ctor + 1] as usize]
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

    /// Evaluates every tree in `items`, in parallel, sharing one root
    /// memo across the batch. Results are in input order; each item
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
    /// item results persist across batches: an item whose root the memo
    /// holds is answered without evaluation. It is safe to drop the
    /// input trees of one call before the next: [`TreeId`] keys are
    /// never reused, so later trees can only match a resident entry by
    /// being structurally identical — in which case the hit is sound
    /// (even a re-parsed copy of an earlier input hits at its root).
    pub fn run_batch_shared(
        &self,
        items: &[Tree],
        opts: &RunOptions,
        memo: &BatchMemo,
    ) -> (Vec<Result<Vec<Tree>, TransducerError>>, BatchStats) {
        fast_obs::count!("rt.batch_runs");
        fast_obs::count!("rt.batch_items", items.len() as u64);
        fast_obs::time!("rt.run_batch", || {
            let cx = BatchCtx {
                plan: self,
                cap: opts.cap,
                timeout: opts.timeout,
                cancel: opts.cancel.clone(),
                memo,
                memo_stats: CacheStats::default(),
                guard_evals: AtomicU64::new(0),
                annotations: AtomicU64::new(0),
                profile: opts
                    .profile
                    .then(|| ProfileData::new(self.total_rules, self.sttr.state_count())),
            };
            let workers = pool::resolve_workers(opts.workers);
            let (results, spawn_fallbacks) = pool::run_indexed(
                workers,
                items.len(),
                |i| run_item(&cx, &items[i]),
                recover_item,
            );
            (
                results,
                finish_stats(&cx, spawn_fallbacks, items.len(), workers),
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

/// Groups `keyed` entries by their cell in `0..cells`, sorted within a
/// cell, and maps each through `f` (given its cell), returning the
/// prefix-sum offsets and the flat entries. Memory is one offset per
/// cell plus the entries: no per-cell allocation.
fn flatten<T: Ord, U>(
    cells: usize,
    mut keyed: Vec<(usize, T)>,
    mut f: impl FnMut(usize, T) -> U,
) -> (Vec<u32>, Vec<U>) {
    keyed.sort_unstable();
    let mut offsets = Vec::with_capacity(cells + 1);
    let mut flat = Vec::with_capacity(keyed.len());
    offsets.push(0);
    for (cell, e) in keyed {
        while offsets.len() <= cell {
            offsets.push(flat.len() as u32);
        }
        flat.push(f(cell, e));
    }
    offsets.resize(cells + 1, flat.len() as u32);
    (offsets, flat)
}

/// Whether `r` is a *copy rule*: it rebuilds the node it reads, with
/// the same constructor, the identity label function over the full
/// signature, and child `i` output in place as `q_i(x_i)`. If the only
/// rule of `q` enabled at `t` is a copy rule whose callees `q_i` copy
/// `t_i`, then `T_q(t) = {t}` by induction on `t`, and `t`'s annotation
/// says that `q` copies it.
fn is_copy_rule(sttr: &Sttr, r: &TRule<LabelAlg>) -> bool {
    matches!(&r.output, Out::Node { ctor, fun, children }
        if *ctor == r.ctor
            && sttr.alg().is_identity_fun(fun)
            && children.len() == sttr.ty().rank(r.ctor)
            && children.iter().enumerate().all(|(i, c)| matches!(c, Out::Call(_, j) if *j == i)))
}

/// Evaluates one item under the batch context, recording its latency in
/// the `rt.item` histogram (and, when tracing is on, an `rt.item` span
/// wrapping a `plan.dispatch` span around the evaluation). Errored
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
    let mut item = ItemRun {
        cx,
        deadline: cx.timeout.map(|d| start + d),
        ticks: 0,
        slots: Vec::new(),
        kids: Vec::new(),
        anns: Annotations::new(cx.plan),
        pairs: Vec::new(),
        tape: Vec::new(),
        labels: Vec::new(),
        outs: Vec::new(),
        hits: 0,
        misses: 0,
    };
    let out = {
        let _dispatch = fast_obs::span!("plan.dispatch");
        item.run(t)
    };
    cx.memo_stats.hits.fetch_add(item.hits, Ordering::Relaxed);
    cx.memo_stats
        .misses
        .fetch_add(item.misses, Ordering::Relaxed);
    cx.guard_evals
        .fetch_add(item.anns.guard_evals, Ordering::Relaxed);
    cx.annotations.fetch_add(item.anns.built, Ordering::Relaxed);
    drop(item);
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
    out
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
    spawn_fallbacks: u64,
    items: usize,
    workers: usize,
) -> BatchStats {
    let stats = BatchStats {
        items,
        workers,
        memo_hits: cx.memo_stats.hits.load(Ordering::Relaxed),
        memo_misses: cx.memo_stats.misses.load(Ordering::Relaxed),
        memo_evictions: cx.memo_stats.evictions.load(Ordering::Relaxed),
        spawn_fallbacks,
        annotations: cx.annotations.load(Ordering::Relaxed),
        profile: cx.profile.as_ref().map(|p| cx.plan.collect_profile(p)),
    };
    fast_obs::count!("rt.memo_hits", stats.memo_hits);
    fast_obs::count!("rt.memo_misses", stats.memo_misses);
    fast_obs::count!("rt.memo_evictions", stats.memo_evictions);
    fast_obs::count!("rt.guard_evals", cx.guard_evals.load(Ordering::Relaxed));
    fast_obs::count!("rt.annotations", stats.annotations);
    stats
}

/// The budget error every cap violation reports, as in `Sttr::run`.
fn budget(cap: usize) -> TransducerError {
    TransducerError::Budget {
        context: "run",
        limit: cap,
    }
}

impl<'p, 't> ItemRun<'_, 'p, 't> {
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
                    let ms = self.cx.timeout.unwrap_or_default().as_millis();
                    return Err(TransducerError::Timeout {
                        limit_ms: ms.min(u64::MAX as u128) as u64,
                    });
                }
            }
        }
        Ok(())
    }

    /// `T_initial(t)` (Definition 7): from the shared memo when it holds
    /// the root, else evaluated on the item's table and then memoized.
    fn run(&mut self, t: &'t Tree) -> Result<Vec<Tree>, TransducerError> {
        let q0 = self.cx.plan.sttr.initial();
        let key = (q0.0, t.id());
        if let Some(hit) = self.cx.memo.out.get(&key, &self.cx.memo_stats) {
            self.state_hit(q0.0 as u32);
            // The entry may come from a run with a larger budget.
            if hit.len() > self.cx.cap {
                return Err(budget(self.cx.cap));
            }
            return Ok(hit);
        }
        self.lower(t)?;
        self.pair(q0.0 as u32, self.slots.len() - 1);
        self.misses -= 1; // the shared probe counted the root's miss
        self.dispatch()?;
        self.build()?;
        let (start, end) = self.pairs[0].out;
        let mut out = self.outs[start as usize..end as usize].to_vec();
        // `Sttr::run_bounded`'s order: structural, among the distinct
        // outputs `build` left.
        out.sort_unstable();
        self.cx
            .memo
            .out
            .insert(key, out.clone(), &self.cx.memo_stats);
        Ok(out)
    }

    /// Lowers `t` to one slot per distinct node, in post-order, with an
    /// explicit stack (depth costs heap, not thread stack). Once a
    /// node's children are lowered, the slot gets the node's annotation
    /// ([`Annotations::annotate`]): one probe of the item's annotation
    /// table by `(constructor, label, child annotations)`, which builds
    /// the annotation from the plan's rule tables the first time the
    /// key comes up.
    fn lower(&mut self, t: &'t Tree) -> Result<(), TransducerError> {
        let plan = self.cx.plan;
        let mut at: MixMap<TreeId, u32> = MixMap::default();
        let mut stack: Vec<(&'t Tree, bool)> = vec![(t, false)];
        while let Some((node, expanded)) = stack.pop() {
            self.tick()?;
            if at.contains_key(&node.id()) {
                continue;
            }
            if !expanded {
                stack.push((node, true));
                stack.extend(node.children().iter().map(|c| (c, false)));
                continue;
            }
            let kids = self.kids.len();
            self.kids
                .extend(node.children().iter().map(|c| at[&c.id()]));
            let slots = &self.slots;
            let child_anns = self.kids[kids..].iter().map(|&k| slots[k as usize].ann);
            let ann = self.anns.annotate(plan, node, child_anns);
            at.insert(node.id(), self.slots.len() as u32);
            self.slots.push(Slot {
                tree: node,
                kids: kids as u32,
                pairs: NONE,
                ann,
            });
        }
        Ok(())
    }

    /// The pair `(state, slot)`, added if the item does not need it yet.
    /// Each call is one memo lookup: a hit when the pair exists.
    fn pair(&mut self, state: u32, slot: usize) -> u32 {
        let mut p = self.slots[slot].pairs;
        while p != NONE {
            let pair = &self.pairs[p as usize];
            if pair.state == state {
                self.hits += 1;
                self.state_hit(state);
                return p;
            }
            p = pair.next;
        }
        self.misses += 1;
        self.pairs.push(Pair {
            state,
            next: self.slots[slot].pairs,
            tape: (0, 0),
            out: (0, 0),
        });
        self.slots[slot].pairs = (self.pairs.len() - 1) as u32;
        self.slots[slot].pairs
    }

    fn state_hit(&self, state: u32) {
        if let Some(p) = &self.cx.profile {
            p.state_memo_hits[state as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The top-down pass: records each needed pair's enabled rules, as
    /// its slot's annotation lists them. Slots are in post-order, so
    /// visiting them in reverse reaches every pair after all the pairs
    /// that call it. A pair whose state copies its slot records nothing
    /// and marks none of its children: its output is the slot's tree
    /// ([`ItemRun::build`]).
    fn dispatch(&mut self) -> Result<(), TransducerError> {
        let plan = self.cx.plan;
        let profile = self.cx.profile.as_ref();
        for s in (0..self.slots.len()).rev() {
            let Slot {
                tree,
                kids,
                pairs,
                ann,
            } = self.slots[s];
            let mut p = pairs;
            while p != NONE {
                self.tick()?;
                let q = self.pairs[p as usize].state as usize;
                let start = self.tape.len() as u32;
                if !self.anns.copies(ann, q) {
                    if let Some(prof) = profile {
                        // The annotation consulted every non-trivial
                        // guard of the pair's group.
                        for cr in plan.group(q, tree.ctor().0) {
                            if !cr.sel.trivial_guard {
                                let idx = plan.rule_offsets[q] + cr.idx as usize;
                                prof.guard_evals[idx].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    for at in self.anns.rules(ann, q) {
                        let idx = self.anns.rule(at);
                        let rule_start = profile.map(|_| Instant::now());
                        self.tape.push(idx);
                        let r = &plan.sttr.rules(StateId(q))[idx as usize];
                        self.mark(&r.output, tree, kids as usize);
                        charge(profile, plan.rule_offsets[q] + idx as usize, rule_start);
                    }
                }
                let pair = &mut self.pairs[p as usize];
                pair.tape = (start, self.tape.len() as u32);
                p = pair.next;
            }
        }
        Ok(())
    }

    /// Records an enabled template on the tape. Like `Sttr::run`, a node
    /// whose label function is undefined (`apply_fun` is `None`, e.g. on
    /// overflow) does not evaluate its subtemplates, so their calls add
    /// no pairs. An identity label function takes `t`'s canonical label,
    /// which it would copy value for value: the node it builds then
    /// reaches the node table without a label lookup.
    fn mark(&mut self, out: &'p Out<LabelAlg>, t: &'t Tree, kids: usize) {
        match out {
            Out::Call(q, i) => {
                let p = self.pair(q.0 as u32, self.kids[kids + i] as usize);
                self.tape.push(p);
            }
            Out::Node { fun, children, .. } => {
                let alg = self.cx.plan.sttr.alg();
                let label = if alg.is_identity_fun(fun) && t.label().arity() == fun.terms().len() {
                    Some(LabelArg::Interned(t.interned_label()))
                } else {
                    alg.apply_fun(fun, t.label()).map(LabelArg::Owned)
                };
                let defined = label.is_some();
                self.tape.push(self.labels.len() as u32);
                self.labels.push(label);
                if defined {
                    for c in children {
                        self.mark(c, t, kids);
                    }
                }
            }
        }
    }

    /// The bottom-up pass: in post-order, each pair's output set is the
    /// deduplicated union over its enabled rules, built from its
    /// callees' finished sets and bounded by the cap exactly like
    /// `Sttr::run_bounded`. A copied pair's set is its slot's tree. Sets
    /// are deduplicated by node identity, in `TreeId` order: a
    /// structural order at every pair would compare two outputs that
    /// share all but their bottom down to it at each level above,
    /// quadratic in the depth.
    fn build(&mut self) -> Result<(), TransducerError> {
        let plan = self.cx.plan;
        let cap = self.cx.cap;
        let profile = self.cx.profile.as_ref();
        let mut labels = std::mem::take(&mut self.labels);
        let mut out: Vec<Tree> = Vec::new();
        for s in 0..self.slots.len() {
            let mut p = self.slots[s].pairs;
            while p != NONE {
                self.tick()?;
                let Pair {
                    state, next, tape, ..
                } = self.pairs[p as usize];
                if self.anns.copies(self.slots[s].ann, state as usize) {
                    let start = profile.map(|_| Instant::now());
                    out.push(self.slots[s].tree.clone());
                    if let Some(prof) = profile {
                        self.charge_copy(prof, state as usize, s, start);
                    }
                    if out.len() > cap {
                        return Err(budget(cap));
                    }
                }
                let mut at = tape.0 as usize;
                while at < tape.1 as usize {
                    let idx = self.tape[at] as usize;
                    at += 1;
                    let prof_idx = plan.rule_offsets[state as usize] + idx;
                    let rule_start = profile.map(|_| Instant::now());
                    let r = &plan.sttr.rules(StateId(state as usize))[idx];
                    self.emit(&r.output, &mut labels, &mut at, &mut out)?;
                    if let Some(p) = profile {
                        p.fired[prof_idx].fetch_add(1, Ordering::Relaxed);
                    }
                    charge(profile, prof_idx, rule_start);
                    if out.len() > cap {
                        return Err(budget(cap));
                    }
                }
                if out.len() > 1 {
                    // Equal trees are one node, so identity dedups; the
                    // root's set is put in structural order in `run`.
                    out.sort_unstable_by_key(|t| t.id().as_u64());
                    out.dedup();
                }
                let start = self.outs.len() as u32;
                self.outs.append(&mut out);
                self.pairs[p as usize].out = (start, self.outs.len() as u32);
                p = next;
            }
        }
        Ok(())
    }

    /// Charges a copied pair to the copy rule of `state` enabled at
    /// `slot`, the one rule its annotation lists: one firing and the
    /// time since `start`.
    fn charge_copy(&self, prof: &ProfileData, state: usize, slot: usize, start: Option<Instant>) {
        let ann = self.slots[slot].ann;
        if let Some(at) = self.anns.rules(ann, state).next() {
            let idx = self.cx.plan.rule_offsets[state] + self.anns.rule(at) as usize;
            prof.fired[idx].fetch_add(1, Ordering::Relaxed);
            charge(Some(prof), idx, start);
        }
    }

    /// Appends the output trees of the enabled template `out`, read from
    /// the tape at `at`, to `dst`.
    fn emit(
        &self,
        out: &Out<LabelAlg>,
        labels: &mut [Option<LabelArg<'t>>],
        at: &mut usize,
        dst: &mut Vec<Tree>,
    ) -> Result<(), TransducerError> {
        let step = self.tape[*at] as usize;
        *at += 1;
        match out {
            Out::Call(..) => {
                let (start, end) = self.pairs[step].out;
                dst.extend_from_slice(&self.outs[start as usize..end as usize]);
                Ok(())
            }
            Out::Node { ctor, children, .. } => {
                let Some(label) = labels[step].take() else {
                    return Ok(());
                };
                // Single-valued children (the common case) are appended to
                // `dst` and interned from there, borrowed, so an interner
                // hit allocates nothing. The first child with zero or
                // several outputs switches to the product below.
                let base = dst.len();
                for (k, c) in children.iter().enumerate() {
                    self.emit(c, labels, at, dst)?;
                    if dst.len() != base + k + 1 {
                        let rest = dst.split_off(base + k);
                        let mut per_child: Vec<Vec<Tree>> =
                            dst.drain(base..).map(|o| vec![o]).collect();
                        per_child.push(rest);
                        for c in &children[k + 1..] {
                            let mut alts = Vec::new();
                            self.emit(c, labels, at, &mut alts)?;
                            per_child.push(alts);
                        }
                        return product(*ctor, label, &per_child, self.cx.cap, dst);
                    }
                }
                let node = Tree::new(*ctor, label, &dst[base..]);
                dst.truncate(base);
                dst.push(node);
                Ok(())
            }
        }
    }
}

/// Adds the time since `start` to rule `idx` of a profiled batch.
fn charge(profile: Option<&ProfileData>, idx: usize, start: Option<Instant>) {
    if let (Some(p), Some(s)) = (profile, start) {
        p.ns[idx].fetch_add(s.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Appends one `ctor[label]` node per combination of the per-child
/// alternatives, bounded by `cap` exactly like `Sttr::run_bounded`. The
/// label is resolved by the first node; the rest take its handle.
fn product(
    ctor: fast_trees::CtorId,
    label: LabelArg<'_>,
    per_child: &[Vec<Tree>],
    cap: usize,
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
                if next.len() > cap {
                    return Err(budget(cap));
                }
            }
        }
        acc = next;
    }
    let mut acc = acc.into_iter();
    if let Some(kids) = acc.next() {
        let first = Tree::new(ctor, label, kids);
        let label = first.interned_label().clone();
        dst.push(first);
        dst.extend(acc.map(|kids| Tree::new(ctor, &label, kids)));
    }
    Ok(())
}
