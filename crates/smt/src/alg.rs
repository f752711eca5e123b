//! Effective Boolean algebras.
//!
//! The paper's results are parametric in a *label theory* that (1) is
//! closed under the Boolean operations and equality and (2) has a decidable
//! satisfiability problem (§3.1). [`BoolAlg`] captures exactly that
//! interface; [`LabelAlg`] is the concrete instance whose predicates are
//! hash-consed [`Interned<Formula>`] handles decided by the built-in
//! solver, with a sharded satisfiability cache, a sharded computed table
//! for its connectives, and query telemetry.

use crate::formula::Formula;
use crate::intern::{intern, shard_of, Interned, SHARDS};
use crate::solver::{solve, SatResult};
use crate::sort::LabelSig;
use crate::value::Label;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// An effective Boolean algebra over predicates of type [`BoolAlg::Pred`]
/// denoting sets of elements of type [`BoolAlg::Elem`].
///
/// Laws expected by the automata algorithms: `and`/`or`/`not` denote set
/// intersection/union/complement, `tt`/`ff` the full/empty set, `eval`
/// membership, and `is_sat` non-emptiness. `is_sat` may over-approximate
/// (answer `true` on an undecided predicate) but must never answer `false`
/// on a non-empty one.
pub trait BoolAlg {
    /// Predicates (syntactic objects closed under the Boolean operations).
    type Pred: Clone + Eq + std::hash::Hash + fmt::Debug;
    /// Domain elements.
    type Elem: Clone + Eq + fmt::Debug;

    /// The always-true predicate.
    fn tt(&self) -> Self::Pred;
    /// The always-false predicate.
    fn ff(&self) -> Self::Pred;
    /// Conjunction.
    fn and(&self, a: &Self::Pred, b: &Self::Pred) -> Self::Pred;
    /// Disjunction.
    fn or(&self, a: &Self::Pred, b: &Self::Pred) -> Self::Pred;
    /// Negation.
    fn not(&self, a: &Self::Pred) -> Self::Pred;
    /// Satisfiability (non-emptiness), over-approximating on `Unknown`.
    fn is_sat(&self, a: &Self::Pred) -> bool;
    /// A witness element, if one can be produced.
    fn model(&self, a: &Self::Pred) -> Option<Self::Elem>;
    /// Membership test.
    fn eval(&self, a: &Self::Pred, e: &Self::Elem) -> bool;

    /// Conjunction of many predicates.
    fn conj<'a>(&self, preds: impl IntoIterator<Item = &'a Self::Pred>) -> Self::Pred
    where
        Self::Pred: 'a,
    {
        preds
            .into_iter()
            .fold(self.tt(), |acc, p| self.and(&acc, p))
    }

    /// Disjunction of many predicates.
    fn disj<'a>(&self, preds: impl IntoIterator<Item = &'a Self::Pred>) -> Self::Pred
    where
        Self::Pred: 'a,
    {
        preds.into_iter().fold(self.ff(), |acc, p| self.or(&acc, p))
    }

    /// `a ∧ ¬b` unsatisfiable ⇒ `a ⊆ b`. Over-approximating `is_sat`
    /// makes this *under*-approximate inclusion (sound "don't know" = no).
    fn implies(&self, a: &Self::Pred, b: &Self::Pred) -> bool {
        !self.is_sat(&self.and(a, &self.not(b)))
    }
}

/// An effective Boolean algebra extended with *label functions* — the
/// symbolic output relabelings `e : σ → σ` of symbolic transducers
/// (Definition 4 of the paper). The composition algorithm (§4) requires
/// substituting a function into a predicate (`φ(e(x))`) and composing
/// functions (`e₂ ∘ e₁`), both provided here.
pub trait TransAlg: BoolAlg {
    /// Label-to-label functions.
    type Fun: Clone + Eq + std::hash::Hash + fmt::Debug;

    /// The identity function.
    fn identity_fun(&self) -> Self::Fun;
    /// `x ↦ outer(inner(x))`.
    fn compose_fun(&self, outer: &Self::Fun, inner: &Self::Fun) -> Self::Fun;
    /// Applies the function to a concrete element (`None` on evaluation
    /// failure such as overflow; such outputs are simply not produced).
    fn apply_fun(&self, f: &Self::Fun, e: &Self::Elem) -> Option<Self::Elem>;
    /// `x ↦ p(f(x))` — predicate pre-composition with a function.
    fn subst_pred(&self, p: &Self::Pred, f: &Self::Fun) -> Self::Pred;
    /// True if `f` is (syntactically) the identity on the algebra's
    /// elements: a function that keeps only some of them is not.
    fn is_identity_fun(&self, f: &Self::Fun) -> bool;
    /// A predicate satisfied exactly by the elements on which `f` and `g`
    /// produce *different* outputs, or `None` when the algebra cannot
    /// express pointwise function disagreement (callers must then treat
    /// function equivalence as undecided rather than assume either way).
    fn funs_differ(&self, f: &Self::Fun, g: &Self::Fun) -> Option<Self::Pred> {
        let _ = (f, g);
        None
    }
}

/// Counters describing solver traffic, for benchmarks and ablations.
///
/// These are *per-algebra-instance*; the process-wide equivalents (plus
/// interning, minterm, and composition counters) live in the global
/// [`fast_obs`] registry under `smt.*` names.
#[derive(Debug, Default)]
pub struct AlgStats {
    /// Total satisfiability queries (including cache hits).
    pub sat_queries: AtomicU64,
    /// Queries answered from the cache (all shards).
    pub cache_hits: AtomicU64,
    /// Queries that returned `Unknown`.
    pub unknowns: AtomicU64,
    /// Cache hits per shard of the sharded solver cache.
    pub shard_hits: [AtomicU64; SHARDS],
}

impl AlgStats {
    /// Snapshot of (queries, hits, unknowns).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.sat_queries.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.unknowns.load(Ordering::Relaxed),
        )
    }

    /// Per-shard cache-hit counts.
    pub fn shard_hits(&self) -> [u64; SHARDS] {
        std::array::from_fn(|i| self.shard_hits[i].load(Ordering::Relaxed))
    }
}

/// Process-wide per-shard cache-hit counters (`smt.cache_hits.shardNN`),
/// resolved once.
fn shard_hit_counter(i: usize) -> &'static fast_obs::Counter {
    static NAMES: [&str; SHARDS] = [
        "smt.cache_hits.shard00",
        "smt.cache_hits.shard01",
        "smt.cache_hits.shard02",
        "smt.cache_hits.shard03",
        "smt.cache_hits.shard04",
        "smt.cache_hits.shard05",
        "smt.cache_hits.shard06",
        "smt.cache_hits.shard07",
        "smt.cache_hits.shard08",
        "smt.cache_hits.shard09",
        "smt.cache_hits.shard10",
        "smt.cache_hits.shard11",
        "smt.cache_hits.shard12",
        "smt.cache_hits.shard13",
        "smt.cache_hits.shard14",
        "smt.cache_hits.shard15",
    ];
    static COUNTERS: OnceLock<[&'static fast_obs::Counter; SHARDS]> = OnceLock::new();
    COUNTERS.get_or_init(|| std::array::from_fn(|k| fast_obs::counter(NAMES[k])))[i]
}

/// Process-wide solver-cache residency (`smt.cache.entries`): total
/// memoized satisfiability results across every live [`LabelAlg`]. Each
/// algebra adds on first insert of a formula id and subtracts its whole
/// cache on drop.
fn cache_entries_gauge() -> &'static fast_obs::Gauge {
    static G: OnceLock<&'static fast_obs::Gauge> = OnceLock::new();
    G.get_or_init(|| fast_obs::gauge("smt.cache.entries"))
}

/// Process-wide computed-table residency (`smt.ops.entries`): total
/// memoized connective results across every live [`LabelAlg`]. Each
/// algebra adds on first insert of a key and subtracts its whole table on
/// drop.
fn ops_entries_gauge() -> &'static fast_obs::Gauge {
    static G: OnceLock<&'static fast_obs::Gauge> = OnceLock::new();
    G.get_or_init(|| fast_obs::gauge("smt.ops.entries"))
}

/// A multiplicative hasher for keys made of interned ids. Ids are unique,
/// dense and assigned by the interner, never read from input, so one
/// multiply per word spreads them as well as SipHash would, at a fraction
/// of the cost.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A connective of the algebra, as the computed table keys it.
#[derive(Clone, Copy)]
enum Op {
    And,
    Or,
    Not,
}

/// A computed-table key: the connective (`Op as u64`) and its operands'
/// ids, in argument order (`¬a` stores `a`'s id twice). The order is
/// kept, not folded, so `and(b, a)` is its own entry and returns exactly
/// what `intern` returns for `b ∧ a`.
type OpKey = (u64, u64, u64);

/// The standard label algebra: hash-consed [`Formula`] predicates over a
/// [`LabelSig`], decided by [`solve`], with memoized satisfiability.
///
/// Satisfiability results are cached in a 16-way sharded map keyed by the
/// interned formula's id. A miss holds its shard's lock *through* the
/// solve, so two threads asking about the same new formula serialize and
/// the second one hits the cache — the solver never runs twice for one
/// formula, and `sat_queries - cache_hits` equals the number of distinct
/// formulas solved.
///
/// Connectives are memoized the same way: a computed table, sharded like
/// the cache and living as long as the algebra, maps `(op, a.id(),
/// b.id())` to the interned result of `and`, `or` and `not`, so a
/// connective asked again costs one probe instead of cloning, simplifying,
/// hashing and interning both operand trees again.
///
/// # Examples
///
/// ```
/// use fast_smt::{BoolAlg, Formula, LabelAlg, LabelSig, Sort, Term};
/// let alg = LabelAlg::new(LabelSig::single("i", Sort::Int));
/// let odd = alg.pred(Formula::eq(Term::field(0).modulo(2), Term::int(1)));
/// let even = alg.not(&odd);
/// assert!(alg.is_sat(&odd));
/// assert!(!alg.is_sat(&alg.and(&odd, &even)));
/// assert!(alg.implies(&odd, &alg.tt()));
/// ```
#[derive(Debug)]
pub struct LabelAlg {
    sig: LabelSig,
    simplify: bool,
    cache: [Mutex<IdMap<u64, SatResult>>; SHARDS],
    ops: [Mutex<IdMap<OpKey, Interned<Formula>>>; SHARDS],
    stats: AlgStats,
}

impl LabelAlg {
    /// Creates an algebra over the given signature.
    pub fn new(sig: LabelSig) -> Self {
        LabelAlg {
            sig,
            simplify: true,
            cache: std::array::from_fn(|_| Mutex::default()),
            ops: std::array::from_fn(|_| Mutex::default()),
            stats: AlgStats::default(),
        }
    }

    /// Disables eager simplification in `and`/`or`/`not` (ablation knob;
    /// see DESIGN.md §6). Interning itself is unaffected: the raw
    /// connective trees are hash-consed exactly like simplified ones.
    ///
    /// ```
    /// use fast_smt::{BoolAlg, Formula, LabelAlg, LabelSig};
    /// let plain = LabelAlg::new(LabelSig::unit()).without_simplification();
    /// let smart = LabelAlg::new(LabelSig::unit());
    /// let t = plain.tt();
    /// // Without simplification ¬¬⊤ stays a syntactic double negation…
    /// let nn = plain.not(&plain.not(&t));
    /// assert_eq!(
    ///     *nn.get(),
    ///     Formula::Not(Box::new(Formula::Not(Box::new(Formula::True))))
    /// );
    /// // …while the simplifying algebra collapses it back to the
    /// // canonical interned ⊤ handle.
    /// assert!(smart.not(&smart.not(&t)).ptr_eq(&t));
    /// ```
    pub fn without_simplification(mut self) -> Self {
        self.simplify = false;
        // Results built with simplification must not answer for the
        // plain connectives.
        for shard in &mut self.ops {
            let table = shard.get_mut().expect("computed-table shard poisoned");
            ops_entries_gauge().sub(table.len() as u64);
            table.clear();
        }
        self
    }

    /// The label signature.
    pub fn sig(&self) -> &LabelSig {
        &self.sig
    }

    /// Query statistics.
    pub fn stats(&self) -> &AlgStats {
        &self.stats
    }

    /// Interns a formula as a predicate of this algebra.
    ///
    /// Handles are globally hash-consed, so this is how call sites turn a
    /// freshly built [`Formula`] into the algebra's `Pred` type:
    ///
    /// ```
    /// use fast_smt::{BoolAlg, Formula, LabelAlg, LabelSig, Sort, Term};
    /// let alg = LabelAlg::new(LabelSig::single("tag", Sort::Str));
    /// let p = alg.pred(Formula::ne(Term::field(0), Term::str("script")));
    /// assert!(alg.is_sat(&p));
    /// ```
    pub fn pred(&self, f: Formula) -> Interned<Formula> {
        intern(f)
    }

    /// Full three-valued satisfiability (callers that care about the
    /// Sat/Unknown distinction use this instead of [`BoolAlg::is_sat`]).
    ///
    /// Single entry-style path: the shard lock is taken once and held
    /// across the solve on a miss, so concurrent queries for the same
    /// formula cannot both miss. Every query's latency (hit or miss)
    /// lands in the `smt.check` histogram; a miss additionally runs the
    /// solver under an `smt.solve` span, so traces show actual solver
    /// work rather than cache traffic.
    pub fn check(&self, f: &Interned<Formula>) -> SatResult {
        self.timed_verdict(f, SatResult::clone)
    }

    /// Looks `f`'s verdict up (solving it on a miss) and answers `read`
    /// of it under the shard lock, so a caller that needs only part of the
    /// verdict does not clone its model. The latency lands in `smt.check`.
    fn timed_verdict<R>(&self, f: &Interned<Formula>, read: impl FnOnce(&SatResult) -> R) -> R {
        static CHECK_HIST: OnceLock<&'static fast_obs::Hist> = OnceLock::new();
        let hist = *CHECK_HIST.get_or_init(|| fast_obs::histogram("smt.check"));
        let start = std::time::Instant::now();
        let r = self.verdict(f, read);
        hist.record_ns(start.elapsed().as_nanos() as u64);
        r
    }

    fn verdict<R>(&self, f: &Interned<Formula>, read: impl FnOnce(&SatResult) -> R) -> R {
        self.stats.sat_queries.fetch_add(1, Ordering::Relaxed);
        fast_obs::count!("smt.sat_queries");
        let shard_ix = shard_of(f.precomputed_hash());
        let mut shard = self.cache[shard_ix]
            .lock()
            .expect("sat-cache shard poisoned");
        if let Some(r) = shard.get(&f.id()) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.stats.shard_hits[shard_ix].fetch_add(1, Ordering::Relaxed);
            shard_hit_counter(shard_ix).incr();
            return read(r);
        }
        fast_obs::count!("smt.cache_misses");
        let _span = fast_obs::span!("smt.solve");
        let r = solve(&self.sig, f.get());
        if matches!(r, SatResult::Unknown) {
            self.stats.unknowns.fetch_add(1, Ordering::Relaxed);
            fast_obs::count!("smt.unknown_results");
        }
        cache_entries_gauge().add(1);
        read(shard.entry(f.id()).or_insert(r))
    }

    /// The memoized connective `op` of `a` and `b`: one probe of the
    /// computed table, or `build` interned and recorded on a miss. The
    /// lock is not held across `build` and `intern`; two threads that
    /// miss the same key intern the same formula, so they store (and
    /// return) the same handle.
    fn connective(
        &self,
        op: Op,
        a: &Interned<Formula>,
        b: &Interned<Formula>,
        build: impl FnOnce() -> Formula,
    ) -> Interned<Formula> {
        let key: OpKey = (op as u64, a.id(), b.id());
        let shard = &self.ops[shard_of(a.precomputed_hash() ^ b.precomputed_hash().rotate_left(1))];
        if let Some(r) = shard
            .lock()
            .expect("computed-table shard poisoned")
            .get(&key)
        {
            return r.clone();
        }
        let r = intern(build());
        match shard
            .lock()
            .expect("computed-table shard poisoned")
            .entry(key)
        {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => {
                ops_entries_gauge().add(1);
                e.insert(r).clone()
            }
        }
    }

    /// Convenience: interns `f` and runs [`LabelAlg::check`].
    pub fn check_formula(&self, f: &Formula) -> SatResult {
        self.check(&intern(f.clone()))
    }
}

impl Drop for LabelAlg {
    /// A dropped algebra's memoized results must leave the process-wide
    /// `smt.cache.entries` and `smt.ops.entries` gauges, or residency of
    /// dead tables would accumulate forever.
    fn drop(&mut self) {
        fn resident<T>(shards: &[Mutex<T>], len: impl Fn(&T) -> usize) -> u64 {
            shards
                .iter()
                .map(|s| s.lock().map(|m| len(&m) as u64).unwrap_or(0))
                .sum()
        }
        cache_entries_gauge().sub(resident(&self.cache, IdMap::len));
        ops_entries_gauge().sub(resident(&self.ops, IdMap::len));
    }
}

impl BoolAlg for LabelAlg {
    type Pred = Interned<Formula>;
    type Elem = Label;

    fn tt(&self) -> Self::Pred {
        intern(Formula::True)
    }
    fn ff(&self) -> Self::Pred {
        intern(Formula::False)
    }
    fn and(&self, a: &Self::Pred, b: &Self::Pred) -> Self::Pred {
        // Handle equality is O(1); `p ∧ p = p` needs no rebuild at all.
        if a == b {
            return a.clone();
        }
        self.connective(Op::And, a, b, || {
            if self.simplify {
                a.get().clone().and(b.get().clone())
            } else {
                Formula::And(vec![a.get().clone(), b.get().clone()])
            }
        })
    }
    fn or(&self, a: &Self::Pred, b: &Self::Pred) -> Self::Pred {
        if a == b {
            return a.clone();
        }
        self.connective(Op::Or, a, b, || {
            if self.simplify {
                a.get().clone().or(b.get().clone())
            } else {
                Formula::Or(vec![a.get().clone(), b.get().clone()])
            }
        })
    }
    fn not(&self, a: &Self::Pred) -> Self::Pred {
        self.connective(Op::Not, a, a, || {
            if self.simplify {
                a.get().clone().not()
            } else {
                Formula::Not(Box::new(a.get().clone()))
            }
        })
    }
    fn is_sat(&self, a: &Self::Pred) -> bool {
        self.timed_verdict(a, SatResult::possibly_sat)
    }
    fn model(&self, a: &Self::Pred) -> Option<Label> {
        self.check(a).model()
    }
    fn eval(&self, a: &Self::Pred, e: &Label) -> bool {
        a.get().eval(e)
    }
}

impl TransAlg for LabelAlg {
    type Fun = crate::term::LabelFn;

    fn identity_fun(&self) -> Self::Fun {
        crate::term::LabelFn::identity(self.sig.arity())
    }
    fn compose_fun(&self, outer: &Self::Fun, inner: &Self::Fun) -> Self::Fun {
        outer.compose(inner)
    }
    fn apply_fun(&self, f: &Self::Fun, e: &Label) -> Option<Label> {
        f.apply(e).ok()
    }
    fn subst_pred(&self, p: &Self::Pred, f: &Self::Fun) -> Self::Pred {
        let substituted = p.get().subst(f.terms());
        intern(if self.simplify {
            substituted.simplify()
        } else {
            substituted
        })
    }
    fn is_identity_fun(&self, f: &Self::Fun) -> bool {
        f.terms().len() == self.sig.arity() && f.is_identity()
    }
    fn funs_differ(&self, f: &Self::Fun, g: &Self::Fun) -> Option<Self::Pred> {
        if f.terms().len() != g.terms().len() {
            return None;
        }
        if f == g {
            return Some(self.ff());
        }
        // ⋁ᵢ fᵢ(x) ≠ gᵢ(x). `Ne` evaluates to false when either side
        // overflows, matching run semantics: an overflowing label function
        // produces no output at all, so it cannot *disagree*.
        let parts = f
            .terms()
            .iter()
            .zip(g.terms())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Formula::ne(a.clone(), b.clone()));
        Some(self.pred(Formula::disj(parts)))
    }
}

/// Computes the satisfiable *minterms* of a set of predicates: all
/// satisfiable conjunctions choosing each `preds[i]` either positively or
/// negatively. Returns `(signs, predicate)` pairs; the signs vector tells
/// which polarity was chosen per input predicate.
///
/// Minterms partition the label space and are the work-horse of symbolic
/// determinization. The tree-shaped expansion prunes unsatisfiable branches
/// early, so the output is usually far smaller than `2^n`. Each emitted
/// minterm bumps the global `smt.minterms_enumerated` counter.
pub fn minterms<A: BoolAlg>(alg: &A, preds: &[A::Pred]) -> Vec<(Vec<bool>, A::Pred)> {
    let mut out = Vec::new();
    let mut signs = Vec::with_capacity(preds.len());
    go(alg, preds, 0, alg.tt(), &mut signs, &mut out);
    return out;

    fn go<A: BoolAlg>(
        alg: &A,
        preds: &[A::Pred],
        i: usize,
        acc: A::Pred,
        signs: &mut Vec<bool>,
        out: &mut Vec<(Vec<bool>, A::Pred)>,
    ) {
        if !alg.is_sat(&acc) {
            return;
        }
        if i == preds.len() {
            fast_obs::count!("smt.minterms_enumerated");
            out.push((signs.clone(), acc));
            return;
        }
        for sign in [true, false] {
            let p = if sign {
                preds[i].clone()
            } else {
                alg.not(&preds[i])
            };
            signs.push(sign);
            go(alg, preds, i + 1, alg.and(&acc, &p), signs, out);
            signs.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;
    use crate::sort::Sort;
    use crate::term::{LabelFn, Term};

    fn alg() -> LabelAlg {
        LabelAlg::new(LabelSig::single("i", Sort::Int))
    }
    fn x() -> Term {
        Term::field(0)
    }

    #[test]
    fn algebra_laws() {
        let a = alg();
        let odd = a.pred(Formula::eq(x().modulo(2), Term::int(1)));
        assert!(a.is_sat(&a.tt()));
        assert!(!a.is_sat(&a.ff()));
        assert!(!a.is_sat(&a.and(&odd, &a.not(&odd))));
        assert!(a.is_sat(&a.or(&odd, &a.not(&odd))));
        assert!(a.implies(&a.ff(), &odd));
        assert!(a.implies(&odd, &a.tt()));
        assert!(!a.implies(&a.tt(), &odd));
    }

    /// The identity on fewer or more fields than the signature has is
    /// not the identity: over a two-field signature `[x0]` drops a field
    /// and `[x0, x1, x2]` reads one that does not exist.
    #[test]
    fn identity_fun_covers_the_full_signature() {
        let a = LabelAlg::new(LabelSig::new(vec![
            ("a".into(), Sort::Int),
            ("b".into(), Sort::Int),
        ]));
        assert!(a.is_identity_fun(&LabelFn::identity(2)));
        assert!(a.is_identity_fun(&a.identity_fun()));
        assert!(!a.is_identity_fun(&LabelFn::identity(1)));
        assert!(!a.is_identity_fun(&LabelFn::identity(3)));
        assert!(!a.is_identity_fun(&LabelFn::new(vec![Term::field(1), Term::field(0)])));
        assert!(!alg().is_identity_fun(&LabelFn::identity(0)));
    }

    #[test]
    fn cache_hits_accumulate() {
        let a = alg();
        let odd = a.pred(Formula::eq(x().modulo(2), Term::int(1)));
        a.is_sat(&odd);
        a.is_sat(&odd);
        let (q, h, _) = a.stats().snapshot();
        assert_eq!(q, 2);
        assert_eq!(h, 1);
        assert_eq!(a.stats().shard_hits().iter().sum::<u64>(), 1);
    }

    #[test]
    fn idempotent_connectives_reuse_handles() {
        let a = alg();
        let p = a.pred(Formula::cmp(CmpOp::Gt, x(), Term::int(3)));
        assert!(a.and(&p, &p).ptr_eq(&p));
        assert!(a.or(&p, &p).ptr_eq(&p));
        assert!(a.not(&a.not(&p)).ptr_eq(&p));
    }

    #[test]
    fn minterms_partition() {
        let a = alg();
        let p1 = a.pred(Formula::cmp(CmpOp::Gt, x(), Term::int(0)));
        let p2 = a.pred(Formula::cmp(CmpOp::Gt, x(), Term::int(10)));
        let ms = minterms(&a, &[p1.clone(), p2.clone()]);
        // p2 ⊂ p1, so (¬p1 ∧ p2) is unsat: expect 3 minterms, not 4.
        assert_eq!(ms.len(), 3);
        for (signs, m) in &ms {
            let w = a.model(m).expect("minterm must have a model");
            assert_eq!(p1.get().eval(&w), signs[0]);
            assert_eq!(p2.get().eval(&w), signs[1]);
        }
    }

    #[test]
    fn minterms_of_empty() {
        let a = alg();
        let ms = minterms(&a, &[]);
        assert_eq!(ms.len(), 1);
        assert_eq!(*ms[0].1.get(), Formula::True);
    }

    #[test]
    fn without_simplification_still_correct() {
        let a = LabelAlg::new(LabelSig::single("i", Sort::Int)).without_simplification();
        let odd = a.pred(Formula::eq(x().modulo(2), Term::int(1)));
        assert!(!a.is_sat(&a.and(&odd, &a.not(&odd))));
    }

    /// The regression test for the old check-then-insert race: with the
    /// shard lock held across the solve, `sat_queries - cache_hits` must
    /// equal the number of *distinct* formulas even when many threads
    /// query the same formulas simultaneously.
    #[test]
    fn concurrent_queries_never_solve_twice() {
        use std::sync::Arc;
        let a = Arc::new(alg());
        const THREADS: u64 = 8;
        const UNIQUE: u64 = 32;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for k in 0..UNIQUE {
                        let p = a.pred(Formula::eq(x(), Term::int(660_000 + k as i64)));
                        assert!(a.is_sat(&p));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (q, h, _) = a.stats().snapshot();
        assert_eq!(q, THREADS * UNIQUE);
        assert_eq!(
            q - h,
            UNIQUE,
            "each distinct formula must be solved exactly once"
        );
        assert_eq!(a.stats().shard_hits().iter().sum::<u64>(), h);
    }
}
