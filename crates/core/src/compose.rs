//! Composition of STTRs — the paper's main algorithm (§4.1) — and
//! pre-image computation, which shares the `Look` machinery.
//!
//! Given STTRs `S` and `T`, `compose(S, T)` builds `S∘T` with
//! `T_{S∘T} ⊇ T_T ∘ T_S` always, and equality when `S` is single-valued or
//! `T` is linear (Theorem 4). The construction is a least fixpoint over
//! *pair states* `p.q` starting from the initial pair: each composed rule
//! arises from a constrained rewrite reduction (`Reduce`) of a `T` state
//! applied to an `S` output, with label constraints propagated through
//! output label functions (`ψ(e(x))`) and regular lookahead carried by the
//! pre-image pairs produced by `Look`.

use crate::error::TransducerError;
use crate::out::Out;
use crate::sttr::{Sttr, TRule};
use fast_automata::{clean, normalize, normalize_rooted, Rule as StaRule, Sta, StateId};
use fast_smt::{Label, TransAlg};
use fast_trees::CtorId;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Budget on composed transformation rules.
pub const MAX_COMPOSED_RULES: usize = 1 << 17;

/// Tuning knobs for [`compose_with`] (used by the DESIGN.md §6 ablation
/// benchmarks; the defaults match the paper's algorithm).
#[derive(Debug, Clone, Copy)]
pub struct ComposeOptions {
    /// Eagerly drop reduction branches whose accumulated guard is
    /// unsatisfiable (the `IsSat` check in `Look` step 2(a)). Disabling
    /// this keeps the result semantically equivalent — rules with
    /// unsatisfiable guards never fire — but lets rule counts blow up.
    pub prune_unsat: bool,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions { prune_unsat: true }
    }
}
/// Budget on composed pair states (transformation or lookahead).
pub const MAX_PAIR_STATES: usize = 1 << 13;

/// The exactness verdict of a composition — *why* `T_{S∘T} = T_T ∘ T_S`
/// holds, or the Theorem 4 witnesses showing it may not.
///
/// [`compose`] always returns `T_{S∘T} ⊇ T_T ∘ T_S`; equality is
/// guaranteed only under one of the first two variants. The verdict is
/// part of [`Composed`], so no caller can silently treat an
/// over-approximation as exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exactness {
    /// The left factor is single-valued (proven via determinism,
    /// Definition 9), so composition is exact.
    LeftSingleValued,
    /// The right factor is linear (Definition 5), so composition is
    /// exact.
    RightLinear,
    /// Neither precondition holds: the composed transduction is a
    /// (possibly strict) over-approximation of `T_T ∘ T_S`.
    Overapproximate {
        /// Why the left factor is not (provably) single-valued: the
        /// overlapping rule pair, or the undecided-check error.
        left_witness: String,
        /// The right-factor rule whose output duplicates an input child.
        right_witness: String,
    },
}

impl Exactness {
    /// `true` iff the composed transduction equals `T_T ∘ T_S`.
    pub fn is_exact(&self) -> bool {
        !matches!(self, Exactness::Overapproximate { .. })
    }
}

impl std::fmt::Display for Exactness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exactness::LeftSingleValued => write!(f, "exact: left factor is single-valued"),
            Exactness::RightLinear => write!(f, "exact: right factor is linear"),
            Exactness::Overapproximate {
                left_witness,
                right_witness,
            } => write!(
                f,
                "over-approximate: left not single-valued ({left_witness}), \
                 right not linear ({right_witness})"
            ),
        }
    }
}

/// A composed transducer together with its exactness verdict.
#[derive(Debug)]
pub struct Composed<A: TransAlg<Elem = Label> = fast_smt::LabelAlg> {
    /// The composed STTR (`T_{sttr} ⊇ T_t ∘ T_s`, `=` iff
    /// `exactness.is_exact()`).
    pub sttr: Sttr<A>,
    /// Whether (and why) the composition is exact.
    pub exactness: Exactness,
}

/// Decides the Theorem 4 exactness verdict for `compose(s, t)` without
/// building the composition.
///
/// Left single-valuedness is decided *semantically* via
/// [`Sttr::single_valuedness`]: determinism (cheap) first, then — only
/// when the right factor is nonlinear, so the verdict actually matters —
/// the bounded output-equivalence product construction. A
/// single-valued-but-nondeterministic left factor therefore composes
/// exactly where the determinism-only check had to over-approximate.
pub fn compose_exactness<A: TransAlg<Elem = Label>>(s: &Sttr<A>, t: &Sttr<A>) -> Exactness {
    if matches!(s.nondeterministic_rules(), Ok(None)) {
        return Exactness::LeftSingleValued;
    }
    // Right linearity makes the composition exact regardless of the left
    // factor, so don't spend the semantic decision unless it matters.
    let nonlinear = t.nonlinear_rule();
    if nonlinear.is_none() {
        return Exactness::RightLinear;
    }
    let verdict = s.single_valuedness(crate::sv::SvBudget::default());
    if verdict.is_single() {
        return Exactness::LeftSingleValued;
    }
    match nonlinear {
        None => Exactness::RightLinear,
        Some((q, idx)) => Exactness::Overapproximate {
            left_witness: match verdict {
                crate::sv::SvVerdict::Ambiguous { witness, outputs } => format!(
                    "ambiguous: {} outputs on input {}",
                    outputs,
                    witness.display(s.ty())
                ),
                crate::sv::SvVerdict::Unknown { reason } => {
                    format!("single-valuedness undecided: {reason}")
                }
                crate::sv::SvVerdict::Single(_) => unreachable!("handled above"),
            },
            right_witness: format!("rule {} uses an input child twice", t.describe_rule(q, idx)),
        },
    }
}

/// Guard–lookahead pairs produced by `Look`.
type Looked<A> = Vec<(<A as fast_smt::BoolAlg>::Pred, Vec<BTreeSet<StateId>>)>;

/// Keeps composed state names readable when compositions nest deeply.
fn clip_name(s: &str) -> String {
    const MAX: usize = 48;
    if s.chars().count() <= MAX {
        s.to_string()
    } else {
        let head: String = s.chars().take(MAX - 1).collect();
        format!("{head}…")
    }
}

/// Extended terms manipulated by `Reduce`: `T`-state applications over
/// `S`-output subterms, plus already-instantiated output nodes.
enum Ext<'o, A: TransAlg> {
    /// `q̃(t)` where `q` is a `T` state and `t` an `S`-output subterm.
    TApp(StateId, &'o Out<A>),
    /// An output node with a composed label function.
    Node {
        ctor: CtorId,
        fun: A::Fun,
        children: Vec<Ext<'o, A>>,
    },
}

/// Builds pre-image pair states `(p, d)` denoting
/// `{ t | ∃u ∈ T_p(t), u ∈ L_d }` for `p` a transformation state of `s`
/// and `d` a state of the normalized target automaton `dt`.
struct PreimageBuilder<'a, A: TransAlg<Elem = Label>> {
    s: &'a Sttr<A>,
    dt: &'a Sta<A>,
    opts: ComposeOptions,
    /// The automaton under construction; starts as a copy of `s`'s
    /// lookahead STA so `s`-lookahead ids stay valid.
    out: Sta<A>,
    pairs: HashMap<(StateId, StateId), StateId>,
    queue: VecDeque<(StateId, StateId)>,
}

impl<'a, A: TransAlg<Elem = Label>> PreimageBuilder<'a, A> {
    fn new(s: &'a Sttr<A>, dt: &'a Sta<A>, opts: ComposeOptions) -> Self {
        PreimageBuilder {
            s,
            dt,
            opts,
            out: s.lookahead_sta().clone(),
            pairs: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    fn pair(&mut self, p: StateId, d: StateId) -> Result<StateId, TransducerError> {
        if let Some(&id) = self.pairs.get(&(p, d)) {
            return Ok(id);
        }
        if self.pairs.len() >= MAX_PAIR_STATES {
            return Err(TransducerError::Budget {
                context: "pre-image pair states",
                limit: MAX_PAIR_STATES,
            });
        }
        let name = clip_name(&format!(
            "{}⋅{}",
            self.s.state_name(p),
            self.dt.state_name(d)
        ));
        let id = self.out.push_state(name);
        self.pairs.insert((p, d), id);
        self.queue.push_back((p, d));
        fast_obs::count!("compose.preimage_pairs");
        Ok(id)
    }

    /// The `Look` procedure over an `S`-output term: accumulates label
    /// constraints from `dt` rules (substituted through output label
    /// functions) and records pair requirements for `S`-subtree calls.
    fn look(
        &mut self,
        gamma: A::Pred,
        la: Vec<BTreeSet<StateId>>,
        d: StateId,
        out: &Out<A>,
    ) -> Result<Looked<A>, TransducerError> {
        let alg = self.s.alg().clone();
        match out {
            Out::Call(p, i) => {
                let pd = self.pair(*p, d)?;
                let mut la = la;
                la[*i].insert(pd);
                Ok(vec![(gamma, la)])
            }
            Out::Node {
                ctor,
                fun,
                children,
            } => {
                let mut results = Vec::new();
                let dt_rules: Vec<(A::Pred, Vec<StateId>)> = self
                    .dt
                    .rules(d)
                    .iter()
                    .filter(|r| r.ctor == *ctor)
                    .map(|r| {
                        (
                            r.guard.clone(),
                            r.lookahead
                                .iter()
                                .map(|s| *s.iter().next().expect("dt is normalized"))
                                .collect(),
                        )
                    })
                    .collect();
                for (psi, kids_d) in dt_rules {
                    let g = alg.and(&gamma, &alg.subst_pred(&psi, fun));
                    if self.opts.prune_unsat && !alg.is_sat(&g) {
                        continue;
                    }
                    let mut branch = vec![(g, la.clone())];
                    for (i, child) in children.iter().enumerate() {
                        let mut next = Vec::new();
                        for (bg, bla) in branch {
                            next.extend(self.look(bg, bla, kids_d[i], child)?);
                        }
                        branch = next;
                        if branch.is_empty() {
                            break;
                        }
                    }
                    results.extend(branch);
                }
                Ok(results)
            }
        }
    }

    /// Processes all queued pairs, adding their STA rules (idempotent).
    fn drain(&mut self) -> Result<(), TransducerError> {
        while let Some((p, d)) = self.queue.pop_front() {
            let me = self.pairs[&(p, d)];
            for rule in self.s.rules(p).to_vec() {
                let rank = rule.lookahead.len();
                let base = vec![BTreeSet::new(); rank];
                for (g, la) in self.look(rule.guard.clone(), base, d, &rule.output)? {
                    let lookahead = (0..rank)
                        .map(|i| {
                            // s-lookahead ids are preserved in `out`.
                            rule.lookahead[i]
                                .iter()
                                .copied()
                                .chain(la[i].iter().copied())
                                .collect()
                        })
                        .collect();
                    self.out.push_rule(
                        me,
                        StaRule {
                            ctor: rule.ctor,
                            guard: g,
                            lookahead,
                        },
                    );
                }
            }
        }
        Ok(())
    }
}

/// Computes the pre-image STA: its designated state accepts exactly
/// `{ t | ∃u ∈ T_{sttr}(t), u ∈ L(target) }` (the language `pre-image t l`
/// of §3.5).
///
/// # Errors
///
/// Propagates state-budget errors.
///
/// # Panics
///
/// Panics if the transducer and automaton have different tree types.
pub fn preimage<A: TransAlg<Elem = Label>>(
    sttr: &Sttr<A>,
    target: &Sta<A>,
) -> Result<Sta<A>, TransducerError> {
    assert_eq!(sttr.ty(), target.ty(), "tree type mismatch");
    let _span = fast_obs::span!("compose.preimage");
    let norm = clean(&normalize(target)?);
    let mut b = PreimageBuilder::new(sttr, &norm, ComposeOptions::default());
    let root = b.pair(sttr.initial(), norm.initial())?;
    b.drain()?;
    Ok(b.out.with_initial(root))
}

/// Mutable composition state shared by `Reduce`.
struct ComposeCtx<'a, A: TransAlg<Elem = Label>> {
    s: &'a Sttr<A>,
    t: &'a Sttr<A>,
    la: PreimageBuilder<'a, A>,
    /// `(t-state, rule index, child) → dt state` for the domain-rule child
    /// requirements of every `t` rule.
    dt_child: HashMap<(usize, usize, usize), StateId>,
    names: Vec<String>,
    rules: Vec<Vec<TRule<A>>>,
    pair_ids: HashMap<(StateId, StateId), StateId>,
    pair_queue: VecDeque<(StateId, StateId)>,
    total_rules: usize,
}

type Reduced<A> = (
    <A as fast_smt::BoolAlg>::Pred,
    Vec<BTreeSet<StateId>>,
    Out<A>,
);

impl<'a, A: TransAlg<Elem = Label>> ComposeCtx<'a, A> {
    fn trans_pair(&mut self, p: StateId, q: StateId) -> Result<StateId, TransducerError> {
        if let Some(&id) = self.pair_ids.get(&(p, q)) {
            return Ok(id);
        }
        if self.pair_ids.len() >= MAX_PAIR_STATES {
            return Err(TransducerError::Budget {
                context: "composed pair states",
                limit: MAX_PAIR_STATES,
            });
        }
        let id = StateId(self.names.len());
        self.names.push(clip_name(&format!(
            "{}.{}",
            self.s.state_name(p),
            self.t.state_name(q)
        )));
        self.rules.push(Vec::new());
        self.pair_ids.insert((p, q), id);
        self.pair_queue.push_back((p, q));
        fast_obs::count!("compose.pair_states");
        Ok(id)
    }

    /// Instantiates a `t`-rule output on an `S`-output node: `x := e(x)`
    /// (label-function composition) and `ȳ := ū` (the node's children).
    fn instantiate<'o>(&self, out: &Out<A>, e: &A::Fun, s_children: &'o [Out<A>]) -> Ext<'o, A> {
        match out {
            Out::Call(q2, j) => Ext::TApp(*q2, &s_children[*j]),
            Out::Node {
                ctor,
                fun,
                children,
            } => Ext::Node {
                ctor: *ctor,
                fun: self.s.alg().compose_fun(fun, e),
                children: children
                    .iter()
                    .map(|c| self.instantiate(c, e, s_children))
                    .collect(),
            },
        }
    }

    /// The `Reduce` procedure: rewrites `v` until no `T` application
    /// remains, collecting guard and lookahead constraints plus the
    /// composed output term.
    fn reduce(
        &mut self,
        gamma: A::Pred,
        la: Vec<BTreeSet<StateId>>,
        v: &Ext<'_, A>,
    ) -> Result<Vec<Reduced<A>>, TransducerError> {
        fast_obs::count!("compose.reduce_iterations");
        let _span = fast_obs::span!("compose.reduce");
        let alg = self.s.alg().clone();
        match v {
            // Case 1: q̃(p̃(yᵢ)) → p.q(yᵢ).
            Ext::TApp(q, Out::Call(p, i)) => {
                let pq = self.trans_pair(*p, *q)?;
                Ok(vec![(gamma, la, Out::Call(pq, *i))])
            }
            // Case 2: q̃(g[e(x)](ū)).
            Ext::TApp(
                q,
                Out::Node {
                    ctor,
                    fun,
                    children,
                },
            ) => {
                let mut results = Vec::new();
                let taus = self.t.rules(*q).to_vec();
                for (ri, tau) in taus.iter().enumerate() {
                    if tau.ctor != *ctor {
                        continue;
                    }
                    // Guard of τ through the S-output label function (Look
                    // on the virtual state q_τ, step 2(b)).
                    let g1 = alg.and(&gamma, &alg.subst_pred(&tau.guard, fun));
                    if self.la.opts.prune_unsat && !alg.is_sat(&g1) {
                        continue;
                    }
                    // Lookahead of τ's domain rule, child by child.
                    let mut branch = vec![(g1, la.clone())];
                    for (i, child) in children.iter().enumerate() {
                        let d = self.dt_child[&(q.0, ri, i)];
                        let mut next = Vec::new();
                        for (bg, bla) in branch {
                            next.extend(self.la.look(bg, bla, d, child)?);
                        }
                        branch = next;
                        if branch.is_empty() {
                            break;
                        }
                    }
                    for (bg, bla) in branch {
                        let inst = self.instantiate(&tau.output, fun, children);
                        results.extend(self.reduce(bg, bla, &inst)?);
                    }
                }
                Ok(results)
            }
            // Case 3: an output node — reduce children left to right,
            // threading constraints and taking the cartesian product of
            // alternatives.
            Ext::Node {
                ctor,
                fun,
                children,
            } => {
                type Partial<A> = (
                    <A as fast_smt::BoolAlg>::Pred,
                    Vec<BTreeSet<StateId>>,
                    Vec<Out<A>>,
                );
                let mut acc: Vec<Partial<A>> = vec![(gamma, la, Vec::new())];
                for child in children {
                    let mut next = Vec::new();
                    for (bg, bla, kids) in &acc {
                        for (cg, cla, cout) in self.reduce(bg.clone(), bla.clone(), child)? {
                            let mut ks = kids.clone();
                            ks.push(cout);
                            next.push((cg, cla, ks));
                        }
                    }
                    acc = next;
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc
                    .into_iter()
                    .map(|(g, l, kids)| {
                        (
                            g,
                            l,
                            Out::Node {
                                ctor: *ctor,
                                fun: fun.clone(),
                                children: kids,
                            },
                        )
                    })
                    .collect())
            }
        }
    }
}

/// Composes two STTRs: `T_{composed} ⊇ T_t ∘ T_s`, with equality when
/// `s` is single-valued or `t` is linear (Theorem 4). Note the
/// application order: `compose(s, t)` first runs `s`, then `t`, matching
/// the paper's `(compose s t)`.
///
/// The result carries its [`Exactness`] verdict; when neither Theorem 4
/// precondition holds the caller sees `Exactness::Overapproximate` with
/// the violating rules and must decide whether the over-approximation is
/// acceptable (it is for pre-image-style analyses, it is not for fused
/// evaluation). Use [`try_compose_exact`] to turn inexactness into an
/// error instead.
///
/// # Errors
///
/// Returns budget errors if pair states or composed rules exceed
/// [`MAX_PAIR_STATES`] / [`MAX_COMPOSED_RULES`], and propagates automata
/// errors from normalizing `t`'s domain automaton.
///
/// # Panics
///
/// Panics if the transducers have different tree types.
pub fn compose<A: TransAlg<Elem = Label>>(
    s: &Sttr<A>,
    t: &Sttr<A>,
) -> Result<Composed<A>, TransducerError> {
    compose_with(s, t, ComposeOptions::default())
}

/// Exact composition or nothing: composes `s` then `t` and returns the
/// fused transducer only when one of the Theorem 4 preconditions holds.
///
/// # Errors
///
/// Returns [`TransducerError::InexactComposition`] (carrying the
/// violating rules of both factors) when `s` is not single-valued and
/// `t` is not linear — checked *before* building the composition, so the
/// failure is cheap. Otherwise propagates the same budget errors as
/// [`compose`].
///
/// # Panics
///
/// Panics if the transducers have different tree types.
pub fn try_compose_exact<A: TransAlg<Elem = Label>>(
    s: &Sttr<A>,
    t: &Sttr<A>,
) -> Result<Sttr<A>, TransducerError> {
    assert_eq!(s.ty(), t.ty(), "tree type mismatch");
    let exactness = compose_exactness(s, t);
    if let Exactness::Overapproximate {
        left_witness,
        right_witness,
    } = exactness
    {
        return Err(TransducerError::InexactComposition {
            left_witness,
            right_witness,
        });
    }
    Ok(compose_decided(s, t, ComposeOptions::default(), exactness)?.sttr)
}

/// [`compose`] with explicit [`ComposeOptions`].
///
/// # Errors
///
/// Same as [`compose`].
///
/// # Panics
///
/// Panics if the transducers have different tree types.
pub fn compose_with<A: TransAlg<Elem = Label>>(
    s: &Sttr<A>,
    t: &Sttr<A>,
    opts: ComposeOptions,
) -> Result<Composed<A>, TransducerError> {
    assert_eq!(s.ty(), t.ty(), "tree type mismatch");
    compose_decided(s, t, opts, compose_exactness(s, t))
}

/// [`compose_with`] with the Theorem 4 verdict already decided.
fn compose_decided<A: TransAlg<Elem = Label>>(
    s: &Sttr<A>,
    t: &Sttr<A>,
    opts: ComposeOptions,
    exactness: Exactness,
) -> Result<Composed<A>, TransducerError> {
    let _span = fast_obs::span!("compose.total");
    let alg = s.alg().clone();

    // Normalized domain automaton of t, rooted at every per-rule child
    // requirement (lookahead ∪ output states — Definition 6).
    let dom_t = t.domain();
    let n_t = t.state_count();
    let mut roots: Vec<BTreeSet<StateId>> = Vec::new();
    let mut root_index: HashMap<BTreeSet<StateId>, usize> = HashMap::new();
    let mut rule_child_root: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for q in t.states() {
        for (ri, rule) in t.rules(q).iter().enumerate() {
            for i in 0..rule.lookahead.len() {
                let mut set: BTreeSet<StateId> = rule.lookahead[i]
                    .iter()
                    .map(|la| StateId(la.0 + n_t))
                    .collect();
                let mut st = BTreeSet::new();
                rule.output.states_on_child(i, &mut st);
                set.extend(st);
                let idx = *root_index.entry(set.clone()).or_insert_with(|| {
                    roots.push(set);
                    roots.len() - 1
                });
                rule_child_root.insert((q.0, ri, i), idx);
            }
        }
    }
    let (dt_raw, root_ids) = normalize_rooted(&dom_t, roots)?;
    let dt = clean(&dt_raw);
    let dt_child: HashMap<(usize, usize, usize), StateId> = rule_child_root
        .into_iter()
        .map(|(k, idx)| (k, root_ids[idx]))
        .collect();

    let mut ctx = ComposeCtx {
        s,
        t,
        la: PreimageBuilder::new(s, &dt, opts),
        dt_child,
        names: Vec::new(),
        rules: Vec::new(),
        pair_ids: HashMap::new(),
        pair_queue: VecDeque::new(),
        total_rules: 0,
    };

    ctx.trans_pair(s.initial(), t.initial())?;
    while let Some((p, q)) = ctx.pair_queue.pop_front() {
        let me = ctx.pair_ids[&(p, q)];
        for s_rule in s.rules(p).to_vec() {
            let rank = s_rule.lookahead.len();
            let v = Ext::TApp(q, &s_rule.output);
            let triples = ctx.reduce(s_rule.guard.clone(), vec![BTreeSet::new(); rank], &v)?;
            for (g, l, out) in triples {
                ctx.total_rules += 1;
                if ctx.total_rules > MAX_COMPOSED_RULES {
                    return Err(TransducerError::Budget {
                        context: "composed rules",
                        limit: MAX_COMPOSED_RULES,
                    });
                }
                let lookahead = (0..rank)
                    .map(|i| {
                        s_rule.lookahead[i]
                            .iter()
                            .copied()
                            .chain(l[i].iter().copied())
                            .collect()
                    })
                    .collect();
                ctx.rules[me.0].push(TRule {
                    ctor: s_rule.ctor,
                    guard: g,
                    lookahead,
                    output: out,
                });
            }
        }
    }
    ctx.la.drain()?;

    let initial = ctx.pair_ids[&(s.initial(), t.initial())];
    let composed = Sttr::from_parts(
        s.ty().clone(),
        alg,
        ctx.names,
        ctx.rules,
        ctx.la.out,
        initial,
    );
    // Trivial lookahead accumulates one pair per composition layer; prune
    // it so deeply fused transducers run as fast as shallow ones (§5.3).
    Ok(Composed {
        sttr: composed.prune_lookahead(),
        exactness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sttr::fixtures::{filter_ev, ilist, ilist_alg, map_caesar};
    use crate::sttr::SttrBuilder;
    use fast_smt::{Atom, Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
    use fast_trees::{Tree, TreeGen, TreeType};
    use std::sync::Arc;

    /// Reference semantics: run `s` then `t` pointwise.
    fn sequential(s: &Sttr, t: &Sttr, input: &Tree) -> Vec<Tree> {
        let mut out = std::collections::BTreeSet::new();
        for mid in s.run(input).unwrap() {
            for fin in t.run(&mid).unwrap() {
                out.insert(fin);
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn compose_map_with_map() {
        let m = map_caesar();
        let c = compose(&m, &m).unwrap();
        assert_eq!(c.exactness, Exactness::LeftSingleValued);
        let c = c.sttr;
        let ty = m.ty().clone();
        let mut g = TreeGen::new(31).with_max_depth(8).with_int_range(-40, 40);
        for _ in 0..50 {
            let t = g.tree(&ty);
            assert_eq!(c.run(&t).unwrap(), sequential(&m, &m, &t));
        }
    }

    #[test]
    fn compose_map_with_filter_both_orders() {
        let m = map_caesar();
        let f = filter_ev();
        let mf = compose(&m, &f).unwrap().sttr;
        let fm = compose(&f, &m).unwrap().sttr;
        let ty = m.ty().clone();
        let mut g = TreeGen::new(37).with_max_depth(8).with_int_range(-40, 40);
        for _ in 0..50 {
            let t = g.tree(&ty);
            assert_eq!(
                mf.run(&t).unwrap(),
                sequential(&m, &f, &t),
                "m;f on {}",
                t.display(&ty)
            );
            assert_eq!(
                fm.run(&t).unwrap(),
                sequential(&f, &m, &t),
                "f;m on {}",
                t.display(&ty)
            );
        }
    }

    /// The paper's Example 4: deletion requires regular lookahead to keep
    /// the composed domain right.
    fn bbt() -> Arc<TreeType> {
        TreeType::new(
            "BBT",
            LabelSig::single("b", Sort::Bool),
            vec![("L", 0), ("N", 2)],
        )
    }

    fn example4() -> (Sttr, Sttr) {
        let ty = bbt();
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let b_true = Formula::atom(Atom::BoolTerm(Term::field(0)));

        // s1: identity, defined only on all-true trees.
        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let s1q = b.state("s1");
        b.plain_rule(
            s1q,
            l,
            b_true.clone(),
            Out::node(l, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            s1q,
            n,
            b_true,
            Out::node(
                n,
                LabelFn::identity(1),
                vec![Out::Call(s1q, 0), Out::Call(s1q, 1)],
            ),
        );
        let s1 = b.build(s1q);

        // s2: always outputs L[true], deleting all subtrees.
        let mut b = SttrBuilder::new(ty, alg);
        let s2q = b.state("s2");
        let ltrue = Out::node(l, LabelFn::new(vec![Term::bool(true)]), vec![]);
        b.plain_rule(s2q, l, Formula::True, ltrue.clone());
        b.plain_rule(s2q, n, Formula::True, ltrue);
        let s2 = b.build(s2q);
        (s1, s2)
    }

    #[test]
    fn example4_deletion_keeps_domain() {
        let (s1, s2) = example4();
        assert!(s2.is_linear()); // right factor linear ⇒ exact composition
        let c = compose(&s1, &s2).unwrap();
        assert!(c.exactness.is_exact());
        let c = c.sttr;
        let ty = s1.ty().clone();
        let all_true = Tree::parse(&ty, "N[true](L[true], L[true])").unwrap();
        let has_false = Tree::parse(&ty, "N[true](L[true], L[false])").unwrap();
        // Composed: L[true] iff every node label is true. Crucially the
        // false-under-deleted-subtree case must produce NOTHING, which an
        // STT without lookahead cannot express (Example 4).
        assert_eq!(c.run(&all_true).unwrap().len(), 1);
        assert!(c.run(&has_false).unwrap().is_empty());
        let mut g = TreeGen::new(41).with_max_depth(5);
        for _ in 0..80 {
            let t = g.tree(&ty);
            assert_eq!(c.run(&t).unwrap(), sequential(&s1, &s2, &t));
        }
    }

    /// Example 9 shape: nondeterministic S + duplicating T composes to an
    /// over-approximation.
    fn example9() -> (Sttr, Sttr) {
        let ty = TreeType::new(
            "E9",
            LabelSig::single("i", Sort::Int),
            vec![("c", 0), ("g", 1), ("f", 2), ("A", 0), ("B", 0)],
        );
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        let c = ty.ctor_id("c").unwrap();
        let g = ty.ctor_id("g").unwrap();
        let f = ty.ctor_id("f").unwrap();
        let a = ty.ctor_id("A").unwrap();
        let bb = ty.ctor_id("B").unwrap();
        let zero = LabelFn::new(vec![Term::int(0)]);

        // S: g(y) → g(p(y)); p(c) → A | B   (nondeterministic on leaves)
        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let s0 = b.state("s0");
        let p = b.state("p");
        b.plain_rule(
            s0,
            g,
            Formula::True,
            Out::node(g, zero.clone(), vec![Out::Call(p, 0)]),
        );
        b.plain_rule(p, c, Formula::True, Out::node(a, zero.clone(), vec![]));
        b.plain_rule(p, c, Formula::True, Out::node(bb, zero.clone(), vec![]));
        let s = b.build(s0);

        // T: g(y) → f(q(y), q(y))  (duplication); q copies A and B.
        let mut b = SttrBuilder::new(ty, alg);
        let t0 = b.state("t0");
        let q = b.state("q");
        b.plain_rule(
            t0,
            g,
            Formula::True,
            Out::node(f, zero.clone(), vec![Out::Call(q, 0), Out::Call(q, 0)]),
        );
        b.plain_rule(q, a, Formula::True, Out::node(a, zero.clone(), vec![]));
        b.plain_rule(q, bb, Formula::True, Out::node(bb, zero, vec![]));
        let t = b.build(t0);
        (s, t)
    }

    #[test]
    fn example9_overapproximates() {
        let (s, t) = example9();
        assert!(!t.is_linear()); // duplication
        assert!(!s.is_deterministic().unwrap()); // nondeterminism
        let c = compose(&s, &t).unwrap();
        assert!(
            matches!(c.exactness, Exactness::Overapproximate { .. }),
            "verdict must flag the over-approximation: {}",
            c.exactness
        );
        match try_compose_exact(&s, &t) {
            Err(TransducerError::InexactComposition {
                left_witness,
                right_witness,
            }) => {
                // The semantic decision upgrades the witness from a rule
                // pair to a run-verified ambiguous input.
                assert!(left_witness.contains("ambiguous"), "{left_witness}");
                assert!(right_witness.contains("twice"), "{right_witness}");
            }
            other => panic!("expected InexactComposition, got {other:?}"),
        }
        let c = c.sttr;
        let ty = s.ty().clone();
        let input = Tree::parse(&ty, "g[0](c[0])").unwrap();
        let exact: Vec<Tree> = sequential(&s, &t, &input);
        let approx = c.run(&input).unwrap();
        // Exact: f(A,A), f(B,B). Approximation adds f(A,B), f(B,A).
        assert_eq!(exact.len(), 2);
        assert_eq!(approx.len(), 4, "Theorem 4: ⊇ but not =");
        for e in &exact {
            assert!(approx.contains(e), "composition must over-approximate");
        }
    }

    #[test]
    fn nondet_but_single_valued_left_composes_exactly() {
        // Left: two overlapping leaf rules with semantically equal
        // outputs (identity vs. x*1, overlapping at x = 0). Right:
        // duplicates child 0 — nonlinear. The determinism-only check
        // would over-approximate here; the semantic single-valuedness
        // decision proves the left factor single-valued, so the
        // composition is exact and agrees with sequential runs.
        let ty = TreeType::new(
            "IT",
            LabelSig::single("i", Sort::Int),
            vec![("leaf", 0), ("node", 2)],
        );
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        let leaf = ty.ctor_id("leaf").unwrap();
        let node = ty.ctor_id("node").unwrap();

        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let q = b.state("norm");
        b.plain_rule(
            q,
            leaf,
            Formula::cmp(fast_smt::CmpOp::Ge, Term::field(0), Term::int(0)),
            Out::node(leaf, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            q,
            leaf,
            Formula::cmp(fast_smt::CmpOp::Le, Term::field(0), Term::int(0)),
            Out::node(
                leaf,
                LabelFn::new(vec![Term::field(0).mul(Term::int(1))]),
                vec![],
            ),
        );
        b.plain_rule(
            q,
            node,
            Formula::True,
            Out::node(
                node,
                LabelFn::identity(1),
                vec![Out::Call(q, 0), Out::Call(q, 1)],
            ),
        );
        let s = b.build(q);
        assert!(!s.is_deterministic().unwrap());
        assert!(s.is_single_valued());

        let mut b = SttrBuilder::new(ty.clone(), alg);
        let d = b.state("dup");
        b.plain_rule(
            d,
            leaf,
            Formula::True,
            Out::node(leaf, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            d,
            node,
            Formula::True,
            Out::node(
                node,
                LabelFn::identity(1),
                vec![Out::Call(d, 0), Out::Call(d, 0)],
            ),
        );
        let t = b.build(d);
        assert!(!t.is_linear());

        assert_eq!(
            compose_exactness(&s, &t),
            Exactness::LeftSingleValued,
            "nondet-but-single-valued left must now compose exactly"
        );
        let c = compose(&s, &t).unwrap();
        assert!(c.exactness.is_exact());
        let mut g = TreeGen::new(53).with_max_depth(5).with_int_range(-9, 9);
        for _ in 0..40 {
            let input = g.tree(&ty);
            assert_eq!(c.sttr.run(&input).unwrap(), sequential(&s, &t, &input));
        }
    }

    #[test]
    fn preimage_of_filter() {
        // pre-image of "non-empty list" under filter_ev = lists containing
        // at least one even element.
        use fast_automata::StaBuilder;
        let f = filter_ev();
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = StaBuilder::new(ty.clone(), alg);
        let ne = b.state("non_empty");
        b.rule(
            ne,
            cons,
            Formula::True,
            vec![std::collections::BTreeSet::new()],
        );
        let non_empty = b.build(ne);

        let pre = preimage(&f, &non_empty).unwrap();
        let has_even = |t: &Tree| {
            t.iter()
                .any(|n| n.ctor() == cons && n.label().get(0).as_int().unwrap().rem_euclid(2) == 0)
        };
        let mut g = TreeGen::new(43).with_max_depth(7).with_int_range(-9, 9);
        for _ in 0..100 {
            let t = g.tree(&ty);
            assert_eq!(pre.accepts(&t), has_even(&t), "on {}", t.display(&ty));
        }
    }

    #[test]
    fn compose_chain_stays_flat() {
        // Composing map_caesar with itself n times still runs in one pass
        // and agrees with n sequential runs.
        let m = map_caesar();
        let mut fused = m.clone();
        for _ in 0..4 {
            fused = compose(&fused, &m).unwrap().sttr;
        }
        let ty = m.ty().clone();
        let t = Tree::parse(&ty, "cons[0](cons[13](nil[0]))").unwrap();
        let mut expect = t.clone();
        for _ in 0..5 {
            expect = m.run(&expect).unwrap().pop().unwrap();
        }
        assert_eq!(fused.run(&t).unwrap(), vec![expect]);
        // Single state pair chain; rules stay small.
        assert!(fused.rule_count() <= 8, "rules: {}", fused.rule_count());
    }
}
