//! Symbolic tree transducers with regular lookahead (Definition 5).

use crate::error::TransducerError;
use crate::out::Out;
use fast_automata::{is_empty_at, AutomataError, Rule as StaRule, Sta, StateId};
use fast_smt::{Label, LabelAlg, TransAlg};
use fast_trees::{CtorId, Tree, TreeId, TreeType};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Default bound on the number of output trees a run may produce
/// (nondeterministic transducers can be exponential).
pub const DEFAULT_RUN_CAP: usize = 1 << 16;

/// A transformation rule `(q, f, φ, ℓ̄, t)`: from state `q`, on a node
/// `f[x](ȳ)` whose label satisfies `φ` and whose child `i` lies in the
/// language of every lookahead state in `ℓ̄ᵢ`, produce the output term `t`.
#[derive(Debug)]
pub struct TRule<A: TransAlg> {
    /// Input constructor.
    pub ctor: CtorId,
    /// Guard over the input label.
    pub guard: A::Pred,
    /// Per-child conjunctive sets of *lookahead automaton* states.
    pub lookahead: Vec<BTreeSet<StateId>>,
    /// Output tree transformer.
    pub output: Out<A>,
}

impl<A: TransAlg> Clone for TRule<A> {
    fn clone(&self) -> Self {
        TRule {
            ctor: self.ctor,
            guard: self.guard.clone(),
            lookahead: self.lookahead.clone(),
            output: self.output.clone(),
        }
    }
}

/// A symbolic tree transducer with regular lookahead (STTR).
///
/// The transducer owns two state spaces: *transformation* states (with
/// [`TRule`]s) and a bundled *lookahead* STA whose states are referenced by
/// rule lookaheads. The domain automaton (Definition 6) spans both.
///
/// # Examples
///
/// A transducer implementing the paper's `map_caesar` (Fig. 8):
///
/// ```
/// use fast_core::{Out, SttrBuilder};
/// use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
/// use fast_trees::{Tree, TreeType};
/// use std::sync::Arc;
///
/// let ilist = TreeType::new("IList", LabelSig::single("i", Sort::Int),
///                           vec![("nil", 0), ("cons", 1)]);
/// let alg = Arc::new(LabelAlg::new(ilist.sig().clone()));
/// let (nil, cons) = (ilist.ctor_id("nil").unwrap(), ilist.ctor_id("cons").unwrap());
///
/// let mut b = SttrBuilder::new(ilist.clone(), alg);
/// let q = b.state("map_caesar");
/// b.rule(q, nil, Formula::True, vec![],
///        Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]));
/// b.rule(q, cons, Formula::True, vec![Default::default()],
///        Out::node(cons,
///                  LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]),
///                  vec![Out::Call(q, 0)]));
/// let map = b.build(q);
///
/// let input = Tree::parse(&ilist, "cons[30](cons[7](nil[0]))").unwrap();
/// let out = map.run(&input).unwrap();
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].display(&ilist).to_string(), "cons[9](cons[12](nil[0]))");
/// ```
#[derive(Debug)]
pub struct Sttr<A: TransAlg<Elem = Label> = LabelAlg> {
    ty: Arc<TreeType>,
    alg: Arc<A>,
    names: Vec<String>,
    rules: Vec<Vec<TRule<A>>>,
    la: Sta<A>,
    initial: StateId,
}

impl<A: TransAlg<Elem = Label>> Clone for Sttr<A> {
    fn clone(&self) -> Self {
        Sttr {
            ty: self.ty.clone(),
            alg: self.alg.clone(),
            names: self.names.clone(),
            rules: self.rules.clone(),
            la: self.la.clone(),
            initial: self.initial,
        }
    }
}

impl<A: TransAlg<Elem = Label>> Sttr<A> {
    /// The tree type.
    pub fn ty(&self) -> &Arc<TreeType> {
        &self.ty
    }

    /// The label algebra.
    pub fn alg(&self) -> &Arc<A> {
        &self.alg
    }

    /// The initial transformation state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of transformation states.
    pub fn state_count(&self) -> usize {
        self.rules.len()
    }

    /// Total number of transformation rules.
    pub fn rule_count(&self) -> usize {
        self.rules.iter().map(Vec::len).sum()
    }

    /// All transformation states.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.rules.len()).map(StateId)
    }

    /// Debug name of a transformation state.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn state_name(&self, q: StateId) -> &str {
        &self.names[q.0]
    }

    /// Rules of a transformation state.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn rules(&self, q: StateId) -> &[TRule<A>] {
        &self.rules[q.0]
    }

    /// The bundled lookahead automaton (its states are what rule
    /// lookaheads reference).
    pub fn lookahead_sta(&self) -> &Sta<A> {
        &self.la
    }

    /// Re-designates the initial state.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn with_initial(mut self, q: StateId) -> Self {
        assert!(q.0 < self.rules.len());
        self.initial = q;
        self
    }

    pub(crate) fn from_parts(
        ty: Arc<TreeType>,
        alg: Arc<A>,
        names: Vec<String>,
        rules: Vec<Vec<TRule<A>>>,
        la: Sta<A>,
        initial: StateId,
    ) -> Self {
        Sttr {
            ty,
            alg,
            names,
            rules,
            la,
            initial,
        }
    }

    pub(crate) fn absorb_lookahead(&mut self, la: &Sta<A>) -> usize {
        self.la.absorb(la)
    }

    pub(crate) fn push_state(&mut self, name: String) -> StateId {
        self.names.push(name);
        self.rules.push(Vec::new());
        StateId(self.rules.len() - 1)
    }

    pub(crate) fn push_rule(&mut self, q: StateId, rule: TRule<A>) {
        assert_eq!(
            rule.lookahead.len(),
            self.ty.rank(rule.ctor),
            "lookahead arity must equal constructor rank"
        );
        self.rules[q.0].push(rule);
    }

    /// Runs the transduction `T_q0` on `t`, returning the set of outputs
    /// (deduplicated, deterministic order).
    ///
    /// Evaluation recurses on tree depth; inputs tens of thousands of
    /// levels deep may need a larger thread stack.
    ///
    /// # Errors
    ///
    /// Returns a budget error if more than [`DEFAULT_RUN_CAP`] outputs
    /// would be produced.
    pub fn run(&self, t: &Tree) -> Result<Vec<Tree>, TransducerError> {
        self.run_bounded(t, DEFAULT_RUN_CAP)
    }

    /// Runs the transduction at the initial state with an explicit output
    /// cap.
    ///
    /// # Cap contract
    ///
    /// `cap` bounds the size of every intermediate and final output set.
    /// Hitting the cap **errors — it never truncates**: a run either
    /// returns the complete output set (of size ≤ `cap`) or fails with
    /// [`TransducerError::Budget`]. In particular `cap == 0` means "no
    /// outputs allowed": inputs outside the domain still return
    /// `Ok(vec![])`, while any input that would produce an output errors.
    /// `fast-rt`'s `Plan::run_batch` honors the same contract per item.
    ///
    /// # Errors
    ///
    /// Returns [`TransducerError::Budget`] if the intermediate or final
    /// output set would exceed `cap`.
    pub fn run_bounded(&self, t: &Tree, cap: usize) -> Result<Vec<Tree>, TransducerError> {
        self.run_at(self.initial, t, cap)
    }

    /// Runs the transduction `T_q` on `t`.
    ///
    /// # Errors
    ///
    /// Returns [`TransducerError::Budget`] on output-set blowup past `cap`.
    pub fn run_at(&self, q: StateId, t: &Tree, cap: usize) -> Result<Vec<Tree>, TransducerError> {
        let la_map = if self.la.state_count() > 0 {
            Some(self.la.eval_states_map(t))
        } else {
            None
        };
        let mut memo: HashMap<(usize, TreeId), Rc<Vec<Tree>>> = HashMap::new();
        let r = self.transduce(q, t, &la_map, &mut memo, cap)?;
        Ok(r.as_ref().clone())
    }

    fn transduce(
        &self,
        q: StateId,
        t: &Tree,
        la_map: &Option<HashMap<TreeId, BTreeSet<StateId>>>,
        memo: &mut HashMap<(usize, TreeId), Rc<Vec<Tree>>>,
        cap: usize,
    ) -> Result<Rc<Vec<Tree>>, TransducerError> {
        let key = (q.0, t.id());
        if let Some(r) = memo.get(&key) {
            return Ok(r.clone());
        }
        // Deterministic transducers produce at most one output per rule
        // set; defer the (structurally expensive) dedup until more than
        // one candidate actually shows up.
        let mut out: Vec<Tree> = Vec::new();
        for r in self.rules(q) {
            if r.ctor != t.ctor() || !self.alg.eval(&r.guard, t.label()) {
                continue;
            }
            // Lookahead check (Definition 7: tᵢ ∈ L^{ℓᵢ}).
            let la_ok = r.lookahead.iter().enumerate().all(|(i, s)| {
                s.is_empty()
                    || match la_map {
                        Some(m) => s.is_subset(&m[&t.child(i).id()]),
                        None => false,
                    }
            });
            if !la_ok {
                continue;
            }
            out.extend(self.eval_out(&r.output, t, la_map, memo, cap)?);
            if out.len() > cap {
                return Err(TransducerError::Budget {
                    context: "run",
                    limit: cap,
                });
            }
        }
        if out.len() > 1 {
            let set: BTreeSet<Tree> = out.into_iter().collect();
            out = set.into_iter().collect();
        }
        let rc = Rc::new(out);
        memo.insert(key, rc.clone());
        Ok(rc)
    }

    fn eval_out(
        &self,
        out: &Out<A>,
        t: &Tree,
        la_map: &Option<HashMap<TreeId, BTreeSet<StateId>>>,
        memo: &mut HashMap<(usize, TreeId), Rc<Vec<Tree>>>,
        cap: usize,
    ) -> Result<Vec<Tree>, TransducerError> {
        match out {
            Out::Call(q, i) => Ok(self
                .transduce(*q, t.child(*i), la_map, memo, cap)?
                .as_ref()
                .clone()),
            Out::Node {
                ctor,
                fun,
                children,
            } => {
                let Some(label) = self.alg.apply_fun(fun, t.label()) else {
                    return Ok(Vec::new());
                };
                let mut per_child: Vec<Vec<Tree>> = Vec::with_capacity(children.len());
                for c in children {
                    per_child.push(self.eval_out(c, t, la_map, memo, cap)?);
                }
                // Fast path for the deterministic case: exactly one
                // alternative per child, no cartesian machinery.
                if per_child.iter().all(|v| v.len() == 1) {
                    let kids: Vec<Tree> = per_child
                        .into_iter()
                        .map(|mut v| v.pop().unwrap())
                        .collect();
                    return Ok(vec![Tree::new(*ctor, label, kids)]);
                }
                // Cartesian product over child alternatives.
                let mut acc: Vec<Vec<Tree>> = vec![Vec::with_capacity(children.len())];
                for opts in &per_child {
                    let mut next = Vec::with_capacity(acc.len() * opts.len().max(1));
                    for partial in &acc {
                        for o in opts {
                            let mut p = partial.clone();
                            p.push(o.clone());
                            next.push(p);
                            if next.len() > cap {
                                return Err(TransducerError::Budget {
                                    context: "run",
                                    limit: cap,
                                });
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc
                    .into_iter()
                    .map(|kids| Tree::new(*ctor, label.clone(), kids))
                    .collect())
            }
        }
    }

    /// The domain automaton `d(S)` (Definition 6): an STA over the
    /// combined state space (transformation states first, then lookahead
    /// states) accepting at `q` exactly the trees on which `T_q` is
    /// defined.
    pub fn domain(&self) -> Sta<A> {
        let mut out: Sta<A> = Sta::from_parts(
            self.ty.clone(),
            self.alg.clone(),
            Vec::new(),
            Vec::new(),
            StateId(0),
        );
        let n = self.state_count();
        for q in self.states() {
            out.push_state(format!("d:{}", self.names[q.0]));
        }
        for s in self.la.states() {
            out.push_state(format!("la:{}", self.la.state_name(s)));
        }
        // Lookahead rules, offset by n.
        for s in self.la.states() {
            for r in self.la.rules(s) {
                out.push_rule(
                    StateId(s.0 + n),
                    StaRule {
                        ctor: r.ctor,
                        guard: r.guard.clone(),
                        lookahead: r
                            .lookahead
                            .iter()
                            .map(|set| set.iter().map(|q| StateId(q.0 + n)).collect())
                            .collect(),
                    },
                );
            }
        }
        // Transformation rules: lookahead ∪ St(i, output).
        for q in self.states() {
            for r in self.rules(q) {
                let lookahead = (0..r.lookahead.len())
                    .map(|i| {
                        let mut set: BTreeSet<StateId> =
                            r.lookahead[i].iter().map(|s| StateId(s.0 + n)).collect();
                        let mut st = BTreeSet::new();
                        r.output.states_on_child(i, &mut st);
                        set.extend(st);
                        set
                    })
                    .collect();
                out.push_rule(
                    q,
                    StaRule {
                        ctor: r.ctor,
                        guard: r.guard.clone(),
                        lookahead,
                    },
                );
            }
        }
        out.with_initial(self.initial)
    }

    /// Removes provably redundant lookahead: states of the lookahead STA
    /// that accept *every* tree (detected by a greatest-fixpoint over
    /// syntactically-true guards) are dropped from rule lookahead sets,
    /// and lookahead states no longer referenced are garbage-collected.
    ///
    /// Composition chains produce one trivial lookahead pair per layer
    /// (e.g. fusing `map` with itself n times); without pruning, running
    /// the fused transducer would pay O(n) lookahead evaluation per node,
    /// defeating deforestation (§5.3).
    pub fn prune_lookahead(&self) -> Sttr<A> {
        let la = &self.la;
        let tt = self.alg.tt();
        // Greatest fixpoint: assume universal, demote states lacking an
        // unconditioned rule for some constructor.
        let mut universal = vec![true; la.state_count()];
        loop {
            let mut changed = false;
            for q in la.states() {
                if !universal[q.0] {
                    continue;
                }
                let ok = self.ty.ctor_ids().all(|ctor| {
                    la.rules(q).iter().any(|r| {
                        r.ctor == ctor
                            && r.guard == tt
                            && r.lookahead.iter().all(|s| s.iter().all(|p| universal[p.0]))
                    })
                });
                if !ok {
                    universal[q.0] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Strip universal states from transducer rule lookaheads.
        let stripped: Vec<Vec<TRule<A>>> = self
            .rules
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| TRule {
                        ctor: r.ctor,
                        guard: r.guard.clone(),
                        lookahead: r
                            .lookahead
                            .iter()
                            .map(|s| s.iter().copied().filter(|p| !universal[p.0]).collect())
                            .collect(),
                        output: r.output.clone(),
                    })
                    .collect()
            })
            .collect();
        // Reachable lookahead states (transitively through LA rules).
        let mut reach = vec![false; la.state_count()];
        let mut stack: Vec<StateId> = stripped
            .iter()
            .flatten()
            .flat_map(|r| r.lookahead.iter().flatten().copied())
            .collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut reach[s.0], true) {
                continue;
            }
            for r in la.rules(s) {
                for set in &r.lookahead {
                    stack.extend(set.iter().copied());
                }
            }
        }
        // Rebuild the lookahead STA with remapped ids.
        let mut remap = vec![usize::MAX; la.state_count()];
        let mut new_la: Sta<A> = Sta::from_parts(
            self.ty.clone(),
            self.alg.clone(),
            Vec::new(),
            Vec::new(),
            StateId(0),
        );
        for q in la.states() {
            if reach[q.0] {
                remap[q.0] = new_la.push_state(la.state_name(q).to_string()).0;
            }
        }
        for q in la.states() {
            if !reach[q.0] {
                continue;
            }
            for r in la.rules(q) {
                new_la.push_rule(
                    StateId(remap[q.0]),
                    fast_automata::Rule {
                        ctor: r.ctor,
                        guard: r.guard.clone(),
                        lookahead: r
                            .lookahead
                            .iter()
                            .map(|s| s.iter().map(|p| StateId(remap[p.0])).collect())
                            .collect(),
                    },
                );
            }
        }
        let rules: Vec<Vec<TRule<A>>> = stripped
            .into_iter()
            .map(|rs| {
                rs.into_iter()
                    .map(|r| TRule {
                        lookahead: r
                            .lookahead
                            .iter()
                            .map(|s| s.iter().map(|p| StateId(remap[p.0])).collect())
                            .collect(),
                        ..r
                    })
                    .collect()
            })
            .collect();
        Sttr {
            ty: self.ty.clone(),
            alg: self.alg.clone(),
            names: self.names.clone(),
            rules,
            la: new_la,
            initial: self.initial,
        }
    }

    /// Linearity (Definition 5): every rule's output uses each input child
    /// at most once. Linear transducers compose exactly on the right
    /// (Theorem 4).
    pub fn is_linear(&self) -> bool {
        self.nonlinear_rule().is_none()
    }

    /// The first rule whose output uses some input child more than once —
    /// the witness that the transducer is *not* linear — as
    /// `(state, rule index)`. `None` iff [`Sttr::is_linear`].
    pub fn nonlinear_rule(&self) -> Option<(StateId, usize)> {
        for q in self.states() {
            for (idx, r) in self.rules(q).iter().enumerate() {
                let mut counts = Vec::new();
                r.output.child_use_counts(&mut counts);
                if counts.iter().any(|&c| c > 1) {
                    return Some((q, idx));
                }
            }
        }
        None
    }

    /// Determinism (Definition 9): no two distinct rules of the same state
    /// and constructor are simultaneously enabled — guards jointly
    /// satisfiable *and* lookahead languages jointly non-empty — unless
    /// they have identical outputs. Determinism implies single-valuedness,
    /// the left-composability condition of Theorem 4.
    ///
    /// # Errors
    ///
    /// Propagates automata state-budget errors from the lookahead
    /// intersection tests.
    pub fn is_deterministic(&self) -> Result<bool, TransducerError> {
        Ok(self.nondeterministic_rules()?.is_none())
    }

    /// The first pair of simultaneously-enabled rules with different
    /// outputs — the witness that the transducer is *not* deterministic —
    /// as `(state, rule index a, rule index b)`. `None` iff
    /// [`Sttr::is_deterministic`].
    ///
    /// # Errors
    ///
    /// Propagates automata state-budget errors from the lookahead
    /// intersection tests.
    pub fn nondeterministic_rules(
        &self,
    ) -> Result<Option<(StateId, usize, usize)>, TransducerError> {
        for q in self.states() {
            let rs = self.rules(q);
            for a in 0..rs.len() {
                for b in (a + 1)..rs.len() {
                    let (ra, rb) = (&rs[a], &rs[b]);
                    if ra.ctor != rb.ctor || ra.output == rb.output {
                        continue;
                    }
                    if !self.alg.is_sat(&self.alg.and(&ra.guard, &rb.guard)) {
                        continue;
                    }
                    if self.lookaheads_meet(ra, rb)? {
                        return Ok(Some((q, a, b)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Whether the lookaheads of rules `a` and `b` (of the same
    /// constructor) admit a common input: every child's joint lookahead
    /// set is non-empty by [`is_empty_at`]. Guards are not consulted.
    ///
    /// # Errors
    ///
    /// Returns the first child's state-budget error when no child's joint
    /// set is provably empty.
    pub fn lookaheads_meet(&self, a: &TRule<A>, b: &TRule<A>) -> Result<bool, AutomataError> {
        let mut first_err = None;
        for (la, lb) in a.lookahead.iter().zip(&b.lookahead) {
            if la.is_empty() && lb.is_empty() {
                continue;
            }
            match is_empty_at(&self.la, &la.union(lb).copied().collect()) {
                Ok(true) => return Ok(false),
                Err(e) if first_err.is_none() => first_err = Some(e),
                _ => {}
            }
        }
        first_err.map_or(Ok(true), Err)
    }

    /// Single-valuedness — the left-composability precondition of
    /// Theorem 4 (`|T_q(t)| ≤ 1` for every input).
    ///
    /// Semantic decision with the default [`crate::SvBudget`]: `true` for
    /// transducers proven deterministic (Definition 9) *or* proven
    /// output-equivalent on every rule overlap by the product
    /// construction of [`crate::sv`]. Ambiguous and budget-limited
    /// `Unknown` verdicts answer `false`, so callers gating composition
    /// exactness on this never treat an inexact fusion as exact. Use
    /// [`Sttr::single_valuedness`] directly for the three-way verdict.
    pub fn is_single_valued(&self) -> bool {
        self.single_valuedness(crate::sv::SvBudget::default())
            .is_single()
    }

    /// Renders one rule as `state#idx: ctor` for witness messages.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `idx` is out of range.
    pub fn describe_rule(&self, q: StateId, idx: usize) -> String {
        let r = &self.rules[q.0][idx];
        format!("{}#{idx}: {}", self.names[q.0], self.ty.ctor_name(r.ctor))
    }
}

impl<A: TransAlg<Elem = Label>> fmt::Display for Sttr<A>
where
    A::Pred: fmt::Display,
    A::Fun: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "STTR over {} ({} states, {} rules, {} lookahead states, initial {})",
            self.ty.name(),
            self.state_count(),
            self.rule_count(),
            self.la.state_count(),
            self.initial
        )?;
        for q in self.states() {
            for r in self.rules(q) {
                write!(
                    f,
                    "  {}[{}]: {}[x] where {} ",
                    q,
                    self.names[q.0],
                    self.ty.ctor_name(r.ctor),
                    r.guard
                )?;
                write!(f, "given (")?;
                for (i, s) in r.lookahead.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{{")?;
                    for (j, x) in s.iter().enumerate() {
                        if j > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{x}")?;
                    }
                    write!(f, "}}")?;
                }
                write!(f, ") to ")?;
                fmt_out(f, &r.output, &self.ty)?;
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

fn fmt_out<A: TransAlg>(f: &mut fmt::Formatter<'_>, out: &Out<A>, ty: &TreeType) -> fmt::Result
where
    A::Fun: fmt::Display,
{
    match out {
        Out::Call(q, i) => write!(f, "({q} y{i})"),
        Out::Node {
            ctor,
            fun,
            children,
        } => {
            write!(f, "({}{}", ty.ctor_name(*ctor), fun)?;
            for c in children {
                write!(f, " ")?;
                fmt_out(f, c, ty)?;
            }
            write!(f, ")")
        }
    }
}

/// Incremental builder for [`Sttr`]s.
#[derive(Debug)]
pub struct SttrBuilder<A: TransAlg<Elem = Label> = LabelAlg> {
    sttr: Sttr<A>,
}

impl<A: TransAlg<Elem = Label>> SttrBuilder<A> {
    /// Starts building over `ty` with algebra `alg` and no lookahead
    /// automaton.
    pub fn new(ty: Arc<TreeType>, alg: Arc<A>) -> Self {
        let la = Sta::from_parts(ty.clone(), alg.clone(), Vec::new(), Vec::new(), StateId(0));
        SttrBuilder {
            sttr: Sttr {
                ty,
                alg,
                names: Vec::new(),
                rules: Vec::new(),
                la,
                initial: StateId(0),
            },
        }
    }

    /// Installs a lookahead automaton; rule lookahead sets refer to its
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if the automaton's tree type differs.
    pub fn with_lookahead(mut self, la: Sta<A>) -> Self {
        assert_eq!(la.ty(), &self.sttr.ty, "lookahead STA over wrong tree type");
        self.sttr.la = la;
        self
    }

    /// Declares a transformation state.
    pub fn state(&mut self, name: &str) -> StateId {
        self.sttr.push_state(name.to_string())
    }

    /// Adds a rule.
    ///
    /// The guard is anything convertible into the algebra's predicate
    /// type — for [`LabelAlg`](fast_smt::LabelAlg) a plain
    /// [`Formula`](fast_smt::Formula) works and is interned on the way in.
    ///
    /// # Panics
    ///
    /// Panics if the lookahead arity differs from the constructor rank.
    pub fn rule(
        &mut self,
        q: StateId,
        ctor: CtorId,
        guard: impl Into<A::Pred>,
        lookahead: Vec<BTreeSet<StateId>>,
        output: Out<A>,
    ) {
        self.sttr.push_rule(
            q,
            TRule {
                ctor,
                guard: guard.into(),
                lookahead,
                output,
            },
        );
    }

    /// Adds a rule with no lookahead (all children unconstrained).
    ///
    /// # Panics
    ///
    /// Panics if the constructor rank disagrees with the tree type.
    pub fn plain_rule(
        &mut self,
        q: StateId,
        ctor: CtorId,
        guard: impl Into<A::Pred>,
        output: Out<A>,
    ) {
        let rank = self.sttr.ty.rank(ctor);
        self.rule(q, ctor, guard, vec![BTreeSet::new(); rank], output);
    }

    /// Copies another transducer's transformation states, rules, and
    /// lookahead automaton into this builder, returning
    /// `(state_offset, lookahead_offset)` to translate the other's ids.
    /// Used by front-ends to let one transformation call another.
    ///
    /// # Panics
    ///
    /// Panics if the tree types differ.
    pub fn absorb(&mut self, other: &Sttr<A>) -> (usize, usize) {
        assert_eq!(self.sttr.ty, *other.ty(), "tree type mismatch");
        let la_offset = self.sttr.la.absorb(other.lookahead_sta());
        let offset = self.sttr.rules.len();
        for q in other.states() {
            self.sttr.names.push(other.state_name(q).to_string());
            self.sttr.rules.push(
                other
                    .rules(q)
                    .iter()
                    .map(|r| TRule {
                        ctor: r.ctor,
                        guard: r.guard.clone(),
                        lookahead: r
                            .lookahead
                            .iter()
                            .map(|s| s.iter().map(|x| StateId(x.0 + la_offset)).collect())
                            .collect(),
                        output: r.output.map_states(&|x| StateId(x.0 + offset)),
                    })
                    .collect(),
            );
        }
        (offset, la_offset)
    }

    /// Copies a language automaton into the bundled lookahead STA,
    /// returning the offset added to its state ids.
    ///
    /// # Panics
    ///
    /// Panics if the tree types differ.
    pub fn absorb_lookahead(&mut self, la: &Sta<A>) -> usize {
        self.sttr.absorb_lookahead(la)
    }

    /// Number of transformation states declared so far.
    pub fn state_count(&self) -> usize {
        self.sttr.rules.len()
    }

    /// Finishes, designating `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub fn build(self, initial: StateId) -> Sttr<A> {
        assert!(initial.0 < self.sttr.rules.len());
        let mut s = self.sttr;
        s.initial = initial;
        s
    }
}

/// Constructs the identity STTR `I` over a tree type: one state copying
/// every node verbatim.
pub fn identity<A: TransAlg<Elem = Label>>(ty: &Arc<TreeType>, alg: &Arc<A>) -> Sttr<A> {
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("id");
    for ctor in ty.ctor_ids() {
        let kids = (0..ty.rank(ctor)).map(|i| Out::Call(q, i)).collect();
        b.plain_rule(q, ctor, alg.tt(), Out::node(ctor, alg.identity_fun(), kids));
    }
    b.build(q)
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use fast_smt::{Formula, LabelFn, LabelSig, Sort, Term};

    pub fn ilist() -> Arc<TreeType> {
        TreeType::new(
            "IList",
            LabelSig::single("i", Sort::Int),
            vec![("nil", 0), ("cons", 1)],
        )
    }

    pub fn ilist_alg(ty: &TreeType) -> Arc<LabelAlg> {
        Arc::new(LabelAlg::new(ty.sig().clone()))
    }

    /// Fig. 8 `map_caesar`: x ↦ (x+5) % 26 on every element.
    pub fn map_caesar() -> Sttr {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("map_caesar");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(
                cons,
                LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]),
                vec![Out::Call(q, 0)],
            ),
        );
        b.build(q)
    }

    /// Fig. 8 `filter_ev`: keep even elements, drop odd ones.
    pub fn filter_ev() -> Sttr {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let even = Formula::eq(Term::field(0).modulo(2), Term::int(0));
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("filter_ev");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            even.clone(),
            Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)]),
        );
        b.plain_rule(q, cons, even.not(), Out::Call(q, 0));
        b.build(q)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use fast_smt::{Formula, LabelFn, Term};

    #[test]
    fn map_caesar_runs() {
        let m = map_caesar();
        let ty = m.ty().clone();
        let t = Tree::parse(&ty, "cons[30](cons[7](cons[-6](nil[0])))").unwrap();
        let out = m.run(&t).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].display(&ty).to_string(),
            "cons[9](cons[12](cons[25](nil[0])))"
        );
    }

    #[test]
    fn filter_drops_odds() {
        let f = filter_ev();
        let ty = f.ty().clone();
        let t = Tree::parse(&ty, "cons[1](cons[2](cons[3](cons[4](nil[7]))))").unwrap();
        let out = f.run(&t).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].display(&ty).to_string(), "cons[2](cons[4](nil[0]))");
    }

    #[test]
    fn identity_copies() {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let id = identity(&ty, &alg);
        let t = Tree::parse(&ty, "cons[5](nil[1])").unwrap();
        assert_eq!(id.run(&t).unwrap(), vec![t]);
        assert!(id.is_linear());
        assert!(id.is_deterministic().unwrap());
    }

    #[test]
    fn linearity_and_determinism() {
        let m = map_caesar();
        assert!(m.is_linear());
        assert!(m.is_deterministic().unwrap());
        let f = filter_ev();
        assert!(f.is_linear());
        assert!(f.is_deterministic().unwrap());

        // A nondeterministic transducer: two overlapping cons rules with
        // different outputs.
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("q");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(
                cons,
                LabelFn::new(vec![Term::int(5)]),
                vec![Out::Call(q, 0)],
            ),
        );
        let nd = b.build(q);
        assert!(!nd.is_deterministic().unwrap());
        // Nondeterministic run yields multiple outputs.
        let t = Tree::parse(nd.ty(), "cons[1](nil[0])").unwrap();
        assert_eq!(nd.run(&t).unwrap().len(), 2);
    }

    #[test]
    fn duplication_is_nonlinear() {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let cons = ty.ctor_id("cons").unwrap();
        let nil = ty.ctor_id("nil").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("dup");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(
                cons,
                LabelFn::identity(1),
                vec![Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)])],
            ),
        );
        let lin = b.build(q);
        assert!(lin.is_linear());

        let ty2 = ilist();
        let alg2 = ilist_alg(&ty2);
        let mut b = SttrBuilder::new(ty2, alg2);
        let q = b.state("dup");
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(
                cons,
                LabelFn::identity(1),
                vec![Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)])],
            ),
        );
        // Use child 0 twice via a second call in the same rule.
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        let mut counts = Vec::new();
        Out::<LabelAlg>::Call(q, 0).child_use_counts(&mut counts);
        assert_eq!(counts, vec![1]);
        let nonlin_out: Out<LabelAlg> = Out::node(
            cons,
            LabelFn::identity(1),
            vec![Out::Call(q, 0), Out::Call(q, 0)],
        );
        let mut counts = Vec::new();
        nonlin_out.child_use_counts(&mut counts);
        assert!(counts[0] == 2);
    }

    #[test]
    fn domain_automaton_of_filter() {
        let f = filter_ev();
        let d = f.domain();
        let ty = f.ty().clone();
        // filter_ev is total on lists.
        for text in ["nil[0]", "cons[1](nil[0])", "cons[2](cons[3](nil[0]))"] {
            assert!(d.accepts(&Tree::parse(&ty, text).unwrap()));
        }
    }

    #[test]
    fn restricted_identity_respects_language() {
        use fast_automata::StaBuilder;
        // Language: lists whose elements are all even.
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let even = Formula::eq(Term::field(0).modulo(2), Term::int(0));
        let mut b = StaBuilder::new(ty.clone(), alg.clone());
        let s = b.state("evens");
        b.leaf_rule(s, nil, Formula::True);
        b.simple_rule(s, cons, even, vec![Some(s)]);
        let evens = b.build(s);

        let idr = crate::ops::restrict(&identity(&ty, &alg), &evens).unwrap();
        assert!(idr.is_linear());
        let ok = Tree::parse(&ty, "cons[2](cons[4](nil[0]))").unwrap();
        let bad = Tree::parse(&ty, "cons[2](cons[3](nil[0]))").unwrap();
        assert_eq!(idr.run(&ok).unwrap(), vec![ok.clone()]);
        assert!(idr.run(&bad).unwrap().is_empty());
    }

    #[test]
    fn run_cap_enforced() {
        // A transducer with 2^n outputs: each element may stay or change.
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty.clone(), alg);
        let q = b.state("q");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::True,
            Out::node(
                cons,
                LabelFn::new(vec![Term::int(99)]),
                vec![Out::Call(q, 0)],
            ),
        );
        let nd = b.build(q);
        let mut text = String::from("nil[0]");
        for i in 0..10 {
            text = format!("cons[{i}]({text})");
        }
        let t = Tree::parse(nd.ty(), &text).unwrap();
        assert_eq!(nd.run(&t).unwrap().len(), 1 << 10);
        assert!(nd.run_bounded(&t, 100).is_err());
    }
}
