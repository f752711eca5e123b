//! Single-valuedness of STTRs — a *semantic* decision with explicit
//! budgets (the FA007 analysis).
//!
//! Single-valuedness (`|T_q0(t)| ≤ 1` for every input `t`) is the
//! left-composability precondition of Theorem 4 and is an **open
//! problem** for STTRs in general (§7 of the paper). This module
//! therefore implements a sound three-way decision rather than a
//! complete one:
//!
//! * [`SvVerdict::Single`] — a proof. Either the transducer is
//!   deterministic (Definition 9), or a bounded product construction
//!   discharged every *output-equivalence obligation*: for each pair of
//!   simultaneously-enabled rules, the outputs are structurally equal
//!   node-for-node, the label functions provably agree on every label
//!   satisfying the joint guard (via [`TransAlg::funs_differ`] and the
//!   solver), and aligned recursive calls generate further state-pair
//!   obligations, discharged coinductively.
//! * [`SvVerdict::Ambiguous`] — a refutation: a concrete input tree on
//!   which [`Sttr::run`] was *observed* to return ≥ 2 outputs. The
//!   witness is always run-verified, never inferred.
//! * [`SvVerdict::Unknown`] — the construction hit a budget or an
//!   obligation it cannot compare (e.g. calls on different children),
//!   and the bounded witness search found no counterexample.
//!
//! The payoff is composition exactness ([`crate::compose_exactness`])
//! and pipeline fusion: a single-valued-but-nondeterministic left
//! factor — two overlapping rules whose outputs are semantically equal
//! on the overlap — now fuses exactly where the determinism-only check
//! had to cascade.

use crate::equiv::{enumerate, extend_guard_labels};
use crate::error::TransducerError;
use crate::out::Out;
use crate::sttr::Sttr;
use fast_automata::StateId;
use fast_smt::{Label, TransAlg};
use fast_trees::Tree;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Budgets for [`Sttr::single_valuedness`]. Exhausting any of them turns
/// the answer into [`SvVerdict::Unknown`], never into a wrong verdict.
#[derive(Debug, Clone, Copy)]
pub struct SvBudget {
    /// Maximum distinct state pairs in the product construction.
    pub max_state_pairs: usize,
    /// Maximum solver satisfiability checks.
    pub max_solver_checks: usize,
    /// Maximum depth of candidate trees in the witness search.
    pub search_depth: usize,
    /// Maximum candidate trees run in the witness search.
    pub search_cases: usize,
}

impl Default for SvBudget {
    fn default() -> Self {
        SvBudget {
            max_state_pairs: 512,
            max_solver_checks: 2_048,
            search_depth: 3,
            search_cases: 600,
        }
    }
}

/// How a [`SvVerdict::Single`] verdict was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvProof {
    /// Deterministic per Definition 9 — no two distinct rules are ever
    /// simultaneously enabled with different outputs.
    Deterministic,
    /// Nondeterministic, but every pair of simultaneously-enabled rules
    /// produces provably equal outputs (solver-checked label functions,
    /// coinductively discharged state-pair obligations).
    OutputEquivalent {
        /// State pairs discharged by the product construction.
        pairs_checked: usize,
        /// Solver satisfiability checks spent.
        solver_checks: usize,
    },
}

/// The three-way single-valuedness verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvVerdict {
    /// Provably single-valued: `|T(t)| ≤ 1` for every input.
    Single(SvProof),
    /// Provably *not* single-valued: `run(witness)` returned `outputs`
    /// (≥ 2) distinct trees.
    Ambiguous {
        /// A concrete input with more than one output (run-verified).
        witness: Tree,
        /// The observed output count on `witness` (a lower bound when
        /// the verifying run hit its output cap).
        outputs: usize,
    },
    /// Undecided within budget.
    Unknown {
        /// What stopped the decision (budget hit or incomparable shapes).
        reason: String,
    },
}

impl SvVerdict {
    /// `true` iff the transducer is proven single-valued.
    pub fn is_single(&self) -> bool {
        matches!(self, SvVerdict::Single(_))
    }

    /// Renders the verdict against a tree type (witness trees print
    /// readably).
    pub fn display<'a>(&'a self, ty: &'a fast_trees::TreeType) -> SvVerdictDisplay<'a> {
        SvVerdictDisplay { v: self, ty }
    }
}

/// [`fmt::Display`] adapter for [`SvVerdict`] with access to the tree type.
pub struct SvVerdictDisplay<'a> {
    v: &'a SvVerdict,
    ty: &'a fast_trees::TreeType,
}

impl fmt::Display for SvVerdictDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.v {
            SvVerdict::Single(SvProof::Deterministic) => {
                write!(f, "single-valued (deterministic)")
            }
            SvVerdict::Single(SvProof::OutputEquivalent {
                pairs_checked,
                solver_checks,
            }) => write!(
                f,
                "single-valued (nondeterministic; output-equivalence proof, \
                 {pairs_checked} state pairs, {solver_checks} solver checks)"
            ),
            SvVerdict::Ambiguous { witness, outputs } => write!(
                f,
                "ambiguous: {} outputs on {}",
                outputs,
                witness.display(self.ty)
            ),
            SvVerdict::Unknown { reason } => {
                write!(f, "single-valuedness undecided: {reason}")
            }
        }
    }
}

/// Outcome of one output-equivalence obligation.
enum EqOutcome {
    /// Outputs forced equal (modulo discharged state-pair obligations).
    Equal,
    /// Outputs provably differ; carries a label model exercising the
    /// disagreement, if the solver produced one (fed to the witness
    /// search's label pool).
    Distinct(Option<Label>),
    /// Shapes not comparable by this construction.
    Undecided(String),
}

struct SvCtx<'a, A: TransAlg<Elem = Label>> {
    s: &'a Sttr<A>,
    budget: SvBudget,
    solver_checks: usize,
    pairs_checked: usize,
    /// Labels from solver models of observed disagreements, seeding the
    /// witness search.
    hint_labels: Vec<Label>,
}

impl<A: TransAlg<Elem = Label>> SvCtx<'_, A> {
    fn sat(&mut self, p: &A::Pred) -> Result<bool, String> {
        if self.solver_checks >= self.budget.max_solver_checks {
            return Err(format!(
                "solver-check budget exceeded ({})",
                self.budget.max_solver_checks
            ));
        }
        self.solver_checks += 1;
        Ok(self.s.alg().is_sat(p))
    }

    /// Are rules `ra` and `rb` ever enabled on the same node? Checks the
    /// guards' joint satisfiability and each child's joint lookahead
    /// non-emptiness. Over-approximates on lookahead budget errors
    /// (assuming enabled is the sound direction — it only adds
    /// obligations).
    fn jointly_enabled(
        &mut self,
        ra: &crate::sttr::TRule<A>,
        rb: &crate::sttr::TRule<A>,
    ) -> Result<Option<A::Pred>, String> {
        if ra.ctor != rb.ctor {
            return Ok(None);
        }
        let gamma = self.s.alg().and(&ra.guard, &rb.guard);
        if !self.sat(&gamma)? {
            return Ok(None);
        }
        // Budget overflow: conservatively treat as enabled.
        Ok(self
            .s
            .lookaheads_meet(ra, rb)
            .unwrap_or(true)
            .then_some(gamma))
    }

    /// Checks that outputs `a` and `b` are forced equal under guard
    /// `gamma`, pushing aligned `Call`/`Call` pairs onto `obligations`.
    fn out_eq(
        &mut self,
        gamma: &A::Pred,
        a: &Out<A>,
        b: &Out<A>,
        obligations: &mut Vec<(StateId, StateId)>,
    ) -> Result<EqOutcome, String> {
        match (a, b) {
            (Out::Call(p1, i), Out::Call(p2, j)) => {
                if i != j {
                    return Ok(EqOutcome::Undecided(format!(
                        "calls on different input children y{i} / y{j}"
                    )));
                }
                let (lo, hi) = if p1.0 <= p2.0 { (*p1, *p2) } else { (*p2, *p1) };
                obligations.push((lo, hi));
                Ok(EqOutcome::Equal)
            }
            (
                Out::Node {
                    ctor: c1,
                    fun: f1,
                    children: k1,
                },
                Out::Node {
                    ctor: c2,
                    fun: f2,
                    children: k2,
                },
            ) => {
                if c1 != c2 {
                    // Different output constructors under a satisfiable
                    // joint guard: genuinely distinct outputs.
                    return Ok(EqOutcome::Distinct(self.s.alg().model(gamma)));
                }
                if f1 != f2 {
                    match self.s.alg().funs_differ(f1, f2) {
                        Some(diff) => {
                            let d = self.s.alg().and(gamma, &diff);
                            if self.sat(&d)? {
                                return Ok(EqOutcome::Distinct(self.s.alg().model(&d)));
                            }
                        }
                        None => {
                            return Ok(EqOutcome::Undecided(
                                "label-function equivalence not expressible in this algebra"
                                    .to_string(),
                            ));
                        }
                    }
                }
                for (ca, cb) in k1.iter().zip(k2) {
                    match self.out_eq(gamma, ca, cb, obligations)? {
                        EqOutcome::Equal => {}
                        other => return Ok(other),
                    }
                }
                Ok(EqOutcome::Equal)
            }
            _ => Ok(EqOutcome::Undecided(
                "output shapes differ (node vs. recursive call)".to_string(),
            )),
        }
    }
}

impl<A: TransAlg<Elem = Label>> Sttr<A> {
    /// Decides single-valuedness within `budget` — see the [module
    /// docs](crate::sv) for the construction and its guarantees.
    ///
    /// Soundness: `Single` verdicts are proofs, `Ambiguous` witnesses are
    /// run-verified, and every failure mode (solver budget, state-pair
    /// budget, incomparable output shapes, run errors during the witness
    /// search) degrades to `Unknown`.
    pub fn single_valuedness(&self, budget: SvBudget) -> SvVerdict {
        let _span = fast_obs::span!("sv.decide");
        // Fast path: determinism (Definition 9) implies single-valuedness.
        let nd = match self.nondeterministic_rules() {
            Ok(None) => return SvVerdict::Single(SvProof::Deterministic),
            Ok(Some(w)) => Some(w),
            Err(_) => None,
        };
        let mut ctx = SvCtx {
            s: self,
            budget,
            solver_checks: 0,
            pairs_checked: 0,
            hint_labels: Vec::new(),
        };
        let blocker = if nd.is_some() {
            match self.sv_product(&mut ctx) {
                Ok(None) => {
                    fast_obs::count!("sv.proved_output_equivalent");
                    return SvVerdict::Single(SvProof::OutputEquivalent {
                        pairs_checked: ctx.pairs_checked,
                        solver_checks: ctx.solver_checks,
                    });
                }
                Ok(Some(reason)) => reason,
                Err(reason) => reason,
            }
        } else {
            "determinism check hit the lookahead state budget".to_string()
        };
        // Refutation phase: bounded search for a run-verified witness.
        match self.sv_witness_search(&ctx.hint_labels, ctx.budget) {
            Some((witness, outputs)) => {
                fast_obs::count!("sv.refuted");
                SvVerdict::Ambiguous { witness, outputs }
            }
            None => {
                fast_obs::count!("sv.unknown");
                SvVerdict::Unknown {
                    reason: format!(
                        "{blocker}; no counterexample within search budget \
                         (depth {}, {} cases)",
                        ctx.budget.search_depth, ctx.budget.search_cases
                    ),
                }
            }
        }
    }

    /// The bounded product construction. `Ok(None)` = all obligations
    /// discharged (proof), `Ok(Some(reason))` = a `Distinct`/`Undecided`
    /// obligation (fall through to witness search), `Err(reason)` =
    /// budget exhausted.
    fn sv_product(&self, ctx: &mut SvCtx<'_, A>) -> Result<Option<String>, String> {
        // Obligation E(q1,q2): on every input tree, the *union* of the two
        // states' output sets has at most one element. E(q0,q0) is
        // single-valuedness; obligations propagate through aligned
        // recursive calls in rule outputs.
        let mut seen: HashSet<(StateId, StateId)> = HashSet::new();
        let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
        let root = (self.initial(), self.initial());
        seen.insert(root);
        queue.push_back(root);
        while let Some((q1, q2)) = queue.pop_front() {
            ctx.pairs_checked += 1;
            if ctx.pairs_checked > ctx.budget.max_state_pairs {
                return Err(format!(
                    "state-pair budget exceeded ({})",
                    ctx.budget.max_state_pairs
                ));
            }
            let (ra_all, rb_all) = (self.rules(q1), self.rules(q2));
            for (ai, ra) in ra_all.iter().enumerate() {
                // Within one state, unordered pairs suffice — including
                // the diagonal: a rule must agree with *itself* so that
                // nondeterminism in its callees is caught.
                let bs = if q1 == q2 { ai.. } else { 0.. };
                for bi in (bs).take_while(|&bi| bi < rb_all.len()) {
                    let rb = &rb_all[bi];
                    let Some(gamma) = ctx.jointly_enabled(ra, rb)? else {
                        continue;
                    };
                    let mut obligations = Vec::new();
                    match ctx.out_eq(&gamma, &ra.output, &rb.output, &mut obligations)? {
                        EqOutcome::Equal => {}
                        EqOutcome::Distinct(model) => {
                            if let Some(l) = model {
                                ctx.hint_labels.push(l);
                            }
                            return Ok(Some(format!(
                                "rules {} / {} produce distinct outputs when jointly enabled",
                                self.describe_rule(q1, ai),
                                self.describe_rule(q2, bi)
                            )));
                        }
                        EqOutcome::Undecided(why) => {
                            return Ok(Some(format!(
                                "rules {} / {}: {}",
                                self.describe_rule(q1, ai),
                                self.describe_rule(q2, bi),
                                why
                            )));
                        }
                    }
                    for ob in obligations {
                        if seen.insert(ob) {
                            queue.push_back(ob);
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Bounded-exhaustive search for an input with ≥ 2 outputs. Labels
    /// are mined from the transducer's own guards plus any solver models
    /// of observed label-function disagreements.
    fn sv_witness_search(&self, hints: &[Label], budget: SvBudget) -> Option<(Tree, usize)> {
        let mut labels: Vec<Label> = vec![Label::default_of(self.ty().sig())];
        for h in hints {
            if !labels.contains(h) {
                labels.push(h.clone());
            }
        }
        extend_guard_labels(self, &mut labels);
        let mut cases = 0usize;
        let mut found: Option<(Tree, usize)> = None;
        enumerate(self.ty(), &labels, budget.search_depth, &mut |t| {
            if cases >= budget.search_cases {
                return false;
            }
            cases += 1;
            const CAP: usize = 4_096;
            match self.run_bounded(t, CAP) {
                Ok(outs) if outs.len() >= 2 => {
                    found = Some((t.clone(), outs.len()));
                    false
                }
                // Hitting the cap proves > CAP outputs exist — certainly
                // ambiguous; report the cap as a lower bound.
                Err(TransducerError::Budget { .. }) => {
                    found = Some((t.clone(), CAP));
                    false
                }
                _ => true,
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sttr::fixtures::{ilist, ilist_alg, map_caesar};
    use crate::sttr::SttrBuilder;
    use fast_smt::{CmpOp, Formula, LabelFn, Term};

    #[test]
    fn deterministic_is_single() {
        let m = map_caesar();
        assert_eq!(
            m.single_valuedness(SvBudget::default()),
            SvVerdict::Single(SvProof::Deterministic)
        );
        assert!(m.is_single_valued());
    }

    /// Two overlapping cons rules whose outputs are semantically equal on
    /// the overlap: guard `i ≥ 0` outputs `i`, guard `i ≤ 0` outputs
    /// `i * 1`. At the overlap (`i = 0`) both output 0.
    fn nondet_but_single() -> Sttr {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("norm");
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::cmp(CmpOp::Ge, Term::field(0), Term::int(0)),
            Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0)),
            Out::node(
                cons,
                LabelFn::new(vec![Term::field(0).mul(Term::int(1))]),
                vec![Out::Call(q, 0)],
            ),
        );
        b.build(q)
    }

    #[test]
    fn nondet_but_output_equivalent_is_single() {
        let s = nondet_but_single();
        assert!(!s.is_deterministic().unwrap(), "rules overlap at i = 0");
        let v = s.single_valuedness(SvBudget::default());
        assert!(
            matches!(v, SvVerdict::Single(SvProof::OutputEquivalent { .. })),
            "expected output-equivalence proof, got {v:?}"
        );
        assert!(s.is_single_valued());
    }

    #[test]
    fn genuinely_ambiguous_has_verified_witness() {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("amb");
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
                LabelFn::new(vec![Term::int(42)]),
                vec![Out::Call(q, 0)],
            ),
        );
        let s = b.build(q);
        match s.single_valuedness(SvBudget::default()) {
            SvVerdict::Ambiguous { witness, outputs } => {
                assert!(outputs >= 2);
                assert!(s.run(&witness).unwrap().len() >= 2, "witness must verify");
            }
            other => panic!("expected Ambiguous, got {other:?}"),
        }
        assert!(!s.is_single_valued());
    }

    #[test]
    fn budget_exhaustion_is_unknown_not_wrong() {
        let s = nondet_but_single();
        let tiny = SvBudget {
            max_state_pairs: 0,
            max_solver_checks: 0,
            search_depth: 1,
            search_cases: 4,
        };
        match s.single_valuedness(tiny) {
            SvVerdict::Unknown { reason } => {
                assert!(reason.contains("budget"), "{reason}");
            }
            other => panic!("expected Unknown under zero budget, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_catches_nondeterministic_callee() {
        // One deterministic top rule calling a nondeterministic helper:
        // the diagonal obligation E(p,p) must catch it.
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let top = b.state("top");
        let p = b.state("p");
        b.plain_rule(
            top,
            cons,
            Formula::True,
            Out::node(cons, LabelFn::identity(1), vec![Out::Call(p, 0)]),
        );
        b.plain_rule(
            top,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            p,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        b.plain_rule(
            p,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::new(vec![Term::int(9)]), vec![]),
        );
        let s = b.build(top);
        match s.single_valuedness(SvBudget::default()) {
            SvVerdict::Ambiguous { witness, .. } => {
                assert!(s.run(&witness).unwrap().len() >= 2);
            }
            other => panic!("expected Ambiguous via callee, got {other:?}"),
        }
    }
}
