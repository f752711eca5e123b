//! Language inclusion, equivalence and universality for STAs (§3.5's
//! `l1 == l2`, Proposition 1), all decided by one antichain search.
//!
//! §7 of the paper points at the antichain techniques of Bouajjani et al.
//! (CIAA'08) for nondeterministic tree automata and asks whether they
//! "translate to our setting" — this module answers constructively.
//!
//! The classical route to `L(a) ⊆ L(b)` complements `b` by the subset
//! construction, which materializes every reachable subset. The search
//! here runs bottom-up over *pairs* `(S, T)`: the states of `a` and of
//! `b` that accept one common tree. The bottom-up *post* operator is
//! monotone in both components, so a counterexample reachable through
//! any pair is also reachable through a domination-maximal one, and only
//! an antichain of those is kept. Symbolic guards integrate exactly as in
//! determinization: labels are split into the minterms of the applicable
//! guards of both automata (the guard split of `bottomup.rs`), which is
//! where the effective Boolean algebra does its work. Universality is
//! inclusion from the one-state automaton that accepts every tree.
//!
//! A minterm the solver calls possibly satisfiable is explored even when
//! it yields no model: it may hold a counterexample, and skipping it
//! would claim an inclusion that does not hold. Pairs reached through
//! such a minterm carry no tree, so a failed check may come without a
//! counterexample, but a returned counterexample is always verified
//! with [`Sta::accepts`].

use crate::bottomup::{enumerate_tuples, split};
use crate::error::AutomataError;
use crate::normalize::{clean, normalize};
use crate::sta::{Rule, Sta, StateId};
use fast_smt::{BoolAlg, Label};
use fast_trees::Tree;
use std::collections::BTreeSet;

/// Budget on live antichain pairs (the search degrades to an error
/// rather than running away).
pub const MAX_ANTICHAIN: usize = 1 << 12;

/// Outcome of [`inclusion`], [`equivalence`] and
/// [`emptiness`](crate::emptiness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The inclusion (equivalence, emptiness) holds.
    Holds,
    /// It does not hold. The tree, when present, is a verified
    /// counterexample (for emptiness, a member); it is absent when some
    /// label on every counterexample reached has no model the solver
    /// can produce.
    Fails(Option<Tree>),
}

impl Verdict {
    /// Whether the checked property holds.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample of a failed check, if one could be built.
    pub fn counterexample(&self) -> Option<&Tree> {
        match self {
            Verdict::Holds => None,
            Verdict::Fails(t) => t.as_ref(),
        }
    }
}

/// A pair of the search: the states of `a` and of `b` that accept a
/// common tree, with that tree when every label on it has a model.
struct Pair {
    a: BTreeSet<StateId>,
    b: BTreeSet<StateId>,
    witness: Option<Tree>,
    /// Cleared once a later pair dominates this one.
    live: bool,
}

/// `(s, t)` dominates `(s2, t2)` iff `s ⊇ s2` and `t ⊆ t2`: a dominated
/// pair never leads to a counterexample the dominating pair cannot.
fn dominates(
    (s, t): (&BTreeSet<StateId>, &BTreeSet<StateId>),
    (s2, t2): (&BTreeSet<StateId>, &BTreeSet<StateId>),
) -> bool {
    s.is_superset(s2) && t.is_subset(t2)
}

/// Decides `L(a) ⊆ L(b)`, with a counterexample tree in `L(a) \ L(b)`
/// when it fails.
///
/// # Errors
///
/// Propagates normalization budget errors and its own
/// [`MAX_ANTICHAIN`] budget.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn inclusion<A: BoolAlg<Elem = Label>>(
    a: &Sta<A>,
    b: &Sta<A>,
) -> Result<Verdict, AutomataError> {
    assert_eq!(a.ty(), b.ty(), "tree type mismatch");
    let na = clean(&normalize(a)?);
    let nb = clean(&normalize(b)?);
    let (a0, b0) = (na.initial(), nb.initial());
    let alg = na.alg().clone();
    let ty = na.ty().clone();

    // Pairs keep their index for good (dominated ones are only marked
    // dead), so each round tries just the tuples that use a pair found
    // in the previous round: every tuple over `pairs[..done]` was tried.
    let mut pairs: Vec<Pair> = Vec::new();
    let mut live = 0usize;
    let mut done = 0usize;
    loop {
        let n = pairs.len();
        for ctor in ty.ctor_ids() {
            for tuple in enumerate_tuples(n, ty.rank(ctor)) {
                let seen = n > 0 && tuple.iter().all(|&i| i < done);
                if seen || tuple.iter().any(|&i| !pairs[i].live) {
                    continue;
                }
                let a_kids = tuple.iter().map(|&i| &pairs[i].a).collect();
                let b_kids = tuple.iter().map(|&i| &pairs[i].b).collect();
                let parts = split(alg.as_ref(), ctor, &[(&na, a_kids), (&nb, b_kids)]);
                let kids: Option<Vec<Tree>> =
                    tuple.iter().map(|&i| pairs[i].witness.clone()).collect();
                for (pred, mut targets) in parts {
                    let tb = targets.pop().expect("two sides");
                    let ta = targets.pop().expect("two sides");
                    let witness = kids
                        .as_ref()
                        .and_then(|k| Some(Tree::new(ctor, alg.model(&pred)?, k.clone())));
                    if ta.contains(&a0) && !tb.contains(&b0) {
                        let cx = witness.filter(|w| a.accepts(w) && !b.accepts(w));
                        return Ok(Verdict::Fails(cx));
                    }
                    // Pairs with an empty A-set are still kept: subtrees
                    // off a counterexample's accepting spine may have them.
                    let new = (&ta, &tb);
                    if pairs.iter().any(|p| p.live && dominates((&p.a, &p.b), new)) {
                        continue;
                    }
                    for p in &mut pairs {
                        if p.live && dominates(new, (&p.a, &p.b)) {
                            p.live = false;
                            live -= 1;
                        }
                    }
                    pairs.push(Pair {
                        a: ta,
                        b: tb,
                        witness,
                        live: true,
                    });
                    live += 1;
                    if live > MAX_ANTICHAIN {
                        return Err(AutomataError::StateLimit {
                            context: "antichain inclusion",
                            limit: MAX_ANTICHAIN,
                        });
                    }
                }
            }
        }
        if pairs.len() == n {
            return Ok(Verdict::Holds);
        }
        done = n;
    }
}

/// Decides `L(a) = L(b)`: [`inclusion`] in both directions, `a ⊆ b`
/// first. A failed check carries a counterexample from the failing
/// direction.
///
/// # Errors
///
/// Propagates budget errors.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn equivalence<A: BoolAlg<Elem = Label>>(
    a: &Sta<A>,
    b: &Sta<A>,
) -> Result<Verdict, AutomataError> {
    match inclusion(a, b)? {
        Verdict::Holds => inclusion(b, a),
        fails => Ok(fails),
    }
}

/// Language inclusion `L(a) ⊆ L(b)` ([`inclusion`] without the
/// counterexample).
///
/// # Errors
///
/// Propagates budget errors.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn includes<A: BoolAlg<Elem = Label>>(a: &Sta<A>, b: &Sta<A>) -> Result<bool, AutomataError> {
    Ok(inclusion(a, b)?.holds())
}

/// Language equivalence `L(a) = L(b)` ([`equivalence`] without the
/// counterexample).
///
/// # Errors
///
/// Propagates budget errors.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn equivalent<A: BoolAlg<Elem = Label>>(a: &Sta<A>, b: &Sta<A>) -> Result<bool, AutomataError> {
    Ok(equivalence(a, b)?.holds())
}

/// Universality: does the designated language contain every tree of
/// its type? Decided as inclusion from the one-state automaton that
/// accepts every tree.
///
/// # Errors
///
/// Propagates budget errors.
pub fn is_universal<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<bool, AutomataError> {
    includes(&all_trees(sta), sta)
}

/// The one-state automaton accepting every tree of `like`'s type.
fn all_trees<A: BoolAlg<Elem = Label>>(like: &Sta<A>) -> Sta<A> {
    let (ty, alg) = (like.ty(), like.alg());
    let mut out = Sta::from_parts(ty.clone(), alg.clone(), Vec::new(), Vec::new(), StateId(0));
    let q = out.push_state("⊤".to_string());
    let all: BTreeSet<StateId> = [q].into_iter().collect();
    for ctor in ty.ctor_ids() {
        let rule = Rule {
            ctor,
            guard: alg.tt(),
            lookahead: vec![all.clone(); ty.rank(ctor)],
        };
        out.push_rule(q, rule);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::is_empty;
    use crate::ops::{complement, difference, intersect, union};
    use crate::sta::fixtures::{bt, bt_alg, example2};
    use crate::sta::StaBuilder;
    use fast_smt::{CmpOp, Formula, Term};

    fn leaves(guard: Formula) -> Sta {
        let ty = bt();
        let alg = bt_alg(&ty);
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("q");
        b.leaf_rule(q, l, guard);
        b.simple_rule(q, n, Formula::True, vec![Some(q), Some(q)]);
        b.build(q)
    }

    fn gt(lo: i64) -> Sta {
        leaves(Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(lo)))
    }

    /// Checks the search against the complement-based oracle, and every
    /// counterexample against membership.
    fn agrees(a: &Sta, b: &Sta) -> bool {
        let verdict = inclusion(a, b).unwrap();
        assert_eq!(
            verdict.holds(),
            is_empty(&difference(a, b).unwrap()).unwrap()
        );
        if let Some(w) = verdict.counterexample() {
            assert!(a.accepts(w) && !b.accepts(w));
        }
        verdict.holds()
    }

    #[test]
    fn inclusion_and_equivalence() {
        let (big, small) = (gt(0), gt(5));
        assert!(agrees(&small, &big));
        assert!(!agrees(&big, &small));
        // Reflexivity and the lattice corner cases.
        assert!(agrees(&big, &big));
        assert!(agrees(&small, &leaves(Formula::True)));
        assert!(agrees(&intersect(&big, &small), &small));
        assert!(equivalent(&big, &big).unwrap());
        assert!(!equivalent(&big, &small).unwrap());
        // (leaves > 0) ∪ (leaves > 5) ≡ (leaves > 0)
        assert!(equivalent(&union(&big, &small), &big).unwrap());
    }

    #[test]
    fn counterexamples_are_genuine() {
        let (big, small) = (gt(0), gt(5));
        let cx = inclusion(&big, &small).unwrap();
        let w = cx.counterexample().expect("models exist");
        assert!(big.accepts(w) && !small.accepts(w));
        // Equivalence reports the failing direction's counterexample.
        let cx = equivalence(&small, &big).unwrap();
        let w = cx.counterexample().expect("models exist");
        assert!(big.accepts(w) && !small.accepts(w));
    }

    #[test]
    fn universality() {
        let all = leaves(Formula::True);
        assert!(is_universal(&all).unwrap());
        assert!(!is_universal(&gt(0)).unwrap());
        let (p, ..) = example2();
        assert!(!is_universal(&p).unwrap());
        // Leaves x > 0 or x ≤ 0, but never mixed under one N: not
        // universal, as the complement says.
        let le0 = leaves(Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0)));
        let u = union(&gt(0), &le0);
        assert!(!is_universal(&u).unwrap());
        assert!(!is_empty(&complement(&u).unwrap()).unwrap());
    }

    #[test]
    fn modelless_minterms_are_not_skipped() {
        // The solver cannot find a root of x*x = 123456², so the leaf
        // region outside the guard has no model; `L[123456]` is still
        // outside the language.
        let x = Term::field(0);
        let square = x.clone().mul(x);
        let root = Formula::eq(square.clone(), Term::int(15_241_383_936));
        let ng = leaves(Formula::cmp(CmpOp::Ne, square, Term::int(15_241_383_936)));
        let alg = ng.alg();
        assert!(alg.is_sat(&alg.pred(root.clone())) && alg.model(&alg.pred(root)).is_none());
        let all = leaves(Formula::True);
        assert!(!includes(&all, &ng).unwrap());
        assert!(!is_universal(&ng).unwrap());
        let outside = Tree::leaf(ng.ty().ctor_id("L").unwrap(), Label::single(123_456));
        assert!(!ng.accepts(&outside));
        match inclusion(&all, &ng).unwrap() {
            Verdict::Fails(cx) => assert!(cx.is_none_or(|w| !ng.accepts(&w))),
            Verdict::Holds => panic!("inclusion must fail"),
        }
    }

    #[test]
    fn randomized_agreement_with_complement() {
        // Small two-state automata: guards over residues and thresholds.
        let ty = bt();
        let alg = bt_alg(&ty);
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mk = |g1: Formula, g2: Formula| {
            let mut b = StaBuilder::new(ty.clone(), alg.clone());
            let q = b.state("q");
            let r = b.state("r");
            b.leaf_rule(q, l, g1);
            b.simple_rule(q, n, Formula::True, vec![Some(r), Some(q)]);
            b.leaf_rule(r, l, g2);
            b.simple_rule(r, n, Formula::True, vec![Some(q), Some(r)]);
            b.build(q)
        };
        let x = Term::field(0);
        let gs = [
            Formula::cmp(CmpOp::Gt, x.clone(), Term::int(0)),
            Formula::eq(x.clone().modulo(2), Term::int(1)),
            Formula::cmp(CmpOp::Le, x, Term::int(3)),
            Formula::True,
        ];
        for g1 in &gs {
            for g2 in &gs {
                for h1 in &gs {
                    let a = mk(g1.clone(), g2.clone());
                    let b = mk(h1.clone(), g2.clone());
                    agrees(&a, &b);
                    agrees(&b, &a);
                }
            }
        }
    }
}
