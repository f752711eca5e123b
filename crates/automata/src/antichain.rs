//! Antichain-based universality and inclusion for STAs.
//!
//! §7 of the paper points at the antichain techniques of Bouajjani et al.
//! (CIAA'08) for nondeterministic tree automata and asks whether they
//! "translate to our setting" — this module answers constructively.
//!
//! The classical bottleneck is the subset construction: complement-based
//! inclusion materializes every reachable subset. The antichain
//! observation is that the bottom-up *post* operator is monotone — for a
//! fixed label, the subset of states reachable from larger child subsets
//! is larger — so a counterexample reachable through any subsets is also
//! reachable through ⊆-minimal ones (for universality) or
//! domination-extremal pairs (for inclusion), and only an antichain of
//! those needs to be explored. Symbolic guards integrate exactly as in
//! determinization: labels are split into satisfiable minterms of the
//! applicable guards, which is where the effective Boolean algebra does
//! its work.
//!
//! Both checks produce a *verified witness tree* on failure, built from
//! minterm models.

use crate::error::AutomataError;
use crate::normalize::{clean, normalize};
use crate::sta::{Sta, StateId};
use fast_smt::{minterms, BoolAlg, Label};
use fast_trees::Tree;
use std::collections::BTreeSet;

/// Budget on antichain elements (counterexample searches degrade to an
/// error rather than running away).
pub const MAX_ANTICHAIN: usize = 1 << 12;

/// An antichain element for universality: a reachable state subset with a
/// witness tree that evaluates to it.
struct UElem {
    set: BTreeSet<StateId>,
    witness: Tree,
}

/// Searches for a tree *outside* the designated language — `None` means
/// the language is universal.
///
/// # Errors
///
/// Propagates normalization budget errors and its own antichain budget.
pub fn universality_counterexample<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
) -> Result<Option<Tree>, AutomataError> {
    let norm = clean(&normalize(sta)?);
    let q0 = norm.initial();
    let alg = norm.alg().clone();
    let ty = norm.ty().clone();

    let mut chain: Vec<UElem> = Vec::new();
    loop {
        let mut grew = false;
        for ctor in ty.ctor_ids() {
            let rank = ty.rank(ctor);
            for tuple in tuples(chain.len(), rank) {
                // Applicable rules: child requirements inside the tuple's
                // subsets.
                let mut states = Vec::new();
                let mut guards: Vec<A::Pred> = Vec::new();
                for q in norm.states() {
                    for r in norm.rules(q) {
                        if r.ctor != ctor {
                            continue;
                        }
                        let ok = r.lookahead.iter().enumerate().all(|(i, s)| {
                            let p = s.iter().next().expect("normalized");
                            chain[tuple[i]].set.contains(p)
                        });
                        if ok {
                            states.push(q);
                            guards.push(r.guard.clone());
                        }
                    }
                }
                let mut uniq: Vec<A::Pred> = Vec::new();
                let mut idx = Vec::with_capacity(guards.len());
                for g in &guards {
                    match uniq.iter().position(|u| u == g) {
                        Some(i) => idx.push(i),
                        None => {
                            uniq.push(g.clone());
                            idx.push(uniq.len() - 1);
                        }
                    }
                }
                for (signs, pred) in minterms(alg.as_ref(), &uniq) {
                    let Some(label) = alg.model(&pred) else {
                        // Can't build a concrete witness: skip this region
                        // (sound — we only miss potential counterexamples,
                        // and Unknown-sat regions have no usable model).
                        continue;
                    };
                    let target: BTreeSet<StateId> = states
                        .iter()
                        .zip(idx.iter())
                        .filter(|(_, &gi)| signs[gi])
                        .map(|(&q, _)| q)
                        .collect();
                    let witness = Tree::new(
                        ctor,
                        label,
                        tuple
                            .iter()
                            .map(|&i| chain[i].witness.clone())
                            .collect::<Vec<_>>(),
                    );
                    if !target.contains(&q0) {
                        debug_assert!(!sta.accepts(&witness));
                        return Ok(Some(witness));
                    }
                    // Keep only ⊆-minimal subsets.
                    if chain.iter().any(|e| e.set.is_subset(&target)) {
                        continue;
                    }
                    chain.retain(|e| !target.is_subset(&e.set));
                    chain.push(UElem {
                        set: target,
                        witness,
                    });
                    if chain.len() > MAX_ANTICHAIN {
                        return Err(AutomataError::StateLimit {
                            context: "antichain universality",
                            limit: MAX_ANTICHAIN,
                        });
                    }
                    grew = true;
                }
            }
        }
        if !grew {
            return Ok(None);
        }
    }
}

/// Antichain universality check.
///
/// # Errors
///
/// Propagates budget errors.
pub fn is_universal_antichain<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
) -> Result<bool, AutomataError> {
    Ok(universality_counterexample(sta)?.is_none())
}

/// An antichain element for inclusion: the pair of subsets the two
/// automata assign to a common witness tree. Domination order:
/// `(S, T) ⊒ (S', T')` iff `S ⊇ S'` and `T ⊆ T'` — dominated pairs can
/// never yield a counterexample the dominating pair cannot.
struct IElem {
    a: BTreeSet<StateId>,
    b: BTreeSet<StateId>,
    witness: Tree,
}

/// Searches for a tree in `L(a)` but not in `L(b)` — `None` means
/// `L(a) ⊆ L(b)`.
///
/// # Errors
///
/// Propagates budget errors.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn inclusion_counterexample<A: BoolAlg<Elem = Label>>(
    a: &Sta<A>,
    b: &Sta<A>,
) -> Result<Option<Tree>, AutomataError> {
    assert_eq!(a.ty(), b.ty(), "tree type mismatch");
    let na = clean(&normalize(a)?);
    let nb = clean(&normalize(b)?);
    let (a0, b0) = (na.initial(), nb.initial());
    let alg = na.alg().clone();
    let ty = na.ty().clone();

    let mut chain: Vec<IElem> = Vec::new();
    loop {
        let mut grew = false;
        for ctor in ty.ctor_ids() {
            let rank = ty.rank(ctor);
            for tuple in tuples(chain.len(), rank) {
                // Applicable rules of both automata; minterms over the
                // union of their guards.
                let mut a_states = Vec::new();
                let mut b_states = Vec::new();
                let mut guards: Vec<A::Pred> = Vec::new();
                let mut a_idx = Vec::new();
                let mut b_idx = Vec::new();
                let intern = |g: &A::Pred, guards: &mut Vec<A::Pred>| -> usize {
                    match guards.iter().position(|u| u == g) {
                        Some(i) => i,
                        None => {
                            guards.push(g.clone());
                            guards.len() - 1
                        }
                    }
                };
                for q in na.states() {
                    for r in na.rules(q) {
                        if r.ctor != ctor {
                            continue;
                        }
                        let ok = r.lookahead.iter().enumerate().all(|(i, s)| {
                            let p = s.iter().next().expect("normalized");
                            chain[tuple[i]].a.contains(p)
                        });
                        if ok {
                            a_states.push(q);
                            a_idx.push(intern(&r.guard, &mut guards));
                        }
                    }
                }
                for q in nb.states() {
                    for r in nb.rules(q) {
                        if r.ctor != ctor {
                            continue;
                        }
                        let ok = r.lookahead.iter().enumerate().all(|(i, s)| {
                            let p = s.iter().next().expect("normalized");
                            chain[tuple[i]].b.contains(p)
                        });
                        if ok {
                            b_states.push(q);
                            b_idx.push(intern(&r.guard, &mut guards));
                        }
                    }
                }
                for (signs, pred) in minterms(alg.as_ref(), &guards) {
                    let Some(label) = alg.model(&pred) else {
                        continue;
                    };
                    let ta: BTreeSet<StateId> = a_states
                        .iter()
                        .zip(a_idx.iter())
                        .filter(|(_, &gi)| signs[gi])
                        .map(|(&q, _)| q)
                        .collect();
                    // Pairs with empty A-sets are still kept: subtrees
                    // off a counterexample's accepting spine may have
                    // them.
                    let tb: BTreeSet<StateId> = b_states
                        .iter()
                        .zip(b_idx.iter())
                        .filter(|(_, &gi)| signs[gi])
                        .map(|(&q, _)| q)
                        .collect();
                    let witness = Tree::new(
                        ctor,
                        label,
                        tuple
                            .iter()
                            .map(|&i| chain[i].witness.clone())
                            .collect::<Vec<_>>(),
                    );
                    if ta.contains(&a0) && !tb.contains(&b0) {
                        debug_assert!(a.accepts(&witness) && !b.accepts(&witness));
                        return Ok(Some(witness));
                    }
                    // Keep only domination-maximal pairs.
                    if chain
                        .iter()
                        .any(|e| ta.is_subset(&e.a) && e.b.is_subset(&tb))
                    {
                        continue;
                    }
                    chain.retain(|e| !(e.a.is_subset(&ta) && tb.is_subset(&e.b)));
                    chain.push(IElem {
                        a: ta,
                        b: tb,
                        witness,
                    });
                    if chain.len() > MAX_ANTICHAIN {
                        return Err(AutomataError::StateLimit {
                            context: "antichain inclusion",
                            limit: MAX_ANTICHAIN,
                        });
                    }
                    grew = true;
                }
            }
        }
        if !grew {
            return Ok(None);
        }
    }
}

/// Antichain inclusion check: `L(a) ⊆ L(b)`.
///
/// # Errors
///
/// Propagates budget errors.
///
/// # Panics
///
/// Panics if the automata have different tree types.
pub fn includes_antichain<A: BoolAlg<Elem = Label>>(
    a: &Sta<A>,
    b: &Sta<A>,
) -> Result<bool, AutomataError> {
    Ok(inclusion_counterexample(a, b)?.is_none())
}

fn tuples(n: usize, rank: usize) -> Vec<Vec<usize>> {
    if rank == 0 {
        return vec![Vec::new()];
    }
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cur = vec![0usize; rank];
    loop {
        out.push(cur.clone());
        let mut i = rank;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            cur[i] += 1;
            if cur[i] < n {
                break;
            }
            cur[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{includes, is_universal};
    use crate::ops::{intersect, union};
    use crate::sta::StaBuilder;
    use fast_smt::{CmpOp, Formula, LabelAlg, LabelSig, Term};
    use fast_trees::TreeType;
    use std::sync::Arc;

    fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
        let ty = TreeType::new(
            "BT",
            LabelSig::single("i", fast_smt::Sort::Int),
            vec![("L", 0), ("N", 2)],
        );
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        (ty, alg)
    }

    fn leaves(lo: i64) -> Sta {
        let (ty, alg) = bt();
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("q");
        b.leaf_rule(q, l, Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(lo)));
        b.simple_rule(q, n, Formula::True, vec![Some(q), Some(q)]);
        b.build(q)
    }

    fn all_trees() -> Sta {
        let (ty, alg) = bt();
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("all");
        b.leaf_rule(q, l, Formula::True);
        b.simple_rule(q, n, Formula::True, vec![Some(q), Some(q)]);
        b.build(q)
    }

    #[test]
    fn universality_agrees_with_determinization() {
        assert!(is_universal_antichain(&all_trees()).unwrap());
        assert!(is_universal(&all_trees()).unwrap());
        let partial = leaves(0);
        assert!(!is_universal_antichain(&partial).unwrap());
        assert!(!is_universal(&partial).unwrap());
        // Union of x > 0 and x ≤ 0 leaves is universal.
        let (ty, alg) = bt();
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("le0");
        b.leaf_rule(q, l, Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0)));
        b.simple_rule(q, n, Formula::True, vec![Some(q), Some(q)]);
        let le0 = b.build(q);
        let u = union(&leaves(0), &le0);
        // Not universal: N nodes mixing the two kinds are rejected.
        assert_eq!(
            is_universal_antichain(&u).unwrap(),
            is_universal(&u).unwrap()
        );
    }

    #[test]
    fn universality_counterexample_is_genuine() {
        let partial = leaves(5);
        let cx = universality_counterexample(&partial).unwrap().unwrap();
        assert!(!partial.accepts(&cx));
    }

    #[test]
    fn inclusion_agrees_with_determinization() {
        let big = leaves(0);
        let small = leaves(5);
        assert!(includes_antichain(&small, &big).unwrap());
        assert!(includes(&small, &big).unwrap());
        assert!(!includes_antichain(&big, &small).unwrap());
        assert!(!includes(&big, &small).unwrap());
        // Reflexivity and the lattice corner cases.
        assert!(includes_antichain(&big, &big).unwrap());
        assert!(includes_antichain(&small, &all_trees()).unwrap());
        let meet = intersect(&big, &small);
        assert!(includes_antichain(&meet, &small).unwrap());
    }

    #[test]
    fn inclusion_counterexample_is_genuine() {
        let big = leaves(0);
        let small = leaves(5);
        let cx = inclusion_counterexample(&big, &small).unwrap().unwrap();
        assert!(big.accepts(&cx));
        assert!(!small.accepts(&cx));
    }

    #[test]
    fn randomized_agreement_with_determinization() {
        // Random-ish small automata: guards over residues and thresholds.
        let (ty, alg) = bt();
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
            Formula::cmp(CmpOp::Le, x.clone(), Term::int(3)),
            Formula::True,
        ];
        for g1 in &gs {
            for g2 in &gs {
                for h1 in &gs {
                    let a = mk(g1.clone(), g2.clone());
                    let b2 = mk(h1.clone(), g2.clone());
                    assert_eq!(
                        includes_antichain(&a, &b2).unwrap(),
                        includes(&a, &b2).unwrap(),
                        "disagree: {g1} {g2} vs {h1}"
                    );
                }
            }
        }
    }
}
