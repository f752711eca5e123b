//! Equivalence *falsification* for STTRs.
//!
//! Deciding equivalence of STTRs is an open problem (§7 of the paper —
//! even single-valuedness of STTRs is open). This module provides the
//! practical complement: an exact check on *domains* (which is decidable,
//! via the domain automata) plus bounded-exhaustive differential testing
//! on inputs whose labels are mined from the transducers' own guards. A
//! returned witness is always a genuine inequivalence; `None` means "no
//! difference found within the budget", not a proof of equivalence.

use crate::error::TransducerError;
use crate::sttr::Sttr;
use fast_automata::{inclusion, Verdict};
use fast_smt::{Label, TransAlg};
use fast_trees::Tree;

/// Budget for [`find_inequivalence`].
#[derive(Debug, Clone, Copy)]
pub struct EquivConfig {
    /// Maximum depth of generated input trees.
    pub max_depth: usize,
    /// Maximum number of generated inputs to test.
    pub max_cases: usize,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            max_depth: 4,
            max_cases: 4_000,
        }
    }
}

/// Searches for an input on which the two transductions differ
/// (as sets of outputs).
///
/// Phase 1 compares the domains exactly (decidable): a tree in one domain
/// but not the other is an immediate witness. Phase 2 enumerates trees
/// bounded by `cfg`, with node labels drawn from models of both
/// transducers' rule guards (so guard boundaries are exercised), and
/// compares output sets.
///
/// # Errors
///
/// Propagates automata budget errors from the domain comparison and run
/// budget errors from test execution.
///
/// # Panics
///
/// Panics if the transducers have different tree types.
pub fn find_inequivalence<A: TransAlg<Elem = Label>>(
    a: &Sttr<A>,
    b: &Sttr<A>,
    cfg: EquivConfig,
) -> Result<Option<Tree>, TransducerError> {
    assert_eq!(a.ty(), b.ty(), "tree type mismatch");
    // Phase 1: exact domain comparison.
    let (da, db) = (a.domain(), b.domain());
    for (x, y) in [(&da, &db), (&db, &da)] {
        if let Verdict::Fails(Some(w)) = inclusion(x, y).map_err(TransducerError::from)? {
            return Ok(Some(w));
        }
    }
    // Phase 2: bounded-exhaustive differential testing over mined labels.
    let labels = mined_labels(a, b);
    let mut count = 0usize;
    let mut stack: Vec<Tree> = Vec::new();
    enumerate(a.ty(), &labels, cfg.max_depth, &mut |t| {
        if count >= cfg.max_cases {
            return false;
        }
        count += 1;
        stack.push(t.clone());
        true
    });
    for t in stack {
        if a.run(&t)? != b.run(&t)? {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

/// Collects candidate node labels: a model of every rule guard of both
/// transducers and of every lookahead-automaton rule guard, plus the
/// all-default label. Models sit inside their guards; to also probe just
/// *outside*, callers can extend the pool before testing.
fn mined_labels<A: TransAlg<Elem = Label>>(a: &Sttr<A>, b: &Sttr<A>) -> Vec<Label> {
    let mut labels: Vec<Label> = vec![Label::default_of(alg_sig(a))];
    extend_guard_labels(a, &mut labels);
    extend_guard_labels(b, &mut labels);
    labels
}

/// Extends `labels` with a model of every rule guard of `s` (and its
/// negation) and of every lookahead-automaton rule guard, deduplicated.
/// Shared by equivalence falsification and the single-valuedness witness
/// search ([`crate::sv`]).
pub(crate) fn extend_guard_labels<A: TransAlg<Elem = Label>>(s: &Sttr<A>, labels: &mut Vec<Label>) {
    let alg = s.alg();
    let mut push = |l: Option<Label>| {
        if let Some(l) = l {
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
    };
    for q in s.states() {
        for r in s.rules(q) {
            push(alg.model(&r.guard));
            push(alg.model(&alg.not(&r.guard)));
        }
    }
    let la = s.lookahead_sta();
    for q in la.states() {
        for r in la.rules(q) {
            push(alg.model(&r.guard));
        }
    }
}

fn alg_sig<A: TransAlg<Elem = Label>>(s: &Sttr<A>) -> &fast_smt::LabelSig {
    s.ty().sig()
}

/// Depth-bounded exhaustive tree enumeration over a label pool; the
/// visitor returns `false` to stop early.
pub(crate) fn enumerate(
    ty: &fast_trees::TreeType,
    labels: &[Label],
    depth: usize,
    visit: &mut dyn FnMut(&Tree) -> bool,
) {
    // Build all trees of depth exactly 1, then grow level by level.
    let mut current: Vec<Tree> = Vec::new();
    for ctor in ty.ctor_ids() {
        if ty.rank(ctor) == 0 {
            for l in labels {
                current.push(Tree::leaf(ctor, l.clone()));
            }
        }
    }
    for t in &current {
        if !visit(t) {
            return;
        }
    }
    let mut all = current.clone();
    for _ in 1..depth {
        let mut next = Vec::new();
        for ctor in ty.ctor_ids() {
            let rank = ty.rank(ctor);
            if rank == 0 {
                continue;
            }
            // Children tuples over everything built so far, capped by the
            // visitor's budget.
            let mut tuple_idx = vec![0usize; rank];
            'tuples: loop {
                for l in labels {
                    let kids: Vec<Tree> = tuple_idx.iter().map(|&i| all[i].clone()).collect();
                    let t = Tree::new(ctor, l.clone(), kids);
                    if !visit(&t) {
                        return;
                    }
                    next.push(t);
                }
                let mut i = rank;
                loop {
                    if i == 0 {
                        break 'tuples;
                    }
                    i -= 1;
                    tuple_idx[i] += 1;
                    if tuple_idx[i] < all.len() {
                        break;
                    }
                    tuple_idx[i] = 0;
                }
            }
        }
        all.extend(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sttr::fixtures::{ilist, ilist_alg, map_caesar};
    use crate::sttr::SttrBuilder;
    use crate::Out;
    use fast_smt::{CmpOp, Formula, LabelFn, Term};

    fn map_plus(k: i64) -> Sttr {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("map");
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
                LabelFn::new(vec![Term::field(0).add(Term::int(k))]),
                vec![Out::Call(q, 0)],
            ),
        );
        b.build(q)
    }

    #[test]
    fn identical_transducers_no_witness() {
        let a = map_caesar();
        assert_eq!(
            find_inequivalence(&a, &a, EquivConfig::default()).unwrap(),
            None
        );
    }

    #[test]
    fn different_relabelings_found() {
        let a = map_plus(5);
        let b = map_plus(6);
        let w = find_inequivalence(&a, &b, EquivConfig::default())
            .unwrap()
            .expect("+5 and +6 differ");
        assert_ne!(a.run(&w).unwrap(), b.run(&w).unwrap());
    }

    #[test]
    fn domain_difference_found_exactly() {
        // Same behavior, different domain: restrict one to even heads.
        let a = map_plus(1);
        let ty = a.ty().clone();
        let alg = a.alg().clone();
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut lb = fast_automata::StaBuilder::new(ty, alg);
        let s = lb.state("even_head");
        lb.leaf_rule(s, nil, Formula::True);
        lb.simple_rule(
            s,
            cons,
            Formula::eq(Term::field(0).modulo(2), Term::int(0)),
            vec![None],
        );
        let even_head = lb.build(s);
        let b = crate::ops::restrict(&a, &even_head).unwrap();
        let w = find_inequivalence(&a, &b, EquivConfig::default())
            .unwrap()
            .expect("domains differ");
        // The witness is in exactly one domain.
        assert_ne!(a.run(&w).unwrap().is_empty(), b.run(&w).unwrap().is_empty());
    }

    #[test]
    fn guard_boundary_difference_found() {
        // Differ only on inputs where i > 100 — mined guard models make
        // the enumeration probe that region.
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mk = |flip: bool| {
            let mut b = SttrBuilder::new(ty.clone(), alg.clone());
            let q = b.state("m");
            b.plain_rule(
                q,
                nil,
                Formula::True,
                Out::node(nil, LabelFn::identity(1), vec![]),
            );
            let big = Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(100));
            let out_big = if flip { Term::int(0) } else { Term::field(0) };
            b.plain_rule(
                q,
                cons,
                big.clone(),
                Out::node(cons, LabelFn::new(vec![out_big]), vec![Out::Call(q, 0)]),
            );
            b.plain_rule(
                q,
                cons,
                big.not(),
                Out::node(cons, LabelFn::identity(1), vec![Out::Call(q, 0)]),
            );
            b.build(q)
        };
        let (a, b) = (mk(false), mk(true));
        let w = find_inequivalence(&a, &b, EquivConfig::default())
            .unwrap()
            .expect("they differ above 100");
        assert_ne!(a.run(&w).unwrap(), b.run(&w).unwrap());
    }
}
