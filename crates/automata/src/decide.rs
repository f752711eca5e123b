//! Emptiness of STA languages, with witness extraction (Proposition 1;
//! §3.5's `is-empty`): normalization from a root set (footnote 7), then
//! one least fixpoint. Inclusion, equivalence and universality are the
//! antichain search's (`antichain.rs`).

use crate::antichain::Verdict;
use crate::error::AutomataError;
use crate::normalize::normalize_rooted;
use crate::sta::{Sta, StateId};
use fast_smt::{BoolAlg, Label};
use fast_trees::Tree;
use std::collections::BTreeSet;

/// Emptiness of `⋂ L(q)` over `q ∈ roots`: the designated language when
/// `roots` is `{sta.initial()}`, every tree when `roots` is empty.
///
/// [`Verdict::Holds`] means empty. [`Verdict::Fails`] carries a member
/// verified with [`Sta::accepts`], or `None` when the solver calls the
/// language possibly inhabited but yields no model to build a member
/// from.
///
/// # Errors
///
/// Propagates state-budget errors from normalization.
pub fn emptiness<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
    roots: &BTreeSet<StateId>,
) -> Result<Verdict, AutomataError> {
    decide(sta, roots, true)
}

/// Emptiness of the designated language: [`emptiness`], building no tree.
///
/// # Errors
///
/// Propagates state-budget errors from normalization.
pub fn is_empty<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<bool, AutomataError> {
    Ok(decide(sta, &BTreeSet::from([sta.initial()]), false)?.holds())
}

/// A member of the designated language ([`emptiness`]'s), verified with
/// [`Sta::accepts`]; `None` means "empty or could not construct", never
/// a wrong witness.
///
/// # Errors
///
/// Propagates state-budget errors from normalization.
pub fn witness<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<Option<Tree>, AutomataError> {
    let verdict = emptiness(sta, &BTreeSet::from([sta.initial()]))?;
    Ok(verdict.counterexample().cloned())
}

/// [`emptiness`]; without `build`, a non-empty language is `Fails(None)`.
fn decide<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
    roots: &BTreeSet<StateId>,
    build: bool,
) -> Result<Verdict, AutomataError> {
    let (norm, root) = normalize_rooted(sta, vec![roots.clone()])?;
    let (nonempty, proved_by) = fixpoint(&norm, build);
    if !nonempty[root[0].0] {
        return Ok(Verdict::Holds);
    }
    let mut built = vec![None; norm.state_count()];
    let member = member(&norm, &proved_by, root[0].0, &mut built)
        .filter(|t| roots.is_subset(&sta.eval_states(t)));
    Ok(Verdict::Fails(member))
}

/// The rule index and guard model that prove a state inhabited.
type Proof = Option<(usize, Label)>;

/// The one emptiness fixpoint over a normalized STA, which
/// [`clean`](crate::clean) also reads. Per state: whether some rule has
/// non-empty children and a possibly satisfiable guard (`is_sat`), and,
/// with `prove`, the first rule whose children are proved and whose
/// guard has a model. Gauss-Seidel order: a state settled earlier in a
/// sweep counts for the states after it, so a proof's children were
/// proved before it.
pub(crate) fn fixpoint<A: BoolAlg<Elem = Label>>(
    norm: &Sta<A>,
    prove: bool,
) -> (Vec<bool>, Vec<Proof>) {
    let alg = norm.alg();
    let mut nonempty = vec![false; norm.state_count()];
    let mut proved_by: Vec<Proof> = vec![None; norm.state_count()];
    loop {
        let mut changed = false;
        for q in norm.states() {
            let rules = norm.rules(q);
            if !nonempty[q.0]
                && rules
                    .iter()
                    .any(|r| r.lookahead.iter().all(|s| nonempty[child(s)]) && alg.is_sat(&r.guard))
            {
                nonempty[q.0] = true;
                changed = true;
            }
            if prove && proved_by[q.0].is_none() {
                let proof = rules.iter().enumerate().find_map(|(i, r)| {
                    if !r.lookahead.iter().all(|s| proved_by[child(s)].is_some()) {
                        return None;
                    }
                    alg.model(&r.guard).map(|label| (i, label))
                });
                changed |= proof.is_some();
                proved_by[q.0] = proof;
            }
        }
        if !changed {
            return (nonempty, proved_by);
        }
    }
}

/// The tree the proofs give state `q`, children first, memoized in
/// `built`; `None` when `q` has no proof.
fn member<A: BoolAlg<Elem = Label>>(
    norm: &Sta<A>,
    proved_by: &[Proof],
    q: usize,
    built: &mut [Option<Tree>],
) -> Option<Tree> {
    if built[q].is_none() {
        let (i, label) = proved_by[q].as_ref()?;
        let r = &norm.rules(StateId(q))[*i];
        let kids: Option<Vec<Tree>> = r
            .lookahead
            .iter()
            .map(|s| member(norm, proved_by, child(s), built))
            .collect();
        built[q] = Some(Tree::new(r.ctor, label, kids?));
    }
    built[q].clone()
}

/// The one state of a normalized lookahead set.
fn child(s: &BTreeSet<StateId>) -> usize {
    s.first().expect("normalized: singleton lookahead").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::fixtures::{bt, bt_alg, example2};
    use crate::sta::StaBuilder;
    use fast_smt::{CmpOp, Formula, Term};

    #[test]
    fn example2_nonempty_with_witness() {
        let (sta, ..) = example2();
        assert!(!is_empty(&sta).unwrap());
        let w = witness(&sta).unwrap().expect("witness exists");
        assert!(sta.accepts(&w));
        // Everything in this automaton is inhabited.
        let norm = crate::normalize(&sta).unwrap();
        assert!(fixpoint(&norm, false).0.iter().all(|&b| b));
    }

    #[test]
    fn emptiness_of_a_root_set_is_of_the_intersection() {
        let (sta, p, o, _) = example2();
        // p ∩ o: all leaves positive and odd.
        let v = emptiness(&sta, &BTreeSet::from([p, o])).unwrap();
        let w = v.counterexample().expect("a positive odd leaf");
        assert!(sta.accepts_at(p, w) && sta.accepts_at(o, w));
        // The empty set is every tree.
        assert!(!emptiness(&sta, &BTreeSet::new()).unwrap().holds());
    }

    #[test]
    fn contradictory_guard_is_empty() {
        let ty = bt();
        let alg = bt_alg(&ty);
        let l = ty.ctor_id("L").unwrap();
        let x = Term::field(0);
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("q");
        // x > 0 and x < 0 simultaneously.
        b.leaf_rule(
            q,
            l,
            Formula::cmp(CmpOp::Gt, x.clone(), Term::int(0)).and(Formula::cmp(
                CmpOp::Lt,
                x,
                Term::int(0),
            )),
        );
        let sta = b.build(q);
        assert!(is_empty(&sta).unwrap());
        assert!(witness(&sta).unwrap().is_none());
        assert_eq!(
            emptiness(&sta, &BTreeSet::from([q])).unwrap(),
            Verdict::Holds
        );
    }

    #[test]
    fn structurally_empty() {
        let ty = bt();
        let alg = bt_alg(&ty);
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let q = b.state("q");
        // Only an N rule that requires itself: no base case ⇒ empty.
        b.simple_rule(q, n, Formula::True, vec![Some(q), Some(q)]);
        let sta = b.build(q);
        assert!(is_empty(&sta).unwrap());
    }
}
