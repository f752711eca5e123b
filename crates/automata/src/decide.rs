//! Emptiness of STA languages, with witness extraction (Proposition 1;
//! §3.5's `is-empty`). Inclusion, equivalence and universality are the
//! antichain search's (`antichain.rs`).

use crate::error::AutomataError;
use crate::normalize::{nonempty_states, normalize};
use crate::sta::Sta;
use fast_smt::{BoolAlg, Label};
use fast_trees::Tree;

/// Emptiness of the designated language (Proposition 1).
///
/// # Errors
///
/// Propagates state-budget errors from normalization.
pub fn is_empty<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<bool, AutomataError> {
    let norm = normalize(sta)?;
    let ne = nonempty_states(&norm);
    Ok(!ne[norm.initial().0])
}

/// Produces a tree in the designated language, if the language is
/// non-empty and witness labels can be extracted from the guards.
///
/// The returned tree is always verified with [`Sta::accepts`]; `None`
/// therefore means "empty or could not construct", never a wrong witness.
///
/// # Errors
///
/// Propagates state-budget errors from normalization.
pub fn witness<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<Option<Tree>, AutomataError> {
    Ok(normalized_witness(&normalize(sta)?))
}

/// [`witness`] on an automaton that is already normalized (as returned
/// by [`normalize`]), for callers that decide emptiness with
/// [`nonempty_states`] on the same normalized automaton and should not
/// normalize twice. The returned tree is verified with [`Sta::accepts`].
///
/// # Panics
///
/// Panics if the automaton is not normalized.
pub fn normalized_witness<A: BoolAlg<Elem = Label>>(norm: &Sta<A>) -> Option<Tree> {
    assert!(
        norm.is_normalized(),
        "normalized_witness requires a normalized STA"
    );
    let alg = norm.alg().clone();
    let n = norm.state_count();
    let mut best: Vec<Option<Tree>> = vec![None; n];
    // Least fixpoint, building smallest-first witnesses.
    loop {
        let mut changed = false;
        for q in norm.states() {
            if best[q.0].is_some() {
                continue;
            }
            for r in norm.rules(q) {
                let kids: Option<Vec<Tree>> = r
                    .lookahead
                    .iter()
                    .map(|s| best[s.iter().next().unwrap().0].clone())
                    .collect();
                let Some(kids) = kids else { continue };
                let Some(label) = alg.model(&r.guard) else {
                    continue;
                };
                best[q.0] = Some(Tree::new(r.ctor, label, kids));
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }
    best[norm.initial().0].take().filter(|t| norm.accepts(t))
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
