//! Normalization of alternating STAs (§3.2 of the paper).
//!
//! A normalized STA has singleton lookahead sets everywhere (Definition 3).
//! Following footnote 7, merged rules are computed *lazily* from the
//! designated root set, merged rules with unsatisfiable guards are
//! eliminated eagerly, and the result is cleaned by removing states that
//! accept no tree.

use crate::error::AutomataError;
use crate::sta::{Rule, Sta, StateId};
use fast_smt::{BoolAlg, Label};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Hard cap on the number of merged states materialized during
/// normalization; exceeding it returns
/// [`AutomataError::StateLimit`].
pub const MAX_MERGED_STATES: usize = 1 << 14;

/// Normalizes `sta`, rooting the construction at its designated state.
///
/// The result accepts exactly the same language at its designated state
/// and satisfies [`Sta::is_normalized`].
///
/// # Errors
///
/// Returns [`AutomataError::StateLimit`] if more than
/// [`MAX_MERGED_STATES`] merged states are needed.
pub fn normalize<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<Sta<A>, AutomataError> {
    let root: BTreeSet<StateId> = [sta.initial()].into_iter().collect();
    let (out, roots) = normalize_rooted(sta, vec![root])?;
    Ok(out.with_initial(roots[0]))
}

/// Normalizes with explicit root sets (used by language intersection, by
/// determinization, and by the transducer crate for lookahead handling).
/// Returns the normalized automaton plus the state corresponding to each
/// requested root set.
///
/// # Errors
///
/// Returns [`AutomataError::StateLimit`] if the merged-state space
/// exceeds [`MAX_MERGED_STATES`].
pub fn normalize_rooted<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
    roots: Vec<BTreeSet<StateId>>,
) -> Result<(Sta<A>, Vec<StateId>), AutomataError> {
    let alg = sta.alg().clone();
    let mut out: Sta<A> = Sta::from_parts(
        sta.ty().clone(),
        alg.clone(),
        Vec::new(),
        Vec::new(),
        StateId(0),
    );
    let mut ids: HashMap<BTreeSet<StateId>, StateId> = HashMap::new();
    let mut queue: VecDeque<BTreeSet<StateId>> = VecDeque::new();

    fn get<A: BoolAlg<Elem = Label>>(
        sta: &Sta<A>,
        set: &BTreeSet<StateId>,
        ids: &mut HashMap<BTreeSet<StateId>, StateId>,
        out: &mut Sta<A>,
        queue: &mut VecDeque<BTreeSet<StateId>>,
    ) -> Result<StateId, AutomataError> {
        if let Some(&id) = ids.get(set) {
            return Ok(id);
        }
        if ids.len() >= MAX_MERGED_STATES {
            return Err(AutomataError::StateLimit {
                context: "normalize",
                limit: MAX_MERGED_STATES,
            });
        }
        let name = if set.is_empty() {
            "⊤".to_string()
        } else {
            let names: Vec<&str> = set.iter().map(|&q| sta.state_name(q)).collect();
            names.join("&")
        };
        let id = out.push_state(name);
        ids.insert(set.clone(), id);
        queue.push_back(set.clone());
        Ok(id)
    }

    let mut root_ids = Vec::with_capacity(roots.len());
    for r in &roots {
        root_ids.push(get(sta, r, &mut ids, &mut out, &mut queue)?);
    }

    while let Some(set) = queue.pop_front() {
        let me = ids[&set];
        for ctor in sta.ty().ctor_ids() {
            let rank = sta.ty().rank(ctor);
            if set.is_empty() {
                // δ_f(∅): the universal state — one unconstrained rule per
                // constructor, children again universal.
                let top = get(sta, &BTreeSet::new(), &mut ids, &mut out, &mut queue)?;
                out.push_rule(
                    me,
                    Rule {
                        ctor,
                        guard: alg.tt(),
                        lookahead: (0..rank).map(|_| [top].into_iter().collect()).collect(),
                    },
                );
                continue;
            }
            // Cartesian product of per-state rule choices, with incremental
            // guard conjunction and eager unsat pruning.
            let members: Vec<StateId> = set.iter().copied().collect();
            let mut partial: Vec<(A::Pred, Vec<BTreeSet<StateId>>)> =
                vec![(alg.tt(), (0..rank).map(|_| BTreeSet::new()).collect())];
            let mut dead = false;
            for &p in &members {
                let choices: Vec<&Rule<A>> =
                    sta.rules(p).iter().filter(|r| r.ctor == ctor).collect();
                if choices.is_empty() {
                    dead = true;
                    break;
                }
                let mut next = Vec::new();
                for (guard, las) in &partial {
                    for r in &choices {
                        let g = alg.and(guard, &r.guard);
                        if !alg.is_sat(&g) {
                            continue;
                        }
                        let merged: Vec<BTreeSet<StateId>> = las
                            .iter()
                            .zip(r.lookahead.iter())
                            .map(|(a, b)| a.union(b).copied().collect())
                            .collect();
                        next.push((g, merged));
                    }
                }
                partial = next;
                if partial.is_empty() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            for (guard, las) in partial {
                let mut lookahead = Vec::with_capacity(rank);
                for la in &las {
                    let child = get(sta, la, &mut ids, &mut out, &mut queue)?;
                    lookahead.push([child].into_iter().collect());
                }
                out.push_rule(
                    me,
                    Rule {
                        ctor,
                        guard,
                        lookahead,
                    },
                );
            }
        }
    }

    Ok((out, root_ids))
}

/// Removes rules that depend on empty states (cleaning step of footnote 7).
/// State ids are preserved; the designated state keeps its language.
pub fn clean<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Sta<A> {
    if !sta.is_normalized() {
        return sta.clone();
    }
    let nonempty = inhabited(sta);
    let mut out: Sta<A> = Sta::from_parts(
        sta.ty().clone(),
        sta.alg().clone(),
        Vec::new(),
        Vec::new(),
        sta.initial(),
    );
    for q in sta.states() {
        out.push_state(sta.state_name(q).to_string());
    }
    for q in sta.states() {
        for r in sta.rules(q) {
            if r.lookahead
                .iter()
                .all(|s| nonempty[s.iter().next().unwrap().0])
                && sta.alg().is_sat(&r.guard)
            {
                out.push_rule(q, r.clone());
            }
        }
    }
    // Note: no with_initial — the automaton may legitimately have zero
    // states (e.g. a domain automaton with no child requirements), and
    // from_parts above already carried the designated state over.
    out
}

/// Per state of a normalized STA, whether it accepts some tree: the
/// least fixpoint of "some rule has a satisfiable guard (`is_sat`) and
/// inhabited children", swept in Gauss-Seidel order.
fn inhabited<A: BoolAlg<Elem = Label>>(norm: &Sta<A>) -> Vec<bool> {
    let alg = norm.alg();
    let mut nonempty = vec![false; norm.state_count()];
    let mut changed = true;
    while changed {
        changed = false;
        for q in norm.states() {
            if !nonempty[q.0]
                && norm.rules(q).iter().any(|r| {
                    r.lookahead
                        .iter()
                        .all(|s| nonempty[s.first().expect("normalized").0])
                        && alg.is_sat(&r.guard)
                })
            {
                nonempty[q.0] = true;
                changed = true;
            }
        }
    }
    nonempty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::fixtures::example2;
    use fast_trees::Tree;

    #[test]
    fn normalize_preserves_language() {
        let (sta, _p, _o, _q) = example2();
        let norm = normalize(&sta).unwrap();
        assert!(norm.is_normalized());
        let ty = sta.ty().clone();
        for text in [
            "N[0](L[-4], L[3])",
            "N[0](L[-4], L[2])",
            "N[0](L[1], L[-3])",
            "L[1]",
            "N[5](N[1](L[1], L[3]), L[5])",
            "N[5](L[0], L[5])",
        ] {
            let t = Tree::parse(&ty, text).unwrap();
            assert_eq!(sta.accepts(&t), norm.accepts(&t), "disagree on {text}");
        }
    }

    #[test]
    fn normalize_merges_p_and_o() {
        let (sta, ..) = example2();
        let norm = normalize(&sta).unwrap();
        // Everything in this automaton is inhabited.
        assert!(inhabited(&norm).iter().all(|&b| b));
        // Root is {q}; its N-rule's second child is the merged state {p,o};
        // expanding that requires L-rules with guard (x>0 ∧ odd x).
        let merged = norm
            .states()
            .find(|&s| norm.state_name(s).contains('&'))
            .expect("merged state p&o");
        let ty = sta.ty().clone();
        assert!(norm.accepts_at(merged, &Tree::parse(&ty, "L[3]").unwrap()));
        assert!(!norm.accepts_at(merged, &Tree::parse(&ty, "L[2]").unwrap()));
        assert!(!norm.accepts_at(merged, &Tree::parse(&ty, "L[-3]").unwrap()));
    }

    #[test]
    fn empty_set_state_is_universal() {
        let (sta, ..) = example2();
        let norm = normalize(&sta).unwrap();
        let top = norm
            .states()
            .find(|&s| norm.state_name(s) == "⊤")
            .expect("universal state");
        let ty = sta.ty().clone();
        for text in ["L[0]", "L[7]", "N[1](L[0], L[0])"] {
            assert!(norm.accepts_at(top, &Tree::parse(&ty, text).unwrap()));
        }
    }

    #[test]
    fn clean_drops_dead_rules() {
        use crate::sta::fixtures::{bt, bt_alg};
        use crate::sta::StaBuilder;
        use fast_smt::Formula;
        let ty = bt();
        let alg = bt_alg(&ty);
        let l = ty.ctor_id("L").unwrap();
        let n = ty.ctor_id("N").unwrap();
        let mut b = StaBuilder::new(ty.clone(), alg);
        let dead = b.state("dead"); // no rules at all: empty language
        let q = b.state("q");
        b.leaf_rule(q, l, Formula::True);
        b.simple_rule(q, n, Formula::True, vec![Some(dead), Some(q)]);
        let sta = b.build(q);
        let cleaned = clean(&sta);
        // The N-rule depended on the empty state `dead` and must be gone.
        assert_eq!(cleaned.rules(q).len(), 1);
        assert!(cleaned.accepts(&Tree::parse(&ty, "L[0]").unwrap()));
        assert!(!cleaned.accepts(&Tree::parse(&ty, "N[0](L[0], L[0])").unwrap()));
    }
}
