//! Deterministic bottom-up symbolic tree automata.
//!
//! Normalized STAs are determinized by the symbolic subset construction:
//! guards of simultaneously applicable rules are split into *minterms*
//! (satisfiable sign-assignments, computed by [`fast_smt::minterms`]),
//! which makes the transition relation a partition of the label space for
//! every constructor and child-state tuple. Determinization enables
//! complementation and minimization, exactly as in the classical theory —
//! the paper's closure results for STAs (§1, [39]) rest on this
//! construction.

use crate::error::AutomataError;
use crate::sta::{Rule, Sta, StateId};
use fast_smt::{minterms, BoolAlg, Label, LabelAlg};
use fast_trees::{CtorId, Tree, TreeType};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Budget for determinization (number of subset states).
pub const MAX_DET_STATES: usize = 1 << 12;

/// Symbolic transition table: per (constructor, child-state tuple), the
/// minterm-partitioned guarded targets. Ordered so that every iteration
/// (notably [`Dbta::to_sta`]'s rule emission) is deterministic — rule
/// order is serialized into `.fastc` artifacts, which must be
/// byte-reproducible.
type TransTable<A> = BTreeMap<(CtorId, Vec<usize>), Vec<(<A as BoolAlg>::Pred, usize)>>;

/// A deterministic, complete, bottom-up symbolic tree automaton.
///
/// Every tree of the underlying type evaluates to exactly one state; the
/// `contents` of a state record which states of the source (normalized)
/// STA accept the trees evaluating to it, so any Boolean combination of
/// source languages can be designated as final.
#[derive(Debug)]
pub struct Dbta<A: BoolAlg<Elem = Label> = LabelAlg> {
    ty: Arc<TreeType>,
    alg: Arc<A>,
    contents: Vec<BTreeSet<StateId>>,
    trans: TransTable<A>,
    finals: Vec<bool>,
}

impl<A: BoolAlg<Elem = Label>> Clone for Dbta<A> {
    fn clone(&self) -> Self {
        Dbta {
            ty: self.ty.clone(),
            alg: self.alg.clone(),
            contents: self.contents.clone(),
            trans: self.trans.clone(),
            finals: self.finals.clone(),
        }
    }
}

impl<A: BoolAlg<Elem = Label>> Dbta<A> {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.contents.len()
    }

    /// The tree type.
    pub fn ty(&self) -> &Arc<TreeType> {
        &self.ty
    }

    /// Source-STA states accepting the trees that evaluate to `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn contents(&self, s: usize) -> &BTreeSet<StateId> {
        &self.contents[s]
    }

    /// Sets the final-state predicate in terms of subset contents.
    pub fn set_finals(&mut self, f: impl Fn(&BTreeSet<StateId>) -> bool) {
        self.finals = self.contents.iter().map(f).collect();
    }

    /// Flips every final flag (language complement).
    pub fn complement_finals(&mut self) {
        for b in &mut self.finals {
            *b = !*b;
        }
    }

    /// Evaluates a tree to its unique state.
    ///
    /// # Panics
    ///
    /// Panics if the tree does not conform to the tree type (missing
    /// transition), which cannot happen for conforming trees.
    pub fn eval(&self, t: &Tree) -> usize {
        let kids: Vec<usize> = t.children().iter().map(|c| self.eval(c)).collect();
        let entry = self
            .trans
            .get(&(t.ctor(), kids))
            .expect("complete automaton: transition must exist");
        for (pred, target) in entry {
            if self.alg.eval(pred, t.label()) {
                return *target;
            }
        }
        unreachable!("minterms partition the label space")
    }

    /// Language membership for the current final set.
    pub fn accepts(&self, t: &Tree) -> bool {
        self.finals[self.eval(t)]
    }

    /// Converts back to a (normalized) top-down STA whose designated state
    /// accepts exactly the union of the final states' languages.
    pub fn to_sta(&self) -> Sta<A> {
        let mut out: Sta<A> = Sta::from_parts(
            self.ty.clone(),
            self.alg.clone(),
            Vec::new(),
            Vec::new(),
            StateId(0),
        );
        for i in 0..self.state_count() {
            out.push_state(format!("d{i}"));
        }
        let init = out.push_state("final".to_string());
        for ((ctor, tuple), entries) in &self.trans {
            for (pred, target) in entries {
                let rule = Rule {
                    ctor: *ctor,
                    guard: pred.clone(),
                    lookahead: tuple
                        .iter()
                        .map(|&s| [StateId(s)].into_iter().collect())
                        .collect(),
                };
                if self.finals[*target] {
                    out.push_rule(init, rule.clone());
                }
                out.push_rule(StateId(*target), rule);
            }
        }
        out.with_initial(init)
    }

    /// Moore-style minimization with respect to the current final set.
    ///
    /// Pairwise refinement: two states are distinguishable if their final
    /// flags differ, or if substituting one for the other in any child
    /// position of any transition leads (on an overlapping label minterm)
    /// to distinguishable targets.
    pub fn minimize(&self) -> Dbta<A> {
        let n = self.state_count();
        let mut distinct = vec![vec![false; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric index pair
        for p in 0..n {
            for q in 0..n {
                if self.finals[p] != self.finals[q] {
                    distinct[p][q] = true;
                }
            }
        }
        loop {
            let mut changed = false;
            for ((ctor, tuple), entries) in &self.trans {
                for (j, &pj) in tuple.iter().enumerate() {
                    for qj in 0..n {
                        if qj == pj || distinct[pj][qj] {
                            continue;
                        }
                        let mut alt = tuple.clone();
                        alt[j] = qj;
                        let other = match self.trans.get(&(*ctor, alt)) {
                            Some(o) => o,
                            None => continue, // unreachable tuple
                        };
                        'outer: for (pa, ta) in entries {
                            for (pb, tb) in other {
                                if distinct[*ta][*tb] && self.alg.is_sat(&self.alg.and(pa, pb)) {
                                    distinct[pj][qj] = true;
                                    distinct[qj][pj] = true;
                                    changed = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Build classes.
        let mut class = vec![usize::MAX; n];
        let mut reps: Vec<usize> = Vec::new();
        for p in 0..n {
            if let Some(&r) = reps.iter().find(|&&r| !distinct[p][r]) {
                class[p] = class[r];
            } else {
                class[p] = reps.len();
                reps.push(p);
            }
        }
        let mut trans: TransTable<A> = BTreeMap::new();
        for ((ctor, tuple), entries) in &self.trans {
            let key = (*ctor, tuple.iter().map(|&s| class[s]).collect::<Vec<_>>());
            let slot = trans.entry(key).or_default();
            for (pred, target) in entries {
                let tc = class[*target];
                match slot.iter_mut().find(|(_, t)| *t == tc) {
                    Some((p, _)) => *p = self.alg.or(p, pred),
                    None => slot.push((pred.clone(), tc)),
                }
            }
        }
        Dbta {
            ty: self.ty.clone(),
            alg: self.alg.clone(),
            contents: reps.iter().map(|&r| self.contents[r].clone()).collect(),
            finals: reps.iter().map(|&r| self.finals[r]).collect(),
            trans,
        }
    }
}

/// Determinizes a *normalized* STA by the symbolic subset construction.
/// All final flags start `false`; use [`Dbta::set_finals`].
///
/// # Panics
///
/// Panics if the input is not normalized.
///
/// # Errors
///
/// Returns [`AutomataError::StateLimit`] past [`MAX_DET_STATES`] subset
/// states.
pub fn determinize<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<Dbta<A>, AutomataError> {
    assert!(sta.is_normalized(), "determinize requires a normalized STA");
    let _span = fast_obs::span!("automata.determinize");
    let alg = sta.alg().clone();
    let ty = sta.ty().clone();

    let mut subset_ids: HashMap<BTreeSet<StateId>, usize> = HashMap::new();
    let mut contents: Vec<BTreeSet<StateId>> = Vec::new();
    let mut trans: TransTable<A> = BTreeMap::new();

    let mut intern = |set: BTreeSet<StateId>,
                      contents: &mut Vec<BTreeSet<StateId>>|
     -> Result<usize, AutomataError> {
        if let Some(&i) = subset_ids.get(&set) {
            return Ok(i);
        }
        if contents.len() >= MAX_DET_STATES {
            return Err(AutomataError::StateLimit {
                context: "determinize",
                limit: MAX_DET_STATES,
            });
        }
        let i = contents.len();
        subset_ids.insert(set.clone(), i);
        contents.push(set);
        fast_obs::count!("automata.det_states");
        Ok(i)
    };

    // Fixpoint over (ctor, tuple) keys for all tuples over discovered
    // states; starts from nullary constructors.
    loop {
        let mut added = false;
        for ctor in ty.ctor_ids() {
            let rank = ty.rank(ctor);
            let tuples = enumerate_tuples(contents.len(), rank);
            for tuple in tuples {
                let key = (ctor, tuple.clone());
                if trans.contains_key(&key) {
                    continue;
                }
                let kids = tuple.iter().map(|&i| &contents[i]).collect();
                let parts = split(alg.as_ref(), ctor, &[(sta, kids)]);
                let mut entries: Vec<(A::Pred, usize)> = Vec::with_capacity(parts.len());
                for (pred, mut targets) in parts {
                    let id = intern(targets.pop().expect("one side"), &mut contents)?;
                    entries.push((pred, id));
                }
                trans.insert(key, entries);
                added = true;
            }
        }
        if !added {
            break;
        }
    }

    let n = contents.len();
    Ok(Dbta {
        ty,
        alg,
        contents,
        trans,
        finals: vec![false; n],
    })
}

/// One side of a [`split`]: a normalized STA and, per child position,
/// the set of its states that accept that child.
pub(crate) type Side<'a, A> = (&'a Sta<A>, Vec<&'a BTreeSet<StateId>>);

/// The guard split shared by the subset construction and the inclusion
/// search ([`crate::antichain`]). For constructor `ctor`, it collects
/// each side's applicable rules (every child requirement lies in that
/// child's set), deduplicates their guards in first-occurrence order
/// (states, then rules, side after side) and splits the label space
/// into the satisfiable minterms of those guards. Each minterm comes
/// with one target set per side: the states whose applicable rule it
/// satisfies. Minterm order is [`minterms`]' order over the deduplicated
/// guards, so [`determinize`]'s transition order, and with it the
/// `.fastc` bytes, follow from rule order alone.
pub(crate) fn split<A: BoolAlg<Elem = Label>>(
    alg: &A,
    ctor: CtorId,
    sides: &[Side<'_, A>],
) -> Vec<(A::Pred, Vec<BTreeSet<StateId>>)> {
    let mut guards: Vec<A::Pred> = Vec::new();
    // Per side: (state, index into `guards`) of each applicable rule.
    let mut applicable: Vec<Vec<(StateId, usize)>> = Vec::with_capacity(sides.len());
    for (sta, kids) in sides {
        let mut rules = Vec::new();
        for q in sta.states() {
            for r in sta.rules(q) {
                if r.ctor != ctor {
                    continue;
                }
                let ok = r.lookahead.iter().zip(kids).all(|(s, kid)| {
                    let p = s.iter().next().expect("normalized");
                    kid.contains(p)
                });
                if !ok {
                    continue;
                }
                let gi = match guards.iter().position(|g| *g == r.guard) {
                    Some(i) => i,
                    None => {
                        guards.push(r.guard.clone());
                        guards.len() - 1
                    }
                };
                rules.push((q, gi));
            }
        }
        applicable.push(rules);
    }
    minterms(alg, &guards)
        .into_iter()
        .map(|(signs, pred)| {
            let targets = applicable
                .iter()
                .map(|rules| {
                    rules
                        .iter()
                        .filter(|&&(_, gi)| signs[gi])
                        .map(|&(q, _)| q)
                        .collect()
                })
                .collect();
            (pred, targets)
        })
        .collect()
}

/// Every `rank`-tuple over `0..n`, in lexicographic order.
pub(crate) fn enumerate_tuples(n: usize, rank: usize) -> Vec<Vec<usize>> {
    if rank == 0 {
        return vec![Vec::new()];
    }
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n.pow(rank as u32));
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
    use crate::normalize::normalize;
    use crate::sta::fixtures::example2;

    #[test]
    fn tuples() {
        assert_eq!(enumerate_tuples(0, 0), vec![Vec::<usize>::new()]);
        assert_eq!(enumerate_tuples(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(enumerate_tuples(2, 2).len(), 4);
        assert!(enumerate_tuples(0, 2).is_empty());
    }

    #[test]
    fn determinize_preserves_language() {
        let (sta, _p, _o, q) = example2();
        let norm = normalize(&sta).unwrap();
        let q0 = norm.initial();
        let mut det = determinize(&norm).unwrap();
        det.set_finals(|s| s.contains(&q0));
        let ty = sta.ty().clone();
        for text in [
            "N[0](L[-4], L[3])",
            "N[0](L[-4], L[2])",
            "L[3]",
            "N[1](N[0](L[0], L[1]), L[5])",
            "N[1](L[2], N[0](L[1], L[3]))",
        ] {
            let t = Tree::parse(&ty, text).unwrap();
            assert_eq!(sta.accepts_at(q, &t), det.accepts(&t), "disagree on {text}");
        }
    }

    #[test]
    fn determinized_is_total() {
        let (sta, ..) = example2();
        let norm = normalize(&sta).unwrap();
        let det = determinize(&norm).unwrap();
        // Evaluate a bunch of arbitrary trees; eval panics if not total.
        let ty = sta.ty().clone();
        let mut g = fast_trees::TreeGen::new(11).with_max_depth(5);
        for _ in 0..100 {
            let t = g.tree(&ty);
            let _ = det.eval(&t);
        }
    }

    #[test]
    fn complement_via_finals() {
        let (sta, _p, _o, q) = example2();
        let norm = normalize(&sta).unwrap();
        let q0 = norm.initial();
        let mut det = determinize(&norm).unwrap();
        det.set_finals(|s| s.contains(&q0));
        det.complement_finals();
        let ty = sta.ty().clone();
        let mut g = fast_trees::TreeGen::new(13).with_max_depth(4);
        for _ in 0..100 {
            let t = g.tree(&ty);
            assert_eq!(det.accepts(&t), !sta.accepts_at(q, &t));
        }
    }

    #[test]
    fn round_trip_to_sta() {
        let (sta, ..) = example2();
        let norm = normalize(&sta).unwrap();
        let q0 = norm.initial();
        let mut det = determinize(&norm).unwrap();
        det.set_finals(|s| s.contains(&q0));
        let back = det.to_sta();
        assert!(back.is_normalized());
        let ty = sta.ty().clone();
        let mut g = fast_trees::TreeGen::new(17).with_max_depth(4);
        for _ in 0..100 {
            let t = g.tree(&ty);
            assert_eq!(back.accepts(&t), sta.accepts(&t));
        }
    }

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let (sta, ..) = example2();
        let norm = normalize(&sta).unwrap();
        let q0 = norm.initial();
        let mut det = determinize(&norm).unwrap();
        det.set_finals(|s| s.contains(&q0));
        let min = det.minimize();
        assert!(min.state_count() <= det.state_count());
        let ty = sta.ty().clone();
        let mut g = fast_trees::TreeGen::new(19).with_max_depth(4);
        for _ in 0..100 {
            let t = g.tree(&ty);
            assert_eq!(det.accepts(&t), min.accepts(&t));
        }
        // Minimizing twice is idempotent in size.
        assert_eq!(min.minimize().state_count(), min.state_count());
    }
}
