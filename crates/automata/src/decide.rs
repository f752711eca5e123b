//! Emptiness of STA languages, with witness extraction (Proposition 1;
//! §3.5's `is-empty`), decided on the fly. Inclusion, equivalence and
//! universality are the antichain search's (`antichain.rs`).
//!
//! `⋂ L(q)` over a root set is inhabited iff some merged rule of the set
//! (one rule per member, guards conjoined, lookaheads unioned — the
//! rules normalization would build, footnote 7) has a satisfiable guard
//! and inhabited child sets. The search explores merged sets depth-first
//! from the root, builds a set's merged rules only when it first reaches
//! the set, and stops checking a rule at its first child that is not
//! known inhabited, so one empty child settles a rule and the sibling
//! sets behind it are never expanded. Sets still on the stack count as
//! empty; passes repeat until nothing changes (the least fixpoint) or
//! the root is proved inhabited (the memoised on-the-fly scheme of
//! Frisch & Hosoya).

use crate::antichain::Verdict;
use crate::error::AutomataError;
use crate::normalize::MAX_MERGED_STATES;
use crate::sta::{Sta, StateId};
use fast_smt::{BoolAlg, Label};
use fast_trees::{CtorId, Tree};
use std::collections::{BTreeSet, HashMap};

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
/// Returns [`AutomataError::StateLimit`] when the search meets more than
/// [`MAX_MERGED_STATES`] merged sets.
pub fn emptiness<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
    roots: &BTreeSet<StateId>,
) -> Result<Verdict, AutomataError> {
    Search::new(sta, true).decide(roots)
}

/// Emptiness of `⋂ L(q)` over `q ∈ roots` ([`emptiness`]), building no
/// tree: the form for callers that read only the bit.
///
/// # Errors
///
/// Same as [`emptiness`].
pub fn is_empty_at<A: BoolAlg<Elem = Label>>(
    sta: &Sta<A>,
    roots: &BTreeSet<StateId>,
) -> Result<bool, AutomataError> {
    Ok(Search::new(sta, false).decide(roots)?.holds())
}

/// Emptiness of the designated language: [`is_empty_at`] its state.
///
/// # Errors
///
/// Same as [`emptiness`].
pub fn is_empty<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<bool, AutomataError> {
    is_empty_at(sta, &BTreeSet::from([sta.initial()]))
}

/// A member of the designated language ([`emptiness`]'s), verified with
/// [`Sta::accepts`]; `None` means "empty or could not construct", never
/// a wrong witness.
///
/// # Errors
///
/// Same as [`emptiness`].
pub fn witness<A: BoolAlg<Elem = Label>>(sta: &Sta<A>) -> Result<Option<Tree>, AutomataError> {
    let verdict = emptiness(sta, &BTreeSet::from([sta.initial()]))?;
    Ok(verdict.counterexample().cloned())
}

/// A merged rule of a set: constructor, conjoined guard and one merged
/// child set per argument.
struct Merged<P> {
    ctor: CtorId,
    guard: P,
    kids: Vec<u32>,
    /// The solver found no model for `guard`: the rule cannot prove its
    /// set for a member.
    unmodelled: bool,
}

/// A merged state set and what the search knows of it.
struct Node<P> {
    /// Member states, sorted.
    states: Box<[u32]>,
    /// The merged rules; `None` until the search first reaches the set.
    rules: Option<Vec<Merged<P>>>,
    /// Proved inhabited (the guard of some rule over inhabited children
    /// is `is_sat`).
    inhabited: bool,
    /// In build mode, how to build a member once one is proved: the
    /// proving rule and a model of its guard.
    proof: Option<(usize, Label)>,
    /// The last pass that reached the set.
    seen: u32,
}

/// What a rule's child contributes when the search looks at it.
enum Child {
    /// Not reached this pass: descend into it.
    Unvisited,
    /// Settled: inhabited (in build mode, with a proof).
    Settled,
    /// Inhabited, but with no proof yet (build mode only).
    Unproved,
    /// Reached this pass and not inhabited (still on the stack, or
    /// finished without a proof): empty for now.
    Assumed,
}

/// A set on the search stack, resumed at rule `rule`, child `kid`.
struct Frame {
    set: u32,
    rule: usize,
    kid: usize,
    /// Every child of the current rule so far has a proof.
    proved_kids: bool,
}

impl Frame {
    fn new(set: u32) -> Frame {
        Frame {
            set,
            rule: 0,
            kid: 0,
            proved_kids: true,
        }
    }

    fn next_rule(&mut self) {
        self.rule += 1;
        self.kid = 0;
        self.proved_kids = true;
    }
}

/// One emptiness question's search state.
struct Search<'a, A: BoolAlg<Elem = Label>> {
    sta: &'a Sta<A>,
    /// Also prove sets with guard models, to build a member.
    build: bool,
    nodes: Vec<Node<A::Pred>>,
    ids: HashMap<Box<[u32]>, u32>,
    pass: u32,
    changed: bool,
}

impl<'a, A: BoolAlg<Elem = Label>> Search<'a, A> {
    fn new(sta: &'a Sta<A>, build: bool) -> Self {
        Search {
            sta,
            build,
            nodes: Vec::new(),
            ids: HashMap::new(),
            pass: 0,
            changed: false,
        }
    }

    /// The verdict for `roots`; without `build`, a non-empty language is
    /// `Fails(None)`.
    fn decide(mut self, roots: &BTreeSet<StateId>) -> Result<Verdict, AutomataError> {
        let root = self.intern(&roots.iter().map(|q| state(*q)).collect::<Vec<_>>())?;
        self.solve(root)?;
        if !self.nodes[root as usize].inhabited {
            return Ok(Verdict::Holds);
        }
        let mut built = vec![None; self.nodes.len()];
        let member = self
            .member(root, &mut built)
            .filter(|t| roots.is_subset(&self.sta.eval_states(t)));
        Ok(Verdict::Fails(member))
    }

    /// Passes from `root` until it is settled or nothing changes.
    fn solve(&mut self, root: u32) -> Result<(), AutomataError> {
        loop {
            self.changed = false;
            self.run_pass(root)?;
            if self.settled(root) || !self.changed {
                return Ok(());
            }
        }
    }

    /// Whether the search is done with a set: inhabited (in build mode,
    /// with a proof).
    fn settled(&self, s: u32) -> bool {
        let n = &self.nodes[s as usize];
        if self.build {
            n.proof.is_some()
        } else {
            n.inhabited
        }
    }

    fn child(&self, c: u32) -> Child {
        let n = &self.nodes[c as usize];
        if self.settled(c) {
            Child::Settled
        } else if n.seen != self.pass {
            Child::Unvisited
        } else if n.inhabited {
            Child::Unproved
        } else {
            Child::Assumed
        }
    }

    /// One depth-first pass from `root`.
    fn run_pass(&mut self, root: u32) -> Result<(), AutomataError> {
        self.pass += 1;
        let mut stack = Vec::new();
        self.enter(root, &mut stack)?;
        while let Some(f) = stack.last() {
            let (s, rule) = (f.set, f.rule);
            let rules = self.nodes[s as usize]
                .rules
                .as_ref()
                .expect("expanded on entry");
            let Some(r) = rules.get(rule) else {
                // Every rule failed this pass.
                stack.pop();
                continue;
            };
            let Some(&c) = r.kids.get(f.kid) else {
                // Every child is inhabited: the rule fires.
                let proved_kids = f.proved_kids;
                self.fire(s, rule, proved_kids);
                if self.settled(s) {
                    stack.pop();
                } else {
                    stack.last_mut().expect("top frame").next_rule();
                }
                continue;
            };
            let child = self.child(c);
            if let Child::Unvisited = child {
                self.enter(c, &mut stack)?;
                continue;
            }
            let f = stack.last_mut().expect("top frame");
            match child {
                Child::Unvisited => unreachable!("entered above"),
                Child::Settled => f.kid += 1,
                Child::Unproved => {
                    f.proved_kids = false;
                    f.kid += 1;
                }
                Child::Assumed => f.next_rule(),
            }
        }
        Ok(())
    }

    /// Rule `rule` of set `s` has inhabited children: `s` is inhabited,
    /// and in build mode proved when the children are and the guard has
    /// a model.
    fn fire(&mut self, s: u32, rule: usize, proved_kids: bool) {
        let node = &mut self.nodes[s as usize];
        if !node.inhabited {
            node.inhabited = true;
            self.changed = true;
        }
        let r = &mut node.rules.as_mut().expect("expanded on entry")[rule];
        if !self.build || !proved_kids || r.unmodelled {
            return;
        }
        match self.sta.alg().model(&r.guard) {
            Some(label) => {
                node.proof = Some((rule, label));
                self.changed = true;
            }
            None => r.unmodelled = true,
        }
    }

    /// Reaches set `s` in this pass: builds its merged rules on first
    /// reach and stacks it unless it is settled.
    fn enter(&mut self, s: u32, stack: &mut Vec<Frame>) -> Result<(), AutomataError> {
        self.nodes[s as usize].seen = self.pass;
        if self.nodes[s as usize].rules.is_none() {
            let states = self.nodes[s as usize].states.clone();
            let mut rules = Vec::new();
            for (ctor, guard, flat) in self.products(&states) {
                let rank = self.sta.ty().rank(ctor);
                let kids = (0..rank)
                    .map(|i| self.intern(kid_set(&flat, rank, i)))
                    .collect::<Result<_, _>>()?;
                rules.push(Merged {
                    ctor,
                    guard,
                    kids,
                    unmodelled: false,
                });
            }
            self.nodes[s as usize].rules = Some(rules);
        }
        if !self.settled(s) {
            stack.push(Frame::new(s));
        }
        Ok(())
    }

    /// The merged rules of `states`, per constructor: the product of one
    /// rule per member, with incremental guard conjunction and eager
    /// unsat pruning, in the order [`normalize_rooted`](crate::normalize_rooted)
    /// builds them. The empty set is universal: one unconstrained rule per
    /// constructor, children again universal. Child sets come flat (see
    /// [`kid_set`]).
    fn products(&self, states: &[u32]) -> Vec<(CtorId, A::Pred, Vec<u32>)> {
        let sta = self.sta;
        let alg = sta.alg();
        let mut out = Vec::new();
        for ctor in sta.ty().ctor_ids() {
            let rank = sta.ty().rank(ctor);
            let mut partial = vec![(alg.tt(), vec![rank as u32; rank])];
            if states.is_empty() && !alg.is_sat(&partial[0].0) {
                continue;
            }
            for &p in states {
                let mut next = Vec::new();
                for (guard, kids) in &partial {
                    for r in sta.rules(StateId(p as usize)) {
                        if r.ctor != ctor {
                            continue;
                        }
                        let g = alg.and(guard, &r.guard);
                        if alg.is_sat(&g) {
                            next.push((g, merge(kids, &r.lookahead)));
                        }
                    }
                }
                partial = next;
                if partial.is_empty() {
                    break;
                }
            }
            out.extend(partial.into_iter().map(|(g, kids)| (ctor, g, kids)));
        }
        out
    }

    /// The id of a sorted state set, adding it on first sight.
    fn intern(&mut self, states: &[u32]) -> Result<u32, AutomataError> {
        if let Some(&id) = self.ids.get(states) {
            return Ok(id);
        }
        if self.nodes.len() >= MAX_MERGED_STATES {
            return Err(AutomataError::StateLimit {
                context: "normalize",
                limit: MAX_MERGED_STATES,
            });
        }
        fast_obs::count!("automata.emptiness_sets");
        let id = self.nodes.len() as u32;
        let states: Box<[u32]> = states.into();
        self.ids.insert(states.clone(), id);
        self.nodes.push(Node {
            states,
            rules: None,
            inhabited: false,
            proof: None,
            seen: 0,
        });
        Ok(id)
    }

    /// The member the proofs give set `s`, children first, memoized in
    /// `built`; `None` when `s` has no proof.
    fn member(&self, s: u32, built: &mut [Option<Tree>]) -> Option<Tree> {
        if built[s as usize].is_none() {
            let node = &self.nodes[s as usize];
            let (i, label) = node.proof.as_ref()?;
            let r = &node.rules.as_ref()?[*i];
            let kids: Option<Vec<Tree>> = r.kids.iter().map(|&c| self.member(c, built)).collect();
            built[s as usize] = Some(Tree::new(r.ctor, label, kids?));
        }
        built[s as usize].clone()
    }
}

fn state(q: StateId) -> u32 {
    u32::try_from(q.0).expect("state ids fit in u32")
}

/// Child set `i` of flat child sets: `rank` end offsets, then the
/// sorted sets back to back. One allocation per partial product, where a
/// `Vec` per child costs `rank + 1`; check-ar ran 3.5% more ops a
/// second with the flat form (shared 2-vCPU x86-64 host).
fn kid_set(flat: &[u32], rank: usize, i: usize) -> &[u32] {
    let start = if i == 0 { rank } else { flat[i - 1] as usize };
    &flat[start..flat[i] as usize]
}

/// Flat child sets with a rule's lookahead unioned in, child by child.
fn merge(flat: &[u32], lookahead: &[BTreeSet<StateId>]) -> Vec<u32> {
    let rank = lookahead.len();
    let mut out =
        Vec::with_capacity(flat.len() + lookahead.iter().map(BTreeSet::len).sum::<usize>());
    out.resize(rank, 0);
    for (i, la) in lookahead.iter().enumerate() {
        let mut b = la.iter().map(|q| state(*q)).peekable();
        for &x in kid_set(flat, rank, i) {
            while let Some(y) = b.next_if(|&y| y < x) {
                out.push(y);
            }
            b.next_if_eq(&x);
            out.push(x);
        }
        out.extend(b);
        out[i] = out.len() as u32;
    }
    out
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
    fn emptiness_of_a_root_set_is_of_the_intersection() {
        let (sta, p, o, _) = example2();
        // p ∩ o: all leaves positive and odd.
        let v = emptiness(&sta, &BTreeSet::from([p, o])).unwrap();
        let w = v.counterexample().expect("a positive odd leaf");
        assert!(sta.accepts_at(p, w) && sta.accepts_at(o, w));
        assert!(!is_empty_at(&sta, &BTreeSet::from([p, o])).unwrap());
        // The empty set is every tree.
        assert!(!emptiness(&sta, &BTreeSet::new()).unwrap().holds());
        assert!(!is_empty_at(&sta, &BTreeSet::new()).unwrap());
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

    #[test]
    fn a_set_on_the_stack_counts_as_empty_until_proved() {
        // r: N(a, d); a: N(d, d) | N(e, e); d: N(a, a); e: L. The first
        // pass reaches d through a's first rule while a is on the stack,
        // so d finishes without a proof; a is then proved by N(e, e), but
        // r has already met d. Only a second pass proves d, and then r.
        let ty = bt();
        let alg = bt_alg(&ty);
        let (l, n) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
        let mut b = StaBuilder::new(ty, alg);
        let [r, a, d, e] = ["r", "a", "d", "e"].map(|name| b.state(name));
        b.simple_rule(r, n, Formula::True, vec![Some(a), Some(d)]);
        b.simple_rule(a, n, Formula::True, vec![Some(d), Some(d)]);
        b.simple_rule(a, n, Formula::True, vec![Some(e), Some(e)]);
        b.simple_rule(d, n, Formula::True, vec![Some(a), Some(a)]);
        b.leaf_rule(e, l, Formula::True);
        let sta = b.build(r);
        for build in [false, true] {
            let mut s = Search::new(&sta, build);
            let root = s.intern(&[state(r)]).unwrap();
            s.solve(root).unwrap();
            assert!(s.nodes[root as usize].inhabited);
            assert_eq!(s.pass, 2);
        }
        assert!(!is_empty(&sta).unwrap());
        let w = witness(&sta)
            .unwrap()
            .expect("N(N(L, L), N(N(L, L), N(L, L)))");
        assert!(sta.accepts(&w));
        assert_eq!(w.size(), 11);
    }

    #[test]
    fn flat_child_sets() {
        let b: BTreeSet<StateId> = [StateId(1), StateId(4), StateId(6)].into();
        // Two children: {0, 4, 5, 9} and {}.
        let flat = [6, 6, 0, 4, 5, 9];
        let merged = merge(&flat, &[b.clone(), b]);
        assert_eq!(kid_set(&merged, 2, 0), [0, 1, 4, 5, 6, 9]);
        assert_eq!(kid_set(&merged, 2, 1), [1, 4, 6]);
    }
}
