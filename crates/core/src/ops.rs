//! Derived transducer operations (§3.5): input/output restriction and
//! the contract check. Input restriction is a lookahead merge at the
//! root: Definition 5 gives every rule per-child regular lookahead, so
//! `restrict t l` needs only `t`'s root rules merged with `l`'s (the
//! paper's `!` merge). Output restriction composes `t` with the restricted
//! identity, which is linear, so it is always exact (Theorem 4).
//! [`check_pipeline`] pulls the bad outputs backward with [`preimage`];
//! it is the one contract check, for a single transducer or a staged
//! chain.

use crate::compose::{preimage, try_compose_exact};
use crate::error::TransducerError;
use crate::sttr::{identity, Sttr};
use fast_automata::{complement, emptiness, intersect, is_empty, Sta, StateId, Verdict};
use fast_smt::{Label, TransAlg};
use fast_trees::{Tree, TreeType};

/// `restrict t l`: behaves like `t` but is only defined on inputs in the
/// language of `l`'s designated state.
///
/// A lookahead merge at the root: `t`'s states and lookahead automaton
/// are kept, `l` is absorbed into that automaton, and one new initial
/// state pairs each root rule of `t` with each same-constructor root rule
/// of `l` (guards conjoined, pairs with an unsatisfiable conjunction
/// dropped, per-child lookaheads unioned, `t`'s output kept).
///
/// # Errors
///
/// None: the construction takes no budget.
///
/// # Panics
///
/// Panics on tree-type mismatch.
pub fn restrict<A: TransAlg<Elem = Label>>(
    t: &Sttr<A>,
    l: &Sta<A>,
) -> Result<Sttr<A>, TransducerError> {
    let alg = t.alg();
    let mut out = t.clone();
    let offset = out.absorb_lookahead(l);
    let root = out.push_state(format!("restrict:{}", t.state_name(t.initial())));
    for rt in t.rules(t.initial()) {
        for rl in l.rules(l.initial()).iter().filter(|r| r.ctor == rt.ctor) {
            let guard = alg.and(&rt.guard, &rl.guard);
            if !alg.is_sat(&guard) {
                continue;
            }
            let mut rule = rt.clone();
            rule.guard = guard;
            for (set, extra) in rule.lookahead.iter_mut().zip(&rl.lookahead) {
                set.extend(extra.iter().map(|q| StateId(q.0 + offset)));
            }
            out.push_rule(root, rule);
        }
    }
    Ok(out.with_initial(root))
}

/// `restrict-out t l`: behaves like `t` but only produces outputs in the
/// language of `l`'s designated state (`compose t (restrict I l)`, as in
/// §3.5).
///
/// # Errors
///
/// Propagates composition/normalization budget errors.
///
/// # Panics
///
/// Panics on tree-type mismatch.
pub fn restrict_out<A: TransAlg<Elem = Label>>(
    t: &Sttr<A>,
    l: &Sta<A>,
) -> Result<Sttr<A>, TransducerError> {
    // The restricted identity is linear, so this is always exact.
    try_compose_exact(t, &restrict(&identity(t.ty(), t.alg()), l)?)
}

/// Is the transduction empty — i.e. does `t` produce no output on any
/// input? Decided via emptiness of the domain automaton restricted to
/// rules that can actually produce output; equivalently, emptiness of the
/// pre-image of the universal language.
///
/// # Errors
///
/// Propagates budget errors.
pub fn is_empty_transducer<A: TransAlg<Elem = Label>>(
    t: &Sttr<A>,
) -> Result<bool, TransducerError> {
    is_empty(&t.domain()).map_err(TransducerError::from)
}

/// Outcome of a contract check ([`check_pipeline`]).
#[derive(Debug, Clone)]
pub enum PipelineOutcome {
    /// Proved: no input in `L1` can drive the chain to an output outside
    /// `L2` (the offending-input language is empty).
    Satisfied,
    /// The contract is violated; carries the replayed counterexample.
    Violated(PipelineViolation),
    /// Neither proved nor refuted: an automaton construction exceeded its
    /// budget, or the offending-input language is not provably empty but
    /// no counterexample could be constructed or replayed.
    Unknown(String),
}

/// A replay-verified counterexample to a contract.
#[derive(Debug, Clone)]
pub struct PipelineViolation {
    /// Input tree in `L1` whose staged evaluation escapes `L2`.
    pub input: Tree,
    /// One chosen output per stage (`intermediates[i]` is the replayed
    /// output of stage `i`); the last entry is the bad final output.
    pub intermediates: Vec<Tree>,
    /// First stage index (0-based) whose replayed output can no longer
    /// reach any output in `L2` — the stage that commits the violation;
    /// later stages only propagate it.
    pub offending_stage: usize,
}

impl PipelineViolation {
    /// Renders the counterexample as report lines: the input, then the
    /// replayed output of each stage (named by `names`, in stage order),
    /// with the offending stage marked when the chain has more than one.
    pub fn notes<S: AsRef<str>>(&self, names: &[S], ty: &TreeType) -> Vec<String> {
        let mut notes = vec![format!("counterexample input: {}", self.input.display(ty))];
        for (i, (t, name)) in self.intermediates.iter().zip(names).enumerate() {
            let marker = if i == self.offending_stage && names.len() > 1 {
                " <- offending stage: no good final output is reachable from here"
            } else {
                ""
            };
            notes.push(format!(
                "after stage {} ('{}'): {}{marker}",
                i + 1,
                name.as_ref(),
                t.display(ty),
            ));
        }
        notes
    }
}

/// The contract check: decides whether the staged chain `stages[0]; …;
/// stages[n-1]` maps every input of `l1` (every input, when `None`) into
/// `l2`, **without composing stages**. A single transducer is the
/// one-stage chain: §3.5's `type-check l1 t l2`, with a counterexample.
///
/// The bad-output language `¬l2` is pulled backward through the chain
/// with [`preimage`] — exact for STTRs, where checking the eagerly
/// composed product could over-approximate (Theorem 4) — and intersected
/// with `l1`. One [`emptiness`] call on that offending-input language
/// decides it and yields a witness input. The witness is
/// replayed forward through the actual stages, choosing at each step an
/// output that still reaches a bad final output, and the offending stage
/// — the first whose intermediate cannot reach `l2` anymore — is
/// identified against the good-output pre-images of the later stages
/// (with one stage, it is that stage).
///
/// The verdict is never wrong: [`PipelineOutcome::Satisfied`] only when
/// the offending-input language is proved empty,
/// [`PipelineOutcome::Violated`] only with a replayed counterexample, and
/// [`PipelineOutcome::Unknown`] otherwise — budget errors, and a
/// language the solver cannot prove empty but yields no witness for.
///
/// # Panics
///
/// Panics when `stages` is empty, or when the stages and languages are
/// over different tree types.
pub fn check_pipeline(stages: &[&Sttr], l1: Option<&Sta>, l2: &Sta) -> PipelineOutcome {
    assert!(!stages.is_empty(), "pipeline needs at least one stage");
    decide_pipeline(stages, l1, l2).unwrap_or_else(PipelineOutcome::Unknown)
}

/// [`check_pipeline`]'s procedure; `Err` carries the reason for
/// [`PipelineOutcome::Unknown`].
fn decide_pipeline(
    stages: &[&Sttr],
    l1: Option<&Sta>,
    l2: &Sta,
) -> Result<PipelineOutcome, String> {
    let n = stages.len();
    let bad_outputs =
        complement(l2).map_err(|e| format!("complementing the output language failed: {e}"))?;
    // bad[i]: trees entering stage i that can reach a final output
    // outside l2; bad[n] = ¬l2.
    let bad = pull_back(stages, 0, bad_outputs)?;
    let offending_inputs = match l1 {
        Some(l) => intersect(l, &bad[0]),
        None => bad[0].clone(),
    };
    let root = [offending_inputs.initial()].into();
    let input = match emptiness(&offending_inputs, &root)
        .map_err(|e| format!("normalizing the offending-input language failed: {e}"))?
    {
        Verdict::Holds => return Ok(PipelineOutcome::Satisfied),
        Verdict::Fails(input) => input.ok_or(
            "the offending-input language is not provably empty, but no counterexample could \
             be constructed from it",
        )?,
    };
    // Forward replay: stay inside the bad chain so the final output is
    // guaranteed to land outside l2.
    let mut cur = input.clone();
    let mut intermediates = Vec::with_capacity(n);
    for (i, s) in stages.iter().enumerate() {
        let outs = s.run(&cur).map_err(|e| {
            format!(
                "replaying the counterexample through stage {} failed: {e}",
                i + 1
            )
        })?;
        // Exact pre-images guarantee such an output exists; the check is
        // purely defensive.
        cur = outs
            .into_iter()
            .find(|o| bad[i + 1].accepts(o))
            .ok_or_else(|| {
                format!(
                    "replay diverged from the pre-image chain at stage {}",
                    i + 1
                )
            })?;
        intermediates.push(cur.clone());
    }
    // good[i]: outputs of stage i that can still reach a final output in
    // l2; good[n - 1] = l2, so one stage needs no pre-image. The offending
    // stage is the first whose replayed output falls outside good[i].
    let good = pull_back(stages, 1, l2.clone())?;
    let offending_stage = (0..n)
        .find(|&i| !good[i].accepts(&intermediates[i]))
        .unwrap_or(n - 1);
    Ok(PipelineOutcome::Violated(PipelineViolation {
        input,
        intermediates,
        offending_stage,
    }))
}

/// Pulls `target` backward through `stages[first..]`: entry `i` of the
/// result holds the trees entering stage `first + i` that the rest of
/// the chain can map into `target`, and the last entry is `target`.
fn pull_back(stages: &[&Sttr], first: usize, target: Sta) -> Result<Vec<Sta>, String> {
    let mut chain = vec![target];
    for (i, s) in stages.iter().enumerate().skip(first).rev() {
        let pre = preimage(s, chain.last().expect("seeded"))
            .map_err(|e| format!("pre-image through stage {} failed: {e}", i + 1))?;
        chain.push(pre);
    }
    chain.reverse();
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sttr::fixtures::{filter_ev, ilist, ilist_alg, map_caesar};
    use fast_automata::StaBuilder;
    use fast_smt::{Formula, Term};
    use fast_trees::{Tree, TreeGen};

    /// Language of lists with all elements in [lo, hi].
    fn range_lang(lo: i64, hi: i64) -> Sta {
        let ty = ilist();
        let alg = ilist_alg(&ty);
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let s = b.state("range");
        b.leaf_rule(s, nil, Formula::True);
        b.simple_rule(
            s,
            cons,
            Formula::cmp(fast_smt::CmpOp::Ge, Term::field(0), Term::int(lo)).and(Formula::cmp(
                fast_smt::CmpOp::Le,
                Term::field(0),
                Term::int(hi),
            )),
            vec![Some(s)],
        );
        b.build(s)
    }

    #[test]
    fn restrict_cuts_domain() {
        let m = map_caesar();
        let l = range_lang(0, 9);
        let r = restrict(&m, &l).unwrap();
        let ty = m.ty().clone();
        let inside = Tree::parse(&ty, "cons[3](nil[0])").unwrap();
        let outside = Tree::parse(&ty, "cons[30](nil[0])").unwrap();
        assert_eq!(r.run(&inside).unwrap(), m.run(&inside).unwrap());
        assert!(r.run(&outside).unwrap().is_empty());
        assert!(!m.run(&outside).unwrap().is_empty());
    }

    #[test]
    fn restrict_adds_one_root_state() {
        // The restriction is merged into one new root; no state of `t` is
        // paired with a state of `l`.
        for t in [map_caesar(), filter_ev()] {
            let r = restrict(&t, &range_lang(0, 9)).unwrap();
            assert_eq!(r.state_count(), t.state_count() + 1);
        }
    }

    #[test]
    fn restrict_out_cuts_by_output() {
        // map_caesar outputs are always in [0, 25]; restricting outputs to
        // [0, 9] keeps exactly inputs whose mapped values land there.
        let m = map_caesar();
        let l = range_lang(0, 9);
        let r = restrict_out(&m, &l).unwrap();
        let ty = m.ty().clone();
        let good = Tree::parse(&ty, "cons[30](nil[0])").unwrap(); // 30+5 % 26 = 9
        let bad = Tree::parse(&ty, "cons[10](nil[0])").unwrap(); // 15
        assert_eq!(r.run(&good).unwrap(), m.run(&good).unwrap());
        assert!(r.run(&bad).unwrap().is_empty());
    }

    #[test]
    fn contract_check_map_caesar_range() {
        // On any input, map_caesar produces values in [0, 25].
        let m = map_caesar();
        let all = range_lang(i64::MIN / 2, i64::MAX / 2);
        let out_range = range_lang(0, 25);
        let too_tight = range_lang(0, 10);
        assert!(matches!(
            check_pipeline(&[&m], Some(&all), &out_range),
            PipelineOutcome::Satisfied
        ));
        // Refuted over the wide input range (its `cons` guard is linear,
        // so the solver models it without enumerating the range), with a
        // counterexample that replays: the input is in range, and
        // `map_caesar` maps it to the reported output, which is not.
        let PipelineOutcome::Violated(v) = check_pipeline(&[&m], Some(&all), &too_tight) else {
            panic!("expected a replayed violation");
        };
        assert!(all.accepts(&v.input));
        assert_eq!(v.intermediates.len(), 1);
        assert!(m.run(&v.input).unwrap().contains(&v.intermediates[0]));
        assert!(!too_tight.accepts(&v.intermediates[0]));
    }

    #[test]
    fn contract_check_filter_preserves_range() {
        let f = filter_ev();
        let l = range_lang(0, 9);
        // Outputs of filter on [0,9] lists stay in [0,9]... except the nil
        // relabeling to 0, which is still in range.
        assert!(matches!(
            check_pipeline(&[&f], Some(&l), &l),
            PipelineOutcome::Satisfied
        ));
    }

    #[test]
    fn transducer_emptiness() {
        let m = map_caesar();
        assert!(!is_empty_transducer(&m).unwrap());
        // Restrict to an empty language: transduction becomes empty.
        let ty = m.ty().clone();
        let alg = m.alg().clone();
        let nil = ty.ctor_id("nil").unwrap();
        let mut b = StaBuilder::new(ty, alg);
        let s = b.state("empty");
        b.leaf_rule(s, nil, Formula::False);
        let empty = b.build(s);
        let r = restrict(&m, &empty).unwrap();
        assert!(is_empty_transducer(&r).unwrap());
    }

    #[test]
    fn restricted_runs_agree_with_filtering() {
        // Property-style check: restrict(t, l).run == run if input ∈ L else ∅.
        let m = map_caesar();
        let l = range_lang(-3, 3);
        let r = restrict(&m, &l).unwrap();
        let ty = m.ty().clone();
        let mut g = TreeGen::new(23).with_max_depth(6).with_int_range(-6, 6);
        for _ in 0..60 {
            let t = g.tree(&ty);
            let expected = if l.accepts(&t) {
                m.run(&t).unwrap()
            } else {
                Vec::new()
            };
            assert_eq!(r.run(&t).unwrap(), expected);
        }
    }
}
