//! §5.2 augmented-reality taggers and the four-step conflict check.
//!
//! The physical world is a list of elements, each carrying a list of tags
//! (a tree): `type World[v: Int] { nil(0), tag(1), elem(2) }` with
//! `elem(tags, next)` and `tag(next-tag)`. A *tagger* walks the element
//! list and prepends at most one tag (labeled with its tagger id) to
//! elements whose value satisfies a state-dependent predicate. Two taggers
//! conflict if on some tag-free input both label the same element —
//! detected by composing them, restricting inputs to tag-free worlds,
//! restricting outputs to worlds with a doubly-tagged element, and testing
//! emptiness (§5.2's composition / input restriction / output restriction
//! / check pipeline).

use fast_automata::{Sta, StaBuilder};
use fast_core::{
    compose, is_empty_transducer, restrict, restrict_out, Out, Sttr, SttrBuilder, TransducerError,
};
use fast_smt::{CmpOp, Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `World` tree type shared by all taggers.
pub fn world_type() -> Arc<TreeType> {
    TreeType::new(
        "World",
        LabelSig::single("v", Sort::Int),
        vec![("nil", 0), ("tag", 1), ("elem", 2)],
    )
}

/// One shared algebra for the world type.
pub fn world_alg(ty: &TreeType) -> Arc<LabelAlg> {
    Arc::new(LabelAlg::new(ty.sig().clone()))
}

/// The most control states [`random_tagger`] draws.
pub const MAX_CONTROL_STATES: usize = 31;

/// Generates `n` random taggers with the §5.2 properties: non-empty
/// domains (they are total on worlds), each tags a node at most once, and
/// 2–32 states each (the paper's taggers have 1–95; see
/// [`random_tagger`]).
pub fn generate_taggers(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>, n: usize, seed: u64) -> Vec<Sttr> {
    generate_taggers_sized(ty, alg, n, MAX_CONTROL_STATES, seed)
}

/// [`generate_taggers`] with 1..=`max_controls` control states per
/// tagger (see [`random_tagger_sized`]).
pub fn generate_taggers_sized(
    ty: &Arc<TreeType>,
    alg: &Arc<LabelAlg>,
    n: usize,
    max_controls: usize,
    seed: u64,
) -> Vec<Sttr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| random_tagger_sized(ty, alg, id as i64 + 1, max_controls, &mut rng))
        .collect()
}

/// One tagging guard per tagger. Mostly sparse equality guards so that
/// only a few percent of tagger pairs have overlapping tag conditions,
/// matching the paper's 222 conflicts out of 4,950 pairs.
fn random_guard(rng: &mut StdRng) -> Formula {
    let v = Term::field(0);
    match rng.gen_range(0..10) {
        0 | 1 => {
            // Residue-class guard: overlaps with other mod guards often,
            // with equality guards rarely.
            let m = rng.gen_range(12..40u32);
            let r = rng.gen_range(0..m) as i64;
            Formula::eq(v.modulo(m), Term::int(r))
        }
        2 => {
            // Narrow band.
            let lo = rng.gen_range(-60..55);
            Formula::cmp(CmpOp::Ge, v.clone(), Term::int(lo)).and(Formula::cmp(
                CmpOp::Le,
                v,
                Term::int(lo + rng.gen_range(0i64..3)),
            ))
        }
        _ => {
            // Point guard: conflicts only on an exact match.
            let c = rng.gen_range(-60..60);
            Formula::eq(v, Term::int(c))
        }
    }
}

/// Builds one random tagger with the given id. State count is drawn from
/// 1..=[`MAX_CONTROL_STATES`] control states plus one tag-list copy state, so 2–32 states —
/// smaller than the paper's 1–95 so the 4,950-pair sweep stays minutes, not hours, on one
/// vCPU (EXPERIMENTS.md records the deviation). Each tagger has
/// a single tagging guard; active states tag elements satisfying it,
/// inactive states never tag, and transitions are random — so a tagger
/// tags a handful of nodes per typical world and tags each node at most
/// once (§5.2's stated properties).
pub fn random_tagger(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>, id: i64, rng: &mut StdRng) -> Sttr {
    random_tagger_sized(ty, alg, id, MAX_CONTROL_STATES, rng)
}

/// [`random_tagger`] drawing 1..=`max_controls` control states; the
/// paper's 1–95-state taggers are `max_controls = 94`. The draws are the
/// same calls in the same order whatever the bound, so at
/// [`MAX_CONTROL_STATES`] this is exactly [`random_tagger`].
///
/// # Panics
///
/// If `max_controls` is 0.
pub fn random_tagger_sized(
    ty: &Arc<TreeType>,
    alg: &Arc<LabelAlg>,
    id: i64,
    max_controls: usize,
    rng: &mut StdRng,
) -> Sttr {
    let nil = ty.ctor_id("nil").unwrap();
    let tag = ty.ctor_id("tag").unwrap();
    let elem = ty.ctor_id("elem").unwrap();
    let m = rng.gen_range(1..=max_controls);
    let guard = random_guard(rng);
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let controls: Vec<_> = (0..m).map(|i| b.state(&format!("q{i}"))).collect();
    let copy = b.state("copy");
    // Tag-list copy state.
    b.plain_rule(
        copy,
        nil,
        Formula::True,
        Out::node(nil, LabelFn::identity(1), vec![]),
    );
    b.plain_rule(
        copy,
        tag,
        Formula::True,
        Out::node(tag, LabelFn::identity(1), vec![Out::Call(copy, 0)]),
    );
    for (i, &q) in controls.iter().enumerate() {
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::identity(1), vec![]),
        );
        let active = i == 0 || rng.gen_bool(0.6);
        let next_t = controls[rng.gen_range(0..m)];
        let next_f = controls[rng.gen_range(0..m)];
        if active {
            // Tagging rule: prepend tag[id] to the tag list.
            b.plain_rule(
                q,
                elem,
                guard.clone(),
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![
                        Out::node(
                            tag,
                            LabelFn::new(vec![Term::int(id)]),
                            vec![Out::Call(copy, 0)],
                        ),
                        Out::Call(next_t, 1),
                    ],
                ),
            );
            // Non-tagging rule on the complement guard.
            b.plain_rule(
                q,
                elem,
                guard.clone().not(),
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![Out::Call(copy, 0), Out::Call(next_f, 1)],
                ),
            );
        } else {
            b.plain_rule(
                q,
                elem,
                Formula::True,
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![Out::Call(copy, 0), Out::Call(next_f, 1)],
                ),
            );
        }
    }
    b.build(controls[0])
}

/// The input-restriction language of §5.2: worlds where no element
/// carries a tag (2 states; the paper's has 3).
pub fn no_tags_lang(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sta {
    let nil = ty.ctor_id("nil").unwrap();
    let elem = ty.ctor_id("elem").unwrap();
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let empty = b.state("empty");
    let no_tags = b.state("noTags");
    b.leaf_rule(empty, nil, Formula::True);
    b.leaf_rule(no_tags, nil, Formula::True);
    b.simple_rule(
        no_tags,
        elem,
        Formula::True,
        vec![Some(empty), Some(no_tags)],
    );
    b.build(no_tags)
}

/// The output-restriction language of §5.2: worlds where some element
/// carries at least two tags (3 states; the paper's has 5).
pub fn double_tag_lang(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sta {
    let tag = ty.ctor_id("tag").unwrap();
    let elem = ty.ctor_id("elem").unwrap();
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let one = b.state("oneTag");
    let two = b.state("twoTags");
    let conflict = b.state("conflict");
    b.simple_rule(one, tag, Formula::True, vec![None]);
    b.simple_rule(two, tag, Formula::True, vec![Some(one)]);
    b.simple_rule(conflict, elem, Formula::True, vec![Some(two), None]);
    b.simple_rule(conflict, elem, Formula::True, vec![None, Some(conflict)]);
    b.build(conflict)
}

/// Timings of the three pipeline phases plus the verdict.
#[derive(Debug, Clone, Copy)]
pub struct ConflictTimings {
    /// Time to compose the two taggers.
    pub compose: Duration,
    /// Time to restrict inputs to tag-free worlds.
    pub input_restrict: Duration,
    /// Time to restrict outputs to doubly-tagged worlds.
    pub output_restrict: Duration,
    /// Time for the final emptiness check.
    pub check: Duration,
    /// Whether the pair conflicts.
    pub conflict: bool,
}

/// Runs the §5.2 four-step conflict check on a pair of taggers.
///
/// # Errors
///
/// Propagates budget errors from the compositions.
pub fn conflict_check(
    t1: &Sttr,
    t2: &Sttr,
    no_tags: &Sta,
    double: &Sta,
) -> Result<ConflictTimings, TransducerError> {
    let start = Instant::now();
    let p = compose(t1, t2)?.sttr;
    let compose_t = start.elapsed();

    let start = Instant::now();
    let p_in = restrict(&p, no_tags)?;
    let input_t = start.elapsed();

    let start = Instant::now();
    let p_out = restrict_out(&p_in, double)?;
    let output_t = start.elapsed();

    let start = Instant::now();
    let conflict = !is_empty_transducer(&p_out)?;
    let check_t = start.elapsed();

    Ok(ConflictTimings {
        compose: compose_t,
        input_restrict: input_t,
        output_restrict: output_t,
        check: check_t,
        conflict,
    })
}

/// A random tag-free world of `n` elements (for concrete-run sanity
/// checks).
pub fn random_world(ty: &Arc<TreeType>, n: usize, seed: u64) -> Tree {
    let nil = ty.ctor_id("nil").unwrap();
    let elem = ty.ctor_id("elem").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tree::leaf(nil, fast_smt::Label::single(0i64));
    for _ in 0..n {
        let v: i64 = rng.gen_range(-50..50);
        let empty_tags = Tree::leaf(nil, fast_smt::Label::single(0i64));
        t = Tree::new(elem, fast_smt::Label::single(v), vec![empty_tags, t]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taggers_are_deterministic_and_linear() {
        let ty = world_type();
        let alg = world_alg(&ty);
        let taggers = generate_taggers(&ty, &alg, 6, 42);
        for t in &taggers {
            assert!(t.is_linear());
            assert!(t.is_deterministic().unwrap());
            // Total on worlds: running on a random world yields exactly
            // one output.
            let w = random_world(&ty, 12, 7);
            assert_eq!(t.run(&w).unwrap().len(), 1);
        }
    }

    #[test]
    fn tagger_tags_with_own_id() {
        let ty = world_type();
        let alg = world_alg(&ty);
        let mut rng = StdRng::seed_from_u64(1);
        // Draw until we get a single-control-state tagger (state_count 2:
        // one control + the copy state): it inspects every element, so on
        // a dense world its guard is guaranteed to fire.
        let t = loop {
            let t = random_tagger(&ty, &alg, 77, &mut rng);
            if t.state_count() == 2 {
                break t;
            }
        };
        // A world covering every value in [-60, 60) so that any generated
        // guard is hit by some element.
        let nil = ty.ctor_id("nil").unwrap();
        let elem = ty.ctor_id("elem").unwrap();
        let mut w = Tree::leaf(nil, fast_smt::Label::single(0i64));
        for v in -60..60i64 {
            let empty_tags = Tree::leaf(nil, fast_smt::Label::single(0i64));
            w = Tree::new(elem, fast_smt::Label::single(v), vec![empty_tags, w]);
        }
        let out = t.run(&w).unwrap().pop().unwrap();
        let tag_ids: Vec<i64> = out
            .iter()
            .filter(|n| n.ctor() == ty.ctor_id("tag").unwrap())
            .map(|n| n.label().get(0).as_int().unwrap())
            .collect();
        assert!(!tag_ids.is_empty(), "some element should be tagged");
        assert!(tag_ids.iter().all(|&i| i == 77));
    }

    #[test]
    fn restriction_languages() {
        let ty = world_type();
        let alg = world_alg(&ty);
        let no = no_tags_lang(&ty, &alg);
        let double = double_tag_lang(&ty, &alg);
        let w = random_world(&ty, 5, 11);
        assert!(no.accepts(&w));
        assert!(!double.accepts(&w));
        // Tag one element twice.
        let nil = ty.ctor_id("nil").unwrap();
        let tag = ty.ctor_id("tag").unwrap();
        let elem = ty.ctor_id("elem").unwrap();
        let l = |n: i64| fast_smt::Label::single(n);
        let tags = Tree::new(
            tag,
            l(1),
            vec![Tree::new(tag, l(2), vec![Tree::leaf(nil, l(0))])],
        );
        let w2 = Tree::new(elem, l(5), vec![tags, Tree::leaf(nil, l(0))]);
        assert!(double.accepts(&w2));
        assert!(!no.accepts(&w2));
    }

    #[test]
    fn conflict_check_detects_overlap() {
        let ty = world_type();
        let alg = world_alg(&ty);
        let no = no_tags_lang(&ty, &alg);
        let double = double_tag_lang(&ty, &alg);

        // Two taggers that both tag every element: guaranteed conflict.
        let nil = ty.ctor_id("nil").unwrap();
        let tag = ty.ctor_id("tag").unwrap();
        let elem = ty.ctor_id("elem").unwrap();
        let always = |id: i64| {
            let mut b = SttrBuilder::new(ty.clone(), alg.clone());
            let q = b.state("q");
            let copy = b.state("copy");
            b.plain_rule(
                copy,
                nil,
                Formula::True,
                Out::node(nil, LabelFn::identity(1), vec![]),
            );
            b.plain_rule(
                copy,
                tag,
                Formula::True,
                Out::node(tag, LabelFn::identity(1), vec![Out::Call(copy, 0)]),
            );
            b.plain_rule(
                q,
                nil,
                Formula::True,
                Out::node(nil, LabelFn::identity(1), vec![]),
            );
            b.plain_rule(
                q,
                elem,
                Formula::True,
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![
                        Out::node(
                            tag,
                            LabelFn::new(vec![Term::int(id)]),
                            vec![Out::Call(copy, 0)],
                        ),
                        Out::Call(q, 1),
                    ],
                ),
            );
            b.build(q)
        };
        let r = conflict_check(&always(1), &always(2), &no, &double).unwrap();
        assert!(r.conflict);

        // Disjoint guards: tagger A tags only even, tagger B only odd.
        let parity = |id: i64, want: i64| {
            let mut b = SttrBuilder::new(ty.clone(), alg.clone());
            let q = b.state("q");
            let copy = b.state("copy");
            b.plain_rule(
                copy,
                nil,
                Formula::True,
                Out::node(nil, LabelFn::identity(1), vec![]),
            );
            b.plain_rule(
                copy,
                tag,
                Formula::True,
                Out::node(tag, LabelFn::identity(1), vec![Out::Call(copy, 0)]),
            );
            b.plain_rule(
                q,
                nil,
                Formula::True,
                Out::node(nil, LabelFn::identity(1), vec![]),
            );
            let g = Formula::eq(Term::field(0).modulo(2), Term::int(want));
            b.plain_rule(
                q,
                elem,
                g.clone(),
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![
                        Out::node(
                            tag,
                            LabelFn::new(vec![Term::int(id)]),
                            vec![Out::Call(copy, 0)],
                        ),
                        Out::Call(q, 1),
                    ],
                ),
            );
            b.plain_rule(
                q,
                elem,
                g.not(),
                Out::node(
                    elem,
                    LabelFn::identity(1),
                    vec![Out::Call(copy, 0), Out::Call(q, 1)],
                ),
            );
            b.build(q)
        };
        let r = conflict_check(&parity(1, 0), &parity(2, 1), &no, &double).unwrap();
        assert!(!r.conflict, "disjoint taggers must not conflict");
        let r = conflict_check(&parity(1, 0), &parity(2, 0), &no, &double).unwrap();
        assert!(r.conflict, "same-parity taggers conflict");
    }

    #[test]
    fn generated_pairs_run_fast_enough() {
        let ty = world_type();
        let alg = world_alg(&ty);
        let no = no_tags_lang(&ty, &alg);
        let double = double_tag_lang(&ty, &alg);
        let taggers = generate_taggers(&ty, &alg, 4, 123);
        for i in 0..taggers.len() {
            for j in (i + 1)..taggers.len() {
                let r = conflict_check(&taggers[i], &taggers[j], &no, &double).unwrap();
                // Just exercise the pipeline; conflicts may or may not occur.
                let _ = r.conflict;
            }
        }
    }
}
