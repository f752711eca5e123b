//! check-ar: the §5.2 four-step conflict check over every pair of
//! generated taggers, plus `fast_analysis` over `programs/*.fast`.

use crate::calibrate::Clock;
use crate::pages::{shuffle, sub_seed};
use crate::spans::{Recorder, Span};
use crate::{ms_since, record_trace, record_window, s_since, Segment, Size};
use fast_analysis::PipelineOutcome;
use fast_bench::taggers::{
    double_tag_lang, no_tags_lang, random_tagger, random_world, world_alg, world_type,
};
use fast_core::{compose, is_empty_transducer, restrict, restrict_out, Sttr};
use fast_smt::LabelAlg;
use fast_trees::{Tree, TreeType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Each segment checks every pair within each of `GROUPS` groups of
/// `GROUP` taggers: many independent taggers per run, so the run's
/// median does not hang on a few expensive ones.
const GROUPS: usize = 20;
const GROUP: usize = 4;
/// Random tag-free worlds each non-conflict verdict is tested on.
const WORLDS: u64 = 8;
/// Ops per chunk of the calibrated clock (~50 ms).
const CHUNK: usize = 8;

/// The kind of a tagger's tagging guard (`random_guard` draws a residue
/// class 20% of the time, a narrow band 10%, a point 70%): pairs with
/// residue-class guards cost 2–4× more to check than point pairs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Guard {
    Point,
    Band,
    Residue,
}

/// The guard kind of a tagger with `n` control states (1–16; the
/// index is `n - 1`): `random_guard`'s mix, spread over the sizes.
/// `generate_taggers` draws up to 31 states, but pairs of large taggers
/// would dominate a run's time and its spread.
const SLOTS: [Guard; 16] = {
    use Guard::{Band as B, Point as P, Residue as R};
    [P, P, R, P, B, P, P, R, P, P, P, R, P, B, P, P]
};

fn guard_kind(t: &Sttr) -> Guard {
    // The initial control state always tags, so its rules carry the
    // tagging guard and its negation.
    let text: String = t
        .rules(t.initial())
        .iter()
        .map(|r| r.guard.to_string())
        .collect();
    if text.contains('%') {
        Guard::Residue
    } else if text.contains("and") {
        Guard::Band
    } else {
        Guard::Point
    }
}

/// `groups` groups of [`GROUP`] taggers. Member `q` of group `g` has
/// `4q + 1 + g % 4` control states (one tagger from each quarter of the
/// size range per group) and the guard kind [`SLOTS`] gives that size;
/// each is drawn from the seeded stream until one with that size and
/// guard kind comes up. Every seed thus checks pairs of the same sizes
/// and guard kinds (a pair's cost grows steeply with both); the seed
/// varies the taggers' transitions, activity and guard constants.
fn taggers(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>, seed: u64, groups: usize) -> Vec<Sttr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..groups * GROUP)
        .map(|i| {
            let states = 4 * (i % GROUP) + 1 + (i / GROUP) % 4;
            let guard = SLOTS[states - 1];
            loop {
                let t = random_tagger(ty, alg, i as i64 + 1, &mut rng);
                // Control states plus the one tag-list copy state.
                if t.state_count() == states + 1 && guard_kind(&t) == guard {
                    break t;
                }
            }
        })
        .collect()
}

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../programs")
}

enum Op {
    Pair(usize, usize),
    Program(usize),
}

/// What a program check found.
struct ProgramVerdict {
    errors: usize,
    diagnostics: usize,
    /// The FA101 outcome over `remScript ; esc : nodeTree -> goodOutput`,
    /// for programs that define those names.
    pipeline: Option<PipelineOutcome>,
}

fn check_program(rec: &mut Recorder, id: u64, root: Option<usize>, src: &str) -> ProgramVerdict {
    let parsed = rec.wrap("lang.compile", id, root, || {
        let program = fast_lang::parse(src).ok()?;
        let mut sink = fast_lang::DiagSink::new();
        let compiled = fast_lang::compile_ast(&program, &mut sink);
        Some((program, compiled, sink.into_vec()))
    });
    let Some((program, Some(compiled), mut diags)) = parsed else {
        return ProgramVerdict {
            errors: 1,
            diagnostics: 1,
            pipeline: None,
        };
    };
    let pipeline = rec.wrap("analysis.check", id, root, || {
        diags.extend(fast_analysis::analyze(&program, &compiled));
        let stages = [
            compiled.transducer("remScript")?,
            compiled.transducer("esc")?,
        ];
        let input = compiled.lang("nodeTree")?;
        let output = compiled.lang("goodOutput")?;
        Some(fast_analysis::check_pipeline(&stages, Some(input), output))
    });
    ProgramVerdict {
        errors: diags.iter().filter(|d| d.is_error()).count(),
        diagnostics: diags.len(),
        pipeline,
    }
}

/// Runs one check-ar segment; returns the span lists for the trace
/// file.
pub(crate) fn segment(
    seg: &mut Segment,
    seed: u64,
    size: Size,
    started: Instant,
) -> Vec<Vec<Span>> {
    let groups = match size {
        Size::Full => GROUPS,
        Size::Tiny => 1,
    };

    let t = Instant::now();
    let ty = world_type();
    let alg = world_alg(&ty);
    let no_tags = no_tags_lang(&ty, &alg);
    let double = double_tag_lang(&ty, &alg);
    seg.add("setup.compile.s", s_since(t));

    let t = Instant::now();
    let taggers = taggers(&ty, &alg, seed, groups);
    let mut programs: Vec<(String, String)> = std::fs::read_dir(programs_dir())
        .expect("programs/ is readable")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "fast").then_some(())?;
            let name = path.file_name()?.to_str()?.to_owned();
            Some((name, std::fs::read_to_string(&path).ok()?))
        })
        .collect();
    programs.sort();
    let mut ops: Vec<Op> = (0..groups * GROUP)
        .flat_map(|i| ((i + 1)..(i / GROUP + 1) * GROUP).map(move |j| Op::Pair(i, j)))
        .chain((0..programs.len()).map(Op::Program))
        .collect();
    shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 1)), &mut ops);
    seg.add("setup.inputs.s", s_since(t));
    let setup_s = s_since(started);

    let mut clock = Clock::start();
    seg.setup_s = setup_s * clock.start_factor();
    seg.add("setup.s", setup_s);
    let before = fast_obs::snapshot();
    let mut rec = Recorder::new(Instant::now(), seg.traced);
    let mut pairs = Vec::new();
    let mut verdicts = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let id = k as u64;
        let root = rec.open("op", id, None);
        let t = Instant::now();
        match *op {
            Op::Pair(i, j) => {
                let (t1, t2) = (&taggers[i], &taggers[j]);
                let verdict = (|| {
                    let p = rec.wrap("core.compose", id, root, || compose(t1, t2))?.sttr;
                    let p = rec.wrap("core.restrict", id, root, || restrict(&p, &no_tags))?;
                    let p =
                        rec.wrap("core.restrict_out", id, root, || restrict_out(&p, &double))?;
                    let empty = rec.wrap("core.is_empty", id, root, || is_empty_transducer(&p))?;
                    Ok::<_, fast_core::TransducerError>((!empty).then_some(p))
                })();
                pairs.push((i, j, verdict));
            }
            Op::Program(p) => {
                verdicts.push((p, check_program(&mut rec, id, root, &programs[p].1)));
                seg.add("program.ms", ms_since(t));
            }
        }
        rec.close(root);
        let ms = ms_since(t);
        seg.latencies_ms.push(ms);
        seg.add("op.ms", ms);
        if (k + 1) % CHUNK == 0 || k + 1 == ops.len() {
            let factor = clock.chunk_factor();
            let chunk = (k / CHUNK) * CHUNK;
            seg.latencies_ms[chunk..]
                .iter_mut()
                .for_each(|ms| *ms *= factor);
        }
    }
    seg.window_s = seg.latencies_ms.iter().sum::<f64>() / 1e3;
    seg.slowdown = clock.slowdown();
    record_window(seg, &before);
    seg.attempted = ops.len() as u64;

    // Verdicts are checked after the window: a conflict by replaying a
    // witness of the restricted transducer's domain through both
    // taggers, a non-conflict against random tag-free worlds.
    let run_both = |i: usize, j: usize, w: &Tree| -> Vec<Tree> {
        let firsts = taggers[i].run(w).unwrap_or_default();
        firsts
            .iter()
            .flat_map(|o| taggers[j].run(o).unwrap_or_default())
            .collect()
    };
    let mut conflicts = 0.0;
    let mut unknown = seg.raw["smt.unknown_results"] + seg.raw["sv.unknown"];
    for (i, j, verdict) in pairs {
        match verdict {
            Err(e) => {
                unknown += 1.0;
                seg.fail(format!("pair ({i}, {j}): {e}"));
            }
            Ok(Some(p)) => {
                conflicts += 1.0;
                let witness = fast_automata::witness(&p.domain()).ok().flatten();
                let confirmed = witness.is_some_and(|w| {
                    no_tags.accepts(&w) && run_both(i, j, &w).iter().any(|o| double.accepts(o))
                });
                if !confirmed {
                    seg.fail(format!(
                        "pair ({i}, {j}): conflict without a replayable witness"
                    ));
                }
            }
            Ok(None) => {
                let contradicted = (0..WORLDS).any(|k| {
                    let w = random_world(&ty, 12, sub_seed(seed, 100 + k));
                    run_both(i, j, &w).iter().any(|o| double.accepts(o))
                });
                if contradicted {
                    seg.fail(format!("pair ({i}, {j}): a random world double-tags"));
                }
            }
        }
    }
    // As CI expects of `fastc check`: *buggy* programs are flagged with
    // an error, every other program is clean.
    for (p, v) in verdicts {
        let name = &programs[p].0;
        let buggy = name.contains("buggy");
        if matches!(v.pipeline, Some(PipelineOutcome::Unknown(_))) {
            unknown += 1.0;
        }
        let pipeline_ok = match &v.pipeline {
            None | Some(PipelineOutcome::Unknown(_)) => true,
            Some(PipelineOutcome::Violated(_)) => buggy,
            Some(PipelineOutcome::Satisfied) => !buggy,
        };
        let clean_ok = if buggy {
            v.errors > 0
        } else {
            v.diagnostics == 0
        };
        if !(pipeline_ok && clean_ok) {
            seg.fail(format!(
                "{name}: checker verdict contradicts the expectation"
            ));
        }
    }
    seg.add("conflicts", conflicts);
    seg.add("unknown", unknown);
    record_trace(seg, rec.spans());
    vec![rec.into_spans()]
}
