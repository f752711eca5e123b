//! Multi-stage transducer pipelines: fuse what Theorem 4 allows,
//! cascade the rest.
//!
//! The paper's composition algorithm (§4.1) exists so that *chains* of
//! transducers — the deforestation pipelines of Fig. 7, the
//! sanitize-then-filter HTML pipeline of §5 — can run as one pass
//! instead of materializing every intermediate tree. But fusing two
//! stages with [`fast_core::compose`] is only **exact** when the left
//! factor is single-valued or the right factor is linear (Theorem 4);
//! for any other adjacent pair the composed transducer over-approximates
//! and must not replace the chain.
//!
//! [`Pipeline::compile`] walks a stage list left to right and picks, per
//! boundary, the fastest *sound* strategy:
//!
//! * **fuse** — when [`fast_core::compose_exactness`] proves the
//!   boundary exact, the accumulated segment is composed with the next
//!   stage into a single [`Plan`]. Each boundary is decided once per
//!   compile; a built artifact stores the verdicts and fused segments,
//!   so loading it decides nothing again;
//! * **cascade** — otherwise the boundary becomes a segment break.
//!   At run time each segment's outputs are streamed into the next
//!   segment's plan as a fresh batch, deduplicated per item, and
//!   bounded by [`RunOptions::cap`] exactly like
//!   [`fast_core::Sttr::run_bounded`] — intermediate blow-up errors,
//!   it never truncates or OOMs. Each segment has its own
//!   [`BatchMemo`]: fresh per call in [`Pipeline::run_batch_with`], or
//!   caller-owned and kept across calls in
//!   [`Pipeline::run_batch_shared`] (how `fast-serve` runs pipeline
//!   targets). Either is sound because memo entries key on never-reused
//!   `TreeId`s (see the identity notes on [`BatchMemo`]): intermediate
//!   trees are dropped as soon as the next segment has consumed them,
//!   and no later tree can alias a resident entry.
//!
//! A compose that exceeds its construction budget also falls back to
//! cascading — the pipeline always compiles; fusion is an optimization,
//! never a requirement. The [`PipelineReport`] says what happened at
//! every boundary and why, and the `rt.pipeline.*` counters and
//! durations mirror the same into `fast-obs`.

use crate::plan::{BatchMemo, BatchStats, Plan, RunOptions};
use fast_core::{compose, compose_exactness, Exactness, Sttr, TransducerError};
use fast_trees::Tree;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How [`Pipeline::compile_with`] treats fusable boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionStrategy {
    /// Fuse every boundary whose exactness precondition holds (the
    /// default).
    #[default]
    Auto,
    /// Never fuse — every boundary cascades. Exists so tests and
    /// benchmarks can force the staged path and compare it against the
    /// fused one on identical chains.
    Never,
}

/// What happened at one stage boundary during compilation.
#[derive(Debug, Clone)]
pub struct BoundaryDecision {
    /// Boundary index: between input stage `boundary` (or the segment
    /// accumulated up to it) and stage `boundary + 1`.
    pub boundary: usize,
    /// `true` when the boundary was fused into one transducer.
    pub fused: bool,
    /// Why — the exactness verdict for fused boundaries, the violated
    /// precondition (with witness rules) or disabled strategy for
    /// cascaded ones.
    pub reason: String,
}

/// The compilation record of a [`Pipeline`]: per-boundary decisions and
/// the resulting segmentation.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Input chain length.
    pub stages: usize,
    /// Segments after fusion (`1` = the whole chain fused into one
    /// pass; `stages` = nothing fused).
    pub segments: usize,
    /// One decision per adjacent stage pair, in chain order.
    pub boundaries: Vec<BoundaryDecision>,
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pipeline: {} stage{} -> {} segment{}",
            self.stages,
            if self.stages == 1 { "" } else { "s" },
            self.segments,
            if self.segments == 1 { "" } else { "s" },
        )?;
        for b in &self.boundaries {
            writeln!(
                f,
                "  boundary {} (stage {} | stage {}): {} — {}",
                b.boundary,
                b.boundary,
                b.boundary + 1,
                if b.fused { "fused" } else { "cascaded" },
                b.reason,
            )?;
        }
        Ok(())
    }
}

/// One compiled run of consecutive (fused) stages.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) plan: Arc<Plan>,
    /// Input stage range `[first, last]` this segment covers.
    pub(crate) first: usize,
    pub(crate) last: usize,
}

/// An ordered chain of STTRs compiled into the fastest sound evaluation
/// strategy: adjacent stages fused via the paper's composition wherever
/// Theorem 4's exactness precondition holds, staged cascading elsewhere.
///
/// # Examples
///
/// ```
/// use fast_core::{Out, SttrBuilder};
/// use fast_rt::Pipeline;
/// use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
/// use fast_trees::{Tree, TreeType};
/// use std::sync::Arc;
///
/// let ilist = TreeType::new("IList", LabelSig::single("i", Sort::Int),
///                           vec![("nil", 0), ("cons", 1)]);
/// let alg = Arc::new(LabelAlg::new(ilist.sig().clone()));
/// let (nil, cons) = (ilist.ctor_id("nil").unwrap(), ilist.ctor_id("cons").unwrap());
/// let inc = |name: &str| {
///     let mut b = SttrBuilder::new(ilist.clone(), alg.clone());
///     let q = b.state(name);
///     b.plain_rule(q, nil, Formula::True,
///                  Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]));
///     b.plain_rule(q, cons, Formula::True,
///                  Out::node(cons, LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
///                            vec![Out::Call(q, 0)]));
///     Arc::new(b.build(q))
/// };
/// let p = Pipeline::compile(&[inc("inc1"), inc("inc2")]);
/// // Both stages are deterministic, hence single-valued: the chain
/// // fuses into one pass.
/// assert_eq!(p.report().segments, 1);
/// let t = Tree::parse(&ilist, "cons[1](nil[0])").unwrap();
/// assert_eq!(p.run(&t).unwrap()[0].display(&ilist).to_string(),
///            "cons[3](nil[0])");
/// ```
#[derive(Debug)]
pub struct Pipeline {
    segments: Vec<Segment>,
    report: PipelineReport,
}

/// The fusion verdict for one ordered stage pair.
enum Verdict {
    Fused(Arc<Sttr>, String),
    Cascade(String),
}

/// Decides whether `left ∘ right` may replace the staged pair,
/// returning the fused product when Theorem 4 says it is exact.
fn fuse_boundary(left: &Sttr, right: &Sttr) -> Verdict {
    match compose_exactness(left, right) {
        ex @ (Exactness::LeftSingleValued | Exactness::RightLinear) => {
            match compose(left, right) {
                Ok(c) => Verdict::Fused(Arc::new(c.sttr), ex.to_string()),
                // Construction blew its budget: staged evaluation is
                // still available, so degrade instead of failing.
                Err(e) => Verdict::Cascade(format!("fusion abandoned: {e}")),
            }
        }
        ex @ Exactness::Overapproximate { .. } => Verdict::Cascade(format!("not fusable — {ex}")),
    }
}

impl Pipeline {
    /// Compiles `stages` (applied left to right) with the default
    /// [`FusionStrategy::Auto`].
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or the stages disagree on their tree
    /// type (the same precondition [`fast_core::compose`] asserts).
    pub fn compile(stages: &[Arc<Sttr>]) -> Pipeline {
        Pipeline::compile_with(stages, FusionStrategy::Auto)
    }

    /// [`Pipeline::compile`] with an explicit fusion policy.
    pub fn compile_with(stages: &[Arc<Sttr>], strategy: FusionStrategy) -> Pipeline {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(
            stages.windows(2).all(|w| w[0].ty() == w[1].ty()),
            "pipeline stages must share one tree type"
        );
        fast_obs::count!("rt.pipeline.compiles");
        fast_obs::time!("rt.pipeline.compile", || {
            let mut segments = Vec::new();
            let mut boundaries = Vec::new();
            // The running segment: all stages since the last break,
            // fused into one transducer.
            let mut cur = Arc::clone(&stages[0]);
            let mut first = 0usize;
            for (i, next) in stages.iter().enumerate().skip(1) {
                let verdict = match strategy {
                    FusionStrategy::Never => {
                        Verdict::Cascade("fusion disabled (FusionStrategy::Never)".into())
                    }
                    FusionStrategy::Auto => fuse_boundary(&cur, next),
                };
                match verdict {
                    Verdict::Fused(fused, reason) => {
                        fast_obs::count!("rt.pipeline.fused_boundaries");
                        boundaries.push(BoundaryDecision {
                            boundary: i - 1,
                            fused: true,
                            reason,
                        });
                        cur = fused;
                    }
                    Verdict::Cascade(reason) => {
                        fast_obs::count!("rt.pipeline.cascaded_boundaries");
                        boundaries.push(BoundaryDecision {
                            boundary: i - 1,
                            fused: false,
                            reason,
                        });
                        segments.push(Segment {
                            plan: Arc::new(Plan::compile(&cur)),
                            first,
                            last: i - 1,
                        });
                        cur = Arc::clone(next);
                        first = i;
                    }
                }
            }
            segments.push(Segment {
                plan: Arc::new(Plan::compile(&cur)),
                first,
                last: stages.len() - 1,
            });
            let report = PipelineReport {
                stages: stages.len(),
                segments: segments.len(),
                boundaries,
            };
            Pipeline { segments, report }
        })
    }

    /// Reassembles a pipeline from already-compiled segments and its
    /// original compilation report. Used by the artifact loader, which
    /// deserializes each segment's (possibly fused) transducer directly
    /// and must not rerun boundary analysis.
    pub(crate) fn from_parts(segments: Vec<Segment>, report: PipelineReport) -> Pipeline {
        Pipeline { segments, report }
    }

    /// The per-boundary fusion record.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// Number of cascaded segments (`1` = fully fused).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The compiled plan of segment `i` (diagnostics; `i <
    /// segment_count()`), with the input stage range it covers.
    pub fn segment(&self, i: usize) -> (&Plan, usize, usize) {
        let s = &self.segments[i];
        (&s.plan, s.first, s.last)
    }

    /// Runs one tree through the whole chain with default options.
    ///
    /// # Errors
    ///
    /// [`TransducerError::Budget`] when any stage's output set — or the
    /// deduplicated frontier between segments — exceeds the default cap.
    pub fn run(&self, t: &Tree) -> Result<Vec<Tree>, TransducerError> {
        self.run_batch(std::slice::from_ref(t)).pop().unwrap()
    }

    /// Evaluates every tree through the whole chain with default
    /// options. Results are in input order and items fail
    /// independently, exactly like [`Plan::run_batch`].
    pub fn run_batch(&self, items: &[Tree]) -> Vec<Result<Vec<Tree>, TransducerError>> {
        self.run_batch_with(items, &RunOptions::default()).0
    }

    /// [`Pipeline::run_batch`] with explicit options, also returning the
    /// batch statistics of every segment pass (one [`BatchStats`] per
    /// segment, in chain order): [`Pipeline::run_batch_shared`] against
    /// fresh per-segment memos of [`RunOptions::memo_capacity`] entries.
    pub fn run_batch_with(
        &self,
        items: &[Tree],
        opts: &RunOptions,
    ) -> (Vec<Result<Vec<Tree>, TransducerError>>, Vec<BatchStats>) {
        let memos: Vec<BatchMemo> = self
            .segments
            .iter()
            .map(|_| BatchMemo::new(opts.memo_capacity))
            .collect();
        self.run_batch_shared(items, opts, &memos)
    }

    /// [`Pipeline::run_batch_with`] against caller-owned memos, one per
    /// segment in chain order, so each segment's item results persist
    /// across calls exactly as for [`Plan::run_batch_shared`].
    ///
    /// Cascaded execution is staged: segment 0 runs over the whole
    /// batch, its per-item outputs are deduplicated and become segment
    /// 1's batch, and so on. The frontier of any single item is bounded
    /// by [`RunOptions::cap`] — exceeding it fails that item with
    /// [`TransducerError::Budget`], never truncates. Intermediate trees
    /// are dropped as soon as the next segment has consumed them while
    /// the memos stay alive, which is safe because entries key on
    /// never-reused `TreeId`s.
    ///
    /// # Panics
    ///
    /// Panics unless `memos.len() == self.segment_count()`.
    pub fn run_batch_shared(
        &self,
        items: &[Tree],
        opts: &RunOptions,
        memos: &[BatchMemo],
    ) -> (Vec<Result<Vec<Tree>, TransducerError>>, Vec<BatchStats>) {
        assert_eq!(
            memos.len(),
            self.segments.len(),
            "pipeline needs one memo per segment"
        );
        fast_obs::count!("rt.pipeline.runs");
        fast_obs::count!("rt.pipeline.items", items.len() as u64);
        fast_obs::time!("rt.pipeline.run", || {
            static STAGE_HIST: OnceLock<&'static fast_obs::Hist> = OnceLock::new();
            let stage_hist = *STAGE_HIST.get_or_init(|| fast_obs::histogram("rt.pipeline.stage"));
            let mut frontiers: Vec<Result<Vec<Tree>, TransducerError>> =
                items.iter().map(|t| Ok(vec![t.clone()])).collect();
            let mut seg_stats = Vec::with_capacity(self.segments.len());
            for (seg, memo) in self.segments.iter().zip(memos) {
                let _span = fast_obs::span!("rt.pipeline.stage");
                let start = Instant::now();
                // Flatten the live frontiers into one batch, remembering
                // which item each tree belongs to.
                let mut flat: Vec<Tree> = Vec::new();
                let mut owner: Vec<usize> = Vec::new();
                for (i, f) in frontiers.iter().enumerate() {
                    if let Ok(ts) = f {
                        for t in ts {
                            flat.push(t.clone());
                            owner.push(i);
                        }
                    }
                }
                let (results, stats) = seg.plan.run_batch_shared(&flat, opts, memo);
                seg_stats.push(stats);
                // Fold each tree's outputs back into its item's next
                // frontier (deduplicated — output sets, like `Sttr::run`).
                let mut next: Vec<Option<BTreeSet<Tree>>> = frontiers
                    .iter()
                    .map(|f| f.as_ref().ok().map(|_| BTreeSet::new()))
                    .collect();
                for (k, r) in results.into_iter().enumerate() {
                    let i = owner[k];
                    let Some(set) = next[i].as_mut() else {
                        continue;
                    };
                    match r {
                        Ok(outs) => {
                            set.extend(outs);
                            if set.len() > opts.cap {
                                frontiers[i] = Err(TransducerError::Budget {
                                    context: "pipeline",
                                    limit: opts.cap,
                                });
                                next[i] = None;
                            }
                        }
                        Err(e) => {
                            frontiers[i] = Err(e);
                            next[i] = None;
                        }
                    }
                }
                for (i, set) in next.into_iter().enumerate() {
                    if let Some(set) = set {
                        frontiers[i] = Ok(set.into_iter().collect());
                    }
                }
                stage_hist.record_ns(start.elapsed().as_nanos() as u64);
                // The previous frontier's trees drop here; the memos
                // stay alive — sound because their TreeId keys are
                // never reused, so no later tree can alias an entry.
            }
            (frontiers, seg_stats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn pipeline_is_send_and_sync() {
        assert_send_sync::<Pipeline>();
        assert_send_sync::<PipelineReport>();
    }
}
