//! batch-sanitize: the sanitizer plan over a §5.1-shaped corpus,
//! each pass followed by the hand-written rewriter on the same pages.

use crate::calibrate::Clock;
use crate::pages::sub_seed;
use crate::spans::{Recorder, Span};
use crate::{ms_since, record_trace, record_window, s_since, Segment, Size};
use fast_bench::sanitizer::{baseline_sanitize, compile_fig2};
use fast_rt::{Artifact, ArtifactBuilder, RunOptions};
use fast_trees::{HtmlDoc, HtmlGen, Tree};
use std::time::Instant;

/// The §5.1 corpus's size ladder (20 KB … 409 KB) scaled down ten-fold:
/// at full size one pass takes ~3 s on one core, too long to give a run
/// more than a handful of passes.
const SIZES: [usize; 10] = [
    2_000, 4_000, 7_000, 10_000, 14_000, 18_000, 23_000, 28_000, 34_000, 40_900,
];
const PASSES: usize = 6;

/// Runs one batch-sanitize segment; returns the span lists for the
/// trace file.
pub(crate) fn segment(
    seg: &mut Segment,
    seed: u64,
    size: Size,
    started: Instant,
) -> Vec<Vec<Span>> {
    let (sizes, passes): (&[usize], usize) = match size {
        Size::Full => (&SIZES, PASSES),
        Size::Tiny => (&SIZES[..3], 1),
    };

    let t = Instant::now();
    let compiled = compile_fig2();
    let ty = compiled.tree_type("HtmlE").expect("HtmlE").clone();
    seg.add("setup.compile.s", s_since(t));

    let t = Instant::now();
    let mut builder = ArtifactBuilder::new();
    builder.add_transducer(
        "sani",
        compiled.transducer("sani").expect("sani is defined"),
    );
    let artifact = Artifact::decode(&builder.build().encode()).expect("artifact decodes");
    let plan = artifact.transducer("sani").expect("sani in artifact");
    seg.add("setup.artifact.s", s_since(t));

    let t = Instant::now();
    let docs: Vec<HtmlDoc> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| HtmlGen::new(sub_seed(seed, i as u64)).doc_of_size(s))
        .collect();
    let items: Vec<Tree> = docs.iter().map(|d| d.encode(&ty)).collect();
    let html_mb = docs.iter().map(|d| d.render().len()).sum::<usize>() as f64 / 1e6;
    seg.add("setup.inputs.s", s_since(t));
    let setup_s = s_since(started);

    // One worker, so the fast/manual ratio compares one thread with one
    // thread; one `run_batch_with` call per pass, so each pass starts
    // from a fresh memo and evaluates the whole corpus.
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    // Each pass is a chunk of the calibrated clock: probes bracket it.
    let mut clock = Clock::start();
    seg.setup_s = setup_s * clock.start_factor();
    seg.add("setup.s", setup_s);
    let before = fast_obs::snapshot();
    let mut rec = Recorder::new(Instant::now(), seg.traced);
    let mut outputs = Vec::with_capacity(passes);
    for pass in 0..passes {
        let id = pass as u64;
        let root = rec.open("pass", id, None);
        let t = Instant::now();
        let (results, _) = rec.wrap("rt.plan.eval", id, root, || {
            plan.run_batch_with(&items, &opts)
        });
        let ms = ms_since(t);
        rec.close(root);
        seg.latencies_ms.push(ms * clock.chunk_factor());
        seg.add("op.ms", ms);
        outputs.push(results);

        let t = Instant::now();
        for d in &docs {
            std::hint::black_box(baseline_sanitize(std::hint::black_box(d)));
        }
        seg.add("baseline.ms", ms_since(t));
        seg.add("baseline.mb", html_mb);
    }
    // The window is the plan's time: the interleaved baseline runs are
    // the reference, not the workload.
    seg.window_s = seg.latencies_ms.iter().sum::<f64>() / 1e3;
    seg.slowdown = clock.slowdown();
    record_window(seg, &before);

    // Pass 0 decodes against the baseline; later passes must produce the
    // same (hash-consed, so identical-id) trees.
    let expected: Vec<HtmlDoc> = docs.iter().map(baseline_sanitize).collect();
    let first: Vec<Option<Tree>> = outputs[0]
        .iter()
        .zip(&expected)
        .map(|(r, want)| match r.as_deref() {
            Ok([out]) if HtmlDoc::decode(&ty, out).as_ref() == Ok(want) => Some(out.clone()),
            _ => None,
        })
        .collect();
    for results in &outputs {
        seg.attempted += 1;
        let same = results
            .iter()
            .zip(&first)
            .all(|(r, f)| matches!((r.as_deref(), f), (Ok([out]), Some(f)) if out == f));
        if !same {
            seg.fail("a pass's outputs differ from the baseline sanitizer".into());
        }
    }
    record_trace(seg, rec.spans());
    vec![rec.into_spans()]
}
