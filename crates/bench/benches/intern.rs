//! Interner microbench: time per node of `Tree::new` over the shape of
//! the batch-sanitize corpus (the §5.1 page-size ladder scaled to
//! 2–41 KB, HTML-encoded).
//!
//! * `hit_owned` re-interns every node position of the corpus from
//!   owned parts — a cloned label and child vector — as a caller that
//!   builds its parts does;
//! * `hit_borrowed` re-interns the same positions from borrowed parts;
//! * `hit_handle` re-interns them from borrowed children and the
//!   label's canonical handle, as the plan's build pass does for an
//!   identity label function: no label lookup;
//! * `miss` rebuilds the corpus bottom-up with every label salted anew
//!   per iteration, so each node is new to the table (which grows by
//!   the corpus's size each iteration). The salted labels are made
//!   before the timer starts; the child vectors are not.
//!
//! ```text
//! cargo bench -p fast-bench --bench intern
//! ```

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fast_smt::{Label, Value};
use fast_trees::{html_type, HtmlGen, Tree};

const SIZES: [usize; 10] = [
    2_000, 4_000, 7_000, 10_000, 14_000, 18_000, 23_000, 28_000, 34_000, 40_900,
];

/// Every node position of `t`, children before their parent.
fn post_order(t: &Tree) -> Vec<&Tree> {
    let mut out = Vec::new();
    let mut stack = vec![(t, false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            out.push(node);
        } else {
            stack.push((node, true));
            stack.extend(node.children().iter().rev().map(|c| (c, false)));
        }
    }
    out
}

/// `label` with `salt` appended to each string value.
fn salted(label: &Label, salt: u64) -> Label {
    Label::new(
        label
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s) => Value::Str(format!("{s}\u{1}{salt}")),
                v => v.clone(),
            })
            .collect(),
    )
}

fn intern(c: &mut Criterion) {
    let ty = html_type();
    let corpus: Vec<Tree> = SIZES
        .iter()
        .enumerate()
        .map(|(i, &s)| HtmlGen::new(401 + i as u64).doc_of_size(s).encode(&ty))
        .collect();
    let nodes: Vec<&Tree> = corpus.iter().flat_map(post_order).collect();

    let mut g = c.benchmark_group("intern");
    g.sample_size(20)
        .throughput(Throughput::Elements(nodes.len() as u64));
    g.bench_function("hit_owned", |b| {
        b.iter(|| {
            for t in &nodes {
                black_box(Tree::new(
                    t.ctor(),
                    t.label().clone(),
                    t.children().to_vec(),
                ));
            }
        });
    });
    g.bench_function("hit_borrowed", |b| {
        b.iter(|| {
            for t in &nodes {
                black_box(Tree::new(t.ctor(), t.label(), t.children()));
            }
        });
    });
    g.bench_function("hit_handle", |b| {
        b.iter(|| {
            for t in &nodes {
                black_box(Tree::new(t.ctor(), t.interned_label(), t.children()));
            }
        });
    });
    let mut salt = 0;
    g.sample_size(10);
    g.bench_function("miss", |b| {
        b.iter_batched(
            || {
                salt += 1;
                nodes
                    .iter()
                    .map(|t| salted(t.label(), salt))
                    .collect::<Vec<_>>()
            },
            |labels| {
                let mut built: Vec<Tree> = Vec::new();
                for (t, label) in nodes.iter().zip(labels) {
                    let kids = built.split_off(built.len() - t.children().len());
                    built.push(Tree::new(t.ctor(), label, kids));
                }
                built
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(benches, intern);
criterion_main!(benches);
