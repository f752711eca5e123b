//! Serve-path microbench: the per-request work of a `fast-serve` `run`
//! request, phase by phase, on the serve-repeat page shape (24 HTML
//! pages, rendered sizes spread log-uniformly over 5–50 KB, each sent
//! as one `run` request frame). Times are per pass over all 24 pages.
//!
//! * `decode_input` decodes each frame in place (`decode_request`) and
//!   unescapes its `input` into one reused buffer, as the server does;
//! * `parse_hit` parses each page's tree text when the whole page is
//!   already interned: one verified probe per page;
//! * `parse_miss` parses the pages with every label salted anew per
//!   iteration, so every node and label is new to the tables (which
//!   grow by the corpus's size each iteration). The salted texts are
//!   made before the timer starts;
//! * `render_direct` writes each page's `run` response with
//!   `proto::write_outputs`, the tree rendered JSON-escaped straight
//!   into one reused buffer;
//! * `render_display_json` writes the same bytes the way the server
//!   did before: `display().to_string()`, a `Json::Str`, and
//!   `write_json` of the `ok_response`.
//!
//! ```text
//! cargo bench -p fast-bench --bench serve_path
//! ```

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fast_json::Json;
use fast_serve::proto::{self, Op};
use fast_trees::{html_type, HtmlGen, Tree};

const PAGES: usize = 24;
const LO: f64 = 5_000.0;
const HI: f64 = 50_000.0;

/// Page `i`'s rendered size: the ladder from `LO` to `HI`, log-uniform.
fn size(i: usize) -> usize {
    (LO * (HI / LO).powf(i as f64 / (PAGES - 1) as f64)) as usize
}

/// The `run` request frame carrying `input`.
fn frame(id: usize, input: &str) -> Vec<u8> {
    Json::obj([
        ("id", Json::Int(id as i64)),
        ("op", Json::Str("run".into())),
        ("target", Json::Str("sani".into())),
        ("input", Json::Str(input.into())),
    ])
    .to_string()
    .into_bytes()
}

fn serve_path(c: &mut Criterion) {
    let ty = html_type();
    let trees: Vec<Tree> = (0..PAGES)
        .map(|i| {
            HtmlGen::new(2014 + i as u64)
                .doc_of_size(size(i))
                .encode(&ty)
        })
        .collect();
    let texts: Vec<String> = trees.iter().map(|t| t.display(&ty).to_string()).collect();
    let frames: Vec<Vec<u8>> = texts.iter().enumerate().map(|(i, t)| frame(i, t)).collect();
    let nodes: usize = trees.iter().map(Tree::size).sum();
    let text_bytes: usize = texts.iter().map(String::len).sum();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    println!(
        "serve_path: {PAGES} pages, {nodes} nodes, {text_bytes} bytes of tree text, \
         {frame_bytes} bytes of frames"
    );

    let mut g = c.benchmark_group("serve_path");
    g.sample_size(30)
        .throughput(Throughput::Elements(nodes as u64));

    let mut input = String::new();
    g.bench_function("decode_input", |b| {
        b.iter(|| {
            for f in &frames {
                let text = std::str::from_utf8(f).expect("frames are UTF-8");
                let req = proto::decode_request(text).expect("frames decode");
                input.clear();
                fast_json::unescape_into(req.input.raw(), &mut input).expect("checked");
                black_box(input.len());
            }
        });
    });

    g.bench_function("parse_hit", |b| {
        b.iter(|| {
            for text in &texts {
                black_box(Tree::parse(&ty, text).expect("pages parse"));
            }
        });
    });

    let mut salt = 0u64;
    g.sample_size(10);
    g.bench_function("parse_miss", |b| {
        b.iter_batched(
            || {
                salt += 1;
                let tag = format!("[\"~{salt}~");
                texts
                    .iter()
                    .map(|t| t.replace("[\"", &tag))
                    .collect::<Vec<_>>()
            },
            |salted| {
                salted
                    .iter()
                    .map(|t| Tree::parse(&ty, t).expect("salted pages parse"))
                    .collect::<Vec<_>>()
            },
            BatchSize::LargeInput,
        );
    });
    g.sample_size(30);

    let mut out = String::new();
    g.bench_function("render_direct", |b| {
        b.iter(|| {
            for (i, t) in trees.iter().enumerate() {
                out.clear();
                let id = Json::Int(i as i64);
                proto::write_outputs(
                    &mut out,
                    &id,
                    Op::Run,
                    "sani",
                    &ty,
                    std::slice::from_ref(t),
                    usize::MAX,
                )
                .expect("no cap");
                black_box(out.len());
            }
        });
    });

    g.bench_function("render_display_json", |b| {
        b.iter(|| {
            for (i, t) in trees.iter().enumerate() {
                let rendered = vec![Json::Str(t.display(&ty).to_string())];
                let resp = proto::ok_response(
                    &Json::Int(i as i64),
                    vec![
                        ("op", Json::Str("run".into())),
                        ("target", Json::Str("sani".into())),
                        ("count", Json::Int(1)),
                        ("outputs", Json::Array(rendered)),
                    ],
                );
                let mut sink = Vec::new();
                proto::write_json(&mut sink, &resp).expect("writing to a Vec cannot fail");
                black_box(sink.len());
            }
        });
    });
    g.finish();
}

criterion_group!(benches, serve_path);
criterion_main!(benches);
