//! Seeded HTML inputs for the sanitizer workloads, written to the wire
//! form without touching the tree interner.

use fast_json::Json;
use fast_trees::{HtmlDoc, HtmlElem, HtmlGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Writes `doc` in the `HtmlE` s-expression syntax of `Tree::display`,
/// byte for byte what `doc.encode(&ty).display(&ty)` prints, but without
/// building (and so interning) a `Tree`. A load generator that encoded
/// through `Tree` would intern every page in the server's own process
/// before the server ever saw it.
pub fn tree_text(doc: &HtmlDoc) -> String {
    let mut out = String::new();
    elems(&mut out, &doc.roots);
    out
}

const NIL: &str = "nil[\"\"]";

/// Labels print as `Value::Str` displays them: `{:?}` of the string.
fn label(out: &mut String, ctor: &str, s: &str) {
    write!(out, "{ctor}[{s:?}](").expect("writing to a String cannot fail");
}

/// A list encodes as right-nested cells ending in `nil`; the closing
/// parens are written after the loop so sibling count never becomes
/// recursion depth.
fn elems(out: &mut String, es: &[HtmlElem]) {
    for e in es {
        label(out, "node", &e.tag);
        attrs(out, &e.attrs);
        out.push_str(", ");
        elems(out, &e.children);
        out.push_str(", ");
    }
    close(out, es.len());
}

fn attrs(out: &mut String, attrs: &[(String, String)]) {
    for (name, value) in attrs {
        label(out, "attr", name);
        let mut buf = [0u8; 4];
        for ch in value.chars() {
            label(out, "val", ch.encode_utf8(&mut buf));
        }
        out.push_str(NIL);
        out.push_str(&")".repeat(value.chars().count()));
        out.push_str(", ");
    }
    close(out, attrs.len());
}

fn close(out: &mut String, open: usize) {
    out.push_str(NIL);
    out.push_str(&")".repeat(open));
}

/// `n` page sizes log-uniform in `[lo, hi]` bytes, stratified: one size
/// per equal-width stratum of `ln(size)`, jittered within the middle
/// half of its stratum, then shuffled. Every seed gets the same size
/// distribution (so a run's median does not depend on which seed drew
/// a few large pages) but its own pages and order.
pub fn stratified_sizes(rng: &mut StdRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi as f64 / lo as f64).ln();
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let jitter = rng.gen::<f64>() * 0.5 - 0.25;
            let u = (i as f64 + 0.5 + jitter) / n as f64;
            (lo as f64 * (span * u).exp()) as usize
        })
        .collect();
    shuffle(rng, &mut sizes);
    sizes
}

/// Fisher–Yates shuffle (the vendored `rand` subset has none).
pub fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// Mixes a run seed with a stream index into an independent sub-seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen()
}

/// One generated page and its wire forms.
pub struct Page {
    /// The request id its frame carries.
    pub id: i64,
    /// The document the page was generated as.
    pub doc: HtmlDoc,
    /// Rendered HTML size in bytes (the size the workload is stated in).
    pub html_bytes: usize,
    /// The `run` request frame payload (JSON), built before any timing.
    pub frame: Vec<u8>,
}

/// Generates one page per size from `seed`, with request id `id0 + i`.
pub fn pages(seed: u64, sizes: &[usize], id0: i64) -> Vec<Page> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let doc = HtmlGen::new(sub_seed(seed, i as u64)).doc_of_size(size);
            let html_bytes = doc.render().len();
            let id = id0 + i as i64;
            let frame = request_frame(id, &tree_text(&doc));
            Page {
                id,
                doc,
                html_bytes,
                frame,
            }
        })
        .collect()
}

/// The JSON payload of a `run` request for the `sani` target.
fn request_frame(id: i64, input: &str) -> Vec<u8> {
    Json::obj([
        ("id", Json::Int(id)),
        ("op", Json::Str("run".into())),
        ("target", Json::Str("sani".into())),
        ("input", Json::Str(input.into())),
    ])
    .to_string()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bench::sanitizer::{baseline_sanitize, compile_fig2};

    #[test]
    fn tree_text_matches_tree_display() {
        let compiled = compile_fig2();
        let ty = compiled.tree_type("HtmlE").expect("HtmlE").clone();
        for seed in 0..12u64 {
            let mut gen = HtmlGen::new(seed);
            gen.script_percent = 20;
            let doc = gen.doc_of_size(600 + 150 * seed as usize);
            let want = doc.encode(&ty).display(&ty).to_string();
            assert_eq!(tree_text(&doc), want, "seed {seed}");
            let sanitized = baseline_sanitize(&doc);
            let want = sanitized.encode(&ty).display(&ty).to_string();
            assert_eq!(tree_text(&sanitized), want, "sanitized, seed {seed}");
        }
        let odd = HtmlDoc::new(vec![HtmlElem::new("p")
            .with_attr("title", "tab\t \\ é \"q\"")
            .with_text("")]);
        assert_eq!(tree_text(&odd), odd.encode(&ty).display(&ty).to_string());
        assert_eq!(tree_text(&HtmlDoc::default()), NIL);
    }

    #[test]
    fn stratified_sizes_cover_the_range_once_per_stratum() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sizes = stratified_sizes(&mut rng, 20, 1_000, 100_000);
        sizes.sort_unstable();
        assert!(sizes[0] >= 1_000 && sizes[19] <= 100_000);
        for (i, s) in sizes.iter().enumerate() {
            let u = (*s as f64 / 1_000.0).ln() / 100f64.ln() * 20.0;
            assert!(
                u >= i as f64 && u < i as f64 + 1.0,
                "size {s} off stratum {i}"
            );
        }
    }
}
