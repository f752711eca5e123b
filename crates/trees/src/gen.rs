//! Seeded random generators for trees and HTML documents, used by tests
//! and by the benchmark harness (workload generation).

use crate::html::{HtmlDoc, HtmlElem};
use crate::tree::Tree;
use crate::ty::TreeType;
use fast_smt::{Label, Sort, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configurable random tree generator.
///
/// # Examples
///
/// ```
/// use fast_trees::{TreeGen, TreeType};
/// use fast_smt::{LabelSig, Sort};
///
/// let bt = TreeType::new("BT", LabelSig::single("i", Sort::Int),
///                        vec![("L", 0), ("N", 2)]);
/// let mut g = TreeGen::new(42).with_max_depth(5).with_int_range(-10, 10);
/// let t = g.tree(&bt);
/// assert!(t.conforms_to(&bt));
/// ```
#[derive(Debug)]
pub struct TreeGen {
    rng: StdRng,
    max_depth: usize,
    int_lo: i64,
    int_hi: i64,
    string_pool: Vec<String>,
}

impl TreeGen {
    /// Creates a generator with the given seed (deterministic).
    pub fn new(seed: u64) -> TreeGen {
        TreeGen {
            rng: StdRng::seed_from_u64(seed),
            max_depth: 6,
            int_lo: -100,
            int_hi: 100,
            string_pool: vec![
                String::new(),
                "a".into(),
                "b".into(),
                "div".into(),
                "script".into(),
            ],
        }
    }

    /// Sets the maximum tree depth.
    pub fn with_max_depth(mut self, d: usize) -> TreeGen {
        self.max_depth = d.max(1);
        self
    }

    /// Sets the range for integer label fields (inclusive).
    pub fn with_int_range(mut self, lo: i64, hi: i64) -> TreeGen {
        assert!(lo <= hi);
        self.int_lo = lo;
        self.int_hi = hi;
        self
    }

    /// Sets the pool for string label fields.
    pub fn with_string_pool(mut self, pool: Vec<String>) -> TreeGen {
        assert!(!pool.is_empty());
        self.string_pool = pool;
        self
    }

    /// Access to the underlying RNG (for ad-hoc decisions in harnesses).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Generates a random value of a sort.
    pub fn value(&mut self, sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(self.rng.gen()),
            Sort::Int => Value::Int(self.rng.gen_range(self.int_lo..=self.int_hi)),
            Sort::Str => {
                let i = self.rng.gen_range(0..self.string_pool.len());
                Value::Str(self.string_pool[i].clone())
            }
            Sort::Char => Value::Char(self.rng.gen_range(b'a'..=b'z') as char),
        }
    }

    /// Generates a random label conforming to the type's signature.
    pub fn label(&mut self, ty: &TreeType) -> Label {
        let values = ty
            .sig()
            .fields()
            .iter()
            .map(|(_, s)| *s)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|s| self.value(s))
            .collect();
        Label::new(values)
    }

    /// Generates a random well-formed tree of the type.
    pub fn tree(&mut self, ty: &TreeType) -> Tree {
        self.tree_at(ty, self.max_depth)
    }

    fn tree_at(&mut self, ty: &TreeType, fuel: usize) -> Tree {
        let candidates: Vec<_> = ty
            .ctor_ids()
            .filter(|&c| fuel > 1 || ty.rank(c) == 0)
            .collect();
        let ctor = candidates[self.rng.gen_range(0..candidates.len())];
        let label = self.label(ty);
        let children: Vec<Tree> = (0..ty.rank(ctor))
            .map(|_| self.tree_at(ty, fuel - 1))
            .collect();
        Tree::new(ctor, label, children)
    }

    /// Generates `n` random trees.
    pub fn trees(&mut self, ty: &TreeType, n: usize) -> Vec<Tree> {
        (0..n).map(|_| self.tree(ty)).collect()
    }
}

/// Random HTML document generator for the sanitizer benchmarks (§5.1):
/// produces documents with a realistic element/attribute/text/script mix
/// whose rendered size approximates a target byte count.
#[derive(Debug)]
pub struct HtmlGen {
    rng: StdRng,
    /// Probability (percent) that an element is a `script` element.
    pub script_percent: u32,
}

const TAGS: &[&str] = &[
    "div", "p", "span", "a", "ul", "li", "table", "tr", "td", "b", "i", "h1", "h2", "img",
];
const ATTR_NAMES: &[&str] = &["id", "class", "href", "style", "title"];
const WORDS: &[&str] = &[
    "lorem",
    "ipsum",
    "dolor",
    "sit",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
    "sed'do",
    "eiusmod\"t",
];

impl HtmlGen {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> HtmlGen {
        HtmlGen {
            rng: StdRng::seed_from_u64(seed),
            script_percent: 5,
        }
    }

    fn words(&mut self, n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(WORDS[self.rng.gen_range(0..WORDS.len())]);
        }
        s
    }

    fn elem(&mut self, depth: usize) -> HtmlElem {
        let is_script = self.rng.gen_range(0..100u32) < self.script_percent;
        let tag = if is_script {
            "script"
        } else {
            TAGS[self.rng.gen_range(0..TAGS.len())]
        };
        let mut e = HtmlElem::new(tag);
        for _ in 0..self.rng.gen_range(0..3) {
            let name = ATTR_NAMES[self.rng.gen_range(0..ATTR_NAMES.len())];
            let n = self.rng.gen_range(1..3);
            let value = self.words(n);
            e = e.with_attr(name, &value);
        }
        if self.rng.gen_bool(0.7) {
            let n = self.rng.gen_range(2..12);
            let text = self.words(n);
            e = e.with_text(&text);
        }
        if depth > 0 && !is_script {
            for _ in 0..self.rng.gen_range(0..4) {
                e = e.with_child(self.elem(depth - 1));
            }
        }
        e
    }

    /// Generates a document whose rendered size is at least `min_bytes`.
    pub fn doc_of_size(&mut self, min_bytes: usize) -> HtmlDoc {
        let mut doc = HtmlDoc::default();
        let mut size = 0usize;
        while size < min_bytes {
            let e = self.elem(4);
            size += e_render_len(&e);
            doc.roots.push(e);
        }
        doc
    }
}

fn e_render_len(e: &HtmlElem) -> usize {
    HtmlDoc::new(vec![e.clone()]).render().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::LabelSig;

    #[test]
    fn deterministic() {
        let ty = TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        );
        let t1 = TreeGen::new(7).tree(&ty);
        let t2 = TreeGen::new(7).tree(&ty);
        assert_eq!(t1, t2);
        let t3 = TreeGen::new(8).tree(&ty);
        // Overwhelmingly likely to differ.
        assert!(t1 != t3 || t1.size() == 1);
    }

    #[test]
    fn respects_depth_and_conformance() {
        let ty = TreeType::new(
            "T",
            LabelSig::single("s", Sort::Str),
            vec![("z", 0), ("u", 1), ("b", 2), ("t", 3)],
        );
        let mut g = TreeGen::new(1).with_max_depth(4);
        for _ in 0..50 {
            let t = g.tree(&ty);
            assert!(t.conforms_to(&ty));
            assert!(t.depth() <= 4);
        }
    }

    #[test]
    fn html_doc_size_target() {
        let mut g = HtmlGen::new(3);
        let doc = g.doc_of_size(20_000);
        let rendered = doc.render();
        assert!(rendered.len() >= 20_000);
        // Encoding round-trips.
        let ty = crate::html::html_type();
        let t = doc.encode(&ty);
        assert_eq!(HtmlDoc::decode(&ty, &t).unwrap(), doc);
    }

    #[test]
    fn html_gen_produces_scripts() {
        let mut g = HtmlGen::new(5);
        g.script_percent = 50;
        let doc = g.doc_of_size(5_000);
        fn has_script(e: &HtmlElem) -> bool {
            e.tag == "script" || e.children.iter().any(has_script)
        }
        assert!(doc.roots.iter().any(has_script));
    }
}
