//! Property-based tests: s-expression round-trips, HTML encode/decode
//! round-trips, and structural invariants of generated trees.

use fast_smt::{Label, LabelSig, Sort, Value};
use fast_trees::{html_type, HtmlDoc, HtmlElem, Tree, TreeType};
use proptest::prelude::*;
use std::sync::Arc;

fn mixed_type() -> Arc<TreeType> {
    TreeType::new(
        "M",
        LabelSig::new(vec![
            ("n".into(), Sort::Int),
            ("s".into(), Sort::Str),
            ("b".into(), Sort::Bool),
        ]),
        vec![("z", 0), ("u", 1), ("p", 2)],
    )
}

fn label() -> impl Strategy<Value = Label> {
    (-1000i64..1000, "[a-z\"\\\\]{0,5}", any::<bool>())
        .prop_map(|(n, s, b)| Label::new(vec![Value::Int(n), Value::Str(s), Value::Bool(b)]))
}

fn tree() -> impl Strategy<Value = Tree> {
    let ty = mixed_type();
    let z = ty.ctor_id("z").unwrap();
    let u = ty.ctor_id("u").unwrap();
    let p = ty.ctor_id("p").unwrap();
    let leaf = label().prop_map(move |l| Tree::leaf(z, l));
    leaf.prop_recursive(5, 40, 2, move |inner| {
        prop_oneof![
            (label(), inner.clone()).prop_map(move |(l, c)| Tree::new(u, l, vec![c])),
            (label(), inner.clone(), inner)
                .prop_map(move |(l, a, b)| { Tree::new(p, l, vec![a, b]) }),
        ]
    })
}

fn html_elem() -> impl Strategy<Value = HtmlElem> {
    let name = "[a-z]{1,6}";
    let value = "[ -~]{0,8}"; // printable ASCII incl. quotes/backslashes
    let leaf =
        (name, proptest::collection::vec(("[a-z]{1,4}", value), 0..3)).prop_map(|(tag, attrs)| {
            let mut e = HtmlElem::new(&tag);
            for (n, v) in attrs {
                e = e.with_attr(&n, &v);
            }
            e
        });
    leaf.prop_recursive(3, 12, 3, |inner| {
        ("[a-z]{1,6}", proptest::collection::vec(inner, 0..3)).prop_map(|(tag, kids)| {
            let mut e = HtmlElem::new(&tag);
            for k in kids {
                e = e.with_child(k);
            }
            e
        })
    })
}

/// A type whose labels are a string and a char, for the escape tests.
fn text_type() -> Arc<TreeType> {
    TreeType::new(
        "X",
        LabelSig::new(vec![("s".into(), Sort::Str), ("c".into(), Sort::Char)]),
        vec![("x", 0), ("y", 2)],
    )
}

/// Any char, weighted toward those `{:?}` escapes: ASCII controls,
/// quotes and backslash, and non-printable or grapheme-extending code
/// points, plus the parser's own punctuation.
fn any_char() -> impl Strategy<Value = char> {
    const SPECIAL: [char; 18] = [
        '\0',
        '\t',
        '\r',
        '\n',
        '\'',
        '"',
        '\\',
        '\u{7}',
        '\u{7f}',
        '\u{85}',
        '\u{ad}',
        '\u{300}',
        '\u{200b}',
        '\u{feff}',
        '\u{10ffff}',
        '(',
        ')',
        ',',
    ];
    prop_oneof![
        (0u8..0x80).prop_map(char::from),
        (0u32..0x11_0000).prop_map(|n| char::from_u32(n).unwrap_or('\u{fffd}')),
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..8).prop_map(|cs| cs.into_iter().collect())
}

fn text_tree() -> impl Strategy<Value = Tree> {
    let ty = text_type();
    let x = ty.ctor_id("x").unwrap();
    let y = ty.ctor_id("y").unwrap();
    let label = || {
        (any_string(), any_char())
            .prop_map(|(s, c)| Label::new(vec![Value::Str(s), Value::Char(c)]))
    };
    label()
        .prop_map(move |l| Tree::leaf(x, l))
        .prop_recursive(3, 12, 2, move |inner| {
            (label(), inner.clone(), inner).prop_map(move |(l, a, b)| Tree::new(y, l, vec![a, b]))
        })
}

/// `text` as a JSON string literal's content, each char that is not a
/// letter, a digit or the tree syntax's punctuation other than `"`
/// spelled in a way JSON allows, chosen by `pick`: raw where allowed,
/// its short escape, or `\uXXXX` (a surrogate pair above the BMP).
fn respelled(text: &str, pick: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, c) in text.chars().enumerate() {
        let choice = pick.get(i % pick.len().max(1)).copied().unwrap_or(0) % 3;
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let raw_ok = c >= ' ' && c != '"' && c != '\\';
        if c.is_ascii_alphanumeric() || "[](),'-_".contains(c) || (raw_ok && choice == 0) {
            out.push(c);
        } else if let (Some(esc), 1) = (short, choice) {
            out.push_str(esc);
        } else {
            for u in c.encode_utf16(&mut [0; 2]) {
                write!(out, "\\u{u:04x}").unwrap();
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Display → parse is the identity on strings and chars of any
    /// Unicode content, control and non-printable ones included.
    #[test]
    fn escaped_labels_round_trip(t in text_tree()) {
        let ty = text_type();
        let printed = t.display(&ty).to_string();
        let back = Tree::parse(&ty, &printed)
            .unwrap_or_else(|e| panic!("{e}\n--- printed ---\n{printed}"));
        prop_assert_eq!(back, t);
    }

    /// Labels print byte for byte as `{:?}` prints their values.
    /// The escaped read of a tree's text, its escapes spelled every way
    /// JSON allows everywhere but in names, numbers and punctuation,
    /// gives the tree without falling back to the plain read (no other
    /// test in this binary reads escaped text, so the counter moves
    /// only here).
    #[test]
    fn escaped_reads_stay_in_place(
        t in text_tree(),
        pick in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let ty = text_type();
        let fallbacks = || fast_obs::snapshot().get("trees.parse.unescaped");
        let before = fallbacks();
        let literal = respelled(&t.display(&ty).to_string(), &pick);
        prop_assert_eq!(Tree::parse_escaped(&ty, &literal, usize::MAX), Ok(t), "{}", literal);
        prop_assert_eq!(fallbacks(), before, "{}", literal);
    }

    #[test]
    fn labels_print_as_debug(s in any_string(), c in any_char()) {
        let ty = text_type();
        let t = Tree::leaf(
            ty.ctor_id("x").unwrap(),
            Label::new(vec![Value::Str(s.clone()), Value::Char(c)]),
        );
        prop_assert_eq!(t.display(&ty).to_string(), format!("x[{s:?}, {c:?}]"));
    }

    /// Display → parse is the identity on trees (all label sorts).
    #[test]
    fn sexpr_round_trip(t in tree()) {
        let ty = mixed_type();
        let printed = t.display(&ty).to_string();
        let back = Tree::parse(&ty, &printed)
            .unwrap_or_else(|e| panic!("{e}\n--- printed ---\n{printed}"));
        prop_assert_eq!(back, t);
    }

    /// Generated trees conform and size/depth behave.
    #[test]
    fn structural_invariants(t in tree()) {
        let ty = mixed_type();
        prop_assert!(t.conforms_to(&ty));
        prop_assert!(t.depth() <= t.size());
        prop_assert_eq!(t.iter().count(), t.size());
    }

    /// HTML documents survive encode → decode (Fig. 3 encoding is a
    /// bijection on well-formed documents).
    #[test]
    fn html_round_trip(roots in proptest::collection::vec(html_elem(), 0..3)) {
        let doc = HtmlDoc::new(roots);
        let ty = html_type();
        let encoded = doc.encode(&ty);
        prop_assert!(encoded.conforms_to(&ty));
        let back = HtmlDoc::decode(&ty, &encoded).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// Encoding size is linear-ish: nodes ≥ elements, and each attr/text
    /// character costs exactly one `val` node.
    #[test]
    fn html_encoding_size(roots in proptest::collection::vec(html_elem(), 0..3)) {
        let doc = HtmlDoc::new(roots);
        let ty = html_type();
        let encoded = doc.encode(&ty);
        fn count(e: &HtmlElem) -> (usize, usize, usize) {
            // (elements, attrs, value chars)
            let mut el = 1;
            let mut at = e.attrs.len();
            let mut ch: usize = e.attrs.iter().map(|(_, v)| v.chars().count()).sum();
            for c in &e.children {
                let (a, b, d) = count(c);
                el += a;
                at += b;
                ch += d;
            }
            (el, at, ch)
        }
        let (el, at, ch) = doc.roots.iter().map(count).fold(
            (0, 0, 0),
            |(a, b, c), (x, y, z)| (a + x, b + y, c + z),
        );
        let c = fast_trees::HtmlCtors::resolve(&ty);
        let nodes = encoded.iter().filter(|n| n.ctor() == c.node).count();
        let attrs = encoded.iter().filter(|n| n.ctor() == c.attr).count();
        let vals = encoded.iter().filter(|n| n.ctor() == c.val).count();
        prop_assert_eq!(nodes, el);
        prop_assert_eq!(attrs, at);
        prop_assert_eq!(vals, ch);
    }
}

/// `size`, `depth` and `conforms_to` walk with a heap stack: a
/// 10⁵-deep chain, far past what one stack frame per level fits in a
/// default test-thread stack, is measured and checked, and a bad node
/// at the very bottom is still found.
#[test]
fn deep_chain_is_measured_without_recursion() {
    const DEPTH: usize = 100_000;
    let ty = mixed_type();
    let (z, u, p) = (
        ty.ctor_id("z").unwrap(),
        ty.ctor_id("u").unwrap(),
        ty.ctor_id("p").unwrap(),
    );
    let label = |n: usize| {
        Label::new(vec![
            Value::Int(n as i64),
            Value::Str(String::new()),
            Value::Bool(false),
        ])
    };
    let chain = |bottom: Tree| (1..DEPTH).fold(bottom, |t, n| Tree::new(u, label(n), vec![t]));
    let good = chain(Tree::leaf(z, label(0)));
    assert_eq!(good.size(), DEPTH);
    assert_eq!(good.depth(), DEPTH);
    assert!(good.conforms_to(&ty));
    // `p` has rank 2: a childless `p` at the bottom breaks conformance.
    let bad = chain(Tree::leaf(p, label(0)));
    assert_eq!(bad.depth(), DEPTH);
    assert!(!bad.conforms_to(&ty));
}
