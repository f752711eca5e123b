//! The direct response writer of `run`/`pipeline` outputs
//! (`proto::write_outputs`) against the `Json` path it replaced —
//! `write_json(&ok_response(..))` over `display().to_string()` — byte
//! for byte, and on the same response-size cap.

mod common;

use fast_json::Json;
use fast_serve::proto::{self, Op};
use fast_serve::{Client, ServeConfig};
use fast_smt::{Label, LabelSig, Sort, Value};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Characters JSON or the tree syntax escapes, and some they do not.
const POOL: &[char] = &[
    'a',
    'Z',
    ' ',
    '"',
    '\\',
    '\'',
    '/',
    '\0',
    '\u{1}',
    '\u{1f}',
    '\t',
    '\r',
    '\n',
    '\u{7f}',
    '\u{ad}',
    'é',
    '\u{2028}',
    '😀',
    '\u{10ffff}',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..POOL.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

/// A type whose labels carry three values, of three sorts.
fn ty() -> &'static Arc<TreeType> {
    static TY: OnceLock<Arc<TreeType>> = OnceLock::new();
    TY.get_or_init(|| {
        TreeType::new(
            "R",
            LabelSig::new(vec![
                ("s".into(), Sort::Str),
                ("c".into(), Sort::Char),
                ("n".into(), Sort::Int),
            ]),
            vec![("L", 0), ("U", 1), ("N", 2)],
        )
    })
}

fn label() -> impl Strategy<Value = Label> {
    (text(), 0..POOL.len(), -5i64..5)
        .prop_map(|(s, c, n)| Label::new(vec![Value::Str(s), Value::Char(POOL[c]), Value::Int(n)]))
}

fn tree() -> impl Strategy<Value = Tree> {
    let ty = ty();
    let (l, u, n) = (
        ty.ctor_id("L").unwrap(),
        ty.ctor_id("U").unwrap(),
        ty.ctor_id("N").unwrap(),
    );
    let leaf = label().prop_map(move |lab| Tree::leaf(l, lab));
    leaf.prop_recursive(4, 16, 2, move |inner| {
        prop_oneof![
            (label(), inner.clone()).prop_map(move |(lab, c)| Tree::new(u, lab, vec![c])),
            (label(), inner.clone(), inner).prop_map(move |(lab, a, b)| Tree::new(
                n,
                lab,
                vec![a, b]
            )),
        ]
    })
}

/// An id of each JSON kind.
fn id() -> impl Strategy<Value = Json> {
    (0..7usize, text(), -100i64..100).prop_map(|(kind, s, n)| match kind {
        0 => Json::Null,
        1 => Json::Bool(n % 2 == 0),
        2 => Json::Int(n),
        3 => Json::Float(n as f64 / 4.0),
        4 => Json::Str(s),
        5 => Json::Array(vec![Json::Int(n), Json::Str(s), Json::Null]),
        _ => Json::obj([(s, Json::Int(n))]),
    })
}

/// The payload the server wrote before the direct writer.
fn reference(id: &Json, op: Op, target: &str, outputs: &[Tree]) -> Vec<u8> {
    let rendered: Vec<Json> = outputs
        .iter()
        .map(|t| Json::Str(t.display(ty()).to_string()))
        .collect();
    let resp = proto::ok_response(
        id,
        vec![
            ("op", Json::Str(op.name().into())),
            ("target", Json::Str(target.into())),
            ("count", Json::Int(rendered.len() as i64)),
            ("outputs", Json::Array(rendered)),
        ],
    );
    let mut frame = Vec::new();
    proto::write_json(&mut frame, &resp).unwrap();
    frame.split_off(proto::LEN_PREFIX_BYTES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn direct_writer_matches_the_json_path(
        outputs in proptest::collection::vec(tree(), 0..5),
        id in id(),
        target in text(),
        pipeline in any::<bool>(),
    ) {
        let op = if pipeline { Op::Pipeline } else { Op::Run };
        let want = reference(&id, op, &target, &outputs);
        let mut out = String::new();
        prop_assert!(proto::write_outputs(&mut out, &id, op, &target, ty(), &outputs, usize::MAX).is_ok());
        prop_assert_eq!(out.as_bytes(), &want[..]);

        // The cap counts the outputs' text before escaping: exactly at
        // it is fine, one byte under it fails.
        let text: usize = outputs.iter().map(|t| t.display(ty()).to_string().len()).sum();
        out.clear();
        prop_assert!(proto::write_outputs(&mut out, &id, op, &target, ty(), &outputs, text).is_ok());
        prop_assert_eq!(out.as_bytes(), &want[..]);
        if text > 0 {
            out.clear();
            prop_assert_eq!(
                proto::write_outputs(&mut out, &id, op, &target, ty(), &outputs, text - 1),
                Err(text)
            );
        }
    }
}

/// The server's response-size cap decides on the same byte count as
/// before the direct writer: the rendered outputs' length, unescaped.
/// `inc` maps `N[1](L[2], L[3])` to the 16 bytes `N[2](L[3], L[4])`.
#[test]
fn response_cap_is_exact_at_the_limit() {
    let input = common::bushy_input(1, 1);
    assert_eq!(input, "N[1](L[2], L[3])");
    for (cap, ok) in [(16, true), (15, false)] {
        let cfg = ServeConfig {
            max_response_bytes: cap,
            ..ServeConfig::default()
        };
        let server = fast_serve::start(vec![common::artifact()], "127.0.0.1:0", cfg).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let resp = client.run("inc", &input).unwrap();
        if ok {
            let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
            assert_eq!(outs[0].as_str(), Some("N[2](L[3], L[4])"), "{resp}");
        } else {
            assert_eq!(
                resp.get("code"),
                Some(&Json::Int(proto::CODE_TOO_LARGE)),
                "{resp}"
            );
        }
        server.shutdown();
    }
}
