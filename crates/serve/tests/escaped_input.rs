//! The executor reads a request's tree from the escaped `input` span of
//! its frame, where it lies (`Tree::parse_escaped`). A frame that spells
//! the same tree text with other JSON escapes, or the same tree with
//! other spacing, gets a response byte for byte equal to the canonical
//! frame's; errors keep their codes and messages.

use fast_json::Json;
use fast_rt::ArtifactBuilder;
use fast_serve::proto;
use fast_serve::{ServeConfig, ServerHandle};
use fast_smt::{Label, Value};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

const SRC: &str = r#"
    type R[s: String, c: Char, n: Int] { L(0), U(1), N(2) }
    trans id: R -> R {
      L() to (L [s, c, n])
    | U(x) to (U [s, c, n] (id x))
    | N(x, y) to (N [s, c, n] (id x) (id y))
    }
"#;

const MAX_DEPTH: usize = 8;

/// One server for every case, serving the identity over `R`.
fn server() -> &'static (ServerHandle, Arc<TreeType>) {
    static SERVER: OnceLock<(ServerHandle, Arc<TreeType>)> = OnceLock::new();
    SERVER.get_or_init(|| {
        let c = fast_lang::compile(SRC).expect("fixture program compiles");
        let sttr = c.transducer("id").expect("the fixture defines id");
        let ty = sttr.ty().clone();
        let mut b = ArtifactBuilder::new();
        b.add_transducer("id", sttr);
        let cfg = ServeConfig {
            workers: 1,
            max_input_depth: MAX_DEPTH,
            ..ServeConfig::default()
        };
        let server = fast_serve::start(vec![b.build()], "127.0.0.1:0", cfg).unwrap();
        (server, ty)
    })
}

fn ty() -> &'static Arc<TreeType> {
    &server().1
}

/// Sends `frame` and returns the response payload as it came.
fn round_trip(frame: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(server().0.addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    proto::write_frame(&mut w, frame).unwrap();
    proto::read_frame(&mut BufReader::new(stream), 1 << 20)
        .unwrap()
        .expect("one response")
}

/// A `run` frame of the identity whose `input` literal is `literal`
/// (its content, escapes as written).
fn frame(literal: &str) -> Vec<u8> {
    format!("{{\"id\":7,\"op\":\"run\",\"target\":\"id\",\"input\":\"{literal}\"}}").into_bytes()
}

/// The canonical literal of `text`: how `Json` escapes it.
fn canonical(text: &str) -> String {
    let lit = Json::Str(text.into()).to_string();
    lit[1..lit.len() - 1].to_owned()
}

/// Characters JSON or the tree syntax escapes, and some they do not.
const POOL: &[char] = &[
    'a', 'Z', ' ', '"', '\\', '\'', '/', '(', ',', '\0', '\u{1f}', '\t', '\n', '\u{7f}', 'é',
    '\u{2028}', '😀',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..POOL.len(), 0..5)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

fn label() -> impl Strategy<Value = Label> {
    (text(), 0..POOL.len(), -5i64..5)
        .prop_map(|(s, c, n)| Label::new(vec![Value::Str(s), Value::Char(POOL[c]), Value::Int(n)]))
}

/// Trees of `R`, some with one subtree under both children of a node.
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
            (label(), inner.clone()).prop_map(move |(lab, c)| Tree::new(
                n,
                lab,
                vec![c.clone(), c]
            )),
            (label(), inner.clone(), inner).prop_map(move |(lab, a, b)| Tree::new(
                n,
                lab,
                vec![a, b]
            )),
        ]
    })
}

/// Choices drawn in turn, wrapping around.
struct Tape<'a> {
    choices: &'a [u8],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> u8 {
        let c = self.choices.get(self.at).copied().unwrap_or(0);
        self.at = (self.at + 1) % self.choices.len().max(1);
        c
    }
}

/// Whitespace between two tokens: none, or one of a few spellings.
fn ws(tape: &mut Tape<'_>) -> &'static str {
    const WS: &[&str] = &["", "", "", " ", "  ", "\n", "\t", "\r\n", "\u{3000}"];
    WS[usize::from(tape.next()) % WS.len()]
}

/// `t` in the syntax `Tree::parse` reads, with the whitespace between
/// tokens drawn from `tape` instead of `Tree::display`'s.
fn spaced(t: &Tree, tape: &mut Tape<'_>, out: &mut String) {
    out.push_str(ws(tape));
    out.push_str(ty().ctor_name(t.ctor()));
    out.push_str(ws(tape));
    out.push('[');
    for (i, v) in t.label().values().iter().enumerate() {
        out.push_str(ws(tape));
        if i > 0 {
            out.push(',');
            out.push_str(ws(tape));
        }
        out.push_str(&v.to_string());
    }
    out.push_str(ws(tape));
    out.push(']');
    out.push_str(ws(tape));
    if !t.children().is_empty() {
        out.push('(');
        for (i, c) in t.children().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            spaced(c, tape, out);
            out.push_str(ws(tape));
        }
        out.push(')');
    }
    out.push_str(ws(tape));
}

/// `text` as a JSON string literal's content, each char spelled in one
/// of the ways JSON allows, chosen by `tape`: raw where allowed, its
/// short escape, `\uXXXX` (a surrogate pair above the BMP). Letters,
/// digits and the tree syntax's punctuation other than `"` stay raw
/// unless `structure` is set: spelled `\uXXXX` outside a label, they
/// are what the in-place read hands to the plain one.
fn respelled(text: &str, structure: bool, tape: &mut Tape<'_>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in text.chars() {
        if !structure && (c.is_ascii_alphanumeric() || "[](),'-_".contains(c)) {
            out.push(c);
            continue;
        }
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            '\r' => Some("\\r"),
            _ => None,
        };
        let raw_ok = c >= ' ' && c != '"' && c != '\\';
        // Mostly the cheap spellings; a `\uXXXX` one in six.
        let pick = tape.next() % 6;
        if pick == 0 || (!raw_ok && short.is_none()) {
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                write!(out, "\\u{u:04x}").unwrap();
            }
        } else if raw_ok && (pick % 2 == 1 || short.is_none()) {
            out.push(c);
        } else {
            out.push_str(short.expect("a char JSON must escape has a short escape here"));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn respelled_frames_get_the_canonical_response(
        t in tree(),
        choices in proptest::collection::vec(0u8..255, 1..64),
    ) {
        let text = t.display(ty()).to_string();
        let want = round_trip(&frame(&canonical(&text)));
        prop_assert!(
            String::from_utf8_lossy(&want).contains("\"ok\":true"),
            "{}", String::from_utf8_lossy(&want)
        );
        let mut tape = Tape { choices: &choices, at: 0 };
        // The canonical text, other escapes.
        let got = round_trip(&frame(&respelled(&text, false, &mut tape)));
        prop_assert_eq!(&got, &want);
        // Other spacing, other escapes, then structure escaped too.
        let mut loose = String::new();
        spaced(&t, &mut tape, &mut loose);
        prop_assert_eq!(Tree::parse(ty(), &loose).as_ref(), Ok(&t), "{}", loose);
        for structure in [false, true] {
            let got = round_trip(&frame(&respelled(&loose, structure, &mut tape)));
            prop_assert_eq!(&got, &want);
        }
    }
}

/// The `code` and `error` of an error response.
fn error_of(payload: &[u8]) -> (i64, String) {
    let resp = Json::parse(std::str::from_utf8(payload).unwrap()).unwrap();
    let code = resp.get("code").and_then(Json::as_int).expect("an error");
    let msg = resp.get("error").and_then(Json::as_str).unwrap().to_owned();
    (code, msg)
}

/// A structural char spelled as an escape outside a label is read by
/// the plain reader, counted in `trees.parse.unescaped`, and answered
/// like the canonical frame.
#[test]
fn escaped_structure_falls_back_to_the_plain_read() {
    let text = r#"U["a\"b", 'c', 1](L["", '"', 2])"#;
    let want = round_trip(&frame(&canonical(text)));
    let before = fast_obs::snapshot().get("trees.parse.unescaped");
    let got = round_trip(&frame(&canonical(text).replace("](", "]\\u0028")));
    assert_eq!(got, want);
    assert!(fast_obs::snapshot().get("trees.parse.unescaped") > before);
}

/// Input over the depth limit is still a 413, and a malformed tree a 400
/// with the message of the unescaped text's parse (positions included),
/// however the frame spells it.
#[test]
fn errors_keep_their_codes_and_messages() {
    let mut deep = String::from(r#"L["\"", 'x', 0]"#);
    for _ in 0..=MAX_DEPTH {
        deep = format!(r#"U["(\"", ')', 0]({deep})"#);
    }
    let bad = [
        r#"N["a\"b", 'c', 1](L["x", 'y', 2])"#,
        r#"L["a\"b", 'c', 1] junk"#,
        r#"L["a\"b", 'c']"#,
        r#"L["unterminated, 'c', 1]"#,
        r#"U["é\"", 'c', 1](L["x", 'y', 2]"#,
    ];
    let mut tape = Tape {
        choices: &[0, 1, 2, 3, 4, 5, 7, 11, 13],
        at: 0,
    };
    for _ in 0..4 {
        let (code, msg) = error_of(&round_trip(&frame(&respelled(&deep, true, &mut tape))));
        assert_eq!(code, proto::CODE_TOO_LARGE, "{msg}");
        assert_eq!(
            msg,
            format!("input nesting depth exceeds the limit of {MAX_DEPTH}")
        );
        for text in bad {
            let err = Tree::parse_bounded(ty(), text, MAX_DEPTH).unwrap_err();
            for literal in [
                canonical(text),
                respelled(text, false, &mut tape),
                respelled(text, true, &mut tape),
            ] {
                let (code, msg) = error_of(&round_trip(&frame(&literal)));
                assert_eq!(code, proto::CODE_BAD_REQUEST, "{msg}");
                assert_eq!(msg, format!("input does not parse: {err}"), "{literal}");
            }
        }
    }
}
