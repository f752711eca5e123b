//! End-to-end tests against a real server on an ephemeral port: every
//! operation over a fast-lang-compiled artifact, plus the admission
//! limits a *well-formed* client can hit (deadline, budget, unknown
//! target). Hostile wire-level input lives in `hostile_protocol.rs`.

use fast_json::Json;
use fast_rt::{Artifact, ArtifactBuilder};
use fast_serve::{Client, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

const SRC: &str = r#"
    type BT[i: Int] { L(0), N(2) }
    trans inc: BT -> BT {
      L() to (L [i + 1])
    | N(x, y) to (N [i + 1] (inc x) (inc y))
    }
    trans flip: BT -> BT {
      L() to (L [0 - i])
    | N(x, y) to (N [0 - i] (flip x) (flip y))
    }
    type ST[s: String] { SL(0), SN(2) }
    trans copy: ST -> ST {
      SL() to (SL [s])
    | SN(x, y) to (SN [s] (copy x) (copy y))
    }
"#;

fn artifact() -> Artifact {
    let c = fast_lang::compile(SRC).expect("fixture program compiles");
    let mut b = ArtifactBuilder::new();
    for name in c.transducer_names() {
        b.add_transducer(name, c.transducer(name).unwrap());
    }
    let inc = Arc::new(c.transducer("inc").unwrap().clone());
    b.add_pipeline(
        "inc,inc",
        &["inc".to_string(), "inc".to_string()],
        &[Arc::clone(&inc), inc],
    );
    b.build()
}

fn start_server(cfg: ServeConfig) -> fast_serve::ServerHandle {
    fast_serve::start(vec![artifact()], "127.0.0.1:0", cfg).expect("server starts")
}

#[test]
fn run_check_pipeline_stats_roundtrip() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // run: one deterministic output, rendered so it re-parses.
    let resp = client.run("inc", "N[1](L[2], L[3])").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].as_str().unwrap(), "N[2](L[3], L[4])");

    // The id is echoed verbatim, including non-integer ids.
    let resp = client
        .call(&Json::obj([
            ("id", Json::Str("abc".into())),
            ("op", Json::Str("run".into())),
            ("target", Json::Str("flip".into())),
            ("input", Json::Str("L[5]".into())),
        ]))
        .unwrap();
    assert_eq!(resp.get("id"), Some(&Json::Str("abc".into())));
    let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
    assert_eq!(outs[0].as_str().unwrap(), "L[-5]");

    // pipeline: inc twice.
    let resp = client
        .call(&Json::obj([
            ("id", Json::Int(3)),
            ("op", Json::Str("pipeline".into())),
            ("target", Json::Str("inc,inc".into())),
            ("input", Json::Str("L[0]".into())),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
    assert_eq!(outs[0].as_str().unwrap(), "L[2]");

    // check: domain membership and output count, no serialized trees.
    let resp = client
        .call(&Json::obj([
            ("id", Json::Int(4)),
            ("op", Json::Str("check".into())),
            ("target", Json::Str("inc".into())),
            ("input", Json::Str("L[9]".into())),
        ]))
        .unwrap();
    assert_eq!(resp.get("in_domain"), Some(&Json::Bool(true)));
    assert_eq!(resp.get("outputs"), Some(&Json::Int(1)));

    // ping.
    let resp = client
        .call(&Json::obj([("op", Json::Str("ping".into()))]))
        .unwrap();
    assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));

    // stats: present and shaped, with the requests served so far in the
    // cumulative totals (the counter registry is process-global, so
    // other tests may add to it — we only assert a lower bound).
    let resp = client.stats().unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    assert!(
        resp.get("totals")
            .and_then(|t| t.get("requests"))
            .and_then(Json::as_int)
            >= Some(4)
    );
    assert!(resp.get("rates").is_some());
    assert!(resp.get("latency_ns").is_some());
    assert_eq!(
        resp.get("slo").and_then(|s| s.get("configured")),
        Some(&Json::Bool(false))
    );

    server.shutdown();
}

#[test]
fn unknown_target_is_404_and_connection_survives() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.run("nope", "L[0]").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.get("code"), Some(&Json::Int(404)));
    // Same connection still works.
    let resp = client.run("inc", "L[0]").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
}

#[test]
fn unparseable_input_is_400_and_connection_survives() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.run("inc", "N[1](L[2]").unwrap();
    assert_eq!(resp.get("code"), Some(&Json::Int(400)), "{resp}");
    let resp = client.run("inc", "L[1]").unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
}

#[test]
fn per_request_deadline_is_honored() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    // A large bushy input with *distinct* labels (so the memo cannot
    // collapse it) and a 0 ms deadline: the cooperative check trips
    // before the run finishes.
    fn bushy(depth: u32, next: &mut i64) -> String {
        let label = *next;
        *next += 1;
        if depth == 0 {
            format!("L[{label}]")
        } else {
            format!(
                "N[{label}]({}, {})",
                bushy(depth - 1, next),
                bushy(depth - 1, next)
            )
        }
    }
    let mut next = 0;
    let input = bushy(11, &mut next);
    let resp = client
        .call(&Json::obj([
            ("id", Json::Int(1)),
            ("op", Json::Str("run".into())),
            ("target", Json::Str("inc".into())),
            ("input", Json::Str(input)),
            ("timeout_ms", Json::Int(0)),
        ]))
        .unwrap();
    assert_eq!(resp.get("code"), Some(&Json::Int(408)), "{resp}");
    server.shutdown();
}

#[test]
fn input_depth_gate_rejects_deep_nesting() {
    let server = start_server(ServeConfig {
        max_input_depth: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let mut input = String::from("L[0]");
    for _ in 0..32 {
        input = format!("N[0]({input}, L[1])");
    }
    let resp = client.run("inc", &input).unwrap();
    assert_eq!(resp.get("code"), Some(&Json::Int(413)), "{resp}");
    server.shutdown();
}

/// The depth gate counts the tree's own parens, not parens inside
/// string labels: a depth-1 input whose label holds 2 000 `(` is served.
#[test]
fn input_depth_gate_ignores_parens_in_labels() {
    let server = start_server(ServeConfig {
        max_input_depth: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let input = format!(r#"SN["{}"](SL["a"], SL[")"])"#, "(".repeat(2_000));
    let resp = client.run("copy", &input).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
    assert_eq!(outs[0].as_str(), Some(input.as_str()));
    server.shutdown();
}

/// `s` as the body of a JSON string literal with every char written as
/// a `\uXXXX` escape (astral chars as surrogate pairs) and every `/`
/// as `\/`.
fn all_escaped(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if c == '/' {
            out.push_str("\\/");
            continue;
        }
        let mut units = [0u16; 2];
        for u in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{u:04X}"));
        }
    }
    out
}

/// An `input` spelled with JSON escapes — `\uXXXX` for every char,
/// surrogate pairs, `\/` — parses to the same tree as the plain text,
/// and a duplicated `input` key means its last value, as `Json::get`
/// reads it. Malformed escapes are a 400 that leaves the connection
/// open.
#[test]
fn escaped_input_parses_like_the_plain_text() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let plain = r#"SN["a/b😀\"q\\"](SL["x</y>"], SL["é\t"])"#;
    let want = client.run("copy", plain).unwrap();
    assert_eq!(want.get("ok"), Some(&Json::Bool(true)), "{want}");
    assert_eq!(
        want.get("outputs").and_then(Json::as_array).unwrap()[0].as_str(),
        Some(plain)
    );
    let frame = format!(
        r#"{{"id":1,"op":"run","target":"copy","input":"SL[\"decoy\"]","input":"{}"}}"#,
        all_escaped(plain)
    );
    assert!(frame.contains("\\uD83D\\uDE00") && frame.contains("\\/"));
    let got = client.call_raw(frame.as_bytes()).unwrap();
    assert_eq!(got.get("outputs"), want.get("outputs"), "{got}");

    for bad in [
        r#"\u12"#,
        r#"\uD800"#,
        r#"\uD800\u0041"#,
        r#"\uDC00"#,
        r#"\u+041"#,
        r#"\x"#,
    ] {
        // Inside a label, so only the JSON layer can reject it.
        let frame = format!(r#"{{"id":2,"op":"run","target":"copy","input":"SL[\"x{bad}\"]"}}"#);
        let resp = client.call_raw(frame.as_bytes()).unwrap();
        assert_eq!(resp.get("code"), Some(&Json::Int(400)), "{bad}: {resp}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.starts_with("bad JSON"), "{bad}: {msg}");
    }
    let again = client.run("copy", plain).unwrap();
    assert_eq!(again.get("outputs"), want.get("outputs"));
    server.shutdown();
}

#[test]
fn response_size_cap_fails_rather_than_truncates() {
    let server = start_server(ServeConfig {
        max_response_bytes: 32,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let mut input = String::from("L[0]");
    for _ in 0..4 {
        input = format!("N[0]({input}, {input})");
    }
    let resp = client.run("inc", &input).unwrap();
    assert_eq!(resp.get("code"), Some(&Json::Int(413)), "{resp}");
    server.shutdown();
}

#[test]
fn shutdown_kills_promptly_and_refuses_new_work() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.run("inc", "L[0]").unwrap().get("ok") == Some(&Json::Bool(true)));
    server.shutdown();
    // New connections are refused or immediately closed; either way no
    // successful run can be had.
    std::thread::sleep(Duration::from_millis(20));
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            let r = c.run("inc", "L[0]");
            assert!(
                match &r {
                    Err(_) => true,
                    Ok(resp) => resp.get("ok") == Some(&Json::Bool(false)),
                },
                "post-shutdown run unexpectedly succeeded: {r:?}"
            );
        }
    }
}
