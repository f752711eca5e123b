//! A served pipeline keeps one memo per segment for the server's
//! lifetime: repeating a `pipeline` request is answered from those
//! memos, with no memo miss in any segment.
//!
//! This is its own test binary because it reads the process-wide
//! `rt.memo_*` counters, which sibling tests would bump concurrently.

use fast_json::Json;
use fast_rt::ArtifactBuilder;
use fast_serve::{Client, ServeConfig};
use std::sync::Arc;

/// `amb` is not single-valued and `dup` is not linear, so the `amb,dup`
/// boundary cascades into two segments.
const SRC: &str = r#"
    type T[i: Int] { z(0), n(2) }
    trans dup: T -> T {
      z() to (z [i])
    | n(x, y) to (n [i] (dup x) (dup x))
    }
    trans amb: T -> T {
      z() to (z [i])
    | z() to (z [i + 1])
    | n(x, y) to (n [i] (amb x) (amb y))
    }
"#;

#[test]
fn repeated_pipeline_request_hits_every_segment_memo() {
    let c = fast_lang::compile(SRC).expect("fixture program compiles");
    let stage = |name: &str| Arc::new(c.transducer(name).unwrap().clone());
    let mut b = ArtifactBuilder::new();
    b.add_pipeline(
        "amb,dup",
        &["amb".to_string(), "dup".to_string()],
        &[stage("amb"), stage("dup")],
    );
    let artifact = b.build();
    assert_eq!(artifact.pipeline("amb,dup").unwrap().segment_count(), 2);
    let server = fast_serve::start(vec![artifact], "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");
    let mut client = Client::connect(server.addr()).unwrap();
    let mut request = |id: i64| {
        let resp = client
            .call(&Json::obj([
                ("id", Json::Int(id)),
                ("op", Json::Str("pipeline".into())),
                ("target", Json::Str("amb,dup".into())),
                ("input", Json::Str("n[1](z[2], z[3])".into())),
            ]))
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let outs = resp.get("outputs").and_then(Json::as_array).unwrap();
        let mut outs: Vec<&str> = outs.iter().map(|o| o.as_str().unwrap()).collect();
        outs.sort_unstable();
        assert_eq!(outs, ["n[1](z[2], z[2])", "n[1](z[3], z[3])"]);
    };
    request(1);
    let before = fast_obs::snapshot();
    request(2);
    let delta = fast_obs::snapshot().delta_from(&before);
    // Segment 0 hits once, at the input's root; segment 1 hits at the
    // root of each of the four trees `amb` produced.
    assert_eq!(delta.get("rt.memo_misses"), 0);
    assert_eq!(delta.get("rt.memo_hits"), 5);
    server.shutdown();
}
