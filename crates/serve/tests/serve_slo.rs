//! SLO evaluation in a running server, against the committed specs in
//! `ci/`. A test binary of its own: the counters and gauges the specs
//! read are process-global, so the servers of other tests must not
//! share the process.

mod common;

use fast_json::Json;
use fast_obs::slo::SloSpec;
use fast_serve::{Client, ServeConfig, ServerHandle};
use std::time::{Duration, Instant};

const INTERVAL: Duration = Duration::from_millis(20);

fn committed_spec(name: &str) -> SloSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../ci")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("committed SLO spec");
    SloSpec::parse(&text).expect("committed SLO spec parses")
}

fn start_with(spec: SloSpec) -> ServerHandle {
    let cfg = ServeConfig {
        engine_interval: INTERVAL,
        slo: Some(spec),
        ..ServeConfig::default()
    };
    fast_serve::start(vec![common::artifact()], "127.0.0.1:0", cfg).expect("server starts")
}

fn int(j: &Json, path: &[&str]) -> i64 {
    let mut v = j;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("no {path:?} in {j}"));
    }
    v.as_int()
        .unwrap_or_else(|| panic!("{path:?} is not an integer in {j}"))
}

/// Sends one well-formed request per engine interval and returns the
/// first `stats` reply that satisfies `done`; panics after 10 s.
fn traffic_until(client: &mut Client, done: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    for salt in 0.. {
        let resp = client
            .run("inc", &common::bushy_input(4, salt * 100))
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        std::thread::sleep(INTERVAL);
        let stats = client.stats().unwrap();
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "condition never held: {stats}");
    }
    unreachable!()
}

#[test]
fn failing_spec_reports_a_violation() {
    let server = start_with(committed_spec("slo_failing.json"));
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = traffic_until(&mut client, |s| {
        s.get("slo").and_then(|slo| slo.get("violating")) == Some(&Json::Bool(true))
    });
    let slo = stats.get("slo").unwrap();
    assert_eq!(slo.get("configured"), Some(&Json::Bool(true)));
    let violations = slo.get("violations").and_then(Json::as_array).unwrap();
    assert_eq!(
        violations[0].get("rule").and_then(Json::as_str),
        Some("max_intern_resident_bytes"),
        "{stats}"
    );
    assert!(int(&stats, &["slo", "violated_checks"]) >= 1, "{stats}");
    // Each check judges one closed window, and the view never holds a
    // window that has not been judged.
    assert!(int(&stats, &["slo", "checks"]) >= int(&stats, &["windows"]));
    assert!(fast_obs::snapshot().get("serve.slo_violations") > 0);
    server.shutdown();
}

#[test]
fn sanitizer_spec_holds_over_eight_windows() {
    let server = start_with(committed_spec("slo_sanitizer.json"));
    let mut client = Client::connect(server.addr()).unwrap();
    // Run past a full ring, so the view spans every window it keeps.
    let ring = ServeConfig::default().stats_windows as i64;
    assert!(ring >= 8);
    let stats = traffic_until(&mut client, |s| int(s, &["slo", "checks"]) > ring);
    let slo = stats.get("slo").unwrap();
    assert_eq!(slo.get("configured"), Some(&Json::Bool(true)));
    assert_eq!(slo.get("violating"), Some(&Json::Bool(false)), "{stats}");
    assert_eq!(slo.get("violations"), Some(&Json::Array(vec![])));
    assert_eq!(int(&stats, &["slo", "violated_checks"]), 0, "{stats}");
    assert_eq!(int(&stats, &["windows"]), ring, "{stats}");
    assert!(int(&stats, &["latency_ns", "item_p99"]) > 0, "{stats}");
    assert!(int(&stats, &["gauges", "intern_resident_bytes"]) > 0);
    let exemplars = stats.get("exemplars").and_then(Json::as_array).unwrap();
    assert!(!exemplars.is_empty(), "{stats}");
    server.shutdown();
}
