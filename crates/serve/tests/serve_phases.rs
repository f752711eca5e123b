//! The per-phase request histograms: each `serve.phase.*` histogram
//! records once per admitted request that reaches its phase, never per
//! node. Histograms are process-global, so this file holds a single
//! test: its own test binary, with no other server running.

mod common;

use fast_json::Json;
use fast_serve::{Client, ServeConfig};

const PHASES: [&str; 5] = [
    "serve.phase.queue",
    "serve.phase.decode",
    "serve.phase.parse",
    "serve.phase.eval",
    "serve.phase.render",
];

fn counts() -> (u64, [u64; 5]) {
    let snap = fast_obs::snapshot();
    let hist = |name| snap.hists.get(name).map_or(0, |h| h.count);
    (snap.get("serve.requests"), PHASES.map(hist))
}

#[test]
fn every_phase_counts_each_served_request_once() {
    let server = fast_serve::start(
        vec![common::artifact()],
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).unwrap();
    let (requests0, phases0) = counts();
    // Inputs of 2^11 - 1 nodes: a per-node record would show at once.
    let n = 6;
    for i in 0..n {
        let resp = client
            .run("inc", &common::bushy_input(10, i * 10_000))
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    // `ping` and `stats` are answered inline: no request, no phase.
    client.stats().unwrap();
    let (requests, phases) = counts();
    assert_eq!(requests - requests0, n as u64);
    for (name, (after, before)) in PHASES.iter().zip(phases.iter().zip(phases0)) {
        assert_eq!(after - before, n as u64, "{name}");
    }
    server.shutdown();
}
