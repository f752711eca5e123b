//! Every workload at a tiny size: nothing fails, and every metric that
//! `BENCHMARK.json` names is emitted under a valid name, and the file
//! stays within 2–8 workloads, 16 end-to-end and 128 per-layer metrics.

use fast_benchmark::{end_to_end, per_layer, run_segment, Size, Workload};
use fast_json::Json;
use std::path::Path;
use std::time::Instant;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names<'a>(manifest: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("a name");
            (name, m.get("unit").and_then(Json::as_str).unwrap_or(""))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_runs_clean_and_emits_every_named_metric() {
    let manifest = manifest();
    let workloads = names(&manifest, "workloads");
    let e2e_names = names(&manifest, "end_to_end");
    let layer_names = names(&manifest, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e_names.len()));
    assert!((1..=128).contains(&layer_names.len()));
    assert!(e2e_names.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    let listed: Vec<&str> = workloads.iter().map(|w| w.0).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        listed, ours,
        "BENCHMARK.json lists the benchmark's workloads"
    );

    let trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        let untraced = run_segment(w, 7, 0, Size::Tiny, Instant::now(), None);
        let traced = run_segment(w, 7, 0, Size::Tiny, Instant::now(), Some(trace_dir));
        for s in [&untraced, &traced] {
            assert!(s.attempted > 0, "{}: no ops", w.name());
            assert_eq!(s.failed, 0, "{}: {:?}", w.name(), s.errors);
        }
        let trace_file = trace_dir.join(format!("trace_{}.json", w.name()));
        assert!(Json::parse(&std::fs::read_to_string(trace_file).unwrap()).is_ok());

        let untraced = [untraced];
        for (wanted, got) in [
            (&e2e_names, end_to_end(&untraced)),
            (&layer_names, per_layer(&untraced, &[traced])),
        ] {
            for m in &got {
                assert!(valid_name(&m.name), "bad metric name {}", m.name);
                assert!(
                    m.value.is_finite(),
                    "{}: {} is not finite",
                    w.name(),
                    m.name
                );
            }
            let emitted: Vec<(&str, &str)> =
                got.iter().map(|m| (m.name.as_str(), m.unit)).collect();
            assert_eq!(
                &emitted,
                wanted,
                "{}: metrics differ from BENCHMARK.json",
                w.name()
            );
        }
        let e2e = end_to_end(&untraced);
        assert!(e2e.iter().all(|m| m.value > 0.0), "{}: {e2e:?}", w.name());
    }
}
