//! Telemetry emission shared by the bench binaries.
//!
//! Every benchmark binary finishes by calling [`emit`], which captures
//! the process-wide [`fast_obs`] counters/histograms accumulated over the run
//! and publishes them twice:
//!
//! 1. as a single compact JSON line on stdout (machine-scrapable even
//!    when the table output above it changes), and
//! 2. as a pretty-printed `BENCH_<name>.json` file in the working
//!    directory — the convention consumed by EXPERIMENTS.md and the
//!    README's "Performance & telemetry" section.

use fast_json::Json;

/// Captures the current [`fast_obs::Snapshot`] and emits it under the
/// given benchmark name (see the module docs for the two sinks).
pub fn emit(bench: &str) {
    emit_with(bench, Vec::new());
}

/// [`emit`] with benchmark-specific fields (timings, derived ratios…)
/// spliced into the JSON object ahead of the telemetry snapshot.
///
/// Every emitted object leads with the common header CI validates on
/// all `BENCH_*.json` files: `schema_version`
/// ([`fast_obs::BENCH_SCHEMA_VERSION`]) and the benchmark `name`.
pub fn emit_with(bench: &str, extra: Vec<(&str, Json)>) {
    let mut fields = vec![
        ("schema_version", Json::Int(fast_obs::BENCH_SCHEMA_VERSION)),
        ("bench", Json::Str(bench.to_string())),
    ];
    fields.extend(extra);
    fields.push(("telemetry", fast_obs::snapshot().to_json()));
    let json = Json::obj(fields);
    let path = format!("BENCH_{bench}.json");
    match std::fs::write(&path, format!("{}\n", json.pretty())) {
        Ok(()) => println!("\ntelemetry snapshot written to {path}"),
        Err(e) => eprintln!("\ntelemetry: cannot write {path}: {e}"),
    }
    println!("{json}");
}
