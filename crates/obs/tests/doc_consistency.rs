//! Keeps the counter/gauge/duration documentation honest.
//!
//! The crate docs of `fast-obs` carry tables of every counter and gauge
//! the workspace emits, mirrored in [`fast_obs::DOCUMENTED_COUNTERS`],
//! [`fast_obs::DOCUMENTED_GAUGES`], and
//! [`fast_obs::DOCUMENTED_DURATIONS`]. This test greps the workspace
//! sources for every name passed to `count!` / `counter(` / `gauge(` /
//! `time!(` / `span!(` / `histogram(` / `observe!(` and fails if any
//! emitted name is missing from the constants, or if the doc tables in
//! `lib.rs` drift from `DOCUMENTED_COUNTERS` / `DOCUMENTED_GAUGES`.
//!
//! Names starting with `test.` / `tspan.` / `demo.` / `example.` are
//! reserved for tests and doc examples and are exempt.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Every `.rs` file under `crates/*/src`, recursively.
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut stack: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates dir")
        .filter_map(|e| Some(e.ok()?.path().join("src")))
        .filter(|p| p.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}

fn is_exempt(name: &str) -> bool {
    ["test.", "tspan.", "demo.", "example."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Extracts the string literal following every occurrence of `pat` on
/// non-comment lines of `src`.
fn extract(src: &str, pat: &str, into: &mut BTreeSet<String>) {
    for line in src.lines() {
        let t = line.trim_start();
        if t.starts_with("//") {
            continue;
        }
        let mut rest = t;
        while let Some(i) = rest.find(pat) {
            rest = &rest[i + pat.len()..];
            if let Some(end) = rest.find('"') {
                let name = &rest[..end];
                if !name.is_empty() && !is_exempt(name) {
                    into.insert(name.to_string());
                }
                rest = &rest[end..];
            }
        }
    }
}

/// All emitted (counter, gauge, duration) names plus raw sources for
/// the shard-prefix substring checks.
fn scan() -> (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>, String) {
    let root = workspace_root();
    let mut counters = BTreeSet::new();
    let mut gauges = BTreeSet::new();
    let mut durations = BTreeSet::new();
    let mut all_src = String::new();
    for file in source_files(&root) {
        let src = std::fs::read_to_string(&file).expect("readable source");
        for pat in ["count!(\"", "counter(\""] {
            extract(&src, pat, &mut counters);
        }
        extract(&src, "gauge(\"", &mut gauges);
        for pat in ["time!(\"", "span!(\"", "histogram(\"", "observe!(\""] {
            extract(&src, pat, &mut durations);
        }
        all_src.push_str(&src);
    }
    (counters, gauges, durations, all_src)
}

#[test]
fn every_emitted_counter_is_documented() {
    let (counters, _, _, _) = scan();
    let undocumented: Vec<&String> = counters
        .iter()
        .filter(|n| {
            !fast_obs::DOCUMENTED_COUNTERS.contains(&n.as_str())
                && !fast_obs::DOCUMENTED_COUNTER_PREFIXES
                    .iter()
                    .any(|p| n.starts_with(p))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "counters emitted but missing from fast_obs::DOCUMENTED_COUNTERS \
         (and the lib.rs doc table): {undocumented:?}"
    );
}

#[test]
fn every_documented_counter_is_emitted() {
    let (counters, _, _, all_src) = scan();
    let dead: Vec<&&str> = fast_obs::DOCUMENTED_COUNTERS
        .iter()
        .filter(|n| !counters.contains(**n))
        .collect();
    assert!(
        dead.is_empty(),
        "counters documented in fast_obs::DOCUMENTED_COUNTERS but never \
         emitted anywhere in crates/*/src: {dead:?}"
    );
    for prefix in fast_obs::DOCUMENTED_COUNTER_PREFIXES {
        assert!(
            all_src.contains(prefix),
            "documented counter prefix '{prefix}' does not appear in any source file"
        );
    }
}

#[test]
fn every_emitted_gauge_is_documented() {
    let (_, gauges, _, _) = scan();
    let undocumented: Vec<&String> = gauges
        .iter()
        .filter(|n| {
            !fast_obs::DOCUMENTED_GAUGES.contains(&n.as_str())
                && !fast_obs::DOCUMENTED_GAUGE_PREFIXES
                    .iter()
                    .any(|p| n.starts_with(p))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "gauges emitted but missing from fast_obs::DOCUMENTED_GAUGES \
         (and the lib.rs gauge table): {undocumented:?}"
    );
}

#[test]
fn every_documented_gauge_is_emitted() {
    let (_, gauges, _, all_src) = scan();
    let dead: Vec<&&str> = fast_obs::DOCUMENTED_GAUGES
        .iter()
        .filter(|n| !gauges.contains(**n))
        .collect();
    assert!(
        dead.is_empty(),
        "gauges documented in fast_obs::DOCUMENTED_GAUGES but never \
         emitted anywhere in crates/*/src: {dead:?}"
    );
    for prefix in fast_obs::DOCUMENTED_GAUGE_PREFIXES {
        assert!(
            all_src.contains(prefix),
            "documented gauge prefix '{prefix}' does not appear in any source file"
        );
    }
}

#[test]
fn every_emitted_duration_is_documented() {
    let (_, _, durations, _) = scan();
    let undocumented: Vec<&String> = durations
        .iter()
        .filter(|n| !fast_obs::DOCUMENTED_DURATIONS.contains(&n.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "durations emitted (time/span!/histogram/observe!) but missing from \
         fast_obs::DOCUMENTED_DURATIONS: {undocumented:?}"
    );
}

#[test]
fn every_documented_duration_is_emitted() {
    let (_, _, durations, _) = scan();
    let dead: Vec<&&str> = fast_obs::DOCUMENTED_DURATIONS
        .iter()
        .filter(|n| !durations.contains(**n))
        .collect();
    assert!(
        dead.is_empty(),
        "durations documented in fast_obs::DOCUMENTED_DURATIONS but never \
         emitted anywhere in crates/*/src: {dead:?}"
    );
}

/// The markdown tables in the `fast-obs` crate docs must list exactly
/// the names in `DOCUMENTED_COUNTERS` ∪ `DOCUMENTED_GAUGES` (shard
/// families appear as one `prefix00..` row, covered by the
/// `*_PREFIXES` constants).
#[test]
fn lib_rs_doc_table_matches_documented_counters() {
    let lib = workspace_root().join("crates/obs/src/lib.rs");
    let src = std::fs::read_to_string(lib).expect("obs lib.rs");
    let mut table = BTreeSet::new();
    for line in src.lines() {
        let t = line.trim_start();
        // Table rows look like: //! | `name` | incremented when … |
        let Some(rest) = t.strip_prefix("//! | `") else {
            continue;
        };
        if let Some(end) = rest.find('`') {
            table.insert(rest[..end].to_string());
        }
    }
    assert!(!table.is_empty(), "found no counter table rows in lib.rs");

    let prefixes: Vec<&str> = fast_obs::DOCUMENTED_COUNTER_PREFIXES
        .iter()
        .chain(fast_obs::DOCUMENTED_GAUGE_PREFIXES)
        .copied()
        .collect();
    let mut prefixes_seen = BTreeSet::new();
    for name in &table {
        if let Some(p) = prefixes.iter().find(|p| name.starts_with(**p)) {
            prefixes_seen.insert(*p);
        } else {
            assert!(
                fast_obs::DOCUMENTED_COUNTERS.contains(&name.as_str())
                    || fast_obs::DOCUMENTED_GAUGES.contains(&name.as_str()),
                "doc table row `{name}` is not in DOCUMENTED_COUNTERS or DOCUMENTED_GAUGES"
            );
        }
    }
    for name in fast_obs::DOCUMENTED_COUNTERS
        .iter()
        .chain(fast_obs::DOCUMENTED_GAUGES)
    {
        assert!(
            table.contains(*name),
            "documented metric `{name}` is missing from the lib.rs doc tables"
        );
    }
    for p in &prefixes {
        assert!(
            prefixes_seen.contains(p),
            "documented prefix `{p}` has no row in the lib.rs doc tables"
        );
    }
}
