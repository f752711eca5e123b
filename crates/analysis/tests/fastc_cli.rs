//! End-to-end tests of the `fastc` binary against the sample programs in
//! `programs/`: the classic run mode (compile + evaluate + assertions) and
//! the `fastc check` analysis mode (FA001-FA101 diagnostics, JSON output,
//! and the documented exit-code contract).

use std::path::PathBuf;
use std::process::Command;

fn fastc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastc"))
}

fn programs_dir() -> PathBuf {
    // crates/analysis -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("programs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

// ---------------------------------------------------------------- run mode

#[test]
fn all_good_programs_pass() {
    for entry in std::fs::read_dir(programs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fast") {
            continue;
        }
        if path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("buggy")
        {
            continue;
        }
        let out = fastc().arg(&path).output().unwrap();
        assert!(
            out.status.success(),
            "{} failed:\n{}{}",
            path.display(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0 failed"), "{stdout}");
    }
}

#[test]
fn buggy_sanitizer_fails_with_counterexample() {
    let path = programs_dir().join("sanitizer_buggy.fast");
    let out = fastc().arg(&path).output().unwrap();
    assert!(!out.status.success(), "the buggy program must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("counterexample"), "{stdout}");
    assert!(stdout.contains("script"), "{stdout}");
}

#[test]
fn quiet_mode_only_prints_failures() {
    let ok = programs_dir().join("example2.fast");
    let out = fastc().arg(&ok).arg("--quiet").output().unwrap();
    assert!(out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn stats_flag_reports_sizes() {
    let path = programs_dir().join("deforestation.fast");
    let out = fastc().arg(&path).arg("--stats").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trans map_caesar:"), "{stdout}");
    assert!(stdout.contains("lang  not_emp_list:"), "{stdout}");
    assert!(stdout.contains("tree  input:"), "{stdout}");
}

#[test]
fn missing_file_and_bad_args() {
    let out = fastc().arg("/nonexistent/x.fast").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = fastc().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = fastc().arg("--help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn syntax_error_reports_position() {
    let path = write_temp("broken.fast", "type T { }");
    let out = fastc().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error at 1:"), "{stderr}");
}

/// `--stats` must end stdout with one machine-readable JSON object
/// carrying the documented counter/histogram keys, with every map
/// deterministically sorted by name.
#[test]
fn stats_json_is_parseable_and_sorted() {
    let path = programs_dir().join("sanitizer.fast");
    let out = fastc().arg(&path).arg("--stats").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_text = stats_json(&stdout);
    let json = fast_json::Json::parse(json_text).expect("valid snapshot JSON");

    let counters = json.get("counters").expect("counters key");
    assert!(
        counters
            .get("smt.sat_queries")
            .and_then(fast_json::Json::as_int)
            .unwrap()
            > 0
    );
    assert!(
        counters
            .get("compose.pair_states")
            .and_then(fast_json::Json::as_int)
            .unwrap()
            > 0
    );
    // The sanitizer run exercises the solver, so its latency histogram
    // must be populated with the documented percentile fields.
    let smt_check = json.get("hists").and_then(|h| h.get("smt.check")).unwrap();
    assert!(
        smt_check
            .get("count")
            .and_then(fast_json::Json::as_int)
            .unwrap()
            > 0
    );
    for key in [
        "p50_ns", "p90_ns", "p99_ns", "max_ns", "mean_ns", "total_ns",
    ] {
        assert!(smt_check.get(key).is_some(), "missing hists key {key}");
    }
    // Deterministic output: object keys arrive sorted.
    for section in ["counters", "hists"] {
        let fast_json::Json::Object(entries) = json.get(section).unwrap() else {
            panic!("{section} is not an object");
        };
        let keys: Vec<&String> = entries.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{section} keys are not sorted");
    }
}

/// The telemetry snapshot is the pretty-printed JSON object that closes
/// stdout; it starts at the last line that is exactly `{`.
fn stats_json(stdout: &str) -> &str {
    let start = stdout
        .lines()
        .rev()
        .find(|l| *l == "{")
        .map(|l| l.as_ptr() as usize - stdout.as_ptr() as usize)
        .expect("a JSON object on stdout");
    &stdout[start..]
}

// -------------------------------------------------------------- check mode

/// `fastc check --deny-warnings` over every shipped program: the
/// "buggy"-named fixtures must be flagged, everything else must be clean.
#[test]
fn check_all_shipped_programs() {
    for entry in std::fs::read_dir(programs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fast") {
            continue;
        }
        let buggy = path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("buggy");
        let out = fastc()
            .arg("check")
            .arg(&path)
            .arg("--deny-warnings")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if buggy {
            assert!(
                !out.status.success(),
                "{} should be flagged by `fastc check`:\n{stderr}",
                path.display()
            );
        } else {
            assert!(
                out.status.success(),
                "{} should be clean under `fastc check --deny-warnings`:\n{stderr}",
                path.display()
            );
            assert!(stderr.contains("0 error(s), 0 warning(s)"), "{stderr}");
        }
    }
}

#[test]
fn check_buggy_sanitizer_reports_fa100_with_counterexample() {
    let path = programs_dir().join("sanitizer_buggy.fast");
    let out = fastc().arg("check").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "FA100 is an error diagnostic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FA100"), "{stderr}");
    assert!(stderr.contains("counterexample input:"), "{stderr}");
    assert!(stderr.contains("script"), "{stderr}");
}

#[test]
fn check_json_output_is_machine_readable() {
    let path = programs_dir().join("sanitizer_buggy.fast");
    let out = fastc()
        .arg("check")
        .arg(&path)
        .arg("--json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = fast_json::Json::parse(&stdout).expect("valid JSON on stdout");
    assert!(
        json.get("errors")
            .and_then(fast_json::Json::as_int)
            .unwrap()
            >= 1
    );
    let diags = json
        .get("diagnostics")
        .and_then(fast_json::Json::as_array)
        .unwrap();
    let fa100 = diags
        .iter()
        .find(|d| d.get("code").and_then(fast_json::Json::as_str) == Some("FA100"))
        .expect("an FA100 diagnostic in the JSON output");
    assert_eq!(
        fa100.get("severity").and_then(fast_json::Json::as_str),
        Some("error")
    );
    assert!(fa100.get("line").and_then(fast_json::Json::as_int).unwrap() >= 1);
    assert!(fa100.get("col").and_then(fast_json::Json::as_int).unwrap() >= 1);
}

#[test]
fn check_deny_warnings_controls_exit_code() {
    // A program whose only defect is a warning: two overlapping guards on
    // the same (state, constructor) pair (FA002).
    let src = "type T[x: Int] { a(2), n(0) }\n\
               trans overlap: T -> T {\n\
                 a(l, r) where (x > 0) to (n [1])\n\
               | a(l, r) where (x > 5) to (n [2])\n\
               }\n";
    let path = write_temp("warn_only.fast", src);
    let out = fastc().arg("check").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "warnings alone exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FA002"), "{stderr}");

    let out = fastc()
        .arg("check")
        .arg(&path)
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "--deny-warnings promotes warnings to a failing exit"
    );
}

#[test]
fn check_syntax_error_exits_2() {
    let path = write_temp("broken_check.fast", "type T { }");
    let out = fastc().arg("check").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error at 1:"), "{stderr}");
}

#[test]
fn check_missing_file_and_bad_args() {
    let out = fastc()
        .arg("check")
        .arg("/nonexistent/x.fast")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = fastc().arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = fastc().arg("check").arg("--help").output().unwrap();
    assert!(out.status.success());
}

// ------------------------------------------------------------ profile mode

/// End-to-end `fastc profile`: phase tree and hot-rule table on stdout,
/// and a well-formed Chrome trace on disk with spans from the smt,
/// compose, and rt subsystems.
#[test]
fn profile_sanitizer_emits_phase_tree_hot_rules_and_chrome_trace() {
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("profile_trace.json");
    let jsonl = dir.join("profile_trace.jsonl");
    let out = fastc()
        .arg("profile")
        .arg(programs_dir().join("sanitizer.fast"))
        .args(["--trees", "50", "--seed", "7", "--top", "5"])
        .arg("--trace")
        .arg(&trace)
        .arg("--jsonl")
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "profile failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase times"), "{stdout}");
    assert!(stdout.contains("hot rules"), "{stdout}");
    assert!(stdout.contains("rt.run_batch"), "{stdout}");
    assert!(stdout.contains("profile.compile"), "{stdout}");
    // The exemplar store surfaces the slowest items of the run.
    assert!(stdout.contains("slow items"), "{stdout}");
    assert!(stdout.contains("tree id"), "{stdout}");

    // The Chrome trace round-trips through fast-json and carries spans
    // from each pipeline stage, nested via depth.
    let text = std::fs::read_to_string(&trace).unwrap();
    let json = fast_json::Json::parse(&text).expect("valid Chrome trace JSON");
    let events = json
        .get("traceEvents")
        .and_then(fast_json::Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(fast_json::Json::as_str))
        .collect();
    for expected in ["smt.solve", "compose.total", "rt.run_batch", "rt.item"] {
        assert!(names.contains(&expected), "no '{expected}' span in trace");
    }
    assert!(events.iter().any(|e| {
        e.get("args")
            .and_then(|a| a.get("depth"))
            .and_then(fast_json::Json::as_int)
            .is_some_and(|d| d > 0)
    }));

    // The JSONL export has one JSON object per line.
    let lines = std::fs::read_to_string(&jsonl).unwrap();
    assert!(!lines.trim().is_empty());
    for line in lines.lines() {
        fast_json::Json::parse(line).expect("each jsonl line parses");
    }
}

#[test]
fn profile_rejects_unknown_transducer_and_bad_args() {
    let path = programs_dir().join("sanitizer.fast");
    let out = fastc()
        .arg("profile")
        .arg(&path)
        .args(["--trans", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no transducer 'nope'"), "{stderr}");

    let out = fastc()
        .arg("profile")
        .arg(&path)
        .args(["--trees", "many"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = fastc().arg("profile").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

// ------------------------------------------------- check --pipeline mode

fn check_pipeline(path: &std::path::Path, args: &[&str]) -> (Option<i32>, String) {
    let out = fastc()
        .arg("check")
        .arg(path)
        .arg("--pipeline")
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const SANITIZER_CONTRACT: [&str; 5] = [
    "remScript,esc",
    "--input",
    "nodeTree",
    "--output",
    "goodOutput",
];

#[test]
fn check_pipeline_fixed_sanitizer_is_satisfied() {
    let path = programs_dir().join("sanitizer_pipeline.fast");
    let (code, stderr) = check_pipeline(&path, &SANITIZER_CONTRACT);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("contract nodeTree -> goodOutput: satisfied (FA101)"),
        "{stderr}"
    );
}

#[test]
fn check_pipeline_buggy_sanitizer_replays_the_counterexample() {
    let path = programs_dir().join("sanitizer_pipeline_buggy.fast");
    let (code, stderr) = check_pipeline(&path, &SANITIZER_CONTRACT);
    assert_eq!(code, Some(2), "a violated contract exits 2:\n{stderr}");
    assert!(stderr.contains("VIOLATED (FA101)"), "{stderr}");
    assert!(stderr.contains("counterexample input:"), "{stderr}");
    let marked = stderr
        .lines()
        .find(|l| l.contains("offending stage"))
        .unwrap_or_else(|| panic!("no offending-stage marker:\n{stderr}"));
    assert!(marked.contains("after stage 1 ('remScript')"), "{marked}");
    assert!(!stderr.contains("satisfied"), "{stderr}");
}

/// The guard `i * i = 2147395600` holds at `i = 46340`, so the contract
/// is violated, but the solver finds no model of it. FA100 and
/// `--pipeline` must give the same verdict — not verified — and neither
/// may call the contract satisfied or report an unreplayed error.
#[test]
fn check_never_calls_an_unproved_contract_satisfied() {
    let path = write_temp(
        "unproved_contract.fast",
        r#"
        type T[i: Int] { z(0), s(1) }
        lang anyT: T { z() | s(x) given (anyT x) }
        lang zero: T { z() where (i = 0) }
        trans f: anyT -> zero { z() where (i * i = 2147395600) to (z [1]) }
        "#,
    );
    let (code, stderr) = check_pipeline(&path, &["f"]);
    assert_eq!(code, Some(0), "an unproved contract is no error:\n{stderr}");
    assert!(!stderr.contains("satisfied"), "{stderr}");
    assert!(!stderr.contains("error[FA100]"), "{stderr}");
    assert!(
        stderr.contains("warning[FA100]") && stderr.contains("could not be verified"),
        "{stderr}"
    );
    assert!(
        stderr.contains("contract anyT -> zero: not verified"),
        "{stderr}"
    );
}

#[test]
fn check_pipeline_rejects_a_language_over_another_type() {
    let path = write_temp(
        "two_types.fast",
        r#"
        type T[i: Int] { z(0), s(1) }
        type U[j: Int] { a(0), b(1) }
        lang anyT: T { z() | s(x) given (anyT x) }
        lang anyU: U { a() | b(x) given (anyU x) }
        trans f: T -> T { z() to (z [i]) | s(x) to (s [i] (f x)) }
        "#,
    );
    for args in [
        &["f", "--output", "anyU"][..],
        &["f", "--input", "anyU", "--output", "anyT"][..],
    ] {
        let (code, stderr) = check_pipeline(&path, args);
        assert_eq!(code, Some(2), "{args:?} is a usage error:\n{stderr}");
        assert!(
            stderr.contains("language 'anyU' is over tree type 'U'")
                && stderr.contains("stages are over 'T'"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

// ---------------------------------------------------------- pipeline mode

#[test]
fn pipeline_mode_fuses_deforestation_chain() {
    let path = programs_dir().join("deforestation.fast");
    let out = fastc()
        .arg(&path)
        .args([
            "--pipeline",
            "map_caesar,filter_ev,map_caesar",
            "--trees",
            "40",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 stages -> 1 segment"), "{stdout}");
    assert!(stdout.contains("fused"), "{stdout}");
    assert!(stdout.contains("left factor is single-valued"), "{stdout}");
    assert!(stdout.contains("40 ok / 0 err"), "{stdout}");
    assert!(stdout.contains("segment 0"), "{stdout}");
}

#[test]
fn pipeline_mode_cascades_unfusable_boundary() {
    // `amb` is not single-valued, `dup` is not linear: the boundary
    // must cascade into two segments and still evaluate cleanly.
    let path = write_temp(
        "pipeline_cascade.fast",
        r#"
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
        "#,
    );
    let out = fastc()
        .arg(&path)
        .args(["--pipeline", "amb,dup", "--trees", "20"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 stages -> 2 segments"), "{stdout}");
    assert!(stdout.contains("cascaded"), "{stdout}");
    assert!(stdout.contains("not single-valued"), "{stdout}");
    assert!(stdout.contains("segment 1"), "{stdout}");
}

// ------------------------------------------------- build / artifact mode

/// `fastc build` is byte-reproducible: building any shipped program twice
/// yields identical `.fastc` files, each opening with the documented
/// magic and version. This is the CLI face of the determinism guarantee
/// CI gates on (`cmp` of two builds per program).
#[test]
fn build_is_deterministic_for_every_program() {
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(programs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fast") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let out1 = dir.join(format!("{stem}.det1.fastc"));
        let out2 = dir.join(format!("{stem}.det2.fastc"));
        for out_path in [&out1, &out2] {
            let out = fastc()
                .arg("build")
                .arg(&path)
                .arg("-o")
                .arg(out_path)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "build {} failed:\n{}{}",
                path.display(),
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let b1 = std::fs::read(&out1).unwrap();
        let b2 = std::fs::read(&out2).unwrap();
        assert_eq!(b1, b2, "{} built non-deterministically", path.display());
        assert_eq!(&b1[..4], b"FSTC", "bad magic for {}", path.display());
        assert_eq!(
            u32::from_le_bytes(b1[4..8].try_into().unwrap()),
            fast_rt::VERSION,
            "unexpected format version for {}",
            path.display()
        );
    }
}

/// The differential gate: a pipeline run from a prebuilt artifact prints
/// byte-for-byte the same report as the source-compiled run (fusion
/// decisions included), and per-transducer batch runs agree on the full
/// printed output multisets.
#[test]
fn artifact_runs_match_source_runs() {
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let src = programs_dir().join("sanitizer_pipeline.fast");
    let art = dir.join("san_pipe.diff.fastc");
    let out = fastc()
        .arg("build")
        .arg(&src)
        .arg("-o")
        .arg(&art)
        .args(["--pipeline", "remScript,esc"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Pipeline: artifact vs source (quiet: memo stats are scheduling-
    // dependent and the interner line depends on process history).
    let from_art = fastc()
        .arg("--artifact")
        .arg(&art)
        .args(["--pipeline", "remScript,esc", "--trees", "60", "-q"])
        .output()
        .unwrap();
    let from_src = fastc()
        .arg(&src)
        .args(["--pipeline", "remScript,esc", "--trees", "60", "-q"])
        .output()
        .unwrap();
    assert!(from_art.status.success() && from_src.status.success());
    assert_eq!(
        String::from_utf8_lossy(&from_art.stdout),
        String::from_utf8_lossy(&from_src.stdout),
        "artifact pipeline run diverges from source run"
    );
    let stdout = String::from_utf8_lossy(&from_art.stdout);
    assert!(stdout.contains("ran 60 trees"), "{stdout}");

    // Transducers: full per-input output multisets must agree.
    let from_art = fastc()
        .arg("--artifact")
        .arg(&art)
        .args(["--all-trans", "--print-outputs", "--trees", "40"])
        .output()
        .unwrap();
    let from_src = fastc()
        .arg(&src)
        .args(["--all-trans", "--print-outputs", "--trees", "40"])
        .output()
        .unwrap();
    assert!(from_art.status.success() && from_src.status.success());
    assert_eq!(
        String::from_utf8_lossy(&from_art.stdout),
        String::from_utf8_lossy(&from_src.stdout),
        "artifact transducer runs diverge from source runs"
    );
    let stdout = String::from_utf8_lossy(&from_art.stdout);
    assert!(stdout.contains("trans remScript:"), "{stdout}");
    assert!(stdout.contains("trans esc:"), "{stdout}");
}

#[test]
fn artifact_mode_error_contract() {
    // Missing artifact file: I/O problem, exit 2.
    let out = fastc()
        .arg("--artifact")
        .arg("/nonexistent/x.fastc")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load artifact"), "{stderr}");

    // Corrupt artifact: typed decode failure, exit 1.
    let bad = write_temp("garbage.fastc", "this is not an artifact");
    let out = fastc().arg("--artifact").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load artifact"), "{stderr}");

    // Source path and --artifact together: usage error.
    let out = fastc()
        .arg(programs_dir().join("example2.fast"))
        .arg("--artifact")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Unknown pipeline / transducer names inside a valid artifact.
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let art = dir.join("errs.fastc");
    let out = fastc()
        .arg("build")
        .arg(programs_dir().join("sanitizer_pipeline.fast"))
        .arg("-o")
        .arg(&art)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = fastc()
        .arg("--artifact")
        .arg(&art)
        .args(["--pipeline", "remScript,esc"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "pipeline was not stored");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no pipeline 'remScript,esc'"), "{stderr}");
    let out = fastc()
        .arg("--artifact")
        .arg(&art)
        .args(["--trans", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no transducer 'nope'"), "{stderr}");
}

#[test]
fn build_mode_arguments_and_defaults() {
    // No input file.
    let out = fastc().arg("build").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Unknown pipeline stage.
    let out = fastc()
        .arg("build")
        .arg(programs_dir().join("sanitizer_pipeline.fast"))
        .arg("-o")
        .arg(std::env::temp_dir().join("fastc_test/unused.fastc"))
        .args(["--pipeline", "remScript,nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no transformation 'nope'"), "{stderr}");

    // Default output path: next to the source, extension swapped.
    let src = programs_dir().join("example2.fast");
    let copy = write_temp("default_out.fast", &std::fs::read_to_string(src).unwrap());
    let out = fastc().arg("build").arg(&copy).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = copy.with_extension("fastc");
    assert!(produced.exists(), "default .fastc not written");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote "), "{stdout}");
    assert!(stdout.contains("transducers"), "{stdout}");
}

/// A program over a 1000-constructor type with `n` one-rule
/// transformations. Each plan holds a dispatch cell per (state,
/// constructor) pair, 1000 cells, while its source costs the artifact a
/// few dozen bytes.
fn wide_program(n: usize) -> String {
    let ctors: Vec<String> = (0..1000).map(|i| format!("c{i}(0)")).collect();
    let mut src = format!("type Wide[i: Int] {{ {} }}\n", ctors.join(", "));
    for k in 0..n {
        src.push_str(&format!(
            "trans t{k}: Wide -> Wide {{ c0() to (c0 [i]) }}\n"
        ));
    }
    src
}

/// `fastc build` refuses what `Artifact::decode` would refuse as "plan
/// tables too large for the buffer": it names the transducer, writes no
/// file and exits non-zero. A handful of the same transformations
/// builds and loads.
#[test]
fn build_refuses_plans_the_loader_would_refuse() {
    let dir = std::env::temp_dir().join("fastc_test");
    std::fs::create_dir_all(&dir).unwrap();

    let small = write_temp("wide_small.fast", &wide_program(4));
    let small_out = dir.join("wide_small.fastc");
    let out = fastc()
        .arg("build")
        .arg(&small)
        .arg("-o")
        .arg(&small_out)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&small_out).unwrap();
    assert!(fast_rt::Artifact::decode(&bytes).is_ok());

    let wide = write_temp("wide_many.fast", &wide_program(100));
    let wide_out = dir.join("wide_many.fastc");
    let _ = std::fs::remove_file(&wide_out);
    let out = fastc()
        .arg("build")
        .arg(&wide)
        .arg("-o")
        .arg(&wide_out)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("transducer 't"), "{stderr}");
    assert!(stderr.contains("too wide to load"), "{stderr}");
    assert!(!wide_out.exists(), "a refused artifact was written");
}

#[test]
fn pipeline_mode_rejects_unknown_stage_and_empty_list() {
    let path = programs_dir().join("deforestation.fast");
    let out = fastc()
        .arg(&path)
        .args(["--pipeline", "map_caesar,nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no transformation 'nope'"), "{stderr}");

    let out = fastc()
        .arg(&path)
        .args(["--pipeline", ","])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

// -------------------------------------------------------------- serve mode

/// `fastc serve --slo` rejects a spec it cannot enforce before it loads
/// an artifact or binds a port: malformed JSON and a typoed rule both
/// exit 2. `watch` is not a mode, so `fastc watch <prog>` is a usage
/// error too.
#[test]
fn serve_rejects_bad_slo_before_binding() {
    let missing = std::env::temp_dir().join("fastc_test").join("x.fastc");
    let bad_json = write_temp("slo_bad.json", "{not json");
    let typo = write_temp("slo_typo.json", r#"{"p99_latency_sm": 5}"#);
    for (spec, expected) in [(&bad_json, "bad SLO spec"), (&typo, "unknown SLO rule")] {
        let out = fastc()
            .arg("serve")
            .arg(&missing)
            .args(["--slo", spec.to_str().unwrap()])
            .args(["--addr", "127.0.0.1:0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
        assert!(!stderr.contains("cannot load artifact"), "{stderr}");
    }

    let path = programs_dir().join("sanitizer.fast");
    let out = fastc().arg("watch").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
