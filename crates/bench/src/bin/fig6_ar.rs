//! Fig. 6 — augmented reality: running times for operations on
//! transducers. Generates N random taggers (default 100, as in §5.2),
//! runs the four-step conflict check on every pair, and prints the
//! composition / input-restriction / output-restriction time histograms
//! plus the conflict count, and writes them to `BENCH_fig6.json`.
//!
//! Usage: `fig6_ar [--taggers N] [--seed S] [--max-states M]`
//!
//! Each tagger draws 1..=M control states plus a copy state (default
//! [`MAX_CONTROL_STATES`], 31); `--max-states 94` gives 2–95 states, the
//! paper's sizes (its taggers have 1–95).

use fast_bench::taggers::{
    conflict_check, double_tag_lang, generate_taggers_sized, no_tags_lang, world_alg, world_type,
    MAX_CONTROL_STATES,
};
use fast_bench::telemetry;
use fast_bench::timing::Histogram;
use fast_json::Json;

fn main() {
    let mut n = 100usize;
    let mut seed = 2014u64;
    let mut max_states = MAX_CONTROL_STATES;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--taggers" => {
                n = args[i + 1].parse().expect("--taggers N");
                i += 2;
            }
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--max-states" => {
                max_states = args[i + 1].parse().expect("--max-states M");
                assert!(max_states >= 1, "--max-states must be at least 1");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let ty = world_type();
    let alg = world_alg(&ty);
    let no_tags = no_tags_lang(&ty, &alg);
    let double = double_tag_lang(&ty, &alg);
    println!(
        "Fig. 6 reproduction: {n} taggers, {} pairwise checks (seed {seed})",
        n * (n - 1) / 2
    );
    println!(
        "input-restriction language: {} states; output language: {} states",
        no_tags.state_count(),
        double.state_count()
    );
    let taggers = generate_taggers_sized(&ty, &alg, n, max_states, seed);
    let sizes: Vec<usize> = taggers.iter().map(|t| t.state_count()).collect();
    println!(
        "tagger sizes: {} to {} states",
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap()
    );

    let mut h_compose = Histogram::new();
    let mut h_input = Histogram::new();
    let mut h_output = Histogram::new();
    let mut h_check = Histogram::new();
    let mut conflicts = 0u64;
    let mut errors = 0u64;
    let total = n * (n - 1) / 2;
    let mut done = 0usize;
    for i in 0..taggers.len() {
        for j in (i + 1)..taggers.len() {
            match conflict_check(&taggers[i], &taggers[j], &no_tags, &double) {
                Ok(r) => {
                    h_compose.record(r.compose);
                    h_input.record(r.input_restrict);
                    h_output.record(r.output_restrict);
                    h_check.record(r.check);
                    if r.conflict {
                        conflicts += 1;
                    }
                }
                Err(_) => errors += 1,
            }
            done += 1;
            if done.is_multiple_of(500) {
                eprintln!("  …{done}/{total}");
            }
        }
    }

    println!("\n== Composition ==\n{h_compose}");
    println!("== Input restriction ==\n{h_input}");
    println!("== Output restriction ==\n{h_output}");
    println!("== Emptiness check ==\n{h_check}");
    println!(
        "analyzed {} pairs: {conflicts} actual conflicts, {errors} budget errors",
        total
    );
    let per_pair = h_compose.mean() + h_input.mean() + h_output.mean() + h_check.mean();
    let ms = |d: std::time::Duration| Json::Float(d.as_secs_f64() * 1e3);
    println!(
        "average per pairwise conflict check: {:.3} ms (paper: ~193 ms on 2014 hardware)",
        per_pair.as_secs_f64() * 1e3
    );
    telemetry::emit_with(
        "fig6",
        vec![
            ("taggers", Json::Int(n as i64)),
            ("seed", Json::Int(seed as i64)),
            ("max_states", Json::Int(max_states as i64)),
            ("pairs", Json::Int(total as i64)),
            ("conflicts", Json::Int(conflicts as i64)),
            ("budget_errors", Json::Int(errors as i64)),
            ("compose_mean_ms", ms(h_compose.mean())),
            ("input_restrict_mean_ms", ms(h_input.mean())),
            ("output_restrict_mean_ms", ms(h_output.mean())),
            ("check_mean_ms", ms(h_check.mean())),
            ("check_max_ms", ms(h_check.max())),
            ("per_pair_mean_ms", ms(per_pair)),
        ],
    );
}
