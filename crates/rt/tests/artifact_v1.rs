//! Stored `.fastc` artifacts stay loadable, and the current format
//! keeps its bytes.
//!
//! Both fixtures were written by `fastc build
//! programs/sanitizer_pipeline.fast --pipeline remScript,esc`:
//! `data/sanitizer_pipeline.v1.fastc` by a version-1 build, whose
//! transducer bodies still carry the dispatch tables version 2 dropped,
//! and `data/sanitizer_pipeline.v2.fastc` by a version-2 build whose
//! pipeline record stored a fusion-cache hit count where the reserved
//! word now is. Decoding either must give the same transducers,
//! pipeline report and outputs as compiling the program from source,
//! and re-encoding must give the current version, byte-identical to a
//! fresh build. A fresh build must also encode to exactly the version-2
//! fixture. `artifact_hostile.rs` sweeps both fixtures' truncations.

use fast_rt::{Artifact, ArtifactBuilder, VERSION};
use fast_trees::TreeGen;
use std::sync::Arc;

const V1: &[u8] = include_bytes!("data/sanitizer_pipeline.v1.fastc");
const V2: &[u8] = include_bytes!("data/sanitizer_pipeline.v2.fastc");
const SOURCE: &str = include_str!("../../../programs/sanitizer_pipeline.fast");
const STAGES: [&str; 2] = ["remScript", "esc"];

fn version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

/// What `fastc build` stores for the program today.
fn fresh_build() -> Artifact {
    let compiled = fast_lang::compile(SOURCE).expect("program compiles");
    let names = compiled.transducer_names();
    let stages: Vec<_> = STAGES
        .iter()
        .map(|n| Arc::new(compiled.transducer(n).unwrap().clone()))
        .collect();
    let mut b = ArtifactBuilder::new();
    for name in &names {
        b.add_transducer(name, compiled.transducer(name).unwrap());
    }
    let stage_names: Vec<String> = STAGES.iter().map(|s| s.to_string()).collect();
    b.add_pipeline("remScript,esc", &stage_names, &stages);
    b.build()
}

/// Decodes `bytes` and checks it against a fresh build: the same
/// transducers, pipeline report and outputs. Returns both artifacts'
/// encodings.
fn check_against_fresh_build(bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let art = Artifact::decode(bytes).expect("artifact decodes");
    let compiled = fast_lang::compile(SOURCE).expect("program compiles");
    let names = compiled.transducer_names();
    let fresh = fresh_build();

    // The same transducers, under the same names, in the same order.
    assert_eq!(art.transducer_names().collect::<Vec<_>>(), names);

    // The same pipeline report as a fresh fusion analysis.
    let loaded = art.pipeline("remScript,esc").expect("pipeline stored");
    let fresh_pipeline = fresh.pipeline("remScript,esc").unwrap();
    assert_eq!(art.pipeline_stages("remScript,esc").unwrap(), STAGES);
    let (got, want) = (loaded.report(), fresh_pipeline.report());
    assert_eq!(got.to_string(), want.to_string());
    assert_eq!(loaded.segment_count(), fresh_pipeline.segment_count());

    // The same outputs on generated HtmlE trees.
    let ty = compiled.tree_type("HtmlE").unwrap();
    let trees = TreeGen::new(7).trees(ty, 40);
    for name in &names {
        assert_eq!(art.transducer_type(name).unwrap(), ty);
        let (got, want) = (art.transducer(name), fresh.transducer(name));
        assert_eq!(
            got.unwrap().run_batch(&trees),
            want.unwrap().run_batch(&trees),
            "{name}"
        );
    }
    assert_eq!(loaded.run_batch(&trees), fresh_pipeline.run_batch(&trees));
    (art.encode(), fresh.encode())
}

#[test]
fn v1_fixture_matches_a_fresh_compile() {
    assert_eq!(version(V1), 1);
    let (reencoded, fresh) = check_against_fresh_build(V1);
    // Re-encoding writes the current version, byte-identical to the
    // fresh build, and without the version-1 tables.
    assert_eq!(version(&reencoded), VERSION);
    assert_eq!(reencoded, fresh);
    assert!(reencoded.len() < V1.len());
}

#[test]
fn v2_fixture_matches_a_fresh_compile() {
    assert_eq!(VERSION, 2);
    assert_eq!(version(V2), 2);
    let (reencoded, fresh) = check_against_fresh_build(V2);
    // The reserved word changed no byte: a fresh build and a decoded
    // fixture both encode to exactly the stored version-2 bytes.
    assert!(
        fresh == V2,
        "a fresh build no longer encodes to the v2 fixture"
    );
    assert!(
        reencoded == V2,
        "re-encoding the v2 fixture changed its bytes"
    );
}
