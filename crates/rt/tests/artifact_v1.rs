//! Version-1 `.fastc` artifacts stay loadable.
//!
//! `data/sanitizer_pipeline.v1.fastc` was written by a version-1
//! `fastc build programs/sanitizer_pipeline.fast --pipeline
//! remScript,esc`: its transducer bodies still carry the dispatch tables
//! version 2 dropped. Decoding it must give the same transducers,
//! pipeline report and outputs as compiling the program from source,
//! and re-encoding it must give the current version. `artifact_hostile.rs`
//! sweeps its truncations.

use fast_rt::{Artifact, ArtifactBuilder, VERSION};
use fast_trees::TreeGen;
use std::sync::Arc;

const V1: &[u8] = include_bytes!("data/sanitizer_pipeline.v1.fastc");
const SOURCE: &str = include_str!("../../../programs/sanitizer_pipeline.fast");
const STAGES: [&str; 2] = ["remScript", "esc"];

fn version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

#[test]
fn v1_fixture_matches_a_fresh_compile() {
    assert_eq!(version(V1), 1);
    let art = Artifact::decode(V1).expect("version-1 artifact decodes");

    // What `fastc build` stores for the program today.
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
    let fresh = b.build();

    // The same transducers, under the same names, in the same order.
    assert_eq!(art.transducer_names().collect::<Vec<_>>(), names);

    // The same pipeline report as a fresh fusion analysis.
    let loaded = art.pipeline("remScript,esc").expect("pipeline stored");
    let fresh_pipeline = fresh.pipeline("remScript,esc").unwrap();
    assert_eq!(art.pipeline_stages("remScript,esc").unwrap(), STAGES);
    let (got, want) = (loaded.report(), fresh_pipeline.report());
    assert_eq!(got.to_string(), want.to_string());
    assert_eq!(got.fuse_cache_hits, want.fuse_cache_hits);
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

    // Re-encoding writes the current version, byte-identical to the
    // fresh build, and without the version-1 tables.
    let reencoded = art.encode();
    assert_eq!(version(&reencoded), VERSION);
    assert_eq!(reencoded, fresh.encode());
    assert!(reencoded.len() < V1.len());
}
