//! Hostile-loader wall for the `.fastc` codec: no byte sequence may make
//! `Artifact::decode` panic, allocate unboundedly, or index out of
//! bounds. Every malformed input must surface as a typed
//! [`ArtifactError`]. Beyond the directed header attacks, two exhaustive
//! sweeps over a real artifact pin this down:
//!
//! * every truncation length (checksum repaired, so the payload
//!   validators — not just the checksum — are what rejects), and
//! * every single-byte corruption (two XOR masks per position, checksum
//!   repaired). When a corrupted artifact *does* decode — flips in name
//!   strings or label constants can be semantically harmless — the
//!   loaded plans must still run without panicking: decode-time
//!   validation is what licenses the runtime's unchecked dispatch.

use fast_core::{Out, SttrBuilder};
use fast_rt::{Artifact, ArtifactBuilder, ArtifactError, MAGIC, VERSION};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term, Value};
use fast_trees::{Tree, TreeType};
use std::sync::Arc;

/// FNV-1a 64 over the payload, as specified for the `.fastc` header
/// (ARCHITECTURE.md §9). Reimplemented here on purpose: the test pins
/// the wire format, not the implementation's helper.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recomputes the stored checksum so a corrupted body reaches the
/// structural validators instead of dying at the checksum gate.
fn refix(bytes: &mut [u8]) {
    if bytes.len() >= 16 {
        let sum = fnv1a64(&bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }
}

/// A small but representative artifact: integer binary trees, two
/// transducers with guards and label arithmetic, one two-stage pipeline.
fn sample() -> Vec<u8> {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mk = |k: i64| {
        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let q = b.state("q");
        let guard = Formula::cmp(CmpOp::Ge, Term::field(0), Term::int(-1_000_000));
        let bump = LabelFn::new(vec![Term::field(0).add(Term::int(k))]);
        b.plain_rule(
            q,
            leaf,
            guard.clone(),
            Out::node(leaf, bump.clone(), vec![]),
        );
        b.plain_rule(
            q,
            node,
            guard,
            Out::node(node, bump, vec![Out::Call(q, 0), Out::Call(q, 1)]),
        );
        b.build(q)
    };
    let s1 = mk(1);
    let s2 = mk(2);
    let mut b = ArtifactBuilder::new();
    b.add_transducer("inc1", &s1).add_transducer("inc2", &s2);
    b.add_pipeline(
        "inc1,inc2",
        &["inc1".to_string(), "inc2".to_string()],
        &[Arc::new(s1), Arc::new(s2)],
    );
    b.build().encode()
}

/// Drives every transducer and pipeline of a decoded artifact over a few
/// inputs of its own (reconstructed) type. Any panic here fails the test:
/// a decode that accepts an artifact vouches that running it is safe.
fn exercise(art: &Artifact) {
    let smoke_trees = |ty: &Arc<TreeType>| -> Vec<Tree> {
        let nullary = ty
            .ctor_ids()
            .find(|&c| ty.rank(c) == 0)
            .expect("decode guarantees a nullary constructor");
        let label = || {
            Label::new(
                ty.sig()
                    .fields()
                    .iter()
                    .map(|(_, s)| match s {
                        Sort::Bool => Value::Bool(false),
                        Sort::Int => Value::Int(3),
                        Sort::Str => Value::Str("x".into()),
                        Sort::Char => Value::Char('x'),
                    })
                    .collect(),
            )
        };
        let leaf = Tree::new(nullary, label(), vec![]);
        let mut out = vec![leaf.clone()];
        if let Some(c) = ty.ctor_ids().find(|&c| ty.rank(c) > 0) {
            let kids = vec![leaf; ty.rank(c)];
            out.push(Tree::new(c, label(), kids));
        }
        out
    };
    let names: Vec<String> = art.transducer_names().map(str::to_string).collect();
    for name in &names {
        let plan = art.transducer(name).unwrap();
        let ty = art.transducer_type(name).unwrap();
        for r in plan.run_batch(&smoke_trees(ty)) {
            let _ = r; // errors are fine; panics are not
        }
    }
    let pipes: Vec<String> = art.pipeline_names().map(str::to_string).collect();
    for name in &pipes {
        let p = art.pipeline(name).unwrap();
        let ty = art.pipeline_type(name).unwrap();
        for r in p.run_batch(&smoke_trees(ty)) {
            let _ = r;
        }
    }
}

#[test]
fn sample_round_trips_and_runs() {
    let bytes = sample();
    let art = Artifact::decode(&bytes).expect("pristine artifact decodes");
    exercise(&art);
    assert_eq!(art.encode(), bytes);
}

#[test]
fn header_attacks_yield_typed_errors() {
    let bytes = sample();

    assert!(matches!(
        Artifact::decode(&[]),
        Err(ArtifactError::TooShort)
    ));
    assert!(matches!(
        Artifact::decode(&bytes[..15]),
        Err(ArtifactError::TooShort)
    ));

    let mut bad_magic = bytes.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        Artifact::decode(&bad_magic),
        Err(ArtifactError::BadMagic)
    ));
    assert_eq!(&bytes[..4], &MAGIC);

    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    refix(&mut future);
    match Artifact::decode(&future) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut bad_sum = bytes.clone();
    bad_sum[20] ^= 0xff; // corrupt the body, leave the stored checksum
    assert!(matches!(
        Artifact::decode(&bad_sum),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));
}

/// The encoded constructor entry `name, rank` of a type section: a
/// length-prefixed name followed by a u32 rank.
fn ctor_entry(name: &str, rank: u32) -> Vec<u8> {
    let mut e = (name.len() as u32).to_le_bytes().to_vec();
    e.extend_from_slice(name.as_bytes());
    e.extend_from_slice(&rank.to_le_bytes());
    e
}

/// Rewrites the first occurrence of `from` inside the TYPES section
/// (section 0: its offset and length sit at bytes 24..40 of the table)
/// and repairs the checksum.
fn patch_types(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let off = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    let at = bytes[off..off + len]
        .windows(from.len())
        .position(|w| w == from)
        .expect("constructor entry present in the type section");
    let mut out = bytes.to_vec();
    out[off + at..off + at + to.len()].copy_from_slice(to);
    refix(&mut out);
    out
}

/// The decoder re-checks the tree-type invariants `TreeType::new` would
/// otherwise panic on: constructor names are unique and at least one
/// constructor is nullary.
#[test]
fn type_section_invariants_are_enforced() {
    let bytes = sample();
    let dup = patch_types(&bytes, &ctor_entry("N", 2), &ctor_entry("L", 2));
    assert!(matches!(
        Artifact::decode(&dup),
        Err(ArtifactError::Malformed("duplicate constructor name"))
    ));
    let no_nullary = patch_types(&bytes, &ctor_entry("L", 0), &ctor_entry("L", 1));
    assert!(matches!(
        Artifact::decode(&no_nullary),
        Err(ArtifactError::Malformed(
            "tree type has no nullary constructor"
        ))
    ));
}

/// A version-1 artifact, whose transducer bodies still end with
/// dispatch tables (see `artifact_v1.rs`).
const V1: &[u8] = include_bytes!("data/sanitizer_pipeline.v1.fastc");

/// A version-2 artifact of the same program, as `fastc build` writes it
/// (see `artifact_v1.rs`).
const V2: &[u8] = include_bytes!("data/sanitizer_pipeline.v2.fastc");

/// States and constructors cost a few bytes each, but a plan's dispatch
/// table holds one cell per `(state, constructor)` pair. A small buffer
/// whose product is far larger than it must be refused before the plan
/// is built; the same type with a handful of states still loads.
#[test]
fn dispatch_table_product_is_capped_by_buffer_length() {
    let names: Vec<String> = (0..1000).map(|i| format!("c{i}")).collect();
    let ty = TreeType::new(
        "Wide",
        LabelSig::single("i", Sort::Int),
        names.iter().map(|n| (n.as_str(), 0)).collect(),
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let artifact = |states: usize| {
        let mut b = SttrBuilder::new(ty.clone(), alg.clone());
        let qs: Vec<_> = (0..states).map(|i| b.state(&format!("q{i}"))).collect();
        let mut a = ArtifactBuilder::new();
        a.add_transducer("wide", &b.build(qs[0]));
        a.build().encode()
    };

    let small = artifact(4);
    assert!(Artifact::decode(&small).is_ok());

    let wide = artifact(1000);
    let cells = 1000 * 1000;
    assert!(cells > 4 * wide.len(), "{} bytes", wide.len());
    match Artifact::decode(&wide) {
        Err(ArtifactError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn every_truncation_is_rejected_without_panic() {
    for bytes in [sample(), V1.to_vec(), V2.to_vec()] {
        for len in 0..bytes.len() {
            let mut cut = bytes[..len].to_vec();
            refix(&mut cut);
            assert!(
                Artifact::decode(&cut).is_err(),
                "truncation to {len} of {} bytes must not decode",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_safe() {
    let bytes = sample();
    let mut decoded_ok = 0usize;
    for pos in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut bent = bytes.clone();
            bent[pos] ^= mask;
            refix(&mut bent);
            // Flipping inside the checksum itself is then repaired;
            // that case is just the pristine artifact again.
            // A typed rejection is the expected outcome; anything that
            // still decodes must also still run.
            if let Ok(art) = Artifact::decode(&bent) {
                decoded_ok += 1;
                exercise(&art);
            }
        }
    }
    // Sanity: the sweep really exercised both arms (string bytes and
    // label constants tolerate flips; structural bytes must not).
    assert!(decoded_ok > 0, "some harmless flips should still decode");
    assert!(
        decoded_ok < 2 * bytes.len(),
        "structural flips must be rejected"
    );
}

#[test]
fn unrepaired_flips_never_pass_the_checksum() {
    let bytes = sample();
    // Stride 7 keeps the sweep fast while still covering every section;
    // positions ≥ 16 are under the checksum, 0..16 die on magic/version
    // or the stored-checksum comparison itself.
    for pos in (0..bytes.len()).step_by(7) {
        let mut bent = bytes.clone();
        bent[pos] ^= 0x55;
        assert!(
            Artifact::decode(&bent).is_err(),
            "unrepaired flip at {pos} must be rejected"
        );
    }
}
