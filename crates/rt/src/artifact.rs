//! Versioned binary artifacts: compile once, ship the transducers,
//! cold-start in microseconds.
//!
//! This module serializes compiled transducers (states, lookahead STA,
//! rules) and any compiled [`Pipeline`]s, fused segments and fusion
//! verdicts included, into a little-endian `.fastc` buffer that
//! [`Artifact::load`] turns back into runnable plans **without reparsing
//! source, re-running the typechecker, or re-deciding pipeline fusion**
//! — the expensive composition/solver work happens once, at `fastc
//! build` time. The dispatch tables are not stored: the loader builds
//! each [`Plan`] with [`Plan::compile`], exactly as a fresh compile
//! does, which buckets rules by `(state, constructor)` and needs no
//! solver.
//!
//! # Format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FSTC"
//! 4       4     format version (u32 LE)
//! 8       8     FNV-1a64 checksum of every byte from offset 16 (u64 LE)
//! 16      4     section count (always 5)
//! 20      5×20  section table: tag u32, absolute offset u64, length u64
//! 120     ...   section payloads, contiguous and in table order
//! ```
//!
//! Sections appear exactly once each, in tag order: `TYPES` (1),
//! `FORMULAS` (2), `LABELFNS` (3), `TRANSDUCERS` (4), `PIPELINES` (5).
//! Guards are stored once in the formula pool and referenced by index;
//! label functions likewise. All integers are little-endian; all
//! collections are length-prefixed. Version 1 differs only in that each
//! transducer body ends with the plan's dispatch tables; this reader
//! still decodes it and skips them. See ARCHITECTURE.md §9 for the full
//! payload grammar and the compatibility policy.
//!
//! # Trust model
//!
//! [`Artifact::decode`] treats the buffer as hostile. Every offset,
//! count, and index is validated before it is used to slice or index
//! anything: section offsets must be contiguous and in-bounds, pool and
//! state references must be in range, guards and label functions must
//! be well-typed for their label signature, output trees must respect
//! constructor ranks, and a pipeline's boundary verdicts must agree with
//! its segments. A corrupt or adversarial buffer yields a typed
//! [`ArtifactError`] — never a panic and never an out-of-bounds access.
//! Decode memory is linear in the buffer length: counts are checked
//! against the bytes left, and the plan tables sized by a product of
//! counts ((state, constructor) dispatch cells) are capped at a few
//! cells per buffer byte. Dispatch is valid by
//! construction: it is derived from the decoded transducer, never read
//! from the buffer.
//!
//! # Examples
//!
//! ```
//! use fast_core::{Out, SttrBuilder};
//! use fast_rt::{Artifact, ArtifactBuilder};
//! use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
//! use fast_trees::{Tree, TreeType};
//! use std::sync::Arc;
//!
//! let ilist = TreeType::new("IList", LabelSig::single("i", Sort::Int),
//!                           vec![("nil", 0), ("cons", 1)]);
//! let alg = Arc::new(LabelAlg::new(ilist.sig().clone()));
//! let (nil, cons) = (ilist.ctor_id("nil").unwrap(), ilist.ctor_id("cons").unwrap());
//! let mut b = SttrBuilder::new(ilist.clone(), alg);
//! let q = b.state("inc");
//! b.plain_rule(q, nil, Formula::True,
//!              Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]));
//! b.plain_rule(q, cons, Formula::True,
//!              Out::node(cons, LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
//!                        vec![Out::Call(q, 0)]));
//! let inc = b.build(q);
//!
//! let mut builder = ArtifactBuilder::new();
//! builder.add_transducer("inc", &inc);
//! let bytes = builder.build().encode();
//!
//! let loaded = Artifact::decode(&bytes).unwrap();
//! let plan = loaded.transducer("inc").unwrap();
//! let t = Tree::parse(&ilist, "cons[1](nil[0])").unwrap();
//! assert_eq!(plan.run(&t).unwrap()[0].display(&ilist).to_string(),
//!            "cons[2](nil[0])");
//! ```

use crate::pipeline::{BoundaryDecision, Pipeline, PipelineReport, Segment};
use crate::plan::Plan;
use fast_automata::{Rule as StaRule, Sta, StateId};
use fast_core::{Out, Sttr, SttrBuilder};
use fast_smt::bin::{
    read_formula_pool, read_label_fn, read_sig, write_label_fn, write_sig, BinError, ByteReader,
    ByteWriter, FormulaPool, MAX_DEPTH,
};
use fast_smt::{Formula, Interned, LabelAlg, LabelFn, LabelSig};
use fast_trees::{CtorId, TreeType};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The four magic bytes opening every artifact.
pub const MAGIC: [u8; 4] = *b"FSTC";
/// Current format version. Readers reject anything newer; the policy is
/// "old readers refuse new artifacts, new readers keep decoding every
/// released version" (see ARCHITECTURE.md §9). Versions 1 and 2 are
/// released; version 1 bodies also carry dispatch tables, which this
/// reader skips.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 16;
/// Plan table cells (`Plan::table_cells`: dispatch-group offsets and
/// per-constructor offsets) an artifact may make the loader allocate,
/// summed over its bodies, per byte of its length. Version 1 stored one
/// u32 per `(state, constructor)` cell, a quarter cell per byte; the
/// programs in `programs/` use under a tenth of one.
const CELLS_PER_BYTE: usize = 4;
const SECTION_COUNT: usize = 5;
/// Where the first section payload starts: header + count + table.
const PAYLOAD_START: usize = HEADER_LEN + 4 + SECTION_COUNT * 20;

const TAG_TYPES: u32 = 1;
const TAG_FORMULAS: u32 = 2;
const TAG_LABELFNS: u32 = 3;
const TAG_TRANSDUCERS: u32 = 4;
const TAG_PIPELINES: u32 = 5;
const TAGS: [u32; SECTION_COUNT] = [
    TAG_TYPES,
    TAG_FORMULAS,
    TAG_LABELFNS,
    TAG_TRANSDUCERS,
    TAG_PIPELINES,
];

/// Why a buffer was rejected by [`Artifact::decode`] /
/// [`Artifact::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem error while reading or writing an artifact.
    Io(String),
    /// Buffer shorter than the fixed header.
    TooShort,
    /// The first four bytes are not `"FSTC"`.
    BadMagic,
    /// The artifact's format version is not one this reader decodes
    /// (zero, or newer than [`VERSION`]).
    UnsupportedVersion {
        /// Version stamped in the artifact.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
    /// The stored checksum does not match the bytes (corruption).
    ChecksumMismatch {
        /// Checksum from the header.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// A primitive decode failed (truncation, bad tag, malformed value).
    Codec(BinError),
    /// A reference is out of range for the structure it points into.
    Invalid {
        /// What was being referenced.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A structural invariant of the format is violated.
    Malformed(&'static str),
}

impl From<BinError> for ArtifactError {
    fn from(e: BinError) -> Self {
        ArtifactError::Codec(e)
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::TooShort => write!(f, "artifact shorter than its header"),
            ArtifactError::BadMagic => write!(f, "not a fastc artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this reader decodes 1 to {supported})"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header says {stored:#018x}, body hashes to {computed:#018x}"
            ),
            ArtifactError::Codec(e) => write!(f, "artifact codec error: {e}"),
            ArtifactError::Invalid { what, value } => {
                write!(f, "artifact references {what} {value}, which is out of range")
            }
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

fn invalid(what: &'static str, value: usize) -> ArtifactError {
    ArtifactError::Invalid {
        what,
        value: value as u64,
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and byte-order independent;
/// this is an integrity check against corruption, not an authenticator.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One named transducer stored in an artifact.
#[derive(Debug)]
struct Entry {
    name: String,
    ty: usize,
    plan: Arc<Plan>,
}

/// One named pipeline stored in an artifact, with its compiled (possibly
/// fused) segments.
#[derive(Debug)]
struct PipelineEntry {
    name: String,
    ty: usize,
    stage_names: Vec<String>,
    pipeline: Pipeline,
}

/// A decoded (or to-be-encoded) `.fastc` artifact: tree types, compiled
/// transducer plans, and compiled pipelines, all named.
#[derive(Debug)]
pub struct Artifact {
    types: Vec<Arc<TreeType>>,
    transducers: Vec<Entry>,
    pipelines: Vec<PipelineEntry>,
}

/// Collects compiled transducers and pipelines into an [`Artifact`].
///
/// Tree types are deduplicated structurally: entries over equal types
/// share one stored type (and one decoded algebra on load).
#[derive(Debug, Default)]
pub struct ArtifactBuilder {
    types: Vec<Arc<TreeType>>,
    transducers: Vec<Entry>,
    pipelines: Vec<PipelineEntry>,
}

impl ArtifactBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ArtifactBuilder::default()
    }

    fn type_index(&mut self, ty: &Arc<TreeType>) -> usize {
        if let Some(i) = self.types.iter().position(|t| t == ty) {
            return i;
        }
        self.types.push(ty.clone());
        self.types.len() - 1
    }

    /// Compiles `sttr` into a [`Plan`] and stores it under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already used by another transducer entry.
    pub fn add_transducer(&mut self, name: &str, sttr: &Sttr) -> &mut Self {
        assert!(
            self.transducers.iter().all(|e| e.name != name),
            "duplicate artifact transducer name {name:?}"
        );
        let ty = self.type_index(sttr.ty());
        self.transducers.push(Entry {
            name: name.to_string(),
            ty,
            plan: Arc::new(Plan::compile(sttr)),
        });
        self
    }

    /// Compiles `stages` into a [`Pipeline`] (running the fusion
    /// analysis now, so loads never have to) and stores it under `name`
    /// with one display name per stage.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already used by another pipeline entry, if
    /// `stage_names` and `stages` disagree in length, or on the
    /// [`Pipeline::compile`] preconditions (empty chain, mixed types).
    pub fn add_pipeline(
        &mut self,
        name: &str,
        stage_names: &[String],
        stages: &[Arc<Sttr>],
    ) -> &mut Self {
        assert!(
            self.pipelines.iter().all(|p| p.name != name),
            "duplicate artifact pipeline name {name:?}"
        );
        assert_eq!(
            stage_names.len(),
            stages.len(),
            "one stage name per pipeline stage"
        );
        let pipeline = Pipeline::compile(stages);
        let ty = self.type_index(stages[0].ty());
        self.pipelines.push(PipelineEntry {
            name: name.to_string(),
            ty,
            stage_names: stage_names.to_vec(),
            pipeline,
        });
        self
    }

    /// Finishes the artifact.
    pub fn build(self) -> Artifact {
        Artifact {
            types: self.types,
            transducers: self.transducers,
            pipelines: self.pipelines,
        }
    }
}

impl Artifact {
    /// The stored tree types, in first-use order.
    pub fn types(&self) -> &[Arc<TreeType>] {
        &self.types
    }

    /// Names of all stored transducers, in artifact order.
    pub fn transducer_names(&self) -> impl Iterator<Item = &str> {
        self.transducers.iter().map(|e| e.name.as_str())
    }

    /// The compiled plan stored under `name`.
    pub fn transducer(&self, name: &str) -> Option<&Arc<Plan>> {
        self.transducers
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.plan)
    }

    /// The tree type of the transducer stored under `name`.
    pub fn transducer_type(&self, name: &str) -> Option<&Arc<TreeType>> {
        self.transducers
            .iter()
            .find(|e| e.name == name)
            .map(|e| &self.types[e.ty])
    }

    /// Names of all stored pipelines, in artifact order.
    pub fn pipeline_names(&self) -> impl Iterator<Item = &str> {
        self.pipelines.iter().map(|p| p.name.as_str())
    }

    /// The compiled pipeline stored under `name`.
    pub fn pipeline(&self, name: &str) -> Option<&Pipeline> {
        self.pipelines
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.pipeline)
    }

    /// The tree type of the pipeline stored under `name`.
    pub fn pipeline_type(&self, name: &str) -> Option<&Arc<TreeType>> {
        self.pipelines
            .iter()
            .find(|p| p.name == name)
            .map(|p| &self.types[p.ty])
    }

    /// The per-stage display names of the pipeline stored under `name`.
    pub fn pipeline_stages(&self, name: &str) -> Option<&[String]> {
        self.pipelines
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.stage_names.as_slice())
    }

    /// The first stored plan, in decode order, that [`Artifact::decode`]
    /// refuses as "plan tables too large for the buffer" when this
    /// artifact is encoded into `encoded_len` bytes: named as
    /// `transducer 'name'` or `pipeline 'name' segment i`. `None` when
    /// every plan fits. `fastc build` checks this before it writes an
    /// artifact, so it never writes one the loader refuses.
    pub fn oversized_plan(&self, encoded_len: usize) -> Option<String> {
        let mut cells = cell_budget(encoded_len);
        for e in &self.transducers {
            if !take_cells(&mut cells, e.plan.sttr()) {
                return Some(format!("transducer '{}'", e.name));
            }
        }
        for p in &self.pipelines {
            for i in 0..p.pipeline.segment_count() {
                if !take_cells(&mut cells, p.pipeline.segment(i).0.sttr()) {
                    return Some(format!("pipeline '{}' segment {i}", p.name));
                }
            }
        }
        None
    }

    /// Serializes the artifact. Encoding is deterministic: the same
    /// artifact contents produce byte-identical output in every process
    /// (all pools are in first-use order, all maps are only lookup
    /// accelerators).
    pub fn encode(&self) -> Vec<u8> {
        let mut fpool = FormulaPool::new();
        let mut lfpool = LfPool::new();

        // Transducer and pipeline payloads are written first so the
        // pools they reference are fully populated before the pool
        // sections (which precede them in the file) are emitted.
        let mut tw = ByteWriter::new();
        tw.put_u32(self.transducers.len() as u32);
        for e in &self.transducers {
            tw.put_str(&e.name);
            tw.put_u32(e.ty as u32);
            write_sttr_body(&mut tw, &mut fpool, &mut lfpool, e.plan.sttr());
        }

        let mut pw = ByteWriter::new();
        pw.put_u32(self.pipelines.len() as u32);
        for p in &self.pipelines {
            pw.put_str(&p.name);
            pw.put_u32(p.ty as u32);
            pw.put_u32(p.stage_names.len() as u32);
            for s in &p.stage_names {
                pw.put_str(s);
            }
            let rep = p.pipeline.report();
            pw.put_u32(rep.stages as u32);
            pw.put_u32(rep.segments as u32);
            // Reserved word: written as 0, ignored on read. It once held
            // a fusion-cache hit count (`fuse_cache_hits`) that every
            // build wrote as 0, so the bytes are unchanged.
            pw.put_u64(0);
            pw.put_u32(rep.boundaries.len() as u32);
            for b in &rep.boundaries {
                pw.put_u32(b.boundary as u32);
                pw.put_bool(b.fused);
                pw.put_str(&b.reason);
            }
            pw.put_u32(p.pipeline.segment_count() as u32);
            for i in 0..p.pipeline.segment_count() {
                let (plan, first, last) = p.pipeline.segment(i);
                pw.put_u32(first as u32);
                pw.put_u32(last as u32);
                write_sttr_body(&mut pw, &mut fpool, &mut lfpool, plan.sttr());
            }
        }

        let mut tyw = ByteWriter::new();
        tyw.put_u32(self.types.len() as u32);
        for ty in &self.types {
            tyw.put_str(ty.name());
            write_sig(&mut tyw, ty.sig());
            tyw.put_u32(ty.ctor_count() as u32);
            for c in ty.ctor_ids() {
                tyw.put_str(ty.ctor_name(c));
                tyw.put_u32(ty.rank(c) as u32);
            }
        }

        let mut fw = ByteWriter::new();
        fpool.write(&mut fw);

        let mut lw = ByteWriter::new();
        lw.put_u32(lfpool.items.len() as u32);
        for lf in &lfpool.items {
            write_label_fn(&mut lw, lf);
        }

        assemble([
            tyw.into_bytes(),
            fw.into_bytes(),
            lw.into_bytes(),
            tw.into_bytes(),
            pw.into_bytes(),
        ])
    }

    /// Decodes (and fully validates) an artifact buffer.
    ///
    /// On success the `artifact.bytes` and `artifact.load_ns` counters
    /// record the input size and decode latency.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] variant; hostile buffers are rejected, not
    /// trusted (see the module docs for the validation contract).
    pub fn decode(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let start = Instant::now();
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::TooShort);
        }
        if bytes[0..4] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version == 0 || version > VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let computed = fnv1a64(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }

        let mut hr = ByteReader::new(&bytes[HEADER_LEN..]);
        let nsec = hr.take_u32("section count")?;
        if nsec as usize != SECTION_COUNT {
            return Err(invalid("section count", nsec as usize));
        }
        let mut sections = Vec::with_capacity(SECTION_COUNT);
        let mut expected_off = PAYLOAD_START as u64;
        for want in TAGS {
            let tag = hr.take_u32("section tag")?;
            if tag != want {
                return Err(invalid("section tag", tag as usize));
            }
            let off = hr.take_u64("section offset")?;
            let len = hr.take_u64("section length")?;
            if off != expected_off {
                return Err(ArtifactError::Malformed("section offsets not contiguous"));
            }
            let end = off
                .checked_add(len)
                .ok_or(ArtifactError::Malformed("section length overflow"))?;
            if end > bytes.len() as u64 {
                return Err(ArtifactError::Malformed("section past end of buffer"));
            }
            sections.push((off as usize, len as usize));
            expected_off = end;
        }
        if expected_off != bytes.len() as u64 {
            return Err(ArtifactError::Malformed("trailing bytes after sections"));
        }
        let section = |i: usize| {
            let (off, len) = sections[i];
            ByteReader::new(&bytes[off..off + len])
        };
        let drained = |r: &ByteReader<'_>| {
            if r.is_empty() {
                Ok(())
            } else {
                Err(ArtifactError::Malformed("unconsumed bytes in section"))
            }
        };

        // TYPES
        let mut r = section(0);
        let (types, algs) = read_types(&mut r)?;
        drained(&r)?;

        // FORMULAS + LABELFNS
        let mut r = section(1);
        let formulas = read_formula_pool(&mut r)?;
        drained(&r)?;
        let mut r = section(2);
        let n_lfs = r.take_count(4, "label functions")?;
        let mut labelfns = Vec::with_capacity(n_lfs);
        for _ in 0..n_lfs {
            labelfns.push(read_label_fn(&mut r)?);
        }
        drained(&r)?;
        let pools = Pools { formulas, labelfns };
        let well_typed: Vec<WellTyped> = types
            .iter()
            .map(|ty| WellTyped::compute(ty.sig(), &pools))
            .collect();

        // Plan table cells all bodies may still allocate (see
        // `read_sttr_body`).
        let mut cells = cell_budget(bytes.len());

        // TRANSDUCERS
        let mut r = section(3);
        let n = r.take_count(8, "transducers")?;
        let mut transducers = Vec::with_capacity(n);
        let mut names = HashSet::new();
        for _ in 0..n {
            let name = r.take_str("transducer name")?;
            if !names.insert(name.clone()) {
                return Err(ArtifactError::Malformed("duplicate transducer name"));
            }
            let ty = r.take_u32("transducer type index")? as usize;
            if ty >= types.len() {
                return Err(invalid("type index", ty));
            }
            let plan = read_sttr_body(
                &mut r,
                version,
                &types[ty],
                &algs[ty],
                &pools,
                &well_typed[ty],
                &mut cells,
            )?;
            transducers.push(Entry {
                name,
                ty,
                plan: Arc::new(plan),
            });
        }
        drained(&r)?;

        // PIPELINES
        let mut r = section(4);
        let n = r.take_count(8, "pipelines")?;
        let mut pipelines = Vec::with_capacity(n);
        let mut pnames = HashSet::new();
        for _ in 0..n {
            let name = r.take_str("pipeline name")?;
            if !pnames.insert(name.clone()) {
                return Err(ArtifactError::Malformed("duplicate pipeline name"));
            }
            let ty = r.take_u32("pipeline type index")? as usize;
            if ty >= types.len() {
                return Err(invalid("type index", ty));
            }
            let n_stages = r.take_count(4, "stage names")?;
            if n_stages == 0 {
                return Err(ArtifactError::Malformed("pipeline with no stages"));
            }
            let mut stage_names = Vec::with_capacity(n_stages);
            for _ in 0..n_stages {
                stage_names.push(r.take_str("stage name")?);
            }
            let stages = r.take_u32("report stage count")? as usize;
            if stages != n_stages {
                return Err(ArtifactError::Malformed("report stage count mismatch"));
            }
            let n_segments = r.take_u32("report segment count")? as usize;
            if n_segments == 0 || n_segments > n_stages {
                return Err(invalid("segment count", n_segments));
            }
            // The reserved word: read and ignored.
            r.take_u64("reserved word")?;
            let n_bounds = r.take_count(9, "boundary decisions")?;
            if n_bounds != n_stages - 1 {
                return Err(ArtifactError::Malformed("boundary count mismatch"));
            }
            let mut boundaries = Vec::with_capacity(n_bounds);
            for i in 0..n_bounds {
                let boundary = r.take_u32("boundary index")? as usize;
                if boundary != i {
                    return Err(ArtifactError::Malformed("boundary indices out of order"));
                }
                let fused = r.take_bool("boundary fused flag")?;
                let reason = r.take_str("boundary reason")?;
                boundaries.push(BoundaryDecision {
                    boundary,
                    fused,
                    reason,
                });
            }
            let seg_count = r.take_u32("segment count")? as usize;
            if seg_count != n_segments {
                return Err(ArtifactError::Malformed("segment count mismatch"));
            }
            let mut segments = Vec::with_capacity(seg_count);
            let mut expect_first = 0usize;
            for si in 0..seg_count {
                let first = r.take_u32("segment first stage")? as usize;
                let last = r.take_u32("segment last stage")? as usize;
                if first != expect_first || last < first || last >= n_stages {
                    return Err(ArtifactError::Malformed("segments do not tile the chain"));
                }
                if si == seg_count - 1 && last != n_stages - 1 {
                    return Err(ArtifactError::Malformed("segments do not tile the chain"));
                }
                // The report must describe this segmentation: a boundary
                // is fused exactly when it lies inside one segment.
                let inner = boundaries[first..last].iter().all(|b| b.fused);
                if !inner || boundaries.get(last).is_some_and(|b| b.fused) {
                    return Err(ArtifactError::Malformed(
                        "boundary verdicts disagree with segments",
                    ));
                }
                expect_first = last + 1;
                let plan = read_sttr_body(
                    &mut r,
                    version,
                    &types[ty],
                    &algs[ty],
                    &pools,
                    &well_typed[ty],
                    &mut cells,
                )?;
                segments.push(Segment {
                    plan: Arc::new(plan),
                    first,
                    last,
                });
            }
            let report = PipelineReport {
                stages: n_stages,
                segments: n_segments,
                boundaries,
            };
            pipelines.push(PipelineEntry {
                name,
                ty,
                stage_names,
                pipeline: Pipeline::from_parts(segments, report),
            });
        }
        drained(&r)?;

        fast_obs::count!("artifact.bytes", bytes.len() as u64);
        fast_obs::count!("artifact.load_ns", start.elapsed().as_nanos() as u64);
        Ok(Artifact {
            types,
            transducers,
            pipelines,
        })
    }

    /// [`Artifact::encode`] straight to a file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path.as_ref(), self.encode()).map_err(|e| ArtifactError::Io(e.to_string()))
    }

    /// Reads and [`Artifact::decode`]s a file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise any decode
    /// error.
    pub fn load(path: impl AsRef<Path>) -> Result<Artifact, ArtifactError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| ArtifactError::Io(e.to_string()))?;
        Artifact::decode(&bytes)
    }
}

/// Frames the five section payloads with header, section table, and
/// checksum. Separate from [`Artifact::encode`] so hostile-format tests
/// can assemble payloads the builder would never produce.
fn assemble(payloads: [Vec<u8>; SECTION_COUNT]) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.put_u32(SECTION_COUNT as u32);
    let mut offset = PAYLOAD_START as u64;
    for (tag, payload) in TAGS.iter().zip(&payloads) {
        body.put_u32(*tag);
        body.put_u64(offset);
        body.put_u64(payload.len() as u64);
        offset += payload.len() as u64;
    }
    for payload in &payloads {
        body.put_bytes(payload);
    }
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Deduplicating label-function pool (first-use order, like
/// [`FormulaPool`]).
struct LfPool {
    map: HashMap<LabelFn, u32>,
    items: Vec<LabelFn>,
}

impl LfPool {
    fn new() -> Self {
        LfPool {
            map: HashMap::new(),
            items: Vec::new(),
        }
    }

    fn index_of(&mut self, f: &LabelFn) -> u32 {
        if let Some(&i) = self.map.get(f) {
            return i;
        }
        let i = self.items.len() as u32;
        self.map.insert(f.clone(), i);
        self.items.push(f.clone());
        i
    }
}

/// The decoded shared pools every transducer body references into.
struct Pools {
    formulas: Vec<Interned<Formula>>,
    labelfns: Vec<LabelFn>,
}

fn write_out(w: &mut ByteWriter, lf: &mut LfPool, o: &Out<LabelAlg>) {
    match o {
        Out::Call(q, i) => {
            w.put_u8(0);
            w.put_u32(q.0 as u32);
            w.put_u32(*i as u32);
        }
        Out::Node {
            ctor,
            fun,
            children,
        } => {
            w.put_u8(1);
            w.put_u32(ctor.0 as u32);
            w.put_u32(lf.index_of(fun));
            w.put_u32(children.len() as u32);
            for c in children {
                write_out(w, lf, c);
            }
        }
    }
}

fn write_la_sets(w: &mut ByteWriter, sets: &[BTreeSet<StateId>]) {
    for set in sets {
        w.put_u32(set.len() as u32);
        for s in set {
            w.put_u32(s.0 as u32);
        }
    }
}

/// Serializes one transducer: states, lookahead STA and rules, with
/// guards and label functions as pool references. The plan's dispatch
/// tables are not stored: the loader rebuilds them with
/// [`Plan::compile`].
fn write_sttr_body(w: &mut ByteWriter, fpool: &mut FormulaPool, lfpool: &mut LfPool, sttr: &Sttr) {
    w.put_u32(sttr.state_count() as u32);
    for q in sttr.states() {
        w.put_str(sttr.state_name(q));
    }
    w.put_u32(sttr.initial().0 as u32);

    let la = sttr.lookahead_sta();
    w.put_u32(la.state_count() as u32);
    for s in la.states() {
        w.put_str(la.state_name(s));
    }
    w.put_u32(la.initial().0 as u32);
    for s in la.states() {
        let rules = la.rules(s);
        w.put_u32(rules.len() as u32);
        for r in rules {
            w.put_u32(r.ctor.0 as u32);
            w.put_u32(fpool.index_of(&r.guard));
            write_la_sets(w, &r.lookahead);
        }
    }

    for q in sttr.states() {
        let rules = sttr.rules(q);
        w.put_u32(rules.len() as u32);
        for r in rules {
            w.put_u32(r.ctor.0 as u32);
            w.put_u32(fpool.index_of(&r.guard));
            write_la_sets(w, &r.lookahead);
            write_out(w, lfpool, &r.output);
        }
    }
}

/// Tree types plus their label algebras, index-aligned.
type DecodedTypes = (Vec<Arc<TreeType>>, Vec<Arc<LabelAlg>>);

fn read_types(r: &mut ByteReader<'_>) -> Result<DecodedTypes, ArtifactError> {
    let n = r.take_count(12, "tree types")?;
    let mut types = Vec::with_capacity(n);
    let mut algs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.take_str("type name")?;
        let sig = read_sig(r)?;
        let nc = r.take_count(8, "constructors")?;
        let mut ctors: Vec<(String, usize)> = Vec::with_capacity(nc);
        for _ in 0..nc {
            let cname = r.take_str("constructor name")?;
            let rank = r.take_u32("constructor rank")? as usize;
            if ctors.iter().any(|(existing, _)| *existing == cname) {
                return Err(ArtifactError::Malformed("duplicate constructor name"));
            }
            ctors.push((cname, rank));
        }
        if !ctors.iter().any(|&(_, rank)| rank == 0) {
            return Err(ArtifactError::Malformed(
                "tree type has no nullary constructor",
            ));
        }
        let ty = TreeType::new(
            &name,
            sig.clone(),
            ctors.iter().map(|(n, r)| (n.as_str(), *r)).collect(),
        );
        types.push(ty);
        algs.push(Arc::new(LabelAlg::new(sig)));
    }
    Ok((types, algs))
}

/// Per-type typability of the shared pools, computed once per decode
/// (not once per transducer body — bodies only index into these).
struct WellTyped {
    guard_ok: Vec<bool>,
    lf_ok: Vec<bool>,
}

impl WellTyped {
    fn compute(sig: &LabelSig, pools: &Pools) -> WellTyped {
        WellTyped {
            guard_ok: pools.formulas.iter().map(|f| f.well_typed(sig)).collect(),
            lf_ok: pools.labelfns.iter().map(|f| label_fn_ok(f, sig)).collect(),
        }
    }
}

fn label_fn_ok(lf: &LabelFn, sig: &LabelSig) -> bool {
    lf.terms().len() == sig.arity()
        && lf
            .terms()
            .iter()
            .enumerate()
            .all(|(i, t)| t.sort(sig) == Some(sig.sort(i)))
}

fn read_rule_head(
    r: &mut ByteReader<'_>,
    ty: &TreeType,
    pools: &Pools,
    guard_ok: &[bool],
) -> Result<(CtorId, Interned<Formula>), ArtifactError> {
    let c = r.take_u32("rule constructor")? as usize;
    if c >= ty.ctor_count() {
        return Err(invalid("constructor", c));
    }
    let g = r.take_u32("guard id")? as usize;
    if g >= pools.formulas.len() {
        return Err(invalid("guard id", g));
    }
    if !guard_ok[g] {
        return Err(ArtifactError::Malformed(
            "guard ill-typed for label signature",
        ));
    }
    Ok((CtorId(c), pools.formulas[g].clone()))
}

fn read_la_sets(
    r: &mut ByteReader<'_>,
    rank: usize,
    la_states: usize,
) -> Result<Vec<BTreeSet<StateId>>, ArtifactError> {
    // No up-front `rank`-sized allocation: rank is artifact-controlled,
    // and every loop iteration consumes at least four buffer bytes, so a
    // hostile rank dies on `Truncated` before memory grows.
    let mut sets = Vec::new();
    for _ in 0..rank {
        let n = r.take_count(4, "lookahead set")?;
        let mut set = BTreeSet::new();
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let s = r.take_u32("lookahead state")?;
            if s as usize >= la_states {
                return Err(invalid("lookahead state", s as usize));
            }
            // Strictly ascending = canonical (what `BTreeSet` iteration
            // emits), which keeps decode→encode byte-stable.
            if prev.is_some_and(|p| p >= s) {
                return Err(ArtifactError::Malformed(
                    "lookahead set not strictly ascending",
                ));
            }
            prev = Some(s);
            set.insert(StateId(s as usize));
        }
        sets.push(set);
    }
    Ok(sets)
}

/// Context for decoding output trees of one transducer.
struct OutCtx<'a> {
    ty: &'a Arc<TreeType>,
    n_states: usize,
    pools: &'a Pools,
    lf_ok: &'a [bool],
}

impl OutCtx<'_> {
    fn read_out(
        &self,
        r: &mut ByteReader<'_>,
        depth: usize,
        rule_rank: usize,
    ) -> Result<Out<LabelAlg>, ArtifactError> {
        if depth > MAX_DEPTH {
            return Err(ArtifactError::Malformed("output tree too deep"));
        }
        match r.take_u8("output tag")? {
            0 => {
                let q = r.take_u32("output call state")? as usize;
                if q >= self.n_states {
                    return Err(invalid("call state", q));
                }
                let i = r.take_u32("output call child")? as usize;
                if i >= rule_rank {
                    return Err(invalid("call child", i));
                }
                Ok(Out::Call(StateId(q), i))
            }
            1 => {
                let c = r.take_u32("output constructor")? as usize;
                if c >= self.ty.ctor_count() {
                    return Err(invalid("constructor", c));
                }
                let f = r.take_u32("label function id")? as usize;
                if f >= self.pools.labelfns.len() {
                    return Err(invalid("label function id", f));
                }
                if !self.lf_ok[f] {
                    return Err(ArtifactError::Malformed(
                        "label function ill-typed for label signature",
                    ));
                }
                let n = r.take_count(1, "output children")?;
                if n != self.ty.rank(CtorId(c)) {
                    return Err(ArtifactError::Malformed("output arity mismatch"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(self.read_out(r, depth + 1, rule_rank)?);
                }
                Ok(Out::node(
                    CtorId(c),
                    self.pools.labelfns[f].clone(),
                    children,
                ))
            }
            t => Err(invalid("output tag", t as usize)),
        }
    }
}

/// Decodes one transducer body of a `version` artifact and compiles its
/// [`Plan`], paying for the plan's tables out of the artifact's
/// remaining `cells`. Everything is validated against the (already
/// decoded) tree type and pools before any panicking constructor is
/// touched.
fn read_sttr_body(
    r: &mut ByteReader<'_>,
    version: u32,
    ty: &Arc<TreeType>,
    alg: &Arc<LabelAlg>,
    pools: &Pools,
    wt: &WellTyped,
    cells: &mut usize,
) -> Result<Plan, ArtifactError> {
    let WellTyped { guard_ok, lf_ok } = wt;

    let n_states = r.take_count(4, "transformation states")?;
    if n_states == 0 {
        return Err(ArtifactError::Malformed("transducer with no states"));
    }
    let mut names = Vec::with_capacity(n_states);
    for _ in 0..n_states {
        names.push(r.take_str("state name")?);
    }
    let initial = r.take_u32("initial state")? as usize;
    if initial >= n_states {
        return Err(invalid("initial state", initial));
    }

    let la_states = r.take_count(4, "lookahead states")?;
    let mut la_names = Vec::with_capacity(la_states);
    for _ in 0..la_states {
        la_names.push(r.take_str("lookahead state name")?);
    }
    let la_initial = r.take_u32("lookahead initial state")? as usize;
    // An empty lookahead STA (the builder default) carries initial 0.
    if la_initial >= la_states.max(1) {
        return Err(invalid("lookahead initial state", la_initial));
    }
    let mut la_rules: Vec<Vec<StaRule>> = Vec::with_capacity(la_states);
    for _ in 0..la_states {
        let cnt = r.take_count(8, "lookahead rules")?;
        let mut rules = Vec::with_capacity(cnt);
        for _ in 0..cnt {
            let (ctor, guard) = read_rule_head(r, ty, pools, guard_ok)?;
            let lookahead = read_la_sets(r, ty.rank(ctor), la_states)?;
            rules.push(StaRule {
                ctor,
                guard,
                lookahead,
            });
        }
        la_rules.push(rules);
    }
    let la = Sta::from_parts(
        ty.clone(),
        alg.clone(),
        la_names,
        la_rules,
        StateId(la_initial),
    );

    let mut b = SttrBuilder::new(ty.clone(), alg.clone()).with_lookahead(la);
    let qs: Vec<StateId> = names.iter().map(|n| b.state(n)).collect();
    let outctx = OutCtx {
        ty,
        n_states,
        pools,
        lf_ok,
    };
    for &q in &qs {
        let cnt = r.take_count(9, "rules")?;
        for _ in 0..cnt {
            let (ctor, guard) = read_rule_head(r, ty, pools, guard_ok)?;
            let rank = ty.rank(ctor);
            let lookahead = read_la_sets(r, rank, la_states)?;
            let output = outctx.read_out(r, 0, rank)?;
            b.rule(q, ctor, guard, lookahead, output);
        }
    }
    let sttr = b.build(StateId(initial));

    // A version-1 body ends with the plan's dispatch tables: group
    // offsets, group rule indices, lookahead group offsets (u32 each)
    // and lookahead (state, rule) pairs. `Plan::compile` derives them
    // again, so they are read past unchecked.
    if version == 1 {
        for (width, what) in [
            (4, "group offsets"),
            (4, "group indices"),
            (4, "lookahead group offsets"),
            (8, "lookahead pairs"),
        ] {
            let n = r.take_count(width, what)?;
            for _ in 0..n * width / 4 {
                r.take_u32(what)?;
            }
        }
    }
    // States and constructors cost a few bytes each, but the plan's
    // dispatch table is their product: without this cap a buffer of a
    // megabyte could ask for billions of cells.
    if !take_cells(cells, &sttr) {
        return Err(ArtifactError::Malformed(
            "plan tables too large for the buffer",
        ));
    }
    Ok(Plan::compile_owned(sttr))
}

/// The plan table cells an artifact of `len` bytes may make the loader
/// allocate, summed over its bodies.
fn cell_budget(len: usize) -> usize {
    len.saturating_mul(CELLS_PER_BYTE)
}

/// Takes the plan table cells of `sttr` from the budget `cells`, or
/// returns false (leaving it unchanged) when they do not fit.
fn take_cells(cells: &mut usize, sttr: &Sttr) -> bool {
    match cells.checked_sub(Plan::table_cells(sttr)) {
        Some(left) => {
            *cells = left;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FusionStrategy;
    use fast_smt::{CmpOp, Formula, Sort, Term};
    use fast_trees::Tree;

    fn ilist() -> (Arc<TreeType>, Arc<LabelAlg>) {
        let ty = TreeType::new(
            "IList",
            LabelSig::single("i", Sort::Int),
            vec![("nil", 0), ("cons", 1)],
        );
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        (ty, alg)
    }

    /// `map x -> x + k` over IList, guarded so two stages stay fusable.
    fn inc(k: i64, name: &str) -> Sttr {
        let (ty, alg) = ilist();
        let nil = ty.ctor_id("nil").unwrap();
        let cons = ty.ctor_id("cons").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state(name);
        b.plain_rule(
            q,
            nil,
            Formula::True,
            Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
        );
        b.plain_rule(
            q,
            cons,
            Formula::cmp(CmpOp::Ge, Term::field(0), Term::int(i64::MIN / 2)),
            Out::node(
                cons,
                LabelFn::new(vec![Term::field(0).add(Term::int(k))]),
                vec![Out::Call(q, 0)],
            ),
        );
        b.build(q)
    }

    fn sample_artifact() -> Artifact {
        let mut b = ArtifactBuilder::new();
        b.add_transducer("inc3", &inc(3, "inc3"));
        b.add_pipeline(
            "chain",
            &["inc1".to_string(), "inc2".to_string()],
            &[Arc::new(inc(1, "inc1")), Arc::new(inc(2, "inc2"))],
        );
        b.build()
    }

    fn sample_tree() -> Tree {
        let (ty, _) = ilist();
        Tree::parse(&ty, "cons[10](cons[4](nil[0]))").unwrap()
    }

    /// Rewrites the header checksum so deliberately corrupted bodies
    /// reach structural validation instead of dying at the checksum.
    fn refix(bytes: &mut [u8]) {
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_outputs_and_bytes() {
        let art = sample_artifact();
        let bytes = art.encode();
        let loaded = Artifact::decode(&bytes).unwrap();

        let t = sample_tree();
        let want = art.transducer("inc3").unwrap().run(&t).unwrap();
        let got = loaded.transducer("inc3").unwrap().run(&t).unwrap();
        assert_eq!(want, got);

        let want = art.pipeline("chain").unwrap().run(&t).unwrap();
        let got = loaded.pipeline("chain").unwrap().run(&t).unwrap();
        assert_eq!(want, got);
        assert_eq!(
            loaded.pipeline("chain").unwrap().report().segments,
            art.pipeline("chain").unwrap().report().segments
        );
        assert_eq!(loaded.pipeline_stages("chain").unwrap().len(), 2);

        // Decode → encode is byte-stable.
        assert_eq!(loaded.encode(), bytes);
    }

    /// `oversized_plan` names the entry `decode` refuses for its plan
    /// tables, and names none when `decode` accepts: a 1000-constructor
    /// type with `n` one-rule transducers fits at `n = 4`, not at
    /// `n = 100`, and the entry named is the first past the budget.
    #[test]
    fn oversized_plan_agrees_with_decode() {
        let names: Vec<String> = (0..1000).map(|i| format!("c{i}")).collect();
        let ty = TreeType::new(
            "Wide",
            LabelSig::single("i", Sort::Int),
            names.iter().map(|n| (n.as_str(), 0)).collect(),
        );
        let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
        let mut b = SttrBuilder::new(ty.clone(), alg);
        let q = b.state("q");
        let c0 = CtorId(0);
        b.plain_rule(
            q,
            c0,
            Formula::True,
            Out::node(c0, LabelFn::identity(1), vec![]),
        );
        let sttr = b.build(q);
        for n in [4, 100] {
            let mut b = ArtifactBuilder::new();
            for k in 0..n {
                b.add_transducer(&format!("t{k:03}"), &sttr);
            }
            let art = b.build();
            let bytes = art.encode();
            match (art.oversized_plan(bytes.len()), Artifact::decode(&bytes)) {
                (None, Ok(_)) => assert_eq!(n, 4),
                (Some(what), Err(ArtifactError::Malformed(_))) => {
                    assert_eq!(n, 100);
                    let mut cells = cell_budget(bytes.len());
                    let fit = (0..n).take_while(|_| take_cells(&mut cells, &sttr)).count();
                    assert_eq!(what, format!("transducer 't{fit:03}'"));
                }
                (what, decoded) => panic!("n = {n}: {what:?} vs {decoded:?}"),
            }
        }
    }

    /// A pipeline report whose boundary verdicts contradict its segments
    /// is rejected: flipping the one boundary of the fused `chain` (and
    /// of a cascaded copy) must not decode.
    #[test]
    fn boundary_verdicts_must_match_segments() {
        let stages = [Arc::new(inc(1, "inc1")), Arc::new(inc(2, "inc2"))];
        for (strategy, n_segments) in [(FusionStrategy::Auto, 1), (FusionStrategy::Never, 2)] {
            let compiled = Pipeline::compile_with(&stages, strategy);
            assert_eq!(compiled.segment_count(), n_segments);
            let segments = (0..n_segments)
                .map(|i| {
                    let (plan, first, last) = compiled.segment(i);
                    let plan = Arc::new(Plan::compile(plan.sttr()));
                    Segment { plan, first, last }
                })
                .collect();
            let mut report = compiled.report().clone();
            report.boundaries[0].fused ^= true;
            let mut art = sample_artifact();
            art.pipelines[0].pipeline = compiled;
            assert!(Artifact::decode(&art.encode()).is_ok());
            art.pipelines[0].pipeline = Pipeline::from_parts(segments, report);
            assert_eq!(
                Artifact::decode(&art.encode()).unwrap_err(),
                ArtifactError::Malformed("boundary verdicts disagree with segments")
            );
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = sample_artifact().encode();
        assert!(matches!(
            Artifact::decode(&bytes[..8]),
            Err(ArtifactError::TooShort)
        ));

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Artifact::decode(&bad),
            Err(ArtifactError::BadMagic)
        ));

        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Artifact::decode(&future),
            Err(ArtifactError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        ));
        let mut zero = bytes.clone();
        zero[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Artifact::decode(&zero),
            Err(ArtifactError::UnsupportedVersion { found: 0, .. })
        ));

        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            Artifact::decode(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let bytes = sample_artifact().encode();
        for len in 0..bytes.len() {
            let mut prefix = bytes[..len].to_vec();
            if len >= HEADER_LEN {
                refix(&mut prefix);
            }
            assert!(
                Artifact::decode(&prefix).is_err(),
                "truncation to {len} bytes decoded successfully"
            );
        }
    }

    /// Assembles an artifact whose transducer body is `craft`, over one
    /// IList-ish type and a one-formula/one-labelfn pool — the harness
    /// for targeted out-of-range payloads.
    fn hostile(craft: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let (ty, _) = ilist();
        let mut tyw = ByteWriter::new();
        tyw.put_u32(1);
        tyw.put_str(ty.name());
        write_sig(&mut tyw, ty.sig());
        tyw.put_u32(ty.ctor_count() as u32);
        for c in ty.ctor_ids() {
            tyw.put_str(ty.ctor_name(c));
            tyw.put_u32(ty.rank(c) as u32);
        }
        let mut fpool = FormulaPool::new();
        fpool.index_of(&fast_smt::intern(Formula::True));
        let mut fw = ByteWriter::new();
        fpool.write(&mut fw);
        let mut lw = ByteWriter::new();
        lw.put_u32(1);
        write_label_fn(&mut lw, &LabelFn::new(vec![Term::int(0)]));
        let mut tw = ByteWriter::new();
        tw.put_u32(1);
        tw.put_str("t");
        tw.put_u32(0); // type index
        craft(&mut tw);
        let mut pw = ByteWriter::new();
        pw.put_u32(0);
        assemble([
            tyw.into_bytes(),
            fw.into_bytes(),
            lw.into_bytes(),
            tw.into_bytes(),
            pw.into_bytes(),
        ])
    }

    /// A minimal valid body: one state "q", no lookahead states, one nil
    /// rule. The arguments choose the initial state, the guard id, and
    /// optionally an output call (to a given state) instead of a node.
    fn body(w: &mut ByteWriter, initial: u32, guard: u32, call_state: Option<u32>) {
        w.put_u32(1); // states
        w.put_str("q");
        w.put_u32(initial);
        w.put_u32(0); // lookahead states
        w.put_u32(0); // lookahead initial
        w.put_u32(1); // rules of q
        w.put_u32(0); // ctor nil
        w.put_u32(guard);
        // nil has rank 0: no lookahead sets; output:
        match call_state {
            Some(q) => {
                w.put_u8(0);
                w.put_u32(q);
                w.put_u32(0); // child 0 of a rank-0 ctor: out of range
            }
            None => {
                w.put_u8(1);
                w.put_u32(0); // nil
                w.put_u32(0); // labelfn 0
                w.put_u32(0); // no children
            }
        }
    }

    #[test]
    fn out_of_range_references_are_rejected() {
        // Baseline: the minimal body is valid.
        let ok = hostile(|w| body(w, 0, 0, None));
        assert!(Artifact::decode(&ok).is_ok());

        let cases: [(&str, Vec<u8>); 3] = [
            ("initial state", hostile(|w| body(w, 7, 0, None))),
            ("guard id", hostile(|w| body(w, 0, 42, None))),
            ("call state/child", hostile(|w| body(w, 0, 0, Some(9)))),
        ];
        for (what, bytes) in cases {
            match Artifact::decode(&bytes) {
                Err(ArtifactError::Invalid { .. } | ArtifactError::Malformed(_)) => {}
                other => panic!("{what}: expected typed rejection, got {other:?}"),
            }
        }
    }
}
