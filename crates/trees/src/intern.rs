//! Global hash-consing of trees.
//!
//! Every [`Tree`] in the process is built through this module: the
//! constructors ([`Tree::new`], [`Tree::leaf`], and everything layered
//! on them — the HTML builders, the generators) intern each node in a
//! process-wide, 16-way-sharded hash-cons table. The s-expression
//! parser ([`Tree::parse`]) first looks whole subtrees up by their
//! structural hash and interns only the nodes it does not find. Each
//! structurally distinct `(ctor, label, children)` node is stored
//! exactly once behind an [`Arc`], and every `Tree` handle carries the
//! canonical node plus:
//!
//! * a **stable 64-bit [`TreeId`]** — equal ids ⇔ structurally equal
//!   trees, for the life of the process. Ids are allocated from a
//!   monotonic counter and *never reused*, which is what makes them
//!   sound memo keys: unlike the raw `Arc` addresses the batch runtime
//!   used before, an id can never be recycled into an alias of a
//!   dropped tree (the interner owns the canonical node, so it is never
//!   dropped at all);
//! * a **precomputed structural hash**, deterministic across runs and
//!   threads (derived from the structure only, never from ids), making
//!   `Hash` O(1) and shard selection consistent.
//!
//! This mirrors `fast_smt::intern` (`Interned<Formula>`), which proved
//! the pattern on guard formulas in PR 1. The full interning contract —
//! what callers may and may not rely on — is written out in
//! `ARCHITECTURE.md` §6 ("Tree interning").
//!
//! # Memory
//!
//! The table is append-only: entries are never evicted, so every
//! structurally distinct tree built during the process stays resident.
//! That is the price of id stability, and it is the same trade
//! `fast-smt` makes for formulas. `intern.misses` therefore *is* the
//! table size.
//!
//! # Telemetry
//!
//! | counter | meaning |
//! |---|---|
//! | `intern.hits` | nodes resolved to an existing canonical node: one per intern call that found its node, plus a parsed subtree's whole size when the parser verifies it at its root |
//! | `intern.misses` | a new canonical node was allocated (= table size) |
//! | `intern.hash_collisions` | two distinct nodes share a 64-bit structural hash |
//! | `intern.contended` | a shard lock was busy and the call had to block |
//!
//! Residency is tracked by gauges, so a windowed view (`fastc watch`,
//! `fast-serve`) can watch it without replaying counters:
//! `intern.resident_nodes.shard00..15` count canonical nodes per shard
//! (their sum equals [`table_len`]; imbalance means a skewed structural
//! hash), and `intern.resident_bytes` estimates the heap bytes the
//! whole table pins ([`resident_bytes`]). Because the table never
//! evicts, these gauges only rise — the point of exposing them is to
//! see *how fast*, which bounded-memory evaluation work needs.

use crate::tree::{Node, Tree, TreeId};
use crate::ty::CtorId;
use fast_smt::{Label, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Number of intern-table shards (matches `fast_smt::intern::SHARDS`).
pub const SHARDS: usize = 16;

/// One canonical node and its id.
struct Entry {
    node: Arc<Node>,
    id: TreeId,
}

/// Buckets keyed by the full 64-bit structural hash; a bucket with more
/// than one entry is a genuine hash collision (counted).
type Shard = HashMap<u64, Vec<Entry>>;

struct Interner {
    shards: [Mutex<Shard>; SHARDS],
    next_id: AtomicU64,
}

fn interner() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        next_id: AtomicU64::new(0),
    })
}

/// A label value as the structural hash and the parser's verification
/// see it: borrowed, so a parsed label can be hashed and compared while
/// its strings still point into the input text.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub(crate) enum ValueRef<'a> {
    Bool(bool),
    Int(i64),
    Str(&'a str),
    Char(char),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(n) => ValueRef::Int(*n),
            Value::Str(s) => ValueRef::Str(s),
            Value::Char(c) => ValueRef::Char(*c),
        }
    }
}

/// Deterministic structural hash of a prospective node: the one hash
/// both [`intern`] and the parser's arena compute, so a parsed subtree
/// can be probed for before any of it is interned. Children contribute
/// their precomputed hashes (not their ids), so the result depends only
/// on structure — the same in every thread and run.
pub(crate) fn structural_hash<'v>(
    ctor: CtorId,
    label: impl ExactSizeIterator<Item = ValueRef<'v>>,
    children: impl Iterator<Item = u64>,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_usize(ctor.0);
    h.write_usize(label.len());
    for v in label {
        v.hash(&mut h);
    }
    for c in children {
        h.write_u64(c);
    }
    h.finish()
}

/// Shard index for a structural hash (top bits, like the solver cache).
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> 60) as usize & (SHARDS - 1)
}

/// Per-shard resident-node gauge names (`&'static` literals, as the
/// registry requires), mirroring the solver cache's shard counters.
static SHARD_GAUGE_NAMES: [&str; SHARDS] = [
    "intern.resident_nodes.shard00",
    "intern.resident_nodes.shard01",
    "intern.resident_nodes.shard02",
    "intern.resident_nodes.shard03",
    "intern.resident_nodes.shard04",
    "intern.resident_nodes.shard05",
    "intern.resident_nodes.shard06",
    "intern.resident_nodes.shard07",
    "intern.resident_nodes.shard08",
    "intern.resident_nodes.shard09",
    "intern.resident_nodes.shard10",
    "intern.resident_nodes.shard11",
    "intern.resident_nodes.shard12",
    "intern.resident_nodes.shard13",
    "intern.resident_nodes.shard14",
    "intern.resident_nodes.shard15",
];

fn shard_gauge(i: usize) -> &'static fast_obs::Gauge {
    static GAUGES: OnceLock<[&'static fast_obs::Gauge; SHARDS]> = OnceLock::new();
    GAUGES.get_or_init(|| std::array::from_fn(|i| fast_obs::gauge(SHARD_GAUGE_NAMES[i])))[i]
}

fn bytes_gauge() -> &'static fast_obs::Gauge {
    static G: OnceLock<&'static fast_obs::Gauge> = OnceLock::new();
    G.get_or_init(|| fast_obs::gauge("intern.resident_bytes"))
}

/// Estimated heap bytes a newly interned node pins for the life of the
/// process: the canonical [`Node`] allocation, its label's field values
/// (plus string heap storage), the child-handle vector, and the bucket
/// [`Entry`] bookkeeping. An estimate — allocator slack and `HashMap`
/// load factor are not modelled — but a stable one, so the
/// `intern.resident_bytes` gauge is comparable across runs.
fn node_bytes(node: &Node) -> u64 {
    let label_heap: usize = node
        .label
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of::<Node>()
        + std::mem::size_of_val(node.label.values())
        + label_heap
        + node.children.len() * std::mem::size_of::<Tree>()
        + std::mem::size_of::<Entry>()) as u64
}

/// Locks shard `i`, counting `intern.contended` when it is busy.
fn lock_shard(i: usize) -> MutexGuard<'static, Shard> {
    let shard = &interner().shards[i];
    match shard.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            fast_obs::count!("intern.contended");
            shard.lock().unwrap_or_else(PoisonError::into_inner)
        }
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
    }
}

/// Interns a node, returning the canonical handle for this structure.
///
/// Children must already be interned handles (they always are — `Tree`
/// cannot be built any other way), so the equality scan compares child
/// ids in O(arity) instead of deep-comparing subtrees.
pub(crate) fn intern(ctor: CtorId, label: Label, children: Vec<Tree>) -> Tree {
    let hash = structural_hash(
        ctor,
        label.values().iter().map(ValueRef::from),
        children.iter().map(Tree::precomputed_hash),
    );
    intern_hashed(hash, ctor, label, children)
}

/// [`intern`] for a caller that already holds the node's
/// [`structural_hash`] (the parser computes it while reading).
pub(crate) fn intern_hashed(hash: u64, ctor: CtorId, label: Label, children: Vec<Tree>) -> Tree {
    let mut shard = lock_shard(shard_of(hash));
    let bucket = shard.entry(hash).or_default();
    for e in bucket.iter() {
        if e.node.ctor == ctor && e.node.children == children && e.node.label == label {
            fast_obs::count!("intern.hits");
            return Tree::from_parts(Arc::clone(&e.node), e.id, hash);
        }
    }
    fast_obs::count!("intern.misses");
    if !bucket.is_empty() {
        fast_obs::count!("intern.hash_collisions");
    }
    let id = TreeId(interner().next_id.fetch_add(1, Ordering::Relaxed));
    let node = Arc::new(Node {
        ctor,
        label,
        children,
    });
    shard_gauge(shard_of(hash)).add(1);
    bytes_gauge().add(node_bytes(&node));
    bucket.push(Entry {
        node: Arc::clone(&node),
        id,
    });
    Tree::from_parts(node, id, hash)
}

/// The `k`-th canonical node stored under structural hash `hash`, if
/// any (a bucket holds more than one only on a 64-bit hash collision).
/// Buckets are append-only, so `k` indexes the same node on every call.
/// The shard lock is held only for the lookup: the caller verifies the
/// candidate against its own structure after the lock is released.
pub(crate) fn probe(hash: u64, k: usize) -> Option<Tree> {
    let shard = lock_shard(shard_of(hash));
    let e = shard.get(&hash)?.get(k)?;
    Some(Tree::from_parts(Arc::clone(&e.node), e.id, hash))
}

/// Counts `nodes` nodes resolved to existing canonical nodes without an
/// [`intern`] call each: a verified subtree is counted in one add.
pub(crate) fn count_hits(nodes: u64) {
    fast_obs::count!("intern.hits", nodes);
}

/// Number of distinct trees currently interned (all shards). Equals the
/// process-lifetime `intern.misses` count: the table never evicts.
pub fn table_len() -> usize {
    interner()
        .shards
        .iter()
        .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
        .sum()
}

/// Resident canonical nodes per shard (sums to [`table_len`]) — the
/// live readings behind the `intern.resident_nodes.shard*` gauges,
/// counted from the table itself rather than the gauges.
pub fn shard_lens() -> [usize; SHARDS] {
    std::array::from_fn(|i| {
        interner().shards[i]
            .lock()
            .unwrap()
            .values()
            .map(Vec::len)
            .sum()
    })
}

/// Estimated heap bytes pinned by the intern table — the current
/// reading of the `intern.resident_bytes` gauge.
pub fn resident_bytes() -> u64 {
    bytes_gauge().get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::{LabelSig, Sort};
    use std::sync::Arc as StdArc;

    fn bt() -> StdArc<crate::ty::TreeType> {
        crate::ty::TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        )
    }

    #[test]
    fn interning_dedupes_and_ids_are_stable() {
        let ty = bt();
        let leaf = || Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_242i64));
        let a = leaf();
        let b = leaf();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.id(), b.id());
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        let c = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_243i64));
        assert_ne!(a.id(), c.id());
        assert!(!a.ptr_eq(&c));
    }

    #[test]
    fn residency_gauges_track_the_table() {
        let ty = bt();
        let before_nodes = table_len();
        let before_bytes = resident_bytes();
        // Two distinct new structures, one re-intern (no growth).
        let a = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(555_000_111i64));
        let _b = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(555_000_112i64),
            vec![a.clone(), a.clone()],
        );
        let _a2 = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(555_000_111i64));
        // Sibling tests intern concurrently, so totals are ≥, not ==.
        assert!(table_len() >= before_nodes + 2);
        assert!(resident_bytes() >= before_bytes + 2 * std::mem::size_of::<Node>() as u64);
        // When no concurrent interning lands mid-check (two identical
        // per-shard readings bracket the snapshot), the gauges must
        // agree with the table exactly.
        let lens_before = shard_lens();
        let snap = fast_obs::snapshot();
        let lens_after = shard_lens();
        if lens_before == lens_after {
            assert_eq!(
                snap.gauge_sum_prefix("intern.resident_nodes.") as usize,
                lens_after.iter().sum::<usize>(),
            );
            for (i, name) in SHARD_GAUGE_NAMES.iter().enumerate() {
                assert_eq!(snap.gauge(name) as usize, lens_after[i], "shard {i}");
            }
        }
    }

    #[test]
    fn table_len_is_monotonic() {
        let ty = bt();
        let before = table_len();
        // A label value chosen to be unique to this test.
        let t = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(987_654_321i64));
        let after = table_len();
        assert!(after > before, "new structure must grow the table");
        // Sibling tests intern concurrently, so the table length alone
        // cannot show that re-interning added nothing; the id can.
        let t2 = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(987_654_321i64));
        assert_eq!(
            t2.id(),
            t.id(),
            "re-interning must reuse the canonical node"
        );
        assert!(table_len() >= after, "the table never shrinks");
    }
}
