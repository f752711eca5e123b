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
//! # Table layout
//!
//! Each shard is an open-addressed table keyed by the structural hash.
//! Its entries — hash, id, node — sit inline in the slot array, so a
//! probe that lands on another hash is rejected on one `u64` compare,
//! without touching the node. Two distinct nodes under one 64-bit hash
//! (a true collision, counted in `intern.hash_collisions`) are the only
//! case that leaves the slot array: the first stays inline, the rest go
//! to a small per-shard overflow map, in insertion order.
//!
//! Labels come from clients, so a crafted input could aim many nodes at
//! one slot run. The shard and the first slot are therefore not read
//! off the structural hash itself but off a mix of it with a random key
//! drawn once per process: without the key, an attacker cannot tell
//! which hashes share a slot.
//!
//! # The hit path
//!
//! `intern::intern` is the one entry every construction path ends in: the
//! caller hands it the node's hash, constructor, label and child
//! handles, and it compares them in place against the canonical node
//! under that hash. The label and the children are only *read* on a
//! hit: [`Tree::new`] takes them as [`Cow`]s, so a caller that borrows
//! them (the runtime, for a label it copies from the input) allocates
//! nothing, and a caller that owns them (the parser, whose arena
//! already missed) moves them into the node on a miss without a clone.
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
//! | `intern.hash_collisions` | a new node's 64-bit structural hash was already taken by another node (it went to the overflow map) |
//! | `intern.contended` | a shard lock was busy and the call had to block |
//!
//! Residency is tracked by gauges, so a windowed view (`fast-serve`'s
//! `stats` and SLO) can read it without replaying counters:
//! `intern.resident_nodes.shard00..15` count canonical nodes per shard
//! (their sum equals [`table_len`]; imbalance means a skewed slot
//! mix), and `intern.resident_bytes` estimates the heap bytes the
//! whole table pins ([`resident_bytes`]): each node's own allocations,
//! plus every shard's slot array at its current capacity. Because the
//! table never evicts, these gauges only rise — the point of exposing
//! them is to see *how fast*, which bounded-memory evaluation work
//! needs.

use crate::tree::{Node, Tree, TreeId};
use crate::ty::CtorId;
use fast_smt::{Label, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Number of intern-table shards (matches `fast_smt::intern::SHARDS`).
pub const SHARDS: usize = 16;

/// Slots a shard allocates on its first insert.
const MIN_SLOTS: usize = 16;

/// One canonical node, its id and its structural hash. In the slot
/// array the hash is read first, so a probe that lands on another hash
/// never dereferences the node.
struct Entry {
    hash: u64,
    id: TreeId,
    node: Arc<Node>,
}

/// One shard: an open-addressed table of inline entries keyed by
/// structural hash, with linear probing from the keyed mix of the hash.
#[derive(Default)]
struct Shard {
    /// Empty, or a power-of-two number of slots at most 3/4 full.
    slots: Box<[Option<Entry>]>,
    /// Occupied slots.
    len: usize,
    /// The second and later nodes under a hash whose first node is in
    /// `slots` (true 64-bit collisions), in insertion order.
    overflow: HashMap<u64, Vec<Entry>>,
}

impl Shard {
    /// The index of the slot holding `hash`, or of the empty slot where
    /// it would go (`mixed` is the hash's keyed mix). The array must not
    /// be empty.
    fn find(&self, hash: u64, mixed: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = mixed as usize & mask;
        while let Some(e) = &self.slots[i] {
            if e.hash == hash {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// The first node stored under `hash`.
    fn first(&self, hash: u64, mixed: u64) -> Option<&Entry> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.find(hash, mixed)].as_ref()
    }

    /// The node under `hash` that `is` accepts.
    fn get(&self, hash: u64, mixed: u64, is: impl Fn(&Node) -> bool) -> Option<&Entry> {
        let first = self.first(hash, mixed)?;
        if is(&first.node) {
            return Some(first);
        }
        self.overflow.get(&hash)?.iter().find(|e| is(&e.node))
    }

    /// Stores a new node; true when its hash was taken (a collision).
    fn insert(&mut self, key: &Key, e: Entry) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(key);
        }
        let i = self.find(e.hash, key.mix(e.hash));
        if self.slots[i].is_some() {
            bytes_gauge().add(std::mem::size_of::<Entry>() as u64);
            self.overflow.entry(e.hash).or_default().push(e);
            return true;
        }
        self.slots[i] = Some(e);
        self.len += 1;
        false
    }

    /// Doubles the slot array and re-places every entry.
    fn grow(&mut self, key: &Key) {
        let cap = (self.slots.len() * 2).max(MIN_SLOTS);
        let slot = std::mem::size_of::<Option<Entry>>() as u64;
        bytes_gauge().add((cap - self.slots.len()) as u64 * slot);
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        for e in old.into_vec().into_iter().flatten() {
            let i = self.find(e.hash, key.mix(e.hash));
            self.slots[i] = Some(e);
        }
    }

    /// Canonical nodes in the shard.
    fn nodes(&self) -> usize {
        self.len + self.overflow.values().map(Vec::len).sum::<usize>()
    }
}

/// The per-process random key that picks a hash's shard and first slot.
struct Key(u64, u64);

impl Key {
    fn random() -> Key {
        let s = RandomState::new();
        Key(s.hash_one(0u64), s.hash_one(1u64) | 1)
    }

    /// A keyed folded multiply of `hash`: the shard is its top bits, the
    /// first slot its low bits.
    #[inline]
    fn mix(&self, hash: u64) -> u64 {
        let p = u128::from(hash ^ self.0) * u128::from(self.1);
        p as u64 ^ (p >> 64) as u64
    }
}

struct Interner {
    shards: [Mutex<Shard>; SHARDS],
    next_id: AtomicU64,
    key: Key,
}

fn interner() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::default()),
        next_id: AtomicU64::new(0),
        key: Key::random(),
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
/// both [`Tree::new`] and the parser's arena compute, so a parsed
/// subtree can be probed for before any of it is interned. Children
/// contribute their precomputed hashes (not their ids), so the result
/// depends only on structure — the same in every thread and run.
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

/// Shard index for a hash's keyed mix (its top bits).
#[inline]
fn shard_of(mixed: u64) -> usize {
    (mixed >> 60) as usize & (SHARDS - 1)
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

/// Estimated heap bytes a newly interned node's own allocations pin for
/// the life of the process: the `Arc` allocation (reference counts and
/// [`Node`]), its label's field values (plus string heap storage) and
/// the child-handle vector. Its inline entry is part of the shard's slot
/// array, which [`Shard::grow`] accounts for whole. An estimate —
/// allocator slack is not modelled — but a stable one, so the
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
    (2 * std::mem::size_of::<usize>()
        + std::mem::size_of::<Node>()
        + std::mem::size_of_val(node.label.values())
        + label_heap
        + node.children.len() * std::mem::size_of::<Tree>()) as u64
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

/// Interns the node `(ctor, label, children)` whose [`structural_hash`]
/// is `hash`, returning the canonical handle for this structure.
///
/// A hit compares the parts in place and drops them; only a miss builds
/// the owned node, moving owned parts in and copying borrowed ones.
/// Children must already be interned handles (they always are — `Tree`
/// cannot be built any other way), so the comparison checks child ids
/// in O(arity) instead of deep-comparing subtrees.
pub(crate) fn intern(
    hash: u64,
    ctor: CtorId,
    label: Cow<'_, Label>,
    children: Cow<'_, [Tree]>,
) -> Tree {
    let table = interner();
    let mixed = table.key.mix(hash);
    let mut shard = lock_shard(shard_of(mixed));
    let found = shard.get(hash, mixed, |n| {
        n.ctor == ctor && n.children[..] == children[..] && n.label == *label
    });
    if let Some(e) = found {
        fast_obs::count!("intern.hits");
        return Tree::from_parts(Arc::clone(&e.node), e.id, hash);
    }
    fast_obs::count!("intern.misses");
    let id = TreeId(table.next_id.fetch_add(1, Ordering::Relaxed));
    let node = Arc::new(Node {
        ctor,
        label: label.into_owned(),
        children: children.into_owned(),
    });
    shard_gauge(shard_of(mixed)).add(1);
    bytes_gauge().add(node_bytes(&node));
    let entry = Entry {
        hash,
        id,
        node: Arc::clone(&node),
    };
    if shard.insert(&table.key, entry) {
        fast_obs::count!("intern.hash_collisions");
    }
    Tree::from_parts(node, id, hash)
}

/// The `k`-th canonical node stored under structural hash `hash`, if
/// any (there is more than one only on a 64-bit hash collision: `k = 0`
/// is the inline entry, the rest are the overflow in insertion order).
/// The table is append-only, so `k` indexes the same node on every
/// call. The shard lock is held only for the lookup: the caller
/// verifies the candidate against its own structure after the lock is
/// released.
pub(crate) fn probe(hash: u64, k: usize) -> Option<Tree> {
    let mixed = interner().key.mix(hash);
    let shard = lock_shard(shard_of(mixed));
    let first = shard.first(hash, mixed)?;
    let e = match k {
        0 => first,
        _ => shard.overflow.get(&hash)?.get(k - 1)?,
    };
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
    shard_lens().iter().sum()
}

/// Resident canonical nodes per shard (sums to [`table_len`]) — the
/// live readings behind the `intern.resident_nodes.shard*` gauges,
/// counted from the table itself rather than the gauges.
pub fn shard_lens() -> [usize; SHARDS] {
    std::array::from_fn(|i| {
        interner().shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .nodes()
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

    /// Two distinct nodes forced under one structural hash: the first
    /// is the inline entry, the second goes to the overflow, and both
    /// stay findable in insertion order (the parser's `lookup` walks
    /// `probe(hash, 0..)`). The hash is not the nodes' own, so the label
    /// values are used by no other test.
    #[test]
    fn colliding_nodes_keep_their_ids_and_order() {
        let ty = bt();
        let l = ty.ctor_id("L").unwrap();
        let hash = 0x0123_4567_89ab_cdef;
        let node = |n: i64| intern(hash, l, Cow::Owned(Label::single(n)), Cow::Borrowed(&[]));
        let collisions = || fast_obs::snapshot().get("intern.hash_collisions");
        let before = collisions();
        let a = node(606_000_001);
        let b = node(606_000_002);
        assert_ne!(a.id(), b.id());
        assert_eq!(collisions(), before + 1);
        assert_eq!(node(606_000_001).id(), a.id());
        assert_eq!(node(606_000_002).id(), b.id());
        assert_eq!(probe(hash, 0).map(|t| t.id()), Some(a.id()));
        assert_eq!(probe(hash, 1).map(|t| t.id()), Some(b.id()));
        assert!(probe(hash, 2).is_none());
        assert_eq!(
            collisions(),
            before + 1,
            "re-interning collides with nothing"
        );
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
