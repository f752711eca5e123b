//! Global hash-consing of trees and their labels.
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
//! * a **precomputed structural hash**, the same in every thread of the
//!   process (derived from the structure only, never from ids), making
//!   `Hash` O(1). It is keyed per process (see *Hashing*), so it is
//!   not the same from one run to the next.
//!
//! Labels are interned too, in a second table of the same kind: each
//! distinct label is stored once, with its hash and a stable,
//! never-reused [`LabelId`], and a node holds that canonical entry
//! ([`InternedLabel`]) instead of a label of its own.
//!
//! This mirrors `fast_smt::intern` (`Interned<Formula>`), which proved
//! the pattern on guard formulas. The full interning contract — what
//! callers may and may not rely on — is written out in `ARCHITECTURE.md`
//! §6 ("Tree interning").
//!
//! # Table layout
//!
//! Both tables are one implementation, generic over the entry. Each
//! shard is an open-addressed table keyed by the entry's 64-bit hash.
//! The entries — hash, id, canonical value — sit inline in the slot
//! array, so a probe that lands on another hash is rejected on one
//! `u64` compare, without touching the value. Two distinct values under
//! one 64-bit hash (a true collision, counted in
//! `intern.hash_collisions`) are the only case that leaves the slot
//! array: the first stays inline, the rest go to a small per-shard
//! overflow map, in insertion order.
//!
//! # Hashing
//!
//! Every hash is a keyed folded multiply — the 128-bit product of two
//! 64-bit words, its halves xored — under two words drawn once per
//! process from `RandomState`. A label's hash folds in its values (the
//! parser computes it from the label still borrowed from the input); a
//! node's hash folds in its constructor, its label's hash and its
//! children's hashes. Each is computed once: the label's when it is
//! interned, the node's from those. The shard is the hash's top bits
//! and the first slot its low bits.
//!
//! Labels come from clients, so a crafted input could aim many values at
//! one slot run. The key is what stops it: without the key an attacker
//! cannot compute which labels share a hash or a slot, so collisions
//! cannot be prepared offline. The hash is not a cryptographic MAC; an
//! attacker who could measure probe times of many chosen inputs might
//! learn something about the key. A collision never breaks the table,
//! only slows the probes that meet it.
//!
//! # The hit path
//!
//! `intern::intern` is the one entry every node construction ends in:
//! the caller hands it the node's hash, constructor, canonical label and
//! child handles, and it compares them in place against the canonical
//! node under that hash — the constructor, the label by pointer, and the
//! child ids. The children are only *read* on a hit: [`Tree::new`]
//! takes them as [`Cow`]s, so a caller that borrows them allocates
//! nothing, and a caller that owns them moves them into the node on a
//! miss without a clone. The label is resolved first: an owned or
//! borrowed label through the label table (a hit allocates nothing), a
//! tree's [`InternedLabel`] not at all — which is how the runtime builds
//! a node whose label it copies from the input.
//!
//! # Memory
//!
//! The tables are append-only: entries are never evicted, so every
//! structurally distinct tree and label built during the process stays
//! resident. That is the price of id stability, and it is the same
//! trade `fast-smt` makes for formulas. `intern.misses` therefore *is*
//! the node table's size and `intern.label_misses` the label table's.
//!
//! # Telemetry
//!
//! | counter | meaning |
//! |---|---|
//! | `intern.hits` | nodes resolved to an existing canonical node: one per intern call that found its node, plus a parsed subtree's whole size when the parser verifies it at its root |
//! | `intern.misses` | a new canonical node was allocated (= node table size) |
//! | `intern.label_hits` | a label lookup found its canonical label (a tree's [`InternedLabel`] needs no lookup and counts nothing) |
//! | `intern.label_misses` | a new canonical label was allocated (= label table size) |
//! | `intern.hash_collisions` | a new node's or label's 64-bit hash was already taken by another one (it went to the overflow map) |
//! | `intern.contended` | a shard lock of either table was busy and the call had to block |
//!
//! Residency is tracked by gauges, so a windowed view (`fast-serve`'s
//! `stats` and SLO) can read it without replaying counters:
//! `intern.resident_nodes.shard00..15` count canonical nodes per shard
//! (their sum equals [`table_len`]; imbalance means a skewed hash), and
//! `intern.resident_bytes` estimates the heap bytes both tables pin
//! ([`resident_bytes`]): each node's own allocations, each label's once
//! (in the label table, however many nodes carry it), plus every
//! shard's slot array at its current capacity. Because the tables never
//! evict, these gauges only rise — the point of exposing them is to see
//! *how fast*, which bounded-memory evaluation work needs.

use crate::tree::{CanonLabel, InternedLabel, LabelId, Node, Tree, TreeId};
use crate::ty::CtorId;
use fast_smt::{Label, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Number of shards per table (matches `fast_smt::intern::SHARDS`).
pub const SHARDS: usize = 16;

/// Slots a shard allocates on its first insert.
const MIN_SLOTS: usize = 16;

/// An entry of a keyed table, stored inline in its shard's slot array.
trait Keyed {
    /// The 64-bit hash the entry is stored under.
    fn hash(&self) -> u64;
}

/// A node-table entry: one canonical node, its id and its structural
/// hash. The hash is read first, so a probe that lands on another hash
/// never dereferences the node.
struct NodeEntry {
    hash: u64,
    id: TreeId,
    node: Arc<Node>,
}

impl Keyed for NodeEntry {
    fn hash(&self) -> u64 {
        self.hash
    }
}

/// A label-table entry: the canonical label's hash, inline, and the
/// label itself (which carries its id and hash for the nodes pointing
/// at it).
struct LabelEntry {
    hash: u64,
    label: InternedLabel,
}

impl Keyed for LabelEntry {
    fn hash(&self) -> u64 {
        self.hash
    }
}

/// One shard: an open-addressed table of inline entries keyed by their
/// hash, with linear probing from the hash's low bits.
struct Shard<E> {
    /// Empty, or a power-of-two number of slots at most 3/4 full.
    slots: Box<[Option<E>]>,
    /// Occupied slots.
    len: usize,
    /// The second and later entries under a hash whose first entry is
    /// in `slots` (true 64-bit collisions), in insertion order.
    overflow: HashMap<u64, Vec<E>>,
}

impl<E> Default for Shard<E> {
    fn default() -> Self {
        Shard {
            slots: Box::default(),
            len: 0,
            overflow: HashMap::new(),
        }
    }
}

impl<E: Keyed> Shard<E> {
    /// The index of the slot holding `hash`, or of the empty slot where
    /// it would go. The array must not be empty.
    fn find(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while let Some(e) = &self.slots[i] {
            if e.hash() == hash {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// The first entry stored under `hash`.
    fn first(&self, hash: u64) -> Option<&E> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.find(hash)].as_ref()
    }

    /// The entry under `hash` that `is` accepts.
    fn get(&self, hash: u64, is: impl Fn(&E) -> bool) -> Option<&E> {
        let first = self.first(hash)?;
        if is(first) {
            return Some(first);
        }
        self.overflow.get(&hash)?.iter().find(|e| is(e))
    }

    /// The `k`-th entry under `hash`: `k = 0` is the inline one, the
    /// rest are the overflow in insertion order.
    fn nth(&self, hash: u64, k: usize) -> Option<&E> {
        let first = self.first(hash)?;
        match k {
            0 => Some(first),
            _ => self.overflow.get(&hash)?.get(k - 1),
        }
    }

    /// Stores a new entry; true when its hash was taken (a collision).
    fn insert(&mut self, e: E) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.find(e.hash());
        if self.slots[i].is_some() {
            bytes_gauge().add(std::mem::size_of::<E>() as u64);
            self.overflow.entry(e.hash()).or_default().push(e);
            return true;
        }
        self.slots[i] = Some(e);
        self.len += 1;
        false
    }

    /// Doubles the slot array and re-places every entry.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(MIN_SLOTS);
        let slot = std::mem::size_of::<Option<E>>() as u64;
        bytes_gauge().add((cap - self.slots.len()) as u64 * slot);
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        for e in old.into_vec().into_iter().flatten() {
            let i = self.find(e.hash());
            self.slots[i] = Some(e);
        }
    }
}

/// A sharded keyed table and the counter its ids come from.
struct Table<E> {
    shards: [Mutex<Shard<E>>; SHARDS],
    next_id: AtomicU64,
}

impl<E> Table<E> {
    fn new() -> Table<E> {
        Table {
            shards: std::array::from_fn(|_| Mutex::default()),
            next_id: AtomicU64::new(0),
        }
    }

    /// A fresh id, never handed out before.
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Locks shard `i`, counting `intern.contended` when it is busy.
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<E>> {
        let shard = &self.shards[i];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                fast_obs::count!("intern.contended");
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Entries per shard, counted from the table itself.
    fn shard_lens(&self) -> [usize; SHARDS] {
        std::array::from_fn(|i| {
            let shard = self.shards[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shard.len + shard.overflow.values().map(Vec::len).sum::<usize>()
        })
    }
}

fn nodes() -> &'static Table<NodeEntry> {
    static TABLE: OnceLock<Table<NodeEntry>> = OnceLock::new();
    TABLE.get_or_init(Table::new)
}

fn labels() -> &'static Table<LabelEntry> {
    static TABLE: OnceLock<Table<LabelEntry>> = OnceLock::new();
    TABLE.get_or_init(Table::new)
}

/// The per-process hash key: a starting word and an odd multiplier.
struct Key(u64, u64);

fn key() -> &'static Key {
    static KEY: OnceLock<Key> = OnceLock::new();
    KEY.get_or_init(|| {
        let s = RandomState::new();
        Key(s.hash_one(0u64), s.hash_one(1u64) | 1)
    })
}

/// A keyed folded-multiply hash under construction: each word written
/// is xored into the state, which is then multiplied by the key's
/// multiplier, the 128-bit product's halves xored.
struct Fold {
    h: u64,
    mul: u64,
}

impl Fold {
    #[inline]
    fn new() -> Fold {
        let k = key();
        Fold { h: k.0, mul: k.1 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let p = u128::from(self.h ^ w) * u128::from(self.mul);
        self.h = p as u64 ^ (p >> 64) as u64;
    }
}

/// A label value as the label hash and the parser's verification see
/// it: borrowed, so a parsed label can be hashed and compared while its
/// strings still point into the input text.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The keyed hash of a label with the given values: the one hash both
/// [`Tree::new`] and the parser's arena compute (see [`LabelHasher`]).
pub(crate) fn label_hash<'v>(values: impl ExactSizeIterator<Item = ValueRef<'v>>) -> u64 {
    let mut h = LabelHasher::new(values.len());
    for v in values {
        h.value(v);
    }
    h.finish()
}

/// [`label_hash`] one value at a time, so the parser can hash each
/// value as it reads it. The arity is written first, then each value as
/// a word of its sort tag and small payload (a string's length), then
/// an int's value or a string's bytes, eight to a word, so no two
/// labels write the same words.
pub(crate) struct LabelHasher(Fold);

impl LabelHasher {
    #[inline]
    pub(crate) fn new(arity: usize) -> LabelHasher {
        let mut h = Fold::new();
        h.word(arity as u64);
        LabelHasher(h)
    }

    #[inline]
    pub(crate) fn value(&mut self, v: ValueRef<'_>) {
        let h = &mut self.0;
        match v {
            ValueRef::Bool(b) => h.word(u64::from(b) << 8),
            ValueRef::Int(n) => {
                h.word(1);
                h.word(n as u64);
            }
            ValueRef::Str(s) => {
                h.word((s.len() as u64) << 8 | 2);
                let mut chunks = s.as_bytes().chunks_exact(8);
                for c in &mut chunks {
                    h.word(u64::from_le_bytes(c.try_into().expect("eight bytes")));
                }
                let rest = chunks.remainder();
                if !rest.is_empty() {
                    let mut last = [0; 8];
                    last[..rest.len()].copy_from_slice(rest);
                    h.word(u64::from_le_bytes(last));
                }
            }
            ValueRef::Char(c) => h.word(u64::from(c) << 8 | 3),
        }
    }

    #[inline]
    pub(crate) fn finish(self) -> u64 {
        self.0.h
    }
}

/// The keyed structural hash of a prospective node: the one hash both
/// [`Tree::new`] and the parser's arena compute, so a parsed subtree
/// can be probed for before any of it is interned. Children contribute
/// their precomputed hashes (not their ids), so the result depends only
/// on structure and the process key — the same in every thread.
pub(crate) fn node_hash(ctor: CtorId, label: u64, children: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fold::new();
    h.word(ctor.0 as u64);
    h.word(label);
    for c in children {
        h.word(c);
    }
    h.h
}

/// Shard index for a hash (its top bits).
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

/// Estimated heap bytes of one reference-counted allocation holding a
/// `T` (the two counts and the value).
fn arc_bytes<T>() -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()
}

/// Estimated heap bytes a newly interned node's own allocations pin for
/// the life of the process: the `Arc` allocation and the child-handle
/// vector. Its label is counted once, by [`label_bytes`]; its inline
/// entry is part of the shard's slot array, which [`Shard::grow`]
/// accounts for whole. An estimate — allocator slack is not modelled —
/// but a stable one, so the `intern.resident_bytes` gauge is comparable
/// across runs.
fn node_bytes(node: &Node) -> u64 {
    (arc_bytes::<Node>() + node.children.len() * std::mem::size_of::<Tree>()) as u64
}

/// Estimated heap bytes a newly interned label pins: the `Arc`
/// allocation, its field values and their string heap storage.
fn label_bytes(label: &Label) -> u64 {
    let strings: usize = label
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum();
    (arc_bytes::<CanonLabel>() + std::mem::size_of_val(label.values()) + strings) as u64
}

/// Interns the label `parts` whose [`label_hash`] is `hash`, returning
/// its canonical handle. `eq` tells whether a canonical label equals
/// the parts; only a miss calls `make` to turn them into an owned label.
pub(crate) fn intern_label<P>(
    hash: u64,
    parts: P,
    eq: impl Fn(&P, &Label) -> bool,
    make: impl FnOnce(P) -> Label,
) -> InternedLabel {
    let table = labels();
    let mut shard = table.lock(shard_of(hash));
    if let Some(e) = shard.get(hash, |e| eq(&parts, e.label.label())) {
        fast_obs::count!("intern.label_hits");
        return e.label.clone();
    }
    fast_obs::count!("intern.label_misses");
    let label = make(parts);
    bytes_gauge().add(label_bytes(&label));
    let label = InternedLabel(Arc::new(CanonLabel {
        hash,
        id: LabelId(table.next_id()),
        label,
    }));
    let entry = LabelEntry {
        hash,
        label: label.clone(),
    };
    if shard.insert(entry) {
        fast_obs::count!("intern.hash_collisions");
    }
    label
}

/// Interns the node `(ctor, label, children)` whose [`node_hash`] is
/// `hash`, returning the canonical handle for this structure.
///
/// A hit compares the parts in place and drops them; only a miss builds
/// the owned node, moving owned children in and copying borrowed ones.
/// The label is canonical and the children are interned handles (they
/// always are — `Tree` cannot be built any other way), so the
/// comparison is a pointer compare and O(arity) id compares, never a
/// deep compare.
pub(crate) fn intern(
    hash: u64,
    ctor: CtorId,
    label: &InternedLabel,
    children: Cow<'_, [Tree]>,
) -> Tree {
    let table = nodes();
    let mut shard = table.lock(shard_of(hash));
    let found = shard.get(hash, |e| {
        e.node.ctor == ctor && e.node.label.ptr_eq(label) && e.node.children[..] == children[..]
    });
    if let Some(e) = found {
        fast_obs::count!("intern.hits");
        return Tree::from_parts(Arc::clone(&e.node), e.id, hash);
    }
    fast_obs::count!("intern.misses");
    let id = TreeId(table.next_id());
    let node = Arc::new(Node {
        ctor,
        label: label.clone(),
        children: children.into_owned(),
    });
    shard_gauge(shard_of(hash)).add(1);
    bytes_gauge().add(node_bytes(&node));
    let entry = NodeEntry {
        hash,
        id,
        node: Arc::clone(&node),
    };
    if shard.insert(entry) {
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
    let shard = nodes().lock(shard_of(hash));
    let e = shard.nth(hash, k)?;
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
    nodes().shard_lens()
}

/// Number of distinct labels currently interned. Equals the
/// process-lifetime `intern.label_misses` count: the label table never
/// evicts either.
pub fn label_table_len() -> usize {
    labels().shard_lens().iter().sum()
}

/// Estimated heap bytes pinned by the node and label tables — the
/// current reading of the `intern.resident_bytes` gauge.
pub fn resident_bytes() -> u64 {
    bytes_gauge().get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::LabelArg;
    use fast_smt::{LabelSig, Sort};
    use std::sync::Arc as StdArc;

    fn bt() -> StdArc<crate::ty::TreeType> {
        crate::ty::TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        )
    }

    /// The label `n` interned under `hash` instead of its own hash.
    fn label_under(hash: u64, n: i64) -> InternedLabel {
        intern_label(hash, Label::single(n), |l, c| l == c, |l| l)
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
        assert_eq!(a.label_id(), b.label_id());
        let c = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_243i64));
        assert_ne!(a.id(), c.id());
        assert_ne!(a.label_id(), c.label_id());
        assert!(!a.ptr_eq(&c));
        // One label under two constructors: two nodes, one label entry.
        let n = Tree::new(ty.ctor_id("N").unwrap(), a.label(), vec![a.clone(), c]);
        assert_ne!(n.id(), a.id());
        assert!(n.interned_label().ptr_eq(a.interned_label()));
    }

    /// A label's bytes are counted once, in the label table: a second
    /// node carrying it adds only the node's own bytes.
    #[test]
    fn residency_gauges_track_the_table() {
        let ty = bt();
        let (l, n) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
        let before_nodes = table_len();
        let before_labels = label_table_len();
        let before_bytes = resident_bytes();
        // Two distinct new structures over one new label, one re-intern
        // (no growth).
        let a = Tree::leaf(l, Label::single(555_000_111i64));
        let _b = Tree::new(n, Label::single(555_000_111i64), vec![a.clone(), a.clone()]);
        let _a2 = Tree::leaf(l, Label::single(555_000_111i64));
        // Sibling tests intern concurrently, so totals are ≥, not ==.
        assert!(table_len() >= before_nodes + 2);
        assert!(label_table_len() > before_labels);
        let node = |kids: usize| (arc_bytes::<Node>() + kids * std::mem::size_of::<Tree>()) as u64;
        let label = (arc_bytes::<CanonLabel>() + std::mem::size_of::<Value>()) as u64;
        assert!(resident_bytes() >= before_bytes + node(0) + node(2) + label);
        assert_eq!(label_bytes(a.label()), label);
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
        let node = |n: i64| {
            let label = LabelArg::from(Label::single(n)).intern();
            intern(hash, l, &label, Cow::Borrowed(&[]))
        };
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

    /// The label table's twin: two distinct labels forced under one
    /// label hash keep distinct ids, each re-interns to its own entry,
    /// and nodes built over them stay distinct. The hash is no label's
    /// own, so the values are used by no other test.
    #[test]
    fn colliding_labels_keep_their_ids() {
        let ty = bt();
        let l = ty.ctor_id("L").unwrap();
        let hash = 0x0fed_cba9_8765_4321;
        let collisions = || fast_obs::snapshot().get("intern.hash_collisions");
        let before = collisions();
        let a = label_under(hash, 707_000_001);
        let b = label_under(hash, 707_000_002);
        assert_ne!(a.id(), b.id());
        assert!(!a.ptr_eq(&b));
        assert_eq!(collisions(), before + 1);
        assert!(label_under(hash, 707_000_001).ptr_eq(&a));
        assert!(label_under(hash, 707_000_002).ptr_eq(&b));
        assert_eq!(
            collisions(),
            before + 1,
            "re-interning collides with nothing"
        );
        let (ta, tb) = (Tree::leaf(l, &a), Tree::leaf(l, &b));
        assert_ne!(ta.id(), tb.id());
        assert_eq!(ta.label_id(), a.id());
        assert_eq!(ta.label(), &Label::single(707_000_001i64));
        assert_eq!(tb.label(), &Label::single(707_000_002i64));
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

    /// Label hashes depend on the values only: the same label hashes the
    /// same whether its values are owned or borrowed, and the sort tags
    /// keep a value of one sort from hashing as another.
    #[test]
    fn label_hash_separates_sorts() {
        let h = |vals: &[Value]| label_hash(vals.iter().map(ValueRef::from));
        let all = [
            vec![Value::Bool(false)],
            vec![Value::Bool(true)],
            vec![Value::Int(0)],
            vec![Value::Int(1)],
            vec![Value::Str(String::new())],
            vec![Value::Str("\0".into())],
            vec![Value::Str("abcdefgh".into())],
            vec![Value::Str("abcdefgh\0".into())],
            vec![Value::Char('\0')],
            vec![Value::Char('a')],
            vec![],
            vec![Value::Int(0), Value::Int(0)],
        ];
        let hashes: Vec<u64> = all.iter().map(|v| h(v)).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(h(&all[6]), h(&all[6].clone()));
    }
}
