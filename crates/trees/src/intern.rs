//! Global hash-consing of trees and their labels.
//!
//! Every [`Tree`] in the process is built through this module: the
//! constructors ([`Tree::new`], [`Tree::leaf`], and everything layered
//! on them — the HTML builders, the generators) intern each node in a
//! process-wide, 16-way-sharded hash-cons table. The s-expression
//! parser ([`Tree::parse`]) first looks whole subtrees up by their
//! structural hash and interns only the nodes it does not find. Each
//! structurally distinct `(ctor, label, children)` node is stored
//! exactly once behind an [`Arc`], and a `Tree` is one pointer to it.
//! The canonical node carries, besides its parts:
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
//! Both tables are one implementation, generic over the canonical value.
//! Each shard is an open-addressed table keyed by the value's 64-bit
//! hash, with linear probing. An entry is the hash and the canonical
//! `Arc`, inline in the slot array (16 bytes), so a probe that lands on
//! another hash is rejected on one `u64` compare, without touching the
//! value. Two distinct values under one 64-bit hash (a true collision,
//! counted in `intern.hash_collisions`) sit in the same probe run: a
//! lookup tests every entry of the run with a matching hash.
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
//! child handles, and it compares them in place against each canonical
//! node under that hash — the constructor, and the label and the
//! children by pointer. The children are only *read* on a hit:
//! [`Tree::new`] takes them as [`Cow`]s, so a caller that borrows them
//! allocates nothing, and a caller that owns them moves them into the
//! node on a miss without a clone. The label is resolved first: an owned or
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
//! | `intern.hash_collisions` | a new node's or label's 64-bit hash was already taken by another one (both stay in the same probe run) |
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

use crate::tree::{CanonLabel, InternedLabel, LabelId, Node, Shape, Tree, TreeId};
use crate::ty::CtorId;
use fast_smt::{Label, Value};
use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Number of shards per table (matches `fast_smt::intern::SHARDS`).
pub const SHARDS: usize = 16;

/// Slots a shard allocates on its first insert.
const MIN_SLOTS: usize = 16;

/// A table entry, inline in its shard's slot array: a canonical value
/// and the hash it is stored under. The hash is read first, so a probe
/// that lands on another hash never dereferences the value.
struct Entry<T> {
    hash: u64,
    canon: Arc<T>,
}

/// One shard: an open-addressed table of inline entries keyed by their
/// hash, with linear probing from the hash's low bits.
struct Shard<T> {
    /// Empty, or a power-of-two number of slots at most 3/4 full.
    slots: Box<[Option<Entry<T>>]>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            slots: Box::default(),
            len: 0,
        }
    }
}

impl<T> Shard<T> {
    /// The values stored under `hash`, in probe order: the entries of
    /// its probe run that carry it.
    fn under(&self, hash: u64) -> impl Iterator<Item = &Arc<T>> {
        let mask = self.slots.len().wrapping_sub(1);
        let home = hash as usize;
        (0..self.slots.len())
            .map_while(move |k| self.slots[home.wrapping_add(k) & mask].as_ref())
            .filter(move |e| e.hash == hash)
            .map(|e| &e.canon)
    }

    /// The first empty slot of `hash`'s probe run, and whether the run
    /// holds another entry under `hash`. The array must not be empty.
    fn vacancy(&self, hash: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let (mut i, mut taken) = (hash as usize & mask, false);
        while let Some(e) = &self.slots[i] {
            taken |= e.hash == hash;
            i = (i + 1) & mask;
        }
        (i, taken)
    }

    /// Stores a new value; true when its hash was taken (a collision).
    fn insert(&mut self, hash: u64, canon: Arc<T>) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let (i, taken) = self.vacancy(hash);
        self.slots[i] = Some(Entry { hash, canon });
        self.len += 1;
        taken
    }

    /// Doubles the slot array and re-places every entry.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(MIN_SLOTS);
        let slot = std::mem::size_of::<Option<Entry<T>>>() as u64;
        bytes_gauge().add((cap - self.slots.len()) as u64 * slot);
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        for e in old.into_vec().into_iter().flatten() {
            let (i, _) = self.vacancy(e.hash);
            self.slots[i] = Some(e);
        }
    }
}

/// A sharded keyed table and the counter its ids come from.
struct Table<T> {
    shards: [Mutex<Shard<T>>; SHARDS],
    next_id: AtomicU64,
}

impl<T> Table<T> {
    fn new() -> Table<T> {
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
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<T>> {
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
            self.shards[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len
        })
    }
}

fn nodes() -> &'static Table<Node> {
    static TABLE: OnceLock<Table<Node>> = OnceLock::new();
    TABLE.get_or_init(Table::new)
}

fn labels() -> &'static Table<CanonLabel> {
    static TABLE: OnceLock<Table<CanonLabel>> = OnceLock::new();
    TABLE.get_or_init(Table::new)
}

/// The per-process hash key: a starting word and an odd multiplier.
/// It is read once per process; a caller that hashes many nodes (the
/// parser) keeps a copy and seeds every hash from it.
#[derive(Clone, Copy)]
pub(crate) struct Key(u64, u64);

impl Key {
    /// The process key.
    #[inline]
    pub(crate) fn get() -> Key {
        static KEY: OnceLock<Key> = OnceLock::new();
        *KEY.get_or_init(|| {
            let s = RandomState::new();
            Key(s.hash_one(0u64), s.hash_one(1u64) | 1)
        })
    }

    #[inline]
    fn fold(self) -> Fold {
        Fold {
            h: self.0,
            mul: self.1,
        }
    }

    /// A [`LabelHasher`] for a label of `arity` values.
    #[inline]
    pub(crate) fn label_hasher(self, arity: usize) -> LabelHasher {
        let mut h = self.fold();
        h.word(arity as u64);
        LabelHasher(h)
    }

    /// [`node_hash`] under this key.
    #[inline]
    pub(crate) fn node_hash(
        self,
        ctor: CtorId,
        label: u64,
        children: impl Iterator<Item = u64>,
    ) -> u64 {
        let mut h = self.fold();
        h.word(ctor.0 as u64);
        h.word(label);
        for c in children {
            h.word(c);
        }
        h.h
    }
}

/// A keyed folded-multiply hash under construction: each word written
/// is xored into the state, which is then multiplied by the key's
/// multiplier, the 128-bit product's halves xored.
#[derive(Clone, Copy)]
struct Fold {
    h: u64,
    mul: u64,
}

impl Fold {
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
    let mut h = Key::get().label_hasher(values.len());
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
#[derive(Clone, Copy)]
pub(crate) struct LabelHasher(Fold);

impl LabelHasher {
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
    Key::get().node_hash(ctor, label, children)
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
/// the life of the process: the `Arc` allocation, which holds up to three
/// child handles inline, and the boxed child slice of a node with more.
/// Its label is counted once, by [`label_bytes`]; its inline
/// entry is part of the shard's slot array, which [`Shard::grow`]
/// accounts for whole. An estimate — allocator slack is not modelled —
/// but a stable one, so the `intern.resident_bytes` gauge is comparable
/// across runs.
fn node_bytes(node: &Node) -> u64 {
    let boxed = match &node.shape {
        Shape::Many(_, kids) => std::mem::size_of_val(&**kids),
        _ => 0,
    };
    (arc_bytes::<Node>() + boxed) as u64
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
    if let Some(c) = shard.under(hash).find(|c| eq(&parts, &c.label)) {
        fast_obs::count!("intern.label_hits");
        return InternedLabel(Arc::clone(c));
    }
    fast_obs::count!("intern.label_misses");
    let label = make(parts);
    bytes_gauge().add(label_bytes(&label));
    let canon = Arc::new(CanonLabel {
        hash,
        id: LabelId(table.next_id()),
        label,
    });
    if shard.insert(hash, Arc::clone(&canon)) {
        fast_obs::count!("intern.hash_collisions");
    }
    InternedLabel(canon)
}

/// Interns the node `(ctor, label, children)` whose [`node_hash`] is
/// `hash`, returning the canonical handle for this structure.
///
/// A hit compares the parts in place and drops them; only a miss builds
/// the owned node, moving owned children in and copying borrowed ones.
/// The label is canonical and the children are interned handles (they
/// always are — `Tree` cannot be built any other way), so the
/// comparison is O(arity + 1) pointer compares, never a deep compare.
pub(crate) fn intern(
    hash: u64,
    ctor: CtorId,
    label: &InternedLabel,
    children: Cow<'_, [Tree]>,
) -> Tree {
    let table = nodes();
    let mut shard = table.lock(shard_of(hash));
    let found = shard.under(hash).find(|n| {
        n.shape.ctor() == ctor && n.label.ptr_eq(label) && n.shape.children() == &children[..]
    });
    if let Some(n) = found {
        fast_obs::count!("intern.hits");
        return Tree::from_parts(Arc::clone(n));
    }
    fast_obs::count!("intern.misses");
    let node = Arc::new(Node {
        hash,
        id: TreeId(table.next_id()),
        label: label.clone(),
        shape: Shape::new(ctor, children),
    });
    shard_gauge(shard_of(hash)).add(1);
    bytes_gauge().add(node_bytes(&node));
    if shard.insert(hash, Arc::clone(&node)) {
        fast_obs::count!("intern.hash_collisions");
    }
    Tree::from_parts(node)
}

/// The first canonical node stored under structural hash `hash`, if
/// any. There is more than one only on a 64-bit hash collision, so a
/// caller that finds the candidate is not its structure builds it
/// through [`intern`], which tests every node under the hash. The shard
/// lock is held only for the lookup: the caller verifies the candidate
/// against its own structure after the lock is released.
pub(crate) fn probe(hash: u64) -> Option<Tree> {
    let shard = nodes().lock(shard_of(hash));
    let first = shard.under(hash).next()?;
    Some(Tree::from_parts(Arc::clone(first)))
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
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        assert_eq!(a.label_id(), b.label_id());
        let c = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(424_243i64));
        assert_ne!(a.id(), c.id());
        assert_ne!(a.label_id(), c.label_id());
        assert_ne!(a, c);
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
        let node = arc_bytes::<Node>() as u64;
        let label = (arc_bytes::<CanonLabel>() + std::mem::size_of::<Value>()) as u64;
        assert!(resident_bytes() >= before_bytes + 2 * node + label);
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

    /// The handle is one pointer, a slot entry two words, and a node of
    /// rank at most three one 56-byte allocation (its children inline);
    /// a change that widens any of them again fails here.
    #[test]
    fn handle_and_slot_stay_compact() {
        assert_eq!(std::mem::size_of::<Tree>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Node>(), 56);
        assert_eq!(std::mem::size_of::<Option<Entry<Node>>>(), 16);
        assert_eq!(std::mem::size_of::<Option<Entry<CanonLabel>>>(), 16);
    }

    /// Held by each test that forces a hash collision: the tests run in
    /// parallel, and each reads its own delta of the process-global
    /// `intern.hash_collisions` counter.
    static FORCED_COLLISIONS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn forcing_collisions() -> std::sync::MutexGuard<'static, ()> {
        FORCED_COLLISIONS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Two distinct nodes forced under one structural hash keep distinct
    /// ids, share one probe run (the first inserted is `probe`'s
    /// candidate), and each is found again by `intern`. The hash is not
    /// the nodes' own, so the label values are used by no other test.
    #[test]
    fn colliding_nodes_keep_their_ids_and_order() {
        let _serial = forcing_collisions();
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
        assert_eq!(probe(hash).map(|t| t.id()), Some(a.id()));
        assert_eq!(
            collisions(),
            before + 1,
            "re-interning collides with nothing"
        );
    }

    /// A parse whose first candidate under a subtree's hash is another
    /// structure (a decoy interned under the leaf's real hash) descends
    /// and builds the right node, the one `Tree::leaf` finds.
    #[test]
    fn parse_passes_a_colliding_candidate() {
        let _serial = forcing_collisions();
        let ty = bt();
        let l = ty.ctor_id("L").unwrap();
        let real = Label::single(606_000_100i64);
        let hash = node_hash(
            l,
            label_hash(real.values().iter().map(ValueRef::from)),
            std::iter::empty(),
        );
        let decoy_label = LabelArg::from(Label::single(606_000_101i64)).intern();
        let decoy = intern(hash, l, &decoy_label, Cow::Borrowed(&[]));
        let parsed = Tree::parse(&ty, "L[606000100]").unwrap();
        assert_ne!(parsed.id(), decoy.id());
        assert_eq!(parsed.label(), &real);
        assert_eq!(Tree::leaf(l, real).id(), parsed.id());
        assert_eq!(probe(hash).map(|t| t.id()), Some(decoy.id()));
    }

    /// The label table's twin: two distinct labels forced under one
    /// label hash keep distinct ids, each re-interns to its own entry,
    /// and nodes built over them stay distinct. The hash is no label's
    /// own, so the values are used by no other test.
    #[test]
    fn colliding_labels_keep_their_ids() {
        let _serial = forcing_collisions();
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
