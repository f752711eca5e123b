//! The shared root memo ([`RootMemo`]) and the integer-key hashing
//! `fast-rt` uses.
//!
//! The shared memo maps `(initial state, item root TreeId)` to the
//! finished output set of a whole item. It is the one table `fast-rt`
//! shares between items and batches: the `(state, node)` results and
//! lookahead state sets inside an item live in the item's own table
//! (`plan.rs`, `ItemRun`), which needs no lock and is dropped with the
//! item. [`TreeId`](fast_trees::TreeId) is the stable identity a tree
//! receives from the global hash-cons table in `fast_trees::intern`, so
//! a document seen before is recognised by a single integer comparison,
//! whether the occurrences are `Arc`-shared clones or were built
//! independently (parser, builder, generator: structurally equal trees
//! intern to the same id).
//!
//! Ids are never reused (the interner is append-only and owns every
//! canonical node), so a memo may outlive one batch
//! (`Plan::run_batch_shared`, `Pipeline::run_batch_shared`) even when
//! callers drop intermediate trees between runs.
//!
//! An item probes the memo once before it is evaluated and fills it
//! once after, so one lock serves every worker.
//!
//! # Hashing
//!
//! Keys are `(state, TreeId)` pairs here, bare `TreeId`s in the map
//! that lowers an item to its table, and `(constructor, LabelId)` pairs
//! in the map that shares guard bits between an item's slots. All are
//! hashed with [`MixHasher`], one multiply-mix step per integer, not
//! SipHash. A keyed hash guards against keys chosen to collide, and
//! clients cannot choose these ids: the interner hands each kind out
//! from one monotonic counter. The interner itself hashes client-chosen
//! labels, with a keyed hash of its own.
//!
//! # Capacity
//!
//! `capacity` bounds the table's entries (at least one). Insertion into
//! a full table evicts its oldest entry (a cursor that rotates through
//! the insertion order, so evictions are O(1) and spread over every
//! key) and bumps `rt.memo_evictions`.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fast_obs::Gauge;
use fast_trees::{Tree, TreeId};

/// Locks `m`, recovering from poisoning. A cache is structurally sound
/// even if a worker panicked while holding its lock (entries are
/// inserted whole; the worst residue is a slightly stale gauge), so a
/// poisoned lock must degrade to a plain lock — never take the process
/// down with a second panic.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A multiply-mix hasher for integer keys (`TreeId`, `(state, TreeId)`):
/// each integer written is xored into the rotated state, which is then
/// multiplied by an odd 64-bit constant. Only for keys clients cannot
/// choose (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` hasher state for [`MixHasher`].
pub(crate) type MixState = BuildHasherDefault<MixHasher>;

/// A `HashMap` keyed by integers, hashed with [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, MixState>;

/// Local (per-batch) cache statistics, mirrored into the global
/// `fast_obs` registry by the callers.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
}

/// A root-memo key: `(initial state, item root TreeId)`.
type Key = (usize, TreeId);

/// Estimated heap weight of one entry with output set `outs`: the key
/// (held twice: in the map and in the eviction order), the vector, and
/// one interned handle per output tree (the trees themselves are owned
/// by the interner and counted there).
fn weigh(outs: &[Tree]) -> u64 {
    (2 * size_of::<Key>() + size_of::<Vec<Tree>>() + size_of_val(outs)) as u64
}

/// The map plus its keys in insertion order, the eviction cursor.
/// Entries leave only by eviction, so every resident key is in `order`
/// exactly once.
struct Table {
    map: MixMap<Key, Vec<Tree>>,
    order: VecDeque<Key>,
}

/// The shared root memo: `(initial state, item root TreeId)` → the
/// item's output set, at most `cap` entries behind one lock.
///
/// It reports into two process-wide gauges given at construction:
/// `entries` counts resident entries, `bytes` their estimated weight
/// ([`weigh`]). Several memos may share one gauge pair (every batch
/// memo reports into `rt.memo.*`); each subtracts its own contribution
/// on eviction and on drop, so the gauges track *live* residency across
/// all memos.
pub(crate) struct RootMemo {
    table: Mutex<Table>,
    cap: usize,
    entries: &'static Gauge,
    bytes: &'static Gauge,
}

impl RootMemo {
    /// A memo holding at most `capacity` entries (at least one),
    /// reporting residency into the `entries` and `bytes` gauges.
    pub fn new(capacity: usize, entries: &'static Gauge, bytes: &'static Gauge) -> Self {
        RootMemo {
            table: Mutex::new(Table {
                map: MixMap::default(),
                order: VecDeque::new(),
            }),
            cap: capacity.max(1),
            entries,
            bytes,
        }
    }

    /// Looks up `key`, recording a hit or miss in `stats`.
    pub fn get(&self, key: &Key, stats: &CacheStats) -> Option<Vec<Tree>> {
        let found = lock_unpoisoned(&self.table).map.get(key).cloned();
        match &found {
            Some(_) => stats.hits.fetch_add(1, Ordering::Relaxed),
            None => stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `key → outs`, evicting the oldest entry if the memo is
    /// full.
    pub fn insert(&self, key: Key, outs: Vec<Tree>, stats: &CacheStats) {
        let mut guard = lock_unpoisoned(&self.table);
        let table = &mut *guard;
        if let Some(old) = table.map.get_mut(&key) {
            self.bytes.sub(weigh(old));
            self.bytes.add(weigh(&outs));
            *old = outs;
            return;
        }
        if table.map.len() >= self.cap {
            if let Some(victim) = table.order.pop_front() {
                if let Some(evicted) = table.map.remove(&victim) {
                    stats.evictions.fetch_add(1, Ordering::Relaxed);
                    self.entries.sub(1);
                    self.bytes.sub(weigh(&evicted));
                }
            }
        }
        self.entries.add(1);
        self.bytes.add(weigh(&outs));
        table.order.push_back(key);
        table.map.insert(key, outs);
    }

    /// Resident entries (test/diagnostic use).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.table).map.len()
    }
}

impl Drop for RootMemo {
    /// A dropped memo's residency must leave the process-wide gauges:
    /// subtract everything still resident.
    fn drop(&mut self) {
        let table = lock_unpoisoned(&self.table);
        self.entries.sub(table.map.len() as u64);
        self.bytes.sub(table.map.values().map(|v| weigh(v)).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::{Label, Value};
    use fast_trees::CtorId;

    /// A distinct leaf per `i`.
    fn leaf(i: i64) -> Tree {
        Tree::new(CtorId(0), Label::new(vec![Value::Int(i)]), vec![])
    }

    /// A memo under test-only gauge names, apart from the live
    /// `rt.memo.*` ones other tests touch.
    fn memo(capacity: usize) -> RootMemo {
        RootMemo::new(
            capacity,
            fast_obs::gauge("test.root_memo.entries"),
            fast_obs::gauge("test.root_memo.bytes"),
        )
    }

    #[test]
    fn hits_misses_and_eviction() {
        let stats = CacheStats::default();
        let id = leaf(0).id();
        let m = memo(16);
        assert_eq!(m.get(&(0, id), &stats), None);
        m.insert((0, id), vec![leaf(7)], &stats);
        assert_eq!(m.get(&(0, id), &stats), Some(vec![leaf(7)]));
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        // Flood the memo far past its capacity: size stays at capacity.
        for i in 0..1000 {
            m.insert((i, id), vec![], &stats);
        }
        assert_eq!(m.len(), 16);
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 1000 - 16);
        // A zero capacity rounds up to one entry.
        let tiny = memo(0);
        for i in 0..10 {
            tiny.insert((i, id), vec![], &stats);
        }
        assert_eq!(tiny.len(), 1);
    }

    /// Gauge accounting stays balanced through insert / replace /
    /// eviction / drop.
    #[test]
    fn residency_gauges_balance_to_zero() {
        let stats = CacheStats::default();
        let entries = fast_obs::gauge("test.root_memo.balance.entries");
        let bytes = fast_obs::gauge("test.root_memo.balance.bytes");
        let id = leaf(0).id();
        let (w0, w1, w3) = (
            weigh(&[]),
            weigh(&[leaf(1)]),
            weigh(&[leaf(1), leaf(2), leaf(3)]),
        );
        let m = RootMemo::new(32, entries, bytes);
        m.insert((1, id), vec![leaf(1)], &stats);
        m.insert((2, id), vec![], &stats);
        assert_eq!(entries.get(), 2);
        assert_eq!(bytes.get(), w1 + w0);
        // Replacing a key adjusts bytes without growing entries.
        m.insert((1, id), vec![leaf(1), leaf(2), leaf(3)], &stats);
        assert_eq!(entries.get(), 2);
        assert_eq!(bytes.get(), w3 + w0);
        // Evictions subtract the victim's weight: flood far past cap.
        for i in 10..1000 {
            m.insert((i, id), vec![], &stats);
        }
        assert!(stats.evictions.load(Ordering::Relaxed) > 0);
        assert_eq!(entries.get() as usize, m.len());
        assert_eq!(bytes.get(), 32 * w0);
        // Dropping the memo returns both gauges to zero — residency of a
        // dead table must not linger in the process-wide reading.
        drop(m);
        assert_eq!(entries.get(), 0);
        assert_eq!(bytes.get(), 0);
    }

    /// Eviction rotates through insertion order: the oldest key goes
    /// first, and a re-inserted key keeps its place without evicting.
    #[test]
    fn eviction_takes_the_oldest_key() {
        let stats = CacheStats::default();
        let id = leaf(0).id();
        let key = |i: usize| (i, id);
        let m = memo(2);
        m.insert(key(0), vec![leaf(0)], &stats);
        m.insert(key(1), vec![leaf(1)], &stats);
        m.insert(key(0), vec![leaf(10)], &stats); // replace in place, no eviction
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(m.get(&key(0), &stats), Some(vec![leaf(10)]));
        m.insert(key(2), vec![leaf(2)], &stats); // evicts 0, the oldest
        assert_eq!(m.get(&key(0), &stats), None);
        assert_eq!(m.get(&key(1), &stats), Some(vec![leaf(1)]));
        m.insert(key(3), vec![leaf(3)], &stats); // evicts 1
        assert_eq!(m.get(&key(1), &stats), None);
        assert_eq!(m.get(&key(2), &stats), Some(vec![leaf(2)]));
        assert_eq!(m.get(&key(3), &stats), Some(vec![leaf(3)]));
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 2);
    }
}
