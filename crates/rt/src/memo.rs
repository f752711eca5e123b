//! The bounded map backing the shared result memo.
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
//! Keys are `(state, TreeId)` pairs here and bare `TreeId`s in the map
//! that lowers an item to its table. Both are hashed with
//! [`MixHasher`], one multiply-mix step per integer, not SipHash. A
//! keyed hash guards against keys chosen to collide, and clients
//! cannot choose `TreeId`s: the interner hands them out from one
//! monotonic counter. The interner itself hashes client-chosen labels
//! and keeps SipHash.
//!
//! # Capacity
//!
//! `capacity` bounds the table's entries (at least one). Insertion into
//! a full table evicts its oldest entry (a cursor that rotates through
//! the insertion order, so evictions are O(1) and spread over every
//! key) and bumps `rt.memo_evictions`.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fast_obs::Gauge;

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

/// Process-wide residency gauges a [`Bounded`] map reports into:
/// `entries` counts resident entries, `bytes` their estimated heap
/// weight as computed by `weigh`. Several maps may share one gauge pair
/// (every batch memo reports into `rt.memo.*`); each map subtracts its
/// own contribution on eviction and on drop, so the gauges track *live*
/// residency across all concurrently-alive maps.
///
/// `weigh` is a plain `fn` pointer (not a closure/trait bound) so the
/// map can have an unconditional `Drop` impl.
pub(crate) struct ResidencyGauges<K, V> {
    pub entries: &'static Gauge,
    pub bytes: &'static Gauge,
    pub weigh: fn(&K, &V) -> u64,
}

// Manual impls: `derive` would wrongly bound K/V.
impl<K, V> Clone for ResidencyGauges<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for ResidencyGauges<K, V> {}

/// The map plus its keys in insertion order, the eviction cursor.
/// Entries leave only by eviction, so every resident key is in `order`
/// exactly once.
struct Table<K, V> {
    map: MixMap<K, V>,
    order: VecDeque<K>,
}

/// A capacity-bounded concurrent hash map behind one lock.
pub(crate) struct Bounded<K, V> {
    table: Mutex<Table<K, V>>,
    cap: usize,
    gauges: ResidencyGauges<K, V>,
}

impl<K: Eq + Hash + Clone, V: Clone> Bounded<K, V> {
    /// A map holding at most `capacity` entries (at least one),
    /// reporting residency into `gauges`.
    pub fn new(capacity: usize, gauges: ResidencyGauges<K, V>) -> Self {
        Bounded {
            table: Mutex::new(Table {
                map: MixMap::default(),
                order: VecDeque::new(),
            }),
            cap: capacity.max(1),
            gauges,
        }
    }

    /// Looks up `key`, recording a hit or miss in `stats`.
    pub fn get(&self, key: &K, stats: &CacheStats) -> Option<V> {
        let found = lock_unpoisoned(&self.table).map.get(key).cloned();
        match &found {
            Some(_) => stats.hits.fetch_add(1, Ordering::Relaxed),
            None => stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `key → value`, evicting the oldest entry if the map is
    /// full.
    pub fn insert(&self, key: K, value: V, stats: &CacheStats) {
        let mut guard = lock_unpoisoned(&self.table);
        let table = &mut *guard;
        let g = &self.gauges;
        if let Some(old) = table.map.get_mut(&key) {
            g.bytes.sub((g.weigh)(&key, old));
            g.bytes.add((g.weigh)(&key, &value));
            *old = value;
            return;
        }
        if table.map.len() >= self.cap {
            if let Some(victim) = table.order.pop_front() {
                if let Some(evicted) = table.map.remove(&victim) {
                    stats.evictions.fetch_add(1, Ordering::Relaxed);
                    g.entries.sub(1);
                    g.bytes.sub((g.weigh)(&victim, &evicted));
                }
            }
        }
        g.entries.add(1);
        g.bytes.add((g.weigh)(&key, &value));
        table.order.push_back(key.clone());
        table.map.insert(key, value);
    }

    /// Resident entries (test/diagnostic use).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.table).map.len()
    }
}

impl<K, V> Drop for Bounded<K, V> {
    /// A dropped map's residency must leave the process-wide gauges:
    /// subtract everything still resident.
    fn drop(&mut self) {
        let (g, table) = (&self.gauges, lock_unpoisoned(&self.table));
        g.entries.sub(table.map.len() as u64);
        g.bytes
            .sub(table.map.iter().map(|(k, v)| (g.weigh)(k, v)).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gauges under test-only names, apart from the live `rt.memo.*`
    /// ones other tests touch.
    fn gauges<K, V>() -> ResidencyGauges<K, V> {
        ResidencyGauges {
            entries: fast_obs::gauge("test.bounded.entries"),
            bytes: fast_obs::gauge("test.bounded.bytes"),
            weigh: |_, _| 1,
        }
    }

    #[test]
    fn hits_misses_and_eviction() {
        let stats = CacheStats::default();
        let m: Bounded<(usize, usize), u64> = Bounded::new(16, gauges());
        assert_eq!(m.get(&(0, 0), &stats), None);
        m.insert((0, 0), 7, &stats);
        assert_eq!(m.get(&(0, 0), &stats), Some(7));
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        // Flood the map far past its capacity: size stays at capacity.
        for i in 0..1000 {
            m.insert((i, i), i as u64, &stats);
        }
        assert_eq!(m.len(), 16);
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 1000 - 16);
        // A zero capacity rounds up to one entry.
        let tiny: Bounded<usize, usize> = Bounded::new(0, gauges());
        for i in 0..10 {
            tiny.insert(i, i, &stats);
        }
        assert_eq!(tiny.len(), 1);
    }

    /// Gauge accounting stays balanced through insert / replace /
    /// eviction / drop.
    #[test]
    fn residency_gauges_balance_to_zero() {
        let stats = CacheStats::default();
        let gauges: ResidencyGauges<usize, u64> = ResidencyGauges {
            entries: fast_obs::gauge("test.bounded.balance.entries"),
            bytes: fast_obs::gauge("test.bounded.balance.bytes"),
            weigh: |_k, v| *v,
        };
        let m: Bounded<usize, u64> = Bounded::new(32, gauges);
        m.insert(1, 10, &stats);
        m.insert(2, 5, &stats);
        assert_eq!(gauges.entries.get(), 2);
        assert_eq!(gauges.bytes.get(), 15);
        // Replacing a key adjusts bytes without growing entries.
        m.insert(1, 30, &stats);
        assert_eq!(gauges.entries.get(), 2);
        assert_eq!(gauges.bytes.get(), 35);
        // Evictions subtract the victim's weight: flood far past cap.
        for i in 10..1000 {
            m.insert(i, 1, &stats);
        }
        assert!(stats.evictions.load(Ordering::Relaxed) > 0);
        assert_eq!(gauges.entries.get() as usize, m.len());
        assert_eq!(gauges.bytes.get(), 32);
        // Dropping the map returns both gauges to zero — residency of a
        // dead table must not linger in the process-wide reading.
        drop(m);
        assert_eq!(gauges.entries.get(), 0);
        assert_eq!(gauges.bytes.get(), 0);
    }

    /// Eviction rotates through insertion order: the oldest key goes
    /// first, and a re-inserted key keeps its place without evicting.
    #[test]
    fn eviction_takes_the_oldest_key() {
        let stats = CacheStats::default();
        let m: Bounded<u64, u64> = Bounded::new(2, gauges());
        m.insert(0, 0, &stats);
        m.insert(1, 1, &stats);
        m.insert(0, 10, &stats); // replace in place, no eviction
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(m.get(&0, &stats), Some(10));
        m.insert(2, 2, &stats); // evicts 0, the oldest
        assert_eq!(m.get(&0, &stats), None);
        assert_eq!(m.get(&1, &stats), Some(1));
        m.insert(3, 3, &stats); // evicts 1
        assert_eq!(m.get(&1, &stats), None);
        assert_eq!(m.get(&2, &stats), Some(2));
        assert_eq!(m.get(&3, &stats), Some(3));
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 2);
    }
}
