//! The sharded concurrent map backing the batch result memo.
//!
//! The result memo maps `(transformation state, TreeId)` to the finished
//! output set of that sub-transduction. It is the one table `fast-rt`
//! shares between items and batches; lookahead state sets are computed
//! per item (`plan.rs`, `ItemRun::la_states`) and need no cache here.
//! [`TreeId`](fast_trees::TreeId) is the stable identity a tree receives
//! from the global hash-cons table in `fast_trees::intern`, so a subtree
//! that appears in many batch items is looked up by a single integer
//! comparison, whether the occurrences are `Arc`-shared clones or were
//! built independently (parser, builder, generator: structurally equal
//! trees intern to the same id).
//!
//! Ids are never reused (the interner is append-only and owns every
//! canonical node), so a memo may outlive one batch
//! (`Plan::run_batch_shared`, `Pipeline::run_batch_shared`) even when
//! callers drop intermediate trees between runs.
//!
//! Sharding mirrors `fast-smt`'s solver cache: 16 mutex-guarded shards
//! selected by key hash, so concurrent workers rarely contend.
//!
//! # Hashing
//!
//! Keys are `(state, TreeId)` pairs here and bare `TreeId`s in an
//! item's lookahead table, and both are hashed with [`MixHasher`], one
//! multiply-mix step per integer, not SipHash. A keyed hash guards
//! against keys chosen to collide, and clients cannot choose `TreeId`s:
//! the interner hands them out from one monotonic counter. The interner
//! itself hashes client-chosen labels and keeps SipHash. A shard is
//! chosen from bits 48–51 of the hash: high bits, which the multiply
//! mixes best, but clear of the top seven bits that each shard's own
//! table uses for its control bytes.
//!
//! # Capacity accounting
//!
//! `capacity` bounds the **whole table**, not each shard: every shard
//! holds at most `capacity / SHARDS` entries (so the table never
//! exceeds `capacity` when `capacity ≥ SHARDS`; smaller capacities are
//! rounded up to one entry per shard, i.e. `SHARDS` total). Insertion
//! into a full shard evicts the shard's oldest entry (a cursor that
//! rotates through the shard's insertion order, so evictions are O(1)
//! and spread over every key) and bumps `rt.memo_evictions`.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fast_obs::Gauge;

/// Locks `m`, recovering from poisoning. A cache shard is structurally
/// sound even if a worker panicked while holding its lock (entries are
/// inserted whole; the worst residue is a slightly stale gauge), so a
/// poisoned shard must degrade to a plain lock — never take the process
/// down with a second panic.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of shards (matches `fast_smt::intern::SHARDS`).
pub(crate) const SHARDS: usize = 16;

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

/// Process-wide residency gauges a [`Sharded`] map reports into:
/// `entries` counts resident entries, `bytes` their estimated heap
/// weight as computed by `weigh`. Several maps may share one gauge pair
/// (every batch memo reports into `rt.memo.*`); each map subtracts its
/// own contribution on eviction and on drop, so the gauges track *live*
/// residency across all concurrently-alive maps.
///
/// `weigh` is a plain `fn` pointer (not a closure/trait bound) so the
/// gauge-aware map can still have an unconditional `Drop` impl.
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

/// One shard: the map plus its keys in insertion order, the eviction
/// cursor. Entries leave only by eviction, so every resident key is in
/// `order` exactly once.
struct Shard<K, V> {
    map: MixMap<K, V>,
    order: VecDeque<K>,
}

/// A sharded, capacity-bounded concurrent hash map.
pub(crate) struct Sharded<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_cap: usize,
    gauges: Option<ResidencyGauges<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Sharded<K, V> {
    /// A map holding at most `capacity` entries across **all** shards
    /// (each shard is capped at `capacity / SHARDS`; capacities below
    /// `SHARDS` round up to one entry per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard_cap = (capacity / SHARDS).max(1);
        Sharded {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: MixMap::default(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard_cap,
            gauges: None,
        }
    }

    /// [`Sharded::new`], reporting residency into `gauges` (see
    /// [`ResidencyGauges`]).
    pub fn with_gauges(capacity: usize, gauges: ResidencyGauges<K, V>) -> Self {
        let mut m = Self::new(capacity);
        m.gauges = Some(gauges);
        m
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[shard_index(MixState::default().hash_one(key))]
    }

    /// Looks up `key`, recording a hit or miss in `stats`.
    pub fn get(&self, key: &K, stats: &CacheStats) -> Option<V> {
        let found = lock_unpoisoned(self.shard(key)).map.get(key).cloned();
        match &found {
            Some(_) => stats.hits.fetch_add(1, Ordering::Relaxed),
            None => stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `key → value`, evicting the shard's oldest entry if the
    /// shard is full.
    pub fn insert(&self, key: K, value: V, stats: &CacheStats) {
        let mut guard = lock_unpoisoned(self.shard(&key));
        let shard = &mut *guard;
        if let Some(old) = shard.map.get_mut(&key) {
            if let Some(g) = &self.gauges {
                g.bytes.sub((g.weigh)(&key, old));
                g.bytes.add((g.weigh)(&key, &value));
            }
            *old = value;
            return;
        }
        if shard.map.len() >= self.per_shard_cap {
            if let Some(victim) = shard.order.pop_front() {
                if let Some(evicted) = shard.map.remove(&victim) {
                    stats.evictions.fetch_add(1, Ordering::Relaxed);
                    if let Some(g) = &self.gauges {
                        g.entries.sub(1);
                        g.bytes.sub((g.weigh)(&victim, &evicted));
                    }
                }
            }
        }
        if let Some(g) = &self.gauges {
            g.entries.add(1);
            g.bytes.add((g.weigh)(&key, &value));
        }
        shard.order.push_back(key.clone());
        shard.map.insert(key, value);
    }

    /// Total entries across shards (test/diagnostic use).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).map.len())
            .sum()
    }
}

/// The shard a key hash selects: bits 48–51 (see the module docs).
#[inline]
fn shard_index(hash: u64) -> usize {
    (hash >> 48) as usize % SHARDS
}

impl<K, V> Drop for Sharded<K, V> {
    /// A dropped map's residency must leave the process-wide gauges:
    /// subtract everything still resident (no-op without gauges).
    fn drop(&mut self) {
        if let Some(g) = &self.gauges {
            for shard in &self.shards {
                let shard = lock_unpoisoned(shard);
                g.entries.sub(shard.map.len() as u64);
                g.bytes
                    .sub(shard.map.iter().map(|(k, v)| (g.weigh)(k, v)).sum());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_eviction() {
        let stats = CacheStats::default();
        let m: Sharded<(usize, usize), u64> = Sharded::new(16); // 1 entry/shard
        assert_eq!(m.get(&(0, 0), &stats), None);
        m.insert((0, 0), 7, &stats);
        assert_eq!(m.get(&(0, 0), &stats), Some(7));
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        // Flood one shard far past its capacity: size stays bounded.
        for i in 0..1000 {
            m.insert((i, i), i as u64, &stats);
        }
        assert!(m.len() <= SHARDS * 2);
        assert!(stats.evictions.load(Ordering::Relaxed) > 0);
    }

    /// Pins the eviction-cap accounting: `capacity` bounds the whole
    /// table (÷ SHARDS per shard), it is **not** multiplied 16× across
    /// shards. `cap` insertions stay within `cap`; the `cap + 1`-st
    /// insertion evicts rather than grow.
    #[test]
    fn capacity_bounds_whole_table_not_per_shard() {
        let stats = CacheStats::default();
        let cap = 64; // 4 entries per shard
        let m: Sharded<usize, usize> = Sharded::new(cap);
        for i in 0..cap {
            m.insert(i, i, &stats);
        }
        assert!(m.len() <= cap, "cap insertions exceeded cap: {}", m.len());
        let before = m.len();
        m.insert(cap, cap, &stats);
        assert!(m.len() <= cap, "cap+1 insertions exceeded cap");
        // The boundary insert never grows the table past its pre-insert
        // size by more than the one slot a non-full shard may still have.
        assert!(m.len() <= before + 1);
        // Sub-SHARDS capacities round *up* to one entry per shard — the
        // documented floor, not a 16× multiplication of the request.
        let tiny: Sharded<usize, usize> = Sharded::new(4);
        for i in 0..1000 {
            tiny.insert(i, i, &stats);
        }
        assert!(tiny.len() <= SHARDS);
    }

    /// Gauge accounting stays balanced through insert / replace /
    /// eviction / drop (test-only gauge names keep this independent of
    /// the live `rt.memo.*` gauges other tests touch).
    #[test]
    fn residency_gauges_balance_to_zero() {
        let stats = CacheStats::default();
        let gauges: ResidencyGauges<usize, u64> = ResidencyGauges {
            entries: fast_obs::gauge("test.sharded.entries"),
            bytes: fast_obs::gauge("test.sharded.bytes"),
            weigh: |_k, v| *v,
        };
        let m: Sharded<usize, u64> = Sharded::with_gauges(32, gauges);
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
        // Dropping the map returns both gauges to zero — residency of a
        // dead table must not linger in the process-wide reading.
        drop(m);
        assert_eq!(gauges.entries.get(), 0);
        assert_eq!(gauges.bytes.get(), 0);
    }

    /// The shard choice spreads sequential ids: 100,000 consecutive
    /// `TreeId`s, alone and paired with each of three states, land within
    /// ±25% of an even split over the shards. A mixer whose chosen bits
    /// do not depend on the low bits of the id would put every executor
    /// on one lock.
    #[test]
    fn sequential_ids_spread_over_shards() {
        let state = MixState::default();
        // A `TreeId` hashes exactly as its raw `u64` does.
        let t = fast_trees::Tree::leaf(fast_trees::CtorId(0), fast_smt::Label::single(0i64));
        assert_eq!(state.hash_one(t.id()), state.hash_one(t.id().as_u64()));
        const N: u64 = 100_000;
        let check = |counts: [u64; SHARDS], what: &str| {
            let even = counts.iter().sum::<u64>() / SHARDS as u64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c * 4 >= even * 3 && c * 4 <= even * 5,
                    "{what}: shard {i} got {c} keys, even split is {even}: {counts:?}"
                );
            }
        };
        let mut counts = [0u64; SHARDS];
        for id in 1..=N {
            counts[shard_index(state.hash_one(id))] += 1;
        }
        check(counts, "TreeId keys");
        for q in 0..3usize {
            let mut counts = [0u64; SHARDS];
            for id in 1..=N {
                counts[shard_index(state.hash_one((q, id)))] += 1;
            }
            check(counts, &format!("(state {q}, TreeId) keys"));
        }
    }

    /// Eviction rotates through insertion order: the oldest key goes
    /// first, and a re-inserted key keeps its place.
    #[test]
    fn eviction_takes_the_oldest_key() {
        let stats = CacheStats::default();
        let m: Sharded<u64, u64> = Sharded::new(SHARDS * 2); // 2 entries/shard
        let target = shard_index(MixState::default().hash_one(0u64));
        let same: Vec<u64> = (0u64..)
            .filter(|k| shard_index(MixState::default().hash_one(k)) == target)
            .take(4)
            .collect();
        m.insert(same[0], 0, &stats);
        m.insert(same[1], 1, &stats);
        m.insert(same[0], 10, &stats); // replace in place, no eviction
        m.insert(same[2], 2, &stats); // evicts same[0], the oldest
        assert_eq!(m.get(&same[0], &stats), None);
        assert_eq!(m.get(&same[1], &stats), Some(1));
        m.insert(same[3], 3, &stats); // evicts same[1]
        assert_eq!(m.get(&same[1], &stats), None);
        assert_eq!(m.get(&same[2], &stats), Some(2));
        assert_eq!(m.get(&same[3], &stats), Some(3));
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let stats = CacheStats::default();
        let m: Sharded<usize, u64> = Sharded::new(16);
        m.insert(1, 1, &stats);
        m.insert(1, 2, &stats);
        assert_eq!(stats.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(m.get(&1, &stats), Some(2));
    }
}
