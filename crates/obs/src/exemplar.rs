//! Slow-item exemplars: the top-K slowest items per named family.
//!
//! Percentiles say *how slow* the tail is; exemplars say *which items*
//! are in it. Each family (e.g. `rt.item`) keeps the
//! [`MAX_EXEMPLARS`] slowest records seen so far — item identity (the
//! input tree's interned `TreeId` as a raw `u64`), the evaluation
//! state, the latency, and the output size — so a `fastc profile` run
//! or a `fast-serve` `stats` reply can name the exact documents behind
//! a p99 spike.
//!
//! Capture is always on and cheap by design: the common case (an item
//! faster than the current K-th slowest) pays one relaxed atomic load
//! and a compare; only genuine tail candidates take the family lock.
//! Recorded exemplars surface in every [`crate::Snapshot`] and roll up
//! across snapshots by keeping the K slowest of the union
//! ([`crate::Snapshot::merge`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use fast_json::Json;

/// How many exemplars each family retains (the K in top-K).
pub const MAX_EXEMPLARS: usize = 8;

/// One slow-item record (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Stable identity of the item — for `rt.item`, the input tree's
    /// `TreeId` (`Tree::id().as_u64()`), resolvable while the process
    /// lives because the interner never evicts.
    pub item: u64,
    /// Evaluation state the item entered at (the plan's initial state).
    pub state: u64,
    /// Wall-clock latency of the item in nanoseconds.
    pub latency_ns: u64,
    /// Output size (number of output trees; 0 for errored items).
    pub output_size: u64,
}

impl Exemplar {
    /// Renders the exemplar as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("item", Json::Int(self.item as i64)),
            ("state", Json::Int(self.state as i64)),
            ("latency_ns", Json::Int(self.latency_ns as i64)),
            ("output_size", Json::Int(self.output_size as i64)),
        ])
    }
}

/// One family's store: the retained exemplars plus the cheap rejection
/// floor (the smallest retained latency once the store is full, else 0).
struct Store {
    floor: AtomicU64,
    items: Mutex<Vec<Exemplar>>,
}

fn registry() -> &'static Mutex<std::collections::BTreeMap<&'static str, &'static Store>> {
    static REG: OnceLock<Mutex<std::collections::BTreeMap<&'static str, &'static Store>>> =
        OnceLock::new();
    REG.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

fn store(name: &'static str) -> &'static Store {
    let mut map = registry().lock().unwrap();
    map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Store {
            floor: AtomicU64::new(0),
            items: Mutex::new(Vec::with_capacity(MAX_EXEMPLARS)),
        }))
    })
}

/// Records a slow-item candidate under `name`, keeping the family's
/// [`MAX_EXEMPLARS`] slowest. Hot-path cost when the candidate is not a
/// tail item: one relaxed load and a compare.
///
/// Call sites should cache the store via [`exemplar_recorder`] when the
/// name is fixed.
pub fn record_exemplar(name: &'static str, ex: Exemplar) {
    exemplar_recorder(name).record(ex);
}

/// A cached handle for recording exemplars into one family (the
/// exemplar analogue of caching a [`crate::Counter`] reference).
pub fn exemplar_recorder(name: &'static str) -> ExemplarRecorder {
    ExemplarRecorder { store: store(name) }
}

/// See [`exemplar_recorder`].
#[derive(Clone, Copy)]
pub struct ExemplarRecorder {
    store: &'static Store,
}

impl ExemplarRecorder {
    /// Records one candidate (see [`record_exemplar`]).
    #[inline]
    pub fn record(&self, ex: Exemplar) {
        // Fast path: the store is full and this item is no slower than
        // the slowest retained item — nothing to do, no lock taken.
        // (floor is 0 until the store fills, so early items always pass.)
        if ex.latency_ns <= self.store.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut items = self.store.items.lock().unwrap();
        items.push(ex);
        items.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
        items.truncate(MAX_EXEMPLARS);
        if items.len() == MAX_EXEMPLARS {
            self.store
                .floor
                .store(items[MAX_EXEMPLARS - 1].latency_ns, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of every family's exemplars, slowest first.
pub(crate) fn snapshot_all() -> std::collections::BTreeMap<String, Vec<Exemplar>> {
    let reg = registry().lock().unwrap();
    reg.iter()
        .filter_map(|(name, s)| {
            let items = s.items.lock().unwrap().clone();
            (!items.is_empty()).then(|| (name.to_string(), items))
        })
        .collect()
}

/// Keeps the `MAX_EXEMPLARS` slowest of a union, slowest first (the
/// merge rule for snapshot roll-ups).
pub(crate) fn merge_exemplars(a: &[Exemplar], b: &[Exemplar]) -> Vec<Exemplar> {
    let mut all: Vec<Exemplar> = a.iter().chain(b).copied().collect();
    all.sort_by_key(|e| std::cmp::Reverse(e.latency_ns));
    all.dedup();
    all.truncate(MAX_EXEMPLARS);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(item: u64, ns: u64) -> Exemplar {
        Exemplar {
            item,
            state: 0,
            latency_ns: ns,
            output_size: 1,
        }
    }

    #[test]
    fn keeps_top_k_by_latency() {
        let rec = exemplar_recorder("test.exemplar_topk");
        for i in 0..100u64 {
            rec.record(ex(i, i * 10));
        }
        let snap = snapshot_all();
        let kept = &snap["test.exemplar_topk"];
        assert_eq!(kept.len(), MAX_EXEMPLARS);
        // The slowest MAX_EXEMPLARS items survive, slowest first.
        assert_eq!(kept[0].latency_ns, 990);
        assert_eq!(
            kept[MAX_EXEMPLARS - 1].latency_ns,
            (100 - MAX_EXEMPLARS as u64) * 10
        );
        assert!(kept.windows(2).all(|w| w[0].latency_ns >= w[1].latency_ns));
    }

    #[test]
    fn fast_items_are_rejected_without_growing() {
        let rec = exemplar_recorder("test.exemplar_floor");
        for i in 0..MAX_EXEMPLARS as u64 {
            rec.record(ex(i, 1_000 + i));
        }
        rec.record(ex(99, 1)); // far below the floor
        let snap = snapshot_all();
        let kept = &snap["test.exemplar_floor"];
        assert_eq!(kept.len(), MAX_EXEMPLARS);
        assert!(kept.iter().all(|e| e.latency_ns >= 1_000));
    }

    #[test]
    fn merge_keeps_slowest_of_union() {
        let a: Vec<Exemplar> = (0..MAX_EXEMPLARS as u64).map(|i| ex(i, 100 + i)).collect();
        let b: Vec<Exemplar> = (0..MAX_EXEMPLARS as u64)
            .map(|i| ex(50 + i, 1_000 + i))
            .collect();
        let m = merge_exemplars(&a, &b);
        assert_eq!(m.len(), MAX_EXEMPLARS);
        assert!(m.iter().all(|e| e.latency_ns >= 1_000));
    }
}
