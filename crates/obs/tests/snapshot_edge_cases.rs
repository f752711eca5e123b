//! Edge cases of [`Snapshot::merge`] and [`Snapshot::delta_from`],
//! built from synthetic snapshots (never the global registry, so these
//! tests are immune to test order and parallelism): empty operands,
//! disjoint metric names, and counter resets where the "earlier"
//! snapshot is ahead of the "later" one — the shape a windowing sampler
//! sees after a process restart behind the same scrape endpoint.

use fast_obs::{Exemplar, Hist, Snapshot};

/// A synthetic snapshot: counters, gauges, latency samples
/// (recorded into a real [`Hist`] so bucket arithmetic is exercised),
/// and `rt.item` exemplars.
fn snap(
    counters: &[(&str, u64)],
    gauges: &[(&str, u64)],
    item_latencies_ns: &[u64],
    exemplars: &[Exemplar],
) -> Snapshot {
    let mut s = Snapshot::empty();
    for (k, v) in counters {
        s.counters.insert(k.to_string(), *v);
    }
    for (k, v) in gauges {
        s.gauges.insert(k.to_string(), *v);
    }
    if !item_latencies_ns.is_empty() {
        let h = Hist::new();
        for ns in item_latencies_ns {
            h.record_ns(*ns);
        }
        s.hists.insert("rt.item".to_string(), h.snapshot());
    }
    if !exemplars.is_empty() {
        s.exemplars
            .insert("rt.item".to_string(), exemplars.to_vec());
    }
    s
}

fn ex(item: u64, latency_ns: u64) -> Exemplar {
    Exemplar {
        item,
        state: 0,
        latency_ns,
        output_size: 1,
    }
}

#[test]
fn empty_is_the_identity_for_merge_and_delta() {
    let empty = Snapshot::empty();
    let full = snap(
        &[("rt.batch_items", 10)],
        &[("intern.resident_bytes", 512)],
        &[1_000, 2_000],
        &[ex(7, 2_000)],
    );

    // empty ∘ empty is empty in every map.
    let ee = empty.merge(&empty);
    assert!(ee.counters.is_empty() && ee.gauges.is_empty());
    assert!(ee.hists.is_empty() && ee.exemplars.is_empty());
    assert_eq!(empty.delta_from(&empty).counters.len(), 0);

    // Merging with empty changes nothing, from either side.
    for merged in [full.merge(&empty), empty.merge(&full)] {
        assert_eq!(merged.get("rt.batch_items"), 10);
        assert_eq!(merged.gauge("intern.resident_bytes"), 512);
        assert_eq!(merged.hists["rt.item"].count, 2);
        assert_eq!(merged.exemplars["rt.item"].len(), 1);
    }

    // A delta against an empty baseline is the snapshot itself; a delta
    // OF an empty snapshot drops every counter (gauges are point-in-time
    // and ride along verbatim — here there are none).
    let d = full.delta_from(&empty);
    assert_eq!(d.get("rt.batch_items"), 10);
    assert_eq!(d.hists["rt.item"].count, 2);
    let d = empty.delta_from(&full);
    assert!(d.counters.is_empty() && d.hists.is_empty());
}

#[test]
fn disjoint_names_union_in_merge_and_pass_through_delta() {
    let a = snap(
        &[("rt.memo_hits", 4)],
        &[("rt.memo.entries", 2)],
        &[],
        &[ex(1, 100)],
    );
    let b = snap(
        &[("rt.memo_misses", 6)],
        &[("intern.resident_bytes", 3)],
        &[500],
        &[],
    );

    // Merge is a union when names are disjoint — nothing is dropped and
    // nothing cross-contaminates.
    let m = a.merge(&b);
    assert_eq!(m.get("rt.memo_hits"), 4);
    assert_eq!(m.get("rt.memo_misses"), 6);
    assert_eq!(m.gauge("rt.memo.entries"), 2);
    assert_eq!(m.gauge("intern.resident_bytes"), 3);
    assert_eq!(m.hists["rt.item"].count, 1);
    assert_eq!(m.exemplars["rt.item"].len(), 1);

    // A counter the baseline never saw deltas from zero, and baselines
    // for names the later snapshot lacks simply vanish (a counter that
    // did not move is not part of the delta).
    let d = b.delta_from(&a);
    assert_eq!(d.get("rt.memo_misses"), 6);
    assert!(!d.counters.contains_key("rt.memo_hits"));
    assert_eq!(d.hists["rt.item"].count, 1);
}

/// The "counter reset" shape: the earlier snapshot is *ahead* of the
/// later one (restarted process, rewound registry). Deltas saturate to
/// zero and drop the entry instead of wrapping to ~2^64.
#[test]
fn counter_reset_saturates_instead_of_wrapping() {
    let earlier = snap(
        &[("rt.batch_items", 1_000), ("rt.memo_hits", 50)],
        &[],
        &[1_000, 1_000, 1_000],
        &[],
    );
    let later = snap(
        &[("rt.batch_items", 10), ("rt.memo_hits", 50)],
        &[],
        &[2_000],
        &[],
    );

    let d = later.delta_from(&earlier);
    // Saturated to 0 ⇒ treated as "did not move" and omitted, never a
    // huge positive count.
    assert!(!d.counters.contains_key("rt.batch_items"));
    assert!(!d.counters.contains_key("rt.memo_hits"));
    // Histogram buckets saturate the same way: 1 sample cannot show a
    // positive count against a 3-sample baseline in the same bucket.
    assert!(
        !d.hists.contains_key("rt.item") || d.hists["rt.item"].count <= 1,
        "reset histogram must not wrap: {:?}",
        d.hists.get("rt.item")
    );
}

/// Gauges are point-in-time readings, not rates: a delta keeps the later
/// snapshot's reading verbatim (even when it went *down*), while a merge
/// sums them (fleet roll-up semantics).
#[test]
fn gauges_delta_verbatim_but_merge_summed() {
    let earlier = snap(&[], &[("rt.memo.bytes", 900)], &[], &[]);
    let later = snap(&[], &[("rt.memo.bytes", 300)], &[], &[]);
    assert_eq!(later.delta_from(&earlier).gauge("rt.memo.bytes"), 300);
    assert_eq!(later.merge(&earlier).gauge("rt.memo.bytes"), 1_200);
}

/// Exemplar families merge as a top-K union; a delta keeps the later
/// snapshot's families verbatim.
#[test]
fn exemplars_merge_as_top_k_union() {
    let mut slow: Vec<Exemplar> = (0..8).map(|i| ex(i, 10_000 - i * 100)).collect();
    let a = snap(&[], &[], &[], &slow);
    let b = snap(&[], &[], &[], &[ex(99, 50_000), ex(98, 5)]);

    let m = a.merge(&b);
    let merged = &m.exemplars["rt.item"];
    assert_eq!(merged.len(), 8, "top-K capped: {merged:?}");
    assert_eq!(merged[0].item, 99, "slowest first: {merged:?}");
    assert!(
        merged.iter().all(|e| e.item != 98),
        "the fast item must lose the cut: {merged:?}"
    );
    // Sorted descending by latency.
    assert!(merged
        .windows(2)
        .all(|w| w[0].latency_ns >= w[1].latency_ns));

    slow.truncate(2);
    let later = snap(&[], &[], &[], &slow);
    let d = later.delta_from(&a);
    assert_eq!(d.exemplars["rt.item"].len(), 2);
}
