//! Per-rule execution profiles for compiled plans.
//!
//! When [`RunOptions::profile`](crate::RunOptions::profile) is set, the
//! plan's dispatch loop attributes its work to individual transducer
//! rules: how often each `(state, ctor, rule-index)` fired (produced
//! output for a `(state, node)` pair), how often dispatch consulted its
//! non-trivial guard (once per dispatched pair of the rule's state and
//! constructor, through the node's annotation), and its cumulative
//! *self* nanoseconds: the time spent marking the enabled rule's calls
//! and building its output from the finished sub-transductions, which
//! are charged to their own rules. A pair whose state copies its node
//! is one firing of the enabled copy rule, with its time; nothing below
//! it fires. Guards themselves are evaluated, and rules selected, once
//! per node annotation while the input is lowered, outside any rule's
//! time. Memo hits are attributed per state — a hit
//! is found before any rule is selected.
//!
//! Collection is an array of relaxed atomics indexed by a precomputed
//! flat rule index, so profiled batches stay parallel; with profiling
//! off the only cost is one `Option` test per dispatch.

use fast_json::Json;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw per-batch profile collection (flat, atomic).
#[derive(Debug)]
pub(crate) struct ProfileData {
    /// Per flat rule index: rule fired (guard + lookahead passed,
    /// output evaluated).
    pub fired: Vec<AtomicU64>,
    /// Per flat rule index: dispatch consultations of a non-trivial
    /// guard.
    pub guard_evals: Vec<AtomicU64>,
    /// Per flat rule index: cumulative self nanoseconds.
    pub ns: Vec<AtomicU64>,
    /// Per state: memo hits while dispatching that state.
    pub state_memo_hits: Vec<AtomicU64>,
}

impl ProfileData {
    pub(crate) fn new(total_rules: usize, states: usize) -> ProfileData {
        ProfileData {
            fired: (0..total_rules).map(|_| AtomicU64::new(0)).collect(),
            guard_evals: (0..total_rules).map(|_| AtomicU64::new(0)).collect(),
            ns: (0..total_rules).map(|_| AtomicU64::new(0)).collect(),
            state_memo_hits: (0..states).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One rule's share of a profiled batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProfileEntry {
    /// Owning transformation state (index and human-readable name).
    pub state: usize,
    /// State name from the transducer.
    pub state_name: String,
    /// Constructor the rule reads.
    pub ctor: usize,
    /// Constructor name from the tree type.
    pub ctor_name: String,
    /// Index into the state's rule list.
    pub rule_idx: usize,
    /// Times the rule fired: `(state, node)` pairs where its guard and
    /// lookahead held and it produced the pair's output (a copied
    /// subtree is one firing at its root).
    pub fired: u64,
    /// Times dispatch consulted the rule's non-trivial guard (each
    /// guard is evaluated once per node, however often it is
    /// consulted).
    pub guard_evals: u64,
    /// Memo hits recorded against the rule's state (shared by every rule
    /// of that state — a hit happens before rule selection).
    pub state_memo_hits: u64,
    /// Cumulative self nanoseconds (see the module docs).
    pub ns: u64,
}

/// A per-rule profile of one batch run; see the module docs.
///
/// Returned in [`BatchStats::profile`](crate::BatchStats::profile) when
/// [`RunOptions::profile`](crate::RunOptions::profile) is set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Every rule of the plan, in `(state, rule_idx)` order.
    pub entries: Vec<RuleProfileEntry>,
}

impl RuleProfile {
    /// The `k` hottest rules by cumulative time (rules that never ran
    /// are excluded), hottest first.
    pub fn hot(&self, k: usize) -> Vec<&RuleProfileEntry> {
        let mut v: Vec<&RuleProfileEntry> = self
            .entries
            .iter()
            .filter(|e| e.fired + e.guard_evals + e.ns > 0)
            .collect();
        v.sort_by(|a, b| {
            b.ns.cmp(&a.ns)
                .then(b.fired.cmp(&a.fired))
                .then(a.state.cmp(&b.state))
                .then(a.rule_idx.cmp(&b.rule_idx))
        });
        v.truncate(k);
        v
    }

    /// Renders the hot-rule table (top `k`) as text.
    pub fn render_hot(&self, k: usize) -> String {
        let mut out = format!(
            "{:<28} {:<10} {:>5} {:>10} {:>12} {:>10} {:>12}\n",
            "state", "ctor", "rule", "fired", "guard-evals", "memo-hits", "time"
        );
        for e in self.hot(k) {
            out.push_str(&format!(
                "{:<28} {:<10} {:>5} {:>10} {:>12} {:>10} {:>9.3} ms\n",
                truncate(&e.state_name, 28),
                truncate(&e.ctor_name, 10),
                e.rule_idx,
                e.fired,
                e.guard_evals,
                e.state_memo_hits,
                e.ns as f64 / 1e6,
            ));
        }
        out
    }

    /// The profile as a JSON array of per-rule objects, in
    /// `(state, rule_idx)` order, skipping rules that never ran.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.entries
                .iter()
                .filter(|e| e.fired + e.guard_evals + e.ns > 0)
                .map(|e| {
                    Json::obj([
                        ("state", Json::Str(e.state_name.clone())),
                        ("ctor", Json::Str(e.ctor_name.clone())),
                        ("rule", Json::Int(e.rule_idx as i64)),
                        ("fired", Json::Int(e.fired as i64)),
                        ("guard_evals", Json::Int(e.guard_evals as i64)),
                        ("state_memo_hits", Json::Int(e.state_memo_hits as i64)),
                        ("ns", Json::Int(e.ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

impl fmt::Display for RuleProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_hot(usize::MAX))
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max - 1).collect();
        format!("{head}…")
    }
}

pub(crate) fn load(data: &ProfileData, i: usize) -> (u64, u64, u64) {
    (
        data.fired[i].load(Ordering::Relaxed),
        data.guard_evals[i].load(Ordering::Relaxed),
        data.ns[i].load(Ordering::Relaxed),
    )
}
