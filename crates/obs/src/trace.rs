//! Trace exporters and phase-tree aggregation over span events.
//!
//! Three consumers of the [`SpanEvent`] buffer:
//!
//! * [`chrome_trace`] — the Chrome `trace_event` JSON format (an object
//!   with a `traceEvents` array of complete `"ph": "X"` events), which
//!   loads directly into `chrome://tracing` or <https://ui.perfetto.dev>
//!   for a per-thread flame view;
//! * [`jsonl`] — one compact JSON object per line, for grep/jq-style
//!   post-processing and append-only logs;
//! * [`phase_tree`] / [`render_tree`] — merges every thread's span tree
//!   into one aggregate tree keyed by name path (counts + total
//!   nanoseconds per node), the "where did the time go" summary printed
//!   by `fastc profile`.

use crate::span::SpanEvent;
use fast_json::Json;

/// Converts events into Chrome `trace_event` JSON. Timestamps are
/// microseconds from the trace epoch ([`crate::set_tracing`]); each
/// recording thread becomes one `tid` lane under a single `pid`.
pub fn chrome_trace(events: &[SpanEvent]) -> Json {
    let trace_events = events
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::Str(e.name.to_string())),
                ("cat", Json::Str("fast".to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Float(e.start_ns as f64 / 1e3)),
                ("dur", Json::Float(e.dur_ns as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(e.tid as i64)),
                (
                    "args",
                    Json::obj([
                        ("depth", Json::Int(e.depth as i64)),
                        ("seq", Json::Int(e.seq as i64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Array(trace_events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

/// Serializes events as JSON Lines: one compact object per event, in
/// `(tid, seq)` order, with nanosecond fields.
pub fn jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let obj = Json::obj([
            ("name", Json::Str(e.name.to_string())),
            ("tid", Json::Int(e.tid as i64)),
            ("seq", Json::Int(e.seq as i64)),
            ("depth", Json::Int(e.depth as i64)),
            ("start_ns", Json::Int(e.start_ns as i64)),
            ("dur_ns", Json::Int(e.dur_ns as i64)),
        ]);
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    out
}

/// One node of the aggregated phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNode {
    /// Span name.
    pub name: String,
    /// Number of spans aggregated into this node.
    pub count: u64,
    /// Total wall-clock nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Nanoseconds not attributed to any child span.
    pub self_ns: u64,
    /// Child phases, sorted by `total_ns` descending.
    pub children: Vec<PhaseNode>,
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    children: std::collections::BTreeMap<&'static str, Agg>,
}

/// Merges every thread's span tree into one aggregate tree: spans with
/// the same name *path* (root-to-node names) are folded together, no
/// matter which thread recorded them. Roots are sorted by total time
/// descending. Events must come from [`crate::drain_events`] (sorted by
/// `(tid, seq)`), which makes each thread's slice a pre-order traversal.
pub fn phase_tree(events: &[SpanEvent]) -> Vec<PhaseNode> {
    let mut root = Agg::default();
    // Stack of (depth, path-of-names) for the current thread.
    let mut stack: Vec<(u32, &'static str)> = Vec::new();
    let mut current_tid = None;
    for e in events {
        if current_tid != Some(e.tid) {
            current_tid = Some(e.tid);
            stack.clear();
        }
        while stack.last().is_some_and(|(d, _)| *d >= e.depth) {
            stack.pop();
        }
        stack.push((e.depth, e.name));
        let mut node = &mut root;
        for (_, name) in &stack {
            node = node.children.entry(name).or_default();
        }
        node.count += 1;
        node.total_ns += e.dur_ns;
    }
    fn build(agg: &Agg) -> Vec<PhaseNode> {
        let mut nodes: Vec<PhaseNode> = agg
            .children
            .iter()
            .map(|(name, a)| {
                let children = build(a);
                let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
                PhaseNode {
                    name: name.to_string(),
                    count: a.count,
                    total_ns: a.total_ns,
                    self_ns: a.total_ns.saturating_sub(child_ns),
                    children,
                }
            })
            .collect();
        nodes.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        nodes
    }
    build(&root)
}

/// Renders a phase tree as an indented text table
/// (`name  calls  total  self`), durations in milliseconds.
pub fn render_tree(nodes: &[PhaseNode]) -> String {
    fn go(out: &mut String, nodes: &[PhaseNode], indent: usize) {
        for n in nodes {
            let label = format!("{:indent$}{}", "", n.name, indent = indent * 2);
            out.push_str(&format!(
                "{label:<40} {:>8} {:>12.3} ms {:>12.3} ms\n",
                n.count,
                n.total_ns as f64 / 1e6,
                n.self_ns as f64 / 1e6,
            ));
            go(out, &n.children, indent + 1);
        }
    }
    let mut out = format!(
        "{:<40} {:>8} {:>15} {:>15}\n",
        "phase", "calls", "total", "self"
    );
    go(&mut out, nodes, 0);
    out
}

/// Does any root-to-leaf path in `nodes` pass through `path` in order
/// (consecutively)? Convenience for tests asserting span nesting.
pub fn tree_has_path(nodes: &[PhaseNode], path: &[&str]) -> bool {
    let Some((first, rest)) = path.split_first() else {
        return true;
    };
    nodes.iter().any(|n| {
        (n.name == *first && tree_has_path(&n.children, rest)) || tree_has_path(&n.children, path)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, seq: u64, depth: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            seq,
            depth,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn phase_tree_nests_and_merges_threads() {
        let events = vec![
            ev("batch", 1, 0, 0, 0, 100),
            ev("item", 1, 1, 1, 10, 40),
            ev("item", 1, 2, 1, 60, 30),
            ev("batch", 2, 0, 0, 0, 50),
            ev("item", 2, 1, 1, 5, 20),
        ];
        let tree = phase_tree(&events);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "batch");
        assert_eq!(tree[0].count, 2);
        assert_eq!(tree[0].total_ns, 150);
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].count, 3);
        assert_eq!(tree[0].children[0].total_ns, 90);
        assert_eq!(tree[0].self_ns, 60);
        assert!(tree_has_path(&tree, &["batch", "item"]));
        assert!(!tree_has_path(&tree, &["item", "batch"]));
    }

    #[test]
    fn chrome_trace_round_trips() {
        let events = vec![ev("a", 1, 0, 0, 1_000, 2_000)];
        let json = chrome_trace(&events);
        let parsed = Json::parse(&json.to_string()).unwrap();
        let arr = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").unwrap(), &Json::Str("a".to_string()));
        assert_eq!(arr[0].get("ph").unwrap(), &Json::Str("X".to_string()));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = vec![ev("a", 1, 0, 0, 0, 5), ev("b", 1, 1, 1, 1, 2)];
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).unwrap();
            assert!(v.get("name").is_some());
            assert!(v.get("dur_ns").is_some());
        }
    }
}
