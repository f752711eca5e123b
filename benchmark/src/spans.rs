//! A bench-local span recorder for `--trace`.
//!
//! Spans are kept in memory as (name, request id, parent, start, end)
//! and written out once, after the run, as Chrome `trace_event` JSON.
//! The recorder deliberately does not go through `fast_obs` spans or
//! histograms: the benchmark measures the program from outside, and its
//! span names are not part of the program's documented telemetry.

use fast_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `trees.parse`.
    pub name: &'static str,
    /// The request (or op) the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// An in-memory span buffer. A disabled recorder records nothing and
/// reads no clock, so the untraced timed loop runs the same code path.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`, a child of `parent`.
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let h = self.open(name, id, parent);
        let r = f();
        self.close(h);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over every root span (a span without a parent) and
/// its direct children: `(root count, root total ns, child name → total
/// ns)`. The glue of a root is its duration minus its children's, so the
/// children plus the glue add up to the root total exactly.
pub fn layer_totals(spans: &[Span]) -> (u64, u64, BTreeMap<&'static str, u64>) {
    let mut roots = 0u64;
    let mut root_ns = 0u64;
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        match s.parent {
            None => {
                roots += 1;
                root_ns += dur;
            }
            Some(p) if spans[p].parent.is_none() => *layers.entry(s.name).or_default() += dur,
            Some(_) => {}
        }
    }
    (roots, root_ns, layers)
}

/// Chrome `trace_event` JSON (load it in `chrome://tracing` or
/// Perfetto). `threads` are per-thread span lists; each becomes a `tid`.
pub fn chrome_trace(threads: &[Vec<Span>]) -> String {
    let mut events = Vec::new();
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            let mut args = vec![("id", Json::Int(s.id as i64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Str(spans[p].name.into())));
            }
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str("bench".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(tid as i64)),
                ("args", Json::obj(args)),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::Array(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_glue_add_up_to_the_root() {
        let mut r = Recorder::new(Instant::now(), true);
        let root = r.open("request", 7, None);
        r.wrap("a", 7, root, || std::hint::black_box(1 + 1));
        let b = r.open("b", 7, root);
        r.wrap("nested", 7, b, || ());
        r.close(b);
        r.close(root);
        let (n, total, layers) = layer_totals(r.spans());
        assert_eq!(n, 1);
        assert_eq!(layers.len(), 2, "only direct children are layers");
        assert!(layers.values().sum::<u64>() <= total);
        assert!(chrome_trace(&[r.into_spans()]).contains("\"parent\":\"b\""));

        let mut off = Recorder::new(Instant::now(), false);
        let h = off.open("request", 1, None);
        off.close(h);
        assert!(off.spans().is_empty());
    }
}
