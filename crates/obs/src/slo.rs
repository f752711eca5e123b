//! Declarative service-level objectives over windowed telemetry.
//!
//! An [`SloSpec`] is a small JSON document of ceilings and floors —
//! p99 item latency, minimum memo hit rate, maximum resident interner
//! bytes, maximum item error rate — evaluated against a
//! [`WindowView`] (not a cumulative
//! snapshot: an SLO is a statement about *recent* behaviour).
//! `fastc serve --slo <file>` evaluates the spec once per closed
//! telemetry window and reports the current [`SloViolation`]s through
//! the `stats` operation.
//!
//! Rules whose signal is absent from the window are **skipped**, not
//! failed: a window where the memo was never consulted says nothing
//! about the hit rate, and a histogram with no samples has no p99. The
//! resident-bytes rule is the exception — a gauge always has a reading
//! (0 before the interner is touched), so it always evaluates.
//!
//! ```
//! let spec = fast_obs::slo::SloSpec::parse(
//!     r#"{"max_intern_resident_bytes": 1}"#,
//! ).unwrap();
//! fast_obs::gauge("intern.resident_bytes").add(100);
//! let mut sampler = fast_obs::engine::Sampler::new(4);
//! sampler.tick();
//! let violations = spec.evaluate(&sampler.view(4));
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "max_intern_resident_bytes");
//! ```

use fast_json::Json;

use crate::engine::WindowView;

/// A parsed SLO specification (see the module docs). Every rule is
/// optional; an empty spec never fires.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSpec {
    /// Ceiling on the windowed `rt.item` p99, in milliseconds.
    pub p99_latency_ms: Option<f64>,
    /// Floor on the windowed memo hit rate
    /// (`rt.memo_hits / (rt.memo_hits + rt.memo_misses)`), in `0..=1`.
    pub min_memo_hit_rate: Option<f64>,
    /// Ceiling on the `intern.resident_bytes` gauge at the window's
    /// end.
    pub max_intern_resident_bytes: Option<u64>,
    /// Ceiling on the windowed item error rate
    /// (`rt.item_errors / rt.batch_items`), in `0..=1`.
    pub max_error_rate: Option<f64>,
}

/// One fired SLO rule: which rule, what the window actually showed, and
/// the configured limit (in the rule's own unit).
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// The spec key that fired (e.g. `p99_latency_ms`).
    pub rule: &'static str,
    /// Observed value, in the rule's unit.
    pub actual: f64,
    /// Configured ceiling/floor, in the rule's unit.
    pub limit: f64,
}

impl SloViolation {
    /// Renders the violation as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::Str(self.rule.to_string())),
            ("actual", Json::Float(self.actual)),
            ("limit", Json::Float(self.limit)),
        ])
    }
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let relation = if self.rule.starts_with("min_") {
            "<"
        } else {
            ">"
        };
        write!(
            f,
            "SLO violated: {} = {:.4} {} {:.4}",
            self.rule, self.actual, relation, self.limit
        )
    }
}

impl SloSpec {
    /// Parses a spec from its JSON text. Unknown keys, repeated keys and
    /// non-numeric values are errors (a typoed rule must not silently
    /// never fire, nor a repeated one silently replace the first);
    /// rates outside `0..=1`, negative limits and a fractional byte
    /// count are rejected.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let json = Json::parse(text).map_err(|e| format!("invalid SLO JSON: {e}"))?;
        let Json::Object(fields) = &json else {
            return Err("SLO spec must be a JSON object".to_string());
        };
        let mut spec = SloSpec::default();
        for (i, (key, value)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("SLO rule {key:?} is given more than once"));
            }
            let num = value
                .as_f64()
                .ok_or_else(|| format!("SLO rule {key:?} must be a number"))?;
            if num < 0.0 {
                return Err(format!("SLO rule {key:?} must be non-negative"));
            }
            match key.as_str() {
                "p99_latency_ms" => spec.p99_latency_ms = Some(num),
                "min_memo_hit_rate" | "max_error_rate" => {
                    if num > 1.0 {
                        return Err(format!("SLO rule {key:?} is a rate in 0..=1, got {num}"));
                    }
                    if key == "min_memo_hit_rate" {
                        spec.min_memo_hit_rate = Some(num);
                    } else {
                        spec.max_error_rate = Some(num);
                    }
                }
                "max_intern_resident_bytes" => {
                    if num.fract() != 0.0 {
                        return Err(format!(
                            "SLO rule {key:?} is a whole number of bytes, got {num}"
                        ));
                    }
                    spec.max_intern_resident_bytes = Some(num as u64);
                }
                _ => return Err(format!("unknown SLO rule {key:?}")),
            }
        }
        Ok(spec)
    }

    /// Evaluates every configured rule against a windowed view,
    /// returning the violations (empty means the window met the SLO).
    /// Rules whose signal is absent from the window are skipped (see
    /// the module docs).
    pub fn evaluate(&self, view: &WindowView) -> Vec<SloViolation> {
        let mut out = Vec::new();
        if let (Some(limit), Some(p99_ns)) =
            (self.p99_latency_ms, view.quantile_ns("rt.item", 0.99))
        {
            let actual = p99_ns as f64 / 1e6;
            if actual > limit {
                out.push(SloViolation {
                    rule: "p99_latency_ms",
                    actual,
                    limit,
                });
            }
        }
        if let (Some(limit), Some(actual)) = (
            self.min_memo_hit_rate,
            view.hit_rate("rt.memo_hits", "rt.memo_misses"),
        ) {
            if actual < limit {
                out.push(SloViolation {
                    rule: "min_memo_hit_rate",
                    actual,
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_intern_resident_bytes {
            let actual = view.snap.gauge("intern.resident_bytes");
            if actual > limit {
                out.push(SloViolation {
                    rule: "max_intern_resident_bytes",
                    actual: actual as f64,
                    limit: limit as f64,
                });
            }
        }
        if let Some(limit) = self.max_error_rate {
            let items = view.snap.get("rt.batch_items");
            if items > 0 {
                let actual = view.snap.get("rt.item_errors") as f64 / items as f64;
                if actual > limit {
                    out.push(SloViolation {
                        rule: "max_error_rate",
                        actual,
                        limit,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WindowView;
    use crate::Snapshot;

    /// Builds a synthetic view without touching the global registry, so
    /// these tests stay independent of test-order and parallelism.
    fn view(
        counters: &[(&str, u64)],
        gauges: &[(&str, u64)],
        item_latencies_ns: &[u64],
    ) -> WindowView {
        let mut snap = Snapshot::empty();
        for (k, v) in counters {
            snap.counters.insert(k.to_string(), *v);
        }
        for (k, v) in gauges {
            snap.gauges.insert(k.to_string(), *v);
        }
        if !item_latencies_ns.is_empty() {
            let h = crate::Hist::new();
            for ns in item_latencies_ns {
                h.record_ns(*ns);
            }
            snap.hists.insert("rt.item".to_string(), h.snapshot());
        }
        WindowView {
            windows: 1,
            span_ms: 1000,
            snap,
        }
    }

    #[test]
    fn parse_full_spec_roundtrip() {
        let spec = SloSpec::parse(
            r#"{"p99_latency_ms": 5.5, "min_memo_hit_rate": 0.9,
                "max_intern_resident_bytes": 1000000, "max_error_rate": 0.01}"#,
        )
        .unwrap();
        assert_eq!(spec.p99_latency_ms, Some(5.5));
        assert_eq!(spec.min_memo_hit_rate, Some(0.9));
        assert_eq!(spec.max_intern_resident_bytes, Some(1_000_000));
        assert_eq!(spec.max_error_rate, Some(0.01));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(SloSpec::parse("[1]").is_err());
        assert!(SloSpec::parse(r#"{"p99_latency_sm": 5}"#).is_err()); // typo
        assert!(SloSpec::parse(r#"{"p99_latency_ms": "fast"}"#).is_err());
        assert!(SloSpec::parse(r#"{"min_memo_hit_rate": 1.5}"#).is_err());
        assert!(SloSpec::parse(r#"{"p99_latency_ms": -1}"#).is_err());
        assert_eq!(SloSpec::parse("{}").unwrap(), SloSpec::default());
    }

    #[test]
    fn parse_rejects_a_repeated_rule() {
        let err = SloSpec::parse(r#"{"p99_latency_ms": 5, "p99_latency_ms": 500}"#).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        // Two different rules are fine.
        assert!(SloSpec::parse(r#"{"p99_latency_ms": 5, "max_error_rate": 0}"#).is_ok());
    }

    #[test]
    fn parse_rejects_a_fractional_byte_ceiling() {
        // Truncated, 0.5 would become a ceiling of 0 bytes and fire on
        // every reading.
        let err = SloSpec::parse(r#"{"max_intern_resident_bytes": 0.5}"#).unwrap_err();
        assert!(err.contains("whole number of bytes"), "{err}");
        let spec = SloSpec::parse(r#"{"max_intern_resident_bytes": 2.0}"#).unwrap();
        assert_eq!(spec.max_intern_resident_bytes, Some(2));
    }

    #[test]
    fn latency_and_bytes_rules_fire() {
        let spec =
            SloSpec::parse(r#"{"p99_latency_ms": 1, "max_intern_resident_bytes": 100}"#).unwrap();
        let v = view(&[], &[("intern.resident_bytes", 500)], &[5_000_000]);
        let violations = spec.evaluate(&v);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|x| x.rule == "p99_latency_ms"));
        assert!(violations
            .iter()
            .any(|x| x.rule == "max_intern_resident_bytes" && x.actual == 500.0));
        // Display names the rule and both numbers.
        let msg = violations[0].to_string();
        assert!(msg.contains("p99_latency_ms"), "{msg}");
    }

    #[test]
    fn rate_rules_fire_and_pass() {
        let spec = SloSpec::parse(r#"{"min_memo_hit_rate": 0.8, "max_error_rate": 0.1}"#).unwrap();
        let bad = view(
            &[
                ("rt.memo_hits", 1),
                ("rt.memo_misses", 9),
                ("rt.batch_items", 10),
                ("rt.item_errors", 5),
            ],
            &[],
            &[],
        );
        let violations = spec.evaluate(&bad);
        assert_eq!(violations.len(), 2);
        let good = view(
            &[
                ("rt.memo_hits", 9),
                ("rt.memo_misses", 1),
                ("rt.batch_items", 10),
            ],
            &[],
            &[],
        );
        assert!(spec.evaluate(&good).is_empty());
    }

    #[test]
    fn absent_signals_are_skipped_not_failed() {
        let spec = SloSpec::parse(
            r#"{"p99_latency_ms": 1, "min_memo_hit_rate": 0.99, "max_error_rate": 0}"#,
        )
        .unwrap();
        // An idle window: no items, no memo lookups, no latency samples.
        assert!(spec.evaluate(&view(&[], &[], &[])).is_empty());
    }
}
