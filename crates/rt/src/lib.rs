//! # fast-rt — parallel batch evaluation for STTRs
//!
//! The core interpreter ([`fast_core::Sttr::run`]) evaluates one tree at
//! a time with a per-run memo. Real workloads (the paper's §6 HTML
//! sanitization case study) evaluate the *same* transducer over *many*
//! documents that share structure — templates, cloned fragments,
//! repeated boilerplate. This crate exploits that:
//!
//! * [`Plan::compile`] turns an [`Sttr`](fast_core::Sttr) into a
//!   **compiled evaluation plan**: rules grouped into per
//!   `(state, constructor)` dispatch tables, guard-ordered so trivially
//!   true guards skip label evaluation, with the lookahead STA
//!   pre-indexed by constructor and every rule's lookahead sets
//!   precomputed as bit masks over the lookahead states. Compilation is
//!   done once; the plan is immutable and shared by every worker.
//!   Loading a `.fastc` [`Artifact`] builds the plan through the same
//!   constructor.
//! * [`Plan::run_batch`] evaluates a whole batch against a **shared memo
//!   table** keyed on `(state, TreeId)` — the stable structural identity
//!   every tree gets from the global hash-cons table in
//!   `fast_trees::intern`. Structurally equal subtrees share one id, so
//!   a subtree appearing in several batch items (or re-parsed from the
//!   same source) has its transduction and lookahead state set computed
//!   once per batch, not once per item. The table is
//!   capacity-bounded with eviction, and hit/miss/eviction counters
//!   surface both per batch ([`BatchStats`]) and globally (`rt.*`
//!   counters in `fast-obs`).
//! * Per node, evaluation allocates only what it returns. Guards
//!   compare label fields in place ([`fast_smt::Term::eval_ref`]), a
//!   subtree's lookahead states are a bitset (one inline word up to 64
//!   states), the memo and lookahead tables hash their integer keys
//!   with one multiply per integer instead of SipHash (`TreeId`s come
//!   from a server-side counter, so clients cannot aim collisions), and
//!   a rule's output trees are appended straight into the caller's
//!   vector.
//! * Work is spread over a dependency-free **work-stealing pool** of
//!   scoped threads; [`Plan::run_stream`] is the bounded-channel
//!   streaming variant with per-item timeouts. Both degrade gracefully:
//!   if the OS refuses to spawn threads, the batch completes
//!   sequentially on the calling thread.
//!
//! Per item, results are **identical** to [`fast_core::Sttr::run`] —
//! `crates/rt/tests/plan_oracle.rs` enforces this differentially against
//! randomly generated transducers, and the cap contract (exceeding the
//! output budget errors, never truncates) carries over unchanged.

mod artifact;
mod memo;
mod pipeline;
mod plan;
mod pool;
mod profile;

pub use artifact::{Artifact, ArtifactBuilder, ArtifactError, MAGIC, VERSION};
pub use pipeline::{BoundaryDecision, FusionStrategy, Pipeline, PipelineOptions, PipelineReport};
pub use plan::{BatchMemo, BatchStats, Plan, RunOptions};
pub use profile::{RuleProfile, RuleProfileEntry};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn plan_is_send_and_sync() {
        assert_send_sync::<Plan>();
        assert_send_sync::<RunOptions>();
        assert_send_sync::<BatchStats>();
    }
}
