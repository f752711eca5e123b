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
//!   same source) has its transduction computed once per batch, not
//!   once per item. The memo is the only table items share. It is
//!   capacity-bounded with eviction, and hit/miss/eviction counters
//!   surface both per batch ([`BatchStats`]) and globally (`rt.*`
//!   counters in `fast-obs`).
//! * Lookahead is per item: a subtree's lookahead state set depends only
//!   on the subtree and the plan, so each item labels its input
//!   bottom-up into its own table — one bit word per 64 states per
//!   distinct node, keyed by `TreeId` so a subtree shared inside the
//!   document is labelled once — and drops the table when it finishes.
//! * Per node, evaluation allocates only what it returns. Guards
//!   compare label fields in place ([`fast_smt::Term::eval_ref`]), a
//!   lookahead check is a few word operations against a precomputed
//!   mask, the memo and the item's lookahead table hash their integer
//!   keys with one multiply per integer instead of SipHash (`TreeId`s
//!   come from a server-side counter, so clients cannot aim
//!   collisions), and a rule's output trees are appended straight into
//!   the caller's vector.
//! * Every batch runs through one body: [`Plan::run_batch_shared`]
//!   against a [`BatchMemo`] (caller-owned, so results persist across
//!   batches, or fresh per call in [`Plan::run_batch_with`]).
//!   [`Pipeline`] has the same shape, with one memo per segment.
//! * Work is spread over a dependency-free **work-stealing pool** of
//!   scoped threads, with per-item timeouts and cooperative
//!   cancellation. It degrades gracefully: if the OS refuses to spawn
//!   threads, the batch completes sequentially on the calling thread.
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
pub use pipeline::{BoundaryDecision, FusionStrategy, Pipeline, PipelineReport};
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
