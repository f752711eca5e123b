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
//!   `(state, constructor)` dispatch tables, the distinct non-trivial
//!   guards listed per constructor, the lookahead STA pre-indexed by
//!   constructor, and the *copy rules* (rules that rebuild the node
//!   they read) flagged. Compilation is done once, with no
//!   solver call; the plan is immutable and shared by every worker.
//!   A `.fastc` [`Artifact`] stores the transducer, not these tables:
//!   loading one runs [`Plan::compile`] too, so a loaded plan is built
//!   exactly as a fresh one.
//! * [`Plan::run_batch`] evaluates each item on a **table of its own**:
//!   one slot per distinct node ([`TreeId`](fast_trees::TreeId), the
//!   structural identity the global hash-cons table in
//!   `fast_trees::intern` gives every tree, so a subtree repeated inside
//!   the document is one slot), in post-order. Each slot carries one
//!   **annotation**: the lookahead states accepting the node, each
//!   state's enabled rules there, and the states `q` that *copy* it
//!   (`T_q(t) = {t}`, by induction over the children). Annotations are
//!   the states of a bottom-up deterministic automaton that the item
//!   builds lazily, keyed by `(constructor, label, child annotations)`:
//!   a key seen before costs one probe. A top-down loop over the slots
//!   reads each needed `(state, slot)` pair's rules from the slot's
//!   annotation and marks the pairs their calls read; a pair whose
//!   state copies its slot outputs its input node and marks nothing
//!   below it. A bottom-up loop builds each pair's outputs
//!   from its callees' finished sets. Nothing recurses on the input, so
//!   depth costs heap, not stack.
//! * Items share only a **root memo** keyed on `(initial state, root
//!   TreeId)`: a document seen before — an `Arc`-shared clone or an
//!   independent re-parse — is answered without evaluation. It is
//!   capacity-bounded with eviction, and hit/miss/eviction counters
//!   (pair lookups inside items included) surface both per batch
//!   ([`BatchStats`]) and globally (`rt.*` counters in `fast-obs`).
//! * Per node, evaluation allocates only what it returns. Guards
//!   compare label fields in place ([`fast_smt::Term::eval_ref`]) once
//!   per distinct `(constructor, label)` pair of an item, rules are
//!   tested against guards and lookahead once per distinct annotation
//!   key, and outputs go to one buffer per item.
//! * Every batch runs through one body: [`Plan::run_batch_shared`]
//!   against a [`BatchMemo`] (caller-owned, so results persist across
//!   batches, or fresh per call in [`Plan::run_batch_with`]).
//!   [`Pipeline`] has the same shape, with one memo per segment.
//! * Work is spread over a dependency-free **worker pool** of scoped
//!   threads that take items from one shared cursor, with per-item
//!   timeouts and cooperative cancellation. It degrades gracefully: if the OS refuses to spawn
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
