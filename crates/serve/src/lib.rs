//! `grm-serve` — the failure-first serving layer.
//!
//! Exposes mine / check / explain jobs over a shared immutable
//! [`grm_pgraph::PropertyGraph`] snapshot, designed around the
//! assumption that overload, abusive tenants, and crashes are the
//! normal case:
//!
//! - **Bounded admission.** Jobs enter a fixed-depth queue; a full
//!   queue sheds with 429 instead of buffering unboundedly.
//! - **Per-tenant rate limits.** A deterministic token bucket per
//!   tenant (429 `rate_limited` when empty).
//! - **Per-tenant circuit breakers.** A tenant whose jobs repeatedly
//!   fail or blow their deadline trips a `grm-resil` [`grm_resil::Breaker`]
//!   and is refused (403) for the 2N-skip cooldown, then half-opens.
//! - **Deadline propagation.** `deadline_seconds` on the request
//!   becomes a [`grm_resil::DeadlineBudget`] over simulated stage
//!   time — slow jobs are cancelled, never wedged.
//! - **Crash safety.** Every admission and transition appends to a
//!   JSONL job WAL in the spool directory; a killed server re-queues
//!   incomplete jobs on restart and resumes mine jobs from their
//!   checkpoint journals via `ResumeState::from_journal`, converging
//!   to byte-identical run journals.
//! - **Graceful shutdown.** `POST /shutdown` drains in-flight jobs,
//!   journals a clean `drained` marker, and flushes telemetry.
//!
//! The [`baseline_harness`] scripts all of the above deterministically
//! for the committed `BENCH_serve.json` gate.

mod harness;
mod http;
mod job;
mod service;

pub use harness::baseline_harness;
pub use http::{http_request, route, serve_http, Request};
pub use job::{
    replay_wal, state, JobRecord, JobSpec, JobStatus, TokenBucket, WalReplay, WAL_ACCEPTED,
    WAL_DRAINED,
};
pub use service::{Rejection, ServeConfig, ServeStats, Service, CHECK_RULE_SIM_SECONDS};
