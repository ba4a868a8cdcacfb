//! # grm-obs — pipeline observability
//!
//! Lightweight, dependency-free instrumentation for the mining
//! pipeline (Figure 1 of the paper):
//!
//! * **hierarchical spans** — one per pipeline stage, with real
//!   wall-clock duration *and* the simulated LLM seconds the study
//!   reports (Table 5), so journals show both what the host machine
//!   spent and what the modelled deployment would have spent;
//! * **typed counters and gauges** ([`Counter`], [`Gauge`]) — nodes
//!   and edges encoded, tokens emitted, windows produced, prompts
//!   issued, rules mined/deduped/translated, Cypher rows matched,
//!   support evaluations;
//! * **fixed-bucket histograms** ([`Histogram`], named by [`Histo`]) —
//!   per-prompt simulated latency, per-window token counts, per-query
//!   result rows, retrieval scores — recorded per span *and* run-wide,
//!   mergeable without rebinning, with p50/p90/p95/p99 estimates;
//! * **query-plan profiles** ([`PlanRecord`]) — Neo4j-`PROFILE`-style
//!   per-operator statistics (rows, db-hits, self-time) the Cypher
//!   engine attaches to rule spans, with an optional slow-query
//!   policy ([`SlowQueryPolicy`]) flagging expensive rules;
//! * **rule lineage** ([`LineageRecord`], [`BoundaryRecord`]) — per-
//!   rule provenance (origin windows/chunks with token ranges, merge
//!   frequency, translation attempts, §4.4 error class, correction,
//!   final scores) and the §4.5 window-boundary breakages, attached
//!   to spans like plan profiles;
//! * **resilience records** ([`ChaosRecord`], [`FaultRecord`],
//!   [`RetryRecord`], [`DegradedRecord`], [`CheckpointRecord`]) —
//!   injected transient faults, retry verdicts, degraded units and
//!   completed-unit checkpoints written by chaos runs, the substrate
//!   behind `grm mine --fault-rate`/`--resume`;
//! * **memory records** ([`MemRecord`], [`TrackingAlloc`]) — a
//!   `#[global_allocator]`-compatible tracking allocator whose
//!   live/peak/count atomics give every span `alloc_bytes`,
//!   `alloc_count` and `peak_delta` deltas on exit, plus
//!   deterministic footprint tables ([`FootprintRow`]) computed from
//!   container capacities, the substrate behind `grm trace mem`;
//! * **a live telemetry bus** ([`TelemetryEvent`], [`EventSink`],
//!   [`ChannelSink`], [`MetricsHub`]) — every recorder mutation
//!   emitted to bounded, non-blocking, drop-counting sinks the moment
//!   it happens, the substrate behind `grm mine --progress`,
//!   `--events`, `--metrics-out`/`--metrics-listen` (Prometheus text
//!   exposition, which grm-serve's HTTP front end serves; this crate
//!   opens no socket) and `grm trace tail`;
//! * **a JSONL run journal** ([`RunJournal`]) serialising the span
//!   tree (with v7 `sim_start_seconds` offsets placing every span on
//!   the simulated axis), counter totals, histograms, plan profiles,
//!   lineage, resilience and memory records, and streamed v8 `Event`
//!   lines (schema v8; readers skip unknown record kinds), written by
//!   `grm mine --trace` and the `repro` binary;
//! * **timeline analytics** ([`TimelineReport`],
//!   [`CriticalPathReport`]) — per-worker occupancy lanes, utilization
//!   and effective parallel speedup, and the critical path bounding
//!   the run wall-clock, the machinery behind `grm trace timeline` and
//!   `grm trace critical-path`;
//! * **trace analytics** ([`TraceDiff`], [`folded_stacks`],
//!   [`PlanReport`], [`LineageReport`], [`FaultReport`],
//!   [`MemReport`]) — run-over-run diffing, flamegraph export,
//!   operator cost tables, rule-provenance tables, fault digests and
//!   allocation tables behind `grm trace`; the committed
//!   `BENCH_*.json` gates are built from these reports by `grm-bench`.
//!
//! The entry point is [`Recorder`]. A disabled recorder costs one
//! `Option` check per call, so instrumented code paths stay free when
//! tracing is off:
//!
//! ```
//! use grm_obs::{Counter, Recorder};
//!
//! let rec = Recorder::new();
//! let root = rec.root_scope().span("pipeline");
//! let encode = root.scope().span("encode");
//! encode.scope().add(Counter::NodesEncoded, 42);
//! encode.finish();
//! root.finish();
//!
//! let journal = rec.snapshot();
//! assert_eq!(journal.total(Counter::NodesEncoded.name()), 42);
//! assert_eq!(journal.spans[1].name, "encode");
//! ```
//!
//! Every other journal record — a plan profile, lineage, boundary,
//! chaos identity, fault, retry, degraded unit, checkpoint or
//! footprint table — is stored with [`Scope::record`], which accepts
//! exactly these [`Payload`] types and emits each one's bus event.
//!
//! Counters are recorded twice: on the innermost enclosing span and
//! in the run-wide totals. That makes per-worker attribution testable
//! — the sum of a counter over the `worker-*` spans must equal the
//! run total for counters only workers touch.

mod analytics;
mod bus;
mod counter;
mod histogram;
mod journal;
mod lineage;
mod mem;
mod plan;
mod recorder;
mod resilience;
mod tail;
mod timeline;

pub use analytics::{
    explain_rule, folded_stacks, CounterDiffRow, FaultReport, FlameWeight, HistoDiffRow,
    LineageReport, MemComponent, MemReport, MemSpanRow, OptimizerReport, OriginYield, PlanOpAgg,
    PlanReport, PlanScopeAgg, StageDiffRow, TraceDiff,
};
pub use bus::{
    check_exposition_against_events, event_stream_sink, parity_violations, parse_exposition,
    prometheus_exposition, ChannelSink, CountingSink, EventSink, EventStreamHandle,
    ExpositionSample, MetricsHub, TelemetryEvent, EXPOSITION_CONTENT_TYPE,
};
pub use counter::{Counter, Gauge, Histo};
pub use histogram::{Histogram, BUCKET_COUNT};
pub use journal::{
    HistoRecord, HistogramSummary, JournalRecord, JournalSummary, LineageDigest, MemDigest,
    Payload, PlanDigest, ResilienceDigest, RunJournal, SpanRecord, StageTiming, JOURNAL_VERSION,
};
pub use lineage::{BoundaryRecord, LineageRecord, OriginRef};
pub use mem::{AllocSnapshot, FootprintRow, MemRecord, TrackingAlloc};
pub use plan::{PlanOpRecord, PlanRecord, SlowQueryPolicy};
pub use recorder::{Recorder, Scope, Span};
pub use resilience::{ChaosRecord, CheckpointRecord, DegradedRecord, FaultRecord, RetryRecord};
pub use tail::{TailFollower, TailPoll};
pub use timeline::{
    CriticalPathChain, CriticalPathReport, CriticalPathStep, StageSegment, TimelineReport,
    WorkerLane,
};

/// Shared unit-test helper: asserts `value` survives a serde JSON
/// round-trip unchanged. One definition instead of a copy per record
/// module.
#[cfg(test)]
pub(crate) fn assert_roundtrip<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serialises");
    let parsed: T = serde_json::from_str(&json).expect("parses back");
    assert_eq!(&parsed, value, "round-trip changed the value ({json})");
}
