//! The recorder: span tree + counter state behind a cheap handle.
//!
//! [`Recorder`] is a clonable handle; a disabled one is a `None` and
//! every operation on it is a no-op. [`Scope`] carries "where am I in
//! the span tree" across function (and thread) boundaries — the
//! parallel miner clones a scope into each worker thread and opens a
//! per-worker child span there. Every journal payload (plan, lineage,
//! boundary, chaos, fault, retry, degraded, checkpoint, footprint)
//! goes through [`Scope::record`]: one path stamps, stores and emits
//! it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::bus::{EventSink, TelemetryEvent};
use crate::counter::{Counter, Gauge, Histo};
use crate::histogram::Histogram;
use crate::journal::{HistoRecord, JournalRecord, Payload, RunJournal, SpanRecord, StageTiming};
use crate::mem::{AllocSnapshot, MemRecord, TrackingAlloc};
use crate::plan::{PlanRecord, SlowQueryPolicy};

/// Allocator-counter growth between two snapshots. All-zero in
/// binaries that never install [`TrackingAlloc`].
#[derive(Debug, Clone, Copy, Default)]
struct AllocDelta {
    alloc_bytes: u64,
    alloc_count: u64,
    dealloc_count: u64,
    peak_delta: u64,
}

impl AllocDelta {
    fn between(open: &AllocSnapshot, close: &AllocSnapshot) -> AllocDelta {
        AllocDelta {
            alloc_bytes: close.total_alloc_bytes.saturating_sub(open.total_alloc_bytes),
            alloc_count: close.alloc_count.saturating_sub(open.alloc_count),
            dealloc_count: close.dealloc_count.saturating_sub(open.dealloc_count),
            peak_delta: close.peak_bytes.saturating_sub(open.peak_bytes),
        }
    }

    fn is_zero(&self) -> bool {
        self.alloc_bytes == 0
            && self.alloc_count == 0
            && self.dealloc_count == 0
            && self.peak_delta == 0
    }

    /// The delta as a `kind` (`span` or `run`) `Mem` record.
    fn mem(&self, span: Option<u64>, kind: &str, peak_bytes: u64) -> MemRecord {
        MemRecord {
            span,
            kind: kind.to_owned(),
            alloc_bytes: self.alloc_bytes,
            alloc_count: self.alloc_count,
            dealloc_count: self.dealloc_count,
            peak_delta: self.peak_delta,
            peak_bytes,
            ..MemRecord::default()
        }
    }
}

#[derive(Debug)]
struct SpanData {
    name: String,
    parent: Option<usize>,
    start: Instant,
    /// Simulated start offset from the run's sim origin — pure sim
    /// arithmetic stamped at open time, never read from a clock.
    sim_start: f64,
    /// Real elapsed seconds; `None` while the span is open.
    real_secs: Option<f64>,
    /// Simulated LLM seconds attributed to this span.
    sim_seconds: f64,
    /// Allocator counters at span open, for the close-time delta.
    alloc_at_open: AllocSnapshot,
    /// Allocation delta over the span (inclusive of children); set by
    /// the first close, computed at snapshot time for open spans.
    alloc_delta: Option<AllocDelta>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histos: BTreeMap<&'static str, Histogram>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    totals: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histos: BTreeMap<&'static str, Histogram>,
    /// The payload records stored through [`Scope::record`]. Its
    /// spans, totals, gauges and histograms stay empty: those are
    /// built at snapshot time, as are the span and run allocation
    /// `Mem` records.
    journal: RunJournal,
    slow_queries: SlowQueryPolicy,
}

struct Inner {
    started: Instant,
    /// Allocator counters when the recorder was created, for the
    /// run-wide `Mem` record.
    alloc_at_start: AllocSnapshot,
    /// When set, snapshots zero every wall-clock field so two runs of
    /// the same seeded pipeline serialise byte-identically.
    deterministic: bool,
    state: Mutex<State>,
    /// Attached bus sinks; the journal state above is conceptually
    /// the always-attached lossless sink and never flows through
    /// these, so sinks cannot perturb journal bytes.
    sinks: RwLock<Vec<Arc<dyn EventSink>>>,
    /// Fast no-sink gate: one relaxed load per instrumentation call
    /// when the bus is off.
    has_sinks: AtomicBool,
    /// Next event sequence number (== events emitted so far).
    seq: AtomicU64,
    /// Events refused by a sink's bounded buffer. Shared as an `Arc`
    /// so exporters can report it without referencing the recorder.
    dropped: Arc<AtomicU64>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("deterministic", &self.deterministic)
            .field("has_sinks", &self.has_sinks.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Inner {
    fn new(deterministic: bool) -> Inner {
        Inner {
            started: Instant::now(),
            alloc_at_start: TrackingAlloc::snapshot(),
            deterministic,
            state: Mutex::new(State::default()),
            sinks: RwLock::new(Vec::new()),
            has_sinks: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    fn sinks_on(&self) -> bool {
        self.has_sinks.load(Ordering::Relaxed)
    }

    /// A span's real milliseconds as journaled: elapsed so far while
    /// it is open, 0 in deterministic mode.
    fn real_ms(&self, span: &SpanData) -> f64 {
        if self.deterministic {
            0.0
        } else {
            span.real_secs.unwrap_or_else(|| span.start.elapsed().as_secs_f64()) * 1e3
        }
    }

    /// Builds and offers one event to every sink. Always called
    /// *after* the state lock is released: sinks run on the
    /// instrumented thread but never inside the recorder's critical
    /// section, and a refusing sink only bumps the drop counter.
    fn emit(&self, kind: &str, span: Option<usize>, name: String, detail: String, value: f64) {
        if !self.sinks_on() {
            return;
        }
        let event = TelemetryEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            kind: kind.to_owned(),
            span: span.map(|id| id as u64),
            name,
            detail,
            value,
        };
        let sinks = self.sinks.read().expect("sink list poisoned");
        for sink in sinks.iter() {
            if !sink.offer(&event) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Handle to one run's instrumentation state.
///
/// Cloning shares the underlying state; all methods take `&self` and
/// are safe to call from multiple threads.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled in-memory recorder.
    pub fn new() -> Self {
        Recorder { inner: Some(Arc::new(Inner::new(false))) }
    }

    /// An enabled recorder whose snapshots zero every wall-clock
    /// field (`start_ms`, `real_ms`, plan microseconds) and every
    /// allocator-derived quantity — the mode chaos runs use so two
    /// runs with the same `(seed, fault-seed, fault-rate)` write
    /// byte-identical journals. Deterministic footprint records
    /// survive; they are pure capacity arithmetic.
    pub fn deterministic() -> Self {
        Recorder { inner: Some(Arc::new(Inner::new(true))) }
    }

    /// A recorder that records nothing, at near-zero cost.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The top-level scope (spans opened from it have no parent).
    pub fn root_scope(&self) -> Scope {
        Scope { rec: self.clone(), parent: None }
    }

    /// Current value of a run-wide counter total.
    pub fn total(&self, counter: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                let state = inner.state.lock().expect("obs state poisoned");
                state.totals.get(counter.name()).copied().unwrap_or(0)
            }
        }
    }

    /// Attaches a bus sink: from now on every recorder mutation is
    /// offered to it as a [`TelemetryEvent`]. No-op on a disabled
    /// recorder.
    pub fn attach_sink(&self, sink: Arc<dyn EventSink>) {
        if let Some(inner) = &self.inner {
            inner.sinks.write().expect("sink list poisoned").push(sink);
            inner.has_sinks.store(true, Ordering::Relaxed);
        }
    }

    /// Emits the final `run_end` event, flushes every sink, and
    /// detaches them (dropping the recorder's references so channel
    /// consumers see disconnect and exit). Call once, after the last
    /// journal snapshot.
    pub fn finish_sinks(&self) {
        if let Some(inner) = &self.inner {
            if !inner.sinks_on() {
                return;
            }
            let emitted = inner.seq.load(Ordering::Relaxed);
            inner.emit(
                TelemetryEvent::RUN_END,
                None,
                "run".to_owned(),
                String::new(),
                emitted as f64,
            );
            let mut sinks = inner.sinks.write().expect("sink list poisoned");
            for sink in sinks.iter() {
                sink.flush();
            }
            sinks.clear();
            inner.has_sinks.store(false, Ordering::Relaxed);
        }
    }

    /// Events emitted to the bus so far.
    pub fn events_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.seq.load(Ordering::Relaxed))
    }

    /// Events refused by a saturated sink so far.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// The shared drop counter, for exporters that report it without
    /// holding a recorder (always-zero dummy when disabled).
    pub fn dropped_handle(&self) -> Arc<AtomicU64> {
        match &self.inner {
            Some(inner) => Arc::clone(&inner.dropped),
            None => Arc::new(AtomicU64::new(0)),
        }
    }

    fn open_span(&self, name: &str, parent: Option<usize>, sim_start: f64) -> Option<usize> {
        let inner = self.inner.as_ref()?;
        let id = {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.spans.push(SpanData {
                name: name.to_owned(),
                parent,
                start: Instant::now(),
                sim_start,
                real_secs: None,
                sim_seconds: 0.0,
                alloc_at_open: TrackingAlloc::snapshot(),
                alloc_delta: None,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histos: BTreeMap::new(),
            });
            state.spans.len() - 1
        };
        if inner.sinks_on() {
            let detail = parent.map(|p| p.to_string()).unwrap_or_default();
            inner.emit(TelemetryEvent::SPAN_OPEN, Some(id), name.to_owned(), detail, sim_start);
        }
        Some(id)
    }

    fn close_span(&self, id: usize) {
        if let Some(inner) = &self.inner {
            let closed = {
                let mut state = inner.state.lock().expect("obs state poisoned");
                let span = &mut state.spans[id];
                if span.real_secs.is_none() {
                    let secs = span.start.elapsed().as_secs_f64();
                    span.real_secs = Some(secs);
                    span.alloc_delta =
                        Some(AllocDelta::between(&span.alloc_at_open, &TrackingAlloc::snapshot()));
                    if inner.sinks_on() {
                        Some((span.name.clone(), secs))
                    } else {
                        None
                    }
                } else {
                    None
                }
            };
            if let Some((name, secs)) = closed {
                inner.emit(TelemetryEvent::SPAN_CLOSE, Some(id), name, String::new(), secs);
            }
        }
    }

    fn add(&self, span: Option<usize>, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            {
                let mut state = inner.state.lock().expect("obs state poisoned");
                *state.totals.entry(counter.name()).or_insert(0) += n;
                if let Some(id) = span {
                    *state.spans[id].counters.entry(counter.name()).or_insert(0) += n;
                }
            }
            inner.emit(
                TelemetryEvent::COUNTER,
                span,
                counter.name().to_owned(),
                String::new(),
                n as f64,
            );
        }
    }

    fn set_gauge(&self, span: Option<usize>, gauge: Gauge, value: f64) {
        if let Some(inner) = &self.inner {
            {
                let mut state = inner.state.lock().expect("obs state poisoned");
                state.gauges.insert(gauge.name(), value);
                if let Some(id) = span {
                    state.spans[id].gauges.insert(gauge.name(), value);
                }
            }
            inner.emit(TelemetryEvent::GAUGE, span, gauge.name().to_owned(), String::new(), value);
        }
    }

    // Span observations accumulate on their span only; the run-wide
    // histogram is merged from them at snapshot time in span-id
    // order. Accumulating run-wide at record time would sum f64s in
    // thread-arrival order, and parallel mining would journal
    // ULP-different sums from run to run, breaking the byte-identity
    // `cmp` checks. Only span-less (root-scope) observations land in
    // `state.histos` directly.
    fn observe(&self, span: Option<usize>, histo: Histo, value: f64) {
        if let Some(inner) = &self.inner {
            {
                let mut state = inner.state.lock().expect("obs state poisoned");
                match span {
                    Some(id) => {
                        state.spans[id].histos.entry(histo.name()).or_default().record(value)
                    }
                    None => state.histos.entry(histo.name()).or_default().record(value),
                }
            }
            inner.emit(TelemetryEvent::HISTO, span, histo.name().to_owned(), String::new(), value);
        }
    }

    fn add_sim_seconds(&self, span: Option<usize>, seconds: f64) {
        if let (Some(inner), Some(id)) = (&self.inner, span) {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.spans[id].sim_seconds += seconds;
        }
    }

    /// Sets the slow-query thresholds applied to every plan record
    /// stored after this call.
    pub fn set_slow_query_policy(&self, policy: SlowQueryPolicy) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().expect("obs state poisoned");
            state.slow_queries = policy;
        }
    }

    /// Plan records stored so far that the policy flagged as slow.
    pub fn slow_queries(&self) -> Vec<PlanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let state = inner.state.lock().expect("obs state poisoned");
                state.journal.plans.iter().filter(|p| p.slow).cloned().collect()
            }
        }
    }

    /// The one record path: stamps `span` on the payload (sorting its
    /// repeated fields), flags a plan the slow-query policy catches,
    /// stores the record and emits its bus event after the lock is
    /// released; a flagged plan then bumps `cypher_slow_queries` on
    /// the span and the totals.
    fn record(&self, span: Option<usize>, mut record: JournalRecord) {
        let Some(inner) = &self.inner else { return };
        // `Chaos` carries no span, so neither does its event.
        let event_span = record.stamp(span.map(|id| id as u64)).and(span);
        let (event, slow) = {
            let mut state = inner.state.lock().expect("obs state poisoned");
            let slow = match &mut record {
                JournalRecord::Plan(plan) if state.slow_queries.is_slow(plan) => {
                    plan.slow = true;
                    true
                }
                _ => false,
            };
            let event = inner.sinks_on().then(|| TelemetryEvent::of_record(&record));
            state.journal.push(record);
            (event, slow)
        };
        if let Some((kind, name, detail, value)) = event {
            inner.emit(kind, event_span, name, detail, value);
        }
        if slow {
            self.add(span, Counter::CypherSlowQueries, 1);
        }
    }

    /// The per-stage rows of [`RunJournal::stage_timings`], read under
    /// the lock without snapshotting the journal's records.
    pub fn stage_timings(&self) -> Vec<StageTiming> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let state = inner.state.lock().expect("obs state poisoned");
        let Some(root) = state.spans.iter().position(|s| s.parent.is_none()) else {
            return Vec::new();
        };
        (state.spans.iter())
            .filter(|s| s.parent == Some(root))
            .map(|s| StageTiming {
                stage: s.name.clone(),
                sim_seconds: s.sim_seconds,
                real_ms: inner.real_ms(s),
            })
            .collect()
    }

    /// Freezes the current state into a serialisable journal. Spans
    /// still open are reported with their elapsed-so-far duration.
    pub fn snapshot(&self) -> RunJournal {
        let Some(inner) = &self.inner else {
            return RunJournal::default();
        };
        let state = inner.state.lock().expect("obs state poisoned");
        let spans = state
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| SpanRecord {
                id: id as u64,
                parent: s.parent.map(|p| p as u64),
                name: s.name.clone(),
                start_ms: if inner.deterministic {
                    0.0
                } else {
                    s.start.duration_since(inner.started).as_secs_f64() * 1e3
                },
                real_ms: inner.real_ms(s),
                // Deliberately NOT zeroed in deterministic mode: the
                // offset is a pure function of the seeded sim timings,
                // so byte-identity comparisons still hold.
                sim_start_seconds: s.sim_start,
                sim_seconds: s.sim_seconds,
                counters: s.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                gauges: s.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            })
            .collect();
        // Canonical (span, name) order — run-wide totals (`None`)
        // first, then per-span rows in span-id order; BTreeMap
        // iteration keeps names sorted within each. Matches the
        // `to_jsonl` line order so round-trips compare equal. The
        // run-wide histograms are merged here, span-less observations
        // first then per-span in span-id order, so the f64 sums are
        // independent of worker-thread arrival order.
        let mut merged = state.histos.clone();
        for s in &state.spans {
            for (name, hist) in &s.histos {
                merged.entry(name).or_default().merge(hist);
            }
        }
        let mut histos: Vec<HistoRecord> = Vec::new();
        for (name, hist) in &merged {
            histos.push(HistoRecord {
                span: None,
                name: name.to_string(),
                histogram: hist.clone(),
            });
        }
        for (id, s) in state.spans.iter().enumerate() {
            for (name, hist) in &s.histos {
                histos.push(HistoRecord {
                    span: Some(id as u64),
                    name: name.to_string(),
                    histogram: hist.clone(),
                });
            }
        }
        let mut journal = state.journal.clone();
        if inner.deterministic {
            // Wall-clock microseconds are the only schedule-dependent
            // plan fields; zero them so chaos journals byte-compare.
            for plan in &mut journal.plans {
                plan.total_us = 0;
                for op in &mut plan.ops {
                    op.self_us = 0;
                }
            }
        }
        // Footprint records always journal (pure capacity arithmetic,
        // deterministic). Span/run allocation records are derived from
        // the tracking allocator and omitted in deterministic mode —
        // and wherever the allocator is not installed they are all
        // zero and skipped, so library/unit-test journals are
        // unchanged.
        if !inner.deterministic {
            let now = TrackingAlloc::snapshot();
            for (id, s) in state.spans.iter().enumerate() {
                let delta =
                    s.alloc_delta.unwrap_or_else(|| AllocDelta::between(&s.alloc_at_open, &now));
                if !delta.is_zero() {
                    journal.mems.push(delta.mem(Some(id as u64), "span", 0));
                }
            }
            let run = AllocDelta::between(&inner.alloc_at_start, &now);
            if !run.is_zero() {
                journal.mems.push(run.mem(None, "run", now.peak_bytes));
            }
        }
        // Sink drops are journaled so a saturated bounded channel can
        // never silently under-report — but only when non-zero, so a
        // bus-on run that dropped nothing stays byte-identical to the
        // same run with the bus off.
        let mut totals: Vec<(String, u64)> =
            state.totals.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let dropped = inner.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            totals.push((Counter::TelemetryEventsDropped.name().to_string(), dropped));
            totals.sort_by(|a, b| a.0.cmp(&b.0));
        }
        RunJournal {
            spans,
            totals,
            gauges: state.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histos,
            ..journal
        }
    }
}

/// A position in the span tree: counters recorded through a scope are
/// attributed to its span; child spans opened from it get that span
/// as parent.
#[derive(Debug, Clone)]
pub struct Scope {
    rec: Recorder,
    parent: Option<usize>,
}

impl Scope {
    /// A scope on a disabled recorder — the no-op default for
    /// untraced call paths.
    pub fn disabled() -> Scope {
        Scope { rec: Recorder::disabled(), parent: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Opens a child span. Call [`Span::finish`] when the stage ends.
    pub fn span(&self, name: &str) -> Span {
        self.span_at(name, 0.0)
    }

    /// Opens a child span whose simulated start offset is `sim_start`
    /// seconds from the run's sim origin (schema v7). Stage code that
    /// knows how much sim time preceded it stamps the offset here so
    /// `grm trace timeline` can reconstruct occupancy; plain
    /// [`Scope::span`] leaves the offset at 0.
    pub fn span_at(&self, name: &str, sim_start: f64) -> Span {
        let id = self.rec.open_span(name, self.parent, sim_start);
        Span { rec: self.rec.clone(), id }
    }

    /// Bumps a counter on this scope's span and the run totals.
    pub fn add(&self, counter: Counter, n: u64) {
        self.rec.add(self.parent, counter, n);
    }

    /// Sets a gauge on this scope's span and the run state.
    pub fn gauge(&self, gauge: Gauge, value: f64) {
        self.rec.set_gauge(self.parent, gauge, value);
    }

    /// Records one observation into `histo` on this scope's span and
    /// the run-wide histogram.
    pub fn observe(&self, histo: Histo, value: f64) {
        self.rec.observe(self.parent, histo, value);
    }

    /// Attributes simulated LLM seconds to this scope's span.
    pub fn add_sim_seconds(&self, seconds: f64) {
        self.rec.add_sim_seconds(self.parent, seconds);
    }

    /// Stores one journal record attached to this scope's span and
    /// emits its bus event. The recorder stamps the span id, sorts a
    /// plan's operators and a lineage record's origins so the journal
    /// bytes stay schedule-independent, and applies the slow-query
    /// policy to a plan (flagging the record and bumping
    /// `cypher_slow_queries` when it breaches). A [`ChaosRecord`]
    /// carries no span: record it once, from the root scope.
    ///
    /// [`ChaosRecord`]: crate::ChaosRecord
    pub fn record(&self, payload: impl Payload) {
        self.rec.record(self.parent, payload.into());
    }
}

/// An open span. Explicitly finished (not drop-based) so it can be
/// handed across threads and closed where the work ends; a span never
/// finished is closed at snapshot time.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    id: Option<usize>,
}

impl Span {
    /// The scope *inside* this span: children and counters recorded
    /// through it attach here.
    pub fn scope(&self) -> Scope {
        Scope { rec: self.rec.clone(), parent: self.id }
    }

    /// Records the real duration. Idempotent via [`Recorder`]: only
    /// the first close sets the duration.
    pub fn finish(self) {
        if let Some(id) = self.id {
            self.rec.close_span(id);
        }
    }
}
