//! The live telemetry bus: typed events streamed to pluggable sinks.
//!
//! Every recorder mutation — span open/close, counter increment,
//! fault/retry/degraded verdict, checkpoint, lineage stamp — is
//! emitted as a [`TelemetryEvent`] to every attached [`EventSink`]
//! the moment it happens, while the journal keeps accumulating
//! synchronously inside the recorder as before. Sinks are bounded and
//! non-blocking: an [`EventSink::offer`] that cannot accept an event
//! returns `false` and the recorder counts the drop (journaled as
//! `telemetry_events_dropped` in `Totals` when non-zero), so a
//! saturated channel can never silently under-report.
//!
//! Determinism invariant: sinks observe the run, they never feed back
//! into it. Journal bytes are produced from the recorder's own state,
//! not from the event stream, so attaching any number of sinks leaves
//! rate-0 / two-chaos-run / kill-resume byte-identity intact. The
//! event *stream* itself is not byte-deterministic (sequence numbers
//! are assigned in arrival order, which is schedule-dependent under
//! parallel mining); only the per-kind event *counts* are, which is
//! what the parity gate checks.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::journal::{JournalRecord, RunJournal, JOURNAL_VERSION};

/// One typed bus event. Deliberately a flat struct — the same shape
/// serves every kind, serialises as a journal-v8 `Event` record, and
/// stays within what the vendored serde derive supports. Field
/// meaning per kind is documented in DESIGN.md §14; briefly: `name`
/// is the span/counter/gauge/histogram/stage name, `detail` carries
/// the secondary string (parent span id, fault kind, degrade reason),
/// and `value` the numeric payload (counter increment, observation,
/// duration, unit index).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryEvent {
    /// Bus-wide sequence number, in emission order.
    pub seq: u64,
    /// Event kind — one of the `TelemetryEvent::*` constants.
    pub kind: String,
    /// Owning span id, when the event is span-attributed.
    pub span: Option<u64>,
    /// Primary name (span name, counter name, stage name, ...).
    pub name: String,
    /// Secondary detail string; empty when the kind has none.
    #[serde(default)]
    pub detail: String,
    /// Numeric payload; 0 when the kind has none.
    #[serde(default)]
    pub value: f64,
}

impl TelemetryEvent {
    /// A span was opened (`name` = span name, `detail` = parent span
    /// id or empty for the root, `value` = sim start offset).
    pub const SPAN_OPEN: &'static str = "span_open";
    /// A span was closed (`value` = real elapsed seconds).
    pub const SPAN_CLOSE: &'static str = "span_close";
    /// A counter was bumped (`name` = counter, `value` = increment).
    pub const COUNTER: &'static str = "counter";
    /// A gauge was set (`name` = gauge, `value` = new value).
    pub const GAUGE: &'static str = "gauge";
    /// A histogram observation (`name` = histogram, `value` = sample).
    pub const HISTO: &'static str = "histo";
    /// A query plan was profiled (`name` = scope, `detail` = "slow"
    /// when flagged, `value` = db-hits).
    pub const PLAN: &'static str = "plan";
    /// A rule lineage stamp (`name` = rule, `value` = merge
    /// frequency).
    pub const LINEAGE: &'static str = "lineage";
    /// A window-boundary breakage (`name` = node).
    pub const BOUNDARY: &'static str = "boundary";
    /// The chaos-run identity was set (`name` = model, `detail` =
    /// strategy, `value` = fault rate).
    pub const CHAOS: &'static str = "chaos";
    /// A transient fault was injected (`name` = stage, `detail` =
    /// fault kind, `value` = unit index).
    pub const FAULT: &'static str = "fault";
    /// A retry verdict (`name` = stage, `detail` = "recovered" or
    /// "abandoned", `value` = unit index).
    pub const RETRY: &'static str = "retry";
    /// A unit degraded (`name` = stage, `detail` = "unit: reason").
    pub const DEGRADED: &'static str = "degraded";
    /// A completed-unit checkpoint (`name` = stage, `value` = unit).
    pub const CHECKPOINT: &'static str = "checkpoint";
    /// A footprint table was stored (`name` = kind, `detail` =
    /// component, `value` = footprint bytes).
    pub const MEM: &'static str = "mem";
    /// The run finished and sinks are flushing (`value` = events
    /// emitted before this one). Always the final event.
    pub const RUN_END: &'static str = "run_end";
    /// A serve-layer job lifecycle transition (`name` = tenant,
    /// `detail` = `"<kind>: <transition>"`, `value` = job id).
    pub const JOB: &'static str = "job";

    /// The event a recorded payload emits, as `(kind, name, detail,
    /// value)` — DESIGN.md §14's table as code. Only payload records
    /// reach the recorder's record path (see [`crate::Payload`]);
    /// spans, counters, gauges and histograms emit from their own
    /// calls.
    pub(crate) fn of_record(record: &JournalRecord) -> (&'static str, String, String, f64) {
        let (kind, name, detail, value): (_, &str, &str, f64) = match record {
            JournalRecord::Plan(p) => {
                (Self::PLAN, &p.scope, if p.slow { "slow" } else { "" }, p.db_hits() as f64)
            }
            JournalRecord::Lineage(l) => (Self::LINEAGE, &l.rule, "", l.frequency as f64),
            JournalRecord::Boundary(b) => (Self::BOUNDARY, &b.node, "", 0.0),
            JournalRecord::Chaos(c) => (Self::CHAOS, &c.model, &c.strategy, c.fault_rate),
            JournalRecord::Fault(f) => (Self::FAULT, &f.stage, &f.kind, f.unit as f64),
            JournalRecord::Retry(r) => {
                let verdict = if r.recovered { "recovered" } else { "abandoned" };
                (Self::RETRY, &r.stage, verdict, r.unit as f64)
            }
            JournalRecord::Degraded(d) => {
                return (Self::DEGRADED, d.stage.clone(), format!("{}: {}", d.unit, d.reason), 0.0);
            }
            JournalRecord::Checkpoint(c) => (Self::CHECKPOINT, &c.stage, "", c.unit as f64),
            JournalRecord::Mem(m) => (Self::MEM, &m.kind, &m.component, m.footprint_bytes() as f64),
            JournalRecord::Meta { .. }
            | JournalRecord::Span(_)
            | JournalRecord::Histo(_)
            | JournalRecord::Event(_)
            | JournalRecord::Totals { .. } => unreachable!("not a recordable payload"),
        };
        (kind, name.to_owned(), detail.to_owned(), value)
    }
}

/// A pluggable consumer of bus events.
///
/// Contract: `offer` must be non-blocking and cheap — it runs on the
/// instrumented thread right after the recorder releases its state
/// lock. Return `false` to signal the event was dropped (bounded
/// buffer full); the recorder counts drops per run. Sinks must never
/// call back into the recorder that owns them.
pub trait EventSink: Send + Sync {
    /// Offers one event; `false` means dropped.
    fn offer(&self, event: &TelemetryEvent) -> bool;
    /// Short sink name for drop diagnostics.
    fn name(&self) -> &str;
    /// Called once at run end, after the final `run_end` event.
    fn flush(&self) {}
}

/// A bounded, non-blocking channel sink: `offer` is a `try_send`, so
/// a full buffer drops (and counts) instead of stalling the pipeline.
/// The consuming side is a plain [`Receiver`] — the progress renderer
/// and the event-stream writer both drain one of these from their own
/// thread.
pub struct ChannelSink {
    label: String,
    tx: SyncSender<TelemetryEvent>,
}

impl ChannelSink {
    /// A sink/receiver pair with a buffer of `capacity` events.
    pub fn bounded(label: &str, capacity: usize) -> (Arc<ChannelSink>, Receiver<TelemetryEvent>) {
        let (tx, rx) = sync_channel(capacity);
        (Arc::new(ChannelSink { label: label.to_owned(), tx }), rx)
    }
}

impl EventSink for ChannelSink {
    fn offer(&self, event: &TelemetryEvent) -> bool {
        match self.tx.try_send(event.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A sink that counts events per kind — the parity gate's probe.
#[derive(Default)]
pub struct CountingSink {
    counts: Mutex<BTreeMap<String, u64>>,
}

impl CountingSink {
    pub fn new() -> Arc<CountingSink> {
        Arc::new(CountingSink::default())
    }

    /// Events seen so far, per kind.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        self.counts.lock().expect("counting sink poisoned").clone()
    }
}

impl EventSink for CountingSink {
    fn offer(&self, event: &TelemetryEvent) -> bool {
        let mut counts = self.counts.lock().expect("counting sink poisoned");
        *counts.entry(event.kind.clone()).or_insert(0) += 1;
        true
    }

    fn name(&self) -> &str {
        "counting"
    }
}

/// Handle to the background thread of an event-stream sink created by
/// [`event_stream_sink`]. Join it (after `Recorder::finish_sinks`)
/// to flush the file and learn how many events were written.
pub struct EventStreamHandle {
    thread: Option<JoinHandle<io::Result<u64>>>,
}

impl EventStreamHandle {
    /// Waits for the writer to drain and close the file; returns the
    /// number of events written.
    pub fn finish(mut self) -> io::Result<u64> {
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("event stream writer thread panicked"))),
            None => Ok(0),
        }
    }
}

/// Creates the `--events FILE.jsonl` sink: a bounded channel drained
/// by a writer thread that appends one journal-v8 `Event` line per
/// event (after a `Meta` header line), flushing whenever the channel
/// idles so `grm trace tail` can follow the file from another
/// process. The stream ends with the `run_end` event; the thread
/// exits when every sender is gone (`Recorder::finish_sinks` drops
/// the recorder's reference).
pub fn event_stream_sink(
    path: &str,
    capacity: usize,
) -> io::Result<(Arc<ChannelSink>, EventStreamHandle)> {
    let file = fs::File::create(path)?;
    let (sink, rx) = ChannelSink::bounded("events", capacity);
    let thread = std::thread::spawn(move || -> io::Result<u64> {
        let mut out = BufWriter::new(file);
        let meta = JournalRecord::Meta { version: JOURNAL_VERSION, spans: 0 };
        writeln!(out, "{}", serde_json::to_string(&meta).expect("meta serialises"))?;
        out.flush()?;
        let mut written = 0u64;
        let mut write_event =
            |out: &mut BufWriter<fs::File>, ev: TelemetryEvent| -> io::Result<()> {
                let line = serde_json::to_string(&JournalRecord::Event(ev))
                    .expect("events always serialise");
                writeln!(out, "{line}")?;
                written += 1;
                Ok(())
            };
        loop {
            match rx.recv_timeout(Duration::from_millis(200)) {
                Ok(ev) => {
                    write_event(&mut out, ev)?;
                    // Drain whatever queued up behind it, then flush
                    // once — tail-ability without a flush per line.
                    while let Ok(ev) = rx.try_recv() {
                        write_event(&mut out, ev)?;
                    }
                    out.flush()?;
                }
                Err(RecvTimeoutError::Timeout) => out.flush()?,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        out.flush()?;
        Ok(written)
    });
    Ok((sink, EventStreamHandle { thread: Some(thread) }))
}

/// Live aggregation state behind [`MetricsHub`].
#[derive(Default)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: u64,
}

/// An [`EventSink`] that folds counter/gauge events into a live
/// metrics table and exports it in Prometheus text exposition format:
/// atomically to a file on an event-count cadence (`--metrics-out`),
/// and as the text grm-serve's HTTP front end answers `GET /metrics`
/// with (`grm serve`, `grm mine --metrics-listen`).
///
/// The lock here is a plain blocking `Mutex` on purpose: the update
/// is a tiny map insert, and a `try_lock`-and-drop design would make
/// drop counts (which are journaled) scheduling-dependent, breaking
/// the byte-identity drills.
pub struct MetricsHub {
    state: Mutex<MetricsState>,
    out_path: Option<PathBuf>,
    /// Rewrite the snapshot file every this many events.
    every: u64,
    /// Recorder-wide drop count, shared via `Recorder::dropped_handle`.
    dropped: Arc<AtomicU64>,
}

impl MetricsHub {
    /// A hub writing atomic snapshots to `out_path` (when set) every
    /// `every` events. `dropped` is the recorder's shared drop
    /// counter so the exposition can report it.
    pub fn new(out_path: Option<PathBuf>, every: u64, dropped: Arc<AtomicU64>) -> MetricsHub {
        MetricsHub {
            state: Mutex::new(MetricsState::default()),
            out_path,
            every: every.max(1),
            dropped,
        }
    }

    /// The current exposition text.
    pub fn exposition(&self) -> String {
        let state = self.state.lock().expect("metrics hub poisoned");
        prometheus_exposition(
            &state.counters,
            &state.gauges,
            state.events,
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Writes the current exposition to `out_path` atomically (tmp +
    /// rename). No-op without an output path.
    pub fn write_snapshot(&self) -> io::Result<()> {
        let Some(path) = &self.out_path else {
            return Ok(());
        };
        let text = self.exposition();
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)
    }
}

/// Content type of the Prometheus text exposition (format 0.0.4);
/// Prometheus rejects a scrape labelled otherwise.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

impl EventSink for MetricsHub {
    fn offer(&self, event: &TelemetryEvent) -> bool {
        let due = {
            let mut state = self.state.lock().expect("metrics hub poisoned");
            match event.kind.as_str() {
                TelemetryEvent::COUNTER => {
                    *state.counters.entry(event.name.clone()).or_insert(0) += event.value as u64;
                }
                TelemetryEvent::GAUGE => {
                    state.gauges.insert(event.name.clone(), event.value);
                }
                _ => {}
            }
            state.events += 1;
            state.events.is_multiple_of(self.every) || event.kind == TelemetryEvent::RUN_END
        };
        if due {
            // Snapshot failures are not drops — the event was
            // absorbed; the final flush write surfaces errors.
            let _ = self.write_snapshot();
        }
        true
    }

    fn name(&self) -> &str {
        "metrics"
    }

    fn flush(&self) {
        let _ = self.write_snapshot();
    }
}

/// Renders the Prometheus text exposition (format version 0.0.4):
/// every pipeline counter as `grm_<name>_total`, every gauge as
/// `grm_<name>`, plus the bus's own `grm_telemetry_events_total` /
/// `grm_telemetry_events_dropped_total`. Name-sorted within each
/// family so snapshots diff cleanly.
pub fn prometheus_exposition(
    counters: &BTreeMap<String, u64>,
    gauges: &BTreeMap<String, f64>,
    events_total: u64,
    events_dropped: u64,
) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        out.push_str(&format!("# TYPE grm_{name}_total counter\n"));
        out.push_str(&format!("grm_{name}_total {value}\n"));
    }
    for (name, value) in gauges {
        out.push_str(&format!("# TYPE grm_{name} gauge\n"));
        out.push_str(&format!("grm_{name} {value}\n"));
    }
    out.push_str("# TYPE grm_telemetry_events_total counter\n");
    out.push_str(&format!("grm_telemetry_events_total {events_total}\n"));
    out.push_str("# TYPE grm_telemetry_events_dropped_total counter\n");
    out.push_str(&format!("grm_telemetry_events_dropped_total {events_dropped}\n"));
    out
}

/// One parsed sample of a Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpositionSample {
    pub name: String,
    /// `counter` or `gauge`, from the preceding `# TYPE` line.
    pub kind: String,
    pub value: f64,
}

/// Minimal well-formedness checker for a Prometheus text exposition:
/// every sample line must be `name value` with a metric name matching
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, a finite value, a preceding `# TYPE`
/// line declaring `counter` or `gauge`, and counters must be
/// non-negative. Returns the parsed samples or the first violation.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpositionSample>, String> {
    let valid_name = |name: &str| {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    };
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let loc = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {loc}: TYPE without a name"))?;
                    let kind = parts.next().ok_or(format!("line {loc}: TYPE without a kind"))?;
                    if !valid_name(name) {
                        return Err(format!("line {loc}: invalid metric name {name:?}"));
                    }
                    if kind != "counter" && kind != "gauge" {
                        return Err(format!("line {loc}: unsupported metric type {kind:?}"));
                    }
                    types.insert(name.to_owned(), kind.to_owned());
                }
                Some("HELP") => {}
                _ => return Err(format!("line {loc}: unrecognised comment {line:?}")),
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().ok_or(format!("line {loc}: empty sample"))?;
        let value = parts.next().ok_or(format!("line {loc}: sample {name:?} without a value"))?;
        if parts.next().is_some() {
            return Err(format!("line {loc}: trailing tokens after sample {name:?}"));
        }
        if !valid_name(name) {
            return Err(format!("line {loc}: invalid metric name {name:?}"));
        }
        let kind = types
            .get(name)
            .ok_or(format!("line {loc}: sample {name:?} has no preceding # TYPE line"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {loc}: sample {name:?} value is not a number"))?;
        if !value.is_finite() {
            return Err(format!("line {loc}: sample {name:?} value is not finite"));
        }
        if kind == "counter" && value < 0.0 {
            return Err(format!("line {loc}: counter {name:?} is negative"));
        }
        samples.push(ExpositionSample { name: name.to_owned(), kind: kind.clone(), value });
    }
    Ok(samples)
}

/// Cross-checks an exposition snapshot against the event stream that
/// produced it: counter increments in the stream must be
/// non-negative (so the exposed counters are monotone by
/// construction), and every `grm_<name>_total` counter derived from a
/// pipeline counter must equal the sum of that counter's increments.
/// Returns violations; empty means consistent.
pub fn check_exposition_against_events(
    samples: &[ExpositionSample],
    events: &[TelemetryEvent],
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total_events = 0u64;
    for ev in events {
        total_events += 1;
        if ev.kind == TelemetryEvent::COUNTER {
            if ev.value < 0.0 {
                violations.push(format!(
                    "counter {} decremented by {} at seq {} — counters must be monotone",
                    ev.name, ev.value, ev.seq
                ));
            }
            *sums.entry(ev.name.as_str()).or_insert(0.0) += ev.value;
        }
    }
    for sample in samples.iter().filter(|s| s.kind == "counter") {
        let Some(base) = sample.name.strip_prefix("grm_").and_then(|n| n.strip_suffix("_total"))
        else {
            continue;
        };
        if base == "telemetry_events" {
            // The hub counts every event it received; the stream file
            // holds at most that many (same bus, same drops policy),
            // so the exposed total must not be below the file's count.
            if sample.value + 0.5 < total_events as f64 {
                violations.push(format!(
                    "grm_telemetry_events_total {} is below the {} events in the stream",
                    sample.value, total_events
                ));
            }
            continue;
        }
        if base == "telemetry_events_dropped" {
            continue;
        }
        if let Some(sum) = sums.get(base) {
            if (sample.value - sum).abs() > 1e-6 {
                violations.push(format!(
                    "{} exposes {} but the event stream sums to {}",
                    sample.name, sample.value, sum
                ));
            }
        }
    }
    violations
}

/// The event/journal parity gate: with the bus attached, the
/// per-kind event counts must equal the corresponding journal
/// record counts at run end. Only journal-backed kinds
/// participate (counter/gauge/histo increments aggregate into
/// totals rather than journaling one line each). `mem` compares
/// against footprint records only — span/run allocation rows are
/// derived at snapshot time and never cross the bus.
pub fn parity_violations(counts: &BTreeMap<String, u64>, journal: &RunJournal) -> Vec<String> {
    let footprints = journal.mems.iter().filter(|m| m.kind == "footprint").count();
    let pairs = [
        (TelemetryEvent::SPAN_OPEN, journal.spans.len()),
        (TelemetryEvent::PLAN, journal.plans.len()),
        (TelemetryEvent::LINEAGE, journal.lineages.len()),
        (TelemetryEvent::BOUNDARY, journal.boundaries.len()),
        (TelemetryEvent::CHAOS, journal.chaos.is_some() as usize),
        (TelemetryEvent::FAULT, journal.faults.len()),
        (TelemetryEvent::RETRY, journal.retries.len()),
        (TelemetryEvent::DEGRADED, journal.degraded.len()),
        (TelemetryEvent::CHECKPOINT, journal.checkpoints.len()),
        (TelemetryEvent::MEM, footprints),
    ];
    pairs
        .into_iter()
        .map(|(kind, records)| (kind, counts.get(kind).copied().unwrap_or(0), records as u64))
        .filter(|(_, events, records)| events != records)
        .map(|(kind, events, records)| {
            format!("kind {kind}: {events} bus events != {records} journal records")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_sink_drops_when_full() {
        let (sink, _rx) = ChannelSink::bounded("test", 2);
        let ev = TelemetryEvent {
            seq: 0,
            kind: TelemetryEvent::COUNTER.into(),
            span: None,
            name: "x".into(),
            detail: String::new(),
            value: 1.0,
        };
        assert!(sink.offer(&ev));
        assert!(sink.offer(&ev));
        assert!(!sink.offer(&ev), "third offer into capacity-2 channel must drop");
    }

    #[test]
    fn exposition_parses_and_rejects_malformed() {
        let mut counters = BTreeMap::new();
        counters.insert("rules_mined".to_owned(), 12u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("rag_coverage".to_owned(), 0.75f64);
        let text = prometheus_exposition(&counters, &gauges, 40, 0);
        let samples = parse_exposition(&text).expect("well-formed");
        assert_eq!(samples.len(), 4);
        assert!(samples
            .iter()
            .any(|s| s.name == "grm_rules_mined_total" && s.kind == "counter" && s.value == 12.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "grm_rag_coverage" && s.kind == "gauge" && s.value == 0.75));
        assert!(parse_exposition("grm_orphan 1\n").is_err(), "sample without TYPE");
        assert!(parse_exposition("# TYPE bad-name counter\nbad-name 1\n").is_err());
        assert!(parse_exposition("# TYPE grm_x_total counter\ngrm_x_total -4\n").is_err());
        assert!(parse_exposition("# TYPE grm_x_total counter\ngrm_x_total nan\n").is_err());
    }

    #[test]
    fn exposition_event_cross_check() {
        let counter_ev = |seq: u64, name: &str, value: f64| TelemetryEvent {
            seq,
            kind: TelemetryEvent::COUNTER.into(),
            span: None,
            name: name.into(),
            detail: String::new(),
            value,
        };
        let events = vec![counter_ev(0, "rules_mined", 7.0), counter_ev(1, "rules_mined", 5.0)];
        let good = vec![ExpositionSample {
            name: "grm_rules_mined_total".into(),
            kind: "counter".into(),
            value: 12.0,
        }];
        assert!(check_exposition_against_events(&good, &events).is_empty());
        let bad = vec![ExpositionSample {
            name: "grm_rules_mined_total".into(),
            kind: "counter".into(),
            value: 11.0,
        }];
        assert_eq!(check_exposition_against_events(&bad, &events).len(), 1);
    }
}
