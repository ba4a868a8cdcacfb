//! The serialisable run journal: span tree + counter totals +
//! histograms, written as JSON Lines (one record per line) so partial
//! files stay parseable and `jq`/`grep` work line-wise.

use std::cmp::Ordering;
use std::collections::HashSet;

use crate::bus::TelemetryEvent;
use crate::histogram::Histogram;
use crate::lineage::{BoundaryRecord, LineageRecord};
use crate::mem::MemRecord;
use crate::plan::PlanRecord;
use crate::resilience::{ChaosRecord, CheckpointRecord, DegradedRecord, FaultRecord, RetryRecord};

/// One finished (or snapshot-closed) span.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Stable id, in span-open order.
    pub id: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Stage name (see DESIGN.md for the Figure-1 mapping).
    pub name: String,
    /// Span start, milliseconds after the recorder was created.
    pub start_ms: f64,
    /// Real wall-clock duration in milliseconds.
    pub real_ms: f64,
    /// Simulated start offset in seconds from the run's sim origin
    /// (schema v7+). Unlike `start_ms` this is pure sim arithmetic —
    /// schedule-independent, so deterministic snapshots keep it — and
    /// it is what `grm trace timeline` reconstructs occupancy from.
    pub sim_start_seconds: f64,
    /// Simulated LLM seconds attributed to this span (Table 5 time).
    pub sim_seconds: f64,
    /// Per-span counter increments.
    pub counters: Vec<(String, u64)>,
    /// Per-span gauge values.
    pub gauges: Vec<(String, f64)>,
}

impl SpanRecord {
    /// This span's own increment of `counter` (no child roll-up).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == counter).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// One histogram of the run: a named distribution attributed to a
/// span (`span: Some(id)`) or to the run as a whole (`span: None`).
/// Kept out of [`SpanRecord`] so v1 `Span` lines parse unchanged.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistoRecord {
    /// Owning span id; `None` for the run-wide total.
    pub span: Option<u64>,
    /// Stable metric name (see `Histo::name`).
    pub name: String,
    /// The distribution itself.
    pub histogram: Histogram,
}

/// One line of the JSONL journal.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum JournalRecord {
    /// Header: schema version and span count, always the first line.
    Meta {
        version: u32,
        spans: usize,
    },
    Span(SpanRecord),
    /// A histogram line (schema v2+), after the spans.
    Histo(HistoRecord),
    /// A query-plan profile line (schema v3+), after the histograms.
    /// v2 readers skip these through their unknown-record path.
    Plan(PlanRecord),
    /// A rule-lineage line (schema v4+), after the plans. v2/v3
    /// readers skip these through their unknown-record path.
    Lineage(LineageRecord),
    /// A window-boundary breakage line (schema v4+), after the
    /// lineage lines. Skipped by older readers like `Lineage`.
    Boundary(BoundaryRecord),
    /// Chaos-run identity line (schema v5+), right after `Meta` so it
    /// survives truncation — everything `--resume` needs to rebuild
    /// the run. Skipped by older readers.
    Chaos(ChaosRecord),
    /// An injected-fault line (schema v5+). Skipped by older readers.
    Fault(FaultRecord),
    /// A retry-verdict line (schema v5+). Skipped by older readers.
    Retry(RetryRecord),
    /// A degraded-unit line (schema v5+). Skipped by older readers.
    Degraded(DegradedRecord),
    /// A completed-unit checkpoint line (schema v5+), replayed by
    /// `grm mine --resume`. Skipped by older readers.
    Checkpoint(CheckpointRecord),
    /// A memory line (schema v6+): per-span allocation deltas, the
    /// run-wide allocator totals, or a deterministic footprint table.
    /// Skipped by older readers.
    Mem(MemRecord),
    /// A live telemetry-bus event line (schema v8+), written by the
    /// `--events` stream sink. Skipped by older readers. The main
    /// `--trace` journal does not carry these — events stream to
    /// their own file so the journal's byte-identity guarantees stay
    /// independent of bus scheduling.
    Event(TelemetryEvent),
    /// Run-wide totals, always the last line.
    Totals {
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, f64)>,
    },
}

/// A record payload [`crate::Scope::record`] stores: one of the nine
/// span-attached kinds (`Plan`, `Lineage`, `Boundary`, `Fault`,
/// `Retry`, `Degraded`, `Checkpoint`, `Mem`) or the run-level `Chaos`
/// identity. Sealed: `Meta`, `Span`, `Histo`, `Event` and `Totals`
/// are the recorder's own and cannot be recorded.
pub trait Payload: Into<JournalRecord> + sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
}

macro_rules! payloads {
    ($($kind:ident($ty:ty)),* $(,)?) => {$(
        impl From<$ty> for JournalRecord {
            fn from(record: $ty) -> JournalRecord {
                JournalRecord::$kind(record)
            }
        }
        impl sealed::Sealed for $ty {}
        impl Payload for $ty {}
    )*};
}

payloads!(
    Plan(PlanRecord),
    Lineage(LineageRecord),
    Boundary(BoundaryRecord),
    Chaos(ChaosRecord),
    Fault(FaultRecord),
    Retry(RetryRecord),
    Degraded(DegradedRecord),
    Checkpoint(CheckpointRecord),
    Mem(MemRecord),
);

impl JournalRecord {
    /// Attaches a payload record to `span` and puts its repeated
    /// fields in journal order (plan operators, lineage origins), so
    /// the stored record does not depend on the worker schedule.
    /// Returns the span the record now carries: `None` for `Chaos`,
    /// which belongs to the whole run.
    pub(crate) fn stamp(&mut self, span: Option<u64>) -> Option<u64> {
        match self {
            JournalRecord::Plan(plan) => {
                plan.span = span;
                plan.sort_ops();
            }
            JournalRecord::Lineage(lineage) => {
                lineage.span = span;
                lineage.sort_origins();
            }
            JournalRecord::Boundary(b) => b.span = span,
            JournalRecord::Fault(f) => f.span = span,
            JournalRecord::Retry(r) => r.span = span,
            JournalRecord::Degraded(d) => d.span = span,
            JournalRecord::Checkpoint(c) => c.span = span,
            JournalRecord::Mem(m) => m.span = span,
            JournalRecord::Chaos(_)
            | JournalRecord::Meta { .. }
            | JournalRecord::Span(_)
            | JournalRecord::Histo(_)
            | JournalRecord::Event(_)
            | JournalRecord::Totals { .. } => return None,
        }
        span
    }
}

/// Variant keys a v8 reader knows; object lines keyed otherwise are
/// future record types and are skipped, not errors.
const KNOWN_RECORD_KEYS: [&str; 14] = [
    "Meta",
    "Span",
    "Histo",
    "Plan",
    "Lineage",
    "Boundary",
    "Chaos",
    "Fault",
    "Retry",
    "Degraded",
    "Checkpoint",
    "Mem",
    "Event",
    "Totals",
];

/// Per-stage timing row derived from the journal — the breakdown
/// embedded in `MiningReport`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageTiming {
    pub stage: String,
    /// Simulated LLM seconds, including child spans.
    pub sim_seconds: f64,
    /// Real wall-clock milliseconds of the stage span.
    pub real_ms: f64,
}

/// A frozen view of one run: every span, the counter totals, the
/// recorded histograms, the query-plan profiles, and the rule
/// lineage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunJournal {
    pub spans: Vec<SpanRecord>,
    pub totals: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histos: Vec<HistoRecord>,
    pub plans: Vec<PlanRecord>,
    pub lineages: Vec<LineageRecord>,
    pub boundaries: Vec<BoundaryRecord>,
    /// Chaos-run identity, when the run injected faults.
    pub chaos: Option<ChaosRecord>,
    pub faults: Vec<FaultRecord>,
    pub retries: Vec<RetryRecord>,
    pub degraded: Vec<DegradedRecord>,
    pub checkpoints: Vec<CheckpointRecord>,
    /// Memory records: per-span allocation deltas, the run-wide
    /// allocator totals, and deterministic footprint tables.
    pub mems: Vec<MemRecord>,
    /// Telemetry-bus events (schema v8+), populated when parsing an
    /// `--events` stream file. The pipeline's own journal snapshot
    /// leaves this empty — events live in their own stream.
    pub events: Vec<TelemetryEvent>,
    /// Parse metadata, not serialised by [`RunJournal::to_jsonl`]:
    /// damaged lines dropped by a lossy parse (truncated tails).
    pub corrupt_lines: u64,
    /// Parse metadata, not serialised: object lines with an unknown
    /// record key, skipped as future schema additions.
    pub unknown_lines: u64,
}

/// Journal schema version, bumped on incompatible record changes.
/// v1: `Meta`/`Span`/`Totals`. v2: adds `Histo` lines. v3: adds
/// `Plan` lines. v4: adds `Lineage` and `Boundary` lines. v5: adds
/// `Chaos`/`Fault`/`Retry`/`Degraded`/`Checkpoint` lines. v6: adds
/// `Mem` lines. v7: adds the `sim_start_seconds` field to `Span`
/// lines (v6 readers ignore it). v8: adds `Event` lines (streamed
/// telemetry-bus events, written by `grm mine --events`) — v7 readers
/// skip them.
/// The strict reader accepts only this version (older journals are
/// regenerated, not migrated); every reader skips record kinds and
/// `Span` fields it does not know, so additions stay readable by
/// older builds.
pub const JOURNAL_VERSION: u32 = 8;

impl RunJournal {
    /// Run-wide total of `counter` (0 when never recorded).
    pub fn total(&self, counter: &str) -> u64 {
        self.totals.iter().find(|(k, _)| k == counter).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Run-wide value of `gauge`, when set.
    pub fn gauge(&self, gauge: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == gauge).map(|(_, v)| *v)
    }

    /// First span named `name`.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The run-wide histogram named `name`, when recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histos.iter().find(|h| h.span.is_none() && h.name == name).map(|h| &h.histogram)
    }

    /// Histograms attributed to span `id`, in name order.
    pub fn span_histograms(&self, id: u64) -> Vec<&HistoRecord> {
        self.histos.iter().filter(|h| h.span == Some(id)).collect()
    }

    /// The plan record for `scope`, when profiled.
    pub fn plan(&self, scope: &str) -> Option<&PlanRecord> {
        self.plans.iter().find(|p| p.scope == scope)
    }

    /// True when the journal carries v3 `Plan` records at all — the
    /// gate for plan-aware rendering (`grm trace diff` db-hit
    /// columns, `grm trace plans`).
    pub fn has_plans(&self) -> bool {
        !self.plans.is_empty()
    }

    /// The lineage record for `rule` (`rule-<i>`), when recorded.
    pub fn lineage(&self, rule: &str) -> Option<&LineageRecord> {
        self.lineages.iter().find(|l| l.rule == rule)
    }

    /// True when the journal carries v4 `Lineage` records at all —
    /// the gate for lineage-aware rendering (`grm trace lineage`,
    /// `grm explain`).
    pub fn has_lineage(&self) -> bool {
        !self.lineages.is_empty()
    }

    /// True when the journal carries any v5 resilience records — the
    /// gate for fault-aware rendering (`grm trace faults`).
    pub fn has_faults(&self) -> bool {
        self.chaos.is_some()
            || !self.faults.is_empty()
            || !self.retries.is_empty()
            || !self.degraded.is_empty()
    }

    /// True when the journal carries v6 `Mem` records at all — the
    /// gate for memory-aware rendering (`grm trace mem`).
    pub fn has_mem(&self) -> bool {
        !self.mems.is_empty()
    }

    /// True when the journal carries v8 `Event` records at all — the
    /// gate for event-stream rendering (`grm trace tail`).
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// True when the journal carries v7 start offsets at all — the
    /// gate for timeline-aware rendering (`grm trace timeline`,
    /// `critical-path`) and for the timeline baseline rows. Serial
    /// runs qualify too: their merge/translate/evaluate spans start
    /// after the mine stage's sim seconds.
    pub fn has_timeline(&self) -> bool {
        self.spans.iter().any(|s| s.sim_start_seconds > 0.0)
    }

    /// Files one record under its kind's field: repeated kinds are
    /// appended, `Chaos` and `Totals` replace, `Meta` carries nothing
    /// to keep. Both the recorder and the parser fill a journal
    /// through here.
    pub(crate) fn push(&mut self, record: JournalRecord) {
        match record {
            JournalRecord::Meta { .. } => {}
            JournalRecord::Span(span) => self.spans.push(span),
            JournalRecord::Histo(histo) => self.histos.push(histo),
            JournalRecord::Plan(plan) => self.plans.push(plan),
            JournalRecord::Lineage(lineage) => self.lineages.push(lineage),
            JournalRecord::Boundary(boundary) => self.boundaries.push(boundary),
            JournalRecord::Chaos(chaos) => self.chaos = Some(chaos),
            JournalRecord::Fault(fault) => self.faults.push(fault),
            JournalRecord::Retry(retry) => self.retries.push(retry),
            JournalRecord::Degraded(record) => self.degraded.push(record),
            JournalRecord::Checkpoint(checkpoint) => self.checkpoints.push(checkpoint),
            JournalRecord::Mem(mem) => self.mems.push(mem),
            JournalRecord::Event(event) => self.events.push(event),
            JournalRecord::Totals { counters, gauges } => {
                self.totals = counters;
                self.gauges = gauges;
            }
        }
    }

    /// The checkpointed payload for `(stage, unit)`, when recorded.
    pub fn checkpoint(&self, stage: &str, unit: u64) -> Option<&CheckpointRecord> {
        self.checkpoints.iter().find(|c| c.stage == stage && c.unit == unit)
    }

    /// Total db-hits per pipeline stage: each plan record is charged
    /// to the root-child span its owning span sits under. Records
    /// outside any span (or under an unknown span id) are charged to
    /// `"(run)"`. Rows come back in stage span-open order.
    pub fn stage_db_hits(&self) -> Vec<(String, u64)> {
        let root = self.spans.iter().find(|s| s.parent.is_none()).map(|s| s.id);
        let stage_of = |mut id: u64| -> Option<&str> {
            loop {
                let span = self.spans.iter().find(|s| s.id == id)?;
                match span.parent {
                    Some(p) if Some(p) == root => return Some(&span.name),
                    Some(p) => id = p,
                    None => return None,
                }
            }
        };
        let mut rows: Vec<(String, u64)> = Vec::new();
        for plan in &self.plans {
            let stage = plan.span.and_then(stage_of).unwrap_or("(run)").to_string();
            match rows.iter_mut().find(|(name, _)| *name == stage) {
                Some((_, hits)) => *hits += plan.db_hits(),
                None => rows.push((stage, plan.db_hits())),
            }
        }
        rows
    }

    /// Spans whose parent is `parent`, in open order.
    pub fn children(&self, parent: &SpanRecord) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(parent.id)).collect()
    }

    /// Simulated seconds of `span` including its whole subtree.
    pub fn subtree_sim_seconds(&self, span: &SpanRecord) -> f64 {
        span.sim_seconds
            + self.children(span).iter().map(|c| self.subtree_sim_seconds(c)).sum::<f64>()
    }

    /// Per-stage rows: the children of the root span, in order. Each
    /// row reports the stage span's *own* simulated seconds — the
    /// pipeline attributes stage-level time explicitly (e.g. `mine`
    /// carries the fleet wall-clock while its `worker-*` children
    /// carry per-replica busy time), so rolling up children here
    /// would double-count.
    pub fn stage_timings(&self) -> Vec<StageTiming> {
        let Some(root) = self.spans.iter().find(|s| s.parent.is_none()) else {
            return Vec::new();
        };
        self.children(root)
            .into_iter()
            .map(|s| StageTiming {
                stage: s.name.clone(),
                sim_seconds: s.sim_seconds,
                real_ms: s.real_ms,
            })
            .collect()
    }

    /// Serialises to JSON Lines: meta, spans, histograms, plans,
    /// lineage, boundaries, resilience, mem, events, totals.
    /// Counter/gauge totals and every
    /// repeated record kind are sorted by stable keys so journals
    /// diff deterministically whatever the worker schedule that
    /// produced them.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |record: &JournalRecord| {
            out.push_str(&serde_json::to_string(record).expect("journal records always serialise"));
            out.push('\n');
        };
        push(&JournalRecord::Meta { version: JOURNAL_VERSION, spans: self.spans.len() });
        if let Some(chaos) = &self.chaos {
            // Right after `Meta`, so a truncated journal still tells
            // `--resume` what run it belonged to.
            push(&JournalRecord::Chaos(chaos.clone()));
        }
        for span in &self.spans {
            push(&JournalRecord::Span(span.clone()));
        }
        for histo in sorted(&self.histos, |a, b| (a.span, &a.name).cmp(&(b.span, &b.name))) {
            push(&JournalRecord::Histo(histo));
        }
        for mut plan in sorted(&self.plans, |a, b| (a.span, &a.scope).cmp(&(b.span, &b.scope))) {
            plan.sort_ops();
            push(&JournalRecord::Plan(plan));
        }
        for mut lineage in sorted(&self.lineages, |a, b| (a.span, a.index).cmp(&(b.span, b.index)))
        {
            lineage.sort_origins();
            push(&JournalRecord::Lineage(lineage));
        }
        let window = |b: &BoundaryRecord| (b.span, b.first_window, b.last_window);
        let by_window = |a: &BoundaryRecord, b: &BoundaryRecord| {
            window(a).cmp(&window(b)).then_with(|| a.node.cmp(&b.node))
        };
        for boundary in sorted(&self.boundaries, by_window) {
            push(&JournalRecord::Boundary(boundary));
        }
        let key = |f: &FaultRecord| (f.unit, f.attempt);
        for fault in sorted(&self.faults, |a, b| (&a.stage, key(a)).cmp(&(&b.stage, key(b)))) {
            push(&JournalRecord::Fault(fault));
        }
        for retry in sorted(&self.retries, |a, b| (&a.stage, a.unit).cmp(&(&b.stage, b.unit))) {
            push(&JournalRecord::Retry(retry));
        }
        for record in sorted(&self.degraded, |a, b| (&a.stage, &a.unit).cmp(&(&b.stage, &b.unit))) {
            push(&JournalRecord::Degraded(record));
        }
        // Stage-then-unit order puts mine checkpoints before
        // translate checkpoints, so `--resume` replays the longest
        // prefix a truncated journal can still prove.
        for checkpoint in
            sorted(&self.checkpoints, |a, b| (&a.stage, a.unit).cmp(&(&b.stage, b.unit)))
        {
            push(&JournalRecord::Checkpoint(checkpoint));
        }
        let by_key = |a: &MemRecord, b: &MemRecord| {
            (a.span, &a.kind, &a.component).cmp(&(b.span, &b.kind, &b.component))
        };
        for mem in sorted(&self.mems, by_key) {
            push(&JournalRecord::Mem(mem));
        }
        for event in sorted(&self.events, |a, b| a.seq.cmp(&b.seq)) {
            push(&JournalRecord::Event(event));
        }
        push(&JournalRecord::Totals {
            counters: sorted_by_name(&self.totals),
            gauges: sorted_by_name(&self.gauges),
        });
        out
    }

    /// Parses a journal back from its JSONL form. Strict about
    /// damaged lines and about the schema version — only journals of
    /// this build's [`JOURNAL_VERSION`] parse — but skips record
    /// variants this reader does not know, counting them in
    /// [`RunJournal::unknown_lines`]. A line is damaged when it does
    /// not parse, when a non-empty histogram has `min > max`, or when
    /// a span reuses an id or names a parent no earlier line declares.
    pub fn from_jsonl(text: &str) -> Result<RunJournal, String> {
        Self::parse_jsonl(text, false)
    }

    /// Lossy variant of [`RunJournal::from_jsonl`] for journals from
    /// crashed runs: a damaged final line (a truncated tail) is dropped
    /// instead of failing, a missing `Totals` trailer is tolerated,
    /// and any `Meta` version is accepted best-effort. Dropped and
    /// skipped lines are counted in [`RunJournal::corrupt_lines`] /
    /// [`RunJournal::unknown_lines`] and surfaced by `grm trace
    /// summary`.
    pub fn from_jsonl_lossy(text: &str) -> Result<RunJournal, String> {
        Self::parse_jsonl(text, true)
    }

    fn parse_jsonl(text: &str, lossy: bool) -> Result<RunJournal, String> {
        let lines: Vec<(usize, &str)> =
            text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
        let mut journal = RunJournal::default();
        let mut span_ids = HashSet::new();
        for (pos, (lineno, line)) in lines.iter().enumerate() {
            let parsed = match serde_json::from_str::<JournalRecord>(line) {
                Ok(record) => check_record(&record, &mut span_ids).map(|()| record),
                Err(e) => match leading_object_key(line) {
                    // Future record variant: skip, but keep count so
                    // the loss is visible.
                    Some(key) if !KNOWN_RECORD_KEYS.contains(&key) => {
                        journal.unknown_lines += 1;
                        continue;
                    }
                    _ => Err(e.to_string()),
                },
            };
            let record = match parsed {
                Ok(record) => record,
                Err(_) if lossy && pos + 1 == lines.len() => {
                    journal.corrupt_lines += 1;
                    break; // truncated tail of a crashed run
                }
                Err(e) => return Err(format!("journal line {}: {e}", lineno + 1)),
            };
            if let JournalRecord::Meta { version, .. } = record {
                if version != JOURNAL_VERSION && !lossy {
                    return Err(format!(
                        "journal version {version} is not supported (this build reads \
                         v{JOURNAL_VERSION}); regenerate the journal with this build"
                    ));
                }
            }
            journal.push(record);
        }
        Ok(journal)
    }

    /// Human-readable digest for `--trace-summary` and `grm trace
    /// summary`: the span tree with timings, the counter totals, then
    /// the run-wide histogram table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("span tree (sim = simulated LLM seconds, real = host milliseconds):\n");
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            self.render_span(root, 1, &mut out);
        }
        out.push_str("counter totals:\n");
        for (name, value) in sorted_by_name(&self.totals) {
            out.push_str(&format!("  {name:<26} {value}\n"));
        }
        for (name, value) in sorted_by_name(&self.gauges) {
            out.push_str(&format!("  {name:<26} {value:.4}\n"));
        }
        let digest = self.summary_json();
        if self.has_plans() {
            let plans = &digest.plans;
            out.push_str(&format!(
                "query plans: {} scopes profiled, {} queries, {} db-hits, {} slow\n",
                plans.records, plans.queries, plans.db_hits, plans.slow
            ));
            for plan in self.plans.iter().filter(|p| p.slow) {
                out.push_str(&format!(
                    "  SLOW {:<20} {:>8} db-hits  {:>9.2}ms real\n",
                    plan.scope,
                    plan.db_hits(),
                    plan.total_us as f64 / 1_000.0
                ));
            }
        }
        if self.has_lineage() {
            out.push_str(&format!(
                "rule lineage: {} rules attributed, {} window-boundary breakages\n",
                digest.lineage.rules, digest.lineage.boundaries
            ));
        }
        if self.has_faults() {
            let r = &digest.resilience;
            out.push_str(&format!(
                "faults: {} injected, {} units recovered by retry, {} degraded, {} checkpoints\n",
                r.faults, r.recovered, r.degraded, r.checkpoints
            ));
        }
        if self.has_mem() {
            let mem = &digest.mem;
            out.push_str(&format!(
                "memory: {} mem records, footprint {} bytes, run peak {} bytes\n",
                mem.records, mem.footprint_bytes, mem.peak_bytes
            ));
        }
        if self.has_events() {
            out.push_str(&format!("telemetry events: {} streamed\n", self.events.len()));
        }
        if self.corrupt_lines + self.unknown_lines > 0 {
            out.push_str(&format!(
                "skipped lines: {} corrupt dropped, {} unknown record kinds\n",
                self.corrupt_lines, self.unknown_lines
            ));
        }
        if !digest.histograms.is_empty() {
            out.push_str(&format!(
                "histograms (run-wide):\n  {:<26} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            ));
            for h in &digest.histograms {
                out.push_str(&format!(
                    "  {:<26} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                    h.name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }

    /// Machine-readable counterpart of [`RunJournal::summary`] for
    /// `grm trace summary --json`: stage timings, counter/gauge
    /// totals, run-wide histogram stats, and plan/lineage digests.
    pub fn summary_json(&self) -> JournalSummary {
        let mut run_wide: Vec<&HistoRecord> =
            self.histos.iter().filter(|h| h.span.is_none()).collect();
        run_wide.sort_by(|a, b| a.name.cmp(&b.name));
        JournalSummary {
            journal_version: JOURNAL_VERSION,
            stages: self.stage_timings(),
            counters: sorted_by_name(&self.totals),
            gauges: sorted_by_name(&self.gauges),
            histograms: run_wide
                .iter()
                .map(|h| HistogramSummary {
                    name: h.name.clone(),
                    count: h.histogram.count(),
                    mean: h.histogram.mean(),
                    p50: h.histogram.p50(),
                    p95: h.histogram.p95(),
                    p99: h.histogram.p99(),
                    max: h.histogram.max(),
                })
                .collect(),
            plans: PlanDigest {
                records: self.plans.len() as u64,
                queries: self.plans.iter().map(|p| p.queries).sum(),
                db_hits: self.plans.iter().map(|p| p.db_hits()).sum(),
                slow: self.plans.iter().filter(|p| p.slow).count() as u64,
            },
            lineage: LineageDigest {
                rules: self.lineages.len() as u64,
                boundaries: self.boundaries.len() as u64,
            },
            resilience: ResilienceDigest {
                faults: self.faults.len() as u64,
                recovered: self.retries.iter().filter(|r| r.recovered).count() as u64,
                abandoned: self.retries.iter().filter(|r| !r.recovered).count() as u64,
                degraded: self.degraded.len() as u64,
                checkpoints: self.checkpoints.len() as u64,
                corrupt_lines: self.corrupt_lines,
                unknown_lines: self.unknown_lines,
            },
            mem: MemDigest {
                records: self.mems.len() as u64,
                footprint_bytes: self
                    .mems
                    .iter()
                    .filter(|m| m.kind == "footprint")
                    .map(|m| m.footprint_bytes())
                    .sum(),
                peak_bytes: self
                    .mems
                    .iter()
                    .filter(|m| m.kind == "run")
                    .map(|m| m.peak_bytes)
                    .max()
                    .unwrap_or(0),
            },
        }
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{:<24} sim {:>9.2}s  real {:>9.2}ms\n",
            "",
            span.name,
            span.sim_seconds,
            span.real_ms,
            indent = depth * 2
        ));
        for child in self.children(span) {
            self.render_span(child, depth + 1, out);
        }
    }
}

/// Machine-readable run digest for `grm trace summary --json` —
/// serialise with `serde_json::to_string_pretty`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JournalSummary {
    pub journal_version: u32,
    pub stages: Vec<StageTiming>,
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Run-wide histogram stats, name-sorted.
    pub histograms: Vec<HistogramSummary>,
    pub plans: PlanDigest,
    pub lineage: LineageDigest,
    pub resilience: ResilienceDigest,
    pub mem: MemDigest,
}

/// Key statistics of one run-wide histogram in a [`JournalSummary`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

/// Query-plan totals in a [`JournalSummary`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanDigest {
    pub records: u64,
    pub queries: u64,
    pub db_hits: u64,
    pub slow: u64,
}

/// Lineage totals in a [`JournalSummary`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LineageDigest {
    pub rules: u64,
    pub boundaries: u64,
}

/// Resilience totals in a [`JournalSummary`]: injected faults, retry
/// verdicts, degraded units, checkpoints, and parse losses.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResilienceDigest {
    pub faults: u64,
    pub recovered: u64,
    pub abandoned: u64,
    pub degraded: u64,
    pub checkpoints: u64,
    pub corrupt_lines: u64,
    pub unknown_lines: u64,
}

/// Memory totals in a [`JournalSummary`]: `Mem` record count, total
/// deterministic footprint bytes, and the run-wide peak.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemDigest {
    pub records: u64,
    pub footprint_bytes: u64,
    pub peak_bytes: u64,
}

/// A copy of `items` in `order` — serialisation order must not depend
/// on the order records were made in.
fn sorted<T: Clone>(items: &[T], order: impl FnMut(&T, &T) -> Ordering) -> Vec<T> {
    let mut sorted = items.to_vec();
    sorted.sort_by(order);
    sorted
}

/// A name-sorted copy of `(name, value)` pairs.
fn sorted_by_name<V: Clone>(pairs: &[(String, V)]) -> Vec<(String, V)> {
    sorted(pairs, |(a, _), (b, _)| a.cmp(b))
}

/// The invariants a parsed record must hold beyond its shape, which
/// the analytics rely on: a non-empty histogram has `min <= max`
/// (percentiles clamp into that range), and a span has a fresh id and
/// a parent declared on an earlier line (span paths walk parents to
/// the root and the span tree recurses into children, so a cycle would
/// never end). `span_ids` holds the ids declared so far and gains the
/// id of a span that passes.
fn check_record(record: &JournalRecord, span_ids: &mut HashSet<u64>) -> Result<(), String> {
    match record {
        JournalRecord::Histo(h)
            if !h.histogram.is_empty() && h.histogram.min() > h.histogram.max() =>
        {
            Err(format!(
                "histogram `{}` has min {} above max {}",
                h.name,
                h.histogram.min(),
                h.histogram.max()
            ))
        }
        JournalRecord::Span(span) if span_ids.contains(&span.id) => {
            Err(format!("span {} is declared twice", span.id))
        }
        JournalRecord::Span(span) => match span.parent {
            Some(parent) if !span_ids.contains(&parent) => Err(format!(
                "span {} names parent {parent}, which no earlier span declares",
                span.id
            )),
            _ => {
                span_ids.insert(span.id);
                Ok(())
            }
        },
        _ => Ok(()),
    }
}

/// First key of a single-line JSON object, without a full parse —
/// enough to tell an unknown record variant from plain garbage.
fn leading_object_key(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix('{')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}
