//! The baseline gate behind `repro --baselines`: one [`Digest`] type
//! and the row builders that fill it for each committed `BENCH_*.json`
//! file.
//!
//! A digest is a sorted set of `key → number` rows. Each row carries
//! the [`Gate`] it is checked with; the committed file stores only the
//! numbers. [`Digest::diff`] is the only comparison: it fails on a row
//! outside its gate, on a committed key the run no longer produces
//! (vanished), and on a key the committed file lacks (new). That one
//! rule is what catches a recorder, allocator or fault plan silently
//! switching off — the rows it fed disappear.
//!
//! The gate policy lives here and nowhere else (DESIGN.md §9,
//! "Baselines"): simulated seconds, histogram percentiles, db-hits and
//! timeline busy times may grow by 5%, speedup may drop by 5%,
//! allocator counters may grow by 50%, and every other row is exact.

use std::collections::BTreeMap;
use std::path::Path;

use grm_cypher::BatchStats;
use grm_obs::{
    CriticalPathReport, FaultReport, LineageReport, MemReport, PlanReport, RunJournal,
    TimelineReport, JOURNAL_VERSION,
};
use grm_serve::ServeStats;

/// How a row compares against its committed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Must equal the committed value.
    Exact,
    /// May exceed the committed value by at most this fraction.
    AtMost(f64),
    /// May fall below the committed value by at most this fraction.
    AtLeast(f64),
}

/// Simulated seconds, histogram percentiles, db-hits and timeline
/// busy times: deterministic, but allowed 5% of headroom.
const COST: Gate = Gate::AtMost(0.05);
/// Real allocator counters jitter across platforms and toolchains.
const ALLOC: Gate = Gate::AtMost(0.5);
/// Effective parallel speedup may not fall by more than 5%.
const SPEEDUP: Gate = Gate::AtLeast(0.05);

impl Gate {
    /// True when `now` passes against the committed `base`. Bounds
    /// are relative to `base`, so under `AtMost` a zero row must stay
    /// zero.
    fn admits(self, base: f64, now: f64) -> bool {
        match self {
            Gate::Exact => now == base,
            Gate::AtMost(tol) => now <= base * (1.0 + tol),
            Gate::AtLeast(tol) => now >= base * (1.0 - tol),
        }
    }

    fn describe(self) -> String {
        match self {
            Gate::Exact => "exact".to_owned(),
            Gate::AtMost(tol) => format!("at most +{:.0}%", tol * 100.0),
            Gate::AtLeast(tol) => format!("at least -{:.0}%", tol * 100.0),
        }
    }
}

/// A sorted set of gated `key → number` rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digest {
    rows: BTreeMap<String, (f64, Gate)>,
}

impl Digest {
    /// A digest carrying the `journal_version`, `seed` and `scale`
    /// rows every committed file starts from.
    pub fn new(seed: u64, scale: f64) -> Digest {
        let mut d = Digest::default();
        d.exact("journal_version", JOURNAL_VERSION as f64);
        d.exact("seed", seed as f64);
        d.exact("scale", scale);
        d
    }

    /// Adds (or replaces) one row.
    pub fn row(&mut self, key: impl Into<String>, value: f64, gate: Gate) {
        self.rows.insert(key.into(), (value, gate));
    }

    /// Adds one [`Gate::Exact`] row.
    pub fn exact(&mut self, key: impl Into<String>, value: f64) {
        self.row(key, value, Gate::Exact);
    }

    /// The rows' values, as a committed file stores them.
    pub fn values(&self) -> BTreeMap<String, f64> {
        self.rows.iter().map(|(k, (v, _))| (k.clone(), *v)).collect()
    }

    /// The committed-file form: one sorted JSON object of numbers.
    /// Integral values print without a fraction; others use Rust's
    /// shortest round-tripping form, so a rewrite is byte-stable.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .rows
            .iter()
            .map(|(key, (value, _))| {
                let key = serde_json::to_string(key).expect("strings always serialise");
                if value.fract() == 0.0 && value.abs() < (1u64 << 53) as f64 {
                    format!("  {key}: {}", *value as i64)
                } else {
                    format!("  {key}: {value}")
                }
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Compares this run against committed values. Returns one
    /// message per failing key (empty = pass): a row outside its gate,
    /// a committed key this run lacks, or a key the committed file
    /// lacks.
    pub fn diff(&self, committed: &BTreeMap<String, f64>) -> Vec<String> {
        let mut failures = Vec::new();
        for (key, base) in committed {
            if !self.rows.contains_key(key) {
                failures.push(format!("`{key}` vanished (committed {base})"));
            }
        }
        for (key, (now, gate)) in &self.rows {
            match committed.get(key) {
                None => failures.push(format!("`{key}` is new ({now}), not in the committed file")),
                Some(base) if !gate.admits(*base, *now) => failures
                    .push(format!("`{key}`: {now} against committed {base} ({})", gate.describe())),
                Some(_) => {}
            }
        }
        failures
    }

    /// Checks this digest against the committed file at `path`.
    /// `Err` names the file when it cannot be read or parsed.
    pub fn check_file(&self, path: &Path) -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let committed: BTreeMap<String, f64> = serde_json::from_str(&text).map_err(|e| {
            format!("parsing {}: {e} (expected one JSON object of numbers)", path.display())
        })?;
        Ok(self.diff(&committed))
    }
}

/// `BENCH_trace.json`: per-stage simulated seconds and the run-wide
/// histogram counts and percentiles of the traced RAG run.
pub fn trace_rows(d: &mut Digest, journal: &RunJournal) {
    for stage in journal.stage_timings() {
        d.row(format!("stage.{}.sim_seconds", stage.stage), stage.sim_seconds, COST);
    }
    for h in journal.histos.iter().filter(|h| h.span.is_none()) {
        let hist = &h.histogram;
        d.exact(format!("histogram.{}.count", h.name), hist.count() as f64);
        for (q, value) in [("p50", hist.p50()), ("p95", hist.p95()), ("p99", hist.p99())] {
            d.row(format!("histogram.{}.{q}", h.name), value, COST);
        }
    }
}

/// `BENCH_plans.json`, journal half: plan-record and query counts and
/// per-operator db-hits and rows, summed over operator details (the
/// details vary with the mined rules; operator names are structural).
pub fn plan_rows(d: &mut Digest, journal: &RunJournal) {
    d.exact("records", journal.plans.len() as f64);
    d.exact("queries", journal.plans.iter().map(|p| p.queries).sum::<u64>() as f64);
    let mut ops: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let report = PlanReport::from_journal(journal);
    for op in &report.ops {
        let entry = ops.entry(op.op.as_str()).or_default();
        entry.0 += op.db_hits;
        entry.1 += op.rows;
    }
    for (op, (db_hits, rows)) in ops {
        d.row(format!("op.{op}.db_hits"), db_hits as f64, COST);
        d.exact(format!("op.{op}.rows"), rows as f64);
    }
}

/// `BENCH_plans.json`, optimizer half: one pass of the A/B query suite
/// naive and one through a [`grm_cypher::BatchSession`] with `stats`.
pub fn optimizer_rows(
    d: &mut Digest,
    naive_db_hits: u64,
    optimized_db_hits: u64,
    stats: &BatchStats,
) {
    d.exact("optimizer.suite_queries", stats.queries as f64);
    d.exact("optimizer.naive_db_hits", naive_db_hits as f64);
    d.exact("optimizer.optimized_db_hits", optimized_db_hits as f64);
    d.exact("optimizer.memo_hits", stats.memo_hits as f64);
}

/// `BENCH_lineage.json`: rule count, §4.4 error classes, per-origin
/// rule yields and §4.5 boundary breakages.
pub fn lineage_rows(d: &mut Digest, journal: &RunJournal) {
    let report = LineageReport::from_journal(journal);
    d.exact("rules", report.rules.len() as f64);
    d.exact("boundaries", report.boundaries.len() as f64);
    for (class, n) in &report.classes {
        d.exact(format!("class.{class}"), *n as f64);
    }
    for y in &report.yields {
        d.exact(format!("yield.{}", y.origin), y.rules as f64);
    }
}

/// `BENCH_mem.json`: byte-exact footprint tables, plus the allocator
/// peak and allocation count when the run recorded them — a binary
/// without the tracking allocator loses those rows, which fails.
pub fn mem_rows(d: &mut Digest, journal: &RunJournal) {
    let report = MemReport::from_journal(journal);
    for c in &report.components {
        d.exact(format!("footprint.{}.bytes", c.component), c.bytes as f64);
        for row in &c.rows {
            d.exact(format!("footprint.{}.{}.count", c.component, row.name), row.count as f64);
            d.exact(format!("footprint.{}.{}.bytes", c.component, row.name), row.bytes as f64);
        }
    }
    if report.run_alloc_count > 0 {
        d.row("allocator.peak_bytes", report.run_peak_bytes as f64, ALLOC);
        d.row("allocator.alloc_count", report.run_alloc_count as f64, ALLOC);
    }
}

/// `BENCH_chaos.json`: the fault plan's identity, fault-kind tally,
/// retry verdicts, per-stage degraded units, breaker trips,
/// checkpoints and surviving rules.
pub fn chaos_rows(d: &mut Digest, journal: &RunJournal) {
    let report = FaultReport::from_journal(journal);
    if let Some(chaos) = &report.chaos {
        d.exact("fault_seed", chaos.fault_seed as f64);
        d.exact("fault_rate", chaos.fault_rate);
    }
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &report.stages {
        for (kind, n) in &s.kinds {
            *kinds.entry(kind.as_str()).or_default() += n;
        }
        d.exact(format!("degraded.{}", s.stage), s.degraded as f64);
    }
    for (kind, n) in kinds {
        d.exact(format!("kind.{kind}"), n as f64);
    }
    d.exact("faults_injected", report.stages.iter().map(|s| s.faults).sum::<u64>() as f64);
    d.exact("recovered", report.stages.iter().map(|s| s.recovered).sum::<u64>() as f64);
    d.exact("abandoned", report.stages.iter().map(|s| s.abandoned).sum::<u64>() as f64);
    d.exact("breaker_trips", report.breaker_trips as f64);
    d.exact("checkpoints", report.checkpoints as f64);
    d.exact("rules", journal.lineages.len() as f64);
}

/// `BENCH_events.json`: per-kind telemetry-bus event counts of the
/// chaos run, as a counting sink saw them.
pub fn events_rows(d: &mut Digest, counts: &BTreeMap<String, u64>) {
    d.exact("events_total", counts.values().sum::<u64>() as f64);
    for (kind, n) in counts {
        d.exact(format!("kind.{kind}"), *n as f64);
    }
}

/// `BENCH_timeline.json`: wall, compute and speedup of the parallel
/// run, every worker lane, and the critical path as step → position.
/// A journal without span start offsets yields no rows at all.
pub fn timeline_rows(d: &mut Digest, journal: &RunJournal) {
    if !journal.has_timeline() {
        return;
    }
    let report = TimelineReport::from_journal(journal);
    d.row("wall_seconds", report.wall_seconds, COST);
    d.row("compute_seconds", report.compute_seconds, COST);
    d.row("speedup", report.speedup, SPEEDUP);
    for lane in &report.workers {
        d.exact(format!("lane.{}.start_seconds", lane.name), lane.start_seconds);
        d.row(format!("lane.{}.busy_seconds", lane.name), lane.busy_seconds, COST);
    }
    if let Some(chain) = CriticalPathReport::from_journal(journal).chains.first() {
        d.exact("critical_seconds", chain.seconds);
        for (i, step) in chain.steps.iter().enumerate() {
            d.exact(format!("critical_path.{}", step.path), i as f64);
        }
    }
}

/// `BENCH_serve.json`: the admission, shed, trip and resume counts of
/// the scripted serve scenario, plus the rules its mine jobs produced.
pub fn serve_rows(d: &mut Digest, stats: &ServeStats, rules_mined: u64) {
    for (key, value) in [
        ("jobs_submitted", stats.submitted),
        ("jobs_accepted", stats.accepted),
        ("jobs_completed", stats.completed),
        ("jobs_failed", stats.failed),
        ("jobs_cancelled", stats.cancelled),
        ("jobs_interrupted", stats.interrupted),
        ("shed_queue_full", stats.shed_queue_full),
        ("shed_rate_limited", stats.shed_rate_limited),
        ("rejected_breaker_open", stats.rejected_breaker_open),
        ("breaker_trips", stats.breaker_trips),
        ("jobs_resumed", stats.resumed),
        ("queue_depth_peak", stats.queue_depth_peak),
        ("rules_mined", rules_mined),
    ] {
        d.exact(key, value as f64);
    }
}
