//! The failure-first job service: bounded queue, per-tenant
//! admission, deadline propagation, crash-safe WAL, and worker
//! execution through the resilient pipeline.
//!
//! Design rules, in admission order:
//!
//! 1. a draining server accepts nothing (503), and a spec that fails
//!    validation is refused (400);
//! 2. a tenant whose jobs repeatedly fail is circuit-broken — the
//!    shared [`grm_resil::Breaker`] trips after `breaker_threshold`
//!    consecutive failures, refuses the next `2·threshold`
//!    submissions, then half-opens on a probe (403);
//! 3. a token bucket per tenant sheds bursts (429 `rate_limited`);
//! 4. the job queue is a hard bound — when full the submission is
//!    shed (429 `queue_full`), never buffered without limit.
//!
//! Only after every gate does the job get an id, and the id is
//! acknowledged only after its `accepted` record is flushed to the
//! WAL — an accepted job survives `kill -9` by construction. Restart
//! replays the WAL, re-queues every job without a terminal record,
//! and mine jobs resume from their partial journals through
//! [`ResumeState::from_journal`], converging to the byte-identical
//! journal an uninterrupted run would have written.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use grm_core::{
    ContextStrategy, MiningPipeline, PipelineConfig, ResumeState, RunOptions, RunStatus,
};
use grm_llm::{ModelKind, PromptStyle};
use grm_metrics::{evaluate_labeled, BatchSession};
use grm_obs::{explain_rule, EventSink, MetricsHub, Recorder, RunJournal, Scope, TelemetryEvent};
use grm_pgraph::PropertyGraph;
use grm_resil::{mix, Breaker, ChaosConfig, DeadlineBudget, Stage};
use grm_rules::{reference_queries, ConsistencyRule};

use crate::job::{
    replay_wal, state, JobRecord, JobSpec, JobStatus, TokenBucket, WAL_ACCEPTED, WAL_DRAINED,
};

/// Simulated seconds one rule evaluation charges against a check
/// job's deadline budget (the modelled query cost; evaluation is not
/// an LLM call, so it has no measured Table 5 latency of its own).
pub const CHECK_RULE_SIM_SECONDS: f64 = 0.25;

/// Server-side configuration for a [`Service`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Hard bound on queued (not yet running) jobs.
    pub queue_depth: usize,
    /// Worker threads (used by the CLI; the service itself only
    /// executes on whatever threads call [`Service::execute_next`]).
    pub workers: usize,
    /// Per-job chaos injection rate (0 disables chaos).
    pub fault_rate: f64,
    /// Chaos seed; each job derives its own as `mix(seed, job_id)`,
    /// stable across restarts so resumed runs replay the same faults.
    pub fault_seed: u64,
    /// Retry budget per LLM call inside a job.
    pub max_retries: u32,
    /// Consecutive-failure threshold for both the in-job stage
    /// breaker and the per-tenant breaker.
    pub breaker_threshold: u32,
    /// Token-bucket refill rate per tenant (tokens/second).
    pub rate_limit: f64,
    /// Token-bucket capacity per tenant.
    pub burst: f64,
    /// Directory holding the job WAL and per-job journals.
    pub spool: PathBuf,
    /// Logical clock (advanced only by [`Service::advance_seconds`])
    /// instead of wall time — the harness and tests run on this.
    pub deterministic: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let chaos = ChaosConfig::default();
        ServeConfig {
            queue_depth: 16,
            workers: 2,
            fault_rate: 0.0,
            fault_seed: chaos.fault_seed,
            max_retries: chaos.max_retries,
            breaker_threshold: chaos.breaker_threshold,
            rate_limit: 50.0,
            burst: 100.0,
            spool: PathBuf::from("grm-spool"),
            deterministic: false,
        }
    }
}

/// Why a submission was refused. [`Rejection::http_status`] gives the
/// wire mapping; [`Rejection::reason`] the machine-readable tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Server is draining for shutdown.
    Draining,
    /// The tenant's circuit breaker is open.
    BreakerOpen,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The bounded queue is full — shed, never buffered.
    QueueFull,
    /// The spec itself is unusable.
    Invalid(String),
}

impl Rejection {
    pub fn http_status(&self) -> u16 {
        match self {
            Rejection::Draining => 503,
            Rejection::BreakerOpen => 403,
            Rejection::RateLimited | Rejection::QueueFull => 429,
            Rejection::Invalid(_) => 400,
        }
    }

    pub fn reason(&self) -> &'static str {
        match self {
            Rejection::Draining => "draining",
            Rejection::BreakerOpen => "breaker_open",
            Rejection::RateLimited => "rate_limited",
            Rejection::QueueFull => "queue_full",
            Rejection::Invalid(_) => "invalid",
        }
    }

    pub fn message(&self) -> String {
        match self {
            Rejection::Draining => "server is draining".to_owned(),
            Rejection::BreakerOpen => "tenant circuit breaker is open".to_owned(),
            Rejection::RateLimited => "tenant rate limit exceeded".to_owned(),
            Rejection::QueueFull => "job queue is full".to_owned(),
            Rejection::Invalid(why) => why.clone(),
        }
    }
}

/// Counter snapshot of a running service (`GET /stats`). Shed and
/// rejection counters are split by cause so overload drills can
/// assert each gate fired.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeStats {
    pub submitted: u64,
    pub accepted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub interrupted: u64,
    pub shed_queue_full: u64,
    pub shed_rate_limited: u64,
    pub rejected_breaker_open: u64,
    pub rejected_draining: u64,
    pub rejected_invalid: u64,
    pub breaker_trips: u64,
    /// Re-queued jobs that resumed from a partial journal on restart.
    pub resumed: u64,
    pub queue_depth: u64,
    pub queue_depth_peak: u64,
    /// The configured bound — `queue_depth_peak` can never exceed it.
    pub queue_depth_limit: u64,
    pub running: u64,
    pub draining: bool,
}

struct Tenant {
    bucket: TokenBucket,
    breaker: Breaker,
}

struct Job {
    spec: JobSpec,
    status: JobStatus,
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    tenants: HashMap<String, Tenant>,
    next_id: u64,
    running: u64,
    draining: bool,
    clock: f64,
    stats: ServeStats,
    wal: Option<fs::File>,
}

/// The multi-tenant mine/check/explain job service. See the module
/// docs for the failure model.
pub struct Service {
    graph: Arc<PropertyGraph>,
    rules: Arc<Vec<ConsistencyRule>>,
    config: ServeConfig,
    hub: Option<Arc<MetricsHub>>,
    started: Instant,
    seq: AtomicU64,
    inner: Mutex<Inner>,
    work: Condvar,
}

impl Service {
    /// Opens (or reopens) a service over `spool`. An existing job WAL
    /// is replayed: jobs with no terminal record are re-queued in id
    /// order — with their kill point stripped, since the kill already
    /// fired — and those with a partial journal will resume from
    /// checkpoints. The `hub`, when given, receives job-lifecycle
    /// events and queue/breaker gauges.
    pub fn open(
        graph: PropertyGraph,
        rules: Vec<ConsistencyRule>,
        config: ServeConfig,
        hub: Option<Arc<MetricsHub>>,
    ) -> io::Result<Arc<Service>> {
        fs::create_dir_all(&config.spool)?;
        let wal_path = config.spool.join("jobs.wal");
        let mut inner = Inner { next_id: 1, ..Inner::default() };
        inner.stats.queue_depth_limit = config.queue_depth as u64;
        let mut requeued = Vec::new();
        if wal_path.exists() {
            let replay = replay_wal(&fs::read_to_string(&wal_path)?);
            inner.next_id = inner.next_id.max(replay.next_id);
            for (id, mut spec) in replay.incomplete() {
                spec.kill_after = None;
                requeued.push((id, spec));
            }
        }
        let service = Service {
            graph: Arc::new(graph),
            rules: Arc::new(rules),
            config,
            hub,
            started: Instant::now(),
            seq: AtomicU64::new(0),
            inner: Mutex::new(inner),
            work: Condvar::new(),
        };
        {
            let mut inner = service.inner.lock().expect("service poisoned");
            inner.wal = Some(fs::OpenOptions::new().create(true).append(true).open(&wal_path)?);
            for (id, spec) in requeued {
                if service.job_journal_path(id).exists() {
                    inner.stats.resumed += 1;
                }
                inner.jobs.insert(
                    id,
                    Job {
                        status: JobStatus {
                            id,
                            tenant: spec.tenant.clone(),
                            kind: spec.kind.clone(),
                            state: state::QUEUED.into(),
                            detail: "re-queued after restart".into(),
                            rules_mined: 0,
                        },
                        spec,
                    },
                );
                inner.queue.push_back(id);
            }
            inner.stats.queue_depth = inner.queue.len() as u64;
            inner.stats.queue_depth_peak = inner.stats.queue_depth;
        }
        Ok(Arc::new(service))
    }

    /// The directory this service spools into.
    pub fn spool(&self) -> &PathBuf {
        &self.config.spool
    }

    /// Path of one job's run journal.
    pub fn job_journal_path(&self, id: u64) -> PathBuf {
        self.config.spool.join(format!("job-{id}.jsonl"))
    }

    fn now(&self, inner: &Inner) -> f64 {
        if self.config.deterministic {
            inner.clock
        } else {
            self.started.elapsed().as_secs_f64()
        }
    }

    /// Advances the deterministic logical clock (token-bucket time).
    /// No-op semantics in wall-clock mode are intentional: tests and
    /// the baseline harness are the only callers.
    pub fn advance_seconds(&self, seconds: f64) {
        let mut inner = self.inner.lock().expect("service poisoned");
        inner.clock += seconds.max(0.0);
    }

    fn emit(&self, kind: &str, name: &str, detail: &str, value: f64) {
        if let Some(hub) = &self.hub {
            let event = TelemetryEvent {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                kind: kind.to_owned(),
                span: None,
                name: name.to_owned(),
                detail: detail.to_owned(),
                value,
            };
            hub.offer(&event);
        }
    }

    fn emit_job(&self, status: &JobStatus, transition: &str) {
        self.emit(
            TelemetryEvent::JOB,
            &status.tenant,
            &format!("{}: {transition}", status.kind),
            status.id as f64,
        );
        self.emit(TelemetryEvent::COUNTER, &format!("serve_jobs_{transition}"), "", 1.0);
    }

    fn emit_queue_gauge(&self, inner: &Inner) {
        self.emit(TelemetryEvent::GAUGE, "serve_queue_depth", "", inner.queue.len() as f64);
    }

    fn emit_breaker_gauge(&self, tenant: &str, open: bool) {
        let sanitized: String = tenant
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .collect();
        self.emit(
            TelemetryEvent::GAUGE,
            &format!("serve_breaker_open_{sanitized}"),
            "",
            if open { 1.0 } else { 0.0 },
        );
    }

    fn append_wal(inner: &mut Inner, record: &JobRecord) {
        if let Some(wal) = inner.wal.as_mut() {
            let line = serde_json::to_string(record).expect("wal records serialise");
            // A WAL write failure must not take the service down; the
            // job still runs, it just loses crash coverage.
            let _ = writeln!(wal, "{line}");
            let _ = wal.flush();
        }
    }

    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        if spec.tenant.is_empty() {
            return Err("spec needs a tenant".into());
        }
        match spec.kind.as_str() {
            "mine" => {
                if spec.kill_after.is_some() && self.config.fault_rate <= 0.0 {
                    return Err(
                        "kill_after needs a chaos-enabled server (--fault-rate > 0) — only \
                         chaos runs checkpoint work for resume"
                            .into(),
                    );
                }
                Ok(())
            }
            "check" => {
                if self.rules.is_empty() {
                    return Err("server has no rule book loaded (--rules)".into());
                }
                Ok(())
            }
            "explain" => {
                if spec.rule.is_none() || spec.source.is_none() {
                    return Err("explain jobs need `rule` and `source` (a mine job id)".into());
                }
                Ok(())
            }
            other => Err(format!("unknown job kind `{other}`")),
        }
    }

    /// Admission control: runs the five gates in order (drain, spec
    /// validation, tenant breaker, rate limit, queue bound) and persists +
    /// enqueues the job, returning its id, or rejects. The id is
    /// returned only after the `accepted` WAL record is flushed.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Rejection> {
        let mut inner = self.inner.lock().expect("service poisoned");
        inner.stats.submitted += 1;
        if inner.draining {
            inner.stats.rejected_draining += 1;
            return Err(Rejection::Draining);
        }
        if let Err(why) = self.validate(&spec) {
            inner.stats.rejected_invalid += 1;
            return Err(Rejection::Invalid(why));
        }
        let now = self.now(&inner);
        let (rate, burst, threshold) =
            (self.config.rate_limit, self.config.burst, self.config.breaker_threshold);
        let refused = {
            let tenant = inner.tenants.entry(spec.tenant.clone()).or_insert_with(|| Tenant {
                bucket: TokenBucket::new(rate, burst, now),
                breaker: Breaker::new(threshold),
            });
            if !tenant.breaker.admit() {
                Some(tenant.breaker.is_open())
            } else {
                None
            }
        };
        if let Some(still_open) = refused {
            inner.stats.rejected_breaker_open += 1;
            self.emit(TelemetryEvent::COUNTER, "serve_rejected_breaker_open", "", 1.0);
            if !still_open {
                // That refusal consumed the last cooldown slot: the
                // breaker is half-open, the next submission probes.
                self.emit_breaker_gauge(&spec.tenant, false);
            }
            return Err(Rejection::BreakerOpen);
        }
        let rate_limited = {
            let tenant = inner.tenants.get_mut(&spec.tenant).expect("tenant just inserted");
            !tenant.bucket.try_take(now)
        };
        if rate_limited {
            inner.stats.shed_rate_limited += 1;
            self.emit(TelemetryEvent::COUNTER, "serve_shed_rate_limited", "", 1.0);
            return Err(Rejection::RateLimited);
        }
        if inner.queue.len() >= self.config.queue_depth {
            inner.stats.shed_queue_full += 1;
            self.emit(TelemetryEvent::COUNTER, "serve_shed_queue_full", "", 1.0);
            return Err(Rejection::QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let record = JobRecord {
            event: WAL_ACCEPTED.into(),
            job: id,
            tenant: spec.tenant.clone(),
            kind: spec.kind.clone(),
            detail: serde_json::to_string(&spec).expect("specs serialise"),
        };
        Self::append_wal(&mut inner, &record);
        let status = JobStatus {
            id,
            tenant: spec.tenant.clone(),
            kind: spec.kind.clone(),
            state: state::QUEUED.into(),
            detail: String::new(),
            rules_mined: 0,
        };
        self.emit_job(&status, "accepted");
        inner.jobs.insert(id, Job { spec, status });
        inner.queue.push_back(id);
        inner.stats.accepted += 1;
        inner.stats.queue_depth = inner.queue.len() as u64;
        inner.stats.queue_depth_peak = inner.stats.queue_depth_peak.max(inner.stats.queue_depth);
        self.emit_queue_gauge(&inner);
        drop(inner);
        self.work.notify_all();
        Ok(id)
    }

    /// Current status of one job.
    pub fn job(&self, id: u64) -> Option<JobStatus> {
        let inner = self.inner.lock().expect("service poisoned");
        inner.jobs.get(&id).map(|j| j.status.clone())
    }

    /// Current Prometheus exposition of the attached metrics hub, if
    /// one was given to [`Service::open`].
    pub fn exposition(&self) -> Option<String> {
        self.hub.as_ref().map(|hub| hub.exposition())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let inner = self.inner.lock().expect("service poisoned");
        let mut stats = inner.stats.clone();
        stats.queue_depth = inner.queue.len() as u64;
        stats.running = inner.running;
        stats.draining = inner.draining;
        stats
    }

    /// Pops and executes one job. With `wait`, blocks until work
    /// arrives or the service drains; without, returns immediately
    /// when the queue is empty. Returns `false` when the caller
    /// (a worker loop) should stop: queue empty and either
    /// non-waiting or draining.
    pub fn execute_next(&self, wait: bool) -> bool {
        let (id, spec) = {
            let mut inner = self.inner.lock().expect("service poisoned");
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    inner.stats.queue_depth = inner.queue.len() as u64;
                    inner.running += 1;
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.status.state = state::RUNNING.into();
                    let spec = job.spec.clone();
                    let status = job.status.clone();
                    let record = JobRecord {
                        event: state::RUNNING.into(),
                        job: id,
                        tenant: spec.tenant.clone(),
                        kind: spec.kind.clone(),
                        detail: String::new(),
                    };
                    Self::append_wal(&mut inner, &record);
                    self.emit_job(&status, "started");
                    self.emit_queue_gauge(&inner);
                    break (id, spec);
                }
                if !wait || inner.draining {
                    return false;
                }
                inner = self
                    .work
                    .wait_timeout(inner, std::time::Duration::from_millis(100))
                    .expect("service poisoned")
                    .0;
            }
        };
        let outcome = self.run_job(id, &spec);
        let mut inner = self.inner.lock().expect("service poisoned");
        inner.running -= 1;
        let record = JobRecord {
            event: outcome.state.to_owned(),
            job: id,
            tenant: spec.tenant.clone(),
            kind: spec.kind.clone(),
            detail: outcome.detail.clone(),
        };
        Self::append_wal(&mut inner, &record);
        match outcome.state {
            state::COMPLETED => inner.stats.completed += 1,
            state::FAILED => inner.stats.failed += 1,
            state::CANCELLED => inner.stats.cancelled += 1,
            state::INTERRUPTED => inner.stats.interrupted += 1,
            _ => {}
        }
        // Feed the tenant breaker: completed resets the failure
        // streak, failed/cancelled extend it; interrupted jobs are
        // neither — they will resume.
        if let Some(ok) = outcome.breaker_signal {
            if let Some(tenant) = inner.tenants.get_mut(&spec.tenant) {
                let trips_before = tenant.breaker.trips();
                tenant.breaker.record(ok);
                if tenant.breaker.trips() > trips_before {
                    inner.stats.breaker_trips += 1;
                    self.emit(TelemetryEvent::COUNTER, "serve_breaker_trips", "", 1.0);
                    self.emit_breaker_gauge(&spec.tenant, true);
                }
            }
        }
        let job = inner.jobs.get_mut(&id).expect("running job exists");
        job.status.state = outcome.state.into();
        job.status.detail = outcome.detail;
        job.status.rules_mined = outcome.rules_mined;
        let status = job.status.clone();
        self.emit_job(&status, outcome.state);
        drop(inner);
        self.work.notify_all();
        true
    }

    /// Runs every queued job on the calling thread — the
    /// deterministic single-threaded harness/test loop.
    pub fn run_pending(&self) {
        while self.execute_next(false) {}
    }

    /// Graceful shutdown: stop admitting, let in-flight and queued
    /// jobs finish, append the clean `drained` WAL marker, and emit
    /// the final `run_end` on the bus. Blocks until drained.
    pub fn drain(&self) {
        let mut inner = self.inner.lock().expect("service poisoned");
        inner.draining = true;
        self.work.notify_all();
        while !(inner.queue.is_empty() && inner.running == 0) {
            inner = self
                .work
                .wait_timeout(inner, std::time::Duration::from_millis(100))
                .expect("service poisoned")
                .0;
        }
        let record = JobRecord {
            event: WAL_DRAINED.into(),
            job: 0,
            tenant: String::new(),
            kind: String::new(),
            detail: String::new(),
        };
        Self::append_wal(&mut inner, &record);
        drop(inner);
        if let Some(hub) = &self.hub {
            self.emit(
                TelemetryEvent::RUN_END,
                "serve",
                "",
                self.seq.load(Ordering::Relaxed) as f64,
            );
            hub.flush();
        }
        self.work.notify_all();
    }

    fn run_job(&self, id: u64, spec: &JobSpec) -> JobOutcome {
        match spec.kind.as_str() {
            "mine" => self.run_mine(id, spec),
            "check" => self.run_check(id, spec),
            "explain" => self.run_explain(spec),
            other => JobOutcome::failed(format!("unknown job kind `{other}`")),
        }
    }

    fn job_chaos(&self, id: u64) -> ChaosConfig {
        ChaosConfig {
            fault_seed: mix(self.config.fault_seed, id),
            fault_rate: self.config.fault_rate,
            max_retries: self.config.max_retries,
            breaker_threshold: self.config.breaker_threshold,
        }
    }

    fn run_mine(&self, id: u64, spec: &JobSpec) -> JobOutcome {
        let mut config = PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        );
        config.seed = spec.seed.unwrap_or(42);
        let chaos = self.job_chaos(id);
        let journal_path = self.job_journal_path(id);
        // Resume from a partial journal when one survived a previous
        // (killed) attempt. Recovery is lossy — corrupt checkpoints
        // are dropped and re-run — and a journal without a Chaos
        // record simply restarts the job from scratch.
        let resume = fs::read_to_string(&journal_path)
            .ok()
            .and_then(|text| RunJournal::from_jsonl_lossy(&text).ok())
            .and_then(|journal| ResumeState::from_journal(&journal).ok())
            .map(|(_, resume)| resume);
        let opts =
            RunOptions { chaos, resume, kill_after: spec.kill_after, ..RunOptions::default() };
        let recorder = Recorder::deterministic();
        match MiningPipeline::new(config).run_with(&self.graph, &recorder, &opts) {
            RunStatus::Killed { stage, completed_units } => {
                let journal = recorder.snapshot();
                if let Err(e) = fs::write(&journal_path, journal.to_jsonl()) {
                    return JobOutcome::failed(format!(
                        "killed mid-{stage} and the checkpoint journal failed to write: {e}"
                    ));
                }
                JobOutcome {
                    state: state::INTERRUPTED,
                    detail: format!(
                        "killed mid-{stage} after {completed_units} unit(s); \
                         checkpoints journaled for resume"
                    ),
                    rules_mined: 0,
                    breaker_signal: None,
                }
            }
            RunStatus::Complete(report) => {
                let journal = recorder.snapshot();
                if let Err(e) = fs::write(&journal_path, journal.to_jsonl()) {
                    return JobOutcome::failed(format!("journal write failed: {e}"));
                }
                if let Some(limit) = spec.deadline_seconds {
                    // Deadline propagation: charge each stage's
                    // simulated seconds against the request budget;
                    // the stage that exhausts it cancels the job.
                    let mut budget = DeadlineBudget::new(limit);
                    for timing in &report.stage_timings {
                        if !budget.charge(timing.sim_seconds) {
                            return JobOutcome {
                                state: state::CANCELLED,
                                detail: format!(
                                    "deadline exceeded: stage {} pushed simulated time to \
                                     {:.1}s past the {limit}s budget",
                                    timing.stage,
                                    budget.spent_seconds()
                                ),
                                rules_mined: 0,
                                breaker_signal: Some(false),
                            };
                        }
                    }
                }
                let rules = report.rule_count() as u64;
                JobOutcome {
                    state: state::COMPLETED,
                    detail: format!(
                        "mined {rules} rule(s) in {:.1}s simulated",
                        report.mining_seconds + report.translation_seconds
                    ),
                    rules_mined: rules,
                    breaker_signal: Some(true),
                }
            }
        }
    }

    fn run_check(&self, id: u64, spec: &JobSpec) -> JobOutcome {
        let chaos = self.job_chaos(id);
        let mut budget = spec.deadline_seconds.map(DeadlineBudget::new);
        let scope = Scope::disabled();
        let total = self.rules.len();
        let (mut held, mut degraded, mut errors) = (0usize, 0usize, 0usize);
        // One session per job: rules sharing a head or body query
        // reuse its count.
        let mut session = BatchSession::new(&self.graph);
        for (i, rule) in self.rules.iter().enumerate() {
            if let Some(budget) = budget.as_mut() {
                // Deadline propagation: the per-rule allowance is the
                // Evaluate stage deadline clamped to what is left of
                // the request budget.
                if budget.stage_deadline_seconds(Stage::Evaluate) < CHECK_RULE_SIM_SECONDS {
                    return JobOutcome {
                        state: state::CANCELLED,
                        detail: format!(
                            "deadline exceeded after {i} of {total} rule(s) \
                             ({:.2}s simulated spent)",
                            budget.spent_seconds()
                        ),
                        rules_mined: 0,
                        breaker_signal: Some(false),
                    };
                }
                budget.charge(CHECK_RULE_SIM_SECONDS);
            }
            let unit = chaos.unit(Stage::Evaluate, i as u64);
            let (scored, _) = unit.run(&scope, false, || {
                let queries = reference_queries(rule);
                (evaluate_labeled(&queries, &scope, "serve-check", &mut session).ok(), 0.0)
            });
            match scored {
                None => degraded += 1,
                Some(Some(m)) if m.coverage_pct >= 100.0 && m.confidence_pct >= 100.0 => held += 1,
                Some(Some(_)) => {}
                Some(None) => errors += 1,
            }
        }
        if total > 0 && degraded == total {
            return JobOutcome::failed(format!("all {total} rule evaluation(s) abandoned"));
        }
        JobOutcome {
            state: state::COMPLETED,
            detail: format!("{held}/{total} rule(s) hold, {degraded} degraded, {errors} error(s)"),
            rules_mined: 0,
            breaker_signal: Some(true),
        }
    }

    fn run_explain(&self, spec: &JobSpec) -> JobOutcome {
        let (Some(rule), Some(source)) = (&spec.rule, spec.source) else {
            return JobOutcome::failed("explain jobs need `rule` and `source`".into());
        };
        let path = self.job_journal_path(source);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                return JobOutcome::failed(format!("no journal for source job {source}: {e}"))
            }
        };
        let journal = match RunJournal::from_jsonl_lossy(&text) {
            Ok(journal) => journal,
            Err(e) => return JobOutcome::failed(format!("source job {source} journal: {e}")),
        };
        match explain_rule(&journal, rule) {
            Some(rendered) => JobOutcome {
                state: state::COMPLETED,
                detail: rendered.lines().next().unwrap_or("explained").to_owned(),
                rules_mined: 0,
                breaker_signal: Some(true),
            },
            None => JobOutcome::failed(format!("no rule `{rule}` in job {source}'s journal")),
        }
    }
}

struct JobOutcome {
    state: &'static str,
    detail: String,
    rules_mined: u64,
    /// `Some(ok)` feeds the tenant breaker; `None` (interrupted)
    /// leaves the streak untouched.
    breaker_signal: Option<bool>,
}

impl JobOutcome {
    fn failed(detail: String) -> JobOutcome {
        JobOutcome { state: state::FAILED, detail, rules_mined: 0, breaker_signal: Some(false) }
    }
}
