//! `serve-mix`: an open loop over HTTP against an in-process server,
//! wired as `grm serve` wires it: `Service::open` with a `MetricsHub`,
//! `serve_http` on 127.0.0.1 and two `execute_next` worker threads,
//! chaos at fault rate 0.1 and the dataset's ground truth as the rule
//! book. A seeded Poisson schedule offers 60% check, 30% mine and 10%
//! explain jobs from four tenants, well below capacity. Job latencies
//! stay raw: they are mostly fixed wall-clock waits that do not scale
//! with host speed. The offered rate fixes how many jobs complete per
//! second of the run, so `ops_per_s` is measured on the replay of every
//! job after it instead: jobs per second of in-service execution.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grm_datasets::DatasetId;
use grm_obs::{MetricsHub, RunJournal};
use grm_pgraph::from_json;
use grm_rules::ConsistencyRule;
use grm_serve::{http_request, serve_http, state, JobSpec, JobStatus, ServeConfig, Service};

use crate::closed::{host_metrics, latency_metrics, timed_setup};
use crate::golden::{self, Cases, GOLDEN_SEED};
use crate::host::{self, StepClock};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{alloc, cold, Ctx, Outcome};

/// Jobs offered per second.
const RATE: f64 = 10.0;
const TENANTS: u64 = 4;
/// Mine jobs run during warm-up; explain jobs name them.
const WARMUP_MINES: usize = 2;
const WARMUP_CHECKS: usize = 2;
/// How long the client waits for stragglers after the last arrival.
const SETTLE_GRACE: Duration = Duration::from_secs(30);
/// How often the traced run's watcher reads job states in-process.
const WATCH_EVERY: Duration = Duration::from_micros(250);
const FAULT_RATE: f64 = 0.1;

/// splitmix64: the schedule's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, (self.next() % (k as u64 + 1)) as usize);
        }
    }
}

/// One planned job: when it is due (seconds after the phase starts)
/// and what it asks for.
struct Planned {
    due: f64,
    spec: JobSpec,
}

/// `RATE * seconds` arrivals with exponential gaps, scaled so the last
/// one is due at `seconds`: every seed offers the same number of jobs,
/// and the same number of each kind (60% check, 30% mine, 10% explain)
/// in seeded order, so the seed moves neither the load nor the mix.
///
/// The gaps are stratified: the k-th of `n` strata of the exponential
/// distribution's probability gives one gap, and the seed orders them.
/// So every seed offers the same number of close arrivals. The
/// generator runs late on those, and lateness is most of the tail: with
/// independent gaps, the arrivals within 25 ms of the one before ranged
/// from 53 to 88 of 300 over ten seeds, and `latency_tail_ms` with them
/// from 59 to 79 ms.
fn schedule(seed: u64, phase: u64, seconds: f64, sources: &[u64]) -> Vec<Planned> {
    let mut rng = Rng(seed ^ phase.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let n = (RATE * seconds).round().max(1.0) as usize;
    let (checks, mines) = ((0.6 * n as f64).round() as usize, (0.3 * n as f64).round() as usize);
    let mut kinds: Vec<&str> = (0..n)
        .map(|k| match k {
            k if k < checks => "check",
            k if k < checks + mines => "mine",
            _ => "explain",
        })
        .collect();
    rng.shuffle(&mut kinds);
    let mut strata: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut strata);
    // -ln(u) for u uniform in (k/n, (k+1)/n]: never infinite.
    let gaps: Vec<f64> =
        strata.iter().map(|&k| -((k as f64 + rng.unit()) / n as f64).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut due = 0.0;
    gaps.iter()
        .zip(kinds)
        .map(|(gap, kind)| {
            due += gap * seconds / total;
            let tenant = format!("tenant-{}", rng.next() % TENANTS);
            let spec = JobSpec { tenant, kind: kind.into(), ..JobSpec::default() };
            let spec = match kind {
                "check" => spec,
                "mine" => JobSpec { seed: Some(rng.next() % 1000), ..spec },
                _ => JobSpec {
                    rule: Some("rule-0".into()),
                    source: Some(sources[(rng.next() % sources.len() as u64) as usize]),
                    ..spec
                },
            };
            Planned { due, spec }
        })
        .collect()
}

/// The warm-up jobs: mine jobs first, then check jobs.
fn warm_up_specs(seed: u64) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = (0..WARMUP_MINES)
        .map(|i| JobSpec {
            tenant: "tenant-0".into(),
            kind: "mine".into(),
            seed: Some(seed.wrapping_add(i as u64) % 1000),
            ..JobSpec::default()
        })
        .collect();
    specs.extend((0..WARMUP_CHECKS).map(|_| JobSpec {
        tenant: "tenant-1".into(),
        kind: "check".into(),
        ..JobSpec::default()
    }));
    specs
}

/// The `MetricsHub` `grm serve` attaches.
fn hub() -> Arc<MetricsHub> {
    Arc::new(MetricsHub::new(None, 64, Arc::new(AtomicU64::new(0))))
}

fn job_id(body: &str) -> Option<u64> {
    body.trim().strip_prefix("{\"job\":")?.strip_suffix('}')?.parse().ok()
}

/// The running server and what set-up learnt.
struct Server {
    service: Arc<Service>,
    addr: String,
    http: Option<JoinHandle<std::io::Result<()>>>,
    workers: Vec<JoinHandle<()>>,
    graph_path: PathBuf,
    rules: Vec<ConsistencyRule>,
    /// Accepted specs in id order, from warm-up on; the reference
    /// replay submits exactly these.
    accepted: Vec<(u64, JobSpec)>,
    /// Settled status per id, as the client read it.
    observed: BTreeMap<u64, JobStatus>,
    sources: Vec<u64>,
    /// Read, decode and build times of the graph load, in ms.
    load_ms: [f64; 3],
}

impl Server {
    /// Starts the server and warms it up, marking the set-up's steps on
    /// `clock`. The warm-up is mostly HTTP waits, so it counts raw.
    fn start(ctx: &Ctx, repeat: usize, clock: &mut StepClock) -> Result<Server, String> {
        let graph_path = ctx.workdir.join("serve-graph.json");
        let rules = cold::write_graph(DatasetId::Cybersecurity, ctx.seed, 0.1, &graph_path)?;
        clock.step();
        // The graph load `grm serve` does, one call at a time.
        let (graph, at) = cold::load_graph(&graph_path)?;
        let load_ms = [ms(at[0], at[1]), ms(at[1], at[2]), ms(at[2], at[3])];
        clock.step();

        let spool = ctx.workdir.join(format!("spool-{repeat}"));
        let _ = std::fs::remove_dir_all(&spool);
        let config = ServeConfig { fault_rate: FAULT_RATE, spool, ..ServeConfig::default() };
        let service = Service::open(graph, rules.clone(), config, Some(hub()))
            .map_err(|e| format!("opening service: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let http = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_http(service, listener))
        };
        let workers = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || while service.execute_next(true) {})
            })
            .collect();
        let mut server = Server {
            service,
            addr,
            http: Some(http),
            workers,
            graph_path,
            rules,
            accepted: Vec::new(),
            observed: BTreeMap::new(),
            sources: Vec::new(),
            load_ms,
        };
        clock.step();
        server.warm_up(ctx.seed)?;
        clock.wait_step();
        Ok(server)
    }

    /// Submits a few mine and check jobs and waits for each to settle.
    fn warm_up(&mut self, seed: u64) -> Result<(), String> {
        for spec in warm_up_specs(seed) {
            let body = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            let (code, resp) = http_request(&self.addr, "POST", "/jobs", &body)
                .map_err(|e| format!("warm-up submit: {e}"))?;
            let id = job_id(&resp)
                .filter(|_| code == 202)
                .ok_or_else(|| format!("warm-up submit: HTTP {code}: {resp}"))?;
            let deadline = Instant::now() + SETTLE_GRACE;
            let status = loop {
                let (code, resp) = http_request(&self.addr, "GET", &format!("/jobs/{id}"), "")
                    .map_err(|e| format!("warm-up status: {e}"))?;
                let status: JobStatus = serde_json::from_str(&resp)
                    .map_err(|e| format!("warm-up status: HTTP {code}: {e}"))?;
                if state::is_settled(&status.state) {
                    break status;
                }
                if Instant::now() > deadline {
                    return Err(format!("warm-up job {id} did not settle"));
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            if status.state != state::COMPLETED {
                return Err(format!("warm-up job {id} ended {}: {}", status.state, status.detail));
            }
            if spec.kind == "mine" {
                self.sources.push(id);
            }
            self.accepted.push((id, spec));
            self.observed.insert(id, status);
        }
        Ok(())
    }

    /// Drains the server and joins its threads. When the drain request
    /// itself fails the threads are left running, not waited on
    /// forever; the process exits soon after.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(http) = self.http.take() else {
            return Ok(());
        };
        match http_request(&self.addr, "POST", "/shutdown", "") {
            Ok((202, _)) => {}
            Ok((code, body)) => return Err(format!("shutdown: HTTP {code}: {body}")),
            Err(e) => return Err(format!("shutdown: {e}")),
        }
        let served = http.join().map_err(|_| "the HTTP thread panicked".to_owned())?;
        for worker in self.workers.drain(..) {
            worker.join().map_err(|_| "a worker thread panicked".to_owned())?;
        }
        served.map_err(|e| format!("serve_http: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Accepted jobs the client has not yet seen settle.
struct Queue {
    pending: Vec<u64>,
    done: bool,
}

/// One submission as the client saw it.
struct Submit {
    id: Result<u64, String>,
    due: Instant,
    sent: Instant,
    answered: Instant,
}

/// One job as the traced run's watcher saw it inside the server.
struct Watched {
    kind: String,
    seen: Instant,
    began: Instant,
    done: Instant,
}

/// What one phase of the schedule did.
struct Phase {
    submits: Vec<Submit>,
    /// Status reads: job id, sent, answered.
    reads: Vec<(u64, Instant, Instant)>,
    /// Settled jobs: the status, and when the read that showed it
    /// settled was answered.
    settled: BTreeMap<u64, (JobStatus, Instant)>,
    unsettled: Vec<u64>,
    watched: BTreeMap<u64, Watched>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

impl Phase {
    fn due(&self) -> BTreeMap<u64, Instant> {
        self.submits.iter().filter_map(|s| s.id.as_ref().ok().map(|id| (*id, s.due))).collect()
    }

    /// Per settled job, ms from its due time to the read that showed
    /// it settled.
    fn latencies(&self) -> Vec<f64> {
        let due = self.due();
        self.settled.iter().map(|(id, (_, at))| ms(due[id], *at)).collect()
    }

    /// One `job` span per accepted job, from its due time to the read
    /// that showed it settled, with its submit, status reads, queue
    /// wait and execution beneath it.
    fn record(&self, tracer: &Tracer) {
        let mut reads: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for (id, sent, answered) in &self.reads {
            reads.entry(*id).or_default().push((*sent, *answered));
        }
        for s in &self.submits {
            let Ok(id) = s.id else { continue };
            let end = self.settled.get(&id).map_or(s.answered, |(_, at)| *at);
            let root = tracer.record("job", id, None, s.due, end);
            tracer.record("http.submit", id, root, s.sent, s.answered);
            for (sent, answered) in reads.get(&id).into_iter().flatten() {
                tracer.record("http.status", id, root, *sent, *answered);
            }
            if let Some(w) = self.watched.get(&id) {
                tracer.record("serve.queue", id, root, w.seen, w.began);
                tracer.record("serve.exec", id, root, w.began, w.done);
            }
        }
    }
}

/// Offers `plan` to the server: one connection submits in schedule
/// order, a second polls the status of every accepted job until it
/// settles. With `watch`, a third thread also reads job states
/// in-process to split queue wait from execution.
fn run_phase(server: &Server, plan: &[Planned], watch: bool) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = plan.last().map_or(0.0, |p| p.due);
    let deadline = start + Duration::from_secs_f64(last_due) + SETTLE_GRACE;
    let first_id = server.accepted.last().map_or(1, |(id, _)| id + 1);
    let queue = Mutex::new(Queue { pending: Vec::new(), done: false });
    let wake = Condvar::new();
    let polled = AtomicBool::new(false);
    let addr = server.addr.as_str();

    std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            let mut submits = Vec::new();
            for p in plan {
                let due = start + Duration::from_secs_f64(p.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let body = serde_json::to_string(&p.spec).expect("job specs serialise");
                let sent = Instant::now();
                let reply = http_request(addr, "POST", "/jobs", &body);
                let answered = Instant::now();
                let id = match reply {
                    Ok((202, body)) => job_id(&body).ok_or(format!("unreadable 202 body {body}")),
                    Ok((code, body)) => Err(format!("submit refused: HTTP {code}: {body}")),
                    Err(e) => Err(format!("submit: {e}")),
                };
                if let Ok(id) = id {
                    queue.lock().expect("queue poisoned").pending.push(id);
                    wake.notify_all();
                }
                submits.push(Submit { id, due, sent, answered });
            }
            queue.lock().expect("queue poisoned").done = true;
            wake.notify_all();
            submits
        });
        let poller = s.spawn(|| {
            let (mut settled, mut reads) = (BTreeMap::new(), Vec::new());
            loop {
                let batch: Vec<u64> = {
                    let mut q = queue.lock().expect("queue poisoned");
                    while q.pending.is_empty() && !q.done {
                        q = wake
                            .wait_timeout(q, Duration::from_millis(5))
                            .expect("queue poisoned")
                            .0;
                    }
                    q.pending.clone()
                };
                if batch.is_empty() || Instant::now() > deadline {
                    break;
                }
                for id in batch {
                    let sent = Instant::now();
                    let reply = http_request(addr, "GET", &format!("/jobs/{id}"), "");
                    let answered = Instant::now();
                    reads.push((id, sent, answered));
                    let status = match reply {
                        Ok((200, body)) => serde_json::from_str::<JobStatus>(&body).ok(),
                        _ => None,
                    };
                    if let Some(status) = status.filter(|st| state::is_settled(&st.state)) {
                        settled.insert(id, (status, answered));
                        queue.lock().expect("queue poisoned").pending.retain(|&p| p != id);
                    }
                }
            }
            polled.store(true, Ordering::SeqCst);
            let unsettled = queue.lock().expect("queue poisoned").pending.clone();
            (settled, reads, unsettled)
        });
        let watcher = watch.then(|| s.spawn(|| watch_jobs(&server.service, first_id, &polled)));

        let submits = submitter.join().expect("submitter panicked");
        let (settled, reads, unsettled) = poller.join().expect("poller panicked");
        let watched = watcher.map(|w| w.join().expect("watcher panicked")).unwrap_or_default();
        Phase { submits, reads, settled, unsettled, watched }
    })
}

/// Reads job states in-process, every [`WATCH_EVERY`], from `first_id`
/// on until `stop`: when each job was first seen, first seen running,
/// and first seen settled.
fn watch_jobs(service: &Service, first_id: u64, stop: &AtomicBool) -> BTreeMap<u64, Watched> {
    // id → (kind, first seen, first seen running)
    let mut open: BTreeMap<u64, (String, Instant, Option<Instant>)> = BTreeMap::new();
    let mut watched = BTreeMap::new();
    let mut next = first_id;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        while let Some(status) = service.job(next) {
            open.insert(next, (status.kind, now, None));
            next += 1;
        }
        open.retain(|&id, (kind, seen, running)| {
            let Some(status) = service.job(id) else { return true };
            if status.state == state::RUNNING && running.is_none() {
                *running = Some(now);
            }
            if !state::is_settled(&status.state) {
                return true;
            }
            let began = running.unwrap_or(*seen);
            watched.insert(id, Watched { kind: kind.clone(), seen: *seen, began, done: now });
            false
        });
        std::thread::sleep(WATCH_EVERY);
    }
    watched
}

/// A fresh service in deterministic mode over the graph file at
/// `graph_path` and `rules`, with the server's fault rate and metrics
/// hub, driven from the calling thread.
fn deterministic_service(
    graph_path: &Path,
    rules: Vec<ConsistencyRule>,
    spool: PathBuf,
) -> Result<Arc<Service>, String> {
    let json = std::fs::read_to_string(graph_path).map_err(|e| e.to_string())?;
    let graph = from_json(&json).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&spool);
    let config = ServeConfig {
        fault_rate: FAULT_RATE,
        spool,
        deterministic: true,
        ..ServeConfig::default()
    };
    Service::open(graph, rules, config, Some(hub()))
        .map_err(|e| format!("opening a deterministic service: {e}"))
}

/// Jobs run one at a time on the calling thread.
struct Replay {
    ids: Vec<u64>,
    /// Per job, ms from its submit to the end of its run.
    raw_ms: Vec<f64>,
    /// Reference readings: one before the first job and one after each.
    refs: Vec<f64>,
}

/// Submits each of `specs` to `service` and runs it to completion
/// before the next.
fn replay(service: &Service, specs: &[JobSpec]) -> Result<Replay, String> {
    let mut r = Replay { ids: Vec::new(), raw_ms: Vec::new(), refs: vec![host::reading()] };
    for spec in specs {
        // Keep every tenant's token bucket full.
        service.advance_seconds(1.0);
        let start = Instant::now();
        let id = service.submit(spec.clone()).map_err(|e| e.message())?;
        service.run_pending();
        r.raw_ms.push(start.elapsed().as_secs_f64() * 1e3);
        r.refs.push(host::reading());
        r.ids.push(id);
    }
    Ok(r)
}

/// Runs every accepted job again, in id order, on a deterministic
/// service over the same graph and rule book. Its job states and
/// results, and its mine jobs' run journals, are what the server's must
/// equal; its job times give `ops_per_s`. The client thread is pinned
/// to one CPU, as the closed loops are, and no server thread runs.
fn reference(server: &Server, dir: &Path) -> Result<(Arc<Service>, Replay), String> {
    let service = deterministic_service(
        &server.graph_path,
        server.rules.clone(),
        dir.join("reference-spool"),
    )?;
    let specs: Vec<JobSpec> = server.accepted.iter().map(|(_, spec)| spec.clone()).collect();
    let _pinned = crate::os::Pinned::lowest_cpu();
    let r = replay(&service, &specs)?;
    for ((id, _), got) in server.accepted.iter().zip(&r.ids) {
        if got != id {
            return Err(format!("reference gave id {got} to the job the server numbered {id}"));
        }
    }
    Ok((service, r))
}

/// The golden cases: the warm-up jobs and one explain job, on a
/// deterministic service over the Cybersecurity graph generated from
/// [`GOLDEN_SEED`]. Each job's state, result and rule count, and each
/// mine job's rule table and scores.
pub fn golden(ctx: &Ctx) -> Result<Cases, String> {
    let path = ctx.workdir.join("golden-graph.json");
    let rules = cold::write_graph(DatasetId::Cybersecurity, GOLDEN_SEED, 0.1, &path)?;
    let service = deterministic_service(&path, rules, ctx.workdir.join("golden-spool"))?;
    let mut ids = replay(&service, &warm_up_specs(GOLDEN_SEED))?.ids;
    let explain = JobSpec {
        tenant: "tenant-2".into(),
        kind: "explain".into(),
        rule: Some("rule-0".into()),
        source: Some(ids[0]),
        ..JobSpec::default()
    };
    ids.extend(replay(&service, &[explain])?.ids);
    let mut cases = Vec::new();
    for (n, id) in ids.into_iter().enumerate() {
        let status = service.job(id).ok_or_else(|| format!("golden job {id} vanished"))?;
        let mut got = format!("{}: {} ({} rules)", status.state, status.detail, status.rules_mined);
        if status.kind == "mine" {
            let text = std::fs::read_to_string(service.job_journal_path(id))
                .map_err(|e| format!("golden job {id}: {e}"))?;
            got += &format!("; {}", golden::rules_digest(&RunJournal::from_jsonl(&text)?.lineages));
        }
        cases.push((format!("serve-mix/job-{n}-{}", status.kind), got));
    }
    Ok(cases)
}

/// Why a settled job's outcome is wrong, if it is: its state is not
/// `completed`, or its result differs from the reference's, or, for a
/// mine job, its run journal does (the journal holds the rule table
/// and scores; `Recorder::deterministic` leaves no wall time in it).
fn check_job(server: &Server, reference: &Service, status: &JobStatus) -> Option<String> {
    if status.state != state::COMPLETED {
        return Some(format!("{}: {}", status.state, status.detail));
    }
    let want = reference.job(status.id);
    if want.as_ref().map(|w| (&w.state, &w.detail, w.rules_mined))
        != Some((&status.state, &status.detail, status.rules_mined))
    {
        return Some(format!("result `{}` differs from the reference's `{want:?}`", status.detail));
    }
    if status.kind != "mine" {
        return None;
    }
    let got = std::fs::read(server.service.job_journal_path(status.id));
    match (got, std::fs::read(reference.job_journal_path(status.id))) {
        (Ok(got), Ok(want)) if got == want => None,
        (Err(e), _) => Some(format!("reading its run journal: {e}")),
        _ => Some("run journal differs from the reference's".into()),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut refs = Vec::new();
    let mut repeat = 0;
    let mut server = timed_setup(&mut refs, &mut outcome.metrics, |clock| {
        repeat += 1;
        Server::start(ctx, repeat, clock)
    })?;
    alloc::reset_peak();
    // Traced, the second half of the run also watches jobs in-process;
    // its spans are recorded once it is over.
    let tracer = Tracer::new(ctx.traced);
    let phases = if ctx.traced {
        vec![(ctx.seconds / 2.0, false), (ctx.seconds / 2.0, true)]
    } else {
        vec![(ctx.seconds, false)]
    };
    let mut results = Vec::new();
    let mut problems: BTreeMap<String, String> = BTreeMap::new();
    for (n, (seconds, watch)) in phases.into_iter().enumerate() {
        let plan = schedule(ctx.seed, n as u64, seconds, &server.sources);
        let phase = run_phase(&server, &plan, watch);
        outcome.attempted += plan.len() as u64;
        for (k, submit) in phase.submits.iter().enumerate() {
            match &submit.id {
                Ok(id) => server.accepted.push((*id, plan[k].spec.clone())),
                Err(e) => {
                    problems.insert(format!("phase {n} job {k}"), e.clone());
                }
            }
        }
        for id in &phase.unsettled {
            problems.insert(format!("job {id}"), "still unsettled at drain".into());
        }
        for (id, (status, _)) in &phase.settled {
            server.observed.insert(*id, status.clone());
        }
        results.push(phase);
    }
    let m = &mut outcome.metrics;
    m.insert("peak_heap_mb", alloc::peak_mb());
    m.insert("peak_rss_mb", crate::os::peak_rss_mb(false));
    let before_drain = server.service.stats();
    server.shutdown()?;
    let stats = server.service.stats();
    let settled = stats.completed + stats.failed + stats.cancelled + stats.interrupted;
    if stats.accepted != settled {
        outcome.errors.push(format!(
            "drain: {} accepted but {settled} settled ({} completed, {} failed, {} cancelled, \
             {} interrupted)",
            stats.accepted, stats.completed, stats.failed, stats.cancelled, stats.interrupted
        ));
    }

    let (reference, replayed) = reference(&server, &ctx.workdir)?;
    for (id, status) in &server.observed {
        if let Some(problem) = check_job(&server, &reference, status) {
            problems.insert(format!("job {id}"), problem);
        }
    }
    outcome.failed = problems.len() as u64;
    outcome.errors.extend(problems.iter().take(5).map(|(k, v)| format!("{k}: {v}")));

    // End-to-end metrics: `ops_per_s` from the replay, host-normalized;
    // the latencies from the untraced phase, raw.
    let completed = replayed
        .ids
        .iter()
        .filter(|&&id| reference.job(id).is_some_and(|j| j.state == state::COMPLETED))
        .count() as f64;
    let norm_ms = host::normalize_ops(&replayed.raw_ms, &replayed.refs);
    m.insert("ops_per_s", completed * 1e3 / norm_ms.iter().sum::<f64>());
    m.insert("raw.ops_per_s", completed * 1e3 / replayed.raw_ms.iter().sum::<f64>());
    refs.extend_from_slice(&replayed.refs);
    let a = &results[0];
    let latencies = a.latencies();
    latency_metrics(&latencies, "", m, &mut outcome.notes);
    latency_metrics(&latencies, "raw.", m, &mut outcome.notes);
    let late: Vec<f64> = a.submits.iter().map(|s| ms(s.due, s.sent)).collect();
    m.insert("gen.late_ms.p95", percentile(&late, 95));
    m.insert("gen.late_ms.max", late.iter().copied().fold(0.0, f64::max));
    m.insert("serve.queue_depth_peak", before_drain.queue_depth_peak as f64);
    outcome.notes.push(format!(
        "{} jobs offered at {RATE}/s; generator lateness p95 {:.2} ms, max {:.2} ms; \
         queue depth peak {} of {}",
        a.submits.len(),
        m["gen.late_ms.p95"],
        m["gen.late_ms.max"],
        before_drain.queue_depth_peak,
        before_drain.queue_depth_limit
    ));

    if ctx.traced {
        let b = &results[1];
        b.record(&tracer);
        let submit: Vec<f64> = b.submits.iter().map(|s| ms(s.sent, s.answered)).collect();
        let status: Vec<f64> = b.reads.iter().map(|(_, sent, at)| ms(*sent, *at)).collect();
        let waits: Vec<f64> = b.watched.values().map(|w| ms(w.seen, w.began)).collect();
        m.insert("http.submit_ms.p50", median(&submit));
        m.insert("http.submit_ms.p95", percentile(&submit, 95));
        m.insert("http.status_ms.p50", median(&status));
        m.insert("http.status_ms.p95", percentile(&status, 95));
        m.insert("serve.queue_wait_ms.p50", median(&waits));
        m.insert("serve.queue_wait_ms.p95", percentile(&waits, 95));
        for (kind, metric) in [
            ("check", "serve.exec_ms.check"),
            ("mine", "serve.exec_ms.mine"),
            ("explain", "serve.exec_ms.explain"),
        ] {
            let exec: Vec<f64> = b
                .watched
                .values()
                .filter(|w| w.kind == kind)
                .map(|w| ms(w.began, w.done))
                .collect();
            m.insert(metric, mean(&exec));
        }
        let spool = server.service.spool().clone();
        m.insert(
            "serve.wal_bytes_per_job",
            file_len(&spool.join("jobs.wal")) as f64 / stats.accepted.max(1) as f64,
        );
        let mines: Vec<u64> = server
            .accepted
            .iter()
            .filter(|(_, spec)| spec.kind == "mine")
            .map(|(id, _)| file_len(&server.service.job_journal_path(*id)))
            .collect();
        m.insert(
            "serve.journal_bytes_per_mine",
            mines.iter().sum::<u64>() as f64 / mines.len().max(1) as f64,
        );
        m.insert("load.read_ms", server.load_ms[0]);
        m.insert("load.decode_ms", server.load_ms[1]);
        m.insert("load.build_ms", server.load_ms[2]);
        m.insert("load.bytes", file_len(&server.graph_path) as f64);
        cold::decode_scaling(&ctx.workdir, ctx.seed, m)?;
        m.insert("trace.overhead_pct", 100.0 * (median(&b.latencies()) / median(&latencies) - 1.0));
        crate::layers::finish_trace(ctx, &tracer, &mut outcome.notes)?;
    }
    host_metrics(&refs, &mut outcome.metrics, &mut outcome.notes);
    outcome
        .notes
        .push(format!("server accepted {} jobs, completed {}", stats.accepted, stats.completed));
    Ok(outcome)
}
