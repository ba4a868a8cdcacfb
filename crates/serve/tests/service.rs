//! Integration tests for the serving layer: admission gates,
//! breaker trip/half-open, deadline cancellation, WAL crash
//! recovery, kill/resume byte-identity, and the HTTP front end.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use grm_datasets::{generate, DatasetId, GenConfig};
use grm_rules::ConsistencyRule;
use grm_serve::{
    baseline_harness, http_request, route, serve_http, state, JobSpec, Rejection, Request,
    ServeConfig, Service,
};

static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh spool directory per test, cleaned before use.
fn fresh_spool(tag: &str) -> PathBuf {
    let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("grm-serve-test-{}-{tag}-{seq}", std::process::id()));
    if path.exists() {
        std::fs::remove_dir_all(&path).unwrap();
    }
    path
}

fn small_dataset() -> (grm_pgraph::PropertyGraph, Vec<ConsistencyRule>) {
    let dataset = generate(DatasetId::Wwc2019, &GenConfig { seed: 42, scale: 0.05, clean: true });
    (dataset.graph, dataset.ground_truth)
}

fn det_config(spool: PathBuf) -> ServeConfig {
    ServeConfig { deterministic: true, spool, ..ServeConfig::default() }
}

fn spec(tenant: &str, kind: &str) -> JobSpec {
    JobSpec { tenant: tenant.into(), kind: kind.into(), ..JobSpec::default() }
}

#[test]
fn queue_bound_sheds_instead_of_buffering() {
    let (graph, rules) = small_dataset();
    let config = ServeConfig {
        queue_depth: 2,
        rate_limit: 0.0,
        burst: 100.0,
        ..det_config(fresh_spool("queue"))
    };
    let service = Service::open(graph, rules, config, None).unwrap();
    assert!(service.submit(spec("t", "check")).is_ok());
    assert!(service.submit(spec("t", "check")).is_ok());
    assert_eq!(service.submit(spec("t", "check")), Err(Rejection::QueueFull));
    let stats = service.stats();
    assert_eq!(stats.shed_queue_full, 1);
    assert_eq!(stats.queue_depth_peak, 2);
    assert_eq!(stats.queue_depth_limit, 2);
    service.run_pending();
    // Depth never exceeded the bound, and draining the queue reopens
    // admission.
    assert!(service.submit(spec("t", "check")).is_ok());
    service.run_pending();
    let stats = service.stats();
    assert!(stats.queue_depth_peak <= stats.queue_depth_limit);
}

#[test]
fn token_bucket_rate_limits_per_tenant() {
    let (graph, rules) = small_dataset();
    let config = ServeConfig {
        queue_depth: 64,
        rate_limit: 1.0,
        burst: 2.0,
        ..det_config(fresh_spool("rate"))
    };
    let service = Service::open(graph, rules, config, None).unwrap();
    assert!(service.submit(spec("a", "check")).is_ok());
    assert!(service.submit(spec("a", "check")).is_ok());
    assert_eq!(service.submit(spec("a", "check")), Err(Rejection::RateLimited));
    // Another tenant has its own bucket.
    assert!(service.submit(spec("b", "check")).is_ok());
    // The logical clock refills tenant a.
    service.advance_seconds(1.0);
    assert!(service.submit(spec("a", "check")).is_ok());
    assert_eq!(service.stats().shed_rate_limited, 1);
    service.run_pending();
}

#[test]
fn invalid_specs_are_rejected_up_front() {
    let (graph, _) = small_dataset();
    let service =
        Service::open(graph, Vec::new(), det_config(fresh_spool("invalid")), None).unwrap();
    for bad in [
        spec("", "check"),
        spec("t", "rewrite-history"),
        spec("t", "check"),   // no rule book loaded
        spec("t", "explain"), // missing rule/source
        JobSpec { kill_after: Some(2), ..spec("t", "mine") }, // kill without chaos
    ] {
        let result = service.submit(bad.clone());
        assert!(matches!(result, Err(Rejection::Invalid(_))), "{bad:?}: {result:?}");
    }
    assert_eq!(service.stats().rejected_invalid, 5);
}

#[test]
fn failing_tenant_trips_breaker_then_half_opens() {
    let (graph, rules) = small_dataset();
    let config = ServeConfig {
        queue_depth: 64,
        rate_limit: 1000.0,
        burst: 1000.0,
        breaker_threshold: 3,
        ..det_config(fresh_spool("breaker"))
    };
    let service = Service::open(graph, rules, config, None).unwrap();
    // Deadline-busting checks fail (cancelled) and feed the breaker.
    let tiny = || JobSpec { deadline_seconds: Some(0.01), ..spec("m", "check") };
    for _ in 0..3 {
        service.submit(tiny()).unwrap();
        service.run_pending();
    }
    let stats = service.stats();
    assert_eq!(stats.cancelled, 3);
    assert_eq!(stats.breaker_trips, 1, "trips at threshold consecutive failures");
    // Open: refuses 2·threshold submissions.
    for i in 0..6 {
        assert_eq!(service.submit(spec("m", "check")), Err(Rejection::BreakerOpen), "refusal {i}");
    }
    assert_eq!(service.stats().rejected_breaker_open, 6);
    // Half-open: a probe is admitted; success closes the breaker.
    let probe = service.submit(spec("m", "check")).expect("half-open probe");
    service.run_pending();
    assert_eq!(service.job(probe).unwrap().state, state::COMPLETED);
    assert!(service.submit(spec("m", "check")).is_ok(), "breaker closed after good probe");
    service.run_pending();
    // Other tenants were never affected.
    assert!(service.submit(spec("bystander", "check")).is_ok());
    service.run_pending();
}

#[test]
fn check_deadline_cancels_mid_job_with_progress_detail() {
    let (graph, rules) = small_dataset();
    assert!(rules.len() >= 2, "need a multi-rule book");
    let service =
        Service::open(graph, rules.clone(), det_config(fresh_spool("deadline")), None).unwrap();
    // Budget for exactly one rule (0.25 sim-seconds each).
    let id = service.submit(JobSpec { deadline_seconds: Some(0.3), ..spec("t", "check") }).unwrap();
    service.run_pending();
    let status = service.job(id).unwrap();
    assert_eq!(status.state, state::CANCELLED);
    assert!(status.detail.contains(&format!("after 1 of {} rule(s)", rules.len())), "{status:?}");
    // An uncapped check completes.
    let id = service.submit(spec("t", "check")).unwrap();
    service.run_pending();
    assert_eq!(service.job(id).unwrap().state, state::COMPLETED);
}

#[test]
fn mine_jobs_complete_and_explain_reads_their_journal() {
    let (graph, rules) = small_dataset();
    let service = Service::open(graph, rules, det_config(fresh_spool("mine")), None).unwrap();
    let mine = service.submit(JobSpec { seed: Some(42), ..spec("t", "mine") }).unwrap();
    service.run_pending();
    let status = service.job(mine).unwrap();
    assert_eq!(status.state, state::COMPLETED, "{status:?}");
    assert!(status.rules_mined > 0, "{status:?}");
    assert!(service.job_journal_path(mine).exists());
    let explain = service
        .submit(JobSpec { rule: Some("rule-0".into()), source: Some(mine), ..spec("t", "explain") })
        .unwrap();
    service.run_pending();
    let status = service.job(explain).unwrap();
    assert_eq!(status.state, state::COMPLETED, "{status:?}");
    assert!(!status.detail.is_empty());
    // Explaining from a job that never ran fails cleanly.
    let bad = service
        .submit(JobSpec { rule: Some("rule-0".into()), source: Some(999), ..spec("t", "explain") })
        .unwrap();
    service.run_pending();
    assert_eq!(service.job(bad).unwrap().state, state::FAILED);
}

#[test]
fn restart_requeues_incomplete_jobs_from_the_wal() {
    let (graph, rules) = small_dataset();
    let spool = fresh_spool("restart");
    let config = det_config(spool.clone());
    let service = Service::open(graph.clone(), rules.clone(), config.clone(), None).unwrap();
    let done = service.submit(spec("t", "check")).unwrap();
    service.run_pending();
    let pending = service.submit(spec("t", "check")).unwrap();
    // Crash before the queued job runs: drop without drain.
    drop(service);
    let service = Service::open(graph, rules, config, None).unwrap();
    assert!(service.job(done).is_none(), "terminal jobs are not re-queued");
    let requeued = service.job(pending).expect("incomplete job re-queued");
    assert_eq!(requeued.state, state::QUEUED);
    assert_eq!(requeued.detail, "re-queued after restart");
    service.run_pending();
    assert_eq!(service.job(pending).unwrap().state, state::COMPLETED);
    // New ids continue after the replayed ones — never reused.
    let next = service.submit(spec("t", "check")).unwrap();
    assert!(next > pending);
    service.run_pending();
    service.drain();
    // A cleanly drained WAL re-queues nothing.
    let wal = std::fs::read_to_string(spool.join("jobs.wal")).unwrap();
    let replay = grm_serve::replay_wal(&wal);
    assert!(replay.clean_shutdown);
    assert!(replay.incomplete().is_empty());
}

#[test]
fn killed_mine_job_resumes_to_byte_identical_journal() {
    let (graph, rules) = small_dataset();
    let chaos_config =
        |spool: PathBuf| ServeConfig { fault_rate: 0.2, fault_seed: 7, ..det_config(spool) };
    // Interrupted run: killed after 2 units, then "crash", then a
    // restart resumes from the checkpoint journal.
    let spool_a = fresh_spool("resume-a");
    let config = chaos_config(spool_a.clone());
    let service = Service::open(graph.clone(), rules.clone(), config.clone(), None).unwrap();
    let id = service
        .submit(JobSpec { seed: Some(44), kill_after: Some(2), ..spec("t", "mine") })
        .unwrap();
    service.run_pending();
    let status = service.job(id).unwrap();
    assert_eq!(status.state, state::INTERRUPTED, "{status:?}");
    drop(service);
    let service = Service::open(graph.clone(), rules.clone(), config, None).unwrap();
    assert_eq!(service.stats().resumed, 1);
    service.run_pending();
    let resumed = service.job(id).unwrap();
    assert_eq!(resumed.state, state::COMPLETED, "{resumed:?}");
    // Reference run: the same job id and seed on a fresh spool,
    // never killed. Same id ⇒ same per-job fault seed ⇒ identical
    // chaos schedule, so the journals must match byte for byte.
    // `graph.clone()` (not the moved original): footprint telemetry
    // records exact allocation sizes, and clones allocate exactly, so
    // only clone-vs-clone journals are comparable byte-for-byte.
    let spool_b = fresh_spool("resume-b");
    let twin = Service::open(graph.clone(), rules, chaos_config(spool_b.clone()), None).unwrap();
    let twin_id = twin.submit(JobSpec { seed: Some(44), ..spec("t", "mine") }).unwrap();
    assert_eq!(twin_id, id, "twin must get the same job id");
    twin.run_pending();
    assert_eq!(twin.job(twin_id).unwrap().state, state::COMPLETED);
    let resumed_journal = std::fs::read(spool_a.join(format!("job-{id}.jsonl"))).unwrap();
    let reference_journal = std::fs::read(spool_b.join(format!("job-{id}.jsonl"))).unwrap();
    assert!(!resumed_journal.is_empty());
    assert_eq!(resumed_journal, reference_journal, "kill/resume must converge byte-identically");
}

#[test]
fn routes_cover_the_job_lifecycle() {
    let (graph, rules) = small_dataset();
    let service = Service::open(graph, rules, det_config(fresh_spool("routes")), None).unwrap();
    let request = |method: &str, path: &str, body: &str| Request {
        method: method.into(),
        path: path.into(),
        body: body.into(),
    };
    let (status, body, drain) =
        route(&service, &request("POST", "/jobs", r#"{"tenant":"t","kind":"check"}"#));
    assert_eq!((status, drain), (202, false), "{body}");
    assert_eq!(body, "{\"job\":1}");
    service.run_pending();
    let (status, body, _) = route(&service, &request("GET", "/jobs/1", ""));
    assert_eq!(status, 200);
    assert!(body.contains("\"completed\""), "{body}");
    let (status, _, _) = route(&service, &request("GET", "/jobs/999", ""));
    assert_eq!(status, 404);
    let (status, body, _) = route(&service, &request("GET", "/stats", ""));
    assert_eq!(status, 200);
    assert!(body.contains("\"accepted\":1"), "{body}");
    let (status, body, _) = route(&service, &request("GET", "/healthz", ""));
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    // No hub attached: /metrics is a clean 404, not a panic.
    let (status, _, _) = route(&service, &request("GET", "/metrics", ""));
    assert_eq!(status, 404);
    let (status, body, _) =
        route(&service, &request("POST", "/jobs", r#"{"tenant":"","kind":"check"}"#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"reason\":\"invalid\""), "{body}");
    let (status, _, _) = route(&service, &request("GET", "/nope", ""));
    assert_eq!(status, 404);
    let (status, _, _) = route(&service, &request("DELETE", "/jobs/1", ""));
    assert_eq!(status, 405);
    let (status, _, drain) = route(&service, &request("POST", "/shutdown", ""));
    assert_eq!((status, drain), (202, true));
    service.drain();
    let (status, body, _) = route(&service, &request("GET", "/healthz", ""));
    assert_eq!(status, 503);
    assert!(body.contains("\"draining\""), "{body}");
    let (status, body, _) =
        route(&service, &request("POST", "/jobs", r#"{"tenant":"t","kind":"check"}"#));
    assert_eq!(status, 503, "{body}");
}

#[test]
fn http_server_end_to_end_with_worker_and_drain() {
    let (graph, rules) = small_dataset();
    // Wall-clock mode, generous limits: this test exercises the
    // socket plumbing, not admission.
    let config = ServeConfig {
        rate_limit: 1000.0,
        burst: 1000.0,
        spool: fresh_spool("http"),
        ..ServeConfig::default()
    };
    let service = Service::open(graph, rules, config, None).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || while service.execute_next(true) {})
    };
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_http(service, listener))
    };
    let (status, body) =
        http_request(&addr, "POST", "/jobs", r#"{"tenant":"t","kind":"check"}"#).unwrap();
    assert_eq!(status, 202, "{body}");
    assert_eq!(body, "{\"job\":1}");
    // Poll until the worker settles the job.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (status, body) = http_request(&addr, "GET", "/jobs/1", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed: grm_serve::JobStatus = serde_json::from_str(&body).unwrap();
        if state::is_settled(&parsed.state) {
            assert_eq!(parsed.state, state::COMPLETED, "{parsed:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never settled");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (status, body) = http_request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");
    server.join().unwrap().unwrap();
    worker.join().unwrap();
    let stats = service.stats();
    assert!(stats.draining);
    assert_eq!(stats.completed, 1);
}

#[test]
fn baseline_harness_is_deterministic_and_shows_every_gate() {
    let root = fresh_spool("harness");
    std::fs::create_dir_all(&root).unwrap();
    let (first, rules_mined) = baseline_harness(0.05, root.clone()).unwrap();
    let second = baseline_harness(0.05, root.clone()).unwrap();
    assert_eq!((first.clone(), rules_mined), second, "harness outcome must be reproducible");
    // The scripted scenario exercises every failure gate.
    assert!(first.shed_queue_full > 0);
    assert!(first.shed_rate_limited > 0);
    assert!(first.rejected_breaker_open > 0);
    assert!(first.breaker_trips > 0);
    assert_eq!(first.resumed, 1);
    assert_eq!(first.interrupted, 1);
    assert!(rules_mined > 0);
    assert!(first.queue_depth_peak <= 4);
    // Accounting closes: every accepted job reached a settled state.
    // The resumed job settles twice (interrupted, then completed
    // after the restart) but was accepted once.
    assert_eq!(
        first.accepted + first.resumed,
        first.completed + first.failed + first.cancelled + first.interrupted,
        "{first:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
