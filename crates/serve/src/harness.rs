//! The deterministic serving scenario behind `BENCH_serve.json`.
//!
//! [`baseline_harness`] scripts a full life of the service on the
//! logical clock — normal tenant traffic, an overload burst that
//! sheds on both the rate-limit and queue gates, an abusive tenant
//! whose deadline-busting jobs trip its circuit breaker through the
//! full trip → 2N-refusal → half-open probe cycle, and a mid-mine
//! kill followed by a restart over the same spool that resumes from
//! checkpoints. Everything runs single-threaded through
//! [`Service::run_pending`], so the folded [`ServeStats`] are exactly
//! reproducible and `repro --baselines` gates them for equality.

use std::collections::BTreeMap;
use std::path::PathBuf;

use grm_datasets::{generate, DatasetId, GenConfig};

use crate::job::{state, JobSpec};
use crate::service::{Rejection, ServeConfig, ServeStats, Service};

fn add_stats(total: &mut ServeStats, stats: &ServeStats) {
    total.submitted += stats.submitted;
    total.accepted += stats.accepted;
    total.completed += stats.completed;
    total.failed += stats.failed;
    total.cancelled += stats.cancelled;
    total.interrupted += stats.interrupted;
    total.shed_queue_full += stats.shed_queue_full;
    total.shed_rate_limited += stats.shed_rate_limited;
    total.rejected_breaker_open += stats.rejected_breaker_open;
    total.breaker_trips += stats.breaker_trips;
    total.resumed += stats.resumed;
    total.queue_depth_peak = total.queue_depth_peak.max(stats.queue_depth_peak);
}

/// The scripted scenario, on a spool under `spool_root`. Runs two
/// service instances (the second reopens the first's spool after a
/// simulated crash) and returns their folded stats plus the total
/// rules mined by the completed mine jobs.
///
/// Tenants: `alice` is well-behaved (mine, check, explain), `bob`
/// bursts 12 submissions into a burst-8 bucket over a depth-4 queue
/// (4 accepted, 4 shed `queue_full`, 4 shed `rate_limited`), and
/// `mallory` submits deadline-busting checks until the breaker trips,
/// eats the 2N refusals, then half-opens on a probe. `carol`'s mine
/// job is killed after 2 units; the reopened service resumes it from
/// its checkpoint journal.
pub fn baseline_harness(scale: f64, spool_root: PathBuf) -> std::io::Result<(ServeStats, u64)> {
    let spool = spool_root.join("serve-baseline-spool");
    if spool.exists() {
        std::fs::remove_dir_all(&spool)?;
    }
    let dataset = generate(DatasetId::Wwc2019, &GenConfig { seed: 42, scale, clean: false });
    let config = ServeConfig {
        queue_depth: 4,
        workers: 0,
        fault_rate: 0.2,
        fault_seed: 7,
        max_retries: 3,
        breaker_threshold: 4,
        rate_limit: 0.0,
        burst: 8.0,
        spool: spool.clone(),
        deterministic: true,
    };
    let rules = dataset.ground_truth.clone();
    let service = Service::open(dataset.graph.clone(), rules.clone(), config.clone(), None)?;
    let mut rules_mined: BTreeMap<u64, u64> = BTreeMap::new();
    let spec = |tenant: &str, kind: &str| JobSpec {
        tenant: tenant.into(),
        kind: kind.into(),
        ..JobSpec::default()
    };

    // Phase 1 — alice, well-behaved: two mine jobs, two checks, one
    // explain over the first mine job's journal.
    let mine_a = service.submit(JobSpec { seed: Some(42), ..spec("alice", "mine") }).unwrap();
    service.run_pending();
    let mine_b = service.submit(JobSpec { seed: Some(43), ..spec("alice", "mine") }).unwrap();
    service.submit(spec("alice", "check")).unwrap();
    service.submit(spec("alice", "check")).unwrap();
    service.run_pending();
    service
        .submit(JobSpec {
            rule: Some("rule-0".into()),
            source: Some(mine_a),
            ..spec("alice", "explain")
        })
        .unwrap();
    service.run_pending();
    for id in [mine_a, mine_b] {
        if let Some(status) = service.job(id) {
            rules_mined.insert(id, status.rules_mined);
        }
    }

    // Phase 2 — bob, bursty: 12 submissions against burst 8 and a
    // depth-4 queue with no draining in between. Both shed gates
    // fire: 4 queued, then 4 queue_full (tokens already spent), then
    // 4 rate_limited.
    for i in 0..12 {
        let result = service.submit(spec("bob", "check"));
        match i {
            0..=3 => assert!(result.is_ok(), "bob job {i}: {result:?}"),
            4..=7 => assert_eq!(result, Err(Rejection::QueueFull), "bob job {i}"),
            _ => assert_eq!(result, Err(Rejection::RateLimited), "bob job {i}"),
        }
    }
    service.run_pending();

    // Phase 3 — mallory, abusive: deadline-busting checks fail until
    // the breaker trips after 4, refuses 2·4 = 8 submissions, then
    // half-opens and admits a probe (which also gets cancelled).
    for i in 0..4 {
        let result =
            service.submit(JobSpec { deadline_seconds: Some(0.1), ..spec("mallory", "check") });
        assert!(result.is_ok(), "mallory job {i}: {result:?}");
        service.run_pending();
    }
    for i in 0..8 {
        let result = service.submit(spec("mallory", "check"));
        assert_eq!(result, Err(Rejection::BreakerOpen), "mallory refusal {i}");
    }
    let probe = service
        .submit(JobSpec { deadline_seconds: Some(0.1), ..spec("mallory", "check") })
        .expect("half-open probe admitted");
    service.run_pending();
    assert_eq!(service.job(probe).map(|s| s.state), Some(state::CANCELLED.to_owned()));

    // Phase 4 — carol's mine job is killed after 2 units, then the
    // process "crashes" (service dropped without drain).
    let killed = service
        .submit(JobSpec { seed: Some(44), kill_after: Some(2), ..spec("carol", "mine") })
        .unwrap();
    service.run_pending();
    assert_eq!(service.job(killed).map(|s| s.state), Some(state::INTERRUPTED.to_owned()));
    let mut total = ServeStats::default();
    add_stats(&mut total, &service.stats());
    drop(service);

    // Restart over the same spool: the WAL re-queues carol's job and
    // its checkpoint journal resumes it to completion.
    let service = Service::open(dataset.graph.clone(), rules, config, None)?;
    service.run_pending();
    let resumed = service.job(killed).expect("re-queued job visible after restart");
    assert_eq!(resumed.state, state::COMPLETED, "{resumed:?}");
    rules_mined.insert(killed, resumed.rules_mined);
    service.drain();
    add_stats(&mut total, &service.stats());

    Ok((total, rules_mined.values().sum()))
}
