//! Telemetry-bus behaviour: emission coverage, event/journal parity,
//! drop counting + journaling, byte-identity with sinks attached, the
//! event-stream writer, and the Prometheus exposition.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use grm_obs::{
    check_exposition_against_events, event_stream_sink, parity_violations, parse_exposition,
    BoundaryRecord, ChannelSink, ChaosRecord, CheckpointRecord, Counter, CountingSink,
    DegradedRecord, FaultRecord, FootprintRow, Gauge, Histo, LineageRecord, MemRecord, MetricsHub,
    PlanOpRecord, PlanRecord, Recorder, RetryRecord, RunJournal, SlowQueryPolicy, TelemetryEvent,
};

/// A one-operator plan for `scope` costing `hits` db-hits.
fn plan(scope: &str, hits: u64) -> PlanRecord {
    let ops = vec![PlanOpRecord { db_nodes: hits, ..PlanOpRecord::default() }];
    PlanRecord { ops, ..PlanRecord::new(scope) }
}

/// Drives one small synthetic run touching every journal-backed
/// record kind, so parity can be asserted across the whole taxonomy.
/// One of its two plans breaches the slow-query policy.
fn drive(rec: &Recorder) -> RunJournal {
    rec.set_slow_query_policy(SlowQueryPolicy { max_db_hits: Some(10), ..Default::default() });
    rec.root_scope().record(ChaosRecord {
        model: "sim".into(),
        strategy: "swa".into(),
        fault_rate: 0.2,
        ..ChaosRecord::default()
    });
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    let scope = mine.scope();
    scope.add(Counter::PromptsIssued, 4);
    scope.add(Counter::RulesMined, 9);
    scope.gauge(Gauge::RagCoverage, 0.8);
    scope.observe(Histo::MineCallSeconds, 1.5);
    scope.record(FaultRecord {
        stage: "mine".into(),
        unit: 2,
        attempt: 1,
        ..FaultRecord::default()
    });
    scope.record(RetryRecord {
        stage: "mine".into(),
        unit: 2,
        attempts: 2,
        recovered: true,
        ..RetryRecord::default()
    });
    scope.record(DegradedRecord {
        stage: "mine".into(),
        unit: "window-7".into(),
        reason: "abandoned".into(),
        ..DegradedRecord::default()
    });
    scope.record(CheckpointRecord {
        stage: "mine".into(),
        unit: 2,
        payload: "rules".into(),
        ..CheckpointRecord::default()
    });
    scope.record(LineageRecord { rule: "rule-0".into(), frequency: 3, ..LineageRecord::default() });
    scope.record(BoundaryRecord { node: "Team_1".into(), ..BoundaryRecord::default() });
    scope.record(MemRecord::footprint_of(
        "graph",
        vec![FootprintRow { name: "nodes".into(), count: 10, bytes: 640 }],
    ));
    scope.record(plan("rule-0", 7));
    scope.record(plan("rule-1", 12));
    mine.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn bus_emits_one_event_per_journal_record() {
    let rec = Recorder::deterministic();
    let counting = CountingSink::new();
    let (chan, rx) = ChannelSink::bounded("probe", 4096);
    rec.attach_sink(counting.clone());
    rec.attach_sink(chan);
    let journal = drive(&rec);
    let counts = counting.counts();
    let violations = parity_violations(&counts, &journal);
    assert!(violations.is_empty(), "{violations:?}");
    // Every event's payload, in emission order; a span's real
    // duration is the one value that varies from run to run.
    let events: Vec<(String, Option<u64>, String, String, f64)> = rx
        .try_iter()
        .map(|e| {
            let value = if e.kind == "span_close" { 0.0 } else { e.value };
            (e.kind, e.span, e.name, e.detail, value)
        })
        .collect();
    let expected = [
        ("chaos", None, "sim", "swa", 0.2),
        ("span_open", Some(0), "pipeline", "", 0.0),
        ("span_open", Some(1), "mine", "0", 0.0),
        ("counter", Some(1), "prompts_issued", "", 4.0),
        ("counter", Some(1), "rules_mined", "", 9.0),
        ("gauge", Some(1), "rag_coverage", "", 0.8),
        ("histo", Some(1), "mine_call_seconds", "", 1.5),
        ("fault", Some(1), "mine", "", 2.0),
        ("retry", Some(1), "mine", "recovered", 2.0),
        ("degraded", Some(1), "mine", "window-7: abandoned", 0.0),
        ("checkpoint", Some(1), "mine", "", 2.0),
        ("lineage", Some(1), "rule-0", "", 3.0),
        ("boundary", Some(1), "Team_1", "", 0.0),
        ("mem", Some(1), "footprint", "graph", 640.0),
        ("plan", Some(1), "rule-0", "", 7.0),
        ("plan", Some(1), "rule-1", "slow", 12.0),
        ("counter", Some(1), "cypher_slow_queries", "", 1.0),
        ("span_close", Some(1), "mine", "", 0.0),
        ("span_close", Some(0), "pipeline", "", 0.0),
    ]
    .map(|(kind, span, name, detail, value)| {
        (kind.to_owned(), span, name.to_owned(), detail.to_owned(), value)
    });
    assert_eq!(events, expected);
    // Spot-check the aggregate kinds parity does not cover.
    assert_eq!(counts.get("counter"), Some(&3));
    assert_eq!(counts.get("gauge"), Some(&1));
    assert_eq!(counts.get("histo"), Some(&1));
    assert_eq!(counts.get("span_close"), Some(&2));
    assert_eq!(rec.events_dropped(), 0);
    assert_eq!(rec.events_emitted(), counts.values().sum::<u64>());

    rec.finish_sinks();
    assert_eq!(counting.counts().get("run_end"), Some(&1));
}

#[test]
fn saturated_sink_drops_are_counted_and_journaled() {
    let rec = Recorder::deterministic();
    // Capacity-1 channel that nobody drains: everything past the
    // first offer drops.
    let (sink, _rx) = ChannelSink::bounded("tiny", 1);
    rec.attach_sink(sink);
    let journal = drive(&rec);
    let dropped = rec.events_dropped();
    assert!(dropped > 0, "the tiny channel must have dropped");
    assert_eq!(journal.total("telemetry_events_dropped"), dropped);
    assert_eq!(journal.total("telemetry_events_dropped"), rec.events_emitted() - 1);
}

#[test]
fn zero_drop_bus_run_is_byte_identical_to_bus_off() {
    let plain = drive(&Recorder::deterministic()).to_jsonl();
    let rec = Recorder::deterministic();
    // Generously sized channel, undrained but never full: no drops.
    let (sink, rx) = ChannelSink::bounded("big", 4096);
    let counting = CountingSink::new();
    rec.attach_sink(sink);
    rec.attach_sink(counting);
    let live = drive(&rec).to_jsonl();
    assert_eq!(rec.events_dropped(), 0);
    assert_eq!(plain, live, "attached sinks must never perturb journal bytes");
    rec.finish_sinks();
    // The channel saw the same stream the counters did, run_end last.
    let events: Vec<TelemetryEvent> = rx.try_iter().collect();
    assert_eq!(events.last().unwrap().kind, "run_end");
}

#[test]
fn disabled_recorder_ignores_sinks() {
    let rec = Recorder::disabled();
    let counting = CountingSink::new();
    rec.attach_sink(counting.clone());
    rec.root_scope().span("pipeline").finish();
    rec.finish_sinks();
    assert!(counting.counts().is_empty());
    assert_eq!(rec.events_emitted(), 0);
}

#[test]
fn event_stream_writer_produces_v8_journal_lines() {
    let path = std::env::temp_dir().join(format!("grm-bus-test-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_owned();
    let rec = Recorder::deterministic();
    let (sink, handle) = event_stream_sink(&path_str, 4096).expect("stream file creates");
    rec.attach_sink(sink);
    drive(&rec);
    rec.finish_sinks();
    let written = handle.finish().expect("writer thread exits cleanly");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let parsed = RunJournal::from_jsonl_lossy(&text).expect("stream parses as a journal");
    assert!(parsed.has_events());
    assert_eq!(parsed.events.len() as u64, written);
    assert_eq!(parsed.events.len() as u64, rec.events_emitted());
    assert_eq!(parsed.events.last().unwrap().kind, "run_end");
    // seq is strictly increasing in file order.
    assert!(parsed.events.windows(2).all(|w| w[0].seq < w[1].seq));
}

#[test]
fn metrics_hub_exposes_counters_gauges_and_bus_health() {
    let hub = Arc::new(MetricsHub::new(None, 64, Arc::new(AtomicU64::new(0))));
    let rec = Recorder::deterministic();
    rec.attach_sink(hub.clone());
    drive(&rec);
    rec.finish_sinks();
    let text = hub.exposition();
    let samples = parse_exposition(&text).expect("exposition well-formed: {text}");
    let get = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
    assert_eq!(get("grm_prompts_issued_total"), Some(4.0));
    assert_eq!(get("grm_rules_mined_total"), Some(9.0));
    assert_eq!(get("grm_rag_coverage"), Some(0.8));
    assert_eq!(get("grm_telemetry_events_dropped_total"), Some(0.0));
    assert_eq!(get("grm_telemetry_events_total"), Some(rec.events_emitted() as f64));
}

#[test]
fn exposition_cross_checks_against_event_stream() {
    let hub = Arc::new(MetricsHub::new(None, 64, Arc::new(AtomicU64::new(0))));
    let (chan, rx) = ChannelSink::bounded("probe", 4096);
    let rec = Recorder::deterministic();
    rec.attach_sink(hub.clone());
    rec.attach_sink(chan);
    drive(&rec);
    rec.finish_sinks();
    let events: Vec<TelemetryEvent> = rx.try_iter().collect();
    let samples = parse_exposition(&hub.exposition()).unwrap();
    let violations = check_exposition_against_events(&samples, &events);
    assert!(violations.is_empty(), "{violations:?}");
    // A tampered snapshot is caught.
    let mut tampered = samples.clone();
    for s in &mut tampered {
        if s.name == "grm_rules_mined_total" {
            s.value += 1.0;
        }
    }
    assert!(!check_exposition_against_events(&tampered, &events).is_empty());
}

#[test]
fn metrics_hub_writes_atomic_snapshots_on_cadence() {
    let path = std::env::temp_dir().join(format!("grm-metrics-test-{}.prom", std::process::id()));
    let hub = Arc::new(MetricsHub::new(Some(path.clone()), 4, Arc::new(AtomicU64::new(0))));
    let rec = Recorder::deterministic();
    rec.attach_sink(hub);
    drive(&rec);
    rec.finish_sinks();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
    let samples = parse_exposition(&text).expect("snapshot well-formed");
    assert!(samples.iter().any(|s| s.name == "grm_rules_mined_total" && s.value == 9.0));
}

#[test]
fn parity_gate_catches_a_missing_kind() {
    let rec = Recorder::deterministic();
    let counting = CountingSink::new();
    rec.attach_sink(counting.clone());
    let journal = drive(&rec);
    let mut counts: BTreeMap<String, u64> = counting.counts();
    counts.remove("fault");
    let violations = parity_violations(&counts, &journal);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains("fault"), "{violations:?}");
}
