//! grm-obs behaviour: span nesting, counter attribution, histogram
//! observations, journal round-trips (strict and lossy), and the
//! disabled-recorder fast path.

use std::collections::BTreeSet;
use std::thread;

use grm_obs::{
    BoundaryRecord, ChaosRecord, CheckpointRecord, Counter, DegradedRecord, FaultRecord,
    FootprintRow, Gauge, Histo, LineageRecord, MemRecord, OriginRef, PlanOpRecord, PlanRecord,
    Recorder, RetryRecord, RunJournal, Scope, SlowQueryPolicy, TelemetryEvent,
};

#[test]
fn span_nesting_is_recorded() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let encode = root.scope().span("encode");
    encode.finish();
    let mine = root.scope().span("mine");
    let worker = mine.scope().span("worker-0");
    worker.finish();
    mine.finish();
    root.finish();

    let journal = rec.snapshot();
    let names: Vec<&str> = journal.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["pipeline", "encode", "mine", "worker-0"]);

    let root = journal.span("pipeline").unwrap();
    assert_eq!(root.parent, None);
    let children: Vec<&str> = journal.children(root).iter().map(|s| s.name.as_str()).collect();
    assert_eq!(children, ["encode", "mine"]);
    let mine = journal.span("mine").unwrap();
    assert_eq!(journal.children(mine)[0].name, "worker-0");
}

#[test]
fn counters_attribute_to_span_and_totals() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let encode = root.scope().span("encode");
    encode.scope().add(Counter::NodesEncoded, 10);
    encode.scope().add(Counter::NodesEncoded, 5);
    encode.finish();
    root.scope().add(Counter::NodesEncoded, 1);
    root.finish();

    assert_eq!(rec.total(Counter::NodesEncoded), 16);
    let journal = rec.snapshot();
    assert_eq!(journal.span("encode").unwrap().counter("nodes_encoded"), 15);
    assert_eq!(journal.span("pipeline").unwrap().counter("nodes_encoded"), 1);
    assert_eq!(journal.total("nodes_encoded"), 16);
}

#[test]
fn worker_span_counters_sum_to_totals() {
    // The attribution contract the parallel miner relies on: bumps
    // from concurrent worker threads land on their own spans, and the
    // run total is exactly their sum.
    let rec = Recorder::new();
    let mine = rec.root_scope().span("mine");
    let spans: Vec<_> = (0..4).map(|i| mine.scope().span(&format!("worker-{i}"))).collect();
    thread::scope(|s| {
        for (i, span) in spans.iter().enumerate() {
            let scope = span.scope();
            s.spawn(move || {
                for _ in 0..100 {
                    scope.add(Counter::RulesMined, (i + 1) as u64);
                }
            });
        }
    });
    for span in spans {
        span.finish();
    }
    mine.finish();

    let journal = rec.snapshot();
    let per_span: u64 = journal
        .spans
        .iter()
        .filter(|s| s.name.starts_with("worker-"))
        .map(|s| s.counter("rules_mined"))
        .sum();
    assert_eq!(per_span, 100 * (1 + 2 + 3 + 4));
    assert_eq!(journal.total("rules_mined"), per_span);
    assert_eq!(journal.span("mine").unwrap().counter("rules_mined"), 0);
}

#[test]
fn sim_seconds_attribute_per_span() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    let worker = mine.scope().span("worker-0");
    worker.scope().add_sim_seconds(2.5);
    worker.finish();
    mine.scope().add_sim_seconds(1.0);
    mine.finish();
    root.finish();

    let journal = rec.snapshot();
    assert_eq!(journal.span("worker-0").unwrap().sim_seconds, 2.5);
    assert_eq!(journal.span("mine").unwrap().sim_seconds, 1.0);
    // Subtree roll-up is available as a helper…
    assert_eq!(journal.subtree_sim_seconds(journal.span("mine").unwrap()), 3.5);
    // …but stage rows report the stage span's own attribution.
    let timings = journal.stage_timings();
    assert_eq!(timings.len(), 1);
    assert_eq!(timings[0].stage, "mine");
    assert_eq!(timings[0].sim_seconds, 1.0);
}

#[test]
fn gauges_record_last_value() {
    let rec = Recorder::new();
    let span = rec.root_scope().span("retrieve");
    span.scope().gauge(Gauge::RagCoverage, 0.25);
    span.scope().gauge(Gauge::RagCoverage, 0.75);
    span.finish();
    let journal = rec.snapshot();
    assert_eq!(journal.gauge("rag_coverage"), Some(0.75));
    assert_eq!(journal.span("retrieve").unwrap().gauges, vec![("rag_coverage".into(), 0.75)]);
}

#[test]
fn journal_jsonl_round_trip() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let encode = root.scope().span("encode");
    encode.scope().add(Counter::NodesEncoded, 7);
    encode.scope().add(Counter::TokensEmitted, 1234);
    encode.finish();
    root.scope().gauge(Gauge::RagCoverage, 0.5);
    root.scope().add_sim_seconds(9.25);
    root.finish();

    let journal = rec.snapshot();
    let text = journal.to_jsonl();
    // One meta line + one line per span + one totals line.
    assert_eq!(text.lines().count(), 2 + journal.spans.len());
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed, journal);
}

#[test]
fn from_jsonl_rejects_garbage_and_bad_versions() {
    assert!(RunJournal::from_jsonl("not json").is_err());
    // Only this build's schema version parses strictly — future and
    // past versions alike are regenerated, not migrated. The lossy
    // reader stays best-effort.
    for version in [99, 7, 1] {
        let meta = format!(r#"{{"Meta": {{"version": {version}, "spans": 0}}}}"#);
        let err = RunJournal::from_jsonl(&meta).unwrap_err();
        assert!(err.contains("version") && err.contains("regenerate"), "{err}");
        assert!(RunJournal::from_jsonl_lossy(&meta).is_ok());
    }
}

#[test]
fn histograms_attribute_to_span_and_run_totals() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    for s in [0.5, 1.0, 2.0] {
        mine.scope().observe(Histo::MineCallSeconds, s);
    }
    mine.finish();
    let eval = root.scope().span("evaluate");
    eval.scope().observe(Histo::MineCallSeconds, 4.0);
    eval.finish();
    root.finish();

    let journal = rec.snapshot();
    // Run-wide histogram merges all spans' observations.
    let total = journal.histogram("mine_call_seconds").unwrap();
    assert_eq!(total.count(), 4);
    assert_eq!(total.min(), 0.5);
    assert_eq!(total.max(), 4.0);
    // Per-span rows carry only their own observations.
    let mine_id = journal.span("mine").unwrap().id;
    let per_span = journal.span_histograms(mine_id);
    assert_eq!(per_span.len(), 1);
    assert_eq!(per_span[0].name, "mine_call_seconds");
    assert_eq!(per_span[0].histogram.count(), 3);
    assert_eq!(per_span[0].histogram.max(), 2.0);
}

#[test]
fn journal_v2_jsonl_includes_histo_lines() {
    let rec = Recorder::new();
    let span = rec.root_scope().span("mine");
    span.scope().observe(Histo::MineCallSeconds, 1.25);
    span.scope().observe(Histo::WindowTokens, 800.0);
    span.finish();

    let journal = rec.snapshot();
    let text = journal.to_jsonl();
    // Meta + 1 span + (2 per-span + 2 run-wide) histo lines + totals.
    assert_eq!(text.lines().count(), 2 + 1 + 4);
    assert_eq!(text.lines().filter(|l| l.starts_with(r#"{"Histo""#)).count(), 4);
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed, journal);
}

#[test]
fn lossy_reader_tolerates_truncated_final_line() {
    let rec = Recorder::new();
    let span = rec.root_scope().span("mine");
    span.scope().observe(Histo::MineCallSeconds, 1.0);
    span.scope().add(Counter::PromptsIssued, 3);
    span.finish();
    let text = rec.snapshot().to_jsonl();

    // Chop the journal mid-way through its last line, as a crashed
    // writer would.
    let cut = text.trim_end().len() - 10;
    let truncated = &text[..cut];
    assert!(RunJournal::from_jsonl(truncated).is_err());
    let lossy = RunJournal::from_jsonl_lossy(truncated).unwrap();
    assert_eq!(lossy.spans.len(), 1);
    assert_eq!(lossy.histogram("mine_call_seconds").unwrap().count(), 1);
}

#[test]
fn unknown_record_variants_are_skipped() {
    let rec = Recorder::new();
    rec.root_scope().span("mine").finish();
    let mut text = rec.snapshot().to_jsonl();
    // A future journal version may interleave record kinds this
    // reader has never heard of; both readers skip them.
    text.push_str("{\"Annotation\": {\"note\": \"from the future\"}}\n");
    let strict = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(strict.spans.len(), 1);
    assert_eq!(RunJournal::from_jsonl_lossy(&text).unwrap(), strict);
}

/// A plan record with two operators, absorbed in the given order.
fn plan_fixture(scope: &str, order: &[(&str, &str, u64)]) -> PlanRecord {
    let mut plan = PlanRecord::new(scope);
    let ops = order
        .iter()
        .map(|(path, op, hits)| PlanOpRecord {
            path: path.to_string(),
            op: op.to_string(),
            detail: "(n:Person)".into(),
            calls: 1,
            rows_in: *hits,
            rows: hits / 2,
            db_nodes: *hits,
            db_props: 2 * hits,
            self_us: 30,
            sim_us: 10,
            ..PlanOpRecord::default()
        })
        .collect();
    plan.absorb(ops, 5, 250, 100);
    plan
}

/// A recorded run whose `evaluate` span carries two plan records.
fn journal_with_plans() -> RunJournal {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let eval = root.scope().span("evaluate");
    // Deliberately unsorted op paths and reverse-ordered scopes: the
    // serialised form must not depend on either.
    eval.scope().record(plan_fixture(
        "rule-1",
        &[("Root/Scan", "NodeByLabelScan", 20), ("Root", "ProduceResults", 0)],
    ));
    eval.scope().record(plan_fixture(
        "rule-0",
        &[("Root", "ProduceResults", 0), ("Root/Scan", "NodeByLabelScan", 10)],
    ));
    eval.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn journal_v3_plan_lines_round_trip_deterministically() {
    let journal = journal_with_plans();
    let text = journal.to_jsonl();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let plan_lines: Vec<&str> = text.lines().filter(|l| l.starts_with(r#"{"Plan""#)).collect();
    assert_eq!(plan_lines.len(), 2);
    // Plan lines come scope-sorted, operators path-sorted within.
    assert!(plan_lines[0].contains("rule-0"));
    assert!(plan_lines[1].contains("rule-1"));
    let root_pos = plan_lines[0].find(r#""path":"Root""#).unwrap();
    let scan_pos = plan_lines[0].find(r#""path":"Root/Scan""#).unwrap();
    assert!(root_pos < scan_pos, "operators must serialise name-sorted");

    // Round trip: parse → re-serialise is byte-identical, and two
    // separately produced journals serialise to the same bytes
    // (modulo timing fields, which to_jsonl of the *parsed* journal
    // preserves exactly).
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed.plans.len(), 2);
    assert_eq!(parsed.plan("rule-0").unwrap().db_hits(), 10 + 20);
    assert_eq!(parsed.to_jsonl(), text);
}

/// A recorded run with lineage for two rules (one corrected) and one
/// window-boundary breakage, origins deliberately recorded unsorted.
fn journal_with_lineage() -> RunJournal {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let encode = root.scope().span("encode");
    encode.scope().record(BoundaryRecord {
        span: None,
        node: "n7".into(),
        first_window: 1,
        last_window: 2,
    });
    encode.finish();
    let eval = root.scope().span("evaluate");
    let origin =
        |i: u64| OriginRef { id: format!("window-{i}"), start_token: i * 800, token_len: 1000 };
    // Reverse index order and unsorted origins: the serialised form
    // must not depend on either.
    eval.scope().record(LineageRecord {
        index: 1,
        rule: "rule-1".into(),
        nl: "every Squad has a coach".into(),
        strategy: "sliding-window".into(),
        origins: vec![origin(2)],
        frequency: 1,
        translation_attempts: 2,
        error_class: "syntax_error".into(),
        final_class: "correct".into(),
        corrected: true,
        support: None,
        coverage_pct: None,
        confidence_pct: None,
        ..LineageRecord::default()
    });
    eval.scope().record(LineageRecord {
        index: 0,
        rule: "rule-0".into(),
        nl: "every Person has a name".into(),
        strategy: "sliding-window".into(),
        origins: vec![origin(1), origin(0), origin(1)],
        frequency: 3,
        translation_attempts: 1,
        error_class: "correct".into(),
        final_class: "correct".into(),
        corrected: false,
        support: Some(42),
        coverage_pct: Some(100.0),
        confidence_pct: Some(97.5),
        ..LineageRecord::default()
    });
    eval.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn journal_v4_lineage_lines_round_trip_deterministically() {
    let journal = journal_with_lineage();
    let text = journal.to_jsonl();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let lineage_lines: Vec<&str> =
        text.lines().filter(|l| l.starts_with(r#"{"Lineage""#)).collect();
    assert_eq!(lineage_lines.len(), 2);
    // Lineage lines come index-sorted, origins (start, id)-sorted and
    // deduped within.
    assert!(lineage_lines[0].contains("rule-0"));
    assert!(lineage_lines[1].contains("rule-1"));
    let w0 = lineage_lines[0].find("window-0").unwrap();
    let w1 = lineage_lines[0].find("window-1").unwrap();
    assert!(w0 < w1, "origins must serialise start-sorted");
    assert_eq!(lineage_lines[0].matches("window-1").count(), 1, "duplicate origins dedup");
    assert_eq!(text.lines().filter(|l| l.starts_with(r#"{"Boundary""#)).count(), 1);
    // Lineage sits between the plan/histo block and the totals line.
    let boundary_pos = text.find(r#"{"Boundary""#).unwrap();
    let totals_pos = text.find(r#"{"Totals""#).unwrap();
    assert!(boundary_pos < totals_pos);

    // Round trip: parse → re-serialise is byte-identical.
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed.lineages.len(), 2);
    assert!(parsed.has_lineage());
    assert_eq!(parsed.lineage("rule-0").unwrap().frequency, 3);
    assert_eq!(parsed.boundaries.len(), 1);
    assert_eq!(parsed.to_jsonl(), text);
    // The summary surfaces the lineage digest.
    assert!(parsed.summary().contains("2 rules attributed, 1 window-boundary breakages"));
}

#[test]
fn lossy_reader_tolerates_truncated_lineage_tail() {
    let text = journal_with_lineage().to_jsonl();
    // Chop the journal mid-way through its last Lineage line, as a
    // crashed writer would — everything after (Boundary, Totals) is
    // gone too.
    let last_lineage = text.rfind(r#"{"Lineage""#).unwrap();
    let line_end = text[last_lineage..].find('\n').unwrap() + last_lineage;
    let truncated = &text[..line_end - 10];
    assert!(RunJournal::from_jsonl(truncated).is_err());
    let lossy = RunJournal::from_jsonl_lossy(truncated).unwrap();
    assert_eq!(lossy.spans.len(), 3);
    assert_eq!(lossy.lineages.len(), 1, "only the intact Lineage line survives");
    assert_eq!(lossy.lineages[0].rule, "rule-0");
}

/// A recorded run whose `encode` span carries footprint `Mem` records
/// for two components, recorded in reverse name order.
fn journal_with_mem() -> RunJournal {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let encode = root.scope().span("encode");
    // Reverse component order: the serialised form must not depend on
    // recording order.
    encode.scope().record(MemRecord::footprint_of(
        "vecstore",
        vec![FootprintRow { name: "embeddings".into(), count: 3, bytes: 3072 }],
    ));
    encode.scope().record(MemRecord::footprint_of(
        "graph",
        vec![
            FootprintRow { name: "nodes".into(), count: 10, bytes: 640 },
            FootprintRow { name: "edges".into(), count: 4, bytes: 320 },
        ],
    ));
    encode.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn journal_v6_mem_lines_round_trip_deterministically() {
    let journal = journal_with_mem();
    assert!(journal.has_mem());
    let text = journal.to_jsonl();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let mem_lines: Vec<&str> = text.lines().filter(|l| l.starts_with(r#"{"Mem""#)).collect();
    assert_eq!(mem_lines.len(), 2);
    // Mem lines come (span, kind, component)-sorted regardless of
    // recording order.
    assert!(mem_lines[0].contains("graph"));
    assert!(mem_lines[1].contains("vecstore"));
    // Mem sits before the totals line.
    let mem_pos = text.find(r#"{"Mem""#).unwrap();
    let totals_pos = text.find(r#"{"Totals""#).unwrap();
    assert!(mem_pos < totals_pos);

    // Round trip: parse → re-serialise is byte-identical.
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed.mems.len(), 2);
    assert!(parsed.has_mem());
    assert_eq!(parsed.to_jsonl(), text);
    // The summary surfaces the memory digest.
    assert!(parsed.summary().contains("2 mem records"), "{}", parsed.summary());
    assert!(parsed.summary().contains("footprint 4032 bytes"), "{}", parsed.summary());
}

#[test]
fn lossy_reader_tolerates_truncated_mem_tail() {
    let text = journal_with_mem().to_jsonl();
    // Chop the journal mid-way through its last Mem line, as a
    // crashed writer would — the Totals line after it is gone too.
    let last_mem = text.rfind(r#"{"Mem""#).unwrap();
    let line_end = text[last_mem..].find('\n').unwrap() + last_mem;
    let truncated = &text[..line_end - 10];
    assert!(RunJournal::from_jsonl(truncated).is_err());
    let lossy = RunJournal::from_jsonl_lossy(truncated).unwrap();
    assert_eq!(lossy.spans.len(), 2);
    assert_eq!(lossy.mems.len(), 1, "only the intact Mem line survives");
    assert_eq!(lossy.mems[0].component, "graph");
}

/// A recorded run with v7 start offsets: the worker at the sim
/// origin, post-mine stages offset by the mine wall-clock.
fn journal_with_timeline() -> RunJournal {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    let worker = mine.scope().span_at("worker-0", 0.0);
    worker.scope().add_sim_seconds(6.0);
    worker.finish();
    mine.scope().add_sim_seconds(6.0);
    mine.finish();
    let translate = root.scope().span_at("translate", 6.0);
    translate.scope().add_sim_seconds(2.0);
    translate.finish();
    let evaluate = root.scope().span_at("evaluate", 8.0);
    evaluate.scope().add_sim_seconds(3.0);
    evaluate.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn journal_v7_span_lines_carry_start_offsets() {
    let journal = journal_with_timeline();
    assert!(journal.has_timeline());
    let text = journal.to_jsonl();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    assert!(text
        .lines()
        .any(|l| l.starts_with(r#"{"Span""#) && l.contains(r#""sim_start_seconds":"#)));
    // Round trip: parse → re-serialise is byte-identical, offsets
    // included.
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed, journal);
    assert!(parsed.has_timeline());
    assert_eq!(parsed.to_jsonl(), text);
}

#[test]
fn lossy_reader_tolerates_truncated_timeline_tail() {
    let text = journal_with_timeline().to_jsonl();
    // Chop the journal mid-way through its last Span line (the
    // `evaluate` stage), as a crashed writer would — every record
    // after it is gone too.
    let last_span = text.rfind(r#"{"Span""#).unwrap();
    let line_end = text[last_span..].find('\n').unwrap() + last_span;
    let truncated = &text[..line_end - 10];
    assert!(RunJournal::from_jsonl(truncated).is_err());
    let lossy = RunJournal::from_jsonl_lossy(truncated).unwrap();
    assert_eq!(lossy.spans.len(), 4, "only intact Span lines survive");
    assert!(lossy.has_timeline(), "offsets on intact lines survive the cut");
}

#[test]
fn slow_query_policy_flags_records_and_counts() {
    let rec = Recorder::new();
    rec.set_slow_query_policy(SlowQueryPolicy { max_db_hits: Some(40), ..Default::default() });
    let root = rec.root_scope().span("pipeline");
    let eval = root.scope().span("evaluate");
    eval.scope().record(plan_fixture("rule-cheap", &[("Root", "ProduceResults", 5)]));
    eval.scope().record(plan_fixture("rule-dear", &[("Root/Scan", "NodeByLabelScan", 50)]));
    eval.finish();
    root.finish();

    assert_eq!(rec.total(Counter::CypherSlowQueries), 1);
    assert_eq!(rec.slow_queries().len(), 1);
    assert_eq!(rec.slow_queries()[0].scope, "rule-dear");
    let journal = rec.snapshot();
    assert!(!journal.plan("rule-cheap").unwrap().slow);
    assert!(journal.plan("rule-dear").unwrap().slow);
    // The plan is attached to the evaluate span, and the summary
    // surfaces the offender.
    let eval_id = journal.span("evaluate").unwrap().id;
    assert_eq!(journal.plan("rule-dear").unwrap().span, Some(eval_id));
    let summary = journal.summary();
    assert!(summary.contains("SLOW rule-dear"), "{summary}");
    assert!(summary.contains("1 slow"), "{summary}");
    // Stage attribution rolls both records up to `evaluate`.
    assert_eq!(journal.stage_db_hits(), vec![("evaluate".to_string(), 15 + 150)]);
}

#[test]
fn jsonl_totals_are_sorted_by_name() {
    let rec = Recorder::new();
    let span = rec.root_scope().span("mine");
    // Bump counters in non-alphabetical order.
    span.scope().add(Counter::RulesMined, 2);
    span.scope().add(Counter::PromptsIssued, 5);
    span.scope().gauge(Gauge::RagCoverage, 0.5);
    span.finish();
    let text = rec.snapshot().to_jsonl();
    let totals_line = text.lines().find(|l| l.starts_with(r#"{"Totals""#)).unwrap();
    let prompts = totals_line.find("prompts_issued").unwrap();
    let rules = totals_line.find("rules_mined").unwrap();
    assert!(prompts < rules, "totals must be name-sorted for deterministic diffs");

    let summary = rec.snapshot().summary();
    let prompts = summary.find("prompts_issued").unwrap();
    let rules = summary.find("rules_mined").unwrap();
    assert!(prompts < rules);
}

#[test]
fn disabled_recorder_is_a_no_op() {
    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());
    let span = rec.root_scope().span("pipeline");
    span.scope().add(Counter::RulesMined, 3);
    span.scope().gauge(Gauge::RagCoverage, 1.0);
    span.scope().add_sim_seconds(5.0);
    span.scope().record(PlanRecord::new("rule-0"));
    span.scope().record(LineageRecord::default());
    span.scope().record(BoundaryRecord::default());
    span.finish();
    assert_eq!(rec.total(Counter::RulesMined), 0);
    let journal = rec.snapshot();
    assert!(journal.spans.is_empty());
    assert!(journal.totals.is_empty());
    assert!(!Scope::disabled().span("x").scope().is_enabled());
}

#[test]
fn unfinished_spans_close_at_snapshot() {
    let rec = Recorder::new();
    let _root = rec.root_scope().span("pipeline");
    let journal = rec.snapshot();
    assert_eq!(journal.spans.len(), 1);
    assert!(journal.spans[0].real_ms >= 0.0);
}

#[test]
fn summary_mentions_spans_and_counters() {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    root.scope().add(Counter::PromptsIssued, 12);
    root.finish();
    let text = rec.snapshot().summary();
    assert!(text.contains("pipeline"));
    assert!(text.contains("prompts_issued"));
    assert!(text.contains("12"));
}

/// A journal carrying v8 `Event` records, as an `--events` stream
/// file would: a recorded run's journal with the bus events of that
/// run stitched in (the pipeline's own `--trace` journal never
/// carries them — they stream to their own file).
fn journal_with_events() -> RunJournal {
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    root.scope().add(Counter::PromptsIssued, 3);
    root.finish();
    let mut journal = rec.snapshot();
    let event = |seq: u64, kind: &str, name: &str, value: f64| TelemetryEvent {
        seq,
        kind: kind.to_owned(),
        span: Some(0),
        name: name.to_owned(),
        detail: String::new(),
        value,
    };
    journal.events = vec![
        event(0, TelemetryEvent::SPAN_OPEN, "pipeline", 0.0),
        event(1, TelemetryEvent::COUNTER, "prompts_issued", 3.0),
        event(2, TelemetryEvent::SPAN_CLOSE, "pipeline", 0.01),
    ];
    journal
}

#[test]
fn journal_v8_event_lines_round_trip_deterministically() {
    let journal = journal_with_events();
    assert!(journal.has_events());
    let text = journal.to_jsonl();
    assert!(text.lines().next().unwrap().contains(r#""version":8"#));
    let event_lines: Vec<&str> = text.lines().filter(|l| l.starts_with(r#"{"Event""#)).collect();
    assert_eq!(event_lines.len(), 3);
    // Event lines come seq-sorted, after any Mem lines and before the
    // totals trailer.
    assert!(event_lines[0].contains("span_open"));
    assert!(event_lines[2].contains("span_close"));
    let event_pos = text.find(r#"{"Event""#).unwrap();
    let totals_pos = text.find(r#"{"Totals""#).unwrap();
    assert!(event_pos < totals_pos);

    // Round trip: parse → re-serialise is byte-identical.
    let parsed = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(parsed.events.len(), 3);
    assert!(parsed.has_events());
    assert_eq!(parsed.to_jsonl(), text);
    // The summary surfaces the stream.
    assert!(parsed.summary().contains("telemetry events: 3 streamed"), "{}", parsed.summary());
}

#[test]
fn lossy_reader_tolerates_truncated_event_tail() {
    let text = journal_with_events().to_jsonl();
    // Chop the journal mid-way through its last Event line, as a
    // crashed stream writer would — the Totals line after it is gone
    // too.
    let last_event = text.rfind(r#"{"Event""#).unwrap();
    let line_end = text[last_event..].find('\n').unwrap() + last_event;
    let truncated = &text[..line_end - 10];
    assert!(RunJournal::from_jsonl(truncated).is_err());
    let lossy = RunJournal::from_jsonl_lossy(truncated).unwrap();
    assert_eq!(lossy.events.len(), 2, "only intact Event lines survive");
    assert_eq!(lossy.corrupt_lines, 1);
    assert_eq!(lossy.events[1].kind, "counter");
}

#[test]
fn lossy_reader_skips_unknown_kinds_between_mem_and_totals() {
    // Future record kinds may land exactly where Event lines live —
    // between the Mem block and the Totals trailer. Both readers must
    // skip them and keep everything around them.
    let text = journal_with_mem().to_jsonl();
    let totals_pos = text.find(r#"{"Totals""#).unwrap();
    let interleaved = format!(
        "{}{}\n{}\n{}",
        &text[..totals_pos],
        r#"{"Annotation":{"note":"future kind"}}"#,
        r#"{"Watermark":{"seq":99}}"#,
        &text[totals_pos..]
    );
    let strict = RunJournal::from_jsonl(&interleaved).expect("unknown kinds are not errors");
    assert_eq!(strict.unknown_lines, 2);
    assert_eq!(strict.mems.len(), 2, "Mem lines before the insertions survive");
    // Everything around the insertions parses exactly as it would
    // without them.
    let clean = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(strict.spans, clean.spans);
    assert_eq!(strict.totals, clean.totals, "the Totals trailer after them survives");
    let lossy = RunJournal::from_jsonl_lossy(&interleaved).unwrap();
    assert_eq!(lossy, strict);
}

/// A chaos recording: the identity line plus one fault, retry,
/// degraded unit and checkpoint, and one histogram.
fn journal_with_chaos() -> RunJournal {
    let rec = Recorder::new();
    rec.root_scope().record(ChaosRecord {
        fault_seed: 7,
        fault_rate: 0.2,
        ..ChaosRecord::default()
    });
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    let scope = mine.scope();
    scope.observe(Histo::MineCallSeconds, 1.5);
    scope.record(FaultRecord {
        stage: "mine".into(),
        kind: "timeout".into(),
        ..Default::default()
    });
    scope.record(RetryRecord { stage: "mine".into(), attempts: 2, ..Default::default() });
    scope.record(DegradedRecord {
        stage: "mine".into(),
        unit: "context-0".into(),
        ..Default::default()
    });
    scope.record(CheckpointRecord {
        stage: "mine".into(),
        payload: "{}".into(),
        ..Default::default()
    });
    mine.finish();
    root.finish();
    rec.snapshot()
}

#[test]
fn readers_skip_unknown_record_kinds_and_span_fields() {
    // Forward compatibility is one rule: a line keyed by a record kind
    // this reader does not know is skipped and counted, and an unknown
    // field inside a known record is ignored. Emulate a future kind by
    // renaming each known key in turn; the journal must parse exactly
    // as if those lines were absent.
    let fixtures = [
        journal_with_plans(),
        journal_with_lineage(),
        journal_with_chaos(),
        journal_with_mem(),
        journal_with_timeline(),
        journal_with_events(),
    ];
    let mut covered = BTreeSet::new();
    for journal in &fixtures {
        let text = journal.to_jsonl();
        let kinds: BTreeSet<&str> =
            text.lines().map(|l| l[2..].split('"').next().unwrap()).collect();
        for key in &kinds {
            let prefix = format!(r#"{{"{key}""#);
            let renamed = text.replace(&prefix, &format!(r#"{{"{key}V99""#));
            let without: String = text
                .lines()
                .filter(|l| !l.starts_with(&prefix))
                .map(|l| format!("{l}\n"))
                .collect();
            let skipped = text.lines().filter(|l| l.starts_with(&prefix)).count() as u64;
            for parse in [RunJournal::from_jsonl, RunJournal::from_jsonl_lossy] {
                let parsed = parse(&renamed).unwrap_or_else(|e| panic!("{key}: {e}"));
                let expected = RunJournal { unknown_lines: skipped, ..parse(&without).unwrap() };
                assert_eq!(parsed, expected, "{key} lines are skipped and counted");
            }
        }
        covered.extend(kinds.iter().map(|k| k.to_string()));
        // An unknown field inside every Span line is ignored.
        let widened = text.replace(r#"{"Span":{"#, r#"{"Span":{"added_in_v99":[1,2],"#);
        for parse in [RunJournal::from_jsonl, RunJournal::from_jsonl_lossy] {
            assert_eq!(parse(&widened).unwrap(), parse(&text).unwrap());
        }
    }
    let every_kind = [
        "Boundary",
        "Chaos",
        "Checkpoint",
        "Degraded",
        "Event",
        "Fault",
        "Histo",
        "Lineage",
        "Mem",
        "Meta",
        "Plan",
        "Retry",
        "Span",
        "Totals",
    ];
    assert_eq!(covered, every_kind.iter().map(|k| k.to_string()).collect(), "every kind");
}

#[test]
fn malformed_records_are_damaged_lines() {
    // Shapes the analytics cannot survive: a histogram whose min
    // exceeds its max (percentiles clamp into [min, max]), and a span
    // whose parent is not an earlier span or whose id repeats (span
    // paths and the span tree would loop).
    let rec = Recorder::new();
    let root = rec.root_scope().span("pipeline");
    let mine = root.scope().span("mine");
    mine.scope().observe(Histo::MineCallSeconds, 1.0);
    mine.scope().observe(Histo::MineCallSeconds, 4.0);
    mine.finish();
    root.finish();
    let text = rec.snapshot().to_jsonl();
    let histo = text.lines().position(|l| l.starts_with(r#"{"Histo""#)).unwrap();
    let root = text.lines().position(|l| l.contains(r#""parent":null"#)).unwrap();
    let child = text.lines().position(|l| l.contains(r#""parent":0"#)).unwrap();
    let cases = [
        ("min above max", histo, (r#""min":1.0,"max":4.0"#, r#""min":5.0,"max":4.0"#)),
        ("parent is itself", child, (r#""parent":0"#, r#""parent":1"#)),
        ("parent comes later", root, (r#""parent":null"#, r#""parent":1"#)),
        ("id declared twice", child, (r#""id":1"#, r#""id":0"#)),
    ];
    for (what, line, (from, to)) in cases {
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| if i == line { l.replacen(from, to, 1) } else { l.to_owned() })
            .collect();
        let tampered = lines.join("\n");
        assert_ne!(tampered.trim_end(), text.trim_end(), "{what}: the edit applies");
        for parse in [RunJournal::from_jsonl, RunJournal::from_jsonl_lossy] {
            let err = parse(&tampered).expect_err(what);
            assert!(err.starts_with(&format!("journal line {}:", line + 1)), "{what}: {err}");
        }
    }
}
