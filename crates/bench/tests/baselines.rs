//! The baseline gate: the one diff rule, the committed-file format,
//! and each row builder against real pipeline journals.

use std::collections::BTreeMap;

use grm_bench::{
    chaos_rows, events_rows, lineage_rows, mem_rows, optimizer_rows, plan_rows, serve_rows,
    timeline_rows, trace_rows, Digest, Gate,
};
use grm_core::{ContextStrategy, MiningPipeline, PipelineConfig, RunOptions, RunStatus};
use grm_cypher::BatchStats;
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::{Recorder, RunJournal};
use grm_resil::ChaosConfig;
use grm_serve::ServeStats;

fn committed(rows: &[(&str, f64)]) -> BTreeMap<String, f64> {
    rows.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

#[test]
fn diff_applies_each_gate_and_the_key_rules() {
    // (what, gate, committed, now, passes)
    let cases = [
        ("exact, equal", Gate::Exact, 7.0, 7.0, true),
        ("exact, one more", Gate::Exact, 7.0, 8.0, false),
        ("exact, one less", Gate::Exact, 7.0, 6.0, false),
        ("at most, inside", Gate::AtMost(0.05), 100.0, 105.0, true),
        ("at most, lower", Gate::AtMost(0.05), 100.0, 50.0, true),
        ("at most, outside", Gate::AtMost(0.05), 100.0, 105.1, false),
        ("at most, zero base stays zero", Gate::AtMost(0.05), 0.0, 0.0, true),
        ("at most, zero base grows", Gate::AtMost(0.05), 0.0, 0.001, false),
        ("at least, inside", Gate::AtLeast(0.05), 2.0, 1.9, true),
        ("at least, higher", Gate::AtLeast(0.05), 2.0, 3.0, true),
        ("at least, outside", Gate::AtLeast(0.05), 2.0, 1.89, false),
        ("at least, zero base", Gate::AtLeast(0.05), 0.0, 0.0, true),
        ("exact, zero base", Gate::Exact, 0.0, 1.0, false),
    ];
    for (what, gate, base, now, passes) in cases {
        let mut d = Digest::default();
        d.row("x", now, gate);
        let failures = d.diff(&committed(&[("x", base)]));
        assert_eq!(failures.is_empty(), passes, "{what}: {failures:?}");
        if !passes {
            assert!(failures[0].contains("`x`"), "{what}: names the key: {failures:?}");
        }
    }

    let mut d = Digest::default();
    d.exact("kept", 1.0);
    d.exact("added", 2.0);
    let failures = d.diff(&committed(&[("kept", 1.0), ("dropped", 3.0)]));
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert!(failures.iter().any(|f| f.contains("`dropped` vanished")), "{failures:?}");
    assert!(failures.iter().any(|f| f.contains("`added` is new")), "{failures:?}");
}

#[test]
fn committed_files_round_trip_and_reject_malformed_input() {
    let mut d = Digest::new(42, 0.2);
    d.exact("count", 13.0);
    d.row("seconds", 24.94149707602339, Gate::AtMost(0.05));
    d.row("tiny", 1e-7, Gate::Exact);
    let json = d.to_json();
    assert!(json.contains("\"count\": 13,"), "{json}");
    assert!(json.contains("\"journal_version\": "), "{json}");
    let dir = std::env::temp_dir().join(format!("grm-bench-digest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_x.json");
    std::fs::write(&path, &json).unwrap();
    assert_eq!(d.check_file(&path).unwrap(), Vec::<String>::new());
    assert_eq!(serde_json::from_str::<BTreeMap<String, f64>>(&json).unwrap(), d.values());

    for (what, text) in [
        ("not JSON", "journal_version = 8"),
        ("a string value", r#"{"journal_version": "8"}"#),
        ("a nested object", r#"{"stages": {"mine": 1.0}}"#),
        ("truncated", "{\n  \"count\": 13,\n"),
    ] {
        std::fs::write(&path, text).unwrap();
        let err = d.check_file(&path).expect_err(what);
        assert!(err.contains("BENCH_x.json"), "{what}: {err}");
    }
    let missing = dir.join("BENCH_missing.json");
    assert!(d.check_file(&missing).unwrap_err().contains("BENCH_missing.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn config(strategy: ContextStrategy) -> (grm_pgraph::PropertyGraph, PipelineConfig) {
    let data = generate(DatasetId::Wwc2019, &GenConfig { seed: 5, scale: 0.05, clean: false });
    let mut cfg = PipelineConfig::new(ModelKind::Llama3, strategy, PromptStyle::ZeroShot);
    cfg.seed = 11;
    (data.graph, cfg)
}

fn chaos_journal() -> RunJournal {
    let (graph, cfg) = config(ContextStrategy::default_sliding_window());
    let chaos = ChaosConfig { fault_rate: 0.3, ..ChaosConfig::default() };
    let opts = RunOptions { chaos, ..RunOptions::default() };
    let recorder = Recorder::deterministic();
    let status = MiningPipeline::new(cfg).run_with(&graph, &recorder, &opts);
    assert!(matches!(status, RunStatus::Complete(_)));
    recorder.snapshot()
}

/// Rows `build` derives from `populated` must not pass against the
/// rows it derives from an empty journal: every builder's rows vanish
/// or change when the records feeding them are missing.
fn empty_fails(what: &str, populated: &RunJournal, build: fn(&mut Digest, &RunJournal)) {
    let mut base = Digest::new(42, 0.2);
    build(&mut base, populated);
    let mut same = Digest::new(42, 0.2);
    build(&mut same, populated);
    assert_eq!(same.diff(&base.values()), Vec::<String>::new(), "{what}: passes itself");
    let mut empty = Digest::new(42, 0.2);
    build(&mut empty, &RunJournal::default());
    assert!(!empty.diff(&base.values()).is_empty(), "{what}: an empty journal must fail");
}

#[test]
fn every_builder_fails_an_empty_journal() {
    let (graph, cfg) = config(ContextStrategy::default_rag());
    let recorder = Recorder::new();
    MiningPipeline::new(cfg).run_traced(&graph, &recorder);
    let traced = recorder.snapshot();
    empty_fails("trace", &traced, trace_rows);
    empty_fails("plans", &traced, plan_rows);
    empty_fails("lineage", &traced, lineage_rows);
    empty_fails("mem", &traced, mem_rows);
    empty_fails("chaos", &chaos_journal(), chaos_rows);

    let (graph, cfg) = config(ContextStrategy::default_sliding_window());
    let recorder = Recorder::deterministic();
    let opts = RunOptions { workers: 4, ..RunOptions::default() };
    MiningPipeline::new(cfg).run_with(&graph, &recorder, &opts);
    empty_fails("timeline", &recorder.snapshot(), timeline_rows);

    // The builders over counts fail on empty counts the same way.
    let counts: BTreeMap<String, u64> =
        [("span_open".to_owned(), 7), ("fault".to_owned(), 2)].into();
    let mut base = Digest::new(42, 0.2);
    events_rows(&mut base, &counts);
    let mut empty = Digest::new(42, 0.2);
    events_rows(&mut empty, &BTreeMap::new());
    assert!(!empty.diff(&base.values()).is_empty(), "events");

    let stats =
        ServeStats { submitted: 31, accepted: 15, breaker_trips: 1, ..ServeStats::default() };
    let mut base = Digest::new(42, 0.2);
    serve_rows(&mut base, &stats, 28);
    let mut empty = Digest::new(42, 0.2);
    serve_rows(&mut empty, &ServeStats::default(), 0);
    assert!(!empty.diff(&base.values()).is_empty(), "serve");

    let ab = BatchStats { queries: 156, memo_hits: 82, ..BatchStats::default() };
    let mut base = Digest::new(42, 0.2);
    optimizer_rows(&mut base, 116_940, 72_140, &ab);
    let mut empty = Digest::new(42, 0.2);
    optimizer_rows(&mut empty, 0, 0, &BatchStats::default());
    assert!(!empty.diff(&base.values()).is_empty(), "optimizer");
}

#[test]
fn tampered_chaos_journal_fails_the_chaos_rows() {
    let journal = chaos_journal();
    let mut base = Digest::new(42, 0.2);
    chaos_rows(&mut base, &journal);
    let committed = base.values();
    assert!(committed["faults_injected"] > 0.0, "the plan injected faults");

    let mut tampered = journal.clone();
    tampered.faults.pop();
    let mut now = Digest::new(42, 0.2);
    chaos_rows(&mut now, &tampered);
    let failures = now.diff(&committed);
    assert!(failures.iter().any(|f| f.contains("`faults_injected`")), "{failures:?}");
}
