//! End-to-end tracing: a full pipeline run must emit one span per
//! Figure-1 stage, and the journal's counters must agree with the
//! `MiningReport` the same run returned.

use grm_core::{ContextStrategy, MiningPipeline, MiningReport, PipelineConfig, RunOptions};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::{Recorder, RunJournal};
use grm_pgraph::PropertyGraph;
use grm_textenc::WindowConfig;
use grm_vecstore::RagConfig;

fn small_graph() -> PropertyGraph {
    generate(DatasetId::Twitter, &GenConfig { scale: 0.01, ..Default::default() }).graph
}

fn sw_config() -> PipelineConfig {
    PipelineConfig {
        strategy: ContextStrategy::SlidingWindow(WindowConfig::new(2000, 200)),
        ..PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        )
    }
}

/// A fault-free run with `workers` mining replicas.
fn fleet(cfg: PipelineConfig, g: &PropertyGraph, workers: usize, rec: &Recorder) -> MiningReport {
    let opts = RunOptions { workers, ..RunOptions::default() };
    MiningPipeline::new(cfg).run_with(g, rec, &opts).report().expect("no kill point")
}

fn stage_names(journal: &RunJournal) -> Vec<String> {
    let root = journal.span("pipeline").expect("root span");
    journal.children(root).iter().map(|s| s.name.clone()).collect()
}

#[test]
fn sliding_window_run_emits_one_span_per_stage() {
    let g = small_graph();
    let rec = Recorder::new();
    let report = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();

    assert_eq!(
        stage_names(&journal),
        ["encode", "chunk", "mine", "merge", "translate", "evaluate"]
    );

    // Counters agree with the report.
    assert_eq!(journal.total("prompts_issued"), report.prompts as u64);
    assert_eq!(journal.total("windows_produced"), report.windows as u64);
    assert_eq!(journal.total("broken_patterns"), report.broken_patterns as u64);
    assert_eq!(journal.total("rules_translated"), report.rule_count() as u64);
    assert!(journal.total("rules_mined") >= journal.total("rules_deduped"));
    assert!(journal.total("rules_deduped") >= report.rule_count() as u64);
    assert_eq!(journal.total("nodes_encoded"), g.node_count() as u64);
    assert_eq!(journal.total("edges_encoded"), g.edge_count() as u64);
    assert!(journal.total("tokens_emitted") > 0);
    assert!(journal.total("support_evaluations") > 0);
    assert!(journal.total("cypher_queries_executed") >= journal.total("support_evaluations"));

    // Stage sim time agrees with the report's timing columns.
    let mine = journal.span("mine").unwrap();
    assert!((mine.sim_seconds - report.mining_seconds).abs() < 1e-9);
    let translate = journal.span("translate").unwrap();
    assert!((translate.sim_seconds - report.translation_seconds).abs() < 1e-9);

    // The report embeds the same breakdown.
    let stages: Vec<&str> = report.stage_timings.iter().map(|t| t.stage.as_str()).collect();
    assert_eq!(stages, ["encode", "chunk", "mine", "merge", "translate", "evaluate"]);
    let mine_row = report.stage_timings.iter().find(|t| t.stage == "mine").unwrap();
    assert!((mine_row.sim_seconds - report.mining_seconds).abs() < 1e-9);
}

#[test]
fn rag_run_emits_retrieval_spans_and_coverage_gauge() {
    let g = small_graph();
    let cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::Rag(RagConfig::default()),
        PromptStyle::ZeroShot,
    );
    let rec = Recorder::new();
    let report = MiningPipeline::new(cfg).run_traced(&g, &rec);
    let journal = rec.snapshot();

    assert_eq!(
        stage_names(&journal),
        ["encode", "rag.ingest", "rag.retrieve", "mine", "merge", "translate", "evaluate"]
    );
    assert!(journal.total("chunks_ingested") > 0);
    assert!(journal.total("chunks_retrieved") > 0);
    assert_eq!(journal.gauge("rag_coverage"), report.rag_coverage);
    assert_eq!(journal.total("prompts_issued"), 1);
}

#[test]
fn traced_runs_record_deterministic_graph_footprints() {
    let g = small_graph();
    let rec = Recorder::new();
    MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();

    assert!(journal.has_mem());
    let graph_fp =
        journal.mems.iter().find(|m| m.kind == "footprint" && m.component == "graph").unwrap();
    let by_name = |name: &str| graph_fp.footprint.iter().find(|r| r.name == name).unwrap();
    assert_eq!(by_name("nodes").count, g.node_count() as u64);
    assert_eq!(by_name("edges").count, g.edge_count() as u64);
    assert!(graph_fp.footprint_bytes() > 0);
    // The table matches the graph's own accounting exactly.
    let direct = g.footprint();
    assert_eq!(graph_fp.footprint_bytes(), direct.total_bytes());

    // A second identical run records the identical footprint —
    // capacity arithmetic, not allocator readings.
    let rec2 = Recorder::new();
    MiningPipeline::new(sw_config()).run_traced(&small_graph(), &rec2);
    let journal2 = rec2.snapshot();
    let graph_fp2 =
        journal2.mems.iter().find(|m| m.kind == "footprint" && m.component == "graph").unwrap();
    assert_eq!(graph_fp.footprint, graph_fp2.footprint);

    // The RAG path additionally records the vector store.
    let cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::Rag(RagConfig::default()),
        PromptStyle::ZeroShot,
    );
    let rec3 = Recorder::new();
    MiningPipeline::new(cfg).run_traced(&g, &rec3);
    let journal3 = rec3.snapshot();
    let vec_fp =
        journal3.mems.iter().find(|m| m.kind == "footprint" && m.component == "vecstore").unwrap();
    assert!(vec_fp.footprint.iter().any(|r| r.name == "embeddings" && r.bytes > 0));
}

#[test]
fn parallel_run_emits_worker_child_spans_that_sum_to_totals() {
    let g = small_graph();
    let workers = 4;
    let rec = Recorder::new();
    let report = fleet(sw_config(), &g, workers, &rec);
    let journal = rec.snapshot();

    let mine = journal.span("mine").expect("mine span");
    let children = journal.children(mine);
    assert_eq!(children.len(), workers);
    for (i, child) in children.iter().enumerate() {
        assert_eq!(child.name, format!("worker-{i}"));
    }

    // Per-worker counters sum to the run totals.
    let prompts: u64 = children.iter().map(|c| c.counter("prompts_issued")).sum();
    assert_eq!(prompts, journal.total("prompts_issued"));
    assert_eq!(prompts, report.prompts as u64);
    let mined: u64 = children.iter().map(|c| c.counter("rules_mined")).sum();
    assert_eq!(mined, journal.total("rules_mined"));

    // The mine span carries the fleet wall-clock; workers carry
    // per-replica busy time, so the slowest worker equals the stage.
    let slowest = children.iter().map(|c| c.sim_seconds).fold(0.0, f64::max);
    assert!((mine.sim_seconds - slowest).abs() < 1e-9);
    assert!((mine.sim_seconds - report.mining_seconds).abs() < 1e-9);
}

#[test]
fn run_populates_latency_and_cardinality_histograms() {
    let g = small_graph();
    let rec = Recorder::new();
    let report = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();

    // One mine-call latency observation per prompt, one translate-call
    // observation per surviving rule.
    let mine_calls = journal.histogram("mine_call_seconds").expect("mine_call_seconds");
    assert_eq!(mine_calls.count(), report.prompts as u64);
    assert!(mine_calls.p50() > 0.0);
    assert!(mine_calls.p99() >= mine_calls.p50());
    let translate = journal.histogram("translate_call_seconds").expect("translate_call_seconds");
    assert_eq!(translate.count(), report.rule_count() as u64);

    // One token-count observation per window, attributed to `chunk`.
    let tokens = journal.histogram("window_tokens").expect("window_tokens");
    assert_eq!(tokens.count(), report.windows as u64);
    let chunk_id = journal.span("chunk").unwrap().id;
    assert!(journal
        .span_histograms(chunk_id)
        .iter()
        .any(|h| h.name == "window_tokens" && h.histogram.count() == report.windows as u64));

    // Every evaluated Cypher query contributes a row-count sample, and
    // every selected rule a frequency sample.
    assert!(journal.histogram("cypher_rows_per_query").is_some());
    let freq = journal.histogram("rule_frequency").expect("rule_frequency");
    assert!(freq.count() > 0);
}

#[test]
fn rag_run_records_retrieval_score_distribution() {
    let g = small_graph();
    let cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::Rag(RagConfig::default()),
        PromptStyle::ZeroShot,
    );
    let rec = Recorder::new();
    let _ = MiningPipeline::new(cfg).run_traced(&g, &rec);
    let journal = rec.snapshot();
    let scores = journal.histogram("retrieval_score").expect("retrieval_score");
    assert_eq!(scores.count(), journal.total("chunks_retrieved"));
}

#[test]
fn traced_and_untraced_runs_are_identical() {
    let g = small_graph();
    let plain = MiningPipeline::new(sw_config()).run(&g);
    let rec = Recorder::new();
    let traced = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    assert_eq!(plain.rule_count(), traced.rule_count());
    assert_eq!(plain.mining_seconds, traced.mining_seconds);
    assert_eq!(plain.translation_seconds, traced.translation_seconds);
    assert_eq!(plain.aggregate.support, traced.aggregate.support);
    assert_eq!(plain.correctness.total, traced.correctness.total);
    // And the always-on internal recorder populates the breakdown.
    assert_eq!(plain.stage_timings.len(), traced.stage_timings.len());
}

#[test]
fn journal_round_trips_through_jsonl_after_a_real_run() {
    let g = small_graph();
    let rec = Recorder::new();
    let _ = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();
    let text = journal.to_jsonl();
    let parsed = RunJournal::from_jsonl(&text).expect("round trip");
    assert_eq!(parsed, journal);
    assert!(!parsed.summary().is_empty());
}

#[test]
fn traced_run_attaches_per_rule_query_plans() {
    let g = small_graph();
    let rec = Recorder::new();
    let report = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();

    // Every scored rule folded its executed metric-query profiles
    // into one plan record labelled `rule-{i}` under the evaluate
    // span. Queries answered by the scoring session's result memo
    // attach no profile (nothing ran), so a rule profiles 1–3
    // queries and the memoized counter accounts for the rest.
    let scored = report.rules.iter().filter(|o| o.metrics.is_some()).count();
    assert!(scored > 0, "seed config should score at least one rule");
    let rule_plans: Vec<_> =
        journal.plans.iter().filter(|p| p.scope.starts_with("rule-")).collect();
    assert!(!rule_plans.is_empty());
    assert!(rule_plans.len() <= scored);
    let evaluate_id = journal.span("evaluate").unwrap().id;
    for plan in &rule_plans {
        assert_eq!(plan.span, Some(evaluate_id));
        assert!(
            (1..=3).contains(&plan.queries),
            "scope {} ran {} queries",
            plan.scope,
            plan.queries
        );
        assert!(plan.db_hits() > 0, "scope {} profiled no db-hits", plan.scope);
        assert!(!plan.ops.is_empty());
        assert!(plan.ops.iter().all(|op| !op.path.is_empty()));
    }

    // The profiled-query counter and db-hit histogram agree with the
    // plans, and profiled + memoized covers all 3 queries per rule.
    let profiled: u64 = journal.plans.iter().map(|p| p.queries).sum();
    assert_eq!(journal.total("cypher_queries_profiled"), profiled);
    let memoized = journal.total("cypher_queries_memoized");
    assert!(memoized > 0, "shared head-total queries should memoize");
    assert_eq!(profiled + memoized, 3 * scored as u64);
    let hits = journal.histogram("cypher_db_hits_per_query").expect("cypher_db_hits_per_query");
    assert_eq!(hits.count(), profiled);
}

#[test]
fn traced_run_attaches_rule_lineage() {
    let g = small_graph();
    let rec = Recorder::new();
    let report = MiningPipeline::new(sw_config()).run_traced(&g, &rec);
    let journal = rec.snapshot();

    // One lineage record per rule, indexed in rule order, attached
    // under the evaluate span.
    assert!(journal.has_lineage());
    assert_eq!(journal.lineages.len(), report.rule_count());
    let evaluate_id = journal.span("evaluate").unwrap().id;
    for (i, (l, o)) in journal.lineages.iter().zip(&report.rules).enumerate() {
        assert_eq!(l.span, Some(evaluate_id));
        assert_eq!(l.index, i as u64);
        assert_eq!(l.rule, format!("rule-{i}"));
        assert_eq!(l.nl, o.nl);
        assert_eq!(l.strategy, report.strategy_name);
        assert_eq!(l.frequency, o.frequency as u64);
        assert_eq!(l.corrected, o.corrected);
        assert_eq!(l.translation_attempts, o.translation_attempts as u64);
        assert!(!l.origins.is_empty(), "rule-{i} has no origin windows");
        for origin in &l.origins {
            assert!(origin.id.starts_with("window-"), "{}", origin.id);
            assert!(origin.token_len > 0);
        }
        assert_eq!(l.support, o.metrics.map(|m| m.support));
        // A rule mined by k distinct windows carries k origins, and
        // was seen at least that often.
        assert!(l.frequency >= l.origins.len() as u64);
    }

    // Satellite: the five class counters partition rules_translated.
    let class_sum: u64 = [
        "rules_correct",
        "rules_syntax_error",
        "rules_hallucinated_property",
        "rules_wrong_direction",
        "rules_other_semantic",
    ]
    .iter()
    .map(|c| journal.total(c))
    .sum();
    assert_eq!(class_sum, journal.total("rules_translated"));
    assert_eq!(journal.total("rules_correct"), report.correctness.correct as u64);
}

#[test]
fn parallel_run_attaches_rule_lineage_with_window_origins() {
    let g = small_graph();
    let rec = Recorder::new();
    let report = fleet(sw_config(), &g, 4, &rec);
    let journal = rec.snapshot();
    assert_eq!(journal.lineages.len(), report.rule_count());
    for l in &journal.lineages {
        assert!(!l.origins.is_empty(), "{} has no origins", l.rule);
        assert!(l.origins.iter().all(|o| o.id.starts_with("window-")));
    }
}

#[test]
fn rag_run_lineage_uses_chunk_origins() {
    let g = small_graph();
    let cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::Rag(RagConfig::default()),
        PromptStyle::ZeroShot,
    );
    let rec = Recorder::new();
    let report = MiningPipeline::new(cfg).run_traced(&g, &rec);
    let journal = rec.snapshot();
    assert_eq!(journal.lineages.len(), report.rule_count());
    for l in &journal.lineages {
        assert!(!l.origins.is_empty(), "{} has no origins", l.rule);
        assert!(l.origins.iter().all(|o| o.id.starts_with("chunk-")), "{:?}", l.origins);
        // All rules come from the single RAG prompt.
        assert_eq!(l.frequency, 1);
    }
}

mod lineage_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The five error-class counters always partition
        /// `rules_translated`, whatever the seed.
        #[test]
        fn class_counters_partition_rules_translated(seed in 0u64..1000) {
            let g = small_graph();
            let cfg = PipelineConfig { seed, ..sw_config() };
            let rec = Recorder::new();
            let report = MiningPipeline::new(cfg).run_traced(&g, &rec);
            let journal = rec.snapshot();
            let class_sum: u64 = [
                "rules_correct",
                "rules_syntax_error",
                "rules_hallucinated_property",
                "rules_wrong_direction",
                "rules_other_semantic",
            ]
            .iter()
            .map(|c| journal.total(c))
            .sum();
            prop_assert_eq!(class_sum, journal.total("rules_translated"));
            prop_assert_eq!(class_sum, report.rule_count() as u64);
            // And every translated rule carries a lineage record.
            prop_assert_eq!(journal.lineages.len(), report.rule_count());
        }
    }
}
