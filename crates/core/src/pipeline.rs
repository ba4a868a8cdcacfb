//! The mining pipeline — Figure 1 of the paper, end to end.
//!
//! 1. encode the property graph to text (`grm-textenc`);
//! 2. split into context(s): sliding windows (one prompt each) or a
//!    single RAG retrieval (`grm-vecstore`);
//! 3. prompt the model for rules, zero- or few-shot (`grm-llm`);
//! 4. merge per-prompt rules into one deduplicated set (§3.1.1);
//! 5. ask the model to translate each rule to Cypher;
//! 6. classify and correct the queries per the §4.4 policy
//!    (`grm-metrics`);
//! 7. execute the corrected queries to score support / coverage /
//!    confidence (§4.2).

use std::collections::HashMap;

use grm_cypher::BatchSession;
use grm_llm::{CallSkip, ResilientCall, ResilientLlm, SimLlm, Timed, TranslationResponse};
use grm_metrics::{
    aggregate, class_counter, classify, correct, evaluate_resilient, record_batch_stats,
    ClassTally, QueryClass, RuleMetrics,
};
use grm_obs::{
    ChaosRecord, CheckpointRecord, Counter, FootprintRow, Histo, LineageRecord, MemRecord,
    OriginRef, Recorder, Scope,
};
use grm_pgraph::{GraphSchema, PropertyGraph};
use grm_resil::{FaultPlan, Stage};
use grm_rules::RuleQueries;
use grm_textenc::{chunk_traced, encode_summary_traced, encode_traced, token_count};
use grm_vecstore::Retriever;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ContextStrategy, PipelineConfig};
use crate::parallel::MineJob;
use crate::report::{MiningReport, ResilienceSummary, RuleOutcome};
use crate::resilience::{ResumeState, RunOptions, RunStatus};

/// The retrieval query of the RAG pathway — deliberately generic, as
/// in the paper ("the prompt itself indicates only the request to
/// generate consistency rules", §4.5).
pub const RAG_QUERY: &str = "Generate consistency rules for this property graph";

/// The rule-mining pipeline.
#[derive(Debug, Clone)]
pub struct MiningPipeline {
    pub config: PipelineConfig,
}

/// The model context(s) of one run, with the lineage origins of each.
struct Contexts {
    /// One prompt context per window, or the single RAG/summary text.
    texts: Vec<String>,
    /// Per context, the stable origin ids (`window-<i>`, `chunk-<i>`,
    /// `summary`) and token spans lineage records trace rules back to.
    origins: Vec<Vec<OriginRef>>,
    windows: usize,
    broken_patterns: usize,
    rag_coverage: Option<f64>,
}

impl MiningPipeline {
    /// Builds a pipeline for `config`.
    pub fn new(config: PipelineConfig) -> Self {
        MiningPipeline { config }
    }

    /// Builds the model context(s) per the configured strategy, with
    /// encode/chunk/retrieve spans recorded on `scope`.
    fn build_contexts(&self, graph: &PropertyGraph, scope: &Scope) -> Contexts {
        let cfg = &self.config;
        // Deterministic graph footprint for the journal's memory
        // records — capacity arithmetic only, so byte-identity
        // comparisons are unaffected. Guarded so untraced runs pay
        // nothing.
        if scope.is_enabled() {
            scope.record(MemRecord::footprint_of(
                "graph",
                graph
                    .footprint()
                    .entries
                    .iter()
                    .map(|e| FootprintRow {
                        name: e.name.to_owned(),
                        count: e.count,
                        bytes: e.bytes,
                    })
                    .collect(),
            ));
        }
        match &cfg.strategy {
            ContextStrategy::SlidingWindow(wc) => {
                let encoded = encode_traced(graph, cfg.encoder, scope);
                let ws = chunk_traced(&encoded, *wc, scope);
                let origins = ws
                    .windows
                    .iter()
                    .map(|w| {
                        vec![OriginRef {
                            id: format!("window-{}", w.index),
                            start_token: w.start_token as u64,
                            token_len: w.token_len as u64,
                        }]
                    })
                    .collect();
                Contexts {
                    windows: ws.len(),
                    broken_patterns: ws.broken_patterns,
                    texts: ws.windows.into_iter().map(|w| w.text).collect(),
                    origins,
                    rag_coverage: None,
                }
            }
            ContextStrategy::Rag(rc) => {
                let encoded = encode_traced(graph, cfg.encoder, scope);
                let retriever = Retriever::ingest_traced(&encoded, *rc, scope);
                if scope.is_enabled() {
                    let fp = retriever.footprint();
                    scope.record(MemRecord::footprint_of(
                        "vecstore",
                        vec![
                            FootprintRow {
                                name: "entries".to_owned(),
                                count: fp.chunks,
                                bytes: fp.entry_bytes,
                            },
                            FootprintRow {
                                name: "texts".to_owned(),
                                count: fp.chunks,
                                bytes: fp.text_bytes,
                            },
                            FootprintRow {
                                name: "embeddings".to_owned(),
                                count: fp.chunks,
                                bytes: fp.embedding_bytes,
                            },
                        ],
                    ));
                }
                let retrieval = retriever.retrieve_traced(RAG_QUERY, scope);
                let origins = retrieval
                    .chunk_ids
                    .iter()
                    .zip(&retrieval.chunk_spans)
                    .map(|(id, (start, len))| OriginRef {
                        id: format!("chunk-{id}"),
                        start_token: *start as u64,
                        token_len: *len as u64,
                    })
                    .collect();
                Contexts {
                    texts: vec![retrieval.context()],
                    origins: vec![origins],
                    windows: 0,
                    broken_patterns: 0,
                    rag_coverage: Some(retrieval.coverage()),
                }
            }
            ContextStrategy::Summary(sc) => {
                let text = encode_summary_traced(graph, *sc, scope);
                let origins = vec![vec![OriginRef {
                    id: "summary".to_owned(),
                    start_token: 0,
                    token_len: token_count(&text) as u64,
                }]];
                Contexts {
                    texts: vec![text],
                    origins,
                    windows: 0,
                    broken_patterns: 0,
                    rag_coverage: None,
                }
            }
        }
    }

    /// Per-prompt rule target: single-prompt strategies must elicit
    /// the whole rule set at once; a window prompt only needs a few
    /// rules per window because the union across windows builds the
    /// set.
    fn per_prompt_target(&self, budget: usize) -> Option<usize> {
        match self.config.strategy {
            ContextStrategy::Rag(_) | ContextStrategy::Summary(_) => Some(budget),
            ContextStrategy::SlidingWindow(_) => None,
        }
    }

    /// Runs the full pipeline against `graph`: serial and fault-free,
    /// recording through an internal [`Recorder`] so the report's
    /// stage-timing breakdown is populated.
    pub fn run(&self, graph: &PropertyGraph) -> MiningReport {
        self.run_traced(graph, &Recorder::new())
    }

    /// [`MiningPipeline::run`] recording spans and counters on
    /// `recorder`. Tracing never touches the model's RNG streams, so
    /// traced and untraced runs produce identical reports.
    pub fn run_traced(&self, graph: &PropertyGraph, recorder: &Recorder) -> MiningReport {
        self.run_with(graph, recorder, &RunOptions::default()).report().expect("no kill point")
    }

    /// The pipeline's one run path: one stage span per Figure-1 step
    /// under a root `pipeline` span, with every LLM call and rule
    /// evaluation issued through the fault plan of `opts.chaos`.
    ///
    /// `opts.workers > 1` distributes window prompts over a fleet of
    /// model replicas (see [`crate::parallel`]), each recording onto
    /// its own `worker-<id>` span; the reported `mining_seconds` is
    /// the fleet wall-clock (the slowest replica).
    ///
    /// A zero fault rate is an inert plan: no fault fires and no
    /// chaos record is written. Each replica then keeps one model
    /// stream — the serial model also translates, a fleet translates
    /// on a dedicated replica — and fleet rules stay in worker order.
    /// With `fault_rate > 0` transient errors are injected
    /// deterministically, retried with backoff, and degraded out of
    /// the run when retries exhaust or a stage breaker opens; every
    /// unit draws its own model seed, completed LLM units are
    /// checkpointed into the journal, `opts.resume` replays them
    /// without re-calling the model, and `opts.kill_after` stops a
    /// serial run mid-mine.
    pub fn run_with(
        &self,
        graph: &PropertyGraph,
        recorder: &Recorder,
        opts: &RunOptions,
    ) -> RunStatus {
        let cfg = &self.config;
        let chaos = opts.chaos.fault_rate > 0.0;
        let serial = opts.workers <= 1;
        let plan = FaultPlan::new(opts.chaos);
        let llm = ResilientLlm::new(cfg.model, cfg.seed);
        let empty = ResumeState::default();
        let resume = opts.resume.as_ref().filter(|_| chaos).unwrap_or(&empty);
        if chaos {
            recorder.root_scope().record(ChaosRecord {
                run_seed: cfg.seed,
                fault_seed: opts.chaos.fault_seed,
                fault_rate: opts.chaos.fault_rate,
                max_retries: opts.chaos.max_retries,
                breaker_threshold: opts.chaos.breaker_threshold,
                model: cfg.model.name().to_owned(),
                strategy: cfg.strategy.name().to_owned(),
                prompting: cfg.prompting.name().to_owned(),
                graph_nodes: graph.node_count() as u64,
                graph_edges: graph.edge_count() as u64,
            });
        }
        let mut model = (!chaos).then(|| {
            SimLlm::new(cfg.model, if serial { cfg.seed } else { cfg.seed ^ 0x7a41_5000 })
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
        let root = recorder.root_scope().span("pipeline");
        let root_scope = root.scope();

        // Steps 1–2: encode and build contexts.
        let contexts = self.build_contexts(graph, &root_scope);

        // Step 3: mine rules per context. The whole stage schedule is
        // a pure function of the chaos config, so the breaker state
        // cannot depend on worker scheduling.
        let budget = cfg.rule_budget.unwrap_or_else(|| self.derive_budget(&mut rng));
        let mine_span = root_scope.span("mine");
        let mine_scope = mine_span.scope();
        let schedule = plan.schedule(Stage::Mine, contexts.texts.len());
        if schedule.breaker_trips > 0 {
            mine_scope.add(Counter::BreakerTrips, schedule.breaker_trips);
        }
        let job = MineJob {
            contexts: &contexts.texts,
            style: cfg.prompting,
            target_rules: self.per_prompt_target(budget),
            llm,
            schedule: &schedule,
            checkpoints: &resume.mined,
            chaos,
        };
        let (mined, mining_seconds) = if serial {
            let kill_after = opts.kill_after.filter(|_| chaos);
            let lane = job.lane(0..contexts.texts.len(), model.as_mut(), &mine_scope, kill_after);
            if let Some(completed_units) = lane.killed {
                mine_span.finish();
                root.finish();
                return RunStatus::Killed { stage: Stage::Mine.name(), completed_units };
            }
            (lane.rules, lane.seconds)
        } else {
            let fleet = job.fleet(cfg.model, cfg.seed, opts.workers, &mine_scope);
            mine_scope.add_sim_seconds(fleet.wall_seconds);
            (fleet.rules, fleet.wall_seconds)
        };
        mine_span.finish();

        // Step 4: merge — dedup with frequency ranking (§3.1.1:
        // per-window rules "combined to create a comprehensive set").
        // Post-mine stages are stamped with their simulated start
        // offsets; merge is pure (no sim cost), so translate starts
        // at the same sim instant.
        let merge_span = root_scope.span_at("merge", mining_seconds);
        let merge_scope = merge_span.scope();
        let merged = merge_rules(mined);
        merge_scope.add(Counter::RulesDeduped, merged.len() as u64);
        let selected: Vec<MergedRule> = merged.into_iter().take(budget).collect();
        // The cross-prompt frequency distribution of the selected set
        // — how stable the surviving rules were across windows.
        for m in &selected {
            merge_scope.observe(Histo::RuleFrequency, m.frequency as f64);
        }
        merge_span.finish();

        let schema = GraphSchema::infer(graph);
        let schema_summary = schema.summary();

        // Step 5: translate each selected rule under its unit plan.
        // Unit keys are post-merge rule indices, which are stable for
        // a fixed run seed — the property resume relies on. A
        // degraded translation drops the rule.
        let translate_span = root_scope.span_at("translate", mining_seconds);
        let translate_scope = translate_span.scope();
        let t_sched = plan.schedule(Stage::Translate, selected.len());
        if t_sched.breaker_trips > 0 {
            translate_scope.add(Counter::BreakerTrips, t_sched.breaker_trips);
        }
        let mut translation_seconds = 0.0;
        let translations: Vec<Option<TranslationResponse>> = selected
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let replay = resume.translated.get(&(i as u64)).cloned();
                let call = llm.translate(
                    &t_sched.units[i],
                    &m.rule.rule,
                    &schema_summary,
                    replay,
                    model.as_mut(),
                    &translate_scope,
                );
                settle(call, Stage::Translate, i, chaos, &mut translation_seconds, &translate_scope)
            })
            .collect();
        translate_span.finish();

        // Steps 6–7: classify, correct, score. Untranslated rules are
        // dropped (their indices stay reserved, so `rule-<i>` labels
        // match across resumes); evaluation faults retry per unit
        // without a breaker — the query engine is local, not a shared
        // provider — and a degraded evaluation leaves the rule
        // unscored but keeps it in the set.
        let evaluate_span = root_scope.span_at("evaluate", mining_seconds + translation_seconds);
        let evaluate_scope = evaluate_span.scope();
        // One session per evaluate pass: it keys its memo on query
        // text alone, so a resumed or chaos run replaying the same
        // rule sequence journals byte-identical counters.
        let mut session = BatchSession::new(graph);
        let mut correctness = ClassTally::default();
        let mut outcomes = Vec::with_capacity(selected.len());
        for (i, (m, resp)) in selected.into_iter().zip(translations).enumerate() {
            let Some(resp) = resp else { continue };
            let unit = plan.unit(Stage::Evaluate, i as u64);
            outcomes.push(self.assess_rule(
                i,
                m,
                &resp,
                &schema,
                &contexts.origins,
                &evaluate_scope,
                &mut correctness,
                |queries, label| {
                    evaluate_resilient(
                        graph,
                        queries,
                        &evaluate_scope,
                        label,
                        &unit,
                        Some(&mut session),
                    )
                },
            ));
        }
        record_batch_stats(&evaluate_scope, &session.stats());
        evaluate_span.finish();
        root.finish();

        let scored: Vec<_> = outcomes.iter().filter_map(|o| o.metrics).collect();
        RunStatus::Complete(Box::new(MiningReport {
            model: cfg.model,
            strategy_name: cfg.strategy.name(),
            prompting: cfg.prompting,
            rules: outcomes,
            prompts: contexts.texts.len(),
            windows: contexts.windows,
            broken_patterns: contexts.broken_patterns,
            rag_coverage: contexts.rag_coverage,
            mining_seconds,
            translation_seconds,
            aggregate: aggregate(&scored),
            correctness,
            stage_timings: recorder.snapshot().stage_timings(),
            resilience: chaos.then(|| ResilienceSummary {
                fault_seed: opts.chaos.fault_seed,
                fault_rate: opts.chaos.fault_rate,
                faults_injected: recorder.total(Counter::FaultsInjected),
                llm_calls_retried: recorder.total(Counter::LlmCallsRetried),
                llm_calls_abandoned: recorder.total(Counter::LlmCallsAbandoned),
                windows_degraded: recorder.total(Counter::WindowsDegraded),
                rules_degraded: recorder.total(Counter::RulesDegraded),
                queries_degraded: recorder.total(Counter::QueriesDegraded),
                breaker_trips: recorder.total(Counter::BreakerTrips),
                resumed_mine_units: resume.mined.len() as u64,
                resumed_translate_units: resume.translated.len() as u64,
            }),
        }))
    }

    /// Steps 6–7 for one rule: classify the generated Cypher, tally
    /// and correct it, score it via `metrics_for`, and emit its
    /// lineage record.
    #[allow(clippy::too_many_arguments)]
    fn assess_rule(
        &self,
        i: usize,
        m: MergedRule,
        resp: &TranslationResponse,
        schema: &GraphSchema,
        origins: &[Vec<OriginRef>],
        evaluate_scope: &Scope,
        correctness: &mut ClassTally,
        metrics_for: impl FnOnce(&RuleQueries, &str) -> Option<RuleMetrics>,
    ) -> RuleOutcome {
        let cfg = &self.config;
        let generated = resp.translation.cypher.clone();
        let assessment = classify(&generated, schema);
        correctness.add(assessment.class);
        // One class counter per rule: the five `rules_*` counters
        // partition `rules_translated` exactly (Correct included).
        evaluate_scope.add(class_counter(assessment.class), 1);

        let fixed = correct(&generated, schema);
        let metrics = if matches!(
            fixed.final_class,
            QueryClass::Correct | QueryClass::HallucinatedProperty
        ) {
            let queries = RuleQueries {
                satisfied: fixed.corrected.clone(),
                body: resp.translation.reference.body.clone(),
                head_total: resp.translation.reference.head_total.clone(),
            };
            // Per-rule plan scopes: `grm trace plans` aggregates
            // profiles by this label.
            metrics_for(&queries, &format!("rule-{i}"))
        } else {
            None
        };
        // Lineage: the rule's full ancestry chain, from origin
        // context(s) through merge and translation to its scores.
        evaluate_scope.record(LineageRecord {
            span: None,
            index: i as u64,
            rule: format!("rule-{i}"),
            nl: m.rule.nl.clone(),
            strategy: cfg.strategy.name().to_owned(),
            origins: m
                .origins
                .iter()
                .flat_map(|ci| origins.get(*ci).cloned().unwrap_or_default())
                .collect(),
            frequency: m.frequency as u64,
            translation_attempts: 1 + fixed.repairs as u64,
            error_class: assessment.class.name().to_owned(),
            final_class: fixed.final_class.name().to_owned(),
            corrected: fixed.changed,
            support: metrics.map(|s| s.support),
            coverage_pct: metrics.map(|s| s.coverage_pct),
            confidence_pct: metrics.map(|s| s.confidence_pct),
        });
        RuleOutcome {
            explanation: grm_llm::explain_rule(&m.rule.rule, schema),
            nl: m.rule.nl.clone(),
            generated_cypher: generated,
            corrected_cypher: fixed.corrected,
            original_class: assessment.class,
            final_class: fixed.final_class,
            corrected: fixed.changed,
            translation_attempts: 1 + fixed.repairs,
            metrics,
            frequency: m.frequency,
            hallucinated: m.rule.hallucinated,
            rule: m.rule.rule,
        }
    }

    /// Derives a paper-plausible rule budget: sliding windows see the
    /// whole graph and support a larger final set than a single RAG
    /// prompt; few-shot focuses the model on fewer rules.
    fn derive_budget(&self, rng: &mut StdRng) -> usize {
        use grm_llm::PromptStyle::*;
        let (lo, hi) = match (&self.config.strategy, self.config.prompting) {
            (ContextStrategy::SlidingWindow(_), ZeroShot) => (8, 12),
            (ContextStrategy::SlidingWindow(_), FewShot) => (5, 9),
            (ContextStrategy::Rag(_), ZeroShot) => (6, 8),
            (ContextStrategy::Rag(_), FewShot) => (4, 6),
            // The summary prompt carries representative evidence for
            // the whole graph; it supports a window-sized rule set.
            (ContextStrategy::Summary(_), ZeroShot) => (8, 11),
            (ContextStrategy::Summary(_), FewShot) => (5, 8),
        };
        rng.gen_range(lo..=hi)
    }
}

/// A merged rule with its cross-prompt frequency and the context
/// indices that produced it (first-seen order, deduplicated).
#[derive(Debug, Clone)]
struct MergedRule {
    rule: grm_llm::GeneratedRule,
    frequency: usize,
    origins: Vec<usize>,
}

/// Settles one LLM call of `stage`: adds its simulated cost (call
/// plus faults) to `seconds` and checkpoints a completed unit when
/// `chaos` is on; [`ResilientLlm`] has already journaled the unit's
/// faults, retries and degradation. Returns the response of a
/// completed unit.
pub(crate) fn settle<T: Timed + serde::Serialize>(
    call: Result<ResilientCall<T>, CallSkip>,
    stage: Stage,
    key: usize,
    chaos: bool,
    seconds: &mut f64,
    scope: &Scope,
) -> Option<T> {
    match call {
        Ok(call) => {
            *seconds += call.response.seconds() + call.fault_seconds;
            if chaos {
                scope.record(CheckpointRecord {
                    span: None,
                    stage: stage.name().to_owned(),
                    unit: key as u64,
                    payload: serde_json::to_string(&call.response).unwrap_or_default(),
                });
            }
            Some(call.response)
        }
        Err(CallSkip::Abandoned { fault_seconds, .. }) => {
            *seconds += fault_seconds;
            None
        }
        Err(CallSkip::BreakerOpen) => None,
    }
}

/// Deduplicates mined rules, ranking by how many prompts produced
/// them (stability across windows ≈ reliability), then by evidence.
/// Merged rules live in the vector itself and the map only holds
/// indices into it, so first-seen order falls out for free — no
/// second keyed pass, nothing to panic on.
fn merge_rules(mined: Vec<grm_llm::GeneratedRule>) -> Vec<MergedRule> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut merged: Vec<MergedRule> = Vec::new();
    for rule in mined {
        let key = rule.rule.dedup_key();
        match index.get(&key) {
            Some(&at) => {
                let existing = &mut merged[at];
                existing.frequency += 1;
                if !existing.origins.contains(&rule.origin) {
                    existing.origins.push(rule.origin);
                }
                if rule.evidence > existing.rule.evidence {
                    existing.rule = rule;
                }
            }
            None => {
                index.insert(key, merged.len());
                let origins = vec![rule.origin];
                merged.push(MergedRule { rule, frequency: 1, origins });
            }
        }
    }
    // Stable sort: insertion (first-seen) order breaks ties, exactly
    // as the historical keyed rebuild did.
    merged.sort_by(|a, b| {
        b.frequency.cmp(&a.frequency).then(
            b.rule.evidence.partial_cmp(&a.rule.evidence).unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_datasets::{generate, DatasetId, GenConfig};
    use grm_llm::{ModelKind, PromptStyle};
    use grm_textenc::WindowConfig;
    use grm_vecstore::RagConfig;

    fn small_graph() -> PropertyGraph {
        generate(DatasetId::Twitter, &GenConfig { scale: 0.01, ..Default::default() }).graph
    }

    fn sw_config(model: ModelKind, prompting: PromptStyle) -> PipelineConfig {
        PipelineConfig {
            // Small windows so the tiny test graph still chunks.
            strategy: ContextStrategy::SlidingWindow(WindowConfig::new(2000, 200)),
            ..PipelineConfig::new(model, ContextStrategy::default_sliding_window(), prompting)
        }
    }

    #[test]
    fn sliding_window_run_produces_scored_rules() {
        let g = small_graph();
        let report =
            MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot)).run(&g);
        assert!(report.rule_count() > 0);
        assert!(report.windows > 1);
        assert!(report.prompts == report.windows);
        assert!(report.scored_rules().count() > 0);
        assert!(report.mining_seconds > 0.0);
    }

    #[test]
    fn rag_run_prompts_once() {
        let g = small_graph();
        let cfg = PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::Rag(RagConfig::default()),
            PromptStyle::ZeroShot,
        );
        let report = MiningPipeline::new(cfg).run(&g);
        assert_eq!(report.prompts, 1);
        assert_eq!(report.windows, 0);
        assert!(report.rag_coverage.unwrap() > 0.0);
        assert!(report.rag_coverage.unwrap() <= 1.0);
    }

    #[test]
    fn rag_is_much_faster_than_sliding_window() {
        let g = small_graph();
        let sw = MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot)).run(&g);
        let rag = MiningPipeline::new(PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::Rag(RagConfig::default()),
            PromptStyle::ZeroShot,
        ))
        .run(&g);
        assert!(
            sw.mining_seconds > 3.0 * rag.mining_seconds,
            "sw {} vs rag {}",
            sw.mining_seconds,
            rag.mining_seconds
        );
    }

    #[test]
    fn deterministic_runs() {
        let g = small_graph();
        let a = MiningPipeline::new(sw_config(ModelKind::Mixtral, PromptStyle::FewShot)).run(&g);
        let b = MiningPipeline::new(sw_config(ModelKind::Mixtral, PromptStyle::FewShot)).run(&g);
        assert_eq!(a.rule_count(), b.rule_count());
        assert_eq!(a.mining_seconds, b.mining_seconds);
        assert_eq!(a.aggregate.support, b.aggregate.support);
    }

    #[test]
    fn correctness_tally_covers_all_rules() {
        let g = small_graph();
        let report =
            MiningPipeline::new(sw_config(ModelKind::Mixtral, PromptStyle::ZeroShot)).run(&g);
        assert_eq!(report.correctness.total, report.rule_count());
    }

    #[test]
    fn rule_budget_caps_output() {
        let g = small_graph();
        let cfg = PipelineConfig {
            rule_budget: Some(3),
            ..sw_config(ModelKind::Llama3, PromptStyle::ZeroShot)
        };
        let report = MiningPipeline::new(cfg).run(&g);
        assert!(report.rule_count() <= 3);
    }

    fn chaos(rate: f64) -> RunOptions {
        RunOptions {
            chaos: grm_resil::ChaosConfig { fault_rate: rate, ..Default::default() },
            ..RunOptions::default()
        }
    }

    #[test]
    fn zero_fault_rate_is_byte_identical_to_plain_run() {
        let g = small_graph();
        let pipe = MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot));
        let plain = Recorder::deterministic();
        pipe.run_traced(&g, &plain);
        // A rate-0 plan is inert whatever its other parameters.
        let mut inert = chaos(0.0);
        inert.chaos.fault_seed = 99;
        inert.chaos.breaker_threshold = 1;
        let resilient = Recorder::deterministic();
        let status = pipe.run_with(&g, &resilient, &inert);
        assert!(matches!(status, RunStatus::Complete(_)));
        assert_eq!(plain.snapshot().to_jsonl(), resilient.snapshot().to_jsonl());
        // Deterministic mode keeps the v7 start offsets: they are
        // pure sim arithmetic, so byte-identity and the timeline
        // coexist in one journal.
        assert!(plain.snapshot().has_timeline());
    }

    #[test]
    fn chaos_run_is_deterministic_and_degrades_gracefully() {
        let g = small_graph();
        let pipe = MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot));
        let run =
            |rec: &Recorder| pipe.run_with(&g, rec, &chaos(0.35)).report().expect("completes");
        let rec_a = Recorder::deterministic();
        let a = run(&rec_a);
        let rec_b = Recorder::deterministic();
        let b = run(&rec_b);
        assert_eq!(rec_a.snapshot().to_jsonl(), rec_b.snapshot().to_jsonl());
        let resil = a.resilience.expect("chaos summary present");
        assert!(resil.faults_injected > 0, "rate 0.35 injects faults");
        assert_eq!(a.rule_count(), b.rule_count());
        // The run survived: faults degrade units, not the pipeline.
        assert!(a.rule_count() > 0);
        let journal = rec_a.snapshot();
        assert!(journal.chaos.is_some());
        assert!(!journal.checkpoints.is_empty());
    }

    #[test]
    fn killed_run_resumes_to_byte_identical_journal() {
        let g = small_graph();
        let pipe = MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot));
        // Uninterrupted reference run.
        let full = Recorder::deterministic();
        let full_report = pipe.run_with(&g, &full, &chaos(0.3)).report().expect("completes");

        // Killed after 2 mine units...
        let killed = Recorder::deterministic();
        let opts = RunOptions { kill_after: Some(2), ..chaos(0.3) };
        let status = pipe.run_with(&g, &killed, &opts);
        let RunStatus::Killed { stage, completed_units } = status else {
            panic!("expected a killed run");
        };
        assert_eq!(stage, "mine");
        assert_eq!(completed_units, 2);

        // ...then resumed from the partial journal.
        let partial = killed.snapshot();
        let (record, state) = ResumeState::from_journal(&partial).expect("resumable");
        assert_eq!(record.run_seed, 42);
        assert!(state.units() > 0, "killed run left checkpoints behind");
        let resumed_rec = Recorder::deterministic();
        let resumed = pipe
            .run_with(&g, &resumed_rec, &RunOptions { resume: Some(state), ..chaos(0.3) })
            .report()
            .expect("resumed run completes");
        assert_eq!(full.snapshot().to_jsonl(), resumed_rec.snapshot().to_jsonl());
        assert_eq!(full_report.rule_count(), resumed.rule_count());
        assert_eq!(full_report.aggregate.support, resumed.aggregate.support);
        // Replayed checkpoints contribute the same sim seconds as
        // live calls, so the resumed run's stage start offsets (and
        // therefore `grm trace timeline`) are identical too.
        assert!(resumed_rec.snapshot().has_timeline());
    }

    #[test]
    fn corrupt_checkpoint_payload_resumes_to_byte_identical_journal() {
        // Adversarial journal: flip bytes *inside* a Checkpoint
        // payload of a killed run (not just a truncated tail). Lossy
        // recovery must drop that unit — re-running it live — and the
        // resumed journal must still byte-compare with an
        // uninterrupted run's.
        let g = small_graph();
        let pipe = MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot));
        let full = Recorder::deterministic();
        pipe.run_with(&g, &full, &chaos(0.3)).report().expect("completes");

        let killed = Recorder::deterministic();
        let opts = RunOptions { kill_after: Some(2), ..chaos(0.3) };
        let RunStatus::Killed { .. } = pipe.run_with(&g, &killed, &opts) else {
            panic!("expected a killed run");
        };
        let mut partial = killed.snapshot();
        assert!(partial.checkpoints.len() >= 2, "kill-after-2 leaves at least two checkpoints");
        partial.checkpoints[0].payload = "{\"garbage\": tru".into();

        let (_, state) = ResumeState::from_journal(&partial).expect("lossy recovery never fails");
        assert_eq!(state.dropped.len(), 1, "{:?}", state.dropped);
        let replayable = state.units();
        assert_eq!(replayable, partial.checkpoints.len() - 1, "one unit dropped for re-run");
        let resumed_rec = Recorder::deterministic();
        pipe.run_with(&g, &resumed_rec, &RunOptions { resume: Some(state), ..chaos(0.3) })
            .report()
            .expect("resumed run completes despite the corrupt checkpoint");
        assert_eq!(full.snapshot().to_jsonl(), resumed_rec.snapshot().to_jsonl());
    }

    #[test]
    fn parallel_chaos_matches_serial_rule_set() {
        let g = small_graph();
        let pipe = MiningPipeline::new(sw_config(ModelKind::Mixtral, PromptStyle::ZeroShot));
        let serial = pipe.run_with(&g, &Recorder::new(), &chaos(0.3)).report().expect("serial");
        let fleet = pipe
            .run_with(&g, &Recorder::new(), &RunOptions { workers: 3, ..chaos(0.3) })
            .report()
            .expect("fleet");
        // Per-unit model seeds + context-order reassembly: the final
        // rule set is independent of the worker count.
        let keys = |r: &MiningReport| -> Vec<String> {
            r.rules.iter().map(|o| o.rule.dedup_key()).collect()
        };
        assert_eq!(keys(&serial), keys(&fleet));
        assert_eq!(serial.aggregate.support, fleet.aggregate.support);
    }

    #[test]
    fn merged_rules_are_unique() {
        let g = small_graph();
        let report =
            MiningPipeline::new(sw_config(ModelKind::Llama3, PromptStyle::ZeroShot)).run(&g);
        let mut keys: Vec<String> = report.rules.iter().map(|r| r.rule.dedup_key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }
}
