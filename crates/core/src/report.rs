//! Pipeline output types: per-rule outcomes and the run report that
//! backs every table of the paper.

use grm_llm::ModelKind;
use grm_llm::PromptStyle;
use grm_metrics::{AggregateMetrics, ClassTally, QueryClass, RuleMetrics};
use grm_rules::ConsistencyRule;

/// Everything the pipeline learned about one mined rule.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RuleOutcome {
    /// The rule (as mined — possibly hallucinated).
    pub rule: ConsistencyRule,
    /// Its natural-language statement.
    pub nl: String,
    /// The Cypher the model generated (step 2), possibly corrupted.
    pub generated_cypher: String,
    /// The query after the §4.4 correction policy.
    pub corrected_cypher: String,
    /// Classification of the generated query.
    pub original_class: QueryClass,
    /// Classification after correction.
    pub final_class: QueryClass,
    /// True when the §4.4 corrector changed the query text.
    pub corrected: bool,
    /// Translation attempts: the initial translation plus one per
    /// repair the corrector applied.
    pub translation_attempts: usize,
    /// Support/coverage/confidence of the corrected query; `None`
    /// when it remained unexecutable.
    pub metrics: Option<RuleMetrics>,
    /// How many prompts produced this rule (merge frequency).
    pub frequency: usize,
    /// Generator-level hallucination flag (ground truth for tests).
    pub hallucinated: bool,
    /// Evidence-grounded rationale for the rule (§5 transparency
    /// extension; see `grm_llm::explain`).
    pub explanation: String,
}

/// The outcome of one pipeline run — one cell of Tables 2–6.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MiningReport {
    pub model: ModelKind,
    pub strategy_name: &'static str,
    pub prompting: PromptStyle,
    /// Final merged rule set with all per-rule data.
    pub rules: Vec<RuleOutcome>,
    /// Rule-mining prompts issued (windows, or 1 for RAG).
    pub prompts: usize,
    /// Windows produced by the chunker (0 for RAG).
    pub windows: usize,
    /// Encoder lines split across every window (§4.5's counts).
    pub broken_patterns: usize,
    /// Fraction of graph elements visible to the model (RAG only).
    pub rag_coverage: Option<f64>,
    /// Simulated seconds spent mining rules (Table 5).
    pub mining_seconds: f64,
    /// Simulated seconds spent translating rules to Cypher.
    pub translation_seconds: f64,
    /// Aggregated metrics over scored rules (Tables 2–4).
    pub aggregate: AggregateMetrics,
    /// Cypher correctness tally (Table 6 + §4.4 breakdown).
    pub correctness: ClassTally,
    /// Per-stage timing breakdown (one row per top-level span).
    pub stage_timings: Vec<grm_obs::StageTiming>,
    /// What the fault plan did to the run; `None` outside chaos mode.
    pub resilience: Option<ResilienceSummary>,
}

/// What a chaos run lost and recovered — the run-level rollup of the
/// journal's `Fault`/`Retry`/`Degraded` records.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ResilienceSummary {
    /// Seed of the fault stream.
    pub fault_seed: u64,
    /// Per-attempt fault probability.
    pub fault_rate: f64,
    /// Transient errors injected across all stages.
    pub faults_injected: u64,
    /// LLM units that recovered after at least one retry.
    pub llm_calls_retried: u64,
    /// LLM units abandoned after exhausting retries.
    pub llm_calls_abandoned: u64,
    /// Mine contexts skipped (abandoned or breaker-open).
    pub windows_degraded: u64,
    /// Selected rules dropped because translation failed.
    pub rules_degraded: u64,
    /// Scoreable rules left unscored because evaluation failed.
    pub queries_degraded: u64,
    /// Circuit-breaker trips across all stages.
    pub breaker_trips: u64,
    /// Mine units replayed from a resumed journal's checkpoints.
    pub resumed_mine_units: u64,
    /// Translate units replayed from a resumed journal's checkpoints.
    pub resumed_translate_units: u64,
}

impl MiningReport {
    /// Number of rules in the final set (`#rules` column).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Rules whose corrected query could be scored.
    pub fn scored_rules(&self) -> impl Iterator<Item = &RuleOutcome> {
        self.rules.iter().filter(|r| r.metrics.is_some())
    }

    /// Serializes the report to pretty JSON (for `grm mine --json`).
    pub fn to_json_pretty(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}
