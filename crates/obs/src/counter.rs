//! Typed counter and gauge names.
//!
//! A closed enum instead of free-form strings so instrumentation
//! sites can't typo a name and journals stay greppable across
//! versions. The journal serialises the stable `name()` strings.

/// Monotonic counters the pipeline records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Nodes rendered by the graph-to-text encoder.
    NodesEncoded,
    /// Edges rendered by the graph-to-text encoder.
    EdgesEncoded,
    /// Tokens in the encoder output (approximate subword tokens).
    TokensEmitted,
    /// Sliding windows produced by the chunker.
    WindowsProduced,
    /// Encoder lines split across a window boundary (§4.5).
    BrokenPatterns,
    /// Chunks embedded into the vector store.
    ChunksIngested,
    /// Chunks returned by a RAG retrieval.
    ChunksRetrieved,
    /// Rule-mining prompts sent to the model.
    PromptsIssued,
    /// Prompt tokens across all model calls.
    PromptTokens,
    /// Completion tokens across all model calls.
    CompletionTokens,
    /// Rules returned by the model, before merging.
    RulesMined,
    /// Unique rules surviving the merge/dedup step.
    RulesDeduped,
    /// Rules translated to Cypher.
    RulesTranslated,
    /// Translated rules classified as already correct (§4.4). The
    /// five `rules_*` class counters partition `rules_translated`.
    RulesCorrect,
    /// Translated rules with a syntax error (§4.4).
    RulesSyntaxError,
    /// Translated rules referencing a hallucinated property (§4.4).
    RulesHallucinatedProperty,
    /// Translated rules with a wrong edge direction (§4.4).
    RulesWrongDirection,
    /// Translated rules with another semantic defect.
    RulesOtherSemantic,
    /// Cypher queries executed by the evaluation engine.
    CypherQueriesExecuted,
    /// Cypher queries executed with operator-level profiling on.
    CypherQueriesProfiled,
    /// Cypher queries answered from the scoring session's result memo
    /// without executing (zero db-hits).
    CypherQueriesMemoized,
    /// No longer recorded: the query-plan cache it counted is gone.
    /// Kept only because the benchmark under `perfbench/` still names
    /// it; reads 0.
    PlanCacheHits,
    /// No longer recorded, like [`Counter::PlanCacheHits`]; reads 0.
    PlanCacheMisses,
    /// `WHERE` equality conjuncts the optimizer pushed into pattern
    /// property maps.
    OptimizerPredicatesPushed,
    /// Node patterns the optimizer re-anchored on their most
    /// selective label.
    OptimizerLabelsReordered,
    /// `MATCH` clauses whose patterns the optimizer re-sequenced
    /// cheapest-anchor-first.
    OptimizerPatternsReordered,
    /// Paths the optimizer pre-reversed towards their cheaper end.
    OptimizerPathsReversed,
    /// Profiled queries flagged by the slow-query policy.
    CypherSlowQueries,
    /// Result rows produced by those queries.
    CypherRowsMatched,
    /// Support/coverage/confidence evaluations performed.
    SupportEvaluations,
    /// Transient faults injected by the chaos plan.
    FaultsInjected,
    /// LLM-call units that needed at least one retry and recovered.
    LlmCallsRetried,
    /// LLM-call units abandoned after exhausting their retries.
    LlmCallsAbandoned,
    /// Mining contexts skipped entirely (abandoned or breaker-open).
    WindowsDegraded,
    /// Selected rules dropped because translation degraded.
    RulesDegraded,
    /// Rule evaluations skipped because the query degraded.
    QueriesDegraded,
    /// Times a stage circuit breaker tripped open.
    BreakerTrips,
    /// Telemetry events refused by a saturated bus sink. Stamped into
    /// `Totals` at snapshot time (never via `Scope::add`, which would
    /// emit events about dropping events) and only when non-zero, so
    /// loss is always journaled yet lossless runs stay byte-identical
    /// to bus-off runs.
    TelemetryEventsDropped,
}

impl Counter {
    /// Stable journal name (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::NodesEncoded => "nodes_encoded",
            Counter::EdgesEncoded => "edges_encoded",
            Counter::TokensEmitted => "tokens_emitted",
            Counter::WindowsProduced => "windows_produced",
            Counter::BrokenPatterns => "broken_patterns",
            Counter::ChunksIngested => "chunks_ingested",
            Counter::ChunksRetrieved => "chunks_retrieved",
            Counter::PromptsIssued => "prompts_issued",
            Counter::PromptTokens => "prompt_tokens",
            Counter::CompletionTokens => "completion_tokens",
            Counter::RulesMined => "rules_mined",
            Counter::RulesDeduped => "rules_deduped",
            Counter::RulesTranslated => "rules_translated",
            Counter::RulesCorrect => "rules_correct",
            Counter::RulesSyntaxError => "rules_syntax_error",
            Counter::RulesHallucinatedProperty => "rules_hallucinated_property",
            Counter::RulesWrongDirection => "rules_wrong_direction",
            Counter::RulesOtherSemantic => "rules_other_semantic",
            Counter::CypherQueriesExecuted => "cypher_queries_executed",
            Counter::CypherQueriesProfiled => "cypher_queries_profiled",
            Counter::CypherQueriesMemoized => "cypher_queries_memoized",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::OptimizerPredicatesPushed => "optimizer_predicates_pushed",
            Counter::OptimizerLabelsReordered => "optimizer_labels_reordered",
            Counter::OptimizerPatternsReordered => "optimizer_patterns_reordered",
            Counter::OptimizerPathsReversed => "optimizer_paths_reversed",
            Counter::CypherSlowQueries => "cypher_slow_queries",
            Counter::CypherRowsMatched => "cypher_rows_matched",
            Counter::SupportEvaluations => "support_evaluations",
            Counter::FaultsInjected => "faults_injected",
            Counter::LlmCallsRetried => "llm_calls_retried",
            Counter::LlmCallsAbandoned => "llm_calls_abandoned",
            Counter::WindowsDegraded => "windows_degraded",
            Counter::RulesDegraded => "rules_degraded",
            Counter::QueriesDegraded => "queries_degraded",
            Counter::BreakerTrips => "breaker_trips",
            Counter::TelemetryEventsDropped => "telemetry_events_dropped",
        }
    }
}

/// Point-in-time measurements (last write wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Fraction of graph elements visible after RAG retrieval.
    RagCoverage,
}

impl Gauge {
    /// Stable journal name (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RagCoverage => "rag_coverage",
        }
    }
}

/// Distribution-valued metrics, recorded into fixed-bucket
/// [`crate::Histogram`]s — the per-event quantities whose percentiles
/// the run-over-run comparison (`grm trace diff`/`check`) gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Histo {
    /// Simulated seconds of one rule-mining model call (per prompt).
    MineCallSeconds,
    /// Simulated seconds of one NL→Cypher translation call (per rule).
    TranslateCallSeconds,
    /// Token count of one sliding window.
    WindowTokens,
    /// Similarity score of one retrieved RAG chunk.
    RetrievalScore,
    /// Result rows of one executed Cypher query.
    CypherRowsPerQuery,
    /// Total db-hits (node + edge + property accesses) of one
    /// profiled Cypher query.
    CypherDbHitsPerQuery,
    /// Cross-prompt frequency of one merged rule (§3.1.1 stability).
    RuleFrequency,
}

impl Histo {
    /// Stable journal name (`snake_case`).
    pub fn name(self) -> &'static str {
        match self {
            Histo::MineCallSeconds => "mine_call_seconds",
            Histo::TranslateCallSeconds => "translate_call_seconds",
            Histo::WindowTokens => "window_tokens",
            Histo::RetrievalScore => "retrieval_score",
            Histo::CypherRowsPerQuery => "cypher_rows_per_query",
            Histo::CypherDbHitsPerQuery => "cypher_db_hits_per_query",
            Histo::RuleFrequency => "rule_frequency",
        }
    }
}
