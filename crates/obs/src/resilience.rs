//! Resilience records — the journal-v5 payload that makes failure
//! observable, recoverable, and deterministically reproducible.
//!
//! `grm-obs` stays dependency-free, so these are plain mirrors of the
//! resilience layer's own types: `grm-resil` plans the faults, the
//! pipeline emits one [`FaultRecord`] per injected transient error,
//! one [`RetryRecord`] per unit that needed more than one attempt,
//! one [`DegradedRecord`] per unit the pipeline gave up on, and one
//! [`CheckpointRecord`] per completed LLM unit so `grm mine --resume`
//! can replay finished work from a (possibly truncated) journal.

/// One `Chaos` journal line: the chaos run's identity — everything a
/// resume needs to reconstruct the exact same run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosRecord {
    /// Pipeline run seed (drives `SimLlm` and budget draws).
    pub run_seed: u64,
    /// Fault-stream seed, independent of the run seed.
    pub fault_seed: u64,
    /// Per-attempt fault probability in `[0, 1]`.
    pub fault_rate: f64,
    /// Retries after the first attempt before a unit is abandoned.
    pub max_retries: u32,
    /// Consecutive abandonments that trip a stage breaker.
    pub breaker_threshold: u32,
    /// Model name, e.g. `Llama3-70B`.
    pub model: String,
    /// Context strategy name, e.g. `Sliding Window Attention`.
    pub strategy: String,
    /// Prompting mode name, e.g. `Zero-shot`.
    pub prompting: String,
    /// Node count of the mined graph — resume sanity check.
    pub graph_nodes: u64,
    /// Edge count of the mined graph — resume sanity check.
    pub graph_edges: u64,
}

/// One `Fault` journal line: a single injected transient error on one
/// attempt of one unit.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultRecord {
    /// Owning span id; `None` when recorded outside any span.
    pub span: Option<u64>,
    /// Stage name: `mine`, `translate`, or `evaluate`.
    pub stage: String,
    /// Unit key: context index (mine) or rule index (translate,
    /// evaluate).
    pub unit: u64,
    /// Zero-based attempt the fault hit.
    pub attempt: u64,
    /// Fault kind: `timeout`, `rate_limit`, `garbled`, or
    /// `query_transient`.
    pub kind: String,
    /// Simulated seconds lost to the fault itself.
    pub cost_seconds: f64,
    /// Backoff charged before the next attempt (0 when none follows).
    pub backoff_seconds: f64,
}

/// One `Retry` journal line: the terminal retry verdict for a unit
/// that faulted at least once.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryRecord {
    /// Owning span id; `None` when recorded outside any span.
    pub span: Option<u64>,
    /// Stage name: `mine`, `translate`, or `evaluate`.
    pub stage: String,
    /// Unit key within the stage.
    pub unit: u64,
    /// Attempts made, including the successful one if any.
    pub attempts: u64,
    /// True when a retry eventually succeeded; false when the unit
    /// was abandoned after exhausting its retries.
    pub recovered: bool,
}

/// One `Degraded` journal line: a unit the pipeline gave up on and
/// worked around — a skipped window, a dropped rule, or an unscored
/// evaluation. Partial results beat a dead run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DegradedRecord {
    /// Owning span id; `None` when recorded outside any span.
    pub span: Option<u64>,
    /// Stage name: `mine`, `translate`, or `evaluate`.
    pub stage: String,
    /// Human-stable unit label: `context-<i>` or `rule-<i>`.
    pub unit: String,
    /// Why the unit degraded: `retries_exhausted` or `breaker_open`.
    pub reason: String,
}

/// One `Checkpoint` journal line: the full serialized response of a
/// completed LLM unit, written so `--resume` can replay it without
/// re-running the model.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CheckpointRecord {
    /// Owning span id; `None` when recorded outside any span.
    pub span: Option<u64>,
    /// Stage name: `mine` or `translate` (evaluation is cheap enough
    /// to re-run).
    pub stage: String,
    /// Unit key within the stage.
    pub unit: u64,
    /// JSON-serialized stage response (`MiningResponse` or
    /// `TranslationResponse`), opaque to `grm-obs`.
    pub payload: String,
}

impl CheckpointRecord {
    /// The checkpoint of completed unit `unit` of `stage`, carrying
    /// `response` serialized to JSON.
    pub fn of(stage: &str, unit: u64, response: &impl serde::Serialize) -> CheckpointRecord {
        let payload = serde_json::to_string(response).unwrap_or_default();
        CheckpointRecord { span: None, stage: stage.to_owned(), unit, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_serde() {
        crate::assert_roundtrip(&ChaosRecord {
            run_seed: 42,
            fault_seed: 7,
            fault_rate: 0.2,
            max_retries: 3,
            breaker_threshold: 4,
            model: "Llama3-70B".into(),
            strategy: "Sliding Window Attention".into(),
            prompting: "Zero-shot".into(),
            graph_nodes: 1200,
            graph_edges: 5400,
        });
        crate::assert_roundtrip(&FaultRecord {
            span: Some(3),
            stage: "mine".into(),
            unit: 5,
            attempt: 1,
            kind: "timeout".into(),
            cost_seconds: 20.0,
            backoff_seconds: 1.1,
        });
        crate::assert_roundtrip(&RetryRecord {
            span: Some(3),
            stage: "mine".into(),
            unit: 5,
            attempts: 3,
            recovered: true,
        });
        crate::assert_roundtrip(&DegradedRecord {
            span: Some(4),
            stage: "translate".into(),
            unit: "rule-2".into(),
            reason: "retries_exhausted".into(),
        });
        crate::assert_roundtrip(&CheckpointRecord {
            span: Some(3),
            stage: "mine".into(),
            unit: 0,
            payload: "{\"rules\":[]}".into(),
        });
    }
}
