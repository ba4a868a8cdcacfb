//! Run-level controls: worker count, chaos configuration, checkpoint
//! resume, and the deterministic mid-run kill used to test it.
//!
//! [`RunOptions`] is what `grm mine` hands the pipeline: a worker
//! count, a [`ChaosConfig`] (a zero fault rate is an inert plan that
//! injects nothing and journals nothing), an optional [`ResumeState`]
//! replayed from a previous run's journal, and an optional
//! deterministic kill point for exercising resume in tests and CI.
//!
//! Resume works because every completed LLM unit of a chaos run is
//! checkpointed into the journal with its full serialized response.
//! [`ResumeState::from_journal`] lifts those checkpoints back out of
//! a (possibly truncated) journal; the pipeline then replays them
//! through the same record-emitting code path, so a resumed run's
//! journal is byte-identical to an uninterrupted one. That includes
//! the v7 timeline fields: replayed units contribute the same
//! simulated seconds as live calls, so the `sim_start_seconds` the
//! pipeline stamps on post-mine stage spans — and therefore `grm
//! trace timeline` output — is identical across kill/resume.

use std::collections::HashMap;

use grm_llm::{MiningResponse, TranslationResponse};
use grm_obs::{ChaosRecord, RunJournal};
use grm_resil::ChaosConfig;

use crate::report::MiningReport;

/// How one pipeline run issues its work.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Model replicas mining in parallel; 1 (or 0) is the serial run.
    pub workers: usize,
    /// Fault plan parameters. `fault_rate > 0` makes a chaos run;
    /// at rate 0 the plan is inert and the run journals no chaos
    /// records.
    pub chaos: ChaosConfig,
    /// Checkpointed work from a previous chaos run to replay (chaos
    /// runs only).
    pub resume: Option<ResumeState>,
    /// Deterministic kill: stop after this many mine units (serial
    /// chaos runs only), returning [`RunStatus::Killed`]. Test/CI
    /// hook for the resume path.
    pub kill_after: Option<usize>,
}

impl Default for RunOptions {
    /// Serial, fault-free, nothing to resume.
    fn default() -> Self {
        RunOptions { workers: 1, chaos: ChaosConfig::default(), resume: None, kill_after: None }
    }
}

/// Completed work lifted from a previous chaos run's journal:
/// stage responses keyed by unit (context index for mining, selected
/// rule index for translation), replayed instead of re-calling the
/// model.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Checkpointed mining responses by context index.
    pub mined: HashMap<u64, MiningResponse>,
    /// Checkpointed translation responses by rule index.
    pub translated: HashMap<u64, TranslationResponse>,
    /// Human-readable notes about checkpoints dropped during lossy
    /// recovery (corrupt payloads, unknown stages). Each dropped
    /// unit is simply absent from the maps above, so the pipeline
    /// re-runs it — deterministically converging to the same journal
    /// an uninterrupted run would have written.
    pub dropped: Vec<String>,
}

impl ResumeState {
    /// Total units this state will replay.
    pub fn units(&self) -> usize {
        self.mined.len() + self.translated.len()
    }

    /// Extracts the chaos identity and every checkpoint from a
    /// journal — typically one cut short by a crash. The `Chaos`
    /// record is written right after `Meta`, so it survives any
    /// truncation that leaves the journal non-empty. Recovery is
    /// lossy: a checkpoint whose payload no longer parses (corrupt
    /// bytes *inside* a record, not just a torn tail) is dropped
    /// with a note in [`ResumeState::dropped`] rather than failing
    /// the whole resume — the pipeline simply re-runs that unit and
    /// still converges to a byte-identical journal.
    pub fn from_journal(journal: &RunJournal) -> Result<(ChaosRecord, ResumeState), String> {
        let chaos = journal.chaos.clone().ok_or_else(|| {
            "journal has no Chaos record — only chaos runs (--fault-rate > 0) checkpoint work \
             and can be resumed"
                .to_owned()
        })?;
        let mut state = ResumeState::default();
        for cp in &journal.checkpoints {
            match cp.stage.as_str() {
                "mine" => match serde_json::from_str::<MiningResponse>(&cp.payload) {
                    Ok(resp) => {
                        state.mined.insert(cp.unit, resp);
                    }
                    Err(e) => state
                        .dropped
                        .push(format!("corrupt mine checkpoint for unit {}: {e}", cp.unit)),
                },
                "translate" => match serde_json::from_str::<TranslationResponse>(&cp.payload) {
                    Ok(resp) => {
                        state.translated.insert(cp.unit, resp);
                    }
                    Err(e) => state
                        .dropped
                        .push(format!("corrupt translate checkpoint for unit {}: {e}", cp.unit)),
                },
                other => state
                    .dropped
                    .push(format!("unknown checkpoint stage {other:?} for unit {}", cp.unit)),
            }
        }
        Ok((chaos, state))
    }
}

/// How a pipeline run ended.
#[derive(Debug)]
pub enum RunStatus {
    /// The pipeline ran to the end (possibly degraded — see the
    /// report's [`crate::report::ResilienceSummary`]).
    Complete(Box<MiningReport>),
    /// The deterministic kill point fired mid-mine; the journal holds
    /// a checkpoint per completed unit for `--resume`.
    Killed {
        /// Stage the kill hit (always `mine` today).
        stage: &'static str,
        /// Mine units processed before stopping.
        completed_units: usize,
    },
}

impl RunStatus {
    /// The report of a completed run, if it completed.
    pub fn report(self) -> Option<MiningReport> {
        match self {
            RunStatus::Complete(report) => Some(*report),
            RunStatus::Killed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_requires_a_chaos_journal() {
        let journal = RunJournal::default();
        let err = ResumeState::from_journal(&journal).unwrap_err();
        assert!(err.contains("no Chaos record"), "{err}");
    }

    #[test]
    fn resume_drops_corrupt_checkpoint_payloads_lossily() {
        // Corrupt bytes *inside* a Checkpoint payload (the line still
        // parses as a record, the embedded response does not) must
        // not fail the resume: the unit is dropped so the pipeline
        // re-runs it.
        let journal = RunJournal {
            chaos: Some(ChaosRecord::default()),
            checkpoints: vec![
                grm_obs::CheckpointRecord {
                    span: None,
                    stage: "mine".into(),
                    unit: 3,
                    payload: "{not json".into(),
                },
                grm_obs::CheckpointRecord {
                    span: None,
                    stage: "translate".into(),
                    unit: 1,
                    payload: "\"wrong shape\"".into(),
                },
            ],
            ..RunJournal::default()
        };
        let (_, state) = ResumeState::from_journal(&journal).expect("lossy recovery never fails");
        assert!(state.mined.is_empty(), "the corrupt mine unit must be re-run, not replayed");
        assert!(state.translated.is_empty());
        assert_eq!(state.dropped.len(), 2, "{:?}", state.dropped);
        assert!(state.dropped[0].contains("corrupt mine checkpoint for unit 3"));
        assert!(state.dropped[1].contains("corrupt translate checkpoint for unit 1"));
    }

    #[test]
    fn resume_drops_unknown_checkpoint_stages_lossily() {
        let journal = RunJournal {
            chaos: Some(ChaosRecord::default()),
            checkpoints: vec![grm_obs::CheckpointRecord {
                span: None,
                stage: "frobnicate".into(),
                unit: 0,
                payload: "{}".into(),
            }],
            ..RunJournal::default()
        };
        let (_, state) = ResumeState::from_journal(&journal).expect("lossy recovery never fails");
        assert_eq!(state.units(), 0);
        assert_eq!(state.dropped.len(), 1);
        assert!(state.dropped[0].contains("unknown checkpoint stage"), "{:?}", state.dropped);
    }
}
