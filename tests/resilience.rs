//! End-to-end chaos-engineering tests (DESIGN.md §10): deterministic
//! fault injection, graceful degradation, and journal-driven
//! checkpoint/resume — exercised through the public facade the way
//! the CLI and CI use it.

use graph_rule_mining::datasets::{generate, DatasetId, GenConfig};
use graph_rule_mining::llm::{ModelKind, PromptStyle};
use graph_rule_mining::obs::{FaultReport, Recorder, RunJournal};
use graph_rule_mining::pipeline::{
    ContextStrategy, MiningPipeline, PipelineConfig, ResumeState, RunOptions, RunStatus,
};
use graph_rule_mining::resil::ChaosConfig;
use proptest::prelude::*;

fn small_graph() -> graph_rule_mining::pgraph::PropertyGraph {
    generate(DatasetId::Wwc2019, &GenConfig { seed: 5, scale: 0.05, clean: false }).graph
}

fn config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_sliding_window(),
        PromptStyle::ZeroShot,
    );
    cfg.seed = seed;
    cfg
}

/// Runs one chaos pipeline and returns its deterministic journal text.
fn chaos_journal(seed: u64, chaos: ChaosConfig, kill_after: Option<usize>) -> (String, RunStatus) {
    let g = small_graph();
    let recorder = Recorder::deterministic();
    let opts = RunOptions { chaos, kill_after, ..RunOptions::default() };
    let status = MiningPipeline::new(config(seed)).run_with(&g, &recorder, &opts);
    (recorder.snapshot().to_jsonl(), status)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fault-rate-0 chaos config is an inert plan: byte-identical to
    /// the fault-free traced run, for any pipeline seed and any other
    /// chaos parameters.
    #[test]
    fn zero_fault_rate_reproduces_the_plain_journal(seed in 0u64..500) {
        let g = small_graph();
        let plain = Recorder::deterministic();
        MiningPipeline::new(config(seed)).run_traced(&g, &plain);

        let chaos = Recorder::deterministic();
        let inert = ChaosConfig { fault_rate: 0.0, fault_seed: seed, max_retries: 9, breaker_threshold: 1 };
        let opts = RunOptions { chaos: inert, ..RunOptions::default() };
        let status = MiningPipeline::new(config(seed)).run_with(&g, &chaos, &opts);
        prop_assert!(matches!(status, RunStatus::Complete(_)));
        prop_assert_eq!(plain.snapshot().to_jsonl(), chaos.snapshot().to_jsonl());
    }

    /// Satellite (c): resuming from a journal truncated at an
    /// arbitrary byte offset converges on the same final journal —
    /// whatever survives truncation only lets the resumed run skip
    /// work, never changes its outcome.
    #[test]
    fn resume_after_truncation_converges(cut in 0.05f64..0.95) {
        let chaos = ChaosConfig { fault_rate: 0.3, ..Default::default() };
        let (full, _) = chaos_journal(42, chaos, None);
        let (partial, status) = chaos_journal(42, chaos, Some(2));
        prop_assert!(matches!(status, RunStatus::Killed { .. }));

        // Truncate mid-file at a char boundary (the journal is ASCII).
        let mut cut_at = (partial.len() as f64 * cut) as usize;
        while !partial.is_char_boundary(cut_at) {
            cut_at -= 1;
        }
        let truncated = &partial[..cut_at];
        let journal = RunJournal::from_jsonl_lossy(truncated).unwrap();

        match ResumeState::from_journal(&journal) {
            // The cut destroyed the Chaos record itself: nothing to
            // resume from, which the API reports as an error.
            Err(e) => prop_assert!(e.contains("no Chaos record"), "unexpected error: {e}"),
            Ok((record, state)) => {
                prop_assert_eq!(record.run_seed, 42);
                let g = small_graph();
                let recorder = Recorder::deterministic();
                let opts = RunOptions { chaos, resume: Some(state), ..RunOptions::default() };
                let status = MiningPipeline::new(config(42)).run_with(&g, &recorder, &opts);
                prop_assert!(matches!(status, RunStatus::Complete(_)));
                prop_assert_eq!(recorder.snapshot().to_jsonl(), full.clone());
            }
        }
    }
}

/// The kill/resume path end-to-end: a run killed mid-mine resumes
/// from its checkpoints to the byte-identical journal and the same
/// final rule table.
#[test]
fn killed_run_resumes_exactly() {
    let chaos = ChaosConfig { fault_rate: 0.25, ..Default::default() };
    let (full, full_status) = chaos_journal(7, chaos, None);
    let full_report = full_status.report().expect("uninterrupted run completes");

    let (partial, status) = chaos_journal(7, chaos, Some(1));
    let RunStatus::Killed { stage, completed_units } = status else {
        panic!("kill_after=1 must kill the run");
    };
    assert_eq!(stage, "mine");
    assert_eq!(completed_units, 1);

    let journal = RunJournal::from_jsonl_lossy(&partial).unwrap();
    let (record, state) = ResumeState::from_journal(&journal).unwrap();
    assert_eq!(record.fault_rate, 0.25);
    assert!(state.units() >= 1, "the killed run checkpointed its completed unit");

    let g = small_graph();
    let recorder = Recorder::deterministic();
    let opts = RunOptions { chaos, resume: Some(state), ..RunOptions::default() };
    let status = MiningPipeline::new(config(7)).run_with(&g, &recorder, &opts);
    let resumed_report = status.report().expect("resumed run completes");

    assert_eq!(recorder.snapshot().to_jsonl(), full);
    assert_eq!(resumed_report.rule_count(), full_report.rule_count());
    let nl = |r: &graph_rule_mining::pipeline::MiningReport| -> Vec<String> {
        r.rules.iter().map(|o| o.nl.clone()).collect()
    };
    assert_eq!(nl(&resumed_report), nl(&full_report));
}

/// The analytics layer reads a chaos journal back: the fault report
/// renders the chaos configuration. (The tampered-journal half of the
/// baseline gate lives with the gate, in `crates/bench/tests`.)
#[test]
fn fault_report_renders_the_chaos_config() {
    let chaos = ChaosConfig { fault_rate: 0.3, ..Default::default() };
    let (text, status) = chaos_journal(11, chaos, None);
    status.report().expect("run completes");
    let journal = RunJournal::from_jsonl_lossy(&text).unwrap();

    let fault_report = FaultReport::from_journal(&journal);
    assert!(!fault_report.is_empty());
    let rendered = fault_report.render();
    assert!(rendered.contains("fault-rate 0.3"), "render carries the config:\n{rendered}");
}
