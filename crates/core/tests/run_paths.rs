//! Pins the deterministic journal of every pipeline run path: serial
//! and a 4-worker fleet, each plain, under an inert (rate-0) fault
//! plan and under chaos, for all three context strategies, plus a
//! killed run and its resume. The expected FNV-1a hashes were taken
//! before the stage sequences were merged into `run_with`, so any
//! change to record order, model streams or rule order shows here —
//! including reorderings the baseline gates tolerate.

use grm_core::{
    ContextStrategy, MiningPipeline, PipelineConfig, ResumeState, RunOptions, RunStatus,
};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::Recorder;
use grm_pgraph::PropertyGraph;
use grm_resil::ChaosConfig;
use grm_textenc::WindowConfig;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn small_graph() -> PropertyGraph {
    generate(DatasetId::Twitter, &GenConfig { scale: 0.01, ..Default::default() }).graph
}

fn pipeline(strategy: &str) -> MiningPipeline {
    let strategy = match strategy {
        "swa" => ContextStrategy::SlidingWindow(WindowConfig::new(2000, 200)),
        "rag" => ContextStrategy::default_rag(),
        _ => ContextStrategy::default_summary(),
    };
    MiningPipeline::new(PipelineConfig::new(ModelKind::Llama3, strategy, PromptStyle::ZeroShot))
}

/// The chaos settings of each mode. The rate-0 plan changes every
/// other parameter too, to show that none of them matters while no
/// fault can fire.
fn chaos(mode: &str) -> ChaosConfig {
    match mode {
        "plain" => ChaosConfig::default(),
        "rate0" => ChaosConfig {
            fault_rate: 0.0,
            fault_seed: 99,
            max_retries: 5,
            ..ChaosConfig::default()
        },
        _ => ChaosConfig { fault_rate: 0.3, ..ChaosConfig::default() },
    }
}

fn journal_hash(rec: &Recorder) -> u64 {
    fnv1a(rec.snapshot().to_jsonl().as_bytes())
}

#[test]
fn every_run_path_keeps_its_journal() {
    #[rustfmt::skip]
    let table: [(usize, &str, &str, u64); 18] = [
        (1, "plain", "swa", 0x24548da96cd7dd07),
        (1, "plain", "rag", 0x2b1b10908de5257e),
        (1, "plain", "summary", 0xca8e43c30772ed69),
        (1, "rate0", "swa", 0x24548da96cd7dd07),
        (1, "rate0", "rag", 0x2b1b10908de5257e),
        (1, "rate0", "summary", 0xca8e43c30772ed69),
        (1, "rate0.3", "swa", 0x4ddbe9e90a1da7ea),
        (1, "rate0.3", "rag", 0x7c0ccef3d6277cc9),
        (1, "rate0.3", "summary", 0x35c5d994c51bca66),
        (4, "plain", "swa", 0x7297cf08f8bf09f2),
        (4, "plain", "rag", 0xf2a557f17d410214),
        (4, "plain", "summary", 0x8614984bc3f389eb),
        (4, "rate0", "swa", 0x7297cf08f8bf09f2),
        (4, "rate0", "rag", 0xf2a557f17d410214),
        (4, "rate0", "summary", 0x8614984bc3f389eb),
        (4, "rate0.3", "swa", 0xf96241e295917f03),
        (4, "rate0.3", "rag", 0x8893ee42da482b01),
        (4, "rate0.3", "summary", 0x0e8febc089cb63bd),
    ];
    let g = small_graph();
    let mut failures = Vec::new();
    for (workers, mode, strategy, expected) in table {
        let rec = Recorder::deterministic();
        let opts = RunOptions { workers, chaos: chaos(mode), ..RunOptions::default() };
        let status = pipeline(strategy).run_with(&g, &rec, &opts);
        assert!(matches!(status, RunStatus::Complete(_)), "{workers}/{mode}/{strategy}");
        let got = journal_hash(&rec);
        if got != expected {
            failures.push(format!("{workers} workers, {mode}, {strategy}: {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "journals changed:\n{}", failures.join("\n"));
}

#[test]
fn killed_and_resumed_runs_keep_their_journals() {
    let g = small_graph();
    let pipe = pipeline("swa");
    let opts = RunOptions { chaos: chaos("rate0.3"), ..RunOptions::default() };

    let killed = Recorder::deterministic();
    let status = pipe.run_with(&g, &killed, &RunOptions { kill_after: Some(2), ..opts.clone() });
    assert!(matches!(status, RunStatus::Killed { completed_units: 2, .. }));
    assert_eq!(journal_hash(&killed), 0xe991ed36720b0143);

    let (_, state) = ResumeState::from_journal(&killed.snapshot()).expect("resumable");
    let resumed = Recorder::deterministic();
    let status = pipe.run_with(&g, &resumed, &RunOptions { resume: Some(state), ..opts });
    assert!(matches!(status, RunStatus::Complete(_)));
    // The uninterrupted serial rate-0.3 SWA journal.
    assert_eq!(journal_hash(&resumed), 0x4ddbe9e90a1da7ea);
}
