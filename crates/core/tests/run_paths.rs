//! Pins the deterministic journal of every pipeline run path: serial
//! and a 4-worker fleet, each plain, under an inert (rate-0) fault
//! plan, under chaos and under harsh chaos, for all three context
//! strategies, plus a killed run and its resume. The expected FNV-1a hashes move only
//! with an intended journal change (CHANGES.md says what moved and how
//! it was checked), so any change to record order, model streams or
//! rule order shows here — including reorderings the baseline gates
//! tolerate.

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
/// fault can fire. The harsh plan abandons units and trips breakers
/// on the small graph, which rate 0.3 with three retries hardly does.
fn chaos(mode: &str) -> ChaosConfig {
    match mode {
        "plain" => ChaosConfig::default(),
        "rate0" => ChaosConfig {
            fault_rate: 0.0,
            fault_seed: 99,
            max_retries: 5,
            ..ChaosConfig::default()
        },
        "harsh" => ChaosConfig {
            fault_rate: 0.7,
            max_retries: 1,
            breaker_threshold: 2,
            ..ChaosConfig::default()
        },
        _ => ChaosConfig { fault_rate: 0.3, ..ChaosConfig::default() },
    }
}

fn journal_hash(rec: &Recorder) -> u64 {
    fnv1a(rec.snapshot().to_jsonl().as_bytes())
}

/// Every retry verdict and degrade reason a unit can end in (evaluate
/// has no breaker). The harsh SWA runs reach all eleven, so their
/// pinned hashes cover each.
const OUTCOMES: [&str; 11] = [
    "evaluate degraded retries_exhausted",
    "evaluate retry recovered=false",
    "evaluate retry recovered=true",
    "mine degraded breaker_open",
    "mine degraded retries_exhausted",
    "mine retry recovered=false",
    "mine retry recovered=true",
    "translate degraded breaker_open",
    "translate degraded retries_exhausted",
    "translate retry recovered=false",
    "translate retry recovered=true",
];

#[test]
fn every_run_path_keeps_its_journal() {
    #[rustfmt::skip]
    let table: [(usize, &str, &str, u64); 24] = [
        (1, "plain", "swa", 0x1c4740e5b5ac91be),
        (1, "plain", "rag", 0x6fd882a9d64df9df),
        (1, "plain", "summary", 0x136f48dba9a151a1),
        (1, "rate0", "swa", 0x1c4740e5b5ac91be),
        (1, "rate0", "rag", 0x6fd882a9d64df9df),
        (1, "rate0", "summary", 0x136f48dba9a151a1),
        (1, "rate0.3", "swa", 0x954412ab6b319562),
        (1, "rate0.3", "rag", 0x0b4b8a56c5401b85),
        (1, "rate0.3", "summary", 0xd6fe4c5002c421ef),
        (1, "harsh", "swa", 0x9da9aa4c2f905d49),
        (1, "harsh", "rag", 0x1fa58f5583100e48),
        (1, "harsh", "summary", 0xb1a40002b8a94f16),
        (4, "plain", "swa", 0xe527b1d9b2853726),
        (4, "plain", "rag", 0xe370c8542647c637),
        (4, "plain", "summary", 0x3b6fecd8f1d355c3),
        (4, "rate0", "swa", 0xe527b1d9b2853726),
        (4, "rate0", "rag", 0xe370c8542647c637),
        (4, "rate0", "summary", 0x3b6fecd8f1d355c3),
        (4, "rate0.3", "swa", 0x720f299d530b628b),
        (4, "rate0.3", "rag", 0xf2e6b3d6a1505011),
        (4, "rate0.3", "summary", 0x412672e20885a8a0),
        (4, "harsh", "swa", 0xfa35420b579b5834),
        (4, "harsh", "rag", 0x57550b827df26d23),
        (4, "harsh", "summary", 0x7a7cee9f8f2aa940),
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
        if (mode, strategy) == ("harsh", "swa") {
            let journal = rec.snapshot();
            let retries = journal.retries.iter();
            let mut seen: Vec<String> = retries
                .map(|r| format!("{} retry recovered={}", r.stage, r.recovered))
                .chain(
                    journal.degraded.iter().map(|d| format!("{} degraded {}", d.stage, d.reason)),
                )
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen, OUTCOMES, "{workers} workers");
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
    assert_eq!(journal_hash(&resumed), 0x954412ab6b319562);
}
