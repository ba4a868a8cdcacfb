//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--table 1|2|3|4|5|6] [--figure 2|3] [--errors] [--rule-types]
//!       [--extensions] [--seeds N] [--all] [--seed N] [--scale F]
//!       [--trace FILE.jsonl] [--chaos FILE.jsonl]
//!       [--timeline FILE.jsonl [--workers N]] [--baselines [--write]]
//! ```
//!
//! With no arguments, prints everything (`--all`). Table and figure
//! numbers follow the paper:
//!
//! * Table 1 — dataset sizes;
//! * Tables 2–4 — #rules / support / coverage / confidence per
//!   (model × encoding × prompting) for WWC2019 / Cybersecurity /
//!   Twitter;
//! * Table 5 — rule-mining times (simulated seconds; see DESIGN.md);
//! * Table 6 — correctly generated Cypher queries;
//! * Figure 2 — measurable artefacts of the two context strategies
//!   (window counts, broken patterns, RAG retrieval coverage);
//! * Figure 3 — the zero-/few-shot prompt structure;
//! * `--errors` — the §4.4 error taxonomy breakdown;
//! * `--rule-types` — the §4.5 rule-complexity distribution;
//! * `--trace FILE.jsonl` — one instrumented run of the quickest paper
//!   configuration (WWC2019, RAG zero-shot), journal written as JSONL;
//! * `--chaos FILE.jsonl` — one run under the canonical fault plan
//!   (DESIGN.md §10), deterministic recorder, so two runs are
//!   byte-identical;
//! * `--timeline FILE.jsonl` — one parallel run (`--workers` workers,
//!   default 4, deterministic recorder) whose journal carries the span
//!   start offsets `grm trace timeline` reads; byte-identical too;
//! * `--baselines` — run each gated scenario once (the traced RAG run,
//!   the optimizer A/B suite, the chaos run with a counting telemetry
//!   sink, the timeline run and the scripted serve scenario) and check
//!   every committed `BENCH_*.json` in the working directory against
//!   it, failing on any row outside its gate and on any vanished or new
//!   key (DESIGN.md §9, "Baselines"). The optimizer's result-set
//!   equality and ≥20% db-hit drop and the event/journal parity check
//!   run as part of it. `--write` rewrites the files instead.
//!
//! A bad argument prints a message and exits 2.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use grm_bench::Digest;
use grm_core::{
    ContextStrategy, MiningPipeline, MiningReport, PipelineConfig, RunOptions, RunStatus, RAG_QUERY,
};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{MiningPrompt, ModelKind, PromptStyle};
use grm_metrics::QueryClass;
use grm_obs::{CountingSink, Recorder, RunJournal};
use grm_pgraph::GraphStats;
use grm_resil::ChaosConfig;
use grm_rules::RuleComplexity;
use grm_textenc::{chunk, encode_incident, WindowConfig};
use grm_vecstore::{RagConfig, Retriever};

// Count every allocation so `--trace` journals carry real per-span
// memory deltas and the mem baseline sees a non-zero run peak.
#[global_allocator]
static ALLOC: grm_obs::TrackingAlloc = grm_obs::TrackingAlloc;

struct Args {
    tables: Vec<u32>,
    figures: Vec<u32>,
    errors: bool,
    rule_types: bool,
    extensions: bool,
    seeds: Option<usize>,
    seed: u64,
    scale: f64,
    trace: Option<String>,
    chaos: Option<String>,
    timeline: Option<String>,
    baselines: bool,
    write: bool,
    workers: usize,
}

/// The next argument parsed as `T`, or a message naming `flag` and
/// what it expects.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    expects: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {expects}"))?;
    v.parse().map_err(|_| format!("{flag} needs {expects}, got `{v}`"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        tables: vec![],
        figures: vec![],
        errors: false,
        rule_types: false,
        extensions: false,
        seeds: None,
        seed: 42,
        scale: 1.0,
        trace: None,
        chaos: None,
        timeline: None,
        baselines: false,
        write: false,
        workers: 4,
    };
    let mut any = false;
    while let Some(a) = it.next() {
        let flag = a.as_str();
        any |= !matches!(flag, "--workers" | "--seed" | "--scale" | "--write" | "--all");
        match flag {
            "--table" => args.tables.push(value(&mut it, flag, "a number 1-6")?),
            "--figure" => args.figures.push(value(&mut it, flag, "2 or 3")?),
            "--errors" => args.errors = true,
            "--rule-types" => args.rule_types = true,
            "--extensions" => args.extensions = true,
            "--seeds" => args.seeds = Some(value(&mut it, flag, "a count")?),
            "--trace" => args.trace = Some(value(&mut it, flag, "a file path")?),
            "--chaos" => args.chaos = Some(value(&mut it, flag, "a file path")?),
            "--timeline" => args.timeline = Some(value(&mut it, flag, "a file path")?),
            "--baselines" => args.baselines = true,
            "--write" => args.write = true,
            "--workers" => {
                args.workers = value(&mut it, flag, "a positive integer")?;
                if args.workers == 0 {
                    return Err("--workers needs a positive integer, got `0`".into());
                }
            }
            "--seed" => args.seed = value(&mut it, flag, "an unsigned integer")?,
            "--scale" => {
                args.scale = value(&mut it, flag, "a positive number")?;
                if !(args.scale > 0.0 && args.scale.is_finite()) {
                    return Err(format!("--scale needs a positive number, got `{}`", args.scale));
                }
            }
            "--all" => any = false,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.write && !args.baselines {
        return Err("--write only applies to --baselines".into());
    }
    if !any {
        args.tables = vec![1, 2, 3, 4, 5, 6];
        args.figures = vec![2, 3];
        args.errors = true;
        args.rule_types = true;
        args.extensions = true;
    }
    Ok(args)
}

/// Runs (or reuses) all 8 configurations for one dataset.
struct GridCache {
    seed: u64,
    scale: f64,
    reports: HashMap<(DatasetId, ModelKind, &'static str, PromptStyle), MiningReport>,
}

impl GridCache {
    fn new(seed: u64, scale: f64) -> Self {
        GridCache { seed, scale, reports: HashMap::new() }
    }

    fn grid(&mut self, id: DatasetId) -> Vec<&MiningReport> {
        let needed: Vec<_> = grid_keys();
        if !self.reports.contains_key(&(id, needed[0].0, needed[0].1, needed[0].2)) {
            let data =
                generate(id, &GenConfig { seed: self.seed, scale: self.scale, clean: false });
            for (model, strat_name, style) in &needed {
                let strategy = if *strat_name == "SWA" {
                    ContextStrategy::default_sliding_window()
                } else {
                    ContextStrategy::default_rag()
                };
                let mut cfg = PipelineConfig::new(*model, strategy, *style);
                cfg.seed = self.seed;
                let report = MiningPipeline::new(cfg).run(&data.graph);
                self.reports.insert((id, *model, strat_name, *style), report);
            }
        }
        needed.iter().map(|(m, s, p)| &self.reports[&(id, *m, *s, *p)]).collect()
    }
}

fn grid_keys() -> Vec<(ModelKind, &'static str, PromptStyle)> {
    let mut keys = Vec::new();
    for style in PromptStyle::ALL {
        for strat in ["SWA", "RAG"] {
            for model in ModelKind::ALL {
                keys.push((model, strat, style));
            }
        }
    }
    keys
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("repro: {message}");
            std::process::exit(2);
        }
    };
    let mut cache = GridCache::new(args.seed, args.scale);

    for t in &args.tables {
        match t {
            1 => table1(&args),
            2 => quality_table(&mut cache, DatasetId::Wwc2019, 2),
            3 => quality_table(&mut cache, DatasetId::Cybersecurity, 3),
            4 => quality_table(&mut cache, DatasetId::Twitter, 4),
            5 => table5(&mut cache),
            6 => table6(&mut cache),
            other => eprintln!("no table {other} in the paper"),
        }
    }
    for f in &args.figures {
        match f {
            2 => figure2(&args, &mut cache),
            3 => figure3(),
            other => eprintln!("figure {other} is an architecture diagram (see README)"),
        }
    }
    if args.errors {
        errors(&mut cache);
    }
    if args.rule_types {
        rule_types(&mut cache);
    }
    if args.extensions {
        extensions(&args);
    }
    if let Some(n) = args.seeds {
        seed_sweep(&args, n);
    }
    if let Some(path) = &args.trace {
        let (journal, report) = traced_rag_run(&args);
        write_journal(path, &journal);
        println!("== trace: WWC2019 / llama3 / RAG / zero-shot ==");
        print!("{}", journal.summary());
        println!(
            "({} rules in {:.1}s simulated; journal with {} spans written to {path})",
            report.rule_count(),
            report.mining_seconds,
            journal.spans.len()
        );
    }
    if let Some(path) = &args.chaos {
        let (journal, report, _) = chaos_run(&args);
        write_journal(path, &journal);
        println!("== chaos: WWC2019 / llama3 / SWA / zero-shot, fault-rate 0.2 ==");
        print!("{}", grm_obs::FaultReport::from_journal(&journal).render());
        let resilience = report.resilience.expect("chaos runs always carry a resilience summary");
        println!(
            "({} rules survived; {} fault(s), {} retried, {} abandoned; journal written to {path})",
            report.rule_count(),
            resilience.faults_injected,
            resilience.llm_calls_retried,
            resilience.llm_calls_abandoned
        );
    }
    if let Some(path) = &args.timeline {
        let (journal, report) = timeline_run(&args);
        write_journal(path, &journal);
        println!("== timeline: WWC2019 / llama3 / SWA / zero-shot, {} workers ==", args.workers);
        print!("{}", grm_obs::TimelineReport::from_journal(&journal).render(args.workers + 1));
        println!(
            "({} rules; journal with {} spans written to {path})",
            report.rule_count(),
            journal.spans.len()
        );
    }
    if args.baselines {
        baselines(&args);
    }
}

fn write_journal(path: &str, journal: &RunJournal) {
    if let Err(e) = std::fs::write(path, journal.to_jsonl()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
}

/// A pipeline configuration on WWC2019 at the run's seed and scale.
fn wwc_config(
    args: &Args,
    strategy: ContextStrategy,
) -> (grm_pgraph::PropertyGraph, PipelineConfig) {
    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let mut cfg = PipelineConfig::new(ModelKind::Llama3, strategy, PromptStyle::ZeroShot);
    cfg.seed = args.seed;
    (data.graph, cfg)
}

/// The traced RAG run behind `--trace` and the trace, plans, lineage
/// and mem baselines (real recorder, so it carries allocator records).
fn traced_rag_run(args: &Args) -> (RunJournal, MiningReport) {
    let (graph, cfg) = wwc_config(args, ContextStrategy::default_rag());
    let recorder = Recorder::new();
    let report = MiningPipeline::new(cfg).run_traced(&graph, &recorder);
    (recorder.snapshot(), report)
}

/// The chaos run behind `--chaos` and the chaos and events baselines:
/// SWA zero-shot (the configuration with the most retryable units) at
/// fault rate 0.2, deterministic recorder, with a counting telemetry
/// sink attached — sinks never change journal bytes. Returns the
/// sink's per-kind event counts too.
fn chaos_run(args: &Args) -> (RunJournal, MiningReport, BTreeMap<String, u64>) {
    let (graph, cfg) = wwc_config(args, ContextStrategy::default_sliding_window());
    let chaos = ChaosConfig { fault_rate: 0.2, ..ChaosConfig::default() };
    let opts = RunOptions { chaos, ..RunOptions::default() };
    let recorder = Recorder::deterministic();
    let counting = CountingSink::new();
    recorder.attach_sink(counting.clone());
    let RunStatus::Complete(report) = MiningPipeline::new(cfg).run_with(&graph, &recorder, &opts)
    else {
        eprintln!("chaos run was killed without a kill point — impossible");
        std::process::exit(1);
    };
    let journal = recorder.snapshot();
    recorder.finish_sinks();
    if recorder.events_dropped() > 0 {
        eprintln!("the lossless counting sink dropped {} event(s)", recorder.events_dropped());
        std::process::exit(1);
    }
    (journal, *report, counting.counts())
}

/// The parallel run behind `--timeline` and the timeline baseline:
/// SWA zero-shot on `--workers` workers, deterministic recorder (the
/// span start offsets are pure sim arithmetic and survive it).
fn timeline_run(args: &Args) -> (RunJournal, MiningReport) {
    let (graph, cfg) = wwc_config(args, ContextStrategy::default_sliding_window());
    let recorder = Recorder::deterministic();
    let opts = RunOptions { workers: args.workers, ..RunOptions::default() };
    let report = MiningPipeline::new(cfg)
        .run_with(&graph, &recorder, &opts)
        .report()
        .expect("a fault-free run has no kill point");
    (recorder.snapshot(), report)
}

/// The optimizer A/B suite: every reference query of the exhaustive
/// (AMIE-style) miner on WWC2019, run once naively and once through a
/// fresh [`grm_cypher::BatchSession`] — the same Filter→Expand→Count
/// shapes the metric scorers run, with head-total queries repeating
/// across rules sharing a head, so the result memo has real work to
/// do. Fails if any optimized result set differs from the naive one.
/// Returns the naive and optimized db-hit totals and the session's
/// counters.
fn optimizer_ab(args: &Args) -> Result<(u64, u64, grm_cypher::BatchStats), String> {
    use grm_cypher::{execute_profiled, BatchSession};

    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let graph = &data.graph;
    let mined = grm_baseline::mine_exhaustive(graph, grm_baseline::MinerConfig::default());
    let mut session = BatchSession::new(graph);
    let (mut naive_db_hits, mut optimized_db_hits) = (0u64, 0u64);
    for m in &mined {
        let q = grm_rules::reference_queries(&m.rule);
        for q in [q.satisfied, q.body, q.head_total] {
            let (naive_rs, naive_prof) = execute_profiled(graph, &q)
                .map_err(|e| format!("optimizer suite query failed naively: {e}\n  {q}"))?;
            naive_db_hits += naive_prof.db_hits().total();
            let (opt_rs, opt_prof) = session
                .execute_profiled(&q)
                .map_err(|e| format!("optimizer suite query failed optimized: {e}\n  {q}"))?;
            optimized_db_hits += opt_prof.map(|p| p.db_hits().total()).unwrap_or(0);
            if naive_rs != *opt_rs {
                return Err(format!("optimized execution changed the result set of: {q}"));
            }
        }
    }
    Ok((naive_db_hits, optimized_db_hits, session.stats()))
}

/// The scripted serve scenario (`grm_serve::baseline_harness`) on a
/// scratch spool under the system temp directory: the folded service
/// stats and the rules its mine jobs produced.
fn serve_run(args: &Args) -> (grm_serve::ServeStats, u64) {
    let spool_root = std::env::temp_dir().join(format!("grm-serve-repro-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&spool_root)
        .and_then(|()| grm_serve::baseline_harness(args.scale, spool_root.clone()));
    let _ = std::fs::remove_dir_all(&spool_root);
    outcome.unwrap_or_else(|e| {
        eprintln!("serve harness failed: {e}");
        std::process::exit(1);
    })
}

/// `--baselines [--write]`: runs each gated scenario once, then checks
/// (or rewrites) every committed `BENCH_*.json` against its digest.
fn baselines(args: &Args) {
    let mut failures: Vec<String> = Vec::new();
    let (trace, _) = traced_rag_run(args);
    let (chaos, _, counts) = chaos_run(args);
    let (timeline, _) = timeline_run(args);
    let digest = |build: &dyn Fn(&mut Digest)| {
        let mut d = Digest::new(args.seed, args.scale);
        build(&mut d);
        d
    };

    let mut plans = digest(&|d| grm_bench::plan_rows(d, &trace));
    match optimizer_ab(args) {
        Ok((naive, optimized, stats)) => {
            println!(
                "optimizer A/B: {} queries, naive {naive} db-hits, optimized {optimized}",
                stats.queries
            );
            // A ≥20% drop, in integers: optimized ≤ 0.8 × naive.
            if optimized * 5 > naive * 4 {
                failures.push(format!(
                    "optimizer: {optimized} optimized db-hits against {naive} naive \
                     (a drop of at least 20% is required)"
                ));
            }
            grm_bench::optimizer_rows(&mut plans, naive, optimized, &stats);
        }
        Err(e) => failures.push(format!("optimizer: {e}")),
    }
    let parity = grm_obs::parity_violations(&counts, &chaos);
    println!("event/journal parity: {} violation(s)", parity.len());
    failures.extend(parity.into_iter().map(|v| format!("events: {v}")));
    let (serve, rules_mined) = serve_run(args);

    let files = [
        ("BENCH_trace.json", digest(&|d| grm_bench::trace_rows(d, &trace))),
        ("BENCH_plans.json", plans),
        ("BENCH_lineage.json", digest(&|d| grm_bench::lineage_rows(d, &trace))),
        ("BENCH_mem.json", digest(&|d| grm_bench::mem_rows(d, &trace))),
        ("BENCH_chaos.json", digest(&|d| grm_bench::chaos_rows(d, &chaos))),
        ("BENCH_events.json", digest(&|d| grm_bench::events_rows(d, &counts))),
        ("BENCH_timeline.json", digest(&|d| grm_bench::timeline_rows(d, &timeline))),
        ("BENCH_serve.json", digest(&|d| grm_bench::serve_rows(d, &serve, rules_mined))),
    ];
    // A run that broke a structural check never overwrites the files.
    let write = args.write && failures.is_empty();
    for (file, digest) in &files {
        if write {
            if let Err(e) = std::fs::write(file, digest.to_json()) {
                failures.push(format!("writing {file}: {e}"));
            }
        } else if !args.write {
            match digest.check_file(Path::new(file)) {
                Ok(diff) => failures.extend(diff.into_iter().map(|v| format!("{file}: {v}"))),
                Err(e) => failures.push(e),
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        eprintln!("{} baseline failure(s)", failures.len());
        std::process::exit(1);
    }
    if args.write {
        println!("wrote {} baseline file(s)", files.len());
    } else {
        println!("baselines passed: {} file(s) match", files.len());
    }
}

/// Robustness sweep: reruns the quality grid across `n` seeds and
/// reports mean and range per cell — evidence that the paper-shape
/// findings are not a single-seed artefact.
fn seed_sweep(args: &Args, n: usize) {
    println!("== seed sweep: coverage% mean [min..max] over {n} seeds ==");
    println!("{:<15} {:<10} {:>22} {:>22}", "Dataset", "Model", "SWA zero", "RAG zero");
    for id in DatasetId::ALL {
        let data = generate(id, &GenConfig { seed: args.seed, scale: args.scale, clean: false });
        for model in ModelKind::ALL {
            let sweep = |strategy: ContextStrategy| -> (f64, f64, f64) {
                let mut values = Vec::with_capacity(n);
                for k in 0..n {
                    let mut cfg = PipelineConfig::new(model, strategy, PromptStyle::ZeroShot);
                    cfg.seed = args.seed + k as u64;
                    let r = MiningPipeline::new(cfg).run(&data.graph);
                    values.push(r.aggregate.coverage_pct);
                }
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (mean, min, max)
            };
            let (sm, slo, shi) = sweep(ContextStrategy::default_sliding_window());
            let (rm, rlo, rhi) = sweep(ContextStrategy::default_rag());
            println!(
                "{:<15} {:<10} {:>7.1} [{:>5.1}..{:>5.1}] {:>7.1} [{:>5.1}..{:>5.1}]",
                id.name(),
                model.name(),
                sm,
                slo,
                shi,
                rm,
                rlo,
                rhi
            );
        }
    }
    println!();
}

/// §5 future-work extensions, implemented and measured: the
/// graph-summarization context strategy vs the paper's two.
fn extensions(args: &Args) {
    println!("== §5 extension: graph-summarization context strategy ==");
    println!(
        "{:<15} {:<26} {:>6} {:>7} {:>7} {:>10}",
        "Dataset", "Strategy", "#rules", "Cov%", "Conf%", "Time (s)"
    );
    for id in DatasetId::ALL {
        let data = generate(id, &GenConfig { seed: args.seed, scale: args.scale, clean: false });
        for strategy in [
            ContextStrategy::default_sliding_window(),
            ContextStrategy::default_rag(),
            ContextStrategy::default_summary(),
        ] {
            let mut cfg = PipelineConfig::new(ModelKind::Llama3, strategy, PromptStyle::ZeroShot);
            cfg.seed = args.seed;
            let r = MiningPipeline::new(cfg).run(&data.graph);
            println!(
                "{:<15} {:<26} {:>6} {:>7.2} {:>7.2} {:>10.1}",
                id.name(),
                r.strategy_name,
                r.rule_count(),
                r.aggregate.coverage_pct,
                r.aggregate.confidence_pct,
                r.mining_seconds
            );
        }
    }
    println!("(summarization reaches window-class quality at near-RAG cost)");
    println!();

    println!("== §1 contrast: exhaustive (AMIE-style) baseline vs LLM pipeline ==");
    println!(
        "{:<15} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "Dataset", "LLM rules", "Miner rules", "Redundant", "LLM conf%", "Miner conf%"
    );
    for id in DatasetId::ALL {
        let data = generate(id, &GenConfig { seed: args.seed, scale: args.scale, clean: false });
        let mut cfg = PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        );
        cfg.seed = args.seed;
        let llm = MiningPipeline::new(cfg).run(&data.graph);
        let mined =
            grm_baseline::mine_exhaustive(&data.graph, grm_baseline::MinerConfig::default());
        let redundancy = grm_baseline::analyze_redundancy(&mined);
        let miner_conf = if mined.is_empty() {
            0.0
        } else {
            mined.iter().map(|m| m.metrics.confidence_pct).sum::<f64>() / mined.len() as f64
        };
        println!(
            "{:<15} {:>10} {:>12} {:>11.0}% {:>9.1} {:>10.1}",
            id.name(),
            llm.rule_count(),
            mined.len(),
            100.0 * redundancy.redundancy_ratio(),
            llm.aggregate.confidence_pct,
            miner_conf
        );
    }
    println!(
        "(the traditional miner's output is larger and substantially redundant — the \
         paper's motivation for LLM-based mining)"
    );
    println!();
}

fn table1(args: &Args) {
    println!("== Table 1: dataset sizes ==");
    println!(
        "{:<15} {:>7} {:>7} {:>12} {:>12}",
        "", "Nodes", "Edges", "Node Labels", "Edge Labels"
    );
    for id in DatasetId::ALL {
        let d = generate(id, &GenConfig { seed: args.seed, scale: args.scale, clean: false });
        let s = GraphStats::of(&d.graph);
        println!(
            "{:<15} {:>7} {:>7} {:>12} {:>12}",
            id.name(),
            s.nodes,
            s.edges,
            s.node_labels,
            s.edge_labels
        );
    }
    println!();
}

fn quality_table(cache: &mut GridCache, id: DatasetId, n: u32) {
    println!("== Table {n}: support, coverage and confidence — {} ==", id.name());
    println!(
        "{:<10} {:<5} {:<26} {:>6} {:>8} {:>7} {:>7}",
        "Model", "Shot", "Encoding", "#rules", "Supp", "Cov%", "Conf%"
    );
    let keys = grid_keys();
    let reports = cache.grid(id);
    for ((model, strat, style), r) in keys.iter().zip(reports) {
        println!(
            "{:<10} {:<5} {:<26} {:>6} {:>8.0} {:>7.2} {:>7.2}",
            model.name(),
            if *style == PromptStyle::ZeroShot { "zero" } else { "few" },
            if *strat == "SWA" { "Sliding Window Attention" } else { "RAG" },
            r.rule_count(),
            r.aggregate.support,
            r.aggregate.coverage_pct,
            r.aggregate.confidence_pct
        );
    }
    println!();
}

fn table5(cache: &mut GridCache) {
    println!("== Table 5: LLM rule mining times (simulated seconds) ==");
    println!(
        "{:<15} {:<10} {:>14} {:>14} {:>12} {:>12}",
        "Dataset", "Model", "SWA zero", "SWA few", "RAG zero", "RAG few"
    );
    for id in DatasetId::ALL {
        let keys = grid_keys();
        let reports: Vec<f64> = cache.grid(id).iter().map(|r| r.mining_seconds).collect();
        for model in ModelKind::ALL {
            let cell = |strat: &str, style: PromptStyle| -> f64 {
                keys.iter()
                    .zip(&reports)
                    .find(|((m, s, p), _)| *m == model && *s == strat && *p == style)
                    .map(|(_, t)| *t)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "{:<15} {:<10} {:>14.2} {:>14.2} {:>12.2} {:>12.2}",
                id.name(),
                model.name(),
                cell("SWA", PromptStyle::ZeroShot),
                cell("SWA", PromptStyle::FewShot),
                cell("RAG", PromptStyle::ZeroShot),
                cell("RAG", PromptStyle::FewShot),
            );
        }
    }
    println!();
}

fn table6(cache: &mut GridCache) {
    println!("== Table 6: correctly generated Cypher queries ==");
    println!(
        "{:<15} {:<10} {:>10} {:>10} {:>10} {:>10}",
        "Dataset", "Model", "SWA zero", "SWA few", "RAG zero", "RAG few"
    );
    for id in DatasetId::ALL {
        let keys = grid_keys();
        let fractions: Vec<String> =
            cache.grid(id).iter().map(|r| r.correctness.as_fraction()).collect();
        for model in ModelKind::ALL {
            let cell = |strat: &str, style: PromptStyle| -> String {
                keys.iter()
                    .zip(&fractions)
                    .find(|((m, s, p), _)| *m == model && *s == strat && *p == style)
                    .map(|(_, f)| f.clone())
                    .unwrap_or_default()
            };
            println!(
                "{:<15} {:<10} {:>10} {:>10} {:>10} {:>10}",
                id.name(),
                model.name(),
                cell("SWA", PromptStyle::ZeroShot),
                cell("SWA", PromptStyle::FewShot),
                cell("RAG", PromptStyle::ZeroShot),
                cell("RAG", PromptStyle::FewShot),
            );
        }
    }
    println!();
}

fn figure2(args: &Args, cache: &mut GridCache) {
    println!("== Figure 2: context-strategy artefacts ==");
    println!(
        "{:<15} {:>9} {:>9} {:>16} {:>10} {:>13}",
        "Dataset", "Tokens", "Windows", "BrokenPatterns", "RAGChunks", "RAGCoverage"
    );
    for id in DatasetId::ALL {
        let d = generate(id, &GenConfig { seed: args.seed, scale: args.scale, clean: false });
        let encoded = encode_incident(&d.graph);
        let ws = chunk(&encoded, WindowConfig::default());
        let retriever = Retriever::ingest(&encoded, RagConfig::default());
        let retrieval = retriever.retrieve(RAG_QUERY);
        println!(
            "{:<15} {:>9} {:>9} {:>16} {:>10} {:>12.4}%",
            id.name(),
            ws.total_tokens,
            ws.len(),
            ws.broken_patterns,
            retriever.chunk_count(),
            100.0 * retrieval.coverage()
        );
    }
    println!("(paper §4.5 reports broken patterns: WWC2019=6, Cybersecurity=11, Twitter=6)");
    println!();
    let _ = cache;
}

fn figure3() {
    println!("== Figure 3: prompt structures ==");
    for style in PromptStyle::ALL {
        let mut p = MiningPrompt::new(style, "<encoded graph window>");
        p.target_rules = None;
        println!("--- {} ---", style.name());
        println!("{}", p.render());
        println!();
    }
}

fn errors(cache: &mut GridCache) {
    println!("== §4.4 error taxonomy (all datasets, all configurations) ==");
    let mut totals: HashMap<&'static str, usize> = HashMap::new();
    for id in DatasetId::ALL {
        for r in cache.grid(id) {
            for o in &r.rules {
                let bucket = match o.original_class {
                    QueryClass::Correct => "correct",
                    QueryClass::DirectionError => "wrong direction",
                    QueryClass::HallucinatedProperty => "hallucinated property",
                    QueryClass::SyntaxError => "syntax error",
                    QueryClass::OtherSemantic => "other semantic",
                };
                *totals.entry(bucket).or_insert(0) += 1;
            }
        }
    }
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    for (bucket, n) in rows {
        println!("  {bucket:<24} {n}");
    }
    println!("(the paper observed 5 direction cases and 3 error categories overall)");
    println!();
}

fn rule_types(cache: &mut GridCache) {
    println!("== §4.5 rule-complexity distribution per model ==");
    let mut per_model: HashMap<(ModelKind, &'static str), usize> = HashMap::new();
    for id in DatasetId::ALL {
        for r in cache.grid(id) {
            for o in &r.rules {
                let c = match o.rule.complexity() {
                    RuleComplexity::Schema => "schema",
                    RuleComplexity::Pattern => "pattern",
                    RuleComplexity::Temporal => "temporal",
                };
                *per_model.entry((r.model, c)).or_insert(0) += 1;
            }
        }
    }
    for model in ModelKind::ALL {
        let total: usize = ["schema", "pattern", "temporal"]
            .iter()
            .map(|c| per_model.get(&(model, c)).copied().unwrap_or(0))
            .sum();
        print!("  {:<10}", model.name());
        for c in ["schema", "pattern", "temporal"] {
            let n = per_model.get(&(model, c)).copied().unwrap_or(0);
            print!(
                " {c}={n} ({:.0}%)",
                if total == 0 { 0.0 } else { 100.0 * n as f64 / total as f64 }
            );
        }
        println!();
    }
    println!("(the paper: Llama-3 favours simple schema rules; Mixtral finds complex patterns)");
}
