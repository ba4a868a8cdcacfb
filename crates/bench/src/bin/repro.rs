//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--table 1|2|3|4|5|6] [--figure 2|3] [--errors] [--rule-types]
//!       [--all] [--seed N] [--scale F]
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
//! * `--trace FILE.jsonl` — run one representative pipeline
//!   configuration with instrumentation and write its grm-obs run
//!   journal (the CI bench-smoke artifact);
//! * `--trace-baseline FILE.json` — with `--trace`, also freeze the
//!   run's stage timings and histogram percentiles into a
//!   `TraceBaseline` snapshot for `grm trace check` (this is how
//!   `BENCH_trace.json` is regenerated);
//! * `--plans-baseline FILE.json` — with `--trace`, freeze the run's
//!   per-operator db-hit budgets into a `PlanBaseline` snapshot for
//!   `grm trace plans --check` (this is how `BENCH_plans.json` is
//!   regenerated);
//! * `--lineage-baseline FILE.json` — with `--trace`, freeze the run's
//!   rule-lineage digest (rule count, error classes, per-origin
//!   yields, boundary breakages) into a `LineageBaseline` snapshot for
//!   `grm trace lineage --check` (this is how `BENCH_lineage.json` is
//!   regenerated — the check is exact, the pipeline is deterministic);
//! * `--optimizer-gate PLANS.json` — run the optimizer A/B suite (the
//!   exhaustive miner's reference queries on WWC2019, once naive and
//!   once through the optimizing layer), assert result-set equality
//!   and a ≥20% total db-hits drop, and compare the digest exactly
//!   against the `optimizer` section of the committed plan baseline
//!   (the CI optimizer-gate step; `--plans-baseline` refreshes the
//!   section);
//! * `--chaos FILE.jsonl` — one chaos run (fixed fault plan, see
//!   DESIGN.md §10) with its journal written as JSONL;
//! * `--chaos-baseline FILE.json` — with `--chaos`, freeze the run's
//!   fault/retry/degradation digest into a `ChaosBaseline` snapshot
//!   for `grm trace faults --check` (this is how `BENCH_chaos.json`
//!   is regenerated — the fault plan is deterministic, so the check
//!   is exact);
//! * `--mem-baseline FILE.json` — with `--trace`, freeze the run's
//!   deterministic footprint tables and run-wide allocator counters
//!   into a `MemBaseline` snapshot for `grm trace mem --check` (this
//!   is how `BENCH_mem.json` is regenerated — footprints gate
//!   exactly, allocator counters by tolerance);
//! * `--timeline FILE.jsonl` — one parallel pipeline run (`--workers`
//!   workers, default 4, deterministic recorder) whose journal carries
//!   the v7 span start offsets `grm trace timeline` reconstructs
//!   worker occupancy from; byte-identical across runs, so CI
//!   compares two with `cmp`;
//! * `--timeline-baseline FILE.json` — with `--timeline`, freeze the
//!   run's wall/compute/speedup, worker lanes and critical path into
//!   a `TimelineBaseline` snapshot for `grm trace timeline --check`
//!   (this is how `BENCH_timeline.json` is regenerated — all pure
//!   sim arithmetic, so the file is byte-deterministic);
//! * `--events-parity FILE.json` — one chaos run (same plan as
//!   `--chaos`) with a counting telemetry sink attached: assert the
//!   per-kind event counts match the journal record counts (every
//!   span/fault/retry/… journaled was also emitted on the bus, and
//!   vice versa), then compare them exactly against the committed
//!   `EventsBaseline` snapshot (the CI events-parity gate);
//! * `--events-baseline FILE.json` — same run, but freeze the counts
//!   into the snapshot instead (this is how `BENCH_events.json` is
//!   regenerated — the fault plan and recorder are deterministic, so
//!   the check is exact);
//! * `--serve-gate FILE.json` — run the deterministic serving
//!   scenario (`grm_serve::baseline_harness`: multi-tenant traffic,
//!   overload shedding, a breaker trip, and a kill/resume cycle) and
//!   compare its job-count/shed/trip/resume digest exactly against
//!   the committed `ServeBaseline` snapshot (the CI serve gate);
//! * `--serve-baseline FILE.json` — same scenario, but freeze the
//!   digest into the snapshot instead (this is how `BENCH_serve.json`
//!   is regenerated — the harness runs on a logical clock, so the
//!   check is exact);
//! * `--check-baselines` — scan the working directory's
//!   `BENCH_*.json` files and fail unless every one carries the
//!   current journal schema version (the CI staleness gate, formerly
//!   a shell pipeline in ci.yml).

use std::collections::HashMap;

use grm_core::{
    ContextStrategy, MiningPipeline, MiningReport, PipelineConfig, RunOptions, RunStatus, RAG_QUERY,
};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{MiningPrompt, ModelKind, PromptStyle};
use grm_metrics::QueryClass;
use grm_pgraph::GraphStats;
use grm_resil::ChaosConfig;
use grm_rules::RuleComplexity;
use grm_textenc::{chunk, encode_incident, WindowConfig};
use grm_vecstore::{RagConfig, Retriever};

// Count every allocation so `--trace` journals carry real per-span
// memory deltas and `--mem-baseline` freezes a non-zero run peak.
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
    trace_baseline: Option<String>,
    plans_baseline: Option<String>,
    lineage_baseline: Option<String>,
    mem_baseline: Option<String>,
    chaos: Option<String>,
    chaos_baseline: Option<String>,
    optimizer_gate: Option<String>,
    timeline: Option<String>,
    timeline_baseline: Option<String>,
    events_parity: Option<String>,
    events_baseline: Option<String>,
    serve_baseline: Option<String>,
    serve_gate: Option<String>,
    check_baselines: bool,
    workers: usize,
}

fn parse_args() -> Args {
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
        trace_baseline: None,
        plans_baseline: None,
        lineage_baseline: None,
        mem_baseline: None,
        chaos: None,
        chaos_baseline: None,
        optimizer_gate: None,
        timeline: None,
        timeline_baseline: None,
        events_parity: None,
        events_baseline: None,
        serve_baseline: None,
        serve_gate: None,
        check_baselines: false,
        workers: 4,
    };
    let mut it = std::env::args().skip(1);
    let mut any = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => {
                any = true;
                args.tables.push(
                    it.next().and_then(|v| v.parse().ok()).expect("--table needs a number 1-6"),
                );
            }
            "--figure" => {
                any = true;
                args.figures
                    .push(it.next().and_then(|v| v.parse().ok()).expect("--figure needs 2 or 3"));
            }
            "--errors" => {
                any = true;
                args.errors = true;
            }
            "--rule-types" => {
                any = true;
                args.rule_types = true;
            }
            "--extensions" => {
                any = true;
                args.extensions = true;
            }
            "--seeds" => {
                any = true;
                args.seeds =
                    Some(it.next().and_then(|v| v.parse().ok()).expect("--seeds needs a count"));
            }
            "--trace" => {
                any = true;
                args.trace = Some(it.next().expect("--trace needs a file path"));
            }
            "--trace-baseline" => {
                any = true;
                args.trace_baseline = Some(it.next().expect("--trace-baseline needs a file path"));
            }
            "--plans-baseline" => {
                any = true;
                args.plans_baseline = Some(it.next().expect("--plans-baseline needs a file path"));
            }
            "--lineage-baseline" => {
                any = true;
                args.lineage_baseline =
                    Some(it.next().expect("--lineage-baseline needs a file path"));
            }
            "--mem-baseline" => {
                any = true;
                args.mem_baseline = Some(it.next().expect("--mem-baseline needs a file path"));
            }
            "--chaos" => {
                any = true;
                args.chaos = Some(it.next().expect("--chaos needs a file path"));
            }
            "--chaos-baseline" => {
                any = true;
                args.chaos_baseline = Some(it.next().expect("--chaos-baseline needs a file path"));
            }
            "--optimizer-gate" => {
                any = true;
                args.optimizer_gate =
                    Some(it.next().expect("--optimizer-gate needs a plan-baseline path"));
            }
            "--timeline" => {
                any = true;
                args.timeline = Some(it.next().expect("--timeline needs a file path"));
            }
            "--timeline-baseline" => {
                any = true;
                args.timeline_baseline =
                    Some(it.next().expect("--timeline-baseline needs a file path"));
            }
            "--events-parity" => {
                any = true;
                args.events_parity =
                    Some(it.next().expect("--events-parity needs a baseline path"));
            }
            "--events-baseline" => {
                any = true;
                args.events_baseline =
                    Some(it.next().expect("--events-baseline needs a file path"));
            }
            "--serve-baseline" => {
                any = true;
                args.serve_baseline = Some(it.next().expect("--serve-baseline needs a file path"));
            }
            "--serve-gate" => {
                any = true;
                args.serve_gate = Some(it.next().expect("--serve-gate needs a file path"));
            }
            "--check-baselines" => {
                any = true;
                args.check_baselines = true;
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a positive integer");
                assert!(args.workers > 0, "--workers must be a positive integer");
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed needs u64");
            }
            "--scale" => {
                args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale needs f64");
            }
            "--all" => any = false,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        args.tables = vec![1, 2, 3, 4, 5, 6];
        args.figures = vec![2, 3];
        args.errors = true;
        args.rule_types = true;
        args.extensions = true;
    }
    args
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
    let args = parse_args();
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
        trace_run(&args, path);
    } else if args.trace_baseline.is_some()
        || args.plans_baseline.is_some()
        || args.lineage_baseline.is_some()
        || args.mem_baseline.is_some()
    {
        eprintln!(
            "--trace-baseline / --plans-baseline / --lineage-baseline / --mem-baseline \
             require --trace FILE.jsonl"
        );
        std::process::exit(2);
    }
    if let Some(path) = &args.chaos {
        chaos_run(&args, path);
    } else if args.chaos_baseline.is_some() {
        eprintln!("--chaos-baseline requires --chaos FILE.jsonl");
        std::process::exit(2);
    }
    if let Some(path) = &args.timeline {
        timeline_run(&args, path);
    } else if args.timeline_baseline.is_some() {
        eprintln!("--timeline-baseline requires --timeline FILE.jsonl");
        std::process::exit(2);
    }
    if args.events_parity.is_some() || args.events_baseline.is_some() {
        events_run(&args);
    }
    if args.serve_baseline.is_some() || args.serve_gate.is_some() {
        serve_run(&args);
    }
    if args.check_baselines {
        check_baselines();
    }
    if let Some(baseline_path) = &args.optimizer_gate {
        optimizer_gate(&args, baseline_path);
    }
}

/// `--events-parity` / `--events-baseline`: one chaos run (the
/// `--chaos` fault plan — the configuration that exercises the whole
/// event taxonomy) with a counting telemetry sink attached. First the
/// structural gate: per-kind event counts must match the journal's
/// record counts exactly — every span, fault, retry, degradation,
/// checkpoint, lineage stamp and footprint that reached the journal
/// was also emitted on the bus, and nothing extra was. Then the
/// committed `EventsBaseline` snapshot is either checked exactly or
/// refreshed.
fn events_run(args: &Args) {
    use grm_obs::{CountingSink, EventsBaseline, Recorder};

    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let mut cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_sliding_window(),
        PromptStyle::ZeroShot,
    );
    cfg.seed = args.seed;
    let chaos = ChaosConfig { fault_rate: 0.2, ..ChaosConfig::default() };
    let opts = RunOptions { chaos, ..RunOptions::default() };
    let recorder = Recorder::deterministic();
    let counting = CountingSink::new();
    recorder.attach_sink(counting.clone());
    let status = MiningPipeline::new(cfg).run_with(&data.graph, &recorder, &opts);
    let RunStatus::Complete(_) = status else {
        eprintln!("events run was killed without --kill-after — impossible");
        std::process::exit(1);
    };
    let journal = recorder.snapshot();
    recorder.finish_sinks();
    if recorder.events_dropped() > 0 {
        eprintln!(
            "REGRESSION: the lossless counting sink dropped {} event(s)",
            recorder.events_dropped()
        );
        std::process::exit(1);
    }
    let counts = counting.counts();
    println!("== events parity: WWC2019 / llama3 / SWA / zero-shot, fault-rate 0.2 ==");
    println!("  {} events across {} kinds", counts.values().sum::<u64>(), counts.len());
    let violations = EventsBaseline::parity_violations(&counts, &journal);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        eprintln!("{} event/journal parity violation(s)", violations.len());
        std::process::exit(1);
    }
    println!("  event/journal parity holds across the record taxonomy");
    if let Some(path) = &args.events_baseline {
        let baseline = EventsBaseline::from_counts(&counts);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing events baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("(events-baseline snapshot written to {path})");
    }
    if let Some(path) = &args.events_parity {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("reading {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline: EventsBaseline = match serde_json::from_str(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("parsing {path}: {e}");
                std::process::exit(1);
            }
        };
        let violations = baseline.check(&counts);
        if violations.is_empty() {
            println!("events gate passed: per-kind counts match {path} exactly");
        } else {
            for v in &violations {
                eprintln!("REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// `--serve-baseline` / `--serve-gate`: run the deterministic
/// serving scenario and freeze or check its digest. The harness
/// exercises every failure gate — queue-full and rate-limit
/// shedding, a tenant breaker trip with its 2N-refusal cooldown, a
/// deadline cancellation, and a mid-mine kill resumed across a
/// simulated restart — all on a logical clock, so the resulting
/// `ServeBaseline` is exactly reproducible.
fn serve_run(args: &Args) {
    use grm_serve::{baseline_harness, ServeBaseline};

    let spool_root = std::env::temp_dir().join(format!("grm-serve-repro-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&spool_root) {
        eprintln!("creating {}: {e}", spool_root.display());
        std::process::exit(1);
    }
    let observed = match baseline_harness(args.scale, spool_root.clone()) {
        Ok(observed) => observed,
        Err(e) => {
            eprintln!("serve harness failed: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&spool_root);
    println!("== serve scenario: WWC2019 scale {}, four tenants ==", args.scale);
    println!(
        "  {} submitted, {} accepted, {} completed / {} failed / {} cancelled / {} interrupted",
        observed.jobs_submitted,
        observed.jobs_accepted,
        observed.jobs_completed,
        observed.jobs_failed,
        observed.jobs_cancelled,
        observed.jobs_interrupted
    );
    println!(
        "  shed {} queue-full + {} rate-limited, {} breaker rejection(s) across {} trip(s)",
        observed.shed_queue_full,
        observed.shed_rate_limited,
        observed.rejected_breaker_open,
        observed.breaker_trips
    );
    println!(
        "  {} job(s) resumed after the simulated crash, {} rule(s) mined, queue peaked at {}",
        observed.jobs_resumed, observed.rules_mined, observed.queue_depth_peak
    );
    if let Some(path) = &args.serve_baseline {
        let json = match serde_json::to_string_pretty(&observed) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing serve baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("(serve-baseline snapshot written to {path})");
    }
    if let Some(path) = &args.serve_gate {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("reading {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline: ServeBaseline = match serde_json::from_str(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("parsing {path}: {e}");
                std::process::exit(1);
            }
        };
        let violations = baseline.check(&observed);
        if violations.is_empty() {
            println!("serve gate passed: digest matches {path} exactly");
        } else {
            for v in &violations {
                eprintln!("REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// `--check-baselines`: every committed `BENCH_*.json` snapshot must
/// carry the current journal schema version — a stale baseline would
/// make the regression gates compare against a different era's
/// semantics. Replaces the old grep/jq shell pipeline in ci.yml.
fn check_baselines() {
    let current = journal_version();
    let mut checked = 0usize;
    let mut stale = Vec::new();
    let mut entries: Vec<_> = match std::fs::read_dir(".") {
        Ok(dir) => dir.filter_map(Result::ok).collect(),
        Err(e) => {
            eprintln!("reading working directory: {e}");
            std::process::exit(1);
        }
    };
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = match std::fs::read_to_string(entry.path()) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("reading {name}: {e}");
                std::process::exit(1);
            }
        };
        checked += 1;
        match baseline_journal_version(&text) {
            Some(v) if v == current => {}
            Some(v) => stale.push(format!("{name}: journal_version {v} (current is {current})")),
            None => stale.push(format!("{name}: no journal_version field")),
        }
    }
    if checked == 0 {
        eprintln!("no BENCH_*.json baselines found in the working directory");
        std::process::exit(1);
    }
    if stale.is_empty() {
        println!("baseline check passed: {checked} snapshot(s) at journal schema v{current}");
    } else {
        for s in &stale {
            eprintln!("STALE: {s}");
        }
        eprintln!(
            "{} stale baseline(s) — regenerate with the repro baseline flags \
             (see .github/workflows/ci.yml)",
            stale.len()
        );
        std::process::exit(1);
    }
}

/// The current journal schema version, read from a freshly serialized
/// empty journal's Meta line (grm-obs does not export the constant).
fn journal_version() -> u64 {
    let meta = grm_obs::Recorder::deterministic().snapshot().to_jsonl();
    baseline_journal_version(&meta).expect("a Meta line always carries a version")
}

/// Extracts the `journal_version` (baseline snapshots) or `version`
/// (journal Meta lines) field from a JSON document.
fn baseline_journal_version(text: &str) -> Option<u64> {
    for key in ["\"journal_version\":", "\"version\":"] {
        if let Some(at) = text.find(key) {
            let digits: String = text[at + key.len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(v) = digits.parse() {
                return Some(v);
            }
        }
    }
    None
}

/// `--timeline`: one instrumented *parallel* pipeline run (WWC2019,
/// SWA zero-shot, `--workers` workers, default 4 — the configuration
/// whose worker lanes the timeline reconstruction is about), journal
/// written as JSONL. The recorder runs in deterministic mode, and the
/// v7 start offsets survive it (they are pure sim arithmetic), so two
/// runs with the same seed are byte-identical — CI compares them with
/// `cmp`.
fn timeline_run(args: &Args, path: &str) {
    use grm_obs::Recorder;

    let workers = args.workers;
    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let mut cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_sliding_window(),
        PromptStyle::ZeroShot,
    );
    cfg.seed = args.seed;
    let recorder = Recorder::deterministic();
    let opts = RunOptions { workers, ..RunOptions::default() };
    let report = MiningPipeline::new(cfg)
        .run_with(&data.graph, &recorder, &opts)
        .report()
        .expect("a fault-free run has no kill point");
    let journal = recorder.snapshot();
    if let Err(e) = std::fs::write(path, journal.to_jsonl()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    if let Some(baseline_path) = &args.timeline_baseline {
        let baseline = grm_obs::TimelineBaseline::from_journal(&journal);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing timeline baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(baseline_path, json) {
            eprintln!("writing {baseline_path}: {e}");
            std::process::exit(1);
        }
        println!("(timeline-baseline snapshot written to {baseline_path})");
    }
    println!("== timeline: WWC2019 / llama3 / SWA / zero-shot, {workers} workers ==");
    print!("{}", grm_obs::TimelineReport::from_journal(&journal).render(workers + 1));
    println!(
        "({} rules; journal with {} spans written to {path})",
        report.rule_count(),
        journal.spans.len()
    );
}

/// The optimizer A/B suite: every reference query of the exhaustive
/// (AMIE-style) miner on WWC2019 — the same Filter→Expand→Count
/// shapes the metric scorers run, with head-total queries repeating
/// verbatim across rules sharing a head, so the result memo has real
/// work to do.
fn optimizer_suite(graph: &grm_pgraph::PropertyGraph) -> Vec<String> {
    let mined = grm_baseline::mine_exhaustive(graph, grm_baseline::MinerConfig::default());
    let mut suite = Vec::with_capacity(mined.len() * 3);
    for m in &mined {
        let q = grm_rules::reference_queries(&m.rule);
        suite.push(q.satisfied);
        suite.push(q.body);
        suite.push(q.head_total);
    }
    suite
}

/// One A/B pass: the suite naive, then through a fresh
/// [`grm_cypher::BatchSession`]. Exits non-zero if any query's
/// optimized result set differs from the naive one — the layer's
/// correctness contract, enforced before any perf claim.
fn optimizer_ab(args: &Args) -> grm_obs::OptimizerBaseline {
    use grm_cypher::{execute_profiled, BatchConfig, BatchSession};

    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let graph = &data.graph;
    let suite = optimizer_suite(graph);
    let mut session = BatchSession::new(BatchConfig::default());
    let mut naive_db_hits = 0u64;
    let mut optimized_db_hits = 0u64;
    for q in &suite {
        let (naive_rs, naive_prof) = match execute_profiled(graph, q) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("optimizer suite query failed naively: {e}\n  {q}");
                std::process::exit(1);
            }
        };
        naive_db_hits += naive_prof.db_hits().total();
        let (opt_rs, opt_prof) = match session.execute_profiled(graph, q) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("optimizer suite query failed optimized: {e}\n  {q}");
                std::process::exit(1);
            }
        };
        if let Some(prof) = opt_prof {
            optimized_db_hits += prof.db_hits().total();
        }
        if naive_rs != *opt_rs {
            eprintln!("REGRESSION: optimized execution changed the result set of: {q}");
            std::process::exit(1);
        }
    }
    let stats = session.stats();
    grm_obs::OptimizerBaseline {
        suite_queries: suite.len() as u64,
        naive_db_hits,
        optimized_db_hits,
        plan_cache_lookups: stats.plan_cache.lookups,
        plan_cache_hits: stats.plan_cache.hits,
        memo_hits: stats.memo_hits,
        plan_cache_hit_rate_pct: stats.plan_cache.hit_rate_pct(),
    }
}

/// `--optimizer-gate`: re-run the A/B suite, require the ≥20% db-hits
/// drop, and compare the digest exactly against the committed plan
/// baseline's `optimizer` section.
fn optimizer_gate(args: &Args, baseline_path: &str) {
    let current = optimizer_ab(args);
    println!("== optimizer gate: WWC2019 exhaustive-miner suite ==");
    println!(
        "  {} queries: naive {} db-hits, optimized {} ({:.1}% drop)",
        current.suite_queries,
        current.naive_db_hits,
        current.optimized_db_hits,
        current.db_hits_drop_pct(),
    );
    println!(
        "  plan cache: {}/{} hits ({:.1}%), {} memoized result(s)",
        current.plan_cache_hits,
        current.plan_cache_lookups,
        current.plan_cache_hit_rate_pct,
        current.memo_hits,
    );
    // ≥20% drop, in integers: optimized ≤ 0.8 × naive.
    if current.optimized_db_hits * 5 > current.naive_db_hits * 4 {
        eprintln!(
            "REGRESSION: optimized db-hits dropped only {:.1}% vs naive (≥20% required)",
            current.db_hits_drop_pct()
        );
        std::process::exit(1);
    }
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("reading {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline: grm_obs::PlanBaseline = match serde_json::from_str(&text) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("parsing {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(expected) = baseline.optimizer else {
        eprintln!(
            "{baseline_path} has no optimizer digest — refresh it with \
             `repro --trace run.jsonl --plans-baseline {baseline_path}`"
        );
        std::process::exit(1);
    };
    let violations = expected.check(&current);
    if violations.is_empty() {
        println!("optimizer gate passed: digest matches {baseline_path} exactly");
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        std::process::exit(1);
    }
}

/// `--chaos`: one pipeline run under the canonical fault plan
/// (WWC2019, SWA zero-shot — the configuration with the most retryable
/// units), journal written as JSONL. The recorder runs in
/// deterministic mode so two runs with the same seeds are
/// byte-identical — CI compares them with `cmp`.
fn chaos_run(args: &Args, path: &str) {
    use grm_obs::Recorder;

    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let mut cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_sliding_window(),
        PromptStyle::ZeroShot,
    );
    cfg.seed = args.seed;
    let chaos = ChaosConfig { fault_rate: 0.2, ..ChaosConfig::default() };
    let opts = RunOptions { chaos, ..RunOptions::default() };
    let recorder = Recorder::deterministic();
    let status = MiningPipeline::new(cfg).run_with(&data.graph, &recorder, &opts);
    let RunStatus::Complete(report) = status else {
        eprintln!("chaos run was killed without --kill-after — impossible");
        std::process::exit(1);
    };
    let journal = recorder.snapshot();
    if let Err(e) = std::fs::write(path, journal.to_jsonl()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    if let Some(baseline_path) = &args.chaos_baseline {
        let baseline = grm_obs::ChaosBaseline::from_journal(&journal);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing chaos baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(baseline_path, json) {
            eprintln!("writing {baseline_path}: {e}");
            std::process::exit(1);
        }
        println!("(chaos-baseline snapshot written to {baseline_path})");
    }
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

/// `--trace`: one instrumented pipeline run (WWC2019, RAG zero-shot —
/// the quickest paper configuration), journal written as JSONL.
fn trace_run(args: &Args, path: &str) {
    use grm_obs::Recorder;

    let data = generate(
        DatasetId::Wwc2019,
        &GenConfig { seed: args.seed, scale: args.scale, clean: false },
    );
    let mut cfg = PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_rag(),
        PromptStyle::ZeroShot,
    );
    cfg.seed = args.seed;
    let recorder = Recorder::new();
    let report = MiningPipeline::new(cfg).run_traced(&data.graph, &recorder);
    let journal = recorder.snapshot();
    if let Err(e) = std::fs::write(path, journal.to_jsonl()) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
    if let Some(baseline_path) = &args.trace_baseline {
        let baseline = grm_obs::TraceBaseline::from_journal(&journal);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(baseline_path, json) {
            eprintln!("writing {baseline_path}: {e}");
            std::process::exit(1);
        }
        println!("(baseline snapshot written to {baseline_path})");
    }
    if let Some(plans_path) = &args.plans_baseline {
        let mut baseline = grm_obs::PlanBaseline::from_journal(&journal);
        // Refresh the optimizer A/B digest alongside the per-operator
        // budgets — the two halves of BENCH_plans.json travel together.
        baseline.optimizer = Some(optimizer_ab(args));
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing plan baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(plans_path, json) {
            eprintln!("writing {plans_path}: {e}");
            std::process::exit(1);
        }
        println!("(plan-baseline snapshot written to {plans_path})");
    }
    if let Some(lineage_path) = &args.lineage_baseline {
        let baseline = grm_obs::LineageBaseline::from_journal(&journal);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing lineage baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(lineage_path, json) {
            eprintln!("writing {lineage_path}: {e}");
            std::process::exit(1);
        }
        println!("(lineage-baseline snapshot written to {lineage_path})");
    }
    if let Some(mem_path) = &args.mem_baseline {
        let baseline = grm_obs::MemBaseline::from_journal(&journal);
        let json = match serde_json::to_string_pretty(&baseline) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serializing mem baseline: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(mem_path, json) {
            eprintln!("writing {mem_path}: {e}");
            std::process::exit(1);
        }
        println!("(mem-baseline snapshot written to {mem_path})");
    }
    println!("== trace: WWC2019 / llama3 / RAG / zero-shot ==");
    print!("{}", journal.summary());
    println!(
        "({} rules in {:.1}s simulated; journal with {} spans written to {path})",
        report.rule_count(),
        report.mining_seconds,
        journal.spans.len()
    );
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
