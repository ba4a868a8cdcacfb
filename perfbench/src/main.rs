//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --grm PATH --workload cold-mine|warm-mine|serve-mix
//!           --seed N --seconds S --trace 0|1 [--all 1]
//! perfbench --grm PATH --workload W --write-golden 1
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds
//! `grm` and this binary first. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`, the latter
//! holding every end-to-end metric (`--trace 0`) or every per-layer
//! metric (`--trace 1`); `--all 1` adds the other list, for
//! `steady.py`. A readable report goes to stderr. `--write-golden 1`
//! measures nothing: it rewrites the workload's expected outputs in
//! `perfbench/golden.json`. See `perfbench/README.md` for the workloads
//! and metrics.

mod alloc;
mod closed;
mod cold;
mod golden;
mod host;
mod layers;
mod os;
mod serve;
mod stats;
mod trace;
mod warm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["cold-mine", "warm-mine", "serve-mix"];

/// Printed with `--trace 0`; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`; `BENCHMARK.json` lists the same names. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("load.read_ms", "ms"),
    ("load.decode_ms", "ms"),
    ("load.build_ms", "ms"),
    ("load.bytes", "bytes"),
    ("load.decode_scaling", "ratio"),
    ("journal.encode_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("report.encode_ms", "ms"),
    ("io.write_ms", "ms"),
    ("process.overhead_ms", "ms"),
    ("textenc.encode_ms", "ms"),
    ("textenc.chunk_ms", "ms"),
    ("textenc.summarize_ms", "ms"),
    ("vecstore.ingest_ms", "ms"),
    ("vecstore.retrieve_ms", "ms"),
    ("llm.mine_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("llm.translate_ms", "ms"),
    ("llm.prompts", "count"),
    ("llm.prompt_tokens", "count"),
    ("metrics.evaluate_ms", "ms"),
    ("cypher.queries_executed", "count"),
    ("cypher.db_hits", "count"),
    ("cypher.plan_cache_hit_ratio", "ratio"),
    ("cypher.memo_hit_ratio", "ratio"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("http.submit_ms.p50", "ms"),
    ("http.submit_ms.p95", "ms"),
    ("http.status_ms.p50", "ms"),
    ("http.status_ms.p95", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.exec_ms.check", "ms"),
    ("serve.exec_ms.mine", "ms"),
    ("serve.exec_ms.explain", "ms"),
    ("serve.wal_bytes_per_job", "bytes"),
    ("serve.journal_bytes_per_mine", "bytes"),
    ("serve.queue_depth_peak", "count"),
    ("host.ref_ms.p50", "ms"),
    ("host.ref_ms.iqr", "ms"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_tail_ms", "ms"),
    ("gen.late_ms.p95", "ms"),
    ("gen.late_ms.max", "ms"),
    ("trace.overhead_pct", "%"),
    ("failed_ratio", "ratio"),
];

/// Metric values by name, as a workload run measured them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub grm: PathBuf,
    pub workdir: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the readable report.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Readable lines for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    all: bool,
    write_golden: bool,
    grm: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        all: false,
        write_golden: false,
        grm: PathBuf::from(".bench_build/release/grm"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.traced = value == "1",
            "--all" => args.all = value == "1",
            "--write-golden" => args.write_golden = value == "1",
            "--grm" => args.grm = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    if !args.grm.is_file() {
        return Err(format!("no grm binary at {}", args.grm.display()));
    }
    Ok(args)
}

fn unknown(workload: &str) -> String {
    format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", "))
}

/// The workload's op on the golden inputs (see `golden`).
fn golden_cases(workload: &str, ctx: &Ctx) -> Result<golden::Cases, String> {
    match workload {
        "cold-mine" => cold::golden(ctx),
        "warm-mine" => warm::golden(),
        "serve-mix" => serve::golden(ctx),
        other => Err(unknown(other)),
    }
}

/// Measures the workload, then checks its golden cases.
fn measure(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "cold-mine" => cold::run(ctx),
        "warm-mine" => warm::run(ctx),
        "serve-mix" => serve::run(ctx),
        other => Err(unknown(other)),
    }?;
    let cases = golden_cases(workload, ctx)?;
    let mismatches = golden::check(&cases)?;
    outcome.notes.push(format!(
        "golden: {} of {} cases match perfbench/golden.json",
        cases.len() - mismatches.len(),
        cases.len()
    ));
    outcome.errors.extend(mismatches);
    Ok(outcome)
}

/// Runs `f` in a working directory of its own under `.bench_work`,
/// removed afterwards.
fn in_workdir<T>(
    workload: &str,
    args: &Args,
    f: impl FnOnce(&Ctx) -> Result<T, String>,
) -> Result<T, String> {
    let workdir = PathBuf::from(".bench_work").join(format!(
        "{workload}-seed{}-pid{}",
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&workdir)
        .map_err(|e| format!("creating {}: {e}", workdir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        grm: args.grm.clone(),
        workdir: workdir.clone(),
    };
    let result = f(&ctx);
    let _ = std::fs::remove_dir_all(&workdir);
    result
}

fn run_workload(workload: &str, args: &Args) -> Result<Outcome, String> {
    let mut outcome = in_workdir(workload, args, |ctx| measure(workload, ctx))?;
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.insert("failed_ratio", failed_ratio);
    outcome.notes.push(format!(
        "{} ops, {} failed (failed_ratio {failed_ratio})",
        outcome.attempted, outcome.failed
    ));
    Ok(outcome)
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_outcome(workload: &str, outcome: &Outcome, traced: bool, all: bool) {
    let list: Vec<(&str, &str)> = match (traced, all) {
        (_, true) => END_TO_END.iter().chain(&PER_LAYER).copied().collect(),
        (true, false) => PER_LAYER.to_vec(),
        (false, false) => END_TO_END.to_vec(),
    };
    eprintln!("== {workload} ({})", if traced { "traced" } else { "untraced" });
    for line in &outcome.notes {
        eprintln!("   {line}");
    }
    for (name, unit) in &list {
        eprintln!("   {name:<30} {:>14.4} {unit}", outcome.metrics.get(name).unwrap_or(&0.0));
    }
    for e in &outcome.errors {
        eprintln!("   CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(v))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required (one of {})", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    if args.write_golden {
        let written = in_workdir(workload, &args, |ctx| {
            golden::write(workload, &golden_cases(workload, ctx)?)
        });
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_workload(workload, &args) {
        Ok(outcome) => {
            print_outcome(workload, &outcome, args.traced, args.all);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
