//! Per-layer readings of in-process pipeline runs, and the end of a
//! traced run: the self-time table and the span file.

use std::collections::BTreeMap;

use grm_core::MiningReport;
use grm_obs::{Counter, Recorder};

use crate::alloc::AllocCount;
use crate::trace::Tracer;
use crate::{Ctx, Metrics};

/// Pipeline stage span (a child of the program's `pipeline` span) →
/// per-layer metric.
const STAGES: [(&str, &str); 9] = [
    ("encode", "textenc.encode_ms"),
    ("chunk", "textenc.chunk_ms"),
    ("summarize", "textenc.summarize_ms"),
    ("rag.ingest", "vecstore.ingest_ms"),
    ("rag.retrieve", "vecstore.retrieve_ms"),
    ("mine", "llm.mine_ms"),
    ("merge", "core.merge_ms"),
    ("translate", "llm.translate_ms"),
    ("evaluate", "metrics.evaluate_ms"),
];

/// Sums over traced pipeline runs, reported per run.
#[derive(Default)]
pub struct PipelineTotals {
    runs: usize,
    stage_ms: BTreeMap<&'static str, f64>,
    counters: BTreeMap<&'static str, u64>,
    db_hits: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

const COUNTERS: [(Counter, &str); 6] = [
    (Counter::PromptsIssued, "prompts"),
    (Counter::PromptTokens, "prompt_tokens"),
    (Counter::CypherQueriesExecuted, "executed"),
    (Counter::CypherQueriesMemoized, "memoized"),
    (Counter::PlanCacheHits, "plan_hits"),
    (Counter::PlanCacheMisses, "plan_misses"),
];

impl PipelineTotals {
    /// Adds one run: its report's stage timings, the recorder's
    /// counters and db-hits, and what it allocated.
    pub fn add(&mut self, report: &MiningReport, recorder: &Recorder, alloc: AllocCount) {
        self.runs += 1;
        for timing in &report.stage_timings {
            if let Some((_, metric)) = STAGES.iter().find(|(stage, _)| *stage == timing.stage) {
                *self.stage_ms.entry(metric).or_default() += timing.real_ms;
            }
        }
        for (counter, key) in COUNTERS {
            *self.counters.entry(key).or_default() += recorder.total(counter);
        }
        self.db_hits += recorder.snapshot().plans.iter().map(|p| p.db_hits()).sum::<u64>();
        self.alloc_count += alloc.count;
        self.alloc_bytes += alloc.bytes;
    }

    pub fn report(&self, m: &mut Metrics) {
        let per_run = |v: f64| v / self.runs.max(1) as f64;
        for (_, metric) in STAGES {
            m.insert(metric, per_run(self.stage_ms.get(metric).copied().unwrap_or(0.0)));
        }
        let c = |key: &str| self.counters.get(key).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.insert("llm.prompts", per_run(c("prompts")));
        m.insert("llm.prompt_tokens", per_run(c("prompt_tokens")));
        m.insert("cypher.queries_executed", per_run(c("executed")));
        m.insert("cypher.db_hits", per_run(self.db_hits as f64));
        m.insert(
            "cypher.plan_cache_hit_ratio",
            ratio(c("plan_hits"), c("plan_hits") + c("plan_misses")),
        );
        m.insert("cypher.memo_hit_ratio", ratio(c("memoized"), c("memoized") + c("executed")));
        m.insert("alloc.count_per_op", per_run(self.alloc_count as f64));
        m.insert("alloc.bytes_per_op", per_run(self.alloc_bytes as f64));
    }
}

/// Notes the self-time table and writes the spans to
/// `.bench_out/spans-<workload>-seed<N>.jsonl`.
pub fn finish_trace(ctx: &Ctx, tracer: &Tracer, notes: &mut Vec<String>) -> Result<(), String> {
    notes.push(format!("{:<18} {:>7} {:>12} {:>12}", "span", "count", "total ms", "self ms"));
    for (name, count, total, self_ms) in tracer.self_times() {
        notes.push(format!("{name:<18} {count:>7} {total:>12.2} {self_ms:>12.2}"));
    }
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let name = ctx.workdir.file_name().and_then(|n| n.to_str()).unwrap_or("run");
    let path = dir.join(format!("spans-{name}.jsonl"));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
