//! `warm-mine`: a closed loop with one client over graphs generated in
//! memory at set-up. Each op is one serial `MiningPipeline` run that
//! records through an enabled `Recorder`, as `grm mine` does. On each
//! graph the ops cycle through the paper's 8-config grid plus the
//! Summary strategy. No graph load at all: the Figure-1 stages do all
//! the work, so executor and stage changes show here and not on
//! cold-mine.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use grm_core::{ContextStrategy, MiningPipeline, MiningReport, PipelineConfig};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_llm::{ModelKind, PromptStyle};
use grm_obs::Recorder;
use grm_pgraph::PropertyGraph;

use crate::alloc::AllocCount;
use crate::closed::{self, ClosedWorkload};
use crate::golden::{self, Cases, GOLDEN_SEED};
use crate::host::StepClock;
use crate::layers::PipelineTotals;
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Outcome};

/// WWC2019 at 0.2 (494 nodes, 2,960 edges) and Twitter at 0.05
/// (2,168 nodes, 2,825 edges).
const GRAPHS: [(DatasetId, f64); 2] = [(DatasetId::Wwc2019, 0.2), (DatasetId::Twitter, 0.05)];

/// Graphs generated per dataset, each from its own seed. One instance
/// per dataset makes an op's cost, and so the medians, swing with the
/// workload seed; three average that out.
const INSTANCES: u64 = 3;

/// Hash of a report's rule table and scores; wall times are left out.
fn fingerprint(report: &MiningReport) -> u64 {
    let mut h = DefaultHasher::new();
    for r in &report.rules {
        (&r.nl, &r.corrected_cypher, r.frequency).hash(&mut h);
        if let Some(m) = r.metrics {
            (m.support, m.coverage_pct.to_bits(), m.confidence_pct.to_bits()).hash(&mut h);
        }
    }
    let a = &report.aggregate;
    (a.rules, a.support.to_bits(), a.coverage_pct.to_bits(), a.confidence_pct.to_bits())
        .hash(&mut h);
    let c = &report.correctness;
    (c.total, c.correct, c.syntax, c.hallucinated, c.direction, c.other).hash(&mut h);
    (report.prompts, report.windows, report.mining_seconds.to_bits()).hash(&mut h);
    h.finish()
}

/// The paper's 8-config grid plus the Summary strategy.
fn configs() -> Vec<PipelineConfig> {
    let mut configs = PipelineConfig::grid(42);
    configs.push(PipelineConfig::new(
        ModelKind::Llama3,
        ContextStrategy::default_summary(),
        PromptStyle::ZeroShot,
    ));
    configs
}

/// The golden cases: every config on each dataset generated from
/// [`GOLDEN_SEED`], run as an op is.
pub fn golden() -> Result<Cases, String> {
    let mut cases = Vec::new();
    for (id, scale) in GRAPHS {
        let graph = generate(id, &GenConfig { seed: GOLDEN_SEED, scale, clean: false }).graph;
        for config in configs() {
            let name = format!(
                "warm-mine/{}/{:?}/{}/{:?}",
                id.name(),
                config.model,
                config.strategy.name(),
                config.prompting
            );
            let recorder = Recorder::new();
            MiningPipeline::new(config).run_traced(&graph, &recorder);
            cases.push((name, golden::rules_digest(&recorder.snapshot().lineages)));
        }
    }
    Ok(cases)
}

struct WarmMine {
    graphs: Vec<PropertyGraph>,
    configs: Vec<PipelineConfig>,
    /// Set-up's fingerprint per (graph, config), graph-major.
    expected: Vec<u64>,
    totals: PipelineTotals,
}

impl WarmMine {
    fn setup(ctx: &Ctx, clock: &mut StepClock) -> WarmMine {
        let graphs: Vec<PropertyGraph> = (0..INSTANCES)
            .flat_map(|k| GRAPHS.iter().map(move |&(id, scale)| (id, scale, k)))
            .map(|(id, scale, k)| {
                let seed = ctx.seed.wrapping_mul(INSTANCES).wrapping_add(k);
                let graph = generate(id, &GenConfig { seed, scale, clean: false }).graph;
                clock.step();
                graph
            })
            .collect();
        let configs = configs();
        let mut expected = Vec::new();
        for graph in &graphs {
            for config in &configs {
                let report =
                    MiningPipeline::new(config.clone()).run_traced(graph, &Recorder::new());
                expected.push(fingerprint(&report));
                clock.step();
            }
        }
        WarmMine { graphs, configs, expected, totals: PipelineTotals::default() }
    }
}

impl ClosedWorkload for WarmMine {
    fn op(&mut self, i: u64, t: &Tracer) -> (f64, Result<(), String>) {
        // Cycle through the graphs, and step through the configs once
        // per cycle.
        let g = (i % self.graphs.len() as u64) as usize;
        let c = (i / self.graphs.len() as u64 % self.configs.len() as u64) as usize;
        let pipeline = MiningPipeline::new(self.configs[c].clone());
        t.span("op", i, None, |root| {
            let before = AllocCount::now();
            let start = Instant::now();
            let (report, recorder) = t.span("pipeline", i, root, |_| {
                let recorder = Recorder::new();
                (pipeline.run_traced(&self.graphs[g], &recorder), recorder)
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let allocated = AllocCount::now().since(before);
            let got = t.span("check", i, root, |_| fingerprint(&report));
            if t.enabled() {
                self.totals.add(&report, &recorder, allocated);
            }
            let expected = self.expected[g * self.configs.len() + c];
            let checked = if got == expected {
                Ok(())
            } else {
                Err(format!("graph {g} config {c}: report differs from set-up's"))
            };
            (ms, checked)
        })
    }

    fn layer_metrics(&mut self, _t: &Tracer, _ops: usize, m: &mut Metrics) {
        self.totals.report(m);
    }

    fn peak_heap_mb(&self) -> f64 {
        crate::alloc::peak_mb()
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::os::peak_rss_mb(false)
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    closed::run(ctx, |clock| Ok(WarmMine::setup(ctx, clock)))
}
