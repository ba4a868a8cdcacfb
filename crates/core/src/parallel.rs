//! Rule mining: the one unit loop behind the serial run and every
//! worker of the fleet — the paper's §5 future-work direction
//! ("future research on efficient rule mining with LLMs should focus
//! on parallelizing the prompting process (e.g., distributing
//! different parts of the graph to multiple LLMs)"), implemented.
//!
//! Windows are dealt round-robin to `workers` independent model
//! instances (in deployment: `workers` model replicas), each running
//! on its own OS thread. The simulated mining time becomes the
//! *maximum* over workers — the wall-clock of the fleet — while the
//! summed compute is also reported. Results are deterministic for a
//! fixed `(seed, workers)`: without chaos each worker's model is
//! seeded from the run seed and its worker index, and mined rules are
//! concatenated in worker order before the merge step; with chaos
//! every unit draws its own seed and rules are reassembled in
//! context order, so the rule set is worker-count-independent.

use std::collections::HashMap;

use grm_llm::{
    GeneratedRule, MiningPrompt, MiningResponse, ModelKind, PromptStyle, ResilientLlm, SimLlm,
};
use grm_obs::Scope;
use grm_resil::{ChaosConfig, Stage, StageSchedule};

use crate::config::PipelineConfig;

/// Outcome of mining a set of contexts with a worker fleet.
#[derive(Debug, Clone)]
pub struct ParallelMining {
    /// Mined rules, in deterministic order (worker-major, or context
    /// order under chaos).
    pub rules: Vec<GeneratedRule>,
    /// Simulated wall-clock: the slowest worker's total, including
    /// fault costs and backoff.
    pub wall_seconds: f64,
    /// Simulated total compute across all workers.
    pub compute_seconds: f64,
    /// Workers that actually received work.
    pub busy_workers: usize,
}

/// Mines `contexts` with `workers` fault-free model replicas.
///
/// # Panics
/// Panics when `workers == 0`.
pub fn mine_parallel(
    contexts: &[String],
    cfg: &PipelineConfig,
    style: PromptStyle,
    target_rules: Option<usize>,
    workers: usize,
) -> ParallelMining {
    let prompts: Vec<MiningPrompt> = contexts
        .iter()
        .map(|context| {
            let mut prompt = MiningPrompt::new(style, context);
            prompt.target_rules = target_rules;
            prompt
        })
        .collect();
    let schedule = ChaosConfig::default().schedule(Stage::Mine, prompts.len());
    let job = MineJob {
        prompts: &prompts,
        llm: ResilientLlm::new(cfg.model, cfg.seed),
        schedule: &schedule,
        checkpoints: &HashMap::new(),
        chaos: false,
    };
    job.fleet(cfg.model, cfg.seed, workers, &Scope::disabled())
}

/// What every mining lane of one run shares: one prompt per context,
/// the mine stage's fault schedule and any checkpoints to replay.
/// `chaos` (`fault_rate > 0`) turns on checkpoint records and
/// per-unit model seeds.
pub(crate) struct MineJob<'a> {
    pub prompts: &'a [MiningPrompt],
    pub llm: ResilientLlm,
    pub schedule: &'a StageSchedule,
    pub checkpoints: &'a HashMap<u64, MiningResponse>,
    pub chaos: bool,
}

/// One lane's mined rules and simulated busy time. `killed` holds the
/// units completed (degraded ones not counted) when the kill point
/// stopped the lane early.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    pub rules: Vec<GeneratedRule>,
    pub seconds: f64,
    pub killed: Option<usize>,
}

impl MineJob<'_> {
    /// The mining unit loop: mines the prompts `units` names, in
    /// order, recording onto `scope`. Live calls draw from `replica`
    /// when given (one model stream per replica), else from per-unit
    /// seeds. With `kill_after = Some(k)` the lane stops once it has
    /// passed `k` units, leaving the checkpoints of the completed ones
    /// behind for resume.
    pub fn lane(
        &self,
        units: impl Iterator<Item = usize>,
        mut replica: Option<&mut SimLlm>,
        scope: &Scope,
        kill_after: Option<usize>,
    ) -> Lane {
        let mut lane = Lane::default();
        let mut completed = 0;
        for (done, ci) in units.enumerate() {
            let replay = self.checkpoints.get(&(ci as u64)).cloned();
            let unit = &self.schedule.units[ci];
            let (response, seconds) = unit.run(scope, self.chaos, || {
                let response = self.llm.respond(unit, replay, replica.as_deref_mut(), |model| {
                    model.mine(&self.prompts[ci])
                });
                let seconds = response.seconds;
                (response, seconds)
            });
            lane.seconds += seconds;
            if let Some(response) = response {
                completed += 1;
                response.record(scope);
                // Stamp the context index after mining: the model
                // never sees it, so lineage cannot perturb its RNG.
                lane.rules.extend(response.rules.into_iter().map(|mut r| {
                    r.origin = ci;
                    r
                }));
            }
            if kill_after.is_some_and(|k| done + 1 >= k && done + 1 < self.prompts.len()) {
                lane.killed = Some(completed);
                break;
            }
        }
        lane
    }

    /// Mines every prompt with `workers` replicas, one `worker-<id>`
    /// child span per replica under `scope`, each starting at the sim
    /// origin (all replicas begin mining the moment the stage opens),
    /// so `grm trace timeline` can place each worker's busy segment.
    ///
    /// Worker spans are opened *before* the threads spawn so span ids
    /// in the journal are deterministic; each thread records onto its
    /// own span, which keeps per-worker counter sums exact under
    /// concurrency.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn fleet(
        &self,
        model: ModelKind,
        seed: u64,
        workers: usize,
        scope: &Scope,
    ) -> ParallelMining {
        assert!(workers > 0, "at least one worker is required");
        let n = self.prompts.len();
        let workers = workers.min(n.max(1));
        let lanes: Vec<Lane> = std::thread::scope(|ts| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let span = scope.span_at(&format!("worker-{w}"), 0.0);
                    ts.spawn(move || {
                        // Each replica gets its own deterministic stream.
                        let mut replica =
                            (!self.chaos).then(|| SimLlm::new(model, seed ^ ((w as u64) << 32)));
                        let lane = self.lane(
                            (w..n).step_by(workers),
                            replica.as_mut(),
                            &span.scope(),
                            None,
                        );
                        span.finish();
                        lane
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        let wall_seconds = lanes.iter().map(|l| l.seconds).fold(0.0, f64::max);
        let compute_seconds = lanes.iter().map(|l| l.seconds).sum();
        let busy_workers = lanes.iter().filter(|l| !l.rules.is_empty()).count();
        let mut rules: Vec<GeneratedRule> = lanes.into_iter().flat_map(|l| l.rules).collect();
        if self.chaos {
            // Stable by origin: within one context the model's order
            // holds, across contexts the serial order is restored.
            rules.sort_by_key(|r| r.origin);
        }
        ParallelMining { rules, wall_seconds, compute_seconds, busy_workers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextStrategy;
    use grm_llm::ModelKind;
    use grm_pgraph::{props, PropertyGraph, Value};
    use grm_textenc::{chunk, encode_incident, WindowConfig};

    fn contexts() -> Vec<String> {
        let mut g = PropertyGraph::new();
        for i in 0..200i64 {
            g.add_node(["User"], props([("id", Value::Int(i))]));
        }
        let text = encode_incident(&g);
        chunk(&text, WindowConfig::new(400, 40)).windows.into_iter().map(|w| w.text).collect()
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::new(
            ModelKind::Llama3,
            ContextStrategy::default_sliding_window(),
            PromptStyle::ZeroShot,
        )
    }

    #[test]
    fn parallel_mining_produces_rules() {
        let ctxs = contexts();
        let out = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 4);
        assert!(!out.rules.is_empty());
        assert!(out.busy_workers > 1);
    }

    #[test]
    fn wall_clock_shrinks_with_workers() {
        let ctxs = contexts();
        let serial = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 1);
        let four = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 4);
        assert!(
            four.wall_seconds < serial.wall_seconds / 2.0,
            "4 workers: {:.1}s vs serial {:.1}s",
            four.wall_seconds,
            serial.wall_seconds
        );
        // Compute is conserved within a small factor (per-call overhead).
        assert!(four.compute_seconds <= serial.compute_seconds * 1.2);
    }

    #[test]
    fn deterministic_for_fixed_worker_count() {
        let ctxs = contexts();
        let a = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 3);
        let b = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 3);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.wall_seconds, b.wall_seconds);
    }

    #[test]
    fn more_workers_than_contexts_is_fine() {
        let ctxs = vec!["Node n0 with labels A has properties {x: 1}.".to_owned()];
        let out = mine_parallel(&ctxs, &cfg(), PromptStyle::ZeroShot, None, 16);
        assert!(out.busy_workers <= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        mine_parallel(&[], &cfg(), PromptStyle::ZeroShot, None, 0);
    }
}
