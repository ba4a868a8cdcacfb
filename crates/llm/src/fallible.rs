//! LLM calls as chaos units — [`SimLlm`] behind the fault plan of
//! `grm-resil`.
//!
//! Every LLM call of a pipeline run is one unit that
//! [`UnitPlan::run`] runs, prices, journals and checkpoints;
//! [`ResilientLlm::respond`] is the call it runs, and a completed
//! unit's response books its tokens and seconds with
//! [`MiningResponse::record`] or [`TranslationResponse::record`].
//! Under a fault-free plan every unit completes on its first attempt
//! and no fault record is written, so the same path serves plain runs.
//! Three properties make runs replayable:
//!
//! * **replica streams** — a caller passing a `replica` model draws
//!   the response from that model's running stream: the fault-free
//!   pipeline's one stream per replica;
//! * **per-unit model seeds** — without a replica each unit draws
//!   from its own RNG stream keyed on `(run seed, stage, unit key)`,
//!   so a retried or resumed unit converges on the same response
//!   regardless of how many faults preceded it;
//! * **checkpoint replay** — a caller holding a checkpointed response
//!   passes it as `replay` and the model is never invoked, yet every
//!   fault/retry record and counter is re-emitted identically, so a
//!   resumed run's journal is byte-identical to an uninterrupted one.

use grm_obs::{Counter, Histo, Scope};
use grm_resil::{mix, Stage, UnitPlan};

use crate::model::{MiningResponse, SimLlm, TranslationResponse};
use crate::persona::ModelKind;

/// The deterministic seed of one unit's model stream.
pub fn unit_model_seed(run_seed: u64, stage: Stage, key: u64) -> u64 {
    mix(mix(run_seed, stage.tag()), key)
}

/// A [`SimLlm`] factory for chaos units. Holds no model state itself —
/// a unit without a caller-supplied replica gets a fresh, unit-seeded
/// model, which is what makes retries and resume converge.
#[derive(Debug, Clone, Copy)]
pub struct ResilientLlm {
    kind: ModelKind,
    run_seed: u64,
}

impl ResilientLlm {
    pub fn new(kind: ModelKind, run_seed: u64) -> Self {
        ResilientLlm { kind, run_seed }
    }

    /// The response of `unit`'s call: the checkpointed `replay` of a
    /// resumed run, else `ask` on the `replica` whose stream the call
    /// draws from, else `ask` on a model seeded for the unit.
    pub fn respond<T>(
        &self,
        unit: &UnitPlan,
        replay: Option<T>,
        replica: Option<&mut SimLlm>,
        ask: impl FnOnce(&mut SimLlm) -> T,
    ) -> T {
        match (replay, replica) {
            (Some(response), _) => response,
            (None, Some(model)) => ask(model),
            (None, None) => ask(&mut SimLlm::new(
                self.kind,
                unit_model_seed(self.run_seed, unit.stage, unit.key),
            )),
        }
    }
}

impl MiningResponse {
    /// Books a completed mining unit on `scope`: its prompt, tokens,
    /// rules and simulated seconds.
    pub fn record(&self, scope: &Scope) {
        scope.add(Counter::PromptsIssued, 1);
        scope.add(Counter::PromptTokens, self.prompt_tokens as u64);
        scope.add(Counter::CompletionTokens, self.completion_tokens as u64);
        scope.add(Counter::RulesMined, self.rules.len() as u64);
        scope.add_sim_seconds(self.seconds);
        scope.observe(Histo::MineCallSeconds, self.seconds);
    }
}

impl TranslationResponse {
    /// Books a completed translation unit on `scope`. `prompts_issued`
    /// stays a mining-only counter so it matches the report's prompt
    /// count.
    pub fn record(&self, scope: &Scope) {
        scope.add(Counter::RulesTranslated, 1);
        scope.add(Counter::PromptTokens, self.prompt_tokens as u64);
        scope.add(Counter::CompletionTokens, self.completion_tokens as u64);
        scope.add_sim_seconds(self.seconds);
        scope.observe(Histo::TranslateCallSeconds, self.seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_obs::Recorder;
    use grm_resil::{ChaosConfig, UnitOutcome};

    use crate::prompt::MiningPrompt;

    fn prompt() -> MiningPrompt {
        use crate::prompt::PromptStyle;
        MiningPrompt::new(
            PromptStyle::ZeroShot,
            "n0 [User] id=0\nn1 [User] id=1\nn2 [User] id=2\n".to_owned(),
        )
    }

    fn plan(rate: f64) -> ChaosConfig {
        ChaosConfig { fault_rate: rate, ..ChaosConfig::default() }
    }

    /// One mining unit the way the pipeline's mining lane runs it,
    /// checkpointing as a chaos run does.
    fn mine(
        llm: &ResilientLlm,
        unit: &UnitPlan,
        replay: Option<MiningResponse>,
        replica: Option<&mut SimLlm>,
        scope: &Scope,
    ) -> (Option<MiningResponse>, f64) {
        let (response, seconds) = unit.run(scope, true, || {
            let response = llm.respond(unit, replay, replica, |model| model.mine(&prompt()));
            let seconds = response.seconds;
            (response, seconds)
        });
        if let Some(response) = &response {
            response.record(scope);
        }
        (response, seconds)
    }

    #[test]
    fn clean_unit_matches_direct_model_call() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let unit = plan(0.0).unit(Stage::Mine, 3);
        let rec = Recorder::new();
        let (response, seconds) = mine(&llm, &unit, None, None, &rec.root_scope());
        let response = response.expect("a clean unit completes");
        let mut direct = SimLlm::new(ModelKind::Llama3, unit_model_seed(42, Stage::Mine, 3));
        assert_eq!(response, direct.mine(&prompt()));
        // One attempt, nothing lost to faults: only the call's seconds.
        assert_eq!(seconds, response.seconds);
        let journal = rec.snapshot();
        assert!(journal.retries.is_empty());
        assert_eq!(journal.checkpoints.len(), 1);
        assert_eq!(rec.total(Counter::PromptsIssued), 1);
        assert_eq!(rec.total(Counter::FaultsInjected), 0);
    }

    #[test]
    fn replica_calls_continue_the_replica_stream() {
        // Under an inert plan a replica-backed unit is exactly the
        // replica's next call: two units on one replica match two
        // calls on a plain model of the same seed.
        let llm = ResilientLlm::new(ModelKind::Mixtral, 42);
        let p = plan(0.0);
        let mut replica = SimLlm::new(ModelKind::Mixtral, 42);
        let mut direct = SimLlm::new(ModelKind::Mixtral, 42);
        let scope = Scope::disabled();
        for key in 0..2 {
            let unit = p.unit(Stage::Mine, key);
            let (response, seconds) = mine(&llm, &unit, None, Some(&mut replica), &scope);
            let response = response.expect("a clean unit completes");
            assert_eq!(response, direct.mine(&prompt()));
            assert_eq!(seconds, response.seconds);
        }
    }

    #[test]
    fn replay_skips_the_model_but_repeats_records() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let p = plan(0.4);
        // Find a unit that completes after at least one fault.
        let unit = (0..200)
            .map(|k| p.unit(Stage::Mine, k))
            .find(|u| !u.faults.is_empty() && matches!(u.outcome, UnitOutcome::Completed { .. }))
            .expect("some unit retries and recovers at rate 0.4");
        let live_rec = Recorder::new();
        let live = mine(&llm, &unit, None, None, &live_rec.root_scope());
        let replay_rec = Recorder::new();
        let replayed = mine(&llm, &unit, live.0.clone(), None, &replay_rec.root_scope());
        assert_eq!(replayed, live);
        assert!(live.1 > live.0.as_ref().unwrap().seconds, "fault seconds are added");
        assert_eq!(live_rec.snapshot().to_jsonl(), replay_rec.snapshot().to_jsonl());
        assert_eq!(live_rec.total(Counter::LlmCallsRetried), 1);
        assert_eq!(live_rec.snapshot().retries[0].attempts, unit.attempts() as u64);
    }

    #[test]
    fn abandoned_unit_errs_and_counts() {
        let llm = ResilientLlm::new(ModelKind::Mixtral, 7);
        let p = plan(1.0);
        let unit = p.unit(Stage::Mine, 0);
        let rec = Recorder::new();
        let (response, seconds) = mine(&llm, &unit, None, None, &rec.root_scope());
        assert_eq!(response, None);
        assert!(seconds > 0.0, "the failed attempts cost time");
        let journal = rec.snapshot();
        assert_eq!(journal.retries.len(), 1);
        assert_eq!(journal.retries[0].attempts, (p.max_retries + 1) as u64);
        assert!(!journal.retries[0].recovered);
        assert!(journal.checkpoints.is_empty());
        assert_eq!(rec.total(Counter::LlmCallsAbandoned), 1);
        assert_eq!(rec.total(Counter::WindowsDegraded), 1);
        assert_eq!(rec.total(Counter::PromptsIssued), 0);
        assert_eq!(rec.total(Counter::FaultsInjected), (p.max_retries + 1) as u64);
    }

    #[test]
    fn breaker_skip_degrades_without_faults() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let sched = plan(1.0).schedule(Stage::Mine, 8);
        let skipped = sched
            .units
            .iter()
            .find(|u| u.outcome == UnitOutcome::SkippedByBreaker)
            .expect("breaker opens at rate 1.0");
        let rec = Recorder::new();
        let (response, seconds) = mine(&llm, skipped, None, None, &rec.root_scope());
        assert_eq!((response, seconds), (None, 0.0));
        assert_eq!(rec.total(Counter::FaultsInjected), 0);
        assert_eq!(rec.total(Counter::WindowsDegraded), 1);
        let journal = rec.snapshot();
        assert!(journal.retries.is_empty());
        assert_eq!(journal.degraded[0].reason, "breaker_open");
    }
}
