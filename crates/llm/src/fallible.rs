//! Fallible, retryable LLM calls — [`SimLlm`] wrapped behind the
//! chaos plan from `grm-resil`.
//!
//! [`ResilientLlm`] issues every LLM call of a pipeline run: each
//! call site supplies its precomputed [`UnitPlan`] and gets a
//! `Result` back — `Ok` with the response and the unit's retry cost,
//! or `Err` when the plan abandoned the unit or the stage breaker
//! skipped it. Under a fault-free plan every unit completes on its
//! first attempt and no fault record is written, so the same path
//! serves plain runs. Three properties make runs replayable:
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
use grm_resil::{mix, record_unit, Stage, UnitOutcome, UnitPlan};
use grm_rules::ConsistencyRule;

use crate::model::{MiningResponse, SimLlm, Timed, TranslationResponse};
use crate::persona::ModelKind;
use crate::prompt::MiningPrompt;

/// The deterministic seed of one unit's model stream.
pub fn unit_model_seed(run_seed: u64, stage: Stage, key: u64) -> u64 {
    mix(mix(run_seed, stage.tag()), key)
}

/// A completed fallible call: the response plus what it cost to get.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientCall<T> {
    /// The stage response, live or replayed.
    pub response: T,
    /// Attempts made, including the successful one.
    pub attempts: u32,
    /// Simulated seconds lost to faults and backoff before success.
    pub fault_seconds: f64,
}

/// Why a fallible call produced no response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CallSkip {
    /// The stage circuit breaker was open; no attempt was made.
    BreakerOpen,
    /// Every attempt faulted; the unit's work is lost.
    Abandoned {
        /// Attempts made before giving up.
        attempts: u32,
        /// Simulated seconds burned on the failed attempts.
        fault_seconds: f64,
    },
}

/// A [`SimLlm`] factory that runs units under a fault plan. Holds no
/// model state itself — a unit without a caller-supplied replica gets
/// a fresh, unit-seeded model, which is what makes retries and resume
/// converge.
#[derive(Debug, Clone, Copy)]
pub struct ResilientLlm {
    kind: ModelKind,
    run_seed: u64,
}

impl ResilientLlm {
    pub fn new(kind: ModelKind, run_seed: u64) -> Self {
        ResilientLlm { kind, run_seed }
    }

    /// Mines one context under the unit's fault plan. `replay` is the
    /// checkpointed response of a resumed run, substituted for the
    /// live model call; `replica` is the model whose stream a live
    /// call draws from (a unit-seeded model when `None`). Records
    /// and counters are emitted either way.
    pub fn mine(
        &self,
        unit: &UnitPlan,
        prompt: &MiningPrompt,
        replay: Option<MiningResponse>,
        replica: Option<&mut SimLlm>,
        scope: &Scope,
    ) -> Result<ResilientCall<MiningResponse>, CallSkip> {
        let call = self.call(unit, replay, replica, scope, |model| model.mine(prompt))?;
        let response = &call.response;
        scope.add(Counter::PromptsIssued, 1);
        scope.add(Counter::PromptTokens, response.prompt_tokens as u64);
        scope.add(Counter::CompletionTokens, response.completion_tokens as u64);
        scope.add(Counter::RulesMined, response.rules.len() as u64);
        scope.add_sim_seconds(response.seconds);
        scope.observe(Histo::MineCallSeconds, response.seconds);
        Ok(call)
    }

    /// Translates one rule under the unit's fault plan; same replay,
    /// replica and record semantics as [`ResilientLlm::mine`].
    /// `prompts_issued` stays a mining-only counter so it matches
    /// the report's prompt count.
    pub fn translate(
        &self,
        unit: &UnitPlan,
        rule: &ConsistencyRule,
        schema_summary: &str,
        replay: Option<TranslationResponse>,
        replica: Option<&mut SimLlm>,
        scope: &Scope,
    ) -> Result<ResilientCall<TranslationResponse>, CallSkip> {
        let call = self.call(unit, replay, replica, scope, |model| {
            model.translate_rule(rule, schema_summary)
        })?;
        let response = &call.response;
        scope.add(Counter::RulesTranslated, 1);
        scope.add(Counter::PromptTokens, response.prompt_tokens as u64);
        scope.add(Counter::CompletionTokens, response.completion_tokens as u64);
        scope.add_sim_seconds(response.seconds);
        scope.observe(Histo::TranslateCallSeconds, response.seconds);
        Ok(call)
    }

    /// The shared retry envelope: skips breaker-open units, obtains
    /// the response (replayed, from the replica, or from a unit-seeded
    /// model), journals the unit's outcome with
    /// [`grm_resil::record_unit`], and fails abandoned units.
    fn call<T: Timed>(
        &self,
        unit: &UnitPlan,
        replay: Option<T>,
        replica: Option<&mut SimLlm>,
        scope: &Scope,
        live: impl FnOnce(&mut SimLlm) -> T,
    ) -> Result<ResilientCall<T>, CallSkip> {
        if unit.outcome == UnitOutcome::SkippedByBreaker {
            record_unit(unit, 0.0, scope);
            return Err(CallSkip::BreakerOpen);
        }
        let response = match (replay, replica) {
            (Some(response), _) => response,
            (None, Some(model)) => live(model),
            (None, None) => live(&mut SimLlm::new(
                self.kind,
                unit_model_seed(self.run_seed, unit.stage, unit.key),
            )),
        };
        let fault_seconds = record_unit(unit, response.seconds(), scope);
        if unit.outcome == UnitOutcome::Abandoned {
            return Err(CallSkip::Abandoned { attempts: unit.attempts(), fault_seconds });
        }
        Ok(ResilientCall { response, attempts: unit.attempts(), fault_seconds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_obs::Recorder;
    use grm_resil::{ChaosConfig, FaultPlan};

    fn prompt() -> MiningPrompt {
        use crate::prompt::PromptStyle;
        MiningPrompt::new(
            PromptStyle::ZeroShot,
            "n0 [User] id=0\nn1 [User] id=1\nn2 [User] id=2\n".to_owned(),
        )
    }

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(ChaosConfig { fault_rate: rate, ..ChaosConfig::default() })
    }

    #[test]
    fn clean_unit_matches_direct_model_call() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let p = plan(0.0);
        let unit = p.unit(Stage::Mine, 3);
        let rec = Recorder::new();
        let scope = rec.root_scope();
        let call = llm.mine(&unit, &prompt(), None, None, &scope).unwrap();
        assert_eq!(call.attempts, 1);
        assert_eq!(call.fault_seconds, 0.0);
        let mut direct = SimLlm::new(ModelKind::Llama3, unit_model_seed(42, Stage::Mine, 3));
        let expected = direct.mine(&prompt());
        assert_eq!(call.response, expected);
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
            let call = llm.mine(&unit, &prompt(), None, Some(&mut replica), &scope).unwrap();
            assert_eq!(call.response, direct.mine(&prompt()));
            assert_eq!(call.fault_seconds, 0.0);
        }
    }

    #[test]
    fn replay_skips_the_model_but_repeats_records() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let p = plan(0.4);
        // Find a unit that completes after at least one fault.
        let unit = (0..200)
            .map(|k| p.unit(Stage::Mine, k))
            .find(|u| !u.faults.is_empty() && !u.is_degraded())
            .expect("some unit retries and recovers at rate 0.4");
        let live_rec = Recorder::new();
        let live = llm.mine(&unit, &prompt(), None, None, &live_rec.root_scope()).unwrap();
        let replay_rec = Recorder::new();
        let replayed = llm
            .mine(&unit, &prompt(), Some(live.response.clone()), None, &replay_rec.root_scope())
            .unwrap();
        assert_eq!(replayed, live);
        assert_eq!(live_rec.snapshot().to_jsonl(), replay_rec.snapshot().to_jsonl());
        assert_eq!(live_rec.total(Counter::LlmCallsRetried), 1);
    }

    #[test]
    fn abandoned_unit_errs_and_counts() {
        let llm = ResilientLlm::new(ModelKind::Mixtral, 7);
        let p = plan(1.0);
        let unit = p.unit(Stage::Mine, 0);
        let rec = Recorder::new();
        let err = llm.mine(&unit, &prompt(), None, None, &rec.root_scope()).unwrap_err();
        assert!(matches!(
            err,
            CallSkip::Abandoned { attempts, fault_seconds }
                if attempts == p.chaos.max_retries + 1 && fault_seconds > 0.0
        ));
        assert_eq!(rec.total(Counter::LlmCallsAbandoned), 1);
        assert_eq!(rec.total(Counter::WindowsDegraded), 1);
        assert_eq!(rec.total(Counter::PromptsIssued), 0);
        assert_eq!(rec.total(Counter::FaultsInjected), (p.chaos.max_retries + 1) as u64);
    }

    #[test]
    fn breaker_skip_degrades_without_faults() {
        let llm = ResilientLlm::new(ModelKind::Llama3, 42);
        let p = plan(1.0);
        let sched = p.schedule(Stage::Mine, 8);
        let skipped = sched
            .units
            .iter()
            .find(|u| u.outcome == UnitOutcome::SkippedByBreaker)
            .expect("breaker opens at rate 1.0");
        let rec = Recorder::new();
        let err = llm.mine(skipped, &prompt(), None, None, &rec.root_scope()).unwrap_err();
        assert_eq!(err, CallSkip::BreakerOpen);
        assert_eq!(rec.total(Counter::FaultsInjected), 0);
        assert_eq!(rec.total(Counter::WindowsDegraded), 1);
        let journal = rec.snapshot();
        assert!(journal.retries.is_empty());
        assert_eq!(journal.degraded[0].reason, "breaker_open");
    }
}
