//! The simulated language model: persona + seeded randomness + the
//! generation/translation machinery, behind one object.

use grm_rules::ConsistencyRule;
use grm_textenc::token_count;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::generator::{generate_rules, GeneratedRule};
use crate::persona::{persona, ModelKind, Persona};
use crate::prompt::{MiningPrompt, TranslationPrompt};
use crate::timing::{invocation_seconds, Stopwatch};
use crate::translate::{translate, Translation};

/// Result of one rule-mining invocation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MiningResponse {
    pub rules: Vec<GeneratedRule>,
    pub prompt_tokens: usize,
    pub completion_tokens: usize,
    /// Simulated wall-clock seconds for this call.
    pub seconds: f64,
}

/// Result of one translation invocation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TranslationResponse {
    pub translation: Translation,
    pub prompt_tokens: usize,
    pub completion_tokens: usize,
    pub seconds: f64,
}

/// A simulated LLM with a fixed persona and seeded randomness.
///
/// The same `(kind, seed)` pair reproduces the same behaviour — the
/// property that makes the whole study replayable.
#[derive(Debug)]
pub struct SimLlm {
    persona: Persona,
    rng: StdRng,
    /// Cumulative simulated time across calls.
    pub stopwatch: Stopwatch,
}

impl SimLlm {
    /// Creates the model for `kind` with deterministic seeding.
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        let persona = persona(kind);
        let tag = match kind {
            ModelKind::Llama3 => 0x11a3,
            ModelKind::Mixtral => 0x3174,
        };
        SimLlm { persona, rng: StdRng::seed_from_u64(seed ^ tag), stopwatch: Stopwatch::default() }
    }

    /// The persona in force.
    pub fn persona(&self) -> &Persona {
        &self.persona
    }

    /// Which model this simulates.
    pub fn kind(&self) -> ModelKind {
        self.persona.kind
    }

    /// Mines consistency rules from the prompt. The model sees *only*
    /// the prompt's context — window or RAG retrieval — which is what
    /// makes the two context strategies measurably different.
    pub fn mine(&mut self, prompt: &MiningPrompt) -> MiningResponse {
        let prompt_tokens = prompt.token_count();
        let rules = generate_rules(
            prompt.context(),
            &self.persona,
            prompt.style,
            prompt.target_rules,
            &mut self.rng,
        );
        // Completion length: the NL statements plus chatter. Without
        // exemplars the model rambles more around each rule, which is
        // a real contributor to the paper's zero-shot > few-shot
        // mining times (Table 5).
        let chatter = match prompt.style {
            crate::prompt::PromptStyle::ZeroShot => 80,
            crate::prompt::PromptStyle::FewShot => 25,
        };
        let completion_tokens: usize =
            chatter + rules.iter().map(|r| token_count(&r.nl) + 8).sum::<usize>();
        let seconds = invocation_seconds(&self.persona, prompt_tokens, completion_tokens);
        self.stopwatch.record(&self.persona, prompt_tokens, completion_tokens);
        MiningResponse { rules, prompt_tokens, completion_tokens, seconds }
    }

    /// Translates one mined rule to Cypher (step 2 of the pipeline),
    /// with the persona's error profile.
    pub fn translate_rule(
        &mut self,
        rule: &ConsistencyRule,
        schema_summary: &str,
    ) -> TranslationResponse {
        let translation = translate(rule, &self.persona, &mut self.rng);
        let prompt = TranslationPrompt {
            rule_nl: grm_rules::to_nl(rule),
            schema_summary: schema_summary.to_owned(),
        };
        let prompt_tokens = prompt.token_count();
        let completion_tokens = token_count(&translation.cypher) + 10;
        let seconds = invocation_seconds(&self.persona, prompt_tokens, completion_tokens);
        self.stopwatch.record(&self.persona, prompt_tokens, completion_tokens);
        TranslationResponse { translation, prompt_tokens, completion_tokens, seconds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::PromptStyle;
    use grm_pgraph::{props, PropertyGraph, Value};
    use grm_textenc::encode_incident;

    fn context() -> String {
        let mut g = PropertyGraph::new();
        for i in 0..10i64 {
            g.add_node(["User"], props([("id", Value::Int(i))]));
        }
        encode_incident(&g)
    }

    #[test]
    fn same_seed_same_behaviour() {
        let prompt = MiningPrompt::new(PromptStyle::ZeroShot, context());
        let mut a = SimLlm::new(ModelKind::Llama3, 7);
        let mut b = SimLlm::new(ModelKind::Llama3, 7);
        let ra = a.mine(&prompt);
        let rb = b.mine(&prompt);
        assert_eq!(ra.rules, rb.rules);
        assert_eq!(ra.seconds, rb.seconds);
    }

    #[test]
    fn different_seeds_can_differ() {
        let prompt = MiningPrompt::new(PromptStyle::ZeroShot, context());
        let mut outputs = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut m = SimLlm::new(ModelKind::Mixtral, seed);
            let r = m.mine(&prompt);
            outputs.insert(format!("{:?}", r.rules));
        }
        assert!(outputs.len() > 1, "personas should vary across seeds");
    }

    #[test]
    fn stopwatch_accumulates_across_calls() {
        let prompt = MiningPrompt::new(PromptStyle::ZeroShot, context());
        let mut m = SimLlm::new(ModelKind::Llama3, 1);
        m.mine(&prompt);
        let after_one = m.stopwatch.seconds;
        m.mine(&prompt);
        assert!(m.stopwatch.seconds > after_one);
        assert_eq!(m.stopwatch.calls, 2);
    }

    #[test]
    fn translation_produces_runnable_or_detectably_broken_cypher() {
        let mut m = SimLlm::new(ModelKind::Mixtral, 5);
        let rule = ConsistencyRule::UniqueProperty { label: "User".into(), key: "id".into() };
        let resp = m.translate_rule(&rule, "Node labels:\n  User (id)");
        // Either it parses, or a corruption was recorded.
        let parses = grm_cypher::parse(&resp.translation.cypher).is_ok();
        assert!(parses || resp.translation.corruption.is_some());
    }
}
