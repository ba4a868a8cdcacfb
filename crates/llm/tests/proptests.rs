//! Property-based tests for the simulated model: totality over
//! arbitrary contexts, determinism, and corruption invariants.

use grm_llm::{
    break_syntax, flip_first_direction, generate_rules, persona, MiningPrompt, ModelKind,
    PromptStyle, SimLlm,
};
use grm_rules::{reference_queries, ConsistencyRule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The generator is total over arbitrary context text.
    #[test]
    fn generator_never_panics(context in ".{0,500}", seed in any::<u64>()) {
        let p = persona(ModelKind::Mixtral);
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = generate_rules(&context, &p, PromptStyle::ZeroShot, None, &mut rng);
    }

    /// Mining respects an explicit rule-count ceiling.
    #[test]
    fn target_rules_is_respected(target in 1usize..6, seed in any::<u64>()) {
        let context = "Graph with 4 nodes and 0 edges.\n\
            Node n0 with labels User has properties {id: 1, name: 'a'}.\n\
            Node n1 with labels User has properties {id: 2, name: 'b'}.\n\
            Node n2 with labels User has properties {id: 3, name: 'c'}.\n\
            Node n3 with labels User has properties {id: 4, name: 'd'}.\n";
        let mut model = SimLlm::new(ModelKind::Llama3, seed);
        let mut prompt = MiningPrompt::new(PromptStyle::ZeroShot, context);
        prompt.target_rules = Some(target);
        let resp = model.mine(&prompt);
        prop_assert!(resp.rules.len() <= target);
    }

    /// Same (kind, seed, prompt) triple, same response — always.
    #[test]
    fn mining_is_deterministic(seed in any::<u64>(), few in any::<bool>()) {
        let style = if few { PromptStyle::FewShot } else { PromptStyle::ZeroShot };
        let context = "Node n0 with labels Tweet has properties {id: 7}.\n\
                       Node n1 with labels Tweet has properties {id: 8}.\n";
        let prompt = MiningPrompt::new(style, context);
        let a = SimLlm::new(ModelKind::Mixtral, seed).mine(&prompt);
        let b = SimLlm::new(ModelKind::Mixtral, seed).mine(&prompt);
        prop_assert_eq!(a.rules, b.rules);
        prop_assert_eq!(a.seconds, b.seconds);
    }

    /// `break_syntax` always yields an unparseable query, whatever
    /// rule it is applied to.
    #[test]
    fn break_syntax_is_reliably_broken(
        label in "[A-Z][a-z]{1,8}",
        key in "[a-z]{1,8}",
    ) {
        let rule = ConsistencyRule::MandatoryProperty { label, key };
        let q = reference_queries(&rule).satisfied;
        prop_assert!(grm_cypher::parse(&break_syntax(&q)).is_err());
    }

    /// Direction flipping is an involution on queries that have a
    /// flippable relationship.
    #[test]
    fn flip_is_an_involution(
        etype in "[A-Z]{2,8}",
        src in "[A-Z][a-z]{1,6}",
        dst in "[A-Z][a-z]{1,6}",
    ) {
        let rule = ConsistencyRule::EdgeEndpointLabels {
            etype,
            src_label: src,
            dst_label: dst,
        };
        let q = reference_queries(&rule).satisfied;
        let once = flip_first_direction(&q).expect("has a relationship");
        let twice = flip_first_direction(&once).expect("still has one");
        prop_assert_eq!(
            grm_cypher::parse(&twice).unwrap(),
            grm_cypher::parse(&q).unwrap()
        );
    }

    /// Simulated time is positive and monotone in prompt size.
    #[test]
    fn invocation_time_monotone(extra in 1usize..5000) {
        let p = persona(ModelKind::Llama3);
        let short = grm_llm::invocation_seconds(&p, 100, 50);
        let long = grm_llm::invocation_seconds(&p, 100 + extra, 50);
        prop_assert!(long > short);
        prop_assert!(short > 0.0);
    }
}

/// Contexts at the head/context seam: empty, blank, leading
/// whitespace, non-ASCII, and encoder lines.
fn prompt_context() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ \t\n]{1,4}",
        "[ \n]{0,2}[a-zé_:.]{0,8}",
        ".{0,200}",
        Just("Node n0 with labels User has properties {id: 1, name: 'a'}.\n".to_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A prompt's token count, taken without rendering it, is the
    /// rendered prompt's.
    #[test]
    fn prompt_token_count_matches_render(
        context in prompt_context(),
        few in any::<bool>(),
        target in prop_oneof![Just(None), (0usize..30).prop_map(Some)],
    ) {
        let style = if few { PromptStyle::FewShot } else { PromptStyle::ZeroShot };
        let mut prompt = MiningPrompt::new(style, context);
        prompt.target_rules = target;
        prop_assert_eq!(prompt.token_count(), grm_textenc::token_count(&prompt.render()));
    }
}
