//! Prompt construction (Figure 3 of the paper).
//!
//! Two prompt styles drive rule generation:
//!
//! * **zero-shot** — the encoded graph plus an instruction to
//!   "generate consistency rules (in terms of graph functional and
//!   entity dependency rules)";
//! * **few-shot** — the same, preceded by exemplar rules.
//!
//! A second prompt template asks for the Cypher translation of a rule
//! given schema facts (§3.2: "the prompt included generated rules and
//! information about the property graph including nodes edge labels,
//! and properties").

use grm_textenc::token_count;

/// Prompting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PromptStyle {
    ZeroShot,
    FewShot,
}

impl PromptStyle {
    /// Both styles, in the paper's table order.
    pub const ALL: [PromptStyle; 2] = [PromptStyle::ZeroShot, PromptStyle::FewShot];

    /// Display name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PromptStyle::ZeroShot => "Zero-shot",
            PromptStyle::FewShot => "Few-shot",
        }
    }
}

/// The instruction shared by both styles.
pub const RULE_MINING_INSTRUCTION: &str = "You are given a property graph encoded as text. \
Generate consistency rules for this graph, in terms of graph functional dependency (GFD) \
and graph entity dependency (GED) rules. State each rule as one English sentence.";

/// The few-shot exemplars (Figure 3b). They deliberately showcase the
/// simple schema-rule families, which is why few-shot "doesn't seem to
/// change the type of rules generated" (§4.5) but grounds them better.
pub const FEW_SHOT_EXAMPLES: [&str; 3] = [
    "Each Person node should have a unique id property.",
    "Each Order node should have a date property.",
    "Every PURCHASED relationship should connect a Customer node to a Product node.",
];

/// A rule-mining prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningPrompt {
    pub style: PromptStyle,
    /// The encoded graph context (a window, or retrieved RAG chunks).
    context: String,
    /// `token_count(&context)`, set with the context.
    context_tokens: usize,
    /// Optional explicit rule-count request ("generate up to N
    /// rules"); the RAG pathway uses this because its single prompt
    /// must elicit the whole rule set at once, where a window prompt
    /// only needs a few rules per window.
    pub target_rules: Option<usize>,
}

impl MiningPrompt {
    /// A prompt with no explicit rule-count request, counting the
    /// context's tokens.
    pub fn new(style: PromptStyle, context: impl Into<String>) -> Self {
        let context = context.into();
        let context_tokens = token_count(&context);
        MiningPrompt { style, context, context_tokens, target_rules: None }
    }

    /// [`MiningPrompt::new`] for a context whose token count the scan
    /// that produced it already holds: a window's `token_len`, or the
    /// count a lineage origin records.
    pub fn counted(style: PromptStyle, context: String, context_tokens: usize) -> Self {
        debug_assert_eq!(token_count(&context), context_tokens, "carried token count");
        MiningPrompt { style, context, context_tokens, target_rules: None }
    }

    /// The encoded graph context.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Renders the full prompt text sent to the model: a fixed head
    /// ending in `"\nGraph:\n"`, then the context.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.context.len() + 512);
        self.write_head(&mut out);
        out.push_str(&self.context);
        out
    }

    fn write_head(&self, out: &mut String) {
        out.push_str(RULE_MINING_INSTRUCTION);
        out.push('\n');
        if let Some(n) = self.target_rules {
            out.push_str(&format!("Generate up to {n} rules.\n"));
        }
        if self.style == PromptStyle::FewShot {
            out.push_str("\nHere are examples of consistency rules:\n");
            for ex in FEW_SHOT_EXAMPLES {
                out.push_str("- ");
                out.push_str(ex);
                out.push('\n');
            }
        }
        out.push_str("\nGraph:\n");
    }

    /// Token count of the rendered prompt (drives the timing model),
    /// scanning only the fixed head. The head's last token is the `:`
    /// of `Graph:`, and whitespace rides forward onto the next token,
    /// so the head's final `\n` joins the context's first token — or
    /// is the one trailing-whitespace token of an empty or blank
    /// context.
    pub fn token_count(&self) -> usize {
        let mut head = String::with_capacity(512);
        self.write_head(&mut head);
        head.pop();
        token_count(&head) + self.context_tokens.max(1)
    }
}

/// A Cypher-translation prompt (step 2 of the pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationPrompt {
    /// The rule, in natural language.
    pub rule_nl: String,
    /// Schema facts: labels, relationship types, property keys.
    pub schema_summary: String,
}

impl TranslationPrompt {
    /// Renders the full prompt text.
    pub fn render(&self) -> String {
        format!(
            "Write the Cypher query matching this consistency rule.\n\
             Rule: {}\n\
             Graph schema:\n{}\n\
             Return a single query ending in a COUNT.",
            self.rule_nl, self.schema_summary
        )
    }

    /// Token count of the rendered prompt.
    pub fn token_count(&self) -> usize {
        token_count(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shot_has_no_examples() {
        let p = MiningPrompt::new(PromptStyle::ZeroShot, "Graph text");
        let text = p.render();
        assert!(text.contains(RULE_MINING_INSTRUCTION));
        assert!(!text.contains("examples of consistency rules"));
        assert!(text.contains("Graph text"));
    }

    #[test]
    fn few_shot_includes_all_examples() {
        let p = MiningPrompt::new(PromptStyle::FewShot, "ctx");
        let text = p.render();
        for ex in FEW_SHOT_EXAMPLES {
            assert!(text.contains(ex));
        }
    }

    #[test]
    fn few_shot_prompt_is_longer() {
        let zero = MiningPrompt::new(PromptStyle::ZeroShot, "same");
        let few = MiningPrompt::new(PromptStyle::FewShot, "same");
        assert!(few.token_count() > zero.token_count());
    }

    #[test]
    fn translation_prompt_mentions_rule_and_schema() {
        let p = TranslationPrompt {
            rule_nl: "Each Tweet node should have a unique id property.".into(),
            schema_summary: "Node labels:\n  Tweet (id)".into(),
        };
        let text = p.render();
        assert!(text.contains("unique id"));
        assert!(text.contains("Node labels"));
        assert!(p.token_count() > 10);
    }

    #[test]
    fn style_names_match_paper() {
        assert_eq!(PromptStyle::ZeroShot.name(), "Zero-shot");
        assert_eq!(PromptStyle::FewShot.name(), "Few-shot");
    }
}
