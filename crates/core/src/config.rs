//! Pipeline configuration: the experimental grid of the paper.
//!
//! Every cell of Tables 2–6 is one [`PipelineConfig`]: a model
//! persona × a context strategy (Figure 2) × a prompting style
//! (Figure 3), plus the seed that makes the run reproducible.

use grm_llm::{ModelKind, PromptStyle};
use grm_textenc::{EncoderKind, SummaryConfig, WindowConfig};
use grm_vecstore::RagConfig;

/// How the encoded graph reaches the model's context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContextStrategy {
    /// Figure 2a: fixed-size overlapping windows; one prompt per
    /// window; rules unioned.
    SlidingWindow(WindowConfig),
    /// Figure 2b: embed + retrieve; a single prompt over the top-k
    /// chunks.
    Rag(RagConfig),
    /// The paper's §5 future-work direction, implemented: a single
    /// prompt over a stratified exemplar summary of the graph —
    /// near-window quality at near-RAG cost.
    Summary(SummaryConfig),
}

impl ContextStrategy {
    /// Display name as in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ContextStrategy::SlidingWindow(_) => "Sliding Window Attention",
            ContextStrategy::Rag(_) => "RAG",
            ContextStrategy::Summary(_) => "Summary",
        }
    }

    /// The paper's defaults for both strategies.
    pub fn default_sliding_window() -> Self {
        ContextStrategy::SlidingWindow(WindowConfig::default())
    }

    /// Default RAG configuration.
    pub fn default_rag() -> Self {
        ContextStrategy::Rag(RagConfig::default())
    }

    /// Default summarization configuration (§5 extension).
    pub fn default_summary() -> Self {
        ContextStrategy::Summary(SummaryConfig::default())
    }
}

/// One experimental configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Which model persona to run.
    pub model: ModelKind,
    /// Window or RAG context strategy.
    pub strategy: ContextStrategy,
    /// Zero- or few-shot prompting.
    pub prompting: PromptStyle,
    /// Graph-to-text encoder (the paper uses the incident encoder).
    /// Note: the simulated models read their prompt through the
    /// incident-format fragment decoder, so `Adjacency` is only
    /// useful for encoding-cost experiments, not end-to-end mining.
    pub encoder: EncoderKind,
    /// Seed for the whole run (model randomness + rule selection).
    pub seed: u64,
    /// Cap on the final merged rule set; `None` derives a
    /// paper-plausible budget from the configuration and seed.
    pub rule_budget: Option<usize>,
}

impl PipelineConfig {
    /// A configuration with the paper's defaults.
    pub fn new(model: ModelKind, strategy: ContextStrategy, prompting: PromptStyle) -> Self {
        PipelineConfig {
            model,
            strategy,
            prompting,
            encoder: EncoderKind::Incident,
            seed: 42,
            rule_budget: None,
        }
    }

    /// All eight (model × strategy × prompting) combinations — the
    /// grid of one dataset's table.
    pub fn grid(seed: u64) -> Vec<PipelineConfig> {
        let mut out = Vec::with_capacity(8);
        for prompting in PromptStyle::ALL {
            for strategy in
                [ContextStrategy::default_sliding_window(), ContextStrategy::default_rag()]
            {
                for model in ModelKind::ALL {
                    out.push(PipelineConfig {
                        model,
                        strategy,
                        prompting,
                        encoder: EncoderKind::Incident,
                        seed,
                        rule_budget: None,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_eight_configs() {
        let g = PipelineConfig::grid(1);
        assert_eq!(g.len(), 8);
        let sw =
            g.iter().filter(|c| matches!(c.strategy, ContextStrategy::SlidingWindow(_))).count();
        assert_eq!(sw, 4);
    }

    #[test]
    fn strategy_names_match_paper() {
        assert_eq!(ContextStrategy::default_sliding_window().name(), "Sliding Window Attention");
        assert_eq!(ContextStrategy::default_rag().name(), "RAG");
    }
}
