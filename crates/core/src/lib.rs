//! # grm-core — the LLM rule-mining pipeline
//!
//! The paper's primary contribution (Figure 1): encode a property
//! graph, fit it into model context via sliding windows or RAG,
//! prompt a model (zero- or few-shot) for consistency rules,
//! translate them to Cypher, correct the translation errors the way
//! the authors did, and score every rule with support / coverage /
//! confidence.
//!
//! ```
//! use grm_core::{ContextStrategy, MiningPipeline, PipelineConfig};
//! use grm_datasets::{generate, DatasetId, GenConfig};
//! use grm_llm::{ModelKind, PromptStyle};
//!
//! let data = generate(DatasetId::Twitter, &GenConfig { scale: 0.005, ..Default::default() });
//! let config = PipelineConfig::new(
//!     ModelKind::Llama3,
//!     ContextStrategy::default_rag(),
//!     PromptStyle::ZeroShot,
//! );
//! let report = MiningPipeline::new(config).run(&data.graph);
//! assert!(report.rule_count() > 0);
//! ```

pub mod config;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod session;

pub use config::{ContextStrategy, PipelineConfig, ScoringConfig};
pub use parallel::{mine_parallel, ParallelMining};
pub use pipeline::{MiningPipeline, RAG_QUERY};
pub use report::{MiningReport, ResilienceSummary, RuleOutcome};
pub use resilience::{ResumeState, RunOptions, RunStatus};
pub use session::{Feedback, InteractiveSession, Proposal};
