//! # grm-baseline — traditional (AMIE-style) exhaustive rule mining
//!
//! The non-LLM comparator the paper positions itself against. §1:
//! rules are "traditionally … mined directly from the data by
//! considering the co-occurrence of elements. However … data-mined
//! rules can generate an overwhelming number of constraints, some of
//! which may be redundant, irrelevant, or difficult to understand by
//! the domain expert."
//!
//! This crate *is* that traditional miner: it exhaustively enumerates
//! every candidate rule the schema statistics license (in the spirit
//! of AMIE's candidate-and-prune search, adapted from KB triples to
//! property graphs), scores each one exactly by executing its metric
//! queries, and filters on support/confidence thresholds. No language
//! model, no sampling — exact and complete over the rule families of
//! `grm-rules`.
//!
//! Comparing its output with the LLM pipeline's demonstrates the
//! paper's motivating claim quantitatively: the exhaustive miner
//! emits several times more rules (many of them trivial or redundant
//! variants), while the LLM's set is small and human-oriented. See
//! the `baseline_vs_llm` section of `repro --extensions` and
//! EXPERIMENTS.md.
//!
//! ```
//! use grm_baseline::{mine_exhaustive, MinerConfig};
//! use grm_pgraph::{props, PropertyGraph};
//!
//! let mut g = PropertyGraph::new();
//! for i in 0..10i64 {
//!     g.add_node(["User"], props([("id", i)]));
//! }
//! let mined = mine_exhaustive(&g, MinerConfig::default());
//! assert!(mined.iter().any(|m| m.metrics.confidence_pct == 100.0));
//! ```

pub mod miner;
pub mod redundancy;

pub use miner::{enumerate_candidates, mine_exhaustive, MinedRule, MinerConfig};
pub use redundancy::{analyze_redundancy, RedundancyReport};
