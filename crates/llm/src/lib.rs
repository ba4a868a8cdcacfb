//! # grm-llm — simulated language models for rule mining
//!
//! The substitute for the paper's locally-deployed Llama-3 and
//! Mixtral (DESIGN.md §2 explains why the substitution preserves the
//! study's measurable behaviour). A [`SimLlm`]:
//!
//! * reads **only its prompt** — the fragment of the encoded graph
//!   that windowing or RAG put in front of it (honest information
//!   boundaries, the property that makes Figure 2's strategies
//!   comparable);
//! * generates consistency rules whose *families and error modes*
//!   match the paper's observations — Llama-3 prefers simple
//!   uniqueness/mandatory rules, Mixtral chases complex patterns and
//!   hallucinates properties more often (§4.3–4.5);
//! * translates rules to Cypher with the paper's three error classes
//!   (wrong direction / hallucinated property / syntax) at calibrated
//!   rates (§4.4, Table 6);
//! * meters simulated latency from token counts, reproducing the
//!   shape of Table 5 (per-window prompting ≫ single RAG prompt).

pub mod explain;
pub mod fallible;
pub mod generator;
pub mod model;
pub mod persona;
pub mod prompt;
pub mod timing;
pub mod translate;

pub use explain::explain_rule;
pub use fallible::{unit_model_seed, ResilientLlm};
pub use generator::{generate_rules, GeneratedRule};
pub use model::{MiningResponse, SimLlm, TranslationResponse};
pub use persona::{persona, ModelKind, Persona};
pub use prompt::{MiningPrompt, PromptStyle, TranslationPrompt, FEW_SHOT_EXAMPLES};
pub use timing::{invocation_seconds, Stopwatch, CALL_OVERHEAD_SECS};
pub use translate::{break_syntax, flip_first_direction, translate, Corruption, Translation};
