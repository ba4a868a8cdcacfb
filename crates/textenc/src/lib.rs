//! # grm-textenc — graph-to-text encoding, tokenization, windowing
//!
//! Implements step 1 of the paper's pipeline (Figure 1) and the
//! sliding-window context strategy (Figure 2a):
//!
//! * [`incident`] — the incident encoder of Fatemi et al. used by the
//!   paper, plus an adjacency encoder for ablation;
//! * [`tokenizer`] — a deterministic approximate subword tokenizer so
//!   window sizes are measured in "LLM tokens" as in §3.1.1;
//! * [`window`] — 8000-token windows with 500-token overlap, plus the
//!   broken-pattern accounting reported in §4.5;
//! * [`decode`] — fragment re-parsing, which is how the simulated LLM
//!   in `grm-llm` "reads" the part of the graph inside its prompt.
//!
//! ```
//! use grm_pgraph::{props, PropertyGraph};
//! use grm_textenc::{chunk, encode_incident, GraphFragment, WindowConfig};
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_node(["User"], props([("id", 1i64)]));
//! let b = g.add_node(["User"], props([("id", 2i64)]));
//! g.add_edge(a, b, "FOLLOWS", Default::default());
//!
//! let text = encode_incident(&g);
//! let windows = chunk(&text, WindowConfig::new(64, 8));
//! let seen = GraphFragment::parse(&windows.windows[0].text);
//! assert!(!seen.nodes.is_empty());
//! ```

pub mod decode;
pub mod incident;
pub mod summary;
pub mod tokenizer;
pub mod trace;
pub mod window;

pub use decode::{FragmentEdge, FragmentNode, GraphFragment};
pub use incident::{encode_adjacency, encode_incident};
pub use summary::{encode_summary, SummaryConfig};
pub use tokenizer::{token_count, tokenize, Tokenized, MAX_PIECE};
pub use trace::{chunk_traced, encode_summary_traced, encode_traced};
pub use window::{
    chunk, BrokenPattern, Window, WindowConfig, WindowSet, DEFAULT_OVERLAP, DEFAULT_WINDOW_SIZE,
};
