//! Graph-summarization encoding — the paper's §5 future-work
//! direction ("we will investigate efficient rule mining methods,
//! either based on parallelism or graph summarization"), implemented.
//!
//! Instead of streaming the whole graph through windows (slow) or
//! retrieving similarity-biased chunks (unrepresentative), the
//! summary encoder builds a *stratified exemplar sample*: for every
//! node label it samples nodes spread evenly across the insertion
//! range (so regionally heterogeneous properties are all represented),
//! and for every relationship type it samples edges likewise. The
//! exemplars are emitted in the standard incident format — so the
//! model's fragment decoder reads them natively — preceded by a
//! schema digest with exact counts.
//!
//! The result is a single prompt of roughly RAG size whose evidence
//! statistics are *representative*, which is why summary-based mining
//! recovers near-window-quality rules at near-RAG cost (see the
//! `strategy_quality` ablation bench and EXPERIMENTS.md).

use std::fmt::Write as _;

use grm_pgraph::{EdgeId, NodeId, PropertyGraph};

use crate::incident::{write_edge_line, write_node_line};

/// Configuration of the summarizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryConfig {
    /// Exemplar nodes sampled per node label.
    pub nodes_per_label: usize,
    /// Exemplar edges sampled per relationship type.
    pub edges_per_type: usize,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig { nodes_per_label: 12, edges_per_type: 8 }
    }
}

/// Evenly spaced sample of `k` items from `0..n` (deterministic; no
/// RNG so the same graph always summarises identically).
fn strided(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let k = k.min(n);
    (0..k).map(move |i| i * n / k.max(1))
}

/// Encodes a stratified summary of `g`.
pub fn encode_summary(g: &PropertyGraph, config: SummaryConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Graph summary: {} nodes and {} edges in total.",
        g.node_count(),
        g.edge_count()
    );

    // Schema digest (human/context framing; the fragment decoder
    // skips these lines, the exemplars below carry the evidence).
    for label in g.node_labels() {
        let _ = writeln!(out, "Label {} has {} nodes.", label, g.label_count(&label));
    }
    for label in g.edge_labels() {
        let _ = writeln!(out, "Relationship {} has {} edges.", label, g.edge_label_count(&label));
    }

    // Stratified node exemplars, in incident format.
    for label in g.node_labels() {
        let ids: Vec<NodeId> = g.nodes_with_label(&label).map(|n| n.id).collect();
        for idx in strided(ids.len(), config.nodes_per_label) {
            write_node_line(&mut out, g.node(ids[idx]));
        }
    }
    // Stratified edge exemplars.
    for label in g.edge_labels() {
        let ids: Vec<EdgeId> = g.edges_with_label(&label).map(|e| e.id).collect();
        for idx in strided(ids.len(), config.edges_per_type) {
            let edge = g.edge(ids[idx]);
            // Emit the source node line too, so the fragment decoder
            // (which needs the source's labels) keeps the edge.
            write_node_line(&mut out, g.node(edge.src));
            write_edge_line(&mut out, edge, g.node(edge.dst));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::GraphFragment;
    use crate::tokenizer::token_count;
    use grm_pgraph::{props, GraphSchema, Value};

    fn banded_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut users = Vec::new();
        for i in 0..100i64 {
            let mut p = props([("id", Value::Int(i))]);
            // Two property bands, as in the real datasets.
            if i < 50 {
                p.insert("location".into(), Value::from("x"));
            } else {
                p.insert("bio".into(), Value::from("y"));
            }
            users.push(g.add_node(["User"], p));
        }
        for i in 0..60usize {
            g.add_edge(users[i], users[(i + 1) % 100], "FOLLOWS", Default::default());
        }
        g
    }

    #[test]
    fn summary_is_much_smaller_than_full_encoding() {
        let g = banded_graph();
        let summary = encode_summary(&g, SummaryConfig::default());
        let full = crate::incident::encode_incident(&g);
        assert!(token_count(&summary) < token_count(&full) / 2);
    }

    #[test]
    fn exemplars_cover_all_property_bands() {
        let g = banded_graph();
        let summary = encode_summary(&g, SummaryConfig::default());
        let frag = GraphFragment::parse(&summary);
        let has_location = frag.nodes.iter().any(|n| n.props.contains_key("location"));
        let has_bio = frag.nodes.iter().any(|n| n.props.contains_key("bio"));
        assert!(has_location && has_bio, "stratified sample must span both bands");
    }

    #[test]
    fn exemplar_edges_are_decodable() {
        let g = banded_graph();
        let summary = encode_summary(&g, SummaryConfig::default());
        assert!(!GraphFragment::parse(&summary).edges.is_empty());
        let schema = GraphSchema::infer(&GraphFragment::read_graph(&summary));
        assert!(schema.signature("FOLLOWS").unwrap().connects("User", "User"));
    }

    #[test]
    fn sample_size_respects_config() {
        let g = banded_graph();
        let small = encode_summary(&g, SummaryConfig { nodes_per_label: 3, edges_per_type: 2 });
        let frag = GraphFragment::parse(&small);
        // 3 label exemplars + up to 2 duplicated edge-source lines.
        assert!(frag.nodes.len() <= 8, "{}", frag.nodes.len());
        assert!(frag.edges.len() <= 2);
    }

    #[test]
    fn digest_mentions_exact_counts() {
        let g = banded_graph();
        let summary = encode_summary(&g, SummaryConfig::default());
        assert!(summary.contains("Label User has 100 nodes."));
        assert!(summary.contains("Relationship FOLLOWS has 60 edges."));
    }

    #[test]
    fn deterministic() {
        let g = banded_graph();
        let cfg = SummaryConfig::default();
        assert_eq!(encode_summary(&g, cfg), encode_summary(&g, cfg));
    }

    #[test]
    fn empty_graph_summarises_to_header() {
        let g = PropertyGraph::new();
        let s = encode_summary(&g, SummaryConfig::default());
        assert!(s.starts_with("Graph summary: 0 nodes and 0 edges"));
    }
}
