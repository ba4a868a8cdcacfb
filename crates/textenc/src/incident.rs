//! Graph-to-text encoders.
//!
//! The paper uses the **incident encoder** of Fatemi et al. ("Talk
//! like a Graph", ICLR 2024), chosen "based on its demonstrated
//! effectiveness in prior research": each node is introduced with its
//! labels and properties, followed by its incident (outgoing) edges.
//! We emit a line-oriented rendition of it so that (a) the sliding
//! window chunker can reason about pattern boundaries, and (b) the
//! simulated LLM can re-parse the fragment it is shown
//! ([`crate::decode`]).
//!
//! An **adjacency encoder** is provided as the ablation alternative
//! (`crates/bench/benches/figure2_encoding.rs` compares the two).

use std::fmt::Write as _;

use grm_pgraph::{Edge, Node, PropertyGraph, PropertyMap};

/// Writes `{k: v, k2: v2}`, each value through
/// [`grm_pgraph::Value::write_literal`].
fn write_props(out: &mut String, props: &PropertyMap) {
    out.push('{');
    for (i, (k, v)) in props.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(k);
        out.push_str(": ");
        let _ = v.write_literal(out);
    }
    out.push('}');
}

/// Writes `labels` joined by `:`.
fn write_labels(out: &mut String, labels: &[String]) {
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        out.push_str(label);
    }
}

/// `Node n0 with labels A:B has properties {k: v}.` and a newline.
pub(crate) fn write_node_line(out: &mut String, node: &Node) {
    let _ = write!(out, "Node n{} with labels ", node.id.0);
    write_labels(out, &node.labels);
    out.push_str(" has properties ");
    write_props(out, &node.props);
    out.push_str(".\n");
}

/// `Node n0 -[TYPE {k: v}]-> Node n5 (Match).` and a newline, where
/// `dst` is the edge's target node.
pub(crate) fn write_edge_line(out: &mut String, edge: &Edge, dst: &Node) {
    let _ = write!(out, "Node n{} -[", edge.src.0);
    out.push_str(&edge.label);
    out.push(' ');
    write_props(out, &edge.props);
    let _ = write!(out, "]-> Node n{} (", edge.dst.0);
    write_labels(out, &dst.labels);
    out.push_str(").\n");
}

/// The incident encoding: for every node, a descriptor line followed
/// by one line per outgoing edge.
///
/// ```text
/// Graph with 3 nodes and 2 edges.
/// Node n0 with labels Person has properties {name: 'Ada'}.
/// Node n0 -[PLAYED_IN {minutes: 90}]-> Node n1 (Match).
/// ```
pub fn encode_incident(g: &PropertyGraph) -> String {
    let mut out = String::with_capacity(g.node_count() * 64 + g.edge_count() * 48);
    let _ = writeln!(out, "Graph with {} nodes and {} edges.", g.node_count(), g.edge_count());
    for node in g.nodes() {
        write_node_line(&mut out, node);
        for edge in g.out_edges(node.id) {
            write_edge_line(&mut out, edge, g.node(edge.dst));
        }
    }
    out
}

/// The adjacency encoding: one line per node including a compact
/// neighbour list (no edge properties — that is its trade-off).
pub fn encode_adjacency(g: &PropertyGraph) -> String {
    let mut out = String::with_capacity(g.node_count() * 80);
    let _ = writeln!(out, "Graph with {} nodes and {} edges.", g.node_count(), g.edge_count());
    for node in g.nodes() {
        let _ = write!(out, "n{} (", node.id.0);
        write_labels(&mut out, &node.labels);
        out.push_str(") ");
        write_props(&mut out, &node.props);
        out.push_str(" -> ");
        let mut neighbours = g.out_edges(node.id).peekable();
        if neighbours.peek().is_none() {
            out.push_str("none");
        }
        for (i, e) in neighbours.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}->n{}", e.label, e.dst.0);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::props;

    fn tiny() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["Person"], props([("name", "Ada")]));
        let m = g.add_node(["Match"], props([("id", "m1")]));
        g.add_edge(a, m, "PLAYED_IN", props([("minutes", 90i64)]));
        g
    }

    #[test]
    fn incident_mentions_every_node_and_edge() {
        let text = encode_incident(&tiny());
        assert!(text.starts_with("Graph with 2 nodes and 1 edges."));
        assert!(text.contains("Node n0 with labels Person has properties {name: 'Ada'}."));
        assert!(text.contains("Node n0 -[PLAYED_IN {minutes: 90}]-> Node n1 (Match)."));
    }

    #[test]
    fn incident_line_count_is_header_plus_nodes_plus_edges() {
        let g = tiny();
        let text = encode_incident(&g);
        assert_eq!(text.lines().count(), 1 + g.node_count() + g.edge_count());
    }

    #[test]
    fn adjacency_is_one_line_per_node() {
        let g = tiny();
        let text = encode_adjacency(&g);
        assert_eq!(text.lines().count(), 1 + g.node_count());
        assert!(text.contains("PLAYED_IN->n1"));
    }

    #[test]
    fn adjacency_is_more_compact_than_incident_on_dense_graphs() {
        let mut g = PropertyGraph::new();
        let hub = g.add_node(["Hub"], props([("id", 0i64)]));
        for i in 0..50i64 {
            let n = g.add_node(["Leaf"], props([("id", i)]));
            g.add_edge(hub, n, "LINKS_TO", Default::default());
        }
        assert!(encode_adjacency(&g).len() < encode_incident(&g).len());
    }

    #[test]
    fn deterministic_output() {
        let g = tiny();
        assert_eq!(encode_incident(&g), encode_incident(&g));
    }

    #[test]
    fn empty_graph_encodes_header_only() {
        let g = PropertyGraph::new();
        assert_eq!(encode_incident(&g), "Graph with 0 nodes and 0 edges.\n");
    }
}
