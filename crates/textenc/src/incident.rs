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

use grm_pgraph::{Node, PropertyGraph, PropertyMap};

fn write_props(out: &mut String, props: &PropertyMap) {
    out.push('{');
    for (i, (k, v)) in props.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{k}: {v}");
    }
    out.push('}');
}

fn write_node_header(out: &mut String, node: &Node) {
    let _ = write!(out, "Node n{} with labels {}", node.id.0, node.labels.join(":"));
    out.push_str(" has properties ");
    write_props(out, &node.props);
    out.push_str(".\n");
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
        write_node_header(&mut out, node);
        for edge in g.out_edges(node.id) {
            let dst = g.node(edge.dst);
            let _ = write!(out, "Node n{} -[{} ", node.id.0, edge.label);
            write_props(&mut out, &edge.props);
            let _ = writeln!(out, "]-> Node n{} ({}).", edge.dst.0, dst.labels.join(":"));
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
        let _ = write!(out, "n{} ({}) ", node.id.0, node.labels.join(":"));
        write_props(&mut out, &node.props);
        let neighbours: Vec<String> =
            g.out_edges(node.id).map(|e| format!("{}->n{}", e.label, e.dst.0)).collect();
        if neighbours.is_empty() {
            out.push_str(" -> none");
        } else {
            let _ = write!(out, " -> {}", neighbours.join(", "));
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
