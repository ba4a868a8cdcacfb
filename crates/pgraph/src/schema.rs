//! Schema inference over a property graph.
//!
//! Neo4j exposes `db.schema.visualization()`; the paper's pipeline
//! feeds schema facts (labels, relationship types, property keys) into
//! the Cypher-generation prompt. We infer the same facts by one pass
//! per label over the store's label and type indexes. The inferred
//! schema is also what the semantic analyzer in `grm-cypher` validates
//! queries against — a property absent from the schema is how a
//! *hallucinated* property (error class 2 of §4.4) is detected.

use std::collections::BTreeMap;

use crate::graph::{PropertyGraph, PropertyMap};
use crate::value::{TypeSet, ValueKey};

/// Observed statistics for one property key under one label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropertyStats {
    /// How many elements with the label carry the key (non-null).
    pub present: usize,
    /// How many elements carry the label at all.
    pub total: usize,
    /// Value types observed, e.g. `STRING`.
    pub types: TypeSet,
    /// Number of distinct values observed (exact; datasets are small).
    pub distinct: usize,
}

impl PropertyStats {
    /// Fraction of labelled elements carrying the key.
    pub fn presence_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.present as f64 / self.total as f64
        }
    }

    /// True when every labelled element carries the key — a candidate
    /// "mandatory property" rule.
    pub fn is_total(&self) -> bool {
        self.total > 0 && self.present == self.total
    }

    /// True when every present value is distinct — a candidate
    /// "unique property / primary key" rule.
    pub fn is_unique(&self) -> bool {
        self.present > 0 && self.distinct == self.present
    }
}

/// Endpoint signature of a relationship type: which (source-label,
/// target-label) pairs it was observed to connect, with counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSignature {
    /// `(src_label, dst_label) -> occurrence count`.
    pub endpoints: BTreeMap<(String, String), usize>,
}

impl EdgeSignature {
    /// True when the type was observed connecting `src` to `dst` in
    /// that direction.
    pub fn connects(&self, src: &str, dst: &str) -> bool {
        self.endpoints.keys().any(|(s, d)| s == src && d == dst)
    }
}

/// Inferred schema of a property graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSchema {
    /// `node label -> property key -> stats`.
    pub node_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> property key -> stats`.
    pub edge_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> endpoint signature`.
    pub edge_signatures: BTreeMap<String, EdgeSignature>,
}

/// One label's tally: its element count, and per property key the
/// key's types and non-null values, borrowed from the graph. Keys sit
/// in a `BTreeMap` on the borrowed key, so a property costs one
/// O(log k) lookup and no hashing.
#[derive(Default)]
struct LabelTally<'g> {
    total: usize,
    keys: BTreeMap<&'g str, (TypeSet, Vec<ValueKey<'g>>)>,
}

impl<'g> LabelTally<'g> {
    fn add(&mut self, props: &'g PropertyMap) {
        self.total += 1;
        for (key, value) in props {
            if !value.is_null() {
                let (types, values) = self.keys.entry(key.as_str()).or_default();
                types.insert(value);
                values.push(ValueKey(value));
            }
        }
    }

    /// The label's property stats; sorting each key's values counts
    /// the distinct ones.
    fn finish(self) -> BTreeMap<String, PropertyStats> {
        let total = self.total;
        self.keys
            .into_iter()
            .map(|(key, (types, mut values))| {
                let present = values.len();
                values.sort_unstable();
                values.dedup();
                (key.to_owned(), PropertyStats { present, total, types, distinct: values.len() })
            })
            .collect()
    }
}

impl GraphSchema {
    /// Infers the schema in one pass per node label and per edge type
    /// over the graph's indexes. A multi-label node counts under each
    /// of its labels, a label-less one under none. The whole graph's
    /// schema is memoised by [`PropertyGraph::schema`].
    pub fn infer(g: &PropertyGraph) -> Self {
        let node_props = g
            .node_labels()
            .into_iter()
            .map(|label| {
                let mut tally = LabelTally::default();
                for node in g.nodes_with_label(&label) {
                    tally.add(&node.props);
                }
                (label, tally.finish())
            })
            .collect();
        let mut edge_props = BTreeMap::new();
        let mut edge_signatures = BTreeMap::new();
        for label in g.edge_labels() {
            let mut tally = LabelTally::default();
            let mut endpoints: BTreeMap<(&str, &str), usize> = BTreeMap::new();
            for edge in g.edges_with_label(&label) {
                tally.add(&edge.props);
                for src in &g.node(edge.src).labels {
                    for dst in &g.node(edge.dst).labels {
                        *endpoints.entry((src, dst)).or_insert(0) += 1;
                    }
                }
            }
            let endpoints = endpoints
                .into_iter()
                .map(|((src, dst), n)| ((src.to_owned(), dst.to_owned()), n))
                .collect();
            edge_props.insert(label.clone(), tally.finish());
            edge_signatures.insert(label, EdgeSignature { endpoints });
        }
        GraphSchema { node_props, edge_props, edge_signatures }
    }

    /// True when the node label exists.
    pub fn has_node_label(&self, label: &str) -> bool {
        self.node_props.contains_key(label)
    }

    /// True when the relationship type exists.
    pub fn has_edge_label(&self, label: &str) -> bool {
        self.edge_props.contains_key(label)
    }

    /// True when nodes with `label` were observed carrying `key`.
    pub fn node_has_property(&self, label: &str, key: &str) -> bool {
        self.node_props.get(label).is_some_and(|m| m.contains_key(key))
    }

    /// True when edges of `label` were observed carrying `key`.
    pub fn edge_has_property(&self, label: &str, key: &str) -> bool {
        self.edge_props.get(label).is_some_and(|m| m.contains_key(key))
    }

    /// True when *any* node label carries `key` (used when a query
    /// binds an unlabelled node).
    pub fn any_node_has_property(&self, key: &str) -> bool {
        self.node_props.values().any(|m| m.contains_key(key))
    }

    /// Endpoint signature of a relationship type, if known.
    pub fn signature(&self, label: &str) -> Option<&EdgeSignature> {
        self.edge_signatures.get(label)
    }

    /// All node labels, sorted.
    pub fn node_labels(&self) -> impl Iterator<Item = &str> {
        self.node_props.keys().map(String::as_str)
    }

    /// All relationship types, sorted.
    pub fn edge_labels(&self) -> impl Iterator<Item = &str> {
        self.edge_props.keys().map(String::as_str)
    }

    /// Compact textual summary of the schema — what the pipeline puts
    /// in the Cypher-generation prompt ("information about the
    /// property graph including nodes edge labels, and properties",
    /// §3.2).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("Node labels:\n");
        for (label, propmap) in &self.node_props {
            let keys: Vec<&str> = propmap.keys().map(String::as_str).collect();
            out.push_str(&format!("  {} ({})\n", label, keys.join(", ")));
        }
        out.push_str("Relationship types:\n");
        for (label, sig) in &self.edge_signatures {
            let keys: Vec<&str> = self
                .edge_props
                .get(label)
                .map(|m| m.keys().map(String::as_str).collect())
                .unwrap_or_default();
            let eps: Vec<String> =
                sig.endpoints.keys().map(|(s, d)| format!("({s})->({d})")).collect();
            out.push_str(&format!(
                "  {} [{}] connects {}\n",
                label,
                keys.join(", "),
                eps.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{props, PropertyMap};

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["Person"], props([("name", "Ada"), ("id", "p1")]));
        let b = g.add_node(["Person"], props([("name", "Bo"), ("id", "p2")]));
        let m = g.add_node(["Match"], props([("id", "m1"), ("date", "2019-06-01")]));
        g.add_edge(a, m, "PLAYED_IN", props([("minutes", 90i64)]));
        g.add_edge(b, m, "PLAYED_IN", PropertyMap::new());
        g
    }

    #[test]
    fn infers_labels_and_properties() {
        let s = GraphSchema::infer(&sample());
        assert!(s.has_node_label("Person"));
        assert!(s.has_node_label("Match"));
        assert!(s.has_edge_label("PLAYED_IN"));
        assert!(s.node_has_property("Person", "name"));
        assert!(!s.node_has_property("Person", "date"));
        assert!(s.edge_has_property("PLAYED_IN", "minutes"));
    }

    #[test]
    fn presence_and_uniqueness() {
        let s = GraphSchema::infer(&sample());
        let stats = &s.node_props["Person"]["id"];
        assert!(stats.is_total());
        assert!(stats.is_unique());
        assert_eq!(stats.presence_ratio(), 1.0);
        let minutes = &s.edge_props["PLAYED_IN"]["minutes"];
        assert!(!minutes.is_total()); // one PLAYED_IN edge lacks it
        assert_eq!(minutes.total, 2);
        assert_eq!(minutes.present, 1);
    }

    #[test]
    fn signatures_record_direction() {
        let s = GraphSchema::infer(&sample());
        let sig = s.signature("PLAYED_IN").unwrap();
        assert!(sig.connects("Person", "Match"));
        assert!(!sig.connects("Match", "Person"));
    }

    #[test]
    fn summary_mentions_everything() {
        let s = GraphSchema::infer(&sample());
        let text = s.summary();
        assert!(text.contains("Person"));
        assert!(text.contains("PLAYED_IN"));
        assert!(text.contains("(Person)->(Match)"));
    }

    #[test]
    fn empty_graph_has_empty_schema() {
        let s = GraphSchema::infer(&PropertyGraph::new());
        assert_eq!(s.node_labels().count(), 0);
        assert_eq!(s.edge_labels().count(), 0);
    }

    #[test]
    fn a_label_with_50_000_distinct_keys() {
        // Each node's keys sort before the previous node's, so a
        // sorted-vector merge would insert every key at its front.
        const KEYS: usize = 50_000;
        let mut g = PropertyGraph::new();
        for n in 0..KEYS / 50 {
            let keys = (0..50).map(|j| (format!("k{:05}", KEYS - 50 * (n + 1) + j), j as i64));
            g.add_node(["Wide"], props(keys));
        }
        let s = GraphSchema::infer(&g);
        let wide = &s.node_props["Wide"];
        assert_eq!(wide.len(), KEYS);
        assert!(wide.values().all(|p| (p.present, p.total, p.distinct) == (1, KEYS / 50, 1)));
        assert!(wide["k00000"].types.contains("INTEGER"));
    }

    #[test]
    fn property_free_label_still_listed() {
        let mut g = PropertyGraph::new();
        g.add_node(["Bare"], PropertyMap::new());
        let s = GraphSchema::infer(&g);
        assert!(s.has_node_label("Bare"));
    }
}
