//! Schema inference over a property graph.
//!
//! Neo4j exposes `db.schema.visualization()`; the paper's pipeline
//! feeds schema facts (labels, relationship types, property keys) into
//! the Cypher-generation prompt. We infer the same facts by a single
//! pass over the store. The inferred schema is also what the semantic
//! analyzer in `grm-cypher` validates queries against — a property
//! absent from the schema is how a *hallucinated* property (error
//! class 2 of §4.4) is detected.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::graph::PropertyGraph;
use crate::value::{Value, ValueKey};

/// Observed statistics for one property key under one label.
#[derive(Debug, Clone, Default)]
pub struct PropertyStats {
    /// How many elements with the label carry the key (non-null).
    pub present: usize,
    /// How many elements carry the label at all.
    pub total: usize,
    /// Value type names observed, e.g. `{"STRING"}`.
    pub types: BTreeSet<&'static str>,
    /// Number of distinct values observed (exact; datasets are small).
    pub distinct: usize,
    /// Up to [`SAMPLE_LIMIT`](Self::SAMPLE_LIMIT) sample values,
    /// rendered as literals.
    pub samples: Vec<String>,
}

impl PropertyStats {
    /// Max sample literals retained per property.
    pub const SAMPLE_LIMIT: usize = 5;

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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
pub struct GraphSchema {
    /// `node label -> property key -> stats`.
    pub node_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> property key -> stats`.
    pub edge_props: BTreeMap<String, BTreeMap<String, PropertyStats>>,
    /// `edge type -> endpoint signature`.
    pub edge_signatures: BTreeMap<String, EdgeSignature>,
}

/// Per-(label, key) tally during inference: the stats plus the
/// distinct values seen, keyed by the graph's own strings and values.
type Tally<'g> = HashMap<&'g str, HashMap<&'g str, (PropertyStats, HashSet<ValueKey<'g>>)>>;

fn observe<'g>(
    per_label: &mut HashMap<&'g str, (PropertyStats, HashSet<ValueKey<'g>>)>,
    key: &'g str,
    value: &'g Value,
) {
    if value.is_null() {
        return;
    }
    let (stats, seen) = per_label.entry(key).or_default();
    stats.present += 1;
    stats.types.insert(value.type_name());
    if stats.samples.len() < PropertyStats::SAMPLE_LIMIT {
        stats.samples.push(value.to_string());
    }
    seen.insert(ValueKey(value));
}

/// Freezes a tally into the schema's owned maps, filling each
/// property's label total and distinct count.
fn freeze(
    tally: Tally<'_>,
    total: impl Fn(&str) -> usize,
) -> BTreeMap<String, BTreeMap<String, PropertyStats>> {
    tally
        .into_iter()
        .map(|(label, per_label)| {
            let total = total(label);
            let props = per_label
                .into_iter()
                .map(|(key, (mut stats, seen))| {
                    stats.total = total;
                    stats.distinct = seen.len();
                    (key.to_owned(), stats)
                })
                .collect();
            (label.to_owned(), props)
        })
        .collect()
}

impl GraphSchema {
    /// Infers the schema in one pass over the graph. The pass keys
    /// its tallies on the graph's own label, key and value borrows,
    /// so it allocates per distinct (label, key) pair and per sample,
    /// not per property read.
    pub fn infer(g: &PropertyGraph) -> Self {
        let mut node_tally: Tally<'_> = HashMap::new();
        let mut edge_tally: Tally<'_> = HashMap::new();
        let mut endpoints: HashMap<&str, HashMap<(&str, &str), usize>> = HashMap::new();

        for node in g.nodes() {
            for label in &node.labels {
                let per_label = node_tally.entry(label.as_str()).or_default();
                for (key, value) in &node.props {
                    observe(per_label, key, value);
                }
            }
        }
        for edge in g.edges() {
            let per_label = edge_tally.entry(edge.label.as_str()).or_default();
            for (key, value) in &edge.props {
                observe(per_label, key, value);
            }
            let sig = endpoints.entry(edge.label.as_str()).or_default();
            let src = g.node(edge.src);
            let dst = g.node(edge.dst);
            for sl in &src.labels {
                for dl in &dst.labels {
                    *sig.entry((sl.as_str(), dl.as_str())).or_insert(0) += 1;
                }
            }
        }

        let mut schema = GraphSchema {
            node_props: freeze(node_tally, |l| g.label_count(l)),
            edge_props: freeze(edge_tally, |l| g.edge_label_count(l)),
            edge_signatures: endpoints
                .into_iter()
                .map(|(label, sig)| {
                    let endpoints = sig
                        .into_iter()
                        .map(|((s, d), n)| ((s.to_owned(), d.to_owned()), n))
                        .collect();
                    (label.to_owned(), EdgeSignature { endpoints })
                })
                .collect(),
        };
        // Labels with no properties at all still belong to the schema.
        for label in g.node_labels() {
            schema.node_props.entry(label).or_default();
        }
        for label in g.edge_labels() {
            schema.edge_props.entry(label.clone()).or_default();
            schema.edge_signatures.entry(label).or_default();
        }
        schema
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
    fn property_free_label_still_listed() {
        let mut g = PropertyGraph::new();
        g.add_node(["Bare"], PropertyMap::new());
        let s = GraphSchema::infer(&g);
        assert!(s.has_node_label("Bare"));
    }
}
