//! JSON (de)serialization of property graphs.
//!
//! The wire format is a flat document — nodes with labels and
//! properties, edges with endpoint indexes — so graphs round-trip
//! losslessly while the store's internal indexes are rebuilt on load.
//! This is what the `grm` CLI and downstream tooling persist.
//!
//! ```json
//! {
//!   "nodes": [{"labels": ["User"], "props": {"id": {"Int": 1}}}],
//!   "edges": [{"src": 0, "dst": 0, "label": "FOLLOWS", "props": {}}]
//! }
//! ```

use std::collections::BTreeMap;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::graph::{PropertyGraph, PropertyMap};
use crate::value::Value;

/// Serializable mirror of [`Value`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValueDoc {
    Null,
    Bool(bool),
    Int(i64),
    Float(FloatDoc),
    Str(String),
    DateTime(i64),
    List(Vec<ValueDoc>),
}

/// A float on the wire. JSON has no number for NaN or ±inf, so they
/// are the strings `"NaN"`, `"inf"` and `"-inf"`; a finite float is a
/// JSON number. The `null` that older files hold for any of them reads
/// as NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatDoc(pub f64);

impl Serialize for FloatDoc {
    fn to_content(&self) -> Content {
        match self.0 {
            f if f.is_finite() => Content::Float(f),
            f if f.is_nan() => Content::Str("NaN".to_owned()),
            f if f > 0.0 => Content::Str("inf".to_owned()),
            _ => Content::Str("-inf".to_owned()),
        }
    }
}

impl Deserialize for FloatDoc {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(FloatDoc(f64::NAN)),
            Content::Str(s) => match s.as_str() {
                "NaN" => Ok(FloatDoc(f64::NAN)),
                "inf" => Ok(FloatDoc(f64::INFINITY)),
                "-inf" => Ok(FloatDoc(f64::NEG_INFINITY)),
                _ => Err(DeError::custom(format!(
                    "expected a number, \"NaN\", \"inf\" or \"-inf\", found {s:?}"
                ))),
            },
            other => f64::from_content(other).map(FloatDoc),
        }
    }
}

impl From<&Value> for ValueDoc {
    fn from(v: &Value) -> Self {
        match v {
            Value::Null => ValueDoc::Null,
            Value::Bool(b) => ValueDoc::Bool(*b),
            Value::Int(i) => ValueDoc::Int(*i),
            Value::Float(f) => ValueDoc::Float(FloatDoc(*f)),
            Value::Str(s) => ValueDoc::Str(s.clone()),
            Value::DateTime(t) => ValueDoc::DateTime(*t),
            Value::List(vs) => ValueDoc::List(vs.iter().map(ValueDoc::from).collect()),
        }
    }
}

impl From<ValueDoc> for Value {
    fn from(v: ValueDoc) -> Self {
        match v {
            ValueDoc::Null => Value::Null,
            ValueDoc::Bool(b) => Value::Bool(b),
            ValueDoc::Int(i) => Value::Int(i),
            ValueDoc::Float(FloatDoc(f)) => Value::Float(f),
            ValueDoc::Str(s) => Value::Str(s),
            ValueDoc::DateTime(t) => Value::DateTime(t),
            ValueDoc::List(vs) => Value::List(vs.into_iter().map(Value::from).collect()),
        }
    }
}

/// Serializable node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeDoc {
    pub labels: Vec<String>,
    pub props: BTreeMap<String, ValueDoc>,
}

/// Serializable edge; `src`/`dst` are node indexes in document order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeDoc {
    pub src: u32,
    pub dst: u32,
    pub label: String,
    pub props: BTreeMap<String, ValueDoc>,
}

/// Serializable graph document.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphDoc {
    pub nodes: Vec<NodeDoc>,
    pub edges: Vec<EdgeDoc>,
}

/// I/O failure.
#[derive(Debug)]
pub enum IoError {
    Json(serde_json::Error),
    /// An edge references a node index outside the document.
    DanglingEdge {
        edge: usize,
        node: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::DanglingEdge { edge, node } => {
                write!(f, "edge {edge} references missing node {node}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

fn props_to_doc(props: &PropertyMap) -> BTreeMap<String, ValueDoc> {
    props.iter().map(|(k, v)| (k.clone(), ValueDoc::from(v))).collect()
}

fn props_from_doc(doc: BTreeMap<String, ValueDoc>) -> PropertyMap {
    doc.into_iter().map(|(k, v)| (k, Value::from(v))).collect()
}

/// Converts a graph to its document form.
pub fn to_doc(g: &PropertyGraph) -> GraphDoc {
    GraphDoc {
        nodes: g
            .nodes()
            .map(|n| NodeDoc { labels: n.labels.clone(), props: props_to_doc(&n.props) })
            .collect(),
        edges: g
            .edges()
            .map(|e| EdgeDoc {
                src: e.src.0,
                dst: e.dst.0,
                label: e.label.clone(),
                props: props_to_doc(&e.props),
            })
            .collect(),
    }
}

/// Rebuilds a graph (and all its indexes) from a document.
pub fn from_doc(doc: GraphDoc) -> Result<PropertyGraph, IoError> {
    let n = doc.nodes.len();
    let mut g = PropertyGraph::with_capacity(n, doc.edges.len());
    for node in doc.nodes {
        g.add_node(node.labels, props_from_doc(node.props));
    }
    for (i, edge) in doc.edges.into_iter().enumerate() {
        for endpoint in [edge.src, edge.dst] {
            if endpoint as usize >= n {
                return Err(IoError::DanglingEdge { edge: i, node: endpoint });
            }
        }
        g.add_edge(
            crate::graph::NodeId(edge.src),
            crate::graph::NodeId(edge.dst),
            edge.label,
            props_from_doc(edge.props),
        );
    }
    Ok(g)
}

/// Serializes a graph to JSON.
pub fn to_json(g: &PropertyGraph) -> Result<String, IoError> {
    Ok(serde_json::to_string(&to_doc(g))?)
}

/// Pretty-printed variant of [`to_json`].
pub fn to_json_pretty(g: &PropertyGraph) -> Result<String, IoError> {
    Ok(serde_json::to_string_pretty(&to_doc(g))?)
}

/// Deserializes a graph from JSON.
pub fn from_json(json: &str) -> Result<PropertyGraph, IoError> {
    from_doc(serde_json::from_str(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::props;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node(
            ["User", "Me"],
            props([
                ("id", Value::Int(1)),
                ("name", Value::from("Ada")),
                ("score", Value::Float(0.5)),
                ("active", Value::Bool(true)),
                ("joined", Value::DateTime(1_600_000_000)),
                ("tags", Value::List(vec![Value::from("x"), Value::Int(2)])),
                ("missing", Value::Null),
            ]),
        );
        let b = g.add_node(["Tweet"], props([("id", Value::Int(2))]));
        g.add_edge(a, b, "POSTS", props([("at", Value::DateTime(1))]));
        g
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let g = sample();
        let json = to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for (a, b) in g.nodes().zip(g2.nodes()) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.props, b.props);
        }
        for (a, b) in g.edges().zip(g2.edges()) {
            assert_eq!((a.src, a.dst, &a.label, &a.props), (b.src, b.dst, &b.label, &b.props));
        }
    }

    #[test]
    fn indexes_are_rebuilt_on_load() {
        let g2 = from_json(&to_json(&sample()).unwrap()).unwrap();
        assert_eq!(g2.label_count("User"), 1);
        assert_eq!(g2.edge_label_count("POSTS"), 1);
        assert_eq!(g2.out_degree(crate::graph::NodeId(0)), 1);
        assert_eq!(g2.in_degree(crate::graph::NodeId(1)), 1);
    }

    #[test]
    fn dangling_edge_rejected() {
        let doc = GraphDoc {
            nodes: vec![NodeDoc { labels: vec!["A".into()], props: BTreeMap::new() }],
            edges: vec![EdgeDoc { src: 0, dst: 9, label: "E".into(), props: BTreeMap::new() }],
        };
        assert!(matches!(from_doc(doc), Err(IoError::DanglingEdge { node: 9, .. })));
    }

    #[test]
    fn out_of_range_numbers_are_json_errors() {
        let doc = |src: &str, id: &str| {
            format!(
                r#"{{"nodes": [{{"labels": ["A"], "props": {{"id": {{"Int": {id}}}}}}}],
                    "edges": [{{"src": {src}, "dst": 0, "label": "E", "props": {{}}}}]}}"#
            )
        };
        assert!(from_json(&doc("0", "-9223372036854775808")).is_ok());
        for (src, id, number) in [
            ("4294967296", "1", "4294967296"),
            ("-4294967296", "1", "-4294967296"),
            ("-1", "1", "-1"),
            ("0", "9223372036854775808", "9223372036854775808"),
            ("0", "-9223372036854775809", "-9223372036854775809"),
            ("0", "18446744073709551616", "18446744073709551616"),
            ("18446744073709551616", "1", "18446744073709551616"),
            ("0", "1e300", "1e300"),
        ] {
            match from_json(&doc(src, id)) {
                Err(IoError::Json(e)) => assert!(e.to_string().contains(number), "{e}"),
                other => panic!("src {src}, id {id}: {other:?}"),
            }
        }
        let max: u64 = serde_json::from_str("18446744073709551615").unwrap();
        assert_eq!(max, u64::MAX);
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let mut g = PropertyGraph::new();
        let floats = [("inf", f64::INFINITY), ("nan", f64::NAN), ("neg", -f64::INFINITY)];
        g.add_node(["A"], props(floats.into_iter().chain([("x", 0.5)])));
        let json = to_json(&g).unwrap();
        let wire = r#""inf":{"Float":"inf"},"nan":{"Float":"NaN"},"neg":{"Float":"-inf"},"x":{"Float":0.5}"#;
        assert!(json.contains(wire), "{json}");
        let back = from_json(&json).unwrap();
        let p = &back.node(crate::graph::NodeId(0)).props;
        assert!(matches!(p["nan"], Value::Float(f) if f.is_nan()));
        assert_eq!(
            (&p["inf"], &p["neg"]),
            (&Value::Float(f64::INFINITY), &Value::Float(-f64::INFINITY))
        );

        let legacy =
            r#"{"nodes": [{"labels": ["A"], "props": {"x": {"Float": null}}}], "edges": []}"#;
        let g = from_json(legacy).unwrap();
        assert!(
            matches!(g.node(crate::graph::NodeId(0)).props["x"], Value::Float(f) if f.is_nan())
        );
        for other in [r#""Infinity""#, r#""nan""#, "true"] {
            let doc = legacy.replace("null", other);
            assert!(matches!(from_json(&doc), Err(IoError::Json(_))), "{doc}");
        }
    }

    #[test]
    fn a_node_with_descending_keys_loads_in_one_sort() {
        let keys: Vec<String> =
            (0..100_000).rev().map(|i| format!(r#""k{i:06}": {{"Int": {i}}}"#)).collect();
        let json = format!(
            r#"{{"nodes": [{{"labels": ["A"], "props": {{{}}}}}], "edges": []}}"#,
            keys.join(", ")
        );
        let start = std::time::Instant::now();
        let g = from_json(&json).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
        let p = &g.node(crate::graph::NodeId(0)).props;
        assert_eq!((p.len(), &p["k000007"]), (100_000, &Value::Int(7)));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(from_json("{nodes:"), Err(IoError::Json(_))));
    }

    #[test]
    fn pretty_output_parses_back() {
        let g = sample();
        let pretty = to_json_pretty(&g).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_json(&pretty).unwrap().node_count(), g.node_count());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = PropertyGraph::new();
        assert_eq!(from_json(&to_json(&g).unwrap()).unwrap().node_count(), 0);
    }
}
