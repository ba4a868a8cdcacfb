//! Fragment decoding: parsing incident-encoded text back into a
//! partial graph.
//!
//! The simulated LLM in `grm-llm` can only "know" what is inside its
//! prompt. This module gives it that knowledge honestly: it re-parses
//! the (possibly truncated) incident-encoded fragment it was handed —
//! a window from the sliding-window chunker, or retrieved chunks from
//! the RAG store — into a [`GraphFragment`]. Lines cut in half by a
//! window boundary fail to parse and are *dropped*, which is precisely
//! the context-fragmentation effect §3.1.1/§4.5 of the paper discusses.

use grm_pgraph::{GraphSchema, PropertyGraph, PropertyMap, Value};

/// A node recovered from encoded text.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentNode {
    pub id: u32,
    pub labels: Vec<String>,
    pub props: PropertyMap,
}

/// An edge recovered from encoded text.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentEdge {
    pub src: u32,
    pub label: String,
    pub props: PropertyMap,
    pub dst: u32,
    pub dst_labels: Vec<String>,
}

/// A partial view of the graph, as recovered from a text fragment.
#[derive(Debug, Clone, Default)]
pub struct GraphFragment {
    pub nodes: Vec<FragmentNode>,
    pub edges: Vec<FragmentEdge>,
    /// Lines that did not parse (typically window-boundary fragments
    /// and the `Graph with ...` header).
    pub skipped_lines: usize,
}

impl GraphFragment {
    /// Parses a fragment of incident-encoded text. Never fails: bad
    /// lines are counted in `skipped_lines`.
    pub fn parse(text: &str) -> GraphFragment {
        let mut frag = GraphFragment::default();
        let mut props = PropertyMap::new();
        for line in element_lines(text) {
            let mut insert = |key: &str, lit: Literal| {
                props.insert(key.to_owned(), lit.value());
            };
            match read_line(line, &mut insert) {
                Some(Element::Edge { src, label, dst, dst_labels }) => {
                    frag.edges.push(FragmentEdge {
                        src,
                        label: label.to_owned(),
                        props: std::mem::take(&mut props),
                        dst,
                        dst_labels: split_labels(dst_labels),
                    });
                }
                Some(Element::Node { id, labels }) => {
                    frag.nodes.push(FragmentNode {
                        id,
                        labels: split_labels(labels),
                        props: std::mem::take(&mut props),
                    });
                }
                None => {
                    props.clear();
                    frag.skipped_lines += 1;
                }
            }
        }
        frag
    }

    /// `parse(text).nodes.len() + parse(text).edges.len()`: the same
    /// grammar, read without building a label, key or value.
    pub fn count_elements(text: &str) -> usize {
        element_lines(text).filter(|line| read_line(line, &mut |_, _| {}).is_some()).count()
    }

    /// Rebuilds a small property graph from the fragment — the
    /// "mental model" the simulated LLM reasons over. Edges whose
    /// source node is outside the fragment are dropped (their source
    /// labels are unknown); unseen targets become label-only stubs.
    /// Labels, keys and values move into the graph.
    pub fn into_graph(self) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut ids = std::collections::HashMap::new();
        for n in self.nodes {
            let id = g.add_node(n.labels, n.props);
            ids.insert(n.id, id);
        }
        for e in self.edges {
            let Some(&src) = ids.get(&e.src) else { continue };
            let dst =
                *ids.entry(e.dst).or_insert_with(|| g.add_node(e.dst_labels, PropertyMap::new()));
            g.add_edge(src, dst, e.label, e.props);
        }
        g
    }

    /// [`GraphFragment::into_graph`] of a copy of the fragment.
    pub fn to_graph(&self) -> PropertyGraph {
        self.clone().into_graph()
    }

    /// Infers the schema of [`GraphFragment::to_graph`].
    pub fn sketch(&self) -> GraphSchema {
        GraphSchema::infer(&self.to_graph())
    }

    /// Fraction of all graph elements this fragment covers, given the
    /// full element count.
    pub fn coverage(&self, total_elements: usize) -> f64 {
        if total_elements == 0 {
            0.0
        } else {
            (self.nodes.len() + self.edges.len()) as f64 / total_elements as f64
        }
    }
}

/// The trimmed lines of `text` that may hold a graph element: blank
/// lines and the `Graph with ...` header are neither elements nor
/// skipped.
fn element_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|line| !line.is_empty() && !line.starts_with("Graph with "))
}

fn split_labels(labels: &str) -> Vec<String> {
    labels.split(':').map(str::to_owned).collect()
}

/// One encoder line as the grammar reads it, borrowed from the line.
/// Its properties went to the caller's callback as they were read.
enum Element<'a> {
    Node { id: u32, labels: &'a str },
    Edge { src: u32, label: &'a str, dst: u32, dst_labels: &'a str },
}

/// The fragment grammar: reads one trimmed line as an edge, else as a
/// node, calling `prop` for each `key: literal` pair in line order.
/// At most one of the two readings reaches the properties: both need
/// a `u32` right after `Node n`, and what follows it (` -[` or
/// ` with labels `) decides which one parses it. So a line that fails
/// after `prop` was called is skipped.
fn read_line<'a>(
    line: &'a str,
    prop: &mut impl FnMut(&'a str, Literal<'a>),
) -> Option<Element<'a>> {
    edge_line(line, prop).or_else(|| node_line(line, prop))
}

/// `Node n0 with labels A:B has properties {k: v}.`
fn node_line<'a>(
    line: &'a str,
    prop: &mut impl FnMut(&'a str, Literal<'a>),
) -> Option<Element<'a>> {
    let rest = line.strip_prefix("Node n")?;
    let (id_str, rest) = rest.split_once(" with labels ")?;
    let id: u32 = id_str.parse().ok()?;
    let (labels, rest) = rest.split_once(" has properties ")?;
    let props_str = rest.strip_suffix('.')?;
    read_props(props_str, prop)?;
    Some(Element::Node { id, labels })
}

/// `Node n0 -[TYPE {k: v}]-> Node n5 (Match).`
fn edge_line<'a>(
    line: &'a str,
    prop: &mut impl FnMut(&'a str, Literal<'a>),
) -> Option<Element<'a>> {
    let rest = line.strip_prefix("Node n")?;
    let (src_str, rest) = rest.split_once(" -[")?;
    let src: u32 = src_str.parse().ok()?;
    let (head, rest) = rest.split_once("]-> Node n")?;
    let (label, props_str) = match head.split_once(' ') {
        Some((l, p)) => (l, p),
        None => (head, "{}"),
    };
    read_props(props_str, prop)?;
    let (dst_str, rest) = rest.split_once(" (")?;
    let dst: u32 = dst_str.parse().ok()?;
    let dst_labels = rest.strip_suffix(").")?;
    Some(Element::Edge { src, label, dst, dst_labels })
}

/// `{k: v, k2: v2}` — must consume the whole string.
fn read_props<'a>(s: &'a str, prop: &mut impl FnMut(&'a str, Literal<'a>)) -> Option<()> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let (key, after) = rest.split_once(':')?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        let (lit, remainder) = literal(after.trim())?;
        prop(key, lit);
        rest = remainder.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(())
}

/// One property literal as the grammar read it: its extent in the
/// line, plus any scalar it already had to parse to accept it.
enum Literal<'a> {
    /// `null`, a boolean, a number or a `datetime(..)`.
    Scalar(Value),
    /// A quoted string's body, escapes still in place.
    Str(&'a str),
    /// A whole list literal, brackets included, every item well formed.
    List(&'a str),
}

impl Literal<'_> {
    /// Builds the value the literal denotes.
    fn value(self) -> Value {
        match self {
            Literal::Scalar(v) => v,
            Literal::Str(body) if !body.contains('\\') => Value::Str(body.to_owned()),
            Literal::Str(body) => {
                let mut out = String::with_capacity(body.len());
                let mut chars = body.chars();
                while let Some(c) = chars.next() {
                    out.push(if c == '\\' { chars.next().expect("read escape") } else { c });
                }
                Value::Str(out)
            }
            Literal::List(list) => {
                let mut items = Vec::new();
                list_items(&list[1..], &mut |item| items.push(item.value())).expect("read list");
                Value::List(items)
            }
        }
    }
}

/// Reads one literal, returning it and the remaining input.
fn literal(s: &str) -> Option<(Literal<'_>, &str)> {
    if let Some(rest) = s.strip_prefix('\'') {
        // String with backslash escapes. Every byte of a multi-byte
        // character is >= 0x80, so stepping over an escape's first
        // byte never lands on a quote or a backslash.
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => return Some((Literal::Str(&rest[..i]), &rest[i + 1..])),
                _ => i += 1,
            }
        }
        return None; // unterminated
    }
    if let Some(rest) = s.strip_prefix("datetime(") {
        let (num, rest) = rest.split_once(')')?;
        return Some((Literal::Scalar(Value::DateTime(num.trim().parse().ok()?)), rest));
    }
    if let Some(items) = s.strip_prefix('[') {
        let rest = list_items(items, &mut |_| {})?;
        return Some((Literal::List(&s[..s.len() - rest.len()]), rest));
    }
    for (word, value) in
        [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
    {
        if let Some(rest) = s.strip_prefix(word) {
            return Some((Literal::Scalar(value), rest));
        }
    }
    // Number: consume [-0-9.] prefix.
    let end = s
        .bytes()
        .enumerate()
        .take_while(|(i, b)| b.is_ascii_digit() || *b == b'.' || (*i == 0 && *b == b'-'))
        .count();
    if end == 0 {
        return None;
    }
    let (num, rest) = s.split_at(end);
    let value = if num.contains('.') {
        Value::Float(num.parse().ok()?)
    } else {
        Value::Int(num.parse().ok()?)
    };
    Some((Literal::Scalar(value), rest))
}

/// Reads the items of a list whose `[` is consumed, through its `]`,
/// returning the input after the `]`.
fn list_items<'a>(s: &'a str, item: &mut impl FnMut(Literal<'a>)) -> Option<&'a str> {
    let mut rest = s.trim_start();
    if let Some(r) = rest.strip_prefix(']') {
        return Some(r);
    }
    loop {
        let (lit, r) = literal(rest)?;
        item(lit);
        rest = r.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if let Some(r) = rest.strip_prefix(']') {
            return Some(r);
        } else {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::encode_incident;
    use grm_pgraph::props;

    fn tiny() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a =
            g.add_node(["Person"], props([("name", Value::from("Ada")), ("age", Value::Int(36))]));
        let m = g.add_node(["Match"], props([("id", "m1"), ("date", "2019-06-11")]));
        g.add_edge(a, m, "PLAYED_IN", props([("minutes", 90i64)]));
        g
    }

    #[test]
    fn roundtrip_full_graph() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        assert_eq!(frag.nodes.len(), 2);
        assert_eq!(frag.edges.len(), 1);
        assert_eq!(frag.skipped_lines, 0);
        assert_eq!(frag.nodes[0].props["name"], Value::from("Ada"));
        assert_eq!(frag.edges[0].label, "PLAYED_IN");
        assert_eq!(frag.edges[0].props["minutes"], Value::Int(90));
        assert_eq!(frag.edges[0].dst_labels, vec!["Match"]);
    }

    #[test]
    fn truncated_lines_are_skipped_not_fatal() {
        let g = tiny();
        let text = encode_incident(&g);
        // Cut mid-line, as a window boundary would.
        // The final line is the Match node header; cutting it loses
        // that node but must not fail the parse.
        let cut = &text[..text.len() - 25];
        let frag = GraphFragment::parse(cut);
        assert!(frag.skipped_lines > 0);
        assert_eq!(frag.nodes.len(), 1);
        assert_eq!(frag.edges.len(), 1);
    }

    #[test]
    fn sketch_recovers_schema() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        let schema = frag.sketch();
        assert!(schema.has_node_label("Person"));
        assert!(schema.node_has_property("Match", "date"));
        assert!(schema.signature("PLAYED_IN").unwrap().connects("Person", "Match"));
    }

    #[test]
    fn sketch_from_partial_fragment_is_partial() {
        let g = tiny();
        let text = encode_incident(&g);
        // Keep only the Person node line (drop Match + the edge).
        let person_line: String =
            text.lines().filter(|l| l.contains("Person")).map(|l| format!("{l}\n")).collect();
        let frag = GraphFragment::parse(&person_line);
        let schema = frag.sketch();
        assert!(schema.has_node_label("Person"));
        assert!(!schema.has_node_label("Match"));
    }

    fn parse_value(s: &str) -> Option<(Value, &str)> {
        literal(s).map(|(lit, rest)| (lit.value(), rest))
    }

    #[test]
    fn value_literals_roundtrip() {
        let (v, rest) = parse_value("'a\\'b' , tail").unwrap();
        assert_eq!(v, Value::from("a'b"));
        assert!(rest.trim_start().starts_with(','));
        assert_eq!(parse_value("42)").unwrap().0, Value::Int(42));
        assert_eq!(parse_value("-3.5,").unwrap().0, Value::Float(-3.5));
        assert_eq!(parse_value("true").unwrap().0, Value::Bool(true));
        assert_eq!(parse_value("datetime(120)").unwrap().0, Value::DateTime(120));
        assert_eq!(
            parse_value("[1, 'x']").unwrap().0,
            Value::List(vec![Value::Int(1), Value::from("x")])
        );
        assert_eq!(
            parse_value("[[1], []]]").unwrap(),
            (Value::List(vec![Value::List(vec![Value::Int(1)]), Value::List(vec![])]), "]")
        );
    }

    #[test]
    fn garbage_is_counted_not_parsed() {
        let frag = GraphFragment::parse("with labels Person has properties\nnot a line\n");
        assert_eq!(frag.nodes.len(), 0);
        assert_eq!(frag.skipped_lines, 2);
    }

    #[test]
    fn coverage_fraction() {
        let g = tiny();
        let frag = GraphFragment::parse(&encode_incident(&g));
        let total = g.node_count() + g.edge_count();
        assert!((frag.coverage(total) - 1.0).abs() < 1e-9);
        assert_eq!(GraphFragment::default().coverage(0), 0.0);
    }

    #[test]
    fn edge_without_props_parses() {
        let frag = GraphFragment::parse("Node n0 -[FOLLOWS {}]-> Node n1 (User).\n");
        assert_eq!(frag.edges.len(), 1);
        assert!(frag.edges[0].props.is_empty());
    }

    #[test]
    fn multi_label_nodes() {
        let frag =
            GraphFragment::parse("Node n3 with labels Coach:Person has properties {x: 1}.\n");
        assert_eq!(frag.nodes[0].labels, vec!["Coach", "Person"]);
    }
}
