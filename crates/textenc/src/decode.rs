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

use std::collections::HashMap;

use grm_pgraph::{PropertyGraph, PropertyMap, Value};

/// Deepest list nesting a literal may have: the vendored `serde_json`'s
/// `MAX_DEPTH`, so no value loaded from a graph file nests deeper. A
/// deeper line is skipped like any other malformed one, which also
/// bounds the reader's recursion.
const MAX_LIST_DEPTH: usize = 128;

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
        let mut entries = Vec::new();
        for line in element_lines(text) {
            match read_line::<true>(line, &mut entries) {
                Some(Element::Edge(e)) => frag.edges.push(FragmentEdge {
                    src: e.src,
                    label: e.label.to_owned(),
                    props: entries.drain(..).collect(),
                    dst: e.dst,
                    dst_labels: split_labels(e.dst_labels),
                }),
                Some(Element::Node { id, labels }) => frag.nodes.push(FragmentNode {
                    id,
                    labels: split_labels(labels),
                    props: entries.drain(..).collect(),
                }),
                None => {
                    entries.clear();
                    frag.skipped_lines += 1;
                }
            }
        }
        frag
    }

    /// `parse(text).nodes.len() + parse(text).edges.len()`: the same
    /// grammar, read without building a label, key or value.
    pub fn count_elements(text: &str) -> usize {
        let mut unread = Vec::new();
        element_lines(text).filter(|line| read_line::<false>(line, &mut unread).is_some()).count()
    }

    /// Reads `text` into the small property graph the simulated LLM
    /// reasons over — its "mental model" — in the one read that
    /// [`GraphFragment::parse`] makes. Each node line becomes a graph
    /// node as it is read, in text order, and a node id described
    /// twice keeps its last description. Then each edge line, in text
    /// order, becomes an edge when the fragment describes its source
    /// node; an edge whose source is outside the fragment is dropped
    /// (its source labels are unknown). A target the fragment does
    /// not describe becomes a label-only stub, and only a new stub
    /// copies the labels its edge line names.
    ///
    /// A line's properties are read into one reused buffer, and each
    /// element gets its map from it in one exact-size allocation.
    pub fn read_graph(text: &str) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut ids = HashMap::new();
        let mut edges = Vec::new();
        let mut entries = Vec::new();
        for line in element_lines(text) {
            match read_line::<true>(line, &mut entries) {
                Some(Element::Node { id, labels }) => {
                    ids.insert(id, g.add_node(labels.split(':'), entries.drain(..).collect()));
                }
                Some(Element::Edge(e)) => edges.push((e, entries.drain(..).collect())),
                None => entries.clear(),
            }
        }
        for (e, props) in edges {
            let Some(&src) = ids.get(&e.src) else { continue };
            let dst = *ids
                .entry(e.dst)
                .or_insert_with(|| g.add_node(e.dst_labels.split(':'), PropertyMap::new()));
            g.add_edge(src, dst, e.label, props);
        }
        g
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

/// One line's properties in line order, before they become a
/// [`PropertyMap`].
type Entries = Vec<(String, Value)>;

fn split_labels(labels: &str) -> Vec<String> {
    labels.split(':').map(str::to_owned).collect()
}

/// One encoder line as the grammar reads it, borrowed from the line.
/// Its properties went into the caller's buffer as they were read.
enum Element<'a> {
    Node { id: u32, labels: &'a str },
    Edge(EdgeLine<'a>),
}

/// `Node n<src> -[<label> {..}]-> Node n<dst> (<dst_labels>).`
struct EdgeLine<'a> {
    src: u32,
    label: &'a str,
    dst: u32,
    dst_labels: &'a str,
}

/// The fragment grammar, read forward over one trimmed line. The
/// bytes right after `Node n<id>` choose the reading: ` -[` an edge,
/// ` with labels ` a node, anything else no element. With `BUILD`,
/// each `key: literal` pair is appended to `props` in line order (a
/// line that fails after that leaves them for the caller to clear);
/// collecting them into a [`PropertyMap`] sorts them, once, only when
/// the keys arrived out of order, and keeps the last of a repeated key.
/// Without `BUILD` only the grammar is checked and `props` is
/// untouched.
fn read_line<'a, const BUILD: bool>(line: &'a str, props: &mut Entries) -> Option<Element<'a>> {
    let (id, rest) = node_id(line.strip_prefix("Node n")?)?;
    if let Some(rest) = rest.strip_prefix(" -[") {
        // `TYPE {k: v}]-> Node n5 (Match).` The first `]-> Node n`
        // ends the type and its properties.
        let (head, rest) = rest.split_once("]-> Node n")?;
        let (dst, rest) = node_id(rest)?;
        let dst_labels = rest.strip_prefix(" (")?.strip_suffix(").")?;
        let (label, props_str) = head.split_once(' ').unwrap_or((head, "{}"));
        read_props::<BUILD>(props_str, props)?;
        Some(Element::Edge(EdgeLine { src: id, label, dst, dst_labels }))
    } else {
        // `A:B has properties {k: v}.`
        let rest = rest.strip_prefix(" with labels ")?;
        let (labels, rest) = rest.split_once(" has properties ")?;
        read_props::<BUILD>(rest.strip_suffix('.')?, props)?;
        Some(Element::Node { id, labels })
    }
}

/// Reads the node id at the start of `s` — what `u32`'s `FromStr`
/// accepts: an optional `+`, then digits — returning it and the rest.
fn node_id(s: &str) -> Option<(u32, &str)> {
    let sign = usize::from(s.starts_with('+'));
    let end = sign + s[sign..].bytes().take_while(u8::is_ascii_digit).count();
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// `{k: v, k2: v2}` — must be all of `s`. A key is ASCII letters,
/// digits and `_`.
fn read_props<const BUILD: bool>(s: &str, props: &mut Entries) -> Option<()> {
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let key_len = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
        if key_len == 0 {
            return None;
        }
        let (key, after) = rest.split_at(key_len);
        let after = after.trim_start().strip_prefix(':')?;
        let (value, remainder) = literal::<BUILD>(after.trim_start(), 0)?;
        if BUILD {
            props.push((key.to_owned(), value));
        }
        rest = remainder.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(())
}

/// Reads one literal at the start of `s`, nested `depth` lists deep,
/// returning its value and the rest of `s`. A list's items are built
/// as they are read. Without `BUILD` a string or list reads as
/// `Value::Null`, so nothing is copied; scalars are parsed either
/// way, since a malformed one fails the line.
fn literal<const BUILD: bool>(s: &str, depth: usize) -> Option<(Value, &str)> {
    match *s.as_bytes().first()? {
        b'\'' => {
            // String with backslash escapes. Every byte of a
            // multi-byte character is >= 0x80, so stepping over an
            // escape's first byte never lands on a quote or a
            // backslash.
            let body = &s[1..];
            let bytes = body.as_bytes();
            let mut escaped = false;
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        escaped = true;
                        i += 2;
                    }
                    b'\'' => {
                        let value = if !BUILD {
                            Value::Null
                        } else if escaped {
                            Value::Str(unescape(&body[..i]))
                        } else {
                            Value::Str(body[..i].to_owned())
                        };
                        return Some((value, &body[i + 1..]));
                    }
                    _ => i += 1,
                }
            }
            None // unterminated
        }
        b'[' => {
            if depth == MAX_LIST_DEPTH {
                return None;
            }
            let mut items = Vec::new();
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                rest = r;
            } else {
                loop {
                    let (item, r) = literal::<BUILD>(rest, depth + 1)?;
                    if BUILD {
                        items.push(item);
                    }
                    rest = r.trim_start();
                    match rest.strip_prefix(',') {
                        Some(r) => rest = r.trim_start(),
                        None => {
                            rest = rest.strip_prefix(']')?;
                            break;
                        }
                    }
                }
            }
            Some((if BUILD { Value::List(items) } else { Value::Null }, rest))
        }
        b'd' => {
            let (num, rest) = s.strip_prefix("datetime(")?.split_once(')')?;
            Some((Value::DateTime(num.trim().parse().ok()?), rest))
        }
        b'n' => Some((Value::Null, s.strip_prefix("null")?)),
        b't' => Some((Value::Bool(true), s.strip_prefix("true")?)),
        b'f' => Some((Value::Bool(false), s.strip_prefix("false")?)),
        _ => {
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
            Some((value, rest))
        }
    }
}

/// A string body with each `\x` escape replaced by `x`. The reader
/// accepted the body, so every backslash has a character after it.
fn unescape(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' { chars.next().expect("read escape") } else { c });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::encode_incident;
    use grm_pgraph::{props, GraphSchema, NodeId};

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
    fn read_graph_recovers_schema() {
        let g = tiny();
        let schema = GraphSchema::infer(&GraphFragment::read_graph(&encode_incident(&g)));
        assert!(schema.has_node_label("Person"));
        assert!(schema.node_has_property("Match", "date"));
        assert!(schema.signature("PLAYED_IN").unwrap().connects("Person", "Match"));
    }

    #[test]
    fn partial_fragment_reads_a_partial_schema() {
        let g = tiny();
        let text = encode_incident(&g);
        // Keep only the Person node line (drop Match + the edge).
        let person_line: String =
            text.lines().filter(|l| l.contains("Person")).map(|l| format!("{l}\n")).collect();
        let schema = GraphSchema::infer(&GraphFragment::read_graph(&person_line));
        assert!(schema.has_node_label("Person"));
        assert!(!schema.has_node_label("Match"));
    }

    fn parse_value(s: &str) -> Option<(Value, &str)> {
        literal::<true>(s, 0)
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
    fn read_graph_keeps_later_targets_and_drops_unknown_sources() {
        let text = "Node n7 -[X {}]-> Node n0 (A).\n\
                    Node n0 -[Y {w: 1}]-> Node n1 (B:C).\n\
                    Node n0 -[Z {}]-> Node n1 (Ignored).\n\
                    Node n0 -[Z {}]-> Node n2 (D).\n\
                    Node n0 with labels A has properties {k: 'v'}.\n\
                    Node n2 with labels D has properties {}.\n";
        let g = GraphFragment::read_graph(text);
        // n0 and n2 are described; n1 is a stub with its first edge's labels.
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node(NodeId(0)).props["k"], Value::from("v"));
        assert_eq!(g.node(NodeId(2)).labels, vec!["B", "C"]);
        let targets: Vec<(u32, &str)> = g.edges().map(|e| (e.dst.0, e.label.as_str())).collect();
        assert_eq!(targets, vec![(2, "Y"), (2, "Z"), (1, "Z")]);
    }

    #[test]
    fn list_nesting_is_capped_at_the_json_depth() {
        let line = |depth: usize| {
            let (open, close) = ("[".repeat(depth), "]".repeat(depth));
            format!("Node n0 with labels A has properties {{k: {open}1{close}}}.\n")
        };
        let frag = GraphFragment::parse(&line(128));
        assert_eq!(frag.skipped_lines, 0);
        let mut value = &frag.nodes[0].props["k"];
        for _ in 0..128 {
            let Value::List(items) = value else { panic!("expected a list, got {value}") };
            value = &items[0];
        }
        assert_eq!(value, &Value::Int(1));
        // One level deeper is malformed, and so is a line far past any
        // stack: both are skipped without aborting.
        let deep = line(129) + &line(200_000);
        let frag = GraphFragment::parse(&deep);
        assert_eq!((frag.nodes.len(), frag.skipped_lines), (0, 2));
        assert_eq!(GraphFragment::count_elements(&deep), 0);
        assert_eq!(GraphFragment::read_graph(&deep).node_count(), 0);
    }

    #[test]
    fn out_of_order_keys_are_sorted_and_the_last_repeat_wins() {
        let text = "Node n0 with labels A has properties {b: 1, a: 2, b: 3}.\n\
                    Node n0 -[E {z: 1, y: 2}]-> Node n0 (A).\n";
        let frag = GraphFragment::parse(text);
        let keys = |p: &PropertyMap| p.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>();
        assert_eq!(keys(&frag.nodes[0].props), ["a=2", "b=3"]);
        assert_eq!(keys(&frag.edges[0].props), ["y=2", "z=1"]);
        let g = GraphFragment::read_graph(text);
        assert_eq!(g.node(NodeId(0)).props, frag.nodes[0].props);
        assert_eq!(g.edges().next().unwrap().props, frag.edges[0].props);
    }

    #[test]
    fn a_line_with_descending_keys_reads_in_one_sort() {
        let pairs: Vec<String> = (0..100_000).rev().map(|i| format!("k{i:06}: {i}")).collect();
        let line = format!("Node n0 with labels A has properties {{{}}}.\n", pairs.join(", "));
        let start = std::time::Instant::now();
        let g = GraphFragment::read_graph(&line);
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
        let props = &g.node(NodeId(0)).props;
        assert_eq!((props.len(), &props["k000007"]), (100_000, &Value::Int(7)));
    }

    #[test]
    fn multi_label_nodes() {
        let frag =
            GraphFragment::parse("Node n3 with labels Coach:Person has properties {x: 1}.\n");
        assert_eq!(frag.nodes[0].labels, vec!["Coach", "Person"]);
    }
}
