//! Property-based tests for tokenization, windowing, and fragment
//! decoding, including differential tests against the straightforward
//! definitions in [`reference`].

use grm_pgraph::{props, PropertyGraph, PropertyMap, Value};
use grm_textenc::{
    chunk, encode_adjacency, encode_incident, encode_summary, token_count, tokenize, GraphFragment,
    SummaryConfig, Tokenized, WindowConfig,
};
use proptest::prelude::*;

proptest! {
    /// The tokenizer is lossless on arbitrary input.
    #[test]
    fn tokenizer_is_lossless(text in ".{0,300}") {
        prop_assert_eq!(tokenize(&text).concat(), text);
    }

    /// No token is empty and alphanumeric runs respect the piece cap.
    #[test]
    fn tokens_are_nonempty_and_bounded(text in "[a-zA-Z0-9 .,:{}']{0,200}") {
        for t in tokenize(&text) {
            prop_assert!(!t.is_empty());
            let core = t.trim_start();
            if core.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                prop_assert!(core.chars().count() <= grm_textenc::MAX_PIECE);
            }
        }
    }

    /// Zero-overlap windows partition the token stream exactly.
    #[test]
    fn zero_overlap_windows_partition(
        text in "[a-z0-9 \n]{1,400}",
        window in 4usize..60,
    ) {
        let ws = chunk(&text, WindowConfig::new(window, 0));
        let rebuilt: String = ws.windows.iter().map(|w| w.text.as_str()).collect();
        prop_assert_eq!(rebuilt, text);
    }

    /// With overlap, consecutive windows share exactly the configured
    /// token stride, and the final window reaches the last token.
    #[test]
    fn overlapping_windows_cover(
        text in "[a-z0-9 \n]{1,400}",
        window in 6usize..60,
        overlap_frac in 0usize..5,
    ) {
        let overlap = (window * overlap_frac / 10).min(window - 1);
        let ws = chunk(&text, WindowConfig::new(window, overlap));
        prop_assume!(!ws.is_empty());
        for pair in ws.windows.windows(2) {
            prop_assert_eq!(pair[1].start_token, pair[0].start_token + window - overlap);
        }
        let last = ws.windows.last().unwrap();
        prop_assert_eq!(last.start_token + last.token_len, ws.total_tokens);
    }
}

fn arb_safe_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
        "[a-zA-Z0-9 .:_-]{0,12}".prop_map(Value::Str),
        any::<i32>().prop_map(|t| Value::DateTime(i64::from(t))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity on nodes, edges, labels and
    /// property values, for random graphs.
    #[test]
    fn incident_roundtrip(
        node_count in 1usize..12,
        kvs in prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_safe_value()), 0..4),
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..16),
    ) {
        let mut g = PropertyGraph::new();
        for i in 0..node_count {
            let mut p = grm_pgraph::PropertyMap::new();
            for (k, v) in &kvs {
                p.insert(format!("{k}{i}"), v.clone());
            }
            g.add_node(["Node2"], p);
        }
        for (s, d) in &edges {
            let src = grm_pgraph::NodeId(u32::from(s % node_count as u8));
            let dst = grm_pgraph::NodeId(u32::from(d % node_count as u8));
            g.add_edge(src, dst, "LINKS", props([("w", 1i64)]));
        }

        let frag = GraphFragment::parse(&encode_incident(&g));
        prop_assert_eq!(frag.skipped_lines, 0);
        prop_assert_eq!(frag.nodes.len(), g.node_count());
        prop_assert_eq!(frag.edges.len(), g.edge_count());
        for (fnode, gnode) in frag.nodes.iter().zip(g.nodes()) {
            prop_assert_eq!(&fnode.labels, &gnode.labels);
            prop_assert_eq!(&fnode.props, &gnode.props);
        }
    }

    /// Fragment parsing is total on arbitrary text and never reports
    /// more elements than lines.
    #[test]
    fn fragment_parse_is_total(text in ".{0,400}") {
        let frag = GraphFragment::parse(&text);
        let lines = text.lines().count();
        prop_assert!(frag.nodes.len() + frag.edges.len() + frag.skipped_lines <= lines + 1);
    }

    /// Any contiguous window of an encoding parses without panicking
    /// and recovers a subset of the graph.
    #[test]
    fn windows_decode_to_subsets(cut_a in 0usize..1000, cut_b in 0usize..1000) {
        let mut g = PropertyGraph::new();
        for i in 0..20i64 {
            g.add_node(["User"], props([("id", i)]));
        }
        let text = encode_incident(&g);
        let (a, b) = (cut_a % text.len(), cut_b % text.len());
        let (lo, hi) = (a.min(b), a.max(b));
        // Snap to char boundaries.
        let lo = (lo..text.len()).find(|i| text.is_char_boundary(*i)).unwrap_or(0);
        let hi = (hi..text.len()).find(|i| text.is_char_boundary(*i)).unwrap_or(text.len());
        let frag = GraphFragment::parse(&text[lo..hi]);
        prop_assert!(frag.nodes.len() <= g.node_count());
        for n in &frag.nodes {
            prop_assert!(n.labels == vec!["User".to_owned()]);
        }
    }
}

/// Straightforward definitions the text path is checked against:
/// encoders that `format!` every line and literal, a tokenizer that
/// collects every piece, a chunker that concatenates token pieces and
/// scans every window for every node block, and a fragment parser and
/// graph builder that copy every value.
mod reference {
    use std::fmt::Write as _;

    use grm_pgraph::{EdgeId, NodeId, PropertyGraph, PropertyMap, Value};
    use grm_textenc::{
        BrokenPattern, FragmentEdge, FragmentNode, GraphFragment, SummaryConfig, Window,
    };

    /// A value's literal, built by `format!` with one `replace` per
    /// string.
    fn literal(v: &Value) -> String {
        match v {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => format!("{b}"),
            Value::Int(i) => format!("{i}"),
            Value::Float(x) => format!("{x}"),
            Value::Str(s) => format!("'{}'", s.replace('\'', "\\'")),
            Value::DateTime(t) => format!("datetime({t})"),
            Value::List(vs) => {
                format!("[{}]", vs.iter().map(literal).collect::<Vec<_>>().join(", "))
            }
        }
    }

    fn props_literal(props: &PropertyMap) -> String {
        let pairs: Vec<String> =
            props.iter().map(|(k, v)| format!("{k}: {}", literal(v))).collect();
        format!("{{{}}}", pairs.join(", "))
    }

    fn write_node(g: &PropertyGraph, id: NodeId) -> String {
        let node = g.node(id);
        format!(
            "Node n{} with labels {} has properties {}.\n",
            id.0,
            node.labels.join(":"),
            props_literal(&node.props)
        )
    }

    fn write_edge(g: &PropertyGraph, id: EdgeId) -> String {
        let edge = g.edge(id);
        format!(
            "Node n{} -[{} {}]-> Node n{} ({}).\n",
            edge.src.0,
            edge.label,
            props_literal(&edge.props),
            edge.dst.0,
            g.node(edge.dst).labels.join(":")
        )
    }

    fn header(g: &PropertyGraph) -> String {
        format!("Graph with {} nodes and {} edges.\n", g.node_count(), g.edge_count())
    }

    pub fn encode_incident(g: &PropertyGraph) -> String {
        let mut out = header(g);
        for node in g.nodes() {
            out += &write_node(g, node.id);
            for edge in g.out_edges(node.id) {
                out += &write_edge(g, edge.id);
            }
        }
        out
    }

    pub fn encode_adjacency(g: &PropertyGraph) -> String {
        let mut out = header(g);
        for node in g.nodes() {
            let neighbours: Vec<String> =
                g.out_edges(node.id).map(|e| format!("{}->n{}", e.label, e.dst.0)).collect();
            let neighbours =
                if neighbours.is_empty() { "none".to_owned() } else { neighbours.join(", ") };
            let labels = node.labels.join(":");
            let props = props_literal(&node.props);
            let _ = writeln!(out, "n{} ({labels}) {props} -> {neighbours}", node.id.0);
        }
        out
    }

    pub fn encode_summary(g: &PropertyGraph, config: SummaryConfig) -> String {
        let strided = |n: usize, k: usize| {
            let k = k.min(n);
            (0..k).map(move |i| i * n / k.max(1))
        };
        let mut out = format!(
            "Graph summary: {} nodes and {} edges in total.\n",
            g.node_count(),
            g.edge_count()
        );
        for label in g.node_labels() {
            let _ = writeln!(out, "Label {} has {} nodes.", label, g.label_count(&label));
        }
        for label in g.edge_labels() {
            let count = g.edge_label_count(&label);
            let _ = writeln!(out, "Relationship {label} has {count} edges.");
        }
        for label in g.node_labels() {
            let ids: Vec<NodeId> = g.nodes_with_label(&label).map(|n| n.id).collect();
            for idx in strided(ids.len(), config.nodes_per_label) {
                out += &write_node(g, ids[idx]);
            }
        }
        for label in g.edge_labels() {
            let ids: Vec<EdgeId> = g.edges_with_label(&label).map(|e| e.id).collect();
            for idx in strided(ids.len(), config.edges_per_type) {
                out += &write_node(g, g.edge(ids[idx]).src);
                out += &write_edge(g, ids[idx]);
            }
        }
        out
    }

    pub fn tokenize(text: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                out.push(&text[start..]);
                break;
            }
            let c = bytes[i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                let mut taken = 0;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    && taken < grm_textenc::MAX_PIECE
                {
                    i += 1;
                    taken += 1;
                }
            } else {
                i += text[i..].chars().next().map_or(1, char::len_utf8);
            }
            out.push(&text[start..i]);
        }
        out
    }

    pub fn chunk(text: &str, size: usize, overlap: usize) -> (Vec<Window>, Vec<BrokenPattern>) {
        let tokens = tokenize(text);
        let mut windows = Vec::new();
        let mut start = 0;
        while start < tokens.len() {
            let end = (start + size).min(tokens.len());
            windows.push(Window {
                index: windows.len(),
                text: tokens[start..end].concat(),
                start_token: start,
                token_len: end - start,
            });
            if end == tokens.len() {
                break;
            }
            start += size - overlap;
        }
        if windows.len() <= 1 {
            return (windows, Vec::new());
        }
        let mut offsets = vec![0];
        for t in &tokens {
            offsets.push(offsets.last().unwrap() + t.len());
        }
        let ranges: Vec<(usize, usize)> = windows
            .iter()
            .map(|w| (offsets[w.start_token], offsets[w.start_token + w.token_len]))
            .collect();
        // Per-node line blocks, each checked against every window.
        let mut blocks: Vec<(usize, usize, Option<&str>)> = Vec::new();
        let mut pos = 0;
        for line in text.split_inclusive('\n') {
            let id = line.strip_prefix("Node n").and_then(|rest| {
                let end = rest.find(|c: char| !c.is_ascii_digit())?;
                (end > 0).then(|| &rest[..end])
            });
            match blocks.last_mut() {
                Some(block) if block.2 == id => block.1 = pos + line.len(),
                _ => blocks.push((pos, pos + line.len(), id)),
            }
            pos += line.len();
        }
        let broken = blocks
            .into_iter()
            .filter(|(start, end, _)| !ranges.iter().any(|(ws, we)| ws <= start && end <= we))
            .map(|(start, end, id)| {
                let overlaps = |(ws, we): &(usize, usize)| *ws < end && start < *we;
                BrokenPattern {
                    node: id.map_or_else(|| "-".to_owned(), |n| format!("n{n}")),
                    first_window: ranges.iter().position(overlaps).unwrap_or(0),
                    last_window: ranges.iter().rposition(overlaps).unwrap_or(0),
                }
            })
            .collect();
        (windows, broken)
    }

    pub fn parse(text: &str) -> GraphFragment {
        let mut frag = GraphFragment::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("Graph with ") {
                continue;
            }
            if let Some(edge) = edge_line(line) {
                frag.edges.push(edge);
            } else if let Some(node) = node_line(line) {
                frag.nodes.push(node);
            } else {
                frag.skipped_lines += 1;
            }
        }
        frag
    }

    fn node_line(line: &str) -> Option<FragmentNode> {
        let rest = line.strip_prefix("Node n")?;
        let (id_str, rest) = rest.split_once(" with labels ")?;
        let id: u32 = id_str.parse().ok()?;
        let (labels_str, rest) = rest.split_once(" has properties ")?;
        let props = props(rest.strip_suffix('.')?)?;
        Some(FragmentNode { id, labels: labels_str.split(':').map(str::to_owned).collect(), props })
    }

    fn edge_line(line: &str) -> Option<FragmentEdge> {
        let rest = line.strip_prefix("Node n")?;
        let (src_str, rest) = rest.split_once(" -[")?;
        let src: u32 = src_str.parse().ok()?;
        let (head, rest) = rest.split_once("]-> Node n")?;
        let (label, props_str) = head.split_once(' ').unwrap_or((head, "{}"));
        let props = props(props_str)?;
        let (dst_str, rest) = rest.split_once(" (")?;
        let dst: u32 = dst_str.parse().ok()?;
        let dst_labels = rest.strip_suffix(").")?.split(':').map(str::to_owned).collect();
        Some(FragmentEdge { src, label: label.to_owned(), props, dst, dst_labels })
    }

    fn props(s: &str) -> Option<PropertyMap> {
        let inner = s.strip_prefix('{')?.strip_suffix('}')?;
        let mut props = PropertyMap::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (key, after) = rest.split_once(':')?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return None;
            }
            let (value, remainder) = value(after.trim(), 0)?;
            props.insert(key.to_owned(), value);
            rest = remainder.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return None;
            }
        }
        Some(props)
    }

    /// One literal, `depth` lists deep; lists nest at most 128 deep,
    /// the graph loader's JSON depth.
    fn value(s: &str, depth: usize) -> Option<(Value, &str)> {
        if let Some(rest) = s.strip_prefix('\'') {
            let mut out = String::new();
            let mut chars = rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => out.push(chars.next()?.1),
                    '\'' => return Some((Value::Str(out), &rest[i + 1..])),
                    other => out.push(other),
                }
            }
            return None;
        }
        if let Some(rest) = s.strip_prefix("datetime(") {
            let (num, rest) = rest.split_once(')')?;
            return Some((Value::DateTime(num.trim().parse().ok()?), rest));
        }
        if let Some(mut rest) = s.strip_prefix('[') {
            if depth == 128 {
                return None;
            }
            let mut items = Vec::new();
            rest = rest.trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Some((Value::List(items), r));
            }
            loop {
                let (v, r) = value(rest, depth + 1)?;
                items.push(v);
                rest = r.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else if let Some(r) = rest.strip_prefix(']') {
                    return Some((Value::List(items), r));
                } else {
                    return None;
                }
            }
        }
        for (word, value) in
            [("null", Value::Null), ("true", Value::Bool(true)), ("false", Value::Bool(false))]
        {
            if let Some(rest) = s.strip_prefix(word) {
                return Some((value, rest));
            }
        }
        let end = s
            .char_indices()
            .take_while(|(i, c)| c.is_ascii_digit() || *c == '.' || (*i == 0 && *c == '-'))
            .map(|(i, c)| i + c.len_utf8())
            .last()?;
        let (num, rest) = s.split_at(end);
        if num.contains('.') {
            Some((Value::Float(num.parse().ok()?), rest))
        } else {
            Some((Value::Int(num.parse().ok()?), rest))
        }
    }

    pub fn to_graph(frag: &GraphFragment) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut ids = std::collections::HashMap::new();
        for n in &frag.nodes {
            ids.insert(n.id, g.add_node(n.labels.clone(), n.props.clone()));
        }
        for e in &frag.edges {
            let Some(&src) = ids.get(&e.src) else { continue };
            let dst = *ids
                .entry(e.dst)
                .or_insert_with(|| g.add_node(e.dst_labels.clone(), PropertyMap::new()));
            g.add_edge(src, dst, e.label.clone(), e.props.clone());
        }
        g
    }
}

/// Pieces of the fragment grammar, glued at random into near-miss
/// lines: `+` ids (which `u32` parsing accepts), escaped and
/// unterminated quotes, `datetime(..)`, nested lists, headers.
const PIECES: [&str; 40] = [
    "Node n",
    "Node n",
    "0",
    "+5",
    "12",
    "x",
    " -[",
    "]-> Node n",
    " with labels ",
    "A:B",
    " has properties ",
    "{",
    "}",
    "k: ",
    "id: ",
    ", ",
    "'",
    "\\'",
    "\\",
    "a'b",
    "é",
    "datetime(",
    " 42",
    ")",
    "[",
    "]",
    "[1, [2, 'x']]",
    "null",
    "true",
    "-3.5",
    "1.2.3",
    "7",
    " (",
    ").",
    ".",
    " ",
    "\n",
    "Graph with 2 nodes and 1 edges.\n",
    "\t",
    "🦀",
];

fn grammar_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..PIECES.len(), 0..60)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

/// Incident encodings of small graphs with awkward string values,
/// cut at arbitrary character boundaries as a window or chunk would.
fn truncated_encoding() -> impl Strategy<Value = String> {
    (
        1usize..8,
        prop::collection::vec("[a-z' \\\\é,:{}]{0,6}", 1..4),
        prop::collection::vec((0u8..8, 0u8..8), 0..10),
        0usize..2000,
        0usize..2000,
    )
        .prop_map(|(nodes, strings, edges, a, b)| {
            let mut g = PropertyGraph::new();
            for i in 0..nodes {
                let s = strings[i % strings.len()].clone();
                let p = props([("id", Value::Int(i as i64)), ("name", Value::Str(s))]);
                g.add_node(if i % 2 == 0 { vec!["User"] } else { vec!["User", "Admin"] }, p);
            }
            for (s, d) in edges {
                let src = grm_pgraph::NodeId(u32::from(s) % nodes as u32);
                let dst = grm_pgraph::NodeId(u32::from(d) % nodes as u32);
                g.add_edge(src, dst, "FOLLOWS", props([("since", Value::DateTime(7))]));
            }
            let text = encode_incident(&g);
            let snap = |i: usize| {
                (i % (text.len() + 1)..=text.len())
                    .find(|i| text.is_char_boundary(*i))
                    .unwrap_or(text.len())
            };
            let (lo, hi) = (snap(a.min(b)), snap(a.max(b)));
            text[lo.min(hi)..hi].to_owned()
        })
}

/// A property literal: quoted strings with escapes, numbers (some
/// that no number type accepts), datetimes, keywords, and lists
/// nested two deep.
fn literal() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        "'[a-z é\\\\']{0,6}'",
        "'[a-z]{0,2}\\\\'[a-zé]{0,2}\\\\\\\\'",
        "[-]{0,1}[0-9]{1,3}",
        "[0-9]{1,2}[.][0-9]{0,2}",
        "[0-9][.][0-9][.][0-9]",
        "[1-9][0-9]{19}",
        Just("-".to_owned()),
        "datetime\\([ ]{0,1}[-]{0,1}[0-9]{1,4}\\)",
        Just("null".to_owned()),
        Just("false".to_owned()),
    ]
    .boxed();
    let list = |item: BoxedStrategy<String>| {
        prop::collection::vec(item, 0..3).prop_map(|items| format!("[{}]", items.join(", ")))
    };
    let shallow = prop_oneof![leaf.clone(), list(leaf.clone())].boxed();
    prop_oneof![leaf, list(shallow)].boxed()
}

/// Lines in the encoder's grammar, with `+` ids and odd spacing.
fn element_lines() -> impl Strategy<Value = String> {
    let line = (
        "[+]{0,1}[0-9]{1,2}",
        "[A-Z][a-z]{0,3}",
        prop::collection::vec(("[a-z_]{1,3}", literal()), 0..4),
        any::<bool>(),
        "[0-9]{1,2}",
        "[ ]{0,2}",
    )
        .prop_map(|(id, label, props, edge, dst, pad)| {
            let props: Vec<String> = props.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            let props = props.join(", ");
            if edge {
                format!(
                    "{pad}Node n{id} -[{} {{{props}}}]-> Node n{dst} ({label}).",
                    label.to_uppercase()
                )
            } else {
                format!("Node n{id} with labels {label}:X has properties {{{props}}}.{pad}")
            }
        });
    prop::collection::vec(line, 0..12).prop_map(|lines| lines.join("\n"))
}

fn any_text() -> impl Strategy<Value = String> {
    prop_oneof![
        ".{0,300}",
        "[ \t\n]{0,12}",
        "[a-z0-9_ \n.,:'{}]{0,300}",
        grammar_soup(),
        truncated_encoding(),
        element_lines(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every token reading — pieces, count, and a [`Tokenized`]'s
    /// count — is the reference tokenizer's.
    #[test]
    fn tokenizer_matches_reference(text in any_text()) {
        let pieces = reference::tokenize(&text);
        prop_assert_eq!(tokenize(&text), pieces.clone());
        prop_assert_eq!(token_count(&text), pieces.len());
        prop_assert_eq!(Tokenized::new(text.clone()).token_count(), pieces.len());
    }

    /// Window texts, token spans and broken patterns equal the
    /// reference chunker's, through both `chunk` and the one-scan
    /// `Tokenized` path, and `Tokenized::windows` cuts the same windows.
    #[test]
    fn chunking_matches_reference(text in any_text(), size in 1usize..40, overlap in 0usize..40) {
        let overlap = overlap % size;
        let cfg = WindowConfig::new(size, overlap);
        let (windows, breakages) = reference::chunk(&text, size, overlap);
        let total = reference::tokenize(&text).len();
        let tokenized = Tokenized::new(text.clone());
        for ws in [chunk(&text, cfg), tokenized.chunk(cfg)] {
            prop_assert_eq!(&ws.windows, &windows);
            prop_assert_eq!(&ws.breakages, &breakages);
            prop_assert_eq!(ws.broken_patterns, breakages.len());
            prop_assert_eq!(ws.total_tokens, total);
        }
        prop_assert_eq!(tokenized.windows(cfg), windows);
    }

    /// A window carries its text's token count: prompts take it as
    /// theirs instead of scanning the window again.
    #[test]
    fn window_token_len_counts_its_text(
        text in any_text(),
        size in 1usize..40,
        overlap in 0usize..40,
    ) {
        let cfg = WindowConfig::new(size, overlap % size);
        for w in Tokenized::new(text).chunk(cfg).windows {
            prop_assert_eq!(token_count(&w.text), w.token_len);
        }
    }

    /// `parse` reads what the reference parser reads, and
    /// `count_elements` counts exactly its nodes and edges.
    #[test]
    fn parse_and_count_match_reference(text in any_text()) {
        let frag = GraphFragment::parse(&text);
        let expected = reference::parse(&text);
        prop_assert_eq!(&frag.nodes, &expected.nodes);
        prop_assert_eq!(&frag.edges, &expected.edges);
        prop_assert_eq!(frag.skipped_lines, expected.skipped_lines);
        prop_assert_eq!(GraphFragment::count_elements(&text), frag.nodes.len() + frag.edges.len());
    }

    /// The one-read graph builder builds the copying reference's graph
    /// of the reference parse, node by node and edge by edge.
    #[test]
    fn read_graph_matches_reference(text in any_text()) {
        let expected = reference::to_graph(&reference::parse(&text));
        let g = GraphFragment::read_graph(&text);
        prop_assert_eq!(g.node_count(), expected.node_count());
        prop_assert_eq!(g.edge_count(), expected.edge_count());
        for (a, b) in g.nodes().zip(expected.nodes()) {
            prop_assert_eq!((a.id, &a.labels, &a.props), (b.id, &b.labels, &b.props));
        }
        for (a, b) in g.edges().zip(expected.edges()) {
            prop_assert_eq!((a.src, a.dst, &a.label, &a.props), (b.src, b.dst, &b.label, &b.props));
        }
    }
}

/// Values with everything a literal can hold: quotes, backslashes and
/// non-ASCII text in strings, negative, fractional and non-finite
/// floats, datetimes, and lists nested two deep.
fn arb_value() -> BoxedStrategy<Value> {
    let special = prop_oneof![
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
        Just(0.1),
        Just(-2.5e-8),
        Just(1e300),
    ];
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        special.prop_map(Value::Float),
        "[a-z '\\\\é✓İẞΣ,:{}\\[\\]]{0,8}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::DateTime),
    ]
    .boxed();
    let list = |item: BoxedStrategy<Value>| prop::collection::vec(item, 0..3).prop_map(Value::List);
    let shallow = prop_oneof![leaf.clone(), list(leaf.clone())].boxed();
    prop_oneof![leaf, list(shallow)].boxed()
}

/// Graphs whose nodes carry one or two labels and whose nodes and
/// edges carry [`arb_value`] properties.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    (
        prop::collection::vec(
            (0usize..4, prop::collection::vec(("[a-z_]{1,4}", arb_value()), 0..4)),
            1..8,
        ),
        prop::collection::vec(
            (0u8..8, 0u8..8, prop::collection::vec(("[a-z]{1,3}", arb_value()), 0..3)),
            0..12,
        ),
    )
        .prop_map(|(nodes, edges)| {
            const LABELS: [&[&str]; 4] = [&["User"], &["Person", "Coach"], &["Match"], &["A", "B"]];
            let mut g = PropertyGraph::new();
            for (labels, kvs) in &nodes {
                g.add_node(LABELS[*labels].iter().copied(), kvs.iter().cloned().collect());
            }
            for (i, (s, d, kvs)) in edges.into_iter().enumerate() {
                let n = nodes.len() as u32;
                let (src, dst) = (u32::from(s) % n, u32::from(d) % n);
                let label = ["FOLLOWS", "PLAYED_IN"][i % 2];
                let props: PropertyMap = kvs.into_iter().collect();
                g.add_edge(grm_pgraph::NodeId(src), grm_pgraph::NodeId(dst), label, props);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every encoder writes, byte for byte, what the `format!`-built
    /// reference writes.
    #[test]
    fn encoders_match_reference(g in arb_graph(), per_label in 1usize..4) {
        prop_assert_eq!(encode_incident(&g), reference::encode_incident(&g));
        prop_assert_eq!(encode_adjacency(&g), reference::encode_adjacency(&g));
        let cfg = SummaryConfig { nodes_per_label: per_label, edges_per_type: per_label };
        prop_assert_eq!(encode_summary(&g, cfg), reference::encode_summary(&g, cfg));
    }
}
