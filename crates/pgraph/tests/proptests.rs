//! Property-based tests for the value model, the graph store, schema
//! inference and the JSON loader.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use grm_pgraph::{
    from_json, props, to_json, GraphSchema, IoError, NodeId, PropertyGraph, PropertyMap,
    PropertyStats, Value, ValueKey,
};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-zA-Z0-9 _.-]{0,16}".prop_map(Value::Str),
        any::<i32>().prop_map(|t| Value::DateTime(i64::from(t))),
    ]
}

proptest! {
    #[test]
    fn cypher_eq_is_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.cypher_eq(&b), b.cypher_eq(&a));
    }

    #[test]
    fn cypher_eq_is_reflexive_for_non_null(v in arb_value()) {
        prop_assume!(!v.is_null());
        // NaN never occurs in our float range.
        prop_assert_eq!(v.cypher_eq(&v), Some(true));
    }

    #[test]
    fn cypher_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        if let (Some(x), Some(y)) = (a.cypher_cmp(&b), b.cypher_cmp(&a)) {
            prop_assert_eq!(x, y.reverse());
        }
    }

    #[test]
    fn null_comparisons_are_unknown(v in arb_value()) {
        prop_assert_eq!(Value::Null.cypher_eq(&v), None);
        prop_assert_eq!(v.cypher_cmp(&Value::Null), None);
    }

    #[test]
    fn group_key_agrees_with_equality_same_type(a in any::<i64>(), b in any::<i64>()) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        prop_assert_eq!(va.group_key() == vb.group_key(), a == b);
    }

    #[test]
    fn display_never_panics(v in arb_value()) {
        let _ = v.to_string();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graph construction keeps all indexes consistent.
    #[test]
    fn store_indexes_stay_consistent(
        node_labels in prop::collection::vec("[A-Z][a-z]{0,4}", 1..20),
        edge_specs in prop::collection::vec((any::<u16>(), any::<u16>(), "[A-Z]{1,4}"), 0..40),
    ) {
        let mut g = PropertyGraph::new();
        for (i, l) in node_labels.iter().enumerate() {
            g.add_node([l.as_str()], props([("id", i as i64)]));
        }
        let n = g.node_count() as u16;
        for (s, d, l) in &edge_specs {
            let src = grm_pgraph::NodeId(u32::from(s % n));
            let dst = grm_pgraph::NodeId(u32::from(d % n));
            g.add_edge(src, dst, l.as_str(), Default::default());
        }

        // Label index == full scan, for every label.
        for label in g.node_labels() {
            let via_index: Vec<_> = g.nodes_with_label(&label).map(|x| x.id).collect();
            let via_scan: Vec<_> =
                g.nodes().filter(|x| x.has_label(&label)).map(|x| x.id).collect();
            prop_assert_eq!(via_index, via_scan);
        }
        for label in g.edge_labels() {
            prop_assert_eq!(
                g.edges_with_label(&label).count(),
                g.edges().filter(|e| e.label == label).count()
            );
        }
        // Degrees sum to edge count on both sides.
        let out_sum: usize = g.nodes().map(|x| g.out_degree(x.id)).sum();
        let in_sum: usize = g.nodes().map(|x| g.in_degree(x.id)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// Schema inference presence counts never exceed label totals.
    #[test]
    fn schema_presence_is_bounded(
        keys in prop::collection::vec("[a-z]{1,6}", 1..6),
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 1..6), 1..20),
    ) {
        let mut g = PropertyGraph::new();
        for row in &rows {
            let mut p = grm_pgraph::PropertyMap::new();
            for (k, present) in keys.iter().zip(row) {
                if *present {
                    p.insert(k.clone(), Value::Int(1));
                }
            }
            g.add_node(["N"], p);
        }
        let schema = grm_pgraph::GraphSchema::infer(&g);
        if let Some(per_label) = schema.node_props.get("N") {
            for stats in per_label.values() {
                prop_assert!(stats.present <= stats.total);
                prop_assert!(stats.distinct <= stats.present);
                prop_assert!((0.0..=1.0).contains(&stats.presence_ratio()));
            }
        }
    }
}

/// The inference `GraphSchema::infer` replaced, kept as the reference
/// it is compared against: one pass over all nodes and edges, hash
/// tallies keyed on the graph's borrowed labels, keys and values.
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

    use grm_pgraph::{PropertyGraph, Value, ValueKey};

    /// `(present, total, types, distinct)` of one property key.
    pub type Stats = (usize, usize, BTreeSet<&'static str>, usize);
    /// `label -> key -> stats`.
    pub type Props = BTreeMap<String, BTreeMap<String, Stats>>;
    /// `edge type -> (src label, dst label) -> count`.
    pub type Signatures = BTreeMap<String, BTreeMap<(String, String), usize>>;

    type Tally<'g> =
        HashMap<&'g str, HashMap<&'g str, (usize, BTreeSet<&'static str>, HashSet<ValueKey<'g>>)>>;

    fn observe<'g>(
        per_label: &mut HashMap<&'g str, (usize, BTreeSet<&'static str>, HashSet<ValueKey<'g>>)>,
        key: &'g str,
        value: &'g Value,
    ) {
        if value.is_null() {
            return;
        }
        let (present, types, seen) = per_label.entry(key).or_default();
        *present += 1;
        types.insert(value.type_name());
        seen.insert(ValueKey(value));
    }

    fn freeze(tally: Tally<'_>, total: impl Fn(&str) -> usize) -> Props {
        tally
            .into_iter()
            .map(|(label, per_label)| {
                let total = total(label);
                let props = per_label
                    .into_iter()
                    .map(|(key, (present, types, seen))| {
                        (key.to_owned(), (present, total, types, seen.len()))
                    })
                    .collect();
                (label.to_owned(), props)
            })
            .collect()
    }

    pub fn infer(g: &PropertyGraph) -> (Props, Props, Signatures) {
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
            for sl in &g.node(edge.src).labels {
                for dl in &g.node(edge.dst).labels {
                    *sig.entry((sl.as_str(), dl.as_str())).or_insert(0) += 1;
                }
            }
        }
        let mut node_props = freeze(node_tally, |l| g.label_count(l));
        let mut edge_props = freeze(edge_tally, |l| g.edge_label_count(l));
        let mut signatures: Signatures = endpoints
            .into_iter()
            .map(|(label, sig)| {
                let sig = sig.into_iter().map(|((s, d), n)| ((s.to_owned(), d.to_owned()), n));
                (label.to_owned(), sig.collect())
            })
            .collect();
        for label in g.node_labels() {
            node_props.entry(label).or_default();
        }
        for label in g.edge_labels() {
            edge_props.entry(label.clone()).or_default();
            signatures.entry(label).or_default();
        }
        (node_props, edge_props, signatures)
    }
}

/// `schema` in the reference's shape.
fn as_reference(
    schema: &GraphSchema,
) -> (reference::Props, reference::Props, reference::Signatures) {
    const TYPES: [&str; 7] = ["NULL", "BOOLEAN", "INTEGER", "FLOAT", "STRING", "DATETIME", "LIST"];
    let props = |m: &BTreeMap<String, BTreeMap<String, PropertyStats>>| -> reference::Props {
        m.iter()
            .map(|(label, keys)| {
                let keys = keys.iter().map(|(key, s)| {
                    let types: BTreeSet<&'static str> =
                        TYPES.into_iter().filter(|t| s.types.contains(t)).collect();
                    assert_eq!(types.len(), s.types.len(), "{label}.{key}");
                    (key.clone(), (s.present, s.total, types, s.distinct))
                });
                (label.clone(), keys.collect())
            })
            .collect()
    };
    let signatures =
        schema.edge_signatures.iter().map(|(t, sig)| (t.clone(), sig.endpoints.clone())).collect();
    (props(&schema.node_props), props(&schema.edge_props), signatures)
}

/// Few distinct values, so they repeat: NaNs of both signs, both
/// zeros, both infinities, an `Int` beside an equal `Float`, and lists
/// nested two deep.
fn arb_schema_value() -> BoxedStrategy<Value> {
    let float = prop_oneof![
        Just(1.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(2.5)
    ];
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1i64..3).prop_map(Value::Int),
        float.prop_map(Value::Float),
        "[ab]{0,2}".prop_map(Value::Str),
        (0i64..2).prop_map(Value::DateTime),
    ]
    .boxed();
    let list = |item: BoxedStrategy<Value>| prop::collection::vec(item, 0..3).prop_map(Value::List);
    let shallow = prop_oneof![leaf.clone(), list(leaf.clone())].boxed();
    prop_oneof![leaf.clone(), leaf, list(shallow)].boxed()
}

/// One insert into a graph under construction.
#[derive(Debug, Clone)]
enum Insert {
    Node { labels: usize, props: PropertyMap },
    Edge { src: u8, dst: u8, self_loop: bool, label: usize, props: PropertyMap },
}

/// Insert sequences whose nodes carry zero, one or two labels (`Bare`
/// never has properties, and `void` is always null) and whose edges
/// include self-loops and a property-free type `T`.
fn arb_inserts() -> impl Strategy<Value = Vec<Insert>> {
    let props = || {
        (prop::collection::vec(("[a-d]", arb_schema_value()), 0..4), any::<bool>()).prop_map(
            |(kvs, void)| {
                let mut props: PropertyMap = kvs.into_iter().collect();
                if void {
                    props.insert("void".into(), Value::Null);
                }
                props
            },
        )
    };
    let node = (0usize..NODE_LABELS.len(), props())
        .prop_map(|(labels, props)| Insert::Node { labels, props })
        .boxed();
    let edge = (any::<u8>(), any::<u8>(), any::<bool>(), 0usize..EDGE_TYPES.len(), props())
        .prop_map(|(src, dst, self_loop, label, props)| Insert::Edge {
            src,
            dst,
            self_loop,
            label,
            props,
        });
    prop::collection::vec(prop_oneof![node.clone(), node, edge], 1..40)
}

const NODE_LABELS: [&[&str]; 5] = [&[], &["A"], &["A", "B"], &["B"], &["Bare"]];
const EDGE_TYPES: [&str; 3] = ["R", "S", "T"];

/// Applies one insert; an edge before any node is skipped.
fn apply(g: &mut PropertyGraph, insert: &Insert) {
    match insert {
        Insert::Node { labels, props } => {
            let labels = NODE_LABELS[*labels];
            let props = if labels == ["Bare"] { PropertyMap::new() } else { props.clone() };
            g.add_node(labels.iter().copied(), props);
        }
        Insert::Edge { src, dst, self_loop, label, props } => {
            let n = g.node_count() as u32;
            if n == 0 {
                return;
            }
            let src = NodeId(u32::from(*src) % n);
            let dst = if *self_loop { src } else { NodeId(u32::from(*dst) % n) };
            let label = EDGE_TYPES[*label];
            let props = if label == "T" { PropertyMap::new() } else { props.clone() };
            g.add_edge(src, dst, label, props);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One pass per label infers what the hash tally inferred.
    #[test]
    fn infer_matches_reference(inserts in arb_inserts()) {
        let mut g = PropertyGraph::new();
        for insert in &inserts {
            apply(&mut g, insert);
        }
        prop_assert_eq!(as_reference(&GraphSchema::infer(&g)), reference::infer(&g));
    }

    /// The memoised schema is never stale: it equals a fresh inference
    /// after every insert, each made with the memo filled.
    #[test]
    fn memoised_schema_follows_every_insert(inserts in arb_inserts()) {
        let mut g = PropertyGraph::new();
        prop_assert_eq!(g.schema(), &GraphSchema::infer(&g));
        for insert in &inserts {
            apply(&mut g, insert);
            prop_assert_eq!(g.schema(), &GraphSchema::infer(&g));
        }
        let copy = g.clone();
        prop_assert_eq!(copy.schema(), g.schema());
    }

    /// Sorting value keys agrees with their equality and is a total
    /// order.
    #[test]
    fn value_key_order_agrees_with_equality(
        a in arb_schema_value(),
        b in arb_schema_value(),
        c in arb_schema_value(),
    ) {
        let (a, b, c) = (ValueKey(&a), ValueKey(&b), ValueKey(&c));
        prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }
}

/// Graphs to write as JSON, NaN and ±inf included.
fn arb_doc() -> impl Strategy<Value = PropertyGraph> {
    arb_inserts().prop_map(|inserts| {
        let mut g = PropertyGraph::new();
        for insert in &inserts {
            apply(&mut g, insert);
        }
        g
    })
}

/// `a` and `b` hold the same keys with the same values as
/// [`ValueKey`]s, since NaN ≠ NaN.
fn same_entries(a: &PropertyMap, b: &PropertyMap) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| ka == kb && ValueKey(va) == ValueKey(vb))
}

/// Text near JSON: its punctuation, digits, number signs and the
/// letters of its keywords, plus arbitrary bytes.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[{}\\[\\]\":,0-9.eE+\\- \\\\nultrfasIDSgb]{0,48}",
        ".{0,32}",
        prop::collection::vec(any::<u8>(), 0..48)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

/// Endpoints no `u32` holds.
const BAD_ENDPOINTS: [&str; 6] =
    ["-1", "-4294967296", "4294967296", "18446744073709551616", "1e300", "0.5"];
/// Integer values no `i64` holds.
const BAD_INTEGERS: [&str; 6] = [
    "9223372036854775808",
    "18446744073709551616",
    "-18446744073709551617",
    "1e300",
    "-1e300",
    "0.5",
];

/// `json` with the number after one occurrence of `field` (picked by
/// `at`) replaced by `number`; `None` when `field` does not occur.
fn replace_number(
    json: &str,
    field: &str,
    at: prop::sample::Index,
    number: &str,
) -> Option<String> {
    let starts: Vec<usize> = json.match_indices(field).map(|(i, _)| i + field.len()).collect();
    if starts.is_empty() {
        return None;
    }
    let start = starts[at.index(starts.len())];
    let len = json[start..]
        .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
        .unwrap_or(json.len() - start);
    Some(format!("{}{number}{}", &json[..start], &json[start + len..]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text loads or errs; the loader never panics.
    #[test]
    fn arbitrary_text_never_panics_the_loader(text in arb_text()) {
        let _ = from_json(&text);
    }

    /// A valid document with bytes cut, replaced or inserted, or cut
    /// short, loads or errs; the loader never panics.
    #[test]
    fn mutated_documents_never_panic_the_loader(
        g in arb_doc(),
        edits in prop::collection::vec((any::<prop::sample::Index>(), 0u8..4, "[{}\\[\\]\":,0-9.e\\-n]"), 1..4),
    ) {
        let mut bytes = to_json(&g).expect("a graph serializes").into_bytes();
        for (at, kind, byte) in edits {
            let i = at.index(bytes.len() + 1);
            match kind {
                0 if i < bytes.len() => {
                    bytes.remove(i);
                }
                1 if i < bytes.len() => bytes[i] = byte.as_bytes()[0],
                2 => bytes.insert(i, byte.as_bytes()[0]),
                _ => bytes.truncate(i),
            }
        }
        let _ = from_json(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every graph loads back from its JSON with the same labels,
    /// endpoints and values, non-finite floats included.
    #[test]
    fn json_round_trip_keeps_every_value(g in arb_doc()) {
        let back = from_json(&to_json(&g).expect("a graph serializes")).expect("it loads back");
        prop_assert_eq!((back.node_count(), back.edge_count()), (g.node_count(), g.edge_count()));
        for (a, b) in g.nodes().zip(back.nodes()) {
            prop_assert_eq!(&a.labels, &b.labels);
            prop_assert!(same_entries(&a.props, &b.props), "{:?} vs {:?}", a.props, b.props);
        }
        for (a, b) in g.edges().zip(back.edges()) {
            prop_assert_eq!((a.src, a.dst, &a.label), (b.src, b.dst, &b.label));
            prop_assert!(same_entries(&a.props, &b.props), "{:?} vs {:?}", a.props, b.props);
        }
    }

    /// A negative or out-of-range endpoint, and an integer value out of
    /// `i64`'s range, are JSON errors wherever they sit; an endpoint
    /// past the last node is a dangling edge.
    #[test]
    fn out_of_range_numbers_are_load_errors(
        g in arb_doc(),
        at in any::<prop::sample::Index>(),
        pick in any::<prop::sample::Index>(),
    ) {
        let json = to_json(&g).expect("a graph serializes");
        prop_assert!(from_json(&json).is_ok());
        let n = g.node_count() as u64;
        let past_end = [n.to_string(), (n + 1).to_string(), u32::MAX.to_string()];
        for field in ["\"src\":", "\"dst\":"] {
            if let Some(doc) = replace_number(&json, field, at, BAD_ENDPOINTS[pick.index(BAD_ENDPOINTS.len())]) {
                prop_assert!(matches!(from_json(&doc), Err(IoError::Json(_))), "{}", doc);
                let doc = replace_number(&json, field, at, &past_end[pick.index(past_end.len())]).unwrap();
                prop_assert!(matches!(from_json(&doc), Err(IoError::DanglingEdge { .. })), "{}", doc);
            }
        }
        for field in ["{\"Int\":", "{\"DateTime\":"] {
            if let Some(doc) = replace_number(&json, field, at, BAD_INTEGERS[pick.index(BAD_INTEGERS.len())]) {
                prop_assert!(matches!(from_json(&doc), Err(IoError::Json(_))), "{}", doc);
            }
        }
    }
}

/// One step of the property-map model test.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(String, Value),
    Remove(String),
    Get(String),
    /// Every value becomes this one, through `values_mut`.
    SetAll(Value),
    /// Both maps become these entries, in this order, repeats included.
    Collect(Vec<(String, Value)>),
}

/// Keys from a small alphabet, so inserts repeat and land anywhere.
fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    let key = || "[a-e]{0,2}";
    let insert = (key(), arb_schema_value()).prop_map(|(k, v)| MapOp::Insert(k, v)).boxed();
    let op = prop_oneof![
        insert.clone(),
        insert,
        key().prop_map(MapOp::Remove),
        key().prop_map(MapOp::Get),
        arb_schema_value().prop_map(MapOp::SetAll),
        prop::collection::vec((key(), arb_schema_value()), 0..12).prop_map(MapOp::Collect),
    ];
    prop::collection::vec(op, 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `PropertyMap` behaves as the `BTreeMap` it replaced: after every
    /// step both hold the same entries in the same order, answer with
    /// the same values and print the same `Debug`.
    #[test]
    fn property_map_matches_a_btree_map(ops in arb_map_ops()) {
        let same = |a: Option<&Value>, b: Option<&Value>| a.map(ValueKey) == b.map(ValueKey);
        let mut map = PropertyMap::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let (a, b) = (map.insert(k.clone(), v.clone()), model.insert(k, v));
                    prop_assert!(same(a.as_ref(), b.as_ref()), "{:?} vs {:?}", a, b);
                }
                MapOp::Remove(k) => {
                    let (a, b) = (map.remove(&k), model.remove(&k));
                    prop_assert!(same(a.as_ref(), b.as_ref()), "{:?} vs {:?}", a, b);
                }
                MapOp::Get(k) => {
                    prop_assert!(same(map.get(&k), model.get(&k)));
                    prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                    if let Some(v) = model.get(&k) {
                        prop_assert!(ValueKey(&map[k.as_str()]) == ValueKey(v));
                    }
                }
                MapOp::SetAll(v) => {
                    map.values_mut().for_each(|x| *x = v.clone());
                    model.values_mut().for_each(|x| *x = v.clone());
                }
                MapOp::Collect(entries) => {
                    map = entries.iter().cloned().collect();
                    model = entries.into_iter().collect();
                }
            }
            prop_assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
            prop_assert!(map.keys().eq(model.keys()));
            prop_assert!(map.values().map(ValueKey).eq(model.values().map(ValueKey)));
            prop_assert!(map.iter().map(|(k, v)| (k, ValueKey(v))).eq(model.iter().map(|(k, v)| (k, ValueKey(v)))));
            prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
        }
        let owned: Vec<(String, Value)> = map.into_iter().collect();
        let expected: Vec<(String, Value)> = model.into_iter().collect();
        prop_assert_eq!(format!("{owned:?}"), format!("{expected:?}"));
    }
}
