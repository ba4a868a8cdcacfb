//! In-memory property-graph store.
//!
//! This is the substrate standing in for Neo4j: a node/edge store with
//! label indexes and in/out adjacency lists, sized for the paper's
//! datasets (up to ~43k nodes / ~56k edges for Twitter). The Cypher
//! engine (`grm-cypher`) plans its pattern matches against the indexes
//! exposed here.

use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;
use std::ops::Index;
use std::sync::OnceLock;

use crate::schema::GraphSchema;
use crate::value::Value;

/// A node's or edge's properties: one `Vec` of `(key, value)` entries
/// sorted by key, each key once. Iteration is in key order, so text
/// encodings of the graph are stable across runs — the whole study is
/// seeded and reproducible.
///
/// A lookup scans a short map and binary-searches a long one. An
/// insert past the last key appends in O(1); any other insert shifts
/// the entries after its key, so many unsorted keys are better
/// collected, which sorts once (stably, so of equal keys the last one
/// wins). The store shrinks each map it takes to its length, so a
/// stored map's heap is exactly what [`PropertyGraph::footprint`]
/// counts for it.
#[derive(Clone, Default, PartialEq)]
pub struct PropertyMap(Vec<(String, Value)>);

impl PropertyMap {
    /// The longest map [`PropertyMap::get`] scans. A scan compares
    /// lengths before bytes, and the executor reads the same key of a
    /// label's nodes row after row, so its branches predict; each probe
    /// of a binary search waits on the comparison before it. On the
    /// generated datasets' maps of 4–5 keys a scan read a key about
    /// three times as fast (2-vCPU VM).
    const SCAN_MAX: usize = 16;

    /// Empty map; allocates nothing.
    pub const fn new() -> Self {
        PropertyMap(Vec::new())
    }

    /// Index of `key`'s entry, or where it would go.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if self.0.last().is_none_or(|(last, _)| *last < key) {
            self.0.push((key, value));
            return None;
        }
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }

    /// `key`'s value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let i = if self.0.len() <= Self::SCAN_MAX {
            self.0.iter().position(|(k, _)| k == key)
        } else {
            self.find(key).ok()
        };
        i.map(|i| &self.0[i].1)
    }

    /// True when `key` has a value.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.0.iter_mut().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for PropertyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Index<&str> for PropertyMap {
    type Output = Value;

    /// # Panics
    /// Panics when `key` has no value.
    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("no entry found for key")
    }
}

impl FromIterator<(String, Value)> for PropertyMap {
    /// Collects the entries and sorts them once unless they arrive in
    /// strictly increasing key order. The sort is stable, so of equal
    /// keys the last one wins, as with repeated inserts.
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(entries: I) -> Self {
        let mut entries: Vec<(String, Value)> = entries.into_iter().collect();
        if !entries.is_sorted_by(|(a, _), (b, _)| a < b) {
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            // `dedup_by` keeps the first of a run; hand it each later value.
            entries.dedup_by(|(later, value), (kept, kept_value)| {
                let same = later == kept;
                if same {
                    std::mem::swap(value, kept_value);
                }
                same
            });
        }
        PropertyMap(entries)
    }
}

impl IntoIterator for PropertyMap {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a PropertyMap {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A [`PropertyMap`]'s entries in key order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (String, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k, v))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Identifier of a node; index into the store's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge; index into the store's edge table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A node with one or more labels and a property map.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: NodeId,
    /// Sorted, deduplicated labels.
    pub labels: Vec<String>,
    pub props: PropertyMap,
}

impl Node {
    /// True when the node carries `label`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.iter().any(|l| l == label)
    }

    /// Property lookup; missing keys read as `Null`, mirroring Cypher.
    pub fn prop(&self, key: &str) -> &Value {
        self.props.get(key).unwrap_or(&Value::Null)
    }
}

/// A directed edge with a single relationship type (Cypher semantics)
/// and a property map.
#[derive(Debug, Clone)]
pub struct Edge {
    pub id: EdgeId,
    pub src: NodeId,
    pub dst: NodeId,
    pub label: String,
    pub props: PropertyMap,
}

impl Edge {
    /// Property lookup; missing keys read as `Null`.
    pub fn prop(&self, key: &str) -> &Value {
        self.props.get(key).unwrap_or(&Value::Null)
    }
}

/// The property-graph store. It only grows: [`PropertyGraph::add_node`]
/// and [`PropertyGraph::add_edge`] are its only mutations.
///
/// Indexes maintained incrementally on insert:
/// * node-label index (`label -> Vec<NodeId>`),
/// * edge-type index (`type -> Vec<EdgeId>`),
/// * out/in adjacency (`NodeId -> Vec<EdgeId>`).
///
/// The inferred schema and the footprint are memoised on first use and
/// dropped on insert.
#[derive(Debug, Default)]
pub struct PropertyGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    node_label_index: HashMap<String, Vec<NodeId>>,
    edge_label_index: HashMap<String, Vec<EdgeId>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    schema: OnceLock<GraphSchema>,
    footprint: OnceLock<GraphFootprint>,
}

impl Clone for PropertyGraph {
    /// A copy's containers hold exactly their contents, so its footprint
    /// is computed afresh; the schema depends on the contents alone and
    /// carries over.
    fn clone(&self) -> Self {
        PropertyGraph {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            node_label_index: self.node_label_index.clone(),
            edge_label_index: self.edge_label_index.clone(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
            schema: self.schema.clone(),
            footprint: OnceLock::new(),
        }
    }
}

impl PropertyGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty graph with capacity pre-reserved for `n` nodes and `m`
    /// edges (avoids reallocation churn when generating the Twitter
    /// dataset's 43k nodes).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        PropertyGraph {
            nodes: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
            node_label_index: HashMap::new(),
            edge_label_index: HashMap::new(),
            out_adj: Vec::with_capacity(n),
            in_adj: Vec::with_capacity(n),
            schema: OnceLock::new(),
            footprint: OnceLock::new(),
        }
    }

    /// Drops the memoised schema and footprint before an insert.
    fn forget_memos(&mut self) {
        self.schema.take();
        self.footprint.take();
    }

    /// Adds a node. Labels are sorted and deduplicated so encodings
    /// are deterministic, and `props` is shrunk to its length.
    pub fn add_node<L, S>(&mut self, labels: L, mut props: PropertyMap) -> NodeId
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let id = NodeId(self.nodes.len() as u32);
        let mut labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        labels.sort();
        labels.dedup();
        for l in &labels {
            index_label(&mut self.node_label_index, l, id);
        }
        self.forget_memos();
        props.0.shrink_to_fit();
        self.nodes.push(Node { id, labels, props });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge; `props` is shrunk to its length.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — endpoints must be
    /// ids previously returned by [`PropertyGraph::add_node`].
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
        mut props: PropertyMap,
    ) -> EdgeId {
        assert!(
            (src.0 as usize) < self.nodes.len() && (dst.0 as usize) < self.nodes.len(),
            "edge endpoint out of range: {src} -> {dst}"
        );
        let id = EdgeId(self.edges.len() as u32);
        let label = label.into();
        index_label(&mut self.edge_label_index, &label, id);
        self.forget_memos();
        props.0.shrink_to_fit();
        self.out_adj[src.0 as usize].push(id);
        self.in_adj[dst.0 as usize].push(id);
        self.edges.push(Edge { id, src, dst, label, props });
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node by id.
    ///
    /// # Panics
    /// Panics on an id not issued by this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Edge by id.
    ///
    /// # Panics
    /// Panics on an id not issued by this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Nodes carrying `label` (via the label index).
    pub fn nodes_with_label<'a>(&'a self, label: &str) -> impl Iterator<Item = &'a Node> + 'a {
        self.node_label_index
            .get(label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |id| self.node(*id))
    }

    /// Edges of relationship type `label` (via the type index).
    pub fn edges_with_label<'a>(&'a self, label: &str) -> impl Iterator<Item = &'a Edge> + 'a {
        self.edge_label_index
            .get(label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |id| self.edge(*id))
    }

    /// Ids of the nodes carrying `label`, in insertion order.
    pub fn node_ids_with_label(&self, label: &str) -> &[NodeId] {
        self.node_label_index.get(label).map_or(&[], Vec::as_slice)
    }

    /// Count of nodes with `label` without materialising them.
    pub fn label_count(&self, label: &str) -> usize {
        self.node_label_index.get(label).map_or(0, Vec::len)
    }

    /// Count of edges with type `label`.
    pub fn edge_label_count(&self, label: &str) -> usize {
        self.edge_label_index.get(label).map_or(0, Vec::len)
    }

    /// Outgoing edges of `n`.
    pub fn out_edges<'a>(&'a self, n: NodeId) -> impl Iterator<Item = &'a Edge> + 'a {
        self.out_adj[n.0 as usize].iter().map(move |e| self.edge(*e))
    }

    /// Incoming edges of `n`.
    pub fn in_edges<'a>(&'a self, n: NodeId) -> impl Iterator<Item = &'a Edge> + 'a {
        self.in_adj[n.0 as usize].iter().map(move |e| self.edge(*e))
    }

    /// Ids of the outgoing edges of `n`, in insertion order.
    pub fn out_edge_ids(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.0 as usize]
    }

    /// Ids of the incoming edges of `n`, in insertion order.
    pub fn in_edge_ids(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.0 as usize]
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.0 as usize].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.0 as usize].len()
    }

    /// The graph's schema, inferred by [`GraphSchema::infer`] on the
    /// first call and kept until the next `add_node` or `add_edge`.
    /// Every run that borrows the graph reads the same schema, so a
    /// graph mined many times infers it once.
    pub fn schema(&self) -> &GraphSchema {
        self.schema.get_or_init(|| GraphSchema::infer(self))
    }

    /// Distinct node labels, sorted (deterministic reporting).
    pub fn node_labels(&self) -> Vec<String> {
        let mut ls: Vec<String> = self.node_label_index.keys().cloned().collect();
        ls.sort();
        ls
    }

    /// Distinct edge types, sorted.
    pub fn edge_labels(&self) -> Vec<String> {
        let mut ls: Vec<String> = self.edge_label_index.keys().cloned().collect();
        ls.sort();
        ls
    }

    /// Byte-exact memory footprint of the store, computed from
    /// container capacities — no allocator involved, so the same
    /// build sequence always yields the same bytes and CI can gate
    /// the numbers exactly. See [`GraphFootprint`] for the breakdown.
    /// Computed on the first call and kept until the next `add_node`
    /// or `add_edge`, like [`PropertyGraph::schema`].
    pub fn footprint(&self) -> &GraphFootprint {
        self.footprint.get_or_init(|| self.measure())
    }

    /// [`PropertyGraph::footprint`], walked afresh.
    fn measure(&self) -> GraphFootprint {
        let string_heap = |s: &String| s.capacity() as u64;
        let map_heap = |m: &PropertyMap| -> u64 {
            let entries = m.len() as u64 * (size_of::<String>() + size_of::<Value>()) as u64;
            entries + m.iter().map(|(k, v)| string_heap(k) + v.heap_bytes()).sum::<u64>()
        };

        let node_bytes = (self.nodes.capacity() * size_of::<Node>()) as u64
            + self
                .nodes
                .iter()
                .map(|n| {
                    (n.labels.capacity() * size_of::<String>()) as u64
                        + n.labels.iter().map(string_heap).sum::<u64>()
                })
                .sum::<u64>();
        let edge_bytes = (self.edges.capacity() * size_of::<Edge>()) as u64
            + self.edges.iter().map(|e| string_heap(&e.label)).sum::<u64>();

        let prop_count = self.nodes.iter().map(|n| n.props.len() as u64).sum::<u64>()
            + self.edges.iter().map(|e| e.props.len() as u64).sum::<u64>();
        let prop_bytes = self.nodes.iter().map(|n| map_heap(&n.props)).sum::<u64>()
            + self.edges.iter().map(|e| map_heap(&e.props)).sum::<u64>();

        // Length-based arithmetic for the hash maps: `HashMap`
        // capacity depends on the hasher's growth policy, which is
        // not something footprint determinism should lean on.
        let index_count = (self.node_label_index.len() + self.edge_label_index.len()) as u64;
        let index_bytes = self
            .node_label_index
            .iter()
            .map(|(k, v)| string_heap(k) + (v.capacity() * size_of::<NodeId>()) as u64)
            .sum::<u64>()
            + self
                .edge_label_index
                .iter()
                .map(|(k, v)| string_heap(k) + (v.capacity() * size_of::<EdgeId>()) as u64)
                .sum::<u64>()
            + index_count * (size_of::<String>() + size_of::<Vec<NodeId>>()) as u64;

        let adj_bytes = ((self.out_adj.capacity() + self.in_adj.capacity())
            * size_of::<Vec<EdgeId>>()) as u64
            + self
                .out_adj
                .iter()
                .chain(self.in_adj.iter())
                .map(|v| (v.capacity() * size_of::<EdgeId>()) as u64)
                .sum::<u64>();

        GraphFootprint {
            entries: vec![
                FootprintEntry { name: "nodes", count: self.nodes.len() as u64, bytes: node_bytes },
                FootprintEntry { name: "edges", count: self.edges.len() as u64, bytes: edge_bytes },
                FootprintEntry { name: "properties", count: prop_count, bytes: prop_bytes },
                FootprintEntry { name: "label-index", count: index_count, bytes: index_bytes },
                FootprintEntry {
                    name: "adjacency",
                    count: (self.out_adj.len() + self.in_adj.len()) as u64,
                    bytes: adj_bytes,
                },
            ],
        }
    }
}

/// Appends `id` to `label`'s index entry, copying the label only when
/// the entry is new. A new entry's `Vec` still grows from empty, so
/// the deterministic footprint tables keep their capacities.
fn index_label<T>(index: &mut HashMap<String, Vec<T>>, label: &str, id: T) {
    match index.get_mut(label) {
        Some(ids) => ids.push(id),
        None => index.entry(label.to_owned()).or_default().push(id),
    }
}

/// One component of a [`GraphFootprint`]: `count` instances of `name`
/// occupying `bytes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FootprintEntry {
    pub name: &'static str,
    pub count: u64,
    pub bytes: u64,
}

/// Deterministic byte accounting for a [`PropertyGraph`], one entry
/// per storage component (`nodes`, `edges`, `properties`,
/// `label-index`, `adjacency`). Computed from `Vec`/`String`
/// capacities and map lengths, never from the allocator, so the
/// numbers are reproducible across platforms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphFootprint {
    pub entries: Vec<FootprintEntry>,
}

impl GraphFootprint {
    /// Total bytes over every component.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }
}

/// Convenience macro-free builder for property maps.
///
/// ```
/// use grm_pgraph::props;
/// let p = props([("name", "Ada"), ("country", "UK")]);
/// assert_eq!(p.len(), 2);
/// ```
pub fn props<K, V, I>(items: I) -> PropertyMap
where
    K: Into<String>,
    V: Into<Value>,
    I: IntoIterator<Item = (K, V)>,
{
    items.into_iter().map(|(k, v)| (k.into(), v.into())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (PropertyGraph, NodeId, NodeId) {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["Person"], props([("name", "Ada")]));
        let b = g.add_node(["Person", "Coach"], props([("name", "Bo")]));
        g.add_edge(a, b, "KNOWS", props([("since", 1999i64)]));
        (g, a, b)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, a, b) = tiny();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node(a).prop("name"), &Value::from("Ada"));
        assert!(g.node(b).has_label("Coach"));
    }

    #[test]
    fn labels_are_sorted_and_deduped() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(["Zeta", "Alpha", "Zeta"], PropertyMap::new());
        assert_eq!(g.node(n).labels, vec!["Alpha", "Zeta"]);
    }

    #[test]
    fn label_index_matches_scan() {
        let (g, _, _) = tiny();
        let via_index: Vec<_> = g.nodes_with_label("Person").map(|n| n.id).collect();
        let via_scan: Vec<_> = g.nodes().filter(|n| n.has_label("Person")).map(|n| n.id).collect();
        assert_eq!(via_index, via_scan);
        assert_eq!(g.label_count("Person"), 2);
        assert_eq!(g.label_count("Ghost"), 0);
    }

    #[test]
    fn adjacency() {
        let (g, a, b) = tiny();
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(b), 1);
        let e = g.out_edges(a).next().unwrap();
        assert_eq!(e.dst, b);
        assert_eq!(e.label, "KNOWS");
    }

    #[test]
    fn missing_property_reads_null() {
        let (g, a, _) = tiny();
        assert!(g.node(a).prop("ghost").is_null());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn dangling_edge_panics() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["X"], PropertyMap::new());
        g.add_edge(a, NodeId(99), "E", PropertyMap::new());
    }

    #[test]
    fn distinct_labels_sorted() {
        let (g, _, _) = tiny();
        assert_eq!(g.node_labels(), vec!["Coach", "Person"]);
        assert_eq!(g.edge_labels(), vec!["KNOWS"]);
    }

    #[test]
    fn footprint_is_deterministic_and_grows_with_the_graph() {
        let (g1, _, _) = tiny();
        let (g2, _, _) = tiny();
        // Same build sequence, byte-identical accounting.
        assert_eq!(g1.footprint(), g2.footprint());

        let fp = g1.footprint();
        assert_eq!(fp.entries.len(), 5);
        let by_name = |name: &str| fp.entries.iter().find(|e| e.name == name).unwrap();
        assert_eq!(by_name("nodes").count, 2);
        assert_eq!(by_name("edges").count, 1);
        assert_eq!(by_name("properties").count, 3);
        assert!(by_name("nodes").bytes > 0);
        assert!(by_name("properties").bytes > 0);
        assert!(by_name("label-index").bytes > 0);
        assert!(by_name("adjacency").bytes > 0);
        assert_eq!(fp.total_bytes(), fp.entries.iter().map(|e| e.bytes).sum::<u64>());

        // A bigger graph accounts for strictly more bytes.
        let (mut g3, a, _) = tiny();
        for i in 0..32 {
            let n = g3.add_node(["Person"], props([("name", format!("p{i}"))]));
            g3.add_edge(a, n, "KNOWS", PropertyMap::new());
        }
        assert!(g3.footprint().total_bytes() > fp.total_bytes());
    }

    #[test]
    fn footprint_is_memoised_until_the_next_insert() {
        let (mut g, a, _) = tiny();
        let first: *const GraphFootprint = g.footprint();
        assert!(std::ptr::eq(first, g.footprint()));
        assert_eq!(*g.footprint(), g.measure());
        let before = g.footprint().total_bytes();
        let n = g.add_node(["Person"], props([("name", "Cy")]));
        assert_eq!(*g.footprint(), g.measure());
        assert!(g.footprint().total_bytes() > before);
        g.add_edge(a, n, "KNOWS", PropertyMap::new());
        assert_eq!(*g.footprint(), g.measure());
        // A copy holds exactly its contents, so it measures afresh.
        let copy = g.clone();
        assert_eq!(*copy.footprint(), copy.measure());
        assert!(copy.footprint().total_bytes() <= g.footprint().total_bytes());
    }

    #[test]
    fn stored_maps_are_shrunk_to_their_length() {
        let grown = || {
            let mut p = PropertyMap::new();
            for key in ["a", "b", "c", "d", "e"] {
                p.insert(key.to_owned(), Value::Int(1));
            }
            assert!(p.0.capacity() > p.len());
            p
        };
        let mut g = PropertyGraph::new();
        let n = g.add_node(["A"], grown());
        assert_eq!(g.node(n).props.0.capacity(), 5);
        let e = g.add_edge(n, n, "E", grown());
        assert_eq!(g.edge(e).props.0.capacity(), 5);
    }

    #[test]
    fn collecting_descending_keys_sorts_once() {
        // Inserting each key at the front would move 280 GB of entries.
        let start = std::time::Instant::now();
        let p: PropertyMap =
            (0..100_000).rev().map(|i| (format!("k{i:06}"), Value::Int(i))).collect();
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "{:?}", start.elapsed());
        assert_eq!(p.len(), 100_000);
        assert!(p.keys().zip(p.keys().skip(1)).all(|(a, b)| a < b));
        assert_eq!(p["k000007"], Value::Int(7));
    }
}
