//! A graph's heap is its footprint plus its two label-index hash
//! tables: every other buffer the store owns (node and edge tables,
//! labels, property maps and their values, adjacency) is allocated at
//! exactly the size `PropertyGraph::footprint` counts. The footprint
//! prices a hash-table entry at its key and value alone, so the tables'
//! own layout is what it leaves out.
//!
//! This binary installs a counting global allocator, so it holds only
//! this check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::mem::size_of;

use grm_datasets::{generate, DatasetId, GenConfig};
use grm_pgraph::{from_json, to_json, NodeId, PropertyGraph};

/// Counts the bytes live on each thread, so tests running side by side
/// do not see each other's allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; the counter
// is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The graph `build` returns and the bytes it holds on the heap.
fn measured(build: impl FnOnce() -> PropertyGraph) -> (PropertyGraph, isize) {
    let before = live();
    let g = build();
    let heap = live() - before;
    (g, heap)
}

/// Heap of a label index's table alone after `labels` inserts one by
/// one, as the store makes them: a same-typed table is built with short
/// keys and empty id lists, and the keys' bytes are taken off.
fn table_bytes(labels: usize) -> isize {
    let (keys, heap) = {
        let before = live();
        let mut table: HashMap<String, Vec<NodeId>> = HashMap::new();
        for i in 0..labels {
            table.insert(i.to_string(), Vec::new());
        }
        let heap = live() - before;
        (table.keys().map(String::capacity).sum::<usize>(), heap)
    };
    heap - keys as isize
}

/// What `g`'s heap must be: its footprint, less the footprint's price
/// for each index entry, plus the two tables.
fn expected_heap(g: &PropertyGraph) -> isize {
    let (node_labels, edge_labels) = (g.node_labels().len(), g.edge_labels().len());
    let priced = (node_labels + edge_labels) * (size_of::<String>() + size_of::<Vec<NodeId>>());
    g.footprint().total_bytes() as isize - priced as isize
        + table_bytes(node_labels)
        + table_bytes(edge_labels)
}

fn check(id: DatasetId, scale: f64) {
    let cfg = GenConfig { scale, ..GenConfig::default() };
    let (built, heap) = measured(|| generate(id, &cfg).graph);
    assert_eq!(heap, expected_heap(&built), "{} at {scale}, built by inserts", id.name());

    let json = to_json(&built).expect("a graph serializes");
    let (loaded, heap) = measured(|| from_json(&json).expect("it loads back"));
    assert_eq!(heap, expected_heap(&loaded), "{} at {scale}, loaded from JSON", id.name());
}

#[test]
fn wwc2019_heap_is_its_footprint_plus_index_tables() {
    check(DatasetId::Wwc2019, 0.2);
    check(DatasetId::Wwc2019, 1.0);
}

#[test]
fn cybersecurity_heap_is_its_footprint_plus_index_tables() {
    check(DatasetId::Cybersecurity, 0.2);
    check(DatasetId::Cybersecurity, 1.0);
}

#[test]
fn twitter_heap_is_its_footprint_plus_index_tables() {
    check(DatasetId::Twitter, 0.2);
    check(DatasetId::Twitter, 1.0);
}
