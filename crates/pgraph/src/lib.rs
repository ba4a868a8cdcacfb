//! # grm-pgraph — property-graph data model and in-memory store
//!
//! The storage substrate of the `graph-rule-mining` workspace,
//! standing in for Neo4j in the EDBT 2025 paper *"Graph Consistency
//! Rule Mining with LLMs"*:
//!
//! * [`Value`] — the property value model with Cypher three-valued
//!   comparison semantics;
//! * [`PropertyGraph`] — node/edge store with label and adjacency
//!   indexes, the target of Cypher execution in `grm-cypher`;
//! * [`GraphSchema`] — schema inference in one pass per label (labels,
//!   property keys, presence/uniqueness statistics, relationship
//!   endpoint signatures) that feeds prompt construction and semantic
//!   query validation; [`PropertyGraph::schema`] infers a graph's
//!   schema once and keeps it;
//! * [`GraphStats`] / [`DegreeStats`] — the Table-1 style dataset
//!   summaries;
//! * [`GraphFootprint`] — deterministic byte accounting of the store
//!   (capacities, not allocator readings), feeding the journal's
//!   memory records and the `grm trace mem` footprint table.
//!
//! ```
//! use grm_pgraph::{props, GraphSchema, PropertyGraph};
//!
//! let mut g = PropertyGraph::new();
//! let ada = g.add_node(["Person"], props([("name", "Ada")]));
//! let t = g.add_node(["Tweet"], props([("id", 1i64)]));
//! g.add_edge(ada, t, "POSTS", Default::default());
//!
//! let schema = g.schema();
//! assert!(schema.signature("POSTS").unwrap().connects("Person", "Tweet"));
//! assert_eq!(*schema, GraphSchema::infer(&g));
//! ```

pub mod dbhits;
pub mod graph;
pub mod io;
pub mod schema;
pub mod stats;
pub mod value;

pub use dbhits::DbHits;
pub use graph::{
    props, Edge, EdgeId, FootprintEntry, GraphFootprint, Node, NodeId, PropertyGraph, PropertyMap,
};
pub use io::{from_json, to_json, to_json_pretty, GraphDoc, IoError};
pub use schema::{EdgeSignature, GraphSchema, PropertyStats};
pub use stats::{Cardinality, DegreeStats, GraphStats};
pub use value::{TypeSet, Value, ValueKey};
