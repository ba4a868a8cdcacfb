//! # grm-cypher — a Cypher subset engine over `grm-pgraph`
//!
//! The query substrate standing in for Neo4j in the EDBT 2025 paper
//! *"Graph Consistency Rule Mining with LLMs"*. The pipeline in
//! `grm-core` executes every LLM-generated rule query through this
//! engine to compute support / coverage / confidence, and classifies
//! bad queries with [`analyzer::analyze`].
//!
//! Pipeline: [`lexer`] → [`parser`] → ([`analyzer`]) → ([`optimizer`])
//! → [`plan`] → [`exec`].
//!
//! Supported subset (everything the paper's generated rules use):
//! `MATCH` / `OPTIONAL MATCH` with linear path patterns and property
//! maps, `WHERE` with three-valued logic, `WITH` + aggregation
//! (`COUNT`, `COLLECT`, `SUM`, `MIN`, `MAX`, `AVG`, `DISTINCT`),
//! `UNWIND`, `RETURN` with `ORDER BY` / `SKIP` / `LIMIT`, regex `=~`
//! (via the built-in [`regex`] engine), `IS [NOT] NULL`, `IN`,
//! `EXISTS(n.prop)`, and the scalar functions `size`, `toString`,
//! `toLower`, `toUpper`, `toInteger`, `abs`, `coalesce`, `id`,
//! `labels`, `type`.
//!
//! ```
//! use grm_pgraph::{props, PropertyGraph};
//! use grm_cypher::execute;
//!
//! let mut g = PropertyGraph::new();
//! let u = g.add_node(["User"], props([("id", 7i64)]));
//! let t = g.add_node(["Tweet"], props([("id", 1i64)]));
//! g.add_edge(u, t, "POSTS", Default::default());
//!
//! let rs = execute(&g, "MATCH (:User)-[:POSTS]->(t:Tweet) RETURN COUNT(*) AS c").unwrap();
//! assert_eq!(rs.single_int(), Some(1));
//! ```

pub mod analyzer;
pub mod ast;
pub mod batch;
pub mod error;
pub mod eval;
pub mod exec;
mod keys;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod regex;

pub use analyzer::{analyze, SemanticIssue};
pub use ast::{
    BinOp, Clause, Direction, Expr, NodePattern, OrderItem, PathPattern, ProjItem, Query,
    RelPattern, Return, UnaryOp,
};
pub use batch::{BatchSession, BatchStats};
pub use error::{CypherError, Result, Span};
pub use eval::Binding;
pub use exec::{execute, execute_optimized, execute_profiled, ResultSet};
pub use optimizer::{optimize, RewriteStats};
pub use parser::{parse, parse_expr};
pub use plan::Plan;
pub use profile::QueryProfile;
pub use regex::{Regex, RegexError};
