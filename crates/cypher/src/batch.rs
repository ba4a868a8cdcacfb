//! Batched query evaluation for rule scoring.
//!
//! The metric scorers run the same Filter→Expand→Count query shapes
//! thousands of times — every rule evaluates three count queries, and
//! the head-total query repeats verbatim across rules sharing a head.
//! A [`BatchSession`] borrows the graph it scores and memoizes every
//! result set on the query's whitespace-normalized text, so a repeated
//! count costs zero db-hits instead of a full re-walk. A memo miss
//! parses, optimizes, compiles and runs the query.
//!
//! The borrow is what makes the text a sound key: the graph cannot
//! change while a session is alive, and a session never sees another
//! graph. Every decision keys on query text alone — no wall clock, no
//! randomness — so a session driven by the same query sequence over
//! the same graph behaves identically in serial, chaos, and resumed
//! runs, keeping journals byte-stable.

use std::collections::HashMap;
use std::sync::Arc;

use grm_pgraph::PropertyGraph;

use crate::error::Result;
use crate::exec::ResultSet;
use crate::optimizer::{optimize, RewriteStats};
use crate::parser::parse;
use crate::plan::Plan;
use crate::profile::QueryProfile;

/// Collapses runs of whitespace to single spaces and trims — the
/// normalization under which two spellings of a query share one memo
/// entry.
fn normalize_text(src: &str) -> String {
    src.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Work counters of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries asked of the session.
    pub queries: u64,
    /// Queries compiled and run: `queries - memo_hits`, less those
    /// that failed to parse.
    pub executed: u64,
    /// Queries answered from the result memo without touching the
    /// store.
    pub memo_hits: u64,
    /// Rewrites applied across all compiled plans.
    pub rewrites: RewriteStats,
}

/// A scoring session: a result memo over one borrowed graph.
///
/// ```
/// use grm_cypher::BatchSession;
/// use grm_pgraph::{PropertyGraph, PropertyMap};
///
/// let mut g = PropertyGraph::new();
/// g.add_node(["Team"], PropertyMap::new());
/// let mut session = BatchSession::new(&g);
/// let q = "MATCH (n:Team) RETURN COUNT(*) AS c";
/// assert_eq!(session.execute(q).unwrap().single_int(), Some(1));
/// assert_eq!(session.execute(q).unwrap().single_int(), Some(1));
/// assert_eq!(session.stats().memo_hits, 1);
/// ```
#[derive(Debug)]
pub struct BatchSession<'g> {
    graph: &'g PropertyGraph,
    memo: HashMap<String, Arc<ResultSet>>,
    stats: BatchStats,
}

impl<'g> BatchSession<'g> {
    /// A fresh session over `graph`. The graph stays borrowed while
    /// the session lives, so it cannot change under the memo:
    ///
    /// ```compile_fail
    /// use grm_cypher::BatchSession;
    /// use grm_pgraph::{PropertyGraph, PropertyMap};
    ///
    /// let mut g = PropertyGraph::new();
    /// g.add_node(["Team"], PropertyMap::new());
    /// let mut session = BatchSession::new(&g);
    /// let q = "MATCH (n:Team) RETURN COUNT(*) AS c";
    /// assert_eq!(session.execute(q).unwrap().single_int(), Some(1));
    /// g.add_node(["Team"], PropertyMap::new());
    /// assert_eq!(session.execute(q).unwrap().single_int(), Some(1));
    /// ```
    pub fn new(graph: &'g PropertyGraph) -> Self {
        BatchSession { graph, memo: HashMap::new(), stats: BatchStats::default() }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Executes `src` against the session's graph through the
    /// optimizer.
    pub fn execute(&mut self, src: &str) -> Result<Arc<ResultSet>> {
        self.run(src, false).map(|(rs, _)| rs)
    }

    /// [`BatchSession::execute`] with operator-level profiling. The
    /// profile is `None` when the memo answered — nothing ran, so
    /// there is nothing to attribute db-hits to.
    pub fn execute_profiled(
        &mut self,
        src: &str,
    ) -> Result<(Arc<ResultSet>, Option<QueryProfile>)> {
        self.run(src, true)
    }

    fn run(&mut self, src: &str, profiled: bool) -> Result<(Arc<ResultSet>, Option<QueryProfile>)> {
        self.stats.queries += 1;
        let text = normalize_text(src);
        if let Some(rs) = self.memo.get(&text) {
            self.stats.memo_hits += 1;
            return Ok((Arc::clone(rs), None));
        }
        let (query, rewrites) = optimize(&parse(src)?, self.graph);
        self.stats.rewrites.absorb(&rewrites);
        let plan = Plan::compile(&query, self.graph, profiled);
        self.stats.executed += 1;
        let (rs, profile) = if profiled {
            let (rs, profile) = plan.run_profiled(self.graph, src)?;
            (rs, Some(profile))
        } else {
            (plan.run(self.graph, None)?, None)
        };
        let rs = Arc::new(rs);
        self.memo.insert(text, Arc::clone(&rs));
        Ok((rs, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use grm_pgraph::{props, PropertyMap};

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let t = g.add_node(["Tournament"], props([("name", "WWC2019")]));
        for i in 0..4i64 {
            let team = g.add_node(["Team"], props([("rank", i)]));
            g.add_edge(team, t, "IN_TOURNAMENT", PropertyMap::new());
        }
        g
    }

    const COUNT: &str = "MATCH (t:Team)-[:IN_TOURNAMENT]->(x:Tournament) RETURN COUNT(*) AS c";

    #[test]
    fn normalization_collapses_whitespace() {
        assert_eq!(normalize_text("  MATCH (n)\n  RETURN\tn  "), "MATCH (n) RETURN n");
        assert_eq!(normalize_text("MATCH (n) RETURN n"), normalize_text("MATCH  (n)\nRETURN n"));
    }

    #[test]
    fn memo_answers_repeats_without_profiles() {
        let g = graph();
        let mut s = BatchSession::new(&g);
        let (r1, p1) = s.execute_profiled(COUNT).unwrap();
        let (r2, p2) = s.execute_profiled(COUNT).unwrap();
        assert!(p1.is_some());
        assert!(p2.is_none());
        assert_eq!(r1.single_int(), Some(4));
        assert_eq!(*r1, *r2);
        let st = s.stats();
        assert_eq!((st.queries, st.executed, st.memo_hits), (2, 1, 1));
    }

    #[test]
    fn optimized_matches_naive_execution() {
        let g = graph();
        let mut s = BatchSession::new(&g);
        for q in [
            COUNT,
            "MATCH (t:Team) WHERE t.rank = 2 RETURN COUNT(*) AS c",
            "MATCH (a:Team), (b:Tournament) RETURN COUNT(*) AS c",
            "OPTIONAL MATCH (x:Ghost) RETURN COUNT(x) AS c",
        ] {
            let naive = execute(&g, q).unwrap();
            let batched = s.execute(q).unwrap();
            assert_eq!(naive, *batched, "divergence on {q}");
        }
    }

    #[test]
    fn whitespace_variants_share_one_memo_entry() {
        let g = graph();
        let mut s = BatchSession::new(&g);
        let a = s.execute(COUNT).unwrap();
        let b = s
            .execute("MATCH (t:Team)-[:IN_TOURNAMENT]->(x:Tournament)\n  RETURN COUNT(*) AS c")
            .unwrap();
        assert_eq!(*a, *b);
        let st = s.stats();
        assert_eq!((st.executed, st.memo_hits), (1, 1));
    }

    #[test]
    fn parse_errors_propagate_and_cache_nothing() {
        let g = graph();
        let mut s = BatchSession::new(&g);
        assert!(s.execute("MATCH (").is_err());
        assert!(s.execute("MATCH (").is_err());
        let st = s.stats();
        assert_eq!((st.queries, st.executed, st.memo_hits), (2, 0, 0));
    }
}
