//! Batched query evaluation for rule scoring.
//!
//! The metric scorers run the same Filter→Expand→Count query shapes
//! thousands of times — every rule evaluates three count queries, and
//! the head-total query repeats verbatim across rules sharing a head.
//! A [`BatchSession`] compiles each distinct query once (parse,
//! optimize and slot-compile to a [`Plan`], kept in the
//! [`QueryPlanCache`]) and memoizes the result set
//! per (normalized text, graph epoch), so a repeated count costs zero
//! db-hits instead of a full re-walk.
//!
//! Every decision keys on query text, the graph epoch, and logical
//! ticks — no wall clock, no randomness — so a session driven by the
//! same query sequence over the same graph behaves identically in
//! serial, chaos, and resumed runs, keeping journals byte-stable.

use std::collections::HashMap;
use std::sync::Arc;

use grm_pgraph::PropertyGraph;

use crate::error::Result;
use crate::exec::ResultSet;
use crate::optimizer::{optimize, RewriteStats};
use crate::parser::parse;
use crate::plan::Plan;
use crate::plan_cache::{
    normalize_text, CachedPlan, PlanCacheConfig, PlanCacheStats, QueryPlanCache,
};
use crate::profile::QueryProfile;

/// Knobs of a scoring session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Run the optimizer rewrite pass on compile (`--no-optimizer`
    /// turns this off).
    pub optimize: bool,
    /// Memoize result sets per (query, epoch). Off, every call
    /// executes; the plan cache still skips re-compilation.
    pub memoize: bool,
    /// Plan-cache sizing/TTL.
    pub plan_cache: PlanCacheConfig,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { optimize: true, memoize: true, plan_cache: PlanCacheConfig::default() }
    }
}

/// Work counters of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries asked of the session.
    pub queries: u64,
    /// Queries that actually executed (`queries - memo_hits`).
    pub executed: u64,
    /// Queries answered from the result memo without touching the
    /// store.
    pub memo_hits: u64,
    /// Rewrites applied across all compiled plans.
    pub rewrites: RewriteStats,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
}

/// A scoring session: plan cache + result memo over one logical graph.
#[derive(Debug)]
pub struct BatchSession {
    config: BatchConfig,
    cache: QueryPlanCache,
    memo: HashMap<(String, u64), Arc<ResultSet>>,
    stats: BatchStats,
}

impl BatchSession {
    /// Fresh session under `config`.
    pub fn new(config: BatchConfig) -> Self {
        BatchSession {
            config,
            cache: QueryPlanCache::new(config.plan_cache),
            memo: HashMap::new(),
            stats: BatchStats::default(),
        }
    }

    /// Counter snapshot (plan-cache counters included).
    pub fn stats(&self) -> BatchStats {
        let mut s = self.stats;
        s.plan_cache = self.cache.stats();
        s
    }

    /// Executes `src` against `graph` through the optimizing layer.
    pub fn execute(&mut self, graph: &PropertyGraph, src: &str) -> Result<Arc<ResultSet>> {
        self.run(graph, src, false).map(|(rs, _)| rs)
    }

    /// [`BatchSession::execute`] with operator-level profiling. The
    /// profile is `None` when the memo answered — nothing ran, so
    /// there is nothing to attribute db-hits to.
    pub fn execute_profiled(
        &mut self,
        graph: &PropertyGraph,
        src: &str,
    ) -> Result<(Arc<ResultSet>, Option<QueryProfile>)> {
        self.run(graph, src, true)
    }

    fn run(
        &mut self,
        graph: &PropertyGraph,
        src: &str,
        profiled: bool,
    ) -> Result<(Arc<ResultSet>, Option<QueryProfile>)> {
        self.stats.queries += 1;
        let text = normalize_text(src);
        let epoch = graph.epoch();
        // The plan lookup runs first even when the memo will answer,
        // so cache hit-rates reflect every repeated query.
        let cached = self.cache.lookup(&text, epoch);
        if self.config.memoize {
            if let Some(rs) = self.memo.get(&(text.clone(), epoch)) {
                self.stats.memo_hits += 1;
                return Ok((Arc::clone(rs), None));
            }
        }
        let plan = match cached {
            Some(p) => p,
            None => {
                let parsed = parse(src)?;
                let (query, rewrites) = if self.config.optimize {
                    optimize(&parsed, graph)
                } else {
                    (parsed, RewriteStats::default())
                };
                self.stats.rewrites.absorb(&rewrites);
                let plan = Plan::compile(&query, graph, true);
                self.cache.insert(&text, epoch, CachedPlan { plan, rewrites })
            }
        };
        self.stats.executed += 1;
        let (rs, profile) = if profiled {
            let (rs, profile) = plan.plan.run_profiled(graph, src)?;
            (rs, Some(profile))
        } else {
            (plan.plan.run(graph, None)?, None)
        };
        let rs = Arc::new(rs);
        if self.config.memoize {
            self.memo.insert((text, epoch), Arc::clone(&rs));
        }
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
    fn memo_answers_repeats_without_profiles() {
        let g = graph();
        let mut s = BatchSession::new(BatchConfig::default());
        let (r1, p1) = s.execute_profiled(&g, COUNT).unwrap();
        let (r2, p2) = s.execute_profiled(&g, COUNT).unwrap();
        assert!(p1.is_some());
        assert!(p2.is_none());
        assert_eq!(r1.single_int(), Some(4));
        assert_eq!(*r1, *r2);
        let st = s.stats();
        assert_eq!((st.queries, st.executed, st.memo_hits), (2, 1, 1));
        assert_eq!((st.plan_cache.hits, st.plan_cache.misses), (1, 1));
    }

    #[test]
    fn optimized_matches_naive_execution() {
        let g = graph();
        let mut s = BatchSession::new(BatchConfig::default());
        for q in [
            COUNT,
            "MATCH (t:Team) WHERE t.rank = 2 RETURN COUNT(*) AS c",
            "MATCH (a:Team), (b:Tournament) RETURN COUNT(*) AS c",
            "OPTIONAL MATCH (x:Ghost) RETURN COUNT(x) AS c",
        ] {
            let naive = execute(&g, q).unwrap();
            let batched = s.execute(&g, q).unwrap();
            assert_eq!(naive, *batched, "divergence on {q}");
        }
    }

    #[test]
    fn epoch_bump_invalidates_memo_and_plans() {
        let mut g = graph();
        let mut s = BatchSession::new(BatchConfig::default());
        assert_eq!(s.execute(&g, COUNT).unwrap().single_int(), Some(4));
        let team = g.add_node(["Team"], PropertyMap::new());
        let tourn = g.nodes().find(|n| n.has_label("Tournament")).unwrap().id;
        g.add_edge(team, tourn, "IN_TOURNAMENT", PropertyMap::new());
        assert_eq!(s.execute(&g, COUNT).unwrap().single_int(), Some(5));
        assert_eq!(s.stats().memo_hits, 0);
    }

    #[test]
    fn whitespace_variants_share_one_plan_and_memo() {
        let g = graph();
        let mut s = BatchSession::new(BatchConfig::default());
        let a = s.execute(&g, COUNT).unwrap();
        let b = s
            .execute(&g, "MATCH (t:Team)-[:IN_TOURNAMENT]->(x:Tournament)\n  RETURN COUNT(*) AS c")
            .unwrap();
        assert_eq!(*a, *b);
        let st = s.stats();
        assert_eq!((st.executed, st.memo_hits), (1, 1));
    }

    #[test]
    fn optimizer_off_still_memoizes_and_matches() {
        let g = graph();
        let mut s = BatchSession::new(BatchConfig { optimize: false, ..BatchConfig::default() });
        let naive = execute(&g, COUNT).unwrap();
        assert_eq!(naive, *s.execute(&g, COUNT).unwrap());
        assert_eq!(naive, *s.execute(&g, COUNT).unwrap());
        let st = s.stats();
        assert_eq!(st.rewrites.total(), 0);
        assert_eq!(st.memo_hits, 1);
    }

    #[test]
    fn parse_errors_propagate_and_cache_nothing() {
        let g = graph();
        let mut s = BatchSession::new(BatchConfig::default());
        assert!(s.execute(&g, "MATCH (").is_err());
        assert!(s.execute(&g, "MATCH (").is_err());
        let st = s.stats();
        assert_eq!((st.queries, st.executed), (2, 0));
        assert_eq!(st.plan_cache.misses, 2);
    }
}
