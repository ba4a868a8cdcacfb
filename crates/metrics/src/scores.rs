//! Support / coverage / confidence (§4.2 of the paper, AMIE-style
//! measures adapted to property graphs).
//!
//! *Support* is the count of elements satisfying the rule; *coverage*
//! normalises by the head relation's fact count; *confidence*
//! normalises by the body-match count. All three come from executing
//! the rule's three metric queries on the graph.

use grm_cypher::{BatchSession, BatchStats, CypherError, QueryProfile, ResultSet};
use grm_obs::{Counter, Histo, PlanRecord, Scope};
use grm_pgraph::PropertyGraph;
use grm_rules::RuleQueries;

/// Metrics of one rule on one graph.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuleMetrics {
    /// Elements satisfying the rule (absolute count, as the paper
    /// reports it).
    pub support: i64,
    /// `100 · support / head_total`, clamped to `[0, 100]`.
    pub coverage_pct: f64,
    /// `100 · support / body_count`, clamped to `[0, 100]`.
    pub confidence_pct: f64,
}

/// Aggregate over a rule set — one cell group of Tables 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct AggregateMetrics {
    /// Number of rules scored.
    pub rules: usize,
    /// Mean support (the paper's `Supp%` column holds absolute
    /// numbers; we report the per-rule mean).
    pub support: f64,
    /// Mean coverage, percent.
    pub coverage_pct: f64,
    /// Mean confidence, percent.
    pub confidence_pct: f64,
}

/// Evaluates the three metric queries of a rule on `graph`, through a
/// one-shot [`BatchSession`].
pub fn evaluate(graph: &PropertyGraph, queries: &RuleQueries) -> Result<RuleMetrics, CypherError> {
    evaluate_labeled(queries, &Scope::disabled(), "rule", &mut BatchSession::new(graph))
}

/// Scores one rule through `session`, with full observability on
/// `scope`: counters for the support evaluation and its three Cypher
/// queries, and — because tracing is on — every query that runs does
/// so under `PROFILE`. The executed queries' plans are folded into one
/// [`PlanRecord`] labelled `label` and attached to the scope's span,
/// where the recorder's slow-query policy can flag it. On a disabled
/// scope nothing is profiled: the engine does zero db-hit accounting.
///
/// Repeated counts — the head-total query recurs verbatim across
/// rules sharing a head — come from the session's result memo at zero
/// db-hits. A memoized answer bumps `cypher_queries_memoized` and
/// attaches no plan — nothing ran.
pub fn evaluate_labeled(
    queries: &RuleQueries,
    scope: &Scope,
    label: &str,
    session: &mut BatchSession<'_>,
) -> Result<RuleMetrics, CypherError> {
    scope.add(Counter::SupportEvaluations, 1);
    let mut plan = scope.is_enabled().then(|| PlanRecord::new(label));
    let result = {
        let mut count = |query: &str| -> Result<i64, CypherError> {
            let Some(plan) = plan.as_mut() else {
                return single_count(&*session.execute(query)?, query);
            };
            let (rs, profile) = session.execute_profiled(query)?;
            let count = single_count(&rs, query);
            match profile {
                Some(profile) => {
                    scope.add(Counter::CypherQueriesExecuted, 1);
                    scope.add(Counter::CypherQueriesProfiled, 1);
                    book_profile(scope, plan, rs.len(), profile);
                }
                None => scope.add(Counter::CypherQueriesMemoized, 1),
            }
            count
        };
        let mut run = || -> Result<(i64, i64, i64), CypherError> {
            Ok((count(&queries.satisfied)?, count(&queries.body)?, count(&queries.head_total)?))
        };
        run()
    };
    // Attach whatever was profiled even when a later query failed —
    // partial plans still explain where the time went.
    if let Some(plan) = plan {
        if plan.queries > 0 {
            scope.record(plan);
        }
    }
    let (satisfied, body, head_total) = result?;
    Ok(metrics_from(satisfied, body, head_total))
}

/// Books one profiled query on `scope` — its result rows and db-hits
/// — and moves its operator rows into `plan`. `rows` is the length of
/// the query's result set.
pub(crate) fn book_profile(
    scope: &Scope,
    plan: &mut PlanRecord,
    rows: usize,
    profile: QueryProfile,
) {
    scope.add(Counter::CypherRowsMatched, rows as u64);
    scope.observe(Histo::CypherRowsPerQuery, rows as f64);
    scope.observe(Histo::CypherDbHitsPerQuery, profile.db_hits().total() as f64);
    plan.absorb(profile.ops, profile.rows, profile.total_us, profile.sim_us);
}

/// Folds a finished session's optimizer rewrite counters into
/// `scope` — call once per run, after the evaluate loop. Memo hits
/// are *not* re-added here: [`evaluate_labeled`] counts them per
/// query. Zero counters stay unrecorded to keep journals free of
/// noise rows.
pub fn record_batch_stats(scope: &Scope, stats: &BatchStats) {
    let add = |counter: Counter, value: u64| {
        if value > 0 {
            scope.add(counter, value);
        }
    };
    add(Counter::OptimizerPredicatesPushed, stats.rewrites.predicates_pushed);
    add(Counter::OptimizerLabelsReordered, stats.rewrites.labels_reordered);
    add(Counter::OptimizerPatternsReordered, stats.rewrites.patterns_reordered);
    add(Counter::OptimizerPathsReversed, stats.rewrites.paths_prereversed);
}

fn single_count(rs: &ResultSet, query: &str) -> Result<i64, CypherError> {
    rs.single_int().ok_or_else(|| {
        CypherError::runtime(format!(
            "metric query must return a single count, got {}x{} result: {query}",
            rs.rows.len(),
            rs.columns.len()
        ))
    })
}

fn metrics_from(satisfied: i64, body: i64, head_total: i64) -> RuleMetrics {
    let pct = |num: i64, den: i64| -> f64 {
        if den <= 0 {
            0.0
        } else {
            (100.0 * num as f64 / den as f64).clamp(0.0, 100.0)
        }
    };
    RuleMetrics {
        support: satisfied,
        coverage_pct: pct(satisfied, head_total),
        confidence_pct: pct(satisfied, body),
    }
}

/// Aggregates per-rule metrics into a table cell.
pub fn aggregate(per_rule: &[RuleMetrics]) -> AggregateMetrics {
    if per_rule.is_empty() {
        return AggregateMetrics::default();
    }
    let n = per_rule.len() as f64;
    AggregateMetrics {
        rules: per_rule.len(),
        support: per_rule.iter().map(|m| m.support as f64).sum::<f64>() / n,
        coverage_pct: per_rule.iter().map(|m| m.coverage_pct).sum::<f64>() / n,
        confidence_pct: per_rule.iter().map(|m| m.confidence_pct).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_cypher::execute;
    use grm_pgraph::{props, Value};
    use grm_rules::{reference_queries, ConsistencyRule};

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..10i64 {
            let mut p = props([("id", Value::Int(i))]);
            if i < 8 {
                p.insert("name".into(), Value::from(format!("u{i}")));
            }
            g.add_node(["User"], p);
        }
        g
    }

    #[test]
    fn mandatory_property_metrics() {
        let g = graph();
        let q = reference_queries(&ConsistencyRule::MandatoryProperty {
            label: "User".into(),
            key: "name".into(),
        });
        let m = evaluate(&g, &q).unwrap();
        assert_eq!(m.support, 8);
        assert!((m.coverage_pct - 80.0).abs() < 1e-9);
        assert!((m.confidence_pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_rule_scores_100() {
        let g = graph();
        let q = reference_queries(&ConsistencyRule::UniqueProperty {
            label: "User".into(),
            key: "id".into(),
        });
        let m = evaluate(&g, &q).unwrap();
        assert_eq!(m.support, 10);
        assert_eq!(m.coverage_pct, 100.0);
        assert_eq!(m.confidence_pct, 100.0);
    }

    #[test]
    fn hallucinated_property_scores_zero_not_error() {
        let g = graph();
        let q = reference_queries(&ConsistencyRule::MandatoryProperty {
            label: "User".into(),
            key: "penaltyScore".into(),
        });
        let m = evaluate(&g, &q).unwrap();
        assert_eq!(m.support, 0);
        assert_eq!(m.coverage_pct, 0.0);
        assert_eq!(m.confidence_pct, 0.0);
    }

    #[test]
    fn broken_query_is_an_error() {
        let g = graph();
        let q = RuleQueries {
            satisfied: "MATCH (n RETURN COUNT(*) AS c".into(),
            body: "MATCH (n) RETURN COUNT(*) AS c".into(),
            head_total: "MATCH (n) RETURN COUNT(*) AS c".into(),
        };
        assert!(evaluate(&g, &q).is_err());
    }

    #[test]
    fn non_count_query_rejected() {
        let g = graph();
        let q = RuleQueries {
            satisfied: "MATCH (n:User) RETURN n.id AS id".into(),
            body: "MATCH (n) RETURN COUNT(*) AS c".into(),
            head_total: "MATCH (n) RETURN COUNT(*) AS c".into(),
        };
        assert!(evaluate(&g, &q).is_err());
    }

    #[test]
    fn batched_matches_naive_and_memoizes_shared_heads() {
        let g = graph();
        let rules = [
            ConsistencyRule::MandatoryProperty { label: "User".into(), key: "name".into() },
            ConsistencyRule::UniqueProperty { label: "User".into(), key: "id".into() },
            ConsistencyRule::MandatoryProperty { label: "User".into(), key: "id".into() },
        ];
        // The reference counts with the plain executor: no optimizer,
        // no memo.
        let count = |query: &str| single_count(&execute(&g, query).unwrap(), query).unwrap();
        let mut session = BatchSession::new(&g);
        for rule in &rules {
            let q = reference_queries(rule);
            let naive = metrics_from(count(&q.satisfied), count(&q.body), count(&q.head_total));
            let batched = evaluate_labeled(&q, &Scope::disabled(), "rule", &mut session).unwrap();
            assert_eq!(naive, batched, "divergence on {rule:?}");
            assert_eq!(evaluate(&g, &q).unwrap(), naive, "one-shot divergence on {rule:?}");
        }
        // All three rules share the `MATCH (n:User)` head-total (and
        // the two mandatory-property rules share a body query), so
        // the memo must have answered at least the repeats.
        assert!(session.stats().memo_hits >= 2, "stats: {:?}", session.stats());
    }

    #[test]
    fn aggregate_means() {
        let ms = [
            RuleMetrics { support: 10, coverage_pct: 100.0, confidence_pct: 100.0 },
            RuleMetrics { support: 0, coverage_pct: 0.0, confidence_pct: 50.0 },
        ];
        let a = aggregate(&ms);
        assert_eq!(a.rules, 2);
        assert!((a.support - 5.0).abs() < 1e-9);
        assert!((a.coverage_pct - 50.0).abs() < 1e-9);
        assert!((a.confidence_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let a = aggregate(&[]);
        assert_eq!(a.rules, 0);
        assert_eq!(a.support, 0.0);
    }
}
