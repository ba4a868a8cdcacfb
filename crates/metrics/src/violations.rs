//! Violation localization: from "this rule has 12 violations" to
//! *which elements* violate it.
//!
//! The paper's pipeline stops at support/coverage/confidence; a data
//! engineer's next question is always "show me the offending rows".
//! This module builds, per rule family, a listing query that returns
//! the violating elements themselves, so audits (and the `grm audit`
//! command) can print actionable findings.

use grm_cypher::{execute, execute_profiled, CypherError};
use grm_obs::{Counter, PlanRecord, Scope};
use grm_pgraph::{PropertyGraph, Value};
use grm_rules::ConsistencyRule;

use crate::scores::book_profile;

/// One localized violation.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum Violation {
    /// A node violating a node-level rule.
    Node {
        /// Internal node id.
        id: i64,
        /// What is wrong, human-readable.
        detail: String,
    },
    /// A property value shared by several elements that should be
    /// unique, or out of its domain.
    Value { value: String, count: i64, detail: String },
    /// A relationship instance violating an edge-level rule.
    Edge { src: i64, dst: i64, detail: String },
}

/// Builds the listing query for `rule`, returning `None` for rule
/// families without a canonical violation listing (custom rules carry
/// their own queries; endpoint-label listings need edge ids).
fn listing_query(rule: &ConsistencyRule, limit: usize) -> Option<(String, Shape)> {
    use ConsistencyRule::*;
    Some(match rule {
        MandatoryProperty { label, key } => (
            format!(
                "MATCH (n:{label}) WHERE n.{key} IS NULL \
                 RETURN id(n) AS id ORDER BY id LIMIT {limit}"
            ),
            Shape::NodeIds { detail: format!("missing `{key}`") },
        ),
        UniqueProperty { label, key } => (
            format!(
                "MATCH (n:{label}) WHERE n.{key} IS NOT NULL \
                 WITH n.{key} AS v, COUNT(*) AS c WHERE c > 1 \
                 RETURN toString(v) AS v, c ORDER BY c DESC, v LIMIT {limit}"
            ),
            Shape::ValueCounts { detail: format!("duplicated `{key}`") },
        ),
        PropertyValueIn { label, key, allowed } => {
            let vals: Vec<String> = allowed.iter().map(Value::to_string).collect();
            (
                format!(
                    "MATCH (n:{label}) WHERE n.{key} IS NOT NULL \
                     AND NOT (n.{key} IN [{}]) \
                     RETURN id(n) AS id ORDER BY id LIMIT {limit}",
                    vals.join(", ")
                ),
                Shape::NodeIds { detail: format!("`{key}` outside its domain") },
            )
        }
        PropertyRegex { label, key, pattern } => (
            format!(
                "MATCH (n:{label}) WHERE n.{key} IS NOT NULL \
                 AND NOT (n.{key} =~ '{}') \
                 RETURN id(n) AS id ORDER BY id LIMIT {limit}",
                pattern.replace('\'', "\\'")
            ),
            Shape::NodeIds { detail: format!("`{key}` malformed") },
        ),
        PropertyRange { label, key, min, max } => (
            format!(
                "MATCH (n:{label}) WHERE n.{key} IS NOT NULL \
                 AND (n.{key} < {min} OR n.{key} > {max}) \
                 RETURN id(n) AS id ORDER BY id LIMIT {limit}"
            ),
            Shape::NodeIds { detail: format!("`{key}` out of [{min}, {max}]") },
        ),
        NoSelfLoop { label, etype } => (
            format!(
                "MATCH (a:{label})-[r:{etype}]->(b) WHERE id(a) = id(b) \
                 RETURN id(a) AS src, id(b) AS dst LIMIT {limit}"
            ),
            Shape::EdgePairs { detail: format!("self-referential `{etype}`") },
        ),
        TemporalOrder { src_label, src_key, etype, dst_label, dst_key } => (
            format!(
                "MATCH (a:{src_label})-[r:{etype}]->(b:{dst_label}) \
                 WHERE a.{src_key} < b.{dst_key} \
                 RETURN id(a) AS src, id(b) AS dst LIMIT {limit}"
            ),
            Shape::EdgePairs { detail: format!("`{src_key}` precedes the target's `{dst_key}`") },
        ),
        IncomingExactlyOne { src_label, etype, dst_label } => (
            format!(
                "MATCH (t:{dst_label}) OPTIONAL MATCH (s:{src_label})-[r:{etype}]->(t) \
                 WITH t AS t, COUNT(r) AS c WHERE c <> 1 \
                 RETURN id(t) AS id, c ORDER BY id LIMIT {limit}"
            ),
            Shape::NodeIdsWithCount { detail: format!("incoming `{etype}` count ≠ 1") },
        ),
        PatternUniqueness { src_label, etype, dst_label, key } => (
            format!(
                "MATCH (a:{src_label})-[r:{etype}]->(b:{dst_label}) \
                 WHERE r.{key} IS NOT NULL \
                 WITH id(a) AS src, id(b) AS dst, r.{key} AS v, COUNT(*) AS c WHERE c > 1 \
                 RETURN src, dst ORDER BY src LIMIT {limit}"
            ),
            Shape::EdgePairs { detail: format!("duplicated `{key}` between the same pair") },
        ),
        EdgeEndpointLabels { .. } | Custom { .. } => return None,
    })
}

enum Shape {
    NodeIds { detail: String },
    NodeIdsWithCount { detail: String },
    ValueCounts { detail: String },
    EdgePairs { detail: String },
}

/// Lists up to `limit` concrete violations of `rule` on `graph`.
/// Returns `Ok(None)` for rule families without a canonical listing.
pub fn find_violations(
    graph: &PropertyGraph,
    rule: &ConsistencyRule,
    limit: usize,
) -> Result<Option<Vec<Violation>>, CypherError> {
    find_violations_traced(graph, rule, limit, &Scope::disabled(), "violations")
}

/// [`find_violations`] with observability: on an enabled scope the
/// listing query runs under `PROFILE`, its plan is attached to the
/// scope's span as a [`PlanRecord`] labelled `label`, and the query /
/// row / db-hit counters are recorded. On a disabled scope this is
/// exactly [`find_violations`].
pub fn find_violations_traced(
    graph: &PropertyGraph,
    rule: &ConsistencyRule,
    limit: usize,
    scope: &Scope,
    label: &str,
) -> Result<Option<Vec<Violation>>, CypherError> {
    let Some((query, shape)) = listing_query(rule, limit) else {
        return Ok(None);
    };
    let rs = if scope.is_enabled() {
        scope.add(Counter::CypherQueriesExecuted, 1);
        scope.add(Counter::CypherQueriesProfiled, 1);
        let (rs, profile) = execute_profiled(graph, &query)?;
        let mut plan = PlanRecord::new(label);
        book_profile(scope, &mut plan, rs.len(), profile);
        scope.record(plan);
        rs
    } else {
        execute(graph, &query)?
    };
    let as_int = |v: &Value| match v {
        Value::Int(i) => *i,
        _ => -1,
    };
    let out = rs
        .rows
        .iter()
        .map(|row| match &shape {
            Shape::NodeIds { detail } => {
                Violation::Node { id: as_int(&row[0]), detail: detail.clone() }
            }
            Shape::NodeIdsWithCount { detail } => Violation::Node {
                id: as_int(&row[0]),
                detail: format!("{detail} (found {})", row[1]),
            },
            Shape::ValueCounts { detail } => Violation::Value {
                value: row[0].to_string(),
                count: as_int(&row[1]),
                detail: detail.clone(),
            },
            Shape::EdgePairs { detail } => Violation::Edge {
                src: as_int(&row[0]),
                dst: as_int(&row[1]),
                detail: detail.clone(),
            },
        })
        .collect();
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::props;

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["User"], props([("id", Value::Int(1)), ("followers", Value::Int(-5))]));
        let b = g.add_node(["User"], props([("id", Value::Int(1))])); // dup id
        let _c = g.add_node(["User"], props([("followers", Value::Int(10))])); // no id
        g.add_edge(a, a, "FOLLOWS", Default::default()); // self loop
        g.add_edge(a, b, "FOLLOWS", Default::default());
        g
    }

    #[test]
    fn locates_missing_properties() {
        let g = graph();
        let rule = ConsistencyRule::MandatoryProperty { label: "User".into(), key: "id".into() };
        let v = find_violations(&g, &rule, 10).unwrap().unwrap();
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::Node { id: 2, .. }));
    }

    #[test]
    fn locates_duplicate_values() {
        let g = graph();
        let rule = ConsistencyRule::UniqueProperty { label: "User".into(), key: "id".into() };
        let v = find_violations(&g, &rule, 10).unwrap().unwrap();
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::Value { value, count, .. } => {
                assert_eq!(value.trim_matches('\''), "1");
                assert_eq!(*count, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn locates_self_loops() {
        let g = graph();
        let rule = ConsistencyRule::NoSelfLoop { label: "User".into(), etype: "FOLLOWS".into() };
        let v = find_violations(&g, &rule, 10).unwrap().unwrap();
        assert_eq!(
            v,
            vec![Violation::Edge { src: 0, dst: 0, detail: "self-referential `FOLLOWS`".into() }]
        );
    }

    #[test]
    fn locates_out_of_range_values() {
        let g = graph();
        let rule = ConsistencyRule::PropertyRange {
            label: "User".into(),
            key: "followers".into(),
            min: 0,
            max: 1000,
        };
        let v = find_violations(&g, &rule, 10).unwrap().unwrap();
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::Node { id: 0, .. }));
    }

    #[test]
    fn limit_truncates() {
        let mut g = PropertyGraph::new();
        for _ in 0..20 {
            g.add_node(["User"], props([("x", Value::Int(1))]));
        }
        let rule = ConsistencyRule::MandatoryProperty { label: "User".into(), key: "id".into() };
        let v = find_violations(&g, &rule, 5).unwrap().unwrap();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn custom_rules_have_no_canonical_listing() {
        let g = graph();
        let rule = ConsistencyRule::Custom {
            id: "x".into(),
            nl: "x".into(),
            satisfied: "RETURN 0 AS c".into(),
            body: "RETURN 0 AS c".into(),
            head_total: "RETURN 0 AS c".into(),
            complexity: grm_rules::RuleComplexity::Pattern,
        };
        assert!(find_violations(&g, &rule, 10).unwrap().is_none());
    }

    #[test]
    fn clean_rule_lists_nothing() {
        let mut g = PropertyGraph::new();
        g.add_node(["User"], props([("id", Value::Int(1))]));
        let rule = ConsistencyRule::MandatoryProperty { label: "User".into(), key: "id".into() };
        let v = find_violations(&g, &rule, 10).unwrap().unwrap();
        assert!(v.is_empty());
    }
}
