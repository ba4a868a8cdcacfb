//! Cost-based query rewriting — the optimizing layer between the
//! parser and the executor.
//!
//! Four rewrite rules, each proven result-preserving against the
//! executor's semantics (see DESIGN.md §11):
//!
//! 1. **Equality pushdown** — top-level `WHERE var.key = <literal>`
//!    conjuncts move into the pattern element that binds `var`, so
//!    candidates are rejected at bind time instead of surviving to a
//!    post-expansion filter. Safe for `OPTIONAL MATCH` because the
//!    executor applies `WHERE` per candidate *before* deciding
//!    whether the clause matched at all — pushdown rejects exactly
//!    the same candidates at an earlier operator.
//! 2. **Label reordering** — multi-label node patterns put their most
//!    selective label first; the scan picks `labels.first()` for its
//!    index and the node check tests the others, so only the
//!    candidate count changes.
//! 3. **Pattern ordering** — within one `MATCH`, patterns run
//!    cheapest-anchor-first (greedy on [`scan_cost`] under the
//!    statically known bound variables). Applied only to queries
//!    whose every projection boundary is `count`-aggregate-only:
//!    reordering preserves the *set* of complete instantiations
//!    (edge uniqueness spans the whole clause) but may permute row
//!    order, and `count` is the aggregate whose result is provably
//!    order-independent.
//! 4. **Path pre-reversal** — the "start at the cheaper end" decision
//!    ([`should_reverse`]) is applied to the query text. The plan
//!    compiler takes the same decision, keyed only on which endpoint
//!    variables are bound, which is static per clause position, so
//!    pre-reversal is exact; the strict `<` makes it idempotent when
//!    the compiler re-checks.
//!
//! The cost model is [`grm_pgraph::Cardinality`]: exact counts from
//! the label indexes, so every decision is deterministic.

use std::collections::HashSet;

use grm_pgraph::{Cardinality, PropertyGraph};

use crate::ast::{BinOp, Clause, Expr, NodePattern, PathPattern, ProjItem, Query};

/// Tally of rewrites the optimizer applied to one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `WHERE` equality conjuncts pushed into pattern property maps.
    pub predicates_pushed: u64,
    /// Node patterns whose label list was re-anchored on the most
    /// selective label.
    pub labels_reordered: u64,
    /// `MATCH` clauses whose patterns were re-sequenced
    /// cheapest-anchor-first.
    pub patterns_reordered: u64,
    /// Paths rewritten end-to-start because the far end was cheaper.
    pub paths_prereversed: u64,
}

impl RewriteStats {
    /// Total rewrites applied.
    pub fn total(&self) -> u64 {
        self.predicates_pushed
            + self.labels_reordered
            + self.patterns_reordered
            + self.paths_prereversed
    }

    /// Accumulates another tally into this one.
    pub fn absorb(&mut self, other: &RewriteStats) {
        self.predicates_pushed += other.predicates_pushed;
        self.labels_reordered += other.labels_reordered;
        self.patterns_reordered += other.patterns_reordered;
        self.paths_prereversed += other.paths_prereversed;
    }
}

/// Estimated candidate count for enumerating `pattern`: a bound
/// variable beats any scan; otherwise the smallest label index,
/// falling back to a full node scan. Shared by the rewrite pass and
/// the plan compiler so rewritten and plain queries make one and the
/// same decision.
pub(crate) fn scan_cost(
    graph: &PropertyGraph,
    is_bound: &dyn Fn(&str) -> bool,
    pattern: &NodePattern,
) -> usize {
    if let Some(var) = &pattern.var {
        if is_bound(var) {
            return 1;
        }
    }
    Cardinality::of(graph).node_scan(&pattern.labels)
}

/// Should `pattern` be matched end-to-start? True exactly when the
/// final node is strictly cheaper to enumerate than the first. The
/// strict inequality makes the decision idempotent: re-asking about
/// an already-reversed path always answers no.
pub(crate) fn should_reverse(
    graph: &PropertyGraph,
    is_bound: &dyn Fn(&str) -> bool,
    pattern: &PathPattern,
) -> bool {
    let Some((_, end)) = pattern.steps.last() else {
        return false;
    };
    scan_cost(graph, is_bound, end) < scan_cost(graph, is_bound, &pattern.start)
}

/// Rewrites `query` against the statistics of `graph`, returning the
/// optimized query and a tally of what changed. The rewritten query
/// produces the identical [`crate::ResultSet`] (rows and ordering) as
/// the original.
pub fn optimize(query: &Query, graph: &PropertyGraph) -> (Query, RewriteStats) {
    let mut q = query.clone();
    let mut stats = RewriteStats::default();
    let reorderable = order_insensitive(&q);
    let mut bound: HashSet<String> = HashSet::new();
    for clause in &mut q.clauses {
        match clause {
            Clause::Match { patterns, where_clause, .. } => {
                push_equality_predicates(patterns, where_clause, &mut stats);
                for p in patterns.iter_mut() {
                    reorder_labels(p, graph, &mut stats);
                }
                if reorderable && patterns.len() > 1 {
                    reorder_patterns(patterns, graph, &bound, &mut stats);
                }
                for p in patterns.iter_mut() {
                    let is_bound = |v: &str| bound.contains(v);
                    if should_reverse(graph, &is_bound, p) {
                        *p = p.reversed();
                        stats.paths_prereversed += 1;
                    }
                    collect_path_vars(p, &mut bound);
                }
            }
            Clause::With { items, .. } => {
                bound = items.iter().map(|i| i.name()).collect();
            }
            Clause::Unwind { var, .. } => {
                bound.insert(var.clone());
            }
        }
    }
    (q, stats)
}

/// True when every projection boundary (each `WITH` and the `RETURN`)
/// consists solely of `count` aggregates — the shape of every rule
/// metric query. Such queries collapse to a single row whose value is
/// independent of row order, so pattern reordering is observable only
/// through db-hits.
fn order_insensitive(q: &Query) -> bool {
    let boundary_ok = |items: &[ProjItem]| {
        !items.is_empty() && items.iter().all(|i| count_only_aggregate(&i.expr))
    };
    q.clauses.iter().all(|c| match c {
        Clause::With { items, .. } => boundary_ok(items),
        Clause::Match { .. } | Clause::Unwind { .. } => true,
    }) && boundary_ok(&q.ret.items)
}

/// Is `e` an aggregate expression built only from `count` calls?
/// (`sum`/`avg` fold floats in row order, `min`/`max` compare
/// possibly-incomparable values in row order, `collect` *is* the row
/// order — only `count` is unconditionally order-free.)
fn count_only_aggregate(e: &Expr) -> bool {
    fn non_count_aggregate(e: &Expr) -> bool {
        match e {
            Expr::FnCall { name, args, .. } => {
                (crate::ast::is_aggregate_fn(name) && name != "count")
                    || args.iter().any(non_count_aggregate)
            }
            Expr::Literal(_) | Expr::Var(_) => false,
            Expr::Prop { base, .. } => non_count_aggregate(base),
            Expr::Unary { expr, .. } => non_count_aggregate(expr),
            Expr::Binary { lhs, rhs, .. } => non_count_aggregate(lhs) || non_count_aggregate(rhs),
            Expr::IsNull { expr, .. } => non_count_aggregate(expr),
            Expr::In { expr, list } => non_count_aggregate(expr) || non_count_aggregate(list),
            Expr::List(items) => items.iter().any(non_count_aggregate),
            Expr::ExistsProp(inner) => non_count_aggregate(inner),
        }
    }
    e.contains_aggregate() && !non_count_aggregate(e)
}

/// Splits the `WHERE` expression into top-level `AND` conjuncts and
/// moves every `var.key = <literal>` (or mirrored) conjunct into the
/// property map of the pattern element binding `var`. Remaining
/// conjuncts are rebuilt left-associatively in their original order.
fn push_equality_predicates(
    patterns: &mut [PathPattern],
    where_clause: &mut Option<Expr>,
    stats: &mut RewriteStats,
) {
    let Some(expr) = where_clause.take() else {
        return;
    };
    let mut conjuncts = Vec::new();
    split_and(expr, &mut conjuncts);
    let mut kept = Vec::new();
    for c in conjuncts {
        if try_push(patterns, &c) {
            stats.predicates_pushed += 1;
        } else {
            kept.push(c);
        }
    }
    *where_clause = rebuild_and(kept);
}

fn split_and(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            split_and(*lhs, out);
            split_and(*rhs, out);
        }
        other => out.push(other),
    }
}

fn rebuild_and(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, e| Expr::binary(BinOp::And, acc, e)))
}

/// If `conjunct` is `var.key = <literal>` and `var` is introduced by
/// one of `patterns`, appends `(key, literal)` to that element's
/// property map and reports success. The executor's bind-time check
/// (`prop.cypher_eq(&want) != Some(true)` rejects) filters exactly
/// the rows three-valued `WHERE` would drop.
fn try_push(patterns: &mut [PathPattern], conjunct: &Expr) -> bool {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = conjunct else {
        return false;
    };
    let (var, key, lit) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Prop { base, key }, lit @ Expr::Literal(_)) => match base.as_ref() {
            Expr::Var(v) => (v, key, lit),
            _ => return false,
        },
        (lit @ Expr::Literal(_), Expr::Prop { base, key }) => match base.as_ref() {
            Expr::Var(v) => (v, key, lit),
            _ => return false,
        },
        _ => return false,
    };
    for p in patterns {
        if p.start.var.as_deref() == Some(var) {
            p.start.props.push((key.clone(), lit.clone()));
            return true;
        }
        for (rel, node) in &mut p.steps {
            // Variable-length relationships cannot carry a var, so a
            // rel-var push never lands on one.
            if rel.var.as_deref() == Some(var) && rel.length.is_none() {
                rel.props.push((key.clone(), lit.clone()));
                return true;
            }
            if node.var.as_deref() == Some(var) {
                node.props.push((key.clone(), lit.clone()));
                return true;
            }
        }
    }
    false
}

/// Moves each multi-label node pattern's most selective label to the
/// front: the scan operator indexes on `labels.first()` and the
/// binder re-checks the full label set, so the match is unchanged —
/// only the candidate stream shrinks.
fn reorder_labels(p: &mut PathPattern, graph: &PropertyGraph, stats: &mut RewriteStats) {
    let card = Cardinality::of(graph);
    let mut anchor = |n: &mut NodePattern| {
        if n.labels.len() > 1 {
            if let Some(i) = card.most_selective_label(&n.labels) {
                if i != 0 {
                    let best = n.labels.remove(i);
                    n.labels.insert(0, best);
                    stats.labels_reordered += 1;
                }
            }
        }
    };
    anchor(&mut p.start);
    for (_, n) in &mut p.steps {
        anchor(n);
    }
}

/// Greedy cheapest-anchor-first ordering of a multi-pattern `MATCH`:
/// repeatedly pick the pattern whose cheaper end costs least under
/// the variables bound so far, then treat its variables as bound.
/// Ties break on original position, so the order is deterministic.
fn reorder_patterns(
    patterns: &mut Vec<PathPattern>,
    graph: &PropertyGraph,
    bound: &HashSet<String>,
    stats: &mut RewriteStats,
) {
    let mut remaining: Vec<(usize, PathPattern)> =
        std::mem::take(patterns).into_iter().enumerate().collect();
    let mut local = bound.clone();
    let mut ordered = Vec::with_capacity(remaining.len());
    let mut moved = false;
    while !remaining.is_empty() {
        let is_bound = |v: &str| local.contains(v);
        let best = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, (orig_idx, p))| {
                let start = scan_cost(graph, &is_bound, &p.start);
                let end = p
                    .steps
                    .last()
                    .map(|(_, n)| scan_cost(graph, &is_bound, n))
                    .unwrap_or(usize::MAX);
                (start.min(end), *orig_idx)
            })
            .map(|(i, _)| i)
            .expect("remaining is non-empty");
        let (orig_idx, p) = remaining.remove(best);
        if orig_idx != ordered.len() {
            moved = true;
        }
        collect_path_vars(&p, &mut local);
        ordered.push(p);
    }
    if moved {
        stats.patterns_reordered += 1;
    }
    *patterns = ordered;
}

fn collect_path_vars(p: &PathPattern, out: &mut HashSet<String>) {
    if let Some(v) = &p.start.var {
        out.insert(v.clone());
    }
    for (rel, node) in &p.steps {
        if let Some(v) = &rel.var {
            out.insert(v.clone());
        }
        if let Some(v) = &node.var {
            out.insert(v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use grm_pgraph::PropertyMap;

    /// 1 Tournament, 3 Teams, 6 Players; Players are also "Person".
    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let t = g.add_node(["Tournament"], PropertyMap::new());
        for _ in 0..3 {
            let team = g.add_node(["Team"], PropertyMap::new());
            g.add_edge(team, t, "IN_TOURNAMENT", PropertyMap::new());
            for _ in 0..2 {
                let p = g.add_node(["Person", "Player"], PropertyMap::new());
                g.add_edge(p, team, "PLAYS_FOR", PropertyMap::new());
            }
        }
        g
    }

    fn opt(src: &str) -> (Query, RewriteStats) {
        optimize(&parse(src).unwrap(), &graph())
    }

    #[test]
    fn pushes_equality_conjunct_into_pattern() {
        let (q, stats) = opt("MATCH (n:Team) WHERE n.name = 'USA' AND n.rank > 1 RETURN n");
        assert_eq!(stats.predicates_pushed, 1);
        let Clause::Match { patterns, where_clause, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert_eq!(patterns[0].start.props.len(), 1);
        assert_eq!(patterns[0].start.props[0].0, "name");
        // The non-equality conjunct stays behind.
        assert_eq!(where_clause.as_ref().unwrap().to_string(), "n.rank > 1");
    }

    #[test]
    fn fully_pushed_where_disappears() {
        let (q, stats) = opt("MATCH (n:Team) WHERE n.name = 'USA' RETURN n");
        assert_eq!(stats.predicates_pushed, 1);
        let Clause::Match { where_clause, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert!(where_clause.is_none());
    }

    #[test]
    fn unpushable_predicates_are_kept_verbatim() {
        let src = "MATCH (n:Team) WHERE n.a = n.b OR n.c = 1 RETURN n";
        let (q, stats) = opt(src);
        assert_eq!(stats.predicates_pushed, 0);
        let Clause::Match { where_clause, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert!(where_clause.is_some());
    }

    #[test]
    fn reorders_labels_most_selective_first() {
        let (q, stats) = opt("MATCH (n:Person:Tournament) RETURN n");
        assert_eq!(stats.labels_reordered, 1);
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert_eq!(patterns[0].start.labels, vec!["Tournament", "Person"]);
    }

    #[test]
    fn prereverses_towards_selective_end() {
        let (q, stats) = opt("MATCH (p:Person)-[:PLAYS_FOR]->(t:Team) RETURN COUNT(*) AS c");
        assert_eq!(stats.paths_prereversed, 1);
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert_eq!(patterns[0].start.labels, vec!["Team"]);
    }

    #[test]
    fn prereversal_is_idempotent() {
        let (q1, s1) = opt("MATCH (p:Person)-[:PLAYS_FOR]->(t:Team) RETURN COUNT(*) AS c");
        assert_eq!(s1.paths_prereversed, 1);
        let (q2, s2) = optimize(&q1, &graph());
        assert_eq!(s2.paths_prereversed, 0);
        assert_eq!(q1, q2);
    }

    #[test]
    fn count_only_queries_reorder_patterns() {
        let (q, stats) =
            opt("MATCH (a:Person)-[:PLAYS_FOR]->(b), (c:Tournament) RETURN COUNT(*) AS c");
        assert_eq!(stats.patterns_reordered, 1);
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        // The single-node Tournament scan (1 candidate) anchors first.
        assert_eq!(patterns[0].start.labels, vec!["Tournament"]);
    }

    #[test]
    fn row_returning_queries_keep_pattern_order() {
        let (q, stats) = opt("MATCH (a:Person)-[:PLAYS_FOR]->(b), (c:Tournament) RETURN a");
        assert_eq!(stats.patterns_reordered, 0);
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert_eq!(patterns[0].start.labels, vec!["Person"]);
    }

    #[test]
    fn collect_and_sum_disable_reordering() {
        for ret in ["COLLECT(a.name) AS xs", "SUM(a.goals) AS g"] {
            let src = format!("MATCH (a:Person)-[:PLAYS_FOR]->(b), (c:Tournament) RETURN {ret}");
            let (_, stats) = opt(&src);
            assert_eq!(stats.patterns_reordered, 0, "{ret} must not reorder");
        }
    }

    #[test]
    fn bound_variables_pin_the_anchor() {
        // `t` is bound by the first clause, so the second path's start
        // (cost 1) is already the cheaper end — no reversal.
        let (q, stats) =
            opt("MATCH (t:Tournament) MATCH (t)<-[:IN_TOURNAMENT]-(m:Team) RETURN COUNT(*) AS c");
        assert_eq!(stats.paths_prereversed, 0);
        let Clause::Match { patterns, .. } = &q.clauses[1] else {
            panic!("expected MATCH");
        };
        assert_eq!(patterns[0].start.var.as_deref(), Some("t"));
        let _ = q;
    }

    #[test]
    fn optional_match_pushdown_keeps_clause_optional() {
        let (q, stats) =
            opt("MATCH (t:Team) OPTIONAL MATCH (t)<-[r:PLAYS_FOR]-(p) WHERE p.x = 1 RETURN t");
        assert_eq!(stats.predicates_pushed, 1);
        let Clause::Match { optional, where_clause, .. } = &q.clauses[1] else {
            panic!("expected OPTIONAL MATCH");
        };
        assert!(*optional);
        assert!(where_clause.is_none());
    }
}
