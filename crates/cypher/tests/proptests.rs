//! Property-based tests for the Cypher engine: total functions on
//! arbitrary input, render/parse fixed points, regex engine sanity,
//! and executor invariants.

use grm_cypher::{
    execute, execute_optimized, execute_profiled, lexer::lex, parse, BatchSession, Regex,
};
use grm_pgraph::{props, PropertyGraph, Value};
use proptest::prelude::*;

proptest! {
    /// The lexer is total: any input produces tokens or an error,
    /// never a panic.
    #[test]
    fn lexer_never_panics(input in ".{0,200}") {
        let _ = lex(&input);
    }

    /// The parser is total over arbitrary input too.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// parse → render → parse is a fixed point for queries built from
    /// arbitrary identifiers over the rule-query shapes.
    #[test]
    fn render_parse_fixed_point(
        label in "[A-Za-z][A-Za-z0-9_]{0,8}",
        key in "[a-z][a-z0-9_]{0,8}",
        etype in "[A-Z][A-Z0-9_]{0,8}",
    ) {
        let queries = [
            format!("MATCH (n:{label}) WHERE n.{key} IS NOT NULL RETURN COUNT(*) AS c"),
            format!(
                "MATCH (a:{label})-[r:{etype}]->(b) WITH a AS a, r.{key} AS v, COUNT(*) AS c \
                 WHERE c = 1 RETURN COUNT(*) AS c"
            ),
            format!("MATCH (n:{label}) RETURN DISTINCT n.{key} AS v ORDER BY v LIMIT 7"),
        ];
        for q in queries {
            let ast1 = parse(&q).unwrap();
            let rendered = ast1.to_string();
            let ast2 = parse(&rendered).unwrap();
            prop_assert_eq!(ast1, ast2, "query: {}", q);
        }
    }

    /// Regex compilation is total; matching never panics.
    #[test]
    fn regex_never_panics(pattern in ".{0,30}", text in ".{0,30}") {
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&text);
        }
    }

    /// A literal (escaped) pattern matches exactly itself.
    #[test]
    fn escaped_literal_matches_itself(text in "[a-zA-Z0-9 ]{0,20}") {
        let escaped: String = text
            .chars()
            .flat_map(|c| {
                if c.is_ascii_alphanumeric() || c == ' ' {
                    vec![c]
                } else {
                    vec!['\\', c]
                }
            })
            .collect();
        let re = Regex::new(&escaped).unwrap();
        prop_assert!(re.is_match(&text));
        prop_assert!(!re.is_match(&(text.clone() + "!")));
    }

    /// Bounded repetition counts exactly.
    #[test]
    fn bounded_repetition(n in 0usize..12, m in 0usize..12) {
        let re = Regex::new(&format!("a{{{n}}}")).unwrap();
        let text = "a".repeat(m);
        prop_assert_eq!(re.is_match(&text), n == m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// COUNT(*) over a label equals the number of nodes carrying it,
    /// on randomly generated graphs.
    #[test]
    fn count_matches_label_population(
        labels in prop::collection::vec(prop_oneof![Just("A"), Just("B"), Just("C")], 1..40),
    ) {
        let mut g = PropertyGraph::new();
        for (i, l) in labels.iter().enumerate() {
            g.add_node([*l], props([("id", i as i64)]));
        }
        for l in ["A", "B", "C"] {
            let rs = execute(&g, &format!("MATCH (n:{l}) RETURN COUNT(*) AS c")).unwrap();
            prop_assert_eq!(rs.single_int().unwrap() as usize, g.label_count(l));
        }
    }

    /// Directed edge counts: out-pattern total equals edge count, and
    /// equals the reversed-arrow formulation.
    #[test]
    fn direction_formulations_agree(
        edges in prop::collection::vec((0u8..10, 0u8..10), 0..30),
    ) {
        let mut g = PropertyGraph::new();
        for i in 0..10i64 {
            g.add_node(["N"], props([("id", i)]));
        }
        for (s, d) in &edges {
            g.add_edge(
                grm_pgraph::NodeId(u32::from(*s)),
                grm_pgraph::NodeId(u32::from(*d)),
                "E",
                Default::default(),
            );
        }
        let fwd = execute(&g, "MATCH (a)-[r:E]->(b) RETURN COUNT(*) AS c").unwrap();
        let rev = execute(&g, "MATCH (b)<-[r:E]-(a) RETURN COUNT(*) AS c").unwrap();
        prop_assert_eq!(fwd.single_int(), rev.single_int());
        prop_assert_eq!(fwd.single_int().unwrap() as usize, edges.len());
    }

    /// WHERE partitions rows: count(p) + count(NOT p) ≤ count(*) with
    /// equality when the predicate never evaluates to NULL.
    #[test]
    fn where_partitions_rows(vals in prop::collection::vec(any::<i32>(), 1..30)) {
        let mut g = PropertyGraph::new();
        for v in &vals {
            g.add_node(["N"], props([("x", i64::from(*v))]));
        }
        let total = execute(&g, "MATCH (n:N) RETURN COUNT(*) AS c").unwrap().single_int().unwrap();
        let pos = execute(&g, "MATCH (n:N) WHERE n.x >= 0 RETURN COUNT(*) AS c")
            .unwrap().single_int().unwrap();
        let neg = execute(&g, "MATCH (n:N) WHERE NOT (n.x >= 0) RETURN COUNT(*) AS c")
            .unwrap().single_int().unwrap();
        prop_assert_eq!(pos + neg, total);
    }

    /// DISTINCT never returns more rows than the plain projection.
    #[test]
    fn distinct_is_a_contraction(vals in prop::collection::vec(0i64..5, 1..30)) {
        let mut g = PropertyGraph::new();
        for v in &vals {
            g.add_node(["N"], props([("x", *v)]));
        }
        let plain = execute(&g, "MATCH (n:N) RETURN n.x AS x").unwrap();
        let distinct = execute(&g, "MATCH (n:N) RETURN DISTINCT n.x AS x").unwrap();
        prop_assert!(distinct.len() <= plain.len());
        let unique: std::collections::HashSet<i64> = vals.iter().copied().collect();
        prop_assert_eq!(distinct.len(), unique.len());
    }

    /// ORDER BY produces a sorted column; LIMIT truncates.
    #[test]
    fn order_by_sorts_and_limit_truncates(vals in prop::collection::vec(any::<i16>(), 1..25)) {
        let mut g = PropertyGraph::new();
        for v in &vals {
            g.add_node(["N"], props([("x", i64::from(*v))]));
        }
        let rs = execute(&g, "MATCH (n:N) RETURN n.x AS x ORDER BY x").unwrap();
        let col: Vec<i64> = rs.rows.iter().map(|r| match &r[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        }).collect();
        let mut sorted = col.clone();
        sorted.sort();
        prop_assert_eq!(&col, &sorted);

        let limited = execute(&g, "MATCH (n:N) RETURN n.x AS x ORDER BY x LIMIT 3").unwrap();
        prop_assert_eq!(limited.len(), col.len().min(3));
        prop_assert_eq!(
            limited.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            sorted.iter().take(3).map(|v| Value::Int(*v)).collect::<Vec<_>>()
        );
    }

    /// Aggregation identity: SUM(x) over grouped rows equals the sum
    /// of the values.
    #[test]
    fn sum_aggregate_identity(vals in prop::collection::vec(-1000i64..1000, 1..25)) {
        let mut g = PropertyGraph::new();
        for v in &vals {
            g.add_node(["N"], props([("x", *v)]));
        }
        let rs = execute(&g, "MATCH (n:N) RETURN SUM(n.x) AS s").unwrap();
        prop_assert_eq!(rs.single_int(), Some(vals.iter().sum::<i64>()));
    }

    /// PROFILE invariants on random graphs and the rule-query shapes:
    /// the profiled run returns the same rows as the plain run, the
    /// switch protocol keeps the per-operator self-times summing to
    /// at most the root's inclusive total, and the deterministic sim
    /// cost equals db-hits + rows by construction.
    #[test]
    fn profile_self_times_partition_the_run(
        labels in prop::collection::vec(prop_oneof![Just("A"), Just("B")], 1..25),
        edges in prop::collection::vec((0u8..25, 0u8..25), 0..40),
    ) {
        let mut g = PropertyGraph::new();
        for (i, l) in labels.iter().enumerate() {
            g.add_node([*l], props([("id", i as i64)]));
        }
        let n = labels.len() as u32;
        for (s, d) in &edges {
            let (s, d) = (u32::from(*s) % n, u32::from(*d) % n);
            g.add_edge(grm_pgraph::NodeId(s), grm_pgraph::NodeId(d), "E", Default::default());
        }
        for q in [
            "MATCH (n) RETURN COUNT(*) AS c",
            "MATCH (a:A)-[r:E]->(b) WHERE b.id >= 3 RETURN a.id AS i ORDER BY i LIMIT 5",
            "MATCH (a:A)-[:E*1..2]->(b:B) RETURN COUNT(*) AS c",
            "MATCH (a)-[r:E]->(b) WITH b AS b, COUNT(*) AS c WHERE c > 1 RETURN COUNT(*) AS c",
        ] {
            let plain = execute(&g, q).unwrap();
            let (rs, profile) = execute_profiled(&g, q).unwrap();
            prop_assert_eq!(&rs, &plain, "query: {}", q);
            let ops = &profile.ops;
            let self_sum: u64 = ops.iter().map(|o| o.self_us).sum();
            prop_assert!(
                self_sum <= profile.total_us,
                "Σ self {} > total {} for {}", self_sum, profile.total_us, q
            );
            let sim_sum: u64 = ops.iter().map(|o| o.db_hits() + o.rows).sum();
            prop_assert_eq!(profile.sim_us, sim_sum, "query: {}", q);
            prop_assert_eq!(profile.rows, rs.len() as u64, "query: {}", q);
        }
    }

    /// The optimizing layer is result-transparent: on random graphs
    /// and a query family covering pushable equality predicates,
    /// multi-label patterns, reversible paths, cross products,
    /// OPTIONAL MATCH and row-returning projections, the optimized
    /// execution returns the same ResultSet — rows AND ordering — as
    /// the naive walk. Each query also runs twice through one
    /// session, so memo hits are checked to return the identical
    /// result.
    #[test]
    fn optimized_execution_is_result_transparent(
        labels in prop::collection::vec(prop_oneof![Just("A"), Just("B"), Just("C")], 1..25),
        edges in prop::collection::vec((0u8..25, 0u8..25), 0..40),
        second_label in prop::collection::vec(any::<bool>(), 1..25),
    ) {
        let mut g = PropertyGraph::new();
        for (i, l) in labels.iter().enumerate() {
            if second_label[i % second_label.len()] {
                g.add_node([*l, "X"], props([("id", i as i64)]));
            } else {
                g.add_node([*l], props([("id", i as i64)]));
            }
        }
        let n = labels.len() as u32;
        for (s, d) in &edges {
            let (s, d) = (u32::from(*s) % n, u32::from(*d) % n);
            g.add_edge(grm_pgraph::NodeId(s), grm_pgraph::NodeId(d), "E", Default::default());
        }
        let mut session = BatchSession::new(&g);
        for q in [
            "MATCH (n) RETURN COUNT(*) AS c",
            "MATCH (n:A) WHERE n.id = 3 RETURN COUNT(*) AS c",
            "MATCH (n:X:A) WHERE n.id >= 2 AND n.id = 4 RETURN n.id AS i",
            "MATCH (a:A)-[:E]->(b:X) RETURN COUNT(*) AS c",
            "MATCH (a:C)-[:E]->(b) WHERE b.id = 1 RETURN COUNT(*) AS c",
            "MATCH (a:A), (b:B), (c:X) RETURN COUNT(*) AS c",
            "MATCH (a:B)-[:E*1..2]->(b:A) RETURN COUNT(*) AS c",
            "OPTIONAL MATCH (a:A)-[:E]->(b:B) WHERE a.id = 0 RETURN COUNT(b) AS c",
            "MATCH (a:A)-[:E]->(b) RETURN a.id AS i, b.id AS j ORDER BY i, j",
            "MATCH (a)-[:E]->(b:X) WITH b AS b, COUNT(*) AS c WHERE c > 1 RETURN COUNT(*) AS c",
        ] {
            let naive = execute(&g, q).unwrap();
            let optimized = execute_optimized(&g, q).unwrap();
            prop_assert_eq!(&optimized, &naive, "optimize diverged on: {}", q);
            let first = session.execute(q).unwrap();
            prop_assert_eq!(&*first, &naive, "session diverged on: {}", q);
            let repeat = session.execute(q).unwrap();
            prop_assert_eq!(&*repeat, &naive, "cached repeat diverged on: {}", q);
        }
    }
}
