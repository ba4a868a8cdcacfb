//! Pins the Cypher executor's observable output: result rows in order
//! and the profile's per-operator `(op, detail, calls, rows_in, rows,
//! db-hits)`, on the naive path and through a `BatchSession`.
//!
//! The corpus is every reference and violation query of the
//! exhaustive miner's candidate lattice and of the dataset ground
//! truth on small WWC2019 and Twitter graphs, the `find_violations`
//! listings of the ground truth, and the executor's unit-test shapes
//! (ORDER BY / SKIP / LIMIT, DISTINCT, COLLECT, UNWIND, OPTIONAL
//! MATCH, variable-length paths, grouped and DISTINCT aggregates).
//! The expected FNV-1a hashes were taken from the materialising
//! executor the slot-compiled one replaced, so any change to a row,
//! its order, or an operator's accounting shows here. Real time
//! (`self_us`, `total_us`) is not pinned.

use std::fmt::Write;

use grm_baseline::{enumerate_candidates, MinerConfig};
use grm_cypher::{
    execute, execute_optimized, execute_profiled, BatchSession, QueryProfile, ResultSet,
};
use grm_datasets::{generate, DatasetId, GenConfig};
use grm_metrics::find_violations;
use grm_pgraph::{GraphSchema, PropertyGraph};
use grm_rules::{reference_queries, violation_query, ConsistencyRule};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn render_rows(out: &mut String, rs: &ResultSet) {
    let _ = writeln!(out, "  columns {:?}", rs.columns);
    for row in &rs.rows {
        let _ = writeln!(out, "  {row:?}");
    }
}

fn render_profile(out: &mut String, profile: &QueryProfile) {
    let _ = writeln!(out, "  profile rows {} sim {}", profile.rows, profile.sim_us);
    for op in &profile.ops {
        let _ = writeln!(
            out,
            "  {} | {} | calls {} in {} rows {} hits {}/{}/{} sim {}",
            op.path,
            op.detail,
            op.calls,
            op.rows_in,
            op.rows,
            op.db_nodes,
            op.db_edges,
            op.db_props,
            op.sim_us
        );
    }
}

/// Everything observable about one query: the plain, optimized,
/// profiled and session runs. Errors render as their message.
fn render_query(out: &mut String, g: &PropertyGraph, session: &mut BatchSession<'_>, q: &str) {
    let _ = writeln!(out, "query {q}");
    match execute(g, q) {
        Ok(rs) => render_rows(out, &rs),
        Err(e) => {
            let _ = writeln!(out, "  error {e}");
        }
    }
    match execute_optimized(g, q) {
        Ok(rs) => render_rows(out, &rs),
        Err(e) => {
            let _ = writeln!(out, "  optimized error {e}");
        }
    }
    match execute_profiled(g, q) {
        Ok((rs, profile)) => {
            render_rows(out, &rs);
            render_profile(out, &profile);
        }
        Err(e) => {
            let _ = writeln!(out, "  profiled error {e}");
        }
    }
    match session.execute_profiled(q) {
        Ok((rs, profile)) => {
            render_rows(out, &rs);
            match profile {
                Some(profile) => render_profile(out, &profile),
                None => out.push_str("  memo\n"),
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  session error {e}");
        }
    }
}

fn rule_queries(rules: &[ConsistencyRule]) -> Vec<String> {
    let mut out = Vec::new();
    for rule in rules {
        let q = reference_queries(rule);
        out.extend([q.satisfied, q.body, q.head_total]);
        out.extend(violation_query(rule));
    }
    out
}

const WWC_SHAPES: &[&str] = &[
    "MATCH (n) RETURN COUNT(*) AS c",
    "MATCH (m:Match) RETURN m.id AS id ORDER BY id DESC SKIP 1 LIMIT 5",
    "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 \
     RETURN p.name AS n, m.id AS id ORDER BY n, id SKIP 3 LIMIT 10",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN DISTINCT p.name AS n ORDER BY n LIMIT 20",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN DISTINCT m AS m SKIP 2",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) WITH DISTINCT m AS m RETURN COUNT(*) AS c",
    "MATCH (p:Person)-[sg:SCORED_GOAL]->(m:Match) \
     WITH m.id AS mid, p.name AS name, COLLECT(DISTINCT sg.minute) AS minutes \
     WHERE SIZE(minutes) > 1 RETURN mid, name, minutes ORDER BY mid, name",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) \
     WITH m.id AS mid, COLLECT(p.name) AS names RETURN mid, SIZE(names) AS k ORDER BY k DESC, mid \
     LIMIT 10",
    "MATCH (m:Match) WITH COLLECT(m.id) AS ids UNWIND ids AS id RETURN id ORDER BY id LIMIT 10",
    "UNWIND [3, 1, null, 2, 1] AS x RETURN x AS x, COUNT(*) AS c ORDER BY x",
    "UNWIND [[1, 2], [1, 2], [2], []] AS x RETURN COUNT(DISTINCT x) AS c",
    "MATCH (p:Person) OPTIONAL MATCH (p)-[:SCORED_GOAL]->(m:Match) \
     RETURN p.name AS name, COUNT(m) AS goals ORDER BY goals DESC, name LIMIT 10",
    "MATCH (p:Person) OPTIONAL MATCH (p)-[:SCORED_GOAL]->(m:Match) \
     RETURN p.name AS name, m.id AS mid ORDER BY name, mid LIMIT 15",
    "MATCH (a)-[:IN_TOURNAMENT]-(b) RETURN COUNT(*) AS c",
    "MATCH (a:Person)-[r1:SCORED_GOAL]->(m:Match)<-[r2:SCORED_GOAL]-(b:Person) \
     RETURN COUNT(*) AS c",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match), (m)-[:IN_TOURNAMENT]->(t:Tournament) \
     RETURN COUNT(*) AS c",
    "MATCH (p:Person)-[:SCORED_GOAL]->(m) MATCH (m)-[:IN_TOURNAMENT]->(t:Tournament) \
     RETURN COUNT(DISTINCT m.id) AS c",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match)-[:IN_TOURNAMENT]->(t:Tournament) \
     RETURN COUNT(DISTINCT p.id) AS c",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match)-[:IN_TOURNAMENT]->(t:Tournament) \
     MATCH (p)-[:IN_SQUAD]->(s:Squad)-[:FOR_TOURNAMENT]->(t) RETURN COUNT(DISTINCT p.id) AS c",
    "MATCH (p:Person)-[:PLAYED_IN*1..2]-(q:Person) RETURN COUNT(*) AS c",
    "MATCH (m:Match)-[:IN_TOURNAMENT*0..1]->(t) RETURN COUNT(DISTINCT t) AS c",
    "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) \
     RETURN SUM(r.minutes) AS s, AVG(r.minutes) AS a, MIN(r.minutes) AS lo, MAX(r.minutes) AS hi",
    "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WITH p AS p, SUM(r.minutes) AS total \
     WHERE total > 180 RETURN COUNT(*) AS c, MAX(total) AS most",
    "MATCH (m:Match {id: 1}) RETURN COUNT(*) AS c",
    "MATCH (m:Match) WHERE m.date =~ '\\\\d{4}-\\\\d{2}-\\\\d{2}' RETURN COUNT(*) AS c",
    "MATCH (m:Match) WHERE m.penaltyScore > 0 RETURN COUNT(*) AS c",
    "MATCH (p:Person) WHERE p.name STARTS WITH 'A' OR p.name CONTAINS 'e' \
     RETURN toUpper(p.name) AS n ORDER BY n LIMIT 5",
    "MATCH (p:Person)-[r]->(x) RETURN type(r) AS t, COUNT(*) AS c ORDER BY t",
    "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) RETURN id(p) AS i, labels(m) AS l \
     ORDER BY i LIMIT 3",
    "MATCH (t:Team) RETURN coalesce(t.ghost, t.name) AS n, toString(t.id) AS s ORDER BY n LIMIT 4",
    "MATCH (m:Match) WITH m.id AS id RETURN COUNT(*) AS c",
    "RETURN 1 + 1 AS two",
    "MATCH (m:Match) WITH m.id RETURN COUNT(*) AS c",
    "MATCH (a:Person)-[r:PLAYED_IN*1..2]->(b) RETURN COUNT(*) AS c",
    "MATCH (x:Ghost)-[r:PLAYED_IN*1..2]->(b) RETURN COUNT(*) AS c",
    "MATCH (m:Match) RETURN m.id AS id ORDER BY m.date LIMIT 2",
    "MATCH (x:Ghost) RETURN x.id AS id ORDER BY x.date",
    "MATCH (x:Ghost) RETURN COUNT(*) AS c, COLLECT(x.id) AS ids, SUM(x.id) AS s, AVG(x.id) AS a",
    "MATCH (x:Ghost) RETURN x.id AS id, COUNT(*) AS c",
    "MATCH (p:Person) WHERE p.name =~ '[A-M].*' RETURN COUNT(*) AS c",
    "MATCH (p:Person) WITH p AS p, p.name AS n MATCH (p)-[r:PLAYED_IN]->(m:Match) \
     RETURN n AS n, COUNT(*) AS games ORDER BY games DESC, n LIMIT 5",
    "MATCH (t:Team) WHERE t.id IN [1, 2, 3] RETURN t.id AS id ORDER BY id",
    "MATCH (m:Match)<-[:PLAYED_IN]-(p:Person) WITH m AS m, COUNT(DISTINCT p) AS k \
     RETURN MIN(k) AS lo, MAX(k) AS hi",
    "MATCH (a:Person)-[r:PLAYED_IN]->(m:Match) MATCH (b:Person)-[s:PLAYED_IN]->(m) \
     RETURN COUNT(*) AS c",
    "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) OPTIONAL MATCH (q:Person)-[:PLAYED_IN]->(m) \
     RETURN COUNT(q) AS c",
];

const TWITTER_SHAPES: &[&str] = &[
    "MATCH (u:User)-[:POSTS]->(t:Tweet) RETURN COUNT(*) AS c",
    "MATCH (t:Tweet) OPTIONAL MATCH (s:User)-[r:POSTS]->(t) \
     WITH t AS t, COUNT(r) AS c WHERE c = 1 RETURN COUNT(*) AS c",
    "MATCH (rt:Tweet)-[:RETWEETS]->(t:Tweet)<-[:POSTS]-(u:User) RETURN COUNT(DISTINCT t.id) AS c",
    "MATCH (a:Tweet)-[:RETWEETS*1..2]->(b:Tweet) RETURN COUNT(*) AS c",
    "MATCH (u:User)-[:FOLLOWS*1..2]->(v:User) RETURN COUNT(DISTINCT v) AS c",
    "MATCH (u:User)-[:FOLLOWS*2]-(v) RETURN COUNT(*) AS c",
    "MATCH (u:User)-[:FOLLOWS]->(v:User) WITH u AS u, COUNT(*) AS k \
     RETURN k AS k, COUNT(*) AS users ORDER BY k DESC LIMIT 5",
    "MATCH (u:User)-[:FOLLOWS]-(v:User) RETURN DISTINCT u.screen_name AS n ORDER BY n LIMIT 7",
    "MATCH (a:Tweet)-[r:RETWEETS]->(b:Tweet) WHERE a.created_at >= b.created_at \
     RETURN COUNT(*) AS c",
    "MATCH (t:Tweet)-[:TAGS]->(h:Hashtag) WITH h.name AS tag, COLLECT(t.id) AS ids \
     RETURN tag, SIZE(ids) AS n ORDER BY n DESC, tag LIMIT 5",
    "MATCH (u:User) WITH u.screen_name AS n UNWIND [n, n] AS m RETURN DISTINCT m AS m \
     ORDER BY m LIMIT 3",
];

/// Hashes one section's rendering, keeping the text for the failure
/// report.
fn section(g: &PropertyGraph, queries: &[String]) -> (usize, String) {
    let mut session = BatchSession::new(g);
    let mut text = String::new();
    for q in queries {
        render_query(&mut text, g, &mut session, q);
    }
    (queries.len(), text)
}

fn dataset_sections(id: DatasetId, scale: f64, shapes: &[&str]) -> Vec<(String, usize, String)> {
    let d = generate(id, &GenConfig { seed: 42, scale, clean: false });
    let g = &d.graph;
    let schema = GraphSchema::infer(g);
    let candidates = enumerate_candidates(g, &schema, &MinerConfig::default());
    let shapes: Vec<String> = shapes.iter().map(|s| s.to_string()).collect();

    let mut violations = String::new();
    for rule in &d.ground_truth {
        let _ = writeln!(violations, "{:?}", find_violations(g, rule, 25));
    }

    let mut out = Vec::new();
    for (name, queries) in [
        ("candidates", rule_queries(&candidates)),
        ("ground-truth", rule_queries(&d.ground_truth)),
        ("shapes", shapes),
    ] {
        let (n, text) = section(g, &queries);
        out.push((format!("{id:?}/{name}"), n, text));
    }
    out.push((format!("{id:?}/find-violations"), d.ground_truth.len(), violations));
    out
}

#[test]
fn executor_output_and_accounting_are_pinned() {
    #[rustfmt::skip]
    let expected: &[(&str, usize, u64)] = &[
        ("Wwc2019/candidates", 310, 0x35f001c070fde035),
        ("Wwc2019/ground-truth", 37, 0x5fed7470bb148b1d),
        ("Wwc2019/shapes", 45, 0x94f2d02b01aa1441),
        ("Wwc2019/find-violations", 10, 0xbc948fa115316216),
        ("Twitter/candidates", 346, 0xdc39edb12c3da462),
        ("Twitter/ground-truth", 35, 0x9f0ccd7ef6fe03e6),
        ("Twitter/shapes", 11, 0xc2d9a20120c83025),
        ("Twitter/find-violations", 9, 0x072e4d272a350f0a),
    ];
    let mut got = dataset_sections(DatasetId::Wwc2019, 0.05, WWC_SHAPES);
    got.extend(dataset_sections(DatasetId::Twitter, 0.01, TWITTER_SHAPES));
    let line = |name: &str, n: usize, h: u64| format!("(\"{name}\", {n}, {h:#018x}),");
    let rendered: Vec<String> =
        got.iter().map(|(name, n, text)| line(name, *n, fnv1a(text.as_bytes()))).collect();
    let want: Vec<String> = expected.iter().map(|(name, n, h)| line(name, *n, *h)).collect();
    if rendered != want {
        // Leave each section's rendering behind so a diff against the
        // previous executor's names the query that moved.
        let dir = std::env::temp_dir().join("exec_pins");
        let _ = std::fs::create_dir_all(&dir);
        for (name, _, text) in &got {
            let _ = std::fs::write(dir.join(name.replace('/', "-") + ".txt"), text);
        }
        panic!(
            "executor output changed (renderings in {}):\n{}",
            dir.display(),
            rendered.join("\n")
        );
    }
}
