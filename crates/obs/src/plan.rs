//! Query-plan profile records — the journal-v3 payload carrying
//! Neo4j-`PROFILE`-style operator statistics from the Cypher engine.
//!
//! `grm-obs` stays dependency-free, so these are plain-`u64` mirrors
//! of the profiler's own types: the engine (`grm-cypher`) converts
//! its `QueryProfile` into [`PlanOpRecord`] rows, a scorer absorbs
//! the rows of every query it runs for one rule into a single
//! [`PlanRecord`], and the recorder attaches that record to the
//! rule's span and serialises it as a `Plan` journal line.

/// One operator of an executed query plan, aggregated across every
/// call and every query absorbed into the owning [`PlanRecord`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanOpRecord {
    /// Slash-joined operator names from the plan root down (e.g.
    /// `"ProduceResults/Projection/Filter/Expand"`). Different
    /// queries can put different operators at one path; `(path,
    /// detail)` is unique within a record and is the merge key for
    /// [`PlanRecord::absorb`].
    pub path: String,
    /// Operator name alone (`NodeByLabelScan`, `Expand`, `Filter`,
    /// `Projection`, `EagerAggregation`, ...).
    pub op: String,
    /// Operator argument rendered from the AST, e.g. `(p:Person)`.
    pub detail: String,
    /// Times the operator ran (per incoming row for scans/expands).
    pub calls: u64,
    /// Rows the operator consumed from its child.
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows: u64,
    /// Node accesses (label-index or full scans).
    pub db_nodes: u64,
    /// Edge accesses (expansion candidates examined).
    pub db_edges: u64,
    /// Property-map lookups.
    pub db_props: u64,
    /// Real self-time in microseconds (exclusive of children).
    pub self_us: u64,
    /// Deterministic simulated self-cost in microseconds, derived
    /// from db-hits and rows — the CI-gateable counterpart of
    /// `self_us`.
    pub sim_us: u64,
}

impl PlanOpRecord {
    /// Total store accesses of this operator.
    pub fn db_hits(&self) -> u64 {
        self.db_nodes + self.db_edges + self.db_props
    }

    fn merge(&mut self, other: &PlanOpRecord) {
        self.calls += other.calls;
        self.rows_in += other.rows_in;
        self.rows += other.rows;
        self.db_nodes += other.db_nodes;
        self.db_edges += other.db_edges;
        self.db_props += other.db_props;
        self.self_us += other.self_us;
        self.sim_us += other.sim_us;
    }
}

/// One `Plan` journal line: the merged profile of every query
/// executed for one scope (typically one rule), attached to a span.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanRecord {
    /// Owning span id; `None` when recorded outside any span.
    pub span: Option<u64>,
    /// What was profiled — the pipeline uses `rule-<i>`, ad-hoc
    /// callers a query digest.
    pub scope: String,
    /// Queries absorbed into this record.
    pub queries: u64,
    /// Result rows across those queries.
    pub rows: u64,
    /// Real inclusive time of those queries, microseconds.
    pub total_us: u64,
    /// Deterministic simulated cost of those queries, microseconds.
    pub sim_us: u64,
    /// True when the slow-query policy flagged this record.
    pub slow: bool,
    /// Per-operator statistics, sorted by `(path, detail)` at
    /// serialisation.
    pub ops: Vec<PlanOpRecord>,
}

impl PlanRecord {
    /// An empty record for `scope`; fill it with [`absorb`].
    ///
    /// [`absorb`]: PlanRecord::absorb
    pub fn new(scope: impl Into<String>) -> PlanRecord {
        PlanRecord { scope: scope.into(), ..PlanRecord::default() }
    }

    /// Total store accesses across all operators.
    pub fn db_hits(&self) -> u64 {
        self.ops.iter().map(|o| o.db_hits()).sum()
    }

    /// Folds one executed query's profile into this record: operators
    /// merge by `(path, detail)` — the same operator of two queries —
    /// and totals accumulate. `rows` is the query's result-row count,
    /// `total_us`/`sim_us` its inclusive real and simulated time.
    pub fn absorb(&mut self, ops: Vec<PlanOpRecord>, rows: u64, total_us: u64, sim_us: u64) {
        self.queries += 1;
        self.rows += rows;
        self.total_us += total_us;
        self.sim_us += sim_us;
        for op in ops {
            match self.ops.iter_mut().find(|o| o.path == op.path && o.detail == op.detail) {
                Some(existing) => existing.merge(&op),
                None => self.ops.push(op),
            }
        }
    }

    /// Sorts operators by `(path, detail)` — journal bytes must not
    /// depend on the order queries were absorbed.
    pub fn sort_ops(&mut self) {
        self.ops.sort_by(|a, b| (&a.path, &a.detail).cmp(&(&b.path, &b.detail)));
    }
}

/// Thresholds above which a profiled query scope is flagged as slow
/// (`PlanRecord::slow`, `cypher_slow_queries` counter, run summary).
/// Unset fields never flag.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlowQueryPolicy {
    /// Flag scopes whose real inclusive time exceeds this many
    /// milliseconds.
    pub max_millis: Option<f64>,
    /// Flag scopes whose total db-hits exceed this count.
    pub max_db_hits: Option<u64>,
}

impl SlowQueryPolicy {
    /// True when no threshold is set (nothing ever flags).
    pub fn is_empty(&self) -> bool {
        self.max_millis.is_none() && self.max_db_hits.is_none()
    }

    /// Does `record` breach any configured threshold?
    pub fn is_slow(&self, record: &PlanRecord) -> bool {
        let millis = record.total_us as f64 / 1_000.0;
        self.max_millis.is_some_and(|t| millis > t)
            || self.max_db_hits.is_some_and(|t| record.db_hits() > t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(path: &str, hits: u64) -> PlanOpRecord {
        PlanOpRecord {
            path: path.into(),
            op: path.rsplit('/').next().unwrap().into(),
            calls: 1,
            rows_in: 2,
            rows: 1,
            db_nodes: hits,
            self_us: 5,
            sim_us: 3,
            ..PlanOpRecord::default()
        }
    }

    #[test]
    fn absorb_merges_by_path() {
        let mut rec = PlanRecord::new("rule-0");
        rec.absorb(vec![op("Root", 1), op("Root/Scan", 4)], 1, 100, 50);
        rec.absorb(vec![op("Root/Scan", 6), op("Root/Filter", 2)], 2, 200, 70);
        assert_eq!(rec.queries, 2);
        assert_eq!(rec.rows, 3);
        assert_eq!(rec.total_us, 300);
        assert_eq!(rec.sim_us, 120);
        assert_eq!(rec.ops.len(), 3);
        let scan = rec.ops.iter().find(|o| o.path == "Root/Scan").unwrap();
        assert_eq!(scan.db_nodes, 10);
        assert_eq!(scan.calls, 2);
        assert_eq!(rec.db_hits(), 13);
    }

    #[test]
    fn absorb_keeps_different_operators_at_one_path_apart() {
        let at =
            |detail: &str, hits| PlanOpRecord { detail: detail.into(), ..op("Root/Filter", hits) };
        let mut rec = PlanRecord::new("rule-0");
        rec.absorb(vec![op("Root", 1), at("r.minutes IS NOT NULL", 7)], 1, 0, 0);
        rec.absorb(vec![op("Root", 1), at("c = 1", 0)], 1, 0, 0);
        rec.absorb(vec![op("Root", 1), at("c = 1", 0)], 1, 0, 0);
        rec.sort_ops();
        let rows: Vec<_> = rec
            .ops
            .iter()
            .map(|o| (o.path.as_str(), o.detail.as_str(), o.calls, o.db_hits()))
            .collect();
        assert_eq!(
            rows,
            [
                ("Root", "", 3, 3),
                ("Root/Filter", "c = 1", 2, 0),
                ("Root/Filter", "r.minutes IS NOT NULL", 1, 7),
            ]
        );
        assert_eq!(rec.db_hits(), 10);
    }

    #[test]
    fn sort_ops_is_by_path() {
        let mut rec = PlanRecord::new("x");
        rec.absorb(vec![op("b", 0), op("a", 0), op("a/c", 0)], 0, 0, 0);
        rec.sort_ops();
        let paths: Vec<&str> = rec.ops.iter().map(|o| o.path.as_str()).collect();
        assert_eq!(paths, ["a", "a/c", "b"]);
    }

    #[test]
    fn records_round_trip_through_serde() {
        let mut rec = PlanRecord::new("rule-0");
        rec.absorb(vec![op("Root", 1), op("Root/Scan", 4)], 1, 100, 50);
        rec.sort_ops();
        crate::assert_roundtrip(&rec);
    }

    #[test]
    fn slow_query_policy_thresholds() {
        let mut rec = PlanRecord::new("rule-1");
        rec.absorb(vec![op("Root", 100)], 1, 2_500, 0);
        assert!(!SlowQueryPolicy::default().is_slow(&rec));
        assert!(SlowQueryPolicy::default().is_empty());
        let by_time = SlowQueryPolicy { max_millis: Some(2.0), ..Default::default() };
        assert!(by_time.is_slow(&rec));
        let by_hits = SlowQueryPolicy { max_db_hits: Some(99), ..Default::default() };
        assert!(by_hits.is_slow(&rec));
        let lenient = SlowQueryPolicy { max_millis: Some(3.0), max_db_hits: Some(100) };
        assert!(!lenient.is_slow(&rec));
    }
}
