//! Operator-level query profiling — the engine side of Neo4j's
//! `PROFILE`.
//!
//! A compiled plan carries one operator slot (`OpInfo`) per
//! executor stage (scan, expand, filter, projection, aggregation,
//! sort, limit, produce-results), and `Profiler` keeps one tally
//! per slot: calls, rows in/out, [`DbHits`] and *self*-time:
//!
//! * **Self-time** uses a switch/flush protocol — entering an
//!   operator attributes the wall-clock elapsed since the previous
//!   switch to the operator that was current, so the per-operator
//!   times partition the run exactly and their sum can never exceed
//!   the root's inclusive total (the property the proptests pin
//!   down). The clock is read on entering and leaving a label or
//!   full scan call, an expand call that has a candidate edge of a
//!   wanted type, and a blocking operator's flush (DESIGN.md §9 lists
//!   the sites). Everything else — a MATCH `WHERE` candidate, a
//!   projection, an aggregation fold, the other per-row operators —
//!   is counted without a clock read, so its time lands on the
//!   operator that produced the row.
//! * **Db-hits** follow the [`DbHits`] definition in `grm-pgraph`:
//!   nodes materialised by scans, edges examined by expansions,
//!   property-map lookups anywhere.
//! * **Sim-time** is a deterministic cost model — 1 µs per db-hit
//!   plus 1 µs per produced row — so plan baselines gate in CI
//!   without wall-clock noise.
//!
//! The public result is a [`QueryProfile`]: the operator chain as
//! `grm-obs` journal rows ([`PlanOpRecord`]), `ProduceResults` first
//! and the scan last, built once when the query finishes. Entry
//! point: [`crate::execute_profiled`]. A `None` profiler costs the
//! executor one `Option` check per site — the un-profiled path does
//! zero accounting.

use std::cell::Cell;
use std::time::Instant;

use grm_obs::PlanOpRecord;
use grm_pgraph::DbHits;

/// The full profile of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The source text that was executed.
    pub query: String,
    /// Result rows produced.
    pub rows: u64,
    /// Real inclusive time, microseconds (parse excluded).
    pub total_us: u64,
    /// Deterministic simulated cost, microseconds (sum over operators).
    pub sim_us: u64,
    /// The operator chain as journal rows, `ProduceResults` first and
    /// each operator's child after it; a row's `path` joins the
    /// operator names from the root down to it.
    pub ops: Vec<PlanOpRecord>,
}

impl QueryProfile {
    /// Total store accesses across all operators.
    pub fn db_hits(&self) -> DbHits {
        let mut acc = DbHits::new();
        for op in &self.ops {
            acc.nodes += op.db_nodes;
            acc.edges += op.db_edges;
            acc.props += op.db_props;
        }
        acc
    }

    /// Human-readable operator chain, `PROFILE`-style, one indented
    /// line per operator.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\nrows {}  db-hits {}  real {:.2}ms  sim {:.2}ms\n",
            self.query,
            self.rows,
            self.db_hits().total(),
            self.total_us as f64 / 1_000.0,
            self.sim_us as f64 / 1_000.0,
        );
        for (depth, op) in self.ops.iter().enumerate() {
            out.push_str(&format!(
                "{:indent$}{:<20} {:<30} rows {:>7}  hits {:>8}  self {:>8.2}ms  sim {:>8.2}ms\n",
                "",
                op.op,
                op.detail,
                op.rows,
                op.db_hits(),
                op.self_us as f64 / 1_000.0,
                op.sim_us as f64 / 1_000.0,
                indent = depth * 2
            ));
        }
        out
    }
}

/// One operator slot of a compiled plan: its name and the AST
/// fragment it executes. Scan slots also carry what actually runs —
/// `Argument` / `NodeByLabelScan` / `AllNodesScan` and the enumerated
/// end's detail, which the cost-based pattern reversal may flip —
/// and report it once the scan has run at least once.
#[derive(Debug, Clone)]
pub(crate) struct OpInfo {
    pub(crate) name: &'static str,
    pub(crate) detail: String,
    pub(crate) resolved: Option<(&'static str, String)>,
}

/// Mutable per-operator tally.
#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    rows_in: Cell<u64>,
    rows: Cell<u64>,
    hits: Cell<DbHits>,
    self_ns: Cell<u64>,
}

/// The recording half of `PROFILE`: one tally per operator slot of a
/// compiled plan, plus the "current operator" of the time-switch
/// protocol. Counts and db-hits name their operator explicitly, so a
/// row that streams through several operators charges each one
/// without a clock read; only [`Profiler::enter`] reads the clock.
/// Single-threaded by construction (the executor is), hence `Cell`s.
pub(crate) struct Profiler<'p> {
    ops: &'p [OpInfo],
    tally: Vec<Tally>,
    cur: Cell<usize>,
    last: Cell<Instant>,
    started: Instant,
}

impl<'p> Profiler<'p> {
    /// A zeroed tally over `ops`, whose last slot (`ProduceResults`)
    /// is the root and the initially current operator.
    pub(crate) fn new(ops: &'p [OpInfo]) -> Profiler<'p> {
        let root = ops.len() - 1;
        let now = Instant::now();
        Profiler {
            ops,
            tally: ops.iter().map(|_| Tally::default()).collect(),
            cur: Cell::new(root),
            last: Cell::new(now),
            started: now,
        }
    }

    /// Makes `op` the current operator, attributing the wall-clock
    /// elapsed since the last switch to the operator that *was*
    /// current. Returns the previous operator so callers can restore
    /// it (see [`Profiler::enter`]).
    fn switch(&self, op: usize) -> usize {
        let now = Instant::now();
        let prev = self.cur.get();
        let t = &self.tally[prev];
        t.self_ns.set(t.self_ns.get() + now.duration_since(self.last.get()).as_nanos() as u64);
        self.last.set(now);
        self.cur.set(op);
        prev
    }

    /// Switches to `op` for the guard's lifetime; dropping restores
    /// the previous operator.
    pub(crate) fn enter(&self, op: usize) -> OpGuard<'_, 'p> {
        OpGuard { p: self, prev: self.switch(op) }
    }

    /// One invocation of `op`.
    pub(crate) fn call(&self, op: usize) {
        let t = &self.tally[op].calls;
        t.set(t.get() + 1);
    }

    /// `n` rows consumed by `op`.
    pub(crate) fn rows_in(&self, op: usize, n: u64) {
        let t = &self.tally[op].rows_in;
        t.set(t.get() + n);
    }

    /// `n` rows produced by `op`.
    pub(crate) fn rows(&self, op: usize, n: u64) {
        let t = &self.tally[op].rows;
        t.set(t.get() + n);
    }

    fn hit(&self, op: usize, f: impl FnOnce(&mut DbHits)) {
        let t = &self.tally[op].hits;
        let mut h = t.get();
        f(&mut h);
        t.set(h);
    }

    /// `n` nodes materialised by `op`'s scan.
    pub(crate) fn hit_nodes(&self, op: usize, n: u64) {
        self.hit(op, |h| h.nodes += n);
    }

    /// `n` candidate edges examined by `op`.
    pub(crate) fn hit_edges(&self, op: usize, n: u64) {
        self.hit(op, |h| h.edges += n);
    }

    /// `n` property-map lookups by `op`.
    pub(crate) fn hit_props(&self, op: usize, n: u64) {
        self.hit(op, |h| h.props += n);
    }

    /// Flushes the final time slice and freezes the tally into a
    /// [`QueryProfile`]. The slots are in execution order, so walking
    /// them backwards lists the chain root first: the last slot
    /// (`ProduceResults`), then each operator's child.
    pub(crate) fn finish(self, src: &str) -> QueryProfile {
        self.switch(self.ops.len() - 1);
        let total_us = self.started.elapsed().as_micros() as u64;
        let mut ops: Vec<PlanOpRecord> = Vec::with_capacity(self.ops.len());
        let mut sim_us = 0u64;
        for (info, t) in self.ops.iter().zip(&self.tally).rev() {
            let hits = t.hits.get();
            let sim = hits.total() + t.rows.get();
            sim_us += sim;
            let (op, detail) = match &info.resolved {
                Some((name, detail)) if t.calls.get() > 0 => (*name, detail),
                _ => (info.name, &info.detail),
            };
            let path = match ops.last() {
                Some(parent) => format!("{}/{op}", parent.path),
                None => op.to_owned(),
            };
            ops.push(PlanOpRecord {
                path,
                op: op.to_owned(),
                detail: detail.clone(),
                calls: t.calls.get(),
                rows_in: t.rows_in.get(),
                rows: t.rows.get(),
                db_nodes: hits.nodes,
                db_edges: hits.edges,
                db_props: hits.props,
                self_us: t.self_ns.get() / 1_000,
                sim_us: sim,
            });
        }
        let rows = ops.first().expect("ProduceResults slot always exists").rows;
        QueryProfile { query: src.to_string(), rows, total_us, sim_us, ops }
    }
}

/// Restores the previously-current operator on drop.
pub(crate) struct OpGuard<'a, 'p> {
    p: &'a Profiler<'p>,
    prev: usize,
}

impl Drop for OpGuard<'_, '_> {
    fn drop(&mut self) {
        self.p.switch(self.prev);
    }
}
