//! Operator-level query profiling — the engine side of Neo4j's
//! `PROFILE`.
//!
//! A compiled plan carries one operator slot ([`OpInfo`]) per
//! executor stage (scan, expand, filter, projection, aggregation,
//! sort, limit, produce-results), and [`Profiler`] keeps one tally
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
//! The public result is a [`QueryProfile`]: the operator chain as a
//! [`PlanNode`] tree (root `ProduceResults`, leaves the scans),
//! convertible to `grm-obs` journal records via
//! [`QueryProfile::plan_ops`]. Entry point:
//! [`crate::execute_profiled`]. A `None` profiler costs the executor
//! one `Option` check per site — the un-profiled path does zero
//! accounting.

use std::cell::Cell;
use std::time::Instant;

use grm_obs::PlanOpRecord;
use grm_pgraph::DbHits;

/// One operator of an executed plan, with its recorded statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name (`NodeByLabelScan`, `Expand`, `Filter`, …).
    pub op: String,
    /// The AST fragment the operator executes, rendered as Cypher.
    pub detail: String,
    /// Times the operator ran.
    pub calls: u64,
    /// Rows consumed from the child operator.
    pub rows_in: u64,
    /// Rows produced.
    pub rows: u64,
    /// Store accesses attributed to this operator.
    pub db_hits: DbHits,
    /// Real self-time, microseconds (exclusive of children).
    pub self_us: u64,
    /// Deterministic simulated self-cost, microseconds.
    pub sim_us: u64,
    /// Child operators (this executor produces a chain: ≤ 1 child).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{:<20} {:<30} rows {:>7}  hits {:>8}  self {:>8.2}ms  sim {:>8.2}ms\n",
            "",
            self.op,
            self.detail,
            self.rows,
            self.db_hits.total(),
            self.self_us as f64 / 1_000.0,
            self.sim_us as f64 / 1_000.0,
            indent = depth * 2
        ));
        for child in &self.children {
            child.render(depth + 1, out);
        }
    }
}

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
    /// The operator tree, `ProduceResults` at the root.
    pub root: PlanNode,
}

impl QueryProfile {
    /// Total store accesses across all operators.
    pub fn db_hits(&self) -> DbHits {
        fn sum(node: &PlanNode, acc: &mut DbHits) {
            *acc += node.db_hits;
            for c in &node.children {
                sum(c, acc);
            }
        }
        let mut acc = DbHits::new();
        sum(&self.root, &mut acc);
        acc
    }

    /// Flattens the tree to journal operator records, each keyed by
    /// its slash-joined root-to-operator path.
    pub fn plan_ops(&self) -> Vec<PlanOpRecord> {
        fn walk(node: &PlanNode, prefix: &str, out: &mut Vec<PlanOpRecord>) {
            let path =
                if prefix.is_empty() { node.op.clone() } else { format!("{prefix}/{}", node.op) };
            out.push(PlanOpRecord {
                path: path.clone(),
                op: node.op.clone(),
                detail: node.detail.clone(),
                calls: node.calls,
                rows_in: node.rows_in,
                rows: node.rows,
                db_nodes: node.db_hits.nodes,
                db_edges: node.db_hits.edges,
                db_props: node.db_hits.props,
                self_us: node.self_us,
                sim_us: node.sim_us,
            });
            for c in &node.children {
                walk(c, &path, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }

    /// Human-readable plan tree, `PROFILE`-style.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\nrows {}  db-hits {}  real {:.2}ms  sim {:.2}ms\n",
            self.query,
            self.rows,
            self.db_hits().total(),
            self.total_us as f64 / 1_000.0,
            self.sim_us as f64 / 1_000.0,
        );
        self.root.render(0, &mut out);
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
    /// [`QueryProfile`]. The slots are in execution order, so folding
    /// them in order builds the chain leaf-up; the last slot
    /// (`ProduceResults`) becomes the root.
    pub(crate) fn finish(self, src: &str) -> QueryProfile {
        self.switch(self.ops.len() - 1);
        let total_us = self.started.elapsed().as_micros() as u64;
        let mut node: Option<PlanNode> = None;
        let mut sim_us = 0u64;
        for (info, t) in self.ops.iter().zip(&self.tally) {
            let hits = t.hits.get();
            let sim = hits.total() + t.rows.get();
            sim_us += sim;
            let (op, detail) = match &info.resolved {
                Some((name, detail)) if t.calls.get() > 0 => (*name, detail),
                _ => (info.name, &info.detail),
            };
            let mut n = PlanNode {
                op: op.to_string(),
                detail: detail.clone(),
                calls: t.calls.get(),
                rows_in: t.rows_in.get(),
                rows: t.rows.get(),
                db_hits: hits,
                self_us: t.self_ns.get() / 1_000,
                sim_us: sim,
                children: Vec::new(),
            };
            if let Some(child) = node.take() {
                n.children.push(child);
            }
            node = Some(n);
        }
        let root = node.expect("ProduceResults slot always exists");
        QueryProfile { query: src.to_string(), rows: root.rows, total_us, sim_us, root }
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
