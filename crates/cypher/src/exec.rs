//! Query execution: a streaming executor over slot-compiled plans.
//!
//! [`crate::plan`] compiles a query into a pipeline of operators over
//! one flat row of slots; the executor pushes that row
//! through them. Each MATCH walks its patterns depth-first — label or
//! full scan, then one expand per relationship — writing bindings
//! into the row in place and handing every complete match straight to
//! the next operator, so no row is ever copied or collected. Edge
//! uniqueness is a stack pushed and popped along the walk, each MATCH
//! checking only the edges it pushed itself. Projection,
//! filters, DISTINCT and UNWIND stream; aggregation folds each row
//! into its group's accumulators in place and emits the groups when
//! flushed; ORDER BY buffers only the sort keys and the output cells.
//! A `RETURN COUNT(*)` therefore allocates nothing per row.
//!
//! The planner is deliberately simple — label-indexed candidate scans
//! with backtracking extension — because the paper's generated rules
//! are short linear patterns over graphs of ≤ 43k nodes. Cypher
//! semantics that matter to the study are honoured:
//!
//! * **relationship uniqueness** within one `MATCH` clause (no edge is
//!   used twice in a single pattern instantiation);
//! * **grouping** keys are the non-aggregate projection items, compared
//!   as typed keys ([`grm_pgraph::ValueKey`]);
//! * `OPTIONAL MATCH` emits a null-extended row on no match;
//! * `WHERE` filters with three-valued logic (`NULL` drops the row).
//!
//! Rows, their order and every operator's profile counts are those of
//! evaluating each clause over all rows of the one before: the
//! executor only interleaves that work. A query that fails still
//! fails; when several rows would fail, the interleaving may meet a
//! different one first.

use std::borrow::Cow;
use std::cmp::Ordering;

use grm_pgraph::{EdgeId, NodeId, PropertyGraph, Value, ValueKey};

use crate::ast::Direction;
use crate::error::{CypherError, Result};
use crate::eval::{Binding, CExpr, Eval};
use crate::keys::{KeyRef, TupleSet};
use crate::parser::parse;
use crate::plan::*;
use crate::profile::{Profiler, QueryProfile};

/// A fully materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single integer cell of a 1×1 result (the common shape of
    /// `RETURN COUNT(*) AS support`), if that is what this is.
    pub fn single_int(&self) -> Option<i64> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            match &self.rows[0][0] {
                Value::Int(i) => Some(*i),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Parses and executes `src` against `graph`.
pub fn execute(graph: &PropertyGraph, src: &str) -> Result<ResultSet> {
    let query = parse(src)?;
    Plan::compile(&query, graph, false).run(graph, None)
}

/// Parses and executes `src` with operator-level profiling — this
/// engine's `PROFILE`. Returns the result set together with the
/// recorded plan tree ([`QueryProfile`]); [`execute`] does zero
/// accounting.
pub fn execute_profiled(graph: &PropertyGraph, src: &str) -> Result<(ResultSet, QueryProfile)> {
    let query = parse(src)?;
    Plan::compile(&query, graph, true).run_profiled(graph, src)
}

/// Parses `src`, runs the optimizer rewrite pass against `graph`'s
/// statistics, and executes the rewritten query. Result-identical to
/// [`execute`] — the rewrite rules are proven order-preserving (see
/// `optimizer`) — but typically far cheaper in db-hits. For repeated
/// queries prefer a [`crate::BatchSession`], which also caches the
/// compiled plan and memoizes results.
pub fn execute_optimized(graph: &PropertyGraph, src: &str) -> Result<ResultSet> {
    let query = parse(src)?;
    let (query, _) = crate::optimizer::optimize(&query, graph);
    Plan::compile(&query, graph, false).run(graph, None)
}

impl Plan {
    /// Executes the plan, recording into `prof` when given.
    pub(crate) fn run(
        &self,
        graph: &PropertyGraph,
        prof: Option<&Profiler<'_>>,
    ) -> Result<ResultSet> {
        let mut exec = Exec {
            ev: Eval { graph, prof },
            plan: self,
            row: vec![Binding::Val(Value::Null); self.slots],
            edges: Vec::new(),
            edge_base: vec![0; self.ops.len()],
            matched: vec![0; self.ops.len()],
            states: self
                .ops
                .iter()
                .map(|op| match op {
                    Op::Aggregate(a) => State::Groups(Groups::new(a)),
                    Op::Distinct(slots, _) => State::Seen(TupleSet::new(slots.len())),
                    _ => State::None,
                })
                .collect(),
            sorted: Vec::new(),
            windowed: 0,
            out: Vec::new(),
        };
        // The first operator reads one empty row.
        exec.push(0)?;
        for i in 0..self.ops.len() {
            exec.flush(i)?;
        }
        Ok(ResultSet { columns: self.columns.clone(), rows: exec.out })
    }

    /// Executes the plan under `PROFILE`.
    pub(crate) fn run_profiled(
        &self,
        graph: &PropertyGraph,
        src: &str,
    ) -> Result<(ResultSet, QueryProfile)> {
        let prof = Profiler::new(&self.layout);
        let rs = self.run(graph, Some(&prof))?;
        Ok((rs, prof.finish(src)))
    }
}

/// Per-operator run state.
enum State {
    None,
    Groups(Groups),
    Seen(TupleSet),
}

/// An aggregation's groups: the distinct key tuples in first-seen
/// order, each group's accumulators, and the probe the next row's key
/// is evaluated into.
struct Groups {
    keys: TupleSet,
    accs: Vec<Acc>,
    probe: Vec<Binding>,
}

impl Groups {
    fn new(a: &AggregateOp) -> Groups {
        Groups {
            keys: TupleSet::new(a.keys.len()),
            accs: Vec::new(),
            probe: vec![Binding::Val(Value::Null); a.keys.len()],
        }
    }
}

/// One aggregate's running state within one group. `seen` holds the
/// values already folded under DISTINCT.
struct Acc {
    seen: Option<Box<TupleSet>>,
    count: u64,
    sum: f64,
    all_int: bool,
    values: Vec<Value>,
    best: Option<Value>,
}

impl Acc {
    fn new(spec: &AggSpec) -> Acc {
        Acc {
            seen: spec.distinct.then(|| Box::new(TupleSet::new(1))),
            count: 0,
            sum: 0.0,
            all_int: true,
            values: Vec::new(),
            best: None,
        }
    }

    /// Folds one row's argument. NULLs are skipped (Cypher), and under
    /// DISTINCT so is a value already folded.
    fn add(&mut self, spec: &AggSpec, ev: &Eval<'_>, row: &[Binding], op: usize) -> Result<()> {
        let Some(arg) = &spec.arg else {
            // count(*), or an argument-less call that fails when flushed.
            self.count += 1;
            return Ok(());
        };
        let func = spec.func.as_ref().ok();
        if func == Some(&AggFn::Count) && self.seen.is_none() {
            self.count += u64::from(ev.is_present(arg, row, op)?);
            return Ok(());
        }
        // A bare variable keys on its binding, so counting distinct
        // graph elements never renders them.
        let value: Cow<'_, Value> = match (arg, func) {
            (CExpr::Var(slot), Some(AggFn::Count)) => match &row[*slot] {
                Binding::Val(v) => Cow::Borrowed(v),
                b => {
                    if self.seen.as_mut().is_some_and(|s| s.insert_key(KeyRef::of(b))) {
                        self.count += 1;
                    }
                    return Ok(());
                }
            },
            _ => ev.eval(arg, row, op)?,
        };
        if value.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert_key(KeyRef::Val(ValueKey(&value))) {
                return Ok(());
            }
        }
        match func {
            Some(AggFn::Count) => self.count += 1,
            Some(AggFn::Collect) => self.values.push(value.into_owned()),
            Some(AggFn::Sum) => match value.as_ref() {
                Value::Int(i) => self.sum += *i as f64,
                Value::Float(f) => {
                    self.all_int = false;
                    self.sum += *f;
                }
                other => {
                    return Err(CypherError::runtime(format!(
                        "SUM over non-numeric {}",
                        other.type_name()
                    )))
                }
            },
            Some(AggFn::Avg) => {
                self.sum += value.as_f64().ok_or_else(|| {
                    CypherError::runtime(format!("AVG over non-numeric {}", value.type_name()))
                })?;
                self.count += 1;
            }
            Some(f @ (AggFn::Min | AggFn::Max)) => {
                let better = |b: &Value| match value.cypher_cmp(b) {
                    Some(ord) => {
                        (*f == AggFn::Min && ord.is_lt()) || (*f == AggFn::Max && ord.is_gt())
                    }
                    None => false,
                };
                if self.best.as_ref().is_none_or(better) {
                    self.best = Some(value.into_owned());
                }
            }
            Some(AggFn::CountStar) | None => {}
        }
        Ok(())
    }

    fn finish(self, spec: &AggSpec) -> Result<Value> {
        let func = spec.func.as_ref().map_err(Clone::clone)?;
        Ok(match func {
            AggFn::CountStar | AggFn::Count => Value::Int(self.count as i64),
            AggFn::Collect => Value::List(self.values),
            AggFn::Sum if self.all_int => Value::Int(self.sum as i64),
            AggFn::Sum => Value::Float(self.sum),
            AggFn::Avg if self.count == 0 => Value::Null,
            AggFn::Avg => Value::Float(self.sum / self.count as f64),
            AggFn::Min | AggFn::Max => self.best.unwrap_or(Value::Null),
        })
    }
}

/// Copies `src` into `dst`, reusing `dst`'s string buffer when both
/// are strings — a group probe costs no allocation per row.
fn assign(dst: &mut Binding, src: Cow<'_, Value>) {
    match (dst, src) {
        (Binding::Val(Value::Str(d)), Cow::Borrowed(Value::Str(s))) => {
            d.clear();
            d.push_str(s);
        }
        (dst, src) => *dst = Binding::Val(src.into_owned()),
    }
}

struct Exec<'q> {
    ev: Eval<'q>,
    plan: &'q Plan,
    /// The one row every operator reads and writes.
    row: Vec<Binding>,
    /// Edges bound by the MATCH walks in progress, the innermost
    /// clause's last (relationship uniqueness).
    edges: Vec<EdgeId>,
    /// Where each MATCH's own edges begin on `edges`: uniqueness holds
    /// within one clause, not across clauses.
    edge_base: Vec<usize>,
    /// Rows each MATCH has passed on (its OPTIONAL miss test).
    matched: Vec<u64>,
    states: Vec<State>,
    /// ORDER BY buffer: sort keys and output cells per row.
    sorted: Vec<(Vec<Value>, Vec<Value>)>,
    /// Rows that reached SKIP / LIMIT.
    windowed: u64,
    out: Vec<Vec<Value>>,
}

impl<'q> Exec<'q> {
    /// Hands the current row to operator `i`.
    fn push(&mut self, i: usize) -> Result<()> {
        let plan = self.plan;
        let prof = self.ev.prof;
        match &plan.ops[i] {
            Op::Match(m) => {
                let before = self.matched[i];
                self.edge_base[i] = self.edges.len();
                self.path(i, m, 0)?;
                if m.optional && self.matched[i] == before {
                    for slot in m.pad.clone() {
                        self.row[slot] = Binding::Val(Value::Null);
                    }
                    self.push(i + 1)?;
                }
                Ok(())
            }
            Op::Project(p) => {
                for (item, slot) in &p.items {
                    let b = match item {
                        Item::Var(s) => self.row[*s].clone(),
                        Item::Expr(e) => {
                            Binding::Val(self.ev.eval(e, &self.row, p.op)?.into_owned())
                        }
                    };
                    self.row[*slot] = b;
                }
                if let Some(pr) = prof {
                    pr.rows_in(p.op, 1);
                    pr.rows(p.op, 1);
                }
                self.push(i + 1)
            }
            Op::Aggregate(a) => self.fold(i, a),
            Op::Filter(expr, op) => {
                if let Some(pr) = prof {
                    pr.rows_in(*op, 1);
                }
                if !self.ev.truth(expr, &self.row, *op)? {
                    return Ok(());
                }
                if let Some(pr) = prof {
                    pr.rows(*op, 1);
                }
                self.push(i + 1)
            }
            Op::Distinct(slots, op) => {
                if let Some(pr) = prof {
                    pr.rows_in(*op, 1);
                }
                let State::Seen(seen) = &mut self.states[i] else { unreachable!("Distinct state") };
                if !seen.insert(&self.row[slots.clone()]).1 {
                    return Ok(());
                }
                if let Some(pr) = prof {
                    pr.rows(*op, 1);
                }
                self.push(i + 1)
            }
            Op::Unwind(expr, slot, op) => {
                if let Some(pr) = prof {
                    pr.rows_in(*op, 1);
                }
                match self.ev.eval(expr, &self.row, *op)?.into_owned() {
                    Value::Null => Ok(()),
                    Value::List(items) => {
                        for item in items {
                            if let Some(pr) = prof {
                                pr.rows(*op, 1);
                            }
                            self.row[*slot] = Binding::Val(item);
                            self.push(i + 1)?;
                        }
                        Ok(())
                    }
                    other => Err(CypherError::runtime(format!(
                        "UNWIND expects a list, got {}",
                        other.type_name()
                    ))),
                }
            }
            Op::Return(r) => {
                let graph = self.ev.graph;
                let cells = |row: &[Binding]| -> Vec<Value> {
                    r.columns.iter().map(|&s| row[s].to_value(graph)).collect()
                };
                match &r.sort {
                    Some(sort) => {
                        let keys = sort
                            .keys
                            .iter()
                            .map(|(e, _)| self.ev.eval(e, &self.row, sort.op).map(Cow::into_owned))
                            .collect::<Result<Vec<_>>>()?;
                        let cells = cells(&self.row);
                        self.sorted.push((keys, cells));
                    }
                    None => {
                        if self.admit(r) {
                            let cells = cells(&self.row);
                            self.out.push(cells);
                        }
                    }
                }
                Ok(())
            }
            Op::Fail(_) => Ok(()),
        }
    }

    /// SKIP / LIMIT for one row in final order: true when the row is
    /// a result row.
    fn admit(&mut self, r: &ReturnOp) -> bool {
        let prof = self.ev.prof;
        if let (Some(pr), Some(op)) = (prof, r.window_op) {
            pr.rows_in(op, 1);
        }
        let index = self.windowed;
        self.windowed += 1;
        if index < r.skip || self.out.len() as u64 >= r.limit {
            return false;
        }
        if let (Some(pr), Some(op)) = (prof, r.window_op) {
            pr.rows(op, 1);
        }
        true
    }

    /// Operator `i`'s end of input: blocking operators emit what they
    /// hold, and every batch operator counts its one call.
    fn flush(&mut self, i: usize) -> Result<()> {
        let plan = self.plan;
        let prof = self.ev.prof;
        let call = |op: usize| {
            if let Some(pr) = prof {
                pr.call(op);
            }
        };
        match &plan.ops[i] {
            Op::Match(_) => Ok(()),
            Op::Project(ProjectOp { op, .. })
            | Op::Filter(_, op)
            | Op::Distinct(_, op)
            | Op::Unwind(_, _, op) => {
                call(*op);
                Ok(())
            }
            Op::Aggregate(a) => {
                let State::Groups(mut groups) = std::mem::replace(&mut self.states[i], State::None)
                else {
                    unreachable!("Aggregate state")
                };
                // Emitting the groups is this operator's work; what the
                // rows cost downstream lands here too, as streamed rows'
                // time lands on the operator that produced them.
                let _g = prof.map(|pr| pr.enter(a.op));
                call(a.op);
                // Global aggregation over zero rows still yields one
                // group (`COUNT(*)` over an empty match is 0, not
                // no-rows).
                if a.keys.is_empty() && groups.keys.len() == 0 {
                    groups.keys.insert(&[]);
                    groups.accs.extend(a.aggs.iter().map(|(spec, _)| Acc::new(spec)));
                }
                let n = groups.keys.len();
                if let Some(pr) = prof {
                    pr.rows(a.op, n as u64);
                }
                let mut cells = groups.keys.into_cells();
                let mut accs = groups.accs.into_iter();
                for _ in 0..n {
                    for (_, slot) in &a.keys {
                        self.row[*slot] = cells.next().expect("one key cell per grouping item");
                    }
                    for (spec, slot) in &a.aggs {
                        let acc = accs.next().expect("one accumulator per aggregate");
                        self.row[*slot] = Binding::Val(acc.finish(spec)?);
                    }
                    self.push(i + 1)?;
                }
                Ok(())
            }
            Op::Return(r) => {
                if let Some(sort) = &r.sort {
                    let mut sorted = std::mem::take(&mut self.sorted);
                    {
                        let _g = prof.map(|pr| pr.enter(sort.op));
                        call(sort.op);
                        if let Some(pr) = prof {
                            pr.rows_in(sort.op, sorted.len() as u64);
                            pr.rows(sort.op, sorted.len() as u64);
                        }
                        sorted.sort_by(|(a, _), (b, _)| compare_keys(&sort.keys, a, b));
                    }
                    for (_, cells) in sorted {
                        if self.admit(r) {
                            self.out.push(cells);
                        }
                    }
                }
                if let Some(op) = r.window_op {
                    call(op);
                }
                call(r.root);
                if let Some(pr) = prof {
                    pr.rows_in(r.root, self.out.len() as u64);
                    pr.rows(r.root, self.out.len() as u64);
                }
                Ok(())
            }
            Op::Fail(e) => Err(e.clone()),
        }
    }

    /// Folds the current row into its group.
    fn fold(&mut self, i: usize, a: &AggregateOp) -> Result<()> {
        let Exec { ev, row, states, .. } = self;
        if let Some(pr) = ev.prof {
            pr.rows_in(a.op, 1);
        }
        let State::Groups(groups) = &mut states[i] else { unreachable!("Aggregate state") };
        for ((item, _), probe) in a.keys.iter().zip(&mut groups.probe) {
            match item {
                Item::Var(s) => match &row[*s] {
                    Binding::Val(v) => assign(probe, Cow::Borrowed(v)),
                    b => *probe = b.clone(),
                },
                Item::Expr(e) => assign(probe, ev.eval(e, row, a.op)?),
            }
        }
        let (g, fresh) = groups.keys.insert(&groups.probe);
        if fresh {
            groups.accs.extend(a.aggs.iter().map(|(spec, _)| Acc::new(spec)));
        }
        let accs = &mut groups.accs[g * a.aggs.len()..(g + 1) * a.aggs.len()];
        for ((spec, _), acc) in a.aggs.iter().zip(accs) {
            acc.add(spec, ev, row, a.op)?;
        }
        Ok(())
    }

    /// Enumerates path `pi` of MATCH `i` from its scan; past the last
    /// path, the match is complete.
    fn path(&mut self, i: usize, m: &'q MatchOp, pi: usize) -> Result<()> {
        let Some(p) = m.paths.get(pi) else {
            return self.matched_row(i, m);
        };
        let prof = self.ev.prof;
        let op = p.scan_op;
        // Re-checking one bound node is too little work to time: an
        // Argument call's time stays with the operator that called it.
        let _g = prof.filter(|_| !matches!(p.scan, Scan::Argument(_))).map(|pr| pr.enter(op));
        if let Some(pr) = prof {
            pr.call(op);
            pr.rows_in(op, 1);
        }
        let g = self.ev.graph;
        match &p.scan {
            Scan::Argument(slot) => {
                if let Binding::Node(id) = self.row[*slot] {
                    self.begin(i, m, pi, id)?;
                }
            }
            Scan::Label(label) => {
                let ids = g.node_ids_with_label(label);
                if let Some(pr) = prof {
                    pr.hit_nodes(op, ids.len() as u64);
                }
                for &id in ids {
                    self.begin(i, m, pi, id)?;
                }
            }
            Scan::All => {
                if let Some(pr) = prof {
                    pr.hit_nodes(op, g.node_count() as u64);
                }
                for n in 0..g.node_count() {
                    self.begin(i, m, pi, NodeId(n as u32))?;
                }
            }
        }
        Ok(())
    }

    /// Starts path `pi` at node `id` if it passes the start pattern.
    fn begin(&mut self, i: usize, m: &'q MatchOp, pi: usize, id: NodeId) -> Result<()> {
        let p = &m.paths[pi];
        if self.node_ok(&p.start, id, p.scan_op)? {
            if let Some(pr) = self.ev.prof {
                pr.rows(p.scan_op, 1);
            }
            self.step(i, m, pi, 0, id)?;
        }
        Ok(())
    }

    /// Takes step `si` of path `pi` from node `at`; past the last step,
    /// the next path begins.
    fn step(&mut self, i: usize, m: &'q MatchOp, pi: usize, si: usize, at: NodeId) -> Result<()> {
        let Some(s) = m.paths[pi].steps.get(si) else {
            return self.path(i, m, pi + 1);
        };
        let prof = self.ev.prof;
        if let Some(pr) = prof {
            pr.call(s.op);
            pr.rows_in(s.op, 1);
        }
        match &s.kind {
            StepKind::Single(rel) => self.expand(i, m, pi, si, at, *rel),
            StepKind::VarLength { min, max } => {
                let _g = prof.map(|pr| pr.enter(s.op));
                self.var_walk(i, m, pi, si, at, 0, (*min, *max))
            }
            StepKind::Fail(e) => Err(e.clone()),
        }
    }

    /// The candidate hops of step `s` from `at`: each edge with its far
    /// end, in adjacency order; an undirected step lists a self-loop
    /// once. Charges the examined edges to the step.
    fn hops(&self, s: &'q Step, at: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + Clone + 'q {
        let g = self.ev.graph;
        let (out, inc): (&[EdgeId], &[EdgeId]) = match s.dir {
            Direction::Out => (g.out_edge_ids(at), &[]),
            Direction::In => (&[], g.in_edge_ids(at)),
            Direction::Undirected => (g.out_edge_ids(at), g.in_edge_ids(at)),
        };
        let hops =
            out.iter().map(move |&e| (e, g.edge(e).dst)).chain(inc.iter().filter_map(move |&e| {
                let edge = g.edge(e);
                (s.dir == Direction::In || edge.src != edge.dst).then_some((e, edge.src))
            }));
        if let Some(pr) = self.ev.prof {
            pr.hit_edges(s.op, hops.clone().count() as u64);
        }
        hops
    }

    /// True when edge `e` may extend MATCH `i`'s walk: unused in this clause,
    /// of an allowed type, and matching the relationship's property map.
    fn edge_ok(&self, i: usize, s: &Step, e: EdgeId) -> Result<bool> {
        if self.edges[self.edge_base[i]..].contains(&e) {
            return Ok(false);
        }
        let edge = self.ev.graph.edge(e);
        if !s.types.is_empty() && !s.types.contains(&edge.label) {
            return Ok(false);
        }
        for (k, expr) in &s.props {
            let want = self.ev.eval(expr, &self.row, s.op)?;
            self.ev.charge(s.op);
            if edge.prop(k).cypher_eq(&want) != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn expand(
        &mut self,
        i: usize,
        m: &'q MatchOp,
        pi: usize,
        si: usize,
        at: NodeId,
        rel: VarUse,
    ) -> Result<()> {
        let s = &m.paths[pi].steps[si];
        let g = self.ev.graph;
        let hops = self.hops(s, at);
        let prof = self.ev.prof;
        // A call that finds no edge of a wanted type produces nothing
        // and is over in a few loads: it is counted, but its time stays
        // with the caller rather than costing two clock reads.
        let _g = prof
            .filter(|_| {
                hops.clone().any(|(e, _)| s.types.is_empty() || s.types.contains(&g.edge(e).label))
            })
            .map(|pr| pr.enter(s.op));
        for (e, next) in hops {
            if !self.edge_ok(i, s, e)? {
                continue;
            }
            match rel {
                VarUse::Anon => {}
                VarUse::Bind(slot) => self.row[slot] = Binding::Edge(e),
                VarUse::Check(slot) => {
                    if !matches!(self.row[slot], Binding::Edge(b) if b == e) {
                        continue;
                    }
                }
            }
            if !self.node_ok(&s.node, next, s.op)? {
                continue;
            }
            if let Some(pr) = prof {
                pr.rows(s.op, 1);
            }
            self.edges.push(e);
            let r = self.step(i, m, pi, si + 1, next);
            self.edges.pop();
            r?;
        }
        Ok(())
    }

    /// Bounded DFS of a variable-length hop: every edge-distinct path
    /// of `min..=max` hops whose edges pass the type / property
    /// filters, ending at a node that passes the node pattern.
    #[allow(clippy::too_many_arguments)]
    fn var_walk(
        &mut self,
        i: usize,
        m: &'q MatchOp,
        pi: usize,
        si: usize,
        at: NodeId,
        depth: u32,
        (min, max): (u32, u32),
    ) -> Result<()> {
        let s = &m.paths[pi].steps[si];
        let prof = self.ev.prof;
        // Enough hops taken: the current node may close this step.
        if depth >= min && self.node_ok(&s.node, at, s.op)? {
            if let Some(pr) = prof {
                pr.rows(s.op, 1);
            }
            self.step(i, m, pi, si + 1, at)?;
        }
        if depth >= max {
            return Ok(());
        }
        for (e, next) in self.hops(s, at) {
            if !self.edge_ok(i, s, e)? {
                continue;
            }
            self.edges.push(e);
            let r = self.var_walk(i, m, pi, si, next, depth + 1, (min, max));
            self.edges.pop();
            r?;
        }
        Ok(())
    }

    /// Checks node `id` against a node pattern — labels, then the
    /// property map (charged to `op`), then the variable — binding the
    /// variable on first appearance.
    fn node_ok(&mut self, check: &NodeCheck, id: NodeId, op: usize) -> Result<bool> {
        let node = self.ev.graph.node(id);
        if !check.labels.iter().all(|l| node.has_label(l)) {
            return Ok(false);
        }
        for (k, expr) in &check.props {
            let want = self.ev.eval(expr, &self.row, op)?;
            self.ev.charge(op);
            if node.prop(k).cypher_eq(&want) != Some(true) {
                return Ok(false);
            }
        }
        match check.var {
            VarUse::Anon => {}
            VarUse::Bind(slot) => self.row[slot] = Binding::Node(id),
            VarUse::Check(slot) => {
                return Ok(matches!(self.row[slot], Binding::Node(b) if b == id))
            }
        }
        Ok(true)
    }

    /// Every path of MATCH `i` is bound: apply its WHERE and pass the
    /// row on. The filter runs once per candidate row, so it counts
    /// without a clock read; its time stays with the expand or scan
    /// that produced the row.
    fn matched_row(&mut self, i: usize, m: &'q MatchOp) -> Result<()> {
        if let Some((filter, op)) = &m.filter {
            let prof = self.ev.prof;
            if let Some(pr) = prof {
                pr.call(*op);
                pr.rows_in(*op, 1);
            }
            if !self.ev.truth(filter, &self.row, *op)? {
                return Ok(());
            }
            if let Some(pr) = prof {
                pr.rows(*op, 1);
            }
        }
        self.matched[i] += 1;
        self.push(i + 1)
    }
}

/// ORDER BY: Cypher comparison per key, falling back to the values'
/// string renderings where Cypher cannot compare them.
fn compare_keys(keys: &[(CExpr, bool)], a: &[Value], b: &[Value]) -> Ordering {
    for (i, (_, descending)) in keys.iter().enumerate() {
        let ord = a[i].cypher_cmp(&b[i]).unwrap_or_else(|| a[i].group_key().cmp(&b[i].group_key()));
        let ord = if *descending { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::props;

    /// A tiny football graph mirroring WWC2019's core shape.
    fn football() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let t = g.add_node(["Tournament"], props([("id", Value::Int(1))]));
        let m1 = g.add_node(
            ["Match"],
            props([("id", Value::from("m1")), ("date", Value::from("2019-06-11"))]),
        );
        let m2 = g.add_node(
            ["Match"],
            props([("id", Value::from("m2")), ("date", Value::from("2019-06-12"))]),
        );
        let p1 = g.add_node(["Person"], props([("name", Value::from("Ada"))]));
        let p2 = g.add_node(["Person"], props([("name", Value::from("Bea"))]));
        g.add_edge(m1, t, "IN_TOURNAMENT", Default::default());
        g.add_edge(m2, t, "IN_TOURNAMENT", Default::default());
        g.add_edge(p1, m1, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        g.add_edge(p2, m1, "PLAYED_IN", props([("minutes", Value::Int(45))]));
        g.add_edge(p1, m2, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        g.add_edge(p1, m1, "SCORED_GOAL", props([("minute", Value::Int(23))]));
        g.add_edge(p1, m1, "SCORED_GOAL", props([("minute", Value::Int(67))]));
        g
    }

    #[test]
    fn count_all_nodes() {
        let g = football();
        let rs = execute(&g, "MATCH (n) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(5));
    }

    #[test]
    fn count_by_label() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn directed_match_respects_direction() {
        let g = football();
        let right =
            execute(&g, "MATCH (m:Match)-[:IN_TOURNAMENT]->(t:Tournament) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(right.single_int(), Some(2));
        // The paper's wrong-direction query returns 0, silently.
        let wrong =
            execute(&g, "MATCH (t:Tournament)-[:IN_TOURNAMENT]->(m:Match) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(wrong.single_int(), Some(0));
    }

    #[test]
    fn incoming_arrow_equivalent() {
        let g = football();
        let rs =
            execute(&g, "MATCH (t:Tournament)<-[:IN_TOURNAMENT]-(m:Match) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn undirected_match_counts_each_edge_once() {
        let g = football();
        let rs = execute(&g, "MATCH (a)-[:IN_TOURNAMENT]-(b) RETURN COUNT(*) AS c").unwrap();
        // Each of the 2 edges matches in both orientations: 4 rows.
        assert_eq!(rs.single_int(), Some(4));
    }

    #[test]
    fn where_filters() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn grouped_aggregation() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) \
             WITH p.name AS name, COUNT(*) AS games \
             WHERE games > 1 RETURN name, games",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Ada"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn collect_and_size() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[sg:SCORED_GOAL]->(m:Match) \
             WITH m.id AS mid, p.name AS name, COLLECT(DISTINCT sg.minute) AS minutes \
             WHERE SIZE(minutes) > 1 RETURN mid, name, minutes",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("m1"));
    }

    #[test]
    fn hallucinated_property_runs_but_finds_nothing() {
        let g = football();
        // `penaltyScore` does not exist — query runs, count is 0.
        let rs =
            execute(&g, "MATCH (m:Match) WHERE m.penaltyScore > 0 RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(0));
    }

    #[test]
    fn optional_match_pads_with_null() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person) OPTIONAL MATCH (p)-[:SCORED_GOAL]->(m:Match) \
             RETURN p.name AS name, COUNT(m) AS goals ORDER BY name",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::from("Ada"), Value::Int(2)]);
        assert_eq!(rs.rows[1], vec![Value::from("Bea"), Value::Int(0)]);
    }

    #[test]
    fn relationship_uniqueness_within_clause() {
        let g = football();
        // Two SCORED_GOAL edges from Ada to m1: a two-step pattern
        // through distinct rels must not reuse one edge twice.
        let rs = execute(
            &g,
            "MATCH (a:Person)-[r1:SCORED_GOAL]->(m:Match)<-[r2:SCORED_GOAL]-(b:Person) \
             RETURN COUNT(*) AS c",
        )
        .unwrap();
        // Ordered pairs of distinct edges: 2 permutations.
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn relationship_uniqueness_is_per_clause() {
        let g = football();
        // Separate clauses may bind the same edge: 3 × 3 pairs, and
        // each played-in row finds at least its own edge again.
        let rs = execute(
            &g,
            "MATCH (a:Person)-[r:PLAYED_IN]->(m:Match) MATCH (b:Person)-[s:PLAYED_IN]->(n:Match) \
             RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(9));
        let rs = execute(
            &g,
            "MATCH (a:Person)-[:PLAYED_IN]->(m:Match) \
             OPTIONAL MATCH (b:Person)-[:PLAYED_IN]->(m) RETURN COUNT(b) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(5));
    }

    #[test]
    fn distinct_return() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN DISTINCT p.name AS n ORDER BY n",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_skip_limit() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match) RETURN m.id AS id ORDER BY id DESC SKIP 1 LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("m1")]]);
    }

    #[test]
    fn global_count_over_empty_match_is_zero() {
        let g = football();
        let rs = execute(&g, "MATCH (x:Ghost) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(0));
    }

    #[test]
    fn multiple_patterns_in_one_match() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match), (m)-[:IN_TOURNAMENT]->(t:Tournament) \
             RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(3));
    }

    #[test]
    fn unwind_expands_lists() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (m:Match) WITH COLLECT(m.id) AS ids UNWIND ids AS id RETURN id ORDER BY id",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn property_map_filter_in_pattern() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match {id: 'm1'}) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    #[test]
    fn regex_in_where() {
        let g = football();
        let rs = execute(
            &g,
            r"MATCH (m:Match) WHERE m.date =~ '\d{4}-\d{2}-\d{2}' RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn with_requires_alias_for_expressions() {
        let g = football();
        let err = execute(&g, "MATCH (m:Match) WITH m.id RETURN COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn return_without_match() {
        let g = football();
        let rs = execute(&g, "RETURN 1 + 1 AS two").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn reused_variable_joins() {
        let g = football();
        // `m` reused across two clauses is a join, not a new scan.
        let rs = execute(
            &g,
            "MATCH (p:Person {name: 'Ada'})-[:SCORED_GOAL]->(m) \
             MATCH (m)-[:IN_TOURNAMENT]->(t:Tournament) \
             RETURN COUNT(DISTINCT m.id) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    #[test]
    fn variable_length_chain() {
        // a -> b -> c -> d linear chain.
        let mut g = PropertyGraph::new();
        let ids: Vec<_> =
            (0..4i64).map(|i| g.add_node(["N"], props([("id", Value::Int(i))]))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], "NEXT", Default::default());
        }
        // Reachable in 1..3 hops from the head: b, c, d.
        let rs =
            execute(&g, "MATCH (a:N {id: 0})-[:NEXT*1..3]->(b:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(3));
        // Exactly 2 hops: just c.
        let rs = execute(&g, "MATCH (a:N {id: 0})-[:NEXT*2]->(b:N) RETURN b.id AS id").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
        // Unbounded star covers the whole chain.
        let rs = execute(&g, "MATCH (a:N {id: 0})-[:NEXT*]->(b:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(3));
    }

    #[test]
    fn variable_length_zero_hops_binds_self() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        g.add_edge(a, b, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (a:N {id: 0})-[:NEXT*0..1]->(b:N) RETURN COUNT(*) AS c").unwrap();
        // Zero hops (a itself) + one hop (b).
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_respects_edge_uniqueness_in_cycles() {
        // A 2-cycle: a <-> b. Paths from a of length ≤4 without edge
        // reuse: a->b (1 hop), a->b->a (2 hops). No longer paths.
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        g.add_edge(a, b, "NEXT", Default::default());
        g.add_edge(b, a, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (x:N {id: 0})-[:NEXT*1..4]->(y:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_incoming_direction() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        let c = g.add_node(["N"], props([("id", Value::Int(2))]));
        g.add_edge(a, b, "NEXT", Default::default());
        g.add_edge(b, c, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (x:N {id: 2})<-[:NEXT*1..2]-(y:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_rejects_variable_binding() {
        let mut g = PropertyGraph::new();
        g.add_node(["N"], props([("id", Value::Int(0))]));
        let err = execute(&g, "MATCH (a:N)-[r:NEXT*1..2]->(b) RETURN COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn self_loop_undirected_matches_once() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["U"], props([("id", Value::Int(1))]));
        g.add_edge(a, a, "FOLLOWS", Default::default());
        let rs = execute(&g, "MATCH (x:U)-[:FOLLOWS]-(y) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    #[test]
    fn list_values_do_not_collide_in_distinct_and_grouping() {
        let g = PropertyGraph::new();
        // One string holding `,` and `s:` is not two strings.
        let rs = execute(&g, "UNWIND [['a,s:b'], ['a','b']] AS x RETURN COUNT(DISTINCT x) AS c")
            .unwrap();
        assert_eq!(rs.single_int(), Some(2));
        let rs =
            execute(&g, "UNWIND [['a,s:b'], ['a','b']] AS x RETURN x AS x, COUNT(*) AS c").unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows.iter().all(|r| r[1] == Value::Int(1)), "{:?}", rs.rows);
    }

    #[test]
    fn row_keys_do_not_collide_across_columns() {
        // (`x␁s:y`, `z`) and (`x`, `y␁s:z`) are different rows even
        // though their columns joined with `␁` read alike.
        let mut g = PropertyGraph::new();
        g.add_node(["N"], props([("a", Value::from("x\u{1}s:y")), ("b", Value::from("z"))]));
        g.add_node(["N"], props([("a", Value::from("x")), ("b", Value::from("y\u{1}s:z"))]));
        let rs = execute(&g, "MATCH (n:N) RETURN DISTINCT n.a AS a, n.b AS b").unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs =
            execute(&g, "MATCH (n:N) WITH n.a AS a, n.b AS b, COUNT(*) AS c RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn errors_only_when_a_row_reaches_them() {
        let g = football();
        // No Ghost rows: the unknown variables and the bound
        // variable-length relationship are never evaluated.
        assert!(execute(&g, "MATCH (x:Ghost) RETURN y.id AS id").unwrap().is_empty());
        assert!(execute(&g, "MATCH (x:Ghost) RETURN x.id AS id ORDER BY nope").unwrap().is_empty());
        let q = "MATCH (x:Ghost)-[r:PLAYED_IN*1..2]->(b) RETURN COUNT(*) AS c";
        assert_eq!(execute(&g, q).unwrap().single_int(), Some(0));
        // A clause that cannot run fails even over no rows.
        assert!(execute(&g, "MATCH (x:Ghost) WITH x.id RETURN COUNT(*) AS c").is_err());
        assert!(execute(&g, "MATCH (x:Ghost) RETURN COUNT(*) + 1 AS c").is_err());
        assert!(execute(&g, "MATCH (p:Person) RETURN y.id AS id").is_err());
    }

    // -- PROFILE ------------------------------------------------------

    use crate::profile::{PlanNode, QueryProfile};

    fn profiled(g: &PropertyGraph, src: &str) -> (ResultSet, QueryProfile) {
        execute_profiled(g, src).unwrap()
    }

    fn op<'a>(profile: &'a QueryProfile, name: &str) -> &'a PlanNode {
        fn find<'a>(n: &'a PlanNode, name: &str) -> Option<&'a PlanNode> {
            if n.op == name {
                return Some(n);
            }
            n.children.iter().find_map(|c| find(c, name))
        }
        find(&profile.root, name)
            .unwrap_or_else(|| panic!("operator {name} not in plan:\n{}", profile.render()))
    }

    #[test]
    fn profiled_results_match_unprofiled() {
        let g = football();
        for q in [
            "MATCH (n) RETURN COUNT(*) AS c",
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 \
             RETURN p.name AS n ORDER BY n",
            "MATCH (m:Match) WITH m.date AS d RETURN DISTINCT d ORDER BY d DESC LIMIT 1",
        ] {
            let plain = execute(&g, q).unwrap();
            let (rs, profile) = profiled(&g, q);
            assert_eq!(rs, plain, "query: {q}");
            assert_eq!(profile.rows, rs.len() as u64, "query: {q}");
        }
    }

    #[test]
    fn profiled_label_scan_charges_node_hits() {
        let g = football();
        let (rs, profile) = profiled(&g, "MATCH (m:Match) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let scan = op(&profile, "NodeByLabelScan");
        assert_eq!(scan.db_hits.nodes, 2);
        assert_eq!(scan.rows, 2);
        assert_eq!(profile.root.op, "ProduceResults");
        assert_eq!(profile.root.rows, 1);
        // Aggregation sits between the scan and the result.
        let agg = op(&profile, "EagerAggregation");
        assert_eq!(agg.rows_in, 2);
        assert_eq!(agg.rows, 1);
    }

    #[test]
    fn profiled_expand_and_filter_attribute_hits_per_operator() {
        let g = football();
        let (rs, profile) = profiled(
            &g,
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 RETURN p.name AS n",
        );
        assert_eq!(rs.len(), 2);
        // Scan enumerates both Person nodes.
        let scan = op(&profile, "NodeByLabelScan");
        assert_eq!(scan.db_hits.nodes, 2);
        assert_eq!(scan.rows, 2);
        // Expand examines all 5 out-edges of the two people (type
        // filtering happens after the candidates are materialised)
        // and produces the 3 PLAYED_IN bindings.
        let expand = op(&profile, "Expand");
        assert_eq!(expand.db_hits.edges, 5);
        assert_eq!(expand.rows, 3);
        // The WHERE filter reads r.minutes once per candidate row and
        // keeps the two 90-minute appearances.
        let filter = op(&profile, "Filter");
        assert_eq!(filter.rows_in, 3);
        assert_eq!(filter.db_hits.props, 3);
        assert_eq!(filter.rows, 2);
        // RETURN projection reads p.name per surviving row.
        let proj = op(&profile, "Projection");
        assert_eq!(proj.db_hits.props, 2);
        assert_eq!(profile.db_hits().total(), 2 + 5 + 3 + 2);
    }

    #[test]
    fn profiled_reversed_pattern_resolves_scan_at_runtime() {
        let g = football();
        // Written start is unlabelled (cost 5); the Tournament end
        // (cost 1) wins, so the scan slot must resolve to a label
        // scan of the *end* pattern and the expand walks in-edges.
        let (rs, profile) =
            profiled(&g, "MATCH (n)-[:IN_TOURNAMENT]->(t:Tournament) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let scan = op(&profile, "NodeByLabelScan");
        assert!(scan.detail.contains("Tournament"), "detail: {}", scan.detail);
        assert_eq!(scan.db_hits.nodes, 1);
        let expand = op(&profile, "Expand");
        assert_eq!(expand.db_hits.edges, 2);
        assert_eq!(expand.rows, 2);
    }

    #[test]
    fn profiled_plan_ops_paths_are_rooted_and_self_times_bounded() {
        let g = football();
        let (_, profile) = profiled(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN m.date AS d ORDER BY d LIMIT 1",
        );
        let ops = profile.plan_ops();
        assert_eq!(ops[0].path, "ProduceResults");
        assert!(ops.iter().skip(1).all(|o| o.path.starts_with("ProduceResults/")));
        let chain: Vec<&str> = ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(
            chain,
            ["ProduceResults", "Limit", "Sort", "Projection", "Expand", "NodeByLabelScan"]
        );
        // The switch protocol partitions wall-clock time: per-operator
        // self-times can never sum past the inclusive total.
        let self_sum: u64 = ops.iter().map(|o| o.self_us).sum();
        assert!(self_sum <= profile.total_us, "{self_sum} > {}", profile.total_us);
        assert_eq!(profile.sim_us, ops.iter().map(|o| o.db_hits() + o.rows).sum::<u64>());
    }

    #[test]
    fn profiled_var_length_walks_charge_the_one_slot() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["U"], props([("id", Value::Int(1))]));
        let b = g.add_node(["U"], props([("id", Value::Int(2))]));
        let c = g.add_node(["U"], props([("id", Value::Int(3))]));
        g.add_edge(a, b, "FOLLOWS", Default::default());
        g.add_edge(b, c, "FOLLOWS", Default::default());
        let (rs, profile) =
            profiled(&g, "MATCH (x:U {id: 1})-[:FOLLOWS*1..2]->(y) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let var = op(&profile, "VarLengthExpand");
        assert_eq!(var.rows, 2);
        assert!(var.db_hits.edges >= 2);
    }
}
