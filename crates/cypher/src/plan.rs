//! Query compilation: from an AST to a slot-compiled operator plan.
//!
//! Every binding site of the query — a pattern variable, a projected
//! column, an UNWIND variable, an aggregate result — gets its own
//! slot in one flat row, so the executor reuses a single row for the
//! whole run and never overwrites a slot an upstream operator may
//! still read. Variables resolve to slots here, against exactly the
//! bindings visible at each point (a pattern's property map sees the
//! variables bound before it, ORDER BY sees the RETURN columns), and
//! whatever is an error only at run time compiles to a node that
//! raises it when reached.
//!
//! Compilation also makes the per-graph decisions the executor used
//! to make per row: which end of each path pattern to enumerate (the
//! optimizer's `should_reverse` cost model, over the variables bound
//! at that point), and which scan that is. A plan is therefore tied
//! to the graph it was compiled against, which is why the
//! [`crate::BatchSession`] plan cache keys plans on the graph epoch.

use std::ops::Range;

use grm_pgraph::PropertyGraph;

use crate::ast::*;
use crate::error::CypherError;
use crate::eval::{compile_expr, CExpr, Scope};
use crate::optimizer::should_reverse;
use crate::profile::OpInfo;

/// Hop ceiling for unbounded variable-length patterns (`*`, `*2..`).
/// Neo4j has no hard limit but warns above similar depths; the rule
/// queries this engine serves never need longer chains.
const MAX_VAR_HOPS: u32 = 16;

/// How a pattern variable is used where it appears.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarUse {
    Anon,
    /// First appearance: bind the element to this slot.
    Bind(usize),
    /// Already bound: the element must be the one in this slot.
    Check(usize),
}

/// The label / property / variable conditions on one node pattern.
#[derive(Debug, Clone)]
pub(crate) struct NodeCheck {
    pub(crate) labels: Vec<String>,
    pub(crate) props: Vec<(String, CExpr)>,
    pub(crate) var: VarUse,
}

/// How a path pattern's first node is enumerated.
#[derive(Debug, Clone)]
pub(crate) enum Scan {
    /// The variable is already bound: re-check that one node.
    Argument(usize),
    Label(String),
    All,
}

#[derive(Debug, Clone)]
pub(crate) enum StepKind {
    Single(VarUse),
    VarLength {
        min: u32,
        max: u32,
    },
    /// A variable on a variable-length relationship: an error once a
    /// row reaches the step.
    Fail(CypherError),
}

/// One relationship hop of a path, in executed order.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) op: usize,
    pub(crate) dir: Direction,
    pub(crate) types: Vec<String>,
    pub(crate) props: Vec<(String, CExpr)>,
    pub(crate) kind: StepKind,
    pub(crate) node: NodeCheck,
}

/// A linear path pattern as executed (possibly end-to-start).
#[derive(Debug, Clone)]
pub(crate) struct Path {
    pub(crate) scan_op: usize,
    pub(crate) scan: Scan,
    pub(crate) start: NodeCheck,
    pub(crate) steps: Vec<Step>,
}

#[derive(Debug, Clone)]
pub(crate) struct MatchOp {
    pub(crate) optional: bool,
    pub(crate) paths: Vec<Path>,
    pub(crate) filter: Option<(CExpr, usize)>,
    /// Slots this clause binds, nulled on an OPTIONAL miss.
    pub(crate) pad: Range<usize>,
}

/// A projected item: a bare variable keeps its graph-element binding;
/// anything else is materialised to a value.
#[derive(Debug, Clone)]
pub(crate) enum Item {
    Var(usize),
    Expr(CExpr),
}

#[derive(Debug, Clone)]
pub(crate) struct ProjectOp {
    pub(crate) op: usize,
    pub(crate) items: Vec<(Item, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFn {
    CountStar,
    Count,
    Collect,
    Sum,
    Avg,
    Min,
    Max,
}

/// One aggregate item. `Err` holds the error its finalisation raises
/// (a missing argument, an unknown aggregate); the argument, if any,
/// is still evaluated per row.
#[derive(Debug, Clone)]
pub(crate) struct AggSpec {
    pub(crate) func: Result<AggFn, CypherError>,
    pub(crate) distinct: bool,
    pub(crate) arg: Option<CExpr>,
}

#[derive(Debug, Clone)]
pub(crate) struct AggregateOp {
    pub(crate) op: usize,
    /// Grouping items and their output slots.
    pub(crate) keys: Vec<(Item, usize)>,
    pub(crate) aggs: Vec<(AggSpec, usize)>,
}

#[derive(Debug, Clone)]
pub(crate) struct SortOp {
    pub(crate) op: usize,
    pub(crate) keys: Vec<(CExpr, bool)>,
}

#[derive(Debug, Clone)]
pub(crate) struct ReturnOp {
    /// The slot of each result column.
    pub(crate) columns: Vec<usize>,
    pub(crate) sort: Option<SortOp>,
    pub(crate) skip: u64,
    pub(crate) limit: u64,
    pub(crate) window_op: Option<usize>,
    pub(crate) root: usize,
}

/// One operator of the pipeline. Rows are pushed from each operator
/// into the next.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Match(MatchOp),
    Project(ProjectOp),
    /// Blocking: emits its groups when flushed.
    Aggregate(AggregateOp),
    Filter(CExpr, usize),
    Distinct(Range<usize>, usize),
    Unwind(CExpr, usize, usize),
    /// Blocking when sorted.
    Return(ReturnOp),
    /// A clause the query cannot run (e.g. an unaliased WITH
    /// expression): the clauses before it run, then this fails.
    Fail(CypherError),
}

/// A query compiled against one graph, ready to execute any number of
/// times. This is what the [`crate::QueryPlanCache`] stores.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) ops: Vec<Op>,
    /// Operator slots, in execution order (the profile's plan chain).
    pub(crate) layout: Vec<OpInfo>,
    pub(crate) slots: usize,
    pub(crate) columns: Vec<String>,
}

/// Operator slots of one clause, allocated in the order the profile's
/// plan chain lists them.
enum ClauseOps {
    Match { paths: Vec<(usize, Vec<usize>)>, filter: Option<usize> },
    With { projection: usize, filter: Option<usize>, distinct: Option<usize> },
    Unwind(usize),
}

struct RetOps {
    projection: usize,
    distinct: Option<usize>,
    sort: Option<usize>,
    window: Option<usize>,
    root: usize,
}

fn join_items(items: &[ProjItem]) -> String {
    items.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

fn projection_name(items: &[ProjItem]) -> &'static str {
    if items.iter().any(|i| i.expr.contains_aggregate()) {
        "EagerAggregation"
    } else {
        "Projection"
    }
}

/// The error a projection raises before it reads a row, if any:
/// WITH requires `expr AS name` for non-variables, and aggregates
/// must be top-level calls.
fn projection_error(items: &[ProjItem], require_alias: bool) -> Option<CypherError> {
    for item in items {
        if require_alias && item.alias.is_none() && !matches!(item.expr, Expr::Var(_)) {
            return Some(CypherError::semantic(format!(
                "expression `{}` in WITH must be aliased",
                item.expr
            )));
        }
    }
    items
        .iter()
        .find(|i| i.expr.contains_aggregate() && !matches!(i.expr, Expr::FnCall { .. }))
        .map(|item| {
            CypherError::semantic(format!(
                "aggregate must be a top-level function call, got `{}`",
                item.expr
            ))
        })
}

struct Compiler<'g> {
    graph: &'g PropertyGraph,
    describe: bool,
    layout: Vec<OpInfo>,
    slots: usize,
}

impl Compiler<'_> {
    /// A new operator slot; its detail is rendered only for plans
    /// that will be profiled.
    fn op(&mut self, name: &'static str, detail: impl FnOnce() -> String) -> usize {
        let detail = if self.describe { detail() } else { String::new() };
        self.layout.push(OpInfo { name, detail, resolved: None });
        self.layout.len() - 1
    }

    fn slot(&mut self) -> usize {
        self.slots += 1;
        self.slots - 1
    }

    /// Allocates every operator slot of `query`, in execution order
    /// (deepest leaf first, `ProduceResults` last).
    fn layout(&mut self, query: &Query) -> (Vec<ClauseOps>, RetOps) {
        let mut clauses = Vec::new();
        for clause in &query.clauses {
            clauses.push(match clause {
                Clause::Match { patterns, where_clause, .. } => ClauseOps::Match {
                    paths: patterns
                        .iter()
                        .map(|p| {
                            let scan_name = if p.start.labels.is_empty() {
                                "AllNodesScan"
                            } else {
                                "NodeByLabelScan"
                            };
                            let scan = self.op(scan_name, || p.start.to_string());
                            let steps = p
                                .steps
                                .iter()
                                .map(|(rel, node)| {
                                    let name = if rel.length.is_some() {
                                        "VarLengthExpand"
                                    } else {
                                        "Expand"
                                    };
                                    self.op(name, || format!("{rel}{node}"))
                                })
                                .collect();
                            (scan, steps)
                        })
                        .collect(),
                    filter: where_clause.as_ref().map(|w| self.op("Filter", || w.to_string())),
                },
                Clause::With { distinct, items, where_clause } => ClauseOps::With {
                    projection: self.op(projection_name(items), || join_items(items)),
                    filter: where_clause.as_ref().map(|w| self.op("Filter", || w.to_string())),
                    distinct: distinct.then(|| self.op("Distinct", || join_items(items))),
                },
                Clause::Unwind { expr, var } => {
                    ClauseOps::Unwind(self.op("Unwind", || format!("{expr} AS {var}")))
                }
            });
        }
        let ret = &query.ret;
        let ret_ops = RetOps {
            projection: self.op(projection_name(&ret.items), || join_items(&ret.items)),
            distinct: ret.distinct.then(|| self.op("Distinct", || join_items(&ret.items))),
            sort: (!ret.order_by.is_empty()).then(|| {
                self.op("Sort", || {
                    ret.order_by
                        .iter()
                        .map(|o| format!("{}{}", o.expr, if o.descending { " DESC" } else { "" }))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
            }),
            window: (ret.skip.is_some() || ret.limit.is_some()).then(|| {
                let name = if ret.limit.is_some() { "Limit" } else { "Skip" };
                self.op(name, || {
                    let mut parts = Vec::new();
                    if let Some(s) = ret.skip {
                        parts.push(format!("SKIP {s}"));
                    }
                    if let Some(l) = ret.limit {
                        parts.push(format!("LIMIT {l}"));
                    }
                    parts.join(" ")
                })
            }),
            root: self.op("ProduceResults", || {
                ret.items.iter().map(ProjItem::name).collect::<Vec<_>>().join(", ")
            }),
        };
        (clauses, ret_ops)
    }

    /// Compiles a node pattern's conditions; its property map sees the
    /// variables bound before it, then its variable joins the scope.
    fn node_check(&mut self, n: &NodePattern, labels: &[String], scope: &mut Scope) -> NodeCheck {
        let props = n.props.iter().map(|(k, e)| (k.clone(), compile_expr(e, scope))).collect();
        let var = self.var_use(n.var.as_deref(), scope);
        NodeCheck { labels: labels.to_vec(), props, var }
    }

    fn var_use(&mut self, var: Option<&str>, scope: &mut Scope) -> VarUse {
        match var {
            None => VarUse::Anon,
            Some(v) => match scope.get(v) {
                Some(slot) => VarUse::Check(slot),
                None => {
                    let slot = self.slot();
                    scope.bind(v, slot);
                    VarUse::Bind(slot)
                }
            },
        }
    }

    fn path(
        &mut self,
        p: &PathPattern,
        (scan_op, step_ops): &(usize, Vec<usize>),
        scope: &mut Scope,
    ) -> Path {
        // Begin at whichever end is cheaper to enumerate — a bound
        // variable beats a label scan beats a full scan. The decision
        // is the optimizer's, so on a pre-reversed plan its strict `<`
        // answers no and the two layers never fight.
        let is_bound = |v: &str| scope.get(v).is_some();
        let reversed = should_reverse(self.graph, &is_bound, p);
        let reversed_p;
        let p = if reversed {
            reversed_p = p.reversed();
            &reversed_p
        } else {
            p
        };
        let (scan, scan_name, checked_labels) =
            match p.start.var.as_deref().and_then(|v| scope.get(v)) {
                Some(slot) => (Scan::Argument(slot), "Argument", &p.start.labels[..]),
                None => match p.start.labels.split_first() {
                    // The index scan guarantees the first label.
                    Some((first, rest)) => (Scan::Label(first.clone()), "NodeByLabelScan", rest),
                    None => (Scan::All, "AllNodesScan", &[][..]),
                },
            };
        if self.describe {
            self.layout[*scan_op].resolved = Some((scan_name, p.start.to_string()));
        }
        let start = self.node_check(&p.start, checked_labels, scope);
        let mut steps = Vec::with_capacity(p.steps.len());
        for (k, (rel, node)) in p.steps.iter().enumerate() {
            // Step slots are addressed in written order.
            let op = step_ops[if reversed { p.steps.len() - 1 - k } else { k }];
            let props =
                rel.props.iter().map(|(k, e)| (k.clone(), compile_expr(e, scope))).collect();
            let kind = match (rel.length, &rel.var) {
                (Some(_), Some(_)) => StepKind::Fail(CypherError::semantic(
                    "variable binding on variable-length relationships is not supported",
                )),
                (Some((min, max)), None) => {
                    StepKind::VarLength { min, max: max.unwrap_or(MAX_VAR_HOPS).min(MAX_VAR_HOPS) }
                }
                (None, var) => StepKind::Single(self.var_use(var.as_deref(), scope)),
            };
            let node = self.node_check(node, &node.labels, scope);
            steps.push(Step {
                op,
                dir: rel.direction,
                types: rel.types.clone(),
                props,
                kind,
                node,
            });
        }
        Path { scan_op: *scan_op, scan, start, steps }
    }

    /// Compiles a projection (plain or aggregating) over `scope`;
    /// returns the operator, the scope of its output columns, and the
    /// (consecutive) slots they occupy.
    fn projection(
        &mut self,
        items: &[ProjItem],
        scope: &Scope,
        op: usize,
    ) -> (Op, Scope, Range<usize>) {
        let first = self.slots;
        let mut out = Scope::default();
        let mut slots = Vec::with_capacity(items.len());
        for item in items {
            let name = item.name();
            let slot = match out.get(&name) {
                Some(slot) => slot,
                None => {
                    let slot = self.slot();
                    out.bind(&name, slot);
                    slot
                }
            };
            slots.push(slot);
        }
        let item = |expr: &Expr| match expr {
            Expr::Var(name) => {
                scope.get(name).map_or_else(|| Item::Expr(compile_expr(expr, scope)), Item::Var)
            }
            e => Item::Expr(compile_expr(e, scope)),
        };
        let columns = first..self.slots;
        if !items.iter().any(|i| i.expr.contains_aggregate()) {
            let items = items.iter().zip(slots).map(|(i, s)| (item(&i.expr), s)).collect();
            return (Op::Project(ProjectOp { op, items }), out, columns);
        }
        let mut keys = Vec::new();
        let mut aggs = Vec::new();
        for (i, slot) in items.iter().zip(slots) {
            if !i.expr.contains_aggregate() {
                keys.push((item(&i.expr), slot));
                continue;
            }
            let Expr::FnCall { name, distinct, star, args } = &i.expr else {
                unreachable!("projection_error rejects nested aggregates");
            };
            let arg = (!star).then(|| args.first().map(|a| compile_expr(a, scope))).flatten();
            let func = match (star, name.as_str(), &arg) {
                (true, _, _) => Ok(AggFn::CountStar),
                (false, _, None) => {
                    Err(CypherError::semantic(format!("{name}() aggregate requires an argument")))
                }
                (false, "count", _) => Ok(AggFn::Count),
                (false, "collect", _) => Ok(AggFn::Collect),
                (false, "sum", _) => Ok(AggFn::Sum),
                (false, "avg", _) => Ok(AggFn::Avg),
                (false, "min", _) => Ok(AggFn::Min),
                (false, "max", _) => Ok(AggFn::Max),
                (false, other, _) => {
                    Err(CypherError::semantic(format!("unknown aggregate `{other}`")))
                }
            };
            aggs.push((AggSpec { func, distinct: *distinct, arg }, slot));
        }
        (Op::Aggregate(AggregateOp { op, keys, aggs }), out, columns)
    }
}

impl Plan {
    /// Compiles `query` against `graph`. `describe` renders the
    /// operator details a profile reports; plans that are never
    /// profiled skip that formatting.
    pub(crate) fn compile(query: &Query, graph: &PropertyGraph, describe: bool) -> Plan {
        let mut c = Compiler { graph, describe, layout: Vec::new(), slots: 0 };
        let (clause_ops, ret_ops) = c.layout(query);
        let mut ops = Vec::new();
        let mut scope = Scope::default();
        let columns: Vec<String> = query.ret.items.iter().map(ProjItem::name).collect();
        let done = |c: Compiler<'_>, ops| Plan {
            ops,
            layout: c.layout,
            slots: c.slots,
            columns: columns.clone(),
        };
        for (clause, slots) in query.clauses.iter().zip(&clause_ops) {
            match (clause, slots) {
                (
                    Clause::Match { optional, patterns, where_clause },
                    ClauseOps::Match { paths, filter },
                ) => {
                    let first = c.slots;
                    let paths = patterns
                        .iter()
                        .zip(paths)
                        .map(|(p, ops)| c.path(p, ops, &mut scope))
                        .collect();
                    let filter = where_clause.as_ref().map(|w| {
                        (compile_expr(w, &scope), filter.expect("Filter slot for MATCH WHERE"))
                    });
                    ops.push(Op::Match(MatchOp {
                        optional: *optional,
                        paths,
                        filter,
                        pad: first..c.slots,
                    }));
                }
                (
                    Clause::With { distinct, items, where_clause },
                    ClauseOps::With { projection, filter, distinct: distinct_op },
                ) => {
                    if let Some(err) = projection_error(items, true) {
                        ops.push(Op::Fail(err));
                        return done(c, ops);
                    }
                    let (op, out, columns) = c.projection(items, &scope, *projection);
                    scope = out;
                    ops.push(op);
                    if let Some(w) = where_clause {
                        let op = filter.expect("Filter slot for WITH WHERE");
                        ops.push(Op::Filter(compile_expr(w, &scope), op));
                    }
                    if *distinct {
                        let op = distinct_op.expect("Distinct slot for WITH DISTINCT");
                        ops.push(Op::Distinct(columns, op));
                    }
                }
                (Clause::Unwind { expr, var }, ClauseOps::Unwind(op)) => {
                    let expr = compile_expr(expr, &scope);
                    let slot = c.slot();
                    scope.bind(var, slot);
                    ops.push(Op::Unwind(expr, slot, *op));
                }
                _ => unreachable!("layout follows the clauses"),
            }
        }
        let ret = &query.ret;
        if let Some(err) = projection_error(&ret.items, false) {
            ops.push(Op::Fail(err));
            return done(c, ops);
        }
        let (op, out, columns) = c.projection(&ret.items, &scope, ret_ops.projection);
        ops.push(op);
        if let Some(op) = ret_ops.distinct {
            ops.push(Op::Distinct(columns, op));
        }
        let sort = ret_ops.sort.map(|op| SortOp {
            op,
            keys: ret
                .order_by
                .iter()
                .map(|o| (compile_expr(&o.expr, &out), o.descending))
                .collect(),
        });
        let cells =
            ret.items.iter().map(|i| out.get(&i.name()).expect("projected column")).collect();
        ops.push(Op::Return(ReturnOp {
            columns: cells,
            sort,
            skip: ret.skip.unwrap_or(0),
            limit: ret.limit.unwrap_or(u64::MAX),
            window_op: ret_ops.window,
            root: ret_ops.root,
        }));
        done(c, ops)
    }
}
