//! Expression compilation and evaluation with Cypher's three-valued
//! logic.
//!
//! `NULL` propagates through comparisons and arithmetic, `AND`/`OR`
//! follow Kleene logic, and property access on an element that lacks
//! the key yields `NULL` rather than an error — this last point is
//! what makes a *hallucinated property* (paper §4.4, error class 2)
//! produce an empty-but-running query instead of a failure.
//!
//! An [`Expr`] compiles once per query into a `CExpr` whose
//! variables are slot indices into the executor's row, whose function
//! calls are resolved, and whose constant `=~` pattern is compiled.
//! Anything that is an error only when evaluated (an unknown
//! variable, a bad call) compiles to a node that raises it then, so a
//! query over an empty match still runs. Evaluation borrows: a
//! property read or a literal comes back as a reference into the
//! graph or the plan, and only computed values are owned.

use std::borrow::Cow;

use grm_pgraph::{EdgeId, NodeId, PropertyGraph, Value};

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::error::{CypherError, Result};
use crate::profile::Profiler;
use crate::regex::Regex;

/// What a variable may be bound to during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    Node(NodeId),
    Edge(EdgeId),
    Val(Value),
}

impl Binding {
    /// Projects the binding to a plain value (for result sets and
    /// grouping). Nodes/edges project to an opaque id string — the
    /// paper's rules only ever count or compare them.
    pub fn to_value(&self, g: &PropertyGraph) -> Value {
        match self {
            Binding::Node(id) => {
                let n = g.node(*id);
                Value::Str(format!("({}:{})", id, n.labels.join(":")))
            }
            Binding::Edge(id) => {
                let e = g.edge(*id);
                Value::Str(format!("[{}:{}]", id, e.label))
            }
            Binding::Val(v) => v.clone(),
        }
    }
}

static NULL: Value = Value::Null;

/// The variables visible at one point of a query, each with its row
/// slot. Later bindings of a name shadow earlier ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    vars: Vec<(String, usize)>,
}

impl Scope {
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    pub(crate) fn bind(&mut self, name: &str, slot: usize) {
        self.vars.push((name.to_owned(), slot));
    }
}

/// Scalar functions of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scalar {
    Size,
    ToString,
    ToLower,
    ToUpper,
    ToInteger,
    Abs,
    Coalesce,
    Exists,
}

/// A compiled expression.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Lit(Value),
    Var(usize),
    /// Raised when evaluated: an unknown variable, a bad call.
    Fail(CypherError),
    /// `var.key` on a bound variable.
    Prop {
        slot: usize,
        var: String,
        key: String,
    },
    /// `expr.key` on a computed value: only `NULL` passes.
    PropOf(Box<CExpr>),
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    /// `AND` / `OR` / `XOR`; both sides are always evaluated.
    Logic(BinOp, Box<CExpr>, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// `=~`, with the pattern compiled up front when it is a literal.
    Regex {
        subject: Box<CExpr>,
        pattern: Box<CExpr>,
        fixed: Option<std::result::Result<Regex, CypherError>>,
    },
    IsNull(Box<CExpr>, bool),
    In(Box<CExpr>, Box<CExpr>),
    List(Vec<CExpr>),
    Call(Scalar, Vec<CExpr>),
    /// `id(v)`, `labels(v)`, `type(v)`: defined on a bound variable
    /// only (`None` when the argument is anything else).
    Id(Option<usize>),
    Labels(Option<usize>),
    Type(Option<usize>),
}

fn unknown_var(name: &str) -> CExpr {
    CExpr::Fail(CypherError::semantic(format!("unknown variable `{name}`")))
}

fn regex_of(pat: &str) -> std::result::Result<Regex, CypherError> {
    Regex::new(pat).map_err(|e| CypherError::runtime(format!("invalid regex {pat:?}: {e}")))
}

/// Compiles `expr` against the variables of `scope`.
pub(crate) fn compile_expr(expr: &Expr, scope: &Scope) -> CExpr {
    let boxed = |e: &Expr| Box::new(compile_expr(e, scope));
    match expr {
        Expr::Literal(v) => CExpr::Lit(v.clone()),
        Expr::Var(name) => scope.get(name).map_or_else(|| unknown_var(name), CExpr::Var),
        Expr::Prop { base, key } => match base.as_ref() {
            Expr::Var(name) => match scope.get(name) {
                Some(slot) => CExpr::Prop { slot, var: name.clone(), key: key.clone() },
                None => unknown_var(name),
            },
            other => CExpr::PropOf(boxed(other)),
        },
        Expr::Unary { op: UnaryOp::Not, expr } => CExpr::Not(boxed(expr)),
        Expr::Unary { op: UnaryOp::Neg, expr } => CExpr::Neg(boxed(expr)),
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or | BinOp::Xor), lhs, rhs } => {
            CExpr::Logic(*op, boxed(lhs), boxed(rhs))
        }
        Expr::Binary { op: BinOp::Regex, lhs, rhs } => CExpr::Regex {
            subject: boxed(lhs),
            pattern: boxed(rhs),
            fixed: match rhs.as_ref() {
                Expr::Literal(Value::Str(pat)) => Some(regex_of(pat)),
                _ => None,
            },
        },
        Expr::Binary { op, lhs, rhs } => CExpr::Binary(*op, boxed(lhs), boxed(rhs)),
        Expr::IsNull { expr, negated } => CExpr::IsNull(boxed(expr), *negated),
        Expr::In { expr, list } => CExpr::In(boxed(expr), boxed(list)),
        Expr::List(items) => CExpr::List(items.iter().map(|e| compile_expr(e, scope)).collect()),
        Expr::ExistsProp(inner) => CExpr::Call(Scalar::Exists, vec![compile_expr(inner, scope)]),
        Expr::FnCall { name, args, star, .. } => compile_call(name, args, *star, scope),
    }
}

fn compile_call(name: &str, args: &[Expr], star: bool, scope: &Scope) -> CExpr {
    if star || crate::ast::is_aggregate_fn(name) {
        return CExpr::Fail(CypherError::semantic(format!(
            "aggregate function {name} not allowed in this context"
        )));
    }
    let scalar = match name {
        "size" | "length" => Scalar::Size,
        "tostring" => Scalar::ToString,
        "tolower" => Scalar::ToLower,
        "toupper" => Scalar::ToUpper,
        "tointeger" => Scalar::ToInteger,
        "abs" => Scalar::Abs,
        "exists" => Scalar::Exists,
        "coalesce" => {
            return CExpr::Call(
                Scalar::Coalesce,
                args.iter().map(|e| compile_expr(e, scope)).collect(),
            )
        }
        "id" | "labels" | "type" => {
            if args.len() != 1 {
                return arity_error(name, args.len());
            }
            let slot = match &args[0] {
                Expr::Var(v) => scope.get(v),
                _ => None,
            };
            return match name {
                "id" => CExpr::Id(slot),
                "labels" => CExpr::Labels(slot),
                _ => CExpr::Type(slot),
            };
        }
        other => return CExpr::Fail(CypherError::semantic(format!("unknown function `{other}`"))),
    };
    if args.len() != 1 {
        return arity_error(name, args.len());
    }
    CExpr::Call(scalar, vec![compile_expr(&args[0], scope)])
}

fn arity_error(name: &str, got: usize) -> CExpr {
    CExpr::Fail(CypherError::semantic(format!("{name}() expects 1 argument(s), got {got}")))
}

/// Evaluation context: the graph being queried, plus the profiler
/// when the query runs under `PROFILE` (property reads charge a
/// db-hit to the operator the caller names).
#[derive(Clone, Copy)]
pub(crate) struct Eval<'e> {
    pub(crate) graph: &'e PropertyGraph,
    pub(crate) prof: Option<&'e Profiler<'e>>,
}

impl<'e> Eval<'e> {
    /// Charges one property-map lookup to `op`.
    pub(crate) fn charge(&self, op: usize) {
        if let Some(p) = self.prof {
            p.hit_props(op, 1);
        }
    }

    /// Evaluates `expr` under `row`, charging property reads to `op`.
    pub(crate) fn eval<'r>(
        &self,
        expr: &'r CExpr,
        row: &'r [Binding],
        op: usize,
    ) -> Result<Cow<'r, Value>>
    where
        'e: 'r,
    {
        let ev = |e: &'r CExpr| self.eval(e, row, op);
        Ok(match expr {
            CExpr::Lit(v) => Cow::Borrowed(v),
            CExpr::Var(slot) => match &row[*slot] {
                Binding::Val(v) => Cow::Borrowed(v),
                b => Cow::Owned(b.to_value(self.graph)),
            },
            CExpr::Fail(e) => return Err(e.clone()),
            CExpr::Prop { slot, var, key } => match &row[*slot] {
                Binding::Node(id) => {
                    self.charge(op);
                    Cow::Borrowed(self.graph.node(*id).prop(key))
                }
                Binding::Edge(id) => {
                    self.charge(op);
                    Cow::Borrowed(self.graph.edge(*id).prop(key))
                }
                Binding::Val(Value::Null) => Cow::Borrowed(&NULL),
                Binding::Val(other) => {
                    return Err(CypherError::runtime(format!(
                        "property access on {} value `{var}`",
                        other.type_name()
                    )))
                }
            },
            CExpr::PropOf(base) => {
                let v = ev(base)?;
                if !v.is_null() {
                    return Err(CypherError::runtime(format!(
                        "property access on {} value",
                        v.type_name()
                    )));
                }
                Cow::Borrowed(&NULL)
            }
            CExpr::Not(e) => {
                Cow::Owned(ev(e)?.as_truth().map(|b| Value::Bool(!b)).unwrap_or(Value::Null))
            }
            CExpr::Neg(e) => Cow::Owned(match ev(e)?.as_ref() {
                Value::Int(i) => Value::Int(-i),
                Value::Float(f) => Value::Float(-f),
                Value::Null => Value::Null,
                other => {
                    return Err(CypherError::runtime(format!(
                        "cannot negate {}",
                        other.type_name()
                    )))
                }
            }),
            CExpr::Logic(op, lhs, rhs) => {
                // Kleene logic; both sides are evaluated (expressions
                // are side-effect free, and each read is a db-hit).
                let l = ev(lhs)?.as_truth();
                let r = ev(rhs)?.as_truth();
                let out = match (op, l, r) {
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
                    (BinOp::And, Some(true), Some(true)) => Some(true),
                    (BinOp::And, _, _) => None,
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
                    (BinOp::Or, Some(false), Some(false)) => Some(false),
                    (BinOp::Or, _, _) => None,
                    (BinOp::Xor, Some(a), Some(b)) => Some(a != b),
                    _ => None,
                };
                Cow::Owned(out.map(Value::Bool).unwrap_or(Value::Null))
            }
            CExpr::Binary(op, lhs, rhs) => {
                let l = ev(lhs)?;
                let r = ev(rhs)?;
                Cow::Owned(binary(*op, &l, &r)?)
            }
            CExpr::Regex { subject, pattern, fixed } => {
                let s = ev(subject)?;
                let p = ev(pattern)?;
                Cow::Owned(match (s.as_ref(), p.as_ref()) {
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Str(s), Value::Str(pat)) => Value::Bool(match fixed {
                        Some(re) => re.as_ref().map_err(Clone::clone)?.is_match(s),
                        None => regex_of(pat)?.is_match(s),
                    }),
                    // Neo4j raises a type error when `=~` is applied
                    // to a non-string subject.
                    (l, r) => {
                        return Err(CypherError::runtime(format!(
                            "=~ expects STRING operands, got {} and {}",
                            l.type_name(),
                            r.type_name()
                        )))
                    }
                })
            }
            CExpr::IsNull(e, negated) => Cow::Owned(Value::Bool(ev(e)?.is_null() != *negated)),
            CExpr::In(needle, list) => {
                let needle = ev(needle)?;
                let haystack = ev(list)?;
                Cow::Owned(match haystack.as_ref() {
                    Value::Null => Value::Null,
                    Value::List(items) => {
                        if needle.is_null() {
                            return Ok(Cow::Owned(Value::Null));
                        }
                        let mut saw_null = false;
                        let mut found = false;
                        for item in items {
                            match needle.cypher_eq(item) {
                                Some(true) => {
                                    found = true;
                                    break;
                                }
                                Some(false) => {}
                                None => saw_null = true,
                            }
                        }
                        if found {
                            Value::Bool(true)
                        } else if saw_null {
                            Value::Null
                        } else {
                            Value::Bool(false)
                        }
                    }
                    other => {
                        return Err(CypherError::runtime(format!(
                            "IN expects a list, got {}",
                            other.type_name()
                        )))
                    }
                })
            }
            CExpr::List(items) => Cow::Owned(Value::List(
                items.iter().map(|e| ev(e).map(Cow::into_owned)).collect::<Result<_>>()?,
            )),
            CExpr::Call(f, args) => self.call(*f, args, row, op)?,
            CExpr::Id(slot) => match slot.map(|s| &row[s]) {
                Some(Binding::Node(id)) => Cow::Owned(Value::Int(i64::from(id.0))),
                Some(Binding::Edge(id)) => Cow::Owned(Value::Int(i64::from(id.0))),
                _ => return Err(CypherError::runtime("id() expects a bound node or relationship")),
            },
            CExpr::Labels(slot) => match slot.map(|s| &row[s]) {
                Some(Binding::Node(id)) => Cow::Owned(Value::List(
                    self.graph.node(*id).labels.iter().map(|l| Value::Str(l.clone())).collect(),
                )),
                _ => return Err(CypherError::runtime("labels() expects a bound node")),
            },
            CExpr::Type(slot) => match slot.map(|s| &row[s]) {
                Some(Binding::Edge(id)) => {
                    Cow::Owned(Value::Str(self.graph.edge(*id).label.clone()))
                }
                _ => return Err(CypherError::runtime("type() expects a bound relationship")),
            },
        })
    }

    /// Boolean filter semantics: `NULL` and non-booleans filter out.
    pub(crate) fn truth(&self, expr: &CExpr, row: &[Binding], op: usize) -> Result<bool> {
        Ok(self.eval(expr, row, op)?.as_truth().unwrap_or(false))
    }

    /// True when `expr` is not `NULL` under `row`. A bound graph
    /// element is never `NULL`, so a bare variable is answered from
    /// its binding without rendering it.
    pub(crate) fn is_present(&self, expr: &CExpr, row: &[Binding], op: usize) -> Result<bool> {
        match expr {
            CExpr::Var(slot) => Ok(!matches!(row[*slot], Binding::Val(Value::Null))),
            e => Ok(!self.eval(e, row, op)?.is_null()),
        }
    }

    fn call<'r>(
        &self,
        f: Scalar,
        args: &'r [CExpr],
        row: &'r [Binding],
        op: usize,
    ) -> Result<Cow<'r, Value>>
    where
        'e: 'r,
    {
        if f == Scalar::Coalesce {
            for a in args {
                let v = self.eval(a, row, op)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Cow::Borrowed(&NULL));
        }
        let v = self.eval(&args[0], row, op)?;
        let type_error = |what: &str, v: &Value| {
            Err(CypherError::runtime(format!("{what}, got {}", v.type_name())))
        };
        Ok(Cow::Owned(match (f, v.as_ref()) {
            (Scalar::Exists, v) => Value::Bool(!v.is_null()),
            (_, Value::Null) => Value::Null,
            (Scalar::Size, Value::List(items)) => Value::Int(items.len() as i64),
            (Scalar::Size, Value::Str(s)) => Value::Int(s.chars().count() as i64),
            (Scalar::Size, other) => return type_error("size() expects LIST or STRING", other),
            (Scalar::ToString, Value::Str(_)) => return Ok(v),
            (Scalar::ToString, other) => Value::Str(other.to_string()),
            (Scalar::ToLower, Value::Str(s)) => Value::Str(s.to_lowercase()),
            (Scalar::ToLower, other) => return type_error("toLower() expects STRING", other),
            (Scalar::ToUpper, Value::Str(s)) => Value::Str(s.to_uppercase()),
            (Scalar::ToUpper, other) => return type_error("toUpper() expects STRING", other),
            (Scalar::ToInteger, Value::Int(i)) => Value::Int(*i),
            (Scalar::ToInteger, Value::Float(f)) => Value::Int(*f as i64),
            (Scalar::ToInteger, Value::Str(s)) => {
                s.trim().parse::<i64>().map(Value::Int).unwrap_or(Value::Null)
            }
            (Scalar::ToInteger, _) => Value::Null,
            (Scalar::Abs, Value::Int(i)) => Value::Int(i.abs()),
            (Scalar::Abs, Value::Float(f)) => Value::Float(f.abs()),
            (Scalar::Abs, other) => return type_error("abs() expects a number", other),
            (Scalar::Coalesce, _) => unreachable!("handled above"),
        }))
    }
}

/// A non-logical binary operator over evaluated operands.
fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq => Ok(l.cypher_eq(r).map(Value::Bool).unwrap_or(Value::Null)),
        Neq => Ok(l.cypher_eq(r).map(|b| Value::Bool(!b)).unwrap_or(Value::Null)),
        Lt | Le | Gt | Ge => Ok(match l.cypher_cmp(r) {
            None => Value::Null,
            Some(o) => Value::Bool(match op {
                Lt => o.is_lt(),
                Le => o.is_le(),
                Gt => o.is_gt(),
                _ => o.is_ge(),
            }),
        }),
        StartsWith | EndsWith | Contains => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(match op {
                StartsWith => a.starts_with(b.as_str()),
                EndsWith => a.ends_with(b.as_str()),
                _ => a.contains(b.as_str()),
            })),
            _ => Err(CypherError::runtime(format!(
                "{op:?} expects STRING operands, got {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        Add | Sub | Mul | Div | Mod | Pow => arith(l, r, op),
        And | Or | Xor | Regex => unreachable!("compiled to their own nodes"),
    }
}

fn arith(l: &Value, r: &Value, op: BinOp) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String / list concatenation with `+`.
    if op == Add {
        match (l, r) {
            (Value::Str(a), Value::Str(b)) => return Ok(Value::Str(format!("{a}{b}"))),
            (Value::Str(a), b) => return Ok(Value::Str(format!("{a}{b}"))),
            (a, Value::Str(b)) => return Ok(Value::Str(format!("{a}{b}"))),
            (Value::List(a), Value::List(b)) => {
                return Ok(Value::List(a.iter().chain(b).cloned().collect()));
            }
            _ => {}
        }
    }
    // Integer arithmetic stays integral (Cypher semantics).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return Err(CypherError::runtime("division by zero"));
                }
                Value::Int(a / b)
            }
            Mod => {
                if b == 0 {
                    return Err(CypherError::runtime("modulo by zero"));
                }
                Value::Int(a % b)
            }
            _ => Value::Float((a as f64).powf(b as f64)),
        });
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(Value::Float(match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            Mod => a % b,
            _ => a.powf(b),
        })),
        _ => Err(CypherError::runtime(format!(
            "cannot apply {op:?} to {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use grm_pgraph::{props, PropertyGraph};

    fn graph_and_row() -> (PropertyGraph, Scope, Vec<Binding>) {
        let mut g = PropertyGraph::new();
        let n = g.add_node(
            ["Person"],
            props([
                ("name", Value::from("Ada")),
                ("age", Value::Int(36)),
                ("domain", Value::from("example.com")),
            ]),
        );
        let m = g.add_node(["Match"], props([("id", Value::from("m1"))]));
        let e = g.add_edge(n, m, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        let mut scope = Scope::default();
        for (i, v) in ["n", "m", "r"].iter().enumerate() {
            scope.bind(v, i);
        }
        (g, scope, vec![Binding::Node(n), Binding::Node(m), Binding::Edge(e)])
    }

    fn try_ev(src: &str) -> Result<Value> {
        let (g, scope, row) = graph_and_row();
        let ev = Eval { graph: &g, prof: None };
        ev.eval(&compile_expr(&parse_expr(src).unwrap(), &scope), &row, 0).map(Cow::into_owned)
    }

    fn ev(src: &str) -> Value {
        try_ev(src).unwrap()
    }

    #[test]
    fn property_access() {
        assert_eq!(ev("n.name"), Value::from("Ada"));
        assert_eq!(ev("r.minutes"), Value::Int(90));
        // Missing ("hallucinated") property reads NULL, not error.
        assert_eq!(ev("n.penaltyScore"), Value::Null);
    }

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(ev("n.ghost = 1"), Value::Null);
        assert_eq!(ev("n.ghost > 1"), Value::Null);
        assert_eq!(ev("n.ghost + 1"), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        assert_eq!(ev("n.ghost = 1 AND false"), Value::Bool(false));
        assert_eq!(ev("n.ghost = 1 OR true"), Value::Bool(true));
        assert_eq!(ev("n.ghost = 1 AND true"), Value::Null);
        assert_eq!(ev("NOT (n.ghost = 1)"), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(ev("n.ghost IS NULL"), Value::Bool(true));
        assert_eq!(ev("n.name IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn regex_match() {
        assert_eq!(ev(r"n.domain =~ '^([a-zA-Z0-9-]+\.)+[a-zA-Z]{2,}$'"), Value::Bool(true));
        assert_eq!(ev("n.name =~ '^[0-9]+$'"), Value::Bool(false));
        assert_eq!(ev("n.ghost =~ '^a$'"), Value::Null);
        // A computed pattern compiles when evaluated.
        assert_eq!(ev("n.name =~ ('^A' + '.*')"), Value::Bool(true));
    }

    #[test]
    fn invalid_constant_regex_fails_only_when_matched() {
        assert_eq!(ev("n.ghost =~ '('"), Value::Null);
        assert!(matches!(try_ev("n.name =~ '('"), Err(CypherError::Runtime { .. })));
    }

    #[test]
    fn string_predicates() {
        assert_eq!(ev("n.name STARTS WITH 'A'"), Value::Bool(true));
        assert_eq!(ev("n.name STARTS WITH 'B'"), Value::Bool(false));
        assert_eq!(ev("n.name ENDS WITH 'da'"), Value::Bool(true));
        assert_eq!(ev("n.domain CONTAINS 'ample'"), Value::Bool(true));
        assert_eq!(ev("n.domain CONTAINS 'nope'"), Value::Bool(false));
        // NULL propagates.
        assert_eq!(ev("n.ghost CONTAINS 'x'"), Value::Null);
    }

    #[test]
    fn string_predicates_on_non_strings_error() {
        assert!(try_ev("n.age CONTAINS 'x'").is_err());
    }

    #[test]
    fn regex_on_non_string_is_error() {
        assert!(try_ev("n.age =~ 'x'").is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3"), Value::Int(7));
        assert_eq!(ev("7 / 2"), Value::Int(3));
        assert_eq!(ev("7.0 / 2"), Value::Float(3.5));
        assert_eq!(ev("7 % 3"), Value::Int(1));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(try_ev("1 / 0").is_err());
    }

    #[test]
    fn string_concat() {
        assert_eq!(ev("n.name + ':' + toString(n.age)"), Value::from("Ada:36"));
    }

    #[test]
    fn in_operator() {
        assert_eq!(ev("n.age IN [35, 36]"), Value::Bool(true));
        assert_eq!(ev("n.age IN [1, 2]"), Value::Bool(false));
        assert_eq!(ev("n.ghost IN [1]"), Value::Null);
        assert_eq!(ev("1 IN [n.ghost, 2]"), Value::Null);
        assert_eq!(ev("2 IN [n.ghost, 2]"), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(ev("size([1,2,3])"), Value::Int(3));
        assert_eq!(ev("size(n.name)"), Value::Int(3));
        assert_eq!(ev("toLower('ABC')"), Value::from("abc"));
        assert_eq!(ev("toUpper('abc')"), Value::from("ABC"));
        assert_eq!(ev("toInteger('42')"), Value::Int(42));
        assert_eq!(ev("toInteger('nope')"), Value::Null);
        assert_eq!(ev("coalesce(n.ghost, n.name)"), Value::from("Ada"));
        assert_eq!(ev("abs(-3)"), Value::Int(3));
        assert_eq!(ev("type(r)"), Value::from("PLAYED_IN"));
        assert_eq!(ev("labels(m)"), Value::List(vec![Value::from("Match")]));
        assert_eq!(ev("EXISTS(n.name)"), Value::Bool(true));
        assert_eq!(ev("EXISTS(n.ghost)"), Value::Bool(false));
        assert_eq!(ev("id(m)"), Value::Int(1));
    }

    #[test]
    fn bad_calls_fail_when_evaluated() {
        assert!(matches!(try_ev("size(1, 2)"), Err(CypherError::Semantic { .. })));
        assert!(matches!(try_ev("nope(1)"), Err(CypherError::Semantic { .. })));
        assert!(matches!(try_ev("id(1)"), Err(CypherError::Runtime { .. })));
        assert!(matches!(try_ev("labels(r)"), Err(CypherError::Runtime { .. })));
    }

    #[test]
    fn filter_semantics_treat_null_as_false() {
        let (g, scope, row) = graph_and_row();
        let ev = Eval { graph: &g, prof: None };
        let truth = |src: &str| ev.truth(&compile_expr(&parse_expr(src).unwrap(), &scope), &row, 0);
        assert!(!truth("n.ghost = 1").unwrap());
        assert!(truth("n.age = 36").unwrap());
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        assert!(try_ev("COUNT(*)").is_err());
    }

    #[test]
    fn unknown_variable_is_semantic_error() {
        assert!(matches!(try_ev("zz.name"), Err(CypherError::Semantic { .. })));
        assert!(matches!(try_ev("zz"), Err(CypherError::Semantic { .. })));
    }
}
