//! Property values.
//!
//! The value model mirrors what the paper's datasets actually store in
//! Neo4j: booleans, integers, floats, strings, timestamps and lists.
//! `Value::Null` participates in three-valued logic inside the Cypher
//! engine (`grm-cypher`), which is how hallucinated properties surface
//! as silently-empty results rather than hard errors — the behaviour
//! §4.4 of the paper relies on.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A property value attached to a node or an edge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// Absent / unknown value (SQL-style three-valued logic).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Timestamp as seconds since the Unix epoch. Neo4j's `datetime`
    /// is richer; epoch seconds preserve everything the paper's
    /// temporal rules ("a retweet can occur only after the original
    /// tweet") need: a total order.
    DateTime(i64),
    /// Heterogeneous list.
    List(Vec<Value>),
}

/// [`Value::type_name`] of each variant, in declaration order.
const TYPE_NAMES: [&str; 7] = ["NULL", "BOOLEAN", "INTEGER", "FLOAT", "STRING", "DATETIME", "LIST"];

impl Value {
    /// Position of the value's variant in declaration order.
    fn type_index(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::DateTime(_) => 5,
            Value::List(_) => 6,
        }
    }

    /// Human-readable type name, used in schema reports and error
    /// messages.
    pub fn type_name(&self) -> &'static str {
        TYPE_NAMES[self.type_index()]
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for boolean contexts. `Null` is neither true nor
    /// false (returns `None`), any non-`Bool` value is an error
    /// surfaced as `None` as well — the Cypher executor treats it as
    /// "unknown", matching Neo4j's lenient `WHERE` semantics.
    pub fn as_truth(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Null => None,
            _ => None,
        }
    }

    /// Numeric view for arithmetic and ordered comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::DateTime(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Cypher-style equality: `Null = anything` is unknown (`None`);
    /// numbers compare across `Int`/`Float`; otherwise same-variant
    /// structural equality.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x == y),
                _ => Some(a == b),
            },
        }
    }

    /// Cypher-style ordered comparison. `None` when either side is
    /// `Null` or the two values are not comparable (e.g. string vs
    /// int), which propagates as "unknown" in `WHERE`.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Heap bytes owned by this value beyond its inline
    /// `size_of::<Value>()`: string capacity for `Str`, buffer
    /// capacity plus recursive element heap for `List`, zero for the
    /// inline variants. Capacities grow deterministically (doubling),
    /// so footprint accounting built on this is byte-exact for a
    /// fixed build sequence.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Value::Str(s) => s.capacity() as u64,
            Value::List(vs) => {
                let buffer = (vs.capacity() * std::mem::size_of::<Value>()) as u64;
                buffer + vs.iter().map(Value::heap_bytes).sum::<u64>()
            }
            _ => 0,
        }
    }

    /// A stable string rendering that orders values which
    /// [`Value::cypher_cmp`] cannot compare (ORDER BY's fallback).
    /// Floats are rendered with full precision; lists recurse. Not a
    /// grouping key: list elements are joined unescaped, so distinct
    /// lists can render alike — group and deduplicate on
    /// [`ValueKey`] instead.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "∅".to_owned(),
            Value::Bool(b) => format!("b:{b}"),
            Value::Int(i) => format!("i:{i}"),
            Value::Float(f) => format!("f:{f}"),
            Value::Str(s) => format!("s:{s}"),
            Value::DateTime(t) => format!("t:{t}"),
            Value::List(vs) => {
                let inner: Vec<String> = vs.iter().map(Value::group_key).collect();
                format!("l:[{}]", inner.join(","))
            }
        }
    }
}

/// A set of [`Value`] types, one bit per variant: the types a schema
/// property was observed holding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeSet(u8);

impl TypeSet {
    /// Adds `value`'s type.
    pub fn insert(&mut self, value: &Value) {
        self.0 |= 1 << value.type_index();
    }

    /// True when a value whose [`Value::type_name`] is `name` was
    /// added.
    pub fn contains(&self, name: &str) -> bool {
        TYPE_NAMES.iter().position(|n| *n == name).is_some_and(|i| self.0 & (1 << i) != 0)
    }

    /// Number of distinct types added.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when nothing was added.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// The typed grouping key of a [`Value`]: `Hash + Ord` where two
/// values are equal exactly when they have the same variant and the
/// same content. Floats compare by bits with every NaN mapped to one
/// value (so `0.0` and `-0.0` differ, as their renderings do), `Null`
/// equals `Null`, and lists compare element-wise. DISTINCT, grouping
/// and `count(DISTINCT …)` key on it, and schema inference sorts it
/// to count distinct values; it borrows, so a lookup never copies the
/// value.
#[derive(Debug, Clone, Copy)]
pub struct ValueKey<'a>(pub &'a Value);

impl ValueKey<'_> {
    /// `f` with every NaN mapped to one NaN.
    fn canonical(f: f64) -> f64 {
        if f.is_nan() {
            f64::NAN
        } else {
            f
        }
    }

    /// Lists element by element; out of line, so the scalar arms of
    /// [`Ord::cmp`] inline into a sort.
    fn cmp_lists(a: &[Value], b: &[Value]) -> Ordering {
        a.iter().map(ValueKey).cmp(b.iter().map(ValueKey))
    }
}

impl PartialEq for ValueKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                Self::canonical(*a).to_bits() == Self::canonical(*b).to_bits()
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::DateTime(a), Value::DateTime(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| ValueKey(x) == ValueKey(y))
            }
            _ => false,
        }
    }
}

impl Eq for ValueKey<'_> {}

impl Ord for ValueKey<'_> {
    /// Variants in declaration order, then content: floats by
    /// `total_cmp` after the NaN mapping (so `-0.0 < 0.0`), lists
    /// element by element. `Equal` exactly when `==` holds.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.0, other.0) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                Self::canonical(*a).total_cmp(&Self::canonical(*b))
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::DateTime(a), Value::DateTime(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => Self::cmp_lists(a, b),
            (a, b) => a.type_index().cmp(&b.type_index()),
        }
    }
}

impl PartialOrd for ValueKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for ValueKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.0 {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => {
                state.write_u8(3);
                Self::canonical(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::DateTime(t) => {
                state.write_u8(5);
                t.hash(state);
            }
            Value::List(vs) => {
                state.write_u8(6);
                vs.len().hash(state);
                for v in vs {
                    ValueKey(v).hash(state);
                }
            }
        }
    }
}

impl Value {
    /// Writes the value's Cypher-compatible literal — its `Display`
    /// form — to `out`: strings single-quoted with every `'` escaped
    /// as `\'`, lists as `[a, b]`. The text encoders write straight
    /// into their buffer with it, so the simulated LLM "sees" values
    /// the way a prompt would.
    pub fn write_literal<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(x) => write!(out, "{x}"),
            Value::Str(s) => {
                out.write_char('\'')?;
                let mut rest = s.as_str();
                while let Some(quote) = rest.find('\'') {
                    out.write_str(&rest[..quote])?;
                    out.write_str("\\'")?;
                    rest = &rest[quote + 1..];
                }
                out.write_str(rest)?;
                out.write_char('\'')
            }
            Value::DateTime(t) => write!(out, "datetime({t})"),
            Value::List(vs) => {
                out.write_char('[')?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    v.write_literal(out)?;
                }
                out.write_char(']')
            }
        }
    }
}

impl fmt::Display for Value {
    /// [`Value::write_literal`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_literal(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_equality_is_unknown() {
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Null), None);
        assert_eq!(Value::Null.cypher_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_equality_crosses_int_float() {
        assert_eq!(Value::Int(2).cypher_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(Value::Int(2).cypher_eq(&Value::Float(2.5)), Some(false));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(Value::from("abc").cypher_cmp(&Value::from("abd")), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types_yield_unknown() {
        assert_eq!(Value::from("a").cypher_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn datetime_orders_like_integers() {
        assert_eq!(Value::DateTime(10).cypher_cmp(&Value::DateTime(20)), Some(Ordering::Less));
    }

    #[test]
    fn display_renders_cypher_literals() {
        assert_eq!(Value::from("o'neil").to_string(), "'o\\'neil'");
        assert_eq!(Value::from("''a\\'").to_string(), "'\\'\\'a\\\\''");
        assert_eq!(Value::List(vec![Value::Int(1), Value::from("x")]).to_string(), "[1, 'x']");
        let mut out = String::from("k: ");
        Value::List(vec![Value::Float(-0.5), Value::DateTime(7), Value::Null])
            .write_literal(&mut out)
            .unwrap();
        assert_eq!(out, "k: [-0.5, datetime(7), null]");
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::from("1").group_key());
        assert_ne!(Value::Bool(true).group_key(), Value::from("true").group_key());
    }

    #[test]
    fn value_keys_compare_typed_content() {
        use std::collections::HashSet;
        let list = |items: &[&str]| Value::List(items.iter().map(|s| Value::from(*s)).collect());
        // One string containing the element separator is not two strings.
        let joined = list(&["a,s:b"]);
        let split = list(&["a", "b"]);
        assert_ne!(ValueKey(&joined), ValueKey(&split));
        assert_ne!(ValueKey(&Value::Int(1)), ValueKey(&Value::Float(1.0)));
        assert_ne!(ValueKey(&Value::Int(1)), ValueKey(&Value::DateTime(1)));
        assert_ne!(ValueKey(&Value::Float(0.0)), ValueKey(&Value::Float(-0.0)));
        assert_eq!(ValueKey(&Value::Float(f64::NAN)), ValueKey(&Value::Float(-f64::NAN)));
        assert_eq!(ValueKey(&Value::Null), ValueKey(&Value::Null));
        let values =
            [joined.clone(), split, joined, Value::Float(f64::NAN), Value::Float(-f64::NAN)];
        let distinct: HashSet<ValueKey<'_>> = values.iter().map(ValueKey).collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn value_key_order_agrees_with_equality() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::from("a"),
            Value::DateTime(1),
            Value::List(vec![]),
            Value::List(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(1), Value::Null]),
            Value::List(vec![Value::Float(1.0)]),
        ];
        for a in &values {
            for b in &values {
                let (ka, kb) = (ValueKey(a), ValueKey(b));
                assert_eq!(ka.cmp(&kb) == Ordering::Equal, ka == kb, "{a:?} vs {b:?}");
                assert_eq!(ka.cmp(&kb), kb.cmp(&ka).reverse(), "{a:?} vs {b:?}");
            }
        }
        assert!(ValueKey(&Value::Float(-0.0)) < ValueKey(&Value::Float(0.0)));
        assert!(ValueKey(&Value::Int(9)) < ValueKey(&Value::Float(1.0)));
        let mut keys: Vec<ValueKey<'_>> = values.iter().map(ValueKey).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), values.len() - 1); // the two NaNs are one
    }

    #[test]
    fn type_sets_hold_variant_names() {
        let mut types = TypeSet::default();
        assert!(types.is_empty());
        for v in [Value::from("x"), Value::Int(1), Value::from("y"), Value::List(vec![])] {
            types.insert(&v);
        }
        assert_eq!(types.len(), 3);
        assert!(types.contains("STRING") && types.contains("INTEGER") && types.contains("LIST"));
        assert!(!types.contains("FLOAT") && !types.contains("NULL") && !types.contains("string"));
    }

    #[test]
    fn heap_bytes_counts_string_and_list_capacity() {
        assert_eq!(Value::Int(1).heap_bytes(), 0);
        assert_eq!(Value::Null.heap_bytes(), 0);
        let s = String::with_capacity(32);
        assert_eq!(Value::Str(s).heap_bytes(), 32);
        let vs = vec![Value::Int(1), Value::Str(String::with_capacity(8))];
        let expected = 2 * std::mem::size_of::<Value>() as u64 + 8;
        assert_eq!(Value::List(vs).heap_bytes(), expected);
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).as_truth(), Some(true));
        assert_eq!(Value::Null.as_truth(), None);
        assert_eq!(Value::Int(1).as_truth(), None);
    }
}
