//! Typed keys for DISTINCT, grouping and distinct aggregates.
//!
//! A [`KeyRef`] views a binding as a `Hash + Eq` key: graph elements
//! by id, values by [`ValueKey`] (same variant and content, floats by
//! bits with one NaN). A [`TupleSet`] is an insertion-ordered set of
//! binding tuples under that equality. It hashes a probe once and
//! compares it against stored tuples in place, so a hit copies
//! nothing; only a new tuple is cloned into the set. Keys are graph
//! data, which comes from outside the program, so the hash is the
//! standard library's randomly keyed one.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use grm_pgraph::{EdgeId, NodeId, ValueKey};

use crate::eval::Binding;

/// The typed key of one binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyRef<'a> {
    Node(NodeId),
    Edge(EdgeId),
    Val(ValueKey<'a>),
}

impl<'a> KeyRef<'a> {
    pub(crate) fn of(b: &'a Binding) -> KeyRef<'a> {
        match b {
            Binding::Node(id) => KeyRef::Node(*id),
            Binding::Edge(id) => KeyRef::Edge(*id),
            Binding::Val(v) => KeyRef::Val(ValueKey(v)),
        }
    }

    fn to_binding(self) -> Binding {
        match self {
            KeyRef::Node(id) => Binding::Node(id),
            KeyRef::Edge(id) => Binding::Edge(id),
            KeyRef::Val(v) => Binding::Val(v.0.clone()),
        }
    }
}

/// Hasher for keys that already are hashes.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const END: u32 = u32::MAX;

/// An insertion-ordered set of `width`-binding tuples under typed
/// equality. Tuple `i` is the `i`-th distinct tuple inserted.
#[derive(Debug)]
pub(crate) struct TupleSet {
    width: usize,
    hasher: RandomState,
    cells: Vec<Binding>,
    /// Hash → newest tuple with that hash; `next` chains older ones.
    heads: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    next: Vec<u32>,
}

impl TupleSet {
    pub(crate) fn new(width: usize) -> TupleSet {
        TupleSet {
            width,
            hasher: RandomState::new(),
            cells: Vec::new(),
            heads: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// Distinct tuples held.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    fn hash<'a>(&self, keys: impl Iterator<Item = KeyRef<'a>>) -> u64 {
        let mut h = self.hasher.build_hasher();
        for k in keys {
            k.hash(&mut h);
        }
        h.finish()
    }

    fn find(&self, hash: u64, eq: impl Fn(&[Binding]) -> bool) -> Option<usize> {
        let mut i = *self.heads.get(&hash)?;
        while i != END {
            let at = i as usize * self.width;
            if eq(&self.cells[at..at + self.width]) {
                return Some(i as usize);
            }
            i = self.next[i as usize];
        }
        None
    }

    fn link(&mut self, hash: u64) -> usize {
        let i = self.next.len() as u32;
        let older = self.heads.insert(hash, i).unwrap_or(END);
        self.next.push(older);
        i as usize
    }

    /// Index of the tuple equal to `probe`, inserting a copy when
    /// there is none; the flag is true on insertion.
    pub(crate) fn insert(&mut self, probe: &[Binding]) -> (usize, bool) {
        debug_assert_eq!(probe.len(), self.width);
        if self.width == 0 {
            // Every empty tuple is the one global group.
            let fresh = self.next.is_empty();
            if fresh {
                self.next.push(END);
            }
            return (0, fresh);
        }
        let hash = self.hash(probe.iter().map(KeyRef::of));
        let same = |t: &[Binding]| t.iter().zip(probe).all(|(a, b)| KeyRef::of(a) == KeyRef::of(b));
        if let Some(i) = self.find(hash, same) {
            return (i, false);
        }
        self.cells.extend(probe.iter().cloned());
        (self.link(hash), true)
    }

    /// Inserts one key into a width-1 set; true when it was new.
    pub(crate) fn insert_key(&mut self, key: KeyRef<'_>) -> bool {
        debug_assert_eq!(self.width, 1);
        let hash = self.hash(std::iter::once(key));
        if self.find(hash, |t| KeyRef::of(&t[0]) == key).is_some() {
            return false;
        }
        self.cells.push(key.to_binding());
        self.link(hash);
        true
    }

    /// The stored bindings, tuple after tuple in insertion order.
    pub(crate) fn into_cells(self) -> std::vec::IntoIter<Binding> {
        self.cells.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::Value;

    fn list(items: &[&str]) -> Binding {
        Binding::Val(Value::List(items.iter().map(|s| Value::from(*s)).collect()))
    }

    #[test]
    fn tuples_dedupe_in_insertion_order() {
        let mut set = TupleSet::new(2);
        let a = [Binding::Node(NodeId(1)), Binding::Val(Value::Int(1))];
        let b = [Binding::Node(NodeId(1)), Binding::Val(Value::Float(1.0))];
        assert_eq!(set.insert(&a), (0, true));
        assert_eq!(set.insert(&b), (1, true));
        assert_eq!(set.insert(&a), (0, false));
        assert_eq!(set.len(), 2);
        let cells: Vec<Binding> = set.into_cells().collect();
        assert_eq!(cells[2..], b);
    }

    #[test]
    fn list_elements_do_not_collide() {
        let mut set = TupleSet::new(1);
        assert!(set.insert_key(KeyRef::of(&list(&["a,s:b"]))));
        assert!(set.insert_key(KeyRef::of(&list(&["a", "b"]))));
        assert!(!set.insert_key(KeyRef::of(&list(&["a", "b"]))));
        // A node and the string it renders to are different keys.
        assert!(set.insert_key(KeyRef::Node(NodeId(0))));
        assert!(set.insert_key(KeyRef::of(&Binding::Val(Value::from("(n0:)")))));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn empty_tuples_form_one_group() {
        let mut set = TupleSet::new(0);
        assert_eq!(set.insert(&[]), (0, true));
        assert_eq!(set.insert(&[]), (0, false));
        assert_eq!(set.len(), 1);
    }
}
