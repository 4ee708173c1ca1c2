//! The `Vec<Value>`-keyed hash index that [`crate::store::InternedIndex`]
//! replaced, kept as the grouping oracle.
//!
//! [`HashIndex`] maps the projection of each tuple onto an attribute list
//! to the ascending ids of the tuples sharing it, one heap `Vec<Value>` key
//! and one `Vec<TupleId>` group per distinct projection.  The row-at-a-time
//! detectors of `dq_core::reference` and the matcher of `dq_match::reference`
//! group through it; the interned index and pool tests check their groups
//! against it; and `harness --discovery-bench` reports its heap size as the
//! baseline of the pooled interned indexes'.

use crate::instance::{RelationInstance, TupleId};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem::size_of;

/// A hash index mapping the projection of each tuple onto a fixed attribute
/// list to the set of tuple ids sharing that projection.
#[derive(Clone, Debug)]
pub struct HashIndex {
    attrs: Vec<usize>,
    groups: HashMap<Vec<Value>, Vec<TupleId>>,
}

impl HashIndex {
    /// Builds an index of `instance` on the attribute positions `attrs`.
    pub fn build(instance: &RelationInstance, attrs: &[usize]) -> Self {
        let mut groups: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::with_capacity(instance.len());
        for (id, tuple) in instance.iter() {
            let key = tuple.project(attrs);
            match groups.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().push(id),
                Entry::Vacant(e) => {
                    e.insert(vec![id]);
                }
            }
        }
        HashIndex {
            attrs: attrs.to_vec(),
            groups,
        }
    }

    /// The attribute positions this index is keyed on.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Tuple ids whose projection equals `key`.
    pub fn get(&self, key: &[Value]) -> &[TupleId] {
        self.groups.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Does any tuple project to `key`?
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.groups.contains_key(key)
    }

    /// Iterates over `(key, group)` pairs.
    pub fn groups(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<TupleId>)> {
        self.groups.iter()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Groups containing at least two tuples — the only candidates for
    /// variable (FD-style) violations.
    pub fn multi_groups(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<TupleId>)> {
        self.groups.iter().filter(|(_, g)| g.len() > 1)
    }

    /// Approximate heap bytes held by the index: map buckets, per-key value
    /// vectors and per-group id vectors.  String payloads are shared with
    /// the instance (`Arc`) and not counted.  This is the `Vec<Value>`-keyed
    /// baseline `harness --discovery-bench` compares the pooled
    /// [`InternedIndex::approx_heap_bytes`](crate::store::InternedIndex::approx_heap_bytes)
    /// against.
    pub fn approx_heap_bytes(&self) -> usize {
        let entry = size_of::<(Vec<Value>, Vec<TupleId>)>() + 1;
        let mut bytes = self.groups.capacity() * entry;
        for (key, group) in &self.groups {
            bytes += key.capacity() * size_of::<Value>() + group.capacity() * size_of::<TupleId>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, RelationSchema};

    fn instance() -> RelationInstance {
        let schema = RelationSchema::new(
            "r",
            [("A", Domain::Int), ("B", Domain::Text), ("C", Domain::Text)],
        );
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b, c) in [(1, "x", "p"), (1, "x", "q"), (2, "y", "p"), (1, "z", "p")] {
            inst.insert_values([Value::int(a), Value::str(b), Value::str(c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn groups_by_projection() {
        let inst = instance();
        let idx = HashIndex::build(&inst, &[0, 1]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.get(&[Value::int(1), Value::str("x")]).len(), 2);
        assert_eq!(idx.get(&[Value::int(2), Value::str("y")]).len(), 1);
        assert!(idx.get(&[Value::int(9), Value::str("x")]).is_empty());
    }

    #[test]
    fn multi_groups_only_returns_groups_with_collisions() {
        let inst = instance();
        let idx = HashIndex::build(&inst, &[0, 1]);
        let multi: Vec<_> = idx.multi_groups().collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].0, &vec![Value::int(1), Value::str("x")]);
    }

    #[test]
    fn empty_attribute_list_groups_everything_together() {
        let inst = instance();
        let idx = HashIndex::build(&inst, &[]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&[]).len(), 4);
    }

    #[test]
    fn contains_key_matches_get() {
        let inst = instance();
        let idx = HashIndex::build(&inst, &[2]);
        assert!(idx.contains_key(&[Value::str("p")]));
        assert!(!idx.contains_key(&[Value::str("missing")]));
    }
}
