//! # dq-repr
//!
//! Condensed representations of all repairs (Section 5.3 of Fan, PODS 2008).
//!
//! * [`vtable`] — tableaux with variables (v-tables), valuations,
//!   homomorphisms and subsumption;
//! * [`nucleus`] — the nucleus of an instance under an FD/key: a single
//!   v-table homomorphic to every U-repair, with naive conjunctive-query
//!   evaluation returning consistent answers;
//! * [`wsd`] — world-set decompositions of key repairs: a product
//!   representation that is exponentially more succinct than enumerating the
//!   repairs;
//! * [`ctable`] — conditional tables: v-tables with local conditions, the
//!   strong representation system of [46, 50] instantiated here to represent
//!   all subset repairs of a key.

pub mod ctable;
pub mod nucleus;
pub mod vtable;
pub mod wsd;

use dq_relation::{RelationInstance, TupleId, Value};
use std::collections::BTreeMap;

/// The tuple ids of `instance` grouped by their projection on `attrs`:
/// keys ascending, ids in instance order within a group.
///
/// Groups follow `Value`'s `Eq`, as detection does.  `Ord` ranks `Int(1)`
/// and `Real(1.0)` equal while `Eq` tells them apart, so the map is keyed by
/// the projection and then by the type of each of its values.
fn key_groups(instance: &RelationInstance, attrs: &[usize]) -> Vec<(Vec<Value>, Vec<TupleId>)> {
    let mut groups: BTreeMap<(Vec<Value>, Vec<&str>), Vec<TupleId>> = BTreeMap::new();
    for (id, tuple) in instance.iter() {
        let key = tuple.project(attrs);
        let types = key.iter().map(Value::type_name).collect();
        groups.entry((key, types)).or_default().push(id);
    }
    groups
        .into_iter()
        .map(|((key, _), ids)| (key, ids))
        .collect()
}

/// Frequently used items.
pub mod prelude {
    pub use crate::ctable::{CTable, CTuple, CondAtom, CondOp};
    pub use crate::nucleus::{evaluate_on_nucleus, nucleus_for_fd, nucleus_stats, NucleusStats};
    pub use crate::vtable::{VTable, VTuple, VValue};
    pub use crate::wsd::{Component, WorldSetDecomposition};
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema};

    #[test]
    fn key_groups_keep_ord_equal_values_of_different_types_apart() {
        let schema = RelationSchema::new("r", [("a", Domain::Real), ("b", Domain::Int)]);
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b) in [
            (Value::Real(1.0), 0),
            (Value::int(1), 1),
            (Value::Real(0.5), 2),
            (Value::Real(1.0), 3),
        ] {
            inst.insert_values([a, Value::int(b)]).unwrap();
        }
        let groups: Vec<(Vec<Value>, Vec<usize>)> = key_groups(&inst, &[0])
            .into_iter()
            .map(|(key, ids)| (key, ids.into_iter().map(|id| id.0).collect()))
            .collect();
        assert_eq!(
            groups,
            [
                (vec![Value::Real(0.5)], vec![2]),
                (vec![Value::int(1)], vec![1]),
                (vec![Value::Real(1.0)], vec![0, 3]),
            ]
        );
    }
}
