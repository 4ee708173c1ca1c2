//! World-set decompositions (WSDs) for key repairs (Section 5.3, after
//! [4, 5]).
//!
//! A WSD represents a finite set of possible worlds as the product of
//! independent *components*.  For repairs of a relation under a key
//! constraint, the components are exactly the key groups: each component
//! lists the candidate tuples for one key value, a world picks one candidate
//! per component, and the number of worlds is the product of the component
//! sizes — exponentially more succinct than enumerating the repairs (the
//! expressiveness result of [5] that Section 5.3 cites).  The caveat the
//! paper raises — components must be independent, which INDs break — is
//! surfaced by [`WorldSetDecomposition::is_product_faithful`].

use dq_core::Fd;
use dq_relation::{RelationInstance, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One component: the candidate tuples for one key value.
#[derive(Clone, Debug)]
pub struct Component {
    /// The key value shared by the candidates.
    pub key: Vec<Value>,
    /// The candidate tuples (each world keeps exactly one).
    pub candidates: Vec<Tuple>,
}

/// A world-set decomposition of the repairs of one relation under a key.
#[derive(Clone, Debug)]
pub struct WorldSetDecomposition {
    schema: Arc<dq_relation::RelationSchema>,
    components: Vec<Component>,
}

impl WorldSetDecomposition {
    /// Builds the WSD of `instance` under the key FD `X → Y` (candidates are
    /// deduplicated per component).
    pub fn for_key(instance: &RelationInstance, key: &Fd) -> Self {
        let mut components = Vec::new();
        for (key_value, group) in crate::key_groups(instance, key.lhs()) {
            let mut seen = BTreeSet::new();
            let mut candidates = Vec::new();
            for id in group {
                let t = instance.tuple(id).expect("live tuple").clone();
                if seen.insert(t.clone()) {
                    candidates.push(t);
                }
            }
            components.push(Component {
                key: key_value,
                candidates,
            });
        }
        WorldSetDecomposition {
            schema: Arc::clone(instance.schema()),
            components,
        }
    }

    /// The components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of represented worlds (product of component sizes).
    pub fn world_count(&self) -> u128 {
        self.components
            .iter()
            .map(|c| c.candidates.len() as u128)
            .product()
    }

    /// Size of the representation itself (total number of stored candidate
    /// tuples) — the quantity that stays polynomial while the world count
    /// explodes.
    pub fn size(&self) -> usize {
        self.components.iter().map(|c| c.candidates.len()).sum()
    }

    /// Materializes every world (use only when the world count is small).
    pub fn enumerate_worlds(&self) -> Vec<RelationInstance> {
        let mut worlds = vec![Vec::<Tuple>::new()];
        for component in &self.components {
            let mut next = Vec::with_capacity(worlds.len() * component.candidates.len());
            for prefix in &worlds {
                for candidate in &component.candidates {
                    let mut w = prefix.clone();
                    w.push(candidate.clone());
                    next.push(w);
                }
            }
            worlds = next;
        }
        worlds
            .into_iter()
            .map(|tuples| {
                let mut inst = RelationInstance::new(Arc::clone(&self.schema));
                for t in tuples {
                    inst.insert(t).expect("candidate tuples are well-typed");
                }
                inst
            })
            .collect()
    }

    /// The product construction is faithful (represents exactly the repairs)
    /// only when the components are truly independent; a cross-component
    /// constraint (e.g. an IND from one group's non-key attribute into
    /// another's) breaks that.  This check verifies the structural
    /// prerequisite used in this module: components have disjoint key values.
    pub fn is_product_faithful(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.components.iter().all(|c| seen.insert(c.key.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::DenialConstraint;
    use dq_relation::{Domain, RelationSchema};

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ))
    }

    fn instance(rows: &[(&str, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (a, b) in rows {
            inst.insert_values([Value::str(*a), Value::str(*b)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn wsd_components_follow_key_groups() {
        let inst = instance(&[("k", "1"), ("k", "2"), ("z", "3")]);
        let key = Fd::new(&schema(), &["A"], &["B"]);
        let wsd = WorldSetDecomposition::for_key(&inst, &key);
        assert_eq!(wsd.components().len(), 2);
        assert_eq!(wsd.world_count(), 2);
        assert_eq!(wsd.size(), 3);
        assert!(wsd.is_product_faithful());
    }

    #[test]
    fn enumerated_worlds_are_exactly_the_repairs() {
        let inst = instance(&[("k", "1"), ("k", "2"), ("z", "3")]);
        let key = Fd::new(&schema(), &["A"], &["B"]);
        let wsd = WorldSetDecomposition::for_key(&inst, &key);
        let worlds = wsd.enumerate_worlds();
        let repairs = dq_repair::enumerate_repairs(&inst, &DenialConstraint::from_fd(&key));
        assert_eq!(worlds.len(), repairs.len());
        for w in &worlds {
            assert!(repairs.iter().any(|r| r.same_tuples_as(w)));
        }
    }

    #[test]
    fn succinctness_grows_with_example_5_1() {
        let (inst, _) = dq_repair::example_5_1_instance(20);
        let key = Fd::new(inst.schema(), &["A"], &["B"]);
        let wsd = WorldSetDecomposition::for_key(&inst, &key);
        // Linear representation, exponential world count.
        assert_eq!(wsd.size(), 40);
        assert_eq!(wsd.world_count(), 1u128 << 20);
    }

    #[test]
    fn duplicate_tuples_collapse_within_a_component() {
        let inst = instance(&[("k", "1"), ("k", "1"), ("z", "3")]);
        let key = Fd::new(&schema(), &["A"], &["B"]);
        let wsd = WorldSetDecomposition::for_key(&inst, &key);
        assert_eq!(wsd.world_count(), 1);
        assert_eq!(wsd.size(), 2);
    }
}
