//! Exhaustive repair enumeration (Example 5.1, and the oracle behind
//! consistent query answering).
//!
//! For denial constraints, X-repairs and S-repairs coincide: a repair is a
//! maximal consistent subset of the instance.  [`enumerate_repairs`] lists
//! them all by branching on conflicts; Example 5.1 shows why this cannot
//! scale (a single key over `D_n` admits `2^n` repairs), and
//! [`count_repairs`] exposes exactly that growth for the benchmark.

use dq_core::engine::DetectionEngine;
use dq_core::DenialConstraint;
use dq_relation::{RelationInstance, TupleId};
use std::collections::BTreeSet;

/// Enumerates all repairs (maximal consistent subsets) of `instance` under
/// the given denial constraints.  Exponential in the number of conflicts;
/// intended for small oracle instances and for reproducing Example 5.1.
///
/// The per-candidate consistency checks run on one private
/// [`DetectionEngine`]: FD- and key-shaped constraints are evaluated over
/// pooled interned partitions on their equality attributes (same canonical
/// violation order as the naive scan) instead of the quadratic pair loop.
pub fn enumerate_repairs(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> Vec<RelationInstance> {
    let engine = DetectionEngine::new();
    let mut seen_kept: BTreeSet<Vec<TupleId>> = BTreeSet::new();
    let mut out = Vec::new();
    let mut stack = vec![instance.clone()];
    while let Some(current) = stack.pop() {
        // Find the first outstanding conflict.
        let first_conflict: Option<Vec<TupleId>> = constraints.iter().find_map(|c| {
            let mut per_constraint =
                engine.detect_denial_violations(&current, std::slice::from_ref(c));
            per_constraint.pop()?.into_iter().next()
        });
        match first_conflict {
            None => {
                let kept: Vec<TupleId> = current.iter().map(|(id, _)| id).collect();
                if seen_kept.insert(kept) {
                    out.push(current);
                }
            }
            Some(edge) => {
                for victim in edge {
                    let mut next = current.clone();
                    next.remove(victim);
                    stack.push(next);
                }
            }
        }
    }
    // The branching can produce consistent subsets that are not maximal
    // (when two different deletion orders overshoot); keep only maximal ones.
    let mut maximal = Vec::new();
    'outer: for (i, candidate) in out.iter().enumerate() {
        let ids: BTreeSet<TupleId> = candidate.iter().map(|(id, _)| id).collect();
        for (j, other) in out.iter().enumerate() {
            if i == j {
                continue;
            }
            let other_ids: BTreeSet<TupleId> = other.iter().map(|(id, _)| id).collect();
            if ids.is_subset(&other_ids) && ids != other_ids {
                continue 'outer;
            }
        }
        maximal.push(candidate.clone());
    }
    maximal
}

/// Counts the repairs of an instance without materializing them all — still
/// exponential time, but avoids holding `2^n` instances at once.
pub fn count_repairs(instance: &RelationInstance, constraints: &[DenialConstraint]) -> usize {
    enumerate_repairs(instance, constraints).len()
}

/// Builds the instance `D_n` of Example 5.1 over schema `R(A, B)`:
/// `{(a_i, b), (a_i, b') | i ∈ [1, n]}`, which has `2n` tuples and `2^n`
/// repairs under the key `A → B`.
pub fn example_5_1_instance(n: usize) -> (RelationInstance, Vec<DenialConstraint>) {
    use dq_core::Fd;
    use dq_relation::{Domain, RelationSchema, Value};
    use std::sync::Arc;

    let schema = Arc::new(RelationSchema::new(
        "r",
        [("A", Domain::Text), ("B", Domain::Text)],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    for i in 0..n {
        inst.insert_values([Value::str(format!("a{i}")), Value::str("b")])
            .unwrap();
        inst.insert_values([Value::str(format!("a{i}")), Value::str("b'")])
            .unwrap();
    }
    let constraints = DenialConstraint::from_fd(&Fd::new(&schema, &["A"], &["B"]));
    (inst, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_x_repair;
    use dq_core::Fd;
    use dq_relation::{Domain, RelationSchema, Value};
    use std::sync::Arc;

    #[test]
    fn example_5_1_has_exponentially_many_repairs() {
        for n in 1..=6 {
            let (inst, constraints) = example_5_1_instance(n);
            assert_eq!(inst.len(), 2 * n);
            assert_eq!(count_repairs(&inst, &constraints), 1 << n);
        }
    }

    #[test]
    fn every_enumerated_repair_passes_repair_checking() {
        let (inst, constraints) = example_5_1_instance(3);
        let repairs = enumerate_repairs(&inst, &constraints);
        assert_eq!(repairs.len(), 8);
        for r in &repairs {
            assert!(check_x_repair(&inst, r, &constraints));
            assert_eq!(r.len(), 3); // one tuple per key group survives
        }
    }

    #[test]
    fn consistent_instances_have_exactly_one_repair() {
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        inst.insert_values([Value::str("a"), Value::str("b")])
            .unwrap();
        inst.insert_values([Value::str("c"), Value::str("d")])
            .unwrap();
        let constraints = DenialConstraint::from_fd(&Fd::new(&schema, &["A"], &["B"]));
        let repairs = enumerate_repairs(&inst, &constraints);
        assert_eq!(repairs.len(), 1);
        assert!(inst.same_tuples_as(&repairs[0]));
    }

    #[test]
    fn overlapping_conflicts_yield_only_maximal_repairs() {
        // Three tuples with the same key and three distinct B values: the
        // repairs are exactly the three singletons of that group (plus any
        // independent tuples), not smaller subsets.
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for b in ["1", "2", "3"] {
            inst.insert_values([Value::str("k"), Value::str(b)])
                .unwrap();
        }
        let constraints = DenialConstraint::from_fd(&Fd::new(&schema, &["A"], &["B"]));
        let repairs = enumerate_repairs(&inst, &constraints);
        assert_eq!(repairs.len(), 3);
        for r in &repairs {
            assert_eq!(r.len(), 1);
        }
    }
}
