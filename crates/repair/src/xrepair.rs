//! X-repair by tuple deletion (Section 5.1).
//!
//! For denial constraints (which include FDs and keys), tuple insertions
//! never help, so X-repairs and S-repairs coincide; a repair is a maximal
//! consistent subset.  The violations of a denial-constraint set form a
//! *conflict hypergraph* whose vertices are tuples and whose hyperedges are
//! violating tuple combinations; a repair is the complement of a minimal
//! vertex cover.  Finding a minimum cover is NP-hard, so [`repair_by_deletion`]
//! uses the standard greedy heuristic (repeatedly delete the tuple involved
//! in the most outstanding conflicts), which yields a maximal consistent
//! subset.

use crate::model::RepairLog;
use dq_core::engine::DetectionEngine;
use dq_core::DenialConstraint;
use dq_relation::{RelationInstance, TupleId};
use std::collections::{BTreeMap, BTreeSet};

/// The conflict hypergraph of an instance w.r.t. a set of denial constraints.
#[derive(Clone, Debug, Default)]
pub struct ConflictHypergraph {
    /// Hyperedges: sets of tuples that jointly violate some constraint.
    pub edges: Vec<BTreeSet<TupleId>>,
}

impl ConflictHypergraph {
    /// Builds the hypergraph.
    pub fn build(instance: &RelationInstance, constraints: &[DenialConstraint]) -> Self {
        let edges = DetectionEngine::new()
            .detect_denial_violations(instance, constraints)
            .into_iter()
            .flatten()
            .map(|violation| violation.into_iter().collect())
            .collect();
        ConflictHypergraph { edges }
    }

    /// Number of conflicts.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Is the instance conflict-free?
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Tuples involved in at least one conflict.
    pub fn conflicting_tuples(&self) -> BTreeSet<TupleId> {
        self.edges.iter().flatten().copied().collect()
    }
}

/// Outcome of the deletion-based repair.
#[derive(Clone, Debug)]
pub struct DeletionOutcome {
    /// The repaired (sub-)instance.
    pub repaired: RelationInstance,
    /// The changes made (deletions only).
    pub log: RepairLog,
}

/// Repairs the instance by greedily deleting tuples until no denial
/// constraint is violated.  The result is always consistent and is a maximal
/// consistent subset (no deleted tuple could be re-added), i.e. an X-repair.
pub fn repair_by_deletion(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> DeletionOutcome {
    let mut repaired = instance.clone();
    let mut log = RepairLog::default();
    loop {
        let graph = ConflictHypergraph::build(&repaired, constraints);
        if graph.is_empty() {
            break;
        }
        // Greedy: delete the tuple covering the most conflicts.
        let mut counts: BTreeMap<TupleId, usize> = BTreeMap::new();
        for edge in &graph.edges {
            for &id in edge {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let (&victim, _) = counts
            .iter()
            .max_by_key(|(id, count)| (**count, std::cmp::Reverse(id.0)))
            .expect("non-empty conflict graph");
        repaired.remove(victim);
        log.deleted.push(victim);
    }
    // Maximality pass: try to re-add deleted tuples that no longer conflict.
    let mut still_deleted = Vec::new();
    for &id in &log.deleted {
        let tuple = instance.tuple(id).expect("deleted tuple existed").clone();
        let mut candidate = repaired.clone();
        candidate
            .insert(tuple.clone())
            .expect("original tuple is well-typed");
        if constraints.iter().all(|c| c.holds_on(&candidate)) {
            // Safe to keep after all — re-add it with a fresh id.
            repaired
                .insert(tuple)
                .expect("original tuple is well-typed");
        } else {
            still_deleted.push(id);
        }
    }
    log.deleted = still_deleted;
    DeletionOutcome { repaired, log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::Fd;
    use dq_relation::{Domain, RelationSchema, Value};
    use std::sync::Arc;

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

    fn key_constraints() -> Vec<DenialConstraint> {
        DenialConstraint::from_fd(&Fd::new(&schema(), &["A"], &["B"]))
    }

    #[test]
    fn conflict_hypergraph_reflects_violations() {
        let inst = instance(&[("k", "1"), ("k", "2"), ("z", "3")]);
        let graph = ConflictHypergraph::build(&inst, &key_constraints());
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.conflicting_tuples().len(), 2);
        let clean = instance(&[("k", "1"), ("z", "3")]);
        assert!(ConflictHypergraph::build(&clean, &key_constraints()).is_empty());
    }

    #[test]
    fn greedy_deletion_produces_a_consistent_maximal_subset() {
        let inst = instance(&[("k", "1"), ("k", "2"), ("k", "3"), ("z", "4")]);
        let constraints = key_constraints();
        let outcome = repair_by_deletion(&inst, &constraints);
        assert!(constraints.iter().all(|c| c.holds_on(&outcome.repaired)));
        // Exactly one of the three conflicting tuples survives, plus ("z", 4).
        assert_eq!(outcome.repaired.len(), 2);
        assert_eq!(outcome.log.deleted.len(), 2);
        // The untouched tuple is never deleted.
        assert!(!outcome.log.deleted.contains(&TupleId(3)));
    }

    #[test]
    fn consistent_instances_are_returned_unchanged() {
        let inst = instance(&[("k", "1"), ("z", "2")]);
        let outcome = repair_by_deletion(&inst, &key_constraints());
        assert!(outcome.log.deleted.is_empty());
        assert!(inst.same_tuples_as(&outcome.repaired));
    }

    #[test]
    fn greedy_prefers_tuples_covering_many_conflicts() {
        // One "hub" tuple conflicts with three others (same A, different B);
        // the three others are pairwise conflicting too, but a single
        // deletion cannot fix everything; the greedy starts with a
        // max-degree vertex and ends with exactly one survivor per key group.
        let inst = instance(&[("k", "1"), ("k", "2"), ("k", "2"), ("w", "9")]);
        let constraints = key_constraints();
        let outcome = repair_by_deletion(&inst, &constraints);
        assert!(constraints.iter().all(|c| c.holds_on(&outcome.repaired)));
        // The two ("k", "2") duplicates do not conflict with each other, so
        // the repair keeps both of them and deletes ("k", "1").
        assert_eq!(outcome.repaired.len(), 3);
        assert_eq!(outcome.log.deleted, vec![TupleId(0)]);
    }
}
