//! Repair models, the cost metric and repair checking (Section 5.1,
//! Theorem 5.1).
//!
//! * **X-repair** — a maximal consistent subset of the instance (tuple
//!   deletions only);
//! * **S-repair** — a consistent instance whose symmetric difference with
//!   the original is minimal (deletions and insertions);
//! * **U-repair** — a consistent instance obtained by attribute-value
//!   modifications, minimizing `cost(D, D') = Σ w(t, A) · dis(v, v')`.
//!
//! The [`RepairCost`] type implements the weight × distance metric the paper
//! presents (after [40, 69, 16]); [`repair check`](check_x_repair) functions
//! implement the decision problem of Theorem 5.1 for the tractable cases.

use dq_core::engine::DetectionEngine;
use dq_core::{Cfd, DenialConstraint};
use dq_relation::{value_distance, RelationInstance, TupleId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The repair model in use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairModel {
    /// Tuple deletions only, maximal consistent subset.
    XRepair,
    /// Deletions and insertions, minimal symmetric difference.
    SRepair,
    /// Attribute-value modifications, minimal cost.
    URepair,
}

/// Per-cell confidence weights `w(t, A)` (defaulting to 1.0), as placed by
/// the user or propagated by provenance analysis.
#[derive(Clone, Debug, Default)]
pub struct Weights {
    weights: BTreeMap<(TupleId, usize), f64>,
    default: f64,
}

impl Weights {
    /// Uniform weights of 1.0.
    pub fn uniform() -> Self {
        Weights {
            weights: BTreeMap::new(),
            default: 1.0,
        }
    }

    /// Sets the weight of a cell.
    pub fn set(&mut self, tuple: TupleId, attr: usize, weight: f64) {
        self.weights.insert((tuple, attr), weight);
    }

    /// The weight of a cell.
    pub fn get(&self, tuple: TupleId, attr: usize) -> f64 {
        self.weights
            .get(&(tuple, attr))
            .copied()
            .unwrap_or(self.default)
    }
}

/// The repair cost metric of Section 5.1.
#[derive(Clone, Debug)]
pub struct RepairCost {
    weights: Weights,
}

impl RepairCost {
    /// Cost with uniform weights.
    pub fn uniform() -> Self {
        RepairCost {
            weights: Weights::uniform(),
        }
    }

    /// Cost with explicit weights.
    pub fn with_weights(weights: Weights) -> Self {
        RepairCost { weights }
    }

    /// Mutable access to the weights.
    pub fn weights_mut(&mut self) -> &mut Weights {
        &mut self.weights
    }

    /// The confidence weight `w(t, A)` of a cell.
    pub fn weight(&self, tuple: TupleId, attr: usize) -> f64 {
        self.weights.get(tuple, attr)
    }

    /// `cost(v, v') = w(t, A) · dis(v, v')` for a single cell change.
    pub fn cell_cost(&self, tuple: TupleId, attr: usize, old: &Value, new: &Value) -> f64 {
        self.weights.get(tuple, attr) * value_distance(old, new)
    }

    /// Total cost of transforming `original` into `repaired` by value
    /// modifications (tuple sets must be aligned by id).
    pub fn instance_cost(&self, original: &RelationInstance, repaired: &RelationInstance) -> f64 {
        let mut total = 0.0;
        for (id, t) in original.iter() {
            if let Some(r) = repaired.tuple(id) {
                for attr in 0..t.arity() {
                    if t.get(attr) != r.get(attr) {
                        total += self.cell_cost(id, attr, t.get(attr), r.get(attr));
                    }
                }
            }
        }
        total
    }
}

/// A record of the changes a repair made, for reporting and for quality
/// scoring against injected errors.
#[derive(Clone, Debug, Default)]
pub struct RepairLog {
    /// Cells modified: `(tuple, attr, old value, new value)`.
    pub modified: Vec<(TupleId, usize, Value, Value)>,
    /// Tuples deleted.
    pub deleted: Vec<TupleId>,
    /// Total cost of the modifications under the cost metric in use.
    pub cost: f64,
}

impl RepairLog {
    /// The set of cells that were modified.
    pub fn modified_cells(&self) -> BTreeSet<(TupleId, usize)> {
        self.modified.iter().map(|(t, a, _, _)| (*t, *a)).collect()
    }

    /// Number of changes (modifications plus deletions).
    pub fn change_count(&self) -> usize {
        self.modified.len() + self.deleted.len()
    }
}

/// Is `candidate` an X-repair of `original` w.r.t. the denial constraints?
/// That is: a subset, consistent, and maximal (no deleted tuple can be added
/// back without breaking consistency).  PTIME (Theorem 5.1 lists the
/// tractable cases; denial constraints are among them).
pub fn check_x_repair(
    original: &RelationInstance,
    candidate: &RelationInstance,
    constraints: &[DenialConstraint],
) -> bool {
    // Subset check: every candidate tuple appears in the original (by id).
    let candidate_ids: BTreeSet<TupleId> = candidate.iter().map(|(id, _)| id).collect();
    for (id, t) in candidate.iter() {
        match original.tuple(id) {
            Some(o) if o == t => {}
            _ => return false,
        }
    }
    // Consistency.
    if constraints.iter().any(|d| !d.holds_on(candidate)) {
        return false;
    }
    // Maximality: adding any deleted tuple back must violate something.
    for (id, t) in original.iter() {
        if candidate_ids.contains(&id) {
            continue;
        }
        let mut extended = candidate.clone();
        extended
            .insert(t.clone())
            .expect("tuple from the original instance is well-typed");
        if constraints.iter().all(|d| d.holds_on(&extended)) {
            return false;
        }
    }
    true
}

/// Is `candidate` a U-repair of `original` w.r.t. the CFDs: same tuple ids,
/// consistent, and only attribute values changed?  (Cost-minimality is an
/// optimization criterion, not part of the check — finding minimum-cost
/// repairs is NP-complete, Theorem 5.1.)  The default-engine form of
/// [`check_u_repair_with`].
pub fn check_u_repair(
    original: &RelationInstance,
    candidate: &RelationInstance,
    cfds: &[Cfd],
) -> bool {
    check_u_repair_with(&DetectionEngine::new(), original, candidate, cfds)
}

/// [`check_u_repair`] with the consistency verdict computed by a shared
/// [`DetectionEngine`] — callers that check many candidate repairs of the
/// same instance reuse its pooled interned indexes.
pub fn check_u_repair_with(
    engine: &DetectionEngine,
    original: &RelationInstance,
    candidate: &RelationInstance,
    cfds: &[Cfd],
) -> bool {
    preserves_tuple_identities(original, candidate)
        && engine.detect_cfd_violations(candidate, cfds).is_clean()
}

/// The structural half of U-repair checking: the candidate keeps exactly
/// the original's tuple ids (only attribute values may differ).
fn preserves_tuple_identities(original: &RelationInstance, candidate: &RelationInstance) -> bool {
    original.len() == candidate.len()
        && original.iter().all(|(id, _)| candidate.tuple(id).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::Fd;
    use dq_relation::{Domain, RelationSchema};
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

    #[test]
    fn cell_cost_scales_with_weight_and_distance() {
        let mut cost = RepairCost::uniform();
        let near = cost.cell_cost(TupleId(0), 0, &Value::str("EDI"), &Value::str("EDIN"));
        let far = cost.cell_cost(TupleId(0), 0, &Value::str("EDI"), &Value::str("NYC"));
        assert!(near < far);
        cost.weights_mut().set(TupleId(0), 0, 10.0);
        let weighted = cost.cell_cost(TupleId(0), 0, &Value::str("EDI"), &Value::str("NYC"));
        assert!((weighted - 10.0 * far).abs() < 1e-9);
    }

    #[test]
    fn instance_cost_sums_changed_cells_only() {
        let cost = RepairCost::uniform();
        let original = instance(&[("x", "p"), ("y", "q")]);
        let mut repaired = original.clone();
        repaired
            .update_cell(
                dq_relation::instance::CellRef::new(TupleId(0), 1),
                Value::str("r"),
            )
            .unwrap();
        let c = cost.instance_cost(&original, &repaired);
        assert!(c > 0.0);
        assert_eq!(cost.instance_cost(&original, &original), 0.0);
    }

    #[test]
    fn x_repair_checking_subset_consistency_and_maximality() {
        let s = schema();
        let fd = Fd::new(&s, &["A"], &["B"]);
        let constraints = DenialConstraint::from_fd(&fd);
        // Original: two conflicting tuples plus one independent one.
        let original = instance(&[("k", "1"), ("k", "2"), ("z", "3")]);
        // Deleting one side of the conflict is a repair.
        let mut repair = original.clone();
        repair.remove(TupleId(1));
        assert!(check_x_repair(&original, &repair, &constraints));
        // Deleting both conflict tuples is consistent but not maximal.
        let mut not_maximal = original.clone();
        not_maximal.remove(TupleId(0));
        not_maximal.remove(TupleId(1));
        assert!(!check_x_repair(&original, &not_maximal, &constraints));
        // Keeping both conflict tuples is not consistent.
        assert!(!check_x_repair(&original, &original, &constraints));
        // A "repair" with a modified tuple is not a subset.
        let mut tampered = original.clone();
        tampered.remove(TupleId(1));
        tampered
            .update_cell(
                dq_relation::instance::CellRef::new(TupleId(0), 1),
                Value::str("9"),
            )
            .unwrap();
        assert!(!check_x_repair(&original, &tampered, &constraints));
    }

    #[test]
    fn u_repair_checking_requires_same_tuples_and_consistency() {
        let s = schema();
        let cfd = Cfd::from_fd(&Fd::new(&s, &["A"], &["B"]));
        let original = instance(&[("k", "1"), ("k", "2")]);
        // Harmonizing the B values is a U-repair.
        let mut fixed = original.clone();
        fixed
            .update_cell(
                dq_relation::instance::CellRef::new(TupleId(1), 1),
                Value::str("1"),
            )
            .unwrap();
        assert!(check_u_repair(
            &original,
            &fixed,
            std::slice::from_ref(&cfd)
        ));
        // The original itself is inconsistent.
        assert!(!check_u_repair(
            &original,
            &original,
            std::slice::from_ref(&cfd)
        ));
        // Deleting a tuple is outside the U-repair model.
        let mut deleted = original.clone();
        deleted.remove(TupleId(1));
        assert!(!check_u_repair(&original, &deleted, &[cfd]));
    }

    #[test]
    fn repair_log_bookkeeping() {
        let mut log = RepairLog::default();
        log.modified
            .push((TupleId(0), 1, Value::str("a"), Value::str("b")));
        log.deleted.push(TupleId(2));
        assert_eq!(log.change_count(), 2);
        assert!(log.modified_cells().contains(&(TupleId(0), 1)));
    }
}
