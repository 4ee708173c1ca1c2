//! Repairing numerical attributes under denial constraints.
//!
//! Section 5.1 cites \[13\] ("complexity and approximation of fixing numerical
//! attributes in databases under integrity constraints") for a repair model
//! in which the *distance moved* by numeric values, not the number of changed
//! cells, is what the repair minimises.  This module implements the
//! single-tuple fragment of that model: denial constraints whose predicates
//! compare an attribute of one tuple with a constant (range constraints such
//! as `¬(salary < 0)` or `¬(age > 150 ∧ status = 'active')`).  A violating
//! tuple is fixed by moving one numeric attribute just far enough to falsify
//! one predicate of the constraint, choosing the cheapest such move.

use dq_core::denial::{DcTerm, DenialConstraint};
use dq_core::engine::DetectionEngine;
use dq_relation::instance::CellRef;
use dq_relation::query::CompOp;
use dq_relation::{Domain, RelationInstance, TupleId, Value};

/// Configuration of the numeric repair.
#[derive(Clone, Debug)]
pub struct NumericRepairConfig {
    /// How far past a strict bound a real-valued attribute is moved (for
    /// integer attributes the step is always 1).
    pub real_step: f64,
    /// Maximum number of passes over the constraints (a pass may expose new
    /// violations when constraints overlap).
    pub max_rounds: usize,
}

impl Default for NumericRepairConfig {
    fn default() -> Self {
        NumericRepairConfig {
            real_step: 0.01,
            max_rounds: 8,
        }
    }
}

/// The outcome of a numeric repair.
#[derive(Clone, Debug)]
pub struct NumericRepairOutcome {
    /// The repaired instance.
    pub repaired: RelationInstance,
    /// Cell changes: `(tuple, attribute, old, new)`.
    pub changes: Vec<(TupleId, usize, Value, Value)>,
    /// Total distance moved, `Σ |new − old|`.
    pub total_shift: f64,
    /// Whether the result satisfies every input constraint.
    pub consistent: bool,
    /// Rounds used.
    pub rounds: usize,
}

/// A candidate single-attribute move that falsifies one predicate.
struct Move {
    attr: usize,
    new_value: Value,
    shift: f64,
}

fn as_numeric(v: &Value) -> Option<f64> {
    v.as_int().map(|i| i as f64).or_else(|| v.as_real())
}

/// The cheapest move falsifying `left op right` for the single tuple bound to
/// variable 0, or `None` when the predicate does not have the
/// attribute-vs-constant shape (or is not numeric).
fn falsifying_move(
    instance: &RelationInstance,
    id: TupleId,
    predicate: &dq_core::denial::DcPredicate,
    real_step: f64,
) -> Option<Move> {
    let (attr, constant, op) = match (&predicate.left, &predicate.right) {
        (DcTerm::Attr { var: 0, attr }, DcTerm::Const(c)) => (*attr, c.clone(), predicate.op),
        // `c op t[A]` is mirrored into `t[A] op' c`.
        (DcTerm::Const(c), DcTerm::Attr { var: 0, attr }) => {
            let mirrored = match predicate.op {
                CompOp::Lt => CompOp::Gt,
                CompOp::Le => CompOp::Ge,
                CompOp::Gt => CompOp::Lt,
                CompOp::Ge => CompOp::Le,
                other => other,
            };
            (*attr, c.clone(), mirrored)
        }
        _ => return None,
    };
    let tuple = instance.tuple(id)?;
    let current = as_numeric(tuple.get(attr))?;
    let bound = as_numeric(&constant)?;
    let is_int =
        matches!(instance.schema().domain(attr), Domain::Int) || tuple.get(attr).as_int().is_some();
    let step = if is_int { 1.0 } else { real_step };

    // The predicate currently holds (that is why the constraint fired); find
    // the nearest value at which it stops holding.
    let target = match op {
        // t[A] > c  → move down to c.
        CompOp::Gt => bound,
        // t[A] >= c → move strictly below c.
        CompOp::Ge => bound - step,
        // t[A] < c  → move up to c.
        CompOp::Lt => bound,
        // t[A] <= c → move strictly above c.
        CompOp::Le => bound + step,
        // t[A] = c  → move off the constant by one step.
        CompOp::Eq => {
            if current <= bound {
                bound - step
            } else {
                bound + step
            }
        }
        // t[A] ≠ c  → move onto the constant.
        CompOp::Ne => bound,
    };
    let new_value = if is_int {
        Value::int(target.round() as i64)
    } else {
        Value::real(target)
    };
    Some(Move {
        attr,
        new_value,
        shift: (target - current).abs(),
    })
}

/// Repairs `instance` against single-tuple numeric denial constraints by
/// moving attribute values minimally.  Constraints with two tuple variables
/// or non-numeric predicates are left to the other repair algorithms and
/// simply reported as unresolved (via `consistent = false`) if they remain
/// violated.
pub fn repair_numeric_violations(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
    config: &NumericRepairConfig,
) -> NumericRepairOutcome {
    let engine = DetectionEngine::new();
    let violations_of = |constraint: &DenialConstraint, instance: &RelationInstance| {
        engine
            .detect_denial_violations(instance, std::slice::from_ref(constraint))
            .remove(0)
    };
    let mut repaired = instance.clone();
    let mut changes = Vec::new();
    let mut total_shift = 0.0;
    let mut rounds = 0;

    while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;
        for constraint in constraints {
            if constraint.vars != 1 {
                continue;
            }
            for violation in violations_of(constraint, &repaired) {
                let &[id] = violation.as_slice() else {
                    continue;
                };
                // Re-check: an earlier fix this round may already cover it.
                let still_violated = violations_of(constraint, &repaired)
                    .iter()
                    .any(|v| v.as_slice() == [id]);
                if !still_violated {
                    continue;
                }
                // Cheapest single-predicate falsification.
                let best = constraint
                    .predicates
                    .iter()
                    .filter_map(|p| falsifying_move(&repaired, id, p, config.real_step))
                    .min_by(|a, b| a.shift.partial_cmp(&b.shift).expect("finite shifts"));
                let Some(mv) = best else { continue };
                let old = repaired
                    .tuple(id)
                    .expect("violating tuple is live")
                    .get(mv.attr)
                    .clone();
                repaired
                    .update_cell(CellRef::new(id, mv.attr), mv.new_value.clone())
                    .expect("numeric moves stay inside the attribute domain");
                changes.push((id, mv.attr, old, mv.new_value));
                total_shift += mv.shift;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let consistent = constraints.iter().all(|c| c.holds_on(&repaired));
    NumericRepairOutcome {
        repaired,
        changes,
        total_shift,
        consistent,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::denial::DcPredicate;
    use dq_relation::RelationSchema;
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "emp",
            [
                ("name", Domain::Text),
                ("age", Domain::Int),
                ("salary", Domain::Real),
            ],
        ))
    }

    fn instance(rows: &[(&str, i64, f64)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (n, a, s) in rows {
            inst.insert_values([Value::str(*n), Value::int(*a), Value::real(*s)])
                .unwrap();
        }
        inst
    }

    /// ¬(age > 150): ages above 150 are impossible.
    fn age_cap() -> DenialConstraint {
        DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 1),
                CompOp::Gt,
                DcTerm::val(150i64),
            )],
        )
    }

    /// ¬(salary < 0): salaries are non-negative.
    fn salary_floor() -> DenialConstraint {
        DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 2),
                CompOp::Lt,
                DcTerm::val(0.0),
            )],
        )
    }

    #[test]
    fn clamps_values_to_the_nearest_bound() {
        let inst = instance(&[("ann", 999, 100.0), ("bob", 40, -50.0), ("eve", 30, 10.0)]);
        let outcome = repair_numeric_violations(
            &inst,
            &[age_cap(), salary_floor()],
            &NumericRepairConfig::default(),
        );
        assert!(outcome.consistent);
        assert_eq!(outcome.changes.len(), 2);
        let ann_age = outcome
            .repaired
            .tuple(TupleId(0))
            .unwrap()
            .get(1)
            .as_int()
            .unwrap();
        assert_eq!(
            ann_age, 150,
            "age moves to the boundary, not some arbitrary value"
        );
        let bob_salary = outcome
            .repaired
            .tuple(TupleId(1))
            .unwrap()
            .get(2)
            .as_real()
            .unwrap();
        assert_eq!(bob_salary, 0.0);
        assert!((outcome.total_shift - (849.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn clean_instance_is_untouched() {
        let inst = instance(&[("ann", 33, 100.0)]);
        let outcome = repair_numeric_violations(
            &inst,
            &[age_cap(), salary_floor()],
            &NumericRepairConfig::default(),
        );
        assert!(outcome.consistent);
        assert!(outcome.changes.is_empty());
        assert_eq!(outcome.total_shift, 0.0);
        assert!(outcome.repaired.same_tuples_as(&inst));
    }

    #[test]
    fn conjunction_is_falsified_by_the_cheapest_predicate() {
        // ¬(age > 60 ∧ salary > 1000): either lowering age below/to 60 or
        // salary to 1000 fixes it; the cheaper move must be chosen.
        let dc = DenialConstraint::new(
            "emp",
            1,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Gt, DcTerm::val(60i64)),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Gt, DcTerm::val(1000.0)),
            ],
        );
        let inst = instance(&[("ann", 61, 5000.0)]);
        let outcome = repair_numeric_violations(&inst, &[dc], &NumericRepairConfig::default());
        assert!(outcome.consistent);
        assert_eq!(outcome.changes.len(), 1);
        let (_, attr, _, new) = &outcome.changes[0];
        assert_eq!(
            *attr, 1,
            "moving age by 1 is cheaper than moving salary by 4000"
        );
        assert_eq!(new.as_int(), Some(60));
        assert!((outcome.total_shift - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strict_and_non_strict_bounds() {
        // ¬(age >= 100) needs age to go to 99; ¬(salary <= 0) needs a step up.
        let dc_age = DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 1),
                CompOp::Ge,
                DcTerm::val(100i64),
            )],
        );
        let dc_sal = DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 2),
                CompOp::Le,
                DcTerm::val(0.0),
            )],
        );
        let inst = instance(&[("ann", 100, 0.0)]);
        let outcome =
            repair_numeric_violations(&inst, &[dc_age, dc_sal], &NumericRepairConfig::default());
        assert!(outcome.consistent);
        let t = outcome.repaired.tuple(TupleId(0)).unwrap();
        assert_eq!(t.get(1).as_int(), Some(99));
        assert!(t.get(2).as_real().unwrap() > 0.0);
    }

    #[test]
    fn two_variable_constraints_are_out_of_scope() {
        // An FD-shaped constraint is ignored (and reported as inconsistent).
        let fd = dq_core::fd::Fd::new(&schema(), &["name"], &["age"]);
        let dcs = DenialConstraint::from_fd(&fd);
        let inst = instance(&[("ann", 30, 1.0), ("ann", 40, 1.0)]);
        let outcome = repair_numeric_violations(&inst, &dcs, &NumericRepairConfig::default());
        assert!(!outcome.consistent);
        assert!(outcome.changes.is_empty());
        assert!(outcome.repaired.same_tuples_as(&inst));
    }

    #[test]
    fn constant_on_the_left_is_handled() {
        // ¬(0 > salary) is the mirrored form of ¬(salary < 0).
        let dc = DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::val(0.0),
                CompOp::Gt,
                DcTerm::attr(0, 2),
            )],
        );
        let inst = instance(&[("ann", 30, -5.0)]);
        let outcome = repair_numeric_violations(&inst, &[dc], &NumericRepairConfig::default());
        assert!(outcome.consistent);
        assert_eq!(
            outcome.repaired.tuple(TupleId(0)).unwrap().get(2).as_real(),
            Some(0.0)
        );
    }
}
