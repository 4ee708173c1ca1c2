//! Denial constraints (Section 2.3, Section 5).
//!
//! A denial constraint forbids a combination of tuples:
//! `∀ t1 … tm ¬(R(t1) ∧ … ∧ R(tm) ∧ φ(t1, …, tm))` where `φ` is a conjunction
//! of comparisons over built-in predicates (`=, ≠, <, >, ≤, ≥`) between
//! attributes of the tuple variables and constants.  FDs and keys are the
//! special case with two tuple variables.  Denial constraints are the
//! constraint language used by much of the repairing and consistent query
//! answering literature surveyed in Section 5, and X-repairs for them only
//! ever delete tuples.

use crate::engine::DetectionEngine;
use crate::fd::Fd;
use dq_relation::{CompOp, RelationInstance, Value};
use std::fmt;

/// One side of a comparison inside a denial constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcTerm {
    /// `t_i[attr]`: the attribute `attr` of the `i`-th tuple variable.
    Attr {
        /// Index of the tuple variable (0-based).
        var: usize,
        /// Attribute position.
        attr: usize,
    },
    /// A constant.
    Const(Value),
}

impl DcTerm {
    /// Attribute term helper.
    pub fn attr(var: usize, attr: usize) -> Self {
        DcTerm::Attr { var, attr }
    }

    /// Constant term helper.
    pub fn val(v: impl Into<Value>) -> Self {
        DcTerm::Const(v.into())
    }
}

/// A comparison predicate inside a denial constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DcPredicate {
    /// Left term.
    pub left: DcTerm,
    /// Comparison operator.
    pub op: CompOp,
    /// Right term.
    pub right: DcTerm,
}

impl DcPredicate {
    /// Creates a predicate.
    pub fn new(left: DcTerm, op: CompOp, right: DcTerm) -> Self {
        DcPredicate { left, op, right }
    }
}

/// A denial constraint over a single relation with `vars` tuple variables.
#[derive(Clone, Debug, PartialEq)]
pub struct DenialConstraint {
    /// Relation name the tuple variables range over.
    pub relation: String,
    /// Number of tuple variables (1 or 2 supported by the detector).
    pub vars: usize,
    /// The conjunction `φ` that must not be satisfiable.
    pub predicates: Vec<DcPredicate>,
}

impl DenialConstraint {
    /// Creates a denial constraint.
    pub fn new(relation: impl Into<String>, vars: usize, predicates: Vec<DcPredicate>) -> Self {
        DenialConstraint {
            relation: relation.into(),
            vars,
            predicates,
        }
    }

    /// Expresses an FD `X → Y` as a denial constraint with two tuple
    /// variables: `¬(R(t1) ∧ R(t2) ∧ t1[X]=t2[X] ∧ t1[B]≠t2[B])` for each
    /// `B ∈ Y` (here folded into a single constraint per RHS attribute; this
    /// function returns one constraint per RHS attribute).
    pub fn from_fd(fd: &Fd) -> Vec<DenialConstraint> {
        fd.rhs()
            .iter()
            .map(|&b| {
                let mut predicates: Vec<DcPredicate> = fd
                    .lhs()
                    .iter()
                    .map(|&a| DcPredicate::new(DcTerm::attr(0, a), CompOp::Eq, DcTerm::attr(1, a)))
                    .collect();
                predicates.push(DcPredicate::new(
                    DcTerm::attr(0, b),
                    CompOp::Ne,
                    DcTerm::attr(1, b),
                ));
                DenialConstraint::new(fd.schema().name(), 2, predicates)
            })
            .collect()
    }

    /// Is this denial constraint a key constraint in disguise (two tuple
    /// variables, equalities on a set of attributes, one disequality)?
    pub fn is_fd_shaped(&self) -> bool {
        self.vars == 2
            && self.predicates.iter().all(|p| {
                matches!(
                    (&p.left, &p.right),
                    (DcTerm::Attr { .. }, DcTerm::Attr { .. })
                ) && matches!(p.op, CompOp::Eq | CompOp::Ne)
            })
            && self
                .predicates
                .iter()
                .filter(|p| matches!(p.op, CompOp::Ne))
                .count()
                == 1
    }

    /// Attributes on which the two tuple variables must agree for the
    /// constraint to fire: every predicate of the shape
    /// `t1[a] = t2[a]` (in either variable order).  When non-empty, a
    /// violating pair necessarily lies inside one group of an index on these
    /// attributes, which lets detection skip the quadratic pair scan.
    ///
    /// Returns `None` for constraints that are not two-variable or have no
    /// such equality predicate.
    pub fn pair_partition_attrs(&self) -> Option<Vec<usize>> {
        if self.vars != 2 {
            return None;
        }
        let mut attrs: Vec<usize> = self
            .predicates
            .iter()
            .filter(|p| matches!(p.op, CompOp::Eq))
            .filter_map(|p| match (&p.left, &p.right) {
                (DcTerm::Attr { var: v1, attr: a1 }, DcTerm::Attr { var: v2, attr: a2 })
                    if a1 == a2 && ((*v1 == 0 && *v2 == 1) || (*v1 == 1 && *v2 == 0)) =>
                {
                    Some(*a1)
                }
                _ => None,
            })
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        if attrs.is_empty() {
            None
        } else {
            Some(attrs)
        }
    }

    /// Does the instance satisfy this denial constraint?  The
    /// default-engine form of [`DetectionEngine::detect_denial_violations`];
    /// checks over many constraints should share one engine.
    ///
    /// # Panics
    /// Panics on a constraint with other than one or two tuple variables.
    pub fn holds_on(&self, instance: &RelationInstance) -> bool {
        DetectionEngine::new().detect_denial_violations(instance, std::slice::from_ref(self))[0]
            .is_empty()
    }
}

impl fmt::Display for DenialConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "¬({} tuple variable(s) over {}, {} predicate(s))",
            self.vars,
            self.relation,
            self.predicates.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema, TupleId};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "emp",
            [
                ("name", Domain::Text),
                ("dept", Domain::Text),
                ("salary", Domain::Int),
                ("bonus", Domain::Int),
            ],
        ))
    }

    fn instance(rows: &[(&str, &str, i64, i64)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (n, d, s, b) in rows {
            inst.insert_values([
                Value::str(*n),
                Value::str(*d),
                Value::int(*s),
                Value::int(*b),
            ])
            .unwrap();
        }
        inst
    }

    #[test]
    fn single_variable_range_constraint() {
        // No bonus may exceed the salary: ¬(emp(t) ∧ t.bonus > t.salary).
        let dc = DenialConstraint::new(
            "emp",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 3),
                CompOp::Gt,
                DcTerm::attr(0, 2),
            )],
        );
        let ok = instance(&[("a", "cs", 100, 10), ("b", "ee", 80, 80)]);
        assert!(dc.holds_on(&ok));
        let bad = instance(&[("a", "cs", 100, 10), ("b", "ee", 80, 90)]);
        let v = DetectionEngine::new().detect_denial_violations(&bad, &[dc]);
        assert_eq!(v, vec![vec![vec![TupleId(1)]]]);
    }

    #[test]
    fn fd_as_denial_constraint_agrees_with_fd_semantics() {
        let s = schema();
        let fd = Fd::new(&s, &["name"], &["dept"]);
        let dcs = DenialConstraint::from_fd(&fd);
        assert_eq!(dcs.len(), 1);
        assert!(dcs[0].is_fd_shaped());
        let consistent = instance(&[("a", "cs", 1, 0), ("b", "ee", 2, 0)]);
        let inconsistent = instance(&[("a", "cs", 1, 0), ("a", "ee", 2, 0)]);
        assert_eq!(fd.holds_on(&consistent), dcs[0].holds_on(&consistent));
        assert_eq!(fd.holds_on(&inconsistent), dcs[0].holds_on(&inconsistent));
        let v = DetectionEngine::new().detect_denial_violations(&inconsistent, &dcs);
        assert_eq!(v[0].len(), 1);
    }

    #[test]
    fn two_variable_constraint_with_ordering() {
        // Nobody in the same department may earn more than twice a colleague:
        // ¬(emp(t1) ∧ emp(t2) ∧ t1.dept = t2.dept ∧ t1.salary > t2.salary ∧ t1.bonus > t2.salary)
        // simplified: within a department, a salary must not exceed another
        // salary while bonus also exceeds it.
        let dc = DenialConstraint::new(
            "emp",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Eq, DcTerm::attr(1, 1)),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Gt, DcTerm::attr(1, 2)),
                DcPredicate::new(DcTerm::attr(0, 3), CompOp::Gt, DcTerm::attr(1, 2)),
            ],
        );
        let bad = instance(&[("a", "cs", 100, 60), ("b", "cs", 50, 0)]);
        assert!(!dc.holds_on(&bad));
        let ok = instance(&[("a", "cs", 100, 40), ("b", "cs", 50, 0), ("c", "ee", 10, 9)]);
        assert!(ok.len() == 3 && dc.holds_on(&ok));
    }

    #[test]
    fn constants_in_predicates() {
        // Salaries in the toy department are fixed at 10.
        let dc = DenialConstraint::new(
            "emp",
            1,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Eq, DcTerm::val("toy")),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Ne, DcTerm::val(10i64)),
            ],
        );
        let bad = instance(&[("a", "toy", 12, 0)]);
        assert!(!dc.holds_on(&bad));
        let ok = instance(&[("a", "toy", 10, 0), ("b", "cs", 12, 0)]);
        assert!(dc.holds_on(&ok));
    }

    #[test]
    fn pairs_are_reported_once() {
        let s = schema();
        let fd = Fd::new(&s, &["dept"], &["name"]);
        let dc = &DenialConstraint::from_fd(&fd)[0];
        let inst = instance(&[("a", "cs", 1, 0), ("b", "cs", 2, 0), ("c", "cs", 3, 0)]);
        // Three unordered pairs of distinct names in the same department.
        let v = DetectionEngine::new().detect_denial_violations(&inst, std::slice::from_ref(dc));
        assert_eq!(v[0].len(), 3);
    }
}
