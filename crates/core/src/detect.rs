//! Error detection: finding all violations of a set of conditional
//! dependencies in a database.
//!
//! This is the "catching inconsistencies" step of the paper's programme
//! (Section 1): errors *are* violations of the dependencies.  The detectors
//! here aggregate per-dependency violations into a report that repairing
//! (`dq-repair`) and the experiment harness consume, and include an
//! incremental variant used when new tuples are appended to an already
//! checked instance.

use crate::cfd::{Cfd, CfdViolation};
use crate::cind::{Cind, CindViolation};
use crate::denial::DenialConstraint;
use crate::ecfd::{Ecfd, EcfdViolation};
use dq_relation::{Database, DqResult, HashIndex, RelationInstance, TupleId};
use std::collections::BTreeSet;

/// Violations of a set of CFDs over a single relation instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CfdViolationReport {
    per_dependency: Vec<Vec<CfdViolation>>,
}

impl CfdViolationReport {
    /// Assembles a report from per-dependency violation lists (positionally
    /// aligned with the dependency set that produced them).
    pub fn from_per_dependency(per_dependency: Vec<Vec<CfdViolation>>) -> Self {
        CfdViolationReport { per_dependency }
    }

    /// The per-dependency violation lists, in dependency order.
    pub fn per_dependency(&self) -> &[Vec<CfdViolation>] {
        &self.per_dependency
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[CfdViolation] {
        &self.per_dependency[i]
    }

    /// All `(dependency index, violation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CfdViolation)> {
        self.per_dependency
            .iter()
            .enumerate()
            .flat_map(|(i, vs)| vs.iter().map(move |v| (i, v)))
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        self.per_dependency.iter().map(|v| v.len()).sum()
    }

    /// Is the instance clean with respect to every dependency?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// The distinct tuples involved in at least one violation.
    pub fn violating_tuples(&self) -> Vec<TupleId> {
        let set: BTreeSet<TupleId> = self.iter().flat_map(|(_, v)| v.tuples()).collect();
        set.into_iter().collect()
    }

    /// Number of dependencies that are violated at least once.
    pub fn violated_dependencies(&self) -> usize {
        self.per_dependency.iter().filter(|v| !v.is_empty()).count()
    }
}

/// Detects all violations of `cfds` in `instance`.
pub fn detect_cfd_violations(instance: &RelationInstance, cfds: &[Cfd]) -> CfdViolationReport {
    CfdViolationReport {
        per_dependency: cfds.iter().map(|c| c.violations(instance)).collect(),
    }
}

/// Incremental detection: assuming `instance` minus the tuples in `added` was
/// already clean (or already reported), finds only the violations involving
/// at least one tuple of `added`.
///
/// Constant (single-tuple) violations are checked on the added tuples alone;
/// variable violations are found by probing the full index with the added
/// tuples' LHS keys, so the cost is proportional to the added data plus the
/// size of the touched groups rather than the whole instance being re-paired.
pub fn detect_cfd_violations_incremental(
    instance: &RelationInstance,
    cfds: &[Cfd],
    added: &[TupleId],
) -> CfdViolationReport {
    let per_dependency = cfds
        .iter()
        .map(|cfd| {
            let index = HashIndex::build(instance, cfd.lhs());
            incremental_cfd_violations_with_index(instance, cfd, added, &index)
        })
        .collect();
    CfdViolationReport { per_dependency }
}

/// The per-dependency core of incremental detection, probing a
/// caller-supplied index of `instance` on exactly the CFD's LHS — the
/// reference [`crate::engine::DetectionEngine::detect_cfd_violations_incremental`]
/// is checked against.
pub fn incremental_cfd_violations_with_index(
    instance: &RelationInstance,
    cfd: &Cfd,
    added: &[TupleId],
    index: &HashIndex,
) -> Vec<CfdViolation> {
    debug_assert_eq!(index.attrs(), cfd.lhs(), "index keyed off the CFD's LHS");
    let mut violations = Vec::new();
    // Single-tuple violations among the added tuples.
    for (pattern_idx, tp) in cfd.tableau().iter().enumerate() {
        if tp.rhs.iter().all(|p| p.is_any()) {
            continue;
        }
        for &id in added {
            if let Some(tuple) = instance.tuple(id) {
                if tp.lhs_matches(tuple, cfd.lhs()) && !tp.rhs_matches(tuple, cfd.rhs()) {
                    violations.push(CfdViolation::SingleTuple {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
    }
    // Pair violations involving an added tuple.
    {
        let mut seen_pairs: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
        for &id in added {
            let Some(tuple) = instance.tuple(id) else {
                continue;
            };
            let key = tuple.project(cfd.lhs());
            let matching_patterns: Vec<usize> = cfd
                .tableau()
                .iter()
                .enumerate()
                .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
                .map(|(i, _)| i)
                .collect();
            if matching_patterns.is_empty() {
                continue;
            }
            for &other in index.get(&key) {
                if other == id {
                    continue;
                }
                // Report each unordered pair once; pairs entirely inside the
                // old data never reach this loop because `id` is added.
                let pair = if other < id { (other, id) } else { (id, other) };
                if !seen_pairs.insert(pair) {
                    continue;
                }
                let a = instance.tuple(pair.0).expect("live tuple");
                let b = instance.tuple(pair.1).expect("live tuple");
                if !a.agree_on(b, cfd.rhs()) {
                    for &p in &matching_patterns {
                        violations.push(CfdViolation::TuplePair {
                            pattern: p,
                            first: pair.0,
                            second: pair.1,
                        });
                    }
                }
            }
        }
    }
    violations.sort();
    violations.dedup();
    violations
}

/// Violations of a set of CINDs over a database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CindViolationReport {
    per_dependency: Vec<Vec<CindViolation>>,
}

impl CindViolationReport {
    /// Assembles a report from per-dependency violation lists.
    pub fn from_per_dependency(per_dependency: Vec<Vec<CindViolation>>) -> Self {
        CindViolationReport { per_dependency }
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[CindViolation] {
        &self.per_dependency[i]
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        self.per_dependency.iter().map(|v| v.len()).sum()
    }

    /// Is the database clean with respect to every CIND?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// All `(dependency index, violation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CindViolation)> {
        self.per_dependency
            .iter()
            .enumerate()
            .flat_map(|(i, vs)| vs.iter().map(move |v| (i, v)))
    }
}

/// Detects all violations of `cinds` in `db`.
pub fn detect_cind_violations(db: &Database, cinds: &[Cind]) -> DqResult<CindViolationReport> {
    let per_dependency = cinds
        .iter()
        .map(|c| c.violations(db))
        .collect::<DqResult<Vec<_>>>()?;
    Ok(CindViolationReport { per_dependency })
}

/// Violations of a set of eCFDs over an instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcfdViolationReport {
    per_dependency: Vec<Vec<EcfdViolation>>,
}

impl EcfdViolationReport {
    /// Assembles a report from per-dependency violation lists.
    pub fn from_per_dependency(per_dependency: Vec<Vec<EcfdViolation>>) -> Self {
        EcfdViolationReport { per_dependency }
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[EcfdViolation] {
        &self.per_dependency[i]
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        self.per_dependency.iter().map(|v| v.len()).sum()
    }

    /// Is the instance clean?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// Detects all violations of `ecfds` in `instance`.
pub fn detect_ecfd_violations(instance: &RelationInstance, ecfds: &[Ecfd]) -> EcfdViolationReport {
    EcfdViolationReport {
        per_dependency: ecfds.iter().map(|e| e.violations(instance)).collect(),
    }
}

/// Detects all violations of a set of denial constraints in `instance`.
/// Returns, per constraint, the violating tuple combinations.
pub fn detect_denial_violations(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> Vec<Vec<Vec<TupleId>>> {
    constraints.iter().map(|d| d.violations(instance)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::{Domain, RelationSchema, Value};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("phn", Domain::Int),
                ("street", Domain::Text),
                ("city", Domain::Text),
                ("zip", Domain::Text),
            ],
        ))
    }

    fn d0(schema: &Arc<RelationSchema>) -> RelationInstance {
        let mut inst = RelationInstance::new(Arc::clone(schema));
        for (cc, ac, phn, street, city, zip) in [
            (44, 131, 1234567, "Mayfield", "NYC", "EH4 8LE"),
            (44, 131, 3456789, "Crichton", "NYC", "EH4 8LE"),
            (1, 908, 3456789, "Mtn Ave", "NYC", "07974"),
        ] {
            inst.insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::int(phn),
                Value::str(street),
                Value::str(city),
                Value::str(zip),
            ])
            .unwrap();
        }
        inst
    }

    fn paper_cfds(schema: &Arc<RelationSchema>) -> Vec<Cfd> {
        vec![
            Cfd::new(
                schema,
                &["CC", "zip"],
                &["street"],
                vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
            )
            .unwrap(),
            Cfd::new(
                schema,
                &["CC", "AC", "phn"],
                &["street", "city", "zip"],
                vec![
                    PatternTuple::all_wildcards(3, 3),
                    PatternTuple::new(
                        vec![cst(44), cst(131), wild()],
                        vec![wild(), cst("EDI"), wild()],
                    ),
                    PatternTuple::new(
                        vec![cst(1), cst(908), wild()],
                        vec![wild(), cst("MH"), wild()],
                    ),
                ],
            )
            .unwrap(),
            Cfd::new(
                schema,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn report_aggregates_the_paper_violations() {
        let s = schema();
        let d = d0(&s);
        let report = detect_cfd_violations(&d, &paper_cfds(&s));
        // ϕ1: one pair violation; ϕ2: three single-tuple violations; ϕ3: none.
        assert_eq!(report.of(0).len(), 1);
        assert_eq!(report.of(1).len(), 3);
        assert_eq!(report.of(2).len(), 0);
        assert_eq!(report.total(), 4);
        assert_eq!(report.violated_dependencies(), 2);
        assert!(!report.is_clean());
        // Every tuple of D0 is dirty.
        assert_eq!(report.violating_tuples().len(), 3);
    }

    #[test]
    fn clean_instance_yields_clean_report() {
        let s = schema();
        let mut inst = RelationInstance::new(Arc::clone(&s));
        inst.insert_values([
            Value::int(44),
            Value::int(131),
            Value::int(1),
            Value::str("Mayfield"),
            Value::str("EDI"),
            Value::str("EH4"),
        ])
        .unwrap();
        let report = detect_cfd_violations(&inst, &paper_cfds(&s));
        assert!(report.is_clean());
        assert!(report.violating_tuples().is_empty());
    }

    #[test]
    fn incremental_detection_matches_full_detection_on_new_tuples() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        // Start from a clean projection: delete the two dirty UK tuples so the
        // remaining instance has only single-tuple violations already known.
        let baseline = detect_cfd_violations(&d, &cfds);
        // Add a new tuple that collides with t1 on [CC, zip] but has another
        // street, creating a new pair violation of ϕ1.
        let new_id = d
            .insert_values([
                Value::int(44),
                Value::int(131),
                Value::int(9999999),
                Value::str("Lauriston"),
                Value::str("EDI"),
                Value::str("EH4 8LE"),
            ])
            .unwrap();
        let incr = detect_cfd_violations_incremental(&d, &cfds, &[new_id]);
        let full = detect_cfd_violations(&d, &cfds);
        // Every incremental violation involves the new tuple and appears in
        // the full report.
        for (i, v) in incr.iter() {
            assert!(v.tuples().contains(&new_id));
            assert!(full.of(i).contains(v));
        }
        // The number of new violations is the difference between full and
        // baseline counts.
        assert_eq!(incr.total(), full.total() - baseline.total());
        assert!(incr.total() >= 2); // at least the two new ϕ1 pairs
    }

    #[test]
    fn denial_detection_wrapper() {
        let s = schema();
        let d = d0(&s);
        let fd = crate::fd::Fd::new(&s, &["zip"], &["street"]);
        let dcs = DenialConstraint::from_fd(&fd);
        let report = detect_denial_violations(&d, &dcs);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].len(), 1); // t1, t2 share zip but differ on street
    }
}
