//! Traditional functional dependencies and keys.
//!
//! FDs are the baseline the paper revisits: they are always satisfiable, their
//! implication problem is linear (Table 1), and Armstrong's axioms give a
//! finite axiomatization.  This module implements the classical machinery —
//! attribute closure, implication, minimal covers, candidate keys — both as a
//! baseline for the benchmarks and as a building block for CFD reasoning
//! (every CFD embeds a traditional FD).  FD violations are detected as those
//! of the CFD [`Cfd::from_fd`].

use crate::cfd::Cfd;
use dq_relation::{RelationInstance, RelationSchema};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A functional dependency `X → Y` over a relation schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fd {
    schema: Arc<RelationSchema>,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
}

impl Fd {
    /// Creates an FD from attribute names.
    ///
    /// # Panics
    /// Panics if an attribute does not exist (dependencies are static program
    /// data).
    pub fn new(schema: &Arc<RelationSchema>, lhs: &[&str], rhs: &[&str]) -> Self {
        Fd {
            schema: Arc::clone(schema),
            lhs: schema.attrs(lhs),
            rhs: schema.attrs(rhs),
        }
    }

    /// Creates an FD from attribute positions.
    pub fn from_indices(schema: &Arc<RelationSchema>, lhs: Vec<usize>, rhs: Vec<usize>) -> Self {
        Fd {
            schema: Arc::clone(schema),
            lhs,
            rhs,
        }
    }

    /// The relation schema this FD is defined on.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// LHS attribute positions (`X`).
    pub fn lhs(&self) -> &[usize] {
        &self.lhs
    }

    /// RHS attribute positions (`Y`).
    pub fn rhs(&self) -> &[usize] {
        &self.rhs
    }

    /// Does the instance satisfy this FD?  Detected as
    /// [`Cfd::from_fd`] by a default
    /// [`DetectionEngine`](crate::engine::DetectionEngine), so the verdict
    /// costs O(rows) however many pairs violate.
    pub fn holds_on(&self, instance: &RelationInstance) -> bool {
        Cfd::from_fd(self).holds_on(instance)
    }

    /// Is `X` a key of the instance (i.e. does `X → attr(R)` hold)?
    pub fn is_key_of(
        schema: &Arc<RelationSchema>,
        lhs: &[&str],
        instance: &RelationInstance,
    ) -> bool {
        let all: Vec<usize> = (0..schema.arity()).collect();
        Fd::from_indices(schema, schema.attrs(lhs), all).holds_on(instance)
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |attrs: &[usize]| {
            attrs
                .iter()
                .map(|&a| self.schema.attr_name(a).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "{}: [{}] -> [{}]",
            self.schema.name(),
            names(&self.lhs),
            names(&self.rhs)
        )
    }
}

/// Computes the attribute closure `X⁺` of a set of attribute positions under
/// a set of FDs (all over the same schema), in time linear in the total size
/// of the FDs (times the number of passes, bounded by the number of FDs).
pub fn attribute_closure(attrs: &[usize], fds: &[Fd]) -> BTreeSet<usize> {
    let mut closure: BTreeSet<usize> = attrs.iter().copied().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for fd in fds {
            if fd.lhs().iter().all(|a| closure.contains(a))
                && fd.rhs().iter().any(|a| !closure.contains(a))
            {
                closure.extend(fd.rhs().iter().copied());
                changed = true;
            }
        }
    }
    closure
}

/// Does `fds ⊨ fd` (finite implication of FDs, via attribute closure)?
pub fn fd_implies(fds: &[Fd], fd: &Fd) -> bool {
    let closure = attribute_closure(fd.lhs(), fds);
    fd.rhs().iter().all(|a| closure.contains(a))
}

/// Computes a minimal cover of a set of FDs: RHS split into single
/// attributes, redundant FDs removed, and extraneous LHS attributes removed.
pub fn minimal_cover(fds: &[Fd]) -> Vec<Fd> {
    if fds.is_empty() {
        return Vec::new();
    }
    let schema = Arc::clone(fds[0].schema());
    // 1. Split RHS into single attributes.
    let mut cover: Vec<Fd> = Vec::new();
    for fd in fds {
        for &b in fd.rhs() {
            cover.push(Fd::from_indices(&schema, fd.lhs().to_vec(), vec![b]));
        }
    }
    // 2. Remove extraneous LHS attributes.
    let mut i = 0;
    while i < cover.len() {
        let mut lhs = cover[i].lhs().to_vec();
        let rhs = cover[i].rhs().to_vec();
        let mut j = 0;
        while lhs.len() > 1 && j < lhs.len() {
            let mut reduced = lhs.clone();
            reduced.remove(j);
            let candidate = Fd::from_indices(&schema, reduced.clone(), rhs.clone());
            if fd_implies(&cover, &candidate) {
                lhs = reduced;
            } else {
                j += 1;
            }
        }
        cover[i] = Fd::from_indices(&schema, lhs, rhs);
        i += 1;
    }
    // 3. Remove redundant FDs.
    let mut i = 0;
    while i < cover.len() {
        let fd = cover[i].clone();
        let mut rest = cover.clone();
        rest.remove(i);
        if fd_implies(&rest, &fd) {
            cover.remove(i);
        } else {
            i += 1;
        }
    }
    cover
}

/// Enumerates the candidate keys of a schema under a set of FDs (attribute
/// sets that determine every attribute and are minimal with that property).
/// Exponential in the number of attributes; intended for the small schemas of
/// the paper's examples.
pub fn candidate_keys(schema: &Arc<RelationSchema>, fds: &[Fd]) -> Vec<Vec<usize>> {
    let n = schema.arity();
    let all: BTreeSet<usize> = (0..n).collect();
    let mut keys: Vec<Vec<usize>> = Vec::new();
    // Iterate subsets by increasing size so minimality is by construction.
    for mask in 1u64..(1u64 << n) {
        let subset: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if keys.iter().any(|k| k.iter().all(|a| subset.contains(a))) {
            continue; // a subset of this set is already a key
        }
        if attribute_closure(&subset, fds) == all {
            keys.push(subset);
        }
    }
    keys.sort_by_key(|k| (k.len(), k.clone()));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::CfdViolation;
    use crate::engine::DetectionEngine;
    use dq_relation::{Domain, TupleId, Value};

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

    fn paper_instance(schema: &Arc<RelationSchema>) -> RelationInstance {
        // The instance D0 of Fig. 1 (projected on the FD-relevant attributes).
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

    #[test]
    fn paper_instance_satisfies_f1_and_f2() {
        let s = schema();
        let d0 = paper_instance(&s);
        let f1 = Fd::new(&s, &["CC", "AC", "phn"], &["street", "city", "zip"]);
        let f2 = Fd::new(&s, &["CC", "AC"], &["city"]);
        assert!(f1.holds_on(&d0));
        assert!(f2.holds_on(&d0));
    }

    #[test]
    fn violations_are_reported_pairwise() {
        let s = schema();
        let mut d = paper_instance(&s);
        // Make t1 and t2 disagree on city while sharing CC, AC.
        d.update_cell(
            dq_relation::instance::CellRef::new(TupleId(1), 4),
            Value::str("EDI"),
        )
        .unwrap();
        let f2 = Fd::new(&s, &["CC", "AC"], &["city"]);
        let report = DetectionEngine::new().detect_cfd_violations(&d, &[Cfd::from_fd(&f2)]);
        assert_eq!(
            report.of(0),
            [CfdViolation::TuplePair {
                pattern: 0,
                first: TupleId(0),
                second: TupleId(1)
            }]
        );
    }

    #[test]
    fn closure_and_implication() {
        let s = schema();
        let fds = vec![
            Fd::new(&s, &["CC", "AC", "phn"], &["street", "city", "zip"]),
            Fd::new(&s, &["CC", "AC"], &["city"]),
            Fd::new(&s, &["zip"], &["street"]),
        ];
        let closure = attribute_closure(&s.attrs(&["CC", "AC", "phn"]), &fds);
        assert_eq!(closure.len(), 6);
        assert!(fd_implies(
            &fds,
            &Fd::new(&s, &["CC", "AC", "phn"], &["street"])
        ));
        assert!(!fd_implies(&fds, &Fd::new(&s, &["zip"], &["city"])));
        // Reflexivity: X -> X' for X' subset of X.
        assert!(fd_implies(&[], &Fd::new(&s, &["CC", "AC"], &["AC"])));
        // Transitivity through zip -> street.
        assert!(fd_implies(
            &fds,
            &Fd::new(&s, &["CC", "AC", "phn"], &["street"])
        ));
    }

    #[test]
    fn minimal_cover_removes_redundancy() {
        let s = schema();
        let fds = vec![
            Fd::new(&s, &["CC", "AC"], &["city"]),
            // Redundant: implied by the one above.
            Fd::new(&s, &["CC", "AC", "phn"], &["city"]),
            Fd::new(&s, &["zip"], &["street", "city"]),
        ];
        let cover = minimal_cover(&fds);
        // zip -> street, zip -> city, [CC,AC] -> city remain.
        assert_eq!(cover.len(), 3);
        for fd in &cover {
            assert_eq!(fd.rhs().len(), 1);
        }
        // Everything in the original set is still implied by the cover.
        for fd in &fds {
            assert!(fd_implies(&cover, fd));
        }
        // Extraneous LHS attribute is removed.
        assert!(cover
            .iter()
            .all(|fd| fd.lhs() != s.attrs(&["CC", "AC", "phn"]).as_slice()));
    }

    #[test]
    fn candidate_keys_of_example_schema() {
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Int), ("B", Domain::Int), ("C", Domain::Int)],
        ));
        let fds = vec![Fd::new(&s, &["A"], &["B"]), Fd::new(&s, &["B"], &["C"])];
        let keys = candidate_keys(&s, &fds);
        assert_eq!(keys, vec![vec![0]]);

        let fds2 = vec![Fd::new(&s, &["A"], &["B"]), Fd::new(&s, &["B"], &["A"])];
        let keys2 = candidate_keys(&s, &fds2);
        // Both {A, C} and {B, C} are candidate keys.
        assert_eq!(keys2.len(), 2);
    }

    #[test]
    fn is_key_of_detects_duplicates() {
        let s = schema();
        let d0 = paper_instance(&s);
        assert!(!Fd::is_key_of(&s, &["phn"], &d0) || d0.len() < 2);
        assert!(Fd::is_key_of(&s, &["CC", "AC", "phn"], &d0));
    }

    #[test]
    fn display_shows_attribute_names() {
        let s = schema();
        let fd = Fd::new(&s, &["CC", "AC"], &["city"]);
        assert_eq!(fd.to_string(), "customer: [CC, AC] -> [city]");
    }
}
