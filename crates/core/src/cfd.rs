//! Conditional functional dependencies (CFDs), Section 2.1.
//!
//! A CFD `ϕ = R(X → Y, Tp)` pairs a standard FD `X → Y` (the *embedded FD*)
//! with a *pattern tableau* `Tp` over `X ∪ Y` whose entries are constants or
//! the unnamed variable `_`.  An instance `D` satisfies `ϕ` iff for every
//! pattern tuple `tp ∈ Tp` and every pair of tuples `t1, t2 ∈ D`:
//! if `t1[X] = t2[X] ≍ tp[X]` then `t1[Y] = t2[Y] ≍ tp[Y]`.
//!
//! Because the pair `(t, t)` is allowed, a pattern tuple with a constant in
//! its RHS also constrains *single* tuples (e.g. `cfd2` of the paper forces
//! `city = EDI` for every UK/131 tuple), which is why CFD violations come in
//! two flavours: single-tuple (constant) violations and tuple-pair (variable)
//! violations.  Traditional FDs are the special case of a single all-`_`
//! pattern tuple.

use crate::fd::Fd;
use crate::pattern::{PatternTuple, PatternValue};
use dq_relation::{DqError, DqResult, HashIndex, RelationInstance, RelationSchema, TupleId, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A conditional functional dependency.
#[derive(Clone, Debug, PartialEq)]
pub struct Cfd {
    schema: Arc<RelationSchema>,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    tableau: Vec<PatternTuple>,
}

impl Cfd {
    /// Creates a CFD from attribute names and a pattern tableau.
    ///
    /// Validates that the tableau rows have the right widths and that every
    /// constant belongs to the domain of its attribute.
    pub fn new(
        schema: &Arc<RelationSchema>,
        lhs: &[&str],
        rhs: &[&str],
        tableau: Vec<PatternTuple>,
    ) -> DqResult<Self> {
        let lhs_idx: Vec<usize> = lhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        let rhs_idx: Vec<usize> = rhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        let cfd = Cfd {
            schema: Arc::clone(schema),
            lhs: lhs_idx,
            rhs: rhs_idx,
            tableau,
        };
        cfd.validate()?;
        Ok(cfd)
    }

    /// Creates a CFD from attribute positions.
    pub fn from_indices(
        schema: &Arc<RelationSchema>,
        lhs: Vec<usize>,
        rhs: Vec<usize>,
        tableau: Vec<PatternTuple>,
    ) -> DqResult<Self> {
        let cfd = Cfd {
            schema: Arc::clone(schema),
            lhs,
            rhs,
            tableau,
        };
        cfd.validate()?;
        Ok(cfd)
    }

    /// Lifts a traditional FD into a CFD with a single all-`_` pattern tuple.
    pub fn from_fd(fd: &Fd) -> Self {
        Cfd {
            schema: Arc::clone(fd.schema()),
            lhs: fd.lhs().to_vec(),
            rhs: fd.rhs().to_vec(),
            tableau: vec![PatternTuple::all_wildcards(fd.lhs().len(), fd.rhs().len())],
        }
    }

    fn validate(&self) -> DqResult<()> {
        if self.lhs.is_empty() && self.rhs.is_empty() {
            return Err(DqError::MalformedDependency {
                reason: "CFD with empty LHS and RHS".into(),
            });
        }
        for tp in &self.tableau {
            if tp.lhs.len() != self.lhs.len() || tp.rhs.len() != self.rhs.len() {
                return Err(DqError::MalformedDependency {
                    reason: format!(
                        "pattern tuple {tp} has wrong width for X of size {} and Y of size {}",
                        self.lhs.len(),
                        self.rhs.len()
                    ),
                });
            }
            for (p, &attr) in tp
                .lhs
                .iter()
                .zip(&self.lhs)
                .chain(tp.rhs.iter().zip(&self.rhs))
            {
                if let PatternValue::Const(v) = p {
                    if !self.schema.domain(attr).contains(v) {
                        return Err(DqError::MalformedDependency {
                            reason: format!(
                                "pattern constant `{v}` outside the domain of `{}`",
                                self.schema.attr_name(attr)
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The relation schema the CFD is defined on.
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

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternTuple] {
        &self.tableau
    }

    /// The embedded traditional FD `X → Y`.
    pub fn embedded_fd(&self) -> Fd {
        Fd::from_indices(&self.schema, self.lhs.clone(), self.rhs.clone())
    }

    /// Is this CFD a traditional FD (single all-`_` pattern tuple)?
    pub fn is_traditional_fd(&self) -> bool {
        self.tableau.len() == 1 && self.tableau[0].is_all_wildcards()
    }

    /// Is this a *constant* CFD (every pattern entry of every row a constant)?
    /// Constant CFDs are single-tuple assertions and play a special role in
    /// consistency analysis.
    pub fn is_constant(&self) -> bool {
        self.tableau
            .iter()
            .all(|tp| tp.lhs.iter().all(|p| !p.is_any()) && tp.rhs.iter().all(|p| !p.is_any()))
    }

    /// Total size of the CFD: number of attributes times number of pattern
    /// tuples (the `n` of Table 1).
    pub fn size(&self) -> usize {
        (self.lhs.len() + self.rhs.len()) * self.tableau.len().max(1)
    }

    /// Normalizes the CFD into an equivalent set of CFDs each having a single
    /// pattern tuple and a single RHS attribute — the normal form used by the
    /// consistency, implication and repair algorithms.
    pub fn normalize(&self) -> Vec<Cfd> {
        let mut out = Vec::with_capacity(self.tableau.len() * self.rhs.len());
        for tp in &self.tableau {
            for (k, &b) in self.rhs.iter().enumerate() {
                out.push(Cfd {
                    schema: Arc::clone(&self.schema),
                    lhs: self.lhs.clone(),
                    rhs: vec![b],
                    tableau: vec![PatternTuple::new(tp.lhs.clone(), vec![tp.rhs[k].clone()])],
                });
            }
        }
        out
    }

    /// Does `instance` satisfy this CFD (`D ⊨ ϕ`)?
    pub fn holds_on(&self, instance: &RelationInstance) -> bool {
        self.violations(instance).is_empty()
    }

    /// All violations of this CFD in `instance`.
    ///
    /// Detection follows the two-pass strategy of [36]: a scan finds
    /// single-tuple violations of constant RHS patterns, and a hash
    /// partitioning on `X` finds pairs that agree on `X`, match a pattern,
    /// and disagree on `Y`.  Builds a fresh index on `X`; detection over many
    /// dependencies should share indexes through
    /// [`crate::engine::DetectionEngine`] instead.
    pub fn violations(&self, instance: &RelationInstance) -> Vec<CfdViolation> {
        let index = HashIndex::build(instance, &self.lhs);
        self.violations_with_index(instance, &index)
    }

    /// All violations of this CFD in `instance`, probing a caller-supplied
    /// index of `instance` on exactly [`lhs`](Self::lhs).
    ///
    /// Violations are returned in canonical (sorted) order, so any two
    /// detection paths over the same instance produce identical reports
    /// regardless of index iteration order.
    pub fn violations_with_index(
        &self,
        instance: &RelationInstance,
        index: &HashIndex,
    ) -> Vec<CfdViolation> {
        debug_assert_eq!(
            index.attrs(),
            self.lhs.as_slice(),
            "index keyed off the CFD's LHS"
        );
        let mut out = Vec::new();
        // Pass 1: single-tuple (constant) violations.
        for (pattern_idx, tp) in self.tableau.iter().enumerate() {
            let has_rhs_constant = tp.rhs.iter().any(|p| !p.is_any());
            if !has_rhs_constant {
                continue;
            }
            for (id, tuple) in instance.iter() {
                if tp.lhs_matches(tuple, &self.lhs) && !tp.rhs_matches(tuple, &self.rhs) {
                    out.push(CfdViolation::SingleTuple {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
        // Pass 2: tuple-pair (variable) violations, via grouping on X.
        //
        // Within a group, a pair violates iff the two tuples differ in their
        // Y-projection, so partitioning the group by that projection replaces
        // the quadratic pair scan with work linear in the group plus the
        // violations actually reported: clean groups (one sub-partition) cost
        // O(|group|), and only cross-partition pairs are enumerated.
        let mut by_rhs: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
        for (key, group) in index.multi_groups() {
            let matching_patterns: Vec<usize> = self
                .tableau
                .iter()
                .enumerate()
                .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
                .map(|(i, _)| i)
                .collect();
            if matching_patterns.is_empty() {
                continue;
            }
            by_rhs.clear();
            for &id in group {
                let tuple = instance.tuple(id).expect("live tuple");
                by_rhs.entry(tuple.project(&self.rhs)).or_default().push(id);
            }
            if by_rhs.len() < 2 {
                continue; // the whole group agrees on Y
            }
            let partitions: Vec<&Vec<TupleId>> = by_rhs.values().collect();
            for (i, first_part) in partitions.iter().enumerate() {
                for second_part in &partitions[i + 1..] {
                    for &a in *first_part {
                        for &b in *second_part {
                            let (first, second) = if a < b { (a, b) } else { (b, a) };
                            for &p in &matching_patterns {
                                out.push(CfdViolation::TuplePair {
                                    pattern: p,
                                    first,
                                    second,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Canonical order: hash-map group iteration is nondeterministic, and
        // downstream equality of reports relies on a stable order.
        out.sort_unstable();
        out
    }

    /// The set of tuples involved in at least one violation of this CFD.
    pub fn violating_tuples(&self, instance: &RelationInstance) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self
            .violations(instance)
            .into_iter()
            .flat_map(|v| v.tuples())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

impl fmt::Display for Cfd {
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
            "{}([{}] -> [{}], {{",
            self.schema.name(),
            names(&self.lhs),
            names(&self.rhs)
        )?;
        for (i, tp) in self.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{tp}")?;
        }
        write!(f, "}})")
    }
}

/// A violation of a single CFD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CfdViolation {
    /// A single tuple matches a pattern's LHS but fails a constant binding of
    /// the pattern's RHS.
    SingleTuple {
        /// Index of the offending pattern tuple within the tableau.
        pattern: usize,
        /// The violating tuple.
        tuple: TupleId,
    },
    /// Two tuples agree on `X`, match a pattern's LHS, but disagree on `Y`.
    TuplePair {
        /// Index of the offending pattern tuple within the tableau.
        pattern: usize,
        /// First tuple of the pair.
        first: TupleId,
        /// Second tuple of the pair.
        second: TupleId,
    },
}

impl CfdViolation {
    /// The tuples involved in the violation.
    pub fn tuples(&self) -> Vec<TupleId> {
        match self {
            CfdViolation::SingleTuple { tuple, .. } => vec![*tuple],
            CfdViolation::TuplePair { first, second, .. } => vec![*first, *second],
        }
    }

    /// The index of the pattern tuple that is violated.
    pub fn pattern(&self) -> usize {
        match self {
            CfdViolation::SingleTuple { pattern, .. } => *pattern,
            CfdViolation::TuplePair { pattern, .. } => *pattern,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{cst, wild};
    use dq_relation::{Domain, Value};

    /// The customer schema of Fig. 1.
    pub fn customer_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("phn", Domain::Int),
                ("name", Domain::Text),
                ("street", Domain::Text),
                ("city", Domain::Text),
                ("zip", Domain::Text),
            ],
        ))
    }

    /// The instance D0 of Fig. 1.
    pub fn d0(schema: &Arc<RelationSchema>) -> RelationInstance {
        let mut inst = RelationInstance::new(Arc::clone(schema));
        for (cc, ac, phn, name, street, city, zip) in [
            (44, 131, 1234567, "Mike", "Mayfield", "NYC", "EH4 8LE"),
            (44, 131, 3456789, "Rick", "Crichton", "NYC", "EH4 8LE"),
            (1, 908, 3456789, "Joe", "Mtn Ave", "NYC", "07974"),
        ] {
            inst.insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::int(phn),
                Value::str(name),
                Value::str(street),
                Value::str(city),
                Value::str(zip),
            ])
            .unwrap();
        }
        inst
    }

    /// ϕ1 of Fig. 2: ([CC, zip] → [street], {(44, _ ‖ _)}).
    fn phi1(schema: &Arc<RelationSchema>) -> Cfd {
        Cfd::new(
            schema,
            &["CC", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
        )
        .unwrap()
    }

    /// ϕ2 of Fig. 2: ([CC, AC, phn] → [street, city, zip], T2).
    fn phi2(schema: &Arc<RelationSchema>) -> Cfd {
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
        .unwrap()
    }

    /// ϕ3 of Fig. 2: ([CC, AC] → [city], {(_, _ ‖ _)}).
    fn phi3(schema: &Arc<RelationSchema>) -> Cfd {
        Cfd::new(
            schema,
            &["CC", "AC"],
            &["city"],
            vec![PatternTuple::all_wildcards(2, 1)],
        )
        .unwrap()
    }

    #[test]
    fn d0_satisfies_phi3_but_not_phi1_or_phi2() {
        let s = customer_schema();
        let d = d0(&s);
        assert!(phi3(&s).holds_on(&d));
        assert!(!phi1(&s).holds_on(&d));
        assert!(!phi2(&s).holds_on(&d));
    }

    #[test]
    fn phi1_violation_is_the_pair_t1_t2() {
        let s = customer_schema();
        let d = d0(&s);
        let v = phi1(&s).violations(&d);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0],
            CfdViolation::TuplePair {
                pattern: 0,
                first: TupleId(0),
                second: TupleId(1)
            }
        );
    }

    #[test]
    fn phi2_single_tuple_violations_cover_all_three_tuples() {
        let s = customer_schema();
        let d = d0(&s);
        let cfd = phi2(&s);
        let violating = cfd.violating_tuples(&d);
        // t1 and t2 violate the (44, 131, _) pattern; t3 violates (01, 908, _).
        assert_eq!(violating, vec![TupleId(0), TupleId(1), TupleId(2)]);
        let singles = cfd
            .violations(&d)
            .into_iter()
            .filter(|v| matches!(v, CfdViolation::SingleTuple { .. }))
            .count();
        assert_eq!(singles, 3);
    }

    #[test]
    fn traditional_fd_embedding_round_trips() {
        let s = customer_schema();
        let fd = Fd::new(&s, &["CC", "AC"], &["city"]);
        let cfd = Cfd::from_fd(&fd);
        assert!(cfd.is_traditional_fd());
        assert_eq!(cfd.embedded_fd().lhs(), fd.lhs());
        let d = d0(&s);
        assert_eq!(cfd.holds_on(&d), fd.holds_on(&d));
    }

    #[test]
    fn normalization_splits_patterns_and_rhs() {
        let s = customer_schema();
        let cfd = phi2(&s);
        let normalized = cfd.normalize();
        assert_eq!(normalized.len(), 3 * 3);
        for n in &normalized {
            assert_eq!(n.rhs().len(), 1);
            assert_eq!(n.tableau().len(), 1);
        }
        // Normalization preserves satisfaction.
        let d = d0(&s);
        assert_eq!(cfd.holds_on(&d), normalized.iter().all(|n| n.holds_on(&d)));
    }

    #[test]
    fn malformed_cfds_are_rejected() {
        let s = customer_schema();
        // Wrong pattern width.
        assert!(Cfd::new(
            &s,
            &["CC", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![cst(44)], vec![wild()])]
        )
        .is_err());
        // Constant outside the attribute's domain.
        assert!(Cfd::new(
            &s,
            &["CC"],
            &["street"],
            vec![PatternTuple::new(vec![cst("not an int")], vec![wild()])]
        )
        .is_err());
        // Unknown attribute.
        assert!(Cfd::new(&s, &["CC", "zipcode"], &["street"], vec![]).is_err());
    }

    #[test]
    fn constant_cfd_classification() {
        let s = customer_schema();
        let constant = Cfd::new(
            &s,
            &["CC"],
            &["city"],
            vec![PatternTuple::new(vec![cst(44)], vec![cst("EDI")])],
        )
        .unwrap();
        assert!(constant.is_constant());
        assert!(!phi1(&s).is_constant());
    }

    #[test]
    fn fixing_the_city_attribute_repairs_phi2_constant_violations() {
        let s = customer_schema();
        let mut d = d0(&s);
        let city = s.attr("city");
        d.update_cell(
            dq_relation::instance::CellRef::new(TupleId(0), city),
            Value::str("EDI"),
        )
        .unwrap();
        d.update_cell(
            dq_relation::instance::CellRef::new(TupleId(1), city),
            Value::str("EDI"),
        )
        .unwrap();
        d.update_cell(
            dq_relation::instance::CellRef::new(TupleId(2), city),
            Value::str("MH"),
        )
        .unwrap();
        assert!(phi2(&s).holds_on(&d));
        // phi1 is still violated: same zip, different street in the UK.
        assert!(!phi1(&s).holds_on(&d));
    }

    #[test]
    fn interned_detection_equals_value_detection() {
        use dq_relation::{InternedIndex, StoreShardSource};
        let s = customer_schema();
        let d = d0(&s);
        let source = StoreShardSource::new(&d);
        let kernel = |cfd: &Cfd| {
            let index = InternedIndex::build(&d, source.store(), cfd.lhs(), 1);
            crate::stream::cfd_violations(cfd, &source, index.multi_group_rows()).to_violations()
        };
        for cfd in [phi1(&s), phi2(&s), phi3(&s)] {
            assert_eq!(kernel(&cfd), cfd.violations(&d), "{cfd}");
        }
        // A pattern constant absent from the instance matches nothing.
        let ghost = Cfd::new(
            &s,
            &["CC"],
            &["city"],
            vec![PatternTuple::new(vec![cst(999)], vec![cst("Nowhere")])],
        )
        .unwrap();
        assert_eq!(kernel(&ghost), ghost.violations(&d));
        assert!(kernel(&ghost).is_empty());
    }

    #[test]
    fn display_mentions_tableau() {
        let s = customer_schema();
        let text = phi1(&s).to_string();
        assert!(text.contains("customer([CC, zip] -> [street]"));
        assert!(text.contains("44"));
    }

    #[test]
    fn size_counts_attributes_times_patterns() {
        let s = customer_schema();
        assert_eq!(phi2(&s).size(), 6 * 3);
    }
}
