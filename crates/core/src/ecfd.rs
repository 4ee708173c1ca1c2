//! eCFDs: CFDs extended with disjunction and inequality (Section 2.3).
//!
//! An eCFD generalizes the pattern entries of a CFD from a single constant or
//! `_` to a *set* of allowed constants (`∈ S`, disjunction) or a set of
//! excluded constants (`∉ S`, inequality/negation).  The paper's examples:
//!
//! * `ecfd1: CT ∉ {NYC, LI} → AC` — the FD `CT → AC` holds for cities outside
//!   New York City and Long Island;
//! * `ecfd2: CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}` — NYC area codes
//!   are restricted to the listed five.
//!
//! Per \[19\], the added expressive power does not change the complexity of
//! consistency (NP-complete) or implication (coNP-complete); the benches of
//! `dq-bench` measure the two classes side by side.

use crate::engine::DetectionEngine;
use dq_relation::store::FxHashMap;
use dq_relation::{
    Column, DqError, DqResult, InternedIndex, KeyCodec, ProjectionKey, RelationInstance,
    RelationSchema, TupleId, Value, ValueId,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A generalized pattern entry of an eCFD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetPattern {
    /// Matches any value (the unnamed variable `_`).
    Any,
    /// Matches values belonging to the set (disjunction of constants).
    In(BTreeSet<Value>),
    /// Matches values *not* belonging to the set (inequality).
    NotIn(BTreeSet<Value>),
}

impl SetPattern {
    /// The `_` entry.
    pub fn any() -> Self {
        SetPattern::Any
    }

    /// A single-constant entry (plain CFD constant).
    pub fn eq(v: impl Into<Value>) -> Self {
        SetPattern::In([v.into()].into_iter().collect())
    }

    /// An `∈ S` entry.
    pub fn in_set<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        SetPattern::In(values.into_iter().map(Into::into).collect())
    }

    /// A `∉ S` entry.
    pub fn not_in<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        SetPattern::NotIn(values.into_iter().map(Into::into).collect())
    }

    /// Does a data value match this entry?
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            SetPattern::Any => true,
            SetPattern::In(s) => s.contains(v),
            SetPattern::NotIn(s) => !s.contains(v),
        }
    }

    /// Constants mentioned by the entry (used by consistency analysis to
    /// bound the search space).
    pub fn constants(&self) -> Vec<Value> {
        match self {
            SetPattern::Any => Vec::new(),
            SetPattern::In(s) | SetPattern::NotIn(s) => s.iter().cloned().collect(),
        }
    }
}

impl fmt::Display for SetPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetPattern::Any => write!(f, "_"),
            SetPattern::In(s) => {
                let items: Vec<String> = s.iter().map(|v| v.to_string()).collect();
                write!(f, "∈ {{{}}}", items.join(", "))
            }
            SetPattern::NotIn(s) => {
                let items: Vec<String> = s.iter().map(|v| v.to_string()).collect();
                write!(f, "∉ {{{}}}", items.join(", "))
            }
        }
    }
}

/// A pattern tuple of an eCFD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcfdPattern {
    /// Entries for the LHS attributes.
    pub lhs: Vec<SetPattern>,
    /// Entries for the RHS attributes.
    pub rhs: Vec<SetPattern>,
}

impl EcfdPattern {
    /// Creates a pattern tuple.
    pub fn new(lhs: Vec<SetPattern>, rhs: Vec<SetPattern>) -> Self {
        EcfdPattern { lhs, rhs }
    }
}

/// An eCFD: a CFD whose pattern entries may be sets or negated sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Ecfd {
    schema: Arc<RelationSchema>,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    tableau: Vec<EcfdPattern>,
}

impl Ecfd {
    /// Creates an eCFD from attribute names.
    pub fn new(
        schema: &Arc<RelationSchema>,
        lhs: &[&str],
        rhs: &[&str],
        tableau: Vec<EcfdPattern>,
    ) -> DqResult<Self> {
        let lhs_idx: Vec<usize> = lhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        let rhs_idx: Vec<usize> = rhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        for tp in &tableau {
            if tp.lhs.len() != lhs_idx.len() || tp.rhs.len() != rhs_idx.len() {
                return Err(DqError::MalformedDependency {
                    reason: "eCFD pattern tuple width mismatch".into(),
                });
            }
        }
        Ok(Ecfd {
            schema: Arc::clone(schema),
            lhs: lhs_idx,
            rhs: rhs_idx,
            tableau,
        })
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// LHS attribute positions.
    pub fn lhs(&self) -> &[usize] {
        &self.lhs
    }

    /// RHS attribute positions.
    pub fn rhs(&self) -> &[usize] {
        &self.rhs
    }

    /// The pattern tableau.
    pub fn tableau(&self) -> &[EcfdPattern] {
        &self.tableau
    }

    /// All constants mentioned by the eCFD for attribute position `attr`.
    pub fn constants_for(&self, attr: usize) -> Vec<Value> {
        let mut out = Vec::new();
        for tp in &self.tableau {
            for (p, &a) in tp
                .lhs
                .iter()
                .zip(&self.lhs)
                .chain(tp.rhs.iter().zip(&self.rhs))
            {
                if a == attr {
                    out.extend(p.constants());
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Does the instance satisfy this eCFD?  The default-engine form of
    /// [`DetectionEngine::detect_ecfd_violations`]; checks over many
    /// dependencies should share one engine.
    pub fn holds_on(&self, instance: &RelationInstance) -> bool {
        DetectionEngine::new()
            .detect_ecfd_violations(instance, std::slice::from_ref(self))
            .is_clean()
    }

    /// Violations of the eCFD over the interned columnar representation,
    /// probing a pooled index of `instance` on exactly [`lhs`](Self::lhs) —
    /// the kernel behind [`DetectionEngine::detect_ecfd_violations`].  Set
    /// patterns are translated into per-column id sets once, then both
    /// passes compare `u32`s.  Two passes like CFD detection: single-tuple
    /// violations of RHS set constraints, then pairs within an LHS group
    /// that differ on the RHS positions carrying `_` — following [19], a set
    /// entry restricts each tuple's domain but does not force two matching
    /// tuples to agree (`ecfd2` constrains NYC area codes to a set without
    /// making all NYC tuples share one code).  Canonical (sorted) order,
    /// equal to [`crate::reference::ecfd_violations`].
    pub(crate) fn violations_with_interned(
        &self,
        instance: &RelationInstance,
        index: &InternedIndex,
    ) -> Vec<EcfdViolation> {
        debug_assert_eq!(
            index.attrs(),
            self.lhs.as_slice(),
            "index keyed off the eCFD's LHS"
        );
        let store = index.store();
        let lhs_cols = index.columns();
        let rhs_cols: Vec<Arc<Column>> = self
            .rhs
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        let interned_tableau: Vec<(Vec<InternedSetPattern>, Vec<InternedSetPattern>)> = self
            .tableau
            .iter()
            .map(|tp| {
                (
                    tp.lhs
                        .iter()
                        .zip(lhs_cols)
                        .map(|(p, c)| InternedSetPattern::of(p, c))
                        .collect(),
                    tp.rhs
                        .iter()
                        .zip(&rhs_cols)
                        .map(|(p, c)| InternedSetPattern::of(p, c))
                        .collect(),
                )
            })
            .collect();
        let mut out = Vec::new();
        // Pass 1: single-tuple violations of RHS set constraints.
        for (pattern_idx, (tp, (ilhs, irhs))) in
            self.tableau.iter().zip(&interned_tableau).enumerate()
        {
            let rhs_constrains = tp.rhs.iter().any(|p| !matches!(p, SetPattern::Any));
            if !rhs_constrains {
                continue;
            }
            // An `∈ S` entry whose members are all absent from the column
            // matches no row at all — skip the scan outright.
            if ilhs
                .iter()
                .any(|p| matches!(p, InternedSetPattern::In(ids) if ids.is_empty()))
            {
                continue;
            }
            for row in 0..store.len() {
                let lhs_ok = ilhs
                    .iter()
                    .zip(lhs_cols)
                    .all(|(p, c)| p.matches(c.id_at(row)));
                if lhs_ok {
                    let rhs_ok = irhs
                        .iter()
                        .zip(&rhs_cols)
                        .all(|(p, c)| p.matches(c.id_at(row)));
                    if !rhs_ok {
                        out.push(EcfdViolation::SingleTuple {
                            pattern: pattern_idx,
                            tuple: store.tuple_id(row),
                        });
                    }
                }
            }
        }
        // Pass 2: pair violations of the embedded FD restricted to matching
        // tuples.  The functional requirement applies only to RHS positions
        // carrying `_`; per pattern, those positions' projection packs into
        // a machine word for the group partitioning.
        let per_pattern_codec: Vec<Option<KeyCodec>> = self
            .tableau
            .iter()
            .map(|tp| {
                let equality_cols: Vec<Arc<Column>> = tp
                    .rhs
                    .iter()
                    .zip(&rhs_cols)
                    .filter(|(p, _)| matches!(p, SetPattern::Any))
                    .map(|(_, c)| Arc::clone(c))
                    .collect();
                if equality_cols.is_empty() {
                    None
                } else {
                    Some(KeyCodec::new(equality_cols))
                }
            })
            .collect();
        let mut by_proj: FxHashMap<ProjectionKey, Vec<TupleId>> = FxHashMap::default();
        for (key, rows) in index.multi_groups() {
            for (pattern_idx, (ilhs, _)) in interned_tableau.iter().enumerate() {
                if !ilhs.iter().zip(key.iter()).all(|(p, &id)| p.matches(id)) {
                    continue;
                }
                let Some(codec) = &per_pattern_codec[pattern_idx] else {
                    continue;
                };
                by_proj.clear();
                for &row in rows {
                    by_proj
                        .entry(codec.pack_row(row as usize))
                        .or_default()
                        .push(index.tuple_id(row));
                }
                if by_proj.len() < 2 {
                    continue;
                }
                let partitions: Vec<&Vec<TupleId>> = by_proj.values().collect();
                for (i, first_part) in partitions.iter().enumerate() {
                    for second_part in &partitions[i + 1..] {
                        for &a in *first_part {
                            for &b in *second_part {
                                let (first, second) = if a < b { (a, b) } else { (b, a) };
                                out.push(EcfdViolation::TuplePair {
                                    pattern: pattern_idx,
                                    first,
                                    second,
                                });
                            }
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// A [`SetPattern`] translated into one column's dictionary: member values
/// absent from the column are dropped (they can neither admit nor exclude
/// any cell), and the surviving ids are kept sorted for binary-search
/// membership tests.
#[derive(Clone, Debug)]
enum InternedSetPattern {
    Any,
    In(Vec<ValueId>),
    NotIn(Vec<ValueId>),
}

impl InternedSetPattern {
    fn of(p: &SetPattern, col: &Column) -> Self {
        let translate = |s: &BTreeSet<Value>| {
            let mut ids: Vec<ValueId> = s.iter().filter_map(|v| col.interner().lookup(v)).collect();
            ids.sort_unstable();
            ids
        };
        match p {
            SetPattern::Any => InternedSetPattern::Any,
            SetPattern::In(s) => InternedSetPattern::In(translate(s)),
            SetPattern::NotIn(s) => InternedSetPattern::NotIn(translate(s)),
        }
    }

    #[inline]
    fn matches(&self, id: ValueId) -> bool {
        match self {
            InternedSetPattern::Any => true,
            InternedSetPattern::In(ids) => ids.binary_search(&id).is_ok(),
            InternedSetPattern::NotIn(ids) => ids.binary_search(&id).is_err(),
        }
    }
}

/// A violation of an eCFD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EcfdViolation {
    /// A tuple matching the LHS pattern fails an RHS set constraint.
    SingleTuple {
        /// Violated pattern tuple index.
        pattern: usize,
        /// The violating tuple.
        tuple: TupleId,
    },
    /// Two matching tuples agree on the LHS but differ on the RHS.
    TuplePair {
        /// Violated pattern tuple index.
        pattern: usize,
        /// First tuple.
        first: TupleId,
        /// Second tuple.
        second: TupleId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::Domain;

    fn ny_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "nycust",
            [
                ("CT", Domain::Text),
                ("AC", Domain::Int),
                ("name", Domain::Text),
            ],
        ))
    }

    fn instance(rows: &[(&str, i64, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(ny_schema());
        for (ct, ac, name) in rows {
            inst.insert_values([Value::str(*ct), Value::int(*ac), Value::str(*name)])
                .unwrap();
        }
        inst
    }

    /// ecfd1: CT ∉ {NYC, LI} → AC (an FD conditional on the city).
    fn ecfd1() -> Ecfd {
        Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::not_in(["NYC", "LI"])],
                vec![SetPattern::any()],
            )],
        )
        .unwrap()
    }

    /// ecfd2: CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}.
    fn ecfd2() -> Ecfd {
        Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::in_set(["NYC"])],
                vec![SetPattern::in_set([212i64, 718, 646, 347, 917])],
            )],
        )
        .unwrap()
    }

    #[test]
    fn ecfd1_allows_multiple_area_codes_for_nyc_and_li() {
        let d = instance(&[
            ("NYC", 212, "a"),
            ("NYC", 718, "b"),
            ("LI", 516, "c"),
            ("LI", 631, "d"),
            ("Albany", 518, "e"),
            ("Albany", 518, "f"),
        ]);
        assert!(ecfd1().holds_on(&d));
    }

    #[test]
    fn ecfd1_rejects_two_area_codes_for_an_upstate_city() {
        let d = instance(&[("Albany", 518, "e"), ("Albany", 212, "f")]);
        let report = DetectionEngine::new().detect_ecfd_violations(&d, &[ecfd1()]);
        let v = report.of(0);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], EcfdViolation::TuplePair { .. }));
    }

    #[test]
    fn ecfd2_restricts_nyc_area_codes() {
        let good = instance(&[("NYC", 212, "a"), ("NYC", 917, "b")]);
        assert!(ecfd2().holds_on(&good));
        let bad = instance(&[("NYC", 518, "a")]);
        let report = DetectionEngine::new().detect_ecfd_violations(&bad, &[ecfd2()]);
        let v = report.of(0);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            EcfdViolation::SingleTuple {
                pattern: 0,
                tuple: TupleId(0)
            }
        ));
    }

    #[test]
    fn ecfd2_does_not_constrain_other_cities() {
        let d = instance(&[("Buffalo", 716, "a"), ("LI", 516, "b")]);
        assert!(ecfd2().holds_on(&d));
    }

    #[test]
    fn constants_are_collected_per_attribute() {
        let e = ecfd2();
        let s = ny_schema();
        assert_eq!(e.constants_for(s.attr("CT")), vec![Value::str("NYC")]);
        assert_eq!(e.constants_for(s.attr("AC")).len(), 5);
        assert!(e.constants_for(s.attr("name")).is_empty());
    }

    #[test]
    fn interned_detection_equals_value_detection() {
        let d = instance(&[
            ("NYC", 212, "a"),
            ("NYC", 518, "b"),
            ("Albany", 518, "c"),
            ("Albany", 212, "d"),
            ("Buffalo", 716, "e"),
            ("Buffalo", 716, "f"),
        ]);
        let store = d.columnar();
        for ecfd in [ecfd1(), ecfd2()] {
            let index = InternedIndex::build(&d, &store, ecfd.lhs(), 1);
            assert_eq!(
                ecfd.violations_with_interned(&d, &index),
                crate::reference::ecfd_violations(&ecfd, &d)
            );
        }
        // Sets whose members are absent from the instance still behave.
        let ghost = Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::in_set(["Utica"])],
                vec![SetPattern::not_in([999i64])],
            )],
        )
        .unwrap();
        let index = InternedIndex::build(&d, &store, ghost.lhs(), 1);
        assert_eq!(
            ghost.violations_with_interned(&d, &index),
            crate::reference::ecfd_violations(&ghost, &d)
        );
    }

    #[test]
    fn set_pattern_matching() {
        assert!(SetPattern::any().matches(&Value::int(7)));
        assert!(SetPattern::eq("x").matches(&Value::str("x")));
        assert!(!SetPattern::eq("x").matches(&Value::str("y")));
        assert!(SetPattern::not_in(["x"]).matches(&Value::str("y")));
        assert!(!SetPattern::not_in(["x"]).matches(&Value::str("x")));
    }

    #[test]
    fn width_mismatch_is_rejected() {
        assert!(Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(vec![], vec![SetPattern::any()])],
        )
        .is_err());
    }

    #[test]
    fn display_of_set_patterns() {
        assert_eq!(SetPattern::any().to_string(), "_");
        assert!(SetPattern::in_set(["NYC"]).to_string().contains("NYC"));
        assert!(SetPattern::not_in(["LI"]).to_string().contains("∉"));
    }
}
