//! Conditional inclusion dependencies (CINDs), Section 2.2.
//!
//! A CIND `ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp)` extends an IND `R1[X] ⊆ R2[Y]`
//! with pattern attribute lists `Xp` (selecting which `R1` tuples the IND
//! applies to) and `Yp` (constants the matching `R2` tuple must carry), and a
//! pattern tableau `Tp` whose entries are *constants only*.
//!
//! `(D1, D2) ⊨ ψ` iff for every pattern tuple `tp ∈ Tp` and every `t1 ∈ D1`
//! with `t1[Xp] = tp[Xp]`, there is a `t2 ∈ D2` with `t1[X] = t2[Y]` and
//! `t2[Yp] = tp[Yp]`.  Traditional INDs are the special case of empty
//! `Xp`/`Yp`.

use crate::engine::DetectionEngine;
use crate::ind::Ind;
use dq_relation::{
    Database, DqError, DqResult, InternedIndex, RelationSchema, TupleId, Value, ValueId,
};
use std::fmt;
use std::sync::Arc;

/// One pattern tuple of a CIND tableau: constants for the `Xp` attributes and
/// constants for the `Yp` attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CindPattern {
    /// Constants for the LHS pattern attributes `Xp`.
    pub lhs: Vec<Value>,
    /// Constants for the RHS pattern attributes `Yp`.
    pub rhs: Vec<Value>,
}

impl CindPattern {
    /// Creates a pattern tuple.
    pub fn new(lhs: Vec<Value>, rhs: Vec<Value>) -> Self {
        CindPattern { lhs, rhs }
    }
}

/// A conditional inclusion dependency.
#[derive(Clone, Debug, PartialEq)]
pub struct Cind {
    lhs_schema: Arc<RelationSchema>,
    rhs_schema: Arc<RelationSchema>,
    /// Correspondence attributes `X` of `R1`.
    lhs_attrs: Vec<usize>,
    /// Correspondence attributes `Y` of `R2`.
    rhs_attrs: Vec<usize>,
    /// Pattern attributes `Xp` of `R1`.
    lhs_pattern_attrs: Vec<usize>,
    /// Pattern attributes `Yp` of `R2`.
    rhs_pattern_attrs: Vec<usize>,
    tableau: Vec<CindPattern>,
}

impl Cind {
    /// Creates a CIND from attribute names.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        lhs_schema: &Arc<RelationSchema>,
        lhs_attrs: &[&str],
        lhs_pattern_attrs: &[&str],
        rhs_schema: &Arc<RelationSchema>,
        rhs_attrs: &[&str],
        rhs_pattern_attrs: &[&str],
        tableau: Vec<CindPattern>,
    ) -> DqResult<Self> {
        if lhs_attrs.len() != rhs_attrs.len() {
            return Err(DqError::MalformedDependency {
                reason: format!(
                    "CIND correspondence lists have different lengths ({} vs {})",
                    lhs_attrs.len(),
                    rhs_attrs.len()
                ),
            });
        }
        let cind = Cind {
            lhs_schema: Arc::clone(lhs_schema),
            rhs_schema: Arc::clone(rhs_schema),
            lhs_attrs: lhs_attrs
                .iter()
                .map(|a| lhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            rhs_attrs: rhs_attrs
                .iter()
                .map(|a| rhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            lhs_pattern_attrs: lhs_pattern_attrs
                .iter()
                .map(|a| lhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            rhs_pattern_attrs: rhs_pattern_attrs
                .iter()
                .map(|a| rhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            tableau,
        };
        cind.validate()?;
        Ok(cind)
    }

    fn validate(&self) -> DqResult<()> {
        for tp in &self.tableau {
            if tp.lhs.len() != self.lhs_pattern_attrs.len()
                || tp.rhs.len() != self.rhs_pattern_attrs.len()
            {
                return Err(DqError::MalformedDependency {
                    reason: "CIND pattern tuple width does not match Xp/Yp".into(),
                });
            }
            for (v, &a) in tp.lhs.iter().zip(&self.lhs_pattern_attrs) {
                if !self.lhs_schema.domain(a).contains(v) {
                    return Err(DqError::MalformedDependency {
                        reason: format!(
                            "pattern constant `{v}` outside the domain of `{}`",
                            self.lhs_schema.attr_name(a)
                        ),
                    });
                }
            }
            for (v, &a) in tp.rhs.iter().zip(&self.rhs_pattern_attrs) {
                if !self.rhs_schema.domain(a).contains(v) {
                    return Err(DqError::MalformedDependency {
                        reason: format!(
                            "pattern constant `{v}` outside the domain of `{}`",
                            self.rhs_schema.attr_name(a)
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Creates a CIND from attribute positions (the positional counterpart of
    /// [`Cind::new`], used by dependency discovery which works on indices).
    #[allow(clippy::too_many_arguments)]
    pub fn from_indices(
        lhs_schema: &Arc<RelationSchema>,
        lhs_attrs: Vec<usize>,
        lhs_pattern_attrs: Vec<usize>,
        rhs_schema: &Arc<RelationSchema>,
        rhs_attrs: Vec<usize>,
        rhs_pattern_attrs: Vec<usize>,
        tableau: Vec<CindPattern>,
    ) -> DqResult<Self> {
        if lhs_attrs.len() != rhs_attrs.len() {
            return Err(DqError::MalformedDependency {
                reason: format!(
                    "CIND correspondence lists have different lengths ({} vs {})",
                    lhs_attrs.len(),
                    rhs_attrs.len()
                ),
            });
        }
        let cind = Cind {
            lhs_schema: Arc::clone(lhs_schema),
            rhs_schema: Arc::clone(rhs_schema),
            lhs_attrs,
            rhs_attrs,
            lhs_pattern_attrs,
            rhs_pattern_attrs,
            tableau,
        };
        cind.validate()?;
        Ok(cind)
    }

    /// Lifts a traditional IND to a CIND with empty pattern lists.
    pub fn from_ind(
        ind: &Ind,
        lhs_schema: &Arc<RelationSchema>,
        rhs_schema: &Arc<RelationSchema>,
    ) -> Self {
        Cind {
            lhs_schema: Arc::clone(lhs_schema),
            rhs_schema: Arc::clone(rhs_schema),
            lhs_attrs: ind.lhs_attrs().to_vec(),
            rhs_attrs: ind.rhs_attrs().to_vec(),
            lhs_pattern_attrs: Vec::new(),
            rhs_pattern_attrs: Vec::new(),
            tableau: vec![CindPattern::new(Vec::new(), Vec::new())],
        }
    }

    /// The embedded traditional IND `R1[X] ⊆ R2[Y]`.
    pub fn embedded_ind(&self) -> Ind {
        Ind::from_indices(
            self.lhs_schema.name(),
            self.lhs_attrs.clone(),
            self.rhs_schema.name(),
            self.rhs_attrs.clone(),
        )
    }

    /// LHS (source) schema.
    pub fn lhs_schema(&self) -> &Arc<RelationSchema> {
        &self.lhs_schema
    }

    /// RHS (target) schema.
    pub fn rhs_schema(&self) -> &Arc<RelationSchema> {
        &self.rhs_schema
    }

    /// Correspondence attributes `X` of the LHS relation.
    pub fn lhs_attrs(&self) -> &[usize] {
        &self.lhs_attrs
    }

    /// Correspondence attributes `Y` of the RHS relation.
    pub fn rhs_attrs(&self) -> &[usize] {
        &self.rhs_attrs
    }

    /// Pattern attributes `Xp`.
    pub fn lhs_pattern_attrs(&self) -> &[usize] {
        &self.lhs_pattern_attrs
    }

    /// Pattern attributes `Yp`.
    pub fn rhs_pattern_attrs(&self) -> &[usize] {
        &self.rhs_pattern_attrs
    }

    /// The pattern tableau.
    pub fn tableau(&self) -> &[CindPattern] {
        &self.tableau
    }

    /// Is this a traditional IND (no pattern attributes)?
    pub fn is_traditional_ind(&self) -> bool {
        self.lhs_pattern_attrs.is_empty() && self.rhs_pattern_attrs.is_empty()
    }

    /// Total size of the CIND (number of attributes times tableau rows).
    pub fn size(&self) -> usize {
        (self.lhs_attrs.len()
            + self.rhs_attrs.len()
            + self.lhs_pattern_attrs.len()
            + self.rhs_pattern_attrs.len())
            * self.tableau.len().max(1)
    }

    /// Normalizes into CINDs with a single pattern tuple each.
    pub fn normalize(&self) -> Vec<Cind> {
        self.tableau
            .iter()
            .map(|tp| Cind {
                lhs_schema: Arc::clone(&self.lhs_schema),
                rhs_schema: Arc::clone(&self.rhs_schema),
                lhs_attrs: self.lhs_attrs.clone(),
                rhs_attrs: self.rhs_attrs.clone(),
                lhs_pattern_attrs: self.lhs_pattern_attrs.clone(),
                rhs_pattern_attrs: self.rhs_pattern_attrs.clone(),
                tableau: vec![tp.clone()],
            })
            .collect()
    }

    /// Does the database satisfy this CIND?  The default-engine form of
    /// [`DetectionEngine::detect_cind_violations`]; checks over many
    /// dependencies should share one engine.
    pub fn holds_on(&self, db: &Database) -> DqResult<bool> {
        Ok(DetectionEngine::new()
            .detect_cind_violations(db, std::slice::from_ref(self))?
            .is_clean())
    }

    /// The attribute list an interned probe index on the RHS relation must
    /// be keyed on: the correspondence attributes `Y` followed by the
    /// pattern attributes `Yp`.
    pub fn rhs_probe_attrs(&self) -> Vec<usize> {
        let mut attrs = self.rhs_attrs.clone();
        attrs.extend_from_slice(&self.rhs_pattern_attrs);
        attrs
    }

    /// The LHS tuples violating the CIND — tuples matching some pattern's
    /// `Xp` constants with no RHS tuple matching both the correspondence and
    /// the pattern's `Yp` constants — computed against an *interned* index
    /// of the RHS relation on exactly
    /// [`rhs_probe_attrs`](Self::rhs_probe_attrs): the kernel behind
    /// [`DetectionEngine::detect_cind_violations`].  Each LHS tuple's probe
    /// translates through the index's per-column dictionaries — a value
    /// absent from a dictionary cannot match any RHS tuple, short-circuiting
    /// the probe.  Output (order included) equals
    /// [`crate::reference::cind_violations`].
    pub(crate) fn violations_with_probe_index(
        &self,
        db: &Database,
        index: &InternedIndex,
    ) -> DqResult<Vec<CindViolation>> {
        debug_assert_eq!(
            index.attrs(),
            self.rhs_probe_attrs().as_slice(),
            "index keyed off Y ++ Yp of the CIND"
        );
        let lhs = db.require_relation(self.lhs_schema.name())?;
        let x_len = self.lhs_attrs.len();
        let mut out = Vec::new();
        let mut key: Vec<ValueId> = vec![ValueId(0); x_len + self.rhs_pattern_attrs.len()];
        for (pattern_idx, tp) in self.tableau.iter().enumerate() {
            // Translate the pattern's Yp constants once; an absent constant
            // means no RHS tuple can ever match this pattern.
            let yp_ids: Option<Vec<ValueId>> = tp
                .rhs
                .iter()
                .enumerate()
                .map(|(j, v)| index.lookup_id(x_len + j, v))
                .collect();
            if let Some(ids) = &yp_ids {
                key[x_len..].copy_from_slice(ids);
            }
            for (id, tuple) in lhs.iter() {
                let applies = self
                    .lhs_pattern_attrs
                    .iter()
                    .zip(&tp.lhs)
                    .all(|(&a, v)| tuple.get(a) == v);
                if !applies {
                    continue;
                }
                let matched = yp_ids.is_some()
                    && self.lhs_attrs.iter().enumerate().all(|(j, &a)| {
                        match index.lookup_id(j, tuple.get(a)) {
                            Some(vid) => {
                                key[j] = vid;
                                true
                            }
                            None => false,
                        }
                    })
                    && !index.rows_for_ids(&key).is_empty();
                if !matched {
                    out.push(CindViolation {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Cind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |schema: &RelationSchema, attrs: &[usize]| {
            attrs
                .iter()
                .map(|&a| schema.attr_name(a).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "{}([{}]; [{}]) ⊆ {}([{}]; [{}]) with {} pattern tuple(s)",
            self.lhs_schema.name(),
            names(&self.lhs_schema, &self.lhs_attrs),
            names(&self.lhs_schema, &self.lhs_pattern_attrs),
            self.rhs_schema.name(),
            names(&self.rhs_schema, &self.rhs_attrs),
            names(&self.rhs_schema, &self.rhs_pattern_attrs),
            self.tableau.len()
        )
    }
}

/// A violation of a CIND: an LHS tuple that matches a pattern but has no
/// matching RHS tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CindViolation {
    /// Index of the violated pattern tuple.
    pub pattern: usize,
    /// The dangling LHS tuple.
    pub tuple: TupleId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationInstance};

    pub fn order_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "order",
            [
                ("asin", Domain::Text),
                ("title", Domain::Text),
                ("type", Domain::Text),
                ("price", Domain::Real),
            ],
        ))
    }

    pub fn book_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "book",
            [
                ("isbn", Domain::Text),
                ("title", Domain::Text),
                ("price", Domain::Real),
                ("format", Domain::Text),
            ],
        ))
    }

    pub fn cd_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "CD",
            [
                ("id", Domain::Text),
                ("album", Domain::Text),
                ("price", Domain::Real),
                ("genre", Domain::Text),
            ],
        ))
    }

    /// The instance D1 of Fig. 3.
    pub fn d1() -> Database {
        let mut oi = RelationInstance::new(order_schema());
        oi.insert_values([
            Value::str("a23"),
            Value::str("Snow White"),
            Value::str("CD"),
            Value::real(7.99),
        ])
        .unwrap();
        oi.insert_values([
            Value::str("a12"),
            Value::str("Harry Potter"),
            Value::str("book"),
            Value::real(17.99),
        ])
        .unwrap();
        let mut bi = RelationInstance::new(book_schema());
        bi.insert_values([
            Value::str("b32"),
            Value::str("Harry Potter"),
            Value::real(17.99),
            Value::str("hard-cover"),
        ])
        .unwrap();
        bi.insert_values([
            Value::str("b65"),
            Value::str("Snow White"),
            Value::real(7.99),
            Value::str("paper-cover"),
        ])
        .unwrap();
        let mut ci = RelationInstance::new(cd_schema());
        ci.insert_values([
            Value::str("c12"),
            Value::str("J. Denver"),
            Value::real(7.94),
            Value::str("country"),
        ])
        .unwrap();
        ci.insert_values([
            Value::str("c58"),
            Value::str("Snow White"),
            Value::real(7.99),
            Value::str("a-book"),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_relation(oi);
        db.add_relation(bi);
        db.add_relation(ci);
        db
    }

    /// cind1 / ϕ4: order(title, price; type = 'book') ⊆ book(title, price).
    fn cind1() -> Cind {
        Cind::new(
            &order_schema(),
            &["title", "price"],
            &["type"],
            &book_schema(),
            &["title", "price"],
            &[],
            vec![CindPattern::new(vec![Value::str("book")], vec![])],
        )
        .unwrap()
    }

    /// cind2 / ϕ5: order(title, price; type = 'CD') ⊆ CD(album, price).
    fn cind2() -> Cind {
        Cind::new(
            &order_schema(),
            &["title", "price"],
            &["type"],
            &cd_schema(),
            &["album", "price"],
            &[],
            vec![CindPattern::new(vec![Value::str("CD")], vec![])],
        )
        .unwrap()
    }

    /// cind3 / ϕ6: CD(album, price; genre = 'a-book') ⊆ book(title, price; format = 'audio').
    fn cind3() -> Cind {
        Cind::new(
            &cd_schema(),
            &["album", "price"],
            &["genre"],
            &book_schema(),
            &["title", "price"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-book")],
                vec![Value::str("audio")],
            )],
        )
        .unwrap()
    }

    #[test]
    fn d1_satisfies_cind1_and_cind2() {
        let db = d1();
        assert!(cind1().holds_on(&db).unwrap());
        assert!(cind2().holds_on(&db).unwrap());
    }

    #[test]
    fn d1_violates_cind3_via_t9() {
        let db = d1();
        let report = DetectionEngine::new()
            .detect_cind_violations(&db, &[cind3()])
            .unwrap();
        let v = report.of(0);
        assert_eq!(v.len(), 1);
        // t9 is the second CD tuple (the audio-book Snow White).
        assert_eq!(v[0].tuple, TupleId(1));
        assert_eq!(v[0].pattern, 0);
    }

    #[test]
    fn fixing_the_format_attribute_resolves_the_violation() {
        let mut db = d1();
        let book = db.relation_mut("book").unwrap();
        // Make t7 an audio book.
        book.update_cell(
            dq_relation::instance::CellRef::new(TupleId(1), 3),
            Value::str("audio"),
        )
        .unwrap();
        assert!(cind3().holds_on(&db).unwrap());
    }

    #[test]
    fn traditional_ind_embedding() {
        let (order, book) = (order_schema(), book_schema());
        let ind = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
        let cind = Cind::from_ind(&ind, &order, &book);
        assert!(cind.is_traditional_ind());
        let db = d1();
        assert_eq!(cind.holds_on(&db).unwrap(), ind.holds_on(&db).unwrap());
        assert_eq!(cind.embedded_ind().lhs_attrs(), ind.lhs_attrs());
    }

    #[test]
    fn malformed_cinds_are_rejected() {
        // Mismatched correspondence lengths.
        assert!(Cind::new(
            &order_schema(),
            &["title"],
            &[],
            &book_schema(),
            &["title", "price"],
            &[],
            vec![],
        )
        .is_err());
        // Pattern width mismatch.
        assert!(Cind::new(
            &order_schema(),
            &["title"],
            &["type"],
            &book_schema(),
            &["title"],
            &[],
            vec![CindPattern::new(vec![], vec![])],
        )
        .is_err());
    }

    #[test]
    fn normalization_splits_tableau_rows() {
        let cind = Cind::new(
            &order_schema(),
            &["title", "price"],
            &["type"],
            &book_schema(),
            &["title", "price"],
            &[],
            vec![
                CindPattern::new(vec![Value::str("book")], vec![]),
                CindPattern::new(vec![Value::str("audiobook")], vec![]),
            ],
        )
        .unwrap();
        let parts = cind.normalize();
        assert_eq!(parts.len(), 2);
        let db = d1();
        assert_eq!(
            cind.holds_on(&db).unwrap(),
            parts.iter().all(|c| c.holds_on(&db).unwrap())
        );
    }

    #[test]
    fn interned_probe_equals_value_probe() {
        let db = d1();
        for cind in [cind1(), cind2(), cind3()] {
            let rhs = db.require_relation(cind.rhs_schema().name()).unwrap();
            let store = rhs.columnar();
            let probe = cind.rhs_probe_attrs();
            let index = InternedIndex::build(rhs, &store, &probe, 1);
            assert_eq!(
                cind.violations_with_probe_index(&db, &index).unwrap(),
                crate::reference::cind_violations(&cind, &db).unwrap(),
                "{cind}"
            );
        }
        // A CIND whose correspondence values are absent from the RHS:
        // every applicable tuple dangles, interned and naive alike.
        let absent = Cind::new(
            &order_schema(),
            &["asin"],
            &["type"],
            &book_schema(),
            &["isbn"],
            &[],
            vec![CindPattern::new(vec![Value::str("CD")], vec![])],
        )
        .unwrap();
        let rhs = db.require_relation("book").unwrap();
        let index = InternedIndex::build(rhs, &rhs.columnar(), &absent.rhs_probe_attrs(), 1);
        let expected = crate::reference::cind_violations(&absent, &db).unwrap();
        assert_eq!(
            absent.violations_with_probe_index(&db, &index).unwrap(),
            expected
        );
        assert_eq!(expected.len(), 1);
    }

    #[test]
    fn size_and_display() {
        let c = cind3();
        assert_eq!(c.size(), 6);
        assert!(c.to_string().contains("CD"));
        assert!(c.to_string().contains("book"));
    }
}
