//! Matching dependencies (MDs), Section 3.2.
//!
//! An MD over a pair of relation schemas `(R1, R2)` has the form
//! `⋀_j (R1[X1[j]] ≈_j R2[X2[j]]) → R1[Z1] ⇋ R2[Z2]` (or, more generally,
//! with any similarity operator in the conclusion).  The premise compares
//! attribute pairs of the two relations with *given* similarity metrics; the
//! conclusion asserts that the tuples' `Z1`/`Z2` projections refer to the
//! same real-world entity (`⇋`) — a relation that is not computable from the
//! data but is to be *inferred* by generic reasoning (Section 3.3).

use crate::engine::MatchingEngine;
use crate::similarity::SimilarityOp;
use dq_relation::{DqError, DqResult, RelationInstance, RelationSchema, TupleId};
use std::fmt;
use std::sync::Arc;

/// The operator of an MD conclusion: either the matching operator `⇋` or an
/// ordinary similarity operator.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchOp {
    /// The matching operator `⇋` ("refer to the same real-world object").
    Matching,
    /// An ordinary similarity operator.
    Similarity(SimilarityOp),
}

impl MatchOp {
    /// Plain equality premise/conclusion operator.
    pub fn eq() -> Self {
        MatchOp::Similarity(SimilarityOp::Equality)
    }

    /// Edit-distance similarity operator `≈_d` with the given threshold.
    pub fn edit(max_distance: usize) -> Self {
        MatchOp::Similarity(SimilarityOp::edit(max_distance))
    }

    /// The matching operator `⇋`.
    pub fn matching() -> Self {
        MatchOp::Matching
    }
}

impl From<SimilarityOp> for MatchOp {
    fn from(op: SimilarityOp) -> Self {
        MatchOp::Similarity(op)
    }
}

impl fmt::Display for MatchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchOp::Matching => write!(f, "⇋"),
            MatchOp::Similarity(op) => write!(f, "{op}"),
        }
    }
}

/// One conjunct of an MD premise: `R1[attr1] ≈ R2[attr2]` (where `≈` may be
/// any operator of `Θ`, including the matching operator `⇋` — the paper's
/// φ2 and φ3 use `⇋` in their premises).
#[derive(Clone, Debug, PartialEq)]
pub struct MdPremise {
    /// Attribute position in `R1`.
    pub left: usize,
    /// Attribute position in `R2`.
    pub right: usize,
    /// The operator used for the comparison.
    pub op: MatchOp,
}

/// A matching dependency over `(R1, R2)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchingDependency {
    lhs_schema: Arc<RelationSchema>,
    rhs_schema: Arc<RelationSchema>,
    premises: Vec<MdPremise>,
    /// Conclusion attribute list in `R1`.
    conclusion_left: Vec<usize>,
    /// Conclusion attribute list in `R2`.
    conclusion_right: Vec<usize>,
    conclusion_op: MatchOp,
}

impl MatchingDependency {
    /// Creates an MD from attribute names.
    ///
    /// `premises` lists `(R1 attribute, R2 attribute, operator)` conjuncts;
    /// the conclusion relates `conclusion_left` (in `R1`) with
    /// `conclusion_right` (in `R2`) under `conclusion_op`.
    pub fn new(
        lhs_schema: &Arc<RelationSchema>,
        rhs_schema: &Arc<RelationSchema>,
        premises: Vec<(&str, &str, MatchOp)>,
        conclusion_left: &[&str],
        conclusion_right: &[&str],
        conclusion_op: MatchOp,
    ) -> DqResult<Self> {
        if conclusion_left.len() != conclusion_right.len() {
            return Err(DqError::MalformedDependency {
                reason: "MD conclusion lists have different lengths".into(),
            });
        }
        if premises.is_empty() {
            return Err(DqError::MalformedDependency {
                reason: "MD with an empty premise".into(),
            });
        }
        let premises = premises
            .into_iter()
            .map(|(l, r, op)| {
                Ok(MdPremise {
                    left: lhs_schema.require_attr(l)?,
                    right: rhs_schema.require_attr(r)?,
                    op,
                })
            })
            .collect::<DqResult<Vec<_>>>()?;
        // Compatibility of the compared attribute pairs (Section 3.2).
        for p in &premises {
            let dl = lhs_schema.domain(p.left);
            let dr = rhs_schema.domain(p.right);
            if !dl.compatible_with(dr) {
                return Err(DqError::MalformedDependency {
                    reason: format!(
                        "incompatible attribute pair ({}, {}) in MD premise",
                        lhs_schema.attr_name(p.left),
                        rhs_schema.attr_name(p.right)
                    ),
                });
            }
        }
        Ok(MatchingDependency {
            lhs_schema: Arc::clone(lhs_schema),
            rhs_schema: Arc::clone(rhs_schema),
            premises,
            conclusion_left: conclusion_left
                .iter()
                .map(|a| lhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            conclusion_right: conclusion_right
                .iter()
                .map(|a| rhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            conclusion_op,
        })
    }

    /// Schema of the first relation.
    pub fn lhs_schema(&self) -> &Arc<RelationSchema> {
        &self.lhs_schema
    }

    /// Schema of the second relation.
    pub fn rhs_schema(&self) -> &Arc<RelationSchema> {
        &self.rhs_schema
    }

    /// Premise conjuncts.
    pub fn premises(&self) -> &[MdPremise] {
        &self.premises
    }

    /// Conclusion attribute list in `R1`.
    pub fn conclusion_left(&self) -> &[usize] {
        &self.conclusion_left
    }

    /// Conclusion attribute list in `R2`.
    pub fn conclusion_right(&self) -> &[usize] {
        &self.conclusion_right
    }

    /// Conclusion operator.
    pub fn conclusion_op(&self) -> &MatchOp {
        &self.conclusion_op
    }

    /// Number of premise conjuncts (the *length* of a relative key).
    pub fn length(&self) -> usize {
        self.premises.len()
    }

    /// Is this a *relative key* (Section 3.2): the matching operator appears
    /// in the conclusion but never in the premise?
    pub fn is_relative_key(&self) -> bool {
        matches!(self.conclusion_op, MatchOp::Matching)
            && self
                .premises
                .iter()
                .all(|p| !matches!(p.op, MatchOp::Matching))
    }

    /// Does the premise hold for a concrete pair of tuples?
    ///
    /// Similarity premises are evaluated with their metric; a `⇋` premise is
    /// evaluated under the *minimal* interpretation of the matching operator
    /// (value equality), since `⇋` is not computable from the data
    /// (Section 3.3).  Relative keys — the rules the matcher actually uses —
    /// have no `⇋` premises, so this convention never affects them.
    pub fn premise_holds(&self, t1: &dq_relation::Tuple, t2: &dq_relation::Tuple) -> bool {
        self.premises.iter().all(|p| match &p.op {
            MatchOp::Similarity(op) => op.related(t1.get(p.left), t2.get(p.right)),
            MatchOp::Matching => t1.get(p.left) == t2.get(p.right),
        })
    }

    /// Checks the MD over a pair of instances on `engine`, interpreting
    /// the matching operator with the supplied oracle (e.g. a ground-truth
    /// "same entity" relation).  Returns the pairs for which the premise
    /// holds but the conclusion fails, in ascending `(d1, d2)` tuple order.
    pub fn violations(
        &self,
        d1: &RelationInstance,
        d2: &RelationInstance,
        matches: &(dyn Fn(TupleId, TupleId) -> bool + Sync),
        engine: &MatchingEngine,
    ) -> Vec<(TupleId, TupleId)> {
        engine.md_violations(self, d1, d2, matches)
    }

    /// Does the MD hold over the pair of instances under the supplied
    /// interpretation of `⇋`?
    pub fn holds(
        &self,
        d1: &RelationInstance,
        d2: &RelationInstance,
        matches: &(dyn Fn(TupleId, TupleId) -> bool + Sync),
        engine: &MatchingEngine,
    ) -> bool {
        self.violations(d1, d2, matches, engine).is_empty()
    }
}

impl fmt::Display for MatchingDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.premises.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(
                f,
                "{}[{}] {} {}[{}]",
                self.lhs_schema.name(),
                self.lhs_schema.attr_name(p.left),
                p.op,
                self.rhs_schema.name(),
                self.rhs_schema.attr_name(p.right)
            )?;
        }
        let names = |schema: &RelationSchema, attrs: &[usize]| {
            attrs
                .iter()
                .map(|&a| schema.attr_name(a).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            " → {}[{}] {} {}[{}]",
            self.lhs_schema.name(),
            names(&self.lhs_schema, &self.conclusion_left),
            self.conclusion_op,
            self.rhs_schema.name(),
            names(&self.rhs_schema, &self.conclusion_right)
        )
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use dq_relation::Domain;

    /// The `card` schema of Section 3.1.
    pub fn card_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "card",
            [
                ("c#", Domain::Text),
                ("SSN", Domain::Text),
                ("FN", Domain::Text),
                ("LN", Domain::Text),
                ("addr", Domain::Text),
                ("tel", Domain::Text),
                ("email", Domain::Text),
                ("type", Domain::Text),
            ],
        ))
    }

    /// The `billing` schema of Section 3.1.
    pub fn billing_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "billing",
            [
                ("c#", Domain::Text),
                ("FN", Domain::Text),
                ("SN", Domain::Text),
                ("post", Domain::Text),
                ("phn", Domain::Text),
                ("email", Domain::Text),
                ("item", Domain::Text),
                ("price", Domain::Real),
            ],
        ))
    }

    /// The MDs φ1–φ4 of Example 3.1 (with `≈_d` instantiated as edit
    /// distance ≤ 3).
    pub fn example_3_1(
        card: &Arc<RelationSchema>,
        billing: &Arc<RelationSchema>,
    ) -> Vec<MatchingDependency> {
        let yc = ["FN", "LN", "addr", "tel", "email"];
        let yb = ["FN", "SN", "post", "phn", "email"];
        vec![
            MatchingDependency::new(
                card,
                billing,
                vec![("tel", "phn", MatchOp::eq())],
                &["addr"],
                &["post"],
                MatchOp::Matching,
            )
            .unwrap(),
            MatchingDependency::new(
                card,
                billing,
                vec![("email", "email", MatchOp::matching())],
                &["FN", "LN"],
                &["FN", "SN"],
                MatchOp::Matching,
            )
            .unwrap(),
            MatchingDependency::new(
                card,
                billing,
                vec![
                    ("LN", "SN", MatchOp::matching()),
                    ("addr", "post", MatchOp::matching()),
                    ("FN", "FN", MatchOp::matching()),
                ],
                &yc,
                &yb,
                MatchOp::Matching,
            )
            .unwrap(),
            MatchingDependency::new(
                card,
                billing,
                vec![
                    ("LN", "SN", MatchOp::matching()),
                    ("addr", "post", MatchOp::matching()),
                    ("FN", "FN", MatchOp::edit(3)),
                ],
                &yc,
                &yb,
                MatchOp::Matching,
            )
            .unwrap(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use dq_relation::{IndexPool, Value};

    fn engine() -> MatchingEngine {
        MatchingEngine::new(Arc::new(IndexPool::new()))
    }

    fn card_tuple(fn_: &str, ln: &str, addr: &str, tel: &str, email: &str) -> Vec<Value> {
        vec![
            Value::str("c1"),
            Value::str("ssn"),
            Value::str(fn_),
            Value::str(ln),
            Value::str(addr),
            Value::str(tel),
            Value::str(email),
            Value::str("visa"),
        ]
    }

    fn billing_tuple(fn_: &str, sn: &str, post: &str, phn: &str, email: &str) -> Vec<Value> {
        vec![
            Value::str("c1"),
            Value::str(fn_),
            Value::str(sn),
            Value::str(post),
            Value::str(phn),
            Value::str(email),
            Value::str("laptop"),
            Value::real(999.0),
        ]
    }

    #[test]
    fn example_3_1_mds_are_well_formed_relative_keys_or_not() {
        let card = card_schema();
        let billing = billing_schema();
        let mds = example_3_1(&card, &billing);
        assert_eq!(mds.len(), 4);
        // φ1 is a relative key (no ⇋ in its premise); φ2–φ4 use ⇋ premises.
        assert!(mds[0].is_relative_key());
        assert!(!mds[1].is_relative_key());
        assert!(!mds[2].is_relative_key());
        assert!(!mds[3].is_relative_key());
        assert_eq!(mds[3].length(), 3);
        assert!(mds[3].to_string().contains("⇋"));
    }

    #[test]
    fn premise_evaluation_uses_the_declared_operators() {
        let card = card_schema();
        let billing = billing_schema();
        let mds = example_3_1(&card, &billing);
        let t_card = dq_relation::Tuple::new(card_tuple(
            "John",
            "Smith",
            "10 Main St",
            "555-1234",
            "js@x.org",
        ));
        // Same person, first name abbreviated: φ4's edit-distance premise
        // tolerates it, φ3's equality premise does not.
        let t_bill = dq_relation::Tuple::new(billing_tuple(
            "Jon",
            "Smith",
            "10 Main St",
            "555-9999",
            "js@y.org",
        ));
        assert!(!mds[2].premise_holds(&t_card, &t_bill));
        assert!(mds[3].premise_holds(&t_card, &t_bill));
        // φ1 requires identical phone numbers.
        assert!(!mds[0].premise_holds(&t_card, &t_bill));
    }

    #[test]
    fn violations_with_a_ground_truth_oracle() {
        let card = card_schema();
        let billing = billing_schema();
        let md = &example_3_1(&card, &billing)[3];
        let mut d1 = RelationInstance::new(card.clone());
        let mut d2 = RelationInstance::new(billing.clone());
        d1.insert(dq_relation::Tuple::new(card_tuple(
            "John",
            "Smith",
            "10 Main St",
            "555-1234",
            "js@x.org",
        )))
        .unwrap();
        d2.insert(dq_relation::Tuple::new(billing_tuple(
            "Jon",
            "Smith",
            "10 Main St",
            "555-1234",
            "js@x.org",
        )))
        .unwrap();
        // Oracle that says they do match: the MD holds.
        assert!(md.holds(&d1, &d2, &|_, _| true, &engine()));
        // Oracle that denies the match: the premise still fires, so the MD is
        // violated.
        let v = md.violations(&d1, &d2, &|_, _| false, &engine());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn similarity_conclusions_are_checked_on_the_data() {
        let card = card_schema();
        let billing = billing_schema();
        // If the phones are equal then the emails must be edit-similar.
        let md = MatchingDependency::new(
            &card,
            &billing,
            vec![("tel", "phn", MatchOp::eq())],
            &["email"],
            &["email"],
            MatchOp::Similarity(SimilarityOp::edit(3)),
        )
        .unwrap();
        let mut d1 = RelationInstance::new(card.clone());
        let mut d2 = RelationInstance::new(billing.clone());
        d1.insert(dq_relation::Tuple::new(card_tuple(
            "John", "Smith", "x", "555", "js@x.org",
        )))
        .unwrap();
        d2.insert(dq_relation::Tuple::new(billing_tuple(
            "John",
            "Smith",
            "x",
            "555",
            "totally@different.com",
        )))
        .unwrap();
        assert!(!md.holds(&d1, &d2, &|_, _| false, &engine()));
        let mut d2b = RelationInstance::new(billing.clone());
        d2b.insert(dq_relation::Tuple::new(billing_tuple(
            "John", "Smith", "x", "555", "js@x.com",
        )))
        .unwrap();
        assert!(md.holds(&d1, &d2b, &|_, _| false, &engine()));
    }

    #[test]
    fn malformed_mds_are_rejected() {
        let card = card_schema();
        let billing = billing_schema();
        // Unknown attribute.
        assert!(MatchingDependency::new(
            &card,
            &billing,
            vec![("nope", "phn", MatchOp::eq())],
            &["addr"],
            &["post"],
            MatchOp::Matching,
        )
        .is_err());
        // Mismatched conclusion lengths.
        assert!(MatchingDependency::new(
            &card,
            &billing,
            vec![("tel", "phn", MatchOp::eq())],
            &["addr", "tel"],
            &["post"],
            MatchOp::Matching,
        )
        .is_err());
        // Empty premise.
        assert!(MatchingDependency::new(
            &card,
            &billing,
            vec![],
            &["addr"],
            &["post"],
            MatchOp::Matching,
        )
        .is_err());
        // Incompatible attribute pair (text vs real).
        assert!(MatchingDependency::new(
            &card,
            &billing,
            vec![("tel", "price", MatchOp::eq())],
            &["addr"],
            &["post"],
            MatchOp::Matching,
        )
        .is_err());
    }
}
