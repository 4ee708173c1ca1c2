//! Reasoning about matching dependencies (Section 4.2, Theorem 4.8).
//!
//! The implication problem for MDs — `Σ ⊨_m φ`, for *all* interpretations of
//! the similarity and matching operators satisfying their generic axioms — is
//! solvable in PTIME, via a sound and complete finite inference system \[38\].
//! This module implements the closure algorithm behind that result: starting
//! from the facts asserted by `φ`'s premise about a hypothetical pair of
//! tuples, saturate under
//!
//! * the operator axioms — equality implies every similarity operator and the
//!   matching operator; a fact for a tighter operator yields the fact for any
//!   containing operator (the known containment of `Θ`, Section 3.3);
//! * MD application — an MD of `Σ` fires when each of its premise conjuncts
//!   is entailed by an already-derived fact, and contributes its conclusion
//!   (decomposed pairwise for `⇋`, per the list axiom of Section 3.2).
//!
//! `Σ ⊨_m φ` holds iff every conjunct of `φ`'s conclusion is derived.

use crate::md::{MatchOp, MatchingDependency};
use crate::similarity::SimilarityOp;
use std::collections::BTreeSet;

/// A derived fact about the hypothetical tuple pair: the attribute pair
/// `(R1 attr, R2 attr)` is related by an operator of the given strength.
#[derive(Clone, Debug, PartialEq)]
pub enum Fact {
    /// The attribute pair is known to hold under plain equality.
    Equal(usize, usize),
    /// The attribute pair is known to hold under the given similarity
    /// operator.
    Similar(usize, usize, SimilarityOp),
    /// The attribute pair is known to match (`⇋`).
    Matches(usize, usize),
}

impl Fact {
    fn pair(&self) -> (usize, usize) {
        match self {
            Fact::Equal(a, b) | Fact::Matches(a, b) => (*a, *b),
            Fact::Similar(a, b, _) => (*a, *b),
        }
    }
}

/// The knowledge base maintained by the closure.
#[derive(Clone, Debug, Default)]
pub struct FactBase {
    facts: Vec<Fact>,
}

impl FactBase {
    /// Starts from the premise facts of an MD.
    pub fn from_premise(md: &MatchingDependency) -> Self {
        let mut base = FactBase::default();
        for p in md.premises() {
            base.add(match &p.op {
                MatchOp::Similarity(SimilarityOp::Equality) => Fact::Equal(p.left, p.right),
                MatchOp::Similarity(op) => Fact::Similar(p.left, p.right, op.clone()),
                MatchOp::Matching => Fact::Matches(p.left, p.right),
            });
        }
        base
    }

    /// Adds a fact if it is not already entailed; returns whether the base
    /// changed.
    pub fn add(&mut self, fact: Fact) -> bool {
        if self.entails(&fact) {
            return false;
        }
        self.facts.push(fact);
        true
    }

    /// All stored facts.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Does the base entail the fact (directly or through the operator
    /// axioms)?
    ///
    /// * equality entails similarity under any operator and entails `⇋`
    ///   (every operator subsumes equality);
    /// * a similarity fact entails the same pair under any *containing*
    ///   operator;
    /// * `⇋` entails only itself (it is not comparable with the data-level
    ///   similarity metrics).
    pub fn entails(&self, goal: &Fact) -> bool {
        self.facts.iter().any(|f| {
            if f.pair() != goal.pair() {
                return false;
            }
            match (f, goal) {
                (Fact::Equal(_, _), Fact::Similar(_, _, _)) => true,
                (Fact::Equal(_, _), Fact::Matches(_, _)) => true,
                (Fact::Equal(_, _), Fact::Equal(_, _)) => true,
                (Fact::Similar(_, _, have), Fact::Similar(_, _, want)) => have.contained_in(want),
                (Fact::Matches(_, _), Fact::Matches(_, _)) => true,
                _ => false,
            }
        })
    }

    /// Does the base entail the premise conjunct `(left, right, op)`?
    /// Equality facts entail everything (every operator subsumes equality).
    fn entails_premise(&self, left: usize, right: usize, op: &MatchOp) -> bool {
        if self.entails(&Fact::Equal(left, right)) {
            return true;
        }
        match op {
            MatchOp::Matching => self.entails(&Fact::Matches(left, right)),
            MatchOp::Similarity(op) => self.entails(&Fact::Similar(left, right, op.clone())),
        }
    }
}

/// Saturates the fact base under the MDs of `sigma` (generic reasoning: the
/// operators are treated axiomatically, never evaluated on data).
pub fn close(base: &mut FactBase, sigma: &[MatchingDependency]) {
    loop {
        let mut changed = false;
        for md in sigma {
            let fires = md
                .premises()
                .iter()
                .all(|p| base.entails_premise(p.left, p.right, &p.op));
            if !fires {
                continue;
            }
            match md.conclusion_op() {
                MatchOp::Matching => {
                    // Pairwise decomposition of the list conclusion (the ⇋
                    // axiom of Section 3.2).
                    for (&a, &b) in md.conclusion_left().iter().zip(md.conclusion_right()) {
                        changed |= base.add(Fact::Matches(a, b));
                    }
                }
                MatchOp::Similarity(op) => {
                    for (&a, &b) in md.conclusion_left().iter().zip(md.conclusion_right()) {
                        changed |= base.add(Fact::Similar(a, b, op.clone()));
                    }
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Does `sigma ⊨_m phi` (implication of MDs, Theorem 4.8)?
///
/// PTIME: the closure adds at most one fact per (attribute pair, operator)
/// and each round scans `sigma` once.
pub fn md_implies(sigma: &[MatchingDependency], phi: &MatchingDependency) -> bool {
    let mut base = FactBase::from_premise(phi);
    close(&mut base, sigma);
    match phi.conclusion_op() {
        MatchOp::Matching => phi
            .conclusion_left()
            .iter()
            .zip(phi.conclusion_right())
            .all(|(&a, &b)| base.entails(&Fact::Matches(a, b))),
        MatchOp::Similarity(op) => phi
            .conclusion_left()
            .iter()
            .zip(phi.conclusion_right())
            .all(|(&a, &b)| base.entails(&Fact::Similar(a, b, op.clone()))),
    }
}

/// Removes MDs implied by the remaining ones (a minimal cover for matching
/// rules).  Derived rules are pointless for *detecting* violations but add
/// value as matching rules (Section 1, "static analyses"); conversely,
/// redundant given rules only slow the matcher down.
pub fn md_minimal_cover(sigma: &[MatchingDependency]) -> Vec<MatchingDependency> {
    let mut cover: Vec<MatchingDependency> = sigma.to_vec();
    let mut i = 0;
    while i < cover.len() {
        let candidate = cover[i].clone();
        let mut rest = cover.clone();
        rest.remove(i);
        if md_implies(&rest, &candidate) {
            cover.remove(i);
        } else {
            i += 1;
        }
    }
    cover
}

/// The set of attribute pairs for which `⇋` is derivable from `sigma`
/// starting from the given premise facts — used by RCK derivation.
pub fn derivable_matches(
    sigma: &[MatchingDependency],
    premise: &MatchingDependency,
) -> BTreeSet<(usize, usize)> {
    let mut base = FactBase::from_premise(premise);
    close(&mut base, sigma);
    base.facts()
        .iter()
        .filter_map(|f| match f {
            // Equality entails the matching operator, so equal pairs are
            // derivable matches too.
            Fact::Matches(a, b) | Fact::Equal(a, b) => Some((*a, *b)),
            Fact::Similar(_, _, _) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::fixtures::{billing_schema, card_schema, example_3_1};
    use crate::md::MatchOp;

    const YC: [&str; 5] = ["FN", "LN", "addr", "tel", "email"];
    const YB: [&str; 5] = ["FN", "SN", "post", "phn", "email"];

    fn rck(premises: Vec<(&str, &str, MatchOp)>) -> MatchingDependency {
        MatchingDependency::new(
            &card_schema(),
            &billing_schema(),
            premises,
            &YC,
            &YB,
            MatchOp::Matching,
        )
        .unwrap()
    }

    /// Example 4.3: Σ1 (φ1–φ4) entails rck1, rck2 and rck3.
    #[test]
    fn example_4_3_all_three_relative_keys_are_implied() {
        let card = card_schema();
        let billing = billing_schema();
        let sigma = example_3_1(&card, &billing);
        let rck1 = rck(vec![
            ("email", "email", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
        ]);
        let rck2 = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("tel", "phn", MatchOp::eq()),
            ("FN", "FN", MatchOp::edit(3)),
        ]);
        let rck3 = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
            ("FN", "FN", MatchOp::edit(3)),
        ]);
        assert!(md_implies(&sigma, &rck1));
        assert!(md_implies(&sigma, &rck2));
        assert!(md_implies(&sigma, &rck3));
    }

    #[test]
    fn insufficient_premises_are_not_implied() {
        let card = card_schema();
        let billing = billing_schema();
        let sigma = example_3_1(&card, &billing);
        // Knowing only the last names match is not enough to identify the
        // card holder.
        let weak = rck(vec![("LN", "SN", MatchOp::eq())]);
        assert!(!md_implies(&sigma, &weak));
        // Similar first names alone do not help either.
        let weak2 = rck(vec![("FN", "FN", MatchOp::edit(3))]);
        assert!(!md_implies(&sigma, &weak2));
    }

    #[test]
    fn operator_axioms_equality_entails_similarity_and_matching() {
        let card = card_schema();
        let billing = billing_schema();
        let sigma = example_3_1(&card, &billing);
        // φ4 asks for FN ≈d FN; providing FN = FN must also fire it (equality
        // subsumption), hence rck3 with equality everywhere is implied.
        let all_equal = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
            ("FN", "FN", MatchOp::eq()),
        ]);
        assert!(md_implies(&sigma, &all_equal));
    }

    #[test]
    fn containment_of_similarity_operators_is_used() {
        let card = card_schema();
        let billing = billing_schema();
        // Rule requires edit distance ≤ 3 on FN; a premise giving edit
        // distance ≤ 1 is stronger and must fire it.
        let sigma = example_3_1(&card, &billing);
        let tight = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
            ("FN", "FN", MatchOp::edit(1)),
        ]);
        assert!(md_implies(&sigma, &tight));
        // The other direction (premise looser than the rule needs) must not.
        let loose = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
            ("FN", "FN", MatchOp::edit(10)),
        ]);
        assert!(!md_implies(&sigma, &loose));
    }

    #[test]
    fn reflexive_implication_and_minimal_cover() {
        let card = card_schema();
        let billing = billing_schema();
        let sigma = example_3_1(&card, &billing);
        for md in &sigma {
            assert!(md_implies(&sigma, md));
        }
        // φ1–φ4 are pairwise non-redundant (φ3's ⇋ premise on FN is not
        // entailed by φ4's ≈d premise or vice versa), but adding a rule whose
        // premise is strictly stronger than φ4's (equality everywhere) is
        // redundant and gets dropped by the cover.
        let redundant = rck(vec![
            ("LN", "SN", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
            ("FN", "FN", MatchOp::eq()),
        ]);
        let mut extended = sigma.clone();
        extended.push(redundant);
        let cover = md_minimal_cover(&extended);
        assert_eq!(cover.len(), 4);
        for md in &extended {
            assert!(md_implies(&cover, md));
        }
    }

    #[test]
    fn derivable_matches_exposes_the_closure() {
        let card = card_schema();
        let billing = billing_schema();
        let sigma = example_3_1(&card, &billing);
        let premise = rck(vec![
            ("email", "email", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
        ]);
        let matches = derivable_matches(&sigma, &premise);
        // FN⇋FN and LN⇋SN come from φ2; addr⇋post from equality subsumption.
        let fn_pair = (card.attr("FN"), billing.attr("FN"));
        let ln_pair = (card.attr("LN"), billing.attr("SN"));
        let addr_pair = (card.attr("addr"), billing.attr("post"));
        assert!(matches.contains(&fn_pair));
        assert!(matches.contains(&ln_pair));
        assert!(matches.contains(&addr_pair));
    }

    #[test]
    fn fact_base_entailment_rules() {
        let mut base = FactBase::default();
        base.add(Fact::Equal(0, 0));
        assert!(base.entails(&Fact::Similar(0, 0, SimilarityOp::edit(2))));
        // A ⇋ fact does not entail a similarity fact.
        let mut base2 = FactBase::default();
        base2.add(Fact::Matches(1, 1));
        assert!(!base2.entails(&Fact::Similar(1, 1, SimilarityOp::edit(2))));
        assert!(base2.entails(&Fact::Matches(1, 1)));
        // Adding an entailed fact reports no change.
        assert!(!base2.add(Fact::Matches(1, 1)));
    }
}
