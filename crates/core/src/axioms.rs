//! Finite axiomatization: inference rules for CFDs and CINDs (Theorem 4.6).
//!
//! The paper states that CFDs and CINDs, taken separately, admit sound and
//! complete finite inference systems (and, taken together, do not).  This
//! module implements the core inference rules as syntactic derivation steps
//! and a bounded saturation procedure; the test suites (here and in
//! `tests/axioms_vs_semantics.rs`) verify *soundness* — every derived
//! dependency is semantically implied — and exercise completeness on the
//! normalized fragments where the closure algorithms of
//! [`crate::implication`] are themselves complete.
//!
//! CFD rules (after \[36\], for normalized CFDs `(X → B, tp)`):
//!
//! * **Reflexivity**   `(X → A, tp)` whenever `A ∈ X` and `tp[B] = tp[A]`;
//! * **Augmentation**  from `(X → B, tp)` infer `(X ∪ {C} → B, tp')` where
//!   `tp'` extends `tp` with `_` for `C`;
//! * **Transitivity**  from `(X → B, tp1)` and `(Y → C, tp2)` with `B ∈ Y`
//!   and compatible patterns, infer `(X ∪ (Y \ {B}) → C, tp)`;
//! * **Upgrade**       from `(X → B, (tpX ‖ _))` and a constant forced on
//!   `B` by a matching rule, upgrade the wildcard to that constant.
//!
//! CIND rules (after \[20\]):
//!
//! * **Reflexivity**   `R[X; ∅] ⊆ R[X; ∅]`;
//! * **Projection & permutation** of the correspondence lists;
//! * **Transitivity**  from `R1[X; Xp] ⊆ R2[Y; Yp]` and
//!   `R2[Y; Y'p] ⊆ R3[Z; Zp]` (with `Yp` consistent with `Y'p`) infer
//!   `R1[X; Xp] ⊆ R3[Z; Zp]`.

use crate::cfd::Cfd;
use crate::cind::{Cind, CindPattern};
use crate::pattern::{PatternTuple, PatternValue};
use dq_relation::RelationSchema;
use std::sync::Arc;

/// A single derivation step, for explainability of derived rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfdRule {
    /// Reflexivity.
    Reflexivity,
    /// Augmentation with an extra LHS attribute.
    Augmentation,
    /// Transitivity through a shared attribute.
    Transitivity,
}

/// A derived CFD together with the rule that produced it.
#[derive(Clone, Debug)]
pub struct DerivedCfd {
    /// The derived dependency (normalized form).
    pub cfd: Cfd,
    /// The rule of the final derivation step.
    pub rule: CfdRule,
}

fn pattern_of(cfd: &Cfd) -> &PatternTuple {
    &cfd.tableau()[0]
}

/// One round of applying the CFD inference rules to a set of *normalized*
/// CFDs, returning the newly derivable dependencies (syntactically distinct
/// from the inputs).
pub fn derive_cfds_once(schema: &Arc<RelationSchema>, sigma: &[Cfd]) -> Vec<DerivedCfd> {
    let mut derived: Vec<DerivedCfd> = Vec::new();
    let push = |cfd: Cfd, rule: CfdRule, sigma: &[Cfd], derived: &[DerivedCfd]| {
        let exists = sigma.iter().any(|c| c == &cfd) || derived.iter().any(|d| d.cfd == cfd);
        if !exists {
            Some(DerivedCfd { cfd, rule })
        } else {
            None
        }
    };

    // Reflexivity: for every CFD's LHS, X → A for A ∈ X with the same pattern.
    for cfd in sigma {
        let tp = pattern_of(cfd);
        for (pos, &a) in cfd.lhs().iter().enumerate() {
            let refl = Cfd::from_indices(
                schema,
                cfd.lhs().to_vec(),
                vec![a],
                vec![PatternTuple::new(tp.lhs.clone(), vec![tp.lhs[pos].clone()])],
            )
            .expect("well-formed reflexivity derivation");
            if let Some(d) = push(refl, CfdRule::Reflexivity, sigma, &derived) {
                derived.push(d);
            }
        }
    }

    // Augmentation: add one attribute (with a wildcard pattern) to the LHS.
    for cfd in sigma {
        let tp = pattern_of(cfd);
        for c in 0..schema.arity() {
            if cfd.lhs().contains(&c) || cfd.rhs().contains(&c) {
                continue;
            }
            let mut lhs = cfd.lhs().to_vec();
            lhs.push(c);
            let mut lhs_pattern = tp.lhs.clone();
            lhs_pattern.push(PatternValue::Any);
            let aug = Cfd::from_indices(
                schema,
                lhs,
                cfd.rhs().to_vec(),
                vec![PatternTuple::new(lhs_pattern, tp.rhs.clone())],
            )
            .expect("well-formed augmentation derivation");
            if let Some(d) = push(aug, CfdRule::Augmentation, sigma, &derived) {
                derived.push(d);
            }
        }
    }

    // Transitivity: (X → B, tp1), (Y → C, tp2) with Y = {B} (the normalized
    // single-attribute case): the pattern of B in tp2 must be matched by what
    // tp1 guarantees about B (a constant only matches itself; `_` in tp2
    // matches anything).
    for first in sigma {
        let tp1 = pattern_of(first);
        let b = first.rhs()[0];
        for second in sigma {
            if second.lhs() != [b] {
                continue;
            }
            let tp2 = pattern_of(second);
            let guaranteed = &tp1.rhs[0];
            let required = &tp2.lhs[0];
            let compatible = match (required, guaranteed) {
                (PatternValue::Any, _) => true,
                (PatternValue::Const(c), PatternValue::Const(g)) => c == g,
                (PatternValue::Const(_), PatternValue::Any) => false,
            };
            if !compatible {
                continue;
            }
            let trans = Cfd::from_indices(
                schema,
                first.lhs().to_vec(),
                second.rhs().to_vec(),
                vec![PatternTuple::new(tp1.lhs.clone(), tp2.rhs.clone())],
            )
            .expect("well-formed transitivity derivation");
            if let Some(d) = push(trans, CfdRule::Transitivity, sigma, &derived) {
                derived.push(d);
            }
        }
    }

    derived
}

/// Saturates a normalized CFD set under the inference rules for at most
/// `rounds` rounds (each round may add many dependencies); returns the full
/// derived set (inputs plus derivations).
pub fn saturate_cfds(schema: &Arc<RelationSchema>, sigma: &[Cfd], rounds: usize) -> Vec<Cfd> {
    let mut all: Vec<Cfd> = sigma.iter().flat_map(|c| c.normalize()).collect();
    for _ in 0..rounds {
        let new = derive_cfds_once(schema, &all);
        if new.is_empty() {
            break;
        }
        all.extend(new.into_iter().map(|d| d.cfd));
    }
    all
}

/// CIND inference: reflexivity, projection/permutation, and transitivity.
/// One round over a set of single-pattern CINDs.
pub fn derive_cinds_once(sigma: &[Cind]) -> Vec<Cind> {
    let mut derived = Vec::new();
    let push = |cind: Cind, sigma: &[Cind], derived: &[Cind]| {
        if !sigma.contains(&cind) && !derived.contains(&cind) {
            Some(cind)
        } else {
            None
        }
    };

    // Projection (drop the last correspondence pair) and permutation (swap
    // the first two pairs) — enough to exercise the rule shapes.
    for cind in sigma {
        let tp = &cind.tableau()[0];
        if cind.lhs_attrs().len() > 1 {
            let k = cind.lhs_attrs().len() - 1;
            let projected = Cind::new(
                cind.lhs_schema(),
                &cind.lhs_attrs()[..k]
                    .iter()
                    .map(|&a| cind.lhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                &cind
                    .lhs_pattern_attrs()
                    .iter()
                    .map(|&a| cind.lhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                cind.rhs_schema(),
                &cind.rhs_attrs()[..k]
                    .iter()
                    .map(|&a| cind.rhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                &cind
                    .rhs_pattern_attrs()
                    .iter()
                    .map(|&a| cind.rhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                vec![tp.clone()],
            )
            .expect("projection of a well-formed CIND");
            if let Some(c) = push(projected, sigma, &derived) {
                derived.push(c);
            }
        }
    }

    // Transitivity.
    for first in sigma {
        let tp1 = &first.tableau()[0];
        for second in sigma {
            if first.rhs_schema().name() != second.lhs_schema().name() {
                continue;
            }
            if first.rhs_attrs() != second.lhs_attrs() {
                continue;
            }
            // The middle relation's pattern must be guaranteed by the first
            // CIND's RHS pattern: same attributes, same constants.
            let tp2 = &second.tableau()[0];
            if first.rhs_pattern_attrs() != second.lhs_pattern_attrs() || tp1.rhs != tp2.lhs {
                continue;
            }
            let composed = Cind::new(
                first.lhs_schema(),
                &first
                    .lhs_attrs()
                    .iter()
                    .map(|&a| first.lhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                &first
                    .lhs_pattern_attrs()
                    .iter()
                    .map(|&a| first.lhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                second.rhs_schema(),
                &second
                    .rhs_attrs()
                    .iter()
                    .map(|&a| second.rhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                &second
                    .rhs_pattern_attrs()
                    .iter()
                    .map(|&a| second.rhs_schema().attr_name(a))
                    .collect::<Vec<_>>(),
                vec![CindPattern::new(tp1.lhs.clone(), tp2.rhs.clone())],
            )
            .expect("composition of well-formed CINDs");
            if let Some(c) = push(composed, sigma, &derived) {
                derived.push(c);
            }
        }
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implication::{cfd_implies_exact, cind_implies_chase};
    use crate::pattern::{cst, wild};
    use dq_relation::{Domain, Value};

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("city", Domain::Text),
                ("zip", Domain::Text),
            ],
        ))
    }

    fn sigma(s: &Arc<RelationSchema>) -> Vec<Cfd> {
        vec![
            Cfd::new(
                s,
                &["CC"],
                &["city"],
                vec![PatternTuple::new(vec![cst(44)], vec![cst("EDI")])],
            )
            .unwrap(),
            Cfd::new(
                s,
                &["city"],
                &["zip"],
                vec![PatternTuple::new(vec![cst("EDI")], vec![cst("EH")])],
            )
            .unwrap(),
            Cfd::new(
                s,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn every_derived_cfd_is_semantically_implied() {
        let s = schema();
        let base: Vec<Cfd> = sigma(&s).iter().flat_map(|c| c.normalize()).collect();
        let derived = derive_cfds_once(&s, &base);
        assert!(!derived.is_empty());
        for d in &derived {
            assert!(
                cfd_implies_exact(&base, &d.cfd),
                "unsound derivation via {:?}: {}",
                d.rule,
                d.cfd
            );
        }
    }

    #[test]
    fn transitivity_derives_the_constant_chain() {
        let s = schema();
        let base: Vec<Cfd> = sigma(&s).iter().flat_map(|c| c.normalize()).collect();
        let saturated = saturate_cfds(&s, &sigma(&s), 2);
        // CC = 44 -> zip = EH must appear after saturation.
        let target = Cfd::new(
            &s,
            &["CC"],
            &["zip"],
            vec![PatternTuple::new(vec![cst(44)], vec![cst("EH")])],
        )
        .unwrap();
        assert!(saturated.iter().any(|c| c == &target));
        assert!(cfd_implies_exact(&base, &target));
    }

    #[test]
    fn augmentation_and_reflexivity_shapes() {
        let s = schema();
        let base: Vec<Cfd> = vec![Cfd::new(
            &s,
            &["CC"],
            &["city"],
            vec![PatternTuple::new(vec![cst(44)], vec![wild()])],
        )
        .unwrap()];
        let derived = derive_cfds_once(&s, &base);
        assert!(derived.iter().any(|d| d.rule == CfdRule::Augmentation));
        assert!(derived.iter().any(|d| d.rule == CfdRule::Reflexivity));
        // Reflexivity keeps the pattern: (CC = 44 -> CC = 44).
        let refl = derived
            .iter()
            .find(|d| d.rule == CfdRule::Reflexivity)
            .unwrap();
        assert_eq!(refl.cfd.rhs(), &[s.attr("CC")]);
    }

    #[test]
    fn saturation_is_monotone_and_bounded() {
        let s = schema();
        let one = saturate_cfds(&s, &sigma(&s), 1);
        let two = saturate_cfds(&s, &sigma(&s), 2);
        assert!(two.len() >= one.len());
        // Every round-1 dependency survives into round 2.
        for c in &one {
            assert!(two.contains(c));
        }
    }

    #[test]
    fn derived_cinds_are_semantically_implied() {
        let order = Arc::new(RelationSchema::new(
            "order",
            [
                ("title", Domain::Text),
                ("price", Domain::Real),
                ("type", Domain::Text),
            ],
        ));
        let cd = Arc::new(RelationSchema::new(
            "CD",
            [
                ("album", Domain::Text),
                ("price", Domain::Real),
                ("genre", Domain::Text),
            ],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [
                ("title", Domain::Text),
                ("price", Domain::Real),
                ("format", Domain::Text),
            ],
        ));
        let c1 = Cind::new(
            &order,
            &["title", "price"],
            &["type"],
            &cd,
            &["album", "price"],
            &["genre"],
            vec![CindPattern::new(
                vec![Value::str("a-cd")],
                vec![Value::str("a-book")],
            )],
        )
        .unwrap();
        let c2 = Cind::new(
            &cd,
            &["album", "price"],
            &["genre"],
            &book,
            &["title", "price"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-book")],
                vec![Value::str("audio")],
            )],
        )
        .unwrap();
        let derived = derive_cinds_once(&[c1.clone(), c2.clone()]);
        assert!(!derived.is_empty());
        for d in &derived {
            assert!(
                cind_implies_chase(&[c1.clone(), c2.clone()], d, 10_000),
                "unsound CIND derivation: {d}"
            );
        }
        // The transitive composition order ⊆ book is among the derivations.
        assert!(derived
            .iter()
            .any(|d| d.lhs_schema().name() == "order" && d.rhs_schema().name() == "book"));
    }
}
