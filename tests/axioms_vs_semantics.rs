//! Cross-validation of the syntactic machinery against semantic oracles:
//! inference rules vs. implication, implication algorithms vs. brute force,
//! detection vs. satisfaction.

use dataquality::prelude::*;
use dq_core::reference;
use dq_relation::{Domain, RelationSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "r",
        [
            ("A", Domain::Text),
            ("B", Domain::Text),
            ("C", Domain::Text),
            ("D", Domain::Text),
        ],
    ))
}

/// Generates a random normalized CFD over the 4-attribute text schema, with
/// constants drawn from a 2-element pool so interactions actually happen.
fn random_cfd(rng: &mut StdRng, schema: &Arc<RelationSchema>) -> Cfd {
    let attrs = [0usize, 1, 2, 3];
    let lhs_len = rng.gen_range(1..=2);
    let mut lhs: Vec<usize> = attrs.to_vec();
    // Knuth shuffle prefix.
    for i in 0..attrs.len() {
        let j = rng.gen_range(i..attrs.len());
        lhs.swap(i, j);
    }
    let rhs = vec![lhs[lhs_len]];
    let lhs = lhs[..lhs_len].to_vec();
    let constants = ["c0", "c1"];
    let lhs_pattern = lhs
        .iter()
        .map(|_| {
            if rng.gen_bool(0.5) {
                cst(constants[rng.gen_range(0..2)])
            } else {
                wild()
            }
        })
        .collect();
    let rhs_pattern = vec![if rng.gen_bool(0.5) {
        cst(constants[rng.gen_range(0..2)])
    } else {
        wild()
    }];
    Cfd::from_indices(
        schema,
        lhs,
        rhs,
        vec![PatternTuple::new(lhs_pattern, rhs_pattern)],
    )
    .unwrap()
}

/// Every CFD derived by one round of the inference rules is semantically
/// implied (soundness of the axioms, Theorem 4.6 exercised).
#[test]
fn cfd_inference_rules_are_sound_on_random_sets() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..20 {
        let sigma: Vec<Cfd> = (0..3).map(|_| random_cfd(&mut rng, &schema)).collect();
        let derived = derive_cfds_once(&schema, &sigma);
        for d in &derived {
            assert!(
                cfd_implies_exact(&sigma, &d.cfd),
                "unsound derivation {:?} from {:?}",
                d.cfd.to_string(),
                sigma.iter().map(|c| c.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

/// The quadratic closure-based implication agrees with the exact
/// counterexample search on schemas without finite-domain attributes
/// (Theorem 4.3), and never claims an implication the exact check refutes.
#[test]
fn closure_implication_agrees_with_exact_on_infinite_domains() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0;
    for _ in 0..40 {
        let sigma: Vec<Cfd> = (0..3).map(|_| random_cfd(&mut rng, &schema)).collect();
        let phi = random_cfd(&mut rng, &schema);
        let fast = cfd_implies_closure(&sigma, &phi);
        let exact = cfd_implies_exact(&sigma, &phi);
        assert_eq!(
            fast,
            exact,
            "disagreement on {} vs {:?}",
            phi,
            sigma.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
        checked += 1;
    }
    assert_eq!(checked, 40);
}

/// Consistency: the exact witness search and the propagation fixpoint agree
/// on schemas without finite-domain attributes.
#[test]
fn consistency_checks_agree_without_finite_domains() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..40 {
        let sigma: Vec<Cfd> = (0..4).map(|_| random_cfd(&mut rng, &schema)).collect();
        assert_eq!(
            cfd_set_consistent(&sigma).consistent,
            cfd_set_consistent_propagation(&sigma),
            "disagreement on {:?}",
            sigma.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }
}

/// A consistency witness really satisfies the dependency set, and detection
/// on a singleton instance built from it reports no violations.
#[test]
fn consistency_witnesses_validate_against_detection() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..30 {
        let sigma: Vec<Cfd> = (0..4).map(|_| random_cfd(&mut rng, &schema)).collect();
        let result = cfd_set_consistent(&sigma);
        if let Some(witness) = result.witness_tuple() {
            let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
            inst.insert(witness.clone()).unwrap();
            assert!(reference::detect_cfd_violations(&inst, &sigma).is_clean());
        }
    }
}

/// MD implication is reflexive, monotone under premise strengthening, and
/// closed under the minimal cover.
#[test]
fn md_implication_sanity_on_the_paper_rules() {
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let sigma = example_3_1_mds(&card, &billing);
    for md in &sigma {
        assert!(md_implies(&sigma, md));
    }
    let cover = md_minimal_cover(&sigma);
    for md in &sigma {
        assert!(md_implies(&cover, md));
    }
    assert!(cover.len() <= sigma.len());
}

/// FD implication via closure agrees with CFD implication on the embedded
/// all-wildcard dependencies.
#[test]
fn fd_and_cfd_implication_agree_on_traditional_dependencies() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..30 {
        let fds: Vec<Fd> = (0..3)
            .map(|_| {
                let a = rng.gen_range(0..4usize);
                let mut b = rng.gen_range(0..4usize);
                if b == a {
                    b = (b + 1) % 4;
                }
                Fd::from_indices(&schema, vec![a], vec![b])
            })
            .collect();
        let target = {
            let a = rng.gen_range(0..4usize);
            let mut b = rng.gen_range(0..4usize);
            if b == a {
                b = (b + 1) % 4;
            }
            Fd::from_indices(&schema, vec![a], vec![b])
        };
        let as_cfds: Vec<Cfd> = fds.iter().map(Cfd::from_fd).collect();
        assert_eq!(
            fd_implies(&fds, &target),
            cfd_implies_closure(&as_cfds, &Cfd::from_fd(&target)),
        );
    }
}

/// Detection and satisfaction are two views of the same semantics: an
/// instance satisfies a CFD iff the detector finds nothing.
#[test]
fn detection_agrees_with_satisfaction_on_random_instances() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(23);
    let values = ["c0", "c1", "c2"];
    for _ in 0..20 {
        let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
        for _ in 0..rng.gen_range(2..10) {
            inst.insert_values([
                Value::str(values[rng.gen_range(0..3)]),
                Value::str(values[rng.gen_range(0..3)]),
                Value::str(values[rng.gen_range(0..3)]),
                Value::str(values[rng.gen_range(0..3)]),
            ])
            .unwrap();
        }
        let cfd = random_cfd(&mut rng, &schema);
        assert_eq!(
            cfd.holds_on(&inst),
            reference::cfd_violations(&cfd, &inst).is_empty()
        );
    }
}
