//! Property suites for the constraint static-analysis engine: the
//! propagation-guided solver must agree with the kept naive procedures on
//! every verdict, at every thread count, and every positive answer must
//! carry a witness the semantic oracles (detection over a materialized
//! instance) accept.

use dataquality::prelude::*;
use dq_core::analysis::lint;
use dq_core::analysis::solver::{solve_cfd_consistency, solve_cfd_implication};
use dq_core::reference;
use dq_relation::{Domain, RelationSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A schema mixing finite and infinite domains: the consistency problem is
/// NP-complete here (Theorem 4.1), so the solver's search actually runs.
fn finite_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "r",
        [
            ("A", Domain::Bool),
            ("B", Domain::Bool),
            ("C", Domain::finite_str(["x", "y", "z"])),
            ("D", Domain::Text),
        ],
    ))
}

/// All-infinite schema: consistency and implication fall to the quadratic
/// fast paths (Theorem 4.3), which the solver must take.
fn infinite_schema() -> Arc<RelationSchema> {
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

/// A random in-domain constant for attribute `attr` of `schema`.
fn random_constant(rng: &mut StdRng, schema: &RelationSchema, attr: usize) -> Value {
    match schema.domain(attr) {
        Domain::Bool => Value::from(rng.gen_bool(0.5)),
        Domain::Finite(values) => values[rng.gen_range(0..values.len())].clone(),
        _ => Value::from(if rng.gen_bool(0.5) { "c0" } else { "c1" }),
    }
}

/// A random normalized CFD whose constants are drawn from small pools per
/// attribute, so rule interactions (conflicts, implications) are common.
fn random_cfd(rng: &mut StdRng, schema: &Arc<RelationSchema>) -> Cfd {
    let arity = schema.arity();
    let mut attrs: Vec<usize> = (0..arity).collect();
    for i in 0..arity {
        let j = rng.gen_range(i..arity);
        attrs.swap(i, j);
    }
    let lhs_len = rng.gen_range(1..=2);
    let rhs = vec![attrs[lhs_len]];
    let lhs = attrs[..lhs_len].to_vec();
    let lhs_pattern = lhs
        .iter()
        .map(|&a| {
            if rng.gen_bool(0.5) {
                cst(random_constant(rng, schema, a))
            } else {
                wild()
            }
        })
        .collect();
    let rhs_pattern = vec![if rng.gen_bool(0.5) {
        cst(random_constant(rng, schema, rhs[0]))
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

fn render(sigma: &[Cfd]) -> Vec<String> {
    sigma.iter().map(|c| c.to_string()).collect()
}

/// The solver's consistency verdict equals the naive full search on random
/// rule sets over finite domains, at every thread count, and every witness
/// it produces passes detection on the singleton instance.
#[test]
fn solver_consistency_matches_naive_on_finite_domains() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(41);
    for round in 0..60 {
        let sigma: Vec<Cfd> = (0..rng.gen_range(2..=5))
            .map(|_| random_cfd(&mut rng, &schema))
            .collect();
        let naive = reference::cfd_set_consistent(&sigma);
        for threads in THREAD_COUNTS {
            let solved = solve_cfd_consistency(&sigma, threads);
            assert_eq!(
                solved.consistent,
                naive.consistent,
                "round {round}, {threads} threads, disagreement on {:?}",
                render(&sigma)
            );
            if let Some(witness) = solved.witness_tuple() {
                let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
                inst.insert(witness.clone()).unwrap();
                assert!(
                    reference::detect_cfd_violations(&inst, &sigma).is_clean(),
                    "round {round}: witness violates {:?}",
                    render(&sigma)
                );
            }
        }
    }
}

/// The solver's implication verdict equals the naive two-tuple
/// counterexample search, at every thread count; every counterexample it
/// produces satisfies sigma and violates phi under detection.
#[test]
fn solver_implication_matches_naive_on_finite_domains() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(43);
    for round in 0..40 {
        let sigma: Vec<Cfd> = (0..rng.gen_range(1..=3))
            .map(|_| random_cfd(&mut rng, &schema))
            .collect();
        let phi = random_cfd(&mut rng, &schema);
        let naive = reference::cfd_implies_exact(&sigma, &phi);
        for threads in THREAD_COUNTS {
            let solved = solve_cfd_implication(&sigma, &phi, threads);
            assert_eq!(
                solved.implied,
                naive,
                "round {round}, {threads} threads, disagreement on {} vs {:?}",
                phi,
                render(&sigma)
            );
            if let Some((t1, t2)) = &solved.counterexample {
                let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
                inst.insert(t1.clone()).unwrap();
                inst.insert(t2.clone()).unwrap();
                assert!(
                    reference::detect_cfd_violations(&inst, &sigma).is_clean(),
                    "round {round}: counterexample violates sigma {:?}",
                    render(&sigma)
                );
                assert!(
                    !reference::detect_cfd_violations(&inst, std::slice::from_ref(&phi)).is_clean(),
                    "round {round}: counterexample satisfies phi {phi}"
                );
            }
        }
    }
}

/// Verdict AND witness are bit-identical at every thread count: parallel
/// branch fan-out picks the lowest-index success, so scheduling cannot leak
/// into the answer.
#[test]
fn solver_results_are_deterministic_across_thread_counts() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(47);
    for _ in 0..30 {
        let sigma: Vec<Cfd> = (0..4).map(|_| random_cfd(&mut rng, &schema)).collect();
        let phi = random_cfd(&mut rng, &schema);
        let base_consistency = solve_cfd_consistency(&sigma, 1);
        let base_implication = solve_cfd_implication(&sigma, &phi, 1);
        for threads in [2, 4, 0] {
            let c = solve_cfd_consistency(&sigma, threads);
            assert_eq!(c.consistent, base_consistency.consistent);
            assert_eq!(
                c.witness_tuple(),
                base_consistency.witness_tuple(),
                "witness depends on thread count for {:?}",
                render(&sigma)
            );
            let i = solve_cfd_implication(&sigma, &phi, threads);
            assert_eq!(i.implied, base_implication.implied);
            assert_eq!(
                i.counterexample,
                base_implication.counterexample,
                "counterexample depends on thread count for {} vs {:?}",
                phi,
                render(&sigma)
            );
        }
    }
}

/// Without finite-domain attributes both analyses complete on their
/// quadratic fast paths (Theorem 4.3) and still agree with the naive
/// procedures.
#[test]
fn fast_paths_cover_infinite_domains_and_agree_with_naive() {
    let schema = infinite_schema();
    let mut rng = StdRng::seed_from_u64(53);
    for _ in 0..40 {
        let sigma: Vec<Cfd> = (0..4).map(|_| random_cfd(&mut rng, &schema)).collect();
        let solved = solve_cfd_consistency(&sigma, 0);
        assert!(
            solved.stats.fast_path,
            "no finite domains, yet search ran on {:?}",
            render(&sigma)
        );
        assert_eq!(
            solved.consistent,
            reference::cfd_set_consistent(&sigma).consistent
        );
        let phi = random_cfd(&mut rng, &schema);
        let implied = solve_cfd_implication(&sigma, &phi, 0);
        assert!(implied.stats.fast_path);
        assert_eq!(implied.implied, reference::cfd_implies_exact(&sigma, &phi));
    }
}

/// The lint core is (a) really inconsistent and (b) minimal: removing any
/// single rule restores consistency, per the naive oracle.
#[test]
fn lint_cores_are_minimal_inconsistent_subsets() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(59);
    let mut inconsistent_seen = 0;
    for _ in 0..120 {
        let sigma: Vec<Cfd> = (0..rng.gen_range(3..=6))
            .map(|_| random_cfd(&mut rng, &schema))
            .collect();
        if solve_cfd_consistency(&sigma, 0).consistent {
            continue;
        }
        inconsistent_seen += 1;
        let core_indices = lint::minimal_inconsistent_core(&sigma);
        let core: Vec<Cfd> = core_indices.iter().map(|&i| sigma[i].clone()).collect();
        assert!(
            !reference::cfd_set_consistent(&core).consistent,
            "core {core_indices:?} of {:?} is consistent",
            render(&sigma)
        );
        for drop in 0..core.len() {
            let mut reduced = core.clone();
            reduced.remove(drop);
            assert!(
                reference::cfd_set_consistent(&reduced).consistent,
                "core {core_indices:?} of {:?} is not minimal (rule {drop} removable)",
                render(&sigma)
            );
        }
        let report = lint_cfds(&sigma);
        assert!(!report.is_consistent());
        assert_eq!(report.core(), Some(core_indices.as_slice()));
    }
    assert!(
        inconsistent_seen >= 5,
        "workload generator produced too few inconsistent sets ({inconsistent_seen})"
    );
}

/// The canonical minimal cover is permutation-invariant: any input order
/// produces the identical rule list.
#[test]
fn minimal_cover_is_permutation_invariant() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..25 {
        let sigma: Vec<Cfd> = (0..5).map(|_| random_cfd(&mut rng, &schema)).collect();
        if !solve_cfd_consistency(&sigma, 0).consistent {
            continue;
        }
        let reference = cfd_minimal_cover(&sigma);
        for _ in 0..4 {
            let mut shuffled = sigma.clone();
            for i in 0..shuffled.len() {
                let j = rng.gen_range(i..shuffled.len());
                shuffled.swap(i, j);
            }
            let cover = cfd_minimal_cover(&shuffled);
            assert_eq!(
                cover,
                reference,
                "cover depends on input order for {:?}",
                render(&sigma)
            );
        }
        // Cover members are implied by the original set and vice versa.
        for c in &reference {
            assert!(cfd_implies_exact(&sigma, c));
        }
        for c in &sigma {
            assert!(cfd_implies_exact(&reference, c));
        }
    }
}

/// `analyze_cfds` refuses inconsistent sets with the minimal core rendered
/// in the error, and vets consistent sets with a valid witness.
#[test]
fn analyze_cfds_refuses_inconsistent_sets_with_core() {
    let schema = finite_schema();
    let mut rng = StdRng::seed_from_u64(67);
    let mut refused = 0;
    for _ in 0..80 {
        let sigma: Vec<Cfd> = (0..rng.gen_range(3..=6))
            .map(|_| random_cfd(&mut rng, &schema))
            .collect();
        match analyze_cfds(&sigma, &AnalysisOptions::default()) {
            Ok(analyzed) => {
                assert!(analyzed.report.is_consistent());
                if let Some(w) = &analyzed.witness {
                    let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
                    inst.insert(w.clone()).unwrap();
                    assert!(reference::detect_cfd_violations(&inst, &sigma).is_clean());
                }
            }
            Err(dq_relation::DqError::InconsistentConstraints { core }) => {
                refused += 1;
                assert!(!core.is_empty());
                assert!(!reference::cfd_set_consistent(&sigma).consistent);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(refused >= 5, "too few inconsistent sets ({refused})");
}
