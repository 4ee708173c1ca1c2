//! Property suites for the constraint static-analysis engine: the
//! propagation-guided solver must agree with the kept naive procedures on
//! every verdict, at every thread count, and every positive answer must
//! carry a witness the semantic oracles (detection over a materialized
//! instance) accept.

use dataquality::prelude::*;
use dq_core::analysis::lint;
use dq_core::analysis::solver::{solve_cfd_consistency, solve_cfd_implication};
use dq_core::reference;
use dq_gen::customer::{customer_schema, generate_customers, paper_cfds, CustomerConfig};
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

/// A parity cycle over `k` boolean attributes: for every `i` the rules
/// `(b_i = v → b_{i+1 mod k} = v)` propagate the value around the cycle;
/// the `flip` variant negates the closing edge, so every assignment runs
/// into a contradiction.  No rule forces a constant unconditionally, so the
/// instance is decided by search: the reference's blind backtracking tests
/// satisfaction only at full depth (`2^k` leaves when inconsistent).
fn parity_cycle_cfds(k: usize, flip: bool) -> Vec<Cfd> {
    let schema = Arc::new(RelationSchema::new(
        "parity",
        (0..k).map(|i| (format!("b{i}"), Domain::Bool)),
    ));
    (0..k)
        .map(|i| {
            let invert = flip && i == k - 1;
            let rows = [true, false]
                .iter()
                .map(|&v| PatternTuple::new(vec![cst(v)], vec![cst(if invert { !v } else { v })]))
                .collect();
            Cfd::from_indices(&schema, vec![i], vec![(i + 1) % k], rows).unwrap()
        })
        .collect()
}

/// The finite-domain implication gadget of Section 4.1: sigma forces
/// `B = b0` whichever boolean value `a0` takes, so `([a0..a_{k-1}] → B)`
/// with RHS pattern `b0` is implied — but only by case analysis over the
/// boolean domain, which the quadratic closure cannot see.
fn implication_gadget(k: usize) -> (Vec<Cfd>, Cfd) {
    let mut attrs: Vec<(String, Domain)> =
        (0..k).map(|i| (format!("a{i}"), Domain::Bool)).collect();
    attrs.push(("B".into(), Domain::Text));
    let schema = Arc::new(RelationSchema::new("imp", attrs));
    let sigma = [true, false]
        .iter()
        .map(|&v| {
            let row = PatternTuple::new(vec![cst(v)], vec![cst("b0")]);
            Cfd::from_indices(&schema, vec![0], vec![k], vec![row]).unwrap()
        })
        .collect();
    let row = PatternTuple::new(vec![wild(); k], vec![cst("b0")]);
    let phi = Cfd::from_indices(&schema, (0..k).collect(), vec![k], vec![row]).unwrap();
    (sigma, phi)
}

/// On the search gadgets — parity cycles both ways and the boolean case
/// split — the solver's verdicts equal the reference's at every thread
/// count: the flipped cycle is inconsistent, the consistent cycle's witness
/// satisfies it under the reference detector, and the case split is
/// implied although the quadratic closure cannot prove it.
#[test]
fn solver_decides_the_search_gadgets_like_the_reference() {
    for k in [6, 8] {
        let cycle = parity_cycle_cfds(k, true);
        let cycle_ok = parity_cycle_cfds(k, false);
        let (sigma, phi) = implication_gadget(k);
        assert!(
            !reference::cfd_set_consistent(&cycle).consistent,
            "the flipped parity cycle is inconsistent (k = {k})"
        );
        assert!(reference::cfd_set_consistent(&cycle_ok).consistent);
        assert!(
            !cfd_implies_closure(&sigma, &phi),
            "the gadget must defeat the quadratic closure (k = {k})"
        );
        assert!(reference::cfd_implies_exact(&sigma, &phi), "k = {k}");
        for threads in THREAD_COUNTS {
            assert!(
                !solve_cfd_consistency(&cycle, threads).consistent,
                "k = {k}"
            );
            let solved = solve_cfd_consistency(&cycle_ok, threads);
            assert!(solved.consistent, "k = {k}");
            let witness = solved
                .witness_tuple()
                .expect("consistent verdicts carry a witness");
            let mut singleton = RelationInstance::new(Arc::clone(cycle_ok[0].schema()));
            singleton.insert(witness.clone()).unwrap();
            assert!(
                reference::detect_cfd_violations(&singleton, &cycle_ok).is_clean(),
                "the solver witness must satisfy the cycle (k = {k})"
            );
            assert!(
                solve_cfd_implication(&sigma, &phi, threads).implied,
                "k = {k}"
            );
        }
    }
}

/// The lint showcase: a consistent but messy set (a subsumed tableau row,
/// a rule repeated verbatim) lints consistent, and two wildcard-LHS rules
/// forcing different cities form a two-rule inconsistent core.
#[test]
fn lint_reports_the_showcase_sets() {
    let schema = Arc::new(RelationSchema::new(
        "lint_demo",
        [
            ("CC", Domain::Text),
            ("AC", Domain::Text),
            ("city", Domain::Text),
        ],
    ));
    let rule = |lhs: Vec<usize>, rows: Vec<PatternTuple>| {
        Cfd::from_indices(&schema, lhs, vec![2], rows).unwrap()
    };
    let subsumed = rule(
        vec![0, 1],
        vec![
            PatternTuple::new(vec![cst("44"), wild()], vec![wild()]),
            PatternTuple::new(vec![cst("44"), cst("131")], vec![wild()]),
        ],
    );
    let constant = rule(
        vec![0],
        vec![PatternTuple::new(vec![cst("01")], vec![cst("MH")])],
    );
    let messy = lint_cfds(&[subsumed, constant.clone(), constant]);
    assert!(messy.is_consistent());
    let force = |city: &str| {
        rule(
            vec![0],
            vec![PatternTuple::new(vec![wild()], vec![cst(city)])],
        )
    };
    let inconsistent = lint_cfds(&[
        rule(
            vec![1],
            vec![PatternTuple::new(vec![cst("131")], vec![wild()])],
        ),
        force("EDI"),
        force("NYC"),
    ]);
    assert!(!inconsistent.is_consistent());
    assert_eq!(
        inconsistent.core().map(<[usize]>::len),
        Some(2),
        "two wildcard-LHS rules forcing different constants form the core"
    );
}

/// Rules mined on 2,000 scaled customers plus the paper's: the solver's
/// consistency verdict equals the reference's, the masked minimal cover
/// equals `dq_core::reference::cfd_minimal_cover`, and on 20,000 customers
/// detection with the cover gives the clean verdict of detection with the
/// full normalized set, on the dirty and the clean instance.
#[test]
#[ignore = "reference cover and consistency on a mined set: run in release with --ignored"]
fn minimal_cover_keeps_detection_verdicts_on_scaled_customers() {
    let scaled = |tuples: usize| {
        generate_customers(&CustomerConfig {
            tuples,
            error_rate: 0.05,
            seed: 42,
            cities_per_country: (tuples / 2_000).max(3),
        })
    };
    let mine = scaled(2_000).dirty;
    let schema = mine.schema();
    let mined = discover_cfds(
        &mine,
        &CfdDiscoveryConfig {
            exclude: vec![schema.attr("phn"), schema.attr("name")],
            ..CfdDiscoveryConfig::default()
        },
    );
    let mut full = mined.all();
    full.extend(paper_cfds());
    assert_eq!(
        solve_cfd_consistency(&full, 0).consistent,
        reference::cfd_set_consistent(&full).consistent,
        "solver and reference consistency verdicts must be identical on the mined set"
    );
    let covered = cfd_minimal_cover(&full);
    assert_eq!(covered, reference::cfd_minimal_cover(&full));
    let normalized: Vec<Cfd> = full.iter().flat_map(Cfd::normalize).collect();
    let detect = scaled(20_000);
    for instance in [&detect.dirty, &detect.clean] {
        let engine = DetectionEngine::new();
        assert_eq!(
            engine
                .detect_cfd_violations(instance, &normalized)
                .is_clean(),
            engine.detect_cfd_violations(instance, &covered).is_clean(),
            "cover pruning must not change the clean verdict"
        );
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

/// A random CFD with one or two RHS attributes and one to three pattern
/// rows, so the compiled analyses see rules that normalize into several
/// fragments.
fn random_tableau_cfd(rng: &mut StdRng, schema: &Arc<RelationSchema>) -> Cfd {
    let arity = schema.arity();
    let mut attrs: Vec<usize> = (0..arity).collect();
    for i in 0..arity {
        let j = rng.gen_range(i..arity);
        attrs.swap(i, j);
    }
    let lhs_len = rng.gen_range(1..=2);
    let rhs_len = rng.gen_range(1..=2);
    let lhs = attrs[..lhs_len].to_vec();
    let rhs = attrs[lhs_len..lhs_len + rhs_len].to_vec();
    let entry = |rng: &mut StdRng, a: usize| {
        if rng.gen_bool(0.5) {
            cst(random_constant(rng, schema, a))
        } else {
            wild()
        }
    };
    let tableau = (0..rng.gen_range(1..=3))
        .map(|_| {
            PatternTuple::new(
                lhs.iter().map(|&a| entry(rng, a)).collect(),
                rhs.iter().map(|&a| entry(rng, a)).collect(),
            )
        })
        .collect();
    Cfd::from_indices(schema, lhs, rhs, tableau).unwrap()
}

/// The masked minimal cover equals the clone-per-candidate reference loop
/// on random sets over finite and infinite domains, inconsistent sets
/// included.
#[test]
fn minimal_cover_equals_reference() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut inconsistent_seen = 0;
    for schema in [finite_schema(), infinite_schema()] {
        for _ in 0..60 {
            let sigma: Vec<Cfd> = (0..rng.gen_range(2..=7))
                .map(|_| random_cfd(&mut rng, &schema))
                .collect();
            if !solve_cfd_consistency(&sigma, 0).consistent {
                inconsistent_seen += 1;
            }
            assert_eq!(
                render(&cfd_minimal_cover(&sigma)),
                render(&reference::cfd_minimal_cover(&sigma)),
                "cover differs from the reference for {:?}",
                render(&sigma)
            );
        }
    }
    assert!(
        inconsistent_seen >= 5,
        "workload generator produced too few inconsistent sets ({inconsistent_seen})"
    );
}

/// The masked minimal cover equals the reference on a mined rule set: the
/// CFDs discovered on 5k customers (LHS up to two attributes) plus the
/// paper's curated rules, which the mined ones largely repeat.
#[test]
fn minimal_cover_equals_reference_on_mined_rules() {
    let workload = generate_customers(&CustomerConfig {
        tuples: 5_000,
        ..CustomerConfig::default()
    });
    let schema = workload.dirty.schema();
    let mined = discover_cfds(
        &workload.dirty,
        &CfdDiscoveryConfig {
            max_lhs: 2,
            exclude: vec![schema.attr("phn"), schema.attr("name")],
            ..CfdDiscoveryConfig::default()
        },
    );
    let mut sigma = mined.all();
    sigma.extend(paper_cfds());
    let cover = cfd_minimal_cover(&sigma);
    let normalized: usize = sigma.iter().map(|c| c.normalize().len()).sum();
    assert!(
        cover.len() < normalized,
        "the mined set should carry redundancy"
    );
    assert_eq!(cover, reference::cfd_minimal_cover(&sigma));
}

/// The compiled pattern closure returns the reference's verdict on random
/// rule sets, multi-row and multi-RHS rules included.
#[test]
fn closure_equals_reference() {
    let mut rng = StdRng::seed_from_u64(73);
    for schema in [finite_schema(), infinite_schema()] {
        for _ in 0..150 {
            let sigma: Vec<Cfd> = (0..rng.gen_range(0..=5))
                .map(|_| random_tableau_cfd(&mut rng, &schema))
                .collect();
            let phi = random_tableau_cfd(&mut rng, &schema);
            assert_eq!(
                cfd_implies_closure(&sigma, &phi),
                reference::cfd_implies_closure(&sigma, &phi),
                "closure verdicts differ for {:?} ⊨ {phi}",
                render(&sigma)
            );
        }
    }
}

/// The lint pass's `implied-rule` findings are exactly the rules a
/// leave-one-out over the blind exact implication search finds implied (and
/// none when the set is inconsistent).
#[test]
fn lint_implied_rules_equal_reference() {
    let mut rng = StdRng::seed_from_u64(79);
    let mut implied_seen = 0;
    for schema in [finite_schema(), infinite_schema()] {
        for _ in 0..40 {
            let sigma: Vec<Cfd> = (0..rng.gen_range(2..=5))
                .map(|_| random_tableau_cfd(&mut rng, &schema))
                .collect();
            let found: Vec<usize> = lint_cfds(&sigma)
                .diagnostics()
                .iter()
                .filter(|d| d.code == "implied-rule")
                .map(|d| d.rules[0])
                .collect();
            let expected: Vec<usize> = if reference::cfd_set_consistent(&sigma).consistent {
                (0..sigma.len())
                    .filter(|&r| {
                        let mut rest = sigma.clone();
                        let rule = rest.remove(r);
                        reference::cfd_implies_exact(&rest, &rule)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            implied_seen += expected.len();
            assert_eq!(
                found,
                expected,
                "implied-rule findings differ for {:?}",
                render(&sigma)
            );
        }
    }
    assert!(
        implied_seen >= 5,
        "workload generator produced too few implied rules ({implied_seen})"
    );
}

/// Rules over two relation schemas are refused as malformed instead of
/// indexing one schema with the other's attribute positions.
#[test]
fn analysis_refuses_rules_over_two_schemas() {
    let pair = Arc::new(RelationSchema::new(
        "pair",
        [("A", Domain::Text), ("B", Domain::Text)],
    ));
    let customer = customer_schema();
    let sigma = vec![
        Cfd::new(
            &pair,
            &["A"],
            &["B"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .unwrap(),
        Cfd::new(
            &customer,
            &["zip"],
            &["city"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .unwrap(),
    ];
    let analyzed = analyze_cfds(&sigma, &AnalysisOptions::default()).map(|_| ());
    let ensured = dq_core::analysis::ensure_consistent(&sigma);
    for result in [analyzed, ensured] {
        assert!(
            matches!(
                result,
                Err(dq_relation::DqError::MalformedDependency { .. })
            ),
            "expected a malformed-dependency error, got {result:?}"
        );
    }
}
