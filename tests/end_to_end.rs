//! Cross-crate integration: generate a dirty workload, detect, repair,
//! re-detect, and answer queries consistently — the full pipeline the paper
//! advocates, exercised through the facade crate.

use dataquality::prelude::*;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_gen::orders::{generate_orders, paper_cinds, OrderConfig};
use dq_relation::{Atom, ConjunctiveQuery, Term};

#[test]
fn detect_repair_redetect_on_synthetic_customers() {
    let cfds = paper_cfds();
    let workload = generate_customers(&CustomerConfig {
        tuples: 2_000,
        error_rate: 0.05,
        seed: 21,
        ..Default::default()
    });

    // The clean data is clean; the dirty data is not.
    assert!(DetectionEngine::new()
        .detect_cfd_violations(&workload.clean, &cfds)
        .is_clean());
    let before = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &cfds);
    assert!(!before.is_clean());

    // Repair, then re-detect: nothing left.
    let outcome = repair_cfd_violations(
        &workload.dirty,
        &cfds,
        &RepairCost::uniform(),
        &RepairConfig::default(),
    )
    .expect("consistent rule set");
    assert!(outcome.consistent);
    assert!(DetectionEngine::new()
        .detect_cfd_violations(&outcome.repaired, &cfds)
        .is_clean());
    assert!(check_u_repair(&workload.dirty, &outcome.repaired, &cfds));

    // Repair quality against ground truth: the repair touches at least as
    // many cells as were corrupted and restores a sizeable fraction.
    let quality = score_repair(&workload.clean, &workload.dirty, &outcome.repaired);
    assert!(quality.errors > 0);
    assert!(quality.recall > 0.3, "recall {}", quality.recall);
    assert!(quality.precision > 0.3, "precision {}", quality.precision);
}

#[test]
fn minimal_cover_reduces_detection_work_without_changing_the_outcome() {
    let cfds = paper_cfds();
    // Add a redundant dependency implied by ϕ1 (its restriction to zip =
    // constant does not exist; use an augmentation instead).
    let schema = dq_gen::customer::customer_schema();
    let redundant = Cfd::new(
        &schema,
        &["CC", "AC", "zip"],
        &["street"],
        vec![PatternTuple::new(
            vec![cst(44), wild(), wild()],
            vec![wild()],
        )],
    )
    .unwrap();
    let mut extended = cfds.clone();
    extended.push(redundant);
    let cover = cfd_minimal_cover(&extended);
    assert!(cover.len() < extended.iter().map(|c| c.normalize().len()).sum::<usize>());

    let workload = generate_customers(&CustomerConfig {
        tuples: 1_000,
        error_rate: 0.05,
        seed: 3,
        ..Default::default()
    });
    let full = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &extended);
    let covered = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &cover);
    // Same verdict tuple-wise: a tuple is dirty under the extended set iff
    // it is dirty under the cover.
    assert_eq!(full.is_clean(), covered.is_clean());
}

#[test]
fn cind_detection_and_chase_based_reasoning_on_generated_orders() {
    let cinds = paper_cinds();
    let workload = generate_orders(&OrderConfig {
        orders: 2_000,
        violation_rate: 0.03,
        seed: 4,
    });
    let report = DetectionEngine::new()
        .detect_cind_violations(&workload.db, &cinds)
        .unwrap();
    assert_eq!(
        report.total(),
        workload.broken_orders.len() + workload.broken_cds.len()
    );

    // The derived CIND order ⊆ book for audio books (composition of ϕ5-like
    // and ϕ6) is implied by the chase.
    let derived = derive_cinds_once(&cinds);
    for d in &derived {
        assert!(cind_implies_chase(&cinds, d, 10_000));
    }
}

#[test]
fn consistent_answers_survive_repair() {
    // Certain answers computed on the dirty database are answers on the
    // repaired database too (for value-preserving deletion repairs).
    let schema = std::sync::Arc::new(dq_relation::RelationSchema::new(
        "emp",
        [
            ("name", dq_relation::Domain::Text),
            ("dept", dq_relation::Domain::Text),
        ],
    ));
    let mut inst = dq_relation::RelationInstance::new(std::sync::Arc::clone(&schema));
    for (n, d) in [("ann", "cs"), ("ann", "ee"), ("bob", "cs"), ("carol", "me")] {
        inst.insert_values([dq_relation::Value::str(n), dq_relation::Value::str(d)])
            .unwrap();
    }
    let fd = Fd::new(&schema, &["name"], &["dept"]);
    let constraints = DenialConstraint::from_fd(&fd);
    let keys = vec![KeySpec::new("emp", vec![0])];
    let db = single_relation_db(inst.clone());
    let query = ConjunctiveQuery::new(
        vec!["n", "d"],
        vec![Atom::new("emp", vec![Term::var("n"), Term::var("d")])],
        vec![],
    );
    let certain = certain_answers_rewriting(&db, &keys, &query).unwrap();

    let repaired = repair_by_deletion(&inst, &constraints).repaired;
    let repaired_db = single_relation_db(repaired);
    let after = query.evaluate(&repaired_db).unwrap();
    for answer in &certain {
        assert!(after.contains(answer), "{answer:?} lost by the repair");
    }
}
