//! End-to-end reproduction of every worked example of the paper, exercised
//! through the public facade crate.

use dataquality::prelude::*;
use dq_relation::{Domain, RelationSchema, TupleId, Value};
use std::sync::Arc;

/// Fig. 1 + Fig. 2 + Section 2.1: D0 satisfies f1, f2 but every tuple
/// violates one of ϕ1–ϕ3, with exactly the violations described in the text.
#[test]
fn figures_1_and_2_customer_scenario() {
    let d0 = dq_gen::customer::paper_instance();
    let fds = dq_gen::customer::paper_fds();
    let cfds = dq_gen::customer::paper_cfds();

    for fd in &fds {
        assert!(fd.holds_on(&d0), "D0 must satisfy {fd}");
    }
    // ϕ3 (= f2) is satisfied; ϕ1 and ϕ2 are violated.
    assert!(cfds[2].holds_on(&d0));
    assert!(!cfds[0].holds_on(&d0));
    assert!(!cfds[1].holds_on(&d0));

    // t1, t2 violate ϕ1 as a pair (same UK zip, different street).
    let report = DetectionEngine::new().detect_cfd_violations(&d0, &cfds);
    let v1 = report.of(0);
    assert_eq!(v1.len(), 1);
    assert_eq!(v1[0].tuples(), vec![TupleId(0), TupleId(1)]);

    // Each of t1, t2 violates the (44, 131, _ ‖ _, EDI, _) pattern of ϕ2 and
    // t3 violates the (01, 908, _ ‖ _, MH, _) pattern — single-tuple
    // violations, three in total.
    let v2 = report.of(1);
    assert_eq!(v2.len(), 3);
    assert!(v2
        .iter()
        .all(|v| matches!(v, CfdViolation::SingleTuple { .. })));

    // Overall: every tuple of D0 is dirty.
    assert_eq!(
        report.violating_tuples(),
        vec![TupleId(0), TupleId(1), TupleId(2)]
    );
}

/// Fig. 3 + Fig. 4 + Section 2.2: D1 satisfies cind1, cind2 and violates
/// cind3 through the audio-book tuple t9.
#[test]
fn figures_3_and_4_order_scenario() {
    let db = dq_gen::orders::paper_database();
    let cinds = dq_gen::orders::paper_cinds();
    assert!(cinds[0].holds_on(&db).unwrap());
    assert!(cinds[1].holds_on(&db).unwrap());
    let report = DetectionEngine::new()
        .detect_cind_violations(&db, &cinds)
        .unwrap();
    let violations = report.of(2);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].tuple, TupleId(1)); // t9, the second CD tuple

    // The plain INDs of Section 2.2 "do not make sense": the unconditional
    // version of cind1 is violated by the CD order.
    let order = dq_gen::orders::order_schema();
    let book = dq_gen::orders::book_schema();
    let plain = Ind::new(&order, &["asin"], &book, &["isbn"]).unwrap();
    assert!(!plain.holds_on(&db).unwrap());
}

/// Section 2.3: the eCFDs over New York customers.
#[test]
fn section_2_3_ecfds() {
    let schema = Arc::new(RelationSchema::new(
        "nycust",
        [("CT", Domain::Text), ("AC", Domain::Int)],
    ));
    let ecfd1 = Ecfd::new(
        &schema,
        &["CT"],
        &["AC"],
        vec![EcfdPattern::new(
            vec![SetPattern::not_in(["NYC", "LI"])],
            vec![SetPattern::any()],
        )],
    )
    .unwrap();
    let ecfd2 = Ecfd::new(
        &schema,
        &["CT"],
        &["AC"],
        vec![EcfdPattern::new(
            vec![SetPattern::in_set(["NYC"])],
            vec![SetPattern::in_set([212i64, 718, 646, 347, 917])],
        )],
    )
    .unwrap();
    let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
    for (ct, ac) in [
        ("NYC", 212),
        ("NYC", 718),
        ("Albany", 518),
        ("Buffalo", 716),
    ] {
        inst.insert_values([Value::str(ct), Value::int(ac)])
            .unwrap();
    }
    assert!(ecfd1.holds_on(&inst));
    assert!(ecfd2.holds_on(&inst));
    // A sixth NYC area code violates ecfd2; a second Albany code violates ecfd1.
    inst.insert_values([Value::str("NYC"), Value::int(518)])
        .unwrap();
    inst.insert_values([Value::str("Albany"), Value::int(212)])
        .unwrap();
    assert!(!ecfd2.holds_on(&inst));
    assert!(!ecfd1.holds_on(&inst));
    // The eCFD set itself is consistent.
    assert!(ecfd_set_consistent(&[ecfd1, ecfd2]).consistent);
}

/// Examples 3.1, 3.2 and 4.3: the fraud-detection MDs imply the three
/// relative keys, which in turn drive object identification.
#[test]
fn examples_3_1_3_2_and_4_3_matching() {
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let sigma = example_3_1_mds(&card, &billing);
    let yc = dq_match::paper::YC;
    let yb = dq_match::paper::YB;

    let rcks: Vec<RelativeKey> = [
        vec![
            ("email", "email", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
        ],
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("tel", "phn", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::edit(3)),
        ],
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::edit(3)),
        ],
    ]
    .into_iter()
    .map(|cmp| RelativeKey::new(&card, &billing, cmp, &yc, &yb).unwrap())
    .collect();

    for (i, rck) in rcks.iter().enumerate() {
        assert!(md_implies(&sigma, rck.md()), "rck{} must be implied", i + 1);
        assert!(rck.md().is_relative_key());
    }

    // Using the derived keys as matching rules identifies every true pair
    // even though first names are abbreviated and phone numbers differ: the
    // email/address key (rck1) covers the pairs the edit-distance rule
    // cannot, and vice versa.
    let workload = dq_gen::cards::generate_cards(&dq_gen::cards::CardConfig {
        holders: 300,
        billing_rate: 1.0,
        abbreviate_rate: 1.0,
        phone_change_rate: 1.0,
        email_change_rate: 0.0,
        distractors: 30,
        seed: 5,
    });
    let engine = MatchingEngine::new(Arc::new(IndexPool::new()));
    let matcher = Matcher::new(rcks.clone());
    let (_, quality) =
        matcher.evaluate(&engine, &workload.card, &workload.billing, &workload.truth);
    assert_eq!(quality.recall, 1.0);
    assert_eq!(quality.precision, 1.0);

    // Without rck1 (i.e. without the rule derived from φ2), the same rules
    // miss the pairs whose first names were abbreviated beyond the edit
    // threshold — derived rules genuinely add recall.
    let weaker = Matcher::new(rcks[1..].to_vec());
    let (_, weaker_quality) =
        weaker.evaluate(&engine, &workload.card, &workload.billing, &workload.truth);
    assert!(weaker_quality.recall < quality.recall);
}

/// Example 4.1: the boolean-domain CFD pair is unsatisfiable.
#[test]
fn example_4_1_inconsistent_cfds() {
    let schema = Arc::new(RelationSchema::new(
        "r",
        [("A", Domain::Bool), ("B", Domain::Text)],
    ));
    let psi1 = Cfd::new(
        &schema,
        &["A"],
        &["B"],
        vec![
            PatternTuple::new(vec![cst(true)], vec![cst("b1")]),
            PatternTuple::new(vec![cst(false)], vec![cst("b2")]),
        ],
    )
    .unwrap();
    let psi2 = Cfd::new(
        &schema,
        &["B"],
        &["A"],
        vec![
            PatternTuple::new(vec![cst("b1")], vec![cst(false)]),
            PatternTuple::new(vec![cst("b2")], vec![cst(true)]),
        ],
    )
    .unwrap();
    assert!(!cfd_set_consistent(&[psi1.clone(), psi2.clone()]).consistent);
    // Dropping either CFD restores consistency.
    assert!(cfd_set_consistent(&[psi1]).consistent);
    assert!(cfd_set_consistent(&[psi2]).consistent);
}

/// Example 5.1: D_n has 2^n repairs under a single key.
#[test]
fn example_5_1_exponential_repairs() {
    for n in [1usize, 3, 5, 8] {
        let (instance, constraints) = example_5_1_instance(n);
        assert_eq!(instance.len(), 2 * n);
        assert_eq!(count_repairs(&instance, &constraints), 1 << n);
    }
}

/// Section 5.2: certain answers computed by rewriting coincide with the
/// repair-enumeration oracle on the paper-style key-violation scenario.
#[test]
fn section_5_2_certain_answers() {
    let schema = Arc::new(RelationSchema::new(
        "emp",
        [("name", Domain::Text), ("dept", Domain::Text)],
    ));
    let mut inst = dq_relation::RelationInstance::new(Arc::clone(&schema));
    for (n, d) in [("ann", "cs"), ("ann", "ee"), ("bob", "cs")] {
        inst.insert_values([Value::str(n), Value::str(d)]).unwrap();
    }
    let constraints = DenialConstraint::from_fd(&Fd::new(&schema, &["name"], &["dept"]));
    let db = single_relation_db(inst.clone());
    let keys = vec![KeySpec::new("emp", vec![0])];
    let query = dq_relation::ConjunctiveQuery::new(
        vec!["n", "d"],
        vec![dq_relation::Atom::new(
            "emp",
            vec![dq_relation::Term::var("n"), dq_relation::Term::var("d")],
        )],
        vec![],
    );
    let slow = certain_answers_oracle(&db, "emp", &constraints, &query).unwrap();
    let fast = certain_answers_rewriting(&db, &keys, &query).unwrap();
    assert_eq!(slow, fast);
    assert_eq!(fast.len(), 1);

    // Section 5.3: the nucleus returns the same certain answers.
    let nucleus = nucleus_for_fd(&inst, &Fd::new(&schema, &["name"], &["dept"]));
    assert_eq!(evaluate_on_nucleus(&nucleus, "emp", &query), fast);
}
