//! Object identification for credit-card fraud detection (Section 3): match
//! `card` and `billing` records that refer to the same holder, using
//! matching dependencies and the relative candidate keys derived from them.
//!
//! Run with `cargo run --release --example fraud_detection`.

use dataquality::prelude::*;
use dq_gen::cards::{generate_cards, CardConfig};
use std::sync::Arc;

fn main() {
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let yc = ["FN", "LN", "addr", "tel", "email"];
    let yb = ["FN", "SN", "post", "phn", "email"];

    // ------------------------------------------------------------------
    // 1. The MDs φ1–φ4 of Example 3.1 and the RCKs derivable from them
    //    (Example 4.3 / Theorem 4.8).
    // ------------------------------------------------------------------
    let sigma = example_3_1_mds(&card, &billing);
    for md in &sigma {
        println!("given MD: {md}");
    }
    let space = vec![
        ComparisonSpace::new("email", "email", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("addr", "post", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("LN", "SN", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("tel", "phn", vec![SimilarityOp::Equality]),
        ComparisonSpace::new(
            "FN",
            "FN",
            vec![SimilarityOp::Equality, SimilarityOp::edit(3)],
        ),
    ];
    let rcks = derive_rcks(&sigma, &card, &billing, &space, &yc, &yb, 3);
    println!("\nderived relative candidate keys:");
    for rck in &rcks {
        println!("  {rck}");
    }

    // ------------------------------------------------------------------
    // 2. Matching quality with and without the derived rules.
    // ------------------------------------------------------------------
    let workload = generate_cards(&CardConfig {
        holders: 2_000,
        billing_rate: 0.8,
        abbreviate_rate: 0.4,
        phone_change_rate: 0.4,
        email_change_rate: 0.4,
        distractors: 200,
        seed: 11,
    });

    // Baseline: exact equality on every compared attribute (the "key"-style
    // rule a traditional approach would use).
    let exact_rule = RelativeKey::new(
        &card,
        &billing,
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::Equality),
        ],
        &yc,
        &yb,
    )
    .expect("well-formed rule");
    let engine = MatchingEngine::new(Arc::new(IndexPool::new()));
    let baseline = Matcher::new(vec![exact_rule]);
    let (b_result, b_quality) =
        baseline.evaluate(&engine, &workload.card, &workload.billing, &workload.truth);

    // Dependency-derived rules.
    let derived = Matcher::new(rcks);
    let (d_result, d_quality) =
        derived.evaluate(&engine, &workload.card, &workload.billing, &workload.truth);

    println!("\n                      pairs  comparisons  precision  recall     f1");
    println!(
        "exact-equality rule  {:>6}  {:>11}  {:>9.3}  {:>6.3}  {:>5.3}",
        b_result.len(),
        b_result.comparisons,
        b_quality.precision,
        b_quality.recall,
        b_quality.f1
    );
    println!(
        "derived RCKs         {:>6}  {:>11}  {:>9.3}  {:>6.3}  {:>5.3}",
        d_result.len(),
        d_result.comparisons,
        d_quality.precision,
        d_quality.recall,
        d_quality.f1
    );
    assert!(d_quality.recall >= b_quality.recall);
}
