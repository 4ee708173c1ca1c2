//! Cleaning a synthetic customer database at scale: detect CFD violations,
//! repair them, and score the repair against the known ground truth.
//!
//! This is the workload behind the Section 5.1 experiments: data that a
//! traditional FD cannot fault, with 1%–5% injected errors that the
//! conditional dependencies catch.
//!
//! Run with `cargo run --release --example customer_cleaning`.

use dataquality::prelude::*;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};

fn main() {
    let cfds = paper_cfds();
    let engine = DetectionEngine::new();
    println!("error%  tuples   violations  changed  precision  recall   f1");
    for &error_rate in &[0.01, 0.02, 0.05, 0.10] {
        let workload = generate_customers(&CustomerConfig {
            tuples: 5_000,
            error_rate,
            seed: 7,
            ..Default::default()
        });

        let report = engine.detect_cfd_violations(&workload.dirty, &cfds);
        let outcome = repair_cfd_violations(
            &workload.dirty,
            &cfds,
            &RepairCost::uniform(),
            &RepairConfig::default(),
        )
        .expect("consistent rule set");
        let quality = score_repair(&workload.clean, &workload.dirty, &outcome.repaired);
        println!(
            "{:>5.0}%  {:>6}   {:>10}  {:>7}  {:>9.3}  {:>6.3}  {:>5.3}",
            error_rate * 100.0,
            workload.dirty.len(),
            report.total(),
            quality.changes,
            quality.precision,
            quality.recall,
            quality.f1,
        );
        assert!(
            outcome.consistent,
            "the repaired instance must satisfy the CFDs"
        );
    }

    // Incremental detection: append a batch and only re-check the new tuples.
    let workload = generate_customers(&CustomerConfig {
        tuples: 5_000,
        error_rate: 0.05,
        seed: 7,
        ..Default::default()
    });
    let mut instance = workload.dirty.clone();
    let extra = generate_customers(&CustomerConfig {
        tuples: 100,
        error_rate: 0.2,
        seed: 99,
        ..Default::default()
    });
    let mut added = Vec::new();
    for (_, tuple) in extra.dirty.iter() {
        added.push(instance.insert(tuple.clone()).expect("compatible schema"));
    }
    let incremental = engine.detect_cfd_violations_incremental(&instance, &cfds, &added);
    println!(
        "\nincremental check of a 100-tuple append: {} new violations",
        incremental.total()
    );
}
