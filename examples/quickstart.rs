//! Quickstart: declare conditional dependencies, detect violations, repair
//! them, and reason about the rules themselves.
//!
//! Run with `cargo run --example quickstart`.

use dataquality::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The customer relation of Fig. 1 and the CFDs of Fig. 2.
    // ------------------------------------------------------------------
    let d0 = dq_gen::customer::paper_instance();
    let fds = dq_gen::customer::paper_fds();
    let cfds = dq_gen::customer::paper_cfds();

    // The traditional FDs are satisfied: D0 looks clean to them.
    assert!(fds.iter().all(|fd| fd.holds_on(&d0)));
    println!("traditional FDs f1, f2: satisfied — no errors visible");

    // The conditional dependencies catch every tuple.  One engine serves
    // every detection over an instance; its indexes are pooled.
    let engine = DetectionEngine::new();
    let report = engine.detect_cfd_violations(&d0, &cfds);
    println!(
        "CFDs ϕ1–ϕ3: {} violations involving {} of {} tuples",
        report.total(),
        report.violating_tuples().len(),
        d0.len()
    );

    // ------------------------------------------------------------------
    // 2. Repair the instance by value modification (Section 5.1).
    // ------------------------------------------------------------------
    let outcome =
        repair_cfd_violations(&d0, &cfds, &RepairCost::uniform(), &RepairConfig::default())
            .expect("consistent rule set");
    println!(
        "repair: {} cell changes, cost {:.2}, consistent = {}",
        outcome.log.change_count(),
        outcome.log.cost,
        outcome.consistent
    );
    for (id, attr, old, new) in &outcome.log.modified {
        println!(
            "  {}[{}]: {} -> {}",
            id,
            d0.schema().attr_name(*attr),
            old,
            new
        );
    }

    // ------------------------------------------------------------------
    // 3. Reason about the rules: consistency and implication (Section 4.1).
    // ------------------------------------------------------------------
    let consistency = cfd_set_consistent(&cfds);
    println!(
        "the CFD set itself is consistent: {}",
        consistency.consistent
    );

    let schema = dq_gen::customer::customer_schema();
    let implied = Cfd::new(
        &schema,
        &["CC", "AC", "zip"],
        &["street"],
        vec![PatternTuple::new(
            vec![cst(44), wild(), wild()],
            vec![wild()],
        )],
    )
    .expect("well-formed CFD");
    println!(
        "ϕ1 implies its augmentation with AC: {}",
        cfd_implies(&cfds, &implied)
    );
}
