//! Dependency discovery and data profiling: mine the cleaning rules from a
//! trusted sample of the data instead of writing them by hand, then enforce
//! them on a dirty instance.
//!
//! Run with `cargo run --example discovery_profiling`.

use dataquality::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Profile a trusted (clean) sample of the customer data.
    // ------------------------------------------------------------------
    let sample = dq_gen::customer::generate_customers(&dq_gen::customer::CustomerConfig {
        tuples: 2_000,
        error_rate: 0.0,
        seed: 7,
        ..Default::default()
    });
    let profile = profile_relation(&sample.clean);
    println!(
        "profile of `{}` ({} tuples):",
        profile.relation, profile.tuples
    );
    for column in &profile.columns {
        println!(
            "  {:<8} distinct = {:<6} uniqueness = {:.2}  categorical = {}",
            column.name,
            column.distinct,
            column.uniqueness,
            column.is_categorical(16)
        );
    }
    let identifiers = profile.identifier_attributes();
    println!("identifier attributes excluded from discovery: {identifiers:?}");

    // ------------------------------------------------------------------
    // 2. Discover FDs and CFDs from the clean sample.
    // ------------------------------------------------------------------
    let config = CfdDiscoveryConfig {
        min_support: 10,
        max_lhs: 2,
        exclude: identifiers,
        ..CfdDiscoveryConfig::default()
    };
    let discovered = discover_cfds(&sample.clean, &config);
    println!(
        "\ndiscovered {} variable CFDs and {} constant CFDs ({} candidates checked)",
        discovered.variable_cfds.len(),
        discovered.constant_cfds.len(),
        discovered.candidates_checked
    );
    for cfd in discovered.constant_cfds.iter().take(5) {
        println!(
            "  constant CFD on {:?} -> {:?} with {} pattern tuples",
            cfd.lhs(),
            cfd.rhs(),
            cfd.tableau().len()
        );
    }

    // Every discovered rule holds on the sample it was mined from.
    let engine = DetectionEngine::new();
    let self_check = engine.detect_cfd_violations(&sample.clean, &discovered.all());
    assert!(self_check.is_clean());

    // ------------------------------------------------------------------
    // 3. Enforce the mined rules on a dirty instance of the same source.
    // ------------------------------------------------------------------
    let dirty = dq_gen::customer::generate_customers(&dq_gen::customer::CustomerConfig {
        tuples: 2_000,
        error_rate: 0.05,
        seed: 7,
        ..Default::default()
    });
    let report = engine.detect_cfd_violations(&dirty.dirty, &discovered.all());
    println!(
        "\non the dirty instance the mined rules produce {} violation witnesses (tuple pairs / pattern \
         mismatches) touching {} tuples; {} cells were corrupted",
        report.total(),
        report.violating_tuples().len(),
        dirty.corrupted_cells.len()
    );

    // ------------------------------------------------------------------
    // 4. Discover CIND conditions across the order/book/CD database.
    // ------------------------------------------------------------------
    let db = dq_gen::orders::generate_orders(&dq_gen::orders::OrderConfig {
        orders: 500,
        violation_rate: 0.0,
        seed: 7,
    })
    .db;
    let inds = discover_inds(&db, &IndDiscoveryConfig::default()).unwrap();
    println!(
        "\ndiscovered {} unconditional INDs across order/book/CD",
        inds.inds.len()
    );
    let order = db.relation("order").unwrap().schema().clone();
    let book = db.relation("book").unwrap().schema().clone();
    let embedded =
        dq_core::ind::Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
    let cinds = discover_cind_conditions(&db, &embedded, &IndDiscoveryConfig::default()).unwrap();
    for cind in &cinds {
        println!(
            "  order(title, price) ⊆ book(title, price) holds under {} condition value(s) of attribute {:?}",
            cind.tableau().len(),
            cind.lhs_pattern_attrs()
        );
    }
}
