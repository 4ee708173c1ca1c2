//! Source-to-target integration with conditional inclusion dependencies
//! (Section 2.2) and dependency propagation through views (Section 4.1,
//! Example 4.2).
//!
//! Run with `cargo run --example order_integration`.

use dataquality::prelude::*;
use dq_gen::orders::{generate_orders, paper_cinds, paper_database, OrderConfig};
use dq_relation::algebra::{Predicate, View};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // 1. Fig. 3 / Fig. 4: the paper's instance violates cind3 only.
    // ------------------------------------------------------------------
    let db = paper_database();
    let cinds = paper_cinds();
    let engine = DetectionEngine::new();
    let report = engine
        .detect_cind_violations(&db, &cinds)
        .expect("well-formed CINDs");
    for (i, name) in [
        "cind1 (book orders)",
        "cind2 (CD orders)",
        "cind3 (audio books)",
    ]
    .iter()
    .enumerate()
    {
        println!("{name}: {} violation(s)", report.of(i).len());
    }

    // CIND sets are always consistent (Theorem 4.1) and implication is
    // analysed by a pattern-aware chase.
    let consistent = cind_set_consistent(&cinds).consistent;
    println!("the CIND set is consistent: {consistent}");

    // ------------------------------------------------------------------
    // 2. Scale it up and measure the detection work.
    // ------------------------------------------------------------------
    for &orders in &[1_000usize, 10_000] {
        let workload = generate_orders(&OrderConfig {
            orders,
            violation_rate: 0.05,
            seed: 3,
        });
        let report = engine
            .detect_cind_violations(&workload.db, &cinds)
            .expect("well-formed CINDs");
        println!(
            "{orders} orders: {} dangling tuples detected ({} injected)",
            report.total(),
            workload.broken_orders.len() + workload.broken_cds.len()
        );
    }

    // ------------------------------------------------------------------
    // 3. Example 4.2: FDs do not propagate to the integration view, their
    //    conditional versions do.
    // ------------------------------------------------------------------
    let mut schema = dq_relation::DatabaseSchema::new();
    let mut sigma: BTreeMap<String, Vec<Cfd>> = BTreeMap::new();
    for name in ["R1", "R2", "R3"] {
        let s = Arc::new(dq_relation::RelationSchema::new(
            name,
            [
                ("CC", dq_relation::Domain::Int),
                ("AC", dq_relation::Domain::Int),
                ("zip", dq_relation::Domain::Text),
                ("street", dq_relation::Domain::Text),
                ("city", dq_relation::Domain::Text),
            ],
        ));
        schema.add((*s).clone());
        let mut cfds = vec![Cfd::from_fd(&Fd::new(&s, &["AC"], &["city"]))];
        if name == "R1" {
            cfds.push(Cfd::from_fd(&Fd::new(&s, &["zip"], &["street"])));
        }
        sigma.insert(name.to_string(), cfds);
    }
    let view = View::base("R1")
        .select(Predicate::EqConst(0, dq_relation::Value::int(44)))
        .union(View::base("R2").select(Predicate::EqConst(0, dq_relation::Value::int(1))))
        .union(View::base("R3").select(Predicate::EqConst(0, dq_relation::Value::int(31))));
    let view_schema = Arc::new(
        view.output_schema(&schema, "R")
            .expect("the view is well-formed over the source schemas"),
    );

    let f3 = Cfd::from_fd(&Fd::new(&view_schema, &["zip"], &["street"]));
    let phi7 = Cfd::new(
        &view_schema,
        &["CC", "zip"],
        &["street"],
        vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
    )
    .expect("ϕ7 is well-formed");
    println!(
        "f3 (zip -> street) propagates to the union view: {:?}",
        propagates(&schema, &sigma, &view, &f3)
            .expect("supported view")
            .holds()
    );
    println!(
        "ϕ7 (CC=44, zip -> street) propagates to the union view: {:?}",
        propagates(&schema, &sigma, &view, &phi7)
            .expect("supported view")
            .holds()
    );
}
