//! Unified cleaning with master data: identify dirty records with their
//! master counterparts (object identification, Section 3), correct them from
//! the master (Section 5.1's master-data remark), and repair the rest
//! heuristically — then compare against repair without master data.
//!
//! Run with `cargo run --example master_data_cleaning`.

use dataquality::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. A master relation and a dirty source referring to the same people.
    // ------------------------------------------------------------------
    let workload = dq_gen::master::generate_master_workload(&dq_gen::master::MasterConfig {
        entities: 1_000,
        error_rate: 0.25,
        name_variation_rate: 0.4,
        seed: 4,
    });
    let cfds = dq_gen::customer::paper_cfds();
    println!(
        "dirty source: {} records, {} corrupted cells, {} CFD violations",
        workload.dirty.len(),
        workload.corrupted_cells.len(),
        DetectionEngine::new()
            .detect_cfd_violations(&workload.dirty, &cfds)
            .total()
    );

    // ------------------------------------------------------------------
    // 2. The matching rule: same phone, similar name (an RCK, Section 3.3).
    // ------------------------------------------------------------------
    let schema = dq_gen::customer::customer_schema();
    let rule = RelativeKey::new(
        &schema,
        &schema,
        vec![
            ("phn", "phn", SimilarityOp::Equality),
            ("name", "name", SimilarityOp::edit(12)),
        ],
        &["street", "city", "zip"],
        &["street", "city", "zip"],
    )
    .expect("well-formed relative key");
    let fusion_attrs = vec![
        schema.attr("street"),
        schema.attr("city"),
        schema.attr("zip"),
    ];

    // ------------------------------------------------------------------
    // 3. Run the unified pipeline and the repair-only baseline.
    // ------------------------------------------------------------------
    let unified = CleaningPipeline::with_master(
        cfds.clone(),
        MasterData::new(workload.master.clone()),
        vec![rule],
        fusion_attrs,
    );
    let report = unified.run(&workload.dirty).expect("consistent rule set");
    println!("\nunified pipeline:");
    for stage in &report.stages {
        println!(
            "  stage {:<7} violations remaining = {:<5} changes = {}",
            stage.stage, stage.violations, stage.changes
        );
    }
    println!(
        "  matched {} of {} records against the master ({} ambiguous)",
        report.master_matches,
        workload.dirty.len(),
        report.ambiguous_matches
    );

    let baseline = CleaningPipeline::repair_only(cfds)
        .run(&workload.dirty)
        .expect("consistent rule set");

    // ------------------------------------------------------------------
    // 4. Score both against the ground truth.
    // ------------------------------------------------------------------
    let unified_quality = score_repair(&workload.clean, &workload.dirty, &report.cleaned);
    let baseline_quality = score_repair(&workload.clean, &workload.dirty, &baseline.cleaned);
    println!("\nrepair quality (precision / recall / F1):");
    println!(
        "  with master data: {:.3} / {:.3} / {:.3}",
        unified_quality.precision, unified_quality.recall, unified_quality.f1
    );
    println!(
        "  repair only:      {:.3} / {:.3} / {:.3}",
        baseline_quality.precision, baseline_quality.recall, baseline_quality.f1
    );
    assert!(unified_quality.f1 >= baseline_quality.f1);
}
