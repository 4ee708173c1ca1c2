//! Cross-crate integration of dependency discovery with the rest of the
//! stack: profile a trusted sample, mine CFDs/CINDs from it, and use the
//! mined rules to detect and repair errors in a dirty instance of the same
//! source — the "profiling methods … for deducing and discovering rules for
//! cleaning the data" claim of Section 1, end to end.

use dataquality::prelude::*;
use dq_core::ind::Ind;
use dq_gen::customer::{customer_schema, generate_customers, CustomerConfig, CustomerWorkload};
use dq_gen::orders::{generate_orders, OrderConfig};

/// Configuration shared by the tests: a clean sample and a dirty instance
/// drawn from the same generator (same seed), so the mined rules are exactly
/// the regularities the dirty instance ought to satisfy.
fn sample_and_dirty(tuples: usize, seed: u64) -> (CustomerWorkload, CustomerWorkload) {
    let clean = generate_customers(&CustomerConfig {
        tuples,
        error_rate: 0.0,
        seed,
        ..Default::default()
    });
    let dirty = generate_customers(&CustomerConfig {
        tuples,
        error_rate: 0.05,
        seed,
        ..Default::default()
    });
    (clean, dirty)
}

fn discovery_config() -> CfdDiscoveryConfig {
    let schema = customer_schema();
    CfdDiscoveryConfig {
        min_support: 4,
        max_lhs: 2,
        exclude: vec![schema.attr("phn"), schema.attr("name")],
        ..CfdDiscoveryConfig::default()
    }
}

#[test]
fn profiling_identifies_keys_and_categories_of_the_customer_schema() {
    let (clean, _) = sample_and_dirty(1_500, 5);
    let profile = profile_relation(&clean.clean);
    let schema = customer_schema();
    // Phone numbers are generated unique: a key column.
    assert!(profile.unary_keys.contains(&schema.attr("phn")));
    // Country codes and cities are categorical.
    let categorical = profile.categorical_attributes(16);
    assert!(categorical.contains(&schema.attr("CC")));
    assert!(categorical.contains(&schema.attr("city")));
    // Street/zip are neither keys nor categorical at this size.
    assert!(!profile.unary_keys.contains(&schema.attr("street")));
}

#[test]
fn mined_cfds_hold_on_the_sample_and_flag_injected_errors() {
    let (clean, dirty) = sample_and_dirty(2_000, 5);
    let discovered = discover_cfds(&clean.clean, &discovery_config());
    assert!(
        discovered.len() >= 5,
        "the customer generator has rich structure; expected a handful of rules, got {}",
        discovered.len()
    );
    // Soundness on the training sample.
    assert!(DetectionEngine::new()
        .detect_cfd_violations(&clean.clean, &discovered.all())
        .is_clean());
    // The mined rules flag the dirty instance.
    let report = DetectionEngine::new().detect_cfd_violations(&dirty.dirty, &discovered.all());
    assert!(!report.is_clean());
    // Every corrupted tuple that broke a city/street regularity is among the
    // flagged tuples (the converse need not hold: an FD violation flags both
    // tuples of the pair).
    let flagged = report.violating_tuples();
    let corrupted_city_tuples: Vec<_> = dirty
        .corrupted_cells
        .iter()
        .filter(|(_, attr)| *attr == customer_schema().attr("city"))
        .map(|(i, _)| dq_relation::TupleId(*i))
        .collect();
    let caught = corrupted_city_tuples
        .iter()
        .filter(|id| flagged.contains(id))
        .count();
    assert!(
        caught * 2 >= corrupted_city_tuples.len(),
        "mined rules should catch most corrupted cities: {caught}/{}",
        corrupted_city_tuples.len()
    );
}

#[test]
fn mined_rules_feed_the_repair_algorithm() {
    let (clean, dirty) = sample_and_dirty(1_200, 9);
    let discovered = discover_cfds(&clean.clean, &discovery_config());
    // Constant CFDs alone are already repairable rules: run the heuristic
    // U-repair with the mined constants and verify it terminates consistent.
    let outcome = repair_cfd_violations(
        &dirty.dirty,
        &discovered.constant_cfds,
        &RepairCost::uniform(),
        &RepairConfig::default(),
    )
    .expect("consistent rule set");
    assert!(outcome.consistent);
    assert!(DetectionEngine::new()
        .detect_cfd_violations(&outcome.repaired, &discovered.constant_cfds)
        .is_clean());
}

#[test]
fn discovered_paper_constants_match_the_known_semantics() {
    let (clean, _) = sample_and_dirty(2_000, 5);
    let schema = customer_schema();
    let discovered = discover_constant_cfds(&clean.clean, &discovery_config());
    // The generator enforces (CC=44, AC=131) → city=EDI; with AC → city being
    // functional, discovery reports the minimal single-attribute condition
    // AC=131 → city=EDI.
    let ac = schema.attr("AC");
    let city = schema.attr("city");
    let found = discovered.iter().any(|cfd| {
        cfd.lhs() == [ac]
            && cfd.rhs() == [city]
            && cfd.tableau().iter().any(|tp| {
                tp.lhs == [PatternValue::Const(Value::int(131))]
                    && tp.rhs == [PatternValue::Const(Value::str("EDI"))]
            })
    });
    assert!(
        found,
        "expected AC=131 → city=EDI among {} constant CFDs",
        discovered.len()
    );
}

#[test]
fn fd_discovery_recovers_the_generators_functional_structure() {
    let (clean, _) = sample_and_dirty(1_500, 13);
    let schema = customer_schema();
    let found = discover_fds(
        &clean.clean,
        &FdDiscoveryConfig {
            max_lhs: 2,
            exclude: vec![schema.attr("phn"), schema.attr("name")],
            ..FdDiscoveryConfig::default()
        },
    );
    // zip → street holds by construction (street is a function of the zip id
    // and the country prefix makes zips unique across countries).
    assert!(found.contains(&[schema.attr("zip")], schema.attr("street")));
    // AC → city holds by construction.
    assert!(found.contains(&[schema.attr("AC")], schema.attr("city")));
    // Every discovered FD really holds.
    for fd in &found.fds {
        assert!(fd.holds_on(&clean.clean));
    }
}

#[test]
fn cind_condition_discovery_on_the_order_database() {
    let workload = generate_orders(&OrderConfig {
        orders: 400,
        violation_rate: 0.0,
        seed: 3,
    });
    let db = workload.db;
    let order = db.relation("order").unwrap().schema().clone();
    let book = db.relation("book").unwrap().schema().clone();
    let embedded = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
    let config = IndDiscoveryConfig::default();
    let cinds = discover_cind_conditions(&db, &embedded, &config).unwrap();
    // The order table mixes books, CDs and DVDs, so the inclusion into book
    // can only hold under the `type` condition.
    assert!(
        !cinds.is_empty(),
        "expected at least the type = 'book' condition to be discovered"
    );
    let report = DetectionEngine::new()
        .detect_cind_violations(&db, &cinds)
        .unwrap();
    assert!(
        report.is_clean(),
        "discovered CINDs must hold on the database"
    );
}

/// The opt-in minimal-cover post-pass prunes implied fragments without
/// changing what the rules say: the covered set and the full set imply each
/// other, the drop count matches the normalized-fragment arithmetic, and
/// detection (through the vetting entry points) reaches the same clean
/// verdict on the instance the rules were mined from.
#[test]
fn minimal_cover_post_pass_preserves_discovered_semantics() {
    let (clean, dirty) = sample_and_dirty(600, 11);
    let full = discover_cfds(&clean.clean, &discovery_config());
    let covered = discover_cfds(
        &clean.clean,
        &CfdDiscoveryConfig {
            minimal_cover: true,
            ..discovery_config()
        },
    );
    let normalized: usize = full.all().iter().map(|c| c.normalize().len()).sum();
    assert_eq!(covered.cover_dropped, normalized - covered.len());
    for rule in covered.all() {
        assert!(
            cfd_implies(&full.all(), &rule),
            "covered rule {rule} not implied by the full mined set"
        );
    }
    for rule in full.all() {
        assert!(
            cfd_implies(&covered.all(), &rule),
            "full rule {rule} not implied by the cover"
        );
    }
    // Vet the cover and detect through the engine's analyzed entry point:
    // mined rules hold on the sample and flag the dirty instance exactly
    // like the full set does.
    let analyzed = analyze_cfds(&covered.all(), &AnalysisOptions::default())
        .expect("mined rules are consistent");
    let engine = DetectionEngine::new();
    assert!(engine
        .detect_analyzed_cfd_violations(&clean.clean, &analyzed)
        .is_clean());
    assert_eq!(
        engine
            .detect_analyzed_cfd_violations(&dirty.dirty, &analyzed)
            .is_clean(),
        engine
            .detect_cfd_violations(&dirty.dirty, &full.all())
            .is_clean()
    );
}
