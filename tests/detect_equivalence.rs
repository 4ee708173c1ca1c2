//! Equivalence properties of the detection paths: the shared-index parallel
//! [`DetectionEngine`] must produce reports equal to the row-at-a-time
//! detectors of `dq_core::reference`, every `holds_on` must agree with the
//! reference's emptiness, and batch detection must equal clean-prefix
//! detection plus incremental detection of appended tuples.  The engine's
//! grouped CFD reports must answer every summary query exactly as the
//! reference pair lists would, without materializing pairs for it.
//!
//! All cases are generated from seeded strategies (the offline proptest
//! stand-in derives its RNG seed from the test name), so runs are exactly
//! reproducible — no fixed-seed flakiness.

use dataquality::prelude::*;
use dq_core::reference;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_gen::orders::{generate_orders, paper_cinds, OrderConfig};
use dq_relation::instance::CellRef;
use dq_relation::{Database, RelationInstance, StoreShardSource, TupleId, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Workload shapes worth exercising: tiny through few-hundred tuples, clean
/// through heavily corrupted, paper-style (three huge `[CC, AC]` groups)
/// through scaled city pools (many small groups).
fn workload_config() -> impl Strategy<Value = CustomerConfig> {
    (
        1usize..250,
        0usize..4,
        0u64..1_000,
        prop_oneof![3usize..4, 20usize..40],
    )
        .prop_map(
            |(tuples, rate_idx, seed, cities_per_country)| CustomerConfig {
                tuples,
                error_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
                seed,
                cities_per_country,
            },
        )
}

/// Removes every fifth tuple, so row positions of the columnar snapshot no
/// longer equal tuple ids.
fn delete_every_fifth(instance: &mut RelationInstance) {
    let victims: Vec<TupleId> = instance.iter().step_by(5).map(|(id, _)| id).collect();
    for id in victims {
        instance.remove(id);
    }
}

/// Checks a report against the reference detector's: every summary query
/// against the value recomputed from the reference pair lists — asked first,
/// so a grouped report must answer them without materializing — then the
/// pair lists themselves, byte for byte.
fn assert_matches_naive(report: &CfdViolationReport, naive: &CfdViolationReport) {
    let lists = naive.per_dependency();
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut tuples: Vec<TupleId> = lists.iter().flatten().flat_map(|v| v.tuples()).collect();
    tuples.sort_unstable();
    tuples.dedup();
    assert_eq!(report.total(), total);
    assert_eq!(report.is_clean(), total == 0);
    assert_eq!(
        report.violated_dependencies(),
        lists.iter().filter(|l| !l.is_empty()).count()
    );
    assert_eq!(report.violating_tuples(), tuples);
    assert_eq!(report.violation_groups(), naive.violation_groups());
    if report.grouped(0).is_some() {
        assert!(!report.is_materialized(), "summaries must not build pairs");
    }
    assert_eq!(report.per_dependency(), lists);
}

/// Overwrites cells with donor values (in-domain, and often moving a tuple
/// between LHS groups) and appends copies of existing tuples, all inside
/// one journaled gap.
fn edit_and_append(instance: &mut RelationInstance, edits: &[(usize, usize, usize)]) {
    let ids = instance.ids();
    let arity = instance.schema().arity();
    for &(t, a, d) in edits {
        let (target, donor) = (ids[t % ids.len()], ids[d % ids.len()]);
        let attr = a % arity;
        let value = instance.tuple(donor).expect("live").get(attr).clone();
        instance
            .update_cell(CellRef::new(target, attr), value)
            .expect("donor values are in-domain");
        if t % 3 == 0 {
            let copy = instance.tuple(donor).expect("live").clone();
            instance.insert(copy).expect("same schema");
        }
    }
}

#[test]
fn total_and_is_clean_leave_the_report_unmaterialized() {
    let workload = generate_customers(&CustomerConfig {
        tuples: 200,
        error_rate: 0.05,
        seed: 3,
        cities_per_country: 3,
    });
    let report = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &paper_cfds());
    assert!(report.total() > 0);
    assert!(!report.is_clean());
    assert!(report.violation_groups() > 0);
    assert!(!report.is_materialized());
    assert_eq!(
        report.of(0).len(),
        report.grouped(0).expect("grouped").total()
    );
    assert!(report.is_materialized());
    // A clone shares the groups but not the materialized pairs.
    assert!(!report.clone().is_materialized());
}

#[test]
fn grouped_and_pair_reports_are_equal_exactly_when_their_pairs_are() {
    let workload = generate_customers(&CustomerConfig {
        tuples: 150,
        error_rate: 0.05,
        seed: 11,
        cities_per_country: 3,
    });
    let cfds = paper_cfds();
    let grouped = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &cfds);
    let pairs = CfdViolationReport::from_per_dependency(grouped.per_dependency().to_vec());
    assert_eq!(grouped, pairs);
    assert_eq!(pairs, grouped);
    assert_eq!(
        grouped,
        reference::detect_cfd_violations(&workload.dirty, &cfds)
    );
    // One pair fewer: unequal both ways.
    let mut lists = grouped.per_dependency().to_vec();
    let dep = lists
        .iter()
        .position(|l| {
            l.iter()
                .any(|v| matches!(v, CfdViolation::TuplePair { .. }))
        })
        .expect("the workload violates a variable CFD");
    lists[dep].pop();
    let fewer = CfdViolationReport::from_per_dependency(lists);
    assert_ne!(grouped, fewer);
    assert_ne!(fewer, grouped);
    // Two grouped reports compare by their canonical groups.
    let mut edited = workload.dirty.clone();
    edit_and_append(&mut edited, &[(0, 4, 1), (3, 5, 7), (9, 2, 4)]);
    let other = DetectionEngine::new().detect_cfd_violations(&edited, &cfds);
    assert_eq!(
        other == grouped,
        other.per_dependency() == grouped.per_dependency()
    );
    let again = DetectionEngine::with_threads(1).detect_cfd_violations(&workload.dirty, &cfds);
    assert!(!again.is_materialized());
    assert_eq!(again, grouped);
    assert!(!again.is_materialized(), "grouped equality builds no pairs");
}

fn engine_variants() -> Vec<DetectionEngine> {
    vec![
        DetectionEngine::with_threads(1),
        DetectionEngine::with_threads(4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Engine CFD reports are byte-identical to the reference, sequential
    /// and parallel, cold pool and warm pool.
    #[test]
    fn engine_cfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let naive = reference::detect_cfd_violations(&workload.dirty, &cfds);
        for engine in engine_variants() {
            let cold = engine.detect_cfd_violations(&workload.dirty, &cfds);
            prop_assert_eq!(&cold, &naive);
            let warm = engine.detect_cfd_violations(&workload.dirty, &cfds);
            prop_assert_eq!(&warm, &naive);
        }
        // Shard-cursor detection over the in-RAM snapshot, after deletions.
        let mut instance = workload.dirty;
        delete_every_fifth(&mut instance);
        let naive = reference::detect_cfd_violations(&instance, &cfds);
        for engine in engine_variants() {
            prop_assert_eq!(&engine.detect_cfd_violations(&instance, &cfds), &naive);
            let source = StoreShardSource::new(&instance);
            prop_assert_eq!(&engine.detect_cfd_violations_from_shards(&source, &cfds), &naive);
        }
    }

    /// Grouped reports — in-RAM, shard-cursor after deletions, and
    /// maintained across a batch of edits and appends — answer `total`,
    /// `is_clean`, `violated_dependencies` and `violating_tuples` like the
    /// reference pair lists, and materialize to them byte for byte.
    #[test]
    fn grouped_reports_answer_like_naive_pair_lists(
        config in workload_config(),
        edits in proptest::collection::vec(
            (0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000),
            1..12,
        ),
    ) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let naive = reference::detect_cfd_violations(&workload.dirty, &cfds);
        assert_matches_naive(&engine.detect_cfd_violations(&workload.dirty, &cfds), &naive);
        // Maintained across one journaled gap holding every edit.
        let mut live = workload.dirty.clone();
        let maintained = engine.maintain_cfd_violations(&live, &cfds, None);
        edit_and_append(&mut live, &edits);
        let maintained = engine.maintain_cfd_violations(&live, &cfds, Some(&maintained));
        assert_matches_naive(maintained.report(), &reference::detect_cfd_violations(&live, &cfds));
        // Shard-cursor detection after deletions.
        let mut instance = workload.dirty;
        delete_every_fifth(&mut instance);
        let naive = reference::detect_cfd_violations(&instance, &cfds);
        let source = StoreShardSource::new(&instance);
        assert_matches_naive(&engine.detect_cfd_violations_from_shards(&source, &cfds), &naive);
    }

    /// Engine equivalence also holds for the normalized fragment set, where
    /// many dependencies share a LHS and the pool serves one index to all.
    #[test]
    fn engine_equivalence_on_normalized_fragments(config in workload_config()) {
        let workload = generate_customers(&config);
        let fragments: Vec<Cfd> = paper_cfds().iter().flat_map(|c| c.normalize()).collect();
        let naive = reference::detect_cfd_violations(&workload.dirty, &fragments);
        let engine = DetectionEngine::new();
        prop_assert_eq!(engine.detect_cfd_violations(&workload.dirty, &fragments), naive);
        // One distinct LHS per paper CFD, regardless of fragment count.
        prop_assert_eq!(engine.pool_stats().misses, 3);
    }

    /// Batch detection over the extended instance equals the report on the
    /// prefix plus incremental detection of the appended tuples.
    #[test]
    fn batch_equals_prefix_plus_incremental(
        config in workload_config(),
        split_percent in 0usize..=100,
    ) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let split = workload.dirty.len() * split_percent / 100;
        let mut prefix = RelationInstance::new(Arc::clone(workload.dirty.schema()));
        let mut extended = RelationInstance::new(Arc::clone(workload.dirty.schema()));
        let mut added = Vec::new();
        for (i, (_, tuple)) in workload.dirty.iter().enumerate() {
            let id = extended.insert(tuple.clone()).expect("compatible tuple");
            if i < split {
                prefix.insert(tuple.clone()).expect("compatible tuple");
            } else {
                added.push(id);
            }
        }
        let engine = DetectionEngine::new();
        let full = engine.detect_cfd_violations(&extended, &cfds);
        let prefix_report = engine.detect_cfd_violations(&prefix, &cfds);
        let incremental = engine.detect_cfd_violations_incremental(&extended, &cfds, &added);
        for i in 0..cfds.len() {
            let mut combined: Vec<CfdViolation> = prefix_report
                .of(i)
                .iter()
                .chain(incremental.of(i))
                .copied()
                .collect();
            combined.sort_unstable();
            prop_assert_eq!(
                combined,
                full.of(i).to_vec(),
                "dependency {} disagrees (split {} of {})",
                i,
                split,
                extended.len()
            );
        }
    }

    /// Engine incremental detection equals the reference incremental
    /// detection.
    #[test]
    fn engine_incremental_equals_naive_incremental(
        config in workload_config(),
        split_percent in 0usize..=100,
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let cfds = paper_cfds();
        let split = instance.len() * split_percent / 100;
        let mut added: Vec<_> = instance.iter().skip(split).map(|(id, _)| id).collect();
        // Duplicate ids and the id of a removed tuple change nothing.
        let repeats: Vec<TupleId> = added.iter().step_by(2).copied().collect();
        added.extend(repeats);
        let first = instance.iter().next().map(|(id, _)| id);
        if let Some(victim) = first {
            instance.remove(victim);
            added.push(victim);
        }
        let naive = reference::detect_cfd_violations_incremental(&instance, &cfds, &added);
        for engine in engine_variants() {
            prop_assert_eq!(
                engine.detect_cfd_violations_incremental(&instance, &cfds, &added),
                naive.clone()
            );
        }
    }

    /// Engine eCFD reports equal the reference on generated instances.
    #[test]
    fn engine_ecfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let schema = workload.dirty.schema();
        let ecfds = customer_ecfds(schema);
        let naive = reference::detect_ecfd_violations(&workload.dirty, &ecfds);
        for engine in engine_variants() {
            prop_assert_eq!(engine.detect_ecfd_violations(&workload.dirty, &ecfds), naive.clone());
        }
    }

    /// The engine detects over interned columnar snapshots memoized per
    /// instance version; after mutations (cell updates, inserts, removals)
    /// a fresh snapshot must be taken and reports must still equal the
    /// reference —
    /// this is the property a stale snapshot or index would break.
    #[test]
    fn engine_equivalence_survives_mutation(
        config in workload_config(),
        victim in 0usize..250,
        attr_pick in 0usize..3,
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let before = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&before, &reference::detect_cfd_violations(&instance, &cfds));
        // Mutate: update a cell, insert a colliding tuple, remove a tuple.
        let schema = Arc::clone(instance.schema());
        let attr = [schema.attr("city"), schema.attr("street"), schema.attr("zip")][attr_pick];
        let victim = TupleId(victim % instance.len().max(1));
        instance
            .update_cell(CellRef::new(victim, attr), Value::str("MUTATED"))
            .unwrap();
        let donor = instance.tuple(TupleId(0)).expect("live tuple").clone();
        instance.insert(donor).expect("same schema");
        instance.remove(victim);
        let after = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&after, &reference::detect_cfd_violations(&instance, &cfds));
    }

    /// Engine CIND reports over the order/book/CD database equal the
    /// reference cross-relation detector, cold and warm.
    #[test]
    fn engine_cind_detection_equals_naive(
        orders in 1usize..250,
        rate_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let workload = generate_orders(&OrderConfig {
            orders,
            violation_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
            seed,
        });
        let cinds = paper_cinds();
        let naive = reference::detect_cind_violations(&workload.db, &cinds).unwrap();
        for engine in engine_variants() {
            let cold = engine.detect_cind_violations(&workload.db, &cinds).unwrap();
            prop_assert_eq!(&cold, &naive);
            let warm = engine.detect_cind_violations(&workload.db, &cinds).unwrap();
            prop_assert_eq!(&warm, &naive);
        }
    }

    /// Engine denial-constraint reports equal the reference quadratic scan, for
    /// FD-shaped constraints (index path) and single-variable range
    /// constraints (fallback path) alike.
    #[test]
    fn engine_denial_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let schema = workload.dirty.schema();
        let mut constraints =
            DenialConstraint::from_fd(&Fd::new(schema, &["CC", "zip"], &["street"]));
        constraints.extend(DenialConstraint::from_fd(&Fd::new(schema, &["CC", "AC"], &["city"])));
        constraints.push(DenialConstraint::new(
            "customer",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, schema.attr("CC")),
                dq_relation::CompOp::Gt,
                DcTerm::val(50i64),
            )],
        ));
        let naive = reference::detect_denial_violations(&workload.dirty, &constraints);
        for engine in engine_variants() {
            prop_assert_eq!(
                engine.detect_denial_violations(&workload.dirty, &constraints),
                naive.clone()
            );
        }
        // Shard-cursor detection over the in-RAM snapshot, after deletions.
        let mut instance = workload.dirty;
        delete_every_fifth(&mut instance);
        let naive = reference::detect_denial_violations(&instance, &constraints);
        for engine in engine_variants() {
            prop_assert_eq!(&engine.detect_denial_violations(&instance, &constraints), &naive);
            let source = StoreShardSource::new(&instance);
            prop_assert_eq!(
                &engine.detect_denial_violations_from_shards(&source, &constraints),
                &naive
            );
        }
    }

    /// Engine IND detection, `ind_holds` and `Ind::holds_on` agree with the
    /// reference on the order/book/CD workload with `NULL`s written into
    /// LHS columns, under both null semantics.  A renamed copy of `order`
    /// adds INDs that hold until `NULL`s are written into the copy.
    #[test]
    fn engine_ind_detection_equals_reference(
        orders in 1usize..250,
        rate_idx in 0usize..4,
        seed in 0u64..1_000,
        nulls in proptest::collection::vec((0usize..1_000_000, 0usize..2), 0..6),
        copy_nulls in proptest::collection::vec((0usize..1_000_000, 0usize..2), 0..3),
    ) {
        let mut workload = generate_orders(&OrderConfig {
            orders,
            violation_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
            seed,
        });
        let db = &mut workload.db;
        null_cells(db.relation_mut("order").expect("order"), &nulls, &["title", "price"]);
        null_cells(db.relation_mut("CD").expect("CD"), &nulls, &["album"]);
        let mut copy = renamed_copy(db.relation("order").expect("order"), "order_copy");
        null_cells(&mut copy, &copy_nulls, &["title", "price"]);
        db.add_relation(copy);
        let mut inds = order_inds(db);
        let order = db.relation("order").expect("order").schema();
        let (title, price) = (order.attr("title"), order.attr("price"));
        inds.push(Ind::from_indices("order_copy", vec![title, price], "order", vec![title, price]));
        inds.push(Ind::from_indices("order_copy", vec![price], "order", vec![price]));
        for engine in engine_variants() {
            for ignore_nulls in [false, true] {
                let expected: Vec<Vec<TupleId>> = inds
                    .iter()
                    .map(|ind| reference::ind_violations(ind, db, ignore_nulls).unwrap())
                    .collect();
                prop_assert_eq!(
                    &engine.detect_ind_violations(db, &inds, ignore_nulls).unwrap(),
                    &expected
                );
                for (ind, violations) in inds.iter().zip(&expected) {
                    prop_assert_eq!(
                        engine.ind_holds(db, ind, ignore_nulls).unwrap(),
                        violations.is_empty()
                    );
                    if !ignore_nulls {
                        prop_assert_eq!(ind.holds_on(db).unwrap(), violations.is_empty());
                    }
                }
            }
        }
    }

    /// Every `holds_on` — CFD, FD (and `Fd::is_key_of`), eCFD, denial, IND
    /// and CIND — answers exactly whether the reference detector finds no
    /// violation.
    #[test]
    fn holds_on_equals_reference_emptiness(
        config in workload_config(),
        orders in 1usize..120,
        order_seed in 0u64..1_000,
    ) {
        let workload = generate_customers(&config);
        let d = &workload.dirty;
        let schema = d.schema();
        let cfds: Vec<Cfd> = paper_cfds().iter().flat_map(|c| c.normalize()).collect();
        for cfd in &cfds {
            prop_assert_eq!(cfd.holds_on(d), reference::cfd_violations(cfd, d).is_empty());
        }
        let all: Vec<&str> = (0..schema.arity()).map(|a| schema.attr_name(a)).collect();
        for (lhs, rhs) in [
            (vec!["CC", "AC"], vec!["city"]),
            (vec!["CC", "zip"], vec!["street"]),
            (vec!["phn"], all.clone()),
        ] {
            let fd = Fd::new(schema, &lhs, &rhs);
            let expected = reference::cfd_violations(&Cfd::from_fd(&fd), d).is_empty();
            prop_assert_eq!(fd.holds_on(d), expected);
            if rhs == all {
                prop_assert_eq!(Fd::is_key_of(schema, &lhs, d), expected);
            }
        }
        for ecfd in customer_ecfds(schema) {
            prop_assert_eq!(ecfd.holds_on(d), reference::ecfd_violations(&ecfd, d).is_empty());
        }
        let mut constraints =
            DenialConstraint::from_fd(&Fd::new(schema, &["CC", "AC"], &["city"]));
        constraints.push(DenialConstraint::new(
            "customer",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, schema.attr("CC")),
                dq_relation::CompOp::Gt,
                DcTerm::val(50i64),
            )],
        ));
        for dc in &constraints {
            prop_assert_eq!(dc.holds_on(d), reference::denial_violations(dc, d).is_empty());
        }
        let orders = generate_orders(&OrderConfig {
            orders,
            violation_rate: [0.0, 0.05][order_seed as usize % 2],
            seed: order_seed,
        });
        let db = &orders.db;
        for cind in paper_cinds() {
            prop_assert_eq!(
                cind.holds_on(db).unwrap(),
                reference::cind_violations(&cind, db).unwrap().is_empty()
            );
        }
        for ind in order_inds(db) {
            prop_assert_eq!(
                ind.holds_on(db).unwrap(),
                reference::ind_violations(&ind, db, false).unwrap().is_empty()
            );
        }
    }
}

/// Writes `NULL` into the `attrs` cells the `(tuple, attribute)` picks
/// select.
fn null_cells(instance: &mut RelationInstance, picks: &[(usize, usize)], attrs: &[&str]) {
    let ids = instance.ids();
    if ids.is_empty() {
        return;
    }
    for &(t, a) in picks {
        let attr = instance.schema().attr(attrs[a % attrs.len()]);
        instance
            .update_cell(CellRef::new(ids[t % ids.len()], attr), Value::Null)
            .expect("NULL fits every domain");
    }
}

/// `instance` under the relation name `name`, same attributes and tuples.
fn renamed_copy(instance: &RelationInstance, name: &str) -> RelationInstance {
    let schema = instance.schema();
    let attrs = (0..schema.arity()).map(|a| (schema.attr_name(a), schema.domain(a).clone()));
    let mut copy = RelationInstance::new(Arc::new(dq_relation::RelationSchema::new(name, attrs)));
    for (_, tuple) in instance.iter() {
        copy.insert(tuple.clone()).expect("same domains");
    }
    copy
}

/// INDs over the order/book/CD database, in both directions: the embedded
/// INDs of the paper's CINDs, and their converses.
fn order_inds(db: &Database) -> Vec<Ind> {
    let attrs = |relation: &str, names: &[&str]| {
        let schema = db.relation(relation).expect("relation").schema();
        names.iter().map(|n| schema.attr(n)).collect::<Vec<_>>()
    };
    vec![
        Ind::from_indices(
            "order",
            attrs("order", &["title", "price"]),
            "book",
            attrs("book", &["title", "price"]),
        ),
        Ind::from_indices(
            "order",
            attrs("order", &["title"]),
            "CD",
            attrs("CD", &["album"]),
        ),
        Ind::from_indices(
            "CD",
            attrs("CD", &["album", "price"]),
            "book",
            attrs("book", &["title", "price"]),
        ),
        Ind::from_indices(
            "book",
            attrs("book", &["title"]),
            "order",
            attrs("order", &["title"]),
        ),
    ]
}

/// eCFDs over the customer schema: the FD city → AC outside the fixed UK
/// cities, and Edinburgh tuples restricted to two area codes.
fn customer_ecfds(schema: &Arc<dq_relation::RelationSchema>) -> Vec<Ecfd> {
    vec![
        Ecfd::new(
            schema,
            &["city"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::not_in(["EDI", "GLA", "LDN"])],
                vec![SetPattern::any()],
            )],
        )
        .expect("well-formed eCFD"),
        Ecfd::new(
            schema,
            &["city"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::eq("EDI")],
                vec![SetPattern::in_set([131i64, 132])],
            )],
        )
        .expect("well-formed eCFD"),
    ]
}
