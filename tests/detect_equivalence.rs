//! Equivalence properties of the detection paths: the shared-index parallel
//! [`DetectionEngine`] must produce reports equal to the naive per-dependency
//! detectors, and batch detection must equal clean-prefix detection plus
//! incremental detection of appended tuples.
//!
//! All cases are generated from seeded strategies (the offline proptest
//! stand-in derives its RNG seed from the test name), so runs are exactly
//! reproducible — no fixed-seed flakiness.

use dataquality::prelude::*;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_gen::orders::{generate_orders, paper_cinds, OrderConfig};
use dq_relation::instance::CellRef;
use dq_relation::{RelationInstance, StoreShardSource, TupleId, Value};
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

fn engine_variants() -> Vec<DetectionEngine> {
    vec![
        DetectionEngine::with_threads(1),
        DetectionEngine::with_threads(4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Engine CFD reports are byte-identical to the naive path, sequential
    /// and parallel, cold pool and warm pool.
    #[test]
    fn engine_cfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let naive = detect_cfd_violations(&workload.dirty, &cfds);
        for engine in engine_variants() {
            let cold = engine.detect_cfd_violations(&workload.dirty, &cfds);
            prop_assert_eq!(&cold, &naive);
            let warm = engine.detect_cfd_violations(&workload.dirty, &cfds);
            prop_assert_eq!(&warm, &naive);
        }
        // Shard-cursor detection over the in-RAM snapshot, after deletions.
        let mut instance = workload.dirty;
        delete_every_fifth(&mut instance);
        let naive = detect_cfd_violations(&instance, &cfds);
        for engine in engine_variants() {
            prop_assert_eq!(&engine.detect_cfd_violations(&instance, &cfds), &naive);
            let source = StoreShardSource::new(&instance);
            prop_assert_eq!(&engine.detect_cfd_violations_from_shards(&source, &cfds), &naive);
        }
    }

    /// Engine equivalence also holds for the normalized fragment set, where
    /// many dependencies share a LHS and the pool serves one index to all.
    #[test]
    fn engine_equivalence_on_normalized_fragments(config in workload_config()) {
        let workload = generate_customers(&config);
        let fragments: Vec<Cfd> = paper_cfds().iter().flat_map(|c| c.normalize()).collect();
        let naive = detect_cfd_violations(&workload.dirty, &fragments);
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
        let full = detect_cfd_violations(&extended, &cfds);
        let prefix_report = detect_cfd_violations(&prefix, &cfds);
        let incremental = detect_cfd_violations_incremental(&extended, &cfds, &added);
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

    /// Engine incremental detection equals naive incremental detection.
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
        let naive = detect_cfd_violations_incremental(&instance, &cfds, &added);
        for engine in engine_variants() {
            prop_assert_eq!(
                engine.detect_cfd_violations_incremental(&instance, &cfds, &added),
                naive.clone()
            );
        }
    }

    /// Engine eCFD reports equal the naive path on generated instances.
    #[test]
    fn engine_ecfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let schema = workload.dirty.schema();
        let ecfds = vec![
            // FD city → AC outside the fixed UK cities.
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
            // EDI tuples must carry one of the Edinburgh-ish area codes.
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
        ];
        let naive = detect_ecfd_violations(&workload.dirty, &ecfds);
        for engine in engine_variants() {
            prop_assert_eq!(engine.detect_ecfd_violations(&workload.dirty, &ecfds), naive.clone());
        }
    }

    /// The engine detects over interned columnar snapshots memoized per
    /// instance version; after mutations (cell updates, inserts, removals)
    /// a fresh snapshot must be taken and reports must still equal naive —
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
        prop_assert_eq!(&before, &detect_cfd_violations(&instance, &cfds));
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
        prop_assert_eq!(&after, &detect_cfd_violations(&instance, &cfds));
    }

    /// Engine CIND reports over the order/book/CD database equal the naive
    /// cross-relation detector, cold and warm.
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
        let naive = detect_cind_violations(&workload.db, &cinds).unwrap();
        for engine in engine_variants() {
            let cold = engine.detect_cind_violations(&workload.db, &cinds).unwrap();
            prop_assert_eq!(&cold, &naive);
            let warm = engine.detect_cind_violations(&workload.db, &cinds).unwrap();
            prop_assert_eq!(&warm, &naive);
        }
    }

    /// Engine denial-constraint reports equal the naive quadratic scan, for
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
        let naive = detect_denial_violations(&workload.dirty, &constraints);
        for engine in engine_variants() {
            prop_assert_eq!(
                engine.detect_denial_violations(&workload.dirty, &constraints),
                naive.clone()
            );
        }
        // Shard-cursor detection over the in-RAM snapshot, after deletions.
        let mut instance = workload.dirty;
        delete_every_fifth(&mut instance);
        let naive = detect_denial_violations(&instance, &constraints);
        for engine in engine_variants() {
            prop_assert_eq!(&engine.detect_denial_violations(&instance, &constraints), &naive);
            let source = StoreShardSource::new(&instance);
            prop_assert_eq!(
                &engine.detect_denial_violations_from_shards(&source, &constraints),
                &naive
            );
        }
    }
}
