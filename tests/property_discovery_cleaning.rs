//! Property-based tests for the discovery, cleaning, aggregate-range and
//! c-table subsystems: invariants that must hold for arbitrary small
//! instances, not just for the curated workloads.

use dataquality::prelude::*;
use dq_relation::{CompOp, Domain, RelationInstance, RelationSchema, Tuple, Value};
use dq_repair::numeric::{repair_numeric_violations, NumericRepairConfig};
use dq_repr::ctable::CTable;
use proptest::prelude::*;
use std::sync::Arc;

fn three_col_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "r",
        [("A", Domain::Text), ("B", Domain::Text), ("C", Domain::Int)],
    ))
}

fn instance_from_rows(rows: Vec<(String, String, i64)>) -> RelationInstance {
    let mut inst = RelationInstance::new(three_col_schema());
    for (a, b, c) in rows {
        inst.insert(Tuple::new(vec![
            Value::str(a),
            Value::str(b),
            Value::int(c),
        ]))
        .unwrap();
    }
    inst
}

fn small_rows() -> impl Strategy<Value = Vec<(String, String, i64)>> {
    proptest::collection::vec(("[a-c]{1}", "[p-r]{1}", 0i64..4), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partition product equals the directly built partition, and the error
    /// measure is monotone under refinement (adding attributes can only
    /// lower or keep the error).
    #[test]
    fn partition_product_and_monotonicity(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let pa = StrippedPartition::build(&inst, &[0]);
        let pb = StrippedPartition::build(&inst, &[1]);
        let direct = StrippedPartition::build(&inst, &[0, 1]);
        prop_assert_eq!(pa.product(&pb), direct.clone());
        prop_assert_eq!(pb.product(&pa), direct.clone());
        prop_assert!(direct.error() <= pa.error());
        prop_assert!(direct.error() <= pb.error());
    }

    /// `g3 = 0` exactly when the FD holds, and `g1 = 0` exactly when `g3 = 0`.
    #[test]
    fn error_measures_agree_on_satisfaction(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let fd = Fd::new(&three_col_schema(), &["A"], &["B"]);
        let holds = fd.holds_on(&inst);
        prop_assert_eq!(g3_error(&inst, &[0], &[1]) == 0.0, holds);
        prop_assert_eq!(g1_error(&inst, &[0], &[1]) == 0.0, holds);
    }

    /// Every FD reported by discovery holds on the instance, and every
    /// holding single-attribute FD is reported (completeness at level 1).
    #[test]
    fn fd_discovery_sound_and_complete_at_level_one(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let found = discover_fds(&inst, &FdDiscoveryConfig { max_lhs: 2, ..FdDiscoveryConfig::default() });
        for fd in &found.fds {
            prop_assert!(fd.holds_on(&inst), "discovered FD does not hold");
        }
        for lhs in 0..3usize {
            for rhs in 0..3usize {
                if lhs == rhs { continue; }
                let fd = Fd::from_indices(&three_col_schema(), vec![lhs], vec![rhs]);
                if fd.holds_on(&inst) {
                    prop_assert!(
                        found.contains(&[lhs], rhs),
                        "holding FD {lhs} -> {rhs} not discovered"
                    );
                }
            }
        }
    }

    /// Every CFD produced by full discovery holds on the instance it was
    /// mined from (soundness of the mined rule set).
    #[test]
    fn cfd_discovery_is_sound(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let discovered = discover_cfds(&inst, &CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            ..CfdDiscoveryConfig::default()
        });
        let report = DetectionEngine::new().detect_cfd_violations(&inst, &discovered.all());
        prop_assert!(report.is_clean(), "{} violations from mined rules", report.total());
    }

    /// Profiling counts are consistent: distinct ≤ tuples, uniqueness ∈ [0,1],
    /// and unary keys really are keys.
    #[test]
    fn profiling_invariants(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let profile = profile_relation(&inst);
        prop_assert_eq!(profile.tuples, inst.len());
        for column in &profile.columns {
            prop_assert!(column.distinct <= profile.tuples.max(1));
            prop_assert!((0.0..=1.0).contains(&column.uniqueness));
        }
        for &key_attr in &profile.unary_keys {
            prop_assert_eq!(inst.active_domain(key_attr).len(), inst.len());
        }
    }

    /// The c-table of the key repairs represents exactly as many worlds as
    /// the WSD, every world satisfies the key, and the certain tuples are
    /// exactly the tuples present in every world.
    #[test]
    fn ctable_represents_key_repairs(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let key = Fd::new(&three_col_schema(), &["A"], &["B", "C"]);
        let ctable = CTable::from_key_repairs(&inst, &key);
        let wsd = WorldSetDecomposition::for_key(&inst, &key);
        prop_assert_eq!(ctable.world_count(), wsd.world_count());
        let worlds = ctable.worlds();
        prop_assert_eq!(worlds.len() as u128, ctable.world_count());
        for world in &worlds {
            prop_assert!(key.holds_on(world));
        }
        let certain = ctable.certain_tuples();
        for t in &certain {
            for world in &worlds {
                prop_assert!(world.iter().any(|(_, wt)| wt.values() == t.as_slice()));
            }
        }
    }

    /// Aggregate ranges bound the aggregate of every repair, and collapse to
    /// a point on key-consistent instances.
    #[test]
    fn aggregate_ranges_are_correct_bounds(rows in small_rows()) {
        let inst = instance_from_rows(rows);
        let key = Fd::new(&three_col_schema(), &["A"], &["B", "C"]);
        let ctable = CTable::from_key_repairs(&inst, &key);
        for agg in [AggregateFn::Count, AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
            let range = range_consistent_aggregate(&inst, &[0], agg, 2);
            for world in ctable.worlds() {
                prop_assert!(range.contains(aggregate_on(&world, agg, 2)));
            }
            if key.holds_on(&inst) && !inst.is_empty() {
                prop_assert!(range.is_certain());
            }
        }
    }

    /// Numeric repair of range constraints terminates, satisfies the
    /// constraints it understands, and never moves a value further than the
    /// worst offender's distance to its bound.
    #[test]
    fn numeric_repair_is_minimal_per_cell(values in proptest::collection::vec(-50i64..250, 1..10)) {
        let schema = Arc::new(RelationSchema::new("m", [("x", Domain::Int)]));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for v in &values {
            inst.insert(Tuple::new(vec![Value::int(*v)])).unwrap();
        }
        // ¬(x < 0) ∧ ¬(x > 100): clamp into [0, 100].
        let low = DenialConstraint::new("m", 1, vec![DcPredicate::new(DcTerm::attr(0, 0), CompOp::Lt, DcTerm::val(0i64))]);
        let high = DenialConstraint::new("m", 1, vec![DcPredicate::new(DcTerm::attr(0, 0), CompOp::Gt, DcTerm::val(100i64))]);
        let outcome = repair_numeric_violations(&inst, &[low, high], &NumericRepairConfig::default());
        prop_assert!(outcome.consistent);
        let expected_shift: f64 = values
            .iter()
            .map(|&v| if v < 0 { -v as f64 } else if v > 100 { (v - 100) as f64 } else { 0.0 })
            .sum();
        prop_assert!((outcome.total_shift - expected_shift).abs() < 1e-9);
        for (_, t) in outcome.repaired.iter() {
            let x = t.get(0).as_int().unwrap();
            prop_assert!((0..=100).contains(&x));
        }
    }

    /// Fusion from a master with the identity match restores exactly the
    /// differing cells of the fused attributes and nothing else.
    #[test]
    fn fusion_is_idempotent_and_targeted(rows in small_rows(), corrupt in proptest::collection::vec(("[a-c]{1}", 0usize..12), 0..4)) {
        let master_inst = instance_from_rows(rows);
        if master_inst.is_empty() {
            return Ok(());
        }
        let mut dirty = master_inst.clone();
        for (wrong, pos) in corrupt {
            let ids = dirty.ids();
            let id = ids[pos % ids.len()];
            dirty
                .update_cell(dq_relation::instance::CellRef::new(id, 1), Value::str(wrong))
                .unwrap();
        }
        let master = MasterData::new(master_inst.clone());
        let matches: Vec<MasterMatch> = dirty
            .ids()
            .into_iter()
            .map(|id| MasterMatch { dirty: id, master: id })
            .collect();
        let (fused, log) = fuse_from_master(&dirty, &master, &matches, &[1]);
        // Fusing the B attribute restores the master exactly (A and C were
        // never corrupted), and fusing again changes nothing.
        prop_assert!(fused.same_tuples_as(&master_inst));
        let (fused_again, log_again) = fuse_from_master(&fused, &master, &matches, &[1]);
        prop_assert!(fused_again.same_tuples_as(&fused));
        prop_assert_eq!(log_again.change_count(), 0);
        prop_assert!(log.change_count() <= dirty.len());
    }
}
