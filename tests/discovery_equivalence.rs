//! Equivalence properties of the interned fast paths added for discovery,
//! repair and CQA: partitions derived from CSR postings, pooled-index
//! FD/CFD/IND/CIND mining, the engine-carried repair loop and the interned
//! CQA rewriting must all produce results identical to the legacy
//! `Vec<Value>`-keyed implementations (for CFD, IND and CIND mining, the
//! miners in `dq_discovery::reference`) — and the append-only `IndexPool`
//! fast path must be invisible except in the pool counters.
//!
//! All cases are generated from seeded strategies (the offline proptest
//! stand-in derives its RNG seed from the test name), so runs are exactly
//! reproducible.

use dataquality::prelude::*;
use dq_discovery::reference;
use dq_discovery::source::PartitionSource;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_gen::orders::{generate_orders, OrderConfig};
use dq_relation::{CellRef, IndexPool, InternedIndex, RelationInstance, StoreShardSource, Value};
use dq_repair::urepair::repair_cfd_violations_with_engine;
use dq_repair::{RepairConfig, RepairCost};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Workload shapes worth exercising: tiny through few-hundred tuples, clean
/// through heavily corrupted, paper-style through scaled city pools.
fn workload_config() -> impl Strategy<Value = CustomerConfig> {
    (
        1usize..200,
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

fn fd_config(use_interned: bool, max_g3: f64) -> FdDiscoveryConfig {
    FdDiscoveryConfig {
        max_lhs: 3,
        max_g3,
        exclude: Vec::new(),
        use_interned,
        threads: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Stripped partitions derived from interned CSR postings — directly,
    /// via products over the reusable probe table, and through the pooled
    /// `PartitionSource` — equal the legacy builds on every attribute set.
    #[test]
    fn interned_partitions_equal_naive_builds(config in workload_config()) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let pool = Arc::new(IndexPool::new());
        let source = PartitionSource::interned(instance, Arc::clone(&pool), 2);
        let arity = instance.schema().arity();
        let attr_sets: Vec<Vec<usize>> = (0..arity)
            .map(|a| vec![a])
            .chain((0..arity).flat_map(|a| ((a + 1)..arity).map(move |b| vec![a, b])))
            .chain([vec![], vec![0, 1, 2]])
            .collect();
        for attrs in &attr_sets {
            let naive = StrippedPartition::build(instance, attrs);
            let store = instance.columnar();
            let index = InternedIndex::build(instance, &store, attrs, 2);
            let pooled = StrippedPartition::from_groups(&StoreShardSource::new(instance), index.multi_group_rows());
            prop_assert_eq!(&pooled, &naive, "from_groups {:?}", attrs);
            prop_assert_eq!(&*source.partition(attrs), &naive, "source {:?}", attrs);
        }
        // Products agree with direct builds (π_X · π_Y = π_{X ∪ Y}).
        let pa = source.partition(&[0]);
        let pb = source.partition(&[4]);
        let mut prober = PartitionProber::new();
        prop_assert_eq!(
            pa.product_with(&pb, &mut prober),
            StrippedPartition::build(instance, &[0, 4])
        );
    }

    /// `g3` read off interned partitions (`π_X` and its product
    /// `π_{X ∪ {A}}`, as the lattice walk holds them) is bit-identical to
    /// the naive measure for every (LHS, RHS) candidate shape discovery
    /// generates.
    #[test]
    fn g3_interned_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let source = PartitionSource::interned(instance, Arc::new(IndexPool::new()), 1);
        let mut prober = PartitionProber::new();
        let arity = instance.schema().arity();
        for lhs in (0..arity).map(|a| vec![a]).chain([vec![0, 1], vec![2, 5]]) {
            for rhs_attr in (0..arity).filter(|a| !lhs.contains(a)) {
                let with_rhs: Vec<usize> = lhs.iter().copied().chain([rhs_attr]).collect();
                let g3 = source.partition(&lhs).g3_with(&source.partition(&with_rhs), &mut prober);
                prop_assert_eq!(
                    g3.to_bits(),
                    g3_error(instance, &lhs, &[rhs_attr]).to_bits(),
                    "{:?} -> {}", lhs, rhs_attr
                );
            }
        }
    }

    /// FD discovery over interned partitions reports exactly the FDs (and
    /// candidate counts) of the naive partition path, exact and approximate.
    #[test]
    fn fd_discovery_interned_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        for max_g3 in [0.0, 0.15] {
            let fast = discover_fds(&workload.dirty, &fd_config(true, max_g3));
            let slow = discover_fds(&workload.dirty, &fd_config(false, max_g3));
            prop_assert_eq!(&fast.fds, &slow.fds, "max_g3 {}", max_g3);
            prop_assert_eq!(fast.candidates_checked, slow.candidates_checked);
        }
    }

    /// Full CFD discovery — exact FDs, mined tableaux and constant patterns
    /// — is identical between the interned miners and the row-oriented
    /// reference.
    #[test]
    fn cfd_discovery_interned_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let cfg = CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            ..CfdDiscoveryConfig::default()
        };
        let fast = discover_cfds(&workload.dirty, &cfg);
        let slow = reference::discover_cfds(&workload.dirty, &cfg);
        prop_assert_eq!(&fast.variable_cfds, &slow.variable_cfds);
        prop_assert_eq!(&fast.constant_cfds, &slow.constant_cfds);
        prop_assert_eq!(fast.candidates_checked, slow.candidates_checked);
    }

    /// Where the cap binds: full CFD discovery and standalone constant
    /// mining equal the reference at every `max_tableau` in `0..6`
    /// (including 0, which mines no pattern at all), sequentially and
    /// fanned out.  The miners' early exits only ever skip candidates the
    /// cap would have dropped.  The surrogate key and the free-text name
    /// are excluded, as in the profiling workloads: no small group agrees
    /// on them, so with them in play a constant-mining worker would never
    /// fill every RHS and its whole-LHS exit would go unexercised.
    #[test]
    fn cfd_discovery_equals_the_reference_where_the_cap_binds(config in workload_config()) {
        let workload = generate_customers(&config);
        let schema = workload.dirty.schema().clone();
        let exclude = vec![schema.attr("phn"), schema.attr("name")];
        for max_tableau in 0..6 {
            let mk = |threads| CfdDiscoveryConfig {
                min_support: 2,
                max_lhs: 2,
                max_tableau,
                threads,
                exclude: exclude.clone(),
                ..CfdDiscoveryConfig::default()
            };
            let slow = reference::discover_cfds(&workload.dirty, &mk(1));
            let slow_constants = reference::discover_constant_cfds(&workload.dirty, &mk(1));
            for threads in THREAD_COUNTS {
                let fast = discover_cfds(&workload.dirty, &mk(threads));
                prop_assert_eq!(
                    &fast.variable_cfds, &slow.variable_cfds,
                    "cap {}, threads {}", max_tableau, threads
                );
                prop_assert_eq!(
                    &fast.constant_cfds, &slow.constant_cfds,
                    "cap {}, threads {}", max_tableau, threads
                );
                prop_assert_eq!(fast.candidates_checked, slow.candidates_checked);
                prop_assert_eq!(
                    &discover_constant_cfds(&workload.dirty, &mk(threads)), &slow_constants,
                    "cap {}, threads {}", max_tableau, threads
                );
            }
        }
    }

    /// Tableau mining for one embedded FD — the `(CC, zip) → street` shape
    /// of ϕ1 — equals the reference at every cap, and the cap bounds the
    /// whole tableau.
    #[test]
    fn tableau_mining_equals_the_reference_at_every_cap(config in workload_config()) {
        let workload = generate_customers(&config);
        let fd = Fd::new(workload.dirty.schema(), &["CC", "zip"], &["street"]);
        for max_tableau in 1..6 {
            let cfg = CfdDiscoveryConfig {
                min_support: 2,
                max_tableau,
                ..CfdDiscoveryConfig::default()
            };
            let fast = discover_tableau_for_fd(&workload.dirty, &fd, &cfg);
            prop_assert_eq!(
                &fast,
                &reference::discover_tableau_for_fd(&workload.dirty, &fd, &cfg),
                "cap {}", max_tableau
            );
            if let Some(cfd) = &fast {
                prop_assert!(cfd.tableau().len() <= max_tableau, "cap {}", max_tableau);
            }
        }
    }

    /// The pooled profile equals a from-scratch reference computation.
    #[test]
    fn pooled_profile_equals_reference(config in workload_config()) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let profile = profile_relation(instance);
        prop_assert_eq!(profile.tuples, instance.len());
        for column in &profile.columns {
            let mut distinct: BTreeSet<Value> = BTreeSet::new();
            let mut nulls = 0usize;
            for (_, tuple) in instance.iter() {
                let v = tuple.get(column.attr);
                if v.is_null() {
                    nulls += 1;
                } else {
                    distinct.insert(v.clone());
                }
            }
            prop_assert_eq!(column.distinct, distinct.len(), "attr {}", column.attr);
            prop_assert_eq!(column.nulls, nulls, "attr {}", column.attr);
            if let Some(inline) = &column.inline_values {
                prop_assert_eq!(inline, &distinct, "attr {}", column.attr);
            }
            let reference_uniqueness = if instance.is_empty() {
                0.0
            } else {
                distinct.len() as f64 / instance.len() as f64
            };
            prop_assert_eq!(column.uniqueness, reference_uniqueness);
        }
        // Binary keys agree with the projection-set definition.
        for &(a, b) in &profile.binary_keys {
            prop_assert_eq!(instance.project_distinct(&[a, b]).len(), instance.len());
        }
    }

    /// The engine-carried repair loop produces a byte-identical outcome to
    /// `dq_repair::reference`: same repaired cells, same log (order
    /// included), same cost, rounds and verdict.
    #[test]
    fn engine_repair_equals_naive_repair(config in workload_config()) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let cost = RepairCost::uniform();
        let repair_config = RepairConfig::default();
        let engine = DetectionEngine::new();
        let fast =
            repair_cfd_violations_with_engine(&workload.dirty, &cfds, &cost, &repair_config, &engine)
                .expect("mined rule sets hold on the instance, hence consistent");
        let slow = dq_repair::reference::repair_cfd_violations(
            &workload.dirty,
            &cfds,
            &cost,
            &repair_config,
        );
        prop_assert_eq!(fast.consistent, slow.consistent);
        prop_assert_eq!(fast.rounds, slow.rounds);
        prop_assert_eq!(&fast.log.modified, &slow.log.modified);
        prop_assert_eq!(&fast.log.deleted, &slow.log.deleted);
        prop_assert_eq!(fast.log.cost, slow.log.cost);
        for (id, tuple) in slow.repaired.iter() {
            prop_assert_eq!(fast.repaired.tuple(id), Some(tuple));
        }
        prop_assert_eq!(fast.repaired.len(), slow.repaired.len());
    }

    /// Engine detection stays equivalent when the pool serves append-only
    /// extensions: growing an instance between detections must change
    /// nothing but the `appends` counter.
    #[test]
    fn engine_equivalence_survives_append_only_growth(
        config in workload_config(),
        extra in 1usize..20,
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let before = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&before, &dq_core::reference::detect_cfd_violations(&instance, &cfds));
        // Append copies of existing tuples (no new dictionary entries, so
        // the u64 radix codecs stay extendable) plus the growth is real.
        let pool: Vec<_> = instance.iter().map(|(_, t)| t.clone()).collect();
        let donors: Vec<_> = pool.iter().cloned().cycle().take(extra).collect();
        for donor in donors {
            instance.insert(donor).expect("same schema");
        }
        let after = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&after, &dq_core::reference::detect_cfd_violations(&instance, &cfds));
        prop_assert!(
            engine.pool_stats().appends > 0,
            "append-only growth must take the extension fast path"
        );
    }

    /// The engine's incrementally-maintained CFD violation report tracks
    /// full detection exactly while the instance absorbs random in-domain
    /// cell edits, and the pooled indexes absorb real writes as *patches*
    /// (moved rows), never full rebuilds.
    #[test]
    fn maintained_violations_track_full_detection_under_edits(
        config in workload_config(),
        edits in proptest::collection::vec(
            (0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000),
            1..10,
        ),
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let mut maintained = engine.maintain_cfd_violations(&instance, &cfds, None);
        prop_assert_eq!(maintained.report(), &dq_core::reference::detect_cfd_violations(&instance, &cfds));
        let ids = instance.ids();
        let arity = instance.schema().arity();
        let mut changed_any = false;
        // Copy a donor tuple's value into a target cell: always in-domain,
        // and often moves the target between LHS groups of some CFD.
        for &(t, a, d) in &edits {
            let target = ids[t % ids.len()];
            let attr = a % arity;
            let value = instance.tuple(ids[d % ids.len()]).expect("live").get(attr).clone();
            changed_any |= instance.tuple(target).expect("live").get(attr) != &value;
            instance
                .update_cell(CellRef::new(target, attr), value)
                .expect("donor values are in-domain");
            maintained = engine.maintain_cfd_violations(&instance, &cfds, Some(&maintained));
            prop_assert_eq!(maintained.report(), &dq_core::reference::detect_cfd_violations(&instance, &cfds));
        }
        if changed_any {
            prop_assert!(
                engine.pool_stats().patches > 0,
                "cell edits must be served by patching pooled indexes"
            );
        }
    }

    /// The maintained report equals the reference detector after every step
    /// of a stream mixing cell edits, appends (two donors' cells mixed, so
    /// tuples land in new LHS groups and RHS classes) and removals — also
    /// when a step patches from a report several versions old.  The paper's
    /// rules bring constant patterns and a three-attribute RHS.
    #[test]
    fn maintained_violations_track_mixed_streams_from_stale_reports(
        config in workload_config(),
        steps in proptest::collection::vec(
            (0usize..3, 0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000, 0usize..4),
            1..12,
        ),
    ) {
        let mut instance = generate_customers(&config).dirty;
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let arity = instance.schema().arity();
        let mut history = vec![engine.maintain_cfd_violations(&instance, &cfds, None)];
        for &(kind, t, a, d, back) in &steps {
            let ids = instance.ids();
            let target = ids[t % ids.len()];
            let donor = ids[d % ids.len()];
            let attr = a % arity;
            match kind {
                0 => {
                    let value = instance.tuple(donor).expect("live").get(attr).clone();
                    instance
                        .update_cell(CellRef::new(target, attr), value)
                        .expect("donor values are in-domain");
                }
                1 => {
                    let values: Vec<Value> = (0..arity)
                        .map(|i| {
                            let from = if i == attr { target } else { donor };
                            instance.tuple(from).expect("live").get(i).clone()
                        })
                        .collect();
                    instance.insert_values(values).expect("same schema");
                }
                _ if ids.len() > 1 => {
                    instance.remove(target).expect("live");
                }
                _ => {}
            }
            let prev = &history[history.len() - 1 - back.min(history.len() - 1)];
            let next = engine.maintain_cfd_violations(&instance, &cfds, Some(prev));
            prop_assert_eq!(
                next.report(),
                &dq_core::reference::detect_cfd_violations(&instance, &cfds)
            );
            history.push(next);
        }
    }

    /// Re-running the engine repair loop against a *shared* pool: the
    /// second run reproduces the first byte-for-byte (verdict, rounds, log
    /// order, cost, repaired tuples) and the pool served the fixpoint's
    /// cell writes as patches rather than full rebuilds.
    #[test]
    fn repair_rerun_over_shared_pool_patches_and_agrees(config in workload_config()) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let cost = RepairCost::uniform();
        let repair_config = RepairConfig::default();
        let engine = DetectionEngine::new();
        let first =
            repair_cfd_violations_with_engine(&workload.dirty, &cfds, &cost, &repair_config, &engine)
                .expect("mined rule sets hold on the instance, hence consistent");
        let second =
            repair_cfd_violations_with_engine(&workload.dirty, &cfds, &cost, &repair_config, &engine)
                .expect("mined rule sets hold on the instance, hence consistent");
        prop_assert_eq!(first.consistent, second.consistent);
        prop_assert_eq!(first.rounds, second.rounds);
        prop_assert_eq!(&first.log.modified, &second.log.modified);
        prop_assert_eq!(&first.log.deleted, &second.log.deleted);
        prop_assert_eq!(first.log.cost, second.log.cost);
        for (id, tuple) in first.repaired.iter() {
            prop_assert_eq!(second.repaired.tuple(id), Some(tuple));
        }
        prop_assert_eq!(first.repaired.len(), second.repaired.len());
        // Value modifications and deletions keep the working copy
        // delta-covered (both are journaled), so the re-detection after
        // each round must have been patch-served.
        if !first.log.modified.is_empty() || !first.log.deleted.is_empty() {
            prop_assert!(
                engine.pool_stats().patches > 0,
                "repair-round writes must be served by patching pooled indexes"
            );
        }
    }
}

/// Thread counts the parallel-≡-sequential suites sweep: sequential, a
/// modest fan-out and an oversubscribed one (more workers than this
/// container has cores, so preemption shuffles completion order).
/// `max_tableau: 0` mines no constant CFD, on the interned miner and the
/// reference alike: every constant tableau is empty, and an empty tableau
/// would be a vacuous rule.  Every rule `discover_cfds` does report (the
/// exact FDs) keeps a non-empty tableau.
#[test]
fn zero_cap_mines_no_vacuous_constant_cfds() {
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        seed: 1,
        ..CustomerConfig::default()
    });
    let cfg = CfdDiscoveryConfig {
        max_tableau: 0,
        ..CfdDiscoveryConfig::default()
    };
    assert_eq!(
        discover_constant_cfds(&workload.dirty, &cfg),
        Vec::<Cfd>::new()
    );
    assert_eq!(
        reference::discover_constant_cfds(&workload.dirty, &cfg),
        Vec::<Cfd>::new()
    );
    let mined = discover_cfds(&workload.dirty, &cfg);
    assert!(mined.constant_cfds.is_empty());
    assert!(mined.all().iter().all(|cfd| !cfd.tableau().is_empty()));
    assert_eq!(
        mined.all(),
        reference::discover_cfds(&workload.dirty, &cfg).all()
    );
}

/// Removes rows from `instance` to leave tuple-id gaps: `mode` 0 keeps
/// every row, 1–3 drop every second to fourth, 4 keeps one row and 5
/// empties the relation.
fn punch_gaps(instance: &mut RelationInstance, mode: usize) {
    for (pos, id) in instance.ids().into_iter().enumerate() {
        let drop = match mode {
            1..=3 => pos % (mode + 1) == 0,
            4 => pos > 0,
            5 => true,
            _ => false,
        };
        if drop {
            instance.remove(id).expect("live");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// One lattice walk over the thresholds `[0, t]` answers exactly like
    /// two separate reference sweeps (`use_interned: false`) at `0` and at
    /// `t`: the FD lists and per-threshold candidate tallies, on both
    /// backends and at threads 1, 2 and 4, with every FD's `g3` bit-equal
    /// to `g3_error`.  Approximate candidates are a subset of the exact
    /// ones, so the walk materializes exactly the exact-only walk's
    /// partitions.  Covers tuple-id gaps, one-row and empty relations and
    /// thresholds at and above 1.
    #[test]
    fn one_walk_equals_separate_sweeps_per_threshold(
        config in workload_config(),
        gaps in 0usize..6,
        threshold_idx in 0usize..4,
    ) {
        let mut instance = generate_customers(&config).dirty;
        punch_gaps(&mut instance, gaps);
        let thresholds = [0.0, [0.1, 0.5, 1.0, 2.0][threshold_idx]];
        let reference_sweeps = thresholds.map(|max_g3| FdDiscoveryConfig {
            threads: 1,
            ..fd_config(false, max_g3)
        }).map(|cfg| discover_fds(&instance, &cfg));
        for use_interned in [false, true] {
            let exact_only = discover_fds(&instance, &fd_config(use_interned, 0.0));
            for threads in [1, 2, 4] {
                let cfg = FdDiscoveryConfig { threads, ..fd_config(use_interned, 0.0) };
                let walk = discover_fds_at_thresholds(
                    &instance, &cfg, &thresholds, &Arc::new(IndexPool::new()),
                );
                prop_assert_eq!(walk.len(), 2);
                for (one, separate) in walk.iter().zip(&reference_sweeps) {
                    prop_assert_eq!(&one.fds, &separate.fds, "threads {}, interned {}", threads, use_interned);
                    prop_assert_eq!(one.candidates_checked, separate.candidates_checked);
                    prop_assert_eq!(one.g3.len(), one.fds.len());
                    for (fd, g3) in one.fds.iter().zip(&one.g3) {
                        prop_assert_eq!(
                            g3.to_bits(),
                            g3_error(&instance, fd.lhs(), fd.rhs()).to_bits(),
                            "{:?}", fd
                        );
                    }
                    prop_assert_eq!(one.partitions_built, exact_only.partitions_built);
                }
                if !use_interned {
                    prop_assert_eq!(walk[0].partitions_built, reference_sweeps[0].partitions_built);
                    prop_assert!(reference_sweeps[1].partitions_built <= walk[1].partitions_built);
                }
            }
        }
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// 2,000 customers (seed 42, 5% errors) over the paper's three cities per
/// country: the scaled workload of the discovery bench, with
/// multi-thousand-tuple `[CC, AC]` groups.
fn scaled_customers() -> RelationInstance {
    generate_customers(&CustomerConfig {
        tuples: 2_000,
        error_rate: 0.05,
        seed: 42,
        cities_per_country: 3,
    })
    .dirty
}

/// FD and CFD discovery on 2,000 scaled customers equal the naive and
/// reference sweeps at 1 and 2 threads, each run cold on a fresh instance:
/// the FDs, the variable and constant CFDs and every `candidates_checked`
/// tally, CFDs also at a binding `max_tableau` of 4.
#[test]
#[ignore = "2,000-tuple reference CFD miner at two caps: run in release with --ignored"]
fn discovery_equals_the_reference_on_scaled_customers() {
    let instance = scaled_customers();
    let schema = instance.schema().clone();
    let exclude = vec![schema.attr("phn"), schema.attr("name")];
    let fd_cfg = |use_interned, threads| FdDiscoveryConfig {
        max_lhs: 2,
        max_g3: 0.0,
        exclude: exclude.clone(),
        use_interned,
        threads,
    };
    let cfd_cfg = |max_tableau, threads| CfdDiscoveryConfig {
        min_support: 4,
        max_lhs: 2,
        max_tableau,
        exclude: exclude.clone(),
        threads,
        ..CfdDiscoveryConfig::default()
    };
    let default_cap = CfdDiscoveryConfig::default().max_tableau;
    let naive_fds = discover_fds(&instance, &fd_cfg(false, 1));
    for threads in [1, 2] {
        let fds = discover_fds(&scaled_customers(), &fd_cfg(true, threads));
        assert_eq!(fds.fds, naive_fds.fds, "threads {threads}");
        assert_eq!(
            fds.candidates_checked, naive_fds.candidates_checked,
            "threads {threads}"
        );
    }
    for max_tableau in [default_cap, 4] {
        let slow = reference::discover_cfds(&instance, &cfd_cfg(max_tableau, 1));
        for threads in [1, 2] {
            let fast = discover_cfds(&scaled_customers(), &cfd_cfg(max_tableau, threads));
            assert_eq!(
                fast.variable_cfds, slow.variable_cfds,
                "max_tableau {max_tableau}, threads {threads}"
            );
            assert_eq!(
                fast.constant_cfds, slow.constant_cfds,
                "max_tableau {max_tableau}, threads {threads}"
            );
            assert_eq!(
                fast.candidates_checked, slow.candidates_checked,
                "max_tableau {max_tableau}, threads {threads}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The fanned-out level-wise FD sweep is byte-identical to the
    /// sequential sweep at every thread count, on both partition backends,
    /// exact and approximate — dependencies, candidate counts and
    /// partition tallies included.
    #[test]
    fn parallel_fd_discovery_equals_sequential(config in workload_config()) {
        let workload = generate_customers(&config);
        for use_interned in [false, true] {
            for max_g3 in [0.0, 0.15] {
                let mk = |threads| FdDiscoveryConfig {
                    threads,
                    ..fd_config(use_interned, max_g3)
                };
                let sequential = discover_fds(&workload.dirty, &mk(1));
                for threads in THREAD_COUNTS {
                    let parallel = discover_fds(&workload.dirty, &mk(threads));
                    prop_assert_eq!(
                        &parallel.fds, &sequential.fds,
                        "threads {}, interned {}, max_g3 {}", threads, use_interned, max_g3
                    );
                    prop_assert_eq!(parallel.candidates_checked, sequential.candidates_checked);
                    prop_assert_eq!(parallel.partitions_built, sequential.partitions_built);
                }
            }
        }
    }

    /// Full CFD discovery — exact FDs, mined tableaux and constant
    /// patterns — is byte-identical between the sequential sweep and the
    /// per-level fan-out at every thread count.
    #[test]
    fn parallel_cfd_discovery_equals_sequential(config in workload_config()) {
        let workload = generate_customers(&config);
        let mk = |threads| CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            threads,
            ..CfdDiscoveryConfig::default()
        };
        let sequential = discover_cfds(&workload.dirty, &mk(1));
        for threads in THREAD_COUNTS {
            let parallel = discover_cfds(&workload.dirty, &mk(threads));
            prop_assert_eq!(
                &parallel.variable_cfds, &sequential.variable_cfds,
                "threads {}", threads
            );
            prop_assert_eq!(&parallel.constant_cfds, &sequential.constant_cfds);
            prop_assert_eq!(parallel.candidates_checked, sequential.candidates_checked);
        }
    }

    /// Tableau mining for one embedded FD — the `(CC, zip) → street` shape
    /// of ϕ1 — accepts the same patterns in the same order at every thread
    /// count (the per-condition-set fan-out merges candidates canonically,
    /// including the `max_tableau` cap), and never more than the cap.
    #[test]
    fn parallel_tableau_mining_equals_sequential(
        config in workload_config(),
        max_tableau in 1usize..6,
    ) {
        let workload = generate_customers(&config);
        let schema = workload.dirty.schema().clone();
        let fd = Fd::new(&schema, &["CC", "zip"], &["street"]);
        let mk = |threads| CfdDiscoveryConfig {
            min_support: 2,
            max_tableau,
            threads,
            ..CfdDiscoveryConfig::default()
        };
        let sequential = discover_tableau_for_fd(&workload.dirty, &fd, &mk(1));
        if let Some(s) = &sequential {
            prop_assert!(s.tableau().len() <= max_tableau, "cap {}", max_tableau);
        }
        for threads in THREAD_COUNTS {
            let parallel = discover_tableau_for_fd(&workload.dirty, &fd, &mk(threads));
            match (&parallel, &sequential) {
                (Some(p), Some(s)) => {
                    prop_assert_eq!(
                        p.tableau(), s.tableau(),
                        "threads {}, cap {}", threads, max_tableau
                    );
                }
                (None, None) => {}
                _ => prop_assert!(
                    false,
                    "threads {} disagrees on tableau existence", threads
                ),
            }
        }
    }

    /// The fanned-out profile (per-column stats and binary-key pairs)
    /// equals the sequential profile at every thread count.
    #[test]
    fn parallel_profile_equals_sequential(config in workload_config()) {
        let workload = generate_customers(&config);
        let sequential = profile_relation_with(&workload.dirty, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                &profile_relation_with(&workload.dirty, threads),
                &sequential,
                "threads {}", threads
            );
        }
    }

    /// A parallel sweep over a *shared* pool stays byte-identical after an
    /// append-only growth round: the pooled indexes extend in place (the
    /// `appends` counter rises) and the concurrent sweep over the extended
    /// indexes reports exactly what a fresh naive sweep reports.
    #[test]
    fn parallel_discovery_survives_append_only_growth(
        config in workload_config(),
        extra in 1usize..20,
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let pool = Arc::new(IndexPool::new());
        let parallel_config = FdDiscoveryConfig { threads: 4, ..fd_config(true, 0.0) };
        let before = discover_fds_with_pool(&instance, &parallel_config, &pool);
        prop_assert_eq!(
            &before.fds,
            &discover_fds(&instance, &fd_config(false, 0.0)).fds
        );
        // Append copies of existing tuples (no new dictionary entries, so
        // the u64 radix codecs stay extendable) plus the growth is real.
        let donors: Vec<_> = instance.iter().map(|(_, t)| t.clone()).collect();
        for donor in donors.iter().cloned().cycle().take(extra) {
            instance.insert(donor.clone()).expect("same schema");
        }
        let after = discover_fds_with_pool(&instance, &parallel_config, &pool);
        prop_assert_eq!(
            &after.fds,
            &discover_fds(&instance, &fd_config(false, 0.0)).fds
        );
        prop_assert!(
            pool.stats().appends > 0,
            "append-only growth must take the extension fast path"
        );
    }
}

/// Workload shapes for the IND/CIND suites: the order/book/CD database at
/// various sizes, violation rates and seeds, optionally with null LHS cells
/// injected into `order.title`.
fn order_config() -> impl Strategy<Value = OrderConfig> {
    (1usize..120, 0usize..3, 0u64..1_000).prop_map(|(orders, rate_idx, seed)| OrderConfig {
        orders,
        violation_rate: [0.0, 0.05, 0.3][rate_idx],
        seed,
    })
}

fn order_db(config: &OrderConfig, null_titles: usize) -> Database {
    let mut db = generate_orders(config).db;
    let order = db.relation_mut("order").expect("order relation");
    for i in 0..null_titles {
        order
            .insert_values([
                Value::str(format!("null{i}")),
                Value::Null,
                Value::str(if i % 2 == 0 { "book" } else { "CD" }),
                Value::real(1.0),
            ])
            .expect("order tuple fits the schema");
    }
    db
}

fn ind_config(ignore_nulls: bool) -> IndDiscoveryConfig {
    IndDiscoveryConfig {
        ignore_nulls,
        ..IndDiscoveryConfig::default()
    }
}

/// The embedded IND of Section 2.2: `order(title, price) ⊆ book(title, price)`.
fn embedded_ind(db: &Database) -> dq_core::ind::Ind {
    let order = db.relation("order").unwrap().schema().clone();
    let book = db.relation("book").unwrap().schema().clone();
    dq_core::ind::Ind::from_indices(
        "order",
        vec![order.attr("title"), order.attr("price")],
        "book",
        vec![book.attr("title"), book.attr("price")],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// IND discovery over pooled distinct-projection sets reports exactly
    /// the INDs (and candidate counts) of the row-oriented reference sweep
    /// — with and without SQL-style null semantics.
    #[test]
    fn ind_discovery_interned_equals_naive(
        config in order_config(),
        null_titles in 0usize..3,
    ) {
        let db = order_db(&config, null_titles);
        for ignore_nulls in [false, true] {
            let fast = discover_inds(&db, &ind_config(ignore_nulls)).unwrap();
            let slow = reference::discover_inds(&db, &ind_config(ignore_nulls)).unwrap();
            prop_assert_eq!(&fast.inds, &slow.inds, "ignore_nulls {}", ignore_nulls);
            prop_assert_eq!(fast.candidates_checked, slow.candidates_checked);
            // Every reported IND genuinely holds under the configured
            // semantics.
            let engine = DetectionEngine::new();
            for ind in &fast.inds {
                prop_assert!(engine.ind_holds(&db, ind, ignore_nulls).unwrap(), "{}", ind);
            }
        }
    }

    /// CIND condition mining over CSR postings reports exactly the CINDs of
    /// the reference per-value re-scan, across support thresholds —
    /// including the vacuous-condition guard when the embedded IND already
    /// holds.
    #[test]
    fn cind_condition_mining_interned_equals_naive(
        config in order_config(),
        null_titles in 0usize..2,
        min_support in 1usize..4,
    ) {
        let db = order_db(&config, null_titles);
        let embedded = embedded_ind(&db);
        for ignore_nulls in [false, true] {
            let cfg = IndDiscoveryConfig {
                min_support,
                ..ind_config(ignore_nulls)
            };
            let found = discover_cind_conditions(&db, &embedded, &cfg).unwrap();
            let slow = reference::discover_cind_conditions(&db, &embedded, &cfg).unwrap();
            prop_assert_eq!(
                &found, &slow,
                "min_support {}, ignore_nulls {}", min_support, ignore_nulls
            );
            // The vacuous-CIND guard: an IND held under the configured
            // null semantics never yields conditions.
            if DetectionEngine::new().ind_holds(&db, &embedded, ignore_nulls).unwrap() {
                prop_assert!(found.is_empty(), "vacuous CIND for a held IND");
            }
        }
    }

    /// IND equivalence survives append-only growth over a shared pool: the
    /// distinct sets extend in place (the `appends` counter rises, even
    /// when new values grow the dictionaries) and discovery output stays
    /// byte-identical to the reference sweep.
    #[test]
    fn ind_discovery_equivalence_survives_append_only_growth(
        config in order_config(),
        extra in 1usize..12,
    ) {
        let mut db = order_db(&config, 0);
        let pool = IndexPool::new();
        let before = dq_discovery::ind_discovery::discover_inds_with_pool(
            &db, &ind_config(false), &pool, 2,
        ).unwrap();
        prop_assert_eq!(
            &before.inds,
            &reference::discover_inds(&db, &ind_config(false)).unwrap().inds
        );
        // Grow the order relation: copies of existing tuples plus one
        // brand-new title (a dictionary-growing append, exercising the
        // repack-aware extension).
        let order = db.relation_mut("order").expect("order relation");
        let donors: Vec<_> = order.iter().map(|(_, t)| t.clone()).collect();
        for donor in donors.iter().cloned().cycle().take(extra) {
            order.insert(donor).expect("same schema");
        }
        order
            .insert_values([
                Value::str("a-new"),
                Value::str("A Brand-New Title"),
                Value::str("book"),
                Value::real(3.21),
            ])
            .expect("order tuple fits the schema");
        let after = dq_discovery::ind_discovery::discover_inds_with_pool(
            &db, &ind_config(false), &pool, 2,
        ).unwrap();
        prop_assert_eq!(
            &after.inds,
            &reference::discover_inds(&db, &ind_config(false)).unwrap().inds
        );
        prop_assert!(
            pool.stats().appends > 0,
            "append-only growth must take the distinct-set extension fast path"
        );
        // The engine's IND detector agrees with the reference on the
        // grown database, for every discovered IND and both null semantics.
        let engine = DetectionEngine::new();
        for ignore_nulls in [false, true] {
            let reports = engine
                .detect_ind_violations(&db, &after.inds, ignore_nulls)
                .unwrap();
            for (ind, report) in after.inds.iter().zip(&reports) {
                prop_assert_eq!(
                    report,
                    &dq_core::reference::ind_violations(ind, &db, ignore_nulls).unwrap(),
                    "{} (ignore_nulls {})", ind, ignore_nulls
                );
            }
        }
    }
}

/// 2,000 orders (seed 42, 5% violations) plus the mining variant of the
/// same size: no injected violations, but one dangling `CD` order per 20,
/// so the unconditional embedded IND breaks while every book order still
/// has its `book` counterpart — the shape from which CIND mining must
/// recover cind1's `type = 'book'` condition.
fn order_bench_databases() -> (Database, Database) {
    let orders = |violation_rate| {
        generate_orders(&OrderConfig {
            orders: 2_000,
            violation_rate,
            seed: 42,
        })
        .db
    };
    let mut mining = orders(0.0);
    let order = mining.relation_mut("order").expect("order relation");
    for i in 0..100 {
        order
            .insert_values([
                Value::str(format!("x{i}")),
                Value::str(format!("Dangling {i}")),
                Value::str("CD"),
                Value::real(1.0),
            ])
            .expect("order tuple fits the schema");
    }
    (orders(0.05), mining)
}

/// IND discovery and CIND condition mining on the order workloads above
/// equal `dq_discovery::reference`, and mining recovers the
/// `type = 'book'` condition.  The interned miners run first, so they
/// build every snapshot and distinct set cold.
#[test]
fn inclusion_mining_equals_the_reference_on_the_order_workload() {
    let (db, mining) = order_bench_databases();
    let config = IndDiscoveryConfig::default();
    let embedded = embedded_ind(&mining);
    let inds = discover_inds(&db, &config).unwrap();
    let cinds = discover_cind_conditions(&mining, &embedded, &config).unwrap();

    let expected = reference::discover_inds(&db, &config).unwrap();
    assert_eq!(
        inds.inds, expected.inds,
        "interned IND discovery must report identical dependencies"
    );
    assert_eq!(inds.candidates_checked, expected.candidates_checked);
    let expected = reference::discover_cind_conditions(&mining, &embedded, &config).unwrap();
    assert!(
        expected
            .iter()
            .any(|c| c.tableau().iter().any(|p| p.lhs == [Value::str("book")])),
        "mining must recover the type = 'book' condition"
    );
    assert_eq!(
        cinds, expected,
        "interned CIND mining must report identical conditions"
    );
}

/// Asserts engine IND and CIND detection over `db` — the paper's CINDs and
/// `ind` — identical to `dq_core::reference` at 1 and 2 threads, with
/// `ignore_nulls` both ways.
fn assert_inclusion_detection_matches_reference(db: &Database, ind: &dq_core::ind::Ind) {
    let cinds = dq_gen::orders::paper_cinds();
    let expected_cinds = dq_core::reference::detect_cind_violations(db, &cinds).unwrap();
    for threads in [1, 2] {
        let engine = DetectionEngine::with_threads(threads);
        assert_eq!(
            engine.detect_cind_violations(db, &cinds).unwrap(),
            expected_cinds,
            "engine CIND detection must equal the reference ({threads} threads)"
        );
        for ignore_nulls in [false, true] {
            let expected = dq_core::reference::ind_violations(ind, db, ignore_nulls).unwrap();
            assert_eq!(
                engine
                    .detect_ind_violations(db, std::slice::from_ref(ind), ignore_nulls)
                    .unwrap(),
                [expected],
                "engine IND detection must equal the reference \
                 ({threads} threads, ignore_nulls {ignore_nulls})"
            );
        }
    }
}

/// Engine detection of the paper's CINDs and of the embedded
/// `order(title, price) ⊆ book(title, price)` IND — their shared inclusion
/// kernel — equals the reference on both order workloads above.
#[test]
fn inclusion_detection_equals_the_reference_on_the_order_workload() {
    let (db, mining) = order_bench_databases();
    for db in [&db, &mining] {
        assert_inclusion_detection_matches_reference(db, &embedded_ind(db));
    }
}

/// A small database shaped by a seed: `emp` with key conflicts on `name`,
/// and a key-clean `dept(dname, mgr)` that lacks some departments `emp`
/// names, so joins through `dept` drop some candidates.
fn cqa_database(groups: usize, seed: u64) -> (Database, Vec<KeySpec>, Vec<DenialConstraint>) {
    let schema = Arc::new(dq_relation::RelationSchema::new(
        "emp",
        [
            ("name", dq_relation::Domain::Text),
            ("dept", dq_relation::Domain::Text),
            ("grade", dq_relation::Domain::Int),
        ],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    for i in 0..groups {
        let name = format!("e{i}");
        let dept = format!("d{}", (i as u64 + seed) % 5);
        inst.insert_values([
            Value::str(name.clone()),
            Value::str(dept.clone()),
            Value::int((i % 4) as i64),
        ])
        .unwrap();
        // Every third employee gets a conflicting second tuple.
        if (i as u64 + seed).is_multiple_of(3) {
            inst.insert_values([
                Value::str(name),
                Value::str(format!("d{}", (i as u64 + seed + 1) % 5)),
                Value::int((i % 4) as i64),
            ])
            .unwrap();
        }
    }
    let constraints = DenialConstraint::from_fd(&Fd::new(&schema, &["name"], &["dept", "grade"]));
    let mut dept = RelationInstance::new(Arc::new(dq_relation::RelationSchema::new(
        "dept",
        [
            ("dname", dq_relation::Domain::Text),
            ("mgr", dq_relation::Domain::Text),
        ],
    )));
    for d in (0..5u64).filter(|d| !(d + seed).is_multiple_of(4)) {
        dept.insert_values([
            Value::str(format!("d{d}")),
            Value::str(format!("m{}", (d * seed) % 3)),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    db.add_relation(inst);
    db.add_relation(dept);
    let keys = vec![KeySpec::new("emp", vec![0]), KeySpec::new("dept", vec![0])];
    (db, keys, constraints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The CQA rewriting returns exactly the certain answers of exhaustive
    /// repair enumeration, on a single-atom query and on the join
    /// `emp(n, d, g) ⋈ dept(d, m)`, whose child atom is certified by probing
    /// `dept`'s key index.  `dept` is key-clean, so repairing `emp` alone
    /// keeps the oracle exact.
    #[test]
    fn cqa_rewriting_interned_equals_naive_and_oracle(
        groups in 1usize..12,
        seed in 0u64..500,
    ) {
        let (db, keys, constraints) = cqa_database(groups, seed);
        let emp = || Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]);
        let dept = || Atom::new("dept", vec![Term::var("d"), Term::var("m")]);
        let queries = [
            ConjunctiveQuery::new(vec!["n", "d"], vec![emp()], vec![]),
            ConjunctiveQuery::new(vec!["n", "m"], vec![emp(), dept()], vec![]),
            ConjunctiveQuery::new(vec!["n"], vec![emp(), dept()], vec![]),
        ];
        for query in &queries {
            let fast = certain_answers_rewriting(&db, &keys, query).unwrap();
            let oracle = certain_answers_oracle(&db, "emp", &constraints, query).unwrap();
            prop_assert_eq!(&fast, &oracle, "{:?}", query);
        }
    }

    /// Engine-routed repair enumeration, checked against the naive
    /// `DenialConstraint::holds_on`: every listed repair is consistent and
    /// maximal (re-adding any dropped tuple violates a constraint), and on
    /// instances of at most 12 tuples the list is exactly the brute-force
    /// set of maximal consistent subsets.
    #[test]
    fn engine_enumeration_equals_naive(groups in 1usize..10, seed in 0u64..500) {
        let (db, _, constraints) = cqa_database(groups, seed);
        let dirty = db.relation("emp").unwrap();
        let ids: Vec<dq_relation::TupleId> = dirty.iter().map(|(id, _)| id).collect();
        let keep = |kept: &BTreeSet<dq_relation::TupleId>| -> RelationInstance {
            let mut sub = dirty.clone();
            for id in &ids {
                if !kept.contains(id) {
                    sub.remove(*id);
                }
            }
            sub
        };
        let consistent = |inst: &RelationInstance| constraints.iter().all(|c| c.holds_on(inst));
        let listed: BTreeSet<BTreeSet<dq_relation::TupleId>> = dq_repair::enumerate_repairs(
            dirty,
            &constraints,
        )
        .iter()
        .map(|r| r.iter().map(|(id, _)| id).collect())
        .collect();
        prop_assert!(!listed.is_empty());
        for kept in &listed {
            prop_assert!(consistent(&keep(kept)), "inconsistent repair {:?}", kept);
            for dropped in ids.iter().filter(|id| !kept.contains(id)) {
                let mut grown = kept.clone();
                grown.insert(*dropped);
                prop_assert!(
                    !consistent(&keep(&grown)),
                    "repair {:?} is not maximal: {:?} can be re-added",
                    kept,
                    dropped
                );
            }
        }
        if ids.len() <= 12 {
            let subsets: Vec<BTreeSet<dq_relation::TupleId>> = (0u32..1 << ids.len())
                .map(|mask| {
                    ids.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, id)| *id)
                        .collect::<BTreeSet<_>>()
                })
                .filter(|kept| consistent(&keep(kept)))
                .collect();
            let maximal: BTreeSet<BTreeSet<dq_relation::TupleId>> = subsets
                .iter()
                .filter(|kept| !subsets.iter().any(|other| kept.is_subset(other) && kept != &other))
                .cloned()
                .collect();
            prop_assert_eq!(listed, maximal);
        }
    }
}
