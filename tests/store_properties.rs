//! Property tests of the storage subsystem (`dq_relation::store`): the
//! dictionary encoding must preserve `Value`'s `Eq`/`Ord`/`Hash` semantics —
//! including `Null`, NaN and signed-zero `Real`s, and empty strings — and
//! the columnar/interned-index layers must reproduce the row-oriented
//! representation exactly.

use dataquality::prelude::*;
use dq_core::reference;
use dq_relation::store::FxBuildHasher;
use dq_relation::{InternedIndex, RelationInstance, TupleId, ValueInterner};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// A strategy over all `Value` variants, biased toward the edge cases the
/// interner must get right: `Null`, `NaN`, `±0.0`, infinities, empty and
/// colliding strings, boundary integers.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0usize..1).prop_map(|_| Value::Null),
        any::<bool>().prop_map(Value::bool),
        (-5i64..6).prop_map(Value::int),
        (0usize..1).prop_map(|_| Value::int(i64::MIN)),
        (0usize..1).prop_map(|_| Value::int(i64::MAX)),
        (-4i64..5).prop_map(|i| Value::real(i as f64 / 2.0)),
        (0usize..1).prop_map(|_| Value::real(f64::NAN)),
        (0usize..1).prop_map(|_| Value::real(0.0)),
        (0usize..1).prop_map(|_| Value::real(-0.0)),
        (0usize..1).prop_map(|_| Value::real(f64::INFINITY)),
        (0usize..1).prop_map(|_| Value::real(f64::NEG_INFINITY)),
        (0usize..1).prop_map(|_| Value::str("")),
        "[a-c]{1,3}".prop_map(Value::str),
    ]
}

/// Every value [`value_strategy`] can produce, as an explicit finite domain
/// so generated cells pass instance validation.
fn universe_domain() -> Domain {
    let mut out = vec![
        Value::Null,
        Value::bool(true),
        Value::bool(false),
        Value::int(i64::MIN),
        Value::int(i64::MAX),
        Value::real(f64::NAN),
        Value::real(0.0),
        Value::real(-0.0),
        Value::real(f64::INFINITY),
        Value::real(f64::NEG_INFINITY),
        Value::str(""),
    ];
    out.extend((-5i64..6).map(Value::int));
    out.extend((-4i64..5).map(|i| Value::real(i as f64 / 2.0)));
    for a in ["a", "b", "c"] {
        out.push(Value::str(a));
        for b in ["a", "b", "c"] {
            out.push(Value::str(format!("{a}{b}")));
            for c in ["a", "b", "c"] {
                out.push(Value::str(format!("{a}{b}{c}")));
            }
        }
    }
    Domain::Finite(out.into())
}

/// Everything a group walk sees of an index, independent of group numbering
/// and tombstones: `groups()` as resolved key → sorted tuple ids (keyed by
/// the key's debug rendering, for the reason given in
/// `columnar_and_interned_index_match_rows`), then `group_rows_iter()` and
/// `multi_group_rows()` as sorted tuple-id sets, and `group_count()`.
type IndexView = (
    BTreeMap<String, Vec<TupleId>>,
    Vec<Vec<TupleId>>,
    Vec<Vec<TupleId>>,
    usize,
);

fn index_view(idx: &InternedIndex) -> IndexView {
    let tuples = |rows: &[u32]| -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = rows.iter().map(|&r| idx.tuple_id(r)).collect();
        ids.sort();
        ids
    };
    let groups = idx
        .groups()
        .map(|(key, rows)| {
            let values: Vec<&Value> = key
                .iter()
                .zip(idx.columns())
                .map(|(&id, col)| col.interner().resolve(id))
                .collect();
            (format!("{values:?}"), tuples(rows))
        })
        .collect();
    let sorted = |runs: Vec<Vec<TupleId>>| {
        let mut runs = runs;
        runs.sort();
        runs
    };
    (
        groups,
        sorted(idx.group_rows_iter().map(tuples).collect()),
        sorted(idx.multi_group_rows().map(tuples).collect()),
        idx.group_count(),
    )
}

fn std_hash_of(v: &impl Hash) -> u64 {
    // The std SipHash builder with fixed keys would need unstable API; use a
    // deterministic hasher seeded identically for both operands instead.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// `resolve(intern(v))` gives back a value equal to `v` under `Eq`,
    /// `Ord` and `Hash` — for every variant, including `Null`, NaN, `-0.0`
    /// and the empty string.
    #[test]
    fn intern_resolve_round_trips(values in proptest::collection::vec(value_strategy(), 1..40)) {
        let mut interner = ValueInterner::new();
        let ids: Vec<_> = values.iter().map(|v| interner.intern(v)).collect();
        for (v, &id) in values.iter().zip(&ids) {
            let resolved = interner.resolve(id);
            prop_assert!(resolved == v, "Eq broken for {v:?}");
            prop_assert_eq!(resolved.cmp(v), std::cmp::Ordering::Equal, "Ord broken for {:?}", v);
            prop_assert_eq!(std_hash_of(resolved), std_hash_of(v), "Hash broken for {:?}", v);
            prop_assert_eq!(
                FxBuildHasher::default().hash_one(resolved),
                FxBuildHasher::default().hash_one(v),
                "Fx hash broken for {:?}", v
            );
            prop_assert_eq!(interner.lookup(v), Some(id));
        }
    }

    /// Ids agree exactly when values are equal, and `cmp_ids` reproduces the
    /// value order — so sorting by interned comparison equals sorting values.
    #[test]
    fn ids_preserve_equality_and_order(values in proptest::collection::vec(value_strategy(), 2..40)) {
        let mut interner = ValueInterner::new();
        let ids: Vec<_> = values.iter().map(|v| interner.intern(v)).collect();
        for (a, &ia) in values.iter().zip(&ids) {
            for (b, &ib) in values.iter().zip(&ids) {
                prop_assert_eq!((a == b), (ia == ib), "{:?} vs {:?}", a, b);
                prop_assert_eq!(interner.cmp_ids(ia, ib), a.cmp(b), "{:?} vs {:?}", a, b);
            }
        }
    }

    /// The columnar snapshot reproduces every cell of the instance, and the
    /// interned index over any attribute list groups exactly like the
    /// value-keyed `HashIndex` — the foundation of report byte-identity.
    #[test]
    fn columnar_and_interned_index_match_rows(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 1..60),
        threads in 1usize..5,
    ) {
        let schema =
            RelationSchema::new("r", [("A", universe_domain()), ("B", universe_domain())]);
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b) in &cells {
            inst.insert_values([a.clone(), b.clone()])
                .expect("universe domain admits all generated values");
        }
        let store = inst.columnar();
        // Cell round-trip through the columns.
        for attr in 0..2 {
            let col = store.column(&inst, attr);
            for (row, &id) in store.rows().iter().enumerate() {
                prop_assert!(
                    col.interner().resolve(col.id_at(row)) == inst.tuple(id).unwrap().get(attr)
                );
            }
        }
        // Grouping equivalence on every attribute list, with a shard size
        // small enough to force the multi-shard merge path.  Canonical maps
        // are keyed by the debug rendering: `Value`'s mixed-numeric `Ord`
        // deliberately compares `Int(0)` and `Real(0.0)` as equal (denial
        // constraints order across numeric types) while `Eq` distinguishes
        // them, so `Vec<Value>` is not a usable `BTreeMap` key here.
        for attrs in [&[0usize][..], &[1], &[0, 1]] {
            let interned = InternedIndex::build_with_shard_rows(&inst, &store, attrs, threads, 7);
            let baseline = dq_relation::reference::HashIndex::build(&inst, attrs);
            let from_interned: BTreeMap<String, Vec<TupleId>> = interned
                .groups()
                .map(|(ids, rows)| {
                    let key: Vec<&Value> = ids
                        .iter()
                        .zip(interned.columns())
                        .map(|(&id, col)| col.interner().resolve(id))
                        .collect();
                    (
                        format!("{key:?}"),
                        rows.iter().map(|&r| interned.tuple_id(r)).collect(),
                    )
                })
                .collect();
            let from_baseline: BTreeMap<String, Vec<TupleId>> = baseline
                .groups()
                .map(|(k, g)| (format!("{:?}", k.iter().collect::<Vec<_>>()), g.clone()))
                .collect();
            prop_assert_eq!(&from_interned, &from_baseline, "attrs {:?}", attrs);
            prop_assert_eq!(from_interned.len(), interned.group_count(), "debug keys must be distinct");
        }
    }

    /// Append-only growth extends snapshots, pooled interned indexes and
    /// pooled distinct-projection sets in place; the extended structures
    /// must be indistinguishable from from-scratch builds on every cell,
    /// group and probe — arbitrary mixed-type appends included (which may
    /// grow the column dictionaries past their mixed-radix u64 packing,
    /// exercising the repack-aware extension).
    #[test]
    fn append_extension_matches_fresh_builds(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 1..40),
        appended in proptest::collection::vec((value_strategy(), value_strategy()), 1..25),
    ) {
        let schema =
            RelationSchema::new("r", [("A", universe_domain()), ("B", universe_domain())]);
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b) in &cells {
            inst.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let pool = IndexPool::new();
        let prev_store = inst.columnar();
        prev_store.column(&inst, 0);
        for attrs in [&[0usize][..], &[1], &[0, 1]] {
            pool.interned_for(&inst, attrs, 1);
        }
        for (a, b) in &appended {
            inst.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        prop_assert!(inst.delta_since(prev_store.version()).is_some_and(|d| d.is_empty()));
        // The memoized snapshot takes the patch path with an empty delta
        // (same data as a fresh build).
        let extended = inst.columnar();
        let fresh = dq_relation::ColumnarStore::new(&inst);
        prop_assert_eq!(extended.rows(), fresh.rows());
        for attr in 0..2 {
            let e = extended.column(&inst, attr);
            for (row, &id) in extended.rows().iter().enumerate() {
                prop_assert!(
                    e.interner().resolve(e.id_at(row)) == inst.tuple(id).unwrap().get(attr),
                    "attr {} row {}", attr, row
                );
            }
        }
        // Pool misses re-key only the appended rows (re-packing the key
        // space when a dictionary outgrew its radix); either way the groups
        // equal the value-keyed baseline.
        for attrs in [&[0usize][..], &[1], &[0, 1]] {
            let idx = pool.interned_for(&inst, attrs, 1);
            let baseline = dq_relation::reference::HashIndex::build(&inst, attrs);
            prop_assert_eq!(idx.group_count(), baseline.len(), "attrs {:?}", attrs);
            for (key, group) in baseline.groups() {
                let ids: Vec<TupleId> =
                    idx.rows_for_values(key).iter().map(|&r| idx.tuple_id(r)).collect();
                prop_assert_eq!(&ids, group, "attrs {:?}", attrs);
            }
            // The distinct-projection artifact answers exactly like the
            // Eq-keyed index after the same growth.  (`project_distinct`'s
            // `BTreeSet` dedups by `Value`'s mixed-numeric `Ord`, which
            // diverges from `Eq` on NaN and `Int`-vs-`Real` ties — the
            // documented profile subtlety — so the hash index is the
            // correct reference here.)
            let set = pool.distinct_for(&inst, attrs, 1);
            prop_assert_eq!(set.len(), baseline.len(), "attrs {:?}", attrs);
            for (key, _) in baseline.groups() {
                prop_assert!(set.contains_values(key), "attrs {:?}", attrs);
            }
        }
    }

    /// Journaled cell edits, appends and removals patch snapshots, pooled
    /// interned indexes, pooled distinct-projection sets and maintained CFD
    /// reports in place; under arbitrary mixed streams the upgraded
    /// structures must stay indistinguishable from cold rebuilds on every
    /// cell, group and probe, and the reports equal to
    /// `dq_core::reference`.  No pool miss after the first builds may be a
    /// rebuild.  Removals hit the head, the middle and the tail, and cover
    /// tuples appended or edited earlier — in an earlier step or inside the
    /// same gap.
    #[test]
    fn mixed_mutation_streams_match_fresh_builds(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 2..30),
        ops in proptest::collection::vec(
            (0usize..8, 0usize..1_000_000, value_strategy(), value_strategy()),
            1..20,
        ),
    ) {
        use dq_relation::instance::CellRef;
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("A", universe_domain()), ("B", universe_domain())],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (a, b) in &cells {
            inst.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let cfds = vec![
            Cfd::new(&schema, &["A"], &["B"], vec![PatternTuple::all_wildcards(1, 1)])
                .expect("valid CFD"),
            Cfd::new(
                &schema,
                &["B"],
                &["A"],
                vec![PatternTuple::new(vec![cst(Value::str("a"))], vec![cst(Value::int(1))])],
            )
            .expect("valid CFD"),
        ];
        let engine = DetectionEngine::new();
        let mut maintained = engine.maintain_cfd_violations(&inst, &cfds, None);
        let engine_built = engine.pool_stats();
        let pool = IndexPool::new();
        let attr_sets: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        for attrs in attr_sets {
            pool.interned_for(&inst, attrs, 1);
            pool.distinct_for(&inst, attrs, 1);
        }
        let built = pool.stats();
        for &(kind, pick, ref va, ref vb) in &ops {
            // On some steps the previous step's artifacts stay held across
            // the write, so the pool's patch must clone them rather than
            // take them over — and leave them answering as they did.
            let held: Vec<_> = if pick % 3 == 0 {
                attr_sets
                    .iter()
                    .map(|&attrs| {
                        let idx = pool.interned_for(&inst, attrs, 1);
                        let set = pool.distinct_for(&inst, attrs, 1);
                        let view = (index_view(&idx), set.len());
                        (idx, set, view)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let ids = inst.ids();
            let picked = ids[pick % ids.len()];
            let removable = ids.len() > 1;
            match kind {
                0 | 1 => {
                    inst.update_cell(CellRef::new(picked, kind), va.clone())
                        .expect("universe domain");
                }
                2 => {
                    inst.insert_values([va.clone(), vb.clone()]).expect("universe domain");
                }
                3 if removable => {
                    inst.remove(picked);
                }
                4 if removable => {
                    inst.remove(ids[0]);
                }
                5 if removable => {
                    inst.remove(*ids.last().expect("non-empty"));
                }
                6 if removable => {
                    inst.update_cell(CellRef::new(picked, pick % 2), vb.clone())
                        .expect("universe domain");
                    inst.remove(picked);
                }
                7 => {
                    let id = inst.insert_values([va.clone(), vb.clone()]).expect("universe domain");
                    inst.update_cell(CellRef::new(id, 0), vb.clone()).expect("universe domain");
                    inst.remove(id);
                }
                _ => {}
            }
            // After every step: the memoized snapshot (patched over the
            // step's delta) reproduces each cell, and the pooled artifacts
            // answer exactly like value-keyed cold builds.
            let store = inst.columnar();
            let fresh = dq_relation::ColumnarStore::new(&inst);
            prop_assert_eq!(store.rows(), fresh.rows());
            for attr in 0..2 {
                let col = store.column(&inst, attr);
                for (row, &id) in store.rows().iter().enumerate() {
                    prop_assert!(
                        col.interner().resolve(col.id_at(row)) == inst.tuple(id).unwrap().get(attr),
                        "attr {} row {}", attr, row
                    );
                }
            }
            for attrs in attr_sets {
                let idx = pool.interned_for(&inst, attrs, 1);
                let baseline = dq_relation::reference::HashIndex::build(&inst, attrs);
                prop_assert_eq!(idx.group_count(), baseline.len(), "attrs {:?}", attrs);
                for (key, group) in baseline.groups() {
                    let ids: Vec<TupleId> =
                        idx.rows_for_values(key).iter().map(|&r| idx.tuple_id(r)).collect();
                    prop_assert_eq!(&ids, group, "attrs {:?}", attrs);
                }
                // Vacated groups the patch keeps as tombstones are invisible
                // to every group walk.
                let cold = InternedIndex::build(&inst, &store, attrs, 1);
                prop_assert_eq!(index_view(&idx), index_view(&cold), "attrs {:?}", attrs);
                let set = pool.distinct_for(&inst, attrs, 1);
                prop_assert_eq!(set.len(), baseline.len(), "attrs {:?}", attrs);
                for (key, _) in baseline.groups() {
                    prop_assert!(set.contains_values(key), "attrs {:?}", attrs);
                }
            }
            for (idx, set, view) in &held {
                prop_assert_eq!(&(index_view(idx), set.len()), view, "held artifacts are unchanged");
            }
            let stats = pool.stats();
            prop_assert_eq!(
                stats.misses - built.misses,
                stats.appends + stats.patches,
                "every miss after the first builds was an upgrade"
            );
            maintained = engine.maintain_cfd_violations(&inst, &cfds, Some(&maintained));
            prop_assert_eq!(maintained.report(), &reference::detect_cfd_violations(&inst, &cfds));
            let stats = engine.pool_stats();
            prop_assert_eq!(
                stats.misses - engine_built.misses,
                (stats.appends - engine_built.appends) + (stats.patches - engine_built.patches),
                "the engine's pool never rebuilt either"
            );
        }
    }

    /// Canonicalized instances detect identically to plainly built ones: the
    /// dictionary compression of `dq-gen` cannot change any report.
    #[test]
    fn canonicalized_instances_detect_identically(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 1..50),
    ) {
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("A", universe_domain()), ("B", universe_domain())],
        ));
        let mut plain = RelationInstance::new(Arc::clone(&schema));
        let mut canonical = RelationInstance::new(Arc::clone(&schema));
        let mut pool = ValueInterner::new();
        for (a, b) in &cells {
            plain.insert_values([a.clone(), b.clone()]).unwrap();
            canonical
                .insert_values([pool.canonical(a.clone()), pool.canonical(b.clone())])
                .unwrap();
        }
        prop_assert!(plain.same_tuples_as(&canonical));
        let fd = Fd::from_indices(&schema, vec![0], vec![1]);
        let cfd = Cfd::from_fd(&fd);
        let engine = DetectionEngine::new();
        prop_assert_eq!(
            engine.detect_cfd_violations(&canonical, std::slice::from_ref(&cfd)),
            reference::detect_cfd_violations(&plain, std::slice::from_ref(&cfd))
        );
    }
}

/// A dictionary-growing append must still take the pool's extension fast
/// path: the mixed-radix u64 packing is re-packed under the widened radices
/// instead of falling back to a full rebuild.  Regression test for the
/// `appends` counter staying flat when an appended row carries brand-new
/// values on the key columns.
#[test]
fn dictionary_growing_append_still_extends_pooled_structures() {
    let schema = RelationSchema::new("r", [("A", Domain::Int), ("B", Domain::Text)]);
    let mut inst = RelationInstance::from_schema(schema);
    for i in 0..30i64 {
        inst.insert_values([Value::int(i % 5), Value::str(format!("s{}", i % 4))])
            .unwrap();
    }
    let pool = IndexPool::new();
    pool.interned_for(&inst, &[0, 1], 1);
    pool.distinct_for(&inst, &[0, 1], 1);
    assert_eq!(pool.stats().appends, 0);
    // Brand-new values on both key columns grow both dictionaries, which
    // used to force a full rebuild of the u64 radix-packed structures.
    let unseen = [Value::int(999), Value::str("unseen")];
    inst.insert_values(unseen.clone()).unwrap();
    let idx = pool.interned_for(&inst, &[0, 1], 1);
    let set = pool.distinct_for(&inst, &[0, 1], 1);
    assert_eq!(
        pool.stats().appends,
        2,
        "a dictionary-growing append must re-pack and extend, not rebuild"
    );
    // Correctness after the repack: groups equal the value-keyed baseline
    // and the new key is probeable in both structures.
    let baseline = dq_relation::reference::HashIndex::build(&inst, &[0, 1]);
    assert_eq!(idx.group_count(), baseline.len());
    for (key, group) in baseline.groups() {
        let ids: Vec<TupleId> = idx
            .rows_for_values(key)
            .iter()
            .map(|&r| idx.tuple_id(r))
            .collect();
        assert_eq!(&ids, group);
    }
    assert!(set.contains_values(&unseen));
    assert_eq!(set.len(), inst.project_distinct(&[0, 1]).len());
}
