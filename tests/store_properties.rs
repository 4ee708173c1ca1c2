//! Property tests of the storage subsystem (`dq_relation::store`): the
//! dictionary encoding must preserve `Value`'s `Eq`/`Ord`/`Hash` semantics —
//! including `Null`, NaN and signed-zero `Real`s, and empty strings — and
//! the columnar/interned-index layers must reproduce the row-oriented
//! representation exactly.

use dataquality::prelude::*;
use dq_core::reference;
use dq_relation::store::{FxBuildHasher, CHUNK_ROWS};
use dq_relation::{
    ColumnarStore, InternedIndex, RelationInstance, TupleId, ValueId, ValueInterner,
};
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

/// The attribute lists the clone-history checks request from the pool.
const ATTR_SETS: [&[usize]; 3] = [&[0], &[1], &[0, 1]];

/// The two-attribute schema of the mutation-stream properties.
fn universe_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "r",
        [("A", universe_domain()), ("B", universe_domain())],
    ))
}

/// A variable and a constant CFD over [`universe_schema`].
fn universe_cfds(schema: &Arc<RelationSchema>) -> Vec<Cfd> {
    vec![
        Cfd::new(
            schema,
            &["A"],
            &["B"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .expect("valid CFD"),
        Cfd::new(
            schema,
            &["B"],
            &["A"],
            vec![PatternTuple::new(
                vec![cst(Value::str("a"))],
                vec![cst(Value::int(1))],
            )],
        )
        .expect("valid CFD"),
    ]
}

/// Holds one instance's warm structures to fresh builds: every cell of its
/// memoized snapshot, the engine pool's interned indexes and distinct sets
/// on [`ATTR_SETS`] against builds over a cold snapshot, and the engine's
/// CFD report against `dq_core::reference`.
fn check_against_fresh_builds(
    inst: &RelationInstance,
    engine: &DetectionEngine,
    cfds: &[Cfd],
) -> Result<(), TestCaseError> {
    let store = inst.columnar();
    let fresh = Arc::new(dq_relation::ColumnarStore::new(inst));
    prop_assert_eq!(
        store.rows().collect::<Vec<_>>(),
        fresh.rows().collect::<Vec<_>>()
    );
    for attr in 0..2 {
        let col = store.column(inst, attr);
        for (row, id) in store.rows().enumerate() {
            prop_assert!(
                col.interner().resolve(col.id_at(row)) == inst.tuple(id).unwrap().get(attr),
                "attr {} row {}",
                attr,
                row
            );
        }
    }
    for attrs in ATTR_SETS {
        let idx = engine.pool().interned_for(inst, attrs, 1);
        let cold = InternedIndex::build(inst, &fresh, attrs, 1);
        prop_assert_eq!(index_view(&idx), index_view(&cold), "attrs {:?}", attrs);
        let set = engine.pool().distinct_for(inst, attrs, 1);
        let cold = dq_relation::DistinctSet::build(inst, &fresh, attrs, 1);
        prop_assert_eq!(set.len(), cold.len(), "attrs {:?}", attrs);
        for (key, _) in dq_relation::reference::HashIndex::build(inst, attrs).groups() {
            prop_assert!(set.contains_values(key), "attrs {:?}", attrs);
        }
    }
    prop_assert_eq!(
        engine.detect_cfd_violations(inst, cfds),
        reference::detect_cfd_violations(inst, cfds)
    );
    Ok(())
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
            for (row, id) in store.rows().enumerate() {
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
        prop_assert_eq!(extended.rows().collect::<Vec<_>>(), fresh.rows().collect::<Vec<_>>());
        for attr in 0..2 {
            let e = extended.column(&inst, attr);
            for (row, id) in extended.rows().enumerate() {
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
        let schema = universe_schema();
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (a, b) in &cells {
            inst.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let cfds = universe_cfds(&schema);
        let engine = DetectionEngine::new();
        let mut maintained = engine.maintain_cfd_violations(&inst, &cfds, None);
        let engine_built = engine.pool_stats();
        let pool = IndexPool::new();
        let attr_sets = ATTR_SETS;
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
            prop_assert_eq!(store.rows().collect::<Vec<_>>(), fresh.rows().collect::<Vec<_>>());
            for attr in 0..2 {
                let col = store.column(&inst, attr);
                for (row, id) in store.rows().enumerate() {
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

    /// Clones start warm, from their original's snapshot and pooled
    /// artifacts, yet every side of a clone history stays its own: under
    /// mixed insert/edit/remove streams with clones taken mid-stream — of
    /// an unchanged clone, of a clone that has written, and while the
    /// original's snapshot is stale or absent — and writes continuing on
    /// every side over one shared pool, each side's snapshot, pooled
    /// indexes, distinct sets and CFD report equal fresh builds after every
    /// step.  A clone taken over a current snapshot is served its
    /// original's artifacts.
    #[test]
    fn clone_histories_match_fresh_builds(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 2..24),
        ops in proptest::collection::vec(
            (0usize..10, 0usize..1_000_000, value_strategy(), value_strategy()),
            1..24,
        ),
    ) {
        use dq_relation::instance::CellRef;
        const MAX_SIDES: usize = 5;
        let schema = universe_schema();
        let cfds = universe_cfds(&schema);
        let mut first = RelationInstance::new(Arc::clone(&schema));
        for (a, b) in &cells {
            first.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let engine = DetectionEngine::with_threads(1);
        check_against_fresh_builds(&first, &engine, &cfds)?;
        let mut sides = vec![first];
        for &(kind, pick, ref va, ref vb) in &ops {
            let count = sides.len();
            let side = &mut sides[pick % count];
            let ids = side.ids();
            let picked = ids[pick % ids.len()];
            // Every side's own entries are current, and a clone of an
            // unwritten clone borrows them even after the first origin has
            // moved on.
            let warm_clone = matches!(kind, 5 | 6);
            let mut clones = Vec::new();
            match kind {
                0 | 1 => {
                    side.update_cell(CellRef::new(picked, kind), va.clone())
                        .expect("universe domain");
                }
                2 => {
                    side.insert_values([va.clone(), vb.clone()]).expect("universe domain");
                }
                3 | 4 if ids.len() > 1 => {
                    side.remove(picked);
                }
                // A clone over a current snapshot.
                5 => clones.push(side.clone()),
                // A clone of an unchanged clone.
                6 => {
                    let clone = side.clone();
                    clones.push(clone.clone());
                    clones.push(clone);
                }
                // A clone taken while the original's snapshot is stale.
                7 => {
                    side.update_cell(CellRef::new(picked, 1), vb.clone())
                        .expect("universe domain");
                    clones.push(side.clone());
                }
                // A clone of a clone that has written (and re-snapshotted).
                8 => {
                    let mut clone = side.clone();
                    clone.update_cell(CellRef::new(picked, 0), va.clone())
                        .expect("universe domain");
                    clone.columnar();
                    let grandchild = clone.clone();
                    clones.push(clone);
                    clones.push(grandchild);
                }
                // A clone taken while the original has no snapshot at all;
                // the original is checked first, so its entries are there
                // when the clone asks, over dictionaries the clone lacks.
                9 => {
                    let mut base = RelationInstance::new(Arc::clone(&schema));
                    for tuple in side.tuples() {
                        base.insert(tuple).expect("same schema");
                    }
                    let clone = base.clone();
                    clones.push(base);
                    clones.push(clone);
                }
                _ => {}
            }
            sides.extend(clones);
            let dropped: Vec<RelationInstance> =
                sides.drain(..sides.len().saturating_sub(MAX_SIDES)).collect();
            let before = engine.pool_stats();
            for side in &sides {
                check_against_fresh_builds(side, &engine, &cfds)?;
            }
            if warm_clone {
                prop_assert!(
                    engine.pool_stats().donor_hits > before.donor_hits,
                    "an unwritten clone over a current snapshot is served from its origin"
                );
            }
            // Dropped sides leave the pool only now: their entries may have
            // been a new clone's donors.
            for side in &dropped {
                engine.pool().invalidate(side);
            }
        }
    }

    /// Columns are built lazily, so a side may build a column only after a
    /// clone was taken from it, and a clone may build one only after it
    /// wrote.  With no column built up front — sides snapshot, build single
    /// columns and ask the shared pool for single attribute lists in any
    /// order between writes and clones — every pooled index and distinct
    /// set still equals a build over a fresh snapshot.
    #[test]
    fn lazily_built_columns_never_mix_across_clones(
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 2..16),
        ops in proptest::collection::vec(
            (0usize..9, 0usize..1_000_000, 0usize..3, value_strategy()),
            1..40,
        ),
    ) {
        use dq_relation::instance::CellRef;
        const MAX_SIDES: usize = 4;
        let schema = universe_schema();
        let mut first = RelationInstance::new(Arc::clone(&schema));
        for (a, b) in &cells {
            first.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let pool = IndexPool::new();
        let mut sides = vec![first];
        for &(kind, pick, which, ref value) in &ops {
            let count = sides.len();
            let side = &mut sides[pick % count];
            let ids = side.ids();
            let picked = ids[pick % ids.len()];
            let attr = which % 2;
            match kind {
                0 | 1 => {
                    side.update_cell(CellRef::new(picked, attr), value.clone())
                        .expect("universe domain");
                }
                2 if ids.len() > 1 => {
                    side.remove(picked);
                }
                2 | 3 => {
                    side.insert_values([value.clone(), value.clone()]).expect("universe domain");
                }
                4 => {
                    let clone = side.clone();
                    sides.push(clone);
                }
                5 => {
                    side.columnar();
                }
                6 => {
                    side.columnar().column(side, attr);
                }
                _ => {
                    let attrs = ATTR_SETS[which];
                    let fresh = Arc::new(dq_relation::ColumnarStore::new(side));
                    let idx = pool.interned_for(side, attrs, 1);
                    let cold = InternedIndex::build(side, &fresh, attrs, 1);
                    prop_assert_eq!(index_view(&idx), index_view(&cold), "attrs {:?}", attrs);
                    let set = pool.distinct_for(side, attrs, 1);
                    prop_assert_eq!(set.len(), side.project_distinct(attrs).len());
                    for (key, _) in dq_relation::reference::HashIndex::build(side, attrs).groups() {
                        prop_assert!(set.contains_values(key), "attrs {:?}", attrs);
                    }
                }
            }
            if sides.len() > MAX_SIDES {
                let dropped = sides.remove(0);
                pool.invalidate(&dropped);
            }
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

/// What a snapshot answers: its rows, the row of every slot below `slots`,
/// and the id of every cell of both [`universe_schema`] columns.
type SnapshotAnswers = (Vec<TupleId>, Vec<Option<usize>>, Vec<Vec<ValueId>>);

fn snapshot_answers(store: &ColumnarStore, slots: usize) -> SnapshotAnswers {
    let columns = (0..2)
        .map(|attr| {
            let col = store.built_column(attr).expect("both columns built");
            (0..col.len()).map(|row| col.id_at(row)).collect()
        })
        .collect();
    (
        store.rows().collect(),
        (0..slots).map(|slot| store.row_of(TupleId(slot))).collect(),
        columns,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshots that span several copy-on-write chunks patch like fresh
    /// builds.  Instances hold two full chunks plus a remainder, and rounds
    /// mix edits, appends and removals, aimed at the last row of a chunk
    /// and the first row of the next one (`k·CHUNK_ROWS − 1` and
    /// `k·CHUNK_ROWS`) or anywhere.  After every round the patched snapshot
    /// answers every cell, `row_of`, `tuple_id` and `shard_ids` query like a
    /// fresh build; the snapshot held from before the round answers exactly
    /// as it did; and every chunk of the rows, the row index and each
    /// column that no write of the round reached is the same `Arc` as its
    /// predecessor's.
    #[test]
    fn chunked_snapshots_patch_like_fresh_builds_across_chunk_boundaries(
        remainder in 1usize..CHUNK_ROWS,
        cells in proptest::collection::vec((value_strategy(), value_strategy()), 1..12),
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..7, 0usize..1_000_000, value_strategy()), 1..4),
            1..8,
        ),
    ) {
        use dq_relation::instance::CellRef;
        let mut inst = RelationInstance::new(universe_schema());
        for i in 0..2 * CHUNK_ROWS + remainder {
            let (a, b) = &cells[i % cells.len()];
            inst.insert_values([a.clone(), b.clone()]).expect("universe domain");
        }
        let store = inst.columnar();
        store.column(&inst, 0);
        store.column(&inst, 1);
        for round in &rounds {
            let prev = inst.columnar();
            let slots = prev.tuple_id(prev.len() - 1).0 + 1 + round.len();
            let before = snapshot_answers(&prev, slots);
            for &(kind, pick, ref value) in round {
                let ids = inst.ids();
                let k = 1 + pick % (ids.len() / CHUNK_ROWS).max(1);
                let boundary = ids[(k * CHUNK_ROWS - (pick / 7) % 2).min(ids.len() - 1)];
                let anywhere = ids[pick % ids.len()];
                let removable = ids.len() > 1;
                match kind {
                    0 | 1 => {
                        inst.update_cell(CellRef::new(boundary, kind), value.clone())
                            .expect("universe domain");
                    }
                    2 if removable => {
                        inst.remove(boundary);
                    }
                    3 => {
                        inst.insert_values([value.clone(), value.clone()]).expect("universe domain");
                    }
                    4 => {
                        inst.update_cell(CellRef::new(anywhere, pick % 2), value.clone())
                            .expect("universe domain");
                    }
                    5 if removable => {
                        inst.remove(anywhere);
                    }
                    _ => {}
                }
            }
            let delta = inst.delta_since(prev.version()).expect("the journal covers a round");
            let next = inst.columnar();
            let fresh = ColumnarStore::new(&inst);
            prop_assert_eq!(next.rows().collect::<Vec<_>>(), fresh.rows().collect::<Vec<_>>());
            for row in 0..next.len() {
                prop_assert_eq!(next.tuple_id(row), fresh.tuple_id(row));
            }
            for slot in 0..slots {
                prop_assert_eq!(next.row_of(TupleId(slot)), fresh.row_of(TupleId(slot)));
            }
            let len = next.len();
            let ranges = [
                0..len,
                (CHUNK_ROWS - 1).min(len)..(CHUNK_ROWS + 1).min(len),
                (CHUNK_ROWS / 2).min(len)..(2 * CHUNK_ROWS + 3).min(len),
            ];
            for attr in 0..2 {
                let (p, f) = (next.column(&inst, attr), fresh.column(&inst, attr));
                for row in 0..len {
                    prop_assert!(
                        p.interner().resolve(p.id_at(row)) == f.interner().resolve(f.id_at(row)),
                        "attr {} row {}", attr, row
                    );
                }
                for range in ranges.iter().cloned() {
                    let slices = p.shard_ids(range.clone());
                    prop_assert!(slices.iter().all(|s| s.len() <= CHUNK_ROWS));
                    let ids: Vec<ValueId> = slices.concat();
                    let by_row: Vec<ValueId> = range.map(|row| p.id_at(row)).collect();
                    prop_assert_eq!(ids, by_row, "attr {}", attr);
                }
            }
            prop_assert!(snapshot_answers(&prev, slots) == before, "the held snapshot moved");
            // Chunks no write reached: every full chunk before the first
            // removed row (slot), and of those, a column's chunks that no
            // changed cell of its attribute falls in.
            let first_removed = delta.removed.iter().filter_map(|&id| prev.row_of(id)).min();
            let kept_rows = first_removed.unwrap_or(prev.len()) / CHUNK_ROWS;
            let kept_slots = match first_removed {
                Some(row) => prev.tuple_id(row).0,
                None => prev.tuple_id(prev.len() - 1).0 + 1,
            } / CHUNK_ROWS;
            for c in 0..kept_rows {
                prop_assert!(Arc::ptr_eq(next.row_chunk(c), prev.row_chunk(c)), "row chunk {}", c);
            }
            for c in 0..kept_slots {
                prop_assert!(Arc::ptr_eq(next.slot_chunk(c), prev.slot_chunk(c)), "slot chunk {}", c);
            }
            for attr in 0..2 {
                let (p, old) = (next.column(&inst, attr), prev.column(&inst, attr));
                let written: Vec<usize> = delta
                    .changes
                    .iter()
                    .filter(|c| c.cell.attr == attr)
                    .filter_map(|c| next.row_of(c.cell.tuple))
                    .map(|row| row / CHUNK_ROWS)
                    .collect();
                for c in (0..kept_rows).filter(|c| !written.contains(c)) {
                    prop_assert!(
                        Arc::ptr_eq(p.id_chunk(c).unwrap(), old.id_chunk(c).unwrap()),
                        "attr {} chunk {}", attr, c
                    );
                }
            }
        }
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

/// The clone paths' fallbacks rebuild correctly.  A clone whose journal
/// overflows no longer reaches back to version 0, so neither its inherited
/// snapshot nor its origin's artifacts can be patched.  A clone whose
/// origin was mutated and re-detected before the clone asked finds no
/// donor any more.  Both rebuild cold, and their structures and reports
/// still equal fresh builds.
#[test]
fn clone_fallbacks_rebuild_correctly() {
    use dq_relation::instance::CellRef;
    let schema = universe_schema();
    let cfds = universe_cfds(&schema);
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    for i in 0..20i64 {
        inst.insert_values([
            Value::int(i % 5),
            Value::str(["a", "b", "c"][i as usize % 3]),
        ])
        .unwrap();
    }
    let engine = DetectionEngine::with_threads(1);
    let check = |inst: &RelationInstance| {
        check_against_fresh_builds(inst, &engine, &cfds).expect("equals fresh builds")
    };
    check(&inst);

    // Journal overflow: 4,100 real writes on a clone.
    let mut overflowed = inst.clone();
    let ids = overflowed.ids();
    for i in 0..4_100usize {
        // Each cell's next value differs from its last: a real write.
        let value = Value::int((i % 2) as i64 + 2 * (i % 3) as i64 - 3);
        overflowed
            .update_cell(CellRef::new(ids[i % ids.len()], 0), value)
            .unwrap();
    }
    assert!(!overflowed.delta_covers(0), "the journal overflowed");
    let before = engine.pool_stats();
    check(&overflowed);
    let after = engine.pool_stats();
    assert_eq!(after.donor_hits, before.donor_hits);
    assert_eq!(after.donor_patches, before.donor_patches);

    // Evicted donor: the origin moves on before the clone asks.
    let mut late = inst.clone();
    inst.update_cell(CellRef::new(ids[0], 1), Value::str("ab"))
        .unwrap();
    check(&inst);
    late.update_cell(CellRef::new(ids[1], 1), Value::str("ba"))
        .unwrap();
    let before = engine.pool_stats();
    check(&late);
    let after = engine.pool_stats();
    assert_eq!(
        after.donor_patches, before.donor_patches,
        "no donor is left"
    );
    assert!(after.misses > before.misses);
    assert_eq!(
        (after.appends, after.patches),
        (before.appends, before.patches),
        "the clone's artifacts were rebuilt"
    );
}

/// Values for the dictionary-oracle property: the edge cases of
/// [`value_strategy`] plus `Int(1)` against `Real(1.0)`, `"7"` against
/// `7`, and long strings.
fn dictionary_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        value_strategy(),
        (0usize..1).prop_map(|_| Value::str("7")),
        (0usize..1).prop_map(|_| Value::int(7)),
        (0usize..1).prop_map(|_| Value::real(1.0)),
        (0usize..1).prop_map(|_| Value::int(1)),
        "[a-z]{40,90}".prop_map(Value::str),
    ]
}

/// The production dictionary agrees with the map-backed oracle on every
/// query.
fn assert_dictionaries_agree(
    dict: &ValueInterner,
    oracle: &dq_relation::reference::MapInterner,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dict.len(), oracle.len());
    prop_assert_eq!(dict.frozen_len(), oracle.frozen_len());
    prop_assert!(dict.values() == oracle.values());
    prop_assert!(dict.overlay() == oracle.overlay());
    prop_assert_eq!(
        dict.approx_heap_bytes() - dict.index_heap_bytes(),
        oracle.approx_heap_bytes() - oracle.index_heap_bytes(),
        "values and string payloads"
    );
    for (i, v) in dict.values().iter().enumerate() {
        let id = ValueId(i as u32);
        prop_assert_eq!(dict.lookup(v), Some(id));
        prop_assert_eq!(oracle.lookup(v), Some(id));
        prop_assert!(dict.resolve(id) == oracle.resolve(id));
    }
    let ids: Vec<ValueId> = (0..dict.len().min(12)).map(|i| ValueId(i as u32)).collect();
    for &a in &ids {
        for &b in &ids {
            prop_assert_eq!(dict.cmp_ids(a, b), oracle.cmp_ids(a, b));
        }
    }
    Ok(())
}

/// Multi-row groups as sorted row runs.
fn sorted_groups(groups: &dq_relation::RowGroups) -> Vec<Vec<u32>> {
    let mut runs: Vec<Vec<u32>> = groups.iter().map(<[u32]>::to_vec).collect();
    runs.sort();
    runs
}

/// Every attribute list of up to three of `arity` attributes, and `[]`.
fn attr_lists(arity: usize) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for a in 0..arity {
        out.push(vec![a]);
        for b in a + 1..arity {
            out.push(vec![a, b]);
            for c in b + 1..arity {
                out.push(vec![a, b, c]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random value streams with clone, seal, fold and `mark_frozen` steps
    /// mixed in: `intern`, `intern_str`, `lookup`, `resolve`, `cmp_ids`,
    /// `values()`, `overlay()` and the value bytes of `approx_heap_bytes`
    /// agree with the map-backed oracle after every step, and a clone
    /// taken along the way still agrees with its oracle twin at the end.
    #[test]
    fn id_table_dictionary_agrees_with_the_map_oracle(
        steps in proptest::collection::vec(
            (0usize..9, dictionary_value_strategy(), "[a-c7]{0,3}", 0usize..150),
            1..30,
        ),
    ) {
        use dq_relation::reference::MapInterner;
        let mut dict = ValueInterner::new();
        let mut oracle = MapInterner::new();
        let mut clones: Vec<(ValueInterner, MapInterner)> = Vec::new();
        let mut fresh = 0usize;
        for (kind, value, text, burst) in steps {
            match kind {
                0 | 1 => prop_assert_eq!(dict.intern(&value), oracle.intern(&value)),
                2 => prop_assert_eq!(dict.intern_str(&text), oracle.intern_str(&text)),
                3 => prop_assert_eq!(dict.lookup(&value), oracle.lookup(&value)),
                4 => clones.push((dict.clone(), oracle.clone())),
                5 => {
                    dict.seal();
                    oracle.seal();
                }
                6 => {
                    dict.mark_frozen();
                    oracle.mark_frozen();
                }
                7 => {
                    // A burst of new values: long enough to fold a tail.
                    for _ in 0..burst {
                        fresh += 1;
                        let v = match fresh % 2 {
                            0 => Value::int(1_000 + fresh as i64),
                            _ => Value::str(format!("burst-{fresh}")),
                        };
                        prop_assert_eq!(dict.intern(&v), oracle.intern(&v));
                    }
                }
                _ => {
                    let values: Vec<Value> = dict.values().iter().cloned().collect();
                    dict = ValueInterner::from_frozen(values.clone()).expect("distinct entries");
                    oracle = MapInterner::from_frozen(values);
                }
            }
            assert_dictionaries_agree(&dict, &oracle)?;
        }
        for (dict, oracle) in &clones {
            assert_dictionaries_agree(dict, oracle)?;
        }
    }

    /// `RowGroups::scan` (dense counting or hashed) groups exactly like the
    /// oracle hash scan, on in-RAM snapshots after removals (rows ≠ ids)
    /// and on mapped relations of multi-segment columns saved at
    /// `shard_rows` 1, 3 and 64, for every attribute list of up to three
    /// attributes — single attributes, and keys on both sides of the dense
    /// bound (the nearly unique `d` makes most pairs with it hashed).
    #[test]
    fn dense_scans_equal_hash_scans(
        rows in proptest::collection::vec((0i64..2, 0i64..6, "[a-c]{1,2}", 0i64..1_000), 1..70),
        removed in proptest::collection::vec(0usize..70, 0..8),
    ) {
        use dq_relation::reference::hash_scan;
        use dq_relation::{RowGroups, ShardSource, StoreShardSource};
        let schema = Arc::new(RelationSchema::new(
            "s",
            [("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Text), ("d", Domain::Int)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (a, b, c, d) in &rows {
            inst.insert_values([Value::int(*a), Value::int(*b), Value::str(c.as_str()), Value::int(*d)])
                .unwrap();
        }
        let check = |source: &dyn ShardSource| -> Result<(), TestCaseError> {
            for attrs in attr_lists(4) {
                prop_assert_eq!(
                    sorted_groups(&RowGroups::scan(source, &attrs)),
                    sorted_groups(&hash_scan(source, &attrs)),
                    "attrs {:?}", attrs
                );
            }
            Ok(())
        };
        for shard_rows in [1, 3, 64] {
            let dir = std::env::temp_dir().join(format!(
                "dq_store_props_scan_{}_{shard_rows}",
                std::process::id()
            ));
            inst.columnar().save_to_with_shard_rows(&inst, &dir, shard_rows).unwrap();
            let mapped = dq_relation::open_mmap(&dir).unwrap();
            check(&mapped)?;
            drop(mapped);
            let _ = std::fs::remove_dir_all(&dir);
        }
        for slot in removed {
            inst.remove(TupleId(slot));
        }
        check(&StoreShardSource::new(&inst))?;
    }
}

/// 200,000 distinct values: the id table grows through many re-slottings
/// and folds and still agrees with the map-backed oracle, and dense scans
/// of a 200,000-row relation with a unique column equal the hash scan.
#[test]
#[ignore = "200k-distinct dictionary and scan; run with --ignored"]
fn two_hundred_thousand_distinct_values_agree_with_the_oracles() {
    use dq_relation::reference::{hash_scan, MapInterner};
    use dq_relation::{RowGroups, StoreShardSource};
    let mut dict = ValueInterner::new();
    let mut oracle = MapInterner::new();
    for i in 0..200_000i64 {
        let v = match i % 3 {
            0 => Value::int(i),
            1 => Value::real(i as f64),
            _ => Value::str(format!("customer-{i}-{}", "x".repeat((i % 50) as usize))),
        };
        assert_eq!(dict.intern(&v), oracle.intern(&v));
        if i == 1_000 {
            dict.seal();
            oracle.seal();
        }
    }
    assert_dictionaries_agree(&dict, &oracle).unwrap();
    let schema = Arc::new(RelationSchema::new(
        "big",
        [("k", Domain::Int), ("g", Domain::Int)],
    ));
    let mut inst = RelationInstance::new(schema);
    for i in 0..200_000i64 {
        inst.insert_values([Value::int(i), Value::int(i % 977)])
            .unwrap();
    }
    let source = StoreShardSource::new(&inst);
    for attrs in [&[0usize][..], &[1], &[0, 1], &[1, 0]] {
        assert_eq!(
            sorted_groups(&RowGroups::scan(&source, attrs)),
            sorted_groups(&hash_scan(&source, attrs)),
            "attrs {attrs:?}"
        );
    }
}
