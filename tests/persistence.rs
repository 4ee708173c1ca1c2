//! Property tests of the on-disk columnar shard format
//! (`dq_relation::store::persist`) and of shard-cursor execution over it.
//!
//! The contract under test: a relation saved with `save_to` and re-opened
//! with `open_mmap` is *indistinguishable* from the in-RAM columnar
//! snapshot — cell by cell, tuple id by tuple id — under arbitrary mixed
//! append/edit/delete histories (appends re-save incrementally, edits force
//! a full rewrite; both must land on the same bytes-on-disk semantics).
//! Detection and discovery driven through a `ShardSource` over the mapped
//! relation must produce byte-identical reports to the in-RAM engine at
//! any thread count, and damaged or future-versioned segments must surface
//! as typed `DqError`s, never panics.

use dataquality::prelude::*;
use dq_relation::store::persist;
use dq_relation::store::FORMAT_VERSION;
use dq_relation::{MappedRelation, RelationInstance, StoreShardSource};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Rows per shard in these tests: tiny, so even small generated instances
/// exercise multi-shard layouts and partial tail shards.
const TEST_SHARD_ROWS: usize = 8;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dq_persistence_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "cust",
        [
            ("cc", Domain::Int),
            ("ac", Domain::Int),
            ("city", Domain::Text),
            ("zip", Domain::Text),
        ],
    ))
}

/// One step of a relation's life.
#[derive(Clone, Debug)]
enum Op {
    Append {
        cc: i64,
        ac: i64,
        city: u8,
        zip: u8,
    },
    Edit {
        slot: usize,
        attr: u8,
        val: u8,
    },
    Delete {
        slot: usize,
    },
    /// Save the current state and re-open it, asserting equivalence.
    Checkpoint,
}

fn append_strategy() -> impl Strategy<Value = Op> {
    (40i64..44, 0i64..5, 0u32..4, 0u32..6).prop_map(|(cc, ac, city, zip)| Op::Append {
        cc,
        ac,
        city: city as u8,
        zip: zip as u8,
    })
}

fn edit_strategy() -> impl Strategy<Value = Op> {
    (0usize..64, 0u32..4, 0u32..6).prop_map(|(slot, attr, val)| Op::Edit {
        slot,
        attr: attr as u8,
        val: val as u8,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The offline proptest shim's `prop_oneof!` is unweighted; appends are
    // listed several times so histories grow instead of emptying out.
    prop_oneof![
        append_strategy(),
        append_strategy(),
        append_strategy(),
        append_strategy(),
        edit_strategy(),
        edit_strategy(),
        (0usize..64).prop_map(|slot| Op::Delete { slot }),
        (0usize..1).prop_map(|_| Op::Checkpoint),
    ]
}

fn city_value(i: u8) -> Value {
    Value::str(format!("city{i}"))
}

fn zip_value(i: u8) -> Value {
    Value::str(format!("zip{i}"))
}

/// Asserts a mapped relation is cell-for-cell identical to the live
/// instance's in-RAM columnar snapshot.
fn assert_mapped_matches(instance: &RelationInstance, mapped: &MappedRelation) {
    let reference = StoreShardSource::new(instance);
    assert_eq!(mapped.len(), reference.len());
    assert_eq!(mapped.schema().arity(), reference.schema().arity());
    for attr in 0..reference.schema().arity() {
        let mcol = mapped.column(attr);
        let rcol = reference.column(attr);
        for row in 0..reference.len() {
            assert_eq!(
                mcol.interner().resolve(mcol.id_at(row)),
                rcol.interner().resolve(rcol.id_at(row)),
                "cell ({row}, {attr})"
            );
        }
    }
    for row in 0..reference.len() {
        let id = reference.tuple_id(row);
        assert_eq!(mapped.tuple_id(row), id, "tuple id at row {row}");
        assert_eq!(mapped.row_of(id), Some(row), "row_of({id:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed append/edit/delete histories with interleaved save/open
    /// checkpoints: every checkpoint (incremental after pure appends, full
    /// rewrite otherwise) must round-trip to an equivalent mapped relation.
    #[test]
    fn save_open_round_trip_under_mixed_histories(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let dir = tmp_dir("mixed");
        let mut instance = RelationInstance::new(schema());
        let mut live: Vec<TupleId> = Vec::new();
        for op in ops {
            match op {
                Op::Append { cc, ac, city, zip } => {
                    let id = instance
                        .insert_values([
                            Value::int(cc),
                            Value::int(ac),
                            city_value(city),
                            zip_value(zip),
                        ])
                        .unwrap();
                    live.push(id);
                }
                Op::Edit { slot, attr, val } => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[slot % live.len()];
                    let value = match attr % 4 {
                        0 => Value::int(40 + (val % 4) as i64),
                        1 => Value::int((val % 5) as i64),
                        2 => city_value(val % 4),
                        _ => zip_value(val % 6),
                    };
                    instance
                        .update_cell(CellRef::new(id, (attr % 4) as usize), value)
                        .unwrap();
                }
                Op::Delete { slot } => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = slot % live.len();
                    let id = live.remove(idx);
                    instance.remove(id);
                }
                Op::Checkpoint => {
                    let store = instance.columnar();
                    store
                        .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
                        .unwrap();
                    let mapped = persist::open_mmap(&dir).unwrap();
                    assert_mapped_matches(&instance, &mapped);
                    let verified = persist::open_mmap_verified(&dir).unwrap();
                    assert_mapped_matches(&instance, &verified);
                }
            }
        }
        // Final checkpoint regardless of the generated history.
        let store = instance.columnar();
        store
            .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
            .unwrap();
        let mapped = persist::open_mmap(&dir).unwrap();
        assert_mapped_matches(&instance, &mapped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSV round-trip under adversarial text cells — separators, quotes,
    /// newlines, commas, empties — through both the in-memory parser and
    /// the streaming shard-store ingest: `to_text` → `from_text` must
    /// reproduce every tuple, and `to_text` → `stream_into_store` →
    /// `open_mmap` must land on the same cells the instance holds.
    #[test]
    fn csv_round_trip_including_streamed_ingest(
        cells in proptest::collection::vec(
            ("[ab|\"\n, ]{0,6}", "[xy|\"\n, ]{0,6}"),
            1..30,
        ),
    ) {
        let schema = Arc::new(RelationSchema::new(
            "csvrel",
            [("left", Domain::Text), ("right", Domain::Text)],
        ));
        let mut instance = RelationInstance::new(Arc::clone(&schema));
        for (left, right) in &cells {
            instance
                .insert_values([Value::str(left), Value::str(right)])
                .unwrap();
        }
        let text = dq_relation::csv::to_text(&instance).unwrap();
        let parsed = dq_relation::csv::from_text(Arc::clone(&schema), &text).unwrap();
        assert_eq!(parsed.len(), instance.len());
        for (id, tuple) in instance.iter() {
            assert_eq!(parsed.tuple(id), Some(tuple), "tuple {id:?}");
        }
        let dir = tmp_dir("csv");
        let stats = dq_relation::csv::stream_into_store(
            Arc::clone(&schema),
            std::io::Cursor::new(text.as_bytes()),
            &dir,
            4,
        )
        .unwrap();
        assert_eq!(stats.rows, cells.len());
        let mapped = persist::open_mmap(&dir).unwrap();
        assert_mapped_matches(&instance, &mapped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A deterministic instance big enough for several tiny shards, with enough
/// value collisions that the detection fixtures below actually fire.
fn detection_instance(rows: usize) -> RelationInstance {
    let mut instance = RelationInstance::new(schema());
    for i in 0..rows {
        instance
            .insert_values([
                Value::int(40 + (i % 3) as i64),
                Value::int((i % 5) as i64),
                city_value((i % 4) as u8),
                zip_value((i % 6) as u8),
            ])
            .unwrap();
    }
    instance
}

fn detection_cfds(schema: &Arc<RelationSchema>) -> Vec<Cfd> {
    vec![
        // cc, ac -> city with a wildcard pattern and a constant pattern.
        Cfd::new(
            schema,
            &["cc", "ac"],
            &["city"],
            vec![
                PatternTuple::new(vec![cst(40i64), wild()], vec![wild()]),
                PatternTuple::new(vec![cst(41i64), cst(2i64)], vec![cst("city1")]),
            ],
        )
        .unwrap(),
        // zip -> city as a pure variable CFD.
        Cfd::new(
            schema,
            &["zip"],
            &["city"],
            vec![PatternTuple::new(vec![wild()], vec![wild()])],
        )
        .unwrap(),
    ]
}

fn detection_denials() -> Vec<DenialConstraint> {
    vec![
        // FD-shaped, pair-partitionable on ac.
        DenialConstraint::new(
            "cust",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Eq, DcTerm::attr(1, 1)),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Ne, DcTerm::attr(1, 2)),
            ],
        ),
        // Single-variable constant constraint.
        DenialConstraint::new(
            "cust",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 0),
                CompOp::Eq,
                DcTerm::val(41i64),
            )],
        ),
    ]
}

/// CFD and denial detection over the mmap-backed shard source must be
/// byte-identical to the pooled in-RAM engine, at every thread count.
#[test]
fn mapped_detection_matches_in_ram_engine() {
    let dir = tmp_dir("detect");
    let instance = detection_instance(100);
    let cfds = detection_cfds(instance.schema());
    let denials = detection_denials();
    instance
        .columnar()
        .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
        .unwrap();
    let mapped = persist::open_mmap(&dir).unwrap();
    assert!(mapped.len() > TEST_SHARD_ROWS, "must span several shards");

    let reference_engine = DetectionEngine::with_threads(1);
    let expected_cfd = reference_engine.detect_cfd_violations(&instance, &cfds);
    let expected_dc = reference_engine.detect_denial_violations(&instance, &denials);
    assert!(
        expected_cfd.total() > 0,
        "fixture should produce violations"
    );

    for threads in [1, 2, 8] {
        let engine = DetectionEngine::with_threads(threads);
        // Over the mapped relation.
        let got_cfd = engine.detect_cfd_violations_from_shards(&mapped, &cfds);
        assert_eq!(
            got_cfd.per_dependency(),
            expected_cfd.per_dependency(),
            "mapped CFD threads {threads}"
        );
        let got_dc = engine.detect_denial_violations_from_shards(&mapped, &denials);
        assert_eq!(got_dc, expected_dc, "mapped denial threads {threads}");
        // And over the in-RAM shard source: same algorithm, other backing.
        let in_ram = StoreShardSource::new(&instance);
        let got_cfd = engine.detect_cfd_violations_from_shards(&in_ram, &cfds);
        assert_eq!(
            got_cfd.per_dependency(),
            expected_cfd.per_dependency(),
            "in-RAM CFD threads {threads}"
        );
        let got_dc = engine.detect_denial_violations_from_shards(&in_ram, &denials);
        assert_eq!(got_dc, expected_dc, "in-RAM denial threads {threads}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FD discovery over the mapped shard source must reproduce the in-RAM
/// discovery run — FDs, candidate counts — at every thread count.
#[test]
fn mapped_fd_discovery_matches_in_ram() {
    let dir = tmp_dir("discover");
    let instance = detection_instance(80);
    instance
        .columnar()
        .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
        .unwrap();
    let mapped = persist::open_mmap(&dir).unwrap();
    for max_g3 in [0.0, 0.1] {
        let config = |threads| FdDiscoveryConfig {
            threads,
            max_g3,
            max_lhs: 2,
            ..FdDiscoveryConfig::default()
        };
        let expected = discover_fds(&instance, &config(1));
        for threads in [1, 2, 8] {
            let got = discover_fds_from_shards(&mapped, &config(threads));
            assert_eq!(got.fds, expected.fds, "threads {threads} max_g3 {max_g3}");
            assert_eq!(got.candidates_checked, expected.candidates_checked);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 20,000 scaled customers persisted in two saves at 1,024 rows per shard
/// — the first from scratch, the second an incremental extension that
/// spills dictionary overlays — re-open as a multi-shard mapped relation
/// whose CFD detection (the paper's rules) and FD discovery equal the
/// in-RAM engines'.
#[test]
fn scaled_customers_saved_in_two_steps_detect_and_discover_like_in_ram() {
    let shard_rows = 1 << 10;
    let dir = tmp_dir("scaled");
    let workload = dq_gen::customer::generate_customers(&dq_gen::customer::CustomerConfig {
        tuples: 20_000,
        error_rate: 0.05,
        seed: 42,
        cities_per_country: 10,
    });
    let mut staged = RelationInstance::new(workload.dirty.schema().clone());
    let split = workload.dirty.len() * 3 / 4;
    for (_, tuple) in workload.dirty.iter().take(split) {
        staged.insert(tuple.clone()).unwrap();
    }
    let first = staged
        .columnar()
        .save_to_with_shard_rows(&staged, &dir, shard_rows)
        .unwrap();
    assert!(!first.incremental, "the first save writes from scratch");
    for (_, tuple) in workload.dirty.iter().skip(split) {
        staged.insert(tuple.clone()).unwrap();
    }
    let second = staged
        .columnar()
        .save_to_with_shard_rows(&staged, &dir, shard_rows)
        .unwrap();
    assert!(
        second.incremental,
        "append-only growth must extend the snapshot, not rewrite it"
    );
    let mapped = persist::open_mmap(&dir).unwrap();
    assert!(mapped.len() / shard_rows >= 2, "must span several shards");

    let cfds = dq_gen::customer::paper_cfds();
    let engine = DetectionEngine::new();
    assert!(
        engine.detect_cfd_violations_from_shards(&mapped, &cfds)
            == engine.detect_cfd_violations(&staged, &cfds),
        "mmap CFD detection must be identical to the in-RAM engine"
    );
    let schema = staged.schema();
    let config = FdDiscoveryConfig {
        max_lhs: 2,
        exclude: vec![schema.attr("phn"), schema.attr("name")],
        ..FdDiscoveryConfig::default()
    };
    let expected = discover_fds(&staged, &config);
    let got = discover_fds_from_shards(&mapped, &config);
    assert_eq!(
        got.fds, expected.fds,
        "mmap FD discovery must match the in-RAM engine"
    );
    assert_eq!(got.candidates_checked, expected.candidates_checked);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damaged segments must come back as typed `DqError`s — never a panic,
/// never a silent wrong answer.
#[test]
fn corruption_and_version_mismatch_are_typed_errors() {
    let dir = tmp_dir("corrupt");
    let instance = detection_instance(40);
    instance
        .columnar()
        .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
        .unwrap();

    // Flip a payload byte in every segment file in turn: full verification
    // must reject each one with CorruptSegment (or an I/O error), never a
    // panic and never success.
    let mut segment_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segment_files.sort();
    assert!(
        segment_files.len() > 3,
        "expect manifest + several segments"
    );
    for file in &segment_files {
        let original = std::fs::read(file).unwrap();
        let mut damaged = original.clone();
        let idx = damaged.len() / 2;
        damaged[idx] ^= 0x5a;
        std::fs::write(file, &damaged).unwrap();
        match persist::open_mmap_verified(&dir) {
            Err(DqError::CorruptSegment { .. }) | Err(DqError::Io { .. }) => {}
            Err(other) => panic!("unexpected error for {file:?}: {other:?}"),
            Ok(_) => panic!("damaged {file:?} but open_mmap_verified succeeded"),
        }
        std::fs::write(file, &original).unwrap();
    }
    // Restored: opens cleanly again.
    persist::open_mmap_verified(&dir).unwrap();

    // A future format version in the manifest is a VersionMismatch.
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).unwrap();
    let mut future = bytes.clone();
    future[4] = 0xff; // little-endian version low byte
    future[5] = 0x00;
    // Re-checksum the tampered manifest so the version check, not the
    // checksum, is what fires.
    let payload_end = future.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &future[..payload_end] {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    future[payload_end..].copy_from_slice(&hash.to_le_bytes());
    std::fs::write(&manifest, &future).unwrap();
    match persist::open_mmap(&dir) {
        Err(DqError::VersionMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, 0xff);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Release hints must not change anything observable: detection after
/// releasing every shard still reads the same cells.
#[test]
fn release_shard_is_transparent() {
    let dir = tmp_dir("release");
    let instance = detection_instance(64);
    instance
        .columnar()
        .save_to_with_shard_rows(&instance, &dir, TEST_SHARD_ROWS)
        .unwrap();
    let mapped = persist::open_mmap(&dir).unwrap();
    for shard in 0..mapped.shard_count() {
        mapped.release_shard(shard);
    }
    assert_mapped_matches(&instance, &mapped);
    let _ = std::fs::remove_dir_all(&dir);
}
