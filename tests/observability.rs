//! The dq-obs recorder against the engine it instruments: counters must
//! sum exactly under the workspace's own `parallel_map` fan-out, the
//! disabled recorder must record nothing at all, and — the contract the
//! whole layer rests on — turning instrumentation on must never change a
//! single output byte of detection, discovery or repair.
//!
//! The recorder is process-global, so every test here serializes on one
//! mutex before toggling it (other integration-test binaries run in their
//! own processes and cannot race this one).

use dataquality::prelude::*;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Serializes recorder toggling across tests and guarantees the recorder
/// is left disabled (the workspace default) when the guard drops.
struct RecorderSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl RecorderSession {
    fn begin() -> Self {
        let guard = RECORDER_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        dq_obs::set_enabled(false);
        dq_obs::recorder().reset();
        RecorderSession(guard)
    }
}

impl Drop for RecorderSession {
    fn drop(&mut self) {
        dq_obs::set_enabled(false);
        dq_obs::recorder().reset();
    }
}

/// Counter increments fired from inside the engine's own thread pool sum
/// exactly — no lost updates across the sharded atomics.
#[test]
fn counters_sum_exactly_under_parallel_map() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let items: Vec<usize> = (0..4_096).collect();
    let counter = dq_obs::recorder().counter("test.parallel_map.increments");
    let doubled = dq_core::engine::parallel_map(&items, 8, |&i| {
        counter.inc();
        dq_obs::add("test.parallel_map.weight", i as u64);
        i * 2
    });
    assert_eq!(doubled.len(), items.len());
    let snap = dq_obs::recorder().snapshot();
    assert_eq!(
        snap.counters.get("test.parallel_map.increments"),
        Some(&(items.len() as u64))
    );
    let expected_weight: u64 = items.iter().map(|&i| i as u64).sum();
    assert_eq!(
        snap.counters.get("test.parallel_map.weight"),
        Some(&expected_weight)
    );
}

/// A disabled recorder is a no-op: nothing fired through the free
/// functions, handles or spans lands in the snapshot.
#[test]
fn disabled_recorder_records_nothing() {
    let _session = RecorderSession::begin();
    dq_obs::inc("test.disabled.counter");
    dq_obs::add("test.disabled.counter", 41);
    dq_obs::gauge_set("test.disabled.gauge", 7);
    dq_obs::record("test.disabled.histogram", 123);
    let counter = dq_obs::recorder().counter("test.disabled.handle");
    counter.inc();
    {
        let span = dq_obs::span!("test.disabled.span", detail = "ignored");
        // The guard still measures real time even while disabled (the
        // bench harness leans on that for `level_ms`), it just must not
        // record anything.
        assert!(span.finish_ms() >= 0.0);
    }
    let value = dq_obs::time("test.disabled.timed", || 6 * 7);
    assert_eq!(value, 42, "time() must run the closure even when disabled");
    assert!(
        dq_obs::recorder().snapshot().is_quiet(),
        "disabled recorder must record nothing"
    );
}

/// A full engine pass under the enabled recorder populates the metric
/// families the profile mode documents.
#[test]
fn engine_pass_populates_detection_metrics() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 7,
        cities_per_country: 5,
    });
    let cfds = paper_cfds();
    let engine = DetectionEngine::new();
    let _ = engine.detect_cfd_violations(&workload.dirty, &cfds);
    let _ = engine.detect_cfd_violations(&workload.dirty, &cfds);
    let mut snap = dq_obs::recorder().snapshot();
    snap.ingest("engine.pool", &engine.pool_stats());
    assert!(snap.spans.contains_key("detect.cfd"));
    assert_eq!(snap.spans["detect.cfd"].count, 2);
    assert!(
        snap.counters.get("pool.hits").copied().unwrap_or(0) > 0,
        "the warm pass must be served from the pool"
    );
    assert!(
        snap.histograms.contains_key("index.build_ns"),
        "cold index builds must be timed"
    );
    // The engine's pool is the only one alive since the reset, so the
    // live process-wide counters and the polled one-pool stats struct
    // (ingested under `engine.pool`) must tell the same story.
    for family in ["hits", "misses", "appends", "patches", "races"] {
        assert_eq!(
            snap.counters
                .get(&format!("pool.{family}"))
                .copied()
                .unwrap_or(0),
            snap.counters
                .get(&format!("engine.pool.{family}"))
                .copied()
                .unwrap_or(0),
            "live pool.{family} must agree with the polled stats"
        );
    }
}

/// Spans opened inside `parallel_map` workers nest under the caller's open
/// span: at two threads the per-FD tableau mines render as
/// `discover.cfd/tableau`, as they do sequentially, never as a root.  The
/// pattern miners' counters are live, and at a binding cap some worker
/// stops early.
#[test]
fn parallel_cfd_mining_nests_worker_spans_and_counts_validations() {
    use dq_discovery::prelude::*;

    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 7,
        cities_per_country: 5,
    });
    let mined = discover_cfds(
        &workload.dirty,
        &CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            max_tableau: 2,
            threads: 2,
            ..CfdDiscoveryConfig::default()
        },
    );
    assert!(!mined.is_empty());
    let snap = dq_obs::recorder().snapshot();
    let tree = snap.render_span_tree();
    assert!(
        snap.spans.contains_key("discover.cfd/tableau"),
        "tableau mines must nest under discover.cfd:\n{tree}"
    );
    let roots: Vec<&String> = snap.spans.keys().filter(|p| !p.contains('/')).collect();
    assert_eq!(roots, ["discover.cfd"], "only one root span:\n{tree}");
    for counter in ["discover.cfd.groups_validated", "discover.cfd.cap_exits"] {
        assert!(
            snap.counters.get(counter).copied().unwrap_or(0) > 0,
            "{counter} must count"
        );
    }
}

/// One `discover_cfds` call walks the FD lattice once: exact and
/// approximate verdicts come from the same walk, so `discover.fd` opens
/// exactly once under `discover.cfd`, sequentially and fanned out.
#[test]
fn cfd_discovery_walks_the_fd_lattice_once() {
    use dq_discovery::prelude::*;

    let _session = RecorderSession::begin();
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 7,
        cities_per_country: 5,
    });
    for threads in [1, 2] {
        dq_obs::recorder().reset();
        dq_obs::set_enabled(true);
        let mined = discover_cfds(
            &workload.dirty,
            &CfdDiscoveryConfig {
                threads,
                ..CfdDiscoveryConfig::default()
            },
        );
        dq_obs::set_enabled(false);
        assert!(!mined.is_empty());
        let snap = dq_obs::recorder().snapshot();
        let tree = snap.render_span_tree();
        let calls = |path: &str| snap.spans.get(path).map_or(0, |s| s.count);
        assert_eq!(calls("discover.cfd"), 1, "threads {threads}:\n{tree}");
        assert_eq!(
            calls("discover.cfd/discover.fd"),
            1,
            "one lattice walk per discover_cfds (threads {threads}):\n{tree}"
        );
        assert_eq!(calls("discover.cfd/discover.fd/level1"), 1, "{tree}");
    }
}

/// Matching-rule learning is observable: `candidate_keys` and
/// `learn_relative_keys` each open one root `discover.md` span (learning
/// enumerates its candidates inside its own), and the counters record the
/// enumerated candidates, those that pass the precision floor and the
/// rules selected.
#[test]
fn rule_learning_opens_discover_md_and_counts_its_candidates() {
    use dq_discovery::md_discovery::{candidate_keys, learn_relative_keys, RuleLearningConfig};
    use dq_gen::cards::{generate_cards, CardConfig};
    use dq_match::engine::MatchingEngine;
    use dq_match::rck::ComparisonSpace;
    use dq_match::similarity::SimilarityOp;

    let _session = RecorderSession::begin();
    let w = generate_cards(&CardConfig {
        holders: 80,
        distractors: 10,
        seed: 19,
        ..CardConfig::default()
    });
    let space = vec![
        ComparisonSpace::new("LN", "SN", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("FN", "FN", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("email", "email", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("addr", "post", vec![SimilarityOp::Equality]),
    ];
    let (yc, yb) = (["FN", "LN", "addr", "email"], ["FN", "SN", "post", "email"]);
    let config = RuleLearningConfig::default();
    dq_obs::set_enabled(true);
    let keys = candidate_keys(
        w.card.schema(),
        w.billing.schema(),
        &space,
        &yc,
        &yb,
        config.max_length,
    );
    let snap = dq_obs::recorder().snapshot();
    assert!(!keys.is_empty());
    let roots: Vec<&String> = snap.spans.keys().collect();
    assert_eq!(roots, ["discover.md"], "{}", snap.render_span_tree());
    assert_eq!(snap.spans["discover.md"].count, 1);
    assert_eq!(
        snap.counters.get("discover.md.candidates"),
        Some(&(keys.len() as u64))
    );

    dq_obs::recorder().reset();
    let engine = MatchingEngine::new(std::sync::Arc::new(IndexPool::new()));
    let learned = learn_relative_keys(
        &w.card, &w.billing, &w.truth, &space, &yc, &yb, &config, &engine,
    );
    dq_obs::set_enabled(false);
    assert!(!learned.rules.is_empty());
    let snap = dq_obs::recorder().snapshot();
    let tree = snap.render_span_tree();
    let roots: Vec<&String> = snap.spans.keys().filter(|p| !p.contains('/')).collect();
    assert_eq!(roots, ["discover.md"], "one root span:\n{tree}");
    assert_eq!(snap.spans["discover.md"].count, 1);
    assert!(
        !snap.spans.contains_key("discover.md/discover.md"),
        "{tree}"
    );
    assert!(snap.spans.contains_key("discover.md/match.rule"), "{tree}");
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("discover.md.candidates"),
        learned.candidates_evaluated as u64
    );
    assert_eq!(counter("discover.md.rules"), learned.rules.len() as u64);
    assert!(counter("discover.md.admitted") >= counter("discover.md.rules"));
}

/// Profiling is observable: `profile_relation` opens one root
/// `discover.profile` span and `profile_database` one per relation; the
/// counters record the profiled columns and the attribute pairs grouped
/// for key candidacy.
#[test]
fn profiling_opens_discover_profile_per_relation() {
    use dq_discovery::prelude::*;

    let _session = RecorderSession::begin();
    let workload = generate_customers(&CustomerConfig {
        tuples: 200,
        error_rate: 0.05,
        seed: 3,
        cities_per_country: 5,
    });
    dq_obs::set_enabled(true);
    let profile = profile_relation(&workload.dirty);
    let snap = dq_obs::recorder().snapshot();
    let arity = workload.dirty.schema().arity() as u64;
    let roots: Vec<&String> = snap.spans.keys().filter(|p| !p.contains('/')).collect();
    assert_eq!(roots, ["discover.profile"], "{}", snap.render_span_tree());
    assert_eq!(snap.spans["discover.profile"].count, 1);
    assert_eq!(snap.counters.get("discover.profile.columns"), Some(&arity));
    let non_keys = arity - profile.unary_keys.len() as u64;
    assert_eq!(
        snap.counters
            .get("discover.profile.pairs")
            .copied()
            .unwrap_or(0),
        non_keys * non_keys.saturating_sub(1) / 2
    );

    dq_obs::recorder().reset();
    let db = dq_gen::orders::generate_orders(&dq_gen::orders::OrderConfig {
        orders: 50,
        ..Default::default()
    })
    .db;
    let profiles = profile_database(&db);
    dq_obs::set_enabled(false);
    let relations = db.iter().count();
    assert_eq!(profiles.len(), relations);
    let snap = dq_obs::recorder().snapshot();
    assert_eq!(
        snap.spans["discover.profile"].count,
        relations as u64,
        "{}",
        snap.render_span_tree()
    );
    let columns: usize = db.iter().map(|(_, inst)| inst.schema().arity()).sum();
    assert_eq!(
        snap.counters.get("discover.profile.columns"),
        Some(&(columns as u64))
    );
}

/// The cleaning pipeline explains itself: one root `clean.pipeline` span
/// holding `clean.match` and `clean.fuse`, counters for the matches, the
/// ambiguous matches and the fused cells that equal the report's, and the
/// warm start of the clones it derives: inherited snapshots and pooled
/// indexes served from the dirty instance's entries.
#[test]
fn cleaning_pipeline_opens_its_spans_and_counts_warm_clones() {
    use dq_cleaning::prelude::*;
    use dq_gen::master::{generate_master_workload, MasterConfig};
    use dq_match::rck::RelativeKey;
    use dq_match::similarity::SimilarityOp;

    let _session = RecorderSession::begin();
    let w = generate_master_workload(&MasterConfig {
        entities: 150,
        error_rate: 0.2,
        name_variation_rate: 0.4,
        seed: 7,
    });
    let schema = dq_gen::customer::customer_schema();
    let rules = vec![RelativeKey::new(
        &schema,
        &schema,
        vec![
            ("phn", "phn", SimilarityOp::Equality),
            ("name", "name", SimilarityOp::edit(12)),
        ],
        &["street", "city", "zip"],
        &["street", "city", "zip"],
    )
    .expect("well-formed relative key")];
    let fusion = ["street", "city", "zip"].map(|a| schema.attr(a)).to_vec();
    let pipeline =
        CleaningPipeline::with_master(paper_cfds(), MasterData::new(w.master), rules, fusion);
    dq_obs::set_enabled(true);
    let report = pipeline.run(&w.dirty).expect("consistent rule set");
    dq_obs::set_enabled(false);
    let snap = dq_obs::recorder().snapshot();
    let tree = snap.render_span_tree();
    let roots: Vec<&String> = snap.spans.keys().filter(|p| !p.contains('/')).collect();
    assert_eq!(roots, ["clean.pipeline"], "{tree}");
    assert_eq!(snap.spans["clean.pipeline"].count, 1);
    for child in ["clean.match", "clean.fuse", "repair.urepair"] {
        let path = format!("clean.pipeline/{child}");
        assert_eq!(snap.spans.get(&path).map(|s| s.count), Some(1), "{tree}");
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(report.fusion_changes > 0);
    assert_eq!(counter("clean.match.matches"), report.master_matches as u64);
    assert_eq!(
        counter("clean.match.ambiguous"),
        report.ambiguous_matches as u64
    );
    assert_eq!(counter("clean.fuse.changes"), report.fusion_changes as u64);
    // Fusion and repair each clone a snapshotted instance.
    assert_eq!(counter("store.snapshot.inherited"), 2);
    assert!(counter("pool.donor_patches") > 0, "{:?}", snap.counters);
}

/// Grouped detection counts its groups and violations arithmetically —
/// in-RAM, shard-cursor and maintained alike — and only a consumer asking
/// for pairs opens `report.materialize`, once per report.
#[test]
fn grouped_detection_counts_without_materializing() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 5,
        cities_per_country: 3,
    });
    let cfds = paper_cfds();
    let engine = DetectionEngine::new();
    let source = dq_relation::StoreShardSource::new(&workload.dirty);
    let reports = [
        engine.detect_cfd_violations(&workload.dirty, &cfds),
        engine.detect_cfd_violations_from_shards(&source, &cfds),
        engine
            .maintain_cfd_violations(&workload.dirty, &cfds, None)
            .into_report(),
    ];
    let snap = dq_obs::recorder().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let groups: usize = reports.iter().map(|r| r.violation_groups()).sum();
    let violations: usize = reports.iter().map(|r| r.total()).sum();
    assert!(groups > 0 && violations > groups);
    assert_eq!(counter("detect.cfd.groups"), groups as u64);
    assert_eq!(counter("detect.cfd.violations"), violations as u64);
    for span in ["detect.cfd", "detect.cfd.stream", "maintain.cfd"] {
        assert!(snap.spans.contains_key(span), "{span} missing");
    }
    assert!(
        !snap.spans.contains_key("report.materialize"),
        "counting must not materialize pairs"
    );
    let pairs: usize = reports[0].per_dependency().iter().map(Vec::len).sum();
    assert_eq!(pairs, reports[0].total());
    let _ = reports[0].of(0);
    let snap = dq_obs::recorder().snapshot();
    assert_eq!(snap.spans["report.materialize"].count, 1);
}

/// A maintenance round whose edits stay inside violating groups patches
/// each touched group from its previous RHS classes and classifies none in
/// full.
#[test]
fn maintenance_patches_touched_violating_groups() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let schema = std::sync::Arc::new(RelationSchema::new(
        "r",
        [("k", Domain::Int), ("y", Domain::Text)],
    ));
    let mut inst = RelationInstance::new(std::sync::Arc::clone(&schema));
    // Every k group holds both an "odd" and an "even" y: all five violate.
    for i in 0..50i64 {
        let y = if i % 7 == 0 { "odd" } else { "even" };
        inst.insert_values([Value::int(i % 5), Value::str(y)])
            .unwrap();
    }
    let cfds = vec![Cfd::new(
        &schema,
        &["k"],
        &["y"],
        vec![PatternTuple::new(vec![wild()], vec![wild()])],
    )
    .unwrap()];
    let engine = DetectionEngine::new();
    let first = engine.maintain_cfd_violations(&inst, &cfds, None);
    assert_eq!(first.report().violation_groups(), 5);
    // Three "even" tuples of three groups turn "odd".
    for t in [1, 2, 3] {
        inst.update_cell(CellRef::new(TupleId(t), 1), Value::str("odd"))
            .unwrap();
    }
    let next = engine.maintain_cfd_violations(&inst, &cfds, Some(&first));
    assert_eq!(
        next.report(),
        &dq_core::reference::detect_cfd_violations(&inst, &cfds)
    );
    let snap = dq_obs::recorder().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("maintain.cfd.patch"), 1);
    assert_eq!(counter("maintain.cfd.groups_patched"), 3);
    assert_eq!(counter("maintain.cfd.groups_classified"), 0);
}

/// A snapshot patch counts the chunks it shares with its predecessor and
/// the ones it copies: one edited cell copies one chunk of its column, and
/// every other chunk of that column, the rows and the row index is shared.
/// An unchanged column keeps its whole `Arc` and counts in neither.
#[test]
fn snapshot_patches_count_copied_and_shared_chunks() {
    use dq_relation::store::CHUNK_ROWS;
    let _session = RecorderSession::begin();
    let schema = RelationSchema::new("r", [("k", Domain::Int), ("y", Domain::Text)]);
    let mut inst = RelationInstance::from_schema(schema);
    for i in 0..3 * CHUNK_ROWS as i64 {
        inst.insert_values([Value::int(i % 9), Value::str("y")])
            .unwrap();
    }
    let store = inst.columnar();
    store.column(&inst, 0);
    store.column(&inst, 1);
    dq_obs::set_enabled(true);
    inst.update_cell(CellRef::new(TupleId(CHUNK_ROWS + 7), 0), Value::int(100))
        .unwrap();
    inst.columnar();
    let snap = dq_obs::recorder().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("store.patch.chunks_copied"), 1);
    assert_eq!(counter("store.patch.chunks_shared"), 3 + 3 + 2);
}

/// Every this many rounds, the delta stream below also removes a random
/// live tuple.
const DELTA_REMOVE_EVERY: usize = 3;

/// A monitor-shaped write stream over 2,000 scaled customers — per round
/// four donor-copy cell edits and one duplicate-tuple append, plus a
/// removal every [`DELTA_REMOVE_EVERY`]th round, driven by a fixed LCG —
/// keeps the maintained report equal to the reference detector after every
/// round, and is served by patches, never by rebuilds:
/// * after round 0 every pool miss is an upgrade (`misses == patches +
///   appends`), removals included;
/// * violating groups are patched from their previous RHS classes
///   (`maintain.cfd.groups_patched` grows), not classified in full;
/// * snapshot patches share the chunks no write reached
///   (`store.patch.chunks_shared` grows), not copy whole columns.
///
/// The identity holds with the recorder on, so instrumentation does not
/// steer the delta path either.
#[test]
fn delta_stream_is_maintained_by_patches() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let mut instance = generate_customers(&CustomerConfig {
        tuples: 2_000,
        error_rate: 0.05,
        seed: 42,
        cities_per_country: 3,
    })
    .dirty;
    let cfds = paper_cfds();
    let engine = DetectionEngine::new();
    let mut maintained = engine.maintain_cfd_violations(&instance, &cfds, None);
    assert_eq!(
        maintained.report(),
        &dq_core::reference::detect_cfd_violations(&instance, &cfds)
    );
    let built = engine.pool_stats();
    let groups_patched = dq_obs::recorder().counter("maintain.cfd.groups_patched");
    let chunks_shared = dq_obs::recorder().counter("store.patch.chunks_shared");
    let (patched_before, shared_before) = (groups_patched.value(), chunks_shared.value());

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let arity = instance.schema().arity();
    for round in 0..8 {
        let ids = instance.ids();
        let edits: Vec<_> = (0..4)
            .map(|_| {
                let target = ids[next() % ids.len()];
                let attr = next() % arity;
                let donor = ids[next() % ids.len()];
                let value = instance.tuple(donor).expect("live").get(attr).clone();
                (target, attr, value)
            })
            .collect();
        let append = instance
            .tuple(ids[next() % ids.len()])
            .expect("live")
            .clone();
        let removal =
            (round % DELTA_REMOVE_EVERY == DELTA_REMOVE_EVERY - 1).then(|| ids[next() % ids.len()]);
        for (target, attr, value) in edits {
            instance
                .update_cell(CellRef::new(target, attr), value)
                .expect("donor values are in-domain");
        }
        instance.insert(append).expect("same schema");
        if let Some(id) = removal {
            instance.remove(id).expect("removed tuples are live");
        }
        maintained = engine.maintain_cfd_violations(&instance, &cfds, Some(&maintained));
        assert_eq!(
            maintained.report(),
            &dq_core::reference::detect_cfd_violations(&instance, &cfds),
            "round {round}"
        );
        let stats = engine.pool_stats();
        assert_eq!(
            stats.misses - built.misses,
            (stats.patches - built.patches) + (stats.appends - built.appends),
            "after round 0 every pool miss is an upgrade, removals included (round {round})"
        );
    }
    assert!(
        engine.pool_stats().patches > 0,
        "the mixed stream must be served by index patches"
    );
    assert!(
        groups_patched.value() > patched_before,
        "maintenance rounds must patch violating groups from their classes, \
         not classify them in full"
    );
    assert!(
        chunks_shared.value() > shared_before,
        "snapshot patches must share the chunks no write reached, not copy whole columns"
    );
}

/// The insertion chase carries one engine across its rounds and only
/// inserts, so the second round's detection extends the first round's
/// pooled indexes (`pool.appends`) instead of rebuilding them.
#[test]
fn insertion_chase_extends_pooled_indexes_between_rounds() {
    use dq_repair::insertion::{repair_cind_violations_by_insertion, InsertionRepairConfig};
    use std::sync::Arc;

    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let src = Arc::new(RelationSchema::new(
        "src",
        [("k", Domain::Text), ("kind", Domain::Text)],
    ));
    let dst = Arc::new(RelationSchema::new(
        "dst",
        [("k", Domain::Text), ("label", Domain::Text)],
    ));
    let archive = Arc::new(RelationSchema::new("archive", [("k", Domain::Text)]));
    // src[k; kind = 'a'] ⊆ dst[k; label = 'A'], then dst[k; label = 'A'] ⊆ archive[k].
    let cinds = [
        Cind::new(
            &src,
            &["k"],
            &["kind"],
            &dst,
            &["k"],
            &["label"],
            vec![CindPattern::new(
                vec![Value::str("a")],
                vec![Value::str("A")],
            )],
        )
        .unwrap(),
        Cind::new(
            &dst,
            &["k"],
            &["label"],
            &archive,
            &["k"],
            &[],
            vec![CindPattern::new(vec![Value::str("A")], vec![])],
        )
        .unwrap(),
    ];
    let mut db = Database::new();
    let mut src_rows = RelationInstance::new(src);
    for (k, kind) in [("x", "a"), ("y", "a"), ("z", "b")] {
        src_rows
            .insert_values([Value::str(k), Value::str(kind)])
            .unwrap();
    }
    let mut dst_rows = RelationInstance::new(dst);
    dst_rows
        .insert_values([Value::str("x"), Value::str("A")])
        .unwrap();
    db.add_relation(src_rows);
    db.add_relation(dst_rows);
    db.add_relation(RelationInstance::new(archive));

    let outcome =
        repair_cind_violations_by_insertion(&db, &cinds, &InsertionRepairConfig::default())
            .unwrap();
    assert_eq!(outcome.insertion_count(), 3);
    assert_eq!(outcome.rounds, 2);
    assert!(outcome.consistent);
    let snap = dq_obs::recorder().snapshot();
    assert!(
        snap.counters.get("pool.appends").copied().unwrap_or(0) > 0,
        "insert-only chase rounds must extend pooled indexes, not rebuild"
    );
}

/// A pool upgrade takes its predecessor out of the cache and hands it to the
/// patch: the live `pool.entries` gauge keeps agreeing with the polled
/// entry count, a predecessor nobody else holds is taken over without a
/// copy (no `index.patch.shared`), and one still held is cloned and
/// counted.
#[test]
fn pool_patches_hand_over_sole_predecessors_and_keep_the_entries_gauge() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let mut inst = generate_customers(&CustomerConfig {
        tuples: 200,
        error_rate: 0.05,
        seed: 3,
        cities_per_country: 3,
    })
    .dirty;
    let pool = IndexPool::new();
    let attr_sets: [&[usize]; 2] = [&[0], &[0, 1]];
    let request = |inst: &RelationInstance| {
        for attrs in attr_sets {
            pool.interned_for(inst, attrs, 1);
            pool.distinct_for(inst, attrs, 1);
        }
    };
    let edit = |inst: &mut RelationInstance, area_code: i64| {
        let first = inst.ids()[0];
        inst.update_cell(CellRef::new(first, 1), Value::int(area_code))
            .expect("valid cell");
    };
    request(&inst);
    edit(&mut inst, 9001);
    request(&inst);
    let snap = dq_obs::recorder().snapshot();
    let counter =
        |snap: &dq_obs::MetricsSnapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter(&snap, "pool.patches"), 4, "every artifact patched");
    assert_eq!(
        snap.gauges.get("pool.entries").copied(),
        Some(pool.stats().entries as i64)
    );
    assert_eq!(
        counter(&snap, "index.patch.shared"),
        0,
        "sole-owner patches copy nothing"
    );
    // Holding the current index across the next write forces a clone.
    let held = pool.interned_for(&inst, &[0, 1], 1);
    let groups = held.group_count();
    edit(&mut inst, 9002);
    request(&inst);
    let snap = dq_obs::recorder().snapshot();
    assert_eq!(counter(&snap, "pool.patches"), 8);
    assert_eq!(counter(&snap, "index.patch.shared"), 1);
    assert_eq!(
        snap.gauges.get("pool.entries").copied(),
        Some(pool.stats().entries as i64)
    );
    assert_eq!(held.group_count(), groups, "the held index is untouched");
}

/// The minimal cover counts the candidates whose closure verdict had to go
/// to the DPLL — none over the customer schema, which has no finite
/// domain — and the lint pass counts its implied-rule findings.
#[test]
fn analysis_counts_solver_fallbacks_and_implied_rules() {
    let _session = RecorderSession::begin();
    dq_obs::set_enabled(true);
    let mut rules = paper_cfds();
    rules.push(rules[0].clone());
    let _ = cfd_minimal_cover(&rules);
    let report = lint_cfds(&rules);
    let snap = dq_obs::recorder().snapshot();
    let implied = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "implied-rule")
        .count();
    assert!(implied >= 2, "a repeated rule and its twin are implied");
    assert_eq!(
        snap.counters.get("analysis.lint.implied"),
        Some(&(implied as u64))
    );
    assert_eq!(
        snap.counters
            .get("analysis.cover.solver_fallbacks")
            .copied()
            .unwrap_or(0),
        0
    );

    // dom(A) = bool: `_ → B = b` follows from `A = true → B = b` and
    // `A = false → B = b` only by a case split the closure cannot make.
    dq_obs::recorder().reset();
    let schema = std::sync::Arc::new(dq_relation::RelationSchema::new(
        "r",
        [
            ("A", dq_relation::Domain::Bool),
            ("B", dq_relation::Domain::Text),
        ],
    ));
    let rule = |a| {
        Cfd::new(
            &schema,
            &["A"],
            &["B"],
            vec![PatternTuple::new(vec![a], vec![cst("b")])],
        )
        .unwrap()
    };
    let sigma = vec![rule(cst(true)), rule(cst(false)), rule(wild())];
    assert_eq!(
        cfd_minimal_cover(&sigma),
        dq_core::reference::cfd_minimal_cover(&sigma)
    );
    let snap = dq_obs::recorder().snapshot();
    assert!(
        snap.counters
            .get("analysis.cover.solver_fallbacks")
            .is_some_and(|&n| n > 0),
        "a finite-domain candidate must reach the solver"
    );
}

/// Every file of a relation directory, by name.
fn relation_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("relation directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("segment"))
        })
        .collect()
}

/// CSV ingest opens its `store.io.*` spans — the streamed ingest split
/// into `scan`, `intern` and `flush` — and writes the same segment bytes
/// and parses the same rows with the recorder on and off.
#[test]
fn csv_ingest_opens_its_spans_and_writes_the_same_bytes_either_way() {
    let _session = RecorderSession::begin();
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 11,
        cities_per_country: 5,
    });
    let schema = std::sync::Arc::clone(workload.dirty.schema());
    let text = dq_relation::csv::to_text(&workload.dirty).expect("render");
    let dir = std::env::temp_dir().join(format!("dq_obs_ingest_{}", std::process::id()));
    let mut runs = Vec::new();
    for enabled in [false, true] {
        dq_obs::set_enabled(enabled);
        dq_obs::recorder().reset();
        let parsed =
            dq_relation::csv::from_text(std::sync::Arc::clone(&schema), &text).expect("parse");
        let stats = dq_relation::csv::stream_into_store(
            std::sync::Arc::clone(&schema),
            text.as_bytes(),
            &dir,
            64,
        )
        .expect("ingest");
        let mapped = dq_relation::open_mmap(&dir).expect("open");
        assert_eq!(mapped.len(), 300);
        let rows: Vec<_> = parsed.iter().map(|(_, t)| t.clone()).collect();
        runs.push((format!("{rows:?}"), stats, relation_files(&dir)));
    }
    let snap = dq_obs::recorder().snapshot();
    let tree = snap.render_span_tree();
    for path in [
        "store.io.parse_text",
        "store.io.stream_ingest",
        "store.io.stream_ingest/scan",
        "store.io.stream_ingest/intern",
        "store.io.stream_ingest/flush",
        "store.io.stream_ingest/store.io.save",
        "store.io.open",
    ] {
        assert!(
            snap.spans.contains_key(path),
            "missing span {path}:\n{tree}"
        );
    }
    assert_eq!(snap.counters.get("store.io.ingested_rows"), Some(&300));
    let _ = std::fs::remove_dir_all(&dir);
    let on = runs.pop().expect("instrumented run");
    let off = runs.pop().expect("uninstrumented run");
    assert_eq!(off.0, on.0, "parsed rows changed under instrumentation");
    assert_eq!(off.1, on.1, "ingest stats changed under instrumentation");
    assert!(off.2 == on.2, "segment bytes changed under instrumentation");
}

/// Releasing one shard of a multi-shard mapped relation releases that
/// shard's id segment of every column and nothing else:
/// `store.io.released_bytes` grows by exactly those segment files' sizes,
/// so pages of shards a cursor has not read yet stay mapped.
#[test]
fn release_shard_releases_only_that_shards_segments() {
    let _session = RecorderSession::begin();
    let workload = generate_customers(&CustomerConfig {
        tuples: 300,
        error_rate: 0.05,
        seed: 11,
        cities_per_country: 5,
    });
    let instance = &workload.dirty;
    let dir = std::env::temp_dir().join(format!("dq_obs_release_{}", std::process::id()));
    instance
        .columnar()
        .save_to_with_shard_rows(instance, &dir, 64)
        .expect("save");
    let mapped = dq_relation::open_mmap(&dir).expect("open");
    assert_eq!(mapped.shard_count(), 5);
    let released = || {
        let snap = dq_obs::recorder().snapshot();
        snap.counters
            .get("store.io.released_bytes")
            .copied()
            .unwrap_or(0)
    };
    dq_obs::set_enabled(true);
    for shard in 0..mapped.shard_count() {
        let segment_bytes: u64 = (0..instance.schema().arity())
            .map(|attr| {
                let segment = dir.join(format!("col{attr}.shard.{shard}"));
                std::fs::metadata(segment).expect("shard segment").len()
            })
            .sum();
        let before = released();
        mapped.release_shard(shard);
        assert_eq!(released() - before, segment_bytes, "shard {shard}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instrumentation only observes entity matching and static analysis too:
/// a `Matcher` run's matches and rule hits, and the minimal cover, lint
/// report and solver consistency verdict of mined plus paper rules, are
/// byte-identical with the recorder on and off.
#[test]
fn matching_and_analysis_are_byte_identical_with_instrumentation_on_and_off() {
    use dq_core::analysis::solver::solve_cfd_consistency;
    use dq_discovery::prelude::*;
    use dq_gen::cards::{generate_cards, CardConfig};
    use dq_match::prelude::{Matcher, MatchingEngine, RelativeKey, SimilarityOp};

    let _session = RecorderSession::begin();
    let cards = generate_cards(&CardConfig {
        holders: 200,
        seed: 42,
        ..CardConfig::default()
    });
    let rules = vec![RelativeKey::new(
        cards.card.schema(),
        cards.billing.schema(),
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::edit(3)),
        ],
        &dq_match::paper::YC,
        &dq_match::paper::YB,
    )
    .expect("well-formed relative key")];
    let customers = generate_customers(&CustomerConfig {
        tuples: 200,
        error_rate: 0.0,
        seed: 42,
        cities_per_country: 8,
    });
    let mut sigma = discover_cfds(
        &customers.dirty,
        &CfdDiscoveryConfig {
            max_lhs: 2,
            ..CfdDiscoveryConfig::default()
        },
    )
    .all();
    sigma.extend(paper_cfds());

    let mut runs = Vec::new();
    for enabled in [false, true] {
        dq_obs::set_enabled(enabled);
        dq_obs::recorder().reset();
        let engine = MatchingEngine::new(std::sync::Arc::new(IndexPool::new())).with_threads(2);
        let matched = Matcher::new(rules.clone()).run(&engine, &cards.card, &cards.billing);
        assert!(!matched.matches.is_empty(), "the rule must match something");
        runs.push((
            format!("{:?}/{:?}", matched.matches, matched.rule_hits),
            format!(
                "{:?}/{}/{}",
                cfd_minimal_cover(&sigma),
                lint_cfds(&sigma).render(),
                solve_cfd_consistency(&sigma, 2).consistent
            ),
        ));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "entity matches changed under instrumentation"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "static analysis changed under instrumentation"
    );
}

fn workload_config() -> impl Strategy<Value = CustomerConfig> {
    (1usize..200, 0usize..3, 0u64..1_000).prop_map(|(tuples, rate_idx, seed)| CustomerConfig {
        tuples,
        error_rate: [0.0, 0.05, 0.25][rate_idx],
        seed,
        cities_per_country: 8,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Instrumentation only observes: detection reports, discovered
    /// dependency sets and repair outcomes are byte-identical (same
    /// `Debug` rendering, same values) with the recorder on and off.
    /// Wall-clock fields (`level_ms`) are timings, not outputs, and are
    /// excluded.
    #[test]
    fn outputs_are_byte_identical_with_instrumentation_on_and_off(config in workload_config()) {
        use dq_discovery::prelude::*;
        use dq_repair::prelude::*;

        let _session = RecorderSession::begin();
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let fd_cfg = FdDiscoveryConfig {
            max_lhs: 2,
            max_g3: 0.0,
            exclude: vec![],
            use_interned: true,
            threads: 2,
        };
        let cfd_cfg = CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            threads: 2,
            ..CfdDiscoveryConfig::default()
        };

        let mut runs = Vec::new();
        for enabled in [false, true] {
            dq_obs::set_enabled(enabled);
            dq_obs::recorder().reset();
            let report = DetectionEngine::new().detect_cfd_violations(&workload.dirty, &cfds);
            let fds = discover_fds(&workload.dirty, &fd_cfg);
            let mined = discover_cfds(&workload.dirty, &cfd_cfg);
            let outcome = repair_cfd_violations(
                &workload.dirty,
                &cfds,
                &RepairCost::uniform(),
                &RepairConfig::default(),
            )
            .expect("consistent rule set");
            // The repaired instance renders as its row contents: the
            // derived `Debug` includes `instance_id`, a fresh global
            // counter value per clone, which is an identity, not an
            // output.
            let repaired_rows: Vec<_> = outcome
                .repaired
                .ids()
                .iter()
                .map(|&id| outcome.repaired.tuple(id).expect("live").clone())
                .collect();
            runs.push((
                format!("{report:?}"),
                format!("{:?}/{}/{}", fds.fds, fds.candidates_checked, fds.partitions_built),
                format!(
                    "{:?}/{:?}/{}",
                    mined.variable_cfds, mined.constant_cfds, mined.candidates_checked
                ),
                format!(
                    "{repaired_rows:?}/{:?}/{}/{}",
                    outcome.log, outcome.consistent, outcome.rounds
                ),
            ));
        }
        let on = runs.pop().expect("instrumented run");
        let off = runs.pop().expect("uninstrumented run");
        prop_assert_eq!(&off.0, &on.0, "detection report changed under instrumentation");
        prop_assert_eq!(&off.1, &on.1, "FD discovery changed under instrumentation");
        prop_assert_eq!(&off.2, &on.2, "CFD discovery changed under instrumentation");
        prop_assert_eq!(&off.3, &on.3, "repair outcome changed under instrumentation");
    }
}

/// A shard FD walk over a mapped relation groups every single attribute by
/// dense counting, while a CFD scan on `[CC, AC, phn]` — whose radix
/// product passes twice the rows — counts as hashed.
#[test]
fn shard_scans_count_dense_and_hashed_rows() {
    let _session = RecorderSession::begin();
    let workload = generate_customers(&CustomerConfig {
        tuples: 400,
        error_rate: 0.05,
        seed: 11,
        cities_per_country: 5,
    });
    let instance = &workload.dirty;
    let schema = instance.schema();
    let dir = std::env::temp_dir().join(format!("dq_obs_scans_{}", std::process::id()));
    instance
        .columnar()
        .save_to_with_shard_rows(instance, &dir, 64)
        .expect("save");
    let mapped = dq_relation::open_mmap(&dir).expect("open");
    let counter = |name: &str| {
        let snap = dq_obs::recorder().snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    };
    dq_obs::set_enabled(true);
    let cfg = FdDiscoveryConfig {
        max_lhs: 2,
        ..Default::default()
    };
    dq_discovery::discover_fds_from_shards(&mapped, &cfg);
    assert_eq!(counter("store.scan.hashed_rows"), 0);
    assert!(counter("store.scan.dense_rows") >= 400 * schema.arity() as u64);
    dq_obs::recorder().reset();
    let lhs = [schema.attr("CC"), schema.attr("AC"), schema.attr("phn")];
    dq_relation::RowGroups::scan(&mapped, &lhs);
    assert_eq!(counter("store.scan.hashed_rows"), 400);
    assert_eq!(counter("store.scan.dense_rows"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
