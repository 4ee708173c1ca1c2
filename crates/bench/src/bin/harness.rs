//! Experiment harness: regenerates, in textual form, every table and figure
//! of the paper (and the measurable claims around them), printing one block
//! per experiment.
//!
//! Run with `cargo run --release -p dq-bench --bin harness`.
//!
//! Two flags instead run one measurement and write its artifact, stamped
//! with the commit, `nproc` and build profile, to the working directory:
//!
//! * `--delta-bench` replays a mixed append+edit+remove stream against two
//!   identical working copies — one re-detecting CFD violations from
//!   scratch every round, one maintaining the previous round's report over
//!   patched pooled indexes — asserts the reports identical each round, and
//!   writes `BENCH_delta.json`;
//! * `--discovery-bench` times the reference FD/CFD miners against the
//!   interned lattice sweep at 10k, 100k and 1M tuples, asserts their
//!   outputs identical, and writes `BENCH_discovery.json`.
//!
//! Engine-vs-reference identity at CI sizes is checked by the suites under
//! `tests/`; per-layer profiles come from `dqbench --trace 1`.
//! Any other argument prints the usage and exits with status 2.

use dq_bench::*;
use dq_core::prelude::*;
use dq_core::reference;
use dq_cqa::prelude::*;
use dq_gen::prelude::*;
use dq_match::prelude::*;
use dq_relation::reference::HashIndex;
use dq_relation::{Atom, CellRef, ConjunctiveQuery, RelationInstance, Term};
use dq_repair::prelude::*;
use dq_repr::prelude::*;
use std::time::Instant;

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

const USAGE: &str = "usage: harness [--delta-bench | --discovery-bench]";

/// The measurement modes, one per flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bench {
    Delta,
    Discovery,
}

/// Parses the arguments after the program name: none (the paper
/// walkthrough) or exactly one bench flag.
fn parse_flags(args: impl IntoIterator<Item = String>) -> Result<Option<Bench>, String> {
    let args: Vec<String> = args.into_iter().collect();
    match args.as_slice() {
        [] => Ok(None),
        [flag] if flag == "--delta-bench" => Ok(Some(Bench::Delta)),
        [flag] if flag == "--discovery-bench" => Ok(Some(Bench::Discovery)),
        [flag] => Err(format!("unknown argument `{flag}`")),
        _ => Err("expected at most one argument".to_string()),
    }
}

fn main() {
    let bench = parse_flags(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("harness: {err}\n{USAGE}");
        std::process::exit(2);
    });
    match bench {
        Some(Bench::Delta) => delta_bench(),
        Some(Bench::Discovery) => discovery_bench(),
        None => {
            figures_1_and_2();
            section_1_discovery();
            figures_3_and_4();
            section_2_3_ecfds();
            examples_3x_matching();
            section_3_1_rule_learning();
            example_4_1_and_table1_consistency();
            table1_implication();
            example_4_2_propagation();
            theorem_4_8_mds();
            section_5_1_repair();
            section_5_1_cind_insertions();
            section_5_1_master_data();
            example_5_1();
            section_5_2_cqa();
            section_5_2_aggregates();
            section_5_3_representations();
            section_5_3_ctables();
        }
    }
}

/// The provenance fields of a `BENCH_*.json` artifact, as a JSON fragment
/// ending in a comma: the checked-out commit (`git rev-parse --short HEAD`
/// in the working directory, `unknown` outside a git checkout), `nproc`
/// (the available parallelism) and the build profile the harness was
/// compiled under.
fn provenance_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("\"commit\": \"{commit}\", \"nproc\": {nproc}, \"profile\": \"{profile}\",")
}

/// Times one invocation of `f`, returning (elapsed ms, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median elapsed ms over `reps` invocations of `f` (single-shot timings on
/// a shared box are too noisy for a tracked artifact), plus one result.
fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (first_ms, result) = timed(&mut f);
    let mut samples = vec![first_ms];
    for _ in 1..reps.max(1) {
        samples.push(timed(&mut f).0);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], result)
}

/// A copy that starts cold, for the discovery bench's interned rows: built
/// tuple by tuple, so it carries a fresh identity, no columnar snapshot and
/// no clone origin.  A `clone()` would instead inherit the original's
/// current snapshot and be lent its pooled indexes, and the row would time
/// a warm start.
fn cold_copy(instance: &RelationInstance) -> RelationInstance {
    let mut copy = RelationInstance::new(std::sync::Arc::clone(instance.schema()));
    for (_, tuple) in instance.iter() {
        copy.insert(tuple.clone()).expect("same schema");
    }
    assert_eq!(
        copy.ids(),
        instance.ids(),
        "cold copies keep dense tuple ids"
    );
    copy
}

/// The `max_tableau` at which `--discovery-bench` re-checks CFD mining
/// against the reference: small enough to bind on most tableaux.
const BINDING_TABLEAU_CAP: usize = 4;

/// Naive vs. interned dependency discovery on the scaled customer workload,
/// written to `BENCH_discovery.json`.
///
/// Two algorithms per size:
/// * `fd_discovery` — level-wise exact FD discovery; the naive path builds
///   one `Vec<Value>`-keyed stripped partition per candidate attribute set,
///   the interned path derives single-attribute partitions from pooled CSR
///   postings and refines by id-based partition products;
/// * `cfd_discovery` — full CFD mining (exact FDs, `g3` conditioning,
///   tableau and constant-pattern mining); the naive column times
///   `dq_discovery::reference::discover_cfds`, which re-groups tuples per
///   condition set, the interned path reads every grouping off pooled
///   interned indexes (10k/100k only: the reference miner's per-group
///   minimality rescans are quadratic-ish and intractable at 1M).
///
/// The interned sweep is measured **per thread count** — sequential and
/// fanned out across the machine — each run cold on fresh clones (snapshot,
/// dictionaries and every index build inside the timer), with every run's
/// output asserted identical to the sequential naive sweep.  FD and CFD
/// rows also record the per-lattice-level wall clock (`levels_ms`), where
/// the per-level candidate fan-out pays — for CFDs summed over the one FD
/// walk (exact and `g3` verdicts together) and constant-pattern mining at
/// the same LHS size.  Each row carries the grouping-layer
/// resident bytes: the `Vec<Value>`-keyed maps the naive sweep materializes
/// for the single and pair attribute sets vs. the pooled interned indexes
/// plus column dictionaries serving the same requests.
///
/// The fan-out always has at least two workers, so the concurrent sweep
/// (striped partition cache, pooled probers, canonical merge) is measured
/// even on one core.  CFD rows also assert `candidates_checked` equal to
/// the reference's.
/// The artifact records its commit, `nproc` and build profile.
/// The CFD rows also mine at a binding `max_tableau` of
/// [`BINDING_TABLEAU_CAP`] (untimed), asserted identical to the reference
/// at every thread count, so the miners' cap exits are checked where they
/// actually fire.
fn discovery_bench() {
    use dq_discovery::prelude::*;
    use dq_relation::IndexPool;
    use std::sync::Arc;

    header("Discovery bench — naive vs. interned stripped partitions");
    let sizes = [10_000, 100_000, 1_000_000];
    let machine_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Sequential plus a machine-sized fan-out (at least 2 workers, so the
    // concurrent sweep — striped cache, pooled probers, canonical merge —
    // is always exercised and recorded, even on a single-core container
    // where it cannot win wall-clock).
    let thread_counts: Vec<usize> = vec![1, machine_threads.max(2)];
    let error_rate = 0.05;
    let mut rows = Vec::new();
    println!(
        "  tuples   algo            threads   naive         interned     speedup   found   grouping mem"
    );
    for size in sizes {
        let workload = customer_workload_scaled(size, error_rate);
        let instance = &workload.dirty;
        let schema = instance.schema().clone();
        let exclude = vec![schema.attr("phn"), schema.attr("name")];
        let reps = if size > 100_000 { 1 } else { 3 };

        // Grouping-layer resident bytes over the single and pair attribute
        // sets the level-wise sweep materializes (measured once per size,
        // outside the timers).
        let included: Vec<usize> = (0..schema.arity())
            .filter(|a| !exclude.contains(a))
            .collect();
        let mut attr_sets: Vec<Vec<usize>> = included.iter().map(|&a| vec![a]).collect();
        for i in 0..included.len() {
            for j in (i + 1)..included.len() {
                attr_sets.push(vec![included[i], included[j]]);
            }
        }
        let naive_bytes: usize = attr_sets
            .iter()
            .map(|set| HashIndex::build(instance, set).approx_heap_bytes())
            .sum();
        let measure_pool = Arc::new(IndexPool::new());
        for set in &attr_sets {
            measure_pool.interned_for(instance, set, 1);
        }
        let interned_bytes =
            measure_pool.approx_interned_bytes() + instance.columnar().stats().heap_bytes;
        let memory_reduction = naive_bytes as f64 / interned_bytes.max(1) as f64;
        drop(measure_pool);

        let mut push_row = |algo: &str,
                            threads: usize,
                            naive_ms: f64,
                            interned_ms: f64,
                            found: usize,
                            (tally, naive_tally, interned_tally): (&str, usize, usize),
                            levels_ms: &[f64]| {
            let speedup = naive_ms / interned_ms;
            println!(
                "{size:>8}   {algo:<14} {threads:>7}   {naive_ms:>9.1}ms  {interned_ms:>10.1}ms  {speedup:>7.2}x  {found:>6}   ({:.1} MB -> {:.1} MB, {memory_reduction:.1}x)",
                naive_bytes as f64 / 1e6,
                interned_bytes as f64 / 1e6,
            );
            let levels = levels_ms
                .iter()
                .map(|m| format!("{m:.3}"))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!(
                "    {{\"tuples\": {size}, \"algo\": \"{algo}\", \"threads\": {threads}, \
                 \"error_rate\": {error_rate}, \
                 \"dependencies_found\": {found}, \"naive_ms\": {naive_ms:.3}, \
                 \"interned_ms\": {interned_ms:.3}, \"speedup\": {speedup:.3}, \
                 \"{tally}_naive\": {naive_tally}, \"{tally}_interned\": {interned_tally}, \
                 \"grouping_bytes_naive\": {naive_bytes}, \"grouping_bytes_interned\": {interned_bytes}, \
                 \"memory_reduction\": {memory_reduction:.3}, \"levels_ms\": [{levels}]}}"
            ));
        };

        // ---- FD discovery ----
        let fd_cfg = |use_interned, threads| FdDiscoveryConfig {
            max_lhs: 2,
            max_g3: 0.0,
            exclude: exclude.clone(),
            use_interned,
            threads,
        };
        let (naive_ms, naive_fds) =
            timed_median(reps, || discover_fds(instance, &fd_cfg(false, 1)));
        for &threads in &thread_counts {
            // Cold interned runs: cold copies carry fresh identities and
            // empty columnar caches, so every rep pays the snapshot, the
            // dictionary encoding and all index builds inside the
            // measurement.
            let cold: Vec<_> = (0..reps).map(|_| cold_copy(instance)).collect();
            let mut cold_iter = cold.iter();
            let (interned_ms, interned_fds) = timed_median(reps, || {
                discover_fds(
                    cold_iter.next().expect("one fresh instance per rep"),
                    &fd_cfg(true, threads),
                )
            });
            drop(cold);
            assert_eq!(
                naive_fds.fds, interned_fds.fds,
                "interned FD discovery must report identical dependencies (threads {threads})"
            );
            assert_eq!(
                naive_fds.candidates_checked, interned_fds.candidates_checked,
                "candidate tallies must match (threads {threads})"
            );
            push_row(
                "fd_discovery",
                threads,
                naive_ms,
                interned_ms,
                naive_fds.fds.len(),
                (
                    "partitions",
                    naive_fds.partitions_built,
                    interned_fds.partitions_built,
                ),
                &interned_fds.level_ms,
            );
        }

        // ---- CFD discovery (reference miner intractable at 1M) ----
        if size <= 100_000 {
            let cfd_cfg = |threads| CfdDiscoveryConfig {
                min_support: 4,
                max_lhs: 2,
                exclude: exclude.clone(),
                threads,
                ..CfdDiscoveryConfig::default()
            };
            let (naive_ms, naive_cfds) = timed_median(reps, || {
                dq_discovery::reference::discover_cfds(instance, &cfd_cfg(1))
            });
            for &threads in &thread_counts {
                let cold: Vec<_> = (0..reps).map(|_| cold_copy(instance)).collect();
                let mut cold_iter = cold.iter();
                let (interned_ms, interned_cfds) = timed_median(reps, || {
                    discover_cfds(
                        cold_iter.next().expect("one fresh instance per rep"),
                        &cfd_cfg(threads),
                    )
                });
                drop(cold);
                assert_eq!(
                    naive_cfds.variable_cfds, interned_cfds.variable_cfds,
                    "interned CFD discovery must report identical variable CFDs (threads {threads})"
                );
                assert_eq!(
                    naive_cfds.constant_cfds, interned_cfds.constant_cfds,
                    "interned CFD discovery must report identical constant CFDs (threads {threads})"
                );
                assert_eq!(
                    naive_cfds.candidates_checked, interned_cfds.candidates_checked,
                    "CFD candidate tallies must match the reference (threads {threads})"
                );
                push_row(
                    "cfd_discovery",
                    threads,
                    naive_ms,
                    interned_ms,
                    naive_cfds.len(),
                    (
                        "candidates",
                        naive_cfds.candidates_checked,
                        interned_cfds.candidates_checked,
                    ),
                    &interned_cfds.level_ms,
                );
            }
            // Identity where the tableau cap binds: both miners stop
            // validating once a tableau is full.
            let capped_cfg = |threads| CfdDiscoveryConfig {
                max_tableau: BINDING_TABLEAU_CAP,
                ..cfd_cfg(threads)
            };
            let capped_reference = dq_discovery::reference::discover_cfds(instance, &capped_cfg(1));
            for &threads in &thread_counts {
                let capped = discover_cfds(instance, &capped_cfg(threads));
                assert_eq!(
                    capped_reference.variable_cfds, capped.variable_cfds,
                    "variable CFDs must match the reference at max_tableau {BINDING_TABLEAU_CAP} (threads {threads})"
                );
                assert_eq!(
                    capped_reference.constant_cfds, capped.constant_cfds,
                    "constant CFDs must match the reference at max_tableau {BINDING_TABLEAU_CAP} (threads {threads})"
                );
                assert_eq!(
                    capped_reference.candidates_checked, capped.candidates_checked,
                    "CFD candidate tallies must match the reference at max_tableau {BINDING_TABLEAU_CAP} (threads {threads})"
                );
            }
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"sec1_discovery_naive_vs_interned\",\n  \
         \"workload\": \"dq_gen::customer (scaled city pool), error_rate {error_rate}, seed 42, exclude phn+name\",\n  \
         {}\n  \"threads\": {machine_threads},\n  \"results\": [\n{}\n  ]\n}}\n",
        provenance_json(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_discovery.json", &json).expect("write BENCH_discovery.json");
    println!("\nwrote BENCH_discovery.json");
}

/// Every this many rounds, a `--delta-bench` round also removes random live
/// tuples.
const DELTA_REMOVE_EVERY: usize = 3;

/// Incremental (patch-served) CFD violation maintenance vs. full
/// re-detection under a mixed append+edit+remove stream, written to
/// `BENCH_delta.json`.
///
/// Two identical working copies of the customer workload absorb the same
/// mutation stream — donor-copy cell edits (always in-domain, and usually
/// moving the tuple between LHS groups of some CFD), duplicate-tuple
/// appends, and every [`DELTA_REMOVE_EVERY`]th round the removal of random
/// live tuples, driven by a fixed LCG so every round is reproducible:
/// * `rebuild` — `dq_core::reference::detect_cfd_violations` from scratch
///   after every round,
///   one fresh index per CFD per call: the cost any pooled consumer paid
///   before cell writes became patchable;
/// * `patch` — `DetectionEngine::maintain_cfd_violations` against the
///   previous round's report: the delta journal lists the changed cells
///   and the removed tuples, the pooled indexes absorb them as CSR row
///   moves and drops (`patches` in the pool stats, never a rebuild), and
///   only the touched LHS groups are re-checked.
///
/// Both paths' reports are asserted identical after every round, and every
/// pool miss after round 0 is asserted to be an upgrade (`misses ==
/// patches + appends`).  The same stream at 2,000 tuples, with the
/// recorder's `maintain.cfd.groups_patched` and `store.patch.chunks_shared`
/// checks on top, is `tests/observability.rs::delta_stream_is_maintained_by_patches`.
fn delta_bench() {
    header("Delta bench — patch-maintained violations vs. full re-detection");
    let sizes = [100_000, 1_000_000];
    let error_rate = 0.05;
    let cfds = dq_gen::customer::paper_cfds();
    let rounds = 8usize;
    let mut rows = Vec::new();
    println!(
        "  tuples   rounds  edits/r  appends/r   rebuild        patch       speedup   violations"
    );
    for size in sizes {
        let workload = customer_workload_scaled(size, error_rate);
        // Monitor-shaped rounds: the delta is small relative to the
        // instance (like a repair round's writes or a feed's batch), not a
        // bulk rewrite touching most LHS groups.
        let edits_per_round = (size / 10_000).clamp(4, 128);
        let appends_per_round = (size / 20_000).clamp(1, 64);
        let removes_per_round = appends_per_round;

        let mut rebuild_instance = workload.dirty.clone();
        let mut patch_instance = workload.dirty.clone();
        let engine = DetectionEngine::new();

        // Round 0 runs outside the timers on both paths: the baseline pays
        // a full detection per round by design, and the incremental path
        // starts from an initial report exactly like a monitor would.
        let mut baseline = reference::detect_cfd_violations(&rebuild_instance, &cfds);
        let mut maintained = engine.maintain_cfd_violations(&patch_instance, &cfds, None);
        assert_eq!(&baseline, maintained.report());
        let built = engine.pool_stats();

        // A fixed LCG drives the stream so runs are exactly reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };

        let arity = rebuild_instance.schema().arity();
        let mut rebuild_ms = 0.0;
        let mut patch_ms = 0.0;
        for round in 0..rounds {
            let ids = rebuild_instance.ids();
            let mut edits = Vec::with_capacity(edits_per_round);
            for _ in 0..edits_per_round {
                let target = ids[next() % ids.len()];
                let attr = next() % arity;
                let donor = ids[next() % ids.len()];
                let value = rebuild_instance
                    .tuple(donor)
                    .expect("live")
                    .get(attr)
                    .clone();
                edits.push((target, attr, value));
            }
            let mut appends = Vec::with_capacity(appends_per_round);
            for _ in 0..appends_per_round {
                appends.push(
                    rebuild_instance
                        .tuple(ids[next() % ids.len()])
                        .expect("live")
                        .clone(),
                );
            }
            let mut removals = Vec::new();
            if round % DELTA_REMOVE_EVERY == DELTA_REMOVE_EVERY - 1 {
                removals.extend((0..removes_per_round).map(|_| ids[next() % ids.len()]));
                removals.sort_unstable();
                removals.dedup();
            }
            for instance in [&mut rebuild_instance, &mut patch_instance] {
                for (target, attr, value) in &edits {
                    instance
                        .update_cell(CellRef::new(*target, *attr), value.clone())
                        .expect("donor values are in-domain");
                }
                for tuple in &appends {
                    instance.insert(tuple.clone()).expect("same schema");
                }
                for &id in &removals {
                    instance.remove(id).expect("removed tuples are live");
                }
            }
            let (ms, report) = timed(|| reference::detect_cfd_violations(&rebuild_instance, &cfds));
            rebuild_ms += ms;
            baseline = report;
            let (ms, next_maintained) =
                timed(|| engine.maintain_cfd_violations(&patch_instance, &cfds, Some(&maintained)));
            patch_ms += ms;
            maintained = next_maintained;
            assert_eq!(
                &baseline,
                maintained.report(),
                "maintained report must equal full re-detection every round"
            );
            let stats = engine.pool_stats();
            assert_eq!(
                stats.misses - built.misses,
                (stats.patches - built.patches) + (stats.appends - built.appends),
                "after round 0 every pool miss is an upgrade, removals included"
            );
        }
        let stats = engine.pool_stats();
        assert!(
            stats.patches > 0,
            "the mixed stream must be served by index patches"
        );
        let speedup = rebuild_ms / patch_ms;
        let violations = baseline.total();
        println!(
            "{size:>8}   {rounds:>5}  {edits_per_round:>7}  {appends_per_round:>9}   {rebuild_ms:>9.1}ms  {patch_ms:>9.1}ms  {speedup:>7.2}x  {violations:>10}"
        );
        rows.push(format!(
            "    {{\"tuples\": {size}, \"rounds\": {rounds}, \
             \"edits_per_round\": {edits_per_round}, \"appends_per_round\": {appends_per_round}, \
             \"removes_per_round\": {removes_per_round}, \"remove_every\": {DELTA_REMOVE_EVERY}, \
             \"error_rate\": {error_rate}, \"violations\": {violations}, \
             \"rebuild_ms\": {rebuild_ms:.3}, \"patch_ms\": {patch_ms:.3}, \
             \"speedup\": {speedup:.3}, \
             \"rebuild_rounds_per_sec\": {:.3}, \"patch_rounds_per_sec\": {:.3}, \
             \"pool_patches\": {}, \"pool_appends\": {}, \"pool_misses\": {}, \"pool_hits\": {}}}",
            rounds as f64 / (rebuild_ms / 1e3),
            rounds as f64 / (patch_ms / 1e3),
            stats.patches,
            stats.appends,
            stats.misses,
            stats.hits
        ));
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"sec5_delta_maintenance_patch_vs_rebuild\",\n  \
         \"workload\": \"dq_gen::customer (scaled city pool), error_rate {error_rate}, seed 42, mixed append+edit+remove stream\",\n  \
         {}\n  \"threads\": {threads},\n  \"results\": [\n{}\n  ]\n}}\n",
        provenance_json(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_delta.json", &json).expect("write BENCH_delta.json");
    println!("\nwrote BENCH_delta.json");
}

/// A matching engine over a fresh index pool: every matching-layer
/// artifact it serves is built on first use.
fn fresh_matching_engine() -> MatchingEngine {
    MatchingEngine::new(std::sync::Arc::new(dq_relation::IndexPool::new()))
}

fn figures_1_and_2() {
    header("Fig. 1 / Fig. 2 — CFDs catch what FDs miss, and detection scales");
    let d0 = dq_gen::customer::paper_instance();
    let fds = dq_gen::customer::paper_fds();
    let cfds = dq_gen::customer::paper_cfds();
    // Traditional FDs detect as their all-wildcard CFDs.
    let fd_cfds: Vec<Cfd> = fds.iter().map(Cfd::from_fd).collect();
    let engine = DetectionEngine::new();
    let report = engine.detect_cfd_violations(&d0, &cfds);
    println!(
        "paper instance D0: FD violations = {}, CFD violations = {}, dirty tuples = {}/3",
        engine.detect_cfd_violations(&d0, &fd_cfds).total(),
        report.total(),
        report.violating_tuples().len()
    );
    println!("\n tuples   err%   FD-detected   CFD-detected   detection-time");
    for &size in &[1_000usize, 10_000, 50_000] {
        for &rate in &[0.01, 0.05] {
            let w = customer_workload(size, rate);
            let start = Instant::now();
            let report = DetectionEngine::new().detect_cfd_violations(&w.dirty, &cfds);
            let elapsed = start.elapsed();
            let fd_found = DetectionEngine::new()
                .detect_cfd_violations(&w.dirty, &fd_cfds)
                .total();
            println!(
                "{:>7}  {:>4.0}%  {:>12}  {:>13}  {:>10.1}ms",
                size,
                rate * 100.0,
                fd_found,
                report.total(),
                elapsed.as_secs_f64() * 1e3
            );
        }
    }
}

fn figures_3_and_4() {
    header("Fig. 3 / Fig. 4 — CIND detection across source and target");
    let db = paper_database();
    let cinds = paper_cinds();
    let report = DetectionEngine::new()
        .detect_cind_violations(&db, &cinds)
        .unwrap();
    println!(
        "paper instance D1: cind1 = {}, cind2 = {}, cind3 = {} violations",
        report.of(0).len(),
        report.of(1).len(),
        report.of(2).len()
    );
    println!("\n orders   inj.violations   detected   time");
    for &size in &[1_000usize, 10_000, 50_000] {
        let w = order_workload(size, 0.05);
        let start = Instant::now();
        let report = DetectionEngine::new()
            .detect_cind_violations(&w.db, &cinds)
            .unwrap();
        let elapsed = start.elapsed();
        println!(
            "{:>7}  {:>15}  {:>9}  {:>6.1}ms",
            size,
            w.broken_orders.len() + w.broken_cds.len(),
            report.total(),
            elapsed.as_secs_f64() * 1e3
        );
    }
}

fn section_2_3_ecfds() {
    header("Section 2.3 — eCFDs: consistency no harder than CFDs");
    for &n in &[50usize, 200] {
        let cfds = synthetic_cfd_set(n, 8, 0.25);
        let start = Instant::now();
        let consistent = cfd_set_consistent(&cfds).consistent;
        let cfd_time = start.elapsed();
        // The analogous eCFD set (single-constant In sets).
        let ecfds: Vec<Ecfd> = cfds
            .iter()
            .map(|c| {
                let tp = &c.tableau()[0];
                let lhs: Vec<SetPattern> = tp
                    .lhs
                    .iter()
                    .map(|p| match p.as_const() {
                        Some(v) => SetPattern::eq(v.clone()),
                        None => SetPattern::any(),
                    })
                    .collect();
                let rhs: Vec<SetPattern> = tp
                    .rhs
                    .iter()
                    .map(|p| match p.as_const() {
                        Some(v) => SetPattern::eq(v.clone()),
                        None => SetPattern::any(),
                    })
                    .collect();
                let lhs_names: Vec<&str> =
                    c.lhs().iter().map(|&a| c.schema().attr_name(a)).collect();
                let rhs_names: Vec<&str> =
                    c.rhs().iter().map(|&a| c.schema().attr_name(a)).collect();
                Ecfd::new(
                    c.schema(),
                    &lhs_names,
                    &rhs_names,
                    vec![EcfdPattern::new(lhs, rhs)],
                )
                .unwrap()
            })
            .collect();
        let start = Instant::now();
        let e_consistent = ecfd_set_consistent(&ecfds).consistent;
        let ecfd_time = start.elapsed();
        println!(
            "n = {n:>4}: CFD consistency = {consistent} in {:>8.1}µs, eCFD consistency = {e_consistent} in {:>8.1}µs",
            micros(cfd_time),
            micros(ecfd_time)
        );
    }
}

fn examples_3x_matching() {
    header("Examples 3.1 / 3.2 / Sec. 4.2 — derived RCKs improve matching");
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let sigma = example_3_1_mds(&card, &billing);
    let space = vec![
        ComparisonSpace::new("email", "email", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("addr", "post", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("LN", "SN", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("tel", "phn", vec![SimilarityOp::Equality]),
        ComparisonSpace::new(
            "FN",
            "FN",
            vec![SimilarityOp::Equality, SimilarityOp::edit(3)],
        ),
    ];
    let rcks = derive_rcks(
        &sigma,
        &card,
        &billing,
        &space,
        &dq_match::paper::YC,
        &dq_match::paper::YB,
        3,
    );
    println!("derived RCKs ({}):", rcks.len());
    for r in &rcks {
        println!("  {r}");
    }
    let exact = RelativeKey::new(
        &card,
        &billing,
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::Equality),
        ],
        &dq_match::paper::YC,
        &dq_match::paper::YB,
    )
    .unwrap();
    println!("\n holders   rules            pairs  comparisons  precision  recall    f1");
    for &holders in &[1_000usize, 5_000] {
        let w = card_workload(holders);
        for (label, matcher) in [
            ("exact key", Matcher::new(vec![exact.clone()])),
            ("derived RCKs", Matcher::new(rcks.clone())),
        ] {
            let (result, quality) =
                matcher.evaluate(&fresh_matching_engine(), &w.card, &w.billing, &w.truth);
            println!(
                "{:>8}   {:<15} {:>6}  {:>11}  {:>9.3}  {:>6.3}  {:>5.3}",
                holders,
                label,
                result.len(),
                result.comparisons,
                quality.precision,
                quality.recall,
                quality.f1
            );
        }
    }
}

fn example_4_1_and_table1_consistency() {
    header("Example 4.1 / Table 1 — consistency analysis");
    // Example 4.1 itself.
    let d0 = dq_gen::customer::paper_cfds();
    println!(
        "paper CFDs (Fig. 2) consistent: {}",
        cfd_set_consistent(&d0).consistent
    );
    println!("Example 4.1 CFDs consistent:    {}", {
        use dq_relation::{Domain, RelationSchema};
        use std::sync::Arc;
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Bool), ("B", Domain::Text)],
        ));
        let psi1 = Cfd::new(
            &s,
            &["A"],
            &["B"],
            vec![
                PatternTuple::new(vec![cst(true)], vec![cst("b1")]),
                PatternTuple::new(vec![cst(false)], vec![cst("b2")]),
            ],
        )
        .unwrap();
        let psi2 = Cfd::new(
            &s,
            &["B"],
            &["A"],
            vec![
                PatternTuple::new(vec![cst("b1")], vec![cst(false)]),
                PatternTuple::new(vec![cst("b2")], vec![cst(true)]),
            ],
        )
        .unwrap();
        cfd_set_consistent(&[psi1, psi2]).consistent
    });
    println!("\n |Σ|    no-finite-domain (quadratic)   bool attrs (witness search)");
    for &n in &[50usize, 200, 800] {
        let infinite = synthetic_cfd_set(n, 8, 0.0);
        let finite = synthetic_cfd_set(n.min(100), 4, 0.5);
        let start = Instant::now();
        let _ = cfd_set_consistent_propagation(&infinite);
        let t1 = start.elapsed();
        let start = Instant::now();
        let _ = cfd_set_consistent(&finite);
        let t2 = start.elapsed();
        println!(
            "{n:>4}    {:>14.1}µs                {:>14.1}µs",
            micros(t1),
            micros(t2)
        );
    }
    println!("\nCINDs: always consistent (O(1)); CFDs+CINDs: bounded chase heuristic");
    let cinds = paper_cinds();
    let result = cind_set_consistent(&cinds);
    println!(
        "paper CINDs consistent = {}, witness database built = {}",
        result.consistent,
        result.witness_database().is_some()
    );
    let verdict = cfd_cind_consistent_bounded(&dq_gen::customer::paper_cfds(), &[], 1_000);
    println!("paper CFDs + no CINDs, bounded chase verdict: {verdict:?}");
}

fn table1_implication() {
    header("Table 1 — implication analysis");
    println!(" |Σ|    FD (linear)   CFD closure (quadratic)   CFD exact (coNP)   CIND chase");
    for &n in &[50usize, 200, 800] {
        let fds = synthetic_fd_set(n, 8);
        let fd_target = fds[0].clone();
        let start = Instant::now();
        let _ = fd_implies(&fds[1..], &fd_target);
        let t_fd = start.elapsed();

        let infinite = synthetic_cfd_set(n, 8, 0.0);
        let target = infinite[0].clone();
        let start = Instant::now();
        let _ = cfd_implies_closure(&infinite[1..], &target);
        let t_closure = start.elapsed();

        let finite = synthetic_cfd_set(n.min(100), 4, 0.5);
        let finite_target = finite[0].clone();
        let start = Instant::now();
        let _ = cfd_implies_exact(&finite[1..], &finite_target);
        let t_exact = start.elapsed();

        let (chain, cind_target) = cind_chain((n / 100).clamp(2, 8));
        let start = Instant::now();
        let _ = cind_implies_chase(&chain, &cind_target, 100_000);
        let t_cind = start.elapsed();

        println!(
            "{n:>4}    {:>9.1}µs   {:>20.1}µs   {:>15.1}µs   {:>9.1}µs",
            micros(t_fd),
            micros(t_closure),
            micros(t_exact),
            micros(t_cind)
        );
    }
    println!("\nfinite axiomatization: one derivation round over the paper CFDs");
    let schema = dq_gen::customer::customer_schema();
    let base: Vec<Cfd> = dq_gen::customer::paper_cfds()
        .iter()
        .flat_map(|c| c.normalize())
        .collect();
    let derived = derive_cfds_once(&schema, &base);
    let sound = derived.iter().all(|d| cfd_implies(&base, &d.cfd));
    println!(
        "derived {} CFDs, all semantically implied: {sound}",
        derived.len()
    );
}

fn example_4_2_propagation() {
    header("Example 4.2 / Theorem 4.7 — propagation through the union view");
    let (schema, sigma, view, view_schema) = propagation_setting();
    let f3 = Cfd::from_fd(&Fd::new(&view_schema, &["zip"], &["street"]));
    let f4 = Cfd::from_fd(&Fd::new(&view_schema, &["AC"], &["city"]));
    let phi7 = Cfd::new(
        &view_schema,
        &["CC", "zip"],
        &["street"],
        vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
    )
    .unwrap();
    let phi8 = Cfd::new(
        &view_schema,
        &["CC", "AC"],
        &["city"],
        vec![
            PatternTuple::new(vec![cst(44), wild()], vec![wild()]),
            PatternTuple::new(vec![cst(31), wild()], vec![wild()]),
            PatternTuple::new(vec![cst(1), wild()], vec![wild()]),
        ],
    )
    .unwrap();
    for (name, dep) in [
        ("f3 (FD)", &f3),
        ("f3+i (FD)", &f4),
        ("ϕ7 (CFD)", &phi7),
        ("ϕ8 (CFD)", &phi8),
    ] {
        let start = Instant::now();
        let result = propagates(&schema, &sigma, &view, dep).unwrap();
        println!(
            "{name:<10} propagates = {:<5}  ({:.1}µs)",
            result.holds(),
            micros(start.elapsed())
        );
    }
}

fn theorem_4_8_mds() {
    header("Theorem 4.8 — MD implication is PTIME");
    println!(" |Σ|     implication time    implied");
    for &n in &[10usize, 100, 1_000, 5_000] {
        let (sigma, target) = synthetic_md_set(n);
        let start = Instant::now();
        let implied = md_implies(&sigma, &target);
        println!(
            "{n:>5}    {:>12.1}µs      {implied}",
            micros(start.elapsed())
        );
    }
}

fn section_5_1_repair() {
    header("Section 5.1 — heuristic U-repair: cost, quality and scaling");
    let cfds = dq_gen::customer::paper_cfds();
    println!(" tuples   err%   changes   cost     precision  recall   f1     time");
    for &size in &[1_000usize, 5_000, 20_000] {
        for &rate in &[0.01, 0.05, 0.10] {
            let w = customer_workload(size, rate);
            let start = Instant::now();
            let outcome = repair_cfd_violations(
                &w.dirty,
                &cfds,
                &RepairCost::uniform(),
                &RepairConfig::default(),
            )
            .expect("paper CFD set is consistent");
            let elapsed = start.elapsed();
            let q = score_repair(&w.clean, &w.dirty, &outcome.repaired);
            println!(
                "{:>7}  {:>4.0}%  {:>8}  {:>7.1}  {:>9.3}  {:>6.3}  {:>5.3}  {:>6.1}ms",
                size,
                rate * 100.0,
                q.changes,
                outcome.log.cost,
                q.precision,
                q.recall,
                q.f1,
                elapsed.as_secs_f64() * 1e3
            );
        }
    }
}

fn example_5_1() {
    header("Example 5.1 — exponentially many repairs");
    println!("  n   tuples   repairs   enumeration time   wsd size");
    for &n in &[4usize, 8, 12, 16] {
        let (instance, constraints) = example_5_1_instance(n);
        let key = Fd::new(instance.schema(), &["A"], &["B"]);
        let wsd = WorldSetDecomposition::for_key(&instance, &key);
        if n <= 12 {
            let start = Instant::now();
            let count = count_repairs(&instance, &constraints);
            println!(
                "{n:>3}   {:>6}   {:>7}   {:>14.1}ms   {:>8}",
                instance.len(),
                count,
                Instant::now().duration_since(start).as_secs_f64() * 1e3,
                wsd.size()
            );
        } else {
            println!(
                "{n:>3}   {:>6}   {:>7}   {:>16}   {:>8}",
                instance.len(),
                wsd.world_count(),
                "(not enumerated)",
                wsd.size()
            );
        }
    }
}

fn section_5_2_cqa() {
    header("Section 5.2 — consistent query answering: oracle vs. rewriting");
    let keys = vec![KeySpec::new("account", vec![0])];
    println!(" groups  conflicts  repairs      oracle        rewriting   answers equal");
    for &conflicts in &[4usize, 8, 12] {
        let (db, constraints, query) = cqa_instance(conflicts * 4, 0.25);
        let repairs = repair_count(&db, "account", &constraints).unwrap();
        let start = Instant::now();
        let slow = certain_answers_oracle(&db, "account", &constraints, &query).unwrap();
        let t_slow = start.elapsed();
        let start = Instant::now();
        let fast = certain_answers_rewriting(&db, &keys, &query).unwrap();
        let t_fast = start.elapsed();
        println!(
            "{:>7}  {:>9}  {:>7}  {:>10.1}µs  {:>12.1}µs   {}",
            conflicts * 4,
            conflicts,
            repairs,
            micros(t_slow),
            micros(t_fast),
            slow == fast
        );
    }
    for &groups in &[1_000usize, 10_000, 50_000] {
        let (db, _, query) = cqa_instance(groups, 0.05);
        let start = Instant::now();
        let fast = certain_answers_rewriting(&db, &keys, &query).unwrap();
        println!(
            "{:>7}  {:>9}  {:>7}  {:>12}  {:>10.1}ms   (oracle infeasible)",
            groups,
            (groups as f64 * 0.05) as usize,
            "-",
            "-",
            Instant::now().duration_since(start).as_secs_f64() * 1e3,
        );
        let _ = fast;
    }
}

fn section_5_3_representations() {
    header("Section 5.3 — condensed representations of all repairs");
    println!("  n   repairs   nucleus tuples   nucleus vars   wsd size   nucleus answers = certain answers");
    let query = ConjunctiveQuery::new(
        vec!["a"],
        vec![Atom::new("r", vec![Term::var("a"), Term::var("b")])],
        vec![],
    );
    for &n in &[4usize, 8, 10] {
        let (instance, constraints) = example_5_1_instance(n);
        let key = Fd::new(instance.schema(), &["A"], &["B"]);
        let stats = nucleus_stats(&instance, &key);
        let nucleus = nucleus_for_fd(&instance, &key);
        let via_nucleus = evaluate_on_nucleus(&nucleus, "r", &query);
        let db = single_relation_db(instance.clone());
        let oracle = certain_answers_oracle(&db, "r", &constraints, &query).unwrap();
        let wsd = WorldSetDecomposition::for_key(&instance, &key);
        println!(
            "{n:>3}   {:>7}   {:>14}   {:>12}   {:>8}   {}",
            stats.represented_worlds,
            stats.nucleus_tuples,
            stats.variables,
            wsd.size(),
            via_nucleus == oracle
        );
    }
}

fn section_1_discovery() {
    use dq_discovery::prelude::*;
    header("Section 1 — profiling: discovering the cleaning rules from data");
    println!(" tuples   profile-time   FDs found   CFDs found (var+const)   discovery-time   rules hold on sample");
    for &size in &[500usize, 2_000, 8_000] {
        let workload = customer_workload(size, 0.0);
        let schema = workload.clean.schema().clone();
        let exclude = vec![schema.attr("phn"), schema.attr("name")];
        let start = Instant::now();
        let profile = dq_discovery::profile::profile_relation(&workload.clean);
        let t_profile = start.elapsed();
        let fd_config = FdDiscoveryConfig {
            max_lhs: 2,
            exclude: exclude.clone(),
            ..FdDiscoveryConfig::default()
        };
        let fds = discover_fds(&workload.clean, &fd_config);
        let cfd_config = CfdDiscoveryConfig {
            min_support: 4,
            max_lhs: 2,
            exclude,
            ..CfdDiscoveryConfig::default()
        };
        let start = Instant::now();
        let cfds = discover_cfds(&workload.clean, &cfd_config);
        let t_discovery = start.elapsed();
        let clean = DetectionEngine::new()
            .detect_cfd_violations(&workload.clean, &cfds.all())
            .is_clean();
        println!(
            "{:>7}   {:>10.1}ms   {:>9}   {:>11}+{:<10}   {:>12.1}ms   {}",
            size,
            t_profile.as_secs_f64() * 1e3,
            fds.fds.len(),
            cfds.variable_cfds.len(),
            cfds.constant_cfds.len(),
            t_discovery.as_secs_f64() * 1e3,
            clean
        );
        let _ = profile;
    }
}

fn section_5_1_master_data() {
    use dq_cleaning::prelude::*;
    use dq_repair::quality::score_repair;
    header("Section 5.1 (remark) / Section 6 — repairing with master data vs. blind repair");
    println!(" entities   err%   matched   fusion-fixes   repair-fixes   precision/recall/F1 (master)   precision/recall/F1 (repair only)");
    let cfds = dq_gen::customer::paper_cfds();
    for &entities in &[500usize, 2_000] {
        for &rate in &[0.1, 0.25] {
            let w = master_workload(entities, rate);
            let unified = CleaningPipeline::with_master(
                cfds.clone(),
                MasterData::new(w.master.clone()),
                master_rules(),
                master_fusion_attrs(),
            )
            .run(&w.dirty)
            .expect("paper CFD set is consistent");
            let baseline = CleaningPipeline::repair_only(cfds.clone())
                .run(&w.dirty)
                .expect("paper CFD set is consistent");
            let qm = score_repair(&w.clean, &w.dirty, &unified.cleaned);
            let qb = score_repair(&w.clean, &w.dirty, &baseline.cleaned);
            println!(
                "{:>9}  {:>4.0}%   {:>7}   {:>12}   {:>12}   {:>6.2}/{:>5.2}/{:>5.2}              {:>6.2}/{:>5.2}/{:>5.2}",
                entities,
                rate * 100.0,
                unified.master_matches,
                unified.fusion_changes,
                unified.repair_changes,
                qm.precision, qm.recall, qm.f1,
                qb.precision, qb.recall, qb.f1,
            );
        }
    }
}

fn section_5_2_aggregates() {
    use dq_relation::{Domain, RelationInstance, RelationSchema, Value};
    use std::sync::Arc;
    header("Section 5.2 (remark) — range-consistent answers for aggregation queries");
    println!(" groups   conflicts   SUM range            MIN range        MAX range        COUNT certain   time");
    for &groups in &[1_000usize, 10_000, 50_000] {
        let schema = Arc::new(RelationSchema::new(
            "salary",
            [("emp", Domain::Text), ("amount", Domain::Int)],
        ));
        let mut inst = RelationInstance::new(schema);
        let mut conflicts = 0usize;
        for i in 0..groups {
            inst.insert_values([Value::str(format!("e{i}")), Value::int(1_000 + i as i64)])
                .unwrap();
            if i % 4 == 0 {
                inst.insert_values([Value::str(format!("e{i}")), Value::int(2_000 + i as i64)])
                    .unwrap();
                conflicts += 1;
            }
        }
        let amount = inst.schema().attr("amount");
        let start = Instant::now();
        let sum = range_consistent_aggregate(&inst, &[0], AggregateFn::Sum, amount);
        let min = range_consistent_aggregate(&inst, &[0], AggregateFn::Min, amount);
        let max = range_consistent_aggregate(&inst, &[0], AggregateFn::Max, amount);
        let count = range_consistent_aggregate(&inst, &[0], AggregateFn::Count, amount);
        let elapsed = start.elapsed();
        println!(
            "{:>7}   {:>9}   [{:>9.0}, {:>9.0}]   [{:>5.0}, {:>5.0}]   [{:>7.0}, {:>7.0}]   {:>13}   {:>6.1}ms",
            groups,
            conflicts,
            sum.lower, sum.upper,
            min.lower, min.upper,
            max.lower, max.upper,
            count.is_certain(),
            elapsed.as_secs_f64() * 1e3
        );
    }
}

fn section_5_3_ctables() {
    use dq_repr::ctable::CTable;
    header("Section 5.3 — c-tables: conditioned tuples represent all key repairs");
    println!("  n   worlds (repairs)   c-table size   certain tuples   every world is a repair");
    for &n in &[4usize, 8, 10] {
        let (instance, _) = example_5_1_instance(n);
        let key = Fd::new(instance.schema(), &["A"], &["B"]);
        let table = CTable::from_key_repairs(&instance, &key);
        let all_repairs = table.worlds().iter().all(|w| key.holds_on(w));
        println!(
            "{n:>3}   {:>16}   {:>12}   {:>14}   {}",
            table.world_count(),
            table.size(),
            table.certain_tuples().len(),
            all_repairs
        );
    }
}

fn section_3_1_rule_learning() {
    use dq_discovery::prelude::*;
    header("Section 3.1 — matching rules discovered via learning");
    let space = vec![
        ComparisonSpace::new("LN", "SN", vec![SimilarityOp::Equality]),
        ComparisonSpace::new(
            "FN",
            "FN",
            vec![SimilarityOp::Equality, SimilarityOp::edit(3)],
        ),
        ComparisonSpace::new("tel", "phn", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("email", "email", vec![SimilarityOp::Equality]),
        ComparisonSpace::new("addr", "post", vec![SimilarityOp::Equality]),
    ];
    println!(
        " holders   candidates   rules kept   combined P/R/F1        hand-written (LN,FN)= P/R/F1"
    );
    for &holders in &[250usize, 1_000] {
        let w = card_workload(holders);
        let start = Instant::now();
        let learned = learn_relative_keys(
            &w.card,
            &w.billing,
            &w.truth,
            &space,
            &dq_match::paper::YC,
            &dq_match::paper::YB,
            &RuleLearningConfig::default(),
            &fresh_matching_engine(),
        );
        let elapsed = start.elapsed();
        let baseline_key = RelativeKey::new(
            w.card.schema(),
            w.billing.schema(),
            vec![
                ("LN", "SN", SimilarityOp::Equality),
                ("FN", "FN", SimilarityOp::Equality),
            ],
            &dq_match::paper::YC,
            &dq_match::paper::YB,
        )
        .expect("baseline rule");
        let baseline =
            Matcher::new(vec![baseline_key]).run(&fresh_matching_engine(), &w.card, &w.billing);
        let qb = score(&baseline.matches, &w.truth);
        println!(
            "{:>8}   {:>10}   {:>10}   {:.2}/{:.2}/{:.2} ({:>6.0}ms)   {:.2}/{:.2}/{:.2}",
            holders,
            learned.candidates_evaluated,
            learned.rules.len(),
            learned.combined.precision,
            learned.combined.recall,
            learned.combined.f1,
            elapsed.as_secs_f64() * 1e3,
            qb.precision,
            qb.recall,
            qb.f1
        );
    }
}

fn section_5_1_cind_insertions() {
    use dq_repair::insertion::{repair_cind_violations_by_insertion, InsertionRepairConfig};
    header("Section 5.1 — S-repair insertions for CIND violations");
    println!(" orders   dangling   inserted   rounds   consistent   time");
    let cinds = dq_gen::orders::paper_cinds();
    for &orders in &[1_000usize, 10_000] {
        let w = order_workload(orders, 0.05);
        let dangling = DetectionEngine::new()
            .detect_cind_violations(&w.db, &cinds)
            .map(|report| report.total())
            .unwrap_or(0);
        let start = Instant::now();
        let outcome =
            repair_cind_violations_by_insertion(&w.db, &cinds, &InsertionRepairConfig::default())
                .expect("insertion repair runs");
        let elapsed = start.elapsed();
        println!(
            "{:>7}   {:>8}   {:>8}   {:>6}   {:>10}   {:>6.1}ms",
            orders,
            dangling,
            outcome.insertion_count(),
            outcome.rounds,
            outcome.consistent,
            elapsed.as_secs_f64() * 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Bench>, String> {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parser_accepts_the_documented_flags_only() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--delta-bench"]), Ok(Some(Bench::Delta)));
        assert_eq!(parse(&["--discovery-bench"]), Ok(Some(Bench::Discovery)));
        for retired in ["--detection-bench", "--scale-bench", "--smoke", "--profile"] {
            assert!(parse(&[retired]).is_err(), "{retired}");
        }
        assert!(parse(&["--delta-bench", "--smoke"]).is_err());
        assert!(parse(&["--delta-bench", "--delta-bench"]).is_err());
        assert!(parse(&["--delta-bench", "--discovery-bench"]).is_err());
    }
}
