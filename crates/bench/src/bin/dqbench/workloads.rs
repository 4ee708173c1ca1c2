//! The four workloads.  Each builds its inputs from the run's seed with the
//! `dq_gen` generators, sets up (timed, repeated), runs the measured loop,
//! and checks every op against an oracle computed outside the timers.

use crate::measure::{Ctx, ReportDigest, RunConfig, RunResult, Sample};
use crate::trace::Tracer;
use dq_cleaning::{
    fuse_from_master, match_against_master, CleaningPipeline, CleaningReport, MasterData,
    StageSummary,
};
use dq_core::analysis::{analyze_cfds, ensure_consistent, AnalysisOptions};
use dq_core::{Cfd, CfdViolationReport, DetectionEngine, Fd, MaintainedCfdViolations};
use dq_discovery::{
    discover_cfds, discover_fds, discover_fds_from_shards, CfdDiscoveryConfig, DiscoveredFds,
    FdDiscoveryConfig,
};
use dq_gen::customer::{customer_schema, generate_customers, paper_cfds, CustomerConfig};
use dq_gen::master::{generate_master_workload, MasterConfig, MasterWorkload};
use dq_match::rck::RelativeKey;
use dq_match::similarity::SimilarityOp;
use dq_relation::instance::CellRef;
use dq_relation::store::persist::{open_mmap, SaveStats};
use dq_relation::store::{ColumnarStats, SHARD_ROWS};
use dq_relation::{csv, RelationInstance, Tuple, TupleId, Value};
use dq_repair::quality::score_repair;
use dq_repair::urepair::repair_cfd_violations_with_engine;
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "clean-master-20k",
    "monitor-delta-100k",
    "profile-rules-100k",
    "ooc-shards-200k",
];

/// Runs one workload in this process.
pub fn run(cfg: RunConfig) -> RunResult {
    let mut ctx = Ctx::new(cfg);
    let passed = match ctx.cfg.workload {
        "clean-master-20k" => CleanMaster::new(&ctx.cfg).drive(&mut ctx),
        "monitor-delta-100k" => MonitorDelta::new(&ctx.cfg).drive(&mut ctx),
        "profile-rules-100k" => ProfileRules::new(&ctx.cfg).drive(&mut ctx),
        "ooc-shards-200k" => OocShards::new(&ctx.cfg).and_then(|mut w| w.drive(&mut ctx)),
        other => unreachable!("the command line admits only known workloads, not {other}"),
    };
    if let Err(reason) = &passed {
        eprintln!("dqbench: {}: {reason}", ctx.cfg.workload);
    }
    ctx.result(passed.is_ok())
}

/// The phases every workload goes through.
trait Workload {
    /// One op of the measured loop, checked by its oracle; `None` when the
    /// program returned an error instead of output.
    fn op(&mut self, ctx: &mut Ctx, id: u64) -> Option<Sample>;

    /// One set-up; returns the seconds of program work it took.  By
    /// default, one op.
    fn setup(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let id = ctx.next_id();
        Ok(self.op(ctx, id).ok_or("the warm-up op failed")?.secs)
    }

    /// Checks made once the heap peak has been read.
    fn finish(&mut self, _ctx: &mut Ctx) -> Result<(), String> {
        Ok(())
    }

    fn drive(&mut self, ctx: &mut Ctx) -> Result<(), String>
    where
        Self: Sized,
    {
        for _ in 0..ctx.cfg.setups() {
            let secs = self.setup(ctx)?;
            ctx.setup_done(secs);
        }
        ctx.measure(|ctx, id| self.op(ctx, id));
        self.finish(ctx)?;
        if let (true, Some(path)) = (ctx.cfg.trace, &ctx.cfg.spans) {
            ctx.tracer
                .write_spans(path)
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
            eprintln!("dqbench: spans written to {}", path.display());
        }
        Ok(())
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Attributes the CFDs read, in order.
fn cfd_attrs(cfds: &[Cfd]) -> Vec<usize> {
    let mut attrs: Vec<usize> = cfds
        .iter()
        .flat_map(|c| c.lhs().iter().chain(c.rhs()))
        .copied()
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

/// Builds the columnar snapshot and the columns `attrs`, the ones the op
/// reads, as detection and discovery would on first use.
fn snapshot(instance: &RelationInstance, attrs: &[usize]) -> ColumnarStats {
    let store = instance.columnar();
    for &attr in attrs {
        store.column(instance, attr);
    }
    store.stats()
}

fn count_snapshot(ctx: &mut Ctx, stats: &ColumnarStats) {
    ctx.count(
        "relation.store.distinct_values",
        stats.distinct_values as f64,
    );
    ctx.count("relation.store.heap_bytes", stats.heap_bytes as f64);
}

/// The customer relation with a city pool scaled to the instance, so each
/// `[CC, AC]` group holds about a thousand tuples at every size.
fn customer_config(tuples: usize, seed: u64) -> CustomerConfig {
    CustomerConfig {
        tuples,
        error_rate: 0.05,
        seed,
        cities_per_country: (tuples / 2_000).max(3),
    }
}

fn customers(tuples: usize, seed: u64) -> RelationInstance {
    generate_customers(&customer_config(tuples, seed)).dirty
}

/// Discovery settings of the profiling workloads: left-hand sides of at
/// most two attributes, the surrogate key and the free-text name left out.
fn fd_config() -> FdDiscoveryConfig {
    let schema = customer_schema();
    FdDiscoveryConfig {
        max_lhs: 2,
        exclude: vec![schema.attr("phn"), schema.attr("name")],
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// clean-master-20k
// ---------------------------------------------------------------------------

/// The paper's cleaning loop with master data.  An op parses the dirty
/// relation, vets the rules and runs the master-data pipeline on a fresh
/// engine.  Set-up loads the master relation and runs one op.
struct CleanMaster {
    w: MasterWorkload,
    dirty_csv: String,
    master_csv: String,
    cfds: Vec<Cfd>,
    attrs: Vec<usize>,
    /// Naive detection's violation total on the dirty input.
    naive_total: usize,
    pipeline: Option<CleaningPipeline>,
    /// The first op's report; every later op must reproduce it.
    reference: Option<CleaningReport>,
    min_f1: f64,
}

/// Repair F1 below which an op fails: cleaning this generator's errors
/// from master data is exact.
const MIN_REPAIR_F1: f64 = 0.99;

impl CleanMaster {
    fn new(cfg: &RunConfig) -> Self {
        let w = generate_master_workload(&MasterConfig {
            entities: if cfg.smoke { 300 } else { 20_000 },
            error_rate: 0.05,
            name_variation_rate: 0.4,
            seed: cfg.seed,
        });
        let cfds = paper_cfds();
        CleanMaster {
            dirty_csv: csv::to_text(&w.dirty).expect("generated cells render as CSV"),
            master_csv: csv::to_text(&w.master).expect("generated cells render as CSV"),
            naive_total: dq_core::detect::detect_cfd_violations(&w.dirty, &cfds).total(),
            attrs: cfd_attrs(&cfds),
            cfds,
            w,
            pipeline: None,
            reference: None,
            min_f1: 1.0,
        }
    }

    fn clean(
        ctx: &mut Ctx,
        pipeline: &mut CleaningPipeline,
        text: &str,
        cfds: &[Cfd],
        attrs: &[usize],
    ) -> Result<CleaningReport, String> {
        let tr = &mut ctx.tracer;
        let dirty = tr
            .layer("relation.csv", || csv::from_text(customer_schema(), text))
            .map_err(err)?;
        let stats = tr.layer("relation.store", || snapshot(&dirty, attrs));
        let analyzed = tr
            .layer("core.analysis", || {
                analyze_cfds(cfds, &AnalysisOptions::default())
            })
            .map_err(err)?;
        count_snapshot(ctx, &stats);
        ctx.count("relation.csv.bytes", text.len() as f64);
        ctx.count("core.analysis.rules_dropped", analyzed.dropped as f64);
        pipeline.cfds = analyzed.rules;
        if ctx.tracer.enabled() {
            Self::staged(ctx, pipeline, &dirty)
        } else {
            pipeline
                .run_with_engine(&dirty, &DetectionEngine::new())
                .map_err(err)
        }
    }

    /// `CleaningPipeline::run_with_engine` with its stages called one by
    /// one, in the pipeline's order, so each gets its own span.  The oracle
    /// holds its output to the untraced ops'.
    fn staged(
        ctx: &mut Ctx,
        p: &CleaningPipeline,
        dirty: &RelationInstance,
    ) -> Result<CleaningReport, String> {
        let tr = &mut ctx.tracer;
        let engine = DetectionEngine::new();
        let master = p.master.as_ref().expect("the pipeline carries master data");
        tr.layer("core.analysis", || ensure_consistent(&p.cfds))
            .map_err(err)?;
        let initial = tr.layer("core.engine", || {
            engine.detect_cfd_violations(dirty, &p.cfds)
        });
        let current = dirty.clone();
        let (matches, ambiguous) = tr.layer("cleaning.master", || {
            match_against_master(&current, master, &p.rules)
        });
        let (fused, log) = tr.layer("cleaning.fusion", || {
            fuse_from_master(&current, master, &matches, &p.fusion_attrs)
        });
        let fused_total = tr
            .layer("core.engine", || {
                engine.detect_cfd_violations(&fused, &p.cfds)
            })
            .total();
        let outcome = tr
            .layer("repair.urepair", || {
                repair_cfd_violations_with_engine(
                    &fused,
                    &p.cfds,
                    &p.cost,
                    &p.repair_config,
                    &engine,
                )
            })
            .map_err(err)?;
        let repaired_total = tr
            .layer("core.engine", || {
                engine.detect_cfd_violations(&outcome.repaired, &p.cfds)
            })
            .total();
        let remaining = tr
            .layer("core.engine", || {
                engine.detect_cfd_violations(&outcome.repaired, &p.cfds)
            })
            .total();
        let stats = engine.pool_stats();
        let emitted = initial.total() + fused_total + repaired_total + remaining;
        ctx.count("core.engine.violations_emitted", emitted as f64);
        ctx.count("core.engine.pool_hits", stats.hits as f64);
        ctx.count(
            "core.engine.pool_lookups",
            (stats.hits + stats.misses) as f64,
        );
        ctx.count("cleaning.master.matches", matches.len() as f64);
        ctx.count("cleaning.master.ambiguous", ambiguous as f64);
        ctx.count("cleaning.fusion.changes", log.change_count() as f64);
        ctx.count("repair.urepair.rounds", outcome.rounds as f64);
        ctx.count("repair.urepair.changes", outcome.log.change_count() as f64);
        let stage = |stage: &str, violations: usize, changes: usize| StageSummary {
            stage: stage.into(),
            violations,
            changes,
        };
        Ok(CleaningReport {
            stages: vec![
                stage("detect", initial.total(), 0),
                stage("fuse", fused_total, log.change_count()),
                stage("repair", repaired_total, outcome.log.change_count()),
                stage("verify", remaining, 0),
            ],
            cleaned: outcome.repaired,
            initial_violations: initial.total(),
            remaining_violations: remaining,
            master_matches: matches.len(),
            ambiguous_matches: ambiguous,
            fusion_changes: log.change_count(),
            repair_changes: outcome.log.change_count(),
            consistent: remaining == 0,
        })
    }

    /// The op's oracle.
    fn check(&mut self, report: &CleaningReport) -> Result<(), String> {
        let n = self.w.dirty.len();
        if report.initial_violations != self.naive_total {
            return Err(format!(
                "initial violations {} differ from naive detection's {}",
                report.initial_violations, self.naive_total
            ));
        }
        if !report.consistent || report.remaining_violations != 0 {
            return Err(format!(
                "{} violations remain after cleaning",
                report.remaining_violations
            ));
        }
        if report.master_matches != n {
            return Err(format!(
                "{} of {n} tuples matched the master",
                report.master_matches
            ));
        }
        let f1 = score_repair(&self.w.clean, &self.w.dirty, &report.cleaned).f1;
        self.min_f1 = self.min_f1.min(f1);
        if f1 < MIN_REPAIR_F1 {
            return Err(format!("repair F1 {f1} below {MIN_REPAIR_F1}"));
        }
        let Some(first) = &self.reference else {
            self.reference = Some(report.clone());
            return Ok(());
        };
        let summary = |r: &CleaningReport| {
            let stages: Vec<(String, usize, usize)> = r
                .stages
                .iter()
                .map(|s| (s.stage.clone(), s.violations, s.changes))
                .collect();
            (
                stages,
                r.ambiguous_matches,
                r.fusion_changes,
                r.repair_changes,
            )
        };
        if summary(first) != summary(report) {
            Err("stage summaries differ from the first op's".into())
        } else if !first.cleaned.same_tuples_as(&report.cleaned) {
            Err("cleaned instance differs from the first op's".into())
        } else {
            Ok(())
        }
    }
}

impl Workload for CleanMaster {
    fn setup(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let start = Instant::now();
        let schema = customer_schema();
        let master = csv::from_text(Arc::clone(&schema), &self.master_csv).map_err(err)?;
        self.pipeline = Some(CleaningPipeline::with_master(
            self.cfds.clone(),
            MasterData::new(master),
            vec![RelativeKey::new(
                &schema,
                &schema,
                vec![
                    ("phn", "phn", SimilarityOp::Equality),
                    ("name", "name", SimilarityOp::edit(12)),
                ],
                &["street", "city", "zip"],
                &["street", "city", "zip"],
            )
            .map_err(err)?],
            vec![
                schema.attr("street"),
                schema.attr("city"),
                schema.attr("zip"),
            ],
        ));
        let load = secs_since(start);
        let id = ctx.next_id();
        let warm = self.op(ctx, id).ok_or("the warm-up op failed")?.secs;
        Ok(load + warm)
    }

    fn op(&mut self, ctx: &mut Ctx, id: u64) -> Option<Sample> {
        let pipeline = self.pipeline.as_mut().expect("set up before the first op");
        let start = Instant::now();
        ctx.tracer.begin_op(id);
        let result = Self::clean(ctx, pipeline, &self.dirty_csv, &self.cfds, &self.attrs);
        ctx.tracer.end_op();
        let sample = Sample {
            secs: secs_since(start),
            tuples: self.w.dirty.len() as f64,
        };
        ctx.settle(id, result, sample, |report| self.check(&report))
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        ctx.fields.push(("repair_f1", self.min_f1));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// monitor-delta-100k
// ---------------------------------------------------------------------------

/// Corrupting edits, and appended rows, per round (smoke runs write fewer,
/// so that the smaller instance stays as lightly corrupted).
const PER_ROUND: usize = 16;
const SMOKE_PER_ROUND: usize = 2;
/// Rounds a corruption stays before it is reverted.
const WINDOW_ROUNDS: usize = 10;
/// Every this many rounds, a round also removes the rows appended before it
/// since the last such round.
const DELETE_EVERY: u64 = 10;
/// Rounds of set-up after the initial detection.
const WARMUP_ROUNDS: usize = 10;
/// Every this many rounds the maintained report is checked against a fresh
/// full detection.
const CHECK_EVERY: u64 = 40;
/// Rows of the append feed, reused cyclically.
const FEED_ROWS: usize = 4_096;
/// Largest relative drift of the violation total over the measured loop.
const MAX_DRIFT: f64 = 0.10;

/// SplitMix64: the write stream's own small, seeded generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The monitor's writes.  A round sets `per_round` cells of base rows to
/// the value a random donor row holds, reverts the corruptions older than
/// [`WINDOW_ROUNDS`] rounds, and appends `per_round` feed rows; every
/// [`DELETE_EVERY`]th round also removes the rows appended before it.
/// Outstanding corruptions and appended rows are both bounded, so the
/// violation total stays level.
struct Stream {
    rng: SplitMix64,
    per_round: usize,
    base_rows: usize,
    next_feed: usize,
    outstanding: VecDeque<(CellRef, Value)>,
    corrupted: HashSet<CellRef>,
    appended: VecDeque<TupleId>,
    round: u64,
}

impl Stream {
    fn new(seed: u64, per_round: usize, base_rows: usize) -> Self {
        Stream {
            rng: SplitMix64(seed),
            per_round,
            base_rows,
            next_feed: 0,
            outstanding: VecDeque::new(),
            corrupted: HashSet::new(),
            appended: VecDeque::new(),
            round: 0,
        }
    }

    /// Applies one round's writes; returns how many rows it wrote.
    fn apply(&mut self, instance: &mut RelationInstance, feed: &[Tuple]) -> Result<u64, String> {
        let arity = instance.schema().arity();
        let mut writes = 0u64;
        for _ in 0..self.per_round {
            let cell = loop {
                let cell = CellRef::new(
                    TupleId(self.rng.below(self.base_rows)),
                    self.rng.below(arity),
                );
                if !self.corrupted.contains(&cell) {
                    break cell;
                }
            };
            let donor = TupleId(self.rng.below(self.base_rows));
            let value = instance
                .cell(CellRef::new(donor, cell.attr))
                .ok_or("a base row is missing")?
                .clone();
            let old = instance
                .update_cell(cell, value)
                .map_err(err)?
                .ok_or("a base row is missing")?;
            self.outstanding.push_back((cell, old));
            self.corrupted.insert(cell);
            writes += 1;
        }
        while self.outstanding.len() > WINDOW_ROUNDS * self.per_round {
            let (cell, old) = self.outstanding.pop_front().expect("non-empty");
            instance.update_cell(cell, old).map_err(err)?;
            self.corrupted.remove(&cell);
            writes += 1;
        }
        for _ in 0..self.per_round {
            let row = feed[self.next_feed % feed.len()].clone();
            self.next_feed += 1;
            self.appended.push_back(instance.insert(row).map_err(err)?);
            writes += 1;
        }
        if self.round % DELETE_EVERY == DELETE_EVERY - 1 {
            while self.appended.len() > self.per_round {
                let id = self.appended.pop_front().expect("non-empty");
                instance.remove(id).ok_or("an appended row is missing")?;
                writes += 1;
            }
        }
        self.round += 1;
        Ok(writes)
    }
}

/// A closed loop with one client: each op is one round of writes followed
/// by `maintain_cfd_violations`.  Set-up is the initial full detection and
/// [`WARMUP_ROUNDS`] rounds.
struct MonitorDelta {
    base: RelationInstance,
    feed: Vec<Tuple>,
    cfds: Vec<Cfd>,
    attrs: Vec<usize>,
    seed: u64,
    per_round: usize,
    state: Option<Monitor>,
    /// Violation total when the measured loop starts.
    start_total: usize,
}

struct Monitor {
    instance: RelationInstance,
    engine: DetectionEngine,
    report: MaintainedCfdViolations,
    stream: Stream,
}

impl Monitor {
    /// The maintained report against a fresh full detection.
    fn check(&self, cfds: &[Cfd]) -> Result<(), String> {
        let fresh = DetectionEngine::new().detect_cfd_violations(&self.instance, cfds);
        ReportDigest::of(&fresh).check(&ReportDigest::of(self.report.report()))
    }
}

impl MonitorDelta {
    fn new(cfg: &RunConfig) -> Self {
        let tuples = if cfg.smoke { 2_000 } else { 100_000 };
        let base_config = customer_config(tuples, cfg.seed);
        let feed = generate_customers(&CustomerConfig {
            tuples: FEED_ROWS,
            seed: cfg.seed.wrapping_add(1),
            ..base_config.clone()
        })
        .dirty
        .tuples();
        let cfds = paper_cfds();
        MonitorDelta {
            base: generate_customers(&base_config).dirty,
            feed,
            attrs: cfd_attrs(&cfds),
            cfds,
            seed: cfg.seed,
            per_round: if cfg.smoke {
                SMOKE_PER_ROUND
            } else {
                PER_ROUND
            },
            state: None,
            start_total: 0,
        }
    }
}

impl Workload for MonitorDelta {
    fn setup(&mut self, ctx: &mut Ctx) -> Result<f64, String> {
        let instance = self.base.clone();
        let engine = DetectionEngine::new();
        let start = Instant::now();
        snapshot(&instance, &self.attrs);
        let report = engine.maintain_cfd_violations(&instance, &self.cfds, None);
        let mut secs = secs_since(start);
        self.state = Some(Monitor {
            stream: Stream::new(self.seed, self.per_round, instance.len()),
            instance,
            engine,
            report,
        });
        for _ in 0..WARMUP_ROUNDS {
            let id = ctx.next_id();
            secs += self.op(ctx, id).ok_or("a warm-up round failed")?.secs;
        }
        self.start_total = self.state.as_ref().map_or(0, |m| m.report.report().total());
        Ok(secs)
    }

    fn op(&mut self, ctx: &mut Ctx, id: u64) -> Option<Sample> {
        let m = self.state.as_mut().expect("set up before the first op");
        let before = m.engine.pool_stats();
        let start = Instant::now();
        ctx.tracer.begin_op(id);
        let tr = &mut ctx.tracer;
        let result = tr
            .layer_counted("relation.instance", || {
                let writes = m.stream.apply(&mut m.instance, &self.feed);
                let calls = *writes.as_ref().unwrap_or(&0);
                (writes, calls)
            })
            .map(|writes| {
                let stats = tr.layer("relation.store", || snapshot(&m.instance, &self.attrs));
                let next = tr.layer("core.engine.maintain", || {
                    m.engine
                        .maintain_cfd_violations(&m.instance, &self.cfds, Some(&m.report))
                });
                (writes, stats, next)
            });
        ctx.tracer.end_op();
        let secs = secs_since(start);
        let writes = result.map(|(writes, stats, next)| {
            m.report = next;
            let after = m.engine.pool_stats();
            let patches = after.patches - before.patches;
            let rebuilds = (after.misses - before.misses)
                .saturating_sub(patches + after.appends - before.appends);
            count_snapshot(ctx, &stats);
            ctx.count("relation.instance.writes", writes as f64);
            ctx.count("core.engine.maintain.pool_patches", patches as f64);
            ctx.count("core.engine.maintain.pool_rebuilds", rebuilds as f64);
            writes
        });
        let sample = Sample {
            secs,
            tuples: *writes.as_ref().unwrap_or(&0) as f64,
        };
        let checked_round = m.stream.round.is_multiple_of(CHECK_EVERY);
        let cfds = &self.cfds;
        ctx.settle(id, writes, sample, |_| {
            if checked_round {
                m.check(cfds)
            } else {
                Ok(())
            }
        })
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let m = self.state.as_ref().expect("set up before finishing");
        let last = m.report.report().total();
        ctx.fields
            .push(("start_violations", self.start_total as f64));
        ctx.fields.push(("last_violations", last as f64));
        m.check(&self.cfds)
            .map_err(|e| format!("final report: {e}"))?;
        let drift = (last as f64 - self.start_total as f64).abs() / self.start_total.max(1) as f64;
        if drift > MAX_DRIFT {
            return Err(format!(
                "the stream is not stationary: {last} violations at the end, {} at the start",
                self.start_total
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// profile-rules-100k
// ---------------------------------------------------------------------------

/// Rule discovery and vetting: FD discovery, CFD discovery, then analysis
/// of the mined rules with minimal-cover pruning, on a fresh clone made
/// outside the timer.  Emits no violations.  Set-up is one op.
struct ProfileRules {
    instance: RelationInstance,
    attrs: Vec<usize>,
    fd_cfg: FdDiscoveryConfig,
    cfd_cfg: CfdDiscoveryConfig,
    /// FDs the non-interned discovery path finds.
    naive_fds: Vec<Fd>,
    /// The first op's mined and vetted rules.
    reference: Option<(Vec<Cfd>, Vec<Cfd>)>,
}

impl ProfileRules {
    fn new(cfg: &RunConfig) -> Self {
        let instance = customers(if cfg.smoke { 200 } else { 100_000 }, cfg.seed);
        let fd_cfg = fd_config();
        let naive_fds = discover_fds(
            &instance.clone(),
            &FdDiscoveryConfig {
                use_interned: false,
                ..fd_cfg.clone()
            },
        )
        .fds;
        let attrs = (0..instance.schema().arity())
            .filter(|a| !fd_cfg.exclude.contains(a))
            .collect();
        ProfileRules {
            cfd_cfg: CfdDiscoveryConfig {
                max_lhs: fd_cfg.max_lhs,
                exclude: fd_cfg.exclude.clone(),
                ..Default::default()
            },
            instance,
            attrs,
            fd_cfg,
            naive_fds,
            reference: None,
        }
    }
}

impl Workload for ProfileRules {
    fn op(&mut self, ctx: &mut Ctx, id: u64) -> Option<Sample> {
        let fresh = self.instance.clone();
        let start = Instant::now();
        ctx.tracer.begin_op(id);
        let tr = &mut ctx.tracer;
        let stats = tr.layer("relation.store", || snapshot(&fresh, &self.attrs));
        let fds = tr.layer("discovery.fd", || discover_fds(&fresh, &self.fd_cfg));
        let mined = tr.layer("discovery.cfd", || discover_cfds(&fresh, &self.cfd_cfg));
        let analyzed = tr.layer("core.analysis", || {
            analyze_cfds(
                &mined.all(),
                &AnalysisOptions {
                    minimal_cover: true,
                    ..Default::default()
                },
            )
        });
        ctx.tracer.end_op();
        let sample = Sample {
            secs: secs_since(start),
            tuples: fresh.len() as f64,
        };
        count_snapshot(ctx, &stats);
        ctx.count(
            "discovery.fd.candidates_checked",
            fds.candidates_checked as f64,
        );
        ctx.count("discovery.cfd.rules_mined", mined.len() as f64);
        if let Ok(a) = &analyzed {
            ctx.count("core.analysis.rules_dropped", a.dropped as f64);
        }
        let result = analyzed.map_err(err);
        ctx.settle(id, result, sample, |analyzed| {
            if fds.fds != self.naive_fds {
                return Err("FDs differ from the non-interned discovery's".into());
            }
            let rules = (mined.all(), analyzed.rules);
            match &self.reference {
                None => self.reference = Some(rules),
                Some(first) if first != &rules => {
                    return Err("mined or vetted rules differ from the first op's".into())
                }
                Some(_) => {}
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------
// ooc-shards-200k
// ---------------------------------------------------------------------------

/// The out-of-core path: stream a CSV file into on-disk shards, map them,
/// detect CFD violations and discover FDs shard by shard, then drop the
/// mapping and remove the shards.  Set-up is one op.
struct OocShards {
    tuples: usize,
    seed: u64,
    dir: PathBuf,
    csv_path: PathBuf,
    csv_bytes: f64,
    shard_rows: usize,
    engine: DetectionEngine,
    cfds: Vec<Cfd>,
    fd_cfg: FdDiscoveryConfig,
    /// Each op's report digest and FDs, checked against the in-RAM engine
    /// once the run is over.
    outputs: Vec<(u64, ReportDigest, Vec<Fd>)>,
}

/// A directory of this process's own beside the benchmark executable, so
/// the benchmark writes nowhere but its build directory.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("dqbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}

impl OocShards {
    fn new(cfg: &RunConfig) -> Result<Self, String> {
        let tuples = if cfg.smoke { 2_500 } else { 200_000 };
        let dir = work_dir()?;
        let csv_path = dir.join("input.csv");
        let text = csv::to_text(&customers(tuples, cfg.seed)).map_err(err)?;
        std::fs::write(&csv_path, &text).map_err(err)?;
        Ok(OocShards {
            tuples,
            seed: cfg.seed,
            dir,
            csv_path,
            csv_bytes: text.len() as f64,
            // Smoke inputs are smaller than one default shard.
            shard_rows: if cfg.smoke { 1_024 } else { SHARD_ROWS },
            engine: DetectionEngine::new(),
            cfds: paper_cfds(),
            fd_cfg: fd_config(),
            outputs: Vec::new(),
        })
    }
}

impl OocShards {
    /// The op's library calls: ingest, map, detect, discover, clean up.
    fn ingest_detect_discover(
        &self,
        tr: &mut Tracer,
        shards: &Path,
    ) -> Result<(SaveStats, CfdViolationReport, DiscoveredFds), String> {
        let saved = tr
            .layer("relation.csv", || {
                csv::stream_file_into_store(
                    customer_schema(),
                    &self.csv_path,
                    shards,
                    self.shard_rows,
                )
            })
            .map_err(err)?;
        let mapped = tr
            .layer("relation.persist", || open_mmap(shards))
            .map_err(err)?;
        let report = tr.layer("core.stream", || {
            self.engine
                .detect_cfd_violations_from_shards(&mapped, &self.cfds)
        });
        let fds = tr.layer("discovery.fd", || {
            discover_fds_from_shards(&mapped, &self.fd_cfg)
        });
        tr.layer("relation.persist", || {
            drop(mapped);
            std::fs::remove_dir_all(shards)
        })
        .map_err(err)?;
        Ok((saved, report, fds))
    }
}

impl Drop for OocShards {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for OocShards {
    fn op(&mut self, ctx: &mut Ctx, id: u64) -> Option<Sample> {
        let shards = self.dir.join(format!("shards-{id}"));
        let start = Instant::now();
        ctx.tracer.begin_op(id);
        let result = self.ingest_detect_discover(&mut ctx.tracer, &shards);
        ctx.tracer.end_op();
        let sample = Sample {
            secs: secs_since(start),
            tuples: self.tuples as f64,
        };
        if let Ok((saved, report, fds)) = &result {
            ctx.count("relation.csv.bytes", self.csv_bytes);
            ctx.count("relation.persist.disk_bytes", saved.bytes_written as f64);
            ctx.count("relation.persist.input_bytes", self.csv_bytes);
            ctx.count("core.stream.violations_emitted", report.total() as f64);
            ctx.count(
                "discovery.fd.candidates_checked",
                fds.candidates_checked as f64,
            );
        }
        ctx.settle(id, result, sample, |(_, report, fds)| {
            self.outputs.push((id, ReportDigest::of(&report), fds.fds));
            Ok(())
        })
    }

    fn finish(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let instance = customers(self.tuples, self.seed);
        let expected =
            ReportDigest::of(&DetectionEngine::new().detect_cfd_violations(&instance, &self.cfds));
        let expected_fds = discover_fds(&instance, &self.fd_cfg).fds;
        for (id, digest, fds) in &self.outputs {
            if let Err(reason) = expected.check(digest) {
                ctx.tally
                    .fail(*id, &format!("shard detection vs in-RAM engine: {reason}"));
            } else if fds != &expected_fds {
                ctx.tally
                    .fail(*id, "FDs differ from the in-RAM discovery's");
            }
        }
        ctx.fields.push(("violations", expected.total() as f64));
        Ok(())
    }
}
