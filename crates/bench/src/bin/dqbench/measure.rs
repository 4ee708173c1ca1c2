//! What every workload shares: the run configuration, the measured loop,
//! op tallies and oracles, and turning samples into metrics.

use crate::alloc;
use crate::trace::{layer_table, render_table, Tracer, LAYERS};
use dq_core::CfdViolationReport;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark run, as the command line asked for it.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    /// Wall time of the measured loop.
    pub seconds: f64,
    /// Trace every second op and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// CI-sized inputs, one set-up, a handful of ops.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

impl RunConfig {
    /// Set-ups per run: `setup_s` is their median.  A traced run reports
    /// no `setup_s` and sets up once.
    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// Fewest ops of the measured loop, however long they take (two, so a
    /// traced smoke run traces one op and leaves one untraced).
    fn min_ops(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
/// The 95th-percentile op latency goes into the result record instead: only
/// `monitor-delta-100k` runs enough ops for ten of them to lie beyond it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("op_p50_ms", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// The per-layer counters and ratios, after the per-layer shares, in
/// `BENCHMARK.json` order.  Counts are per traced op.
pub const LAYER_COUNTERS: [(&str, &str); 18] = [
    ("relation.csv.mib_per_s", "MiB/s"),
    ("relation.store.distinct_values", "count"),
    ("relation.store.heap_mib", "MiB"),
    ("relation.persist.disk_bytes_per_input_byte", "ratio"),
    ("relation.instance.writes", "count"),
    ("core.analysis.rules_dropped", "count"),
    ("core.engine.violations_emitted", "count"),
    ("core.engine.pool_hit_ratio", "ratio"),
    ("core.engine.maintain.pool_patches", "count"),
    ("core.engine.maintain.pool_rebuilds", "count"),
    ("core.stream.violations_emitted", "count"),
    ("cleaning.master.matches", "count"),
    ("cleaning.master.ambiguous", "count"),
    ("cleaning.fusion.changes", "count"),
    ("repair.urepair.rounds", "count"),
    ("repair.urepair.changes", "count"),
    ("discovery.fd.candidates_checked", "count"),
    ("discovery.cfd.rules_mined", "count"),
];

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS
        .iter()
        .chain(["unattributed"].iter())
        .map(|layer| (format!("{layer}.share_pct"), "%"))
        .collect();
    out.push(("trace.overhead_pct".into(), "%"));
    out.extend(LAYER_COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One measured op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub secs: f64,
    /// Input tuples the op handled.
    pub tuples: f64,
}

/// Ops attempted and failed.  An op fails when the program returns an
/// error or an oracle rejects its output; the run continues either way.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts op `id`, failed when `result` is an error.
    pub fn record(&mut self, id: u64, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.fail(id, &reason);
        }
    }

    /// Marks an already counted op `id` failed by a check made later.
    pub fn fail(&mut self, id: u64, reason: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("dqbench: op {id} failed: {reason}");
        }
    }
}

/// What oracles compare of a CFD violation report: the per-dependency
/// violation counts and one hash over every violation, in order.  Cheap to
/// keep per op where keeping whole reports would distort the heap peak.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportDigest {
    counts: Vec<usize>,
    hash: u64,
}

impl ReportDigest {
    pub fn of(report: &CfdViolationReport) -> Self {
        let mut hasher = DefaultHasher::new();
        report.per_dependency().hash(&mut hasher);
        ReportDigest {
            counts: report.per_dependency().iter().map(Vec::len).collect(),
            hash: hasher.finish(),
        }
    }

    /// Total violations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// `Ok` when `got` describes the same report as `self`.
    pub fn check(&self, got: &ReportDigest) -> Result<(), String> {
        if self.counts != got.counts {
            Err(format!(
                "violations per dependency {:?}, expected {:?}",
                got.counts, self.counts
            ))
        } else if self.hash != got.hash {
            Err("same violation counts, different violations".into())
        } else {
            Ok(())
        }
    }
}

/// Per-run measurement state handed to the workloads.
pub struct Ctx {
    pub cfg: RunConfig,
    pub tracer: Tracer,
    pub tally: Tally,
    next_id: u64,
    setup_secs: Vec<f64>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    counters: BTreeMap<&'static str, f64>,
    peak_heap_mib: f64,
    /// Extra fields for the result record, such as `repair_f1`.
    pub fields: Vec<(&'static str, f64)>,
}

/// What a run prints: op tallies, metrics, and the per-layer table of a
/// traced run.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Ops ran, passed their oracles, and every metric is a finite number.
    pub correct: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub fields: Vec<(&'static str, f64)>,
    pub table: Option<String>,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_secs(samples: &[Sample]) -> Vec<f64> {
    let mut secs: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    secs.sort_by(f64::total_cmp);
    secs
}

impl Ctx {
    pub fn new(cfg: RunConfig) -> Self {
        Ctx {
            cfg,
            tracer: Tracer::new(),
            tally: Tally::default(),
            next_id: 0,
            setup_secs: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            counters: BTreeMap::new(),
            peak_heap_mib: 0.0,
            fields: Vec::new(),
        }
    }

    /// A fresh op id.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records one set-up's program time.
    pub fn setup_done(&mut self, secs: f64) {
        self.setup_secs.push(secs);
    }

    /// Tallies op `id`.  A program error fails the op and yields no sample;
    /// otherwise `check`, run outside the heap peak, decides whether the
    /// output passes, and the sample counts either way.
    pub fn settle<T>(
        &mut self,
        id: u64,
        result: Result<T, String>,
        sample: Sample,
        check: impl FnOnce(T) -> Result<(), String>,
    ) -> Option<Sample> {
        match result {
            Ok(out) => {
                let checked = alloc::untracked(|| check(out));
                self.tally.record(id, checked);
                Some(sample)
            }
            Err(reason) => {
                self.tally.record(id, Err(reason));
                None
            }
        }
    }

    /// Adds to a per-layer counter; counted on traced ops only, so the
    /// per-op values and the layer shares describe the same ops.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.tracer.enabled() {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// The measured loop: calls `op` until the run's seconds are up, and
    /// never fewer than the minimum op count.  In a traced run every second
    /// op is traced.  `op` returns `None` for an op that produced no output.
    pub fn measure(&mut self, mut op: impl FnMut(&mut Ctx, u64) -> Option<Sample>) {
        alloc::reset_peak();
        let start = Instant::now();
        let mut i = 0usize;
        while i < self.cfg.min_ops() || start.elapsed().as_secs_f64() < self.cfg.seconds {
            let traced = self.cfg.trace && i % 2 == 1;
            self.tracer.set_enabled(traced);
            let id = self.next_id();
            if let Some(sample) = op(self, id) {
                if traced {
                    self.traced.push(sample);
                } else {
                    self.untraced.push(sample);
                }
            }
            i += 1;
        }
        self.tracer.set_enabled(false);
        self.peak_heap_mib = alloc::peak_mib();
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn end_to_end(&self) -> Vec<f64> {
        let mut setups = self.setup_secs.clone();
        setups.sort_by(f64::total_cmp);
        let secs = sorted_secs(&self.untraced);
        let busy: f64 = secs.iter().sum();
        let tuples: f64 = self.untraced.iter().map(|s| s.tuples).sum();
        vec![
            median(&setups),
            if busy > 0.0 { tuples / busy } else { 0.0 },
            1e3 * median(&secs),
            self.peak_heap_mib,
        ]
    }

    fn per_layer(&self) -> (Vec<f64>, String) {
        let (rows, op_ms) = layer_table(self.tracer.spans());
        let mut values: Vec<f64> = rows.iter().map(|r| r.share_pct).collect();
        let untraced = median(&sorted_secs(&self.untraced));
        let traced = median(&sorted_secs(&self.traced));
        values.push(if untraced > 0.0 {
            100.0 * (traced / untraced - 1.0)
        } else {
            0.0
        });
        let ops = self.traced.len().max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let csv_secs = rows
            .iter()
            .find(|r| r.layer == "relation.csv")
            .map_or(0.0, |r| r.self_ms / 1e3);
        const MIB: f64 = 1024.0 * 1024.0;
        for (name, _) in LAYER_COUNTERS {
            values.push(match name {
                "relation.csv.mib_per_s" => {
                    ratio(self.counter("relation.csv.bytes") / MIB, csv_secs)
                }
                "relation.store.heap_mib" => self.counter("relation.store.heap_bytes") / MIB / ops,
                "relation.persist.disk_bytes_per_input_byte" => ratio(
                    self.counter("relation.persist.disk_bytes"),
                    self.counter("relation.persist.input_bytes"),
                ),
                "core.engine.pool_hit_ratio" => ratio(
                    self.counter("core.engine.pool_hits"),
                    self.counter("core.engine.pool_lookups"),
                ),
                _ => self.counter(name) / ops,
            });
        }
        let overhead = values[rows.len()];
        let table = format!(
            "{}trace.overhead_pct {overhead:.2}% (traced op p50 {:.3} ms over {} ops, untraced {:.3} ms over {} ops)\n",
            render_table(&rows, op_ms),
            1e3 * traced,
            self.traced.len(),
            1e3 * untraced,
            self.untraced.len(),
        );
        (values, table)
    }

    /// The run's result; `checks_passed` is false when an end-of-run check
    /// (not tied to one op) failed.
    pub fn result(self, checks_passed: bool) -> RunResult {
        let (values, names, table): (Vec<f64>, Vec<(String, &'static str)>, Option<String>) =
            if self.cfg.trace {
                let (values, table) = self.per_layer();
                (values, per_layer_metrics(), Some(table))
            } else {
                let names = END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect();
                (self.end_to_end(), names, None)
            };
        let finite = values.iter().all(|v| v.is_finite());
        let mut fields = self.fields;
        fields.push((
            "ops_timed",
            (self.untraced.len() + self.traced.len()) as f64,
        ));
        fields.push((
            "op_p95_ms",
            1e3 * percentile(&sorted_secs(&self.untraced), 95.0),
        ));
        RunResult {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            correct: checks_passed && finite && self.tally.failed == 0 && self.tally.attempted > 0,
            metrics: names
                .into_iter()
                .zip(values)
                .map(|((n, u), v)| (n, if v.is_finite() { v } else { 0.0 }, u))
                .collect(),
            fields,
            table,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_gen::customer::{paper_cfds, paper_instance};

    #[test]
    fn an_oracle_fed_a_report_missing_one_violation_fails_one_op() {
        let report = dq_core::detect_cfd_violations(&paper_instance(), &paper_cfds());
        let expected = ReportDigest::of(&report);
        let mut per_dependency = report.per_dependency().to_vec();
        let dep = per_dependency
            .iter()
            .position(|v| !v.is_empty())
            .expect("the paper instance violates some CFD");
        per_dependency[dep].pop();
        let dropped = CfdViolationReport::from_per_dependency(per_dependency);
        let mut tally = Tally::default();
        tally.record(0, expected.check(&ReportDigest::of(&report)));
        tally.record(1, expected.check(&ReportDigest::of(&dropped)));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(median(&values), 10.5);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }
}
