//! The metric recorder: sharded atomic cells behind striped name
//! registries, with a process-wide instance and cheap pre-registered
//! handles for hot paths.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot, SpanSnapshot};

/// Shards per counter cell.  Each shard sits on its own cache line so
/// concurrent increments from the worker pool don't bounce one line.
const COUNTER_SHARDS: usize = 8;

/// Stripes per name registry.
const REGISTRY_STRIPES: usize = 8;

/// Bounded capacity of the verbose event ring.
const EVENT_CAPACITY: usize = 256;

#[repr(align(64))]
struct PaddedU64(AtomicU64);

thread_local! {
    /// This thread's counter shard, assigned round-robin at first use.
    static THREAD_SHARD: usize = {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        SEQ.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS
    };
}

/// A cell type that can live in a [`Registry`].
pub(crate) trait MetricCell {
    fn new() -> Self;
    fn reset(&self);
}

/// A monotonic counter: one padded atomic per shard, summed on read.
pub(crate) struct CounterCell {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl CounterCell {
    #[inline]
    pub(crate) fn add(&self, delta: u64) {
        let shard = THREAD_SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl MetricCell for CounterCell {
    fn new() -> Self {
        CounterCell {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value-wins signed gauge.
pub(crate) struct GaugeCell(AtomicI64);

impl GaugeCell {
    #[inline]
    pub(crate) fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl MetricCell for GaugeCell {
    fn new() -> Self {
        GaugeCell(AtomicI64::new(0))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Power-of-two latency buckets: bucket 0 holds the value 0, bucket
/// `b >= 1` holds values in `[2^(b-1), 2^b)`, and the last bucket
/// absorbs everything above.
pub(crate) const HISTOGRAM_BUCKETS: usize = 44;

#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The upper bound of a bucket, used as the quantile estimate.
fn bucket_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        (1u64 << bucket) - 1
    }
}

/// A histogram: power-of-two buckets plus sharded count/sum and a max.
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: CounterCell,
    sum: CounterCell,
    max: AtomicU64,
}

impl HistogramCell {
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.add(1);
        self.sum.add(value);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Estimates the `q`-quantile (0..=1) from `counts`: the upper bound
    /// of the bucket the rank lands in, clamped to the observed max.
    fn quantile(counts: &[u64], total: u64, max: u64, q: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(bucket).min(max);
            }
        }
        max
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.value();
        let max = self.max.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.value(),
            max,
            p50: Self::quantile(&counts, count, max, 0.50),
            p90: Self::quantile(&counts, count, max, 0.90),
            p99: Self::quantile(&counts, count, max, 0.99),
        }
    }
}

impl MetricCell for HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: CounterCell::new(),
            sum: CounterCell::new(),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.reset();
        self.sum.reset();
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Aggregated timing of one span path: completions and total wall-clock.
pub(crate) struct SpanCell {
    count: CounterCell,
    total_ns: CounterCell,
}

impl SpanCell {
    #[inline]
    pub(crate) fn record(&self, elapsed_ns: u64) {
        self.count.add(1);
        self.total_ns.add(elapsed_ns);
    }

    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.value(),
            total_ns: self.total_ns.value(),
        }
    }
}

impl MetricCell for SpanCell {
    fn new() -> Self {
        SpanCell {
            count: CounterCell::new(),
            total_ns: CounterCell::new(),
        }
    }

    fn reset(&self) {
        self.count.reset();
        self.total_ns.reset();
    }
}

/// A lock-striped name → cell map.  Registration takes a write lock on
/// one stripe; steady-state lookups take a read lock, and hot paths
/// avoid even that by holding a pre-registered handle.
pub(crate) struct Registry<T> {
    stripes: [RwLock<HashMap<String, Arc<T>>>; REGISTRY_STRIPES],
}

fn stripe_of(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % REGISTRY_STRIPES
}

impl<T: MetricCell> Registry<T> {
    fn new() -> Self {
        Registry {
            stripes: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    pub(crate) fn get_or_register(&self, name: &str) -> Arc<T> {
        let stripe = &self.stripes[stripe_of(name)];
        if let Some(cell) = stripe.read().unwrap().get(name) {
            return Arc::clone(cell);
        }
        let mut stripe = stripe.write().unwrap();
        Arc::clone(
            stripe
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(T::new())),
        )
    }

    fn for_each(&self, mut f: impl FnMut(&str, &T)) {
        for stripe in &self.stripes {
            let stripe = stripe.read().unwrap();
            for (name, cell) in stripe.iter() {
                f(name, cell);
            }
        }
    }

    /// Zeroes every cell but keeps registrations, so pre-registered
    /// handles stay live across resets.
    fn reset(&self) {
        self.for_each(|_, cell| cell.reset());
    }
}

/// The metric recorder: a runtime-toggleable set of named counters,
/// gauges, histograms and span timings.
///
/// One process-wide instance lives behind [`recorder`]; tests may build
/// private instances with [`Recorder::new`].  All recording operations
/// first check the enabled flag (one relaxed atomic load) and are
/// compiled out entirely under the `off` feature.
pub struct Recorder {
    enabled: Arc<AtomicBool>,
    verbose: AtomicBool,
    pub(crate) counters: Registry<CounterCell>,
    pub(crate) gauges: Registry<GaugeCell>,
    pub(crate) histograms: Registry<HistogramCell>,
    pub(crate) spans: Registry<SpanCell>,
    events: Mutex<VecDeque<String>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, disabled recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: Arc::new(AtomicBool::new(false)),
            verbose: AtomicBool::new(false),
            counters: Registry::new(),
            gauges: Registry::new(),
            histograms: Registry::new(),
            spans: Registry::new(),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Is recording live?  Always `false` under the `off` feature.
    #[inline]
    pub fn enabled(&self) -> bool {
        !cfg!(feature = "off") && self.enabled.load(Ordering::Relaxed)
    }

    /// Toggles recording at runtime.  A no-op under the `off` feature.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Should `span!` field events be captured?
    #[inline]
    pub fn verbose(&self) -> bool {
        self.enabled() && self.verbose.load(Ordering::Relaxed)
    }

    /// Toggles capture of `span!` field events into the bounded ring.
    pub fn set_verbose(&self, on: bool) {
        self.verbose.store(on, Ordering::Relaxed);
    }

    /// A pre-registered counter handle for hot paths: increments cost
    /// one relaxed load, a branch, and one sharded relaxed add.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            enabled: Arc::clone(&self.enabled),
            cell: self.counters.get_or_register(name),
        }
    }

    /// A pre-registered gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            enabled: Arc::clone(&self.enabled),
            cell: self.gauges.get_or_register(name),
        }
    }

    /// A pre-registered histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            enabled: Arc::clone(&self.enabled),
            cell: self.histograms.get_or_register(name),
        }
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if self.enabled() {
            self.counters.get_or_register(name).add(delta);
        }
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: i64) {
        if self.enabled() {
            self.gauges.get_or_register(name).set(value);
        }
    }

    /// Adds `delta` (may be negative) to the gauge `name`.
    #[inline]
    pub fn gauge_add(&self, name: &str, delta: i64) {
        if self.enabled() {
            self.gauges.get_or_register(name).add(delta);
        }
    }

    /// Records one observation into the histogram `name`.
    #[inline]
    pub fn record(&self, name: &str, value: u64) {
        if self.enabled() {
            self.histograms.get_or_register(name).record(value);
        }
    }

    /// Times `f` into the histogram `name` (nanoseconds).  When
    /// recording is off, runs `f` with no clock read at all.
    #[inline]
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.histograms.get_or_register(name).record(elapsed);
        out
    }

    /// A guard that records its lifetime into the histogram `name` on
    /// drop.  When recording is off at creation, no clock is read and
    /// nothing is recorded.
    pub fn timer<'a>(&'a self, name: &'a str) -> TimerGuard<'a> {
        TimerGuard {
            recorder: self,
            name,
            start: self.enabled().then(Instant::now),
        }
    }

    /// Records a completed span occurrence under its full path.
    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64) {
        self.spans.get_or_register(path).record(elapsed_ns);
    }

    /// Appends a line to the bounded event ring (verbose mode only).
    pub fn event(&self, line: String) {
        if !self.verbose() {
            return;
        }
        let mut events = self.events.lock().unwrap();
        if events.len() == EVENT_CAPACITY {
            events.pop_front();
        }
        events.push_back(line);
    }

    /// A point-in-time copy of every non-zero metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.counters.for_each(|name, cell| {
            let value = cell.value();
            if value != 0 {
                snap.counters.insert(name.to_string(), value);
            }
        });
        self.gauges.for_each(|name, cell| {
            let value = cell.value();
            if value != 0 {
                snap.gauges.insert(name.to_string(), value);
            }
        });
        self.histograms.for_each(|name, cell| {
            let h = cell.snapshot();
            if h.count != 0 {
                snap.histograms.insert(name.to_string(), h);
            }
        });
        self.spans.for_each(|name, cell| {
            let s = cell.snapshot();
            if s.count != 0 {
                snap.spans.insert(name.to_string(), s);
            }
        });
        snap.events = self.events.lock().unwrap().iter().cloned().collect();
        snap
    }

    /// Zeroes every cell and drops buffered events.  Registrations (and
    /// therefore pre-registered handles) survive.
    pub fn reset(&self) {
        self.counters.reset();
        self.gauges.reset();
        self.histograms.reset();
        self.spans.reset();
        self.events.lock().unwrap().clear();
    }
}

/// The process-wide recorder.  Starts disabled; flip it on with
/// [`Recorder::set_enabled`] (or `dq_obs::set_enabled`).
pub fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Records the time between its creation and drop into a histogram.
/// Inert (no clock read) when recording was off at creation.
#[must_use = "a timer measures until dropped; bind it with `let _t = ...`"]
pub struct TimerGuard<'a> {
    recorder: &'a Recorder,
    name: &'a str,
    start: Option<Instant>,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder
                .histograms
                .get_or_register(self.name)
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A pre-registered counter.  Cloneable; clones share the cell.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    #[inline]
    fn live(&self) -> bool {
        !cfg!(feature = "off") && self.enabled.load(Ordering::Relaxed)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if self.live() {
            self.cell.add(delta);
        }
    }

    /// Current summed value (live reads are racy but monotone).
    pub fn value(&self) -> u64 {
        self.cell.value()
    }
}

/// A pre-registered gauge.  Cloneable; clones share the cell.
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    #[inline]
    fn live(&self) -> bool {
        !cfg!(feature = "off") && self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.live() {
            self.cell.set(value);
        }
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.live() {
            self.cell.add(delta);
        }
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.value()
    }
}

/// A pre-registered histogram.  Cloneable; clones share the cell.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    #[inline]
    fn live(&self) -> bool {
        !cfg!(feature = "off") && self.enabled.load(Ordering::Relaxed)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.live() {
            self.cell.record(value);
        }
    }

    /// Times `f` in nanoseconds.  When recording is off, runs `f` with
    /// no clock read at all.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.live() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.cell
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    #[cfg(not(feature = "off"))]
    use std::thread;

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn counter_sums_across_shards_and_threads() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let counter = rec.counter("t.counter");
        thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8000);
        assert_eq!(rec.snapshot().counters["t.counter"], 8000);
    }

    #[test]
    fn disabled_recorder_stays_quiet() {
        let rec = Recorder::new();
        let counter = rec.counter("q.counter");
        counter.add(7);
        rec.add("q.oneshot", 3);
        rec.gauge_set("q.gauge", -5);
        rec.record("q.hist", 42);
        let ran = rec.time("q.time", || 11u32);
        assert_eq!(ran, 11);
        let snap = rec.snapshot();
        assert!(snap.is_quiet(), "disabled ops leaked: {snap:?}");
    }

    #[test]
    fn time_skips_the_clock_but_still_runs_the_closure() {
        let rec = Recorder::new();
        let hits = AtomicU32::new(0);
        let out = rec.time("t.skip", || {
            hits.fetch_add(1, Ordering::Relaxed);
            "ok"
        });
        assert_eq!(out, "ok");
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn histogram_quantiles_track_bucket_bounds() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let hist = rec.histogram("h.latency");
        for v in [1u64, 2, 3, 4, 100, 1000] {
            hist.record(v);
        }
        let snap = rec.snapshot().histograms["h.latency"].clone();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1110);
        assert_eq!(snap.max, 1000);
        assert!(snap.p50 >= 3 && snap.p50 <= 7, "p50 = {}", snap.p50);
        assert_eq!(snap.p99, 1000);
    }

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn reset_zeroes_cells_but_keeps_handles_live() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let counter = rec.counter("r.counter");
        counter.add(5);
        rec.reset();
        assert_eq!(counter.value(), 0);
        counter.add(2);
        assert_eq!(rec.snapshot().counters["r.counter"], 2);
    }

    // Needs live recording — compiled out by the `off` feature.
    #[test]
    #[cfg(not(feature = "off"))]
    fn gauges_set_and_adjust() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let gauge = rec.gauge("g.resident");
        gauge.set(100);
        gauge.add(-30);
        assert_eq!(gauge.value(), 70);
        assert_eq!(rec.snapshot().gauges["g.resident"], 70);
    }
}
