//! Dictionary-level similarity artifacts: cached display forms, equality
//! translations between dictionaries, and the lock-striped similarity memo
//! cache.
//!
//! The naive matcher calls `Value::to_string` on both sides of *every*
//! tuple-pair comparison and recomputes the metric even when the same
//! distinct value pair recurs thousands of times.  On the interned columnar
//! store, value-level work belongs on the dictionary instead:
//!
//! * [`DisplayColumn`] renders each dictionary entry's display form once,
//!   indexed by [`ValueId`];
//! * [`EqTranslation`] maps each left-dictionary id to the right-dictionary
//!   id holding the *equal* [`Value`](dq_relation::Value) (if any), turning equality premises —
//!   and the `a == b` fast path of every metric — into one `Vec` lookup;
//! * [`SimilarityCache`] memoizes metric verdicts by
//!   `(context, left id, right id)`, where a context identifies an
//!   (operator, left dictionary, right dictionary) triple.  It is striped
//!   like the discovery crate's `PartitionSource`: 32 `RwLock`ed `FxHashMap`
//!   shards selected by hash, reads take a shared lock, metric evaluation
//!   runs *outside* any lock on a pooled [`SimilarityKernel`], and a
//!   double-checked insert keeps the first writer's verdict (races are
//!   counted, and harmless — verdicts are deterministic).

use crate::similarity::SimilarityKernel;
use dq_core::engine::parallel_map;
use dq_relation::{FxHashMap, FxHasher, ValueId, ValueInterner};
use std::hash::Hasher;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Number of lock stripes in the memo cache.
const STRIPES: usize = 32;

/// Below this many dictionary entries a sharded build costs more in thread
/// hand-off than it saves; build inline.
const PARALLEL_BUILD_MIN: usize = 4096;

/// Contiguous shards of `0..len` for a sharded dictionary build, one-ish
/// per worker (dictionary entries are uniform enough that finer-grained
/// work stealing buys nothing).
fn build_shards(len: usize, threads: usize) -> Vec<Range<usize>> {
    let chunk = len.div_ceil(threads.max(1)).max(1);
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

/// Display forms of every entry of one dictionary, computed once and
/// indexed by [`ValueId`].
#[derive(Debug)]
pub struct DisplayColumn {
    strings: Vec<Box<str>>,
    /// Character counts, aligned with `strings` — the edit-family length
    /// filters and threshold searches need them and `chars().count()` is
    /// O(bytes).
    char_lens: Vec<u32>,
}

impl DisplayColumn {
    /// Renders every dictionary entry once.
    pub fn build(interner: &ValueInterner) -> Self {
        Self::build_parallel(interner, 1)
    }

    /// Renders every dictionary entry once, sharding the dictionary across
    /// `threads` workers.  Rendering is per-entry-independent, so the
    /// result is identical at any thread count.
    pub fn build_parallel(interner: &ValueInterner, threads: usize) -> Self {
        let values = interner.values();
        if threads <= 1 || values.len() < PARALLEL_BUILD_MIN {
            let mut strings = Vec::with_capacity(values.len());
            let mut char_lens = Vec::with_capacity(values.len());
            for value in values {
                let s = value.to_string();
                char_lens.push(s.chars().count() as u32);
                strings.push(s.into_boxed_str());
            }
            return DisplayColumn { strings, char_lens };
        }
        let shards = build_shards(values.len(), threads);
        let parts = parallel_map(&shards, threads, |range| {
            let mut strings = Vec::with_capacity(range.len());
            let mut char_lens = Vec::with_capacity(range.len());
            for value in values.slice(range.clone()) {
                let s = value.to_string();
                char_lens.push(s.chars().count() as u32);
                strings.push(s.into_boxed_str());
            }
            (strings, char_lens)
        });
        let mut strings = Vec::with_capacity(values.len());
        let mut char_lens = Vec::with_capacity(values.len());
        for (s, c) in parts {
            strings.extend(s);
            char_lens.extend(c);
        }
        DisplayColumn { strings, char_lens }
    }

    /// The display form of a dictionary entry.
    #[inline]
    pub fn get(&self, id: ValueId) -> &str {
        &self.strings[id.index()]
    }

    /// The display form's character count.
    #[inline]
    pub fn char_len(&self, id: ValueId) -> usize {
        self.char_lens[id.index()] as usize
    }

    /// Number of dictionary entries.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// For each id of a left dictionary, the id of the right dictionary holding
/// the equal [`Value`](dq_relation::Value) (or `None`).  Interners canonicalize, so id equality
/// through the translation is exactly `Value` equality — display-string
/// collisions across distinct values (e.g. `1` vs `"1"`) stay distinct.
#[derive(Debug)]
pub struct EqTranslation {
    map: Vec<Option<ValueId>>,
}

impl EqTranslation {
    /// Looks every left entry up in the right interner.
    pub fn build(left: &ValueInterner, right: &ValueInterner) -> Self {
        Self::build_parallel(left, right, 1)
    }

    /// Looks every left entry up in the right interner, sharding the left
    /// dictionary across `threads` workers.  Lookups are read-only and
    /// per-entry-independent, so the result is identical at any thread
    /// count.
    pub fn build_parallel(left: &ValueInterner, right: &ValueInterner, threads: usize) -> Self {
        let values = left.values();
        if threads <= 1 || values.len() < PARALLEL_BUILD_MIN {
            return EqTranslation {
                map: values.iter().map(|v| right.lookup(v)).collect(),
            };
        }
        let shards = build_shards(values.len(), threads);
        let parts = parallel_map(&shards, threads, |range| {
            values
                .slice(range.clone())
                .iter()
                .map(|v| right.lookup(v))
                .collect::<Vec<_>>()
        });
        let mut map = Vec::with_capacity(values.len());
        for part in parts {
            map.extend(part);
        }
        EqTranslation { map }
    }

    /// The right-dictionary id equal to left id `l`, if any.
    #[inline]
    pub fn get(&self, l: ValueId) -> Option<ValueId> {
        self.map[l.index()]
    }

    /// Are the two ids' values equal?
    #[inline]
    pub fn ids_equal(&self, l: ValueId, r: ValueId) -> bool {
        self.map[l.index()] == Some(r)
    }
}

/// Running counters of the memo cache, also emitted as `match.cache.*`
/// dq-obs metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimilarityCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that evaluated the metric.
    pub misses: u64,
    /// Concurrent evaluations of the same pair (losers discard their
    /// verdict; both verdicts are identical, so this is purely a
    /// contention statistic).
    pub races: u64,
    /// Memoized verdicts currently held.
    pub entries: usize,
}

impl dq_obs::MetricSource for SimilarityCacheStats {
    fn emit(&self, prefix: &str, sink: &mut dyn dq_obs::MetricSink) {
        sink.counter(&format!("{prefix}.hits"), self.hits);
        sink.counter(&format!("{prefix}.misses"), self.misses);
        sink.counter(&format!("{prefix}.races"), self.races);
        sink.gauge(
            &format!("{prefix}.entries"),
            i64::try_from(self.entries).unwrap_or(i64::MAX),
        );
    }
}

/// Pre-registered dq-obs handles for the cache hot path.
struct CacheObs {
    hits: dq_obs::Counter,
    misses: dq_obs::Counter,
    races: dq_obs::Counter,
    eval_ns: dq_obs::Histogram,
}

impl CacheObs {
    fn new() -> Self {
        let rec = dq_obs::recorder();
        CacheObs {
            hits: rec.counter("match.cache.hits"),
            misses: rec.counter("match.cache.misses"),
            races: rec.counter("match.cache.races"),
            eval_ns: rec.histogram("match.cache.eval_ns"),
        }
    }
}

type SimKey = (u32, u32, u32);

/// The lock-striped `(context, id, id) -> bool` memo cache with a pool of
/// scratch kernels for the evaluations that miss.
pub struct SimilarityCache {
    stripes: Vec<RwLock<FxHashMap<SimKey, bool>>>,
    kernels: Mutex<Vec<SimilarityKernel>>,
    hits: AtomicU64,
    misses: AtomicU64,
    races: AtomicU64,
    obs: CacheObs,
}

impl std::fmt::Debug for SimilarityCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimilarityCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for SimilarityCache {
    fn default() -> Self {
        SimilarityCache::new()
    }
}

impl SimilarityCache {
    /// An empty cache.
    pub fn new() -> Self {
        SimilarityCache {
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            kernels: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            races: AtomicU64::new(0),
            obs: CacheObs::new(),
        }
    }

    #[inline]
    fn stripe(&self, key: &SimKey) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u32(key.0);
        hasher.write_u32(key.1);
        hasher.write_u32(key.2);
        (hasher.finish() as usize) % STRIPES
    }

    /// The memoized verdict for `(ctx, l, r)`, evaluating `eval` on a
    /// pooled kernel outside any lock on a miss.
    pub fn related_or_insert(
        &self,
        ctx: u32,
        l: ValueId,
        r: ValueId,
        eval: impl FnOnce(&mut SimilarityKernel) -> bool,
    ) -> bool {
        let key = (ctx, l.index() as u32, r.index() as u32);
        let stripe = &self.stripes[self.stripe(&key)];
        if let Some(&verdict) = stripe.read().expect("cache stripe poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.hits.inc();
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.misses.inc();
        let mut kernel = self
            .kernels
            .lock()
            .expect("kernel pool poisoned")
            .pop()
            .unwrap_or_default();
        let started = dq_obs::enabled().then(std::time::Instant::now);
        let verdict = eval(&mut kernel);
        if let Some(t) = started {
            self.obs.eval_ns.record(t.elapsed().as_nanos() as u64);
        }
        self.kernels
            .lock()
            .expect("kernel pool poisoned")
            .push(kernel);
        match stripe.write().expect("cache stripe poisoned").entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Another worker evaluated the same pair first; verdicts are
                // deterministic, keep the winner's and count the race.
                self.races.fetch_add(1, Ordering::Relaxed);
                self.obs.races.inc();
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(verdict);
                verdict
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SimilarityCacheStats {
        SimilarityCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            entries: self
                .stripes
                .iter()
                .map(|s| s.read().expect("cache stripe poisoned").len())
                .sum(),
        }
    }

    /// Drops every memoized verdict (counters are kept — they are
    /// monotonic, like the pool's).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.write().expect("cache stripe poisoned").clear();
        }
    }
}

/// A stable fingerprint of a similarity operator, usable as a hash key
/// (thresholds are compared by bit pattern).
pub(crate) fn op_fingerprint(op: &crate::similarity::SimilarityOp) -> (u8, u64, u64) {
    use crate::similarity::SimilarityOp::*;
    match op {
        Equality => (0, 0, 0),
        EditDistance { max_distance } => (1, *max_distance as u64, 0),
        NormalizedEdit { min_similarity } => (2, min_similarity.to_bits(), 0),
        Jaro { min_similarity } => (3, min_similarity.to_bits(), 0),
        JaroWinkler { min_similarity } => (4, min_similarity.to_bits(), 0),
        QGram { q, min_similarity } => (5, *q as u64, min_similarity.to_bits()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::SimilarityOp;
    use dq_relation::Value;

    fn interner_of(values: &[Value]) -> ValueInterner {
        let mut interner = ValueInterner::new();
        for v in values {
            interner.intern(v);
        }
        interner
    }

    #[test]
    fn display_column_renders_each_entry_once() {
        let interner = interner_of(&[Value::str("John"), Value::int(7), Value::Null]);
        let disp = DisplayColumn::build(&interner);
        assert_eq!(disp.len(), 3);
        assert_eq!(disp.get(ValueId(0)), "John");
        assert_eq!(disp.get(ValueId(1)), "7");
        assert_eq!(disp.get(ValueId(2)), "NULL");
        assert_eq!(disp.char_len(ValueId(0)), 4);
    }

    #[test]
    fn sharded_builds_match_sequential_at_any_thread_count() {
        // Large enough to clear PARALLEL_BUILD_MIN so the sharded path
        // actually runs, with shard boundaries that don't divide evenly.
        let left_vals: Vec<Value> = (0..PARALLEL_BUILD_MIN + 17)
            .map(|i| {
                if i % 3 == 0 {
                    Value::int(i as i64)
                } else {
                    Value::str(format!("v{i}"))
                }
            })
            .collect();
        let right_vals: Vec<Value> = left_vals.iter().step_by(2).cloned().collect();
        let left = interner_of(&left_vals);
        let right = interner_of(&right_vals);
        let seq_disp = DisplayColumn::build(&left);
        let seq_trans = EqTranslation::build(&left, &right);
        for threads in [2, 3, 8] {
            let disp = DisplayColumn::build_parallel(&left, threads);
            assert_eq!(disp.len(), seq_disp.len(), "threads {threads}");
            let trans = EqTranslation::build_parallel(&left, &right, threads);
            for i in 0..left.len() {
                let id = ValueId(i as u32);
                assert_eq!(disp.get(id), seq_disp.get(id), "threads {threads}");
                assert_eq!(
                    disp.char_len(id),
                    seq_disp.char_len(id),
                    "threads {threads}"
                );
                assert_eq!(trans.get(id), seq_trans.get(id), "threads {threads}");
            }
        }
    }

    #[test]
    fn eq_translation_is_value_equality_not_display_equality() {
        let left = interner_of(&[Value::int(1), Value::str("1"), Value::str("x")]);
        let right = interner_of(&[Value::str("1"), Value::int(1)]);
        let trans = EqTranslation::build(&left, &right);
        // Int(1) maps to the right-hand Int(1), not to Str("1") — even
        // though both display as "1".
        assert_eq!(trans.get(ValueId(0)), Some(ValueId(1)));
        assert_eq!(trans.get(ValueId(1)), Some(ValueId(0)));
        assert_eq!(trans.get(ValueId(2)), None);
        assert!(trans.ids_equal(ValueId(0), ValueId(1)));
        assert!(!trans.ids_equal(ValueId(0), ValueId(0)));
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let cache = SimilarityCache::new();
        let op = SimilarityOp::edit(1);
        let mut evals = 0;
        for _ in 0..3 {
            let v = cache.related_or_insert(7, ValueId(0), ValueId(1), |k| {
                evals += 1;
                k.related_display(&op, "Jon", "John")
            });
            assert!(v);
        }
        assert_eq!(evals, 1, "metric evaluated once per distinct pair");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        // A different context is a different memo entry.
        cache.related_or_insert(8, ValueId(0), ValueId(1), |k| {
            evals += 1;
            k.related_display(&op, "Jon", "John")
        });
        assert_eq!(evals, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }
}
