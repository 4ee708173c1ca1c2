//! The interned matching engine: the one executor for matching rules and
//! MD checks, blocked and parallel over the columnar store.
//!
//! The reference evaluators ([`crate::reference`]) re-render and re-compare
//! raw [`Value`](dq_relation::Value)s for every tuple pair.  The engine
//! routes the same semantics through the interned store instead:
//!
//! * **similarity on the dictionary** — each premise is evaluated once per
//!   distinct `(left id, right id)` pair: display forms come from a cached
//!   [`DisplayColumn`], equality (and every metric's `a == b` fast path)
//!   from an [`EqTranslation`], and metric verdicts are memoized in the
//!   engine's [`SimilarityCache`];
//! * **blocking over the dictionaries** — equality premises become an
//!   interned-index join; the first metric premise a lossless generator
//!   covers ([`block::cover`]) prunes candidates by shared q-grams or by
//!   length windows before any metric runs; surviving id pairs expand to
//!   tuple pairs through the indexes' CSR postings.  Blocking is always on
//!   and loses nothing; [`MatchingEngineStats::pairs_saved`] counts the
//!   tuple pairs it skipped;
//! * **parallel matching** — left-dictionary groups fan out in chunks over
//!   [`parallel_map`] and merge in canonical chunk order, so results are
//!   deterministic and *byte-identical* to the reference (`matches`,
//!   `rule_hits`, violation vectors) at any thread count.
//!
//! The only intentionally approximate mode is
//! [`MatchingEngine::with_sorted_neighborhood`], which swaps the exhaustive
//! fallback (for operators no lossless blocker covers) for a
//! sorted-neighborhood window; it is off by default.

use crate::block::{self, Cover, LengthBlocker, QGramBlocker, SeenStamp};
use crate::matcher::MatchResult;
use crate::md::{MatchOp, MatchingDependency, MdPremise};
use crate::rck::RelativeKey;
use crate::simcache::{op_fingerprint, DisplayColumn, EqTranslation, SimilarityCache};
use crate::similarity::SimilarityOp;
use dq_core::engine::parallel_map;
use dq_obs::span;
use dq_relation::{
    Column, ColumnarStore, FxHashMap, IndexPool, RelationInstance, TupleId, ValueId,
};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A dictionary's identity: the owning instance, the store version it was
/// snapshotted at, and the attribute.  Columns (and hence interners) are
/// shared per `(instance, version, attr)`, so ids are comparable exactly
/// within one key.
type DictKey = (u64, u64, usize);

/// Memo-context registry key: left dictionary, right dictionary, operator
/// fingerprint.
type CtxKey = (DictKey, DictKey, (u8, u64, u64));

/// One fan-out worker's result: candidate tuple pairs plus its comparison,
/// candidate and pairs-saved tallies.
type PairChunk = (Vec<(TupleId, TupleId)>, usize, u64, u64);

fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        configured
    }
}

/// One premise compiled against the stores: columns on both sides, cached
/// display forms, the equality translation and a memo-cache context.
/// Displays exist only for metric premises — a pure-equality premise
/// resolves entirely through the id translation, and materializing one
/// string per dictionary entry for it would dominate the cold path of
/// equality-joined rules.
struct PremiseEval {
    lcol: Arc<Column>,
    rcol: Arc<Column>,
    ldisp: Option<Arc<DisplayColumn>>,
    rdisp: Option<Arc<DisplayColumn>>,
    trans: Arc<EqTranslation>,
    /// `None` for pure-equality premises (`Equality` or a `⇋` premise,
    /// which [`MatchingDependency::premise_holds`] interprets as value
    /// equality).
    op: Option<SimilarityOp>,
    ctx: u32,
}

impl PremiseEval {
    /// Does the premise hold for a distinct value pair?  Value equality
    /// first (the reference's `related` fast path — on `Value`s, not display
    /// strings), then the memoized metric.
    #[inline]
    fn holds_ids(&self, cache: &SimilarityCache, l: ValueId, r: ValueId) -> bool {
        if self.trans.ids_equal(l, r) {
            return true;
        }
        match &self.op {
            None => false,
            Some(op) => {
                let ldisp = self.ldisp.as_ref().expect("metric premise has displays");
                let rdisp = self.rdisp.as_ref().expect("metric premise has displays");
                cache.related_or_insert(self.ctx, l, r, |kernel| {
                    kernel.related_display(op, ldisp.get(l), rdisp.get(r))
                })
            }
        }
    }

    /// Does the premise hold for a pair of store rows?
    #[inline]
    fn holds_rows(&self, cache: &SimilarityCache, lrow: u32, rrow: u32) -> bool {
        self.holds_ids(
            cache,
            self.lcol.id_at(lrow as usize),
            self.rcol.id_at(rrow as usize),
        )
    }
}

/// Candidate generator compiled for the blocking premise of one rule.
enum Candidates {
    /// Shared-q-gram postings over the right dictionary.
    QGram(QGramBlocker),
    /// Length-window buckets over the right dictionary.
    Length(LengthBlocker),
    /// Every right id — the exhaustive (but still memoized) fallback.
    All(Vec<u32>),
    /// Sorted-neighborhood window: left id -> right ids (approximate).
    Window(FxHashMap<u32, Vec<u32>>),
}

/// Pre-registered dq-obs handles for the engine counters.
struct EngineObs {
    blocks_built: dq_obs::Counter,
    candidates: dq_obs::Counter,
    comparisons: dq_obs::Counter,
    pairs_saved: dq_obs::Counter,
}

impl EngineObs {
    fn new() -> Self {
        let rec = dq_obs::recorder();
        EngineObs {
            blocks_built: rec.counter("match.blocks_built"),
            candidates: rec.counter("match.candidates"),
            comparisons: rec.counter("match.comparisons"),
            pairs_saved: rec.counter("match.pairs_saved"),
        }
    }
}

/// Running engine counters, also emitted as `match.*` dq-obs metrics;
/// includes the similarity memo cache's counters under `.cache`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchingEngineStats {
    /// Blocking structures built (q-gram indexes, length buckets, windows).
    pub blocks_built: u64,
    /// Candidate right ids generated by blocking.
    pub candidates: u64,
    /// Tuple-pair comparisons actually performed.
    pub comparisons: u64,
    /// Tuple pairs blocking skipped without comparing.
    pub pairs_saved: u64,
    /// Similarity memo cache counters.
    pub cache: crate::simcache::SimilarityCacheStats,
}

impl MatchingEngineStats {
    /// Fraction of metric lookups answered from the memo cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }
}

impl dq_obs::MetricSource for MatchingEngineStats {
    fn emit(&self, prefix: &str, sink: &mut dyn dq_obs::MetricSink) {
        sink.counter(&format!("{prefix}.blocks_built"), self.blocks_built);
        sink.counter(&format!("{prefix}.candidates"), self.candidates);
        sink.counter(&format!("{prefix}.comparisons"), self.comparisons);
        sink.counter(&format!("{prefix}.pairs_saved"), self.pairs_saved);
        self.cache.emit(&format!("{prefix}.cache"), sink);
    }
}

/// The interned, blocked, parallel matching engine.
///
/// Holds an [`IndexPool`] (shared with detection/discovery so interned
/// indexes are built once per instance version), the similarity memo cache,
/// and per-dictionary display/translation caches.  One engine can serve
/// many rule sets over many instances; artifacts are keyed by dictionary
/// identity and reused across calls — exactly what the rule-learning loop
/// in `dq-discovery` needs.
pub struct MatchingEngine {
    pool: Arc<IndexPool>,
    threads: usize,
    approx_window: Option<usize>,
    cache: SimilarityCache,
    displays: Mutex<FxHashMap<DictKey, Arc<DisplayColumn>>>,
    translations: Mutex<FxHashMap<(DictKey, DictKey), Arc<EqTranslation>>>,
    ctxs: Mutex<FxHashMap<CtxKey, u32>>,
    blocks_built: AtomicU64,
    candidates: AtomicU64,
    comparisons: AtomicU64,
    pairs_saved: AtomicU64,
    obs: EngineObs,
}

impl std::fmt::Debug for MatchingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchingEngine")
            .field("threads", &self.threads)
            .field("approx_window", &self.approx_window)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl MatchingEngine {
    /// An engine over a (possibly shared) index pool.  Thread count
    /// defaults to the machine's parallelism.
    pub fn new(pool: Arc<IndexPool>) -> Self {
        MatchingEngine {
            pool,
            threads: 0,
            approx_window: None,
            cache: SimilarityCache::new(),
            displays: Mutex::new(FxHashMap::default()),
            translations: Mutex::new(FxHashMap::default()),
            ctxs: Mutex::new(FxHashMap::default()),
            blocks_built: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            comparisons: AtomicU64::new(0),
            pairs_saved: AtomicU64::new(0),
            obs: EngineObs::new(),
        }
    }

    /// Sets the worker count (`0` = machine parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the exhaustive fallback for operators no lossless blocker
    /// covers (Jaro / Jaro–Winkler / non-positive thresholds) with a
    /// sorted-neighborhood pass of the given window.  **Approximate**: the
    /// engine may then miss matches the reference finds; never enabled
    /// by default.
    pub fn with_sorted_neighborhood(mut self, window: usize) -> Self {
        self.approx_window = Some(window);
        self
    }

    /// The engine's index pool.
    pub fn pool(&self) -> &Arc<IndexPool> {
        &self.pool
    }

    /// Point-in-time counters (engine + memo cache).
    pub fn stats(&self) -> MatchingEngineStats {
        MatchingEngineStats {
            blocks_built: self.blocks_built.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            pairs_saved: self.pairs_saved.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Runs a set of matching rules: rules processed in order, a hit
    /// recorded per newly matched pair — the same `matches` and `rule_hits`
    /// as [`reference::run_rules`](crate::reference::run_rules).
    pub fn run(
        &self,
        rules: &[RelativeKey],
        d1: &RelationInstance,
        d2: &RelationInstance,
    ) -> MatchResult {
        let mut result = MatchResult::default();
        for (rule_idx, rule) in rules.iter().enumerate() {
            let _span = span!("match.rule", rule = rule_idx);
            let (pairs, comparisons) = self.premise_pairs(rule.md(), d1, d2);
            result.comparisons += comparisons;
            for pair in pairs {
                if result.matches.insert(pair) {
                    result.rule_hits.push(rule_idx);
                }
            }
        }
        result
    }

    /// Pairs violating an MD under the supplied interpretation of `⇋`,
    /// byte-identical (contents *and* order) to
    /// [`reference::md_violations`](crate::reference::md_violations).
    pub fn md_violations(
        &self,
        md: &MatchingDependency,
        d1: &RelationInstance,
        d2: &RelationInstance,
        matches: &(dyn Fn(TupleId, TupleId) -> bool + Sync),
    ) -> Vec<(TupleId, TupleId)> {
        let _span = span!("match.md_violations", premises = md.length());
        let (pairs, _) = self.premise_pairs(md, d1, d2);
        let conclusion: Vec<PremiseEval> = match md.conclusion_op() {
            MatchOp::Matching => Vec::new(),
            MatchOp::Similarity(op) => {
                let (s1, s2) = (d1.columnar(), d2.columnar());
                md.conclusion_left()
                    .iter()
                    .zip(md.conclusion_right())
                    .map(|(&a, &b)| self.compile_comparison(d1, d2, &s1, &s2, a, b, op.clone()))
                    .collect()
            }
        };
        let (s1, s2) = (d1.columnar(), d2.columnar());
        let mut out: Vec<(TupleId, TupleId)> = pairs
            .into_iter()
            .filter(|&(id1, id2)| {
                let ok = match md.conclusion_op() {
                    MatchOp::Matching => matches(id1, id2),
                    MatchOp::Similarity(_) => {
                        let lrow = s1.row_of(id1).expect("premise pair row") as u32;
                        let rrow = s2.row_of(id2).expect("premise pair row") as u32;
                        conclusion
                            .iter()
                            .all(|c| c.holds_rows(&self.cache, lrow, rrow))
                    }
                };
                !ok
            })
            .collect();
        // The reference iterates both instances in ascending tuple order.
        out.sort_unstable();
        out
    }

    /// Cached display forms of one column's dictionary.  The build shards
    /// the dictionary across the engine's thread pool — rendering is the
    /// per-entry half of `match.compile`, the engine-cold bottleneck.
    fn display(&self, key: DictKey, col: &Column) -> Arc<DisplayColumn> {
        let threads = resolve_threads(self.threads);
        let mut cache = self.displays.lock().expect("display cache poisoned");
        Arc::clone(
            cache.entry(key).or_insert_with(|| {
                Arc::new(DisplayColumn::build_parallel(col.interner(), threads))
            }),
        )
    }

    /// Cached equality translation between two columns' dictionaries,
    /// built sharded like [`MatchingEngine::display`].
    fn translation(
        &self,
        lkey: DictKey,
        rkey: DictKey,
        lcol: &Column,
        rcol: &Column,
    ) -> Arc<EqTranslation> {
        let threads = resolve_threads(self.threads);
        let mut cache = self
            .translations
            .lock()
            .expect("translation cache poisoned");
        Arc::clone(cache.entry((lkey, rkey)).or_insert_with(|| {
            Arc::new(EqTranslation::build_parallel(
                lcol.interner(),
                rcol.interner(),
                threads,
            ))
        }))
    }

    /// The memo-cache context of `(left dictionary, right dictionary, op)`.
    fn ctx(&self, lkey: DictKey, rkey: DictKey, op: &SimilarityOp) -> u32 {
        let mut ctxs = self.ctxs.lock().expect("ctx registry poisoned");
        let next = ctxs.len() as u32;
        *ctxs.entry((lkey, rkey, op_fingerprint(op))).or_insert(next)
    }

    /// Compiles one attribute comparison against the stores.
    #[allow(clippy::too_many_arguments)]
    fn compile_comparison(
        &self,
        d1: &RelationInstance,
        d2: &RelationInstance,
        s1: &ColumnarStore,
        s2: &ColumnarStore,
        left: usize,
        right: usize,
        op: SimilarityOp,
    ) -> PremiseEval {
        let lkey = (s1.instance_id(), s1.version(), left);
        let rkey = (s2.instance_id(), s2.version(), right);
        let lcol = s1.column(d1, left);
        let rcol = s2.column(d2, right);
        let op = (op != SimilarityOp::Equality).then_some(op);
        let (ldisp, rdisp) = match &op {
            Some(_) => (
                Some(self.display(lkey, &lcol)),
                Some(self.display(rkey, &rcol)),
            ),
            None => (None, None),
        };
        let trans = self.translation(lkey, rkey, &lcol, &rcol);
        let ctx = op
            .as_ref()
            .map(|op| self.ctx(lkey, rkey, op))
            .unwrap_or(u32::MAX);
        PremiseEval {
            lcol,
            rcol,
            ldisp,
            rdisp,
            trans,
            op,
            ctx,
        }
    }

    /// Compiles one MD premise (a `⇋` premise evaluates as value equality,
    /// as in [`MatchingDependency::premise_holds`]).
    fn compile_premise(
        &self,
        d1: &RelationInstance,
        d2: &RelationInstance,
        s1: &ColumnarStore,
        s2: &ColumnarStore,
        p: &MdPremise,
    ) -> PremiseEval {
        let op = match &p.op {
            MatchOp::Similarity(op) => op.clone(),
            MatchOp::Matching => SimilarityOp::Equality,
        };
        self.compile_comparison(d1, d2, s1, s2, p.left, p.right, op)
    }

    /// All tuple pairs satisfying an MD's premise, with the number of
    /// tuple-pair comparisons performed.  Deterministic order (left groups
    /// in dictionary first-seen order, chunks merged canonically); the
    /// *set* equals the nested-loop evaluation exactly, except under an
    /// explicitly approximate sorted-neighborhood fallback.
    fn premise_pairs(
        &self,
        md: &MatchingDependency,
        d1: &RelationInstance,
        d2: &RelationInstance,
    ) -> (Vec<(TupleId, TupleId)>, usize) {
        let threads = resolve_threads(self.threads);
        let (s1, s2) = (d1.columnar(), d2.columnar());
        if s1.is_empty() || s2.is_empty() {
            return (Vec::new(), 0);
        }
        let premises = md.premises();
        let compile_span = span!("match.compile");
        let evals: Vec<PremiseEval> = premises
            .iter()
            .map(|p| self.compile_premise(d1, d2, &s1, &s2, p))
            .collect();
        drop(compile_span);
        let is_eq = |p: &MdPremise| {
            matches!(&p.op, MatchOp::Matching)
                || matches!(&p.op, MatchOp::Similarity(SimilarityOp::Equality))
        };
        let eq_positions: Vec<usize> = (0..premises.len())
            .filter(|&i| is_eq(&premises[i]))
            .collect();
        if eq_positions.is_empty() {
            self.metric_pairs(md, d1, d2, &evals, threads)
        } else {
            self.eq_join_pairs(md, d1, d2, &evals, &eq_positions, threads)
        }
    }

    /// Equality premises become an interned-index join: left groups on the
    /// equality attributes translate their key ids into the right
    /// dictionaries and probe the right index's CSR postings; the remaining
    /// premises verify per row pair through the memo cache.
    fn eq_join_pairs(
        &self,
        md: &MatchingDependency,
        d1: &RelationInstance,
        d2: &RelationInstance,
        evals: &[PremiseEval],
        eq_positions: &[usize],
        threads: usize,
    ) -> (Vec<(TupleId, TupleId)>, usize) {
        let premises = md.premises();
        let left_attrs: Vec<usize> = eq_positions.iter().map(|&i| premises[i].left).collect();
        let right_attrs: Vec<usize> = eq_positions.iter().map(|&i| premises[i].right).collect();
        let build_span = span!("match.block.build", kind = "eq_join");
        let lidx = self.pool.interned_for(d1, &left_attrs, threads);
        let ridx = self.pool.interned_for(d2, &right_attrs, threads);
        drop(build_span);
        self.blocks_built.fetch_add(1, Ordering::Relaxed);
        self.obs.blocks_built.inc();
        let key_trans: Vec<&Arc<EqTranslation>> =
            eq_positions.iter().map(|&i| &evals[i].trans).collect();
        let rest: Vec<&PremiseEval> = (0..premises.len())
            .filter(|i| !eq_positions.contains(i))
            .map(|i| &evals[i])
            .collect();
        let groups: Vec<(Vec<ValueId>, &[u32])> = lidx.groups().collect();
        let right_rows_total = ridx.store().len() as u64;
        let ranges = chunk_ranges(groups.len(), threads);
        let chunks = parallel_map(&ranges, threads, |range| {
            let mut pairs = Vec::new();
            let mut comparisons = 0usize;
            let mut candidates = 0u64;
            let mut saved = 0u64;
            let mut rkey: Vec<ValueId> = Vec::with_capacity(key_trans.len());
            for (key, lrows) in &groups[range.clone()] {
                rkey.clear();
                let translated =
                    key.iter()
                        .zip(&key_trans)
                        .all(|(&id, trans)| match trans.get(id) {
                            Some(rid) => {
                                rkey.push(rid);
                                true
                            }
                            None => false,
                        });
                let rrows: &[u32] = if translated {
                    ridx.rows_for_ids(&rkey)
                } else {
                    &[]
                };
                candidates += rrows.len() as u64;
                saved += lrows.len() as u64 * (right_rows_total - rrows.len() as u64);
                for &lrow in *lrows {
                    for &rrow in rrows {
                        comparisons += 1;
                        if rest.iter().all(|e| e.holds_rows(&self.cache, lrow, rrow)) {
                            pairs.push((lidx.tuple_id(lrow), ridx.tuple_id(rrow)));
                        }
                    }
                }
            }
            (pairs, comparisons, candidates, saved)
        });
        self.merge_chunks(chunks)
    }

    /// No equality premises: group the left rows on the blocking premise's
    /// attribute, generate candidate right ids (q-grams, length windows, a
    /// sorted-neighborhood window, or all of them), check the blocking
    /// premise once per distinct id pair, and only then expand to rows and
    /// verify the remaining premises.
    fn metric_pairs(
        &self,
        md: &MatchingDependency,
        d1: &RelationInstance,
        d2: &RelationInstance,
        evals: &[PremiseEval],
        threads: usize,
    ) -> (Vec<(TupleId, TupleId)>, usize) {
        let premises = md.premises();
        // The blocking premise: the first one a lossless generator covers,
        // else the first premise.
        let covered = |i: &usize| match &premises[*i].op {
            MatchOp::Similarity(op) => block::cover(op) != Cover::None,
            MatchOp::Matching => false,
        };
        let bpos = (0..premises.len()).find(covered).unwrap_or(0);
        let beval = &evals[bpos];
        let bop = match &premises[bpos].op {
            MatchOp::Similarity(op) => op.clone(),
            MatchOp::Matching => SimilarityOp::Equality,
        };
        let rest: Vec<&PremiseEval> = (0..premises.len())
            .filter(|&i| i != bpos)
            .map(|i| &evals[i])
            .collect();
        let lidx = self.pool.interned_for(d1, &[premises[bpos].left], threads);
        let ridx = self.pool.interned_for(d2, &[premises[bpos].right], threads);
        let right_ids: Vec<u32> = ridx
            .groups()
            .map(|(key, _)| key[0].index() as u32)
            .collect();
        let generator = self.build_generator(&bop, beval, &lidx, right_ids);
        let groups: Vec<(Vec<ValueId>, &[u32])> = lidx.groups().collect();
        let right_rows_total = ridx.store().len() as u64;
        let right_dict_len = beval.rcol.interner().len();
        let ranges = chunk_ranges(groups.len(), threads);
        let chunks = parallel_map(&ranges, threads, |range| {
            let mut pairs = Vec::new();
            let mut comparisons = 0usize;
            let mut candidates = 0u64;
            let mut saved = 0u64;
            let mut cand: Vec<u32> = Vec::new();
            let mut seen = SeenStamp::new(right_dict_len);
            for (key, lrows) in &groups[range.clone()] {
                let lid = key[0];
                cand.clear();
                match &generator {
                    Candidates::QGram(blocker) => {
                        let ldisp = beval.ldisp.as_ref().expect("covered premise is metric");
                        blocker.candidates(ldisp.get(lid), &mut seen, &mut cand)
                    }
                    Candidates::Length(blocker) => {
                        let ldisp = beval.ldisp.as_ref().expect("covered premise is metric");
                        blocker.candidates(&bop, ldisp.char_len(lid), &mut cand)
                    }
                    Candidates::All(ids) => cand.extend_from_slice(ids),
                    Candidates::Window(map) => {
                        if let Some(ids) = map.get(&(lid.index() as u32)) {
                            cand.extend_from_slice(ids);
                        }
                    }
                }
                candidates += cand.len() as u64;
                let mut probed_rows = 0u64;
                for &rid_raw in &cand {
                    let rid = ValueId(rid_raw);
                    if !beval.holds_ids(&self.cache, lid, rid) {
                        continue;
                    }
                    let rrows = ridx.rows_for_ids(&[rid]);
                    probed_rows += rrows.len() as u64;
                    for &lrow in *lrows {
                        for &rrow in rrows {
                            comparisons += 1;
                            if rest.iter().all(|e| e.holds_rows(&self.cache, lrow, rrow)) {
                                pairs.push((lidx.tuple_id(lrow), ridx.tuple_id(rrow)));
                            }
                        }
                    }
                }
                saved += lrows.len() as u64 * (right_rows_total - probed_rows);
            }
            (pairs, comparisons, candidates, saved)
        });
        self.merge_chunks(chunks)
    }

    /// Builds the candidate generator for the blocking premise.
    fn build_generator(
        &self,
        bop: &SimilarityOp,
        beval: &PremiseEval,
        lidx: &dq_relation::InternedIndex,
        right_ids: Vec<u32>,
    ) -> Candidates {
        let generator = match block::cover(bop) {
            Cover::QGram => {
                let q = match bop {
                    SimilarityOp::QGram { q, .. } => *q,
                    _ => unreachable!("QGram cover implies a QGram operator"),
                };
                let _span = span!("match.block.build", kind = "qgram");
                Candidates::QGram(QGramBlocker::build(
                    q,
                    beval.rdisp.as_ref().expect("covered premise is metric"),
                    right_ids.iter().map(|&id| ValueId(id)),
                ))
            }
            Cover::Length => {
                let _span = span!("match.block.build", kind = "length");
                Candidates::Length(LengthBlocker::build(
                    beval.rdisp.as_ref().expect("covered premise is metric"),
                    right_ids.iter().map(|&id| ValueId(id)),
                ))
            }
            Cover::None => match self.approx_window {
                Some(window) => {
                    let _span = span!("match.block.build", kind = "window");
                    let ldisp = beval.ldisp.as_ref().expect("windowed premise is metric");
                    let rdisp = beval.rdisp.as_ref().expect("windowed premise is metric");
                    let left_ids: Vec<u32> = lidx
                        .groups()
                        .map(|(key, _)| key[0].index() as u32)
                        .collect();
                    let mut map: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
                    for (l, r) in block::sorted_neighborhood(
                        left_ids
                            .iter()
                            .map(|&id| (ValueId(id), ldisp.get(ValueId(id)))),
                        right_ids
                            .iter()
                            .map(|&id| (ValueId(id), rdisp.get(ValueId(id)))),
                        window,
                    ) {
                        map.entry(l).or_default().push(r);
                    }
                    Candidates::Window(map)
                }
                None => Candidates::All(right_ids),
            },
        };
        self.blocks_built.fetch_add(1, Ordering::Relaxed);
        self.obs.blocks_built.inc();
        generator
    }

    /// Merges worker chunks in canonical order and folds their counters
    /// into the engine's.
    fn merge_chunks(&self, chunks: Vec<PairChunk>) -> (Vec<(TupleId, TupleId)>, usize) {
        let mut pairs = Vec::new();
        let mut comparisons = 0usize;
        let (mut candidates, mut saved) = (0u64, 0u64);
        for (chunk_pairs, chunk_comparisons, chunk_candidates, chunk_saved) in chunks {
            pairs.extend(chunk_pairs);
            comparisons += chunk_comparisons;
            candidates += chunk_candidates;
            saved += chunk_saved;
        }
        self.comparisons
            .fetch_add(comparisons as u64, Ordering::Relaxed);
        self.obs.comparisons.add(comparisons as u64);
        self.candidates.fetch_add(candidates, Ordering::Relaxed);
        self.obs.candidates.add(candidates);
        self.pairs_saved.fetch_add(saved, Ordering::Relaxed);
        self.obs.pairs_saved.add(saved);
        (pairs, comparisons)
    }
}

/// Splits `len` items into at most `threads * 4` contiguous ranges.
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = len.div_ceil(threads.max(1) * 4).max(1);
    (0..len.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Matcher;
    use crate::md::fixtures::{billing_schema, card_schema, example_3_1};
    use crate::reference;
    use dq_relation::{Tuple, Value};

    const YC: [&str; 5] = ["FN", "LN", "addr", "tel", "email"];
    const YB: [&str; 5] = ["FN", "SN", "post", "phn", "email"];

    fn card_row(fn_: &str, ln: &str, addr: &str, tel: &str, email: &str) -> Tuple {
        Tuple::new(vec![
            Value::str("c"),
            Value::str("ssn"),
            Value::str(fn_),
            Value::str(ln),
            Value::str(addr),
            Value::str(tel),
            Value::str(email),
            Value::str("visa"),
        ])
    }

    fn billing_row(fn_: &str, sn: &str, post: &str, phn: &str, email: &str) -> Tuple {
        Tuple::new(vec![
            Value::str("c"),
            Value::str(fn_),
            Value::str(sn),
            Value::str(post),
            Value::str(phn),
            Value::str(email),
            Value::str("item"),
            Value::real(1.0),
        ])
    }

    fn instances() -> (RelationInstance, RelationInstance) {
        let mut d1 = RelationInstance::new(card_schema());
        let mut d2 = RelationInstance::new(billing_schema());
        for row in [
            card_row("John", "Smith", "10 Main St", "555-1234", "js@x.org"),
            card_row("Mary", "Jones", "5 Oak Ave", "555-2222", "mj@x.org"),
            card_row("Bob", "Lee", "7 Pine Rd", "555-3333", "bl@x.org"),
            card_row("John", "Smith", "9 Elm St", "555-4444", "js2@x.org"),
        ] {
            d1.insert(row).unwrap();
        }
        for row in [
            billing_row("Jon", "Smith", "10 Main St", "555-9999", "other@x.org"),
            billing_row("Mary", "Jones", "5 Oak Ave", "555-2222", "mj@x.org"),
            billing_row("Zoe", "Adams", "1 Elm St", "555-7777", "za@x.org"),
            billing_row("J.", "Smith", "9 Elm St", "555-4444", "js2@x.org"),
        ] {
            d2.insert(row).unwrap();
        }
        (d1, d2)
    }

    fn rules() -> Vec<RelativeKey> {
        vec![
            RelativeKey::new(
                &card_schema(),
                &billing_schema(),
                vec![
                    ("email", "email", SimilarityOp::Equality),
                    ("addr", "post", SimilarityOp::Equality),
                ],
                &YC,
                &YB,
            )
            .unwrap(),
            RelativeKey::new(
                &card_schema(),
                &billing_schema(),
                vec![
                    ("LN", "SN", SimilarityOp::Equality),
                    ("addr", "post", SimilarityOp::Equality),
                    ("FN", "FN", SimilarityOp::edit(3)),
                ],
                &YC,
                &YB,
            )
            .unwrap(),
        ]
    }

    fn engine() -> MatchingEngine {
        MatchingEngine::new(Arc::new(IndexPool::new())).with_threads(2)
    }

    #[test]
    fn engine_run_is_byte_identical_to_the_reference() {
        let (d1, d2) = instances();
        let expected = reference::run_rules(&rules(), &d1, &d2);
        let engine = engine();
        let interned = Matcher::new(rules()).run(&engine, &d1, &d2);
        assert_eq!(expected.matches, interned.matches);
        assert_eq!(expected.rule_hits, interned.rule_hits);
        assert!(engine.stats().blocks_built > 0);
        assert!(engine.stats().pairs_saved > 0);
    }

    #[test]
    fn metric_only_rules_agree_with_the_reference_for_every_covered_operator() {
        let (d1, d2) = instances();
        let ops = [
            SimilarityOp::edit(2),
            SimilarityOp::NormalizedEdit {
                min_similarity: 0.6,
            },
            SimilarityOp::QGram {
                q: 2,
                min_similarity: 0.3,
            },
            SimilarityOp::Jaro {
                min_similarity: 0.8,
            },
        ];
        for op in ops {
            let rule = RelativeKey::new(
                &card_schema(),
                &billing_schema(),
                vec![("FN", "FN", op.clone())],
                &YC,
                &YB,
            )
            .unwrap();
            let expected = reference::run_rules(std::slice::from_ref(&rule), &d1, &d2);
            let interned = Matcher::new(vec![rule]).run(&engine(), &d1, &d2);
            assert_eq!(expected.matches, interned.matches, "op {op}");
            assert_eq!(expected.rule_hits, interned.rule_hits, "op {op}");
        }
    }

    #[test]
    fn md_violations_agree_with_the_reference_in_contents_and_order() {
        let (d1, d2) = instances();
        let mds = example_3_1(&card_schema(), &billing_schema());
        let engine = engine();
        for md in &mds {
            for verdict in [false, true] {
                let expected = reference::md_violations(md, &d1, &d2, &|_, _| verdict);
                let interned = md.violations(&d1, &d2, &|_, _| verdict, &engine);
                assert_eq!(expected, interned, "md {md}, oracle {verdict}");
            }
        }
    }

    #[test]
    fn distinct_value_pairs_are_evaluated_once() {
        let (d1, d2) = instances();
        // Two "John Smith" cards share FN/LN dictionary entries, so the
        // edit-distance rule needs strictly fewer metric evaluations than
        // tuple-pair comparisons.
        let rule = RelativeKey::new(
            &card_schema(),
            &billing_schema(),
            vec![("FN", "FN", SimilarityOp::edit(3))],
            &YC,
            &YB,
        )
        .unwrap();
        let engine = engine();
        Matcher::new(vec![rule]).run(&engine, &d1, &d2);
        let stats = engine.stats();
        assert!(
            stats.cache.misses < stats.comparisons + stats.candidates,
            "metric work should happen per distinct pair, got {stats:?}"
        );
        // A second identical run is answered entirely from the memo cache.
        let misses_before = stats.cache.misses;
        Matcher::new(vec![RelativeKey::new(
            &card_schema(),
            &billing_schema(),
            vec![("FN", "FN", SimilarityOp::edit(3))],
            &YC,
            &YB,
        )
        .unwrap()])
        .run(&engine, &d1, &d2);
        assert_eq!(engine.stats().cache.misses, misses_before);
    }

    #[test]
    fn results_are_stable_across_thread_counts() {
        let (d1, d2) = instances();
        let matcher = Matcher::new(rules());
        let baseline = matcher.run(
            &MatchingEngine::new(Arc::new(IndexPool::new())).with_threads(1),
            &d1,
            &d2,
        );
        for threads in [2, 3, 8] {
            let engine = MatchingEngine::new(Arc::new(IndexPool::new())).with_threads(threads);
            let run = matcher.run(&engine, &d1, &d2);
            assert_eq!(baseline.matches, run.matches, "threads {threads}");
            assert_eq!(baseline.rule_hits, run.rule_hits, "threads {threads}");
        }
    }

    #[test]
    fn sorted_neighborhood_is_a_subset_of_the_exact_result() {
        let (d1, d2) = instances();
        let rule = RelativeKey::new(
            &card_schema(),
            &billing_schema(),
            vec![(
                "FN",
                "FN",
                SimilarityOp::Jaro {
                    min_similarity: 0.7,
                },
            )],
            &YC,
            &YB,
        )
        .unwrap();
        let matcher = Matcher::new(vec![rule]);
        let exact = matcher.run(&engine(), &d1, &d2);
        let approx = matcher.run(
            &MatchingEngine::new(Arc::new(IndexPool::new()))
                .with_threads(2)
                .with_sorted_neighborhood(2),
            &d1,
            &d2,
        );
        assert!(approx.matches.is_subset(&exact.matches));
    }
}
