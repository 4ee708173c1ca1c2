//! Discovery of conditional functional dependencies from data.
//!
//! Two discovery modes cover the two shapes of CFDs in Section 2.1:
//!
//! * **Constant CFDs** (every pattern cell a constant, e.g.
//!   `([CC = 44, AC = 131] → [city = EDI])`) are mined in the spirit of
//!   CFDMiner: frequent left-hand-side value combinations whose matching
//!   tuples all agree on the right-hand side, filtered for minimality so
//!   that a condition is only reported when no sub-condition already forces
//!   the same constant.
//! * **Variable CFDs** (an embedded FD plus a pattern tableau, e.g.
//!   `([CC, zip] → [street])` with pattern `(44, _ ‖ _)`) are mined in the
//!   spirit of CTANE: for an embedded FD that does not hold globally, the
//!   search enumerates increasingly specific pattern tuples (more constants)
//!   and keeps the most general ones under which the FD holds with enough
//!   support.
//!
//! Discovered dependencies are ordinary [`Cfd`] values; by construction every
//! one of them holds on the profiled instance, which the module's tests
//! assert and which makes them safe seeds for cleaning rules on *future*
//! data of the same source.

use crate::fd_discovery::{discover_fds_with_pool, subsets_of_size, FdDiscoveryConfig};
use crate::partition::{g3_error, g3_error_from_groups};
use crate::source::resolve_threads;
use dq_core::cfd::Cfd;
use dq_core::engine::parallel_map;
use dq_core::fd::Fd;
use dq_core::implication::cfd_minimal_cover;
use dq_core::pattern::{PatternTuple, PatternValue};
use dq_relation::{
    Column, FxHashMap, IndexPool, InternedIndex, KeyCodec, ProjectionKey, RelationInstance,
    StoreShardSource, Value, ValueId,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The canonical group-mining order shared by the naive and interned
/// paths.  `Value`'s `Ord` deliberately compares mixed numerics (`Int(0)`
/// vs `Real(0.0)`) as equal while `Eq` distinguishes them, so `Ord`-equal
/// but distinct keys get a debug-rendering tiebreak — without it each
/// path's hash-map iteration order would leak through the stable sort.
fn sorted_group_order(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    a.cmp(b)
        .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
}

/// Configuration of CFD discovery.
#[derive(Clone, Debug)]
pub struct CfdDiscoveryConfig {
    /// Minimum number of tuples a pattern tuple must match to be reported.
    pub min_support: usize,
    /// Maximum size of embedded-FD left-hand sides.
    pub max_lhs: usize,
    /// Maximum number of LHS attributes that may carry constants in a
    /// variable-CFD pattern tuple.
    pub max_condition_attrs: usize,
    /// Maximum `g3` error for an embedded FD to be considered a conditioning
    /// candidate (an FD with huge error is unlikely to hold on any useful
    /// condition).
    pub max_candidate_g3: f64,
    /// Cap on the number of pattern tuples collected per dependency.
    pub max_tableau: usize,
    /// Attributes excluded from discovery (surrogate keys, free text).
    pub exclude: Vec<usize>,
    /// Mine over pooled interned indexes (id comparisons, packed keys —
    /// the fast path).  `false` keeps the legacy `Vec<Value>`-keyed
    /// grouping; both paths mine groups in sorted key order and produce
    /// identical dependency sets.
    pub use_interned: bool,
    /// Worker threads for the per-level fan-outs (embedded FD discovery,
    /// constant-pattern mining per LHS, tableau mining per condition-
    /// position set).  `0` sizes the pool to the machine; `1` mines
    /// sequentially.  The mined dependencies are identical at every thread
    /// count.
    pub threads: usize,
    /// Post-process the mined set with
    /// [`cfd_minimal_cover`](dq_core::implication::cfd_minimal_cover):
    /// normalized rules implied by the rest are dropped, so detection and
    /// repair downstream check fewer, non-redundant dependencies.  The
    /// number of pruned fragments is reported in
    /// [`DiscoveredCfds::cover_dropped`].
    pub minimal_cover: bool,
}

impl Default for CfdDiscoveryConfig {
    fn default() -> Self {
        CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            max_condition_attrs: 2,
            max_candidate_g3: 0.5,
            max_tableau: 64,
            exclude: Vec::new(),
            use_interned: true,
            threads: 0,
            minimal_cover: false,
        }
    }
}

/// The outcome of [`discover_cfds`].
#[derive(Clone, Debug)]
pub struct DiscoveredCfds {
    /// Variable CFDs: exact FDs lifted to all-wildcard tableaux, plus
    /// conditional tableaux mined for approximate FDs.
    pub variable_cfds: Vec<Cfd>,
    /// Constant CFDs (association-rule-like patterns).
    pub constant_cfds: Vec<Cfd>,
    /// Number of candidate pattern tuples validated.
    pub candidates_checked: usize,
    /// Wall-clock milliseconds spent per lattice level (index 0 = LHS
    /// size 1), summed across the exact FD sweep, the approximate FD
    /// sweep and constant-pattern mining at that LHS size — the same
    /// per-level reporting FD discovery already gets from
    /// [`crate::fd_discovery::DiscoveredFds::level_ms`].  Per-FD tableau mining is not level-shaped and is
    /// reported through the `discover.cfd/tableau` span instead.
    pub level_ms: Vec<f64>,
    /// Normalized rule fragments pruned by the minimal-cover post-pass
    /// (`0` unless [`CfdDiscoveryConfig::minimal_cover`] was set).
    pub cover_dropped: usize,
}

impl DiscoveredCfds {
    /// All discovered CFDs, variable first.
    pub fn all(&self) -> Vec<Cfd> {
        self.variable_cfds
            .iter()
            .chain(self.constant_cfds.iter())
            .cloned()
            .collect()
    }

    /// Total number of dependencies.
    pub fn len(&self) -> usize {
        self.variable_cfds.len() + self.constant_cfds.len()
    }

    /// Whether nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Discovers constant CFDs: minimal frequent LHS value combinations that
/// force a constant on some other attribute.  Patterns over the same
/// `(LHS attributes, RHS attribute)` are merged into a single CFD tableau.
pub fn discover_constant_cfds(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
) -> Vec<Cfd> {
    discover_constant_cfds_with_pool(instance, config, &Arc::new(IndexPool::new()))
}

/// [`discover_constant_cfds`] over a shared [`IndexPool`].  On the interned
/// path every candidate condition set is grouped through a pooled
/// [`InternedIndex`], support and right-hand-side agreement are checked on
/// `u32` dictionary ids, and the minimality probe re-uses the sub-condition
/// indexes the level-wise sweep already built.
pub fn discover_constant_cfds_with_pool(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
) -> Vec<Cfd> {
    discover_constant_cfds_with_pool_timed(instance, config, pool).0
}

/// [`discover_constant_cfds_with_pool`] plus per-size-level wall-clock
/// milliseconds (index 0 = LHS size 1), measured through the span layer.
pub(crate) fn discover_constant_cfds_with_pool_timed(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
) -> (Vec<Cfd>, Vec<f64>) {
    let _span = dq_obs::span("constants");
    let schema = instance.schema().clone();
    let attrs: Vec<usize> = (0..schema.arity())
        .filter(|a| !config.exclude.contains(a))
        .collect();
    // tableaux[(lhs, rhs)] -> pattern tuples
    let mut tableaux: BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>> = BTreeMap::new();
    let mut level_ms: Vec<f64> = Vec::new();
    if config.use_interned {
        mine_constant_patterns_interned(
            instance,
            config,
            pool,
            &attrs,
            &mut tableaux,
            &mut level_ms,
        );
    } else {
        mine_constant_patterns_naive(instance, config, &attrs, &mut tableaux, &mut level_ms);
    }
    let cfds = tableaux
        .into_iter()
        .filter_map(|((lhs, rhs), mut tableau)| {
            tableau.sort_by_key(|tp| format!("{tp}"));
            tableau.dedup();
            Cfd::from_indices(&schema, lhs, vec![rhs], tableau).ok()
        })
        .collect();
    (cfds, level_ms)
}

/// One mined constant pattern, produced by a per-LHS worker and merged into
/// the tableaux in canonical order.
type MinedPattern = (usize, Vec<Value>, Value);

/// The legacy mining loop: per-tuple `Vec<Value>` projections.  Groups are
/// visited in sorted key order so the tableau cap selects the same patterns
/// as the interned path.  The LHS sets of one size level mine independently
/// (each writes its own `(LHS, RHS)` tableau keys), so they fan out across
/// the thread pool; per-LHS results merge back in canonical subset order.
fn mine_constant_patterns_naive(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    attrs: &[usize],
    tableaux: &mut BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>>,
    level_ms: &mut Vec<f64>,
) {
    let threads = resolve_threads(config.threads);
    let all_tuples: Vec<_> = instance.iter().map(|(_, t)| t.clone()).collect();
    for size in 1..=config.max_lhs.min(attrs.len()) {
        let level_span = dq_obs::span_owned(format!("level{size}"));
        let lhs_sets = subsets_of_size(attrs, size);
        let per_lhs: Vec<Vec<MinedPattern>> = parallel_map(&lhs_sets, threads, |lhs| {
            let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (pos, tuple) in all_tuples.iter().enumerate() {
                by_key.entry(tuple.project(lhs)).or_default().push(pos);
            }
            let mut groups: Vec<(Vec<Value>, Vec<usize>)> = by_key.into_iter().collect();
            groups.sort_by(|a, b| sorted_group_order(&a.0, &b.0));
            let mut mined: Vec<MinedPattern> = Vec::new();
            for (lhs_values, members) in &groups {
                if members.len() < config.min_support {
                    continue;
                }
                for &rhs in attrs {
                    if lhs.contains(&rhs) {
                        continue;
                    }
                    let first = all_tuples[members[0]].get(rhs).clone();
                    if !members.iter().all(|&m| all_tuples[m].get(rhs) == &first) {
                        continue;
                    }
                    // Minimality: a proper sub-condition that already forces
                    // the same constant (with support) makes this redundant.
                    if size >= 2
                        && is_redundant_constant_pattern(
                            &all_tuples,
                            lhs,
                            lhs_values,
                            rhs,
                            &first,
                            config.min_support,
                        )
                    {
                        continue;
                    }
                    mined.push((rhs, lhs_values.clone(), first));
                }
            }
            mined
        });
        for (lhs, mined) in lhs_sets.iter().zip(per_lhs) {
            for (rhs, lhs_values, first) in mined {
                push_constant_pattern(tableaux, config, lhs, rhs, &lhs_values, &first);
            }
        }
        level_ms.push(level_span.finish_ms());
    }
}

/// The interned mining loop: conditions group through pooled indexes and
/// every support / agreement / minimality check compares dictionary ids.
/// Values are resolved only when a pattern is actually emitted (and to sort
/// groups into the canonical mining order).  Like the naive loop, the LHS
/// sets of one size level fan out across the thread pool — the pooled
/// index and column lookups are all concurrent — and merge back in
/// canonical subset order.
fn mine_constant_patterns_interned(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
    attrs: &[usize],
    tableaux: &mut BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>>,
    level_ms: &mut Vec<f64>,
) {
    let threads = resolve_threads(config.threads);
    let store = instance.columnar();
    // Only the non-excluded attributes are ever read; excluded columns
    // (surrogate keys, free text) must not pay for dictionary encoding.
    let mut columns: Vec<Option<Arc<Column>>> = vec![None; instance.schema().arity()];
    for &a in attrs {
        columns[a] = Some(store.column(instance, a));
    }
    for size in 1..=config.max_lhs.min(attrs.len()) {
        let level_span = dq_obs::span_owned(format!("level{size}"));
        let lhs_sets = subsets_of_size(attrs, size);
        let per_lhs: Vec<Vec<MinedPattern>> = parallel_map(&lhs_sets, threads, |lhs| {
            // Candidate sub-condition indexes inside the minimality probe
            // are pooled too, so cross-LHS sharing survives the fan-out;
            // cold builds run single-threaded per worker (the level itself
            // is the parallel axis).
            let index = pool.interned_for(instance, lhs, 1);
            let mut groups: Vec<(Vec<Value>, Vec<ValueId>, &[u32])> = index
                .groups()
                .filter(|(_, rows)| rows.len() >= config.min_support)
                .map(|(ids, rows)| (resolve_key(&index, &ids), ids, rows))
                .collect();
            groups.sort_by(|a, b| sorted_group_order(&a.0, &b.0));
            let mut mined: Vec<MinedPattern> = Vec::new();
            for (lhs_values, lhs_ids, members) in &groups {
                for &rhs in attrs {
                    if lhs.contains(&rhs) {
                        continue;
                    }
                    let col = columns[rhs].as_ref().expect("non-excluded column built");
                    let first_id = col.id_at(members[0] as usize);
                    if !members.iter().all(|&m| col.id_at(m as usize) == first_id) {
                        continue;
                    }
                    if size >= 2
                        && is_redundant_constant_pattern_interned(
                            instance,
                            pool,
                            lhs,
                            lhs_ids,
                            col,
                            first_id,
                            config.min_support,
                        )
                    {
                        continue;
                    }
                    let first = col.interner().resolve(first_id).clone();
                    mined.push((rhs, lhs_values.clone(), first));
                }
            }
            mined
        });
        for (lhs, mined) in lhs_sets.iter().zip(per_lhs) {
            for (rhs, lhs_values, first) in mined {
                push_constant_pattern(tableaux, config, lhs, rhs, &lhs_values, &first);
            }
        }
        level_ms.push(level_span.finish_ms());
    }
}

/// Appends one mined constant pattern, respecting the per-dependency cap.
fn push_constant_pattern(
    tableaux: &mut BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>>,
    config: &CfdDiscoveryConfig,
    lhs: &[usize],
    rhs: usize,
    lhs_values: &[Value],
    rhs_value: &Value,
) {
    let entry = tableaux.entry((lhs.to_vec(), rhs)).or_default();
    if entry.len() >= config.max_tableau {
        return;
    }
    entry.push(PatternTuple::new(
        lhs_values
            .iter()
            .cloned()
            .map(PatternValue::Const)
            .collect(),
        vec![PatternValue::Const(rhs_value.clone())],
    ));
}

/// Resolves a group's key ids into owned values, positionally aligned with
/// the index's attribute list.
fn resolve_key(index: &InternedIndex, ids: &[ValueId]) -> Vec<Value> {
    ids.iter()
        .zip(index.columns())
        .map(|(&id, col)| col.interner().resolve(id).clone())
        .collect()
}

/// Whether the LHS pattern `a` matches every tuple the LHS pattern `b`
/// matches: at every position `a` is either a wildcard or equal to `b`.
fn lhs_more_general(a: &[PatternValue], b: &[PatternValue]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(pa, pb)| pa.is_any() || pa == pb)
}

/// Whether some proper subset of the condition already forces `rhs = value`
/// on at least `min_support` tuples — in which case the longer condition is
/// not minimal and should not be reported.
fn is_redundant_constant_pattern(
    tuples: &[dq_relation::Tuple],
    lhs: &[usize],
    lhs_values: &[Value],
    rhs: usize,
    value: &Value,
    min_support: usize,
) -> bool {
    for drop in 0..lhs.len() {
        let sub_attrs: Vec<usize> = lhs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, &a)| a)
            .collect();
        let sub_values: Vec<&Value> = lhs_values
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, v)| v)
            .collect();
        let matching: Vec<&dq_relation::Tuple> = tuples
            .iter()
            .filter(|t| {
                sub_attrs
                    .iter()
                    .zip(&sub_values)
                    .all(|(&a, v)| t.get(a) == *v)
            })
            .collect();
        if matching.len() >= min_support && matching.iter().all(|t| t.get(rhs) == value) {
            return true;
        }
    }
    false
}

/// Interned counterpart of [`is_redundant_constant_pattern`]: each
/// sub-condition is probed through its pooled index by dictionary ids
/// (valid across indexes because columns — and hence dictionaries — are
/// shared per store), and agreement on the right-hand side compares ids.
#[allow(clippy::too_many_arguments)]
fn is_redundant_constant_pattern_interned(
    instance: &RelationInstance,
    pool: &Arc<IndexPool>,
    lhs: &[usize],
    lhs_ids: &[ValueId],
    rhs_col: &Arc<Column>,
    rhs_constant: ValueId,
    min_support: usize,
) -> bool {
    for drop in 0..lhs.len() {
        let sub_attrs: Vec<usize> = lhs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, &a)| a)
            .collect();
        let sub_ids: Vec<ValueId> = lhs_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, &id)| id)
            .collect();
        let sub_index = pool.interned_for(instance, &sub_attrs, 1);
        let rows = sub_index.rows_for_ids(&sub_ids);
        if rows.len() >= min_support
            && rows
                .iter()
                .all(|&r| rhs_col.id_at(r as usize) == rhs_constant)
        {
            return true;
        }
    }
    false
}

/// The grouping / validation backend of [`discover_tableau_for_fd`]: the
/// legacy variant projects `Vec<Value>` keys per tuple, the interned
/// variant groups through pooled indexes and compares packed dictionary
/// ids.  Both hand the shared mining loop groups in sorted key order and
/// members as dense row positions, so the mined tableaux are identical.
enum TableauMiner<'a> {
    Naive {
        tuples: Vec<dq_relation::Tuple>,
        lhs: Vec<usize>,
        rhs: Vec<usize>,
    },
    Interned {
        instance: &'a RelationInstance,
        pool: Arc<IndexPool>,
        lhs_codec: KeyCodec,
        rhs_codec: KeyCodec,
        rhs_cols: Vec<Arc<Column>>,
    },
}

impl<'a> TableauMiner<'a> {
    fn naive(instance: &RelationInstance, fd: &Fd) -> Self {
        TableauMiner::Naive {
            tuples: instance.iter().map(|(_, t)| t.clone()).collect(),
            lhs: fd.lhs().to_vec(),
            rhs: fd.rhs().to_vec(),
        }
    }

    fn interned(instance: &'a RelationInstance, fd: &Fd, pool: &Arc<IndexPool>) -> Self {
        let store = instance.columnar();
        let lhs_cols: Vec<Arc<Column>> = fd
            .lhs()
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        let rhs_cols: Vec<Arc<Column>> = fd
            .rhs()
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        TableauMiner::Interned {
            instance,
            pool: Arc::clone(pool),
            lhs_codec: KeyCodec::new(lhs_cols),
            rhs_codec: KeyCodec::new(rhs_cols.clone()),
            rhs_cols,
        }
    }

    /// Distinct value combinations on `cond_attrs` with at least
    /// `min_support` members, sorted by key values; members are dense row
    /// positions (live tuples in insertion order on both variants).
    fn groups(&self, cond_attrs: &[usize], min_support: usize) -> Vec<(Vec<Value>, Vec<usize>)> {
        let mut out: Vec<(Vec<Value>, Vec<usize>)> = match self {
            TableauMiner::Naive { tuples, .. } => {
                let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (pos, tuple) in tuples.iter().enumerate() {
                    by_key
                        .entry(tuple.project(cond_attrs))
                        .or_default()
                        .push(pos);
                }
                by_key
                    .into_iter()
                    .filter(|(_, members)| members.len() >= min_support)
                    .collect()
            }
            TableauMiner::Interned { instance, pool, .. } => {
                // Condition sets revisit indexes FD discovery already
                // built; a cold build runs single-threaded because the
                // condition-position sets themselves are the parallel axis.
                let index = pool.interned_for(instance, cond_attrs, 1);
                index
                    .groups()
                    .filter(|(_, rows)| rows.len() >= min_support)
                    .map(|(ids, rows)| {
                        (
                            resolve_key(&index, &ids),
                            rows.iter().map(|&r| r as usize).collect(),
                        )
                    })
                    .collect()
            }
        };
        out.sort_by(|a, b| sorted_group_order(&a.0, &b.0));
        out
    }

    /// Does the embedded FD hold on exactly these members?
    fn fd_holds_on(&self, members: &[usize]) -> bool {
        match self {
            TableauMiner::Naive { tuples, lhs, rhs } => {
                let mut by_lhs: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
                for &m in members {
                    let key = tuples[m].project(lhs);
                    let val = tuples[m].project(rhs);
                    match by_lhs.get(&key) {
                        Some(existing) if existing != &val => return false,
                        Some(_) => {}
                        None => {
                            by_lhs.insert(key, val);
                        }
                    }
                }
                true
            }
            TableauMiner::Interned {
                lhs_codec,
                rhs_codec,
                ..
            } => {
                let mut by_lhs: FxHashMap<ProjectionKey, ProjectionKey> = FxHashMap::default();
                for &m in members {
                    let key = lhs_codec.pack_row(m);
                    let val = rhs_codec.pack_row(m);
                    match by_lhs.get(&key) {
                        Some(existing) if existing != &val => return false,
                        Some(_) => {}
                        None => {
                            by_lhs.insert(key, val);
                        }
                    }
                }
                true
            }
        }
    }

    /// The members' common RHS projection, when they all agree on it.
    fn constant_rhs(&self, members: &[usize]) -> Option<Vec<Value>> {
        match self {
            TableauMiner::Naive { tuples, rhs, .. } => {
                let first_rhs = tuples[members[0]].project(rhs);
                members
                    .iter()
                    .all(|&m| tuples[m].project(rhs) == first_rhs)
                    .then_some(first_rhs)
            }
            TableauMiner::Interned {
                rhs_codec,
                rhs_cols,
                ..
            } => {
                let first = rhs_codec.pack_row(members[0]);
                members
                    .iter()
                    .all(|&m| rhs_codec.pack_row(m) == first)
                    .then(|| {
                        rhs_cols
                            .iter()
                            .map(|col| col.interner().resolve(col.id_at(members[0])).clone())
                            .collect()
                    })
            }
        }
    }
}

/// Mines a pattern tableau for the embedded FD `fd` on `instance`: the most
/// general pattern tuples (fewest constants) under which the FD holds with
/// at least [`CfdDiscoveryConfig::min_support`] matching tuples.
///
/// Returns `None` when no pattern with enough support makes the FD hold.
/// When the FD already holds globally the tableau is the single all-wildcard
/// pattern (i.e. the traditional FD).
pub fn discover_tableau_for_fd(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
) -> Option<Cfd> {
    discover_tableau_for_fd_with_pool(instance, fd, config, &Arc::new(IndexPool::new()))
}

/// [`discover_tableau_for_fd`] over a shared [`IndexPool`] (the condition
/// sets enumerated here revisit the indexes FD discovery already built).
pub fn discover_tableau_for_fd_with_pool(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
) -> Option<Cfd> {
    discover_tableau_for_fd_with_pool_threads(
        instance,
        fd,
        config,
        pool,
        resolve_threads(config.threads),
    )
}

/// [`discover_tableau_for_fd_with_pool`] with an explicit worker budget for
/// the per-condition-set fan-out, so an outer per-FD fan-out can hand each
/// mine a slice of the pool instead of letting every mine claim the whole
/// machine (nesting up to `threads²` scoped workers).
fn discover_tableau_for_fd_with_pool_threads(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
    threads: usize,
) -> Option<Cfd> {
    let _span = dq_obs::span("tableau");
    let schema = instance.schema().clone();
    let lhs = fd.lhs().to_vec();
    let rhs = fd.rhs().to_vec();
    let miner = if config.use_interned {
        TableauMiner::interned(instance, fd, pool)
    } else {
        TableauMiner::naive(instance, fd)
    };
    let mut accepted: Vec<PatternTuple> = Vec::new();

    /// One validated pattern candidate, produced by a per-condition-set
    /// worker; acceptance (generality pruning + the tableau cap) happens at
    /// the sequential merge so the mined tableau is order-identical to the
    /// sequential sweep.
    struct TableauCandidate {
        lhs_pattern: Vec<PatternValue>,
        holds: bool,
        constant_rhs: Option<Vec<Value>>,
    }

    let max_constants = config.max_condition_attrs.min(lhs.len());
    for constants in 0..=max_constants {
        if accepted.len() >= config.max_tableau {
            break;
        }
        // Positions (within the LHS list) that carry constants.
        let positions = subsets_of_size(&(0..lhs.len()).collect::<Vec<_>>(), constants);
        let position_sets: Vec<Vec<usize>> = if constants == 0 {
            vec![Vec::new()]
        } else {
            positions
        };
        // Two patterns with the same number of constants can never cover
        // each other (coverage needs a constant-position subset, equal
        // counts force equality), so the generality prune only ever fires
        // on patterns accepted at *earlier* levels — frozen for the whole
        // level.  That makes the condition-position sets independent: each
        // worker groups and validates its candidates against the frozen
        // tableau, and the merge below re-applies acceptance sequentially.
        let per_set: Vec<Vec<TableauCandidate>> =
            parallel_map(&position_sets, threads, |cond_positions| {
                let cond_attrs: Vec<usize> = cond_positions.iter().map(|&p| lhs[p]).collect();
                miner
                    .groups(&cond_attrs, config.min_support)
                    .into_iter()
                    .filter_map(|(cond_values, members)| {
                        let lhs_pattern: Vec<PatternValue> = (0..lhs.len())
                            .map(|p| match cond_positions.iter().position(|&c| c == p) {
                                Some(i) => PatternValue::Const(cond_values[i].clone()),
                                None => PatternValue::Any,
                            })
                            .collect();
                        // Prefer the most general patterns: skip a candidate
                        // whose LHS is covered by an already accepted, more
                        // general one (all from earlier levels).
                        if accepted
                            .iter()
                            .any(|a| lhs_more_general(&a.lhs, &lhs_pattern))
                        {
                            return None;
                        }
                        Some(TableauCandidate {
                            // Does the embedded FD hold on the matching tuples?
                            holds: miner.fd_holds_on(&members),
                            constant_rhs: miner.constant_rhs(&members),
                            lhs_pattern,
                        })
                    })
                    .collect()
            });
        // Sequential merge in canonical candidate order.  The cap breaks
        // only the *current* condition set's candidates — exactly the
        // sequential loop's behaviour (its cap check sat in the inner
        // group loop), so later condition sets of the level still emit.
        for (cond_positions, candidates) in position_sets.iter().zip(per_set) {
            for candidate in candidates {
                if accepted
                    .iter()
                    .any(|a| lhs_more_general(&a.lhs, &candidate.lhs_pattern))
                {
                    continue;
                }
                if !candidate.holds {
                    continue;
                }
                // Upgrade the RHS to constants when every matching tuple
                // agrees on it (the `city = EDI` shape of cfd2/cfd3).
                let rhs_pattern: Vec<PatternValue> = match candidate.constant_rhs {
                    Some(first_rhs) if !cond_positions.is_empty() => {
                        first_rhs.into_iter().map(PatternValue::Const).collect()
                    }
                    _ => vec![PatternValue::Any; rhs.len()],
                };
                accepted.push(PatternTuple::new(candidate.lhs_pattern, rhs_pattern));
                if accepted.len() >= config.max_tableau {
                    break;
                }
            }
        }
    }

    if accepted.is_empty() {
        return None;
    }
    accepted.sort_by_key(|tp| format!("{tp}"));
    accepted.dedup();
    Cfd::from_indices(&schema, lhs, rhs, accepted).ok()
}

/// Full CFD discovery: exact FDs (reported as all-wildcard CFDs), conditional
/// tableaux for approximate FDs, and constant CFDs.
pub fn discover_cfds(instance: &RelationInstance, config: &CfdDiscoveryConfig) -> DiscoveredCfds {
    discover_cfds_with_pool(instance, config, &Arc::new(IndexPool::new()))
}

/// [`discover_cfds`] over a shared [`IndexPool`]: FD discovery, the `g3`
/// conditioning filter, tableau mining and constant-pattern mining all draw
/// their groupings from the same pooled interned indexes, so each distinct
/// attribute set is encoded once for the entire run.
pub fn discover_cfds_with_pool(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    pool: &Arc<IndexPool>,
) -> DiscoveredCfds {
    let _span = dq_obs::span!("discover.cfd", arity = instance.schema().arity());
    let mut candidates_checked = 0usize;

    // Exact FDs become traditional (all-wildcard) CFDs.
    let exact = discover_fds_with_pool(
        instance,
        &FdDiscoveryConfig {
            max_lhs: config.max_lhs,
            max_g3: 0.0,
            exclude: config.exclude.clone(),
            use_interned: config.use_interned,
            threads: config.threads,
        },
        pool,
    );
    candidates_checked += exact.candidates_checked;
    let mut variable_cfds: Vec<Cfd> = exact.fds.iter().map(Cfd::from_fd).collect();
    let mut level_ms = exact.level_ms.clone();

    // Approximate FDs (hold after removing at most `max_candidate_g3` of the
    // tuples but not exactly) are conditioning candidates: mine a tableau.
    let approx = discover_fds_with_pool(
        instance,
        &FdDiscoveryConfig {
            max_lhs: config.max_lhs,
            max_g3: config.max_candidate_g3,
            exclude: config.exclude.clone(),
            use_interned: config.use_interned,
            threads: config.threads,
        },
        pool,
    );
    candidates_checked += approx.candidates_checked;
    add_level_ms(&mut level_ms, &approx.level_ms);
    // The per-FD tableau mines are independent — each conditions its own
    // embedded FD against the frozen exact set — so they fan out across the
    // pool.  Each worker gets an inner budget of the thread pool for its
    // per-condition-set fan-out, keeping the total scoped-worker count at
    // `threads` instead of `threads²`.  `parallel_map` preserves input
    // order, so the mined CFDs and `candidates_checked` are byte-identical
    // to the sequential loop at any thread count.
    let tableau_fds: Vec<&dq_core::fd::Fd> = approx
        .fds
        .iter()
        .filter(|fd| {
            !exact
                .fds
                .iter()
                .any(|e| e.lhs() == fd.lhs() && e.rhs() == fd.rhs())
        })
        .collect();
    let threads = resolve_threads(config.threads);
    let outer = threads.min(tableau_fds.len()).max(1);
    let inner = (threads / outer).max(1);
    struct FdOutcome {
        checked: bool,
        cfd: Option<Cfd>,
    }
    let outcomes: Vec<FdOutcome> = parallel_map(&tableau_fds, threads, |fd| {
        // Only condition on FDs that genuinely fail globally.
        let fd_g3 = if config.use_interned {
            let index = pool.interned_for(instance, fd.lhs(), 1);
            let source = StoreShardSource::with_store(instance, Arc::clone(index.store()));
            g3_error_from_groups(&source, index.multi_group_rows(), fd.rhs())
        } else {
            g3_error(instance, fd.lhs(), fd.rhs())
        };
        if fd_g3 == 0.0 {
            return FdOutcome {
                checked: false,
                cfd: None,
            };
        }
        FdOutcome {
            checked: true,
            cfd: discover_tableau_for_fd_with_pool_threads(instance, fd, config, pool, inner),
        }
    });
    for outcome in outcomes {
        if !outcome.checked {
            continue;
        }
        candidates_checked += 1;
        if let Some(cfd) = outcome.cfd {
            // A tableau consisting solely of the all-wildcard pattern adds
            // nothing beyond the (failing) traditional FD.
            if !cfd.tableau().iter().all(PatternTuple::is_all_wildcards) {
                variable_cfds.push(cfd);
            }
        }
    }

    let (constant_cfds, constant_level_ms) =
        discover_constant_cfds_with_pool_timed(instance, config, pool);
    add_level_ms(&mut level_ms, &constant_level_ms);
    let mut discovered = DiscoveredCfds {
        variable_cfds,
        constant_cfds,
        candidates_checked,
        level_ms,
        cover_dropped: 0,
    };

    // Opt-in static-analysis post-pass: replace the mined set with its
    // canonical minimal cover, so redundant (implied) fragments never reach
    // detection or repair.  The cover works on normalized single-pattern
    // fragments, which are re-classified by shape.
    if config.minimal_cover {
        let all = discovered.all();
        let normalized: usize = all.iter().map(|c| c.normalize().len()).sum();
        let cover = cfd_minimal_cover(&all);
        discovered.cover_dropped = normalized.saturating_sub(cover.len());
        let (constant, variable) = cover.into_iter().partition(Cfd::is_constant);
        discovered.constant_cfds = constant;
        discovered.variable_cfds = variable;
        dq_obs::add(
            "discover.cfd.cover_dropped",
            discovered.cover_dropped as u64,
        );
    }
    discovered
}

/// Element-wise sum of per-level timings, growing `total` as needed (the
/// lattice sweeps and constant mining may stop at different depths).
fn add_level_ms(total: &mut Vec<f64>, levels: &[f64]) {
    if total.len() < levels.len() {
        total.resize(levels.len(), 0.0);
    }
    for (t, l) in total.iter_mut().zip(levels) {
        *t += l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::detect::detect_cfd_violations;
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    /// A miniature customer-like schema: country, area code, city, street.
    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "cust",
            vec![
                ("cc", Domain::Int),
                ("ac", Domain::Int),
                ("city", Domain::Text),
                ("zip", Domain::Text),
                ("street", Domain::Text),
            ],
        ))
    }

    fn row(inst: &mut RelationInstance, cc: i64, ac: i64, city: &str, zip: &str, street: &str) {
        inst.insert_values(vec![
            Value::int(cc),
            Value::int(ac),
            Value::str(city),
            Value::str(zip),
            Value::str(street),
        ])
        .unwrap();
    }

    /// UK rows obey zip → street; US rows deliberately break it.
    fn uk_us_instance() -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for i in 0..6 {
            row(
                &mut inst,
                44,
                131,
                "EDI",
                &format!("EH{}", i / 2),
                &format!("S{}", i / 2),
            );
        }
        // US: same zip, different streets.
        row(&mut inst, 1, 908, "MH", "07974", "Mtn Ave");
        row(&mut inst, 1, 908, "MH", "07974", "Main St");
        row(&mut inst, 1, 212, "NYC", "10001", "5th Ave");
        row(&mut inst, 1, 212, "NYC", "10001", "Broadway");
        inst
    }

    #[test]
    fn constant_cfds_find_area_code_city_pattern() {
        let inst = uk_us_instance();
        let config = CfdDiscoveryConfig {
            min_support: 2,
            max_lhs: 2,
            ..CfdDiscoveryConfig::default()
        };
        let cfds = discover_constant_cfds(&inst, &config);
        // ac = 131 → city = EDI must be found (as a minimal, single-attribute
        // condition; the redundant {cc = 44, ac = 131} version must not be).
        let found = cfds.iter().any(|c| {
            c.lhs() == [1]
                && c.rhs() == [2]
                && c.tableau().iter().any(|tp| {
                    tp.lhs == [PatternValue::Const(Value::int(131))]
                        && tp.rhs == [PatternValue::Const(Value::str("EDI"))]
                })
        });
        assert!(found, "expected ac=131 → city=EDI, got {cfds:?}");
        let redundant = cfds.iter().any(|c| c.lhs() == [0, 1] && c.rhs() == [2]);
        assert!(
            !redundant,
            "two-attribute condition should be pruned as non-minimal"
        );
    }

    #[test]
    fn constant_cfds_hold_on_the_instance() {
        let inst = uk_us_instance();
        let cfds = discover_constant_cfds(&inst, &CfdDiscoveryConfig::default());
        assert!(!cfds.is_empty());
        let report = detect_cfd_violations(&inst, &cfds);
        assert!(
            report.is_clean(),
            "discovered constant CFDs must hold on the data"
        );
    }

    #[test]
    fn tableau_mining_recovers_uk_condition() {
        let inst = uk_us_instance();
        // zip → street fails globally (US rows), holds for cc = 44.
        let fd = Fd::new(&schema(), &["cc", "zip"], &["street"]);
        let cfd = discover_tableau_for_fd(&inst, &fd, &CfdDiscoveryConfig::default())
            .expect("a conditional tableau exists");
        assert!(cfd.holds_on(&inst));
        let has_uk_pattern = cfd
            .tableau()
            .iter()
            .any(|tp| tp.lhs.first() == Some(&PatternValue::Const(Value::int(44))));
        assert!(
            has_uk_pattern,
            "expected a (44, _) pattern, got {:?}",
            cfd.tableau()
        );
    }

    #[test]
    fn tableau_mining_returns_none_without_support() {
        let mut inst = RelationInstance::new(schema());
        // Two tuples that violate zip → street and share no usable condition.
        row(&mut inst, 1, 212, "NYC", "10001", "5th Ave");
        row(&mut inst, 1, 212, "NYC", "10001", "Broadway");
        let fd = Fd::new(&schema(), &["zip"], &["street"]);
        let config = CfdDiscoveryConfig {
            min_support: 2,
            ..CfdDiscoveryConfig::default()
        };
        assert!(discover_tableau_for_fd(&inst, &fd, &config).is_none());
    }

    #[test]
    fn exact_fd_becomes_all_wildcard_tableau() {
        let mut inst = RelationInstance::new(schema());
        row(&mut inst, 44, 131, "EDI", "EH1", "S1");
        row(&mut inst, 44, 131, "EDI", "EH1", "S1");
        row(&mut inst, 44, 141, "GLA", "G1", "S2");
        let fd = Fd::new(&schema(), &["zip"], &["street"]);
        let cfd = discover_tableau_for_fd(&inst, &fd, &CfdDiscoveryConfig::default()).unwrap();
        assert!(cfd.tableau().iter().any(PatternTuple::is_all_wildcards));
    }

    #[test]
    fn full_discovery_output_is_consistent_with_the_data() {
        let inst = uk_us_instance();
        let discovered = discover_cfds(&inst, &CfdDiscoveryConfig::default());
        assert!(!discovered.is_empty());
        let report = detect_cfd_violations(&inst, &discovered.all());
        assert!(
            report.is_clean(),
            "every discovered CFD must hold on the instance it was mined from"
        );
    }

    #[test]
    fn fan_out_is_byte_identical_to_sequential_mining() {
        let inst = uk_us_instance();
        for use_interned in [false, true] {
            let config = |threads| CfdDiscoveryConfig {
                threads,
                use_interned,
                min_support: 2,
                max_lhs: 2,
                ..CfdDiscoveryConfig::default()
            };
            let sequential = discover_cfds(&inst, &config(1));
            for threads in [2, 8] {
                let parallel = discover_cfds(&inst, &config(threads));
                assert_eq!(
                    parallel.variable_cfds, sequential.variable_cfds,
                    "threads {threads}"
                );
                assert_eq!(parallel.constant_cfds, sequential.constant_cfds);
                assert_eq!(parallel.candidates_checked, sequential.candidates_checked);
            }
        }
    }

    #[test]
    fn discovery_respects_exclusions() {
        let inst = uk_us_instance();
        let config = CfdDiscoveryConfig {
            exclude: vec![4],
            ..CfdDiscoveryConfig::default()
        };
        let discovered = discover_cfds(&inst, &config);
        for cfd in discovered.all() {
            assert!(!cfd.lhs().contains(&4));
            assert!(!cfd.rhs().contains(&4));
        }
    }
}
