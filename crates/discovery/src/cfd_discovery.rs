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
//! Every miner runs on the interned columnar store: conditions group
//! through pooled [`InternedIndex`]es shared with FD discovery, and
//! support, agreement and minimality checks compare dictionary ids.  The
//! row-oriented miners these are held byte-identical to live in
//! [`crate::reference`].
//!
//! Both pattern miners visit groups in the reference's canonical order
//! (`sorted_group_order` over resolved values) but sort on integers: one
//! per-run `DictionaryRanks` table gives every dictionary id its position
//! in `Value`'s `Ord`, and a group sorts by its rank tuple.  Values are
//! resolved only for emitted patterns.
//! Both miners also stop validating once the
//! [`max_tableau`](CfdDiscoveryConfig::max_tableau) cap is full:
//!
//! * a constant tableau `(LHS, RHS)` is written by exactly one per-LHS
//!   worker, in group order, so the worker stops validating an RHS once it
//!   holds `max_tableau` patterns, and the whole LHS once every RHS is full;
//! * patterns with the same number of constants never cover each other, so
//!   within one tableau level a candidate is accepted exactly when the
//!   embedded FD holds on it and no pattern of an earlier level covers it;
//!   each condition-position worker stops once it has the tableau's
//!   remaining room.
//!
//! The `discover.cfd.groups_validated` counter records how many groups
//! were validated, and `discover.cfd.cap_exits` how many caps filled and
//! ended validation: one per full constant `(LHS, RHS)` tableau, one per
//! tableau-mining worker that reached its room.
//!
//! Discovered dependencies are ordinary [`Cfd`] values; by construction every
//! one of them holds on the profiled instance, which the module's tests
//! assert and which makes them safe seeds for cleaning rules on *future*
//! data of the same source.

use crate::fd_discovery::{discover_fds_with_pool, subsets_of_size, FdDiscoveryConfig};
use crate::partition::g3_error_from_groups;
use crate::source::resolve_threads;
use dq_core::cfd::Cfd;
use dq_core::engine::parallel_map;
use dq_core::fd::Fd;
use dq_core::implication::cfd_minimal_cover;
use dq_core::pattern::{PatternTuple, PatternValue};
use dq_relation::{
    Column, FxHashMap, IndexPool, InternedIndex, KeyCodec, ProjectionKey, RelationInstance,
    RelationSchema, StoreShardSource, Value, ValueId,
};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The canonical group-mining order shared with the reference miners.
/// `Value`'s `Ord` deliberately compares mixed numerics (`Int(0)` vs
/// `Real(0.0)`) as equal while `Eq` distinguishes them, so `Ord`-equal but
/// distinct keys get a debug-rendering tiebreak — without it each miner's
/// grouping order would leak through the stable sort.
pub(crate) fn sorted_group_order(a: &[Value], b: &[Value]) -> Ordering {
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
    /// Worker threads for the per-level fan-outs (embedded FD discovery,
    /// constant-pattern mining per LHS, tableau mining per condition-
    /// position set).  `0` sizes the pool to the machine; `1` mines
    /// sequentially.  The mined dependencies are identical at every thread
    /// count.
    pub threads: usize,
    /// Post-process the mined set with
    /// [`cfd_minimal_cover`]:
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
            threads: 0,
            minimal_cover: false,
        }
    }
}

impl CfdDiscoveryConfig {
    /// The FD sweep feeding CFD discovery: exact FDs at `max_g3 = 0`,
    /// conditioning candidates at [`max_candidate_g3`](Self::max_candidate_g3).
    pub(crate) fn fd_config(&self, max_g3: f64) -> FdDiscoveryConfig {
        FdDiscoveryConfig {
            max_lhs: self.max_lhs,
            max_g3,
            exclude: self.exclude.clone(),
            use_interned: true,
            threads: self.threads,
        }
    }

    /// The attributes discovery may use, in schema order.
    pub(crate) fn attrs(&self, schema: &RelationSchema) -> Vec<usize> {
        (0..schema.arity())
            .filter(|a| !self.exclude.contains(a))
            .collect()
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

/// Mined constant patterns, keyed by `(LHS attributes, RHS attribute)`.
pub(crate) type ConstantTableaux = BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>>;

/// One group of an [`InternedIndex`]: its key ids and its rows.
type Group<'i> = (Vec<ValueId>, &'i [u32]);

/// Per-run dictionary ranks: for each ranked attribute, `rank[id]` is the
/// position of the id's value in `Value`'s `Ord` over the column's
/// dictionary.  Groups of an index over ranked attributes sort by their
/// rank tuples into exactly the order [`sorted_group_order`] gives their
/// resolved values, without resolving or comparing a single `Value`.
///
/// That holds only where `Ord` is a strict total order on the dictionary,
/// which only a dictionary mixing `Int` and `Real` breaks: `Ord` compares
/// across the two numerically, so distinct ids can tie (`Int(0)` and
/// `Real(0.0)`, which only the debug-rendering tiebreak orders) and the
/// order is not transitive (`Int(2^53)` and `Int(2^53 + 1)` both compare
/// equal to `Real(2^53)`).  Such an attribute is left unranked, and groups
/// keyed on it fall back to sorting resolved values.
pub(crate) struct DictionaryRanks {
    /// Indexed by attribute; `None` for attributes left unranked.
    by_attr: Vec<Option<Vec<u32>>>,
}

impl DictionaryRanks {
    /// Ranks the dictionaries of `attrs` for groups of at least
    /// `min_support` rows, fanning the columns out across `threads`
    /// workers.
    fn build(
        instance: &RelationInstance,
        attrs: &[usize],
        min_support: usize,
        threads: usize,
    ) -> Self {
        let _span = dq_obs::span("ranks");
        let store = instance.columnar();
        let ranked = parallel_map(attrs, threads, |&a| {
            column_ranks(&store.column(instance, a), min_support)
        });
        let mut by_attr = vec![None; instance.schema().arity()];
        for (&a, ranks) in attrs.iter().zip(ranked) {
            by_attr[a] = ranks;
        }
        DictionaryRanks { by_attr }
    }

    /// The groups of `index` holding at least `min_support` rows, in the
    /// canonical mining order.  Keys of smaller groups are never decoded.
    fn sorted_groups<'i>(&self, index: &'i InternedIndex, min_support: usize) -> Vec<Group<'i>> {
        let mut groups: Vec<Group<'_>> = index.groups_with_min(min_support).collect();
        let ranks: Option<Vec<&[u32]>> = index
            .attrs()
            .iter()
            .map(|&a| self.by_attr.get(a)?.as_deref())
            .collect();
        let Some(ranks) = ranks else {
            let mut keyed: Vec<(Vec<Value>, Group<'_>)> = groups
                .into_iter()
                .map(|group| (resolve_key(index, &group.0), group))
                .collect();
            keyed.sort_by(|a, b| sorted_group_order(&a.0, &b.0));
            return keyed.into_iter().map(|(_, group)| group).collect();
        };
        // Ranks are distinct across a ranked dictionary, so distinct keys
        // never compare equal and an unstable sort is deterministic.
        groups.sort_unstable_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .zip(&ranks)
                .map(|((x, y), r)| r[x.index()].cmp(&r[y.index()]))
                .find(|order| order.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        groups
    }
}

/// The ranks of one column's dictionary, or `None` when `Value`'s `Ord`
/// is not a strict total order on it (see [`DictionaryRanks`]).  Only ids
/// carried by at least `min_support` rows can appear in a group the
/// miners visit, so only those are ranked (among themselves); the rest —
/// on key-like columns, most of the dictionary — are never sorted and
/// keep the rank `u32::MAX`.
fn column_ranks(column: &Column, min_support: usize) -> Option<Vec<u32>> {
    let values = column.interner().values();
    let mut counts = vec![0u32; values.len()];
    for ids in column.shard_ids(0..column.len()) {
        for id in ids {
            counts[id.index()] += 1;
        }
    }
    let threshold = min_support.max(1) as u32;
    let mut order: Vec<u32> = (0..values.len() as u32)
        .filter(|&id| counts[id as usize] >= threshold)
        .collect();
    let value = |id: u32| &values[id as usize];
    let ints = order.iter().any(|&id| matches!(value(id), Value::Int(_)));
    let reals = order.iter().any(|&id| matches!(value(id), Value::Real(_)));
    if ints && reals {
        return None;
    }
    order.sort_unstable_by(|&a, &b| value(a).cmp(value(b)));
    debug_assert!(
        order.windows(2).all(|w| value(w[0]) < value(w[1])),
        "distinct ids of a dictionary without mixed numerics never tie"
    );
    let mut ranks = vec![u32::MAX; values.len()];
    for (rank, &id) in order.iter().enumerate() {
        ranks[id as usize] = rank as u32;
    }
    Some(ranks)
}

/// Discovers constant CFDs: minimal frequent LHS value combinations that
/// force a constant on some other attribute.  Patterns over the same
/// `(LHS attributes, RHS attribute)` are merged into a single CFD tableau.
///
/// Every candidate condition set is grouped through a pooled
/// [`InternedIndex`], support and right-hand-side agreement are checked on
/// `u32` dictionary ids, and the minimality probe re-uses the sub-condition
/// indexes the level-wise sweep already built.
pub fn discover_constant_cfds(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
) -> Vec<Cfd> {
    let attrs = config.attrs(instance.schema());
    let threads = resolve_threads(config.threads);
    let ranks = DictionaryRanks::build(instance, &attrs, config.min_support, threads);
    mine_constant_cfds(instance, config, &IndexPool::new(), &ranks).0
}

/// One mined constant pattern, produced by a per-LHS worker and merged into
/// the tableaux in canonical order.
type MinedPattern = (usize, Vec<Value>, Value);

/// Constant-pattern mining over `pool`, plus per-size-level wall-clock
/// milliseconds (index 0 = LHS size 1), measured through the span layer.
/// The LHS sets of one size level mine independently (each writes its own
/// `(LHS, RHS)` tableau keys), so they fan out across the thread pool —
/// the pooled index and column lookups are all concurrent — and merge back
/// in canonical subset order.
fn mine_constant_cfds(
    instance: &RelationInstance,
    config: &CfdDiscoveryConfig,
    pool: &IndexPool,
    ranks: &DictionaryRanks,
) -> (Vec<Cfd>, Vec<f64>) {
    let _span = dq_obs::span("constants");
    let threads = resolve_threads(config.threads);
    let attrs = config.attrs(instance.schema());
    let store = instance.columnar();
    // Only the non-excluded attributes are ever read; excluded columns
    // (surrogate keys, free text) must not pay for dictionary encoding.
    let mut columns: Vec<Option<Arc<Column>>> = vec![None; instance.schema().arity()];
    for &a in &attrs {
        columns[a] = Some(store.column(instance, a));
    }
    let miner = ConstantMiner {
        instance,
        pool,
        ranks,
        columns,
        config,
    };
    let mut tableaux = ConstantTableaux::new();
    let mut level_ms: Vec<f64> = Vec::new();
    for size in 1..=config.max_lhs.min(attrs.len()) {
        let level_span = dq_obs::span_owned(format!("level{size}"));
        let lhs_sets = subsets_of_size(&attrs, size);
        let per_lhs: Vec<Vec<MinedPattern>> = parallel_map(&lhs_sets, threads, |lhs| {
            let rhs_attrs: Vec<usize> =
                attrs.iter().copied().filter(|a| !lhs.contains(a)).collect();
            miner.patterns(lhs, &rhs_attrs)
        });
        for (lhs, mined) in lhs_sets.iter().zip(per_lhs) {
            for (rhs, lhs_values, first) in mined {
                push_constant_pattern(&mut tableaux, config, lhs, rhs, &lhs_values, &first);
            }
        }
        level_ms.push(level_span.finish_ms());
    }
    (constant_cfds(instance.schema(), tableaux), level_ms)
}

/// The per-LHS worker of constant-pattern mining.
struct ConstantMiner<'a> {
    instance: &'a RelationInstance,
    pool: &'a IndexPool,
    ranks: &'a DictionaryRanks,
    /// Indexed by attribute; built for every non-excluded one.
    columns: Vec<Option<Arc<Column>>>,
    config: &'a CfdDiscoveryConfig,
}

impl ConstantMiner<'_> {
    /// The constant patterns of one LHS set: per group in canonical order,
    /// per RHS attribute, every agreeing and minimal pattern while that
    /// RHS's tableau has room.  The tableau `(lhs, rhs)` is written by this
    /// worker alone, so an RHS stops being validated once it holds
    /// `max_tableau` patterns, and the LHS once every RHS is full.
    fn patterns(&self, lhs: &[usize], rhs_attrs: &[usize]) -> Vec<MinedPattern> {
        let cap = self.config.max_tableau;
        let mut mined: Vec<MinedPattern> = Vec::new();
        if cap == 0 || rhs_attrs.is_empty() {
            return mined;
        }
        let mut kept = vec![0usize; rhs_attrs.len()];
        let mut open = rhs_attrs.len();
        // Indexes are pooled, so cross-LHS sharing survives the fan-out;
        // cold builds run single-threaded per worker (the level itself is
        // the parallel axis).  The minimality probe's sub-condition indexes
        // are fetched once per LHS, not per probe.
        let index = self.pool.interned_for(self.instance, lhs, 1);
        let subs: Vec<Arc<InternedIndex>> = if lhs.len() >= 2 {
            (0..lhs.len())
                .map(|drop| {
                    self.pool
                        .interned_for(self.instance, &without(lhs, drop), 1)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut sub_ids: Vec<ValueId> = Vec::with_capacity(lhs.len());
        let mut validated = 0u64;
        for (lhs_ids, members) in self.ranks.sorted_groups(&index, self.config.min_support) {
            if open == 0 {
                break;
            }
            validated += 1;
            let mut lhs_values: Option<Vec<Value>> = None;
            for (slot, &rhs) in rhs_attrs.iter().enumerate() {
                if kept[slot] == cap {
                    continue;
                }
                let col = self.columns[rhs]
                    .as_ref()
                    .expect("non-excluded column built");
                let first_id = col.id_at(members[0] as usize);
                if !members.iter().all(|&m| col.id_at(m as usize) == first_id) {
                    continue;
                }
                // Not minimal when some proper sub-condition already forces
                // the same constant on enough tuples.  Ids are valid across
                // indexes: columns, and so dictionaries, are shared per store.
                let redundant = subs.iter().enumerate().any(|(drop, sub)| {
                    sub_ids.clear();
                    sub_ids.extend(lhs_ids[..drop].iter().chain(&lhs_ids[drop + 1..]));
                    let rows = sub.rows_for_ids(&sub_ids);
                    rows.len() >= self.config.min_support
                        && rows.iter().all(|&r| col.id_at(r as usize) == first_id)
                });
                if redundant {
                    continue;
                }
                kept[slot] += 1;
                if kept[slot] == cap {
                    dq_obs::inc("discover.cfd.cap_exits");
                    open -= 1;
                }
                let values = lhs_values.get_or_insert_with(|| resolve_key(&index, &lhs_ids));
                mined.push((
                    rhs,
                    values.clone(),
                    col.interner().resolve(first_id).clone(),
                ));
            }
        }
        dq_obs::add("discover.cfd.groups_validated", validated);
        mined
    }
}

/// Appends one mined constant pattern, respecting the per-dependency cap.
pub(crate) fn push_constant_pattern(
    tableaux: &mut ConstantTableaux,
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

/// One constant CFD per non-empty `(LHS, RHS)` tableau, in key order.  An
/// empty tableau (every pattern dropped by a `max_tableau` of 0) would be
/// a vacuous rule, so it yields none.
pub(crate) fn constant_cfds(schema: &Arc<RelationSchema>, tableaux: ConstantTableaux) -> Vec<Cfd> {
    tableaux
        .into_iter()
        .filter(|(_, tableau)| !tableau.is_empty())
        .filter_map(|((lhs, rhs), tableau)| tableau_cfd(schema, lhs, vec![rhs], tableau))
        .collect()
}

/// Resolves a group's key ids into owned values, positionally aligned with
/// the index's attribute list.
fn resolve_key(index: &InternedIndex, ids: &[ValueId]) -> Vec<Value> {
    ids.iter()
        .zip(index.columns())
        .map(|(&id, col)| col.interner().resolve(id).clone())
        .collect()
}

/// `items` without the element at position `drop`.
pub(crate) fn without<T: Clone>(items: &[T], drop: usize) -> Vec<T> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != drop)
        .map(|(_, item)| item.clone())
        .collect()
}

/// The condition-position sets (positions within the LHS list that carry
/// constants) of one tableau level, in canonical order.
pub(crate) fn condition_position_sets(lhs_len: usize, constants: usize) -> Vec<Vec<usize>> {
    if constants == 0 {
        vec![Vec::new()]
    } else {
        subsets_of_size(&(0..lhs_len).collect::<Vec<_>>(), constants)
    }
}

/// The LHS pattern of one condition group: the group's values at the
/// condition positions, wildcards elsewhere.
pub(crate) fn condition_pattern(
    lhs_len: usize,
    cond_positions: &[usize],
    cond_values: &[Value],
) -> Vec<PatternValue> {
    (0..lhs_len)
        .map(|p| match cond_positions.iter().position(|&c| c == p) {
            Some(i) => PatternValue::Const(cond_values[i].clone()),
            None => PatternValue::Any,
        })
        .collect()
}

/// The coverage test of tableau mining in the id space of one condition
/// index.  An accepted pattern covers a candidate when it is at least as
/// general: at every position a wildcard or equal.  Each accepted pattern
/// that can cover a group of `index` (whose key holds the LHS values at
/// `cond_positions`) becomes the `(key slot, id)` pairs a group key must
/// match.  A pattern with a constant outside `cond_positions`, or one
/// absent from the slot's dictionary, covers no group and is dropped.
fn covering_keys(
    accepted: &[PatternTuple],
    cond_positions: &[usize],
    index: &InternedIndex,
) -> Vec<Vec<(usize, ValueId)>> {
    accepted
        .iter()
        .filter_map(|a| {
            a.lhs
                .iter()
                .enumerate()
                .filter_map(|(p, pv)| match pv {
                    PatternValue::Any => None,
                    PatternValue::Const(v) => Some((p, v)),
                })
                .map(|(p, v)| {
                    let slot = cond_positions.iter().position(|&c| c == p)?;
                    Some((slot, index.lookup_id(slot, v)?))
                })
                .collect()
        })
        .collect()
}

/// The RHS pattern of an accepted candidate: upgraded to constants when
/// every matching tuple agrees on the RHS under a real condition (the
/// `city = EDI` shape of cfd2/cfd3), wildcards otherwise.
pub(crate) fn rhs_pattern(
    constant_rhs: Option<Vec<Value>>,
    conditioned: bool,
    rhs_len: usize,
) -> Vec<PatternValue> {
    match constant_rhs {
        Some(values) if conditioned => values.into_iter().map(PatternValue::Const).collect(),
        _ => vec![PatternValue::Any; rhs_len],
    }
}

/// A CFD over the canonically sorted, deduplicated `tableau`.
pub(crate) fn tableau_cfd(
    schema: &Arc<RelationSchema>,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    mut tableau: Vec<PatternTuple>,
) -> Option<Cfd> {
    tableau.sort_by_key(|tp| format!("{tp}"));
    tableau.dedup();
    Cfd::from_indices(schema, lhs, rhs, tableau).ok()
}

/// The grouping and validation backend of [`discover_tableau_for_fd`]:
/// conditions group through pooled indexes (which FD discovery already
/// built) and the embedded FD is checked on packed dictionary ids.
struct TableauMiner<'a> {
    instance: &'a RelationInstance,
    pool: &'a IndexPool,
    ranks: &'a DictionaryRanks,
    lhs_codec: KeyCodec,
    rhs_codec: KeyCodec,
    rhs_cols: Vec<Arc<Column>>,
}

impl<'a> TableauMiner<'a> {
    fn new(
        instance: &'a RelationInstance,
        fd: &Fd,
        pool: &'a IndexPool,
        ranks: &'a DictionaryRanks,
    ) -> Self {
        let store = instance.columnar();
        let columns = |attrs: &[usize]| -> Vec<Arc<Column>> {
            attrs.iter().map(|&a| store.column(instance, a)).collect()
        };
        let rhs_cols = columns(fd.rhs());
        TableauMiner {
            instance,
            pool,
            ranks,
            lhs_codec: KeyCodec::new(columns(fd.lhs())),
            rhs_codec: KeyCodec::new(rhs_cols.clone()),
            rhs_cols,
        }
    }

    /// Does the embedded FD hold on exactly these rows?
    fn fd_holds_on(&self, members: &[u32]) -> bool {
        let mut by_lhs: FxHashMap<ProjectionKey, ProjectionKey> = FxHashMap::default();
        members.iter().all(|&m| {
            let val = self.rhs_codec.pack_row(m as usize);
            match by_lhs.entry(self.lhs_codec.pack_row(m as usize)) {
                Entry::Occupied(existing) => *existing.get() == val,
                Entry::Vacant(slot) => {
                    slot.insert(val);
                    true
                }
            }
        })
    }

    /// The rows' common RHS projection, when they all agree on it.
    fn constant_rhs(&self, members: &[u32]) -> Option<Vec<Value>> {
        let first = self.rhs_codec.pack_row(members[0] as usize);
        members
            .iter()
            .all(|&m| self.rhs_codec.pack_row(m as usize) == first)
            .then(|| {
                self.rhs_cols
                    .iter()
                    .map(|col| {
                        col.interner()
                            .resolve(col.id_at(members[0] as usize))
                            .clone()
                    })
                    .collect()
            })
    }

    /// The patterns one condition-position set adds to the tableau, in
    /// canonical group order: groups on which the embedded FD holds and
    /// that no pattern of `accepted` covers, at most `room` of them.
    /// `accepted` holds only patterns of earlier levels, and patterns of
    /// one level never cover each other, so these are exactly the
    /// patterns the sequential sweep would accept from this set.
    fn level_patterns(
        &self,
        lhs: &[usize],
        cond_positions: &[usize],
        min_support: usize,
        accepted: &[PatternTuple],
        room: usize,
    ) -> Vec<PatternTuple> {
        let cond_attrs: Vec<usize> = cond_positions.iter().map(|&p| lhs[p]).collect();
        // A cold build runs single-threaded because the condition-position
        // sets themselves are the parallel axis.
        let index = self.pool.interned_for(self.instance, &cond_attrs, 1);
        let covers = covering_keys(accepted, cond_positions, &index);
        let conditioned = !cond_positions.is_empty();
        let mut patterns: Vec<PatternTuple> = Vec::new();
        let mut validated = 0u64;
        for (ids, members) in self.ranks.sorted_groups(&index, min_support) {
            if patterns.len() >= room {
                break;
            }
            if covers
                .iter()
                .any(|key| key.iter().all(|&(slot, id)| ids[slot] == id))
            {
                continue;
            }
            validated += 1;
            if !self.fd_holds_on(members) {
                continue;
            }
            let constant_rhs = if conditioned {
                self.constant_rhs(members)
            } else {
                None
            };
            let cond_values = resolve_key(&index, &ids);
            patterns.push(PatternTuple::new(
                condition_pattern(lhs.len(), cond_positions, &cond_values),
                rhs_pattern(constant_rhs, conditioned, self.rhs_cols.len()),
            ));
            if patterns.len() == room {
                dq_obs::inc("discover.cfd.cap_exits");
            }
        }
        dq_obs::add("discover.cfd.groups_validated", validated);
        patterns
    }
}

/// Mines a pattern tableau for the embedded FD `fd` on `instance`: the most
/// general pattern tuples (fewest constants) under which the FD holds with
/// at least [`CfdDiscoveryConfig::min_support`] matching tuples, at most
/// [`CfdDiscoveryConfig::max_tableau`] of them.
///
/// Returns `None` when no pattern with enough support makes the FD hold.
/// When the FD already holds globally the tableau is the single all-wildcard
/// pattern (i.e. the traditional FD).
pub fn discover_tableau_for_fd(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
) -> Option<Cfd> {
    let threads = resolve_threads(config.threads);
    let ranks = DictionaryRanks::build(instance, fd.lhs(), config.min_support, threads);
    mine_tableau(instance, fd, config, &IndexPool::new(), &ranks, threads)
}

/// Tableau mining over `pool` with an explicit worker budget for the
/// per-condition-set fan-out, so an outer per-FD fan-out can hand each mine
/// a slice of the pool instead of letting every mine claim the whole
/// machine (nesting up to `threads²` scoped workers).
fn mine_tableau(
    instance: &RelationInstance,
    fd: &Fd,
    config: &CfdDiscoveryConfig,
    pool: &IndexPool,
    ranks: &DictionaryRanks,
    threads: usize,
) -> Option<Cfd> {
    let _span = dq_obs::span("tableau");
    let lhs = fd.lhs();
    let miner = TableauMiner::new(instance, fd, pool, ranks);
    let mut accepted: Vec<PatternTuple> = Vec::new();
    for constants in 0..=config.max_condition_attrs.min(lhs.len()) {
        let room = config.max_tableau.saturating_sub(accepted.len());
        if room == 0 {
            break;
        }
        let position_sets = condition_position_sets(lhs.len(), constants);
        // Two patterns with the same number of constants can never cover
        // each other (coverage needs a constant-position subset, equal
        // counts force equality), so the generality prune only ever fires
        // on patterns accepted at *earlier* levels — frozen for the whole
        // level.  That makes the condition-position sets independent: each
        // worker accepts against the frozen tableau and stops once it has
        // the level's room, and the canonical merge keeps the first `room`.
        let per_set: Vec<Vec<PatternTuple>> =
            parallel_map(&position_sets, threads, |cond_positions| {
                miner.level_patterns(lhs, cond_positions, config.min_support, &accepted, room)
            });
        accepted.extend(per_set.into_iter().flatten().take(room));
    }
    if accepted.is_empty() {
        return None;
    }
    tableau_cfd(instance.schema(), lhs.to_vec(), fd.rhs().to_vec(), accepted)
}

/// Full CFD discovery: exact FDs (reported as all-wildcard CFDs), conditional
/// tableaux for approximate FDs, and constant CFDs.
///
/// FD discovery, the `g3` conditioning filter, tableau mining and
/// constant-pattern mining all draw their groupings from one private
/// [`IndexPool`], so each distinct attribute set is encoded once for the
/// entire run.
pub fn discover_cfds(instance: &RelationInstance, config: &CfdDiscoveryConfig) -> DiscoveredCfds {
    let _span = dq_obs::span!("discover.cfd", arity = instance.schema().arity());
    let pool = Arc::new(IndexPool::new());

    // Exact FDs become traditional (all-wildcard) CFDs.
    let exact = discover_fds_with_pool(instance, &config.fd_config(0.0), &pool);
    let mut level_ms = exact.level_ms.clone();

    // Approximate FDs (hold after removing at most `max_candidate_g3` of the
    // tuples but not exactly) are conditioning candidates: mine a tableau.
    let approx =
        discover_fds_with_pool(instance, &config.fd_config(config.max_candidate_g3), &pool);
    add_level_ms(&mut level_ms, &approx.level_ms);
    // The per-FD tableau mines are independent — each conditions its own
    // embedded FD against the frozen exact set — so they fan out across the
    // pool.  Each worker gets an inner budget of the thread pool for its
    // per-condition-set fan-out, keeping the total scoped-worker count at
    // `threads` instead of `threads²`.  `parallel_map` preserves input
    // order, so the mined CFDs and `candidates_checked` are byte-identical
    // to the sequential loop at any thread count.
    let tableau_fds = conditioning_candidates(&exact.fds, &approx.fds);
    let threads = resolve_threads(config.threads);
    // One rank table serves every tableau mine and the constant miner.
    let attrs = config.attrs(instance.schema());
    let ranks = DictionaryRanks::build(instance, &attrs, config.min_support, threads);
    let outer = threads.min(tableau_fds.len()).max(1);
    let inner = (threads / outer).max(1);
    let tableaux: Vec<Option<Option<Cfd>>> = parallel_map(&tableau_fds, threads, |fd| {
        // Only condition on FDs that genuinely fail globally.
        let index = pool.interned_for(instance, fd.lhs(), 1);
        let source = StoreShardSource::with_store(instance, Arc::clone(index.store()));
        let &[rhs] = fd.rhs() else {
            unreachable!("FD discovery reports one RHS attribute per FD")
        };
        let fd_g3 = g3_error_from_groups(&source, index.multi_group_rows(), rhs);
        (fd_g3 != 0.0).then(|| mine_tableau(instance, fd, config, &pool, &ranks, inner))
    });

    let (constant_cfds, constant_level_ms) = mine_constant_cfds(instance, config, &pool, &ranks);
    add_level_ms(&mut level_ms, &constant_level_ms);
    finish_discovery(
        exact.candidates_checked + approx.candidates_checked,
        &exact.fds,
        tableaux,
        constant_cfds,
        level_ms,
        config,
    )
}

/// The approximate FDs worth conditioning: those that are not also exact.
pub(crate) fn conditioning_candidates<'f>(exact: &[Fd], approx: &'f [Fd]) -> Vec<&'f Fd> {
    approx
        .iter()
        .filter(|fd| {
            !exact
                .iter()
                .any(|e| e.lhs() == fd.lhs() && e.rhs() == fd.rhs())
        })
        .collect()
}

/// Assembles a [`DiscoveredCfds`] from the mined parts.  `tableaux` holds,
/// per conditioning candidate, `None` when the FD holds globally (not
/// checked) and otherwise the mined tableau, if any.
pub(crate) fn finish_discovery(
    fd_candidates_checked: usize,
    exact: &[Fd],
    tableaux: Vec<Option<Option<Cfd>>>,
    constant_cfds: Vec<Cfd>,
    level_ms: Vec<f64>,
    config: &CfdDiscoveryConfig,
) -> DiscoveredCfds {
    let mut candidates_checked = fd_candidates_checked;
    let mut variable_cfds: Vec<Cfd> = exact.iter().map(Cfd::from_fd).collect();
    for mined in tableaux.into_iter().flatten() {
        candidates_checked += 1;
        // A tableau consisting solely of the all-wildcard pattern adds
        // nothing beyond the (failing) traditional FD.
        variable_cfds
            .extend(mined.filter(|cfd| !cfd.tableau().iter().all(PatternTuple::is_all_wildcards)));
    }
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
    use dq_core::engine::DetectionEngine;
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
        let report = DetectionEngine::new().detect_cfd_violations(&inst, &cfds);
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
        let report = DetectionEngine::new().detect_cfd_violations(&inst, &discovered.all());
        assert!(
            report.is_clean(),
            "every discovered CFD must hold on the instance it was mined from"
        );
    }

    #[test]
    fn fan_out_is_byte_identical_to_sequential_mining() {
        let inst = uk_us_instance();
        let config = |threads| CfdDiscoveryConfig {
            threads,
            min_support: 2,
            max_lhs: 2,
            ..CfdDiscoveryConfig::default()
        };
        let sequential = discover_cfds(&inst, &config(1));
        let reference = crate::reference::discover_cfds(&inst, &config(1));
        assert_eq!(sequential.variable_cfds, reference.variable_cfds);
        assert_eq!(sequential.constant_cfds, reference.constant_cfds);
        assert_eq!(sequential.candidates_checked, reference.candidates_checked);
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

    #[test]
    fn max_tableau_caps_the_whole_tableau() {
        // `(a, b) → c` fails globally (the `(y, q)` rows disagree on `c`)
        // but holds under `a = x`, `a = z`, `b = p` and `b = r`: four
        // one-constant patterns across two condition sets.  The cap must
        // bound the tableau, not just each condition set's share of it.
        let schema = Arc::new(RelationSchema::new(
            "r",
            vec![
                ("a", Domain::Text),
                ("b", Domain::Text),
                ("c", Domain::Text),
            ],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (a, b, c) in [
            ("x", "p", "1"),
            ("x", "p", "1"),
            ("x", "q", "2"),
            ("x", "q", "2"),
            ("y", "p", "3"),
            ("y", "p", "3"),
            ("y", "q", "4"),
            ("y", "q", "5"),
            ("y", "q", "4"),
            ("z", "r", "6"),
            ("z", "r", "6"),
        ] {
            inst.insert_values(vec![Value::str(a), Value::str(b), Value::str(c)])
                .unwrap();
        }
        let fd = Fd::new(&schema, &["a", "b"], &["c"]);
        let a_pattern = |a: &str, c: PatternValue| {
            PatternTuple::new(
                vec![PatternValue::Const(Value::str(a)), PatternValue::Any],
                vec![c],
            )
        };
        let expected = [
            vec![a_pattern("x", PatternValue::Any)],
            vec![
                a_pattern("x", PatternValue::Any),
                a_pattern("z", PatternValue::Const(Value::str("6"))),
            ],
        ];
        for (cap, expected) in (1..).zip(expected) {
            let config = CfdDiscoveryConfig {
                max_tableau: cap,
                ..CfdDiscoveryConfig::default()
            };
            let mined = discover_tableau_for_fd(&inst, &fd, &config).unwrap();
            assert_eq!(mined.tableau(), expected, "cap {cap}");
            let reference = crate::reference::discover_tableau_for_fd(&inst, &fd, &config);
            assert_eq!(Some(mined), reference, "cap {cap}");
        }
        let uncapped = discover_tableau_for_fd(&inst, &fd, &CfdDiscoveryConfig::default()).unwrap();
        assert_eq!(uncapped.tableau().len(), 4);
    }

    #[test]
    fn mixed_numeric_columns_fall_back_to_the_reference_order() {
        // `m` mixes `Int` and `Real`: `Int(0)`/`Real(0.0)` are distinct but
        // `Ord`-equal (a rank tie), and `Int(2^53)`, `Int(2^53 + 1)` both
        // compare equal to `Real(2^53)` while differing from each other
        // (`Ord` is not transitive).  Rows arrive out of order, so neither
        // first-seen ids nor a numeric sort reproduce the reference order.
        let schema = Arc::new(RelationSchema::new(
            "r",
            vec![
                ("m", Domain::Real),
                ("b", Domain::Text),
                ("c", Domain::Text),
            ],
        ));
        let big = 1i64 << 53;
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (m, b, c) in [
            (Value::real(big as f64), "q", "4"),
            (Value::int(5), "r", "5"),
            (Value::int(big + 1), "q", "3"),
            (Value::real(0.0), "p", "1"),
            (Value::int(big), "q", "2"),
            (Value::int(0), "p", "1"),
            (Value::int(5), "r", "6"),
        ] {
            for _ in 0..2 {
                inst.insert_values(vec![m.clone(), Value::str(b), Value::str(c)])
                    .unwrap();
            }
        }
        let store = inst.columnar();
        assert_eq!(column_ranks(&store.column(&inst, 0), 2), None);
        // `b` is ranked: its ids, first seen as q, r, p, sort as p < q < r.
        assert_eq!(
            column_ranks(&store.column(&inst, 1), 2),
            Some(vec![1, 2, 0])
        );
        // At support 3 only `c = 1` (four rows) can key a group.
        let unranked = u32::MAX;
        assert_eq!(
            column_ranks(&store.column(&inst, 2), 3),
            Some(vec![unranked, unranked, unranked, 0, unranked, unranked])
        );
        let fd = Fd::new(&schema, &["m", "b"], &["c"]);
        for max_tableau in 0..7 {
            for threads in [1, 2] {
                let config = CfdDiscoveryConfig {
                    max_tableau,
                    threads,
                    ..CfdDiscoveryConfig::default()
                };
                let context = format!("cap {max_tableau}, threads {threads}");
                assert_eq!(
                    discover_constant_cfds(&inst, &config),
                    crate::reference::discover_constant_cfds(&inst, &config),
                    "{context}"
                );
                assert_eq!(
                    discover_tableau_for_fd(&inst, &fd, &config),
                    crate::reference::discover_tableau_for_fd(&inst, &fd, &config),
                    "{context}"
                );
                let fast = discover_cfds(&inst, &config);
                let slow = crate::reference::discover_cfds(&inst, &config);
                assert_eq!(fast.variable_cfds, slow.variable_cfds, "{context}");
                assert_eq!(fast.constant_cfds, slow.constant_cfds, "{context}");
            }
        }
        // At cap 2 the first two `m` groups in reference order win:
        // `Int(0)` before `Real(0.0)` (the debug tiebreak), both before the
        // 2^53 cluster and `Int(5)`.
        let capped = discover_tableau_for_fd(
            &inst,
            &fd,
            &CfdDiscoveryConfig {
                max_tableau: 2,
                ..CfdDiscoveryConfig::default()
            },
        )
        .unwrap();
        let conditions: Vec<&PatternValue> = capped.tableau().iter().map(|tp| &tp.lhs[0]).collect();
        assert_eq!(
            conditions,
            [
                &PatternValue::Const(Value::int(0)),
                &PatternValue::Const(Value::real(0.0))
            ]
        );
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
