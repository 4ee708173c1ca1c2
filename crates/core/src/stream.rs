//! One grouping kernel per dependency class.
//!
//! Every fast detector runs over a [`ShardSource`] — an in-RAM columnar
//! snapshot ([`dq_relation::StoreShardSource`]) or a memory-mapped on-disk
//! relation ([`dq_relation::MappedRelation`]) — plus the source's multi-row
//! groups on the key the class groups by, passed in as ascending row runs.
//! The kernels do not know where the groups come from; there are two
//! providers:
//!
//! * the pooled [`InternedIndex`] of a live instance
//!   ([`InternedIndex::multi_group_rows`]), which the in-RAM entry points of
//!   [`DetectionEngine`](crate::engine::DetectionEngine) use;
//! * a two-scan count→collect over the shards
//!   ([`dq_relation::RowGroups::scan`]), which the `*_from_shards` entry
//!   points use — no pooled index, so resident memory is bounded by
//!   O(dictionaries + one shard + grouping state + violation output).
//!
//! Every kernel ends in the canonical order of its [`crate::reference`]
//! detector, so the reports are byte-identical to the reference whichever
//! provider and backing ran; the property suites assert exactly that.
//!
//! The CFD kernel ([`cfd_violations`]) reports grouped violations
//! ([`CfdViolationGroups`]): per violating LHS group its patterns and its
//! RHS classes, never the pairs, so its cost and output are linear in the
//! rows whatever the number of violating pairs.  A maintained report is
//! patched group by group (`cfd_violations_patched`), and incremental
//! detection regroups only the groups the given tuples fall in
//! (`cfd_violations_touching`); both re-derive those groups off the pooled
//! index with one helper.  The only code that lists pairs is
//! [`CfdViolationGroups`]'s.

use crate::cfd::{Cfd, CfdViolation};
use crate::denial::{DcTerm, DenialConstraint};
use crate::detect::CfdViolationGroups;
use crate::interned::InternedEntry;
use dq_relation::{
    Column, FxHashMap, FxHashSet, InternedIndex, KeyCodec, ProjectionKey, ShardSource, TupleId,
    Value, ValueId,
};
use std::sync::Arc;

/// A CFD's columns and pattern tableau translated into a source's
/// dictionaries once, after which every pattern test compares `u32` ids.
struct InternedCfd<'a> {
    cfd: &'a Cfd,
    lhs_cols: Vec<Arc<Column>>,
    rhs_cols: Vec<Arc<Column>>,
    tableau: Vec<(Vec<InternedEntry>, Vec<InternedEntry>)>,
}

impl<'a> InternedCfd<'a> {
    fn new(cfd: &'a Cfd, source: &dyn ShardSource) -> Self {
        let lhs_cols: Vec<Arc<Column>> = cfd.lhs().iter().map(|&a| source.column(a)).collect();
        let rhs_cols: Vec<Arc<Column>> = cfd.rhs().iter().map(|&a| source.column(a)).collect();
        let tableau = cfd
            .tableau()
            .iter()
            .map(|tp| {
                (
                    InternedEntry::of_all(&tp.lhs, &lhs_cols),
                    InternedEntry::of_all(&tp.rhs, &rhs_cols),
                )
            })
            .collect();
        InternedCfd {
            cfd,
            lhs_cols,
            rhs_cols,
            tableau,
        }
    }

    /// Pushes the single-tuple (constant) violations among `rows`.
    fn singles(
        &self,
        source: &dyn ShardSource,
        rows: impl Iterator<Item = usize> + Clone,
        out: &mut Vec<CfdViolation>,
    ) {
        for (pattern, (tp, (ilhs, irhs))) in
            self.cfd.tableau().iter().zip(&self.tableau).enumerate()
        {
            // Only a constant RHS constrains a single tuple, and an LHS
            // constant absent from its column matches no row at all.
            if tp.rhs.iter().all(|p| p.is_any())
                || ilhs.iter().any(|e| matches!(e, InternedEntry::Absent))
            {
                continue;
            }
            for row in rows.clone() {
                if InternedEntry::all_match_row(ilhs, &self.lhs_cols, row)
                    && !InternedEntry::all_match_row(irhs, &self.rhs_cols, row)
                {
                    out.push(CfdViolation::SingleTuple {
                        pattern,
                        tuple: source.tuple_id(row),
                    });
                }
            }
        }
    }

    /// The patterns whose LHS matches the LHS key of `row` — for a group,
    /// any member row is a witness of the shared key.
    fn matching_patterns(&self, row: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.tableau
                .iter()
                .enumerate()
                .filter(|(_, (ilhs, _))| InternedEntry::all_match_row(ilhs, &self.lhs_cols, row))
                .map(|(i, _)| i),
        );
    }
}

fn release_all(source: &dyn ShardSource) {
    for shard in 0..source.shard_count() {
        source.release_shard(shard);
    }
}

/// Splits LHS groups into their RHS classes, keeping the scratch space
/// of one group for the next.
struct Classifier {
    rhs_codec: KeyCodec,
    classes: FxHashMap<ProjectionKey, u32>,
    patterns: Vec<usize>,
    ids: Vec<TupleId>,
    labels: Vec<u32>,
    scratch: Vec<u32>,
}

impl Classifier {
    fn new(interned: &InternedCfd<'_>) -> Self {
        Classifier {
            rhs_codec: KeyCodec::new(interned.rhs_cols.clone()),
            classes: FxHashMap::default(),
            patterns: Vec::new(),
            ids: Vec::new(),
            labels: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Appends the group of `rows` (ascending) to `out` if it violates:
    /// it matches a pattern and its members disagree on the packed `Y`
    /// projection.  Classes are numbered in order of first appearance, so
    /// they come out ordered by smallest id.
    fn push_if_violating(
        &mut self,
        interned: &InternedCfd<'_>,
        source: &dyn ShardSource,
        rows: &[u32],
        out: &mut CfdViolationGroups,
    ) {
        interned.matching_patterns(rows[0] as usize, &mut self.patterns);
        if self.patterns.is_empty() {
            return;
        }
        self.classes.clear();
        self.labels.clear();
        for &row in rows {
            let next = self.classes.len() as u32;
            let label = *self
                .classes
                .entry(self.rhs_codec.pack_row(row as usize))
                .or_insert(next);
            self.labels.push(label);
        }
        if self.classes.len() < 2 {
            return; // the whole group agrees on Y
        }
        self.ids.clear();
        self.ids
            .extend(rows.iter().map(|&row| source.tuple_id(row as usize)));
        out.push_group(
            &self.patterns,
            &self.ids,
            &self.labels,
            self.classes.len(),
            &mut self.scratch,
        );
    }
}

/// All violations of `cfd` over `source`, grouped
/// ([`CfdViolationGroups`]); materialized, they are exactly
/// [`crate::reference::cfd_violations`].
///
/// `lhs_groups` are the multi-row groups of `source` on
/// [`Cfd::lhs`]; with no groups only the single-tuple violations are
/// reported.  A tuple-pair violation lies inside one group, and within a
/// group a pair violates iff its members differ on the packed `Y`
/// projection, so partitioning each group by that projection costs work
/// linear in the group — whatever number of pairs the group stands for.
pub fn cfd_violations<'g>(
    cfd: &Cfd,
    source: &dyn ShardSource,
    lhs_groups: impl IntoIterator<Item = &'g [u32]>,
) -> CfdViolationGroups {
    let interned = InternedCfd::new(cfd, source);
    let mut singles = Vec::new();
    interned.singles(source, 0..source.len(), &mut singles);
    let mut out = CfdViolationGroups::with_singles(singles);
    let mut classifier = Classifier::new(&interned);
    for rows in lhs_groups {
        classifier.push_if_violating(&interned, source, rows, &mut out);
    }
    release_all(source);
    out.into_canonical()
}

/// `prev`, the grouped violations of `cfd` at an earlier snapshot, brought
/// up to date with `source` — equal to [`cfd_violations`] over `source`.
///
/// `affected` (sorted, deduplicated) are the tuples appended, removed or
/// with a changed LHS/RHS cell since `prev`; the removed ones are absent
/// from `source`, so they only drop out of `prev`'s verdicts and seed
/// nothing.  `index` is the pooled index of `source` on exactly
/// [`Cfd::lhs`].
///
/// A single-tuple verdict depends on the tuple's own cells only, so only
/// the affected tuples' are redone.  A group changed only if an affected
/// tuple left or joined it or changed inside it: every previous group with
/// an affected member is dropped, and the current group of each affected
/// tuple's key, and of the key of each dropped group's unaffected members,
/// is re-derived off the index.  A group that affected tuples only joined
/// shows up re-derived with its smallest member, so it is dropped too.
/// Every other group carries over verbatim.  The work is the affected
/// tuples times their group sizes plus one pass over `prev`'s member ids;
/// no pair is ever enumerated.
pub(crate) fn cfd_violations_patched(
    cfd: &Cfd,
    source: &dyn ShardSource,
    index: &InternedIndex,
    prev: &CfdViolationGroups,
    affected: &[TupleId],
) -> CfdViolationGroups {
    debug_assert!(affected.windows(2).all(|w| w[0] < w[1]));
    let mut marks = vec![0u64; affected.last().map_or(0, |id| id.0 / 64 + 1)];
    for id in affected {
        marks[id.0 / 64] |= 1 << (id.0 % 64);
    }
    let is_affected = |id: TupleId| {
        marks
            .get(id.0 / 64)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    };
    let live_row = |id: TupleId| source.row_of(id).expect("maintained tuples are live");
    let interned = InternedCfd::new(cfd, source);
    let mut singles: Vec<CfdViolation> = prev
        .singles()
        .iter()
        .filter(|v| !matches!(v, CfdViolation::SingleTuple { tuple, .. } if is_affected(*tuple)))
        .copied()
        .collect();
    let mut seeds: Vec<usize> = affected
        .iter()
        .filter_map(|&id| source.row_of(id))
        .collect();
    interned.singles(source, seeds.iter().copied(), &mut singles);
    let mut dropped = vec![false; prev.group_count()];
    for (g, drop) in dropped.iter_mut().enumerate() {
        let members = prev.members(g);
        if members.iter().any(|&id| is_affected(id)) {
            *drop = true;
            if let Some(&kept) = members.iter().find(|&&id| !is_affected(id)) {
                seeds.push(live_row(kept));
            }
        }
    }
    let fresh = regrouped(&interned, source, index, seeds, Vec::new());
    let mut fresh_ids = fresh.all_members().to_vec();
    fresh_ids.sort_unstable();
    for (g, drop) in dropped.iter_mut().enumerate() {
        *drop = *drop || fresh_ids.binary_search(&prev.min_id(g)).is_ok();
    }
    // Both halves are in canonical order and disjoint: merge them.
    let mut out = CfdViolationGroups::with_singles(singles);
    let mut kept = (0..prev.group_count()).filter(|&g| !dropped[g]).peekable();
    let mut new = (0..fresh.group_count()).peekable();
    loop {
        match (kept.peek(), new.peek()) {
            (Some(&k), Some(&n)) if prev.min_id(k) < fresh.min_id(n) => {
                out.push_group_of(prev, k);
                kept.next();
            }
            (_, Some(&n)) => {
                out.push_group_of(&fresh, n);
                new.next();
            }
            (Some(&k), None) => {
                out.push_group_of(prev, k);
                kept.next();
            }
            (None, None) => break,
        }
    }
    out
}

/// `singles` plus the violating groups of `index` (the pooled index of
/// `source` on exactly [`Cfd::lhs`]) that hold a row of `seeds`, each group
/// once, in canonical order.  Each seed's group is found by an id-level
/// lookup ([`InternedIndex::rows_for_ids`]), so the cost is the seeds times
/// their group sizes, not the relation.
fn regrouped(
    interned: &InternedCfd<'_>,
    source: &dyn ShardSource,
    index: &InternedIndex,
    seeds: impl IntoIterator<Item = usize>,
    singles: Vec<CfdViolation>,
) -> CfdViolationGroups {
    debug_assert_eq!(index.attrs(), interned.cfd.lhs(), "index on the LHS");
    let mut out = CfdViolationGroups::with_singles(singles);
    let mut classifier = Classifier::new(interned);
    let mut keys: FxHashSet<Vec<ValueId>> = FxHashSet::default();
    for row in seeds {
        let key: Vec<ValueId> = interned.lhs_cols.iter().map(|c| c.id_at(row)).collect();
        let rows = index.rows_for_ids(&key);
        if rows.len() >= 2 && keys.insert(key) {
            classifier.push_if_violating(interned, source, rows, &mut out);
        }
    }
    out.into_canonical()
}

/// The grouped violations of `cfd` over `source` that a tuple of `ids`
/// (sorted, deduplicated) takes part in: the single-tuple violations of the
/// live ones and every violating group holding one.  Ids of tuples absent
/// from `source` are ignored.  [`CfdViolationGroups::pairs_involving`]
/// reads the violations involving `ids` off the result.
pub(crate) fn cfd_violations_touching(
    cfd: &Cfd,
    source: &dyn ShardSource,
    index: &InternedIndex,
    ids: &[TupleId],
) -> CfdViolationGroups {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    let rows: Vec<usize> = ids.iter().filter_map(|&id| source.row_of(id)).collect();
    let interned = InternedCfd::new(cfd, source);
    let mut singles = Vec::new();
    interned.singles(source, rows.iter().copied(), &mut singles);
    regrouped(&interned, source, index, rows, singles)
}

/// Evaluates a [`DcTerm`] for a row assignment, resolving attribute cells
/// through the column dictionaries (value semantics are preserved exactly:
/// `resolve(id_at(row))` *is* the cell's [`Value`]).
#[inline]
fn term_value<'a>(term: &'a DcTerm, cols: &'a [Option<Arc<Column>>], rows: &[usize]) -> &'a Value {
    match term {
        DcTerm::Attr { var, attr } => {
            let col = cols[*attr]
                .as_ref()
                .expect("mentioned attributes are loaded");
            col.interner().resolve(col.id_at(rows[*var]))
        }
        DcTerm::Const(v) => v,
    }
}

/// Does `dc`'s conjunction hold for the row assignment `rows` (one row
/// position per tuple variable)?
#[inline]
fn predicates_hold(dc: &DenialConstraint, cols: &[Option<Arc<Column>>], rows: &[usize]) -> bool {
    dc.predicates.iter().all(|p| {
        p.op.eval(
            term_value(&p.left, cols, rows),
            term_value(&p.right, cols, rows),
        )
    })
}

/// All violations of `dc` over `source`, in the order of
/// [`crate::reference::denial_violations`] — including its ordered-pair convention
/// for asymmetric predicates (only the evaluation order whose first tuple
/// id is smaller is reported).
///
/// `pair_groups` are the multi-row groups of `source` on
/// [`DenialConstraint::pair_partition_attrs`]: given them, a two-variable
/// constraint only pairs rows within one group.  Without them every ordered
/// pair of rows is evaluated.  Single-variable constraints ignore them.
///
/// # Panics
/// Panics when `dc` has other than one or two tuple variables, like
/// [`crate::reference::denial_violations`].
pub(crate) fn denial_violations<'g>(
    dc: &DenialConstraint,
    source: &dyn ShardSource,
    pair_groups: Option<impl IntoIterator<Item = &'g [u32]>>,
) -> Vec<Vec<TupleId>> {
    assert!(
        matches!(dc.vars, 1 | 2),
        "denial constraints with {} tuple variables are not supported",
        dc.vars
    );
    // Only the attributes the predicates mention: loading a column of an
    // in-RAM snapshot builds it, and every later snapshot carries it along.
    let mut cols: Vec<Option<Arc<Column>>> = vec![None; source.schema().arity()];
    for term in dc.predicates.iter().flat_map(|p| [&p.left, &p.right]) {
        if let DcTerm::Attr { attr, .. } = term {
            cols[*attr].get_or_insert_with(|| source.column(*attr));
        }
    }
    let mut out: Vec<Vec<TupleId>> = Vec::new();
    match (dc.vars, pair_groups) {
        (1, _) => {
            // Ascending row order is ascending tuple-id order.
            for row in 0..source.len() {
                if predicates_hold(dc, &cols, &[row]) {
                    out.push(vec![source.tuple_id(row)]);
                }
            }
        }
        (_, Some(groups)) => {
            // Rows ascend within a group, so `r2 > r1` is exactly the
            // `id1 < id2` reporting rule; group order is unspecified, so
            // sort to match.
            for rows in groups {
                for (i, &r1) in rows.iter().enumerate() {
                    for &r2 in &rows[i + 1..] {
                        if predicates_hold(dc, &cols, &[r1 as usize, r2 as usize]) {
                            out.push(vec![
                                source.tuple_id(r1 as usize),
                                source.tuple_id(r2 as usize),
                            ]);
                        }
                    }
                }
            }
            out.sort_unstable();
        }
        (_, None) => {
            let n = source.len();
            for i in 0..n {
                for j in 0..n {
                    let (id1, id2) = (source.tuple_id(i), source.tuple_id(j));
                    if id1 < id2 && predicates_hold(dc, &cols, &[i, j]) {
                        out.push(vec![id1, id2]);
                    }
                }
            }
        }
    }
    release_all(source);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denial::DcPredicate;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::{CompOp, Value};
    use dq_relation::{Domain, RelationInstance, RelationSchema, RowGroups, StoreShardSource};
    use std::sync::Arc;

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

    fn instance(rows: usize) -> RelationInstance {
        let schema = schema();
        let mut inst = RelationInstance::new(schema);
        for i in 0..rows {
            inst.insert(
                vec![
                    Value::from(44i64 - (i % 3) as i64),
                    Value::from((i % 7) as i64),
                    Value::from(format!("city{}", i % 5)),
                    Value::from(format!("zip{}", i % 11)),
                ]
                .into(),
            )
            .unwrap();
        }
        inst
    }

    fn cfd() -> Cfd {
        Cfd::new(
            &schema(),
            &["cc", "ac"],
            &["city"],
            vec![
                PatternTuple::new(vec![cst(44i64), wild()], vec![wild()]),
                PatternTuple::new(vec![cst(43i64), cst(2i64)], vec![cst("city0")]),
            ],
        )
        .unwrap()
    }

    fn denial(dc: &DenialConstraint, source: &dyn ShardSource) -> Vec<Vec<TupleId>> {
        let groups = dc
            .pair_partition_attrs()
            .map(|a| RowGroups::scan(source, &a));
        denial_violations(dc, source, groups.as_ref().map(RowGroups::iter))
    }

    #[test]
    fn scanned_and_pooled_groups_give_the_reference_cfd_report() {
        let inst = instance(500);
        let cfd = cfd();
        let expected = crate::reference::cfd_violations(&cfd, &inst);
        let source = StoreShardSource::new(&inst);
        let scanned = RowGroups::scan(&source, cfd.lhs());
        let from_scan = cfd_violations(&cfd, &source, scanned.iter());
        assert_eq!(from_scan.to_violations(), expected);
        assert_eq!(from_scan.total(), expected.len());
        let index = InternedIndex::build(&inst, source.store(), cfd.lhs(), 1);
        // Both providers yield the same canonical groups.
        assert_eq!(
            cfd_violations(&cfd, &source, index.multi_group_rows()),
            from_scan
        );
        assert!(from_scan.group_count() > 0, "fixture should violate pairs");
        // No groups: exactly the single-tuple violations.
        let singles: Vec<CfdViolation> = expected
            .iter()
            .filter(|v| matches!(v, CfdViolation::SingleTuple { .. }))
            .copied()
            .collect();
        assert!(!singles.is_empty());
        let no_groups = cfd_violations(&cfd, &source, std::iter::empty());
        assert_eq!(no_groups.singles(), singles);
        assert_eq!(no_groups.to_violations(), singles);
    }

    #[test]
    fn streamed_denial_matches_reference_partitionable() {
        let inst = instance(400);
        // FD-shaped: t1[ac]=t2[ac] ∧ t1[city]≠t2[city].
        let dc = DenialConstraint::new(
            "cust",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Eq, DcTerm::attr(1, 1)),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Ne, DcTerm::attr(1, 2)),
            ],
        );
        assert!(dc.pair_partition_attrs().is_some());
        let expected = crate::reference::denial_violations(&dc, &inst);
        let source = StoreShardSource::new(&inst);
        let got = denial(&dc, &source);
        assert_eq!(got, expected);
        assert!(!got.is_empty());
        // Without groups the general pair scan reports the same pairs.
        assert_eq!(
            denial_violations(&dc, &source, None::<Vec<&[u32]>>),
            expected
        );
    }

    #[test]
    fn streamed_denial_matches_reference_general() {
        let inst = instance(60);
        // Asymmetric, non-partitionable: t1[ac] < t2[ac] ∧ t1[cc] > t2[cc].
        let dc = DenialConstraint::new(
            "cust",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Lt, DcTerm::attr(1, 1)),
                DcPredicate::new(DcTerm::attr(0, 0), CompOp::Gt, DcTerm::attr(1, 0)),
            ],
        );
        assert!(dc.pair_partition_attrs().is_none());
        let expected = crate::reference::denial_violations(&dc, &inst);
        let source = StoreShardSource::new(&inst);
        let got = denial(&dc, &source);
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn streamed_denial_single_var() {
        let inst = instance(100);
        let dc = DenialConstraint::new(
            "cust",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 0),
                CompOp::Eq,
                DcTerm::val(43i64),
            )],
        );
        let expected = crate::reference::denial_violations(&dc, &inst);
        let source = StoreShardSource::new(&inst);
        let got = denial(&dc, &source);
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }
}
