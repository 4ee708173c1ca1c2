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
//! Every kernel ends in the canonical order of its naive reference
//! detector, so the reports are byte-identical to the reference whichever
//! provider and backing ran; the property suites assert exactly that.

use crate::cfd::{Cfd, CfdViolation};
use crate::denial::{DcTerm, DenialConstraint};
use crate::interned::InternedEntry;
use dq_relation::{
    Column, FxHashMap, InternedIndex, KeyCodec, ProjectionKey, ShardSource, TupleId, Value, ValueId,
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

/// All violations of `cfd` over `source`, in the canonical (sorted) order
/// of [`Cfd::violations`].
///
/// `lhs_groups` are the multi-row groups of `source` on
/// [`Cfd::lhs`]; with no groups only the single-tuple violations are
/// reported.  A tuple-pair violation lies inside one group, and within a
/// group a pair violates iff its members differ on the packed `Y`
/// projection, so partitioning each group by that projection costs work
/// linear in the group plus the violations reported.
pub fn cfd_violations<'g>(
    cfd: &Cfd,
    source: &dyn ShardSource,
    lhs_groups: impl IntoIterator<Item = &'g [u32]>,
) -> Vec<CfdViolation> {
    let interned = InternedCfd::new(cfd, source);
    let mut out = Vec::new();
    interned.singles(source, 0..source.len(), &mut out);
    let rhs_codec = KeyCodec::new(interned.rhs_cols.clone());
    let mut by_rhs: FxHashMap<ProjectionKey, Vec<TupleId>> = FxHashMap::default();
    let mut patterns: Vec<usize> = Vec::new();
    for rows in lhs_groups {
        interned.matching_patterns(rows[0] as usize, &mut patterns);
        if patterns.is_empty() {
            continue;
        }
        by_rhs.clear();
        for &row in rows {
            by_rhs
                .entry(rhs_codec.pack_row(row as usize))
                .or_default()
                .push(source.tuple_id(row as usize));
        }
        if by_rhs.len() < 2 {
            continue; // the whole group agrees on Y
        }
        let partitions: Vec<&Vec<TupleId>> = by_rhs.values().collect();
        for (i, first_part) in partitions.iter().enumerate() {
            for second_part in &partitions[i + 1..] {
                for &a in *first_part {
                    for &b in *second_part {
                        let (first, second) = if a < b { (a, b) } else { (b, a) };
                        for &p in &patterns {
                            out.push(CfdViolation::TuplePair {
                                pattern: p,
                                first,
                                second,
                            });
                        }
                    }
                }
            }
        }
    }
    release_all(source);
    out.sort_unstable();
    out
}

/// The violations of `cfd` over `source` that involve at least one tuple
/// of `ids`, in canonical (sorted) order.  Duplicate ids and ids of tuples
/// absent from `source` are ignored.
///
/// `index` is the pooled index of the same snapshot on exactly
/// [`Cfd::lhs`]: each affected tuple's current group is found by an id-level
/// lookup ([`InternedIndex::rows_for_ids`]), so the cost is proportional to
/// the affected tuples times their group sizes, not to the relation.
/// Affected tuples sharing a group share one packing of the group's `Y`
/// projections, and a pair of two affected tuples is emitted from the
/// smaller id only, so no pair is reported twice.
pub(crate) fn cfd_violations_involving(
    cfd: &Cfd,
    source: &dyn ShardSource,
    index: &InternedIndex,
    ids: &[TupleId],
) -> Vec<CfdViolation> {
    debug_assert_eq!(index.attrs(), cfd.lhs(), "index keyed off the CFD's LHS");
    let mut affected: Vec<TupleId> = ids.to_vec();
    affected.sort_unstable();
    affected.dedup();
    let live: Vec<(TupleId, usize)> = affected
        .iter()
        .filter_map(|&id| Some((id, source.row_of(id)?)))
        .collect();
    let is_affected = |id: TupleId| live.binary_search_by_key(&id, |&(id, _)| id).is_ok();
    let interned = InternedCfd::new(cfd, source);
    let mut out = Vec::new();
    interned.singles(source, live.iter().map(|&(_, row)| row), &mut out);
    let mut by_group: FxHashMap<Vec<ValueId>, Vec<(TupleId, usize)>> = FxHashMap::default();
    for &(id, row) in &live {
        let key = interned.lhs_cols.iter().map(|c| c.id_at(row)).collect();
        by_group.entry(key).or_default().push((id, row));
    }
    let rhs_codec = KeyCodec::new(interned.rhs_cols.clone());
    let mut patterns: Vec<usize> = Vec::new();
    for (key, members) in &by_group {
        let rows = index.rows_for_ids(key);
        if rows.len() < 2 {
            continue;
        }
        interned.matching_patterns(members[0].1, &mut patterns);
        if patterns.is_empty() {
            continue;
        }
        let packed: Vec<(TupleId, ProjectionKey)> = rows
            .iter()
            .map(|&row| {
                (
                    source.tuple_id(row as usize),
                    rhs_codec.pack_row(row as usize),
                )
            })
            .collect();
        for &(aff, aff_row) in members {
            let aff_packed = rhs_codec.pack_row(aff_row);
            for (other, other_packed) in &packed {
                let other = *other;
                if other == aff || *other_packed == aff_packed {
                    continue;
                }
                if other < aff && is_affected(other) {
                    continue;
                }
                let (first, second) = if aff < other {
                    (aff, other)
                } else {
                    (other, aff)
                };
                for &p in &patterns {
                    out.push(CfdViolation::TuplePair {
                        pattern: p,
                        first,
                        second,
                    });
                }
            }
        }
    }
    out.sort_unstable();
    out
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
/// [`DenialConstraint::violations`] — including its ordered-pair convention
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
/// [`DenialConstraint::violations`].
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
        let expected = cfd.violations(&inst);
        let source = StoreShardSource::new(&inst);
        let scanned = RowGroups::scan(&source, cfd.lhs());
        assert_eq!(cfd_violations(&cfd, &source, scanned.iter()), expected);
        let index = InternedIndex::build(&inst, source.store(), cfd.lhs(), 1);
        assert_eq!(
            cfd_violations(&cfd, &source, index.multi_group_rows()),
            expected
        );
        assert!(!expected.is_empty(), "fixture should actually violate");
        // No groups: exactly the single-tuple violations.
        let singles: Vec<CfdViolation> = expected
            .iter()
            .filter(|v| matches!(v, CfdViolation::SingleTuple { .. }))
            .copied()
            .collect();
        assert!(!singles.is_empty());
        assert_eq!(cfd_violations(&cfd, &source, std::iter::empty()), singles);
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
        let mut expected = dc.violations(&inst);
        expected.sort_unstable();
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
        let expected = dc.violations(&inst);
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
        let expected = dc.violations(&inst);
        let source = StoreShardSource::new(&inst);
        let got = denial(&dc, &source);
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }
}
