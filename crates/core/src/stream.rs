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
//! patched per touched LHS key (`cfd_violations_patched`): a group that
//! violated is rebuilt from its previous RHS classes, found by its smallest
//! member, and only a key with no previous violating group is classified
//! afresh, so a round costs the changed tuples and their groups' classes,
//! not the groups' sizes.  Incremental detection regroups only the groups
//! the given tuples fall in (`cfd_violations_touching`), classifying them
//! off the pooled index.  The only code that lists pairs is
//! [`CfdViolationGroups`]'s.

use crate::cfd::{Cfd, CfdViolation};
use crate::denial::{DcTerm, DenialConstraint};
use crate::detect::CfdViolationGroups;
use crate::interned::InternedEntry;
use dq_relation::{
    Column, ColumnarStore, FxHashMap, FxHashSet, InternedIndex, KeyCodec, ProjectionKey,
    ShardSource, TupleId, Value, ValueId,
};
use std::ops::Range;
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
    /// A patched group's classes, back to back, and their runs.
    members: Vec<TupleId>,
    runs: Vec<Range<usize>>,
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
            members: Vec::new(),
            runs: Vec::new(),
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

    /// Appends group `g` of `prev` as it stands now, if it still violates:
    /// its classes less the affected ids, with each of `arrivals` (the rows
    /// of the group's key holding affected tuples, ascending) joining the
    /// class whose first unaffected member has the same packed `Y`
    /// projection, or a class of its own.  The key, so the patterns, are
    /// `g`'s; only the representatives and the arrivals are packed.
    fn push_patched(
        &mut self,
        source: &dyn ShardSource,
        prev: &CfdViolationGroups,
        g: usize,
        arrivals: &[usize],
        is_affected: impl Fn(TupleId) -> bool,
        out: &mut CfdViolationGroups,
    ) {
        self.classes.clear();
        for (c, class) in prev.classes_of(g).enumerate() {
            if let Some(&id) = class.iter().find(|&&id| !is_affected(id)) {
                let row = source.row_of(id).expect("unaffected tuples are live");
                self.classes.insert(self.rhs_codec.pack_row(row), c as u32);
            }
        }
        let old = prev.classes_of(g).len() as u32;
        let mut next = old;
        self.ids.clear();
        self.labels.clear();
        for &row in arrivals {
            let label = *(self.classes)
                .entry(self.rhs_codec.pack_row(row))
                .or_insert_with(|| {
                    next += 1;
                    next - 1
                });
            self.ids.push(source.tuple_id(row));
            self.labels.push(label);
        }
        self.members.clear();
        self.runs.clear();
        let mut kept = prev.classes_of(g);
        for label in 0..next {
            let start = self.members.len();
            let mut joined = (self.ids.iter().zip(&self.labels))
                .filter(|&(_, &l)| l == label)
                .map(|(&id, _)| id)
                .peekable();
            let class = if label < old { kept.next() } else { None };
            for &id in class.into_iter().flatten().filter(|&&id| !is_affected(id)) {
                while let Some(arrival) = joined.next_if(|&a| a < id) {
                    self.members.push(arrival);
                }
                self.members.push(id);
            }
            self.members.extend(joined);
            if self.members.len() > start {
                self.runs.push(start..self.members.len());
            }
        }
        if self.runs.len() < 2 {
            return; // the group agrees on Y now
        }
        let members = &self.members;
        self.runs.sort_unstable_by_key(|run| members[run.start]);
        out.push_classes(
            prev.patterns_of(g),
            self.runs.iter().map(|run| &members[run.clone()]),
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

/// How a maintenance round served the LHS groups it touched (see
/// [`cfd_violations_patched`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PatchCounts {
    /// Previously violating groups rebuilt from their previous RHS classes.
    pub(crate) patched: usize,
    /// Groups with no previous violating group, classified in full.
    pub(crate) classified: usize,
}

/// The affected tuples one LHS key of a maintenance round gained and lost.
#[derive(Default)]
struct Touched {
    /// Rows (now) of the live affected tuples whose current key it is,
    /// ascending.
    arrivals: Vec<usize>,
    /// The smallest affected tuple whose key it was in the previous
    /// snapshot.
    departed: Option<TupleId>,
}

/// `prev`, the grouped violations of `cfd` over `prev_store`, an earlier
/// snapshot of the instance `source` reads, brought up to date with
/// `source` — equal to [`cfd_violations`] over `source`.
///
/// `affected` (sorted, deduplicated) are the tuples appended, removed or
/// with a changed LHS/RHS cell since `prev_store`; the removed ones are
/// absent from `source`, so they only drop out of `prev`'s verdicts.
/// `index` is the pooled index of `source` on exactly [`Cfd::lhs`], and
/// every LHS column of `prev_store` must be built.
///
/// A single-tuple verdict depends on the tuple's own cells only, so only
/// the affected tuples' are redone.  A group changed only if an affected
/// tuple joined or left its key: each live affected tuple *arrives* at its
/// current key, and each one live in `prev_store` departs from its old key
/// there — ids stay valid across patched dictionaries, so old and new keys
/// compare as id tuples.  A touched key's previous members are its
/// unaffected rows now plus its departed tuples, so if it violated, its
/// previous group is the one whose smallest member is the smaller of its
/// first unaffected row and its smallest departed id, found by binary
/// search.  That group is patched, not reclassified: its classes lose the
/// affected ids, each arrival joins the class whose first unaffected member
/// agrees with it on the packed `Y` projection or starts a class, and a
/// group left with fewer than two classes drops out.  A touched key with no
/// previous violating group had at most one class, or matched no pattern;
/// only it is classified in full.  Every other group is copied over in
/// bulk ([`CfdViolationGroups::merged`]).  The work is the affected tuples,
/// the kept members of the touched groups and a copy of `prev`; no row of
/// a patched group is hashed again and no pair is ever enumerated.
pub(crate) fn cfd_violations_patched(
    cfd: &Cfd,
    source: &dyn ShardSource,
    index: &InternedIndex,
    prev_store: &ColumnarStore,
    prev: &CfdViolationGroups,
    affected: &[TupleId],
) -> (CfdViolationGroups, PatchCounts) {
    debug_assert!(affected.windows(2).all(|w| w[0] < w[1]));
    debug_assert_eq!(index.attrs(), cfd.lhs(), "index on the LHS");
    let mut marks = vec![0u64; affected.last().map_or(0, |id| id.0 / 64 + 1)];
    for id in affected {
        marks[id.0 / 64] |= 1 << (id.0 % 64);
    }
    let is_affected = |id: TupleId| {
        marks
            .get(id.0 / 64)
            .is_some_and(|w| w >> (id.0 % 64) & 1 == 1)
    };
    let interned = InternedCfd::new(cfd, source);
    let mut singles: Vec<CfdViolation> = prev
        .singles()
        .iter()
        .filter(|v| !matches!(v, CfdViolation::SingleTuple { tuple, .. } if is_affected(*tuple)))
        .copied()
        .collect();
    let old_cols: Vec<Arc<Column>> = (cfd.lhs().iter())
        .map(|&a| {
            prev_store
                .built_column(a)
                .expect("maintained snapshots keep their LHS columns built")
        })
        .collect();
    let key_at = |cols: &[Arc<Column>], row: usize| -> Vec<ValueId> {
        cols.iter().map(|c| c.id_at(row)).collect()
    };
    let mut touched: FxHashMap<Vec<ValueId>, Touched> = FxHashMap::default();
    for &id in affected {
        if let Some(row) = source.row_of(id) {
            let key = key_at(&interned.lhs_cols, row);
            touched.entry(key).or_default().arrivals.push(row);
        }
        if let Some(row) = prev_store.row_of(id) {
            let key = key_at(&old_cols, row);
            touched.entry(key).or_default().departed.get_or_insert(id);
        }
    }
    interned.singles(
        source,
        affected.iter().filter_map(|&id| source.row_of(id)),
        &mut singles,
    );
    let mut fresh = CfdViolationGroups::with_singles(singles);
    let mut replaced = Vec::new();
    let mut counts = PatchCounts::default();
    let mut classifier = Classifier::new(&interned);
    for (key, change) in &touched {
        let rows = index.rows_for_ids(key);
        let first_kept = (rows.iter())
            .map(|&row| source.tuple_id(row as usize))
            .find(|&id| !is_affected(id));
        let prev_min = first_kept.into_iter().chain(change.departed).min();
        match prev_min.and_then(|id| prev.group_with_min(id)) {
            Some(g) => {
                counts.patched += 1;
                replaced.push(g);
                classifier.push_patched(source, prev, g, &change.arrivals, is_affected, &mut fresh);
            }
            None if rows.len() >= 2 => {
                counts.classified += 1;
                classifier.push_if_violating(&interned, source, rows, &mut fresh);
            }
            None => {}
        }
    }
    replaced.sort_unstable();
    let merged = CfdViolationGroups::merged(prev, &replaced, fresh.into_canonical());
    (merged, counts)
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

    /// `k → y` over six tuples: `k = 1` violates with classes `{t0, t1}`
    /// (`a`) and `{t2}` (`b`), `k = 2` is clean, `k = 3` a single tuple.
    fn keyed() -> (RelationInstance, Cfd) {
        let schema = Arc::new(RelationSchema::new(
            "keyed",
            [("k", Domain::Int), ("y", Domain::Text)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&schema));
        for (k, y) in [(1, "a"), (1, "a"), (1, "b"), (2, "a"), (2, "a"), (3, "c")] {
            inst.insert_values([Value::int(k), Value::str(y)]).unwrap();
        }
        let cfd = Cfd::new(
            &schema,
            &["k"],
            &["y"],
            vec![PatternTuple::new(vec![wild()], vec![wild()])],
        )
        .unwrap();
        (inst, cfd)
    }

    /// One maintenance round: `edit` mutates `inst` and returns the tuples
    /// it appended, removed or changed; the report patched from the
    /// previous snapshot's must equal fresh detection and the reference.
    /// Returns the patched report and how its touched groups were served.
    fn patch_round(
        inst: &mut RelationInstance,
        cfd: &Cfd,
        edit: impl FnOnce(&mut RelationInstance) -> Vec<TupleId>,
    ) -> (CfdViolationGroups, PatchCounts) {
        let prev_store = inst.columnar();
        let prev = {
            let index = InternedIndex::build(inst, &prev_store, cfd.lhs(), 1);
            let source = StoreShardSource::with_store(inst, Arc::clone(&prev_store));
            cfd_violations(cfd, &source, index.multi_group_rows())
        };
        let mut affected = edit(inst);
        affected.sort_unstable();
        affected.dedup();
        let store = inst.columnar();
        let index = InternedIndex::build(inst, &store, cfd.lhs(), 1);
        let source = StoreShardSource::with_store(inst, store);
        let (patched, counts) =
            cfd_violations_patched(cfd, &source, &index, &prev_store, &prev, &affected);
        assert_eq!(
            patched,
            cfd_violations(cfd, &source, index.multi_group_rows())
        );
        assert_eq!(
            patched.to_violations(),
            crate::reference::cfd_violations(cfd, inst)
        );
        (patched, counts)
    }

    fn classes(groups: &CfdViolationGroups, g: usize) -> Vec<Vec<usize>> {
        (groups.classes_of(g))
            .map(|c| c.iter().map(|id| id.0).collect())
            .collect()
    }

    fn counts(patched: usize, classified: usize) -> PatchCounts {
        PatchCounts {
            patched,
            classified,
        }
    }

    fn set_y(inst: &mut RelationInstance, t: usize, y: &str) -> TupleId {
        inst.update_cell(dq_relation::CellRef::new(TupleId(t), 1), Value::str(y))
            .unwrap();
        TupleId(t)
    }

    #[test]
    fn patch_an_arrival_makes_a_clean_group_violate() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            vec![inst
                .insert_values([Value::int(2), Value::str("z")])
                .unwrap()]
        });
        assert_eq!(served, counts(0, 1), "k = 2 had no violating group");
        assert_eq!(classes(&report, 1), [vec![3, 4], vec![6]]);
    }

    #[test]
    fn patch_the_last_dissenter_leaving_drops_the_group() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            inst.remove(TupleId(2)).unwrap();
            vec![TupleId(2)]
        });
        assert_eq!(served, counts(1, 0));
        assert_eq!(report.group_count(), 0);
    }

    #[test]
    fn patch_a_group_whose_every_member_is_affected() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            vec![
                set_y(inst, 0, "b"),
                set_y(inst, 1, "c"),
                set_y(inst, 2, "b"),
            ]
        });
        assert_eq!(served, counts(1, 0));
        assert_eq!(classes(&report, 0), [vec![0, 2], vec![1]]);
    }

    #[test]
    fn patch_an_rhs_only_edit_moves_a_member_between_classes() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| vec![set_y(inst, 1, "b")]);
        assert_eq!(served, counts(1, 0));
        assert_eq!(classes(&report, 0), [vec![0], vec![1, 2]]);
    }

    #[test]
    fn patch_finds_a_group_whose_smallest_member_left() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            inst.remove(TupleId(0)).unwrap();
            vec![TupleId(0)]
        });
        assert_eq!(served, counts(1, 0), "found by the departed id");
        assert_eq!(classes(&report, 0), [vec![1], vec![2]]);
    }

    #[test]
    fn patch_recreates_a_class_whose_unaffected_members_all_left() {
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            inst.remove(TupleId(2)).unwrap();
            let back = inst
                .insert_values([Value::int(1), Value::str("b")])
                .unwrap();
            vec![TupleId(2), back]
        });
        assert_eq!(served, counts(1, 0));
        assert_eq!(classes(&report, 0), [vec![0, 1], vec![6]]);
    }

    #[test]
    fn patch_moves_a_tuple_between_keys() {
        // t2 leaves k = 1 (which turns clean) for k = 3, where it dissents
        // from t5: one group patched away, one classified in full.
        let (mut inst, cfd) = keyed();
        let (report, served) = patch_round(&mut inst, &cfd, |inst| {
            inst.update_cell(dq_relation::CellRef::new(TupleId(2), 0), Value::int(3))
                .unwrap();
            vec![TupleId(2)]
        });
        assert_eq!(served, counts(1, 1));
        assert_eq!(classes(&report, 0), [vec![2], vec![5]]);
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
