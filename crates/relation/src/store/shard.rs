//! Shard-cursor access to a relation's columnar form.
//!
//! A [`ShardSource`] abstracts over *where the ids live*: an in-RAM
//! [`ColumnarStore`] snapshot of a live instance, or a persisted relation
//! whose id segments are memory-mapped ([`super::persist::MappedRelation`]).
//! Detection passes and partition builds that consume a `ShardSource`
//! advance shard-by-shard — dictionaries stay resident, ids page in and out
//! — so resident memory is bounded by O(dictionaries + one shard + output)
//! regardless of the instance size, and the *same* algorithm code runs
//! byte-identically over both backings (the property suites assert exactly
//! that).
//!
//! The grouping kernels (CFD and denial detection, stripped partitions,
//! `g3`) take a source plus its multi-row groups on a key as ascending row
//! runs.  [`RowGroups::scan`] is the provider for sources without a pooled
//! index; a live instance's pooled [`InternedIndex`](super::InternedIndex)
//! serves the same runs from its postings
//! ([`multi_group_rows`](super::InternedIndex::multi_group_rows)).

use super::columnar::{walk_runs, Column, ColumnarStore, SHARD_ROWS};
use super::fx::FxHashMap;
use super::index::{KeyCodec, Repr, RunKey};
use super::interner::ValueId;
use crate::instance::{RelationInstance, TupleId};
use crate::schema::RelationSchema;
use std::ops::Range;
use std::sync::Arc;

/// A relation seen as a sequence of fixed-size row shards of
/// dictionary-encoded columns.
pub trait ShardSource: Sync {
    /// The relation's schema.
    fn schema(&self) -> &Arc<RelationSchema>;

    /// Number of rows.
    fn len(&self) -> usize;

    /// Is the relation empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows per shard (the last shard may be shorter).
    fn shard_rows(&self) -> usize;

    /// Number of shards.
    fn shard_count(&self) -> usize {
        self.len().div_ceil(self.shard_rows().max(1)).max(1)
    }

    /// The row range of shard `shard`.
    fn shard_range(&self, shard: usize) -> Range<usize> {
        let per = self.shard_rows().max(1);
        (shard * per).min(self.len())..((shard + 1) * per).min(self.len())
    }

    /// The dictionary-encoded column of attribute `attr`.  For mapped
    /// sources the returned column's ids are backed by segment files and
    /// paged in on access.
    fn column(&self, attr: usize) -> Arc<Column>;

    /// The tuple id stored in row `row`.
    fn tuple_id(&self, row: usize) -> TupleId;

    /// The row position of a tuple id, if present.
    fn row_of(&self, id: TupleId) -> Option<usize>;

    /// Hints that a shard's pages are no longer needed (no-op for in-RAM
    /// sources).  Shard-cursor loops call this behind the cursor.
    fn release_shard(&self, _shard: usize) {}
}

/// [`ShardSource`] over an in-RAM columnar snapshot of a live instance —
/// the reference backing the mapped path is property-checked against.
pub struct StoreShardSource<'a> {
    instance: &'a RelationInstance,
    store: Arc<ColumnarStore>,
}

impl<'a> StoreShardSource<'a> {
    /// Wraps the instance's current columnar snapshot.
    pub fn new(instance: &'a RelationInstance) -> Self {
        let store = instance.columnar();
        StoreShardSource { instance, store }
    }

    /// Wraps an explicit snapshot of `instance`.
    pub fn with_store(instance: &'a RelationInstance, store: Arc<ColumnarStore>) -> Self {
        StoreShardSource { instance, store }
    }

    /// The underlying snapshot.
    pub fn store(&self) -> &Arc<ColumnarStore> {
        &self.store
    }
}

impl ShardSource for StoreShardSource<'_> {
    fn schema(&self) -> &Arc<RelationSchema> {
        self.instance.schema()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn shard_rows(&self) -> usize {
        SHARD_ROWS
    }

    fn column(&self, attr: usize) -> Arc<Column> {
        self.store.column(self.instance, attr)
    }

    fn tuple_id(&self, row: usize) -> TupleId {
        self.store.tuple_id(row)
    }

    fn row_of(&self, id: TupleId) -> Option<usize> {
        self.store.row_of(id)
    }
}

/// The groups of two or more rows agreeing on a key projection, in CSR form:
/// each group is an ascending run of row positions.  Groups appear in
/// unspecified order.
#[derive(Clone, Debug)]
pub struct RowGroups {
    /// Group → start of its run; `offsets.len() == groups + 1`.
    offsets: Vec<u32>,
    /// Row positions, grouped and ascending within each group.
    rows: Vec<u32>,
}

impl RowGroups {
    /// Groups the rows of `source` on `attrs` in two sequential scans: the
    /// first counts keys, the second writes the rows of every key seen at
    /// least twice into that key's run — so the (typically dominant)
    /// singleton keys cost no group storage.  Both scans read each shard's
    /// ids as chunk or segment slices, and each shard is released once the
    /// second scan has passed it.
    ///
    /// The key is the mixed-radix packing of the row's ids under the exact
    /// dictionary sizes.  When that radix product is at most twice the row
    /// count — every single attribute whose dictionary holds no more values
    /// than twice the rows, and narrow keys such as `[CC, AC]` — the counts
    /// live in an array indexed by the packed key, a counting sort by id,
    /// and groups come out in key order (`store.scan.dense_rows`).  Wider
    /// keys count in a hash map of packed keys, as the oracle
    /// [`crate::reference::hash_scan`] does (`store.scan.hashed_rows`).
    ///
    /// # Panics
    /// Panics when a key column names an id its radix cannot hold — an id
    /// past the dictionary, as only a tampered (checksum-valid) mapped
    /// shard segment can carry — instead of grouping that row with the
    /// next key's.
    pub fn scan(source: &dyn ShardSource, attrs: &[usize]) -> Self {
        let columns: Vec<Arc<Column>> = attrs.iter().map(|&a| source.column(a)).collect();
        match dense_radices(&columns, source.len()) {
            Some(radices) => {
                dq_obs::add("store.scan.dense_rows", source.len() as u64);
                Self::scan_dense(source, &columns, &radices)
            }
            None => {
                dq_obs::add("store.scan.hashed_rows", source.len() as u64);
                let codec = KeyCodec::new(columns);
                match &codec.repr {
                    Repr::Radix(radices) => {
                        Self::scan_hashed::<u64>(source, codec.columns(), radices)
                    }
                    Repr::Shift => Self::scan_hashed::<u128>(source, codec.columns(), &[]),
                    Repr::Wide => Self::scan_hashed::<Box<[ValueId]>>(source, codec.columns(), &[]),
                }
            }
        }
    }

    /// One scan of `source`'s rows in order: `f(key, row)` per row, the
    /// keys packed run by run from the shard's id slices, each id checked
    /// against its radix.  With `release`, each shard is released once
    /// passed.
    fn each_key<K: RunKey>(
        source: &dyn ShardSource,
        columns: &[Arc<Column>],
        radices: &[u64],
        release: bool,
        mut f: impl FnMut(K, u32),
    ) {
        let mut keys: Vec<K> = Vec::new();
        for shard in 0..source.shard_count() {
            walk_runs(columns, source.shard_range(shard), |start, len, ids| {
                check_radices(radices, ids);
                K::pack_run(radices, ids, len, &mut keys);
                for (row, key) in (start as u32..).zip(keys.drain(..)) {
                    f(key, row);
                }
            });
            if release {
                source.release_shard(shard);
            }
        }
    }

    /// Counting sort by packed key into an array as long as the radix
    /// product: counts, then each multi-row key's write cursor.
    fn scan_dense(source: &dyn ShardSource, columns: &[Arc<Column>], radices: &[u64]) -> Self {
        let product: u64 = radices.iter().product();
        let mut slots = vec![0u32; product as usize];
        Self::each_key(source, columns, radices, false, |key: u64, _| {
            slots[key as usize] += 1
        });
        let mut layout = Layout::new();
        for slot in &mut slots {
            *slot = layout.open_run(*slot);
        }
        let mut rows = vec![0u32; layout.total as usize];
        Self::each_key(source, columns, radices, true, |key: u64, row| {
            place(&mut slots[key as usize], &mut rows, row)
        });
        RowGroups {
            offsets: layout.offsets,
            rows,
        }
    }

    /// The count→collect scans over a hash map of packed keys.
    fn scan_hashed<K: RunKey>(
        source: &dyn ShardSource,
        columns: &[Arc<Column>],
        radices: &[u64],
    ) -> Self {
        let mut cursors: FxHashMap<K, u32> = FxHashMap::default();
        Self::each_key(source, columns, radices, false, |key: K, _| {
            *cursors.entry(key).or_insert(0) += 1
        });
        let mut layout = Layout::new();
        for slot in cursors.values_mut() {
            *slot = layout.open_run(*slot);
        }
        let mut rows = vec![0u32; layout.total as usize];
        Self::each_key(source, columns, radices, true, |key: K, row| {
            let cursor = cursors
                .get_mut(&key)
                .expect("every key was counted by the first scan");
            place(cursor, &mut rows, row)
        });
        RowGroups {
            offsets: layout.offsets,
            rows,
        }
    }

    /// Groups from their CSR parts (the reference scans build them too).
    pub(crate) fn from_parts(offsets: Vec<u32>, rows: Vec<u32>) -> Self {
        RowGroups { offsets, rows }
    }

    /// The row runs, one per group.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }
}

/// The radices of the dense counting scan over `columns` — their exact
/// dictionary sizes — when their product is at most twice the `rows`
/// scanned, so the count array costs at most two slots per row.
fn dense_radices(columns: &[Arc<Column>], rows: usize) -> Option<Vec<u64>> {
    let radices: Vec<u64> = columns.iter().map(|c| c.distinct() as u64).collect();
    let product = radices
        .iter()
        .try_fold(1u64, |acc, &radix| acc.checked_mul(radix))?;
    (rows > 0 && product <= 2 * rows as u64).then_some(radices)
}

/// Checks that each key column's ids in a run lie below its radix (no
/// radices, as in the shift and wide packings, check nothing): a larger id
/// would pack into another key's slot.
fn check_radices(radices: &[u64], ids: &[&[ValueId]]) {
    for (col, (&radix, run)) in radices.iter().zip(ids).enumerate() {
        let max = run.iter().map(|id| id.0 as u64).max().unwrap_or(0);
        assert!(
            max < radix,
            "key column {col} names id {max}, past the {radix} values its radix holds"
        );
    }
}

/// The run layout of the groups, opened key by key from the first scan's
/// counts.
struct Layout {
    offsets: Vec<u32>,
    total: u32,
}

impl Layout {
    fn new() -> Self {
        Layout {
            offsets: vec![0],
            total: 0,
        }
    }

    /// Opens a run for a key counted `count` times and returns its write
    /// cursor; a singleton (or absent) key gets no run, marked `u32::MAX`.
    fn open_run(&mut self, count: u32) -> u32 {
        if count < 2 {
            return u32::MAX;
        }
        let start = self.total;
        self.total += count;
        self.offsets.push(self.total);
        start
    }
}

/// Writes `row` at the write cursor `cursor` of its key's run, if it has
/// one.
#[inline]
fn place(cursor: &mut u32, rows: &mut [u32], row: u32) {
    if *cursor != u32::MAX {
        rows[*cursor as usize] = row;
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, RelationSchema};
    use crate::value::Value;

    #[test]
    fn scanned_groups_equal_the_pooled_index_groups() {
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("a", Domain::Int), ("b", Domain::Int)],
        ));
        let mut inst = RelationInstance::new(schema);
        for i in 0..40i64 {
            inst.insert_values([Value::int(i % 7), Value::int(i % 3)])
                .unwrap();
        }
        // Deletions make row positions differ from tuple ids.
        inst.remove(TupleId(3));
        inst.remove(TupleId(17));
        let source = StoreShardSource::new(&inst);
        for attrs in [&[0usize][..], &[1], &[0, 1], &[]] {
            let index = crate::store::InternedIndex::build(&inst, source.store(), attrs, 1);
            let mut pooled: Vec<&[u32]> = index.multi_group_rows().collect();
            let scanned = RowGroups::scan(&source, attrs);
            let mut scanned: Vec<&[u32]> = scanned.iter().collect();
            pooled.sort_unstable();
            scanned.sort_unstable();
            assert_eq!(scanned, pooled, "attrs {attrs:?}");
        }
    }
}
