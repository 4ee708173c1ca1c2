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

use super::columnar::{Column, ColumnarStore, SHARD_ROWS};
use super::fx::FxHashMap;
use super::index::{KeyCodec, ProjectionKey};
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
    /// first counts packed keys, the second writes the rows of every key
    /// seen at least twice into that key's run — so the (typically
    /// dominant) singleton keys cost no group storage.  Each shard is
    /// released once the second scan has passed it.
    pub fn scan(source: &dyn ShardSource, attrs: &[usize]) -> Self {
        let codec = KeyCodec::new(attrs.iter().map(|&a| source.column(a)).collect());
        let mut cursors: FxHashMap<ProjectionKey, u32> = FxHashMap::default();
        for shard in 0..source.shard_count() {
            for row in source.shard_range(shard) {
                *cursors.entry(codec.pack_row(row)).or_insert(0) += 1;
            }
        }
        // Turn each multi-row count into the write cursor of its run; a
        // singleton key is marked as having no run.
        let mut offsets = vec![0u32];
        let mut total = 0u32;
        for slot in cursors.values_mut() {
            if *slot >= 2 {
                let start = total;
                total += *slot;
                offsets.push(total);
                *slot = start;
            } else {
                *slot = u32::MAX;
            }
        }
        let mut rows = vec![0u32; total as usize];
        for shard in 0..source.shard_count() {
            for row in source.shard_range(shard) {
                let cursor = cursors
                    .get_mut(&codec.pack_row(row))
                    .expect("every key was counted by the first scan");
                if *cursor != u32::MAX {
                    rows[*cursor as usize] = row as u32;
                    *cursor += 1;
                }
            }
            source.release_shard(shard);
        }
        RowGroups { offsets, rows }
    }

    /// The row runs, one per group.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
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
