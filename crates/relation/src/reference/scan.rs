//! The hash-keyed shard scan that [`crate::store::RowGroups::scan`]'s dense
//! counting replaced, kept as the grouping oracle of shard sources.
//!
//! [`hash_scan`] packs each row's projection with
//! [`KeyCodec::pack_row`], one row at a time, and counts and collects the
//! rows in a hash map of [`ProjectionKey`]s.

use crate::store::{FxHashMap, KeyCodec, ProjectionKey, RowGroups, ShardSource};

/// The multi-row groups of `source` on `attrs`: two scans, the first
/// counting packed keys, the second writing the rows of every key seen at
/// least twice into its run.  Groups appear in unspecified order; rows
/// ascend within each.
pub fn hash_scan(source: &dyn ShardSource, attrs: &[usize]) -> RowGroups {
    let codec = KeyCodec::new(attrs.iter().map(|&a| source.column(a)).collect());
    let mut cursors: FxHashMap<ProjectionKey, u32> = FxHashMap::default();
    for shard in 0..source.shard_count() {
        for row in source.shard_range(shard) {
            *cursors.entry(codec.pack_row(row)).or_insert(0) += 1;
        }
    }
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
    RowGroups::from_parts(offsets, rows)
}
