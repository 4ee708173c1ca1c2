//! Interned, sharded columnar backing of a
//! [`RelationInstance`].
//!
//! A [`ColumnarStore`] is a read-only, version-tagged snapshot of an
//! instance: the live tuples in insertion order (`rows`), a constant-time
//! slot → row translation (`row_index`), and one lazily built
//! dictionary-encoded [`Column`] per attribute.  Columns hold a dense
//! `Vec<ValueId>` — one `u32` per live tuple — plus the per-column
//! [`ValueInterner`] that issued the ids, so equality of cell values reduces
//! to equality of ids and multi-attribute keys pack into machine words (see
//! [`super::index::InternedIndex`]).
//!
//! Rows are range-sharded into fixed-size chunks of [`SHARD_ROWS`] so index
//! builds and group scans can parallelize *within* one index, not just
//! across dependencies.  The store never mutates: instances hand out a
//! snapshot per version through
//! [`RelationInstance::columnar`](crate::instance::RelationInstance::columnar),
//! mirroring the `(instance, version)` memoization of
//! [`IndexPool`](crate::index::IndexPool), and after journaled mutations
//! the next access patches the previous snapshot
//! ([`ColumnarStore::patched`]) instead of building a fresh one.

use super::interner::{InternerStats, ValueId, ValueInterner};
use super::mmap::MappedBytes;
use crate::instance::{Delta, RelationInstance, TupleId};
use std::mem::size_of;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Number of rows per shard: large enough that per-shard hash maps amortize,
/// small enough that a million-tuple instance yields double-digit shards for
/// the thread pool.
pub const SHARD_ROWS: usize = 1 << 16;

/// The runs of `0..len` between the `removed` positions (ascending): what
/// survives when those rows are dropped, as slices to copy.
fn kept_runs(removed: &[usize], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(removed.iter().map(|&r| r + 1));
    starts
        .zip(removed.iter().copied().chain([len]))
        .map(|(start, end)| start..end)
}

/// Backing storage of a column's id vector: an owned `Vec` for columns built
/// from an instance, or a view into memory-mapped segment files for columns
/// re-opened from a persisted relation (see [`super::persist`]).  Mapped ids
/// are paged in by the kernel on access and can be evicted under pressure,
/// so a mapped column's resident footprint is bounded by its dictionary.
#[derive(Clone, Debug)]
enum Ids {
    /// Owned ids, in row order.
    Ram(Vec<ValueId>),
    /// A concatenation of mapped segment slices (one per persisted shard),
    /// each carrying `count` little-endian `u32` ids at `offset` bytes.
    /// Constructed only when the byte offset is 4-aligned on a little-endian
    /// target ([`Ids::from_segments`] decodes into `Ram` otherwise), so the
    /// slice reinterpretation below is always valid.
    Mapped {
        segments: Vec<MappedIds>,
        /// Exclusive prefix-sum row boundaries, `segments.len() + 1` long.
        bounds: Vec<usize>,
    },
}

/// One mapped shard's worth of ids.
#[derive(Clone, Debug)]
pub(crate) struct MappedIds {
    pub(crate) bytes: Arc<MappedBytes>,
    pub(crate) offset: usize,
    pub(crate) count: usize,
}

impl MappedIds {
    /// The ids of this segment as a slice.  Soundness: the constructor path
    /// ([`Ids::from_segments`]) verified alignment and endianness, the
    /// mapping is immutable, and `ValueId` is `repr(transparent)` over
    /// `u32`.
    #[inline]
    fn as_slice(&self) -> &[ValueId] {
        unsafe {
            std::slice::from_raw_parts(
                self.bytes.as_ptr().add(self.offset) as *const ValueId,
                self.count,
            )
        }
    }
}

impl Ids {
    /// Wraps mapped segments, falling back to an eager decode into owned ids
    /// when zero-copy reinterpretation would be unsound (misaligned offset,
    /// big-endian target).
    fn from_segments(segments: Vec<MappedIds>) -> Ids {
        let zero_copy = cfg!(target_endian = "little")
            && segments.iter().all(|s| {
                s.offset % std::mem::align_of::<u32>() == 0
                    && unsafe { s.bytes.as_ptr().add(s.offset) as usize }
                        % std::mem::align_of::<u32>()
                        == 0
                    && s.offset + s.count * size_of::<u32>() <= s.bytes.len()
            });
        if zero_copy {
            let mut bounds = Vec::with_capacity(segments.len() + 1);
            bounds.push(0);
            for s in &segments {
                bounds.push(bounds.last().unwrap() + s.count);
            }
            return Ids::Mapped { segments, bounds };
        }
        let mut ids = Vec::with_capacity(segments.iter().map(|s| s.count).sum());
        for s in &segments {
            let raw = &s.bytes[s.offset..s.offset + s.count * size_of::<u32>()];
            ids.extend(
                raw.chunks_exact(4)
                    .map(|c| ValueId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
            );
        }
        Ids::Ram(ids)
    }

    fn len(&self) -> usize {
        match self {
            Ids::Ram(v) => v.len(),
            Ids::Mapped { bounds, .. } => *bounds.last().unwrap(),
        }
    }
}

/// One dictionary-encoded attribute: the ids of every live tuple's cell (in
/// row order) plus the dictionary that issued them.
#[derive(Clone, Debug)]
pub struct Column {
    interner: ValueInterner,
    ids: Ids,
}

impl Column {
    /// A column from already-encoded parts (column builds, and the persist
    /// layer's paths that build columns without an instance).  The
    /// dictionary is sealed, so patched copies share it.
    pub(crate) fn from_parts(mut interner: ValueInterner, ids: Vec<ValueId>) -> Column {
        interner.seal();
        Column {
            interner,
            ids: Ids::Ram(ids),
        }
    }

    /// A column whose ids live in mapped segment files.  Falls back to an
    /// eager decode when zero-copy reinterpretation is unsound on this
    /// target.  The dictionary is sealed, as in
    /// [`from_parts`](Self::from_parts).
    pub(crate) fn from_mapped(mut interner: ValueInterner, segments: Vec<MappedIds>) -> Column {
        interner.seal();
        Column {
            interner,
            ids: Ids::from_segments(segments),
        }
    }

    /// The id of the cell in row `row` (row positions come from
    /// [`ColumnarStore::row_of`] / [`ColumnarStore::rows`]).
    #[inline]
    pub fn id_at(&self, row: usize) -> ValueId {
        match &self.ids {
            Ids::Ram(v) => v[row],
            Ids::Mapped { segments, bounds } => {
                let seg = bounds.partition_point(|&b| b <= row) - 1;
                segments[seg].as_slice()[row - bounds[seg]]
            }
        }
    }

    /// All cell ids, in row order.  Mapped columns whose segments are
    /// contiguous in one file expose them zero-copy; otherwise the ids of
    /// each persisted shard are available through
    /// [`shard_ids`](Self::shard_ids).
    ///
    /// # Panics
    /// Panics on a multi-segment mapped column (no single backing slice
    /// exists); use [`shard_ids`](Self::shard_ids) or [`id_at`](Self::id_at)
    /// there.
    pub fn ids(&self) -> &[ValueId] {
        match &self.ids {
            Ids::Ram(v) => v,
            Ids::Mapped { segments, .. } => {
                assert_eq!(
                    segments.len(),
                    1,
                    "multi-segment mapped column has no contiguous id slice; \
                     iterate shard_ids() instead"
                );
                segments[0].as_slice()
            }
        }
    }

    /// The ids of rows `range`, as up to one slice per backing segment (in
    /// row order).  This is the shard-cursor access path: each slice stays
    /// inside one mapped segment, so scans touch one shard's pages at a
    /// time.
    pub fn shard_ids(&self, range: Range<usize>) -> Vec<&[ValueId]> {
        match &self.ids {
            Ids::Ram(v) => vec![&v[range]],
            Ids::Mapped { segments, bounds } => {
                let mut out = Vec::new();
                let mut row = range.start;
                while row < range.end {
                    let seg = bounds.partition_point(|&b| b <= row) - 1;
                    let take = (bounds[seg + 1] - row).min(range.end - row);
                    let local = row - bounds[seg];
                    out.push(&segments[seg].as_slice()[local..local + take]);
                    row += take;
                }
                out
            }
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.ids.len() == 0
    }

    /// Is the id storage memory-mapped (as opposed to owned)?
    pub fn is_mapped(&self) -> bool {
        matches!(self.ids, Ids::Mapped { .. })
    }

    /// Hints the kernel that the mapped pages backing rows `rows` are no
    /// longer needed: every segment overlapping the range is released, the
    /// others are left alone.  No-op for owned columns.
    pub fn release_rows(&self, rows: Range<usize>) {
        if let Ids::Mapped { segments, bounds } = &self.ids {
            for (segment, span) in segments.iter().zip(bounds.windows(2)) {
                if span[0] < rows.end && rows.start < span[1] {
                    segment.bytes.release();
                }
            }
        }
    }

    /// The dictionary behind this column.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Number of distinct values in the column.
    pub fn distinct(&self) -> usize {
        self.interner.len()
    }

    /// Approximate heap bytes of ids plus dictionary.  Mapped ids are file
    /// pages, not heap, and count as zero.
    pub fn approx_heap_bytes(&self) -> usize {
        let id_bytes = match &self.ids {
            Ids::Ram(v) => v.capacity() * size_of::<ValueId>(),
            Ids::Mapped { .. } => 0,
        };
        id_bytes + self.interner.approx_heap_bytes()
    }

    /// A copy of this column with the rows `removed` (ascending) dropped
    /// and `new_rows` appended: the dictionary is cloned — its shared
    /// prefix by reference, only its short tail by value — the surviving
    /// ids are copied as the slices between removed rows, and only the
    /// appended cells are interned.  Ids of values already in the
    /// dictionary are unchanged, so structures keyed on them stay valid.
    fn patched(
        &self,
        instance: &RelationInstance,
        attr: usize,
        removed: &[usize],
        new_rows: &[TupleId],
    ) -> Column {
        let mut interner = self.interner.clone();
        let mut ids = Vec::with_capacity(self.len() - removed.len() + new_rows.len());
        for run in kept_runs(removed, self.len()) {
            for part in self.shard_ids(run) {
                ids.extend_from_slice(part);
            }
        }
        for &id in new_rows {
            let tuple = instance.tuple(id).expect("appended row is live");
            ids.push(interner.intern(tuple.get(attr)));
        }
        Column {
            interner,
            ids: Ids::Ram(ids),
        }
    }
}

/// Aggregate counters of a [`ColumnarStore`], reported by the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Live rows in the snapshot.
    pub rows: usize,
    /// Columns built so far (columns are built on first use).
    pub built_columns: usize,
    /// Total distinct values across built columns.
    pub distinct_values: usize,
    /// Approximate heap bytes across built columns (ids + dictionaries).
    pub heap_bytes: usize,
    /// Bytes the interned representation saves versus materializing one
    /// `Value` per cell of the built columns.
    pub bytes_saved_vs_values: usize,
}

impl dq_obs::MetricSource for ColumnarStats {
    fn emit(&self, prefix: &str, sink: &mut dyn dq_obs::MetricSink) {
        let gauge = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
        sink.gauge(&format!("{prefix}.rows"), gauge(self.rows));
        sink.gauge(
            &format!("{prefix}.built_columns"),
            gauge(self.built_columns),
        );
        sink.gauge(
            &format!("{prefix}.distinct_values"),
            gauge(self.distinct_values),
        );
        sink.gauge(&format!("{prefix}.heap_bytes"), gauge(self.heap_bytes));
        sink.gauge(
            &format!("{prefix}.bytes_saved_vs_values"),
            gauge(self.bytes_saved_vs_values),
        );
    }
}

/// A version-tagged columnar snapshot of one relation instance.
#[derive(Debug)]
pub struct ColumnarStore {
    instance_id: u64,
    version: u64,
    rows: Vec<TupleId>,
    /// Slot → row position; `u32::MAX` marks dead slots.
    row_index: Vec<u32>,
    columns: Vec<OnceLock<Arc<Column>>>,
}

impl ColumnarStore {
    /// Snapshots the live rows of `instance`.  Columns are built lazily on
    /// first access through [`column`](Self::column).
    pub fn new(instance: &RelationInstance) -> Self {
        dq_obs::time("store.snapshot_ns", || {
            let mut rows = Vec::with_capacity(instance.len());
            let mut row_index = Vec::new();
            for (id, _) in instance.iter() {
                while row_index.len() < id.0 {
                    row_index.push(u32::MAX);
                }
                row_index
                    .push(u32::try_from(rows.len()).expect("instance larger than u32::MAX rows"));
                rows.push(id);
            }
            ColumnarStore {
                instance_id: instance.instance_id(),
                version: instance.version(),
                rows,
                row_index,
                columns: (0..instance.schema().arity())
                    .map(|_| OnceLock::new())
                    .collect(),
            }
        })
    }

    /// Patches a previous snapshot of the same instance after insertions,
    /// removals and journaled cell writes: the rows of removed tuples are
    /// dropped (the rows, row index and ids after the first of them are
    /// compacted), only the appended tuples are encoded, and *only* the
    /// changed cells are re-interned in place — an append-only gap has an
    /// empty delta.  A built column with no changed cell, no appended row
    /// and no removed row is shared with `prev` as the same `Arc`; the
    /// others clone their dictionary, which shares its prefix with `prev`'s
    /// and copies only the short tail (see [`ValueInterner`]).  Columns
    /// `prev` never built stay lazy.  Dictionaries are append-only, so every
    /// surviving cell keeps its id and structures keyed on old ids stay
    /// valid; a patched dictionary may carry values no live cell holds any
    /// more, which costs a little memory but never correctness.
    ///
    /// The caller must guarantee the delta journal covers `prev.version()`
    /// ([`RelationInstance::delta_covers`]) and pass the delta since then
    /// ([`RelationInstance::delta_since`]).
    pub fn patched(prev: &ColumnarStore, instance: &RelationInstance, delta: &Delta) -> Self {
        let _t = dq_obs::timer("store.patch_ns");
        assert_eq!(
            prev.instance_id,
            instance.instance_id(),
            "snapshot patched for a different instance"
        );
        debug_assert!(instance.delta_covers(prev.version));
        let removed = prev.removed_rows(delta);
        dq_obs::add("store.patch.removed_rows", removed.len() as u64);
        let mut rows = Vec::with_capacity(instance.len());
        for run in kept_runs(&removed, prev.rows.len()) {
            rows.extend_from_slice(&prev.rows[run]);
        }
        let mut row_index = prev.row_index.clone();
        for &row in &removed {
            row_index[prev.rows[row].0] = u32::MAX;
        }
        let first_moved = removed.first().copied().unwrap_or(rows.len());
        for (row, id) in rows.iter().enumerate().skip(first_moved) {
            row_index[id.0] = row as u32;
        }
        // Slots never revive, so every live tuple in a slot beyond the old
        // row index is an appended one.
        let first_new_slot = prev.row_index.len();
        let mut new_rows = Vec::new();
        for (id, _) in instance.iter_from(first_new_slot) {
            row_index.resize(id.0, u32::MAX);
            row_index.push(u32::try_from(rows.len()).expect("instance larger than u32::MAX rows"));
            rows.push(id);
            new_rows.push(id);
        }
        let columns: Vec<OnceLock<Arc<Column>>> = prev
            .columns
            .iter()
            .enumerate()
            .map(|(attr, slot)| {
                let lock = OnceLock::new();
                if let Some(col) = slot.get() {
                    let mut changes = delta
                        .changes
                        .iter()
                        .filter(|c| c.cell.attr == attr)
                        .peekable();
                    if changes.peek().is_none() && new_rows.is_empty() && removed.is_empty() {
                        lock.set(Arc::clone(col))
                            .expect("freshly created lock is empty");
                        return lock;
                    }
                    let mut patched = col.patched(instance, attr, &removed, &new_rows);
                    let Ids::Ram(ids) = &mut patched.ids else {
                        unreachable!("patched columns always own their ids");
                    };
                    for change in changes {
                        // Changed tuples are live; appended-then-edited ones
                        // were already interned at their current value
                        // above, and re-interning is a no-op for them.
                        let row = row_index[change.cell.tuple.0];
                        ids[row as usize] = patched.interner.intern(&change.new);
                    }
                    lock.set(Arc::new(patched))
                        .expect("freshly created lock is empty");
                }
                lock
            })
            .collect();
        ColumnarStore {
            instance_id: prev.instance_id,
            version: instance.version(),
            rows,
            row_index,
            columns,
        }
    }

    /// The rows of this snapshot whose tuples `delta` (a delta since this
    /// snapshot's version) removed, ascending; tuples appended and removed
    /// inside the gap have no row here.
    pub(crate) fn removed_rows(&self, delta: &Delta) -> Vec<usize> {
        delta
            .removed
            .iter()
            .filter_map(|&id| self.row_of(id))
            .collect()
    }

    /// The tuples of this snapshot appended since `prev`, an older snapshot
    /// of the same instance: the rows past `prev`'s last slot (slots never
    /// revive, so nothing else is new).
    pub fn appended_since(&self, prev: &ColumnarStore) -> &[TupleId] {
        let first = self.rows.partition_point(|id| id.0 < prev.row_index.len());
        &self.rows[first..]
    }

    /// Identity of the instance this snapshot was taken from.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Version of the instance this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live tuple ids in insertion (row) order.
    pub fn rows(&self) -> &[TupleId] {
        &self.rows
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuple id stored in row `row`.
    #[inline]
    pub fn tuple_id(&self, row: usize) -> TupleId {
        self.rows[row]
    }

    /// The row position of a tuple id, if the tuple was live at snapshot
    /// time.
    #[inline]
    pub fn row_of(&self, id: TupleId) -> Option<usize> {
        match self.row_index.get(id.0) {
            Some(&row) if row != u32::MAX => Some(row as usize),
            _ => None,
        }
    }

    /// Number of fixed-size row shards.
    pub fn shard_count(&self) -> usize {
        self.rows.len().div_ceil(SHARD_ROWS).max(1)
    }

    /// The row range of shard `shard`.
    pub fn shard_rows(&self, shard: usize) -> Range<usize> {
        let start = shard * SHARD_ROWS;
        start.min(self.rows.len())..((shard + 1) * SHARD_ROWS).min(self.rows.len())
    }

    /// The dictionary-encoded column of attribute `attr`, built on first
    /// access (subsequent calls, from any thread, share the same column).
    ///
    /// `instance` must be the instance this store was snapshotted from, at
    /// the same version — mutations invalidate the snapshot, and
    /// [`RelationInstance::columnar`] hands out a fresh store per version.
    pub fn column(&self, instance: &RelationInstance, attr: usize) -> Arc<Column> {
        Arc::clone(self.columns[attr].get_or_init(|| {
            let _t = dq_obs::timer("store.column_build_ns");
            assert_eq!(
                (instance.instance_id(), instance.version()),
                (self.instance_id, self.version),
                "columnar snapshot is stale for this instance"
            );
            let mut interner = ValueInterner::new();
            let mut ids = Vec::with_capacity(self.rows.len());
            for &id in &self.rows {
                let tuple = instance.tuple(id).expect("snapshot row is live");
                ids.push(interner.intern(tuple.get(attr)));
            }
            let column = Arc::new(Column::from_parts(interner, ids));
            dq_obs::add(
                "store.column_bytes_built",
                column.approx_heap_bytes() as u64,
            );
            column
        }))
    }

    /// The column of attribute `attr`, if it has been built already.
    pub fn built_column(&self, attr: usize) -> Option<Arc<Column>> {
        self.columns.get(attr).and_then(|c| c.get().cloned())
    }

    /// Aggregate counters across built columns.
    pub fn stats(&self) -> ColumnarStats {
        let mut stats = ColumnarStats {
            rows: self.rows.len(),
            ..ColumnarStats::default()
        };
        for slot in &self.columns {
            if let Some(col) = slot.get() {
                stats.built_columns += 1;
                stats.distinct_values += col.distinct();
                stats.heap_bytes += col.approx_heap_bytes();
                let row_values = self.rows.len() * size_of::<crate::value::Value>();
                stats.bytes_saved_vs_values += row_values.saturating_sub(col.approx_heap_bytes());
            }
        }
        stats
    }

    /// Per-column dictionary stats of the built columns, by attribute
    /// position.
    pub fn column_stats(&self) -> Vec<(usize, InternerStats)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(attr, slot)| slot.get().map(|c| (attr, c.interner().stats())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, RelationSchema};
    use crate::value::Value;

    fn instance() -> RelationInstance {
        let schema = RelationSchema::new("r", [("A", Domain::Int), ("B", Domain::Text)]);
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b) in [(1, "x"), (2, "y"), (1, "x"), (3, "x")] {
            inst.insert_values([Value::int(a), Value::str(b)]).unwrap();
        }
        inst
    }

    #[test]
    fn columns_round_trip_cell_values() {
        let inst = instance();
        let store = ColumnarStore::new(&inst);
        assert_eq!(store.len(), 4);
        for attr in 0..2 {
            let col = store.column(&inst, attr);
            for (row, &id) in store.rows().iter().enumerate() {
                let original = inst.tuple(id).unwrap().get(attr);
                assert_eq!(col.interner().resolve(col.id_at(row)), original);
            }
        }
        // Duplicate cells share ids.
        let a = store.column(&inst, 0);
        assert_eq!(a.id_at(0), a.id_at(2));
        assert_eq!(a.distinct(), 3);
        let b = store.column(&inst, 1);
        assert_eq!(b.distinct(), 2);
    }

    #[test]
    fn row_index_skips_dead_slots() {
        let mut inst = instance();
        inst.remove(TupleId(1));
        let store = ColumnarStore::new(&inst);
        assert_eq!(store.len(), 3);
        assert_eq!(store.row_of(TupleId(0)), Some(0));
        assert_eq!(store.row_of(TupleId(1)), None);
        assert_eq!(store.row_of(TupleId(2)), Some(1));
        assert_eq!(store.row_of(TupleId(3)), Some(2));
        assert_eq!(store.row_of(TupleId(99)), None);
        assert_eq!(store.tuple_id(1), TupleId(2));
    }

    #[test]
    fn shards_cover_all_rows() {
        let inst = instance();
        let store = ColumnarStore::new(&inst);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_rows(0), 0..4);
        let covered: usize = (0..store.shard_count())
            .map(|s| store.shard_rows(s).len())
            .sum();
        assert_eq!(covered, store.len());
    }

    #[test]
    fn extended_snapshot_equals_fresh_build() {
        let mut inst = instance();
        let prev = inst.columnar();
        prev.column(&inst, 0); // built column gets extended eagerly
        for (a, b) in [(2, "z"), (1, "x"), (9, "w")] {
            inst.insert_values([Value::int(a), Value::str(b)]).unwrap();
        }
        assert_eq!(inst.delta_since(prev.version()), Some(Delta::default()));
        let extended = ColumnarStore::patched(&prev, &inst, &Delta::default());
        let fresh = ColumnarStore::new(&inst);
        assert_eq!(extended.version(), inst.version());
        assert_eq!(extended.rows(), fresh.rows());
        assert!(extended.built_column(0).is_some(), "built column extended");
        assert!(
            extended.built_column(1).is_none(),
            "unbuilt column stays lazy"
        );
        for attr in 0..2 {
            let e = extended.column(&inst, attr);
            let f = fresh.column(&inst, attr);
            for row in 0..extended.len() {
                assert_eq!(
                    e.interner().resolve(e.id_at(row)),
                    f.interner().resolve(f.id_at(row)),
                    "attr {attr} row {row}"
                );
            }
            // Shared prefixes receive identical ids (first-seen order).
            assert_eq!(e.ids(), f.ids(), "attr {attr}");
        }
    }

    #[test]
    fn extension_skips_dead_slots_from_before_the_snapshot() {
        let mut inst = instance();
        inst.remove(TupleId(3)); // trailing slot dead before the snapshot
        let prev = inst.columnar();
        prev.column(&inst, 1);
        inst.insert_values([Value::int(7), Value::str("q")])
            .unwrap();
        let extended = inst.columnar();
        assert_eq!(extended.len(), 4);
        assert_eq!(extended.row_of(TupleId(3)), None);
        assert_eq!(extended.row_of(TupleId(4)), Some(3));
        let fresh = ColumnarStore::new(&inst);
        assert_eq!(extended.rows(), fresh.rows());
        let col = extended.column(&inst, 1);
        assert_eq!(col.interner().resolve(col.id_at(3)), &Value::str("q"));
    }

    #[test]
    fn patched_snapshot_round_trips_like_a_fresh_build() {
        use crate::instance::CellRef;
        let mut inst = instance();
        let prev = inst.columnar();
        prev.column(&inst, 0);
        prev.column(&inst, 1);
        let v0 = inst.version();
        // Edit two cells (one to a brand-new value), append one tuple, and
        // edit the appended tuple too.
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("edited"))
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(2), 0), Value::int(42))
            .unwrap();
        inst.insert_values([Value::int(5), Value::str("n")])
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(4), 1), Value::str("m"))
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let patched = ColumnarStore::patched(&prev, &inst, &delta);
        assert_eq!(patched.version(), inst.version());
        let fresh = ColumnarStore::new(&inst);
        assert_eq!(patched.rows(), fresh.rows());
        for attr in 0..2 {
            assert!(patched.built_column(attr).is_some(), "built column patched");
            let p = patched.column(&inst, attr);
            for (row, &id) in patched.rows().iter().enumerate() {
                assert_eq!(
                    p.interner().resolve(p.id_at(row)),
                    inst.tuple(id).unwrap().get(attr),
                    "attr {attr} row {row}"
                );
            }
        }
        // Unchanged cells keep their previous ids (dictionaries only grow).
        let p = patched.column(&inst, 1);
        let old = prev.column(&inst, 1);
        assert_eq!(p.id_at(1), old.id_at(1));
    }

    #[test]
    fn removals_compact_the_patched_snapshot() {
        use crate::instance::CellRef;
        let mut inst = instance();
        inst.insert_values([Value::int(8), Value::str("v")])
            .unwrap();
        let prev = inst.columnar();
        prev.column(&inst, 0);
        prev.column(&inst, 1);
        // Remove the head and a middle row, edit a survivor, append a
        // tuple, and remove one appended inside the gap.
        inst.remove(TupleId(0));
        inst.update_cell(CellRef::new(TupleId(3), 1), Value::str("new"))
            .unwrap();
        inst.remove(TupleId(2));
        inst.insert_values([Value::int(6), Value::str("q")])
            .unwrap();
        inst.insert_values([Value::int(7), Value::str("r")])
            .unwrap();
        inst.remove(TupleId(5));
        let patched = inst.columnar();
        let fresh = ColumnarStore::new(&inst);
        assert_eq!(patched.rows(), fresh.rows());
        for id in 0..8 {
            assert_eq!(patched.row_of(TupleId(id)), fresh.row_of(TupleId(id)));
        }
        for attr in 0..2 {
            let p = patched.column(&inst, attr);
            assert_eq!(p.len(), inst.len());
            for (row, &id) in patched.rows().iter().enumerate() {
                assert_eq!(
                    p.interner().resolve(p.id_at(row)),
                    inst.tuple(id).unwrap().get(attr),
                    "attr {attr} row {row}"
                );
            }
        }
        // Dictionaries stay append-only across removals: the removed
        // tuples' values keep their ids.
        let old = prev.column(&inst, 1);
        let p = patched.column(&inst, 1);
        assert_eq!(
            p.interner().lookup(&Value::str("x")),
            old.interner().lookup(&Value::str("x"))
        );
        assert!(p.distinct() >= old.distinct());
    }

    #[test]
    fn untouched_columns_keep_their_arc() {
        use crate::instance::CellRef;
        let mut inst = instance();
        let prev = inst.columnar();
        prev.column(&inst, 0);
        prev.column(&inst, 1);
        inst.update_cell(CellRef::new(TupleId(1), 1), Value::str("edited"))
            .unwrap();
        let next = inst.columnar();
        assert!(Arc::ptr_eq(
            &prev.built_column(0).unwrap(),
            &next.built_column(0).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &prev.built_column(1).unwrap(),
            &next.built_column(1).unwrap()
        ));
    }

    #[test]
    fn instance_snapshot_cache_takes_the_patch_path() {
        use crate::instance::CellRef;
        let mut inst = instance();
        let prev = inst.columnar();
        prev.column(&inst, 1);
        inst.update_cell(CellRef::new(TupleId(1), 1), Value::str("patched"))
            .unwrap();
        let next = inst.columnar();
        assert!(
            next.built_column(1).is_some(),
            "cache served a patched snapshot, not a cold rebuild"
        );
        let col = next.column(&inst, 1);
        let row = next.row_of(TupleId(1)).unwrap();
        assert_eq!(
            col.interner().resolve(col.id_at(row)),
            &Value::str("patched")
        );
    }

    #[test]
    fn stats_reflect_built_columns() {
        let inst = instance();
        let store = ColumnarStore::new(&inst);
        assert_eq!(store.stats().built_columns, 0);
        assert!(store.built_column(0).is_none());
        store.column(&inst, 0);
        let stats = store.stats();
        assert_eq!(stats.built_columns, 1);
        assert_eq!(stats.distinct_values, 3);
        assert!(stats.heap_bytes > 0);
        assert!(store.built_column(0).is_some());
    }
}
