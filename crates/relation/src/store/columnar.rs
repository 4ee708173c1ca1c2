//! Interned, sharded columnar backing of a
//! [`RelationInstance`].
//!
//! A [`ColumnarStore`] is a read-only, version-tagged snapshot of an
//! instance: the live tuples in insertion order (`rows`), a constant-time
//! slot → row translation (`row_index`), and one lazily built
//! dictionary-encoded [`Column`] per attribute.  Columns hold one `u32`
//! [`ValueId`] per live tuple, plus the per-column [`ValueInterner`] that
//! issued the ids, so equality of cell values reduces to equality of ids
//! and multi-attribute keys pack into machine words (see
//! [`super::index::InternedIndex`]).  Owned ids, the rows and the row index
//! live in [`CHUNK_ROWS`]-sized, `Arc`-shared, copy-on-write chunks, so a
//! patched snapshot shares every chunk no write reached with its
//! predecessor.
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

use super::chunks::{ChunkWriter, Chunks, CHUNK_ROWS};
use super::interner::{InternerStats, ValueId, ValueInterner};
use super::mmap::MappedBytes;
use crate::instance::{Delta, RelationInstance, TupleId};
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of snapshot-family and column-lineage identities (see
/// [`ColumnarStore::descends_from`]).
static NEXT_FAMILY: AtomicU64 = AtomicU64::new(0);

fn fresh_family() -> u64 {
    NEXT_FAMILY.fetch_add(1, Ordering::Relaxed)
}

/// Number of rows per shard: large enough that per-shard hash maps amortize,
/// small enough that a million-tuple instance yields double-digit shards for
/// the thread pool.
pub const SHARD_ROWS: usize = 1 << 16;

/// Row position `row` as stored in the row index.
fn row_number(row: usize) -> u32 {
    u32::try_from(row).expect("instance larger than u32::MAX rows")
}

/// The runs of `0..len` between the `removed` positions (ascending): what
/// survives when those rows are dropped, as slices to copy.
fn kept_runs(removed: &[usize], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(removed.iter().map(|&r| r + 1));
    starts
        .zip(removed.iter().copied().chain([len]))
        .map(|(start, end)| start..end)
}

/// Backing storage of a column's ids: owned copy-on-write chunks for
/// columns built from an instance, or a view into memory-mapped segment
/// files for columns re-opened from a persisted relation (see
/// [`super::persist`]).  Mapped ids are paged in by the kernel on access and
/// can be evicted under pressure, so a mapped column's resident footprint
/// is bounded by its dictionary.
#[derive(Clone, Debug)]
enum Ids {
    /// Owned ids, in row order.
    Ram(Chunks<ValueId>),
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
        Ids::Ram(
            segments
                .iter()
                .flat_map(|s| {
                    s.bytes[s.offset..s.offset + s.count * size_of::<u32>()].chunks_exact(4)
                })
                .map(|c| ValueId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                .collect(),
        )
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
    /// Stamped fresh by every build or load and kept by
    /// [`patched`](Self::patched), so columns of one lineage were all
    /// patched from one build (see [`ColumnarStore::descends_from`]).
    lineage: u64,
}

impl Column {
    /// A column from already-encoded parts (cold column builds).  The
    /// dictionary is sealed, so patched copies share it.
    fn from_parts(mut interner: ValueInterner, ids: Chunks<ValueId>) -> Column {
        interner.seal();
        Column {
            interner,
            ids: Ids::Ram(ids),
            lineage: fresh_family(),
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
            lineage: fresh_family(),
        }
    }

    /// The id of the cell in row `row` (row positions come from
    /// [`ColumnarStore::row_of`] / [`ColumnarStore::rows`]).
    #[inline]
    pub fn id_at(&self, row: usize) -> ValueId {
        match &self.ids {
            Ids::Ram(chunks) => chunks.get(row),
            Ids::Mapped { segments, bounds } => {
                let seg = bounds.partition_point(|&b| b <= row) - 1;
                segments[seg].as_slice()[row - bounds[seg]]
            }
        }
    }

    /// The ids of rows `range`, as one slice per backing chunk or segment
    /// it overlaps (in row order): [`CHUNK_ROWS`]-sized chunks for owned
    /// ids, persisted shards for mapped ones.  This is the shard-cursor
    /// access path: each slice stays inside one mapped segment, so scans
    /// touch one shard's pages at a time.
    pub fn shard_ids(&self, range: Range<usize>) -> Vec<&[ValueId]> {
        match &self.ids {
            Ids::Ram(chunks) => chunks.slices(range).collect(),
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
    /// pages, not heap, and count as zero.  Chunks shared with other
    /// snapshots count in full here.
    pub fn approx_heap_bytes(&self) -> usize {
        let id_bytes = match &self.ids {
            Ids::Ram(chunks) => chunks.heap_bytes(),
            Ids::Mapped { .. } => 0,
        };
        id_bytes + self.interner.approx_heap_bytes()
    }

    /// Id chunk `chunk` of an owned column (rows `chunk * CHUNK_ROWS ..`;
    /// the last chunk is padded past the column's length with copies of its
    /// last id), `None` for a mapped one.  A patched column holds every
    /// chunk no write reached as the same `Arc` as the column it was
    /// patched from.
    pub fn id_chunk(&self, chunk: usize) -> Option<&Arc<[ValueId; CHUNK_ROWS]>> {
        match &self.ids {
            Ids::Ram(chunks) => Some(chunks.chunk(chunk)),
            Ids::Mapped { .. } => None,
        }
    }

    /// A copy of this column with the rows `removed` (ascending) dropped
    /// and `new_rows` appended: the dictionary is cloned — its shared
    /// prefix by reference, only its short tail by value — every id chunk
    /// before the first removed row (before the last, partial chunk when
    /// nothing was removed) is shared by `Arc`, only the ids after it are
    /// copied, and only the appended cells are interned.  Ids of values
    /// already in the dictionary are unchanged, so structures keyed on them
    /// stay valid.  A mapped column's ids are copied into owned chunks.
    fn patched(
        &self,
        instance: &RelationInstance,
        attr: usize,
        removed: &[usize],
        new_rows: &[TupleId],
    ) -> Column {
        let mut interner = self.interner.clone();
        let first_removed = removed.first().copied().unwrap_or(self.len());
        // Nothing of a mapped column is shared: its kept runs are all copied.
        let (mut ids, copy_from) = match &self.ids {
            Ids::Ram(chunks) => (chunks.prefix(first_removed), first_removed),
            Ids::Mapped { .. } => (ChunkWriter::new(), 0),
        };
        for run in kept_runs(removed, self.len()) {
            for part in self.shard_ids(run.start.max(copy_from)..run.end) {
                ids.extend_from_slice(part);
            }
        }
        for &id in new_rows {
            let tuple = instance.tuple(id).expect("appended row is live");
            ids.push(interner.intern(tuple.get(attr)));
        }
        Column {
            interner,
            ids: Ids::Ram(ids.finish()),
            lineage: self.lineage,
        }
    }
}

/// Aggregate counters of a [`ColumnarStore`]: dqbench reports them as its
/// `relation.store` layer's distinct values and heap bytes.
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
    /// The snapshot family: stamped fresh by [`new`](Self::new) and by
    /// [`retagged`](Self::retagged), kept by [`patched`](Self::patched).
    family: u64,
    /// The `(family, version)` fork points this family was re-tagged from,
    /// oldest first (see [`descends_from`](Self::descends_from)).
    forks: Vec<(u64, u64)>,
    rows: Chunks<TupleId>,
    /// Slot → row position; `u32::MAX` marks dead slots.
    row_index: Chunks<u32>,
    columns: Vec<OnceLock<Arc<Column>>>,
}

impl ColumnarStore {
    /// Snapshots the live rows of `instance`.  Columns are built lazily on
    /// first access through [`column`](Self::column).
    pub fn new(instance: &RelationInstance) -> Self {
        dq_obs::time("store.snapshot_ns", || {
            let mut rows = ChunkWriter::new();
            let mut row_index = ChunkWriter::new();
            let mut next_slot = 0;
            for (id, _) in instance.iter() {
                for _ in next_slot..id.0 {
                    row_index.push(u32::MAX);
                }
                next_slot = id.0 + 1;
                row_index.push(row_number(rows.len()));
                rows.push(id);
            }
            ColumnarStore {
                instance_id: instance.instance_id(),
                version: instance.version(),
                family: fresh_family(),
                forks: Vec::new(),
                rows: rows.finish(),
                row_index: row_index.finish(),
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
    /// empty delta.  The rows, the row index and every patched column's
    /// ids share each [`CHUNK_ROWS`]-sized chunk before the first removed
    /// row (before the last, partial chunk when nothing was removed) with
    /// `prev` by `Arc`, and a changed cell copies its chunk on write, so a
    /// patch copies the chunks its writes reached, not the relation
    /// (counted in `store.patch.chunks_copied` / `store.patch.chunks_shared`).
    /// A built column with no changed cell, no appended row and no removed
    /// row is shared with `prev` as the same `Arc`; the others clone their
    /// dictionary, which shares its prefix with `prev`'s and copies only
    /// the short tail (see [`ValueInterner`]).  Columns `prev` never built
    /// stay lazy.  Dictionaries are append-only, so every surviving cell
    /// keeps its id and structures keyed on old ids stay valid; a patched
    /// dictionary may carry values no live cell holds any more, which costs
    /// a little memory but never correctness.
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
        let first_moved = removed.first().copied().unwrap_or(prev.len());
        let mut rows = prev.rows.prefix(first_moved);
        for run in kept_runs(&removed, prev.len()).skip(1) {
            for part in prev.rows.slices(run) {
                rows.extend_from_slice(part);
            }
        }
        // Slots never revive, so every live tuple in a slot beyond the old
        // row index is an appended one.
        let first_new_slot = prev.row_index.len();
        let mut new_rows = Vec::new();
        for (id, _) in instance.iter_from(first_new_slot) {
            rows.push(id);
            new_rows.push(id);
        }
        let rows = rows.finish();
        // Rows keep slot order, so the row index changes only from the
        // first removed row's slot on: share it up to there, then index the
        // rows from the first moved one.
        let mut next_slot = match removed.first() {
            Some(&row) => prev.rows.get(row).0,
            None => first_new_slot,
        };
        let mut row_index = prev.row_index.prefix(next_slot);
        for (row, id) in rows.slices(first_moved..rows.len()).flatten().enumerate() {
            for _ in next_slot..id.0 {
                row_index.push(u32::MAX);
            }
            next_slot = id.0 + 1;
            row_index.push(row_number(first_moved + row));
        }
        let row_index = row_index.finish();
        let mut shared = rows.shared_with(&prev.rows) + row_index.shared_with(&prev.row_index);
        let mut total = rows.chunk_count() + row_index.chunk_count();
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
                        let row = row_index.get(change.cell.tuple.0);
                        ids.set(row as usize, patched.interner.intern(&change.new));
                    }
                    if let Ids::Ram(old) = &col.ids {
                        shared += ids.shared_with(old);
                    }
                    total += ids.chunk_count();
                    lock.set(Arc::new(patched))
                        .expect("freshly created lock is empty");
                }
                lock
            })
            .collect();
        dq_obs::add("store.patch.chunks_shared", shared as u64);
        dq_obs::add("store.patch.chunks_copied", (total - shared) as u64);
        ColumnarStore {
            instance_id: prev.instance_id,
            version: instance.version(),
            family: prev.family,
            forks: prev.forks.clone(),
            rows,
            row_index,
            columns,
        }
    }

    /// This snapshot handed to a clone of its instance: the same rows, and
    /// the built columns shared by `Arc`, tagged with the clone's identity
    /// at version 0.  Columns not built yet stay lazy: a clone that builds
    /// one itself gets the same ids but a lineage of its own, and
    /// [`adopt_columns`](Self::adopt_columns) shares one the original built
    /// later.  The copy starts a family of its own that records this
    /// snapshot as its fork point, so the clone's later snapshots descend
    /// from this one but never from the original instance's later
    /// snapshots, whose dictionaries grow apart.
    pub(crate) fn retagged(&self, instance_id: u64) -> ColumnarStore {
        let mut forks = self.forks.clone();
        forks.push((self.family, self.version));
        let columns = self
            .columns
            .iter()
            .map(|slot| {
                let lock = OnceLock::new();
                if let Some(col) = slot.get() {
                    lock.set(Arc::clone(col))
                        .expect("freshly created lock is empty");
                }
                lock
            })
            .collect();
        ColumnarStore {
            instance_id,
            version: 0,
            family: fresh_family(),
            forks,
            rows: self.rows.clone(),
            row_index: self.row_index.clone(),
            columns,
        }
    }

    /// True when this snapshot descends from `prev` through patches and
    /// re-tags, and so does each column of `attrs`.  The snapshot must be
    /// `prev` or a later snapshot of the same family, or of a family
    /// re-tagged (possibly over several clone generations) from `prev` or a
    /// later snapshot of `prev`'s family; a family is the chain one
    /// instance's [`RelationInstance::columnar`] cache patches forward from
    /// one cold build, so its versions order it.  Each column of `attrs`
    /// must be built on both sides and of one lineage, that is patched from
    /// `prev`'s: columns are built lazily, so a column `prev` built after a
    /// clone was re-tagged from it, or one a clone built itself after
    /// writing, numbers its values on its own.  Every id of `prev`'s
    /// columns of `attrs` then means the same value here, which is what the
    /// patch paths of the pooled artifacts rely on.
    pub fn descends_from(&self, prev: &ColumnarStore, attrs: &[usize]) -> bool {
        let after = |family: u64, version: u64| family == prev.family && prev.version <= version;
        (after(self.family, self.version) || self.forks.iter().any(|&(f, v)| after(f, v)))
            && attrs.iter().all(|&attr| {
                matches!(
                    (self.columns[attr].get(), prev.columns[attr].get()),
                    (Some(col), Some(old)) if col.lineage == old.lineage
                )
            })
    }

    /// Shares `source`'s built columns of `attrs` that this snapshot has
    /// not built, when this snapshot holds `source`'s rows: it is an
    /// unpatched re-tag of `source` (possibly over several clone
    /// generations, none written).  Such a column then carries `source`'s
    /// lineage, so artifacts built over `source` serve this snapshot's
    /// instance and patch forward into its later snapshots.
    pub(crate) fn adopt_columns(&self, source: &ColumnarStore, attrs: &[usize]) {
        let same_rows = self.version == 0
            && self
                .forks
                .iter()
                .rposition(|&fork| fork == (source.family, source.version))
                .is_some_and(|i| self.forks[i + 1..].iter().all(|&(_, v)| v == 0));
        if !same_rows {
            return;
        }
        for &attr in attrs {
            if let Some(col) = source.columns[attr].get() {
                // A column built meanwhile keeps its own lineage.
                let _ = self.columns[attr].set(Arc::clone(col));
            }
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
    pub fn appended_since(&self, prev: &ColumnarStore) -> Vec<TupleId> {
        let first = self.rows.partition_point(|id| id.0 < prev.row_index.len());
        self.rows
            .slices(first..self.len())
            .flatten()
            .copied()
            .collect()
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
    pub fn rows(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.rows.iter()
    }

    /// Chunk `chunk` of the row list (rows `chunk * CHUNK_ROWS ..`; the
    /// last chunk is padded past [`len`](Self::len) with copies of its last
    /// tuple id).  A patched snapshot holds every chunk no write reached as
    /// the same `Arc` as the snapshot it was patched from.
    pub fn row_chunk(&self, chunk: usize) -> &Arc<[TupleId; CHUNK_ROWS]> {
        self.rows.chunk(chunk)
    }

    /// Chunk `chunk` of the slot → row index (slots `chunk * CHUNK_ROWS
    /// ..`; `u32::MAX` marks a dead slot), padded and shared like
    /// [`row_chunk`](Self::row_chunk).
    pub fn slot_chunk(&self, chunk: usize) -> &Arc<[u32; CHUNK_ROWS]> {
        self.row_index.chunk(chunk)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The tuple id stored in row `row`.
    #[inline]
    pub fn tuple_id(&self, row: usize) -> TupleId {
        self.rows.get(row)
    }

    /// The row position of a tuple id, if the tuple was live at snapshot
    /// time.
    #[inline]
    pub fn row_of(&self, id: TupleId) -> Option<usize> {
        match self.row_index.try_get(id.0) {
            Some(row) if row != u32::MAX => Some(row as usize),
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
    /// the same version, or a clone of it (or of such a clone) taken at that
    /// version and not written since ([`RelationInstance::origins`]) —
    /// mutations invalidate
    /// the snapshot, and [`RelationInstance::columnar`] hands out a fresh
    /// store per version.
    pub fn column(&self, instance: &RelationInstance, attr: usize) -> Arc<Column> {
        Arc::clone(self.columns[attr].get_or_init(|| {
            let _t = dq_obs::timer("store.column_build_ns");
            assert!(
                instance.holds_state_of(self.instance_id, self.version),
                "columnar snapshot is stale for this instance"
            );
            let mut interner = ValueInterner::new();
            let mut ids = ChunkWriter::new();
            for id in self.rows.iter() {
                let tuple = instance.tuple(id).expect("snapshot row is live");
                ids.push(interner.intern(tuple.get(attr)));
            }
            let column = Arc::new(Column::from_parts(interner, ids.finish()));
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
            for (row, id) in store.rows().enumerate() {
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
        assert_eq!(
            extended.rows().collect::<Vec<_>>(),
            fresh.rows().collect::<Vec<_>>()
        );
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
            let ids = |c: &Column| (0..c.len()).map(|row| c.id_at(row)).collect::<Vec<_>>();
            assert_eq!(ids(&e), ids(&f), "attr {attr}");
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
        assert_eq!(
            extended.rows().collect::<Vec<_>>(),
            fresh.rows().collect::<Vec<_>>()
        );
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
        assert_eq!(
            patched.rows().collect::<Vec<_>>(),
            fresh.rows().collect::<Vec<_>>()
        );
        for attr in 0..2 {
            assert!(patched.built_column(attr).is_some(), "built column patched");
            let p = patched.column(&inst, attr);
            for (row, id) in patched.rows().enumerate() {
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
        assert_eq!(
            patched.rows().collect::<Vec<_>>(),
            fresh.rows().collect::<Vec<_>>()
        );
        for id in 0..8 {
            assert_eq!(patched.row_of(TupleId(id)), fresh.row_of(TupleId(id)));
        }
        for attr in 0..2 {
            let p = patched.column(&inst, attr);
            assert_eq!(p.len(), inst.len());
            for (row, id) in patched.rows().enumerate() {
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

    /// An instance of `n` rows over two columns, with both columns of its
    /// snapshot built.
    fn wide(n: usize) -> (RelationInstance, Arc<ColumnarStore>) {
        let schema = RelationSchema::new("r", [("A", Domain::Int), ("B", Domain::Text)]);
        let mut inst = RelationInstance::from_schema(schema);
        for i in 0..n {
            inst.insert_values([Value::int(i as i64 % 7), Value::str(format!("s{}", i % 5))])
                .unwrap();
        }
        let store = inst.columnar();
        store.column(&inst, 0);
        store.column(&inst, 1);
        (inst, store)
    }

    /// Every row, slot and cell of `store` answers like a fresh build.
    fn assert_fresh(store: &ColumnarStore, inst: &RelationInstance) {
        let fresh = ColumnarStore::new(inst);
        assert!(store.rows().eq(fresh.rows()));
        for slot in 0..inst.ids().last().map_or(0, |id| id.0 + 2) {
            assert_eq!(store.row_of(TupleId(slot)), fresh.row_of(TupleId(slot)));
        }
        for attr in 0..2 {
            let col = store.column(inst, attr);
            for (row, id) in store.rows().enumerate() {
                assert_eq!(
                    col.interner().resolve(col.id_at(row)),
                    inst.tuple(id).unwrap().get(attr),
                    "attr {attr} row {row}"
                );
            }
        }
    }

    #[test]
    fn append_only_patch_shares_every_full_chunk_and_copies_the_tail() {
        let (mut inst, prev) = wide(2 * CHUNK_ROWS + 3);
        for i in 0..5 {
            inst.insert_values([Value::int(100 + i), Value::str("new")])
                .unwrap();
        }
        let next = inst.columnar();
        assert_fresh(&next, &inst);
        for c in 0..2 {
            assert!(Arc::ptr_eq(next.row_chunk(c), prev.row_chunk(c)));
            assert!(Arc::ptr_eq(next.slot_chunk(c), prev.slot_chunk(c)));
            for attr in 0..2 {
                let (n, p) = (next.column(&inst, attr), prev.column(&inst, attr));
                assert!(Arc::ptr_eq(n.id_chunk(c).unwrap(), p.id_chunk(c).unwrap()));
            }
        }
        // The partial tail chunk was copied and extended; the held
        // snapshot still ends where it did.
        assert!(!Arc::ptr_eq(next.row_chunk(2), prev.row_chunk(2)));
        assert_eq!(prev.row_chunk(2)[..3], next.row_chunk(2)[..3]);
        assert_eq!(
            (prev.len(), next.len()),
            (2 * CHUNK_ROWS + 3, 2 * CHUNK_ROWS + 8)
        );
        // An append that lands on a chunk boundary shares every chunk.
        let (mut inst, prev) = wide(2 * CHUNK_ROWS);
        inst.insert_values([Value::int(1), Value::str("x")])
            .unwrap();
        let next = inst.columnar();
        assert_fresh(&next, &inst);
        assert!(Arc::ptr_eq(next.row_chunk(1), prev.row_chunk(1)));
        assert_eq!(next.row_chunk(2)[0], TupleId(2 * CHUNK_ROWS));
    }

    #[test]
    fn removal_inside_the_first_chunk_rebuilds_from_there() {
        use crate::instance::CellRef;
        let (mut inst, prev) = wide(2 * CHUNK_ROWS + 3);
        inst.remove(TupleId(5));
        let next = inst.columnar();
        assert_fresh(&next, &inst);
        assert_eq!(next.len(), prev.len() - 1);
        assert_eq!(next.row_of(TupleId(5)), None);
        assert_eq!(next.row_of(TupleId(6)), Some(5));
        // Every row after the removed one moved, so no chunk is shared.
        for c in 0..3 {
            assert!(!Arc::ptr_eq(next.row_chunk(c), prev.row_chunk(c)));
            let (n, p) = (next.column(&inst, 0), prev.column(&inst, 0));
            assert!(!Arc::ptr_eq(n.id_chunk(c).unwrap(), p.id_chunk(c).unwrap()));
        }
        // The held snapshot is untouched.
        assert_eq!(prev.row_of(TupleId(5)), Some(5));
        assert_eq!(prev.tuple_id(5), TupleId(5));
        // The compacted snapshot patches forward like any other: an edit in
        // its last chunk shares the two before it.
        inst.update_cell(
            CellRef::new(TupleId(2 * CHUNK_ROWS + 1), 1),
            Value::str("e"),
        )
        .unwrap();
        let edited = inst.columnar();
        assert_fresh(&edited, &inst);
        let (e, n) = (edited.column(&inst, 1), next.column(&inst, 1));
        for c in 0..2 {
            assert!(Arc::ptr_eq(e.id_chunk(c).unwrap(), n.id_chunk(c).unwrap()));
        }
        assert!(!Arc::ptr_eq(e.id_chunk(2).unwrap(), n.id_chunk(2).unwrap()));
        assert!(Arc::ptr_eq(
            &edited.column(&inst, 0),
            &next.column(&inst, 0)
        ));
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
