//! Compact hash indexes over interned columns.
//!
//! [`InternedIndex`] replaces the `HashMap<Vec<Value>, Vec<TupleId>>` of
//! [`HashIndex`](crate::reference::HashIndex) with machine-word keys and a CSR
//! (offsets + postings) group layout:
//!
//! * **keys** — a tuple's projection onto the index attributes is a vector
//!   of per-column [`ValueId`]s; because dictionaries are dense, the whole
//!   projection packs *exactly* (no lossy hashing) into a single `u64` by
//!   mixed-radix encoding whenever the product of the column dictionary
//!   sizes fits, into a `u128` by 32-bit shifts for up to four attributes
//!   otherwise, and into a boxed id slice only for very wide keys;
//! * **groups** — instead of one heap `Vec<TupleId>` per distinct key, all
//!   row numbers live in a single postings array indexed by a group offset
//!   table, eliminating per-group allocations;
//! * **sharding** — rows are processed in the fixed-size shards of the
//!   backing [`ColumnarStore`], so one index build parallelizes across a
//!   thread pool and a single huge dependency no longer serializes.
//!
//! Equality of ids is equality of values (per column), so the groups are
//! *identical* to the value-keyed index's groups — detection reports stay
//! byte-identical — while a million-tuple index shrinks from `Vec<Value>`
//! keys (~100s of MB) to a few tens of bytes per distinct key.

use super::columnar::{walk_runs, Column, ColumnarStore, SHARD_ROWS};
use super::fx::FxHashMap;
use super::interner::ValueId;
use crate::instance::{Delta, RelationInstance, TupleId};
use crate::par::parallel_map;
use crate::value::Value;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Arc;

/// A packed projection of one row onto an attribute list; used by detectors
/// to sub-partition groups (e.g. by RHS projection) without materializing
/// values.  Produced by [`KeyCodec::pack_row`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProjectionKey {
    /// Mixed-radix exact packing into one word.
    U64(u64),
    /// 32-bit-per-attribute shift packing (up to four attributes).
    U128(u128),
    /// One id per attribute, for very wide projections.
    Wide(Box<[ValueId]>),
}

/// How a key over a fixed column list is packed.
#[derive(Clone, Debug)]
pub(crate) enum Repr {
    /// Mixed-radix into `u64`: radix `i` is at least the dictionary size of
    /// column `i` (see [`radix_for`]), so the packing is exact on id tuples.
    Radix(Vec<u64>),
    /// 32 bits per id in a `u128` (width ≤ 4).
    Shift,
    /// Boxed id slice.
    Wide,
}

/// How a patch adapts a mixed-radix `u64` packing whose per-column radices
/// new dictionary entries outgrew.  Computed by [`widen_plan`]; `Keep`
/// means the existing packing is still exact.
pub(crate) enum WidenPlan {
    /// No key column's dictionary outgrew its radix: reuse the packing.
    Keep,
    /// Re-pack the existing `u64` keys under the widened radices (the new
    /// product still fits in 64 bits).
    Widen(Vec<u64>),
    /// The widened product overflows `u64`: switch the index to the
    /// radix-free 32-bit shift packing (width ≤ 4 only).
    ToShift,
}

/// Decides how (whether) a patch can reuse `prev_repr` over the current
/// `columns`, whose dictionaries may have grown since the packing was chosen.
/// Returns `None` when no exact packing can be carried over (a > 4-wide
/// radix key whose widened product overflows `u64`) and the caller must fall
/// back to a full rebuild.  The chosen plan always reproduces the repr a
/// from-scratch [`KeyCodec::new`] would pick, so patched artifacts stay
/// indistinguishable from fresh builds.
pub(crate) fn widen_plan(prev_repr: &Repr, columns: &[Arc<Column>]) -> Option<WidenPlan> {
    let Repr::Radix(radices) = prev_repr else {
        // Shift and wide packings are radix-free and always extendable.
        return Some(WidenPlan::Keep);
    };
    if columns
        .iter()
        .zip(radices)
        .all(|(col, &radix)| col.distinct() as u64 <= radix)
    {
        return Some(WidenPlan::Keep);
    }
    let widened: Vec<u64> = columns.iter().map(|c| radix_for(c)).collect();
    let mut product = 1u64;
    let fits = widened
        .iter()
        .all(|&radix| product.checked_mul(radix).map(|p| product = p).is_some());
    if fits {
        Some(WidenPlan::Widen(widened))
    } else if columns.len() <= 4 {
        Some(WidenPlan::ToShift)
    } else {
        None
    }
}

/// The mixed-radix packing's radix for `col`: its dictionary size rounded
/// up to a power of two, so a growing dictionary re-packs only when it
/// doubles.  [`KeyCodec::new`] and [`widen_plan`] both choose it, so a
/// patched codec stays equal to a fresh one.
fn radix_for(col: &Column) -> u64 {
    (col.distinct().max(1) as u64).next_power_of_two()
}

/// Carries `prev_keys`, packed by `prev`, over to `columns` — the same key
/// attributes in a later snapshot whose dictionaries may have grown — along
/// the [`widen_plan`]: kept as they are (moved, not copied), re-packed under
/// the widened radices, or transcoded into the shift packing.  Returns the
/// carried keys with the codec that packs them, or `None` when no exact
/// packing carries over (full rebuild).  Old ids stay valid in patched
/// dictionaries, so every carried key still names the same value tuple.
pub(crate) fn rekey<V: Copy>(
    prev: &KeyCodec,
    prev_keys: KeyMap<V>,
    columns: Vec<Arc<Column>>,
) -> Option<(KeyMap<V>, KeyCodec)> {
    let plan = widen_plan(&prev.repr, &columns)?;
    if !matches!(plan, WidenPlan::Keep) {
        dq_obs::inc("index.patch.repacks");
    }
    let (keys, repr) = match (plan, &prev.repr, prev_keys) {
        (WidenPlan::Keep, repr, keys) => (keys, repr.clone()),
        (WidenPlan::Widen(widened), Repr::Radix(old), KeyMap::U64(m)) => {
            let repacked = m
                .into_iter()
                .map(|(k, v)| {
                    let ids = KeyCodec::unpack_u64(old, k);
                    (KeyCodec::pack_u64_ids(&widened, &ids), v)
                })
                .collect();
            (KeyMap::U64(repacked), Repr::Radix(widened))
        }
        (WidenPlan::ToShift, Repr::Radix(old), KeyMap::U64(m)) => {
            let shifted = m
                .into_iter()
                .map(|(k, v)| (KeyCodec::pack_u128_ids(&KeyCodec::unpack_u64(old, k)), v))
                .collect();
            (KeyMap::U128(shifted), Repr::Shift)
        }
        _ => unreachable!("widening plans only arise from radix packings over u64 keys"),
    };
    Some((keys, KeyCodec { columns, repr }))
}

/// How the rows of an older snapshot `prev` fare in a snapshot patched
/// from it over `delta`, as seen by an artifact keyed on `attrs`.
pub(crate) struct RowMoves {
    /// Rows of `prev` whose cells on `attrs` changed — ascending,
    /// deduplicated.  Changes list live tuples only, so these rows survive
    /// (see [`renumber`](Self::renumber)); changes to tuples appended after
    /// `prev` have no row here and are keyed with the appended rows.
    pub(crate) moved: Vec<usize>,
    /// Rows of `prev` whose tuples were removed, ascending.
    pub(crate) removed: Vec<usize>,
}

impl RowMoves {
    pub(crate) fn new(attrs: &[usize], prev: &ColumnarStore, delta: &Delta) -> Self {
        let mut moved: Vec<usize> = delta
            .changes
            .iter()
            .filter(|c| attrs.contains(&c.cell.attr))
            .filter_map(|c| prev.row_of(c.cell.tuple))
            .collect();
        moved.sort_unstable();
        moved.dedup();
        RowMoves {
            moved,
            removed: prev.removed_rows(delta),
        }
    }

    /// The number surviving row `row` of `prev` has now: rows compact over
    /// the removed ones and keep their order.
    #[inline]
    pub(crate) fn renumber(&self, row: usize) -> usize {
        row - self.removed.partition_point(|&r| r < row)
    }
}

/// Packs row projections over a fixed list of columns into compact keys.
///
/// The packing is exact (collision-free): equal keys mean equal id tuples,
/// which per-column dictionaries guarantee means equal value tuples.
#[derive(Clone, Debug)]
pub struct KeyCodec {
    columns: Vec<Arc<Column>>,
    pub(crate) repr: Repr,
}

impl KeyCodec {
    /// A codec over `columns` (the dictionaries are frozen once a column is
    /// built, so the chosen radices stay valid for the store's lifetime).
    pub fn new(columns: Vec<Arc<Column>>) -> Self {
        let mut product: u64 = 1;
        let mut radix_fits = true;
        let mut radices = Vec::with_capacity(columns.len());
        for col in &columns {
            let radix = radix_for(col);
            radices.push(radix);
            match product.checked_mul(radix) {
                Some(p) => product = p,
                None => {
                    radix_fits = false;
                    break;
                }
            }
        }
        let repr = if radix_fits {
            Repr::Radix(radices)
        } else if columns.len() <= 4 {
            Repr::Shift
        } else {
            Repr::Wide
        };
        KeyCodec { columns, repr }
    }

    /// The columns this codec packs over.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    #[inline]
    pub(crate) fn pack_u64_row(radices: &[u64], columns: &[Arc<Column>], row: usize) -> u64 {
        columns.iter().zip(radices).fold(0, |acc, (col, &radix)| {
            radix_step(acc, radix, col.id_at(row))
        })
    }

    #[inline]
    pub(crate) fn pack_u128_row(columns: &[Arc<Column>], row: usize) -> u128 {
        columns
            .iter()
            .fold(0, |acc, col| shift_step(acc, col.id_at(row)))
    }

    #[inline]
    pub(crate) fn pack_wide_row(columns: &[Arc<Column>], row: usize) -> Box<[ValueId]> {
        columns.iter().map(|c| c.id_at(row)).collect()
    }

    pub(crate) fn pack_u64_ids(radices: &[u64], ids: &[ValueId]) -> u64 {
        ids.iter()
            .zip(radices)
            .fold(0, |acc, (&id, &radix)| radix_step(acc, radix, id))
    }

    pub(crate) fn pack_u128_ids(ids: &[ValueId]) -> u128 {
        ids.iter().fold(0, |acc, &id| shift_step(acc, id))
    }

    pub(crate) fn unpack_u64_into(radices: &[u64], mut key: u64, out: &mut [ValueId]) {
        for (slot, &radix) in out.iter_mut().zip(radices).rev() {
            *slot = ValueId((key % radix) as u32);
            key /= radix;
        }
    }

    pub(crate) fn unpack_u64(radices: &[u64], key: u64) -> Vec<ValueId> {
        let mut out = vec![ValueId(0); radices.len()];
        Self::unpack_u64_into(radices, key, &mut out);
        out
    }

    pub(crate) fn unpack_u128_into(mut key: u128, out: &mut [ValueId]) {
        for slot in out.iter_mut().rev() {
            *slot = ValueId((key & u32::MAX as u128) as u32);
            key >>= 32;
        }
    }

    pub(crate) fn unpack_u128(width: usize, key: u128) -> Vec<ValueId> {
        let mut out = vec![ValueId(0); width];
        Self::unpack_u128_into(key, &mut out);
        out
    }

    /// The packed projection of row `row`.
    #[inline]
    pub fn pack_row(&self, row: usize) -> ProjectionKey {
        match &self.repr {
            Repr::Radix(radices) => {
                ProjectionKey::U64(Self::pack_u64_row(radices, &self.columns, row))
            }
            Repr::Shift => ProjectionKey::U128(Self::pack_u128_row(&self.columns, row)),
            Repr::Wide => ProjectionKey::Wide(Self::pack_wide_row(&self.columns, row)),
        }
    }
}

/// One step of the mixed-radix `u64` packing: the key so far shifted by the
/// next column's radix, plus that column's id.  Every `u64` packer — the
/// row, id-list and run forms — folds with it, so their keys agree.
#[inline]
fn radix_step(acc: u64, radix: u64, id: ValueId) -> u64 {
    acc * radix + id.0 as u64
}

/// One step of the `u128` shift packing, 32 bits per column; shared by
/// every `u128` packer like [`radix_step`].
#[inline]
fn shift_step(acc: u128, id: ValueId) -> u128 {
    (acc << 32) | id.0 as u128
}

/// A packed key type that run-at-a-time scans write: the keys of one
/// lockstep run of id slices (see `walk_runs`) are packed into a reused
/// buffer, column at a time for the word packings.  The packing steps are
/// the row packers' ([`radix_step`], [`shift_step`]), so a run's keys equal
/// [`KeyCodec::pack_row`]'s for the same rows.
pub(crate) trait RunKey: Eq + Hash + Clone + Send {
    /// Replaces `out` with the `len` keys of the run `ids` (one slice per
    /// key column); `radices` are the mixed-radix packing's, read by `u64`
    /// keys only.
    fn pack_run(radices: &[u64], ids: &[&[ValueId]], len: usize, out: &mut Vec<Self>);
}

impl RunKey for u64 {
    #[inline]
    fn pack_run(radices: &[u64], ids: &[&[ValueId]], len: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(len, 0);
        for (col, &radix) in ids.iter().zip(radices) {
            for (key, &id) in out.iter_mut().zip(*col) {
                *key = radix_step(*key, radix, id);
            }
        }
    }
}

impl RunKey for u128 {
    #[inline]
    fn pack_run(_: &[u64], ids: &[&[ValueId]], len: usize, out: &mut Vec<u128>) {
        out.clear();
        out.resize(len, 0);
        for col in ids {
            for (key, &id) in out.iter_mut().zip(*col) {
                *key = shift_step(*key, id);
            }
        }
    }
}

impl RunKey for Box<[ValueId]> {
    fn pack_run(_: &[u64], ids: &[&[ValueId]], len: usize, out: &mut Vec<Box<[ValueId]>>) {
        out.clear();
        out.extend((0..len).map(|i| ids.iter().map(|col| col[i]).collect()));
    }
}

/// Packed keys with a payload each, monomorphized per key packing so entries
/// stay as small as the packing allows: the group map of an
/// [`InternedIndex`] (payload: group number) and the key set of a
/// [`DistinctSet`](super::distinct::DistinctSet) (payload: row count).
#[derive(Clone, Debug)]
pub(crate) enum KeyMap<V> {
    U64(FxHashMap<u64, V>),
    U128(FxHashMap<u128, V>),
    Wide(FxHashMap<Box<[ValueId]>, V>),
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap::U64(FxHashMap::default())
    }
}

impl<V> KeyMap<V> {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        match self {
            KeyMap::U64(m) => m.len(),
            KeyMap::U128(m) => m.len(),
            KeyMap::Wide(m) => m.len(),
        }
    }
}

/// The parts a patch rewrites, taken out of the predecessor `prev` when the
/// caller hands over the only reference (the pool removes a predecessor
/// from its cache before upgrading it), and cloned from it otherwise —
/// counted in `index.patch.shared`, since the clone is O(keys).
pub(crate) fn take_or_clone<A, T>(
    prev: &mut Arc<A>,
    take: impl FnOnce(&mut A) -> T,
    clone: impl FnOnce(&A) -> T,
) -> T {
    match Arc::get_mut(prev) {
        Some(owned) => take(owned),
        None => {
            dq_obs::inc("index.patch.shared");
            clone(prev)
        }
    }
}

/// A hash index over interned columns: packed keys, CSR group storage.
///
/// Group postings are *row numbers* of the backing [`ColumnarStore`] (dense
/// positions, not tuple ids); translate with [`InternedIndex::tuple_id`].
/// Rows ascend within each group, matching the ascending-`TupleId` group
/// order of [`HashIndex`](crate::reference::HashIndex).
#[derive(Clone, Debug)]
pub struct InternedIndex {
    attrs: Vec<usize>,
    store: Arc<ColumnarStore>,
    codec: KeyCodec,
    map: KeyMap<u32>,
    /// Group → start of its postings; `offsets.len() == groups + 1`.  A
    /// patch leaves the groups it vacates as empty runs (tombstones) whose
    /// keys stay in `map`, so a returning key revives its group.
    offsets: Vec<u32>,
    /// Row numbers, grouped and ascending within each group.
    postings: Vec<u32>,
    /// Non-empty groups: every group of a fresh build, the groups less the
    /// tombstones of a patched one.
    live_groups: usize,
}

impl InternedIndex {
    /// Builds the index of `instance` on `attrs` over the columnar snapshot
    /// `store`, using up to `threads` worker threads for the shard scan.
    pub fn build(
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        attrs: &[usize],
        threads: usize,
    ) -> Self {
        Self::build_with_shard_rows(instance, store, attrs, threads, SHARD_ROWS)
    }

    /// [`build`](Self::build) with an explicit shard size (exposed for
    /// tuning and for exercising the multi-shard merge path in tests).
    pub fn build_with_shard_rows(
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        attrs: &[usize],
        threads: usize,
        shard_rows: usize,
    ) -> Self {
        let columns: Vec<Arc<Column>> = attrs.iter().map(|&a| store.column(instance, a)).collect();
        let codec = KeyCodec::new(columns);
        let n = store.len();
        let (map, offsets, postings) = match &codec.repr {
            Repr::Radix(radices) => {
                let (map, offsets, postings) =
                    build_groups(&codec.columns, radices, n, threads, shard_rows);
                (KeyMap::U64(map), offsets, postings)
            }
            Repr::Shift => {
                let (map, offsets, postings) =
                    build_groups(&codec.columns, &[], n, threads, shard_rows);
                (KeyMap::U128(map), offsets, postings)
            }
            Repr::Wide => {
                let (map, offsets, postings) =
                    build_groups(&codec.columns, &[], n, threads, shard_rows);
                (KeyMap::Wide(map), offsets, postings)
            }
        };
        InternedIndex {
            attrs: attrs.to_vec(),
            store: Arc::clone(store),
            codec,
            map,
            live_groups: offsets.len() - 1,
            offsets,
            postings,
        }
    }

    /// Patches `prev` — an index on the same attribute list, built over a
    /// snapshot `store` descends from: an earlier version of the same
    /// instance, or the original a clone was taken from — after
    /// insertions, removals and
    /// journaled cell writes: each row whose key cells changed is moved out
    /// of its old CSR group and into the group of its new key, interning
    /// (hashing) at most one new key per move, each removed row leaves its
    /// group, and only the appended rows are keyed and hashed besides.
    /// Rows whose changes touch only non-key attributes never move.  The
    /// layout visits only the groups rows left or joined: the runs between
    /// them are copied as slices and their offsets shifted, so an
    /// append-only gap (an empty delta) costs what re-keying the appended
    /// rows costs; after a removal, the postings past the first removed row
    /// are renumbered to the compacted rows.
    ///
    /// `prev` is handed over: when the caller holds its only reference, its
    /// group map and offsets are moved into the patched index instead of
    /// copied (the `index.patch.shared` counter records the patches that had
    /// to clone them because the old index was still held elsewhere).
    ///
    /// A group left empty stays behind as a tombstone — an empty run whose
    /// key keeps its group number, revived when the key returns — so a
    /// vacated key costs no renumbering.  Once tombstones pass a fixed
    /// fraction of the groups, the patch drops them and compacts the
    /// numbering (counted in `index.patch.compactions`), which amortizes to
    /// O(1) per vacated group.  Tombstones are invisible to every reader:
    /// [`group_count`](Self::group_count), [`groups`](Self::groups) and
    /// [`group_rows_iter`](Self::group_rows_iter) answer exactly as on a
    /// fresh build.
    ///
    /// A mixed-radix `u64` codec whose per-column radices new dictionary
    /// entries outgrew is *re-packed* rather than rebuilt: the existing keys
    /// are transcoded under the widened radices (or, when the widened
    /// product no longer fits 64 bits, into the radix-free shift packing) —
    /// an O(distinct keys) transform.  Of the packings, only a > 4-wide
    /// radix key whose widened product overflows `u64` returns `None`,
    /// sending the caller to a full rebuild.
    ///
    /// `store` must be the current columnar snapshot of `instance` and
    /// `delta` the delta ([`RelationInstance::delta_since`]) between the
    /// state `prev` was built at and now.  Returns `None` unless `store`
    /// and its key columns [descend from](ColumnarStore::descends_from)
    /// `prev`'s through patches and clone re-tags: patched columns keep
    /// every old id valid (dictionaries only append), so surviving rows
    /// keep their keys and unchanged groups are copied as they were, while
    /// a column built cold numbers its dictionary afresh.
    pub fn try_patched(
        mut prev: Arc<InternedIndex>,
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        delta: &Delta,
    ) -> Option<InternedIndex> {
        if !store.descends_from(&prev.store, &prev.attrs) {
            return None;
        }
        let columns: Vec<Arc<Column>> = prev
            .attrs
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        let (map, offsets) = take_or_clone(
            &mut prev,
            |owned| {
                (
                    std::mem::take(&mut owned.map),
                    std::mem::take(&mut owned.offsets),
                )
            },
            |shared| (shared.map.clone(), shared.offsets.clone()),
        );
        let (seed, codec) = rekey(&prev.codec, map, columns)?;
        let moves = RowMoves::new(&prev.attrs, &prev.store, delta);
        let n_rows = store.len();
        let (map, csr) = match (seed, &codec.repr) {
            (KeyMap::U64(m), Repr::Radix(radices)) => {
                let (map, csr) = patch_groups(
                    m,
                    offsets,
                    &prev,
                    &moves,
                    codec.columns(),
                    n_rows,
                    |columns, row| KeyCodec::pack_u64_row(radices, columns, row),
                );
                (KeyMap::U64(map), csr)
            }
            (KeyMap::U128(m), Repr::Shift) => {
                let (map, csr) = patch_groups(
                    m,
                    offsets,
                    &prev,
                    &moves,
                    codec.columns(),
                    n_rows,
                    KeyCodec::pack_u128_row,
                );
                (KeyMap::U128(map), csr)
            }
            (KeyMap::Wide(m), Repr::Wide) => {
                let (map, csr) = patch_groups(
                    m,
                    offsets,
                    &prev,
                    &moves,
                    codec.columns(),
                    n_rows,
                    KeyCodec::pack_wide_row,
                );
                (KeyMap::Wide(map), csr)
            }
            _ => unreachable!("map variant always matches codec repr"),
        };
        Some(InternedIndex {
            attrs: prev.attrs.clone(),
            store: Arc::clone(store),
            codec,
            map,
            offsets: csr.offsets,
            postings: csr.postings,
            live_groups: csr.live_groups,
        })
    }

    /// The attribute positions this index is keyed on.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// The columnar snapshot behind the index.
    pub fn store(&self) -> &Arc<ColumnarStore> {
        &self.store
    }

    /// The key columns, positionally aligned with [`attrs`](Self::attrs).
    pub fn columns(&self) -> &[Arc<Column>] {
        self.codec.columns()
    }

    /// Number of distinct keys.
    pub fn group_count(&self) -> usize {
        self.live_groups
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.group_count() == 0
    }

    /// Translates a group row number to its tuple id.
    #[inline]
    pub fn tuple_id(&self, row: u32) -> TupleId {
        self.store.tuple_id(row as usize)
    }

    #[inline]
    fn group_rows(&self, group: u32) -> &[u32] {
        let g = group as usize;
        &self.postings[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// The id of `value` in the `pos`-th key column, if any tuple carries it
    /// there.
    pub fn lookup_id(&self, pos: usize, value: &Value) -> Option<ValueId> {
        self.codec.columns[pos].interner().lookup(value)
    }

    /// Rows whose projection equals the id tuple `key` (empty when absent).
    pub fn rows_for_ids(&self, key: &[ValueId]) -> &[u32] {
        debug_assert_eq!(key.len(), self.attrs.len());
        let group = match (&self.map, &self.codec.repr) {
            (KeyMap::U64(m), Repr::Radix(radices)) => m.get(&KeyCodec::pack_u64_ids(radices, key)),
            (KeyMap::U128(m), _) => m.get(&KeyCodec::pack_u128_ids(key)),
            (KeyMap::Wide(m), _) => m.get(key),
            _ => unreachable!("map variant always matches codec repr"),
        };
        match group {
            Some(&g) => self.group_rows(g),
            None => &[],
        }
    }

    /// Rows whose projection equals the value tuple `key`.  A value absent
    /// from its column's dictionary cannot match any row.
    pub fn rows_for_values(&self, key: &[Value]) -> &[u32] {
        let mut ids = Vec::with_capacity(key.len());
        for (pos, v) in key.iter().enumerate() {
            match self.lookup_id(pos, v) {
                Some(id) => ids.push(id),
                None => return &[],
            }
        }
        self.rows_for_ids(&ids)
    }

    /// Does any tuple project to the value tuple `key`?
    pub fn contains_values(&self, key: &[Value]) -> bool {
        !self.rows_for_values(key).is_empty()
    }

    /// Iterates over `(key ids, group rows)` pairs of groups with at least
    /// `min_rows` rows, in unspecified order, filtering on group size
    /// *before* decoding the key — on high-cardinality indexes almost every
    /// group is a singleton, and skipping their decode avoids one small
    /// allocation per distinct key.
    pub fn groups_with_min(
        &self,
        min_rows: usize,
    ) -> Box<dyn Iterator<Item = (Vec<ValueId>, &[u32])> + '_> {
        // Tombstoned keys (empty groups) are never yielded.
        let min_rows = min_rows.max(1);
        let width = self.attrs.len();
        match (&self.map, &self.codec.repr) {
            (KeyMap::U64(m), Repr::Radix(radices)) => {
                Box::new(m.iter().filter_map(move |(&k, &g)| {
                    let rows = self.group_rows(g);
                    (rows.len() >= min_rows).then(|| (KeyCodec::unpack_u64(radices, k), rows))
                }))
            }
            (KeyMap::U128(m), _) => Box::new(m.iter().filter_map(move |(&k, &g)| {
                let rows = self.group_rows(g);
                (rows.len() >= min_rows).then(|| (KeyCodec::unpack_u128(width, k), rows))
            })),
            (KeyMap::Wide(m), _) => Box::new(m.iter().filter_map(move |(k, &g)| {
                let rows = self.group_rows(g);
                (rows.len() >= min_rows).then(|| (k.to_vec(), rows))
            })),
            _ => unreachable!("map variant always matches codec repr"),
        }
    }

    /// Iterates over `(key ids, group rows)` pairs in unspecified order.
    pub fn groups(&self) -> Box<dyn Iterator<Item = (Vec<ValueId>, &[u32])> + '_> {
        self.groups_with_min(0)
    }

    /// Iterates over the row slices of every group, in CSR (first-seen)
    /// order, without touching the key map at all.  Consumers that only
    /// need the grouping — stripped partitions, `g3` tallies — skip the
    /// per-group key decode entirely.
    pub fn group_rows_iter(&self) -> impl Iterator<Item = &[u32]> {
        self.runs_with_min(1)
    }

    /// The row runs of the groups holding at least `min_rows` rows, in CSR
    /// order; any `min_rows >= 1` skips the tombstones.
    fn runs_with_min(&self, min_rows: usize) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(|w| &self.postings[w[0] as usize..w[1] as usize])
            .filter(move |rows| rows.len() >= min_rows)
    }

    /// Groups containing at least two rows — the only candidates for
    /// FD-style pair violations.  Singleton keys are never decoded.
    pub fn multi_groups(&self) -> impl Iterator<Item = (Vec<ValueId>, &[u32])> {
        self.groups_with_min(2)
    }

    /// The row runs of the groups holding at least two rows, keys not
    /// decoded — the pooled counterpart of
    /// [`RowGroups::scan`](super::shard::RowGroups::scan), fed to the same
    /// grouping kernels.
    pub fn multi_group_rows(&self) -> impl Iterator<Item = &[u32]> {
        self.runs_with_min(2)
    }

    /// Approximate heap bytes of the index itself (map + offsets +
    /// postings).  The backing columns are shared across indexes and
    /// reported separately by [`ColumnarStore::stats`].
    pub fn approx_heap_bytes(&self) -> usize {
        let map_bytes = match &self.map {
            KeyMap::U64(m) => m.capacity() * (size_of::<(u64, u32)>() + 1),
            KeyMap::U128(m) => m.capacity() * (size_of::<(u128, u32)>() + 1),
            KeyMap::Wide(m) => {
                m.capacity() * (size_of::<(Box<[ValueId]>, u32)>() + 1)
                    + m.keys()
                        .map(|k| k.len() * size_of::<ValueId>())
                        .sum::<usize>()
            }
        };
        map_bytes
            + self.offsets.capacity() * size_of::<u32>()
            + self.postings.capacity() * size_of::<u32>()
    }
}

/// Per-shard scan output: distinct keys in first-seen order, each row's
/// local group, and local group sizes.
struct ShardGroups<K> {
    keys: Vec<K>,
    row_groups: Vec<u32>,
    counts: Vec<u32>,
}

fn scan_shard<K: RunKey>(
    rows: std::ops::Range<usize>,
    columns: &[Arc<Column>],
    radices: &[u64],
) -> ShardGroups<K> {
    let mut map: FxHashMap<K, u32> = FxHashMap::default();
    let mut keys = Vec::new();
    let mut row_groups = Vec::with_capacity(rows.len());
    let mut counts: Vec<u32> = Vec::new();
    let mut run_keys: Vec<K> = Vec::new();
    walk_runs(columns, rows, |_, len, ids| {
        K::pack_run(radices, ids, len, &mut run_keys);
        for key in run_keys.drain(..) {
            let next = counts.len() as u32;
            let before = map.len();
            let group = *map.entry(key.clone()).or_insert(next);
            if map.len() > before {
                keys.push(key);
                counts.push(0);
            }
            counts[group as usize] += 1;
            row_groups.push(group);
        }
    });
    ShardGroups {
        keys,
        row_groups,
        counts,
    }
}

/// Two-pass CSR construction over the key `columns` (packed under
/// `radices` for `u64` keys): scan shards (in parallel when `threads > 1`),
/// reading each shard's ids as chunk slices, into local group tables, merge
/// them in shard order, then scatter row numbers into a single postings
/// array.  Processing shards in order keeps postings ascending within each
/// group.
fn build_groups<K: RunKey>(
    columns: &[Arc<Column>],
    radices: &[u64],
    n_rows: usize,
    threads: usize,
    shard_rows: usize,
) -> (FxHashMap<K, u32>, Vec<u32>, Vec<u32>) {
    let shard_rows = shard_rows.max(1);
    let shard_count = n_rows.div_ceil(shard_rows).max(1);
    let shard_range = |s: usize| (s * shard_rows).min(n_rows)..((s + 1) * shard_rows).min(n_rows);

    // Workers claim shards from the shared pool (uneven group skew
    // balances across threads); one shard or one thread runs inline.
    let shard_ids: Vec<usize> = (0..shard_count).collect();
    let shards: Vec<ShardGroups<K>> = parallel_map(&shard_ids, threads, |&s| {
        scan_shard(shard_range(s), columns, radices)
    });

    // Merge: assign global group numbers in shard-then-first-seen order.
    let mut map: FxHashMap<K, u32> = FxHashMap::default();
    let mut counts: Vec<u32> = Vec::new();
    let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
    for shard in &shards {
        let remap: Vec<u32> = shard
            .keys
            .iter()
            .map(|key| {
                let next = counts.len() as u32;
                let before = map.len();
                let group = *map.entry(key.clone()).or_insert(next);
                if map.len() > before {
                    counts.push(0);
                }
                group
            })
            .collect();
        for (local, &count) in shard.counts.iter().enumerate() {
            counts[remap[local] as usize] += count;
        }
        remaps.push(remap);
    }

    // Prefix sums, then scatter rows in shard order so postings ascend
    // within each group.
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &count in &counts {
        acc += count;
        offsets.push(acc);
    }
    let mut cursors: Vec<u32> = offsets[..counts.len()].to_vec();
    let mut postings = vec![0u32; n_rows];
    for (s, shard) in shards.iter().enumerate() {
        let base = shard_range(s).start;
        for (i, &local) in shard.row_groups.iter().enumerate() {
            let group = remaps[s][local as usize] as usize;
            postings[cursors[group] as usize] = (base + i) as u32;
            cursors[group] += 1;
        }
    }
    map.shrink_to_fit();
    (map, offsets, postings)
}

/// Once more than `1 / TOMBSTONE_FRACTION` of an index's groups are
/// tombstones, a patch drops them and compacts the group numbering.  The
/// O(groups) compaction then runs at most once per `groups /
/// TOMBSTONE_FRACTION` vacated groups — O(`TOMBSTONE_FRACTION`) amortized
/// per vacancy — while tombstones cost at most that fraction of extra map
/// entries and offsets.
const TOMBSTONE_FRACTION: usize = 8;

/// The CSR layout a patch produces: offsets, postings, and the number of
/// non-empty groups among them.
struct PatchedCsr {
    offsets: Vec<u32>,
    postings: Vec<u32>,
    live_groups: usize,
}

/// The group of `key`, opening a new one when the key is unknown.  Every
/// group — tombstones included — keeps exactly one key in the map, so the
/// next group number is the map's length.
fn group_of<K: Eq + Hash>(map: &mut FxHashMap<K, u32>, key: K) -> u32 {
    let next = map.len() as u32;
    *map.entry(key).or_insert(next)
}

/// Delta CSR patch of `prev`'s (possibly re-packed) group map `map` and
/// offsets `offsets`, both handed over to be rewritten, over a snapshot of
/// `n_rows` rows whose key columns are `columns`: each moved row of `moves`
/// has its old group looked up by its old key, packed from `prev`'s
/// columns, and its new key joins a group (a tombstone revives, an unknown
/// key opens a group past the old ones); each removed row leaves its old
/// group; each row appended after `prev` is keyed like a moved row.
///
/// The layout then visits only the touched groups — the sorted union of
/// the leaving, joining and appended rows' groups — in `prev`'s row
/// numbering (appended rows numbered on from `prev`'s last row): the runs
/// of postings between touched groups are copied as slices, each touched
/// group merges its surviving and joining rows and then takes its appended
/// rows, and the offsets are shifted in place from the first touched group
/// on by the size change accumulated so far.  When rows were removed, one
/// pass then renumbers the postings past the first removed row to the
/// compacted rows.  Groups left empty stay as tombstones until they pass
/// `1 / TOMBSTONE_FRACTION` of the groups, when they are dropped and the
/// numbering compacted.  Rows ascend within every group, as in a fresh
/// build.
fn patch_groups<K: Eq + Hash>(
    mut map: FxHashMap<K, u32>,
    mut offsets: Vec<u32>,
    prev: &InternedIndex,
    moves: &RowMoves,
    columns: &[Arc<Column>],
    n_rows: usize,
    key_at: impl Fn(&[Arc<Column>], usize) -> K,
) -> (FxHashMap<K, u32>, PatchedCsr) {
    debug_assert_eq!(map.len() + 1, offsets.len(), "one key per group");
    // (group, row) pairs of the rows leaving, joining and appended to each
    // group, in `prev`'s numbering.
    let mut leaving: Vec<(u32, u32)> = Vec::new();
    let mut joining: Vec<(u32, u32)> = Vec::new();
    for &row in &moves.moved {
        let from = map[&key_at(prev.codec.columns(), row)];
        let to = group_of(&mut map, key_at(columns, moves.renumber(row)));
        if from != to {
            leaving.push((from, row as u32));
            joining.push((to, row as u32));
        }
    }
    for &row in &moves.removed {
        let from = map[&key_at(prev.codec.columns(), row)];
        leaving.push((from, row as u32));
    }
    let old_rows = prev.store.len();
    let removed = moves.removed.len();
    let mut appended: Vec<(u32, u32)> = (old_rows - removed..n_rows)
        .map(|row| {
            let group = group_of(&mut map, key_at(columns, row));
            (group, (row + removed) as u32)
        })
        .collect();
    leaving.sort_unstable();
    joining.sort_unstable();
    appended.sort_unstable();

    let n_old = prev.postings.len();
    // Opened groups start out as empty runs past the old ones.
    offsets.resize(map.len() + 1, n_old as u32);
    let mut postings: Vec<u32> =
        Vec::with_capacity(n_old - leaving.len() + joining.len() + appended.len());
    let mut live_groups = prev.live_groups;
    // `prev.postings[run..]` is the verbatim run not yet copied;
    // `offsets[shifted..]` still hold `prev`'s positions, which the size
    // change `delta` (mod 2^32) of the groups laid out so far moves.
    let (mut run, mut shifted, mut delta) = (0usize, 0usize, 0u32);
    let (mut l, mut j, mut a) = (0usize, 0usize, 0usize);
    let head = |pairs: &[(u32, u32)], at: usize| pairs.get(at).map_or(u32::MAX, |p| p.0);
    loop {
        let g = head(&leaving, l)
            .min(head(&joining, j))
            .min(head(&appended, a));
        if g == u32::MAX {
            break;
        }
        let end_of = |pairs: &[(u32, u32)], at: usize| {
            at + pairs[at..].iter().take_while(|p| p.0 == g).count()
        };
        let (l_end, j_end, a_end) = (
            end_of(&leaving, l),
            end_of(&joining, j),
            end_of(&appended, a),
        );
        let g = g as usize;
        let (start, end) = (offsets[g] as usize, offsets[g + 1] as usize);
        if delta != 0 {
            for offset in &mut offsets[shifted..=g] {
                *offset = offset.wrapping_add(delta);
            }
        }
        shifted = g + 1;
        postings.extend_from_slice(&prev.postings[run..start]);
        debug_assert_eq!(postings.len(), offsets[g] as usize);
        merge_moves(
            &prev.postings[start..end],
            &leaving[l..l_end],
            &joining[j..j_end],
            &mut postings,
        );
        postings.extend(appended[a..a_end].iter().map(|&(_, row)| row));
        run = end;
        let (before, after) = (end - start, postings.len() - offsets[g] as usize);
        match (before, after) {
            (0, 1..) => live_groups += 1,
            (1.., 0) => live_groups -= 1,
            _ => {}
        }
        delta = delta.wrapping_add(after as u32).wrapping_sub(before as u32);
        (l, j, a) = (l_end, j_end, a_end);
    }
    if delta != 0 {
        for offset in &mut offsets[shifted..] {
            *offset = offset.wrapping_add(delta);
        }
    }
    postings.extend_from_slice(&prev.postings[run..]);
    debug_assert_eq!(Some(&(postings.len() as u32)), offsets.last());
    if let Some(&first) = moves.removed.first() {
        for row in postings.iter_mut().filter(|r| **r as usize > first) {
            *row = moves.renumber(*row as usize) as u32;
        }
    }
    let tombstones = map.len() - live_groups;
    if tombstones > map.len() / TOMBSTONE_FRACTION {
        compact_groups(&mut map, &mut offsets);
    }
    let csr = PatchedCsr {
        offsets,
        postings,
        live_groups,
    };
    (map, csr)
}

/// Drops the tombstones (empty groups) of a CSR layout: their keys leave
/// `map`, the live groups are renumbered in order and `offsets` is
/// rewritten in place.  The postings are unaffected.
fn compact_groups<K: Eq + Hash>(map: &mut FxHashMap<K, u32>, offsets: &mut Vec<u32>) {
    dq_obs::inc("index.patch.compactions");
    let groups = offsets.len() - 1;
    let mut remap: Vec<u32> = vec![u32::MAX; groups];
    let mut kept = 0usize;
    let mut start = offsets[0];
    for (g, slot) in remap.iter_mut().enumerate() {
        // `kept <= g`, so this only overwrites offsets already read.
        let end = offsets[g + 1];
        if end > start {
            *slot = kept as u32;
            kept += 1;
            offsets[kept] = end;
        }
        start = end;
    }
    offsets.truncate(kept + 1);
    map.retain(|_, g| {
        *g = remap[*g as usize];
        *g != u32::MAX
    });
    map.shrink_to_fit();
}

/// Writes the rows of `old` except those `leaving` it, merged with the rows
/// `joining` it, to `out`; all three ascend, so the output does too.  The
/// stretches of `old` between moved rows are copied as slices.
fn merge_moves(old: &[u32], leaving: &[(u32, u32)], joining: &[(u32, u32)], out: &mut Vec<u32>) {
    let mut leaving = leaving.iter().map(|&(_, row)| row).peekable();
    let mut joining = joining.iter().map(|&(_, row)| row).peekable();
    let mut rest = old;
    loop {
        let (row, joins) = match (leaving.peek(), joining.peek()) {
            (Some(&left), Some(&joined)) if joined < left => (joined, true),
            (Some(&left), _) => (left, false),
            (None, Some(&joined)) => (joined, true),
            (None, None) => break,
        };
        let at = rest.partition_point(|&r| r < row);
        out.extend_from_slice(&rest[..at]);
        rest = &rest[at..];
        if joins {
            joining.next();
            out.push(row);
        } else {
            leaving.next();
            debug_assert_eq!(
                rest.first(),
                Some(&row),
                "a leaving row is in its old group"
            );
            rest = &rest[1..];
        }
    }
    out.extend_from_slice(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::schema::{Domain, RelationSchema};
    use std::collections::BTreeMap;

    fn instance(n: usize) -> RelationInstance {
        let schema = RelationSchema::new(
            "r",
            [("A", Domain::Int), ("B", Domain::Text), ("C", Domain::Int)],
        );
        let mut inst = RelationInstance::from_schema(schema);
        for i in 0..n {
            inst.insert_values([
                Value::int((i % 7) as i64),
                Value::str(format!("s{}", i % 5)),
                Value::int(i as i64),
            ])
            .unwrap();
        }
        inst
    }

    /// Canonical view of an index: resolved key values → sorted tuple ids.
    fn canonical_interned(idx: &InternedIndex) -> BTreeMap<Vec<Value>, Vec<TupleId>> {
        idx.groups()
            .map(|(ids, rows)| {
                let key: Vec<Value> = ids
                    .iter()
                    .zip(idx.columns())
                    .map(|(&id, col)| col.interner().resolve(id).clone())
                    .collect();
                (key, rows.iter().map(|&r| idx.tuple_id(r)).collect())
            })
            .collect()
    }

    fn canonical_hash(idx: &reference::HashIndex) -> BTreeMap<Vec<Value>, Vec<TupleId>> {
        idx.groups().map(|(k, g)| (k.clone(), g.clone())).collect()
    }

    #[test]
    fn groups_match_the_value_keyed_index() {
        let inst = instance(100);
        let store = inst.columnar();
        for attrs in [&[0usize][..], &[1], &[0, 1], &[0, 1, 2], &[]] {
            let interned = InternedIndex::build(&inst, &store, attrs, 1);
            let baseline = reference::HashIndex::build(&inst, attrs);
            assert_eq!(
                canonical_interned(&interned),
                canonical_hash(&baseline),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn sharded_parallel_build_matches_sequential() {
        let inst = instance(257);
        let store = inst.columnar();
        let sequential = InternedIndex::build(&inst, &store, &[0, 1], 1);
        for (threads, shard_rows) in [(1, 16), (4, 16), (4, 50), (3, 1)] {
            let sharded =
                InternedIndex::build_with_shard_rows(&inst, &store, &[0, 1], threads, shard_rows);
            assert_eq!(
                canonical_interned(&sharded),
                canonical_interned(&sequential),
                "threads {threads}, shard_rows {shard_rows}"
            );
            // Rows ascend within every group regardless of sharding.
            for (_, rows) in sharded.groups() {
                assert!(rows.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn probes_by_ids_and_values_agree() {
        let inst = instance(60);
        let store = inst.columnar();
        let idx = InternedIndex::build(&inst, &store, &[0, 1], 1);
        let key = [Value::int(3), Value::str("s3")];
        let by_values: Vec<TupleId> = idx
            .rows_for_values(&key)
            .iter()
            .map(|&r| idx.tuple_id(r))
            .collect();
        let ids: Vec<ValueId> = key
            .iter()
            .enumerate()
            .map(|(pos, v)| idx.lookup_id(pos, v).unwrap())
            .collect();
        let by_ids: Vec<TupleId> = idx
            .rows_for_ids(&ids)
            .iter()
            .map(|&r| idx.tuple_id(r))
            .collect();
        assert_eq!(by_values, by_ids);
        assert!(!by_values.is_empty());
        // Absent values match nothing.
        assert!(idx
            .rows_for_values(&[Value::int(3), Value::str("missing")])
            .is_empty());
        assert!(!idx.contains_values(&[Value::int(999), Value::str("s0")]));
    }

    #[test]
    fn wide_keys_fall_back_to_boxed_ids() {
        let schema = RelationSchema::new("w", (0..6).map(|i| (format!("A{i}"), Domain::Int)));
        let mut inst = RelationInstance::from_schema(schema);
        for i in 0..20i64 {
            inst.insert_values((0..6).map(|j| Value::int((i + j) % 4)))
                .unwrap();
        }
        let store = inst.columnar();
        let attrs: Vec<usize> = (0..6).collect();
        let interned = InternedIndex::build(&inst, &store, &attrs, 1);
        let baseline = reference::HashIndex::build(&inst, &attrs);
        assert_eq!(canonical_interned(&interned), canonical_hash(&baseline));
    }

    #[test]
    fn empty_attribute_list_groups_everything_together() {
        let inst = instance(10);
        let store = inst.columnar();
        let idx = InternedIndex::build(&inst, &store, &[], 1);
        assert_eq!(idx.group_count(), 1);
        assert_eq!(idx.rows_for_ids(&[]).len(), 10);
    }

    #[test]
    fn empty_instance_builds_an_empty_index() {
        let inst = instance(0);
        let store = inst.columnar();
        let idx = InternedIndex::build(&inst, &store, &[0], 1);
        assert!(idx.is_empty());
        assert!(idx.rows_for_values(&[Value::int(1)]).is_empty());
    }

    #[test]
    fn extended_index_equals_fresh_build() {
        // Repeating value pools keep per-column distinct counts stable, so
        // the mixed-radix u64 codec survives the extension.
        let mut inst = instance(40);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
        for i in 40..100usize {
            inst.insert_values([
                Value::int((i % 7) as i64),
                Value::str(format!("s{}", i % 5)),
                Value::int(i as i64),
            ])
            .unwrap();
        }
        let store = inst.columnar();
        let extended = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
            .expect("no new dictionary entries on the key columns");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
        for (_, rows) in extended.groups() {
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        }
    }

    /// The radices of a mixed-radix index.
    fn radices(idx: &InternedIndex) -> Vec<u64> {
        match &idx.codec.repr {
            Repr::Radix(radices) => radices.clone(),
            _ => panic!("expected a mixed-radix packing"),
        }
    }

    #[test]
    fn radix_outgrowth_repacks_and_extends() {
        let mut inst = instance(30);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
        let before = radices(&prev);
        assert_eq!(before, [8, 8], "7 and 5 entries round up to 8");
        // Four brand-new B values grow that column's dictionary from 5 to 9
        // entries, past its radix of 8; the extension re-packs the existing
        // keys under the widened radices instead of declining.
        for (i, b) in ["u1", "u2", "u3", "unseen"].into_iter().enumerate() {
            inst.insert_values([Value::int(1), Value::str(b), Value::int(999 + i as i64)])
                .unwrap();
        }
        let store = inst.columnar();
        let extended = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
            .expect("radix outgrowth re-packs in place");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
        assert_eq!(radices(&extended), [8, 16], "the B radix doubled");
        assert_eq!(radices(&extended), radices(&fresh));
        // Probes keep working against the widened packing.
        assert_eq!(
            extended
                .rows_for_values(&[Value::int(1), Value::str("unseen")])
                .len(),
            1
        );
    }

    #[test]
    fn dictionary_growth_below_the_radix_keeps_the_packing() {
        let mut inst = instance(30);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
        // One new B value: 6 entries still fit the radix of 8, so the
        // packing carries over unchanged and still equals a fresh codec's.
        inst.insert_values([Value::int(1), Value::str("unseen"), Value::int(999)])
            .unwrap();
        let store = inst.columnar();
        let extended = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
            .expect("the packing still fits");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(radices(&extended), [8, 8]);
        assert_eq!(radices(&extended), radices(&fresh));
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
    }

    #[test]
    fn radix_overflow_on_extension_switches_to_shift_packing() {
        // Four columns at 2^15 distinct values each: the radix product 2^60
        // fits u64, but one more distinct value per column doubles every
        // radix and pushes the product to 2^64, so the extension must
        // transcode to the shift packing.
        let schema = RelationSchema::new("w", (0..4).map(|i| (format!("A{i}"), Domain::Int)));
        let mut inst = RelationInstance::from_schema(schema);
        let base = 1i64 << 15;
        for i in 0..base {
            inst.insert_values((0..4).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1, 2, 3], 1);
        assert_eq!(radices(&prev), [1 << 15; 4]);
        for i in base..base + 3 {
            inst.insert_values((0..4).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let store = inst.columnar();
        let extended = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
            .expect("width <= 4 always has an exact packing");
        assert!(matches!(extended.codec.repr, Repr::Shift));
        let fresh = InternedIndex::build(&inst, &store, &[0, 1, 2, 3], 1);
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
    }

    #[test]
    fn wide_and_shift_codecs_extend_under_new_values() {
        // 2^16 distinct values per column overflow the u64 radix product on
        // four columns (shift packing) and on six (wide packing); both are
        // radix-free and must extend even when dictionaries grow.
        let schema = RelationSchema::new("w", (0..6).map(|i| (format!("A{i}"), Domain::Int)));
        let mut inst = RelationInstance::from_schema(schema);
        let base = 1i64 << 16;
        for i in 0..base {
            inst.insert_values((0..6).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let shift_attrs: Vec<usize> = (0..4).collect();
        let wide_attrs: Vec<usize> = (0..6).collect();
        let prev_store = inst.columnar();
        let prev_shift = InternedIndex::build(&inst, &prev_store, &shift_attrs, 1);
        let prev_wide = InternedIndex::build(&inst, &prev_store, &wide_attrs, 1);
        for i in base..base + 10 {
            inst.insert_values((0..6).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let store = inst.columnar();
        for (prev, attrs) in [(prev_shift, shift_attrs), (prev_wide, wide_attrs)] {
            let extended =
                InternedIndex::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
                    .expect("radix-free packing extends");
            let fresh = InternedIndex::build(&inst, &store, &attrs, 1);
            assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
        }
    }

    #[test]
    fn patched_index_equals_fresh_build() {
        use crate::instance::CellRef;
        let mut inst = instance(50);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
        let v0 = inst.version();
        // Move a row between existing groups, vacate a group entirely by
        // moving its only row, edit a non-key attribute, and append a tuple.
        inst.update_cell(CellRef::new(TupleId(3), 0), Value::int(5))
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(10), 2), Value::int(-1))
            .unwrap();
        inst.insert_values([Value::int(2), Value::str("s2"), Value::int(500)])
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(7), 1), Value::str("s0"))
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        let patched = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &delta)
            .expect("key dictionaries did not overflow");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical_interned(&patched), canonical_interned(&fresh));
        assert_eq!(patched.group_count(), fresh.group_count());
        for (_, rows) in patched.groups() {
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        }
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(patched.group_count(), baseline.len());
    }

    #[test]
    fn patch_vacates_groups_and_interns_new_keys() {
        use crate::instance::CellRef;
        let mut inst = instance(4);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[1], 1);
        assert_eq!(radices(&prev), [4]);
        let v0 = inst.version();
        // Rewrite every "s3" cell (only tuple 3 in 0..4) to the brand-new
        // value "fresh": group s3 must vanish, group "fresh" must appear —
        // and the fifth B value outgrows the radix of 4, exercising the
        // re-pack.
        inst.update_cell(CellRef::new(TupleId(3), 1), Value::str("fresh"))
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        let patched = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &delta)
            .expect("radix outgrowth re-packs in place");
        assert_eq!(radices(&patched), [8]);
        let fresh = InternedIndex::build(&inst, &store, &[1], 1);
        assert_eq!(canonical_interned(&patched), canonical_interned(&fresh));
        assert!(patched.rows_for_values(&[Value::str("s3")]).is_empty());
        assert_eq!(patched.rows_for_values(&[Value::str("fresh")]).len(), 1);
        assert_eq!(
            patched.group_count(),
            reference::HashIndex::build(&inst, &[1]).len()
        );
    }

    #[test]
    fn removals_at_the_head_middle_and_tail_patch_like_fresh_builds() {
        use crate::instance::CellRef;
        for removed in [&[0usize][..], &[20, 21, 33], &[49], &[0, 25, 49, 50], &[]] {
            let mut inst = instance(50);
            let prev_store = inst.columnar();
            let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
            let v0 = inst.version();
            inst.update_cell(CellRef::new(TupleId(3), 0), Value::int(5))
                .unwrap();
            inst.insert_values([Value::int(2), Value::str("s2"), Value::int(500)])
                .unwrap();
            inst.update_cell(CellRef::new(TupleId(25), 1), Value::str("fresh"))
                .unwrap();
            // Tuple 50 was appended inside the gap; removing it leaves no
            // trace in `prev`.
            for &id in removed {
                inst.remove(TupleId(id));
            }
            let delta = inst.delta_since(v0).unwrap();
            let store = inst.columnar();
            let patched = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &delta)
                .expect("key dictionaries did not overflow");
            let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
            assert_eq!(
                canonical_interned(&patched),
                canonical_interned(&fresh),
                "removed {removed:?}"
            );
            assert_eq!(
                canonical_interned(&patched),
                canonical_hash(&reference::HashIndex::build(&inst, &[0, 1])),
                "removed {removed:?}"
            );
            assert_eq!(patched.group_count(), fresh.group_count());
            for (_, rows) in patched.groups() {
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
            }
        }
    }

    #[test]
    fn patched_wide_and_shift_codecs_match_fresh_builds() {
        use crate::instance::CellRef;
        // Six int columns with 2^16 distinct values overflow the radix
        // product at width 4 (shift) and 6 (wide); both must patch.
        let schema = RelationSchema::new("w", (0..6).map(|i| (format!("A{i}"), Domain::Int)));
        let mut inst = RelationInstance::from_schema(schema);
        let base = 1i64 << 16;
        for i in 0..base {
            inst.insert_values((0..6).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let shift_attrs: Vec<usize> = (0..4).collect();
        let wide_attrs: Vec<usize> = (0..6).collect();
        let prev_store = inst.columnar();
        let prev_shift = InternedIndex::build(&inst, &prev_store, &shift_attrs, 1);
        let prev_wide = InternedIndex::build(&inst, &prev_store, &wide_attrs, 1);
        let v0 = inst.version();
        inst.update_cell(CellRef::new(TupleId(0), 0), Value::int(base + 7))
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(9), 5), Value::int(0))
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        for (prev, attrs) in [(prev_shift, shift_attrs), (prev_wide, wide_attrs)] {
            let patched = InternedIndex::try_patched(Arc::new(prev), &inst, &store, &delta)
                .expect("radix-free packings patch");
            let fresh = InternedIndex::build(&inst, &store, &attrs, 1);
            assert_eq!(canonical_interned(&patched), canonical_interned(&fresh));
        }
    }

    /// Sorted tuple-id lists of every group, as `group_rows_iter` yields
    /// them.
    fn canonical_runs(idx: &InternedIndex) -> Vec<Vec<TupleId>> {
        let mut runs: Vec<Vec<TupleId>> = idx
            .group_rows_iter()
            .map(|rows| rows.iter().map(|&r| idx.tuple_id(r)).collect())
            .collect();
        runs.sort();
        runs
    }

    fn assert_answers_like_fresh_build(
        idx: &InternedIndex,
        inst: &RelationInstance,
        attrs: &[usize],
    ) {
        let fresh = InternedIndex::build(inst, &inst.columnar(), attrs, 1);
        assert_eq!(canonical_interned(idx), canonical_interned(&fresh));
        assert_eq!(canonical_runs(idx), canonical_runs(&fresh));
        assert_eq!(idx.group_count(), fresh.group_count());
        assert_eq!(idx.is_empty(), fresh.is_empty());
        assert_eq!(idx.groups().count(), fresh.group_count());
        assert_eq!(
            idx.multi_group_rows().count(),
            fresh.multi_group_rows().count()
        );
    }

    #[test]
    fn vacated_groups_stay_as_tombstones_until_compaction_and_revive() {
        use crate::instance::CellRef;
        // Keyed on the unique attribute C: 40 singleton groups.
        let mut inst = instance(40);
        let attrs = [2usize];
        let mut idx = InternedIndex::build(&inst, &inst.columnar(), &attrs, 1);
        let patch = |inst: &mut RelationInstance, idx: InternedIndex, edits: &[(usize, i64)]| {
            let v0 = inst.version();
            for &(tuple, value) in edits {
                inst.update_cell(CellRef::new(TupleId(tuple), 2), Value::int(value))
                    .unwrap();
            }
            let delta = inst.delta_since(v0).unwrap();
            let store = inst.columnar();
            InternedIndex::try_patched(Arc::new(idx), inst, &store, &delta)
                .expect("no dictionary overflow")
        };
        // Two rows join their neighbours' groups: two tombstones, below the
        // compaction fraction, so the numbering is kept.
        idx = patch(&mut inst, idx, &[(0, 1), (2, 3)]);
        assert_answers_like_fresh_build(&idx, &inst, &attrs);
        assert_eq!((idx.offsets.len() - 1, idx.live_groups), (40, 38));
        assert!(idx.rows_for_values(&[Value::int(0)]).is_empty());
        // A returning key revives its tombstone instead of opening a group.
        idx = patch(&mut inst, idx, &[(0, 0)]);
        assert_answers_like_fresh_build(&idx, &inst, &attrs);
        assert_eq!((idx.offsets.len() - 1, idx.live_groups), (40, 39));
        assert_eq!(idx.rows_for_values(&[Value::int(0)]).len(), 1);
        // Five more vacancies pass 1/TOMBSTONE_FRACTION of the groups: the
        // patch compacts, leaving exactly the live groups.
        let edits: Vec<(usize, i64)> = (10..15).map(|t| (t, 30)).collect();
        idx = patch(&mut inst, idx, &edits);
        const { assert!(2 <= 40 / TOMBSTONE_FRACTION && 6 > 40 / TOMBSTONE_FRACTION) };
        assert_answers_like_fresh_build(&idx, &inst, &attrs);
        assert_eq!((idx.offsets.len() - 1, idx.live_groups), (34, 34));
        assert_eq!(idx.map.len(), 34);
        // Compacted keys are gone from the map; a returning one opens a
        // new group again.
        idx = patch(&mut inst, idx, &[(12, 12)]);
        assert_answers_like_fresh_build(&idx, &inst, &attrs);
        assert_eq!((idx.offsets.len() - 1, idx.live_groups), (35, 35));
    }

    #[test]
    fn interned_index_is_much_smaller_than_value_keyed() {
        let inst = instance(5_000);
        let store = inst.columnar();
        // Key on the unique attribute so every tuple is its own group — the
        // worst case for per-key overhead.
        let interned = InternedIndex::build(&inst, &store, &[0, 1, 2], 1);
        let baseline = reference::HashIndex::build(&inst, &[0, 1, 2]);
        assert!(
            interned.approx_heap_bytes() * 4 <= baseline.approx_heap_bytes(),
            "interned {} bytes vs baseline {} bytes",
            interned.approx_heap_bytes(),
            baseline.approx_heap_bytes()
        );
    }
}
