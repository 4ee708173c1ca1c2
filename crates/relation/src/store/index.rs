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

use super::columnar::{Column, ColumnarStore, SHARD_ROWS};
use super::fx::FxHashMap;
use super::interner::ValueId;
use crate::instance::{CellChange, RelationInstance, TupleId};
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
    /// Mixed-radix into `u64`: radix `i` is the dictionary size of column
    /// `i`, so the packing is a bijection on id tuples.
    Radix(Vec<u64>),
    /// 32 bits per id in a `u128` (width ≤ 4).
    Shift,
    /// Boxed id slice.
    Wide,
}

/// How an append-time extension adapts a mixed-radix `u64` packing whose
/// per-column radices new dictionary entries outgrew.  Computed by
/// [`widen_plan`]; `Keep` means the existing packing is still exact.
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

/// Decides how (whether) an extension can reuse `prev_repr` over the current
/// `columns`, whose dictionaries may have grown since the packing was chosen.
/// Returns `None` when no exact packing can be carried over (a > 4-wide
/// radix key whose widened product overflows `u64`) and the caller must fall
/// back to a full rebuild.  The chosen plan always reproduces the repr a
/// from-scratch [`KeyCodec::new`] would pick, so extended artifacts stay
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
    let widened: Vec<u64> = columns.iter().map(|c| c.distinct().max(1) as u64).collect();
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
            let radix = col.distinct().max(1) as u64;
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

    /// Builds a codec from parts (extension paths carry a repr forward).
    pub(crate) fn from_parts(columns: Vec<Arc<Column>>, repr: Repr) -> Self {
        KeyCodec { columns, repr }
    }

    #[inline]
    pub(crate) fn pack_u64_row(radices: &[u64], columns: &[Arc<Column>], row: usize) -> u64 {
        let mut acc = 0u64;
        for (col, &radix) in columns.iter().zip(radices) {
            acc = acc * radix + col.id_at(row).0 as u64;
        }
        acc
    }

    #[inline]
    pub(crate) fn pack_u128_row(columns: &[Arc<Column>], row: usize) -> u128 {
        let mut acc = 0u128;
        for col in columns {
            acc = (acc << 32) | col.id_at(row).0 as u128;
        }
        acc
    }

    pub(crate) fn pack_u64_ids(radices: &[u64], ids: &[ValueId]) -> u64 {
        ids.iter()
            .zip(radices)
            .fold(0u64, |acc, (id, &radix)| acc * radix + id.0 as u64)
    }

    pub(crate) fn pack_u128_ids(ids: &[ValueId]) -> u128 {
        ids.iter().fold(0u128, |acc, id| (acc << 32) | id.0 as u128)
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
            Repr::Wide => ProjectionKey::Wide(
                self.columns
                    .iter()
                    .map(|c| c.id_at(row))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            ),
        }
    }
}

/// The group map of an [`InternedIndex`], monomorphized per key packing so
/// entries stay as small as the packing allows.
#[derive(Clone, Debug)]
enum GroupMap {
    U64(FxHashMap<u64, u32>),
    U128(FxHashMap<u128, u32>),
    Wide(FxHashMap<Box<[ValueId]>, u32>),
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
    map: GroupMap,
    /// Group → start of its postings; `offsets.len() == groups + 1`.
    offsets: Vec<u32>,
    /// Row numbers, grouped and ascending within each group.
    postings: Vec<u32>,
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
                let (map, offsets, postings) = build_groups(n, threads, shard_rows, |row| {
                    KeyCodec::pack_u64_row(radices, &codec.columns, row)
                });
                (GroupMap::U64(map), offsets, postings)
            }
            Repr::Shift => {
                let (map, offsets, postings) = build_groups(n, threads, shard_rows, |row| {
                    KeyCodec::pack_u128_row(&codec.columns, row)
                });
                (GroupMap::U128(map), offsets, postings)
            }
            Repr::Wide => {
                let (map, offsets, postings) = build_groups(n, threads, shard_rows, |row| {
                    codec
                        .columns
                        .iter()
                        .map(|c| c.id_at(row))
                        .collect::<Vec<_>>()
                        .into_boxed_slice()
                });
                (GroupMap::Wide(map), offsets, postings)
            }
        };
        InternedIndex {
            attrs: attrs.to_vec(),
            store: Arc::clone(store),
            codec,
            map,
            offsets,
            postings,
        }
    }

    /// Extends `prev` — an index of the same instance on the same attribute
    /// list, built at an earlier version — after append-only mutations:
    /// the group table is cloned, the old CSR postings are memcpy'd group by
    /// group, and only the *appended* rows are packed and hashed.
    ///
    /// A mixed-radix `u64` codec whose per-column radices new dictionary
    /// entries outgrew is *re-packed* rather than rebuilt: the existing keys
    /// are transcoded under the widened radices (or, when the widened
    /// product no longer fits 64 bits, into the radix-free shift packing) —
    /// an O(distinct keys) transform that leaves offsets and postings
    /// untouched.  Only a > 4-wide radix key whose widened product overflows
    /// `u64` returns `None`, sending the caller to a full rebuild.
    ///
    /// `store` must be the current columnar snapshot of `instance`, and the
    /// caller must guarantee the append-only property between the two
    /// versions ([`RelationInstance::append_only_since`]); shared prefix
    /// rows then receive identical dictionary ids (dictionaries assign ids
    /// in first-seen row order), so extended groups equal built-from-scratch
    /// groups exactly.
    pub fn try_extended(
        prev: &InternedIndex,
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
    ) -> Option<InternedIndex> {
        if store.instance_id() != prev.store.instance_id() || store.len() < prev.store.len() {
            return None;
        }
        let columns: Vec<Arc<Column>> = prev
            .attrs
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        let (seed, repr) = match (widen_plan(&prev.codec.repr, &columns)?, &prev.map) {
            (WidenPlan::Keep, map) => (map.clone(), prev.codec.repr.clone()),
            (WidenPlan::Widen(widened), GroupMap::U64(m)) => {
                let Repr::Radix(old) = &prev.codec.repr else {
                    unreachable!("widening plans only arise from radix packings");
                };
                let repacked = m
                    .iter()
                    .map(|(&k, &g)| {
                        (
                            KeyCodec::pack_u64_ids(&widened, &KeyCodec::unpack_u64(old, k)),
                            g,
                        )
                    })
                    .collect();
                (GroupMap::U64(repacked), Repr::Radix(widened))
            }
            (WidenPlan::ToShift, GroupMap::U64(m)) => {
                let Repr::Radix(old) = &prev.codec.repr else {
                    unreachable!("widening plans only arise from radix packings");
                };
                let shifted = m
                    .iter()
                    .map(|(&k, &g)| (KeyCodec::pack_u128_ids(&KeyCodec::unpack_u64(old, k)), g))
                    .collect();
                (GroupMap::U128(shifted), Repr::Shift)
            }
            _ => unreachable!("widening plans only arise from u64 group maps"),
        };
        let codec = KeyCodec { columns, repr };
        let new_rows = prev.store.len()..store.len();
        let (map, offsets, postings) = match (seed, &codec.repr) {
            (GroupMap::U64(m), Repr::Radix(radices)) => {
                let (map, offsets, postings) =
                    extend_groups(m, &prev.offsets, &prev.postings, new_rows, |row| {
                        KeyCodec::pack_u64_row(radices, &codec.columns, row)
                    });
                (GroupMap::U64(map), offsets, postings)
            }
            (GroupMap::U128(m), Repr::Shift) => {
                let (map, offsets, postings) =
                    extend_groups(m, &prev.offsets, &prev.postings, new_rows, |row| {
                        KeyCodec::pack_u128_row(&codec.columns, row)
                    });
                (GroupMap::U128(map), offsets, postings)
            }
            (GroupMap::Wide(m), Repr::Wide) => {
                let (map, offsets, postings) =
                    extend_groups(m, &prev.offsets, &prev.postings, new_rows, |row| {
                        codec
                            .columns
                            .iter()
                            .map(|c| c.id_at(row))
                            .collect::<Vec<_>>()
                            .into_boxed_slice()
                    });
                (GroupMap::Wide(map), offsets, postings)
            }
            _ => unreachable!("map variant always matches codec repr"),
        };
        Some(InternedIndex {
            attrs: prev.attrs.clone(),
            store: Arc::clone(store),
            codec,
            map,
            offsets,
            postings,
        })
    }

    /// Patches `prev` — an index of the same instance on the same attribute
    /// list, built at an earlier version — after journaled cell writes
    /// (plus, possibly, interleaved insertions): each row whose key cells
    /// changed is moved out of its old CSR group and into the group of its
    /// new key, interning (hashing) at most one new key per move; rows whose
    /// changes touch only non-key attributes never move at all.  Groups left
    /// empty are dropped and the numbering compacted, so the group table is
    /// indistinguishable from a fresh build's.  The codec is carried forward
    /// under the same widening rules as [`try_extended`](Self::try_extended)
    /// — dictionary growth from new cell values re-packs the keys in place,
    /// and only the same > 4-wide radix overflow returns `None` (full
    /// rebuild).
    ///
    /// `store` must be the current (patched) columnar snapshot and `changes`
    /// the coalesced delta ([`RelationInstance::changed_cells_since`])
    /// between `prev`'s version and now.  Patched snapshots keep every old
    /// id valid (dictionaries only append), so old rows keep their row
    /// numbers and unchanged groups are bit-identical.
    pub fn try_patched(
        prev: &InternedIndex,
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        changes: &[CellChange],
    ) -> Option<InternedIndex> {
        if store.instance_id() != prev.store.instance_id() || store.len() < prev.store.len() {
            return None;
        }
        let columns: Vec<Arc<Column>> = prev
            .attrs
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        let (seed, repr) = match (widen_plan(&prev.codec.repr, &columns)?, &prev.map) {
            (WidenPlan::Keep, map) => (map.clone(), prev.codec.repr.clone()),
            (WidenPlan::Widen(widened), GroupMap::U64(m)) => {
                let Repr::Radix(old) = &prev.codec.repr else {
                    unreachable!("widening plans only arise from radix packings");
                };
                let repacked = m
                    .iter()
                    .map(|(&k, &g)| {
                        (
                            KeyCodec::pack_u64_ids(&widened, &KeyCodec::unpack_u64(old, k)),
                            g,
                        )
                    })
                    .collect();
                (GroupMap::U64(repacked), Repr::Radix(widened))
            }
            (WidenPlan::ToShift, GroupMap::U64(m)) => {
                let Repr::Radix(old) = &prev.codec.repr else {
                    unreachable!("widening plans only arise from radix packings");
                };
                let shifted = m
                    .iter()
                    .map(|(&k, &g)| (KeyCodec::pack_u128_ids(&KeyCodec::unpack_u64(old, k)), g))
                    .collect();
                (GroupMap::U128(shifted), Repr::Shift)
            }
            _ => unreachable!("widening plans only arise from u64 group maps"),
        };
        let codec = KeyCodec { columns, repr };
        // Rows of the previous snapshot whose key cells changed.  Cell
        // writes never change liveness, so those rows keep their numbers in
        // the new store; changes to tuples appended *after* `prev` have no
        // previous row and are covered by the append pass below.
        let mut moved: Vec<usize> = changes
            .iter()
            .filter(|c| prev.attrs.contains(&c.cell.attr))
            .filter_map(|c| prev.store.row_of(c.cell.tuple))
            .collect();
        moved.sort_unstable();
        moved.dedup();
        let new_rows = prev.store.len()..store.len();
        let (map, offsets, postings) = match (seed, &codec.repr) {
            (GroupMap::U64(m), Repr::Radix(radices)) => {
                let (map, offsets, postings) =
                    patch_groups(m, &prev.offsets, &prev.postings, &moved, new_rows, |row| {
                        KeyCodec::pack_u64_row(radices, &codec.columns, row)
                    });
                (GroupMap::U64(map), offsets, postings)
            }
            (GroupMap::U128(m), Repr::Shift) => {
                let (map, offsets, postings) =
                    patch_groups(m, &prev.offsets, &prev.postings, &moved, new_rows, |row| {
                        KeyCodec::pack_u128_row(&codec.columns, row)
                    });
                (GroupMap::U128(map), offsets, postings)
            }
            (GroupMap::Wide(m), Repr::Wide) => {
                let (map, offsets, postings) =
                    patch_groups(m, &prev.offsets, &prev.postings, &moved, new_rows, |row| {
                        codec
                            .columns
                            .iter()
                            .map(|c| c.id_at(row))
                            .collect::<Vec<_>>()
                            .into_boxed_slice()
                    });
                (GroupMap::Wide(map), offsets, postings)
            }
            _ => unreachable!("map variant always matches codec repr"),
        };
        Some(InternedIndex {
            attrs: prev.attrs.clone(),
            store: Arc::clone(store),
            codec,
            map,
            offsets,
            postings,
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
        self.offsets.len().saturating_sub(1)
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
            (GroupMap::U64(m), Repr::Radix(radices)) => {
                m.get(&KeyCodec::pack_u64_ids(radices, key))
            }
            (GroupMap::U128(m), _) => m.get(&KeyCodec::pack_u128_ids(key)),
            (GroupMap::Wide(m), _) => m.get(key),
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
        let width = self.attrs.len();
        match (&self.map, &self.codec.repr) {
            (GroupMap::U64(m), Repr::Radix(radices)) => {
                Box::new(m.iter().filter_map(move |(&k, &g)| {
                    let rows = self.group_rows(g);
                    (rows.len() >= min_rows).then(|| (KeyCodec::unpack_u64(radices, k), rows))
                }))
            }
            (GroupMap::U128(m), _) => Box::new(m.iter().filter_map(move |(&k, &g)| {
                let rows = self.group_rows(g);
                (rows.len() >= min_rows).then(|| (KeyCodec::unpack_u128(width, k), rows))
            })),
            (GroupMap::Wide(m), _) => Box::new(m.iter().filter_map(move |(k, &g)| {
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
        self.offsets
            .windows(2)
            .map(|w| &self.postings[w[0] as usize..w[1] as usize])
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
        self.group_rows_iter().filter(|rows| rows.len() >= 2)
    }

    /// Approximate heap bytes of the index itself (map + offsets +
    /// postings).  The backing columns are shared across indexes and
    /// reported separately by [`ColumnarStore::stats`].
    pub fn approx_heap_bytes(&self) -> usize {
        let map_bytes = match &self.map {
            GroupMap::U64(m) => m.capacity() * (size_of::<(u64, u32)>() + 1),
            GroupMap::U128(m) => m.capacity() * (size_of::<(u128, u32)>() + 1),
            GroupMap::Wide(m) => {
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

fn scan_shard<K: Eq + Hash + Clone>(
    rows: std::ops::Range<usize>,
    key_at: &(impl Fn(usize) -> K + ?Sized),
) -> ShardGroups<K> {
    let mut map: FxHashMap<K, u32> = FxHashMap::default();
    let mut keys = Vec::new();
    let mut row_groups = Vec::with_capacity(rows.len());
    let mut counts: Vec<u32> = Vec::new();
    for row in rows {
        let key = key_at(row);
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
    ShardGroups {
        keys,
        row_groups,
        counts,
    }
}

/// Two-pass CSR construction: scan shards (in parallel when `threads > 1`)
/// into local group tables, merge them in shard order, then scatter row
/// numbers into a single postings array.  Processing shards in order keeps
/// postings ascending within each group.
fn build_groups<K: Eq + Hash + Clone + Send>(
    n_rows: usize,
    threads: usize,
    shard_rows: usize,
    key_at: impl Fn(usize) -> K + Sync,
) -> (FxHashMap<K, u32>, Vec<u32>, Vec<u32>) {
    let shard_rows = shard_rows.max(1);
    let shard_count = n_rows.div_ceil(shard_rows).max(1);
    let shard_range = |s: usize| (s * shard_rows).min(n_rows)..((s + 1) * shard_rows).min(n_rows);

    // Workers claim shards from the shared pool (uneven group skew
    // balances across threads); one shard or one thread runs inline.
    let shard_ids: Vec<usize> = (0..shard_count).collect();
    let shards: Vec<ShardGroups<K>> = parallel_map(&shard_ids, threads, |&s| {
        scan_shard(shard_range(s), &key_at)
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

/// Append-only CSR extension: take the (possibly re-packed) group map, key
/// and hash only the rows of `new_rows`, then lay out a fresh
/// offsets/postings pair in which each group's old postings are copied
/// verbatim ahead of its new rows.  Old rows precede new rows, so postings
/// stay ascending within each group.
fn extend_groups<K: Eq + Hash + Clone>(
    mut map: FxHashMap<K, u32>,
    prev_offsets: &[u32],
    prev_postings: &[u32],
    new_rows: std::ops::Range<usize>,
    key_at: impl Fn(usize) -> K,
) -> (FxHashMap<K, u32>, Vec<u32>, Vec<u32>) {
    let old_groups = prev_offsets.len().saturating_sub(1);
    let mut added: Vec<u32> = vec![0; old_groups];
    let mut row_groups: Vec<u32> = Vec::with_capacity(new_rows.len());
    for row in new_rows.clone() {
        let key = key_at(row);
        let next = added.len() as u32;
        let before = map.len();
        let group = *map.entry(key).or_insert(next);
        if map.len() > before {
            added.push(0);
        }
        added[group as usize] += 1;
        row_groups.push(group);
    }
    let groups = added.len();
    let mut offsets = Vec::with_capacity(groups + 1);
    offsets.push(0u32);
    let mut acc = 0u32;
    for (g, &extra) in added.iter().enumerate() {
        let old_count = if g < old_groups {
            prev_offsets[g + 1] - prev_offsets[g]
        } else {
            0
        };
        acc += old_count + extra;
        offsets.push(acc);
    }
    let mut cursors: Vec<u32> = Vec::with_capacity(groups);
    let mut postings = vec![0u32; prev_postings.len() + row_groups.len()];
    for g in 0..groups {
        let start = offsets[g];
        cursors.push(start);
        if g < old_groups {
            let old = &prev_postings[prev_offsets[g] as usize..prev_offsets[g + 1] as usize];
            postings[start as usize..start as usize + old.len()].copy_from_slice(old);
            cursors[g] += old.len() as u32;
        }
    }
    for (i, &g) in row_groups.iter().enumerate() {
        postings[cursors[g as usize] as usize] = (new_rows.start + i) as u32;
        cursors[g as usize] += 1;
    }
    map.shrink_to_fit();
    (map, offsets, postings)
}

/// Cell-delta CSR patch: take the (possibly re-packed) group map, move each
/// row of `moved_rows` from its previous group to the group of its current
/// key (at most one map insert per move), key the appended rows of
/// `new_rows`, drop groups left empty and compact the numbering, then lay
/// the postings out again in one ascending-row pass.  Only moved and
/// appended rows are packed and hashed; the relayout itself is a cheap
/// linear scatter.
fn patch_groups<K: Eq + Hash + Clone>(
    mut map: FxHashMap<K, u32>,
    prev_offsets: &[u32],
    prev_postings: &[u32],
    moved_rows: &[usize],
    new_rows: std::ops::Range<usize>,
    key_at: impl Fn(usize) -> K,
) -> (FxHashMap<K, u32>, Vec<u32>, Vec<u32>) {
    let old_groups = prev_offsets.len().saturating_sub(1);
    let n_old = prev_postings.len();
    // Recover each old row's group from the CSR.
    let mut row_groups: Vec<u32> = vec![0; n_old];
    for g in 0..old_groups {
        for &row in &prev_postings[prev_offsets[g] as usize..prev_offsets[g + 1] as usize] {
            row_groups[row as usize] = g as u32;
        }
    }
    let mut counts: Vec<u32> = (0..old_groups)
        .map(|g| prev_offsets[g + 1] - prev_offsets[g])
        .collect();
    let assign = |map: &mut FxHashMap<K, u32>, counts: &mut Vec<u32>, key: K| -> u32 {
        let next = counts.len() as u32;
        let before = map.len();
        let group = *map.entry(key).or_insert(next);
        if map.len() > before {
            counts.push(0);
        }
        group
    };
    for &row in moved_rows {
        let group = assign(&mut map, &mut counts, key_at(row));
        let old = row_groups[row];
        if old == group {
            continue;
        }
        counts[old as usize] -= 1;
        counts[group as usize] += 1;
        row_groups[row] = group;
    }
    let mut appended_groups: Vec<u32> = Vec::with_capacity(new_rows.len());
    for row in new_rows.clone() {
        let group = assign(&mut map, &mut counts, key_at(row));
        counts[group as usize] += 1;
        appended_groups.push(group);
    }
    // Compact away emptied groups: vacated keys leave the map and the group
    // table matches what a fresh build would produce.
    let mut remap: Vec<u32> = vec![u32::MAX; counts.len()];
    let mut kept = 0u32;
    for (g, &count) in counts.iter().enumerate() {
        if count > 0 {
            remap[g] = kept;
            kept += 1;
        }
    }
    map.retain(|_, g| {
        let new = remap[*g as usize];
        *g = new;
        new != u32::MAX
    });
    let mut offsets = Vec::with_capacity(kept as usize + 1);
    offsets.push(0u32);
    let mut acc = 0u32;
    for &count in counts.iter().filter(|&&c| c > 0) {
        acc += count;
        offsets.push(acc);
    }
    // Scatter every row in ascending row order, so postings ascend within
    // each group.
    let mut cursors: Vec<u32> = offsets[..kept as usize].to_vec();
    let mut postings = vec![0u32; n_old + appended_groups.len()];
    for (row, &g) in row_groups.iter().enumerate() {
        let g = remap[g as usize] as usize;
        postings[cursors[g] as usize] = row as u32;
        cursors[g] += 1;
    }
    for (i, &g) in appended_groups.iter().enumerate() {
        let g = remap[g as usize] as usize;
        postings[cursors[g] as usize] = (new_rows.start + i) as u32;
        cursors[g] += 1;
    }
    map.shrink_to_fit();
    (map, offsets, postings)
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
        let extended = InternedIndex::try_extended(&prev, &inst, &store)
            .expect("no new dictionary entries on the key columns");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
        for (_, rows) in extended.groups() {
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        }
    }

    #[test]
    fn radix_outgrowth_repacks_and_extends() {
        let mut inst = instance(30);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1], 1);
        // A brand-new B value outgrows that column's radix; the extension
        // re-packs the existing keys under the widened radices instead of
        // declining.
        inst.insert_values([Value::int(1), Value::str("unseen"), Value::int(999)])
            .unwrap();
        let store = inst.columnar();
        let extended = InternedIndex::try_extended(&prev, &inst, &store)
            .expect("radix outgrowth re-packs in place");
        let fresh = InternedIndex::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical_interned(&extended), canonical_interned(&fresh));
        // Probes keep working against the widened packing.
        assert_eq!(
            extended
                .rows_for_values(&[Value::int(1), Value::str("unseen")])
                .len(),
            1
        );
    }

    #[test]
    fn radix_overflow_on_extension_switches_to_shift_packing() {
        // Four columns at 2^16 - 1 distinct values each: the radix product
        // still fits u64, but one more distinct value per column pushes it
        // past 2^64, so the extension must transcode to the shift packing.
        let schema = RelationSchema::new("w", (0..4).map(|i| (format!("A{i}"), Domain::Int)));
        let mut inst = RelationInstance::from_schema(schema);
        let base = (1i64 << 16) - 1;
        for i in 0..base {
            inst.insert_values((0..4).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[0, 1, 2, 3], 1);
        for i in base..base + 3 {
            inst.insert_values((0..4).map(|j| Value::int(i + j * base)))
                .unwrap();
        }
        let store = inst.columnar();
        let extended = InternedIndex::try_extended(&prev, &inst, &store)
            .expect("width <= 4 always has an exact packing");
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
            let extended = InternedIndex::try_extended(&prev, &inst, &store)
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
        let changes = inst.changed_cells_since(v0).unwrap();
        let store = inst.columnar();
        let patched = InternedIndex::try_patched(&prev, &inst, &store, &changes)
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
        let mut inst = instance(8);
        let prev_store = inst.columnar();
        let prev = InternedIndex::build(&inst, &prev_store, &[1], 1);
        let v0 = inst.version();
        // Rewrite every "s4" cell (only tuple 4 in 0..8) to the brand-new
        // value "fresh": group s4 must vanish, group "fresh" must appear —
        // and the new value outgrows the B radix, exercising the re-pack.
        inst.update_cell(CellRef::new(TupleId(4), 1), Value::str("fresh"))
            .unwrap();
        let changes = inst.changed_cells_since(v0).unwrap();
        let store = inst.columnar();
        let patched = InternedIndex::try_patched(&prev, &inst, &store, &changes)
            .expect("radix outgrowth re-packs in place");
        let fresh = InternedIndex::build(&inst, &store, &[1], 1);
        assert_eq!(canonical_interned(&patched), canonical_interned(&fresh));
        assert!(patched.rows_for_values(&[Value::str("s4")]).is_empty());
        assert_eq!(patched.rows_for_values(&[Value::str("fresh")]).len(), 1);
        assert_eq!(
            patched.group_count(),
            reference::HashIndex::build(&inst, &[1]).len()
        );
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
        let changes = inst.changed_cells_since(v0).unwrap();
        let store = inst.columnar();
        for (prev, attrs) in [(prev_shift, shift_attrs), (prev_wide, wide_attrs)] {
            let patched = InternedIndex::try_patched(&prev, &inst, &store, &changes)
                .expect("radix-free packings patch");
            let fresh = InternedIndex::build(&inst, &store, &attrs, 1);
            assert_eq!(canonical_interned(&patched), canonical_interned(&fresh));
        }
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
