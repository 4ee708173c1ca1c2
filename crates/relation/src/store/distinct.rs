//! Distinct-projection sets over interned columns.
//!
//! IND-style checks (`R1[X] ⊆ R2[Y]`, Section 2.2) reduce to a question
//! about *distinct* projections: every distinct `X`-projection of `R1` must
//! appear among the distinct `Y`-projections of `R2`.  The row-oriented
//! implementation materializes a `BTreeSet<Vec<Value>>` per side per
//! candidate; [`DistinctSet`] replaces that with the packed-key machinery of
//! [`InternedIndex`](super::index::InternedIndex) minus the CSR postings —
//! just the distinct keys, one machine word each for almost every real
//! projection, with a row count each — cached in
//! [`IndexPool`](crate::index::IndexPool) per `(instance, version,
//! attribute list)` and patched in place after appends, removals and cell
//! edits.
//!
//! Cross-relation membership goes through [`IdTranslation`]: the LHS
//! dictionaries are translated into the RHS dictionaries *once per
//! dictionary entry* (`O(distinct values)`), after which each probe is a few
//! array lookups and one hash of a packed word — no `Vec<Value>` is ever
//! materialized.

use super::columnar::{walk_runs, Column, ColumnarStore, SHARD_ROWS};
use super::fx::FxHashMap;
use super::index::{rekey, take_or_clone, KeyCodec, KeyMap, Repr, RowMoves, RunKey};
use super::interner::ValueId;
use crate::instance::{Delta, RelationInstance};
use crate::par::parallel_map;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Arc;

/// The set of distinct projections of one instance onto a fixed attribute
/// list, as packed dictionary-id keys, each with the number of rows that
/// project onto it (so a patch drops a vacated key by one decrement).
///
/// Equality of ids is equality of values per column, so membership answers
/// are identical to the `BTreeSet<Vec<Value>>` the row-oriented projection
/// builds — at a fraction of the memory and with no per-probe allocation.
#[derive(Clone, Debug)]
pub struct DistinctSet {
    attrs: Vec<usize>,
    store: Arc<ColumnarStore>,
    codec: KeyCodec,
    /// Key → number of rows carrying it (never zero).
    keys: KeyMap<u32>,
}

impl DistinctSet {
    /// Builds the distinct-projection set of `instance` on `attrs` over the
    /// columnar snapshot `store`, using up to `threads` workers.
    pub fn build(
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        attrs: &[usize],
        threads: usize,
    ) -> Self {
        Self::build_with_shard_rows(instance, store, attrs, threads, SHARD_ROWS)
    }

    /// [`build`](Self::build) with an explicit shard size (exposed for
    /// exercising the multi-shard union path in tests).
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
        let columns = codec.columns();
        let keys = match &codec.repr {
            Repr::Radix(radices) => {
                KeyMap::U64(collect_keys(columns, radices, n, threads, shard_rows))
            }
            Repr::Shift => KeyMap::U128(collect_keys(columns, &[], n, threads, shard_rows)),
            Repr::Wide => KeyMap::Wide(collect_keys(columns, &[], n, threads, shard_rows)),
        };
        DistinctSet {
            attrs: attrs.to_vec(),
            store: Arc::clone(store),
            codec,
            keys,
        }
    }

    /// Patches `prev` — a set on the same attributes, built over a snapshot
    /// `store` descends from (an earlier version of the same instance, or
    /// the original a clone was taken from) — after insertions, removals and
    /// journaled cell writes: the key counts are carried over (moved out of
    /// `prev` when the caller hands over its only reference, cloned and
    /// counted in `index.patch.shared` when the old set is still held
    /// elsewhere, and re-packed when a key column's dictionary outgrew its
    /// radix), the new key of every changed row (at most one per change)
    /// and of every appended row is counted in, and the old key of every
    /// changed or removed row — packed from `prev`'s columns — is counted
    /// out, leaving the set when its count reaches zero.  Changes touching
    /// only non-key attributes cost nothing, and an append-only gap (an
    /// empty delta) only counts in the appended rows' keys.  Returns `None`
    /// when no exact packing carries over (> 4-wide radix keys whose
    /// widened product overflows `u64`): full rebuild.
    ///
    /// `store` must be the current snapshot of `instance`, and it and its
    /// key columns must [descend from](ColumnarStore::descends_from)
    /// `prev`'s — the memoized [`RelationInstance::columnar`] chain,
    /// carried into clones by re-tagging, guarantees this whenever the
    /// delta journal covers the gap and the key columns were built before
    /// the chain forked; `None` otherwise — so that `prev`'s dictionary ids
    /// stay valid in the new dictionaries and old keys can be computed from
    /// `prev`'s columns.
    pub fn try_patched(
        mut prev: Arc<DistinctSet>,
        instance: &RelationInstance,
        store: &Arc<ColumnarStore>,
        delta: &Delta,
    ) -> Option<DistinctSet> {
        if !store.descends_from(&prev.store, &prev.attrs) {
            return None;
        }
        let columns: Vec<Arc<Column>> = prev
            .attrs
            .iter()
            .map(|&a| store.column(instance, a))
            .collect();
        // Patched dictionaries only ever append to their predecessors.
        debug_assert!(columns
            .iter()
            .zip(prev.codec.columns())
            .all(|(new, old)| new.distinct() >= old.distinct()));
        let keys = take_or_clone(
            &mut prev,
            |owned| std::mem::take(&mut owned.keys),
            |shared| shared.keys.clone(),
        );
        let (mut keys, codec) = rekey(&prev.codec, keys, columns)?;
        let moves = RowMoves::new(&prev.attrs, &prev.store, delta);
        let n_rows = store.len();
        match (&mut keys, &codec.repr) {
            (KeyMap::U64(s), Repr::Radix(radices)) => {
                patch_keys(s, &prev, &moves, codec.columns(), n_rows, |columns, row| {
                    KeyCodec::pack_u64_row(radices, columns, row)
                })
            }
            (KeyMap::U128(s), Repr::Shift) => patch_keys(
                s,
                &prev,
                &moves,
                codec.columns(),
                n_rows,
                KeyCodec::pack_u128_row,
            ),
            (KeyMap::Wide(s), Repr::Wide) => patch_keys(
                s,
                &prev,
                &moves,
                codec.columns(),
                n_rows,
                KeyCodec::pack_wide_row,
            ),
            _ => unreachable!("key set variant always matches codec repr"),
        }
        Some(DistinctSet {
            attrs: prev.attrs.clone(),
            store: Arc::clone(store),
            codec,
            keys,
        })
    }

    /// The attribute positions this set projects onto.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// The columnar snapshot behind the set.
    pub fn store(&self) -> &Arc<ColumnarStore> {
        &self.store
    }

    /// The key columns, positionally aligned with [`attrs`](Self::attrs).
    pub fn columns(&self) -> &[Arc<Column>] {
        self.codec.columns()
    }

    /// Number of distinct projections.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `value` in the `pos`-th key column's dictionary, if any
    /// tuple carries it there.
    pub fn lookup_id(&self, pos: usize, value: &Value) -> Option<ValueId> {
        self.codec.columns()[pos].interner().lookup(value)
    }

    /// Does some tuple project onto the id tuple `key` (ids from *this*
    /// set's dictionaries)?
    pub fn contains_ids(&self, key: &[ValueId]) -> bool {
        debug_assert_eq!(key.len(), self.attrs.len());
        match (&self.keys, &self.codec.repr) {
            (KeyMap::U64(s), Repr::Radix(radices)) => {
                s.contains_key(&KeyCodec::pack_u64_ids(radices, key))
            }
            (KeyMap::U128(s), _) => s.contains_key(&KeyCodec::pack_u128_ids(key)),
            (KeyMap::Wide(s), _) => s.contains_key(key),
            _ => unreachable!("key set variant always matches codec repr"),
        }
    }

    /// Does some tuple project onto the value tuple `key`?  A value absent
    /// from its column's dictionary cannot match.
    pub fn contains_values(&self, key: &[Value]) -> bool {
        let mut ids = Vec::with_capacity(key.len());
        for (pos, v) in key.iter().enumerate() {
            match self.lookup_id(pos, v) {
                Some(id) => ids.push(id),
                None => return false,
            }
        }
        self.contains_ids(&ids)
    }

    /// Iterates over the distinct projections as id tuples, in unspecified
    /// order.
    pub fn iter_ids(&self) -> Box<dyn Iterator<Item = Vec<ValueId>> + '_> {
        let width = self.attrs.len();
        match (&self.keys, &self.codec.repr) {
            (KeyMap::U64(s), Repr::Radix(radices)) => {
                Box::new(s.keys().map(move |&k| KeyCodec::unpack_u64(radices, k)))
            }
            (KeyMap::U128(s), _) => {
                Box::new(s.keys().map(move |&k| KeyCodec::unpack_u128(width, k)))
            }
            (KeyMap::Wide(s), _) => Box::new(s.keys().map(|k| k.to_vec())),
            _ => unreachable!("key set variant always matches codec repr"),
        }
    }

    /// Does `f` hold for every distinct projection?  Keys are decoded into
    /// one reused buffer, so the hot probe paths ([`included_in`]
    /// (Self::included_in), [`key_count`](Self::key_count)) allocate
    /// nothing per key.
    fn all_keys(&self, mut f: impl FnMut(&[ValueId]) -> bool) -> bool {
        let mut buf = vec![ValueId(0); self.attrs.len()];
        match (&self.keys, &self.codec.repr) {
            (KeyMap::U64(s), Repr::Radix(radices)) => s.keys().all(|&k| {
                KeyCodec::unpack_u64_into(radices, k, &mut buf);
                f(&buf)
            }),
            (KeyMap::U128(s), _) => s.keys().all(|&k| {
                KeyCodec::unpack_u128_into(k, &mut buf);
                f(&buf)
            }),
            (KeyMap::Wide(s), _) => s.keys().all(|k| f(k)),
            _ => unreachable!("key set variant always matches codec repr"),
        }
    }

    /// The per-position ids of `Value::Null` in this set's dictionaries
    /// (`None` where the column has no null cell).  Used by SQL-style IND
    /// semantics to skip keys with a null component.
    pub fn null_ids(&self) -> Vec<Option<ValueId>> {
        self.codec
            .columns()
            .iter()
            .map(|c| c.interner().lookup(&Value::Null))
            .collect()
    }

    /// Number of distinct projections, optionally not counting projections
    /// with a `Value::Null` component (SQL-style IND semantics).
    pub fn key_count(&self, skip_null_keys: bool) -> usize {
        if !skip_null_keys {
            return self.len();
        }
        let nulls = self.null_ids();
        if nulls.iter().all(Option::is_none) {
            return self.len();
        }
        let mut count = 0usize;
        self.all_keys(|ids| {
            count += usize::from(!key_has_null(ids, &nulls));
            true
        });
        count
    }

    /// Is every distinct projection of `self` (optionally skipping
    /// projections with a null component) also a projection of `other`?
    ///
    /// The two sets may come from different relations: ids are translated
    /// between the dictionaries once per dictionary entry, not per key.
    pub fn included_in(&self, other: &DistinctSet, skip_null_keys: bool) -> bool {
        debug_assert_eq!(self.attrs.len(), other.attrs.len());
        // Counting argument: more distinct keys than the candidate superset
        // has cannot be a subset — decides most non-inclusions (foreign-key
        // shaped columns probed against smaller targets) without building
        // the translation tables at all.
        if self.key_count(skip_null_keys) > other.len() {
            return false;
        }
        let translation = IdTranslation::new(self.columns(), other.columns());
        let nulls = if skip_null_keys {
            self.null_ids()
        } else {
            vec![None; self.attrs.len()]
        };
        let mut translated = Vec::with_capacity(self.attrs.len());
        self.all_keys(|ids| {
            (skip_null_keys && key_has_null(ids, &nulls))
                || (translation.translate(ids, &mut translated) && other.contains_ids(&translated))
        })
    }

    /// Approximate heap bytes of the key set itself (the backing columns are
    /// shared and reported by [`ColumnarStore::stats`]).
    pub fn approx_heap_bytes(&self) -> usize {
        match &self.keys {
            KeyMap::U64(s) => s.capacity() * (size_of::<(u64, u32)>() + 1),
            KeyMap::U128(s) => s.capacity() * (size_of::<(u128, u32)>() + 1),
            KeyMap::Wide(s) => {
                s.capacity() * (size_of::<(Box<[ValueId]>, u32)>() + 1)
                    + s.keys()
                        .map(|k| k.len() * size_of::<ValueId>())
                        .sum::<usize>()
            }
        }
    }
}

/// Does the id tuple contain a component equal to its column's null id?
#[inline]
fn key_has_null(ids: &[ValueId], nulls: &[Option<ValueId>]) -> bool {
    ids.iter().zip(nulls).any(|(id, null)| Some(*id) == *null)
}

/// Per-position translation tables from one relation's column dictionaries
/// into another's, built once per dictionary (`O(distinct values)`) so that
/// cross-relation probes cost a few array lookups per key instead of hashing
/// a `Vec<Value>` per tuple.
#[derive(Debug)]
pub struct IdTranslation {
    /// `tables[pos][from_id] = Some(to_id)` when the value exists in the
    /// target dictionary, `None` when it cannot match any target tuple.
    tables: Vec<Vec<Option<ValueId>>>,
}

impl IdTranslation {
    /// Builds the translation from `from` dictionaries into positionally
    /// aligned `to` dictionaries.
    pub fn new(from: &[Arc<Column>], to: &[Arc<Column>]) -> Self {
        debug_assert_eq!(from.len(), to.len());
        IdTranslation {
            tables: from
                .iter()
                .zip(to)
                .map(|(f, t)| {
                    f.interner()
                        .values()
                        .iter()
                        .map(|v| t.interner().lookup(v))
                        .collect()
                })
                .collect(),
        }
    }

    /// Translates a source id tuple into `out`; `false` means some component
    /// value is absent from the target dictionary (and can match nothing).
    #[inline]
    pub fn translate(&self, ids: &[ValueId], out: &mut Vec<ValueId>) -> bool {
        out.clear();
        for (table, id) in self.tables.iter().zip(ids) {
            match table[id.index()] {
                Some(t) => out.push(t),
                None => return false,
            }
        }
        true
    }

    /// Translates the projection of row `row` of the source columns into
    /// `out`; `false` means some cell's value is absent from the target
    /// dictionary.
    #[inline]
    pub fn translate_row(
        &self,
        columns: &[Arc<Column>],
        row: usize,
        out: &mut Vec<ValueId>,
    ) -> bool {
        out.clear();
        for (table, col) in self.tables.iter().zip(columns) {
            match table[col.id_at(row).index()] {
                Some(t) => out.push(t),
                None => return false,
            }
        }
        true
    }
}

/// Delta patch of `prev`'s (possibly re-packed) key counts `keys` over a
/// snapshot of `n_rows` rows whose key columns are `columns`: count in the
/// new key of every moved row and every row appended after `prev`, and
/// count out the old key — packed from `prev`'s columns — of every moved
/// and every removed row, dropping keys whose count reaches zero.
fn patch_keys<K: Eq + Hash>(
    keys: &mut FxHashMap<K, u32>,
    prev: &DistinctSet,
    moves: &RowMoves,
    columns: &[Arc<Column>],
    n_rows: usize,
    key_at: impl Fn(&[Arc<Column>], usize) -> K,
) {
    for &row in &moves.moved {
        *keys
            .entry(key_at(columns, moves.renumber(row)))
            .or_insert(0) += 1;
    }
    for row in prev.store.len() - moves.removed.len()..n_rows {
        *keys.entry(key_at(columns, row)).or_insert(0) += 1;
    }
    for &row in moves.moved.iter().chain(&moves.removed) {
        let Entry::Occupied(mut count) = keys.entry(key_at(prev.codec.columns(), row)) else {
            unreachable!("an old row's key is counted");
        };
        *count.get_mut() -= 1;
        if *count.get() == 0 {
            count.remove();
        }
    }
}

/// Parallel distinct-key collection with per-key row counts over the key
/// `columns` (packed under `radices` for `u64` keys): scan shards, reading
/// each shard's ids as chunk slices, into local maps (claimed from the
/// shared pool when `threads > 1`), then
/// add them up in any order — counts are order-free, so no merge
/// bookkeeping is needed.
fn collect_keys<K: RunKey>(
    columns: &[Arc<Column>],
    radices: &[u64],
    n_rows: usize,
    threads: usize,
    shard_rows: usize,
) -> FxHashMap<K, u32> {
    let shard_rows = shard_rows.max(1);
    let shard_count = n_rows.div_ceil(shard_rows).max(1);
    let shard_range = |s: usize| (s * shard_rows).min(n_rows)..((s + 1) * shard_rows).min(n_rows);
    let scan = |range: std::ops::Range<usize>| -> FxHashMap<K, u32> {
        // Inserted one by one: the map grows with its distinct keys, not
        // with the row count a bulk `collect` would reserve.
        let mut set = FxHashMap::default();
        let mut keys = Vec::new();
        walk_runs(columns, range, |_, len, ids| {
            K::pack_run(radices, ids, len, &mut keys);
            for key in keys.drain(..) {
                *set.entry(key).or_insert(0) += 1;
            }
        });
        set
    };
    let add = |out: &mut FxHashMap<K, u32>, part: FxHashMap<K, u32>| {
        for (key, count) in part {
            *out.entry(key).or_insert(0) += count;
        }
    };
    if threads <= 1 || shard_count <= 1 {
        // Sequentially, fold each shard in as it is scanned so only one
        // shard-local map is live at a time.
        let mut out = scan(shard_range(0));
        for s in 1..shard_count {
            add(&mut out, scan(shard_range(s)));
        }
        return out;
    }
    let shard_ids: Vec<usize> = (0..shard_count).collect();
    let mut out = FxHashMap::default();
    for part in parallel_map(&shard_ids, threads, |&s| scan(shard_range(s))) {
        add(&mut out, part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, RelationSchema};
    use std::collections::BTreeSet;

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

    /// The radices of a mixed-radix set.
    fn radices(set: &DistinctSet) -> Vec<u64> {
        match &set.codec.repr {
            Repr::Radix(radices) => radices.clone(),
            _ => panic!("expected a mixed-radix packing"),
        }
    }

    /// Canonical view: the set of resolved value tuples.
    fn canonical(set: &DistinctSet) -> BTreeSet<String> {
        set.iter_ids()
            .map(|ids| {
                let key: Vec<&Value> = ids
                    .iter()
                    .zip(set.columns())
                    .map(|(&id, col)| col.interner().resolve(id))
                    .collect();
                format!("{key:?}")
            })
            .collect()
    }

    #[test]
    fn distinct_set_equals_row_oriented_projection() {
        let inst = instance(100);
        let store = inst.columnar();
        for attrs in [&[0usize][..], &[1], &[0, 1], &[0, 1, 2], &[]] {
            let set = DistinctSet::build(&inst, &store, attrs, 1);
            let reference = inst.project_distinct(attrs);
            assert_eq!(set.len(), reference.len(), "attrs {attrs:?}");
            for key in &reference {
                assert!(set.contains_values(key), "attrs {attrs:?}, key {key:?}");
            }
            assert!(
                !set.contains_values(
                    &attrs
                        .iter()
                        .map(|_| Value::str("missing"))
                        .collect::<Vec<_>>()
                ) || attrs.is_empty()
            );
        }
    }

    #[test]
    fn sharded_parallel_build_matches_sequential() {
        let inst = instance(257);
        let store = inst.columnar();
        let sequential = DistinctSet::build(&inst, &store, &[0, 1], 1);
        for (threads, shard_rows) in [(1, 16), (4, 16), (4, 50), (3, 1)] {
            let sharded =
                DistinctSet::build_with_shard_rows(&inst, &store, &[0, 1], threads, shard_rows);
            assert_eq!(
                canonical(&sharded),
                canonical(&sequential),
                "threads {threads}, shard_rows {shard_rows}"
            );
        }
    }

    #[test]
    fn extension_equals_fresh_build_even_under_dictionary_growth() {
        let mut inst = instance(40);
        let prev_store = inst.columnar();
        let prev = DistinctSet::build(&inst, &prev_store, &[0, 1], 1);
        assert_eq!(radices(&prev), [8, 8]);
        // A's new values 9 and 10 grow its dictionary from 7 to 9 entries,
        // past its radix of 8: the extension re-packs.
        inst.insert_values([Value::int(9), Value::str("fresh"), Value::int(999)])
            .unwrap();
        inst.insert_values([Value::int(10), Value::str("s1"), Value::int(1000)])
            .unwrap();
        let store = inst.columnar();
        let extended = DistinctSet::try_patched(Arc::new(prev), &inst, &store, &Delta::default())
            .expect("repack-aware extension");
        let fresh = DistinctSet::build(&inst, &store, &[0, 1], 1);
        assert_eq!(radices(&extended), [16, 8]);
        assert_eq!(radices(&extended), radices(&fresh));
        assert_eq!(canonical(&extended), canonical(&fresh));
        assert!(extended.contains_values(&[Value::int(9), Value::str("fresh")]));
    }

    #[test]
    fn patched_set_equals_fresh_build() {
        use crate::instance::{CellRef, TupleId};
        let mut inst = instance(40);
        let prev_store = inst.columnar();
        let prev = DistinctSet::build(&inst, &prev_store, &[0, 1], 1);
        let v0 = inst.version();
        // Move four rows to brand-new values, growing B's dictionary from 5
        // to 9 entries past its radix of 8 (a re-pack), edit a non-key
        // attribute (must cost nothing), and append a row.
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("fresh"))
            .unwrap();
        for t in 1..4 {
            inst.update_cell(CellRef::new(TupleId(t), 1), Value::str(format!("new{t}")))
                .unwrap();
        }
        inst.update_cell(CellRef::new(TupleId(5), 2), Value::int(-5))
            .unwrap();
        inst.insert_values([Value::int(0), Value::str("s0"), Value::int(999)])
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        let patched = DistinctSet::try_patched(Arc::new(prev), &inst, &store, &delta)
            .expect("repack-aware patch");
        let fresh = DistinctSet::build(&inst, &store, &[0, 1], 1);
        assert_eq!(radices(&patched), [8, 16]);
        assert_eq!(canonical(&patched), canonical(&fresh));
        assert_eq!(patched.len(), inst.project_distinct(&[0, 1]).len());
        assert!(patched.contains_values(&[Value::int(0), Value::str("fresh")]));
    }

    #[test]
    fn patch_keeps_keys_other_rows_still_hold() {
        use crate::instance::{CellRef, TupleId};
        // Two rows share the key (1, "a"); moving one away must NOT drop
        // the key, while moving the only (2, "b") row must.
        let schema = RelationSchema::new("r", [("A", Domain::Int), ("B", Domain::Text)]);
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b) in [(1, "a"), (1, "a"), (2, "b")] {
            inst.insert_values([Value::int(a), Value::str(b)]).unwrap();
        }
        let prev_store = inst.columnar();
        let prev = DistinctSet::build(&inst, &prev_store, &[0, 1], 1);
        let v0 = inst.version();
        inst.update_cell(CellRef::new(TupleId(0), 0), Value::int(2))
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(2), 0), Value::int(1))
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        let patched =
            DistinctSet::try_patched(Arc::new(prev), &inst, &store, &delta).expect("no overflow");
        let fresh = DistinctSet::build(&inst, &store, &[0, 1], 1);
        assert_eq!(canonical(&patched), canonical(&fresh));
        assert!(patched.contains_values(&[Value::int(1), Value::str("a")]));
        assert!(patched.contains_values(&[Value::int(2), Value::str("a")]));
        assert!(patched.contains_values(&[Value::int(1), Value::str("b")]));
        assert!(!patched.contains_values(&[Value::int(2), Value::str("b")]));
    }

    #[test]
    fn patch_whose_moved_row_vacates_its_key_equals_a_fresh_build() {
        use crate::instance::{CellRef, TupleId};
        // Every C value is unique, so on [0, 1, 2] each row owns its key:
        // moving a row vacates its old key, and removing one drops its key.
        let mut inst = instance(30);
        let attrs = [0, 1, 2];
        let prev_store = inst.columnar();
        let prev = DistinctSet::build(&inst, &prev_store, &attrs, 1);
        let v0 = inst.version();
        inst.update_cell(CellRef::new(TupleId(4), 2), Value::int(1_000))
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(9), 0), Value::int(3))
            .unwrap();
        inst.remove(TupleId(0));
        inst.remove(TupleId(17));
        inst.insert_values([Value::int(2), Value::str("s2"), Value::int(4)])
            .unwrap();
        let delta = inst.delta_since(v0).unwrap();
        let store = inst.columnar();
        let patched =
            DistinctSet::try_patched(Arc::new(prev), &inst, &store, &delta).expect("no overflow");
        let fresh = DistinctSet::build(&inst, &store, &attrs, 1);
        assert_eq!(canonical(&patched), canonical(&fresh));
        assert_eq!(patched.len(), inst.project_distinct(&attrs).len());
        assert!(!patched.contains_values(&[Value::int(4), Value::str("s4"), Value::int(4)]));
        assert!(patched.contains_values(&[Value::int(2), Value::str("s2"), Value::int(4)]));
        assert!(!patched.contains_values(&[Value::int(0), Value::str("s0"), Value::int(0)]));
        // Removing every row empties the set.
        let v1 = inst.version();
        for id in inst.ids() {
            inst.remove(id);
        }
        let delta = inst.delta_since(v1).unwrap();
        let store = inst.columnar();
        let emptied = DistinctSet::try_patched(Arc::new(patched), &inst, &store, &delta)
            .expect("no overflow");
        assert!(emptied.is_empty());
    }

    #[test]
    fn included_in_translates_between_dictionaries() {
        let lhs = instance(20); // A values 0..=6, a strict subset of rows
        let rhs = instance(60);
        let lhs_set = DistinctSet::build(&lhs, &lhs.columnar(), &[0], 1);
        let rhs_set = DistinctSet::build(&rhs, &rhs.columnar(), &[0], 1);
        assert!(lhs_set.included_in(&rhs_set, false));
        // A value missing from the RHS dictionary breaks inclusion...
        let mut bigger = instance(5);
        bigger
            .insert_values([Value::int(100), Value::str("x"), Value::int(0)])
            .unwrap();
        let bigger_set = DistinctSet::build(&bigger, &bigger.columnar(), &[0], 1);
        assert!(!bigger_set.included_in(&rhs_set, false));
        // ...unless the offending key is null and null keys are skipped.
        let mut nullish = instance(5);
        nullish
            .insert_values([Value::Null, Value::str("x"), Value::int(0)])
            .unwrap();
        let null_set = DistinctSet::build(&nullish, &nullish.columnar(), &[0], 1);
        assert!(!null_set.included_in(&rhs_set, false));
        assert!(null_set.included_in(&rhs_set, true));
        assert_eq!(null_set.key_count(false), null_set.key_count(true) + 1);
    }

    #[test]
    fn empty_attribute_list_has_one_key() {
        let inst = instance(10);
        let set = DistinctSet::build(&inst, &inst.columnar(), &[], 1);
        assert_eq!(set.len(), 1);
        assert!(set.contains_ids(&[]));
        let none = instance(0);
        let empty = DistinctSet::build(&none, &none.columnar(), &[0], 1);
        assert!(empty.is_empty());
    }
}
