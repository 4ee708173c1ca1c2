//! Dictionary encoding of [`Value`]s into dense [`ValueId`]s.
//!
//! Detection algorithms group, probe and compare attribute values millions of
//! times; materializing `Vec<Value>` keys per tuple dominates both the time
//! and the memory of a cold detection pass.  A [`ValueInterner`] maps every
//! distinct value of a column to a dense `u32` so that downstream
//! structures (columns, index keys, group projections) operate on machine
//! integers instead.
//!
//! The encoding preserves the semantics of [`Value`]'s `Eq`/`Hash` (two
//! values receive the same id iff they are equal, including `Null == Null`
//! and the IEEE-754 total order treatment of `Real`, under which `NaN ==
//! NaN` and `-0.0 != +0.0`) and exposes `Ord` through
//! [`ValueInterner::cmp_ids`], which compares the *values* behind two ids —
//! ids themselves are assigned in first-seen order and carry no order.

use super::fx::FxHasher;
use crate::value::{hash_str, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::{Index, Range};
use std::sync::Arc;

/// Dense identifier of a distinct value within one [`ValueInterner`].
///
/// Ids from different interners (different columns) are unrelated; comparing
/// them is only meaningful through the interner that issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a zero-based dictionary index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A tail shorter than this never folds, so small dictionaries patched
/// round after round do not re-copy their prefix every few values.
pub(crate) const FOLD_MIN: usize = 64;
/// A non-empty prefix of `p` entries absorbs its tail once the tail reaches
/// `p / FOLD_FRACTION` entries: a fold copies `O(p)` when the prefix is
/// shared, so each new value pays `O(FOLD_FRACTION)` amortized, while a
/// clone copies at most `p / FOLD_FRACTION` tail entries.
pub(crate) const FOLD_FRACTION: usize = 32;

/// A value dictionary: distinct [`Value`]s in first-seen order, with a
/// reverse index for interning and lookup.
///
/// The reverse index is an open-addressed table of ids: each slot holds an
/// entry's id and its stored hash, and a probe checks equality against the
/// entry itself, so a value is hashed once per probe, is stored once (no
/// cloned key), and growth re-slots entries from their stored hashes
/// without hashing a value again.
///
/// The entries live in two runs: an immutable `Arc`-shared *prefix* and an
/// owned *tail*.  A dictionary is built in its tail; the column
/// constructors ([`Column`](super::columnar::Column)) then *seal* it,
/// moving the tail into the prefix without copying, so fresh column
/// builds, CSV ingest and [`from_frozen`](Self::from_frozen) all end with
/// an empty tail.  Cloning a dictionary shares the prefix and copies only
/// the tail, so a snapshot patch (which clones the previous snapshot's
/// dictionaries and interns the new cells) costs `O(new values)`, not
/// `O(distinct values)`.  Behind a non-empty prefix the tail folds into a
/// new prefix once it reaches a size proportional to the prefix (see
/// `FOLD_FRACTION`).  Ids are positions in the concatenation, so sealing
/// and folding never change an id.
///
/// A dictionary re-hydrated from a persisted relation (see
/// [`super::persist`]) tracks how many of its entries came off disk
/// (`frozen`): the frozen prefix is immutable and already durable, so a
/// subsequent save spills only the *overlay* — entries interned since the
/// open — as a new dictionary segment.  Re-opening a saved relation
/// therefore interns nothing at all; only genuinely new values ever pass
/// through [`intern`](Self::intern) again.
///
/// The map-backed dictionary this replaced is kept as the test oracle
/// [`crate::reference::MapInterner`].
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    /// Entries `0..prefix.len()`, shared with clones.
    prefix: Arc<Entries>,
    /// Entries `prefix.len()..len`, owned.
    tail: Entries,
    /// Entries `0..frozen` are persisted; `frozen..len` is the in-memory
    /// overlay.  Always `0` for interners never loaded from disk.
    frozen: usize,
}

/// The hash a dictionary stores per entry: the Fx hash of the value (a
/// text probe hashes its `&str` exactly as [`Value::Str`] hashes), folded
/// to 32 bits.
#[inline]
fn hash_value(value: &Value) -> u32 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish() as u32
}

#[inline]
fn hash_text(s: &str) -> u32 {
    let mut h = FxHasher::default();
    hash_str(s, &mut h);
    h.finish() as u32
}

/// A slot of an [`IdTable`]: an entry's position in its run and its stored
/// hash; `pos == VACANT` marks a free slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u32,
    pos: u32,
}

const VACANT: u32 = u32::MAX;
/// The smallest non-empty table: a dictionary of a handful of values
/// probes one cache line.
const MIN_SLOTS: usize = 8;
/// Tables up to this many slots (16 KiB) are kept at most a quarter full.
const SMALL_SLOTS: usize = 2048;

/// Open-addressed, linearly probed table of entry positions, kept at most
/// half full (a quarter while small) so a probe meets a vacant slot within
/// a few steps.  A slot's
/// position is the id; equality is decided against the entry it names.
#[derive(Clone, Debug, Default)]
struct IdTable {
    /// A power of two long, or empty.
    slots: Vec<Slot>,
}

impl IdTable {
    /// A table sized for `n` entries.
    fn with_entries(n: usize) -> Self {
        let mut table = IdTable::default();
        table.reserve(n);
        table
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    /// The position of the entry with stored hash `hash` that `is_equal`
    /// accepts.
    #[inline]
    fn find(&self, hash: u32, mut is_equal: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.pos == VACANT {
                return None;
            }
            if slot.hash == hash && is_equal(slot.pos as usize) {
                return Some(slot.pos as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Slots position `pos` under `hash`.  The caller has checked that no
    /// equal entry is present and reserved room.
    #[inline]
    fn insert(&mut self, hash: u32, pos: usize) {
        let mask = self.mask();
        let mut i = hash as usize & mask;
        while self.slots[i].pos != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot {
            hash,
            pos: pos as u32,
        };
    }

    /// The table length for `n` entries: at most half full, and at most a
    /// quarter full while the table is small, where the shorter probe runs
    /// cost a few kilobytes.
    fn slots_for(n: usize) -> usize {
        let quarter = (n * 4).next_power_of_two().max(MIN_SLOTS);
        match quarter <= SMALL_SLOTS {
            true => quarter,
            false => (n * 2).next_power_of_two(),
        }
    }

    /// Makes room for `n` entries in all, re-slotting the present ones
    /// from their stored hashes.
    fn reserve(&mut self, n: usize) {
        let size = Self::slots_for(n);
        if size <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    hash: 0,
                    pos: VACANT
                };
                size
            ],
        );
        for slot in old.into_iter().filter(|s| s.pos != VACANT) {
            self.insert(slot.hash, slot.pos as usize);
        }
    }

    /// The occupied slots.
    fn occupied(&self) -> impl Iterator<Item = Slot> + '_ {
        self.slots.iter().copied().filter(|s| s.pos != VACANT)
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
    }
}

/// One contiguous run of dictionary entries with its id table and a
/// running total of its string payload bytes.
#[derive(Clone, Debug, Default)]
struct Entries {
    table: IdTable,
    values: Vec<Value>,
    str_bytes: usize,
}

impl Entries {
    /// The position of `value` in this run.
    #[inline]
    fn find_value(&self, hash: u32, value: &Value) -> Option<usize> {
        self.table.find(hash, |pos| self.values[pos] == *value)
    }

    /// The position of the text value `s` in this run.
    #[inline]
    fn find_text(&self, hash: u32, s: &str) -> Option<usize> {
        self.table.find(
            hash,
            |pos| matches!(&self.values[pos], Value::Str(t) if **t == *s),
        )
    }

    /// Appends a value known to be absent from this run.
    fn push(&mut self, hash: u32, value: Value) {
        if let Value::Str(s) = &value {
            self.str_bytes += s.len();
        }
        self.table.reserve(self.values.len() + 1);
        self.table.insert(hash, self.values.len());
        self.values.push(value);
    }

    /// Appends the entries of `tail`, re-slotted from its stored hashes.
    fn absorb(&mut self, tail: Entries) {
        let base = self.values.len();
        self.table.reserve(base + tail.values.len());
        for slot in tail.table.occupied() {
            self.table.insert(slot.hash, base + slot.pos as usize);
        }
        self.values.extend(tail.values);
        self.str_bytes += tail.str_bytes;
    }

    /// Bytes of the id table alone.
    fn index_heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    fn heap_bytes(&self) -> usize {
        self.index_heap_bytes() + self.values.capacity() * size_of::<Value>() + self.str_bytes
    }
}

/// A persisted dictionary holding two equal entries, at positions `first`
/// and `second`: ids would then not be values.  See
/// [`ValueInterner::from_frozen`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateEntry {
    /// The earlier of the two positions.
    pub first: usize,
    /// The later one.
    pub second: usize,
}

/// The entries of a [`ValueInterner`] in id order, borrowed as the shared
/// prefix followed by the owned tail.  Index it by id position, iterate it,
/// or cut a sub-range with [`slice`](Self::slice).
#[derive(Clone, Copy, Debug)]
pub struct DictValues<'a> {
    head: &'a [Value],
    tail: &'a [Value],
}

/// Iterator over the entries of a [`DictValues`], in id order.
pub type DictIter<'a> = std::iter::Chain<std::slice::Iter<'a, Value>, std::slice::Iter<'a, Value>>;

impl<'a> DictValues<'a> {
    /// The entries `head` followed by `tail`.
    pub(crate) fn from_runs(head: &'a [Value], tail: &'a [Value]) -> Self {
        DictValues { head, tail }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at position `i`, if any.
    pub fn get(&self, i: usize) -> Option<&'a Value> {
        match i.checked_sub(self.head.len()) {
            None => Some(&self.head[i]),
            Some(t) => self.tail.get(t),
        }
    }

    /// The entries in id order.
    pub fn iter(&self) -> DictIter<'a> {
        self.head.iter().chain(self.tail.iter())
    }

    /// The entries at positions `range`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> DictValues<'a> {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "dictionary range out of bounds"
        );
        let split = self.head.len();
        let clamp = |i: usize| i.min(split);
        DictValues {
            head: &self.head[clamp(range.start)..clamp(range.end)],
            tail: &self.tail[range.start.max(split) - split..range.end.max(split) - split],
        }
    }
}

impl<'a> Index<usize> for DictValues<'a> {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.get(i).expect("dictionary position out of bounds")
    }
}

impl<'a> IntoIterator for DictValues<'a> {
    type Item = &'a Value;
    type IntoIter = DictIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for DictValues<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Summary counters of a [`ValueInterner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Number of distinct values in the dictionary.
    pub distinct: usize,
    /// Approximate heap bytes held by the dictionary (map + values + string
    /// payloads).
    pub heap_bytes: usize,
}

impl dq_obs::MetricSource for InternerStats {
    fn emit(&self, prefix: &str, sink: &mut dyn dq_obs::MetricSink) {
        sink.gauge(
            &format!("{prefix}.distinct"),
            i64::try_from(self.distinct).unwrap_or(i64::MAX),
        );
        sink.gauge(
            &format!("{prefix}.heap_bytes"),
            i64::try_from(self.heap_bytes).unwrap_or(i64::MAX),
        );
    }
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an interner from a persisted dictionary: `values` are the
    /// decoded entries in id order, all marked frozen.  The id table is
    /// filled in one pass — `O(distinct values)`, not `O(rows)` — which is
    /// the whole cost of re-opening a dictionary.  Two equal entries are
    /// refused: equal cells could then carry either id, and a grouping by id
    /// would split them.
    pub fn from_frozen(values: Vec<Value>) -> Result<Self, DuplicateEntry> {
        let mut table = IdTable::with_entries(values.len());
        let mut str_bytes = 0;
        for (pos, value) in values.iter().enumerate() {
            let hash = hash_value(value);
            if let Some(first) = table.find(hash, |p| values[p] == *value) {
                return Err(DuplicateEntry { first, second: pos });
            }
            table.insert(hash, pos);
            if let Value::Str(s) = value {
                str_bytes += s.len();
            }
        }
        let frozen = values.len();
        Ok(ValueInterner {
            prefix: Arc::new(Entries {
                table,
                values,
                str_bytes,
            }),
            tail: Entries::default(),
            frozen,
        })
    }

    /// Number of entries already persisted (the frozen prefix); `0` for
    /// interners that never touched disk.
    pub fn frozen_len(&self) -> usize {
        self.frozen
    }

    /// The in-memory overlay: entries interned since the dictionary was
    /// loaded (or all entries, when it never was).  These are what a save
    /// spills as the next dictionary segment.
    pub fn overlay(&self) -> DictValues<'_> {
        self.values().slice(self.frozen..self.len())
    }

    /// Marks every current entry as persisted.  Called by the persist layer
    /// after spilling the overlay to disk.
    pub fn mark_frozen(&mut self) {
        self.frozen = self.len();
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.prefix.values.len() + self.tail.values.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a value, returning its id.  Equal values (by [`Value`]'s `Eq`,
    /// which includes `Null == Null` and NaN-equal-NaN via the IEEE total
    /// order) always receive the same id; the first occurrence is cloned into
    /// the dictionary.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        let hash = hash_value(value);
        if let Some(id) = self.find(|run| run.find_value(hash, value)) {
            return id;
        }
        self.push(hash, value.clone())
    }

    /// Interns the text value `s`, returning its id.  The dictionary is
    /// probed by the borrowed `&str` (hashed exactly as [`Value::Str`]
    /// hashes), so a string is allocated only when it is new to the column.
    pub fn intern_str(&mut self, s: &str) -> ValueId {
        let hash = hash_text(s);
        if let Some(id) = self.find(|run| run.find_text(hash, s)) {
            return id;
        }
        self.push(hash, Value::Str(Arc::from(s)))
    }

    /// Probes the prefix, then the tail — each only when it has entries.
    #[inline]
    fn find(&self, probe: impl Fn(&Entries) -> Option<usize>) -> Option<ValueId> {
        let split = self.prefix.values.len();
        if split > 0 {
            if let Some(pos) = probe(&self.prefix) {
                return Some(ValueId(pos as u32));
            }
        }
        if self.tail.values.is_empty() {
            return None;
        }
        probe(&self.tail).map(|pos| ValueId((split + pos) as u32))
    }

    /// Appends a value known to be absent from the dictionary to the tail,
    /// folding the tail into the prefix once it is long enough.
    fn push(&mut self, hash: u32, value: Value) -> ValueId {
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != VACANT)
            .expect("more than u32::MAX - 1 distinct values in one column");
        self.tail.push(hash, value);
        let prefix = self.prefix.values.len();
        if prefix > 0 && self.tail.values.len() >= FOLD_MIN.max(prefix / FOLD_FRACTION) {
            Arc::make_mut(&mut self.prefix).absorb(std::mem::take(&mut self.tail));
            dq_obs::inc("store.dict.folds");
        }
        ValueId(id)
    }

    /// Moves a freshly built dictionary (empty prefix) into its prefix
    /// without copying, so clones share it from then on.  A dictionary with
    /// a prefix already is left alone: its tail is kept short by folding.
    /// Ids, lookups and entries are unchanged.
    pub fn seal(&mut self) {
        if self.prefix.values.is_empty() {
            self.prefix = Arc::new(std::mem::take(&mut self.tail));
        }
    }

    /// Interns a value and hands back the *canonical* stored copy, so that
    /// repeated occurrences of the same string share one `Arc` allocation.
    /// Generators use this to dictionary-compress instances at build time.
    pub fn canonical(&mut self, value: Value) -> Value {
        let id = self.intern(&value);
        self.resolve(id).clone()
    }

    /// The id of a value, if it has been interned.  `None` means no cell of
    /// the column carries this value — useful for short-circuiting probes.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        let hash = hash_value(value);
        self.find(|run| run.find_value(hash, value))
    }

    /// The value behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this interner.
    #[inline]
    pub fn resolve(&self, id: ValueId) -> &Value {
        let head = &self.prefix.values;
        match id.index().checked_sub(head.len()) {
            None => &head[id.index()],
            Some(t) => &self.tail.values[t],
        }
    }

    /// Compares the *values* behind two ids, preserving [`Value`]'s total
    /// order (ids are assigned in first-seen order and are not themselves
    /// ordered).
    pub fn cmp_ids(&self, a: ValueId, b: ValueId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.resolve(a).cmp(self.resolve(b))
    }

    /// All distinct values, in id order.
    pub fn values(&self) -> DictValues<'_> {
        DictValues {
            head: &self.prefix.values,
            tail: &self.tail.values,
        }
    }

    /// Approximate heap bytes held by the dictionary, in `O(1)`: the id
    /// tables, the values and their string payloads (kept as running
    /// totals).  A prefix shared with clones is counted in full by each of
    /// them.
    pub fn approx_heap_bytes(&self) -> usize {
        self.prefix.heap_bytes() + self.tail.heap_bytes()
    }

    /// The part of [`approx_heap_bytes`](Self::approx_heap_bytes) held by
    /// the reverse index (the id tables); the rest is the values.
    pub fn index_heap_bytes(&self) -> usize {
        self.prefix.index_heap_bytes() + self.tail.index_heap_bytes()
    }

    /// Summary counters for reporting.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            distinct: self.len(),
            heap_bytes: self.approx_heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_an_id() {
        let mut interner = ValueInterner::new();
        let a = interner.intern(&Value::str("EDI"));
        let b = interner.intern(&Value::str("EDI"));
        let c = interner.intern(&Value::str("NYC"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = ValueInterner::new();
        for v in [
            Value::Null,
            Value::bool(true),
            Value::int(-7),
            Value::real(2.5),
            Value::str(""),
            Value::str("Mayfield"),
        ] {
            let id = interner.intern(&v);
            assert_eq!(interner.resolve(id), &v);
            assert_eq!(interner.lookup(&v), Some(id));
        }
        assert_eq!(interner.lookup(&Value::str("absent")), None);
    }

    #[test]
    fn null_and_ieee_total_order_edge_cases() {
        let mut interner = ValueInterner::new();
        // Null is equal to itself, so it gets one id.
        assert_eq!(interner.intern(&Value::Null), interner.intern(&Value::Null));
        // NaN == NaN under the total order, so one id; -0.0 != +0.0, so two.
        let nan = interner.intern(&Value::real(f64::NAN));
        assert_eq!(interner.intern(&Value::real(f64::NAN)), nan);
        let neg_zero = interner.intern(&Value::real(-0.0));
        let pos_zero = interner.intern(&Value::real(0.0));
        assert_ne!(neg_zero, pos_zero);
        // Int(3) and Real(3.0) are distinct values.
        assert_ne!(
            interner.intern(&Value::int(3)),
            interner.intern(&Value::real(3.0))
        );
    }

    #[test]
    fn cmp_ids_preserves_value_order() {
        let mut interner = ValueInterner::new();
        let big = interner.intern(&Value::int(100));
        let small = interner.intern(&Value::int(2));
        let null = interner.intern(&Value::Null);
        assert_eq!(interner.cmp_ids(small, big), Ordering::Less);
        assert_eq!(interner.cmp_ids(big, small), Ordering::Greater);
        assert_eq!(interner.cmp_ids(big, big), Ordering::Equal);
        assert_eq!(interner.cmp_ids(null, small), Ordering::Less);
    }

    #[test]
    fn intern_str_probes_the_value_dictionary() {
        let mut interner = ValueInterner::new();
        let edi = interner.intern(&Value::str("EDI"));
        assert_eq!(interner.intern_str("EDI"), edi);
        let nyc = interner.intern_str("NYC");
        assert_eq!(interner.intern(&Value::str("NYC")), nyc);
        assert_eq!(interner.lookup(&Value::str("NYC")), Some(nyc));
        // Text never meets a non-text value of the same display form.
        let int = interner.intern(&Value::int(7));
        assert_ne!(interner.intern_str("7"), int);
        assert_eq!(interner.intern_str(""), interner.intern(&Value::str("")));
        assert_eq!(interner.len(), 5);
        assert_eq!(hash_text("EDI"), hash_value(&Value::str("EDI")));
    }

    #[test]
    fn from_frozen_refuses_equal_entries() {
        let values = vec![
            Value::str("a"),
            Value::real(f64::NAN),
            Value::int(1),
            Value::real(1.0),
            Value::str("1"),
        ];
        let frozen = ValueInterner::from_frozen(values.clone()).expect("distinct entries");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(frozen.lookup(v), Some(ValueId(i as u32)));
        }
        let mut doubled = values;
        doubled.push(Value::real(f64::NAN));
        assert_eq!(
            ValueInterner::from_frozen(doubled).unwrap_err(),
            DuplicateEntry {
                first: 1,
                second: 5
            }
        );
    }

    /// Two distinct text values whose stored hashes are equal, found by a
    /// birthday search (about 2^16 probes for a 32-bit hash).
    fn colliding_texts() -> (Value, Value) {
        let mut seen = super::super::fx::FxHashMap::default();
        for i in 0..1u32 << 22 {
            let text = format!("v{i}");
            if let Some(other) = seen.insert(hash_text(&text), text.clone()) {
                return (Value::str(other), Value::str(text));
            }
        }
        panic!("no 32-bit hash collision among 2^22 texts");
    }

    #[test]
    fn equal_stored_hashes_are_told_apart_by_value() {
        // Forced: one run holding four values under one stored hash, text
        // and non-text alike.
        let hash = 7;
        let values = [
            Value::int(7),
            Value::str("7"),
            Value::real(7.0),
            Value::str(""),
        ];
        let mut run = Entries::default();
        for v in &values {
            run.push(hash, v.clone());
        }
        for (pos, v) in values.iter().enumerate() {
            assert_eq!(run.find_value(hash, v), Some(pos));
        }
        assert_eq!(run.find_value(hash, &Value::int(8)), None);
        assert_eq!(run.find_text(hash, "7"), Some(1), "skips Int(7)");
        assert_eq!(run.find_text(hash, ""), Some(3), "skips Real(7.0)");
        assert_eq!(run.find_text(hash, "8"), None);
        // Real: two texts whose hashes collide get two ids, on disk too.
        let (a, b) = colliding_texts();
        assert_eq!(hash_value(&a), hash_value(&b));
        let mut interner = ValueInterner::new();
        assert_eq!(interner.intern(&a), ValueId(0));
        let Value::Str(text) = &b else { unreachable!() };
        assert_eq!(interner.intern_str(text), ValueId(1));
        assert_eq!(interner.lookup(&a), Some(ValueId(0)));
        assert_eq!(interner.lookup(&b), Some(ValueId(1)));
        let frozen = ValueInterner::from_frozen(vec![a.clone(), b.clone()]).expect("distinct");
        assert_eq!(frozen.lookup(&a), Some(ValueId(0)));
        assert_eq!(frozen.lookup(&b), Some(ValueId(1)));
        assert_eq!(
            ValueInterner::from_frozen(vec![a, b.clone(), b]).unwrap_err(),
            DuplicateEntry {
                first: 1,
                second: 2
            }
        );
    }

    #[test]
    fn the_id_table_stays_at_most_half_full() {
        let mut interner = ValueInterner::new();
        for i in 0..10_000 {
            assert_eq!(interner.intern(&Value::int(i)), ValueId(i as u32));
            let slots = interner.tail.table.slots.len();
            assert!(slots.is_power_of_two() && slots >= 2 * interner.len());
        }
        for i in 0..10_000 {
            assert_eq!(interner.lookup(&Value::int(i)), Some(ValueId(i as u32)));
        }
        assert_eq!(interner.lookup(&Value::int(10_000)), None);
    }

    #[test]
    fn canonical_shares_string_allocations() {
        let mut interner = ValueInterner::new();
        let first = interner.canonical(Value::str("Crichton"));
        let second = interner.canonical(Value::str("Crichton"));
        match (&first, &second) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected strings"),
        }
    }

    /// Heap bytes recomputed by walking every entry: what the running
    /// totals stand for.
    fn walked_heap_bytes(interner: &ValueInterner) -> usize {
        let parts = [&*interner.prefix, &interner.tail];
        parts
            .iter()
            .map(|p| {
                let strings: usize = p
                    .values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => s.len(),
                        _ => 0,
                    })
                    .sum();
                p.table.slots.capacity() * size_of::<Slot>()
                    + p.values.capacity() * size_of::<Value>()
                    + strings
            })
            .sum()
    }

    #[test]
    fn running_heap_total_equals_a_full_walk() {
        let mut interner = ValueInterner::new();
        for i in 0..500 {
            interner.intern(&Value::str(format!("value-{i}")));
            interner.intern(&Value::int(i));
        }
        assert_eq!(interner.approx_heap_bytes(), walked_heap_bytes(&interner));
        interner.seal();
        assert!(interner.tail.values.is_empty());
        assert_eq!(interner.approx_heap_bytes(), walked_heap_bytes(&interner));
        // A clone shares the prefix, so new values land in its tail...
        let mut clone = interner.clone();
        clone.intern(&Value::str("tail-entry"));
        assert_eq!(clone.tail.values.len(), 1);
        assert_eq!(clone.approx_heap_bytes(), walked_heap_bytes(&clone));
        // ...until the tail is long enough to fold into a new prefix.
        let prefix_len = clone.prefix.values.len();
        let mut i = 0;
        while !clone.tail.values.is_empty() {
            clone.intern(&Value::str(format!("grow-{i}")));
            i += 1;
        }
        assert!(clone.prefix.values.len() > prefix_len, "the tail folded");
        assert_eq!(clone.approx_heap_bytes(), walked_heap_bytes(&clone));
        // The original never saw the clone's values.
        assert_eq!(interner.len(), 1000);
        assert_eq!(interner.lookup(&Value::str("tail-entry")), None);
        assert_eq!(interner.approx_heap_bytes(), walked_heap_bytes(&interner));
    }

    #[test]
    fn clones_share_the_prefix_and_keep_ids_across_folds() {
        let mut base = ValueInterner::new();
        for i in 0..100 {
            base.intern(&Value::int(i));
        }
        assert!(
            base.prefix.values.is_empty(),
            "a dictionary is built in its tail"
        );
        base.seal();
        let mut grown = base.clone();
        assert!(Arc::ptr_eq(&base.prefix, &grown.prefix));
        let ids: Vec<ValueId> = (100..400).map(|i| grown.intern(&Value::int(i))).collect();
        assert!(!Arc::ptr_eq(&base.prefix, &grown.prefix), "the tail folded");
        for (i, id) in (100..400).zip(&ids) {
            assert_eq!(id.index(), i as usize, "ids continue first-seen order");
            assert_eq!(grown.resolve(*id), &Value::int(i));
            assert_eq!(grown.lookup(&Value::int(i)), Some(*id));
        }
        // A text probe finds tail entries too, and never a non-text value.
        let text = grown.intern_str("tail text");
        assert_eq!(grown.intern_str("tail text"), text);
        assert_eq!(grown.lookup(&Value::str("tail text")), Some(text));
        assert_ne!(grown.intern_str("150"), ids[50]);
        let values: Vec<&Value> = grown.values().iter().collect();
        assert_eq!(values.len(), grown.len());
        assert_eq!(grown.values().slice(98..102).iter().count(), 4);
        assert_eq!(grown.values()[150], Value::int(150));
        // The base dictionary is untouched by the clone's growth.
        assert_eq!(base.len(), 100);
        assert_eq!(base.lookup(&Value::int(150)), None);
    }
}
