//! Dictionary encoding of [`Value`]s into dense [`ValueId`]s.
//!
//! Detection algorithms group, probe and compare attribute values millions of
//! times; materializing `Vec<Value>` keys per tuple dominates both the time
//! and the memory of a cold detection pass (see `BENCH_detection.json`).  A
//! [`ValueInterner`] maps every distinct value of a column to a dense `u32`
//! so that downstream structures (columns, index keys, group projections)
//! operate on machine integers instead.
//!
//! The encoding preserves the semantics of [`Value`]'s `Eq`/`Hash` (two
//! values receive the same id iff they are equal, including `Null == Null`
//! and the IEEE-754 total order treatment of `Real`, under which `NaN ==
//! NaN` and `-0.0 != +0.0`) and exposes `Ord` through
//! [`ValueInterner::cmp_ids`], which compares the *values* behind two ids —
//! ids themselves are assigned in first-seen order and carry no order.

use super::fx::FxHashMap;
use crate::value::{hash_str, Value};
use std::borrow::Borrow;
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
const FOLD_MIN: usize = 64;
/// A non-empty prefix of `p` entries absorbs its tail once the tail reaches
/// `p / FOLD_FRACTION` entries: a fold copies `O(p)` when the prefix is
/// shared, so each new value pays `O(FOLD_FRACTION)` amortized, while a
/// clone copies at most `p / FOLD_FRACTION` tail entries.
const FOLD_FRACTION: usize = 32;

/// A value dictionary: distinct [`Value`]s in first-seen order, with a
/// reverse map for interning and lookup.
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

/// One contiguous run of dictionary entries with its reverse map and a
/// running total of its string payload bytes.
#[derive(Clone, Debug, Default)]
struct Entries {
    map: FxHashMap<Value, ValueId>,
    values: Vec<Value>,
    str_bytes: usize,
}

impl Entries {
    fn push(&mut self, value: Value, id: ValueId) {
        if let Value::Str(s) = &value {
            self.str_bytes += s.len();
        }
        self.map.insert(value.clone(), id);
        self.values.push(value);
    }

    fn absorb(&mut self, tail: Entries) {
        self.map.extend(tail.map);
        self.values.extend(tail.values);
        self.str_bytes += tail.str_bytes;
    }

    fn heap_bytes(&self) -> usize {
        let entry = size_of::<(Value, ValueId)>() + 1;
        self.map.capacity() * entry + self.values.capacity() * size_of::<Value>() + self.str_bytes
    }
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

/// Summary counters of a [`ValueInterner`], reported by the bench harness.
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
    /// decoded entries in id order, all marked frozen.  The reverse map is
    /// built once here — `O(distinct values)`, not `O(rows)` — which is the
    /// whole cost of re-opening a dictionary.
    pub fn from_frozen(values: Vec<Value>) -> Self {
        let map = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), ValueId(i as u32)))
            .collect();
        let str_bytes = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.len(),
                _ => 0,
            })
            .sum();
        let frozen = values.len();
        ValueInterner {
            prefix: Arc::new(Entries {
                map,
                values,
                str_bytes,
            }),
            tail: Entries::default(),
            frozen,
        }
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
        if let Some(id) = self.lookup(value) {
            return id;
        }
        self.push(value.clone())
    }

    /// Interns the text value `s`, returning its id.  The dictionary is
    /// probed by the borrowed `&str` (hashed exactly as [`Value::Str`]
    /// hashes), so a string is allocated only when it is new to the column.
    pub(crate) fn intern_str(&mut self, s: &str) -> ValueId {
        if let Some(id) = self.find(&StrKey(s) as &dyn Key) {
            return id;
        }
        self.push(Value::Str(Arc::from(s)))
    }

    /// Probes the prefix, then the tail — each only when it has entries, so
    /// a dictionary being built hashes its key once.
    #[inline]
    fn find<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<ValueId>
    where
        Value: Borrow<Q>,
    {
        if !self.prefix.values.is_empty() {
            if let Some(&id) = self.prefix.map.get(key) {
                return Some(id);
            }
        }
        if self.tail.values.is_empty() {
            return None;
        }
        self.tail.map.get(key).copied()
    }

    /// Appends a value known to be absent from the dictionary to the tail,
    /// folding the tail into the prefix once it is long enough.
    fn push(&mut self, value: Value) -> ValueId {
        let id = ValueId(
            u32::try_from(self.len()).expect("more than u32::MAX distinct values in one column"),
        );
        self.tail.push(value, id);
        let prefix = self.prefix.values.len();
        if prefix > 0 && self.tail.values.len() >= FOLD_MIN.max(prefix / FOLD_FRACTION) {
            Arc::make_mut(&mut self.prefix).absorb(std::mem::take(&mut self.tail));
            dq_obs::inc("store.dict.folds");
        }
        id
    }

    /// Moves a freshly built dictionary (empty prefix) into its prefix
    /// without copying, so clones share it from then on.  A dictionary with
    /// a prefix already is left alone: its tail is kept short by folding.
    pub(crate) fn seal(&mut self) {
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
        self.find(value)
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

    /// Approximate heap bytes held by the dictionary, in `O(1)`: string
    /// payloads are kept as running totals and counted once (the map shares
    /// the `Arc` with the values vector).  A prefix shared with clones is
    /// counted in full by each of them.
    pub fn approx_heap_bytes(&self) -> usize {
        self.prefix.heap_bytes() + self.tail.heap_bytes()
    }

    /// Summary counters for reporting.
    pub fn stats(&self) -> InternerStats {
        InternerStats {
            distinct: self.len(),
            heap_bytes: self.approx_heap_bytes(),
        }
    }
}

/// A borrowed dictionary key: the `Value` a map entry stores, or a bare
/// `&str` standing for [`Value::Str`].  `Value: Borrow<dyn Key>` lets the
/// `Value`-keyed map be probed by `&str` without building a `Value`.
trait Key {
    fn key(&self) -> KeyRef<'_>;
}

/// What a [`Key`] compares and hashes as; strings are always [`KeyRef::Str`].
enum KeyRef<'a> {
    Value(&'a Value),
    Str(&'a str),
}

/// A `&str` probe (sized, so it can stand behind `&dyn Key`).
struct StrKey<'a>(&'a str);

impl Key for Value {
    fn key(&self) -> KeyRef<'_> {
        match self {
            Value::Str(s) => KeyRef::Str(s),
            other => KeyRef::Value(other),
        }
    }
}

impl Key for StrKey<'_> {
    fn key(&self) -> KeyRef<'_> {
        KeyRef::Str(self.0)
    }
}

impl<'a> Borrow<dyn Key + 'a> for Value {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl Hash for dyn Key + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.key() {
            KeyRef::Value(v) => v.hash(state),
            KeyRef::Str(s) => hash_str(s, state),
        }
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        match (self.key(), other.key()) {
            (KeyRef::Value(a), KeyRef::Value(b)) => a == b,
            (KeyRef::Str(a), KeyRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for dyn Key + '_ {}

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
        let hash = |k: &dyn Key| {
            let mut h = super::super::fx::FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&StrKey("EDI")), hash(&Value::str("EDI")));
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
        let entry = size_of::<(Value, ValueId)>() + 1;
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
                p.map.capacity() * entry + p.values.capacity() * size_of::<Value>() + strings
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
