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

/// A value dictionary: distinct [`Value`]s in first-seen order, with a
/// reverse map for interning and lookup.
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
    map: FxHashMap<Value, ValueId>,
    values: Vec<Value>,
    /// Entries `0..frozen` are persisted; `frozen..len` is the in-memory
    /// overlay.  Always `0` for interners never loaded from disk.
    frozen: usize,
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
        let frozen = values.len();
        ValueInterner {
            map,
            values,
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
    pub fn overlay(&self) -> &[Value] {
        &self.values[self.frozen..]
    }

    /// Marks every current entry as persisted.  Called by the persist layer
    /// after spilling the overlay to disk.
    pub fn mark_frozen(&mut self) {
        self.frozen = self.values.len();
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Interns a value, returning its id.  Equal values (by [`Value`]'s `Eq`,
    /// which includes `Null == Null` and NaN-equal-NaN via the IEEE total
    /// order) always receive the same id; the first occurrence is cloned into
    /// the dictionary.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.map.get(value) {
            return id;
        }
        self.push(value.clone())
    }

    /// Interns the text value `s`, returning its id.  The dictionary is
    /// probed by the borrowed `&str` (hashed exactly as [`Value::Str`]
    /// hashes), so a string is allocated only when it is new to the column.
    pub(crate) fn intern_str(&mut self, s: &str) -> ValueId {
        if let Some(&id) = self.map.get(&StrKey(s) as &dyn Key) {
            return id;
        }
        self.push(Value::Str(Arc::from(s)))
    }

    /// Appends a value known to be absent from the dictionary.
    fn push(&mut self, value: Value) -> ValueId {
        let id = ValueId(
            u32::try_from(self.values.len())
                .expect("more than u32::MAX distinct values in one column"),
        );
        self.map.insert(value.clone(), id);
        self.values.push(value);
        id
    }

    /// Interns a value and hands back the *canonical* stored copy, so that
    /// repeated occurrences of the same string share one `Arc` allocation.
    /// Generators use this to dictionary-compress instances at build time.
    pub fn canonical(&mut self, value: Value) -> Value {
        let id = self.intern(&value);
        self.values[id.index()].clone()
    }

    /// The id of a value, if it has been interned.  `None` means no cell of
    /// the column carries this value — useful for short-circuiting probes.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.map.get(value).copied()
    }

    /// The value behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this interner.
    pub fn resolve(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
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
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Approximate heap bytes held by the dictionary.  String payloads are
    /// counted once (the map shares the `Arc` with the values vector).
    pub fn approx_heap_bytes(&self) -> usize {
        let entry = size_of::<(Value, ValueId)>() + 1;
        let mut bytes = self.map.capacity() * entry + self.values.capacity() * size_of::<Value>();
        for v in &self.values {
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
        bytes
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
}
