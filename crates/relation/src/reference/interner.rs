//! The map-backed dictionary that [`crate::store::ValueInterner`]'s id
//! table replaced, kept as the dictionary oracle.
//!
//! [`MapInterner`] keeps each run's reverse map as a
//! `HashMap<Value, ValueId>` holding a clone of every entry, and probes text
//! by building a [`Value::Str`].  It splits, seals and folds its entries at
//! the same points as the production dictionary, so the two agree on ids,
//! entries, overlays and the bytes their values hold; only the reverse
//! index differs.

use crate::store::interner::{FOLD_FRACTION, FOLD_MIN};
use crate::store::{DictValues, FxHashMap, ValueId};
use crate::value::Value;
use std::cmp::Ordering;
use std::mem::size_of;
use std::sync::Arc;

/// A value dictionary in first-seen order over a `Value`-keyed map per run.
#[derive(Clone, Debug, Default)]
pub struct MapInterner {
    prefix: Arc<MapEntries>,
    tail: MapEntries,
    frozen: usize,
}

#[derive(Clone, Debug, Default)]
struct MapEntries {
    map: FxHashMap<Value, ValueId>,
    values: Vec<Value>,
    str_bytes: usize,
}

impl MapEntries {
    fn push(&mut self, value: Value, id: ValueId) {
        if let Value::Str(s) = &value {
            self.str_bytes += s.len();
        }
        self.map.insert(value.clone(), id);
        self.values.push(value);
    }

    fn absorb(&mut self, tail: MapEntries) {
        self.map.extend(tail.map);
        self.values.extend(tail.values);
        self.str_bytes += tail.str_bytes;
    }

    fn index_heap_bytes(&self) -> usize {
        self.map.capacity() * (size_of::<(Value, ValueId)>() + 1)
    }

    fn heap_bytes(&self) -> usize {
        self.index_heap_bytes() + self.values.capacity() * size_of::<Value>() + self.str_bytes
    }
}

impl MapInterner {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dictionary of persisted entries, all frozen.  Of two equal
    /// entries the later one wins lookups.
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
        MapInterner {
            frozen: values.len(),
            prefix: Arc::new(MapEntries {
                map,
                values,
                str_bytes,
            }),
            tail: MapEntries::default(),
        }
    }

    /// Number of persisted entries.
    pub fn frozen_len(&self) -> usize {
        self.frozen
    }

    /// The entries interned since the dictionary was loaded.
    pub fn overlay(&self) -> DictValues<'_> {
        self.values().slice(self.frozen..self.len())
    }

    /// Marks every current entry as persisted.
    pub fn mark_frozen(&mut self) {
        self.frozen = self.len();
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.prefix.values.len() + self.tail.values.len()
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a value, returning its id.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        if let Some(id) = self.lookup(value) {
            return id;
        }
        let id = ValueId(self.len() as u32);
        self.tail.push(value.clone(), id);
        let prefix = self.prefix.values.len();
        if prefix > 0 && self.tail.values.len() >= FOLD_MIN.max(prefix / FOLD_FRACTION) {
            Arc::make_mut(&mut self.prefix).absorb(std::mem::take(&mut self.tail));
        }
        id
    }

    /// Interns the text value `s`.
    pub fn intern_str(&mut self, s: &str) -> ValueId {
        self.intern(&Value::str(s))
    }

    /// Moves a freshly built dictionary into its shared prefix.
    pub fn seal(&mut self) {
        if self.prefix.values.is_empty() {
            self.prefix = Arc::new(std::mem::take(&mut self.tail));
        }
    }

    /// The id of a value, if interned.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.prefix
            .map
            .get(value)
            .or_else(|| self.tail.map.get(value))
            .copied()
    }

    /// The value behind an id.
    pub fn resolve(&self, id: ValueId) -> &Value {
        let head = &self.prefix.values;
        match id.index().checked_sub(head.len()) {
            None => &head[id.index()],
            Some(t) => &self.tail.values[t],
        }
    }

    /// Compares the values behind two ids.
    pub fn cmp_ids(&self, a: ValueId, b: ValueId) -> Ordering {
        self.resolve(a).cmp(self.resolve(b))
    }

    /// All distinct values, in id order.
    pub fn values(&self) -> DictValues<'_> {
        DictValues::from_runs(&self.prefix.values, &self.tail.values)
    }

    /// Approximate heap bytes: maps (with their cloned keys), values and
    /// string payloads.
    pub fn approx_heap_bytes(&self) -> usize {
        self.prefix.heap_bytes() + self.tail.heap_bytes()
    }

    /// The part of [`approx_heap_bytes`](Self::approx_heap_bytes) held by
    /// the maps.
    pub fn index_heap_bytes(&self) -> usize {
        self.prefix.index_heap_bytes() + self.tail.index_heap_bytes()
    }
}
