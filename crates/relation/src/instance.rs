//! Relation instances and databases.
//!
//! Instances keep tuples in insertion order and address them by a stable
//! [`TupleId`], so that violations (`dq-core`), repairs (`dq-repair`) and
//! provenance-carrying views can refer to *cells* `(tuple, attribute)` of the
//! original data — exactly the granularity the U-repair model of Section 5.1
//! needs.

use crate::error::{DqError, DqResult};
use crate::schema::RelationSchema;
use crate::store::{ColumnarStore, FxHashMap};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Source of process-unique instance identities (see
/// [`RelationInstance::instance_id`]).
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_instance_id() -> u64 {
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Upper bound on delta-journal entries kept on an instance.  When the
/// journal would exceed this, the oldest half is dropped and the journal
/// floor raised: snapshots older than the floor fall back to a full rebuild,
/// recent ones keep the patch path.
const DELTA_JOURNAL_CAP: usize = 4096;

/// Upper bound on the [`RelationInstance::origins`] links a clone records,
/// so a long chain of clones of unwritten clones stays cheap to clone; the
/// farthest links are dropped first.
const ORIGIN_LINKS: usize = 8;

/// A coalesced cell-level change between two versions of an instance, as
/// reported by [`RelationInstance::delta_since`]: `cell` held `old`
/// at the earlier version and holds `new` now.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellChange {
    /// The changed cell.
    pub cell: CellRef,
    /// The value at the earlier version.
    pub old: Value,
    /// The value now.
    pub new: Value,
}

/// The net difference between an earlier version of an instance and now,
/// as reported by [`RelationInstance::delta_since`]: together with the
/// tuples appended since (the live slots past the earlier snapshot's), it
/// describes the current state as "the old state, minus `removed`, with
/// `changes` applied".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Coalesced cell changes of tuples still live, in first-touched order
    /// (first recorded `old`, last recorded `new`, net no-ops dropped).
    pub changes: Vec<CellChange>,
    /// Tuples removed since, ascending — including tuples both appended and
    /// removed inside the gap, which no earlier snapshot holds.
    pub removed: Vec<TupleId>,
}

impl Delta {
    /// No cell changed and no tuple was removed: the gap (if any) only
    /// appended tuples.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.removed.is_empty()
    }
}

/// One journaled mutation, reached at `version`.
#[derive(Clone, Debug)]
struct DeltaEntry {
    version: u64,
    op: DeltaOp,
}

/// What a journaled mutation did.
#[derive(Clone, Debug)]
enum DeltaOp {
    /// `cell` held `old` and now holds `new`.
    Cell {
        cell: CellRef,
        old: Value,
        new: Value,
    },
    /// The tuple was removed.
    Removed(TupleId),
}

/// Stable identifier of a tuple within a [`RelationInstance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub usize);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A cell address: tuple plus attribute position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellRef {
    /// The tuple the cell belongs to.
    pub tuple: TupleId,
    /// The attribute position within the tuple.
    pub attr: usize,
}

impl CellRef {
    /// Creates a cell reference.
    pub fn new(tuple: TupleId, attr: usize) -> Self {
        CellRef { tuple, attr }
    }
}

/// An instance of a relation schema: a multiset of tuples with stable ids.
///
/// Every instance carries a process-unique [`instance_id`](Self::instance_id)
/// and a [`version`](Self::version) counter bumped by every mutation, so that
/// derived structures (most importantly [`crate::index::IndexPool`] entries)
/// can be memoized per `(instance, version)` and never served stale.  A
/// clone records the `(instance, version)` states it holds as its
/// [`origins`](Self::origins), so those structures can seed the clone's.
#[derive(Debug)]
pub struct RelationInstance {
    schema: Arc<RelationSchema>,
    tuples: Vec<Option<Tuple>>,
    live: usize,
    instance_id: u64,
    version: u64,
    /// Delta journal: every cell write and removal since `delta_floor`, in
    /// version order.  Kept small (see [`DELTA_JOURNAL_CAP`]); raw
    /// [`tuple_mut`](Self::tuple_mut) access clears it and raises the floor,
    /// because the journal can no longer describe the instance as "the old
    /// snapshot minus these removals, plus these cell edits".
    delta: Vec<DeltaEntry>,
    /// Versions `v` with `delta_floor <= v <= version` are *delta-covered*:
    /// the journal records every mutation after `v` that was not an
    /// insertion, so snapshots and indexes taken at `v` can be patched in
    /// place — see [`delta_covers`](Self::delta_covers).
    delta_floor: u64,
    /// Version-tagged columnar snapshot, built lazily by
    /// [`columnar`](Self::columnar) and dropped (logically) by the version
    /// check after any mutation.  A clone starts from a re-tagged copy of
    /// its original's snapshot when that one is current (see the `Clone`
    /// impl).
    columnar: Mutex<Option<Arc<ColumnarStore>>>,
    /// The `(instance_id, version)` states this instance was cloned from,
    /// nearest first (see [`origins`](Self::origins)).
    origins: Vec<(u64, u64)>,
}

impl Clone for RelationInstance {
    /// Clones the data under a fresh identity at version 0: a clone can
    /// diverge from the original, so neither ever sees the other's writes,
    /// and a cache entry of one never answers for the other's later
    /// versions.  The clone starts warm, though.  When the original's
    /// snapshot is current, the clone gets it re-tagged to its own identity,
    /// sharing the built columns by `Arc` (counted in
    /// `store.snapshot.inherited`).  The clone also records the original's
    /// `(instance_id, version)` as its nearest [`origins`](Self::origins)
    /// link, whose pooled indexes [`IndexPool`](crate::index::IndexPool)
    /// then lends it.  A clone of an instance that has not been written
    /// since it was cloned itself holds that instance's origins too, so
    /// they follow as further links.
    fn clone(&self) -> Self {
        let instance_id = fresh_instance_id();
        let mut origins = vec![(self.instance_id, self.version)];
        if self.version == 0 {
            origins.extend(self.origins.iter().take(ORIGIN_LINKS - 1));
        }
        let inherited = self
            .columnar
            .lock()
            .expect("columnar cache poisoned")
            .as_ref()
            .filter(|store| store.version() == self.version)
            .map(|store| Arc::new(store.retagged(instance_id)));
        if inherited.is_some() {
            dq_obs::inc("store.snapshot.inherited");
        }
        RelationInstance {
            schema: Arc::clone(&self.schema),
            tuples: self.tuples.clone(),
            live: self.live,
            instance_id,
            version: 0,
            delta: Vec::new(),
            delta_floor: 0,
            columnar: Mutex::new(inherited),
            origins,
        }
    }
}

impl RelationInstance {
    /// Creates an empty instance of `schema`.
    pub fn new(schema: Arc<RelationSchema>) -> Self {
        RelationInstance {
            schema,
            tuples: Vec::new(),
            live: 0,
            instance_id: fresh_instance_id(),
            version: 0,
            delta: Vec::new(),
            delta_floor: 0,
            columnar: Mutex::new(None),
            origins: Vec::new(),
        }
    }

    /// Creates an empty instance, taking ownership of a plain schema.
    pub fn from_schema(schema: RelationSchema) -> Self {
        Self::new(Arc::new(schema))
    }

    /// The schema of this instance.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Process-unique identity of this instance.  Clones get fresh
    /// identities; the pair `(instance_id, version)` therefore uniquely
    /// determines the tuple contents for cache keys.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Mutation counter: bumped by every insert, removal and cell update
    /// (including mutable tuple access, conservatively).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The `(instance_id, version)` states this instance was cloned from,
    /// nearest first, empty for an instance that is not a clone: the
    /// instance it was cloned from, then — when that one was itself an
    /// unwritten clone — that one's origins, up to eight links.
    /// At version 0 a clone holds exactly the tuples each origin held; its
    /// writes since are in its own delta journal
    /// ([`delta_since`](Self::delta_since)`(0)`), which is how
    /// [`IndexPool`](crate::index::IndexPool) patches an origin's cached
    /// indexes into the clone's.
    pub fn origins(&self) -> &[(u64, u64)] {
        &self.origins
    }

    /// True when this instance holds exactly the tuples instance
    /// `instance_id` held at `version`: it is that instance at that
    /// version, or a clone taken from it there and not written since.
    pub(crate) fn holds_state_of(&self, instance_id: u64, version: u64) -> bool {
        (self.instance_id, self.version) == (instance_id, version)
            || (self.version == 0 && self.origins.contains(&(instance_id, version)))
    }

    /// True when the delta journal fully describes how the instance evolved
    /// from `version` to now: every mutation after `version` was an
    /// insertion (visible as new live slots), a journaled cell write or a
    /// journaled removal.  A snapshot or index taken at `version` can then
    /// be *patched* — the changed cells and removed tuples are listed by
    /// [`delta_since`](Self::delta_since) — instead of rebuilt.  Only raw
    /// [`tuple_mut`](Self::tuple_mut) access and journal overflow break the
    /// property for older versions.  A gap that only appended tuples is
    /// covered with an empty delta.
    pub fn delta_covers(&self, version: u64) -> bool {
        version <= self.version && version >= self.delta_floor
    }

    /// What changed between `version` and now (see [`Delta`]): the cell
    /// changes of tuples still live, coalesced per cell with net no-ops
    /// dropped, in first-touched order, and the tuples removed since.
    /// Returns `None` when `version` is not
    /// [delta-covered](Self::delta_covers).
    pub fn delta_since(&self, version: u64) -> Option<Delta> {
        if !self.delta_covers(version) {
            return None;
        }
        let mut delta = Delta::default();
        let mut slot: FxHashMap<(usize, usize), usize> = FxHashMap::default();
        // Entries are in version order: skip straight to the gap.
        let start = self.delta.partition_point(|e| e.version <= version);
        for e in &self.delta[start..] {
            let (cell, old, new) = match &e.op {
                DeltaOp::Removed(id) => {
                    delta.removed.push(*id);
                    continue;
                }
                DeltaOp::Cell { cell, old, new } => (cell, old, new),
            };
            match slot.entry((cell.tuple.0, cell.attr)) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    delta.changes[*o.get()].new = new.clone();
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(delta.changes.len());
                    delta.changes.push(CellChange {
                        cell: *cell,
                        old: old.clone(),
                        new: new.clone(),
                    });
                }
            }
        }
        delta
            .changes
            .retain(|c| c.old != c.new && self.tuple(c.cell.tuple).is_some());
        delta.removed.sort_unstable();
        Some(delta)
    }

    /// Forgets the journal: mutations up to the current version can no
    /// longer be described as cell deltas.
    fn poison_delta(&mut self) {
        self.delta.clear();
        self.delta_floor = self.version;
    }

    /// Journals one mutation (already applied, version already bumped),
    /// evicting the oldest half of the journal when full so recent versions
    /// stay patchable.
    fn journal_push(&mut self, op: DeltaOp) {
        if self.delta.len() >= DELTA_JOURNAL_CAP {
            let half = DELTA_JOURNAL_CAP / 2;
            self.delta_floor = self.delta[half - 1].version;
            self.delta.drain(..half);
        }
        self.delta.push(DeltaEntry {
            version: self.version,
            op,
        });
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a tuple after validating arity and domains.
    pub fn insert(&mut self, tuple: Tuple) -> DqResult<TupleId> {
        if tuple.arity() != self.schema.arity() {
            return Err(DqError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, v) in tuple.values().iter().enumerate() {
            if !self.schema.domain(i).contains(v) {
                return Err(DqError::DomainViolation {
                    relation: self.schema.name().to_string(),
                    attribute: self.schema.attr_name(i).to_string(),
                    value: v.to_string(),
                });
            }
        }
        let id = TupleId(self.tuples.len());
        self.tuples.push(Some(tuple));
        self.live += 1;
        self.version += 1;
        Ok(id)
    }

    /// Inserts a tuple built from raw convertible values.
    pub fn insert_values<I, V>(&mut self, values: I) -> DqResult<TupleId>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.insert(Tuple::from_values(values))
    }

    /// Removes a tuple (keeping ids of the remaining tuples stable).
    /// Returns the removed tuple if it was present.  The removal is
    /// journaled, so snapshots and indexes taken before it stay patchable
    /// (see [`delta_covers`](Self::delta_covers)): they drop the removed row
    /// instead of rebuilding.
    pub fn remove(&mut self, id: TupleId) -> Option<Tuple> {
        let slot = self.tuples.get_mut(id.0)?;
        let removed = slot.take();
        if removed.is_some() {
            self.live -= 1;
            self.version += 1;
            self.journal_push(DeltaOp::Removed(id));
        }
        removed
    }

    /// The tuple with identifier `id`, if it is live.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.tuples.get(id.0).and_then(|t| t.as_ref())
    }

    /// Mutable access to a tuple.  Conservatively counts as an *unknown*
    /// mutation: the version is bumped and the delta journal is
    /// invalidated, even if the caller never writes
    /// through the reference — the instance cannot see what (if anything)
    /// was written.  In-repo code writes cells through
    /// [`update_cell`](Self::update_cell) instead, which validates the
    /// value, skips no-op writes and keeps snapshots patchable; this method
    /// remains for external callers that need raw access.
    pub fn tuple_mut(&mut self, id: TupleId) -> Option<&mut Tuple> {
        if self.tuples.get(id.0).is_some_and(|t| t.is_some()) {
            self.version += 1;
            self.poison_delta();
        }
        self.tuples.get_mut(id.0).and_then(|t| t.as_mut())
    }

    /// Updates a single cell after validating the new value against the
    /// attribute's domain (exactly like [`insert`](Self::insert) does for
    /// whole tuples), returning the previous value — `Ok(None)` when the
    /// tuple is not live.  A no-op write (`value` equal to the current
    /// value) returns early without bumping the version, so it neither
    /// invalidates cached snapshots nor journals a change.
    /// Real writes are recorded in the delta journal, keeping derived
    /// snapshots and indexes patchable (see
    /// [`delta_covers`](Self::delta_covers)).
    pub fn update_cell(&mut self, cell: CellRef, value: Value) -> DqResult<Option<Value>> {
        if cell.attr >= self.schema.arity() {
            return Err(DqError::UnknownAttribute {
                relation: self.schema.name().to_string(),
                attribute: format!("#{}", cell.attr),
            });
        }
        if !self.schema.domain(cell.attr).contains(&value) {
            return Err(DqError::DomainViolation {
                relation: self.schema.name().to_string(),
                attribute: self.schema.attr_name(cell.attr).to_string(),
                value: value.to_string(),
            });
        }
        Ok(self.update_cell_unchecked(cell, value))
    }

    /// [`update_cell`](Self::update_cell) without domain validation — the
    /// explicit escape hatch for callers that intentionally write values
    /// outside the schema's domains (panics if `cell.attr` is out of
    /// bounds).  Still skips no-op writes and journals real ones.
    pub fn update_cell_unchecked(&mut self, cell: CellRef, value: Value) -> Option<Value> {
        let tuple = self.tuples.get_mut(cell.tuple.0).and_then(|t| t.as_mut())?;
        if tuple.get(cell.attr) == &value {
            return Some(value);
        }
        let old = tuple.set(cell.attr, value.clone());
        self.version += 1;
        self.journal_push(DeltaOp::Cell {
            cell,
            old: old.clone(),
            new: value,
        });
        Some(old)
    }

    /// The value stored in a cell.
    pub fn cell(&self, cell: CellRef) -> Option<&Value> {
        self.tuple(cell.tuple).map(|t| t.get(cell.attr))
    }

    /// Iterates over `(id, tuple)` pairs of live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.tuples
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TupleId(i), t)))
    }

    /// Iterates over the live tuples in slots `first..`, in insertion
    /// order: the tuples appended since a snapshot whose row index ended at
    /// slot `first`.
    pub(crate) fn iter_from(&self, first: usize) -> impl Iterator<Item = (TupleId, &Tuple)> {
        let tail = self.tuples.get(first..).unwrap_or_default();
        tail.iter()
            .enumerate()
            .filter_map(move |(i, t)| t.as_ref().map(|t| (TupleId(first + i), t)))
    }

    /// All live tuple ids.
    pub fn ids(&self) -> Vec<TupleId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// All live tuples, cloned into a plain vector (used by algorithms that
    /// build derived instances).
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().map(|(_, t)| t.clone()).collect()
    }

    /// The active domain of attribute `attr`: the set of distinct values the
    /// attribute takes in this instance.  Repairing (Section 5.1) draws
    /// candidate replacement values from the active domain.
    pub fn active_domain(&self, attr: usize) -> BTreeSet<Value> {
        self.iter().map(|(_, t)| t.get(attr).clone()).collect()
    }

    /// Projection of the whole instance onto an attribute list, as a set.
    pub fn project_distinct(&self, attrs: &[usize]) -> BTreeSet<Vec<Value>> {
        self.iter().map(|(_, t)| t.project(attrs)).collect()
    }

    /// The interned columnar snapshot of this instance at its current
    /// version, built on first access and memoized until the next mutation.
    ///
    /// The snapshot is the entry point of the storage subsystem
    /// ([`crate::store`]): detectors and the
    /// [`crate::index::IndexPool`] derive interned indexes from it while the
    /// row-oriented API above stays the source of truth.  Mutating the
    /// instance does not touch existing snapshots (they are immutable
    /// `Arc`s); the next call builds a fresh one — except when the delta
    /// journal covers the stale snapshot's version
    /// ([`delta_covers`](Self::delta_covers)), where it is *patched*
    /// ([`ColumnarStore::patched`]): existing rows and dictionaries are
    /// reused, removed rows are dropped, only the appended tuples are
    /// encoded and only the changed cells re-interned (an append-only gap
    /// has an empty delta).  A clone that inherited its original's snapshot
    /// patches that one forward the same way.
    pub fn columnar(&self) -> Arc<ColumnarStore> {
        let mut cache = self.columnar.lock().expect("columnar cache poisoned");
        if let Some(store) = cache.as_ref() {
            if store.version() == self.version {
                return Arc::clone(store);
            }
            if let Some(delta) = self.delta_since(store.version()) {
                let patched = Arc::new(ColumnarStore::patched(store, self, &delta));
                *cache = Some(Arc::clone(&patched));
                return patched;
            }
        }
        let store = Arc::new(ColumnarStore::new(self));
        *cache = Some(Arc::clone(&store));
        store
    }

    /// True when `other` contains exactly the same multiset of tuples
    /// (ignoring tuple ids).  Used to compare repairs.
    pub fn same_tuples_as(&self, other: &RelationInstance) -> bool {
        let mut a: Vec<&Tuple> = self.iter().map(|(_, t)| t).collect();
        let mut b: Vec<&Tuple> = other.iter().map(|(_, t)| t).collect();
        a.sort();
        b.sort();
        a == b
    }
}

/// A database: a collection of relation instances indexed by relation name.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, RelationInstance>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a relation instance, keyed by its schema name.
    pub fn add_relation(&mut self, instance: RelationInstance) {
        self.relations
            .insert(instance.schema().name().to_string(), instance);
    }

    /// Looks up a relation instance by name.
    pub fn relation(&self, name: &str) -> Option<&RelationInstance> {
        self.relations.get(name)
    }

    /// Looks up a relation instance by name, failing loudly.
    pub fn require_relation(&self, name: &str) -> DqResult<&RelationInstance> {
        self.relation(name).ok_or_else(|| DqError::UnknownRelation {
            relation: name.to_string(),
        })
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut RelationInstance> {
        self.relations.get_mut(name)
    }

    /// Iterates over all relation instances in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationInstance)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Domain;

    fn schema() -> RelationSchema {
        RelationSchema::new(
            "r",
            [("A", Domain::Int), ("B", Domain::Text), ("C", Domain::Bool)],
        )
    }

    fn sample() -> RelationInstance {
        let mut inst = RelationInstance::from_schema(schema());
        inst.insert_values([Value::int(1), Value::str("x"), Value::bool(true)])
            .unwrap();
        inst.insert_values([Value::int(2), Value::str("y"), Value::bool(false)])
            .unwrap();
        inst.insert_values([Value::int(1), Value::str("x"), Value::bool(false)])
            .unwrap();
        inst
    }

    #[test]
    fn insert_validates_arity() {
        let mut inst = RelationInstance::from_schema(schema());
        let err = inst
            .insert(Tuple::from_values([Value::int(1)]))
            .unwrap_err();
        assert!(matches!(
            err,
            DqError::ArityMismatch {
                expected: 3,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn insert_validates_domains() {
        let mut inst = RelationInstance::from_schema(schema());
        let err = inst
            .insert_values([Value::str("not an int"), Value::str("x"), Value::bool(true)])
            .unwrap_err();
        assert!(matches!(err, DqError::DomainViolation { .. }));
    }

    #[test]
    fn removal_keeps_ids_stable() {
        let mut inst = sample();
        assert_eq!(inst.len(), 3);
        let removed = inst.remove(TupleId(1)).unwrap();
        assert_eq!(removed.get(1), &Value::str("y"));
        assert_eq!(inst.len(), 2);
        assert!(inst.tuple(TupleId(1)).is_none());
        // The other tuples keep their ids.
        assert_eq!(inst.tuple(TupleId(2)).unwrap().get(0), &Value::int(1));
        // Removing twice is a no-op.
        assert!(inst.remove(TupleId(1)).is_none());
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn cell_update_round_trip() {
        let mut inst = sample();
        let cell = CellRef::new(TupleId(0), 1);
        let old = inst.update_cell(cell, Value::str("z")).unwrap().unwrap();
        assert_eq!(old, Value::str("x"));
        assert_eq!(inst.cell(cell).unwrap(), &Value::str("z"));
        // A dead tuple yields no previous value (and no error).
        inst.remove(TupleId(2));
        assert_eq!(
            inst.update_cell(CellRef::new(TupleId(2), 1), Value::str("q")),
            Ok(None)
        );
    }

    #[test]
    fn cell_update_validates_the_domain() {
        let mut inst = sample();
        let v = inst.version();
        let err = inst
            .update_cell(CellRef::new(TupleId(0), 0), Value::str("not an int"))
            .unwrap_err();
        assert!(matches!(err, DqError::DomainViolation { .. }));
        let err = inst
            .update_cell(CellRef::new(TupleId(0), 9), Value::int(1))
            .unwrap_err();
        assert!(matches!(err, DqError::UnknownAttribute { .. }));
        assert_eq!(inst.version(), v, "rejected writes leave no trace");
        assert_eq!(inst.cell(CellRef::new(TupleId(0), 0)), Some(&Value::int(1)));
        // The unchecked escape hatch writes anything.
        let old = inst
            .update_cell_unchecked(CellRef::new(TupleId(0), 0), Value::str("wild"))
            .unwrap();
        assert_eq!(old, Value::int(1));
    }

    #[test]
    fn noop_cell_update_leaves_version_and_caches_untouched() {
        let mut inst = sample();
        let snapshot = inst.columnar();
        let v = inst.version();
        let old = inst
            .update_cell(CellRef::new(TupleId(0), 1), Value::str("x"))
            .unwrap()
            .unwrap();
        assert_eq!(old, Value::str("x"));
        assert_eq!(inst.version(), v, "no-op writes do not bump the version");
        assert!(inst.delta_since(v).is_some_and(|d| d.is_empty()));
        assert!(
            Arc::ptr_eq(&snapshot, &inst.columnar()),
            "no-op writes keep the snapshot memoized"
        );
    }

    #[test]
    fn delta_journal_coalesces_and_survives_appends() {
        let mut inst = sample();
        let v0 = inst.version();
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("a"))
            .unwrap();
        inst.insert_values([Value::int(7), Value::str("w"), Value::bool(true)])
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("b"))
            .unwrap();
        assert!(inst.delta_covers(v0));
        assert!(!inst.delta_since(v0).unwrap().is_empty());
        let delta = inst.delta_since(v0).unwrap();
        assert!(delta.removed.is_empty());
        assert_eq!(
            delta.changes,
            vec![CellChange {
                cell: CellRef::new(TupleId(0), 1),
                old: Value::str("x"),
                new: Value::str("b"),
            }],
            "writes to one cell coalesce into a single change"
        );
        // A write that restores the original value nets out to no change.
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("x"))
            .unwrap();
        assert!(inst.delta_since(v0).unwrap().is_empty());
    }

    #[test]
    fn removals_are_journaled_and_raw_tuple_access_poisons_the_journal() {
        let mut inst = sample();
        let v0 = inst.version();
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("z"))
            .unwrap();
        assert!(inst.delta_covers(v0));
        inst.remove(TupleId(1));
        // An edit to a tuple removed later nets out: the tuple is gone.
        inst.update_cell(CellRef::new(TupleId(2), 1), Value::str("w"))
            .unwrap();
        inst.remove(TupleId(2));
        assert!(inst.delta_covers(v0), "a removal keeps the journal");
        assert_eq!(
            inst.delta_since(v0),
            Some(Delta {
                changes: vec![CellChange {
                    cell: CellRef::new(TupleId(0), 1),
                    old: Value::str("x"),
                    new: Value::str("z"),
                }],
                removed: vec![TupleId(1), TupleId(2)],
            })
        );
        let v1 = inst.version();
        assert!(inst.delta_covers(v1));
        inst.tuple_mut(TupleId(0)).unwrap();
        assert!(
            !inst.delta_covers(v1),
            "raw access may have written anything"
        );
    }

    #[test]
    fn active_domain_is_distinct() {
        let inst = sample();
        let adom = inst.active_domain(0);
        assert_eq!(adom.len(), 2);
        assert!(adom.contains(&Value::int(1)));
    }

    #[test]
    fn project_distinct_deduplicates() {
        let inst = sample();
        assert_eq!(inst.project_distinct(&[0, 1]).len(), 2);
        assert_eq!(inst.project_distinct(&[0, 1, 2]).len(), 3);
    }

    #[test]
    fn same_tuples_ignores_order_and_ids() {
        let a = sample();
        let mut b = RelationInstance::from_schema(schema());
        b.insert_values([Value::int(1), Value::str("x"), Value::bool(false)])
            .unwrap();
        b.insert_values([Value::int(1), Value::str("x"), Value::bool(true)])
            .unwrap();
        b.insert_values([Value::int(2), Value::str("y"), Value::bool(false)])
            .unwrap();
        assert!(a.same_tuples_as(&b));
        b.remove(TupleId(0));
        assert!(!a.same_tuples_as(&b));
    }

    #[test]
    fn versions_bump_on_every_mutation() {
        let mut inst = RelationInstance::from_schema(schema());
        let v0 = inst.version();
        inst.insert_values([Value::int(1), Value::str("x"), Value::bool(true)])
            .unwrap();
        let v1 = inst.version();
        assert!(v1 > v0);
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("y"))
            .unwrap();
        let v2 = inst.version();
        assert!(v2 > v1);
        inst.remove(TupleId(0));
        let v3 = inst.version();
        assert!(v3 > v2);
        // Removing a dead tuple is a no-op and must not invalidate caches.
        inst.remove(TupleId(0));
        assert_eq!(inst.version(), v3);
    }

    #[test]
    fn clones_get_fresh_identities() {
        let inst = sample();
        let clone = inst.clone();
        assert_ne!(inst.instance_id(), clone.instance_id());
        assert!(inst.same_tuples_as(&clone));
    }

    #[test]
    fn clones_inherit_a_current_snapshot_and_record_their_origin() {
        let mut inst = sample();
        let snapshot = inst.columnar();
        let col = snapshot.column(&inst, 1);
        let mut clone = inst.clone();
        assert_eq!(clone.origins(), [(inst.instance_id(), inst.version())]);
        let inherited = clone.columnar();
        assert_eq!(
            (inherited.instance_id(), inherited.version()),
            (clone.instance_id(), 0)
        );
        assert!(Arc::ptr_eq(&col, &inherited.built_column(1).unwrap()));
        assert!(inherited.descends_from(&snapshot, &[1]));
        // A column built on neither side before the clone was taken is
        // numbered on each side on its own.
        inst.columnar().column(&inst, 0);
        inherited.column(&clone, 0);
        assert!(!inherited.descends_from(&snapshot, &[0]));
        // An unwritten clone's clone records the clone, then its origin; a
        // written one's records only the clone itself.
        assert_eq!(
            clone.clone().origins(),
            [
                (clone.instance_id(), 0),
                (inst.instance_id(), inst.version())
            ]
        );
        clone
            .update_cell(CellRef::new(TupleId(0), 1), Value::str("c"))
            .unwrap();
        let grandchild = clone.clone();
        assert_eq!(
            grandchild.origins(),
            [(clone.instance_id(), clone.version())]
        );
        // Writes on either side stay on that side.
        inst.update_cell(CellRef::new(TupleId(1), 1), Value::str("p"))
            .unwrap();
        assert_eq!(
            clone.cell(CellRef::new(TupleId(1), 1)),
            Some(&Value::str("y"))
        );
        assert_eq!(
            inst.cell(CellRef::new(TupleId(0), 1)),
            Some(&Value::str("x"))
        );
        assert!(!clone.columnar().descends_from(&inst.columnar(), &[]));
        assert!(!inst.columnar().descends_from(&clone.columnar(), &[]));
        // A stale snapshot is not inherited.
        assert!(inst.clone().columnar().descends_from(&inst.columnar(), &[]));
        inst.remove(TupleId(2));
        let cold = inst.clone();
        assert!(!cold.columnar().descends_from(&inst.columnar(), &[]));
    }

    #[test]
    fn distinct_instances_have_distinct_identities() {
        assert_ne!(sample().instance_id(), sample().instance_id());
    }

    #[test]
    fn columnar_snapshot_is_memoized_per_version() {
        let mut inst = sample();
        let a = inst.columnar();
        let b = inst.columnar();
        assert!(
            Arc::ptr_eq(&a, &b),
            "unchanged instance reuses the snapshot"
        );
        assert_eq!(a.len(), inst.len());
        inst.insert_values([Value::int(9), Value::str("w"), Value::bool(true)])
            .unwrap();
        let c = inst.columnar();
        assert!(!Arc::ptr_eq(&a, &c), "mutations invalidate the snapshot");
        assert_eq!(c.len(), inst.len());
        // The old snapshot still reflects the state it was taken at.
        assert_eq!(a.len(), inst.len() - 1);
    }

    #[test]
    fn database_lookup_and_totals() {
        let mut db = Database::new();
        db.add_relation(sample());
        assert_eq!(db.len(), 1);
        assert_eq!(db.total_tuples(), 3);
        assert!(db.relation("r").is_some());
        assert!(db.require_relation("s").is_err());
    }
}
