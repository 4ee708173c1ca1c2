//! Memoized indexes per instance version.
//!
//! Building an index is the dominant cost of detection on large instances,
//! and dependency sets routinely share left-hand sides (every normalized
//! fragment of a CFD keeps its parent's LHS).  [`IndexPool`] therefore
//! memoizes the interned indexes ([`InternedIndex`]) and distinct
//! projections ([`DistinctSet`]) the engines build, per `(instance
//! identity, instance version, attribute list)`, so a batch of dependencies
//! grouped by LHS builds each index exactly once — and repeated detection
//! runs over an unchanged instance rebuild nothing at all.  A clone's
//! requests are seeded from its origin's entries (see [`IndexPool`]), so a
//! derived instance starts warm too.

use crate::instance::{Delta, RelationInstance};
use crate::store::{ColumnarStore, DistinctSet, InternedIndex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key of a memoized index: which instance, at which version, on which
/// attribute list.
type PoolKey = (u64, u64, Vec<usize>);

/// Pre-registered `dq-obs` handles mirroring the pool's counters into the
/// process-wide recorder as live metrics, plus latency histograms for the
/// build and patch paths.  Near-no-ops while recording is off.
struct PoolObs {
    hits: dq_obs::Counter,
    misses: dq_obs::Counter,
    appends: dq_obs::Counter,
    patches: dq_obs::Counter,
    donor_hits: dq_obs::Counter,
    donor_patches: dq_obs::Counter,
    races: dq_obs::Counter,
    entries: dq_obs::Gauge,
    build_ns: dq_obs::Histogram,
    patch_ns: dq_obs::Histogram,
}

impl PoolObs {
    fn new() -> Self {
        let rec = dq_obs::recorder();
        PoolObs {
            hits: rec.counter("pool.hits"),
            misses: rec.counter("pool.misses"),
            appends: rec.counter("pool.appends"),
            patches: rec.counter("pool.patches"),
            donor_hits: rec.counter("pool.donor_hits"),
            donor_patches: rec.counter("pool.donor_patches"),
            races: rec.counter("pool.races"),
            entries: rec.gauge("pool.entries"),
            build_ns: rec.histogram("index.build_ns"),
            patch_ns: rec.histogram("index.patch_ns"),
        }
    }
}

impl std::fmt::Debug for PoolObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolObs")
    }
}

/// Hit/miss/size counters of an [`IndexPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexPoolStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to build an index.
    pub misses: u64,
    /// Misses served by patching a cached index of an older version across
    /// a gap with no net cell changes and no removal — only appended rows
    /// to key — instead of a full rebuild (a subset of `misses`).
    pub appends: u64,
    /// Misses served by patching a cached index of an older version across
    /// a gap with journaled cell changes or removals — moving only the
    /// changed rows between groups and dropping the removed ones — instead
    /// of a full rebuild (a subset of `misses`, disjoint from `appends`).
    pub patches: u64,
    /// Hits a clone's request got from its origin's entry (see
    /// [`IndexPool`]): the clone had not been written, so the origin's
    /// artifact answers for it as it is (a subset of `hits`).
    pub donor_hits: u64,
    /// Upgrades of an origin's entry into a written clone's artifact (a
    /// subset of `appends` plus `patches`).
    pub donor_patches: u64,
    /// Duplicate build races: misses whose build was discarded because a
    /// concurrent request built and inserted the same index first (builds
    /// run outside the cache lock, so two threads missing on the same cold
    /// key both build; the first insert wins and the loser's work is
    /// counted here).  A subset of `misses`.
    pub races: u64,
    /// Indexes currently cached.
    pub entries: usize,
}

impl dq_obs::MetricSource for IndexPoolStats {
    fn emit(&self, prefix: &str, sink: &mut dyn dq_obs::MetricSink) {
        sink.counter(&format!("{prefix}.hits"), self.hits);
        sink.counter(&format!("{prefix}.misses"), self.misses);
        sink.counter(&format!("{prefix}.appends"), self.appends);
        sink.counter(&format!("{prefix}.patches"), self.patches);
        sink.counter(&format!("{prefix}.donor_hits"), self.donor_hits);
        sink.counter(&format!("{prefix}.donor_patches"), self.donor_patches);
        sink.counter(&format!("{prefix}.races"), self.races);
        sink.gauge(
            &format!("{prefix}.entries"),
            i64::try_from(self.entries).unwrap_or(i64::MAX),
        );
    }
}

/// A thread-safe memo table of indexes keyed by
/// `(instance identity, instance version, attribute list)` — compact
/// [`InternedIndex`]es and distinct-projection [`DistinctSet`]s side by
/// side.
///
/// Any mutation of an instance bumps its [`RelationInstance::version`], so a
/// pool entry can never be served stale: a request for the mutated instance
/// simply misses and builds afresh.  Entries for outdated versions of the
/// requested instance are dropped eagerly on every insert (a mutation makes
/// them unreachable forever, so keeping them would grow the pool without
/// bound across mutate-and-detect loops); entries of *other* instances are
/// evicted only under capacity pressure.
///
/// A clone ([`RelationInstance::origins`]) misses its own first requests,
/// but an origin's entry on the same attribute list serves as a *donor*
/// when no older entry of the clone is cached: the nearest origin that has
/// one, so a clone of an unwritten clone borrows the intermediate clone's
/// entries once the first origin has moved on.  The donor stays in the
/// cache, since the origin may still need it.  A clone not written since
/// it was taken gets the donor's `Arc` itself, counted as a hit
/// ([`IndexPoolStats::donor_hits`]).  A clone written since is served by
/// patching a copy of the donor over the clone's journal
/// ([`IndexPoolStats::donor_patches`]).  Either way the clone's snapshot
/// and its key columns must [descend from](ColumnarStore::descends_from)
/// the donor's, as they do when the clone inherited its origin's snapshot
/// with those columns built (an unwritten clone also takes over key
/// columns its origin built after the clone was taken).  A clone whose
/// snapshot was built cold, or whose key column was built on either side
/// only after the clone was taken and written, builds its artifacts cold.
///
/// The pool hands out `Arc`s so detection work can fan out across threads
/// while sharing one build of each index.
#[derive(Debug)]
pub struct IndexPool {
    capacity: usize,
    interned: Mutex<HashMap<PoolKey, Arc<InternedIndex>>>,
    distinct: Mutex<HashMap<PoolKey, Arc<DistinctSet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    patches: AtomicU64,
    donor_hits: AtomicU64,
    donor_patches: AtomicU64,
    races: AtomicU64,
    obs: PoolObs,
}

/// What the pool reads of a cached artifact: the snapshot it was built
/// over, for the donor's lineage check.
trait Pooled {
    fn store(&self) -> &Arc<ColumnarStore>;
}

impl Pooled for InternedIndex {
    fn store(&self) -> &Arc<ColumnarStore> {
        InternedIndex::store(self)
    }
}

impl Pooled for DistinctSet {
    fn store(&self) -> &Arc<ColumnarStore> {
        DistinctSet::store(self)
    }
}

/// Bumps one of the pool's counters together with its live mirror.
fn bump(count: &AtomicU64, live: &dq_obs::Counter) {
    count.fetch_add(1, Ordering::Relaxed);
    live.inc();
}

impl Default for IndexPool {
    fn default() -> Self {
        Self::with_capacity(64)
    }
}

impl IndexPool {
    /// A pool with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool evicting once it holds `capacity` indexes (at least 1).  The
    /// bound is soft: the current version of the instance being probed is
    /// never evicted, so one oversized detection batch may exceed it
    /// temporarily rather than thrash.
    pub fn with_capacity(capacity: usize) -> Self {
        IndexPool {
            capacity: capacity.max(1),
            interned: Mutex::new(HashMap::new()),
            distinct: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            donor_hits: AtomicU64::new(0),
            donor_patches: AtomicU64::new(0),
            races: AtomicU64::new(0),
            obs: PoolObs::new(),
        }
    }

    /// Inserts a freshly built index, dropping entries this insert orphans:
    /// always the requested instance's outdated versions (a mutation made
    /// them unreachable forever — without this, mutate-and-detect loops grow
    /// the pool without bound), and under capacity pressure everything but
    /// the requested `(instance, version)`.  Capacity stays a soft bound: a
    /// single detection batch needing more distinct indexes than `capacity`
    /// keeps them all — evicting live-version entries mid-batch would
    /// silently rebuild every index twice.
    /// `keep_stale` may exempt selected stale entries of the requested
    /// instance from the eager purge (the interned cache keeps the latest
    /// upgradable entry per *other* attribute list alive so it can still
    /// serve as a patch donor; growth stays bounded because
    /// each attribute list's own insert drops its predecessors).
    /// Re-checks for a concurrent insert of the same key (builds run
    /// outside the lock): an already-present entry wins and the caller's
    /// duplicate is discarded, which the returned flag reports.
    fn insert_evicting<V>(
        &self,
        cache: &mut HashMap<PoolKey, V>,
        key: PoolKey,
        built: V,
        keep_stale: impl Fn(&PoolKey) -> bool,
    ) -> (V, bool)
    where
        V: Clone,
    {
        let before = cache.len();
        cache.retain(|cached, _| cached.0 != key.0 || cached.1 == key.1 || keep_stale(cached));
        if cache.len() >= self.capacity {
            cache.retain(|(id, version, _), _| *id == key.0 && *version == key.1);
        }
        let kept = match cache.entry(key) {
            Entry::Occupied(winner) => (winner.get().clone(), true),
            Entry::Vacant(slot) => (slot.insert(built).clone(), false),
        };
        self.obs.entries.add(cache.len() as i64 - before as i64);
        kept
    }

    /// The upgrade-or-build protocol shared by every columnar artifact
    /// ([`InternedIndex`], [`DistinctSet`]): serve a hit, else find the best
    /// upgradable predecessor — same instance and attributes, older version,
    /// every mutation in between an insert, a journaled cell write or a
    /// journaled removal ([`RelationInstance::delta_covers`]) — take it out
    /// of the cache (the insert below would drop it as a stale entry of the
    /// same attribute list anyway) and hand it to `upgrade`, which patches
    /// it over the instance's current snapshot with the delta since its
    /// version, falling back to `build`.  Holding the only reference lets
    /// the upgrade move the predecessor's maps into the new artifact
    /// instead of copying them.  A successful upgrade counts in
    /// [`IndexPoolStats::appends`] when the delta is empty (only appended
    /// rows to key) and in [`IndexPoolStats::patches`] otherwise — a gap
    /// with a removal is always a patch.  The insert keeps stale
    /// entries on *other* attribute lists alive while they stay upgradable,
    /// so one mutation round can upgrade every cached artifact, not just the
    /// first one re-requested; each attribute list's own insert still drops
    /// its predecessors.
    ///
    /// With no predecessor, a clone's request falls back to the entry of
    /// its nearest origin that has one as the donor (see [`IndexPool`]).
    /// The donor stays cached, and the upgrade gets a shared reference to
    /// it, so it copies the maps.
    fn artifact_for<V: Pooled>(
        &self,
        cache: &Mutex<HashMap<PoolKey, Arc<V>>>,
        instance: &RelationInstance,
        attrs: &[usize],
        upgrade: impl Fn(Arc<V>, &Arc<ColumnarStore>, &Delta) -> Option<V>,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        let key: PoolKey = (instance.instance_id(), instance.version(), attrs.to_vec());
        let keep_stale = |cached: &PoolKey| cached.2 != *attrs && instance.delta_covers(cached.1);
        let (mut predecessor, from_donor) = {
            let mut cache = cache.lock().expect("index pool poisoned");
            if let Some(hit) = cache.get(&key) {
                bump(&self.hits, &self.obs.hits);
                return Arc::clone(hit);
            }
            let version = cache
                .keys()
                .filter(|(id, version, cached_attrs)| {
                    *id == key.0
                        && *version < key.1
                        && cached_attrs == attrs
                        && instance.delta_covers(*version)
                })
                .map(|(_, version, _)| *version)
                .max();
            match version {
                Some(version) => {
                    let artifact = cache.remove(&(key.0, version, key.2.clone()));
                    if artifact.is_some() {
                        self.obs.entries.add(-1);
                    }
                    (artifact.map(|a| (version, a)), false)
                }
                None => {
                    let donor = instance
                        .origins()
                        .iter()
                        .filter(|_| instance.delta_covers(0))
                        .find_map(|&(id, version)| cache.get(&(id, version, key.2.clone())));
                    (donor.map(|d| (0, Arc::clone(d))), true)
                }
            }
        };
        // An unwritten clone holds its origin's tuples: the donor answers
        // for it as it is, provided the clone's snapshot carries the
        // donor's key columns (shared now if the origin built them after
        // the clone was taken).
        if from_donor && instance.version() == 0 {
            if let Some((_, donor)) = predecessor.take() {
                let store = instance.columnar();
                store.adopt_columns(donor.store(), attrs);
                if store.descends_from(donor.store(), attrs) {
                    let mut cache = cache.lock().expect("index pool poisoned");
                    bump(&self.hits, &self.obs.hits);
                    bump(&self.donor_hits, &self.obs.donor_hits);
                    return self.insert_evicting(&mut cache, key, donor, keep_stale).0;
                }
            }
        }
        // Build outside the lock so concurrent requests for *different*
        // artifacts proceed in parallel; a racing duplicate build of the
        // same one is benign (first write wins, results are identical).
        bump(&self.misses, &self.obs.misses);
        let upgraded = predecessor.and_then(|(version, prev)| {
            let delta = instance.delta_since(version)?;
            let store = instance.columnar();
            let upgraded = self.obs.patch_ns.time(|| upgrade(prev, &store, &delta))?;
            match delta.is_empty() {
                true => bump(&self.appends, &self.obs.appends),
                false => bump(&self.patches, &self.obs.patches),
            }
            if from_donor {
                bump(&self.donor_patches, &self.obs.donor_patches);
            }
            Some(upgraded)
        });
        let built = Arc::new(match upgraded {
            Some(artifact) => artifact,
            None => self.obs.build_ns.time(build),
        });
        let mut cache = cache.lock().expect("index pool poisoned");
        let (kept, raced) = self.insert_evicting(&mut cache, key, built, keep_stale);
        if raced {
            bump(&self.races, &self.obs.races);
        }
        kept
    }

    /// The interned (compact-key, CSR) index of `instance` on `attrs`, built
    /// at most once per instance version over the instance's columnar
    /// snapshot, using up to `threads` workers for a cold build.
    ///
    /// When the pool holds an index of an older version of the same
    /// instance on the same attributes and the delta journal covers the gap
    /// ([`RelationInstance::delta_covers`]), a miss is served by
    /// [`InternedIndex::try_patched`] — keying only the appended rows,
    /// moving only the edited rows between groups and dropping the removed
    /// ones — instead of a rebuild.  Only raw tuple access and journal
    /// overflow fall back to rebuilding.
    pub fn interned_for(
        &self,
        instance: &RelationInstance,
        attrs: &[usize],
        threads: usize,
    ) -> Arc<InternedIndex> {
        self.artifact_for(
            &self.interned,
            instance,
            attrs,
            |prev, store, changes| InternedIndex::try_patched(prev, instance, store, changes),
            || InternedIndex::build(instance, &instance.columnar(), attrs, threads),
        )
    }

    /// The distinct-projection set of `instance` on `attrs`, built at most
    /// once per instance version over the instance's columnar snapshot,
    /// using up to `threads` workers for a cold build.
    ///
    /// Misses over a gap the delta journal covers — removals included — are
    /// served by [`DistinctSet::try_patched`] — counting the appended and
    /// edited rows' keys in and the edited and removed rows' old keys out,
    /// with the same repack-aware radix handling as the interned indexes —
    /// and count into [`IndexPoolStats::appends`] or
    /// [`IndexPoolStats::patches`] exactly like
    /// [`interned_for`](Self::interned_for).
    pub fn distinct_for(
        &self,
        instance: &RelationInstance,
        attrs: &[usize],
        threads: usize,
    ) -> Arc<DistinctSet> {
        self.artifact_for(
            &self.distinct,
            instance,
            attrs,
            |prev, store, changes| DistinctSet::try_patched(prev, instance, store, changes),
            || DistinctSet::build(instance, &instance.columnar(), attrs, threads),
        )
    }

    /// Drops every cached index of `instance` (any version).  Mutations make
    /// old entries unreachable already; this reclaims their memory eagerly.
    pub fn invalidate(&self, instance: &RelationInstance) {
        fn retain_others<V>(
            cache: &Mutex<HashMap<PoolKey, V>>,
            instance_id: u64,
            dropped: &mut i64,
        ) {
            let mut cache = cache.lock().expect("index pool poisoned");
            let before = cache.len();
            cache.retain(|(id, _, _), _| *id != instance_id);
            *dropped += (before - cache.len()) as i64;
        }
        let mut dropped = 0i64;
        retain_others(&self.interned, instance.instance_id(), &mut dropped);
        retain_others(&self.distinct, instance.instance_id(), &mut dropped);
        self.obs.entries.add(-dropped);
    }

    /// Drops every cached index.
    pub fn clear(&self) {
        fn drain<V>(cache: &Mutex<HashMap<PoolKey, V>>, dropped: &mut i64) {
            let mut cache = cache.lock().expect("index pool poisoned");
            *dropped += cache.len() as i64;
            cache.clear();
        }
        let mut dropped = 0i64;
        drain(&self.interned, &mut dropped);
        drain(&self.distinct, &mut dropped);
        self.obs.entries.add(-dropped);
    }

    /// Current cache counters (hits and misses aggregate both artifact
    /// kinds; entries counts both caches).
    pub fn stats(&self) -> IndexPoolStats {
        IndexPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            donor_hits: self.donor_hits.load(Ordering::Relaxed),
            donor_patches: self.donor_patches.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            entries: self.interned.lock().expect("index pool poisoned").len()
                + self.distinct.lock().expect("index pool poisoned").len(),
        }
    }

    /// Number of entries across both caches (for gauge bookkeeping).
    fn cached_entries(&mut self) -> usize {
        self.interned.get_mut().expect("index pool poisoned").len()
            + self.distinct.get_mut().expect("index pool poisoned").len()
    }

    /// Approximate heap bytes across every cached distinct-projection set.
    pub fn approx_distinct_bytes(&self) -> usize {
        self.distinct
            .lock()
            .expect("index pool poisoned")
            .values()
            .map(|set| set.approx_heap_bytes())
            .sum()
    }

    /// Approximate heap bytes across every cached interned index.
    pub fn approx_interned_bytes(&self) -> usize {
        self.interned
            .lock()
            .expect("index pool poisoned")
            .values()
            .map(|idx| idx.approx_heap_bytes())
            .sum()
    }
}

impl Drop for IndexPool {
    /// Releases this pool's share of the process-wide `pool.entries`
    /// gauge, so the gauge tracks live caches even as pools come and go.
    fn drop(&mut self) {
        let entries = self.cached_entries();
        self.obs.entries.add(-(entries as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TupleId;
    use crate::reference;
    use crate::schema::{Domain, RelationSchema};
    use crate::value::Value;

    fn instance() -> RelationInstance {
        let schema = RelationSchema::new(
            "r",
            [("A", Domain::Int), ("B", Domain::Text), ("C", Domain::Text)],
        );
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b, c) in [(1, "x", "p"), (1, "x", "q"), (2, "y", "p"), (1, "z", "p")] {
            inst.insert_values([Value::int(a), Value::str(b), Value::str(c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn pool_distinguishes_attribute_lists() {
        let inst = instance();
        let pool = IndexPool::new();
        let a = pool.interned_for(&inst, &[0], 1);
        let b = pool.interned_for(&inst, &[1], 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(pool.stats().entries, 2);
    }

    /// `idx` groups `inst`'s live tuples on `attrs` exactly like the
    /// value-keyed reference index.
    fn assert_groups_like_rows(idx: &InternedIndex, inst: &RelationInstance, attrs: &[usize]) {
        let baseline = reference::HashIndex::build(inst, attrs);
        assert_eq!(idx.group_count(), baseline.len());
        for (key, group) in baseline.groups() {
            let ids: Vec<TupleId> = idx
                .rows_for_values(key)
                .iter()
                .map(|&r| idx.tuple_id(r))
                .collect();
            assert_eq!(&ids, group, "key {key:?}");
        }
    }

    #[test]
    fn pool_does_not_confuse_clones() {
        use crate::instance::CellRef;
        let mut inst = instance();
        inst.columnar();
        let pool = IndexPool::new();
        let a = pool.interned_for(&inst, &[0, 1], 1);
        let set = pool.distinct_for(&inst, &[0, 1], 1);
        let mut clone = inst.clone();
        // Neither side has written: the clone shares the origin's artifacts.
        let b = pool.interned_for(&clone, &[0, 1], 1);
        assert!(Arc::ptr_eq(&a, &b), "an unwritten clone shares the index");
        assert!(Arc::ptr_eq(&set, &pool.distinct_for(&clone, &[0, 1], 1)));
        assert_eq!(pool.stats().donor_hits, 2);
        // Both sides write, differently: each side's artifacts equal fresh
        // builds of its own state, and the shared ones are unchanged.
        inst.update_cell(CellRef::new(TupleId(0), 1), Value::str("w"))
            .unwrap();
        clone.remove(TupleId(2));
        clone
            .insert_values([Value::int(1), Value::str("x"), Value::str("r")])
            .unwrap();
        for side in [&clone, &inst] {
            let idx = pool.interned_for(side, &[0, 1], 1);
            assert_groups_like_rows(&idx, side, &[0, 1]);
            let set = pool.distinct_for(side, &[0, 1], 1);
            assert_eq!(set.len(), side.project_distinct(&[0, 1]).len());
        }
        assert_eq!(pool.stats().patches, 4, "both sides patched, none rebuilt");
        assert_groups_like_rows(&a, &instance(), &[0, 1]);
        assert_eq!(set.len(), instance().project_distinct(&[0, 1]).len());
        assert!(!clone.columnar().descends_from(&inst.columnar(), &[]));
    }

    #[test]
    fn columns_built_after_a_clone_is_taken_never_mix_dictionaries() {
        use crate::instance::CellRef;
        // The origin builds column 1 only after the clone was taken; the
        // clone then writes, so it numbers that column afresh from its own
        // rows ("z" first) and must not patch the origin's index.
        let inst = instance();
        inst.columnar();
        let mut clone = inst.clone();
        let pool = IndexPool::new();
        pool.interned_for(&inst, &[1], 1);
        pool.distinct_for(&inst, &[1], 1);
        clone
            .update_cell(CellRef::new(TupleId(0), 1), Value::str("z"))
            .unwrap();
        let idx = pool.interned_for(&clone, &[1], 1);
        assert_groups_like_rows(&idx, &clone, &[1]);
        let set = pool.distinct_for(&clone, &[1], 1);
        assert_eq!(set.len(), clone.project_distinct(&[1]).len());
        let stats = pool.stats();
        assert_eq!((stats.donor_hits, stats.donor_patches), (0, 0));

        // Unwritten, the clone takes over a column its origin built after
        // the clone was taken, so the donor serves it and patches forward.
        let mut clone = inst.clone();
        let origin_col = inst.columnar().column(&inst, 2);
        let donor = pool.interned_for(&inst, &[2], 1);
        assert!(Arc::ptr_eq(&donor, &pool.interned_for(&clone, &[2], 1)));
        let adopted = clone.columnar().built_column(2).unwrap();
        assert!(Arc::ptr_eq(&adopted, &origin_col));
        clone
            .update_cell(CellRef::new(TupleId(3), 2), Value::str("s"))
            .unwrap();
        let patches = pool.stats().patches;
        let idx = pool.interned_for(&clone, &[2], 1);
        assert_groups_like_rows(&idx, &clone, &[2]);
        assert_eq!(pool.stats().patches, patches + 1, "patched, not rebuilt");

        // A column the clone built itself before asking has a lineage of
        // its own: no donor hit, a cold build.
        let clone = inst.clone();
        clone.columnar().column(&clone, 0);
        let origin_idx = pool.interned_for(&inst, &[0], 1);
        let idx = pool.interned_for(&clone, &[0], 1);
        assert!(!Arc::ptr_eq(&origin_idx, &idx));
        assert_groups_like_rows(&idx, &clone, &[0]);
        assert_eq!(pool.stats().donor_hits, 1);
    }

    #[test]
    fn clones_without_their_origins_snapshot_build_cold() {
        // The origin had no current snapshot when the clone was taken, so
        // the clone numbers its dictionaries afresh and must not be served
        // the origin's index, nor patch it.
        let mut inst = instance();
        inst.columnar();
        inst.insert_values([Value::int(3), Value::str("v"), Value::str("p")])
            .unwrap();
        let mut clone = inst.clone();
        let pool = IndexPool::new();
        let a = pool.interned_for(&inst, &[0, 1], 1);
        let b = pool.interned_for(&clone, &[0, 1], 1);
        assert!(!Arc::ptr_eq(&a, &b));
        clone.remove(TupleId(0));
        let c = pool.interned_for(&clone, &[0, 1], 1);
        assert_groups_like_rows(&c, &clone, &[0, 1]);
        let stats = pool.stats();
        assert_eq!((stats.donor_hits, stats.donor_patches), (0, 0));
        assert_eq!(stats.patches, 1, "the clone patches only its own index");
    }

    #[test]
    fn pool_pressure_evicts_stale_donors_before_live_entries() {
        let mut inst = instance();
        let pool = IndexPool::with_capacity(2);
        pool.interned_for(&inst, &[0], 1);
        pool.interned_for(&inst, &[1], 1);
        inst.insert_values([Value::int(5), Value::str("v"), Value::str("q")])
            .unwrap();
        // The append upgrades [0]; the stale [1] stays as a patch donor.
        pool.interned_for(&inst, &[0], 1);
        assert_eq!(pool.stats().entries, 2);
        // Capacity reached: a new index of the live version evicts the stale
        // donor, never the live [0].
        pool.interned_for(&inst, &[2], 1);
        assert_eq!(pool.stats().entries, 2);
        let misses = pool.stats().misses;
        pool.interned_for(&inst, &[0], 1);
        assert_eq!(pool.stats().misses, misses, "the live entry survived");
    }

    #[test]
    fn pool_capacity_is_soft_for_the_live_version() {
        // A batch needing more distinct indexes than capacity keeps them
        // all: re-requesting any of them must not rebuild.
        let inst = instance();
        let pool = IndexPool::with_capacity(2);
        for attrs in [&[0usize][..], &[1], &[2], &[0, 1]] {
            pool.interned_for(&inst, attrs, 1);
        }
        assert_eq!(pool.stats().misses, 4);
        for attrs in [&[0usize][..], &[1], &[2], &[0, 1]] {
            pool.interned_for(&inst, attrs, 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 4, "live-version entries are never evicted");
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn pool_pressure_evicts_other_instances() {
        let a = instance();
        let b = instance();
        let pool = IndexPool::with_capacity(2);
        pool.interned_for(&a, &[0], 1);
        pool.interned_for(&a, &[1], 1);
        // Inserting for `b` under pressure drops `a`'s (possibly dead)
        // entries instead of growing without bound.
        pool.interned_for(&b, &[0], 1);
        let stats = pool.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn mutation_loops_do_not_grow_the_interned_pool_either() {
        let mut inst = instance();
        let pool = IndexPool::new();
        for i in 0..10 {
            inst.insert_values([Value::int(i), Value::str("w"), Value::str("p")])
                .unwrap();
            pool.interned_for(&inst, &[0], 1);
            pool.interned_for(&inst, &[0, 1], 1);
            assert_eq!(pool.stats().entries, 2);
        }
        assert_eq!(pool.stats().misses, 20);
    }

    #[test]
    fn stale_eviction_keeps_other_instances() {
        // Dropping stale versions of the mutated instance must not touch
        // other instances' live entries while under capacity.
        let mut a = instance();
        let b = instance();
        let pool = IndexPool::new();
        pool.interned_for(&b, &[0], 1);
        pool.interned_for(&a, &[0], 1);
        a.insert_values([Value::int(9), Value::str("w"), Value::str("p")])
            .unwrap();
        pool.interned_for(&a, &[0], 1);
        let stats = pool.stats();
        assert_eq!(stats.entries, 2, "b's entry and a's live entry remain");
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn interned_pool_reuses_indexes_and_groups_like_hash_index() {
        let inst = instance();
        let pool = IndexPool::new();
        let a = pool.interned_for(&inst, &[0, 1], 1);
        let b = pool.interned_for(&inst, &[0, 1], 1);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Same groups as the value-keyed index.
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(a.group_count(), baseline.len());
        let rows = a.rows_for_values(&[Value::int(1), Value::str("x")]);
        let ids: Vec<TupleId> = rows.iter().map(|&r| a.tuple_id(r)).collect();
        assert_eq!(ids, baseline.get(&[Value::int(1), Value::str("x")]));
        assert!(pool.approx_interned_bytes() > 0);
    }

    #[test]
    fn append_only_growth_extends_pooled_interned_indexes() {
        let mut inst = instance();
        let pool = IndexPool::new();
        pool.interned_for(&inst, &[0, 1], 1);
        assert_eq!(pool.stats().appends, 0);
        // Appending rows whose key-column values are already interned lets
        // the pool extend the cached index instead of rebuilding it.
        for _ in 0..3 {
            inst.insert_values([Value::int(1), Value::str("x"), Value::str("r")])
                .unwrap();
            let idx = pool.interned_for(&inst, &[0, 1], 1);
            let baseline = reference::HashIndex::build(&inst, &[0, 1]);
            assert_eq!(idx.group_count(), baseline.len());
            for (key, group) in baseline.groups() {
                let ids: Vec<TupleId> = idx
                    .rows_for_values(key)
                    .iter()
                    .map(|&r| idx.tuple_id(r))
                    .collect();
                assert_eq!(&ids, group);
            }
        }
        assert_eq!(pool.stats().appends, 3, "every growth round extends");
        // A journaled cell update takes the patch path instead of a rebuild
        // — even on an attribute outside the key, where no row moves.
        inst.update_cell(
            crate::instance::CellRef::new(TupleId(0), 2),
            Value::str("zz"),
        )
        .unwrap();
        let patched = pool.interned_for(&inst, &[0, 1], 1);
        assert_eq!(pool.stats().appends, 3, "an update is not an append");
        assert_eq!(pool.stats().patches, 1, "the update patches the index");
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(patched.group_count(), baseline.len());
        // A key-attribute update moves the edited row between groups.
        inst.update_cell(
            crate::instance::CellRef::new(TupleId(0), 1),
            Value::str("z"),
        )
        .unwrap();
        let moved = pool.interned_for(&inst, &[0, 1], 1);
        assert_eq!(pool.stats().patches, 2);
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(moved.group_count(), baseline.len());
        for (key, group) in baseline.groups() {
            let ids: Vec<TupleId> = moved
                .rows_for_values(key)
                .iter()
                .map(|&r| moved.tuple_id(r))
                .collect();
            assert_eq!(&ids, group);
        }
    }

    #[test]
    fn removals_patch_pooled_indexes() {
        let mut inst = instance();
        let pool = IndexPool::new();
        pool.interned_for(&inst, &[0, 1], 1);
        pool.distinct_for(&inst, &[0, 1], 1);
        // Remove the only (2, y) row, so its group vacates, and the head
        // row, so every later row is renumbered; append one row too.
        inst.remove(TupleId(2));
        inst.remove(TupleId(0));
        inst.insert_values([Value::int(1), Value::str("x"), Value::str("r")])
            .unwrap();
        let patched = pool.interned_for(&inst, &[0, 1], 1);
        let set = pool.distinct_for(&inst, &[0, 1], 1);
        let stats = pool.stats();
        assert_eq!(
            (stats.appends, stats.patches, stats.misses),
            (0, 2, 4),
            "a removal is journaled: both artifacts are patched, not rebuilt"
        );
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(patched.group_count(), baseline.len());
        assert_eq!(set.len(), baseline.len());
        for (key, group) in baseline.groups() {
            let ids: Vec<TupleId> = patched
                .rows_for_values(key)
                .iter()
                .map(|&r| patched.tuple_id(r))
                .collect();
            assert_eq!(&ids, group);
            assert!(set.contains_values(key));
        }
        assert!(!set.contains_values(&[Value::int(2), Value::str("y")]));
        assert!(patched
            .rows_for_values(&[Value::int(2), Value::str("y")])
            .is_empty());
    }

    #[test]
    fn every_cached_attr_set_extends_after_one_append() {
        // Regression test: inserting the first re-requested index after an
        // append used to purge the other attribute lists' stale entries, so
        // only one index per growth round could be patched instead of rebuilt.
        let mut inst = instance();
        let pool = IndexPool::new();
        let attr_sets: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        for attrs in attr_sets {
            pool.interned_for(&inst, attrs, 1);
        }
        inst.insert_values([Value::int(2), Value::str("y"), Value::str("q")])
            .unwrap();
        for attrs in attr_sets {
            pool.interned_for(&inst, attrs, 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.appends, 3, "all three indexes extend");
        assert_eq!(stats.entries, 3, "stale donors are gone after reuse");
    }

    #[test]
    fn distinct_pool_reuses_and_extends_sets() {
        let mut inst = instance();
        let pool = IndexPool::new();
        let a = pool.distinct_for(&inst, &[0, 1], 1);
        let b = pool.distinct_for(&inst, &[0, 1], 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), inst.project_distinct(&[0, 1]).len());
        assert!(pool.approx_distinct_bytes() > 0);
        // Append-only growth extends the cached set — even when the new row
        // carries a brand-new value (the repack-aware path).
        inst.insert_values([Value::int(77), Value::str("new"), Value::str("p")])
            .unwrap();
        let grown = pool.distinct_for(&inst, &[0, 1], 1);
        assert_eq!(pool.stats().appends, 1, "growth extends, never rebuilds");
        assert_eq!(grown.len(), inst.project_distinct(&[0, 1]).len());
        assert!(grown.contains_values(&[Value::int(77), Value::str("new")]));
        // A journaled cell update on a key attribute patches the cached set:
        // the edited row's new projection appears, vacated keys vanish.
        inst.update_cell(crate::instance::CellRef::new(TupleId(0), 0), Value::int(-1))
            .unwrap();
        let patched = pool.distinct_for(&inst, &[0, 1], 1);
        let stats = pool.stats();
        assert_eq!((stats.appends, stats.patches), (1, 1));
        assert_eq!(patched.len(), inst.project_distinct(&[0, 1]).len());
        assert!(patched.contains_values(&[Value::int(-1), Value::str("x")]));
    }

    #[test]
    fn cancelled_edits_plus_appends_upgrade_as_an_append() {
        use crate::instance::CellRef;
        let mut inst = instance();
        let pool = IndexPool::new();
        let prev = inst.columnar();
        for attr in 0..3 {
            prev.column(&inst, attr);
        }
        pool.interned_for(&inst, &[0, 1], 1);
        pool.distinct_for(&inst, &[0, 1], 1);
        let v0 = inst.version();
        // A→B→A on a key cell, with a snapshot taken while it holds B (so
        // the dictionary learns B), plus appends before and after.
        let cell = CellRef::new(TupleId(1), 1);
        inst.update_cell(cell, Value::str("b")).unwrap();
        inst.columnar();
        inst.insert_values([Value::int(2), Value::str("y"), Value::str("r")])
            .unwrap();
        inst.update_cell(cell, Value::str("x")).unwrap();
        inst.insert_values([Value::int(7), Value::str("new"), Value::str("p")])
            .unwrap();
        assert_eq!(inst.delta_since(v0), Some(Delta::default()));
        // The snapshot equals a fresh build cell for cell.
        let snapshot = inst.columnar();
        let fresh = Arc::new(ColumnarStore::new(&inst));
        assert_eq!(
            snapshot.rows().collect::<Vec<_>>(),
            fresh.rows().collect::<Vec<_>>()
        );
        for attr in 0..3 {
            let (s, f) = (snapshot.column(&inst, attr), fresh.column(&inst, attr));
            for row in 0..snapshot.len() {
                assert_eq!(
                    s.interner().resolve(s.id_at(row)),
                    f.interner().resolve(f.id_at(row)),
                    "attr {attr} row {row}"
                );
            }
        }
        // The pooled index and set equal fresh builds, and both upgrades
        // count as appends: the gap carries no net cell change.
        let idx = pool.interned_for(&inst, &[0, 1], 1);
        let set = pool.distinct_for(&inst, &[0, 1], 1);
        let stats = pool.stats();
        assert_eq!((stats.appends, stats.patches, stats.misses), (2, 0, 4));
        let rebuilt = InternedIndex::build(&inst, &fresh, &[0, 1], 1);
        assert_eq!(idx.group_count(), rebuilt.group_count());
        let baseline = reference::HashIndex::build(&inst, &[0, 1]);
        assert_eq!(idx.group_count(), baseline.len());
        assert_eq!(set.len(), baseline.len());
        for (key, group) in baseline.groups() {
            let ids: Vec<TupleId> = idx
                .rows_for_values(key)
                .iter()
                .map(|&r| idx.tuple_id(r))
                .collect();
            assert_eq!(&ids, group);
            assert_eq!(rebuilt.rows_for_values(key), idx.rows_for_values(key));
            assert!(set.contains_values(key));
        }
        assert!(!set.contains_values(&[Value::int(1), Value::str("b")]));
    }

    #[test]
    fn invalidate_and_clear_empty_the_pool() {
        let inst = instance();
        let other = instance();
        let pool = IndexPool::new();
        pool.interned_for(&inst, &[0], 1);
        pool.distinct_for(&other, &[0], 1);
        pool.invalidate(&inst);
        assert_eq!(pool.stats().entries, 1);
        pool.clear();
        assert_eq!(pool.stats().entries, 0);
    }

    #[test]
    fn sequential_use_never_counts_races() {
        let inst = instance();
        let pool = IndexPool::new();
        pool.interned_for(&inst, &[0, 1], 1);
        pool.interned_for(&inst, &[0, 1], 1);
        pool.distinct_for(&inst, &[1], 1);
        assert_eq!(pool.stats().races, 0);
    }

    #[test]
    fn duplicate_concurrent_builds_keep_one_winner() {
        // Many threads rush the same cold key through a barrier.  Whether a
        // duplicate build actually happens depends on scheduling, but the
        // ledger must reconcile either way: every miss either inserted the
        // entry or lost the race to a concurrent insert, and every caller
        // ends up sharing the one cached winner.
        let inst = instance();
        let pool = IndexPool::new();
        let barrier = std::sync::Barrier::new(8);
        let indexes: Vec<Arc<crate::store::InternedIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.interned_for(&inst, &[0, 1], 1)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker survives"))
                .collect()
        });
        for idx in &indexes {
            assert!(
                Arc::ptr_eq(idx, &indexes[0]),
                "all callers share the winner"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.entries, 1, "one index survives");
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(
            stats.misses,
            stats.races + 1,
            "every miss but the winning insert is a counted duplicate race"
        );
    }

    #[test]
    fn pool_is_usable_across_threads() {
        let inst = instance();
        let pool = IndexPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for attrs in [&[0usize][..], &[1], &[0, 1], &[2]] {
                        let idx = pool.interned_for(&inst, attrs, 1);
                        assert_eq!(idx.attrs(), attrs);
                    }
                });
            }
        });
        assert_eq!(pool.stats().entries, 4);
    }
}
