//! A shared, concurrent partition source for level-wise discovery.
//!
//! TANE-style discovery asks for the partitions of many overlapping
//! attribute sets — `π_X` for every candidate LHS `X` and `π_{X ∪ {A}}` for
//! every candidate FD `X → A`.  Rebuilding each one from the row store
//! (hashing a `Vec<Value>` projection per tuple per candidate) is the
//! dominant cost of discovery on large instances.  [`PartitionSource`]
//! instead serves every request from three layers of reuse:
//!
//! 1. **grouped base partitions** — single-attribute partitions come from
//!    one constructor over multi-row groups,
//!    [`StrippedPartition::from_groups`], with two group providers: on a
//!    live instance the CSR postings of [`dq_relation::InternedIndex`]es,
//!    pooled in a shared [`IndexPool`] keyed by `(instance, version,
//!    attrs)` so the same physical index also serves detection and repair;
//!    on a [`ShardSource`] (e.g. a memory-mapped relation) a two-scan
//!    count→collect over the shards ([`RowGroups::scan`]);
//! 2. **partition products** — multi-attribute partitions are computed as
//!    `π_X · π_A` over already-cached partitions through a pooled
//!    [`PartitionProber`] probe table (stripped partitions shrink rapidly
//!    with width, so products touch far fewer tuples than a rebuild);
//! 3. **memoization** — partitions are cached by their sorted attribute
//!    set, so `X` and any permutation of `X` share one materialization
//!    across FD discovery, CFD conditioning and profiling.
//!
//! The source is **concurrent**: every method takes `&self`, so the
//! independent candidates of one lattice level can fan out across the
//! engine's thread pool ([`dq_core::engine::parallel_map`]) and validate
//! against one shared source.  Three pieces make that safe without
//! serializing the level:
//!
//! * the partition cache is **lock-striped** — requests hash their sorted
//!   attribute set onto one of `STRIPES` independent `RwLock`ed maps, so
//!   readers of different partitions never contend and writers only block
//!   their own stripe;
//! * partitions are **built outside every lock** (products recurse through
//!   `partition` itself, so holding a stripe while building could deadlock
//!   on the same stripe); two workers missing on the same cold key both
//!   build and the first insert wins — the loser's duplicate is discarded
//!   and counted in [`PartitionSource::duplicate_races`];
//! * probe tables come from a **prober pool** — a worker borrows an
//!   epoch-stamped [`PartitionProber`] for exactly one product and returns
//!   it, so scratch buffers are reused across calls but never shared
//!   between threads mid-product.
//!
//! Because a partition's value depends only on its key, races change
//! neither the cache contents nor
//! [`partitions_built`](PartitionSource::partitions_built) (it counts
//! winning inserts, i.e. distinct materialized attribute sets — the same
//! number the sequential sweep reports).
//!
//! The reference partition builds ([`StrippedPartition::build`], keyed by
//! `Vec<Value>` projections from the row store) stay available behind the
//! same interface as [`PartitionSource::naive`]: FD discovery selects them
//! with [`FdDiscoveryConfig::use_interned`](crate::fd_discovery::FdDiscoveryConfig::use_interned)
//! `= false`, which is how [`crate::reference::discover_cfds`] mines its
//! FDs.

use crate::partition::{PartitionProber, StrippedPartition};
use dq_relation::{
    FxHasher, IndexPool, RelationInstance, RowGroups, ShardSource, StoreShardSource,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of independent cache stripes.  Power of two, comfortably above
/// any realistic worker count so that stripe collisions between concurrent
/// writers stay rare.
const STRIPES: usize = 32;

/// Resolves a configured worker count: `0` means "size to the machine".
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Serves stripped partitions for one instance, either
/// from pooled interned indexes (the fast path) or from the legacy
/// value-keyed builds.  Shareable across worker threads: see the module
/// docs for the concurrency design.
pub struct PartitionSource<'a> {
    backend: Backend<'a>,
    pool: Arc<IndexPool>,
    threads: usize,
    stripes: Vec<RwLock<HashMap<Vec<usize>, Arc<StrippedPartition>>>>,
    probers: Mutex<Vec<PartitionProber>>,
    built: AtomicUsize,
    races: AtomicUsize,
    obs: SourceObs,
}

/// Where single-attribute partitions come from.
enum Backend<'a> {
    /// Pooled interned indexes over a live instance (the fast path).
    Interned(&'a RelationInstance),
    /// Legacy `Vec<Value>`-keyed builds from the row store.
    Naive(&'a RelationInstance),
    /// Shard-cursor scans over an in-RAM snapshot or a memory-mapped
    /// relation — no pooled indexes, no row store, memory bounded by the
    /// dictionaries plus the partitions themselves.
    Shards(&'a dyn ShardSource),
}

/// Pre-registered `dq-obs` handles mirroring the partition cache's
/// counters as live metrics (near-no-ops while recording is off).
struct SourceObs {
    hits: dq_obs::Counter,
    built: dq_obs::Counter,
    races: dq_obs::Counter,
    build_ns: dq_obs::Histogram,
}

impl SourceObs {
    fn new() -> Self {
        let rec = dq_obs::recorder();
        SourceObs {
            hits: rec.counter("partition.hits"),
            built: rec.counter("partition.built"),
            races: rec.counter("partition.races"),
            build_ns: rec.histogram("partition.build_ns"),
        }
    }
}

impl<'a> PartitionSource<'a> {
    fn with_backend(backend: Backend<'a>, pool: Arc<IndexPool>, threads: usize) -> Self {
        PartitionSource {
            backend,
            pool,
            threads: threads.max(1),
            stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            probers: Mutex::new(Vec::new()),
            built: AtomicUsize::new(0),
            races: AtomicUsize::new(0),
            obs: SourceObs::new(),
        }
    }

    /// An interned source over a shared pool, parallelizing cold index
    /// builds across up to `threads` workers.
    pub fn interned(instance: &'a RelationInstance, pool: Arc<IndexPool>, threads: usize) -> Self {
        Self::with_backend(Backend::Interned(instance), pool, threads)
    }

    /// The reference source: every partition is built from the row store
    /// with `Vec<Value>` keys.  Kept as the test oracle of the interned
    /// source.
    pub fn naive(instance: &'a RelationInstance) -> Self {
        Self::with_backend(Backend::Naive(instance), Arc::new(IndexPool::new()), 1)
    }

    /// A shard-cursor source: single-attribute partitions come from
    /// sequential two-scan groupings of `source`'s shards
    /// ([`RowGroups::scan`]), wider partitions from products
    /// over the cache as usual.  Works over a memory-mapped relation
    /// without ever materializing tuples or pooled indexes.
    pub fn from_shards(source: &'a dyn ShardSource, threads: usize) -> Self {
        Self::with_backend(Backend::Shards(source), Arc::new(IndexPool::new()), threads)
    }

    /// An interned source with a private pool sized to the machine.
    pub fn with_fresh_pool(instance: &'a RelationInstance) -> Self {
        Self::interned(instance, Arc::new(IndexPool::new()), resolve_threads(0))
    }

    /// Number of distinct partitions materialized so far (cache hits and
    /// discarded duplicate builds excluded) — identical between a
    /// sequential and a fanned-out sweep over the same candidates.
    pub fn partitions_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Number of duplicate builds discarded because a concurrent worker
    /// built and inserted the same partition first.  Always 0 for a
    /// single-threaded sweep.
    pub fn duplicate_races(&self) -> usize {
        self.races.load(Ordering::Relaxed)
    }

    /// The shared index pool behind the interned path.
    pub fn pool(&self) -> &Arc<IndexPool> {
        &self.pool
    }

    /// The stripe holding `key`'s cache slot.
    fn stripe(&self, key: &[usize]) -> &RwLock<HashMap<Vec<usize>, Arc<StrippedPartition>>> {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        &self.stripes[hasher.finish() as usize % STRIPES]
    }

    /// Runs `f` over a prober borrowed from the pool — exclusive for one
    /// product or `g3` count, its scratch capacity retained across calls.
    pub(crate) fn with_prober<R>(&self, f: impl FnOnce(&mut PartitionProber) -> R) -> R {
        let mut prober = self
            .probers
            .lock()
            .expect("prober pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut prober);
        self.probers
            .lock()
            .expect("prober pool poisoned")
            .push(prober);
        out
    }

    /// The stripped partition of the instance on `attrs` (order and
    /// duplicates ignored), memoized by sorted attribute set.
    pub fn partition(&self, attrs: &[usize]) -> Arc<StrippedPartition> {
        let mut key = attrs.to_vec();
        key.sort_unstable();
        key.dedup();
        let stripe = self.stripe(&key);
        if let Some(p) = stripe.read().expect("stripe poisoned").get(&key) {
            self.obs.hits.inc();
            return Arc::clone(p);
        }
        // Build with no lock held: products recurse into `partition` (the
        // operands may live on this very stripe), and a slow build must not
        // stall readers of sibling partitions.
        let partition = Arc::new(self.obs.build_ns.time(|| self.build(&key)));
        match stripe.write().expect("stripe poisoned").entry(key) {
            Entry::Occupied(winner) => {
                // A concurrent worker built the same partition first; both
                // results are identical, keep the cached winner.
                self.races.fetch_add(1, Ordering::Relaxed);
                self.obs.races.inc();
                Arc::clone(winner.get())
            }
            Entry::Vacant(slot) => {
                self.built.fetch_add(1, Ordering::Relaxed);
                self.obs.built.inc();
                slot.insert(Arc::clone(&partition));
                partition
            }
        }
    }

    /// Materializes the partition for an already-normalized `key`.
    ///
    /// Cold pooled index builds run single-threaded here: `partition` is
    /// called from inside the level fan-out, where the candidates are the
    /// parallel axis — letting each worker also shard its build would nest
    /// up to `threads²` scoped threads and thrash.  Callers that want a
    /// big cold build to shard internally warm it up front
    /// ([`warm_singles`](Self::warm_singles)).
    fn build(&self, key: &[usize]) -> StrippedPartition {
        match &self.backend {
            Backend::Naive(instance) => StrippedPartition::build(instance, key),
            // π_{X ∪ {A}} = π_X · π_A over a pooled probe table; both
            // operands come out of this cache (built recursively on a cold
            // miss), so a level-wise sweep touches each base partition once.
            _ if key.len() > 1 => {
                let (rest, last) = key.split_at(key.len() - 1);
                let left = self.partition(rest);
                let right = self.partition(last);
                self.with_prober(|prober| left.product_with(&right, prober))
            }
            // Base partitions, the one place the interned and shard backends
            // differ: the former reads the groups off the pooled index, the
            // latter scans the shards.
            Backend::Interned(instance) => {
                let index = self.pool.interned_for(instance, key, 1);
                let source = StoreShardSource::with_store(instance, Arc::clone(index.store()));
                StrippedPartition::from_groups(&source, index.multi_group_rows())
            }
            Backend::Shards(source) => {
                StrippedPartition::from_groups(*source, RowGroups::scan(*source, key).iter())
            }
        }
    }

    /// Pre-builds the pooled single-attribute interned indexes — the
    /// dominant cold cost of a sweep — spending parallelism where it pays,
    /// exactly like the detection engine's warm pass: with at least as
    /// many attributes as workers (or a store too small to shard) the
    /// builds run concurrently with one thread each; otherwise the few
    /// builds run in sequence and each shards internally across the whole
    /// budget.  After warming, the per-level fan-out never nests parallel
    /// builds.  A no-op on the naive backend (it has no indexes to warm;
    /// its partitions are built by the fan-out itself).
    pub fn warm_singles(&self, attrs: &[usize]) {
        if attrs.is_empty() {
            return;
        }
        let singles: Vec<Vec<usize>> = attrs.iter().map(|&a| vec![a]).collect();
        match &self.backend {
            Backend::Naive(_) => {}
            Backend::Interned(instance) => {
                let sharded = instance.columnar().shard_count() > 1;
                if singles.len() >= self.threads || !sharded {
                    dq_core::engine::parallel_map(&singles, self.threads, |attrs| {
                        self.pool.interned_for(instance, attrs, 1);
                    });
                } else {
                    for attrs in &singles {
                        self.pool.interned_for(instance, attrs, self.threads);
                    }
                }
            }
            Backend::Shards(_) => {
                // Shard scans are sequential per attribute; fan the single-
                // attribute builds out across workers through the cache.
                dq_core::engine::parallel_map(&singles, self.threads, |attrs| {
                    self.partition(attrs);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::g3_error;
    use dq_core::engine::parallel_map;
    use dq_relation::{Domain, RelationSchema, Value};

    fn instance() -> RelationInstance {
        let schema = RelationSchema::new(
            "r",
            [("a", Domain::Text), ("b", Domain::Text), ("c", Domain::Int)],
        );
        let mut inst = RelationInstance::from_schema(schema);
        for (a, b, c) in [
            ("x", "p", 1),
            ("x", "p", 1),
            ("x", "q", 1),
            ("y", "p", 2),
            ("y", "p", 2),
            ("z", "q", 3),
        ] {
            inst.insert_values([Value::str(a), Value::str(b), Value::int(c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn interned_source_matches_naive_builds() {
        let inst = instance();
        let fast = PartitionSource::with_fresh_pool(&inst);
        let slow = PartitionSource::naive(&inst);
        for attrs in [&[0usize][..], &[1], &[2], &[0, 1], &[1, 2], &[0, 1, 2], &[]] {
            assert_eq!(
                *fast.partition(attrs),
                *slow.partition(attrs),
                "attrs {attrs:?}"
            );
            assert_eq!(
                *fast.partition(attrs),
                StrippedPartition::build(&inst, attrs),
                "attrs {attrs:?} vs direct build"
            );
        }
    }

    #[test]
    fn partitions_are_memoized_across_permutations() {
        let inst = instance();
        let source = PartitionSource::with_fresh_pool(&inst);
        let a = source.partition(&[0, 1]);
        let built = source.partitions_built();
        let b = source.partition(&[1, 0]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(source.partitions_built(), built, "permutation is a hit");
    }

    #[test]
    fn g3_agrees_between_paths() {
        let inst = instance();
        let fast = PartitionSource::with_fresh_pool(&inst);
        let slow = PartitionSource::naive(&inst);
        for (lhs, rhs) in [(&[0usize][..], 1usize), (&[1], 0), (&[0, 1], 2), (&[2], 0)] {
            let with_rhs: Vec<usize> = lhs.iter().copied().chain([rhs]).collect();
            let g3 = |source: &PartitionSource<'_>| {
                let (x, xa) = (source.partition(lhs), source.partition(&with_rhs));
                source.with_prober(|prober| x.g3_with(&xa, prober))
            };
            assert_eq!(g3(&fast), g3(&slow), "{lhs:?} -> {rhs}");
            assert_eq!(g3(&fast), g3_error(&inst, lhs, &[rhs]), "{lhs:?} -> {rhs}");
        }
    }

    #[test]
    fn concurrent_requests_share_one_materialization_per_key() {
        let inst = instance();
        let source = PartitionSource::with_fresh_pool(&inst);
        let attr_sets: Vec<Vec<usize>> = vec![
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![0, 1, 2],
        ];
        // Every worker requests every key; the cache must end up with one
        // partition per distinct set, all equal to the direct builds.
        let requests: Vec<usize> = (0..8).collect();
        let per_worker = parallel_map(&requests, 8, |_| {
            attr_sets
                .iter()
                .map(|attrs| source.partition(attrs))
                .collect::<Vec<_>>()
        });
        for partitions in &per_worker {
            for (attrs, partition) in attr_sets.iter().zip(partitions) {
                assert_eq!(
                    **partition,
                    StrippedPartition::build(&inst, attrs),
                    "attrs {attrs:?}"
                );
            }
        }
        assert_eq!(
            source.partitions_built(),
            attr_sets.len(),
            "built counts distinct materializations, not duplicate races"
        );
    }

    #[test]
    fn sequential_sweeps_never_count_races() {
        let inst = instance();
        let source = PartitionSource::with_fresh_pool(&inst);
        for attrs in [&[0usize][..], &[1], &[0, 1], &[0, 1, 2]] {
            source.partition(attrs);
            source.partition(attrs);
        }
        assert_eq!(source.duplicate_races(), 0);
    }
}
