//! A shared-index, parallel violation-detection engine: the one detector
//! of every dependency class.
//!
//! The row-at-a-time detectors of [`crate::reference`] build one hash index
//! per dependency per call, even when dependencies share left-hand sides
//! (every normalized fragment of a CFD keeps its parent's LHS) and even when
//! the same instance is checked repeatedly.  On the paper's Fig. 1 scaling
//! workloads index construction dominates detection, so the engine attacks
//! exactly that cost:
//!
//! * **index sharing** — dependencies are grouped by their LHS attribute
//!   set, each distinct index is built once and memoized in an
//!   [`IndexPool`] keyed by `(instance identity, version, attributes)`, so
//!   repeated runs over an unchanged instance rebuild nothing;
//! * **parallel fan-out** — index construction and per-dependency detection
//!   both spread across a scoped thread pool sized to the machine.
//!
//! * **interned storage** — detection runs over the instance's columnar
//!   snapshot ([`dq_relation::ColumnarStore`]): per-column dictionaries
//!   encode every value as a dense `u32`, indexes pack multi-attribute keys
//!   into machine words ([`dq_relation::InternedIndex`]), and a cold build
//!   shards across the thread pool so even a *single* huge dependency
//!   parallelizes within its index.
//!
//! CFD and denial detection run one grouping kernel per class
//! ([`crate::stream`]) with two group providers: the in-RAM entry points
//! hand it the multi-row groups of the pooled index over a
//! [`StoreShardSource`] of the instance, the `*_from_shards` entry points
//! the groups of a two-scan shard count→collect ([`RowGroups::scan`]) over
//! any [`ShardSource`] — so the two paths differ only in where the groups
//! come from.
//!
//! CFD reports are grouped ([`CfdViolationGroups`]): per violating LHS
//! group its patterns and RHS classes, with totals computed arithmetically
//! and pair lists built only when a consumer asks for them.
//! [`DetectionEngine::maintain_cfd_violations`] keeps such a report
//! current group by group: a round patches only the groups an affected
//! tuple left or joined, from their previous RHS classes, and copies every
//! other group over in bulk, so it never enumerates a pair.  Incremental
//! detection classifies the groups the added tuples fall in off the pooled
//! index and reads their pairs off those groups.
//!
//! INDs and CINDs share one inclusion kernel ([`Cind`]'s): an IND runs as
//! the CIND with empty `Xp`/`Yp`, and both entry points warm the same
//! pooled LHS indexes and RHS distinct sets.
//!
//! Library code detects only through the engine; each type's `holds_on`
//! (and [`Fd::is_key_of`](crate::fd::Fd::is_key_of)) is a one-line
//! default-engine form of the matching entry point, reading the verdict off
//! the report.  For every dependency class the engine produces a report
//! equal (including order — violation lists are canonicalized) to the
//! corresponding [`crate::reference`] detector's, which
//! `tests/detect_equivalence.rs` checks property-style across generated
//! workloads.

use crate::cfd::{Cfd, CfdViolation};
use crate::cind::{Cind, CindViolation};
use crate::denial::DenialConstraint;
use crate::detect::{
    CfdViolationGroups, CfdViolationReport, CindViolationReport, EcfdViolationReport,
};
use crate::ecfd::{Ecfd, EcfdViolation};
use crate::ind::Ind;
use crate::stream;
use dq_relation::{
    ColumnarStore, Database, Delta, DqResult, IndexPool, IndexPoolStats, InternedIndex,
    RelationInstance, RowGroups, ShardSource, StoreShardSource, TupleId,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Shared-index, parallel violation detection over sets of dependencies.
///
/// Construction is cheap; the value of a long-lived engine is its warm
/// [`IndexPool`], so prefer one engine per instance-checking context over
/// one per call.
#[derive(Debug)]
pub struct DetectionEngine {
    pool: IndexPool,
    threads: usize,
}

impl Default for DetectionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectionEngine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        Self::with_threads(dq_relation::par::available_threads())
    }

    /// An engine using at most `threads` worker threads (1 = sequential,
    /// still index-sharing).
    pub fn with_threads(threads: usize) -> Self {
        DetectionEngine {
            pool: IndexPool::default(),
            threads: threads.max(1),
        }
    }

    /// The engine's index pool (exposed for cache management and stats).
    pub fn pool(&self) -> &IndexPool {
        &self.pool
    }

    /// The engine's worker-thread budget (callers borrowing the pool for
    /// their own index builds should size cold builds the same way).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache counters — how much index construction the pool saved.
    pub fn pool_stats(&self) -> IndexPoolStats {
        self.pool.stats()
    }

    /// Runs one pooled index build per item, spending parallelism where it
    /// pays: with at least as many builds as workers — or when the data is
    /// too small to shard (`sharded == false`) — the builds run concurrently
    /// with one thread each; otherwise the few builds run in sequence and
    /// each parallelizes internally across the columnar store's row shards,
    /// so a single huge dependency still uses the whole pool.
    fn warm_builds<T: Sync>(&self, items: &[T], sharded: bool, build: impl Fn(&T, usize) + Sync) {
        if items.is_empty() {
            return;
        }
        if items.len() >= self.threads || !sharded {
            parallel_map(items, self.threads, |item| build(item, 1));
        } else {
            for item in items {
                build(item, self.threads);
            }
        }
    }

    /// Builds every interned index the LHS groups of `lhs_sets` need,
    /// warming the pool before detection fans out.
    fn warm_interned(&self, instance: &RelationInstance, lhs_sets: BTreeSet<Vec<usize>>) {
        let distinct: Vec<Vec<usize>> = lhs_sets.into_iter().collect();
        if distinct.is_empty() {
            return;
        }
        let sharded = instance.columnar().shard_count() > 1;
        self.warm_builds(&distinct, sharded, |lhs, threads| {
            self.pool.interned_for(instance, lhs, threads);
        });
    }

    /// Detects all violations of `cfds` in `instance`.
    ///
    /// Equivalent to [`crate::reference::detect_cfd_violations`] — same
    /// per-dependency violation lists in the same order.
    pub fn detect_cfd_violations(
        &self,
        instance: &RelationInstance,
        cfds: &[Cfd],
    ) -> CfdViolationReport {
        let _span = dq_obs::span!(
            "detect.cfd",
            relation = instance.schema().name(),
            deps = cfds.len()
        );
        self.warm_interned(instance, cfds.iter().map(|c| c.lhs().to_vec()).collect());
        let source = StoreShardSource::new(instance);
        let groups = parallel_map(cfds, self.threads, |cfd| {
            let index = self.pool.interned_for(instance, cfd.lhs(), 1);
            stream::cfd_violations(cfd, &source, index.multi_group_rows())
        });
        counted(CfdViolationReport::from_groups(groups))
    }

    /// Incremental detection: violations involving at least one tuple of
    /// `added`, assuming the rest of `instance` was already checked.
    /// Duplicate ids and ids of removed tuples are ignored.
    ///
    /// Per dependency, the grouped kernel re-derives only the single-tuple
    /// verdicts of `added` and the LHS groups they fall in, off the pooled
    /// index; the pairs involving `added` are then read off those groups
    /// ([`CfdViolationGroups::pairs_involving`]).  The cost is the added
    /// tuples times their group sizes, not the relation.  Equivalent to
    /// [`crate::reference::detect_cfd_violations_incremental`].
    pub fn detect_cfd_violations_incremental(
        &self,
        instance: &RelationInstance,
        cfds: &[Cfd],
        added: &[TupleId],
    ) -> CfdViolationReport {
        let _span = dq_obs::span!("detect.cfd.incremental", added = added.len());
        self.warm_interned(instance, cfds.iter().map(|c| c.lhs().to_vec()).collect());
        let mut added = added.to_vec();
        added.sort_unstable();
        added.dedup();
        let source = StoreShardSource::new(instance);
        let per_dependency: Vec<Vec<CfdViolation>> = parallel_map(cfds, self.threads, |cfd| {
            let index = self.pool.interned_for(instance, cfd.lhs(), 1);
            stream::cfd_violations_touching(cfd, &source, &index, &added).pairs_involving(&added)
        });
        CfdViolationReport::from_per_dependency(per_dependency)
    }

    /// Detects all violations of `ecfds` in `instance`.
    ///
    /// Equivalent to [`crate::reference::detect_ecfd_violations`].
    pub fn detect_ecfd_violations(
        &self,
        instance: &RelationInstance,
        ecfds: &[Ecfd],
    ) -> EcfdViolationReport {
        let _span = dq_obs::span!("detect.ecfd", deps = ecfds.len());
        self.warm_interned(instance, ecfds.iter().map(|e| e.lhs().to_vec()).collect());
        let per_dependency: Vec<Vec<EcfdViolation>> = parallel_map(ecfds, self.threads, |ecfd| {
            let index = self.pool.interned_for(instance, ecfd.lhs(), 1);
            ecfd.violations_with_interned(instance, &index)
        });
        EcfdViolationReport::from_per_dependency(per_dependency)
    }

    /// Detects all violations of denial `constraints` in `instance`.
    ///
    /// Equivalent to [`crate::reference::detect_denial_violations`].
    /// Two-variable constraints with attribute equalities (FD- and key-shaped
    /// constraints) only pair tuples within the groups of a shared interned
    /// index on those attributes instead of scanning every pair; other
    /// shapes evaluate every pair, in parallel either way.
    ///
    /// # Panics
    /// Panics on a constraint with other than one or two tuple variables,
    /// like [`crate::reference::denial_violations`].
    pub fn detect_denial_violations(
        &self,
        instance: &RelationInstance,
        constraints: &[DenialConstraint],
    ) -> Vec<Vec<Vec<TupleId>>> {
        let _span = dq_obs::span!("detect.denial", deps = constraints.len());
        self.warm_interned(
            instance,
            constraints
                .iter()
                .filter_map(|dc| dc.pair_partition_attrs())
                .collect(),
        );
        let source = StoreShardSource::new(instance);
        parallel_map(constraints, self.threads, |dc| {
            let index = dc
                .pair_partition_attrs()
                .map(|attrs| self.pool.interned_for(instance, &attrs, 1));
            stream::denial_violations(
                dc,
                &source,
                index.as_deref().map(InternedIndex::multi_group_rows),
            )
        })
    }

    /// Shard-cursor CFD detection over any [`ShardSource`] — an in-RAM
    /// snapshot or a memory-mapped on-disk relation.  No pooled index is
    /// built: each dependency's LHS groups come from a two-scan
    /// count→collect over the shards ([`RowGroups::scan`]), so resident
    /// memory stays bounded by the dictionaries plus grouping state.
    /// Produces exactly
    /// [`detect_cfd_violations`](Self::detect_cfd_violations)'s report over
    /// the same logical relation.
    pub fn detect_cfd_violations_from_shards(
        &self,
        source: &dyn ShardSource,
        cfds: &[Cfd],
    ) -> CfdViolationReport {
        let _span = dq_obs::span!(
            "detect.cfd.stream",
            relation = source.schema().name(),
            deps = cfds.len()
        );
        let groups = parallel_map(cfds, self.threads, |cfd| {
            let groups = RowGroups::scan(source, cfd.lhs());
            stream::cfd_violations(cfd, source, groups.iter())
        });
        counted(CfdViolationReport::from_groups(groups))
    }

    /// Shard-cursor denial-constraint detection over any [`ShardSource`],
    /// grouping on the equality attributes with [`RowGroups::scan`].
    /// Produces exactly
    /// [`detect_denial_violations`](Self::detect_denial_violations)'s
    /// reports over the same logical relation.
    ///
    /// # Panics
    /// Panics on a constraint with other than one or two tuple variables,
    /// like [`crate::reference::denial_violations`].
    pub fn detect_denial_violations_from_shards(
        &self,
        source: &dyn ShardSource,
        constraints: &[DenialConstraint],
    ) -> Vec<Vec<Vec<TupleId>>> {
        let _span = dq_obs::span!(
            "detect.denial.stream",
            relation = source.schema().name(),
            deps = constraints.len()
        );
        parallel_map(constraints, self.threads, |dc| {
            let groups = dc
                .pair_partition_attrs()
                .map(|attrs| RowGroups::scan(source, &attrs));
            stream::denial_violations(dc, source, groups.as_ref().map(RowGroups::iter))
        })
    }

    /// Detects all violations of `cinds` in `db` on the inclusion kernel
    /// ([`Cind`]'s): one pooled interned index per distinct
    /// `(LHS relation, X ++ Xp)` and one pooled distinct-projection set per
    /// distinct `(RHS relation, Y ++ Yp)`, shared across dependencies, which
    /// fan out across threads.
    ///
    /// Equivalent to [`crate::reference::detect_cind_violations`] — same
    /// per-dependency violation lists in the same order.
    pub fn detect_cind_violations(
        &self,
        db: &Database,
        cinds: &[Cind],
    ) -> DqResult<CindViolationReport> {
        let _span = dq_obs::span!("detect.cind", deps = cinds.len());
        let per_dependency = self.detect_inclusions(db, cinds, false)?;
        Ok(CindViolationReport::from_per_dependency(per_dependency))
    }

    /// Detects all violations of `inds` in `db`: each IND runs on the CIND
    /// inclusion kernel as the CIND with empty `Xp`/`Yp`
    /// ([`Cind::from_ind`]), sharing its pooled structures with
    /// [`detect_cind_violations`](Self::detect_cind_violations).
    /// `ignore_nulls` switches to SQL-style IND semantics: LHS tuples with a
    /// `NULL` in `X` are exempt.
    ///
    /// Equivalent to calling [`crate::reference::ind_violations`] per
    /// dependency — same per-dependency violation lists in the same
    /// (ascending tuple id) order.
    pub fn detect_ind_violations(
        &self,
        db: &Database,
        inds: &[Ind],
        ignore_nulls: bool,
    ) -> DqResult<Vec<Vec<TupleId>>> {
        let _span = dq_obs::span!("detect.ind", deps = inds.len());
        let cinds = inds
            .iter()
            .map(|ind| {
                let lhs = db.require_relation(ind.lhs_relation())?;
                let rhs = db.require_relation(ind.rhs_relation())?;
                Ok(Cind::from_ind(ind, lhs.schema(), rhs.schema()))
            })
            .collect::<DqResult<Vec<Cind>>>()?;
        let per_dependency = self.detect_inclusions(db, &cinds, ignore_nulls)?;
        Ok(per_dependency
            .into_iter()
            .map(|violations| violations.into_iter().map(|v| v.tuple).collect())
            .collect())
    }

    /// The inclusion kernel over `cinds`, after warming every pooled LHS
    /// index and RHS distinct set they need.
    fn detect_inclusions(
        &self,
        db: &Database,
        cinds: &[Cind],
        ignore_nulls: bool,
    ) -> DqResult<Vec<Vec<CindViolation>>> {
        let mut lhs_builds: BTreeSet<(&str, Vec<usize>)> = BTreeSet::new();
        let mut rhs_builds: BTreeSet<(&str, Vec<usize>)> = BTreeSet::new();
        for cind in cinds {
            let (lhs, rhs) = (cind.lhs_schema().name(), cind.rhs_schema().name());
            db.require_relation(lhs)?;
            db.require_relation(rhs)?;
            lhs_builds.insert((lhs, cind.lhs_group_attrs()));
            rhs_builds.insert((rhs, cind.rhs_probe_attrs()));
        }
        let lhs_builds: Vec<(&str, Vec<usize>)> = lhs_builds.into_iter().collect();
        let rhs_builds: Vec<(&str, Vec<usize>)> = rhs_builds.into_iter().collect();
        let relation = |name: &str| db.relation(name).expect("validated above");
        let sharded = |builds: &[(&str, Vec<usize>)]| {
            (builds.iter()).any(|(name, _)| relation(name).columnar().shard_count() > 1)
        };
        self.warm_builds(
            &lhs_builds,
            sharded(&lhs_builds),
            |(name, attrs), threads| {
                self.pool.interned_for(relation(name), attrs, threads);
            },
        );
        self.warm_builds(
            &rhs_builds,
            sharded(&rhs_builds),
            |(name, attrs), threads| {
                self.pool.distinct_for(relation(name), attrs, threads);
            },
        );
        Ok(parallel_map(cinds, self.threads, |cind| {
            let lhs = relation(cind.lhs_schema().name());
            let rhs = relation(cind.rhs_schema().name());
            cind.violations_with(
                &self.pool.interned_for(lhs, &cind.lhs_group_attrs(), 1),
                &self.pool.distinct_for(rhs, &cind.rhs_probe_attrs(), 1),
                ignore_nulls,
            )
        }))
    }

    /// A CFD violation report kept incrementally up to date across journaled
    /// cell edits, appends and removals.
    ///
    /// With no usable `prev` — first call, different instance, different
    /// dependency list, or a gap the instance's delta journal does not
    /// cover ([`RelationInstance::delta_covers`]) — this is full detection.
    /// Otherwise only the *delta* is re-checked: tuples with an edited
    /// LHS/RHS cell, appended or removed since `prev`, plus the LHS groups
    /// those tuples left or joined.  Such a group is found by its key on
    /// the patched pooled index and in `prev`'s snapshot, which keeps every
    /// LHS column built for this; if it violated, it is patched from its
    /// previous RHS classes (counted in `maintain.cfd.groups_patched`), and
    /// otherwise classified in full (`maintain.cfd.groups_classified`).
    /// Every other dependency's groups, and every untouched group, carry
    /// over verbatim, copied in bulk (see `stream::cfd_violations_patched`).
    /// No violating pair is enumerated and no row of a patched group is
    /// hashed, so combined with the pool's patch path a small edit costs
    /// work proportional to the cells changed and the classes of the groups
    /// touched, plus one copy of the report.
    ///
    /// The returned report always equals
    /// [`detect_cfd_violations`](Self::detect_cfd_violations) at the
    /// instance's current version.
    pub fn maintain_cfd_violations(
        &self,
        instance: &RelationInstance,
        cfds: &[Cfd],
        prev: Option<&MaintainedCfdViolations>,
    ) -> MaintainedCfdViolations {
        let _span = dq_obs::span("maintain.cfd");
        let instance_id = instance.instance_id();
        let version = instance.version();
        let usable = prev.and_then(|p| {
            let groups = p.report.shared_groups()?;
            (p.instance_id == instance_id && p.cfds == cfds && instance.delta_covers(p.version))
                .then_some((p, groups))
        });
        let report = match usable {
            None => {
                dq_obs::inc("maintain.cfd.full");
                self.detect_cfd_violations(instance, cfds)
            }
            Some((p, _)) if p.version == version => {
                dq_obs::inc("maintain.cfd.reuse");
                counted(p.report.clone())
            }
            Some((p, prev_groups)) => {
                dq_obs::inc("maintain.cfd.patch");
                let delta = instance
                    .delta_since(p.version)
                    .expect("delta covers the gap");
                let store = instance.columnar();
                let appended = store.appended_since(&p.store);
                self.warm_interned(instance, cfds.iter().map(|c| c.lhs().to_vec()).collect());
                let source = StoreShardSource::with_store(instance, Arc::clone(&store));
                let items: Vec<(&Cfd, &Arc<CfdViolationGroups>)> =
                    cfds.iter().zip(prev_groups).collect();
                let groups = parallel_map(&items, self.threads, |(cfd, prev_groups)| {
                    let affected = affected_tuples(cfd, &delta, &appended);
                    if affected.is_empty() {
                        return Arc::clone(prev_groups);
                    }
                    let index = self.pool.interned_for(instance, cfd.lhs(), 1);
                    let (groups, counts) = stream::cfd_violations_patched(
                        cfd,
                        &source,
                        &index,
                        &p.store,
                        prev_groups,
                        &affected,
                    );
                    dq_obs::add("maintain.cfd.groups_patched", counts.patched as u64);
                    dq_obs::add("maintain.cfd.groups_classified", counts.classified as u64);
                    Arc::new(groups)
                });
                counted(CfdViolationReport::from_shared_groups(groups))
            }
        };
        // The next round reads its departed tuples' old keys off this
        // snapshot's LHS columns.
        let store = instance.columnar();
        for &attr in cfds.iter().flat_map(|cfd| cfd.lhs()) {
            store.column(instance, attr);
        }
        MaintainedCfdViolations {
            instance_id,
            version,
            store,
            cfds: cfds.to_vec(),
            report,
        }
    }

    /// Does `db` satisfy `ind`?  Probes pooled distinct-projection sets on
    /// both sides — per *distinct key* work, no postings needed — so
    /// repeated checks over an unchanged (or append-only growing) database
    /// rebuild nothing.
    pub fn ind_holds(&self, db: &Database, ind: &Ind, ignore_nulls: bool) -> DqResult<bool> {
        let lhs = db.require_relation(ind.lhs_relation())?;
        let rhs = db.require_relation(ind.rhs_relation())?;
        let lhs_set = self.pool.distinct_for(lhs, ind.lhs_attrs(), self.threads);
        let rhs_set = self.pool.distinct_for(rhs, ind.rhs_attrs(), self.threads);
        Ok(lhs_set.included_in(&rhs_set, ignore_nulls))
    }
}

/// A CFD violation report plus the snapshot identity and the rules needed
/// to bring it up to date incrementally — produced and consumed by
/// [`DetectionEngine::maintain_cfd_violations`].
#[derive(Clone, Debug)]
pub struct MaintainedCfdViolations {
    instance_id: u64,
    version: u64,
    store: Arc<ColumnarStore>,
    /// The dependencies the report is over: a later call with other rules
    /// must not reuse or patch it.
    cfds: Vec<Cfd>,
    report: CfdViolationReport,
}

impl MaintainedCfdViolations {
    /// The maintained report — equal to full detection at
    /// [`version`](Self::version).
    pub fn report(&self) -> &CfdViolationReport {
        &self.report
    }

    /// Consumes the maintenance state, yielding the report.
    pub fn into_report(self) -> CfdViolationReport {
        self.report
    }

    /// The instance version the report is current for.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The tuples whose violations of `cfd` a maintenance round must redo:
/// those with a changed LHS/RHS cell, the appended ones and the removed
/// ones (which leave every rule's groups) — sorted and deduplicated.  Any
/// other tuple's cells, and so its group key, `Y` projection and matching
/// patterns, are as they were.
fn affected_tuples(cfd: &Cfd, delta: &Delta, appended: &[TupleId]) -> Vec<TupleId> {
    let relevant = |attr: usize| cfd.lhs().contains(&attr) || cfd.rhs().contains(&attr);
    let mut affected: Vec<TupleId> = appended.to_vec();
    affected.extend_from_slice(&delta.removed);
    affected.extend(
        delta
            .changes
            .iter()
            .filter(|c| relevant(c.cell.attr))
            .map(|c| c.cell.tuple),
    );
    affected.sort_unstable();
    affected.dedup();
    affected
}

/// Adds a finished report to the `detect.cfd.groups` and
/// `detect.cfd.violations` counters — the violations counted
/// arithmetically, without materializing a pair.
fn counted(report: CfdViolationReport) -> CfdViolationReport {
    if dq_obs::enabled() {
        dq_obs::add("detect.cfd.groups", report.violation_groups() as u64);
        dq_obs::add("detect.cfd.violations", report.total() as u64);
    }
    report
}

/// The workspace's work-claiming pool lives in [`dq_relation::par`]; it is
/// re-exported here so that borrowers of the engine's pool (e.g. level-wise
/// discovery fanning out candidate relation pairs) schedule work the same
/// way the detectors do.
pub use dq_relation::par::{parallel_map, try_parallel_map};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecfd::{EcfdPattern, SetPattern};
    use crate::fd::Fd;
    use crate::pattern::{cst, wild, PatternTuple};
    use crate::reference;
    use dq_relation::{CellRef, Domain, RelationSchema, Value};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("phn", Domain::Int),
                ("street", Domain::Text),
                ("city", Domain::Text),
                ("zip", Domain::Text),
            ],
        ))
    }

    fn d0(schema: &Arc<RelationSchema>) -> RelationInstance {
        let mut inst = RelationInstance::new(Arc::clone(schema));
        for (cc, ac, phn, street, city, zip) in [
            (44, 131, 1234567, "Mayfield", "NYC", "EH4 8LE"),
            (44, 131, 3456789, "Crichton", "NYC", "EH4 8LE"),
            (1, 908, 3456789, "Mtn Ave", "NYC", "07974"),
        ] {
            inst.insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::int(phn),
                Value::str(street),
                Value::str(city),
                Value::str(zip),
            ])
            .unwrap();
        }
        inst
    }

    fn paper_cfds(schema: &Arc<RelationSchema>) -> Vec<Cfd> {
        vec![
            Cfd::new(
                schema,
                &["CC", "zip"],
                &["street"],
                vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
            )
            .unwrap(),
            Cfd::new(
                schema,
                &["CC", "AC", "phn"],
                &["street", "city", "zip"],
                vec![
                    PatternTuple::all_wildcards(3, 3),
                    PatternTuple::new(
                        vec![cst(44), cst(131), wild()],
                        vec![wild(), cst("EDI"), wild()],
                    ),
                ],
            )
            .unwrap(),
            Cfd::new(
                schema,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn engine_report_equals_naive_report() {
        let s = schema();
        let d = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        assert_eq!(
            engine.detect_cfd_violations(&d, &cfds),
            reference::detect_cfd_violations(&d, &cfds)
        );
    }

    #[test]
    fn sequential_engine_agrees_with_parallel_engine() {
        let s = schema();
        let d = d0(&s);
        let cfds = paper_cfds(&s);
        assert_eq!(
            DetectionEngine::with_threads(1).detect_cfd_violations(&d, &cfds),
            DetectionEngine::with_threads(8).detect_cfd_violations(&d, &cfds)
        );
    }

    #[test]
    fn shared_lhs_builds_one_index() {
        let s = schema();
        let d = d0(&s);
        // Normalization splits ϕ2 into fragments that all share the LHS.
        let fragments: Vec<Cfd> = paper_cfds(&s)[1].normalize();
        assert!(fragments.len() > 1);
        let engine = DetectionEngine::new();
        let report = engine.detect_cfd_violations(&d, &fragments);
        assert!(!report.is_clean());
        let stats = engine.pool_stats();
        assert_eq!(stats.misses, 1, "one distinct LHS → one index build");
    }

    #[test]
    fn warm_pool_rebuilds_nothing_until_the_instance_changes() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        let first = engine.detect_cfd_violations(&d, &cfds);
        let built_once = engine.pool_stats().misses;
        let second = engine.detect_cfd_violations(&d, &cfds);
        assert_eq!(first, second);
        assert_eq!(
            engine.pool_stats().misses,
            built_once,
            "warm run builds nothing"
        );
        d.insert_values([
            Value::int(44),
            Value::int(131),
            Value::int(7),
            Value::str("New St"),
            Value::str("EDI"),
            Value::str("EH4 8LE"),
        ])
        .unwrap();
        engine.detect_cfd_violations(&d, &cfds);
        assert!(
            engine.pool_stats().misses > built_once,
            "mutation invalidates"
        );
    }

    #[test]
    fn engine_incremental_equals_naive_incremental() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        let added = vec![d
            .insert_values([
                Value::int(44),
                Value::int(131),
                Value::int(9999999),
                Value::str("Lauriston"),
                Value::str("EDI"),
                Value::str("EH4 8LE"),
            ])
            .unwrap()];
        let engine = DetectionEngine::new();
        assert_eq!(
            engine.detect_cfd_violations_incremental(&d, &cfds, &added),
            reference::detect_cfd_violations_incremental(&d, &cfds, &added)
        );
    }

    #[test]
    fn maintained_report_tracks_full_detection_across_edits_and_appends() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        let mut maintained = engine.maintain_cfd_violations(&d, &cfds, None);
        assert_eq!(
            maintained.report(),
            &reference::detect_cfd_violations(&d, &cfds)
        );
        // A mixed edit/append stream: every step's maintained report must
        // equal full detection, while the pool serves patches, not rebuilds.
        let city = s.attr("city");
        let zip = s.attr("zip");
        type Step = Box<dyn Fn(&mut RelationInstance)>;
        let steps: Vec<Step> = vec![
            // RHS edit: fixes one single-tuple violation.
            Box::new(move |d: &mut RelationInstance| {
                d.update_cell(
                    dq_relation::instance::CellRef::new(TupleId(0), city),
                    Value::str("EDI"),
                )
                .unwrap();
            }),
            // LHS edit: moves t3 into the UK zip group of ϕ1.
            Box::new(move |d: &mut RelationInstance| {
                d.update_cell(
                    dq_relation::instance::CellRef::new(TupleId(2), zip),
                    Value::str("EH4 8LE"),
                )
                .unwrap();
            }),
            // Append: a new UK tuple colliding with t1 on [CC, zip].
            Box::new(|d: &mut RelationInstance| {
                d.insert_values([
                    Value::int(44),
                    Value::int(131),
                    Value::int(5550000),
                    Value::str("Lauriston"),
                    Value::str("NYC"),
                    Value::str("EH4 8LE"),
                ])
                .unwrap();
            }),
            // No-op edit: version and report must both stand still.
            Box::new(move |d: &mut RelationInstance| {
                d.update_cell(
                    dq_relation::instance::CellRef::new(TupleId(0), city),
                    Value::str("EDI"),
                )
                .unwrap();
            }),
        ];
        for step in steps {
            step(&mut d);
            maintained = engine.maintain_cfd_violations(&d, &cfds, Some(&maintained));
            assert_eq!(
                maintained.report(),
                &reference::detect_cfd_violations(&d, &cfds),
                "maintained report diverged from full detection"
            );
            assert_eq!(maintained.version(), d.version());
        }
        let stats = engine.pool_stats();
        assert!(stats.patches > 0, "edits must patch the pooled indexes");
    }

    #[test]
    fn maintained_report_over_other_rules_is_not_reused() {
        let s = schema();
        let d = d0(&s);
        let first = paper_cfds(&s);
        let other = vec![
            Cfd::new(
                &s,
                &["AC"],
                &["street"],
                vec![PatternTuple::all_wildcards(1, 1)],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["city"],
                &["zip"],
                vec![PatternTuple::all_wildcards(1, 1)],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["CC"],
                &["city"],
                vec![PatternTuple::new(vec![cst(1)], vec![cst("MH")])],
            )
            .unwrap(),
        ];
        assert_eq!(first.len(), other.len());
        let engine = DetectionEngine::new();
        let maintained = engine.maintain_cfd_violations(&d, &first, None);
        // Same instance, same version, another rule list of the same length.
        let switched = engine.maintain_cfd_violations(&d, &other, Some(&maintained));
        let expected = reference::detect_cfd_violations(&d, &other);
        assert_ne!(maintained.report(), &expected);
        assert_eq!(switched.report(), &expected);
    }

    #[test]
    fn maintained_report_patches_across_removals() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        let mut maintained = engine.maintain_cfd_violations(&d, &cfds, None);
        // No other test of this crate turns the recorder on, so it counts
        // this test's maintenance rounds (and at most a few concurrent ones).
        dq_obs::set_enabled(true);
        let patches = dq_obs::recorder().counter("maintain.cfd.patch");
        let before = patches.value();
        // A removal is journaled: the report is patched, not re-detected —
        // alone, with edits and appends, and for a tuple appended and then
        // removed inside one gap.
        d.remove(TupleId(1));
        maintained = engine.maintain_cfd_violations(&d, &cfds, Some(&maintained));
        assert_eq!(
            maintained.report(),
            &reference::detect_cfd_violations(&d, &cfds)
        );
        let appended = d
            .insert_values([
                Value::int(44),
                Value::int(131),
                Value::int(1234567),
                Value::str("Mayfield"),
                Value::str("EDI"),
                Value::str("EH4 8LE"),
            ])
            .unwrap();
        d.update_cell(CellRef::new(TupleId(2), 4), Value::str("MH"))
            .unwrap();
        maintained = engine.maintain_cfd_violations(&d, &cfds, Some(&maintained));
        assert_eq!(
            maintained.report(),
            &reference::detect_cfd_violations(&d, &cfds)
        );
        let transient = d
            .insert_values([
                Value::int(1),
                Value::int(908),
                Value::int(3456789),
                Value::str("Tree Ave"),
                Value::str("NYC"),
                Value::str("07974"),
            ])
            .unwrap();
        d.remove(TupleId(0));
        d.remove(transient);
        d.remove(appended);
        maintained = engine.maintain_cfd_violations(&d, &cfds, Some(&maintained));
        assert_eq!(
            maintained.report(),
            &reference::detect_cfd_violations(&d, &cfds)
        );
        if dq_obs::enabled() {
            assert!(
                patches.value() >= before + 3,
                "every round took the patch path"
            );
        }
        dq_obs::set_enabled(false);
    }

    #[test]
    fn engine_ecfd_report_equals_naive() {
        let s = Arc::new(RelationSchema::new(
            "nycust",
            [("CT", Domain::Text), ("AC", Domain::Int)],
        ));
        let mut inst = RelationInstance::new(Arc::clone(&s));
        for (ct, ac) in [("NYC", 212), ("NYC", 999), ("Albany", 518), ("Albany", 519)] {
            inst.insert_values([Value::str(ct), Value::int(ac)])
                .unwrap();
        }
        let ecfds = vec![
            Ecfd::new(
                &s,
                &["CT"],
                &["AC"],
                vec![EcfdPattern::new(
                    vec![SetPattern::not_in(["NYC", "LI"])],
                    vec![SetPattern::any()],
                )],
            )
            .unwrap(),
            Ecfd::new(
                &s,
                &["CT"],
                &["AC"],
                vec![EcfdPattern::new(
                    vec![SetPattern::eq("NYC")],
                    vec![SetPattern::in_set([
                        Value::int(212),
                        Value::int(718),
                        Value::int(646),
                    ])],
                )],
            )
            .unwrap(),
        ];
        let engine = DetectionEngine::new();
        let from_engine = engine.detect_ecfd_violations(&inst, &ecfds);
        let naive = reference::detect_ecfd_violations(&inst, &ecfds);
        assert_eq!(from_engine, naive);
        assert!(!from_engine.is_clean());
    }

    #[test]
    fn engine_denial_report_equals_naive() {
        let s = schema();
        let d = d0(&s);
        let fd = Fd::new(&s, &["zip"], &["street"]);
        let mut constraints = DenialConstraint::from_fd(&fd);
        // A non-FD-shaped constraint exercises the naive fallback arm.
        constraints.push(DenialConstraint::new(
            "customer",
            1,
            vec![crate::denial::DcPredicate::new(
                crate::denial::DcTerm::attr(0, 0),
                dq_relation::CompOp::Gt,
                crate::denial::DcTerm::val(40i64),
            )],
        ));
        let engine = DetectionEngine::new();
        assert_eq!(
            engine.detect_denial_violations(&d, &constraints),
            reference::detect_denial_violations(&d, &constraints)
        );
    }

    /// A denial constraint over three tuple variables, which no detector
    /// supports.
    fn three_variable_constraint() -> DenialConstraint {
        DenialConstraint::new(
            "customer",
            3,
            vec![crate::denial::DcPredicate::new(
                crate::denial::DcTerm::attr(0, 0),
                dq_relation::CompOp::Eq,
                crate::denial::DcTerm::attr(2, 0),
            )],
        )
    }

    #[test]
    #[should_panic(expected = "3 tuple variables are not supported")]
    fn in_ram_denial_detection_rejects_three_variables() {
        let d = d0(&schema());
        DetectionEngine::with_threads(1)
            .detect_denial_violations(&d, &[three_variable_constraint()]);
    }

    #[test]
    #[should_panic(expected = "3 tuple variables are not supported")]
    fn shard_denial_detection_rejects_three_variables() {
        let d = d0(&schema());
        DetectionEngine::with_threads(1).detect_denial_violations_from_shards(
            &StoreShardSource::new(&d),
            &[three_variable_constraint()],
        );
    }

    #[test]
    fn empty_dependency_sets_yield_empty_reports() {
        let s = schema();
        let d = d0(&s);
        let engine = DetectionEngine::new();
        assert!(engine.detect_cfd_violations(&d, &[]).is_clean());
        assert!(engine.detect_ecfd_violations(&d, &[]).is_clean());
        assert!(engine.detect_denial_violations(&d, &[]).is_empty());
        let db = dq_relation::Database::new();
        assert!(engine.detect_cind_violations(&db, &[]).unwrap().is_clean());
    }

    #[test]
    fn engine_cind_report_equals_naive() {
        use crate::cind::{Cind, CindPattern};
        let order = Arc::new(RelationSchema::new(
            "order",
            [("title", Domain::Text), ("type", Domain::Text)],
        ));
        let book = Arc::new(RelationSchema::new("book", [("title", Domain::Text)]));
        let mut oi = RelationInstance::new(Arc::clone(&order));
        for (t, ty) in [
            ("Harry Potter", "book"),
            ("Snow White", "book"),
            ("J. Denver", "CD"),
        ] {
            oi.insert_values([Value::str(t), Value::str(ty)]).unwrap();
        }
        let mut bi = RelationInstance::new(Arc::clone(&book));
        bi.insert_values([Value::str("Harry Potter")]).unwrap();
        let mut db = dq_relation::Database::new();
        db.add_relation(oi);
        db.add_relation(bi);
        let cinds = vec![Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &[],
            vec![CindPattern::new(vec![Value::str("book")], vec![])],
        )
        .unwrap()];
        let engine = DetectionEngine::new();
        let from_engine = engine.detect_cind_violations(&db, &cinds).unwrap();
        let naive = crate::reference::detect_cind_violations(&db, &cinds).unwrap();
        assert_eq!(from_engine, naive);
        assert_eq!(from_engine.total(), 1, "Snow White dangles");
        // The probe index is pooled: a second run rebuilds nothing.
        let misses = engine.pool_stats().misses;
        let again = engine.detect_cind_violations(&db, &cinds).unwrap();
        assert_eq!(again, naive);
        assert_eq!(engine.pool_stats().misses, misses, "warm CIND run");
        // A CIND over a missing relation errors like the naive path.
        let ghost_schema = Arc::new(RelationSchema::new("ghost", [("g", Domain::Text)]));
        let ghost = Cind::new(
            &order,
            &["title"],
            &[],
            &ghost_schema,
            &["g"],
            &[],
            vec![CindPattern::new(vec![], vec![])],
        )
        .unwrap();
        assert!(engine.detect_cind_violations(&db, &[ghost]).is_err());
    }

    #[test]
    fn engine_ind_report_equals_naive() {
        use crate::ind::Ind;
        let order = Arc::new(RelationSchema::new(
            "order",
            [("title", Domain::Text), ("type", Domain::Text)],
        ));
        let book = Arc::new(RelationSchema::new("book", [("title", Domain::Text)]));
        let mut oi = RelationInstance::new(Arc::clone(&order));
        for t in ["Harry Potter", "Snow White"] {
            oi.insert_values([Value::str(t), Value::str("book")])
                .unwrap();
        }
        oi.insert_values([Value::Null, Value::str("book")]).unwrap();
        let mut bi = RelationInstance::new(Arc::clone(&book));
        bi.insert_values([Value::str("Harry Potter")]).unwrap();
        let mut db = dq_relation::Database::new();
        db.add_relation(oi);
        db.add_relation(bi);
        let inds = vec![
            Ind::from_indices("order", vec![0], "book", vec![0]),
            Ind::from_indices("book", vec![0], "order", vec![0]),
        ];
        let engine = DetectionEngine::new();
        for ignore_nulls in [false, true] {
            let from_engine = engine
                .detect_ind_violations(&db, &inds, ignore_nulls)
                .unwrap();
            let naive: Vec<Vec<TupleId>> = inds
                .iter()
                .map(|ind| reference::ind_violations(ind, &db, ignore_nulls).unwrap())
                .collect();
            assert_eq!(from_engine, naive, "ignore_nulls {ignore_nulls}");
            for (ind, violations) in inds.iter().zip(&naive) {
                assert_eq!(
                    engine.ind_holds(&db, ind, ignore_nulls).unwrap(),
                    violations.is_empty(),
                    "{ind} (ignore_nulls {ignore_nulls})"
                );
            }
        }
        // The probe structures are pooled: a second run rebuilds nothing.
        let misses = engine.pool_stats().misses;
        engine.detect_ind_violations(&db, &inds, false).unwrap();
        assert_eq!(engine.pool_stats().misses, misses, "warm IND run");
        // An IND over a missing relation errors like the naive path.
        let ghost = Ind::from_indices("order", vec![0], "ghost", vec![0]);
        assert!(engine.detect_ind_violations(&db, &[ghost], false).is_err());
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x: &usize| x).is_empty());
    }

    #[test]
    fn parallel_map_degenerate_inputs_run_inline() {
        // threads == 0 behaves like 1 instead of dropping the work.
        let items: Vec<usize> = (0..10).collect();
        assert_eq!(
            parallel_map(&items, 0, |&x| x + 1),
            (1..11).collect::<Vec<_>>()
        );
        // A single item runs on the caller's thread (no spawn): the closure
        // can observe the caller's thread id.
        let caller = std::thread::current().id();
        let ids = parallel_map(&[42usize], 8, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        let outcome = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 17 {
                    panic!("worker 17 exploded");
                }
                x
            })
        });
        assert!(outcome.is_err(), "a worker panic must unwind the caller");
    }

    #[test]
    fn try_parallel_map_returns_first_error_in_input_order() {
        let items: Vec<i64> = (0..50).collect();
        let ok: Result<Vec<i64>, String> = try_parallel_map(&items, 4, |&x| Ok(x * 3));
        assert_eq!(ok.unwrap(), (0..50).map(|x| x * 3).collect::<Vec<_>>());
        // Both 10 and 40 fail; the error of the *earlier* item must win
        // regardless of which worker finishes first.
        let err: Result<Vec<i64>, String> = try_parallel_map(&items, 4, |&x| {
            if x == 10 || x == 40 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(err.unwrap_err(), "bad 10");
    }
}
