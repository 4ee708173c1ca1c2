//! Level-wise (TANE-style) discovery of minimal functional dependencies.
//!
//! The search walks the lattice of attribute sets level by level.  A
//! candidate `X → A` is checked with stripped partitions: the FD holds
//! exactly when `e(π_X) = e(π_{X ∪ {A}})`.  Only *minimal* FDs are reported —
//! a candidate is skipped when some already-discovered FD `Y → A` with
//! `Y ⊂ X` makes it redundant.  Setting [`FdDiscoveryConfig::max_g3`] above
//! zero switches the validator to the `g3` error measure and discovers
//! approximate FDs, the raw material for CFD tableau mining
//! ([`crate::cfd_discovery`]).
//!
//! Within one lattice level the candidates are independent: both pruning
//! rules (minimality and the superkey skip) only ever fire on facts from
//! *strictly smaller* LHS sets — a same-size subset is the set itself — so
//! the sweep freezes the discovered state at each level boundary, fans the
//! level's surviving LHS sets out across a thread pool
//! ([`dq_core::engine::parallel_map`]) over one shared concurrent
//! [`PartitionSource`], and merges the per-LHS verdicts back in canonical
//! candidate order.  The discovered FDs, candidate counts and partition
//! tallies are byte-identical to a sequential sweep at any thread count.

use crate::source::{resolve_threads, PartitionSource};
use dq_core::engine::parallel_map;
use dq_core::fd::Fd;
use dq_relation::{IndexPool, RelationInstance, RelationSchema, ShardSource};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of FD discovery.
#[derive(Clone, Debug)]
pub struct FdDiscoveryConfig {
    /// Maximum size of the left-hand side to explore.
    pub max_lhs: usize,
    /// Maximum admissible `g3` error (fraction of tuples to delete for the
    /// FD to hold).  `0.0` discovers exact FDs only.
    pub max_g3: f64,
    /// Attributes to exclude from both sides (e.g. surrogate identifiers).
    pub exclude: Vec<usize>,
    /// Validate candidates over partitions derived from pooled interned
    /// indexes and id-based partition products.  `false` selects the
    /// reference partition builds ([`PartitionSource::naive`]: `Vec<Value>`
    /// keys from the row store) — same results, the test oracle of the
    /// interned sweep and the FD half of
    /// [`crate::reference::discover_cfds`].
    pub use_interned: bool,
    /// Worker threads for the per-level candidate fan-out (and for cold
    /// pooled index builds on the interned path).  `0` sizes the pool to
    /// the machine; `1` validates sequentially.  The discovered output is
    /// identical at every thread count.
    pub threads: usize,
}

impl Default for FdDiscoveryConfig {
    fn default() -> Self {
        FdDiscoveryConfig {
            max_lhs: 3,
            max_g3: 0.0,
            exclude: Vec::new(),
            use_interned: true,
            threads: 0,
        }
    }
}

/// The result of a discovery run.
#[derive(Clone, Debug, Default)]
pub struct DiscoveredFds {
    /// Minimal FDs found, each with a single right-hand-side attribute.
    pub fds: Vec<Fd>,
    /// The `g3` error of each FD in [`fds`](Self::fds), in the same order
    /// (`0.0` for an exact FD: an exact-only walk computes no `g3`).
    pub g3: Vec<f64>,
    /// Number of candidate FDs validated against the data.
    pub candidates_checked: usize,
    /// Number of partitions materialised.
    pub partitions_built: usize,
    /// Wall-clock milliseconds spent per lattice level (index 0 = LHS size
    /// 1), recorded around each level's candidate fan-out; the bench
    /// harness tracks these to show where level-parallelism pays.
    pub level_ms: Vec<f64>,
}

impl DiscoveredFds {
    /// Whether an FD with the given LHS/RHS attribute indices was found.
    pub fn contains(&self, lhs: &[usize], rhs: usize) -> bool {
        let lhs_set: BTreeSet<usize> = lhs.iter().copied().collect();
        self.fds.iter().any(|fd| {
            fd.rhs() == [rhs] && fd.lhs().iter().copied().collect::<BTreeSet<_>>() == lhs_set
        })
    }
}

/// Discovers minimal (approximate) functional dependencies on `instance`
/// with a private index pool.
pub fn discover_fds(instance: &RelationInstance, config: &FdDiscoveryConfig) -> DiscoveredFds {
    discover_fds_with_pool(instance, config, &Arc::new(IndexPool::new()))
}

/// [`discover_fds`] over a shared [`IndexPool`]: the interned indexes built
/// for single-attribute partitions are served from — and stay in — `pool`,
/// so CFD mining, profiling and detection over the same instance rebuild
/// nothing.
pub fn discover_fds_with_pool(
    instance: &RelationInstance,
    config: &FdDiscoveryConfig,
    pool: &Arc<IndexPool>,
) -> DiscoveredFds {
    discover_fds_at_thresholds(instance, config, &[config.max_g3], pool).remove(0)
}

/// One lattice walk answering [`discover_fds_with_pool`] for each `g3`
/// threshold in `thresholds` (instead of `config.max_g3`), in order.  A
/// candidate pruned at one threshold is pruned at every larger one (an
/// exact FD has `g3 = 0`), so the exact verdict and the `g3` error come off
/// the same `π_X` and `π_{X ∪ {A}}`.  Each result equals a separate walk at
/// its threshold, except that `partitions_built` and `level_ms` are shared.
pub fn discover_fds_at_thresholds(
    instance: &RelationInstance,
    config: &FdDiscoveryConfig,
    thresholds: &[f64],
    pool: &Arc<IndexPool>,
) -> Vec<DiscoveredFds> {
    let _span = dq_obs::span!("discover.fd", arity = instance.schema().arity());
    let threads = resolve_threads(config.threads);
    let source = if config.use_interned {
        PartitionSource::interned(instance, Arc::clone(pool), threads)
    } else {
        PartitionSource::naive(instance)
    };
    level_sweep(&source, instance.schema(), config, thresholds, threads)
}

/// [`discover_fds`] over a shard source — an in-RAM snapshot or a
/// memory-mapped on-disk relation.  Single-attribute partitions come from
/// sequential shard scans; the lattice walk, pruning rules and per-level
/// fan-out are the same code as the instance path, so the discovered FDs
/// and candidate counts are byte-identical to [`discover_fds`] over the
/// same logical relation.  `use_interned` is ignored (there is no row store
/// to fall back to).
pub fn discover_fds_from_shards(
    shards: &dyn ShardSource,
    config: &FdDiscoveryConfig,
) -> DiscoveredFds {
    let _span = dq_obs::span!("discover.fd.stream", arity = shards.schema().arity());
    let threads = resolve_threads(config.threads);
    let source = PartitionSource::from_shards(shards, threads);
    level_sweep(&source, shards.schema(), config, &[config.max_g3], threads).remove(0)
}

/// The level-wise lattice walk shared by every backend, answering for each
/// of `thresholds` (see [`discover_fds_at_thresholds`]).
fn level_sweep(
    source: &PartitionSource<'_>,
    schema: &Arc<RelationSchema>,
    config: &FdDiscoveryConfig,
    thresholds: &[f64],
    threads: usize,
) -> Vec<DiscoveredFds> {
    let arity = schema.arity();
    let attrs: Vec<usize> = (0..arity).filter(|a| !config.exclude.contains(a)).collect();

    // Warm the single-attribute indexes before fanning out: the big cold
    // builds shard internally when there are fewer attributes than
    // workers, and the per-level fan-out below then never nests parallel
    // builds (its cold builds run single-threaded — the level is the
    // parallel axis).
    source.warm_singles(&attrs);

    // Per threshold: its minimal FDs with their `g3`, and its tally.
    let mut walks = vec![DiscoveredFds::default(); thresholds.len()];
    // Attribute sets that are superkeys: any proper extension is redundant.
    let mut superkeys: Vec<BTreeSet<usize>> = Vec::new();
    let mut level_ms: Vec<f64> = Vec::new();

    /// One LHS's verdicts, computed independently of its level siblings:
    /// per threshold, the candidates checked and the `(rhs, g3)` that hold.
    struct LhsVerdict {
        per_threshold: Vec<(usize, Vec<(usize, f64)>)>,
        superkey: bool,
    }

    let max_lhs = config.max_lhs.min(attrs.len().saturating_sub(1)).max(1);
    for level in 1..=max_lhs {
        // The level span doubles as the level clock: `finish_ms` returns
        // real elapsed time even while recording is disabled, so
        // `level_ms` is reported identically in both modes.
        let level_span = dq_obs::span_owned(format!("level{level}"));
        // Both pruning rules only fire on facts from strictly smaller LHS
        // sets (a same-size subset is the set itself), so `walks` and
        // `superkeys` are frozen for the whole level and the surviving LHS
        // sets validate independently.
        let lhs_sets: Vec<(Vec<usize>, BTreeSet<usize>)> = subsets_of_size(&attrs, level)
            .into_iter()
            .map(|lhs| {
                let lhs_set: BTreeSet<usize> = lhs.iter().copied().collect();
                (lhs, lhs_set)
            })
            // A superset of a superkey trivially determines everything.
            .filter(|(_, lhs_set)| {
                !superkeys
                    .iter()
                    .any(|k| k.is_subset(lhs_set) && k != lhs_set)
            })
            .collect();
        let verdicts: Vec<LhsVerdict> = parallel_map(&lhs_sets, threads, |(lhs, lhs_set)| {
            let lhs_partition = source.partition(lhs);
            let mut per_threshold = vec![(0, Vec::new()); thresholds.len()];
            for &rhs in attrs.iter().filter(|a| !lhs_set.contains(a)) {
                // Minimality, per threshold: skip where a subset of X
                // already determines A.
                let open: Vec<usize> = (0..thresholds.len())
                    .filter(|&t| {
                        !walks[t].fds.iter().any(|fd| {
                            fd.rhs() == [rhs] && fd.lhs().iter().all(|a| lhs_set.contains(a))
                        })
                    })
                    .collect();
                if open.is_empty() {
                    continue;
                }
                let rhs_partition = source.partition(&[lhs.as_slice(), &[rhs]].concat());
                let exact = lhs_partition.implies_with(&rhs_partition);
                // `g3` only where the FD fails and a positive threshold is
                // open: the exact-only walk does no `g3` work.
                let g3 = if exact {
                    Some(0.0)
                } else {
                    open.iter().any(|&t| thresholds[t] > 0.0).then(|| {
                        source.with_prober(|prober| lhs_partition.g3_with(&rhs_partition, prober))
                    })
                };
                for t in open {
                    per_threshold[t].0 += 1;
                    if let Some(g3) = g3.filter(|&g3| exact || g3 <= thresholds[t]) {
                        per_threshold[t].1.push((rhs, g3));
                    }
                }
            }
            LhsVerdict {
                per_threshold,
                superkey: lhs_partition.is_superkey(),
            }
        });
        // Merge in canonical candidate order: `parallel_map` preserves
        // input order, so the discovered lists (and every counter) are
        // byte-identical to the sequential sweep.
        for ((_, lhs_set), verdict) in lhs_sets.into_iter().zip(verdicts) {
            for (walk, (checked, holds_for)) in walks.iter_mut().zip(verdict.per_threshold) {
                walk.candidates_checked += checked;
                for (rhs, g3) in holds_for {
                    let lhs = lhs_set.iter().copied().collect();
                    walk.fds.push(Fd::from_indices(schema, lhs, vec![rhs]));
                    walk.g3.push(g3);
                }
            }
            if verdict.superkey {
                superkeys.push(lhs_set);
            }
        }
        level_ms.push(level_span.finish_ms());
    }
    for walk in &mut walks {
        walk.partitions_built = source.partitions_built();
        walk.level_ms = level_ms.clone();
    }
    walks
}

/// All subsets of `attrs` with exactly `size` elements, in lexicographic
/// order of positions.
pub(crate) fn subsets_of_size(attrs: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if size == 0 || size > attrs.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..size).collect();
    loop {
        out.push(idx.iter().map(|&i| attrs[i]).collect());
        // Advance the combination.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + attrs.len() - size {
                idx[i] += 1;
                for j in i + 1..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema, Value};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            vec![
                ("a", Domain::Text),
                ("b", Domain::Text),
                ("c", Domain::Text),
            ],
        ))
    }

    fn instance(rows: &[(&str, &str, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (a, b, c) in rows {
            inst.insert_values(vec![Value::str(*a), Value::str(*b), Value::str(*c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn subsets_enumeration() {
        assert_eq!(
            subsets_of_size(&[0, 1, 2], 2),
            vec![vec![0, 1], vec![0, 2], vec![1, 2]]
        );
        assert_eq!(subsets_of_size(&[0, 1], 0), Vec::<Vec<usize>>::new());
        assert_eq!(subsets_of_size(&[0], 2), Vec::<Vec<usize>>::new());
        assert_eq!(subsets_of_size(&[3, 7], 1), vec![vec![3], vec![7]]);
    }

    #[test]
    fn discovers_simple_fd() {
        // a -> b everywhere, b does not determine a.
        let inst = instance(&[
            ("x", "p", "1"),
            ("x", "p", "2"),
            ("y", "p", "3"),
            ("z", "q", "4"),
        ]);
        let found = discover_fds(&inst, &FdDiscoveryConfig::default());
        assert!(found.contains(&[0], 1));
        assert!(!found.contains(&[1], 0));
    }

    #[test]
    fn reports_only_minimal_fds() {
        // a -> b holds, therefore {a, c} -> b must not be reported.
        let inst = instance(&[
            ("x", "p", "1"),
            ("x", "p", "2"),
            ("y", "q", "1"),
            ("y", "q", "2"),
        ]);
        let found = discover_fds(&inst, &FdDiscoveryConfig::default());
        assert!(found.contains(&[0], 1));
        assert!(!found.contains(&[0, 2], 1));
    }

    #[test]
    fn excluded_attributes_never_appear() {
        let inst = instance(&[("x", "p", "1"), ("x", "p", "2"), ("y", "q", "3")]);
        let config = FdDiscoveryConfig {
            exclude: vec![2],
            ..FdDiscoveryConfig::default()
        };
        let found = discover_fds(&inst, &config);
        for fd in &found.fds {
            assert!(!fd.lhs().contains(&2));
            assert_ne!(fd.rhs(), [2]);
        }
    }

    #[test]
    fn approximate_discovery_tolerates_noise() {
        // a -> b holds on 9 of 10 tuples of the "x" group.
        let mut rows: Vec<(&str, &str, &str)> = vec![("x", "p", "c"); 9];
        rows.push(("x", "q", "d"));
        rows.push(("y", "r", "e"));
        let inst = instance(&rows);
        let exact = discover_fds(&inst, &FdDiscoveryConfig::default());
        assert!(!exact.contains(&[0], 1));
        let approx = discover_fds(
            &inst,
            &FdDiscoveryConfig {
                max_g3: 0.15,
                ..FdDiscoveryConfig::default()
            },
        );
        assert!(approx.contains(&[0], 1));
    }

    #[test]
    fn discovered_fds_hold_on_the_instance() {
        let inst = instance(&[
            ("x", "p", "1"),
            ("x", "p", "1"),
            ("y", "q", "1"),
            ("z", "q", "2"),
            ("w", "r", "2"),
        ]);
        let found = discover_fds(&inst, &FdDiscoveryConfig::default());
        assert!(!found.fds.is_empty());
        for fd in &found.fds {
            assert!(fd.holds_on(&inst), "discovered FD {fd:?} does not hold");
        }
    }

    #[test]
    fn fan_out_is_byte_identical_to_sequential_sweep() {
        let inst = instance(&[
            ("x", "p", "1"),
            ("x", "p", "2"),
            ("y", "p", "3"),
            ("y", "q", "3"),
            ("z", "q", "4"),
            ("z", "q", "4"),
        ]);
        for use_interned in [false, true] {
            for max_g3 in [0.0, 0.2] {
                let config = |threads| FdDiscoveryConfig {
                    threads,
                    use_interned,
                    max_g3,
                    ..FdDiscoveryConfig::default()
                };
                let sequential = discover_fds(&inst, &config(1));
                for threads in [2, 8] {
                    let parallel = discover_fds(&inst, &config(threads));
                    assert_eq!(parallel.fds, sequential.fds, "threads {threads}");
                    assert_eq!(parallel.candidates_checked, sequential.candidates_checked);
                    assert_eq!(parallel.partitions_built, sequential.partitions_built);
                }
            }
        }
    }

    #[test]
    fn shard_source_discovery_matches_instance_discovery() {
        let inst = instance(&[
            ("x", "p", "1"),
            ("x", "p", "2"),
            ("y", "p", "3"),
            ("y", "q", "3"),
            ("z", "q", "4"),
            ("z", "q", "4"),
        ]);
        for max_g3 in [0.0, 0.2] {
            let config = |threads| FdDiscoveryConfig {
                threads,
                max_g3,
                ..FdDiscoveryConfig::default()
            };
            let reference = discover_fds(&inst, &config(1));
            let source = dq_relation::StoreShardSource::new(&inst);
            for threads in [1, 2, 8] {
                let streamed = discover_fds_from_shards(&source, &config(threads));
                assert_eq!(streamed.fds, reference.fds, "threads {threads}");
                assert_eq!(streamed.candidates_checked, reference.candidates_checked);
            }
        }
    }

    #[test]
    fn empty_instance_yields_everything_trivially() {
        let inst = RelationInstance::new(schema());
        let found = discover_fds(&inst, &FdDiscoveryConfig::default());
        // Every candidate holds vacuously; all single-attribute LHS FDs appear.
        assert!(found.contains(&[0], 1));
        assert!(found.contains(&[1], 0));
    }
}
