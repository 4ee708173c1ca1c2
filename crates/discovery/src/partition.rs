//! Stripped partitions and partition-based error measures.
//!
//! A partition `π_X` of a relation instance groups tuples by their values on
//! an attribute list `X`.  The *stripped* partition drops singleton classes —
//! they can never witness an FD violation and dropping them keeps products
//! cheap.  Partitions are the workhorse of level-wise dependency discovery
//! (TANE and its conditional descendants): an FD `X → A` holds exactly when
//! `π_X` and `π_{X ∪ {A}}` have the same error, and the `g3` error of a
//! candidate FD is the minimum number of tuples that must be removed for it
//! to hold, which doubles as an approximation measure.
//!
//! Partitions have one fast form over multi-row groups,
//! [`StrippedPartition::from_groups`], fed by either group provider — a
//! pooled interned index or a shard scan (see [`crate::source`]) — and
//! `g3` is read off the partitions a lattice walk already holds
//! ([`StrippedPartition::g3_with`]).  The `Vec<Value>`-keyed
//! [`StrippedPartition::build`] and [`g3_error`] stay as the reference they
//! are checked against.

use dq_relation::{RelationInstance, ShardSource, TupleId, Value};
use std::collections::HashMap;

/// A stripped partition: the equivalence classes of size ≥ 2 of a relation
/// instance under "agrees on `X`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Equivalence classes with at least two members, each sorted by tuple id.
    classes: Vec<Vec<TupleId>>,
    /// Number of tuples in the underlying instance.
    total: usize,
}

impl StrippedPartition {
    /// Builds the stripped partition of `instance` on the attribute list
    /// `attrs`.  The partition on the empty list has a single class holding
    /// every tuple (if there are at least two).
    pub fn build(instance: &RelationInstance, attrs: &[usize]) -> Self {
        let mut groups: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
        // Project into a reused buffer; a key vector is allocated only the
        // first time a projection is seen, not once per tuple.
        let mut buffer: Vec<Value> = Vec::with_capacity(attrs.len());
        for (id, tuple) in instance.iter() {
            buffer.clear();
            buffer.extend(attrs.iter().map(|&a| tuple.get(a).clone()));
            match groups.get_mut(buffer.as_slice()) {
                Some(class) => class.push(id),
                None => {
                    groups.insert(buffer.clone(), vec![id]);
                }
            }
        }
        let mut classes: Vec<Vec<TupleId>> = groups
            .into_values()
            .filter(|class| class.len() >= 2)
            .collect();
        for class in &mut classes {
            class.sort();
        }
        classes.sort();
        StrippedPartition {
            classes,
            total: instance.len(),
        }
    }

    /// Builds the stripped partition from the multi-row groups of `source` on
    /// the partition's attribute list — the postings of a pooled interned
    /// index ([`InternedIndex::multi_group_rows`]) or a shard scan
    /// ([`RowGroups::scan`]).  Every such group *is* an equivalence class,
    /// so no key is ever decoded.  Produces exactly [`build`](Self::build)'s
    /// partition without materializing a single `Vec<Value>` key.
    ///
    /// [`InternedIndex::multi_group_rows`]: dq_relation::InternedIndex::multi_group_rows
    /// [`RowGroups::scan`]: dq_relation::RowGroups::scan
    pub fn from_groups<'g>(
        source: &dyn ShardSource,
        groups: impl IntoIterator<Item = &'g [u32]>,
    ) -> Self {
        // Rows ascend within a group and tuple ids ascend with row numbers,
        // so each class arrives pre-sorted; only the class list needs a sort.
        let mut classes: Vec<Vec<TupleId>> = groups
            .into_iter()
            .map(|rows| rows.iter().map(|&r| source.tuple_id(r as usize)).collect())
            .collect();
        classes.sort();
        StrippedPartition {
            classes,
            total: source.len(),
        }
    }

    /// Constructs a partition directly from classes (used by [`product`]).
    ///
    /// [`product`]: StrippedPartition::product
    fn from_classes(mut classes: Vec<Vec<TupleId>>, total: usize) -> Self {
        for class in &mut classes {
            class.sort();
        }
        classes.retain(|c| c.len() >= 2);
        classes.sort();
        StrippedPartition { classes, total }
    }

    /// The equivalence classes of size ≥ 2.
    pub fn classes(&self) -> &[Vec<TupleId>] {
        &self.classes
    }

    /// Number of non-singleton classes, `|π|` in TANE notation (singletons
    /// stripped).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `‖π‖`: the number of tuples that live in a non-singleton class.
    pub fn size(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Number of tuples in the underlying instance.
    pub fn total_tuples(&self) -> usize {
        self.total
    }

    /// The TANE error `e(π) = ‖π‖ − |π|`: the minimum number of tuples that
    /// must be removed so that every remaining class is a singleton — i.e.
    /// so that `X` becomes a key of the non-singleton part.
    pub fn error(&self) -> usize {
        self.size() - self.class_count()
    }

    /// Whether `X` (this partition's attribute list) is a superkey: every
    /// class is a singleton, so the stripped partition is empty.
    pub fn is_superkey(&self) -> bool {
        self.classes.is_empty()
    }

    /// The product `π_X · π_Y = π_{X ∪ Y}`: refines this partition by
    /// `other`, splitting every class of `self` by the class (or singleton)
    /// of `other` each member belongs to.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        self.product_with(other, &mut PartitionProber::new())
    }

    /// [`product`](Self::product) over a caller-owned [`PartitionProber`]:
    /// the tuple → class probe table and the per-class gather buckets are
    /// reused across calls, so the inner loop of level-wise discovery (one
    /// product per candidate) allocates nothing once warm.
    pub fn product_with(
        &self,
        other: &StrippedPartition,
        prober: &mut PartitionProber,
    ) -> StrippedPartition {
        // Stamp every tuple of a non-singleton class of `other` with its
        // class index; tuples outside are singletons there and stay
        // singletons in the product.
        let epoch = prober.begin(other.classes.len());
        for (idx, class) in other.classes.iter().enumerate() {
            for &id in class {
                prober.stamp(id, idx as u32, epoch);
            }
        }
        let mut out: Vec<Vec<TupleId>> = Vec::new();
        for class in &self.classes {
            for &id in class {
                if let Some(idx) = prober.class_of(id, epoch) {
                    let bucket = &mut prober.buckets[idx as usize];
                    if bucket.is_empty() {
                        prober.touched.push(idx);
                    }
                    bucket.push(id);
                }
            }
            for &idx in &prober.touched {
                let bucket = &mut prober.buckets[idx as usize];
                if bucket.len() >= 2 {
                    out.push(bucket.clone());
                }
                bucket.clear();
            }
            prober.touched.clear();
        }
        StrippedPartition::from_classes(out, self.total)
    }

    /// Whether the FD `X → Y` holds, where `self` is `π_X` and `with_rhs` is
    /// `π_{X ∪ Y}`: the FD holds iff refining by `Y` does not split any
    /// class, i.e. the two partitions have the same error.
    pub fn implies_with(&self, with_rhs: &StrippedPartition) -> bool {
        self.error() == with_rhs.error()
    }

    /// The [`g3_error`] of `X → A`, where `self` is `π_X` and `with_rhs` is
    /// `π_{X ∪ {A}}`: each class `c` of `π_X` loses `|c| − max(1, largest
    /// π_{X ∪ {A}} class inside c)`, found by each such class's first member
    /// through the prober's epoch-stamped tuple → class table.  The count
    /// and the division are the naive measure's, so the bits are the same.
    pub fn g3_with(&self, with_rhs: &StrippedPartition, prober: &mut PartitionProber) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let epoch = prober.begin(0);
        for (idx, class) in self.classes.iter().enumerate() {
            for &id in class {
                prober.stamp(id, idx as u32, epoch);
            }
        }
        let mut keep = vec![1usize; self.classes.len()];
        for class in &with_rhs.classes {
            if let Some(idx) = prober.class_of(class[0], epoch) {
                keep[idx as usize] = keep[idx as usize].max(class.len());
            }
        }
        (self.size() - keep.iter().sum::<usize>()) as f64 / self.total as f64
    }
}

/// Reusable scratch for [`StrippedPartition::product_with`]: an
/// epoch-stamped tuple-id → class probe table (no clearing between
/// products) plus the per-class gather buckets.  One prober serves an
/// entire discovery run.
#[derive(Debug, Default)]
pub struct PartitionProber {
    /// Class index of each tuple id in the current `other` partition.
    class_of: Vec<u32>,
    /// Epoch at which `class_of` was last written per tuple; stale stamps
    /// mean "singleton in `other`".
    stamps: Vec<u32>,
    epoch: u32,
    /// One gather bucket per class of `other`, cleared after each class of
    /// `self` (capacity is retained across products).
    buckets: Vec<Vec<TupleId>>,
    /// Bucket indexes touched while splitting the current class.
    touched: Vec<u32>,
}

impl PartitionProber {
    /// A fresh prober.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new product: advances the epoch (resetting all stamps on
    /// the rare wrap-around) and ensures at least `classes` buckets exist.
    fn begin(&mut self, classes: usize) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.buckets.len() < classes {
            self.buckets.resize_with(classes, Vec::new);
        }
        self.epoch
    }

    #[inline]
    fn stamp(&mut self, id: TupleId, class: u32, epoch: u32) {
        if self.class_of.len() <= id.0 {
            self.class_of.resize(id.0 + 1, 0);
            self.stamps.resize(id.0 + 1, 0);
        }
        self.class_of[id.0] = class;
        self.stamps[id.0] = epoch;
    }

    #[inline]
    fn class_of(&self, id: TupleId, epoch: u32) -> Option<u32> {
        match self.stamps.get(id.0) {
            Some(&stamp) if stamp == epoch => Some(self.class_of[id.0]),
            _ => None,
        }
    }
}

/// The `g1` error of the FD `X → Y` on `instance`: the fraction of tuple
/// *pairs* that violate the FD (agree on `X` but disagree on `Y`), over all
/// ordered pairs of distinct tuples.  `0.0` means the FD holds exactly.
pub fn g1_error(instance: &RelationInstance, lhs: &[usize], rhs: &[usize]) -> f64 {
    let n = instance.len();
    if n < 2 {
        return 0.0;
    }
    let mut groups: HashMap<Vec<Value>, HashMap<Vec<Value>, usize>> = HashMap::new();
    for (_, tuple) in instance.iter() {
        *groups
            .entry(tuple.project(lhs))
            .or_default()
            .entry(tuple.project(rhs))
            .or_default() += 1;
    }
    let mut violating_pairs = 0usize;
    for rhs_counts in groups.values() {
        let group_size: usize = rhs_counts.values().sum();
        let same_rhs_pairs: usize = rhs_counts.values().map(|c| c * (c - 1)).sum();
        violating_pairs += group_size * (group_size - 1) - same_rhs_pairs;
    }
    violating_pairs as f64 / (n * (n - 1)) as f64
}

/// The `g3` error of the FD `X → Y` on `instance`: the minimum fraction of
/// tuples that must be deleted for the FD to hold.  Within every `X`-group
/// all tuples except those carrying the most frequent `Y`-value must go.
pub fn g3_error(instance: &RelationInstance, lhs: &[usize], rhs: &[usize]) -> f64 {
    let n = instance.len();
    if n == 0 {
        return 0.0;
    }
    let mut groups: HashMap<Vec<Value>, HashMap<Vec<Value>, usize>> = HashMap::new();
    for (_, tuple) in instance.iter() {
        *groups
            .entry(tuple.project(lhs))
            .or_default()
            .entry(tuple.project(rhs))
            .or_default() += 1;
    }
    let mut removed = 0usize;
    for rhs_counts in groups.values() {
        let group_size: usize = rhs_counts.values().sum();
        let keep = rhs_counts.values().copied().max().unwrap_or(0);
        removed += group_size - keep;
    }
    removed as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema, RowGroups, StoreShardSource};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            vec![("a", Domain::Text), ("b", Domain::Text), ("c", Domain::Int)],
        ))
    }

    fn instance(rows: &[(&str, &str, i64)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (a, b, c) in rows {
            inst.insert_values(vec![Value::str(*a), Value::str(*b), Value::int(*c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn build_groups_by_projection() {
        let inst = instance(&[("x", "p", 1), ("x", "q", 2), ("y", "p", 3)]);
        let pa = StrippedPartition::build(&inst, &[0]);
        assert_eq!(pa.class_count(), 1);
        assert_eq!(pa.size(), 2);
        assert_eq!(pa.error(), 1);
        let pb = StrippedPartition::build(&inst, &[1]);
        assert_eq!(pb.class_count(), 1);
        let pc = StrippedPartition::build(&inst, &[2]);
        assert!(pc.is_superkey());
    }

    #[test]
    fn empty_attribute_list_is_one_class() {
        let inst = instance(&[("x", "p", 1), ("y", "q", 2), ("z", "r", 3)]);
        let p = StrippedPartition::build(&inst, &[]);
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.size(), 3);
        assert_eq!(p.error(), 2);
    }

    #[test]
    fn product_equals_direct_build() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "p", 1),
            ("x", "q", 1),
            ("y", "p", 2),
            ("y", "p", 2),
        ]);
        let pa = StrippedPartition::build(&inst, &[0]);
        let pb = StrippedPartition::build(&inst, &[1]);
        let product = pa.product(&pb);
        let direct = StrippedPartition::build(&inst, &[0, 1]);
        assert_eq!(product, direct);
    }

    #[test]
    fn product_is_commutative() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "q", 2),
            ("x", "q", 3),
            ("y", "q", 4),
            ("y", "q", 5),
            ("y", "p", 6),
        ]);
        let pa = StrippedPartition::build(&inst, &[0]);
        let pb = StrippedPartition::build(&inst, &[1]);
        assert_eq!(pa.product(&pb), pb.product(&pa));
    }

    #[test]
    fn fd_detection_via_error_equality() {
        // a -> b holds; b -> a does not.
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("y", "p", 3), ("z", "q", 4)]);
        let pa = StrippedPartition::build(&inst, &[0]);
        let pab = StrippedPartition::build(&inst, &[0, 1]);
        assert!(pa.implies_with(&pab));
        let pb = StrippedPartition::build(&inst, &[1]);
        let pba = StrippedPartition::build(&inst, &[1, 0]);
        assert!(!pb.implies_with(&pba));
    }

    #[test]
    fn g1_zero_iff_fd_holds() {
        let holds = instance(&[("x", "p", 1), ("x", "p", 2), ("y", "q", 3)]);
        assert_eq!(g1_error(&holds, &[0], &[1]), 0.0);
        let fails = instance(&[("x", "p", 1), ("x", "q", 2)]);
        assert!(g1_error(&fails, &[0], &[1]) > 0.0);
    }

    #[test]
    fn g3_counts_minimum_removals() {
        // Group "x" has b-values p,p,q: one removal fixes it.  4 tuples total.
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)]);
        let g3 = g3_error(&inst, &[0], &[1]);
        assert!((g3 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn g3_zero_on_empty_and_satisfying() {
        let empty = RelationInstance::new(schema());
        assert_eq!(g3_error(&empty, &[0], &[1]), 0.0);
        let holds = instance(&[("x", "p", 1), ("y", "q", 2)]);
        assert_eq!(g3_error(&holds, &[0], &[1]), 0.0);
    }

    #[test]
    fn from_groups_matches_build() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "p", 1),
            ("x", "q", 1),
            ("y", "p", 2),
            ("y", "p", 2),
            ("z", "q", 3),
        ]);
        let source = StoreShardSource::new(&inst);
        for attrs in [&[0usize][..], &[1], &[2], &[0, 1], &[0, 1, 2], &[]] {
            assert_eq!(
                StrippedPartition::from_groups(&source, RowGroups::scan(&source, attrs).iter()),
                StrippedPartition::build(&inst, attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn g3_from_product_matches_naive() {
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)]);
        let mut prober = PartitionProber::new();
        for (lhs, rhs) in [(&[0usize][..], 1usize), (&[1], 0), (&[0, 1], 2), (&[2], 0)] {
            let with_rhs: Vec<usize> = lhs.iter().copied().chain([rhs]).collect();
            let g3 = StrippedPartition::build(&inst, lhs)
                .g3_with(&StrippedPartition::build(&inst, &with_rhs), &mut prober);
            assert_eq!(g3, g3_error(&inst, lhs, &[rhs]), "{lhs:?} -> {rhs:?}");
        }
    }

    #[test]
    fn g3_keeps_one_tuple_of_a_class_split_into_singletons() {
        // The "x" class of a splits into three singletons on c: π_{a,c} has
        // no class inside it, so it keeps one tuple and loses two.
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)]);
        let pa = StrippedPartition::build(&inst, &[0]);
        let pac = StrippedPartition::build(&inst, &[0, 2]);
        assert!(pac.is_superkey());
        let g3 = pa.g3_with(&pac, &mut PartitionProber::new());
        assert_eq!(g3, 0.5);
        assert_eq!(g3, g3_error(&inst, &[0], &[2]));
        let empty = RelationInstance::new(schema());
        let p = StrippedPartition::build(&empty, &[0]);
        assert_eq!(p.g3_with(&p, &mut PartitionProber::new()), 0.0);
    }

    #[test]
    fn superkey_partition_has_no_classes() {
        let inst = instance(&[("x", "p", 1), ("y", "p", 2), ("z", "p", 3)]);
        let p = StrippedPartition::build(&inst, &[0]);
        assert!(p.is_superkey());
        assert_eq!(p.error(), 0);
    }
}
