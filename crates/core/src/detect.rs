//! Violation reports: all violations of a set of conditional dependencies
//! in a database.
//!
//! This is the "catching inconsistencies" step of the paper's programme
//! (Section 1): errors *are* violations of the dependencies.
//! [`DetectionEngine`](crate::engine::DetectionEngine) aggregates
//! per-dependency violations into the reports defined here, which repairing
//! (`dq-repair`) and the experiment harness consume; the row-at-a-time
//! detectors they are tested against live in [`crate::reference`].
//!
//! # Grouped CFD reports
//!
//! A variable-CFD violation is one LHS group holding more than one RHS
//! value, so the fast detectors ([`crate::engine::DetectionEngine`]) keep
//! each dependency's violations as [`CfdViolationGroups`]: the sorted
//! single-tuple violations, plus, per violating LHS group, its matching
//! pattern indexes and its RHS classes as tuple-id runs.  Such a group of
//! classes `C₁…Cₖ` with `S = Σ|Cᵢ|` stands for
//! `|patterns| · (S² − Σ|Cᵢ|²) / 2` tuple pairs, so
//! [`CfdViolationReport::total`], [`is_clean`](CfdViolationReport::is_clean),
//! [`violated_dependencies`](CfdViolationReport::violated_dependencies) and
//! [`violating_tuples`](CfdViolationReport::violating_tuples) cost
//! O(tuples), not O(pairs).  The pair lists of
//! [`per_dependency`](CfdViolationReport::per_dependency),
//! [`of`](CfdViolationReport::of) and [`iter`](CfdViolationReport::iter) are
//! materialized on first use, once per report, under a `report.materialize`
//! span.  The reference detectors and incremental detection build pair-form
//! reports; the two forms compare equal exactly when their pair lists do.

use crate::cfd::CfdViolation;
use crate::cind::CindViolation;
use crate::ecfd::EcfdViolation;
use dq_relation::{FxHashMap, TupleId};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One CFD's violations in grouped form.
///
/// * the single-tuple violations, sorted;
/// * for each LHS group whose members match at least one pattern and fall
///   into two or more classes on the RHS: the matching pattern indexes
///   (ascending) and the classes as runs of tuple ids.
///
/// The form is canonical — ids ascend within a class, classes are ordered
/// by their smallest id, groups by their smallest member id — and a
/// dependency's pair list determines its groups (they are the connected
/// components of the pair graph), so two values are equal exactly when the
/// pair lists they stand for are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfdViolationGroups {
    singles: Vec<CfdViolation>,
    /// Group → its patterns: `patterns[pattern_offsets[g]..pattern_offsets[g + 1]]`.
    pattern_offsets: Vec<u32>,
    patterns: Vec<u32>,
    /// Group → its classes: `group_offsets[g]..group_offsets[g + 1]`.
    group_offsets: Vec<u32>,
    /// Class → its ids: `ids[class_offsets[c]..class_offsets[c + 1]]`.
    class_offsets: Vec<u32>,
    ids: Vec<TupleId>,
    /// Tuple-pair violations the groups stand for.
    pairs: usize,
}

impl Default for CfdViolationGroups {
    fn default() -> Self {
        Self::with_singles(Vec::new())
    }
}

impl CfdViolationGroups {
    /// No groups yet, and these single-tuple violations (sorted here).
    pub(crate) fn with_singles(mut singles: Vec<CfdViolation>) -> Self {
        debug_assert!(singles
            .iter()
            .all(|v| matches!(v, CfdViolation::SingleTuple { .. })));
        singles.sort_unstable();
        CfdViolationGroups {
            singles,
            pattern_offsets: vec![0],
            patterns: Vec::new(),
            group_offsets: vec![0],
            class_offsets: vec![0],
            ids: Vec::new(),
            pairs: 0,
        }
    }

    /// Appends a group whose members are `ids`, ascending, with `labels[i]`
    /// the class of `ids[i]`: classes numbered `0..classes` in order of
    /// first appearance, at least two of them.  `scratch` is reusable
    /// working memory.
    pub(crate) fn push_group(
        &mut self,
        patterns: &[usize],
        ids: &[TupleId],
        labels: &[u32],
        classes: usize,
        scratch: &mut Vec<u32>,
    ) {
        debug_assert!(classes >= 2 && !patterns.is_empty());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        self.patterns.extend(patterns.iter().map(|&p| p as u32));
        self.pattern_offsets.push(self.patterns.len() as u32);
        // Counting sort by label: stable, so each class stays ascending.
        scratch.clear();
        scratch.resize(classes, 0);
        for &label in labels {
            scratch[label as usize] += 1;
        }
        let mut cursor = self.ids.len() as u32;
        for slot in scratch.iter_mut() {
            let size = *slot;
            *slot = cursor;
            cursor += size;
            self.class_offsets.push(cursor);
        }
        self.ids.resize(cursor as usize, TupleId(0));
        for (&id, &label) in ids.iter().zip(labels) {
            let slot = &mut scratch[label as usize];
            self.ids[*slot as usize] = id;
            *slot += 1;
        }
        self.group_offsets.push(self.class_offsets.len() as u32 - 1);
        self.pairs += self.pairs_of(self.group_count() - 1);
    }

    /// Appends a group matching `patterns` whose `classes` are each
    /// ascending, at least two of them, ordered by their smallest id.
    pub(crate) fn push_classes<'a>(
        &mut self,
        patterns: &[u32],
        classes: impl IntoIterator<Item = &'a [TupleId]>,
    ) {
        self.patterns.extend_from_slice(patterns);
        self.pattern_offsets.push(self.patterns.len() as u32);
        for class in classes {
            debug_assert!(class.windows(2).all(|w| w[0] < w[1]));
            self.ids.extend_from_slice(class);
            self.class_offsets.push(self.ids.len() as u32);
        }
        self.group_offsets.push(self.class_offsets.len() as u32 - 1);
        let g = self.group_count() - 1;
        debug_assert!(self.class_range(g).len() >= 2 && !patterns.is_empty());
        debug_assert!(self.classes_of(g).all(|c| !c.is_empty()));
        debug_assert!(self.classes_of(g).map(|c| c[0]).is_sorted());
        self.pairs += self.pairs_of(g);
    }

    /// Appends the groups `groups` of `other` unchanged: one `extend` per
    /// array, with the copied offsets rebased.  Leaves `pairs` to the
    /// caller, which knows the copied groups' share without walking them.
    fn push_groups_of(&mut self, other: &CfdViolationGroups, groups: Range<usize>) {
        if groups.is_empty() {
            return;
        }
        let rebase = |to: &mut Vec<u32>, from: &[u32], base: u32| {
            let first = from[0];
            to.extend(from[1..].iter().map(|&end| end - first + base));
        };
        let patterns = other.pattern_offsets[groups.start] as usize
            ..other.pattern_offsets[groups.end] as usize;
        let base = self.patterns.len() as u32;
        self.patterns.extend_from_slice(&other.patterns[patterns]);
        rebase(
            &mut self.pattern_offsets,
            &other.pattern_offsets[groups.start..=groups.end],
            base,
        );
        let classes =
            other.group_offsets[groups.start] as usize..other.group_offsets[groups.end] as usize;
        let base = self.class_offsets.len() as u32 - 1;
        rebase(
            &mut self.group_offsets,
            &other.group_offsets[groups.start..=groups.end],
            base,
        );
        let ids =
            other.class_offsets[classes.start] as usize..other.class_offsets[classes.end] as usize;
        let base = self.ids.len() as u32;
        self.ids.extend_from_slice(&other.ids[ids]);
        rebase(
            &mut self.class_offsets,
            &other.class_offsets[classes.start..=classes.end],
            base,
        );
    }

    /// The groups reordered by smallest member id — the canonical order.
    pub(crate) fn into_canonical(self) -> Self {
        let mut order: Vec<usize> = (0..self.group_count()).collect();
        order.sort_unstable_by_key(|&g| self.min_id(g));
        if order.iter().enumerate().all(|(i, &g)| i == g) {
            return self;
        }
        let mut out = CfdViolationGroups::with_singles(Vec::new());
        out.ids.reserve_exact(self.ids.len());
        for g in order {
            out.push_groups_of(&self, g..g + 1);
        }
        out.pairs = self.pairs;
        out.singles = self.singles;
        out
    }

    /// `prev` with its groups `replaced` (ascending indexes) taken out and
    /// the groups of `fresh` (canonical, disjoint from the groups kept)
    /// merged in, with `fresh`'s single-tuple violations.  The kept groups
    /// between two insertion points are copied as one run
    /// ([`push_groups_of`](Self::push_groups_of)), each insertion point is a
    /// binary search, and the pair count is `prev`'s less the replaced
    /// groups' plus `fresh`'s — so the cost is a copy of the report, not a
    /// walk over its groups.
    pub(crate) fn merged(prev: &CfdViolationGroups, replaced: &[usize], fresh: Self) -> Self {
        debug_assert!(replaced.windows(2).all(|w| w[0] < w[1]));
        let dropped: usize = replaced.iter().map(|&g| prev.pairs_of(g)).sum();
        let mut out = CfdViolationGroups::with_singles(Vec::new());
        out.ids.reserve_exact(prev.ids.len() + fresh.ids.len());
        let mut replaced = replaced.iter().copied().peekable();
        let mut next = 0;
        // Copies the kept groups of `prev` below `end`.
        let mut copy_kept = |out: &mut Self, end: usize| {
            while next < end {
                let stop = replaced.peek().map_or(end, |&r| r.min(end));
                out.push_groups_of(prev, next..stop);
                next = stop;
                if replaced.next_if_eq(&next).is_some() {
                    next += 1;
                }
            }
        };
        let mut n = 0;
        while n < fresh.group_count() {
            let at = prev.groups_below(fresh.min_id(n));
            copy_kept(&mut out, at);
            let run = n
                + 1
                + (n + 1..fresh.group_count())
                    .take_while(|&m| prev.groups_below(fresh.min_id(m)) == at)
                    .count();
            out.push_groups_of(&fresh, n..run);
            n = run;
        }
        copy_kept(&mut out, prev.group_count());
        out.pairs = prev.pairs - dropped + fresh.pairs;
        out.singles = fresh.singles;
        debug_assert!((1..out.group_count()).all(|g| out.min_id(g - 1) < out.min_id(g)));
        out
    }

    /// The single-tuple violations, sorted.
    pub fn singles(&self) -> &[CfdViolation] {
        &self.singles
    }

    /// Number of violating LHS groups.
    pub fn group_count(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// The pattern indexes group `g` matches, ascending.
    pub fn patterns_of(&self, g: usize) -> &[u32] {
        &self.patterns[self.pattern_offsets[g] as usize..self.pattern_offsets[g + 1] as usize]
    }

    fn class_range(&self, g: usize) -> Range<usize> {
        self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize
    }

    /// The RHS classes of group `g`, each an ascending run of tuple ids,
    /// ordered by smallest id.
    pub fn classes_of(&self, g: usize) -> impl ExactSizeIterator<Item = &[TupleId]> {
        self.class_range(g)
            .map(|c| &self.ids[self.class_offsets[c] as usize..self.class_offsets[c + 1] as usize])
    }

    /// Every member of group `g`, class by class.
    pub fn members(&self, g: usize) -> &[TupleId] {
        let classes = self.class_range(g);
        &self.ids
            [self.class_offsets[classes.start] as usize..self.class_offsets[classes.end] as usize]
    }

    /// The smallest member id of group `g`.
    pub(crate) fn min_id(&self, g: usize) -> TupleId {
        self.members(g)[0]
    }

    /// The number of groups whose smallest member is below `id` — a binary
    /// search, the groups being in canonical order.
    fn groups_below(&self, id: TupleId) -> usize {
        let (mut lo, mut hi) = (0, self.group_count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.min_id(mid) < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The group whose smallest member is `id`, if any.
    pub(crate) fn group_with_min(&self, id: TupleId) -> Option<usize> {
        let g = self.groups_below(id);
        (g < self.group_count() && self.min_id(g) == id).then_some(g)
    }

    /// Tuple-pair violations group `g` stands for.
    fn pairs_of(&self, g: usize) -> usize {
        let size = self.members(g).len();
        let squares: usize = self.classes_of(g).map(|c| c.len() * c.len()).sum();
        self.patterns_of(g).len() * (size * size - squares) / 2
    }

    /// Number of violations, single-tuple and pair.
    pub fn total(&self) -> usize {
        self.singles.len() + self.pairs
    }

    /// No violation at all?
    pub fn is_empty(&self) -> bool {
        self.singles.is_empty() && self.group_count() == 0
    }

    /// The canonical (sorted) violation list, sized exactly.
    ///
    /// Pairs are ordered by pattern, then first, then second id.  Per
    /// pattern, members are visited in ascending id order, and each one
    /// walks the later members of its group, jumping over its own class
    /// with a precomputed skip link — so the cost is the pairs written plus
    /// sorting the member ids, never a scan of same-class pairs.
    pub fn to_violations(&self) -> Vec<CfdViolation> {
        let mut out = Vec::with_capacity(self.total());
        out.extend_from_slice(&self.singles);
        if self.group_count() == 0 {
            return out;
        }
        // Per group, its members ascending with their class, and for each
        // position the next one of a different class (or the group's end).
        let n = self.ids.len();
        let mut members: Vec<(TupleId, u32)> = Vec::with_capacity(n);
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        let mut next_other: Vec<u32> = vec![0; n];
        let mut ends: Vec<u32> = Vec::with_capacity(self.group_count());
        for g in 0..self.group_count() {
            let start = members.len();
            for (class, ids) in self.classes_of(g).enumerate() {
                members.extend(ids.iter().map(|&id| (id, class as u32)));
            }
            members[start..].sort_unstable();
            let end = members.len();
            group_of.resize(end, g as u32);
            ends.push(end as u32);
            next_other[end - 1] = end as u32;
            for i in (start..end - 1).rev() {
                next_other[i] = if members[i + 1].1 != members[i].1 {
                    i as u32 + 1
                } else {
                    next_other[i + 1]
                };
            }
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| members[i as usize].0);
        let mut patterns = self.patterns.clone();
        patterns.sort_unstable();
        patterns.dedup();
        for p in patterns {
            for &i in &order {
                let g = group_of[i as usize] as usize;
                if !self.patterns_of(g).contains(&p) {
                    continue;
                }
                let (first, class) = members[i as usize];
                let end = ends[g] as usize;
                let mut j = i as usize + 1;
                while j < end {
                    let (second, other) = members[j];
                    if other == class {
                        j = next_other[j] as usize;
                        continue;
                    }
                    out.push(CfdViolation::TuplePair {
                        pattern: p as usize,
                        first,
                        second,
                    });
                    j += 1;
                }
            }
        }
        debug_assert_eq!(out.len(), self.total());
        out
    }

    /// The violations involving a tuple of `ids` (sorted), in canonical
    /// order.  Each member of `ids` walks the other classes of its group,
    /// and a pair of two such members is written from the smaller id only,
    /// so the cost is `ids` times their group sizes.
    pub fn pairs_involving(&self, ids: &[TupleId]) -> Vec<CfdViolation> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let involved = |id: &TupleId| ids.binary_search(id).is_ok();
        let mut out: Vec<CfdViolation> = self
            .singles
            .iter()
            .filter(|v| v.tuples().iter().any(involved))
            .copied()
            .collect();
        for g in 0..self.group_count() {
            for (c, class) in self.classes_of(g).enumerate() {
                for &a in class.iter().filter(|a| involved(a)) {
                    let others = self.classes_of(g).enumerate().filter(|&(d, _)| d != c);
                    for &b in others.flat_map(|(_, other)| other) {
                        if b < a && involved(&b) {
                            continue;
                        }
                        let (first, second) = (a.min(b), a.max(b));
                        for &p in self.patterns_of(g) {
                            let pattern = p as usize;
                            out.push(CfdViolation::TuplePair {
                                pattern,
                                first,
                                second,
                            });
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Violations of a set of CFDs over a single relation instance.
///
/// Either grouped (the engine's batch and maintained reports, see the
/// [module docs](self)) or a list of violations per dependency
/// ([`from_per_dependency`](Self::from_per_dependency)'s: incremental
/// detection and the reference detectors).  Equality is
/// semantic: two reports are equal exactly when their per-dependency
/// violation lists are.
#[derive(Debug)]
pub struct CfdViolationReport {
    form: Form,
}

#[derive(Debug)]
enum Form {
    Pairs(Vec<Vec<CfdViolation>>),
    Grouped {
        deps: Vec<Arc<CfdViolationGroups>>,
        /// The pair lists, materialized on first use.
        pairs: OnceLock<Vec<Vec<CfdViolation>>>,
    },
}

impl Default for CfdViolationReport {
    fn default() -> Self {
        Self::from_per_dependency(Vec::new())
    }
}

impl Clone for CfdViolationReport {
    /// Clones share a grouped report's groups; a materialized pair cache
    /// is not copied.
    fn clone(&self) -> Self {
        match &self.form {
            Form::Pairs(lists) => Self::from_per_dependency(lists.clone()),
            Form::Grouped { deps, .. } => Self::from_shared_groups(deps.clone()),
        }
    }
}

impl PartialEq for CfdViolationReport {
    fn eq(&self, other: &Self) -> bool {
        match (self.shared_groups(), other.shared_groups()) {
            // Canonical groups map one-to-one onto pair lists.
            (Some(a), Some(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y) || x == y)
            }
            _ => self.per_dependency() == other.per_dependency(),
        }
    }
}

impl Eq for CfdViolationReport {}

impl CfdViolationReport {
    /// Assembles a report from per-dependency violation lists (positionally
    /// aligned with the dependency set that produced them).
    pub fn from_per_dependency(per_dependency: Vec<Vec<CfdViolation>>) -> Self {
        CfdViolationReport {
            form: Form::Pairs(per_dependency),
        }
    }

    /// Assembles a grouped report from per-dependency groups (positionally
    /// aligned with the dependency set that produced them).
    pub fn from_groups(groups: Vec<CfdViolationGroups>) -> Self {
        Self::from_shared_groups(groups.into_iter().map(Arc::new).collect())
    }

    pub(crate) fn from_shared_groups(deps: Vec<Arc<CfdViolationGroups>>) -> Self {
        CfdViolationReport {
            form: Form::Grouped {
                deps,
                pairs: OnceLock::new(),
            },
        }
    }

    /// A grouped report's per-dependency groups.
    pub(crate) fn shared_groups(&self) -> Option<&[Arc<CfdViolationGroups>]> {
        match &self.form {
            Form::Pairs(_) => None,
            Form::Grouped { deps, .. } => Some(deps),
        }
    }

    /// The grouped violations of the `i`-th dependency, for a grouped
    /// report; `None` for a report assembled from pair lists.
    pub fn grouped(&self, i: usize) -> Option<&CfdViolationGroups> {
        self.shared_groups().map(|deps| &*deps[i])
    }

    /// Has the pair-list view been built?  Always for a report assembled
    /// from pair lists; for a grouped one, once something asked for pairs.
    pub fn is_materialized(&self) -> bool {
        match &self.form {
            Form::Pairs(_) => true,
            Form::Grouped { pairs, .. } => pairs.get().is_some(),
        }
    }

    /// The per-dependency violation lists, in dependency order (built once
    /// per grouped report, on first call).
    pub fn per_dependency(&self) -> &[Vec<CfdViolation>] {
        match &self.form {
            Form::Pairs(lists) => lists,
            Form::Grouped { deps, pairs } => pairs.get_or_init(|| {
                let _span = dq_obs::span("report.materialize");
                deps.iter().map(|d| d.to_violations()).collect()
            }),
        }
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[CfdViolation] {
        &self.per_dependency()[i]
    }

    /// All `(dependency index, violation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CfdViolation)> {
        self.per_dependency()
            .iter()
            .enumerate()
            .flat_map(|(i, vs)| vs.iter().map(move |v| (i, v)))
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        match &self.form {
            Form::Pairs(lists) => lists.iter().map(Vec::len).sum(),
            Form::Grouped { deps, .. } => deps.iter().map(|d| d.total()).sum(),
        }
    }

    /// Is the instance clean with respect to every dependency?
    pub fn is_clean(&self) -> bool {
        self.violated_dependencies() == 0
    }

    /// The distinct tuples involved in at least one violation, ascending.
    pub fn violating_tuples(&self) -> Vec<TupleId> {
        match &self.form {
            Form::Pairs(_) => {
                let set: BTreeSet<TupleId> = self.iter().flat_map(|(_, v)| v.tuples()).collect();
                set.into_iter().collect()
            }
            Form::Grouped { deps, .. } => {
                // Every member of a violating group pairs with the members
                // of its group's other classes.
                let mut ids: Vec<TupleId> = deps
                    .iter()
                    .flat_map(|d| {
                        d.singles
                            .iter()
                            .flat_map(|v| v.tuples())
                            .chain(d.ids.iter().copied())
                    })
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
        }
    }

    /// Number of dependencies that are violated at least once.
    pub fn violated_dependencies(&self) -> usize {
        match &self.form {
            Form::Pairs(lists) => lists.iter().filter(|v| !v.is_empty()).count(),
            Form::Grouped { deps, .. } => deps.iter().filter(|d| !d.is_empty()).count(),
        }
    }

    /// Number of violating LHS groups over all dependencies: groups of
    /// tuples agreeing on a dependency's LHS, matching one of its patterns
    /// and disagreeing on its RHS.  For a report assembled from pair lists
    /// these are the connected components of each dependency's pair graph.
    pub fn violation_groups(&self) -> usize {
        match &self.form {
            Form::Grouped { deps, .. } => deps.iter().map(|d| d.group_count()).sum(),
            Form::Pairs(lists) => lists.iter().map(|l| pair_components(l)).sum(),
        }
    }
}

/// The connected components of the graph a violation list's pairs span.
fn pair_components(violations: &[CfdViolation]) -> usize {
    // Union-find with path halving; a root is its own parent.
    fn root(parent: &mut FxHashMap<TupleId, TupleId>, mut id: TupleId) -> TupleId {
        loop {
            let up = parent[&id];
            if up == id {
                return id;
            }
            let grand = parent[&up];
            parent.insert(id, grand);
            id = grand;
        }
    }
    let mut parent: FxHashMap<TupleId, TupleId> = FxHashMap::default();
    let mut components = 0usize;
    for v in violations {
        let CfdViolation::TuplePair { first, second, .. } = *v else {
            continue;
        };
        for id in [first, second] {
            parent.entry(id).or_insert_with(|| {
                components += 1;
                id
            });
        }
        let (a, b) = (root(&mut parent, first), root(&mut parent, second));
        if a != b {
            parent.insert(a, b);
            components -= 1;
        }
    }
    components
}

/// The reference CFD detector under its old path: the repository
/// benchmark's `clean-master-20k` oracle calls it here.  Detection runs on
/// [`DetectionEngine`](crate::engine::DetectionEngine).
pub use crate::reference::detect_cfd_violations;

/// Violations of a set of CINDs over a database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CindViolationReport {
    per_dependency: Vec<Vec<CindViolation>>,
}

impl CindViolationReport {
    /// Assembles a report from per-dependency violation lists.
    pub fn from_per_dependency(per_dependency: Vec<Vec<CindViolation>>) -> Self {
        CindViolationReport { per_dependency }
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[CindViolation] {
        &self.per_dependency[i]
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        self.per_dependency.iter().map(|v| v.len()).sum()
    }

    /// Is the database clean with respect to every CIND?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// All `(dependency index, violation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CindViolation)> {
        self.per_dependency
            .iter()
            .enumerate()
            .flat_map(|(i, vs)| vs.iter().map(move |v| (i, v)))
    }
}

/// Violations of a set of eCFDs over an instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcfdViolationReport {
    per_dependency: Vec<Vec<EcfdViolation>>,
}

impl EcfdViolationReport {
    /// Assembles a report from per-dependency violation lists.
    pub fn from_per_dependency(per_dependency: Vec<Vec<EcfdViolation>>) -> Self {
        EcfdViolationReport { per_dependency }
    }

    /// Violations of the `i`-th dependency.
    pub fn of(&self, i: usize) -> &[EcfdViolation] {
        &self.per_dependency[i]
    }

    /// Total number of violations.
    pub fn total(&self) -> usize {
        self.per_dependency.iter().map(|v| v.len()).sum()
    }

    /// Is the instance clean?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::cfd::Cfd;
    use crate::denial::DenialConstraint;
    use crate::engine::DetectionEngine;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::{Domain, RelationInstance, RelationSchema, Value};
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
                    PatternTuple::new(
                        vec![cst(1), cst(908), wild()],
                        vec![wild(), cst("MH"), wild()],
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
    fn report_aggregates_the_paper_violations() {
        let s = schema();
        let d = d0(&s);
        let report = DetectionEngine::new().detect_cfd_violations(&d, &paper_cfds(&s));
        // ϕ1: one pair violation; ϕ2: three single-tuple violations; ϕ3: none.
        assert_eq!(report.of(0).len(), 1);
        assert_eq!(report.of(1).len(), 3);
        assert_eq!(report.of(2).len(), 0);
        assert_eq!(report.total(), 4);
        assert_eq!(report.violated_dependencies(), 2);
        assert!(!report.is_clean());
        // Every tuple of D0 is dirty.
        assert_eq!(report.violating_tuples().len(), 3);
    }

    #[test]
    fn clean_instance_yields_clean_report() {
        let s = schema();
        let mut inst = RelationInstance::new(Arc::clone(&s));
        inst.insert_values([
            Value::int(44),
            Value::int(131),
            Value::int(1),
            Value::str("Mayfield"),
            Value::str("EDI"),
            Value::str("EH4"),
        ])
        .unwrap();
        let report = DetectionEngine::new().detect_cfd_violations(&inst, &paper_cfds(&s));
        assert!(report.is_clean());
        assert!(report.violating_tuples().is_empty());
    }

    #[test]
    fn incremental_detection_matches_full_detection_on_new_tuples() {
        let s = schema();
        let mut d = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        let baseline = engine.detect_cfd_violations(&d, &cfds);
        // Add a new tuple that collides with t1 on [CC, zip] but has another
        // street, creating a new pair violation of ϕ1.
        let new_id = d
            .insert_values([
                Value::int(44),
                Value::int(131),
                Value::int(9999999),
                Value::str("Lauriston"),
                Value::str("EDI"),
                Value::str("EH4 8LE"),
            ])
            .unwrap();
        let incr = engine.detect_cfd_violations_incremental(&d, &cfds, &[new_id]);
        let full = engine.detect_cfd_violations(&d, &cfds);
        // Every incremental violation involves the new tuple and appears in
        // the full report.
        for (i, v) in incr.iter() {
            assert!(v.tuples().contains(&new_id));
            assert!(full.of(i).contains(v));
        }
        // The number of new violations is the difference between full and
        // baseline counts.
        assert_eq!(incr.total(), full.total() - baseline.total());
        assert!(incr.total() >= 2); // at least the two new ϕ1 pairs
    }

    #[test]
    fn denial_detection_wrapper() {
        let s = schema();
        let d = d0(&s);
        let fd = crate::fd::Fd::new(&s, &["zip"], &["street"]);
        let dcs = DenialConstraint::from_fd(&fd);
        let report = DetectionEngine::new().detect_denial_violations(&d, &dcs);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].len(), 1); // t1, t2 share zip but differ on street
    }
}
