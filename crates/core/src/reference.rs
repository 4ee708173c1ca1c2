//! Row-at-a-time reference detectors and analysis procedures: the test
//! oracle for [`DetectionEngine`](crate::engine::DetectionEngine) and for
//! the solver behind [`crate::consistency`] and [`crate::implication`].
//!
//! The detectors are textbook loops over [`Tuple`]s and [`Value`]s — a fresh
//! `Vec<Value>`-keyed [`HashIndex`] per dependency per call, every pair of a
//! group enumerated, no dictionaries, no pooled indexes, no thread pool.
//! The analysis procedures are blind backtracking searches that test
//! satisfaction only at full depth, the pattern closure over `Value` maps
//! and the minimal-cover loop that clones the cover for every candidate.
//! Library code never calls them; the
//! equivalence suites, the harness and the criterion benches do, to hold
//! the engine and the solver byte-identical to the definitions of
//! Sections 2 and 4.
//!
//! One path is pinned by the repository benchmark: `dqbench` checks
//! `clean-master-20k` against [`detect_cfd_violations`] under its old names
//! `dq_core::detect_cfd_violations` and `dq_core::detect::detect_cfd_violations`,
//! so both stay as re-exports of this module's function until a benchmark
//! change points that oracle here.

use crate::cfd::{Cfd, CfdViolation};
use crate::cind::{Cind, CindViolation};
use crate::consistency::{pattern_attributes, tuple_satisfies, ConsistencyResult};
use crate::denial::{DcTerm, DenialConstraint};
use crate::detect::{CfdViolationReport, CindViolationReport, EcfdViolationReport};
use crate::ecfd::{Ecfd, EcfdViolation, SetPattern};
use crate::implication::{pair_ok, pair_violates_part, single_tuple_ok};
use crate::ind::Ind;
use crate::pattern::PatternValue;
use dq_relation::reference::HashIndex;
use dq_relation::{Database, DqResult, RelationInstance, RelationSchema, Tuple, TupleId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Detects all violations of `cfds` in `instance`, one fresh index per CFD.
pub fn detect_cfd_violations(instance: &RelationInstance, cfds: &[Cfd]) -> CfdViolationReport {
    CfdViolationReport::from_per_dependency(
        cfds.iter().map(|c| cfd_violations(c, instance)).collect(),
    )
}

/// All violations of `cfd` in `instance`, in canonical (sorted) order.
///
/// The two-pass strategy of \[36\]: a scan finds single-tuple violations of
/// constant RHS patterns, and a hash partitioning on `X` finds the pairs
/// that agree on `X`, match a pattern and disagree on `Y`.
pub fn cfd_violations(cfd: &Cfd, instance: &RelationInstance) -> Vec<CfdViolation> {
    let index = HashIndex::build(instance, cfd.lhs());
    let mut out = Vec::new();
    // Pass 1: single-tuple (constant) violations.
    for (pattern_idx, tp) in cfd.tableau().iter().enumerate() {
        if tp.rhs.iter().all(|p| p.is_any()) {
            continue;
        }
        for (id, tuple) in instance.iter() {
            if tp.lhs_matches(tuple, cfd.lhs()) && !tp.rhs_matches(tuple, cfd.rhs()) {
                out.push(CfdViolation::SingleTuple {
                    pattern: pattern_idx,
                    tuple: id,
                });
            }
        }
    }
    // Pass 2: tuple-pair (variable) violations.  Within a group a pair
    // violates iff the two tuples differ on Y, so each group is partitioned
    // by its Y-projection and only cross-partition pairs are enumerated.
    let mut by_rhs: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (key, group) in index.multi_groups() {
        let matching_patterns: Vec<usize> = cfd
            .tableau()
            .iter()
            .enumerate()
            .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
            .map(|(i, _)| i)
            .collect();
        if matching_patterns.is_empty() {
            continue;
        }
        by_rhs.clear();
        for &id in group {
            let tuple = instance.tuple(id).expect("live tuple");
            by_rhs.entry(tuple.project(cfd.rhs())).or_default().push(id);
        }
        for_each_cross_pair(&by_rhs, |first, second| {
            for &p in &matching_patterns {
                out.push(CfdViolation::TuplePair {
                    pattern: p,
                    first,
                    second,
                });
            }
        });
    }
    // Canonical order: hash-map group iteration is nondeterministic.
    out.sort_unstable();
    out
}

/// Calls `f` on every pair of ids from two different partitions, smaller
/// id first.
fn for_each_cross_pair(
    partitions: &HashMap<Vec<Value>, Vec<TupleId>>,
    mut f: impl FnMut(TupleId, TupleId),
) {
    let parts: Vec<&Vec<TupleId>> = partitions.values().collect();
    for (i, first_part) in parts.iter().enumerate() {
        for second_part in &parts[i + 1..] {
            for &a in *first_part {
                for &b in *second_part {
                    if a < b {
                        f(a, b)
                    } else {
                        f(b, a)
                    }
                }
            }
        }
    }
}

/// Incremental detection: assuming `instance` minus the tuples in `added`
/// was already checked, the violations involving at least one tuple of
/// `added`.  Constant violations are checked on the added tuples alone;
/// variable ones by probing a fresh index on the CFD's LHS with the added
/// tuples' keys.
pub fn detect_cfd_violations_incremental(
    instance: &RelationInstance,
    cfds: &[Cfd],
    added: &[TupleId],
) -> CfdViolationReport {
    CfdViolationReport::from_per_dependency(
        cfds.iter()
            .map(|cfd| cfd_violations_involving(cfd, instance, added))
            .collect(),
    )
}

/// The violations of `cfd` in `instance` involving a tuple of `added`,
/// sorted and deduplicated.
fn cfd_violations_involving(
    cfd: &Cfd,
    instance: &RelationInstance,
    added: &[TupleId],
) -> Vec<CfdViolation> {
    let index = HashIndex::build(instance, cfd.lhs());
    let mut violations = Vec::new();
    for (pattern_idx, tp) in cfd.tableau().iter().enumerate() {
        if tp.rhs.iter().all(|p| p.is_any()) {
            continue;
        }
        for &id in added {
            if let Some(tuple) = instance.tuple(id) {
                if tp.lhs_matches(tuple, cfd.lhs()) && !tp.rhs_matches(tuple, cfd.rhs()) {
                    violations.push(CfdViolation::SingleTuple {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
    }
    let mut seen_pairs: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
    for &id in added {
        let Some(tuple) = instance.tuple(id) else {
            continue;
        };
        let key = tuple.project(cfd.lhs());
        let matching_patterns: Vec<usize> = cfd
            .tableau()
            .iter()
            .enumerate()
            .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
            .map(|(i, _)| i)
            .collect();
        if matching_patterns.is_empty() {
            continue;
        }
        for &other in index.get(&key) {
            if other == id {
                continue;
            }
            // Each unordered pair once; pairs entirely inside the old data
            // never reach this loop because `id` is added.
            let pair = if other < id { (other, id) } else { (id, other) };
            if !seen_pairs.insert(pair) {
                continue;
            }
            let a = instance.tuple(pair.0).expect("live tuple");
            let b = instance.tuple(pair.1).expect("live tuple");
            if !a.agree_on(b, cfd.rhs()) {
                for &p in &matching_patterns {
                    violations.push(CfdViolation::TuplePair {
                        pattern: p,
                        first: pair.0,
                        second: pair.1,
                    });
                }
            }
        }
    }
    violations.sort();
    violations.dedup();
    violations
}

/// Detects all violations of `ecfds` in `instance`.
pub fn detect_ecfd_violations(instance: &RelationInstance, ecfds: &[Ecfd]) -> EcfdViolationReport {
    EcfdViolationReport::from_per_dependency(
        ecfds.iter().map(|e| ecfd_violations(e, instance)).collect(),
    )
}

/// All violations of `ecfd` in `instance`, in canonical (sorted) order:
/// CFD detection's two passes with the generalized match operator.
///
/// Following \[19\], the pair (equality) requirement applies only to RHS
/// positions carrying `_`; a set entry is a per-tuple domain restriction,
/// checked in the single-tuple pass, and does not force two matching tuples
/// to agree.
pub fn ecfd_violations(ecfd: &Ecfd, instance: &RelationInstance) -> Vec<EcfdViolation> {
    let index = HashIndex::build(instance, ecfd.lhs());
    let matches = |patterns: &[SetPattern], attrs: &[usize], tuple: &Tuple| {
        patterns
            .iter()
            .zip(attrs)
            .all(|(p, &a)| p.matches(tuple.get(a)))
    };
    let mut out = Vec::new();
    for (pattern_idx, tp) in ecfd.tableau().iter().enumerate() {
        if tp.rhs.iter().all(|p| matches!(p, SetPattern::Any)) {
            continue;
        }
        for (id, tuple) in instance.iter() {
            if matches(&tp.lhs, ecfd.lhs(), tuple) && !matches(&tp.rhs, ecfd.rhs(), tuple) {
                out.push(EcfdViolation::SingleTuple {
                    pattern: pattern_idx,
                    tuple: id,
                });
            }
        }
    }
    let mut by_proj: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (key, group) in index.multi_groups() {
        for (pattern_idx, tp) in ecfd.tableau().iter().enumerate() {
            if !tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)) {
                continue;
            }
            let equality_attrs: Vec<usize> = tp
                .rhs
                .iter()
                .zip(ecfd.rhs())
                .filter(|(p, _)| matches!(p, SetPattern::Any))
                .map(|(_, &a)| a)
                .collect();
            if equality_attrs.is_empty() {
                continue;
            }
            by_proj.clear();
            for &id in group {
                let tuple = instance.tuple(id).expect("live tuple");
                by_proj
                    .entry(tuple.project(&equality_attrs))
                    .or_default()
                    .push(id);
            }
            for_each_cross_pair(&by_proj, |first, second| {
                out.push(EcfdViolation::TuplePair {
                    pattern: pattern_idx,
                    first,
                    second,
                });
            });
        }
    }
    out.sort_unstable();
    out
}

/// The tuples of `ind`'s LHS relation whose `X`-projection is no RHS
/// tuple's `Y`-projection, ascending.  With `ignore_nulls`, LHS tuples
/// carrying `NULL` in any `X` position are exempt (SQL's foreign-key
/// semantics); without it such a projection matches no RHS tuple.
pub fn ind_violations(ind: &Ind, db: &Database, ignore_nulls: bool) -> DqResult<Vec<TupleId>> {
    let lhs = db.require_relation(ind.lhs_relation())?;
    let rhs = db.require_relation(ind.rhs_relation())?;
    let index = HashIndex::build(rhs, ind.rhs_attrs());
    let mut out = Vec::new();
    for (id, tuple) in lhs.iter() {
        if ignore_nulls && ind.lhs_attrs().iter().any(|&a| tuple.get(a).is_null()) {
            continue;
        }
        if !index.contains_key(&tuple.project(ind.lhs_attrs())) {
            out.push(id);
        }
    }
    Ok(out)
}

/// Detects all violations of `cinds` in `db`.
pub fn detect_cind_violations(db: &Database, cinds: &[Cind]) -> DqResult<CindViolationReport> {
    let per_dependency = cinds
        .iter()
        .map(|c| cind_violations(c, db))
        .collect::<DqResult<Vec<_>>>()?;
    Ok(CindViolationReport::from_per_dependency(per_dependency))
}

/// The LHS tuples violating `cind`, pattern by pattern in tuple order:
/// tuples matching a pattern's `Xp` constants with no RHS tuple matching
/// both the correspondence and the pattern's `Yp` constants.
pub fn cind_violations(cind: &Cind, db: &Database) -> DqResult<Vec<CindViolation>> {
    let lhs = db.require_relation(cind.lhs_schema().name())?;
    let rhs = db.require_relation(cind.rhs_schema().name())?;
    let index = HashIndex::build(rhs, &cind.rhs_probe_attrs());
    let mut out = Vec::new();
    for (pattern_idx, tp) in cind.tableau().iter().enumerate() {
        for (id, tuple) in lhs.iter() {
            let applies = cind
                .lhs_pattern_attrs()
                .iter()
                .zip(&tp.lhs)
                .all(|(&a, v)| tuple.get(a) == v);
            if !applies {
                continue;
            }
            let mut key = tuple.project(cind.lhs_attrs());
            key.extend(tp.rhs.iter().cloned());
            if !index.contains_key(&key) {
                out.push(CindViolation {
                    pattern: pattern_idx,
                    tuple: id,
                });
            }
        }
    }
    Ok(out)
}

/// Detects all violations of a set of denial constraints in `instance`:
/// per constraint, the violating tuple combinations.
pub fn detect_denial_violations(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> Vec<Vec<Vec<TupleId>>> {
    constraints
        .iter()
        .map(|d| denial_violations(d, instance))
        .collect()
}

/// The combinations of tuples satisfying every predicate of `dc`, ascending:
/// each tuple for one variable; for two, each pair of distinct tuples
/// evaluated in the order whose first tuple id is smaller.
///
/// # Panics
/// Panics on a constraint with other than one or two tuple variables.
pub fn denial_violations(dc: &DenialConstraint, instance: &RelationInstance) -> Vec<Vec<TupleId>> {
    fn value<'a>(term: &'a DcTerm, tuples: &[&'a Tuple]) -> &'a Value {
        match term {
            DcTerm::Attr { var, attr } => tuples[*var].get(*attr),
            DcTerm::Const(v) => v,
        }
    }
    let holds = |tuples: &[&Tuple]| {
        dc.predicates
            .iter()
            .all(|p| p.op.eval(value(&p.left, tuples), value(&p.right, tuples)))
    };
    let entries: Vec<(TupleId, &Tuple)> = instance.iter().collect();
    let mut out = Vec::new();
    match dc.vars {
        1 => {
            for &(id, t) in &entries {
                if holds(&[t]) {
                    out.push(vec![id]);
                }
            }
        }
        2 => {
            for &(id1, t1) in &entries {
                for &(id2, t2) in &entries {
                    if id1 < id2 && holds(&[t1, t2]) {
                        out.push(vec![id1, id2]);
                    }
                }
            }
        }
        n => panic!("denial constraints with {n} tuple variables are not supported"),
    }
    out
}

/// Exact CFD consistency by blind backtracking over the witness-tuple
/// characterization: the set is consistent iff one tuple satisfies every
/// pattern constraint.  The search assigns the attributes occurring in the
/// dependencies from the finite candidate sets of Section 4.1 (the whole
/// domain of a finite-domain attribute, the mentioned constants plus a
/// fresh value otherwise), testing satisfaction only at full depth; the
/// other attributes keep fresh values.
pub fn cfd_set_consistent(cfds: &[Cfd]) -> ConsistencyResult {
    use crate::consistency::{candidate_values, mentioned_constants};
    let Some(first) = cfds.first() else {
        return ConsistencyResult::trivially_consistent();
    };
    let schema = Arc::clone(first.schema());
    let mentioned = mentioned_constants(&schema, cfds);
    let attrs = pattern_attributes(&schema, cfds);
    let candidates: BTreeMap<usize, Vec<Value>> = attrs
        .iter()
        .map(|&a| (a, candidate_values(&schema, a, &mentioned[a])))
        .collect();
    let mut values: Vec<Value> = (0..schema.arity())
        .map(|a| {
            schema
                .domain(a)
                .fresh_value(&mentioned[a])
                .unwrap_or_else(|| schema.domain(a).enumerate().expect("finite domain")[0].clone())
        })
        .collect();

    fn search(
        cfds: &[Cfd],
        attrs: &[usize],
        candidates: &BTreeMap<usize, Vec<Value>>,
        values: &mut Vec<Value>,
        depth: usize,
    ) -> Option<Tuple> {
        if depth == attrs.len() {
            let t = Tuple::new(values.clone());
            return tuple_satisfies(cfds, &t).then_some(t);
        }
        let attr = attrs[depth];
        for candidate in &candidates[&attr] {
            values[attr] = candidate.clone();
            if let Some(t) = search(cfds, attrs, candidates, values, depth + 1) {
                return Some(t);
            }
        }
        None
    }

    match search(cfds, &attrs, &candidates, &mut values, 0) {
        Some(witness) => ConsistencyResult::consistent_with(witness),
        None => ConsistencyResult::inconsistent(),
    }
}

/// Exact CFD implication by blind backtracking: `Σ ⊨ ϕ` iff no instance of
/// at most two tuples satisfies `Σ` and violates `ϕ` (a violation involves
/// at most two tuples).  Per normalized fragment of `ϕ`, the search assigns
/// a shared value to each LHS attribute and per-tuple values to every other
/// attribute `Σ` or `ϕ` mentions, testing the `Σ`-satisfaction and
/// `ϕ`-violation closures only at full depth.
pub fn cfd_implies_exact(sigma: &[Cfd], phi: &Cfd) -> bool {
    let schema = Arc::clone(phi.schema());
    phi.normalize()
        .iter()
        .all(|part| !counterexample_exists(sigma, part, &schema))
}

/// A search variable of [`counterexample_exists`]: a value both tuples
/// share, or one tuple's own value, for an attribute.
#[derive(Clone, Copy)]
enum Var {
    Shared(usize),
    T1(usize),
    T2(usize),
}

/// Is there a pair of tuples satisfying `sigma` and violating the
/// normalized fragment `phi`?
fn counterexample_exists(sigma: &[Cfd], phi: &Cfd, schema: &Arc<RelationSchema>) -> bool {
    use crate::implication::{candidate_values, mentioned_constants};
    let mentioned = mentioned_constants(schema, sigma, Some(phi));
    let mut relevant = vec![false; schema.arity()];
    for cfd in sigma.iter().chain(std::iter::once(phi)) {
        for &a in cfd.lhs().iter().chain(cfd.rhs()) {
            relevant[a] = true;
        }
    }
    let mut vars: Vec<Var> = phi.lhs().iter().map(|&a| Var::Shared(a)).collect();
    for a in (0..schema.arity()).filter(|&a| relevant[a] && !phi.lhs().contains(&a)) {
        vars.push(Var::T1(a));
        vars.push(Var::T2(a));
    }
    // Base tuples: fresh values everywhere, distinct between t1 and t2
    // where possible, so unconstrained attributes never collide by accident.
    let mut t1: Vec<Value> = Vec::with_capacity(schema.arity());
    let mut t2: Vec<Value> = Vec::with_capacity(schema.arity());
    for (a, mentioned_a) in mentioned.iter().enumerate() {
        let candidates = candidate_values(schema, a, mentioned_a);
        let v1 = candidates.last().cloned().unwrap_or(Value::Null);
        let v2 = candidates
            .get(candidates.len().saturating_sub(2))
            .cloned()
            .unwrap_or_else(|| v1.clone());
        t1.push(v1);
        t2.push(v2);
    }

    struct Search<'a> {
        sigma: &'a [Cfd],
        phi: &'a Cfd,
        schema: &'a RelationSchema,
        mentioned: &'a [Vec<Value>],
        vars: &'a [Var],
    }

    impl Search<'_> {
        fn run(&self, t1: &mut Vec<Value>, t2: &mut Vec<Value>, depth: usize) -> bool {
            let Some(&var) = self.vars.get(depth) else {
                let (a, b) = (Tuple::new(t1.clone()), Tuple::new(t2.clone()));
                return single_tuple_ok(self.sigma, &a)
                    && single_tuple_ok(self.sigma, &b)
                    && pair_ok(self.sigma, &a, &b)
                    && pair_violates_part(self.phi, &a, &b);
            };
            let (Var::Shared(attr) | Var::T1(attr) | Var::T2(attr)) = var;
            let candidates =
                crate::implication::candidate_values(self.schema, attr, &self.mentioned[attr]);
            for candidate in candidates {
                match var {
                    Var::Shared(_) => {
                        t1[attr] = candidate.clone();
                        t2[attr] = candidate;
                    }
                    Var::T1(_) => t1[attr] = candidate,
                    Var::T2(_) => t2[attr] = candidate,
                }
                if self.run(t1, t2, depth + 1) {
                    return true;
                }
            }
            false
        }
    }

    Search {
        sigma,
        phi,
        schema,
        mentioned: &mentioned,
        vars: &vars,
    }
    .run(&mut t1, &mut t2, 0)
}

/// The closure entry for an attribute during [`cfd_implies_closure`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum ClosureVal {
    /// The pair of hypothetical tuples agree on this attribute, value unknown.
    Equal,
    /// The pair agree on this attribute and the shared value is this constant.
    Const(Value),
}

/// The quadratic pattern closure over `Value`s in a map, re-normalizing `Σ`
/// on every call: the oracle of the compiled
/// [`crate::implication::cfd_implies_closure`].  Sound for all CFD sets and
/// complete when no attribute involved has a finite domain (Theorem 4.3).
pub fn cfd_implies_closure(sigma: &[Cfd], phi: &Cfd) -> bool {
    // An inconsistent Σ implies everything; the closure below reasons only
    // from ϕ's premise and would miss conflicts that are unconditional (e.g.
    // two all-wildcard rules forcing different constants on one attribute),
    // so the global consistency check comes first.
    if !crate::consistency::cfd_set_consistent_propagation(sigma) {
        return true;
    }
    let normalized_sigma: Vec<Cfd> = sigma.iter().flat_map(|c| c.normalize()).collect();
    for part in phi.normalize() {
        let tp = &part.tableau()[0];
        let b = part.rhs()[0];
        // Equal: the pair agrees on the attribute; Const: it agrees and the
        // shared value is that constant, which also holds for each tuple on
        // its own ("single-tuple mode" below).
        let mut closure: BTreeMap<usize, ClosureVal> = BTreeMap::new();
        for (&a, p) in part.lhs().iter().zip(&tp.lhs) {
            let entry = match p {
                PatternValue::Any => ClosureVal::Equal,
                PatternValue::Const(c) => ClosureVal::Const(c.clone()),
            };
            closure.insert(a, entry);
        }
        let mut vacuous = false;
        loop {
            let mut changed = false;
            for psi in &normalized_sigma {
                let ptp = &psi.tableau()[0];
                // Pair mode: every LHS attribute is known to be shared, and
                // every LHS constant is the known shared value.
                let fires_pair =
                    psi.lhs()
                        .iter()
                        .zip(&ptp.lhs)
                        .all(|(&a, p)| match (closure.get(&a), p) {
                            (None, _) => false,
                            (Some(_), PatternValue::Any) => true,
                            (Some(ClosureVal::Const(v)), PatternValue::Const(c)) => v == c,
                            (Some(ClosureVal::Equal), PatternValue::Const(_)) => false,
                        });
                // Single-tuple mode: only the constant LHS entries need to be
                // known (wildcards match any single tuple trivially).
                let fires_single = psi.lhs().iter().zip(&ptp.lhs).all(|(&a, p)| match p {
                    PatternValue::Any => true,
                    PatternValue::Const(c) => {
                        matches!(closure.get(&a), Some(ClosureVal::Const(v)) if v == c)
                    }
                });
                if !fires_pair && !fires_single {
                    continue;
                }
                let rb = psi.rhs()[0];
                let incoming = match &ptp.rhs[0] {
                    PatternValue::Any if fires_pair => Some(ClosureVal::Equal),
                    PatternValue::Any => None, // single-tuple mode forces nothing
                    PatternValue::Const(c) => Some(ClosureVal::Const(c.clone())),
                };
                let Some(incoming) = incoming else { continue };
                match (closure.get(&rb), &incoming) {
                    (None, _) => {
                        closure.insert(rb, incoming);
                        changed = true;
                    }
                    (Some(ClosureVal::Equal), ClosureVal::Const(_)) => {
                        closure.insert(rb, incoming);
                        changed = true;
                    }
                    (Some(ClosureVal::Const(v)), ClosureVal::Const(c)) if v != c => {
                        vacuous = true;
                    }
                    _ => {}
                }
            }
            if vacuous || !changed {
                break;
            }
        }
        if vacuous {
            continue;
        }
        let implied = match (&tp.rhs[0], closure.get(&b)) {
            (_, None) => false,
            (PatternValue::Any, Some(_)) => true,
            (PatternValue::Const(c), Some(ClosureVal::Const(v))) => v == c,
            (PatternValue::Const(_), Some(ClosureVal::Equal)) => false,
        };
        if !implied {
            return false;
        }
    }
    true
}

/// The greedy minimal cover that clones the remaining cover for every
/// candidate and decides implication from scratch: the oracle of the
/// masked pass in [`crate::implication::cfd_minimal_cover`], over the same
/// canonical candidate order.  Each test is this module's
/// [`cfd_implies_closure`], then — when the closure is incomplete because
/// a finite-domain attribute is involved — the solver's exact check.
pub fn cfd_minimal_cover(sigma: &[Cfd]) -> Vec<Cfd> {
    let mut cover = crate::implication::canonical_fragments(sigma);
    let mut i = 0;
    while i < cover.len() {
        let candidate = cover[i].clone();
        let mut rest = cover.clone();
        rest.remove(i);
        let schema = candidate.schema();
        let finite_involved = rest
            .iter()
            .chain(std::iter::once(&candidate))
            .flat_map(|c| c.lhs().iter().chain(c.rhs()))
            .any(|&a| schema.domain(a).is_finite());
        if cfd_implies_closure(&rest, &candidate)
            || (finite_involved && crate::implication::cfd_implies_exact(&rest, &candidate))
        {
            cover.remove(i);
        } else {
            i += 1;
        }
    }
    cover
}
