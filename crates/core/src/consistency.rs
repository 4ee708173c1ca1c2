//! Consistency analysis of conditional dependencies (Section 4.1).
//!
//! Unlike traditional FDs and INDs, a set of CFDs may be *inconsistent*: no
//! nonempty instance satisfies it (Example 4.1).  The consistency problem is
//! NP-complete for CFDs, trivial (O(1)) for CINDs, and undecidable for CFDs
//! and CINDs taken together (Theorem 4.1); in the absence of finite-domain
//! attributes it drops to quadratic time for CFDs (Theorem 4.3).
//!
//! This module implements:
//!
//! * [`cfd_set_consistent`] — the exact decision procedure, delegating to the
//!   propagation-guided solver in [`crate::analysis`] (sound quadratic first
//!   pass, then a DPLL-style search over packed candidate ids);
//! * [`cfd_set_consistent_propagation`] — the quadratic fixpoint propagation
//!   that is sound in general and complete when no pattern attribute ranges
//!   over a finite domain;
//! * [`ecfd_set_consistent`] — the analogous procedure for eCFDs (which can
//!   force finite ranges even over infinite domains, Section 4.1);
//! * [`cind_set_consistent`] — constantly `true`, with a witness constructed
//!   by a bounded chase;
//! * [`cfd_cind_consistent_bounded`] — the bounded-chase *heuristic* for CFDs
//!   and CINDs taken together (the exact problem being undecidable).
//!
//! The blind backtracking search the solver is property-asserted against is
//! [`crate::reference::cfd_set_consistent`].

use crate::analysis::AnalysisStats;
use crate::cfd::Cfd;
use crate::cind::Cind;
use crate::ecfd::Ecfd;
use crate::engine::DetectionEngine;
use crate::pattern::PatternValue;
use dq_relation::{Database, RelationInstance, RelationSchema, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A satisfying witness produced by a consistency check: a single tuple for
/// one-relation dependency classes (CFDs, eCFDs), a database for
/// multi-relation ones (CINDs).
#[derive(Clone, Debug)]
pub enum ConsistencyWitness {
    /// A single tuple whose one-tuple instance satisfies the set.
    Tuple(Tuple),
    /// A database satisfying the set (built by the bounded chase).
    Database(Database),
}

/// Result of a consistency check — the one result struct shared by every
/// consistency entry point (CFD, eCFD, CIND): verdict, optional witness, and
/// the solver statistics that produced it.
#[derive(Clone, Debug)]
pub struct ConsistencyResult {
    /// Is the dependency set consistent (satisfiable by a nonempty instance)?
    pub consistent: bool,
    /// A witness when consistent and one was constructed.
    pub witness: Option<ConsistencyWitness>,
    /// Search statistics (all zero for the trivial and naive procedures).
    pub stats: AnalysisStats,
}

impl ConsistencyResult {
    pub(crate) fn inconsistent() -> Self {
        ConsistencyResult {
            consistent: false,
            witness: None,
            stats: AnalysisStats::default(),
        }
    }

    pub(crate) fn consistent_with(witness: Tuple) -> Self {
        ConsistencyResult {
            consistent: true,
            witness: Some(ConsistencyWitness::Tuple(witness)),
            stats: AnalysisStats::default(),
        }
    }

    pub(crate) fn trivially_consistent() -> Self {
        ConsistencyResult {
            consistent: true,
            witness: None,
            stats: AnalysisStats::default(),
        }
    }

    pub(crate) fn with_stats(mut self, stats: AnalysisStats) -> Self {
        self.stats = stats;
        self
    }

    /// The witness tuple, when the witness is a single tuple.
    pub fn witness_tuple(&self) -> Option<&Tuple> {
        match &self.witness {
            Some(ConsistencyWitness::Tuple(t)) => Some(t),
            _ => None,
        }
    }

    /// The witness database, when the witness is a database.
    pub fn witness_database(&self) -> Option<&Database> {
        match &self.witness {
            Some(ConsistencyWitness::Database(db)) => Some(db),
            _ => None,
        }
    }
}

/// Candidate values for attribute `attr` when searching for a witness tuple:
/// for a finite domain, the whole domain; otherwise the constants mentioned
/// in the dependencies for that attribute plus one fresh constant.
pub(crate) fn candidate_values(
    schema: &RelationSchema,
    attr: usize,
    mentioned: &[Value],
) -> Vec<Value> {
    let domain = schema.domain(attr);
    if let Some(values) = domain.enumerate() {
        return values;
    }
    let mut candidates: Vec<Value> = mentioned.to_vec();
    candidates.sort();
    candidates.dedup();
    if let Some(fresh) = domain.fresh_value(&candidates) {
        candidates.push(fresh);
    }
    candidates
}

/// Constants mentioned by the (normalized) CFDs, per attribute.
pub(crate) fn mentioned_constants(schema: &RelationSchema, cfds: &[Cfd]) -> Vec<Vec<Value>> {
    let mut mentioned: Vec<Vec<Value>> = vec![Vec::new(); schema.arity()];
    for cfd in cfds {
        for tp in cfd.tableau() {
            for (p, &a) in tp
                .lhs
                .iter()
                .zip(cfd.lhs())
                .chain(tp.rhs.iter().zip(cfd.rhs()))
            {
                if let PatternValue::Const(v) = p {
                    mentioned[a].push(v.clone());
                }
            }
        }
    }
    mentioned
}

/// Attributes that occur in some pattern of the CFD set.
pub(crate) fn pattern_attributes(schema: &RelationSchema, cfds: &[Cfd]) -> Vec<usize> {
    let mut used = vec![false; schema.arity()];
    for cfd in cfds {
        for &a in cfd.lhs().iter().chain(cfd.rhs()) {
            used[a] = true;
        }
    }
    (0..schema.arity()).filter(|&a| used[a]).collect()
}

/// Does the single tuple `t` satisfy every CFD of `cfds` (as a one-tuple
/// instance)?  Only the constant-binding part of the semantics matters.
pub(crate) fn tuple_satisfies(cfds: &[Cfd], t: &Tuple) -> bool {
    cfds.iter().all(|cfd| {
        cfd.tableau()
            .iter()
            .all(|tp| !tp.lhs_matches(t, cfd.lhs()) || tp.rhs_matches(t, cfd.rhs()))
    })
}

/// Exact consistency check for a set of CFDs over one relation schema.
///
/// Delegates to the propagation-guided solver of [`crate::analysis`]: the
/// sound quadratic fixpoint runs first (and is complete without
/// finite-domain pattern attributes, Theorem 4.3), then a DPLL-style search
/// over packed candidate ids with unit propagation, partial-assignment
/// conflict rejection and most-constrained-attribute ordering decides the
/// finite-domain case.  The verdict is identical to
/// [`crate::reference::cfd_set_consistent`] on every input
/// (property-asserted in `tests/analysis_equivalence.rs`); the worst case
/// remains exponential — the NP-completeness of Theorem 4.1 — but pruning
/// collapses it on real rule sets.
pub fn cfd_set_consistent(cfds: &[Cfd]) -> ConsistencyResult {
    crate::analysis::solver::solve_cfd_consistency(cfds, 0)
}

/// The quadratic-time propagation check (Theorem 4.3): sound for every CFD
/// set, and complete when no attribute occurring in a pattern has a finite
/// domain.
///
/// The procedure looks for a single witness tuple by *forcing* constants: a
/// normalized CFD whose LHS pattern constants are all already forced (and
/// whose wildcard LHS attributes are unconstrained) must have its RHS
/// constant satisfied, so that constant is forced too.  Two distinct forced
/// constants for the same attribute mean no witness exists under those
/// forcings; with infinite domains the only unavoidable forcings are the ones
/// derived here, so a conflict-free fixpoint implies consistency.
pub fn cfd_set_consistent_propagation(cfds: &[Cfd]) -> bool {
    propagation_fixpoint(cfds).is_some()
}

/// The propagation fixpoint underlying [`cfd_set_consistent_propagation`]:
/// `None` on a forced-constant conflict (the set is inconsistent), otherwise
/// the map of forced constants — which the solver turns into a witness when
/// the fixpoint is complete (no finite-domain pattern attribute).
pub(crate) fn propagation_fixpoint(cfds: &[Cfd]) -> Option<BTreeMap<usize, Value>> {
    let normalized: Vec<Cfd> = cfds.iter().flat_map(|c| c.normalize()).collect();
    let Some(first) = normalized.first() else {
        return Some(BTreeMap::new());
    };
    let schema = Arc::clone(first.schema());
    let mut forced: BTreeMap<usize, Value> = BTreeMap::new();
    loop {
        let mut changed = false;
        for cfd in &normalized {
            let tp = &cfd.tableau()[0];
            // Does the hypothesis necessarily hold for the witness tuple we
            // are constructing?  A wildcard always matches; a constant
            // matches only if that constant has already been forced.
            let fires = tp.lhs.iter().zip(cfd.lhs()).all(|(p, &a)| match p {
                PatternValue::Any => true,
                PatternValue::Const(c) => forced.get(&a) == Some(c),
            });
            if !fires {
                continue;
            }
            let b = cfd.rhs()[0];
            match &tp.rhs[0] {
                PatternValue::Any => {}
                PatternValue::Const(c) => match forced.get(&b) {
                    Some(existing) if existing != c => return None,
                    Some(_) => {}
                    None => {
                        // Forcing a constant on a finite domain must stay
                        // inside the domain; constants were validated at
                        // construction so this always succeeds.
                        debug_assert!(schema.domain(b).contains(c));
                        forced.insert(b, c.clone());
                        changed = true;
                    }
                },
            }
        }
        if !changed {
            return Some(forced);
        }
    }
}

/// Consistency of an eCFD set, by witness-tuple search with the generalized
/// pattern semantics.  eCFDs can restrict an attribute to a finite set even
/// when its domain is infinite (Theorem 4.4), so the candidate sets always
/// include every mentioned constant plus a fresh value.
pub fn ecfd_set_consistent(ecfds: &[Ecfd]) -> ConsistencyResult {
    let Some(first) = ecfds.first() else {
        return ConsistencyResult::trivially_consistent();
    };
    let schema = Arc::clone(first.schema());
    let mut mentioned: Vec<Vec<Value>> = vec![Vec::new(); schema.arity()];
    let mut used = vec![false; schema.arity()];
    for e in ecfds {
        for &a in e.lhs().iter().chain(e.rhs()) {
            used[a] = true;
            mentioned[a].extend(e.constants_for(a));
        }
    }
    let attrs: Vec<usize> = (0..schema.arity()).filter(|&a| used[a]).collect();
    let candidates: BTreeMap<usize, Vec<Value>> = attrs
        .iter()
        .map(|&a| (a, candidate_values(&schema, a, &mentioned[a])))
        .collect();
    let mut base: Vec<Value> = (0..schema.arity())
        .map(|a| {
            schema
                .domain(a)
                .fresh_value(&mentioned[a])
                .unwrap_or_else(|| schema.domain(a).enumerate().expect("finite domain")[0].clone())
        })
        .collect();

    fn satisfies(ecfds: &[Ecfd], t: &Tuple) -> bool {
        ecfds.iter().all(|e| {
            e.tableau().iter().all(|tp| {
                let lhs_ok = tp
                    .lhs
                    .iter()
                    .zip(e.lhs())
                    .all(|(p, &a)| p.matches(t.get(a)));
                !lhs_ok
                    || tp
                        .rhs
                        .iter()
                        .zip(e.rhs())
                        .all(|(p, &a)| p.matches(t.get(a)))
            })
        })
    }

    fn search(
        ecfds: &[Ecfd],
        attrs: &[usize],
        candidates: &BTreeMap<usize, Vec<Value>>,
        values: &mut Vec<Value>,
        depth: usize,
    ) -> Option<Tuple> {
        if depth == attrs.len() {
            let t = Tuple::new(values.clone());
            return satisfies(ecfds, &t).then_some(t);
        }
        let attr = attrs[depth];
        for candidate in &candidates[&attr] {
            values[attr] = candidate.clone();
            if let Some(t) = search(ecfds, attrs, candidates, values, depth + 1) {
                return Some(t);
            }
        }
        None
    }

    match search(ecfds, &attrs, &candidates, &mut base, 0) {
        Some(w) => ConsistencyResult::consistent_with(w),
        None => ConsistencyResult::inconsistent(),
    }
}

/// Consistency of a CIND set.  Per Theorem 4.1 this is O(1): any set of
/// CINDs is satisfiable by a nonempty database.  For convenience the function
/// also constructs a small witness database by chasing a single seed tuple.
pub fn cind_set_consistent(cinds: &[Cind]) -> ConsistencyResult {
    let Some(first) = cinds.first() else {
        return ConsistencyResult::trivially_consistent();
    };
    // Seed: one tuple in the LHS relation of the first CIND, with pattern
    // constants where required and fresh values elsewhere, then chase.
    let mut db = Database::new();
    let seed_schema = Arc::clone(first.lhs_schema());
    let mut seed_values: Vec<Value> = (0..seed_schema.arity())
        .map(|a| {
            seed_schema
                .domain(a)
                .fresh_value(&[])
                .unwrap_or_else(|| seed_schema.domain(a).enumerate().expect("finite")[0].clone())
        })
        .collect();
    if let Some(tp) = first.tableau().first() {
        for (&a, v) in first.lhs_pattern_attrs().iter().zip(&tp.lhs) {
            seed_values[a] = v.clone();
        }
    }
    let mut seed = RelationInstance::new(Arc::clone(&seed_schema));
    seed.insert(Tuple::new(seed_values))
        .expect("seed tuple in domains");
    db.add_relation(seed);
    // Register empty instances for every other schema mentioned.
    for cind in cinds {
        for schema in [cind.lhs_schema(), cind.rhs_schema()] {
            if db.relation(schema.name()).is_none() {
                db.add_relation(RelationInstance::new(Arc::clone(schema)));
            }
        }
    }
    let satisfied = chase_cinds(&mut db, cinds, 10_000);
    ConsistencyResult {
        consistent: true,
        witness: satisfied.then_some(ConsistencyWitness::Database(db)),
        stats: AnalysisStats::default(),
    }
}

/// Applies the CIND chase to `db` until it satisfies every CIND or the step
/// bound is exhausted.  Returns whether a fixpoint (satisfying database) was
/// reached.  Each chase step adds the "missing" RHS tuple demanded by a
/// violated CIND, with fresh values for unconstrained attributes.  One
/// engine serves the whole chase, so each step extends the pooled probe
/// indexes by the appended tuple instead of rebuilding them.
pub fn chase_cinds(db: &mut Database, cinds: &[Cind], max_steps: usize) -> bool {
    let engine = DetectionEngine::new();
    for _ in 0..max_steps {
        let mut fired = false;
        for cind in cinds {
            let Ok(report) = engine.detect_cind_violations(db, std::slice::from_ref(cind)) else {
                return false;
            };
            let Some(&v) = report.of(0).first() else {
                continue;
            };
            let lhs = db
                .relation(cind.lhs_schema().name())
                .expect("lhs relation present");
            let tuple = lhs.tuple(v.tuple).expect("violating tuple").clone();
            let pattern = &cind.tableau()[v.pattern];
            let rhs_schema = Arc::clone(cind.rhs_schema());
            let mut values: Vec<Value> = (0..rhs_schema.arity())
                .map(|a| {
                    rhs_schema.domain(a).fresh_value(&[]).unwrap_or_else(|| {
                        rhs_schema.domain(a).enumerate().expect("finite")[0].clone()
                    })
                })
                .collect();
            for (&y, &x) in cind.rhs_attrs().iter().zip(cind.lhs_attrs()) {
                values[y] = tuple.get(x).clone();
            }
            for (&yp, v) in cind.rhs_pattern_attrs().iter().zip(&pattern.rhs) {
                values[yp] = v.clone();
            }
            if db.relation(rhs_schema.name()).is_none() {
                db.add_relation(RelationInstance::new(Arc::clone(&rhs_schema)));
            }
            let target = db.relation_mut(rhs_schema.name()).expect("target relation");
            if target.insert(Tuple::new(values)).is_err() {
                return false;
            }
            fired = true;
            break;
        }
        if !fired {
            return true;
        }
    }
    false
}

/// Bounded heuristic for the (undecidable) consistency of CFDs and CINDs
/// taken together: starting from a CFD witness tuple, chase the CINDs and
/// re-check the CFDs on the resulting database.  Returns `Some(true)` when a
/// consistent witness database was built, `Some(false)` when the CFDs alone
/// are already inconsistent, and `None` when the bound was exhausted without
/// a verdict (the undecidability of Theorem 4.1 manifesting as
/// non-termination of the chase).
pub fn cfd_cind_consistent_bounded(cfds: &[Cfd], cinds: &[Cind], max_steps: usize) -> Option<bool> {
    let cfd_result = cfd_set_consistent(cfds);
    if !cfd_result.consistent {
        return Some(false);
    }
    let Some(first) = cfds.first() else {
        // No CFDs: CINDs alone are always consistent.
        return Some(true);
    };
    let mut db = Database::new();
    let schema = Arc::clone(first.schema());
    let mut seed = RelationInstance::new(Arc::clone(&schema));
    if let Some(w) = cfd_result.witness_tuple() {
        seed.insert(w.clone()).expect("witness tuple in domains");
    }
    db.add_relation(seed);
    for cind in cinds {
        for s in [cind.lhs_schema(), cind.rhs_schema()] {
            if db.relation(s.name()).is_none() {
                db.add_relation(RelationInstance::new(Arc::clone(s)));
            }
        }
    }
    if !chase_cinds(&mut db, cinds, max_steps) {
        return None;
    }
    // The chase may have introduced tuples violating the CFDs; re-check.
    let relation = db.relation(schema.name()).expect("seed relation");
    let report = DetectionEngine::new().detect_cfd_violations(relation, cfds);
    if report.is_clean() {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecfd::SetPattern;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::Domain;

    fn bool_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Bool), ("B", Domain::Text)],
        ))
    }

    /// Example 4.1: ψ1 = ([A] → [B], {(true ‖ b1), (false ‖ b2)}),
    /// ψ2 = ([B] → [A], {(b1 ‖ false), (b2 ‖ true)}).
    fn example_4_1() -> Vec<Cfd> {
        let s = bool_schema();
        vec![
            Cfd::new(
                &s,
                &["A"],
                &["B"],
                vec![
                    PatternTuple::new(vec![cst(true)], vec![cst("b1")]),
                    PatternTuple::new(vec![cst(false)], vec![cst("b2")]),
                ],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["B"],
                &["A"],
                vec![
                    PatternTuple::new(vec![cst("b1")], vec![cst(false)]),
                    PatternTuple::new(vec![cst("b2")], vec![cst(true)]),
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn example_4_1_is_inconsistent() {
        let result = cfd_set_consistent(&example_4_1());
        assert!(!result.consistent);
        assert!(result.witness.is_none());
        let naive = crate::reference::cfd_set_consistent(&example_4_1());
        assert!(!naive.consistent);
        assert!(naive.witness.is_none());
    }

    #[test]
    fn example_4_1_fools_the_propagation_check() {
        // The quadratic fixpoint is incomplete in the presence of finite
        // domains: it reports "consistent" here, exactly the gap that makes
        // the general problem NP-complete.
        assert!(cfd_set_consistent_propagation(&example_4_1()));
    }

    #[test]
    fn consistent_cfds_yield_a_witness() {
        let s = Arc::new(RelationSchema::new(
            "customer",
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("city", Domain::Text),
            ],
        ));
        let cfds = vec![
            Cfd::new(
                &s,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::new(vec![cst(44), cst(131)], vec![cst("EDI")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["CC"],
                &["city"],
                vec![PatternTuple::new(vec![cst(1)], vec![cst("NYC")])],
            )
            .unwrap(),
        ];
        let result = cfd_set_consistent(&cfds);
        assert!(result.consistent);
        let witness = result.witness_tuple().expect("witness tuple");
        assert!(tuple_satisfies(&cfds, witness));
        let naive = crate::reference::cfd_set_consistent(&cfds);
        assert!(naive.consistent);
        assert!(tuple_satisfies(&cfds, naive.witness_tuple().unwrap()));
        assert!(cfd_set_consistent_propagation(&cfds));
    }

    #[test]
    fn conflicting_constant_cfds_without_finite_domains_are_caught_by_propagation() {
        // ([] ≅ all-wildcard LHS) forces city = EDI and city = NYC at once.
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("city", Domain::Text)],
        ));
        let cfds = vec![
            Cfd::new(
                &s,
                &["A"],
                &["city"],
                vec![PatternTuple::new(vec![wild()], vec![cst("EDI")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["A"],
                &["city"],
                vec![PatternTuple::new(vec![wild()], vec![cst("NYC")])],
            )
            .unwrap(),
        ];
        assert!(!cfd_set_consistent_propagation(&cfds));
        assert!(!cfd_set_consistent(&cfds).consistent);
    }

    #[test]
    fn propagation_agrees_with_exact_check_on_infinite_domains() {
        let s = Arc::new(RelationSchema::new(
            "r",
            [
                ("A", Domain::Text),
                ("B", Domain::Text),
                ("C", Domain::Text),
            ],
        ));
        // Chain: (_ -> a) on B given A = a1; (a -> b) on C given B = a.
        let cfds = vec![
            Cfd::new(
                &s,
                &["A"],
                &["B"],
                vec![PatternTuple::new(vec![wild()], vec![cst("b0")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["B"],
                &["C"],
                vec![PatternTuple::new(vec![cst("b0")], vec![cst("c0")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["C"],
                &["B"],
                vec![PatternTuple::new(vec![cst("c0")], vec![cst("b0")])],
            )
            .unwrap(),
        ];
        assert_eq!(
            cfd_set_consistent(&cfds).consistent,
            cfd_set_consistent_propagation(&cfds)
        );
        // Now make it contradictory: C = c0 forces B = b1 instead.
        let cfds_bad = {
            let mut v = cfds.clone();
            v[2] = Cfd::new(
                &s,
                &["C"],
                &["B"],
                vec![PatternTuple::new(vec![cst("c0")], vec![cst("b1")])],
            )
            .unwrap();
            v
        };
        assert!(!cfd_set_consistent_propagation(&cfds_bad));
        assert!(!cfd_set_consistent(&cfds_bad).consistent);
    }

    #[test]
    fn empty_set_is_consistent() {
        assert!(cfd_set_consistent(&[]).consistent);
        assert!(crate::reference::cfd_set_consistent(&[]).consistent);
        assert!(cfd_set_consistent_propagation(&[]));
        assert!(cind_set_consistent(&[]).consistent);
    }

    #[test]
    fn ecfd_consistency_detects_forced_finite_ranges() {
        use crate::ecfd::EcfdPattern;
        let s = Arc::new(RelationSchema::new(
            "r",
            [("CT", Domain::Text), ("AC", Domain::Int)],
        ));
        // AC must be in {1, 2} whenever CT is anything (wildcard), and AC
        // must not be in {1, 2} whenever CT = 'NYC': contradiction only for
        // NYC tuples — still consistent because a non-NYC witness exists.
        let e1 = Ecfd::new(
            &s,
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::any()],
                vec![SetPattern::in_set([1i64, 2])],
            )],
        )
        .unwrap();
        let e2 = Ecfd::new(
            &s,
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::eq("NYC")],
                vec![SetPattern::not_in([1i64, 2])],
            )],
        )
        .unwrap();
        assert!(ecfd_set_consistent(&[e1.clone(), e2.clone()]).consistent);
        // Forcing every tuple to be NYC makes the set inconsistent.
        let e3 = Ecfd::new(
            &s,
            &["AC"],
            &["CT"],
            vec![EcfdPattern::new(
                vec![SetPattern::any()],
                vec![SetPattern::in_set(["NYC"])],
            )],
        )
        .unwrap();
        assert!(!ecfd_set_consistent(&[e1, e2, e3]).consistent);
    }

    #[test]
    fn cind_sets_are_always_consistent_and_yield_a_witness() {
        use crate::cind::CindPattern;
        let order = Arc::new(RelationSchema::new(
            "order",
            [("title", Domain::Text), ("type", Domain::Text)],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [("title", Domain::Text), ("format", Domain::Text)],
        ));
        let cind = Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("book")],
                vec![Value::str("audio")],
            )],
        )
        .unwrap();
        let result = cind_set_consistent(std::slice::from_ref(&cind));
        assert!(result.consistent);
        let db = result.witness_database().expect("witness database");
        assert!(cind.holds_on(db).unwrap());
    }

    #[test]
    fn cfd_cind_bounded_heuristic() {
        use crate::cind::CindPattern;
        let order = Arc::new(RelationSchema::new(
            "order",
            [("title", Domain::Text), ("type", Domain::Text)],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [("title", Domain::Text), ("format", Domain::Text)],
        ));
        let cfd = Cfd::new(
            &order,
            &["type"],
            &["title"],
            vec![PatternTuple::new(vec![cst("book")], vec![wild()])],
        )
        .unwrap();
        let cind = Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &[],
            vec![CindPattern::new(vec![Value::str("book")], vec![])],
        )
        .unwrap();
        assert_eq!(
            cfd_cind_consistent_bounded(&[cfd], &[cind], 1_000),
            Some(true)
        );
        // Inconsistent CFDs short-circuit to Some(false).
        let bad = example_4_1();
        assert_eq!(cfd_cind_consistent_bounded(&bad, &[], 1_000), Some(false));
    }
}
