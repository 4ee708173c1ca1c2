//! Implication analysis for conditional dependencies (Section 4.1).
//!
//! Implication (`Σ ⊨ ϕ`) underlies minimal covers, rule discovery and the
//! interaction analysis of cleaning rules.  Table 1: coNP-complete for CFDs
//! (quadratic without finite-domain attributes), EXPTIME-complete for CINDs
//! (PSPACE without finite domains), undecidable for the two taken together.
//!
//! We provide:
//!
//! * [`cfd_implies_exact`] — a complete decision procedure, delegating to
//!   the propagation-guided counterexample solver in [`crate::analysis`]
//!   (closure first pass, then DPLL over packed two-tuple assignments);
//! * [`cfd_implies_closure`] — the quadratic pattern-closure procedure,
//!   sound in general and complete in the absence of finite-domain
//!   attributes;
//! * [`cind_implies_chase`] — a bounded pattern-aware chase for CIND
//!   implication (exact for acyclic CIND sets);
//! * [`cfd_minimal_cover`] — canonical redundancy removal using implication.
//!
//! The blind two-tuple backtracking search the solver is property-asserted
//! against is [`crate::reference::cfd_implies_exact`].

use crate::cfd::Cfd;
use crate::cind::Cind;
use crate::consistency::chase_cinds;
use crate::pattern::PatternValue;
use dq_relation::{Database, RelationInstance, RelationSchema, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Collects, per attribute, the constants mentioned by any pattern of
/// `cfds ∪ {extra}`.
pub(crate) fn mentioned_constants(
    schema: &RelationSchema,
    cfds: &[Cfd],
    extra: Option<&Cfd>,
) -> Vec<Vec<Value>> {
    let mut mentioned: Vec<Vec<Value>> = vec![Vec::new(); schema.arity()];
    let mut note = |cfd: &Cfd| {
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
    };
    cfds.iter().for_each(&mut note);
    if let Some(cfd) = extra {
        note(cfd);
    }
    for m in &mut mentioned {
        m.sort();
        m.dedup();
    }
    mentioned
}

/// Candidate values for one tuple position in the counterexample search: the
/// finite domain if there is one, otherwise the mentioned constants plus two
/// fresh values (two, so that the pair of tuples can disagree on the
/// attribute without touching any pattern constant).
pub(crate) fn candidate_values(
    schema: &RelationSchema,
    attr: usize,
    mentioned: &[Value],
) -> Vec<Value> {
    if let Some(values) = schema.domain(attr).enumerate() {
        return values;
    }
    let mut candidates = mentioned.to_vec();
    let mut used = candidates.clone();
    for _ in 0..2 {
        if let Some(fresh) = schema.domain(attr).fresh_value(&used) {
            used.push(fresh.clone());
            candidates.push(fresh);
        }
    }
    candidates
}

/// Exact CFD implication: `Σ ⊨ ϕ` iff there is no instance of at most two
/// tuples that satisfies `Σ` (restricted to those two tuples) and violates
/// `ϕ`.  The two-tuple bound follows from the CFD semantics: a violation of
/// `ϕ` involves at most two tuples, and removing every other tuple preserves
/// satisfaction of `Σ`.
///
/// Delegates to the propagation-guided solver of [`crate::analysis`]: the
/// sound quadratic closure runs first (complete when no involved attribute
/// has a finite domain, Theorem 4.3), then a DPLL-style counterexample
/// search over packed two-tuple assignments decides the finite-domain case.
/// The verdict is identical to [`crate::reference::cfd_implies_exact`] on
/// every input (property-asserted in `tests/analysis_equivalence.rs`).
pub fn cfd_implies_exact(sigma: &[Cfd], phi: &Cfd) -> bool {
    crate::analysis::solver::solve_cfd_implication(sigma, phi, 0).implied
}

/// Does the single tuple `t` satisfy every CFD of `sigma` as a one-tuple
/// instance?  (Leaf predicate of the counterexample search, shared with the
/// solver's witness validation.)
pub(crate) fn single_tuple_ok(sigma: &[Cfd], t: &Tuple) -> bool {
    sigma.iter().all(|cfd| {
        cfd.tableau()
            .iter()
            .all(|tp| !tp.lhs_matches(t, cfd.lhs()) || tp.rhs_matches(t, cfd.rhs()))
    })
}

/// Does the (unordered) pair satisfy the two-tuple part of every CFD of
/// `sigma`?
pub(crate) fn pair_ok(sigma: &[Cfd], t1: &Tuple, t2: &Tuple) -> bool {
    sigma.iter().all(|cfd| {
        cfd.tableau().iter().all(|tp| {
            let agree = t1.agree_on(t2, cfd.lhs());
            if !agree || !tp.lhs_matches(t1, cfd.lhs()) {
                return true;
            }
            t1.agree_on(t2, cfd.rhs())
                && tp.rhs_matches(t1, cfd.rhs())
                && tp.rhs_matches(t2, cfd.rhs())
        })
    })
}

/// Does the pair violate the normalized single-pattern CFD `part`?
pub(crate) fn pair_violates_part(part: &Cfd, t1: &Tuple, t2: &Tuple) -> bool {
    debug_assert_eq!(part.tableau().len(), 1);
    debug_assert_eq!(part.rhs().len(), 1);
    let tp = &part.tableau()[0];
    let b = part.rhs()[0];
    if !tp.lhs_matches(t1, part.lhs()) || !t1.agree_on(t2, part.lhs()) {
        return false;
    }
    let equal = t1.get(b) == t2.get(b);
    let matches_const = tp.rhs[0].matches(t1.get(b)) && tp.rhs[0].matches(t2.get(b));
    !(equal && matches_const)
}

/// The closure entry for an attribute during [`cfd_implies_closure`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum ClosureVal {
    /// The pair of hypothetical tuples agree on this attribute, value unknown.
    Equal,
    /// The pair agree on this attribute and the shared value is this constant.
    Const(Value),
}

/// Quadratic pattern-closure implication check: sound for all CFD sets and
/// complete when no attribute involved has a finite domain (Theorem 4.3).
///
/// The procedure reasons about an arbitrary pair of tuples agreeing on
/// `ϕ`'s LHS according to `ϕ`'s LHS pattern, and closes the set of
/// "agreed" attributes under the normalized CFDs of `Σ`: a CFD fires when
/// each of its LHS attributes is already agreed and each LHS constant is
/// *known* to be the shared value.  Firing adds the RHS attribute (with its
/// constant, if any).  Two distinct constants forced on the same attribute
/// mean the hypothesis is unsatisfiable, so `ϕ` holds vacuously.
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
        // `closure` records what is known about the hypothetical pair
        // (t1, t2) agreeing on ϕ's LHS per its pattern: Equal means the two
        // tuples agree on the attribute (value unknown), Const means they
        // agree *and* the shared value is that constant.  Constant knowledge
        // additionally holds for each tuple individually, which lets rules
        // fire in "single-tuple mode": a rule whose LHS constants are all
        // known constants of the pair forces its RHS constant on both tuples
        // even when its wildcard LHS attributes are not known to agree.
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

/// CFD implication with automatic algorithm selection.  The selection now
/// lives inside the solver ([`cfd_implies_exact`]): the quadratic closure
/// decides every case where it is complete (no involved finite-domain
/// attribute), the DPLL counterexample search the rest; this function is the
/// stable front-end name.
pub fn cfd_implies(sigma: &[Cfd], phi: &Cfd) -> bool {
    cfd_implies_exact(sigma, phi)
}

/// Computes a minimal cover of a CFD set: normalize, sort into canonical
/// order, then drop every member implied by the remaining ones.  Since CFDs
/// tend to be much larger than FDs (pattern tableaux), removing redundant
/// rules directly reduces the cost of detection and repair (Section 4.1).
///
/// Greedy redundancy removal is input-order-dependent, so the normalized
/// candidates are first sorted into a documented canonical order —
/// ascending by (LHS attribute list, RHS attribute list, LHS pattern
/// entries, RHS pattern entries), with exact duplicates removed — making the
/// cover a function of the rule *set*, not of the order rules were supplied
/// in.  Permutation invariance is regression-tested in
/// `tests/analysis_equivalence.rs`.
pub fn cfd_minimal_cover(sigma: &[Cfd]) -> Vec<Cfd> {
    let _span = dq_obs::span!("analysis.cover", rules = sigma.len());
    let mut cover: Vec<Cfd> = sigma.iter().flat_map(|c| c.normalize()).collect();
    cover.sort_by(canonical_cfd_order);
    cover.dedup();
    let normalized = cover.len();
    let mut i = 0;
    while i < cover.len() {
        let candidate = cover[i].clone();
        let mut rest = cover.clone();
        rest.remove(i);
        if cfd_implies(&rest, &candidate) {
            cover.remove(i);
        } else {
            i += 1;
        }
    }
    dq_obs::add("analysis.cover.dropped", (normalized - cover.len()) as u64);
    cover
}

/// The canonical order minimal covers are computed in: ascending by LHS
/// attribute list, then RHS attribute list, then the (single) pattern row's
/// LHS entries, then its RHS entries.  Total on normalized CFDs over one
/// schema, so sorting makes the greedy pass deterministic under input
/// permutation.
fn canonical_cfd_order(a: &Cfd, b: &Cfd) -> std::cmp::Ordering {
    (a.lhs(), a.rhs(), &a.tableau()[0].lhs, &a.tableau()[0].rhs).cmp(&(
        b.lhs(),
        b.rhs(),
        &b.tableau()[0].lhs,
        &b.tableau()[0].rhs,
    ))
}

/// Bounded chase-based implication for CINDs: `Σ ⊨ ψ`?
///
/// Builds the canonical database for `ψ`'s premise (a single LHS tuple with
/// the pattern constants and fresh values elsewhere), chases it with `Σ`
/// (adding tuples demanded by the CINDs), and checks whether the chased
/// database satisfies `ψ`.  Exact when the chase terminates within
/// `max_steps` (always the case for acyclic CIND sets); returns `false`
/// ("not provably implied") otherwise, mirroring the EXPTIME lower bound of
/// Theorem 4.2.
pub fn cind_implies_chase(sigma: &[Cind], psi: &Cind, max_steps: usize) -> bool {
    // Canonical premise database.
    let mut db = Database::new();
    let lhs_schema = Arc::clone(psi.lhs_schema());
    let mut values: Vec<Value> = (0..lhs_schema.arity())
        .map(|a| {
            lhs_schema
                .domain(a)
                .fresh_value(&[])
                .unwrap_or_else(|| lhs_schema.domain(a).enumerate().expect("finite")[0].clone())
        })
        .collect();
    let Some(tp) = psi.tableau().first() else {
        return true;
    };
    for (&a, v) in psi.lhs_pattern_attrs().iter().zip(&tp.lhs) {
        values[a] = v.clone();
    }
    // Give the correspondence attributes pairwise-distinct fresh labels so a
    // coincidental equality cannot fake an implication.
    for (i, &a) in psi.lhs_attrs().iter().enumerate() {
        if psi.lhs_pattern_attrs().contains(&a) {
            continue;
        }
        if matches!(lhs_schema.domain(a), dq_relation::Domain::Text) {
            values[a] = Value::str(format!("_premise_{i}"));
        }
    }
    let mut seed = RelationInstance::new(Arc::clone(&lhs_schema));
    if seed.insert(Tuple::new(values)).is_err() {
        return false;
    }
    db.add_relation(seed);
    for cind in sigma.iter().chain(std::iter::once(psi)) {
        for s in [cind.lhs_schema(), cind.rhs_schema()] {
            if db.relation(s.name()).is_none() {
                db.add_relation(RelationInstance::new(Arc::clone(s)));
            }
        }
    }
    if !chase_cinds(&mut db, sigma, max_steps) {
        return false;
    }
    psi.holds_on(&db).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cind::CindPattern;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::Domain;

    fn customer() -> Arc<RelationSchema> {
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

    #[test]
    fn embedded_fd_implication_lifts_to_cfds() {
        let s = customer();
        // [CC, AC] -> [city] and [city] -> [zip] imply [CC, AC] -> [zip]
        // (all-wildcard patterns, i.e. plain FDs).
        let sigma = vec![
            Cfd::new(
                &s,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["city"],
                &["zip"],
                vec![PatternTuple::all_wildcards(1, 1)],
            )
            .unwrap(),
        ];
        let target = Cfd::new(
            &s,
            &["CC", "AC"],
            &["zip"],
            vec![PatternTuple::all_wildcards(2, 1)],
        )
        .unwrap();
        assert!(cfd_implies_closure(&sigma, &target));
        assert!(cfd_implies_exact(&sigma, &target));
        let not_implied = Cfd::new(
            &s,
            &["zip"],
            &["city"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .unwrap();
        assert!(!cfd_implies_closure(&sigma, &not_implied));
        assert!(!cfd_implies_exact(&sigma, &not_implied));
    }

    #[test]
    fn pattern_weakening_is_implied() {
        let s = customer();
        // The unconditional FD [zip] -> [street] implies its restriction to
        // UK tuples ([CC, zip] -> [street] with CC = 44).
        let sigma = vec![Cfd::new(
            &s,
            &["zip"],
            &["street"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .unwrap()];
        let uk_only = Cfd::new(
            &s,
            &["CC", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
        )
        .unwrap();
        assert!(cfd_implies_closure(&sigma, &uk_only));
        assert!(cfd_implies_exact(&sigma, &uk_only));
        // The converse does not hold.
        let general = Cfd::new(
            &s,
            &["zip"],
            &["street"],
            vec![PatternTuple::all_wildcards(1, 1)],
        )
        .unwrap();
        let sigma_uk = vec![uk_only];
        assert!(!cfd_implies_closure(&sigma_uk, &general));
        assert!(!cfd_implies_exact(&sigma_uk, &general));
    }

    #[test]
    fn constant_transitivity() {
        let s = customer();
        // CC = 44 forces city = EDI; city = EDI forces zip = EH.
        let sigma = vec![
            Cfd::new(
                &s,
                &["CC"],
                &["city"],
                vec![PatternTuple::new(vec![cst(44)], vec![cst("EDI")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["city"],
                &["zip"],
                vec![PatternTuple::new(vec![cst("EDI")], vec![cst("EH")])],
            )
            .unwrap(),
        ];
        let target = Cfd::new(
            &s,
            &["CC"],
            &["zip"],
            vec![PatternTuple::new(vec![cst(44)], vec![cst("EH")])],
        )
        .unwrap();
        assert!(cfd_implies_closure(&sigma, &target));
        assert!(cfd_implies_exact(&sigma, &target));
        // A different constant is not implied.
        let wrong = Cfd::new(
            &s,
            &["CC"],
            &["zip"],
            vec![PatternTuple::new(vec![cst(44)], vec![cst("XX")])],
        )
        .unwrap();
        assert!(!cfd_implies_closure(&sigma, &wrong));
        assert!(!cfd_implies_exact(&sigma, &wrong));
    }

    #[test]
    fn closure_and_exact_agree_on_infinite_domain_examples() {
        let s = customer();
        let sigma = vec![
            Cfd::new(
                &s,
                &["CC", "zip"],
                &["street"],
                vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
        ];
        let candidates = vec![
            Cfd::new(
                &s,
                &["CC", "AC", "zip"],
                &["street"],
                vec![PatternTuple::new(
                    vec![cst(44), wild(), wild()],
                    vec![wild()],
                )],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["CC", "zip"],
                &["city"],
                vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
            )
            .unwrap(),
        ];
        for c in &candidates {
            assert_eq!(cfd_implies_closure(&sigma, c), cfd_implies_exact(&sigma, c));
        }
    }

    #[test]
    fn finite_domain_implication_needs_the_exact_check() {
        // dom(A) = bool.  Sigma: (A = true -> B = b) and (A = false -> B = b).
        // Together they imply the unconditional (_ -> B = b), but the closure
        // cannot see it because neither rule fires without knowing A.
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Bool), ("B", Domain::Text)],
        ));
        let sigma = vec![
            Cfd::new(
                &s,
                &["A"],
                &["B"],
                vec![PatternTuple::new(vec![cst(true)], vec![cst("b")])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["A"],
                &["B"],
                vec![PatternTuple::new(vec![cst(false)], vec![cst("b")])],
            )
            .unwrap(),
        ];
        let target = Cfd::new(
            &s,
            &["A"],
            &["B"],
            vec![PatternTuple::new(vec![wild()], vec![cst("b")])],
        )
        .unwrap();
        assert!(cfd_implies_exact(&sigma, &target));
        assert!(!cfd_implies_closure(&sigma, &target));
        // The dispatching front-end picks the exact algorithm here.
        assert!(cfd_implies(&sigma, &target));
    }

    #[test]
    fn minimal_cover_drops_redundant_cfds() {
        let s = customer();
        let sigma = vec![
            Cfd::new(
                &s,
                &["zip"],
                &["street"],
                vec![PatternTuple::all_wildcards(1, 1)],
            )
            .unwrap(),
            // Redundant: restriction of the first to CC = 44.
            Cfd::new(
                &s,
                &["CC", "zip"],
                &["street"],
                vec![PatternTuple::new(vec![cst(44), wild()], vec![wild()])],
            )
            .unwrap(),
            Cfd::new(
                &s,
                &["CC", "AC"],
                &["city"],
                vec![PatternTuple::all_wildcards(2, 1)],
            )
            .unwrap(),
        ];
        let cover = cfd_minimal_cover(&sigma);
        assert_eq!(cover.len(), 2);
        for original in &sigma {
            assert!(cfd_implies(&cover, original));
        }
    }

    #[test]
    fn cind_implication_by_transitivity_via_chase() {
        let order = Arc::new(RelationSchema::new(
            "order",
            [
                ("title", Domain::Text),
                ("type", Domain::Text),
                ("price", Domain::Real),
            ],
        ));
        let cd = Arc::new(RelationSchema::new(
            "CD",
            [
                ("album", Domain::Text),
                ("genre", Domain::Text),
                ("price", Domain::Real),
            ],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [
                ("title", Domain::Text),
                ("format", Domain::Text),
                ("price", Domain::Real),
            ],
        ));
        // order(title; type='a-cd') ⊆ CD(album; genre='a-book') and
        // CD(album; genre='a-book') ⊆ book(title; format='audio')
        let c1 = Cind::new(
            &order,
            &["title"],
            &["type"],
            &cd,
            &["album"],
            &["genre"],
            vec![CindPattern::new(
                vec![Value::str("a-cd")],
                vec![Value::str("a-book")],
            )],
        )
        .unwrap();
        let c2 = Cind::new(
            &cd,
            &["album"],
            &["genre"],
            &book,
            &["title"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-book")],
                vec![Value::str("audio")],
            )],
        )
        .unwrap();
        // Implied: order(title; type='a-cd') ⊆ book(title; format='audio').
        let target = Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-cd")],
                vec![Value::str("audio")],
            )],
        )
        .unwrap();
        assert!(cind_implies_chase(
            &[c1.clone(), c2.clone()],
            &target,
            10_000
        ));
        // Not implied with a different RHS pattern constant.
        let wrong = Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-cd")],
                vec![Value::str("paper")],
            )],
        )
        .unwrap();
        assert!(!cind_implies_chase(&[c1, c2], &wrong, 10_000));
    }

    #[test]
    fn cind_self_implication_and_empty_sigma() {
        let order = Arc::new(RelationSchema::new(
            "order",
            [("title", Domain::Text), ("type", Domain::Text)],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [("title", Domain::Text), ("format", Domain::Text)],
        ));
        let psi = Cind::new(
            &order,
            &["title"],
            &["type"],
            &book,
            &["title"],
            &[],
            vec![CindPattern::new(vec![Value::str("book")], vec![])],
        )
        .unwrap();
        assert!(cind_implies_chase(std::slice::from_ref(&psi), &psi, 1_000));
        assert!(!cind_implies_chase(&[], &psi, 1_000));
    }
}
