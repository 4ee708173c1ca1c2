//! Heuristic U-repair for (C)FDs by value modification (Section 5.1).
//!
//! Follows the equivalence-class approach of \[16\]/\[28\]: constant (single-
//! tuple) violations are resolved by writing the pattern constant into the
//! offending cell, and variable (pair) violations are resolved by merging the
//! RHS cells of tuples that agree on the LHS into an equivalence class and
//! assigning the whole class the value that minimizes the weighted repair
//! cost (a confidence-weighted plurality vote).  Fixes can expose new
//! violations, so the procedure iterates to a fixpoint, with a round bound as
//! a safety net (finding a *minimum-cost* repair is NP-complete, Theorem 5.1;
//! the heuristic trades optimality for termination).

use crate::model::{RepairCost, RepairLog};
use dq_core::analysis::ensure_consistent;
use dq_core::engine::DetectionEngine;
use dq_core::stream::cfd_violations;
use dq_core::{Cfd, CfdViolation, PatternValue};
use dq_relation::{DqResult, RelationInstance, StoreShardSource, TupleId, Value};
use std::collections::BTreeMap;

/// Configuration of the heuristic repair.
#[derive(Clone, Debug)]
pub struct RepairConfig {
    /// Maximum number of fixpoint rounds before giving up.
    pub max_rounds: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { max_rounds: 25 }
    }
}

/// Outcome of the heuristic repair.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired instance.
    pub repaired: RelationInstance,
    /// The changes made.
    pub log: RepairLog,
    /// Whether the result satisfies every input CFD (the heuristic can fail
    /// to converge when the CFD set is inconsistent or the bound is hit).
    pub consistent: bool,
    /// Number of rounds used.
    pub rounds: usize,
}

/// Repairs `instance` against `cfds` by value modification, carrying a
/// private [`DetectionEngine`] through the fixpoint loop.
///
/// Refuses an inconsistent CFD set up front with
/// [`DqError::InconsistentConstraints`](dq_relation::DqError) carrying a
/// minimal conflicting core — no repair of a nonempty instance could ever
/// satisfy such a set, so the fixpoint loop would burn its round budget for
/// nothing.
pub fn repair_cfd_violations(
    instance: &RelationInstance,
    cfds: &[Cfd],
    cost: &RepairCost,
    config: &RepairConfig,
) -> DqResult<RepairOutcome> {
    repair_cfd_violations_with_engine(instance, cfds, cost, config, &DetectionEngine::new())
}

/// [`repair_cfd_violations`] over a caller-owned engine.
///
/// Every consistency check of the loop runs on the interned columnar store:
/// phase-1 violations come from the CFD detection kernel, the final verdict
/// from the engine's detection, and phase-2 equivalence classes are read
/// off the engine's pooled [interned indexes](dq_relation::InternedIndex)
/// instead of building a fresh `Vec<Value>`-keyed index per CFD per round.
/// Within one round the normalized fragments share each distinct-LHS index
/// through the pool (version-tagged, so reuse survives exactly as long as
/// no cell was rewritten), and because the repair loop only *updates* cells
/// the final check never pays for more than the loop already built.  The
/// outcome — repaired cells, log order, cost, rounds — is byte-identical to
/// [`reference::repair_cfd_violations`](crate::reference::repair_cfd_violations).
///
/// Like [`repair_cfd_violations`], refuses inconsistent rule sets up front.
pub fn repair_cfd_violations_with_engine(
    instance: &RelationInstance,
    cfds: &[Cfd],
    cost: &RepairCost,
    config: &RepairConfig,
    engine: &DetectionEngine,
) -> DqResult<RepairOutcome> {
    ensure_consistent(cfds)?;
    let _span = dq_obs::span!("repair.urepair", deps = cfds.len());
    let mut repaired = instance.clone();
    let mut log = RepairLog::default();
    let normalized: Vec<Cfd> = cfds.iter().flat_map(|c| c.normalize()).collect();
    let mut rounds = 0;

    while rounds < config.max_rounds {
        rounds += 1;
        // Per-round fixpoint cost: how many cells this round rewrote and
        // what it charged, so the profile shows convergence behaviour.
        let round_span = dq_obs::span("round");
        let (cells_before, cost_before) = (log.modified.len(), log.cost);
        let mut changed = false;

        // Phase 1: constant violations — write the required constant.
        for cfd in &normalized {
            let tp = &cfd.tableau()[0];
            let b = cfd.rhs()[0];
            let PatternValue::Const(required) = &tp.rhs[0] else {
                continue;
            };
            // With no LHS groups the kernel reports only single-tuple
            // violations — exactly what this phase fixes.
            let source = StoreShardSource::new(&repaired);
            let violating: Vec<TupleId> = cfd_violations(cfd, &source, std::iter::empty())
                .singles()
                .iter()
                .flat_map(CfdViolation::tuples)
                .collect();
            for id in violating {
                let old = repaired
                    .tuple(id)
                    .expect("violating tuple is live")
                    .get(b)
                    .clone();
                if &old == required {
                    continue;
                }
                repaired
                    .update_cell(dq_relation::instance::CellRef::new(id, b), required.clone())
                    .expect("repair writes stay in-domain");
                log.cost += cost.cell_cost(id, b, &old, required);
                log.modified.push((id, b, old, required.clone()));
                changed = true;
            }
        }

        // Phase 2: variable violations — the grouped kernel over the pooled
        // index's groups yields each violating LHS group with its RHS
        // classes, one class per `B` value.
        for cfd in &normalized {
            let tp = &cfd.tableau()[0];
            let b = cfd.rhs()[0];
            if !tp.rhs[0].is_any() {
                continue; // constant case handled above
            }
            let index = engine
                .pool()
                .interned_for(&repaired, cfd.lhs(), engine.threads());
            let source = StoreShardSource::new(&repaired);
            let groups = cfd_violations(cfd, &source, index.multi_group_rows());
            // Collect target assignments first, then apply, to avoid holding
            // borrows across mutations.
            let mut assignments: Vec<(TupleId, Value)> = Vec::new();
            let mut members: Vec<(TupleId, usize)> = Vec::new();
            for g in 0..groups.group_count() {
                let classes: Vec<&[TupleId]> = groups.classes_of(g).collect();
                let value = |class: usize| repaired.tuple(classes[class][0]).expect("live").get(b);
                // Confidence-weighted vote over the current B values of the
                // class, summed in ascending tuple order: keeping the value
                // held by high-confidence cells minimizes the cost of
                // rewriting the others.
                members.clear();
                for (class, ids) in classes.iter().enumerate() {
                    members.extend(ids.iter().map(|&id| (id, class)));
                }
                members.sort_unstable();
                let mut votes: BTreeMap<Value, f64> = BTreeMap::new();
                for &(id, class) in &members {
                    *votes.entry(value(class).clone()).or_insert(0.0) += cost.weight(id, b);
                }
                if votes.len() <= 1 {
                    continue;
                }
                let target = votes
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(v, _)| v.clone())
                    .expect("non-empty vote");
                for &(id, class) in &members {
                    if value(class) != &target {
                        assignments.push((id, target.clone()));
                    }
                }
            }
            apply_assignments(&mut repaired, &mut log, cost, b, assignments, &mut changed);
        }

        drop(round_span);
        dq_obs::inc("repair.rounds");
        dq_obs::record(
            "repair.round_changes",
            (log.modified.len() - cells_before) as u64,
        );
        dq_obs::record(
            "repair.round_cost_milli",
            ((log.cost - cost_before) * 1e3).max(0.0) as u64,
        );
        if !changed {
            break;
        }
    }

    let consistent = engine.detect_cfd_violations(&repaired, cfds).is_clean();
    Ok(RepairOutcome {
        repaired,
        log,
        consistent,
        rounds,
    })
}

/// Applies one phase-2 batch in ascending tuple order.  Groups are disjoint
/// (each tuple gets at most one assignment per CFD pass), so sorting fixes
/// the log order and the floating-point cost accumulation to a canonical
/// sequence — the hash-map group order of either index representation never
/// leaks into the outcome.
pub(crate) fn apply_assignments(
    repaired: &mut RelationInstance,
    log: &mut RepairLog,
    cost: &RepairCost,
    b: usize,
    mut assignments: Vec<(TupleId, Value)>,
    changed: &mut bool,
) {
    assignments.sort_by_key(|x| x.0);
    for (id, target) in assignments {
        let old = repaired.tuple(id).expect("live tuple").get(b).clone();
        repaired
            .update_cell(dq_relation::instance::CellRef::new(id, b), target.clone())
            .expect("repair writes stay in-domain");
        log.cost += cost.cell_cost(id, b, &old, &target);
        log.modified.push((id, b, old, target));
        *changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_u_repair;
    use dq_core::{cst, wild, Fd, PatternTuple};
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    fn customer_schema() -> Arc<RelationSchema> {
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
    fn repairs_the_paper_instance_to_consistency() {
        let s = customer_schema();
        let dirty = d0(&s);
        let cfds = paper_cfds(&s);
        assert!(!DetectionEngine::new()
            .detect_cfd_violations(&dirty, &cfds)
            .is_clean());
        let outcome = repair_cfd_violations(
            &dirty,
            &cfds,
            &RepairCost::uniform(),
            &RepairConfig::default(),
        )
        .expect("consistent rule set");
        assert!(outcome.consistent, "repair did not converge");
        assert!(check_u_repair(&dirty, &outcome.repaired, &cfds));
        assert!(outcome.log.change_count() > 0);
        assert!(outcome.log.cost > 0.0);
        // The cities have been corrected to the pattern constants.
        let city = s.attr("city");
        assert_eq!(
            outcome.repaired.tuple(TupleId(0)).unwrap().get(city),
            &Value::str("EDI")
        );
        assert_eq!(
            outcome.repaired.tuple(TupleId(2)).unwrap().get(city),
            &Value::str("MH")
        );
    }

    #[test]
    fn clean_instances_are_untouched() {
        let s = customer_schema();
        let mut clean = RelationInstance::new(Arc::clone(&s));
        clean
            .insert_values([
                Value::int(44),
                Value::int(131),
                Value::int(1),
                Value::str("Mayfield"),
                Value::str("EDI"),
                Value::str("EH4"),
            ])
            .unwrap();
        let cfds = paper_cfds(&s);
        let outcome = repair_cfd_violations(
            &clean,
            &cfds,
            &RepairCost::uniform(),
            &RepairConfig::default(),
        )
        .expect("consistent rule set");
        assert!(outcome.consistent);
        assert_eq!(outcome.log.change_count(), 0);
        assert!(clean.same_tuples_as(&outcome.repaired));
    }

    #[test]
    fn variable_violations_are_resolved_by_plurality() {
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ));
        let fd = Cfd::from_fd(&Fd::new(&s, &["A"], &["B"]));
        let mut inst = RelationInstance::new(Arc::clone(&s));
        for b in ["x", "x", "y"] {
            inst.insert_values([Value::str("k"), Value::str(b)])
                .unwrap();
        }
        let outcome = repair_cfd_violations(
            &inst,
            std::slice::from_ref(&fd),
            &RepairCost::uniform(),
            &RepairConfig::default(),
        )
        .expect("consistent rule set");
        assert!(outcome.consistent);
        // The minority value is rewritten to the plurality value.
        for (_, t) in outcome.repaired.iter() {
            assert_eq!(t.get(1), &Value::str("x"));
        }
        assert_eq!(outcome.log.change_count(), 1);
    }

    #[test]
    fn vote_ties_and_absent_pattern_constants_match_the_reference() {
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ));
        // Group k: "y" and "x" at equal weight, so the greater value wins.
        // Group n: "p" at weights 0.1, 0.2, 0.3 against "q" at 0.6.  Summed
        // in ascending tuple order "p" totals 0.6000000000000001 and wins;
        // summed the other way round it would tie and "q" would win.
        let mut inst = RelationInstance::new(Arc::clone(&s));
        let mut cost = RepairCost::uniform();
        for (a, b, weight) in [
            ("k", "y", 1.0),
            ("n", "p", 0.1),
            ("k", "x", 1.0),
            ("n", "q", 0.6),
            ("n", "p", 0.2),
            ("n", "p", 0.3),
        ] {
            let id = inst.insert_values([Value::str(a), Value::str(b)]).unwrap();
            cost.weights_mut().set(id, 1, weight);
        }
        let cfds = vec![
            Cfd::from_fd(&Fd::new(&s, &["A"], &["B"])),
            // An LHS constant absent from the dictionary matches no group.
            Cfd::new(
                &s,
                &["A"],
                &["B"],
                vec![PatternTuple::new(vec![cst("absent")], vec![wild()])],
            )
            .unwrap(),
        ];
        let config = RepairConfig::default();
        let outcome = repair_cfd_violations(&inst, &cfds, &cost, &config).unwrap();
        let naive = crate::reference::repair_cfd_violations(&inst, &cfds, &cost, &config);
        assert_eq!(outcome.log.modified, naive.log.modified);
        assert_eq!(outcome.log.cost, naive.log.cost);
        assert_eq!(outcome.rounds, naive.rounds);
        assert!(outcome.consistent && naive.consistent);
        for (_, t) in outcome.repaired.iter() {
            let winner = if t.get(0) == &Value::str("k") {
                "y"
            } else {
                "p"
            };
            assert_eq!(t.get(1), &Value::str(winner));
        }
        assert_eq!(outcome.log.change_count(), 2);
    }

    #[test]
    fn repair_loop_patches_pooled_indexes_instead_of_rebuilding() {
        let s = customer_schema();
        let dirty = d0(&s);
        let cfds = paper_cfds(&s);
        let engine = DetectionEngine::new();
        let outcome = repair_cfd_violations_with_engine(
            &dirty,
            &cfds,
            &RepairCost::uniform(),
            &RepairConfig::default(),
            &engine,
        )
        .expect("consistent rule set");
        let naive = crate::reference::repair_cfd_violations(
            &dirty,
            &cfds,
            &RepairCost::uniform(),
            &RepairConfig::default(),
        );
        // Byte-identical outcome first: the patch path must not change what
        // the repair computes, only what it costs.
        assert_eq!(outcome.consistent, naive.consistent);
        assert_eq!(outcome.rounds, naive.rounds);
        assert_eq!(outcome.log.modified, naive.log.modified);
        assert_eq!(outcome.log.deleted, naive.log.deleted);
        assert_eq!(outcome.log.cost, naive.log.cost);
        assert!(outcome.repaired.same_tuples_as(&naive.repaired));
        let stats = engine.pool_stats();
        assert!(stats.patches > 0, "repair writes must patch, not rebuild");
        // Zero full rebuilds after round 1: each distinct LHS is built cold
        // exactly once, and every later miss is served incrementally (the
        // loop only updates cells, so appends stay 0 and races can't happen
        // single-threaded within one artifact cache).
        let distinct_lhs: std::collections::BTreeSet<Vec<usize>> = cfds
            .iter()
            .flat_map(|c| c.normalize())
            .map(|c| c.lhs().to_vec())
            .collect();
        assert_eq!(
            stats.misses,
            distinct_lhs.len() as u64 + stats.appends + stats.patches + stats.races,
            "no full index rebuild after the cold start"
        );
    }

    #[test]
    fn inconsistent_cfd_sets_are_refused_up_front() {
        // Two CFDs forcing different constants on the same attribute for the
        // same tuples: no repair can ever satisfy both, so the static
        // analysis rejects the set before the fixpoint loop starts, naming a
        // minimal conflicting core.
        let s = Arc::new(RelationSchema::new(
            "r",
            [("A", Domain::Text), ("B", Domain::Text)],
        ));
        let c1 = Cfd::new(
            &s,
            &["A"],
            &["B"],
            vec![PatternTuple::new(vec![wild()], vec![cst("p")])],
        )
        .unwrap();
        let c2 = Cfd::new(
            &s,
            &["A"],
            &["B"],
            vec![PatternTuple::new(vec![wild()], vec![cst("q")])],
        )
        .unwrap();
        let mut inst = RelationInstance::new(Arc::clone(&s));
        inst.insert_values([Value::str("k"), Value::str("p")])
            .unwrap();
        let config = RepairConfig { max_rounds: 5 };
        let err = repair_cfd_violations(&inst, &[c1, c2], &RepairCost::uniform(), &config)
            .expect_err("inconsistent rule set must be refused");
        match err {
            dq_relation::DqError::InconsistentConstraints { core } => {
                // Both rules are needed for the conflict, so both are in the
                // minimal core.
                assert_eq!(core.len(), 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}
