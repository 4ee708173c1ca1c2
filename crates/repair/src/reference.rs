//! Reference implementations kept as test oracles.
//!
//! Library code never calls this module.  `tests/discovery_equivalence.rs`
//! and the U-repair unit tests hold
//! [`repair_cfd_violations_with_engine`](crate::urepair::repair_cfd_violations_with_engine)
//! byte-identical to [`repair_cfd_violations`] here: same repaired cells,
//! log order, cost, rounds and verdict.

use crate::model::{RepairCost, RepairLog};
use crate::urepair::{apply_assignments, RepairConfig, RepairOutcome};
use dq_core::{Cfd, CfdViolation, PatternValue};
use dq_relation::reference::HashIndex;
use dq_relation::{RelationInstance, TupleId, Value};
use std::collections::BTreeMap;

/// The row-at-a-time U-repair loop: one fresh `Vec<Value>`-keyed
/// [`HashIndex`] per CFD per round and the `dq_core::reference` detectors
/// for every violation scan and the final consistency check.  Unlike
/// [`crate::urepair::repair_cfd_violations`] it does not vet the rule set
/// first.
pub fn repair_cfd_violations(
    instance: &RelationInstance,
    cfds: &[Cfd],
    cost: &RepairCost,
    config: &RepairConfig,
) -> RepairOutcome {
    let mut repaired = instance.clone();
    let mut log = RepairLog::default();
    let normalized: Vec<Cfd> = cfds.iter().flat_map(|c| c.normalize()).collect();
    let mut rounds = 0;

    while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;

        // Phase 1: constant violations — write the required constant.
        for cfd in &normalized {
            let tp = &cfd.tableau()[0];
            let b = cfd.rhs()[0];
            let PatternValue::Const(required) = &tp.rhs[0] else {
                continue;
            };
            let violating: Vec<TupleId> = dq_core::reference::cfd_violations(cfd, &repaired)
                .into_iter()
                .filter_map(|v| match v {
                    CfdViolation::SingleTuple { tuple, .. } => Some(tuple),
                    CfdViolation::TuplePair { .. } => None,
                })
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

        // Phase 2: variable violations — equivalence classes per LHS group.
        for cfd in &normalized {
            let tp = &cfd.tableau()[0];
            let b = cfd.rhs()[0];
            if !tp.rhs[0].is_any() {
                continue; // constant case handled above
            }
            let index = HashIndex::build(&repaired, cfd.lhs());
            // Collect target assignments first, then apply, to avoid holding
            // borrows across mutations.
            let mut assignments: Vec<(TupleId, Value)> = Vec::new();
            for (key, group) in index.multi_groups() {
                let matches_pattern = tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v));
                if !matches_pattern || group.len() < 2 {
                    continue;
                }
                // Confidence-weighted vote over the current B values of the
                // class: keeping the value held by high-confidence cells
                // minimizes the cost of rewriting the others.
                let mut votes: BTreeMap<Value, f64> = BTreeMap::new();
                for &id in group {
                    let v = repaired.tuple(id).expect("live tuple").get(b).clone();
                    *votes.entry(v).or_insert(0.0) += cost.weight(id, b);
                }
                if votes.len() <= 1 {
                    continue;
                }
                let target = votes
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(v, _)| v.clone())
                    .expect("non-empty vote");
                for &id in group {
                    let current = repaired.tuple(id).expect("live tuple").get(b).clone();
                    if current != target {
                        assignments.push((id, target.clone()));
                    }
                }
            }
            apply_assignments(&mut repaired, &mut log, cost, b, assignments, &mut changed);
        }

        if !changed {
            break;
        }
    }

    let consistent = dq_core::reference::detect_cfd_violations(&repaired, cfds).is_clean();
    RepairOutcome {
        repaired,
        log,
        consistent,
        rounds,
    }
}
