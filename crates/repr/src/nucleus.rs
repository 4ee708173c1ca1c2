//! Nuclei: a single tableau representing all U-repairs (Section 5.3, after
//! [68]).
//!
//! For equality-generating dependencies — here the FD/key case, where a
//! repair must make all tuples agreeing on the LHS also agree on the RHS —
//! the nucleus replaces every conflicting group by a single pattern tuple:
//! attributes on which the group agrees keep their constant, attributes on
//! which it disagrees receive a fresh variable.  Conjunctive queries
//! evaluated *naively* on the nucleus (variables behave as distinct labelled
//! nulls) return, once variable-carrying answers are discarded, answers that
//! hold in every U-repair.  The nucleus is homomorphic to each repair, and
//! its size can blow up exponentially for general full dependencies — the
//! limitation Section 5.3 points out; the benchmark measures nucleus size
//! against the number of repairs.

use crate::vtable::{VTable, VTuple, VValue};
use dq_core::Fd;
use dq_relation::{Atom, ConjunctiveQuery, RelationInstance, Term, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the nucleus of `instance` under a single FD `X → Y` (typically a
/// key): one v-tuple per `X`-group, with variables where the group disagrees.
pub fn nucleus_for_fd(instance: &RelationInstance, fd: &Fd) -> VTable {
    let mut table = VTable::new(instance.schema().clone());
    let arity = instance.schema().arity();
    let mut var_counter = 0usize;
    for (_, group) in crate::key_groups(instance, fd.lhs()) {
        let tuples: Vec<&dq_relation::Tuple> = group
            .iter()
            .map(|&id| instance.tuple(id).expect("live tuple"))
            .collect();
        let mut cells = Vec::with_capacity(arity);
        for attr in 0..arity {
            let first = tuples[0].get(attr);
            let all_agree = tuples.iter().all(|t| t.get(attr) == first);
            if all_agree {
                cells.push(VValue::Const(first.clone()));
            } else {
                cells.push(VValue::Var(format!("v{var_counter}")));
                var_counter += 1;
            }
        }
        table.push(VTuple::new(cells));
    }
    table
}

/// Evaluates a conjunctive query naively over a nucleus: variables are
/// treated as distinct labelled nulls (they only join with themselves), and
/// only variable-free answers are returned.  For the FD/key nuclei built by
/// [`nucleus_for_fd`], these answers hold in every U-repair.
pub fn evaluate_on_nucleus(
    table: &VTable,
    relation_name: &str,
    query: &ConjunctiveQuery,
) -> BTreeSet<Vec<Value>> {
    // Bind query variables to VValues by nested-loop matching of atoms over
    // the nucleus tuples.
    fn extend(
        table: &VTable,
        relation_name: &str,
        atoms: &[Atom],
        binding: BTreeMap<String, VValue>,
    ) -> Vec<BTreeMap<String, VValue>> {
        let Some((atom, rest)) = atoms.split_first() else {
            return vec![binding];
        };
        if atom.relation != relation_name {
            return Vec::new();
        }
        let mut out = Vec::new();
        for tuple in table.tuples() {
            let mut extended = binding.clone();
            let mut ok = true;
            for (term, cell) in atom.terms.iter().zip(&tuple.cells) {
                match term {
                    Term::Const(c) => {
                        if cell != &VValue::Const(c.clone()) {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match extended.get(v) {
                        Some(bound) if bound != cell => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            extended.insert(v.clone(), cell.clone());
                        }
                    },
                }
            }
            if ok {
                out.extend(extend(table, relation_name, rest, extended));
            }
        }
        out
    }

    let bindings = extend(table, relation_name, &query.atoms, BTreeMap::new());
    let mut answers = BTreeSet::new();
    'bindings: for b in bindings {
        // Comparisons: only evaluable between constants; a comparison that
        // touches a variable is not certainly satisfied, so the binding is
        // discarded (sound, possibly incomplete).
        for c in &query.comparisons {
            let left = match &c.left {
                Term::Const(v) => Some(v.clone()),
                Term::Var(x) => match b.get(x) {
                    Some(VValue::Const(v)) => Some(v.clone()),
                    _ => None,
                },
            };
            let right = match &c.right {
                Term::Const(v) => Some(v.clone()),
                Term::Var(x) => match b.get(x) {
                    Some(VValue::Const(v)) => Some(v.clone()),
                    _ => None,
                },
            };
            match (left, right) {
                (Some(l), Some(r)) if c.op.eval(&l, &r) => {}
                _ => continue 'bindings,
            }
        }
        let mut row = Vec::with_capacity(query.head.len());
        let mut ground = true;
        for h in &query.head {
            match b.get(h) {
                Some(VValue::Const(v)) => row.push(v.clone()),
                _ => {
                    ground = false;
                    break;
                }
            }
        }
        if ground {
            answers.insert(row);
        }
    }
    answers
}

/// Statistics contrasting the nucleus with explicit repair enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NucleusStats {
    /// Tuples in the nucleus.
    pub nucleus_tuples: usize,
    /// Variables introduced.
    pub variables: usize,
    /// Number of U-repair choices the same instance admits when every
    /// variable ranges over its group's active values (the size of the
    /// represented world set).
    pub represented_worlds: usize,
}

/// Computes nucleus statistics for an instance under a key FD.
pub fn nucleus_stats(instance: &RelationInstance, fd: &Fd) -> NucleusStats {
    let nucleus = nucleus_for_fd(instance, fd);
    let mut worlds = 1usize;
    for (_, group) in crate::key_groups(instance, fd.lhs()) {
        let distinct: BTreeSet<Vec<Value>> = group
            .iter()
            .map(|&id| instance.tuple(id).expect("live tuple").project(fd.rhs()))
            .collect();
        worlds = worlds.saturating_mul(distinct.len().max(1));
    }
    NucleusStats {
        nucleus_tuples: nucleus.len(),
        variables: nucleus.variables().len(),
        represented_worlds: worlds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::DenialConstraint;
    use dq_cqa::{certain_answers_oracle, single_relation_db};
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "emp",
            [("name", Domain::Text), ("dept", Domain::Text)],
        ))
    }

    fn dirty() -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (n, d) in [("ann", "cs"), ("ann", "ee"), ("bob", "cs")] {
            inst.insert_values([Value::str(n), Value::str(d)]).unwrap();
        }
        inst
    }

    #[test]
    fn nucleus_merges_conflicting_groups_into_variables() {
        let fd = Fd::new(&schema(), &["name"], &["dept"]);
        let nucleus = nucleus_for_fd(&dirty(), &fd);
        assert_eq!(nucleus.len(), 2);
        assert_eq!(nucleus.variables().len(), 1);
        // The conflicted group became (ann, ?v), the clean one stayed ground.
        assert!(nucleus
            .tuples()
            .iter()
            .any(|t| t.cells[0] == VValue::val("ann") && t.cells[1].is_var()));
        assert!(nucleus
            .tuples()
            .iter()
            .any(|t| t.cells[0] == VValue::val("bob") && t.cells[1] == VValue::val("cs")));
    }

    #[test]
    fn nucleus_is_homomorphic_to_every_repair() {
        let fd = Fd::new(&schema(), &["name"], &["dept"]);
        let nucleus = nucleus_for_fd(&dirty(), &fd);
        let constraints = DenialConstraint::from_fd(&fd);
        for repair in dq_repair::enumerate_repairs(&dirty(), &constraints) {
            assert!(nucleus.homomorphic_to(&repair));
        }
    }

    #[test]
    fn nucleus_evaluation_agrees_with_the_certain_answer_oracle() {
        let fd = Fd::new(&schema(), &["name"], &["dept"]);
        let nucleus = nucleus_for_fd(&dirty(), &fd);
        let constraints = DenialConstraint::from_fd(&fd);
        let db = single_relation_db(dirty());
        let queries = vec![
            // q(n) :- emp(n, d)
            ConjunctiveQuery::new(
                vec!["n"],
                vec![Atom::new("emp", vec![Term::var("n"), Term::var("d")])],
                vec![],
            ),
            // q(d) :- emp('ann', d)
            ConjunctiveQuery::new(
                vec!["d"],
                vec![Atom::new("emp", vec![Term::val("ann"), Term::var("d")])],
                vec![],
            ),
            // q(d) :- emp('bob', d)
            ConjunctiveQuery::new(
                vec!["d"],
                vec![Atom::new("emp", vec![Term::val("bob"), Term::var("d")])],
                vec![],
            ),
        ];
        for q in &queries {
            let via_nucleus = evaluate_on_nucleus(&nucleus, "emp", q);
            let via_oracle = certain_answers_oracle(&db, "emp", &constraints, q).unwrap();
            assert_eq!(via_nucleus, via_oracle, "query {:?}", q.head);
        }
    }

    #[test]
    fn stats_expose_the_exponential_world_count() {
        let fd = Fd::new(&schema(), &["name"], &["dept"]);
        let (inst, _) = dq_repair::example_5_1_instance(10);
        let key = Fd::new(inst.schema(), &["A"], &["B"]);
        let stats = nucleus_stats(&inst, &key);
        // The nucleus stays linear (one tuple per key) while the number of
        // represented worlds is 2^10.
        assert_eq!(stats.nucleus_tuples, 10);
        assert_eq!(stats.variables, 10);
        assert_eq!(stats.represented_worlds, 1024);
        // And on the small dirty instance: 2 worlds, 2 tuples, 1 variable.
        let small = nucleus_stats(&dirty(), &fd);
        assert_eq!(small.represented_worlds, 2);
        assert_eq!(small.nucleus_tuples, 2);
    }
}
