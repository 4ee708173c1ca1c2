//! First-order rewriting for consistent query answering under key
//! constraints (Section 5.2, the approach of [7]/[43]).
//!
//! For primary keys and queries in the tree-shaped class `C_tree` (join graph
//! a forest, every non-key-to-key join *full*, no repeated relation atoms),
//! certain answers can be computed by evaluating a first-order rewriting of
//! the query directly on the inconsistent database — PTIME data complexity,
//! versus the exponential repair-enumeration oracle.
//!
//! The module provides
//!
//! * [`KeySpec`] — the primary key of a relation;
//! * [`classify_tree_query`] — the `C_tree` membership test, which also
//!   produces the evaluation plan (root atoms and parent/child join edges);
//! * [`certain_answers_rewriting`] — the PTIME evaluation of the rewriting
//!   (candidates come from the ordinary evaluation of the query; each
//!   candidate is certified by the group-wise ∀-check that the rewriting
//!   expresses);
//! * [`rewrite_single_atom`] — the explicit [`FoQuery`] rewriting for
//!   single-atom queries, evaluated by the `dq-relation` FO engine, to make
//!   the rewritten query inspectable.

use dq_relation::par::available_threads;
use dq_relation::{
    Atom, CompOp, Comparison, ConjunctiveQuery, Database, DqError, DqResult, FoQuery, Formula,
    InternedIndex, Term, Value,
};
use std::collections::{BTreeMap, BTreeSet};

/// The primary key of a relation, by attribute positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeySpec {
    /// Relation name.
    pub relation: String,
    /// Key attribute positions.
    pub key: Vec<usize>,
}

impl KeySpec {
    /// Creates a key specification.
    pub fn new(relation: impl Into<String>, key: Vec<usize>) -> Self {
        KeySpec {
            relation: relation.into(),
            key,
        }
    }
}

/// The key positions declared for `atom`'s relation, each checked to name
/// one of the atom's terms.
fn key_positions<'a>(keys: &'a [KeySpec], atom: &Atom) -> DqResult<&'a [usize]> {
    let key = keys
        .iter()
        .find(|k| k.relation == atom.relation)
        .ok_or_else(|| DqError::MalformedQuery {
            reason: format!("no key declared for relation `{}`", atom.relation),
        })?;
    match key.key.iter().find(|&&p| p >= atom.terms.len()) {
        Some(p) => Err(DqError::MalformedQuery {
            reason: format!(
                "key position {p} of `{}` is outside its {}-term atom",
                atom.relation,
                atom.terms.len()
            ),
        }),
        None => Ok(&key.key),
    }
}

/// The evaluation plan produced by [`classify_tree_query`].
#[derive(Clone, Debug)]
pub struct TreePlan {
    /// Atom indexes in a valid processing order (parents before children).
    pub order: Vec<usize>,
    /// For each atom (by index), the children reached through its non-key
    /// variables.
    pub children: BTreeMap<usize, Vec<usize>>,
    /// Atoms whose keys are bound by constants or head variables only.
    pub roots: Vec<usize>,
}

/// Checks that the query is in the supported tree class and derives the
/// evaluation plan: every atom's key must be bound either by constants/head
/// variables (a root) or by the non-key variables of exactly one earlier atom
/// (a full non-key-to-key join), and no relation may appear twice.
pub fn classify_tree_query(query: &ConjunctiveQuery, keys: &[KeySpec]) -> DqResult<TreePlan> {
    let mut seen_relations = BTreeSet::new();
    for atom in &query.atoms {
        if !seen_relations.insert(atom.relation.clone()) {
            return Err(DqError::MalformedQuery {
                reason: format!("relation `{}` occurs twice (outside C_tree)", atom.relation),
            });
        }
    }
    let head: BTreeSet<&str> = query.head.iter().map(|s| s.as_str()).collect();
    let mut bound_by: Vec<Option<usize>> = vec![None; query.atoms.len()]; // parent atom
    let mut order = Vec::new();
    let mut roots = Vec::new();
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut placed = vec![false; query.atoms.len()];

    // Variables offered by already-placed atoms (their non-key positions).
    let mut available: BTreeMap<String, usize> = BTreeMap::new(); // var -> offering atom

    loop {
        let mut progressed = false;
        for (i, atom) in query.atoms.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let key_pos = key_positions(keys, atom)?;
            // Terms in key positions must each be a constant, a head
            // variable, or a variable offered by a single placed atom.
            let mut parents: BTreeSet<usize> = BTreeSet::new();
            let mut ok = true;
            for &p in key_pos {
                match &atom.terms[p] {
                    Term::Const(_) => {}
                    Term::Var(v) if head.contains(v.as_str()) => {}
                    Term::Var(v) => match available.get(v) {
                        Some(&parent) => {
                            parents.insert(parent);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if !ok || parents.len() > 1 {
                continue;
            }
            // Place the atom.
            placed[i] = true;
            progressed = true;
            order.push(i);
            match parents.into_iter().next() {
                Some(parent) => {
                    bound_by[i] = Some(parent);
                    children.entry(parent).or_default().push(i);
                }
                None => roots.push(i),
            }
            // Offer this atom's non-key variables to later atoms.
            for (pos, term) in atom.terms.iter().enumerate() {
                if key_pos.contains(&pos) {
                    continue;
                }
                if let Term::Var(v) = term {
                    available.entry(v.clone()).or_insert(i);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if order.len() != query.atoms.len() {
        return Err(DqError::MalformedQuery {
            reason: "query is outside the supported tree class (C_tree)".into(),
        });
    }
    Ok(TreePlan {
        order,
        children,
        roots,
    })
}

fn resolve(term: &Term, binding: &BTreeMap<String, Value>) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Var(v) => binding.get(v).cloned(),
    }
}

/// Does the subtree rooted at `atom_idx` *certainly* hold under `binding`?
///
/// The check mirrors the ∀ part of the rewriting: the key group selected by
/// the (fully bound) key terms must be nonempty, and *every* tuple of the
/// group must be compatible with the atom's non-key terms, satisfy the
/// fully-bound comparisons, and recursively certify the children.
fn atom_certain(
    db: &Database,
    query: &ConjunctiveQuery,
    plan: &TreePlan,
    indexes: &[InternedIndex],
    atom_idx: usize,
    binding: &BTreeMap<String, Value>,
) -> DqResult<bool> {
    let atom = &query.atoms[atom_idx];
    let index = &indexes[atom_idx];
    let key_pos = index.attrs();
    let relation = db.require_relation(&atom.relation)?;
    let key_values: Option<Vec<Value>> = key_pos
        .iter()
        .map(|&p| resolve(&atom.terms[p], binding))
        .collect();
    let Some(key_values) = key_values else {
        return Err(DqError::MalformedQuery {
            reason: "key variable unbound during certain evaluation".into(),
        });
    };
    let rows = index.rows_for_values(&key_values);
    if rows.is_empty() {
        return Ok(false);
    }
    for &row in rows {
        let tuple = relation.tuple(index.tuple_id(row)).expect("live tuple");
        let mut extended = binding.clone();
        for (pos, term) in atom.terms.iter().enumerate() {
            if key_pos.contains(&pos) {
                continue;
            }
            match term {
                Term::Const(c) => {
                    if tuple.get(pos) != c {
                        return Ok(false);
                    }
                }
                Term::Var(v) => match extended.get(v) {
                    Some(bound) if bound != tuple.get(pos) => return Ok(false),
                    Some(_) => {}
                    None => {
                        extended.insert(v.clone(), tuple.get(pos).clone());
                    }
                },
            }
        }
        // Comparisons that are fully bound must hold for every group member.
        for c in &query.comparisons {
            if let (Some(l), Some(r)) = (resolve(&c.left, &extended), resolve(&c.right, &extended))
            {
                if !c.op.eval(&l, &r) {
                    return Ok(false);
                }
            }
        }
        for &child in plan
            .children
            .get(&atom_idx)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
        {
            if !atom_certain(db, query, plan, indexes, child, &extended)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Certain answers of a tree-class query under primary key constraints, in
/// PTIME data complexity, evaluated directly on the inconsistent database.
///
/// Candidates come from the ordinary evaluation of the query on the dirty
/// database: a certain answer is an answer in every repair, and repairs are
/// subsets, so every certain answer is among them.  Each candidate is then
/// certified group-wise from the root atoms down, probing one interned key
/// index per atom (packed keys, CSR groups) built once per call.
pub fn certain_answers_rewriting(
    db: &Database,
    keys: &[KeySpec],
    query: &ConjunctiveQuery,
) -> DqResult<BTreeSet<Vec<Value>>> {
    let plan = classify_tree_query(query, keys)?; // reject unsupported queries first

    // Relations occur once per C_tree query: one key index per atom.
    let mut indexes = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let relation = db.require_relation(&atom.relation)?;
        if atom.terms.len() != relation.schema().arity() {
            return Err(DqError::MalformedQuery {
                reason: format!(
                    "atom over `{}` has {} terms but the relation has arity {}",
                    atom.relation,
                    atom.terms.len(),
                    relation.schema().arity()
                ),
            });
        }
        let key = key_positions(keys, atom)?;
        indexes.push(InternedIndex::build(
            relation,
            &relation.columnar(),
            key,
            available_threads(),
        ));
    }
    let candidates = query.evaluate(db)?;
    let mut certain = BTreeSet::new();
    'candidates: for candidate in candidates {
        let binding: BTreeMap<String, Value> = query
            .head
            .iter()
            .cloned()
            .zip(candidate.iter().cloned())
            .collect();
        for &root in &plan.roots {
            if !atom_certain(db, query, &plan, &indexes, root, &binding)? {
                continue 'candidates;
            }
        }
        certain.insert(candidate);
    }
    Ok(certain)
}

/// The explicit first-order rewriting of a single-atom query
/// `q(x̄) :- R(t̄)` under the primary key of `R`:
///
/// `q'(x̄) = R(t̄) ∧ ¬∃ ȳ ( R(k̄, ȳ) ∧ ⋁_i  yᵢ "disagrees with" tᵢ )`
///
/// where `k̄` are the key terms of the atom and `ȳ` fresh variables for the
/// non-key positions.  Evaluating `q'` on the dirty database returns exactly
/// the certain answers.
pub fn rewrite_single_atom(query: &ConjunctiveQuery, keys: &[KeySpec]) -> DqResult<FoQuery> {
    if query.atoms.len() != 1 || !query.comparisons.is_empty() {
        return Err(DqError::MalformedQuery {
            reason: "rewrite_single_atom expects exactly one atom and no comparisons".into(),
        });
    }
    let atom = &query.atoms[0];
    let key_pos = key_positions(keys, atom)?;
    let head: BTreeSet<&str> = query.head.iter().map(|s| s.as_str()).collect();
    // Fresh variables for the non-key positions of the negated atom.  Only
    // positions carrying a constant or a head variable constrain the group:
    // a purely existential variable is free to take whatever value the
    // chosen tuple has, so it contributes no disagreement disjunct.
    let mut negated_terms = Vec::with_capacity(atom.terms.len());
    let mut fresh_vars = Vec::new();
    let mut disagreements = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        if key_pos.contains(&pos) {
            negated_terms.push(term.clone());
            continue;
        }
        let fresh = format!("__y{pos}");
        negated_terms.push(Term::var(fresh.clone()));
        fresh_vars.push(fresh.clone());
        let constrains = match term {
            Term::Const(_) => true,
            Term::Var(v) => head.contains(v.as_str()),
        };
        if constrains {
            disagreements.push(Formula::Comparison(Comparison::new(
                Term::var(fresh),
                CompOp::Ne,
                term.clone(),
            )));
        }
    }
    let mut body = vec![Formula::Atom(atom.clone())];
    if !disagreements.is_empty() {
        body.push(Formula::Not(Box::new(Formula::Exists(
            fresh_vars,
            Box::new(Formula::And(vec![
                Formula::Atom(Atom::new(atom.relation.clone(), negated_terms)),
                Formula::Or(disagreements),
            ])),
        ))));
    }
    Ok(FoQuery {
        head: query.head.clone(),
        body: Formula::And(body),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::certain_answers_oracle;
    use dq_core::{DenialConstraint, Fd};
    use dq_relation::{Domain, RelationInstance, RelationSchema};
    use std::sync::Arc;

    fn emp_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "emp",
            [
                ("name", Domain::Text),
                ("dept", Domain::Text),
                ("grade", Domain::Int),
            ],
        ))
    }

    fn dept_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "dept",
            [("dname", Domain::Text), ("mgr", Domain::Text)],
        ))
    }

    fn keys() -> Vec<KeySpec> {
        vec![KeySpec::new("emp", vec![0]), KeySpec::new("dept", vec![0])]
    }

    fn dirty_db() -> Database {
        let mut emp = RelationInstance::new(emp_schema());
        for (n, d, g) in [
            ("ann", "cs", 1),
            ("ann", "ee", 1),
            ("bob", "cs", 2),
            ("carol", "me", 3),
        ] {
            emp.insert_values([Value::str(n), Value::str(d), Value::int(g)])
                .unwrap();
        }
        let mut dept = RelationInstance::new(dept_schema());
        for (d, m) in [
            ("cs", "dana"),
            ("cs", "derek"),
            ("ee", "erin"),
            ("me", "mo"),
        ] {
            dept.insert_values([Value::str(d), Value::str(m)]).unwrap();
        }
        let mut db = Database::new();
        db.add_relation(emp);
        db.add_relation(dept);
        db
    }

    #[test]
    fn single_atom_rewriting_matches_the_oracle() {
        let db = dirty_db();
        let constraints =
            DenialConstraint::from_fd(&Fd::new(&emp_schema(), &["name"], &["dept", "grade"]));
        // q(n, d) :- emp(n, d, g)
        let q = ConjunctiveQuery::new(
            vec!["n", "d"],
            vec![Atom::new(
                "emp",
                vec![Term::var("n"), Term::var("d"), Term::var("g")],
            )],
            vec![],
        );
        let fast = certain_answers_rewriting(&db, &keys(), &q).unwrap();
        let slow = certain_answers_oracle(&db, "emp", &constraints, &q).unwrap();
        assert_eq!(fast, slow);
        // ann's department is uncertain, bob's and carol's are not.
        assert_eq!(fast.len(), 2);
        assert!(fast.contains(&vec![Value::str("bob"), Value::str("cs")]));
        assert!(fast.contains(&vec![Value::str("carol"), Value::str("me")]));
    }

    #[test]
    fn explicit_fo_rewriting_agrees_with_the_evaluator() {
        let db = dirty_db();
        let q = ConjunctiveQuery::new(
            vec!["n", "d"],
            vec![Atom::new(
                "emp",
                vec![Term::var("n"), Term::var("d"), Term::var("g")],
            )],
            vec![],
        );
        let rewritten = rewrite_single_atom(&q, &keys()).unwrap();
        let via_fo = rewritten.evaluate(&db).unwrap();
        let via_plan = certain_answers_rewriting(&db, &keys(), &q).unwrap();
        assert_eq!(via_fo, via_plan);
    }

    #[test]
    fn join_query_certainty_requires_all_group_members_to_agree() {
        let db = dirty_db();
        // q(n, m) :- emp(n, d, g), dept(d, m): the manager of ann is
        // uncertain twice over (her department and cs's manager are both in
        // conflict); carol's manager is certain.
        let q = ConjunctiveQuery::new(
            vec!["n", "m"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]),
                Atom::new("dept", vec![Term::var("d"), Term::var("m")]),
            ],
            vec![],
        );
        let certain = certain_answers_rewriting(&db, &keys(), &q).unwrap();
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&vec![Value::str("carol"), Value::str("mo")]));
        // Existential query: q2(n) :- emp(n, d, g), dept(d, m) — every
        // employee whose department certainly exists qualifies, whichever
        // repair is chosen.
        let q2 = ConjunctiveQuery::new(
            vec!["n"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]),
                Atom::new("dept", vec![Term::var("d"), Term::var("m")]),
            ],
            vec![],
        );
        let certain2 = certain_answers_rewriting(&db, &keys(), &q2).unwrap();
        assert_eq!(certain2.len(), 3);
    }

    #[test]
    fn comparisons_are_enforced_group_wide() {
        let db = dirty_db();
        // q(n) :- emp(n, d, g), g > 1: ann's grade is 1 in both conflicting
        // tuples, bob and carol qualify certainly.
        let q = ConjunctiveQuery::new(
            vec!["n"],
            vec![Atom::new(
                "emp",
                vec![Term::var("n"), Term::var("d"), Term::var("g")],
            )],
            vec![Comparison::new(Term::var("g"), CompOp::Gt, Term::val(1i64))],
        );
        let certain = certain_answers_rewriting(&db, &keys(), &q).unwrap();
        assert_eq!(certain.len(), 2);
        assert!(!certain.contains(&vec![Value::str("ann")]));
    }

    #[test]
    fn queries_outside_the_class_are_rejected() {
        // Repeated relation atom.
        let q = ConjunctiveQuery::new(
            vec!["n"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]),
                Atom::new(
                    "emp",
                    vec![Term::var("n2"), Term::var("d"), Term::var("g2")],
                ),
            ],
            vec![],
        );
        assert!(classify_tree_query(&q, &keys()).is_err());
        // Key of dept bound by nothing (cross product on non-key attrs).
        let q2 = ConjunctiveQuery::new(
            vec!["n"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]),
                Atom::new("dept", vec![Term::var("other"), Term::var("m")]),
            ],
            vec![],
        );
        assert!(classify_tree_query(&q2, &keys()).is_err());
        // Key positions past the atom's terms: key [5] on a 2-term atom,
        // key [1] on a 1-term atom.
        let db = dirty_db();
        for (key, terms) in [
            (5, vec![Term::var("n"), Term::var("d")]),
            (1, vec![Term::var("n")]),
        ] {
            let keys = vec![KeySpec::new("emp", vec![key])];
            let q = ConjunctiveQuery::new(vec!["n"], vec![Atom::new("emp", terms)], vec![]);
            for result in [
                classify_tree_query(&q, &keys).map(|_| ()),
                certain_answers_rewriting(&db, &keys, &q).map(|_| ()),
                rewrite_single_atom(&q, &keys).map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(DqError::MalformedQuery { .. })),
                    "key [{key}]: {result:?}"
                );
            }
        }
        // An atom with more terms than its relation has columns, keyed past
        // the relation's last column (bound by the head, so the query is
        // in C_tree).
        let keys = vec![KeySpec::new("dept", vec![2])];
        let q = ConjunctiveQuery::new(
            vec!["x"],
            vec![Atom::new(
                "dept",
                vec![Term::var("d"), Term::var("m"), Term::var("x")],
            )],
            vec![],
        );
        assert!(classify_tree_query(&q, &keys).is_ok());
        assert!(matches!(
            certain_answers_rewriting(&db, &keys, &q),
            Err(DqError::MalformedQuery { .. })
        ));
    }

    #[test]
    fn plan_structure_for_a_join_query() {
        let q = ConjunctiveQuery::new(
            vec!["n"],
            vec![
                Atom::new("emp", vec![Term::var("n"), Term::var("d"), Term::var("g")]),
                Atom::new("dept", vec![Term::var("d"), Term::var("m")]),
            ],
            vec![],
        );
        let plan = classify_tree_query(&q, &keys()).unwrap();
        assert_eq!(plan.roots, vec![0]);
        assert_eq!(plan.children.get(&0), Some(&vec![1]));
        assert_eq!(plan.order, vec![0, 1]);
    }
}
