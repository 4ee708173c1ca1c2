//! Certain answers by repair enumeration — the exact (exponential) oracle.
//!
//! Consistent query answering (Section 5.2) returns the tuples that are
//! answers to the query in *every* repair of the inconsistent database.  The
//! oracle materializes all repairs (via `dq-repair`) and intersects the
//! answer sets; it is the ground truth the first-order rewriting is validated
//! against, and the baseline whose exponential cost the rewriting avoids.

use dq_core::DenialConstraint;
use dq_relation::{ConjunctiveQuery, Database, DqResult, RelationInstance, Value};
use dq_repair::enumerate_repairs;
use std::collections::BTreeSet;

/// Certain answers of `query` over a database whose single relation
/// `relation` is constrained by `constraints` (the other relations, if any,
/// are assumed clean and shared by all repairs).  The enumeration's
/// per-candidate consistency checks run through one shared
/// [`DetectionEngine`](dq_core::engine::DetectionEngine), so FD/key-shaped
/// constraints are evaluated over interned partitions rather than quadratic
/// pair scans.
pub fn certain_answers_oracle(
    db: &Database,
    relation: &str,
    constraints: &[DenialConstraint],
    query: &ConjunctiveQuery,
) -> DqResult<BTreeSet<Vec<Value>>> {
    let dirty = db.require_relation(relation)?;
    let repairs = enumerate_repairs(dirty, constraints);
    let mut certain: Option<BTreeSet<Vec<Value>>> = None;
    for repair in repairs {
        let mut repaired_db = db.clone();
        repaired_db.add_relation(repair);
        let answers = query.evaluate(&repaired_db)?;
        certain = Some(match certain {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        });
    }
    Ok(certain.unwrap_or_default())
}

/// Number of repairs the oracle has to evaluate — the cost driver contrasted
/// with the rewriting in the benchmark.
pub fn repair_count(
    db: &Database,
    relation: &str,
    constraints: &[DenialConstraint],
) -> DqResult<usize> {
    let dirty = db.require_relation(relation)?;
    Ok(enumerate_repairs(dirty, constraints).len())
}

/// Convenience: the possible answers (answers in *some* repair), the
/// complement notion occasionally reported alongside certain answers.
pub fn possible_answers_oracle(
    db: &Database,
    relation: &str,
    constraints: &[DenialConstraint],
    query: &ConjunctiveQuery,
) -> DqResult<BTreeSet<Vec<Value>>> {
    let dirty = db.require_relation(relation)?;
    let repairs = enumerate_repairs(dirty, constraints);
    let mut possible = BTreeSet::new();
    for repair in repairs {
        let mut repaired_db = db.clone();
        repaired_db.add_relation(repair);
        possible.extend(query.evaluate(&repaired_db)?);
    }
    Ok(possible)
}

/// Helper for tests and benches: wraps a single instance into a database.
pub fn single_relation_db(instance: RelationInstance) -> Database {
    let mut db = Database::new();
    db.add_relation(instance);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::Fd;
    use dq_relation::{Atom, Domain, RelationSchema, Term};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "emp",
            [("name", Domain::Text), ("dept", Domain::Text)],
        ))
    }

    fn dirty_db() -> (Database, Vec<DenialConstraint>) {
        // name is a key; "ann" has two conflicting departments, "bob" one.
        let mut inst = RelationInstance::new(schema());
        for (n, d) in [("ann", "cs"), ("ann", "ee"), ("bob", "cs")] {
            inst.insert_values([Value::str(n), Value::str(d)]).unwrap();
        }
        let constraints = DenialConstraint::from_fd(&Fd::new(&schema(), &["name"], &["dept"]));
        (single_relation_db(inst), constraints)
    }

    #[test]
    fn certain_answers_drop_conflicting_facts() {
        let (db, constraints) = dirty_db();
        // q(n) :- emp(n, d)
        let q = ConjunctiveQuery::new(
            vec!["n"],
            vec![Atom::new("emp", vec![Term::var("n"), Term::var("d")])],
            vec![],
        );
        let certain = certain_answers_oracle(&db, "emp", &constraints, &q).unwrap();
        // Both names are certain: every repair keeps some tuple for ann.
        assert_eq!(certain.len(), 2);

        // q2(d) :- emp('ann', d): no department is certain for ann.
        let q2 = ConjunctiveQuery::new(
            vec!["d"],
            vec![Atom::new("emp", vec![Term::val("ann"), Term::var("d")])],
            vec![],
        );
        let certain2 = certain_answers_oracle(&db, "emp", &constraints, &q2).unwrap();
        assert!(certain2.is_empty());
        // But both departments are possible.
        let possible2 = possible_answers_oracle(&db, "emp", &constraints, &q2).unwrap();
        assert_eq!(possible2.len(), 2);

        // q3(d) :- emp('bob', d): bob's department is not in conflict.
        let q3 = ConjunctiveQuery::new(
            vec!["d"],
            vec![Atom::new("emp", vec![Term::val("bob"), Term::var("d")])],
            vec![],
        );
        let certain3 = certain_answers_oracle(&db, "emp", &constraints, &q3).unwrap();
        assert_eq!(certain3.len(), 1);
        assert!(certain3.contains(&vec![Value::str("cs")]));
    }

    #[test]
    fn repair_count_matches_conflict_structure() {
        let (db, constraints) = dirty_db();
        assert_eq!(repair_count(&db, "emp", &constraints).unwrap(), 2);
    }

    #[test]
    fn consistent_databases_behave_classically() {
        let mut inst = RelationInstance::new(schema());
        inst.insert_values([Value::str("ann"), Value::str("cs")])
            .unwrap();
        let constraints = DenialConstraint::from_fd(&Fd::new(&schema(), &["name"], &["dept"]));
        let db = single_relation_db(inst);
        let q = ConjunctiveQuery::new(
            vec!["d"],
            vec![Atom::new("emp", vec![Term::val("ann"), Term::var("d")])],
            vec![],
        );
        let certain = certain_answers_oracle(&db, "emp", &constraints, &q).unwrap();
        assert_eq!(certain.len(), 1);
    }
}
