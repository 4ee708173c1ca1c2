//! Insertion-based repair of CIND violations (the S-repair side).
//!
//! The S-repair model of \[7\] (Section 5.1) assumes the database is "neither
//! consistent nor complete" and allows tuple insertions as well as deletions.
//! Deletions never help against inclusion dependencies defined *into* a
//! relation other than the one being edited; the natural fix for a dangling
//! tuple is to insert the required counterpart — exactly the TGD chase step.
//! This module implements that chase for CINDs: for every violating LHS tuple
//! a new RHS tuple is created carrying the corresponding values on `Y`, the
//! required constants on `Yp`, and labelled-null placeholders (`Value::Null`)
//! everywhere else.

use dq_core::cind::Cind;
use dq_core::engine::DetectionEngine;
use dq_relation::{Database, DqResult, Tuple, TupleId, Value};

/// Configuration of the insertion chase.
#[derive(Clone, Debug)]
pub struct InsertionRepairConfig {
    /// Maximum number of chase rounds.  With acyclic CINDs the chase
    /// terminates on its own; the bound guards against cyclic sets (whose
    /// consistency problem is undecidable, Theorem 4.1).
    pub max_rounds: usize,
    /// Maximum number of tuples the chase may insert overall.
    pub max_insertions: usize,
}

impl Default for InsertionRepairConfig {
    fn default() -> Self {
        InsertionRepairConfig {
            max_rounds: 16,
            max_insertions: 100_000,
        }
    }
}

/// The outcome of the insertion repair.
#[derive(Clone, Debug)]
pub struct InsertionOutcome {
    /// The repaired database (the original plus the inserted tuples).
    pub repaired: Database,
    /// Inserted tuples: `(relation, tuple id)` in insertion order.
    pub inserted: Vec<(String, TupleId)>,
    /// Whether the result satisfies every input CIND.
    pub consistent: bool,
    /// Chase rounds used.
    pub rounds: usize,
}

impl InsertionOutcome {
    /// Number of inserted tuples.
    pub fn insertion_count(&self) -> usize {
        self.inserted.len()
    }
}

/// Repairs CIND violations by inserting the missing right-hand-side tuples
/// (a bounded TGD-style chase).
///
/// Every chase round detects through one [`DetectionEngine`] carried across
/// the rounds, probing its pooled interned RHS indexes; since the chase
/// only *inserts*, each round's detection extends the previous round's
/// indexes in place (the append-only pool fast path) rather than
/// rebuilding them.
pub fn repair_cind_violations_by_insertion(
    db: &Database,
    cinds: &[Cind],
    config: &InsertionRepairConfig,
) -> DqResult<InsertionOutcome> {
    let engine = DetectionEngine::new();
    // Per-CIND detection inside the round (not one batched report up
    // front): an insertion made for one CIND can already satisfy — or
    // newly violate — the next one.
    let detect = |db: &Database, cind: &Cind| -> DqResult<Vec<dq_core::cind::CindViolation>> {
        Ok(engine
            .detect_cind_violations(db, std::slice::from_ref(cind))?
            .of(0)
            .to_vec())
    };
    let mut repaired = db.clone();
    let mut inserted = Vec::new();
    let mut rounds = 0;

    'chase: while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;
        for cind in cinds {
            let violations = detect(&repaired, cind)?;
            if violations.is_empty() {
                continue;
            }
            let rhs_schema = cind.rhs_schema().clone();
            let rhs_relation = rhs_schema.name().to_string();
            for violation in violations {
                if inserted.len() >= config.max_insertions {
                    break 'chase;
                }
                // The dangling LHS tuple and the pattern row it matched.
                let lhs_instance = repaired.require_relation(cind.lhs_schema().name())?;
                let Some(lhs_tuple) = lhs_instance.tuple(violation.tuple) else {
                    continue;
                };
                let pattern = &cind.tableau()[violation.pattern];

                // Build the required RHS tuple: Y ← t[X], Yp ← pattern
                // constants, everything else a labelled null.
                let mut values = vec![Value::Null; rhs_schema.arity()];
                for (x, y) in cind.lhs_attrs().iter().zip(cind.rhs_attrs()) {
                    values[*y] = lhs_tuple.get(*x).clone();
                }
                for (constant, yp) in pattern.rhs.iter().zip(cind.rhs_pattern_attrs()) {
                    values[*yp] = constant.clone();
                }
                let target = repaired.relation_mut(&rhs_relation).ok_or_else(|| {
                    dq_relation::DqError::UnknownRelation {
                        relation: rhs_relation.clone(),
                    }
                })?;
                let id = target.insert(Tuple::new(values))?;
                inserted.push((rhs_relation.clone(), id));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut consistent = true;
    for cind in cinds {
        if !detect(&repaired, cind)?.is_empty() {
            consistent = false;
            break;
        }
    }
    Ok(InsertionOutcome {
        repaired,
        inserted,
        consistent,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::cind::CindPattern;
    use dq_relation::{Domain, RelationInstance, RelationSchema};
    use std::sync::Arc;

    fn source_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "src",
            [("k", Domain::Text), ("kind", Domain::Text)],
        ))
    }

    fn target_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "dst",
            [
                ("k", Domain::Text),
                ("label", Domain::Text),
                ("extra", Domain::Int),
            ],
        ))
    }

    /// `src[k; kind = 'a'] ⊆ dst[k; label = 'A']`.
    fn cind() -> Cind {
        Cind::new(
            &source_schema(),
            &["k"],
            &["kind"],
            &target_schema(),
            &["k"],
            &["label"],
            vec![CindPattern::new(
                vec![Value::str("a")],
                vec![Value::str("A")],
            )],
        )
        .unwrap()
    }

    fn database(src_rows: &[(&str, &str)], dst_rows: &[(&str, &str, i64)]) -> Database {
        let mut src = RelationInstance::new(source_schema());
        for (k, kind) in src_rows {
            src.insert_values([Value::str(*k), Value::str(*kind)])
                .unwrap();
        }
        let mut dst = RelationInstance::new(target_schema());
        for (k, label, extra) in dst_rows {
            dst.insert_values([Value::str(*k), Value::str(*label), Value::int(*extra)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_relation(src);
        db.add_relation(dst);
        db
    }

    #[test]
    fn inserts_exactly_the_missing_counterparts() {
        let db = database(&[("x", "a"), ("y", "a"), ("z", "b")], &[("x", "A", 1)]);
        let cind = cind();
        assert!(!cind.holds_on(&db).unwrap());
        let outcome = repair_cind_violations_by_insertion(
            &db,
            std::slice::from_ref(&cind),
            &InsertionRepairConfig::default(),
        )
        .unwrap();
        assert!(outcome.consistent);
        assert_eq!(outcome.insertion_count(), 1, "only `y` was dangling");
        let dst = outcome.repaired.relation("dst").unwrap();
        assert_eq!(dst.len(), 2);
        let inserted = dst.tuple(outcome.inserted[0].1).unwrap();
        assert_eq!(inserted.get(0), &Value::str("y"));
        assert_eq!(inserted.get(1), &Value::str("A"));
        assert!(
            inserted.get(2).is_null(),
            "unconstrained attributes stay null"
        );
        // The source relation is untouched (no deletions in this model).
        assert_eq!(outcome.repaired.relation("src").unwrap().len(), 3);
    }

    #[test]
    fn consistent_database_is_untouched() {
        let db = database(&[("x", "a"), ("z", "b")], &[("x", "A", 1)]);
        let outcome =
            repair_cind_violations_by_insertion(&db, &[cind()], &InsertionRepairConfig::default())
                .unwrap();
        assert!(outcome.consistent);
        assert_eq!(outcome.insertion_count(), 0);
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn cascading_cinds_chase_to_completion() {
        // src ⊆ dst (as above) and dst[k; label='A'] ⊆ archive[k].
        let archive_schema = Arc::new(RelationSchema::new("archive", [("k", Domain::Text)]));
        let second = Cind::new(
            &target_schema(),
            &["k"],
            &["label"],
            &archive_schema,
            &["k"],
            &[],
            vec![CindPattern::new(vec![Value::str("A")], vec![])],
        )
        .unwrap();
        let mut db = database(&[("x", "a")], &[]);
        db.add_relation(RelationInstance::new(archive_schema));
        let outcome = repair_cind_violations_by_insertion(
            &db,
            &[cind(), second],
            &InsertionRepairConfig::default(),
        )
        .unwrap();
        assert!(outcome.consistent);
        // One dst tuple for x, then one archive tuple for that dst tuple.
        assert_eq!(outcome.insertion_count(), 2);
        assert_eq!(outcome.repaired.relation("archive").unwrap().len(), 1);
        assert!(outcome.rounds >= 2);
    }

    #[test]
    fn insertion_budget_bounds_cyclic_sets() {
        // A cyclic pair: src[k;kind='a'] ⊆ dst[k;label='A'] and
        // dst[k;label='A'] ⊆ src[k;kind='b'] — each inserted dst row demands a
        // `b`-kind src row, which is harmless, but make the second one demand
        // kind='a' instead and the chase would run forever without the bound.
        let back = Cind::new(
            &target_schema(),
            &["label"],
            &["label"],
            &source_schema(),
            &["kind"],
            &["kind"],
            vec![CindPattern::new(
                vec![Value::str("A")],
                vec![Value::str("a")],
            )],
        )
        .unwrap();
        let db = database(&[("x", "a")], &[]);
        let config = InsertionRepairConfig {
            max_rounds: 4,
            max_insertions: 10,
        };
        let outcome = repair_cind_violations_by_insertion(&db, &[cind(), back], &config).unwrap();
        assert!(outcome.insertion_count() <= 10);
        assert!(outcome.rounds <= 4);
    }

    #[test]
    fn engine_carried_chase_inserts_round_by_round() {
        let archive_schema = Arc::new(RelationSchema::new("archive", [("k", Domain::Text)]));
        let second = Cind::new(
            &target_schema(),
            &["k"],
            &["label"],
            &archive_schema,
            &["k"],
            &[],
            vec![CindPattern::new(vec![Value::str("A")], vec![])],
        )
        .unwrap();
        let mut db = database(&[("x", "a"), ("y", "a"), ("z", "b")], &[("x", "A", 1)]);
        db.add_relation(RelationInstance::new(archive_schema));
        let outcome = repair_cind_violations_by_insertion(
            &db,
            &[cind(), second],
            &InsertionRepairConfig::default(),
        )
        .unwrap();
        // Round 1: `y` gets its dst tuple, which the second CIND (checked
        // after the insertion) then demands in the archive beside `x`.
        // Round 2 finds nothing left to do.
        assert_eq!(
            outcome.inserted,
            vec![
                ("dst".to_string(), TupleId(1)),
                ("archive".to_string(), TupleId(0)),
                ("archive".to_string(), TupleId(1)),
            ]
        );
        assert_eq!(outcome.rounds, 2);
        assert!(outcome.consistent);
        let archive = outcome.repaired.relation("archive").unwrap();
        let keys: Vec<&Value> = archive.iter().map(|(_, t)| t.get(0)).collect();
        assert_eq!(keys, [&Value::str("x"), &Value::str("y")]);
        let dst = outcome.repaired.relation("dst").unwrap();
        assert_eq!(dst.tuple(TupleId(1)).unwrap().get(0), &Value::str("y"));
    }

    #[test]
    fn paper_cind3_is_repaired_by_inserting_the_audio_edition() {
        // Fig. 3 / cind3: the audio-book CD t9 has no audio edition in book;
        // insertion repair adds it.
        let db = dq_gen::orders::paper_database();
        let cinds = dq_gen::orders::paper_cinds();
        assert!(!cinds[2].holds_on(&db).unwrap());
        let outcome =
            repair_cind_violations_by_insertion(&db, &cinds, &InsertionRepairConfig::default())
                .unwrap();
        assert!(outcome.consistent);
        assert_eq!(outcome.insertion_count(), 1);
        let book = outcome.repaired.relation("book").unwrap();
        let added = book.tuple(outcome.inserted[0].1).unwrap();
        let title = book.schema().attr("title");
        let format = book.schema().attr("format");
        assert_eq!(added.get(title), &Value::str("Snow White"));
        assert_eq!(added.get(format), &Value::str("audio"));
    }
}
