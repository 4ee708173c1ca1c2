//! Traditional inclusion dependencies (INDs).
//!
//! An IND `R1[X] ⊆ R2[Y]` requires every `X`-projection of an `R1` tuple to
//! appear as a `Y`-projection of some `R2` tuple.  INDs are always
//! satisfiable (by empty or carefully constructed instances); their
//! implication problem is PSPACE-complete (Table 1).  We implement
//! satisfaction checking, violation detection and a chase-based implication
//! procedure that is exact for acyclic IND sets and bounded (sound,
//! possibly incomplete) in general.

use crate::engine::DetectionEngine;
use dq_relation::{
    Database, DistinctSet, DqError, DqResult, IdTranslation, InternedIndex, RelationSchema,
    TupleId, Value, ValueId,
};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// An inclusion dependency `R1[X] ⊆ R2[Y]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ind {
    lhs_relation: String,
    rhs_relation: String,
    lhs_attrs: Vec<usize>,
    rhs_attrs: Vec<usize>,
}

impl Ind {
    /// Creates an IND from schemas and attribute names.
    pub fn new(
        lhs_schema: &Arc<RelationSchema>,
        lhs_attrs: &[&str],
        rhs_schema: &Arc<RelationSchema>,
        rhs_attrs: &[&str],
    ) -> DqResult<Self> {
        if lhs_attrs.len() != rhs_attrs.len() {
            return Err(DqError::MalformedDependency {
                reason: format!(
                    "IND with {} LHS attributes but {} RHS attributes",
                    lhs_attrs.len(),
                    rhs_attrs.len()
                ),
            });
        }
        Ok(Ind {
            lhs_relation: lhs_schema.name().to_string(),
            rhs_relation: rhs_schema.name().to_string(),
            lhs_attrs: lhs_attrs
                .iter()
                .map(|a| lhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
            rhs_attrs: rhs_attrs
                .iter()
                .map(|a| rhs_schema.require_attr(a))
                .collect::<DqResult<_>>()?,
        })
    }

    /// Creates an IND directly from relation names and attribute positions.
    pub fn from_indices(
        lhs_relation: impl Into<String>,
        lhs_attrs: Vec<usize>,
        rhs_relation: impl Into<String>,
        rhs_attrs: Vec<usize>,
    ) -> Self {
        Ind {
            lhs_relation: lhs_relation.into(),
            rhs_relation: rhs_relation.into(),
            lhs_attrs,
            rhs_attrs,
        }
    }

    /// Left-hand (including) relation name.
    pub fn lhs_relation(&self) -> &str {
        &self.lhs_relation
    }

    /// Right-hand (included-in) relation name.
    pub fn rhs_relation(&self) -> &str {
        &self.rhs_relation
    }

    /// Left-hand attribute positions.
    pub fn lhs_attrs(&self) -> &[usize] {
        &self.lhs_attrs
    }

    /// Right-hand attribute positions.
    pub fn rhs_attrs(&self) -> &[usize] {
        &self.rhs_attrs
    }

    /// Does the database satisfy this IND?  The default-engine form of
    /// [`DetectionEngine::ind_holds`] without null exemption: a `NULL` in
    /// an `X` position matches no RHS tuple.
    pub fn holds_on(&self, db: &Database) -> DqResult<bool> {
        DetectionEngine::new().ind_holds(db, self, false)
    }

    /// The LHS tuples with no matching RHS tuple, computed against an
    /// *interned* index of the LHS relation on exactly `X` and a
    /// distinct-projection set of the RHS relation on exactly `Y` — the
    /// kernel behind [`DetectionEngine::detect_ind_violations`].  Each
    /// distinct LHS projection is translated into the RHS dictionaries once
    /// — via [`IdTranslation`], `O(distinct values)` setup — and probed
    /// once, so the cost is per *distinct key*, not per tuple.  With
    /// `ignore_nulls`, projections carrying `NULL` are exempt (SQL's
    /// foreign-key semantics).  Output (ascending tuple ids) equals
    /// [`crate::reference::ind_violations`].
    pub(crate) fn violations_with_interned(
        &self,
        lhs_index: &InternedIndex,
        rhs: &DistinctSet,
        ignore_nulls: bool,
    ) -> Vec<TupleId> {
        debug_assert_eq!(lhs_index.attrs(), self.lhs_attrs.as_slice());
        debug_assert_eq!(rhs.attrs(), self.rhs_attrs.as_slice());
        let translation = IdTranslation::new(lhs_index.columns(), rhs.columns());
        let null_ids: Vec<Option<ValueId>> = lhs_index
            .columns()
            .iter()
            .map(|c| c.interner().lookup(&Value::Null))
            .collect();
        let mut bad_rows: Vec<u32> = Vec::new();
        let mut translated = Vec::with_capacity(self.lhs_attrs.len());
        for (ids, rows) in lhs_index.groups() {
            if ignore_nulls
                && ids
                    .iter()
                    .zip(&null_ids)
                    .any(|(id, null)| Some(*id) == *null)
            {
                continue;
            }
            if translation.translate(&ids, &mut translated) && rhs.contains_ids(&translated) {
                continue;
            }
            bad_rows.extend_from_slice(rows);
        }
        // Store rows are in insertion order, so sorted rows give ascending
        // tuple ids.
        bad_rows.sort_unstable();
        bad_rows
            .into_iter()
            .map(|r| lhs_index.tuple_id(r))
            .collect()
    }
}

impl fmt::Display for Ind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?}] ⊆ {}[{:?}]",
            self.lhs_relation, self.lhs_attrs, self.rhs_relation, self.rhs_attrs
        )
    }
}

/// Is the IND set acyclic (no cycle among relation names in the "included
/// in" graph)?  Repair checking for FDs + acyclic INDs is PTIME
/// (Theorem 5.1), and the chase below is guaranteed to terminate for acyclic
/// sets.
pub fn is_acyclic(inds: &[Ind]) -> bool {
    if inds.iter().any(|i| i.lhs_relation() == i.rhs_relation()) {
        return false;
    }
    let nodes: BTreeSet<&str> = inds
        .iter()
        .flat_map(|i| [i.lhs_relation(), i.rhs_relation()])
        .collect();
    let edges: Vec<(&str, &str)> = inds
        .iter()
        .map(|i| (i.lhs_relation(), i.rhs_relation()))
        .collect();
    // Depth-first search with colouring: a back edge means a cycle.
    fn visit<'a>(
        node: &'a str,
        edges: &[(&'a str, &'a str)],
        visiting: &mut BTreeSet<&'a str>,
        done: &mut BTreeSet<&'a str>,
    ) -> bool {
        if done.contains(node) {
            return true;
        }
        if !visiting.insert(node) {
            return false;
        }
        for (from, to) in edges {
            if *from == node && !visit(to, edges, visiting, done) {
                return false;
            }
        }
        visiting.remove(node);
        done.insert(node);
        true
    }
    let mut visiting = BTreeSet::new();
    let mut done = BTreeSet::new();
    nodes
        .iter()
        .all(|n| visit(n, &edges, &mut visiting, &mut done))
}

/// Chase-based implication for INDs: does `sigma ⊨ target`?
///
/// The procedure follows the classical pebbling argument: start from the
/// abstract tuple of the target's LHS and repeatedly apply INDs of `sigma`,
/// tracking which positions of which relation carry which "pebbles" (the
/// distinguished LHS attributes).  It is exact for acyclic `sigma` and
/// bounded by `max_steps` otherwise (returning `false` — "not provably
/// implied" — when the bound is hit).
pub fn ind_implies(sigma: &[Ind], target: &Ind, max_steps: usize) -> bool {
    // A configuration is a relation name plus, for each pebble (index into
    // the target LHS list), the attribute position of that relation where the
    // pebble currently sits (or None).
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Config {
        relation: String,
        pebbles: Vec<Option<usize>>,
    }

    let k = target.lhs_attrs().len();
    let start = Config {
        relation: target.lhs_relation().to_string(),
        pebbles: target.lhs_attrs().iter().map(|&a| Some(a)).collect(),
    };
    let goal = |c: &Config| {
        c.relation == target.rhs_relation()
            && (0..k).all(|i| c.pebbles[i] == Some(target.rhs_attrs()[i]))
    };
    if goal(&start) {
        return true;
    }
    let mut seen: BTreeSet<(String, Vec<Option<usize>>)> = BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert((start.relation.clone(), start.pebbles.clone()));
    queue.push_back(start);
    let mut steps = 0usize;
    while let Some(config) = queue.pop_front() {
        steps += 1;
        if steps > max_steps {
            return false;
        }
        for ind in sigma {
            if ind.lhs_relation() != config.relation {
                continue;
            }
            // Every pebble must sit on an attribute exported by the IND; a
            // pebble that sits elsewhere is lost, and losing a pebble means
            // we can no longer certify the target's equality for it.
            let mut pebbles = vec![None; k];
            let mut ok = true;
            for (i, pebble) in config.pebbles.iter().enumerate() {
                match *pebble {
                    None => {
                        ok = false;
                        break;
                    }
                    Some(attr) => match ind.lhs_attrs().iter().position(|&a| a == attr) {
                        Some(pos) => pebbles[i] = Some(ind.rhs_attrs()[pos]),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if !ok {
                continue;
            }
            let next = Config {
                relation: ind.rhs_relation().to_string(),
                pebbles,
            };
            if goal(&next) {
                return true;
            }
            if seen.insert((next.relation.clone(), next.pebbles.clone())) {
                queue.push_back(next);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationInstance, Value};

    fn schemas() -> (
        Arc<RelationSchema>,
        Arc<RelationSchema>,
        Arc<RelationSchema>,
    ) {
        let order = Arc::new(RelationSchema::new(
            "order",
            [
                ("asin", Domain::Text),
                ("title", Domain::Text),
                ("type", Domain::Text),
                ("price", Domain::Real),
            ],
        ));
        let book = Arc::new(RelationSchema::new(
            "book",
            [
                ("isbn", Domain::Text),
                ("title", Domain::Text),
                ("price", Domain::Real),
                ("format", Domain::Text),
            ],
        ));
        let cd = Arc::new(RelationSchema::new(
            "CD",
            [
                ("id", Domain::Text),
                ("album", Domain::Text),
                ("price", Domain::Real),
                ("genre", Domain::Text),
            ],
        ));
        (order, book, cd)
    }

    fn db() -> Database {
        let (order, book, cd) = schemas();
        let mut oi = RelationInstance::new(order);
        oi.insert_values([
            Value::str("a23"),
            Value::str("Snow White"),
            Value::str("CD"),
            Value::real(7.99),
        ])
        .unwrap();
        oi.insert_values([
            Value::str("a12"),
            Value::str("Harry Potter"),
            Value::str("book"),
            Value::real(17.99),
        ])
        .unwrap();
        let mut bi = RelationInstance::new(book);
        bi.insert_values([
            Value::str("b32"),
            Value::str("Harry Potter"),
            Value::real(17.99),
            Value::str("hard-cover"),
        ])
        .unwrap();
        bi.insert_values([
            Value::str("b65"),
            Value::str("Snow White"),
            Value::real(7.99),
            Value::str("paper-cover"),
        ])
        .unwrap();
        let mut ci = RelationInstance::new(cd);
        ci.insert_values([
            Value::str("c12"),
            Value::str("J. Denver"),
            Value::real(7.94),
            Value::str("country"),
        ])
        .unwrap();
        ci.insert_values([
            Value::str("c58"),
            Value::str("Snow White"),
            Value::real(7.99),
            Value::str("a-book"),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_relation(oi);
        db.add_relation(bi);
        db.add_relation(ci);
        db
    }

    #[test]
    fn unconditional_ind_of_section_2_2_fails_on_fig3() {
        let (order, book, _) = schemas();
        let db = db();
        // order(title, price) ⊆ book(title, price): the CD order "Snow White"
        // happens to have a matching book here, so construct the violating
        // case explicitly: order(asin) ⊆ book(isbn) clearly fails.
        let ind = Ind::new(&order, &["asin"], &book, &["isbn"]).unwrap();
        assert!(!ind.holds_on(&db).unwrap());
        let violations = DetectionEngine::new()
            .detect_ind_violations(&db, std::slice::from_ref(&ind), false)
            .unwrap();
        assert_eq!(violations[0].len(), 2);
    }

    #[test]
    fn satisfied_ind_has_no_violations() {
        let (order, book, _) = schemas();
        let db = db();
        let ind = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
        assert!(ind.holds_on(&db).unwrap());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let (order, book, _) = schemas();
        assert!(Ind::new(&order, &["title"], &book, &["title", "price"]).is_err());
    }

    #[test]
    fn ignore_nulls_exempts_null_lhs_cells() {
        // Regression test: one NULL LHS cell used to kill every IND because
        // the projection (…, NULL, …) matches no RHS tuple.
        let (order, book, _) = schemas();
        let mut db = db();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a77"),
                Value::Null,
                Value::str("book"),
                Value::real(17.99),
            ])
            .unwrap();
        let ind = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
        assert!(!ind.holds_on(&db).unwrap(), "default semantics unchanged");
        let engine = DetectionEngine::new();
        let detect = |ignore_nulls| {
            engine
                .detect_ind_violations(&db, std::slice::from_ref(&ind), ignore_nulls)
                .unwrap()
                .remove(0)
        };
        assert_eq!(detect(false).len(), 1);
        assert!(
            engine.ind_holds(&db, &ind, true).unwrap(),
            "SQL-style semantics skip the null projection"
        );
        assert!(detect(true).is_empty());
    }

    #[test]
    fn interned_violations_equal_naive() {
        let (order, book, _) = schemas();
        let mut db = db();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a77"),
                Value::Null,
                Value::str("book"),
                Value::real(99.0),
            ])
            .unwrap();
        for ind in [
            Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap(),
            Ind::new(&order, &["asin"], &book, &["isbn"]).unwrap(),
            Ind::new(&order, &["title"], &book, &["title"]).unwrap(),
        ] {
            let lhs = db.require_relation(ind.lhs_relation()).unwrap();
            let rhs = db.require_relation(ind.rhs_relation()).unwrap();
            let index = InternedIndex::build(lhs, &lhs.columnar(), ind.lhs_attrs(), 1);
            let distinct = DistinctSet::build(rhs, &rhs.columnar(), ind.rhs_attrs(), 1);
            for ignore_nulls in [false, true] {
                assert_eq!(
                    ind.violations_with_interned(&index, &distinct, ignore_nulls),
                    crate::reference::ind_violations(&ind, &db, ignore_nulls).unwrap(),
                    "{ind} (ignore_nulls {ignore_nulls})"
                );
            }
        }
    }

    #[test]
    fn acyclicity_detection() {
        let (order, book, cd) = schemas();
        let a = Ind::new(&order, &["title"], &book, &["title"]).unwrap();
        let b = Ind::new(&cd, &["album"], &book, &["title"]).unwrap();
        assert!(is_acyclic(&[a.clone(), b.clone()]));
        let back = Ind::new(&book, &["title"], &order, &["title"]).unwrap();
        assert!(!is_acyclic(&[a, back]));
        let self_loop = Ind::new(&book, &["title"], &book, &["isbn"]).unwrap();
        assert!(!is_acyclic(&[self_loop]));
    }

    #[test]
    fn implication_by_transitivity() {
        let (order, book, cd) = schemas();
        let a = Ind::new(&order, &["title", "price"], &cd, &["album", "price"]).unwrap();
        let b = Ind::new(&cd, &["album", "price"], &book, &["title", "price"]).unwrap();
        let target = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
        assert!(ind_implies(&[a.clone(), b.clone()], &target, 10_000));
        // Not implied the other way round.
        let reverse = Ind::new(&book, &["title"], &order, &["title"]).unwrap();
        assert!(!ind_implies(&[a, b], &reverse, 10_000));
    }

    #[test]
    fn implication_by_projection_and_permutation() {
        let (order, book, _) = schemas();
        let given = Ind::new(&order, &["title", "price"], &book, &["title", "price"]).unwrap();
        // Projection: order[title] ⊆ book[title].
        let projected = Ind::new(&order, &["title"], &book, &["title"]).unwrap();
        assert!(ind_implies(
            std::slice::from_ref(&given),
            &projected,
            10_000
        ));
        // Permutation: order[price, title] ⊆ book[price, title].
        let permuted = Ind::new(&order, &["price", "title"], &book, &["price", "title"]).unwrap();
        assert!(ind_implies(std::slice::from_ref(&given), &permuted, 10_000));
        // Not implied: order[price] ⊆ book[isbn].
        let wrong = Ind::new(&order, &["price"], &book, &["isbn"]).unwrap();
        assert!(!ind_implies(&[given], &wrong, 10_000));
    }

    #[test]
    fn reflexive_target_is_trivially_implied() {
        let (order, _, _) = schemas();
        let refl = Ind::new(&order, &["title"], &order, &["title"]).unwrap();
        assert!(ind_implies(&[], &refl, 10));
    }
}
