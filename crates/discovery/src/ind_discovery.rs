//! Discovery of inclusion dependencies and CIND conditions.
//!
//! Section 2.2's running example is exactly the situation this module
//! automates: the IND `order(title, price) ⊆ book(title, price)` does not
//! hold on the whole `order` relation, but it does hold on the selection
//! `type = 'book'` — which is the CIND `cind1`.  Discovery proceeds in two
//! steps:
//!
//! 1. [`discover_inds`] enumerates attribute lists with compatible domains
//!    between pairs of relations and keeps those whose value sets are
//!    included (standard unary / compound IND discovery);
//! 2. [`discover_cind_conditions`] takes an IND candidate that does *not*
//!    hold and searches for a selection on a finite-ish LHS attribute under
//!    which it does, optionally also requiring a constant pattern on the RHS
//!    side — producing [`Cind`] values.
//!
//! Both run on the interned columnar store: candidate inclusion reduces to
//! probes of pooled [`DistinctSet`](dq_relation::DistinctSet)s (distinct
//! packed-key projections, translated between the two relations'
//! dictionaries once per dictionary entry instead of hashing a `Vec<Value>`
//! per tuple), condition mining reads its candidate-value groups straight
//! from pooled CSR postings, and independent (LHS relation, RHS relation)
//! candidate pairs fan out across a thread pool.  The row-oriented miners in
//! [`crate::reference`] produce byte-identical output on well-typed columns
//! (`tests/discovery_equivalence.rs`; see that module for the mixed-numeric
//! `Ord`-vs-`Eq` caveat shared with profiling).

use crate::source::resolve_threads;
use dq_core::cind::{Cind, CindPattern};
use dq_core::engine::{parallel_map, try_parallel_map};
use dq_core::ind::Ind;
use dq_relation::{
    Column, Database, DqResult, FxHashSet, IdTranslation, IndexPool, RelationInstance, Value,
    ValueId,
};
use std::sync::Arc;

/// Configuration of IND / CIND discovery.
#[derive(Clone, Debug)]
pub struct IndDiscoveryConfig {
    /// Maximum arity of discovered INDs (1 = unary only).
    pub max_arity: usize,
    /// Minimum number of distinct LHS values for an IND to be interesting
    /// (inclusion of a near-empty column is noise).
    pub min_distinct: usize,
    /// Minimum number of tuples a CIND condition must select.
    pub min_support: usize,
    /// Maximum number of distinct values a condition attribute may have for
    /// it to be used as a CIND condition (keeps conditions categorical).
    pub max_condition_values: usize,
    /// SQL-style IND semantics: LHS projections with a `NULL` component are
    /// exempt from the inclusion requirement (and not counted toward
    /// `min_distinct`); in condition mining, such rows never disqualify a
    /// condition value and a dependency that holds under these semantics
    /// yields no conditions.  Off by default — the paper's set semantics
    /// treat `NULL` as an ordinary constant, under which a single null LHS
    /// cell falsifies every IND over that attribute.
    pub ignore_nulls: bool,
}

impl Default for IndDiscoveryConfig {
    fn default() -> Self {
        IndDiscoveryConfig {
            max_arity: 2,
            min_distinct: 1,
            min_support: 1,
            max_condition_values: 16,
            ignore_nulls: false,
        }
    }
}

/// The result of [`discover_inds`].
#[derive(Clone, Debug)]
pub struct DiscoveredInds {
    /// INDs that hold on the database.
    pub inds: Vec<Ind>,
    /// Candidate INDs that were checked.
    pub candidates_checked: usize,
}

/// Discovers unary (and, up to [`IndDiscoveryConfig::max_arity`], compound)
/// inclusion dependencies between distinct relations of `db`.
pub fn discover_inds(db: &Database, config: &IndDiscoveryConfig) -> DqResult<DiscoveredInds> {
    discover_inds_with_pool(db, config, &IndexPool::new(), resolve_threads(0))
}

/// [`discover_inds`] over a shared [`IndexPool`]: every candidate's
/// inclusion check probes pooled [`DistinctSet`](dq_relation::DistinctSet)s
/// (built at most once per `(relation, attribute list)` and extended in
/// place after append-only growth), and independent (LHS relation, RHS
/// relation) candidate pairs fan out across up to `threads` workers.
/// Output — order included — equals [`crate::reference::discover_inds`].
pub fn discover_inds_with_pool(
    db: &Database,
    config: &IndDiscoveryConfig,
    pool: &IndexPool,
    threads: usize,
) -> DqResult<DiscoveredInds> {
    let _span = dq_obs::span!("discover.ind", relations = db.iter().count());
    let relations: Vec<(&str, &RelationInstance)> = db.iter().collect();
    // Warm the column dictionaries once, in parallel: unary candidates are
    // decided on the dictionaries alone (a column's dictionary *is* its
    // distinct unary projection), and the binary distinct sets pack ids
    // from these same columns.
    let warm: Vec<(&RelationInstance, usize)> = relations
        .iter()
        .flat_map(|(_, inst)| (0..inst.schema().arity()).map(move |a| (*inst, a)))
        .collect();
    parallel_map(&warm, threads, |(inst, attr)| {
        let store = inst.columnar();
        store.column(inst, *attr);
    });
    // Candidate pairs in (lhs-outer, rhs-inner) order, validated in
    // parallel; concatenating the per-pair results in input order keeps the
    // output order canonical.
    let mut pairs: Vec<(&RelationInstance, &RelationInstance)> = Vec::new();
    for (lhs_name, lhs_inst) in &relations {
        for (rhs_name, rhs_inst) in &relations {
            if lhs_name != rhs_name {
                pairs.push((lhs_inst, rhs_inst));
            }
        }
    }
    let per_pair = parallel_map(&pairs, threads, |(lhs_inst, rhs_inst)| {
        pair_inds_interned(lhs_inst, rhs_inst, config, pool)
    });
    let mut inds = Vec::new();
    let mut candidates_checked = 0usize;
    for (pair_inds, checked) in per_pair {
        inds.extend(pair_inds);
        candidates_checked += checked;
    }
    Ok(DiscoveredInds {
        inds,
        candidates_checked,
    })
}

/// Validates every candidate between one ordered relation pair over pooled
/// distinct-projection sets.
fn pair_inds_interned(
    lhs_inst: &RelationInstance,
    rhs_inst: &RelationInstance,
    config: &IndDiscoveryConfig,
    pool: &IndexPool,
) -> (Vec<Ind>, usize) {
    let mut inds = Vec::new();
    let mut checked = 0usize;
    let lhs_store = lhs_inst.columnar();
    let rhs_store = rhs_inst.columnar();
    let mut unary: Vec<(usize, usize)> = Vec::new();
    for la in 0..lhs_inst.schema().arity() {
        for ra in 0..rhs_inst.schema().arity() {
            if !lhs_inst
                .schema()
                .domain(la)
                .compatible_with(rhs_inst.schema().domain(ra))
            {
                continue;
            }
            checked += 1;
            // A column's dictionary is exactly its distinct unary
            // projection, so unary candidates are decided on the (warmed,
            // shared) dictionaries alone — no key set is materialized.
            let lhs_col = lhs_store.column(lhs_inst, la);
            let rhs_col = rhs_store.column(rhs_inst, ra);
            if unary_included_interned(&lhs_col, &rhs_col, config) {
                unary.push((la, ra));
                inds.push(Ind::from_indices(
                    lhs_inst.schema().name(),
                    vec![la],
                    rhs_inst.schema().name(),
                    vec![ra],
                ));
            }
        }
    }
    if config.max_arity < 2 {
        return (inds, checked);
    }
    // Binary INDs built from pairs of unary ones over distinct attributes
    // on both sides.
    for i in 0..unary.len() {
        for j in 0..unary.len() {
            let (l1, r1) = unary[i];
            let (l2, r2) = unary[j];
            if l1 >= l2 || r1 == r2 {
                continue;
            }
            checked += 1;
            let lhs_set = pool.distinct_for(lhs_inst, &[l1, l2], 1);
            let rhs_set = pool.distinct_for(rhs_inst, &[r1, r2], 1);
            if lhs_set.key_count(config.ignore_nulls) >= config.min_distinct
                && lhs_set.included_in(&rhs_set, config.ignore_nulls)
            {
                inds.push(Ind::from_indices(
                    lhs_inst.schema().name(),
                    vec![l1, l2],
                    rhs_inst.schema().name(),
                    vec![r1, r2],
                ));
            }
        }
    }
    (inds, checked)
}

/// Does attribute `attr` take more than `cap` distinct values?  Stops
/// scanning as soon as the bound is exceeded, so key-like columns answer in
/// a handful of rows.
fn distinct_exceeds(instance: &RelationInstance, attr: usize, cap: usize) -> bool {
    let mut seen: FxHashSet<&Value> = FxHashSet::default();
    for (_, tuple) in instance.iter() {
        if seen.insert(tuple.get(attr)) && seen.len() > cap {
            return true;
        }
    }
    false
}

/// Unary inclusion on the column dictionaries: every (non-null, when
/// `ignore_nulls`) distinct LHS value must exist in the RHS dictionary,
/// after the `min_distinct` floor and a counting pre-check (more distinct
/// LHS values than RHS values cannot be included).
fn unary_included_interned(lhs: &Column, rhs: &Column, config: &IndDiscoveryConfig) -> bool {
    let lhs_has_null = lhs.interner().lookup(&Value::Null).is_some();
    let count = lhs.distinct() - usize::from(config.ignore_nulls && lhs_has_null);
    if count < config.min_distinct || count > rhs.distinct() {
        return false;
    }
    lhs.interner()
        .values()
        .iter()
        .all(|v| (config.ignore_nulls && v.is_null()) || rhs.interner().lookup(v).is_some())
}

/// Given an embedded IND `R1[X] ⊆ R2[Y]` that does not hold on `db`, searches
/// for CIND conditions that make it hold: a condition attribute `B` of `R1`
/// (categorical, outside `X`) and a constant `b` such that
/// `(R1[X; B = b] ⊆ R2[Y])` is satisfied with at least
/// [`IndDiscoveryConfig::min_support`] selected tuples.
///
/// When the embedded IND already holds unconditionally, the answer is empty:
/// no condition is needed, and every condition would be vacuous.  (This
/// check is up front; a per-attribute `patterns == all values` guard used to
/// miss the case where `min_support > 1` filtered some value out, reporting
/// a vacuous CIND.)
///
/// The returned CINDs have an empty RHS pattern (`Yp = []`), matching the
/// shape of `cind1` / `cind2` in Fig. 4.
///
/// The embedded IND's per-tuple inclusion verdicts are computed once — LHS
/// cells translated into the RHS dictionaries via [`IdTranslation`] and
/// probed against the pooled RHS distinct set — and every condition
/// attribute then reads its candidate-value groups straight from the CSR
/// postings of a pooled single-attribute interned index, in parallel across
/// condition attributes.  Output equals
/// [`crate::reference::discover_cind_conditions`].
pub fn discover_cind_conditions(
    db: &Database,
    embedded: &Ind,
    config: &IndDiscoveryConfig,
) -> DqResult<Vec<Cind>> {
    let _span = dq_obs::span("discover.cind");
    let pool = IndexPool::new();
    let threads = resolve_threads(0);
    let lhs_inst = db.require_relation(embedded.lhs_relation())?;
    let rhs_inst = db.require_relation(embedded.rhs_relation())?;
    // Warm the correspondence columns of both sides in parallel first — the
    // dictionary encoding is the dominant cold cost at scale, and the
    // columns are independent.  Condition attributes are *not* warmed:
    // high-cardinality ones are rejected by a bounded probe below without
    // ever interning their dictionaries.
    let warm: Vec<(&RelationInstance, usize)> = embedded
        .lhs_attrs()
        .iter()
        .map(|&a| (lhs_inst, a))
        .chain(embedded.rhs_attrs().iter().map(|&a| (rhs_inst, a)))
        .collect();
    parallel_map(&warm, threads, |(inst, attr)| {
        let store = inst.columnar();
        store.column(inst, *attr);
    });
    let rhs_set = pool.distinct_for(rhs_inst, embedded.rhs_attrs(), threads);
    let store = lhs_inst.columnar();
    let x_columns: Vec<Arc<Column>> = embedded
        .lhs_attrs()
        .iter()
        .map(|&a| store.column(lhs_inst, a))
        .collect();
    let translation = IdTranslation::new(&x_columns, rhs_set.columns());
    // One inclusion verdict per LHS row, shared by every condition group;
    // under SQL-style semantics a row with a null `X` component is exempt
    // (counts as included).  Rows are independent, so the pass shards
    // across the thread pool.
    let x_nulls: Vec<Option<ValueId>> = x_columns
        .iter()
        .map(|c| c.interner().lookup(&Value::Null))
        .collect();
    let n_rows = store.len();
    let chunk_rows = n_rows.div_ceil(threads.max(1)).max(1);
    let chunks: Vec<std::ops::Range<usize>> = (0..n_rows)
        .step_by(chunk_rows)
        .map(|start| start..(start + chunk_rows).min(n_rows))
        .collect();
    let included: Vec<bool> = parallel_map(&chunks, threads, |range| {
        let mut translated: Vec<ValueId> = Vec::with_capacity(x_columns.len());
        range
            .clone()
            .map(|row| {
                (config.ignore_nulls
                    && x_columns
                        .iter()
                        .zip(&x_nulls)
                        .any(|(col, null)| Some(col.id_at(row)) == *null))
                    || (translation.translate_row(&x_columns, row, &mut translated)
                        && rhs_set.contains_ids(&translated))
            })
            .collect::<Vec<bool>>()
    })
    .concat();
    // Vacuous-condition guard: an IND that already holds needs no CIND.
    if included.iter().all(|&b| b) {
        return Ok(Vec::new());
    }
    let cond_attrs: Vec<usize> = (0..lhs_inst.schema().arity())
        .filter(|a| !embedded.lhs_attrs().contains(a))
        .collect();
    let per_attr: Vec<Option<Cind>> = try_parallel_map(&cond_attrs, threads, |&cond_attr| {
        // Bounded distinct probe: stops at `max_condition_values + 1`
        // distinct cells, so a high-cardinality attribute (a key-like
        // column) is rejected after a handful of rows — without interning
        // its dictionary or building any index for it.
        if config.max_condition_values == 0
            || distinct_exceeds(lhs_inst, cond_attr, config.max_condition_values)
        {
            return Ok(None);
        }
        let index = pool.interned_for(lhs_inst, &[cond_attr], 1);
        let values = index.group_count();
        if values == 0 {
            return Ok(None);
        }
        // Candidate-value groups straight from the CSR postings, sorted by
        // condition value so the mined tableau follows the reference's
        // `BTreeSet<Value>` iteration order.
        let interner = index.columns()[0].interner();
        let mut groups: Vec<(ValueId, &[u32])> =
            index.groups().map(|(ids, rows)| (ids[0], rows)).collect();
        groups.sort_unstable_by(|a, b| interner.cmp_ids(a.0, b.0));
        let mut patterns: Vec<CindPattern> = Vec::new();
        for (value_id, rows) in groups {
            if rows.len() < config.min_support {
                continue;
            }
            if rows.iter().all(|&row| included[row as usize]) {
                patterns.push(CindPattern::new(
                    vec![interner.resolve(value_id).clone()],
                    Vec::new(),
                ));
            }
        }
        if patterns.is_empty() {
            return Ok(None);
        }
        Cind::from_indices(
            lhs_inst.schema(),
            embedded.lhs_attrs().to_vec(),
            vec![cond_attr],
            rhs_inst.schema(),
            embedded.rhs_attrs().to_vec(),
            Vec::new(),
            patterns,
        )
        .map(Some)
    })?;
    Ok(per_attr.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::engine::DetectionEngine;
    use dq_gen::orders::paper_database;

    /// A production miner pair or its reference in [`crate::reference`];
    /// every test below runs both.
    struct Miner {
        inds: fn(&Database, &IndDiscoveryConfig) -> DqResult<DiscoveredInds>,
        cinds: fn(&Database, &Ind, &IndDiscoveryConfig) -> DqResult<Vec<Cind>>,
    }

    const MINERS: [Miner; 2] = [
        Miner {
            inds: discover_inds,
            cinds: discover_cind_conditions,
        },
        Miner {
            inds: crate::reference::discover_inds,
            cinds: crate::reference::discover_cind_conditions,
        },
    ];

    /// The order / book / CD database of Fig. 3, extended with one more CD
    /// order ("J. Denver") that has no `book` counterpart — on the tiny
    /// published instance the (title, price) inclusion from `order` into
    /// `book` happens to hold by coincidence; the extra order restores the
    /// situation the paper describes, where it only holds for `type = book`.
    fn paper_db() -> Database {
        let mut db = paper_database();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a99"),
                Value::str("J. Denver"),
                Value::str("CD"),
                Value::real(7.94),
            ])
            .unwrap();
        db
    }

    #[test]
    fn unary_ind_discovery_on_paper_database() {
        let db = paper_db();
        for miner in &MINERS {
            let found = (miner.inds)(&db, &IndDiscoveryConfig::default()).unwrap();
            assert!(found.candidates_checked > 0);
            // Every reported IND must actually hold.
            for ind in &found.inds {
                assert!(
                    ind.holds_on(&db).unwrap(),
                    "discovered IND {ind:?} does not hold"
                );
            }
            // order(title, price) ⊆ book(title, price) does NOT hold on
            // Fig. 3 (the Snow White CD order has no book counterpart), so
            // the compound IND must not be reported unconditionally.
            let compound_bogus = found.inds.iter().any(|ind| {
                ind.lhs_relation() == "order"
                    && ind.rhs_relation() == "book"
                    && ind.lhs_attrs().len() == 2
            });
            assert!(
                !compound_bogus,
                "order(title,price) ⊆ book(title,price) must not be discovered unconditionally"
            );
        }
    }

    #[test]
    fn discovery_agrees_with_the_reference() {
        let db = paper_db();
        let config = IndDiscoveryConfig::default();
        let fast = discover_inds(&db, &config).unwrap();
        let slow = crate::reference::discover_inds(&db, &config).unwrap();
        assert_eq!(fast.inds, slow.inds);
        assert_eq!(fast.candidates_checked, slow.candidates_checked);
    }

    #[test]
    fn cind_condition_mining_recovers_cind1() {
        let db = paper_db();
        let order = db.relation("order").unwrap().schema().clone();
        let book = db.relation("book").unwrap().schema().clone();
        let embedded = Ind::from_indices(
            "order",
            vec![order.attr("title"), order.attr("price")],
            "book",
            vec![book.attr("title"), book.attr("price")],
        );
        assert!(!embedded.holds_on(&db).unwrap());
        for miner in &MINERS {
            let cinds = (miner.cinds)(&db, &embedded, &IndDiscoveryConfig::default()).unwrap();
            assert!(!cinds.is_empty(), "expected the type = 'book' condition");
            let report = DetectionEngine::new()
                .detect_cind_violations(&db, &cinds)
                .unwrap();
            assert!(
                report.is_clean(),
                "discovered CINDs must hold on the database"
            );
            let has_book_condition = cinds.iter().any(|c| {
                c.lhs_pattern_attrs() == [order.attr("type")]
                    && c.tableau().iter().any(|p| p.lhs == [Value::str("book")])
            });
            assert!(
                has_book_condition,
                "expected condition type = 'book', got {cinds:?}"
            );
        }
    }

    #[test]
    fn condition_mining_skips_high_cardinality_attributes() {
        let db = paper_db();
        let order = db.relation("order").unwrap().schema().clone();
        let book = db.relation("book").unwrap().schema().clone();
        let embedded = Ind::from_indices(
            "order",
            vec![order.attr("title"), order.attr("price")],
            "book",
            vec![book.attr("title"), book.attr("price")],
        );
        for miner in &MINERS {
            let config = IndDiscoveryConfig {
                max_condition_values: 0,
                ..IndDiscoveryConfig::default()
            };
            let cinds = (miner.cinds)(&db, &embedded, &config).unwrap();
            assert!(cinds.is_empty());
        }
    }

    #[test]
    fn held_ind_yields_no_vacuous_cind() {
        // Regression test: with min_support > 1, values below the support
        // threshold were skipped, so the old `patterns == all values` guard
        // never fired and a CIND was reported even though the plain IND
        // holds.  The paper database (without the extra dangling order)
        // satisfies order(title, price) ⊆ book(title, price); two of the
        // three orders are books, so `type = 'book'` passes min_support = 2
        // while `type = 'CD'` does not.
        let mut db = paper_database();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a98"),
                Value::str("Harry Potter"),
                Value::str("book"),
                Value::real(17.99),
            ])
            .unwrap();
        let order = db.relation("order").unwrap().schema().clone();
        let book = db.relation("book").unwrap().schema().clone();
        let embedded = Ind::from_indices(
            "order",
            vec![order.attr("title"), order.attr("price")],
            "book",
            vec![book.attr("title"), book.attr("price")],
        );
        assert!(embedded.holds_on(&db).unwrap(), "precondition: IND holds");
        for miner in &MINERS {
            let config = IndDiscoveryConfig {
                min_support: 2,
                ..IndDiscoveryConfig::default()
            };
            let cinds = (miner.cinds)(&db, &embedded, &config).unwrap();
            assert!(
                cinds.is_empty(),
                "the unconditional IND holds; any CIND is vacuous, got {cinds:?}"
            );
        }
    }

    #[test]
    fn ignore_nulls_applies_to_condition_mining_too() {
        // A null-title book order is the only thing keeping the embedded
        // IND from holding: under SQL semantics the IND holds, so mining
        // yields nothing; under set semantics the null row disqualifies
        // `type = 'book'` but the vacuous guard must not fire.
        let mut db = paper_database();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a99"),
                Value::Null,
                Value::str("book"),
                Value::real(5.0),
            ])
            .unwrap();
        let order = db.relation("order").unwrap().schema().clone();
        let book = db.relation("book").unwrap().schema().clone();
        let embedded = Ind::from_indices(
            "order",
            vec![order.attr("title"), order.attr("price")],
            "book",
            vec![book.attr("title"), book.attr("price")],
        );
        assert!(!embedded.holds_on(&db).unwrap());
        assert!(DetectionEngine::new()
            .ind_holds(&db, &embedded, true)
            .unwrap());
        for miner in &MINERS {
            let strict = (miner.cinds)(&db, &embedded, &IndDiscoveryConfig::default()).unwrap();
            assert!(
                strict
                    .iter()
                    .all(|c| c.tableau().iter().all(|p| p.lhs != [Value::str("book")])),
                "set semantics: the null row disqualifies type = 'book', got {strict:?}"
            );
            let lenient = IndDiscoveryConfig {
                ignore_nulls: true,
                ..IndDiscoveryConfig::default()
            };
            let found = (miner.cinds)(&db, &embedded, &lenient).unwrap();
            assert!(
                found.is_empty(),
                "SQL semantics: the IND holds, any condition is vacuous, got {found:?}"
            );
        }
    }

    #[test]
    fn ignore_nulls_recovers_inds_killed_by_null_cells() {
        // One NULL order title kills order(title) ⊆ book(title) under set
        // semantics; SQL-style semantics exempt the null projection.
        let mut db = paper_database();
        db.relation_mut("order")
            .unwrap()
            .insert_values([
                Value::str("a99"),
                Value::Null,
                Value::str("book"),
                Value::real(5.0),
            ])
            .unwrap();
        let order = db.relation("order").unwrap().schema().clone();
        let title = order.attr("title");
        for miner in &MINERS {
            let strict = (miner.inds)(&db, &IndDiscoveryConfig::default()).unwrap();
            assert!(
                !strict.inds.iter().any(|ind| {
                    ind.lhs_relation() == "order"
                        && ind.rhs_relation() == "book"
                        && ind.lhs_attrs() == [title]
                }),
                "set semantics: the null projection falsifies the IND"
            );
            let lenient = IndDiscoveryConfig {
                ignore_nulls: true,
                ..IndDiscoveryConfig::default()
            };
            let found = (miner.inds)(&db, &lenient).unwrap();
            assert!(
                found.inds.iter().any(|ind| {
                    ind.lhs_relation() == "order"
                        && ind.rhs_relation() == "book"
                        && ind.lhs_attrs() == [title]
                }),
                "SQL semantics: order(title) ⊆ book(title) holds, got {:?}",
                found.inds
            );
        }
    }
}
