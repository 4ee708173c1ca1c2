//! The order / book / CD scenario of Figures 3–4, plus a scalable generator
//! for the CIND experiments.
//!
//! The generator produces a source `order` table and target `book` / `CD`
//! tables that satisfy the CINDs of Fig. 4 by construction, then drops a
//! controllable fraction of the required target tuples (or mis-labels their
//! pattern attributes), producing exactly the "dangling order" and "audio
//! book without an audio edition" violations the paper uses to motivate
//! CINDs.

use dq_core::{Cind, CindPattern};
use dq_relation::{Database, Domain, RelationInstance, RelationSchema, TupleId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The `order` schema of Section 2.2.
pub fn order_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "order",
        [
            ("asin", Domain::Text),
            ("title", Domain::Text),
            ("type", Domain::Text),
            ("price", Domain::Real),
        ],
    ))
}

/// The `book` schema of Section 2.2.
pub fn book_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "book",
        [
            ("isbn", Domain::Text),
            ("title", Domain::Text),
            ("price", Domain::Real),
            ("format", Domain::Text),
        ],
    ))
}

/// The `CD` schema of Section 2.2.
pub fn cd_schema() -> Arc<RelationSchema> {
    Arc::new(RelationSchema::new(
        "CD",
        [
            ("id", Domain::Text),
            ("album", Domain::Text),
            ("price", Domain::Real),
            ("genre", Domain::Text),
        ],
    ))
}

/// The instance `D1` of Fig. 3.
pub fn paper_database() -> Database {
    let mut order = RelationInstance::new(order_schema());
    order
        .insert_values([
            Value::str("a23"),
            Value::str("Snow White"),
            Value::str("CD"),
            Value::real(7.99),
        ])
        .expect("order tuple");
    order
        .insert_values([
            Value::str("a12"),
            Value::str("Harry Potter"),
            Value::str("book"),
            Value::real(17.99),
        ])
        .expect("order tuple");
    let mut book = RelationInstance::new(book_schema());
    book.insert_values([
        Value::str("b32"),
        Value::str("Harry Potter"),
        Value::real(17.99),
        Value::str("hard-cover"),
    ])
    .expect("book tuple");
    book.insert_values([
        Value::str("b65"),
        Value::str("Snow White"),
        Value::real(7.99),
        Value::str("paper-cover"),
    ])
    .expect("book tuple");
    let mut cd = RelationInstance::new(cd_schema());
    cd.insert_values([
        Value::str("c12"),
        Value::str("J. Denver"),
        Value::real(7.94),
        Value::str("country"),
    ])
    .expect("CD tuple");
    cd.insert_values([
        Value::str("c58"),
        Value::str("Snow White"),
        Value::real(7.99),
        Value::str("a-book"),
    ])
    .expect("CD tuple");
    let mut db = Database::new();
    db.add_relation(order);
    db.add_relation(book);
    db.add_relation(cd);
    db
}

/// The CINDs ϕ4–ϕ6 of Fig. 4 (cind1–cind3 of Section 2.2).
pub fn paper_cinds() -> Vec<Cind> {
    let order = order_schema();
    let book = book_schema();
    let cd = cd_schema();
    vec![
        Cind::new(
            &order,
            &["title", "price"],
            &["type"],
            &book,
            &["title", "price"],
            &[],
            vec![CindPattern::new(vec![Value::str("book")], vec![])],
        )
        .expect("ϕ4 is well-formed"),
        Cind::new(
            &order,
            &["title", "price"],
            &["type"],
            &cd,
            &["album", "price"],
            &[],
            vec![CindPattern::new(vec![Value::str("CD")], vec![])],
        )
        .expect("ϕ5 is well-formed"),
        Cind::new(
            &cd,
            &["album", "price"],
            &["genre"],
            &book,
            &["title", "price"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-book")],
                vec![Value::str("audio")],
            )],
        )
        .expect("ϕ6 is well-formed"),
    ]
}

/// Configuration for the synthetic order/book/CD workload.
#[derive(Clone, Debug)]
pub struct OrderConfig {
    /// Number of order tuples.
    pub orders: usize,
    /// Fraction of orders whose required target tuple is missing or
    /// mis-labelled (CIND violations).
    pub violation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OrderConfig {
    fn default() -> Self {
        OrderConfig {
            orders: 1_000,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

/// A generated order/book/CD database plus the indexes of orders whose CIND
/// requirement was deliberately broken.
#[derive(Clone, Debug)]
pub struct OrderWorkload {
    /// The database (source `order` plus target `book` / `CD`).
    pub db: Database,
    /// Order tuples generated as violations of ϕ4/ϕ5.
    pub broken_orders: Vec<TupleId>,
    /// CD tuples generated as violations of ϕ6 (audio books without an audio
    /// edition).
    pub broken_cds: Vec<TupleId>,
}

/// Generates the workload.
///
/// Titles recur across the source and target relations (that is what the
/// CINDs probe), so string values are canonicalized through a
/// [`dq_relation::ValueInterner`]: every occurrence of a title — and of the
/// small type/genre/format vocabularies — shares one allocation across all
/// three relations.
pub fn generate_orders(config: &OrderConfig) -> OrderWorkload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut strings = dq_relation::ValueInterner::new();
    let mut order = RelationInstance::new(order_schema());
    let mut book = RelationInstance::new(book_schema());
    let mut cd = RelationInstance::new(cd_schema());
    let mut broken_orders = Vec::new();
    let mut broken_cds = Vec::new();

    for i in 0..config.orders {
        let is_book = rng.gen_bool(0.5);
        let title = strings.canonical(Value::str(format!("Title {i}")));
        let price = (rng.gen_range(100..5000) as f64) / 100.0;
        let break_it = rng.gen_bool(config.violation_rate);
        let id = order
            .insert_values([
                Value::str(format!("a{i}")),
                title.clone(),
                strings.canonical(Value::str(if is_book { "book" } else { "CD" })),
                Value::real(price),
            ])
            .expect("order tuple fits the schema");
        if break_it {
            broken_orders.push(id);
            continue; // no matching target tuple
        }
        if is_book {
            book.insert_values([
                Value::str(format!("b{i}")),
                title,
                Value::real(price),
                strings.canonical(Value::str("paper-cover")),
            ])
            .expect("book tuple fits the schema");
        } else {
            // 1 in 5 CDs is an audio book; ϕ6 then requires an audio edition.
            let audio_book = rng.gen_bool(0.2);
            let genre = if audio_book { "a-book" } else { "rock" };
            let cd_id = cd
                .insert_values([
                    Value::str(format!("c{i}")),
                    title.clone(),
                    Value::real(price),
                    strings.canonical(Value::str(genre)),
                ])
                .expect("CD tuple fits the schema");
            if audio_book {
                if rng.gen_bool(config.violation_rate) {
                    broken_cds.push(cd_id);
                } else {
                    book.insert_values([
                        Value::str(format!("ab{i}")),
                        title,
                        Value::real(price),
                        strings.canonical(Value::str("audio")),
                    ])
                    .expect("book tuple fits the schema");
                }
            }
        }
    }

    let mut db = Database::new();
    db.add_relation(order);
    db.add_relation(book);
    db.add_relation(cd);
    OrderWorkload {
        db,
        broken_orders,
        broken_cds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::DetectionEngine;

    #[test]
    fn paper_database_matches_fig_3() {
        let db = paper_database();
        let cinds = paper_cinds();
        let report = DetectionEngine::new()
            .detect_cind_violations(&db, &cinds)
            .unwrap();
        // cind1 and cind2 hold, cind3 is violated by exactly one tuple (t9).
        assert_eq!(report.of(0).len(), 0);
        assert_eq!(report.of(1).len(), 0);
        assert_eq!(report.of(2).len(), 1);
    }

    #[test]
    fn violation_free_generation_satisfies_all_cinds() {
        let workload = generate_orders(&OrderConfig {
            orders: 300,
            violation_rate: 0.0,
            seed: 3,
        });
        let report = DetectionEngine::new()
            .detect_cind_violations(&workload.db, &paper_cinds())
            .unwrap();
        assert!(report.is_clean());
        assert!(workload.broken_orders.is_empty());
        assert!(workload.broken_cds.is_empty());
    }

    #[test]
    fn injected_violations_are_found_by_detection() {
        let workload = generate_orders(&OrderConfig {
            orders: 400,
            violation_rate: 0.2,
            seed: 3,
        });
        assert!(!workload.broken_orders.is_empty());
        let report = DetectionEngine::new()
            .detect_cind_violations(&workload.db, &paper_cinds())
            .unwrap();
        // Every deliberately broken order shows up as a ϕ4 or ϕ5 violation.
        let detected: std::collections::BTreeSet<TupleId> = report
            .iter()
            .filter(|(i, _)| *i < 2)
            .map(|(_, v)| v.tuple)
            .collect();
        for broken in &workload.broken_orders {
            assert!(detected.contains(broken));
        }
        // And broken audio books show up as ϕ6 violations.
        let detected_cds: std::collections::BTreeSet<TupleId> = report
            .iter()
            .filter(|(i, _)| *i == 2)
            .map(|(_, v)| v.tuple)
            .collect();
        for broken in &workload.broken_cds {
            assert!(detected_cds.contains(broken));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_orders(&OrderConfig {
            orders: 100,
            violation_rate: 0.1,
            seed: 9,
        });
        let b = generate_orders(&OrderConfig {
            orders: 100,
            violation_rate: 0.1,
            seed: 9,
        });
        assert_eq!(a.broken_orders, b.broken_orders);
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
    }
}
