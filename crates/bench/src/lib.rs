//! # dq-bench
//!
//! Shared workload construction and measurement routines used by the
//! Criterion benches (one per table/figure of the paper) and by the
//! `harness` binary that prints the paper-style result tables.

use dq_core::prelude::*;
use dq_gen::prelude::*;
use dq_match::prelude::*;
use dq_relation::{
    Atom, ConjunctiveQuery, Database, Domain, RelationInstance, RelationSchema, Term, Value,
};
use std::sync::Arc;

/// Sizes used for the scaling sweeps (kept modest so `cargo bench` finishes
/// in minutes; the harness accepts larger sizes).
pub const DETECTION_SIZES: [usize; 3] = [1_000, 5_000, 20_000];

/// Builds the customer workload of the Fig. 1/2 experiments.
pub fn customer_workload(tuples: usize, error_rate: f64) -> CustomerWorkload {
    generate_customers(&CustomerConfig {
        tuples,
        error_rate,
        seed: 42,
        ..Default::default()
    })
}

/// Builds a customer workload whose `(AC, city)` pool scales with the
/// instance, bounding the `[CC, AC]` group sizes: one synthetic city pair
/// per ~2000 tuples (never fewer than the paper's three).  Used by the
/// large-instance detection sweeps, where the paper's fixed city lists would
/// make the ϕ3 pair-violation count quadratic in the instance size.
pub fn customer_workload_scaled(tuples: usize, error_rate: f64) -> CustomerWorkload {
    generate_customers(&CustomerConfig {
        tuples,
        error_rate,
        seed: 42,
        cities_per_country: (tuples / 2_000).max(3),
    })
}

/// Builds the order/book/CD workload of the Fig. 3/4 experiments.
pub fn order_workload(orders: usize, violation_rate: f64) -> OrderWorkload {
    generate_orders(&OrderConfig {
        orders,
        violation_rate,
        seed: 42,
    })
}

/// Builds the card/billing workload of the Section 3 experiments.
pub fn card_workload(holders: usize) -> CardWorkload {
    generate_cards(&CardConfig {
        holders,
        billing_rate: 0.8,
        abbreviate_rate: 0.4,
        phone_change_rate: 0.4,
        email_change_rate: 0.4,
        distractors: holders / 10,
        seed: 42,
    })
}

/// A CFD set of `n` normalized dependencies over a `width`-attribute schema,
/// with `finite_fraction` of the attributes drawn from a two-element domain —
/// the workload for the Table 1 consistency/implication sweeps.
pub fn synthetic_cfd_set(n: usize, width: usize, finite_fraction: f64) -> Vec<Cfd> {
    let finite_attrs = ((width as f64) * finite_fraction).round() as usize;
    let attrs: Vec<(String, Domain)> = (0..width)
        .map(|i| {
            let name = format!("A{i}");
            if i < finite_attrs {
                (name, Domain::Bool)
            } else {
                (name, Domain::Text)
            }
        })
        .collect();
    let schema = Arc::new(RelationSchema::new("synthetic", attrs));
    let mut cfds = Vec::with_capacity(n);
    for i in 0..n {
        let a = i % width;
        let b = (i + 1) % width;
        let lhs_name = schema.attr_name(a).to_string();
        let rhs_name = schema.attr_name(b).to_string();
        let lhs_pattern = if schema.domain(a).is_finite() {
            cst((i % 2) == 0)
        } else if i % 3 == 0 {
            cst(format!("c{}", i % 5))
        } else {
            wild()
        };
        let rhs_pattern = if schema.domain(b).is_finite() {
            cst((i % 2) == 1)
        } else if i % 4 == 0 {
            cst(format!("c{}", i % 5))
        } else {
            wild()
        };
        cfds.push(
            Cfd::new(
                &schema,
                &[lhs_name.as_str()],
                &[rhs_name.as_str()],
                vec![PatternTuple::new(vec![lhs_pattern], vec![rhs_pattern])],
            )
            .expect("synthetic CFD is well-formed"),
        );
    }
    cfds
}

/// A synthetic FD set of size `n` over a `width`-attribute schema (Table 1
/// baseline rows).
pub fn synthetic_fd_set(n: usize, width: usize) -> Vec<Fd> {
    let schema = Arc::new(RelationSchema::new(
        "synthetic",
        (0..width).map(|i| (format!("A{i}"), Domain::Text)),
    ));
    (0..n)
        .map(|i| Fd::from_indices(&schema, vec![i % width], vec![(i + 1) % width]))
        .collect()
}

/// A chain of `n` CINDs `R_0 ⊆ R_1 ⊆ ... ⊆ R_n` with pattern constants, used
/// to exercise the chase-based implication (Table 1 CIND row).
pub fn cind_chain(n: usize) -> (Vec<Cind>, Cind) {
    let schemas: Vec<Arc<RelationSchema>> = (0..=n)
        .map(|i| {
            Arc::new(RelationSchema::new(
                format!("R{i}"),
                [("k", Domain::Text), ("tag", Domain::Text)],
            ))
        })
        .collect();
    let mut chain = Vec::with_capacity(n);
    for i in 0..n {
        chain.push(
            Cind::new(
                &schemas[i],
                &["k"],
                &["tag"],
                &schemas[i + 1],
                &["k"],
                &["tag"],
                vec![CindPattern::new(
                    vec![Value::str("go")],
                    vec![Value::str("go")],
                )],
            )
            .expect("chain CIND is well-formed"),
        );
    }
    let target = Cind::new(
        &schemas[0],
        &["k"],
        &["tag"],
        &schemas[n],
        &["k"],
        &["tag"],
        vec![CindPattern::new(
            vec![Value::str("go")],
            vec![Value::str("go")],
        )],
    )
    .expect("target CIND is well-formed");
    (chain, target)
}

/// The Example 4.2 propagation setting: three regional sources, their CFDs,
/// and the integration view.
pub fn propagation_setting() -> (
    dq_relation::DatabaseSchema,
    std::collections::BTreeMap<String, Vec<Cfd>>,
    dq_relation::algebra::View,
    Arc<RelationSchema>,
) {
    use dq_relation::algebra::{Predicate, View};
    let mut schema = dq_relation::DatabaseSchema::new();
    let mut sigma = std::collections::BTreeMap::new();
    for name in ["R1", "R2", "R3"] {
        let s = Arc::new(RelationSchema::new(
            name,
            [
                ("CC", Domain::Int),
                ("AC", Domain::Int),
                ("zip", Domain::Text),
                ("street", Domain::Text),
                ("city", Domain::Text),
            ],
        ));
        schema.add((*s).clone());
        let mut cfds = vec![Cfd::from_fd(&Fd::new(&s, &["AC"], &["city"]))];
        if name == "R1" {
            cfds.push(Cfd::from_fd(&Fd::new(&s, &["zip"], &["street"])));
        }
        sigma.insert(name.to_string(), cfds);
    }
    let view = View::base("R1")
        .select(Predicate::EqConst(0, Value::int(44)))
        .union(View::base("R2").select(Predicate::EqConst(0, Value::int(1))))
        .union(View::base("R3").select(Predicate::EqConst(0, Value::int(31))));
    let view_schema = Arc::new(
        view.output_schema(&schema, "R")
            .expect("the integration view is well-formed"),
    );
    (schema, sigma, view, view_schema)
}

/// A synthetic MD set over the card/billing schemas: `n` rules recycling the
/// paper's φ1–φ4 shapes, used for the Theorem 4.8 implication sweep, plus the
/// rck1 target.
pub fn synthetic_md_set(n: usize) -> (Vec<MatchingDependency>, MatchingDependency) {
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let base = example_3_1_mds(&card, &billing);
    let mut sigma = Vec::with_capacity(n);
    for i in 0..n {
        sigma.push(base[i % base.len()].clone());
    }
    let target = MatchingDependency::new(
        &card,
        &billing,
        vec![
            ("email", "email", MatchOp::eq()),
            ("addr", "post", MatchOp::eq()),
        ],
        &dq_match::paper::YC,
        &dq_match::paper::YB,
        MatchOp::Matching,
    )
    .expect("target MD is well-formed");
    (sigma, target)
}

/// The key-violating account instance used by the CQA experiments: `groups`
/// key groups, a fraction `conflict_rate` of which carry two conflicting
/// tuples.
pub fn cqa_instance(
    groups: usize,
    conflict_rate: f64,
) -> (Database, Vec<DenialConstraint>, ConjunctiveQuery) {
    let schema = Arc::new(RelationSchema::new(
        "account",
        [
            ("acct", Domain::Text),
            ("owner", Domain::Text),
            ("tier", Domain::Text),
        ],
    ));
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    for i in 0..groups {
        instance
            .insert_values([
                Value::str(format!("A{i}")),
                Value::str(format!("owner{i}")),
                Value::str("gold"),
            ])
            .expect("tuple fits the schema");
        if (i as f64) < (groups as f64) * conflict_rate {
            instance
                .insert_values([
                    Value::str(format!("A{i}")),
                    Value::str(format!("owner{i}")),
                    Value::str("silver"),
                ])
                .expect("tuple fits the schema");
        }
    }
    let fd = Fd::new(&schema, &["acct"], &["owner", "tier"]);
    let constraints = DenialConstraint::from_fd(&fd);
    let mut db = Database::new();
    db.add_relation(instance);
    let query = ConjunctiveQuery::new(
        vec!["a", "o"],
        vec![Atom::new(
            "account",
            vec![Term::var("a"), Term::var("o"), Term::var("t")],
        )],
        vec![],
    );
    (db, constraints, query)
}

/// Builds the master-data workload of the Section 5.1 master-data remark
/// (clean reference relation + dirty source with name variants and corrupted
/// address cells).
pub fn master_workload(entities: usize, error_rate: f64) -> MasterWorkload {
    generate_master_workload(&MasterConfig {
        entities,
        error_rate,
        name_variation_rate: 0.4,
        seed: 42,
    })
}

/// The matching rule used to identify dirty customer records with master
/// records: same phone number and similar name.
pub fn master_rules() -> Vec<RelativeKey> {
    let schema = dq_gen::customer::customer_schema();
    vec![RelativeKey::new(
        &schema,
        &schema,
        vec![
            ("phn", "phn", SimilarityOp::Equality),
            ("name", "name", SimilarityOp::edit(12)),
        ],
        &["street", "city", "zip"],
        &["street", "city", "zip"],
    )
    .expect("well-formed relative key")]
}

/// The address attributes the master data is trusted for.
pub fn master_fusion_attrs() -> Vec<usize> {
    let s = dq_gen::customer::customer_schema();
    vec![s.attr("street"), s.attr("city"), s.attr("zip")]
}

/// Formats a duration in microseconds.
pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::implication::cind_implies_chase;
    use dq_core::propagation::propagates;

    #[test]
    fn synthetic_cfd_sets_have_requested_shape() {
        let cfds = synthetic_cfd_set(40, 8, 0.25);
        assert_eq!(cfds.len(), 40);
        assert!(cfds[0].schema().has_finite_domain_attribute());
        let no_finite = synthetic_cfd_set(40, 8, 0.0);
        assert!(!no_finite[0].schema().has_finite_domain_attribute());
    }

    #[test]
    fn cind_chain_is_implied_transitively() {
        let (chain, target) = cind_chain(4);
        assert!(cind_implies_chase(&chain, &target, 10_000));
        let (short_chain, target) = cind_chain(3);
        assert!(!cind_implies_chase(&short_chain[..2], &target, 10_000));
    }

    #[test]
    fn cqa_instance_shape() {
        let (db, constraints, query) = cqa_instance(20, 0.25);
        assert_eq!(db.relation("account").unwrap().len(), 25);
        assert!(!constraints.is_empty());
        assert_eq!(query.head.len(), 2);
    }

    #[test]
    fn propagation_setting_reproduces_example_4_2() {
        let (schema, sigma, view, view_schema) = propagation_setting();
        let f3 = Cfd::from_fd(&Fd::new(&view_schema, &["zip"], &["street"]));
        assert!(!propagates(&schema, &sigma, &view, &f3).unwrap().holds());
    }
}
