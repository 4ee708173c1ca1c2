//! Cross-crate integration of the unified cleaning pipeline (repair + object
//! identification with master data, Sections 5.1/6) and of the condensed
//! representations and aggregate-range machinery (Sections 5.2/5.3).

use dataquality::prelude::*;
use dq_gen::customer::{customer_schema, paper_cfds};
use dq_gen::master::{generate_master_workload, MasterConfig};
use dq_relation::{Domain, RelationInstance, RelationSchema, TupleId, Value};
use dq_repair::numeric::{repair_numeric_violations, NumericRepairConfig};
use dq_repr::ctable::{CTable, CTuple, CondAtom};
use dq_repr::vtable::{VTuple, VValue};
use std::sync::Arc;

fn master_rules() -> Vec<RelativeKey> {
    let schema = customer_schema();
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

fn fusion_attrs() -> Vec<usize> {
    let s = customer_schema();
    vec![s.attr("street"), s.attr("city"), s.attr("zip")]
}

#[test]
fn unified_cleaning_beats_blind_repair_across_error_rates() {
    for &error_rate in &[0.1, 0.3] {
        let w = generate_master_workload(&MasterConfig {
            entities: 400,
            error_rate,
            name_variation_rate: 0.5,
            seed: 17,
        });
        let unified = CleaningPipeline::with_master(
            paper_cfds(),
            MasterData::new(w.master.clone()),
            master_rules(),
            fusion_attrs(),
        )
        .run(&w.dirty)
        .expect("consistent rule set");
        let blind = CleaningPipeline::repair_only(paper_cfds())
            .run(&w.dirty)
            .expect("consistent rule set");
        let q_unified = score_repair(&w.clean, &w.dirty, &unified.cleaned);
        let q_blind = score_repair(&w.clean, &w.dirty, &blind.cleaned);
        assert!(unified.consistent);
        assert!(
            q_unified.f1 > q_blind.f1,
            "error rate {error_rate}: unified {q_unified:?} must beat blind {q_blind:?}"
        );
        assert!(
            q_unified.recall > 0.95,
            "master data covers the corrupted attributes"
        );
    }
}

#[test]
fn pipeline_without_matching_rules_degenerates_to_blind_repair() {
    let w = generate_master_workload(&MasterConfig {
        entities: 200,
        error_rate: 0.2,
        name_variation_rate: 0.4,
        seed: 23,
    });
    let no_rules = CleaningPipeline::with_master(
        paper_cfds(),
        MasterData::new(w.master.clone()),
        Vec::new(),
        fusion_attrs(),
    )
    .run(&w.dirty)
    .expect("consistent rule set");
    let blind = CleaningPipeline::repair_only(paper_cfds())
        .run(&w.dirty)
        .expect("consistent rule set");
    assert_eq!(no_rules.master_matches, 0);
    assert_eq!(no_rules.fusion_changes, 0);
    assert!(no_rules.cleaned.same_tuples_as(&blind.cleaned));
}

#[test]
fn ctable_worlds_agree_with_wsd_and_enumeration() {
    // A small key-violating instance; the c-table, the WSD and the explicit
    // repair enumeration must represent the same set of repairs.
    let schema = Arc::new(RelationSchema::new(
        "r",
        [("a", Domain::Text), ("b", Domain::Int)],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    for (a, b) in [("x", 1), ("x", 2), ("y", 7), ("z", 3), ("z", 4), ("z", 5)] {
        inst.insert_values([Value::str(a), Value::int(b)]).unwrap();
    }
    let key = Fd::new(&schema, &["a"], &["b"]);
    let ctable = CTable::from_key_repairs(&inst, &key);
    let wsd = WorldSetDecomposition::for_key(&inst, &key);
    assert_eq!(ctable.world_count(), wsd.world_count());
    assert_eq!(ctable.world_count(), 6);

    let constraints = DenialConstraint::from_fd(&key);
    let repairs = enumerate_repairs(&inst, &constraints);
    assert_eq!(repairs.len() as u128, ctable.world_count());
    // Every c-table world is one of the enumerated repairs.
    for world in ctable.worlds() {
        assert!(
            repairs.iter().any(|r| r.same_tuples_as(&world)),
            "c-table world not found among the enumerated repairs"
        );
    }
}

/// The exact output of every key-grouped representation on one instance
/// whose key groups arrive out of key order, with a duplicate candidate in
/// group `z`: groups come out in ascending key order, candidates (and the
/// nucleus's disagreeing cells) in instance order, and selector names count
/// every group, singletons included.
#[test]
fn key_grouped_representations_have_a_pinned_output() {
    let schema = Arc::new(RelationSchema::new(
        "r",
        [("a", Domain::Text), ("b", Domain::Int), ("c", Domain::Text)],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    let rows = [
        ("z", 3, "p"),
        ("x", 1, "p"),
        ("z", 4, "p"),
        ("y", 7, "q"),
        ("x", 2, "p"),
        ("z", 3, "p"),
        ("x", 1, "q"),
    ];
    for (a, b, c) in rows {
        inst.insert_values([Value::str(a), Value::int(b), Value::str(c)])
            .unwrap();
    }
    let row = |a: &str, b: i64, c: &str| vec![Value::str(a), Value::int(b), Value::str(c)];
    let key = Fd::new(&schema, &["a"], &["b", "c"]);

    let ctable = CTable::from_key_repairs(&inst, &key);
    let selected = |values: Vec<Value>, var: &str, i: i64| CTuple {
        tuple: VTuple::new(values.into_iter().map(VValue::Const).collect()),
        condition: vec![CondAtom::eq(var, i)],
    };
    assert_eq!(
        ctable.tuples(),
        &[
            selected(row("x", 1, "p"), "g0", 0),
            selected(row("x", 2, "p"), "g0", 1),
            selected(row("x", 1, "q"), "g0", 2),
            CTuple::ground(row("y", 7, "q")),
            selected(row("z", 3, "p"), "g2", 0),
            selected(row("z", 4, "p"), "g2", 1),
        ]
    );
    let domains: Vec<(&str, Vec<Value>)> = ctable
        .domains()
        .iter()
        .map(|(var, values)| (var.as_str(), values.clone()))
        .collect();
    assert_eq!(
        domains,
        [
            ("g0", vec![Value::int(0), Value::int(1), Value::int(2)]),
            ("g2", vec![Value::int(0), Value::int(1)]),
        ]
    );

    let wsd = WorldSetDecomposition::for_key(&inst, &key);
    let components: Vec<(Vec<Value>, Vec<Vec<Value>>)> = wsd
        .components()
        .iter()
        .map(|c| {
            let candidates = c.candidates.iter().map(|t| t.values().to_vec()).collect();
            (c.key.clone(), candidates)
        })
        .collect();
    assert_eq!(
        components,
        [
            (
                vec![Value::str("x")],
                vec![row("x", 1, "p"), row("x", 2, "p"), row("x", 1, "q")],
            ),
            (vec![Value::str("y")], vec![row("y", 7, "q")]),
            (
                vec![Value::str("z")],
                vec![row("z", 3, "p"), row("z", 4, "p")]
            ),
        ]
    );

    let nucleus = nucleus_for_fd(&inst, &key);
    assert_eq!(
        nucleus.tuples(),
        &[
            VTuple::new(vec![VValue::val("x"), VValue::var("v0"), VValue::var("v1")]),
            VTuple::new(vec![VValue::val("y"), VValue::val(7i64), VValue::val("q")]),
            VTuple::new(vec![VValue::val("z"), VValue::var("v2"), VValue::val("p")]),
        ]
    );
    let stats = nucleus_stats(&inst, &key);
    assert_eq!(
        (
            stats.nucleus_tuples,
            stats.variables,
            stats.represented_worlds
        ),
        (3, 3, 6)
    );
}

#[test]
fn aggregate_ranges_bound_every_repair_of_the_ctable() {
    let schema = Arc::new(RelationSchema::new(
        "salary",
        [("emp", Domain::Text), ("amount", Domain::Int)],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    for (e, a) in [
        ("ann", 10),
        ("ann", 25),
        ("bob", 5),
        ("eve", 3),
        ("eve", 30),
    ] {
        inst.insert_values([Value::str(e), Value::int(a)]).unwrap();
    }
    let key = Fd::new(&schema, &["emp"], &["amount"]);
    let ctable = CTable::from_key_repairs(&inst, &key);
    for agg in [
        AggregateFn::Sum,
        AggregateFn::Min,
        AggregateFn::Max,
        AggregateFn::Count,
    ] {
        let range = range_consistent_aggregate(&inst, &[0], agg, 1);
        for world in ctable.worlds() {
            let value = aggregate_on(&world, agg, 1);
            assert!(
                range.contains(value),
                "{agg:?} = {value} outside [{}, {}]",
                range.lower,
                range.upper
            );
        }
    }
}

#[test]
fn numeric_repair_composes_with_cfd_repair() {
    // A relation with both a CFD-style error (wrong city constant) and a
    // numeric range error; the two repair algorithms fix their own classes
    // and compose to a fully consistent instance.
    let schema = Arc::new(RelationSchema::new(
        "emp",
        [
            ("dept", Domain::Text),
            ("site", Domain::Text),
            ("age", Domain::Int),
        ],
    ));
    let mut inst = RelationInstance::new(Arc::clone(&schema));
    inst.insert_values([Value::str("db"), Value::str("EDI"), Value::int(44)])
        .unwrap();
    inst.insert_values([Value::str("db"), Value::str("NYC"), Value::int(220)])
        .unwrap();
    inst.insert_values([Value::str("ml"), Value::str("SF"), Value::int(31)])
        .unwrap();

    // dept = db → site = EDI.
    let cfd = Cfd::new(
        &schema,
        &["dept"],
        &["site"],
        vec![PatternTuple::new(vec![cst("db")], vec![cst("EDI")])],
    )
    .unwrap();
    // ¬(age > 150).
    let dc = DenialConstraint::new(
        "emp",
        1,
        vec![DcPredicate::new(
            DcTerm::attr(0, 2),
            dq_relation::CompOp::Gt,
            DcTerm::val(150i64),
        )],
    );

    let after_cfd = repair_cfd_violations(
        &inst,
        std::slice::from_ref(&cfd),
        &RepairCost::uniform(),
        &RepairConfig::default(),
    )
    .expect("consistent rule set");
    assert!(after_cfd.consistent);
    let after_numeric = repair_numeric_violations(
        &after_cfd.repaired,
        std::slice::from_ref(&dc),
        &NumericRepairConfig::default(),
    );
    assert!(after_numeric.consistent);
    assert!(cfd.holds_on(&after_numeric.repaired));
    assert!(dc.holds_on(&after_numeric.repaired));
    assert_eq!(
        after_numeric
            .repaired
            .tuple(TupleId(1))
            .unwrap()
            .get(2)
            .as_int(),
        Some(150)
    );
}
