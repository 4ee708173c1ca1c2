//! Section 3 / 4.2 experiment: object identification with given rules vs.
//! derived RCKs — runtime here, precision/recall in the harness tables.
//! Each iteration runs on a fresh [`MatchingEngine`], so index, display and
//! similarity-memo builds are inside the measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dq_bench::card_workload;
use dq_match::prelude::*;
use dq_relation::IndexPool;
use std::sync::Arc;
use std::time::Duration;

fn rules(derived: bool) -> Vec<RelativeKey> {
    let card = dq_gen::cards::card_schema();
    let billing = dq_gen::cards::billing_schema();
    let yc = dq_match::paper::YC;
    let yb = dq_match::paper::YB;
    let mut rules = vec![RelativeKey::new(
        &card,
        &billing,
        vec![
            ("LN", "SN", SimilarityOp::Equality),
            ("addr", "post", SimilarityOp::Equality),
            ("FN", "FN", SimilarityOp::Equality),
        ],
        &yc,
        &yb,
    )
    .unwrap()];
    if derived {
        rules.push(
            RelativeKey::new(
                &card,
                &billing,
                vec![
                    ("email", "email", SimilarityOp::Equality),
                    ("addr", "post", SimilarityOp::Equality),
                ],
                &yc,
                &yb,
            )
            .unwrap(),
        );
        rules.push(
            RelativeKey::new(
                &card,
                &billing,
                vec![
                    ("LN", "SN", SimilarityOp::Equality),
                    ("addr", "post", SimilarityOp::Equality),
                    ("FN", "FN", SimilarityOp::edit(3)),
                ],
                &yc,
                &yb,
            )
            .unwrap(),
        );
    }
    rules
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("md_matching_quality");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for &holders in &[500usize, 2_000] {
        let workload = card_workload(holders);
        let given = Matcher::new(rules(false));
        let derived = Matcher::new(rules(true));
        let fresh = || MatchingEngine::new(Arc::new(IndexPool::new()));
        group.bench_with_input(
            BenchmarkId::new("given_rules", holders),
            &holders,
            |b, _| b.iter(|| given.run(&fresh(), &workload.card, &workload.billing).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("with_derived_rcks", holders),
            &holders,
            |b, _| {
                b.iter(|| {
                    derived
                        .run(&fresh(), &workload.card, &workload.billing)
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
