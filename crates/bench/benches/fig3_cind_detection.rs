//! Fig. 3 / Fig. 4 experiment: CIND violation detection on the
//! order/book/CD database, scaling the number of orders.  The
//! `cind_detection` row times the row-at-a-time detector of
//! `dq_core::reference`; the IND baseline times the engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dq_bench::{order_workload, DETECTION_SIZES};
use dq_core::prelude::*;
use dq_core::reference;
use dq_gen::orders::paper_cinds;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_cind_detection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let cinds = paper_cinds();
    let inds: Vec<Ind> = cinds.iter().map(|c| c.embedded_ind()).collect();
    for &size in &DETECTION_SIZES {
        let workload = order_workload(size, 0.05);
        group.bench_with_input(BenchmarkId::new("cind_detection", size), &size, |b, _| {
            b.iter(|| {
                reference::detect_cind_violations(&workload.db, &cinds)
                    .unwrap()
                    .total()
            })
        });
        // Baseline: the embedded traditional INDs (which flag far more
        // tuples, because they ignore the pattern conditions), on a cold
        // engine.
        group.bench_with_input(BenchmarkId::new("ind_baseline", size), &size, |b, _| {
            b.iter(|| {
                DetectionEngine::new()
                    .detect_ind_violations(&workload.db, &inds, false)
                    .map(|per_ind| per_ind.iter().map(Vec::len).sum::<usize>())
                    .unwrap_or(0)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
