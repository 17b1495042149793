//! Criterion benchmarks of the column-reordering stack: CSM computation
//! and the four reordering algorithms (the cost side of Table 3's
//! "modest preprocessing time" claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gcm_datagen::Dataset;
use gcm_matrix::CsrvMatrix;
use gcm_reorder::{Csm, CsmConfig};

fn bench_csm(c: &mut Criterion) {
    let mut group = c.benchmark_group("csm_compute");
    for ds in [Dataset::Covtype, Dataset::Census] {
        let dense = ds.generate(8_000, 5);
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        group.bench_with_input(
            BenchmarkId::from_parameter(ds.spec().name),
            &csrv,
            |b, csrv| {
                b.iter(|| Csm::compute(csrv, CsmConfig::default()));
            },
        );
    }
    // The pipeline reorders shards with the exact CSM: a 30k-row
    // Covtype slice is one shard of the 120k-row, 4-shard build.
    let dense = Dataset::Covtype.generate(30_000, 5);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    group.bench_with_input(
        BenchmarkId::from_parameter("covtype-30k-exact"),
        &csrv,
        |b, csrv| {
            b.iter(|| Csm::compute(csrv, CsmConfig::exact()));
        },
    );
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let dense = Dataset::Covtype.generate(8_000, 5);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let csm = Csm::compute(&csrv, CsmConfig::default());
    let graph = csm.locally_pruned(16);

    let mut group = c.benchmark_group("reorder_algorithms");
    group.bench_function("path_cover", |b| {
        b.iter(|| gcm_reorder::pathcover::path_cover(&graph))
    });
    group.bench_function("path_cover_plus", |b| {
        b.iter(|| gcm_reorder::pathcover::path_cover_plus(&graph))
    });
    group.bench_function("mwm", |b| b.iter(|| gcm_reorder::mwm::mwm_order(&graph)));
    group.bench_function("lkh_style_tsp", |b| {
        b.iter(|| gcm_reorder::tsp::tsp_order(&graph, gcm_reorder::tsp::TspConfig::default()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_csm, bench_algorithms
}
criterion_main!(benches);
