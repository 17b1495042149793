//! Criterion micro-benchmarks for the multiplication kernels: right/left
//! MVM across representations (dense, csrv, re_32, re_iv, re_ans, CLA) on
//! a Census-like matrix — the per-operation view behind Table 2.
//!
//! The `shard1/…` rows run csrv and each encoding as a one-shard,
//! unplanned [`ShardedModel`] — the §4.1 row-block path of the table
//! harnesses — beside the bare kernel row of the same representation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gcm_baselines::ClaMatrix;
use gcm_bench::runner::row_block_model;
use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, MatVec, Workspace};

fn bench_mvm(c: &mut Criterion) {
    let rows = 10_000;
    let dense = Dataset::Census.generate(rows, 42);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let cla = ClaMatrix::compress(&dense);
    let encodings = [Encoding::Re32, Encoding::ReIv, Encoding::ReAns];
    let mut mats: Vec<(String, Box<dyn MatVec>)> = vec![
        ("dense".into(), Box::new(dense.clone())),
        ("csrv".into(), Box::new(csrv.clone())),
    ];
    for enc in encodings {
        let cm = CompressedMatrix::compress(&csrv, enc);
        mats.push((enc.name().into(), Box::new(cm)));
    }
    mats.push(("cla".into(), Box::new(cla)));
    mats.push((
        "shard1/csrv".into(),
        Box::new(row_block_model(vec![csrv.clone()], None)),
    ));
    for enc in encodings {
        let model = row_block_model(vec![csrv.clone()], Some(enc));
        mats.push((format!("shard1/{}", enc.name()), Box::new(model)));
    }

    let x: Vec<f64> = (0..dense.cols()).map(|i| (i as f64) * 0.1).collect();
    let yv: Vec<f64> = (0..rows).map(|i| ((i % 9) as f64) - 4.0).collect();

    let mut group = c.benchmark_group("right_multiply");
    group.throughput(Throughput::Elements(csrv.nnz() as u64));
    for (name, m) in &mats {
        group.bench_with_input(BenchmarkId::from_parameter(name), m, |b, m| {
            let (mut y, mut ws) = (vec![0.0; rows], Workspace::new());
            b.iter(|| m.right_multiply_into(&x, &mut y, &mut ws).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("left_multiply");
    group.throughput(Throughput::Elements(csrv.nnz() as u64));
    for (name, m) in &mats {
        group.bench_with_input(BenchmarkId::from_parameter(name), m, |b, m| {
            let (mut xo, mut ws) = (vec![0.0; dense.cols()], Workspace::new());
            b.iter(|| m.left_multiply_into(&yv, &mut xo, &mut ws).unwrap());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mvm
}
criterion_main!(benches);
