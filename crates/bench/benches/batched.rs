//! Batched multi-vector products `Y = M·X` (k = 1, 8, 64) against the
//! column-at-a-time loop, for csrv and the three compressed encodings.
//!
//! The batched kernels traverse `(C, R)` once per batch with a `k`-wide
//! `w` panel; the column loop traverses once per column. The gap widens
//! with `k` and with decode cost (re_ans pays rANS decoding once per
//! batch instead of once per column). At k = 1 both rows run the
//! width-1 kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_matrix::matvec::panel_by_columns;
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, Workspace};

/// Column-at-a-time reference: the width-1 kernel once per column
/// (gather column, multiply, scatter) through [`panel_by_columns`], with
/// workspace reuse so the comparison isolates the traversal count.
fn column_loop(m: &dyn MatVec, b: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) {
    panel_by_columns(
        b.cols(),
        b.as_slice(),
        out.as_mut_slice(),
        ws,
        |x, y, ws| m.right_multiply_into(x, y, ws),
    )
    .unwrap();
}

fn bench_batched(c: &mut Criterion) {
    let rows = 4_000;
    let dense = Dataset::Census.generate(rows, 42);
    let cols = dense.cols();
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let mats: Vec<(&str, Box<dyn MatVec>)> = vec![
        ("csrv", Box::new(csrv.clone())),
        (
            "re_32",
            Box::new(CompressedMatrix::compress(&csrv, Encoding::Re32)),
        ),
        (
            "re_iv",
            Box::new(CompressedMatrix::compress(&csrv, Encoding::ReIv)),
        ),
        (
            "re_ans",
            Box::new(CompressedMatrix::compress(&csrv, Encoding::ReAns)),
        ),
    ];

    for k in [1usize, 8, 64] {
        let mut b = DenseMatrix::zeros(cols, k);
        for i in 0..cols {
            for j in 0..k {
                b.set(i, j, ((i * k + j) % 17) as f64 * 0.125 - 1.0);
            }
        }
        let mut group = c.benchmark_group(format!("right_multiply_matrix/k{k}"));
        // Element throughput: nnz touched per batch.
        group.throughput(Throughput::Elements((csrv.nnz() * k) as u64));
        for (name, m) in &mats {
            let mut ws = Workspace::new();
            let mut out = DenseMatrix::zeros(rows, k);
            group.bench_with_input(BenchmarkId::new("batched", name), m, |bench, m| {
                bench.iter(|| m.right_multiply_matrix_into(&b, &mut out, &mut ws).unwrap());
            });
            group.bench_with_input(BenchmarkId::new("column_loop", name), m, |bench, m| {
                bench.iter(|| column_loop(m.as_ref(), &b, &mut out, &mut ws));
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batched
}
criterion_main!(benches);
