//! The paper's benchmark workload (Eq. 4): alternated right/left
//! multiplications with infinity-norm normalisation, run over several
//! representations of a Census-like matrix — single-threaded and with
//! row-block parallelism (§4.1) — through the **zero-allocation
//! iterative driver** (`power_iterations_into`): every matrix reuses
//! one `SolverWorkspace`, so after the warm-up call no iteration
//! touches the heap.
//!
//! Run with: `cargo run --release --example power_iteration`

use std::time::Instant;

use mm_repair::prelude::*;

fn run(
    name: &str,
    matrix: &dyn MatVec,
    iters: usize,
    bytes: usize,
    dense_bytes: usize,
    ws: &mut SolverWorkspace,
) {
    // One-time warm-up (buffer sizing + a throwaway multiply pair);
    // excluded from the timed loop, like a server's prewarm.
    ws.prepare(matrix).expect("prepare");
    let mut x = vec![1.0; matrix.cols()];
    let t0 = Instant::now();
    let stats = power_iterations_into(matrix, &mut x, iters, ws).expect("iterations");
    let dt = t0.elapsed();
    println!(
        "{name:<22} {:>9.3} ms/iter   size {:>6.2}%   ‖z‖∞ = {:.4}",
        dt.as_secs_f64() * 1e3 / iters as f64,
        100.0 * bytes as f64 / dense_bytes as f64,
        stats.norm,
    );
}

fn main() {
    let rows = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let iters = 50;
    println!("generating Census-like matrix with {rows} rows…");
    let dense = Dataset::Census.generate(rows, 42);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let dense_bytes = dense.uncompressed_bytes();
    println!(
        "dense: {:.1} MiB, {} distinct values, {:.1}% non-zero\n",
        dense_bytes as f64 / (1 << 20) as f64,
        csrv.values().len(),
        100.0 * csrv.nnz() as f64 / (rows * dense.cols()) as f64,
    );

    // One workspace serves every representation: `prepare` resizes it
    // to each matrix's needs and the free-listed buffers carry over.
    let mut ws = SolverWorkspace::new();

    println!("-- single thread ----------------------------------------------");
    run(
        "csrv",
        &csrv,
        iters,
        csrv.csrv_bytes(),
        dense_bytes,
        &mut ws,
    );
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        run(
            enc.name(),
            &cm,
            iters,
            cm.stored_bytes(),
            dense_bytes,
            &mut ws,
        );
    }

    println!("-- 8 row shards, one pool task each (§4.1) --------------------");
    for enc in Encoding::ALL {
        let opts = BuildConfig {
            encoding: EncodingChoice::Fixed(enc),
            shards: 8,
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_csrv(&csrv, &opts).expect("build");
        run(
            &format!("{} x8", enc.name()),
            &model,
            iters,
            model.stored_bytes(),
            dense_bytes,
            &mut ws,
        );
    }
}
