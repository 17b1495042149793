//! The zero-allocation serving loop: how a traffic-serving process should
//! drive the multiplication kernels.
//!
//! Compress once at startup, then serve requests through a reused
//! [`Workspace`] (`*_into` methods — zero steady-state heap allocation)
//! and batch concurrent requests into one `Y = M·X` product so the
//! grammar `(C, R)` is traversed once per batch instead of once per
//! request.
//!
//! ```sh
//! cargo run --release --example serving_loop
//! ```

use std::time::Instant;

use mm_repair::prelude::*;

fn main() {
    // Startup: build the model matrix and compress it once.
    let rows = 4_000;
    let dense = Dataset::Census.generate(rows, 42);
    let cols = dense.cols();
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let matrix = CompressedMatrix::compress(&csrv, Encoding::ReAns);
    println!(
        "model: {rows}x{cols}, {} rules, {} bytes compressed ({} bytes dense)",
        matrix.num_rules(),
        matrix.stored_bytes(),
        dense.uncompressed_bytes()
    );

    // One workspace per serving thread, allocated before the loop. After
    // the first request warms its buffers every multiplication is
    // allocation-free.
    let mut ws = Workspace::new();

    // --- Pattern 1: single-vector requests through `*_into`. -----------
    let x = vec![1.0f64; cols];
    let mut y = vec![0.0f64; rows];
    let t = Instant::now();
    let singles = 200;
    for _ in 0..singles {
        matrix
            .right_multiply_into(&x, &mut y, &mut ws)
            .expect("serve");
    }
    let per_single = t.elapsed().as_secs_f64() / singles as f64;
    println!("single-vector: {:.1} µs/request", per_single * 1e6);

    // --- Pattern 2: batch concurrent requests into Y = M·X. ------------
    // Requests are the *columns* of a cols×k panel; one grammar traversal
    // serves all of them.
    for k in [8usize, 64] {
        let mut batch = DenseMatrix::zeros(cols, k);
        for i in 0..cols {
            for j in 0..k {
                batch.set(i, j, ((i + j) % 13) as f64 * 0.25 - 1.0);
            }
        }
        let mut out = DenseMatrix::zeros(rows, k);
        let rounds = 200 / k + 1;
        let t = Instant::now();
        for _ in 0..rounds {
            matrix
                .right_multiply_matrix_into(&batch, &mut out, &mut ws)
                .expect("serve batch");
        }
        let per_req = t.elapsed().as_secs_f64() / (rounds * k) as f64;
        println!(
            "batched k={k}:  {:.1} µs/request ({:.1}x vs single)",
            per_req * 1e6,
            per_single / per_req
        );
    }

    // --- Pattern 3: row shards compose with batching. -----------------
    // A ShardedModel multiplies its shards on the persistent pool — no
    // threads are spawned inside the serving loop — and each shard owns
    // its workspace, which `prewarm` sizes before the first request.
    let opts = BuildConfig {
        encoding: EncodingChoice::Fixed(Encoding::ReAns),
        shards: 4,
        ..BuildConfig::default()
    };
    let sharded = ShardedModel::from_csrv(&csrv, &opts).expect("build shards");
    let k = 8;
    sharded.prewarm(k);
    let mut batch = DenseMatrix::zeros(cols, k);
    for i in 0..cols {
        for j in 0..k {
            batch.set(i, j, (i * j % 7) as f64 * 0.5);
        }
    }
    let mut out = DenseMatrix::zeros(rows, k);
    let t = Instant::now();
    for _ in 0..25 {
        sharded
            .right_multiply_matrix_into(&batch, &mut out, &mut ws)
            .expect("serve sharded batch");
    }
    println!(
        "sharded x batched (4 shards, k=8): {:.1} µs/request",
        t.elapsed().as_secs_f64() / (25 * k) as f64 * 1e6
    );
}
