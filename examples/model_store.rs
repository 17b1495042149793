//! The model-store lifecycle: build once, persist, restart, serve many.
//!
//! ```sh
//! cargo run --release --example model_store
//! ```
//!
//! Builds a sharded compressed model from a synthetic dataset, publishes
//! it into a named store, then simulates a process restart by loading it
//! back through a fresh `Registry` and serving batched requests against
//! it — comparing every result to the dense oracle.

use mm_repair::prelude::*;

fn main() {
    // A synthetic dataset (stand-in for a real model matrix).
    let dense = Dataset::Covtype.generate(2000, 7);
    println!(
        "matrix: {} x {} ({} non-zeroes, {} dense bytes)",
        dense.rows(),
        dense.cols(),
        dense.nnz(),
        dense.uncompressed_bytes()
    );

    // Build: 4 row shards, each grammar-compressed as re_ans.
    let opts = BuildConfig {
        backend: Backend::Compressed,
        encoding: EncodingChoice::Fixed(Encoding::ReAns),
        shards: 4,
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_dense(&dense, &opts).expect("build");
    println!(
        "built:  {} backend, {} shards, {} representation bytes ({:.2}% of dense)",
        model.backend().name(),
        model.num_shards(),
        model.stored_bytes(),
        100.0 * model.stored_bytes() as f64 / dense.uncompressed_bytes() as f64
    );

    // Publish into a named store (a directory of .gcms containers).
    let dir = std::env::temp_dir().join(format!("gcm-model-store-{}", std::process::id()));
    let store = ModelStore::open(&dir).expect("open store");
    let registry = Registry::new(store, 8);
    registry.publish("covtype-v1", model).expect("publish");
    println!("stored: {}", dir.join("covtype-v1.gcms").display());

    // "Restart": a fresh registry over the same directory. Compression
    // is NOT paid again — the container loads, validates, and prewarms.
    let registry = Registry::new(ModelStore::open(&dir).expect("reopen"), 8);
    let served = registry.get("covtype-v1").expect("load");
    println!(
        "loaded: {} shards, reorder metadata: {}",
        served.num_shards(),
        if served.col_order().is_some() {
            "yes"
        } else {
            "no"
        }
    );

    // Serve a batch of 8 requests as one panel and check the oracle.
    let k = 8;
    let mut b = DenseMatrix::zeros(served.cols(), k);
    for i in 0..served.cols() {
        for j in 0..k {
            b.set(i, j, ((i * k + j) % 13) as f64 * 0.5 - 3.0);
        }
    }
    let mut y = DenseMatrix::zeros(served.rows(), k);
    served
        .right_multiply_matrix_into(&b, &mut y, &mut Workspace::new())
        .expect("serve");
    let oracle = dense.right_multiply_matrix(&b).expect("oracle");
    let mut worst = 0.0f64;
    for i in 0..served.rows() {
        for j in 0..k {
            worst = worst.max((y.get(i, j) - oracle.get(i, j)).abs());
        }
    }
    println!("served: batch of {k}, max |error| vs dense oracle = {worst:.2e}");
    assert!(worst < 1e-9, "served products must match the oracle");

    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
}
