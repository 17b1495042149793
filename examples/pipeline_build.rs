//! The staged build pipeline, driven explicitly: plan → pool-parallel
//! per-shard stages → artifacts → servable model.
//!
//! ```sh
//! cargo run --release --example pipeline_build
//! ```
//!
//! Builds the same model two ways — sequential reference and
//! pool-parallel pipeline — with **per-shard** column reordering (§5.3)
//! and automatic per-shard encoding selection, shows the per-stage
//! timing/size statistics, verifies the two builds produce bit-identical
//! containers, and round-trips the per-shard permutations through a
//! save → load cycle.

use mm_repair::prelude::*;

fn main() {
    let dense = Dataset::Census.generate(3000, 11);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    println!(
        "matrix: {} x {} ({} non-zeroes, {} dense bytes)",
        dense.rows(),
        dense.cols(),
        dense.nnz(),
        dense.uncompressed_bytes()
    );

    // The build configuration: 4 shards, each reordered with its own
    // PathCover permutation, encoding chosen per shard by measured size.
    let config = BuildConfig {
        backend: Backend::Compressed,
        encoding: EncodingChoice::Auto,
        shards: 4,
        blocks: 2,
        reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
        grammar: None,
    };

    // Stage execution: every shard independently runs
    // reorder → RePair → encode on the persistent pool.
    let pipeline = Pipeline::new();
    let artifacts = pipeline.build(&csrv, &config);
    let stats = artifacts.stats.clone();
    let (reorder, grammar, encode) = stats.stage_cpu_totals();
    println!(
        "stages: plan {:?} | reorder {:?} | grammar {:?} | encode {:?} (cpu) | wall {:?}",
        stats.plan_time, reorder, grammar, encode, stats.wall_time
    );
    println!("  shard   rows     nnz   rules   bytes  encoding  reorder");
    for s in &stats.shards {
        println!(
            "  {:>5} {:>6} {:>7} {:>7} {:>7}  {:<8}  {}",
            s.index,
            s.rows,
            s.nnz,
            s.grammar_rules,
            s.encoded_bytes,
            s.encoding.map_or("-", |e| e.name()),
            s.reorder.map_or("none", |a| a.name()),
        );
    }

    // The artifacts become a servable model; the sequential reference
    // build produces a bit-identical container.
    let model = ShardedModel::from_artifacts(artifacts);
    let reference = ShardedModel::from_artifacts(pipeline.build_sequential(&csrv, &config));
    let bytes = model.to_bytes();
    assert_eq!(bytes, reference.to_bytes(), "parallel == sequential");
    println!(
        "container: {} bytes ({:.2}% of dense), bit-identical across parallel/sequential builds",
        bytes.len(),
        100.0 * bytes.len() as f64 / dense.uncompressed_bytes() as f64
    );

    // Round-trip: the ShardTable-parallel loader restores every shard's
    // own permutation (GCMSERV1 version 2 and up), and products match dense.
    let loaded = ShardedModel::from_bytes(&bytes).expect("load");
    for i in 0..loaded.num_shards() {
        assert_eq!(loaded.shard_col_order(i), model.shard_col_order(i));
        assert_eq!(
            loaded.shard_reorder(i),
            Some(ReorderAlgorithm::PathCover),
            "provenance survives the round-trip"
        );
    }
    loaded.prewarm(4);
    let x = vec![1.0; dense.cols()];
    let mut y = vec![0.0; dense.rows()];
    let mut y_ref = vec![0.0; dense.rows()];
    loaded.right_multiply_panel(1, &x, &mut y).expect("serve");
    dense.right_multiply(&x, &mut y_ref).expect("oracle");
    for (a, b) in y.iter().zip(&y_ref) {
        assert!((a - b).abs() < 1e-9);
    }
    println!(
        "served: {}-shard load (pool-parallel decode) matches the dense oracle",
        loaded.num_shards()
    );
}
