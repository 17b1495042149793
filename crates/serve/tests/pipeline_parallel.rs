//! Acceptance tests for the staged build/load pipeline:
//!
//! * building and loading an ≥4-shard model runs on the persistent
//!   pool's workers — **no per-build or per-load thread spawns**
//!   (asserted with the vendored pool's `threads_ever_spawned` counter);
//! * the parallel pipeline produces **bit-identical containers** and
//!   dense-oracle-identical products vs. the sequential reference path,
//!   for every backend × reorder mode (including per-shard orders and
//!   auto encoding);
//! * an `auto`-grammar build is bit-identical to the sequential one at
//!   every shard count, though the parallel build runs each shard's two
//!   grammar continuations through a `join` nested in the phase's
//!   `par_map` and the sequential one runs them inline.

use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, DenseMatrix};
use gcm_pipeline::{BuildConfig, EncodingChoice, GrammarChoice, Pipeline, ReorderMode};
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::{container, Backend, ShardedModel};

/// A matrix whose two halves correlate different column pairs, so
/// per-shard reordering has real work to disagree about.
fn sample(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        let v = ((r * 5 % 7) + 1) as f64;
        let w = ((r * 3 % 9) + 20) as f64;
        if r < rows / 2 {
            m.set(r, 0, v);
            m.set(r, (cols - 1).min(4), v);
            m.set(r, 2 % cols, w);
        } else {
            m.set(r, 1 % cols, v);
            m.set(r, (cols - 1).min(5), v);
            m.set(r, 3 % cols, w);
        }
        if (r * 3 + 1) % 4 != 0 {
            m.set(r, (r * 2 + 1) % cols, ((r % 5) + 1) as f64 * 0.5);
        }
    }
    m
}

#[test]
fn parallel_and_sequential_builds_yield_bit_identical_containers() {
    let dense = sample(64, 8);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let pipeline = Pipeline::new();
    for backend in Backend::ALL {
        for reorder in [
            None,
            Some(ReorderMode::Global(ReorderAlgorithm::PathCover)),
            Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
        ] {
            for encoding in [
                EncodingChoice::Fixed(gcm_core::Encoding::ReAns),
                EncodingChoice::Auto,
            ] {
                let config = BuildConfig {
                    backend,
                    shards: 4,
                    reorder,
                    encoding,
                    ..BuildConfig::default()
                };
                let par = ShardedModel::from_artifacts(pipeline.build(&csrv, &config));
                let seq = ShardedModel::from_artifacts(pipeline.build_sequential(&csrv, &config));
                assert_eq!(
                    par.to_bytes(),
                    seq.to_bytes(),
                    "{} {:?} {:?}: containers must be bit-identical",
                    backend.name(),
                    reorder,
                    encoding
                );
            }
        }
    }
}

/// Each `Auto` shard nests a two-task `join` inside phase 2's
/// `par_map`. With fewer shards than pool threads the nested tasks find
/// idle workers; with more, the publisher helps drain the occupied
/// broadcast slot. Neither may change the bytes.
#[test]
fn auto_grammar_builds_match_sequential_at_every_shard_count() {
    let csrv = CsrvMatrix::from_dense(&Dataset::Covtype.generate(1_200, 7)).unwrap();
    let pipeline = Pipeline::new();
    for shards in 1..=4 {
        let config = BuildConfig {
            shards,
            encoding: EncodingChoice::Auto,
            grammar: Some(GrammarChoice::Auto),
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildConfig::default()
        };
        let par = pipeline.build(&csrv, &config);
        let seq = pipeline.build_sequential(&csrv, &config);
        for (p, s) in par.stats.shards.iter().zip(&seq.stats.shards) {
            assert_eq!(p.grammar_builds, 2, "one build per candidate");
            assert_eq!(p.shared_rules, s.shared_rules);
            assert!(p.shared_rules > 0, "covtype shards share a prefix");
        }
        let par = ShardedModel::from_artifacts(par);
        let seq = ShardedModel::from_artifacts(seq);
        assert_eq!(
            par.to_bytes(),
            seq.to_bytes(),
            "{shards} shard(s): containers must be bit-identical"
        );
    }
}

#[test]
fn pipeline_products_match_the_dense_oracle() {
    let dense = sample(61, 8);
    let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 - 2.0).collect();
    let yv: Vec<f64> = (0..61).map(|i| ((i % 6) as f64) - 2.5).collect();
    let mut y_ref = vec![0.0; 61];
    let mut x_ref = vec![0.0; 8];
    dense.right_multiply(&x, &mut y_ref).unwrap();
    dense.left_multiply(&yv, &mut x_ref).unwrap();
    for backend in Backend::ALL {
        let opts = BuildConfig {
            backend,
            shards: 4,
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        // Through the container and the ShardTable-parallel loader too.
        let reloaded = ShardedModel::from_bytes(&model.to_bytes()).unwrap();
        for (name, m) in [("built", &model), ("reloaded", &reloaded)] {
            let mut y = vec![0.0; 61];
            m.right_multiply_panel(1, &x, &mut y).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "{} {name} right", backend.name());
            }
            let mut xo = vec![0.0; 8];
            m.left_multiply_panel(1, &yv, &mut xo).unwrap();
            for (a, b) in xo.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{} {name} left", backend.name());
            }
        }
    }
}

#[test]
fn parallel_loader_equals_sequential_loader() {
    let dense = sample(48, 8);
    let model = ShardedModel::from_dense(
        &dense,
        &BuildConfig {
            shards: 4,
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildConfig::default()
        },
    )
    .unwrap();
    let bytes = model.to_bytes();
    let par = container::from_bytes(&bytes).unwrap();
    let seq = container::from_bytes_sequential(&bytes).unwrap();
    assert_eq!(par.to_bytes(), seq.to_bytes(), "loaders must agree");
    assert_eq!(par.num_shards(), 4);
    for i in 0..4 {
        assert_eq!(par.shard_meta(i), seq.shard_meta(i));
    }
}

#[test]
fn build_and_load_spawn_no_threads_beyond_the_pool() {
    let dense = sample(96, 8);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let config = BuildConfig {
        shards: 8,
        reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
        ..BuildConfig::default()
    };
    // First build + load spins the global pool up (and prewarm below
    // exercises the multiply broadcasts once).
    let warm = ShardedModel::from_artifacts(gcm_pipeline::global().build(&csrv, &config));
    let bytes = warm.to_bytes();
    let loaded = ShardedModel::from_bytes(&bytes).unwrap();
    loaded.prewarm(2);

    let spawned = rayon::threads_ever_spawned();
    for _ in 0..3 {
        let built = ShardedModel::from_artifacts(gcm_pipeline::global().build(&csrv, &config));
        assert_eq!(built.num_shards(), 8);
        let loaded = ShardedModel::from_bytes(&bytes).unwrap();
        loaded.prewarm(2);
        let mut y = vec![0.0; 96];
        loaded.right_multiply_panel(1, &[1.0; 8], &mut y).unwrap();
    }
    assert_eq!(
        rayon::threads_ever_spawned(),
        spawned,
        "pipeline builds/loads must reuse pool workers, never spawn"
    );
}
