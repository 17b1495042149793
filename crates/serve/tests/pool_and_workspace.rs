//! Row shards on the persistent pool: repeated products reuse the
//! pool's workers (no per-call thread spawn), and batched products over
//! any shard count equal the dense column-at-a-time reference.

use gcm_core::Encoding;
use gcm_matrix::{DenseMatrix, MatVec, Workspace};
use gcm_serve::{Backend, BuildConfig, EncodingChoice, ShardedModel};

fn sample(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if (r * 7 + c * 3) % 5 != 0 {
                m.set(r, c, (((r + c) % 6) + 1) as f64 * 0.25);
            }
        }
    }
    m
}

fn build(dense: &DenseMatrix, backend: Backend, encoding: Encoding, shards: usize) -> ShardedModel {
    let opts = BuildConfig {
        backend,
        encoding: EncodingChoice::Fixed(encoding),
        shards,
        ..BuildConfig::default()
    };
    ShardedModel::from_dense(dense, &opts).expect("build")
}

/// Repeated right, left and batched products through 4-shard models of
/// both backends must reuse the pool's workers: after a warm-up round
/// has built the global pool, no further OS thread is ever spawned.
#[test]
fn repeated_multiplications_spawn_no_threads() {
    let dense = sample(120, 9);
    let models = [
        build(&dense, Backend::Compressed, Encoding::Re32, 4),
        build(&dense, Backend::Csrv, Encoding::Re32, 4),
    ];
    let x = vec![1.0; 9];
    let yv = vec![0.5; 120];
    let b = DenseMatrix::zeros(9, 3);
    let by = DenseMatrix::zeros(120, 3);
    let mut y = vec![0.0; 120];
    let mut xo = vec![0.0; 9];
    let mut out = DenseMatrix::zeros(120, 3);
    let mut outl = DenseMatrix::zeros(9, 3);
    let round = |y: &mut [f64], xo: &mut [f64], out: &mut DenseMatrix, outl: &mut DenseMatrix| {
        for model in &models {
            assert_eq!(model.num_shards(), 4);
            model.right_multiply(&x, y).unwrap();
            model.left_multiply(&yv, xo).unwrap();
            model
                .right_multiply_matrix_into(&b, out, &mut Workspace::new())
                .unwrap();
            model
                .left_multiply_matrix_into(&by, outl, &mut Workspace::new())
                .unwrap();
        }
    };

    // Warm-up: the first multi-shard product lazily builds the pool.
    round(&mut y, &mut xo, &mut out, &mut outl);
    let spawned = rayon::threads_ever_spawned();
    assert!(spawned >= 1, "warm-up must have built the pool");
    for _ in 0..50 {
        round(&mut y, &mut xo, &mut out, &mut outl);
    }
    assert_eq!(
        rayon::threads_ever_spawned(),
        spawned,
        "multiplications must reuse the persistent pool, not spawn threads"
    );
}

/// Batched products through row shards equal the dense column-at-a-time
/// reference for the CSRV backend and every encoding, at 1, 3 and 8
/// shards (batching composed with row-block parallelism, §4.1).
#[test]
fn blocked_batched_matches_column_loop() {
    let dense = sample(103, 11);
    let k = 7;
    let mut b = DenseMatrix::zeros(11, k);
    for i in 0..11 {
        for j in 0..k {
            b.set(i, j, ((i * k + j) % 9) as f64 * 0.5 - 2.0);
        }
    }
    let mut by = DenseMatrix::zeros(103, k);
    for i in 0..103 {
        for j in 0..k {
            by.set(i, j, ((i + 2 * j) % 7) as f64 - 3.0);
        }
    }
    let want_r = dense.right_multiply_matrix(&b).unwrap();
    let want_l = dense.left_multiply_matrix(&by).unwrap();
    let kinds = std::iter::once((Backend::Csrv, Encoding::ReAns))
        .chain(Encoding::ALL.map(|enc| (Backend::Compressed, enc)));
    for (backend, enc) in kinds {
        for shards in [1usize, 3, 8] {
            let model = build(&dense, backend, enc, shards);
            let name = format!("{} {} shards={shards}", backend.name(), enc.name());
            let got_r = model.right_multiply_matrix(&b).unwrap();
            let got_l = model.left_multiply_matrix(&by).unwrap();
            for i in 0..103 {
                for j in 0..k {
                    assert!(
                        (got_r.get(i, j) - want_r.get(i, j)).abs() < 1e-9,
                        "{name} right ({i},{j})"
                    );
                }
            }
            for i in 0..11 {
                for j in 0..k {
                    assert!(
                        (got_l.get(i, j) - want_l.get(i, j)).abs() < 1e-9,
                        "{name} left ({i},{j})"
                    );
                }
            }
        }
    }
}
