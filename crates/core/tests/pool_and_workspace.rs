//! Execution-layer integration test: a [`Workspace`] can be reused
//! across differently-shaped matrices. (Pool reuse across row shards is
//! pinned in `gcm-serve`'s `tests/pool_and_workspace.rs`.)

use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, Workspace};

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

/// One workspace serves matrices of very different shapes: buffers are
/// resized transparently and results stay exact.
#[test]
fn workspace_reuse_across_shapes_resizes_cleanly() {
    let big_dense = sample(200, 16);
    let small_dense = sample(3, 5);
    let big = CompressedMatrix::compress(
        &CsrvMatrix::from_dense(&big_dense).unwrap(),
        Encoding::ReAns,
    );
    let small = CompressedMatrix::compress(
        &CsrvMatrix::from_dense(&small_dense).unwrap(),
        Encoding::Re32,
    );

    let mut ws = Workspace::new();
    let xb = vec![1.0; 16];
    let xs = vec![1.0; 5];
    let mut yb = vec![0.0; 200];
    let mut ys = vec![0.0; 3];
    let mut yb_ref = vec![0.0; 200];
    let mut ys_ref = vec![0.0; 3];
    big_dense.right_multiply(&xb, &mut yb_ref).unwrap();
    small_dense.right_multiply(&xs, &mut ys_ref).unwrap();

    // Interleave shapes: big → small → big → … through one workspace.
    for _ in 0..4 {
        big.right_multiply_into(&xb, &mut yb, &mut ws).unwrap();
        for (a, b) in yb.iter().zip(&yb_ref) {
            assert!((a - b).abs() < 1e-9);
        }
        small.right_multiply_into(&xs, &mut ys, &mut ws).unwrap();
        for (a, b) in ys.iter().zip(&ys_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    // Mismatched *vector* lengths still error cleanly with a workspace.
    assert!(big.right_multiply_into(&xs, &mut yb, &mut ws).is_err());
    assert!(big.right_multiply_into(&xb, &mut ys, &mut ws).is_err());

    // Explicit scratch of the wrong length errors instead of panicking.
    let mut w_bad = vec![0.0; 1];
    if big.num_rules() != 1 {
        assert!(big
            .right_multiply_panel_with(1, &xb, &mut yb, &mut w_bad)
            .is_err());
    }
}
