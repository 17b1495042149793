//! Proves the headline property of the execution-layer refactor: a
//! steady-state serving loop multiplying through a [`Workspace`] performs
//! **zero heap allocation** — for every compressed encoding and for the
//! uncompressed formats.
//!
//! The tracking allocator is installed process-wide, and every check
//! counts only the test thread's own allocation operations
//! ([`alloc::thread_alloc_ops`]): the kernels under test run on the
//! calling thread (`gcm-core` and `gcm-matrix` never use the pool), so
//! an allocation by any other thread of the test process — the harness's
//! main thread waiting for the result, say — is not theirs.

use gcm_bench::alloc;
use gcm_bench::TrackingAlloc;
use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, Workspace};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn repetitive(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = match (r % 4, c % 3) {
                (0, 0) => 1.5,
                (1, 1) => 2.5,
                (2, _) => 0.5,
                (3, 2) => 7.25,
                _ => 0.0,
            };
            m.set(r, c, v);
        }
    }
    m
}

/// Runs `f` twice to warm workspace buffers, then asserts that 16 more
/// calls perform zero allocation operations.
fn assert_steady_state_alloc_free(name: &str, mut f: impl FnMut()) {
    f();
    f();
    let before = alloc::thread_alloc_ops();
    for _ in 0..16 {
        f();
    }
    let after = alloc::thread_alloc_ops();
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state loop allocated ({} ops over 16 calls)",
        after - before
    );
}

#[test]
fn steady_state_multiplication_does_not_allocate() {
    let dense = repetitive(96, 12);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let x: Vec<f64> = (0..12).map(|i| i as f64 * 0.5 - 3.0).collect();
    let yv: Vec<f64> = (0..96).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mut y = vec![0.0; 96];
    let mut xo = vec![0.0; 12];
    let mut ws = Workspace::new();

    // Uncompressed formats: no scratch at all.
    assert_steady_state_alloc_free("csrv right", || {
        csrv.right_multiply_into(&x, &mut y, &mut ws).unwrap();
    });
    assert_steady_state_alloc_free("csrv left", || {
        csrv.left_multiply_into(&yv, &mut xo, &mut ws).unwrap();
    });
    assert_steady_state_alloc_free("dense right", || {
        dense.right_multiply_into(&x, &mut y, &mut ws).unwrap();
    });

    // Compressed encodings: the w array comes from the workspace.
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let mut ws = Workspace::new();
        assert_steady_state_alloc_free(&format!("{} right", enc.name()), || {
            cm.right_multiply_into(&x, &mut y, &mut ws).unwrap();
        });
        assert_steady_state_alloc_free(&format!("{} left", enc.name()), || {
            cm.left_multiply_into(&yv, &mut xo, &mut ws).unwrap();
        });

        // Batched products: the k-wide panels come from the workspace too.
        let k = 4;
        let b = DenseMatrix::zeros(12, k);
        let mut out = DenseMatrix::zeros(96, k);
        assert_steady_state_alloc_free(&format!("{} batched right", enc.name()), || {
            cm.right_multiply_matrix_into(&b, &mut out, &mut ws)
                .unwrap();
        });
        let by = DenseMatrix::zeros(96, k);
        let mut outl = DenseMatrix::zeros(12, k);
        assert_steady_state_alloc_free(&format!("{} batched left", enc.name()), || {
            cm.left_multiply_matrix_into(&by, &mut outl, &mut ws)
                .unwrap();
        });
    }

    // Alternating right/left through one shared workspace stays
    // allocation-free as well (the Eq. 4 iteration pattern).
    let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
    let mut ws = Workspace::new();
    assert_steady_state_alloc_free("re_iv alternating", || {
        cm.right_multiply_into(&x, &mut y, &mut ws).unwrap();
        cm.left_multiply_into(&yv, &mut xo, &mut ws).unwrap();
    });
}
