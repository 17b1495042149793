//! Checks of the §4.1 row-block scheme over uncompressed CSRV blocks (the
//! parallel CSRV baseline of Table 2), as the paper harnesses build it
//! with [`crate::runner::row_block_model`] and no encoding.

#[cfg(test)]
mod tests {
    use crate::runner::row_block_model;
    use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, RowBlocks};
    use gcm_serve::ShardedModel;

    fn sample() -> (DenseMatrix, CsrvMatrix) {
        let mut dense = DenseMatrix::zeros(57, 7);
        for r in 0..57 {
            for c in 0..7 {
                if (r + c) % 3 != 0 {
                    dense.set(r, c, ((r * c) % 5 + 1) as f64);
                }
            }
        }
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        (dense, csrv)
    }

    fn split(csrv: &CsrvMatrix, b: usize) -> ShardedModel {
        row_block_model(RowBlocks::split(csrv, b).into_blocks(), None)
    }

    #[test]
    fn parallel_csrv_matches_sequential() {
        let (_, csrv) = sample();
        let par = split(&csrv, 4);
        assert_eq!(par.num_shards(), 4);
        let x: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let mut y_ref = vec![0.0; 57];
        let mut y = vec![0.0; 57];
        csrv.right_multiply(&x, &mut y_ref).unwrap();
        par.right_multiply(&x, &mut y).unwrap();
        assert_eq!(y_ref, y);

        let yv: Vec<f64> = (0..57).map(|i| (i % 4) as f64).collect();
        let mut x_ref = vec![0.0; 7];
        let mut xo = vec![0.0; 7];
        csrv.left_multiply(&yv, &mut x_ref).unwrap();
        par.left_multiply(&yv, &mut xo).unwrap();
        for (a, b) in x_ref.iter().zip(&xo) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_matches_column_loop() {
        let (dense, csrv) = sample();
        let par = split(&csrv, 5);
        let k = 4;
        let mut b = DenseMatrix::zeros(7, k);
        for i in 0..7 {
            for j in 0..k {
                b.set(i, j, (i * k + j) as f64 * 0.25 - 2.0);
            }
        }
        let want = dense.right_multiply_matrix(&b).unwrap();
        let got = par.right_multiply_matrix(&b).unwrap();
        for i in 0..57 {
            for j in 0..k {
                assert!((got.get(i, j) - want.get(i, j)).abs() < 1e-9);
            }
        }

        let mut by = DenseMatrix::zeros(57, k);
        for i in 0..57 {
            for j in 0..k {
                by.set(i, j, ((i + j) % 5) as f64 - 2.0);
            }
        }
        let want = dense.left_multiply_matrix(&by).unwrap();
        let got = par.left_multiply_matrix(&by).unwrap();
        for i in 0..7 {
            for j in 0..k {
                assert!((got.get(i, j) - want.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dimension_checks() {
        let (_, csrv) = sample();
        let par = split(&csrv, 4);
        let mut y = vec![0.0; 57];
        assert!(par.right_multiply(&[0.0; 3], &mut y).is_err());
        let mut x = vec![0.0; 7];
        assert!(par.left_multiply(&[0.0; 3], &mut x).is_err());
    }
}
