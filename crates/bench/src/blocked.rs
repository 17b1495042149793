//! Checks of the §4.1 row-block scheme over grammar-compressed blocks, as
//! the paper harnesses build it with [`crate::runner::row_block_model`]:
//! one independently compressed shard per [`gcm_matrix::RowBlocks`] block.

#[cfg(test)]
mod tests {
    use crate::runner::row_block_model;
    use gcm_core::{CompressedMatrix, Encoding};
    use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, RowBlocks};

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

    fn blocked(csrv: &CsrvMatrix, enc: Encoding, b: usize) -> gcm_serve::ShardedModel {
        row_block_model(RowBlocks::split(csrv, b).into_blocks(), Some(enc))
    }

    /// The row-blocked model (shards run in parallel) agrees with the
    /// unsplit grammar multiplied sequentially, and both with dense.
    #[test]
    fn parallel_equals_sequential_equals_dense() {
        let dense = sample(103, 11);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..11).map(|i| i as f64 * 0.3 - 1.0).collect();
        let yv: Vec<f64> = (0..103).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut y_ref = vec![0.0; 103];
        let mut x_ref = vec![0.0; 11];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();

        for enc in Encoding::ALL {
            let whole = CompressedMatrix::compress(&csrv, enc);
            let mut y_seq = vec![0.0; 103];
            let mut x_seq = vec![0.0; 11];
            whole.right_multiply(&x, &mut y_seq).unwrap();
            whole.left_multiply(&yv, &mut x_seq).unwrap();
            for b in [1usize, 2, 4, 7, 16] {
                let bm = blocked(&csrv, enc, b);
                let mut y_par = vec![0.0; 103];
                bm.right_multiply(&x, &mut y_par).unwrap();
                for ((a, s), p) in y_ref.iter().zip(&y_seq).zip(&y_par) {
                    assert!((a - s).abs() < 1e-9, "{} b={b} right seq", enc.name());
                    assert!((a - p).abs() < 1e-9, "{} b={b} right par", enc.name());
                }
                let mut x_par = vec![0.0; 11];
                bm.left_multiply(&yv, &mut x_par).unwrap();
                for ((a, s), p) in x_ref.iter().zip(&x_seq).zip(&x_par) {
                    assert!((a - s).abs() < 1e-9, "{} b={b} left seq", enc.name());
                    assert!((a - p).abs() < 1e-9, "{} b={b} left par", enc.name());
                }
            }
        }
    }

    #[test]
    fn more_blocks_than_rows() {
        let dense = sample(3, 4);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let bm = blocked(&csrv, Encoding::Re32, 8);
        assert_eq!(bm.num_shards(), 3);
        let mut y = vec![0.0; 3];
        bm.right_multiply(&[1.0; 4], &mut y).unwrap();
        let mut y_ref = vec![0.0; 3];
        dense.right_multiply(&[1.0; 4], &mut y_ref).unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn matvec_trait_dispatches() {
        let dense = sample(20, 5);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let bm = blocked(&csrv, Encoding::ReIv, 4);
        let m: &dyn MatVec = &bm;
        assert_eq!((m.rows(), m.cols()), (20, 5));
        let mut y = vec![0.0; 20];
        m.right_multiply(&[1.0; 5], &mut y).unwrap();
        let mut y_ref = vec![0.0; 20];
        dense.right_multiply(&[1.0; 5], &mut y_ref).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
