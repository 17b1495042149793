//! Multi-threaded CSRV multiplication (the paper's `csrv 16 threads`
//! column in Table 2): plain row-block parallelism over the uncompressed
//! CSRV representation.
//!
//! Promoted out of the benchmark harness so library users get the
//! parallel uncompressed baseline. Multiplications run on the persistent
//! global pool (no per-call thread spawn) and draw their per-block
//! partial vectors from the caller's [`Workspace`], so a steady-state
//! loop reuses both threads and buffers across calls.

use crate::csrv::CsrvMatrix;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::matvec::{check_left_batch, check_right_batch, MatVec};
use crate::workspace::Workspace;
use crate::RowBlocks;

/// A CSRV matrix partitioned into row blocks, multiplied with the
/// persistent pool (one task per block).
#[derive(Debug, Clone)]
pub struct ParallelCsrv {
    blocks: Vec<CsrvMatrix>,
    row_offsets: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl ParallelCsrv {
    /// Splits `matrix` into `b` row blocks.
    pub fn split(matrix: &CsrvMatrix, b: usize) -> Self {
        let parts = RowBlocks::split(matrix, b);
        let row_offsets = (0..parts.len()).map(|i| parts.row_offset(i)).collect();
        Self {
            blocks: parts.blocks().to_vec(),
            row_offsets,
            rows: matrix.rows(),
            cols: matrix.cols(),
        }
    }

    /// The row blocks.
    pub fn blocks(&self) -> &[CsrvMatrix] {
        &self.blocks
    }

    /// Number of row blocks (= pool tasks per multiplication).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total bytes of the representation (dictionary counted once).
    pub fn stored_bytes(&self) -> usize {
        let values = self.blocks.first().map_or(0, |b| b.values().len() * 8);
        self.blocks
            .iter()
            .map(|b| b.symbols().len() * 4)
            .sum::<usize>()
            + values
    }

    /// Working space of one multiplication with batch width `k`: a
    /// partial `cols × k` output panel per concurrently-running block
    /// (the left multiplication's reduction inputs; the right
    /// multiplication writes disjoint slices and needs none).
    pub fn working_bytes_for_batch(&self, k: usize) -> usize {
        self.blocks.len() * self.cols * 8 * k.max(1)
    }

    /// Working space of the parallel left multiplication (`k = 1`): one
    /// partial `x` per block.
    pub fn working_bytes(&self) -> usize {
        self.working_bytes_for_batch(1)
    }

    /// Shared implementation of the (batched) right product: hands each
    /// block its disjoint chunk of the `rows × k` output panel.
    fn right_panel_into(&self, x_panel: &[f64], y_panel: &mut [f64], k: usize) {
        let mut tasks: Vec<(&CsrvMatrix, &mut [f64])> = Vec::with_capacity(self.blocks.len());
        let mut rest = y_panel;
        for block in &self.blocks {
            let (head, tail) = rest.split_at_mut(block.rows() * k);
            tasks.push((block, head));
            rest = tail;
        }
        rayon::scope(|scope| {
            for (block, slice) in tasks {
                scope.spawn(move |_| {
                    block
                        .right_multiply_panel(x_panel, slice, k)
                        .expect("block dimensions are consistent by construction");
                });
            }
        });
    }

    /// Shared implementation of the (batched) left product: each block
    /// fills a partial `cols × k` panel from the workspace, then the
    /// partials are reduced into `x_panel`.
    fn left_panel_into(&self, y_panel: &[f64], x_panel: &mut [f64], k: usize, ws: &mut Workspace) {
        let mut partials: Vec<Vec<f64>> =
            self.blocks.iter().map(|_| ws.take(self.cols * k)).collect();
        rayon::scope(|scope| {
            for ((i, block), part) in self.blocks.iter().enumerate().zip(partials.iter_mut()) {
                let off = self.row_offsets[i] * k;
                let y_slice = &y_panel[off..off + block.rows() * k];
                scope.spawn(move |_| {
                    block
                        .left_multiply_panel(y_slice, part, k)
                        .expect("block dimensions are consistent by construction");
                });
            }
        });
        x_panel.fill(0.0);
        for part in partials {
            for (acc, &p) in x_panel.iter_mut().zip(&part) {
                *acc += p;
            }
            ws.put(part);
        }
    }

    fn check_vectors(&self, x_len: usize, y_len: usize) -> Result<(), MatrixError> {
        if x_len != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: x_len,
                what: "x length",
            });
        }
        if y_len != self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: y_len,
                what: "y length",
            });
        }
        Ok(())
    }
}

impl MatVec for ParallelCsrv {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_vectors(x.len(), y.len())?;
        self.right_panel_into(x, y, 1);
        Ok(())
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_vectors(x.len(), y.len())?;
        self.left_panel_into(y, x, 1, ws);
        Ok(())
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows, self.cols, b, out)?;
        self.right_panel_into(b.as_slice(), out.as_mut_slice(), b.cols());
        Ok(())
    }

    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_left_batch(self.rows, self.cols, b, out)?;
        if b.cols() == 0 {
            return Ok(());
        }
        self.left_panel_into(b.as_slice(), out.as_mut_slice(), b.cols(), ws);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn parallel_csrv_matches_sequential() {
        let (_, csrv) = sample();
        let par = ParallelCsrv::split(&csrv, 4);
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
        let par = ParallelCsrv::split(&csrv, 5);
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
    fn working_bytes_scales_with_batch() {
        let (_, csrv) = sample();
        let par = ParallelCsrv::split(&csrv, 4);
        assert_eq!(par.working_bytes(), par.working_bytes_for_batch(1));
        assert_eq!(par.working_bytes_for_batch(8), 8 * par.working_bytes());
    }

    #[test]
    fn dimension_checks() {
        let (_, csrv) = sample();
        let par = ParallelCsrv::split(&csrv, 4);
        let mut y = vec![0.0; 57];
        assert!(par.right_multiply(&[0.0; 3], &mut y).is_err());
        let mut x = vec![0.0; 7];
        assert!(par.left_multiply(&[0.0; 3], &mut x).is_err());
    }
}
