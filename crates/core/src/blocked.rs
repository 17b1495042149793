//! Row-block parallel grammar-compressed matrices (§4.1).
//!
//! The input is split into `b` blocks of consecutive rows, each compressed
//! independently (sharing the single value dictionary `V`). Right
//! multiplication is `b` independent block multiplications; left
//! multiplication is `b` independent block multiplications followed by a
//! `b`-way sum of the partial result vectors — exactly the scheme the paper
//! uses for its 4/8/12/16-thread measurements.
//!
//! Parallel paths run on the **persistent scoped pool** (the vendored
//! `rayon` stand-in), so repeated multiplications reuse the same worker
//! threads instead of spawning per call, and all per-block scratch (`w`
//! arrays, partial vectors, batch panels) comes from the caller's
//! [`Workspace`]. Dispatching onto the pool still allocates small
//! per-task control structures (job boxes, handle vectors) each call —
//! only the single-threaded paths are strictly allocation-free. The
//! batched products compose batching with row-block parallelism: each
//! block runs the `k`-wide panel kernel on its own contiguous chunk of
//! the output panel.

use gcm_encodings::HeapSize;
use gcm_matrix::matvec::{check_left_batch, check_right_batch};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, MatrixError, RowBlocks, Workspace};
use gcm_repair::RePairConfig;

use crate::compressed::CompressedMatrix;
use crate::encoding::Encoding;

/// A grammar-compressed matrix partitioned into row blocks.
#[derive(Debug, Clone)]
pub struct BlockedMatrix {
    blocks: Vec<CompressedMatrix>,
    row_offsets: Vec<usize>,
    rows: usize,
    cols: usize,
    threads: usize,
}

impl BlockedMatrix {
    /// Splits `csrv` into `blocks` row blocks and compresses each.
    ///
    /// Multiplications use one thread per block, matching the paper's
    /// "number of row-blocks equal to the number of threads".
    pub fn compress(csrv: &CsrvMatrix, encoding: Encoding, blocks: usize) -> Self {
        Self::compress_with(csrv, encoding, blocks, RePairConfig::default())
    }

    /// As [`compress`](Self::compress) with an explicit RePair config.
    pub fn compress_with(
        csrv: &CsrvMatrix,
        encoding: Encoding,
        blocks: usize,
        config: RePairConfig,
    ) -> Self {
        let parts = RowBlocks::split(csrv, blocks);
        let compressed: Vec<CompressedMatrix> = parts
            .blocks()
            .iter()
            .map(|b| CompressedMatrix::compress_with(b, encoding, config))
            .collect();
        let row_offsets = (0..parts.len()).map(|i| parts.row_offset(i)).collect();
        Self {
            blocks: compressed,
            row_offsets,
            rows: csrv.rows(),
            cols: csrv.cols(),
            threads: blocks,
        }
    }

    /// Builds from pre-compressed blocks (used by the per-block reordering
    /// pipeline of §5.3, where each block may have its own column order).
    ///
    /// # Panics
    /// Panics if blocks disagree on the column count or the row offsets are
    /// inconsistent.
    pub fn from_blocks(blocks: Vec<CompressedMatrix>, cols: usize) -> Self {
        let mut row_offsets = Vec::with_capacity(blocks.len());
        let mut rows = 0usize;
        for b in &blocks {
            assert_eq!(b.cols(), cols, "block column mismatch");
            row_offsets.push(rows);
            rows += b.rows();
        }
        let threads = blocks.len().max(1);
        Self {
            blocks,
            row_offsets,
            rows,
            cols,
            threads,
        }
    }

    /// The compressed blocks.
    pub fn blocks(&self) -> &[CompressedMatrix] {
        &self.blocks
    }

    /// Number of blocks (= threads used for multiplication).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total serialized size of all blocks (bytes). The value dictionary is
    /// shared, so it is counted once.
    pub fn stored_bytes(&self) -> usize {
        let values_bytes = self.blocks.first().map_or(0, |b| b.values().len() * 8);
        let per_block: usize = self
            .blocks
            .iter()
            .map(|b| b.stored_bytes() - b.values().len() * 8)
            .sum();
        per_block + values_bytes
    }

    /// Auxiliary multiplication working space across all concurrent blocks
    /// with batch width `k`: the `k`-wide `W` panels plus the left
    /// pass's per-rule nonzero flags (`Σ |R_i|·(k+1)` doubles), plus a
    /// partial `cols × k` output panel per block for the left
    /// multiplication's reduction.
    pub fn working_bytes_for_batch(&self, k: usize) -> usize {
        let k = k.max(1);
        let w: usize = self
            .blocks
            .iter()
            .map(|b| b.working_bytes_for_batch(k))
            .sum();
        w + self.blocks.len() * self.cols * 8 * k
    }

    /// Auxiliary multiplication working space for single-vector calls
    /// (`Σ |R_i|` doubles of `W` plus `Σ |R_i|` nonzero flags, plus a
    /// partial `x` vector per block for the left multiplication).
    pub fn working_bytes(&self) -> usize {
        self.working_bytes_for_batch(1)
    }

    /// Sequential right multiplication (single thread over all blocks).
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn right_multiply_seq(&self, x: &[f64], y: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.right_multiply_seq_into(x, y, &mut ws)
    }

    /// Sequential right multiplication drawing scratch from `ws`.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn right_multiply_seq_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_right(x, y)?;
        for (i, block) in self.blocks.iter().enumerate() {
            let off = self.row_offsets[i];
            block.right_multiply_into(x, &mut y[off..off + block.rows()], ws)?;
        }
        Ok(())
    }

    /// Parallel right multiplication: one pool task per block.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn right_multiply_par(&self, x: &[f64], y: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.right_multiply_par_into(x, y, &mut ws)
    }

    /// Parallel right multiplication on the persistent pool, drawing each
    /// block's `w` scratch from `ws`.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn right_multiply_par_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_right(x, y)?;
        self.right_panel_streaming(1, x, y, ws);
        Ok(())
    }

    /// Sequential left multiplication.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn left_multiply_seq(&self, y: &[f64], x: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.left_multiply_seq_into(y, x, &mut ws)
    }

    /// Sequential left multiplication drawing scratch from `ws`.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn left_multiply_seq_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_left(y, x)?;
        x.fill(0.0);
        let mut part = ws.take(self.cols);
        for (i, block) in self.blocks.iter().enumerate() {
            let off = self.row_offsets[i];
            block.left_multiply_into(&y[off..off + block.rows()], &mut part, ws)?;
            for (acc, p) in x.iter_mut().zip(&part) {
                *acc += p;
            }
        }
        ws.put(part);
        Ok(())
    }

    /// Parallel left multiplication: one pool task per block, then the
    /// partial vectors are summed (§4.1).
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn left_multiply_par(&self, y: &[f64], x: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.left_multiply_par_into(y, x, &mut ws)
    }

    /// Parallel left multiplication on the persistent pool, drawing each
    /// block's `w` scratch and partial vector from `ws`.
    ///
    /// # Errors
    /// Fails on dimension mismatch.
    pub fn left_multiply_par_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.check_left(y, x)?;
        self.left_panel_streaming(1, y, x, ws);
        Ok(())
    }

    /// Batched right product over row-major panels: hands block `i` its
    /// contiguous `rows_i × k` chunk of `y_panel` plus its `W` panel, so
    /// batching and row-block parallelism compose. Runs one pool task
    /// per block when the matrix was built with more than one; panel
    /// shapes are the caller's responsibility (checked by the public
    /// entry points).
    fn right_panel_streaming(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        ws: &mut Workspace,
    ) {
        let kernel = |block: &CompressedMatrix, y: &mut [f64], w: &mut [f64]| {
            block
                .right_multiply_panel_with(k, x_panel, y, w)
                .expect("block dimensions are consistent by construction");
        };
        let mut bufs: Vec<Vec<f64>> = self
            .blocks
            .iter()
            .map(|b| ws.take(b.num_rules() * k))
            .collect();
        let mut tasks: Vec<(&CompressedMatrix, &mut [f64])> = Vec::with_capacity(self.blocks.len());
        let mut rest = y_panel;
        for block in &self.blocks {
            let (head, tail) = rest.split_at_mut(block.rows() * k);
            tasks.push((block, head));
            rest = tail;
        }
        if self.threads > 1 {
            let kernel = &kernel;
            rayon::scope(|scope| {
                for ((block, slice), buf) in tasks.into_iter().zip(bufs.iter_mut()) {
                    scope.spawn(move |_| kernel(block, slice, buf));
                }
            });
        } else {
            for ((block, slice), buf) in tasks.into_iter().zip(bufs.iter_mut()) {
                kernel(block, slice, buf);
            }
        }
        for buf in bufs {
            ws.put(buf);
        }
    }

    /// Batched left product over row-major panels: each block fills a
    /// partial `cols × k` panel (one pool task per block when built with
    /// more than one), then the partials are reduced into `x_panel`
    /// (§4.1). A block's scratch buffer is its `W` panel with the
    /// nonzero-flag row appended.
    fn left_panel_streaming(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        ws: &mut Workspace,
    ) {
        let kernel = |i: usize, part: &mut [f64], scratch: &mut [f64]| {
            let block = &self.blocks[i];
            let off = self.row_offsets[i] * k;
            let y = &y_panel[off..off + block.rows() * k];
            let (w, flags) = scratch.split_at_mut(block.num_rules() * k);
            block
                .left_multiply_panel_with(k, y, part, w, flags)
                .expect("block dimensions are consistent by construction");
        };
        let mut scratch: Vec<(Vec<f64>, Vec<f64>)> = self
            .blocks
            .iter()
            .map(|b| (ws.take(self.cols * k), ws.take(b.num_rules() * (k + 1))))
            .collect();
        if self.threads > 1 {
            let kernel = &kernel;
            rayon::scope(|scope| {
                for (i, (part, buf)) in scratch.iter_mut().enumerate() {
                    scope.spawn(move |_| kernel(i, part, buf));
                }
            });
        } else {
            for (i, (part, buf)) in scratch.iter_mut().enumerate() {
                kernel(i, part, buf);
            }
        }
        x_panel.fill(0.0);
        for (part, buf) in scratch {
            for (acc, &p) in x_panel.iter_mut().zip(&part) {
                *acc += p;
            }
            ws.put(part);
            ws.put(buf);
        }
    }

    fn check_right(&self, x: &[f64], y: &[f64]) -> Result<(), MatrixError> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
                what: "x length",
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: y.len(),
                what: "y length",
            });
        }
        Ok(())
    }

    fn check_left(&self, y: &[f64], x: &[f64]) -> Result<(), MatrixError> {
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: y.len(),
                what: "y length",
            });
        }
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
                what: "x length",
            });
        }
        Ok(())
    }
}

impl HeapSize for BlockedMatrix {
    fn heap_bytes(&self) -> usize {
        // The dictionary Arc is shared across blocks; count it once.
        let values = self.blocks.first().map_or(0, |b| b.values().len() * 8);
        self.blocks
            .iter()
            .map(|b| b.heap_bytes() - b.values().len() * 8)
            .sum::<usize>()
            + values
    }
}

impl MatVec for BlockedMatrix {
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
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        if self.threads > 1 {
            self.right_multiply_par_into(x, y, ws)
        } else {
            self.right_multiply_seq_into(x, y, ws)
        }
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        if self.threads > 1 {
            self.left_multiply_par_into(y, x, ws)
        } else {
            self.left_multiply_seq_into(y, x, ws)
        }
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows, self.cols, b, out)?;
        if b.cols() == 0 {
            return Ok(());
        }
        self.right_panel_streaming(b.cols(), b.as_slice(), out.as_mut_slice(), ws);
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
        self.left_panel_streaming(b.cols(), b.as_slice(), out.as_mut_slice(), ws);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;

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
            for b in [1usize, 2, 4, 7, 16] {
                let bm = BlockedMatrix::compress(&csrv, enc, b);
                let mut y_seq = vec![0.0; 103];
                let mut y_par = vec![0.0; 103];
                bm.right_multiply_seq(&x, &mut y_seq).unwrap();
                bm.right_multiply_par(&x, &mut y_par).unwrap();
                for ((a, s), p) in y_ref.iter().zip(&y_seq).zip(&y_par) {
                    assert!((a - s).abs() < 1e-9, "{} b={b} right seq", enc.name());
                    assert!((a - p).abs() < 1e-9, "{} b={b} right par", enc.name());
                }
                let mut x_seq = vec![0.0; 11];
                let mut x_par = vec![0.0; 11];
                bm.left_multiply_seq(&yv, &mut x_seq).unwrap();
                bm.left_multiply_par(&yv, &mut x_par).unwrap();
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
        let bm = BlockedMatrix::compress(&csrv, Encoding::Re32, 8);
        assert_eq!(bm.num_blocks(), 3);
        let mut y = vec![0.0; 3];
        bm.right_multiply_par(&[1.0; 4], &mut y).unwrap();
        let mut y_ref = vec![0.0; 3];
        dense.right_multiply(&[1.0; 4], &mut y_ref).unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn stored_bytes_counts_dictionary_once() {
        let dense = sample(64, 8);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let one = BlockedMatrix::compress(&csrv, Encoding::Re32, 1);
        let many = BlockedMatrix::compress(&csrv, Encoding::Re32, 8);
        // Splitting can only lose sharing in C/R, never duplicate V.
        let v_bytes = csrv.values().len() * 8;
        assert!(one.stored_bytes() >= v_bytes);
        assert!(many.stored_bytes() >= v_bytes);
        // Sanity: sizes are in the same ballpark (blocks add overhead
        // but share V).
        assert!(many.stored_bytes() < 4 * one.stored_bytes());
    }

    #[test]
    fn matvec_trait_dispatches() {
        let dense = sample(20, 5);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let bm = BlockedMatrix::compress(&csrv, Encoding::ReIv, 4);
        let m: &dyn MatVec = &bm;
        let mut y = vec![0.0; 20];
        m.right_multiply(&[1.0; 5], &mut y).unwrap();
        let mut y_ref = vec![0.0; 20];
        dense.right_multiply(&[1.0; 5], &mut y_ref).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
