//! Row-block partitioning for multi-threaded operation (§4.1).
//!
//! A `r × c` matrix is split into `b` blocks of `⌈r/b⌉` consecutive rows
//! (the last block may be shorter). Each block is an independent
//! [`CsrvMatrix`] sharing the single value dictionary `V`, so each can be
//! grammar-compressed and multiplied independently.

use crate::csrv::{CsrvMatrix, SEPARATOR};

/// A partition of a CSRV matrix into consecutive row blocks.
#[derive(Debug, Clone)]
pub struct RowBlocks {
    blocks: Vec<CsrvMatrix>,
    /// Starting row of each block in the original matrix.
    row_offsets: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl RowBlocks {
    /// Splits `matrix` into `b` row blocks (`b >= 1`).
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn split(matrix: &CsrvMatrix, b: usize) -> Self {
        assert!(b > 0, "at least one block required");
        let rows = matrix.rows();
        let cols = matrix.cols();
        let per_block = rows.div_ceil(b).max(1);
        let values = std::sync::Arc::clone(matrix.values_arc());
        let symbols = matrix.symbols();

        let mut blocks = Vec::new();
        let mut row_offsets = Vec::new();
        let mut row = 0usize;
        let mut pos = 0usize;
        while row < rows {
            let block_rows = per_block.min(rows - row);
            let start = pos;
            let mut seps = 0usize;
            while seps < block_rows {
                if symbols[pos] == SEPARATOR {
                    seps += 1;
                }
                pos += 1;
            }
            blocks.push(CsrvMatrix::from_parts(
                block_rows,
                cols,
                std::sync::Arc::clone(&values),
                symbols[start..pos].to_vec(),
            ));
            row_offsets.push(row);
            row += block_rows;
        }
        if blocks.is_empty() {
            // Degenerate zero-row matrix: keep a single empty block so
            // callers can treat the partition uniformly.
            blocks.push(CsrvMatrix::from_parts(0, cols, values, Vec::new()));
            row_offsets.push(0);
        }
        Self {
            blocks,
            row_offsets,
            rows,
            cols,
        }
    }

    /// The blocks, in row order.
    pub fn blocks(&self) -> &[CsrvMatrix] {
        &self.blocks
    }

    /// Starting row of block `i`.
    pub fn row_offset(&self, i: usize) -> usize {
        self.row_offsets[i]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks (never true after `split`).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Iterate `(row_offset, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CsrvMatrix)> {
        self.row_offsets.iter().copied().zip(self.blocks.iter())
    }

    /// Consumes the partition, yielding the blocks in row order (the
    /// build pipeline hands each shard its block without cloning).
    pub fn into_blocks(self) -> Vec<CsrvMatrix> {
        self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::MatVec;

    fn sample(rows: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, 4);
        for r in 0..rows {
            for c in 0..4 {
                if (r + c) % 3 != 0 {
                    m.set(r, c, ((r * 4 + c) % 7) as f64 + 0.5);
                }
            }
        }
        m
    }

    #[test]
    fn split_covers_all_rows() {
        let m = sample(10);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        for b in 1..=12 {
            let blocks = RowBlocks::split(&csrv, b);
            let total: usize = blocks.blocks().iter().map(|bl| bl.rows()).sum();
            assert_eq!(total, 10, "b = {b}");
            let total_nnz: usize = blocks.blocks().iter().map(|bl| bl.nnz()).sum();
            assert_eq!(total_nnz, csrv.nnz());
        }
    }

    #[test]
    fn blocks_share_value_dictionary() {
        let csrv = CsrvMatrix::from_dense(&sample(8)).unwrap();
        let blocks = RowBlocks::split(&csrv, 3);
        for bl in blocks.blocks() {
            assert!(std::ptr::eq(bl.values().as_ptr(), csrv.values().as_ptr()));
        }
    }

    #[test]
    fn blockwise_multiply_equals_whole() {
        let m = sample(17);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let x: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
        let mut y_whole = vec![0.0; 17];
        csrv.right_multiply(&x, &mut y_whole).unwrap();

        let blocks = RowBlocks::split(&csrv, 4);
        let mut y_blocked = vec![0.0; 17];
        for (off, bl) in blocks.iter() {
            let mut part = vec![0.0; bl.rows()];
            bl.right_multiply(&x, &mut part).unwrap();
            y_blocked[off..off + bl.rows()].copy_from_slice(&part);
        }
        assert_eq!(y_whole, y_blocked);

        // Left multiplication: partial x vectors summed.
        let y: Vec<f64> = (0..17).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut x_whole = vec![0.0; 4];
        csrv.left_multiply(&y, &mut x_whole).unwrap();
        let mut x_blocked = vec![0.0; 4];
        for (off, bl) in blocks.iter() {
            let mut part = vec![0.0; 4];
            bl.left_multiply(&y[off..off + bl.rows()], &mut part)
                .unwrap();
            for (a, p) in x_blocked.iter_mut().zip(&part) {
                *a += p;
            }
        }
        for (a, b) in x_whole.iter().zip(&x_blocked) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn more_blocks_than_rows() {
        let csrv = CsrvMatrix::from_dense(&sample(3)).unwrap();
        let blocks = RowBlocks::split(&csrv, 16);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.blocks().iter().all(|b| b.rows() == 1));
    }

    #[test]
    fn single_block_is_identity() {
        let csrv = CsrvMatrix::from_dense(&sample(5)).unwrap();
        let blocks = RowBlocks::split(&csrv, 1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.blocks()[0].symbols(), csrv.symbols());
    }

    #[test]
    fn empty_matrix_single_empty_block() {
        let m = DenseMatrix::zeros(0, 4);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let blocks = RowBlocks::split(&csrv, 4);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.blocks()[0].rows(), 0);
    }
}
