//! Compressed Linear Algebra (CLA) — the state-of-the-art comparator of
//! §5.4 (Elgohary, Boehm, Haas, Reiss, Reinwald; VLDB'16 / VLDB J.'18).
//!
//! CLA compresses a matrix column-wise:
//!
//! 1. **Planning / co-coding** ([`grouping`]): a row sample estimates
//!    per-column value cardinalities; correlated columns are greedily
//!    merged into *column groups* whose rows become tuples over the group.
//! 2. **Group encoding** ([`encoding`]): each group picks the cheapest of
//!    - **DDC** (dense dictionary coding: tuple dictionary + 1- or 2-byte
//!      code per row),
//!    - **OLE** (offset-list encoding: per tuple, the list of row ids),
//!    - **RLE** (run-length encoding: per tuple, runs of consecutive rows),
//!    - **UC** (uncompressed fallback).
//! 3. **Compressed-domain MVM**: right multiplication precomputes one dot
//!    product per tuple and scatters it to the tuple's rows; left
//!    multiplication aggregates `y` per tuple and scatters to columns.
//!
//! Two differences from Apache SystemDS's implementation: offset lists are
//! plain `u32` (not segmented `u16`), which keeps every row id one load
//! away, and the greedy grouping is deterministic, so sizes reproduce
//! run to run. Neither changes the asymptotics nor the comparison the
//! paper draws (compression ratio and MVM speed).

pub mod encoding;
pub mod grouping;

use gcm_encodings::HeapSize;
use gcm_matrix::{DenseMatrix, MatVec, MatrixError, Workspace};

use encoding::GroupEncoding;
use grouping::{plan_groups, GroupingConfig};

/// A CLA-compressed matrix.
#[derive(Debug, Clone)]
pub struct ClaMatrix {
    rows: usize,
    cols: usize,
    groups: Vec<CompressedGroup>,
}

/// One column group with its chosen encoding.
#[derive(Debug, Clone)]
pub struct CompressedGroup {
    /// The original column indices of this group.
    pub cols: Vec<usize>,
    /// The physical encoding.
    pub encoding: GroupEncoding,
}

impl ClaMatrix {
    /// Compresses `matrix` with default planning parameters.
    pub fn compress(matrix: &DenseMatrix) -> Self {
        Self::compress_with(matrix, GroupingConfig::default())
    }

    /// Compresses with explicit planning parameters.
    pub fn compress_with(matrix: &DenseMatrix, config: GroupingConfig) -> Self {
        let groups = plan_groups(matrix, config);
        let compressed = groups
            .into_iter()
            .map(|cols| {
                let encoding = GroupEncoding::build(matrix, &cols);
                CompressedGroup { cols, encoding }
            })
            .collect();
        Self {
            rows: matrix.rows(),
            cols: matrix.cols(),
            groups: compressed,
        }
    }

    /// The column groups.
    pub fn groups(&self) -> &[CompressedGroup] {
        &self.groups
    }

    /// Compressed size in bytes (the paper's CLA "size" column).
    pub fn stored_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.encoding.stored_bytes() + g.cols.len() * 4 + 8)
            .sum()
    }

    /// Name distribution of chosen encodings (diagnostics).
    pub fn encoding_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for g in &self.groups {
            *h.entry(g.encoding.name()).or_insert(0) += 1;
        }
        h
    }
}

impl HeapSize for ClaMatrix {
    fn heap_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.encoding.heap_bytes() + g.cols.capacity() * 8)
            .sum()
    }
}

impl MatVec for ClaMatrix {
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
        y.fill(0.0);
        for g in &self.groups {
            g.encoding.right_multiply(&g.cols, x, y);
        }
        Ok(())
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
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
        x.fill(0.0);
        for g in &self.groups {
            g.encoding.left_multiply(&g.cols, y, x);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn categorical(rows: usize) -> DenseMatrix {
        // Correlated categorical columns (CLA's sweet spot) + one noisy
        // numeric column.
        let mut m = DenseMatrix::zeros(rows, 6);
        for r in 0..rows {
            let cluster = (r * 7) % 5;
            m.set(r, 0, (cluster + 1) as f64);
            m.set(r, 1, ((cluster * 2) % 5 + 1) as f64); // deterministic fn of col 0
            m.set(r, 2, ((r % 3) + 10) as f64);
            if r % 4 != 0 {
                m.set(r, 3, 1.0);
            }
            m.set(r, 4, ((r * 13) % 97 + 100) as f64); // high cardinality
                                                       // col 5 stays zero (empty column).
        }
        m
    }

    #[test]
    fn multiplication_matches_dense() {
        let dense = categorical(200);
        let cla = ClaMatrix::compress(&dense);
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.5 - 1.0).collect();
        let mut y_ref = vec![0.0; 200];
        let mut y = vec![0.0; 200];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        cla.right_multiply(&x, &mut y).unwrap();
        for (a, b) in y_ref.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
        let yv: Vec<f64> = (0..200).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut x_ref = vec![0.0; 6];
        let mut x_out = vec![0.0; 6];
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        cla.left_multiply(&yv, &mut x_out).unwrap();
        for (a, b) in x_ref.iter().zip(&x_out) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn compresses_categorical_data() {
        let dense = categorical(5000);
        let cla = ClaMatrix::compress(&dense);
        assert!(
            cla.stored_bytes() < dense.uncompressed_bytes() / 3,
            "CLA {} vs dense {}",
            cla.stored_bytes(),
            dense.uncompressed_bytes()
        );
    }

    #[test]
    fn groups_cover_all_columns_once() {
        let dense = categorical(300);
        let cla = ClaMatrix::compress(&dense);
        let mut seen = [false; 6];
        for g in cla.groups() {
            for &c in &g.cols {
                assert!(!seen[c], "column {c} in two groups");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_matrix_multiplies_to_zero() {
        let dense = DenseMatrix::zeros(10, 4);
        let cla = ClaMatrix::compress(&dense);
        let mut y = vec![1.0; 10];
        cla.right_multiply(&[1.0; 4], &mut y).unwrap();
        assert_eq!(y, vec![0.0; 10]);
    }

    #[test]
    fn dimension_checks() {
        let cla = ClaMatrix::compress(&categorical(20));
        let mut y = vec![0.0; 20];
        assert!(cla.right_multiply(&[0.0; 3], &mut y).is_err());
        let mut x = vec![0.0; 6];
        assert!(cla.left_multiply(&[0.0; 19], &mut x).is_err());
    }

    #[test]
    fn single_row_matrix() {
        let dense = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.5]]);
        let cla = ClaMatrix::compress(&dense);
        let mut y = vec![0.0; 1];
        cla.right_multiply(&[2.0, 3.0, 4.0], &mut y).unwrap();
        assert!((y[0] - 12.0).abs() < 1e-12);
    }
}
