//! A common interface for everything that can multiply by a vector.
//!
//! The paper benchmarks the same iterative kernel (Eq. 4) over several
//! representations (csrv, re_32, re_iv, re_ans, CLA, dense); this trait is
//! what lets the harness treat them uniformly.
//!
//! The trait is split into two layers:
//!
//! * the **execution layer** — [`MatVec::right_multiply_into`] /
//!   [`MatVec::left_multiply_into`] and the batched
//!   [`MatVec::right_multiply_matrix_into`] /
//!   [`MatVec::left_multiply_matrix_into`] — takes every scratch buffer
//!   from a caller-owned [`Workspace`], so a steady-state serving loop
//!   performs no heap allocation;
//! * the **convenience layer** — [`MatVec::right_multiply`],
//!   [`MatVec::left_multiply`], [`MatVec::right_multiply_matrix`],
//!   [`MatVec::left_multiply_matrix`] — thin wrappers that conjure a
//!   throwaway workspace (and, for the matrix products, the output) per
//!   call.
//!
//! Batched products use **row-major panels**: the `k` right-hand sides of
//! `Y = M·X` are the *columns* of a `cols × k` [`DenseMatrix`], so the `k`
//! values a kernel needs for input coordinate `j` are the contiguous row
//! `X[j, ·]`. Compressed backends override the batched methods to traverse
//! their representation **once per batch** instead of once per column.

use crate::csrv::CsrvMatrix;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::workspace::Workspace;

/// Matrix-vector multiplication from both sides.
pub trait MatVec {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Right multiplication `y = M·x`, drawing scratch from `ws`.
    ///
    /// # Errors
    /// Implementations fail on dimension mismatches.
    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError>;

    /// Left multiplication `xᵗ = yᵗ·M`, drawing scratch from `ws`.
    ///
    /// # Errors
    /// Implementations fail on dimension mismatches.
    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError>;

    /// Right multiplication `y = M·x` (allocating wrapper).
    ///
    /// # Errors
    /// Implementations fail on dimension mismatches.
    fn right_multiply(&self, x: &[f64], y: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.right_multiply_into(x, y, &mut ws)
    }

    /// Left multiplication `xᵗ = yᵗ·M` (allocating wrapper).
    ///
    /// # Errors
    /// Implementations fail on dimension mismatches.
    fn left_multiply(&self, y: &[f64], x: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = Workspace::new();
        self.left_multiply_into(y, x, &mut ws)
    }

    /// Batched right product `Y = M·B` into a preallocated `out`
    /// (`rows × k` for a `cols × k` input `B`), drawing scratch from `ws`.
    ///
    /// The default walks `B`'s columns one at a time through
    /// [`right_multiply_into`](Self::right_multiply_into); compressed
    /// backends override it with kernels that traverse the representation
    /// once for the whole batch.
    ///
    /// # Errors
    /// Fails if `B` has a different row count than `M` has columns, or if
    /// `out` is not `rows × B.cols()`.
    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows(), self.cols(), b, out)?;
        let k = b.cols();
        let mut x = ws.take(self.cols());
        let mut y = ws.take(self.rows());
        for j in 0..k {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = b.get(i, j);
            }
            self.right_multiply_into(&x, &mut y, ws)?;
            for (i, &yi) in y.iter().enumerate() {
                out.set(i, j, yi);
            }
        }
        ws.put(x);
        ws.put(y);
        Ok(())
    }

    /// Matrix-matrix product `Y = M·B` (the MVM-chain pattern of ML
    /// scoring loops); allocating wrapper over
    /// [`right_multiply_matrix_into`](Self::right_multiply_matrix_into).
    ///
    /// # Errors
    /// Fails if `B` has a different row count than `M` has columns.
    fn right_multiply_matrix(&self, b: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let mut out = DenseMatrix::zeros(self.rows(), b.cols());
        let mut ws = Workspace::new();
        self.right_multiply_matrix_into(b, &mut out, &mut ws)?;
        Ok(out)
    }

    /// Batched left product `X = Mᵗ·B` into a preallocated `out`
    /// (`cols × k` for a `rows × k` input `B`; column `j` of `out` is
    /// `B[·,j]ᵗ·M`), drawing scratch from `ws`.
    ///
    /// # Errors
    /// Fails if `B` has a different row count than `M` has rows, or if
    /// `out` is not `cols × B.cols()`.
    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_left_batch(self.rows(), self.cols(), b, out)?;
        let k = b.cols();
        let mut y = ws.take(self.rows());
        let mut x = ws.take(self.cols());
        for j in 0..k {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = b.get(i, j);
            }
            self.left_multiply_into(&y, &mut x, ws)?;
            for (i, &xi) in x.iter().enumerate() {
                out.set(i, j, xi);
            }
        }
        ws.put(y);
        ws.put(x);
        Ok(())
    }

    /// Batched left product `X = Mᵗ·B`; allocating wrapper over
    /// [`left_multiply_matrix_into`](Self::left_multiply_matrix_into).
    ///
    /// # Errors
    /// Fails if `B` has a different row count than `M` has rows.
    fn left_multiply_matrix(&self, b: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let mut out = DenseMatrix::zeros(self.cols(), b.cols());
        let mut ws = Workspace::new();
        self.left_multiply_matrix_into(b, &mut out, &mut ws)?;
        Ok(out)
    }
}

/// Validates shapes for `Y = M·B`: `B` is `cols × k`, `out` is `rows × k`.
///
/// Exposed for backend crates implementing the batched [`MatVec`]
/// overrides.
///
/// # Errors
/// Fails on any shape mismatch.
pub fn check_right_batch(
    rows: usize,
    cols: usize,
    b: &DenseMatrix,
    out: &DenseMatrix,
) -> Result<(), MatrixError> {
    if b.rows() != cols {
        return Err(MatrixError::DimensionMismatch {
            expected: cols,
            actual: b.rows(),
            what: "B rows",
        });
    }
    if out.rows() != rows {
        return Err(MatrixError::DimensionMismatch {
            expected: rows,
            actual: out.rows(),
            what: "out rows",
        });
    }
    if out.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            expected: b.cols(),
            actual: out.cols(),
            what: "out cols",
        });
    }
    Ok(())
}

/// Validates shapes for `X = Mᵗ·B`: `B` is `rows × k`, `out` is `cols × k`.
///
/// Exposed for backend crates implementing the batched [`MatVec`]
/// overrides.
///
/// # Errors
/// Fails on any shape mismatch.
pub fn check_left_batch(
    rows: usize,
    cols: usize,
    b: &DenseMatrix,
    out: &DenseMatrix,
) -> Result<(), MatrixError> {
    if b.rows() != rows {
        return Err(MatrixError::DimensionMismatch {
            expected: rows,
            actual: b.rows(),
            what: "B rows",
        });
    }
    if out.rows() != cols {
        return Err(MatrixError::DimensionMismatch {
            expected: cols,
            actual: out.rows(),
            what: "out rows",
        });
    }
    if out.cols() != b.cols() {
        return Err(MatrixError::DimensionMismatch {
            expected: b.cols(),
            actual: out.cols(),
            what: "out cols",
        });
    }
    Ok(())
}

/// Validates row-major panel slice lengths for a `rows × cols` operator
/// with batch width `k`: `x_panel` must hold `cols·k` values and
/// `y_panel` `rows·k`. Shared by the raw panel-slice entry points of
/// the compiled kernel plans and the serve layer.
///
/// # Errors
/// Fails on either length mismatch.
pub fn check_panels(
    rows: usize,
    cols: usize,
    k: usize,
    x_len: usize,
    y_len: usize,
) -> Result<(), MatrixError> {
    if x_len != cols * k {
        return Err(MatrixError::DimensionMismatch {
            expected: cols * k,
            actual: x_len,
            what: "x panel length",
        });
    }
    if y_len != rows * k {
        return Err(MatrixError::DimensionMismatch {
            expected: rows * k,
            actual: y_len,
            what: "y panel length",
        });
    }
    Ok(())
}

impl MatVec for DenseMatrix {
    fn rows(&self) -> usize {
        DenseMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        DenseMatrix::right_multiply(self, x, y)
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        DenseMatrix::left_multiply(self, y, x)
    }
}

impl MatVec for CsrvMatrix {
    fn rows(&self) -> usize {
        CsrvMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrvMatrix::cols(self)
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        CsrvMatrix::right_multiply(self, x, y)
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        CsrvMatrix::left_multiply(self, y, x)
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows(), self.cols(), b, out)?;
        self.right_multiply_panel(b.as_slice(), out.as_mut_slice(), b.cols())
    }

    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_left_batch(self.rows(), self.cols(), b, out)?;
        self.left_multiply_panel(b.as_slice(), out.as_mut_slice(), b.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]])
    }

    fn check_impl(m: &dyn MatVec, reference: &DenseMatrix) {
        let x = [1.0, 2.0, 3.0];
        let mut y_ref = vec![0.0; 2];
        let mut y = vec![0.0; 2];
        reference.right_multiply(&x, &mut y_ref).unwrap();
        m.right_multiply(&x, &mut y).unwrap();
        assert_eq!(y, y_ref);

        let yy = [1.0, -1.0];
        let mut x_ref = vec![0.0; 3];
        let mut x_out = vec![0.0; 3];
        reference.left_multiply(&yy, &mut x_ref).unwrap();
        m.left_multiply(&yy, &mut x_out).unwrap();
        assert_eq!(x_out, x_ref);

        // The workspace paths agree with the allocating wrappers.
        let mut ws = Workspace::new();
        let mut y2 = vec![0.0; 2];
        m.right_multiply_into(&x, &mut y2, &mut ws).unwrap();
        assert_eq!(y2, y_ref);
        let mut x2 = vec![0.0; 3];
        m.left_multiply_into(&yy, &mut x2, &mut ws).unwrap();
        assert_eq!(x2, x_ref);
    }

    #[test]
    fn trait_objects_work_for_all_formats() {
        let d = sample();
        let csrv = CsrvMatrix::from_dense(&d).unwrap();
        check_impl(&d, &d);
        check_impl(&csrv, &d);
    }

    #[test]
    fn matrix_matrix_product() {
        let m = sample(); // 2x3
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]); // 3x2
        let y = m.right_multiply_matrix(&b).unwrap();
        // [[1,0,2],[0,3,0]] * [[1,0],[0,1],[1,1]] = [[3,2],[0,3]]
        assert_eq!(y.get(0, 0), 3.0);
        assert_eq!(y.get(0, 1), 2.0);
        assert_eq!(y.get(1, 0), 0.0);
        assert_eq!(y.get(1, 1), 3.0);
        // Dimension check.
        let bad = DenseMatrix::zeros(2, 2);
        assert!(m.right_multiply_matrix(&bad).is_err());
    }

    #[test]
    fn left_matrix_product_matches_column_loop() {
        let m = sample(); // 2x3
        let b = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]); // 2x2
        let x = m.left_multiply_matrix(&b).unwrap();
        assert_eq!((x.rows(), x.cols()), (3, 2));
        for j in 0..2 {
            let y: Vec<f64> = (0..2).map(|i| b.get(i, j)).collect();
            let mut x_ref = vec![0.0; 3];
            m.left_multiply(&y, &mut x_ref).unwrap();
            for (i, &xi) in x_ref.iter().enumerate() {
                assert!((x.get(i, j) - xi).abs() < 1e-12);
            }
        }
        // Dimension check: B must have rows() rows.
        let bad = DenseMatrix::zeros(3, 2);
        assert!(m.left_multiply_matrix(&bad).is_err());
    }

    #[test]
    fn batched_into_validates_out_shape() {
        let m = sample();
        let b = DenseMatrix::zeros(3, 2);
        let mut ws = Workspace::new();
        let mut bad_out = DenseMatrix::zeros(2, 3);
        assert!(m
            .right_multiply_matrix_into(&b, &mut bad_out, &mut ws)
            .is_err());
        let mut ok_out = DenseMatrix::zeros(2, 2);
        assert!(m
            .right_multiply_matrix_into(&b, &mut ok_out, &mut ws)
            .is_ok());
    }

    #[test]
    fn csrv_batched_equals_dense_batched() {
        let d = DenseMatrix::from_rows(&[
            &[1.0, 0.0, 2.0, 1.0],
            &[0.0, 3.0, 0.0, 1.0],
            &[2.0, 0.0, 2.0, 0.0],
        ]);
        let csrv = CsrvMatrix::from_dense(&d).unwrap();
        let b = DenseMatrix::from_rows(&[
            &[1.0, 0.5, -1.0],
            &[0.0, 1.0, 2.0],
            &[1.0, 1.0, 0.0],
            &[-2.0, 0.0, 1.0],
        ]);
        let want = d.right_multiply_matrix(&b).unwrap();
        let got = csrv.right_multiply_matrix(&b).unwrap();
        assert_eq!(got, want);

        let by = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0], &[0.5, 0.0]]);
        let want = d.left_multiply_matrix(&by).unwrap();
        let got = csrv.left_multiply_matrix(&by).unwrap();
        for i in 0..want.rows() {
            for j in 0..want.cols() {
                assert!((got.get(i, j) - want.get(i, j)).abs() < 1e-12);
            }
        }
    }
}
