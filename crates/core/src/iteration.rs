//! Iterative solver drivers over any [`MatVec`] representation.
//!
//! The paper's benchmark kernel, Eq. (4):
//!
//! ```text
//! yᵢ = M·xᵢ,   zᵢᵗ = yᵢᵗ·M,   xᵢ₊₁ = zᵢ / ‖zᵢ‖∞
//! ```
//!
//! alternates right and left multiplications, mimicking the inner loop
//! of conjugate-gradient–style least-squares solvers. This module
//! productionises that loop — plus PageRank-with-teleport and a
//! conjugate-gradient solver on the normal equations — as
//! **zero-allocation drivers**: every iterate, residual, and direction
//! vector lives in a caller-owned [`SolverWorkspace`], and the `*_into`
//! drivers ping-pong the `*_multiply_into` kernels against those
//! buffers with no heap allocation per iteration (the serve-layer
//! tracking-allocator suite pins this). The same driver runs over every
//! representation via [`MatVec`] — streaming, planned, blocked, or a
//! whole sharded model.
//!
//! [`power_iterations`] remains the allocating convenience wrapper the
//! examples and benchmarks started from.

use gcm_matrix::{MatVec, MatrixError, Workspace};

/// Infinity norm `max |zᵢ|`.
pub fn inf_norm(z: &[f64]) -> f64 {
    z.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Outcome of a run of [`power_iterations`].
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Number of iterations executed.
    pub iterations: usize,
    /// Final normalised vector `x`.
    pub x: Vec<f64>,
    /// Infinity norm of the last un-normalised `z` (Rayleigh-style scale;
    /// converges to the dominant singular value squared for generic `M`).
    pub last_norm: f64,
}

/// Outcome of a zero-allocation solver run. Deliberately heap-free: the
/// iterate itself stays in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Number of iterations executed (may stop short of the budget when
    /// a tolerance is met).
    pub iterations: usize,
    /// Method-specific scale of the final iterate: `‖z‖∞` for the power
    /// method, the L1 change of the last PageRank sweep, the normal-
    /// equations residual norm `‖Mᵗ(M·x − b)‖₂` for conjugate gradient.
    pub norm: f64,
}

/// Caller-owned scratch for the iterative drivers: two row-length and
/// two column-length vectors plus the multiplication [`Workspace`].
/// Allocate once ([`prepare`](Self::prepare)), then every driver
/// iteration is heap-allocation-free.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Row-length: the right product `y = M·x` / the CG residual `r`.
    y: Vec<f64>,
    /// Row-length: the CG direction image `q = M·p`.
    q: Vec<f64>,
    /// Column-length: the left product `z = yᵗ·M` / the CG gradient `s`.
    z: Vec<f64>,
    /// Column-length: the CG search direction `p`.
    p: Vec<f64>,
    /// Scratch for the multiplication kernels themselves.
    ws: Workspace,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use or in
    /// [`prepare`](Self::prepare).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for `matrix` and runs one throwaway
    /// right/left multiplication pair to warm the inner multiplication
    /// workspace, so the **first** driver iteration is already
    /// allocation-free (the same contract the serve layer's prewarm
    /// gives its request loop).
    ///
    /// # Errors
    /// Propagates kernel dimension errors (none occur for a consistent
    /// `MatVec` implementation).
    pub fn prepare(&mut self, matrix: &(impl MatVec + ?Sized)) -> Result<(), MatrixError> {
        let (n, m) = (matrix.rows(), matrix.cols());
        self.y.resize(n, 0.0);
        self.q.resize(n, 0.0);
        self.z.resize(m, 0.0);
        self.p.resize(m, 0.0);
        self.z.fill(0.0);
        matrix.right_multiply_into(&self.z, &mut self.y, &mut self.ws)?;
        matrix.left_multiply_into(&self.y, &mut self.z, &mut self.ws)?;
        Ok(())
    }

    fn size_for(&mut self, matrix: &(impl MatVec + ?Sized)) {
        self.y.resize(matrix.rows(), 0.0);
        self.q.resize(matrix.rows(), 0.0);
        self.z.resize(matrix.cols(), 0.0);
        self.p.resize(matrix.cols(), 0.0);
    }
}

fn check_len(len: usize, expected: usize, what: &'static str) -> Result<(), MatrixError> {
    if len != expected {
        return Err(MatrixError::DimensionMismatch {
            expected,
            actual: len,
            what,
        });
    }
    Ok(())
}

/// Runs up to `iterations` rounds of Eq. (4) in place: `x` holds the
/// start vector on entry and the final normalised iterate on return.
/// Allocation-free per iteration once `ws` is warm
/// ([`SolverWorkspace::prepare`]).
///
/// # Errors
/// Fails on dimension mismatches, or if the iterate collapses to the
/// zero vector (norm 0), which would make normalisation undefined.
pub fn power_iterations_into(
    matrix: &(impl MatVec + ?Sized),
    x: &mut [f64],
    iterations: usize,
    ws: &mut SolverWorkspace,
) -> Result<SolveStats, MatrixError> {
    check_len(x.len(), matrix.cols(), "x length")?;
    ws.size_for(matrix);
    let mut last_norm = 0.0;
    for it in 0..iterations {
        matrix.right_multiply_into(x, &mut ws.y, &mut ws.ws)?;
        matrix.left_multiply_into(&ws.y, &mut ws.z, &mut ws.ws)?;
        last_norm = inf_norm(&ws.z);
        if last_norm == 0.0 {
            return Err(MatrixError::Parse(format!(
                "iterate collapsed to zero at iteration {it}"
            )));
        }
        for (xi, zi) in x.iter_mut().zip(&ws.z) {
            *xi = zi / last_norm;
        }
    }
    Ok(SolveStats {
        iterations,
        norm: last_norm,
    })
}

/// PageRank with teleport: `x ← d·M·x + (1 − d)/n`, stopping when the
/// L1 change of a sweep drops below `tol` (or after `iterations`
/// rounds). `M` must be square (`n × n`); for the classic random
/// surfer, `M` is the column-stochastic link matrix and `d` the
/// damping factor (0.85 in the original formulation). `x` holds the
/// start distribution on entry and the final ranks on return.
/// Allocation-free per iteration once `ws` is warm.
///
/// # Errors
/// Fails if `M` is not square, on dimension mismatches, or if `d` is
/// not in `[0, 1]`.
pub fn pagerank_into(
    matrix: &(impl MatVec + ?Sized),
    x: &mut [f64],
    damping: f64,
    iterations: usize,
    tol: f64,
    ws: &mut SolverWorkspace,
) -> Result<SolveStats, MatrixError> {
    let n = matrix.rows();
    if matrix.cols() != n {
        return Err(MatrixError::DimensionMismatch {
            expected: n,
            actual: matrix.cols(),
            what: "pagerank matrix columns (must be square)",
        });
    }
    if !(0.0..=1.0).contains(&damping) {
        return Err(MatrixError::Parse(format!(
            "damping factor {damping} outside [0, 1]"
        )));
    }
    check_len(x.len(), n, "x length")?;
    ws.size_for(matrix);
    let teleport = if n == 0 {
        0.0
    } else {
        (1.0 - damping) / n as f64
    };
    let mut delta = 0.0;
    let mut done = 0;
    for _ in 0..iterations {
        matrix.right_multiply_into(x, &mut ws.y, &mut ws.ws)?;
        delta = 0.0;
        for (xi, yi) in x.iter_mut().zip(&ws.y) {
            let next = damping * yi + teleport;
            delta += (next - *xi).abs();
            *xi = next;
        }
        done += 1;
        if delta < tol {
            break;
        }
    }
    Ok(SolveStats {
        iterations: done,
        norm: delta,
    })
}

/// Conjugate gradient on the normal equations (CGNR): minimises
/// `‖M·x − b‖₂` for a general (possibly rectangular) `M` by running CG
/// on `MᵗM·x = Mᵗb`, using one right and one left multiplication per
/// iteration. `x` holds the start guess on entry (zeros are fine) and
/// the solution estimate on return; `b` is the `rows`-length target.
/// Stops when the normal-equations residual `‖Mᵗ(M·x − b)‖₂` drops
/// below `tol`, when the search direction leaves the column space
/// (`M·p = 0`), or after `iterations` rounds. Allocation-free per
/// iteration once `ws` is warm.
///
/// # Errors
/// Fails on dimension mismatches.
pub fn conjugate_gradient_into(
    matrix: &(impl MatVec + ?Sized),
    b: &[f64],
    x: &mut [f64],
    iterations: usize,
    tol: f64,
    ws: &mut SolverWorkspace,
) -> Result<SolveStats, MatrixError> {
    check_len(x.len(), matrix.cols(), "x length")?;
    check_len(b.len(), matrix.rows(), "b length")?;
    ws.size_for(matrix);
    // r = b − M·x  (in ws.y), s = Mᵗ·r (in ws.z), p = s.
    matrix.right_multiply_into(x, &mut ws.y, &mut ws.ws)?;
    for (ri, bi) in ws.y.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    matrix.left_multiply_into(&ws.y, &mut ws.z, &mut ws.ws)?;
    ws.p.copy_from_slice(&ws.z);
    let mut gamma: f64 = ws.z.iter().map(|v| v * v).sum();
    let mut done = 0;
    for _ in 0..iterations {
        if gamma.sqrt() < tol {
            break;
        }
        matrix.right_multiply_into(&ws.p, &mut ws.q, &mut ws.ws)?;
        let qq: f64 = ws.q.iter().map(|v| v * v).sum();
        if qq == 0.0 {
            // Direction in the null space of M: nothing left to gain.
            break;
        }
        let alpha = gamma / qq;
        for (xi, pi) in x.iter_mut().zip(&ws.p) {
            *xi += alpha * pi;
        }
        for (ri, qi) in ws.y.iter_mut().zip(&ws.q) {
            *ri -= alpha * qi;
        }
        matrix.left_multiply_into(&ws.y, &mut ws.z, &mut ws.ws)?;
        let gamma_next: f64 = ws.z.iter().map(|v| v * v).sum();
        let beta = gamma_next / gamma;
        for (pi, si) in ws.p.iter_mut().zip(&ws.z) {
            *pi = si + beta * *pi;
        }
        gamma = gamma_next;
        done += 1;
    }
    Ok(SolveStats {
        iterations: done,
        norm: gamma.sqrt(),
    })
}

/// Runs `iterations` rounds of Eq. (4) starting from `x0` — the
/// allocating convenience wrapper over [`power_iterations_into`].
///
/// # Errors
/// As [`power_iterations_into`].
pub fn power_iterations(
    matrix: &(impl MatVec + ?Sized),
    x0: &[f64],
    iterations: usize,
) -> Result<IterationStats, MatrixError> {
    let mut x = x0.to_vec();
    let mut ws = SolverWorkspace::new();
    let stats = power_iterations_into(matrix, &mut x, iterations, &mut ws)?;
    Ok(IterationStats {
        iterations: stats.iterations,
        x,
        last_norm: stats.norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressedMatrix, Encoding};
    use gcm_matrix::{CsrvMatrix, DenseMatrix};

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            &[2.0, 1.0, 0.0],
            &[1.0, 3.0, 1.0],
            &[0.0, 1.0, 2.0],
            &[1.0, 0.0, 1.0],
        ])
    }

    #[test]
    fn inf_norm_basics() {
        assert_eq!(inf_norm(&[]), 0.0);
        assert_eq!(inf_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(inf_norm(&[0.0]), 0.0);
    }

    #[test]
    fn converges_to_dominant_direction() {
        let m = sample();
        let stats = power_iterations(&m, &[1.0, 1.0, 1.0], 50).unwrap();
        // x converges to the dominant eigenvector of MᵗM; the largest
        // component is normalised to 1.
        assert!((inf_norm(&stats.x) - 1.0).abs() < 1e-12);
        // One more iteration barely changes the direction.
        let more = power_iterations(&m, &stats.x, 1).unwrap();
        for (a, b) in stats.x.iter().zip(&more.x) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn identical_results_across_representations() {
        let dense = sample();
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let reference = power_iterations(&dense, &[0.5, -0.25, 1.0], 20).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let got = power_iterations(&cm, &[0.5, -0.25, 1.0], 20).unwrap();
            for (a, b) in reference.x.iter().zip(&got.x) {
                assert!((a - b).abs() < 1e-9, "{}", enc.name());
            }
        }
    }

    #[test]
    fn zero_matrix_collapses() {
        let dense = DenseMatrix::zeros(3, 3);
        assert!(power_iterations(&dense, &[1.0, 1.0, 1.0], 1).is_err());
    }

    #[test]
    fn dimension_check() {
        let dense = sample();
        assert!(power_iterations(&dense, &[1.0, 1.0], 1).is_err());
        let mut ws = SolverWorkspace::new();
        let mut x2 = [1.0, 1.0];
        assert!(power_iterations_into(&dense, &mut x2, 1, &mut ws).is_err());
        assert!(pagerank_into(&dense, &mut [1.0; 3], 0.85, 5, 1e-9, &mut ws).is_err());
        assert!(conjugate_gradient_into(&dense, &[1.0; 4], &mut x2, 5, 1e-9, &mut ws).is_err());
        assert!(
            conjugate_gradient_into(&dense, &[1.0; 3], &mut [0.0; 3], 5, 1e-9, &mut ws).is_err()
        );
    }

    #[test]
    fn into_driver_matches_the_allocating_wrapper() {
        let dense = sample();
        let reference = power_iterations(&dense, &[0.5, -0.25, 1.0], 25).unwrap();
        let mut ws = SolverWorkspace::new();
        ws.prepare(&dense).unwrap();
        let mut x = [0.5, -0.25, 1.0];
        let stats = power_iterations_into(&dense, &mut x, 25, &mut ws).unwrap();
        assert_eq!(stats.iterations, 25);
        assert_eq!(stats.norm, reference.last_norm);
        assert_eq!(&x[..], &reference.x[..]);
    }

    #[test]
    fn pagerank_on_a_cycle_converges_to_uniform() {
        // A 3-cycle's column-stochastic link matrix: rank flows around
        // the ring, so the stationary distribution is uniform.
        let m = DenseMatrix::from_rows(&[&[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let mut ws = SolverWorkspace::new();
        ws.prepare(&m).unwrap();
        let mut x = [1.0, 0.0, 0.0];
        let stats = pagerank_into(&m, &mut x, 0.85, 500, 1e-12, &mut ws).unwrap();
        assert!(stats.iterations < 500, "tolerance stop expected");
        assert!(stats.norm < 1e-12);
        for &xi in &x {
            assert!((xi - 1.0 / 3.0).abs() < 1e-9, "{x:?}");
        }
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The compressed representations drive to the same ranks.
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReFse);
        let mut xc = [1.0, 0.0, 0.0];
        pagerank_into(&cm, &mut xc, 0.85, 500, 1e-12, &mut ws).unwrap();
        for (a, b) in x.iter().zip(&xc) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(pagerank_into(&m, &mut x, 1.5, 1, 1e-9, &mut ws).is_err());
    }

    #[test]
    fn conjugate_gradient_solves_least_squares() {
        let dense = sample();
        let b = [1.0, -2.0, 0.5, 3.0];
        let mut ws = SolverWorkspace::new();
        ws.prepare(&dense).unwrap();
        let mut x = [0.0; 3];
        let stats = conjugate_gradient_into(&dense, &b, &mut x, 50, 1e-12, &mut ws).unwrap();
        // CGNR drives the normal-equations residual Mᵗ(M·x − b) to
        // (near) zero — the defining property of the least-squares
        // solution.
        assert!(stats.norm < 1e-9, "residual {}", stats.norm);
        let mut y = vec![0.0; 4];
        dense.right_multiply(&x, &mut y).unwrap();
        for (ri, bi) in y.iter_mut().zip(&b) {
            *ri -= bi;
        }
        let mut grad = vec![0.0; 3];
        dense.left_multiply(&y, &mut grad).unwrap();
        assert!(inf_norm(&grad) < 1e-9, "{grad:?}");
        // Compressed representations reach the same solution.
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let mut xc = [0.0; 3];
        conjugate_gradient_into(&cm, &b, &mut xc, 50, 1e-12, &mut ws).unwrap();
        for (a, c) in x.iter().zip(&xc) {
            assert!((a - c).abs() < 1e-6);
        }
        // A zero matrix leaves the zero guess untouched and exits on
        // the null-space guard.
        let zero = DenseMatrix::zeros(4, 3);
        let mut xz = [0.0; 3];
        let stats = conjugate_gradient_into(&zero, &b, &mut xz, 50, 0.0, &mut ws).unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(xz, [0.0; 3]);
    }
}
