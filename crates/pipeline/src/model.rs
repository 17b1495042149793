//! A uniform wrapper over both servable matrix backends.
//!
//! A build produces, and the serve layer persists and multiplies, two
//! representations — the uncompressed CSRV baseline and the
//! grammar-compressed `(C, R, V)` matrix — behind one enum, so the
//! pipeline, the container format, the sharded engine, and the
//! differential test harness treat them uniformly. Row shards are the
//! only row partition: every [`Model`] is one matrix. A grammar model's
//! compiled plan rides along as a [`ModelPlan`] wrapping one
//! [`KernelPlan`]; the plan precision is a run-time property of the
//! [`KernelPlan`], so no kernel entry point here branches on it.

use std::sync::Arc;

use gcm_core::{CompressedMatrix, Encoding, KernelPlan};
use gcm_matrix::{CsrvMatrix, MatVec, MatrixError, Workspace};

use crate::backend::Backend;

/// A compiled execution plan for one grammar-compressed [`Model`] — the
/// model-level counterpart of [`gcm_core::plan`]. Uncompressed models
/// have no plan (their kernels are already branchless array walks).
///
/// The precision (`f64` or `f32`) lives in the [`KernelPlan`] itself.
///
/// Plans are a speed-for-memory trade (the [`KernelPlan`]'s heap bytes
/// are the cost), built once at prewarm and consumed by the `*_planned`
/// kernels below.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    kernel: KernelPlan,
}

impl ModelPlan {
    /// Compiles a plan for `model`, in single precision when `f32` is
    /// set; `None` for the uncompressed backend, which gains nothing
    /// from planning.
    pub fn compile_with(model: &Model, f32_plan: bool) -> Option<Self> {
        let Model::Compressed(m) = model else {
            return None;
        };
        let kernel = if f32_plan { m.plan_f32() } else { m.plan() };
        Some(ModelPlan { kernel })
    }

    /// The compiled kernel plan.
    pub fn kernel(&self) -> &KernelPlan {
        &self.kernel
    }

    /// Whether this plan evaluates in single precision.
    pub fn is_f32(&self) -> bool {
        self.kernel.is_f32()
    }
}

impl From<KernelPlan> for ModelPlan {
    /// Wraps an already-compiled (or deserialised) kernel plan; the
    /// caller vouches that it was compiled from the model it serves.
    fn from(kernel: KernelPlan) -> Self {
        ModelPlan { kernel }
    }
}

/// One servable matrix in either backend representation.
#[derive(Debug, Clone)]
pub enum Model {
    /// Uncompressed CSRV.
    Csrv(CsrvMatrix),
    /// Grammar-compressed matrix.
    Compressed(CompressedMatrix),
}

impl Model {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Model::Csrv(m) => m.rows(),
            Model::Compressed(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Model::Csrv(m) => m.cols(),
            Model::Compressed(m) => m.cols(),
        }
    }

    /// The backend kind (= container tag).
    pub fn backend(&self) -> Backend {
        match self {
            Model::Csrv(_) => Backend::Csrv,
            Model::Compressed(_) => Backend::Compressed,
        }
    }

    /// The grammar encoding, for the compressed backend.
    pub fn encoding(&self) -> Option<Encoding> {
        match self {
            Model::Csrv(_) => None,
            Model::Compressed(m) => Some(m.encoding()),
        }
    }

    /// Serialized representation size in bytes (the paper's "size"
    /// accounting; container framing excluded).
    pub fn stored_bytes(&self) -> usize {
        match self {
            Model::Csrv(m) => m.csrv_bytes(),
            Model::Compressed(m) => m.stored_bytes(),
        }
    }

    /// The value dictionary `V` (an `Arc` the row shards of one build
    /// share, whatever the backend).
    pub fn dictionary(&self) -> &Arc<Vec<f64>> {
        match self {
            Model::Csrv(m) => m.values_arc(),
            Model::Compressed(m) => m.values_arc(),
        }
    }

    /// Number of stored non-zeroes (the compressed backend counts
    /// through the grammar without decompressing; the `inspect`
    /// per-shard table relies on this).
    pub fn nnz(&self) -> usize {
        match self {
            Model::Csrv(m) => m.nnz(),
            Model::Compressed(m) => m.nnz(),
        }
    }

    /// Grammar rules of the model (0 for the uncompressed backend).
    pub fn grammar_rules(&self) -> usize {
        match self {
            Model::Csrv(_) => 0,
            Model::Compressed(m) => m.num_rules(),
        }
    }

    /// Workspace budget `(buffers, max_len)` of one multiplication with
    /// batch width `k`: a workspace warmed with
    /// [`Workspace::warm`]`(buffers, max_len)` serves any single- or
    /// batched-multiply of width at most `k` without allocating, even on
    /// the first call.
    pub fn workspace_budget(&self, k: usize) -> (usize, usize) {
        match self {
            Model::Csrv(_) => (0, 0),
            // The W panel, plus the per-rule nonzero-flag buffer of
            // the k-wide left kernel (see `working_bytes`).
            Model::Compressed(m) => (1 + usize::from(k > 1), m.num_rules() * k.max(1)),
        }
    }

    /// Batched right product through a compiled `plan` (which must have
    /// been compiled from this model). Scratch comes from `ws`; after
    /// [`ModelPlan::compile_with`] + a warmed workspace this performs no
    /// heap allocation.
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn right_multiply_panel_planned(
        &self,
        plan: &ModelPlan,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let mut buf = ws.take(plan.kernel.scratch_len(k));
        let result = plan
            .kernel
            .right_multiply_panel(k, x_panel, y_panel, &mut buf);
        ws.put(buf);
        result
    }

    /// Sparse-input right product from the non-zeroes of `x` alone,
    /// without a plan: the input is scattered into a dense staging
    /// buffer drawn from `ws` and the width-1 streaming kernel runs.
    /// Exists so every backend accepts `multiply_sparse` requests; the
    /// planned entry point below is the fast path.
    ///
    /// # Errors
    /// Fails on invalid sparse input (see
    /// [`gcm_core::validate_sparse_x`]) or a wrong `y` length.
    pub fn right_multiply_sparse_into(
        &self,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        gcm_core::validate_sparse_x(self.cols(), x_nnz)?;
        let mut x = ws.take(self.cols());
        x.fill(0.0);
        for &(j, v) in x_nnz {
            x[j as usize] = v;
        }
        let result = self.right_multiply_panel_into(1, &x, y, ws);
        ws.put(x);
        result
    }

    /// Sparse-input right product through a compiled `plan` (which must
    /// have been compiled from this model): the activity-propagation
    /// walk of [`KernelPlan::right_multiply_sparse`]. No heap
    /// allocation once `ws` is warm.
    ///
    /// # Errors
    /// Fails on invalid sparse input or a wrong `y` length.
    pub fn right_multiply_sparse_planned(
        &self,
        plan: &ModelPlan,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        if y.len() != self.rows() {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows(),
                actual: y.len(),
                what: "y length",
            });
        }
        let mut buf = ws.take(plan.kernel.scratch_len(1));
        let result = plan.kernel.right_multiply_sparse(x_nnz, y, &mut buf);
        ws.put(buf);
        result
    }

    /// Batched left product through a compiled `plan`; see
    /// [`right_multiply_panel_planned`](Self::right_multiply_panel_planned).
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn left_multiply_panel_planned(
        &self,
        plan: &ModelPlan,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let mut buf = ws.take(plan.kernel.scratch_len(k));
        let result = plan
            .kernel
            .left_multiply_panel(k, y_panel, x_panel, &mut buf);
        ws.put(buf);
        result
    }
}

/// The streaming (unplanned) kernels: each backend's own panel pair,
/// which runs its width-1 kernel at `k = 1`. The sharded engine drives
/// shards through it so each writes its raw sub-panel of one output
/// buffer.
impl MatVec for Model {
    fn rows(&self) -> usize {
        Model::rows(self)
    }

    fn cols(&self) -> usize {
        Model::cols(self)
    }

    fn right_multiply_panel_into(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        match self {
            Model::Csrv(m) => m.right_multiply_panel_into(k, x_panel, y_panel, ws),
            Model::Compressed(m) => m.right_multiply_panel_into(k, x_panel, y_panel, ws),
        }
    }

    fn left_multiply_panel_into(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        match self {
            Model::Csrv(m) => m.left_multiply_panel_into(k, y_panel, x_panel, ws),
            Model::Compressed(m) => m.left_multiply_panel_into(k, y_panel, x_panel, ws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;

    fn sample() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(31, 6);
        for r in 0..31 {
            for c in 0..6 {
                if (r + 2 * c) % 3 != 0 {
                    m.set(r, c, ((r * c) % 4 + 1) as f64 * 0.5);
                }
            }
        }
        m
    }

    fn all_models(dense: &DenseMatrix) -> Vec<Model> {
        let csrv = CsrvMatrix::from_dense(dense).unwrap();
        vec![
            Model::Csrv(csrv.clone()),
            Model::Compressed(CompressedMatrix::compress(&csrv, Encoding::ReIv)),
        ]
    }

    #[test]
    fn every_backend_matches_dense() {
        let dense = sample();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let yv: Vec<f64> = (0..31).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut y_ref = vec![0.0; 31];
        let mut x_ref = vec![0.0; 6];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        for model in all_models(&dense) {
            let mut y = vec![0.0; 31];
            model.right_multiply(&x, &mut y).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "{} right", model.backend().name());
            }
            let mut xo = vec![0.0; 6];
            model.left_multiply(&yv, &mut xo).unwrap();
            for (a, b) in xo.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{} left", model.backend().name());
            }
        }
    }

    #[test]
    fn sparse_multiply_matches_dense_on_every_backend() {
        let dense = sample();
        let patterns: Vec<Vec<(u32, f64)>> = vec![
            vec![],
            vec![(3, 1.0)],
            vec![(0, -2.0), (4, 0.5)],
            (0..6).map(|j| (j as u32, j as f64 - 2.5)).collect(),
        ];
        for x_nnz in &patterns {
            let mut x = vec![0.0; 6];
            for &(j, v) in x_nnz {
                x[j as usize] = v;
            }
            let mut y_ref = vec![0.0; 31];
            dense.right_multiply(&x, &mut y_ref).unwrap();
            for model in all_models(&dense) {
                let mut ws = Workspace::new();
                let mut y = vec![f64::NAN; 31];
                model
                    .right_multiply_sparse_into(x_nnz, &mut y, &mut ws)
                    .unwrap();
                for (a, b) in y.iter().zip(&y_ref) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{} sparse nnz={}",
                        model.backend().name(),
                        x_nnz.len()
                    );
                }
                for f32_plan in [false, true] {
                    let Some(plan) = ModelPlan::compile_with(&model, f32_plan) else {
                        continue;
                    };
                    let mut y = vec![f64::NAN; 31];
                    model
                        .right_multiply_sparse_planned(&plan, x_nnz, &mut y, &mut ws)
                        .unwrap();
                    let tol = if f32_plan { 1e-4 } else { 1e-9 };
                    for (a, b) in y.iter().zip(&y_ref) {
                        assert!(
                            (a - b).abs() < tol,
                            "{} planned sparse f32={} nnz={}",
                            model.backend().name(),
                            f32_plan,
                            x_nnz.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_multiply_rejects_malformed_input() {
        let dense = sample();
        let model = &all_models(&dense)[1];
        let mut ws = Workspace::new();
        let mut y = vec![0.0; 31];
        // Out-of-range index.
        assert!(model
            .right_multiply_sparse_into(&[(6, 1.0)], &mut y, &mut ws)
            .is_err());
        // Duplicate / unsorted indices.
        assert!(model
            .right_multiply_sparse_into(&[(2, 1.0), (2, 1.0)], &mut y, &mut ws)
            .is_err());
        assert!(model
            .right_multiply_sparse_into(&[(4, 1.0), (1, 1.0)], &mut y, &mut ws)
            .is_err());
        // Wrong output length through the planned entry point.
        let plan = ModelPlan::compile_with(model, false).unwrap();
        let mut short = vec![0.0; 30];
        assert!(model
            .right_multiply_sparse_planned(&plan, &[(0, 1.0)], &mut short, &mut ws)
            .is_err());
    }

    #[test]
    fn backend_tags_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_tag(b.tag()), Some(b));
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::from_tag(9), None);
        assert_eq!(Backend::parse("dense"), None);
    }

    #[test]
    fn workspace_budget_covers_a_batched_pass() {
        let dense = sample();
        let k = 5;
        for model in all_models(&dense) {
            let (count, max_len) = model.workspace_budget(k);
            let mut ws = Workspace::new();
            ws.warm(count, max_len);
            let before = ws.retained_bytes();
            let x = vec![1.0; 6 * k];
            let mut y = vec![0.0; 31 * k];
            model
                .right_multiply_panel_into(k, &x, &mut y, &mut ws)
                .unwrap();
            let yv = vec![1.0; 31 * k];
            let mut xo = vec![0.0; 6 * k];
            model
                .left_multiply_panel_into(k, &yv, &mut xo, &mut ws)
                .unwrap();
            // The warmed capacity was sufficient: nothing grew.
            assert_eq!(
                ws.retained_bytes(),
                before,
                "{} budget too small",
                model.backend().name()
            );
        }
    }
}
