//! A uniform wrapper over every servable matrix backend.
//!
//! The serve layer persists and multiplies four representations — the
//! uncompressed CSRV baseline, its row-block parallel variant, the
//! grammar-compressed `(C, R, V)` matrix, and its row-block parallel
//! variant — behind one enum, so the container format, the sharded
//! engine, and the differential test harness treat them uniformly.
//! A grammar backend's compiled plans ride along as a two-variant
//! [`ModelPlan`] (one [`KernelPlan`] per matrix or row block); the
//! plan precision is a run-time property of the [`KernelPlan`]s, so no
//! kernel entry point here branches on it.

use std::sync::Arc;

use gcm_core::{BlockedMatrix, CompressedMatrix, Encoding, KernelPlan};
use gcm_encodings::HeapSize;
use gcm_matrix::matvec::{check_left_batch, check_right_batch};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, MatrixError, ParallelCsrv, Workspace};
use gcm_pipeline::ShardArtifact;

/// Which representation a [`Model`] (and its on-disk container) uses.
/// Defined in `gcm-pipeline` (the build side needs it without the
/// serving code); re-exported here so `gcm_serve::Backend` keeps
/// working.
pub use gcm_pipeline::Backend;

/// A compiled execution plan for one [`Model`] — the serve-layer
/// counterpart of [`gcm_core::plan`]: grammar backends compile to
/// per-(block-)matrix [`KernelPlan`]s, uncompressed backends have no
/// plan (their kernels are already branchless array walks).
///
/// The precision (`f64` or `f32`) lives in the [`KernelPlan`]s
/// themselves; every plan of one model shares it.
///
/// Plans are a speed-for-memory trade ([`HeapSize`] reports the cost),
/// built once at prewarm and consumed by the `*_planned` kernels below.
#[derive(Debug, Clone)]
pub enum ModelPlan {
    /// One plan for a grammar-compressed model (boxed: a plan header is
    /// several hundred bytes, the blocked variant one `Vec`).
    Compressed(Box<KernelPlan>),
    /// One plan per row block of a blocked model.
    Blocked(Vec<KernelPlan>),
}

impl ModelPlan {
    /// Compiles a plan for `model`, in single precision when `f32` is
    /// set; `None` for the uncompressed backends, which gain nothing
    /// from planning.
    pub fn compile_with(model: &Model, f32_plan: bool) -> Option<Self> {
        match (model, f32_plan) {
            (Model::Csrv(_) | Model::ParCsrv(_), _) => None,
            (Model::Compressed(m), false) => Some(ModelPlan::Compressed(Box::new(m.plan()))),
            (Model::Blocked(m), false) => Some(ModelPlan::Blocked(m.plan())),
            (Model::Compressed(m), true) => Some(ModelPlan::Compressed(Box::new(m.plan_f32()))),
            (Model::Blocked(m), true) => Some(ModelPlan::Blocked(m.plan_f32())),
        }
    }

    /// The per-(block-)matrix plans, in row order.
    pub(crate) fn plans(&self) -> &[KernelPlan] {
        match self {
            ModelPlan::Compressed(p) => std::slice::from_ref(&**p),
            ModelPlan::Blocked(ps) => ps,
        }
    }

    /// Whether this plan evaluates in single precision.
    pub fn is_f32(&self) -> bool {
        self.plans().iter().any(KernelPlan::is_f32)
    }
}

impl HeapSize for ModelPlan {
    fn heap_bytes(&self) -> usize {
        self.plans().iter().map(HeapSize::heap_bytes).sum()
    }
}

/// One servable matrix in any backend representation.
#[derive(Debug, Clone)]
pub enum Model {
    /// Uncompressed CSRV.
    Csrv(CsrvMatrix),
    /// Row-block parallel CSRV.
    ParCsrv(ParallelCsrv),
    /// Grammar-compressed matrix.
    Compressed(CompressedMatrix),
    /// Row-block parallel grammar-compressed matrix.
    Blocked(BlockedMatrix),
}

impl Model {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Model::Csrv(m) => m.rows(),
            Model::ParCsrv(m) => m.rows(),
            Model::Compressed(m) => m.rows(),
            Model::Blocked(m) => MatVec::rows(m),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Model::Csrv(m) => m.cols(),
            Model::ParCsrv(m) => m.cols(),
            Model::Compressed(m) => m.cols(),
            Model::Blocked(m) => MatVec::cols(m),
        }
    }

    /// The backend kind (= container tag).
    pub fn backend(&self) -> Backend {
        match self {
            Model::Csrv(_) => Backend::Csrv,
            Model::ParCsrv(_) => Backend::ParCsrv,
            Model::Compressed(_) => Backend::Compressed,
            Model::Blocked(_) => Backend::Blocked,
        }
    }

    /// The grammar encoding, for the compressed backends.
    pub fn encoding(&self) -> Option<Encoding> {
        match self {
            Model::Compressed(m) => Some(m.encoding()),
            Model::Blocked(m) => m.blocks().first().map(|b| b.encoding()),
            _ => None,
        }
    }

    /// Serialized representation size in bytes (the paper's "size"
    /// accounting; container framing excluded).
    pub fn stored_bytes(&self) -> usize {
        match self {
            Model::Csrv(m) => m.csrv_bytes(),
            Model::ParCsrv(m) => m.stored_bytes(),
            Model::Compressed(m) => m.stored_bytes(),
            Model::Blocked(m) => m.stored_bytes(),
        }
    }

    /// The grammar backends' value dictionary `V` (one `Arc` shared by
    /// every row block); `None` for the uncompressed backends, whose
    /// payloads always embed their own.
    pub fn dictionary(&self) -> Option<&Arc<Vec<f64>>> {
        match self {
            Model::Csrv(_) | Model::ParCsrv(_) => None,
            Model::Compressed(m) => Some(m.values_arc()),
            Model::Blocked(m) => m.blocks().first().map(CompressedMatrix::values_arc),
        }
    }

    /// Number of stored non-zeroes (compressed backends count through
    /// the grammar without decompressing; the `inspect` per-shard table
    /// relies on this).
    pub fn nnz(&self) -> usize {
        match self {
            Model::Csrv(m) => m.nnz(),
            Model::ParCsrv(m) => m.blocks().iter().map(CsrvMatrix::nnz).sum(),
            Model::Compressed(m) => m.nnz(),
            Model::Blocked(m) => m.blocks().iter().map(CompressedMatrix::nnz).sum(),
        }
    }

    /// Total grammar rules across the model's blocks (0 for the
    /// uncompressed backends).
    pub fn grammar_rules(&self) -> usize {
        match self {
            Model::Csrv(_) | Model::ParCsrv(_) => 0,
            Model::Compressed(m) => m.num_rules(),
            Model::Blocked(m) => m.blocks().iter().map(CompressedMatrix::num_rules).sum(),
        }
    }

    /// Workspace budget `(buffers, max_len)` of one multiplication with
    /// batch width `k`: a workspace warmed with
    /// [`Workspace::warm`]`(buffers, max_len)` serves any single- or
    /// batched-multiply of width at most `k` without allocating, even on
    /// the first call.
    pub fn workspace_budget(&self, k: usize) -> (usize, usize) {
        let k = k.max(1);
        match self {
            Model::Csrv(_) => (0, 0),
            Model::ParCsrv(m) => (m.num_blocks(), m.cols() * k),
            // The batched left kernel draws the W panel plus the
            // per-rule nonzero-flag buffer.
            Model::Compressed(m) => (2, m.num_rules() * k),
            Model::Blocked(m) => {
                let max_rules = m.blocks().iter().map(|b| b.num_rules()).max().unwrap_or(0);
                // Per block: a partial `cols × k` panel plus one scratch
                // buffer (the `W` panel with the left pass's flag row).
                (
                    2 * m.num_blocks(),
                    (k * MatVec::cols(m)).max(max_rules * (k + 1)).max(1),
                )
            }
        }
    }

    /// Workspace budget `(buffers, max_len)` of one **planned**
    /// multiplication with batch width `k` (plans draw one combined
    /// `[x | w | flags]` scratch buffer per matrix instead of the
    /// streaming kernels' separate W panels).
    pub fn planned_workspace_budget(&self, k: usize, plan: &ModelPlan) -> (usize, usize) {
        let k = k.max(1);
        match plan {
            ModelPlan::Compressed(p) => (1, p.scratch_len(k)),
            ModelPlan::Blocked(ps) => {
                let max_buf = ps.iter().map(|p| p.scratch_len(k)).max().unwrap_or(0);
                (2 * ps.len(), max_buf.max(self.cols() * k))
            }
        }
    }

    /// Batched right product over explicit row-major `k`-wide panel
    /// slices (`x_panel` is `cols × k`, `y_panel` is `rows × k`), drawing
    /// scratch from `ws`. The sharded engine drives shards through this
    /// entry point so each writes its raw sub-panel of one output buffer.
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn right_multiply_panel_into(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        match self {
            Model::Csrv(m) => m.right_multiply_panel(x_panel, y_panel, k),
            Model::ParCsrv(m) => m.right_multiply_panel_into(k, x_panel, y_panel),
            Model::Compressed(m) => {
                let mut w = ws.take(m.num_rules() * k);
                let result = m.right_multiply_panel_with(k, x_panel, y_panel, &mut w);
                ws.put(w);
                result
            }
            Model::Blocked(m) => m.right_multiply_panel_into(k, x_panel, y_panel, ws),
        }
    }

    /// Batched left product over explicit row-major panel slices
    /// (`y_panel` is `rows × k`, `x_panel` is `cols × k`), drawing
    /// scratch from `ws`.
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn left_multiply_panel_into(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        match self {
            Model::Csrv(m) => m.left_multiply_panel(y_panel, x_panel, k),
            Model::ParCsrv(m) => m.left_multiply_panel_into(k, y_panel, x_panel, ws),
            Model::Compressed(m) => {
                let mut w = ws.take(m.num_rules() * k);
                let mut flags = ws.take(m.num_rules());
                let result = m.left_multiply_panel_with(k, y_panel, x_panel, &mut w, &mut flags);
                ws.put(flags);
                ws.put(w);
                result
            }
            Model::Blocked(m) => m.left_multiply_panel_into(k, y_panel, x_panel, ws),
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
        match (self, plan) {
            (Model::Compressed(_), ModelPlan::Compressed(p)) => {
                let mut buf = ws.take(p.scratch_len(k));
                let result = p.right_multiply_panel(k, x_panel, y_panel, &mut buf);
                ws.put(buf);
                result
            }
            (Model::Blocked(m), ModelPlan::Blocked(ps)) => {
                m.right_multiply_panel_planned_into(ps, k, x_panel, y_panel, ws)
            }
            // A mismatched plan cannot arise through the serve layer
            // (plans are compiled from the very model they serve);
            // fall back to the streaming path rather than guess.
            _ => self.right_multiply_panel_into(k, x_panel, y_panel, ws),
        }
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
    /// have been compiled from this model): grammar backends take the
    /// activity-propagation walk of
    /// [`KernelPlan::right_multiply_sparse`] — blocked models run it
    /// block by block over the shared input — and anything else falls
    /// back to [`right_multiply_sparse_into`](Self::right_multiply_sparse_into).
    /// No heap allocation once `ws` is warm.
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
        match (self, plan) {
            (Model::Compressed(_), ModelPlan::Compressed(_))
            | (Model::Blocked(_), ModelPlan::Blocked(_)) => {
                let mut off = 0usize;
                for p in plan.plans() {
                    let mut buf = ws.take(p.scratch_len(1));
                    let result =
                        p.right_multiply_sparse(x_nnz, &mut y[off..off + p.rows()], &mut buf);
                    ws.put(buf);
                    result?;
                    off += p.rows();
                }
                Ok(())
            }
            _ => self.right_multiply_sparse_into(x_nnz, y, ws),
        }
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
        match (self, plan) {
            (Model::Compressed(_), ModelPlan::Compressed(p)) => {
                let mut buf = ws.take(p.scratch_len(k));
                let result = p.left_multiply_panel(k, y_panel, x_panel, &mut buf);
                ws.put(buf);
                result
            }
            (Model::Blocked(m), ModelPlan::Blocked(ps)) => {
                m.left_multiply_panel_planned_into(ps, k, y_panel, x_panel, ws)
            }
            _ => self.left_multiply_panel_into(k, y_panel, x_panel, ws),
        }
    }
}

impl From<ShardArtifact> for Model {
    /// Wraps a pipeline build artifact as a servable model (the seam
    /// between `gcm-pipeline`'s build side and this crate's serving
    /// side).
    fn from(artifact: ShardArtifact) -> Self {
        match artifact {
            ShardArtifact::Csrv(m) => Model::Csrv(m),
            ShardArtifact::ParCsrv(m) => Model::ParCsrv(m),
            ShardArtifact::Compressed(m) => Model::Compressed(m),
            ShardArtifact::Blocked(m) => Model::Blocked(m),
        }
    }
}

impl MatVec for Model {
    fn rows(&self) -> usize {
        Model::rows(self)
    }

    fn cols(&self) -> usize {
        Model::cols(self)
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        // A width-1 row-major panel has the exact memory layout of a
        // vector, so the panel entry point is the single-vector kernel.
        self.right_multiply_panel_into(1, x, y, ws)
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.left_multiply_panel_into(1, y, x, ws)
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows(), self.cols(), b, out)?;
        if b.cols() == 0 {
            return Ok(());
        }
        self.right_multiply_panel_into(b.cols(), b.as_slice(), out.as_mut_slice(), ws)
    }

    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        check_left_batch(self.rows(), self.cols(), b, out)?;
        if b.cols() == 0 {
            return Ok(());
        }
        self.left_multiply_panel_into(b.cols(), b.as_slice(), out.as_mut_slice(), ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Model::ParCsrv(ParallelCsrv::split(&csrv, 3)),
            Model::Compressed(CompressedMatrix::compress(&csrv, Encoding::ReIv)),
            Model::Blocked(BlockedMatrix::compress(&csrv, Encoding::ReAns, 4)),
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
        let model = &all_models(&dense)[2];
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
