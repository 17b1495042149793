//! The sharded serving engine: one matrix, split row-wise across N
//! shards, multiplied on the persistent thread pool with per-shard
//! workspace reuse.
//!
//! Shards are the only row partition: each shard is one [`Model`],
//! uncompressed or grammar-compressed. A batched right product hands
//! every shard its disjoint `rows_i × k` sub-panel of the output; a
//! batched left product has each shard fill a persistent partial
//! `cols × k` panel, then reduces them.
//!
//! Every shard owns a [`Workspace`] and a persistent partial buffer,
//! each behind a mutex, plus the compiled plan a prewarm or a load may
//! install; the plan-or-stream choice is made in one place, the
//! shard's own kernel methods. [`ShardedModel`] only validates a
//! request and fans the shards out: inline when there is one shard,
//! otherwise through [`rayon::broadcast_indexed`], the pool's
//! allocation-free parallel for-each. A kernel holds its shard's `ws`
//! lock while it runs. The left product also holds `partial`, which it
//! takes first: the lock order is `partial`, then `ws`, and nothing
//! takes them the other way round.
//!
//! After [`ShardedModel::prewarm`], a steady-state serving loop over
//! either backend performs **zero heap allocation** — from the *first*
//! request on, the guarantee `crates/serve/tests/zero_alloc_serve.rs`
//! locks in with the tracking allocator. Prewarm earns that without
//! throwaway dense products: it grows each shard's workspace to
//! exactly the budget its kernels draw (a planned shard's one plan
//! scratch buffer; an unplanned shard's streaming budget plus the
//! staging panel of a row-subset request), with the pages resident,
//! and keeps only a throwaway sparse pass for the lazy state a dense
//! product would not build.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use gcm_core::Encoding;
use gcm_encodings::HeapSize;
use gcm_matrix::matvec::{check_left_batch, check_panels, check_right_batch};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, MatrixError, Workspace};
use gcm_pipeline::{
    BuildArtifacts, BuildConfig, EncodingChoice, GrammarChoice, GrammarStage, ReorderMode,
};
use gcm_reorder::ReorderAlgorithm;

use crate::model::{Backend, Model, ModelPlan};

/// How to build a [`ShardedModel`] from a matrix. Kept as the simple
/// front door; building runs through the staged `gcm-pipeline`
/// machinery (shards reorder/compress/encode concurrently on the
/// persistent pool), and callers who want stage timings, per-shard
/// stats, or [`EncodingChoice::Auto`] use [`gcm_pipeline::Pipeline`]
/// directly and wrap the artifacts with
/// [`ShardedModel::from_artifacts`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Representation of every shard.
    pub backend: Backend,
    /// Grammar encoding (compressed backends).
    pub encoding: Encoding,
    /// Grammar-stage policy (compressed backends). Every compressed
    /// shard records its stage and input fingerprint.
    pub grammar: GrammarChoice,
    /// Number of row shards (clamped to `1..=rows`).
    pub shards: usize,
    /// Optional column reordering (§5) applied before compression —
    /// [`ReorderMode::Global`] (one whole-matrix permutation) or
    /// [`ReorderMode::PerShard`] (each shard computes its own, §5.3).
    /// The permutations are recorded in the container for provenance.
    pub reorder: Option<ReorderMode>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            backend: Backend::Compressed,
            encoding: Encoding::ReAns,
            grammar: GrammarChoice::RePair,
            shards: 1,
            reorder: None,
        }
    }
}

impl BuildOptions {
    /// The pipeline configuration these options describe.
    pub fn to_build_config(&self) -> BuildConfig {
        BuildConfig {
            backend: self.backend,
            encoding: EncodingChoice::Fixed(self.encoding),
            grammar: Some(self.grammar),
            shards: self.shards,
            reorder: self.reorder,
            ..BuildConfig::default()
        }
    }
}

/// Serving-time options: how a loaded model is prewarmed.
///
/// Kept separate from [`BuildOptions`] because they describe the
/// *process*, not the artifact — the same container can be served
/// planned on a latency-critical replica and unplanned on a
/// memory-constrained one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOptions {
    /// Compile [`ModelPlan`]s for every shard at prewarm (see
    /// [`gcm_core::plan`]). Opt-in: a plan costs `O(|C| + |R|)` words
    /// per shard on top of the encoded matrix —
    /// [`ShardedModel::plan_heap_bytes`] reports the price — and buys a
    /// branchless, division-free, decode-free multiply. Plans are
    /// compiled concurrently on the persistent pool.
    pub plans: bool,
    /// Compile the plans in **single precision**
    /// ([`gcm_core::KernelPlan::to_f32`]): half the plan heap, twice the
    /// SIMD lanes per vector register, `f32` accumulation (outputs
    /// round-trip through `f64` panels at the interface). Only
    /// meaningful together with [`plans`](Self::plans).
    pub plan_f32: bool,
}

impl ServeOptions {
    /// Options with plan compilation enabled.
    pub fn planned() -> Self {
        Self {
            plans: true,
            plan_f32: false,
        }
    }

    /// Options with single-precision plan compilation enabled.
    pub fn planned_f32() -> Self {
        Self {
            plans: true,
            plan_f32: true,
        }
    }
}

/// One shard: its model, its reorder provenance (per-shard column
/// permutations are first-class — shards may disagree), and the serving
/// state the engine reuses across requests (workspace and
/// left-reduction partial buffer).
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) model: Model,
    pub(crate) row_offset: usize,
    /// Column permutation this shard was compressed with, if any.
    pub(crate) col_order: Option<Vec<u32>>,
    /// Algorithm that produced [`col_order`](Self::col_order), when
    /// known (build-time provenance; `GCMSERV1` v2 persists it).
    pub(crate) reorder: Option<ReorderAlgorithm>,
    /// Grammar stage that compressed this shard, when recorded
    /// (`GCMSERV1` v5 and v6 persist it; `None` for the uncompressed
    /// backend and shards loaded from older containers).
    pub(crate) grammar: Option<GrammarStage>,
    /// Fingerprint of the shard's build-time input rows
    /// ([`gcm_pipeline::shard_fingerprint`]), when recorded — the
    /// handle incremental rebuilds match unchanged shards by.
    pub(crate) fingerprint: Option<u64>,
    /// Compiled execution plan, set once by a plan-enabled prewarm
    /// (`None` inside = backend has nothing to plan). Read-only after
    /// initialisation, so the serving hot path pays one atomic load.
    plan: OnceLock<Option<ModelPlan>>,
    /// Every kernel on this shard runs under this lock (the server's
    /// tests hold it to stall a kernel deterministically).
    pub(crate) ws: Mutex<Workspace>,
    partial: Mutex<Vec<f64>>,
}

impl Shard {
    /// The shard's compiled plan, when one has been built (the
    /// container writer persists these as the `GCMSERV1` v4 plan
    /// section).
    pub(crate) fn plan(&self) -> Option<&ModelPlan> {
        self.plan.get().and_then(Option::as_ref)
    }

    /// Workspace budget `(buffers, max_len)` that every kernel below
    /// draws at batch widths up to `k`. Every planned entry point draws
    /// one `[x | w | flags]` plan scratch buffer. An unplanned shard
    /// also serves a row subset through a staging panel of `rows × k`,
    /// so its buffers grow to that length too; the count stays the
    /// streaming budget's, at least one. No unplanned kernel holds more
    /// than two buffers at once: a `compressed` shard's row subset
    /// holds the staging panel and W, its left product W and the rule
    /// flags, its sparse product the dense input and W; a `csrv`
    /// shard's row subset or sparse product holds one.
    fn budget(&self, k: usize) -> (usize, usize) {
        let k = k.max(1);
        match self.plan() {
            Some(plan) => (1, plan.kernel.scratch_len(k)),
            None => {
                let (count, max_len) = self.model.workspace_budget(k);
                (count.max(1), max_len.max(self.model.rows() * k))
            }
        }
    }

    /// Shard-local rows `rows` of the right product `M·X` into `y`
    /// (`rows.len() × k`, row-major). A planned shard runs the rule pass
    /// once, then accumulates only the requested rows through the
    /// plan's CSR row index, split into `chunks` disjoint row ranges
    /// that accumulate concurrently. An unplanned shard has no row
    /// index and ignores `chunks`: it writes the full product straight
    /// into `y` when `rows` covers the shard, and otherwise into a
    /// workspace staging panel it copies the range out of.
    fn right_rows(
        &self,
        rows: Range<usize>,
        chunks: usize,
        k: usize,
        x_panel: &[f64],
        y: &mut [f64],
    ) -> Result<(), MatrixError> {
        let mut ws = self.ws.lock().expect("shard workspace poisoned");
        let Some(plan) = self.plan() else {
            if rows.len() == self.model.rows() {
                return self.model.right_multiply_panel_into(k, x_panel, y, &mut ws);
            }
            let mut full = ws.take(self.model.rows() * k);
            let result = self
                .model
                .right_multiply_panel_into(k, x_panel, &mut full, &mut ws);
            if result.is_ok() {
                y.copy_from_slice(&full[rows.start * k..rows.end * k]);
            }
            ws.put(full);
            return result;
        };
        let plan = &plan.kernel;
        let mut buf = ws.take(plan.scratch_len(k));
        let result = plan.begin_right_panel(k, x_panel, &mut buf);
        if result.is_ok() {
            let buf = &buf;
            let len = rows.len();
            let chunk = |i: usize| len * i / chunks..len * (i + 1) / chunks;
            fan_out_rows(chunks, y, k, chunk, |i, y| {
                let c = chunk(i);
                plan.accumulate_rows_panel(rows.start + c.start..rows.start + c.end, k, buf, y);
            });
        }
        // The warmed buffer goes back even on an error, or one Err would
        // shrink the zero-alloc buffer pool.
        ws.put(buf);
        result
    }

    /// Left product `X = Mᵗ·Y` of this shard: `y_panel` holds its
    /// `rows × k` slice, `x_panel` receives `cols × k`.
    fn left(&self, k: usize, y_panel: &[f64], x_panel: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = self.ws.lock().expect("shard workspace poisoned");
        match self.plan() {
            Some(plan) => self
                .model
                .left_multiply_panel_planned(plan, k, y_panel, x_panel, &mut ws),
            None => self
                .model
                .left_multiply_panel_into(k, y_panel, x_panel, &mut ws),
        }
    }

    /// Sparse-input right product of this shard: the activity walk on
    /// a planned shard, a scatter into workspace memory otherwise.
    fn sparse(&self, x_nnz: &[(u32, f64)], y: &mut [f64]) -> Result<(), MatrixError> {
        let mut ws = self.ws.lock().expect("shard workspace poisoned");
        match self.plan() {
            Some(plan) => self
                .model
                .right_multiply_sparse_planned(plan, x_nnz, y, &mut ws),
            None => self.model.right_multiply_sparse_into(x_nnz, y, &mut ws),
        }
    }
}

/// A matrix split row-wise across shards, served from the persistent
/// thread pool. Build one with [`ShardedModel::from_dense`] /
/// [`from_csrv`](ShardedModel::from_csrv), or load one from a container
/// ([`ShardedModel::load`]).
#[derive(Debug)]
pub struct ShardedModel {
    shards: Vec<Shard>,
    rows: usize,
    cols: usize,
    /// Serialises concurrent multi-shard left multiplies: the
    /// fill-partials broadcast and the reduction that reads every
    /// shard's partial must be atomic per model, or two concurrent
    /// requests through one shared registry `Arc` would mix each
    /// other's partials.
    left_gate: Mutex<()>,
}

/// Shared raw base pointer for disjoint row-range output slices.
struct SendPtr(*mut f64);
// SAFETY: only used to derive disjoint row-range slices per task.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Runs `f(i, out_i)` for every `i in 0..n`, where `out_i` is the slice
/// of `out` holding rows `range(i)` at `width` values per row. A single
/// task runs inline on the caller, with no pool wake-up; more run
/// concurrently through [`rayon::broadcast_indexed`], the pool's
/// allocation-free parallel for-each.
///
/// # Panics
/// Panics unless the ranges ascend without overlapping and fit in
/// `out` — the check that makes handing each task its own `&mut` slice
/// sound.
fn fan_out_rows(
    n: usize,
    out: &mut [f64],
    width: usize,
    range: impl Fn(usize) -> Range<usize> + Sync,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    if n == 1 {
        let r = range(0);
        return f(0, &mut out[r.start * width..r.end * width]);
    }
    let mut end = 0;
    for i in 0..n {
        let r = range(i);
        assert!(end <= r.start && r.start <= r.end, "row ranges overlap");
        end = r.end;
    }
    assert!(end * width <= out.len(), "row ranges exceed the output");
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    rayon::broadcast_indexed(n, &|i| {
        let r = range(i);
        // SAFETY: the ranges were checked above to be disjoint and
        // inside `out`, which outlives the broadcast (it blocks until
        // every task completes).
        let y =
            unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start * width), r.len() * width) };
        f(i, y);
    });
}

impl ShardedModel {
    /// Builds from a dense matrix per `opts`.
    ///
    /// # Errors
    /// Fails if the matrix has more distinct values than the CSRV symbol
    /// alphabet can address.
    pub fn from_dense(dense: &DenseMatrix, opts: &BuildOptions) -> Result<Self, MatrixError> {
        Self::from_csrv(&CsrvMatrix::from_dense(dense)?, opts)
    }

    /// Builds from a CSRV matrix per `opts` through the staged
    /// `gcm-pipeline`: shards run reorder → RePair → encode concurrently
    /// on the persistent pool (thin wrapper over
    /// [`gcm_pipeline::global`]'s pipeline; outputs are bit-identical to
    /// a sequential build).
    ///
    /// # Errors
    /// Currently infallible (the signature leaves room for backends with
    /// fallible construction).
    pub fn from_csrv(csrv: &CsrvMatrix, opts: &BuildOptions) -> Result<Self, MatrixError> {
        Ok(Self::from_artifacts(
            gcm_pipeline::global().build(csrv, &opts.to_build_config()),
        ))
    }

    /// Wraps a pipeline build's [`BuildArtifacts`] as a ready-to-serve
    /// model, keeping every shard's column permutation and reorder
    /// provenance.
    ///
    /// # Panics
    /// Panics if a shard disagrees on the column count (pipeline
    /// artifacts are consistent by construction).
    pub fn from_artifacts(artifacts: BuildArtifacts) -> Self {
        let cols = artifacts.cols;
        Self::from_shards(
            artifacts
                .shards
                .into_iter()
                .map(|s| {
                    (
                        Model::from(s.artifact),
                        s.col_order,
                        s.reorder,
                        s.grammar,
                        s.fingerprint,
                    )
                })
                .collect(),
            cols,
        )
    }

    /// Assembles a sharded model from per-shard models that share one
    /// column order (row offsets are cumulative in order). Used by the
    /// bare `GCMMAT1`/`GCMMAT2` container compatibility path and tests.
    ///
    /// # Panics
    /// Panics if a shard disagrees on the column count.
    pub(crate) fn from_parts(models: Vec<Model>, cols: usize, col_order: Option<Vec<u32>>) -> Self {
        Self::from_shards(
            models
                .into_iter()
                .map(|m| (m, col_order.clone(), None, None, None))
                .collect(),
            cols,
        )
    }

    /// Assembles a sharded model from per-shard `(model, column order,
    /// reorder algorithm, grammar stage, input fingerprint)` tuples —
    /// the general constructor behind
    /// [`from_artifacts`](Self::from_artifacts) and the container
    /// loader, where every shard carries its own metadata.
    ///
    /// # Panics
    /// Panics if a shard disagrees on the column count.
    #[allow(clippy::type_complexity)]
    pub(crate) fn from_shards(
        parts: Vec<(
            Model,
            Option<Vec<u32>>,
            Option<ReorderAlgorithm>,
            Option<GrammarStage>,
            Option<u64>,
        )>,
        cols: usize,
    ) -> Self {
        let mut shards = Vec::with_capacity(parts.len());
        let mut rows = 0usize;
        for (model, col_order, reorder, grammar, fingerprint) in parts {
            assert_eq!(model.cols(), cols, "shard column mismatch");
            let model_rows = model.rows();
            shards.push(Shard {
                model,
                row_offset: rows,
                col_order,
                reorder,
                grammar,
                fingerprint,
                plan: OnceLock::new(),
                ws: Mutex::new(Workspace::new()),
                partial: Mutex::new(Vec::new()),
            });
            rows += model_rows;
        }
        Self {
            shards,
            rows,
            cols,
            left_gate: Mutex::new(()),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of row shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Row count of shard `i`.
    pub fn shard_rows(&self, i: usize) -> usize {
        self.shards[i].model.rows()
    }

    /// The model of shard `i` (read-only; `gcm inspect`'s per-shard
    /// table reads sizes and grammar statistics through it).
    pub fn shard_model(&self, i: usize) -> &Model {
        &self.shards[i].model
    }

    /// The shard models, in row order.
    pub(crate) fn shard_slice(&self) -> &[Shard] {
        &self.shards
    }

    /// The backend kind (uniform across shards).
    pub fn backend(&self) -> Backend {
        self.shards
            .first()
            .map_or(Backend::Csrv, |s| s.model.backend())
    }

    /// The grammar encoding, for compressed backends.
    pub fn encoding(&self) -> Option<Encoding> {
        self.shards.first().and_then(|s| s.model.encoding())
    }

    /// The **uniform** column-reorder permutation the model was
    /// compressed with — `Some` only when every shard shares one order
    /// (a global reorder, or a single shard). Per-shard-reordered
    /// models return `None` here; use
    /// [`shard_col_order`](Self::shard_col_order) for those.
    /// (Provenance metadata; CSRV pairs keep their original column
    /// indices, so serving needs no inverse permutation.)
    pub fn col_order(&self) -> Option<&[u32]> {
        let first = self.shards.first()?.col_order.as_deref()?;
        self.shards
            .iter()
            .all(|s| s.col_order.as_deref() == Some(first))
            .then_some(first)
    }

    /// The column permutation shard `i` was compressed with, if any
    /// (per-shard orders are first-class: shards may disagree).
    pub fn shard_col_order(&self, i: usize) -> Option<&[u32]> {
        self.shards[i].col_order.as_deref()
    }

    /// The reorder algorithm shard `i` was built with, when recorded
    /// (build provenance, persisted by `GCMSERV1` versions 2 and up).
    pub fn shard_reorder(&self, i: usize) -> Option<ReorderAlgorithm> {
        self.shards[i].reorder
    }

    /// The grammar stage shard `i` was compressed with, when recorded
    /// (build provenance, persisted by `GCMSERV1` versions 5 and 6).
    pub fn shard_grammar(&self, i: usize) -> Option<GrammarStage> {
        self.shards[i].grammar
    }

    /// The build-time input fingerprint of shard `i`, when recorded
    /// ([`gcm_pipeline::shard_fingerprint`]; persisted by `GCMSERV1`
    /// versions 5 and 6 for incremental rebuilds).
    pub fn shard_fingerprint(&self, i: usize) -> Option<u64> {
        self.shards[i].fingerprint
    }

    /// Total representation size across shards (container framing
    /// excluded). A value dictionary that several grammar shards share
    /// (one `Arc`, as in a fresh build or a `GCMSERV1` v6 load) is
    /// counted once, as the container stores it once; shards loaded
    /// from older containers each hold, and count, their own copy.
    pub fn stored_bytes(&self) -> usize {
        let mut seen: Vec<&Arc<Vec<f64>>> = Vec::new();
        let mut total = 0;
        for shard in &self.shards {
            total += shard.model.stored_bytes();
            if let Some(dict) = shard.model.dictionary() {
                if seen.iter().any(|d| Arc::ptr_eq(d, dict)) {
                    total -= dict.len() * 8;
                } else {
                    seen.push(dict);
                }
            }
        }
        total
    }

    /// Installs a deserialized plan on shard `i` (the `GCMSERV1` v4
    /// cast-on-load path). Returns `false` when the shard already
    /// carries a plan — first writer wins, matching the `OnceLock`
    /// semantics `prewarm_with` relies on; a later plan-enabled prewarm
    /// then validates budgets instead of recompiling.
    pub(crate) fn install_plan(&self, i: usize, plan: ModelPlan) -> bool {
        self.shards[i].plan.set(Some(plan)).is_ok()
    }

    /// Readies the model to serve batch widths up to `k` with no heap
    /// allocation from the first request on: spins up the pool workers,
    /// grows every shard's workspace to exactly the budget its dispatch
    /// will draw, reserves the left-reduction partials, and runs one
    /// throwaway sparse pass. Equivalent to
    /// [`prewarm_with`](Self::prewarm_with) under default
    /// [`ServeOptions`] (no plan compilation).
    pub fn prewarm(&self, k: usize) {
        self.prewarm_with(k, &ServeOptions::default());
    }

    /// [`prewarm`](Self::prewarm) with explicit [`ServeOptions`]. With
    /// `opts.plans` set, every shard's [`ModelPlan`] is compiled here —
    /// concurrently on the persistent pool, one shard per worker, the
    /// same `par_map` machinery the container loader decodes shards
    /// with — and all later requests dispatch through the planned
    /// kernels. Plan compilation is once-per-model: a second prewarm
    /// reuses the existing plans, including those a container load
    /// installed.
    ///
    /// No throwaway dense product runs: a planned shard warms its plan's
    /// one scratch buffer (every planned entry point draws only that),
    /// an unplanned shard the buffers of its streaming budget (at least
    /// one), each long enough to stage a row subset's full product, and
    /// [`Workspace::warm`] grows the buffers to full length, so their
    /// pages are already resident. The one throwaway pass left is
    /// sparse, because it builds state a dense product cannot: each
    /// plan's lazy sparse dependency index, and the unplanned shards'
    /// dense staging vector.
    pub fn prewarm_with(&self, k: usize, opts: &ServeOptions) {
        let k = k.max(1);
        // Force every pool worker through one job first, so one-time
        // lazy per-thread runtime allocations land here rather than in
        // whichever later request first wakes a cold worker.
        rayon::prewarm_workers();
        // Build plans and warm shard workspaces through the same pool
        // stage machinery the pipeline builds and loads with (shards
        // run concurrently; with one shard this runs inline).
        gcm_pipeline::par_map(self.shards.len(), |i| {
            let shard = &self.shards[i];
            // A plan built by an earlier prewarm or installed by a load
            // keeps serving either way.
            if opts.plans {
                shard
                    .plan
                    .get_or_init(|| ModelPlan::compile_with(&shard.model, opts.plan_f32));
            }
            let (count, max_len) = shard.budget(k);
            shard
                .ws
                .lock()
                .expect("shard workspace poisoned")
                .warm(count, max_len);
            let mut partial = shard.partial.lock().expect("shard partial poisoned");
            if partial.capacity() < self.cols * k {
                let grow = self.cols * k - partial.len();
                partial.reserve(grow);
            }
        });
        // One throwaway sparse pass so the sparse path's scratch (the
        // unplanned backends' dense staging vector in particular, which
        // the panel budgets above don't cover) and each plan's lazy
        // sparse index land now rather than on the first live request.
        let x_nnz: Vec<(u32, f64)> = (0..self.cols.min(1)).map(|j| (j as u32, 0.0)).collect();
        let mut y = vec![0.0; self.rows];
        self.right_multiply_sparse(&x_nnz, &mut y)
            .expect("prewarm dimensions are consistent");
    }

    /// Whether any shard serves through a compiled plan.
    pub fn is_planned(&self) -> bool {
        self.shards.iter().any(|s| s.plan().is_some())
    }

    /// Whether any shard serves through a **single-precision** plan
    /// (compiled by a [`ServeOptions::planned_f32`] prewarm).
    pub fn is_planned_f32(&self) -> bool {
        self.shards
            .iter()
            .filter_map(Shard::plan)
            .any(ModelPlan::is_f32)
    }

    /// Heap bytes held by the compiled plans across all shards (0 until
    /// a plan-enabled prewarm) — the price of the planned kernels,
    /// reported so capacity planning can weigh it against the encoded
    /// model size.
    pub fn plan_heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(Shard::plan)
            .map(HeapSize::heap_bytes)
            .sum()
    }

    /// Runs `f` once per shard with that shard's disjoint rows of `out`
    /// (`width` values per row; width 0 hands every shard an empty
    /// slice). One shard runs inline on the caller, so a single-shard
    /// model never publishes a broadcast; more fan out across the pool
    /// (see `fan_out_rows`).
    ///
    /// # Panics
    /// Panics if `f` fails: callers validate every request before
    /// dispatch, so a shard's kernel cannot see inconsistent lengths.
    fn for_each_shard(
        &self,
        out: &mut [f64],
        width: usize,
        f: impl Fn(&Shard, &mut [f64]) -> Result<(), MatrixError> + Sync,
    ) {
        let rows = |i: usize| {
            let shard = &self.shards[i];
            shard.row_offset..shard.row_offset + shard.model.rows()
        };
        fan_out_rows(self.shards.len(), out, width, rows, |i, y| {
            f(&self.shards[i], y).expect("shard dimensions are consistent by construction");
        });
    }

    /// Batched right product `Y = M·X` over row-major `k`-wide panel
    /// slices: shards run concurrently on the persistent pool, each
    /// writing its disjoint rows of `y_panel`.
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn right_multiply_panel(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
    ) -> Result<(), MatrixError> {
        check_panels(self.rows, self.cols, k, x_panel.len(), y_panel.len())?;
        if k == 0 || self.rows == 0 {
            return Ok(());
        }
        // Shards run concurrently; a lone shard parallelises *inside*
        // itself instead: a plan's CSR row index makes disjoint row
        // ranges of `C` independent once the rule pass has filled the
        // scratch buffer (either precision; see `Shard::right_rows`).
        let threads = rayon::current_num_threads();
        let chunks = if self.shards.len() == 1 && self.rows >= 2 * threads {
            threads
        } else {
            1
        };
        self.for_each_shard(y_panel, k, |shard, y| {
            shard.right_rows(0..shard.model.rows(), chunks, k, x_panel, y)
        });
        Ok(())
    }

    /// Right product `y = M·x` from the non-zeroes of `x` alone:
    /// `x_nnz` holds `(column, value)` pairs with strictly increasing
    /// in-range indices (validated up front, like the wire layer's
    /// `multiply_sparse` verb). Planned shards take the
    /// activity-propagation sparse kernel — per-request cost scales
    /// with the slice of the grammar the non-zeroes reach instead of
    /// the whole plan — and unplanned shards scatter into a
    /// workspace-owned dense vector. Shards run concurrently on the
    /// persistent pool, each writing its disjoint rows of `y`; the
    /// sparse indices are original column positions even under column
    /// reordering (CSRV pairs keep their original indices), so no
    /// inverse permutation is applied.
    ///
    /// # Errors
    /// Fails on malformed `x_nnz` (out-of-range, unsorted, or
    /// duplicate indices; more pairs than columns) or a wrong `y`
    /// length.
    pub fn right_multiply_sparse(
        &self,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
    ) -> Result<(), MatrixError> {
        gcm_core::validate_sparse_x(self.cols, x_nnz)?;
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: y.len(),
                what: "y length",
            });
        }
        if self.rows == 0 {
            return Ok(());
        }
        self.for_each_shard(y, 1, |shard, y| shard.sparse(x_nnz, y));
        Ok(())
    }

    /// Right product restricted to a contiguous row range:
    /// `y_chunk = (M·X)[a..b]` over row-major `k`-wide panels
    /// (`x_panel` is `cols × k`, `y_chunk` is `(b-a) × k`). Only the
    /// shards intersecting the range run; a planned shard serves its
    /// slice through the plan's CSR row index — one rule pass plus
    /// O(descriptors-touched) accumulation, so asking for 10 rows of a
    /// huge model never walks the other rows — and allocation-free
    /// after a plan-enabled prewarm. Unplanned shards fall back to the
    /// full shard product into workspace memory and copy the requested
    /// slice out.
    ///
    /// # Errors
    /// Fails if the range exceeds the row count or either panel length
    /// is inconsistent with `k`.
    pub fn right_multiply_rows(
        &self,
        rows: Range<usize>,
        k: usize,
        x_panel: &[f64],
        y_chunk: &mut [f64],
    ) -> Result<(), MatrixError> {
        if rows.start > rows.end || rows.end > self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: rows.end.max(rows.start),
                what: "row range",
            });
        }
        check_panels(rows.len(), self.cols, k, x_panel.len(), y_chunk.len())?;
        if k == 0 || rows.is_empty() {
            return Ok(());
        }
        for shard in &self.shards {
            let lo = shard.row_offset;
            let hi = lo + shard.model.rows();
            let begin = rows.start.max(lo);
            let end = rows.end.min(hi);
            if begin >= end {
                continue;
            }
            let out = &mut y_chunk[(begin - rows.start) * k..(end - rows.start) * k];
            shard.right_rows((begin - lo)..(end - lo), 1, k, x_panel, out)?;
        }
        Ok(())
    }

    /// Batched left product `X = Mᵗ·Y` over row-major panel slices:
    /// shards fill their persistent partial panels concurrently, then the
    /// partials are reduced into `x_panel` (§4.1's reduction, lifted to
    /// the shard level).
    ///
    /// # Errors
    /// Fails if either panel length is inconsistent with `k`.
    pub fn left_multiply_panel(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
    ) -> Result<(), MatrixError> {
        check_panels(self.rows, self.cols, k, x_panel.len(), y_panel.len())?;
        if k == 0 {
            return Ok(());
        }
        if let [shard] = self.shards.as_slice() {
            return shard.left(k, y_panel, x_panel);
        }
        // Hold the gate across fill + reduce: see `left_gate`. The
        // shards write no rows of a shared output, only their partials.
        let _gate = self.left_gate.lock().expect("left gate poisoned");
        self.for_each_shard(&mut [], 0, |shard, _| {
            let mut partial = shard.partial.lock().expect("shard partial poisoned");
            partial.resize(self.cols * k, 0.0);
            let off = shard.row_offset * k;
            shard.left(k, &y_panel[off..off + shard.model.rows() * k], &mut partial)
        });
        x_panel.fill(0.0);
        for shard in &self.shards {
            let partial = shard.partial.lock().expect("shard partial poisoned");
            for (acc, &p) in x_panel.iter_mut().zip(partial.iter()) {
                *acc += p;
            }
        }
        Ok(())
    }

    /// Batched right product into a preallocated dense panel.
    ///
    /// # Errors
    /// Fails on shape mismatches.
    pub fn right_multiply_batch(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        check_right_batch(self.rows, self.cols, b, out)?;
        self.right_multiply_panel(b.cols(), b.as_slice(), out.as_mut_slice())
    }

    /// Batched left product into a preallocated dense panel.
    ///
    /// # Errors
    /// Fails on shape mismatches.
    pub fn left_multiply_batch(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        check_left_batch(self.rows, self.cols, b, out)?;
        self.left_multiply_panel(b.cols(), b.as_slice(), out.as_mut_slice())
    }
}

impl MatVec for ShardedModel {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// The workspace argument is unused: shards own their serving state.
    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.right_multiply_panel(1, x, y)
    }

    /// The workspace argument is unused: shards own their serving state.
    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.left_multiply_panel(1, y, x)
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.right_multiply_batch(b, out)
    }

    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        _ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        self.left_multiply_batch(b, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * 5 + c * 2) % 3 != 0 {
                    m.set(r, c, (((r + c) % 7) + 1) as f64 * 0.25);
                }
            }
        }
        m
    }

    #[test]
    fn sharded_matches_dense_for_every_backend_and_shard_count() {
        let dense = sample(83, 9);
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..83).map(|i| ((i % 6) as f64) - 2.5).collect();
        let mut y_ref = vec![0.0; 83];
        let mut x_ref = vec![0.0; 9];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        for backend in Backend::ALL {
            for shards in [1usize, 2, 3, 7] {
                let opts = BuildOptions {
                    backend,
                    shards,
                    ..BuildOptions::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                assert_eq!(model.num_shards(), shards);
                assert_eq!(model.rows(), 83);
                let mut y = vec![0.0; 83];
                model.right_multiply_panel(1, &x, &mut y).unwrap();
                for (a, b) in y.iter().zip(&y_ref) {
                    assert!((a - b).abs() < 1e-9, "{} s={shards} right", backend.name());
                }
                let mut xo = vec![0.0; 9];
                model.left_multiply_panel(1, &yv, &mut xo).unwrap();
                for (a, b) in xo.iter().zip(&x_ref) {
                    assert!((a - b).abs() < 1e-9, "{} s={shards} left", backend.name());
                }
            }
        }
    }

    #[test]
    fn sharded_batch_equals_independent_columns() {
        let dense = sample(40, 7);
        let opts = BuildOptions {
            shards: 3,
            ..BuildOptions::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        model.prewarm(4);
        let k = 4;
        let mut b = DenseMatrix::zeros(7, k);
        for i in 0..7 {
            for j in 0..k {
                b.set(i, j, (i * k + j) as f64 * 0.25 - 1.5);
            }
        }
        let mut out = DenseMatrix::zeros(40, k);
        model.right_multiply_batch(&b, &mut out).unwrap();
        for j in 0..k {
            let x: Vec<f64> = (0..7).map(|i| b.get(i, j)).collect();
            let mut y = vec![0.0; 40];
            model.right_multiply_panel(1, &x, &mut y).unwrap();
            for (i, &yi) in y.iter().enumerate() {
                assert!((out.get(i, j) - yi).abs() < 1e-9, "col {j}");
            }
        }

        let mut by = DenseMatrix::zeros(40, k);
        for i in 0..40 {
            for j in 0..k {
                by.set(i, j, ((i + 3 * j) % 5) as f64 - 2.0);
            }
        }
        let mut outl = DenseMatrix::zeros(7, k);
        model.left_multiply_batch(&by, &mut outl).unwrap();
        for j in 0..k {
            let y: Vec<f64> = (0..40).map(|i| by.get(i, j)).collect();
            let mut xo = vec![0.0; 7];
            model.left_multiply_panel(1, &y, &mut xo).unwrap();
            for (i, &xi) in xo.iter().enumerate() {
                assert!((outl.get(i, j) - xi).abs() < 1e-9, "col {j}");
            }
        }
    }

    #[test]
    fn reorder_is_recorded_and_preserves_products() {
        let dense = sample(24, 8);
        let opts = BuildOptions {
            shards: 2,
            reorder: Some(ReorderMode::Global(ReorderAlgorithm::PathCover)),
            ..BuildOptions::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        let order = model.col_order().expect("order recorded");
        let mut seen = [false; 8];
        for &c in order {
            assert!(!seen[c as usize]);
            seen[c as usize] = true;
        }
        assert_eq!(model.shard_reorder(0), Some(ReorderAlgorithm::PathCover));
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        let mut y_ref = vec![0.0; 24];
        let mut y = vec![0.0; 24];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        model.right_multiply_panel(1, &x, &mut y).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn per_shard_reorder_gives_each_shard_its_own_permutation() {
        // Rows 0..12 correlate columns (0,4); rows 12..24 correlate
        // (1,5): a per-shard reorder should be free to disagree.
        let mut dense = DenseMatrix::zeros(24, 8);
        for r in 0..24 {
            let v = ((r * 5 % 7) + 1) as f64;
            let w = ((r * 3 % 9) + 30) as f64;
            if r < 12 {
                dense.set(r, 0, v);
                dense.set(r, 4, v);
                dense.set(r, 2, w);
            } else {
                dense.set(r, 1, v);
                dense.set(r, 5, v);
                dense.set(r, 3, w);
            }
        }
        let opts = BuildOptions {
            shards: 2,
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildOptions::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        assert_eq!(model.num_shards(), 2);
        for i in 0..2 {
            let order = model.shard_col_order(i).expect("per-shard order");
            let mut seen = [false; 8];
            for &c in order {
                assert!(!seen[c as usize]);
                seen[c as usize] = true;
            }
            assert_eq!(model.shard_reorder(i), Some(ReorderAlgorithm::PathCover));
        }
        // Products still match the oracle regardless of the orders.
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 - 2.0).collect();
        let mut y_ref = vec![0.0; 24];
        let mut y = vec![0.0; 24];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        model.right_multiply_panel(1, &x, &mut y).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn planned_serving_matches_streaming_for_every_backend() {
        let dense = sample(83, 9);
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..83).map(|i| ((i % 6) as f64) - 2.5).collect();
        let k = 4usize;
        let x_panel: Vec<f64> = (0..9 * k).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
        let y_in: Vec<f64> = (0..83 * k).map(|i| ((i * 3) % 5) as f64 - 2.0).collect();
        for backend in Backend::ALL {
            for shards in [1usize, 3] {
                let opts = BuildOptions {
                    backend,
                    shards,
                    ..BuildOptions::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                // Streaming products first…
                let mut y_stream = vec![0.0; 83];
                let mut x_stream = vec![0.0; 9];
                let mut yp_stream = vec![0.0; 83 * k];
                let mut xp_stream = vec![0.0; 9 * k];
                model.right_multiply_panel(1, &x, &mut y_stream).unwrap();
                model.left_multiply_panel(1, &yv, &mut x_stream).unwrap();
                model
                    .right_multiply_panel(k, &x_panel, &mut yp_stream)
                    .unwrap();
                model.left_multiply_panel(k, &y_in, &mut xp_stream).unwrap();
                // …then flip the same model to planned dispatch.
                model.prewarm_with(k, &ServeOptions::planned());
                let grammar = backend == Backend::Compressed;
                assert_eq!(model.is_planned(), grammar, "{}", backend.name());
                assert_eq!(model.plan_heap_bytes() > 0, grammar, "{}", backend.name());
                let mut y_plan = vec![0.0; 83];
                let mut x_plan = vec![0.0; 9];
                let mut yp_plan = vec![0.0; 83 * k];
                let mut xp_plan = vec![0.0; 9 * k];
                model.right_multiply_panel(1, &x, &mut y_plan).unwrap();
                model.left_multiply_panel(1, &yv, &mut x_plan).unwrap();
                model
                    .right_multiply_panel(k, &x_panel, &mut yp_plan)
                    .unwrap();
                model.left_multiply_panel(k, &y_in, &mut xp_plan).unwrap();
                // Planned and streaming kernels are bit-exact.
                assert_eq!(y_stream, y_plan, "{} s={shards} right", backend.name());
                assert_eq!(x_stream, x_plan, "{} s={shards} left", backend.name());
                assert_eq!(yp_stream, yp_plan, "{} s={shards} right k", backend.name());
                assert_eq!(xp_stream, xp_plan, "{} s={shards} left k", backend.name());
            }
        }
    }

    #[test]
    fn f32_planned_serving_tracks_streaming_for_every_backend() {
        let dense = sample(83, 9);
        let k = 4usize;
        let x_panel: Vec<f64> = (0..9 * k).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
        let y_in: Vec<f64> = (0..83 * k).map(|i| ((i * 3) % 5) as f64 - 2.0).collect();
        for backend in Backend::ALL {
            for shards in [1usize, 3] {
                let opts = BuildOptions {
                    backend,
                    shards,
                    ..BuildOptions::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                let mut yp_stream = vec![0.0; 83 * k];
                let mut xp_stream = vec![0.0; 9 * k];
                model
                    .right_multiply_panel(k, &x_panel, &mut yp_stream)
                    .unwrap();
                model.left_multiply_panel(k, &y_in, &mut xp_stream).unwrap();
                model.prewarm_with(k, &ServeOptions::planned_f32());
                let grammar = backend == Backend::Compressed;
                assert_eq!(model.is_planned(), grammar, "{}", backend.name());
                assert_eq!(model.is_planned_f32(), grammar, "{}", backend.name());
                let mut yp_plan = vec![0.0; 83 * k];
                let mut xp_plan = vec![0.0; 9 * k];
                model
                    .right_multiply_panel(k, &x_panel, &mut yp_plan)
                    .unwrap();
                model.left_multiply_panel(k, &y_in, &mut xp_plan).unwrap();
                // f32 accumulation: match within single-precision slack.
                for (a, b) in yp_plan.iter().zip(&yp_stream) {
                    assert!(
                        (a - b).abs() < 1e-3,
                        "{} s={shards} right k",
                        backend.name()
                    );
                }
                for (a, b) in xp_plan.iter().zip(&xp_stream) {
                    assert!((a - b).abs() < 1e-3, "{} s={shards} left k", backend.name());
                }
            }
        }
    }

    #[test]
    fn plan_prewarm_is_idempotent_and_sticky() {
        let dense = sample(30, 6);
        let model = ShardedModel::from_dense(
            &dense,
            &BuildOptions {
                shards: 2,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        assert!(!model.is_planned());
        assert_eq!(model.plan_heap_bytes(), 0);
        model.prewarm_with(2, &ServeOptions::planned());
        let bytes = model.plan_heap_bytes();
        assert!(bytes > 0);
        // A later default prewarm neither drops nor rebuilds the plans.
        model.prewarm(2);
        assert!(model.is_planned());
        assert_eq!(model.plan_heap_bytes(), bytes);
        let mut y = vec![0.0; 30];
        let mut y_ref = vec![0.0; 30];
        model.right_multiply_panel(1, &[1.0; 6], &mut y).unwrap();
        dense.right_multiply(&[1.0; 6], &mut y_ref).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// A planned shard warms exactly what planned dispatch draws: one
    /// plan scratch buffer of `scratch_len(k)` doubles, grown to full
    /// length — never the streaming budget it would not take.
    #[test]
    fn planned_prewarm_warms_exactly_one_plan_scratch_buffer() {
        let dense = sample(30, 6);
        for serve in [ServeOptions::planned(), ServeOptions::planned_f32()] {
            let model = ShardedModel::from_dense(
                &dense,
                &BuildOptions {
                    shards: 2,
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            let k = 4;
            model.prewarm_with(k, &serve);
            for shard in &model.shards {
                let scratch = shard.plan().expect("planned").kernel.scratch_len(k);
                let ws = shard.ws.lock().unwrap();
                assert_eq!(ws.retained_buffers(), 1);
                assert_eq!(ws.retained_bytes(), scratch * 8);
            }
        }
    }

    /// An unplanned shard warms only as many buffers as its kernels hold
    /// at once: two for a `compressed` shard, one for a `csrv` shard.
    #[test]
    fn unplanned_prewarm_warms_at_most_two_buffers() {
        let dense = sample(30, 6);
        for (backend, want) in [(Backend::Compressed, 2), (Backend::Csrv, 1)] {
            let model = ShardedModel::from_dense(
                &dense,
                &BuildOptions {
                    backend,
                    encoding: Encoding::ReIv,
                    shards: 3,
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            model.prewarm(4);
            for shard in &model.shards {
                let ws = shard.ws.lock().unwrap();
                assert_eq!(ws.retained_buffers(), want, "{}", backend.name());
            }
        }
    }

    #[test]
    fn more_shards_than_rows_clamps() {
        let dense = sample(3, 4);
        let opts = BuildOptions {
            shards: 9,
            ..BuildOptions::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        assert_eq!(model.num_shards(), 3);
        let mut y = vec![0.0; 3];
        model.right_multiply_panel(1, &[1.0; 4], &mut y).unwrap();
        let mut y_ref = vec![0.0; 3];
        dense.right_multiply(&[1.0; 4], &mut y_ref).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dimension_checks() {
        let dense = sample(10, 4);
        let model = ShardedModel::from_dense(
            &dense,
            &BuildOptions {
                shards: 2,
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let mut y = vec![0.0; 10];
        assert!(model.right_multiply_panel(1, &[0.0; 3], &mut y).is_err());
        let mut x = vec![0.0; 4];
        assert!(model.left_multiply_panel(1, &[0.0; 9], &mut x).is_err());
    }

    #[test]
    fn empty_matrix_serves_zeroes() {
        let dense = DenseMatrix::zeros(6, 3);
        for backend in Backend::ALL {
            let model = ShardedModel::from_dense(
                &dense,
                &BuildOptions {
                    backend,
                    shards: 2,
                    ..BuildOptions::default()
                },
            )
            .unwrap();
            let mut y = vec![1.0; 6];
            model.right_multiply_panel(1, &[1.0; 3], &mut y).unwrap();
            assert_eq!(y, vec![0.0; 6], "{}", backend.name());
        }
    }
}
