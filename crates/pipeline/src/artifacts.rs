//! What a pipeline build produces: per-shard artifacts, first-class
//! per-shard column permutations, and per-stage statistics.

use std::time::Duration;

use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::CsrvMatrix;
use gcm_reorder::ReorderAlgorithm;

use crate::backend::Backend;
use crate::config::GrammarStage;

/// FNV-64 fingerprint of a shard's *input* rows (dimensions, symbol
/// stream, and values — everything that determines the built shard for
/// a fixed configuration). Incremental rebuilds compare this against
/// the fingerprint persisted in the container shard table to decide
/// which shards actually changed, so build and comparison must share
/// one definition: this one.
pub fn shard_fingerprint(csrv: &CsrvMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    put(&(csrv.rows() as u64).to_le_bytes());
    put(&(csrv.cols() as u64).to_le_bytes());
    for &s in csrv.symbols() {
        put(&s.to_le_bytes());
    }
    for &v in csrv.values() {
        put(&v.to_bits().to_le_bytes());
    }
    h
}

/// One built shard in its target [`Backend`] representation. The serve
/// layer converts this into its servable `Model` (adding workspaces and
/// kernels); the pipeline itself stays below the serving seam.
#[derive(Debug, Clone)]
pub enum ShardArtifact {
    /// Uncompressed CSRV.
    Csrv(CsrvMatrix),
    /// Grammar-compressed matrix.
    Compressed(CompressedMatrix),
}

impl ShardArtifact {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            ShardArtifact::Csrv(m) => m.rows(),
            ShardArtifact::Compressed(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            ShardArtifact::Csrv(m) => m.cols(),
            ShardArtifact::Compressed(m) => m.cols(),
        }
    }

    /// The backend this artifact realises.
    pub fn backend(&self) -> Backend {
        match self {
            ShardArtifact::Csrv(_) => Backend::Csrv,
            ShardArtifact::Compressed(_) => Backend::Compressed,
        }
    }

    /// Representation size in bytes (the paper's "size" accounting).
    pub fn stored_bytes(&self) -> usize {
        match self {
            ShardArtifact::Csrv(m) => m.csrv_bytes(),
            ShardArtifact::Compressed(m) => m.stored_bytes(),
        }
    }
}

/// One shard's artifact plus its reorder provenance: the permutation the
/// shard was compressed with (first-class per shard — shards of one
/// model may carry different orders) and the algorithm that produced it.
#[derive(Debug, Clone)]
pub struct BuiltShard {
    /// The built representation.
    pub artifact: ShardArtifact,
    /// Column permutation applied before compression
    /// (`order[p]` = original column at new position `p`), if any.
    pub col_order: Option<Vec<u32>>,
    /// Algorithm that produced `col_order`, if any.
    pub reorder: Option<ReorderAlgorithm>,
    /// Grammar stage that compressed this shard (`None` only for the
    /// uncompressed backend).
    pub grammar: Option<GrammarStage>,
    /// [`shard_fingerprint`] of the shard's input rows, recorded for
    /// every compressed shard so incremental rebuilds can detect
    /// unchanged shards.
    pub fingerprint: Option<u64>,
}

/// Per-shard build statistics (sizes and per-stage times).
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (row order).
    pub index: usize,
    /// Rows in the shard.
    pub rows: usize,
    /// Non-zeroes in the shard.
    pub nnz: usize,
    /// Grammar rules of the shard (0 for the uncompressed backend).
    pub grammar_rules: usize,
    /// Representation bytes of the built artifact.
    pub encoded_bytes: usize,
    /// Chosen encoding (None for the uncompressed backend).
    pub encoding: Option<Encoding>,
    /// Chosen grammar stage (None for the uncompressed backend).
    pub grammar: Option<GrammarStage>,
    /// Reorder algorithm applied to this shard, if any.
    pub reorder: Option<ReorderAlgorithm>,
    /// Elapsed time of the shard's reorder step (computing or applying
    /// the column order), measured inside its task.
    ///
    /// This and the other stage times are per-task *elapsed* times, not
    /// CPU times: they include time a task spends descheduled. Tasks
    /// overlap, so their sum exceeds [`BuildStats::wall_time`]; and since
    /// [`par_map`](crate::par_map)'s calling thread runs tasks next to
    /// the pool's workers, up to one more task than there are workers
    /// shares the cores, so the sum can exceed `wall_time × workers`
    /// too.
    pub reorder_time: Duration,
    /// Elapsed time of grammar construction for the shard's candidates,
    /// summed: under [`GrammarChoice::Auto`], the shared rounds once plus
    /// both continuations (which may overlap on two workers).
    ///
    /// [`GrammarChoice::Auto`]: crate::GrammarChoice::Auto
    pub grammar_time: Duration,
    /// Elapsed time of building (and, under `Auto`, measuring)
    /// encodings, summed over the shard's grammar candidates.
    pub encode_time: Duration,
    /// Grammars constructed for this shard: one per grammar candidate
    /// (0 for the uncompressed backend).
    pub grammar_builds: usize,
    /// Rules built once for both [`GrammarChoice::Auto`] candidates —
    /// those before MR-RePair's first extension (0 for every other
    /// policy).
    ///
    /// [`GrammarChoice::Auto`]: crate::GrammarChoice::Auto
    pub shared_rules: usize,
}

/// Whole-build statistics: planning time, end-to-end wall time of the
/// stage execution, and the per-shard breakdown.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Time spent planning (shard split, global-order computation).
    pub plan_time: Duration,
    /// Wall-clock time of the per-shard stage execution.
    pub wall_time: Duration,
    /// Per-shard statistics, in row order.
    pub shards: Vec<ShardStats>,
}

impl BuildStats {
    /// Per-stage task times summed across shards:
    /// `(reorder, grammar, encode)` (elapsed time inside tasks; see
    /// [`ShardStats::reorder_time`]). Under parallel execution the sum
    /// exceeds [`wall_time`](Self::wall_time) — that gap is the
    /// pipeline's overlap, not a CPU-time measurement.
    pub fn stage_cpu_totals(&self) -> (Duration, Duration, Duration) {
        let mut reorder = Duration::ZERO;
        let mut grammar = Duration::ZERO;
        let mut encode = Duration::ZERO;
        for s in &self.shards {
            reorder += s.reorder_time;
            grammar += s.grammar_time;
            encode += s.encode_time;
        }
        (reorder, grammar, encode)
    }
}

/// Everything a build produces, ready for the serve layer.
#[derive(Debug, Clone)]
pub struct BuildArtifacts {
    /// Backend of every shard.
    pub backend: Backend,
    /// Column count (shared by all shards).
    pub cols: usize,
    /// Built shards, in row order.
    pub shards: Vec<BuiltShard>,
    /// Per-stage statistics.
    pub stats: BuildStats,
}

impl BuildArtifacts {
    /// Total rows across shards.
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.artifact.rows()).sum()
    }

    /// Total representation bytes across shards.
    pub fn stored_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.artifact.stored_bytes()).sum()
    }
}
