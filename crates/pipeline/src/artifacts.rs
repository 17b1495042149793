//! What a pipeline build produces: per-shard [`Model`]s, each with its
//! [`ShardMeta`] provenance record, and per-stage statistics.

use std::time::Duration;

use gcm_core::Encoding;
use gcm_reorder::ReorderAlgorithm;

use crate::backend::Backend;
use crate::config::GrammarStage;
use crate::model::Model;

/// One shard's provenance: everything the container records next to
/// the shard's matrix. The record travels unchanged from the build
/// through the container to the serving shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMeta {
    /// Column permutation applied before compression
    /// (`order[p]` = original column at new position `p`), if any.
    /// Per shard: shards of one model may carry different orders.
    pub col_order: Option<Vec<u32>>,
    /// Algorithm that produced `col_order`, if recorded.
    pub reorder: Option<ReorderAlgorithm>,
    /// Grammar stage that compressed this shard (`None` for the
    /// uncompressed backend and for shards of containers that predate
    /// the record).
    pub grammar: Option<GrammarStage>,
    /// The shard plan's [`fingerprint`](crate::ShardPlan::fingerprint),
    /// recorded for every compressed shard so incremental rebuilds can
    /// detect shards whose bytes would not change.
    pub fingerprint: Option<u64>,
}

/// One built shard: its servable [`Model`] and its provenance.
#[derive(Debug, Clone)]
pub struct BuiltShard {
    /// The shard's matrix, in its backend's representation.
    pub model: Model,
    /// How the shard was built.
    pub meta: ShardMeta,
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
    /// Representation bytes of the built shard.
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
        self.shards.iter().map(|s| s.model.rows()).sum()
    }

    /// Total representation bytes across shards.
    pub fn stored_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.model.stored_bytes()).sum()
    }
}
