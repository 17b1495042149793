//! Build configuration: what the planner turns into a [`crate::Plan`].

use gcm_core::Encoding;
use gcm_reorder::ReorderAlgorithm;

use crate::backend::Backend;

/// Scope of the §5 column reordering applied before compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderMode {
    /// One permutation computed from the whole matrix, applied to every
    /// shard (the pre-pipeline behaviour; best when shards share column
    /// correlations).
    Global(ReorderAlgorithm),
    /// Each shard computes and applies its **own** permutation (§5.3's
    /// per-block reordering, Table 4) — legal because CSRV pairs keep
    /// their original column indices, and profitable when different row
    /// ranges correlate different columns.
    PerShard(ReorderAlgorithm),
}

impl ReorderMode {
    /// The algorithm, regardless of scope.
    pub fn algorithm(&self) -> ReorderAlgorithm {
        match self {
            ReorderMode::Global(a) | ReorderMode::PerShard(a) => *a,
        }
    }
}

/// How the physical encoding of compressed shards is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingChoice {
    /// Use this encoding for every shard.
    Fixed(Encoding),
    /// Per shard, build every encoding from the single RePair grammar
    /// and keep the one with the smallest **measured** stored size
    /// (ties break in [`Encoding::ALL`] order). Shards may end up with
    /// different encodings; the container stores one tag per shard.
    Auto,
}

impl EncodingChoice {
    /// CLI / display name.
    pub fn name(&self) -> String {
        match self {
            EncodingChoice::Fixed(e) => e.name().to_string(),
            EncodingChoice::Auto => "auto".to_string(),
        }
    }
}

/// The grammar construction stage that actually compressed a shard.
///
/// Recorded per shard (a build under [`GrammarChoice::Auto`] may pick
/// different stages for different shards) and persisted in the
/// container shard table (version 5 and later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarStage {
    /// Classic pair replacement ([`gcm_repair::RePair::compress`]).
    RePair,
    /// MR-RePair: each replaced pair greedily consumes its maximal
    /// repeat into one variable-arity rule
    /// ([`gcm_repair::RePair::compress_mr`], Furuya et al. 2019).
    MrRePair,
}

impl GrammarStage {
    /// CLI / display / container-tag name.
    pub fn name(&self) -> &'static str {
        match self {
            GrammarStage::RePair => "repair",
            GrammarStage::MrRePair => "mr-repair",
        }
    }
}

/// How the grammar stage is chosen for each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarChoice {
    /// Classic RePair for every shard.
    RePair,
    /// MR-RePair for every shard.
    MrRePair,
    /// Per shard, build **both** grammars, encode both under the
    /// shard's encoding policy, and keep the one with the smaller
    /// **measured** stored size (ties break to RePair). Mirrors
    /// [`EncodingChoice::Auto`]: the decision is per shard and the
    /// container records one stage tag per shard.
    Auto,
}

impl GrammarChoice {
    /// CLI / display name.
    pub fn name(&self) -> &'static str {
        match self {
            GrammarChoice::RePair => "repair",
            GrammarChoice::MrRePair => "mr-repair",
            GrammarChoice::Auto => "auto",
        }
    }
}

/// Full configuration of one pipeline build.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Representation of every shard.
    pub backend: Backend,
    /// Encoding policy for compressed backends.
    pub encoding: EncodingChoice,
    /// Grammar-stage policy for compressed backends; `None` means
    /// [`GrammarChoice::RePair`]. Every compressed shard records its
    /// chosen stage and its plan fingerprint either way. The `Option`
    /// stays only because the repository benchmark's workload table
    /// (`perfbench/src/workload.rs`) writes `Some(..)` in a struct
    /// literal; make it a plain `GrammarChoice` together with that
    /// literal, as with [`blocks`](Self::blocks).
    pub grammar: Option<GrammarChoice>,
    /// Number of row shards (clamped to `1..=rows`).
    pub shards: usize,
    /// Ignored: the pipeline no longer reads it, since row shards are
    /// the only row partition. Kept only because the repository
    /// benchmark's workload table (`perfbench/src/workload.rs`) still
    /// names it in a struct literal; delete it together with that
    /// literal's `blocks: 1`.
    pub blocks: usize,
    /// Optional column reordering (§5) applied before compression.
    pub reorder: Option<ReorderMode>,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Compressed,
            encoding: EncodingChoice::Fixed(Encoding::ReAns),
            grammar: None,
            shards: 1,
            blocks: 1,
            reorder: None,
        }
    }
}
