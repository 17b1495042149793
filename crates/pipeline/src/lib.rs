//! # gcm-pipeline — the staged build/load pipeline
//!
//! The paper's compression wins (§4–§5) are paid at build time: column
//! reordering, RePair grammar construction, and physical encoding all
//! run before a model can serve a single product. This crate turns that
//! build path — previously a sequential routine inside the serve layer —
//! into an explicit staged architecture:
//!
//! 1. **[`Plan`]** — split the matrix into row shards, assign each shard
//!    its reorder algorithm ([`ReorderMode::Global`] computes one
//!    whole-matrix permutation during planning; [`ReorderMode::PerShard`]
//!    defers a per-shard computation to execution), and record the
//!    encoding policy ([`EncodingChoice::Auto`] picks per shard by
//!    *measured* compressed size);
//! 2. **Stage execution** — three phases on the **persistent thread
//!    pool** ([`par_map`] distributes tasks across pool workers without
//!    spawning threads): reorder per shard, then grammar + encode per
//!    shard (under `auto`, both grammar candidates from one shared
//!    construction), then per-shard selection (see [`exec`]). Grammar
//!    construction draws its working storage from a per-worker scratch
//!    arena ([`gcm_repair::RePairScratch`]) so parallel builds don't
//!    thrash the allocator;
//! 3. **[`BuildArtifacts`]** — one [`BuiltShard`] per shard: its
//!    servable [`Model`] (either [`Backend`]) and its [`ShardMeta`]
//!    provenance (column permutation, reorder algorithm, grammar stage,
//!    plan fingerprint), plus per-stage timing/size statistics, ready for
//!    the serve layer to wrap into a `ShardedModel` or persist as a
//!    `GCMSERV1` container. The serve layer keeps each `BuiltShard` as it
//!    is, so one record carries a shard from build to disk to serve.
//!
//! The same [`par_map`] stage machinery drives *loading*: the serve
//! layer's container reader decodes shards concurrently through it, so
//! both ends of the persist seam scale with the pool. Its disjoint-output
//! primitive, [`fan_out_rows`], is also how the serve layer hands each
//! shard its slice of a product's output.
//!
//! Parallel and sequential execution produce **bit-identical** artifacts
//! (every stage is deterministic and shards are independent), which the
//! serve layer's tests pin down at the container-byte level.

pub mod artifacts;
pub mod backend;
pub mod config;
pub mod exec;
pub mod model;
pub mod plan;
pub mod stage;

pub use artifacts::{BuildArtifacts, BuildStats, BuiltShard, ShardMeta, ShardStats};
pub use backend::Backend;
pub use config::{BuildConfig, EncodingChoice, GrammarChoice, GrammarStage, ReorderMode};
pub use exec::{global, Pipeline};
pub use model::{Model, ModelPlan};
pub use plan::{Plan, ShardPlan, ShardReorder};
pub use stage::{fan_out_rows, par_map};
