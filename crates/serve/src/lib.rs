//! # gcm-serve — sharded model store and serving layer
//!
//! The paper motivates grammar-compressed matrices by storage and
//! server-to-client transmission costs; this crate is the serving side
//! of that story. It turns either in-memory backend — CSRV or
//! grammar-compressed `(C, R, V)` — into a **persistent, sharded,
//! restart-amortised model**:
//!
//! * [`Model`] (defined in `gcm-pipeline`, which builds it) wraps the
//!   two backends behind one enum with uniform panel-slice kernels and
//!   workspace budgets; a build hands each shard over as a
//!   [`BuiltShard`] — its `Model` plus its [`ShardMeta`] provenance —
//!   and that one record is what the container writes and the serving
//!   shard keeps;
//! * [`ShardedModel`] splits a matrix row-wise across N shards (the
//!   only row partition) and serves single-vector and batched products
//!   across them on the persistent thread pool, with per-shard
//!   [`gcm_matrix::Workspace`] reuse — zero steady-state allocation for
//!   either backend, from the first
//!   post-[`prewarm`](ShardedModel::prewarm) request on;
//! * the `GCMSERV1` [`container`] persists all of it (shard structure,
//!   reorder permutations, FNV-64 integrity checksum) with fully
//!   validating, panic-free loading, plus mmap-style selective shard
//!   decoding via [`ShardTable`];
//! * compiled execution plans ([`gcm_core::plan`]) are first-class at
//!   serve time: [`ServeOptions::planned`] makes
//!   [`prewarm`](ShardedModel::prewarm_with) compile every shard into
//!   branchless, division-free descriptors on the pool (opt-in —
//!   [`ShardedModel::plan_heap_bytes`] reports the memory price), and
//!   single-shard planned models parallelise right products across
//!   **row ranges** via the plan's CSR row index;
//! * [`ModelStore`] / [`Registry`] give containers names: a directory
//!   of `.gcms` files behind a load-once, prewarm, serve-many cache;
//! * the `gcm` binary (`src/bin/gcm.rs`) drives the whole pipeline from
//!   the command line: `compress`, `inspect`, `decompress`, `multiply`,
//!   `selftest`.
//!
//! Compression is paid once, at `compress`/`publish` time; every later
//! process start pays only a validated load. That seam — build
//! artefacts on one side, serving state on the other — is where async
//! front-ends, result caching, and multi-tenant placement plug in
//! (see `ROADMAP.md`).

pub mod container;
pub mod incremental;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod sharded;

pub use container::{ServeError, ShardTable};
pub use incremental::{compress_incremental, RebuildReport, ShardProvenance};
pub use registry::{ModelStore, Registry};
pub use server::{Engine, Server, ServerConfig, ServerHandle};
pub use sharded::{ServeOptions, ShardedModel};

/// Re-exported pipeline vocabulary: building goes through the staged
/// `gcm-pipeline` (serve is its consumer), which defines the servable
/// [`Model`] and its [`ModelPlan`], and these types appear in
/// [`ShardedModel`]'s build and provenance API.
pub use gcm_pipeline::{
    Backend, BuildArtifacts, BuildConfig, BuiltShard, EncodingChoice, GrammarChoice, GrammarStage,
    Model, ModelPlan, Pipeline, ReorderMode, ShardMeta,
};
