//! # mm-repair — grammar-compressed matrices for linear algebra
//!
//! A from-scratch Rust implementation of *"Improving Matrix-vector
//! Multiplication via Lossless Grammar-Compressed Matrices"* (Ferragina,
//! Gagie, Köppl, Manzini, Navarro, Striani, Tosoni — VLDB 2022).
//!
//! The headline idea: store a sparse matrix in the CSRV format (distinct
//! values `V` + a stream `S` of `⟨value, column⟩` pairs), compress `S` with
//! the RePair grammar compressor, and run *both* matrix-vector products
//! directly on the compressed form — in time and working space proportional
//! to the **compressed** size, with compression bounded by the k-th order
//! empirical entropy of `S`.
//!
//! ## Quick start
//!
//! ```
//! use mm_repair::prelude::*;
//!
//! // Any dense matrix…
//! let dense = DenseMatrix::from_rows(&[
//!     &[1.2, 3.4, 5.6, 0.0, 2.3],
//!     &[2.3, 0.0, 2.3, 4.5, 1.7],
//!     &[1.2, 3.4, 2.3, 4.5, 0.0],
//! ]);
//! // …becomes a CSRV matrix…
//! let csrv = CsrvMatrix::from_dense(&dense).unwrap();
//! // …and a grammar-compressed one (re_ans = smallest encoding).
//! let compressed = CompressedMatrix::compress(&csrv, Encoding::ReAns);
//!
//! // Multiply straight on the compressed form.
//! let x = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let mut y = vec![0.0; 3];
//! compressed.right_multiply(&x, &mut y).unwrap();
//!
//! let mut y_ref = vec![0.0; 3];
//! dense.right_multiply(&x, &mut y_ref).unwrap();
//! for (a, b) in y.iter().zip(&y_ref) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`matrix`] (`gcm-matrix`) | dense / CSR / CSRV formats, row blocks |
//! | [`repair`] (`gcm-repair`) | the RePair grammar compressor |
//! | [`core`] (`gcm-core`) | `(C,R,V)` matrices, MVM kernels, threading |
//! | [`encodings`] (`gcm-encodings`) | bit-packing, Huffman, rANS, range coder |
//! | [`reorder`] (`gcm-reorder`) | CSM + LKH/PathCover/PathCover+/MWM |
//! | [`baselines`] (`gcm-baselines`) | gzip-like, xz-like, CLA |
//! | [`datagen`] (`gcm-datagen`) | the seven synthetic evaluation matrices |
//! | [`pipeline`] (`gcm-pipeline`) | staged build/load pipeline on the persistent pool |
//! | [`serve`] (`gcm-serve`) | sharded model store + serving registry + `gcm` CLI |
//!
//! `README.md` walks through every crate and the `gcm` command line;
//! `PAPER.md` holds the source paper's abstract. The `gcm-bench` binaries
//! (`table1` … `fig4`, `ablation`) regenerate the paper's tables and
//! figures.

pub use gcm_baselines as baselines;
pub use gcm_core as core;
pub use gcm_datagen as datagen;
pub use gcm_encodings as encodings;
pub use gcm_matrix as matrix;
pub use gcm_pipeline as pipeline;
pub use gcm_reorder as reorder;
pub use gcm_repair as repair;
pub use gcm_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use gcm_baselines::ClaMatrix;
    pub use gcm_core::{
        conjugate_gradient_into, pagerank_into, power_iterations, power_iterations_into,
        validate_sparse_x, CompressedMatrix, Encoding, FastDiv, IterationStats, KernelPlan,
        SolveStats, SolverWorkspace, SparseStrategy,
    };
    pub use gcm_datagen::Dataset;
    pub use gcm_encodings::HeapSize;
    pub use gcm_matrix::{
        CsrMatrix, CsrvMatrix, DenseMatrix, MatVec, MatrixError, RowBlocks, Workspace,
    };
    pub use gcm_pipeline::{
        Backend, BuildArtifacts, BuildConfig, BuiltShard, EncodingChoice, GrammarChoice,
        GrammarStage, Model, ModelPlan, Pipeline, ReorderMode, ShardMeta,
    };
    pub use gcm_reorder::{
        canonical_row_order, frequency_row_order, reorder_blocks, reorder_columns, Csm, CsmConfig,
        ReorderAlgorithm,
    };
    pub use gcm_repair::{RePair, RePairConfig, RePairScratch, Slp};
    pub use gcm_serve::{
        compress_incremental, Engine, ModelStore, RebuildReport, Registry, ServeError,
        ServeOptions, Server, ServerConfig, ServerHandle, ShardProvenance, ShardedModel,
    };
}
