//! Grammar-compressed matrices with compressed-domain matrix-vector
//! multiplication — the paper's primary contribution (§3–§4).
//!
//! A [`CompressedMatrix`] is the triple `(C, R, V)`: the RePair-compressed
//! CSRV stream (`C` = final string, `R` = rule set) plus the shared value
//! dictionary `V`. Three physical encodings mirror the paper's variants:
//!
//! * **re_32** ([`Encoding::Re32`]) — `C` and `R` as raw 32-bit arrays;
//!   fastest, least compact;
//! * **re_iv** ([`Encoding::ReIv`]) — both packed at `1 + ⌊log₂ N_max⌋`
//!   bits per symbol (sdsl-style `int_vector`);
//! * **re_ans** ([`Encoding::ReAns`]) — `R` packed, `C` entropy-coded with
//!   the folded rANS coder (forward streaming decode).
//!
//! Right multiplication (Thm 3.4) runs one forward pass over `R` then one
//! over `C`; left multiplication (Thm 3.10) one forward pass over `C` then
//! one *backward* pass over `R` — which is why `R` is never entropy-coded:
//! the paper keeps it in a packed array precisely because "only a few
//! compressors provide fast right-to-left access".
//!
//! The paper's §4.1 row-block scheme — split the rows into blocks,
//! multiply them concurrently, sum the left product's partial vectors —
//! lives one layer up, in `gcm-serve`'s `ShardedModel`: every row shard
//! is one [`CompressedMatrix`] (or CSRV matrix), multiplied on the
//! persistent pool of the vendored `rayon` stand-in.
//!
//! The streaming kernels ([`mvm`]) are the memory-lean reference path;
//! [`plan`] compiles a matrix into a [`KernelPlan`] of branchless,
//! division-free operand descriptors with a CSR row index over `C` —
//! once per load — for serving loops that trade `O(|C| + |R|)` words of
//! plan memory for a several-fold smaller per-multiply constant
//! (differentially pinned bit-exact in `tests/plan_vs_streaming.rs`).
//!
//! Every matrix multiplies through one panel entry per direction,
//! [`gcm_matrix::MatVec`]'s `right_multiply_panel_into` /
//! `left_multiply_panel_into`, which draw the `w` rule array and batch
//! panels from a caller-owned [`gcm_matrix::Workspace`] (zero
//! steady-state allocation). [`CompressedMatrix`] picks its kernel by
//! width there: `k = 1` runs the single-vector kernels of Thms 3.4 and
//! 3.10 ([`mvm::right_multiply`] / [`mvm::left_multiply`]), and wider
//! panels traverse `(C, R)` **once per batch** of `k` vectors
//! ([`mvm::right_multiply_batch`] / [`mvm::left_multiply_batch`])
//! instead of once per column — the amortisation that makes compressed
//! serving loops fast.

pub mod compressed;
pub mod encoding;
pub mod fastdiv;
pub mod iteration;
pub mod mvm;
pub mod plan;
pub mod serial;

pub use compressed::CompressedMatrix;
pub use encoding::Encoding;
pub use fastdiv::FastDiv;
pub use iteration::{
    conjugate_gradient_into, inf_norm, pagerank_into, power_iterations, power_iterations_into,
    IterationStats, SolveStats, SolverWorkspace,
};
pub use plan::{
    plan_compiles, validate_sparse_x, KernelPlan, SparseStrategy, SPARSE_DENSITY_THRESHOLD,
};
