//! Matrix representations for grammar-compressed linear algebra.
//!
//! Implements §2 of the paper:
//!
//! * [`DenseMatrix`] — the uncompressed row-major baseline (8-byte doubles),
//!   whose size `rows × cols × 8` is the 100% reference in every table;
//! * [`CsrvMatrix`] — the paper's **Compressed Sparse Row/Value** format
//!   `(S, V)`: `V` holds the distinct non-zero values, `S` is the row-major
//!   stream of `⟨value-id, column⟩` pairs with a `$` separator closing each
//!   row. `S` is materialised as `u32` symbols (`$` = 0, pair = `1 + ℓ·m + j`,
//!   §4) — exactly the alphabet later fed to the RePair compressor;
//! * [`RowBlocks`] — the row-block partitioning used by the multi-threaded
//!   algorithms (§4.1), with all blocks sharing one value dictionary
//!   (`gcm-serve`'s `ShardedModel` multiplies them, one pool task per
//!   block).
//!
//! The [`MatVec`] trait is the repo-wide execution layer: its `*_into`
//! methods draw every scratch buffer from a caller-owned [`Workspace`]
//! (zero steady-state allocation) and its `*_multiply_matrix*` methods
//! compute batched multi-vector products `Y = M·X` / `X = Mᵗ·B`.

pub mod block;
pub mod csrv;
pub mod dense;
pub mod dict;
pub mod error;
pub mod io;
pub mod matvec;
pub mod workspace;

pub use block::RowBlocks;
pub use csrv::{CsrvMatrix, SymbolCodec, SEPARATOR};
pub use dense::DenseMatrix;
pub use dict::ValueDict;
pub use error::MatrixError;
pub use matvec::MatVec;
pub use workspace::Workspace;
