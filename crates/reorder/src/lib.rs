//! Column reordering for grammar compression (§5 of the paper).
//!
//! Grammar compression replaces pairs of *adjacent* symbols, so correlated
//! columns help only when they sit next to each other. This crate provides:
//!
//! * [`Csm`] — the column-column similarity matrix: `CSM[i][j] = RPNZ_ij/n`,
//!   where `RPNZ_ij` counts repeated non-zero value pairs between columns
//!   `i` and `j` across rows (§5.1), plus the locally- and globally-pruned
//!   sparse variants;
//! * four reordering algorithms (§5.2): an **LKH-style TSP heuristic**
//!   ([`tsp`]), **PathCover** ([`pathcover`]), **PathCover+**
//!   ([`pathcover`]), and **maximum-weight matching** ([`mwm`], exact
//!   Hungarian algorithm);
//! * a [`driver`] that applies any of them to a whole matrix or per row
//!   block (§5.3), returning the column order to feed into
//!   [`gcm_matrix::CsrvMatrix::with_column_order`].
//!
//! Reordering never changes multiplication results: CSRV pairs keep their
//! original column indices; only their order inside each row changes.

pub mod csm;
pub mod driver;
pub mod mwm;
pub mod pathcover;
pub mod rowlocal;
pub mod tsp;

pub use csm::{Csm, CsmConfig, SimilarityGraph};
pub use driver::{reorder_blocks, reorder_columns, BlockReorderConfig, ReorderAlgorithm};
pub use rowlocal::{canonical_row_order, frequency_row_order};
