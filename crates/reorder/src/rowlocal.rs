//! Row-local pair reordering — the future-work direction the paper opens
//! at the end of §3 ("as for future work, we plan to analyse the general
//! problem in which the elements in each row are reordered independently
//! of all other rows").
//!
//! Because the multiplication kernels never assume any within-row order
//! (every pair carries its own column), each row's pairs may be permuted
//! *independently*. Two simple global heuristics are provided:
//!
//! * [`canonical_row_order`] — sort each row's pairs by symbol id. Rows
//!   sharing subsets of symbols then expose identical subsequences to
//!   RePair regardless of the original column interleaving.
//! * [`frequency_row_order`] — sort each row's pairs by decreasing global
//!   symbol frequency (ties by id). Frequent symbols cluster at row heads,
//!   concentrating repetition where it pays most.
//!
//! Column reordering (§5) is the special case where all rows use one
//! shared permutation; these heuristics explore the unconstrained space.

use gcm_encodings::fxhash::FxHashMap;
use gcm_matrix::{CsrvMatrix, SEPARATOR};

use std::sync::Arc;

fn rebuild_with<F: FnMut(&mut Vec<u32>)>(matrix: &CsrvMatrix, mut f: F) -> CsrvMatrix {
    let mut symbols = Vec::with_capacity(matrix.symbols().len());
    let mut row: Vec<u32> = Vec::new();
    for &s in matrix.symbols() {
        if s == SEPARATOR {
            f(&mut row);
            symbols.extend_from_slice(&row);
            row.clear();
            symbols.push(SEPARATOR);
        } else {
            row.push(s);
        }
    }
    CsrvMatrix::from_parts(
        matrix.rows(),
        matrix.cols(),
        Arc::new(matrix.values().to_vec()),
        symbols,
    )
}

/// Sorts every row's pairs by symbol id.
pub fn canonical_row_order(matrix: &CsrvMatrix) -> CsrvMatrix {
    rebuild_with(matrix, |row| row.sort_unstable())
}

/// Sorts every row's pairs by decreasing global symbol frequency.
pub fn frequency_row_order(matrix: &CsrvMatrix) -> CsrvMatrix {
    let mut freq: FxHashMap<u32, u32> = FxHashMap::default();
    for &s in matrix.symbols() {
        if s != SEPARATOR {
            *freq.entry(s).or_insert(0) += 1;
        }
    }
    rebuild_with(matrix, |row| {
        row.sort_unstable_by_key(|s| (std::cmp::Reverse(freq[s]), *s));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::{DenseMatrix, MatVec};

    fn sample() -> CsrvMatrix {
        let mut m = DenseMatrix::zeros(30, 6);
        for r in 0..30 {
            // The same three values land in different columns per row, so
            // column order hides the repetition but row-local order can
            // expose it.
            let rot = r % 3;
            m.set(r, rot, 1.5);
            m.set(r, (rot + 2) % 6, 2.5);
            m.set(r, (rot + 4) % 6, 3.5);
        }
        CsrvMatrix::from_dense(&m).unwrap()
    }

    #[test]
    fn reordering_preserves_matrix() {
        let csrv = sample();
        for reordered in [canonical_row_order(&csrv), frequency_row_order(&csrv)] {
            assert_eq!(reordered.to_dense(), csrv.to_dense());
            assert_eq!(reordered.nnz(), csrv.nnz());
        }
    }

    #[test]
    fn reordering_preserves_multiplication() {
        let csrv = sample();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.0).collect();
        let mut y_ref = vec![0.0; 30];
        csrv.right_multiply(&x, &mut y_ref).unwrap();
        for reordered in [canonical_row_order(&csrv), frequency_row_order(&csrv)] {
            let mut y = vec![0.0; 30];
            reordered.right_multiply(&x, &mut y).unwrap();
            assert_eq!(y, y_ref);
        }
    }

    #[test]
    fn canonical_rows_are_sorted() {
        let csrv = canonical_row_order(&sample());
        for row in csrv.row_slices() {
            assert!(row.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn frequency_order_puts_common_symbols_first() {
        // One symbol dominates: it must lead every row containing it.
        let mut m = DenseMatrix::zeros(20, 4);
        for r in 0..20 {
            m.set(r, (r % 3) + 1, 7.0); // frequent value, varying column
            if r % 4 == 0 {
                m.set(r, 0, (r + 10) as f64); // rare values
            }
        }
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let freq_ordered = frequency_row_order(&csrv);
        let codec = csrv.codec();
        for row in freq_ordered.row_slices() {
            if row.len() == 2 {
                // The frequent 7.0-symbol must come before the rare one.
                let (l, _) = codec.decode(row[0]);
                assert_eq!(csrv.values()[l as usize], 7.0, "row {row:?}");
            }
        }
    }

    #[test]
    fn empty_and_single_rows() {
        let m = DenseMatrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 0.0]]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let out = canonical_row_order(&csrv);
        assert_eq!(out.to_dense(), m);
    }
}
