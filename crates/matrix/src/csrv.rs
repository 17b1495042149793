//! The Compressed Sparse Row/Value (CSRV) representation (§2, §4).
//!
//! `(S, V)`: `V` lists the distinct non-zero values; `S` is the row-major
//! stream of `⟨value-id, column⟩` pairs, closed by a `$` separator after
//! each row (so `|S| = t + n` for `t` non-zeroes and `n` rows). Following
//! §4, `S` is materialised as 32-bit symbols:
//!
//! * `$` is the integer `0`,
//! * the pair `⟨ℓ, j⟩` is the integer `1 + ℓ·m + j` (`m` = columns).
//!
//! This exact `u32` alphabet is what the RePair compressor consumes, and
//! both multiplication kernels of §2 run off a single scan of `S`.

use std::sync::Arc;

use crate::dense::DenseMatrix;
use crate::dict::ValueDict;
use crate::error::MatrixError;
use gcm_encodings::HeapSize;

/// The row separator symbol `$`.
pub const SEPARATOR: u32 = 0;

/// Encodes/decodes `⟨value-id, column⟩` pairs into the `u32` symbol space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolCodec {
    cols: u32,
}

impl SymbolCodec {
    /// A codec for matrices with `cols` columns.
    ///
    /// # Panics
    /// Panics if `cols == 0`.
    pub fn new(cols: usize) -> Self {
        assert!(cols > 0, "matrix must have at least one column");
        Self {
            cols: u32::try_from(cols).expect("too many columns"),
        }
    }

    /// Encodes pair `⟨value_idx, col⟩` as `1 + value_idx·m + col`.
    ///
    /// # Errors
    /// Fails if the symbol would overflow `u32`.
    #[inline]
    pub fn encode(&self, value_idx: u32, col: u32) -> Result<u32, MatrixError> {
        debug_assert!(col < self.cols);
        let s = 1u64 + value_idx as u64 * self.cols as u64 + col as u64;
        u32::try_from(s).map_err(|_| MatrixError::SymbolOverflow {
            distinct_values: value_idx as usize + 1,
            cols: self.cols as usize,
        })
    }

    /// Decodes a non-separator symbol back to `(value_idx, col)`.
    #[inline]
    pub fn decode(&self, sym: u32) -> (u32, u32) {
        debug_assert_ne!(sym, SEPARATOR, "cannot decode the separator");
        let p = sym - 1;
        (p / self.cols, p % self.cols)
    }

    /// Number of columns the codec was built for.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Exclusive upper bound of the terminal alphabet: every symbol of `S`
    /// is `< terminal_limit`. Nonterminal ids live above this bound.
    #[inline]
    pub fn terminal_limit(&self, distinct_values: usize) -> u32 {
        1 + distinct_values as u32 * self.cols
    }
}

/// A matrix in CSRV form.
///
/// The value dictionary is behind an [`Arc`] so row blocks (§4.1) can share
/// a single copy, exactly as in the paper ("the value array V is unique and
/// shared by all matrix blocks").
#[derive(Debug, Clone)]
pub struct CsrvMatrix {
    rows: usize,
    cols: usize,
    values: Arc<Vec<f64>>,
    symbols: Vec<u32>,
    nnz: usize,
}

impl CsrvMatrix {
    /// Builds CSRV from a dense matrix.
    ///
    /// # Errors
    /// Fails on a NaN entry, naming its cell, or if `|V|·m` overflows
    /// the 32-bit symbol space.
    pub fn from_dense(m: &DenseMatrix) -> Result<Self, MatrixError> {
        let mut dict = ValueDict::new();
        let mut symbols = Vec::new();
        let codec = SymbolCodec::new(m.cols().max(1));
        let mut nnz = 0usize;
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    if v.is_nan() {
                        return Err(MatrixError::NotANumber { row: r, col: c });
                    }
                    let l = dict.intern(v);
                    symbols.push(codec.encode(l, c as u32)?);
                    nnz += 1;
                }
            }
            symbols.push(SEPARATOR);
        }
        Ok(Self {
            rows: m.rows(),
            cols: m.cols(),
            values: Arc::new(dict.into_values()),
            symbols,
            nnz,
        })
    }

    /// Reassembles a CSRV matrix from parts (used by the block splitter and
    /// by generators that produce the symbol stream directly).
    ///
    /// # Panics
    /// Panics (in debug) if the separator count does not match `rows`.
    pub fn from_parts(rows: usize, cols: usize, values: Arc<Vec<f64>>, symbols: Vec<u32>) -> Self {
        debug_assert_eq!(
            symbols.iter().filter(|&&s| s == SEPARATOR).count(),
            rows,
            "separator count must equal row count"
        );
        let nnz = symbols.len() - rows;
        Self {
            rows,
            cols,
            values,
            symbols,
            nnz,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zero entries (`t`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The shared value dictionary `V`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The shared dictionary handle (row blocks and column reorders of
    /// one matrix share it; compare with `Arc::ptr_eq`).
    pub fn values_arc(&self) -> &Arc<Vec<f64>> {
        &self.values
    }

    /// The symbol stream `S` (`|S| = t + n`).
    #[inline]
    pub fn symbols(&self) -> &[u32] {
        &self.symbols
    }

    /// The pair codec for this matrix.
    #[inline]
    pub fn codec(&self) -> SymbolCodec {
        SymbolCodec::new(self.cols.max(1))
    }

    /// Exclusive upper bound of the terminal alphabet.
    pub fn terminal_limit(&self) -> u32 {
        self.codec().terminal_limit(self.values.len())
    }

    /// The paper's csrv size: `4·|S| + 8·|V|` bytes.
    pub fn csrv_bytes(&self) -> usize {
        self.symbols.len() * 4 + self.values.len() * 8
    }

    /// Iterates over rows as symbol slices (separator excluded).
    pub fn row_slices(&self) -> RowSlices<'_> {
        RowSlices {
            symbols: &self.symbols,
            pos: 0,
        }
    }

    /// Right product `Y = M·X` over row-major panels in one scan of `S`
    /// (§2): `x_panel` is `cols × k` (row `j` holds the `k` values of
    /// input coordinate `j`), `y_panel` is `rows × k`, and the caller
    /// has checked both lengths. One traversal of the symbol stream
    /// serves the whole batch, which is what makes batching profitable.
    ///
    /// `K` fixes the width at compile time: the `K = 1` instance is the
    /// single-vector scan; `K = 0` reads the width from `k`.
    pub(crate) fn right_panel<const K: usize>(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
    ) {
        let k = if K == 0 { k } else { K };
        y_panel.fill(0.0);
        if k == 0 {
            return;
        }
        let m = self.cols as u32;
        let values = &self.values[..];
        let mut r = 0usize;
        for &s in &self.symbols {
            if s == SEPARATOR {
                r += 1;
            } else {
                let p = s - 1;
                let (l, j) = ((p / m) as usize, (p % m) as usize);
                let v = values[l];
                let src = &x_panel[j * k..(j + 1) * k];
                let dst = &mut y_panel[r * k..(r + 1) * k];
                for (d, &xv) in dst.iter_mut().zip(src) {
                    *d += v * xv;
                }
            }
        }
    }

    /// Left product `X = Mᵗ·Y` over row-major panels in one scan of `S`
    /// (panels and `K` as in [`right_panel`](Self::right_panel), with
    /// `y_panel` the `rows × k` input and `x_panel` the `cols × k`
    /// output).
    pub(crate) fn left_panel<const K: usize>(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
    ) {
        let k = if K == 0 { k } else { K };
        x_panel.fill(0.0);
        if k == 0 {
            return;
        }
        let m = self.cols as u32;
        let values = &self.values[..];
        let mut r = 0usize;
        for &s in &self.symbols {
            if s == SEPARATOR {
                r += 1;
            } else {
                let p = s - 1;
                let (l, j) = ((p / m) as usize, (p % m) as usize);
                let v = values[l];
                let src = &y_panel[r * k..(r + 1) * k];
                let dst = &mut x_panel[j * k..(j + 1) * k];
                for (d, &yv) in dst.iter_mut().zip(src) {
                    *d += v * yv;
                }
            }
        }
    }

    /// Reorders the pairs of every row so columns appear in the order given
    /// by `order` (new position `k` holds old column `order[k]`).
    ///
    /// Per the paper (§3.2, footnote 2), pairs keep their *original* column
    /// index, so the multiplication algorithms are unaffected; only the
    /// adjacency structure seen by the grammar compressor changes.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..cols`.
    pub fn with_column_order(&self, order: &[usize]) -> Self {
        assert_eq!(order.len(), self.cols, "order length");
        let mut rank = vec![usize::MAX; self.cols];
        for (pos, &c) in order.iter().enumerate() {
            assert!(
                c < self.cols && rank[c] == usize::MAX,
                "order is not a permutation"
            );
            rank[c] = pos;
        }
        let m = self.cols as u32;
        let mut symbols = Vec::with_capacity(self.symbols.len());
        let mut row_buf: Vec<(usize, u32)> = Vec::new();
        for &s in &self.symbols {
            if s == SEPARATOR {
                row_buf.sort_by_key(|&(rk, _)| rk);
                symbols.extend(row_buf.iter().map(|&(_, sym)| sym));
                row_buf.clear();
                symbols.push(SEPARATOR);
            } else {
                let j = (s - 1) % m;
                row_buf.push((rank[j as usize], s));
            }
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            values: Arc::clone(&self.values),
            symbols,
            nnz: self.nnz,
        }
    }

    /// Converts back to dense (testing convenience).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        let codec = self.codec();
        let mut r = 0usize;
        for &s in &self.symbols {
            if s == SEPARATOR {
                r += 1;
            } else {
                let (l, j) = codec.decode(s);
                out.set(r, j as usize, self.values[l as usize]);
            }
        }
        out
    }
}

impl HeapSize for CsrvMatrix {
    fn heap_bytes(&self) -> usize {
        self.symbols.heap_bytes() + self.values.heap_bytes()
    }
}

/// Iterator over row slices of `S` (separator excluded), returned by
/// [`CsrvMatrix::row_slices`].
#[derive(Debug, Clone)]
pub struct RowSlices<'a> {
    symbols: &'a [u32],
    pos: usize,
}

impl<'a> Iterator for RowSlices<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.pos >= self.symbols.len() {
            return None;
        }
        let start = self.pos;
        let mut end = self.pos;
        while self.symbols[end] != SEPARATOR {
            end += 1;
        }
        self.pos = end + 1;
        Some(&self.symbols[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatVec;

    /// The matrix of Figure 1.
    fn fig1() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            &[1.2, 3.4, 5.6, 0.0, 2.3],
            &[2.3, 0.0, 2.3, 4.5, 1.7],
            &[1.2, 3.4, 2.3, 4.5, 0.0],
            &[3.4, 0.0, 5.6, 0.0, 2.3],
            &[2.3, 0.0, 2.3, 4.5, 0.0],
            &[1.2, 3.4, 2.3, 4.5, 3.4],
        ])
    }

    #[test]
    fn codec_roundtrip() {
        let codec = SymbolCodec::new(5);
        for l in 0..10u32 {
            for j in 0..5u32 {
                let s = codec.encode(l, j).unwrap();
                assert_ne!(s, SEPARATOR);
                assert_eq!(codec.decode(s), (l, j));
            }
        }
    }

    #[test]
    fn codec_overflow_detected() {
        let codec = SymbolCodec::new(1 << 20);
        assert!(codec.encode(1 << 13, 0).is_err());
    }

    #[test]
    fn a_nan_entry_is_an_error_naming_its_cell() {
        let mut dense = fig1();
        dense.set(4, 3, f64::NAN);
        let want = MatrixError::NotANumber { row: 4, col: 3 };
        assert_eq!(CsrvMatrix::from_dense(&dense).unwrap_err(), want);
        assert!(want.to_string().contains("row 4, column 3"), "{want}");
    }

    #[test]
    fn fig1_stream_shape() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        // t = 23 non-zeroes + n = 6 separators.
        assert_eq!(csrv.symbols().len(), 23 + 6);
        assert_eq!(csrv.nnz(), 23);
        // V has 6 distinct non-zeroes: 1.2 3.4 5.6 2.3 4.5 1.7.
        assert_eq!(csrv.values().len(), 6);
        // Same value in different columns gets different symbols; same
        // value in the same column always the same symbol (paper, Fig. 1).
        let codec = csrv.codec();
        let rows: Vec<&[u32]> = csrv.row_slices().collect();
        assert_eq!(rows.len(), 6);
        // 2.3 appears in column 0 of rows 1 and 4: same symbol.
        let s_r1c0 = rows[1][0];
        let s_r4c0 = rows[4][0];
        assert_eq!(s_r1c0, s_r4c0);
        // 2.3 in column 2 of row 1 is a different symbol.
        let s_r1c2 = rows[1][1];
        assert_ne!(s_r1c0, s_r1c2);
        assert_eq!(codec.decode(s_r1c0).0, codec.decode(s_r1c2).0);
    }

    #[test]
    fn dense_roundtrip() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        assert_eq!(csrv.to_dense(), m);
    }

    #[test]
    fn right_multiply_matches_dense() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let x = [1.0, -0.5, 2.0, 0.25, 3.0];
        let mut y_d = vec![0.0; 6];
        let mut y_c = vec![0.0; 6];
        m.right_multiply(&x, &mut y_d).unwrap();
        csrv.right_multiply(&x, &mut y_c).unwrap();
        for (a, b) in y_d.iter().zip(&y_c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn left_multiply_matches_dense() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let y = [1.0, 2.0, -1.0, 0.0, 0.5, 1.5];
        let mut x_d = vec![0.0; 5];
        let mut x_c = vec![0.0; 5];
        m.left_multiply(&y, &mut x_d).unwrap();
        csrv.left_multiply(&y, &mut x_c).unwrap();
        for (a, b) in x_d.iter().zip(&x_c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_rows_are_just_separators() {
        let m = DenseMatrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 0.0]]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        assert_eq!(csrv.symbols().len(), 1 + 3);
        let rows: Vec<&[u32]> = csrv.row_slices().collect();
        assert!(rows[0].is_empty());
        assert_eq!(rows[1].len(), 1);
        assert!(rows[2].is_empty());
        assert_eq!(csrv.to_dense(), m);
    }

    #[test]
    fn all_zero_matrix() {
        let m = DenseMatrix::zeros(4, 3);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        assert_eq!(csrv.nnz(), 0);
        assert!(csrv.values().is_empty());
        let mut y = vec![1.0; 4];
        csrv.right_multiply(&[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn column_reorder_preserves_multiplication() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let reordered = csrv.with_column_order(&[4, 2, 0, 1, 3]);
        // Same symbols, possibly different order within rows.
        assert_eq!(reordered.symbols().len(), csrv.symbols().len());
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y_a = vec![0.0; 6];
        let mut y_b = vec![0.0; 6];
        csrv.right_multiply(&x, &mut y_a).unwrap();
        reordered.right_multiply(&x, &mut y_b).unwrap();
        assert_eq!(y_a, y_b);
        assert_eq!(reordered.to_dense(), m);
    }

    #[test]
    fn column_reorder_changes_pair_order() {
        let m = fig1();
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let reordered = csrv.with_column_order(&[4, 3, 2, 1, 0]);
        let first_row: Vec<u32> = reordered.row_slices().next().unwrap().to_vec();
        let codec = csrv.codec();
        let cols: Vec<u32> = first_row.iter().map(|&s| codec.decode(s).1).collect();
        assert_eq!(cols, vec![4, 2, 1, 0]); // descending original columns
    }

    #[test]
    fn csrv_bytes_formula() {
        let csrv = CsrvMatrix::from_dense(&fig1()).unwrap();
        assert_eq!(csrv.csrv_bytes(), 29 * 4 + 6 * 8);
    }

    #[test]
    fn multiply_dimension_checks() {
        let csrv = CsrvMatrix::from_dense(&fig1()).unwrap();
        let mut y = vec![0.0; 6];
        assert!(csrv.right_multiply(&[0.0; 3], &mut y).is_err());
        let mut x = vec![0.0; 5];
        assert!(csrv.left_multiply(&[0.0; 2], &mut x).is_err());
    }
}
