//! The grammar-compressed matrix `(C, R, V)`.

use std::borrow::Cow;
use std::sync::Arc;

use gcm_encodings::fse::FseSequence;
use gcm_encodings::rans::RansSequence;
use gcm_encodings::{HeapSize, IntVector};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, MatrixError, Workspace, SEPARATOR};
use gcm_repair::{RePair, Slp};

use crate::encoding::{Encoding, ExtSyms, RuleExt, RuleStore, SeqStore};
use crate::mvm;
use crate::plan::KernelPlan;

/// A matrix compressed as `(C, R, V)` (§3), in one of the three physical
/// encodings of §4.
#[derive(Debug, Clone)]
pub struct CompressedMatrix {
    rows: usize,
    cols: usize,
    values: Arc<Vec<f64>>,
    /// Exclusive upper bound of the terminal alphabet (`1 + |V|·m`).
    first_nt: u32,
    encoding: Encoding,
    seq: SeqStore,
    rules: RuleStore,
    /// Tail symbols of variable-arity (MR-RePair) rules; `None` for the
    /// binary RePair grammars, which pay nothing for the field.
    ext: Option<Box<RuleExt>>,
}

impl CompressedMatrix {
    /// Compresses a CSRV matrix with RePair and encodes it as `encoding`.
    pub fn compress(csrv: &CsrvMatrix, encoding: Encoding) -> Self {
        let slp = RePair::new().compress(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR));
        Self::from_slp(csrv, &slp, encoding)
    }

    /// Encodes an already-computed grammar (lets callers build all three
    /// encodings from a single RePair run, as the Table 1 harness does).
    /// Each rule's first two right-hand symbols land in the binary
    /// [`RuleStore`] — for a grammar of pairs, that is `rule_syms`
    /// itself — and the tails of rules with arity > 2 go into a
    /// [`RuleExt`] whose physical layout (raw u32 vs bit-packed) mirrors
    /// the chosen encoding. Bit-packed fields use the width of the
    /// grammar's largest symbol.
    pub fn from_slp(csrv: &CsrvMatrix, slp: &Slp, encoding: Encoding) -> Self {
        debug_assert_eq!(slp.first_nonterminal(), csrv.terminal_limit());
        debug_assert!(slp.rules_avoid_terminal(SEPARATOR));
        let width = IntVector::width_for(slp.max_symbol().max(1) as u64);
        let packed = |syms: &[u32]| {
            let wide: Vec<u64> = syms.iter().map(|&s| s as u64).collect();
            IntVector::from_slice_with_width(&wide, width)
        };
        let q = slp.num_rules();
        let (pairs, ext) = if slp.rule_syms().len() == 2 * q {
            (Cow::Borrowed(slp.rule_syms()), None)
        } else {
            let mut pairs: Vec<u32> = Vec::with_capacity(2 * q);
            let mut wide_ids: Vec<u32> = Vec::new();
            let mut tail_ptr: Vec<u32> = vec![0];
            let mut tail_syms: Vec<u32> = Vec::new();
            for k in 0..q {
                let rhs = slp.rule(k);
                pairs.extend_from_slice(&rhs[..2]);
                if rhs.len() > 2 {
                    wide_ids.push(k as u32);
                    tail_syms.extend_from_slice(&rhs[2..]);
                    tail_ptr.push(tail_syms.len() as u32);
                }
            }
            let syms = match encoding {
                Encoding::Re32 => ExtSyms::Raw(tail_syms),
                _ => ExtSyms::Packed(packed(&tail_syms)),
            };
            let ext = RuleExt::from_parts(wide_ids, tail_ptr, syms)
                .expect("an Slp's rule tails form a valid CSR by construction");
            (Cow::Owned(pairs), Some(Box::new(ext)))
        };
        let seq = slp.sequence();
        let (seq, rules) = match encoding {
            Encoding::Re32 => (
                SeqStore::Raw(seq.to_vec()),
                RuleStore::Raw(pairs.into_owned()),
            ),
            Encoding::ReIv => (
                SeqStore::Packed(packed(seq)),
                RuleStore::Packed(packed(&pairs)),
            ),
            Encoding::ReAns => (
                SeqStore::Ans(RansSequence::encode(seq)),
                RuleStore::Packed(packed(&pairs)),
            ),
            Encoding::ReFse => (
                SeqStore::Fse(FseSequence::encode(seq)),
                RuleStore::Packed(packed(&pairs)),
            ),
        };
        Self {
            rows: csrv.rows(),
            cols: csrv.cols(),
            values: Arc::clone(csrv.values_arc()),
            first_nt: csrv.terminal_limit(),
            encoding,
            seq,
            rules,
            ext,
        }
    }

    /// Reassembles a matrix from raw storage parts (deserialisation),
    /// validating every structural invariant: rule right-hand sides only
    /// reference earlier symbols, sequence symbols are in range, and the
    /// separator count equals the row count. MR-RePair rule tails
    /// (`ext`) obey the same ordering invariant as the pair (each
    /// references a strictly earlier symbol than the owning rule), so
    /// one extra check per tail symbol covers them. Returns `None` on
    /// any violation, so corrupt input can never panic the kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        values: Arc<Vec<f64>>,
        first_nt: u32,
        encoding: Encoding,
        seq: SeqStore,
        rules: RuleStore,
        ext: Option<RuleExt>,
    ) -> Option<Self> {
        let q = rules.num_rules();
        if let Some(e) = &ext {
            let mut ok = true;
            for (idx, &rid) in e.rule_ids().iter().enumerate() {
                if rid as usize >= q {
                    return None;
                }
                let own = first_nt as u64 + rid as u64;
                e.for_each_tail_sym(idx, |s| {
                    if s as u64 >= own || s == SEPARATOR {
                        ok = false;
                    }
                });
            }
            if !ok {
                return None;
            }
        }
        let limit = first_nt as u64 + q as u64;
        if limit > u32::MAX as u64 {
            return None;
        }
        for k in 0..q {
            let (a, b) = rules.rule(k);
            let own = first_nt as u64 + k as u64;
            if a as u64 >= own || b as u64 >= own {
                return None;
            }
            if a == SEPARATOR || b == SEPARATOR {
                return None;
            }
        }
        let mut seps = 0usize;
        let mut ok = true;
        seq.for_each(|s| {
            if s as u64 >= limit {
                ok = false;
            }
            if s == SEPARATOR {
                seps += 1;
            } else if seps >= rows {
                // Every row ends with `$`, so no pair may trail the final
                // separator — the left kernels index `y[row]` per pair and
                // would run out of bounds otherwise.
                ok = false;
            }
        });
        if !ok || seps != rows {
            return None;
        }
        Some(Self {
            rows,
            cols,
            values,
            first_nt,
            encoding,
            seq,
            rules,
            ext: ext.map(Box::new),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The encoding variant.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The shared value dictionary `V`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `Arc` behind [`values`](Self::values): matrices built from one
    /// CSRV matrix's row blocks, or loaded from one container
    /// dictionary, share it (compare with `Arc::ptr_eq`).
    pub fn values_arc(&self) -> &Arc<Vec<f64>> {
        &self.values
    }

    /// Number of grammar rules `|R|`.
    pub fn num_rules(&self) -> usize {
        self.rules.num_rules()
    }

    /// Length of the final string `|C|`.
    pub fn sequence_len(&self) -> usize {
        self.seq.len()
    }

    /// Number of stored non-zeroes, computed **without** materialising
    /// the decompressed symbol stream: a rule-length DP (each rule's
    /// expansion length is the sum of its children's) followed by one
    /// pass over `C`. Separators are excluded, so this equals the source
    /// CSRV's `nnz` (the `inspect` per-shard table relies on it).
    ///
    /// All arithmetic saturates: a crafted grammar chaining ~64 doubling
    /// rules passes [`from_raw_parts`](Self::from_raw_parts)'s
    /// structural checks yet has expansion lengths beyond `u64`, and the
    /// no-panic-on-corrupt-input invariant must hold here too (such a
    /// container reports a saturated count instead of overflowing).
    pub fn nnz(&self) -> usize {
        let q = self.num_rules();
        let mut lens: Vec<u64> = Vec::with_capacity(q);
        let mut tails = RuleExt::cursor(self.rule_ext());
        for k in 0..q {
            let (a, b) = self.rules.rule(k);
            let la = Self::symbol_len(a, self.first_nt, &lens);
            let lb = Self::symbol_len(b, self.first_nt, &lens);
            let mut len = la.saturating_add(lb);
            tails.with_tail(k, |s| {
                len = len.saturating_add(Self::symbol_len(s, self.first_nt, &lens));
            });
            lens.push(len);
        }
        let mut total = 0u64;
        self.seq.for_each(|s| {
            if s != SEPARATOR {
                total = total.saturating_add(Self::symbol_len(s, self.first_nt, &lens));
            }
        });
        usize::try_from(total).unwrap_or(usize::MAX)
    }

    /// Expansion length of one symbol given the rule-length table
    /// (rules never contain the separator, so every expanded symbol is a
    /// pair terminal).
    fn symbol_len(s: u32, first_nt: u32, lens: &[u64]) -> u64 {
        if s < first_nt {
            1
        } else {
            lens[(s - first_nt) as usize]
        }
    }

    /// First nonterminal id.
    pub fn first_nonterminal(&self) -> u32 {
        self.first_nt
    }

    /// The final string storage.
    pub fn seq_store(&self) -> &SeqStore {
        &self.seq
    }

    /// The rule storage.
    pub fn rule_store(&self) -> &RuleStore {
        &self.rules
    }

    /// The variable-arity rule tails, if this is an MR-RePair grammar.
    pub fn rule_ext(&self) -> Option<&RuleExt> {
        self.ext.as_deref()
    }

    /// Rule count of the *lowered* binary program a [`KernelPlan`]
    /// compiles this matrix into: each arity-`p` rule contributes
    /// `p − 1` chained binary rules, so binary grammars lower to
    /// themselves.
    ///
    /// [`KernelPlan`]: crate::plan::KernelPlan
    pub fn lowered_rules(&self) -> usize {
        self.num_rules() + self.ext.as_deref().map_or(0, RuleExt::total_tail_syms)
    }

    /// Serialized size in bytes: `C` + `R` + `8·|V|` (the paper's "size"
    /// columns; `V` is stored as raw doubles in all variants), plus the
    /// MR-RePair tail section when present.
    pub fn stored_bytes(&self) -> usize {
        self.seq.stored_bytes()
            + self.rules.stored_bytes()
            + self.values.len() * 8
            + self.ext.as_deref().map_or(0, RuleExt::stored_bytes)
    }

    /// Auxiliary working space of one multiplication: the `W` array of
    /// `|R|` doubles (Thms 3.4 / 3.10).
    pub fn working_bytes(&self) -> usize {
        self.num_rules() * 8
    }

    /// Auxiliary working space of one **batched** multiplication with
    /// width `k`: the `k`-wide `W` panel of `|R|·k` doubles, plus the
    /// left pass's `|R|` nonzero-flag doubles (the batched kernels'
    /// O(1)-skip index; still `O(|R|)` words overall).
    pub fn working_bytes_for_batch(&self, k: usize) -> usize {
        self.num_rules() * 8 * (k.max(1) + 1)
    }

    /// Compiles this matrix into a [`KernelPlan`]: rules and final
    /// string flattened into branchless, division-free operand
    /// descriptors with a CSR-style row index over `C` (see the
    /// [`crate::plan`] module docs). Costs one `O(|C| + |R|)` pass and
    /// `O(|C| + |R|)` words of plan memory; serving loops that amortise
    /// one build across many multiplies trade that memory for a faster
    /// per-multiply constant.
    pub fn plan(&self) -> KernelPlan {
        KernelPlan::compile(self)
    }

    /// Compiles this matrix into a single-precision [`KernelPlan`]
    /// ([`KernelPlan::to_f32`] of [`plan`](Self::plan)): the same
    /// descriptor program with `f32` multipliers and `f32` arithmetic —
    /// half the multiplier heap, double the SIMD width, `f32` rounding
    /// on the results.
    pub fn plan_f32(&self) -> KernelPlan {
        self.plan().to_f32()
    }

    /// Right multiplication with caller-provided scratch (`w` must have
    /// length `|R|`). Used by the row-block parallel paths, which hand
    /// each concurrent block its own `w` from one [`Workspace`].
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `w`).
    pub fn right_multiply_with(
        &self,
        x: &[f64],
        y: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.check_vectors(x.len(), y.len())?;
        self.check_scratch(w.len(), 1)?;
        mvm::right_multiply(
            &self.seq,
            &self.rules,
            self.rule_ext(),
            &self.values,
            self.first_nt,
            self.cols as u32,
            x,
            y,
            w,
        );
        Ok(())
    }

    /// Left multiplication with caller-provided scratch (`w` must have
    /// length `|R|`).
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `w`).
    pub fn left_multiply_with(
        &self,
        y: &[f64],
        x: &mut [f64],
        w: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.check_vectors(x.len(), y.len())?;
        self.check_scratch(w.len(), 1)?;
        mvm::left_multiply(
            &self.seq,
            &self.rules,
            self.rule_ext(),
            &self.values,
            self.first_nt,
            self.cols as u32,
            y,
            x,
            w,
        );
        Ok(())
    }

    /// Batched right multiplication `Y = M·X` over row-major panels with
    /// caller-provided scratch: `x_panel` is `cols × k`, `y_panel` is
    /// `rows × k`, `w_panel` is `|R| · k`. One `(C, R)` traversal serves
    /// all `k` right-hand sides (Thm 3.4 amortised).
    ///
    /// # Errors
    /// Fails if any panel length is inconsistent with `k`.
    pub fn right_multiply_panel_with(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        w_panel: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.check_panels(x_panel.len(), y_panel.len(), k)?;
        self.check_scratch(w_panel.len(), k)?;
        mvm::right_multiply_batch(
            &self.seq,
            &self.rules,
            self.rule_ext(),
            &self.values,
            self.first_nt,
            self.cols as u32,
            k,
            x_panel,
            y_panel,
            w_panel,
        );
        Ok(())
    }

    /// Batched left multiplication `X = Mᵗ·Y` over row-major panels with
    /// caller-provided scratch (`y_panel` is `rows × k`, `x_panel` is
    /// `cols × k`, `w_panel` is `|R| · k`, `w_flags` is `|R|` — the
    /// backward pass's per-rule nonzero-flag skip index; Thm 3.10
    /// amortised).
    ///
    /// # Errors
    /// Fails if any panel length is inconsistent with `k`.
    pub fn left_multiply_panel_with(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        w_panel: &mut [f64],
        w_flags: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.check_panels(x_panel.len(), y_panel.len(), k)?;
        self.check_scratch(w_panel.len(), k)?;
        if w_flags.len() != self.num_rules() {
            return Err(MatrixError::DimensionMismatch {
                expected: self.num_rules(),
                actual: w_flags.len(),
                what: "w flags length",
            });
        }
        mvm::left_multiply_batch(
            &self.seq,
            &self.rules,
            self.rule_ext(),
            &self.values,
            self.first_nt,
            self.cols as u32,
            k,
            y_panel,
            x_panel,
            w_panel,
            w_flags,
        );
        Ok(())
    }

    fn check_vectors(&self, x_len: usize, y_len: usize) -> Result<(), MatrixError> {
        if x_len != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: x_len,
                what: "x length",
            });
        }
        if y_len != self.rows {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows,
                actual: y_len,
                what: "y length",
            });
        }
        Ok(())
    }

    fn check_panels(&self, x_len: usize, y_len: usize, k: usize) -> Result<(), MatrixError> {
        if x_len != self.cols * k {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols * k,
                actual: x_len,
                what: "x panel length",
            });
        }
        if y_len != self.rows * k {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows * k,
                actual: y_len,
                what: "y panel length",
            });
        }
        Ok(())
    }

    fn check_scratch(&self, w_len: usize, k: usize) -> Result<(), MatrixError> {
        if w_len != self.num_rules() * k {
            return Err(MatrixError::DimensionMismatch {
                expected: self.num_rules() * k,
                actual: w_len,
                what: "w scratch length",
            });
        }
        Ok(())
    }

    /// Decompresses back to the CSRV symbol stream (testing / export).
    pub fn decompress_symbols(&self) -> Vec<u32> {
        // Reassemble each full right-hand side: the stored pair plus its
        // tail, if the rule is wide.
        let mut rule_ptr: Vec<u32> = Vec::with_capacity(self.num_rules() + 1);
        let mut rule_syms: Vec<u32> = Vec::with_capacity(self.num_rules() + self.lowered_rules());
        rule_ptr.push(0);
        let mut tails = RuleExt::cursor(self.rule_ext());
        self.rules.for_each_rule(|k, a, b| {
            rule_syms.extend([a, b]);
            tails.with_tail(k, |s| rule_syms.push(s));
            rule_ptr.push(rule_syms.len() as u32);
        });
        Slp::new(self.first_nt, rule_ptr, rule_syms, self.seq.to_vec()).expand()
    }

    /// Reconstructs the CSRV matrix (testing / export).
    pub fn to_csrv(&self) -> CsrvMatrix {
        CsrvMatrix::from_parts(
            self.rows,
            self.cols,
            Arc::clone(&self.values),
            self.decompress_symbols(),
        )
    }
}

impl HeapSize for CompressedMatrix {
    fn heap_bytes(&self) -> usize {
        self.seq.heap_bytes()
            + self.rules.heap_bytes()
            + self.values.heap_bytes()
            + self.ext.as_deref().map_or(0, HeapSize::heap_bytes)
    }
}

impl MatVec for CompressedMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let mut w = ws.take(self.num_rules());
        let result = self.right_multiply_with(x, y, &mut w);
        ws.put(w);
        result
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let mut w = ws.take(self.num_rules());
        let result = self.left_multiply_with(y, x, &mut w);
        ws.put(w);
        result
    }

    fn right_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        gcm_matrix::matvec::check_right_batch(self.rows, self.cols, b, out)?;
        let k = b.cols();
        let mut w = ws.take(self.num_rules() * k);
        let result = self.right_multiply_panel_with(k, b.as_slice(), out.as_mut_slice(), &mut w);
        ws.put(w);
        result
    }

    fn left_multiply_matrix_into(
        &self,
        b: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        gcm_matrix::matvec::check_left_batch(self.rows, self.cols, b, out)?;
        let k = b.cols();
        let mut w = ws.take(self.num_rules() * k);
        let mut flags = ws.take(self.num_rules());
        let result =
            self.left_multiply_panel_with(k, b.as_slice(), out.as_mut_slice(), &mut w, &mut flags);
        ws.put(flags);
        ws.put(w);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;

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

    /// A repetitive block matrix where RePair has real work to do.
    fn repetitive(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = match (r % 4, c % 3) {
                    (0, 0) => 1.5,
                    (1, 1) => 2.5,
                    (2, _) => 0.5,
                    (3, 2) => 7.25,
                    _ => 0.0,
                };
                m.set(r, c, v);
            }
        }
        m
    }

    #[test]
    fn decompression_recovers_symbols_all_encodings() {
        let csrv = CsrvMatrix::from_dense(&fig1()).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            assert_eq!(cm.decompress_symbols(), csrv.symbols(), "{}", enc.name());
            assert_eq!(cm.to_csrv().to_dense(), fig1());
        }
    }

    #[test]
    fn right_multiply_matches_dense_all_encodings() {
        let dense = repetitive(64, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let mut y_ref = vec![0.0; 64];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let mut y = vec![0.0; 64];
            cm.right_multiply(&x, &mut y).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "{}", enc.name());
            }
        }
    }

    #[test]
    fn left_multiply_matches_dense_all_encodings() {
        let dense = repetitive(64, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let y: Vec<f64> = (0..64).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x_ref = vec![0.0; 9];
        dense.left_multiply(&y, &mut x_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let mut x = vec![0.0; 9];
            cm.left_multiply(&y, &mut x).unwrap();
            for (a, b) in x.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{}", enc.name());
            }
        }
    }

    #[test]
    fn size_ordering_matches_paper() {
        // On a repetitive matrix: re_ans <= re_iv <= re_32 <= csrv.
        let dense = repetitive(512, 12);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let re32 = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let reiv = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let reans = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        assert!(re32.stored_bytes() <= csrv.csrv_bytes());
        assert!(reiv.stored_bytes() <= re32.stored_bytes());
        assert!(reans.stored_bytes() <= reiv.stored_bytes());
    }

    #[test]
    fn empty_matrix() {
        let csrv = CsrvMatrix::from_dense(&DenseMatrix::zeros(3, 4)).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let mut y = vec![1.0; 3];
            cm.right_multiply(&[1.0, 2.0, 3.0, 4.0], &mut y).unwrap();
            assert_eq!(y, vec![0.0; 3]);
        }
    }

    #[test]
    fn dimension_checks() {
        let csrv = CsrvMatrix::from_dense(&fig1()).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let mut y = vec![0.0; 6];
        assert!(cm.right_multiply(&[0.0; 2], &mut y).is_err());
        let mut x = vec![0.0; 5];
        assert!(cm.left_multiply(&[0.0; 4], &mut x).is_err());
    }

    #[test]
    fn working_bytes_is_rule_count_words() {
        let csrv = CsrvMatrix::from_dense(&repetitive(128, 6)).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        assert_eq!(cm.working_bytes(), cm.num_rules() * 8);
        // Batched: the k-wide W panel plus the |R| nonzero flags.
        assert_eq!(cm.working_bytes_for_batch(4), cm.num_rules() * 8 * 5);
    }

    #[test]
    fn single_row_and_single_column() {
        let row = DenseMatrix::from_rows(&[&[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]]);
        let csrv = CsrvMatrix::from_dense(&row).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let mut y = vec![0.0; 1];
        cm.right_multiply(&[1.0; 6], &mut y).unwrap();
        assert!((y[0] - 9.0).abs() < 1e-12);

        let col = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[1.0], &[2.0]]);
        let csrv = CsrvMatrix::from_dense(&col).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let mut x = vec![0.0; 1];
        cm.left_multiply(&[1.0, 1.0, 1.0, 1.0], &mut x).unwrap();
        assert!((x[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nnz_matches_source_csrv_without_decompression() {
        for (rows, cols) in [(1usize, 6usize), (64, 9), (3, 2), (40, 7)] {
            let csrv = CsrvMatrix::from_dense(&repetitive(rows, cols)).unwrap();
            for enc in Encoding::ALL {
                let cm = CompressedMatrix::compress(&csrv, enc);
                assert_eq!(cm.nnz(), csrv.nnz(), "{rows}x{cols} {}", enc.name());
            }
        }
        let empty = CsrvMatrix::from_dense(&DenseMatrix::zeros(5, 3)).unwrap();
        assert_eq!(CompressedMatrix::compress(&empty, Encoding::Re32).nnz(), 0);
    }

    fn mr_compress(csrv: &CsrvMatrix, enc: Encoding) -> CompressedMatrix {
        let mr = RePair::new().compress_mr(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR));
        CompressedMatrix::from_slp(csrv, &mr, enc)
    }

    #[test]
    fn mr_grammar_matches_dense_all_encodings() {
        let dense = repetitive(64, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..64).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut y_ref = vec![0.0; 64];
        let mut x_ref = vec![0.0; 9];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = mr_compress(&csrv, enc);
            assert!(cm.rule_ext().is_some(), "repetitive input must widen rules");
            assert_eq!(cm.decompress_symbols(), csrv.symbols(), "{}", enc.name());
            assert_eq!(cm.nnz(), csrv.nnz(), "{}", enc.name());
            let mut y = vec![0.0; 64];
            cm.right_multiply(&x, &mut y).unwrap();
            let mut x_out = vec![0.0; 9];
            cm.left_multiply(&yv, &mut x_out).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "{} right", enc.name());
            }
            for (a, b) in x_out.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{} left", enc.name());
            }
        }
    }

    #[test]
    fn mr_grammar_batched_kernels_match_single_vector() {
        let dense = repetitive(40, 7);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        for enc in Encoding::ALL {
            let cm = mr_compress(&csrv, enc);
            let k = 3usize;
            let x_panel: Vec<f64> = (0..7 * k).map(|i| (i % 11) as f64 - 5.0).collect();
            let mut y_panel = vec![0.0; 40 * k];
            let mut w_panel = vec![0.0; cm.num_rules() * k];
            cm.right_multiply_panel_with(k, &x_panel, &mut y_panel, &mut w_panel)
                .unwrap();
            for j in 0..k {
                let x: Vec<f64> = (0..7).map(|i| x_panel[i * k + j]).collect();
                let mut y = vec![0.0; 40];
                cm.right_multiply(&x, &mut y).unwrap();
                for (i, &yi) in y.iter().enumerate() {
                    assert!(
                        (y_panel[i * k + j] - yi).abs() < 1e-9,
                        "{} right",
                        enc.name()
                    );
                }
            }
            let y_panel_in: Vec<f64> = (0..40 * k).map(|i| ((i * 5) % 9) as f64 - 4.0).collect();
            let mut x_panel_out = vec![0.0; 7 * k];
            let mut w_flags = vec![0.0; cm.num_rules()];
            cm.left_multiply_panel_with(
                k,
                &y_panel_in,
                &mut x_panel_out,
                &mut w_panel,
                &mut w_flags,
            )
            .unwrap();
            for j in 0..k {
                let y: Vec<f64> = (0..40).map(|i| y_panel_in[i * k + j]).collect();
                let mut x = vec![0.0; 7];
                cm.left_multiply(&y, &mut x).unwrap();
                for (i, &xi) in x.iter().enumerate() {
                    assert!(
                        (x_panel_out[i * k + j] - xi).abs() < 1e-9,
                        "{} left",
                        enc.name()
                    );
                }
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_invalid_tails() {
        use crate::encoding::ExtSyms;
        let csrv = CsrvMatrix::from_dense(&repetitive(16, 6)).unwrap();
        let cm = mr_compress(&csrv, Encoding::Re32);
        let ext = cm.rule_ext().expect("has wide rules");
        let rebuild = |syms: Vec<u32>| {
            let e = RuleExt::from_parts(
                ext.rule_ids().to_vec(),
                (0..=ext.num_wide_rules())
                    .map(|i| {
                        let mut p = 0u32;
                        for j in 0..i {
                            p += ext.tail_len(j) as u32;
                        }
                        p
                    })
                    .collect(),
                ExtSyms::Raw(syms),
            )?;
            CompressedMatrix::from_raw_parts(
                cm.rows(),
                cm.cols(),
                Arc::new(cm.values().to_vec()),
                cm.first_nonterminal(),
                cm.encoding(),
                cm.seq_store().clone(),
                cm.rule_store().clone(),
                Some(e),
            )
        };
        let mut good = Vec::new();
        for i in 0..ext.num_wide_rules() {
            ext.for_each_tail_sym(i, |s| good.push(s));
        }
        assert!(rebuild(good.clone()).is_some(), "valid tails must pass");
        let mut fwd = good.clone();
        // A tail referencing its own rule breaks the ordering invariant.
        fwd[0] = cm.first_nonterminal() + ext.rule_ids()[0];
        assert!(rebuild(fwd).is_none());
        let mut sep = good;
        sep[0] = SEPARATOR;
        assert!(rebuild(sep).is_none());
    }

    #[test]
    fn nnz_saturates_on_doubling_rule_chains() {
        // 70 chained doubling rules pass from_raw_parts' structural
        // validation (children reference earlier symbols) but expand to
        // 2^70 terminals; nnz must saturate, never panic.
        use crate::encoding::{RuleStore, SeqStore};
        use std::sync::Arc;
        let first_nt = 2u32; // rows=1, cols=1, |V|=1
        let mut rules = vec![1u32, 1];
        for k in 1..70u32 {
            let prev = first_nt + k - 1;
            rules.push(prev);
            rules.push(prev);
        }
        let seq = vec![first_nt + 69, 0]; // top rule, then the row separator
        let cm = CompressedMatrix::from_raw_parts(
            1,
            1,
            Arc::new(vec![1.0]),
            first_nt,
            Encoding::Re32,
            SeqStore::Raw(seq),
            RuleStore::Raw(rules),
            None,
        )
        .expect("structurally valid by construction");
        assert_eq!(cm.nnz(), usize::MAX);
    }
}
