//! Compiled execution plans: branchless, division-free, row-indexed
//! grammar MVM.
//!
//! The streaming kernels in [`crate::mvm`] pay, on **every** multiply,
//! costs that are invariant across multiplies: an integer `div`/`mod`
//! per terminal evaluation, a terminal-vs-nonterminal branch per symbol,
//! an encoding-variant dispatch per rule access, and (for `re_iv` /
//! `re_ans` / `re_fse`) the bit-unpacking or entropy decode of `C`
//! itself. A [`KernelPlan`] hoists all of that into a **once-per-load
//! compile pass**: serving amortises one build across millions of
//! requests, so the constant per symbol — not the asymptotics, which are
//! Ω(|C| + |R|) regardless — is where the remaining time goes.
//!
//! # Descriptor layout
//!
//! Compilation resolves every grammar symbol into an *operand
//! descriptor* `(mult, idx)` against one contiguous scratch buffer
//! `buf = [ x | w ]` (the input vector's `cols` slots followed by the
//! `|R|` rule slots):
//!
//! * a **terminal** `⟨ℓ, j⟩` becomes `(V[ℓ], j)` — the value lookup and
//!   the `div`/`mod` split happen once, at compile time;
//! * a **nonterminal** `N_r` becomes `(1.0, cols + r)` — its value is
//!   already in the rule region of `buf`.
//!
//! Both symbol kinds therefore evaluate as the same expression
//! `mult · buf[idx]`, so the forward rule pass is the branch-free
//!
//! ```text
//! buf[cols + r] = m_a · buf[i_a] + m_b · buf[i_b]      for r = 0..|R|
//! ```
//!
//! and produces bit-identical results to the streaming kernels (the
//! differential suite `tests/plan_vs_streaming.rs` pins this for every
//! encoding). The final string `C` is decoded **once** into the same
//! descriptor form, with a CSR-style `row_ptr` array over the separator
//! positions: `row_ptr[r]..row_ptr[r+1]` are row `r`'s descriptors.
//! `row_ptr` is what unlocks row-range parallelism — after the rule
//! pass, `buf` is read-only and disjoint row ranges of `y` can be
//! accumulated concurrently ([`KernelPlan::accumulate_rows_panel`]; the
//! serve layer dispatches ranges on the persistent pool).
//!
//! # Row walks
//!
//! Rows hold only a few descriptors on typical inputs (about four on
//! average on Covtype), so a CSR walk — one variable-length inner loop
//! per row — pays a branch mispredict per row that costs more than the
//! row's arithmetic. Two tables derived from `row_ptr` at compile and
//! load time (never persisted) remove it:
//!
//! * every right-product row walk, at both precisions and every panel
//!   width, visits rows **grouped by descriptor count**, so the inner
//!   trip count is constant within a group and same-length row pairs
//!   run as two interleaved accumulation chains;
//! * the width-1 left product seeds its scratch row in one **flat**
//!   pass over the descriptors, reading each one's row from a
//!   descriptor-to-row table.
//!
//! Each row still sums its own descriptors in program order, and each
//! scratch slot still receives its left-product updates in program
//! order, so both walks are bit-identical to the CSR walk they replace.
//!
//! # Interleaved rule streams
//!
//! The naive forward rule pass is one long dependency chain: rule `r`
//! *may* read rule `r − 1`, so the compiler must assume it does and
//! serialise every iteration. Compilation therefore greedily partitions
//! the rule sequence into **dependency-free blocks** (`block_ptr`):
//! within a block every operand index lies strictly below the block's
//! first destination slot, so the block's rules are mutually independent
//! and the kernels evaluate them as four interleaved streams — the same
//! trick the `re_fse` codec plays with its dual tANS states. Blocks are
//! discovered once at compile time; the hot loop pays no dependency
//! test.
//!
//! Batched (`k`-wide) kernels use the identical layout with `k`-element
//! panel rows; the batched left kernel additionally keeps one
//! nonzero-flag word per `buf` row (appended after the panel region) so
//! untouched rules are skipped in O(1) rather than by an O(k) scan.
//!
//! # Single-precision plans
//!
//! Precision is a run-time property of one [`KernelPlan`] type:
//! [`KernelPlan::to_f32`] (or [`CompressedMatrix::plan_f32`]) yields the
//! same descriptor program with `f32` multipliers and `f32` arithmetic —
//! half the multiplier heap, twice the lanes per SIMD register (on
//! x86-64 hosts with AVX2 its 8-lane kernels run recompiled at 256-bit
//! width, with no FMA, so lane arithmetic is unchanged) — and
//! [`KernelPlan::is_f32`] reports which one a plan holds. Its public
//! panels stay `f64` (the serve protocol is `f64` end to end) — inputs
//! are demoted on the copy into scratch, outputs promoted on the way
//! out — and its scratch reuses the serve layer's `f64`
//! [`gcm_matrix::Workspace`] buffers by viewing them as twice as many
//! `f32` slots. Results are **not** bit-identical to the `f64` plans;
//! they are bit-identical to an `f32` evaluation of the same descriptor
//! program in the same order, which `tests/plan_f32_props.rs` pins
//! against an independent oracle.
//!
//! A plan costs `O(|C| + |R|)` words — roughly `16` bytes per `C`
//! descriptor (the row tables included) and `24` per rule (`12`/`16`
//! for `f32` plans), i.e. *more* than the encoded matrix it was
//! compiled from. It is a speed-for-memory trade the serve layer makes
//! explicit: plans are opt-in (`ServeOptions`), built at prewarm, and
//! reported via [`HeapSize`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use gcm_encodings::{varint, HeapSize};
use gcm_matrix::{MatrixError, SEPARATOR};

use crate::compressed::CompressedMatrix;
use crate::fastdiv::FastDiv;

/// Process-wide count of descriptor-compile passes (see
/// [`plan_compiles`]).
static PLAN_COMPILES: AtomicUsize = AtomicUsize::new(0);

/// Number of descriptor-compile passes ([`KernelPlan::compile`]; `f32`
/// compilation routes through the same pass) this process has run since
/// start. Plan persistence relies on it: loading a container whose
/// plans were persisted at build time must leave this counter untouched
/// — the blobs deserialise as a validated cast, never a recompile — and
/// the `plan_blob_no_recompile` (core) and `plan_section_no_recompile`
/// (serve) integration tests pin exactly that.
pub fn plan_compiles() -> usize {
    PLAN_COMPILES.load(Ordering::Relaxed)
}

/// Density bound of the activity-propagation sparse path: at
/// `nnz(x) / cols` above this, [`KernelPlan::right_multiply_sparse`]
/// falls back to scattering `x` densely and running the ordinary
/// planned kernels. Density is a weak proxy for which arm wins.
/// `examples/sparse_scoring.rs` times both arms with inputs taken
/// round-robin (2-vCPU x86-64 host, median of seven passes). One-hot
/// inputs over every column are 1.5 % of census's 68 columns and 1.9 %
/// of covtype's 54. On census 13 000 rows the walk takes 1.02–1.25× the
/// scatter arm's time in f64 and about 1.5× in f32. On covtype 30 000
/// rows (one `build-covtype` shard) the walk is 2.7–2.9× faster in f64
/// and 1.8–2.5× in f32, on every encoding. What separates the two is the
/// input's reach — the share of the grammar whose expansion holds one of
/// its columns (15.7 % on census, 6.0 % on covtype) — not its density.
/// Above one-hot both corpora favour the scatter arm (4 features: walk at
/// 0.28–0.72× of its speed). Both arms return byte-identical results.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.05;

/// Returns early through the compile-time-width body
/// `$self.$fixed::<K>(args)` when the panel width `k` is in `2..=8`;
/// any other width falls through to the generic code that follows.
/// Every coalesced batch width the serve layer runs (its default cap is
/// 8) thereby takes a fixed-size lane loop; per-lane arithmetic order is
/// the generic path's, so the choice never changes a bit.
macro_rules! return_if_fixed_width {
    ($k:expr, $self:ident.$fixed:ident($($arg:expr),*)) => {
        match $k {
            2 => return $self.$fixed::<2>($($arg),*),
            3 => return $self.$fixed::<3>($($arg),*),
            4 => return $self.$fixed::<4>($($arg),*),
            5 => return $self.$fixed::<5>($($arg),*),
            6 => return $self.$fixed::<6>($($arg),*),
            7 => return $self.$fixed::<7>($($arg),*),
            8 => return $self.$fixed::<8>($($arg),*),
            _ => {}
        }
    };
}

/// Which execution arm a sparse-input multiply takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseStrategy {
    /// Choose by comparing `nnz(x) / cols` against
    /// [`SPARSE_DENSITY_THRESHOLD`] — the serving default.
    Auto,
    /// Force the activity-propagation walk (benchmarking the sparse
    /// kernel itself, density sweeps).
    Activity,
    /// Force the dense fallback: scatter `x` and run the ordinary
    /// planned kernels (the baseline the sweep measures against).
    Scatter,
}

/// Validates a sparse input vector against a `cols`-wide input space:
/// strictly increasing column indices (which rules out duplicates),
/// every index in range, and at most `cols` entries. Shared by the
/// plan kernels, the serve layer, and the wire protocol so all three
/// reject exactly the same inputs.
///
/// # Errors
/// Fails on an oversized entry count, an out-of-range index, or
/// indices that are not strictly increasing.
pub fn validate_sparse_x(cols: usize, x_nnz: &[(u32, f64)]) -> Result<(), MatrixError> {
    if x_nnz.len() > cols {
        return Err(MatrixError::DimensionMismatch {
            expected: cols,
            actual: x_nnz.len(),
            what: "sparse x non-zero count",
        });
    }
    let mut prev: Option<u32> = None;
    for &(j, _) in x_nnz {
        if j as usize >= cols {
            return Err(MatrixError::IndexOutOfBounds {
                row: 0,
                col: j as usize,
                rows: 1,
                cols,
            });
        }
        if let Some(p) = prev {
            if j <= p {
                return Err(MatrixError::Parse(format!(
                    "sparse x indices must be strictly increasing (index {j} after {p})"
                )));
            }
        }
        prev = Some(j);
    }
    Ok(())
}

/// Arithmetic element of a plan's scratch buffer: `f64` for the exact
/// plans, `f32` for the SIMD-width-doubling ones. Private — the public
/// surface is [`KernelPlan`], which picks one at run time.
trait Scalar:
    Copy + PartialEq + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self> + Send + Sync
{
    const ZERO: Self;
    const ONE: Self;
    /// On-disk bytes per scalar in a persisted plan blob.
    const BYTES: usize;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    /// Appends the little-endian persisted form.
    fn write_le(self, out: &mut Vec<u8>);
    /// Reads back one scalar; `bytes.len()` must equal `Self::BYTES`.
    fn read_le(bytes: &[u8]) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))
    }
}

/// Inverted descriptor index behind the sparse-input kernel: for each
/// scratch slot, the positions in the descriptor program that read it
/// (each position's owning row is [`PlanBody::desc_row`]). The sparse
/// walk seeds activity from the non-zeroes, sweeps the rule DAG, and
/// then scatter-accumulates **only** the descriptors this index reaches
/// from active slots — every other descriptor's contribution is an
/// exact zero and every untouched row keeps its zero without being
/// visited.
///
/// Built lazily ([`PlanBody::sparse_index`]) on the first sparse
/// multiply (serve-layer prewarm runs one throwaway sparse pass, so
/// live requests never pay the build), and never persisted: `to_bytes`
/// skips it and a loaded plan rebuilds on demand.
#[derive(Debug, Clone, Default)]
struct SparseIndex {
    /// CSC bucket bounds: slot `s` is read by descriptor positions
    /// `slot_desc[slot_ptr[s]..slot_ptr[s+1]]`; length `width + 1`.
    slot_ptr: Vec<u32>,
    /// Descriptor positions per slot (indices into `seq_*`); length
    /// `|C|`.
    slot_desc: Vec<u32>,
    /// CSC bucket bounds of the rule dependency graph: slot `s` is an
    /// operand of rules `dep_rule[dep_ptr[s]..dep_ptr[s+1]]`; length
    /// `width + 1`.
    dep_ptr: Vec<u32>,
    /// Dependent rule ids per operand slot (a rule with both operands
    /// on the same slot is listed twice — marking is idempotent);
    /// length `2|R|`.
    dep_rule: Vec<u32>,
}

impl SparseIndex {
    /// Two counting-sort passes: one over the CSR descriptor program,
    /// one over the rule operand table.
    fn build(width: usize, seq_idx: &[u32], rule_idx: &[u32]) -> Self {
        let mut slot_ptr = vec![0u32; width + 1];
        for &s in seq_idx {
            slot_ptr[s as usize + 1] += 1;
        }
        for i in 0..width {
            slot_ptr[i + 1] += slot_ptr[i];
        }
        let mut slot_desc = vec![0u32; seq_idx.len()];
        let mut fill = slot_ptr[..width].to_vec();
        for (d, &s) in seq_idx.iter().enumerate() {
            let at = &mut fill[s as usize];
            slot_desc[*at as usize] = d as u32;
            *at += 1;
        }
        let mut dep_ptr = vec![0u32; width + 1];
        for &s in rule_idx {
            dep_ptr[s as usize + 1] += 1;
        }
        for i in 0..width {
            dep_ptr[i + 1] += dep_ptr[i];
        }
        let mut dep_rule = vec![0u32; rule_idx.len()];
        let mut fill = dep_ptr[..width].to_vec();
        for (e, &s) in rule_idx.iter().enumerate() {
            let at = &mut fill[s as usize];
            dep_rule[*at as usize] = (e / 2) as u32;
            *at += 1;
        }
        SparseIndex {
            slot_ptr,
            slot_desc,
            dep_ptr,
            dep_rule,
        }
    }
}

impl HeapSize for SparseIndex {
    fn heap_bytes(&self) -> usize {
        self.slot_ptr.heap_bytes()
            + self.slot_desc.heap_bytes()
            + self.dep_ptr.heap_bytes()
            + self.dep_rule.heap_bytes()
    }
}

/// The compiled descriptor program behind both precisions of a
/// [`KernelPlan`] (`T = f64` or `T = f32`). All kernels are written once
/// here; the plan picks the scalar type and the scratch-buffer
/// convention.
#[derive(Debug, Clone)]
struct PlanBody<T> {
    rows: usize,
    cols: usize,
    num_rules: usize,
    /// Premultiplied operand values, two per rule (`2|R|`).
    rule_mult: Vec<T>,
    /// Operand scratch indices, two per rule (`2|R|`); entry `2r`/`2r+1`
    /// is `< cols + r` (rules reference terminals or earlier rules).
    rule_idx: Vec<u32>,
    /// Premultiplied values of `C`'s non-separator symbols.
    seq_mult: Vec<T>,
    /// Scratch indices of `C`'s non-separator symbols (`< cols + |R|`).
    seq_idx: Vec<u32>,
    /// CSR row index over `seq_*`: row `r` owns descriptors
    /// `row_ptr[r]..row_ptr[r+1]`; length `rows + 1`.
    row_ptr: Vec<u32>,
    /// Dependency-free block boundaries over the rules: rules
    /// `block_ptr[b]..block_ptr[b+1]` reference only operands
    /// `< cols + block_ptr[b]`, so they are mutually independent.
    /// Always starts at `0` and ends at `num_rules`.
    block_ptr: Vec<u32>,
    /// Owning row of each descriptor position (the `row_ptr` run it
    /// falls in); length `|C|`. Derived from `row_ptr`, never
    /// persisted. The flat `k = 1` left seed pass and the sparse
    /// walk's scatter read it.
    desc_row: Vec<u32>,
    /// The rows grouped by descriptor count: the visiting order of
    /// every right-product row walk. Derived from `row_ptr`, never
    /// persisted.
    groups: RowGroups,
    /// Lazily-built inverted row index of the sparse-input kernel.
    sparse: std::sync::OnceLock<SparseIndex>,
}

/// Evaluates rule `r` of a block: `m_a·src[i_a] + m_b·src[i_b]`.
///
/// # Safety
/// `mults`/`idxs` must hold at least `2(r + 1)` entries and both operand
/// indices of rule `r` must be `< src.len()` — guaranteed by `compile`'s
/// per-descriptor validation plus the block partition (every operand of
/// a block's rules indexes below the block's split point).
#[inline(always)]
unsafe fn rule_value<T: Scalar>(src: &[T], mults: &[T], idxs: &[u32], r: usize) -> T {
    let ia = *idxs.get_unchecked(2 * r) as usize;
    let ib = *idxs.get_unchecked(2 * r + 1) as usize;
    *mults.get_unchecked(2 * r) * *src.get_unchecked(ia)
        + *mults.get_unchecked(2 * r + 1) * *src.get_unchecked(ib)
}

impl<T: Scalar> PlanBody<T> {
    /// Width of one scratch buffer row: the `cols` input slots plus the
    /// `|R|` rule slots.
    fn width(&self) -> usize {
        self.cols + self.num_rules
    }

    /// Scratch slots (in `T` units) for batch width `k`: the
    /// `(cols + |R|) × k` panel plus the flag row of the batched left
    /// kernel.
    fn scratch_slots(&self, k: usize) -> usize {
        self.width() * (k.max(1) + 1)
    }

    fn check_panels(&self, x_len: usize, y_len: usize, k: usize) -> Result<(), MatrixError> {
        gcm_matrix::matvec::check_panels(self.rows, self.cols, k, x_len, y_len)
    }

    /// Forward rule pass, width 1, walked block by block with four
    /// interleaved rule streams inside each block (no loop-carried
    /// dependency within a block, so all four chains stay in flight).
    fn eval_rules(&self, buf: &mut [T]) {
        assert!(buf.len() >= self.width());
        for w in self.block_ptr.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            // Every rule in `lo..hi` reads strictly below `cols + lo`
            // (block partition invariant), so the split is aliasing-free.
            let (src, rest) = buf.split_at_mut(self.cols + lo);
            let dst = &mut rest[..hi - lo];
            let mults = &self.rule_mult[2 * lo..2 * hi];
            let idxs = &self.rule_idx[2 * lo..2 * hi];
            let n = dst.len();
            let mut r = 0usize;
            // SAFETY: `compile` validated every operand index of rules
            // `lo..hi` to be `< cols + lo == src.len()`, and the
            // block-relative slices hold exactly `2(hi − lo)` entries.
            unsafe {
                while r + 4 <= n {
                    let v0 = rule_value(src, mults, idxs, r);
                    let v1 = rule_value(src, mults, idxs, r + 1);
                    let v2 = rule_value(src, mults, idxs, r + 2);
                    let v3 = rule_value(src, mults, idxs, r + 3);
                    *dst.get_unchecked_mut(r) = v0;
                    *dst.get_unchecked_mut(r + 1) = v1;
                    *dst.get_unchecked_mut(r + 2) = v2;
                    *dst.get_unchecked_mut(r + 3) = v3;
                    r += 4;
                }
                while r < n {
                    *dst.get_unchecked_mut(r) = rule_value(src, mults, idxs, r);
                    r += 1;
                }
            }
        }
    }

    /// Forward rule pass, `k`-wide panel rows, one aliasing-free split
    /// per block instead of per rule (the `k` lanes are the SIMD axis).
    fn eval_rules_panel(&self, k: usize, buf: &mut [T]) {
        assert!(buf.len() >= self.width() * k);
        return_if_fixed_width!(k, self.eval_rules_panel_fixed(buf));
        for w in self.block_ptr.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let (src, rest) = buf.split_at_mut((self.cols + lo) * k);
            let dst = &mut rest[..(hi - lo) * k];
            for (j, drow) in dst.chunks_exact_mut(k).enumerate() {
                let r = lo + j;
                let ma = self.rule_mult[2 * r];
                let mb = self.rule_mult[2 * r + 1];
                let ia = self.rule_idx[2 * r] as usize * k;
                let ib = self.rule_idx[2 * r + 1] as usize * k;
                let sa = &src[ia..ia + k];
                let sb = &src[ib..ib + k];
                for ((d, &a), &b) in drow.iter_mut().zip(sa).zip(sb) {
                    *d = ma * a + mb * b;
                }
            }
        }
    }

    /// [`eval_rules_panel`](Self::eval_rules_panel) for panels of
    /// compile-time width `K`: the lane loop is a fixed-size array op
    /// (one or two SIMD vectors), so no per-rule length dispatch
    /// survives into the loop body. Lane arithmetic and ordering are
    /// identical to the generic path.
    ///
    /// `inline(always)` so the `f32` AVX2 wrappers recompile this body
    /// with 256-bit vectors (see [`simd8`]).
    #[inline(always)]
    fn eval_rules_panel_fixed<const K: usize>(&self, buf: &mut [T]) {
        assert!(buf.len() >= self.width() * K);
        for w in self.block_ptr.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let (src, rest) = buf.split_at_mut((self.cols + lo) * K);
            let dst = &mut rest[..(hi - lo) * K];
            // SAFETY: as in `eval_rules` — `compile` validated every
            // operand of rules `lo..hi` to read below `cols + lo`
            // (i.e. inside `src`), and the rule arrays hold `2·num_rules`
            // entries.
            unsafe {
                for j in 0..hi - lo {
                    let r = lo + j;
                    let ma = *self.rule_mult.get_unchecked(2 * r);
                    let mb = *self.rule_mult.get_unchecked(2 * r + 1);
                    let ia = *self.rule_idx.get_unchecked(2 * r) as usize * K;
                    let ib = *self.rule_idx.get_unchecked(2 * r + 1) as usize * K;
                    let sa = src.get_unchecked(ia..ia + K);
                    let sb = src.get_unchecked(ib..ib + K);
                    let d = dst.get_unchecked_mut(j * K..(j + 1) * K);
                    for l in 0..K {
                        *d.get_unchecked_mut(l) =
                            ma * *sa.get_unchecked(l) + mb * *sb.get_unchecked(l);
                    }
                }
            }
        }
    }

    /// Validates and copies the input panel into the scratch head
    /// (demoting if `T = f32`).
    fn load_panel(&self, k: usize, x_panel: &[f64], buf: &mut [T]) -> Result<(), MatrixError> {
        if x_panel.len() != self.cols * k {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols * k,
                actual: x_panel.len(),
                what: "x panel length",
            });
        }
        for (d, &s) in buf[..self.cols * k].iter_mut().zip(x_panel) {
            *d = T::from_f64(s);
        }
        Ok(())
    }

    /// Copies the input panel (demoting if `T = f32`) and runs the
    /// forward rule pass; `buf` must hold at least `scratch_slots(k)`.
    fn begin_right(&self, k: usize, x_panel: &[f64], buf: &mut [T]) -> Result<(), MatrixError> {
        let k = k.max(1);
        self.load_panel(k, x_panel, buf)?;
        if k == 1 {
            self.eval_rules(buf);
        } else {
            self.eval_rules_panel(k, buf);
        }
        Ok(())
    }

    /// The bounds every row walk's unchecked loads rely on, asserted
    /// once per call.
    fn check_rows(&self, rows: &Range<usize>, k: usize, buf_len: usize, y_len: usize) {
        assert!(rows.end <= self.rows);
        assert_eq!(y_len, rows.len() * k);
        assert!(buf_len >= self.width() * k);
    }

    /// Row-range accumulation out of a prepared scratch panel; sums run
    /// entirely in `T` (an 8-lane tile at a time for `k > 8`) and are
    /// promoted on the final store. Rows are visited group by group
    /// ([`RowGroups`]); every row adds its own descriptors in program
    /// order, so each sum is the CSR walk's bit for bit.
    fn accumulate_rows(&self, rows: Range<usize>, k: usize, buf: &[T], y_chunk: &mut [f64]) {
        let k = k.max(1);
        if k == 1 {
            return self.accumulate_rows_fixed::<1>(rows, buf, y_chunk);
        }
        return_if_fixed_width!(k, self.accumulate_rows_fixed(rows, buf, y_chunk));
        self.check_rows(&rows, k, buf.len(), y_chunk.len());
        for (_, span) in self.groups.spans(&rows) {
            for &r in span {
                let r = r as usize;
                let dst = &mut y_chunk[(r - rows.start) * k..][..k];
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                let mut j0 = 0usize;
                while j0 < k {
                    let kt = (k - j0).min(8);
                    let mut acc = [T::ZERO; 8];
                    for (m, i) in self.seq_mult[lo..hi].iter().zip(&self.seq_idx[lo..hi]) {
                        let src = &buf[*i as usize * k + j0..][..kt];
                        for (a, &s) in acc[..kt].iter_mut().zip(src) {
                            *a = *a + *m * s;
                        }
                    }
                    for (d, a) in dst[j0..j0 + kt].iter_mut().zip(&acc[..kt]) {
                        *d = a.to_f64();
                    }
                    j0 += kt;
                }
            }
        }
    }

    /// [`accumulate_rows`](Self::accumulate_rows) for panels of
    /// compile-time width `K <= 8`: one accumulator tile per row, the
    /// lane loop a fixed-size array op. Within a group every row has
    /// the same trip count, so the loop exit predicts perfectly, and
    /// same-length row **pairs** run as two interleaved independent
    /// accumulation chains (at `K = 1`, two scalar chains). Per-lane
    /// accumulation order matches the generic tile path bit for bit.
    ///
    /// `inline(always)` so the `f32` AVX2 wrappers recompile this body
    /// with 256-bit vectors (see [`simd8`]).
    #[inline(always)]
    fn accumulate_rows_fixed<const K: usize>(
        &self,
        rows: Range<usize>,
        buf: &[T],
        y_chunk: &mut [f64],
    ) {
        self.check_rows(&rows, K, buf.len(), y_chunk.len());
        for (len, span) in self.groups.spans(&rows) {
            // An odd group's last row pairs with itself: computed twice,
            // stored twice, the same value both times.
            for pair in span.chunks(2) {
                let (r0, r1) = (pair[0] as usize, pair[pair.len() - 1] as usize);
                let d0 = self.row_ptr[r0] as usize;
                let d1 = self.row_ptr[r1] as usize;
                let mut acc0 = [T::ZERO; K];
                let mut acc1 = [T::ZERO; K];
                // SAFETY: `compile`/`read_bytes` guarantee every sequence
                // index is `< width()`, and a row of group length `len`
                // owns descriptors `row_ptr[r]..row_ptr[r] + len` inside
                // `seq_*`; `check_rows` asserted `buf.len() >= width() * K`.
                unsafe {
                    for j in 0..len {
                        let m0 = *self.seq_mult.get_unchecked(d0 + j);
                        let i0 = *self.seq_idx.get_unchecked(d0 + j) as usize * K;
                        let s0 = buf.get_unchecked(i0..i0 + K);
                        let m1 = *self.seq_mult.get_unchecked(d1 + j);
                        let i1 = *self.seq_idx.get_unchecked(d1 + j) as usize * K;
                        let s1 = buf.get_unchecked(i1..i1 + K);
                        for l in 0..K {
                            acc0[l] = acc0[l] + m0 * *s0.get_unchecked(l);
                            acc1[l] = acc1[l] + m1 * *s1.get_unchecked(l);
                        }
                    }
                }
                for (r, acc) in [(r0, acc0), (r1, acc1)] {
                    let dst = &mut y_chunk[(r - rows.start) * K..][..K];
                    for (d, a) in dst.iter_mut().zip(acc) {
                        *d = a.to_f64();
                    }
                }
            }
        }
    }

    /// Batched left product: forward pass over `C` seeds the scratch
    /// panel (demoting `y` if `T = f32`), the backward rule pass pushes
    /// weights down, untouched rules are skipped via the flag row.
    /// `buf` must hold at least `scratch_slots(k)`.
    fn left_panel(&self, k: usize, y_panel: &[f64], x_panel: &mut [f64], buf: &mut [T]) {
        let n = self.width();
        if k == 1 {
            self.left_single(y_panel, x_panel, &mut buf[..n]);
            return;
        }
        return_if_fixed_width!(k, self.left_panel_fixed(y_panel, x_panel, buf));
        let (panel, flags) = buf.split_at_mut(n * k);
        let panel = &mut panel[..n * k];
        let flags = &mut flags[..n];
        panel.fill(T::ZERO);
        flags.fill(T::ZERO);
        for (r, ys) in y_panel.chunks_exact(k).enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            for (m, i) in self.seq_mult[lo..hi].iter().zip(&self.seq_idx[lo..hi]) {
                let i = *i as usize;
                // Unconditional flag write for both symbol kinds keeps
                // the loop branchless; only the rule region is read back.
                flags[i] = T::ONE;
                let dst = &mut panel[i * k..][..k];
                for (d, &yv) in dst.iter_mut().zip(ys) {
                    *d = *d + *m * T::from_f64(yv);
                }
            }
        }
        for r in (0..self.num_rules).rev() {
            if flags[self.cols + r] == T::ZERO {
                continue;
            }
            let src_off = (self.cols + r) * k;
            let (earlier, rest) = panel.split_at_mut(src_off);
            let wk = &rest[..k];
            for op in [2 * r, 2 * r + 1] {
                let m = self.rule_mult[op];
                let i = self.rule_idx[op] as usize;
                flags[i] = T::ONE;
                let dst = &mut earlier[i * k..][..k];
                for (d, &wv) in dst.iter_mut().zip(wk) {
                    *d = *d + m * wv;
                }
            }
        }
        for (d, s) in x_panel.iter_mut().zip(&panel[..self.cols * k]) {
            *d = s.to_f64();
        }
    }

    /// [`left_panel`](Self::left_panel) for panels of compile-time
    /// width `K`: both the scatter and the backward-push lane loops are
    /// fixed-size array ops. Per-lane arithmetic order matches the
    /// generic path bit for bit.
    ///
    /// `inline(always)` so the `f32` AVX2 wrappers recompile this body
    /// with 256-bit vectors (see [`simd8`]).
    #[inline(always)]
    fn left_panel_fixed<const K: usize>(
        &self,
        y_panel: &[f64],
        x_panel: &mut [f64],
        buf: &mut [T],
    ) {
        let n = self.width();
        let (panel, flags) = buf.split_at_mut(n * K);
        let panel = &mut panel[..n * K];
        let flags = &mut flags[..n];
        panel.fill(T::ZERO);
        flags.fill(T::ZERO);
        for (r, ys) in y_panel.chunks_exact(K).enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let mut yt = [T::ZERO; K];
            for (t, &yv) in yt.iter_mut().zip(ys) {
                *t = T::from_f64(yv);
            }
            // SAFETY: sequence indices are `< n` (`compile` validated),
            // so `i * K + K <= n * K == panel.len()`.
            unsafe {
                for (m, i) in self.seq_mult[lo..hi].iter().zip(&self.seq_idx[lo..hi]) {
                    let i = *i as usize;
                    *flags.get_unchecked_mut(i) = T::ONE;
                    let dst = panel.get_unchecked_mut(i * K..i * K + K);
                    for (l, &yv) in yt.iter().enumerate() {
                        *dst.get_unchecked_mut(l) = *dst.get_unchecked(l) + *m * yv;
                    }
                }
            }
        }
        for r in (0..self.num_rules).rev() {
            if flags[self.cols + r] == T::ZERO {
                continue;
            }
            let src_off = (self.cols + r) * K;
            let (earlier, rest) = panel.split_at_mut(src_off);
            let mut wk = [T::ZERO; K];
            wk.copy_from_slice(&rest[..K]);
            // SAFETY: both operand indices of rule `r` are
            // `< cols + r` (`compile` validated), hence inside `earlier`.
            unsafe {
                for op in [2 * r, 2 * r + 1] {
                    let m = *self.rule_mult.get_unchecked(op);
                    let i = *self.rule_idx.get_unchecked(op) as usize;
                    *flags.get_unchecked_mut(i) = T::ONE;
                    let dst = earlier.get_unchecked_mut(i * K..i * K + K);
                    for (l, &wv) in wk.iter().enumerate() {
                        *dst.get_unchecked_mut(l) = *dst.get_unchecked(l) + m * wv;
                    }
                }
            }
        }
        for (d, s) in x_panel.iter_mut().zip(&panel[..self.cols * K]) {
            *d = s.to_f64();
        }
    }

    /// Width-1 left multiplication body; `buf` is exactly the
    /// `cols + |R|` panel (the per-rule value doubles as its own
    /// nonzero flag at width 1).
    ///
    /// The seed pass is one flat walk over the descriptors in program
    /// order, each reading its row's weight through `desc_row`: every
    /// slot receives the same updates in the same order as a row-by-row
    /// walk, without a variable-length inner loop per row. A descriptor
    /// of a row with `y[r] == 0.0` leaves its slot unchanged (written as
    /// a select, so zero rows need not cost a mispredict each), exactly
    /// as if the row were skipped: no `m · ±0.0` term — NaN when `m` is
    /// infinite — ever reaches a slot.
    fn left_single(&self, y: &[f64], x: &mut [f64], buf: &mut [T]) {
        assert_eq!(y.len(), self.rows);
        buf.fill(T::ZERO);
        // The descriptors the rows own (`C` ends with a separator, so
        // this is all of them).
        let n = *self.row_ptr.last().expect("row_ptr holds rows + 1 entries") as usize;
        let descs = self.seq_mult[..n]
            .iter()
            .zip(&self.seq_idx[..n])
            .zip(&self.desc_row[..n]);
        for ((m, i), r) in descs {
            // SAFETY: `desc_row` entries are row ids `< rows == y.len()`
            // (asserted above) and sequence indices are
            // `< width() == buf.len()`.
            unsafe {
                let yr = *y.get_unchecked(*r as usize);
                let d = buf.get_unchecked_mut(*i as usize);
                let sum = *d + *m * T::from_f64(yr);
                *d = if yr == 0.0 { *d } else { sum };
            }
        }
        for r in (0..self.num_rules).rev() {
            let wk = buf[self.cols + r];
            if wk == T::ZERO {
                continue;
            }
            // SAFETY: rule operand indices are `< cols + r < buf.len()`
            // and the rule arrays have length `2·num_rules`.
            unsafe {
                let ma = *self.rule_mult.get_unchecked(2 * r);
                let ia = *self.rule_idx.get_unchecked(2 * r) as usize;
                let da = buf.get_unchecked_mut(ia);
                *da = *da + ma * wk;
                let mb = *self.rule_mult.get_unchecked(2 * r + 1);
                let ib = *self.rule_idx.get_unchecked(2 * r + 1) as usize;
                let db = buf.get_unchecked_mut(ib);
                *db = *db + mb * wk;
            }
        }
        for (d, s) in x.iter_mut().zip(&buf[..self.cols]) {
            *d = s.to_f64();
        }
    }

    /// The inverted descriptor index, built on first use (one
    /// counting-sort pass over the descriptor program; the serve
    /// layer's prewarm triggers it so live requests never allocate).
    fn sparse_index(&self) -> &SparseIndex {
        self.sparse
            .get_or_init(|| SparseIndex::build(self.width(), &self.seq_idx, &self.rule_idx))
    }

    /// Whether the spare scratch row can host the sparse walk's
    /// bookkeeping: one activity byte per slot plus one bit per
    /// descriptor position. Holds whenever `|C| ≤ 8·(sizeof(T)−1)·width`
    /// — every realistic plan, since RePair keeps `|C|` within a small
    /// multiple of the grammar size — and the caller falls back to the
    /// dense scatter arm otherwise rather than allocating.
    fn sparse_scratch_fits(&self) -> bool {
        let bitmap_bytes = self.num_rules.div_ceil(8) + self.seq_idx.len().div_ceil(8);
        bitmap_bytes <= self.width() * std::mem::size_of::<T>()
    }

    /// Width-1 sparse right multiplication via activity propagation.
    ///
    /// `buf` must hold `scratch_slots(1)` scalars: the first `width()`
    /// are the value row, and the spare flag row behind it (unused by
    /// the right kernels) is viewed as bytes — one **bit** per rule
    /// plus one **bit** per descriptor position — so the sparse path
    /// costs no extra scratch over the dense one.
    ///
    /// The walk is edge-driven and (nearly) branch-free, because the
    /// branchy alternative — probe an activity flag per rule and per
    /// descriptor — mispredicts on the irregular active pattern and
    /// ends up as slow as the dense kernel it is meant to beat:
    ///
    /// 1. **Seed.** Scatter the non-zeroes into the zero-filled value
    ///    row and, via the [`SparseIndex`], set the bit of every rule
    ///    and descriptor position that reads a seeded column. Bit-sets
    ///    are idempotent, so there is no visited check to mispredict.
    /// 2. **Rule scan.** Walk the rule bitmap in ascending order; each
    ///    set rule evaluates (its operands are settled: they index
    ///    `< cols + r`, and marks only ever point at strictly larger
    ///    rule ids, which the per-byte rescan loop picks up) and marks
    ///    its dependents and descriptor positions in turn. Unreachable
    ///    rules are never visited — they cost one zero byte in the
    ///    scan, not a probe each.
    /// 3. **Scatter.** One ascending scan over the descriptor bitmap
    ///    accumulates `y[row(d)] += m_d · vals[slot(d)]` for exactly
    ///    the marked positions.
    ///
    /// Per-request work therefore scales with the slice of the grammar
    /// the non-zeroes reach, not with `|R|`, `|C|`, or the row count.
    ///
    /// Every produced value equals the dense planned path's bit for
    /// bit: the skipped descriptors contribute exact zeros there
    /// (their subtree never sees a non-zero input), dropping
    /// exact-zero terms from an IEEE summation leaves every non-zero
    /// partial sum unchanged, and the ascending-position scan
    /// accumulates each row's surviving terms in the dense kernel's
    /// window order — in `T`, with one conversion per row, exactly
    /// like the dense row walk. The two arms can differ only in the
    /// sign of zero outputs, where the dense path may round `m · 0.0`
    /// terms to `-0.0`.
    fn right_single_sparse(&self, x_nnz: &[(u32, f64)], y: &mut [f64], buf: &mut [T]) {
        let n = self.width();
        assert!(buf.len() >= 2 * n);
        assert_eq!(y.len(), self.rows);
        debug_assert!(self.sparse_scratch_fits());
        let index = self.sparse_index();
        let rule_bytes = self.num_rules.div_ceil(8);
        let desc_bytes = self.seq_idx.len().div_ceil(8);
        let (vals, spare) = buf.split_at_mut(n);
        // SAFETY: `sparse_scratch_fits` (checked by the dispatcher)
        // guarantees the spare row's `n · sizeof(T)` bytes cover both
        // bitmaps; `u8` has alignment 1 and no invalid bit patterns.
        let (rules, descs) = unsafe {
            let bytes = std::slice::from_raw_parts_mut(
                spare.as_mut_ptr().cast::<u8>(),
                rule_bytes + desc_bytes,
            );
            bytes.split_at_mut(rule_bytes)
        };
        rules.fill(0);
        descs.fill(0);
        // Every slot reads as exact zero until written: inactive rule
        // operands need no masking and unreachable rules never run.
        vals.fill(T::ZERO);
        y.fill(0.0);
        // SAFETY (all loops): `compile`/`read_bytes` guarantee every
        // rule operand index is `< cols + r < n` and every sequence
        // index is `< n`; `vals` has length `n`; the index's dependent
        // rule ids enumerate `0..num_rules`, its descriptor positions
        // `0..|C|`, and its row ids `0..rows` — so no marked bit falls
        // outside either bitmap and no gather leaves its array.
        unsafe {
            for &(j, v) in x_nnz {
                let j = j as usize;
                *vals.get_unchecked_mut(j) = T::from_f64(v);
                let lo = *index.dep_ptr.get_unchecked(j) as usize;
                let hi = *index.dep_ptr.get_unchecked(j + 1) as usize;
                for &rr in index.dep_rule.get_unchecked(lo..hi) {
                    *rules.get_unchecked_mut(rr as usize >> 3) |= 1 << (rr & 7);
                }
                let lo = *index.slot_ptr.get_unchecked(j) as usize;
                let hi = *index.slot_ptr.get_unchecked(j + 1) as usize;
                for &d in index.slot_desc.get_unchecked(lo..hi) {
                    *descs.get_unchecked_mut(d as usize >> 3) |= 1 << (d & 7);
                }
            }
            // Ascending rule-bitmap scan. Marks land only at strictly
            // larger rule ids, so re-reading the current byte until no
            // fresh bits remain keeps the order topological without a
            // worklist.
            for byte in 0..rule_bytes {
                let mut done: u8 = 0;
                loop {
                    let fresh = *rules.get_unchecked(byte) & !done;
                    if fresh == 0 {
                        break;
                    }
                    let b = fresh.trailing_zeros() as usize;
                    done |= 1 << b;
                    let r = (byte << 3) | b;
                    let s = self.cols + r;
                    *vals.get_unchecked_mut(s) =
                        rule_value(vals, &self.rule_mult, &self.rule_idx, r);
                    let lo = *index.dep_ptr.get_unchecked(s) as usize;
                    let hi = *index.dep_ptr.get_unchecked(s + 1) as usize;
                    for &rr in index.dep_rule.get_unchecked(lo..hi) {
                        *rules.get_unchecked_mut(rr as usize >> 3) |= 1 << (rr & 7);
                    }
                    let lo = *index.slot_ptr.get_unchecked(s) as usize;
                    let hi = *index.slot_ptr.get_unchecked(s + 1) as usize;
                    for &d in index.slot_desc.get_unchecked(lo..hi) {
                        *descs.get_unchecked_mut(d as usize >> 3) |= 1 << (d & 7);
                    }
                }
            }
            // Ascending descriptor scan: positions come out in program
            // order, and a row's window is one contiguous run of
            // positions, so its surviving terms arrive back to back —
            // accumulate them in `T` with a single conversion on row
            // change, exactly as the dense window walk does.
            let mut cur_row = usize::MAX;
            let mut acc = T::ZERO;
            for (byte, &word) in descs.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let d = (byte << 3) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = *self.desc_row.get_unchecked(d) as usize;
                    if row != cur_row {
                        if cur_row != usize::MAX {
                            *y.get_unchecked_mut(cur_row) = acc.to_f64();
                        }
                        cur_row = row;
                        acc = T::ZERO;
                    }
                    let slot = *self.seq_idx.get_unchecked(d) as usize;
                    acc = acc + *self.seq_mult.get_unchecked(d) * *vals.get_unchecked(slot);
                }
            }
            if cur_row != usize::MAX {
                *y.get_unchecked_mut(cur_row) = acc.to_f64();
            }
        }
    }

    /// Width-1 sparse right multiplication through the dense kernels:
    /// scatter the non-zeroes into a zeroed input row, then run the
    /// ordinary forward rule pass and row accumulation. The fallback
    /// arm above [`SPARSE_DENSITY_THRESHOLD`].
    fn right_single_scatter(&self, x_nnz: &[(u32, f64)], y: &mut [f64], buf: &mut [T]) {
        assert_eq!(y.len(), self.rows);
        buf[..self.cols].fill(T::ZERO);
        for &(j, v) in x_nnz {
            buf[j as usize] = T::from_f64(v);
        }
        self.eval_rules(buf);
        self.accumulate_rows(0..self.rows, 1, buf, y);
    }

    /// Dispatches a validated sparse multiply to the arm `strategy`
    /// names (`Auto` compares the density against
    /// [`SPARSE_DENSITY_THRESHOLD`]).
    fn right_single_sparse_with(
        &self,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
        buf: &mut [T],
        strategy: SparseStrategy,
    ) {
        let sparse = match strategy {
            SparseStrategy::Activity => true,
            SparseStrategy::Scatter => false,
            SparseStrategy::Auto => {
                x_nnz.len() as f64 <= self.cols as f64 * SPARSE_DENSITY_THRESHOLD
            }
        };
        if sparse && self.sparse_scratch_fits() {
            self.right_single_sparse(x_nnz, y, buf);
        } else {
            self.right_single_scatter(x_nnz, y, buf);
        }
    }
}

/// Whether the 8-lane `f32` kernels may take the AVX2-compiled path.
///
/// The `f64` plans stay on the portable autovectorized build (the
/// baseline target already gives them 128-bit lanes); the `f32` plan is
/// the SIMD-friendly variant, so on x86-64 hosts with AVX2 its 8-lane
/// panel kernels run bodies recompiled at 256-bit width — one vector
/// per lane tile instead of two. FMA is deliberately **not** enabled:
/// the wide build performs the same mul-then-add per lane in the same
/// order, so results stay bit-identical to the portable path (and to
/// the `tests/plan_f32_props.rs` oracle).
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd8() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn simd8() -> bool {
    false
}

/// Rows of the descriptor program bucketed by descriptor count: the
/// order in which every right-product row walk visits rows, at both
/// precisions and every panel width.
///
/// A CSR walk over `row_ptr` runs one variable-trip inner loop per
/// row; on matrices with short rows (a handful of descriptors each)
/// it is bound not by lane arithmetic but by one branch mispredict per
/// row — the flush kills the out-of-order overlap between adjacent
/// rows' accumulation chains. Grouping rows by length makes the trip
/// count constant within each group (the exit branch predicts
/// perfectly after the first row) and lets same-length row **pairs**
/// run as two interleaved independent descriptor streams.
///
/// Each row still accumulates its own descriptors in the original
/// order, so per-row sums are bit-identical to the CSR walk; only the
/// order rows are *visited* changes, and row outputs are disjoint.
/// Derived from `row_ptr` by one counting sort, `O(rows + longest
/// row)`, and never persisted.
#[derive(Debug, Clone)]
struct RowGroups {
    /// Row ids, sorted by (descriptor count, row id).
    rows: Vec<u32>,
    /// Group `g` spans `rows[group_ptr[g]..group_ptr[g+1]]`; every row
    /// in it holds exactly `lens[g]` descriptors.
    group_ptr: Vec<u32>,
    /// Descriptor count per group, strictly increasing.
    lens: Vec<u32>,
}

impl RowGroups {
    /// One stable counting sort of the row ids by descriptor count.
    fn build(row_ptr: &[u32]) -> Self {
        let len_of = |r: usize| (row_ptr[r + 1] - row_ptr[r]) as usize;
        let n = row_ptr.len().saturating_sub(1);
        let max_len = (0..n).map(len_of).max().unwrap_or(0);
        // Rows per length, turned in place into each length's first
        // output slot.
        let mut next = vec![0u32; max_len + 1];
        for r in 0..n {
            next[len_of(r)] += 1;
        }
        let mut group_ptr = vec![0u32];
        let mut lens = Vec::new();
        let mut at = 0u32;
        for (len, slot) in next.iter_mut().enumerate() {
            if *slot > 0 {
                lens.push(len as u32);
                let count = std::mem::replace(slot, at);
                at += count;
                group_ptr.push(at);
            }
        }
        let mut rows = vec![0u32; n];
        for r in 0..n {
            let slot = &mut next[len_of(r)];
            rows[*slot as usize] = r as u32;
            *slot += 1;
        }
        Self {
            rows,
            group_ptr,
            lens,
        }
    }

    /// Every group's descriptor count with its rows inside `range`
    /// (ascending row ids; an inverted range selects none).
    fn spans<'a>(&'a self, range: &Range<usize>) -> impl Iterator<Item = (usize, &'a [u32])> {
        let (start, end) = (range.start, range.end);
        self.lens
            .iter()
            .zip(self.group_ptr.windows(2))
            .map(move |(&len, w)| {
                let span = &self.rows[w[0] as usize..w[1] as usize];
                let lo = span.partition_point(|&r| (r as usize) < start);
                let hi = span.partition_point(|&r| (r as usize) < end).max(lo);
                (len as usize, &span[lo..hi])
            })
    }
}

impl HeapSize for RowGroups {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.group_ptr.heap_bytes() + self.lens.heap_bytes()
    }
}

/// Owning row of each of the `descs` descriptor positions under the
/// CSR index `row_ptr` (positions past the last row stay row `0` and
/// are never read). Marks every row start after the first and takes a
/// prefix sum — no loop per row, whose variable trip count would cost
/// the mispredict the row walks avoid.
fn desc_rows(row_ptr: &[u32], descs: usize) -> Vec<u32> {
    let mut desc_row = vec![0u32; descs];
    let end = row_ptr.last().map_or(0, |&e| e as usize);
    for w in row_ptr.windows(2).skip(1) {
        // An empty row's start repeats the next row's; a start at `end`
        // owns no descriptor.
        if (w[0] as usize) < end {
            desc_row[w[0] as usize] += 1;
        }
    }
    let mut row = 0;
    for d in &mut desc_row[..end] {
        row += *d;
        *d = row;
    }
    desc_row
}

/// AVX2 recompilations of the fixed-width `f32` panel kernels (see
/// [`simd8`]). Each wrapper re-asserts the checked entry points'
/// bounds, then inlines the shared `*_fixed::<8>` body under the wider
/// feature set.
#[cfg(target_arch = "x86_64")]
impl PlanBody<f32> {
    /// # Safety
    /// The CPU must support AVX2 (guard every call with [`simd8`]).
    #[target_feature(enable = "avx,avx2")]
    unsafe fn eval_rules_panel8_avx2(&self, buf: &mut [f32]) {
        self.eval_rules_panel_fixed::<8>(buf);
    }

    /// # Safety
    /// The CPU must support AVX2 (guard every call with [`simd8`]).
    #[target_feature(enable = "avx,avx2")]
    unsafe fn accumulate_rows8_avx2(&self, rows: Range<usize>, buf: &[f32], y_chunk: &mut [f64]) {
        self.accumulate_rows_fixed::<8>(rows, buf, y_chunk);
    }

    /// # Safety
    /// The CPU must support AVX2 (guard every call with [`simd8`]).
    #[target_feature(enable = "avx,avx2")]
    unsafe fn left_panel8_avx2(&self, y_panel: &[f64], x_panel: &mut [f64], buf: &mut [f32]) {
        self.left_panel_fixed::<8>(y_panel, x_panel, buf);
    }
}

/// Portable stand-ins so the [`simd8`]-guarded call sites compile on
/// every architecture; [`simd8`] is constant `false` here, so these
/// never actually run.
#[cfg(not(target_arch = "x86_64"))]
impl PlanBody<f32> {
    unsafe fn eval_rules_panel8_avx2(&self, buf: &mut [f32]) {
        self.eval_rules_panel_fixed::<8>(buf);
    }

    unsafe fn accumulate_rows8_avx2(&self, rows: Range<usize>, buf: &[f32], y_chunk: &mut [f64]) {
        self.accumulate_rows_fixed::<8>(rows, buf, y_chunk);
    }

    unsafe fn left_panel8_avx2(&self, y_panel: &[f64], x_panel: &mut [f64], buf: &mut [f32]) {
        self.left_panel_fixed::<8>(y_panel, x_panel, buf);
    }
}

impl PlanBody<f32> {
    /// [`begin_right`](Self::begin_right) with the `f32` SIMD dispatch:
    /// 8-lane panels take the AVX2-compiled rule pass when the host
    /// supports it.
    fn begin_right_f32(
        &self,
        k: usize,
        x_panel: &[f64],
        buf: &mut [f32],
    ) -> Result<(), MatrixError> {
        let k = k.max(1);
        if k == 8 && simd8() {
            self.load_panel(8, x_panel, buf)?;
            // SAFETY: `simd8` just confirmed AVX2.
            unsafe { self.eval_rules_panel8_avx2(buf) };
            return Ok(());
        }
        self.begin_right(k, x_panel, buf)
    }

    /// [`accumulate_rows`](Self::accumulate_rows) with the `f32` SIMD
    /// dispatch.
    fn accumulate_rows_f32(&self, rows: Range<usize>, k: usize, buf: &[f32], y_chunk: &mut [f64]) {
        if k == 8 && simd8() {
            // SAFETY: `simd8` just confirmed AVX2.
            unsafe { self.accumulate_rows8_avx2(rows, buf, y_chunk) };
            return;
        }
        self.accumulate_rows(rows, k, buf, y_chunk);
    }

    /// [`left_panel`](Self::left_panel) with the `f32` SIMD dispatch.
    fn left_panel_f32(&self, k: usize, y_panel: &[f64], x_panel: &mut [f64], buf: &mut [f32]) {
        if k == 8 && simd8() {
            // SAFETY: `simd8` just confirmed AVX2.
            unsafe { self.left_panel8_avx2(y_panel, x_panel, buf) };
            return;
        }
        self.left_panel(k, y_panel, x_panel, buf);
    }
}

impl<T: Copy> HeapSize for PlanBody<T> {
    fn heap_bytes(&self) -> usize {
        self.rule_mult.heap_bytes()
            + self.rule_idx.heap_bytes()
            + self.seq_mult.heap_bytes()
            + self.seq_idx.heap_bytes()
            + self.row_ptr.heap_bytes()
            + self.block_ptr.heap_bytes()
            + self.desc_row.heap_bytes()
            + self.groups.heap_bytes()
            + self.sparse.get().map_or(0, HeapSize::heap_bytes)
    }
}

/// Magic prefix of a persisted plan blob (see [`KernelPlan::to_bytes`]).
pub const PLAN_MAGIC: &[u8; 8] = b"GCMPLAN1";

/// Precision byte of an `f64` plan blob.
const PLAN_PRECISION_F64: u8 = 1;
/// Precision byte of an `f32` plan blob.
const PLAN_PRECISION_F32: u8 = 2;

/// Reads `n` scalars in their fixed little-endian persisted form,
/// bounds-checked against the remaining input before the one
/// allocation.
fn read_scalars<T: Scalar>(data: &[u8], pos: &mut usize, n: usize) -> Option<Vec<T>> {
    let bytes = n.checked_mul(T::BYTES)?;
    let end = pos.checked_add(bytes)?;
    let chunk = data.get(*pos..end)?;
    let mut out = Vec::with_capacity(n);
    out.extend(chunk.chunks_exact(T::BYTES).map(T::read_le));
    *pos = end;
    Some(out)
}

impl<T: Scalar> PlanBody<T> {
    /// Serialises the descriptor program as a [`PLAN_MAGIC`] blob: a
    /// varint header followed by the six flat arrays in fixed
    /// little-endian form — the layout [`read_bytes`](Self::read_bytes)
    /// loads back with a validated cast.
    fn write_bytes(&self, out: &mut Vec<u8>, precision: u8) {
        out.reserve(
            PLAN_MAGIC.len()
                + 1
                + 50
                + self.rule_mult.len() * (T::BYTES + 4)
                + self.seq_mult.len() * (T::BYTES + 4)
                + (self.row_ptr.len() + self.block_ptr.len()) * 4,
        );
        out.extend_from_slice(PLAN_MAGIC);
        out.push(precision);
        varint::write_u64(out, self.rows as u64);
        varint::write_u64(out, self.cols as u64);
        varint::write_u64(out, self.num_rules as u64);
        varint::write_u64(out, self.seq_idx.len() as u64);
        varint::write_u64(out, (self.block_ptr.len() - 1) as u64);
        for &m in &self.rule_mult {
            m.write_le(out);
        }
        for &i in &self.rule_idx {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &m in &self.seq_mult {
            m.write_le(out);
        }
        for &i in &self.seq_idx {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &p in &self.row_ptr {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &p in &self.block_ptr {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }

    /// Deserialises a [`PLAN_MAGIC`] blob: one exact-length check on the
    /// raw header values (as `u64`, before any cast or allocation), one
    /// copying pass per array, then a re-validation of **every**
    /// invariant [`KernelPlan::compile`] asserts — the `get_unchecked`
    /// descriptor loops run on the strength of these, so a forged blob
    /// must fail here, never in a kernel. No grammar decode and no
    /// recompilation happen on this path.
    fn read_bytes(data: &[u8], precision: u8) -> Option<PlanBody<T>> {
        if data.len() < PLAN_MAGIC.len() + 1 || &data[..PLAN_MAGIC.len()] != PLAN_MAGIC {
            return None;
        }
        if data[PLAN_MAGIC.len()] != precision {
            return None;
        }
        let mut pos = PLAN_MAGIC.len() + 1;
        let rows = varint::read_u64(data, &mut pos)?;
        let cols = varint::read_u64(data, &mut pos)?;
        let num_rules = varint::read_u64(data, &mut pos)?;
        let seq_count = varint::read_u64(data, &mut pos)?;
        let blocks = varint::read_u64(data, &mut pos)?;
        // The compile-time index-space invariants, on the raw u64s.
        if rows > u64::from(u32::MAX) || cols.checked_add(num_rules)? > u64::from(u32::MAX) {
            return None;
        }
        if seq_count >= u64::from(u32::MAX) || blocks == 0 || blocks > num_rules.max(1) {
            return None;
        }
        // Exact remaining length, so no array read can be truncated and
        // no declared count can outsize the input it arrived in.
        let sb = T::BYTES as u64;
        let expected =
            2 * num_rules * (sb + 4) + seq_count * (sb + 4) + (rows + 1 + blocks + 1) * 4;
        if expected != (data.len() - pos) as u64 {
            return None;
        }
        let (rows, cols) = (rows as usize, cols as usize);
        let (num_rules, seq_count) = (num_rules as usize, seq_count as usize);
        let rule_mult = read_scalars::<T>(data, &mut pos, 2 * num_rules)?;
        let rule_idx = crate::serial::read_exact_u32s(data, &mut pos, 2 * num_rules)?;
        let seq_mult = read_scalars::<T>(data, &mut pos, seq_count)?;
        let seq_idx = crate::serial::read_exact_u32s(data, &mut pos, seq_count)?;
        let row_ptr = crate::serial::read_exact_u32s(data, &mut pos, rows.checked_add(1)?)?;
        let block_ptr = crate::serial::read_exact_u32s(data, &mut pos, blocks as usize + 1)?;
        // Block partition: starts at 0, ends at |R|, monotone, and every
        // rule of a block reads strictly below the block's first
        // destination slot (which also implies the per-rule
        // `operand < cols + r` contract).
        if block_ptr.first() != Some(&0) || *block_ptr.last()? as usize != num_rules {
            return None;
        }
        for w in block_ptr.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if lo > hi || hi > num_rules {
                return None;
            }
            let limit = (cols + lo) as u32;
            if rule_idx[2 * lo..2 * hi].iter().any(|&iv| iv >= limit) {
                return None;
            }
        }
        // Every sequence descriptor stays inside the `cols + |R|`
        // scratch buffer.
        let width = (cols + num_rules) as u32;
        if seq_idx.iter().any(|&i| i >= width) {
            return None;
        }
        // CSR row index: starts at 0, ends at the descriptor count,
        // monotone — the brackets the row-range kernels slice with.
        if row_ptr.first() != Some(&0) || *row_ptr.last()? as usize != seq_count {
            return None;
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        Some(PlanBody {
            rows,
            cols,
            num_rules,
            rule_mult,
            rule_idx,
            seq_mult,
            desc_row: desc_rows(&row_ptr, seq_count),
            groups: RowGroups::build(&row_ptr),
            seq_idx,
            row_ptr,
            block_ptr,
            sparse: std::sync::OnceLock::new(),
        })
    }
}

/// A plan's descriptor program at its run-time precision.
#[derive(Debug, Clone)]
enum Body {
    F64(PlanBody<f64>),
    F32(PlanBody<f32>),
}

/// Evaluates `$e` with `$b` bound to the plan's [`PlanBody`] of either
/// precision — for the code that is precision-independent.
macro_rules! on_body {
    ($plan:expr, $b:ident => $e:expr) => {
        match &$plan.body {
            Body::F64($b) => $e,
            Body::F32($b) => $e,
        }
    };
}

/// A [`CompressedMatrix`] compiled into branchless, division-free
/// operand descriptors (see the [module docs](self) for the layout).
///
/// Construction goes through [`CompressedMatrix::plan`] /
/// [`KernelPlan::compile`], which resolve and bounds-validate every
/// descriptor once; the kernels then run without per-symbol bounds
/// checks, branches, divisions, or decode work.
///
/// The arithmetic precision is chosen at run time:
/// [`compile`](Self::compile) builds an `f64` plan,
/// [`to_f32`](Self::to_f32) demotes it to single precision, and
/// [`from_bytes`](Self::from_bytes) restores whichever precision the
/// blob records; [`is_f32`](Self::is_f32) reports it. Panels and
/// scratch buffers are `f64` at either precision, so callers never
/// branch on it.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    body: Body,
}

impl KernelPlan {
    /// Compiles `m` into descriptor form: one `O(|C| + |R|)` pass that
    /// performs every terminal `div`/`mod` split (via [`FastDiv`]),
    /// value-dictionary lookup, and encoding decode exactly once.
    ///
    /// # Panics
    /// Panics if `C` holds ≥ `u32::MAX` non-separator symbols (the CSR
    /// index is 32-bit), or if a descriptor resolves out of range.
    /// The range checks can only fire on structural-invariant
    /// violations — rules referencing non-earlier symbols, out-of-range
    /// sequence symbols — which no `compress`/`from_raw_parts`-built
    /// matrix has, but which e.g. a release-mode `from_slp` with a
    /// mismatched grammar could smuggle past its `debug_assert`s.
    /// Validating here is what lets the kernels run their descriptor
    /// loops without per-symbol bounds checks.
    pub fn compile(m: &CompressedMatrix) -> Self {
        PLAN_COMPILES.fetch_add(1, Ordering::Relaxed);
        let rows = m.rows();
        let cols = m.cols();
        let first_nt = m.first_nonterminal();
        let q = m.num_rules();
        let ext = m.rule_ext();
        // Variable-arity (MR-RePair) rules are *lowered* here: an
        // arity-p rule becomes a left-associative chain of p−1 binary
        // descriptor rules, the last of which owns the original rule's
        // value. The chain accumulates in exactly the streaming
        // kernels' order (pair first, then each tail symbol), the
        // lowered program is an ordinary binary plan — every kernel,
        // the block partition, the sparse index, and the persisted
        // blob format apply unchanged — and binary grammars lower to
        // themselves, so their plans (and blobs) are bit-identical to
        // before.
        let q_slots = q + ext.map_or(0, crate::encoding::RuleExt::total_tail_syms);
        assert!(
            cols as u64 + q_slots as u64 <= u32::MAX as u64,
            "scratch index space exceeds u32"
        );
        let fd = FastDiv::new((cols as u32).max(1));
        let values = m.values();
        let cols32 = cols as u32;
        // Lowered scratch slot of each original rule (identity for
        // binary grammars; the chain's last link for wide rules).
        let mut slot_of: Vec<u32> = Vec::with_capacity(q);
        // The one-time terminal table: every symbol resolves to
        // (premultiplied value, scratch index).
        let resolve = |s: u32, slot_of: &[u32]| -> (f64, u32) {
            if s < first_nt {
                let (l, j) = fd.div_rem(s - 1);
                (values[l as usize], j)
            } else {
                (1.0, cols32 + slot_of[(s - first_nt) as usize])
            }
        };
        let mut rule_mult = Vec::with_capacity(2 * q_slots);
        let mut rule_idx = Vec::with_capacity(2 * q_slots);
        // Greedy dependency-free block partition: a block ends exactly
        // when a rule reads a slot the block itself writes.
        let mut block_ptr = vec![0u32];
        let mut block_start = 0usize;
        // Appends one operand of the lowered rule `rule_idx.len() / 2`,
        // maintaining the partition and the kernels' SAFETY contract
        // (a rule reads only input slots and earlier rule slots).
        let mut push_operand =
            |mv: f64, iv: u32, rule_mult: &mut Vec<f64>, rule_idx: &mut Vec<u32>| {
                let lr = rule_idx.len() / 2;
                assert!(
                    (iv as u64) < cols as u64 + lr as u64,
                    "rule {lr} operand out of range"
                );
                if iv as usize >= cols + block_start {
                    block_ptr.push(lr as u32);
                    block_start = lr;
                }
                rule_mult.push(mv);
                rule_idx.push(iv);
            };
        let mut tails = crate::encoding::RuleExt::cursor(ext);
        m.rule_store().for_each_rule(|r, a, b| {
            let (ma, ia) = resolve(a, &slot_of);
            push_operand(ma, ia, &mut rule_mult, &mut rule_idx);
            let (mb, ib) = resolve(b, &slot_of);
            push_operand(mb, ib, &mut rule_mult, &mut rule_idx);
            tails.with_tail(r, |s| {
                // Chain link: previous partial sum plus one tail symbol.
                let prev = (rule_idx.len() / 2 - 1) as u32;
                push_operand(1.0, cols32 + prev, &mut rule_mult, &mut rule_idx);
                let (ms, is) = resolve(s, &slot_of);
                push_operand(ms, is, &mut rule_mult, &mut rule_idx);
            });
            slot_of.push((rule_idx.len() / 2 - 1) as u32);
        });
        debug_assert_eq!(rule_idx.len(), 2 * q_slots);
        block_ptr.push(q_slots as u32);
        let seq = m.seq_store();
        let mut seq_mult = Vec::with_capacity(seq.len().saturating_sub(rows));
        let mut seq_idx = Vec::with_capacity(seq.len().saturating_sub(rows));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        seq.for_each(|s| {
            if s == SEPARATOR {
                row_ptr.push(seq_idx.len() as u32);
            } else {
                let (mv, iv) = resolve(s, &slot_of);
                // The kernels' SAFETY contract: every sequence
                // descriptor stays inside the `cols + |R|` buffer.
                assert!(
                    (iv as u64) < cols as u64 + q_slots as u64,
                    "sequence symbol out of range"
                );
                seq_mult.push(mv);
                seq_idx.push(iv);
            }
        });
        assert!(
            seq_idx.len() < u32::MAX as usize,
            "sequence descriptor count exceeds the 32-bit CSR index"
        );
        debug_assert_eq!(row_ptr.len(), rows + 1, "separator count mismatch");
        Self {
            body: Body::F64(PlanBody {
                rows,
                cols,
                num_rules: q_slots,
                rule_mult,
                rule_idx,
                seq_mult,
                desc_row: desc_rows(&row_ptr, seq_idx.len()),
                groups: RowGroups::build(&row_ptr),
                seq_idx,
                row_ptr,
                block_ptr,
                sparse: std::sync::OnceLock::new(),
            }),
        }
    }

    /// This plan in single precision: the same descriptor program with
    /// `f32` multipliers and arithmetic (a plain copy when the plan
    /// already is `f32`).
    pub fn to_f32(&self) -> KernelPlan {
        let b = match &self.body {
            Body::F64(b) => b,
            Body::F32(_) => return self.clone(),
        };
        KernelPlan {
            body: Body::F32(PlanBody {
                rows: b.rows,
                cols: b.cols,
                num_rules: b.num_rules,
                rule_mult: b.rule_mult.iter().map(|&v| v as f32).collect(),
                rule_idx: b.rule_idx.clone(),
                seq_mult: b.seq_mult.iter().map(|&v| v as f32).collect(),
                seq_idx: b.seq_idx.clone(),
                row_ptr: b.row_ptr.clone(),
                block_ptr: b.block_ptr.clone(),
                desc_row: desc_rows(&b.row_ptr, b.seq_idx.len()),
                groups: RowGroups::build(&b.row_ptr),
                sparse: std::sync::OnceLock::new(),
            }),
        }
    }

    /// Whether this plan evaluates in single precision.
    pub fn is_f32(&self) -> bool {
        matches!(self.body, Body::F32(..))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        on_body!(self, b => b.rows)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        on_body!(self, b => b.cols)
    }

    /// Number of grammar rules `|R|`.
    pub fn num_rules(&self) -> usize {
        on_body!(self, b => b.num_rules)
    }

    /// Number of non-separator descriptors compiled from `C`.
    pub fn seq_descriptors(&self) -> usize {
        on_body!(self, b => b.seq_idx.len())
    }

    /// Number of dependency-free rule blocks the compile pass
    /// discovered (1 block = the whole rule pass is order-independent;
    /// `num_rules` blocks = a fully serial chain).
    pub fn rule_blocks(&self) -> usize {
        on_body!(self, b => b.block_ptr.len().saturating_sub(1))
    }

    /// Required scratch length **in `f64` units** for batch width `k`
    /// (`k = 1` for the single-vector kernels): the `(cols + |R|) × k`
    /// panel plus the `cols + |R|` nonzero-flag row the batched left
    /// kernel uses. An `f32` plan packs two slots per `f64` word, so
    /// its length is about half, and the same
    /// [`gcm_matrix::Workspace`] buffers back both precisions. Serving
    /// loops draw one buffer of this length and reuse it across calls.
    pub fn scratch_len(&self, k: usize) -> usize {
        match &self.body {
            Body::F64(b) => b.scratch_slots(k),
            Body::F32(b) => b.scratch_slots(k).div_ceil(2),
        }
    }

    fn check_panels(&self, x_len: usize, y_len: usize, k: usize) -> Result<(), MatrixError> {
        on_body!(self, b => b.check_panels(x_len, y_len, k))
    }

    fn check_scratch(&self, len: usize, k: usize) -> Result<(), MatrixError> {
        if len != self.scratch_len(k) {
            return Err(MatrixError::DimensionMismatch {
                expected: self.scratch_len(k),
                actual: len,
                what: "plan scratch length",
            });
        }
        Ok(())
    }

    /// Right multiplication `y = M·x` (planned Thm 3.4). `buf` must
    /// have length [`scratch_len(1)`](Self::scratch_len).
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`).
    pub fn right_multiply(
        &self,
        x: &[f64],
        y: &mut [f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.right_multiply_panel(1, x, y, buf)
    }

    /// Left multiplication `xᵗ = yᵗ·M` (planned Thm 3.10). `buf` must
    /// have length [`scratch_len(1)`](Self::scratch_len).
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`).
    pub fn left_multiply(
        &self,
        y: &[f64],
        x: &mut [f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.left_multiply_panel(1, y, x, buf)
    }

    /// Batched right multiplication over row-major `k`-wide panels:
    /// [`begin_right_panel`](Self::begin_right_panel) followed by a full
    /// [`accumulate_rows_panel`](Self::accumulate_rows_panel).
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`).
    pub fn right_multiply_panel(
        &self,
        k: usize,
        x_panel: &[f64],
        y_panel: &mut [f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        if k == 0 {
            return self.check_panels(x_panel.len(), y_panel.len(), 0);
        }
        self.check_panels(x_panel.len(), y_panel.len(), k)?;
        self.begin_right_panel(k, x_panel, buf)?;
        self.accumulate_rows_panel(0..self.rows(), k, buf, y_panel);
        Ok(())
    }

    /// The sequential head of a right multiplication: copies the input
    /// panel into `buf` and runs the forward rule pass. Afterwards `buf`
    /// is read-only and disjoint row ranges can be accumulated
    /// concurrently with [`accumulate_rows_panel`](Self::accumulate_rows_panel)
    /// — the split the serve layer's row-parallel dispatch uses.
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`).
    pub fn begin_right_panel(
        &self,
        k: usize,
        x_panel: &[f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        let k = k.max(1);
        self.check_scratch(buf.len(), k)?;
        match &self.body {
            Body::F64(b) => b.begin_right(k, x_panel, buf),
            Body::F32(b) => b.begin_right_f32(k, x_panel, scratch32(b, k, buf)),
        }
    }

    /// Accumulates the output rows `rows` into `y_chunk` (length
    /// `rows.len() · k`, `k`-wide row-major) from a scratch buffer
    /// prepared by [`begin_right_panel`](Self::begin_right_panel).
    /// `buf` is only read — this is the row-range half of the planned
    /// right multiplication, safe to run concurrently over disjoint
    /// ranges.
    ///
    /// # Panics
    /// Panics if `rows` is out of range, `y_chunk` has the wrong
    /// length, or `buf` is shorter than the `(cols + |R|) · k` panel.
    pub fn accumulate_rows_panel(
        &self,
        rows: Range<usize>,
        k: usize,
        buf: &[f64],
        y_chunk: &mut [f64],
    ) {
        match &self.body {
            Body::F64(b) => b.accumulate_rows(rows, k, buf, y_chunk),
            Body::F32(b) => b.accumulate_rows_f32(rows, k, as_f32(buf), y_chunk),
        }
    }

    /// Batched left multiplication over row-major panels: one forward
    /// pass over the compiled `C` descriptors seeds the scratch panel
    /// (terminal weight goes straight into the output region,
    /// nonterminal weight into the rule region), then the backward rule
    /// pass pushes weights down. Untouched rules are skipped in O(1)
    /// via the scratch buffer's flag row.
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`).
    pub fn left_multiply_panel(
        &self,
        k: usize,
        y_panel: &[f64],
        x_panel: &mut [f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        if k == 0 {
            return self.check_panels(x_panel.len(), y_panel.len(), 0);
        }
        self.check_panels(x_panel.len(), y_panel.len(), k)?;
        self.check_scratch(buf.len(), k)?;
        match &self.body {
            Body::F64(b) => b.left_panel(k, y_panel, x_panel, buf),
            Body::F32(b) => b.left_panel_f32(k, y_panel, x_panel, scratch32(b, k, buf)),
        }
        Ok(())
    }

    /// Sparse-input right multiplication `y = M·x` from the non-zero
    /// entries of `x` alone (strictly increasing column indices — see
    /// [`validate_sparse_x`]). Below [`SPARSE_DENSITY_THRESHOLD`] this
    /// runs the activity-propagation walk, touching only the rules and
    /// row descriptors reachable from the non-zero slots; above it the
    /// input is scattered densely and the ordinary planned kernels run.
    /// `buf` must have length [`scratch_len(1)`](Self::scratch_len) —
    /// the sparse walk reuses the flag row as its activity bytes, so
    /// no extra scratch is needed.
    ///
    /// Produced values equal the dense planned path's exactly; only
    /// the sign of zero outputs may differ.
    ///
    /// # Errors
    /// Fails on dimension mismatches (including `buf`) and on invalid
    /// sparse input (out-of-range, non-increasing, or duplicate
    /// indices; more entries than columns).
    pub fn right_multiply_sparse(
        &self,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
        buf: &mut [f64],
    ) -> Result<(), MatrixError> {
        self.right_multiply_sparse_with(x_nnz, y, buf, SparseStrategy::Auto)
    }

    /// [`right_multiply_sparse`](Self::right_multiply_sparse) with the
    /// execution arm pinned — the density-sweep benches and the
    /// differential tests drive both arms explicitly through this.
    ///
    /// # Errors
    /// As [`right_multiply_sparse`](Self::right_multiply_sparse).
    pub fn right_multiply_sparse_with(
        &self,
        x_nnz: &[(u32, f64)],
        y: &mut [f64],
        buf: &mut [f64],
        strategy: SparseStrategy,
    ) -> Result<(), MatrixError> {
        if y.len() != self.rows() {
            return Err(MatrixError::DimensionMismatch {
                expected: self.rows(),
                actual: y.len(),
                what: "y length",
            });
        }
        self.check_scratch(buf.len(), 1)?;
        validate_sparse_x(self.cols(), x_nnz)?;
        match &self.body {
            Body::F64(b) => b.right_single_sparse_with(x_nnz, y, buf, strategy),
            Body::F32(b) => b.right_single_sparse_with(x_nnz, y, scratch32(b, 1, buf), strategy),
        }
        Ok(())
    }

    /// Serialises the compiled plan as a [`PLAN_MAGIC`] blob: a
    /// precision byte, then fixed little-endian copies of the six
    /// descriptor arrays behind a varint dimension header. The form is
    /// what makes plan persistence pay —
    /// [`from_bytes`](Self::from_bytes) restores it with straight array
    /// copies, no RePair decode and no recompile. The row tables
    /// derived from `row_ptr` (row groups, descriptor rows) are not
    /// persisted.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.body {
            Body::F64(b) => b.write_bytes(&mut out, PLAN_PRECISION_F64),
            Body::F32(b) => b.write_bytes(&mut out, PLAN_PRECISION_F32),
        }
        out
    }

    /// Deserialises a blob written by [`to_bytes`](Self::to_bytes) at
    /// the precision its tag byte records — a validated cast into
    /// freshly sized buffers that re-checks every structural invariant
    /// [`compile`](Self::compile) asserts (the kernels'
    /// `get_unchecked` loops depend on them), and performs **zero**
    /// grammar decode and **zero** plan compilation ([`plan_compiles`]
    /// stays flat). The row tables are rebuilt from the validated
    /// `row_ptr` in `O(rows + |C|)`, independent of grammar size.
    /// `None` on any violation, including an unknown precision tag.
    pub fn from_bytes(data: &[u8]) -> Option<KernelPlan> {
        let body = match *data.get(PLAN_MAGIC.len())? {
            PLAN_PRECISION_F64 => Body::F64(PlanBody::read_bytes(data, PLAN_PRECISION_F64)?),
            PLAN_PRECISION_F32 => Body::F32(PlanBody::read_bytes(data, PLAN_PRECISION_F32)?),
            _ => return None,
        };
        Some(KernelPlan { body })
    }
}

impl HeapSize for KernelPlan {
    fn heap_bytes(&self) -> usize {
        on_body!(self, b => b.heap_bytes())
    }
}

/// Views an `f64` workspace buffer as twice as many `f32` slots.
///
/// `f64` has size 8 / alignment 8; `f32` size 4 / alignment 4, and
/// neither type has invalid bit patterns — so the reinterpretation is
/// layout-sound and lets the `f32` plans draw scratch from the serve
/// layer's existing [`gcm_matrix::Workspace`] free lists without a
/// second buffer pool.
fn as_f32_mut(buf: &mut [f64]) -> &mut [f32] {
    // SAFETY: see above — same allocation and byte length, looser
    // alignment, both element types valid for every bit pattern.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<f32>(), buf.len() * 2) }
}

/// Read-only counterpart of [`as_f32_mut`].
fn as_f32(buf: &[f64]) -> &[f32] {
    // SAFETY: as in `as_f32_mut`.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<f32>(), buf.len() * 2) }
}

/// The `f32` view of a checked `f64` scratch buffer, trimmed to the
/// exact slot count `body`'s kernels expect at batch width `k`.
fn scratch32<'b>(body: &PlanBody<f32>, k: usize, buf: &'b mut [f64]) -> &'b mut [f32] {
    &mut as_f32_mut(buf)[..body.scratch_slots(k)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use gcm_matrix::{CsrvMatrix, DenseMatrix};

    /// The `f64` descriptor program of a freshly compiled plan.
    fn f64_body(plan: &KernelPlan) -> &PlanBody<f64> {
        match &plan.body {
            Body::F64(b) => b,
            Body::F32(_) => panic!("compiled plans are f64"),
        }
    }

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
    fn planned_kernels_match_dense_all_encodings() {
        let dense = repetitive(48, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..48).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut y_ref = vec![0.0; 48];
        let mut x_ref = vec![0.0; 9];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let plan = cm.plan();
            assert_eq!(plan.rows(), 48);
            assert_eq!(plan.cols(), 9);
            assert_eq!(plan.num_rules(), cm.num_rules());
            assert!(plan.rule_blocks() <= plan.num_rules().max(1));
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut y = vec![0.0; 48];
            plan.right_multiply(&x, &mut y, &mut buf).unwrap();
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "{} right", enc.name());
            }
            let mut xo = vec![0.0; 9];
            plan.left_multiply(&yv, &mut xo, &mut buf).unwrap();
            for (a, b) in xo.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{} left", enc.name());
            }
        }
    }

    #[test]
    fn f32_plan_tracks_dense_within_f32_precision() {
        let dense = repetitive(48, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReFse);
        let plan = cm.plan();
        let plan32 = plan.to_f32();
        assert!(!plan.is_f32() && plan32.is_f32());
        assert!(plan32.to_f32().is_f32(), "demotion is idempotent");
        assert_eq!(plan32.rows(), 48);
        assert_eq!(plan32.cols(), 9);
        assert_eq!(plan32.num_rules(), plan.num_rules());
        assert_eq!(plan32.rule_blocks(), plan.rule_blocks());
        assert_eq!(plan32.seq_descriptors(), plan.seq_descriptors());
        // Half the multiplier heap (indices are shared u32 either way),
        // and roughly half the scratch in f64 units.
        assert!(plan32.heap_bytes() < plan.heap_bytes());
        assert_eq!(plan32.scratch_len(4), plan.scratch_len(4).div_ceil(2));
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..48).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut y_ref = vec![0.0; 48];
        let mut x_ref = vec![0.0; 9];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        let mut buf = vec![0.0; plan32.scratch_len(1)];
        let mut y = vec![0.0; 48];
        plan32.right_multiply(&x, &mut y, &mut buf).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-3, "f32 right");
        }
        let mut xo = vec![0.0; 9];
        plan32.left_multiply(&yv, &mut xo, &mut buf).unwrap();
        for (a, b) in xo.iter().zip(&x_ref) {
            assert!((a - b).abs() < 1e-3, "f32 left");
        }
    }

    #[test]
    fn f32_row_ranges_compose_to_the_full_product() {
        let dense = repetitive(37, 7);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let plan32 = CompressedMatrix::compress(&csrv, Encoding::ReIv)
            .plan()
            .to_f32();
        let k = 3usize;
        let x_panel: Vec<f64> = (0..7 * k).map(|i| (i % 11) as f64 - 5.0).collect();
        let mut whole = vec![0.0; 37 * k];
        let mut buf = vec![0.0; plan32.scratch_len(k)];
        plan32
            .right_multiply_panel(k, &x_panel, &mut whole, &mut buf)
            .unwrap();
        let mut pieced = vec![0.0; 37 * k];
        plan32.begin_right_panel(k, &x_panel, &mut buf).unwrap();
        for (lo, hi) in [(0usize, 10usize), (10, 30), (30, 37)] {
            plan32.accumulate_rows_panel(lo..hi, k, &buf, &mut pieced[lo * k..hi * k]);
        }
        assert_eq!(whole, pieced);
    }

    #[test]
    fn rule_blocks_respect_the_independence_invariant() {
        let dense = repetitive(64, 12);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let plan = cm.plan();
        let b = f64_body(&plan);
        assert_eq!(b.block_ptr.first(), Some(&0));
        assert_eq!(*b.block_ptr.last().unwrap() as usize, b.num_rules);
        for w in b.block_ptr.windows(2) {
            assert!(w[0] <= w[1]);
            let lo = w[0] as usize;
            for r in lo..w[1] as usize {
                for op in [2 * r, 2 * r + 1] {
                    assert!(
                        (b.rule_idx[op] as usize) < b.cols + lo,
                        "rule {r} depends on its own block"
                    );
                }
            }
        }
    }

    #[test]
    fn row_ranges_compose_to_the_full_product() {
        let dense = repetitive(37, 7);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let plan = cm.plan();
        let k = 3usize;
        let x_panel: Vec<f64> = (0..7 * k).map(|i| (i % 11) as f64 - 5.0).collect();
        let mut whole = vec![0.0; 37 * k];
        let mut buf = vec![0.0; plan.scratch_len(k)];
        plan.right_multiply_panel(k, &x_panel, &mut whole, &mut buf)
            .unwrap();
        // The same product assembled from three disjoint row ranges.
        let mut pieced = vec![0.0; 37 * k];
        plan.begin_right_panel(k, &x_panel, &mut buf).unwrap();
        for (lo, hi) in [(0usize, 10usize), (10, 30), (30, 37)] {
            plan.accumulate_rows_panel(lo..hi, k, &buf, &mut pieced[lo * k..hi * k]);
        }
        assert_eq!(whole, pieced);
    }

    #[test]
    fn dimension_and_scratch_checks() {
        let dense = repetitive(6, 5);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let plan = CompressedMatrix::compress(&csrv, Encoding::Re32).plan();
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut y = vec![0.0; 6];
        assert!(plan.right_multiply(&[0.0; 3], &mut y, &mut buf).is_err());
        let mut short = vec![0.0; plan.scratch_len(1) - 1];
        assert!(plan.right_multiply(&[0.0; 5], &mut y, &mut short).is_err());
        let mut x = vec![0.0; 5];
        assert!(plan.left_multiply(&[0.0; 2], &mut x, &mut buf).is_err());
        let plan32 = plan.to_f32();
        let mut buf32 = vec![0.0; plan32.scratch_len(1)];
        assert!(plan32
            .right_multiply(&[0.0; 3], &mut y, &mut buf32)
            .is_err());
        let mut long32 = vec![0.0; plan32.scratch_len(1) + 1];
        assert!(plan32
            .right_multiply(&[0.0; 5], &mut y, &mut long32)
            .is_err());
    }

    #[test]
    fn plan_blobs_roundtrip_bit_exact() {
        let dense = repetitive(48, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..48).map(|i| ((i % 5) as f64) - 2.0).collect();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let plan = cm.plan();
            let bytes = plan.to_bytes();
            let back = KernelPlan::from_bytes(&bytes).expect("valid blob");
            assert!(!back.is_f32(), "the blob's tag picks the precision");
            assert_eq!(back.rows(), plan.rows());
            assert_eq!(back.cols(), plan.cols());
            assert_eq!(back.num_rules(), plan.num_rules());
            assert_eq!(back.seq_descriptors(), plan.seq_descriptors());
            assert_eq!(back.rule_blocks(), plan.rule_blocks());
            // Same descriptors => bit-identical products.
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut y_a = vec![0.0; 48];
            let mut y_b = vec![0.0; 48];
            plan.right_multiply(&x, &mut y_a, &mut buf).unwrap();
            back.right_multiply(&x, &mut y_b, &mut buf).unwrap();
            assert_eq!(y_a, y_b, "{} right", enc.name());
            let mut x_a = vec![0.0; 9];
            let mut x_b = vec![0.0; 9];
            plan.left_multiply(&yv, &mut x_a, &mut buf).unwrap();
            back.left_multiply(&yv, &mut x_b, &mut buf).unwrap();
            assert_eq!(x_a, x_b, "{} left", enc.name());
            // f32 precision: its own tag, its own roundtrip, rebuilt
            // row groups included in the heap accounting.
            let plan32 = plan.to_f32();
            let bytes32 = plan32.to_bytes();
            assert_ne!(bytes32[PLAN_MAGIC.len()], bytes[PLAN_MAGIC.len()]);
            let back32 = KernelPlan::from_bytes(&bytes32).expect("valid f32 blob");
            assert!(back32.is_f32(), "the blob's tag picks the precision");
            assert_eq!(back32.heap_bytes(), plan32.heap_bytes());
            let k = 8usize;
            let x_panel: Vec<f64> = (0..9 * k).map(|i| (i % 7) as f64 * 0.5 - 1.0).collect();
            let mut buf32 = vec![0.0; plan32.scratch_len(k)];
            let mut yp_a = vec![0.0; 48 * k];
            let mut yp_b = vec![0.0; 48 * k];
            plan32
                .right_multiply_panel(k, &x_panel, &mut yp_a, &mut buf32)
                .unwrap();
            back32
                .right_multiply_panel(k, &x_panel, &mut yp_b, &mut buf32)
                .unwrap();
            assert_eq!(yp_a, yp_b, "{} f32 right", enc.name());
        }
    }

    #[test]
    fn forged_plan_blobs_are_rejected() {
        let dense = repetitive(24, 6);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let plan = CompressedMatrix::compress(&csrv, Encoding::Re32).plan();
        // `from_bytes` branches on the precision tag, so both arms get
        // the same forgeries.
        for (bytes, other_tag) in [
            (plan.to_bytes(), PLAN_PRECISION_F32),
            (plan.to_f32().to_bytes(), PLAN_PRECISION_F64),
        ] {
            let tag = bytes[PLAN_MAGIC.len()];
            // Truncation at every prefix length short of the full blob.
            for end in (0..bytes.len()).step_by(13) {
                assert!(
                    KernelPlan::from_bytes(&bytes[..end]).is_none(),
                    "tag {tag} len {end}"
                );
            }
            // Trailing garbage breaks the exact-length contract.
            let mut long = bytes.clone();
            long.push(0);
            assert!(KernelPlan::from_bytes(&long).is_none(), "tag {tag}");
            // An out-of-range descriptor index (scratch slot past
            // `cols + |R|`) must be caught by the re-validation pass
            // even though the blob is otherwise well-formed. Cheap
            // proxy: flip bytes throughout the body and require every
            // accepted mutation to still multiply without panicking.
            let x = [1.0; 6];
            for i in (PLAN_MAGIC.len() + 1..bytes.len()).step_by(5) {
                let mut bad = bytes.clone();
                bad[i] = bad[i].wrapping_add(0x40);
                if let Some(p) = KernelPlan::from_bytes(&bad) {
                    let mut buf = vec![0.0; p.scratch_len(1)];
                    let mut y = vec![0.0; p.rows()];
                    let _ = p.right_multiply(&x[..p.cols().min(6)], &mut y, &mut buf);
                }
            }
            // Bad magic; unknown precision tag; the other precision's
            // tag (its scalar width breaks the exact-length check).
            let mut bad = bytes.clone();
            bad[0] ^= 0xff;
            assert!(KernelPlan::from_bytes(&bad).is_none(), "tag {tag}");
            for forged in [9, 0, other_tag] {
                let mut bad = bytes.clone();
                bad[PLAN_MAGIC.len()] = forged;
                assert!(
                    KernelPlan::from_bytes(&bad).is_none(),
                    "tag {tag} forged as {forged}"
                );
            }
        }
    }

    #[test]
    fn sparse_multiply_matches_dense_planned_on_both_arms() {
        let dense = repetitive(48, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        // Several sparsity patterns, including all-zero and one-hot.
        let patterns: Vec<Vec<(u32, f64)>> = vec![
            vec![],
            vec![(0, 1.0)],
            vec![(8, -2.5)],
            vec![(4, 0.75)],
            vec![(1, 1.0), (2, -1.0), (7, 3.5)],
            (0..9).map(|j| (j as u32, j as f64 * 0.5 - 2.0)).collect(),
        ];
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let plan = cm.plan();
            let plan32 = plan.to_f32();
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut buf32 = vec![0.0; plan32.scratch_len(1)];
            for nnz in &patterns {
                let mut x = vec![0.0; 9];
                for &(j, v) in nnz {
                    x[j as usize] = v;
                }
                let mut y_ref = vec![0.0; 48];
                plan.right_multiply(&x, &mut y_ref, &mut buf).unwrap();
                let mut y_ref32 = vec![0.0; 48];
                plan32.right_multiply(&x, &mut y_ref32, &mut buf32).unwrap();
                for strat in [
                    SparseStrategy::Auto,
                    SparseStrategy::Activity,
                    SparseStrategy::Scatter,
                ] {
                    let mut y = vec![f64::NAN; 48];
                    plan.right_multiply_sparse_with(nnz, &mut y, &mut buf, strat)
                        .unwrap();
                    assert_eq!(y, y_ref, "{} nnz={} {strat:?}", enc.name(), nnz.len());
                    let mut y32 = vec![f64::NAN; 48];
                    plan32
                        .right_multiply_sparse_with(nnz, &mut y32, &mut buf32, strat)
                        .unwrap();
                    assert_eq!(
                        y32,
                        y_ref32,
                        "{} f32 nnz={} {strat:?}",
                        enc.name(),
                        nnz.len()
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_input_validation_rejects_malformed_vectors() {
        assert!(validate_sparse_x(5, &[(0, 1.0), (4, 2.0)]).is_ok());
        assert!(validate_sparse_x(5, &[]).is_ok());
        // Out of range.
        assert!(validate_sparse_x(5, &[(5, 1.0)]).is_err());
        // Duplicate and unsorted indices.
        assert!(validate_sparse_x(5, &[(2, 1.0), (2, 2.0)]).is_err());
        assert!(validate_sparse_x(5, &[(3, 1.0), (1, 2.0)]).is_err());
        // More entries than columns (only reachable with duplicates,
        // but the count check must fire first and cheaply).
        let too_many: Vec<(u32, f64)> = (0..6).map(|i| (i % 5, 1.0)).collect();
        assert!(validate_sparse_x(5, &too_many).is_err());

        let dense = repetitive(12, 6);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let plan = CompressedMatrix::compress(&csrv, Encoding::Re32).plan();
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut y = vec![0.0; 12];
        assert!(plan
            .right_multiply_sparse(&[(6, 1.0)], &mut y, &mut buf)
            .is_err());
        assert!(plan
            .right_multiply_sparse(&[(1, 1.0), (1, 2.0)], &mut y, &mut buf)
            .is_err());
        let mut y_short = vec![0.0; 11];
        assert!(plan
            .right_multiply_sparse(&[(0, 1.0)], &mut y_short, &mut buf)
            .is_err());
        let mut short = vec![0.0; plan.scratch_len(1) - 1];
        assert!(plan
            .right_multiply_sparse(&[(0, 1.0)], &mut y, &mut short)
            .is_err());
    }

    fn mr_compress(csrv: &CsrvMatrix, enc: Encoding) -> CompressedMatrix {
        let mr = gcm_repair::RePair::new().compress_mr(
            csrv.symbols(),
            csrv.terminal_limit(),
            Some(SEPARATOR),
        );
        CompressedMatrix::from_slp(csrv, &mr, enc)
    }

    #[test]
    fn mr_grammar_plans_match_streaming_and_dense() {
        let dense = repetitive(64, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let yv: Vec<f64> = (0..64).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut y_ref = vec![0.0; 64];
        let mut x_ref = vec![0.0; 9];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = mr_compress(&csrv, enc);
            assert!(
                cm.rule_ext().is_some(),
                "{} grammar has no wide rules",
                enc.name()
            );
            let plan = cm.plan();
            // Wide rules lower into chains: one extra lowered rule per
            // tail symbol, and the lowered program is plain binary.
            assert_eq!(plan.num_rules(), cm.lowered_rules(), "{}", enc.name());
            assert!(plan.num_rules() > cm.num_rules(), "{}", enc.name());
            // The left-associative chain reproduces the streaming
            // kernel's accumulation order, so the forward pass is
            // bit-identical to the streaming kernel.
            let mut w = vec![0.0; cm.num_rules()];
            let mut y_s = vec![0.0; 64];
            cm.right_multiply_panel_with(1, &x, &mut y_s, &mut w)
                .unwrap();
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut y_p = vec![0.0; 64];
            plan.right_multiply(&x, &mut y_p, &mut buf).unwrap();
            assert_eq!(y_p, y_s, "{} planned right vs streaming", enc.name());
            // Left multiply scatters in a different (chain) order, so
            // compare against the dense oracle numerically.
            let mut x_p = vec![0.0; 9];
            plan.left_multiply(&yv, &mut x_p, &mut buf).unwrap();
            for (a, b) in x_p.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-9, "{} left", enc.name());
            }
            // Sparse input: both execution arms equal the dense planned
            // path exactly, chains included.
            let nnz: Vec<(u32, f64)> = vec![(1, 1.0), (4, -2.0), (8, 0.5)];
            let mut xs = vec![0.0; 9];
            for &(j, v) in &nnz {
                xs[j as usize] = v;
            }
            let mut ys_ref = vec![0.0; 64];
            plan.right_multiply(&xs, &mut ys_ref, &mut buf).unwrap();
            for strat in [SparseStrategy::Activity, SparseStrategy::Scatter] {
                let mut ys = vec![f64::NAN; 64];
                plan.right_multiply_sparse_with(&nnz, &mut ys, &mut buf, strat)
                    .unwrap();
                assert_eq!(ys, ys_ref, "{} sparse {strat:?}", enc.name());
            }
            // Panels and the f32 precision track the dense oracle.
            let k = 4usize;
            let x_panel: Vec<f64> = (0..9 * k).map(|i| (i % 11) as f64 - 5.0).collect();
            let mut y_panel = vec![0.0; 64 * k];
            let mut bufk = vec![0.0; plan.scratch_len(k)];
            plan.right_multiply_panel(k, &x_panel, &mut y_panel, &mut bufk)
                .unwrap();
            let plan32 = plan.to_f32();
            let mut y_panel32 = vec![0.0; 64 * k];
            let mut bufk32 = vec![0.0; plan32.scratch_len(k)];
            plan32
                .right_multiply_panel(k, &x_panel, &mut y_panel32, &mut bufk32)
                .unwrap();
            for lane in 0..k {
                let xj: Vec<f64> = (0..9).map(|j| x_panel[j * k + lane]).collect();
                let mut yj = vec![0.0; 64];
                dense.right_multiply(&xj, &mut yj).unwrap();
                for r in 0..64 {
                    let a = y_panel[r * k + lane];
                    let b = y_panel32[r * k + lane];
                    assert!((a - yj[r]).abs() < 1e-9, "{} panel lane {lane}", enc.name());
                    assert!(
                        (b - yj[r]).abs() < 1e-3,
                        "{} f32 panel lane {lane}",
                        enc.name()
                    );
                }
            }
            let mut x32 = vec![0.0; 9];
            let mut buf32 = vec![0.0; plan32.scratch_len(1)];
            plan32.left_multiply(&yv, &mut x32, &mut buf32).unwrap();
            for (a, b) in x32.iter().zip(&x_ref) {
                assert!((a - b).abs() < 1e-3, "{} f32 left", enc.name());
            }
        }
    }

    #[test]
    fn mr_grammar_plan_blobs_stay_in_the_v1_format() {
        let dense = repetitive(64, 9);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = mr_compress(&csrv, Encoding::ReFse);
        let plan = cm.plan();
        let bytes = plan.to_bytes();
        // Lowering means MR plans serialise as ordinary GCMPLAN1 blobs
        // — no new container format, no new validation surface.
        assert_eq!(&bytes[..PLAN_MAGIC.len()], PLAN_MAGIC);
        let back = KernelPlan::from_bytes(&bytes).expect("valid blob");
        assert_eq!(back.num_rules(), cm.lowered_rules());
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.5 - 2.0).collect();
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut y_a = vec![0.0; 64];
        let mut y_b = vec![0.0; 64];
        plan.right_multiply(&x, &mut y_a, &mut buf).unwrap();
        back.right_multiply(&x, &mut y_b, &mut buf).unwrap();
        assert_eq!(y_a, y_b);
        // Truncations of the MR blob are rejected like any other.
        for end in (0..bytes.len()).step_by(17) {
            assert!(KernelPlan::from_bytes(&bytes[..end]).is_none(), "len {end}");
        }
    }

    #[test]
    fn mr_lowered_blocks_respect_the_independence_invariant() {
        let dense = repetitive(64, 12);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = mr_compress(&csrv, Encoding::Re32);
        assert!(cm.rule_ext().is_some());
        let plan = cm.plan();
        let b = f64_body(&plan);
        assert_eq!(b.block_ptr.first(), Some(&0));
        assert_eq!(*b.block_ptr.last().unwrap() as usize, b.num_rules);
        for w in b.block_ptr.windows(2) {
            assert!(w[0] <= w[1]);
            let lo = w[0] as usize;
            for r in lo..w[1] as usize {
                for op in [2 * r, 2 * r + 1] {
                    assert!(
                        (b.rule_idx[op] as usize) < b.cols + lo,
                        "lowered rule {r} depends on its own block"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_matrix_plans_cleanly() {
        let csrv = CsrvMatrix::from_dense(&DenseMatrix::zeros(4, 3)).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let plan = cm.plan();
        assert_eq!(plan.seq_descriptors(), 0);
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut y = vec![1.0; 4];
        plan.right_multiply(&[1.0, 2.0, 3.0], &mut y, &mut buf)
            .unwrap();
        assert_eq!(y, vec![0.0; 4]);
        assert!(plan.heap_bytes() >= (4 + 1) * 4);
        let plan32 = plan.to_f32();
        let mut buf32 = vec![0.0; plan32.scratch_len(1)];
        let mut y32 = vec![1.0; 4];
        plan32
            .right_multiply(&[1.0, 2.0, 3.0], &mut y32, &mut buf32)
            .unwrap();
        assert_eq!(y32, vec![0.0; 4]);
    }
}
