//! Property tests of the planned kernels' row walks.
//!
//! The right product visits rows grouped by descriptor count and the
//! width-1 left product seeds its scratch in one flat descriptor pass
//! (`crates/core/src/plan.rs`, "Row walks"). Both promise results
//! bit-identical to a plain CSR walk of the same descriptor program.
//! These tests hold them to that on matrices with empty rows (a
//! length-0 group) and one long row holding an infinite entry, for
//! RePair and MR-RePair grammars (the latter lowered into binary
//! chains) at both precisions:
//!
//! * any row range of [`KernelPlan::accumulate_rows_panel`] — empty,
//!   single-row, unaligned, full — equals the same rows of the full
//!   product, and the full product equals a CSR-order reference;
//! * the width-1 left product, fed inputs holding both `0.0` and
//!   `-0.0`, equals a CSR-order reference that skips zero rows.
//!
//! The reference program is read back from the plan's own `GCMPLAN1`
//! blob, so lowered MR-RePair rules need no second lowering here.

use proptest::prelude::*;

use gcm_core::plan::PLAN_MAGIC;
use gcm_core::{CompressedMatrix, Encoding, KernelPlan};
use gcm_encodings::varint;
use gcm_matrix::{CsrvMatrix, DenseMatrix, SEPARATOR};

/// The scalar a plan evaluates in.
trait Num: Copy + PartialEq + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self> {
    const ZERO: Self;
    const BYTES: usize;
    fn read(bytes: &[u8]) -> Self;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
}

impl Num for f64 {
    const ZERO: Self = 0.0;
    const BYTES: usize = 8;
    fn read(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().unwrap())
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
}

impl Num for f32 {
    const ZERO: Self = 0.0;
    const BYTES: usize = 4;
    fn read(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().unwrap())
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

/// A plan's descriptor program, as its persisted blob records it.
struct Program<T> {
    cols: usize,
    /// `(m_a, i_a, m_b, i_b)` per (lowered) rule.
    rules: Vec<(T, usize, T, usize)>,
    /// Per row: `(mult, idx)` descriptors in `C` order.
    rows: Vec<Vec<(T, usize)>>,
}

impl<T: Num> Program<T> {
    fn from_blob(blob: &[u8]) -> Self {
        assert_eq!(&blob[..PLAN_MAGIC.len()], PLAN_MAGIC);
        let mut pos = PLAN_MAGIC.len() + 1;
        let mut header = || varint::read_u64(blob, &mut pos).unwrap() as usize;
        let (rows, cols, rules, descs) = (header(), header(), header(), header());
        header(); // rule blocks
        let mut take = |n: usize, width: usize| {
            let chunk = &blob[pos..pos + n * width];
            pos += n * width;
            chunk.chunks_exact(width)
        };
        let u32s = |c: std::slice::ChunksExact<'_, u8>| -> Vec<usize> {
            c.map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
                .collect()
        };
        let rule_mult: Vec<T> = take(2 * rules, T::BYTES).map(T::read).collect();
        let rule_idx = u32s(take(2 * rules, 4));
        let seq_mult: Vec<T> = take(descs, T::BYTES).map(T::read).collect();
        let seq_idx = u32s(take(descs, 4));
        let row_ptr = u32s(take(rows + 1, 4));
        Program {
            cols,
            rules: (0..rules)
                .map(|r| {
                    let (a, b) = (2 * r, 2 * r + 1);
                    (rule_mult[a], rule_idx[a], rule_mult[b], rule_idx[b])
                })
                .collect(),
            rows: row_ptr
                .windows(2)
                .map(|w| (w[0]..w[1]).map(|d| (seq_mult[d], seq_idx[d])).collect())
                .collect(),
        }
    }

    /// `y = M·x` over a `k`-wide panel, row by row in CSR order.
    fn right(&self, k: usize, x_panel: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows.len() * k];
        for j in 0..k {
            let mut slot: Vec<T> = (0..self.cols)
                .map(|c| T::from_f64(x_panel[c * k + j]))
                .collect();
            for &(ma, ia, mb, ib) in &self.rules {
                let v = ma * slot[ia] + mb * slot[ib];
                slot.push(v);
            }
            for (r, descs) in self.rows.iter().enumerate() {
                let mut acc = T::ZERO;
                for &(m, i) in descs {
                    acc = acc + m * slot[i];
                }
                y[r * k + j] = acc.to_f64();
            }
        }
        y
    }

    /// `xᵗ = yᵗ·M`, width 1: rows in CSR order, zero rows (`0.0` and
    /// `-0.0` alike) skipped, then the backward rule pass.
    fn left1(&self, y: &[f64]) -> Vec<f64> {
        let mut slot = vec![T::ZERO; self.cols + self.rules.len()];
        for (descs, &yr) in self.rows.iter().zip(y) {
            if yr == 0.0 {
                continue;
            }
            for &(m, i) in descs {
                slot[i] = slot[i] + m * T::from_f64(yr);
            }
        }
        for (r, &(ma, ia, mb, ib)) in self.rules.iter().enumerate().rev() {
            let w = slot[self.cols + r];
            if w == T::ZERO {
                continue;
            }
            slot[ia] = slot[ia] + ma * w;
            slot[ib] = slot[ib] + mb * w;
        }
        slot[..self.cols].iter().map(|v| v.to_f64()).collect()
    }
}

/// Deterministic LCG stream from `seed`.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// Matrices with repeated values (so RePair finds pairs), every
/// fourth-ish row empty, and one fully dense row — the longest group.
/// The long row starts with the matrix's only infinite entry: a unique
/// symbol stays a terminal of `C`, so a left product that added the
/// `∞ · ±0.0` term of a zero row instead of skipping it turns a column
/// into NaN.
fn matrices() -> impl Strategy<Value = DenseMatrix> {
    (2usize..40, 1usize..20, 0u64..u64::MAX).prop_map(|(rows, cols, seed)| {
        let mut next = lcg(seed);
        let mut m = DenseMatrix::zeros(rows, cols);
        let long = next() as usize % rows;
        let empty = (long + 1 + next() as usize % (rows - 1)) % rows;
        for r in 0..rows {
            if r == empty || (r != long && next().is_multiple_of(4)) {
                continue;
            }
            for c in 0..cols {
                let bits = next();
                if r == long || !bits.is_multiple_of(3) {
                    m.set(r, c, ((bits >> 2) % 5) as f64 * 0.75 - 1.25);
                }
            }
        }
        m.set(long, 0, f64::INFINITY);
        m
    })
}

/// `len` inputs in quarter steps, with `0.0` and `-0.0` mixed in.
fn inputs(len: usize, seed: u64) -> Vec<f64> {
    let mut next = lcg(seed);
    (0..len)
        .map(|_| match next() % 8 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f64 - 4.5) * 0.25,
        })
        .collect()
}

/// Both grammars of `dense`: RePair and (lowered) MR-RePair.
fn grammars(dense: &DenseMatrix) -> [(&'static str, CompressedMatrix); 2] {
    let csrv = CsrvMatrix::from_dense(dense).unwrap();
    let mr = gcm_repair::RePair::new().compress_mr(
        csrv.symbols(),
        csrv.terminal_limit(),
        Some(SEPARATOR),
    );
    [
        ("repair", CompressedMatrix::compress(&csrv, Encoding::Re32)),
        (
            "mr-repair",
            CompressedMatrix::from_slp(&csrv, &mr, Encoding::Re32),
        ),
    ]
}

/// Row ranges of every shape: empty, single-row, unaligned, full.
fn ranges(rows: usize, seed: u64) -> Vec<std::ops::Range<usize>> {
    let mut next = lcg(seed);
    let a = next() as usize % (rows + 1);
    let b = a + next() as usize % (rows - a + 1);
    let r = next() as usize % rows;
    vec![a..a, r..r + 1, a..b, 0..rows]
}

fn check_right<T: Num>(plan: &KernelPlan, what: &str, seed: u64) -> Result<(), TestCaseError> {
    let program = Program::<T>::from_blob(&plan.to_bytes());
    let (rows, cols) = (plan.rows(), plan.cols());
    for k in [1usize, 2, 3, 8, 9, 16] {
        let x_panel = inputs(cols * k, seed ^ k as u64);
        let want = program.right(k, &x_panel);
        let mut full = vec![f64::NAN; rows * k];
        let mut buf = vec![0.0; plan.scratch_len(k)];
        plan.right_multiply_panel(k, &x_panel, &mut full, &mut buf)
            .unwrap();
        for (i, (a, b)) in full.iter().zip(&want).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{what} k={k} slot {i}: plan {a} vs CSR reference {b}"
            );
        }
        plan.begin_right_panel(k, &x_panel, &mut buf).unwrap();
        for range in ranges(rows, seed.rotate_left(k as u32)) {
            let mut y = vec![f64::NAN; range.len() * k];
            plan.accumulate_rows_panel(range.clone(), k, &buf, &mut y);
            let expect = &full[range.start * k..range.end * k];
            for (i, (a, b)) in y.iter().zip(expect).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{what} k={k} rows {range:?} slot {i}: range {a} vs full {b}"
                );
            }
        }
    }
    Ok(())
}

fn check_left<T: Num>(plan: &KernelPlan, what: &str, seed: u64) -> Result<(), TestCaseError> {
    let program = Program::<T>::from_blob(&plan.to_bytes());
    let y = inputs(plan.rows(), seed);
    let want = program.left1(&y);
    let mut x = vec![f64::NAN; plan.cols()];
    let mut buf = vec![0.0; plan.scratch_len(1)];
    plan.left_multiply(&y, &mut x, &mut buf).unwrap();
    for (i, (a, b)) in x.iter().zip(&want).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{what} column {i}: plan {a} vs CSR reference {b}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every row range of the grouped right walk equals the same rows
    /// of the full product, which equals the CSR-order reference.
    #[test]
    fn grouped_right_walk_matches_csr_order_on_every_range(
        dense in matrices(),
        seed in 0u64..u64::MAX,
    ) {
        for (name, cm) in grammars(&dense) {
            let plan = cm.plan();
            check_right::<f64>(&plan, &format!("{name} f64"), seed)?;
            check_right::<f32>(&plan.to_f32(), &format!("{name} f32"), seed)?;
        }
    }

    /// The flat k=1 left seed pass equals the CSR-order reference bit
    /// for bit, signed zeros included.
    #[test]
    fn flat_left_seed_pass_matches_csr_order(
        dense in matrices(),
        seed in 0u64..u64::MAX,
    ) {
        for (name, cm) in grammars(&dense) {
            let plan = cm.plan();
            check_left::<f64>(&plan, &format!("{name} f64"), seed)?;
            check_left::<f32>(&plan.to_f32(), &format!("{name} f32"), seed)?;
        }
    }
}
