//! Property-based differential tests of the single-precision plans.
//!
//! A single-precision [`KernelPlan`] promises results **bit-identical
//! to an `f32` evaluation of the compiled descriptor program in the same order**
//! (`crates/core/src/plan.rs` module docs). These tests hold it to that:
//! an independent oracle rebuilds the descriptor program from the public
//! grammar accessors (`rule_store` / `seq_store` / `values`) and
//! evaluates it in plain safe `f32` Rust, and every plan output must
//! match the oracle **to the bit** — for every encoding, every batch
//! width, both products. A second, loose bound pins the f32 results to
//! the `f64` dense oracle within single-precision slack.

use proptest::prelude::*;

use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::{CsrvMatrix, DenseMatrix};

/// The descriptor program exactly as `KernelPlan::compile` builds it,
/// reconstructed from the public grammar accessors: two premultiplied
/// operands per rule, per-row operand lists for `C`.
struct Program {
    cols: usize,
    /// `(m_a, i_a, m_b, i_b)` per rule; indices address `[x | w]`.
    rules: Vec<(f32, usize, f32, usize)>,
    /// Per output row: `(mult, idx)` descriptors in `C` order.
    rows: Vec<Vec<(f32, usize)>>,
}

fn program(cm: &CompressedMatrix) -> Program {
    let cols = cm.cols();
    let first_nt = cm.first_nonterminal();
    let values = cm.values();
    let resolve = |s: u32| -> (f32, usize) {
        if s < first_nt {
            let e = (s - 1) as usize;
            (values[e / cols] as f32, e % cols)
        } else {
            (1.0f32, cols + (s - first_nt) as usize)
        }
    };
    let mut rules = Vec::with_capacity(cm.num_rules());
    cm.rule_store().for_each_rule(|_, a, b| {
        let (ma, ia) = resolve(a);
        let (mb, ib) = resolve(b);
        rules.push((ma, ia, mb, ib));
    });
    let mut rows = Vec::with_capacity(cm.rows());
    let mut cur = Vec::new();
    cm.seq_store().for_each(|s| {
        if s == gcm_matrix::SEPARATOR {
            rows.push(std::mem::take(&mut cur));
        } else {
            cur.push(resolve(s));
        }
    });
    assert_eq!(rows.len(), cm.rows(), "separator count");
    Program { cols, rules, rows }
}

impl Program {
    fn width(&self) -> usize {
        self.cols + self.rules.len()
    }

    /// Forward rule pass in plain `f32`, single lane.
    fn slots(&self, x32: &[f32]) -> Vec<f32> {
        let mut slot = vec![0f32; self.width()];
        slot[..self.cols].copy_from_slice(x32);
        for (r, &(ma, ia, mb, ib)) in self.rules.iter().enumerate() {
            slot[self.cols + r] = ma * slot[ia] + mb * slot[ib];
        }
        slot
    }

    /// `y = M·x` evaluated per lane of the panel (the plan's arithmetic
    /// is lane-independent, so one-lane evaluation is exact for any `k`).
    fn right(&self, k: usize, x_panel: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0f64; self.rows.len() * k];
        for j in 0..k {
            let x32: Vec<f32> = (0..self.cols).map(|c| x_panel[c * k + j] as f32).collect();
            let slot = self.slots(&x32);
            for (r, descs) in self.rows.iter().enumerate() {
                let mut acc = 0f32;
                for &(m, i) in descs {
                    acc += m * slot[i];
                }
                y[r * k + j] = f64::from(acc);
            }
        }
        y
    }

    /// `xᵗ = yᵗ·M`, width 1: mirrors `left_single`'s skip conditions
    /// (zero input rows, untouched-or-zero rule slots).
    fn left1(&self, y: &[f64]) -> Vec<f64> {
        let mut slot = vec![0f32; self.width()];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            let yr = yr as f32;
            for &(m, i) in &self.rows[r] {
                slot[i] += m * yr;
            }
        }
        for r in (0..self.rules.len()).rev() {
            let wk = slot[self.cols + r];
            if wk == 0.0 {
                continue;
            }
            let (ma, ia, mb, ib) = self.rules[r];
            slot[ia] += ma * wk;
            slot[ib] += mb * wk;
        }
        slot[..self.cols].iter().map(|&v| f64::from(v)).collect()
    }

    /// Batched left product: mirrors the plan's flag-row bookkeeping
    /// (a rule propagates iff some forward descriptor touched it).
    fn left_panel(&self, k: usize, y_panel: &[f64]) -> Vec<f64> {
        let n = self.width();
        let mut panel = vec![0f32; n * k];
        let mut flags = vec![false; n];
        for (r, ys) in y_panel.chunks_exact(k).enumerate() {
            for &(m, i) in &self.rows[r] {
                flags[i] = true;
                for j in 0..k {
                    panel[i * k + j] += m * (ys[j] as f32);
                }
            }
        }
        for r in (0..self.rules.len()).rev() {
            if !flags[self.cols + r] {
                continue;
            }
            let (ma, ia, mb, ib) = self.rules[r];
            flags[ia] = true;
            flags[ib] = true;
            for j in 0..k {
                let wv = panel[(self.cols + r) * k + j];
                panel[ia * k + j] += ma * wv;
                panel[ib * k + j] += mb * wv;
            }
        }
        panel[..self.cols * k]
            .iter()
            .map(|&v| f64::from(v))
            .collect()
    }
}

/// Small dense matrices with a dictionary-friendly value set (repeated
/// values are what gives RePair pairs to fold into rules).
fn matrices() -> impl Strategy<Value = DenseMatrix> {
    (1usize..18, 1usize..9, 0u64..u64::MAX).prop_map(|(rows, cols, seed)| {
        let mut m = DenseMatrix::zeros(rows, cols);
        let mut state = seed | 1;
        for r in 0..rows {
            for c in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bits = (state >> 33) as u32;
                if !bits.is_multiple_of(3) {
                    m.set(r, c, ((bits >> 2) % 5 + 1) as f64 * 0.75);
                }
            }
        }
        m
    })
}

fn panel(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 35) % 17) as f64 - 8.0) * 0.25
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The f32 plan's right product is bit-identical to the safe-Rust
    /// f32 oracle, for every encoding and batch width.
    #[test]
    fn f32_right_product_is_bit_exact_against_the_oracle(
        dense in matrices(),
        seed in 0u64..u64::MAX,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let p = program(&cm);
            let plan = cm.plan_f32();
            for k in (1usize..=8).chain([11]) {
                let x_panel = panel(cm.cols() * k, seed ^ (k as u64));
                let expect = p.right(k, &x_panel);
                let mut y = vec![0.0; cm.rows() * k];
                let mut buf = vec![0.0; plan.scratch_len(k)];
                plan.right_multiply_panel(k, &x_panel, &mut y, &mut buf).unwrap();
                for (i, (a, b)) in y.iter().zip(&expect).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{} k={} slot {}: plan {} vs oracle {}",
                        enc.name(), k, i, a, b
                    );
                }
            }
        }
    }

    /// The f32 plan's left product is bit-identical to the oracle.
    #[test]
    fn f32_left_product_is_bit_exact_against_the_oracle(
        dense in matrices(),
        seed in 0u64..u64::MAX,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let p = program(&cm);
            let plan = cm.plan_f32();
            let y1 = panel(cm.rows(), seed);
            let expect1 = p.left1(&y1);
            let mut x1 = vec![0.0; cm.cols()];
            let mut buf = vec![0.0; plan.scratch_len(1)];
            plan.left_multiply(&y1, &mut x1, &mut buf).unwrap();
            for (i, (a, b)) in x1.iter().zip(&expect1).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{} k=1 slot {}: plan {} vs oracle {}", enc.name(), i, a, b
                );
            }
            for k in (2usize..=8).chain([11]) {
                let y_panel = panel(cm.rows() * k, seed ^ (k as u64) << 8);
                let expect = p.left_panel(k, &y_panel);
                let mut x = vec![0.0; cm.cols() * k];
                let mut buf = vec![0.0; plan.scratch_len(k)];
                plan.left_multiply_panel(k, &y_panel, &mut x, &mut buf).unwrap();
                for (i, (a, b)) in x.iter().zip(&expect).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{} k={} slot {}: plan {} vs oracle {}",
                        enc.name(), k, i, a, b
                    );
                }
            }
        }
    }

    /// Loose anchor: the f32 results track the f64 dense product within
    /// single-precision slack (the values above keep |y| small, so an
    /// absolute bound suffices).
    #[test]
    fn f32_products_track_the_dense_oracle(
        dense in matrices(),
        seed in 0u64..u64::MAX,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReFse);
        let plan = cm.plan_f32();
        let x = panel(cm.cols(), seed);
        let mut y_ref = vec![0.0; cm.rows()];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        let mut y = vec![0.0; cm.rows()];
        let mut buf = vec![0.0; plan.scratch_len(1)];
        plan.right_multiply(&x, &mut y, &mut buf).unwrap();
        for (a, b) in y.iter().zip(&y_ref) {
            prop_assert!((a - b).abs() < 1e-3, "right {a} vs {b}");
        }
        let yv = panel(cm.rows(), seed ^ 0x5a5a);
        let mut x_ref = vec![0.0; cm.cols()];
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        let mut xo = vec![0.0; cm.cols()];
        plan.left_multiply(&yv, &mut xo, &mut buf).unwrap();
        for (a, b) in xo.iter().zip(&x_ref) {
            prop_assert!((a - b).abs() < 1e-3, "left {a} vs {b}");
        }
    }
}
