//! Differential suite: the compiled-plan kernels must be **bit-exact**
//! against the streaming reference kernels — same products, same
//! floating-point operation order — for every encoding, batch width,
//! and multiplication direction, over randomised shapes and densities.
//!
//! Also pins the two strength-reduction satellites:
//! * [`FastDiv`] against the plain `div`/`mod` over random numerators
//!   and divisors (the streaming kernels' terminal split relies on it);
//! * the plan's workspace contract — after one warmed call, planned
//!   multiplies draw all scratch from the [`Workspace`] without growing
//!   it.

use proptest::prelude::*;

use gcm_core::{CompressedMatrix, Encoding, FastDiv, KernelPlan};
use gcm_matrix::{CsrvMatrix, DenseMatrix, Workspace};

/// Deterministic pseudo-random dense matrix: `density` out of 8 cells
/// filled, values drawn from a small dictionary so RePair finds real
/// repetition (and the value alphabet stays bounded).
fn build_dense(rows: usize, cols: usize, density: u64, seed: u64) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for r in 0..rows {
        for c in 0..cols {
            let v = next();
            if v % 8 < density {
                m.set(r, c, ((v >> 32) % 6 + 1) as f64 * 0.375 - 1.0);
            }
        }
    }
    m
}

/// Input panel with a few exact zeros mixed in (exercising the left
/// kernels' zero-skip paths).
fn input_panel(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9E3779B97F4A7C15);
            if v.is_multiple_of(5) {
                0.0
            } else {
                ((v >> 33) % 13) as f64 * 0.25 - 1.5
            }
        })
        .collect()
}

/// Runs every (encoding × width × direction) combination for one matrix
/// and asserts planned == streaming exactly.
fn check_matrix(rows: usize, cols: usize, density: u64, seed: u64) -> Result<(), TestCaseError> {
    let dense = build_dense(rows, cols, density, seed);
    let csrv = CsrvMatrix::from_dense(&dense).expect("bounded value alphabet");
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let plan = cm.plan();
        prop_assert_eq!(plan.rows(), rows);
        prop_assert_eq!(plan.cols(), cols);
        let q = cm.num_rules();
        // Every width the serve layer coalesces (1..=8) plus one past
        // the fixed-width bodies, which takes the generic lane loop.
        for k in (1usize..=8).chain([11]) {
            let mut buf = vec![0.0; plan.scratch_len(k)];

            // Right: streaming panel kernel (the single-vector kernel
            // at k = 1, the batch kernel above it) vs planned kernel.
            let x_panel = input_panel(cols * k, seed ^ k as u64);
            let mut y_stream = vec![0.0; rows * k];
            let mut w_panel = vec![0.0; q * k];
            cm.right_multiply_panel_with(k, &x_panel, &mut y_stream, &mut w_panel)
                .expect("consistent dims");
            let mut y_plan = vec![0.0; rows * k];
            plan.right_multiply_panel(k, &x_panel, &mut y_plan, &mut buf)
                .expect("consistent dims");
            prop_assert!(y_stream == y_plan, "{} right k={k} diverged", enc.name());

            // Left: streaming panel kernel vs planned kernel.
            let y_panel = input_panel(rows * k, seed.rotate_left(11) ^ k as u64);
            let mut x_stream = vec![0.0; cols * k];
            let mut w_flags = vec![0.0; q];
            cm.left_multiply_panel_with(k, &y_panel, &mut x_stream, &mut w_panel, &mut w_flags)
                .expect("consistent dims");
            let mut x_plan = vec![0.0; cols * k];
            plan.left_multiply_panel(k, &y_panel, &mut x_plan, &mut buf)
                .expect("consistent dims");
            prop_assert!(x_stream == x_plan, "{} left k={k} diverged", enc.name());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes and densities, all encodings, k ∈ 1..=8 and 11,
    /// both directions: planned and streaming kernels agree bit-exactly.
    #[test]
    fn planned_equals_streaming(
        rows in 1usize..48,
        cols in 1usize..14,
        density in 0u64..9,
        seed in any::<u64>(),
    ) {
        check_matrix(rows, cols, density, seed)?;
    }

    /// `FastDiv::div_rem` is the plain `div`/`mod` for every numerator
    /// and divisor (the streaming kernels' strength-reduced terminal
    /// split must never drift from `(p / cols, p % cols)`).
    #[test]
    fn fastdiv_matches_plain_div_mod(p in any::<u32>(), d in 1u32..u32::MAX) {
        prop_assert_eq!(FastDiv::new(d).div_rem(p), (p / d, p % d));
    }
}

/// Shapes that historically break CSR-style indexing: empty matrices,
/// single row/column, all-dense, rows compressed to a single symbol.
#[test]
fn planned_equals_streaming_on_edge_shapes() {
    for (rows, cols, density) in [
        (1usize, 1usize, 8u64),
        (1, 13, 8),
        (40, 1, 8),
        (7, 7, 0), // empty: C is all separators
        (6, 5, 8), // fully dense
        (64, 3, 4),
    ] {
        check_matrix(rows, cols, density, 0xDEAD_BEEF).unwrap();
    }
}

/// The plan's workspace contract: after a warmed first call, planned
/// multiplies never grow the workspace — all scratch is drawn from (and
/// returned to) the warmed buffers, for every width up to the prewarmed
/// `k` and both directions.
#[test]
fn plan_buffers_never_grow_a_warmed_workspace() {
    let dense = build_dense(60, 11, 6, 42);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let plan: KernelPlan = cm.plan();
        let k = 4usize;
        let mut ws = Workspace::new();
        // The serve layer's budget: one buffer of scratch_len(k).
        ws.warm(1, plan.scratch_len(k));
        let before = ws.retained_bytes();
        let x_panel = input_panel(11 * k, 7);
        let y_input = input_panel(60 * k, 9);
        let mut y = vec![0.0; 60 * k];
        let mut x = vec![0.0; 11 * k];
        for width in [1usize, 2, k] {
            for _ in 0..4 {
                let mut buf = ws.take(plan.scratch_len(width));
                plan.right_multiply_panel(
                    width,
                    &x_panel[..11 * width],
                    &mut y[..60 * width],
                    &mut buf,
                )
                .unwrap();
                plan.left_multiply_panel(
                    width,
                    &y_input[..60 * width],
                    &mut x[..11 * width],
                    &mut buf,
                )
                .unwrap();
                ws.put(buf);
            }
        }
        assert_eq!(
            ws.retained_bytes(),
            before,
            "{}: planned scratch outgrew the warmed budget",
            enc.name()
        );
        assert_eq!(ws.retained_buffers(), 1);
    }
}
