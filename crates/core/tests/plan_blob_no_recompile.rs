//! Loading a persisted plan blob is a validated cast, never a
//! recompile: `KernelPlan::from_bytes` must leave the process-wide
//! [`plan_compiles`] counter untouched, at both precisions and for
//! lowered MR-RePair grammars alike.
//!
//! This file holds exactly one `#[test]` on purpose. The counter is
//! process-global, and tests of one binary run concurrently, so any
//! neighbouring test that compiles a plan would bump it between the
//! two reads. Cargo runs test binaries one at a time, which makes the
//! delta exact only when this binary runs nothing else.

use gcm_core::{plan_compiles, CompressedMatrix, Encoding, KernelPlan};
use gcm_matrix::{CsrvMatrix, DenseMatrix, SEPARATOR};

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
fn plan_blobs_load_without_recompiling() {
    let csrv = CsrvMatrix::from_dense(&repetitive(48, 9)).unwrap();
    let mut matrices: Vec<CompressedMatrix> = Encoding::ALL
        .iter()
        .map(|&enc| CompressedMatrix::compress(&csrv, enc))
        .collect();
    let mr = gcm_repair::RePair::new().compress_mr(
        csrv.symbols(),
        csrv.terminal_limit(),
        Some(SEPARATOR),
    );
    matrices.push(CompressedMatrix::from_slp(&csrv, &mr, Encoding::ReFse));
    for cm in &matrices {
        let plan = cm.plan();
        for blob in [plan.to_bytes(), plan.to_f32().to_bytes()] {
            let before = plan_compiles();
            let back = KernelPlan::from_bytes(&blob).expect("valid blob");
            assert_eq!(plan_compiles(), before, "load must not compile");
            assert_eq!(back.num_rules(), cm.lowered_rules());
        }
    }
}
