//! **Figure 4**: relative peak-memory improvement of blockwise column
//! reordering, `(p_o − p_r)/p_o`, per matrix and encoding (re_iv, re_ans).
//!
//! Usage: `cargo run --release -p gcm-bench --bin fig4
//!         -- [--scale S] [--iters N] [--threads T]`

use gcm_bench::report::{harness_args, scaled_rows, HarnessArgs};
use gcm_bench::runner::{measure_sharded, row_block_model};
use gcm_core::Encoding;
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, RowBlocks};
use gcm_reorder::{reorder_blocks, CsmConfig, ReorderAlgorithm};
use gcm_serve::ShardedModel;

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

fn main() {
    let HarnessArgs {
        scale,
        iters,
        threads,
    } = harness_args();
    println!("== Figure 4: relative peak-memory improvement from reordering ==");
    println!("scale {scale}, {iters} iterations, {threads} blocks; (p_o - p_r) / p_o\n");
    println!("{:<10} {:>12} {:>12}", "matrix", "re_iv", "re_ans");
    for ds in Dataset::ALL {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale);
        let dense = ds.generate(rows, 1);
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");

        let mut cells = Vec::new();
        for enc in [Encoding::ReIv, Encoding::ReAns] {
            // p_o: original blockwise pipeline.
            let original =
                row_block_model(RowBlocks::split(&csrv, threads).into_blocks(), Some(enc));
            let p_o = measure_sharded(&original, iters).analytic_peak_bytes;

            // p_r: best-of-PathCover/MWM blockwise reordering (k = 16).
            let mut best: Option<ShardedModel> = None;
            for algo in [ReorderAlgorithm::PathCover, ReorderAlgorithm::Mwm] {
                let blocks = reorder_blocks(&csrv, threads, algo, CsmConfig::default(), 16);
                let candidate = row_block_model(blocks, Some(enc));
                if best
                    .as_ref()
                    .is_none_or(|b| candidate.stored_bytes() < b.stored_bytes())
                {
                    best = Some(candidate);
                }
            }
            let p_r = measure_sharded(&best.unwrap(), iters).analytic_peak_bytes;

            let improvement = 100.0 * (p_o as f64 - p_r as f64) / p_o as f64;
            cells.push(format!("{improvement:.2}%"));
        }
        println!("{:<10} {:>12} {:>12}", spec.name, cells[0], cells[1]);
    }
    println!();
    println!("expected shape (paper): significant reductions (up to ~16%) for the highly");
    println!("compressible matrices (Airline78, Covtype, Census); ~0 for Mnist2m; slightly");
    println!("negative possible for Susy.");
}
