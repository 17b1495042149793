//! **Table 4**: the blockwise-reordered pipeline vs CLA.
//!
//! For each matrix: split into `--threads` row blocks, reorder each block
//! with the better of PathCover/MWM (k = 16), compress with re_iv and
//! re_ans, then run Eq. (4) and report size, peak memory, and time per
//! iteration. CLA compresses the same matrix (compression included in its
//! measured time/memory, as in the paper) and runs the same workload.
//!
//! Usage: `cargo run --release -p gcm-bench --bin table4
//!         -- [--scale S] [--iters N] [--threads T]`

use std::time::Instant;

use gcm_baselines::ClaMatrix;
use gcm_bench::report::{harness_args, pct, scaled_rows, time_s, HarnessArgs};
use gcm_bench::runner::{measure_iterations, measure_sharded, row_block_model};
use gcm_core::Encoding;
use gcm_datagen::Dataset;
use gcm_encodings::HeapSize;
use gcm_matrix::CsrvMatrix;
use gcm_reorder::{reorder_blocks, CsmConfig, ReorderAlgorithm};
use gcm_serve::ShardedModel;

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

/// Builds the best-of-PathCover/MWM blockwise-reordered matrix (§5.3).
fn reordered_blocked(csrv: &CsrvMatrix, blocks: usize, enc: Encoding) -> ShardedModel {
    let k = 16;
    let candidates = [ReorderAlgorithm::PathCover, ReorderAlgorithm::Mwm].map(|algo| {
        let reordered = reorder_blocks(csrv, blocks, algo, CsmConfig::default(), k);
        row_block_model(reordered, Some(enc))
    });
    let [a, b] = candidates;
    if a.stored_bytes() <= b.stored_bytes() {
        a
    } else {
        b
    }
}

fn main() {
    let HarnessArgs {
        scale,
        iters,
        threads,
    } = harness_args();
    println!("== Table 4: blockwise-reordered re_iv/re_ans vs CLA ==");
    println!("scale {scale}, {iters} iterations, {threads} blocks/threads\n");
    println!(
        "{:<10} | {:>28} | {:>28} | {:>28}",
        "matrix",
        format!("re_iv {threads}t (reordered)"),
        format!("re_ans {threads}t (reordered)"),
        "CLA",
    );
    println!(
        "{:<10} | {:>28} | {:>28} | {:>28}",
        "", "size | mem% | t/iter", "size | mem% | t/iter", "size | mem% | t/iter"
    );
    for ds in Dataset::ALL {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");

        let mut cells = Vec::new();
        for enc in [Encoding::ReIv, Encoding::ReAns] {
            let model = reordered_blocked(&csrv, threads, enc);
            let run = measure_sharded(&model, iters);
            cells.push(format!(
                "{} | {} | {}",
                pct(model.stored_bytes(), dense_bytes),
                pct(run.analytic_peak_bytes, dense_bytes),
                time_s(run.secs_per_iter)
            ));
        }
        // CLA: compression is part of the measured run (the paper could
        // not separate it either; see §5.4).
        {
            let t0 = Instant::now();
            let cla = ClaMatrix::compress(&dense);
            let compress_secs = t0.elapsed().as_secs_f64();
            let run = measure_iterations(&cla, iters, cla.heap_bytes(), 0);
            cells.push(format!(
                "{} | {} | {}",
                pct(cla.stored_bytes(), dense_bytes),
                pct(run.analytic_peak_bytes + dense_bytes, dense_bytes),
                time_s(run.secs_per_iter + compress_secs / iters as f64)
            ));
        }
        println!(
            "{:<10} | {:>28} | {:>28} | {:>28}",
            spec.name, cells[0], cells[1], cells[2]
        );
    }
    println!();
    println!("CLA mem% includes the uncompressed input (CLA compresses from scratch each");
    println!("run, so its peak covers the input matrix — the paper reports the same effect);");
    println!("CLA t/iter amortises compression over the iterations, as in the paper.");
    println!("expected shape: re_ans sizes < CLA for most matrices; re_iv/re_ans t/iter < CLA.");
}
