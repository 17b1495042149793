//! **Table 3**: compression (re_ans, % of dense) after column reordering
//! with LKH / PathCover / MWM over the locally-pruned CSM, for
//! k ∈ {4, 8, 16}.
//!
//! Usage: `cargo run --release -p gcm-bench --bin table3 -- [--scale S]`

use std::time::Instant;

use gcm_bench::report::{harness_args, pct, scaled_rows};
use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_matrix::CsrvMatrix;
use gcm_reorder::{reorder_columns, CsmConfig, ReorderAlgorithm};

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

fn main() {
    let scale = harness_args().scale;
    println!("== Table 3: column reordering + re_ans compression ==");
    println!("scale {scale}; locally-pruned CSM; k in {{4, 8, 16}}\n");
    println!(
        "{:<10} {:>4} {:>22} {:>22} {:>22} | {:>10}",
        "matrix", "k", "LKH", "PathCover", "MWM", "unordered"
    );
    for ds in Dataset::ALL {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let baseline = CompressedMatrix::compress(&csrv, Encoding::ReAns).stored_bytes();

        for k in [4usize, 8, 16] {
            let mut cells = Vec::new();
            for algo in ReorderAlgorithm::TABLE3 {
                let t0 = Instant::now();
                let order = reorder_columns(&csrv, algo, CsmConfig::default(), k);
                let reorder_secs = t0.elapsed().as_secs_f64();
                let reordered = csrv.with_column_order(&order);
                let size = CompressedMatrix::compress(&reordered, Encoding::ReAns).stored_bytes();
                cells.push(format!("{} ({:.2}s)", pct(size, dense_bytes), reorder_secs));
            }
            let name = if k == 4 { spec.name } else { "" };
            let base = if k == 4 {
                pct(baseline, dense_bytes)
            } else {
                String::new()
            };
            println!(
                "{:<10} {:>4} {:>22} {:>22} {:>22} | {:>10}",
                name, k, cells[0], cells[1], cells[2], base
            );
        }
    }
    println!();
    println!("expected shape (paper): best algorithm varies per matrix (PathCover wins 3,");
    println!("MWM 3, all tie on Susy); LKH close to best but orders of magnitude slower;");
    println!("gains concentrated on Airline78/Covtype/Census-like matrices.");
}
