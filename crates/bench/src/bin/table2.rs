//! **Table 2**: peak memory (% of dense) and average time per iteration of
//! the Eq. (4) workload — re_iv/re_ans single-threaded, and csrv / re_32 /
//! re_iv / re_ans with row-block multithreading.
//!
//! Usage: `cargo run --release -p gcm-bench --bin table2
//!         -- [--scale S] [--iters N] [--threads T]`

use gcm_bench::report::{harness_args, pct, scaled_rows, time_s, HarnessArgs};
use gcm_bench::runner::{measure_iterations, measure_sharded, row_block_model};
use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_encodings::HeapSize;
use gcm_matrix::{CsrvMatrix, RowBlocks};

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

/// Paper peak-memory percentages for orientation:
/// (re_iv 1t, re_ans 1t, csrv 16t, re_32 16t, re_iv 16t, re_ans 16t).
const PAPER_MEM: [(&str, [f64; 6]); 7] = [
    ("Susy", [76.15, 73.40, 80.66, 80.63, 77.45, 82.67]),
    ("Higgs", [50.30, 47.12, 54.12, 52.04, 47.01, 44.90]),
    ("Airline78", [17.16, 15.40, 41.57, 24.72, 19.21, 19.28]),
    ("Covtype", [9.42, 10.16, 14.60, 13.09, 17.10, 17.29]),
    ("Census", [4.37, 4.11, 23.88, 6.70, 6.14, 8.03]),
    ("Optical", [39.83, 39.23, 51.70, 46.56, 45.00, 56.72]),
    ("Mnist2m", [7.33, 6.85, 12.83, 11.31, 8.19, 8.30]),
];

fn main() {
    let HarnessArgs {
        scale,
        iters,
        threads,
    } = harness_args();
    println!("== Table 2: Eq.(4) peak memory & time/iter ==");
    println!(
        "scale {scale}, {iters} iterations, {threads} threads (paper: 500 iters, 16 threads)\n"
    );
    println!(
        "{:<10} | {:>18} {:>18} | {:>18} {:>18} {:>18} {:>18}",
        "matrix",
        "re_iv 1t",
        "re_ans 1t",
        format!("csrv {threads}t"),
        format!("re_32 {threads}t"),
        format!("re_iv {threads}t"),
        format!("re_ans {threads}t"),
    );
    println!(
        "{:<10} | {:>18} {:>18} | {:>18} {:>18} {:>18} {:>18}",
        "",
        "mem% | time",
        "mem% | time",
        "mem% | time",
        "mem% | time",
        "mem% | time",
        "mem% | time"
    );
    for (idx, ds) in Dataset::ALL.iter().enumerate() {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");

        let mut cells: Vec<String> = Vec::new();
        // Single-thread re_iv / re_ans.
        for enc in [Encoding::ReIv, Encoding::ReAns] {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let run = measure_iterations(&cm, iters, cm.heap_bytes(), cm.working_bytes(1));
            cells.push(format!(
                "{} | {}",
                pct(run.analytic_peak_bytes, dense_bytes),
                time_s(run.secs_per_iter)
            ));
        }
        // Multithreaded csrv, then the grammar encodings: one row block
        // per thread.
        for encoding in [
            None,
            Some(Encoding::Re32),
            Some(Encoding::ReIv),
            Some(Encoding::ReAns),
        ] {
            let blocks = RowBlocks::split(&csrv, threads).into_blocks();
            let run = measure_sharded(&row_block_model(blocks, encoding), iters);
            cells.push(format!(
                "{} | {}",
                pct(run.analytic_peak_bytes, dense_bytes),
                time_s(run.secs_per_iter)
            ));
        }
        println!(
            "{:<10} | {:>18} {:>18} | {:>18} {:>18} {:>18} {:>18}",
            spec.name, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
        let p = PAPER_MEM[idx].1;
        println!(
            "{:<10} | {:>18} {:>18} | {:>18} {:>18} {:>18} {:>18}",
            "  (paper)",
            format!("{:.2}%", p[0]),
            format!("{:.2}%", p[1]),
            format!("{:.2}%", p[2]),
            format!("{:.2}%", p[3]),
            format!("{:.2}%", p[4]),
            format!("{:.2}%", p[5]),
        );
    }
    println!();
    println!("mem% = (representation + W arrays + x/y/z vectors) / dense, as in Thm 3.4/3.10;");
    println!("the binary also tracks live-heap peak via the installed tracking allocator.");
}
