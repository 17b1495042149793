//! **Figure 3**: peak-memory and time ratios of the multithreaded
//! algorithms vs their single-thread versions, for 1/4/8/12/16 threads
//! (re_ans and re_iv).
//!
//! Usage: `cargo run --release -p gcm-bench --bin fig3 -- [--scale S] [--iters N]`

use gcm_bench::report::{harness_args, scaled_rows, HarnessArgs};
use gcm_bench::runner::{measure_sharded, row_block_model};
use gcm_core::Encoding;
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, RowBlocks};

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

const THREADS: [usize; 5] = [1, 4, 8, 12, 16];

fn main() {
    let HarnessArgs { scale, iters, .. } = harness_args();
    println!("== Figure 3: multithread ratios vs single thread ==");
    println!("scale {scale}, {iters} iterations; series = datasets, x = threads\n");
    for enc in [Encoding::ReAns, Encoding::ReIv] {
        println!("--- {} ---", enc.name());
        println!(
            "{:<10} {:>24} {:>24}",
            "matrix", "peak-mem ratio (1/4/8/12/16)", "time ratio (1/4/8/12/16)"
        );
        for ds in Dataset::ALL {
            let spec = ds.spec();
            let rows = scaled_rows(spec.default_rows, scale);
            let dense = ds.generate(rows, 1);
            let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");

            let mut mem = Vec::new();
            let mut time = Vec::new();
            for &t in &THREADS {
                let blocks = RowBlocks::split(&csrv, t).into_blocks();
                let run = measure_sharded(&row_block_model(blocks, Some(enc)), iters);
                mem.push(run.analytic_peak_bytes as f64);
                time.push(run.secs_per_iter);
            }
            let mem_r: Vec<String> = mem.iter().map(|&m| format!("{:.2}", m / mem[0])).collect();
            let time_r: Vec<String> = time
                .iter()
                .map(|&t| format!("{:.2}", time[0] / t))
                .collect();
            println!(
                "{:<10} {:>24} {:>24}",
                spec.name,
                mem_r.join("/"),
                time_r.join("/")
            );
        }
        println!();
    }
    println!("expected shape (paper): peak-mem ratio grows mildly with threads (<1.5x at 16");
    println!("for most inputs; re_iv grows slower than re_ans); time ratio = speedup, near-");
    println!("linear for the large matrices, flat for the small ones (Covtype).");
}
