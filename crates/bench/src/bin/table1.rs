//! **Table 1**: compression ratio (% of the dense 8-byte representation)
//! of gzip-like, xz-like, csrv, re_32, re_iv, re_ans on the seven matrices.
//!
//! Usage: `cargo run --release -p gcm-bench --bin table1 -- [--scale S]`

use gcm_baselines::{gzipish, xzish};
use gcm_bench::report::{harness_args, pct, scaled_rows};
use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, SEPARATOR};
use gcm_repair::RePair;

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

/// Paper values (Table 1), for side-by-side comparison:
/// (gzip, xz, csrv, re_32, re_iv, re_ans) in %.
const PAPER: [(&str, [f64; 6]); 7] = [
    ("Susy", [53.27, 43.94, 74.80, 74.80, 69.91, 66.63]),
    ("Higgs", [48.38, 31.47, 50.46, 46.91, 41.38, 38.05]),
    ("Airline78", [13.27, 7.01, 38.06, 14.84, 11.13, 9.27]),
    ("Covtype", [6.25, 3.34, 11.95, 7.21, 4.52, 3.87]),
    ("Census", [5.54, 2.79, 22.25, 3.24, 2.02, 1.53]),
    ("Optical", [53.54, 27.13, 50.62, 40.70, 35.81, 34.31]),
    ("Mnist2m", [6.46, 4.25, 12.69, 7.47, 5.84, 5.33]),
];

fn main() {
    let scale = harness_args().scale;
    println!("== Table 1: compression ratios (measured | paper) ==");
    println!("scale factor {scale} (rows = default_rows x scale)\n");
    println!(
        "{:<10} {:>8} | {:>15} {:>15} {:>15} {:>15} {:>15} {:>15}",
        "matrix", "rows", "gzip~", "xz~", "csrv", "re_32", "re_iv", "re_ans"
    );
    for (idx, ds) in Dataset::ALL.iter().enumerate() {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let bytes = dense.to_le_bytes();

        let gz = gzipish::compress(&bytes).len();
        let xz = xzish::compress(&bytes).len();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let slp = RePair::new().compress(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR));
        let re: Vec<usize> = Encoding::ALL
            .iter()
            .map(|&e| CompressedMatrix::from_slp(&csrv, &slp, e).stored_bytes())
            .collect();

        let paper = PAPER[idx].1;
        let cell = |b: usize, p: f64| format!("{} |{:>5.2}%", pct(b, dense_bytes), p);
        println!(
            "{:<10} {:>8} | {:>15} {:>15} {:>15} {:>15} {:>15} {:>15}",
            spec.name,
            rows,
            cell(gz, paper[0]),
            cell(xz, paper[1]),
            cell(csrv.csrv_bytes(), paper[2]),
            cell(re[0], paper[3]),
            cell(re[1], paper[4]),
            cell(re[2], paper[5]),
        );
    }
    println!();
    println!("shape checks the paper's narrative relies on:");
    println!("  - csrv >= re_32 >= re_iv >= re_ans per matrix");
    println!("  - Susy: re_32 ~ csrv (no grammar gain)");
    println!("  - Census: several-fold re_32 gain over csrv; re_ans beats xz");
}
