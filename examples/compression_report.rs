//! A Table 1-style compression report across all seven synthetic datasets:
//! gzip-like, xz-like, csrv, re_32, re_iv, re_ans — each as a percentage of
//! the dense 8-byte representation.
//!
//! Run with: `cargo run --release --example compression_report [rows_scale]`
//! (`rows_scale` scales the default dataset sizes; 0.25 by default so the
//! example finishes quickly).

use mm_repair::baselines::{gzipish, xzish};
use mm_repair::prelude::*;
use mm_repair::repair::slp::Slp;

fn pct(bytes: usize, dense: usize) -> f64 {
    100.0 * bytes as f64 / dense as f64
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.25);
    println!(
        "{:<10} {:>10} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "matrix", "rows", "cols", "gzip~", "xz~", "csrv", "re_32", "re_iv", "re_ans"
    );
    for ds in Dataset::ALL {
        let spec = ds.spec();
        let rows = ((spec.default_rows as f64 * scale) as usize).max(500);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let bytes = dense.to_le_bytes();

        let gz = gzipish::compress(&bytes).len();
        let xz = xzish::compress(&bytes).len();

        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        // One RePair run feeds all three encodings.
        let slp: Slp = RePair::new().compress(
            csrv.symbols(),
            csrv.terminal_limit(),
            Some(mm_repair::matrix::SEPARATOR),
        );
        let sizes: Vec<usize> = Encoding::ALL
            .iter()
            .map(|&e| CompressedMatrix::from_slp(&csrv, &slp, e).stored_bytes())
            .collect();

        println!(
            "{:<10} {:>10} {:>6} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}%",
            spec.name,
            rows,
            spec.cols,
            pct(gz, dense_bytes),
            pct(xz, dense_bytes),
            pct(csrv.csrv_bytes(), dense_bytes),
            pct(sizes[0], dense_bytes),
            pct(sizes[1], dense_bytes),
            pct(sizes[2], dense_bytes),
        );
    }
    println!("\n(~: gzip-like and xz-like are this repository's DEFLATE/LZMA-family");
    println!("   baselines, written in-tree because the build takes no external");
    println!("   compression crates; they stand in for gzip and xz in Table 1.)");
}
