//! Ablations the paper discusses but does not tabulate:
//!
//! 1. local vs global CSM pruning (§5.1: "locally-pruned usually performs
//!    better"),
//! 2. PathCover vs PathCover+ (§5.3: "PathCover+ always resulted in worse
//!    compression"),
//! 3. grammar output vs the empirical-entropy bound (§3: RePair is bounded
//!    by |S|·H_k(S) + o(·)),
//! 4. block-count sweep: how splitting affects compressed size (§4.1:
//!    "some files compress better split into blocks").
//!
//! Usage: `cargo run --release -p gcm-bench --bin ablation -- [--scale S]`

use gcm_bench::report::{harness_args, pct, scaled_rows};
use gcm_bench::runner::row_block_model;
use gcm_core::{CompressedMatrix, Encoding};
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, RowBlocks, SEPARATOR};
use gcm_reorder::{Csm, CsmConfig};
use gcm_repair::stats::empirical_entropy;
use gcm_repair::RePair;

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

fn main() {
    let scale = harness_args().scale;
    let datasets = [Dataset::Airline78, Dataset::Covtype, Dataset::Census];

    println!("== Ablation 1: local vs global CSM pruning (k = 8, PathCover + re_ans) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "matrix", "full", "local", "global"
    );
    for ds in datasets {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale).min(10_000);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let csm = Csm::compute(&csrv, CsmConfig::default());
        let mut cells = Vec::new();
        for graph in [
            csm.full_graph(),
            csm.locally_pruned(8),
            csm.globally_pruned(8),
        ] {
            let order = gcm_reorder::pathcover::path_cover(&graph);
            let reordered = csrv.with_column_order(&order);
            let size = CompressedMatrix::compress(&reordered, Encoding::ReAns).stored_bytes();
            cells.push(pct(size, dense_bytes));
        }
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            spec.name, cells[0], cells[1], cells[2]
        );
    }

    println!("\n== Ablation 2: PathCover vs PathCover+ (k = 8, re_ans) ==");
    println!("{:<10} {:>12} {:>12}", "matrix", "PathCover", "PathCover+");
    for ds in datasets {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale).min(6_000);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let csm = Csm::compute(&csrv, CsmConfig::default());
        let graph = csm.locally_pruned(8);
        let mut cells = Vec::new();
        for order in [
            gcm_reorder::pathcover::path_cover(&graph),
            gcm_reorder::pathcover::path_cover_plus(&graph),
        ] {
            let reordered = csrv.with_column_order(&order);
            let size = CompressedMatrix::compress(&reordered, Encoding::ReAns).stored_bytes();
            cells.push(pct(size, dense_bytes));
        }
        println!("{:<10} {:>12} {:>12}", spec.name, cells[0], cells[1]);
    }

    println!("\n== Ablation 3: grammar size vs empirical entropy of S ==");
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "matrix", "|S|", "H0 b/sym", "H1 b/sym", "H2 b/sym", "re_iv b/sym"
    );
    for ds in Dataset::ALL {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale).min(8_000);
        let dense = ds.generate(rows, 1);
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let s = csrv.symbols();
        let slp = RePair::new().compress(s, csrv.terminal_limit(), Some(SEPARATOR));
        let cm = CompressedMatrix::from_slp(&csrv, &slp, Encoding::ReIv);
        // bits/symbol spent on C and R (dictionary excluded: the entropy
        // bound speaks about the sequence S, not V).
        let payload_bits = 8.0 * (cm.stored_bytes() - csrv.values().len() * 8) as f64;
        println!(
            "{:<10} {:>12} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
            spec.name,
            s.len(),
            empirical_entropy(s, 0),
            empirical_entropy(s, 1),
            empirical_entropy(s, 2),
            payload_bits / s.len() as f64,
        );
    }

    println!("\n== Ablation 4: block-count sweep (re_ans size, % of dense) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "matrix", "b=1", "b=4", "b=8", "b=16", "b=32"
    );
    for ds in datasets {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale).min(10_000);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let mut cells = Vec::new();
        for b in [1usize, 4, 8, 16, 32] {
            let blocks = RowBlocks::split(&csrv, b).into_blocks();
            let model = row_block_model(blocks, Some(Encoding::ReAns));
            cells.push(pct(model.stored_bytes(), dense_bytes));
        }
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            spec.name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!("\n== Ablation 5: row-local pair reordering (paper future work, end of par.3) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "matrix", "column-order", "canonical", "frequency", "PathCover"
    );
    for ds in datasets {
        let spec = ds.spec();
        let rows = scaled_rows(spec.default_rows, scale).min(6_000);
        let dense = ds.generate(rows, 1);
        let dense_bytes = dense.uncompressed_bytes();
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let size_of =
            |m: &CsrvMatrix| CompressedMatrix::compress(m, Encoding::ReAns).stored_bytes();
        let baseline = size_of(&csrv);
        let canonical = size_of(&gcm_reorder::canonical_row_order(&csrv));
        let frequency = size_of(&gcm_reorder::frequency_row_order(&csrv));
        let pc_order = gcm_reorder::reorder_columns(
            &csrv,
            gcm_reorder::ReorderAlgorithm::PathCover,
            CsmConfig::default(),
            8,
        );
        let pathcover = size_of(&csrv.with_column_order(&pc_order));
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}",
            spec.name,
            pct(baseline, dense_bytes),
            pct(canonical, dense_bytes),
            pct(frequency, dense_bytes),
            pct(pathcover, dense_bytes),
        );
    }

    println!("\nexpected: H2 <= H1 <= H0; grammar bits/symbol in the vicinity of the");
    println!("low-order entropies (the bound is asymptotic); block splitting costs a");
    println!("little compression except when blocks share little structure; row-local");
    println!("orders compete with global column reordering on template-heavy data.");
}
