//! One-hot feature scoring through the sparse-input kernel path: the
//! ML-serving access pattern that motivates grammar-compressed models
//! (§1) multiplies the matrix by vectors that are almost entirely zero
//! — a one-hot category selector or a handful of active features.
//!
//! `KernelPlan::right_multiply_sparse` has two arms. The activity
//! **walk** seeds the non-zero positions, walks only the slice of the
//! rule DAG they reach, and scatter-accumulates just the descriptors
//! that survive. The **scatter** arm writes `x` into a dense scratch row
//! and runs the ordinary planned kernels. `SparseStrategy::Auto` takes
//! the walk while `nnz(x)/cols <= SPARSE_DENSITY_THRESHOLD`.
//!
//! This example times both arms, for every encoding and both plan
//! precisions, on three input families: every one-hot input, 4-feature
//! selectors and 10 %-dense selectors. Each timed pass takes the next
//! input of its family round-robin on every call (the `sparse/*` bench
//! groups do the same), so no input is cherry-picked and no call
//! repeats its predecessor's path. A cell is the median of seven passes.
//! `reach` is the mean share of the grammar — rules plus sequence
//! symbols — whose expansion holds a terminal in one of the input's
//! columns: the part of the plan the walk visits, where the scatter arm
//! always runs all of it. Results of the two arms are checked to match
//! exactly.
//!
//! Run with:
//! `cargo run --release --example sparse_scoring -- [census|covtype] [rows]`
//! (defaults: census at 13 000 rows, covtype at 30 000).

use std::time::Instant;

use mm_repair::core::SPARSE_DENSITY_THRESHOLD;
use mm_repair::prelude::*;

/// Timed passes per cell; the cell reports their median.
const PASSES: usize = 7;

/// Calls per pass, rounded up to a whole number of input cycles.
const MIN_CALLS: usize = 256;

/// `sets` inputs of `nnz` evenly spaced columns each, the `i`-th shifted
/// by `i` columns (indices strictly increasing, as the kernel requires).
fn spread(cols: usize, nnz: usize, sets: usize) -> Vec<Vec<(u32, f64)>> {
    (0..sets)
        .map(|i| {
            let mut idx: Vec<u32> = (0..nnz)
                .map(|t| ((i + t * cols / nnz) % cols) as u32)
                .collect();
            idx.sort_unstable();
            idx.dedup();
            idx.into_iter()
                .map(|j| (j, 1.0 + f64::from(j % 3)))
                .collect()
        })
        .collect()
}

/// Mean share, over `inputs`, of `cm`'s rules and sequence symbols
/// whose expansion holds a terminal in one of the input's columns.
fn grammar_reach(cm: &CompressedMatrix, inputs: &[Vec<(u32, f64)>]) -> f64 {
    assert!(cm.cols() <= 128, "column masks are u128");
    let (cols, first_nt) = (cm.cols() as u32, cm.first_nonterminal());
    // Terminal `s` is `1 + value·cols + col`; symbol 0 separates rows.
    let columns = |s: u32, rules: &[u128]| match s {
        0 => 0,
        s if s < first_nt => 1u128 << ((s - 1) % cols),
        s => rules[(s - first_nt) as usize],
    };
    let mut rules = Vec::with_capacity(cm.num_rules());
    cm.rule_store().for_each_rule(|_, a, b| {
        let mask = columns(a, &rules) | columns(b, &rules);
        rules.push(mask);
    });
    let mut masks = rules.clone();
    cm.seq_store().for_each(|s| {
        if s != 0 {
            masks.push(columns(s, &rules));
        }
    });
    let share = |x: &Vec<(u32, f64)>| {
        let want = x.iter().fold(0u128, |m, &(j, _)| m | 1 << j);
        masks.iter().filter(|&&m| m & want != 0).count() as f64 / masks.len() as f64
    };
    100.0 * inputs.iter().map(share).sum::<f64>() / inputs.len() as f64
}

/// Median seconds per call of the walk and of the scatter arm over
/// `inputs`, taken round-robin. The arms alternate pass by pass, so a
/// slow phase of the host hits both.
fn time_arms(
    plan: &KernelPlan,
    inputs: &[Vec<(u32, f64)>],
    y: &mut [f64],
    buf: &mut [f64],
) -> (f64, f64) {
    let calls = inputs.len() * MIN_CALLS.div_ceil(inputs.len());
    let mut pass = |strategy| {
        let t = Instant::now();
        for c in 0..calls {
            plan.right_multiply_sparse_with(&inputs[c % inputs.len()], y, buf, strategy)
                .expect("sparse multiply");
        }
        t.elapsed().as_secs_f64() / calls as f64
    };
    let (mut walk, mut scatter): (Vec<f64>, Vec<f64>) = (0..PASSES)
        .map(|_| {
            (
                pass(SparseStrategy::Activity),
                pass(SparseStrategy::Scatter),
            )
        })
        .unzip();
    walk.sort_by(f64::total_cmp);
    scatter.sort_by(f64::total_cmp);
    (walk[PASSES / 2], scatter[PASSES / 2])
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "census".to_string());
    let (dataset, default_rows) = match name.as_str() {
        "census" => (Dataset::Census, 13_000),
        "covtype" => (Dataset::Covtype, 30_000),
        other => {
            eprintln!("unknown dataset {other}: expected census or covtype");
            std::process::exit(2);
        }
    };
    let rows = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_rows);
    println!("generating {name} matrix with {rows} rows…");
    let dense = dataset.generate(rows, 42);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let cols = csrv.cols();

    let families = [
        ("one-hot", spread(cols, 1, cols)),
        ("4 features", spread(cols, 4, 8)),
        ("10% dense", spread(cols, cols.div_ceil(10), 8)),
    ];
    println!(
        "{rows} x {cols}, {} non-zeros; walk speedup = scatter time / walk time\n",
        csrv.nnz()
    );
    println!(
        "{:<7} {:<4} {:<11} {:>4} {:>7} {:>9} {:>12} {:>6} {:>5}",
        "enc", "prec", "input", "nnz", "reach", "walk us", "scatter us", "walk", "auto"
    );
    let mut y_walk = vec![0.0; rows];
    let mut y_scatter = vec![0.0; rows];
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        for (prec, plan) in [("f64", cm.plan()), ("f32", cm.plan_f32())] {
            let mut buf = vec![0.0; plan.scratch_len(1)];
            for (family, inputs) in &families {
                for x in inputs {
                    plan.right_multiply_sparse_with(
                        x,
                        &mut y_walk,
                        &mut buf,
                        SparseStrategy::Activity,
                    )
                    .expect("walk");
                    plan.right_multiply_sparse_with(
                        x,
                        &mut y_scatter,
                        &mut buf,
                        SparseStrategy::Scatter,
                    )
                    .expect("scatter");
                    assert_eq!(y_walk, y_scatter, "both arms must match exactly");
                }
                let (walk, scatter) = time_arms(&plan, inputs, &mut y_walk, &mut buf);
                let nnz = inputs[0].len();
                let auto = if nnz as f64 <= cols as f64 * SPARSE_DENSITY_THRESHOLD {
                    "walk"
                } else {
                    "scat"
                };
                println!(
                    "{:<7} {prec:<4} {family:<11} {nnz:>4} {:>6.1}% {:>9.1} {:>12.1} {:>5.2}x {auto:>5}",
                    enc.name(),
                    grammar_reach(&cm, inputs),
                    walk * 1e6,
                    scatter * 1e6,
                    scatter / walk,
                );
            }
        }
    }
    println!("\nall walk results matched the scatter arm exactly");
}
