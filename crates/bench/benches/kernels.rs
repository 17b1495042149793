//! Compiled-plan kernels vs. the streaming reference kernels.
//!
//! * `right/k1`, `right/k8`, `left/k1`, `left/k8`: core-level planned
//!   (f64 and f32) vs. streaming, per encoding, on a ≥350k-nnz Census
//!   slice. The plan removes the per-symbol `div`/`mod`, the terminal
//!   branch, the rule enum dispatch, and (for `re_iv`/`re_ans`/`re_fse`)
//!   the packed/entropy decode, so the gap widens from `re_32` to
//!   `re_fse`; the f32 plan halves the descriptor heap on top.
//! * `decode`: raw sequence-stream expansion per encoding — the tANS
//!   table walk (`re_fse`) vs. the division-free rANS loop (`re_ans`).
//! * `sparse`: the sparse-input activity walk vs. the dense planned
//!   kernel over a density sweep (`nnz(x)/cols` of 0.1%, 1%, 10%, and
//!   fully dense), both precisions, inputs cycled round-robin so no
//!   column is cherry-picked. The dense/activity ratio at each density
//!   is the sparse speedup; the crossover pins
//!   `SPARSE_DENSITY_THRESHOLD`.
//! * `grammar/right`: the grammar-stage comparison — the same matrix
//!   compressed by classic RePair vs. MR-RePair (variable-arity rules,
//!   lowered to chained binary descriptors at plan compile), streaming
//!   and planned, per encoding. MR trades more symbols per rule for
//!   fewer rules; the planned gap shows what that buys at MVM time.
//! * `sharded/right`: the serve-layer view — `ShardedModel` at 1 and 4
//!   shards, streaming vs. f64-plan vs. f32-plan prewarm.
//!
//! Differential tests (`crates/core/tests/plan_vs_streaming.rs`,
//! `crates/core/tests/plan_f32_props.rs`) pin the kernel outputs; only
//! the clock should move here. Pass `--test` (CI's smoke mode) to
//! shrink the matrix and sample count so the bench doubles as a fast
//! end-to-end check.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gcm_core::{CompressedMatrix, Encoding, SparseStrategy};
use gcm_datagen::Dataset;
use gcm_matrix::{CsrvMatrix, Workspace, SEPARATOR};
use gcm_repair::RePair;
use gcm_serve::{BuildConfig, EncodingChoice, ServeOptions, ShardedModel};

/// The same CSRV stream compressed by the MR-RePair stage.
fn mr_compress(csrv: &CsrvMatrix, enc: Encoding) -> CompressedMatrix {
    let mr = RePair::new().compress_mr(csrv.symbols(), csrv.terminal_limit(), Some(SEPARATOR));
    CompressedMatrix::from_slp(csrv, &mr, enc)
}

/// CI smoke mode: `cargo bench --bench kernels -- --test`.
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn input(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i % 17) as f64 * 0.125 - 1.0).collect()
}

/// The density sweep of the `sparse` group: target `nnz(x)/cols`
/// ratios with display labels. Pinning data for
/// [`gcm_core::SPARSE_DENSITY_THRESHOLD`].
const SPARSE_DENSITIES: [(f64, &str); 6] = [
    (0.001, "d0.1pct"),
    (0.01, "d1pct"),
    (0.03, "d3pct"),
    (0.05, "d5pct"),
    (0.10, "d10pct"),
    (1.0, "dense"),
];

/// Deterministic sample of sparse input vectors at a given non-zero
/// count, cycled round-robin by the timed loop so no column is
/// cherry-picked: eight evenly-spaced one-hot vectors when `nnz == 1`,
/// otherwise eight index sets drawn from a fixed-seed LCG.
fn sparse_inputs(cols: usize, nnz: usize) -> Vec<Vec<(u32, f64)>> {
    let value = |j: u32| 1.5 + f64::from(j % 5) * 0.25;
    if nnz <= 1 {
        return (0..8)
            .map(|i| {
                let j = (i * cols / 8) as u32;
                vec![(j, value(j))]
            })
            .collect();
    }
    let mut state = 0x5eed_cafe_f00d_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..8)
        .map(|_| {
            let mut idx: Vec<u32> = Vec::with_capacity(nnz);
            while idx.len() < nnz {
                let j = (next() % cols) as u32;
                if !idx.contains(&j) {
                    idx.push(j);
                }
            }
            idx.sort_unstable();
            idx.into_iter().map(|j| (j, value(j))).collect()
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let rows = if smoke() { 400 } else { 13_000 };
    let dense = Dataset::Census.generate(rows, 42);
    let cols = dense.cols();
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let nnz = csrv.nnz();
    eprintln!("kernels bench: {rows} x {cols}, {nnz} nnz");

    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let plan = cm.plan();
        let plan32 = cm.plan_f32();
        let mut ws = Workspace::new();

        let mut group = c.benchmark_group("decode");
        group.throughput(Throughput::Elements(cm.sequence_len() as u64));
        group.bench_function(BenchmarkId::new("seq_store", enc.name()), |b| {
            b.iter(|| cm.seq_store().for_each(|s| _ = black_box(s)))
        });
        group.finish();

        for k in [1usize, 8] {
            let x_panel = input(cols * k);
            let mut y_panel = vec![0.0; rows * k];
            let y_input = input(rows * k);
            let mut x_out = vec![0.0; cols * k];
            let mut buf = vec![0.0; plan.scratch_len(k)];
            let mut buf32 = vec![0.0; plan32.scratch_len(k)];

            let mut group = c.benchmark_group(format!("right/k{k}"));
            group.throughput(Throughput::Elements((nnz * k) as u64));
            group.bench_function(BenchmarkId::new("streaming", enc.name()), |b| {
                b.iter(|| {
                    let mut w = ws.take(cm.num_rules() * k);
                    cm.right_multiply_panel_with(k, &x_panel, &mut y_panel, &mut w)
                        .unwrap();
                    ws.put(w);
                })
            });
            group.bench_function(BenchmarkId::new("planned", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf)
                        .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("planned_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply_panel(k, &x_panel, &mut y_panel, &mut buf32)
                        .unwrap()
                })
            });
            group.finish();

            let mut group = c.benchmark_group(format!("left/k{k}"));
            group.throughput(Throughput::Elements((nnz * k) as u64));
            group.bench_function(BenchmarkId::new("streaming", enc.name()), |b| {
                b.iter(|| {
                    let mut w = ws.take(cm.num_rules() * k);
                    let mut flags = ws.take(cm.num_rules());
                    cm.left_multiply_panel_with(k, &y_input, &mut x_out, &mut w, &mut flags)
                        .unwrap();
                    ws.put(flags);
                    ws.put(w);
                })
            });
            group.bench_function(BenchmarkId::new("planned", enc.name()), |b| {
                b.iter(|| {
                    plan.left_multiply_panel(k, &y_input, &mut x_out, &mut buf)
                        .unwrap()
                })
            });
            group.bench_function(BenchmarkId::new("planned_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .left_multiply_panel(k, &y_input, &mut x_out, &mut buf32)
                        .unwrap()
                })
            });
            group.finish();
        }

        // Sparse-input density sweep: the activity walk (forced, so it
        // is measured above the cutover too) against the dense planned
        // kernel, both precisions. Each timed iteration takes the next
        // input of the sample round-robin. Throughput stays the matrix
        // nnz, so elements/s reads as effective matrix throughput and
        // the dense/activity ratio is the speedup at that density.
        let mut buf = vec![0.0; plan.scratch_len(1)];
        let mut buf32 = vec![0.0; plan32.scratch_len(1)];
        let mut y = vec![0.0; rows];
        for (density, label) in SPARSE_DENSITIES {
            let count = ((cols as f64 * density) as usize).clamp(1, cols);
            let inputs = sparse_inputs(cols, count);
            let dense_inputs: Vec<Vec<f64>> = inputs
                .iter()
                .map(|x_nnz| {
                    let mut x = vec![0.0; cols];
                    for &(j, v) in x_nnz {
                        x[j as usize] = v;
                    }
                    x
                })
                .collect();
            let mut group = c.benchmark_group(format!("sparse/{label}"));
            group.throughput(Throughput::Elements(nnz as u64));
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("activity", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply_sparse_with(
                        &inputs[i % inputs.len()],
                        &mut y,
                        &mut buf,
                        SparseStrategy::Activity,
                    )
                    .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("dense", enc.name()), |b| {
                b.iter(|| {
                    plan.right_multiply(&dense_inputs[i % dense_inputs.len()], &mut y, &mut buf)
                        .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("activity_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply_sparse_with(
                            &inputs[i % inputs.len()],
                            &mut y,
                            &mut buf32,
                            SparseStrategy::Activity,
                        )
                        .unwrap();
                    i += 1;
                })
            });
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new("dense_f32", enc.name()), |b| {
                b.iter(|| {
                    plan32
                        .right_multiply(&dense_inputs[i % dense_inputs.len()], &mut y, &mut buf32)
                        .unwrap();
                    i += 1;
                })
            });
            group.finish();
        }
    }

    // Grammar stages: RePair vs MR-RePair on the same stream.
    for enc in Encoding::ALL {
        let x = input(cols);
        let mut y = vec![0.0; rows];
        let mut group = c.benchmark_group("grammar/right");
        group.throughput(Throughput::Elements(nnz as u64));
        for (stage, cm) in [
            ("repair", CompressedMatrix::compress(&csrv, enc)),
            ("mr", mr_compress(&csrv, enc)),
        ] {
            let plan = cm.plan();
            let mut buf = vec![0.0; plan.scratch_len(1)];
            let mut ws = Workspace::new();
            group.bench_function(
                BenchmarkId::new(format!("{stage}-streaming"), enc.name()),
                |b| {
                    b.iter(|| {
                        let mut w = ws.take(cm.num_rules());
                        cm.right_multiply_panel_with(1, &x, &mut y, &mut w).unwrap();
                        ws.put(w);
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("{stage}-planned"), enc.name()),
                |b| b.iter(|| plan.right_multiply(&x, &mut y, &mut buf).unwrap()),
            );
        }
        group.finish();
    }

    // The serve-layer view: shard parallelism × plan dispatch.
    let x = input(cols);
    let mut y = vec![0.0; rows];
    let mut group = c.benchmark_group("sharded/right");
    group.throughput(Throughput::Elements(nnz as u64));
    for shards in [1usize, 4] {
        let opts = BuildConfig {
            shards,
            encoding: EncodingChoice::Fixed(Encoding::ReFse),
            ..BuildConfig::default()
        };
        let streaming = ShardedModel::from_dense(&dense, &opts).expect("build");
        streaming.prewarm(1);
        group.bench_function(BenchmarkId::new("streaming", shards), |b| {
            b.iter(|| streaming.right_multiply_panel(1, &x, &mut y).unwrap())
        });
        let planned = ShardedModel::from_dense(&dense, &opts).expect("build");
        planned.prewarm_with(1, &ServeOptions::planned());
        group.bench_function(BenchmarkId::new("planned", shards), |b| {
            b.iter(|| planned.right_multiply_panel(1, &x, &mut y).unwrap())
        });
        let planned32 = ShardedModel::from_dense(&dense, &opts).expect("build");
        planned32.prewarm_with(1, &ServeOptions::planned_f32());
        group.bench_function(BenchmarkId::new("planned_f32", shards), |b| {
            b.iter(|| planned32.right_multiply_panel(1, &x, &mut y).unwrap())
        });
    }
    group.finish();
}

/// Full runs time 200 iterations per kernel, a window long enough that
/// one scheduler hiccup cannot dominate the mean; smoke runs keep 10.
fn config() -> Criterion {
    Criterion::default().sample_size(if smoke() { 10 } else { 200 })
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels
}
criterion_main!(benches);
