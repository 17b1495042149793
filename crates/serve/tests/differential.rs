//! The cross-backend differential test harness.
//!
//! One oracle (dense), one grid of matrix shapes (empty, zero-row, 1×1,
//! single row, single column, fully dense, sparse, clustered), and
//! **every** multiplication surface of **every** backend — CSR, CSRV,
//! every compressed encoding, and the sharded serve engine (plain,
//! reloaded and per-shard-reordered row shards over both backends) —
//! must agree with the oracle to 1e-9:
//!
//! * `right_multiply` / `left_multiply` (allocating wrappers),
//! * `right_multiply_into` / `left_multiply_into` (one shared workspace
//!   across all backends, which also proves cross-backend workspace
//!   reuse is safe),
//! * `right_multiply_matrix[_into]` / `left_multiply_matrix[_into]`
//!   (batched panels),
//! * and, for the serve layer, everything again **after a save → load
//!   round-trip through the on-disk container**.
//!
//! This is the safety net under the serve refactor: any backend that
//! drifts from the shared `MatVec` semantics fails here with a name
//! attached.

use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::{CsrMatrix, CsrvMatrix, DenseMatrix, MatVec, Workspace};
use gcm_serve::{Backend, BuildConfig, EncodingChoice, ReorderMode, ServeOptions, ShardedModel};

const TOL: f64 = 1e-9;

/// The matrix grid: name + dense representative.
fn matrix_grid() -> Vec<(&'static str, DenseMatrix)> {
    let mut grid: Vec<(&'static str, DenseMatrix)> = vec![
        ("empty-4x3", DenseMatrix::zeros(4, 3)),
        ("zero-rows-0x5", DenseMatrix::zeros(0, 5)),
        ("one-by-one", DenseMatrix::from_rows(&[&[2.5]])),
        (
            "single-row",
            DenseMatrix::from_rows(&[&[
                1.0, 0.0, 2.0, 1.0, 0.0, 2.0, 1.0, 0.0, 2.0, 1.0, 0.0, 2.0,
            ]]),
        ),
    ];
    {
        let mut col = DenseMatrix::zeros(9, 1);
        for r in 0..9 {
            col.set(r, 0, ((r % 3) + 1) as f64 * 0.5);
        }
        grid.push(("single-col", col));
    }
    {
        let mut dense = DenseMatrix::zeros(16, 6);
        for r in 0..16 {
            for c in 0..6 {
                dense.set(r, c, (((r * 6 + c) % 7) + 1) as f64 * 0.25);
            }
        }
        grid.push(("fully-dense", dense));
    }
    {
        let mut sparse = DenseMatrix::zeros(31, 9);
        for r in 0..31 {
            for c in 0..9 {
                if (r * 9 + c) % 7 == 0 {
                    sparse.set(r, c, (((r + c) % 4) + 1) as f64);
                }
            }
        }
        grid.push(("sparse", sparse));
    }
    {
        // Clustered: repeated row patterns, the RePair-friendly case.
        let mut clustered = DenseMatrix::zeros(48, 10);
        for r in 0..48 {
            for c in 0..10 {
                let v = match (r % 4, c % 3) {
                    (0, 0) => 1.5,
                    (1, 1) => 2.5,
                    (2, _) => 0.5,
                    (3, 2) => 7.25,
                    _ => 0.0,
                };
                clustered.set(r, c, v);
            }
        }
        grid.push(("clustered", clustered));
    }
    grid
}

/// Every in-memory backend as a named `MatVec` trait object.
fn backends(dense: &DenseMatrix) -> Vec<(String, Box<dyn MatVec>)> {
    let csrv = CsrvMatrix::from_dense(dense).expect("csrv");
    let mut out: Vec<(String, Box<dyn MatVec>)> = vec![
        ("csr".into(), Box::new(CsrMatrix::from_dense(dense))),
        ("csrv".into(), Box::new(csrv.clone())),
    ];
    for enc in Encoding::ALL {
        out.push((
            format!("compressed-{}", enc.name()),
            Box::new(CompressedMatrix::compress(&csrv, enc)),
        ));
    }
    // The sharded serve engine, plus one save→load round-trip per serve
    // backend: the differential harness is what makes the container a
    // safe place to put a model.
    for backend in Backend::ALL {
        let opts = BuildConfig {
            backend,
            shards: 3,
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(dense, &opts).expect("build");
        let reloaded = ShardedModel::from_bytes(&model.to_bytes()).expect("container round-trip");
        out.push((format!("sharded-{}-3", backend.name()), Box::new(model)));
        out.push((
            format!("sharded-{}-3-reloaded", backend.name()),
            Box::new(reloaded),
        ));
    }
    // Per-shard column reordering (§5.3): every shard compresses under
    // its own permutation — the differential harness pins the reordered
    // kernels AND the per-shard-order container round-trip to the
    // oracle across the whole edge-shape grid.
    for backend in Backend::ALL {
        let opts = BuildConfig {
            backend,
            shards: 3,
            reorder: Some(ReorderMode::PerShard(
                gcm_reorder::ReorderAlgorithm::PathCover,
            )),
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(dense, &opts).expect("build reordered");
        let reloaded = ShardedModel::from_bytes(&model.to_bytes())
            .expect("per-shard-order container round-trip");
        out.push((
            format!("sharded-{}-3-pershard-reorder", backend.name()),
            Box::new(model),
        ));
        out.push((
            format!("sharded-{}-3-pershard-reorder-reloaded", backend.name()),
            Box::new(reloaded),
        ));
    }
    out
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= TOL,
            "{what}: index {i}: got {g}, oracle {w}"
        );
    }
}

fn input_vec(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 7 + salt * 3) % 11) as f64 * 0.5 - 2.0)
        .collect()
}

fn input_panel(rows: usize, k: usize, salt: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, k);
    for i in 0..rows {
        for j in 0..k {
            m.set(i, j, ((i * k + j + salt) % 13) as f64 * 0.25 - 1.5);
        }
    }
    m
}

#[test]
fn every_backend_agrees_with_the_dense_oracle() {
    let k = 3usize;
    // One workspace shared across every backend and shape: reuse across
    // differently-shaped matrices must never corrupt results.
    let mut ws = Workspace::new();
    for (shape, dense) in matrix_grid() {
        let (rows, cols) = (dense.rows(), dense.cols());
        let x = input_vec(cols, 1);
        let yv = input_vec(rows, 2);
        let b_right = input_panel(cols, k, 3);
        let b_left = input_panel(rows, k, 4);

        // Oracle products.
        let mut y_oracle = vec![0.0; rows];
        dense.right_multiply(&x, &mut y_oracle).unwrap();
        let mut x_oracle = vec![0.0; cols];
        dense.left_multiply(&yv, &mut x_oracle).unwrap();
        let ym_oracle = dense.right_multiply_matrix(&b_right).unwrap();
        let xm_oracle = dense.left_multiply_matrix(&b_left).unwrap();

        for (name, backend) in backends(&dense) {
            let tag = format!("{shape}/{name}");
            assert_eq!(backend.rows(), rows, "{tag}: rows");
            assert_eq!(backend.cols(), cols, "{tag}: cols");

            // Allocating single-vector wrappers.
            let mut y = vec![0.0; rows];
            backend.right_multiply(&x, &mut y).unwrap();
            assert_close(&y, &y_oracle, &format!("{tag} right"));
            let mut xo = vec![0.0; cols];
            backend.left_multiply(&yv, &mut xo).unwrap();
            assert_close(&xo, &x_oracle, &format!("{tag} left"));

            // Workspace paths.
            let mut y2 = vec![0.0; rows];
            backend.right_multiply_into(&x, &mut y2, &mut ws).unwrap();
            assert_close(&y2, &y_oracle, &format!("{tag} right_into"));
            let mut x2 = vec![0.0; cols];
            backend.left_multiply_into(&yv, &mut x2, &mut ws).unwrap();
            assert_close(&x2, &x_oracle, &format!("{tag} left_into"));

            // Batched products, allocating and into.
            let ym = backend.right_multiply_matrix(&b_right).unwrap();
            assert_close(
                ym.as_slice(),
                ym_oracle.as_slice(),
                &format!("{tag} right_matrix"),
            );
            let xm = backend.left_multiply_matrix(&b_left).unwrap();
            assert_close(
                xm.as_slice(),
                xm_oracle.as_slice(),
                &format!("{tag} left_matrix"),
            );
            let mut ym2 = DenseMatrix::zeros(rows, k);
            backend
                .right_multiply_matrix_into(&b_right, &mut ym2, &mut ws)
                .unwrap();
            assert_close(
                ym2.as_slice(),
                ym_oracle.as_slice(),
                &format!("{tag} right_matrix_into"),
            );
            let mut xm2 = DenseMatrix::zeros(cols, k);
            backend
                .left_multiply_matrix_into(&b_left, &mut xm2, &mut ws)
                .unwrap();
            assert_close(
                xm2.as_slice(),
                xm_oracle.as_slice(),
                &format!("{tag} left_matrix_into"),
            );
        }
    }
}

/// Row-subset products (`right_multiply_rows`) must be bit-exact with
/// the corresponding slice of the full oracle product — across the
/// shape grid, every backend, every compressed encoding, shard counts,
/// and both the compile-on-load and the persisted-plan (v4 container)
/// paths. Output buffers are prefilled with a sentinel to prove the
/// subset path fully overwrites its chunk.
#[test]
fn row_subset_products_match_the_oracle_slice() {
    let k = 3usize;
    for (shape, dense) in matrix_grid() {
        let (rows, cols) = (dense.rows(), dense.cols());
        let b_right = input_panel(cols, k, 3);
        let ym_oracle = dense.right_multiply_matrix(&b_right).unwrap();
        let x = b_right.as_slice();
        let candidates = [
            (0, rows),
            (0, 0),
            (rows / 3, (2 * rows) / 3),
            (rows.saturating_sub(1), rows),
        ];
        for backend in Backend::ALL {
            let encodings: &[Encoding] = match backend {
                Backend::Compressed => &Encoding::ALL,
                _ => &[Encoding::ReAns],
            };
            for &encoding in encodings {
                for shards in [1usize, 3] {
                    for planned in [false, true] {
                        // Only the compressed backend compiles
                        // plans; a planned pass elsewhere is a no-op.
                        if planned && backend != Backend::Compressed {
                            continue;
                        }
                        let opts = BuildConfig {
                            backend,
                            encoding: EncodingChoice::Fixed(encoding),
                            shards,
                            ..BuildConfig::default()
                        };
                        let built = ShardedModel::from_dense(&dense, &opts).expect("build");
                        let bytes = if planned {
                            built.prewarm_with(k, &ServeOptions::planned());
                            built.to_bytes_with_plans()
                        } else {
                            built.to_bytes()
                        };
                        let model = ShardedModel::from_bytes(&bytes).expect("round-trip");
                        let tag = format!(
                            "{shape}/{}-{}-s{shards}{}",
                            backend.name(),
                            encoding.name(),
                            if planned { "-planned" } else { "" }
                        );
                        for &(a, b) in &candidates {
                            if a > b || b > rows {
                                continue;
                            }
                            let mut y = vec![42.0; (b - a) * k];
                            model
                                .right_multiply_rows(a..b, k, x, &mut y)
                                .unwrap_or_else(|e| panic!("{tag} rows {a}..{b}: {e}"));
                            assert_close(
                                &y,
                                &ym_oracle.as_slice()[a * k..b * k],
                                &format!("{tag} rows {a}..{b}"),
                            );
                        }
                        // Past-the-end and inverted ranges are rejected.
                        let mut sink = vec![0.0; (rows + 1) * k];
                        assert!(
                            model
                                .right_multiply_rows(0..rows + 1, k, x, &mut sink)
                                .is_err(),
                            "{tag}: past-end range must be rejected"
                        );
                        if rows >= 2 {
                            #[allow(clippy::reversed_empty_ranges)]
                            let inverted = 2..1;
                            assert!(
                                model
                                    .right_multiply_rows(inverted, k, x, &mut sink)
                                    .is_err(),
                                "{tag}: inverted range must be rejected"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Sparse-input right products (`right_multiply_sparse`) must be
/// **exactly** equal to the same model's dense-input product — across
/// the shape grid, every backend, every compressed encoding, shard
/// counts, and both streaming and planned serving. Below the density
/// cutover the planned path routes through the activity-propagation
/// kernel, above it through the dense-scatter fallback; both claim
/// bit-equality with the dense kernels (modulo the sign of zero, which
/// `==` deliberately does not discriminate). The pattern set includes
/// the all-zero vector and a single non-zero; malformed inputs
/// (duplicate, unsorted, or out-of-range indices, more pairs than
/// columns, wrong output length) must be rejected.
#[test]
fn sparse_right_products_match_the_dense_path_exactly() {
    for (shape, dense) in matrix_grid() {
        let (rows, cols) = (dense.rows(), dense.cols());
        let mut patterns: Vec<(&'static str, Vec<(u32, f64)>)> = vec![("all-zero", vec![])];
        if cols > 0 {
            patterns.push(("single-nonzero", vec![(cols as u32 / 2, 1.75)]));
            patterns.push((
                "every-3rd",
                (0..cols as u32)
                    .step_by(3)
                    .map(|j| (j, 0.5 + f64::from(j % 4)))
                    .collect(),
            ));
        }
        for backend in Backend::ALL {
            let encodings: &[Encoding] = match backend {
                Backend::Compressed => &Encoding::ALL,
                _ => &[Encoding::ReAns],
            };
            for &encoding in encodings {
                for shards in [1usize, 3] {
                    for planned in [false, true] {
                        if planned && backend != Backend::Compressed {
                            continue;
                        }
                        let opts = BuildConfig {
                            backend,
                            encoding: EncodingChoice::Fixed(encoding),
                            shards,
                            ..BuildConfig::default()
                        };
                        let built = ShardedModel::from_dense(&dense, &opts).expect("build");
                        let model =
                            ShardedModel::from_bytes(&built.to_bytes()).expect("round-trip");
                        if planned {
                            model.prewarm_with(1, &ServeOptions::planned());
                        }
                        let tag = format!(
                            "{shape}/{}-{}-s{shards}{}",
                            backend.name(),
                            encoding.name(),
                            if planned { "-planned" } else { "" }
                        );
                        for (pname, x_nnz) in &patterns {
                            let mut x = vec![0.0; cols];
                            for &(j, v) in x_nnz {
                                x[j as usize] = v;
                            }
                            let mut y_dense = vec![0.0; rows];
                            model.right_multiply_panel(1, &x, &mut y_dense).unwrap();
                            // Sentinel prefill: the sparse path must
                            // fully overwrite y, untouched rows included.
                            let mut y_sparse = vec![42.0; rows];
                            model
                                .right_multiply_sparse(x_nnz, &mut y_sparse)
                                .unwrap_or_else(|e| panic!("{tag} {pname}: {e}"));
                            for (i, (s, d)) in y_sparse.iter().zip(&y_dense).enumerate() {
                                assert!(s == d, "{tag} {pname}: row {i}: sparse {s} != dense {d}");
                            }
                        }
                        // Malformed sparse inputs fast-fail.
                        if cols >= 3 {
                            let mut y = vec![0.0; rows];
                            assert!(
                                model
                                    .right_multiply_sparse(&[(1, 1.0), (1, 2.0)], &mut y)
                                    .is_err(),
                                "{tag}: duplicate index must be rejected"
                            );
                            assert!(
                                model
                                    .right_multiply_sparse(&[(2, 1.0), (0, 2.0)], &mut y)
                                    .is_err(),
                                "{tag}: unsorted indices must be rejected"
                            );
                            assert!(
                                model
                                    .right_multiply_sparse(&[(cols as u32, 1.0)], &mut y)
                                    .is_err(),
                                "{tag}: out-of-range index must be rejected"
                            );
                            let long: Vec<(u32, f64)> =
                                (0..=cols as u32).map(|j| (j, 1.0)).collect();
                            assert!(
                                model.right_multiply_sparse(&long, &mut y).is_err(),
                                "{tag}: more pairs than columns must be rejected"
                            );
                            let mut y_bad = vec![0.0; rows + 1];
                            assert!(
                                model
                                    .right_multiply_sparse(&[(0, 1.0)], &mut y_bad)
                                    .is_err(),
                                "{tag}: wrong y length must be rejected"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// MR-RePair and per-shard auto grammar selection must be invisible to
/// the products: across the shape grid, both compressed serve backends,
/// every encoding, shard counts, and streaming + planned + planned-f32
/// serving — after a save → load round-trip through the container —
/// right/left panels match the dense oracle to 1e-9 (1e-3
/// for f32 plans) and sparse-input right products stay bit-equal to the
/// same model's dense-input path.
#[test]
fn grammar_stage_shards_match_the_oracle_everywhere() {
    use gcm_serve::GrammarChoice;
    let k = 2usize;
    for (shape, dense) in matrix_grid() {
        let (rows, cols) = (dense.rows(), dense.cols());
        let b_right = input_panel(cols, k, 3);
        let b_left = input_panel(rows, k, 4);
        let ym_oracle = dense.right_multiply_matrix(&b_right).unwrap();
        let xm_oracle = dense.left_multiply_matrix(&b_left).unwrap();
        let sparse_x: Vec<(u32, f64)> = (0..cols as u32)
            .step_by(2)
            .map(|j| (j, 0.75 + f64::from(j % 3)))
            .collect();
        for grammar in [GrammarChoice::MrRePair, GrammarChoice::Auto] {
            for encoding in Encoding::ALL {
                for shards in [1usize, 3] {
                    let opts = BuildConfig {
                        encoding: EncodingChoice::Fixed(encoding),
                        shards,
                        grammar: Some(grammar),
                        ..BuildConfig::default()
                    };
                    let built = ShardedModel::from_dense(&dense, &opts).expect("build");
                    let bytes = built.to_bytes();
                    for mode in ["streaming", "planned", "planned-f32"] {
                        let tag = format!(
                            "{shape}/compressed-{}-{:?}-s{shards}-{mode}",
                            encoding.name(),
                            grammar,
                        );
                        // A fresh load per mode: plans compile once
                        // per model, so each precision gets its own.
                        let model = ShardedModel::from_bytes(&bytes).expect("v5 round-trip");
                        for i in 0..model.num_shards() {
                            assert!(
                                model.shard_meta(i).grammar.is_some(),
                                "{tag}: stage must survive the container"
                            );
                        }
                        let tol = match mode {
                            "planned" => {
                                model.prewarm_with(k, &ServeOptions::planned());
                                assert!(model.is_planned(), "{tag}");
                                TOL
                            }
                            "planned-f32" => {
                                model.prewarm_with(k, &ServeOptions::planned_f32());
                                assert!(model.is_planned(), "{tag}");
                                1e-3
                            }
                            _ => TOL,
                        };
                        let mut ym = vec![0.0; rows * k];
                        model
                            .right_multiply_panel(k, b_right.as_slice(), &mut ym)
                            .unwrap();
                        let mut xm = vec![0.0; cols * k];
                        model
                            .left_multiply_panel(k, b_left.as_slice(), &mut xm)
                            .unwrap();
                        for (i, (g, w)) in ym.iter().zip(ym_oracle.as_slice()).enumerate() {
                            assert!((g - w).abs() <= tol, "{tag} right {i}: {g} vs {w}");
                        }
                        for (i, (g, w)) in xm.iter().zip(xm_oracle.as_slice()).enumerate() {
                            assert!((g - w).abs() <= tol, "{tag} left {i}: {g} vs {w}");
                        }
                        // Sparse input: bit-equal to the same
                        // model's dense-input product.
                        let mut x_dense = vec![0.0; cols];
                        for &(j, v) in &sparse_x {
                            x_dense[j as usize] = v;
                        }
                        let mut y_dense = vec![0.0; rows];
                        model
                            .right_multiply_panel(1, &x_dense, &mut y_dense)
                            .unwrap();
                        let mut y_sparse = vec![42.0; rows];
                        model
                            .right_multiply_sparse(&sparse_x, &mut y_sparse)
                            .unwrap();
                        for (i, (s, d)) in y_sparse.iter().zip(&y_dense).enumerate() {
                            assert!(s == d, "{tag} sparse row {i}: {s} != {d}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_backend_rejects_mismatched_dimensions() {
    let dense = matrix_grid()
        .into_iter()
        .find(|(n, _)| *n == "sparse")
        .unwrap()
        .1;
    let (rows, cols) = (dense.rows(), dense.cols());
    for (name, backend) in backends(&dense) {
        let mut y = vec![0.0; rows];
        assert!(
            backend
                .right_multiply(&vec![0.0; cols + 1], &mut y)
                .is_err(),
            "{name}: right must reject wrong x length"
        );
        let mut x = vec![0.0; cols];
        assert!(
            backend.left_multiply(&vec![0.0; rows + 1], &mut x).is_err(),
            "{name}: left must reject wrong y length"
        );
        let bad = DenseMatrix::zeros(cols + 1, 2);
        assert!(
            backend.right_multiply_matrix(&bad).is_err(),
            "{name}: batched right must reject wrong panel shape"
        );
    }
}

#[test]
fn reordered_compression_survives_the_container() {
    // The §5 pipeline (reorder → compress → persist → load → serve) must
    // be product-preserving end to end.
    let (_, dense) = matrix_grid()
        .into_iter()
        .find(|(n, _)| *n == "clustered")
        .unwrap();
    let x = input_vec(dense.cols(), 5);
    let mut y_oracle = vec![0.0; dense.rows()];
    dense.right_multiply(&x, &mut y_oracle).unwrap();
    for algo in [
        gcm_reorder::ReorderAlgorithm::PathCover,
        gcm_reorder::ReorderAlgorithm::Mwm,
    ] {
        let opts = BuildConfig {
            shards: 2,
            reorder: Some(ReorderMode::Global(algo)),
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        let reloaded = ShardedModel::from_bytes(&model.to_bytes()).unwrap();
        assert!(reloaded.col_order().is_some());
        let mut y = vec![0.0; dense.rows()];
        reloaded.right_multiply_panel(1, &x, &mut y).unwrap();
        assert_close(&y, &y_oracle, algo.name());
    }
}
