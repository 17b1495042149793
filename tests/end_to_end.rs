//! Cross-crate integration tests: dataset generation → CSRV → grammar
//! compression → compressed-domain multiplication, validated against the
//! dense reference, including the row-sharded (§4.1) and per-shard
//! reordered (§5.3) pipelines.

use mm_repair::prelude::*;
use mm_repair::serve::Model;

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative tolerance: compressed kernels reassociate sums, so allow tiny
/// floating-point drift proportional to magnitude.
fn assert_close(a: &[f64], b: &[f64], what: &str) {
    let scale = a.iter().map(|v| v.abs()).fold(1.0, f64::max);
    let diff = max_abs_diff(a, b);
    assert!(diff <= 1e-9 * scale, "{what}: diff {diff} at scale {scale}");
}

#[test]
fn every_dataset_compresses_and_multiplies_exactly() {
    for ds in Dataset::ALL {
        let rows = 400; // small but structurally faithful
        let dense = ds.generate(rows, 99);
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let cols = dense.cols();
        let x: Vec<f64> = (0..cols).map(|i| ((i % 7) as f64) * 0.25 - 0.5).collect();
        let yv: Vec<f64> = (0..rows).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut y_ref = vec![0.0; rows];
        let mut x_ref = vec![0.0; cols];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        dense.left_multiply(&yv, &mut x_ref).unwrap();

        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let mut y = vec![0.0; rows];
            cm.right_multiply(&x, &mut y).unwrap();
            assert_close(&y_ref, &y, &format!("{:?} {} right", ds, enc.name()));
            let mut xo = vec![0.0; cols];
            cm.left_multiply(&yv, &mut xo).unwrap();
            assert_close(&x_ref, &xo, &format!("{:?} {} left", ds, enc.name()));
            // Lossless: decompression recovers the exact matrix.
            assert_eq!(cm.to_csrv().to_dense(), dense, "{ds:?} {}", enc.name());
        }
    }
}

#[test]
fn blocked_parallel_pipeline_matches_dense() {
    let dense = Dataset::Census.generate(600, 5);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let x0 = vec![1.0; dense.cols()];
    let reference = power_iterations(&dense, &x0, 10).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let opts = BuildConfig {
            encoding: EncodingChoice::Fixed(Encoding::ReAns),
            shards: threads,
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_csrv(&csrv, &opts).unwrap();
        assert_eq!(model.num_shards(), threads);
        let got = power_iterations(&model, &x0, 10).unwrap();
        assert_close(&reference.x, &got.x, &format!("{threads} threads"));
    }
}

#[test]
fn reordered_blocked_pipeline_matches_dense() {
    let dense = Dataset::Airline78.generate(800, 3);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let x0 = vec![0.5; dense.cols()];
    let reference = power_iterations(&dense, &x0, 8).unwrap();

    for algo in [ReorderAlgorithm::PathCover, ReorderAlgorithm::Mwm] {
        let blocks = reorder_blocks(&csrv, 4, algo, CsmConfig::default(), 8);
        let models = blocks
            .iter()
            .map(|b| Model::Compressed(CompressedMatrix::compress(b, Encoding::ReIv)))
            .collect();
        // Each shard keeps its own column order implicitly: CSRV pairs
        // keep their original column indices.
        let model = ShardedModel::from_parts(models, dense.cols(), None);
        assert_eq!(model.num_shards(), 4);
        let got = power_iterations(&model, &x0, 8).unwrap();
        assert_close(&reference.x, &got.x, algo.name());
    }
}

#[test]
fn compression_sizes_follow_paper_ordering() {
    // On the highly compressible Census data: re_ans < re_iv < re_32 <
    // csrv ≪ dense, with a large grammar gain (paper: six-fold).
    let dense = Dataset::Census.generate(4000, 21);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let re32 = CompressedMatrix::compress(&csrv, Encoding::Re32);
    let reiv = CompressedMatrix::compress(&csrv, Encoding::ReIv);
    let reans = CompressedMatrix::compress(&csrv, Encoding::ReAns);
    assert!(reans.stored_bytes() <= reiv.stored_bytes());
    assert!(reiv.stored_bytes() <= re32.stored_bytes());
    assert!(
        re32.stored_bytes() * 3 < csrv.csrv_bytes(),
        "grammar gain too small"
    );
    assert!(csrv.csrv_bytes() < dense.uncompressed_bytes());
}

#[test]
fn susy_like_data_gets_no_grammar_gain() {
    // The paper's other extreme: Susy's S stream has almost no repeated
    // pairs, so re_32 ≈ csrv.
    let dense = Dataset::Susy.generate(3000, 13);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let re32 = CompressedMatrix::compress(&csrv, Encoding::Re32);
    let ratio = re32.stored_bytes() as f64 / csrv.csrv_bytes() as f64;
    assert!(
        ratio > 0.9,
        "unexpected grammar gain on Susy-like data: {ratio}"
    );
}

#[test]
fn cla_agrees_with_dense_on_datasets() {
    for ds in [Dataset::Census, Dataset::Covtype, Dataset::Airline78] {
        let dense = ds.generate(500, 3);
        let cla = ClaMatrix::compress(&dense);
        let x: Vec<f64> = (0..dense.cols()).map(|i| (i as f64).sin()).collect();
        let mut y_ref = vec![0.0; 500];
        let mut y = vec![0.0; 500];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        cla.right_multiply(&x, &mut y).unwrap();
        assert_close(&y_ref, &y, &format!("{ds:?} CLA right"));
        let yv: Vec<f64> = (0..500).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let mut x_ref = vec![0.0; dense.cols()];
        let mut xo = vec![0.0; dense.cols()];
        dense.left_multiply(&yv, &mut x_ref).unwrap();
        cla.left_multiply(&yv, &mut xo).unwrap();
        assert_close(&x_ref, &xo, &format!("{ds:?} CLA left"));
    }
}

#[test]
fn grammar_beats_cla_on_census_like_data() {
    // The paper's §5.4 conclusion at small scale: re_ans compresses the
    // prototype-heavy Census data better than CLA.
    let dense = Dataset::Census.generate(4000, 77);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let reans = CompressedMatrix::compress(&csrv, Encoding::ReAns);
    let cla = ClaMatrix::compress(&dense);
    assert!(
        reans.stored_bytes() < cla.stored_bytes(),
        "re_ans {} should beat CLA {}",
        reans.stored_bytes(),
        cla.stored_bytes()
    );
}

/// End-to-end batched serving loop: `Y = M·X` through the execution layer
/// (one grammar traversal per batch, scratch from a reused workspace)
/// equals the dense reference for every dataset × encoding, including
/// row shards over the grammar and the CSRV backends.
#[test]
fn batched_serving_loop_matches_dense() {
    let sharded = |csrv: &CsrvMatrix, backend, encoding| {
        let opts = BuildConfig {
            backend,
            encoding: EncodingChoice::Fixed(encoding),
            shards: 4,
            ..BuildConfig::default()
        };
        ShardedModel::from_csrv(csrv, &opts).unwrap()
    };
    let k = 6;
    for ds in [Dataset::Census, Dataset::Covtype] {
        let dense = ds.generate(250, 7);
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let cols = dense.cols();
        let mut b = DenseMatrix::zeros(cols, k);
        for i in 0..cols {
            for j in 0..k {
                b.set(i, j, ((i * k + j) % 11) as f64 * 0.25 - 1.0);
            }
        }
        let want = dense.right_multiply_matrix(&b).unwrap();
        let mut ws = Workspace::new();
        let backends: Vec<(&str, Box<dyn MatVec>)> = vec![
            ("csrv", Box::new(csrv.clone())),
            (
                "sharded-csrv-4",
                Box::new(sharded(&csrv, Backend::Csrv, Encoding::ReIv)),
            ),
            (
                "re_32",
                Box::new(CompressedMatrix::compress(&csrv, Encoding::Re32)),
            ),
            (
                "re_iv",
                Box::new(CompressedMatrix::compress(&csrv, Encoding::ReIv)),
            ),
            (
                "re_ans",
                Box::new(CompressedMatrix::compress(&csrv, Encoding::ReAns)),
            ),
            (
                "sharded-re_iv-4",
                Box::new(sharded(&csrv, Backend::Compressed, Encoding::ReIv)),
            ),
        ];
        for (name, m) in &backends {
            let mut out = DenseMatrix::zeros(250, k);
            // Twice through the same workspace: the serving-loop pattern.
            for _ in 0..2 {
                m.right_multiply_matrix_into(&b, &mut out, &mut ws).unwrap();
            }
            assert_close(
                want.as_slice(),
                out.as_slice(),
                &format!("{ds:?} {name} batched right"),
            );
        }
    }
}

#[test]
fn byte_compressors_roundtrip_dataset_payloads() {
    use mm_repair::baselines::{gzipish, xzish};
    for ds in [Dataset::Census, Dataset::Susy] {
        let dense = ds.generate(300, 17);
        let bytes = dense.to_le_bytes();
        let gz = gzipish::compress(&bytes);
        assert_eq!(gzipish::decompress(&gz).unwrap(), bytes, "{ds:?} gzipish");
        let xz = xzish::compress(&bytes);
        assert_eq!(xzish::decompress(&xz).unwrap(), bytes, "{ds:?} xzish");
    }
}
