//! Property-based tests of the core invariants:
//!
//! * RePair expansion is the identity (lossless grammar compression),
//! * protected separators never appear inside rules,
//! * compressed-domain MVM equals dense MVM for every encoding,
//! * column reordering is a permutation and preserves MVM results,
//! * the byte compressors round-trip arbitrary inputs.

use proptest::prelude::*;

use mm_repair::prelude::*;

/// Strategy: a small random sparse matrix with a bounded value alphabet
/// (bounded alphabets are what make the formats interesting).
fn matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
    (1usize..24, 1usize..12).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..6).prop_map(|v| v as f64 * 0.5),
                1 => (-4i32..4).prop_map(|v| v as f64 + 0.25),
            ],
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data).unwrap())
    })
}

fn vector_for(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-8i32..8).prop_map(|v| v as f64 * 0.5), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repair_roundtrips_symbol_streams(
        symbols in proptest::collection::vec(0u32..12, 0..300)
    ) {
        let slp = RePair::new().compress(&symbols, 100, Some(0));
        prop_assert_eq!(slp.expand(), symbols);
        prop_assert!(slp.rules_avoid_terminal(0));
        prop_assert!(slp.check_invariants().is_ok());
    }

    #[test]
    fn csrv_from_dense_to_dense_is_identity(
        (m, x) in matrix_strategy().prop_flat_map(|m| {
            let cols = m.cols();
            (Just(m), vector_for(cols))
        }),
    ) {
        // Losslessness of the CSRV format itself (before any grammar
        // compression): decompressing straight back to dense recovers the
        // exact matrix, bit for bit.
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        prop_assert_eq!(csrv.to_dense(), m.clone());
        // And the format change alone never perturbs the products.
        let mut y_ref = vec![0.0; m.rows()];
        let mut y = vec![0.0; m.rows()];
        m.right_multiply(&x, &mut y_ref).unwrap();
        csrv.right_multiply(&x, &mut y).unwrap();
        for (a, b) in y_ref.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn grammar_mvm_equals_dense(m in matrix_strategy()) {
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64) - 1.5).collect();
        let yv: Vec<f64> = (0..m.rows()).map(|i| ((i % 3) as f64) - 1.0).collect();
        let mut y_ref = vec![0.0; m.rows()];
        let mut x_ref = vec![0.0; m.cols()];
        m.right_multiply(&x, &mut y_ref).unwrap();
        m.left_multiply(&yv, &mut x_ref).unwrap();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let mut y = vec![0.0; m.rows()];
            cm.right_multiply(&x, &mut y).unwrap();
            for (a, b) in y_ref.iter().zip(&y) {
                prop_assert!((a - b).abs() < 1e-9);
            }
            let mut xo = vec![0.0; m.cols()];
            cm.left_multiply(&yv, &mut xo).unwrap();
            for (a, b) in x_ref.iter().zip(&xo) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn blocked_equals_unblocked(m in matrix_strategy(), blocks in 1usize..6) {
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let opts = BuildConfig {
            encoding: EncodingChoice::Fixed(Encoding::ReIv),
            shards: blocks,
            ..BuildConfig::default()
        };
        let sharded = ShardedModel::from_csrv(&csrv, &opts).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64) * 0.25).collect();
        let mut y_a = vec![0.0; m.rows()];
        let mut y_b = vec![0.0; m.rows()];
        cm.right_multiply(&x, &mut y_a).unwrap();
        sharded.right_multiply(&x, &mut y_b).unwrap();
        for (a, b) in y_a.iter().zip(&y_b) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The batched multi-vector product must equal `k` independent
    /// `right_multiply` calls (and the left-multiply analogue) bit for
    /// bit, for CSRV and all three encodings: every lane of the k-wide
    /// kernels adds in the width-1 kernels' order, so the two arms of
    /// each backend's panel entry are pinned to each other.
    #[test]
    fn batched_product_equals_independent_calls(
        (m, k) in matrix_strategy().prop_flat_map(|m| (Just(m), 1usize..9)),
    ) {
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let (rows, cols) = (m.rows(), m.cols());
        let mut b = DenseMatrix::zeros(cols, k);
        for i in 0..cols {
            for j in 0..k {
                b.set(i, j, ((i * k + j) % 13) as f64 * 0.5 - 3.0);
            }
        }
        let mut by = DenseMatrix::zeros(rows, k);
        for i in 0..rows {
            for j in 0..k {
                by.set(i, j, ((i + 3 * j) % 7) as f64 - 2.0);
            }
        }
        let mut backends: Vec<(&str, Box<dyn MatVec>)> = vec![("csrv", Box::new(csrv.clone()))];
        for enc in Encoding::ALL {
            backends.push((enc.name(), Box::new(CompressedMatrix::compress(&csrv, enc))));
        }
        let mut ws = Workspace::new();
        for (name, backend) in &backends {
            let mut out = DenseMatrix::zeros(rows, k);
            backend.right_multiply_matrix_into(&b, &mut out, &mut ws).unwrap();
            for j in 0..k {
                let x: Vec<f64> = (0..cols).map(|i| b.get(i, j)).collect();
                let mut y = vec![0.0; rows];
                backend.right_multiply(&x, &mut y).unwrap();
                for (i, &yi) in y.iter().enumerate() {
                    prop_assert!(
                        out.get(i, j) == yi,
                        "{} right k={} col={}", name, k, j
                    );
                }
            }

            let mut outl = DenseMatrix::zeros(cols, k);
            backend.left_multiply_matrix_into(&by, &mut outl, &mut ws).unwrap();
            for j in 0..k {
                let y: Vec<f64> = (0..rows).map(|i| by.get(i, j)).collect();
                let mut x = vec![0.0; cols];
                backend.left_multiply(&y, &mut x).unwrap();
                for (i, &xi) in x.iter().enumerate() {
                    prop_assert!(
                        outl.get(i, j) == xi,
                        "{} left k={} col={}", name, k, j
                    );
                }
            }
        }
    }

    #[test]
    fn reordering_is_permutation_preserving_mvm(
        m in matrix_strategy(),
        k in 1usize..6
    ) {
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        for algo in [
            ReorderAlgorithm::PathCover,
            ReorderAlgorithm::Mwm,
            ReorderAlgorithm::Lkh,
        ] {
            let order = reorder_columns(&csrv, algo, CsmConfig::exact(), k);
            // Permutation check.
            let mut seen = vec![false; m.cols()];
            prop_assert_eq!(order.len(), m.cols());
            for &c in &order {
                prop_assert!(!seen[c]);
                seen[c] = true;
            }
            // Reordered matrix is the same matrix.
            let reordered = csrv.with_column_order(&order);
            prop_assert_eq!(reordered.to_dense(), m.clone());
        }
    }

    #[test]
    fn gzipish_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = mm_repair::baselines::gzipish::compress(&data);
        prop_assert_eq!(mm_repair::baselines::gzipish::decompress(&c), Some(data));
    }

    #[test]
    fn xzish_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = mm_repair::baselines::xzish::compress(&data);
        prop_assert_eq!(mm_repair::baselines::xzish::decompress(&c), Some(data));
    }

    #[test]
    fn rans_roundtrip(data in proptest::collection::vec(0u32..100_000, 0..2000)) {
        let seq = mm_repair::encodings::rans::RansSequence::encode(&data);
        prop_assert_eq!(seq.to_vec(), data);
    }

    #[test]
    fn intvector_roundtrip(data in proptest::collection::vec(any::<u32>(), 0..500)) {
        let iv = mm_repair::encodings::IntVector::from_u32s(&data);
        let back: Vec<u32> = iv.iter().map(|v| v as u32).collect();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn cla_mvm_equals_dense(m in matrix_strategy()) {
        let cla = ClaMatrix::compress(&m);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let mut y_ref = vec![0.0; m.rows()];
        let mut y = vec![0.0; m.rows()];
        m.right_multiply(&x, &mut y_ref).unwrap();
        cla.right_multiply(&x, &mut y).unwrap();
        for (a, b) in y_ref.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
