//! Property-based tests of per-block reordering (§5.3), the way the
//! build pipeline runs it: [`BlockReorderConfig::apply`] on every
//! [`RowBlocks::split`] block.
//!
//! * every permutation `apply` returns is a valid permutation of the
//!   columns, for every algorithm and any matrix;
//! * reordering never changes a block's content (CSRV pairs keep their
//!   original column indices), so the reassembled blocks equal the
//!   original matrix row range for row range;
//! * `apply` with one uniform config agrees with the `reorder_blocks`
//!   wrapper.

use proptest::prelude::*;

use gcm_matrix::{CsrvMatrix, DenseMatrix, RowBlocks};
use gcm_reorder::{reorder_blocks, BlockReorderConfig, ReorderAlgorithm};

/// Random small dense matrices: value 0 (zero entry) or a handful of
/// repeated magnitudes, so reordering has correlations to chew on.
fn dense_strategy() -> impl Strategy<Value = DenseMatrix> {
    (1usize..24, 1usize..9).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(0u32..5, rows * cols).prop_map(move |vals| {
            let mut m = DenseMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    let v = vals[r * cols + c];
                    if v != 0 {
                        m.set(r, c, v as f64 * 0.75);
                    }
                }
            }
            m
        })
    })
}

fn algos() -> impl Strategy<Value = ReorderAlgorithm> {
    prop_oneof![
        Just(ReorderAlgorithm::PathCover),
        Just(ReorderAlgorithm::PathCoverPlus),
        Just(ReorderAlgorithm::Mwm),
        Just(ReorderAlgorithm::Lkh),
    ]
}

/// `matrix` split into `blocks` row blocks, each reordered by
/// `BlockReorderConfig::new(algo)`, with its permutation.
fn reorder_each_block(
    matrix: &CsrvMatrix,
    blocks: usize,
    algo: ReorderAlgorithm,
) -> Vec<(CsrvMatrix, Vec<usize>)> {
    let config = BlockReorderConfig::new(algo);
    RowBlocks::split(matrix, blocks)
        .blocks()
        .iter()
        .map(|block| config.apply(block))
        .collect()
}

fn check_permutation(order: &[usize], cols: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(order.len(), cols);
    let mut seen = vec![false; cols];
    for &c in order {
        prop_assert!(c < cols, "column {} out of range", c);
        prop_assert!(!seen[c], "column {} repeated", c);
        seen[c] = true;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn per_block_orders_are_valid_permutations(
        dense in dense_strategy(),
        algo in algos(),
        blocks in 1usize..6,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let n_blocks = RowBlocks::split(&csrv, blocks).len();
        let reordered = reorder_each_block(&csrv, blocks, algo);
        prop_assert_eq!(reordered.len(), n_blocks);
        for (_, order) in &reordered {
            check_permutation(order, dense.cols())?;
        }
    }

    #[test]
    fn reordered_blocks_preserve_content(
        dense in dense_strategy(),
        algo in algos(),
        blocks in 1usize..6,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let originals = RowBlocks::split(&csrv, blocks);
        let reordered = reorder_each_block(&csrv, blocks, algo);
        let mut rows = 0usize;
        for ((block, _), original) in reordered.iter().zip(originals.blocks()) {
            prop_assert_eq!(block.to_dense(), original.to_dense());
            prop_assert_eq!(block.nnz(), original.nnz());
            rows += block.rows();
        }
        prop_assert_eq!(rows, dense.rows());
    }

    #[test]
    fn uniform_configs_agree_with_the_classic_wrapper(
        dense in dense_strategy(),
        algo in algos(),
        blocks in 1usize..5,
    ) {
        let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
        let via_wrapper = reorder_blocks(
            &csrv,
            blocks,
            algo,
            gcm_reorder::CsmConfig::exact(),
            8,
        );
        let via_configs = reorder_each_block(&csrv, blocks, algo);
        prop_assert_eq!(via_wrapper.len(), via_configs.len());
        for (a, (b, _)) in via_wrapper.iter().zip(&via_configs) {
            prop_assert_eq!(a.symbols(), b.symbols());
        }
    }
}
