//! High-level reordering driver (§5.3).
//!
//! Ties together CSM computation, pruning, and the four algorithms, both
//! for whole matrices (Table 3) and per row block (Table 4, where each of
//! the 16 blocks gets its own column order — legal because CSRV pairs keep
//! their original column indices).

use gcm_matrix::{CsrvMatrix, RowBlocks};

use crate::csm::{Csm, CsmConfig};
use crate::mwm::mwm_order;
use crate::pathcover::{path_cover, path_cover_plus};
use crate::tsp::{tsp_order, TspConfig};

/// The four column-reordering algorithms of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorderAlgorithm {
    /// Lin–Kernighan-style TSP heuristic (slowest, near-best quality).
    Lkh,
    /// Greedy disjoint-path cover (fastest).
    PathCover,
    /// PathCover with path coalescing (reported worse in the paper).
    PathCoverPlus,
    /// Exact maximum-weight matching chains.
    Mwm,
}

impl ReorderAlgorithm {
    /// The algorithms reported in Table 3 (PathCover+ is excluded there).
    pub const TABLE3: [ReorderAlgorithm; 3] = [
        ReorderAlgorithm::Lkh,
        ReorderAlgorithm::PathCover,
        ReorderAlgorithm::Mwm,
    ];

    /// Paper name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            ReorderAlgorithm::Lkh => "LKH",
            ReorderAlgorithm::PathCover => "PathCover",
            ReorderAlgorithm::PathCoverPlus => "PathCover+",
            ReorderAlgorithm::Mwm => "MWM",
        }
    }
}

/// Computes a column order for `matrix` using `algo` over the
/// locally-pruned CSM with sparsity `k` (the configuration Table 3 found
/// best).
///
/// Returns `order` with `order[p]` = original column at new position `p`.
pub fn reorder_columns(
    matrix: &CsrvMatrix,
    algo: ReorderAlgorithm,
    csm_config: CsmConfig,
    k: usize,
) -> Vec<usize> {
    order_from_csm(&Csm::compute(matrix, csm_config), algo, k)
}

/// The column order `algo` derives from `csm` pruned to `k` partners per
/// column: [`reorder_columns`] after its CSM computation.
pub(crate) fn order_from_csm(csm: &Csm, algo: ReorderAlgorithm, k: usize) -> Vec<usize> {
    let graph = csm.locally_pruned(k);
    match algo {
        ReorderAlgorithm::Lkh => tsp_order(&graph, TspConfig::default()),
        ReorderAlgorithm::PathCover => path_cover(&graph),
        ReorderAlgorithm::PathCoverPlus => path_cover_plus(&graph),
        ReorderAlgorithm::Mwm => mwm_order(&graph),
    }
}

/// Reordering configuration for **one** row block: the algorithm plus
/// the CSM settings it runs with. The per-block driver takes one of
/// these per block, so a caller (the staged build pipeline) can give
/// every shard its own algorithm or pruning sparsity.
#[derive(Debug, Clone, Copy)]
pub struct BlockReorderConfig {
    /// Reordering algorithm (§5.2).
    pub algo: ReorderAlgorithm,
    /// CSM computation settings (§5.1).
    pub csm: CsmConfig,
    /// Local-pruning sparsity `k` (Table 3 found 8 best).
    pub k: usize,
}

impl BlockReorderConfig {
    /// The Table 3 defaults (exact CSM, `k = 8`) for `algo`.
    pub fn new(algo: ReorderAlgorithm) -> Self {
        Self {
            algo,
            csm: CsmConfig::exact(),
            k: 8,
        }
    }

    /// Computes this configuration's column order for `block` and applies
    /// it, returning the reordered block and the permutation
    /// (`order[p]` = original column at new position `p`).
    pub fn apply(&self, block: &CsrvMatrix) -> (CsrvMatrix, Vec<usize>) {
        let order = reorder_columns(block, self.algo, self.csm, self.k);
        let reordered = block.with_column_order(&order);
        (reordered, order)
    }
}

/// Applies `algo` independently to each of `blocks` row blocks (§5.3):
/// every block is reordered with its own permutation and returned as a
/// fresh CSRV matrix, ready for per-block compression. Thin wrapper over
/// [`reorder_blocks_with`] with one uniform configuration.
pub fn reorder_blocks(
    matrix: &CsrvMatrix,
    blocks: usize,
    algo: ReorderAlgorithm,
    csm_config: CsmConfig,
    k: usize,
) -> Vec<CsrvMatrix> {
    let config = BlockReorderConfig {
        algo,
        csm: csm_config,
        k,
    };
    RowBlocks::split(matrix, blocks)
        .into_blocks()
        .iter()
        .map(|block| config.apply(block).0)
        .collect()
}

/// The per-block driver (§5.3) with an explicit configuration per block:
/// `configs[i]` reorders row block `i`, and the permutation each block
/// was reordered with is returned alongside it — per-block column orders
/// are first-class, so callers can persist them as provenance (the
/// `GCMSERV1` container stores one per shard).
///
/// # Panics
/// Panics if `configs.len()` differs from the number of row blocks the
/// split produces (`RowBlocks::split(matrix, configs.len())` block
/// count — equal to `configs.len()` clamped to the row count).
pub fn reorder_blocks_with(
    matrix: &CsrvMatrix,
    configs: &[BlockReorderConfig],
) -> Vec<(CsrvMatrix, Vec<usize>)> {
    let parts = RowBlocks::split(matrix, configs.len().max(1));
    assert_eq!(
        parts.len(),
        configs.len(),
        "one config per block required (got {} configs for {} blocks)",
        configs.len(),
        parts.len()
    );
    parts
        .into_blocks()
        .iter()
        .zip(configs)
        .map(|(block, config)| config.apply(block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;

    /// A matrix with correlated column pairs placed far apart: columns
    /// (0,4) and (1,5) always carry identical values.
    fn correlated() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(60, 6);
        for r in 0..60 {
            // Wide value domains keep the *cross* correlation (cols 0-1,
            // 0-5, ...) near zero while the duplicated columns still repeat.
            let a = ((r * 5 % 8) + 1) as f64;
            let b = ((r * 2 % 9) + 100) as f64;
            m.set(r, 0, a);
            m.set(r, 4, a);
            m.set(r, 1, b);
            m.set(r, 5, b);
            m.set(r, 2, ((r * 7 + 1) % 97 + 200) as f64);
            m.set(r, 3, ((r * 11 + 3) % 89 + 400) as f64);
        }
        m
    }

    fn assert_permutation(order: &[usize], n: usize) {
        assert_eq!(order.len(), n);
        let mut seen = vec![false; n];
        for &c in order {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn all_algorithms_return_permutations() {
        let csrv = CsrvMatrix::from_dense(&correlated()).unwrap();
        for algo in [
            ReorderAlgorithm::Lkh,
            ReorderAlgorithm::PathCover,
            ReorderAlgorithm::PathCoverPlus,
            ReorderAlgorithm::Mwm,
        ] {
            let order = reorder_columns(&csrv, algo, CsmConfig::exact(), 4);
            assert_permutation(&order, 6);
        }
    }

    #[test]
    fn correlated_columns_become_adjacent() {
        let csrv = CsrvMatrix::from_dense(&correlated()).unwrap();
        for algo in ReorderAlgorithm::TABLE3 {
            let order = reorder_columns(&csrv, algo, CsmConfig::exact(), 4);
            let pos: Vec<usize> = {
                let mut p = vec![0; 6];
                for (i, &c) in order.iter().enumerate() {
                    p[c] = i;
                }
                p
            };
            assert_eq!(
                pos[0].abs_diff(pos[4]),
                1,
                "{}: columns 0 and 4 not adjacent in {order:?}",
                algo.name()
            );
            assert_eq!(
                pos[1].abs_diff(pos[5]),
                1,
                "{}: columns 1 and 5 not adjacent in {order:?}",
                algo.name()
            );
        }
    }

    #[test]
    fn reordering_preserves_matrix_content() {
        let dense = correlated();
        let csrv = CsrvMatrix::from_dense(&dense).unwrap();
        let order = reorder_columns(&csrv, ReorderAlgorithm::PathCover, CsmConfig::exact(), 4);
        let reordered = csrv.with_column_order(&order);
        assert_eq!(reordered.to_dense(), dense);
    }

    #[test]
    fn per_block_configs_apply_independently_and_return_permutations() {
        let csrv = CsrvMatrix::from_dense(&correlated()).unwrap();
        let configs = [
            BlockReorderConfig::new(ReorderAlgorithm::PathCover),
            BlockReorderConfig::new(ReorderAlgorithm::Mwm),
            BlockReorderConfig::new(ReorderAlgorithm::PathCoverPlus),
            BlockReorderConfig::new(ReorderAlgorithm::Lkh),
        ];
        let out = reorder_blocks_with(&csrv, &configs);
        assert_eq!(out.len(), 4);
        let originals = RowBlocks::split(&csrv, 4);
        for ((block, order), original) in out.iter().zip(originals.blocks()) {
            assert_permutation(order, 6);
            // Reordering never changes the block's content.
            assert_eq!(block.to_dense(), original.to_dense());
        }
    }

    #[test]
    fn block_reordering_covers_all_rows() {
        let csrv = CsrvMatrix::from_dense(&correlated()).unwrap();
        let blocks = reorder_blocks(&csrv, 4, ReorderAlgorithm::Mwm, CsmConfig::exact(), 4);
        assert_eq!(blocks.len(), 4);
        let total: usize = blocks.iter().map(CsrvMatrix::rows).sum();
        assert_eq!(total, 60);
        let total_nnz: usize = blocks.iter().map(CsrvMatrix::nnz).sum();
        assert_eq!(total_nnz, csrv.nnz());
    }

    #[test]
    fn reordering_improves_grammar_compression() {
        // The end-to-end claim of §5: moving correlated columns together
        // shrinks the grammar-compressed size.
        use gcm_core::{CompressedMatrix, Encoding};
        let csrv = CsrvMatrix::from_dense(&correlated()).unwrap();
        let baseline = CompressedMatrix::compress(&csrv, Encoding::ReAns).stored_bytes();
        let order = reorder_columns(&csrv, ReorderAlgorithm::PathCover, CsmConfig::exact(), 4);
        let reordered = csrv.with_column_order(&order);
        let improved = CompressedMatrix::compress(&reordered, Encoding::ReAns).stored_bytes();
        assert!(
            improved <= baseline,
            "reordered {improved} should be <= baseline {baseline}"
        );
    }
}
