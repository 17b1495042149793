//! The planning stage: shard split, per-shard reorder assignment, and
//! encoding policy — everything the stage executor needs to run each
//! shard independently.

use std::sync::Arc;

use gcm_matrix::{CsrvMatrix, RowBlocks};
use gcm_reorder::{reorder_columns, CsmConfig, ReorderAlgorithm};

use crate::backend::Backend;
use crate::config::{BuildConfig, EncodingChoice, GrammarChoice, ReorderMode};

/// Local-pruning sparsity used for every reorder (Table 3 found 8 best).
pub(crate) const REORDER_K: usize = 8;

/// How one shard's columns get reordered during stage execution.
#[derive(Debug, Clone)]
pub enum ShardReorder {
    /// No reordering.
    None,
    /// Apply this precomputed permutation (global mode: the planner
    /// computed it once from the whole matrix; the `Arc` is shared by
    /// every shard plan).
    Apply(Arc<Vec<usize>>, ReorderAlgorithm),
    /// Compute a shard-local order with this algorithm, then apply it.
    Compute(ReorderAlgorithm),
}

/// One shard's unit of work: its row slice plus the decisions the
/// planner made for it.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index (row order).
    pub index: usize,
    /// The shard's CSRV slice (pre-reorder).
    pub csrv: CsrvMatrix,
    /// Reorder action for this shard.
    pub reorder: ShardReorder,
    /// Encoding policy (per shard, so `Auto` can diverge across shards).
    pub encoding: EncodingChoice,
    /// Grammar-stage policy ([`BuildConfig::grammar`], resolved).
    pub grammar: GrammarChoice,
}

/// A complete build plan: what to do, per shard, with no ordering
/// constraints between shards — the contract that makes stage execution
/// embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Target backend of every shard.
    pub backend: Backend,
    /// Column count.
    pub cols: usize,
    /// The per-shard work list.
    pub shards: Vec<ShardPlan>,
}

impl Plan {
    /// Plans a build of `csrv` per `config`: splits the rows into shards
    /// (clamped to `1..=rows` like the serve layer always did), assigns
    /// each shard its reorder action, and — for [`ReorderMode::Global`] —
    /// computes the whole-matrix permutation here, so execution never
    /// needs the unsplit matrix again.
    pub fn new(csrv: &CsrvMatrix, config: &BuildConfig) -> Plan {
        let global: Option<(Arc<Vec<usize>>, ReorderAlgorithm)> = match config.reorder {
            Some(ReorderMode::Global(algo)) => {
                let order = reorder_columns(csrv, algo, CsmConfig::exact(), REORDER_K);
                Some((Arc::new(order), algo))
            }
            _ => None,
        };
        let per_shard = match config.reorder {
            Some(ReorderMode::PerShard(algo)) => Some(algo),
            _ => None,
        };
        let grammar = config.grammar.unwrap_or(GrammarChoice::RePair);
        let parts = RowBlocks::split(csrv, config.shards.max(1));
        let shards = parts
            .into_blocks()
            .into_iter()
            .enumerate()
            .map(|(index, block)| ShardPlan {
                index,
                csrv: block,
                reorder: match (&global, per_shard) {
                    (Some((order, algo)), _) => ShardReorder::Apply(Arc::clone(order), *algo),
                    (None, Some(algo)) => ShardReorder::Compute(algo),
                    (None, None) => ShardReorder::None,
                },
                encoding: config.encoding,
                grammar,
            })
            .collect();
        Plan {
            backend: config.backend,
            cols: csrv.cols(),
            shards,
        }
    }

    /// Number of planned shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::DenseMatrix;

    fn sample(rows: usize, cols: usize) -> CsrvMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + c) % 3 != 0 {
                    m.set(r, c, (((r * 2 + c) % 5) + 1) as f64);
                }
            }
        }
        CsrvMatrix::from_dense(&m).unwrap()
    }

    #[test]
    fn splits_and_clamps_like_the_serve_layer() {
        let csrv = sample(10, 4);
        let plan = Plan::new(
            &csrv,
            &BuildConfig {
                shards: 4,
                ..BuildConfig::default()
            },
        );
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.shards.iter().map(|s| s.csrv.rows()).sum::<usize>(), 10);
        let plan = Plan::new(
            &csrv,
            &BuildConfig {
                shards: 100,
                ..BuildConfig::default()
            },
        );
        assert_eq!(plan.num_shards(), 10, "clamped to the row count");
    }

    #[test]
    fn global_reorder_is_computed_once_and_shared() {
        let csrv = sample(12, 6);
        let plan = Plan::new(
            &csrv,
            &BuildConfig {
                shards: 3,
                reorder: Some(ReorderMode::Global(ReorderAlgorithm::PathCover)),
                ..BuildConfig::default()
            },
        );
        let mut first: Option<*const Vec<usize>> = None;
        for shard in &plan.shards {
            match &shard.reorder {
                ShardReorder::Apply(order, algo) => {
                    assert_eq!(*algo, ReorderAlgorithm::PathCover);
                    let ptr = Arc::as_ptr(order);
                    match first {
                        None => first = Some(ptr),
                        Some(p) => assert_eq!(p, ptr, "one shared permutation"),
                    }
                }
                other => panic!("expected Apply, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_shard_reorder_defers_computation() {
        let csrv = sample(12, 6);
        let plan = Plan::new(
            &csrv,
            &BuildConfig {
                shards: 3,
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::Mwm)),
                ..BuildConfig::default()
            },
        );
        for shard in &plan.shards {
            assert!(matches!(
                shard.reorder,
                ShardReorder::Compute(ReorderAlgorithm::Mwm)
            ));
        }
    }
}
