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

impl ShardPlan {
    /// FNV-1a 64 fingerprint of everything this shard's built bytes
    /// depend on: its input rows (dimensions and symbol stream), the
    /// value dictionary its terminals index, the encoding and grammar
    /// policies, and the reorder action — a global permutation's entries
    /// included. Two shard plans with one fingerprint build the same
    /// shard, so an incremental rebuild splices a base shard exactly when
    /// its recorded fingerprint matches, and the splice is byte-identical
    /// to a fresh build. Build and comparison share this one definition.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let csrv = &self.csrv;
        put(&(csrv.rows() as u64).to_le_bytes());
        put(&(csrv.cols() as u64).to_le_bytes());
        for &s in csrv.symbols() {
            put(&s.to_le_bytes());
        }
        for &v in csrv.values() {
            put(&v.to_bits().to_le_bytes());
        }
        let (scope, algo, order) = match &self.reorder {
            ShardReorder::None => ("none", "", &[][..]),
            ShardReorder::Compute(algo) => ("shard", algo.name(), &[][..]),
            ShardReorder::Apply(order, algo) => ("global", algo.name(), order.as_slice()),
        };
        // `\0`-terminated names, so no two policies run together.
        let policy = format!(
            "{}\0{}\0{scope}\0{algo}\0",
            self.encoding.name(),
            self.grammar.name()
        );
        put(policy.as_bytes());
        for &c in order {
            put(&(c as u64).to_le_bytes());
        }
        h
    }
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
    fn fingerprints_cover_every_plan_decision() {
        use gcm_core::Encoding;
        let csrv = sample(12, 6);
        let fingerprints = |config: &BuildConfig| -> Vec<u64> {
            let plan = Plan::new(&csrv, config);
            plan.shards.iter().map(ShardPlan::fingerprint).collect()
        };
        let base = BuildConfig {
            shards: 3,
            ..BuildConfig::default()
        };
        let pathcover = ReorderAlgorithm::PathCover;
        let variants = [
            base,
            BuildConfig {
                encoding: EncodingChoice::Fixed(Encoding::ReIv),
                ..base
            },
            BuildConfig {
                encoding: EncodingChoice::Auto,
                ..base
            },
            BuildConfig {
                grammar: Some(GrammarChoice::MrRePair),
                ..base
            },
            BuildConfig {
                grammar: Some(GrammarChoice::Auto),
                ..base
            },
            BuildConfig {
                reorder: Some(ReorderMode::PerShard(pathcover)),
                ..base
            },
            BuildConfig {
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::Mwm)),
                ..base
            },
            BuildConfig {
                reorder: Some(ReorderMode::Global(pathcover)),
                ..base
            },
        ];
        let all: Vec<Vec<u64>> = variants.iter().map(fingerprints).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                for (x, y) in a.iter().zip(b) {
                    assert_ne!(x, y, "variant {i} collides");
                }
            }
        }
        // `None` resolves to RePair, which builds the same bytes.
        let repair = BuildConfig {
            grammar: Some(GrammarChoice::RePair),
            ..base
        };
        assert_eq!(fingerprints(&repair), all[0]);
        // A global permutation's entries count, not just its algorithm.
        let mut plan = Plan::new(&csrv, &variants[7]);
        let before = plan.shards[0].fingerprint();
        let ShardReorder::Apply(order, algo) = &plan.shards[0].reorder else {
            panic!("global reorder applies a permutation");
        };
        let mut swapped = order.as_ref().clone();
        swapped.swap(0, 1);
        plan.shards[0].reorder = ShardReorder::Apply(Arc::new(swapped), *algo);
        assert_ne!(plan.shards[0].fingerprint(), before);
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
