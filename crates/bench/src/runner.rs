//! Timing and memory measurement of the Eq. (4) iteration workload.

use std::sync::Arc;
use std::time::Instant;

use gcm_core::{power_iterations, CompressedMatrix, Encoding};
use gcm_encodings::HeapSize;
use gcm_matrix::{CsrvMatrix, MatVec};
use gcm_serve::{Model, ShardedModel};

use crate::alloc;

/// Result of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredRun {
    /// Average wall-clock seconds per iteration.
    pub secs_per_iter: f64,
    /// Analytic peak bytes: representation + multiplication working space
    /// + the three vectors of Eq. (4).
    pub analytic_peak_bytes: usize,
    /// Live-heap peak observed during the run (0 when the tracking
    /// allocator is not installed).
    pub live_peak_bytes: usize,
}

/// Runs `iters` iterations of Eq. (4) on `matrix`, measuring time and peak
/// memory.
///
/// `repr_bytes` is the size of the matrix representation;
/// `working_bytes` the auxiliary space of one multiplication (the `W`
/// arrays). Vector space (`x`, `y`, `z`) is added automatically.
pub fn measure_iterations(
    matrix: &dyn MatVec,
    iters: usize,
    repr_bytes: usize,
    working_bytes: usize,
) -> MeasuredRun {
    let x0 = vec![1.0f64; matrix.cols()];
    // Warm-up round (fills caches, first-touch pages).
    let _ = power_iterations(matrix, &x0, 1).expect("warm-up failed");

    alloc::reset_peak();
    let live_before = alloc::live_bytes();
    let t0 = Instant::now();
    let _ = power_iterations(matrix, &x0, iters).expect("iteration failed");
    let dt = t0.elapsed();
    let live_peak = alloc::peak_bytes().saturating_sub(live_before);

    let vectors = (matrix.cols() * 2 + matrix.rows()) * 8;
    MeasuredRun {
        secs_per_iter: dt.as_secs_f64() / iters.max(1) as f64,
        analytic_peak_bytes: repr_bytes + working_bytes + vectors,
        live_peak_bytes: live_peak,
    }
}

/// The paper's §4.1 row-block scheme over `blocks` (in row order, at
/// least one): one [`ShardedModel`] shard per block, each compressed on
/// its own with `encoding`, or kept as CSRV when `encoding` is `None`.
/// The blocks come from [`gcm_matrix::RowBlocks::split`], or from a
/// per-block reordering such as [`gcm_reorder::reorder_blocks`] (§5.3).
///
/// # Panics
/// Panics if `blocks` is empty or the blocks disagree on the column count.
pub fn row_block_model(blocks: Vec<CsrvMatrix>, encoding: Option<Encoding>) -> ShardedModel {
    let cols = blocks.first().expect("at least one row block").cols();
    let models = blocks
        .into_iter()
        .map(|block| match encoding {
            Some(enc) => Model::Compressed(CompressedMatrix::compress(&block, enc)),
            None => Model::Csrv(block),
        })
        .collect();
    ShardedModel::from_parts(models, cols, None)
}

/// Runs [`measure_iterations`] on a row-sharded `model`, with the
/// analytic bytes of §4.1's scheme (one thread per shard):
///
/// * representation: every shard's `(C, R)` heap bytes (CSRV: its
///   symbol stream), plus each value dictionary `V` once per distinct
///   `Arc`, since the shards of one split share it in memory;
/// * working space: every grammar shard's single-vector `W` array
///   (`|R|` doubles), plus one `cols`-long partial vector per shard for
///   the left product's reduction.
pub fn measure_sharded(model: &ShardedModel, iters: usize) -> MeasuredRun {
    let (repr_bytes, working_bytes) = row_block_bytes(model);
    measure_iterations(model, iters, repr_bytes, working_bytes)
}

/// `(representation, working space)` bytes of `model`, as documented on
/// [`measure_sharded`].
fn row_block_bytes(model: &ShardedModel) -> (usize, usize) {
    let mut dictionaries: Vec<&Arc<Vec<f64>>> = Vec::new();
    let (mut repr, mut working) = (0, 0);
    for i in 0..model.num_shards() {
        let shard = model.shard_model(i);
        let (bytes, w) = match shard {
            Model::Csrv(m) => (m.symbols().len() * 4, 0),
            Model::Compressed(m) => (m.heap_bytes() - m.values().len() * 8, m.working_bytes(1)),
        };
        repr += bytes;
        working += w + model.cols() * 8;
        let values = shard.dictionary();
        if !dictionaries.iter().any(|d| Arc::ptr_eq(d, values)) {
            repr += values.len() * 8;
            dictionaries.push(values);
        }
    }
    (repr, working)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::{DenseMatrix, RowBlocks};

    #[test]
    fn measures_a_small_run() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let run = measure_iterations(&m, 3, 32, 0);
        assert!(run.secs_per_iter >= 0.0);
        assert_eq!(run.analytic_peak_bytes, 32 + (2 * 2 + 2) * 8);
    }

    fn sample() -> CsrvMatrix {
        let mut m = DenseMatrix::zeros(57, 7);
        for r in 0..57 {
            for c in 0..7 {
                if (r * 7 + c * 3) % 5 != 0 {
                    m.set(r, c, (((r + c) % 6) + 1) as f64 * 0.25);
                }
            }
        }
        CsrvMatrix::from_dense(&m).unwrap()
    }

    /// The row-block accounting counts the shared dictionary once and
    /// one partial vector per shard, for both backends.
    #[test]
    fn row_block_bytes_count_the_shared_dictionary_once() {
        let csrv = sample();
        let v_bytes = csrv.values().len() * 8;
        let split = || RowBlocks::split(&csrv, 4).into_blocks();

        let plain = row_block_model(split(), None);
        assert_eq!(plain.num_shards(), 4);
        let symbols: usize = split().iter().map(|b| b.symbols().len() * 4).sum();
        assert_eq!(row_block_bytes(&plain), (symbols + v_bytes, 4 * 7 * 8));

        let grammar = row_block_model(split(), Some(Encoding::Re32));
        let blocks: Vec<CompressedMatrix> = split()
            .iter()
            .map(|b| CompressedMatrix::compress(b, Encoding::Re32))
            .collect();
        let repr: usize = blocks.iter().map(|b| b.heap_bytes() - v_bytes).sum();
        let w: usize = blocks.iter().map(|b| b.num_rules() * 8).sum();
        assert_eq!(row_block_bytes(&grammar), (repr + v_bytes, w + 4 * 7 * 8));
        // `stored_bytes` shares the dictionary the same way.
        let stored: usize = blocks.iter().map(|b| b.stored_bytes() - v_bytes).sum();
        assert_eq!(grammar.stored_bytes(), stored + v_bytes);

        let run = measure_sharded(&grammar, 2);
        assert_eq!(
            run.analytic_peak_bytes,
            repr + v_bytes + w + 4 * 7 * 8 + (2 * 7 + 57) * 8
        );
    }
}
