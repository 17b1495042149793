//! The column-column similarity matrix (§5.1).
//!
//! For columns `i ≠ j`, build the row-wise sequence of value pairs
//! `P_ij = ⟨M[1][i],M[1][j]⟩ … ⟨M[n][i],M[n][j]⟩`, keep only pairs with
//! both components non-zero, and let `RPNZ_ij` be the number of
//! *repetitions* among them (occurrences minus distinct pairs — the
//! reading consistent with the paper's `RPNZ₁₂ = 2` example; the text's
//! `RPNZ₁₃` walk-through is internally inconsistent, see DESIGN.md). Then
//! `CSM[i][j] = RPNZ_ij / n`.
//!
//! Computation counts instead of sorting. The paper sorts the combined
//! keys of each column pair, `O(m²·n log n)`. Here every column is first
//! relabelled to dense per-column value ids; then, for each column `i`,
//! one counting sort groups its rows by value id, and each partner
//! `j > i` is scanned in that group order. Within a group every pair
//! shares `M[r][i]`, so a repeated pair is a non-zero `M[r][j]` the group
//! has already seen, which a per-id stamp array detects in `O(1)`. The
//! cost is `O(m²·n + d)` time and `O(m·n + d)` space for `d` distinct
//! values. Ids seen only once in column `i` form singleton groups, which
//! cannot repeat and are skipped. The integer counts, and so the
//! `f64` scores, equal the sorting method's exactly. A row-sampling knob
//! caps `n` for wide matrices (Mnist2m).

use gcm_matrix::CsrvMatrix;

/// Configuration for CSM computation.
#[derive(Debug, Clone, Copy)]
pub struct CsmConfig {
    /// Use at most this many rows (deterministic stride sampling).
    /// `None` = all rows.
    pub sample_rows: Option<usize>,
}

impl Default for CsmConfig {
    fn default() -> Self {
        Self {
            sample_rows: Some(4096),
        }
    }
}

impl CsmConfig {
    /// Use every row (the paper's exact definition).
    pub fn exact() -> Self {
        Self { sample_rows: None }
    }
}

/// The dense `m × m` similarity matrix.
#[derive(Debug, Clone)]
pub struct Csm {
    m: usize,
    /// Row-major upper-triangular-mirrored scores.
    scores: Vec<f64>,
}

/// A sparse similarity graph: undirected weighted edges `(i, j, w)` with
/// `i < j` and `w > 0`.
#[derive(Debug, Clone, Default)]
pub struct SimilarityGraph {
    /// Number of columns (nodes).
    pub nodes: usize,
    /// Edges, arbitrary order.
    pub edges: Vec<(u32, u32, f64)>,
}

impl Csm {
    /// Computes the CSM of `matrix` under `config`.
    pub fn compute(matrix: &CsrvMatrix, config: CsmConfig) -> Self {
        let m = matrix.cols();
        let table = ColumnTable::new(matrix, config);
        let n = table.rows;
        let denominator = n.max(1) as f64;
        let mut scores = vec![0.0f64; m * m];
        // Scratch shared by every column: per-id counts, then per-id
        // placement offsets; the column's repeated-id rows in id order;
        // the end offset of each of those groups; and the per-id stamps
        // of the partner column, tagged with a token that is fresh for
        // every (group, partner) visit so they never need clearing.
        let max_ids = table.distinct.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut counts = vec![0u32; max_ids];
        let mut grouped: Vec<u32> = Vec::with_capacity(n);
        let mut group_ends: Vec<usize> = Vec::new();
        let mut stamps = vec![0u32; max_ids];
        let mut token = 0u32;
        for i in 0..m {
            let col_i = table.column(i);
            let ids = table.distinct[i] as usize + 1;
            // Counting sort of the column's rows by value id. An id seen
            // once forms a singleton group, and a singleton group can
            // hold no repeated pair, so only ids seen twice or more are
            // placed.
            counts[..ids].fill(0);
            for &a in col_i {
                counts[a as usize] += 1;
            }
            group_ends.clear();
            let mut placed = 0u32;
            for count in &mut counts[1..ids] {
                if *count >= 2 {
                    let start = placed;
                    placed += *count;
                    group_ends.push(placed as usize);
                    *count = start;
                } else {
                    *count = u32::MAX;
                }
            }
            grouped.clear();
            grouped.resize(placed as usize, 0);
            for (r, &a) in col_i.iter().enumerate() {
                if a != 0 {
                    let slot = &mut counts[a as usize];
                    if *slot != u32::MAX {
                        grouped[*slot as usize] = r as u32;
                        *slot += 1;
                    }
                }
            }
            if grouped.is_empty() {
                continue;
            }
            for j in (i + 1)..m {
                let col_j = table.column(j);
                // Within one group every row pairs the same `a`, so a
                // repeat is a non-zero `b` this group has already seen.
                let mut rpnz = 0usize;
                let mut start = 0usize;
                for &end in &group_ends {
                    if token == u32::MAX {
                        stamps.fill(0);
                        token = 0;
                    }
                    token += 1;
                    for &r in &grouped[start..end] {
                        let b = col_j[r as usize] as usize;
                        if b != 0 {
                            if stamps[b] == token {
                                rpnz += 1;
                            } else {
                                stamps[b] = token;
                            }
                        }
                    }
                    start = end;
                }
                if rpnz > 0 {
                    let score = rpnz as f64 / denominator;
                    scores[i * m + j] = score;
                    scores[j * m + i] = score;
                }
            }
        }
        Self { m, scores }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.m
    }

    /// The similarity of columns `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.scores[i * self.m + j]
    }

    /// The full graph: one edge per positive-similarity pair (Θ(m²) worst
    /// case).
    pub fn full_graph(&self) -> SimilarityGraph {
        let mut edges = Vec::new();
        for i in 0..self.m {
            for j in (i + 1)..self.m {
                let w = self.get(i, j);
                if w > 0.0 {
                    edges.push((i as u32, j as u32, w));
                }
            }
        }
        SimilarityGraph {
            nodes: self.m,
            edges,
        }
    }

    /// Locally-pruned CSM (`CSMᴾ`, §5.1): keep the `k` best-scoring
    /// partners of each column.
    pub fn locally_pruned(&self, k: usize) -> SimilarityGraph {
        let mut keep = vec![false; self.m * self.m];
        let mut partners: Vec<(f64, usize)> = Vec::with_capacity(self.m);
        for i in 0..self.m {
            partners.clear();
            for j in 0..self.m {
                if j != i {
                    let w = self.get(i, j);
                    if w > 0.0 {
                        partners.push((w, j));
                    }
                }
            }
            partners.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            for &(_, j) in partners.iter().take(k) {
                let (a, b) = (i.min(j), i.max(j));
                keep[a * self.m + b] = true;
            }
        }
        let mut edges = Vec::new();
        for i in 0..self.m {
            for j in (i + 1)..self.m {
                if keep[i * self.m + j] {
                    edges.push((i as u32, j as u32, self.get(i, j)));
                }
            }
        }
        SimilarityGraph {
            nodes: self.m,
            edges,
        }
    }

    /// Globally-pruned CSM (§5.1): keep the `m·k` best-scoring entries
    /// overall.
    pub fn globally_pruned(&self, k: usize) -> SimilarityGraph {
        let mut graph = self.full_graph();
        graph.edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        graph.edges.truncate(self.m * k);
        graph
    }
}

impl SimilarityGraph {
    /// Adjacency lists `(neighbour, weight)` per node.
    pub fn adjacency(&self) -> Vec<Vec<(u32, f64)>> {
        let mut adj = vec![Vec::new(); self.nodes];
        for &(i, j, w) in &self.edges {
            adj[i as usize].push((j, w));
            adj[j as usize].push((i, w));
        }
        adj
    }

    /// Weight lookup as a dense matrix (testing / small graphs).
    pub fn dense_weights(&self) -> Vec<f64> {
        let m = self.nodes;
        let mut w = vec![0.0; m * m];
        for &(i, j, wt) in &self.edges {
            w[i as usize * m + j as usize] = wt;
            w[j as usize * m + i as usize] = wt;
        }
        w
    }
}

/// The (sampled) matrix as one value-id column per matrix column.
///
/// Ids are dense per column, `1..=distinct[j]` in order of first
/// appearance, with 0 for a zero cell. Any injective relabelling of one
/// column's values keeps every pair count, so scores computed on these
/// ids equal scores computed on the matrix values.
struct ColumnTable {
    /// Sampled rows (the length of every column).
    rows: usize,
    /// Column-major ids: column `j` is `ids[j * rows..(j + 1) * rows]`.
    ids: Vec<u32>,
    /// Distinct non-zero values per column.
    distinct: Vec<u32>,
}

impl ColumnTable {
    fn new(matrix: &CsrvMatrix, config: CsmConfig) -> Self {
        let m = matrix.cols();
        let n = matrix.rows();
        // Sampling keeps every stride-th row (deterministic, seed-free).
        let (rows, stride) = match config.sample_rows {
            Some(cap) if cap > 0 && n > cap => {
                let stride = n.div_ceil(cap);
                (n.div_ceil(stride), stride)
            }
            _ => (n, 1),
        };
        // First pass: shared-dictionary value id + 1.
        let codec = matrix.codec();
        let mut ids = vec![0u32; rows * m];
        for (r, row) in matrix.row_slices().enumerate() {
            if r % stride != 0 {
                continue;
            }
            let sr = r / stride;
            for &s in row {
                let (l, j) = codec.decode(s);
                ids[j as usize * rows + sr] = l + 1;
            }
        }
        // Second pass: relabel each column densely, so the per-column
        // scratch in `Csm::compute` is bounded by the row count rather
        // than the (shared, possibly much larger) dictionary.
        let mut label = vec![0u32; matrix.values().len() + 1];
        let mut seen: Vec<u32> = Vec::new();
        let mut distinct = Vec::with_capacity(m);
        for column in ids.chunks_exact_mut(rows.max(1)).take(m) {
            for id in column.iter_mut().filter(|id| **id != 0) {
                let slot = &mut label[*id as usize];
                if *slot == 0 {
                    seen.push(*id);
                    *slot = seen.len() as u32;
                }
                *id = *slot;
            }
            distinct.push(seen.len() as u32);
            for &id in &seen {
                label[id as usize] = 0;
            }
            seen.clear();
        }
        distinct.resize(m, 0);
        Self {
            rows,
            ids,
            distinct,
        }
    }

    #[inline]
    fn column(&self, j: usize) -> &[u32] {
        &self.ids[j * self.rows..(j + 1) * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{order_from_csm, reorder_columns, ReorderAlgorithm};
    use gcm_matrix::{DenseMatrix, RowBlocks};
    use proptest::collection;
    use proptest::prelude::*;

    /// The paper's sorting method, kept as the oracle the counting
    /// method must match bit for bit: per column pair, collect the
    /// combined keys of the rows where both cells are non-zero, sort,
    /// and count the duplicates.
    fn sorted_csm(matrix: &CsrvMatrix, config: CsmConfig) -> Csm {
        let m = matrix.cols();
        let n = matrix.rows();
        let codec = matrix.codec();
        let (sampled_rows, stride) = match config.sample_rows {
            Some(cap) if cap > 0 && n > cap => {
                let stride = n.div_ceil(cap);
                (n.div_ceil(stride), stride)
            }
            _ => (n, 1),
        };
        let mut table = vec![0u32; sampled_rows * m];
        for (r, row) in matrix.row_slices().enumerate() {
            if r % stride != 0 {
                continue;
            }
            let sr = r / stride;
            for &s in row {
                let (l, j) = codec.decode(s);
                table[sr * m + j as usize] = l + 1;
            }
        }
        let denominator = sampled_rows.max(1) as f64;
        let mut scores = vec![0.0f64; m * m];
        let mut scratch: Vec<u64> = Vec::with_capacity(sampled_rows);
        for i in 0..m {
            for j in (i + 1)..m {
                scratch.clear();
                for r in 0..sampled_rows {
                    let a = table[r * m + i];
                    let b = table[r * m + j];
                    if a != 0 && b != 0 {
                        scratch.push(((a as u64) << 32) | b as u64);
                    }
                }
                if scratch.len() < 2 {
                    continue;
                }
                scratch.sort_unstable();
                let mut distinct = 1usize;
                for w in scratch.windows(2) {
                    if w[0] != w[1] {
                        distinct += 1;
                    }
                }
                let rpnz = (scratch.len() - distinct) as f64;
                let score = rpnz / denominator;
                scores[i * m + j] = score;
                scores[j * m + i] = score;
            }
        }
        Csm { m, scores }
    }

    /// Random matrices for the differential test. Shapes run from 0 to
    /// a few hundred rows; value domains from one id to several
    /// thousand; the zero density varies; and a column (row) is forced
    /// all-zero (empty) with probability 1/8.
    fn matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
        let rows = prop_oneof![0usize..3, 3usize..40, 40usize..400];
        let domain = prop_oneof![Just(1u32), 2u32..8, 8u32..64, 1000u32..5000];
        (rows, 1usize..10, domain, 0u32..4).prop_flat_map(|(rows, cols, domain, zeros)| {
            (
                collection::vec(0u32..domain, rows * cols),
                collection::vec(0u32..4, rows * cols),
                collection::vec(0u32..8, cols),
                collection::vec(0u32..8, rows),
            )
                .prop_map(move |(vals, zero_draw, col_draw, row_draw)| {
                    let mut m = DenseMatrix::zeros(rows, cols);
                    for (r, &row_kept) in row_draw.iter().enumerate() {
                        for (c, &col_kept) in col_draw.iter().enumerate() {
                            let k = r * cols + c;
                            if row_kept != 0 && col_kept != 0 && zero_draw[k] >= zeros {
                                m.set(r, c, f64::from(vals[k] + 1) * 0.5);
                            }
                        }
                    }
                    m
                })
        })
    }

    fn sampling_strategy() -> impl Strategy<Value = CsmConfig> {
        prop_oneof![
            Just(None),
            Just(Some(0)),
            Just(Some(1)),
            Just(Some(2)),
            (3usize..40).prop_map(Some),
            (40usize..500).prop_map(Some),
        ]
        .prop_map(|sample_rows| CsmConfig { sample_rows })
    }

    fn assert_bit_identical(csrv: &CsrvMatrix, config: CsmConfig) -> Result<(), TestCaseError> {
        let counted = Csm::compute(csrv, config);
        let sorted = sorted_csm(csrv, config);
        let m = csrv.cols();
        prop_assert_eq!(counted.cols(), m);
        for i in 0..m {
            for j in 0..m {
                let (a, b) = (counted.get(i, j), sorted.get(i, j));
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "CSM[{i}][{j}] under {config:?}: counted {a}, sorted {b}"
                );
            }
        }
        for algo in [
            ReorderAlgorithm::Lkh,
            ReorderAlgorithm::PathCover,
            ReorderAlgorithm::PathCoverPlus,
            ReorderAlgorithm::Mwm,
        ] {
            let counted_order = reorder_columns(csrv, algo, config, 4);
            let sorted_order = order_from_csm(&sorted, algo, 4);
            prop_assert!(
                counted_order == sorted_order,
                "{} order under {config:?}: {counted_order:?} vs {sorted_order:?}",
                algo.name()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn counting_matches_the_sorting_oracle_bit_for_bit(
            dense in matrix_strategy(),
            config in sampling_strategy(),
        ) {
            let csrv = CsrvMatrix::from_dense(&dense).unwrap();
            assert_bit_identical(&csrv, config)?;
            // A row block shares the whole matrix's dictionary, which
            // may hold values the block never uses.
            if csrv.rows() >= 2 {
                for block in RowBlocks::split(&csrv, 2).blocks() {
                    assert_bit_identical(block, config)?;
                }
            }
        }
    }

    /// The matrix of Figure 1.
    fn fig1() -> CsrvMatrix {
        CsrvMatrix::from_dense(&DenseMatrix::from_rows(&[
            &[1.2, 3.4, 5.6, 0.0, 2.3],
            &[2.3, 0.0, 2.3, 4.5, 1.7],
            &[1.2, 3.4, 2.3, 4.5, 0.0],
            &[3.4, 0.0, 5.6, 0.0, 2.3],
            &[2.3, 0.0, 2.3, 4.5, 0.0],
            &[1.2, 3.4, 2.3, 4.5, 3.4],
        ]))
        .unwrap()
    }

    #[test]
    fn paper_example_rpnz12() {
        // The paper: CSM[1][2] = 2/6 (columns 0 and 1 here).
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        assert!((csm.get(0, 1) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn fig1_column_pair_0_2() {
        // Columns 0 and 2: pairs (1.2,5.6) x1, (2.3,2.3) x2, (1.2,2.3) x2,
        // (3.4,5.6) x1 -> repetitions = (2-1)+(2-1) = 2 -> 2/6.
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        assert!((csm.get(0, 2) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry_and_zero_diagonal() {
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        for i in 0..5 {
            assert_eq!(csm.get(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(csm.get(i, j), csm.get(j, i));
            }
        }
    }

    #[test]
    fn identical_columns_have_max_similarity() {
        // Two identical non-zero columns: every pair repeats after the
        // first distinct one.
        let mut rows = Vec::new();
        for r in 0..10 {
            let v = ((r % 2) + 1) as f64;
            rows.push([v, v, (r + 1) as f64]);
        }
        let slices: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        let m = CsrvMatrix::from_dense(&DenseMatrix::from_rows(&slices)).unwrap();
        let csm = Csm::compute(&m, CsmConfig::exact());
        // Columns 0,1: 10 pairs, 2 distinct -> 8/10.
        assert!((csm.get(0, 1) - 0.8).abs() < 1e-12);
        // Column 2 is unique-valued: no repetitions with anyone.
        assert_eq!(csm.get(0, 2), 0.0);
        assert_eq!(csm.get(1, 2), 0.0);
    }

    #[test]
    fn zeros_are_ignored() {
        // Pairs with a zero component never count.
        let m = CsrvMatrix::from_dense(&DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[1.0, 2.0],
            &[1.0, 2.0],
        ]))
        .unwrap();
        let csm = Csm::compute(&m, CsmConfig::exact());
        // Only rows 2,3 have both non-zero: (1,2) twice -> 1 repetition.
        assert!((csm.get(0, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_approximates_exact() {
        let mut rows = Vec::new();
        for r in 0..400 {
            let v = ((r % 3) + 1) as f64;
            rows.push([v, v * 2.0, ((r % 5) + 1) as f64]);
        }
        let slices: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        let m = CsrvMatrix::from_dense(&DenseMatrix::from_rows(&slices)).unwrap();
        let exact = Csm::compute(&m, CsmConfig::exact());
        let sampled = Csm::compute(
            &m,
            CsmConfig {
                sample_rows: Some(100),
            },
        );
        // Scores are normalised by the (sampled) row count, so they should
        // be close.
        assert!((exact.get(0, 1) - sampled.get(0, 1)).abs() < 0.05);
    }

    #[test]
    fn local_pruning_keeps_k_per_column() {
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        let g1 = csm.locally_pruned(1);
        let g4 = csm.locally_pruned(4);
        assert!(g1.edges.len() <= g4.edges.len());
        // k=1: at most one kept partner per column (union over columns).
        assert!(g1.edges.len() <= 5);
        for &(i, j, w) in &g1.edges {
            assert!(i < j);
            assert!(w > 0.0);
        }
    }

    #[test]
    fn global_pruning_keeps_top_mk() {
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        let full = csm.full_graph();
        let pruned = csm.globally_pruned(1);
        assert!(pruned.edges.len() <= 5);
        // The kept edges are the heaviest ones.
        let min_kept = pruned.edges.iter().map(|e| e.2).fold(f64::MAX, f64::min);
        let dropped = full.edges.len() - pruned.edges.len();
        if dropped > 0 {
            let mut all: Vec<f64> = full.edges.iter().map(|e| e.2).collect();
            all.sort_by(|a, b| b.partial_cmp(a).unwrap());
            assert!(min_kept >= all[pruned.edges.len() - 1] - 1e-12);
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let csm = Csm::compute(&fig1(), CsmConfig::exact());
        let g = csm.full_graph();
        let adj = g.adjacency();
        let total: usize = adj.iter().map(|a| a.len()).sum();
        assert_eq!(total, 2 * g.edges.len());
    }
}
