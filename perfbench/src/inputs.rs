//! The benchmark's own inputs and their dense oracles: every output the
//! program returns is checked against these.
//!
//! Each workload's corpus is a fixed rung of the corpus ladder — the
//! same matrix on every run — so space (`stored_pct_dense`) is exact and
//! build times compare like for like across runs and commits. The run's
//! seed draws everything else: the edited shard and rows, the request
//! vectors and schedule, and the solve and check vectors.

use std::ops::Range;

use gcm_matrix::DenseMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::Spec;

/// `gcm-datagen` seed of every corpus.
const CORPUS_SEED: u64 = 2022;
/// Distinct request vectors kept per verb; the schedule draws from them.
const POOL_PER_VERB: usize = 8;
/// Power iterations per checked solve.
const SOLVE_ITERATIONS: usize = 10;
/// Rows edited inside the one edited shard.
const EDITED_ROWS: usize = 4;

/// The request verbs of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Right,
    Left,
    Sparse,
    Rows,
}

/// One request with its expected answer.
#[derive(Debug)]
pub struct Request {
    pub verb: Verb,
    /// Dense input: `cols` long for right products, `rows` for left.
    pub x: Vec<f64>,
    /// Sparse input (`Sparse` only): strictly increasing columns.
    pub x_nnz: Vec<(u32, f64)>,
    /// Requested output rows (`Rows` only).
    pub rows: Range<usize>,
    pub expect: Expect,
}

/// A fixed-length power-iteration solve and its dense result.
#[derive(Debug)]
pub struct SolveCase {
    pub x0: Vec<f64>,
    pub iterations: usize,
    pub expect: Expect,
}

/// Right and left products that a loaded model must reproduce.
#[derive(Debug)]
pub struct ProductCheck {
    pub x: Vec<f64>,
    pub right: Expect,
    pub y: Vec<f64>,
    pub left: Expect,
}

/// An expected output vector and, per element, the magnitude its
/// rounding error scales with: the sum of the absolute values of the
/// terms it adds up.
#[derive(Debug)]
pub struct Expect {
    pub value: Vec<f64>,
    pub mag: Vec<f64>,
}

impl Expect {
    /// Whether `got` matches to `tol` relative to each element's
    /// magnitude, so the check holds for single-precision sums whose
    /// terms cancel and still catches any wrong term.
    pub fn matches(&self, got: &[f64], tol: f64) -> bool {
        got.len() == self.value.len()
            && got
                .iter()
                .zip(&self.value)
                .zip(&self.mag)
                .all(|((g, v), m)| (g - v).abs() <= tol * m)
    }
}

/// All inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    pub dense: DenseMatrix,
    /// `dense` with a few zero cells of one shard's rows filled.
    pub edited: DenseMatrix,
    pub pool: Vec<Request>,
    pub solve: SolveCase,
    pub original: ProductCheck,
    pub edited_check: ProductCheck,
}

impl Inputs {
    /// Generates the corpus, and the edit, the request pool and every
    /// oracle from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let dense = spec.dataset.generate(spec.rows, CORPUS_SEED);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xBE7C);
        let edited = edit_one_shard(&dense, spec.config.shards, &mut rng);
        let pool = [Verb::Right, Verb::Left, Verb::Sparse, Verb::Rows]
            .into_iter()
            .flat_map(|verb| (0..POOL_PER_VERB).map(move |_| verb))
            .map(|verb| request(&dense, verb, &mut rng))
            .collect();
        let x0 = random_vec(&mut rng, dense.cols());
        let solve = SolveCase {
            expect: dense_power_iterations(&dense, &x0, SOLVE_ITERATIONS),
            x0,
            iterations: SOLVE_ITERATIONS,
        };
        let x = random_vec(&mut rng, dense.cols());
        let y = random_vec(&mut rng, dense.rows());
        let original = product_check(&dense, &x, &y);
        let edited_check = product_check(&edited, &x, &y);
        Inputs {
            dense,
            edited,
            pool,
            solve,
            original,
            edited_check,
        }
    }

    /// Heap bytes of the two dense matrices (released after set-up).
    pub fn dense_bytes(&self) -> usize {
        8 * (self.dense.as_slice().len() + self.edited.as_slice().len())
    }

    /// Releases the dense matrices once set-up no longer needs them.
    pub fn drop_dense(&mut self) {
        self.dense = DenseMatrix::zeros(0, 0);
        self.edited = DenseMatrix::zeros(0, 0);
    }

    /// Draws the index into `pool` of the next request of the seeded mix:
    /// 80% right k=1, 10% left k=1, 5% sparse at 1% density, 5% rows
    /// over a 1% slice.
    pub fn pick(&self, rng: &mut SmallRng) -> usize {
        let verb = match rng.gen_range(0..100u32) {
            0..=79 => 0,
            80..=89 => 1,
            90..=94 => 2,
            _ => 3,
        };
        verb * POOL_PER_VERB + rng.gen_range(0..POOL_PER_VERB)
    }

    /// The request schedule of client `client`: the same seed and client
    /// give the same sequence of [`pick`](Self::pick)s.
    pub fn schedule(seed: u64, client: usize) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The first pool entry of `verb`.
    pub fn first(&self, verb: Verb) -> &Request {
        self.pool
            .iter()
            .find(|r| r.verb == verb)
            .expect("the pool holds every verb")
    }
}

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; reports the first few failures on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {what}");
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The rows of shard `shard` when `rows` are split into `shards`
/// contiguous blocks of `ceil(rows / shards)` — the pipeline's split.
fn shard_rows(rows: usize, shards: usize, shard: usize) -> Range<usize> {
    let per = rows.div_ceil(shards.max(1)).max(1);
    (shard * per).min(rows)..((shard + 1) * per).min(rows)
}

/// Fills one zero cell in each of a few rows of a seeded shard with the
/// matrix's first non-zero value. That value is interned first, so the
/// value dictionary — and with it every other shard's input — stays
/// unchanged, and an incremental rebuild must rebuild exactly one shard.
fn edit_one_shard(dense: &DenseMatrix, shards: usize, rng: &mut SmallRng) -> DenseMatrix {
    let (first_row, value) = (0..dense.rows())
        .find_map(|r| dense.row(r).iter().find(|&&v| v != 0.0).map(|&v| (r, v)))
        .expect("corpus has a non-zero");
    let shard = rng.gen_range(0..shards.max(1));
    let range = shard_rows(dense.rows(), shards, shard);
    let candidates: Vec<usize> = range
        .filter(|&r| r > first_row && dense.row(r).contains(&0.0))
        .collect();
    assert!(
        candidates.len() >= EDITED_ROWS,
        "shard {shard} has too few rows with an empty cell"
    );
    let mut edited = dense.clone();
    let mut done = Vec::new();
    while done.len() < EDITED_ROWS {
        let r = candidates[rng.gen_range(0..candidates.len())];
        if done.contains(&r) {
            continue;
        }
        let start = rng.gen_range(0..dense.cols());
        let c = (0..dense.cols())
            .map(|i| (start + i) % dense.cols())
            .find(|&c| dense.get(r, c) == 0.0)
            .expect("candidate rows have an empty cell");
        edited.set(r, c, value);
        done.push(r);
    }
    edited
}

fn random_vec(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn right(dense: &DenseMatrix, x: &[f64]) -> Expect {
    let mut value = vec![0.0; dense.rows()];
    dense
        .right_multiply(x, &mut value)
        .expect("oracle dimensions");
    let mag = (0..dense.rows())
        .map(|r| dense.row(r).iter().zip(x).map(|(a, b)| (a * b).abs()).sum())
        .collect();
    Expect { value, mag }
}

fn left(dense: &DenseMatrix, y: &[f64]) -> Expect {
    let mut value = vec![0.0; dense.cols()];
    dense
        .left_multiply(y, &mut value)
        .expect("oracle dimensions");
    let mut mag = vec![0.0; dense.cols()];
    for (r, yr) in y.iter().enumerate() {
        for (m, a) in mag.iter_mut().zip(dense.row(r)) {
            *m += (a * yr).abs();
        }
    }
    Expect { value, mag }
}

fn request(dense: &DenseMatrix, verb: Verb, rng: &mut SmallRng) -> Request {
    let (rows, cols) = (dense.rows(), dense.cols());
    let mut req = Request {
        verb,
        x: Vec::new(),
        x_nnz: Vec::new(),
        rows: 0..0,
        expect: Expect {
            value: Vec::new(),
            mag: Vec::new(),
        },
    };
    match verb {
        Verb::Right => {
            req.x = random_vec(rng, cols);
            req.expect = right(dense, &req.x);
        }
        Verb::Left => {
            req.x = random_vec(rng, rows);
            req.expect = left(dense, &req.x);
        }
        Verb::Sparse => {
            let nnz = (cols / 100).max(1);
            let mut picked: Vec<u32> = Vec::new();
            while picked.len() < nnz {
                let c = rng.gen_range(0..cols as u32);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            picked.sort_unstable();
            let mut x = vec![0.0; cols];
            for &c in &picked {
                let v = rng.gen_range(-1.0..1.0);
                x[c as usize] = v;
                req.x_nnz.push((c, v));
            }
            req.expect = right(dense, &x);
        }
        Verb::Rows => {
            let len = (rows / 100).max(1);
            let start = rng.gen_range(0..=rows - len);
            req.rows = start..start + len;
            req.x = random_vec(rng, cols);
            let full = right(dense, &req.x);
            req.expect = Expect {
                value: full.value[req.rows.clone()].to_vec(),
                mag: full.mag[req.rows.clone()].to_vec(),
            };
        }
    }
    req
}

/// The paper's Eq. (4) on the dense matrix: `y = Ax`, `z = Aᵀy`,
/// `x = z / ‖z‖∞`, `iterations` times. The iterate has unit norm, so
/// its error is measured against 1.
fn dense_power_iterations(dense: &DenseMatrix, x0: &[f64], iterations: usize) -> Expect {
    let mut x = x0.to_vec();
    for _ in 0..iterations {
        let z = left(dense, &right(dense, &x).value).value;
        let norm = z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        x = z.iter().map(|v| v / norm).collect();
    }
    Expect {
        mag: vec![1.0; x.len()],
        value: x,
    }
}

fn product_check(dense: &DenseMatrix, x: &[f64], y: &[f64]) -> ProductCheck {
    ProductCheck {
        right: right(dense, x),
        left: left(dense, y),
        x: x.to_vec(),
        y: y.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn same_seed_same_inputs_and_one_shard_edited() {
        let spec = Workload::BuildCovtype.spec(true);
        let a = Inputs::generate(&spec, 3);
        let b = Inputs::generate(&spec, 3);
        assert_eq!(a.solve.expect.value, b.solve.expect.value);
        assert_eq!(a.edited.as_slice(), b.edited.as_slice());
        let changed: Vec<usize> = (0..a.dense.rows())
            .filter(|&r| a.dense.row(r) != a.edited.row(r))
            .collect();
        assert_eq!(changed.len(), EDITED_ROWS);
        let shards = spec.config.shards;
        assert!((0..shards).any(|s| {
            let range = shard_rows(a.dense.rows(), shards, s);
            changed.iter().all(|r| range.contains(r))
        }));
        let e = Expect {
            value: vec![1.0, 0.0],
            mag: vec![2.0, 1e6],
        };
        assert!(e.matches(&[1.0 + 1e-9, 1e-4], 1e-9));
        assert!(!e.matches(&[1.0 + 1e-8, 0.0], 1e-9));
        assert!(!e.matches(&[1.0], 1e-9));
    }
}
