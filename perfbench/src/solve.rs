//! The solve path — power iterations (the paper's Eq. 4) through
//! `gcm_core::iteration` — and, in the traced run, the sharded and
//! per-shard kernels timed alone.

use std::cell::Cell;
use std::time::{Duration, Instant};

use gcm_bench::alloc::alloc_ops;
use gcm_core::{power_iterations_into, SolverWorkspace};
use gcm_matrix::{MatVec, MatrixError, Workspace};
use gcm_serve::{ModelPlan, ShardedModel};

use crate::inputs::{Inputs, SolveCase, Tally, Verb};
use crate::stats::Summary;
use crate::trace::{micros, Trace};

/// A [`MatVec`] view of the model that remembers when its last right
/// and left products started and ended, so each iteration's span can
/// be split into kernel time and driver time.
struct Timed<'a> {
    model: &'a ShardedModel,
    right: Cell<(Instant, Instant)>,
    left: Cell<(Instant, Instant)>,
}

impl MatVec for Timed<'_> {
    fn rows(&self) -> usize {
        self.model.rows()
    }

    fn cols(&self) -> usize {
        self.model.cols()
    }

    fn right_multiply_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let t0 = Instant::now();
        let result = self.model.right_multiply_into(x, y, ws);
        self.right.set((t0, Instant::now()));
        result
    }

    fn left_multiply_into(
        &self,
        y: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
    ) -> Result<(), MatrixError> {
        let t0 = Instant::now();
        let result = self.model.left_multiply_into(y, x, ws);
        self.left.set((t0, Instant::now()));
        result
    }
}

/// What a solve phase measured.
#[derive(Debug, Default)]
pub struct SolveLog {
    pub iter_ms: Vec<f64>,
    pub iterations: usize,
    pub allocs: usize,
    /// Per absorbed slice: p50, p90 and p99 iteration time.
    pub slices: Vec<[f64; 3]>,
    pub tally: Tally,
}

impl SolveLog {
    /// Adds a slice's samples and counts to this log, and its iteration
    /// percentiles to `slices`.
    pub fn absorb(&mut self, other: SolveLog) {
        let s = Summary::of(&other.iter_ms);
        self.slices.push([s.median, s.p90, s.p99]);
        self.iter_ms.extend(other.iter_ms);
        self.iterations += other.iterations;
        self.allocs += other.allocs;
        self.tally.add(other.tally);
    }
}

/// Repeats checked solves of `case` for `seconds` (at least one), one
/// `power_iterations_into` call per timed iteration. With tracing on,
/// every iteration records a span with its right and left products as
/// children.
pub fn solve(
    model: &ShardedModel,
    case: &SolveCase,
    tol: f64,
    seconds: f64,
    trace: &mut Trace,
) -> SolveLog {
    let mut log = SolveLog::default();
    let mut ws = SolverWorkspace::new();
    if ws.prepare(model).is_err() {
        log.tally.check(false, "solver workspace prepares");
        return log;
    }
    let now = Instant::now();
    let timed = Timed {
        model,
        right: Cell::new((now, now)),
        left: Cell::new((now, now)),
    };
    let mut x = case.x0.clone();
    log.iter_ms.reserve(1 << 16);
    let allocs_before = alloc_ops();
    let deadline = now + Duration::from_secs_f64(seconds);
    loop {
        x.copy_from_slice(&case.x0);
        let mut ok = true;
        for _ in 0..case.iterations {
            let t0 = Instant::now();
            let result = if trace.enabled() {
                power_iterations_into(&timed, &mut x, 1, &mut ws)
            } else {
                power_iterations_into(model, &mut x, 1, &mut ws)
            };
            let t1 = Instant::now();
            log.iterations += 1;
            let id = log.iterations as u64;
            if let Some(parent) = trace.record("iteration", id, None, t0, t1) {
                let (r0, r1) = timed.right.get();
                let (l0, l1) = timed.left.get();
                trace.record("sharded.right", id, Some(parent), r0, r1);
                trace.record("sharded.left", id, Some(parent), l0, l1);
            }
            if result.is_err() {
                ok = false;
                break;
            }
            log.iter_ms.push(micros(t0, t1) / 1e3);
        }
        log.tally.check(
            ok && case.expect.matches(&x, tol),
            "power iterations match the dense oracle",
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    log.allocs = alloc_ops() - allocs_before;
    log
}

/// Median µs of `f`, repeated for at least `budget` and 11 calls after
/// two warm-up calls.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 11 || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        samples.push(micros(t0, Instant::now()));
    }
    crate::stats::median(&samples)
}

/// Median latencies of the sharded model's serving calls, and of each
/// shard's planned right kernel alone.
#[derive(Debug, Default)]
pub struct KernelLog {
    pub right_k1_us: f64,
    pub right_k2_us: f64,
    pub left_k1_us: f64,
    pub sparse_us: f64,
    pub rows_us: f64,
    /// Each shard's right k=1 product through its own freshly compiled
    /// plan, called alone on this thread.
    pub shard_right_us: Vec<f64>,
}

pub fn kernels(
    model: &ShardedModel,
    inputs: &Inputs,
    f32_plans: bool,
    budget: Duration,
    tally: &mut Tally,
) -> KernelLog {
    let (rows, cols) = (model.rows(), model.cols());
    let mut checked = |r: Result<(), MatrixError>| tally.check(r.is_ok(), "kernel call succeeds");
    let x = &inputs.first(Verb::Right).x;
    let x2: Vec<f64> = x.iter().flat_map(|&v| [v, -v]).collect();
    let y = &inputs.first(Verb::Left).x;
    let sparse = inputs.first(Verb::Sparse);
    let sliced = inputs.first(Verb::Rows);
    let mut out = vec![0.0; 2 * rows.max(cols)];
    let mut log = KernelLog {
        right_k1_us: time_us(budget, || {
            checked(model.right_multiply_panel(1, x, &mut out[..rows]))
        }),
        ..KernelLog::default()
    };
    log.right_k2_us = time_us(budget, || {
        checked(model.right_multiply_panel(2, &x2, &mut out[..2 * rows]))
    });
    log.left_k1_us = time_us(budget, || {
        checked(model.left_multiply_panel(1, y, &mut out[..cols]))
    });
    log.sparse_us = time_us(budget, || {
        checked(model.right_multiply_sparse(&sparse.x_nnz, &mut out[..rows]))
    });
    let n = sliced.rows.len();
    log.rows_us = time_us(budget, || {
        checked(model.right_multiply_rows(sliced.rows.clone(), 1, &sliced.x, &mut out[..n]))
    });
    for i in 0..model.num_shards() {
        let shard = model.shard_model(i);
        let Some(plan) = ModelPlan::compile_with(shard, f32_plans) else {
            continue;
        };
        let mut ws = Workspace::new();
        let mut y = vec![0.0; shard.rows()];
        log.shard_right_us.push(time_us(budget, || {
            checked(shard.right_multiply_panel_planned(&plan, 1, x, &mut y, &mut ws))
        }));
    }
    log
}
