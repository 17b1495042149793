//! The batched TCP front-end behind `gcm serve`: a thread-per-connection
//! server (`std::net`; the kernels below it run on the vendored
//! persistent pool) whose core is a **batching queue** that coalesces
//! concurrent single-vector requests for the same model into one
//! `right/left_multiply_panel` call — the k-wide kernels the bench layer
//! measured at 3.6–17× over k=1.
//!
//! A batch's leader waits for company only when there is evidence that
//! company is coming, and otherwise flushes at once:
//!
//! 1. while the lane's other batch is still executing, the leader waits
//!    until that batch is done or its own batch fills — arrivals in the
//!    meantime cost no extra latency, the kernel is busy anyway;
//! 2. after the lane's previous batch ran at width > 1 (concurrent
//!    arrivals), the leader waits until its batch fills or
//!    [`ServerConfig::batch_deadline_us`] passes. A batch that closes at
//!    width 1 sends the next leader back to an immediate flush.
//!
//! A lone request on an idle lane therefore never waits out the
//! deadline; under concurrent load, batches still fill to the width.
//!
//! Layering:
//!
//! * [`Engine`] is the transport-free request processor:
//!   `handle_frame(body, out)` decodes one protocol frame and encodes
//!   the complete response into a caller-owned buffer. Tests (including
//!   the zero-allocation lock-in) drive it without sockets. All three
//!   multiply verbs (`multiply`, `multiply_rows`, `multiply_sparse`)
//!   share one path: look up the model's lanes, validate the request
//!   against the model, admit it, run it, count the outcome.
//! * `Lane` (private) is one model × direction batching queue:
//!   double-buffered so the next batch fills while the current one
//!   executes, leader/follower combining (the first request in a batch
//!   becomes the leader, runs the panel kernel, and wakes the rest),
//!   all request state preallocated at lane creation. Single dense
//!   vectors coalesce there; every other multiply (a k-wide panel, a
//!   row subset, a sparse vector) runs directly through one
//!   `submit_direct` that takes its kernel as a closure. A panic inside
//!   a kernel is contained at the batch boundary: every member of the
//!   batch answers `INTERNAL`, and the lane keeps serving.
//! * [`Server`] owns the listener: accept loop, one OS thread per
//!   connection, each reusing one input and one output frame buffer so
//!   the steady-state request loop performs **zero heap allocation**.
//!
//! Admission control is a bounded in-flight counter: past the
//! high-water mark ([`ServerConfig::max_inflight`]) multiply requests
//! fast-fail with `OVERLOADED` instead of queueing unboundedly. Admitted
//! requests that find both of a lane's batch buffers busy wait for one
//! to drain — backpressure, bounded by the admission cap above.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::container::ServeError;
use crate::metrics::{Metrics, ModelMetrics};
use crate::protocol::{
    begin_frame, decode_request, finish_frame, read_frame, sparse_pair, status, Direction, Request,
};
use crate::registry::Registry;
use crate::sharded::ShardedModel;

/// Tuning knobs of the serving front-end.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum coalesced batch width (flush threshold); also the widest
    /// k a single request may carry. At least 1, at most `u16::MAX`.
    pub batch_width: usize,
    /// How long the first request of a batch may wait for company
    /// before flushing anyway, in microseconds. The deadline bounds only
    /// the fill wait after the lane has seen concurrent arrivals (its
    /// previous batch ran at width > 1); a request on an idle lane
    /// flushes at once. 0 disables coalescing (every request flushes
    /// immediately).
    pub batch_deadline_us: u64,
    /// Admission high-water mark: multiply requests beyond this many
    /// in flight are shed with `OVERLOADED`.
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batch_width: 8,
            batch_deadline_us: 200,
            max_inflight: 256,
        }
    }
}

impl ServerConfig {
    fn normalized(mut self) -> Self {
        self.batch_width = self.batch_width.clamp(1, u16::MAX as usize);
        self.max_inflight = self.max_inflight.max(1);
        self
    }
}

/// One model × direction batch buffer. Double-buffered per lane: while
/// one executes, the other accepts fills.
#[derive(Debug)]
struct BatchBuf {
    /// Request vectors in **slot-major** order (slot `s` owns
    /// `xcols[s·in_dim .. (s+1)·in_dim]`) — written as requests join,
    /// before the final width is known.
    xcols: Vec<f64>,
    /// Row-major panel the kernel consumes; the leader transposes
    /// `xcols` into it once the batch closes at its final width.
    panel: Vec<f64>,
    /// Kernel output, row-major at the executed width.
    y: Vec<f64>,
    /// Slots filled so far.
    filled: usize,
    /// Width the batch executed at (valid once `done`).
    exec_k: usize,
    /// When the batch's kernel started (valid once `done`); each member
    /// records its queue wait against it.
    kernel_start: Instant,
    /// Results are ready (or `err` is set).
    done: bool,
    /// Kernel failure to report to every member.
    err: Option<&'static str>,
    /// Members still to copy their column out; the buffer recycles only
    /// at zero.
    readers: usize,
}

impl BatchBuf {
    fn new(max_width: usize, in_dim: usize, out_dim: usize) -> Self {
        Self {
            xcols: vec![0.0; max_width * in_dim],
            panel: vec![0.0; max_width * in_dim],
            y: vec![0.0; max_width * out_dim],
            filled: 0,
            exec_k: 0,
            kernel_start: Instant::now(),
            done: false,
            err: None,
            readers: 0,
        }
    }
}

#[derive(Debug)]
struct LaneState {
    batches: [BatchBuf; 2],
    /// Index of the batch currently accepting fills, if any.
    open: Option<usize>,
    free: [bool; 2],
    /// Width the most recently closed batch ran at. Above 1 it shows
    /// concurrent arrivals, and the next leader waits (deadline-bounded)
    /// for company; starts at 1, so a cold lane flushes at once.
    last_width: usize,
}

/// Scratch for the requests that skip the coalescer and run the kernel
/// directly (k-wide panels, row subsets, sparse vectors). `pairs`
/// stages decoded sparse non-zeroes (capacity `in_dim`, the validated
/// maximum).
#[derive(Debug)]
struct DirectBufs {
    panel: Vec<f64>,
    y: Vec<f64>,
    pairs: Vec<(u32, f64)>,
}

/// One model × direction batching queue. All buffers are allocated at
/// lane creation; the submit path only locks, copies, and waits.
#[derive(Debug)]
struct Lane {
    in_dim: usize,
    out_dim: usize,
    max_width: usize,
    state: Mutex<LaneState>,
    /// Wakes the leader when the open batch reaches full width, or when
    /// the lane's other batch finishes executing.
    full: Condvar,
    /// Wakes followers when their batch's results are ready.
    done_cv: Condvar,
    direct: Mutex<DirectBufs>,
}

/// The panel product of one direction.
fn multiply_panel(
    model: &ShardedModel,
    direction: Direction,
    k: usize,
    x_panel: &[f64],
    y_panel: &mut [f64],
) -> Result<(), gcm_matrix::MatrixError> {
    match direction {
        Direction::Right => model.right_multiply_panel(k, x_panel, y_panel),
        Direction::Left => model.left_multiply_panel(k, x_panel, y_panel),
    }
}

fn decode_f64s(dst: &mut [f64], payload: &[u8]) {
    for (d, c) in dst.iter_mut().zip(payload.chunks_exact(8)) {
        *d = f64::from_le_bytes(c.try_into().expect("8 bytes"));
    }
}

impl Lane {
    fn new(in_dim: usize, out_dim: usize, max_width: usize) -> Self {
        Self {
            in_dim,
            out_dim,
            max_width,
            state: Mutex::new(LaneState {
                batches: [
                    BatchBuf::new(max_width, in_dim, out_dim),
                    BatchBuf::new(max_width, in_dim, out_dim),
                ],
                open: None,
                free: [true, true],
                last_width: 1,
            }),
            full: Condvar::new(),
            done_cv: Condvar::new(),
            direct: Mutex::new(DirectBufs {
                panel: vec![0.0; max_width * in_dim],
                y: vec![0.0; max_width * out_dim],
                pairs: Vec::with_capacity(in_dim),
            }),
        }
    }

    /// Holds the leader of the open batch `idx` until it should flush
    /// (see the module docs for the two rules): while the lane's other
    /// batch executes, or — after a batch of width > 1 — until the
    /// batch fills or `deadline_us` passes. Returns at once otherwise.
    fn await_company<'a>(
        &self,
        mut state: MutexGuard<'a, LaneState>,
        idx: usize,
        deadline_us: u64,
    ) -> MutexGuard<'a, LaneState> {
        if deadline_us == 0 {
            return state;
        }
        let deadline = Instant::now() + Duration::from_micros(deadline_us);
        let other = 1 - idx;
        loop {
            if state.batches[idx].filled >= self.max_width {
                return state;
            }
            // Only one batch is open at a time, so a claimed, unfinished
            // other batch has closed and its leader is running (or
            // about to run) the kernel; it wakes us when done.
            if !state.free[other] && !state.batches[other].done {
                state = self.full.wait(state).expect("lane poisoned");
                continue;
            }
            let now = Instant::now();
            if state.last_width <= 1 || now >= deadline {
                return state;
            }
            state = self
                .full
                .wait_timeout(state, deadline - now)
                .expect("lane poisoned")
                .0;
        }
    }

    /// Submits a single-vector request to the coalescer. Writes the
    /// complete response frame into `out` and returns its status byte.
    fn submit(
        &self,
        model: &ShardedModel,
        direction: Direction,
        payload: &[u8],
        metrics: &ModelMetrics,
        deadline_us: u64,
        out: &mut Vec<u8>,
    ) -> u8 {
        let entered = Instant::now();
        let mut state = self.state.lock().expect("lane poisoned");

        // Join the open batch, or claim a free buffer as a new one. With
        // both buffers busy an admitted request applies backpressure by
        // waiting for one to drain — shedding is admission control's
        // job (`max_inflight`), and progress is guaranteed because a
        // leader's wait is bounded by the running kernel or the deadline.
        let idx = loop {
            if let Some(i) = state.open {
                break i;
            }
            if let Some(i) = (0..2).find(|&i| state.free[i]) {
                state.free[i] = false;
                let b = &mut state.batches[i];
                b.filled = 0;
                b.done = false;
                b.err = None;
                b.readers = 0;
                state.open = Some(i);
                break i;
            }
            state = self.done_cv.wait(state).expect("lane poisoned");
        };
        let slot = {
            let b = &mut state.batches[idx];
            let slot = b.filled;
            b.filled += 1;
            b.readers += 1;
            decode_f64s(
                &mut b.xcols[slot * self.in_dim..(slot + 1) * self.in_dim],
                payload,
            );
            slot
        };
        if slot + 1 == self.max_width {
            // Batch is full: close it and wake the leader early.
            state.open = None;
            self.full.notify_all();
        }

        if slot == 0 {
            // Leader: wait for company only when it is coming, then
            // execute.
            state = self.await_company(state, idx, deadline_us);
            if state.open == Some(idx) {
                state.open = None;
            }
            // Move the buffers out (a `Vec` move — no allocation) so
            // the kernel runs outside the lane lock and the other
            // buffer keeps accepting fills meanwhile.
            let (kf, xcols, mut panel, mut y) = {
                let b = &mut state.batches[idx];
                b.exec_k = b.filled;
                b.kernel_start = Instant::now();
                (
                    b.filled,
                    std::mem::take(&mut b.xcols),
                    std::mem::take(&mut b.panel),
                    std::mem::take(&mut b.y),
                )
            };
            state.last_width = kf;
            drop(state);

            let err = contain("batched panel multiply failed", || {
                for s in 0..kf {
                    for i in 0..self.in_dim {
                        panel[i * kf + s] = xcols[s * self.in_dim + i];
                    }
                }
                multiply_panel(
                    model,
                    direction,
                    kf,
                    &panel[..self.in_dim * kf],
                    &mut y[..self.out_dim * kf],
                )
            });
            metrics.batches.fetch_add(1, Ordering::Relaxed);
            metrics.vectors.fetch_add(kf as u64, Ordering::Relaxed);
            metrics.batch_width.record(kf as u64);

            // The buffers go back even after a contained panic, so the
            // lane stays usable.
            state = self.state.lock().expect("lane poisoned");
            {
                let b = &mut state.batches[idx];
                b.xcols = xcols;
                b.panel = panel;
                b.y = y;
                b.err = err;
                b.done = true;
            }
            self.done_cv.notify_all();
            // Wake a leader holding its batch open behind this one.
            self.full.notify_all();
        } else {
            // Follower: the leader runs the kernel for us.
            while !state.batches[idx].done {
                state = self.done_cv.wait(state).expect("lane poisoned");
            }
        }

        // Copy this request's column out and release the buffer.
        let b = &mut state.batches[idx];
        let waited = b.kernel_start.saturating_duration_since(entered);
        metrics.queue_wait_us.record(waited.as_micros() as u64);
        let st = if let Some(msg) = b.err {
            respond_status(out, status::INTERNAL, msg);
            status::INTERNAL
        } else {
            let kf = b.exec_k;
            begin_frame(out);
            out.push(status::OK);
            out.reserve(self.out_dim * 8);
            for r in 0..self.out_dim {
                out.extend_from_slice(&b.y[r * kf + slot].to_le_bytes());
            }
            finish_frame(out);
            status::OK
        };
        b.readers -= 1;
        if b.readers == 0 {
            state.free[idx] = true;
            // Wake requests parked above waiting for a free buffer.
            self.done_cv.notify_all();
        }
        st
    }

    /// Runs a request directly, bypassing the coalescer: a request
    /// that already carries a k-wide panel (k ≥ 2), a row subset
    /// (distinct output slices cannot coalesce), or a sparse vector.
    /// `kernel` decodes the payload into the lane's staging buffers and
    /// writes the first `y_len` values of `y`; `vectors` is the batch
    /// width the metrics record. Same response contract as
    /// [`submit`](Self::submit).
    fn submit_direct(
        &self,
        vectors: usize,
        y_len: usize,
        metrics: &ModelMetrics,
        out: &mut Vec<u8>,
        failed: &'static str,
        kernel: impl FnOnce(&mut DirectBufs) -> Result<(), gcm_matrix::MatrixError>,
    ) -> u8 {
        let mut bufs = self.direct.lock().expect("direct bufs poisoned");
        let err = contain(failed, || kernel(&mut bufs));
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics.vectors.fetch_add(vectors as u64, Ordering::Relaxed);
        metrics.batch_width.record(vectors as u64);
        respond_direct(out, err, &bufs.y[..y_len])
    }
}

impl DirectBufs {
    /// Decodes a panel `payload` into `panel`; returns it beside the
    /// first `y_len` values of `y`.
    fn panel(&mut self, payload: &[u8], y_len: usize) -> (&[f64], &mut [f64]) {
        let x = &mut self.panel[..payload.len() / 8];
        decode_f64s(x, payload);
        (x, &mut self.y[..y_len])
    }
}

/// Runs one kernel call, containing a panic inside it: the caller's
/// buffers and locks stay usable (a guard held across the call is not
/// poisoned), and the failure comes back as the message every affected
/// request answers `INTERNAL` with — counted in the model's `errors`.
/// Allocation-free unless the kernel panics.
fn contain<E>(
    failed: &'static str,
    kernel: impl FnOnce() -> Result<(), E>,
) -> Option<&'static str> {
    match catch_unwind(AssertUnwindSafe(kernel)) {
        Ok(Ok(())) => None,
        Ok(Err(_)) => Some(failed),
        Err(_) => Some("kernel panicked"),
    }
}

/// Encodes a direct (uncoalesced) request's response: `y` on success,
/// `INTERNAL` with the failure message otherwise. Returns the status.
fn respond_direct(out: &mut Vec<u8>, err: Option<&'static str>, y: &[f64]) -> u8 {
    if let Some(msg) = err {
        respond_status(out, status::INTERNAL, msg);
        return status::INTERNAL;
    }
    begin_frame(out);
    out.push(status::OK);
    out.reserve(y.len() * 8);
    for v in y {
        out.extend_from_slice(&v.to_le_bytes());
    }
    finish_frame(out);
    status::OK
}

/// Per-model serving state: the loaded model, its metrics, and one
/// batching lane per direction.
#[derive(Debug)]
struct ModelLanes {
    model: Arc<ShardedModel>,
    metrics: Arc<ModelMetrics>,
    right: Lane,
    left: Lane,
}

impl ModelLanes {
    fn new(model: Arc<ShardedModel>, metrics: Arc<ModelMetrics>, batch_width: usize) -> Self {
        let (rows, cols) = (model.rows(), model.cols());
        Self {
            right: Lane::new(cols, rows, batch_width),
            left: Lane::new(rows, cols, batch_width),
            model,
            metrics,
        }
    }

    fn lane(&self, direction: Direction) -> &Lane {
        match direction {
            Direction::Right => &self.right,
            Direction::Left => &self.left,
        }
    }
}

/// Validates a multiply request against its model and the lane it will
/// run on, before admission: a hand-rolled client must not reach the
/// kernels with an oversized or mismatched panel, an out-of-range row
/// slice, or an out-of-range sparse index. Returns that lane, or the
/// message the request is rejected with.
fn check_request<'a>(lanes: &'a ModelLanes, req: &Request<'_>) -> Result<&'a Lane, &'static str> {
    let (lane, k, payload) = match *req {
        Request::Multiply {
            direction,
            k,
            payload,
            ..
        } => (lanes.lane(direction), k, payload),
        Request::MultiplyRows {
            ref rows,
            k,
            payload,
            ..
        } => {
            if rows.end > lanes.model.rows() {
                return Err("row range exceeds model rows");
            }
            (&lanes.right, k, payload)
        }
        Request::MultiplySparse { nnz, payload, .. } => {
            // Decode guarantees strictly increasing indices, so the last
            // pair carries the maximum and one probe bounds them all;
            // nnz ≤ cols then follows for free but is checked first so
            // an overclaimed count gets the clearer message.
            let cols = lanes.model.cols();
            if nnz > cols {
                return Err("non-zero count exceeds model columns");
            }
            if nnz > 0 && sparse_pair(payload, nnz - 1).0 as usize >= cols {
                return Err("sparse index exceeds model columns");
            }
            return Ok(&lanes.right);
        }
        Request::Ping | Request::Stats { .. } | Request::Info { .. } => {
            unreachable!("only multiply verbs are checked")
        }
    };
    if k > lane.max_width {
        return Err("k exceeds server batch width");
    }
    if payload.len() != k * lane.in_dim * 8 {
        return Err("payload length does not match model dimension");
    }
    Ok(lane)
}

fn respond_status(out: &mut Vec<u8>, s: u8, msg: &str) {
    begin_frame(out);
    out.push(s);
    out.extend_from_slice(msg.as_bytes());
    finish_frame(out);
}

/// Decrements the in-flight counter on scope exit (including panics).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The transport-free request processor: protocol frame in, protocol
/// frame out. [`Server`] wraps it in TCP; tests drive it directly.
#[derive(Debug)]
pub struct Engine {
    registry: Registry,
    config: ServerConfig,
    metrics: Metrics,
    lanes: RwLock<HashMap<String, Arc<ModelLanes>>>,
    inflight: AtomicUsize,
}

impl Engine {
    /// An engine serving models out of `registry` under `config`
    /// (widths and marks clamped to sane ranges).
    pub fn new(registry: Registry, config: ServerConfig) -> Self {
        Self {
            registry,
            config: config.normalized(),
            metrics: Metrics::new(),
            lanes: RwLock::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
        }
    }

    /// The active (normalized) configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The backing registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The metrics registry (what the `stats` verb renders).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn get_lanes(&self, name: &str) -> Result<Arc<ModelLanes>, ServeError> {
        if let Some(lanes) = self.lanes.read().expect("lanes poisoned").get(name) {
            return Ok(Arc::clone(lanes));
        }
        // Cold path: registry load (single-flight, prewarmed) + lane
        // buffer allocation, once per model.
        let model = self.registry.get(name)?;
        let metrics = self.metrics.get_or_create(name);
        let lanes = Arc::new(ModelLanes::new(model, metrics, self.config.batch_width));
        let mut map = self.lanes.write().expect("lanes poisoned");
        Ok(Arc::clone(map.entry(name.to_string()).or_insert(lanes)))
    }

    fn respond_serve_error(&self, out: &mut Vec<u8>, e: &ServeError) {
        let not_found = match e {
            ServeError::BadName(_) => true,
            ServeError::Io(io) => io.kind() == std::io::ErrorKind::NotFound,
            _ => false,
        };
        let s = if not_found {
            status::UNKNOWN_MODEL
        } else {
            status::INTERNAL
        };
        respond_status(out, s, &e.to_string());
    }

    fn try_admit(&self) -> Option<InflightGuard<'_>> {
        let prev = self.inflight.fetch_add(1, Ordering::Acquire);
        if prev >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::Release);
            return None;
        }
        Some(InflightGuard(&self.inflight))
    }

    /// Processes one request frame body, encoding the complete response
    /// frame (length prefix included) into `out`. Steady-state multiply
    /// requests against warm lanes perform zero heap allocation (once
    /// `out` has grown to the response size).
    pub fn handle_frame(&self, body: &[u8], out: &mut Vec<u8>) {
        let req = match decode_request(body) {
            Ok(req) => req,
            Err(msg) => {
                respond_status(out, status::BAD_REQUEST, msg);
                return;
            }
        };
        match req {
            Request::Ping => respond_status(out, status::OK, ""),
            Request::Stats { model } => {
                let text = self.metrics.render(model);
                respond_status(out, status::OK, &text);
            }
            Request::Info { model } => match self.get_lanes(model) {
                Ok(lanes) => {
                    begin_frame(out);
                    out.push(status::OK);
                    out.extend_from_slice(&(lanes.model.rows() as u64).to_le_bytes());
                    out.extend_from_slice(&(lanes.model.cols() as u64).to_le_bytes());
                    finish_frame(out);
                }
                Err(e) => self.respond_serve_error(out, &e),
            },
            Request::Multiply { model, .. }
            | Request::MultiplyRows { model, .. }
            | Request::MultiplySparse { model, .. } => self.multiply(model, &req, out),
        }
    }

    /// Serves one multiply request of any verb: looks up its lanes,
    /// validates it ([`check_request`]), admits it past the in-flight
    /// high-water mark, runs it (coalesced when it carries one dense
    /// vector, directly otherwise), and counts the outcome.
    fn multiply(&self, name: &str, req: &Request<'_>, out: &mut Vec<u8>) {
        let start = Instant::now();
        let lanes = match self.get_lanes(name) {
            Ok(lanes) => lanes,
            Err(e) => {
                self.respond_serve_error(out, &e);
                return;
            }
        };
        let m = &lanes.metrics;
        m.requests.fetch_add(1, Ordering::Relaxed);
        let lane = match check_request(&lanes, req) {
            Ok(lane) => lane,
            Err(msg) => {
                m.errors.fetch_add(1, Ordering::Relaxed);
                respond_status(out, status::BAD_REQUEST, msg);
                return;
            }
        };
        let Some(_guard) = self.try_admit() else {
            m.overloaded.fetch_add(1, Ordering::Relaxed);
            respond_status(out, status::OVERLOADED, "in-flight high-water mark reached");
            return;
        };
        let model = &*lanes.model;
        let st = match *req {
            Request::Multiply {
                direction,
                k: 1,
                payload,
                ..
            } => lane.submit(
                model,
                direction,
                payload,
                m,
                self.config.batch_deadline_us,
                out,
            ),
            Request::Multiply {
                direction,
                k,
                payload,
                ..
            } => lane.submit_direct(k, lane.out_dim * k, m, out, "panel multiply failed", |b| {
                let (x, y) = b.panel(payload, lane.out_dim * k);
                multiply_panel(model, direction, k, x, y)
            }),
            Request::MultiplyRows {
                ref rows,
                k,
                payload,
                ..
            } => {
                let n = rows.len() * k;
                lane.submit_direct(k, n, m, out, "row-subset multiply failed", |b| {
                    let (x, y) = b.panel(payload, n);
                    model.right_multiply_rows(rows.clone(), k, x, y)
                })
            }
            Request::MultiplySparse { nnz, payload, .. } => {
                lane.submit_direct(1, lane.out_dim, m, out, "sparse multiply failed", |b| {
                    b.pairs.clear();
                    b.pairs.extend((0..nnz).map(|i| sparse_pair(payload, i)));
                    model.right_multiply_sparse(&b.pairs, &mut b.y[..lane.out_dim])
                })
            }
            Request::Ping | Request::Stats { .. } | Request::Info { .. } => {
                unreachable!("only multiply verbs are served here")
            }
        };
        if st == status::OK {
            m.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency_us.record(start.elapsed().as_micros() as u64);
    }
}

fn handle_connection(engine: Arc<Engine>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut inbuf = Vec::new();
    let mut out = Vec::new();
    loop {
        use std::io::Write;
        match read_frame(&mut stream, &mut inbuf) {
            Ok(Some(n)) => {
                engine.handle_frame(&inbuf[..n], &mut out);
                if stream.write_all(&out).is_err() {
                    break;
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
}

/// The TCP front-end: an accept loop spawning one thread per
/// connection, each running [`Engine::handle_frame`] over reused frame
/// buffers.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds to `addr` (e.g. `("127.0.0.1", port)`; port 0 picks a free
    /// one).
    ///
    /// # Errors
    /// Fails on bind errors.
    pub fn bind(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// Fails if the socket is gone.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine behind the listener.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn run_until(self, stop: Arc<AtomicBool>) {
        for conn in self.listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            if let Ok(stream) = conn {
                let engine = Arc::clone(&self.engine);
                std::thread::spawn(move || handle_connection(engine, stream));
            }
        }
    }

    /// Serves forever (the `gcm serve` foreground path).
    pub fn run(self) {
        self.run_until(Arc::new(AtomicBool::new(false)));
    }

    /// Serves on a background thread; the returned handle stops the
    /// accept loop on [`stop`](ServerHandle::stop) or drop.
    ///
    /// # Errors
    /// Fails if the bound address cannot be read back.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || self.run_until(flag));
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Handle to a background [`Server`]; stops it on drop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Existing connections drain
    /// on their own (their threads exit at client EOF).
    pub fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept call.
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_info, encode_multiply, encode_ping, encode_stats, Client};
    use crate::registry::ModelStore;
    use gcm_matrix::DenseMatrix;
    use gcm_pipeline::BuildConfig;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gcm-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_dense(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + 2 * c) % 3 != 0 {
                    m.set(r, c, ((r % 5) as f64) - 0.5 * (c as f64));
                }
            }
        }
        m
    }

    fn engine_with_model(tag: &str, config: ServerConfig) -> (Engine, DenseMatrix, PathBuf) {
        let dir = tmp_dir(tag);
        let store = ModelStore::open(&dir).unwrap();
        let dense = sample_dense(18, 6);
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        store.save("m", &model).unwrap();
        let registry = Registry::new(store, config.batch_width);
        (Engine::new(registry, config), dense, dir)
    }

    fn body_of(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "frame length prefix");
        &frame[4..]
    }

    #[test]
    fn engine_answers_ping_info_stats_and_multiply() {
        let config = ServerConfig {
            batch_deadline_us: 0,
            ..ServerConfig::default()
        };
        let (engine, dense, dir) = engine_with_model("engine", config);
        let (mut req, mut out) = (Vec::new(), Vec::new());

        encode_ping(&mut req);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out), &[status::OK]);

        encode_info(&mut req, "m");
        engine.handle_frame(body_of(&req), &mut out);
        let body = body_of(&out);
        assert_eq!(body[0], status::OK);
        assert_eq!(u64::from_le_bytes(body[1..9].try_into().unwrap()), 18);
        assert_eq!(u64::from_le_bytes(body[9..17].try_into().unwrap()), 6);

        encode_info(&mut req, "missing");
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::UNKNOWN_MODEL);

        // Right multiply matches the dense reference bit-for-bit.
        let x = vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.25];
        encode_multiply(&mut req, "m", Direction::Right, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        let body = body_of(&out);
        assert_eq!(body[0], status::OK);
        let got: Vec<f64> = body[1..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut want = vec![0.0; 18];
        dense.right_multiply(&x, &mut want).unwrap();
        assert_eq!(got, want, "served product must be bit-exact");

        // Dimension mismatch and oversized k are rejected.
        encode_multiply(&mut req, "m", Direction::Right, 1, &x[..4]);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::BAD_REQUEST);
        let wide = vec![0.0; 6 * (config.batch_width + 1)];
        encode_multiply(
            &mut req,
            "m",
            Direction::Right,
            config.batch_width + 1,
            &wide,
        );
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::BAD_REQUEST);

        encode_stats(&mut req, "");
        engine.handle_frame(body_of(&req), &mut out);
        let body = body_of(&out);
        assert_eq!(body[0], status::OK);
        let text = std::str::from_utf8(&body[1..]).unwrap();
        // `requests` counts everything received (the two rejected
        // multiplies included), `ok` only the served one.
        assert!(text.contains("model=m requests=3 ok=1"), "{text}");
        assert!(text.contains("errors=2"), "{text}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_serves_row_subsets_and_validates_ranges() {
        use crate::protocol::encode_multiply_rows;
        let config = ServerConfig {
            batch_deadline_us: 0,
            ..ServerConfig::default()
        };
        let (engine, dense, dir) = engine_with_model("rows", config);
        let (mut req, mut out) = (Vec::new(), Vec::new());
        let x = vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.25];

        // A row slice matches the same rows of the full product.
        encode_multiply_rows(&mut req, "m", 5..11, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        let body = body_of(&out);
        assert_eq!(body[0], status::OK);
        let got: Vec<f64> = body[1..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut want = vec![0.0; 18];
        dense.right_multiply(&x, &mut want).unwrap();
        assert_eq!(got, want[5..11], "row subset must be bit-exact");

        // Out-of-range rows, oversized k, and mismatched payloads are
        // all rejected server-side before any queueing.
        encode_multiply_rows(&mut req, "m", 10..19, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::BAD_REQUEST, "rows past end");
        let wide = vec![0.0; 6 * (config.batch_width + 1)];
        encode_multiply_rows(&mut req, "m", 0..3, config.batch_width + 1, &wide);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::BAD_REQUEST, "k too wide");
        encode_multiply_rows(&mut req, "m", 0..3, 1, &x[..4]);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::BAD_REQUEST, "short payload");
        encode_multiply_rows(&mut req, "missing", 0..3, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::UNKNOWN_MODEL);

        // An empty range is valid and returns an empty result.
        encode_multiply_rows(&mut req, "m", 7..7, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out), &[status::OK]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Spins (yielding) until `cond` holds on the lane's state. The
    /// ten-second bound only turns a broken lane into a failure instead
    /// of a hang; no test relies on it for ordering.
    fn wait_for_lane(lane: &Lane, cond: impl Fn(&LaneState) -> bool) {
        let t0 = Instant::now();
        while !cond(&lane.state.lock().unwrap()) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "lane never reached the state"
            );
            std::thread::yield_now();
        }
    }

    /// Sends one k=1 right multiply of `x` from a new thread; the
    /// thread returns `x` and the response body.
    fn spawn_right(
        engine: &Arc<Engine>,
        x: Vec<f64>,
    ) -> std::thread::JoinHandle<(Vec<f64>, Vec<u8>)> {
        let engine = Arc::clone(engine);
        std::thread::spawn(move || {
            let (mut req, mut out) = (Vec::new(), Vec::new());
            encode_multiply(&mut req, "m", Direction::Right, 1, &x);
            engine.handle_frame(body_of(&req), &mut out);
            (x, body_of(&out).to_vec())
        })
    }

    fn unit_x(t: usize) -> Vec<f64> {
        let mut x = vec![0.0; 6];
        x[t % 6] = (t + 1) as f64;
        x[(t + 3) % 6] = -0.5;
        x
    }

    fn assert_exact(dense: &DenseMatrix, x: &[f64], body: &[u8]) {
        assert_eq!(body[0], status::OK);
        let got: Vec<f64> = body[1..]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut want = vec![0.0; dense.rows()];
        dense.right_multiply(x, &mut want).unwrap();
        assert_eq!(got, want, "each member must get its own exact column");
    }

    /// With shard 0's kernel stalled by the caller, sends one request
    /// (a cold lane flushes it at width 1 into the stalled kernel), then
    /// `k - 1` more that queue behind it as the lane's next batch, then
    /// runs `release` to free the kernel. Returns every request's input
    /// and response body.
    fn queue_behind_stalled_kernel(
        engine: &Arc<Engine>,
        lanes: &ModelLanes,
        k: usize,
        release: impl FnOnce(),
    ) -> Vec<(Vec<f64>, Vec<u8>)> {
        let first = spawn_right(engine, unit_x(0));
        wait_for_lane(&lanes.right, |s| {
            s.open.is_none() && s.free.contains(&false)
        });
        let rest: Vec<_> = (1..k).map(|t| spawn_right(engine, unit_x(t))).collect();
        wait_for_lane(&lanes.right, |s| {
            s.open.is_some_and(|i| s.batches[i].filled == k - 1)
        });
        release();
        std::iter::once(first)
            .chain(rest)
            .map(|j| j.join().expect("a kernel panic must not reach the caller"))
            .collect()
    }

    #[test]
    fn admission_control_sheds_past_high_water_mark() {
        use crate::protocol::{encode_multiply_rows, encode_multiply_sparse};
        // max_inflight is clamped to >= 1, so exhaust it with a request
        // held inside a stalled kernel.
        let config = ServerConfig {
            batch_width: 8,
            batch_deadline_us: 200_000,
            max_inflight: 1,
        };
        let (engine, dense, dir) = engine_with_model("admission", config);
        let engine = Arc::new(engine);
        let lanes = engine.get_lanes("m").unwrap();
        let x = vec![1.0; 6];

        let stall = lanes.model.shard_slice()[0].ws.lock().unwrap();
        let slow = spawn_right(&engine, x.clone());
        // Wait until the slow request holds the in-flight slot.
        while engine.inflight.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // Every multiply verb is shed while the slot is held: a
        // coalesced right and left vector, a direct k = 2 panel, a row
        // subset and a sparse vector.
        let mut frames = vec![Vec::new(); 5];
        encode_multiply(&mut frames[0], "m", Direction::Right, 1, &x);
        encode_multiply(&mut frames[1], "m", Direction::Left, 1, &[1.0; 18]);
        encode_multiply(&mut frames[2], "m", Direction::Right, 2, &[1.0; 12]);
        encode_multiply_rows(&mut frames[3], "m", 2..9, 1, &x);
        encode_multiply_sparse(&mut frames[4], "m", &[(1, 2.0)]);
        let verbs = ["right k=1", "left k=1", "right k=2", "rows", "sparse"];
        let mut out = Vec::new();
        for (what, req) in verbs.iter().zip(&frames) {
            engine.handle_frame(body_of(req), &mut out);
            assert_eq!(body_of(&out)[0], status::OVERLOADED, "{what} must be shed");
        }
        // The shed requests joined no batch: the slow one completes OK
        // once its kernel runs.
        drop(stall);
        let (x, body) = slow.join().unwrap();
        assert_exact(&dense, &x, &body);
        let m = engine.metrics().get("m").unwrap();
        assert_eq!(m.overloaded.load(Ordering::Relaxed), 5);
        assert_eq!(m.requests.load(Ordering::Relaxed), 6);
        assert_eq!(m.ok.load(Ordering::Relaxed), 1);
        assert_eq!(m.errors.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overload_fast_fails_instead_of_queueing() {
        // Over TCP: max_inflight 1 and a stalled kernel holding the only
        // in-flight slot, so the second request is deterministically
        // shed. The kernel is released only after the shed reply
        // arrives, so that reply cannot have queued behind the first.
        let config = ServerConfig {
            batch_width: 8,
            batch_deadline_us: 500_000,
            max_inflight: 1,
        };
        let (engine, _dense, dir) = engine_with_model("overload", config);
        let engine = Arc::new(engine);
        let lanes = engine.get_lanes("m").unwrap();
        let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0)).unwrap();
        let mut handle = server.spawn().unwrap();
        let addr = handle.addr();
        let x = vec![1.0; 6];

        let stall = lanes.model.shard_slice()[0].ws.lock().unwrap();
        let first = {
            let x = x.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .multiply_status("m", Direction::Right, 1, &x)
                    .unwrap()
            })
        };
        while engine.inflight.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let mut client = Client::connect(addr).unwrap();
        let second = client
            .multiply_status("m", Direction::Right, 1, &x)
            .unwrap();
        drop(stall);
        assert_eq!(second, status::OVERLOADED, "second request must be shed");
        assert_eq!(first.join().unwrap(), status::OK);

        let stats = client.stats("m").unwrap();
        assert!(stats.contains("overloaded=1"), "{stats}");
        drop(client);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lone_request_on_a_cold_lane_does_not_wait_out_the_deadline() {
        let config = ServerConfig {
            batch_width: 8,
            batch_deadline_us: 10_000_000,
            max_inflight: 64,
        };
        let (engine, dense, dir) = engine_with_model("cold", config);
        let engine = Arc::new(engine);
        engine.get_lanes("m").unwrap();
        let t0 = Instant::now();
        let (x, body) = spawn_right(&engine, unit_x(2)).join().unwrap();
        let took = t0.elapsed();
        assert_exact(&dense, &x, &body);
        assert!(
            took < Duration::from_secs(2),
            "lone request took {took:?} against a 10 s deadline"
        );
        let m = engine.metrics().get("m").unwrap();
        assert_eq!(m.batches.load(Ordering::Relaxed), 1);
        assert_eq!(m.queue_wait_us.count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arrivals_behind_a_running_kernel_run_as_one_batch() {
        let k = 5;
        let config = ServerConfig {
            batch_width: 8,
            batch_deadline_us: 10_000_000,
            max_inflight: 64,
        };
        let (engine, dense, dir) = engine_with_model("behind", config);
        let engine = Arc::new(engine);
        let lanes = engine.get_lanes("m").unwrap();
        let stall = lanes.model.shard_slice()[0].ws.lock().unwrap();
        for (x, body) in queue_behind_stalled_kernel(&engine, &lanes, k, || drop(stall)) {
            assert_exact(&dense, &x, &body);
        }
        // The first request ran alone; the k - 1 arrivals behind it were
        // flushed together as soon as the kernel freed up — no deadline.
        let m = engine.metrics().get("m").unwrap();
        assert_eq!(m.batches.load(Ordering::Relaxed), 2);
        assert_eq!(m.vectors.load(Ordering::Relaxed), k as u64);
        assert_eq!(m.queue_wait_us.count(), k as u64);
        assert_eq!(lanes.right.state.lock().unwrap().last_width, k - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn after_a_wide_batch_the_next_leader_waits_for_company() {
        let config = ServerConfig {
            batch_width: 4,
            batch_deadline_us: 10_000_000,
            max_inflight: 64,
        };
        let (engine, dense, dir) = engine_with_model("wide", config);
        let engine = Arc::new(engine);
        let lanes = engine.get_lanes("m").unwrap();
        let stall = lanes.model.shard_slice()[0].ws.lock().unwrap();
        queue_behind_stalled_kernel(&engine, &lanes, 3, || drop(stall));
        let m = engine.metrics().get("m").unwrap();
        assert_eq!(m.batches.load(Ordering::Relaxed), 2);

        // The last batch ran at width 2, so a lone leader now holds its
        // batch open; three later arrivals fill it to the width.
        let leader = spawn_right(&engine, unit_x(0));
        wait_for_lane(&lanes.right, |s| s.open.is_some());
        let rest: Vec<_> = (1..4).map(|t| spawn_right(&engine, unit_x(t))).collect();
        for j in std::iter::once(leader).chain(rest) {
            let (x, body) = j.join().unwrap();
            assert_exact(&dense, &x, &body);
        }
        assert_eq!(m.batches.load(Ordering::Relaxed), 3);
        assert_eq!(m.vectors.load(Ordering::Relaxed), 3 + 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kernel_panics_are_contained_at_the_batch_boundary() {
        use crate::protocol::{encode_multiply_rows, encode_multiply_sparse};
        let config = ServerConfig {
            batch_width: 8,
            batch_deadline_us: 1_000,
            max_inflight: 64,
        };
        let (engine, _dense, dir) = engine_with_model("panic", config);
        let engine = Arc::new(engine);
        let lanes = engine.get_lanes("m").unwrap();
        let m = engine.metrics().get("m").unwrap();

        // A helper thread stalls shard 0's kernel, then panics while
        // holding its workspace lock: the stalled request and every
        // later kernel on the shard hit a poisoned mutex and panic.
        let (release, stalled) = std::sync::mpsc::channel::<()>();
        let (held, is_held) = std::sync::mpsc::channel::<()>();
        let model = Arc::clone(&lanes.model);
        let poisoner = std::thread::spawn(move || {
            let _ws = model.shard_slice()[0].ws.lock().unwrap();
            held.send(()).unwrap();
            stalled.recv().unwrap();
            panic!("injected kernel fault");
        });
        is_held.recv().unwrap();
        let k = 4;
        let answers = queue_behind_stalled_kernel(&engine, &lanes, k, || {
            release.send(()).unwrap();
            assert!(poisoner.join().is_err());
        });
        // The lone leader and the coalesced batch behind it: every
        // member answers INTERNAL, none hangs.
        for (_, body) in answers {
            assert_eq!(body[0], status::INTERNAL);
        }
        assert_eq!(m.batches.load(Ordering::Relaxed), 2);
        assert_eq!(m.errors.load(Ordering::Relaxed), k as u64);

        // A second round on the same lanes still answers — coalesced,
        // direct panel, row subset and sparse — with INTERNAL.
        let (mut req, mut out) = (Vec::new(), Vec::new());
        let x = unit_x(1);
        let t0 = Instant::now();
        let (_, body) = spawn_right(&engine, x.clone()).join().unwrap();
        assert_eq!(body[0], status::INTERNAL, "coalesced, second round");
        encode_multiply(&mut req, "m", Direction::Right, 2, &x.repeat(2));
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::INTERNAL, "direct panel");
        encode_multiply_rows(&mut req, "m", 0..18, 1, &x);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::INTERNAL, "row subset");
        encode_multiply_sparse(&mut req, "m", &[(1, 2.0)]);
        engine.handle_frame(body_of(&req), &mut out);
        assert_eq!(body_of(&out)[0], status::INTERNAL, "sparse");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "second round was slow"
        );
        assert_eq!(m.errors.load(Ordering::Relaxed), k as u64 + 4);
        assert_eq!(m.ok.load(Ordering::Relaxed), 0);

        // The lane's buffers came back: nothing is left claimed.
        let state = lanes.right.state.lock().unwrap();
        assert_eq!(state.free, [true, true]);
        assert!(state.batches.iter().all(|b| b.xcols.len() == 8 * 6));
        drop(state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_batch() {
        let config = ServerConfig {
            batch_width: 4,
            batch_deadline_us: 500_000,
            max_inflight: 64,
        };
        let (engine, dense, dir) = engine_with_model("coalesce", config);
        let engine = Arc::new(engine);
        // Prime the lanes so all four requests race on a warm path.
        let (mut req, mut out) = (Vec::new(), Vec::new());
        encode_info(&mut req, "m");
        engine.handle_frame(body_of(&req), &mut out);

        let barrier = Arc::new(std::sync::Barrier::new(4));
        let joins: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut x = vec![0.0; 6];
                    x[t % 6] = (t + 1) as f64;
                    let (mut req, mut out) = (Vec::new(), Vec::new());
                    encode_multiply(&mut req, "m", Direction::Right, 1, &x);
                    barrier.wait();
                    engine.handle_frame(body_of(&req), &mut out);
                    let body = body_of(&out).to_vec();
                    (x, body)
                })
            })
            .collect();
        for join in joins {
            let (x, body) = join.join().unwrap();
            assert_exact(&dense, &x, &body);
        }
        // The batch width bound: 4 vectors over at most 4 kernel calls.
        // How they split depends on arrival order; the stalled-kernel
        // tests below pin the flush rule deterministically.
        let m = engine.metrics().get("m").unwrap();
        assert_eq!(m.vectors.load(Ordering::Relaxed), 4);
        assert!(m.batches.load(Ordering::Relaxed) <= 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn server_roundtrips_over_tcp() {
        let config = ServerConfig {
            batch_deadline_us: 0,
            ..ServerConfig::default()
        };
        let (engine, dense, dir) = engine_with_model("tcp", config);
        let server = Server::bind(Arc::new(engine), ("127.0.0.1", 0)).unwrap();
        let mut handle = server.spawn().unwrap();

        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        assert_eq!(client.info("m").unwrap(), (18, 6));
        let x = vec![0.5; 6];
        let mut y = Vec::new();
        client
            .multiply("m", Direction::Right, 1, &x, &mut y)
            .unwrap();
        let mut want = vec![0.0; 18];
        dense.right_multiply(&x, &mut want).unwrap();
        assert_eq!(y, want);
        let text = client.stats("m").unwrap();
        assert!(text.contains("model=m"), "{text}");
        drop(client);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
