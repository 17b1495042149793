//! The serve path: the in-process TCP server under a closed loop of
//! client connections (callers wait for each reply), and — in the traced
//! run — the same schedule through the transport-free engine and through
//! the protocol codec alone.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gcm_bench::alloc::alloc_ops;
use gcm_serve::protocol::{
    decode_request, encode_multiply, encode_multiply_rows, encode_multiply_sparse, status, Client,
    ClientError, Direction,
};
use gcm_serve::{Engine, ModelStore, Registry, Server, ServerConfig, ServerHandle, ShardedModel};
use rand::rngs::SmallRng;

use crate::inputs::{Inputs, Request, Tally, Verb};
use crate::stats::Summary;
use crate::trace::{micros, Trace};
use crate::workload::Spec;

/// Name the model is published and requested under.
const MODEL: &str = "m";
/// Closed-loop connections: one per core of the 2-core reference host.
const CONNECTIONS: usize = 2;

/// A running server and the model it serves.
pub struct Served {
    pub handle: ServerHandle,
    pub engine: Arc<Engine>,
    pub model: Arc<ShardedModel>,
}

/// Publishes `model` into a store under `dir` and serves it on an
/// ephemeral localhost port with the default [`ServerConfig`].
pub fn start(spec: &Spec, model: ShardedModel, dir: &Path) -> Result<Served, String> {
    let config = ServerConfig::default();
    let store = ModelStore::open(dir).map_err(|e| format!("store: {e}"))?;
    let registry = Registry::with_options(store, config.batch_width, spec.serve);
    let model = registry
        .publish(MODEL, model)
        .map_err(|e| format!("publish: {e}"))?;
    let engine = Arc::new(Engine::new(registry, config));
    let server =
        Server::bind(Arc::clone(&engine), ("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    Ok(Served {
        handle,
        engine,
        model,
    })
}

/// One client connection with its request schedule.
pub struct Conn {
    client: Client,
    schedule: SmallRng,
    index: usize,
    sent: u64,
    y: Vec<f64>,
}

fn send(client: &mut Client, req: &Request, y: &mut Vec<f64>) -> Result<(), ClientError> {
    match req.verb {
        Verb::Right => client.multiply(MODEL, Direction::Right, 1, &req.x, y),
        Verb::Left => client.multiply(MODEL, Direction::Left, 1, &req.x, y),
        Verb::Sparse => client.multiply_sparse(MODEL, &req.x_nnz, y),
        Verb::Rows => client.multiply_rows(MODEL, req.rows.clone(), 1, &req.x, y),
    }
}

/// Opens the closed-loop connections and sends every pool request once
/// on each, so lanes and buffers are warm before timing starts.
pub fn connect(
    addr: SocketAddr,
    inputs: &Inputs,
    tol: f64,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<Conn>, String> {
    (0..CONNECTIONS)
        .map(|index| {
            let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut conn = Conn {
                client,
                schedule: Inputs::schedule(seed, index),
                index,
                sent: 0,
                y: Vec::new(),
            };
            for req in &inputs.pool {
                let ok = send(&mut conn.client, req, &mut conn.y).is_ok();
                tally.check(ok && req.expect.matches(&conn.y, tol), "warm-up response");
            }
            Ok(conn)
        })
        .collect()
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopLog {
    /// Round-trip latency of every checked OK response, in µs.
    pub rtt_us: Vec<f64>,
    pub elapsed_s: f64,
    /// Heap allocations made anywhere in the process while the loops ran.
    pub allocs: usize,
    /// Per absorbed slice: OK responses per second, p50, p90 and p99
    /// latency.
    pub slices: Vec<[f64; 4]>,
    pub tally: Tally,
}

impl LoopLog {
    /// Adds a slice's samples and counts to this log, and its rate and
    /// latency percentiles to `slices`.
    pub fn absorb(&mut self, other: LoopLog) {
        let s = Summary::of(&other.rtt_us);
        let rate = other.rtt_us.len() as f64 / other.elapsed_s;
        self.slices.push([rate, s.median, s.p90, s.p99]);
        self.rtt_us.extend(other.rtt_us);
        self.elapsed_s += other.elapsed_s;
        self.allocs += other.allocs;
        self.tally.add(other.tally);
    }
}

/// Runs every connection in a closed loop for `seconds`, checking each
/// response against its oracle.
pub fn closed_loop(
    conns: &mut [Conn],
    inputs: &Inputs,
    tol: f64,
    seconds: f64,
    trace: &mut Trace,
) -> LoopLog {
    let barrier = Barrier::new(conns.len());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(LoopLog, Trace)> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let mut t = trace.fork();
                let barrier = &barrier;
                s.spawn(move || (drive(conn, inputs, tol, deadline, barrier, &mut t), t))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut log = LoopLog {
        elapsed_s: start.elapsed().as_secs_f64(),
        allocs: usize::MAX,
        ..LoopLog::default()
    };
    for (part, t) in results {
        log.rtt_us.extend(part.rtt_us);
        log.tally.add(part.tally);
        log.allocs = log.allocs.min(part.allocs);
        trace.merge(t);
    }
    log
}

/// One connection's closed loop. The loops of all connections start and
/// end at a barrier, so the process-wide allocation count between the
/// two barriers covers the request loops and nothing else.
fn drive(
    conn: &mut Conn,
    inputs: &Inputs,
    tol: f64,
    deadline: Instant,
    barrier: &Barrier,
    trace: &mut Trace,
) -> LoopLog {
    let mut log = LoopLog::default();
    log.rtt_us.reserve(1 << 16);
    barrier.wait();
    let allocs_before = alloc_ops();
    while Instant::now() < deadline {
        let req = &inputs.pool[inputs.pick(&mut conn.schedule)];
        let t0 = Instant::now();
        let result = send(&mut conn.client, req, &mut conn.y);
        let t1 = Instant::now();
        conn.sent += 1;
        trace.record(
            "client.rtt",
            (conn.index as u64) << 40 | conn.sent,
            None,
            t0,
            t1,
        );
        match result {
            Ok(()) => {
                let ok = req.expect.matches(&conn.y, tol);
                log.tally.check(ok, "response matches the dense oracle");
                if ok {
                    log.rtt_us.push(micros(t0, t1));
                }
            }
            Err(ClientError::Io(e)) => {
                log.tally.check(false, &format!("transport: {e}"));
                break;
            }
            Err(e) => log.tally.check(false, &format!("status: {e}")),
        }
    }
    barrier.wait();
    log.allocs = alloc_ops() - allocs_before;
    log
}

/// Batch width and shed share the engine saw, from its own metrics.
pub fn engine_counters(engine: &Engine) -> (f64, f64) {
    match engine.metrics().get(MODEL) {
        Some(m) => {
            let load = |a: &std::sync::atomic::AtomicU64| {
                a.load(std::sync::atomic::Ordering::Relaxed) as f64
            };
            (
                m.mean_width(),
                load(&m.overloaded) / load(&m.requests).max(1.0),
            )
        }
        None => (0.0, 0.0),
    }
}

fn encode(out: &mut Vec<u8>, req: &Request) {
    match req.verb {
        Verb::Right => encode_multiply(out, MODEL, Direction::Right, 1, &req.x),
        Verb::Left => encode_multiply(out, MODEL, Direction::Left, 1, &req.x),
        Verb::Sparse => encode_multiply_sparse(out, MODEL, &req.x_nnz),
        Verb::Rows => encode_multiply_rows(out, MODEL, req.rows.clone(), 1, &req.x),
    }
}

/// `Engine::handle_frame` timings over the clients' schedule, driven
/// from [`CONNECTIONS`] threads without a transport.
#[derive(Debug, Default)]
pub struct EngineLog {
    pub all_us: Vec<f64>,
    /// Dense right k=1 requests only (the coalesced verb).
    pub right_us: Vec<f64>,
    pub tally: Tally,
}

pub fn engine_direct(engine: &Engine, inputs: &Inputs, seed: u64, seconds: f64) -> EngineLog {
    let frames: Vec<Vec<u8>> = inputs
        .pool
        .iter()
        .map(|req| {
            let mut frame = Vec::new();
            encode(&mut frame, req);
            frame
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let parts: Vec<EngineLog> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|index| {
                let frames = &frames;
                s.spawn(move || {
                    let mut schedule = Inputs::schedule(seed, index);
                    let mut out = Vec::new();
                    let mut log = EngineLog::default();
                    while Instant::now() < deadline {
                        let i = inputs.pick(&mut schedule);
                        let t0 = Instant::now();
                        engine.handle_frame(&frames[i][4..], &mut out);
                        let us = micros(t0, Instant::now());
                        let ok = out.get(4) == Some(&status::OK);
                        log.tally.check(ok, "engine answers OK");
                        log.all_us.push(us);
                        if inputs.pool[i].verb == Verb::Right {
                            log.right_us.push(us);
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("engine thread panicked"))
            .collect()
    });
    let mut log = EngineLog::default();
    for part in parts {
        log.all_us.extend(part.all_us);
        log.right_us.extend(part.right_us);
        log.tally.add(part.tally);
    }
    log
}

/// Per-request encode and decode times of the protocol codec alone,
/// over `n` requests of the first client's schedule.
pub fn codec(inputs: &Inputs, seed: u64, n: usize, tally: &mut Tally) -> (Vec<f64>, Vec<f64>) {
    let mut schedule = Inputs::schedule(seed, 0);
    let mut frame = Vec::new();
    let (mut encode_us, mut decode_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let req = &inputs.pool[inputs.pick(&mut schedule)];
        let t0 = Instant::now();
        encode(&mut frame, req);
        let t1 = Instant::now();
        let ok = std::hint::black_box(decode_request(&frame[4..])).is_ok();
        let t2 = Instant::now();
        tally.check(ok, "request frame decodes");
        encode_us.push(micros(t0, t1));
        decode_us.push(micros(t1, t2));
    }
    (encode_us, decode_us)
}
