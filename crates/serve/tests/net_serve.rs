//! End-to-end tests of the batched TCP front-end: responses served over
//! the wire must be **bit-exact** with direct `right/left_multiply_panel`
//! calls on the same container (the batched kernels accumulate each
//! column independently and in k=1 order, so coalescing must never
//! change a single bit). Admission control's fast-fail over TCP is
//! tested inside the crate (`server.rs`), where a test can stall a
//! kernel deterministically.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use gcm_matrix::DenseMatrix;
use gcm_serve::protocol::{status, Client, Direction};
use gcm_serve::{
    BuildConfig, Engine, ModelStore, Registry, Server, ServerConfig, ServerHandle, ShardedModel,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcm-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_dense(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if (r * 3 + c) % 4 != 0 {
                // Values with non-trivial mantissas, so "bit-exact"
                // actually discriminates from "close".
                m.set(r, c, ((r * 31 + c * 17) % 23) as f64 * 0.37 - 2.1);
            }
        }
    }
    m
}

/// Store a model, start a server over it, and hand back a directly
/// loaded copy of the same container for reference products.
fn serve_sample(tag: &str, config: ServerConfig) -> (ServerHandle, ShardedModel, PathBuf) {
    let dir = tmp_dir(tag);
    let store = ModelStore::open(&dir).unwrap();
    let model = ShardedModel::from_dense(
        &sample_dense(24, 7),
        &BuildConfig {
            shards: 3,
            ..BuildConfig::default()
        },
    )
    .unwrap();
    let path = store.save("m", &model).unwrap();
    let reference = ShardedModel::load(&path).unwrap();
    reference.prewarm(config.batch_width.max(1));
    let registry = Registry::new(store, config.batch_width);
    let server = Server::bind(Arc::new(Engine::new(registry, config)), ("127.0.0.1", 0)).unwrap();
    let handle = server.spawn().unwrap();
    (handle, reference, dir)
}

#[test]
fn coalesced_wire_responses_are_bit_exact_with_direct_panel_call() {
    let k = 6usize;
    let (mut handle, reference, dir) = serve_sample(
        "coalesce",
        ServerConfig {
            batch_width: k,
            batch_deadline_us: 500_000,
            max_inflight: 64,
        },
    );
    let (rows, cols) = (reference.rows(), reference.cols());

    // k concurrent single-vector requests released together: the ones
    // that arrive while an earlier batch runs coalesce into panel
    // kernel calls server-side.
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(k));
    let joins: Vec<_> = (0..k)
        .map(|j| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let x: Vec<f64> = (0..cols)
                    .map(|i| ((i * 13 + j * 7) % 11) as f64 * 0.73 - 3.3)
                    .collect();
                let mut client = Client::connect(addr).unwrap();
                let mut y = Vec::new();
                barrier.wait();
                client
                    .multiply("m", Direction::Right, 1, &x, &mut y)
                    .unwrap();
                (x, y)
            })
        })
        .collect();
    let results: Vec<(Vec<f64>, Vec<f64>)> = joins.into_iter().map(|t| t.join().unwrap()).collect();

    // Reference: ONE direct k-wide panel call with the same vectors.
    let mut x_panel = vec![0.0; cols * k];
    for (j, (x, _)) in results.iter().enumerate() {
        for i in 0..cols {
            x_panel[i * k + j] = x[i];
        }
    }
    let mut y_panel = vec![0.0; rows * k];
    reference
        .right_multiply_panel(k, &x_panel, &mut y_panel)
        .unwrap();
    for (j, (_, y)) in results.iter().enumerate() {
        assert_eq!(y.len(), rows);
        for r in 0..rows {
            assert!(
                y[r].to_bits() == y_panel[r * k + j].to_bits(),
                "request {j}, row {r}: wire {} != direct panel {} (must be bit-exact)",
                y[r],
                y_panel[r * k + j]
            );
        }
    }

    // Every request was served.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats("m").unwrap();
    let line = stats
        .lines()
        .find(|l| l.starts_with("model=m requests="))
        .unwrap_or_else(|| panic!("no model line in:\n{stats}"));
    assert!(line.contains("ok=6"), "{line}");
    drop(client);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn k_wide_wire_requests_match_direct_panel_calls_bit_exact_both_directions() {
    let (mut handle, reference, dir) = serve_sample(
        "kwide",
        ServerConfig {
            batch_width: 8,
            batch_deadline_us: 0,
            max_inflight: 64,
        },
    );
    let (rows, cols) = (reference.rows(), reference.cols());
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.info("m").unwrap(), (rows, cols));

    let k = 4usize;
    for (direction, in_dim, out_dim) in [
        (Direction::Right, cols, rows),
        (Direction::Left, rows, cols),
    ] {
        let x_panel: Vec<f64> = (0..in_dim * k)
            .map(|i| ((i * 29) % 13) as f64 * 0.31 - 1.7)
            .collect();
        let mut y_wire = Vec::new();
        client
            .multiply("m", direction, k, &x_panel, &mut y_wire)
            .unwrap();
        let mut y_direct = vec![0.0; out_dim * k];
        match direction {
            Direction::Right => reference.right_multiply_panel(k, &x_panel, &mut y_direct),
            Direction::Left => reference.left_multiply_panel(k, &x_panel, &mut y_direct),
        }
        .unwrap();
        assert_eq!(y_wire.len(), y_direct.len());
        for (i, (w, d)) in y_wire.iter().zip(&y_direct).enumerate() {
            assert!(
                w.to_bits() == d.to_bits(),
                "{} element {i}: wire {w} != direct {d}",
                direction.name()
            );
        }
    }
    drop(client);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes one raw frame (length prefix + body) and returns the response
/// status byte — a hand-rolled client the reference `Client`'s
/// validation never sees, so these frames reach the server as-is.
fn raw_roundtrip(stream: &mut std::net::TcpStream, body: &[u8], resp: &mut Vec<u8>) -> u8 {
    use std::io::Write;
    stream
        .write_all(&u32::try_from(body.len()).unwrap().to_le_bytes())
        .unwrap();
    stream.write_all(body).unwrap();
    gcm_serve::protocol::read_frame(stream, resp)
        .unwrap()
        .expect("server must answer, not hang up");
    resp[0]
}

#[test]
fn hand_rolled_malformed_frames_are_rejected_before_enqueueing() {
    use gcm_serve::protocol::verb;
    let (mut handle, reference, dir) = serve_sample(
        "raw",
        ServerConfig {
            batch_width: 8,
            batch_deadline_us: 0,
            max_inflight: 64,
        },
    );
    let cols = reference.cols();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut resp = Vec::new();

    // Zero-width panel: the decoder must refuse to drive the batching
    // lane with k = 0.
    let mut body = vec![verb::MULTIPLY, 0, 1, b'm', 0, 0];
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "k = 0"
    );
    // Payload that is not whole f64s.
    body = vec![verb::MULTIPLY, 0, 1, b'm', 1, 0, 1, 2, 3];
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "ragged payload"
    );
    // Whole f64s but the wrong count for the model: rejected
    // server-side before any queueing.
    body = vec![verb::MULTIPLY, 0, 1, b'm', 1, 0];
    body.extend_from_slice(&[0u8; 16]);
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "dimension mismatch"
    );
    // Row-subset frames: k = 0, inverted range, and a range past the
    // model all fast-fail with bad_request.
    body = vec![verb::MULTIPLY_ROWS, 1, b'm', 0, 0];
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&1u64.to_le_bytes());
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "rows k = 0"
    );
    body = vec![verb::MULTIPLY_ROWS, 1, b'm', 1, 0];
    body.extend_from_slice(&9u64.to_le_bytes());
    body.extend_from_slice(&3u64.to_le_bytes());
    body.extend_from_slice(&vec![0u8; cols * 8]);
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "inverted range"
    );
    body = vec![verb::MULTIPLY_ROWS, 1, b'm', 1, 0];
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    body.extend_from_slice(&vec![0u8; cols * 8]);
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "absurd range"
    );

    // Sparse frames. A forged pair list helper: the reference client
    // sorts and validates, so these can only arrive hand-rolled.
    let pairs = |list: &[(u32, f64)]| -> Vec<u8> {
        let mut out = Vec::new();
        for &(idx, val) in list {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&val.to_le_bytes());
        }
        out
    };
    // Payload that is not a whole number of (u32, f64) pairs.
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&[0u8; 7]);
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse ragged payload"
    );
    // Non-zero count disagrees with the payload.
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&pairs(&[(0, 1.0)]));
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse count overclaims payload"
    );
    // An absurd claimed count with no payload behind it must be
    // rejected from the count/length comparison alone — the server
    // never sizes a buffer from the attacker's number.
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse absurd count"
    );
    // Unsorted and duplicate indices: structural invariants of the
    // format, rejected at decode, before any model lookup or queueing.
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&pairs(&[(5, 1.0), (2, 1.0)]));
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse unsorted indices"
    );
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&pairs(&[(3, 1.0), (3, 2.0)]));
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse duplicate index"
    );
    // Well-formed frame, but the index is out of range for the model:
    // rejected against the model's columns before admission.
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&pairs(&[(cols as u32, 1.0)]));
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse out-of-range index"
    );
    // More pairs than the model has columns.
    let long: Vec<(u32, f64)> = (0..=cols as u32).map(|j| (j, 1.0)).collect();
    body = vec![verb::MULTIPLY_SPARSE, 1, b'm'];
    body.extend_from_slice(&(long.len() as u32).to_le_bytes());
    body.extend_from_slice(&pairs(&long));
    assert_eq!(
        raw_roundtrip(&mut stream, &body, &mut resp),
        status::BAD_REQUEST,
        "sparse more pairs than columns"
    );

    // The connection survives every rejection and still serves.
    drop(stream);
    let mut client = Client::connect(handle.addr()).unwrap();
    let x = vec![0.5; cols];
    let mut y = Vec::new();
    client
        .multiply("m", Direction::Right, 1, &x, &mut y)
        .unwrap();
    assert_eq!(y.len(), reference.rows());

    // Only rejections that need the model are counted against it: the
    // dimension mismatch and the two sparse frames checked against the
    // model's columns. Frames refused at decode never name a model the
    // server has looked up, so they count nowhere. The healthy request
    // above is the fourth counted one.
    let stats = client.stats("m").unwrap();
    let line = stats
        .lines()
        .find(|l| l.starts_with("model=m requests="))
        .unwrap_or_else(|| panic!("no model line in:\n{stats}"));
    assert!(
        line.starts_with("model=m requests=4 ok=1 overloaded=0 errors=3 "),
        "{line}"
    );
    drop(client);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sparse_wire_responses_are_bit_exact_with_direct_call() {
    let (mut handle, reference, dir) = serve_sample(
        "sparsewire",
        ServerConfig {
            batch_width: 8,
            batch_deadline_us: 0,
            max_inflight: 64,
        },
    );
    let (rows, cols) = (reference.rows(), reference.cols());
    let mut client = Client::connect(handle.addr()).unwrap();
    for x_nnz in [
        &[][..],
        &[(3u32, 1.75)],
        &[(0, 0.5), (2, -1.25), (6, 3.0)],
        &(0..cols as u32)
            .map(|j| (j, 0.25 + f64::from(j)))
            .collect::<Vec<_>>(),
    ] {
        let mut y_wire = Vec::new();
        client.multiply_sparse("m", x_nnz, &mut y_wire).unwrap();
        let mut y_direct = vec![0.0; rows];
        reference
            .right_multiply_sparse(x_nnz, &mut y_direct)
            .unwrap();
        assert_eq!(y_wire.len(), rows, "nnz={}", x_nnz.len());
        for (i, (w, d)) in y_wire.iter().zip(&y_direct).enumerate() {
            assert!(
                w.to_bits() == d.to_bits(),
                "nnz={} element {i}: wire {w} != direct {d}",
                x_nnz.len()
            );
        }
    }
    drop(client);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn row_subset_wire_responses_are_bit_exact_with_direct_call() {
    let (mut handle, reference, dir) = serve_sample(
        "rowsub",
        ServerConfig {
            batch_width: 8,
            batch_deadline_us: 0,
            max_inflight: 64,
        },
    );
    let (rows, cols) = (reference.rows(), reference.cols());
    let mut client = Client::connect(handle.addr()).unwrap();
    let k = 3usize;
    let x_panel: Vec<f64> = (0..cols * k)
        .map(|i| ((i * 19) % 17) as f64 * 0.41 - 2.2)
        .collect();
    for range in [0..4usize, 9..17, rows - 1..rows, 0..rows] {
        let mut y_wire = Vec::new();
        client
            .multiply_rows("m", range.clone(), k, &x_panel, &mut y_wire)
            .unwrap();
        let mut y_direct = vec![0.0; range.len() * k];
        reference
            .right_multiply_rows(range.clone(), k, &x_panel, &mut y_direct)
            .unwrap();
        assert_eq!(y_wire.len(), y_direct.len(), "rows {range:?}");
        for (i, (w, d)) in y_wire.iter().zip(&y_direct).enumerate() {
            assert!(
                w.to_bits() == d.to_bits(),
                "rows {range:?} element {i}: wire {w} != direct {d}"
            );
        }
    }
    drop(client);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
