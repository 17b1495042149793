//! Extends the serve layer's zero-allocation guarantee from the kernels
//! (`zero_alloc_serve.rs`) to the **network request loop**: once a
//! connection is warm, each cycle of frame read → request decode →
//! batch submit → response encode through [`Engine::handle_frame`]
//! performs zero heap allocation. The lane buffers are preallocated,
//! moved in and out with `mem::take`, and the reply reuses the
//! caller's output buffer — so a long-running `gcm serve` process
//! stays off the allocator entirely in steady state.
//!
//! All checks live in one `#[test]` so no concurrent test perturbs the
//! process-wide allocation-op counter.

use std::path::PathBuf;

use gcm_bench::{alloc, TrackingAlloc};
use gcm_core::Encoding;
use gcm_matrix::DenseMatrix;
use gcm_serve::protocol::{self, status, Direction};
use gcm_serve::{
    Backend, BuildConfig, EncodingChoice, Engine, ModelStore, Registry, ServerConfig, ShardedModel,
};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcm-zalloc-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_alloc_free(name: &str, iterations: usize, mut f: impl FnMut()) {
    let before = alloc::alloc_ops();
    for _ in 0..iterations {
        f();
    }
    let after = alloc::alloc_ops();
    assert_eq!(
        after - before,
        0,
        "{name}: {} allocation ops over {iterations} cycles (must be 0)",
        after - before
    );
}

#[test]
fn steady_state_request_loop_is_allocation_free() {
    let mut dense = DenseMatrix::zeros(96, 12);
    for r in 0..96 {
        for c in 0..12 {
            if (r + c) % 3 != 0 {
                dense.set(r, c, ((r * 7 + c) % 9) as f64 * 0.5 - 1.0);
            }
        }
    }
    let dir = tmp_dir("loop");
    let store = ModelStore::open(&dir).unwrap();
    let model = ShardedModel::from_dense(
        &dense,
        &BuildConfig {
            backend: Backend::Compressed,
            encoding: EncodingChoice::Fixed(Encoding::ReIv),
            shards: 3,
            ..BuildConfig::default()
        },
    )
    .unwrap();
    store.save("m", &model).unwrap();

    let k = 4usize;
    // Deadline 0: the single test thread is always the batch leader and
    // flushes immediately, exercising fill → close → execute → read
    // without needing concurrent follower threads.
    let config = ServerConfig {
        batch_width: k,
        batch_deadline_us: 0,
        max_inflight: 16,
    };
    let engine = Engine::new(Registry::new(store, k), config);
    let (rows, cols) = (96usize, 12usize);

    // Pre-encoded request frames a persistent connection would replay.
    let x1 = vec![0.75; cols];
    let mut req_single = Vec::new();
    protocol::encode_multiply(&mut req_single, "m", Direction::Right, 1, &x1);
    let x_left = vec![0.25; rows];
    let mut req_left = Vec::new();
    protocol::encode_multiply(&mut req_left, "m", Direction::Left, 1, &x_left);
    let x_panel = vec![0.5; cols * k];
    let mut req_panel = Vec::new();
    protocol::encode_multiply(&mut req_panel, "m", Direction::Right, k, &x_panel);

    // Warm-up: first requests create the model's lanes, prewarm the
    // kernels via the registry, and grow the reusable buffers.
    let mut inbuf: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    for req in [&req_single, &req_left, &req_panel] {
        out.clear();
        engine.handle_frame(&req[4..], &mut out);
        assert_eq!(out[4], status::OK, "warm-up request must succeed");
        // Warm the frame-read path too (grows `inbuf` to the largest
        // frame once).
        let mut cursor = req.as_slice();
        assert!(protocol::read_frame(&mut cursor, &mut inbuf)
            .unwrap()
            .is_some());
    }

    // Steady state: the full connection-loop cycle — read a frame from
    // the wire, decode, batch, execute, encode the reply — repeatedly,
    // mixing coalescable k=1 traffic (both directions) with direct
    // k-wide panels. Zero heap allocation allowed.
    assert_alloc_free("request loop", 64, || {
        for req in [&req_single, &req_left, &req_panel] {
            let mut cursor = req.as_slice();
            let n = protocol::read_frame(&mut cursor, &mut inbuf)
                .unwrap()
                .expect("frame present");
            out.clear();
            engine.handle_frame(&inbuf[..n], &mut out);
            assert_eq!(out[4], status::OK);
        }
    });

    // Error replies must stay off the allocator too: an oversized k is
    // refused before any buffer work with a static message.
    let mut req_bad = Vec::new();
    protocol::encode_multiply(&mut req_bad, "m", Direction::Right, k + 1, &x_panel);
    out.clear();
    engine.handle_frame(&req_bad[4..], &mut out); // warm the reject path
    assert_eq!(out[4], status::BAD_REQUEST);
    assert_alloc_free("reject loop", 64, || {
        out.clear();
        engine.handle_frame(&req_bad[4..], &mut out);
        assert_eq!(out[4], status::BAD_REQUEST);
    });

    // Sanity outside the measured region: the loop's last single-vector
    // reply is the real product.
    out.clear();
    engine.handle_frame(&req_single[4..], &mut out);
    let mut y_ref = vec![0.0; rows];
    dense.right_multiply(&x1, &mut y_ref).unwrap();
    let payload = &out[5..];
    assert_eq!(payload.len(), rows * 8);
    for (r, want) in y_ref.iter().enumerate() {
        let got = f64::from_le_bytes(payload[r * 8..r * 8 + 8].try_into().unwrap());
        assert!((got - want).abs() < 1e-9, "row {r}: {got} vs {want}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
