//! Serving over the network: the batched TCP front-end end to end.
//!
//! ```sh
//! cargo run --release --example network_serving
//! ```
//!
//! Builds a sharded compressed model, publishes it into a store, starts
//! the `gcm serve` engine on an ephemeral port, then drives it with
//! concurrent single-vector clients. The server coalesces those k=1
//! requests into one panel kernel call per batch window — the paper's
//! k-wide batching win, recovered at serve time — and the `stats` verb
//! shows the achieved batch width. Every response is bit-exact with a
//! direct in-process `right_multiply_panel` call.

use std::sync::{Arc, Barrier};

use gcm_serve::protocol::{Client, Direction};
use mm_repair::prelude::*;

fn main() {
    // Build and publish a model, exactly as `gcm gen` + `gcm compress`
    // would from the command line.
    let dense = Dataset::Census.generate(3000, 21);
    let model = ShardedModel::from_dense(
        &dense,
        &BuildConfig {
            backend: Backend::Compressed,
            encoding: EncodingChoice::Fixed(Encoding::ReAns),
            shards: 4,
            ..BuildConfig::default()
        },
    )
    .expect("build");
    let dir = std::env::temp_dir().join(format!("gcm-example-net-{}", std::process::id()));
    let store = ModelStore::open(&dir).expect("open store");
    store.save("census", &model).expect("save");
    println!(
        "published census: {}x{}, {} shards, {} bytes on disk",
        model.rows(),
        model.cols(),
        model.num_shards(),
        model.to_bytes().len()
    );

    // Start the server on an ephemeral port: coalesce up to 8 concurrent
    // single-vector requests per kernel call and shed past 256 in-flight
    // requests. A request on an idle lane runs at once; the 500µs
    // deadline bounds only the fill wait once a lane has seen
    // concurrent arrivals.
    let config = ServerConfig {
        batch_width: 8,
        batch_deadline_us: 500,
        max_inflight: 256,
    };
    let registry = Registry::new(ModelStore::open(&dir).expect("reopen"), config.batch_width);
    let engine = Arc::new(Engine::new(registry, config));
    engine.registry().get("census").expect("prewarm census");
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0)).expect("bind");
    let mut handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    println!("serving on {addr}");

    // 32 concurrent clients, 16 requests each, released together so the
    // batcher has company to coalesce.
    let clients = 32usize;
    let per_client = 16usize;
    let cols = model.cols();
    let barrier = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let x: Vec<f64> = (0..cols)
                    .map(|i| ((i + c) % 5) as f64 * 0.5 - 1.0)
                    .collect();
                let mut y = Vec::new();
                barrier.wait();
                for _ in 0..per_client {
                    client
                        .multiply("census", Direction::Right, 1, &x, &mut y)
                        .expect("multiply");
                }
                (x, y)
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Bit-exactness spot check against a direct in-process product.
    let served = engine.registry().get("census").expect("model");
    for (x, y) in &results {
        let mut y_direct = vec![0.0; served.rows()];
        served
            .right_multiply_panel(1, x, &mut y_direct)
            .expect("direct");
        assert!(
            y.iter()
                .zip(&y_direct)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "wire response must be bit-exact with the direct kernel"
        );
    }
    println!(
        "{} requests served, all bit-exact with direct right_multiply_panel",
        clients * per_client
    );

    // What did the batcher achieve? mean_width > 1 means concurrent k=1
    // requests actually shared kernel calls.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats("census").expect("stats");
    for line in stats
        .lines()
        .filter(|l| !l.starts_with("model=census width_le"))
    {
        println!("  {line}");
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
