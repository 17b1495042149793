//! Compiled execution plans: trading load-time memory for per-request
//! speed.
//!
//! A serving process pays the grammar build once, then multiplies
//! millions of times. The streaming kernels re-pay per-multiply costs
//! that never change — the `div`/`mod` terminal split, the
//! terminal-vs-nonterminal branch, the rule-store dispatch, the
//! packed/rANS decode of `C`. [`ServeOptions::planned`] makes `prewarm`
//! compile every shard into a [`KernelPlan`] (branchless, division-free
//! descriptors + a CSR row index over `C`), after which every request
//! dispatches through the planned kernels — bit-exact with the
//! streaming path, several times faster, at an `O(|C| + |R|)`-word
//! memory price that `plan_heap_bytes` reports.
//!
//! ```sh
//! cargo run --release --example planned_serving
//! ```

use std::time::Instant;

use mm_repair::prelude::*;

fn time_requests(model: &ShardedModel, x: &[f64], y: &mut [f64], n: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        model.right_multiply_panel(1, x, y).expect("serve");
    }
    t.elapsed().as_secs_f64() / n as f64
}

fn main() {
    // Build once: a repetitive Census slice, grammar-compressed with the
    // smallest (and slowest to stream) encoding.
    let dense = Dataset::Census.generate(8_000, 42);
    let cols = dense.cols();
    let opts = BuildConfig {
        encoding: EncodingChoice::Fixed(Encoding::ReAns),
        shards: 1,
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_dense(&dense, &opts).expect("build");
    println!(
        "model: {} x {}, {} bytes stored",
        model.rows(),
        model.cols(),
        model.stored_bytes()
    );

    let x = vec![1.0f64; cols];
    let mut y = vec![0.0f64; model.rows()];

    // Streaming dispatch: the memory-lean reference path.
    model.prewarm(1);
    let streaming = time_requests(&model, &x, &mut y, 50);
    println!("streaming : {:8.1} µs/request", streaming * 1e6);

    // One plan-enabled prewarm flips the same model to planned dispatch;
    // plans compile concurrently on the pool, one shard per worker.
    let t = Instant::now();
    model.prewarm_with(1, &ServeOptions::planned());
    println!(
        "plan      : compiled in {:.1} ms, {} plan bytes on top of {} stored",
        t.elapsed().as_secs_f64() * 1e3,
        model.plan_heap_bytes(),
        model.stored_bytes()
    );
    let planned = time_requests(&model, &x, &mut y, 50);
    println!(
        "planned   : {:8.1} µs/request  ({:.1}x)",
        planned * 1e6,
        streaming / planned
    );

    // Registries make the trade declarative: every model this registry
    // loads is prewarmed with plans.
    let dir = std::env::temp_dir().join(format!("gcm-planned-example-{}", std::process::id()));
    let registry = Registry::with_options(
        ModelStore::open(&dir).expect("store"),
        8,
        ServeOptions::planned(),
    );
    registry.publish("census", model).expect("publish");
    let served = registry.get("census").expect("load");
    assert!(served.is_planned());
    let mut y2 = vec![0.0f64; served.rows()];
    served
        .right_multiply_panel(1, &x, &mut y2)
        .expect("serve from registry");
    assert_eq!(y, y2, "planned registry serving is bit-exact");
    println!("registry  : planned model served from cache, products identical");
    let _ = std::fs::remove_dir_all(&dir);
}
