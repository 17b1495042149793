//! Staged build/load pipeline vs. the sequential reference, at 1/2/4/8
//! shards.
//!
//! * `build`: `Pipeline::build_sequential` (every shard on the calling
//!   thread) vs. `Pipeline::build` (shards fused reorder → RePair →
//!   encode on the persistent pool). RePair dominates, so the pipeline
//!   approaches the pool's parallel speed-up at 4–8 shards.
//! * `load`: `container::from_bytes_sequential` vs. the
//!   `ShardTable`-parallel `container::from_bytes` on the same
//!   container bytes.
//!
//! * `plan-load`: cold start to a *planned* serving state — a
//!   container without a plan section (load, then compile every kernel
//!   plan at prewarm) vs. the same model with a persisted plan section
//!   (load casts the plans; prewarm only validates).
//!
//! * `grammar-build`: the grammar-stage policies at 4 shards — classic
//!   RePair vs. MR-RePair vs. `auto` (both grammars per shard, keep the
//!   smaller measured encoding). `auto` builds both grammars from one
//!   construction that forks at MR-RePair's first rule extension, so it
//!   costs less than the other two together; how much less depends on
//!   how late the fork comes, and each shard's two continuations run
//!   side by side on the pool. On this Census corpus the fork comes
//!   after 90–137 of about 1 550 rules per shard, and the gain is lost
//!   in the noise: five alternating runs on a 2-vCPU host read auto
//!   40–61 ms per build (median 43) against 40–45 ms (median 44) with
//!   two full constructions, next to repair 21–24 ms and mr-repair
//!   20–26 ms. On Covtype shards, where the fork comes after 1–2
//!   thousand of about 20 thousand rules, the grammar stage of a
//!   single-threaded 4-shard `auto` build of Covtype 120k fell from
//!   1.40 s to 0.94 s (median of 5).
//!
//! * `checksum`: the hash of each container trailer sum — version 7's
//!   byte-serial FNV-1a against version 8's four-lane word sum — on one
//!   128 KiB checksum chunk and, chunk by chunk, on a body the size of
//!   the `build-covtype` container (7 222 613 B, 56 chunks).
//!
//! Both pairs produce bit-identical results (locked in by
//! `crates/serve/tests/pipeline_parallel.rs`); only the clock should
//! move. Pass `--test` (CI's smoke mode) to shrink the matrix and the
//! sample count so the bench doubles as a fast end-to-end check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use gcm_bench::report::{pct, time_s};
use gcm_datagen::Dataset;
use gcm_matrix::CsrvMatrix;
use gcm_pipeline::{BuildConfig, GrammarChoice, Pipeline, ReorderMode};
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::{container, ServeOptions, ShardedModel};

/// CI smoke mode: `cargo bench --bench build_load -- --test`.
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Builds one model at `shards` shards and returns its v3 (plain) and
/// v4 (persisted-plan) container bytes.
fn containers_at(pipeline: &Pipeline, csrv: &CsrvMatrix, shards: usize) -> (Vec<u8>, Vec<u8>) {
    let config = BuildConfig {
        shards,
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_artifacts(pipeline.build(csrv, &config));
    let plain = model.to_bytes();
    model.prewarm_with(1, &ServeOptions::planned());
    let planned = model.to_bytes_with_plans();
    (plain, planned)
}

/// Cold start to a planned serving state from container bytes: load,
/// then a planned prewarm (which compiles for v3, only validates for
/// v4). Returns the model so the work cannot be optimized away.
fn planned_cold_start(bytes: &[u8]) -> ShardedModel {
    let model = container::from_bytes(bytes).expect("valid container");
    model.prewarm_with(1, &ServeOptions::planned());
    model
}

/// `hash` of every checksum chunk of `body`, as a loader verifies them,
/// folded into one value.
fn sum_chunks(body: &[u8], hash: fn(&[u8]) -> u64) -> u64 {
    body.chunks(container::CHECKSUM_CHUNK)
        .fold(0, |acc, chunk| acc ^ hash(chunk))
}

fn bench_build_load(c: &mut Criterion) {
    let rows = if smoke() { 400 } else { 4_000 };
    let dense = Dataset::Census.generate(rows, 42);
    let csrv = CsrvMatrix::from_dense(&dense).expect("csrv");
    let dense_bytes = dense.uncompressed_bytes();
    let pipeline = Pipeline::new();
    // Touch the pool once so worker spawning never lands in a sample.
    let _ = pipeline.build(&csrv, &BuildConfig::default());

    let mut group = c.benchmark_group("build");
    for shards in [1usize, 2, 4, 8] {
        let config = BuildConfig {
            shards,
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("sequential", shards),
            &config,
            |b, config| b.iter(|| pipeline.build_sequential(&csrv, config)),
        );
        group.bench_with_input(
            BenchmarkId::new("pipeline", shards),
            &config,
            |b, config| b.iter(|| pipeline.build(&csrv, config)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("load");
    for shards in [1usize, 2, 4, 8] {
        let config = BuildConfig {
            shards,
            reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ..BuildConfig::default()
        };
        let artifacts = pipeline.build(&csrv, &config);
        let stats = artifacts.stats.clone();
        let model = ShardedModel::from_artifacts(artifacts);
        let bytes = model.to_bytes();
        if shards == 8 {
            // One paper-style summary through the shared report
            // machinery: container size vs dense, and the build's wall
            // clock next to its summed per-stage CPU time.
            let (reorder, grammar, encode) = stats.stage_cpu_totals();
            let cpu = reorder + grammar + encode;
            println!(
                "build_load summary: container {} of dense | build wall {}s vs stage cpu {}s",
                pct(bytes.len(), dense_bytes),
                time_s(stats.wall_time.as_secs_f64()),
                time_s(cpu.as_secs_f64()),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("sequential", shards),
            &bytes,
            |b, bytes| b.iter(|| container::from_bytes_sequential(bytes).expect("valid container")),
        );
        group.bench_with_input(
            BenchmarkId::new("sharded-parallel", shards),
            &bytes,
            |b, bytes| b.iter(|| container::from_bytes(bytes).expect("valid container")),
        );
    }
    group.finish();

    // Cold start to a *planned* serving state: v3 recompiles every
    // kernel plan at prewarm; v4 casts the persisted plan section and
    // prewarm only validates, so its cost stays flat in grammar size.
    let mut group = c.benchmark_group("plan-load");
    for shards in [1usize, 2, 4, 8] {
        let (plain, planned) = containers_at(&pipeline, &csrv, shards);
        group.bench_with_input(
            BenchmarkId::new("v3-compile-on-load", shards),
            &plain,
            |b, bytes| b.iter(|| planned_cold_start(bytes)),
        );
        group.bench_with_input(
            BenchmarkId::new("v4-cast-on-load", shards),
            &planned,
            |b, bytes| b.iter(|| planned_cold_start(bytes)),
        );
    }
    group.finish();

    // Grammar-stage policies: what each choice costs at build time.
    let mut group = c.benchmark_group("grammar-build");
    for grammar in [
        GrammarChoice::RePair,
        GrammarChoice::MrRePair,
        GrammarChoice::Auto,
    ] {
        let config = BuildConfig {
            shards: 4,
            grammar: Some(grammar),
            ..BuildConfig::default()
        };
        group.bench_with_input(BenchmarkId::new(grammar.name(), 4), &config, |b, config| {
            b.iter(|| pipeline.build(&csrv, config))
        });
    }
    group.finish();

    // The trailer hash alone, on pseudo-random bytes: its cost does not
    // depend on the content.
    let mut group = c.benchmark_group("checksum");
    let body_len = if smoke() { 1 << 20 } else { 7_222_613 };
    let body: Vec<u8> = (0..body_len as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    for (name, bytes) in [
        ("chunk", &body[..container::CHECKSUM_CHUNK]),
        ("body", &body[..]),
    ] {
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("v7-fnv1a", name), bytes, |b, bytes| {
            b.iter(|| sum_chunks(bytes, container::fnv1a64))
        });
        group.bench_with_input(BenchmarkId::new("v8-lane-sum", name), bytes, |b, bytes| {
            b.iter(|| sum_chunks(bytes, container::lane_sum64))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(if smoke() { 2 } else { 10 })
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_build_load
}
criterion_main!(benches);
