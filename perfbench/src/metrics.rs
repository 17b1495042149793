//! Every metric the benchmark prints: name, unit, and — for a per-layer
//! metric — the end-to-end metric it should move, on which workload.
//! `BENCHMARK.json` lists the same names and units; the smoke test keeps
//! the two in step.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metric (and workload) this per-layer metric should
    /// move; empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        moves: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

/// Printed by every run with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s"),
    e2e("latency_p50_us", "us"),
    e2e("iter_ms_p50", "ms"),
    e2e("build_s", "s"),
    e2e("rebuild_s", "s"),
    e2e("load_s", "s"),
    e2e("stored_pct_dense", "%"),
    e2e("peak_heap_mb", "MB"),
];

/// Printed as records beside the end-to-end metrics but left out of the
/// result. Throughput and tail latency follow the mean and the tail of
/// the request times, and on a host whose vCPUs are taken away now and
/// then (steal time) a few millisecond stalls set both: between
/// consecutive runs on the 2-vCPU reference host, closed-loop throughput
/// halved and p90 latency quadrupled while p50 moved by a fifth. Only the
/// medians repeat within a bound a regression check can use.
pub const RECORD_ONLY: &[Def] = &[
    e2e("req_per_s", "1/s"),
    e2e("latency_p90_us", "us"),
    e2e("latency_p99_us", "us"),
    e2e("iter_ms_p90", "ms"),
    e2e("iter_ms_p99", "ms"),
];

const SERVE: &str = "latency_p50_us (serve-small); not iter_ms_p50 or build_s (build-covtype)";
const KERNEL_SERVE: &str = "latency_p50_us (serve-small)";
const KERNEL_SOLVE: &str = "iter_ms_p50 (both); a small share of latency_p50_us (serve-small)";
const BUILD: &str = "build_s (both); setup_s (serve-small)";
const STAGES: &str = "build_s, rebuild_s (both); setup_s (serve-small)";
const LOAD: &str = "load_s (both); setup_s (serve-small)";

/// Printed by every run with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    layer("protocol.encode_us", "us", "latency_p50_us (serve-small)"),
    layer("protocol.decode_us", "us", "latency_p50_us (serve-small)"),
    layer("server.rtt_us_p50", "us", SERVE),
    layer("server.engine_us_p50", "us", SERVE),
    layer("server.engine_us_p99", "us", SERVE),
    layer("server.wire_us_p50", "us", SERVE),
    layer("server.queue_wait_us_p50", "us", SERVE),
    layer("server.mean_batch_width", "count", SERVE),
    layer("server.shed_frac", "ratio", SERVE),
    layer(
        "server.allocs_per_req",
        "count",
        "peak_heap_mb, latency_p50_us (serve-small)",
    ),
    layer("sharded.right_k1_us", "us", KERNEL_SERVE),
    layer("sharded.right_k2_us", "us", KERNEL_SERVE),
    layer("sharded.left_k1_us", "us", KERNEL_SERVE),
    layer("sharded.sparse_d1pct_us", "us", KERNEL_SERVE),
    layer("sharded.rows_1pct_us", "us", KERNEL_SERVE),
    layer("sharded.right_us_p50", "us", "iter_ms_p50 (both)"),
    layer("sharded.left_us_p50", "us", "iter_ms_p50 (both)"),
    layer(
        "sharded.fanout_us",
        "us",
        "iter_ms_p50 (build-covtype, 4 shards)",
    ),
    layer("sharded.prewarm_s", "s", "setup_s, load_s (all)"),
    layer("plan.right_ns_per_nnz", "ns", KERNEL_SOLVE),
    layer("plan.left_ns_per_nnz", "ns", KERNEL_SOLVE),
    layer("plan.shard_right_us_max", "us", KERNEL_SOLVE),
    layer("plan.shard_right_us_sum", "us", KERNEL_SOLVE),
    layer("plan.bytes_per_right_computed", "B", KERNEL_SOLVE),
    layer("plan.gbps_computed", "GB/s", KERNEL_SOLVE),
    layer("plan.heap_bytes", "B", "peak_heap_mb (all)"),
    layer("plan.compile_s", "s", BUILD),
    layer("plan.compiles_on_load", "count", LOAD),
    layer("iteration.driver_us_p50", "us", "iter_ms_p50 (both)"),
    layer("iteration.allocs_per_iter", "count", "iter_ms_p50 (both)"),
    layer("pipeline.plan_s", "s", BUILD),
    layer("pipeline.wall_s", "s", BUILD),
    layer("pipeline.parallel_eff", "ratio", BUILD),
    layer("reorder.cpu_s", "s", STAGES),
    layer("repair.grammar_cpu_s", "s", STAGES),
    layer("encodings.encode_cpu_s", "s", STAGES),
    layer("repair.rules", "count", "stored_pct_dense, build_s (all)"),
    layer("repair.grammar_builds", "count", "build_s (build-covtype)"),
    layer("container.serialize_s", "s", BUILD),
    layer("container.parse_s", "s", LOAD),
    layer("container.checksum_s", "s", LOAD),
    layer("container.decode_s", "s", LOAD),
    layer("container.bytes", "B", "stored_pct_dense (all)"),
    layer(
        "incremental.rebuilt_shards",
        "count",
        "rebuild_s (build-covtype)",
    ),
    layer(
        "incremental.spliced_shards",
        "count",
        "rebuild_s (build-covtype)",
    ),
    layer("csrv.from_dense_s", "s", "setup_s (all)"),
    layer(
        "trace.serve_overhead_pct",
        "%",
        "none: traced against untraced rounds of the serve path",
    ),
    layer(
        "trace.solve_overhead_pct",
        "%",
        "none: traced against untraced rounds of the solve path",
    ),
    layer(
        "error_frac",
        "ratio",
        "every metric: failed operations over attempted",
    ),
];

/// Measured values by metric name, with the samples behind them.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Values {
    /// A value derived from `samples` (their summary is kept for the
    /// result record).
    pub fn sampled(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        self.map.insert(name, (value, Some(Summary::of(samples))));
    }

    /// A single measured value or exact count.
    pub fn single(&mut self, name: &'static str, value: f64) {
        self.map.insert(name, (value, None));
    }

    /// The median of `samples`, recorded under `name`.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let value = Summary::of(samples).median;
        self.sampled(name, value, samples);
        value
    }

    /// The lower quartile of `samples`, recorded under `name`: the value
    /// of every gated timing. On the shared reference host, vCPU steal
    /// comes in bursts of a second or two (1% to 32% per second was
    /// measured) and only ever slows a sample down, so the faster quartile
    /// of samples spread over the run follows the program, where the
    /// median also follows how long the run's bursts lasted.
    pub fn lower_quartile(&mut self, name: &'static str, samples: &[f64]) {
        self.sampled(name, Summary::of(samples).p25, samples);
    }

    pub fn get(&self, name: &str) -> Option<(f64, Option<Summary>)> {
        self.map.get(name).copied()
    }
}
