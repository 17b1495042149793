//! **perfbench** — one benchmark for the read, solve and write paths.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-small --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's inputs with `gcm-datagen` and `--seed`,
//! drives the program only through its public API (pipeline build,
//! container, incremental rebuild, sharded model, TCP server and client,
//! iteration drivers), checks every output against a dense oracle, and
//! prints one record line per metric followed by the result object as
//! the last line. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! records spans around the calls into each layer and prints the
//! per-layer metrics and the tracing overhead instead. `--smoke` shrinks
//! every corpus for the benchmark's own test.
//!
//! A run has a set-up phase (`setup_s`) and a measured phase of
//! `--seconds`, made of rounds that share it between the write, serve
//! and solve paths as the workload says (see `workload.rs`). Each
//! workload runs in its own process, so the process-wide counters (plan
//! compiles, grammar builds, allocations) read exact deltas. Scratch
//! files go to `.perfbench-work/` under the working directory and are
//! removed at exit.

mod inputs;
mod metrics;
mod serve;
mod solve;
mod stats;
mod trace;
mod workload;
mod write;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcm_bench::alloc::{live_bytes, peak_bytes, reset_peak};
use gcm_matrix::CsrvMatrix;

use inputs::{Inputs, Tally};
use metrics::{Def, Values, END_TO_END, PER_LAYER, RECORD_ONLY};
use serve::LoopLog;
use solve::SolveLog;
use stats::{median, Summary};
use trace::Trace;
use workload::Workload;
use write::WriteLog;

#[global_allocator]
static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();

const USAGE: &str = "usage: perfbench --workload <serve-small|build-covtype> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        smoke: argv.iter().any(|a| a == "--smoke"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Scratch directory for the model store, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench-work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// The corpus a run measured, for the result records.
struct Corpus {
    dataset: &'static str,
    rows: usize,
    cols: usize,
    nnz: usize,
    shards: usize,
}

/// What one run produced.
struct Outcome {
    values: Values,
    corpus: Corpus,
    tally: Tally,
    trace_lines: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec(args.smoke);
    let tol = spec.tolerance();
    let seconds = args.seconds;
    let mut trace = Trace::new(args.trace);
    let mut tally = Tally::default();
    let mut values = Values::default();
    let work = WorkDir::create(args.workload)?;

    let mut inputs = Inputs::generate(&spec, args.seed);
    let corpus = Corpus {
        dataset: spec.dataset.spec().name,
        rows: inputs.dense.rows(),
        cols: inputs.dense.cols(),
        nnz: inputs.dense.nnz(),
        shards: spec.config.shards,
    };
    // Everything live now is the benchmark's own, bar the dense
    // matrices that are released after set-up.
    let bench_bytes = live_bytes().saturating_sub(inputs.dense_bytes());

    // Set-up: repeated, `setup_s` is the lower quartile of repetitions.
    let mut wlog = WriteLog::default();
    let edited = CsrvMatrix::from_dense(&inputs.edited).map_err(|e| format!("csrv: {e}"))?;
    let mut reps = Vec::new();
    let mut model = None;
    let mut csrv = None;
    for _ in 0..spec.setup_reps {
        let t0 = Instant::now();
        let c = write::csrv(&inputs.dense, &mut wlog, &mut trace)?;
        let mut rep_s = t0.elapsed().as_secs_f64();
        if spec.setup_builds {
            let (m, build_and_load_s) =
                write::cycle(&spec, &inputs, &c, &edited, &mut wlog, &mut trace)?;
            rep_s += build_and_load_s;
            model = Some(m);
        }
        csrv = Some(c);
        reps.push(rep_s);
    }
    let csrv = csrv.ok_or("no set-up repetition ran")?;
    inputs.drop_dense();
    // With builds in set-up, set-up ends with the last built model bound
    // to the server; otherwise every measured round starts with a write
    // cycle and the first one binds the server.
    let mut served = None;
    if let Some(m) = model {
        let t0 = Instant::now();
        served = Some(serve::start(&spec, m, &work.0)?);
        let bind_s = t0.elapsed().as_secs_f64();
        reps.iter_mut().for_each(|r| *r += bind_s);
    }
    values.lower_quartile("setup_s", &reps);

    // Measured phase: rounds of [write cycle,] serve slice and solve
    // slice until `--seconds` are used. Every path thus samples the whole
    // run, so a burst of interference on a shared host hits a share of
    // each metric's samples rather than all of one metric's; each serve
    // and solve metric summarises its per-round values.
    reset_peak();
    let start = Instant::now();
    let mut conns = Vec::new();
    let (mut plain, mut traced_loop) = (LoopLog::default(), LoopLog::default());
    let (mut solve_plain, mut traced_solve) = (SolveLog::default(), SolveLog::default());
    let mut untraced = Trace::new(false);
    let (mut round, mut round_s) = (0, 0.0);
    // A round starts only if one as long as the last still ends in time;
    // the traced run needs an untraced and a traced round at least.
    let min_rounds = if args.trace { 2 } else { 1 };
    while round < min_rounds || start.elapsed().as_secs_f64() + round_s <= seconds {
        let round_start = Instant::now();
        // The traced run traces odd rounds only; the difference between
        // traced and untraced rounds is the tracing overhead.
        let traced = args.trace && round % 2 == 1;
        let t = if traced { &mut trace } else { &mut untraced };
        if !spec.setup_builds {
            let (model, _) = write::cycle(&spec, &inputs, &csrv, &edited, &mut wlog, t)?;
            if served.is_none() {
                served = Some(serve::start(&spec, model, &work.0)?);
            }
        }
        let s = served
            .as_ref()
            .expect("set-up or the first write cycle starts the server");
        if conns.is_empty() {
            conns = serve::connect(s.handle.addr(), &inputs, tol, args.seed, &mut tally)?;
        }
        let log = serve::closed_loop(&mut conns, &inputs, tol, spec.serve_slice_s, t);
        if traced { &mut traced_loop } else { &mut plain }.absorb(log);
        let log = solve::solve(&s.model, &inputs.solve, tol, spec.solve_slice_s, t);
        if traced {
            &mut traced_solve
        } else {
            &mut solve_plain
        }
        .absorb(log);
        round += 1;
        round_s = round_start.elapsed().as_secs_f64();
    }
    let peak = peak_bytes();
    drop((conns, csrv, edited));
    let served = served.expect("set-up or the first write cycle starts the server");
    let (mean_width, shed_frac) = serve::engine_counters(&served.engine);
    tally.add(plain.tally);
    tally.add(solve_plain.tally);

    let serve_round = |i: usize| -> Vec<f64> { plain.slices.iter().map(|s| s[i]).collect() };
    let solve_round = |i: usize| -> Vec<f64> { solve_plain.slices.iter().map(|s| s[i]).collect() };
    values.median("req_per_s", &serve_round(0));
    values.lower_quartile("latency_p50_us", &serve_round(1));
    values.median("latency_p90_us", &serve_round(2));
    values.median("latency_p99_us", &serve_round(3));
    values.lower_quartile("iter_ms_p50", &solve_round(0));
    values.median("iter_ms_p90", &solve_round(1));
    values.median("iter_ms_p99", &solve_round(2));
    values.lower_quartile("build_s", &wlog.build_s);
    values.lower_quartile("rebuild_s", &wlog.rebuild_s);
    values.lower_quartile("load_s", &wlog.load_s);
    let model = &served.model;
    let dense_bytes = (model.rows() * model.cols() * 8) as f64;
    values.single(
        "stored_pct_dense",
        100.0 * model.stored_bytes() as f64 / dense_bytes,
    );
    values.single(
        "peak_heap_mb",
        peak.saturating_sub(bench_bytes) as f64 / 1e6,
    );

    let mut trace_lines = Vec::new();
    tally.add(traced_loop.tally);
    tally.add(traced_solve.tally);
    if args.trace {
        let engine = serve::engine_direct(&served.engine, &inputs, args.seed, spec.serve_slice_s);
        tally.add(engine.tally);
        let (encode_us, decode_us) = serve::codec(&inputs, args.seed, 2000, &mut tally);
        let kernels = solve::kernels(
            model,
            &inputs,
            spec.serve.plan_f32,
            Duration::from_secs_f64(spec.solve_slice_s / 8.0),
            &mut tally,
        );

        values.median("protocol.encode_us", &encode_us);
        values.median("protocol.decode_us", &decode_us);
        let rtt_p50 = values.median("server.rtt_us_p50", &trace.durations_us("client.rtt"));
        let engine_summary = Summary::of(&engine.all_us);
        values.sampled(
            "server.engine_us_p50",
            engine_summary.median,
            &engine.all_us,
        );
        values.sampled("server.engine_us_p99", engine_summary.p99, &engine.all_us);
        values.single("server.wire_us_p50", rtt_p50 - engine_summary.median);
        // The coalesced kernel serves a whole batch; at mean width w it
        // costs about right_k1 + (w - 1) * (right_k2 - right_k1).
        let kernel_at_width = kernels.right_k1_us
            + (mean_width - 1.0).max(0.0) * (kernels.right_k2_us - kernels.right_k1_us);
        values.single(
            "server.queue_wait_us_p50",
            median(&engine.right_us) - kernel_at_width,
        );
        values.single("server.mean_batch_width", mean_width);
        values.single("server.shed_frac", shed_frac);
        values.single(
            "server.allocs_per_req",
            plain.allocs as f64 / plain.tally.attempted.max(1) as f64,
        );
        values.single("sharded.right_k1_us", kernels.right_k1_us);
        values.single("sharded.right_k2_us", kernels.right_k2_us);
        values.single("sharded.left_k1_us", kernels.left_k1_us);
        values.single("sharded.sparse_d1pct_us", kernels.sparse_us);
        values.single("sharded.rows_1pct_us", kernels.rows_us);
        values.median("sharded.right_us_p50", &trace.durations_us("sharded.right"));
        values.median("sharded.left_us_p50", &trace.durations_us("sharded.left"));
        let shard_max = kernels.shard_right_us.iter().copied().fold(0.0, f64::max);
        values.single("sharded.fanout_us", kernels.right_k1_us - shard_max);
        values.median("sharded.prewarm_s", &wlog.prewarm_s);

        let nnz = corpus.nnz.max(1) as f64;
        values.single("plan.right_ns_per_nnz", kernels.right_k1_us * 1e3 / nnz);
        values.single("plan.left_ns_per_nnz", kernels.left_k1_us * 1e3 / nnz);
        values.sampled(
            "plan.shard_right_us_max",
            shard_max,
            &kernels.shard_right_us,
        );
        values.single(
            "plan.shard_right_us_sum",
            kernels.shard_right_us.iter().sum(),
        );
        // Computed, not measured: the plan is read once per product,
        // plus the input and output vectors.
        let bytes = (model.plan_heap_bytes() + 8 * (model.rows() + model.cols())) as f64;
        values.single("plan.bytes_per_right_computed", bytes);
        values.single(
            "plan.gbps_computed",
            bytes / (kernels.right_k1_us * 1e-6) / 1e9,
        );
        values.single("plan.heap_bytes", model.plan_heap_bytes() as f64);
        values.median("plan.compile_s", &wlog.compile_s);
        values.single("plan.compiles_on_load", wlog.compiles_on_load as f64);
        values.median("iteration.driver_us_p50", &trace.self_us("iteration"));
        values.single(
            "iteration.allocs_per_iter",
            solve_plain.allocs as f64 / solve_plain.iterations.max(1) as f64,
        );

        values.median("pipeline.plan_s", &wlog.pipeline_plan_s);
        values.median("pipeline.wall_s", &wlog.pipeline_wall_s);
        values.median("pipeline.parallel_eff", &wlog.parallel_eff);
        values.median("reorder.cpu_s", &wlog.reorder_cpu_s);
        values.median("repair.grammar_cpu_s", &wlog.grammar_cpu_s);
        values.median("encodings.encode_cpu_s", &wlog.encode_cpu_s);
        values.single("repair.rules", wlog.rules as f64);
        values.median("repair.grammar_builds", &wlog.grammar_builds);
        values.median("container.serialize_s", &wlog.serialize_s);
        let parse_s = values.median("container.parse_s", &wlog.parse_s);
        values.median("container.checksum_s", &wlog.checksum_s);
        values.single("container.decode_s", median(&wlog.from_bytes_s) - parse_s);
        values.single("container.bytes", wlog.container_bytes as f64);
        values.single("incremental.rebuilt_shards", wlog.rebuilt_shards as f64);
        values.single("incremental.spliced_shards", wlog.spliced_shards as f64);
        values.median("csrv.from_dense_s", &wlog.csrv_s);

        let overhead = |traced: f64, plain: f64| 100.0 * (traced / plain - 1.0);
        values.single(
            "trace.serve_overhead_pct",
            overhead(median(&traced_loop.rtt_us), median(&plain.rtt_us)),
        );
        values.single(
            "trace.solve_overhead_pct",
            overhead(median(&traced_solve.iter_ms), median(&solve_plain.iter_ms)),
        );
        trace_lines = trace.summary_lines();
    }
    tally.add(wlog.tally);
    values.single(
        "error_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let mut handle = served.handle;
    handle.stop();
    Ok(Outcome {
        values,
        corpus,
        tally,
        trace_lines,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (no samples) print as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The commit of the working directory when it is a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "none".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none".to_string(),
    }
}

/// FNV-1a over the sources the benchmark builds from (`crates/`,
/// `vendor/`, `perfbench/`), identifying the code when there is no git
/// metadata.
fn source_fnv64() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn print_results(args: &Args, outcome: &Outcome) -> Result<(), String> {
    let (defs, extra): (&[Def], &[Def]) = if args.trace {
        (PER_LAYER, &[])
    } else {
        (END_TO_END, RECORD_ONLY)
    };
    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let c = &outcome.corpus;
    let shared = format!(
        "\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"nproc\":{nproc},\"sha\":{},\
         \"source_fnv64\":{},\"rustc\":{},\"corpus\":{{\"dataset\":{},\"rows\":{},\"cols\":{},\
         \"nnz\":{},\"shards\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json_str(&host),
        json_str(&git_sha()),
        json_str(&source_fnv64()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(c.dataset),
        c.rows,
        c.cols,
        c.nnz,
        c.shards,
    );
    for line in &outcome.trace_lines {
        println!("{line}");
    }
    let mut metrics = Vec::new();
    let in_result = defs.iter().map(|d| (d, true));
    for (def, in_result) in in_result.chain(extra.iter().map(|d| (d, false))) {
        let (value, summary) = outcome
            .values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} has no value", def.name));
        }
        let s = summary.unwrap_or(Summary {
            n: 1,
            median: value,
            p10: value,
            p25: value,
            p90: value,
            p99: value,
        });
        let moves = if def.moves.is_empty() {
            String::new()
        } else {
            format!(",\"moves\":{}", json_str(def.moves))
        };
        println!(
            "{{\"record\":{},\"value\":{},\"unit\":{},\"samples\":{},\"median\":{},\"p10\":{},\
             \"p90\":{},{shared}{moves}}}",
            json_str(def.name),
            json_num(value),
            json_str(def.unit),
            s.n,
            json_num(s.median),
            json_num(s.p10),
            json_num(s.p90),
        );
        if in_result {
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(def.name),
                json_num(value),
                json_str(def.unit)
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = print_results(&args, &outcome) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if outcome.tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            outcome.tally.failed, outcome.tally.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
