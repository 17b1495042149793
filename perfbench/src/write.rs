//! The write path: CSRV conversion, full build to container bytes
//! (pipeline, plan compilation, serialization), load back to a
//! prewarmed model, and the one-shard incremental rebuild.

use std::time::Instant;

use gcm_core::plan_compiles;
use gcm_matrix::{CsrvMatrix, DenseMatrix};
use gcm_repair::grammar_builds;
use gcm_serve::{compress_incremental, container, ServerConfig, ShardTable, ShardedModel};

use crate::inputs::{Inputs, ProductCheck, Tally};
use crate::trace::Trace;
use crate::workload::Spec;

/// Samples and counts of every write-path layer, across all cycles.
#[derive(Debug, Default)]
pub struct WriteLog {
    pub csrv_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub rebuild_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub pipeline_plan_s: Vec<f64>,
    pub pipeline_wall_s: Vec<f64>,
    pub parallel_eff: Vec<f64>,
    pub reorder_cpu_s: Vec<f64>,
    pub grammar_cpu_s: Vec<f64>,
    pub encode_cpu_s: Vec<f64>,
    pub compile_s: Vec<f64>,
    pub serialize_s: Vec<f64>,
    pub parse_s: Vec<f64>,
    pub checksum_s: Vec<f64>,
    pub from_bytes_s: Vec<f64>,
    pub prewarm_s: Vec<f64>,
    pub grammar_builds: Vec<f64>,
    pub compiles_on_load: usize,
    pub rules: usize,
    pub container_bytes: usize,
    pub rebuilt_shards: usize,
    pub spliced_shards: usize,
    pub tally: Tally,
}

fn secs(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64()
}

/// Batch width every model is prewarmed for: the server's.
fn prewarm_width() -> usize {
    ServerConfig::default().batch_width
}

/// Converts `dense` to CSRV (the matrix layer's entry point).
pub fn csrv(
    dense: &DenseMatrix,
    log: &mut WriteLog,
    trace: &mut Trace,
) -> Result<CsrvMatrix, String> {
    let t0 = Instant::now();
    let csrv = CsrvMatrix::from_dense(dense).map_err(|e| format!("csrv: {e}"))?;
    let t1 = Instant::now();
    trace.record("csrv.from_dense", 0, None, t0, t1);
    log.csrv_s.push(secs(t0, t1));
    Ok(csrv)
}

/// Full build to container bytes: pipeline build, plan compilation
/// (plans are persisted), serialization.
fn build(spec: &Spec, csrv: &CsrvMatrix, log: &mut WriteLog, trace: &mut Trace) -> Vec<u8> {
    let builds_before = grammar_builds();
    let t0 = Instant::now();
    let artifacts = gcm_pipeline::global().build(csrv, &spec.config);
    let t1 = Instant::now();
    let stats = artifacts.stats.clone();
    let model = ShardedModel::from_artifacts(artifacts);
    model.prewarm_with(prewarm_width(), &spec.serve);
    let t2 = Instant::now();
    let bytes = container::to_bytes_with_plans(&model);
    let t3 = Instant::now();
    let root = trace.record("write.build", 0, None, t0, t3);
    trace.record("pipeline.build", 0, root, t0, t1);
    trace.record("plan.compile", 0, root, t1, t2);
    trace.record("container.serialize", 0, root, t2, t3);

    let (reorder, grammar, encode) = stats.stage_cpu_totals();
    let stage_cpu = (reorder + grammar + encode).as_secs_f64();
    let workers = rayon::current_num_threads().max(1) as f64;
    log.build_s.push(secs(t0, t3));
    log.pipeline_plan_s.push(stats.plan_time.as_secs_f64());
    log.pipeline_wall_s.push(stats.wall_time.as_secs_f64());
    log.parallel_eff
        .push(stage_cpu / (stats.wall_time.as_secs_f64() * workers));
    log.reorder_cpu_s.push(reorder.as_secs_f64());
    log.grammar_cpu_s.push(grammar.as_secs_f64());
    log.encode_cpu_s.push(encode.as_secs_f64());
    log.compile_s.push(secs(t1, t2));
    log.serialize_s.push(secs(t2, t3));
    log.grammar_builds
        .push((grammar_builds() - builds_before) as f64);
    log.rules = stats.shards.iter().map(|s| s.grammar_rules).sum();
    log.container_bytes = bytes.len();
    bytes
}

/// Container bytes to a prewarmed model. The traced run also times the
/// parse (with checksum) and the checksum alone, as extra calls.
fn load(
    spec: &Spec,
    bytes: &[u8],
    log: &mut WriteLog,
    trace: &mut Trace,
) -> Result<ShardedModel, String> {
    if trace.enabled() {
        let t0 = Instant::now();
        ShardTable::parse(bytes).map_err(|e| format!("parse: {e}"))?;
        let t1 = Instant::now();
        std::hint::black_box(container::fnv1a64(std::hint::black_box(bytes)));
        let t2 = Instant::now();
        trace.record("container.parse", 0, None, t0, t1);
        trace.record("container.checksum", 0, None, t1, t2);
        log.parse_s.push(secs(t0, t1));
        log.checksum_s.push(secs(t1, t2));
    }
    let compiles_before = plan_compiles();
    let t0 = Instant::now();
    let model = container::from_bytes(bytes).map_err(|e| format!("load: {e}"))?;
    let t1 = Instant::now();
    model.prewarm_with(prewarm_width(), &spec.serve);
    let t2 = Instant::now();
    let root = trace.record("write.load", 0, None, t0, t2);
    trace.record("container.from_bytes", 0, root, t0, t1);
    trace.record("sharded.prewarm", 0, root, t1, t2);
    log.compiles_on_load += plan_compiles() - compiles_before;
    log.load_s.push(secs(t0, t2));
    log.from_bytes_s.push(secs(t0, t1));
    log.prewarm_s.push(secs(t1, t2));
    Ok(model)
}

/// Checks a model's right and left products against a dense oracle.
fn check_products(
    model: &ShardedModel,
    check: &ProductCheck,
    tol: f64,
    tally: &mut Tally,
    what: &str,
) {
    let mut y = vec![0.0; model.rows()];
    let right = model.right_multiply_panel(1, &check.x, &mut y).is_ok();
    tally.check(
        right && check.right.matches(&y, tol),
        &format!("{what}: right product"),
    );
    let mut x = vec![0.0; model.cols()];
    let left = model.left_multiply_panel(1, &check.y, &mut x).is_ok();
    tally.check(
        left && check.left.matches(&x, tol),
        &format!("{what}: left product"),
    );
}

/// Full build → load → check. Returns the loaded model, its container
/// bytes, and the seconds from the build's start to the end of the
/// first load. The same bytes are loaded [`LOADS_PER_BUILD`] times, for
/// more samples of the short load.
fn build_and_load(
    spec: &Spec,
    inputs: &Inputs,
    csrv: &CsrvMatrix,
    log: &mut WriteLog,
    trace: &mut Trace,
) -> Result<(ShardedModel, Vec<u8>, f64), String> {
    let t0 = Instant::now();
    let bytes = build(spec, csrv, log, trace);
    let mut model = load(spec, &bytes, log, trace)?;
    let build_and_load_s = t0.elapsed().as_secs_f64();
    for _ in 1..LOADS_PER_BUILD {
        model = load(spec, &bytes, log, trace)?;
    }
    check_products(
        &model,
        &inputs.original,
        spec.tolerance(),
        &mut log.tally,
        "loaded model",
    );
    Ok((model, bytes, build_and_load_s))
}

/// Loads of each built container.
const LOADS_PER_BUILD: usize = 3;

/// One write cycle: [`build_and_load`], then edit one shard →
/// incremental rebuild → load → check. Returns the loaded model of the
/// unedited matrix and the seconds from the build's start to the end of
/// its first load.
pub fn cycle(
    spec: &Spec,
    inputs: &Inputs,
    csrv: &CsrvMatrix,
    edited: &CsrvMatrix,
    log: &mut WriteLog,
    trace: &mut Trace,
) -> Result<(ShardedModel, f64), String> {
    let tol = spec.tolerance();
    let (model, bytes, build_and_load_s) = build_and_load(spec, inputs, csrv, log, trace)?;
    let t1 = Instant::now();
    let (rebuilt, report) =
        compress_incremental(edited, &spec.config, &bytes).map_err(|e| format!("rebuild: {e}"))?;
    let t2 = Instant::now();
    trace.record("incremental.compress", 0, None, t1, t2);
    log.rebuild_s.push(secs(t1, t2));
    log.rebuilt_shards = report.rebuilt();
    log.spliced_shards = report.spliced();
    log.tally.check(
        report.rebuilt() == 1 && report.spliced() + 1 == spec.config.shards,
        "the incremental rebuild rebuilds exactly the edited shard",
    );
    let edited_model = load(spec, &rebuilt, log, trace)?;
    check_products(
        &edited_model,
        &inputs.edited_check,
        tol,
        &mut log.tally,
        "rebuilt model",
    );
    Ok((model, build_and_load_s))
}
