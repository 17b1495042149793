//! `gcm` — the model-store command line: build, persist, inspect, and
//! serve sharded grammar-compressed matrices.
//!
//! ```text
//! gcm gen <dataset> <rows> <out.txt> [--seed S]
//! gcm compress <in.txt> <out.gcms> [--backend B] [--encoding E]
//!              [--grammar repair|mr|auto] [--shards N]
//!              [--reorder ALGO] [--reorder-scope global|shard]
//!              [--emit-plans] [--plan-f32] [--base OLD.gcms]
//! gcm inspect <model.gcms>
//! gcm decompress <model> <out.txt>
//! gcm multiply <model.gcms> [--left] [--batch K] [--vector FILE] [--out FILE]
//!              [--plan] [--plan-f32] [--repeat N] [--rows A..B] [--sparse-x FILE]
//! gcm solve <model.gcms> --method power|pagerank|cg [--iters N] [--tol T]
//!           [--damping D] [--vector FILE] [--out FILE] [--plan] [--plan-f32]
//! gcm serve <store-dir> [--port P] [--host H] [--batch-width K]
//!           [--deadline-us D] [--max-inflight N] [--plan] [--plan-f32]
//! gcm stats <host:port> [--model NAME]
//! gcm selftest [--rows R] [--cols C] [--shards N]
//! ```
//!
//! Backends: `csrv`, `compressed` (default). Row shards (`--shards`) are
//! the only row partition.
//! Encodings: `re_32`, `re_iv`, `re_ans` (default), `re_fse`, or `auto`
//! (per shard, smallest measured).
//! Reorder algorithms: `pathcover`, `pathcover+`, `mwm`, `lkh`;
//! `--reorder-scope shard` gives every shard its own permutation (§5.3).
//!
//! `compress` runs the staged build pipeline (shards reorder, RePair,
//! and encode concurrently on the persistent pool) and reports
//! per-stage timings plus a per-shard table; with `--emit-plans` it
//! also compiles the branchless kernel plans at build time and
//! persists them in the container's plan section, so later loads cast
//! it instead of recompiling (add `--plan-f32` for single-precision
//! plans). `--grammar` picks the grammar stage per shard — classic
//! `repair` (the default), `mr` (MR-RePair), or `auto` (build both,
//! keep the smaller measured encoding). Every compressed shard records
//! its stage plus a fingerprint of its build plan, whatever the flag.
//! Under `auto`
//! the shard table's `shared` column counts the rules built once for
//! both grammars (the rounds before MR-RePair first extends a rule).
//! `--base OLD.gcms` turns the build incremental: shards whose plan —
//! input rows, value dictionary, encoding, grammar and reorder —
//! fingerprint-matches the base are **spliced** byte-for-byte from the
//! old container (persisted plans included, never re-decoded) and only
//! the other shards rebuild, so the output equals a fresh build with the
//! same flags; provenance goes to stdout and a `<out>.gcms.rebuild`
//! sidecar, never into the container itself. Every model is written as
//! a version-8 container, which stores the shards' one value dictionary
//! once and checksums its body in 128 KiB chunks with a four-lane word
//! sum. Versions 1 to 7 still load; a version-7 base splices like a
//! version-8 one, and a base older than version 7 is rebuilt in full.
//! `inspect` prints the same per-shard breakdown from a container
//! (grammar stage included) and reports
//! the value dictionary and how many shards share it, whether plans
//! are persisted, and any rebuild-provenance sidecar. `decompress`
//! writes the dense text matrix of any container or bare `GCMMAT1` /
//! `GCMMAT2` payload — the exact input `compress` read.
//! `multiply` defaults to the all-ones input; with `--batch K` the
//! input is a `cols × K` (or `rows × K` for `--left`) dense text panel
//! read from `--vector`, or all-ones when omitted; `--rows A..B`
//! computes only that half-open row range of the right product via the
//! plan's CSR row pointers, touching O(rows requested) descriptors;
//! `--sparse-x FILE` reads `index value` non-zero pairs instead of a
//! dense vector and serves them through the plans'
//! activity-propagation sparse kernel. `solve` runs the zero-allocation
//! iterative drivers of `gcm_core::iteration` against a loaded
//! container: `--method power` (dominant-eigenvector iteration, Eq. 4),
//! `--method pagerank` (damped random surfer with teleport), or
//! `--method cg` (conjugate gradient on the normal equations, so
//! rectangular systems solve in the least-squares sense). `selftest` drives the full pipeline —
//! generate, compress to a temp container for every backend (global
//! *and* per-shard reorders included), reload, multiply sharded — and
//! exits non-zero unless every product matches the dense oracle to
//! 1e-9; CI runs it so the end-to-end path gates every change.
//!
//! `serve` runs the batched TCP front-end over a [`gcm_serve::Registry`]
//! rooted at a model-store directory: every stored model is loaded and
//! prewarmed at startup, concurrent single-vector requests coalesce
//! into k-wide panel kernel calls, and admission control fast-fails
//! past `--max-inflight`. A request on an idle lane runs at once;
//! `--deadline-us` bounds only the fill wait after a lane has seen
//! concurrent arrivals. `stats` fetches the live per-model
//! request/batch-width/latency/queue-wait counters from a running
//! server. The matching load generator lives in `gcm-bench` (`loadgen`).

use std::fs;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gcm_core::Encoding;
use gcm_datagen::Dataset;
use gcm_matrix::io as mio;
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec};
use gcm_pipeline::{BuildConfig, BuildStats, EncodingChoice};
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::container::{self, write_atomic};
use gcm_serve::protocol::Client;
use gcm_serve::{
    compress_incremental, Backend, Engine, GrammarChoice, Model, ModelStore, Registry, ReorderMode,
    ServeOptions, Server, ServerConfig, ShardMeta, ShardTable, ShardedModel,
};

/// `println!` that tolerates a closed stdout (e.g. piped through
/// `head`) instead of panicking on the broken pipe.
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, $($arg)*);
    }};
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         gcm gen <dataset> <rows> <out.txt> [--seed S]\n  \
         gcm compress <in.txt> <out.gcms> [--backend csrv|compressed]\n               \
         [--encoding {}|auto] [--grammar repair|mr|auto] [--shards N]\n               \
         [--reorder pathcover|pathcover+|mwm|lkh] [--reorder-scope global|shard]\n               \
         [--emit-plans [--plan-f32]] [--base OLD.gcms]\n  \
         gcm inspect <model.gcms>\n  \
         gcm decompress <model> <out.txt>\n  \
         gcm multiply <model.gcms> [--left] [--batch K] [--vector FILE] [--out FILE]\n               \
         [--plan] [--plan-f32] [--repeat N] [--rows A..B] [--sparse-x FILE]\n  \
         gcm solve <model.gcms> --method power|pagerank|cg [--iters N] [--tol T]\n               \
         [--damping D] [--vector FILE] [--out FILE] [--plan] [--plan-f32]\n  \
         gcm serve <store-dir> [--port P] [--host H] [--batch-width K]\n               \
         [--deadline-us D] [--max-inflight N] [--plan] [--plan-f32]\n  \
         gcm stats <host:port> [--model NAME]\n  \
         gcm selftest [--rows R] [--cols C] [--shards N]\n\n\
         datasets: susy higgs airline78 covtype census optical mnist2m\n\
         serve: a request on an idle lane runs at once; --deadline-us (default 200)\n\
         bounds only the fill wait after a lane has seen concurrent arrivals",
        encoding_names()
    );
    ExitCode::FAILURE
}

/// Minimal flag parser: positional args plus `--flag value` / `--left`.
/// Flags outside the command's `known` list are hard errors — a typo'd
/// flag must never silently fall back to a default.
#[derive(Debug)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!(
                        "unknown flag --{name} (this command accepts: {})",
                        if known.is_empty() {
                            "no flags".to_string()
                        } else {
                            known
                                .iter()
                                .map(|f| format!("--{f}"))
                                .collect::<Vec<_>>()
                                .join(" ")
                        }
                    ));
                }
                let takes_value = !matches!(name, "left" | "plan" | "plan-f32" | "emit-plans");
                let value = if takes_value {
                    Some(
                        it.next()
                            .ok_or_else(|| format!("--{name} needs a value"))?
                            .clone(),
                    )
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn parsed_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
        }
    }

    /// A count flag with a lower bound: out-of-range values are
    /// rejected with an error, never silently clamped to the bound.
    fn bounded_flag(&self, name: &str, default: usize, min: usize) -> Result<usize, String> {
        let v: usize = self.parsed_flag(name, default)?;
        if v < min {
            return Err(format!("--{name} must be at least {min} (got {v})"));
        }
        Ok(v)
    }
}

fn parse_dataset(name: &str) -> Option<Dataset> {
    match name.to_ascii_lowercase().as_str() {
        "susy" => Some(Dataset::Susy),
        "higgs" => Some(Dataset::Higgs),
        "airline78" => Some(Dataset::Airline78),
        "covtype" => Some(Dataset::Covtype),
        "census" => Some(Dataset::Census),
        "optical" => Some(Dataset::Optical),
        "mnist2m" => Some(Dataset::Mnist2m),
        _ => None,
    }
}

/// Derived from [`Encoding::ALL`] via [`Encoding::parse`], so a new
/// encoding variant is accepted here without a CLI sweep.
fn parse_encoding(name: &str) -> Option<Encoding> {
    Encoding::parse(name)
}

/// `re_32|re_iv|re_ans|re_fse` rendered from the enum for usage strings.
fn encoding_names() -> String {
    Encoding::ALL
        .iter()
        .map(|e| e.name())
        .collect::<Vec<_>>()
        .join("|")
}

/// `repair|mr|auto` — `mr-repair` is accepted as a long form of `mr`
/// so the flag round-trips the names `inspect` prints.
fn parse_grammar(name: &str) -> Option<GrammarChoice> {
    match name.to_ascii_lowercase().as_str() {
        "repair" => Some(GrammarChoice::RePair),
        "mr" | "mr-repair" => Some(GrammarChoice::MrRePair),
        "auto" => Some(GrammarChoice::Auto),
        _ => None,
    }
}

fn parse_reorder(name: &str) -> Option<ReorderAlgorithm> {
    match name.to_ascii_lowercase().as_str() {
        "pathcover" => Some(ReorderAlgorithm::PathCover),
        "pathcover+" => Some(ReorderAlgorithm::PathCoverPlus),
        "mwm" => Some(ReorderAlgorithm::Mwm),
        "lkh" => Some(ReorderAlgorithm::Lkh),
        _ => None,
    }
}

/// Reads a dense matrix: binary (`GCMDNSE1`) or text, by sniffing magic.
fn read_dense(path: &str) -> Result<DenseMatrix, String> {
    let bytes = fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    if bytes.starts_with(b"GCMDNSE1") {
        mio::read_dense_binary(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        mio::read_dense_text(BufReader::new(&bytes[..])).map_err(|e| format!("{path}: {e}"))
    }
}

fn build_config(args: &Args) -> Result<BuildConfig, String> {
    let mut config = BuildConfig::default();
    if let Some(b) = args.flag("backend") {
        config.backend = Backend::parse(b).ok_or_else(|| format!("unknown backend {b}"))?;
    }
    if let Some(e) = args.flag("encoding") {
        config.encoding = if e == "auto" {
            EncodingChoice::Auto
        } else {
            EncodingChoice::Fixed(parse_encoding(e).ok_or_else(|| format!("unknown encoding {e}"))?)
        };
    }
    if let Some(g) = args.flag("grammar") {
        config.grammar =
            Some(parse_grammar(g).ok_or_else(|| format!("unknown grammar stage {g}"))?);
    }
    config.shards = args.bounded_flag("shards", 1, 1)?;
    if let Some(r) = args.flag("reorder") {
        let algo = parse_reorder(r).ok_or_else(|| format!("unknown reorder {r}"))?;
        config.reorder = Some(match args.flag("reorder-scope") {
            None | Some("global") => ReorderMode::Global(algo),
            Some("shard") => ReorderMode::PerShard(algo),
            Some(other) => return Err(format!("unknown reorder scope {other}")),
        });
    } else if args.flag("reorder-scope").is_some() {
        return Err("--reorder-scope needs --reorder".to_string());
    }
    Ok(config)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let [ds, rows, out] = &args.positional[..] else {
        return Err("gen needs <dataset> <rows> <out.txt>".into());
    };
    let ds = parse_dataset(ds).ok_or_else(|| format!("unknown dataset {ds}"))?;
    let rows: usize = rows.parse().map_err(|_| "bad row count".to_string())?;
    let seed: u64 = args.parsed_flag("seed", 42u64)?;
    let dense = ds.generate(rows, seed);
    let file = fs::File::create(out).map_err(|e| e.to_string())?;
    mio::write_dense_text(&dense, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    say!(
        "wrote {out}: {}x{} ({} non-zeroes)",
        dense.rows(),
        dense.cols(),
        dense.nnz()
    );
    Ok(())
}

fn secs(d: std::time::Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Prints the staged build's per-stage timings and per-shard table.
fn report_build_stats(stats: &BuildStats) {
    let (reorder, grammar, encode) = stats.stage_cpu_totals();
    say!(
        "  stages     : plan {} | reorder {} | grammar {} | encode {} (cpu) | wall {}",
        secs(stats.plan_time),
        secs(reorder),
        secs(grammar),
        secs(encode),
        secs(stats.wall_time),
    );
    say!("  shard table:");
    say!("    shard     rows      nnz    rules   shared    bytes  encoding  reorder");
    for s in &stats.shards {
        say!(
            "    {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}  {:<8}  {}",
            s.index,
            s.rows,
            s.nnz,
            s.grammar_rules,
            s.shared_rules,
            s.encoded_bytes,
            s.encoding.map_or("-", |e| e.name()),
            s.reorder.map_or("none", |a| a.name()),
        );
    }
}

/// `compress --base`: fingerprint-splice against an existing container.
/// Provenance (which shards were spliced vs rebuilt, or why the whole
/// build fell back) is reported on stdout and mirrored to a
/// `<out>.rebuild` sidecar for `inspect` — never into the container,
/// whose bytes must stay identical to a from-scratch build.
fn compress_with_base(
    csrv: &CsrvMatrix,
    config: &gcm_pipeline::BuildConfig,
    base_path: &str,
    output: &str,
) -> Result<(), String> {
    let base = fs::read(base_path).map_err(|e| format!("read {base_path}: {e}"))?;
    let t_build = Instant::now();
    let (bytes, report) =
        compress_incremental(csrv, config, &base).map_err(|e| format!("{base_path}: {e}"))?;
    let build_time = t_build.elapsed();
    write_atomic(Path::new(output), &bytes).map_err(|e| e.to_string())?;
    say!(
        "{output}: {} bytes container, {} of {} shard(s) spliced from {base_path}, {} rebuilt ({})",
        bytes.len(),
        report.spliced(),
        report.shards.len(),
        report.rebuilt(),
        secs(build_time),
    );
    let mut sidecar = format!("# rebuild provenance: {output} from base {base_path}\n");
    if let Some(reason) = &report.full_reason {
        say!("  full rebuild: {reason}");
        sidecar.push_str(&format!("full-rebuild-reason: {reason}\n"));
    }
    for (i, p) in report.shards.iter().enumerate() {
        sidecar.push_str(&format!("shard {i}: {}\n", p.name()));
    }
    let sidecar_path = format!("{output}.rebuild");
    fs::write(&sidecar_path, sidecar).map_err(|e| format!("write {sidecar_path}: {e}"))?;
    say!("  provenance : {sidecar_path}");
    Ok(())
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let [input, output] = &args.positional[..] else {
        return Err("compress needs <in.txt> <out.gcms>".into());
    };
    let config = build_config(args)?;
    let emit_plans = args.has("emit-plans");
    if args.has("plan-f32") && !emit_plans {
        return Err("--plan-f32 needs --emit-plans".to_string());
    }
    let dense = read_dense(input)?;
    let csrv = CsrvMatrix::from_dense(&dense).map_err(|e| e.to_string())?;
    if let Some(base_path) = args.flag("base") {
        if emit_plans {
            return Err(
                "--base inherits the plan policy from the base container; drop --emit-plans"
                    .to_string(),
            );
        }
        return compress_with_base(&csrv, &config, base_path, output);
    }
    let artifacts = gcm_pipeline::global().build(&csrv, &config);
    let stats = artifacts.stats.clone();
    let model = ShardedModel::from_artifacts(artifacts);
    let plan_time = if emit_plans {
        let serve = if args.has("plan-f32") {
            ServeOptions::planned_f32()
        } else {
            ServeOptions::planned()
        };
        let t_plan = Instant::now();
        model.prewarm_with(1, &serve);
        Some(t_plan.elapsed())
    } else {
        None
    };
    let t_save = Instant::now();
    if emit_plans {
        model
            .save_with_plans(Path::new(output))
            .map_err(|e| e.to_string())?;
    } else {
        model.save(Path::new(output)).map_err(|e| e.to_string())?;
    }
    let save_time = t_save.elapsed();
    let container_len = fs::metadata(output)
        .map(|m| m.len())
        .map_err(|e| format!("stat {output}: {e}"))?;
    say!(
        "{input}: {} bytes dense -> {} bytes container ({} x {}, {} backend, {} shard(s), {:.2}%)",
        dense.uncompressed_bytes(),
        container_len,
        model.rows(),
        model.cols(),
        model.backend().name(),
        model.num_shards(),
        100.0 * container_len as f64 / dense.uncompressed_bytes().max(1) as f64,
    );
    // A fresh build supersedes any provenance left by an earlier
    // incremental rebuild of the same output path.
    let _ = fs::remove_file(format!("{output}.rebuild"));
    report_build_stats(&stats);
    if config.backend == Backend::Compressed {
        say!(
            "  grammar    : {} (per shard: {})",
            config.grammar.unwrap_or(GrammarChoice::RePair).name(),
            (0..model.num_shards())
                .map(|i| model.shard_meta(i).grammar.map_or("-", |g| g.name()))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    if let Some(plan_time) = plan_time {
        if model.is_planned() {
            say!(
                "  plans      : {} compiled ({}) and persisted, {} heap bytes — loads cast, not compile",
                if model.is_planned_f32() { "f32" } else { "f64" },
                secs(plan_time),
                model.plan_heap_bytes(),
            );
        } else {
            say!(
                "  plans      : backend is not plannable; container written without a plan section"
            );
        }
    }
    say!("  save       : {}", secs(save_time));
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let [input] = &args.positional[..] else {
        return Err("inspect needs <model.gcms>".into());
    };
    let bytes = fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let model = ShardedModel::from_bytes(&bytes).map_err(|e| e.to_string())?;
    say!("{input}:");
    say!("  container  : {} bytes", bytes.len());
    say!("  dimensions : {} x {}", model.rows(), model.cols());
    say!("  backend    : {}", model.backend().name());
    if let Some(enc) = model.encoding() {
        say!("  encoding   : {}", enc.name());
    }
    say!(
        "  reorder    : {}",
        if model.col_order().is_some() {
            "uniform column permutation recorded"
        } else if (0..model.num_shards()).any(|i| model.shard_meta(i).col_order.is_some()) {
            "per-shard column permutations recorded"
        } else {
            "none"
        }
    );
    say!("  shards     : {}", model.num_shards());
    {
        // A v6 or later load shares one `Arc` across every shard; older
        // multi-shard containers embed, and load, one copy per shard.
        let n = model.num_shards();
        let dict = model.shard_model(0).dictionary();
        let mut copies: Vec<&Arc<Vec<f64>>> = Vec::new();
        for i in 0..n {
            let d = model.shard_model(i).dictionary();
            if !copies.iter().any(|c| Arc::ptr_eq(c, d)) {
                copies.push(d);
            }
        }
        let plural = if n == 1 { "" } else { "s" };
        say!(
            "  dictionary : {} values ({} bytes, {})",
            dict.len(),
            dict.len() * 8,
            if copies.len() == 1 {
                format!("shared by {n} shard{plural}")
            } else {
                format!("{} copies across {n} shards", copies.len())
            },
        );
    }
    let payload_bytes: Vec<usize> = match ShardTable::parse(&bytes) {
        Ok(table) => {
            say!("  version    : {}", table.version);
            let chunks = table.checksum_chunks;
            say!(
                "  checksum   : {chunks} {} chunk{} ({} bytes)",
                container::checksum_name(table.version),
                if chunks == 1 { "" } else { "s" },
                8 * chunks,
            );
            let plan_bytes = table.plan_bytes();
            if plan_bytes > 0 {
                say!(
                    "  plans      : persisted ({plan_bytes} bytes, {}) — cast on load, no compile",
                    if table.plan_f32.iter().any(|&f| f) {
                        "f32"
                    } else {
                        "f64"
                    },
                );
            } else {
                say!("  plans      : none persisted — compiled at prewarm under --plan");
            }
            table
                .shard_ranges
                .iter()
                .map(std::ops::Range::len)
                .collect()
        }
        // Bare GCMMAT1/GCMMAT2 compatibility payloads have no table.
        Err(_) => vec![bytes.len(); model.num_shards()],
    };
    say!("    shard     rows      nnz    rules    bytes  encoding  grammar    reorder");
    for (i, payload) in payload_bytes.iter().enumerate() {
        let shard = model.shard_model(i);
        say!(
            "    {:>5} {:>8} {:>8} {:>8} {:>8}  {:<8}  {:<9}  {}",
            i,
            shard.rows(),
            shard.nnz(),
            shard.grammar_rules(),
            payload,
            shard.encoding().map_or("-", |e| e.name()),
            model.shard_meta(i).grammar.map_or("-", |g| g.name()),
            match (model.shard_meta(i).reorder, &model.shard_meta(i).col_order) {
                (Some(algo), _) => algo.name(),
                (None, Some(_)) => "recorded",
                (None, None) => "none",
            },
        );
    }
    // Rebuild provenance lives in the sidecar `gcm compress --base`
    // writes next to the container, never in the container itself.
    match fs::read_to_string(format!("{input}.rebuild")) {
        Ok(text) => {
            say!("  rebuild    : incremental (sidecar {input}.rebuild)");
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                say!("    {line}");
            }
        }
        Err(_) => say!("  rebuild    : fresh build (no provenance sidecar)"),
    }
    say!(
        "  stored     : {} bytes (representation)",
        model.stored_bytes()
    );
    say!(
        "  vs dense   : {:.2}%",
        100.0 * model.stored_bytes() as f64 / (model.rows() * model.cols() * 8).max(1) as f64
    );
    Ok(())
}

/// Writes the dense text matrix of a container or bare payload: every
/// shard decoded and its rows copied into place.
fn cmd_decompress(args: &Args) -> Result<(), String> {
    let [input, output] = &args.positional[..] else {
        return Err("decompress needs <model> <out.txt>".into());
    };
    let model = ShardedModel::load(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;
    let mut dense = DenseMatrix::zeros(model.rows(), model.cols());
    let mut offset = 0;
    for i in 0..model.num_shards() {
        let shard = match model.shard_model(i) {
            Model::Csrv(m) => m.to_dense(),
            Model::Compressed(m) => m.to_csrv().to_dense(),
        };
        let len = shard.as_slice().len();
        dense.as_mut_slice()[offset..offset + len].copy_from_slice(shard.as_slice());
        offset += len;
    }
    let file = fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    mio::write_dense_text(&dense, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    say!("wrote {output}: {}x{}", dense.rows(), dense.cols());
    Ok(())
}

fn read_panel(path: &str, rows: usize, k: usize) -> Result<Vec<f64>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v: Result<Vec<f64>, _> = text.split_whitespace().map(str::parse).collect();
    let v = v.map_err(|e| format!("{path}: bad number: {e}"))?;
    if v.len() != rows * k {
        return Err(format!(
            "{path}: expected {rows} x {k} = {} numbers, got {}",
            rows * k,
            v.len()
        ));
    }
    Ok(v)
}

/// Reads a sparse vector as whitespace-separated `index value` pairs
/// (strictly increasing in-range indices; validated again by the
/// kernels, but rejected here with file context for a better message).
fn read_sparse_x(path: &str, cols: usize) -> Result<Vec<(u32, f64)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if !tokens.len().is_multiple_of(2) {
        return Err(format!(
            "{path}: expected index/value pairs, got {} tokens",
            tokens.len()
        ));
    }
    let mut pairs = Vec::with_capacity(tokens.len() / 2);
    for chunk in tokens.chunks_exact(2) {
        let idx: u32 = chunk[0]
            .parse()
            .map_err(|_| format!("{path}: bad index {:?}", chunk[0]))?;
        let val: f64 = chunk[1]
            .parse()
            .map_err(|_| format!("{path}: bad value {:?}", chunk[1]))?;
        pairs.push((idx, val));
    }
    gcm_core::validate_sparse_x(cols, &pairs).map_err(|e| format!("{path}: {e}"))?;
    Ok(pairs)
}

fn write_panel(path: Option<&str>, rows: usize, k: usize, data: &[f64]) -> Result<(), String> {
    use std::io::Write;
    let mut out: Box<dyn Write> = match path {
        Some(p) => Box::new(std::io::BufWriter::new(
            fs::File::create(p).map_err(|e| format!("create {p}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
    };
    let mut line = String::new();
    for r in 0..rows {
        line.clear();
        for j in 0..k {
            if j > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{}", data[r * k + j]));
        }
        if writeln!(out, "{line}").is_err() {
            return Ok(()); // stdout closed (e.g. piped through head)
        }
    }
    let _ = out.flush();
    Ok(())
}

fn cmd_multiply(args: &Args) -> Result<(), String> {
    let [input] = &args.positional[..] else {
        return Err("multiply needs <model.gcms>".into());
    };
    let left = args.has("left");
    let k: usize = args.bounded_flag("batch", 1, 1)?;
    let repeat: usize = args.bounded_flag("repeat", 1, 1)?;
    let serve = if args.has("plan-f32") {
        ServeOptions::planned_f32()
    } else if args.has("plan") {
        ServeOptions::planned()
    } else {
        ServeOptions::default()
    };
    let t_load = Instant::now();
    let model = ShardedModel::load(Path::new(input)).map_err(|e| e.to_string())?;
    let load_time = t_load.elapsed();
    // All setup — container load, buffer warming, and (under --plan /
    // a persisted plan section) kernel-plan readiness — happens before
    // the timed loop and is reported separately, so iteration 0 never
    // folds cold-start costs into the measured multiply.
    let t_prewarm = Instant::now();
    model.prewarm_with(k, &serve);
    let prewarm_time = t_prewarm.elapsed();
    eprintln!(
        "setup (excluded from timed loop): load {} | prewarm {}{}",
        secs(load_time),
        secs(prewarm_time),
        if model.is_planned() {
            format!(
                " | planned ({}, {} plan heap bytes on top of {} stored)",
                if model.is_planned_f32() { "f32" } else { "f64" },
                model.plan_heap_bytes(),
                model.stored_bytes(),
            )
        } else {
            String::new()
        },
    );
    let rows_subset = match args.flag("rows") {
        None => None,
        Some(spec) => {
            if left {
                return Err("--rows applies to the right product only (drop --left)".to_string());
            }
            let (a, b) = spec
                .split_once("..")
                .ok_or_else(|| format!("bad --rows {spec:?} (expected A..B)"))?;
            let a: usize = a
                .parse()
                .map_err(|_| format!("bad --rows start {a:?} in {spec:?}"))?;
            let b: usize = b
                .parse()
                .map_err(|_| format!("bad --rows end {b:?} in {spec:?}"))?;
            if a > b || b > model.rows() {
                return Err(format!(
                    "--rows {spec} out of range for a {}-row model",
                    model.rows()
                ));
            }
            Some(a..b)
        }
    };
    let sparse_x = match args.flag("sparse-x") {
        None => None,
        Some(path) => {
            if left || rows_subset.is_some() || k != 1 || args.flag("vector").is_some() {
                return Err(
                    "--sparse-x is a single right product from non-zero pairs (drop --left, --rows, --batch, --vector)"
                        .to_string(),
                );
            }
            Some(read_sparse_x(path, model.cols())?)
        }
    };
    let (in_len, out_len) = if left {
        (model.rows(), model.cols())
    } else {
        (
            model.cols(),
            rows_subset.as_ref().map_or(model.rows(), |r| r.len()),
        )
    };
    let x = match args.flag("vector") {
        Some(p) => read_panel(p, in_len, k)?,
        None => vec![1.0; in_len * k],
    };
    let mut y = vec![0.0; out_len * k];
    let mut total = 0.0f64;
    for it in 0..repeat {
        let t = Instant::now();
        if let Some(x_nnz) = &sparse_x {
            model
                .right_multiply_sparse(x_nnz, &mut y)
                .map_err(|e| e.to_string())?;
        } else if let Some(rows) = &rows_subset {
            model
                .right_multiply_rows(rows.clone(), k, &x, &mut y)
                .map_err(|e| e.to_string())?;
        } else if left {
            model
                .left_multiply_panel(k, &x, &mut y)
                .map_err(|e| e.to_string())?;
        } else {
            model
                .right_multiply_panel(k, &x, &mut y)
                .map_err(|e| e.to_string())?;
        }
        let dt = t.elapsed().as_secs_f64();
        total += dt;
        if repeat > 1 {
            eprintln!("iter {it}: {:.3} ms", dt * 1e3);
        }
    }
    if repeat > 1 {
        eprintln!(
            "mean over {repeat} iterations: {:.3} ms",
            total * 1e3 / repeat as f64
        );
    }
    write_panel(args.flag("out"), out_len, k, &y)
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    let [input] = &args.positional[..] else {
        return Err("solve needs <model.gcms>".into());
    };
    let method = args
        .flag("method")
        .ok_or_else(|| "solve needs --method power|pagerank|cg".to_string())?
        .to_string();
    let iters: usize = args.bounded_flag("iters", 100, 1)?;
    let tol: f64 = args.parsed_flag("tol", 1e-9f64)?;
    let damping: f64 = args.parsed_flag("damping", 0.85f64)?;
    let serve = if args.has("plan-f32") {
        ServeOptions::planned_f32()
    } else if args.has("plan") {
        ServeOptions::planned()
    } else {
        ServeOptions::default()
    };
    let t_load = Instant::now();
    let model = ShardedModel::load(Path::new(input)).map_err(|e| e.to_string())?;
    let load_time = t_load.elapsed();
    // The solvers ping-pong width-1 products, so prewarm at width 1;
    // SolverWorkspace::prepare then warms the driver-side vectors —
    // every iteration after this point is allocation-free.
    let t_prewarm = Instant::now();
    model.prewarm_with(1, &serve);
    let mut ws = gcm_core::SolverWorkspace::new();
    ws.prepare(&model).map_err(|e| e.to_string())?;
    let prewarm_time = t_prewarm.elapsed();
    eprintln!(
        "setup (excluded from timed loop): load {} | prewarm {}{}",
        secs(load_time),
        secs(prewarm_time),
        if model.is_planned() {
            format!(
                " | planned ({})",
                if model.is_planned_f32() { "f32" } else { "f64" }
            )
        } else {
            String::new()
        },
    );
    let n = model.cols();
    let t = Instant::now();
    let (stats, x) = match method.as_str() {
        "power" => {
            let mut x = match args.flag("vector") {
                Some(p) => read_panel(p, n, 1)?,
                None => vec![1.0; n],
            };
            let stats = gcm_core::power_iterations_into(&model, &mut x, iters, &mut ws)
                .map_err(|e| e.to_string())?;
            (stats, x)
        }
        "pagerank" => {
            let mut x = match args.flag("vector") {
                Some(p) => read_panel(p, n, 1)?,
                None => vec![1.0 / n.max(1) as f64; n],
            };
            let stats = gcm_core::pagerank_into(&model, &mut x, damping, iters, tol, &mut ws)
                .map_err(|e| e.to_string())?;
            (stats, x)
        }
        "cg" => {
            let b = match args.flag("vector") {
                Some(p) => read_panel(p, model.rows(), 1)?,
                None => vec![1.0; model.rows()],
            };
            let mut x = vec![0.0; n];
            let stats = gcm_core::conjugate_gradient_into(&model, &b, &mut x, iters, tol, &mut ws)
                .map_err(|e| e.to_string())?;
            (stats, x)
        }
        other => return Err(format!("unknown --method {other} (power|pagerank|cg)")),
    };
    let dt = t.elapsed();
    eprintln!(
        "{method}: {} iterations in {} ({:.3} ms/iter), norm {:.6e}",
        stats.iterations,
        secs(dt),
        dt.as_secs_f64() * 1e3 / stats.iterations.max(1) as f64,
        stats.norm,
    );
    write_panel(args.flag("out"), n, 1, &x)
}

/// One selftest case: build, save, reload, multiply, compare to oracle.
#[allow(clippy::too_many_arguments)]
fn selftest_case(
    dense: &DenseMatrix,
    dir: &Path,
    backend: Backend,
    encoding: Encoding,
    shards: usize,
    reorder: Option<ReorderMode>,
    k: usize,
    y_oracle: &DenseMatrix,
    x_oracle: &DenseMatrix,
    b_right: &DenseMatrix,
    b_left: &DenseMatrix,
) -> Result<(), String> {
    let scope = match reorder {
        None => "",
        Some(ReorderMode::Global(_)) => "-rg",
        Some(ReorderMode::PerShard(_)) => "-rs",
    };
    let tag = format!("{}-{}-s{shards}{scope}", backend.name(), encoding.name());
    let config = BuildConfig {
        backend,
        encoding: EncodingChoice::Fixed(encoding),
        shards,
        reorder,
        ..BuildConfig::default()
    };
    let built = ShardedModel::from_dense(dense, &config).map_err(|e| format!("{tag}: {e}"))?;
    let path = dir.join(format!("{tag}.gcms"));
    built.save(&path).map_err(|e| format!("{tag}: save: {e}"))?;
    let built_meta: Vec<ShardMeta> = (0..built.num_shards())
        .map(|i| built.shard_meta(i).clone())
        .collect();
    drop(built);
    // Everything below runs against the on-disk container, not the
    // in-memory build: the round-trip is the point.
    let model = ShardedModel::load(&path).map_err(|e| format!("{tag}: load: {e}"))?;
    if model.num_shards() != shards.min(dense.rows().max(1)) {
        return Err(format!("{tag}: shard count not preserved"));
    }
    for (i, meta) in built_meta.iter().enumerate() {
        if model.shard_meta(i) != meta {
            return Err(format!("{tag}: shard {i} provenance not preserved"));
        }
        if reorder.is_some() && meta.reorder.is_none() {
            return Err(format!("{tag}: shard {i} reorder provenance lost"));
        }
    }
    model.prewarm(k);
    let mut y = DenseMatrix::zeros(dense.rows(), k);
    model
        .right_multiply_batch(b_right, &mut y)
        .map_err(|e| format!("{tag}: right: {e}"))?;
    let mut x = DenseMatrix::zeros(dense.cols(), k);
    model
        .left_multiply_batch(b_left, &mut x)
        .map_err(|e| format!("{tag}: left: {e}"))?;
    for (got, want, what) in [(&y, y_oracle, "right"), (&x, x_oracle, "left")] {
        for i in 0..want.rows() {
            for j in 0..k {
                let (g, w) = (got.get(i, j), want.get(i, j));
                if (g - w).abs() > 1e-9 {
                    return Err(format!(
                        "{tag}: {what} product mismatch at ({i},{j}): {g} vs oracle {w}"
                    ));
                }
            }
        }
    }
    let container_len = fs::metadata(&path)
        .map(|m| m.len())
        .map_err(|e| format!("{tag}: stat {}: {e}", path.display()))?;
    say!("  ok {tag} ({container_len} container bytes)");
    Ok(())
}

fn cmd_selftest(args: &Args) -> Result<(), String> {
    let rows: usize = args.bounded_flag("rows", 96, 1)?;
    let cols: usize = args.bounded_flag("cols", 12, 1)?;
    let shards: usize = args.bounded_flag("shards", 3, 2)?;
    let dir = std::env::temp_dir().join(format!("gcm-selftest-{}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let result = run_selftest(rows, cols, shards, &dir);
    let _ = fs::remove_dir_all(&dir);
    result
}

fn run_selftest(rows: usize, cols: usize, shards: usize, dir: &Path) -> Result<(), String> {
    // A repetitive synthetic matrix (so compression has real work), via
    // the same text file path a user would take.
    let mut dense = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = match (r % 4, c % 3) {
                (0, 0) => 1.5,
                (1, 1) => 2.5,
                (2, _) => 0.5,
                (3, 2) => 7.25,
                _ => 0.0,
            };
            dense.set(r, c, v);
        }
    }
    let txt = dir.join("matrix.txt");
    let file = fs::File::create(&txt).map_err(|e| e.to_string())?;
    mio::write_dense_text(&dense, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    let dense = read_dense(txt.to_str().expect("utf-8 temp path"))?;

    // Oracle products from the dense representation.
    let k = 4usize;
    let mut b_right = DenseMatrix::zeros(cols, k);
    for i in 0..cols {
        for j in 0..k {
            b_right.set(i, j, (i * k + j) as f64 * 0.5 - 3.0);
        }
    }
    let mut b_left = DenseMatrix::zeros(rows, k);
    for i in 0..rows {
        for j in 0..k {
            b_left.set(i, j, ((i + 2 * j) % 7) as f64 - 3.0);
        }
    }
    let y_oracle = dense
        .right_multiply_matrix(&b_right)
        .map_err(|e| e.to_string())?;
    let x_oracle = dense
        .left_multiply_matrix(&b_left)
        .map_err(|e| e.to_string())?;

    say!(
        "selftest: {rows}x{cols} matrix, {shards} shards, batch {k}, store {}",
        dir.display()
    );
    let mut cases = 0usize;
    for backend in Backend::ALL {
        let encodings: &[Encoding] = match backend {
            Backend::Csrv => &[Encoding::ReAns],
            Backend::Compressed => &Encoding::ALL,
        };
        for &encoding in encodings {
            for s in [1usize, shards] {
                selftest_case(
                    &dense, dir, backend, encoding, s, None, k, &y_oracle, &x_oracle, &b_right,
                    &b_left,
                )?;
                cases += 1;
            }
        }
        // Reordered builds (global and per-shard §5.3) must round-trip
        // save → load → serve too: per-shard permutations are the
        // format's version-2 feature, so the end-to-end gate covers it.
        for reorder in [
            ReorderMode::Global(ReorderAlgorithm::PathCover),
            ReorderMode::PerShard(ReorderAlgorithm::PathCover),
        ] {
            selftest_case(
                &dense,
                dir,
                backend,
                Encoding::ReAns,
                shards,
                Some(reorder),
                k,
                &y_oracle,
                &x_oracle,
                &b_right,
                &b_left,
            )?;
            cases += 1;
        }
    }
    say!("selftest passed: {cases} backend/encoding/shard/reorder combinations round-tripped through the container and matched the dense oracle to 1e-9");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let [store_dir] = &args.positional[..] else {
        return Err("serve needs <store-dir>".into());
    };
    let port: u16 = args.parsed_flag("port", 7071u16)?;
    let host = args.flag("host").unwrap_or("127.0.0.1").to_string();
    let batch_width = args.bounded_flag("batch-width", 8, 1)?;
    let deadline_us: u64 = args.parsed_flag("deadline-us", 200u64)?;
    let max_inflight = args.bounded_flag("max-inflight", 256, 1)?;
    let serve_opts = if args.has("plan-f32") {
        ServeOptions::planned_f32()
    } else if args.has("plan") {
        ServeOptions::planned()
    } else {
        ServeOptions::default()
    };
    let store = ModelStore::open(store_dir.as_str()).map_err(|e| e.to_string())?;
    let names = store.list().map_err(|e| e.to_string())?;
    let registry = Registry::with_options(store, batch_width, serve_opts);
    let config = ServerConfig {
        batch_width,
        batch_deadline_us: deadline_us,
        max_inflight,
    };
    let engine = std::sync::Arc::new(Engine::new(registry, config));
    let server = Server::bind(std::sync::Arc::clone(&engine), (host.as_str(), port))
        .map_err(|e| format!("bind {host}:{port}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    say!(
        "gcm serve: listening on {addr} (batch width {batch_width}, deadline {deadline_us}us, max inflight {max_inflight})"
    );
    // Prewarm-on-load: pull every stored model through the registry now
    // so the first request hits warm shards (and plan-compiled kernels
    // under --plan), not a cold container decode.
    for name in &names {
        match engine.registry().get(name) {
            Ok(model) => say!(
                "  loaded {name}: {} x {}, {} shard(s), {} backend",
                model.rows(),
                model.cols(),
                model.num_shards(),
                model.backend().name()
            ),
            Err(e) => say!("  warning: {name}: {e}"),
        }
    }
    server.run();
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let [addr] = &args.positional[..] else {
        return Err("stats needs <host:port>".into());
    };
    let model = args.flag("model").unwrap_or("");
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let text = client.stats(model).map_err(|e| e.to_string())?;
    say!("{}", text.trim_end());
    Ok(())
}

/// The flags `cmd` accepts; `None` for an unknown command.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "gen" => &["seed"],
        "compress" => &[
            "backend",
            "encoding",
            "grammar",
            "shards",
            "reorder",
            "reorder-scope",
            "emit-plans",
            "plan-f32",
            "base",
        ],
        "inspect" | "decompress" => &[],
        "multiply" => &[
            "left", "batch", "vector", "out", "plan", "plan-f32", "repeat", "rows", "sparse-x",
        ],
        "solve" => &[
            "method", "iters", "tol", "damping", "vector", "out", "plan", "plan-f32",
        ],
        "serve" => &[
            "port",
            "host",
            "batch-width",
            "deadline-us",
            "max-inflight",
            "plan",
            "plan-f32",
        ],
        "stats" => &["model"],
        "selftest" => &["rows", "cols", "shards"],
        _ => return None,
    })
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return Err("missing command".into());
    };
    let known = known_flags(&cmd).ok_or_else(|| format!("unknown command {cmd}"))?;
    let args = Args::parse(&raw[1..], known)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "compress" => cmd_compress(&args),
        "inspect" => cmd_inspect(&args),
        "decompress" => cmd_decompress(&args),
        "multiply" => cmd_multiply(&args),
        "solve" => cmd_solve(&args),
        "serve" => cmd_serve(&args),
        "stats" => cmd_stats(&args),
        "selftest" => cmd_selftest(&args),
        _ => unreachable!("command validated above"),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parser_handles_flags_and_positionals() {
        let raw: Vec<String> = ["a.txt", "--shards", "3", "--left", "b.gcms"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let known = &["shards", "left", "repeat"][..];
        let args = Args::parse(&raw, known).unwrap();
        assert_eq!(args.positional, vec!["a.txt", "b.gcms"]);
        assert_eq!(args.flag("shards"), Some("3"));
        assert!(args.has("left"));
        // Boolean flags must not swallow the next token as a value.
        let raw_bool: Vec<String> = ["--emit-plans", "in.txt", "out.gcms"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let bool_args = Args::parse(&raw_bool, &["emit-plans"]).unwrap();
        assert!(bool_args.has("emit-plans"));
        assert_eq!(bool_args.positional, vec!["in.txt", "out.gcms"]);
        assert_eq!(args.parsed_flag("shards", 1usize).unwrap(), 3);
        assert_eq!(args.parsed_flag("repeat", 4usize).unwrap(), 4);
        assert!(Args::parse(&["--shards".to_string()], known).is_err());
        // A typo'd flag is a hard error, never a silent default.
        let err = Args::parse(&["--shard".to_string(), "4".to_string()], known).unwrap_err();
        assert!(err.contains("unknown flag --shard"), "{err}");
    }

    #[test]
    fn out_of_range_flag_values_are_rejected_not_clamped() {
        let parse = |pairs: &[(&str, &str)]| {
            let raw: Vec<String> = pairs
                .iter()
                .flat_map(|(n, v)| [format!("--{n}"), v.to_string()])
                .collect();
            Args::parse(&raw, &["shards", "batch", "repeat", "rows", "cols"]).unwrap()
        };
        // `--shards 0` used to clamp to 1; now it fails.
        let err = build_config(&parse(&[("shards", "0")])).unwrap_err();
        assert!(err.contains("--shards must be at least 1"), "{err}");
        // `--blocks` went with the in-shard row-block backends: it is an
        // unknown flag now, not a silently ignored one.
        let raw = ["--blocks".to_string(), "4".to_string()];
        let err = Args::parse(&raw, known_flags("compress").unwrap()).unwrap_err();
        assert!(err.contains("unknown flag --blocks"), "{err}");
        // `bench-build` repeated the `compress` shard table, the
        // `grammar-build` bench group and `multiply --plan --repeat`; it
        // is an unknown command now ("unknown command bench-build").
        assert!(known_flags("bench-build").is_none());
        // In-range values still parse.
        assert_eq!(build_config(&parse(&[("shards", "3")])).unwrap().shards, 3);
        // The helper carries the bound in its message.
        let args = parse(&[("batch", "0"), ("rows", "2")]);
        assert!(args.bounded_flag("batch", 1, 1).is_err());
        assert_eq!(args.bounded_flag("rows", 96, 1).unwrap(), 2);
        assert_eq!(args.bounded_flag("repeat", 1, 1).unwrap(), 1);
    }

    #[test]
    fn selftest_passes_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gcm-selftest-unit-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let result = run_selftest(40, 9, 3, &dir);
        let _ = fs::remove_dir_all(&dir);
        result.expect("selftest must pass");
    }
}
