//! Stage execution: runs a [`Plan`] on the persistent thread pool in
//! three phases, each one [`par_map`]:
//!
//! 1. **Reorder**: one task per shard computes or applies its column
//!    order, fingerprints its shard plan, and either finishes the
//!    uncompressed backend's model or keeps the grammar input.
//! 2. **Grammar + encode**: one task per shard builds the shard's
//!    grammar candidates and encodes each under the shard's
//!    [`EncodingChoice`]. [`GrammarChoice::Auto`] has two candidates,
//!    RePair and MR-RePair, built from **one** construction
//!    ([`RePair::compress_auto_with_scratch`]): MR-RePair is RePair plus
//!    a maximal-repeat extension step, so until that step first succeeds
//!    the two perform the same rounds on the same state. The task runs
//!    those shared rounds once, then RePair's continuation (on a clone of
//!    the state, dropped after use) and MR-RePair's, and then encodes
//!    both candidates. The pair of continuations, and the pair of
//!    encodings, each runs side by side through a `join` nested in the
//!    phase's `par_map`, so a one-shard build (the incremental rebuild)
//!    keeps two workers busy. Every other policy builds one candidate.
//! 3. **Select**: per shard, the candidate with the smaller measured
//!    stored size wins (ties go to RePair).
//!
//! Every task is deterministic and independent of which worker or
//! scratch runs it, and each continuation yields exactly its standalone
//! compressor's grammar, so the pool-parallel build is bit-identical to
//! [`Pipeline::build_sequential`], which runs the same phases inline.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use gcm_core::{CompressedMatrix, Encoding};
use gcm_matrix::{CsrvMatrix, SEPARATOR};
use gcm_repair::{RePair, RePairScratch, Slp};

use crate::artifacts::{BuildArtifacts, BuildStats, BuiltShard, ShardMeta, ShardStats};
use crate::backend::Backend;
use crate::config::{BuildConfig, EncodingChoice, GrammarChoice, GrammarStage};
use crate::model::Model;
use crate::plan::{Plan, ShardPlan, ShardReorder};
use crate::stage::{join, par_map};

/// The pipeline executor: stage machinery plus a scratch arena of
/// [`RePairScratch`] buffers, one per pool worker (plus the caller), so
/// concurrent grammar constructions reuse working storage across shards
/// and across builds instead of reallocating it per shard.
#[derive(Debug)]
pub struct Pipeline {
    scratches: Vec<Mutex<RePairScratch>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// A pipeline sized to the persistent pool (one scratch per worker,
    /// plus one for the calling thread, which participates in stages).
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads() + 1)
    }

    /// A pipeline with an explicit scratch-arena size.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            scratches: (0..workers.max(1))
                .map(|_| Mutex::new(RePairScratch::new()))
                .collect(),
        }
    }

    /// Runs `f` with an uncontended scratch from the arena, falling back
    /// to a fresh one if every slot is busy (correctness never depends
    /// on which scratch a task gets).
    fn with_scratch<R>(&self, f: impl FnOnce(&mut RePairScratch) -> R) -> R {
        for slot in &self.scratches {
            if let Ok(mut scratch) = slot.try_lock() {
                return f(&mut scratch);
            }
        }
        f(&mut RePairScratch::new())
    }

    /// Plans and executes a build of `csrv` with shards running
    /// **concurrently** on the persistent pool.
    pub fn build(&self, csrv: &CsrvMatrix, config: &BuildConfig) -> BuildArtifacts {
        let t0 = Instant::now();
        let plan = Plan::new(csrv, config);
        let plan_time = t0.elapsed();
        self.execute_with(plan, plan_time, true)
    }

    /// As [`build`](Self::build) with every phase executed sequentially
    /// on the calling thread — the reference path the parallel build is
    /// pinned bit-identical against (and the bench baseline).
    pub fn build_sequential(&self, csrv: &CsrvMatrix, config: &BuildConfig) -> BuildArtifacts {
        let t0 = Instant::now();
        let plan = Plan::new(csrv, config);
        let plan_time = t0.elapsed();
        self.execute_with(plan, plan_time, false)
    }

    /// Executes an already-made plan concurrently.
    pub fn execute(&self, plan: Plan) -> BuildArtifacts {
        self.execute_with(plan, Duration::ZERO, true)
    }

    fn execute_with(&self, plan: Plan, plan_time: Duration, parallel: bool) -> BuildArtifacts {
        let t0 = Instant::now();
        let prepared = run_phase(parallel, plan.shards.len(), |i| {
            prepare(&plan, &plan.shards[i])
        });
        let built = run_phase(parallel, plan.shards.len(), |i| {
            let sp = &plan.shards[i];
            self.build_shard(plan.backend, sp, prepared[i].input(sp), parallel)
        });
        let mut shards = Vec::with_capacity(plan.shards.len());
        let mut stats = Vec::with_capacity(plan.shards.len());
        for ((sp, prep), built) in plan.shards.iter().zip(prepared).zip(built) {
            let (shard, stat) = select(sp, prep, built);
            shards.push(shard);
            stats.push(stat);
        }
        BuildArtifacts {
            backend: plan.backend,
            cols: plan.cols,
            shards,
            stats: BuildStats {
                plan_time,
                wall_time: t0.elapsed(),
                shards: stats,
            },
        }
    }

    /// Phase 2 for one shard: build its grammar candidates (none for the
    /// uncompressed backend, both stages for `Auto`, else one) and
    /// encode each under the shard's encoding policy.
    fn build_shard(
        &self,
        backend: Backend,
        sp: &ShardPlan,
        input: &CsrvMatrix,
        parallel: bool,
    ) -> Built {
        let single = |stage, (slp, grammar_time)| Built {
            candidates: vec![candidate(input, stage, slp, grammar_time, sp.encoding)],
            ..Built::default()
        };
        match (backend, sp.grammar) {
            (Backend::Csrv, _) => Built::default(),
            (_, GrammarChoice::RePair) => single(
                GrammarStage::RePair,
                timed(|| self.compress(input, RePair::compress_with_scratch)),
            ),
            (_, GrammarChoice::MrRePair) => single(
                GrammarStage::MrRePair,
                timed(|| self.compress(input, RePair::compress_mr_with_scratch)),
            ),
            (_, GrammarChoice::Auto) => self.build_auto(input, sp.encoding, parallel),
        }
    }

    /// `Auto`: the shared construction (see
    /// [`RePair::compress_auto_with_scratch`]), then RePair's and
    /// MR-RePair's continuations, then the encoding of each candidate —
    /// each pair side by side on the pool when `parallel`, else inline.
    /// The clone RePair continues on is freed once its grammar is built.
    fn build_auto(&self, input: &CsrvMatrix, encoding: EncodingChoice, parallel: bool) -> Built {
        let (auto, shared_time) =
            timed(|| self.compress(input, RePair::compress_auto_with_scratch));
        let shared_rules = auto.shared_rules;
        let ((slp, repair_time), (mr, mr_time)) = both(
            parallel,
            || timed(|| auto.repair.finish(None)),
            || timed(|| self.with_scratch(|scratch| auto.mr.finish(Some(scratch)))),
        );
        let (repair, mr) = both(
            parallel,
            || candidate(input, GrammarStage::RePair, slp, repair_time, encoding),
            || candidate(input, GrammarStage::MrRePair, mr, mr_time, encoding),
        );
        Built {
            candidates: vec![repair, mr],
            shared_time,
            shared_rules,
        }
    }

    /// `compress` of the shard's symbols, on pooled scratch.
    fn compress<G>(
        &self,
        input: &CsrvMatrix,
        compress: fn(&RePair, &[u32], u32, Option<u32>, &mut RePairScratch) -> G,
    ) -> G {
        self.with_scratch(|scratch| {
            compress(
                &RePair::new(),
                input.symbols(),
                input.terminal_limit(),
                Some(SEPARATOR),
                scratch,
            )
        })
    }
}

/// Encodes a candidate's grammar `slp` (built by `stage` in
/// `grammar_time`), timing the encoding.
fn candidate(
    input: &CsrvMatrix,
    stage: GrammarStage,
    slp: Slp,
    grammar_time: Duration,
    encoding: EncodingChoice,
) -> Candidate {
    let (matrix, encode_time) = timed(|| encode(input, &slp, encoding));
    Candidate {
        stage,
        matrix,
        grammar_time,
        encode_time,
    }
}

/// `f()` and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `a` and `b` side by side on the pool when `parallel`, else
/// inline, in order.
fn both<A: Send, B: Send>(
    parallel: bool,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if parallel {
        join(a, b)
    } else {
        (a(), b())
    }
}

/// Runs `f(i)` for every `i in 0..n`, on the pool or inline, in index
/// order either way.
fn run_phase<T: Send>(parallel: bool, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if parallel {
        par_map(n, f)
    } else {
        (0..n).map(f).collect()
    }
}

/// A shard after phase 1.
struct Prepared {
    /// The uncompressed backend's finished model.
    model: Option<Model>,
    /// The compressed backend's reordered shard. `None` compresses the
    /// plan's shard as it is, without copying it.
    reordered: Option<CsrvMatrix>,
    /// The shard's provenance, less the grammar stage phase 3 picks.
    meta: ShardMeta,
    reorder_time: Duration,
}

impl Prepared {
    /// The matrix every grammar candidate of `sp` compresses.
    fn input<'a>(&'a self, sp: &'a ShardPlan) -> &'a CsrvMatrix {
        self.reordered.as_ref().unwrap_or(&sp.csrv)
    }
}

/// Phase 2's output for one shard: its candidates in tie-break order
/// (RePair first), plus the shared construction `Auto` ran before them.
#[derive(Default)]
struct Built {
    candidates: Vec<Candidate>,
    /// Time of the rounds both `Auto` candidates share.
    shared_time: Duration,
    /// Rules built once for both `Auto` candidates.
    shared_rules: usize,
}

/// One grammar candidate of one shard, built and encoded.
struct Candidate {
    stage: GrammarStage,
    matrix: CompressedMatrix,
    grammar_time: Duration,
    encode_time: Duration,
}

/// Phase 1 for one shard: reorder its columns, then either finish the
/// uncompressed backend's model or keep the grammar input.
fn prepare(plan: &Plan, sp: &ShardPlan) -> Prepared {
    let t0 = Instant::now();
    let (reordered, col_order, reorder) = match &sp.reorder {
        ShardReorder::None => (None, None, None),
        ShardReorder::Apply(order, algo) => (
            Some(sp.csrv.with_column_order(order)),
            Some(order.iter().map(|&c| c as u32).collect::<Vec<u32>>()),
            Some(*algo),
        ),
        ShardReorder::Compute(algo) => {
            let (reordered, order) = gcm_reorder::BlockReorderConfig::new(*algo).apply(&sp.csrv);
            (
                Some(reordered),
                Some(order.iter().map(|&c| c as u32).collect::<Vec<u32>>()),
                Some(*algo),
            )
        }
    };
    let reorder_time = t0.elapsed();
    let (model, reordered) = match plan.backend {
        Backend::Csrv => (
            Some(Model::Csrv(reordered.unwrap_or_else(|| sp.csrv.clone()))),
            None,
        ),
        Backend::Compressed => (None, reordered),
    };
    // Fingerprint the plan of every compressed shard — the handle
    // incremental rebuilds match shards by.
    let fingerprint = (plan.backend == Backend::Compressed).then(|| sp.fingerprint());
    Prepared {
        model,
        reordered,
        meta: ShardMeta {
            col_order,
            reorder,
            grammar: None,
            fingerprint,
        },
        reorder_time,
    }
}

/// Phase 3 for one shard: keep the candidate with the smallest
/// **measured** stored size (ties go to the earlier candidate, so auto
/// is never larger than pure RePair) and record the shard's statistics.
fn select(sp: &ShardPlan, prep: Prepared, built: Built) -> (BuiltShard, ShardStats) {
    let candidates = built.candidates;
    let grammar_time = built.shared_time + candidates.iter().map(|c| c.grammar_time).sum();
    let encode_time = candidates.iter().map(|c| c.encode_time).sum();
    let grammar_builds = candidates.len();
    let (model, grammar, grammar_rules, encoding) = match prep.model {
        Some(model) => (model, None, 0, None),
        None => {
            let winner = candidates
                .into_iter()
                .min_by_key(|c| c.matrix.stored_bytes())
                .expect("the compressed backend builds at least one candidate");
            let rules = winner.matrix.num_rules();
            let encoding = Some(winner.matrix.encoding());
            (
                Model::Compressed(winner.matrix),
                Some(winner.stage),
                rules,
                encoding,
            )
        }
    };
    let stats = ShardStats {
        index: sp.index,
        rows: sp.csrv.rows(),
        nnz: sp.csrv.nnz(),
        grammar_rules,
        encoded_bytes: model.stored_bytes(),
        encoding,
        grammar,
        reorder: prep.meta.reorder,
        reorder_time: prep.reorder_time,
        grammar_time,
        encode_time,
        grammar_builds,
        shared_rules: built.shared_rules,
    };
    let meta = ShardMeta {
        grammar,
        ..prep.meta
    };
    (BuiltShard { model, meta }, stats)
}

/// Encodes a shard's grammar, selecting the encoding per `choice`: under
/// [`EncodingChoice::Auto`] every encoding is built from the one grammar
/// and the one with the smallest **measured** stored size wins (ties
/// break in [`Encoding::ALL`] order).
fn encode(input: &CsrvMatrix, slp: &Slp, choice: EncodingChoice) -> CompressedMatrix {
    let build = |enc: Encoding| CompressedMatrix::from_slp(input, slp, enc);
    match choice {
        EncodingChoice::Fixed(enc) => build(enc),
        EncodingChoice::Auto => Encoding::ALL
            .into_iter()
            .map(build)
            .min_by_key(CompressedMatrix::stored_bytes)
            .expect("at least one encoding"),
    }
}

static GLOBAL: OnceLock<Pipeline> = OnceLock::new();

/// The process-wide pipeline (lazily built, sized to the global pool).
/// `ShardedModel::from_csrv` and the `gcm` CLI build through it, so
/// scratch arenas amortise across every build in the process.
pub fn global() -> &'static Pipeline {
    GLOBAL.get_or_init(Pipeline::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReorderMode;
    use gcm_matrix::{DenseMatrix, MatVec};
    use gcm_reorder::ReorderAlgorithm;

    fn sample(rows: usize, cols: usize) -> CsrvMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r * 5 + c * 2) % 3 != 0 {
                    m.set(r, c, (((r + c) % 7) + 1) as f64 * 0.25);
                }
            }
        }
        CsrvMatrix::from_dense(&m).unwrap()
    }

    fn artifact_products_match_dense(artifacts: &BuildArtifacts, csrv: &CsrvMatrix) {
        let dense = csrv.to_dense();
        let x: Vec<f64> = (0..dense.cols()).map(|i| i as f64 * 0.5 - 2.0).collect();
        let mut y_ref = vec![0.0; dense.rows()];
        dense.right_multiply(&x, &mut y_ref).unwrap();
        let mut row = 0usize;
        for shard in &artifacts.shards {
            let rows = shard.model.rows();
            let mut y = vec![0.0; rows];
            shard.model.right_multiply(&x, &mut y).unwrap();
            for (i, &yi) in y.iter().enumerate() {
                assert!((yi - y_ref[row + i]).abs() < 1e-9);
            }
            row += rows;
        }
        assert_eq!(row, dense.rows());
    }

    #[test]
    fn parallel_build_matches_sequential_for_every_backend() {
        let csrv = sample(61, 8);
        let pipeline = Pipeline::new();
        for backend in Backend::ALL {
            for reorder in [
                None,
                Some(ReorderMode::Global(ReorderAlgorithm::PathCover)),
                Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
            ] {
                let config = BuildConfig {
                    backend,
                    shards: 4,
                    reorder,
                    ..BuildConfig::default()
                };
                let par = pipeline.build(&csrv, &config);
                let seq = pipeline.build_sequential(&csrv, &config);
                assert_eq!(par.shards.len(), seq.shards.len());
                for (a, b) in par.shards.iter().zip(&seq.shards) {
                    assert_eq!(a.meta, b.meta, "{}", backend.name());
                    assert_eq!(
                        a.model.stored_bytes(),
                        b.model.stored_bytes(),
                        "{} {:?}",
                        backend.name(),
                        reorder
                    );
                }
                artifact_products_match_dense(&par, &csrv);
            }
        }
    }

    /// A shard's serialized grammar-compressed matrix.
    fn shard_bytes(shard: &BuiltShard) -> Vec<u8> {
        match &shard.model {
            Model::Compressed(m) => gcm_core::serial::to_bytes(m),
            other => panic!("not grammar-compressed: {:?}", other.backend()),
        }
    }

    #[test]
    fn auto_grammar_build_is_bit_identical_to_sequential() {
        let csrv = sample(96, 9);
        let pipeline = Pipeline::new();
        for shards in [1, 4] {
            let config = BuildConfig {
                encoding: EncodingChoice::Auto,
                grammar: Some(GrammarChoice::Auto),
                shards,
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
                ..BuildConfig::default()
            };
            let par = pipeline.build(&csrv, &config);
            let seq = pipeline.build_sequential(&csrv, &config);
            assert_eq!(par.shards.len(), shards);
            for ((a, b), stat) in par.shards.iter().zip(&seq.shards).zip(&par.stats.shards) {
                assert_eq!(shard_bytes(a), shard_bytes(b), "s={shards}");
                assert_eq!(a.meta, b.meta);
                assert_eq!(stat.grammar_builds, 2, "both candidates");
            }
            artifact_products_match_dense(&par, &csrv);
        }
    }

    #[test]
    fn auto_encoding_picks_the_smallest_measured_size() {
        let csrv = sample(80, 9);
        let pipeline = Pipeline::new();
        let auto = pipeline.build_sequential(
            &csrv,
            &BuildConfig {
                shards: 2,
                encoding: EncodingChoice::Auto,
                ..BuildConfig::default()
            },
        );
        for (i, shard) in auto.shards.iter().enumerate() {
            let chosen = shard.model.stored_bytes();
            for enc in Encoding::ALL {
                let fixed = pipeline.build_sequential(
                    &csrv,
                    &BuildConfig {
                        shards: 2,
                        encoding: EncodingChoice::Fixed(enc),
                        ..BuildConfig::default()
                    },
                );
                assert!(
                    chosen <= fixed.shards[i].model.stored_bytes(),
                    "shard {i}: auto ({chosen}) beaten by {}",
                    enc.name()
                );
            }
        }
    }

    #[test]
    fn per_shard_orders_are_recorded_per_shard() {
        let csrv = sample(40, 8);
        let pipeline = Pipeline::new();
        let artifacts = pipeline.build(
            &csrv,
            &BuildConfig {
                shards: 3,
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
                ..BuildConfig::default()
            },
        );
        assert_eq!(artifacts.shards.len(), 3);
        for shard in &artifacts.shards {
            let order = shard.meta.col_order.as_ref().expect("order recorded");
            assert_eq!(order.len(), 8);
            let mut seen = [false; 8];
            for &c in order {
                assert!(!seen[c as usize], "duplicate column in permutation");
                seen[c as usize] = true;
            }
            assert_eq!(shard.meta.reorder, Some(ReorderAlgorithm::PathCover));
        }
    }

    #[test]
    fn grammar_stages_build_correct_artifacts_and_metadata() {
        let csrv = sample(80, 9);
        let pipeline = Pipeline::new();
        // `None` is classic RePair, recorded like an explicit choice.
        for grammar in [
            None,
            Some(GrammarChoice::RePair),
            Some(GrammarChoice::MrRePair),
            Some(GrammarChoice::Auto),
        ] {
            let choice = grammar.unwrap_or(GrammarChoice::RePair);
            let config = BuildConfig {
                shards: 3,
                grammar,
                ..BuildConfig::default()
            };
            let par = pipeline.build(&csrv, &config);
            let seq = pipeline.build_sequential(&csrv, &config);
            artifact_products_match_dense(&par, &csrv);
            for ((shard, stat), s_shard) in
                par.shards.iter().zip(&par.stats.shards).zip(&seq.shards)
            {
                let stage = shard.meta.grammar.expect("stage recorded");
                assert_eq!(stat.grammar, Some(stage), "{}", choice.name());
                match choice {
                    GrammarChoice::RePair => assert_eq!(stage, GrammarStage::RePair),
                    GrammarChoice::MrRePair => assert_eq!(stage, GrammarStage::MrRePair),
                    GrammarChoice::Auto => {}
                }
                assert!(shard.meta.fingerprint.is_some(), "fingerprint recorded");
                // Parallel and sequential agree on everything,
                // including the measured auto-selection.
                assert_eq!(s_shard.meta, shard.meta);
                assert_eq!(s_shard.model.stored_bytes(), shard.model.stored_bytes());
            }
        }
    }

    #[test]
    fn auto_grammar_is_never_larger_than_pure_repair() {
        let csrv = sample(80, 9);
        let pipeline = Pipeline::new();
        for encoding in [EncodingChoice::Fixed(Encoding::ReAns), EncodingChoice::Auto] {
            let auto = pipeline.build_sequential(
                &csrv,
                &BuildConfig {
                    shards: 2,
                    encoding,
                    grammar: Some(GrammarChoice::Auto),
                    ..BuildConfig::default()
                },
            );
            let repair = pipeline.build_sequential(
                &csrv,
                &BuildConfig {
                    shards: 2,
                    encoding,
                    grammar: Some(GrammarChoice::RePair),
                    ..BuildConfig::default()
                },
            );
            for (a, r) in auto.shards.iter().zip(&repair.shards) {
                assert!(
                    a.model.stored_bytes() <= r.model.stored_bytes(),
                    "auto ({}) beaten by repair ({})",
                    a.model.stored_bytes(),
                    r.model.stored_bytes()
                );
            }
        }
    }

    #[test]
    fn shard_fingerprints_track_input_changes() {
        let csrv = sample(40, 8);
        let pipeline = Pipeline::new();
        let config = BuildConfig {
            shards: 4,
            grammar: Some(GrammarChoice::RePair),
            ..BuildConfig::default()
        };
        let a = pipeline.build_sequential(&csrv, &config);
        let b = pipeline.build_sequential(&csrv, &config);
        // Deterministic: same input, same fingerprints.
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.meta.fingerprint, sb.meta.fingerprint);
        }
        // Perturb one value in the third shard's row range; only that
        // shard's fingerprint moves.
        let mut dense = csrv.to_dense();
        let r = 25; // rows 0..40 split 4 ways: shard 2 covers 20..30
        let old = dense.get(r, 3);
        dense.set(r, 3, old + 1.0);
        let changed = CsrvMatrix::from_dense(&dense).unwrap();
        let c = pipeline.build_sequential(&changed, &config);
        for (i, (sa, sc)) in a.shards.iter().zip(&c.shards).enumerate() {
            if i == 2 {
                assert_ne!(sa.meta.fingerprint, sc.meta.fingerprint, "changed shard");
            } else {
                assert_eq!(
                    sa.meta.fingerprint, sc.meta.fingerprint,
                    "unchanged shard {i}"
                );
            }
        }
    }

    #[test]
    fn build_uses_pool_workers_not_fresh_threads() {
        let csrv = sample(64, 6);
        let pipeline = Pipeline::new();
        let config = BuildConfig {
            shards: 8,
            ..BuildConfig::default()
        };
        let _ = pipeline.build(&csrv, &config); // spins up the pool
        let spawned = rayon::threads_ever_spawned();
        for _ in 0..5 {
            let _ = pipeline.build(&csrv, &config);
        }
        assert_eq!(
            rayon::threads_ever_spawned(),
            spawned,
            "builds must not spawn per-build threads"
        );
    }

    #[test]
    fn stats_cover_every_shard_and_stage() {
        let csrv = sample(48, 7);
        let artifacts = global().build(
            &csrv,
            &BuildConfig {
                shards: 4,
                reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
                ..BuildConfig::default()
            },
        );
        assert_eq!(artifacts.stats.shards.len(), 4);
        let mut rows = 0usize;
        let mut nnz = 0usize;
        for (i, s) in artifacts.stats.shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert!(s.encoded_bytes > 0);
            assert_eq!(s.encoding, Some(Encoding::ReAns));
            rows += s.rows;
            nnz += s.nnz;
        }
        assert_eq!(rows, 48);
        assert_eq!(nnz, csrv.nnz());
        let (_, grammar, encode) = artifacts.stats.stage_cpu_totals();
        assert!(grammar > std::time::Duration::ZERO);
        assert!(encode > std::time::Duration::ZERO);
    }
}
