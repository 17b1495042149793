//! The workloads: which corpus, how it is built and served, and how each
//! measured round is shared between the write, serve and solve paths.
//!
//! Every workload runs all three paths, so every end-to-end metric is
//! measured on every workload; the workloads differ in corpus size,
//! shard count, build policy and which path gets most of the time.
//! `serve-small` runs its write cycles in set-up and spends the measured
//! rounds serving and solving; `build-covtype` sets up only its CSRV
//! input and starts every measured round with a write cycle.
//!
//! A third workload, census 100k×68 in four f64-planned shards under
//! power iterations, was tried and left out: its fan-out/join over both
//! vCPUs made its medians swing by a third between runs whenever the
//! shared host took vCPUs away, well past any usable bound. Its layers
//! (four shards, fan-out, per-shard plans) stay measured on
//! `build-covtype`.

use gcm_core::Encoding;
use gcm_datagen::Dataset;
use gcm_pipeline::{Backend, BuildConfig, EncodingChoice, GrammarChoice, ReorderMode};
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::ServeOptions;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Census 13k×68, one re_ans shard with persisted f64 plans, served
    /// over TCP by a closed loop of two connections.
    ServeSmall,
    /// Covtype 120k×54, four shards, per-shard PathCover, automatic
    /// grammar and encoding, persisted f32 plans; repeated full builds,
    /// loads and one-shard incremental rebuilds.
    BuildCovtype,
}

/// Everything a run of one workload is parameterised by.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub dataset: Dataset,
    pub rows: usize,
    pub config: BuildConfig,
    pub serve: ServeOptions,
    /// Whether each set-up repetition includes a full write cycle
    /// (build, serialize, load, incremental rebuild). When false the
    /// set-up is the CSRV conversion alone and every measured round
    /// starts with a write cycle.
    pub setup_builds: bool,
    /// Set-up repetitions; `setup_s` is their lower quartile.
    pub setup_reps: usize,
    /// Seconds of closed-loop serving per measured round.
    pub serve_slice_s: f64,
    /// Seconds of power iterations per measured round.
    pub solve_slice_s: f64,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ServeSmall, Workload::BuildCovtype];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::BuildCovtype => "build-covtype",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters; `smoke` shrinks the corpus twentyfold,
    /// runs one set-up repetition and shortens the slices fourfold, for
    /// the benchmark's own test.
    pub fn spec(self, smoke: bool) -> Spec {
        let compressed = |shards, encoding, grammar, reorder| BuildConfig {
            backend: Backend::Compressed,
            encoding,
            grammar: Some(grammar),
            shards,
            blocks: 1,
            reorder,
        };
        let mut spec = match self {
            Workload::ServeSmall => Spec {
                dataset: Dataset::Census,
                rows: 13_000,
                config: compressed(
                    1,
                    EncodingChoice::Fixed(Encoding::ReAns),
                    GrammarChoice::RePair,
                    None,
                ),
                serve: ServeOptions::planned(),
                setup_builds: true,
                setup_reps: 5,
                serve_slice_s: 1.0,
                solve_slice_s: 0.5,
            },
            Workload::BuildCovtype => Spec {
                dataset: Dataset::Covtype,
                rows: 120_000,
                config: compressed(
                    4,
                    EncodingChoice::Auto,
                    GrammarChoice::Auto,
                    Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
                ),
                serve: ServeOptions::planned_f32(),
                setup_builds: false,
                setup_reps: 15,
                serve_slice_s: 0.8,
                solve_slice_s: 0.8,
            },
        };
        if smoke {
            spec.rows /= 20;
            spec.setup_reps = 1;
            spec.serve_slice_s /= 4.0;
            spec.solve_slice_s /= 4.0;
        }
        spec
    }
}

impl Spec {
    /// Tolerance of every output check, relative to each element's
    /// magnitude (see `Expect::matches`).
    pub fn tolerance(&self) -> f64 {
        if self.serve.plan_f32 {
            1e-4
        } else {
            1e-9
        }
    }
}
