//! Byte-identity pins for grammar construction and the container layout.
//!
//! Every model below is built through the staged pipeline (4 shards,
//! automatic encoding, plus one single-shard `Auto` build per corpus)
//! and fingerprinted three times with FNV-1a 64:
//!
//! * [`GRAMMAR_GOLDEN`] hashes the concatenated standalone
//!   `serial::to_bytes` of every shard. It depends only on the grammars
//!   and their encodings, not on the container layout, so a container
//!   format change must leave it alone. Any change to how RePair or
//!   MR-RePair picks its next pair — including a tie broken differently
//!   — changes a grammar and so this table. A faster queue must
//!   reproduce it exactly.
//! * [`CONTAINER_GOLDEN`] is the container's own checksum. It pins the
//!   `GCMSERV1` bytes as well; it moves with a layout change, and is
//!   re-recorded only together with an unchanged [`GRAMMAR_GOLDEN`].
//! * [`PLAN_GOLDEN`] hashes `to_bytes_with_plans` of the same container
//!   reloaded twice, once after an `f64` and once after an `f32` planned
//!   prewarm. It pins the persisted `GCMPLAN1` blobs, so a kernel
//!   change that keeps its plan layout must leave it alone.

use mm_repair::datagen::Dataset;
use mm_repair::matrix::CsrvMatrix;
use mm_repair::reorder::ReorderAlgorithm;
use mm_repair::serve::{
    container, BuildConfig, EncodingChoice, GrammarChoice, Model, Pipeline, ReorderMode,
    ServeOptions, ShardedModel,
};

/// `(dataset, rows)`: all generated with `gcm-datagen` seed 7.
const CORPORA: [(Dataset, usize); 3] = [
    (Dataset::Covtype, 12_000),
    (Dataset::Census, 3_000),
    (Dataset::Optical, 600),
];

const GRAMMARS: [GrammarChoice; 3] = [
    GrammarChoice::RePair,
    GrammarChoice::MrRePair,
    GrammarChoice::Auto,
];

const REORDERS: [ReorderMode; 2] = [
    ReorderMode::Global(ReorderAlgorithm::PathCover),
    ReorderMode::PerShard(ReorderAlgorithm::PathCover),
];

/// FNV-1a 64 of the shards' concatenated `serial::to_bytes`, per corpus,
/// in `GRAMMARS` × `REORDERS` order, then the [`ONE_SHARD_AUTO`] build.
const GRAMMAR_GOLDEN: [[u64; 7]; 3] = [
    [
        0x103bf05b9170da07,
        0x34e0e27f422dfdd7,
        0xbaff639d762e92e1,
        0x33e8ed750328f0d8,
        0x103bf05b9170da07,
        0x34e0e27f422dfdd7,
        0x7f5c37f438718a89,
    ],
    [
        0x0b0554d28658c90c,
        0xa3317bb985120220,
        0x05c5fc0eabd65dce,
        0x63f697b9a476b4da,
        0x05c5fc0eabd65dce,
        0x63f697b9a476b4da,
        0xee16ddc2d2de9e74,
    ],
    [
        0xea8a2efdfee5b409,
        0xe6d78e8270bdbf04,
        0x47455c1cc57ab9c4,
        0xa877a4abdc94f224,
        0x47455c1cc57ab9c4,
        0xe6d78e8270bdbf04,
        0xdbc240ad4556e8a5,
    ],
];

/// `fnv1a64(to_bytes(..))` per corpus, in `GRAMMARS` × `REORDERS` order,
/// then the [`ONE_SHARD_AUTO`] build. Recorded for the version-7 layout
/// (one value dictionary per container, build-plan fingerprints, one
/// checksum per chunk); the grammars behind it are the ones
/// [`GRAMMAR_GOLDEN`] pins.
const CONTAINER_GOLDEN: [[u64; 7]; 3] = [
    [
        0x85bcb14e5dfd0964,
        0xfe5a460c6ab480d0,
        0xeb9fe7a758b6e08d,
        0x8ec94ba5c743d4a1,
        0xd6a6b9ce7ccc8170,
        0xa0c5fd4b6741bc60,
        0x414220867bb808e8,
    ],
    [
        0x43735b186863965e,
        0xb10ecc4e3bacc11f,
        0xe9076ba292d09f60,
        0x093368edd48e4b40,
        0x6a5c474edec85eb0,
        0xa2aafd369ba02d65,
        0xe1cd5f5f55f16f69,
    ],
    [
        0xd0fccfc1790f11c8,
        0xf2897139327aab7a,
        0xde23aa247331861a,
        0x53c970e18dd57fee,
        0x2d14591aa5f32f38,
        0xb33098b16ad67791,
        0xfbcb553c8300b95d,
    ],
];

/// `fnv1a64` of the `f64`-planned then the `f32`-planned
/// `to_bytes_with_plans`, per corpus, in `GRAMMARS` × `REORDERS` order,
/// then the [`ONE_SHARD_AUTO`] build.
const PLAN_GOLDEN: [[u64; 7]; 3] = [
    [
        0x3eb0e6aff1603b34,
        0x291b2fe22660488e,
        0xb84cc008f9caf859,
        0x59626167fde06d07,
        0x773be4542a59cafd,
        0x5c2c68a0500eea8d,
        0x065ed2fdad1f0c55,
    ],
    [
        0xfb5945387f5701f1,
        0x23eb415be652e59c,
        0x6e82729c0411921e,
        0x901b56949d7d53c1,
        0x24046b566fc9e62d,
        0xaf7ec9074601d397,
        0xf37949733849b608,
    ],
    [
        0x7067066796f663bb,
        0x604a83c068d405b9,
        0x43b9c413b9b2a665,
        0xdf28c1e4c8903003,
        0xd58e102e4720f517,
        0x481b04713e752979,
        0x742f215986fccf5c,
    ],
];

/// The extra build per corpus: `Auto` grammar on a single shard, which
/// runs both candidates' construction as the build's only phase-2 task.
const ONE_SHARD_AUTO: (usize, GrammarChoice, ReorderMode) = (
    1,
    GrammarChoice::Auto,
    ReorderMode::PerShard(ReorderAlgorithm::PathCover),
);

/// The container `bytes` reloaded, prewarmed with plans at both
/// precisions in turn, and written back with its plan sections.
fn planned_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for opts in [ServeOptions::planned(), ServeOptions::planned_f32()] {
        let model = container::from_bytes(bytes).unwrap();
        model.prewarm_with(1, &opts);
        out.extend_from_slice(&container::to_bytes_with_plans(&model));
    }
    out
}

/// Builds all 21 models once, returning `(grammar hash, container hash,
/// plan hash)` tables in `CORPORA` × (`GRAMMARS` × `REORDERS`, then
/// [`ONE_SHARD_AUTO`]) order.
fn fingerprints() -> [Vec<Vec<u64>>; 3] {
    let pipeline = Pipeline::new();
    let (mut grammars, mut containers, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    for (ds, rows) in CORPORA {
        let csrv = CsrvMatrix::from_dense(&ds.generate(rows, 7)).unwrap();
        let (mut g_row, mut c_row, mut p_row) = (Vec::new(), Vec::new(), Vec::new());
        let builds = GRAMMARS
            .iter()
            .flat_map(|&grammar| REORDERS.iter().map(move |&reorder| (4, grammar, reorder)))
            .chain([ONE_SHARD_AUTO]);
        for (shards, grammar, reorder) in builds {
            let config = BuildConfig {
                shards,
                encoding: EncodingChoice::Auto,
                grammar: Some(grammar),
                reorder: Some(reorder),
                ..BuildConfig::default()
            };
            let model = ShardedModel::from_artifacts(pipeline.build(&csrv, &config));
            let mut shards = Vec::new();
            for i in 0..model.num_shards() {
                let Model::Compressed(m) = model.shard_model(i) else {
                    panic!("the default backend is compressed");
                };
                shards.extend_from_slice(&mm_repair::core::serial::to_bytes(m));
            }
            g_row.push(container::fnv1a64(&shards));
            let bytes = container::to_bytes(&model);
            c_row.push(container::fnv1a64(&bytes));
            p_row.push(container::fnv1a64(&planned_bytes(&bytes)));
        }
        grammars.push(g_row);
        containers.push(c_row);
        plans.push(p_row);
    }
    [grammars, containers, plans]
}

#[test]
fn grammar_containers_are_byte_identical_to_the_recorded_builds() {
    let [grammars, containers, plans] = fingerprints();
    let want: Vec<Vec<u64>> = GRAMMAR_GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert_eq!(
        grammars, want,
        "grammar fingerprints changed:\n{grammars:#x?}"
    );
    let want: Vec<Vec<u64>> = CONTAINER_GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert_eq!(
        containers, want,
        "container fingerprints changed:\n{containers:#x?}"
    );
    let want: Vec<Vec<u64>> = PLAN_GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert_eq!(plans, want, "plan fingerprints changed:\n{plans:#x?}");
}
