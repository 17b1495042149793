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
/// then the [`ONE_SHARD_AUTO`] build (a version-5 container). Recorded for the version-6 layout (one shared value dictionary per
/// container); the grammars behind it are the ones [`GRAMMAR_GOLDEN`]
/// pins.
const CONTAINER_GOLDEN: [[u64; 7]; 3] = [
    [
        0xb1c1db8852227bca,
        0x8ddd6cf9fba44fe9,
        0x6652f5eda294678c,
        0xb8dfa2b9e97d078c,
        0xb1c1db8852227bca,
        0x8ddd6cf9fba44fe9,
        0xd29a313c0d7d5a6d,
    ],
    [
        0x939971834def82a7,
        0x037ea022ff9bd78a,
        0xc646c557321ef188,
        0xff23d052b2ce55d9,
        0xc646c557321ef188,
        0xff23d052b2ce55d9,
        0x4dd9f4d333e84255,
    ],
    [
        0xcc7a0adf0acde280,
        0x0ee3da4a1547cb3d,
        0x3af56915e613dd97,
        0xf1c2ab2f071b6608,
        0x3af56915e613dd97,
        0x0ee3da4a1547cb3d,
        0x38ec452633733496,
    ],
];

/// `fnv1a64` of the `f64`-planned then the `f32`-planned
/// `to_bytes_with_plans`, per corpus, in `GRAMMARS` × `REORDERS` order,
/// then the [`ONE_SHARD_AUTO`] build.
const PLAN_GOLDEN: [[u64; 7]; 3] = [
    [
        0x214a511982d18aad,
        0xe63430f076950f3a,
        0x9f9c7fdae71ad1be,
        0xaedf44cf914bfffe,
        0x214a511982d18aad,
        0xe63430f076950f3a,
        0xccf8d35c0bc95d79,
    ],
    [
        0x37ef1077bf5857c7,
        0xca5d024e89c92851,
        0x6e90a9e7d0729b35,
        0x14ab857efd215135,
        0x6e90a9e7d0729b35,
        0x14ab857efd215135,
        0x58537d50c31ecaa1,
    ],
    [
        0x97432ad8543cf988,
        0xbe70fb500a453dd3,
        0x7efbadca246fcf0a,
        0xbf1e5022f6793c77,
        0x7efbadca246fcf0a,
        0xbe70fb500a453dd3,
        0x2bbbec710e9c447f,
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
