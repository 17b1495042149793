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
/// then the [`ONE_SHARD_AUTO`] build. Recorded for the version-8 layout
/// (one value dictionary per container, build-plan fingerprints, one
/// four-lane word sum per checksum chunk); the grammars behind it are
/// the ones [`GRAMMAR_GOLDEN`] pins. Apart from the version byte and the
/// trailer sums, these containers are the version-7 bytes recorded
/// before them.
const CONTAINER_GOLDEN: [[u64; 7]; 3] = [
    [
        0x597297dd6fc62d22,
        0x8fba7123bc55b815,
        0x37e1ac1933742830,
        0xaf07a1628bebdb8a,
        0x956aa2d5b1d4ea88,
        0x7a922d19b6f11610,
        0x3f103116c57d8af5,
    ],
    [
        0x08b4fd98c660d1ed,
        0x3adbdd8a249e4f14,
        0x4340f380a6eadf5f,
        0x5356dde6ad93eb6a,
        0xf28af83a8d342469,
        0x50fc416c9939043c,
        0xa2ea4e6e957f4a7f,
    ],
    [
        0xc01fcb4b0e496c2a,
        0x74f4aaa7de7ffbc9,
        0xae3b6176f5901da2,
        0x16e6105597a966f3,
        0xae3ba07b742a636f,
        0xf230fa0357dddc5f,
        0xa2233c1e6c1fbaae,
    ],
];

/// `fnv1a64` of the `f64`-planned then the `f32`-planned
/// `to_bytes_with_plans`, per corpus, in `GRAMMARS` × `REORDERS` order,
/// then the [`ONE_SHARD_AUTO`] build.
const PLAN_GOLDEN: [[u64; 7]; 3] = [
    [
        0x550de36506006ff1,
        0x052edb8fcb1fe865,
        0xb5f8f37894b24438,
        0xa7ea0480dae27d6d,
        0xb87510cf77979f65,
        0x429c2ec6f432259b,
        0x39531d8cdc2aa591,
    ],
    [
        0x5fb8f42cbc5d9761,
        0x6ab7bc2632a1779c,
        0x4dc605e1cc9e564d,
        0xfbcdc5d4789aed3f,
        0x956387f7cd9864e2,
        0x1de8e0c3efc208a3,
        0x36c53893a8e53c54,
    ],
    [
        0x1cbfab116c298652,
        0x8ec8bc3d9614ca75,
        0xa77808b0664e7bb7,
        0x8e08bc292783ce3e,
        0x521545ac9220197f,
        0xb2f6a0b5e0d13616,
        0x26e5d922c37a4b22,
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
