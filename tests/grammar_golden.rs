//! Byte-identity pins for grammar construction and the container layout.
//!
//! Every model below is built through the staged pipeline (4 shards,
//! automatic encoding) and fingerprinted twice with FNV-1a 64:
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

use mm_repair::datagen::Dataset;
use mm_repair::matrix::CsrvMatrix;
use mm_repair::reorder::ReorderAlgorithm;
use mm_repair::serve::{
    container, BuildConfig, EncodingChoice, GrammarChoice, Model, Pipeline, ReorderMode,
    ShardedModel,
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
/// in `GRAMMARS` × `REORDERS` order.
const GRAMMAR_GOLDEN: [[u64; 6]; 3] = [
    [
        0x103bf05b9170da07,
        0x34e0e27f422dfdd7,
        0xbaff639d762e92e1,
        0x33e8ed750328f0d8,
        0x103bf05b9170da07,
        0x34e0e27f422dfdd7,
    ],
    [
        0x0b0554d28658c90c,
        0xa3317bb985120220,
        0x05c5fc0eabd65dce,
        0x63f697b9a476b4da,
        0x05c5fc0eabd65dce,
        0x63f697b9a476b4da,
    ],
    [
        0xea8a2efdfee5b409,
        0xe6d78e8270bdbf04,
        0x47455c1cc57ab9c4,
        0xa877a4abdc94f224,
        0x47455c1cc57ab9c4,
        0xe6d78e8270bdbf04,
    ],
];

/// `fnv1a64(to_bytes(..))` per corpus, in `GRAMMARS` × `REORDERS` order.
/// Recorded for the version-6 layout (one shared value dictionary per
/// container); the grammars behind it are the ones [`GRAMMAR_GOLDEN`]
/// pins.
const CONTAINER_GOLDEN: [[u64; 6]; 3] = [
    [
        0xb1c1db8852227bca,
        0x8ddd6cf9fba44fe9,
        0x6652f5eda294678c,
        0xb8dfa2b9e97d078c,
        0xb1c1db8852227bca,
        0x8ddd6cf9fba44fe9,
    ],
    [
        0x939971834def82a7,
        0x037ea022ff9bd78a,
        0xc646c557321ef188,
        0xff23d052b2ce55d9,
        0xc646c557321ef188,
        0xff23d052b2ce55d9,
    ],
    [
        0xcc7a0adf0acde280,
        0x0ee3da4a1547cb3d,
        0x3af56915e613dd97,
        0xf1c2ab2f071b6608,
        0x3af56915e613dd97,
        0x0ee3da4a1547cb3d,
    ],
];

/// Builds all 18 models once, returning `(grammar hash, container hash)`
/// tables in `CORPORA` × `GRAMMARS` × `REORDERS` order.
fn fingerprints() -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let pipeline = Pipeline::new();
    let (mut grammars, mut containers) = (Vec::new(), Vec::new());
    for (ds, rows) in CORPORA {
        let csrv = CsrvMatrix::from_dense(&ds.generate(rows, 7)).unwrap();
        let (mut g_row, mut c_row) = (Vec::new(), Vec::new());
        for grammar in GRAMMARS {
            for reorder in REORDERS {
                let config = BuildConfig {
                    shards: 4,
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
                c_row.push(container::fnv1a64(&container::to_bytes(&model)));
            }
        }
        grammars.push(g_row);
        containers.push(c_row);
    }
    (grammars, containers)
}

#[test]
fn grammar_containers_are_byte_identical_to_the_recorded_builds() {
    let (grammars, containers) = fingerprints();
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
}
