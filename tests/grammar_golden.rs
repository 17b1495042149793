//! Byte-identity pins for grammar construction.
//!
//! Every container below is built through the staged pipeline (4 shards,
//! automatic encoding) and fingerprinted with the container's own
//! FNV-1a 64 checksum. The constants were recorded from the lazy-heap
//! RePair queue; any change to how RePair or MR-RePair picks its next
//! pair — including a tie broken differently — changes a grammar and so
//! a fingerprint. A faster queue must reproduce them exactly.

use mm_repair::datagen::Dataset;
use mm_repair::matrix::CsrvMatrix;
use mm_repair::reorder::ReorderAlgorithm;
use mm_repair::serve::{
    container, BuildConfig, EncodingChoice, GrammarChoice, Pipeline, ReorderMode, ShardedModel,
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

/// `fnv1a64(to_bytes(..))` per corpus, in `GRAMMARS` × `REORDERS` order.
const GOLDEN: [[u64; 6]; 3] = [
    [
        0x28eb40fcb5f02ea9,
        0x64d02d738dafc41f,
        0x288cf572ff8f5e2d,
        0x9440488f74961ff6,
        0x28eb40fcb5f02ea9,
        0x64d02d738dafc41f,
    ],
    [
        0xdbdbeec53138eb81,
        0x3bbd8f93fc9049c9,
        0xa80c2653148dc7df,
        0xd87e6697da05b150,
        0xa80c2653148dc7df,
        0xd87e6697da05b150,
    ],
    [
        0x3e4ef62354cf1de0,
        0xf7c035723283f587,
        0xd5a4cead88d2dd36,
        0x049fc7ddc44c1cf0,
        0xd5a4cead88d2dd36,
        0xf7c035723283f587,
    ],
];

#[test]
fn grammar_containers_are_byte_identical_to_the_recorded_builds() {
    let pipeline = Pipeline::new();
    let mut got = Vec::new();
    for (ds, rows) in CORPORA {
        let csrv = CsrvMatrix::from_dense(&ds.generate(rows, 7)).unwrap();
        let mut row = Vec::new();
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
                row.push(container::fnv1a64(&container::to_bytes(&model)));
            }
        }
        got.push(row);
    }
    let want: Vec<Vec<u64>> = GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert_eq!(got, want, "container fingerprints changed:\n{got:#x?}");
}
