//! Containers written before the writer settled on versions 5 and 6
//! keep working.
//!
//! The fixtures were written by older `gcm` builds from
//! `gcm gen census 400` (seed 42):
//!
//! * `census400_v5.gcms` — `gcm compress --grammar auto --shards 4
//!   --emit-plans`: version 5, four shards each embedding `V`, f64 plans
//!   (written before version 6 stored one value dictionary per
//!   container);
//! * `census400_v4.gcms` — `gcm compress --shards 4 --emit-plans
//!   --plan-f32`: version 4, no grammar metadata, f32 plans;
//! * `census400_v3.gcms` — `gcm compress --encoding re_fse --reorder
//!   pathcover`: version 3, one `re_fse` shard with its reorder tag;
//! * `census400_v2.gcms` — `gcm compress --backend csrv --shards 4
//!   --reorder pathcover --reorder-scope shard`: version 2, four csrv
//!   shards, each with its own permutation.
//!
//! Versions 1 to 4 are read-only now. Every fixture must load, report its
//! own version, and multiply bit-identically to a fresh build with the
//! same flags; and a version-5 base must splice into output
//! `cmp`-identical to a fresh version-6 build.

use gcm_datagen::Dataset;
use gcm_matrix::CsrvMatrix;
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::container::{
    self, VERSION_ENCODINGS, VERSION_GRAMMAR, VERSION_PER_SHARD, VERSION_PLANS, VERSION_SHARED_DICT,
};
use gcm_serve::{
    compress_incremental, Backend, BuildConfig, BuildOptions, EncodingChoice, GrammarChoice,
    ReorderMode, ServeOptions, ShardTable, ShardedModel,
};

const V5: &[u8] = include_bytes!("fixtures/census400_v5.gcms");
const V4: &[u8] = include_bytes!("fixtures/census400_v4.gcms");
const V3: &[u8] = include_bytes!("fixtures/census400_v3.gcms");
const V2: &[u8] = include_bytes!("fixtures/census400_v2.gcms");

fn census() -> CsrvMatrix {
    CsrvMatrix::from_dense(&Dataset::Census.generate(400, 42)).unwrap()
}

/// The `gcm compress --shards 4` configuration, plus `--grammar` when
/// `grammar` is set.
fn config(grammar: Option<GrammarChoice>) -> BuildConfig {
    BuildConfig {
        shards: 4,
        grammar,
        ..BuildOptions::default().to_build_config()
    }
}

/// A fresh build of `csrv` written with its plans, as `gcm compress
/// --emit-plans` writes it.
fn fresh(csrv: &CsrvMatrix, config: &BuildConfig, serve: &ServeOptions) -> Vec<u8> {
    let model = ShardedModel::from_artifacts(gcm_pipeline::global().build(csrv, config));
    model.prewarm_with(1, serve);
    container::to_bytes_with_plans(&model)
}

/// Right products at widths 1 and 8 and the left product, as raw bits.
fn products(model: &ShardedModel) -> Vec<u64> {
    let (rows, cols) = (model.rows(), model.cols());
    let mut out = Vec::new();
    for k in [1usize, 8] {
        let x: Vec<f64> = (0..cols * k).map(|i| (i % 7) as f64 * 0.25 - 0.5).collect();
        let mut y = vec![0.0; rows * k];
        model.right_multiply_panel(k, &x, &mut y).unwrap();
        out.extend(y.iter().map(|v| v.to_bits()));
    }
    let y: Vec<f64> = (0..rows).map(|i| (i % 5) as f64 - 2.0).collect();
    let mut x = vec![0.0; cols];
    model.left_multiply_panel(1, &y, &mut x).unwrap();
    out.extend(x.iter().map(|v| v.to_bits()));
    out
}

#[test]
fn legacy_fixtures_load_and_multiply_like_the_version6_build() {
    let csrv = census();
    let pathcover = ReorderAlgorithm::PathCover;
    let v2_config = BuildConfig {
        backend: Backend::Csrv,
        reorder: Some(ReorderMode::PerShard(pathcover)),
        ..config(None)
    };
    let v3_config = BuildConfig {
        encoding: EncodingChoice::Fixed(gcm_core::Encoding::ReFse),
        shards: 1,
        reorder: Some(ReorderMode::Global(pathcover)),
        ..config(None)
    };
    for (bytes, version, config, serve, fresh_version) in [
        (
            V5,
            VERSION_GRAMMAR,
            config(Some(GrammarChoice::Auto)),
            ServeOptions::planned(),
            VERSION_SHARED_DICT,
        ),
        (
            V4,
            VERSION_PLANS,
            config(None),
            ServeOptions::planned_f32(),
            VERSION_SHARED_DICT,
        ),
        (
            V3,
            VERSION_ENCODINGS,
            v3_config,
            ServeOptions::default(),
            VERSION_GRAMMAR,
        ),
        (
            V2,
            VERSION_PER_SHARD,
            v2_config,
            ServeOptions::default(),
            VERSION_GRAMMAR,
        ),
    ] {
        let table = ShardTable::parse(bytes).unwrap();
        assert_eq!(table.version, version);
        assert!(table.dictionary.is_none(), "v{version} embeds V per shard");
        let legacy = ShardedModel::from_bytes(bytes).unwrap();
        assert_eq!(legacy.num_shards(), config.shards);
        assert_eq!(
            legacy.is_planned(),
            serve.plans,
            "v{version}: plans cast on load"
        );
        assert_eq!(legacy.is_planned_f32(), serve.plan_f32);
        for i in 0..config.shards {
            assert_eq!(
                legacy.shard_reorder(i),
                config.reorder.map(|r| r.algorithm()),
                "v{version}"
            );
        }

        let rebuilt = fresh(&csrv, &config, &serve);
        assert_eq!(rebuilt[8], fresh_version, "v{version}");
        let current = ShardedModel::from_bytes(&rebuilt).unwrap();
        assert_eq!(current.is_planned(), serve.plans);
        assert_eq!(
            products(&legacy),
            products(&current),
            "v{version} fixture must multiply bit-identically to a fresh build"
        );
        if fresh_version != VERSION_SHARED_DICT {
            assert_eq!(legacy.stored_bytes(), current.stored_bytes(), "v{version}");
            continue;
        }
        // The old layout stores, and counts, one dictionary per shard.
        let v_bytes = csrv.values().len() * 8;
        assert_eq!(
            legacy.stored_bytes() - current.stored_bytes(),
            3 * v_bytes,
            "v{version}"
        );
        if version == VERSION_GRAMMAR {
            // Same shard table and plan blobs: the container shrinks by
            // three copies of `V` (each `|V|` varint + doubles), less the
            // four one-byte `|V| = 0` markers of the dictionary-free
            // payloads.
            let mut len = Vec::new();
            gcm_encodings::varint::write_u64(&mut len, csrv.values().len() as u64);
            assert_eq!(bytes.len() - rebuilt.len(), 3 * (len.len() + v_bytes) - 4);
        }
    }
}

#[test]
fn version5_base_splices_into_output_identical_to_a_fresh_version6_build() {
    let config = config(Some(GrammarChoice::Auto));
    let csrv = census();
    let (bytes, report) = compress_incremental(&csrv, &config, V5).unwrap();
    assert_eq!(report.full_reason, None);
    assert_eq!(report.spliced(), 4, "the fixture's fingerprints match");
    assert_eq!(report.grammar_builds, 0);
    assert_eq!(bytes, fresh(&csrv, &config, &ServeOptions::planned()));

    // A one-row edit that reuses interned values: the last row takes the
    // one before it, so only the final shard is rebuilt.
    let mut dense = Dataset::Census.generate(400, 42);
    for c in 0..dense.cols() {
        dense.set(399, c, dense.get(398, c));
    }
    let edited = CsrvMatrix::from_dense(&dense).unwrap();
    assert_eq!(edited.values(), csrv.values(), "the edit keeps V");
    let (bytes, report) = compress_incremental(&edited, &config, V5).unwrap();
    assert_eq!(report.full_reason, None);
    assert_eq!((report.spliced(), report.rebuilt()), (3, 1));
    assert_eq!(bytes, fresh(&edited, &config, &ServeOptions::planned()));
}

#[test]
fn version4_base_falls_back_to_a_named_full_rebuild() {
    let config = config(Some(GrammarChoice::Auto));
    let csrv = census();
    let (bytes, report) = compress_incremental(&csrv, &config, V4).unwrap();
    assert_eq!(report.rebuilt(), 4);
    let reason = report.full_reason.expect("a v4 base cannot splice");
    assert!(reason.contains("no fingerprints"), "{reason}");
    // The base's f32 plan policy carries over into the rebuild.
    assert_eq!(bytes, fresh(&csrv, &config, &ServeOptions::planned_f32()));
}
