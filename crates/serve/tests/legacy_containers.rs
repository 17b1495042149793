//! Containers written before the writer settled on version 8 keep
//! working.
//!
//! The fixtures were written by older `gcm` builds from
//! `gcm gen census 400` (seed 42):
//!
//! * `census400_v7.gcms` — `gcm compress --grammar auto --shards 4
//!   --reorder pathcover --reorder-scope shard`: version 7, one `V`,
//!   per-shard permutations, build-plan fingerprints, no plans, one
//!   FNV-1a per checksum chunk (written before version 8 summed each
//!   chunk with the four-lane word sum);
//! * `census400_v6.gcms` — `gcm compress --shards 4 --encoding auto
//!   --emit-plans --plan-f32`: version 6, one `V` for four shards,
//!   fingerprints of the input rows alone, f32 plans, one whole-file
//!   checksum (written before version 7);
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
//! Versions 1 to 7 are read-only now. Every fixture must load, report its
//! own version, and multiply bit-identically to a fresh build with the
//! same flags. A version-7 base splices: its fingerprints cover the build
//! plan, and the spliced container equals a fresh version-8 build byte
//! for byte. A version-5 or -6 base cannot splice — its fingerprints do
//! not cover the build plan — so `--base` falls back to a full rebuild,
//! named in the report, whose bytes equal a fresh version-8 build.

use gcm_datagen::Dataset;
use gcm_matrix::CsrvMatrix;
use gcm_reorder::ReorderAlgorithm;
use gcm_serve::container::{
    self, VERSION_CHUNKED, VERSION_ENCODINGS, VERSION_GRAMMAR, VERSION_LANE_SUM, VERSION_PER_SHARD,
    VERSION_PLANS, VERSION_SHARED_DICT,
};
use gcm_serve::{
    compress_incremental, Backend, BuildConfig, EncodingChoice, GrammarChoice, ReorderMode,
    ServeOptions, ShardTable, ShardedModel,
};

const V7: &[u8] = include_bytes!("fixtures/census400_v7.gcms");
const V6: &[u8] = include_bytes!("fixtures/census400_v6.gcms");
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
        ..BuildConfig::default()
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

/// The configuration `census400_v7.gcms` was written with.
fn v7_config() -> BuildConfig {
    BuildConfig {
        reorder: Some(ReorderMode::PerShard(ReorderAlgorithm::PathCover)),
        ..config(Some(GrammarChoice::Auto))
    }
}

/// The configuration `census400_v6.gcms` was written with.
fn v6_config() -> BuildConfig {
    BuildConfig {
        encoding: EncodingChoice::Auto,
        ..config(None)
    }
}

#[test]
fn legacy_fixtures_load_and_multiply_like_the_version7_build() {
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
    for (bytes, version, config, serve) in [
        (V7, VERSION_CHUNKED, v7_config(), ServeOptions::default()),
        (
            V6,
            VERSION_SHARED_DICT,
            v6_config(),
            ServeOptions::planned_f32(),
        ),
        (
            V5,
            VERSION_GRAMMAR,
            config(Some(GrammarChoice::Auto)),
            ServeOptions::planned(),
        ),
        (V4, VERSION_PLANS, config(None), ServeOptions::planned_f32()),
        (V3, VERSION_ENCODINGS, v3_config, ServeOptions::default()),
        (V2, VERSION_PER_SHARD, v2_config, ServeOptions::default()),
    ] {
        let table = ShardTable::parse(bytes).unwrap();
        assert_eq!(table.version, version);
        assert_eq!(
            table.checksum_chunks, 1,
            "v{version}: one sum (a whole-file sum below version 7)"
        );
        assert_eq!(
            table.dictionary.is_some(),
            version >= VERSION_SHARED_DICT,
            "v{version} embeds V per shard"
        );
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
                legacy.shard_meta(i).reorder,
                config.reorder.map(|r| r.algorithm()),
                "v{version}"
            );
        }

        let rebuilt = fresh(&csrv, &config, &serve);
        assert_eq!(rebuilt[8], VERSION_LANE_SUM, "v{version}");
        let current = ShardedModel::from_bytes(&rebuilt).unwrap();
        assert_eq!(current.is_planned(), serve.plans);
        assert_eq!(
            products(&legacy),
            products(&current),
            "v{version} fixture must multiply bit-identically to a fresh build"
        );
        // Up to version 5 the file stores, and the load counts, one
        // dictionary per shard; versions 6 and 7 and every fresh build
        // one.
        let v_bytes = csrv.values().len() * 8;
        let copies = if version >= VERSION_SHARED_DICT {
            1
        } else {
            config.shards
        };
        assert_eq!(
            legacy.stored_bytes() - current.stored_bytes(),
            (copies - 1) * v_bytes,
            "v{version}"
        );
        let fresh_table = ShardTable::parse(&rebuilt).unwrap();
        if version == VERSION_CHUNKED {
            // The version-7 layout, with the version byte and the
            // trailer sums its only differences.
            let body = bytes.len() - 8 * table.checksum_chunks;
            assert_eq!(bytes.len(), rebuilt.len());
            assert_eq!(bytes[..8], rebuilt[..8]);
            assert_eq!(bytes[9..body], rebuilt[9..body]);
            assert_ne!(bytes[body..], rebuilt[body..]);
        }
        if version == VERSION_SHARED_DICT {
            // The version-6 layout, with the version byte, fingerprints
            // and checksum its only differences: the same dictionary,
            // payloads and plan blobs, byte for byte.
            assert_eq!(bytes.len(), rebuilt.len());
            let ranges = |t: &ShardTable| {
                let mut r = vec![t.dictionary.clone().unwrap()];
                r.extend(t.shard_ranges.iter().cloned());
                r.extend(t.plan_ranges.iter().flatten().cloned());
                r
            };
            for (a, b) in ranges(&table).into_iter().zip(ranges(&fresh_table)) {
                assert_eq!(bytes[a], rebuilt[b]);
            }
        }
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

/// Splicing a version-5 or -6 base would trust fingerprints that cover
/// only the input rows and `V`; both fall back to a full rebuild with a
/// named reason, and keep their plan policy.
#[test]
fn version5_and_6_bases_fall_back_to_a_named_full_rebuild() {
    let csrv = census();
    for (base, version, config, serve) in [
        (
            V5,
            VERSION_GRAMMAR,
            config(Some(GrammarChoice::Auto)),
            ServeOptions::planned(),
        ),
        (
            V6,
            VERSION_SHARED_DICT,
            v6_config(),
            ServeOptions::planned_f32(),
        ),
    ] {
        let (bytes, report) = compress_incremental(&csrv, &config, base).unwrap();
        assert_eq!(report.rebuilt(), 4);
        let reason = report.full_reason.expect("a pre-v7 base cannot splice");
        assert!(
            reason.contains(&format!("version {version}")) && reason.contains("not the build plan"),
            "{reason}"
        );
        assert_eq!(bytes[8], VERSION_LANE_SUM);
        assert_eq!(bytes, fresh(&csrv, &config, &serve), "v{version}");
    }
}

/// A version-7 base fingerprints the build plan, as version 8 does, so
/// `--base` splices against it: unchanged input splices every shard, a
/// one-row edit that reuses interned values rebuilds only the last
/// shard, and both write the bytes of a fresh version-8 build.
#[test]
fn version7_base_splices_into_a_fresh_version8_build() {
    let config = v7_config();
    let serve = ServeOptions::default();
    let csrv = census();
    let (bytes, report) = compress_incremental(&csrv, &config, V7).unwrap();
    assert_eq!(report.full_reason, None);
    assert_eq!(report.spliced(), 4);
    assert_eq!(bytes[8], VERSION_LANE_SUM);
    assert_eq!(bytes, fresh(&csrv, &config, &serve));

    let mut dense = Dataset::Census.generate(400, 42);
    for c in 0..dense.cols() {
        dense.set(399, c, dense.get(398, c));
    }
    let edited = CsrvMatrix::from_dense(&dense).unwrap();
    assert_eq!(edited.values(), csrv.values(), "the edit reuses V");
    let (bytes, report) = compress_incremental(&edited, &config, V7).unwrap();
    assert_eq!(report.full_reason, None);
    assert_eq!((report.spliced(), report.rebuilt()), (3, 1));
    assert_eq!(bytes, fresh(&edited, &config, &serve));
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
