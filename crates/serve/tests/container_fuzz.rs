//! Deterministic corruption fuzzing of the `GCMSERV1` container.
//!
//! For every backend: serialise a sharded model, then (a) truncate at
//! every byte boundary and (b) flip bits in every byte. Loading must
//! fail cleanly in all cases — the FNV-64 checksums of the trailer make
//! *any* single-byte corruption detectable, and the structural validators
//! behind it guarantee that even a forged checksum cannot panic a
//! kernel (that layer is fuzzed separately in
//! `crates/core/tests/serial_fuzz.rs`).
//!
//! Every case loads through both loaders ([`load_both`]): the
//! overlapped `from_bytes`, which verifies the checksum chunks while it
//! decodes, must reach exactly the outcome of the verify-first
//! `from_bytes_sequential`.

use gcm_bench::{alloc, TrackingAlloc};
use gcm_core::{CompressedMatrix, Encoding};
use gcm_encodings::varint;
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, RowBlocks};
use gcm_serve::container::{self, fnv1a64};
use gcm_serve::{Backend, BuildConfig, ServeError, ServeOptions, ShardTable, ShardedModel};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

/// Loads `bytes` through the overlapped [`container::from_bytes`] and
/// the verify-first [`container::from_bytes_sequential`], asserting the
/// same outcome: both `Ok` with bit-identical right and left products,
/// or both `Err` with the same message. Returns the overlapped result.
fn load_both(bytes: &[u8]) -> Result<ShardedModel, ServeError> {
    let overlapped = container::from_bytes(bytes);
    let sequential = container::from_bytes_sequential(bytes);
    match (&overlapped, &sequential) {
        (Ok(a), Ok(b)) => assert_eq!(products(a), products(b), "loaders disagree on products"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "loaders disagree"),
        (a, b) => panic!(
            "loaders disagree: {:?} vs {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        ),
    }
    overlapped
}

/// The bit patterns of `model`'s right and left products on fixed
/// non-zero vectors.
fn products(model: &ShardedModel) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let x: Vec<f64> = (0..model.cols()).map(|j| j as f64 * 0.75 - 2.0).collect();
    let mut y = vec![0.0; model.rows()];
    model.right_multiply_panel(1, &x, &mut y).unwrap();
    let y_in: Vec<f64> = (0..model.rows()).map(|i| (i % 5) as f64 - 1.5).collect();
    let mut x_out = vec![0.0; model.cols()];
    model.left_multiply_panel(1, &y_in, &mut x_out).unwrap();
    (bits(y), bits(x_out))
}

fn sample_container(backend: Backend) -> Vec<u8> {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let opts = BuildConfig {
        backend,
        shards: 3,
        ..BuildConfig::default()
    };
    ShardedModel::from_dense(&dense, &opts).unwrap().to_bytes()
}

/// Containers of the read-only versions 2, 3 and 6, written by an older
/// `gcm` (see `legacy_containers.rs`): the writer now emits only
/// version 7, so [`sample_container`] no longer covers them.
const LEGACY_FIXTURES: [(&str, &[u8]); 3] = [
    ("v2", include_bytes!("fixtures/census400_v2.gcms")),
    ("v3", include_bytes!("fixtures/census400_v3.gcms")),
    ("v6", include_bytes!("fixtures/census400_v6.gcms")),
];

#[test]
fn truncation_at_every_boundary_is_rejected() {
    let samples = Backend::ALL
        .into_iter()
        .map(|b| (b.name(), sample_container(b)));
    let fixtures = LEGACY_FIXTURES.map(|(name, bytes)| (name, bytes.to_vec()));
    for (name, bytes) in samples.chain(fixtures) {
        for cut in truncation_points(&bytes) {
            assert!(
                load_both(&bytes[..cut]).is_err(),
                "{name}: truncation at {cut}/{} must be rejected",
                bytes.len()
            );
        }
        assert!(load_both(&bytes).is_ok());
    }
}

/// The truncation points swept for `bytes`: every boundary of a
/// container up to 16 KiB. Above that (the 50 KB version-2 fixture),
/// every boundary outside the shard payloads or within 64 bytes of a
/// payload's ends, and every 64th one inside a payload: each cut
/// re-hashes the prefix, so a full sweep costs quadratic time.
fn truncation_points(bytes: &[u8]) -> Vec<usize> {
    if bytes.len() <= 16 << 10 {
        return (0..bytes.len()).collect();
    }
    let payloads = ShardTable::parse(bytes).unwrap().shard_ranges;
    (0..bytes.len())
        .filter(|&cut| {
            cut % 64 == 0
                || payloads
                    .iter()
                    .all(|r| cut < r.start + 64 || cut + 64 > r.end)
        })
        .collect()
}

#[test]
fn byte_flips_at_every_offset_are_rejected() {
    for backend in Backend::ALL {
        let bytes = sample_container(backend);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                assert!(
                    load_both(&mutated).is_err(),
                    "{}: flip {flip:#04x} at byte {i} must be rejected",
                    backend.name()
                );
            }
        }
    }
}

/// Forges a `GCMSERV1` container with a **valid checksum** but
/// attacker-chosen header fields and declared shard lengths, so only
/// the structural validators stand between the input and an allocation.
fn forge(rows: u64, cols: u64, backend_tag: u8, shards: &[(u64, &[u8])]) -> Vec<u8> {
    let mut out = b"GCMSERV1".to_vec();
    out.push(1); // version
    out.push(backend_tag);
    varint::write_u64(&mut out, rows);
    varint::write_u64(&mut out, cols);
    varint::write_u64(&mut out, shards.len() as u64);
    for (declared_len, payload) in shards {
        varint::write_u64(&mut out, *declared_len);
        out.extend_from_slice(payload);
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Loads `bytes`, asserting rejection *and* that the loader never
/// reserved anything close to what the inflated length field promised.
fn assert_rejected_without_big_allocation(name: &str, bytes: &[u8]) {
    const BUDGET: usize = 1 << 20; // 1 MiB — absurd lengths claim GiBs
    let live = alloc::reset_peak();
    assert!(
        load_both(bytes).is_err(),
        "{name}: forged container must be rejected"
    );
    let grown = alloc::peak_bytes().saturating_sub(live);
    assert!(
        grown < BUDGET,
        "{name}: rejection allocated {grown} bytes — the inflated length sized a reservation"
    );
}

#[test]
fn inflated_lengths_with_valid_checksums_are_rejected_before_allocation() {
    let csrv = Backend::Csrv.tag();

    // Shard length claims ~2^60 bytes that are not there.
    assert_rejected_without_big_allocation(
        "inflated shard length",
        &forge(4, 2, csrv, &[(1u64 << 60, b"")]),
    );

    // Header column count past u32 (column indices are u32 on disk).
    assert_rejected_without_big_allocation(
        "implausible cols",
        &forge(4, (1u64 << 32) + 7, csrv, &[(1, b"\0")]),
    );

    // Header row count past any plausible matrix.
    assert_rejected_without_big_allocation(
        "implausible rows",
        &forge(1u64 << 60, 2, csrv, &[(1, b"\0")]),
    );

    // Header row count just past u32 (row counts are u32-bounded on
    // disk, and the bare `as usize` narrowing this guards used to
    // truncate it to 7 on 32-bit targets).
    assert_rejected_without_big_allocation(
        "rows just past u32",
        &forge((1u64 << 32) + 7, 2, csrv, &[(1, b"\0")]),
    );

    // Column-order length prefix claims cols entries (2^31 × 4 bytes =
    // 8 GiB) with an empty payload behind it.
    let huge_cols = 1u64 << 31;
    let mut order_payload = Vec::new();
    varint::write_u64(&mut order_payload, huge_cols);
    assert_rejected_without_big_allocation(
        "inflated column-order length",
        &forge(
            4,
            huge_cols,
            csrv,
            &[(order_payload.len() as u64, &order_payload)],
        ),
    );

    // parcsrv block count far beyond the bytes that could encode it.
    let mut par_payload = Vec::new();
    varint::write_u64(&mut par_payload, 0); // no column order
    varint::write_u64(&mut par_payload, 1u64 << 40); // blocks
    assert_rejected_without_big_allocation(
        "inflated parcsrv block count",
        &forge(
            4,
            2,
            1, // the retired `parcsrv` backend's tag
            &[(par_payload.len() as u64, &par_payload)],
        ),
    );

    // Control: a genuine container still loads with the allocator
    // installed (the harness itself is sound).
    let good = sample_container(Backend::Csrv);
    assert!(load_both(&good).is_ok());
}

/// The 26 × 7 matrix behind the legacy-path tests below.
fn legacy_sample() -> CsrvMatrix {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    CsrvMatrix::from_dense(&dense).unwrap()
}

/// [`legacy_sample`] split into `b` row blocks, each compressed with
/// `re_ans` — the block list a multi-block `GCMMAT2` bundle persists.
fn legacy_blocks(b: usize) -> Vec<CompressedMatrix> {
    RowBlocks::split(&legacy_sample(), b)
        .blocks()
        .iter()
        .map(|block| CompressedMatrix::compress(block, Encoding::ReAns))
        .collect()
}

/// Containers of the retired in-shard row-block backends — tag 1
/// (`parcsrv`) and tag 3 (`blocked`) — are refused at the tag with a
/// named error that points at the replacement, behind a valid checksum
/// and before any payload or inflated length sizes an allocation.
#[test]
fn retired_backend_tags_are_rejected_by_name() {
    // What a `blocked` shard payload looked like: a multi-block bundle.
    let payload = gcm_core::serial::bundle_to_bytes(&legacy_blocks(2), None);
    for (tag, name) in [(1u8, "parcsrv"), (3, "blocked")] {
        for forged in [
            forge(26, 7, tag, &[(payload.len() as u64, &payload)]),
            forge(26, 7, tag, &[(1u64 << 60, b"")]),
        ] {
            assert_rejected_without_big_allocation(name, &forged);
            for err in [
                load_both(&forged).expect_err(name),
                ShardTable::parse(&forged).expect_err(name),
            ] {
                let msg = err.to_string();
                assert!(
                    matches!(err, ServeError::RetiredBackend { tag: t, name: n } if t == tag && n == name),
                    "{name}: {msg}"
                );
                assert!(msg.contains(name), "{msg}");
                assert!(
                    msg.contains("--backend compressed|csrv --shards N"),
                    "{msg}"
                );
            }
        }
    }
}

/// A bare multi-block `GCMMAT2` payload (the row blocks of one matrix
/// plus its column order) loads as one compressed shard per block, each
/// carrying the bundle's order, and multiplies bit-identically to the
/// blocks' own streaming kernels: the right product block by block, the
/// left product as the sum of the block partials in row order (§4.1).
#[test]
fn bare_multi_block_bundles_load_as_one_shard_per_block() {
    let blocks = legacy_blocks(3);
    let order: Vec<u32> = (0..7).rev().collect();
    let bytes = gcm_core::serial::bundle_to_bytes(&blocks, Some(&order));
    let model = load_both(&bytes).expect("bare GCMMAT2 loads");
    assert_eq!(model.backend(), Backend::Compressed);
    assert_eq!(model.num_shards(), 3);
    for (i, block) in blocks.iter().enumerate() {
        assert_eq!(model.shard_rows(i), block.rows());
        assert_eq!(model.shard_meta(i).col_order.as_deref(), Some(&order[..]));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let x: Vec<f64> = (0..7).map(|j| j as f64 * 0.75 - 2.0).collect();
    let y: Vec<f64> = (0..26).map(|i| (i % 5) as f64 - 1.5).collect();
    let (mut y_blocks, mut x_blocks) = (Vec::new(), vec![0.0; 7]);
    let mut offset = 0;
    for block in &blocks {
        let mut y_part = vec![0.0; block.rows()];
        block.right_multiply(&x, &mut y_part).unwrap();
        y_blocks.extend(y_part);
        let mut x_part = vec![0.0; 7];
        block
            .left_multiply(&y[offset..offset + block.rows()], &mut x_part)
            .unwrap();
        for (acc, p) in x_blocks.iter_mut().zip(&x_part) {
            *acc += p;
        }
        offset += block.rows();
    }
    let mut y_model = vec![0.0; 26];
    model.right_multiply_panel(1, &x, &mut y_model).unwrap();
    assert_eq!(bits(&y_blocks), bits(&y_model), "right");
    let mut x_model = vec![0.0; 7];
    model.left_multiply_panel(1, &y, &mut x_model).unwrap();
    assert_eq!(bits(&x_blocks), bits(&x_model), "left");
}

/// Forged `re_fse` shard payloads behind a **valid checksum**: truncated
/// and header-corrupted tANS streams must be rejected by the structural
/// validators — cleanly, and without the declared lengths sizing any
/// large reservation.
#[test]
fn forged_re_fse_shard_payloads_are_rejected_within_budget() {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let cm = CompressedMatrix::compress(&csrv, Encoding::ReFse);
    let payload = gcm_core::serial::bundle_to_bytes(std::slice::from_ref(&cm), None);
    let tag = Backend::Compressed.tag();

    // Truncations of the genuine payload inside the FSE tail.
    for cut in [payload.len() - 1, payload.len() - 8, payload.len() / 2] {
        assert_rejected_without_big_allocation(
            "truncated re_fse shard payload",
            &forge(26, 7, tag, &[(cut as u64, &payload[..cut])]),
        );
    }

    // Every single-byte corruption of the shard payload, re-checksummed
    // so only the structural validators stand in the way: loading must
    // reject or produce a model that safely multiplies.
    for i in 0..payload.len() {
        for flip in [0x01u8, 0xFF] {
            let mut mutated = payload.clone();
            mutated[i] ^= flip;
            let container = forge(26, 7, tag, &[(mutated.len() as u64, &mutated)]);
            let live = alloc::reset_peak();
            if let Ok(model) = load_both(&container) {
                let x = vec![1.0; model.cols()];
                let mut y = vec![0.0; model.rows()];
                model.right_multiply_panel(1, &x, &mut y).unwrap();
            }
            let grown = alloc::peak_bytes().saturating_sub(live);
            assert!(
                grown < (1 << 20),
                "re_fse flip {flip:#04x} at byte {i} allocated {grown} bytes"
            );
        }
    }

    // Control: the genuine payload loads through the forged framing.
    let good = forge(26, 7, tag, &[(payload.len() as u64, &payload)]);
    assert!(load_both(&good).is_ok());
}

/// Rewrites the checksum trailer so a mutated body reaches the
/// structural validators instead of dying at the checksum gate.
fn refresh_checksum(bytes: &mut [u8]) {
    container::reseal(bytes);
}

/// Version-4 plan sections behind a valid checksum: truncations are
/// rejected, and every single-byte corruption of the section either
/// fails plan validation or yields a plan that still multiplies safely
/// — never a panic, never an attacker-sized allocation.
#[test]
fn forged_plan_sections_are_rejected_within_budget() {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let opts = BuildConfig {
        backend: Backend::Compressed,
        shards: 3,
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_dense(&dense, &opts).unwrap();
    model.prewarm_with(1, &ServeOptions::planned());
    let bytes = model.to_bytes_with_plans();
    let table = ShardTable::parse(&bytes).unwrap();
    assert!(table.plan_bytes() > 0, "sample must carry a plan section");

    // Truncation at every boundary of the v4 container is rejected.
    for cut in 0..bytes.len() {
        assert!(
            load_both(&bytes[..cut]).is_err(),
            "v4 truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }

    // Single-byte corruption across the whole plan section (kind bytes,
    // blob length varints, and blob interiors), re-checksummed so only
    // the plan validators stand in the way.
    let section_start = table
        .plan_ranges
        .iter()
        .flatten()
        .map(|r| r.start)
        .min()
        .unwrap();
    let section_end = table
        .plan_ranges
        .iter()
        .flatten()
        .map(|r| r.end)
        .max()
        .unwrap();
    for i in section_start..section_end {
        for flip in [0x01u8, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            refresh_checksum(&mut mutated);
            let live = alloc::reset_peak();
            // A flipped multiplier byte still decodes to a valid plan;
            // flipped indices must be caught by the bounds validators.
            if let Ok(model) = load_both(&mutated) {
                let x = vec![1.0; model.cols()];
                let mut y = vec![0.0; model.rows()];
                model.right_multiply_panel(1, &x, &mut y).unwrap();
            }
            let grown = alloc::peak_bytes().saturating_sub(live);
            assert!(
                grown < (1 << 20),
                "plan-section flip {flip:#04x} at byte {i} allocated {grown} bytes"
            );
        }
    }

    // Control: the untouched v4 container loads and serves.
    let back = load_both(&bytes).unwrap();
    assert!(back.is_planned());
}

/// Grammar metadata and incrementally **spliced** plan sections behind a
/// valid checksum: the fuzz target is a container produced by
/// `compress_incremental` (some shards spliced byte-ranges from a base,
/// one rebuilt), because that is the writer most likely to misalign a
/// section (the value dictionary sits ahead of them). Truncation at every
/// boundary is rejected; every single-byte corruption — dictionary,
/// grammar tags, fingerprints, payloads, and plan blobs alike — either
/// fails validation or yields a model that
/// still multiplies safely, never panicking and never letting a forged
/// length size an allocation past the 1 MiB budget.
#[test]
fn forged_grammar_tags_and_spliced_plan_sections_stay_within_budget() {
    use gcm_serve::{compress_incremental, BuildConfig, EncodingChoice, GrammarChoice};
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let config = BuildConfig {
        backend: Backend::Compressed,
        encoding: EncodingChoice::Fixed(Encoding::ReAns),
        grammar: Some(GrammarChoice::MrRePair),
        shards: 3,
        ..BuildConfig::default()
    };
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let base_model =
        gcm_serve::ShardedModel::from_artifacts(gcm_pipeline::global().build(&csrv, &config));
    base_model.prewarm_with(1, &ServeOptions::planned());
    let base = base_model.to_bytes_with_plans();

    // Perturb the last row with an already-interned value so only the
    // final shard's fingerprint changes: the result splices two shards'
    // payloads and plan blobs from `base` and rebuilds one.
    let mut changed = dense;
    changed.set(25, 0, 1.5);
    let changed_csrv = CsrvMatrix::from_dense(&changed).unwrap();
    let (bytes, report) = compress_incremental(&changed_csrv, &config, &base).unwrap();
    assert!(report.full_reason.is_none(), "base must be splice-eligible");
    assert!(report.spliced() >= 1, "fuzz target must contain splices");
    let table = ShardTable::parse(&bytes).unwrap();
    assert!(table.plan_bytes() > 0, "spliced plans must be present");
    assert!(
        table.meta.iter().all(|m| m.grammar.is_some()),
        "every shard must carry a stage tag"
    );

    for cut in 0..bytes.len() {
        assert!(
            load_both(&bytes[..cut]).is_err(),
            "v5 truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }

    for i in 0..bytes.len() - 8 {
        for flip in [0x01u8, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            refresh_checksum(&mut mutated);
            let live = alloc::reset_peak();
            if let Ok(model) = load_both(&mutated) {
                let x = vec![1.0; model.cols()];
                let mut y = vec![0.0; model.rows()];
                model.right_multiply_panel(1, &x, &mut y).unwrap();
            }
            let grown = alloc::peak_bytes().saturating_sub(live);
            assert!(
                grown < (1 << 20),
                "v5 flip {flip:#04x} at byte {i} allocated {grown} bytes"
            );
        }
    }

    // Control: the untouched spliced container loads, carries its
    // metadata, and serves the perturbed matrix correctly.
    let back = load_both(&bytes).unwrap();
    assert!(back.is_planned());
    let x = vec![1.0; 7];
    let mut y = vec![0.0; 26];
    let mut y_ref = vec![0.0; 26];
    back.right_multiply_panel(1, &x, &mut y).unwrap();
    changed_csrv.right_multiply(&x, &mut y_ref).unwrap();
    for (a, b) in y.iter().zip(&y_ref) {
        assert!((a - b).abs() < 1e-9);
    }
}

/// A 4-shard grammar model as a version-7 container: one value
/// dictionary ahead of four dictionary-free shard payloads.
fn v7_sample() -> Vec<u8> {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let opts = BuildConfig {
        shards: 4,
        ..BuildConfig::default()
    };
    let bytes = ShardedModel::from_dense(&dense, &opts).unwrap().to_bytes();
    assert_eq!(bytes[8], container::VERSION_CHUNKED);
    bytes
}

/// [`v7_sample`] as the version-6 container an older writer made of it:
/// the same body under version byte 6, sealed with one FNV-1a of the
/// whole body.
fn v6_sample() -> Vec<u8> {
    let bytes = v7_sample();
    let chunks = ShardTable::parse(&bytes).unwrap().checksum_chunks;
    let mut v6 = bytes[..bytes.len() - 8 * chunks].to_vec();
    v6[8] = container::VERSION_SHARED_DICT;
    let sum = fnv1a64(&v6);
    v6.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(ShardTable::parse(&v6).unwrap().version, 6);
    v6
}

/// Rewrites a version-6 or -7 container's dictionary section to `len` as
/// the declared length followed by `values`, with a refreshed checksum.
fn forge_dictionary(bytes: &[u8], len: u64, values: &[f64]) -> Vec<u8> {
    let table = ShardTable::parse(bytes).unwrap();
    let dict = table
        .dictionary
        .expect("versions 6 and 7 store a dictionary");
    // The length varint follows the three header varints.
    let mut start = 10usize;
    for _ in 0..3 {
        varint::read_u64(bytes, &mut start).unwrap();
    }
    let mut out = bytes[..start].to_vec();
    varint::write_u64(&mut out, len);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&bytes[dict.end..]);
    refresh_checksum(&mut out);
    out
}

#[test]
fn version6_truncation_and_flips_at_every_offset_are_rejected() {
    let bytes = v6_sample();
    for cut in 0..bytes.len() {
        assert!(
            load_both(&bytes[..cut]).is_err(),
            "v6 truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            assert!(
                load_both(&mutated).is_err(),
                "v6 flip {flip:#04x} at byte {i} must be rejected"
            );
        }
    }
    // Behind a refreshed checksum, every corruption is rejected or
    // loads a model that multiplies safely — never a panic, never an
    // attacker-sized allocation.
    for i in 0..bytes.len() - 8 {
        for flip in [0x01u8, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            refresh_checksum(&mut mutated);
            let live = alloc::reset_peak();
            if let Ok(model) = load_both(&mutated) {
                let x = vec![1.0; model.cols()];
                let mut y = vec![0.0; model.rows()];
                model.right_multiply_panel(1, &x, &mut y).unwrap();
                let mut x_out = vec![0.0; model.cols()];
                model.left_multiply_panel(1, &y, &mut x_out).unwrap();
            }
            let grown = alloc::peak_bytes().saturating_sub(live);
            assert!(
                grown < (1 << 20),
                "v6 flip {flip:#04x} at byte {i} allocated {grown} bytes"
            );
        }
    }
    assert!(load_both(&bytes).is_ok());
}

#[test]
fn inflated_dictionary_length_is_rejected_before_allocation() {
    for bytes in [v6_sample(), v7_sample()] {
        inflated_dictionary_length_is_rejected_in(&bytes);
    }
}

fn inflated_dictionary_length_is_rejected_in(bytes: &[u8]) {
    let bytes = bytes.to_vec();
    let table = ShardTable::parse(&bytes).unwrap();
    let values: Vec<f64> = bytes[table.dictionary.clone().unwrap()]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    // Control: re-forging the genuine section reproduces the container.
    assert_eq!(
        forge_dictionary(&bytes, values.len() as u64, &values),
        bytes
    );
    for len in [
        1u64 << 40,
        (1u64 << 61) - 1,
        u64::MAX,
        bytes.len() as u64 / 8,
    ] {
        let forged = forge_dictionary(&bytes, len, &values);
        assert_rejected_without_big_allocation("inflated dictionary length", &forged);
        let err = ShardTable::parse(&forged).expect_err("length past the container");
        assert!(err.to_string().contains("dictionary"), "{err}");
    }
    // One value too many stays inside the container: the section then
    // swallows the first shard's header, which fails to parse.
    let forged = forge_dictionary(&bytes, values.len() as u64 + 1, &values);
    assert_rejected_without_big_allocation("dictionary one value long", &forged);
}

#[test]
fn shard_terminals_past_the_shared_dictionary_are_rejected() {
    for bytes in [v6_sample(), v7_sample()] {
        shard_terminals_past_the_dictionary_are_rejected_in(&bytes);
    }
}

fn shard_terminals_past_the_dictionary_are_rejected_in(bytes: &[u8]) {
    let bytes = bytes.to_vec();
    let table = ShardTable::parse(&bytes).unwrap();
    let values: Vec<f64> = bytes[table.dictionary.clone().unwrap()]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    // Drop dictionary entries under the unchanged shards: their
    // terminals now index past `V`, and the structural validators
    // must refuse every such shard before a kernel sees it.
    for keep in [0, 1, values.len() - 1] {
        let forged = forge_dictionary(&bytes, keep as u64, &values[..keep]);
        assert!(
            load_both(&forged).is_err(),
            "{keep} of {} values must be rejected",
            values.len()
        );
        for i in 0..4 {
            let t = ShardTable::parse(&forged).unwrap();
            assert!(t.decode_shard(&forged, i).is_err(), "shard {i}");
        }
    }
}

/// A corruption only the checksum can catch: one flipped byte inside a
/// persisted `f32` plan blob's multiplier array leaves every structure
/// valid. Both loaders must refuse it with a checksum mismatch — the
/// overlapped loader has already cast the flipped plan by then, and
/// must not let it escape — and behind a refreshed checksum both must
/// load it and serve products that differ from the original's.
#[test]
fn a_plan_multiplier_flip_is_caught_by_the_checksum_alone() {
    let opts = BuildConfig {
        shards: 4,
        ..BuildConfig::default()
    };
    let model = ShardedModel::from_csrv(&legacy_sample(), &opts).unwrap();
    model.prewarm_with(1, &ServeOptions::planned_f32());
    let bytes = model.to_bytes_with_plans();
    let table = ShardTable::parse(&bytes).unwrap();
    assert_eq!(table.plan_ranges.len(), 4);
    assert!(table.plan_f32.iter().all(|&f32_plan| f32_plan));
    let original = products(&load_both(&bytes).unwrap());

    // The blob's first multiplier follows its magic, precision byte and
    // five header varints; its last byte holds the sign and exponent.
    let blob = table.plan_ranges[0]
        .clone()
        .expect("shard 0 persists a plan");
    let mut pos = blob.start + gcm_core::plan::PLAN_MAGIC.len() + 1;
    for _ in 0..5 {
        varint::read_u64(&bytes, &mut pos).unwrap();
    }
    assert!(pos + 4 <= blob.end, "shard 0's plan holds a multiplier");
    let mut flipped = bytes.clone();
    flipped[pos + 3] ^= 0x01;
    for err in [
        container::from_bytes(&flipped).expect_err("overlapped"),
        container::from_bytes_sequential(&flipped).expect_err("sequential"),
    ] {
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }
    refresh_checksum(&mut flipped);
    let forged = load_both(&flipped).expect("a flipped multiplier is structurally valid");
    assert_ne!(products(&forged), original);
}

#[test]
fn appended_and_garbage_input_is_rejected() {
    let bytes = sample_container(Backend::Compressed);
    // Trailing garbage breaks the checksum position.
    let mut extended = bytes.clone();
    extended.extend_from_slice(b"garbage");
    assert!(load_both(&extended).is_err());
    // Arbitrary non-container bytes.
    assert!(load_both(b"").is_err());
    assert!(load_both(b"GCMSERV1").is_err());
    assert!(load_both(&[0u8; 64]).is_err());
}
