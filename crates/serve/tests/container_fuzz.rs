//! Deterministic corruption fuzzing of the `GCMSERV1` container.
//!
//! For every backend: serialise a sharded model, then (a) truncate at
//! every byte boundary and (b) flip bits in every byte. Loading must
//! fail cleanly in all cases — the FNV-64 checksum makes *any*
//! single-byte corruption detectable, and the structural validators
//! behind it guarantee that even a forged checksum cannot panic a
//! kernel (that layer is fuzzed separately in
//! `crates/core/tests/serial_fuzz.rs`).

use gcm_bench::{alloc, TrackingAlloc};
use gcm_core::{CompressedMatrix, Encoding};
use gcm_encodings::varint;
use gcm_matrix::{CsrvMatrix, DenseMatrix};
use gcm_serve::container::fnv1a64;
use gcm_serve::{Backend, BuildOptions, ServeOptions, ShardTable, ShardedModel};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn sample_container(backend: Backend) -> Vec<u8> {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let opts = BuildOptions {
        backend,
        shards: 3,
        blocks: 2,
        ..BuildOptions::default()
    };
    ShardedModel::from_dense(&dense, &opts).unwrap().to_bytes()
}

#[test]
fn truncation_at_every_boundary_is_rejected() {
    for backend in Backend::ALL {
        let bytes = sample_container(backend);
        for cut in 0..bytes.len() {
            assert!(
                ShardedModel::from_bytes(&bytes[..cut]).is_err(),
                "{}: truncation at {cut}/{} must be rejected",
                backend.name(),
                bytes.len()
            );
        }
        assert!(ShardedModel::from_bytes(&bytes).is_ok());
    }
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
                    ShardedModel::from_bytes(&mutated).is_err(),
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
        ShardedModel::from_bytes(bytes).is_err(),
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
            Backend::ParCsrv.tag(),
            &[(par_payload.len() as u64, &par_payload)],
        ),
    );

    // Control: a genuine container still loads with the allocator
    // installed (the harness itself is sound).
    let good = sample_container(Backend::Csrv);
    assert!(ShardedModel::from_bytes(&good).is_ok());
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
            if let Ok(model) = ShardedModel::from_bytes(&container) {
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
    assert!(ShardedModel::from_bytes(&good).is_ok());
}

/// Rewrites the trailing FNV-64 checksum so a mutated body reaches the
/// structural validators instead of dying at the checksum gate.
fn refresh_checksum(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
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
    let opts = BuildOptions {
        backend: Backend::Compressed,
        shards: 3,
        blocks: 2,
        ..BuildOptions::default()
    };
    let model = ShardedModel::from_dense(&dense, &opts).unwrap();
    model.prewarm_with(1, &ServeOptions::planned());
    let bytes = model.to_bytes_with_plans();
    let table = ShardTable::parse(&bytes).unwrap();
    assert!(table.plan_bytes() > 0, "sample must carry a plan section");

    // Truncation at every boundary of the v4 container is rejected.
    for cut in 0..bytes.len() {
        assert!(
            ShardedModel::from_bytes(&bytes[..cut]).is_err(),
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
            if let Ok(model) = ShardedModel::from_bytes(&mutated) {
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
    let back = ShardedModel::from_bytes(&bytes).unwrap();
    assert!(back.is_planned());
}

/// Version-5 grammar metadata and incrementally **spliced** plan
/// sections behind a valid checksum: the fuzz target is a container
/// produced by `compress_incremental` (some shards spliced byte-ranges
/// from a base, one rebuilt), because that is the writer most likely to
/// misalign a section (its three shards make it a version-6 container,
/// with the shared dictionary ahead of them). Truncation at every
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
        blocks: 2,
        reorder: None,
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
        table.grammar_stages.iter().all(Option::is_some),
        "every shard must carry a stage tag"
    );

    for cut in 0..bytes.len() {
        assert!(
            ShardedModel::from_bytes(&bytes[..cut]).is_err(),
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
            if let Ok(model) = ShardedModel::from_bytes(&mutated) {
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
    let back = ShardedModel::from_bytes(&bytes).unwrap();
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

/// A 4-shard grammar model: written as a version-6 container, with one
/// value dictionary ahead of four dictionary-free shard payloads.
fn v6_sample(backend: Backend) -> Vec<u8> {
    let mut dense = DenseMatrix::zeros(26, 7);
    for r in 0..26 {
        for c in 0..7 {
            if (r * 2 + c) % 3 != 0 {
                dense.set(r, c, (((r + c) % 5) + 1) as f64 * 0.5);
            }
        }
    }
    let opts = BuildOptions {
        backend,
        shards: 4,
        blocks: 2,
        ..BuildOptions::default()
    };
    let bytes = ShardedModel::from_dense(&dense, &opts).unwrap().to_bytes();
    assert_eq!(bytes[8], gcm_serve::container::VERSION_SHARED_DICT);
    bytes
}

/// Rewrites a version-6 container's dictionary section to `len` as the
/// declared length followed by `values`, with a refreshed checksum.
fn forge_dictionary(bytes: &[u8], len: u64, values: &[f64]) -> Vec<u8> {
    let table = ShardTable::parse(bytes).unwrap();
    let dict = table.dictionary.expect("version 6 stores a dictionary");
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
    for backend in [Backend::Compressed, Backend::Blocked] {
        let bytes = v6_sample(backend);
        for cut in 0..bytes.len() {
            assert!(
                ShardedModel::from_bytes(&bytes[..cut]).is_err(),
                "{}: v6 truncation at {cut}/{} must be rejected",
                backend.name(),
                bytes.len()
            );
        }
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                assert!(
                    ShardedModel::from_bytes(&mutated).is_err(),
                    "{}: v6 flip {flip:#04x} at byte {i} must be rejected",
                    backend.name()
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
                if let Ok(model) = ShardedModel::from_bytes(&mutated) {
                    let x = vec![1.0; model.cols()];
                    let mut y = vec![0.0; model.rows()];
                    model.right_multiply_panel(1, &x, &mut y).unwrap();
                    let mut x_out = vec![0.0; model.cols()];
                    model.left_multiply_panel(1, &y, &mut x_out).unwrap();
                }
                let grown = alloc::peak_bytes().saturating_sub(live);
                assert!(
                    grown < (1 << 20),
                    "{}: v6 flip {flip:#04x} at byte {i} allocated {grown} bytes",
                    backend.name()
                );
            }
        }
        assert!(ShardedModel::from_bytes(&bytes).is_ok());
    }
}

#[test]
fn inflated_dictionary_length_is_rejected_before_allocation() {
    let bytes = v6_sample(Backend::Compressed);
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
    for backend in [Backend::Compressed, Backend::Blocked] {
        let bytes = v6_sample(backend);
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
                ShardedModel::from_bytes(&forged).is_err(),
                "{}: {keep} of {} values must be rejected",
                backend.name(),
                values.len()
            );
            for i in 0..4 {
                let t = ShardTable::parse(&forged).unwrap();
                assert!(t.decode_shard(&forged, i).is_err(), "shard {i}");
            }
        }
    }
}

#[test]
fn appended_and_garbage_input_is_rejected() {
    let bytes = sample_container(Backend::Compressed);
    // Trailing garbage breaks the checksum position.
    let mut extended = bytes.clone();
    extended.extend_from_slice(b"garbage");
    assert!(ShardedModel::from_bytes(&extended).is_err());
    // Arbitrary non-container bytes.
    assert!(ShardedModel::from_bytes(b"").is_err());
    assert!(ShardedModel::from_bytes(b"GCMSERV1").is_err());
    assert!(ShardedModel::from_bytes(&[0u8; 64]).is_err());
}
