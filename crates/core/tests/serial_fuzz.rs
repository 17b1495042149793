//! Deterministic corruption fuzzing of the on-disk containers.
//!
//! The serialisation layer promises that malformed input yields `None`,
//! never a panic and never a structurally unsound grammar that could
//! drive a kernel out of bounds. These tests enforce that promise the
//! brute-force way: for containers of every encoding,
//!
//! * truncate at **every** byte boundary, and
//! * flip bits in **every** byte (three patterns per byte),
//!
//! then demand that loading either fails cleanly or produces a matrix
//! whose kernels can run to completion. Any panic — including a slice
//! index panic from an out-of-bounds grammar — fails the test.

use gcm_core::serial;
use gcm_core::{CompressedMatrix, Encoding};
use gcm_encodings::fse::FseSequence;
use gcm_encodings::varint;
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, RowBlocks};

fn sample(rows: usize, cols: usize) -> CsrvMatrix {
    let mut dense = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if (r * 3 + c) % 4 != 0 {
                dense.set(r, c, (((r + 2 * c) % 5) + 1) as f64 * 0.75);
            }
        }
    }
    CsrvMatrix::from_dense(&dense).unwrap()
}

/// `csrv` split into `b` row blocks, each compressed with `enc` — the
/// block list a multi-block bundle persists.
fn compressed_blocks(csrv: &CsrvMatrix, enc: Encoding, b: usize) -> Vec<CompressedMatrix> {
    RowBlocks::split(csrv, b)
        .blocks()
        .iter()
        .map(|block| CompressedMatrix::compress(block, enc))
        .collect()
}

/// Exercises a successfully-loaded matrix: if a mutation slipped past
/// validation, the grammar must still be safe to run.
fn exercise(cm: &CompressedMatrix) {
    let x = vec![1.0; cm.cols()];
    let mut y = vec![0.0; cm.rows()];
    cm.right_multiply(&x, &mut y).unwrap();
    let yv = vec![1.0; cm.rows()];
    let mut xo = vec![0.0; cm.cols()];
    cm.left_multiply(&yv, &mut xo).unwrap();
    let _ = cm.decompress_symbols();
}

#[test]
fn v1_truncation_at_every_boundary_returns_none() {
    let csrv = sample(24, 6);
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let bytes = serial::to_bytes(&cm);
        for cut in 0..bytes.len() {
            assert!(
                serial::from_bytes(&bytes[..cut]).is_none(),
                "{}: truncation at {cut}/{} must be rejected",
                enc.name(),
                bytes.len()
            );
        }
        assert!(serial::from_bytes(&bytes).is_some());
    }
}

#[test]
fn v1_byte_flips_never_panic_or_build_unsafe_grammars() {
    let csrv = sample(24, 6);
    for enc in Encoding::ALL {
        let cm = CompressedMatrix::compress(&csrv, enc);
        let bytes = serial::to_bytes(&cm);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                if let Some(back) = serial::from_bytes(&mutated) {
                    // The mutation survived validation (e.g. it only
                    // touched a dictionary value): the matrix must still
                    // be structurally sound end to end.
                    assert_eq!(back.rows(), cm.rows(), "{} byte {i}", enc.name());
                    exercise(&back);
                }
            }
        }
    }
}

/// Serialises a hand-built `re_fse` stream: the exact layout of
/// [`FseSequence::to_bytes`], with every field attacker-chosen.
fn forge_fse(direct_bits: u8, table_log: u8, len: u64, freqs: &[u32], stream: &[u8]) -> Vec<u8> {
    let mut out = vec![direct_bits, table_log];
    varint::write_u64(&mut out, len);
    varint::write_u32(&mut out, freqs.len() as u32);
    for &f in freqs {
        varint::write_u32(&mut out, f);
    }
    varint::write_u64(&mut out, stream.len() as u64);
    out.extend_from_slice(stream);
    out
}

#[test]
fn re_fse_stream_truncation_at_every_boundary_is_rejected_or_safe() {
    let symbols: Vec<u32> = (0..600u32).map(|i| (i * 7) % 40).collect();
    let seq = FseSequence::encode(&symbols);
    let bytes = seq.to_bytes();
    for cut in 0..bytes.len() {
        let mut pos = 0usize;
        if let Some(s) = FseSequence::from_bytes(&bytes[..cut], &mut pos) {
            // A prefix that still parses (e.g. the cut landed exactly
            // after a declared payload) must decode to its claimed
            // length without panicking.
            assert_eq!(s.to_vec().len(), s.len(), "cut {cut}");
        }
    }
    let mut pos = 0usize;
    let back = FseSequence::from_bytes(&bytes, &mut pos).expect("intact stream loads");
    assert_eq!(pos, bytes.len());
    assert_eq!(back.to_vec(), symbols);
}

#[test]
fn forged_re_fse_streams_are_rejected_or_decode_safely() {
    let symbols: Vec<u32> = (0..300u32).map(|i| i % 17).collect();
    let good = FseSequence::encode(&symbols);
    let bytes = good.to_bytes();
    let parse = |data: &[u8]| {
        let mut pos = 0usize;
        FseSequence::from_bytes(data, &mut pos)
    };

    // Out-of-range params bytes must be rejected outright.
    for forged_log in [0u8, 1, 2, 31, 255] {
        let mut m = bytes.clone();
        m[1] = forged_log;
        assert!(
            parse(&m).is_none(),
            "table_log {forged_log} must be rejected"
        );
    }
    for forged_direct in [31u8, 64, 255] {
        let mut m = bytes.clone();
        m[0] = forged_direct;
        assert!(
            parse(&m).is_none(),
            "direct_bits {forged_direct} must be rejected"
        );
    }

    // A frequency table that does not sum to the table size cannot
    // build a decode table.
    assert!(parse(&forge_fse(8, 9, 10, &[1, 2, 3], &[0u8; 16])).is_none());
    // More buckets than the parameters admit.
    let too_many = vec![1u32; 4096];
    assert!(parse(&forge_fse(8, 9, 10, &too_many, &[0u8; 16])).is_none());
    // Declared stream payload larger than the bytes present.
    let mut inflated = vec![8u8, 9];
    varint::write_u64(&mut inflated, 4); // len
    varint::write_u32(&mut inflated, 1); // one bucket…
    varint::write_u32(&mut inflated, 512); // …holding the whole table
    varint::write_u64(&mut inflated, 1 << 40); // stream bytes that are not there
    assert!(parse(&inflated).is_none(), "inflated stream length");

    // A forged symbol count over a structurally valid table must decode
    // to exactly the claimed length — no panic, no over-read — so the
    // grammar validators behind it see the real (bogus) sequence.
    let forged_count = forge_fse(8, 9, 50_000, &[512], &[0u8; 4]);
    if let Some(s) = parse(&forged_count) {
        assert_eq!(s.to_vec().len(), 50_000);
    }
}

#[test]
fn forged_re_fse_serial_containers_never_panic() {
    // Splice forged FSE tails onto a genuine `re_fse` matrix container:
    // the serial layer must reject the forgery or hand back a matrix
    // whose kernels are safe to run.
    let csrv = sample(24, 6);
    let cm = CompressedMatrix::compress(&csrv, Encoding::ReFse);
    let bytes = serial::to_bytes(&cm);
    let gcm_core::encoding::SeqStore::Fse(fse) = cm.seq_store() else {
        panic!("re_fse matrix stores an FSE sequence");
    };
    let tail = fse.to_bytes();
    assert!(bytes.ends_with(&tail), "container ends with the FSE stream");
    let head = &bytes[..bytes.len() - tail.len()];
    let forgeries = [
        forge_fse(8, 9, 0, &[], &[]),               // empty sequence
        forge_fse(8, 9, 24, &[512], &[0u8; 4]),     // all-separator rows
        forge_fse(8, 9, 10_000, &[512], &[0u8; 4]), // inflated symbol count
        forge_fse(0, 9, cm.sequence_len() as u64, &[512], &[0u8; 8]), // zeroed params
    ];
    for (i, tail) in forgeries.iter().enumerate() {
        let mut forged = head.to_vec();
        forged.extend_from_slice(tail);
        if let Some(back) = serial::from_bytes(&forged) {
            exercise(&back);
            let _ = i;
        }
    }
}

#[test]
fn v2_truncation_at_every_boundary_returns_none() {
    let csrv = sample(30, 5);
    let order: Vec<u32> = [3u32, 1, 4, 0, 2].to_vec();
    for enc in Encoding::ALL {
        let bytes = serial::bundle_to_bytes(&compressed_blocks(&csrv, enc, 3), Some(&order));
        for cut in 0..bytes.len() {
            assert!(
                serial::bundle_from_bytes(&bytes[..cut]).is_none(),
                "{}: truncation at {cut}/{} must be rejected",
                enc.name(),
                bytes.len()
            );
        }
        assert!(serial::bundle_from_bytes(&bytes).is_some());
    }
}

#[test]
fn v2_byte_flips_never_panic_or_build_unsafe_grammars() {
    let csrv = sample(30, 5);
    let order: Vec<u32> = [3u32, 1, 4, 0, 2].to_vec();
    for enc in Encoding::ALL {
        let bytes = serial::bundle_to_bytes(&compressed_blocks(&csrv, enc, 3), Some(&order));
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[i] ^= flip;
                if let Some((blocks, back_order)) = serial::bundle_from_bytes(&mutated) {
                    if let Some(o) = &back_order {
                        let mut seen = vec![false; o.len()];
                        for &c in o {
                            assert!(!seen[c as usize], "{} byte {i}: order", enc.name());
                            seen[c as usize] = true;
                        }
                    }
                    for b in &blocks {
                        exercise(b);
                    }
                }
            }
        }
    }
}
