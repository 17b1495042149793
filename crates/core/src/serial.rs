//! On-disk serialisation of grammar-compressed matrices.
//!
//! The paper motivates lossless compression partly by storage and
//! transmission costs ("server-to-client transmissions"). This module
//! defines a compact container for `(C, R, V)`:
//!
//! ```text
//! magic "GCMMAT1\0"  | encoding tag u8 | varint rows, cols, first_nt
//! varint |V| + V as little-endian f64
//! R: IntVector bytes (ReIv/ReAns) or raw u32 LE (Re32)
//! C: IntVector bytes / raw u32 LE / RansSequence bytes
//! ```
//!
//! and a **v2 bundle** extending it with the row-block structure of §4.1
//! and reorder-permutation metadata of §5 — what the serve layer persists
//! so a model survives restarts with its parallel layout and provenance:
//!
//! ```text
//! magic "GCMMAT2\0"  | encoding tag u8 | varint cols
//! varint order_len (+ order as u32 LE)      -- 0 = no column reorder
//! varint |V| + V as little-endian f64       -- dictionary shared by all blocks
//! varint num_blocks
//! per block: varint rows | R bytes | C bytes
//! ```
//!
//! A bundle may also be written **dictionary-free**
//! ([`bundle_to_bytes_shared`]): the same layout with `|V| = 0` and no
//! doubles, for containers that store one `V` for many bundles. Such a
//! bundle is read back only against the dictionary it was written for
//! ([`bundle_from_bytes_shared`]).
//!
//! Deserialisation is validating: truncated or corrupt input yields
//! `None`, never a panic or an out-of-bounds grammar.

use std::sync::Arc;

use gcm_encodings::fse::FseSequence;
use gcm_encodings::rans::RansSequence;
use gcm_encodings::{varint, IntVector};

use crate::compressed::CompressedMatrix;
use crate::encoding::{Encoding, ExtSyms, RuleExt, RuleStore, SeqStore};

const MAGIC: &[u8; 8] = b"GCMMAT1\0";
/// v3: the v1 layout plus an MR-RePair rule-tail section after the
/// stores. Binary grammars keep emitting v1 byte-identically.
const MAGIC_V3: &[u8; 8] = b"GCMMAT3\0";

fn encoding_tag(e: Encoding) -> u8 {
    match e {
        Encoding::Re32 => 0,
        Encoding::ReIv => 1,
        Encoding::ReAns => 2,
        Encoding::ReFse => 3,
    }
}

fn tag_encoding(t: u8) -> Option<Encoding> {
    match t {
        0 => Some(Encoding::Re32),
        1 => Some(Encoding::ReIv),
        2 => Some(Encoding::ReAns),
        3 => Some(Encoding::ReFse),
        _ => None,
    }
}

fn write_u32s(out: &mut Vec<u8>, values: &[u32]) {
    varint::write_u64(out, values.len() as u64);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_u32s(data: &[u8], pos: &mut usize) -> Option<Vec<u32>> {
    let n = varint::read_u64(data, pos)? as usize;
    read_exact_u32s(data, pos, n)
}

/// Serialises a compressed matrix to bytes. Binary (RePair) grammars
/// emit the v1 layout byte-for-byte; MR-RePair grammars emit v3, which
/// appends the rule-tail section after the stores.
pub fn to_bytes(m: &CompressedMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.stored_bytes() + 64);
    out.extend_from_slice(if m.rule_ext().is_some() {
        MAGIC_V3
    } else {
        MAGIC
    });
    out.push(encoding_tag(m.encoding()));
    varint::write_u64(&mut out, m.rows() as u64);
    varint::write_u64(&mut out, m.cols() as u64);
    varint::write_u32(&mut out, m.first_nonterminal());
    write_values(&mut out, m.values());
    write_stores(&mut out, m);
    if let Some(ext) = m.rule_ext() {
        write_ext(&mut out, ext);
    }
    out
}

/// Deserialises a compressed matrix (v1 or v3). Returns `None` on
/// malformed input.
pub fn from_bytes(data: &[u8]) -> Option<CompressedMatrix> {
    if data.len() < 9 {
        return None;
    }
    let has_ext = match &data[..8] {
        m if m == MAGIC => false,
        m if m == MAGIC_V3 => true,
        _ => return None,
    };
    let encoding = tag_encoding(data[8])?;
    let mut pos = 9usize;
    let rows = varint::read_u64(data, &mut pos)?;
    let cols = varint::read_u64(data, &mut pos)?;
    if rows > u64::from(u32::MAX) || cols > u64::from(u32::MAX) {
        // The kernels address columns (and rows via separators) as u32;
        // larger headers can only be forged.
        return None;
    }
    let (rows, cols) = (rows as usize, cols as usize);
    let first_nt = varint::read_u32(data, &mut pos)?;
    let values = read_values(data, &mut pos)?;
    let n_values = values.len();
    // Sanity: the terminal alphabet must match the header.
    if cols == 0 && n_values > 0 {
        return None;
    }
    if cols > 0 {
        let expect = (n_values as u64).checked_mul(cols as u64)?.checked_add(1)?;
        if expect != first_nt as u64 {
            return None;
        }
    }
    let (rules, seq) = read_stores(data, &mut pos, encoding)?;
    let ext = if has_ext {
        read_ext(data, &mut pos, encoding)?
    } else {
        None
    };
    CompressedMatrix::from_raw_parts_ext(
        rows,
        cols,
        Arc::new(values),
        first_nt,
        encoding,
        seq,
        rules,
        ext,
    )
}

/// Appends an MR-RePair rule-tail section: wide-rule count, ids, tail
/// lengths, then the tail symbols in the encoding's physical layout.
fn write_ext(out: &mut Vec<u8>, ext: &RuleExt) {
    varint::write_u64(out, ext.num_wide_rules() as u64);
    for &id in ext.rule_ids() {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for i in 0..ext.num_wide_rules() {
        varint::write_u64(out, ext.tail_len(i) as u64);
    }
    match ext.syms() {
        ExtSyms::Raw(v) => {
            for &s in v {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        ExtSyms::Packed(iv) => out.extend_from_slice(&iv.to_bytes()),
    }
}

/// Reads a rule-tail section. `Some(None)` means the section is present
/// but empty; `None` means malformed input. The wide-rule count is
/// bounded by the remaining payload (id + length varint cost ≥ 5 bytes
/// each) **before** any allocation, so forged counts cannot balloon the
/// peak heap.
fn read_ext(data: &[u8], pos: &mut usize, encoding: Encoding) -> Option<Option<RuleExt>> {
    let num_wide = varint::read_u64(data, pos)? as usize;
    if num_wide == 0 {
        return Some(None);
    }
    if num_wide > data.len().saturating_sub(*pos) / 5 {
        return None;
    }
    let ids = read_exact_u32s(data, pos, num_wide)?;
    let mut ptr: Vec<u32> = Vec::with_capacity(num_wide + 1);
    ptr.push(0);
    let mut total = 0u64;
    for _ in 0..num_wide {
        let len = varint::read_u64(data, pos)?;
        total = total.checked_add(len)?;
        if total > u32::MAX as u64 {
            return None;
        }
        ptr.push(total as u32);
    }
    let syms = match encoding {
        Encoding::Re32 => ExtSyms::Raw(read_exact_u32s(data, pos, total as usize)?),
        _ => {
            let iv = IntVector::from_bytes(data, pos)?;
            if iv.len() != total as usize {
                return None;
            }
            ExtSyms::Packed(iv)
        }
    };
    RuleExt::from_parts(ids, ptr, syms).map(Some)
}

fn rules_len(r: &RuleStore) -> usize {
    match r {
        RuleStore::Raw(v) => v.len(),
        RuleStore::Packed(iv) => iv.len(),
    }
}

const MAGIC_V2: &[u8; 8] = b"GCMMAT2\0";
/// v4: the v2 bundle layout with a per-block rule-tail section after
/// each block's stores. Ext-free bundles keep emitting v2
/// byte-identically.
const MAGIC_V4: &[u8; 8] = b"GCMMAT4\0";

fn write_stores(out: &mut Vec<u8>, m: &CompressedMatrix) {
    match m.rule_store() {
        RuleStore::Raw(v) => write_u32s(out, v),
        RuleStore::Packed(iv) => out.extend_from_slice(&iv.to_bytes()),
    }
    match m.seq_store() {
        SeqStore::Raw(v) => write_u32s(out, v),
        SeqStore::Packed(iv) => out.extend_from_slice(&iv.to_bytes()),
        SeqStore::Ans(r) => out.extend_from_slice(&r.to_bytes()),
        SeqStore::Fse(f) => out.extend_from_slice(&f.to_bytes()),
    }
}

fn read_stores(data: &[u8], pos: &mut usize, encoding: Encoding) -> Option<(RuleStore, SeqStore)> {
    let rules = match encoding {
        Encoding::Re32 => RuleStore::Raw(read_u32s(data, pos)?),
        Encoding::ReIv | Encoding::ReAns | Encoding::ReFse => {
            RuleStore::Packed(IntVector::from_bytes(data, pos)?)
        }
    };
    if !rules_len(&rules).is_multiple_of(2) {
        return None;
    }
    let seq = match encoding {
        Encoding::Re32 => SeqStore::Raw(read_u32s(data, pos)?),
        Encoding::ReIv => SeqStore::Packed(IntVector::from_bytes(data, pos)?),
        Encoding::ReAns => SeqStore::Ans(RansSequence::from_bytes(data, pos)?),
        Encoding::ReFse => SeqStore::Fse(FseSequence::from_bytes(data, pos)?),
    };
    Some((rules, seq))
}

/// Serialises row blocks (sharing one value dictionary) plus optional
/// column-reorder metadata as a v2 bundle. A single-element slice is the
/// plain-matrix case; more elements persist the row blocks of one
/// matrix ([`gcm_matrix::RowBlocks::split`], each block compressed on
/// its own).
///
/// # Panics
/// Panics if `blocks` is empty, if the blocks disagree on encoding,
/// column count, or value dictionary, or if `col_order` is not a
/// permutation of the columns.
pub fn bundle_to_bytes(blocks: &[CompressedMatrix], col_order: Option<&[u32]>) -> Vec<u8> {
    write_bundle(blocks, col_order, true)
}

/// As [`bundle_to_bytes`], but **dictionary-free**: the `V` section is
/// written as `|V| = 0`, for a container that stores the blocks'
/// dictionary once for many bundles. Read it back with
/// [`bundle_from_bytes_shared`] and that same dictionary.
///
/// # Panics
/// As [`bundle_to_bytes`].
pub fn bundle_to_bytes_shared(blocks: &[CompressedMatrix], col_order: Option<&[u32]>) -> Vec<u8> {
    write_bundle(blocks, col_order, false)
}

fn write_bundle(
    blocks: &[CompressedMatrix],
    col_order: Option<&[u32]>,
    with_values: bool,
) -> Vec<u8> {
    let first = blocks.first().expect("bundle needs at least one block");
    let encoding = first.encoding();
    let cols = first.cols();
    for b in blocks {
        assert_eq!(b.encoding(), encoding, "bundle blocks disagree on encoding");
        assert_eq!(b.cols(), cols, "bundle blocks disagree on columns");
        assert_eq!(b.values(), first.values(), "bundle blocks disagree on V");
    }
    if let Some(order) = col_order {
        assert!(
            is_permutation(order, cols),
            "col_order is not a permutation"
        );
    }
    let total: usize = blocks.iter().map(|b| b.stored_bytes()).sum();
    let with_ext = blocks.iter().any(|b| b.rule_ext().is_some());
    let mut out = Vec::with_capacity(total + 64);
    out.extend_from_slice(if with_ext { MAGIC_V4 } else { MAGIC_V2 });
    out.push(encoding_tag(encoding));
    varint::write_u64(&mut out, cols as u64);
    let order = col_order.unwrap_or(&[]);
    varint::write_u64(&mut out, order.len() as u64);
    for &c in order {
        out.extend_from_slice(&c.to_le_bytes());
    }
    write_values(&mut out, if with_values { first.values() } else { &[] });
    varint::write_u64(&mut out, blocks.len() as u64);
    for b in blocks {
        varint::write_u64(&mut out, b.rows() as u64);
        write_stores(&mut out, b);
        if with_ext {
            // Every v4 block carries the section; ext-free blocks write
            // a zero count.
            match b.rule_ext() {
                Some(ext) => write_ext(&mut out, ext),
                None => varint::write_u64(&mut out, 0),
            }
        }
    }
    out
}

/// Appends a value dictionary: `varint |V|` then `V` as little-endian
/// f64. The one dictionary layout of every format here, the serve
/// layer's shared container section included.
pub fn write_values(out: &mut Vec<u8>, values: &[f64]) {
    varint::write_u64(out, values.len() as u64);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Inverse of [`write_values`], advancing `pos`. The declared length is
/// checked against the bytes present **before** anything is allocated,
/// so a forged length cannot size a reservation.
fn read_values(data: &[u8], pos: &mut usize) -> Option<Vec<f64>> {
    let n = varint::read_u64(data, pos)?;
    let need = usize::try_from(n).ok()?.checked_mul(8)?;
    let end = pos.checked_add(need).filter(|&e| e <= data.len())?;
    let values = data[*pos..end]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    *pos = end;
    Some(values)
}

/// A decoded bundle: its row blocks and its column-reorder metadata.
pub type Bundle = (Vec<CompressedMatrix>, Option<Vec<u32>>);

/// Deserialises a v2 bundle into its row blocks (sharing one `Arc`'d
/// dictionary, as blocks compressed from one split do) and the
/// column-reorder metadata. Returns `None` on malformed input; every
/// block passes the full structural validation of
/// [`CompressedMatrix::from_raw_parts`].
pub fn bundle_from_bytes(data: &[u8]) -> Option<Bundle> {
    read_bundle(data, None)
}

/// Deserialises a dictionary-free bundle ([`bundle_to_bytes_shared`])
/// against the dictionary `values` it was written for: every block
/// shares that one `Arc`, and still passes the full structural
/// validation of [`CompressedMatrix::from_raw_parts`] against it — a
/// block whose terminals index past `values` is rejected, never served.
/// Returns `None` on malformed input, including a bundle that embeds a
/// dictionary of its own.
pub fn bundle_from_bytes_shared(data: &[u8], values: &Arc<Vec<f64>>) -> Option<Bundle> {
    read_bundle(data, Some(values))
}

fn read_bundle(data: &[u8], shared: Option<&Arc<Vec<f64>>>) -> Option<Bundle> {
    if data.len() < 9 {
        return None;
    }
    let has_ext = match &data[..8] {
        m if m == MAGIC_V2 => false,
        m if m == MAGIC_V4 => true,
        _ => return None,
    };
    let encoding = tag_encoding(data[8])?;
    let mut pos = 9usize;
    let cols = varint::read_u64(data, &mut pos)?;
    if cols > u64::from(u32::MAX) {
        // The kernels address columns as u32; larger is forged.
        return None;
    }
    let cols = cols as usize;
    let order_len = varint::read_u64(data, &mut pos)? as usize;
    let col_order = if order_len == 0 {
        None
    } else {
        if order_len != cols {
            return None;
        }
        let order = read_exact_u32s(data, &mut pos, order_len)?;
        if !is_permutation(&order, cols) {
            return None;
        }
        Some(order)
    };
    let embedded = read_values(data, &mut pos)?;
    let values = match shared {
        None => Arc::new(embedded),
        // A dictionary-free bundle declares an empty `V`.
        Some(_) if !embedded.is_empty() => return None,
        Some(shared) => Arc::clone(shared),
    };
    let n_values = values.len();
    // The terminal alphabet is derived from the header, as in v1.
    if cols == 0 && n_values > 0 {
        return None;
    }
    let first_nt = (n_values as u64).checked_mul(cols as u64)?.checked_add(1)?;
    let first_nt = u32::try_from(first_nt).ok()?;
    let num_blocks = varint::read_u64(data, &mut pos)? as usize;
    // Each block needs at least a row varint and two store headers
    // (three bytes), which bounds the claimable block count by the
    // remaining payload — and the upfront reservation with it.
    if num_blocks == 0 || num_blocks > data.len().saturating_sub(pos) / 3 + 1 {
        return None;
    }
    let mut blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let rows = varint::read_u64(data, &mut pos)? as usize;
        let (rules, seq) = read_stores(data, &mut pos, encoding)?;
        let ext = if has_ext {
            read_ext(data, &mut pos, encoding)?
        } else {
            None
        };
        blocks.push(CompressedMatrix::from_raw_parts_ext(
            rows,
            cols,
            Arc::clone(&values),
            first_nt,
            encoding,
            seq,
            rules,
            ext,
        )?);
    }
    Some((blocks, col_order))
}

/// Reads exactly `n` little-endian u32s, advancing `pos`; `None` on
/// truncation or length overflow. Shared by every container reader that
/// embeds u32 arrays (the serve layer included) so untrusted-input
/// hardening lives in one place.
pub fn read_exact_u32s(data: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u32>> {
    let need = n.checked_mul(4)?;
    let end = pos.checked_add(need).filter(|&e| e <= data.len())?;
    let out = data[*pos..end]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    *pos = end;
    Some(out)
}

/// Whether `order` is a permutation of `0..cols` (the validity test for
/// deserialised column-reorder metadata).
pub fn is_permutation(order: &[u32], cols: usize) -> bool {
    if order.len() != cols {
        return false;
    }
    let mut seen = vec![false; cols];
    for &c in order {
        let Some(slot) = seen.get_mut(c as usize) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec};

    fn sample() -> CsrvMatrix {
        let mut dense = DenseMatrix::zeros(40, 7);
        for r in 0..40 {
            for c in 0..7 {
                if (r + c) % 3 != 0 {
                    dense.set(r, c, (((r * 2 + c) % 6) + 1) as f64 * 0.5);
                }
            }
        }
        CsrvMatrix::from_dense(&dense).unwrap()
    }

    /// `csrv` split into `b` row blocks, each compressed with `enc`.
    fn compressed_blocks(csrv: &CsrvMatrix, enc: Encoding, b: usize) -> Vec<CompressedMatrix> {
        gcm_matrix::RowBlocks::split(csrv, b)
            .blocks()
            .iter()
            .map(|block| CompressedMatrix::compress(block, enc))
            .collect()
    }

    #[test]
    fn roundtrip_all_encodings() {
        let csrv = sample();
        for enc in Encoding::ALL {
            let cm = CompressedMatrix::compress(&csrv, enc);
            let bytes = to_bytes(&cm);
            let back = from_bytes(&bytes).expect("deserialise");
            assert_eq!(back.rows(), cm.rows());
            assert_eq!(back.cols(), cm.cols());
            assert_eq!(back.encoding(), enc);
            assert_eq!(back.decompress_symbols(), cm.decompress_symbols());
            // Multiplication equivalence.
            let x: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
            let mut y_a = vec![0.0; 40];
            let mut y_b = vec![0.0; 40];
            cm.right_multiply(&x, &mut y_a).unwrap();
            back.right_multiply(&x, &mut y_b).unwrap();
            assert_eq!(y_a, y_b, "{}", enc.name());
        }
    }

    #[test]
    fn serialized_size_close_to_stored_bytes() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let bytes = to_bytes(&cm);
        // Container overhead should be tiny.
        assert!(bytes.len() <= cm.stored_bytes() + 64);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(from_bytes(b"NOTMAGIC rest of data").is_none());
    }

    #[test]
    fn rejects_bad_tag_and_truncation() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let mut bytes = to_bytes(&cm);
        bytes[8] = 77; // invalid encoding tag
        assert!(from_bytes(&bytes).is_none());

        let bytes = to_bytes(&cm);
        for cut in [9, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_header_mismatch() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let mut bytes = to_bytes(&cm);
        // Corrupt the first_nt varint region: find it right after rows/cols.
        // (Byte 9 is the rows varint; patch a value byte in the f64 payload
        // region instead to keep the structure parseable but inconsistent.)
        bytes[9] = bytes[9].wrapping_add(1); // rows changed -> separator count mismatch
                                             // Either parse fails, or the matrix is structurally inconsistent —
                                             // both acceptable, but it must not panic.
        let _ = from_bytes(&bytes);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let csrv = CsrvMatrix::from_dense(&DenseMatrix::zeros(3, 2)).unwrap();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let bytes = to_bytes(&cm);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.decompress_symbols(), csrv.symbols());
    }

    #[test]
    fn bundle_roundtrips_blocked_layout_all_encodings() {
        let csrv = sample();
        let order: Vec<u32> = (0..7).rev().collect();
        let x: Vec<f64> = (0..7).map(|i| i as f64 * 0.5 - 1.0).collect();
        for enc in Encoding::ALL {
            let written = compressed_blocks(&csrv, enc, 4);
            let bytes = bundle_to_bytes(&written, Some(&order));
            let (blocks, back_order) = bundle_from_bytes(&bytes).expect("bundle");
            assert_eq!(back_order.as_deref(), Some(&order[..]), "{}", enc.name());
            assert_eq!(blocks.len(), written.len());
            for (back, orig) in blocks.iter().zip(&written) {
                assert_eq!(back.rows(), orig.rows(), "{}", enc.name());
                let mut y_a = vec![0.0; orig.rows()];
                let mut y_b = vec![0.0; orig.rows()];
                orig.right_multiply(&x, &mut y_a).unwrap();
                back.right_multiply(&x, &mut y_b).unwrap();
                assert_eq!(y_a, y_b, "{}", enc.name());
            }
        }
    }

    #[test]
    fn bundle_single_block_equals_matrix() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReIv);
        let bytes = bundle_to_bytes(std::slice::from_ref(&cm), None);
        let (blocks, order) = bundle_from_bytes(&bytes).unwrap();
        assert!(order.is_none());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].decompress_symbols(), cm.decompress_symbols());
    }

    #[test]
    fn bundle_blocks_share_one_dictionary_arc() {
        let csrv = sample();
        let bytes = bundle_to_bytes(&compressed_blocks(&csrv, Encoding::Re32, 3), None);
        let (blocks, _) = bundle_from_bytes(&bytes).unwrap();
        for pair in blocks.windows(2) {
            assert!(std::ptr::eq(
                pair[0].values().as_ptr(),
                pair[1].values().as_ptr()
            ));
        }
    }

    #[test]
    fn shared_bundles_roundtrip_against_one_dictionary() {
        let csrv = sample();
        let order: Vec<u32> = (0..7).rev().collect();
        for enc in Encoding::ALL {
            let written = compressed_blocks(&csrv, enc, 3);
            let full = bundle_to_bytes(&written, Some(&order));
            let shared = bundle_to_bytes_shared(&written, Some(&order));
            assert_eq!(full.len() - shared.len(), csrv.values().len() * 8);
            let dict = Arc::new(csrv.values().to_vec());
            let (blocks, back_order) = bundle_from_bytes_shared(&shared, &dict).unwrap();
            assert_eq!(back_order.as_deref(), Some(&order[..]));
            for (b, orig) in blocks.iter().zip(&written) {
                assert!(Arc::ptr_eq(b.values_arc(), &dict));
                assert_eq!(b.decompress_symbols(), orig.decompress_symbols());
            }
            // A bundle that embeds its own dictionary is not dictionary-free.
            assert!(bundle_from_bytes_shared(&full, &dict).is_none());
        }
    }

    #[test]
    fn shared_bundle_rejects_a_shrunken_dictionary() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let shared = bundle_to_bytes_shared(std::slice::from_ref(&cm), None);
        // One value short: the terminal alphabet shrinks under the
        // grammar, whose symbols now index past it.
        let short = Arc::new(csrv.values()[1..].to_vec());
        assert!(bundle_from_bytes_shared(&shared, &short).is_none());
        assert!(bundle_from_bytes_shared(&shared, &Arc::new(Vec::new())).is_none());
        for cut in [8, 12, shared.len() / 2, shared.len() - 1] {
            let dict = cm.values_arc();
            assert!(bundle_from_bytes_shared(&shared[..cut], dict).is_none());
        }
    }

    fn mr_sample(enc: Encoding) -> CompressedMatrix {
        use gcm_matrix::SEPARATOR;
        let csrv = sample();
        let mr = gcm_repair::RePair::new().compress_mr(
            csrv.symbols(),
            csrv.terminal_limit(),
            Some(SEPARATOR),
        );
        CompressedMatrix::from_mr_slp(&csrv, &mr, enc)
    }

    #[test]
    fn binary_grammars_keep_v1_v2_magic() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::ReAns);
        assert_eq!(&to_bytes(&cm)[..8], MAGIC);
        assert_eq!(
            &bundle_to_bytes(std::slice::from_ref(&cm), None)[..8],
            MAGIC_V2
        );
    }

    #[test]
    fn mr_roundtrip_all_encodings() {
        for enc in Encoding::ALL {
            let cm = mr_sample(enc);
            let bytes = to_bytes(&cm);
            if cm.rule_ext().is_some() {
                assert_eq!(&bytes[..8], MAGIC_V3, "{}", enc.name());
            }
            let back = from_bytes(&bytes).expect("deserialise");
            assert_eq!(back.decompress_symbols(), cm.decompress_symbols());
            let x: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
            let mut y_a = vec![0.0; 40];
            let mut y_b = vec![0.0; 40];
            cm.right_multiply(&x, &mut y_a).unwrap();
            back.right_multiply(&x, &mut y_b).unwrap();
            assert_eq!(y_a, y_b, "{}", enc.name());
        }
    }

    #[test]
    fn mr_bundle_roundtrip_and_truncation() {
        let cm = mr_sample(Encoding::ReIv);
        assert!(cm.rule_ext().is_some(), "sample must have wide rules");
        let bytes = bundle_to_bytes(std::slice::from_ref(&cm), None);
        assert_eq!(&bytes[..8], MAGIC_V4);
        let (blocks, order) = bundle_from_bytes(&bytes).expect("bundle");
        assert!(order.is_none());
        assert_eq!(blocks[0].decompress_symbols(), cm.decompress_symbols());
        for cut in [8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(bundle_from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let single = to_bytes(&cm);
        for cut in [9, single.len() / 2, single.len() - 1] {
            assert!(from_bytes(&single[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn forged_wide_rule_count_is_rejected_before_allocation() {
        let cm = mr_sample(Encoding::Re32);
        let bytes = to_bytes(&cm);
        // Locate the ext section: it starts right after the stores. Re-parse
        // headers to find it, then splice in an absurd wide-rule count.
        let mut pos = 9usize;
        for _ in 0..3 {
            varint::read_u64(&bytes, &mut pos).unwrap();
        }
        let n_values = varint::read_u64(&bytes, &mut pos).unwrap() as usize;
        pos += n_values * 8;
        read_stores(&bytes, &mut pos, Encoding::Re32).unwrap();
        let mut forged = bytes[..pos].to_vec();
        varint::write_u64(&mut forged, u32::MAX as u64);
        assert!(from_bytes(&forged).is_none());
    }

    #[test]
    fn bundle_rejects_bad_order_and_truncation() {
        let csrv = sample();
        let cm = CompressedMatrix::compress(&csrv, Encoding::Re32);
        let order: Vec<u32> = (0..7).collect();
        let bytes = bundle_to_bytes(std::slice::from_ref(&cm), Some(&order));
        // Corrupt one order entry into a duplicate: no longer a permutation.
        let mut bad = bytes.clone();
        // Order entries start right after magic(8) + tag(1) + cols varint(1)
        // + order_len varint(1) = offset 11.
        bad[11..15].copy_from_slice(&1u32.to_le_bytes());
        bad[15..19].copy_from_slice(&1u32.to_le_bytes());
        assert!(bundle_from_bytes(&bad).is_none());
        for cut in [8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(bundle_from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        assert!(bundle_from_bytes(b"GCMMAT2\0").is_none());
    }
}
