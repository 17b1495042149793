//! The versioned on-disk model container (`GCMSERV1`).
//!
//! Layout of **version 7**, the one layout the writer emits (all
//! integers varint unless noted):
//!
//! ```text
//! magic "GCMSERV1" | u8 container version | u8 backend tag
//! rows | cols | num_shards
//! |V| + V as f64 LE                      -- the one value dictionary
//! per shard: u8 reorder algorithm tag
//!            u8 grammar stage tag, u64 LE fingerprint if tag != 0
//!            payload_len | payload bytes (dictionary-free)
//! plan section
//!  per shard: u8 plan kind (0 none, 1 f64, 2 f32)
//!             if kind != 0: blob_count (always 1) | len | blob
//! checksum trailer: one u64 LE FNV-1a per CHECKSUM_CHUNK bytes of
//!                   everything above, in order (the last chunk may be
//!                   shorter)
//! ```
//!
//! The paper's matrix is the triple `(C, R, V)`, one value dictionary
//! under the grammar, and the container stores `V` **once**, after the
//! header, for every backend and shard count: every shard payload is
//! dictionary-free and a full load decodes it against one shared `Arc`.
//! A shard's reorder tag records the algorithm behind its column
//! permutation; its grammar stage tag (RePair or MR-RePair; `0` for an
//! uncompressed shard or one loaded from a container older than version
//! 5) comes with the fingerprint of its build plan
//! ([`gcm_pipeline::ShardPlan::fingerprint`]) — the input rows, `V`,
//! the encoding and grammar policies and the reorder action — which is
//! what `gcm compress --base` matches unchanged shards by (see
//! [`compress_incremental`](crate::incremental)). The plan section's
//! kind bytes are all `0` unless plans were persisted
//! ([`to_bytes_with_plans`]).
//!
//! The checksum trailer holds one FNV-1a 64 per fixed-size chunk of the
//! body ([`CHECKSUM_CHUNK`] bytes), so a loader verifies the chunks in
//! parallel with each other and with the shard decodes, whatever the
//! sections' sizes (a single plan blob can be most of a container). The
//! trailer length follows from the file length: `n` sums cover a body
//! of `len - 8n` bytes, with `n = ceil(len / (CHECKSUM_CHUNK + 8))`.
//!
//! Versions 1 to 6 are **read-only**: older writers emitted them, and
//! the reader keeps accepting them with every check. Each ends in one
//! FNV-1a 64 of every preceding byte — the one-chunk case of the same
//! verifier. **Version 1** has no per-shard fields and requires every
//! shard to agree on the column reorder (the permutation is embedded
//! redundantly in each payload, and the loader treats disagreement as
//! corruption). **Version 2** adds the per-shard reorder tag, so shards
//! may carry different permutations. **Version 3** is the version-2
//! layout, marking that a shard payload uses a post-paper encoding
//! (`re_fse`). **Version 4** appends the plan section: the compiled
//! [`gcm_core::KernelPlan`] descriptor arrays of every planned shard,
//! persisted in the fixed little-endian `GCMPLAN1` blob form (one blob
//! per shard; the shard's kind byte names the plan precision, and the
//! blob's own precision tag must agree with it), so a loader restores
//! them with a validated cast — no RePair decode, no recompilation
//! ([`gcm_core::plan_compiles`] stays flat), load time independent of
//! grammar size. **Version 5** adds the grammar stage tag and a
//! fingerprint of the shard's input rows and `V` alone. **Version 6**
//! stores `V` once, for compressed models of two or more shards only.
//! Up to version 5 every payload embeds its own copy of `V`; the loader
//! requires the copies to agree.
//!
//! Shard payloads by backend tag:
//!
//! * `0` `csrv` — a column-order prefix (varint len + u32 LE entries,
//!   `0` = none) then a `GCMCSRV1` section
//!   ([`gcm_matrix::io::write_csrv_bytes_shared`]; with its own `V`
//!   before version 7);
//! * `2` `compressed` — a single-block `GCMMAT2` bundle
//!   ([`gcm_core::serial::bundle_to_bytes_shared`]; with its own `V`
//!   before version 6), which also carries the column-reorder
//!   permutation;
//! * `1` `parcsrv` and `3` `blocked` — **retired, rejected**: these
//!   backends cut a shard into row blocks, which row shards replace.
//!   Loading such a container fails with [`ServeError::RetiredBackend`],
//!   whose message names the replacement; rebuild it from the source
//!   matrix with `--backend compressed|csrv --shards N`.
//!
//! The shard table makes the container *mmap-style*: a reader can locate
//! and decode one shard's byte range without touching the others
//! ([`ShardTable`]), which is how a multi-process deployment would map
//! one file and fault in only the shards it serves.
//!
//! Loading is validating end to end: the checksum rejects bit rot and
//! truncation outright, and every payload and plan blob passes the
//! structural validation of its section format, so a corrupt file can
//! never panic a kernel. [`from_bytes`] verifies the checksum alongside
//! decode — each chunk check is one pool task, next to one task per
//! shard that decodes its payload and casts its plan from bounds-checked
//! byte ranges — and nothing decoded escapes before every chunk passes:
//! a mismatch is reported ahead of any structural error, exactly as the
//! verify-first [`from_bytes_sequential`] reports it.
//!
//! Bare `GCMMAT1` / `GCMMAT2` payloads ([`gcm_core::serial`]'s
//! single-matrix and row-block bundle formats) are accepted for
//! compatibility, as compressed models with one shard per block sharing
//! the bundle's column order.

use std::borrow::Cow;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gcm_core::serial;
use gcm_core::KernelPlan;
use gcm_encodings::varint;
use gcm_matrix::{io as mio, MatrixError};
use gcm_pipeline::{Backend, BuiltShard, GrammarStage, Model, ModelPlan, ShardMeta};
use gcm_reorder::ReorderAlgorithm;

use crate::sharded::{Shard, ShardedModel};

/// Container magic.
pub const MAGIC: &[u8; 8] = b"GCMSERV1";
/// Baseline container version, read-only: shards agree on the column
/// reorder.
pub const VERSION: u8 = 1;
/// Read-only container version with first-class per-shard reorder
/// metadata (one permutation and one algorithm tag per shard).
pub const VERSION_PER_SHARD: u8 = 2;
/// Read-only container version marking shard payloads that may use
/// post-paper encodings (currently `re_fse`). Same layout as version 2.
pub const VERSION_ENCODINGS: u8 = 3;
/// Read-only container version with an optional persisted **plan
/// section** after the shard payloads: per-shard compiled kernel-plan
/// blobs (`GCMPLAN1`), loaded back by validated cast instead of being
/// recompiled from the grammar.
pub const VERSION_PLANS: u8 = 4;
/// Read-only container version with per-shard **grammar provenance**:
/// a stage tag (which grammar construction compressed the shard —
/// RePair or MR-RePair) and the u64 FNV fingerprint of the shard's
/// input rows and `V`, written between the reorder tag and the payload
/// length. Version 5 always carries the v4 plan section (per-shard kind
/// bytes; `0` = no plan).
pub const VERSION_GRAMMAR: u8 = 5;
/// Read-only container version with one **shared value dictionary** for
/// compressed models of two or more shards: the version-5 layout plus a
/// `V` section after the header, with every shard payload a
/// dictionary-free grammar bundle decoded against it.
pub const VERSION_SHARED_DICT: u8 = 6;
/// The container version the writer emits: the version-6 layout for
/// every backend and shard count (one `V`, dictionary-free payloads),
/// fingerprints of the shards' build plans, and a checksum trailer of
/// one FNV-1a 64 per [`CHECKSUM_CHUNK`] bytes.
pub const VERSION_CHUNKED: u8 = 7;

/// Bytes of container body each checksum of a version-7 trailer covers.
/// A power of two small enough that every container splits into more
/// chunks than the pool has workers, and large enough that a trailer
/// costs under 0.01 % of the body.
pub const CHECKSUM_CHUNK: usize = 128 << 10;

/// Stable on-disk tag of a reorder algorithm (version 2 provenance
/// byte); `0` = no reorder recorded.
pub(crate) fn reorder_tag(algo: Option<ReorderAlgorithm>) -> u8 {
    match algo {
        None => 0,
        Some(ReorderAlgorithm::Lkh) => 1,
        Some(ReorderAlgorithm::PathCover) => 2,
        Some(ReorderAlgorithm::PathCoverPlus) => 3,
        Some(ReorderAlgorithm::Mwm) => 4,
    }
}

/// Inverse of [`reorder_tag`]; outer `None` = invalid tag.
fn tag_reorder(t: u8) -> Option<Option<ReorderAlgorithm>> {
    match t {
        0 => Some(None),
        1 => Some(Some(ReorderAlgorithm::Lkh)),
        2 => Some(Some(ReorderAlgorithm::PathCover)),
        3 => Some(Some(ReorderAlgorithm::PathCoverPlus)),
        4 => Some(Some(ReorderAlgorithm::Mwm)),
        _ => None,
    }
}

/// Stable on-disk tag of a grammar stage (version 5 provenance byte);
/// `0` = no stage recorded (an uncompressed shard, or one loaded from a
/// container older than version 5).
pub(crate) fn grammar_tag(stage: Option<GrammarStage>) -> u8 {
    match stage {
        None => 0,
        Some(GrammarStage::RePair) => 1,
        Some(GrammarStage::MrRePair) => 2,
    }
}

/// Inverse of [`grammar_tag`]; outer `None` = invalid tag.
fn tag_grammar(t: u8) -> Option<Option<GrammarStage>> {
    match t {
        0 => Some(None),
        1 => Some(Some(GrammarStage::RePair)),
        2 => Some(Some(GrammarStage::MrRePair)),
        _ => None,
    }
}

/// Errors of the serve layer (store, container, registry).
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structurally invalid container or payload.
    Corrupt(String),
    /// Dimension or construction failure from the matrix layer.
    Matrix(MatrixError),
    /// Invalid model name or unknown model.
    BadName(String),
    /// A container of a retired backend: its shards hold row blocks,
    /// which row shards replace. Rebuild it from the source matrix.
    RetiredBackend {
        /// The container's backend tag.
        tag: u8,
        /// The retired backend's name.
        name: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            ServeError::Matrix(e) => write!(f, "matrix error: {e}"),
            ServeError::BadName(msg) => write!(f, "bad model name: {msg}"),
            ServeError::RetiredBackend { tag, name } => write!(
                f,
                "retired backend {name} (tag {tag}): row shards replace its in-shard row \
                 blocks; rebuild the container with --backend compressed|csrv --shards N"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<MatrixError> for ServeError {
    fn from(e: MatrixError) -> Self {
        ServeError::Matrix(e)
    }
}

fn corrupt(msg: impl Into<String>) -> ServeError {
    ServeError::Corrupt(msg.into())
}

/// FNV-1a 64 over `data` — the hash of every container checksum.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Rejects input too short to be a container or without the `GCMSERV1`
/// magic — the one check that precedes the checksum.
fn check_magic(data: &[u8]) -> Result<(), ServeError> {
    if data.len() < MAGIC.len() + 2 + 8 || &data[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    Ok(())
}

/// How a container's checksum trailer covers its body: the first
/// `body_len` bytes, cut into `chunk`-byte pieces (the last may be
/// shorter), one FNV-1a 64 each, stored in order after the body.
/// Versions 1 to 6 are the one-chunk case: one sum of every preceding
/// byte. The version byte decides which; it lies in the first chunk, so
/// a flipped one fails that chunk's check.
#[derive(Debug, Clone, Copy)]
struct Trailer {
    body_len: usize,
    chunk: usize,
}

impl Trailer {
    /// The trailer of `data`. The caller has run [`check_magic`].
    ///
    /// # Errors
    /// Fails when no body length fits the container length: `n` sums
    /// cover a body of `len - 8n` bytes, and only
    /// `n = ceil(len / (CHECKSUM_CHUNK + 8))` can make that body exactly
    /// `n` chunks long — the other lengths are truncated or padded.
    fn of(data: &[u8]) -> Result<Trailer, ServeError> {
        if data[8] < VERSION_CHUNKED {
            let body_len = data.len() - 8;
            return Ok(Trailer {
                body_len,
                chunk: body_len,
            });
        }
        let n = data.len().div_ceil(CHECKSUM_CHUNK + 8);
        let trailer = Trailer {
            body_len: data.len() - 8 * n,
            chunk: CHECKSUM_CHUNK,
        };
        if trailer.chunks() != n {
            return Err(corrupt(format!(
                "checksum mismatch: {} bytes fit no chunk trailer",
                data.len()
            )));
        }
        Ok(trailer)
    }

    /// Number of checksummed chunks.
    fn chunks(&self) -> usize {
        self.body_len.div_ceil(self.chunk)
    }

    /// Compares chunk `i`'s stored sum with the FNV-1a of its bytes.
    fn verify(&self, data: &[u8], i: usize) -> Result<(), ServeError> {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.body_len);
        let at = self.body_len + 8 * i;
        let stored = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
        let actual = fnv1a64(&data[start..end]);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch in chunk {i} (stored {stored:016x}, computed {actual:016x})"
            )));
        }
        Ok(())
    }

    /// Verifies every chunk in order, reporting the first mismatch.
    fn verify_all(&self, data: &[u8]) -> Result<(), ServeError> {
        (0..self.chunks()).try_for_each(|i| self.verify(data, i))
    }
}

/// Appends the version-7 checksum trailer to the body `out`: one FNV-1a
/// 64 per [`CHECKSUM_CHUNK`] bytes, hashed on the pool.
fn seal(out: &mut Vec<u8>) {
    let sums = gcm_pipeline::par_map(out.len().div_ceil(CHECKSUM_CHUNK), |i| {
        fnv1a64(&out[i * CHECKSUM_CHUNK..((i + 1) * CHECKSUM_CHUNK).min(out.len())])
    });
    for sum in sums {
        out.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Rewrites the checksum trailer of `bytes` to match its body, in place
/// — for tools and tests that forge a container field and want the
/// structural validators, not the checksum, to judge it. Input too short
/// to be a container or without the magic is left as it is.
pub fn reseal(bytes: &mut [u8]) {
    if check_magic(bytes).is_err() {
        return;
    }
    let Ok(trailer) = Trailer::of(bytes) else {
        return;
    };
    let (body, sums) = bytes.split_at_mut(trailer.body_len);
    for (sum, chunk) in sums.chunks_exact_mut(8).zip(body.chunks(trailer.chunk)) {
        sum.copy_from_slice(&fnv1a64(chunk).to_le_bytes());
    }
}

/// Writes the optional column-reorder permutation prefix of the csrv
/// payload (`varint len` + u32 LE entries; `0` = none). The compressed
/// backend instead carries the order inside its `GCMMAT2` bundle, so
/// *every* backend round-trips the provenance metadata.
fn write_col_order(out: &mut Vec<u8>, col_order: Option<&[u32]>) {
    let order = col_order.unwrap_or(&[]);
    varint::write_u64(out, order.len() as u64);
    for &c in order {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

/// Inverse of [`write_col_order`], validating the permutation via the
/// shared `serial` helpers.
fn read_col_order(
    data: &[u8],
    pos: &mut usize,
    cols: usize,
) -> Result<Option<Vec<u32>>, ServeError> {
    // Bounds run on the raw u64 *before* the narrowing cast: on 32-bit
    // targets `as usize` would truncate a forged length silently and the
    // checks below would then pass on the wrong value.
    let len = varint::read_u64(data, pos).ok_or_else(|| corrupt("missing column order length"))?;
    if len == 0 {
        return Ok(None);
    }
    if len != cols as u64 {
        return Err(corrupt("column order length mismatch"));
    }
    // Bound the declared length by the bytes actually present *before*
    // any reservation sized from it: a forged-checksum container must
    // not be able to request an absurd allocation.
    if len > (data.len().saturating_sub(*pos) / 4) as u64 {
        return Err(corrupt("column order length exceeds remaining payload"));
    }
    let len = len as usize;
    let order =
        serial::read_exact_u32s(data, pos, len).ok_or_else(|| corrupt("truncated column order"))?;
    if !serial::is_permutation(&order, cols) {
        return Err(corrupt("column order is not a permutation"));
    }
    Ok(Some(order))
}

/// Serialises one shard's model as a dictionary-free payload, whose `V`
/// the container stores once.
fn shard_payload(model: &Model, col_order: Option<&[u32]>) -> Vec<u8> {
    match model {
        Model::Csrv(m) => {
            let mut out = Vec::new();
            write_col_order(&mut out, col_order);
            mio::write_csrv_bytes_shared(m, &mut out);
            out
        }
        Model::Compressed(m) => serial::bundle_to_bytes_shared(std::slice::from_ref(m), col_order),
    }
}

/// Decodes one shard payload; `dict` is the container's one dictionary
/// (versions 6 and 7), against which dictionary-free payloads are read.
fn decode_shard(
    backend: Backend,
    cols: usize,
    payload: &[u8],
    dict: Option<&Arc<Vec<f64>>>,
) -> Result<(Model, Option<Vec<u32>>), ServeError> {
    match backend {
        Backend::Csrv => {
            let mut pos = 0usize;
            let order = read_col_order(payload, &mut pos, cols)?;
            let m = match dict {
                Some(values) => mio::read_csrv_bytes_shared(payload, &mut pos, values),
                None => mio::read_csrv_bytes(payload, &mut pos),
            }
            .ok_or_else(|| corrupt("invalid csrv shard payload"))?;
            Ok((Model::Csrv(m), order))
        }
        Backend::Compressed => {
            let (mut blocks, order) = match dict {
                Some(values) => serial::bundle_from_bytes_shared(payload, values),
                None => serial::bundle_from_bytes(payload),
            }
            .ok_or_else(|| corrupt("invalid compressed shard bundle"))?;
            if blocks.len() != 1 {
                return Err(corrupt("compressed shard must hold exactly one block"));
            }
            let m = blocks.pop().expect("length checked");
            if m.cols() != cols {
                return Err(corrupt("shard column count mismatches header"));
            }
            Ok((Model::Compressed(m), order))
        }
    }
}

/// Serialises a sharded model as a version-7 `GCMSERV1` container.
/// Compiled plans are **not** persisted here (see
/// [`to_bytes_with_plans`]): every plan kind byte is `0`.
pub fn to_bytes(model: &ShardedModel) -> Vec<u8> {
    encode(model, false)
}

/// As [`to_bytes`], additionally persisting every compiled shard plan
/// in the plan section, so the next load restores the plans by
/// validated cast — zero RePair decode, zero recompilation — and
/// `prewarm` becomes a cheap validation-and-warm pass. Identical to
/// [`to_bytes`] when no shard holds a compiled plan.
pub fn to_bytes_with_plans(model: &ShardedModel) -> Vec<u8> {
    encode(model, true)
}

fn encode(model: &ShardedModel, with_plans: bool) -> Vec<u8> {
    let shards = model.shard_slice();
    let segments: Vec<Segment> = shards
        .iter()
        .map(|s| Segment::live(s, with_plans))
        .collect();
    write_container(
        Header {
            backend: model.backend(),
            rows: model.rows(),
            cols: model.cols(),
            // Every shard holds this one `V` (`from_shards` asserts it).
            dictionary: shards.first().map_or(&[][..], |s| s.model().dictionary()),
        },
        &segments,
    )
}

/// The container header fields of [`write_container`].
pub(crate) struct Header<'a> {
    pub(crate) backend: Backend,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// The value dictionary every shard payload indexes.
    pub(crate) dictionary: &'a [f64],
}

/// One shard's on-disk pieces, as [`write_container`] writes them.
pub(crate) struct Segment<'a> {
    /// The shard's provenance record. The reorder tag, grammar tag and
    /// fingerprint precede the payload; the column order goes into a
    /// live shard's payload, and a spliced payload already holds it.
    pub(crate) meta: &'a ShardMeta,
    pub(crate) body: SegmentBody<'a>,
}

/// Where a segment's payload and plan blobs come from.
pub(crate) enum SegmentBody<'a> {
    /// A live shard, serialised while the container is written (one
    /// payload or plan blob at a time, never all at once).
    Live {
        model: &'a Model,
        plan: Option<&'a ModelPlan>,
    },
    /// Bytes taken from a base container without decoding them.
    Spliced {
        payload: &'a [u8],
        /// `(kind, blob)` of the plan section; `None` writes kind `0`.
        plan: Option<(u8, &'a [u8])>,
    },
}

impl<'a> Segment<'a> {
    /// The segment of a live shard, persisting its compiled plan when
    /// `with_plans` is set.
    pub(crate) fn live(shard: &'a Shard, with_plans: bool) -> Self {
        Segment {
            meta: &shard.built.meta,
            body: SegmentBody::Live {
                model: shard.model(),
                plan: shard.plan().filter(|_| with_plans),
            },
        }
    }
}

/// Plan kind byte: 1 = `f64`, 2 = `f32`.
pub(crate) fn plan_kind(f32_plan: bool) -> u8 {
    if f32_plan {
        2
    } else {
        1
    }
}

fn write_blob(out: &mut Vec<u8>, blob: &[u8]) {
    varint::write_u64(out, blob.len() as u64);
    out.extend_from_slice(blob);
}

/// Writes a version-7 `GCMSERV1` container of `segments`: the one
/// writer behind both [`to_bytes`] and the incremental splice.
pub(crate) fn write_container(header: Header<'_>, segments: &[Segment<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION_CHUNKED);
    out.push(header.backend.tag());
    varint::write_u64(&mut out, header.rows as u64);
    varint::write_u64(&mut out, header.cols as u64);
    varint::write_u64(&mut out, segments.len() as u64);
    serial::write_values(&mut out, header.dictionary);
    for seg in segments {
        out.push(reorder_tag(seg.meta.reorder));
        let tag = grammar_tag(seg.meta.grammar);
        out.push(tag);
        if tag != 0 {
            out.extend_from_slice(&seg.meta.fingerprint.unwrap_or(0).to_le_bytes());
        }
        match &seg.body {
            SegmentBody::Live { model, .. } => write_blob(
                &mut out,
                &shard_payload(model, seg.meta.col_order.as_deref()),
            ),
            SegmentBody::Spliced { payload, .. } => write_blob(&mut out, payload),
        }
    }
    for seg in segments {
        let (kind, blob) = match &seg.body {
            SegmentBody::Live { plan: None, .. } | SegmentBody::Spliced { plan: None, .. } => {
                out.push(0);
                continue;
            }
            SegmentBody::Live {
                plan: Some(plan), ..
            } => (
                plan_kind(plan.is_f32()),
                Cow::Owned(plan.kernel().to_bytes()),
            ),
            SegmentBody::Spliced {
                plan: Some((kind, blob)),
                ..
            } => (*kind, Cow::Borrowed(*blob)),
        };
        out.push(kind);
        varint::write_u64(&mut out, 1); // blob count
        write_blob(&mut out, &blob);
    }
    seal(&mut out);
    out
}

/// The parsed header and shard byte ranges of a container — everything a
/// reader needs to decode shards selectively (the mmap-style access
/// path) or to inspect a model without materialising it.
#[derive(Debug, Clone)]
pub struct ShardTable {
    /// Container version ([`VERSION`] through [`VERSION_CHUNKED`]).
    pub version: u8,
    /// Backend of every shard.
    pub backend: Backend,
    /// Total rows (validated against the decoded shards on full load).
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Byte range of the container's one value dictionary's doubles
    /// (`8·|V|` bytes) — `Some` from [`VERSION_SHARED_DICT`] on, whose
    /// shard payloads are decoded against it; `None` for older versions,
    /// whose payloads embed their own.
    pub dictionary: Option<std::ops::Range<usize>>,
    /// Number of checksummed chunks in the trailer (1 below
    /// [`VERSION_CHUNKED`]).
    pub checksum_chunks: usize,
    /// Byte range of each shard payload within the container.
    pub shard_ranges: Vec<std::ops::Range<usize>>,
    /// Byte range of shard `i`'s persisted plan blob — `None` when the
    /// shard carries no persisted plan (always `None` for versions
    /// below [`VERSION_PLANS`]). A `Some` entry means this container
    /// loads the shard's plan by validated cast instead of compiling it.
    pub plan_ranges: Vec<Option<std::ops::Range<usize>>>,
    /// Whether shard `i`'s persisted plan is single-precision (`f32`);
    /// meaningful only where [`plan_ranges`](Self::plan_ranges) is
    /// `Some`.
    pub plan_f32: Vec<bool>,
    /// Per-shard provenance as the shard table records it. The reorder
    /// algorithm is `None` throughout version 1, which does not record
    /// it. The grammar stage is `None` below [`VERSION_GRAMMAR`], for
    /// uncompressed shards, and for shards carried over from an older
    /// container; the fingerprint is recorded exactly where the stage
    /// is. From [`VERSION_CHUNKED`] on the fingerprint covers the
    /// shard's build plan ([`gcm_pipeline::ShardPlan::fingerprint`]);
    /// versions 5 and 6 hash only the input rows and `V`. `col_order`
    /// is always `None` here: the permutation lives inside the shard's
    /// payload, and decoding the shard fills it in.
    pub meta: Vec<ShardMeta>,
}

impl ShardTable {
    /// Parses and checksum-verifies a container, returning its shard
    /// table without decoding any payload.
    ///
    /// # Errors
    /// Fails on bad magic/version/tag, truncation, or checksum mismatch,
    /// and with [`ServeError::RetiredBackend`] on a retired backend tag.
    pub fn parse(data: &[u8]) -> Result<ShardTable, ServeError> {
        check_magic(data)?;
        let trailer = Trailer::of(data)?;
        trailer.verify_all(data)?;
        Self::parse_layout(data, trailer)
    }

    /// The layout half of [`parse`](Self::parse): header, dictionary,
    /// shard and plan ranges within the body `trailer` covers,
    /// **without** the checksum — so a loader can verify the chunks
    /// concurrently with decoding. Every range is bounded by the bytes
    /// present, so the result is safe to decode from, but nothing decoded
    /// may be trusted until every chunk passes.
    fn parse_layout(data: &[u8], trailer: Trailer) -> Result<ShardTable, ServeError> {
        let body_len = trailer.body_len;
        let version = data[8];
        if !(VERSION..=VERSION_CHUNKED).contains(&version) {
            return Err(corrupt(format!("unsupported container version {version}")));
        }
        let tag = data[9];
        let retired = match tag {
            1 => Some("parcsrv"),
            3 => Some("blocked"),
            _ => None,
        };
        if let Some(name) = retired {
            return Err(ServeError::RetiredBackend { tag, name });
        }
        let backend = Backend::from_tag(tag).ok_or_else(|| corrupt("unknown backend tag"))?;
        let mut pos = 10usize;
        let rows = varint::read_u64(data, &mut pos).ok_or_else(|| corrupt("bad rows"))?;
        let cols = varint::read_u64(data, &mut pos).ok_or_else(|| corrupt("bad cols"))?;
        // Plausibility bounds on the header dimensions, before either
        // value can size a downstream reservation — run on the raw u64
        // values so a 32-bit `as usize` cannot truncate a forged header
        // under the check (both row and column indices are u32
        // throughout the formats and the plan section).
        if cols > u64::from(u32::MAX) {
            return Err(corrupt("implausible column count"));
        }
        if rows > u64::from(u32::MAX) {
            return Err(corrupt("implausible row count"));
        }
        let (rows, cols) = (rows as usize, cols as usize);
        let num_shards =
            varint::read_u64(data, &mut pos).ok_or_else(|| corrupt("bad shard count"))?;
        if num_shards == 0 || num_shards > body_len as u64 {
            return Err(corrupt("implausible shard count"));
        }
        let num_shards = num_shards as usize;
        let dictionary = if version >= VERSION_SHARED_DICT {
            // Version 6 stored `V` once only for compressed models of two
            // or more shards; version 7 does for every model.
            if version == VERSION_SHARED_DICT && backend != Backend::Compressed {
                return Err(corrupt(format!(
                    "version {version} shares a dictionary, which a {} backend cannot",
                    backend.name()
                )));
            }
            if version == VERSION_SHARED_DICT && num_shards < 2 {
                return Err(corrupt(format!(
                    "version {version} container needs at least two shards"
                )));
            }
            let n =
                varint::read_u64(data, &mut pos).ok_or_else(|| corrupt("bad dictionary length"))?;
            // Bounded by the bytes present (on the raw u64) before the
            // length sizes anything.
            if n > (body_len.saturating_sub(pos) / 8) as u64 {
                return Err(corrupt("dictionary overruns container"));
            }
            let end = pos + n as usize * 8;
            let range = pos..end;
            pos = end;
            Some(range)
        } else {
            None
        };
        let mut shard_ranges = Vec::with_capacity(num_shards);
        let mut meta = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let mut shard = ShardMeta::default();
            if version >= VERSION_PER_SHARD {
                let tag = *data
                    .get(pos)
                    .filter(|_| pos < body_len)
                    .ok_or_else(|| corrupt(format!("missing shard {i} reorder tag")))?;
                shard.reorder = tag_reorder(tag)
                    .ok_or_else(|| corrupt(format!("unknown shard {i} reorder tag {tag}")))?;
                pos += 1;
            }
            if version >= VERSION_GRAMMAR {
                let tag = *data
                    .get(pos)
                    .filter(|_| pos < body_len)
                    .ok_or_else(|| corrupt(format!("missing shard {i} grammar tag")))?;
                shard.grammar = tag_grammar(tag)
                    .ok_or_else(|| corrupt(format!("unknown shard {i} grammar tag {tag}")))?;
                pos += 1;
                if shard.grammar.is_some() {
                    let end = pos
                        .checked_add(8)
                        .filter(|&e| e <= body_len)
                        .ok_or_else(|| corrupt(format!("missing shard {i} fingerprint")))?;
                    shard.fingerprint = Some(u64::from_le_bytes(
                        data[pos..end].try_into().expect("8 bytes checked"),
                    ));
                    pos = end;
                }
            }
            meta.push(shard);
            let len = varint::read_u64(data, &mut pos)
                .ok_or_else(|| corrupt(format!("bad shard {i} length")))?;
            // Bounded against the remaining body as u64, so the cast
            // below cannot truncate a forged length into range.
            if len > body_len.saturating_sub(pos) as u64 {
                return Err(corrupt(format!("shard {i} overruns container")));
            }
            let end = pos + len as usize;
            shard_ranges.push(pos..end);
            pos = end;
        }
        let mut plan_ranges = vec![None; num_shards];
        let mut plan_f32 = vec![false; num_shards];
        if version >= VERSION_PLANS {
            for i in 0..num_shards {
                let kind = *data
                    .get(pos)
                    .filter(|_| pos < body_len)
                    .ok_or_else(|| corrupt(format!("missing shard {i} plan kind")))?;
                pos += 1;
                if kind == 0 {
                    continue;
                }
                if kind > 2 {
                    return Err(corrupt(format!("unknown shard {i} plan kind {kind}")));
                }
                plan_f32[i] = kind == 2;
                let count = varint::read_u64(data, &mut pos)
                    .ok_or_else(|| corrupt(format!("bad shard {i} plan count")))?;
                if count != 1 {
                    return Err(corrupt(format!(
                        "shard {i} plan count {count}: a shard holds one plan blob"
                    )));
                }
                let len = varint::read_u64(data, &mut pos)
                    .ok_or_else(|| corrupt(format!("bad shard {i} plan length")))?;
                if len > body_len.saturating_sub(pos) as u64 {
                    return Err(corrupt(format!("shard {i} plan overruns container")));
                }
                let end = pos + len as usize;
                plan_ranges[i] = Some(pos..end);
                pos = end;
            }
        }
        if pos != body_len {
            return Err(corrupt("trailing bytes after shard table"));
        }
        Ok(ShardTable {
            version,
            backend,
            rows,
            cols,
            dictionary,
            checksum_chunks: trailer.chunks(),
            shard_ranges,
            plan_ranges,
            plan_f32,
            meta,
        })
    }

    /// Decodes the single shard `i` from the container bytes the table
    /// was parsed from.
    ///
    /// # Errors
    /// Fails if the payload is structurally invalid.
    pub fn decode_shard(&self, data: &[u8], i: usize) -> Result<Model, ServeError> {
        let range = self
            .shard_ranges
            .get(i)
            .ok_or_else(|| corrupt(format!("shard {i} out of range")))?
            .clone();
        let dict = self.decode_dictionary(data);
        decode_shard(self.backend, self.cols, &data[range], dict.as_ref()).map(|(m, _)| m)
    }

    /// Decodes the container's one value dictionary from the bytes the
    /// table was parsed from (`None` below [`VERSION_SHARED_DICT`]).
    pub(crate) fn decode_dictionary(&self, data: &[u8]) -> Option<Arc<Vec<f64>>> {
        let range = self.dictionary.clone()?;
        Some(Arc::new(
            data[range]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        ))
    }

    /// Total bytes of the persisted plan section (0 when the container
    /// carries none) — what `gcm inspect` reports as the cast-on-load
    /// footprint.
    pub fn plan_bytes(&self) -> usize {
        self.plan_ranges
            .iter()
            .flatten()
            .map(std::ops::Range::len)
            .sum()
    }
}

/// Deserialises shard `i`'s persisted plan blob (at `range`) and checks
/// it against the decoded shard `model`: matching rows/cols/rule counts
/// — a mismatched plan would compute the wrong product — at the
/// precision the shard's kind byte names. Pure cast-and-validate: no
/// grammar decode, no compilation.
fn decode_shard_plan(
    table: &ShardTable,
    data: &[u8],
    i: usize,
    range: std::ops::Range<usize>,
    model: &Model,
) -> Result<ModelPlan, ServeError> {
    let Model::Compressed(m) = model else {
        return Err(corrupt(format!(
            "shard {i} persists a plan for an unplannable backend"
        )));
    };
    let kernel = KernelPlan::from_bytes(&data[range])
        .ok_or_else(|| corrupt(format!("invalid shard {i} plan blob")))?;
    if kernel.is_f32() != table.plan_f32[i] {
        return Err(corrupt(format!(
            "shard {i} plan blob precision disagrees with its plan kind"
        )));
    }
    if (kernel.rows(), kernel.cols(), kernel.num_rules()) != (m.rows(), m.cols(), m.lowered_rules())
    {
        return Err(corrupt(format!("shard {i} plan mismatches its matrix")));
    }
    Ok(ModelPlan::from(kernel))
}

/// Deserialises a container into a ready-to-serve [`ShardedModel`] in
/// one overlapped pass on the persistent pool: the header and shard
/// table are parsed first, then one [`gcm_pipeline::par_map`] runs one
/// task per shard, which decodes the shard's byte range and casts its
/// persisted plan blob — the mmap-style selective access path, driven
/// by the same stage machinery the build pipeline uses — beside one
/// task per checksum chunk. Nothing decoded is installed or returned
/// unless every chunk passed, and errors keep the verify-first
/// precedence of [`from_bytes_sequential`]: bad magic, then the first
/// chunk mismatch, then the first structural error.
///
/// Bare `GCMMAT1` / `GCMMAT2` payloads are accepted as compressed
/// models with one shard per block.
///
/// # Errors
/// Fails on any structural violation; never panics on corrupt input.
pub fn from_bytes(data: &[u8]) -> Result<ShardedModel, ServeError> {
    decode(data, true)
}

/// As [`from_bytes`], but verify-first and on the calling thread: every
/// checksum chunk is checked before any payload is read, then every shard and
/// plan decodes sequentially — the reference path the overlapped loader
/// is benchmarked and differentially tested against.
///
/// # Errors
/// As [`from_bytes`].
pub fn from_bytes_sequential(data: &[u8]) -> Result<ShardedModel, ServeError> {
    decode(data, false)
}

fn decode(data: &[u8], parallel: bool) -> Result<ShardedModel, ServeError> {
    if data.len() >= 8 && &data[..8] == b"GCMMAT1\0" {
        let m = serial::from_bytes(data).ok_or_else(|| corrupt("invalid GCMMAT1 payload"))?;
        let cols = m.cols();
        return Ok(ShardedModel::from_parts(
            vec![Model::Compressed(m)],
            cols,
            None,
        ));
    }
    if data.len() >= 8 && &data[..8] == b"GCMMAT2\0" {
        // A multi-block bundle (the row blocks of one matrix) loads as
        // one shard per block; the bundle guarantees at least one block
        // and one column count for all of them.
        let (blocks, order) =
            serial::bundle_from_bytes(data).ok_or_else(|| corrupt("invalid GCMMAT2 payload"))?;
        let cols = blocks[0].cols();
        let models = blocks.into_iter().map(Model::Compressed).collect();
        return Ok(ShardedModel::from_parts(models, cols, order));
    }
    check_magic(data)?;
    let trailer = Trailer::of(data)?;
    let table = if parallel {
        // The chunks are verified below, alongside decode; a mismatch
        // still outranks any layout error.
        ShardTable::parse_layout(data, trailer)
            .map_err(|e| trailer.verify_all(data).err().unwrap_or(e))?
    } else {
        trailer.verify_all(data)?;
        ShardTable::parse_layout(data, trailer)?
    };
    let n = table.shard_ranges.len();
    // Versions 6 and 7: one dictionary, decoded once, shared by every
    // shard.
    let dict = table.decode_dictionary(data);
    // Shard `i`'s model and column order, plus its persisted plan blob
    // cast against that model when it carries one.
    let decode_one = |i: usize| {
        let (model, order) = decode_shard(
            table.backend,
            table.cols,
            &data[table.shard_ranges[i].clone()],
            dict.as_ref(),
        )?;
        // Version 4 plan section: a validated cast, not a
        // recompilation, so load time stays flat in grammar size.
        let plan = table.plan_ranges[i]
            .clone()
            .map(|range| decode_shard_plan(&table, data, i, range, &model));
        Ok::<_, ServeError>((model, order, plan))
    };
    let decoded: Vec<_> = if parallel {
        // Tasks `0..n` decode the shards (the longer tasks, claimed
        // first); the rest each verify one checksum chunk.
        let mut tasks = gcm_pipeline::par_map(n + trailer.chunks(), |t| {
            if t < n {
                Ok(Some(decode_one(t)))
            } else {
                trailer.verify(data, t - n).map(|()| None)
            }
        });
        // Nothing decoded escapes unless every chunk passed; the first
        // mismatch in chunk order is the one reported, as the
        // sequential loader reports it.
        for check in tasks.drain(n..) {
            check?;
        }
        tasks
            .into_iter()
            .map(|t| t.ok().flatten().expect("shard tasks return their decode"))
            .collect()
    } else {
        (0..n).map(decode_one).collect()
    };
    let mut shards = Vec::with_capacity(n);
    let mut plans = Vec::with_capacity(n);
    let mut first_order: Option<Option<Vec<u32>>> = None;
    let mut first_dict: Option<Arc<Vec<f64>>> = None;
    for (i, result) in decoded.into_iter().enumerate() {
        let (model, order, plan) = result?;
        if model.cols() != table.cols {
            return Err(corrupt(format!("shard {i} column count mismatch")));
        }
        if let Some(order) = &order {
            if order.len() != table.cols {
                return Err(corrupt("column order length mismatch"));
            }
        }
        // Up to version 5 every payload embeds its own `V`; a model has
        // one, so the copies must agree.
        let dict = model.dictionary();
        match &first_dict {
            None => first_dict = Some(Arc::clone(dict)),
            Some(first) if !Arc::ptr_eq(dict, first) && dict != first => {
                return Err(corrupt(format!(
                    "shard {i} disagrees with shard 0 on the value dictionary"
                )));
            }
            Some(_) => {}
        }
        if table.version == VERSION {
            // Version 1 embeds the one model-wide permutation
            // redundantly in every shard; the redundancy exists to catch
            // exactly this inconsistency.
            match &first_order {
                None => first_order = Some(order.clone()),
                Some(first) => {
                    if order != *first {
                        return Err(corrupt(format!(
                            "shard {i} disagrees with shard 0 on the column reorder"
                        )));
                    }
                }
            }
        }
        shards.push(BuiltShard {
            model,
            meta: ShardMeta {
                col_order: order,
                ..table.meta[i].clone()
            },
        });
        plans.push(plan);
    }
    let model = ShardedModel::from_shards(shards, table.cols);
    if model.rows() != table.rows {
        return Err(corrupt(format!(
            "header promises {} rows, shards hold {}",
            table.rows,
            model.rows()
        )));
    }
    // Installed plans make the first prewarm a cheap budget-warming
    // pass; plan errors rank after every payload and the row total.
    for (i, plan) in plans.into_iter().enumerate() {
        if let Some(plan) = plan {
            model.install_plan(i, plan?);
        }
    }
    Ok(model)
}

/// Writes `bytes` to `path` atomically: into a temp file in the same
/// directory under a name no other writer uses, synced to disk, then
/// renamed over `path`, and the directory synced so the rename survives
/// a crash. A reader sees the old file or the new one, never a torn
/// one, and concurrent writers of one path each succeed (the last
/// rename wins). Every container write goes through here.
///
/// # Errors
/// Fails on filesystem errors, naming `path`; the temp file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let write = || {
        let mut file = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ServeError::Io(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.display()),
        ))
    })
}

impl ShardedModel {
    /// Serialises this model as a `GCMSERV1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Serialises this model with its compiled plans persisted in the
    /// plan section (see [`to_bytes_with_plans`]); identical to
    /// [`to_bytes`](Self::to_bytes) when no shard carries a plan.
    pub fn to_bytes_with_plans(&self) -> Vec<u8> {
        to_bytes_with_plans(self)
    }

    /// Deserialises a container (see [`from_bytes`]).
    ///
    /// # Errors
    /// Fails on any structural violation.
    pub fn from_bytes(data: &[u8]) -> Result<ShardedModel, ServeError> {
        from_bytes(data)
    }

    /// Writes the container to `path` through [`write_atomic`], so
    /// readers never observe a half-written model.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        write_atomic(path, &self.to_bytes())
    }

    /// As [`save`](Self::save), persisting compiled plans (`gcm
    /// compress --emit-plans` writes containers through this).
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn save_with_plans(&self, path: &Path) -> Result<(), ServeError> {
        write_atomic(path, &self.to_bytes_with_plans())
    }

    /// Reads and validates a container from `path`.
    ///
    /// # Errors
    /// Fails on filesystem errors or a corrupt container.
    pub fn load(path: &Path) -> Result<ShardedModel, ServeError> {
        let bytes = std::fs::read(path)?;
        from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcm_core::Encoding;
    use gcm_matrix::{DenseMatrix, MatVec};
    use gcm_pipeline::{BuildConfig, EncodingChoice};

    /// Every shard's payload with its own copy of the dictionary — the
    /// layout of versions 1 to 5, for synthesising legacy containers.
    fn embedded_payloads(model: &ShardedModel) -> Vec<Vec<u8>> {
        model
            .shard_slice()
            .iter()
            .map(|s| {
                let order = s.built.meta.col_order.as_deref();
                match &s.built.model {
                    Model::Csrv(m) => {
                        let mut out = Vec::new();
                        write_col_order(&mut out, order);
                        mio::write_csrv_bytes(m, &mut out);
                        out
                    }
                    Model::Compressed(m) => serial::bundle_to_bytes(std::slice::from_ref(m), order),
                }
            })
            .collect()
    }

    fn sample() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(37, 8);
        for r in 0..37 {
            for c in 0..8 {
                if (r + c) % 3 != 0 {
                    m.set(r, c, (((r * 2 + c) % 6) + 1) as f64 * 0.5);
                }
            }
        }
        m
    }

    #[test]
    fn container_roundtrips_every_backend() {
        let dense = sample();
        for backend in Backend::ALL {
            for shards in [1usize, 3] {
                let opts = BuildConfig {
                    backend,
                    shards,
                    encoding: EncodingChoice::Fixed(Encoding::ReIv),
                    ..BuildConfig::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                let bytes = model.to_bytes();
                let back = ShardedModel::from_bytes(&bytes).expect("roundtrip");
                assert_eq!(back.backend(), backend);
                assert_eq!(back.num_shards(), shards);
                assert_eq!(back.rows(), 37);
                assert_eq!(back.cols(), 8);
                let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
                let mut y_a = vec![0.0; 37];
                let mut y_b = vec![0.0; 37];
                model.right_multiply_panel(1, &x, &mut y_a).unwrap();
                back.right_multiply_panel(1, &x, &mut y_b).unwrap();
                assert_eq!(y_a, y_b, "{} s={shards}", backend.name());
            }
        }
    }

    #[test]
    fn container_preserves_reorder_metadata_for_every_backend() {
        let dense = sample();
        for backend in Backend::ALL {
            let opts = BuildConfig {
                backend,
                shards: 2,
                reorder: Some(crate::ReorderMode::Global(
                    gcm_reorder::ReorderAlgorithm::PathCover,
                )),
                ..BuildConfig::default()
            };
            let model = ShardedModel::from_dense(&dense, &opts).unwrap();
            let order = model.col_order().unwrap().to_vec();
            let bytes = model.to_bytes();
            let back = ShardedModel::from_bytes(&bytes).unwrap();
            assert_eq!(back.col_order(), Some(&order[..]), "{}", backend.name());
        }
    }

    #[test]
    fn per_shard_orders_roundtrip_with_version_bump() {
        // Two shards with *different* correlated column pairs: per-shard
        // reordering records distinct permutations, and the container
        // must round-trip each shard's own order.
        let mut dense = DenseMatrix::zeros(24, 8);
        for r in 0..24 {
            let v = ((r * 5 % 7) + 1) as f64;
            if r < 12 {
                dense.set(r, 0, v);
                dense.set(r, 4, v);
            } else {
                dense.set(r, 1, v);
                dense.set(r, 5, v);
            }
        }
        for backend in Backend::ALL {
            let opts = BuildConfig {
                backend,
                shards: 2,
                reorder: Some(crate::ReorderMode::PerShard(
                    gcm_reorder::ReorderAlgorithm::PathCover,
                )),
                ..BuildConfig::default()
            };
            let model = ShardedModel::from_dense(&dense, &opts).unwrap();
            let bytes = model.to_bytes();
            let back = ShardedModel::from_bytes(&bytes).expect("per-shard orders must load");
            // Distinct per-shard permutations survive the round-trip
            // (shard 0 pairs (0,4); shard 1 pairs (1,5)).
            assert_ne!(back.shard_meta(0).col_order, back.shard_meta(1).col_order);
            assert_eq!(back.col_order(), None, "no uniform order to report");
            let x = vec![1.0; 8];
            let mut y_a = vec![0.0; 24];
            let mut y_b = vec![0.0; 24];
            model.right_multiply_panel(1, &x, &mut y_a).unwrap();
            back.right_multiply_panel(1, &x, &mut y_b).unwrap();
            assert_eq!(y_a, y_b, "{}", backend.name());
        }
    }

    #[test]
    fn version1_containers_still_load() {
        // Synthesise a version-1 container from a version-2 one (strip
        // the per-shard reorder tags, reset the version byte) and check
        // it loads with the order attributed to every shard — the
        // backward-compatibility contract for pre-v2 files.
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 3,
                reorder: Some(crate::ReorderMode::Global(
                    gcm_reorder::ReorderAlgorithm::Mwm,
                )),
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.push(VERSION);
        v1.push(model.backend().tag());
        varint::write_u64(&mut v1, model.rows() as u64);
        varint::write_u64(&mut v1, model.cols() as u64);
        varint::write_u64(&mut v1, model.num_shards() as u64);
        for payload in embedded_payloads(&model) {
            varint::write_u64(&mut v1, payload.len() as u64);
            v1.extend_from_slice(&payload);
        }
        let sum = fnv1a64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());

        let back = ShardedModel::from_bytes(&v1).expect("v1 container must load");
        assert_eq!(back.num_shards(), 3);
        assert_eq!(back.col_order(), model.col_order());
        // v1 records no algorithm provenance.
        assert_eq!(back.shard_meta(0).reorder, None);
        let x = vec![1.0; 8];
        let mut y_a = vec![0.0; 37];
        let mut y_b = vec![0.0; 37];
        model.right_multiply_panel(1, &x, &mut y_a).unwrap();
        back.right_multiply_panel(1, &x, &mut y_b).unwrap();
        assert_eq!(y_a, y_b);

        // A v1 container whose shards disagree on the order is corrupt
        // (the old redundancy check stays for old files): flip the
        // version byte back on a v2 per-shard container and watch it be
        // rejected. Build one with genuinely distinct orders first.
        let mut split = DenseMatrix::zeros(24, 8);
        for r in 0..24 {
            let v = ((r * 5 % 7) + 1) as f64;
            if r < 12 {
                split.set(r, 0, v);
                split.set(r, 4, v);
            } else {
                split.set(r, 1, v);
                split.set(r, 5, v);
            }
        }
        let per_shard = ShardedModel::from_dense(
            &split,
            &BuildConfig {
                shards: 2,
                reorder: Some(crate::ReorderMode::PerShard(
                    gcm_reorder::ReorderAlgorithm::PathCover,
                )),
                ..BuildConfig::default()
            },
        )
        .unwrap();
        assert_ne!(
            per_shard.shard_meta(0).col_order,
            per_shard.shard_meta(1).col_order,
            "test needs genuinely distinct orders"
        );
        let mut forged_v1 = Vec::new();
        forged_v1.extend_from_slice(MAGIC);
        forged_v1.push(VERSION);
        forged_v1.push(per_shard.backend().tag());
        varint::write_u64(&mut forged_v1, per_shard.rows() as u64);
        varint::write_u64(&mut forged_v1, per_shard.cols() as u64);
        varint::write_u64(&mut forged_v1, per_shard.num_shards() as u64);
        for payload in embedded_payloads(&per_shard) {
            varint::write_u64(&mut forged_v1, payload.len() as u64);
            forged_v1.extend_from_slice(&payload);
        }
        let sum = fnv1a64(&forged_v1);
        forged_v1.extend_from_slice(&sum.to_le_bytes());
        let err = ShardedModel::from_bytes(&forged_v1).expect_err("v1 disagreement is corrupt");
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn forged_length_headers_are_rejected_without_panicking() {
        // Huge varint length fields must not overflow the slice
        // arithmetic (debug: add-overflow panic; release: inverted
        // range) anywhere in the loading stack.
        use gcm_encodings::varint;
        // GCMCSRV1 with n_values = 2^61 - 1.
        let mut forged = b"GCMCSRV1".to_vec();
        varint::write_u64(&mut forged, 1); // rows
        varint::write_u64(&mut forged, 1); // cols
        varint::write_u64(&mut forged, (1u64 << 61) - 1); // |V|
        let mut pos = 0;
        assert!(gcm_matrix::io::read_csrv_bytes(&forged, &mut pos).is_none());
        // Bare GCMMAT2 with cols = 2^63 (first_nt multiply overflow).
        let mut forged = b"GCMMAT2\0".to_vec();
        forged.push(0); // re_32 tag
        varint::write_u64(&mut forged, 1u64 << 63); // cols
        varint::write_u64(&mut forged, 0); // no order
        varint::write_u64(&mut forged, 2); // |V|
        forged.extend_from_slice(&[0u8; 16]);
        assert!(gcm_core::serial::bundle_from_bytes(&forged).is_none());
        assert!(ShardedModel::from_bytes(&forged).is_err());
        // Bare GCMMAT1 with n_values = 2^61 - 1.
        let mut forged = b"GCMMAT1\0".to_vec();
        forged.push(0); // re_32 tag
        varint::write_u64(&mut forged, 1); // rows
        varint::write_u64(&mut forged, 1); // cols
        varint::write_u64(&mut forged, 2); // first_nt
        varint::write_u64(&mut forged, (1u64 << 61) - 1); // |V|
        assert!(gcm_core::serial::from_bytes(&forged).is_none());
        assert!(ShardedModel::from_bytes(&forged).is_err());
        // GCMCSRV1 with |V| = 0 and an absurd column count: would pass
        // the terminal-limit check (limit = 1) yet explode every
        // cols-proportional allocation downstream (prewarm, inspect).
        let mut forged = b"GCMCSRV1".to_vec();
        varint::write_u64(&mut forged, 1); // rows
        varint::write_u64(&mut forged, 1u64 << 62); // cols
        varint::write_u64(&mut forged, 0); // |V|
        varint::write_u64(&mut forged, 1); // |S|
        forged.extend_from_slice(&0u32.to_le_bytes()); // one separator
        let mut pos = 0;
        assert!(gcm_matrix::io::read_csrv_bytes(&forged, &mut pos).is_none());
        // GCMCSRV1 whose |V|·cols product lands exactly on u64::MAX, so
        // the +1 in the terminal limit overflows if unchecked.
        let mut forged = b"GCMCSRV1".to_vec();
        varint::write_u64(&mut forged, 1); // rows
        varint::write_u64(&mut forged, u64::MAX / 5); // cols (rejected: > u32::MAX)
        varint::write_u64(&mut forged, 5); // |V|
        forged.extend_from_slice(&[0u8; 40]);
        let mut pos = 0;
        assert!(gcm_matrix::io::read_csrv_bytes(&forged, &mut pos).is_none());
        // A GCMMAT2 claiming one block per remaining byte is rejected by
        // the block-count plausibility bound before any reservation.
        let mut forged = b"GCMMAT2\0".to_vec();
        forged.push(0); // re_32 tag
        varint::write_u64(&mut forged, 1); // cols
        varint::write_u64(&mut forged, 0); // no order
        varint::write_u64(&mut forged, 0); // |V|
        varint::write_u64(&mut forged, 1 << 40); // num_blocks
        assert!(gcm_core::serial::bundle_from_bytes(&forged).is_none());
    }

    #[test]
    fn shard_table_decodes_single_shards() {
        let dense = sample();
        let opts = BuildConfig {
            shards: 4,
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        let bytes = model.to_bytes();
        let table = ShardTable::parse(&bytes).unwrap();
        assert_eq!(table.shard_ranges.len(), 4);
        let mut rows = 0usize;
        for i in 0..4 {
            let shard = table.decode_shard(&bytes, i).unwrap();
            assert_eq!(shard.cols(), 8);
            rows += shard.rows();
        }
        assert_eq!(rows, 37);
        assert!(table.decode_shard(&bytes, 4).is_err());
    }

    #[test]
    fn accepts_bare_gcmmat1_files() {
        let dense = sample();
        let csrv = gcm_matrix::CsrvMatrix::from_dense(&dense).unwrap();
        let cm = gcm_core::CompressedMatrix::compress(&csrv, Encoding::ReAns);
        let bytes = gcm_core::serial::to_bytes(&cm);
        let model = ShardedModel::from_bytes(&bytes).expect("GCMMAT1 compat");
        assert_eq!(model.backend(), Backend::Compressed);
        assert_eq!(model.rows(), 37);
        let x = vec![1.0; 8];
        let mut y_a = vec![0.0; 37];
        let mut y_b = vec![0.0; 37];
        cm.right_multiply(&x, &mut y_a).unwrap();
        model.right_multiply_panel(1, &x, &mut y_b).unwrap();
        assert_eq!(y_a, y_b);
    }

    #[test]
    fn checksum_rejects_any_single_byte_flip() {
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let bytes = model.to_bytes();
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(ShardedModel::from_bytes(&bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn plan_section_roundtrips_bit_exact() {
        use crate::sharded::ServeOptions;
        let dense = sample();
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        for shards in [1usize, 3] {
            for f32_plans in [false, true] {
                let opts = BuildConfig {
                    shards,
                    encoding: EncodingChoice::Fixed(Encoding::ReIv),
                    ..BuildConfig::default()
                };
                let model = ShardedModel::from_dense(&dense, &opts).unwrap();
                let serve = if f32_plans {
                    ServeOptions::planned_f32()
                } else {
                    ServeOptions::planned()
                };
                model.prewarm_with(2, &serve);
                let bytes = model.to_bytes_with_plans();
                let table = ShardTable::parse(&bytes).unwrap();
                assert!(table.plan_bytes() > 0, "s={shards}");
                assert_eq!(table.plan_f32, vec![f32_plans; shards]);

                // That loading casts the plans back in rather than
                // compiling them is pinned by the single-test
                // `tests/plan_section_no_recompile.rs`.
                let back = ShardedModel::from_bytes(&bytes).expect("plan roundtrip");
                assert!(back.is_planned(), "s={shards}");
                assert_eq!(back.is_planned_f32(), f32_plans);
                // Deserialized plans are exact-capacity; compiled
                // ones may carry growth slack, so compare loosely.
                let loaded = back.plan_heap_bytes();
                assert!(loaded > 0 && loaded <= model.plan_heap_bytes());

                // The restored plans serve bit-identically.
                let mut y_a = vec![0.0; 37];
                let mut y_b = vec![0.0; 37];
                model.right_multiply_panel(1, &x, &mut y_a).unwrap();
                back.right_multiply_panel(1, &x, &mut y_b).unwrap();
                assert_eq!(y_a, y_b, "s={shards}");
                let mut x_a = vec![0.0; 8];
                let mut x_b = vec![0.0; 8];
                let yv: Vec<f64> = (0..37).map(|i| (i % 5) as f64 - 2.0).collect();
                model.left_multiply_panel(1, &yv, &mut x_a).unwrap();
                back.left_multiply_panel(1, &yv, &mut x_b).unwrap();
                assert_eq!(x_a, x_b, "s={shards} left");
            }
        }
    }

    #[test]
    fn plan_section_is_omitted_when_nothing_is_planned() {
        use crate::sharded::ServeOptions;
        let dense = sample();
        // No prewarm: no plans, so the with-plans writer emits the
        // byte-identical plan-free container.
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.to_bytes_with_plans(), model.to_bytes());
        // Unplannable backends persist no plan even after a planned
        // prewarm (`compile_with` has nothing to build for them).
        let csrv = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                backend: Backend::Csrv,
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        csrv.prewarm_with(2, &ServeOptions::planned());
        assert!(!csrv.is_planned());
        let bytes = csrv.to_bytes_with_plans();
        assert_eq!(bytes, csrv.to_bytes());
        assert_eq!(ShardTable::parse(&bytes).unwrap().plan_bytes(), 0);
    }

    #[test]
    fn forged_plan_sections_are_rejected() {
        use crate::sharded::ServeOptions;
        let refresh_checksum = reseal;
        let dense = sample();
        let opts = BuildConfig {
            shards: 1,
            ..BuildConfig::default()
        };
        let model = ShardedModel::from_dense(&dense, &opts).unwrap();
        let model32 = ShardedModel::from_dense(&dense, &opts).unwrap();
        model.prewarm_with(2, &ServeOptions::planned());
        let bytes = model.to_bytes_with_plans();
        let table = ShardTable::parse(&bytes).unwrap();
        // The shard 0 kind byte sits right after its payload.
        let kind_pos = table.shard_ranges[0].end;
        assert_eq!(bytes[kind_pos], 1, "f64 plan kind");

        // Unknown plan kind.
        let mut bad = bytes.clone();
        bad[kind_pos] = 3;
        refresh_checksum(&mut bad);
        let err = ShardedModel::from_bytes(&bad).expect_err("kind 3 is corrupt");
        assert!(err.to_string().contains("plan kind"), "{err}");

        // Claiming `f32` for an `f64` blob trips the precision check.
        let mut bad = bytes.clone();
        bad[kind_pos] = 2;
        refresh_checksum(&mut bad);
        let err = ShardedModel::from_bytes(&bad).expect_err("kind 2 over an f64 blob");
        assert!(err.to_string().contains("precision"), "{err}");

        // And the reverse: claiming `f64` for an `f32` blob.
        model32.prewarm_with(2, &ServeOptions::planned_f32());
        let mut bad = model32.to_bytes_with_plans();
        let kind_pos32 = ShardTable::parse(&bad).unwrap().shard_ranges[0].end;
        assert_eq!(bad[kind_pos32], 2, "f32 plan kind");
        bad[kind_pos32] = 1;
        refresh_checksum(&mut bad);
        let err = ShardedModel::from_bytes(&bad).expect_err("kind 1 over an f32 blob");
        assert!(err.to_string().contains("precision"), "{err}");

        // A corrupted blob magic is caught even with a valid container
        // checksum.
        let blob = table.plan_ranges[0].clone().expect("shard 0 plan");
        let blob_start = blob.start;
        let mut bad = bytes.clone();
        bad[blob_start] ^= 0xFF;
        refresh_checksum(&mut bad);
        let err = ShardedModel::from_bytes(&bad).expect_err("bad blob magic is corrupt");
        assert!(err.to_string().contains("plan blob"), "{err}");

        // Truncating the plan section leaves trailing-length garbage.
        let mut bad = bytes[..blob.end - 4].to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        refresh_checksum(&mut bad);
        assert!(ShardedModel::from_bytes(&bad).is_err());
    }

    #[test]
    fn row_subset_matches_full_product_after_v4_load() {
        use crate::sharded::ServeOptions;
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 3,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        model.prewarm_with(2, &ServeOptions::planned());
        let back = ShardedModel::from_bytes(&model.to_bytes_with_plans()).unwrap();
        let k = 2usize;
        let x: Vec<f64> = (0..8 * k).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
        let mut y_full = vec![0.0; 37 * k];
        back.right_multiply_panel(k, &x, &mut y_full).unwrap();
        for range in [0..5usize, 10..25, 36..37, 0..37, 12..12] {
            let mut y_sub = vec![0.0; range.len() * k];
            back.right_multiply_rows(range.clone(), k, &x, &mut y_sub)
                .unwrap();
            assert_eq!(
                y_sub,
                y_full[range.start * k..range.end * k].to_vec(),
                "rows {range:?}"
            );
        }
        let mut y_sub = vec![0.0; 2 * 2];
        assert!(back.right_multiply_rows(36..38, 2, &x, &mut y_sub).is_err());
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("gcm-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gcms");
        model.save(&path).unwrap();
        let back = ShardedModel::load(&path).unwrap();
        assert_eq!(back.rows(), model.rows());
        assert_eq!(back.stored_bytes(), model.stored_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grammar_metadata_roundtrips_in_version7_containers() {
        use crate::sharded::ServeOptions;
        use gcm_pipeline::GrammarChoice;
        let dense = sample();
        for shards in [1, 2] {
            for grammar in [
                GrammarChoice::RePair,
                GrammarChoice::MrRePair,
                GrammarChoice::Auto,
            ] {
                for plans in [false, true] {
                    let model = ShardedModel::from_dense(
                        &dense,
                        &BuildConfig {
                            shards,
                            grammar: Some(grammar),
                            ..BuildConfig::default()
                        },
                    )
                    .unwrap();
                    let bytes = if plans {
                        model.prewarm_with(1, &ServeOptions::planned());
                        model.to_bytes_with_plans()
                    } else {
                        model.to_bytes()
                    };
                    let tag = format!("s={shards} {grammar:?} plans={plans}");
                    assert_eq!(bytes[8], VERSION_CHUNKED, "{tag}");
                    let table = ShardTable::parse(&bytes).unwrap();
                    assert_eq!(table.plan_bytes() > 0, plans, "{tag}");
                    assert!(table.dictionary.is_some(), "{tag}");
                    for i in 0..shards {
                        assert!(table.meta[i].grammar.is_some(), "{tag} shard {i}");
                        assert!(table.meta[i].fingerprint.is_some(), "{tag} shard {i}");
                    }
                    let back = ShardedModel::from_bytes(&bytes).expect("v7 roundtrip");
                    for i in 0..shards {
                        assert_eq!(back.shard_meta(i), model.shard_meta(i), "{tag}");
                    }
                    // Re-serialising the loaded model reproduces the
                    // container byte-for-byte: nothing is lost in the
                    // round-trip.
                    let again = if plans {
                        back.to_bytes_with_plans()
                    } else {
                        back.to_bytes()
                    };
                    assert_eq!(again, bytes, "{tag}: reserialise");
                    let x = vec![1.0; 8];
                    let mut y_a = vec![0.0; 37];
                    let mut y_b = vec![0.0; 37];
                    model.right_multiply_panel(1, &x, &mut y_a).unwrap();
                    back.right_multiply_panel(1, &x, &mut y_b).unwrap();
                    assert_eq!(y_a, y_b, "{tag}");
                }
            }
        }
    }

    /// One `ShardMeta` per shard travels unchanged from the build through
    /// `to_bytes_with_plans` and `from_bytes`, and through an incremental
    /// splice against those bytes, for both backends and every reorder
    /// scope.
    #[test]
    fn shard_meta_survives_write_load_and_splice() {
        use crate::sharded::ServeOptions;
        use crate::ReorderMode::{Global, PerShard};
        use gcm_reorder::ReorderAlgorithm::PathCover;
        let csrv = gcm_matrix::CsrvMatrix::from_dense(&sample()).unwrap();
        for backend in Backend::ALL {
            for reorder in [None, Some(Global(PathCover)), Some(PerShard(PathCover))] {
                let config = BuildConfig {
                    backend,
                    shards: 3,
                    reorder,
                    ..BuildConfig::default()
                };
                let tag = format!("{} {reorder:?}", backend.name());
                let built = ShardedModel::from_csrv(&csrv, &config).unwrap();
                built.prewarm_with(1, &ServeOptions::planned());
                let bytes = to_bytes_with_plans(&built);
                let loaded = from_bytes(&bytes).expect(&tag);
                let (spliced, report) =
                    crate::compress_incremental(&csrv, &config, &bytes).expect(&tag);
                // A compressed base splices every shard; an uncompressed
                // one records no fingerprints, so it rebuilds them all.
                let compressed = backend.is_compressed();
                assert_eq!(report.spliced(), if compressed { 3 } else { 0 }, "{tag}");
                let spliced = from_bytes(&spliced).expect(&tag);
                for i in 0..3 {
                    let meta = built.shard_meta(i);
                    assert_eq!(meta.reorder, reorder.map(|r| r.algorithm()), "{tag}");
                    assert_eq!(meta.col_order.is_some(), reorder.is_some(), "{tag}");
                    assert_eq!(meta.grammar.is_some(), compressed, "{tag}");
                    assert_eq!(meta.fingerprint.is_some(), compressed, "{tag}");
                    assert_eq!(loaded.shard_meta(i), meta, "{tag} shard {i} load");
                    assert_eq!(spliced.shard_meta(i), meta, "{tag} shard {i} splice");
                }
            }
        }
    }

    #[test]
    fn writer_emits_version7_with_provenance_for_every_build() {
        use crate::sharded::ServeOptions;
        use gcm_pipeline::{BuildConfig, EncodingChoice, GrammarChoice};
        use gcm_reorder::ReorderAlgorithm::PathCover;
        let csrv = gcm_matrix::CsrvMatrix::from_dense(&sample()).unwrap();
        for backend in Backend::ALL {
            let encodings: &[Encoding] = match backend {
                Backend::Compressed => &[Encoding::ReAns, Encoding::ReFse],
                Backend::Csrv => &[Encoding::ReAns],
            };
            for shards in [1usize, 3] {
                for reorder in [
                    None,
                    Some(crate::ReorderMode::Global(PathCover)),
                    Some(crate::ReorderMode::PerShard(PathCover)),
                ] {
                    for &encoding in encodings {
                        for grammar in
                            [None, Some(GrammarChoice::RePair), Some(GrammarChoice::Auto)]
                        {
                            for plans in [false, true] {
                                let config = BuildConfig {
                                    backend,
                                    encoding: EncodingChoice::Fixed(encoding),
                                    grammar,
                                    shards,
                                    reorder,
                                    ..BuildConfig::default()
                                };
                                let tag = format!(
                                    "{} s={shards} {reorder:?} {} {grammar:?} plans={plans}",
                                    backend.name(),
                                    encoding.name()
                                );
                                let model = ShardedModel::from_artifacts(
                                    gcm_pipeline::global().build(&csrv, &config),
                                );
                                let bytes = if plans {
                                    model.prewarm_with(1, &ServeOptions::planned());
                                    model.to_bytes_with_plans()
                                } else {
                                    model.to_bytes()
                                };
                                let compressed = backend == Backend::Compressed;
                                assert_eq!(bytes[8], VERSION_CHUNKED, "{tag}");
                                let back = ShardedModel::from_bytes(&bytes).expect(&tag);
                                for i in 0..shards {
                                    let meta = back.shard_meta(i);
                                    let stage = meta.grammar;
                                    assert_eq!(stage.is_some(), compressed, "{tag} shard {i}");
                                    if grammar != Some(GrammarChoice::Auto) && compressed {
                                        assert_eq!(stage, Some(GrammarStage::RePair), "{tag}");
                                    }
                                    assert_eq!(
                                        meta.fingerprint.is_some(),
                                        compressed,
                                        "{tag} shard {i}"
                                    );
                                }
                                let table = ShardTable::parse(&bytes).unwrap();
                                // One `V` after the header, every payload
                                // dictionary-free.
                                let dict = table.dictionary.clone().expect("one V");
                                assert_eq!(dict.len(), 8 * csrv.values().len(), "{tag}");
                                for i in 0..shards {
                                    let m = table.decode_shard(&bytes, i).unwrap();
                                    assert_eq!(m.dictionary().as_slice(), csrv.values(), "{tag}");
                                }
                                if plans && compressed {
                                    assert!(table.plan_ranges.iter().all(Option::is_some), "{tag}");
                                } else {
                                    // The plan section is one kind byte
                                    // per shard, each 0, before the
                                    // checksum trailer.
                                    let kinds = table.shard_ranges[shards - 1].end;
                                    let trailer = 8 * table.checksum_chunks;
                                    assert_eq!(kinds + shards, bytes.len() - trailer, "{tag}");
                                    assert_eq!(
                                        bytes[kinds..kinds + shards],
                                        vec![0; shards],
                                        "{tag}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn version5_accepts_metadata_free_shards() {
        // A v5 container may carry stage tag 0 (a shard loaded from an
        // older container and written again): synthesise one from the
        // shards' self-contained payloads.
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let mut v5 = Vec::new();
        v5.extend_from_slice(MAGIC);
        v5.push(VERSION_GRAMMAR);
        v5.push(model.backend().tag());
        varint::write_u64(&mut v5, model.rows() as u64);
        varint::write_u64(&mut v5, model.cols() as u64);
        varint::write_u64(&mut v5, model.num_shards() as u64);
        for payload in embedded_payloads(&model) {
            v5.push(0); // no reorder
            v5.push(0); // no grammar stage, so no fingerprint either
            varint::write_u64(&mut v5, payload.len() as u64);
            v5.extend_from_slice(&payload);
        }
        v5.extend_from_slice(&[0, 0]); // plan kinds: v5 always has them
        let sum = fnv1a64(&v5);
        v5.extend_from_slice(&sum.to_le_bytes());
        let back = ShardedModel::from_bytes(&v5).expect("metadata-free v5 must load");
        assert_eq!(back.num_shards(), 2);
        assert_eq!(back.shard_meta(0), &ShardMeta::default());
        let x = vec![1.0; 8];
        let mut y_a = vec![0.0; 37];
        let mut y_b = vec![0.0; 37];
        model.right_multiply_panel(1, &x, &mut y_a).unwrap();
        back.right_multiply_panel(1, &x, &mut y_b).unwrap();
        assert_eq!(y_a, y_b);
    }

    #[test]
    fn forged_grammar_metadata_is_rejected() {
        use gcm_pipeline::GrammarChoice;
        let refresh_checksum = reseal;
        let dense = sample();
        let model = ShardedModel::from_dense(
            &dense,
            &BuildConfig {
                shards: 2,
                grammar: Some(GrammarChoice::MrRePair),
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let bytes = model.to_bytes();
        // Shard 0's reorder tag directly follows the shared dictionary,
        // then its grammar tag and fingerprint.
        let at = ShardTable::parse(&bytes).unwrap().dictionary.unwrap().end;
        assert_eq!(bytes[at], 0, "no reorder recorded");
        assert_eq!(bytes[at + 1], 2, "mr-repair stage tag");

        // Unknown stage tag.
        let mut bad = bytes.clone();
        bad[at + 1] = 9;
        refresh_checksum(&mut bad);
        let err = ShardedModel::from_bytes(&bad).expect_err("tag 9 is corrupt");
        assert!(err.to_string().contains("grammar tag"), "{err}");

        // A container truncated inside the fingerprint is rejected at
        // the bounds check, before anything is sized from it.
        let mut truncated = bytes[..at + 5].to_vec(); // tag + 3 of 8 fp bytes
        truncated.extend_from_slice(&[0u8; 8]);
        refresh_checksum(&mut truncated);
        let err = ShardedModel::from_bytes(&truncated).expect_err("truncated fp is corrupt");
        assert!(
            err.to_string().contains("fingerprint") || err.to_string().contains("shard"),
            "{err}"
        );

        // Flipping a fingerprint byte still parses (the fingerprint is
        // provenance, not a structural field) but changes the recorded
        // value — and the checksum catches the flip without the refresh.
        let mut flipped = bytes.clone();
        flipped[at + 2] ^= 0xFF;
        assert!(ShardedModel::from_bytes(&flipped).is_err(), "checksum");
        refresh_checksum(&mut flipped);
        let back = ShardedModel::from_bytes(&flipped).expect("fp is not structural");
        assert_ne!(
            back.shard_meta(0).fingerprint,
            model.shard_meta(0).fingerprint
        );
    }

    /// A dense matrix whose csrv container spans several checksum
    /// chunks.
    fn large_sample() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(3000, 40);
        for r in 0..3000 {
            for c in 0..40 {
                if (r + 3 * c) % 4 != 0 {
                    m.set(r, c, ((r * 7 + c * 13) % 97) as f64 + 0.5);
                }
            }
        }
        m
    }

    #[test]
    fn every_checksum_chunk_guards_its_own_bytes() {
        let model = ShardedModel::from_dense(
            &large_sample(),
            &BuildConfig {
                backend: Backend::Csrv,
                shards: 3,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        let bytes = model.to_bytes();
        let table = ShardTable::parse(&bytes).unwrap();
        let chunks = table.checksum_chunks;
        assert!(chunks >= 3, "{} bytes in {chunks} chunks", bytes.len());
        let body = bytes.len() - 8 * chunks;
        assert_eq!(body.div_ceil(CHECKSUM_CHUNK), chunks);
        for (i, chunk) in bytes[..body].chunks(CHECKSUM_CHUNK).enumerate() {
            let at = body + 8 * i;
            assert_eq!(bytes[at..at + 8], fnv1a64(chunk).to_le_bytes(), "chunk {i}");
        }
        // A flip anywhere in chunk `i` (or in its stored sum) is that
        // chunk's mismatch, whichever loader reads it.
        for i in 0..chunks {
            for at in [i * CHECKSUM_CHUNK + 17, body + 8 * i] {
                let mut bad = bytes.clone();
                bad[at] ^= 0x40;
                for err in [
                    from_bytes(&bad).expect_err("overlapped"),
                    from_bytes_sequential(&bad).expect_err("sequential"),
                    ShardTable::parse(&bad).expect_err("table"),
                ] {
                    let msg = err.to_string();
                    assert!(
                        msg.contains(&format!("checksum mismatch in chunk {i} ")),
                        "{msg}"
                    );
                }
            }
        }
        // Two flips: the first chunk in order is the one reported.
        let mut bad = bytes.clone();
        bad[2 * CHECKSUM_CHUNK + 5] ^= 1;
        bad[CHECKSUM_CHUNK + 5] ^= 1;
        let msg = from_bytes(&bad).expect_err("two flips").to_string();
        assert!(msg.contains("chunk 1 "), "{msg}");
        // Resealing restores the original trailer.
        let mut resealed = bytes.clone();
        resealed[body..].fill(0);
        reseal(&mut resealed);
        assert_eq!(resealed, bytes);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.stored_bytes(), model.stored_bytes());
    }

    #[test]
    fn lengths_that_fit_no_chunk_trailer_are_rejected() {
        let mut bytes = ShardedModel::from_dense(
            &large_sample(),
            &BuildConfig {
                backend: Backend::Csrv,
                ..BuildConfig::default()
            },
        )
        .unwrap()
        .to_bytes();
        let chunks = ShardTable::parse(&bytes).unwrap().checksum_chunks;
        // One to eight bytes past a whole number of chunk-and-sum
        // strides fit no trailer: `n` sums would leave `n - 1` chunks.
        bytes.truncate((chunks - 1) * (CHECKSUM_CHUNK + 8));
        for extra in 1..=8 {
            bytes.push(0);
            let msg = from_bytes(&bytes).expect_err("no trailer fits").to_string();
            assert!(msg.contains("fit no chunk trailer"), "+{extra}: {msg}");
            assert_eq!(msg, from_bytes_sequential(&bytes).unwrap_err().to_string());
        }
    }

    #[test]
    fn legacy_shards_that_disagree_on_the_dictionary_are_corrupt() {
        // Two shards of two different matrices, each embedding its own
        // `V`, in a version-5 container: corrupt, never a panic.
        let mut other = sample();
        other.set(0, 1, 99.0);
        for backend in Backend::ALL {
            let opts = BuildConfig {
                backend,
                ..BuildConfig::default()
            };
            let a = ShardedModel::from_dense(&sample(), &opts).unwrap();
            let b = ShardedModel::from_dense(&other, &opts).unwrap();
            let mut v5 = Vec::new();
            v5.extend_from_slice(MAGIC);
            v5.push(VERSION_GRAMMAR);
            v5.push(backend.tag());
            varint::write_u64(&mut v5, 74);
            varint::write_u64(&mut v5, 8);
            varint::write_u64(&mut v5, 2);
            for payload in embedded_payloads(&a)
                .into_iter()
                .chain(embedded_payloads(&b))
            {
                v5.extend_from_slice(&[0, 0]); // no reorder, no grammar stage
                varint::write_u64(&mut v5, payload.len() as u64);
                v5.extend_from_slice(&payload);
            }
            v5.extend_from_slice(&[0, 0]); // plan kinds
            let sum = fnv1a64(&v5);
            v5.extend_from_slice(&sum.to_le_bytes());
            for err in [
                from_bytes(&v5).expect_err("overlapped"),
                from_bytes_sequential(&v5).expect_err("sequential"),
            ] {
                assert!(
                    matches!(&err, ServeError::Corrupt(m) if m.contains("value dictionary")),
                    "{}: {err}",
                    backend.name()
                );
            }
        }
    }
}
