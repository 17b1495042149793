//! The `gcm serve` wire protocol: a small length-prefixed binary
//! framing, shared by the server, the CLI client (`gcm stats`), the
//! load generator, and the tests.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! u32 LE body length | body (at most MAX_FRAME bytes)
//! ```
//!
//! Request bodies start with a one-byte verb:
//!
//! ```text
//! MULTIPLY  u8 verb=1 | u8 direction (0 right, 1 left) | u8 name_len |
//!           name bytes | u16 LE k | k·dim f64 LE values
//!           (dim = cols for right, rows for left; a k-wide payload is
//!            the row-major panel layout the batched kernels consume:
//!            element (i, j) at i·k + j)
//! STATS     u8 verb=2 | u8 name_len | name bytes (name_len 0 = all models)
//! PING      u8 verb=3
//! INFO      u8 verb=4 | u8 name_len | name bytes
//! MULTIPLY_ROWS
//!           u8 verb=5 | u8 name_len | name bytes | u16 LE k |
//!           u64 LE row_start | u64 LE row_end | k·cols f64 LE values
//!           (right product only: the response carries the
//!            `(row_end-row_start)·k` output slice, served through the
//!            plan's CSR row index in O(rows-touched) work)
//! MULTIPLY_SPARSE
//!           u8 verb=6 | u8 name_len | name bytes | u32 LE nnz |
//!           nnz × (u32 LE index | f64 LE value)
//!           (right product only, from the non-zeroes of x: indices
//!            must be strictly increasing — enforced at decode — and
//!            in-range for the model — enforced before admission; the
//!            response carries the full `rows` output vector, served
//!            through the plan's activity-propagation sparse kernel in
//!            work proportional to the grammar slice the non-zeroes
//!            reach)
//! ```
//!
//! Response bodies start with a one-byte status:
//!
//! ```text
//! OK         u8 0 | result (multiply: k·out_dim f64 LE; stats: UTF-8
//!                  text; info: u64 LE rows, u64 LE cols; ping: empty)
//! OVERLOADED u8 1 | UTF-8 message  (fast-fail admission shed — retry later)
//! BAD_REQUEST / UNKNOWN_MODEL / INTERNAL
//!            u8 2|3|4 | UTF-8 message
//! ```
//!
//! Encoding and decoding are allocation-free against caller-owned
//! buffers: the server's steady-state request loop reuses one input and
//! one output `Vec<u8>` per connection, so after the first request a
//! connection's decode → batch → respond cycle performs zero heap
//! allocation (locked in by `crates/serve/tests/zero_alloc_net.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;

/// Hard upper bound on one frame's body, validated before any read: a
/// malicious length prefix can never drive a large allocation.
pub const MAX_FRAME: usize = 1 << 26; // 64 MiB

/// Request verbs.
pub mod verb {
    /// Multiply a vector (or k-wide panel) by a named model.
    pub const MULTIPLY: u8 = 1;
    /// Fetch the server's metrics as text.
    pub const STATS: u8 = 2;
    /// Liveness check.
    pub const PING: u8 = 3;
    /// Fetch a model's dimensions.
    pub const INFO: u8 = 4;
    /// Multiply a panel and return only a contiguous row range of the
    /// right product.
    pub const MULTIPLY_ROWS: u8 = 5;
    /// Right-multiply a sparse vector given as `(index, value)`
    /// non-zero pairs.
    pub const MULTIPLY_SPARSE: u8 = 6;
}

/// Response status codes. `OK` is the protocol's "2xx"; everything else
/// carries a UTF-8 message.
pub mod status {
    /// Success.
    pub const OK: u8 = 0;
    /// Admission control shed the request (bounded in-flight queue is
    /// past its high-water mark). Fast-fail: retry later.
    pub const OVERLOADED: u8 = 1;
    /// Malformed frame or inconsistent dimensions.
    pub const BAD_REQUEST: u8 = 2;
    /// No such model in the store.
    pub const UNKNOWN_MODEL: u8 = 3;
    /// Server-side failure.
    pub const INTERNAL: u8 = 4;

    /// Human-readable name of a status byte.
    pub fn name(s: u8) -> &'static str {
        match s {
            OK => "ok",
            OVERLOADED => "overloaded",
            BAD_REQUEST => "bad_request",
            UNKNOWN_MODEL => "unknown_model",
            INTERNAL => "internal",
            _ => "unknown",
        }
    }
}

/// Which product a multiply request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `y = M·x` (input dim = cols, output dim = rows).
    Right,
    /// `x = Mᵗ·y` (input dim = rows, output dim = cols).
    Left,
}

impl Direction {
    /// Wire byte.
    pub fn tag(self) -> u8 {
        match self {
            Direction::Right => 0,
            Direction::Left => 1,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Direction::Right),
            1 => Some(Direction::Left),
            _ => None,
        }
    }

    /// `"right"` / `"left"`.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Right => "right",
            Direction::Left => "left",
        }
    }
}

/// A decoded request, borrowing from the frame buffer.
#[derive(Debug)]
pub enum Request<'a> {
    /// Multiply `k` vectors (row-major panel payload, f64 LE).
    Multiply {
        /// Model name.
        model: &'a str,
        /// Product direction.
        direction: Direction,
        /// Number of vectors in the payload.
        k: usize,
        /// `k·dim` f64 LE bytes (validated against the model server-side).
        payload: &'a [u8],
    },
    /// Metrics snapshot (`model` empty = all models).
    Stats {
        /// Optional model filter.
        model: &'a str,
    },
    /// Liveness check.
    Ping,
    /// Model dimensions.
    Info {
        /// Model name.
        model: &'a str,
    },
    /// Right-multiply `k` vectors, returning only output rows `rows`
    /// (row-major panel payload, f64 LE).
    MultiplyRows {
        /// Model name.
        model: &'a str,
        /// Requested output row range (validated against the model
        /// server-side).
        rows: std::ops::Range<usize>,
        /// Number of vectors in the payload.
        k: usize,
        /// `k·cols` f64 LE bytes (validated against the model
        /// server-side).
        payload: &'a [u8],
    },
    /// Right-multiply a sparse vector given as non-zero pairs.
    MultiplySparse {
        /// Model name.
        model: &'a str,
        /// Number of `(index, value)` pairs in the payload.
        nnz: usize,
        /// `nnz` × (u32 LE index | f64 LE value) bytes, 12 per pair;
        /// indices are strictly increasing (checked at decode) and
        /// validated against the model's column count server-side.
        payload: &'a [u8],
    },
}

/// Byte width of one `(u32 index, f64 value)` sparse pair on the wire.
pub const SPARSE_PAIR_BYTES: usize = 12;

/// Reads the `(index, value)` pair at position `i` of a
/// [`Request::MultiplySparse`] payload (caller guarantees `i < nnz`).
#[must_use]
pub fn sparse_pair(payload: &[u8], i: usize) -> (u32, f64) {
    let p = &payload[i * SPARSE_PAIR_BYTES..(i + 1) * SPARSE_PAIR_BYTES];
    let idx = u32::from_le_bytes(p[..4].try_into().expect("4 bytes"));
    let val = f64::from_le_bytes(p[4..].try_into().expect("8 bytes"));
    (idx, val)
}

fn read_name<'a>(body: &'a [u8], pos: &mut usize) -> Result<&'a str, &'static str> {
    let len = *body.get(*pos).ok_or("truncated name length")? as usize;
    *pos += 1;
    let bytes = body
        .get(*pos..*pos + len)
        .ok_or("name overruns frame body")?;
    *pos += len;
    std::str::from_utf8(bytes).map_err(|_| "model name is not UTF-8")
}

/// Decodes one request body. Borrow-only: never allocates.
///
/// # Errors
/// Fails with a static message on any structural violation.
pub fn decode_request(body: &[u8]) -> Result<Request<'_>, &'static str> {
    let verb = *body.first().ok_or("empty frame body")?;
    let mut pos = 1usize;
    match verb {
        verb::MULTIPLY => {
            let dir = *body.get(pos).ok_or("truncated direction")?;
            pos += 1;
            let direction = Direction::from_tag(dir).ok_or("unknown direction")?;
            let model = read_name(body, &mut pos)?;
            let k_bytes = body.get(pos..pos + 2).ok_or("truncated batch width")?;
            pos += 2;
            let k = u16::from_le_bytes(k_bytes.try_into().expect("2 bytes")) as usize;
            if k == 0 {
                return Err("batch width must be at least 1");
            }
            let payload = &body[pos..];
            if !payload.len().is_multiple_of(8) {
                return Err("payload is not a whole number of f64 values");
            }
            Ok(Request::Multiply {
                model,
                direction,
                k,
                payload,
            })
        }
        verb::STATS => {
            let model = read_name(body, &mut pos)?;
            Ok(Request::Stats { model })
        }
        verb::PING => Ok(Request::Ping),
        verb::INFO => {
            let model = read_name(body, &mut pos)?;
            Ok(Request::Info { model })
        }
        verb::MULTIPLY_ROWS => {
            let model = read_name(body, &mut pos)?;
            let k_bytes = body.get(pos..pos + 2).ok_or("truncated batch width")?;
            pos += 2;
            let k = u16::from_le_bytes(k_bytes.try_into().expect("2 bytes")) as usize;
            if k == 0 {
                return Err("batch width must be at least 1");
            }
            let range = body.get(pos..pos + 16).ok_or("truncated row range")?;
            pos += 16;
            let start = u64::from_le_bytes(range[..8].try_into().expect("8 bytes"));
            let end = u64::from_le_bytes(range[8..].try_into().expect("8 bytes"));
            if start > end {
                return Err("row range start exceeds its end");
            }
            // Row indices are u32 throughout the formats; bound the raw
            // u64s before the narrowing cast can truncate.
            if end > u64::from(u32::MAX) {
                return Err("implausible row range");
            }
            let payload = &body[pos..];
            if !payload.len().is_multiple_of(8) {
                return Err("payload is not a whole number of f64 values");
            }
            Ok(Request::MultiplyRows {
                model,
                rows: start as usize..end as usize,
                k,
                payload,
            })
        }
        verb::MULTIPLY_SPARSE => {
            let model = read_name(body, &mut pos)?;
            let nnz_bytes = body.get(pos..pos + 4).ok_or("truncated non-zero count")?;
            pos += 4;
            let nnz = u32::from_le_bytes(nnz_bytes.try_into().expect("4 bytes")) as usize;
            let payload = &body[pos..];
            if payload.len() != nnz * SPARSE_PAIR_BYTES {
                return Err("payload length disagrees with the non-zero count");
            }
            // Strictly increasing indices are a structural invariant of
            // the format (sortedness needs no model metadata), so a
            // violation is caught here, before any queueing.
            let mut prev: Option<u32> = None;
            for i in 0..nnz {
                let (idx, _) = sparse_pair(payload, i);
                if prev.is_some_and(|p| p >= idx) {
                    return Err("sparse indices must be strictly increasing");
                }
                prev = Some(idx);
            }
            Ok(Request::MultiplySparse {
                model,
                nnz,
                payload,
            })
        }
        _ => Err("unknown verb"),
    }
}

fn push_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(name.len() <= u8::MAX as usize, "store names are <= 128");
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

/// Starts a frame in `out` (clears it, writes the length placeholder).
/// Pair with [`finish_frame`].
pub fn begin_frame(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
}

/// Patches the length prefix of a frame started with [`begin_frame`].
pub fn finish_frame(out: &mut [u8]) {
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encodes a multiply request frame (`values.len()` must be `k·dim`).
pub fn encode_multiply(
    out: &mut Vec<u8>,
    model: &str,
    direction: Direction,
    k: usize,
    values: &[f64],
) {
    begin_frame(out);
    out.push(verb::MULTIPLY);
    out.push(direction.tag());
    push_name(out, model);
    out.extend_from_slice(&(k as u16).to_le_bytes());
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    finish_frame(out);
}

/// Encodes a multiply-rows request frame (`values.len()` must be
/// `k·cols`; right product, output restricted to `rows`).
pub fn encode_multiply_rows(
    out: &mut Vec<u8>,
    model: &str,
    rows: std::ops::Range<usize>,
    k: usize,
    values: &[f64],
) {
    begin_frame(out);
    out.push(verb::MULTIPLY_ROWS);
    push_name(out, model);
    out.extend_from_slice(&(k as u16).to_le_bytes());
    out.extend_from_slice(&(rows.start as u64).to_le_bytes());
    out.extend_from_slice(&(rows.end as u64).to_le_bytes());
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    finish_frame(out);
}

/// Encodes a multiply-sparse request frame from `(index, value)`
/// non-zero pairs (right product; indices must be strictly increasing
/// for the frame to decode).
pub fn encode_multiply_sparse(out: &mut Vec<u8>, model: &str, x_nnz: &[(u32, f64)]) {
    begin_frame(out);
    out.push(verb::MULTIPLY_SPARSE);
    push_name(out, model);
    out.extend_from_slice(&(x_nnz.len() as u32).to_le_bytes());
    out.reserve(x_nnz.len() * SPARSE_PAIR_BYTES);
    for &(idx, val) in x_nnz {
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(&val.to_le_bytes());
    }
    finish_frame(out);
}

/// Encodes a stats request frame (`model` empty = all models).
pub fn encode_stats(out: &mut Vec<u8>, model: &str) {
    begin_frame(out);
    out.push(verb::STATS);
    push_name(out, model);
    finish_frame(out);
}

/// Encodes a ping request frame.
pub fn encode_ping(out: &mut Vec<u8>) {
    begin_frame(out);
    out.push(verb::PING);
    finish_frame(out);
}

/// Encodes an info request frame.
pub fn encode_info(out: &mut Vec<u8>, model: &str) {
    begin_frame(out);
    out.push(verb::INFO);
    push_name(out, model);
    finish_frame(out);
}

/// Reads one frame body into `buf` (reused across calls: allocation-free
/// once grown). Returns the body length; `Ok(None)` on clean EOF at a
/// frame boundary.
///
/// # Errors
/// Fails on I/O errors, mid-frame EOF (a torn length prefix included),
/// or a length prefix past [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<Option<usize>> {
    use std::io::ErrorKind;
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            // Only EOF before the prefix's first byte is a frame boundary;
            // EOF inside the prefix is mid-frame.
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    buf.resize(len, 0);
    r.read_exact(&mut buf[..len])?;
    Ok(Some(len))
}

/// An error from a [`Client`] call: transport failure or a non-OK
/// server status.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with a non-OK status.
    Server {
        /// One of the [`status`] codes.
        status: u8,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server { status: s, message } => {
                write!(f, "server error ({}): {message}", status::name(*s))
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking client over one TCP connection, with reused frame buffers
/// (a paced load-generator loop through it allocates only on buffer
/// growth).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    resp: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (any `ToSocketAddrs`), disabling Nagle so
    /// small request frames are not delayed.
    ///
    /// # Errors
    /// Fails on connection errors.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            out: Vec::new(),
            resp: Vec::new(),
        })
    }

    /// Sends the frame already encoded in `self.out` and reads the
    /// response body into `self.resp`, returning `(status, body_len)`.
    fn roundtrip(&mut self) -> Result<(u8, usize), ClientError> {
        self.stream.write_all(&self.out)?;
        let n = read_frame(&mut self.stream, &mut self.resp)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let s = *self.resp.first().ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "empty response body",
            ))
        })?;
        Ok((s, n))
    }

    fn non_ok(&self, s: u8) -> ClientError {
        ClientError::Server {
            status: s,
            message: String::from_utf8_lossy(&self.resp[1..]).into_owned(),
        }
    }

    /// Multiplies `k` vectors (`x.len() == k·dim`, row-major panel) by
    /// `model`, appending the `k·out_dim` results to `y` (cleared
    /// first).
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn multiply(
        &mut self,
        model: &str,
        direction: Direction,
        k: usize,
        x: &[f64],
        y: &mut Vec<f64>,
    ) -> Result<(), ClientError> {
        encode_multiply(&mut self.out, model, direction, k, x);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        let body = &self.resp[1..];
        y.clear();
        y.reserve(body.len() / 8);
        for c in body.chunks_exact(8) {
            y.push(f64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        Ok(())
    }

    /// Right-multiplies `k` vectors (`x.len() == k·cols`, row-major
    /// panel) by `model`, fetching only output rows `rows`: the
    /// embeddings-lookup access pattern, answered server-side in
    /// O(rows-touched) when the model serves through a plan. Appends
    /// the `rows.len()·k` results to `y` (cleared first).
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn multiply_rows(
        &mut self,
        model: &str,
        rows: std::ops::Range<usize>,
        k: usize,
        x: &[f64],
        y: &mut Vec<f64>,
    ) -> Result<(), ClientError> {
        encode_multiply_rows(&mut self.out, model, rows, k, x);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        let body = &self.resp[1..];
        y.clear();
        y.reserve(body.len() / 8);
        for c in body.chunks_exact(8) {
            y.push(f64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        Ok(())
    }

    /// Right-multiplies the sparse vector given by its `(index, value)`
    /// non-zeroes (strictly increasing indices) by `model`, appending
    /// the `rows` results to `y` (cleared first). Served through the
    /// plan's activity-propagation sparse kernel when the model is
    /// planned.
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn multiply_sparse(
        &mut self,
        model: &str,
        x_nnz: &[(u32, f64)],
        y: &mut Vec<f64>,
    ) -> Result<(), ClientError> {
        encode_multiply_sparse(&mut self.out, model, x_nnz);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        let body = &self.resp[1..];
        y.clear();
        y.reserve(body.len() / 8);
        for c in body.chunks_exact(8) {
            y.push(f64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        Ok(())
    }

    /// As [`multiply`](Self::multiply), but returns the raw status byte
    /// instead of treating non-OK as an error — the load generator's
    /// entry point, where `OVERLOADED` is an expected outcome to count,
    /// not a failure to propagate.
    ///
    /// # Errors
    /// Fails only on transport errors.
    pub fn multiply_status(
        &mut self,
        model: &str,
        direction: Direction,
        k: usize,
        x: &[f64],
    ) -> Result<u8, ClientError> {
        encode_multiply(&mut self.out, model, direction, k, x);
        let (s, _) = self.roundtrip()?;
        Ok(s)
    }

    /// Fetches the metrics snapshot (`model` empty = all models).
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn stats(&mut self, model: &str) -> Result<String, ClientError> {
        encode_stats(&mut self.out, model);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        Ok(String::from_utf8_lossy(&self.resp[1..]).into_owned())
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        encode_ping(&mut self.out);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        Ok(())
    }

    /// Fetches `(rows, cols)` of `model`.
    ///
    /// # Errors
    /// Fails on transport errors or any non-OK status.
    pub fn info(&mut self, model: &str) -> Result<(usize, usize), ClientError> {
        encode_info(&mut self.out, model);
        let (s, _) = self.roundtrip()?;
        if s != status::OK {
            return Err(self.non_ok(s));
        }
        let body = &self.resp[1..];
        if body.len() != 16 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "info response must be 16 bytes",
            )));
        }
        let rows = u64::from_le_bytes(body[..8].try_into().expect("8 bytes")) as usize;
        let cols = u64::from_le_bytes(body[8..].try_into().expect("8 bytes")) as usize;
        Ok((rows, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_request_roundtrips() {
        let mut out = Vec::new();
        let x = [1.5f64, -2.0, 0.25];
        encode_multiply(&mut out, "demo", Direction::Right, 1, &x);
        let body_len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, out.len() - 4);
        match decode_request(&out[4..]).unwrap() {
            Request::Multiply {
                model,
                direction,
                k,
                payload,
            } => {
                assert_eq!(model, "demo");
                assert_eq!(direction, Direction::Right);
                assert_eq!(k, 1);
                let back: Vec<f64> = payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                assert_eq!(back, x);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn multiply_rows_request_roundtrips_and_validates() {
        let mut out = Vec::new();
        let x = [0.5f64, 1.0, -1.5, 2.0];
        encode_multiply_rows(&mut out, "emb", 7..19, 2, &x);
        match decode_request(&out[4..]).unwrap() {
            Request::MultiplyRows {
                model,
                rows,
                k,
                payload,
            } => {
                assert_eq!(model, "emb");
                assert_eq!(rows, 7..19);
                assert_eq!(k, 2);
                assert_eq!(payload.len(), 32);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Inverted range.
        encode_multiply_rows(&mut out, "emb", 19..19, 1, &x);
        let body_start = out.len() - 32; // payload start
        out[body_start - 16..body_start - 8].copy_from_slice(&20u64.to_le_bytes());
        assert!(decode_request(&out[4..]).is_err(), "start > end");
        // Row end past u32::MAX.
        encode_multiply_rows(&mut out, "emb", 0..usize::MAX, 1, &x);
        assert!(decode_request(&out[4..]).is_err(), "implausible range");
        // k = 0.
        let bad = vec![verb::MULTIPLY_ROWS, 1, b'a', 0, 0];
        assert!(decode_request(&bad).is_err());
        // Truncated row range.
        let bad = vec![verb::MULTIPLY_ROWS, 1, b'a', 1, 0, 0, 0, 0];
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn multiply_sparse_request_roundtrips_and_validates() {
        let mut out = Vec::new();
        let pairs = [(2u32, 0.5f64), (7, -1.25), (11, 3.0)];
        encode_multiply_sparse(&mut out, "feat", &pairs);
        match decode_request(&out[4..]).unwrap() {
            Request::MultiplySparse {
                model,
                nnz,
                payload,
            } => {
                assert_eq!(model, "feat");
                assert_eq!(nnz, 3);
                assert_eq!(payload.len(), 3 * SPARSE_PAIR_BYTES);
                for (i, &(idx, val)) in pairs.iter().enumerate() {
                    assert_eq!(sparse_pair(payload, i), (idx, val));
                }
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Empty sparse vector is valid on the wire.
        encode_multiply_sparse(&mut out, "feat", &[]);
        assert!(matches!(
            decode_request(&out[4..]).unwrap(),
            Request::MultiplySparse { nnz: 0, .. }
        ));
        // Duplicate index.
        encode_multiply_sparse(&mut out, "feat", &[(4, 1.0), (4, 2.0)]);
        assert!(decode_request(&out[4..]).is_err(), "duplicate index");
        // Unsorted indices.
        encode_multiply_sparse(&mut out, "feat", &[(9, 1.0), (3, 2.0)]);
        assert!(decode_request(&out[4..]).is_err(), "unsorted indices");
        // Count disagrees with the payload (claim one more pair).
        encode_multiply_sparse(&mut out, "feat", &pairs);
        let name_end = 4 + 1 + 1 + 4; // frame len, verb, name_len, "feat"
        out[name_end..name_end + 4].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_request(&out[4..]).is_err(), "nnz overclaims payload");
        // Truncated count field.
        let bad = vec![verb::MULTIPLY_SPARSE, 1, b'a', 0, 0];
        assert!(decode_request(&bad).is_err());
        // Payload not a whole number of pairs.
        let mut bad = vec![verb::MULTIPLY_SPARSE, 1, b'a'];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 7]);
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn stats_ping_info_roundtrip() {
        let mut out = Vec::new();
        encode_stats(&mut out, "");
        assert!(matches!(
            decode_request(&out[4..]).unwrap(),
            Request::Stats { model: "" }
        ));
        encode_ping(&mut out);
        assert!(matches!(decode_request(&out[4..]).unwrap(), Request::Ping));
        encode_info(&mut out, "m1");
        assert!(matches!(
            decode_request(&out[4..]).unwrap(),
            Request::Info { model: "m1" }
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err(), "unknown verb");
        assert!(decode_request(&[verb::MULTIPLY]).is_err(), "no direction");
        assert!(
            decode_request(&[verb::MULTIPLY, 7]).is_err(),
            "bad direction"
        );
        // Name length past the body end.
        assert!(decode_request(&[verb::MULTIPLY, 0, 10, b'a']).is_err());
        // k = 0.
        let mut bad = vec![verb::MULTIPLY, 0, 1, b'a', 0, 0];
        assert!(decode_request(&bad).is_err());
        // Payload not a multiple of 8.
        bad = vec![verb::MULTIPLY, 0, 1, b'a', 1, 0, 1, 2, 3];
        assert!(decode_request(&bad).is_err());
        // Non-UTF-8 name.
        bad = vec![verb::INFO, 1, 0xFF];
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn frame_reader_enforces_bounds_and_eof() {
        let mut buf = Vec::new();
        // Clean EOF at a boundary.
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }, &mut buf), Ok(None)));
        // Mid-frame EOF is an error, inside the length prefix too.
        let short: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(read_frame(&mut { short }, &mut buf).is_err());
        let torn: &[u8] = &[5, 0];
        assert!(read_frame(&mut { torn }, &mut buf).is_err());
        // Oversized length prefix is rejected before any read.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..], &mut buf).is_err());
        // A well-formed frame round-trips.
        let frame: &[u8] = &[3, 0, 0, 0, 9, 8, 7];
        assert_eq!(read_frame(&mut { frame }, &mut buf).unwrap(), Some(3));
        assert_eq!(&buf[..3], &[9, 8, 7]);
    }
}
