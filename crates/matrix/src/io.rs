//! Simple matrix IO: a MatrixMarket-like text format and a compact binary
//! format for dense matrices.
//!
//! The paper's datasets ship as numeric tables; these readers/writers make
//! the examples and harnesses self-contained without external parsers.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use gcm_encodings::varint;

use crate::csrv::CsrvMatrix;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;

/// Writes a dense matrix as text: a header line `rows cols`, then one line
/// of space-separated values per row.
pub fn write_dense_text<W: Write>(m: &DenseMatrix, mut w: W) -> io::Result<()> {
    writeln!(w, "{} {}", m.rows(), m.cols())?;
    let mut line = String::new();
    for r in 0..m.rows() {
        line.clear();
        for (c, v) in m.row(r).iter().enumerate() {
            if c > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{v}"));
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads the text format produced by [`write_dense_text`].
///
/// The header is treated as untrusted: a `rows × cols` product that
/// overflows is rejected before anything is allocated, the initial
/// reservation is capped so a lying header cannot force a huge
/// allocation, and a body that is longer or shorter than the header
/// promises is an error.
///
/// # Errors
/// Fails on malformed headers, dimension overflow, rows of the wrong
/// length, a body length that mismatches the header, or unparsable
/// numbers.
pub fn read_dense_text<R: BufRead>(r: R) -> Result<DenseMatrix, MatrixError> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| MatrixError::Parse("empty input".into()))?
        .map_err(|e| MatrixError::Parse(e.to_string()))?;
    let mut parts = header.split_whitespace();
    let rows: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| MatrixError::Parse("bad row count".into()))?;
    let cols: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| MatrixError::Parse("bad column count".into()))?;
    let total = rows
        .checked_mul(cols)
        .filter(|&n| n.checked_mul(8).is_some())
        .ok_or_else(|| MatrixError::Parse(format!("matrix dimensions {rows} x {cols} overflow")))?;
    // Cap the up-front reservation: the body itself proves the real size.
    let mut data = Vec::with_capacity(total.min(1 << 20));
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| MatrixError::Parse(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        if data.len() + cols > total {
            return Err(MatrixError::Parse(format!(
                "body has more than the {rows} rows promised by the header"
            )));
        }
        let before = data.len();
        for tok in line.split_whitespace() {
            let v: f64 = tok
                .parse()
                .map_err(|_| MatrixError::Parse(format!("bad number {tok:?} on row {i}")))?;
            data.push(v);
            if data.len() - before > cols {
                return Err(MatrixError::Parse(format!(
                    "row {i} has more than {cols} values"
                )));
            }
        }
        if data.len() - before != cols {
            return Err(MatrixError::Parse(format!(
                "row {i} has {} values, expected {cols}",
                data.len() - before
            )));
        }
    }
    if data.len() != total {
        return Err(MatrixError::Parse(format!(
            "body has {} values, header promises {rows} x {cols} = {total}",
            data.len()
        )));
    }
    DenseMatrix::from_vec(rows, cols, data)
}

/// Magic bytes of the binary dense format.
const MAGIC: &[u8; 8] = b"GCMDNSE1";

/// Writes a dense matrix in a compact little-endian binary format.
pub fn write_dense_binary<W: Write>(m: &DenseMatrix, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(m.rows() as u64).to_le_bytes())?;
    w.write_all(&(m.cols() as u64).to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    Ok(())
}

/// Reads the binary format produced by [`write_dense_binary`].
///
/// # Errors
/// Fails on bad magic or truncated payloads.
pub fn read_dense_binary(data: &[u8]) -> Result<DenseMatrix, MatrixError> {
    if data.len() < 24 || &data[..8] != MAGIC {
        return Err(MatrixError::Parse("bad magic".into()));
    }
    let rows = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
    let cols = u64::from_le_bytes(data[16..24].try_into().unwrap()) as usize;
    let need = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| MatrixError::Parse("size overflow".into()))?;
    let payload = &data[24..];
    if payload.len() < need {
        return Err(MatrixError::Parse(format!(
            "truncated payload: need {need} bytes, have {}",
            payload.len()
        )));
    }
    let mut values = Vec::with_capacity(rows * cols);
    for chunk in payload[..need].chunks_exact(8) {
        values.push(f64::from_le_bytes(chunk.try_into().unwrap()));
    }
    DenseMatrix::from_vec(rows, cols, values)
}

/// Magic bytes of the binary CSRV section format.
const CSRV_MAGIC: &[u8; 8] = b"GCMCSRV1";

/// Appends a CSRV matrix as a self-delimiting binary section:
///
/// ```text
/// magic "GCMCSRV1" | varint rows, cols | varint |V| + f64 LE values
/// varint |S| + u32 LE symbols
/// ```
///
/// The model-store containers of the serve layer embed these sections;
/// [`read_csrv_bytes`] validates them fully before handing the symbols
/// to any multiplication kernel.
pub fn write_csrv_bytes(m: &CsrvMatrix, out: &mut Vec<u8>) {
    write_csrv(m, out, true);
}

/// As [`write_csrv_bytes`], but **dictionary-free**: the `V` section is
/// written as `|V| = 0`, for a container that stores the matrix's
/// dictionary once for many sections. Read it back with
/// [`read_csrv_bytes_shared`] and that same dictionary.
pub fn write_csrv_bytes_shared(m: &CsrvMatrix, out: &mut Vec<u8>) {
    write_csrv(m, out, false);
}

fn write_csrv(m: &CsrvMatrix, out: &mut Vec<u8>, with_values: bool) {
    out.extend_from_slice(CSRV_MAGIC);
    varint::write_u64(out, m.rows() as u64);
    varint::write_u64(out, m.cols() as u64);
    let values = if with_values { m.values() } else { &[] };
    varint::write_u64(out, values.len() as u64);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    varint::write_u64(out, m.symbols().len() as u64);
    for &s in m.symbols() {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Reads a section written by [`write_csrv_bytes`], advancing `pos`.
///
/// Deserialisation is validating, so corrupt input can never panic a
/// kernel: every symbol must lie below the terminal limit `1 + |V|·cols`
/// (which bounds both the value index and the column of every pair) and
/// the separator count must equal the row count. Returns `None` on any
/// violation.
pub fn read_csrv_bytes(data: &[u8], pos: &mut usize) -> Option<CsrvMatrix> {
    read_csrv(data, pos, None)
}

/// Reads a dictionary-free section ([`write_csrv_bytes_shared`]) against
/// the dictionary `values` it was written for, advancing `pos`. The
/// result shares that `Arc`, and its symbols pass the same validation
/// as [`read_csrv_bytes`] against it. Returns `None` on any violation,
/// including a section that embeds a dictionary of its own.
pub fn read_csrv_bytes_shared(
    data: &[u8],
    pos: &mut usize,
    values: &Arc<Vec<f64>>,
) -> Option<CsrvMatrix> {
    read_csrv(data, pos, Some(values))
}

fn read_csrv(data: &[u8], pos: &mut usize, shared: Option<&Arc<Vec<f64>>>) -> Option<CsrvMatrix> {
    if data.len() < *pos + 8 || &data[*pos..*pos + 8] != CSRV_MAGIC {
        return None;
    }
    *pos += 8;
    let rows = varint::read_u64(data, pos)?;
    let cols = varint::read_u64(data, pos)?;
    // The symbol codec addresses columns (and rows via separators) as
    // u32, so larger headers can only be forged.
    if rows > u64::from(u32::MAX) || cols > u64::from(u32::MAX) {
        return None;
    }
    let (rows, cols) = (rows as usize, cols as usize);
    let n_embedded = varint::read_u64(data, pos)? as usize;
    let need = n_embedded.checked_mul(8)?;
    let end = pos.checked_add(need).filter(|&e| e <= data.len())?;
    let values = match shared {
        None => Arc::new(
            data[*pos..end]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        ),
        // A dictionary-free section declares an empty `V`.
        Some(_) if n_embedded != 0 => return None,
        Some(shared) => Arc::clone(shared),
    };
    *pos = end;
    let n_values = values.len();
    let n_syms = varint::read_u64(data, pos)? as usize;
    let need = n_syms.checked_mul(4)?;
    pos.checked_add(need).filter(|&e| e <= data.len())?;
    let limit = (n_values as u64).checked_mul(cols as u64)?.checked_add(1)?;
    if limit > u64::from(u32::MAX) + 1 {
        return None;
    }
    let mut symbols = Vec::with_capacity(n_syms);
    let mut separators = 0usize;
    for c in data[*pos..*pos + need].chunks_exact(4) {
        let s = u32::from_le_bytes(c.try_into().unwrap());
        if u64::from(s) >= limit {
            return None;
        }
        if s == crate::csrv::SEPARATOR {
            separators += 1;
        } else if separators >= rows {
            // Every row ends with `$`, so no pair may trail the final
            // separator — the left kernels index `y[row]` per pair and
            // would run out of bounds otherwise.
            return None;
        }
        symbols.push(s);
    }
    *pos += need;
    if separators != rows {
        return None;
    }
    Some(CsrvMatrix::from_parts(rows, cols, values, symbols))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.25, 0.0, -3.5], &[0.0, 2.75, 0.0]])
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        write_dense_text(&m, &mut buf).unwrap();
        let back = read_dense_text(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn binary_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        write_dense_binary(&m, &mut buf).unwrap();
        let back = read_dense_binary(&buf).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn text_rejects_ragged_rows() {
        let input = "2 3\n1 2 3\n4 5\n";
        assert!(read_dense_text(input.as_bytes()).is_err());
    }

    #[test]
    fn text_rejects_bad_numbers() {
        let input = "1 2\n1 abc\n";
        assert!(read_dense_text(input.as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let m = sample();
        let mut buf = Vec::new();
        write_dense_binary(&m, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_dense_binary(&buf).is_err());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_dense_binary(b"NOTMAGIC________________").is_err());
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = DenseMatrix::zeros(0, 3);
        let mut buf = Vec::new();
        write_dense_text(&m, &mut buf).unwrap();
        let back = read_dense_text(&buf[..]).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.cols(), 3);
    }

    #[test]
    fn text_rejects_overflowing_header() {
        // rows * cols overflows usize: must fail fast, before allocating.
        let input = format!("{} {}\n", usize::MAX, 3);
        assert!(read_dense_text(input.as_bytes()).is_err());
        // rows * cols fits but the f64 byte count would overflow.
        let input = format!("{} {}\n", usize::MAX / 4, 3);
        assert!(read_dense_text(input.as_bytes()).is_err());
    }

    #[test]
    fn text_rejects_body_shorter_than_header() {
        let input = "3 2\n1 2\n3 4\n";
        let err = read_dense_text(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header promises"), "{err}");
    }

    #[test]
    fn text_rejects_body_longer_than_header() {
        let input = "1 2\n1 2\n3 4\n";
        assert!(read_dense_text(input.as_bytes()).is_err());
        // A single over-long row is caught as soon as it overruns.
        let input = "1 2\n1 2 3\n";
        assert!(read_dense_text(input.as_bytes()).is_err());
    }

    #[test]
    fn huge_header_with_empty_body_does_not_allocate_its_claim() {
        // A lying header may promise ~2^57 values; the reader must reject
        // it from the actual body without reserving that much.
        let input = format!("{} {}\n", 1usize << 30, 1usize << 27);
        assert!(read_dense_text(input.as_bytes()).is_err());
    }

    #[test]
    fn csrv_bytes_roundtrip() {
        let m = DenseMatrix::from_rows(&[
            &[1.5, 0.0, 2.5, 0.0],
            &[0.0, 1.5, 0.0, 2.5],
            &[1.5, 1.5, 0.0, 0.0],
        ]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let mut buf = vec![0xAA; 3]; // leading junk: sections are positional
        write_csrv_bytes(&csrv, &mut buf);
        let end = buf.len();
        buf.extend_from_slice(b"trailing");
        let mut pos = 3usize;
        let back = read_csrv_bytes(&buf, &mut pos).expect("roundtrip");
        assert_eq!(pos, end, "section must be self-delimiting");
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 4);
        assert_eq!(back.symbols(), csrv.symbols());
        assert_eq!(back.values(), csrv.values());
        assert_eq!(back.to_dense(), m);
    }

    #[test]
    fn dictionary_free_csrv_bytes_roundtrip_against_the_shared_dictionary() {
        let m = DenseMatrix::from_rows(&[&[1.5, 0.0, 2.5], &[0.0, 1.5, 0.0]]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let (mut full, mut shared) = (Vec::new(), Vec::new());
        write_csrv_bytes(&csrv, &mut full);
        write_csrv_bytes_shared(&csrv, &mut shared);
        assert_eq!(full.len() - shared.len(), csrv.values().len() * 8);
        let dict = Arc::clone(csrv.values_arc());
        let mut pos = 0;
        let back = read_csrv_bytes_shared(&shared, &mut pos, &dict).expect("roundtrip");
        assert_eq!(pos, shared.len());
        assert!(
            Arc::ptr_eq(back.values_arc(), &dict),
            "shares the dictionary"
        );
        assert_eq!(back.to_dense(), m);
        // A section embedding its own `V` is not dictionary-free.
        assert!(read_csrv_bytes_shared(&full, &mut 0, &dict).is_none());
        // Symbols past a shrunken dictionary are rejected.
        let short = Arc::new(csrv.values()[..1].to_vec());
        assert!(read_csrv_bytes_shared(&shared, &mut 0, &short).is_none());
    }

    #[test]
    fn csrv_bytes_reject_truncation_and_corruption() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        let mut buf = Vec::new();
        write_csrv_bytes(&csrv, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                read_csrv_bytes(&buf[..cut], &mut pos).is_none(),
                "cut at {cut}"
            );
        }
        // An out-of-range symbol (>= terminal limit) must be rejected:
        // patch the last symbol, which sits in the final 4 bytes.
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(read_csrv_bytes(&bad, &mut pos).is_none());
        // A separator-count mismatch (row count patched) is rejected too.
        let mut bad = buf.clone();
        bad[8] = bad[8].wrapping_add(1); // rows varint (values < 128 here)
        let mut pos = 0;
        assert!(read_csrv_bytes(&bad, &mut pos).is_none());
    }

    #[test]
    fn csrv_bytes_reject_pairs_trailing_the_final_separator() {
        // A forged stream whose separator COUNT matches the row count but
        // whose final separator is followed by more pairs would send the
        // left-multiply kernels out of bounds on `y[row]`.
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let csrv = CsrvMatrix::from_dense(&m).unwrap();
        // rows=2, symbols forged to [pair, $, $, pair].
        let pair = *csrv.symbols().iter().find(|&&s| s != 0).unwrap();
        let forged = CsrvMatrix::from_parts(
            2,
            2,
            std::sync::Arc::new(csrv.values().to_vec()),
            vec![pair, 0, 0, pair],
        );
        let mut buf = Vec::new();
        write_csrv_bytes(&forged, &mut buf);
        let mut pos = 0;
        assert!(read_csrv_bytes(&buf, &mut pos).is_none());
    }

    #[test]
    fn csrv_bytes_empty_matrix() {
        let csrv = CsrvMatrix::from_dense(&DenseMatrix::zeros(2, 3)).unwrap();
        let mut buf = Vec::new();
        write_csrv_bytes(&csrv, &mut buf);
        let mut pos = 0;
        let back = read_csrv_bytes(&buf, &mut pos).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        assert_eq!(back.nnz(), 0);
    }
}
