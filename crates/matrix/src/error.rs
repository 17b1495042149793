//! Error type shared by the matrix formats.

use std::fmt;

/// Errors raised by matrix construction, conversion, and IO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Vector or matrix dimensions do not agree.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
        /// Human-readable description of the dimension.
        what: &'static str,
    },
    /// The CSRV symbol alphabet `1 + |V|·m` does not fit in a `u32`.
    SymbolOverflow {
        /// Number of distinct non-zero values.
        distinct_values: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A triplet addressed a cell outside the matrix.
    IndexOutOfBounds {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// A NaN entry: NaN equals nothing, not even itself, so the value
    /// dictionary `V` cannot hold it.
    NotANumber {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
    /// Malformed textual input.
    Parse(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { expected, actual, what } => {
                write!(f, "dimension mismatch: {what} expected {expected}, got {actual}")
            }
            MatrixError::SymbolOverflow { distinct_values, cols } => write!(
                f,
                "CSRV symbol alphabet overflow: {distinct_values} distinct values x {cols} columns exceeds u32"
            ),
            MatrixError::IndexOutOfBounds { row, col, rows, cols } => {
                write!(f, "index ({row},{col}) out of bounds for {rows}x{cols} matrix")
            }
            MatrixError::NotANumber { row, col } => write!(
                f,
                "NaN at row {row}, column {col}: the value dictionary needs values with equality"
            ),
            MatrixError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MatrixError::DimensionMismatch {
            expected: 3,
            actual: 5,
            what: "x length",
        };
        assert!(e.to_string().contains("expected 3"));
        let e = MatrixError::SymbolOverflow {
            distinct_values: 1 << 30,
            cols: 1 << 10,
        };
        assert!(e.to_string().contains("overflow"));
    }
}
