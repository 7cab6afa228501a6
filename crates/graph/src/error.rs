//! Structured errors for graph construction.
//!
//! The panicking constructors (`from_matrix`, `from_symmetric_matrix`)
//! remain for trusted in-process patterns (generators, transposes); the
//! `try_` variants validate untrusted input — file loaders, CLI paths —
//! and report *why* a pattern was rejected instead of aborting.

use std::fmt;

/// Why a pattern was rejected as a coloring input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The pattern violates CSR invariants: out-of-bounds, duplicate or
    /// unsorted column indices, or inconsistent row pointers. The payload
    /// is the first violated invariant, structured so callers can tell an
    /// out-of-range adjacency index from a malformed row pointer.
    InvalidPattern(sparse::CsrError),
    /// A dimension does not fit the `u32` index space the adjacency
    /// structures use.
    DimensionOverflow {
        /// Which dimension overflowed (`"rows"` or `"columns"`).
        what: &'static str,
        /// The offending dimension.
        value: usize,
    },
    /// A D2GC input was not square.
    NotSquare {
        /// Row count of the offending pattern.
        nrows: usize,
        /// Column count of the offending pattern.
        ncols: usize,
    },
    /// A D2GC input was not structurally symmetric after diagonal removal.
    NotSymmetric,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidPattern(detail) => {
                write!(f, "invalid sparse pattern: {detail}")
            }
            GraphError::DimensionOverflow { what, value } => {
                write!(
                    f,
                    "{what} dimension {value} exceeds the u32 index space ({})",
                    u32::MAX
                )
            }
            GraphError::NotSquare { nrows, ncols } => {
                write!(f, "graph input must be square, got {nrows}x{ncols}")
            }
            GraphError::NotSymmetric => {
                write!(f, "graph adjacency must be structurally symmetric")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Validates that a pattern's dimensions fit `u32` indices and that its
/// CSR invariants hold (no out-of-bounds or duplicate columns).
pub(crate) fn validate_pattern(matrix: &sparse::Csr) -> Result<(), GraphError> {
    if matrix.nrows() > u32::MAX as usize {
        return Err(GraphError::DimensionOverflow {
            what: "rows",
            value: matrix.nrows(),
        });
    }
    if matrix.ncols() > u32::MAX as usize {
        return Err(GraphError::DimensionOverflow {
            what: "columns",
            value: matrix.ncols(),
        });
    }
    matrix.validate().map_err(GraphError::InvalidPattern)
}
