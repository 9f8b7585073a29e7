use std::error::Error;
use std::fmt;

/// Error type for matrix construction and kernel shape mismatches.
///
/// Returned by constructors that validate their inputs ([C-VALIDATE]) and by
/// the kernels in [`crate::ops`] when operand shapes are incompatible.
///
/// ```
/// use grow_sparse::{CooMatrix, SparseError};
///
/// let mut coo = CooMatrix::new(2, 2);
/// let err = coo.push(5, 0, 1.0).unwrap_err();
/// assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// An explicit entry was addressed outside the matrix bounds.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        rows: usize,
        /// Number of columns in the matrix.
        cols: usize,
    },
    /// Two operands of a kernel have incompatible shapes.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
        /// The operation that was attempted, e.g. `"spmm"`.
        op: &'static str,
    },
    /// Raw CSR arrays passed to a `from_raw` constructor are inconsistent
    /// (wrong lengths, non-monotonic pointers, or unsorted indices).
    InvalidStructure(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "entry ({row}, {col}) is out of bounds for a {rows}x{cols} matrix"
            ),
            SparseError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::InvalidStructure(msg) => {
                write!(f, "invalid compressed-matrix structure: {msg}")
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = SparseError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "spmm",
        };
        let text = err.to_string();
        assert!(text.contains("spmm"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
