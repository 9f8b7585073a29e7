use std::fmt;

use crate::SparseError;

/// A row-major dense `f64` matrix.
///
/// Used for the right-hand side operands of the GCN layer (`XW` and `W`,
/// which Table I of the paper shows to be 100% dense for every dataset) and
/// for reference results produced by the kernels in [`crate::ops`].
///
/// ```
/// use grow_sparse::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, SparseError> {
        if data.len() != rows * cols {
            return Err(SparseError::InvalidStructure(format!(
                "row-major data has {} elements, expected {}",
                data.len(),
                rows * cols
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    ///
    /// ```
    /// use grow_sparse::DenseMatrix;
    /// let m = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
    /// assert_eq!(m.get(1, 0), 2.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `row` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns row `row` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of non-zero elements (exact zero is treated as empty).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of non-zero elements, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / self.data.len() as f64
    }

    /// Applies the ReLU activation (`max(0, x)`) element-wise in place.
    ///
    /// GCN layers apply a non-linear activation after each graph convolution
    /// (Equation 1 of the paper); ReLU is the one the paper assumes.
    pub fn relu_in_place(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Returns `true` if every element differs from `other` by at most `tol`.
    ///
    /// Useful for comparing kernel results computed in different accumulation
    /// orders, which are equal only up to floating-point rounding.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let cells: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:8.3}"))
                .collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn identity_is_diagonal() {
        let m = DenseMatrix::identity(4);
        assert_eq!(m.nnz(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn row_accessors_round_trip() {
        let mut m = DenseMatrix::from_fn(3, 3, |r, c| (r + c) as f64);
        m.row_mut(2)[1] = 42.0;
        assert_eq!(m.get(2, 1), 42.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = DenseMatrix::from_row_major(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        m.relu_in_place();
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn density_counts_nonzeros() {
        let m = DenseMatrix::from_row_major(2, 2, vec![0.0, 1.0, 0.0, 3.0]).unwrap();
        assert_eq!(m.density(), 0.5);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = DenseMatrix::from_row_major(1, 2, vec![1.0, 2.0]).unwrap();
        let b = DenseMatrix::from_row_major(1, 2, vec![1.0 + 1e-12, 2.0]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        let c = DenseMatrix::from_row_major(1, 2, vec![1.5, 2.0]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        DenseMatrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = DenseMatrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }
}
