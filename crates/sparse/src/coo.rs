use crate::{CsrMatrix, DenseMatrix, SparseError};

/// A coordinate-format (triplet) sparse matrix builder.
///
/// COO is the natural intermediate when assembling a matrix from edge lists
/// or generators; convert to [`CsrMatrix`] with [`CooMatrix::to_csr`] for
/// computation. Duplicate entries are summed during conversion (the usual
/// finite-element / graph-multigraph convention).
///
/// ```
/// use grow_sparse::CooMatrix;
///
/// # fn main() -> Result<(), grow_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 2.0)?;
/// coo.push(0, 1, 3.0)?; // duplicate: summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.nnz(), 1);
/// assert_eq!(csr.row_entries(0).next(), Some((1, 5.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows x cols` COO matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` exceeds `u32::MAX` (indices are stored as
    /// `u32` to halve the memory footprint of large graph datasets).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows <= u32::MAX as usize && cols <= u32::MAX as usize);
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with pre-allocated capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        let mut coo = CooMatrix::new(rows, cols);
        coo.entries.reserve(cap);
        coo
    }

    /// Appends the entry `(row, col, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the coordinate lies
    /// outside the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Iterates over the stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Converts to CSR, sorting entries and summing duplicates.
    ///
    /// Entries whose duplicates sum to exactly zero are *kept* as explicit
    /// zeros: graph adjacency matrices never produce them in practice, and
    /// preserving them keeps nnz accounting deterministic.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort each row segment by column.
        let mut counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut sorted: Vec<(u32, f64)> = vec![(0, 0.0); self.entries.len()];
        let mut next = counts.clone();
        for &(r, c, v) in &self.entries {
            let slot = next[r as usize];
            sorted[slot] = (c, v);
            next[r as usize] += 1;
        }

        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        indptr.push(0usize);
        for r in 0..self.rows {
            let seg = &mut sorted[counts[r]..counts[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let col = seg[i].0;
                let mut sum = 0.0;
                while i < seg.len() && seg[i].0 == col {
                    sum += seg[i].1;
                    i += 1;
                }
                indices.push(col);
                values.push(sum);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw(self.rows, self.cols, indptr, indices, values)
            .expect("COO conversion produces structurally valid CSR")
    }

    /// Converts to a dense matrix, summing duplicates.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            let cur = dense.get(r as usize, c as usize);
            dense.set(r as usize, c as usize, cur + v);
        }
        dense
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    /// Extends the matrix with triplets.
    ///
    /// # Panics
    ///
    /// Panics if a triplet is out of bounds. Use [`CooMatrix::push`] for a
    /// fallible variant.
    fn extend<T: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("triplet within bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn to_csr_sorts_rows_and_columns() {
        let mut coo = CooMatrix::new(3, 3);
        coo.extend([(2, 1, 5.0), (0, 2, 3.0), (0, 0, 1.0), (2, 0, 4.0)]);
        let csr = coo.to_csr();
        assert_eq!(csr.row_indices(0), &[0, 2]);
        assert_eq!(csr.row_indices(1), &[] as &[u32]);
        assert_eq!(csr.row_indices(2), &[0, 1]);
        assert_eq!(csr.row_values(2), &[4.0, 5.0]);
    }

    #[test]
    fn to_csr_merges_duplicates() {
        let mut coo = CooMatrix::new(1, 2);
        coo.extend([(0, 1, 1.0), (0, 1, 2.5), (0, 0, -1.0)]);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row_values(0), &[-1.0, 3.5]);
    }

    #[test]
    fn to_dense_matches_to_csr() {
        let mut coo = CooMatrix::new(2, 3);
        coo.extend([(0, 1, 1.0), (1, 2, 2.0), (0, 1, 1.0)]);
        let dense = coo.to_dense();
        let csr = coo.to_csr();
        assert!(csr.to_dense().approx_eq(&dense, 0.0));
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(0, 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.shape(), (0, 0));
    }
}
