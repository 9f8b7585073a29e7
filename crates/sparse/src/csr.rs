use std::fmt;

use crate::{DenseMatrix, SparseError};

/// The structure (row pointers + column indices) of a CSR matrix, without
/// values.
///
/// GROW's cycle-level simulators are timing models: only the *sparsity
/// pattern* of the operands determines cycles and DRAM traffic, so the
/// engines consume `CsrPattern`s and the (large) value arrays are optional.
/// CSR is the compression format GROW uses for both sparse inputs `A` and
/// `X` (Table II of the paper).
///
/// Invariants (validated on construction):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, monotonically
///   non-decreasing, `indptr[rows] == indices.len()`;
/// * column indices within each row are strictly increasing and `< cols`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrPattern {
    /// Creates a pattern from raw CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the arrays violate any
    /// CSR invariant (see the type-level documentation).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr has length {}, expected rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure("indptr[0] must be 0".into()));
        }
        if *indptr.last().expect("indptr non-empty") != indices.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr[rows] = {} does not match indices.len() = {}",
                indptr[rows],
                indices.len()
            )));
        }
        for r in 0..rows {
            if indptr[r] > indptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "indptr decreases at row {r}"
                )));
            }
            let seg = &indices[indptr[r]..indptr[r + 1]];
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "columns in row {r} are not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = seg.last() {
                if last as usize >= cols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column {last} in row {r} exceeds cols = {cols}"
                    )));
                }
            }
        }
        Ok(CsrPattern {
            rows,
            cols,
            indptr,
            indices,
        })
    }

    /// Creates an empty pattern with no non-zeros.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrPattern {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
        }
    }

    /// Creates the pattern of a fully dense `rows x cols` matrix.
    ///
    /// Several Table I feature matrices (`X` for Reddit/Yelp) are 100% dense
    /// yet still stored in CSR by GROW; this constructor builds that case
    /// without an intermediate COO pass.
    pub fn dense(rows: usize, cols: usize) -> Self {
        let indptr = (0..=rows).map(|r| r * cols).collect();
        let mut indices = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            indices.extend(0..cols as u32);
        }
        CsrPattern {
            rows,
            cols,
            indptr,
            indices,
        }
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

    /// Total number of non-zero positions.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Number of non-zeros in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.indptr[row + 1] - self.indptr[row]
    }

    /// The column indices of row `row`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_indices(&self, row: usize) -> &[u32] {
        &self.indices[self.indptr[row]..self.indptr[row + 1]]
    }

    /// Borrowing iterator over the column-index slices of the rows in
    /// `rows`, in order — the hot-loop form of [`CsrPattern::row_indices`].
    ///
    /// One `indptr` walk yields every row's `&[u32]` slice directly, so
    /// inner loops touch two flat arrays instead of doing two bounds-checked
    /// pointer loads per row:
    ///
    /// ```
    /// use grow_sparse::CsrPattern;
    ///
    /// let p = CsrPattern::dense(4, 2);
    /// let nnz: usize = p.row_slices(1..3).map(|row| row.len()).sum();
    /// assert_eq!(nnz, 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `rows.end > self.rows()` or `rows.start > rows.end`.
    pub fn row_slices(&self, rows: std::ops::Range<usize>) -> RowSlices<'_> {
        RowSlices {
            indptr: &self.indptr[rows.start..=rows.end],
            indices: &self.indices,
        }
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The concatenated column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Fraction of non-zero positions, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// The transposed pattern: the column-major structure of `self`,
    /// stored as CSR.
    pub fn transpose(&self) -> CsrPattern {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.indices.len()];
        let mut next = counts.clone();
        for r in 0..self.rows {
            for &c in self.row_indices(r) {
                indices[next[c as usize]] = r as u32;
                next[c as usize] += 1;
            }
        }
        CsrPattern {
            rows: self.cols,
            cols: self.rows,
            indptr: counts,
            indices,
        }
    }

    /// Pairs the pattern with a value array.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `values.len() != self.nnz()`.
    pub fn with_values(self, values: Vec<f64>) -> Result<CsrMatrix, SparseError> {
        if values.len() != self.nnz() {
            return Err(SparseError::InvalidStructure(format!(
                "value array has {} entries, expected nnz = {}",
                values.len(),
                self.nnz()
            )));
        }
        Ok(CsrMatrix {
            pattern: self,
            values,
        })
    }

    /// Pairs the pattern with all-ones values (an unweighted adjacency matrix).
    pub fn with_unit_values(self) -> CsrMatrix {
        let values = vec![1.0; self.nnz()];
        CsrMatrix {
            pattern: self,
            values,
        }
    }
}

/// Borrowing iterator over per-row column-index slices of a
/// [`CsrPattern`] (see [`CsrPattern::row_slices`]).
#[derive(Debug, Clone)]
pub struct RowSlices<'a> {
    /// The `rows + 1` row-pointer window being walked.
    indptr: &'a [usize],
    indices: &'a [u32],
}

impl<'a> Iterator for RowSlices<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        let (&start, rest) = self.indptr.split_first()?;
        let &end = rest.first()?;
        self.indptr = rest;
        Some(&self.indices[start..end])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.indptr.len().saturating_sub(1);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowSlices<'_> {}

impl fmt::Display for CsrPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrPattern {}x{}, nnz = {}, density = {:.3e}",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )
    }
}

/// A CSR (compressed sparse row) matrix with `f64` values.
///
/// The value-carrying companion of [`CsrPattern`]; used by the functional
/// reference kernels and by the simulators' optional value-checking mode.
///
/// ```
/// use grow_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), grow_sparse::SparseError> {
/// let m = CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    pattern: CsrPattern,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a CSR matrix from raw arrays, validating the structure.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the structure arrays are
    /// inconsistent or `values.len() != indices.len()`.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        CsrPattern::from_raw(rows, cols, indptr, indices)?.with_values(values)
    }

    /// Creates an empty matrix with no non-zeros.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            pattern: CsrPattern::empty(rows, cols),
            values: Vec::new(),
        }
    }

    /// Creates a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut indptr = Vec::with_capacity(dense.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            pattern: CsrPattern {
                rows: dense.rows(),
                cols: dense.cols(),
                indptr,
                indices,
            },
            values,
        }
    }

    /// The sparsity pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Consumes the matrix, returning the pattern and dropping the values.
    pub fn into_pattern(self) -> CsrPattern {
        self.pattern
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols()
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.pattern.shape()
    }

    /// Total number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Fraction of non-zero positions, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.pattern.density()
    }

    /// The column indices of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_indices(&self, row: usize) -> &[u32] {
        self.pattern.row_indices(row)
    }

    /// The values of row `row`, aligned with [`CsrMatrix::row_indices`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_values(&self, row: usize) -> &[f64] {
        &self.values[self.pattern.indptr[row]..self.pattern.indptr[row + 1]]
    }

    /// Iterates over `(column, value)` pairs of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.row_indices(row)
            .iter()
            .copied()
            .zip(self.row_values(row).iter().copied())
    }

    /// Borrowing iterator over `(column indices, values)` slice pairs of
    /// the rows in `rows`, in order — the hot-loop form of
    /// [`CsrMatrix::row_entries`] (one `indptr` walk, no per-row index
    /// arithmetic).
    ///
    /// ```
    /// # fn main() -> Result<(), grow_sparse::SparseError> {
    /// let m = grow_sparse::CsrMatrix::from_raw(
    ///     2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
    /// let (cols, vals) = m.row_slices(1..2).next().unwrap();
    /// assert_eq!((cols, vals), (&[1u32][..], &[3.0][..]));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `rows.end > self.rows()` or `rows.start > rows.end`.
    pub fn row_slices(&self, rows: std::ops::Range<usize>) -> RowValueSlices<'_> {
        RowValueSlices {
            indptr: &self.pattern.indptr[rows.start..=rows.end],
            indices: &self.pattern.indices,
            values: &self.values,
        }
    }

    /// The concatenated value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The transposed matrix, still in CSR.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols() + 1];
        for &c in self.pattern.indices() {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols() {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.rows() {
            for (c, v) in self.row_entries(r) {
                let slot = next[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix {
            pattern: CsrPattern {
                rows: self.cols(),
                cols: self.rows(),
                indptr: counts,
                indices,
            },
            values,
        }
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows(), self.cols());
        for r in 0..self.rows() {
            for (c, v) in self.row_entries(r) {
                dense.set(r, c as usize, v);
            }
        }
        dense
    }

    /// Applies `f` to every value in place (e.g. scaling for normalization).
    pub fn map_values_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Returns the matrix with rows and columns permuted by `perm`, where
    /// `perm[old] = new` — entry `(r, c)` moves to `(perm[r], perm[c])`.
    ///
    /// This is the reordering GROW's graph-partitioning preprocessing applies
    /// to the adjacency matrix (Figure 13 of the paper: partitioning "only
    /// changes the way a particular node is assigned with its node ID").
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, `perm.len() != rows`, or `perm` is
    /// not a permutation.
    pub fn permute_symmetric(&self, perm: &[u32]) -> CsrMatrix {
        assert_eq!(
            self.rows(),
            self.cols(),
            "symmetric permutation needs a square matrix"
        );
        assert_eq!(
            perm.len(),
            self.rows(),
            "permutation length must equal matrix order"
        );
        let n = self.rows();
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(!seen[p as usize], "perm is not a permutation");
            seen[p as usize] = true;
        }
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for &old in inv.iter().take(n) {
            let old_r = old as usize;
            scratch.clear();
            scratch.extend(self.row_entries(old_r).map(|(c, v)| (perm[c as usize], v)));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            pattern: CsrPattern {
                rows: n,
                cols: n,
                indptr,
                indices,
            },
            values,
        }
    }
}

/// Borrowing iterator over `(column indices, values)` slice pairs of a
/// [`CsrMatrix`] (see [`CsrMatrix::row_slices`]).
#[derive(Debug, Clone)]
pub struct RowValueSlices<'a> {
    indptr: &'a [usize],
    indices: &'a [u32],
    values: &'a [f64],
}

impl<'a> Iterator for RowValueSlices<'a> {
    type Item = (&'a [u32], &'a [f64]);

    #[inline]
    fn next(&mut self) -> Option<(&'a [u32], &'a [f64])> {
        let (&start, rest) = self.indptr.split_first()?;
        let &end = rest.first()?;
        self.indptr = rest;
        Some((&self.indices[start..end], &self.values[start..end]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.indptr.len().saturating_sub(1);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowValueSlices<'_> {}

impl From<CsrMatrix> for CsrPattern {
    fn from(m: CsrMatrix) -> CsrPattern {
        m.into_pattern()
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{}, nnz = {}, density = {:.3e}",
            self.rows(),
            self.cols(),
            self.nnz(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 3]
        CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 2], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn from_raw_validates_indptr_length() {
        let err = CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)));
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        assert!(CsrPattern::from_raw(2, 2, vec![0, 2, 1], vec![0, 1]).is_err());
    }

    #[test]
    fn from_raw_validates_sorted_columns() {
        assert!(CsrPattern::from_raw(1, 3, vec![0, 2], vec![2, 0]).is_err());
        assert!(CsrPattern::from_raw(1, 3, vec![0, 2], vec![1, 1]).is_err());
    }

    #[test]
    fn from_raw_validates_column_bounds() {
        assert!(CsrPattern::from_raw(1, 2, vec![0, 1], vec![2]).is_err());
    }

    #[test]
    fn from_raw_validates_value_length() {
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn dense_pattern_has_full_density() {
        let p = CsrPattern::dense(3, 4);
        assert_eq!(p.nnz(), 12);
        assert_eq!(p.density(), 1.0);
        assert_eq!(p.row_indices(2), &[0, 1, 2, 3]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_moves_entries() {
        let t = sample().transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(
            t.row_entries(2).collect::<Vec<_>>(),
            vec![(0, 2.0), (1, 3.0)]
        );
    }

    #[test]
    fn to_dense_round_trips_through_from_dense() {
        let m = sample();
        let back = CsrMatrix::from_dense(&m.to_dense());
        assert_eq!(m, back);
    }

    #[test]
    fn permute_symmetric_identity_is_noop() {
        let mut coo = crate::CooMatrix::new(3, 3);
        coo.extend([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]);
        let m = coo.to_csr();
        let p = m.permute_symmetric(&[0, 1, 2]);
        assert_eq!(m, p);
    }

    #[test]
    fn permute_symmetric_relabels_nodes() {
        // Figure 13 of the paper: relabeling 1 -> 5, 2 -> 1, 5 -> 2 moves
        // adjacency entries without changing the graph.
        let mut coo = crate::CooMatrix::new(3, 3);
        coo.extend([(0, 1, 1.0), (1, 1, 2.0)]);
        let m = coo.to_csr();
        // swap nodes 0 and 2
        let p = m.permute_symmetric(&[2, 1, 0]);
        assert_eq!(p.to_dense().get(2, 1), 1.0);
        assert_eq!(p.to_dense().get(1, 1), 2.0);
    }

    #[test]
    fn row_slices_match_per_row_accessors() {
        let m = sample();
        let p = m.pattern();
        let slices: Vec<&[u32]> = p.row_slices(0..p.rows()).collect();
        assert_eq!(slices.len(), p.rows());
        for (r, slice) in slices.iter().enumerate() {
            assert_eq!(*slice, p.row_indices(r));
        }
        for (r, (cols, vals)) in m.row_slices(0..m.rows()).enumerate() {
            assert_eq!(cols, m.row_indices(r));
            assert_eq!(vals, m.row_values(r));
        }
    }

    #[test]
    fn row_slices_honor_sub_ranges() {
        let p = CsrPattern::dense(5, 3);
        let slices: Vec<&[u32]> = p.row_slices(2..4).collect();
        assert_eq!(slices, vec![&[0u32, 1, 2][..]; 2]);
        assert_eq!(p.row_slices(2..4).len(), 2, "exact size");
        assert_eq!(p.row_slices(3..3).count(), 0, "empty range");
        // Empty rows yield empty slices, not skipped entries.
        let e = CsrPattern::empty(3, 3);
        let empties: Vec<&[u32]> = e.row_slices(0..3).collect();
        assert_eq!(empties, vec![&[] as &[u32]; 3]);
    }

    #[test]
    #[should_panic]
    fn row_slices_bounds_checked() {
        let p = CsrPattern::dense(2, 2);
        let _ = p.row_slices(0..3);
    }

    #[test]
    fn row_nnz_counts_segments() {
        let m = sample();
        assert_eq!(m.pattern().row_nnz(0), 2);
        assert_eq!(m.pattern().row_nnz(1), 1);
    }

    #[test]
    fn map_values_scales() {
        let mut m = sample();
        m.map_values_in_place(|v| v * 2.0);
        assert_eq!(m.row_values(1), &[6.0]);
    }

    #[test]
    fn display_reports_nnz() {
        assert!(format!("{}", sample()).contains("nnz = 3"));
    }
}
