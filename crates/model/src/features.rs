use grow_sparse::{CsrMatrix, CsrPattern, RowMajorSparse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A (possibly dense) feature-matrix sparsity pattern.
///
/// Table I's feature matrices span densities from 0.85% (Citeseer `X(0)`)
/// to 100% (Reddit/Yelp `X(0)`). GROW stores even dense feature matrices
/// in CSR (Table II), but *representing* a 100%-dense pattern explicitly
/// would waste hundreds of MB, so fully dense matrices use a synthetic
/// dense view instead.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureMatrix {
    /// A fully dense `rows x cols` matrix.
    Dense {
        /// Number of rows (graph nodes).
        rows: usize,
        /// Number of columns (features).
        cols: usize,
    },
    /// A genuinely sparse pattern.
    Sparse(CsrPattern),
}

impl FeatureMatrix {
    /// Synthesizes a feature pattern of the given density.
    ///
    /// Each row receives `round(density * cols)` non-zeros in expectation
    /// (per-row count drawn with a stochastic fractional part), at
    /// uniformly sampled column positions — matching how post-ReLU
    /// activation sparsity is unstructured. `density >= 0.995` produces
    /// the dense representation.
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    pub fn synthesize(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        if density >= 0.995 {
            return FeatureMatrix::Dense { rows, cols };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices: Vec<u32> =
            Vec::with_capacity(((rows * cols) as f64 * density) as usize + rows);
        indptr.push(0usize);
        let mut scratch: Vec<u32> = Vec::with_capacity(cols);
        // Dense-ish rows: victim marks (cleared after each row) and the
        // row's kept columns.
        let mut dropped = vec![false; cols];
        let mut kept: Vec<u32> = vec![0; cols];
        for _ in 0..rows {
            let expect = density * cols as f64;
            let mut nnz = expect.floor() as usize;
            if rng.random::<f64>() < expect.fract() {
                nnz += 1;
            }
            let nnz = nnz.min(cols);
            if nnz * 3 > cols {
                // Dense-ish row: sample the complement (columns to drop).
                scratch.clear();
                scratch.extend(0..cols as u32);
                // Partial Fisher-Yates: move `cols - nnz` victims to the
                // front; the kept columns are the rest.
                let victims = cols - nnz;
                for i in 0..victims {
                    let j = rng.random_range(i..cols);
                    scratch.swap(i, j);
                }
                // Emit the complement of the victims in ascending order,
                // without a branch per column: every column is written,
                // and the cursor only moves past the kept ones.
                for &c in &scratch[..victims] {
                    dropped[c as usize] = true;
                }
                let mut len = 0;
                for (c, &victim) in dropped.iter().enumerate() {
                    kept[len] = c as u32;
                    len += usize::from(!victim);
                }
                indices.extend_from_slice(&kept[..len]);
                for &c in &scratch[..victims] {
                    dropped[c as usize] = false;
                }
            } else {
                // Sparse row: rejection-sample distinct columns.
                scratch.clear();
                while scratch.len() < nnz {
                    let c = rng.random_range(0..cols as u32);
                    if !scratch.contains(&c) {
                        scratch.push(c);
                    }
                }
                scratch.sort_unstable();
                indices.extend_from_slice(&scratch);
            }
            indptr.push(indices.len());
        }
        let pattern = CsrPattern::from_raw(rows, cols, indptr, indices)
            .expect("synthesized pattern is structurally valid");
        FeatureMatrix::Sparse(pattern)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            FeatureMatrix::Dense { rows, .. } => *rows,
            FeatureMatrix::Sparse(p) => p.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            FeatureMatrix::Dense { cols, .. } => *cols,
            FeatureMatrix::Sparse(p) => p.cols(),
        }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        match self {
            FeatureMatrix::Dense { rows, cols } => rows * cols,
            FeatureMatrix::Sparse(p) => p.nnz(),
        }
    }

    /// Measured density.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Borrowed row-major view for the simulators.
    pub fn view(&self) -> RowMajorSparse<'_> {
        match self {
            FeatureMatrix::Dense { rows, cols } => RowMajorSparse::Dense {
                rows: *rows,
                cols: *cols,
            },
            FeatureMatrix::Sparse(p) => RowMajorSparse::Pattern(p),
        }
    }

    /// Materializes the pattern with random values in `(0, 1]` (functional
    /// testing on small workloads; avoid on the large surrogates).
    pub fn materialize(&self, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            FeatureMatrix::Dense { rows, cols } => {
                let pattern = CsrPattern::dense(*rows, *cols);
                let values = (0..pattern.nnz()).map(|_| rng.random::<f64>()).collect();
                pattern
                    .with_values(values)
                    .expect("value count matches nnz")
            }
            FeatureMatrix::Sparse(p) => {
                let values = (0..p.nnz()).map(|_| rng.random::<f64>()).collect();
                p.clone()
                    .with_values(values)
                    .expect("value count matches nnz")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original synthesis, kept as the oracle of the complement
    /// emission: dense-ish rows copy and sort the kept columns.
    fn synthesize_by_sorting(rows: usize, cols: usize, density: f64, seed: u64) -> FeatureMatrix {
        if density >= 0.995 {
            return FeatureMatrix::Dense { rows, cols };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indptr = vec![0usize];
        let mut indices: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::with_capacity(cols);
        for _ in 0..rows {
            let expect = density * cols as f64;
            let mut nnz = expect.floor() as usize;
            if rng.random::<f64>() < expect.fract() {
                nnz += 1;
            }
            let nnz = nnz.min(cols);
            if nnz * 3 > cols {
                scratch.clear();
                scratch.extend(0..cols as u32);
                for i in 0..(cols - nnz) {
                    let j = rng.random_range(i..cols);
                    scratch.swap(i, j);
                }
                let mut keep: Vec<u32> = scratch[(cols - nnz)..].to_vec();
                keep.sort_unstable();
                indices.extend(keep);
            } else {
                scratch.clear();
                while scratch.len() < nnz {
                    let c = rng.random_range(0..cols as u32);
                    if !scratch.contains(&c) {
                        scratch.push(c);
                    }
                }
                scratch.sort_unstable();
                indices.extend_from_slice(&scratch);
            }
            indptr.push(indices.len());
        }
        FeatureMatrix::Sparse(CsrPattern::from_raw(rows, cols, indptr, indices).unwrap())
    }

    #[test]
    fn complement_emission_matches_the_sorting_oracle() {
        for (rows, cols) in [(0, 5), (1, 1), (7, 2), (50, 3), (120, 64), (300, 500)] {
            for density in [0.0, 0.2, 0.34, 0.5, 0.776, 0.9, 0.99] {
                for seed in [0, 9, 0x1001] {
                    assert_eq!(
                        FeatureMatrix::synthesize(rows, cols, density, seed),
                        synthesize_by_sorting(rows, cols, density, seed),
                        "{rows}x{cols} at {density}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_threshold() {
        assert!(matches!(
            FeatureMatrix::synthesize(10, 10, 1.0, 0),
            FeatureMatrix::Dense { .. }
        ));
        assert!(matches!(
            FeatureMatrix::synthesize(10, 10, 0.5, 0),
            FeatureMatrix::Sparse(_)
        ));
    }

    #[test]
    fn density_tracks_target() {
        for &target in &[0.01, 0.1, 0.4, 0.772, 0.891] {
            let fm = FeatureMatrix::synthesize(400, 64, target, 7);
            let got = fm.density();
            assert!(
                (got - target).abs() < 0.05,
                "target {target}, measured {got}"
            );
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = FeatureMatrix::synthesize(50, 32, 0.3, 9);
        let b = FeatureMatrix::synthesize(50, 32, 0.3, 9);
        assert_eq!(a, b);
        let c = FeatureMatrix::synthesize(50, 32, 0.3, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn view_matches_backing_storage() {
        let fm = FeatureMatrix::synthesize(20, 16, 0.25, 3);
        assert_eq!(fm.view().nnz(), fm.nnz());
        let dense = FeatureMatrix::Dense { rows: 4, cols: 4 };
        assert_eq!(dense.view().row_nnz(0), 4);
    }

    #[test]
    fn materialize_produces_nonzero_values() {
        let fm = FeatureMatrix::synthesize(10, 8, 0.5, 1);
        let m = fm.materialize(2);
        assert_eq!(m.nnz(), fm.nnz());
        assert!(m.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn extreme_densities() {
        let empty = FeatureMatrix::synthesize(10, 10, 0.0, 0);
        assert_eq!(empty.nnz(), 0);
        let dense_ish = FeatureMatrix::synthesize(10, 10, 0.99, 0);
        assert!(dense_ish.density() > 0.9);
    }
}
