//! Randomized-input tests for format conversions and kernel equivalence.
//!
//! (Formerly proptest-based; the offline build has no crates.io access, so
//! cases are drawn from the workspace's own seeded PRNG instead — same
//! properties, deterministic case set.)

use grow_sparse::{analysis, ops, CooMatrix, CsrMatrix, DenseMatrix, RowMajorSparse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random sparse matrix built from up to 40 uniformly placed triplets.
fn sparse_matrix(rng: &mut StdRng) -> CsrMatrix {
    let rows = rng.random_range(1usize..12);
    let cols = rng.random_range(1usize..12);
    let count = rng.random_range(0usize..40);
    let mut coo = CooMatrix::new(rows, cols);
    for _ in 0..count {
        let r = rng.random_range(0..rows);
        let c = rng.random_range(0..cols);
        let v = rng.random_range(-4.0f64..4.0);
        coo.push(r, c, v).expect("triplet within bounds");
    }
    coo.to_csr()
}

fn dense_matrix(rng: &mut StdRng, rows: usize) -> DenseMatrix {
    let cols = rng.random_range(1usize..10);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random_range(-4.0f64..4.0))
        .collect();
    DenseMatrix::from_row_major(rows, cols, data).expect("sized")
}

const CASES: usize = 48;

#[test]
fn csr_dense_round_trip_preserves_values() {
    let mut rng = StdRng::seed_from_u64(0x5a02);
    for case in 0..CASES {
        let m = sparse_matrix(&mut rng);
        // from_dense drops explicit zeros, so compare dense images instead
        // of the structures.
        let back = CsrMatrix::from_dense(&m.to_dense());
        assert!(back.to_dense().approx_eq(&m.to_dense(), 0.0), "case {case}");
        assert!(back.nnz() <= m.nnz(), "case {case}");
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = StdRng::seed_from_u64(0x5a03);
    for case in 0..CASES {
        let m = sparse_matrix(&mut rng);
        assert_eq!(m, m.transpose().transpose(), "case {case}");
    }
}

#[test]
fn transpose_preserves_nnz_and_flips_shape() {
    let mut rng = StdRng::seed_from_u64(0x5a04);
    for case in 0..CASES {
        let m = sparse_matrix(&mut rng);
        let t = m.transpose();
        assert_eq!(t.nnz(), m.nnz(), "case {case}");
        assert_eq!(t.shape(), (m.cols(), m.rows()), "case {case}");
    }
}

#[test]
fn spmm_agrees_with_dense_gemm() {
    let mut rng = StdRng::seed_from_u64(0x5a05);
    for case in 0..CASES {
        let a = sparse_matrix(&mut rng);
        let b = dense_matrix(&mut rng, a.cols());
        let sparse = ops::spmm(&a, &b).expect("shapes agree");
        let dense = ops::gemm(&a.to_dense(), &b).expect("shapes agree");
        assert!(sparse.approx_eq(&dense, 1e-9), "case {case}");
    }
}

#[test]
fn permute_symmetric_preserves_spectrum_sample() {
    let mut rng = StdRng::seed_from_u64(0x5a07);
    for case in 0..CASES {
        // Use a square submatrix; permuting rows+cols by the same
        // permutation preserves nnz and the multiset of values.
        let m = sparse_matrix(&mut rng);
        let n = m.rows().min(m.cols());
        let dense = m.to_dense();
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for c in 0..n {
                let v = dense.get(r, c);
                if v != 0.0 {
                    coo.push(r, c, v).expect("in bounds");
                }
            }
        }
        let sq = coo.to_csr();
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        let p = sq.permute_symmetric(&perm);
        assert_eq!(p.nnz(), sq.nnz(), "case {case}");
        let mut orig: Vec<u64> = sq.values().iter().map(|v| v.to_bits()).collect();
        let mut permuted: Vec<u64> = p.values().iter().map(|v| v.to_bits()).collect();
        orig.sort_unstable();
        permuted.sort_unstable();
        assert_eq!(orig, permuted, "case {case}");
    }
}

#[test]
fn tile_histogram_conserves_nnz_lower_bound() {
    let mut rng = StdRng::seed_from_u64(0x5a08);
    for case in 0..CASES {
        // Non-empty tiles can hold at most tile_rows*tile_cols nnz, so the
        // tile count must be >= nnz / tile_area and the histogram fractions
        // sum to 1.
        let m = sparse_matrix(&mut rng);
        let p = m.pattern();
        let view = RowMajorSparse::from(p);
        let h = analysis::tile_nnz_histogram(&view, 2, 2, &[1, 2]);
        let total: u64 = h.counts.iter().sum();
        assert_eq!(total, h.nonempty_tiles, "case {case}");
        if p.nnz() > 0 {
            assert!(
                h.nonempty_tiles as usize >= p.nnz().div_ceil(4),
                "case {case}"
            );
            assert!(h.nonempty_tiles as usize <= p.nnz(), "case {case}");
        } else {
            assert_eq!(h.nonempty_tiles, 0, "case {case}");
        }
    }
}

#[test]
fn mac_counts_a_xw_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x5a09);
    for case in 0..CASES {
        // nnz-based count for A*(X*W) must equal (nnz(A) + nnz(X)) * f_out.
        let m = sparse_matrix(&mut rng);
        let n = m.cols();
        let x = RowMajorSparse::Dense { rows: n, cols: 7 };
        let counts = analysis::gcn_mac_counts(m.pattern(), &x, 3);
        assert_eq!(
            counts.a_xw,
            ((n * 7) as u64 + m.nnz() as u64) * 3,
            "case {case}"
        );
    }
}
