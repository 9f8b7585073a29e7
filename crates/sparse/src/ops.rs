//! Reference kernels: dense GEMM, row-wise (Gustavson) SpMM, and the two
//! GCN execution orders.
//!
//! These kernels are the functional ground truth against which the
//! cycle-level accelerator models are validated: every engine's
//! value-computation mode must reproduce [`spmm`] bit-for-bit up to
//! accumulation-order rounding.

use crate::{CsrMatrix, DenseMatrix, SparseError};

/// Dense GEMM: `C = A * B`.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// ```
/// use grow_sparse::{DenseMatrix, ops};
/// # fn main() -> Result<(), grow_sparse::SparseError> {
/// let a = DenseMatrix::from_row_major(1, 2, vec![1.0, 2.0])?;
/// let b = DenseMatrix::from_row_major(2, 1, vec![3.0, 4.0])?;
/// assert_eq!(ops::gemm(&a, &b)?.get(0, 0), 11.0);
/// # Ok(())
/// # }
/// ```
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix, SparseError> {
    if a.cols() != b.rows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "gemm",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        // i-k-j loop order: accumulate scalar * row, the same row-wise
        // (Gustavson) primitive the GROW MAC array executes.
        for (k, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let c_row = c.row_mut(i);
            for (j, &bkj) in b_row.iter().enumerate() {
                c_row[j] += aik * bkj;
            }
        }
    }
    Ok(c)
}

/// Sparse-dense GEMM via row-wise product (Gustavson's algorithm):
/// `C = A * B` where `A` is CSR and `B` dense.
///
/// This is exactly the dataflow of Figure 9(b) in the paper: for every
/// non-zero `a[i][k]`, the scalar multiplies row `k` of `B` and accumulates
/// into row `i` of `C`.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn spmm(a: &CsrMatrix, b: &DenseMatrix) -> Result<DenseMatrix, SparseError> {
    if a.cols() != b.rows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "spmm",
        });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, aik) in a.row_entries(i) {
            let b_row = b.row(k as usize);
            let c_row = c.row_mut(i);
            for (j, &bkj) in b_row.iter().enumerate() {
                c_row[j] += aik * bkj;
            }
        }
    }
    Ok(c)
}

/// The GCN layer computed in the `A * (X * W)` order (the order GROW,
/// AWB-GCN, and GCNAX all adopt; Section II-B of the paper).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] on incompatible operand shapes.
pub fn gcn_layer_a_xw(
    a: &CsrMatrix,
    x: &CsrMatrix,
    w: &DenseMatrix,
) -> Result<DenseMatrix, SparseError> {
    let xw = spmm(x, w)?;
    spmm(a, &xw)
}

/// The GCN layer computed in the `(A * X) * W` order (HyGCN's order).
///
/// Produces the same values as [`gcn_layer_a_xw`] but with a different (and
/// usually far larger) number of MAC operations — the effect quantified in
/// Figure 2 of the paper.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] on incompatible operand shapes.
pub fn gcn_layer_ax_w(
    a: &CsrMatrix,
    x: &CsrMatrix,
    w: &DenseMatrix,
) -> Result<DenseMatrix, SparseError> {
    let ax = spmm(a, &x.to_dense())?;
    gemm(&ax, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small_a() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.extend([(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0), (2, 0, 0.5)]);
        coo.to_csr()
    }

    fn small_b() -> DenseMatrix {
        DenseMatrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64)
    }

    #[test]
    fn gemm_matches_hand_computation() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_rejects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            gemm(&a, &b),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = small_a();
        let b = small_b();
        let sparse = spmm(&a, &b).unwrap();
        let dense = gemm(&a.to_dense(), &b).unwrap();
        assert!(sparse.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn spmm_rejects_shape_mismatch() {
        let a = small_a();
        let b = DenseMatrix::zeros(4, 2);
        assert!(spmm(&a, &b).is_err());
    }

    #[test]
    fn execution_orders_agree_numerically() {
        // Section II-B: (A x X) x W and A x (X x W) compute the same result;
        // only the MAC count differs.
        let a = small_a();
        let mut x_coo = CooMatrix::new(3, 4);
        x_coo.extend([(0, 0, 1.0), (1, 3, 2.0), (2, 1, -0.5), (2, 2, 3.0)]);
        let x = x_coo.to_csr();
        let w = DenseMatrix::from_fn(4, 2, |r, c| (r as f64) - (c as f64));
        let order_a = gcn_layer_a_xw(&a, &x, &w).unwrap();
        let order_b = gcn_layer_ax_w(&a, &x, &w).unwrap();
        assert!(order_a.approx_eq(&order_b, 1e-12));
    }

    #[test]
    fn spmm_with_identity_is_identity_map() {
        let a = small_a();
        let c = spmm(&a, &DenseMatrix::identity(3)).unwrap();
        assert!(c.approx_eq(&a.to_dense(), 0.0));
    }

    #[test]
    fn empty_operands_produce_zero_output() {
        let a = CsrMatrix::empty(2, 3);
        let b = DenseMatrix::zeros(3, 4);
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (2, 4));
    }
}
