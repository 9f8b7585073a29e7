//! Sparse and dense matrix substrate for the GROW reproduction.
//!
//! The GROW accelerator (HPCA 2023) and all of its baselines operate on
//! sparse-dense GEMM (`SpDeGEMM`) workloads where the left-hand side is a
//! compressed sparse matrix and the right-hand side is dense. Every engine
//! reads the left-hand side as a CSR pattern: GCNAX's CSC-compressed tiles
//! are modelled from it, so no CSC type exists. This crate provides:
//!
//! * storage formats: [`CooMatrix`], [`CsrMatrix`] / [`CsrPattern`], and
//!   row-major [`DenseMatrix`];
//! * lossless conversions between all formats;
//! * reference kernels in [`ops`] (row-wise/Gustavson SpMM, dense GEMM, and
//!   the two GCN execution orders `(A*X)*W` and `A*(X*W)`), used as ground
//!   truth by the cycle-level simulators;
//! * workload analyses in [`analysis`] that regenerate the paper's Figure 2
//!   (MAC counts per execution order) and Figure 5 (non-zeros per 2D tile).
//!
//! # Example
//!
//! ```
//! use grow_sparse::{CooMatrix, DenseMatrix, ops};
//!
//! # fn main() -> Result<(), grow_sparse::SparseError> {
//! let mut coo = CooMatrix::new(2, 3);
//! coo.push(0, 0, 1.0)?;
//! coo.push(1, 2, 2.0)?;
//! let a = coo.to_csr();
//! let b = DenseMatrix::identity(3);
//! let c = ops::spmm(&a, &b)?;
//! assert_eq!(c.get(1, 2), 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
mod dense;
mod error;
mod view;

pub mod analysis;
pub mod ops;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, CsrPattern, RowSlices, RowValueSlices};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use view::{RowMajorSparse, SparseRowIter};
