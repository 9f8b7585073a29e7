//! GCN workload model: the paper's Table I dataset registry (synthetic
//! surrogates), feature-matrix synthesis, layer specifications, and a
//! functional reference executor.
//!
//! A GCN layer computes `X' = sigma(A X W)` (Equation 1). The paper runs
//! two-layer GCNs over eight graph datasets whose shapes, densities, and
//! feature dimensions are listed in Table I. This crate reproduces those
//! workloads:
//!
//! * [`DatasetKey`] / [`DatasetSpec`] — the eight Table I rows, including
//!   feature dimensions and the per-layer input densities (`X(0)` measured
//!   per dataset, `X(1)` the post-ReLU density the paper reports);
//! * [`FeatureMatrix`] — synthesized feature sparsity patterns;
//! * [`GcnWorkload`] — a fully instantiated 2-layer inference workload
//!   (graph + per-layer LHS patterns + shapes) consumed by the accelerator
//!   models in `grow-core`;
//! * [`mod@reference`] — functional execution for correctness checks.
//!
//! # Example
//!
//! ```
//! use grow_model::DatasetKey;
//!
//! let spec = DatasetKey::Cora.spec();
//! assert_eq!(spec.feature_dims, [1433, 16, 7]);
//! let workload = spec.instantiate(42);
//! assert_eq!(workload.graph.nodes(), 2708);
//! assert_eq!(workload.layers.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod features;
mod workload;

pub mod reference;

pub use dataset::{DatasetKey, DatasetSpec};
pub use features::FeatureMatrix;
pub use workload::{GcnWorkload, LayerWorkload};
