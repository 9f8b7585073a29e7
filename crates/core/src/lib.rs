//! The GROW accelerator model and its baselines — the primary contribution
//! of the paper, plus every comparator its evaluation uses.
//!
//! * [`GrowEngine`] — GROW itself (Section V): a unified row-stationary
//!   SpDeGEMM engine with HDN caching, graph-partitioned cluster
//!   scheduling, and multi-row-stationary runahead execution;
//! * [`GcnaxEngine`] — the state-of-the-art baseline (Li et al., HPCA'21):
//!   outer-product dataflow over 2D tiles with CSC-compressed sparse
//!   operands (Section IV's characterization target);
//! * [`MatRaptorEngine`] / [`GammaEngine`] — the row-wise-product
//!   sparse-*sparse* accelerators compared in Section VII-H;
//! * [`prepare`] / [`PreparedWorkload`] — the software preprocessing stack
//!   (partitioning, relabeling, HDN list extraction), also callable as its
//!   two steps [`partition`] and [`prepare_with`];
//! * [`multi_pe`] / [`schedule`] / [`exec_model`] — the multi-PE scaling
//!   model of Figure 24, its pluggable cluster-to-PE schedulers
//!   (round-robin / LPT / work-stealing / contention-aware), and the
//!   execution-model layer that makes `pes=N` a real execution mode
//!   (`exec=post_hoc|e2e`);
//! * [`experiments`] — the evaluation helpers that are not engine jobs:
//!   the non-power-law study, the preprocessing-cost timer and the
//!   geometric mean (every engine experiment is a job list on the
//!   serving layer's batch service).
//!
//! # Example
//!
//! ```
//! use grow_core::{prepare, Accelerator, GrowEngine, PartitionStrategy};
//! use grow_model::DatasetKey;
//!
//! let workload = DatasetKey::Cora.spec().scaled_to(300).instantiate(7);
//! let prepared = prepare(&workload, PartitionStrategy::None, 4096);
//! let report = GrowEngine::default().run(&prepared);
//! assert!(report.total_cycles() > 0);
//! assert_eq!(report.layers.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gamma;
mod gcnax;
mod grow;
mod matraptor;
mod plan;
mod prepare;
mod report;
mod spsp;

pub mod exec_model;
pub mod experiments;
pub mod extensions;
pub mod multi_pe;
pub mod pipeline;
pub mod registry;
pub mod schedule;

pub use exec_model::{ExecModel, ExecModelKind};
pub use gamma::{GammaConfig, GammaEngine};
pub use gcnax::{GcnaxConfig, GcnaxEngine};
pub use grow::{GrowConfig, GrowEngine, ReplacementPolicy};
pub use matraptor::{MatRaptorConfig, MatRaptorEngine};
pub use plan::{PlanCache, PlanCacheScope};
pub use prepare::{partition, prepare, prepare_with, PartitionStrategy, PreparedWorkload};
pub use report::{
    ClusterProfile, LayerReport, MultiPeSummary, PhaseKind, PhasePeBusy, PhaseReport, RunReport,
};
pub use schedule::{MultiPeConfig, SchedulerKind};

/// The node-to-part assignment [`partition`] computes and [`prepare_with`]
/// derives a preparation from, re-exported so callers that persist
/// assignments need no direct dependency on the partitioner crate.
pub use grow_partition::Partitioning;

/// Common interface of all four accelerator models.
///
/// Engines are timing models: given a prepared workload they return cycle,
/// traffic, cache, and activity statistics. All engines execute the same
/// `A*(X*W)` dataflow and therefore the same number of MAC operations —
/// the paper's comparison is entirely about data movement.
///
/// `Send + Sync` is part of the contract: engines are plain configuration
/// holders with no interior mutability, and the serving layer fans boxed
/// engines across worker threads.
pub trait Accelerator: Send + Sync {
    /// Engine name as used in the paper's figures (e.g. `"GROW"`).
    fn name(&self) -> &'static str;

    /// Simulates 2-layer GCN inference and returns the full report.
    fn run(&self, workload: &PreparedWorkload) -> RunReport;

    /// Total on-chip SRAM capacity in KB (for leakage/energy accounting).
    fn sram_kb(&self) -> f64;
}
