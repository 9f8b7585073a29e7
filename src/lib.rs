//! # GROW — a row-stationary sparse-dense GEMM accelerator for GCNs
//!
//! A from-scratch Rust reproduction of **GROW** (Hwang et al., HPCA 2023,
//! arXiv:2203.00158): a graph convolutional network inference accelerator
//! built on Gustavson's (row-wise product) algorithm, together with the
//! complete evaluation stack of the paper — cycle-level simulators for
//! GROW and its three baselines (GCNAX, MatRaptor, GAMMA), a METIS-class
//! graph partitioner, synthetic Table I dataset surrogates, and
//! energy/area models.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sparse`] | `grow-sparse` | CSR/COO/dense formats, reference kernels, workload analyses |
//! | [`graph`] | `grow-graph` | graphs, power-law community generators, GCN normalization |
//! | [`partition`] | `grow-partition` | multilevel partitioning, HDN lists |
//! | [`sim`] | `grow-sim` | DRAM channel, MAC array, HDN/LRU caches, runahead tables |
//! | [`energy`] | `grow-energy` | Horowitz/CACTI-style energy model, Table IV area model, Table III's fixed PE sizes |
//! | [`model`] | `grow-model` | Table I dataset registry, feature synthesis, functional GCN |
//! | [`accel`] | `grow-core` | the four accelerator models, preprocessing, multi-PE scheduling + execution models (`exec=post_hoc\|e2e`), experiments |
//! | [`serve`] | `grow-serve` | `SimSession`, the batch simulation service, the async always-on front end, and the on-disk result store |
//!
//! plus [`session`], the single-workload entry point: a
//! [`SimSession`](session::SimSession) instantiates a workload once,
//! memoizes its prepared forms, and dispatches any registered engine by name
//! (`session.run("grow", ..)`) with optional key-value configuration
//! overrides. Engines simulate graph clusters in parallel across threads
//! (deterministically — set `GROW_SERIAL=1` to force the serial path),
//! and the shared `exec=post_hoc|e2e`, `pes=N`, `scheduler=rr|lpt|ws|ca`
//! overrides select how those cluster timelines compose: the default
//! single-PE accounting with a post-hoc multi-PE projection, or the
//! end-to-end multi-PE execution mode where N PEs contend for the shared
//! memory channel inside the run itself (`grow::accel::exec_model`).
//!
//! For fleets of runs, [`serve`] scales the same API to batches:
//! [`serve::JobSpec`]s are pure data (dataset + seed + engine + partition
//! strategy + `key=value` overrides), shared preparation is deduplicated
//! through a keyed session pool, completed reports are cached by job key,
//! and results return in submission order with per-job status — see
//! [`serve::BatchService`] and `examples/batch_serving.rs`. For always-on
//! deployments, [`serve::AsyncService`] accepts submissions at any time
//! behind priority classes and admission control, streams each result on
//! completion, and — with a [`serve::ResultStore`] attached — serves
//! repeated queries from disk across process restarts, bit-identically.
//!
//! # Quickstart
//!
//! ```
//! use grow::accel::{
//!     prepare, Accelerator, GcnaxEngine, GrowEngine, PartitionStrategy, HDN_ID_ENTRIES,
//! };
//! use grow::model::DatasetKey;
//!
//! // A small Cora-like workload.
//! let workload = DatasetKey::Cora.spec().scaled_to(500).instantiate(42);
//!
//! // GROW's software preprocessing: partition + relabel + HDN lists.
//! let base = prepare(&workload, PartitionStrategy::None, HDN_ID_ENTRIES);
//! let partitioned = prepare(
//!     &workload,
//!     PartitionStrategy::multilevel_default(),
//!     HDN_ID_ENTRIES,
//! );
//!
//! // Simulate both accelerators.
//! let grow = GrowEngine::default().run(&partitioned);
//! let gcnax = GcnaxEngine::default().run(&base);
//! assert_eq!(grow.mac_ops(), gcnax.mac_ops(), "same work, different movement");
//! assert!(grow.dram_bytes() < gcnax.dram_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;

pub use grow_core as accel;
pub use grow_energy as energy;
pub use grow_graph as graph;
pub use grow_model as model;
pub use grow_partition as partition;
pub use grow_serve as serve;
pub use grow_sim as sim;
pub use grow_sparse as sparse;
