//! [`SimSession`] — the one-stop driver for simulating workloads on the
//! registered engines.
//!
//! The implementation lives in [`grow_serve::session`] (re-exported here
//! unchanged) so the batch service in [`crate::serve`] can build on it: a
//! session owns one instantiated GCN workload and memoizes its prepared
//! (partitioned/relabeled) forms; engines are dispatched by name through
//! the [`grow_core::registry`](crate::accel::registry).
//!
//! ```
//! use grow::session::SimSession;
//! use grow::accel::PartitionStrategy;
//! use grow::model::DatasetKey;
//!
//! let session = SimSession::from_spec(DatasetKey::Cora.spec().scaled_to(400), 42).unwrap();
//! let grow = session.run("grow", PartitionStrategy::multilevel_default()).unwrap();
//! let gcnax = session.run("gcnax", PartitionStrategy::None).unwrap();
//! assert_eq!(grow.mac_ops(), gcnax.mac_ops(), "same work, different movement");
//! ```

pub use grow_serve::session::*;
