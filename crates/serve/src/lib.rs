//! The serving layer: batch and always-on simulation over the engine
//! registry.
//!
//! Four pieces live here:
//!
//! * [`session::SimSession`] — one workload, its preprocessing memoized
//!   in one once-cell per partition strategy, and name-based engine
//!   dispatch (the single-workload front door);
//! * [`batch::BatchService`] — the serving state on top of it: jobs are
//!   pure data ([`batch::JobSpec`]: dataset spec + seed + engine name +
//!   partition strategy + `key=value` overrides), shared preparation is
//!   deduplicated through a keyed pool of session once-cells (optionally
//!   LRU-bounded), and completed reports are cached by job key.
//!   [`BatchService::run_batch`](batch::BatchService::run_batch) runs a
//!   whole job list and returns results in submission order with
//!   per-job timing and error status; a bad engine name or an invalid
//!   override fails that job, never the batch.
//! * [`store::ResultStore`] — the on-disk report cache (`results/store/`
//!   by convention): completed reports persist per canonical job key and
//!   round-trip bit-identically, so repeated queries are cache hits
//!   across process restarts; partition assignments persist beside them,
//!   so a restarted service prepares new keys without re-partitioning;
//!   corrupt entries are quarantined, never served.
//! * [`service::AsyncService`] — the one executor: a configurable pool
//!   of supervised worker threads ([`service::AsyncConfig::workers`])
//!   with priority classes and admission control. Submissions arrive at
//!   any time and get a [`service::Ticket`] back immediately, each
//!   result streamed on completion; `run_batch` is submit-all + wait on
//!   a fresh pool. A job picked up while another is queued or running
//!   runs its inner cluster fan-out serially, so each job gets one level
//!   of parallelism.
//!
//! The layer is *supervised*: every job — its workload's instantiation
//! and preparation included — runs under `catch_unwind` with a bounded,
//! deterministic retry budget ([`batch::MAX_ATTEMPTS`]), so a panicking
//! or fault-injected job (the `fault=` job override, which the
//! supervisor parses and arms, see [`grow_sim::fault`]) fails alone as a structured [`batch::JobError`] —
//! never the batch, never the worker. Tickets expose cooperative
//! cancellation and per-job deadlines; a worker death (the injected
//! `worker` fault site) surfaces to waiters as
//! [`service::WaitError::ServiceDead`] with a casualty list from
//! [`service::AsyncService::finish_report`], and
//! [`store::ResultStore::scrub`] audits the on-disk cache back to health.
//!
//! Because every engine's parallel cluster path is bit-identical to its
//! serial path, so is the whole service: a batch or a drain run under
//! `GROW_SERIAL=1` returns exactly the reports of a multi-threaded run,
//! at every worker count, and each equals a service-free run of its job.
//!
//! ```
//! use grow_core::PartitionStrategy;
//! use grow_model::DatasetKey;
//! use grow_serve::{BatchService, JobSpec};
//!
//! let spec = DatasetKey::Cora.spec().scaled_to(300);
//! let jobs = vec![
//!     JobSpec::new(spec, 42, "grow").with_strategy(PartitionStrategy::multilevel_default()),
//!     JobSpec::new(spec, 42, "gcnax"),
//!     JobSpec::new(spec, 42, "npu"), // fails alone, not the batch
//! ];
//! let mut service = BatchService::new();
//! let results = service.run_batch(&jobs);
//! assert!(results[0].outcome.is_ok() && results[1].outcome.is_ok());
//! assert!(results[2].outcome.is_err());
//! let (grow, gcnax) = (results[0].report().unwrap(), results[1].report().unwrap());
//! assert_eq!(grow.mac_ops(), gcnax.mac_ops(), "same work, different movement");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod service;
pub mod session;
pub mod store;

pub use batch::{
    grid_jobs, scheduler_grid_jobs, BatchService, JobError, JobKey, JobResult, JobSpec,
    ServiceStats, MAX_ATTEMPTS,
};
pub use service::{
    AsyncConfig, AsyncService, FinishReport, Priority, SubmitError, Ticket, WaitError,
};
pub use session::SimSession;
pub use store::{ResultStore, ScrubReport, StoreStats};
