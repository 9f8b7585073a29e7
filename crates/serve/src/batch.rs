//! The batch simulation service: a queue of [`JobSpec`]s in, a vector of
//! [`JobResult`]s out — in submission order, with per-job timing and
//! error status.
//!
//! [`BatchService`] is the serving state, built for sweep-style serving
//! (many workloads × the engine fleet × partition strategies):
//!
//! * **Validation per job.** Every job's engine name and overrides are
//!   resolved through [`grow_core::registry`] before its workload is
//!   prepared; a bad job fails alone, the rest of the batch proceeds.
//! * **Deduplicated preparation.** Jobs sharing a workload recipe
//!   (dataset spec + seed + HDN list length) share one pooled
//!   [`SimSession`], instantiated once by the first job that needs it;
//!   each distinct (workload, partition strategy) pair is prepared
//!   exactly once, in the session's once-cell for that strategy, while
//!   the workload's other strategies prepare concurrently.
//! * **Keyed result cache.** Completed [`RunReport`]s are cached by
//!   [`JobKey`] (and persisted to an attached [`ResultStore`]);
//!   duplicate jobs — within a batch or across batches — are served from
//!   cache, exactly one computation per key.
//!
//! The service has no executor of its own. [`BatchService::run_batch`]
//! is submit-all + wait on a fresh [`AsyncService`] worker pool, so the
//! pool's worker loop is the one code path that stages, prepares,
//! computes and commits a job, and batch results are bit-identical
//! between `GROW_SERIAL=1` and any thread count for the same reasons an
//! async drain is (see the [`service`](crate::service) module docs).
//! Preparation runs inside the job's supervisor, so a workload that
//! panics while it is built or partitioned fails its own jobs, never
//! the worker.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use grow_core::registry::{self, RegistryError};
use grow_core::{
    Accelerator, ExecModelKind, PartitionStrategy, PlanCache, PreparedWorkload, RunReport,
    SchedulerKind,
};
use grow_model::DatasetSpec;
use grow_sim::exec::{self, ExecMode};
use grow_sim::fault::{self, CancelReason, FaultPlan, FaultSite, SimFault};

use crate::service::{AsyncConfig, AsyncService, Priority, WaitError};
use crate::session::{Preparation, SimSession, DEFAULT_HDN_ID_ENTRIES};
use crate::store::ResultStore;

/// One simulation job, as pure data: everything needed to reproduce a
/// single engine run. Sweep definitions are lists of these.
///
/// ```
/// use grow_core::PartitionStrategy;
/// use grow_model::DatasetKey;
/// use grow_serve::JobSpec;
///
/// let job = JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), 42, "grow")
///     .with_strategy(PartitionStrategy::multilevel_default())
///     .with_override("hdn_cache_kb", "256")
///     .with_override("runahead", "4");
/// assert_eq!(job.overrides, ["hdn_cache_kb=256", "runahead=4"]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Dataset recipe; the workload is instantiated deterministically from
    /// it and `seed`.
    pub dataset: DatasetSpec,
    /// Workload generation seed.
    pub seed: u64,
    /// Registry engine name (case-insensitive; see
    /// [`registry::ENGINE_NAMES`]).
    pub engine: String,
    /// Partitioning applied before simulation.
    pub strategy: PartitionStrategy,
    /// Textual `key=value` configuration overrides, applied through
    /// [`registry::engine_from_overrides`]. Malformed or unknown entries
    /// fail this job at validation time.
    pub overrides: Vec<String>,
    /// Per-cluster HDN ID list length used during preparation.
    pub hdn_id_entries: usize,
}

impl JobSpec {
    /// A default job: no partitioning, no overrides, Table III HDN list
    /// length.
    pub fn new(dataset: DatasetSpec, seed: u64, engine: &str) -> Self {
        JobSpec {
            dataset,
            seed,
            engine: engine.to_string(),
            strategy: PartitionStrategy::None,
            overrides: Vec::new(),
            hdn_id_entries: DEFAULT_HDN_ID_ENTRIES,
        }
    }

    /// Sets the partition strategy.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Appends one `key=value` override from its parts.
    pub fn with_override(mut self, key: &str, value: &str) -> Self {
        self.overrides.push(format!("{key}={value}"));
        self
    }

    /// Appends one raw override specification (validated as `key=value`
    /// when the job runs).
    pub fn with_override_spec(mut self, spec: &str) -> Self {
        self.overrides.push(spec.to_string());
        self
    }

    /// Selects the multi-PE cluster scheduler (the `scheduler=` override).
    pub fn with_scheduler(self, scheduler: SchedulerKind) -> Self {
        self.with_override("scheduler", scheduler.name())
    }

    /// Sets the multi-PE PE count (the `pes=` override).
    pub fn with_pes(self, pes: usize) -> Self {
        self.with_override("pes", &pes.to_string())
    }

    /// Selects the execution model (the `exec=` override): post-hoc
    /// multi-PE projection (the default) or end-to-end multi-PE
    /// composition, where `pes`/`scheduler` change the per-phase cycle
    /// counts themselves.
    pub fn with_exec_model(self, exec: ExecModelKind) -> Self {
        self.with_override("exec", exec.name())
    }

    /// Sets the banked-memory channel count (the `channels=` override):
    /// clusters are address-interleaved across channels by index, and
    /// memory-bound clusters co-resident on a channel pay a bank-conflict
    /// stall. `channels=1 banks=1` (the default) is the uniform fluid pipe
    /// and reproduces pre-banking reports bit-for-bit.
    pub fn with_channels(self, channels: usize) -> Self {
        self.with_override("channels", &channels.to_string())
    }

    /// Sets the per-channel bank count (the `banks=` override): more banks
    /// amortize the per-request conflict overhead of co-resident
    /// memory-bound clusters. See [`JobSpec::with_channels`].
    pub fn with_banks(self, banks: usize) -> Self {
        self.with_override("banks", &banks.to_string())
    }

    /// Sets the per-cluster HDN ID list length for preparation.
    pub fn with_hdn_id_entries(mut self, entries: usize) -> Self {
        self.hdn_id_entries = entries;
        self
    }

    /// Sets the deterministic fault-injection plan (the uniform `fault=`
    /// override; see [`grow_sim::fault::FaultPlan::parse`] for the
    /// `site:action[:nth[:attempts]]` grammar). A malformed spec fails the
    /// job at validation time like any other bad override. The plan
    /// participates in the job key — a faulted job never shares a cached
    /// report with its fault-free twin.
    pub fn with_fault(self, spec: &str) -> Self {
        self.with_override("fault", spec)
    }

    /// The job's canonical cache key: engine name normalized through the
    /// registry, overrides reduced to their *effective* configuration,
    /// workload recipe serialized. Two jobs with equal keys produce
    /// bit-identical reports.
    pub fn key(&self) -> JobKey {
        let engine = registry::canonical_name(&self.engine)
            .map(str::to_string)
            .unwrap_or_else(|_| self.engine.to_ascii_lowercase());
        // Overrides apply in order with last-wins semantics (matching
        // `engine_from_overrides`), so the key must too: reduce to one
        // value per key first, then sort for order independence.
        //
        // Malformed specs can never configure an engine, so they must not
        // participate in the `key=value` namespace: a raw `"runahead"`
        // folded into the same last-wins slot as a valid `runahead=4`
        // would hand a failing job the key of a runnable one — with a
        // persistent result store attached, that is a cache-poisoning
        // bug. They are kept in their own list, Debug-escaped with a `!`
        // prefix, which no runnable configuration's rendering can produce
        // (registry keys are plain identifiers).
        let mut effective: Vec<(String, String)> = Vec::new();
        let mut malformed: Vec<String> = Vec::new();
        for spec in &self.overrides {
            match registry::parse_override(spec) {
                Ok((key, value)) => match effective.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => slot.1 = value,
                    None => effective.push((key, value)),
                },
                Err(_) => malformed.push(format!("!{spec:?}")),
            }
        }
        effective.sort();
        malformed.sort();
        malformed.dedup();
        let mut overrides: Vec<String> = effective
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        overrides.extend(malformed);
        JobKey(format!(
            "{engine}|{:?}|[{}]|{}",
            self.strategy,
            overrides.join(","),
            self.session_key()
        ))
    }

    /// Key of the pooled session this job runs on: the workload recipe
    /// without the engine-side configuration.
    pub(crate) fn session_key(&self) -> String {
        format!(
            "{:?}|seed={}|hdn={}",
            self.dataset, self.seed, self.hdn_id_entries
        )
    }

    /// Key of the job's partition assignment in a [`ResultStore`]: the
    /// dataset recipe and seed (not the HDN list length, which
    /// partitioning never reads) plus the strategy's partitioner identity.
    /// `None` when no partitioner runs: no partitioning, or one part.
    pub(crate) fn partition_key(&self) -> Option<String> {
        if self.strategy.parts(self.dataset.nodes) < 2 {
            return None;
        }
        Some(format!(
            "{:?}|seed={}|{}",
            self.dataset,
            self.seed,
            self.strategy.partitioner_key()?
        ))
    }
}

/// Canonical identity of a job (see [`JobSpec::key`]): the report-cache
/// and deduplication key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobKey(String);

impl JobKey {
    /// The key's canonical string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Rebuilds a key from its canonical string form (store entries carry
    /// the key they were persisted under; the scrubber re-derives entry
    /// paths from it).
    pub(crate) fn from_raw(raw: String) -> JobKey {
        JobKey(raw)
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Outcome of one job in a batch, in submission order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job within the submitted batch.
    pub index: usize,
    /// The job's cache key.
    pub key: JobKey,
    /// Dataset name (paper figure labels).
    pub dataset: &'static str,
    /// Engine name as submitted.
    pub engine: String,
    /// The report, or the [`JobError`] that failed this job.
    pub outcome: Result<RunReport, JobError>,
    /// True when the report was served from the result cache (a duplicate
    /// of an earlier job, or computed by a previous batch).
    pub cache_hit: bool,
    /// Wall-clock time of this job's simulation in milliseconds; `None`
    /// when no simulation ran for this job (cache and store hits, failed
    /// jobs), so a sub-millisecond run is never mistaken for a hit.
    pub wall_ms: Option<f64>,
}

impl JobResult {
    /// The report, if the job succeeded.
    pub fn report(&self) -> Option<&RunReport> {
        self.outcome.as_ref().ok()
    }
}

/// Why a job failed. Validation failures surface the underlying
/// [`RegistryError`]; everything else is a supervised execution failure —
/// the job's panic or injected fault was caught, classified, and (when
/// transient) retried up to [`MAX_ATTEMPTS`] attempts before landing
/// here. A failed job never poisons the batch: every other job still runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job never ran: unknown engine, malformed or unknown override.
    Invalid(RegistryError),
    /// The simulation panicked (a genuine bug or an injected `panic`
    /// action) on every permitted attempt.
    Panicked {
        /// The final attempt's panic message.
        message: String,
        /// Attempts consumed (1 = no retry budget was available).
        attempts: u64,
    },
    /// A deterministic injected fault ([`SimFault::Injected`]) persisted
    /// through every permitted attempt.
    Injected {
        /// The injection site that tripped on the final attempt.
        site: FaultSite,
        /// Attempts consumed.
        attempts: u64,
    },
    /// The job was cancelled cooperatively (explicit request or deadline).
    /// Never retried: cancellation is a command, not a fault.
    Cancelled {
        /// What tripped the cancellation.
        reason: CancelReason,
    },
    /// The result store panicked while serving this job's key (injected
    /// `store_read:panic` or a real corruption bug). Permanent for the
    /// batch — recompute after a [`ResultStore::scrub`].
    StoreCorrupt {
        /// The captured panic message.
        message: String,
    },
}

impl JobError {
    /// True for failures worth retrying (panics and injected faults);
    /// false for permanent ones (validation, cancellation, store
    /// corruption).
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Panicked { .. } | JobError::Injected { .. })
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(e) => write!(f, "invalid job: {e}"),
            JobError::Panicked { message, attempts } => {
                write!(f, "job panicked after {attempts} attempt(s): {message}")
            }
            JobError::Injected { site, attempts } => {
                write!(
                    f,
                    "injected fault at site '{site}' after {attempts} attempt(s)"
                )
            }
            JobError::Cancelled { reason } => write!(f, "job cancelled: {reason}"),
            JobError::StoreCorrupt { message } => {
                write!(f, "result store corrupt for this key: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<RegistryError> for JobError {
    fn from(e: RegistryError) -> Self {
        JobError::Invalid(e)
    }
}

/// Deterministic retry budget of supervised job execution: total attempts
/// per job, including the first. A failed attempt whose error
/// [`is_transient`](JobError::is_transient) re-runs immediately (backoff
/// is counted in attempts, not wall-clock time, so serial and parallel
/// legs retry identically). Three attempts outlast any single-spec
/// injected fault with `attempts <= 2`.
pub const MAX_ATTEMPTS: u64 = 3;

/// Service counters, cumulative across batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted across all batches.
    pub jobs_submitted: u64,
    /// Jobs whose outcome was a [`JobError`].
    pub jobs_failed: u64,
    /// Jobs served from the result cache without a new simulation.
    pub cache_hits: u64,
    /// Engine simulations actually executed (one per distinct job key).
    pub simulations_run: u64,
    /// Workloads instantiated into pooled sessions.
    pub sessions_created: u64,
    /// (workload, strategy) preparations executed, whether their
    /// partition assignment was computed or loaded.
    pub preparations_run: u64,
    /// Preparations that took their partition assignment from the
    /// attached [`ResultStore`] instead of running the partitioner.
    pub partitions_loaded: u64,
    /// Distinct job keys served from the on-disk [`ResultStore`] instead
    /// of a fresh simulation (counted once per load; the per-job hits are
    /// in [`cache_hits`](Self::cache_hits)).
    pub store_hits: u64,
    /// Pooled sessions dropped by the LRU capacity bound.
    pub sessions_evicted: u64,
    /// Extra simulation attempts consumed by the retry policy (a job that
    /// succeeds on attempt 3 adds 2 here).
    pub retries: u64,
    /// Unwinds caught by the job supervisor: injected faults, injected
    /// panics, genuine bugs, and store panics. The service itself never
    /// unwinds past a job.
    pub panics_caught: u64,
    /// Jobs whose final outcome was [`JobError::Cancelled`].
    pub jobs_cancelled: u64,
    /// Aggregation plans served from the cross-job [`PlanCache`] instead
    /// of a fresh plan pass (see [`BatchService::plan_cache`]).
    pub plan_cache_hits: u64,
    /// Peak number of jobs a worker pool was running at once, as counted
    /// at each pickup: the high-water mark of the [`AsyncService`] pool,
    /// which [`BatchService::run_batch`] runs on too.
    pub jobs_in_flight_peak: u64,
}

/// The batch simulation service: session pool + result cache + store +
/// counters, run by the [`AsyncService`] worker pool. See the
/// [module docs](self).
///
/// Two optional attachments turn it into a long-lived server core (the
/// configuration [`AsyncService`] runs on):
///
/// * a [`ResultStore`] ([`with_store`](Self::with_store)) makes the
///   report cache survive process restarts;
/// * a session capacity
///   ([`with_session_capacity`](Self::with_session_capacity)) bounds the
///   otherwise unbounded session pool with least-recently-used eviction.
#[derive(Debug, Default)]
pub struct BatchService {
    /// One once-cell per workload recipe: the first job that needs the
    /// session instantiates it outside the service lock, and every job
    /// of the recipe shares it until LRU eviction drops the pool's
    /// handle.
    sessions: HashMap<String, Arc<OnceLock<SimSession>>>,
    /// LRU bookkeeping: tick of each pooled session's last job.
    session_last_use: HashMap<String, u64>,
    session_clock: u64,
    session_capacity: Option<usize>,
    reports: HashMap<JobKey, RunReport>,
    store: Option<ResultStore>,
    stats: ServiceStats,
    /// Cross-job aggregation-plan cache, scoped to the session pool:
    /// every pooled session stamps its prepared workloads with a scope
    /// into this cache, so jobs sharing a (workload, strategy, engine
    /// alignment) prefix skip the plan pass entirely.
    plan_cache: Arc<PlanCache>,
}

impl BatchService {
    /// An empty service (no pooled sessions, empty cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative service counters. `plan_cache_hits` reads live from the
    /// shared [`PlanCache`], so hits scored by in-flight jobs are visible
    /// the moment they land.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats;
        stats.plan_cache_hits = self.plan_cache.hits();
        stats
    }

    /// Number of pooled sessions (distinct workload recipes seen).
    pub fn pooled_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Number of cached reports (distinct job keys computed).
    pub fn cached_reports(&self) -> usize {
        self.reports.len()
    }

    /// The pooled [`SimSession`] a job's workload recipe maps to, if the
    /// service has instantiated it — callers can inspect the workload and
    /// its prepared forms (graph statistics, partition quality) without
    /// re-running the preprocessing.
    pub fn session_for(&self, job: &JobSpec) -> Option<&SimSession> {
        self.sessions.get(&job.session_key())?.get()
    }

    /// The pooled [`SimSession`] a job's workload recipe maps to,
    /// instantiated here on first use and shared with every later job of
    /// the recipe — how a caller reads a workload and its prepared forms
    /// without generating it a second time. Counts as a use for the LRU
    /// bound, which the next job enforces.
    pub fn session(&mut self, job: &JobSpec) -> &SimSession {
        let session_key = job.session_key();
        self.session_clock += 1;
        self.session_last_use
            .insert(session_key.clone(), self.session_clock);
        let mut created = false;
        let session = self
            .sessions
            .entry(session_key)
            .or_default()
            .get_or_init(|| {
                created = true;
                instantiate(job, &self.plan_cache)
            });
        self.stats.sessions_created += u64::from(created);
        session
    }

    /// Attaches a persistent on-disk result store: cache misses probe the
    /// store before simulating, and every newly computed report is
    /// persisted, so repeated queries are hits across process restarts.
    /// Failed jobs are never persisted — they have no report.
    pub fn with_store(mut self, store: ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches (or replaces) the persistent result store. See
    /// [`with_store`](Self::with_store).
    pub fn set_store(&mut self, store: ResultStore) {
        self.store = Some(store);
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Bounds the session pool to `capacity` workload recipes: after each
    /// job, least-recently-used sessions beyond the bound are dropped
    /// (and re-instantiated on demand if the workload returns). The
    /// default is unbounded — the historical behavior, fine for sweeps,
    /// wrong for an always-on service.
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.set_session_capacity(Some(capacity));
        self
    }

    /// Sets or removes the session-pool bound, evicting immediately if
    /// the pool is already over the new capacity.
    pub fn set_session_capacity(&mut self, capacity: Option<usize>) {
        self.session_capacity = capacity;
        self.evict_sessions();
    }

    /// The session-pool bound (`None` = unbounded).
    pub fn session_capacity(&self) -> Option<usize> {
        self.session_capacity
    }

    /// Replaces the cross-job plan cache with a fresh one bounded to
    /// `capacity` plan families (default:
    /// [`PlanCache::DEFAULT_CAPACITY`]). Call before the first batch —
    /// sessions stamp the cache handle into their prepared workloads, so
    /// the pool is cleared to keep every stamp pointing at the new cache.
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache = Arc::new(PlanCache::new(capacity));
        self.sessions.clear();
        self.session_last_use.clear();
        self
    }

    /// The shared cross-job aggregation-plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Drops the in-memory session pool, result cache, cross-job plan
    /// cache, and LRU bookkeeping. Deliberately does **not** reset the
    /// cumulative
    /// [`ServiceStats`] — the counters describe the service's lifetime,
    /// not its current caches (use [`reset_stats`](Self::reset_stats) for
    /// that) — and does not touch the attached on-disk store: after a
    /// clear, previously computed keys are recomputed, or re-served from
    /// the store if one is attached.
    pub fn clear(&mut self) {
        self.sessions.clear();
        self.session_last_use.clear();
        self.session_clock = 0;
        self.reports.clear();
        self.plan_cache.clear();
    }

    /// Zeroes the cumulative counters without touching the session pool,
    /// the result cache, or the store — the complement of
    /// [`clear`](Self::clear).
    pub fn reset_stats(&mut self) {
        self.stats = ServiceStats::default();
        self.plan_cache.reset_counters();
    }

    /// Runs a single job (a batch of one).
    pub fn run_one(&mut self, job: &JobSpec) -> JobResult {
        self.run_batch(std::slice::from_ref(job))
            .pop()
            .expect("one job in, one result out")
    }

    /// Runs a batch of jobs and returns one [`JobResult`] per job, in
    /// submission order ([`JobResult::index`] is the job's position in
    /// `jobs`). Invalid jobs (unknown engine, malformed or unknown
    /// overrides) fail individually; every other job still runs.
    ///
    /// The batch is submit-all + wait on a fresh [`AsyncService`] that
    /// owns this service for the duration of the call: one worker under
    /// [`ExecMode::Serial`], otherwise [`exec::worker_count`] of them,
    /// every submission carrying the calling thread's
    /// [`fault::with_cancel`] token. A job lost to a worker death (the
    /// `worker` fault site) fails as [`JobError::Panicked`] with the
    /// [`WaitError`] message; with several workers the site's `nth`
    /// picks the worker, so which jobs die depends on pickup.
    pub fn run_batch(&mut self, jobs: &[JobSpec]) -> Vec<JobResult> {
        let workers = match ExecMode::current() {
            ExecMode::Serial => 1,
            ExecMode::Parallel => exec::worker_count(jobs.len()),
        };
        let pool = AsyncService::start(
            std::mem::take(self),
            AsyncConfig {
                queue_capacity: jobs.len(),
                session_capacity: None,
                workers,
            },
        );
        let tickets = pool
            .submit_all(
                jobs.to_vec(),
                Priority::Normal,
                fault::current_cancel().unwrap_or_default(),
            )
            .expect("a fresh pool sized to the batch admits all of it");
        let lost = JobError::Panicked {
            message: WaitError::ServiceDead.to_string(),
            attempts: 1,
        };
        let mut lost_jobs = 0;
        let results = jobs
            .iter()
            .zip(tickets)
            .enumerate()
            .map(|(index, (job, ticket))| match ticket.wait() {
                Ok(result) => JobResult { index, ..result },
                Err(WaitError::ServiceDead) => {
                    lost_jobs += 1;
                    JobResult {
                        index,
                        key: job.key(),
                        dataset: job.dataset.key.name(),
                        engine: job.engine.clone(),
                        outcome: Err(lost.clone()),
                        cache_hit: false,
                        wall_ms: None,
                    }
                }
            })
            .collect();
        *self = pool.finish();
        self.count_unstaged_failures(&lost, lost_jobs);
        results
    }

    /// Stages one job — the worker pool's front half, run under the
    /// service lock: validation, the in-memory cache probe, and the
    /// supervised store probe (before any session is built, so a
    /// restarted service serves a warm fleet without instantiating
    /// workloads). A store *panic* fails the job as
    /// [`JobError::StoreCorrupt`], permanently: a corrupt store will not
    /// heal by re-reading it. Returns the job's resolved outcome or a
    /// [`ComputeTask`] holding the validated engine and the job's pooled
    /// session cell, which the caller prepares and runs *outside* the
    /// lock through [`compute_supervised`].
    pub(crate) fn stage(&mut self, job: &JobSpec, key: &JobKey) -> Staged {
        self.stats.jobs_submitted += 1;
        let engine = match build_engine(job) {
            Ok(engine) => engine,
            Err(e) => {
                self.stats.jobs_failed += 1;
                return Staged::Done {
                    outcome: Err(JobError::Invalid(e)),
                    cache_hit: false,
                };
            }
        };
        if let Some(report) = self.reports.get(key) {
            self.stats.cache_hits += 1;
            return Staged::Done {
                outcome: Ok(report.clone()),
                cache_hit: true,
            };
        }
        if let Some(mut store) = self.store.take() {
            let plan = job_fault_plan(job);
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                fault::with_plan(plan, || store.load(key))
            }));
            self.store = Some(store);
            match loaded {
                Ok(Some(report)) => {
                    self.reports.insert(key.clone(), report.clone());
                    self.stats.store_hits += 1;
                    self.stats.cache_hits += 1;
                    return Staged::Done {
                        outcome: Ok(report),
                        cache_hit: true,
                    };
                }
                Ok(None) => {}
                Err(payload) => {
                    self.stats.panics_caught += 1;
                    self.stats.jobs_failed += 1;
                    return Staged::Done {
                        outcome: Err(JobError::StoreCorrupt {
                            message: panic_message(payload.as_ref()),
                        }),
                        cache_hit: false,
                    };
                }
            }
        }
        Staged::NeedsCompute(ComputeTask {
            engine,
            session: Arc::clone(self.sessions.entry(job.session_key()).or_default()),
            plan_cache: Arc::clone(&self.plan_cache),
            partitions: job
                .partition_key()
                .and_then(|key| Some((self.store.as_ref()?.reopen(), key))),
        })
    }

    /// Commits one computed job — the worker pool's back half: counter
    /// merges (including the instantiation and preparation the job ran),
    /// the supervised store persist (a write failure, error or panic,
    /// costs persistence, never the job), and the report-cache insert.
    /// Failed jobs are never cached or persisted, so a later submission
    /// recomputes them. Returns the job's outcome and its wall
    /// time (`None` for failures, like [`JobResult::wall_ms`]).
    pub(crate) fn commit(
        &mut self,
        job: &JobSpec,
        key: &JobKey,
        run: ComputeOutcome,
    ) -> (Result<RunReport, JobError>, Option<f64>) {
        self.stats.simulations_run += 1;
        self.stats.retries += run.retries;
        self.stats.panics_caught += run.caught;
        self.stats.sessions_created += u64::from(run.created);
        self.stats.preparations_run += u64::from(run.preparation != Preparation::Memoized);
        self.stats.partitions_loaded += u64::from(run.preparation == Preparation::Loaded);
        match run.outcome {
            Ok(report) => {
                if let Some(store) = self.store.as_mut() {
                    let plan = job_fault_plan(job);
                    let persisted = catch_unwind(AssertUnwindSafe(|| {
                        fault::with_plan(plan, || store.persist(key, &report))
                    }));
                    match persisted {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => {
                            eprintln!("warning: result store write failed for {key}: {e}")
                        }
                        Err(payload) => {
                            self.stats.panics_caught += 1;
                            eprintln!(
                                "warning: result store write panicked for {key}: {}",
                                panic_message(payload.as_ref())
                            );
                        }
                    }
                }
                self.reports.insert(key.clone(), report.clone());
                (Ok(report), Some(run.wall_ms))
            }
            Err(e) => {
                self.stats.jobs_failed += 1;
                if matches!(e, JobError::Cancelled { .. }) {
                    self.stats.jobs_cancelled += 1;
                }
                (Err(e), None)
            }
        }
    }

    /// Marks the job's pooled session as just-used and enforces the LRU
    /// capacity bound. A session cell the job left empty (its
    /// instantiation panicked, or the job stopped before it) leaves the
    /// pool unless another job holds it.
    pub(crate) fn touch_session(&mut self, job: &JobSpec) {
        let session_key = job.session_key();
        if let Some(cell) = self.sessions.get(&session_key) {
            if cell.get().is_some() {
                self.session_clock += 1;
                self.session_last_use
                    .insert(session_key, self.session_clock);
            } else if Arc::strong_count(cell) == 1 {
                self.sessions.remove(&session_key);
            }
        }
        self.evict_sessions();
    }

    /// Counts `jobs` jobs that failed with `error` without being staged:
    /// queued twins handed a failed job's error by the worker pool, and
    /// batch jobs lost to a worker death.
    pub(crate) fn count_unstaged_failures(&mut self, error: &JobError, jobs: u64) {
        self.stats.jobs_submitted += jobs;
        self.stats.jobs_failed += jobs;
        if matches!(error, JobError::Cancelled { .. }) {
            self.stats.jobs_cancelled += jobs;
        }
    }

    /// Raises the jobs-in-flight high-water mark.
    pub(crate) fn note_in_flight(&mut self, in_flight: u64) {
        self.stats.jobs_in_flight_peak = self.stats.jobs_in_flight_peak.max(in_flight);
    }

    /// Drops least-recently-used sessions until the pool fits the
    /// capacity bound. Ties (sessions never touched by a job) break by
    /// key string so eviction is deterministic.
    fn evict_sessions(&mut self) {
        let Some(capacity) = self.session_capacity else {
            return;
        };
        while self.sessions.len() > capacity {
            let victim = self
                .sessions
                .keys()
                .map(|k| (self.session_last_use.get(k).copied().unwrap_or(0), k))
                .min()
                .map(|(_, k)| k.clone())
                .expect("pool is over capacity, so non-empty");
            self.sessions.remove(&victim);
            self.session_last_use.remove(&victim);
            self.stats.sessions_evicted += 1;
        }
    }
}

/// Outcome of [`BatchService::stage`]: the job is either resolved on the
/// spot (validation failure, cache or store hit, store corruption) or
/// validated and waiting on preparation + compute.
pub(crate) enum Staged {
    /// Resolved without a simulation.
    Done {
        outcome: Result<RunReport, JobError>,
        cache_hit: bool,
    },
    /// Needs a simulation: run [`compute_supervised`] outside the
    /// service lock, then [`BatchService::commit`] the result.
    NeedsCompute(ComputeTask),
}

/// A self-contained unit of supervised compute: the validated engine,
/// the job's pooled session cell (alive across session eviction via its
/// `Arc`) and what instantiating and preparing it needs. Never crosses
/// threads — the worker that staged it runs it.
pub(crate) struct ComputeTask {
    engine: Box<dyn Accelerator>,
    session: Arc<OnceLock<SimSession>>,
    plan_cache: Arc<PlanCache>,
    /// A handle on the attached store and the job's partition key, when
    /// the job partitions and a store is attached.
    partitions: Option<(ResultStore, String)>,
}

impl ComputeTask {
    /// The job's prepared workload: instantiates the pooled session if
    /// no job has yet, then prepares the job's strategy unless it is
    /// memoized. Sets `created` when this call instantiated the session
    /// and `preparation` when it prepared the strategy, each as soon as
    /// that step completes, so a later panic does not lose it.
    fn prepare(
        &self,
        job: &JobSpec,
        created: &mut bool,
        preparation: &mut Preparation,
    ) -> Arc<PreparedWorkload> {
        let session = self.session.get_or_init(|| {
            *created = true;
            instantiate(job, &self.plan_cache)
        });
        let stored = self.partitions.as_ref().map(|(s, k)| (s, k.as_str()));
        let (prepared, how) = session.prepare(job.strategy, stored);
        if how != Preparation::Memoized {
            *preparation = how;
        }
        prepared
    }
}

/// Instantiates the pooled session of `job`'s workload recipe, its
/// prepared forms stamped with a scope into the pool's plan cache.
fn instantiate(job: &JobSpec, plan_cache: &Arc<PlanCache>) -> SimSession {
    let mut session = SimSession::from_spec(job.dataset, job.seed);
    session.set_hdn_id_entries(job.hdn_id_entries);
    session.set_plan_cache(Arc::clone(plan_cache), job.session_key());
    session
}

/// What one supervised compute produced, for [`BatchService::commit`].
pub(crate) struct ComputeOutcome {
    outcome: Result<RunReport, JobError>,
    wall_ms: f64,
    retries: u64,
    caught: u64,
    /// True when this job instantiated its pooled session.
    created: bool,
    /// How this job came by its prepared form (`Memoized` when another
    /// job had prepared it).
    preparation: Preparation,
}

/// Prepares and runs one staged job under supervision: every attempt
/// runs under `catch_unwind` — a panic, injected or genuine, in the
/// workload's instantiation, its preparation or the simulation, is
/// classified into a [`JobError`] — with the attempt number published
/// through the fault context, so an injected fault with `attempts=N`
/// stops firing on attempt N+1 and the retried run is bit-identical to a
/// fault-free one. Transient failures retry up to [`MAX_ATTEMPTS`], and
/// a cancelled ticket stops consuming attempts at the loop head. The
/// wall time runs from the first engine start, so it never includes the
/// preparation. The caller picks the execution mode (inner-serial for a
/// job sharing the pool, the caller's own scope for a lone job) by
/// wrapping this call.
pub(crate) fn compute_supervised(job: &JobSpec, task: &ComputeTask) -> ComputeOutcome {
    let mut started: Option<Instant> = None;
    let mut created = false;
    let mut preparation = Preparation::Memoized;
    let mut retries = 0u64;
    let mut caught = 0u64;
    let mut attempt = 1u64;
    let outcome = loop {
        if let Some(reason) = fault::cancel_state() {
            break Err(JobError::Cancelled { reason });
        }
        let run = fault::with_attempt(attempt, || {
            catch_unwind(AssertUnwindSafe(|| {
                let prepared = task.prepare(job, &mut created, &mut preparation);
                started.get_or_insert_with(Instant::now);
                task.engine.run(&prepared)
            }))
        });
        match run {
            Ok(report) => break Ok(report),
            Err(payload) => {
                caught += 1;
                let err = classify_unwind(payload, attempt);
                if err.is_transient() && attempt < MAX_ATTEMPTS {
                    attempt += 1;
                    retries += 1;
                    continue;
                }
                break Err(err);
            }
        }
    };
    ComputeOutcome {
        outcome,
        wall_ms: started.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3),
        retries,
        caught,
        created,
        preparation,
    }
}

/// Builds the job's engine, validating the name and every override.
fn build_engine(job: &JobSpec) -> Result<Box<dyn Accelerator>, RegistryError> {
    let parsed = registry::parse_overrides(&job.overrides)?;
    let borrowed: Vec<(&str, &str)> = parsed
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    registry::engine_from_overrides(&job.engine, &borrowed)
}

/// The job's effective fault plan, parsed from its `fault=` override with
/// the registry's last-wins semantics. `OFF` for jobs without one — and
/// for unparseable ones, which never get this far (they fail validation).
pub(crate) fn job_fault_plan(job: &JobSpec) -> FaultPlan {
    let mut plan = FaultPlan::OFF;
    for spec in &job.overrides {
        if let Ok((key, value)) = registry::parse_override(spec) {
            if key == "fault" {
                if let Ok(parsed) = FaultPlan::parse(&value) {
                    plan = parsed;
                }
            }
        }
    }
    plan
}

/// Classifies a caught unwind payload into a [`JobError`]: injected
/// faults and cooperative cancellations travel as typed [`SimFault`]
/// payloads; anything else is a genuine panic whose message is preserved.
fn classify_unwind(payload: Box<dyn Any + Send>, attempts: u64) -> JobError {
    match payload.downcast::<SimFault>() {
        Ok(fault) => match *fault {
            SimFault::Injected { site, .. } => JobError::Injected { site, attempts },
            SimFault::Cancelled { reason } => JobError::Cancelled { reason },
        },
        Err(payload) => JobError::Panicked {
            message: panic_message(payload.as_ref()),
            attempts,
        },
    }
}

/// Best-effort human-readable form of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(fault) = payload.downcast_ref::<SimFault>() {
        fault.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The full dataset × engine × partition grid as a job list — the
/// serving-layer form of the paper's comparison sweeps.
pub fn grid_jobs(
    datasets: &[DatasetSpec],
    seed: u64,
    engines: &[&str],
    strategies: &[PartitionStrategy],
) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(datasets.len() * engines.len() * strategies.len());
    for &dataset in datasets {
        for &engine in engines {
            for &strategy in strategies {
                jobs.push(JobSpec::new(dataset, seed, engine).with_strategy(strategy));
            }
        }
    }
    jobs
}

/// The scheduler × PE-count grid for one engine on each dataset — the
/// serving-layer form of the extended Figure 24 sweep (the `figure24`
/// experiment dispatches exactly this job list).
pub fn scheduler_grid_jobs(
    datasets: &[DatasetSpec],
    seed: u64,
    engine: &str,
    strategy: PartitionStrategy,
    schedulers: &[SchedulerKind],
    pe_counts: &[usize],
) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(datasets.len() * schedulers.len() * pe_counts.len());
    for &dataset in datasets {
        for &pes in pe_counts {
            for &scheduler in schedulers {
                jobs.push(
                    JobSpec::new(dataset, seed, engine)
                        .with_strategy(strategy)
                        .with_scheduler(scheduler)
                        .with_pes(pes),
                );
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_model::DatasetKey;
    use std::collections::HashSet;

    fn spec() -> DatasetSpec {
        DatasetKey::Cora.spec().scaled_to(300)
    }

    #[test]
    fn job_key_is_canonical() {
        let a = JobSpec::new(spec(), 7, "GROW")
            .with_override("runahead", "4")
            .with_override("hdn_cache_kb", "256");
        let b = JobSpec::new(spec(), 7, "grow")
            .with_override("hdn_cache_kb", "256")
            .with_override("runahead", "4");
        assert_eq!(a.key(), b.key(), "case and override order are canonical");
        assert_ne!(a.key(), JobSpec::new(spec(), 8, "grow").key(), "seed");
        assert_ne!(
            a.key(),
            a.clone().with_hdn_id_entries(16).key(),
            "hdn entries"
        );
        assert_ne!(
            JobSpec::new(spec(), 7, "grow").key(),
            JobSpec::new(spec(), 7, "grow")
                .with_strategy(PartitionStrategy::multilevel_default())
                .key(),
            "strategy"
        );
    }

    #[test]
    fn partition_key_names_only_what_partitioning_reads() {
        let ml = PartitionStrategy::Multilevel { cluster_nodes: 100 };
        let job = JobSpec::new(spec(), 3, "grow").with_strategy(ml);
        let key = job.partition_key().expect("several parts");
        let same = JobSpec::new(spec(), 3, "gcnax")
            .with_strategy(ml)
            .with_override("runahead", "4")
            .with_hdn_id_entries(16);
        assert_eq!(
            same.partition_key(),
            Some(key.clone()),
            "engine side and HDN"
        );
        let other_seed = JobSpec::new(spec(), 4, "grow").with_strategy(ml);
        assert_ne!(other_seed.partition_key(), Some(key));
        assert_eq!(JobSpec::new(spec(), 3, "grow").partition_key(), None);
        let one_part =
            JobSpec::new(spec(), 3, "grow").with_strategy(PartitionStrategy::Multilevel {
                cluster_nodes: 1 << 20,
            });
        assert_eq!(one_part.partition_key(), None, "no partitioner runs");
    }

    #[test]
    fn repeated_override_keys_use_last_wins_in_the_key() {
        // engine_from_overrides applies overrides in order (last wins);
        // the cache key must reflect the *effective* configuration, not
        // the submission text.
        let fast = JobSpec::new(spec(), 7, "grow")
            .with_override("dram_gbps", "8")
            .with_override("dram_gbps", "256");
        let slow = JobSpec::new(spec(), 7, "grow")
            .with_override("dram_gbps", "256")
            .with_override("dram_gbps", "8");
        assert_ne!(fast.key(), slow.key(), "different effective configs");
        let canonical = JobSpec::new(spec(), 7, "grow").with_override("dram_gbps", "256");
        assert_eq!(fast.key(), canonical.key(), "same effective config");

        // And the service really computes both variants: the effective
        // 8 GB/s job must be slower than the effective 256 GB/s one.
        let mut service = BatchService::new();
        let results = service.run_batch(&[fast, slow]);
        assert_eq!(service.stats().simulations_run, 2);
        assert!(
            results[1].report().unwrap().total_cycles()
                > results[0].report().unwrap().total_cycles(),
            "the two orderings must not share a cached report"
        );
    }

    #[test]
    fn malformed_override_specs_never_share_a_runnable_key() {
        // Regression: the key used to fold a malformed spec into the
        // valid last-wins slot, so this failing job had the same key as
        // the clean `runahead=4` job — a cache-poisoning hazard once
        // reports persist across restarts.
        let clean = JobSpec::new(spec(), 7, "grow").with_override("runahead", "4");
        let poisoned = JobSpec::new(spec(), 7, "grow")
            .with_override_spec("runahead")
            .with_override("runahead", "4");
        assert_ne!(clean.key(), poisoned.key());
        // Regression: a malformed `x=` rendered as `x==`, identical to
        // the well-formed spec `x==` (key `x`, value `=`).
        assert_ne!(
            JobSpec::new(spec(), 7, "grow")
                .with_override_spec("x=")
                .key(),
            JobSpec::new(spec(), 7, "grow")
                .with_override_spec("x==")
                .key(),
        );
        // Distinct malformed texts keep distinct keys; identical ones
        // (identical failures) share one.
        let foo = JobSpec::new(spec(), 7, "grow").with_override_spec("foo");
        assert_ne!(
            foo.key(),
            JobSpec::new(spec(), 7, "grow")
                .with_override_spec("foo=")
                .key(),
        );
        assert_eq!(
            foo.key(),
            JobSpec::new(spec(), 7, "grow")
                .with_override_spec("foo")
                .key(),
        );

        // And behaviorally: the failing job must not hand the clean job
        // a cache hit (or vice versa).
        let mut service = BatchService::new();
        let results = service.run_batch(&[poisoned, clean]);
        assert!(results[0].outcome.is_err());
        assert!(results[1].outcome.is_ok());
        assert!(!results[1].cache_hit, "clean job really computed");
        assert_eq!(service.stats().simulations_run, 1);
    }

    #[test]
    fn clear_keeps_counters_and_reset_stats_zeroes_them() {
        let mut service = BatchService::new();
        let job = JobSpec::new(spec(), 3, "gcnax");
        let first = service.run_one(&job);
        assert!(first.wall_ms.is_some(), "fresh simulation is timed");
        assert_eq!(service.stats().simulations_run, 1);

        service.clear();
        assert_eq!(service.pooled_sessions(), 0);
        assert_eq!(service.cached_reports(), 0);
        assert_eq!(
            service.stats().simulations_run,
            1,
            "clear keeps the cumulative counters"
        );

        // Clear-then-rerun really recomputes — bit-identically.
        let again = service.run_one(&job);
        assert!(!again.cache_hit);
        assert!(again.wall_ms.is_some());
        assert_eq!(service.stats().simulations_run, 2);
        assert_eq!(again.report(), first.report());

        // A cache hit is distinguishable from a fast run by wall_ms.
        let hit = service.run_one(&job);
        assert!(hit.cache_hit);
        assert_eq!(hit.wall_ms, None);

        service.reset_stats();
        assert_eq!(service.stats(), ServiceStats::default());
        assert_eq!(
            service.cached_reports(),
            1,
            "reset_stats leaves the caches alone"
        );
    }

    #[test]
    fn session_pool_evicts_least_recently_used() {
        let mut service = BatchService::new().with_session_capacity(2);
        let a = JobSpec::new(spec(), 1, "gcnax");
        let b = JobSpec::new(spec(), 2, "gcnax");
        let c = JobSpec::new(spec(), 3, "gcnax");
        service.run_one(&a);
        service.run_one(&b);
        assert_eq!(service.pooled_sessions(), 2);
        // Touch a's workload again, then admit c: b is now the LRU victim.
        service.run_one(&a.clone().with_override("dram_gbps", "8"));
        service.run_one(&c);
        assert_eq!(service.pooled_sessions(), 2);
        assert!(service.session_for(&a).is_some(), "recently used survives");
        assert!(service.session_for(&b).is_none(), "LRU session evicted");
        assert!(service.session_for(&c).is_some());
        assert_eq!(service.stats().sessions_evicted, 1);
        // An evicted workload is simply re-instantiated on demand.
        service.run_one(&b.clone().with_override("dram_gbps", "8"));
        assert_eq!(service.stats().sessions_created, 4);
        assert_eq!(service.stats().sessions_evicted, 2);
    }

    #[test]
    fn session_instantiates_once_and_jobs_reuse_it() {
        let mut service = BatchService::new();
        let job = JobSpec::new(spec(), 5, "grow");
        let first: *const SimSession = service.session(&job);
        let again: *const SimSession = service.session(&job);
        assert!(std::ptr::eq(first, again));
        assert_eq!(service.stats().sessions_created, 1);
        assert_eq!(service.pooled_sessions(), 1);
        // A later job on the same recipe, with another engine and
        // strategy, runs on that session instead of instantiating one.
        let gcnax = JobSpec::new(spec(), 5, "gcnax")
            .with_strategy(PartitionStrategy::Multilevel { cluster_nodes: 100 });
        assert!(service.run_one(&gcnax).outcome.is_ok());
        assert_eq!(service.stats().sessions_created, 1, "session reused");
        assert_eq!(service.pooled_sessions(), 1);
        let session = service.session_for(&job).expect("still pooled");
        assert!(std::ptr::eq(first, session));
        assert_eq!(session.prepared_count(), 1, "the job prepared its strategy");
    }

    #[test]
    fn duplicate_jobs_compute_once() {
        let mut service = BatchService::new();
        let job = JobSpec::new(spec(), 3, "gcnax");
        let results = service.run_batch(&[job.clone(), job.clone(), job.clone()]);
        assert_eq!(service.stats().simulations_run, 1);
        assert_eq!(service.stats().cache_hits, 2);
        assert!(!results[0].cache_hit);
        assert!(results[1].cache_hit && results[2].cache_hit);
        assert_eq!(results[0].report(), results[1].report());
        // A later batch is served entirely from cache.
        let again = service.run_one(&job);
        assert!(again.cache_hit);
        assert_eq!(service.stats().simulations_run, 1);
        assert_eq!(again.report(), results[0].report());
    }

    #[test]
    fn sessions_pool_across_engines_and_batches() {
        let mut service = BatchService::new();
        let jobs: Vec<JobSpec> = ["grow", "gcnax", "matraptor", "gamma"]
            .iter()
            .map(|e| JobSpec::new(spec(), 5, e))
            .collect();
        service.run_batch(&jobs);
        assert_eq!(service.pooled_sessions(), 1, "one workload recipe");
        assert_eq!(service.stats().sessions_created, 1);
        assert_eq!(service.stats().preparations_run, 1, "one shared strategy");
        assert_eq!(service.stats().simulations_run, 4);
        // Another strategy on the same workload reuses the session.
        service.run_one(
            &JobSpec::new(spec(), 5, "grow")
                .with_strategy(PartitionStrategy::Multilevel { cluster_nodes: 100 }),
        );
        assert_eq!(service.stats().sessions_created, 1, "session reused");
        assert_eq!(service.stats().preparations_run, 2);
    }

    #[test]
    fn invalid_jobs_fail_alone() {
        let mut service = BatchService::new();
        let results = service.run_batch(&[
            JobSpec::new(spec(), 1, "grow"),
            JobSpec::new(spec(), 1, "npu"),
            JobSpec::new(spec(), 1, "grow").with_override_spec("runahead"),
            JobSpec::new(spec(), 1, "grow").with_override("runahead", "many"),
            JobSpec::new(spec(), 1, "gcnax").with_override("runahead", "4"),
            JobSpec::new(spec(), 1, "gamma"),
        ]);
        assert!(results[0].outcome.is_ok());
        assert_eq!(
            results[1].outcome,
            Err(JobError::Invalid(RegistryError::UnknownEngine(
                "npu".into()
            )))
        );
        assert_eq!(
            results[2].outcome,
            Err(JobError::Invalid(RegistryError::MalformedOverride {
                spec: "runahead".into()
            }))
        );
        assert_eq!(
            results[3].outcome,
            Err(JobError::Invalid(RegistryError::InvalidValue {
                key: "runahead".into(),
                value: "many".into()
            }))
        );
        assert_eq!(
            results[4].outcome,
            Err(JobError::Invalid(RegistryError::UnknownKey {
                engine: "gcnax",
                key: "runahead".into()
            }))
        );
        assert!(results[5].outcome.is_ok(), "later jobs unaffected");
        assert_eq!(service.stats().jobs_failed, 4);
        assert_eq!(service.stats().simulations_run, 2);
    }

    #[test]
    fn grid_covers_the_cross_product() {
        let specs = [spec(), DatasetKey::Citeseer.spec().scaled_to(300)];
        let strategies = [
            PartitionStrategy::None,
            PartitionStrategy::multilevel_default(),
        ];
        let jobs = grid_jobs(&specs, 9, &["grow", "gcnax"], &strategies);
        assert_eq!(jobs.len(), 8);
        let distinct: HashSet<JobKey> = jobs.iter().map(JobSpec::key).collect();
        assert_eq!(distinct.len(), 8, "all grid points are distinct keys");
    }

    #[test]
    fn scheduler_grid_covers_the_axis_and_only_changes_the_summary() {
        let jobs = scheduler_grid_jobs(
            &[spec()],
            7,
            "grow",
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            &SchedulerKind::ALL,
            &[1, 4],
        );
        assert_eq!(jobs.len(), 8, "4 schedulers x 2 PE counts");
        let distinct: HashSet<JobKey> = jobs.iter().map(JobSpec::key).collect();
        assert_eq!(distinct.len(), 8, "every grid point is a distinct key");

        let mut service = BatchService::new();
        let results = service.run_batch(&jobs);
        let reports: Vec<&RunReport> = results.iter().map(|r| r.report().unwrap()).collect();
        for (job, report) in jobs.iter().zip(&reports) {
            assert_eq!(
                report.layers, reports[0].layers,
                "scheduling must never change phase counters ({job:?})"
            );
            let summary = report.multi_pe.as_ref().expect("summary attached");
            assert!(job
                .overrides
                .contains(&format!("scheduler={}", summary.scheduler)));
            assert!(job.overrides.contains(&format!("pes={}", summary.pes)));
        }
    }

    #[test]
    fn exec_model_jobs_have_distinct_keys_and_reports() {
        let mut service = BatchService::new();
        let post_hoc = JobSpec::new(spec(), 7, "grow")
            .with_strategy(PartitionStrategy::Multilevel { cluster_nodes: 100 })
            .with_pes(4);
        let e2e = post_hoc.clone().with_exec_model(ExecModelKind::EndToEnd);
        assert_ne!(post_hoc.key(), e2e.key());
        let results = service.run_batch(&[post_hoc, e2e]);
        assert_eq!(service.stats().simulations_run, 2);
        let (ph, e2e) = (results[0].report().unwrap(), results[1].report().unwrap());
        assert_eq!(ph.exec, "post_hoc");
        assert_eq!(e2e.exec, "e2e");
        assert!(
            e2e.total_cycles() < ph.total_cycles(),
            "4 concurrent PEs finish the run faster than one"
        );
        assert!(e2e.multi_pe.is_some());
        assert!(e2e
            .layers
            .iter()
            .all(|l| l.combination.pe.is_some() && l.aggregation.pe.is_some()));
    }

    #[test]
    fn batch_matches_session_runs() {
        let mut service = BatchService::new();
        let strategy = PartitionStrategy::Multilevel { cluster_nodes: 100 };
        let result = service.run_one(
            &JobSpec::new(spec(), 11, "grow")
                .with_strategy(strategy)
                .with_override("runahead", "4"),
        );
        let session = SimSession::from_spec(spec(), 11);
        let direct = session
            .run_with("grow", &[("runahead", "4")], strategy)
            .unwrap();
        assert_eq!(result.outcome.unwrap(), direct);
    }

    #[test]
    fn injected_faults_retry_to_a_bit_identical_report() {
        let mut service = BatchService::new();
        let clean = JobSpec::new(spec(), 3, "grow");
        let baseline = service.run_one(&clean).outcome.unwrap();
        for fault_spec in [
            "dram:error:1:2",
            "dram:panic:1",
            "dram:error:2",
            "dram:panic:3:2",
        ] {
            let result = service.run_one(&clean.clone().with_fault(fault_spec));
            let report = result
                .outcome
                .unwrap_or_else(|e| panic!("{fault_spec}: {e}"));
            assert_eq!(report, baseline, "{fault_spec}");
            assert!(!result.cache_hit, "{fault_spec} really recomputed");
        }
        assert!(service.stats().retries > 0, "transient faults retried");
        assert!(service.stats().panics_caught > 0, "unwinds were caught");
        assert_eq!(service.stats().jobs_failed, 0, "every retry succeeded");
    }

    #[test]
    fn permanent_injected_faults_fail_cleanly_and_are_not_cached() {
        let mut service = BatchService::new();
        let job = JobSpec::new(spec(), 3, "gcnax").with_fault("dram:error:1:99");
        let first = service.run_one(&job);
        assert_eq!(
            first.outcome,
            Err(JobError::Injected {
                site: FaultSite::DramIssue,
                attempts: 3
            }),
            "retry budget exhausted on a fault outlasting it"
        );
        assert_eq!(first.wall_ms, None, "failed jobs report no timing");
        assert_eq!(service.stats().jobs_failed, 1);
        assert_eq!(service.stats().retries, 2);
        // The failure is not cached: a later batch really re-attempts.
        let again = service.run_one(&job);
        assert!(again.outcome.is_err());
        assert!(!again.cache_hit);
        assert_eq!(service.stats().simulations_run, 2);
    }

    #[test]
    fn duplicate_failing_jobs_share_the_error_without_extra_runs() {
        let mut service = BatchService::new();
        let job = JobSpec::new(spec(), 3, "gamma").with_fault("dram:panic:1:99");
        let results = service.run_batch(&[job.clone(), job.clone()]);
        assert_eq!(service.stats().simulations_run, 1, "one run per key");
        assert_eq!(results[0].outcome, results[1].outcome);
        assert!(
            matches!(results[0].outcome, Err(JobError::Panicked { .. })),
            "injected panics surface as Panicked, not Injected"
        );
        assert_eq!(service.stats().jobs_failed, 2, "both submissions failed");
    }

    #[test]
    fn malformed_fault_specs_fail_validation() {
        let mut service = BatchService::new();
        let result = service.run_one(&JobSpec::new(spec(), 3, "grow").with_fault("dram:boom"));
        assert_eq!(
            result.outcome,
            Err(JobError::Invalid(RegistryError::InvalidValue {
                key: "fault".into(),
                value: "dram:boom".into()
            }))
        );
        assert_eq!(service.stats().simulations_run, 0);
    }

    #[test]
    fn fault_override_participates_in_the_job_key() {
        let clean = JobSpec::new(spec(), 3, "grow");
        let faulted = clean.clone().with_fault("dram:error:1");
        assert_ne!(clean.key(), faulted.key());
        assert_eq!(job_fault_plan(&clean), FaultPlan::OFF);
        assert_eq!(
            job_fault_plan(&faulted),
            FaultPlan::parse("dram:error:1").unwrap()
        );
    }
}
