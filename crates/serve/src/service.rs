//! [`AsyncService`] — the serving layer's one executor, and its
//! always-on front end.
//!
//! Submissions arrive at any time, each gets a [`Ticket`] back
//! immediately, and each [`JobResult`] is delivered the moment its job
//! completes. [`BatchService::run_batch`] is the same executor used
//! synchronously: it moves the service into a fresh pool, submits the
//! whole batch, and waits for every ticket. Everything is plain `std`
//! (threads + `mpsc` + `Condvar`; the workspace builds without crates.io,
//! so there is no tokio), running the [`BatchService`] state:
//!
//! * **Priority classes + admission control.** Submissions enter one of
//!   three FIFO queues ([`Priority::High`]/[`Priority::Normal`]/
//!   [`Priority::Low`]); workers always drain the highest non-empty
//!   class. The pending set is bounded by
//!   [`AsyncConfig::queue_capacity`]; a submission over the bound is
//!   rejected immediately with [`SubmitError::QueueFull`] — back-pressure
//!   by refusal, never by blocking the submitter.
//! * **A supervised worker pool.** [`AsyncConfig::workers`] threads
//!   drain the queues concurrently. Each job is staged (validation,
//!   cache and store probes) under the service lock, prepared and
//!   simulated outside it under one supervisor, then committed, so
//!   distinct jobs overlap end to end. Jobs sharing a cache key never
//!   run at once: a queued twin of a running key waits, and becomes a
//!   cache hit when the run commits, or takes its [`JobError`] when it
//!   fails (a cancellation only to twins sharing its token). So a pool
//!   never duplicates work a single worker would have deduplicated.
//! * **Once-cells.** A workload's pooled session and each of its
//!   (workload, strategy) preparations live in once-cells, so each is
//!   built exactly once however many workers ask: a worker needing a
//!   form another is building waits for it, while the workload's other
//!   strategies prepare at the same time. A form keeps its engines'
//!   aggregation plans, so the first job of an engine family plans it
//!   and the family's later jobs on any worker replay those plans.
//!   Workers prefer a job whose workload no running job shares, so a
//!   sweep's workloads prepare in parallel.
//! * **One parallelism level per job.** A job picked up while another
//!   job is queued or running has its inner cluster fan-out forced
//!   serial, since the jobs themselves then occupy the cores; a lone job
//!   runs unchanged in the caller's scope and keeps the machine to
//!   itself.
//! * **Worker death degrades the pool.** One killed worker (the injected
//!   `worker` fault site, whose `nth` selects which pool worker dies)
//!   records its casualty and the pool degrades to N−1; the service only
//!   dies with its last worker.
//! * **Bounded session pool.** [`AsyncConfig::session_capacity`] forwards
//!   to [`BatchService::with_session_capacity`]'s LRU bound, so an
//!   always-on process does not accumulate one pooled workload per
//!   distinct recipe it ever saw.
//! * **Persistent results.** Attach a
//!   [`ResultStore`](crate::ResultStore) to the inner `BatchService` and
//!   repeated queries are served across process restarts without running
//!   a simulation, while new keys on a stored workload prepare from its
//!   persisted partition assignment without running the partitioner.
//!
//! **Bit-identity contract.** Every engine is bit-identical between its
//! serial and parallel paths, and the contention rule only narrows
//! execution (it widens nothing past an enclosing override), so each
//! job's report is independent of which worker ran it, what else was in
//! flight, and whether it ran inner-serial — at any worker count, under both
//! `GROW_SERIAL=1` and any thread count, and equal to a service-free run
//! of the same job. Worker threads replay the spawning thread's
//! `with_mode`/`with_workers` overrides via [`ExecContext`], so scoped
//! test overrides apply to pooled runs too. Only completion *order* is
//! schedule-dependent; every per-ticket result is deterministic.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grow_sim::exec::{with_mode, ExecContext, ExecMode};
use grow_sim::fault::{self, CancelToken, FaultSite};

use crate::batch::{
    compute_supervised, job_fault_plan, BatchService, JobError, JobKey, JobResult, JobSpec,
    ServiceStats, Staged,
};

/// Scheduling class of a submission: workers always serve the highest
/// non-empty class, FIFO within a class — except that a pool worker
/// skips a job whose key is computing and prefers one whose workload no
/// running job shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Served before everything else (interactive queries).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when nothing else waits (background sweeps).
    Low,
}

impl Priority {
    /// Queue slot of this class (0 = served first).
    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Configuration of an [`AsyncService`].
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Maximum number of admitted-but-uncompleted jobs (queued plus in
    /// flight); a submission over the bound is rejected with
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// LRU bound for the inner session pool (`None` keeps whatever the
    /// wrapped [`BatchService`] was configured with).
    pub session_capacity: Option<usize>,
    /// Supervised worker threads draining the queues concurrently
    /// (clamped to >= 1; the default is 1, the historical single-worker
    /// drain). Reports are bit-identical at every worker count — the
    /// count only changes wall time and completion order.
    pub workers: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            queue_capacity: 1024,
            session_capacity: None,
            workers: 1,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending set is at capacity; resubmit after draining tickets.
    QueueFull {
        /// The configured [`AsyncConfig::queue_capacity`].
        capacity: usize,
        /// Admitted-but-uncompleted jobs at rejection time.
        pending: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// Every pool worker died (injected worker kills or supervision
    /// escapes); no new work can run. Call
    /// [`finish_report`](AsyncService::finish_report) for the casualty
    /// list. While at least one worker survives, the service keeps
    /// accepting work on the degraded pool.
    ServiceDead,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, pending } => write!(
                f,
                "pending queue full ({pending} of {capacity} slots in use)"
            ),
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
            SubmitError::ServiceDead => f.write_str("service worker died"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`Ticket`] will never deliver a result: the worker processing
/// the job died (or the service was dropped) with the job still
/// outstanding. Surfaced as an error — never a panic or a hang — so
/// submitters always observe a worker death as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The result channel disconnected with no result delivered.
    ServiceDead,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::ServiceDead => {
                f.write_str("service died before delivering this job's result")
            }
        }
    }
}

impl std::error::Error for WaitError {}

/// Shutdown summary returned by [`AsyncService::finish_report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinishReport {
    /// True when at least one pool worker exited by panic rather than by
    /// draining its queues.
    pub worker_panicked: bool,
    /// Submission ids whose results were never delivered because their
    /// worker died: each dead worker's in-flight job, plus — only once
    /// the *last* worker dies — everything still queued.
    pub casualties: Vec<u64>,
}

/// A claim on one submitted job's eventual [`JobResult`], returned
/// immediately by [`AsyncService::submit`]. The result is delivered the
/// moment the job completes, independent of every other submission.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<JobResult>,
    cancel: Arc<CancelToken>,
}

impl Ticket {
    /// The submission id (also stamped into the delivered
    /// [`JobResult::index`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation of this job. The engine checks
    /// the token at cluster and layer boundaries; a job caught in flight
    /// completes as [`JobError::Cancelled`]. A job that already completed
    /// (or is served from cache) still delivers its report — cancellation
    /// never corrupts a finished result, it only stops future work.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job completes and returns its result.
    ///
    /// # Errors
    ///
    /// [`WaitError::ServiceDead`] when the processing worker died (or
    /// the service was dropped) before delivering this job's result —
    /// never a panic, never a hang.
    pub fn wait(self) -> Result<JobResult, WaitError> {
        self.rx.recv().map_err(|_| WaitError::ServiceDead)
    }

    /// Returns the result if the job has already completed, without
    /// blocking. At most one result is ever delivered per ticket: after
    /// this returns `Ok(Some(..))`, [`wait`](Self::wait) would error.
    ///
    /// # Errors
    ///
    /// [`WaitError::ServiceDead`] when the channel disconnected with no
    /// result delivered.
    pub fn try_wait(&self) -> Result<Option<JobResult>, WaitError> {
        match self.rx.try_recv() {
            Ok(result) => Ok(Some(result)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WaitError::ServiceDead),
        }
    }
}

/// One admitted submission parked in the priority queues.
struct Submission {
    id: u64,
    job: JobSpec,
    /// The job's canonical cache key, computed once at admission — the
    /// worker pool's same-key exclusion set and the delivered
    /// [`JobResult::key`] both use it.
    key: JobKey,
    /// The job's workload recipe (its session key), also computed once:
    /// the running set records it, so workers can spread over workloads.
    session: String,
    tx: Sender<JobResult>,
    cancel: Arc<CancelToken>,
}

/// The queues and lifecycle flags shared between submitters and the
/// worker pool.
struct QueueState {
    /// One FIFO per [`Priority`], indexed by [`Priority::index`].
    queues: [VecDeque<Submission>; 3],
    /// Admitted-but-uncompleted jobs (queued plus in flight).
    pending: usize,
    /// Set by [`AsyncService::finish`]: stop after draining the queues.
    stopping: bool,
    /// Set by `Drop`: stop now, discarding queued submissions.
    abort: bool,
    /// Workers still serving. Decremented only by a worker's death
    /// guard; the service is dead when it reaches zero.
    workers_alive: usize,
    /// Submission ids orphaned by worker deaths (each dead worker's
    /// in-flight job; plus the whole queue once the last worker dies).
    casualties: Vec<u64>,
    /// Cache keys being computed right now, each mapped to its job's
    /// session key. A queued duplicate of a running key is not runnable —
    /// it waits and becomes a cache hit when the computation commits,
    /// preserving exactly-one-computation-per-key at any worker count.
    running: HashMap<JobKey, String>,
}

impl QueueState {
    /// Pops the oldest submission of the highest non-empty class.
    fn pop(&mut self) -> Option<Submission> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Pops the oldest *runnable* submission of the highest non-empty
    /// class: priority order, skipping submissions whose cache key is
    /// computing on another worker right now. Within a class it prefers a
    /// job whose workload no running job shares, since a shared one may
    /// leave this worker waiting on another's preparation: workers spread
    /// over a sweep's workloads instead of queueing behind one.
    fn pop_runnable(&mut self) -> Option<Submission> {
        let running = &self.running;
        let runnable = |s: &Submission| !running.contains_key(&s.key);
        let unshared = |s: &Submission| !running.values().any(|session| *session == s.session);
        for queue in self.queues.iter_mut() {
            let at = queue
                .iter()
                .position(|s| runnable(s) && unshared(s))
                .or_else(|| queue.iter().position(runnable));
            if let Some(at) = at {
                return queue.remove(at);
            }
        }
        None
    }

    /// Removes every queued submission that `twin` selects.
    fn take_queued(&mut self, twin: impl Fn(&Submission) -> bool) -> Vec<Submission> {
        let mut taken = Vec::new();
        for queue in self.queues.iter_mut() {
            let (twins, rest): (VecDeque<Submission>, _) =
                std::mem::take(queue).into_iter().partition(&twin);
            taken.extend(twins);
            *queue = rest;
        }
        taken
    }

    /// Submissions still parked in the queues.
    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when a job just picked up (already counted in `running`)
    /// shares the pool with another queued or running job.
    fn contended(&self) -> bool {
        self.queued() + self.running.len() > 1
    }
}

/// Runs `f`, a picked-up job's preparation or simulation, under the
/// one-level parallelism rule: a `contended` job's inner cluster fan-out
/// is forced serial, because the pool's jobs already occupy the cores; a
/// lone job runs `f` unchanged in the caller's replayed scope. Either
/// way no enclosing serial override is widened, and since every engine is
/// bit-identical between its serial and parallel paths, the rule changes
/// only wall time, never a report.
fn job_scope<R>(contended: bool, f: impl FnOnce() -> R) -> R {
    if contended {
        with_mode(ExecMode::Serial, f)
    } else {
        f()
    }
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Shared {
    /// Locks the queue state, recovering from poison: a worker that died
    /// mid-update leaves consistent-enough state (counters are fixed up
    /// by the death guard), and submitters must keep observing the death
    /// as data ([`SubmitError::ServiceDead`]), never as a propagated
    /// panic.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The always-on asynchronous serving front end. See the
/// [module docs](self) for the design and the bit-identity contract.
///
/// ```
/// use grow_model::DatasetKey;
/// use grow_serve::{AsyncConfig, AsyncService, BatchService, JobSpec};
///
/// let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
/// let spec = DatasetKey::Cora.spec().scaled_to(300);
/// let ticket = service.submit(JobSpec::new(spec, 42, "grow")).unwrap();
/// let result = ticket.wait().expect("worker alive");
/// assert!(result.report().is_some());
/// let batch = service.finish(); // drain + recover the inner BatchService
/// assert_eq!(batch.stats().simulations_run, 1);
/// ```
pub struct AsyncService {
    shared: Arc<Shared>,
    service: Option<Arc<Mutex<BatchService>>>,
    completions: Arc<Mutex<Vec<u64>>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl fmt::Debug for AsyncService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncService")
            .field("capacity", &self.capacity)
            .field("workers", &self.workers.len())
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

impl AsyncService {
    /// Spawns the worker pool and starts accepting submissions. The
    /// wrapped `service` brings its caches, counters, and any attached
    /// [`ResultStore`](crate::ResultStore) with it.
    pub fn start(mut service: BatchService, config: AsyncConfig) -> Self {
        if config.session_capacity.is_some() {
            service.set_session_capacity(config.session_capacity);
        }
        let worker_total = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                pending: 0,
                stopping: false,
                abort: false,
                workers_alive: worker_total,
                casualties: Vec::new(),
                running: HashMap::new(),
            }),
            cv: Condvar::new(),
        });
        let service = Arc::new(Mutex::new(service));
        let completions = Arc::new(Mutex::new(Vec::new()));
        // Every worker replays this thread's execution overrides, so a
        // `with_mode(ExecMode::Serial, ..)` scope around the service
        // applies to pooled runs exactly as it would on this thread.
        let ctx = ExecContext::capture();
        let workers = (1..=worker_total)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let service = Arc::clone(&service);
                let completions = Arc::clone(&completions);
                std::thread::Builder::new()
                    .name(format!("grow-serve-worker-{index}"))
                    .spawn(move || {
                        ctx.scope(|| worker_loop(index, &shared, &service, &completions))
                    })
                    .expect("spawn serving worker")
            })
            .collect();
        AsyncService {
            shared,
            service: Some(service),
            completions,
            workers,
            next_id: AtomicU64::new(0),
            capacity: config.queue_capacity.max(1),
        }
    }

    /// Submits one job at [`Priority::Normal`]; returns its [`Ticket`]
    /// immediately (never blocks on compute).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] over the admission bound,
    /// [`SubmitError::ShuttingDown`] after [`finish`](Self::finish) began.
    pub fn submit(&self, job: JobSpec) -> Result<Ticket, SubmitError> {
        self.submit_with(job, Priority::Normal)
    }

    /// [`submit`](Self::submit) with an explicit [`Priority`] class.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_with(&self, job: JobSpec, priority: Priority) -> Result<Ticket, SubmitError> {
        let cancel = Arc::new(CancelToken::new());
        self.submit_all(vec![job], priority, cancel)
            .map(|mut t| t.remove(0))
    }

    /// [`submit_with`](Self::submit_with) plus a per-job deadline: a job
    /// still running `timeout` after submission cancels cooperatively at
    /// its next cluster/layer boundary and completes as
    /// [`JobError::Cancelled`]. The deadline only decides *whether* a job
    /// completes, never what a completed report contains, so determinism
    /// of delivered reports is untouched.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        job: JobSpec,
        priority: Priority,
        timeout: Duration,
    ) -> Result<Ticket, SubmitError> {
        let cancel = Arc::new(CancelToken::with_deadline(Instant::now() + timeout));
        self.submit_all(vec![job], priority, cancel)
            .map(|mut t| t.remove(0))
    }

    /// Admits `jobs` all-or-nothing, one ticket each, all sharing the
    /// `cancel` token. They are queued under one lock, so no worker picks
    /// up a job before its later twins are queued: which twins share a
    /// failure never depends on submission timing.
    pub(crate) fn submit_all(
        &self,
        jobs: Vec<JobSpec>,
        priority: Priority,
        cancel: Arc<CancelToken>,
    ) -> Result<Vec<Ticket>, SubmitError> {
        let keyed: Vec<(JobKey, JobSpec)> = jobs.into_iter().map(|job| (job.key(), job)).collect();
        let mut st = self.shared.lock();
        if st.workers_alive == 0 {
            return Err(SubmitError::ServiceDead);
        }
        if st.stopping {
            return Err(SubmitError::ShuttingDown);
        }
        if st.pending + keyed.len() > self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
                pending: st.pending,
            });
        }
        st.pending += keyed.len();
        let tickets = keyed
            .into_iter()
            .map(|(key, job)| {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = mpsc::channel();
                st.queues[priority.index()].push_back(Submission {
                    id,
                    session: job.session_key(),
                    job,
                    key,
                    tx,
                    cancel: Arc::clone(&cancel),
                });
                Ticket {
                    id,
                    rx,
                    cancel: Arc::clone(&cancel),
                }
            })
            .collect();
        drop(st);
        self.shared.cv.notify_all();
        Ok(tickets)
    }

    /// Admitted-but-uncompleted jobs right now (queued plus in flight).
    pub fn pending(&self) -> usize {
        self.shared.lock().pending
    }

    /// The admission bound ([`AsyncConfig::queue_capacity`]).
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Pool workers still serving (the spawned count minus deaths).
    pub fn workers_alive(&self) -> usize {
        self.shared.lock().workers_alive
    }

    /// Submission ids in completion order — the service's observable
    /// processing sequence (priority classes reorder it relative to
    /// submission order; with several workers it interleaves by
    /// completion time).
    pub fn completed_ids(&self) -> Vec<u64> {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// True when every pool worker died; every outstanding ticket will
    /// resolve to [`WaitError::ServiceDead`] and new submissions are
    /// rejected with [`SubmitError::ServiceDead`]. A partially-degraded
    /// pool (some deaths, at least one survivor) reports `false` and
    /// keeps serving.
    pub fn worker_dead(&self) -> bool {
        self.shared.lock().workers_alive == 0
    }

    /// Submission ids orphaned by worker deaths so far (empty while the
    /// pool is healthy). The authoritative list at shutdown is
    /// [`finish_report`](Self::finish_report)'s.
    pub fn casualties(&self) -> Vec<u64> {
        self.shared.lock().casualties.clone()
    }

    /// Cumulative counters of the inner [`BatchService`]. May block
    /// briefly while a worker holds the service for staging or commit
    /// bookkeeping (simulations themselves run outside the lock).
    pub fn stats(&self) -> ServiceStats {
        self.inner()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Drains every queued submission, stops the worker pool, and
    /// returns the inner [`BatchService`] — with its warmed caches and
    /// counters — for inspection or synchronous reuse. Worker deaths are
    /// absorbed, not propagated (see
    /// [`finish_report`](Self::finish_report) for the casualty list).
    pub fn finish(self) -> BatchService {
        self.finish_report().0
    }

    /// [`finish`](Self::finish) plus the shutdown summary: whether any
    /// worker exited by panic, and which submission ids lost their
    /// results to it. A clean shutdown reports `worker_panicked: false`
    /// and no casualties.
    pub fn finish_report(mut self) -> (BatchService, FinishReport) {
        {
            let mut st = self.shared.lock();
            st.stopping = true;
        }
        self.shared.cv.notify_all();
        let mut worker_panicked = false;
        for worker in self.workers.drain(..) {
            worker_panicked |= worker.join().is_err();
        }
        let casualties = self.shared.lock().casualties.clone();
        let service = self.service.take().expect("finish runs once");
        let Ok(service) = Arc::try_unwrap(service) else {
            unreachable!("workers have exited, so the service has one owner");
        };
        let service = service.into_inner().unwrap_or_else(PoisonError::into_inner);
        (
            service,
            FinishReport {
                worker_panicked,
                casualties,
            },
        )
    }

    fn inner(&self) -> &Mutex<BatchService> {
        self.service.as_ref().expect("service present until finish")
    }
}

impl Drop for AsyncService {
    fn drop(&mut self) {
        // `finish` already joined the pool; otherwise stop it promptly,
        // discarding queued submissions (their tickets' senders drop, so
        // a blocked `Ticket::wait` errors rather than hanging forever).
        if self.workers.is_empty() {
            return;
        }
        {
            let mut st = self.shared.lock();
            st.stopping = true;
            st.abort = true;
        }
        self.shared.cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Arms a pool worker against its own death: dropped during an unwind,
/// it decrements the live-worker count, records the in-flight job as a
/// casualty (dropping its sender so the waiter observes a disconnect,
/// never a hang), and — when it was the *last* worker — drains the
/// whole queue as casualties. Disarmed on the worker's clean exits.
struct WorkerGuard<'a> {
    shared: &'a Shared,
    /// The submission being processed right now, if any. The guard
    /// *owns* it so that during an unwind its sender cannot drop before
    /// the death is recorded below — a waiter woken by the disconnect
    /// must already observe the degraded pool state.
    current: RefCell<Option<Submission>>,
    armed: Cell<bool>,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if !self.armed.get() {
            return;
        }
        // Collect the casualties' submissions and drop them only after
        // the lock is released and the death is visible: their senders
        // dropping is what wakes the waiters.
        let mut dead: Vec<Submission> = Vec::new();
        let mut st = self.shared.lock();
        st.workers_alive = st.workers_alive.saturating_sub(1);
        if let Some(submission) = self.current.borrow_mut().take() {
            st.running.remove(&submission.key);
            st.casualties.push(submission.id);
            st.pending = st.pending.saturating_sub(1);
            dead.push(submission);
        }
        if st.workers_alive == 0 {
            while let Some(submission) = st.pop() {
                st.casualties.push(submission.id);
                st.pending = st.pending.saturating_sub(1);
                dead.push(submission);
            }
        }
        drop(st);
        self.shared.cv.notify_all();
        drop(dead);
    }
}

/// One pool worker (1-based `index` of N): pop the highest-priority
/// runnable submission, stage it under the service lock, prepare and
/// simulate outside it under [`job_scope`], commit, hand a
/// failure to the key's queued twins, deliver, repeat until stopped.
/// Staging, preparation and simulation are supervised, so a job panic —
/// injected or genuine — becomes a [`JobError`], never a worker death;
/// the only deliberate hole is the `worker` fault site below, which
/// kills worker `index` itself (the spec's `nth` selects the victim) to
/// exercise the death guard and the pool's N−1 degradation.
fn worker_loop(
    index: usize,
    shared: &Shared,
    service: &Mutex<BatchService>,
    completions: &Mutex<Vec<u64>>,
) {
    let guard = WorkerGuard {
        shared,
        current: RefCell::new(None),
        armed: Cell::new(true),
    };
    loop {
        let (submission, running, contended) = {
            let mut st = shared.lock();
            loop {
                if st.abort {
                    guard.armed.set(false);
                    return;
                }
                if let Some(submission) = st.pop_runnable() {
                    st.running
                        .insert(submission.key.clone(), submission.session.clone());
                    break (submission, st.running.len(), st.contended());
                }
                // Drain-to-empty before a clean stop: queued duplicates
                // of a running key are not runnable *yet*, so the queue
                // length — not pop_runnable — decides whether work
                // remains.
                if st.stopping && st.queued() == 0 {
                    guard.armed.set(false);
                    return;
                }
                st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Park the submission in the guard: on an unwind the guard — not
        // the unwinding stack frame — drops it, after recording the death.
        guard.current.replace(Some(submission));
        let current = guard.current.borrow();
        let submission = current.as_ref().expect("parked above");
        // The 'worker' fault site: a supervisor kill that escapes the
        // per-job supervision on purpose. The spec's `nth` picks the
        // victim — worker `index` dies when *it* picks the job up; every
        // other worker serves the same job unharmed.
        if job_fault_plan(&submission.job)
            .is_ok_and(|plan| plan.action_at(FaultSite::Worker, index as u64, 1).is_some())
        {
            panic!("injected worker kill (fault site 'worker', worker {index})");
        }
        let staged = {
            let mut svc = service.lock().unwrap_or_else(PoisonError::into_inner);
            svc.note_in_flight(running as u64);
            fault::with_cancel(Some(Arc::clone(&submission.cancel)), || {
                svc.stage(&submission.job, &submission.key)
            })
        };
        let (outcome, cache_hit, wall_ms) = match staged {
            Staged::Done { outcome, cache_hit } => (outcome, cache_hit, None),
            Staged::NeedsCompute(task) => {
                let run = fault::with_cancel(Some(Arc::clone(&submission.cancel)), || {
                    job_scope(contended, || compute_supervised(&submission.job, &task))
                });
                let mut svc = service.lock().unwrap_or_else(PoisonError::into_inner);
                let (outcome, wall_ms) = svc.commit(&submission.job, &submission.key, run);
                (outcome, false, wall_ms)
            }
        };
        // A failure is final for its key: every queued twin takes the same
        // error instead of recomputing it. A cancellation belongs to its
        // token, so only twins sharing that token take it; a twin whose
        // own token is still live runs itself.
        let twins = match &outcome {
            Ok(_) => Vec::new(),
            Err(JobError::Cancelled { .. }) => shared.lock().take_queued(|s| {
                s.key == submission.key && Arc::ptr_eq(&s.cancel, &submission.cancel)
            }),
            Err(_) => shared.lock().take_queued(|s| s.key == submission.key),
        };
        {
            let mut svc = service.lock().unwrap_or_else(PoisonError::into_inner);
            svc.touch_session(&submission.job);
            if let Err(e) = &outcome {
                svc.count_unstaged_failures(e, twins.len() as u64);
            }
        }
        let result = JobResult {
            // Workers number nothing themselves; the submission id is
            // the meaningful index at this layer.
            index: submission.id as usize,
            key: submission.key.clone(),
            dataset: submission.job.dataset.key.name(),
            engine: submission.job.engine.clone(),
            outcome,
            cache_hit,
            wall_ms,
        };
        completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(std::iter::once(submission.id).chain(twins.iter().map(|t| t.id)));
        {
            let mut st = shared.lock();
            st.running.remove(&submission.key);
            st.pending -= 1 + twins.len();
        }
        shared.cv.notify_all();
        // A ticket may be gone (dropped without waiting); fine.
        for twin in &twins {
            let _ = twin.tx.send(JobResult {
                index: twin.id as usize,
                engine: twin.job.engine.clone(),
                ..result.clone()
            });
        }
        let _ = submission.tx.send(result);
        drop(current);
        guard.current.replace(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission(id: u64) -> Submission {
        let (tx, _rx) = mpsc::channel();
        let job = JobSpec::new(
            grow_model::DatasetKey::Cora.spec().scaled_to(300),
            id,
            "grow",
        );
        Submission {
            id,
            key: job.key(),
            session: job.session_key(),
            job,
            tx,
            cancel: Arc::new(CancelToken::new()),
        }
    }

    fn empty_state() -> QueueState {
        QueueState {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            pending: 0,
            stopping: false,
            abort: false,
            workers_alive: 1,
            casualties: Vec::new(),
            running: HashMap::new(),
        }
    }

    #[test]
    fn queue_pops_priority_classes_in_order() {
        let mut state = empty_state();
        state.queues[Priority::Low.index()].push_back(submission(0));
        state.queues[Priority::Normal.index()].push_back(submission(1));
        state.queues[Priority::High.index()].push_back(submission(2));
        state.queues[Priority::High.index()].push_back(submission(3));
        state.queues[Priority::Normal.index()].push_back(submission(4));
        let order: Vec<u64> = std::iter::from_fn(|| state.pop()).map(|s| s.id).collect();
        assert_eq!(order, [2, 3, 1, 4, 0], "High FIFO, then Normal, then Low");
    }

    #[test]
    fn pop_runnable_skips_keys_already_computing() {
        let mut state = empty_state();
        let first = submission(0);
        let duplicate_key = first.key.clone();
        state
            .running
            .insert(first.key.clone(), first.session.clone());
        // A queued duplicate of the running key parks; a distinct key
        // behind it runs.
        let twin = Submission {
            id: 1,
            ..submission(0)
        };
        state.queues[Priority::Normal.index()].push_back(twin);
        state.queues[Priority::Normal.index()].push_back(submission(2));
        assert_eq!(state.queued(), 2);
        let popped = state.pop_runnable().expect("distinct key is runnable");
        assert_eq!(popped.id, 2, "duplicate of the running key is skipped");
        assert!(
            state.pop_runnable().is_none(),
            "nothing runnable while the twin's key computes"
        );
        // Once the computation commits, the parked twin runs.
        state.running.remove(&duplicate_key);
        assert_eq!(state.pop_runnable().expect("now runnable").id, 1);
    }

    #[test]
    fn pop_runnable_prefers_workloads_no_running_job_shares() {
        // Ids double as seeds, so submission(3) is the one other workload.
        // The running job shares submission(0)'s workload under another
        // key, so the queued jobs of that workload stay runnable.
        let mut state = empty_state();
        let running = submission(0).job.with_override("runahead", "4");
        state.running.insert(running.key(), running.session_key());
        let shared = |id| Submission {
            id,
            ..submission(0)
        };
        state.queues[Priority::High.index()].push_back(shared(1));
        state.queues[Priority::Normal.index()].extend([shared(2), submission(3), shared(4)]);
        let order: Vec<u64> = std::iter::from_fn(|| state.pop_runnable())
            .map(|s| s.id)
            .collect();
        assert_eq!(
            order,
            [1, 3, 2, 4],
            "classes first, then unshared workloads, then FIFO"
        );
    }

    #[test]
    fn only_a_contended_pickup_runs_inner_serial() {
        use grow_sim::exec::with_workers;
        // The picked job is already counted in `running`.
        let mut state = empty_state();
        let lone = submission(0);
        state.running.insert(lone.key, lone.session);
        assert!(!state.contended(), "a lone pickup");
        state.queues[Priority::Low.index()].push_back(submission(1));
        assert!(state.contended(), "another job queued");
        state.pop();
        let other = submission(2);
        state.running.insert(other.key, other.session);
        assert!(state.contended(), "another job running");

        assert_eq!(job_scope(true, ExecMode::current), ExecMode::Serial);
        let lone = || job_scope(false, ExecContext::capture);
        assert_eq!(
            with_mode(ExecMode::Parallel, lone),
            with_mode(ExecMode::Parallel, ExecContext::capture),
            "a lone pickup keeps the caller's mode"
        );
        assert_eq!(
            with_workers(3, lone),
            with_workers(3, ExecContext::capture),
            "and the caller's worker count"
        );
    }

    #[test]
    fn submit_after_finish_flag_is_rejected() {
        let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
        {
            let mut st = service.shared.lock();
            st.stopping = true;
        }
        let spec = grow_model::DatasetKey::Cora.spec().scaled_to(300);
        assert_eq!(
            service.submit(JobSpec::new(spec, 1, "grow")).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn submit_error_messages_name_the_bound() {
        let e = SubmitError::QueueFull {
            capacity: 4,
            pending: 4,
        };
        assert_eq!(e.to_string(), "pending queue full (4 of 4 slots in use)");
        assert_eq!(
            SubmitError::ShuttingDown.to_string(),
            "service is shutting down"
        );
    }
}
