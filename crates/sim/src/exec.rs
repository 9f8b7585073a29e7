//! Deterministic parallel execution of independent simulation tasks.
//!
//! GROW processes graph clusters independently (Section V-C), and the
//! multi-PE model of Figure 24 exploits exactly that independence — so the
//! *simulator* can too: each engine fans per-cluster simulations across
//! threads and merges the partial reports in cluster order, which makes
//! the result bit-identical to a serial run by construction.
//!
//! The environment this workspace builds in has no crates.io access, so
//! the fan-out is built on `std::thread::scope` with an atomic work queue
//! instead of rayon; the API surface is [`parallel_map`] plus the
//! bounded plan/replay pipelines [`bounded_pipeline`] /
//! [`bounded_pipeline_seq`], all of which a future rayon backend could
//! replace without touching call sites.
//!
//! Parallelism is on by default and can be disabled three ways:
//!
//! * `GROW_SERIAL=1` in the environment (e.g. for profiling);
//! * [`with_mode`]`(ExecMode::Serial, ..)` around a region of code (used
//!   by the determinism tests);
//! * `GROW_THREADS=n` / [`with_workers`] to set the worker count
//!   explicitly (`1` is equivalent to serial; values above the hardware
//!   thread count oversubscribe, which the determinism tests use to
//!   exercise real interleaving even on single-core machines).

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::fault::{self, FaultContext, FaultSite};

/// How [`parallel_map`] executes its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Fan tasks across OS threads (the default).
    Parallel,
    /// Run tasks one by one on the calling thread.
    Serial,
}

thread_local! {
    /// Thread-local mode override: 0 = unset (consult the environment),
    /// 1 = parallel, 2 = serial. Thread-local rather than process-wide so
    /// concurrent callers (e.g. parallel test threads) cannot perturb each
    /// other: [`parallel_map`] always consults the mode on the *calling*
    /// thread, before any fan-out.
    static MODE_OVERRIDE: Cell<u8> = const { Cell::new(0) };
    /// Thread-local worker-count override (0 = unset).
    static WORKERS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

impl ExecMode {
    /// The mode in effect on this thread: an active [`with_mode`] override
    /// wins, then `GROW_SERIAL`, then the parallel default.
    pub fn current() -> ExecMode {
        match MODE_OVERRIDE.get() {
            1 => ExecMode::Parallel,
            2 => ExecMode::Serial,
            _ => match std::env::var_os("GROW_SERIAL") {
                Some(v) if v != "0" && !v.is_empty() => ExecMode::Serial,
                _ => ExecMode::Parallel,
            },
        }
    }

    fn encode(self) -> u8 {
        match self {
            ExecMode::Parallel => 1,
            ExecMode::Serial => 2,
        }
    }
}

/// Restores a thread-local [`Cell`] override on drop (also on panic).
struct Restore<T: Copy + 'static>(&'static std::thread::LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// Runs `f` with this thread's execution mode forced to `mode`, restoring
/// the previous override afterwards (also on panic). Scoped to the calling
/// thread; nesting works.
pub fn with_mode<R>(mode: ExecMode, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(&MODE_OVERRIDE, MODE_OVERRIDE.replace(mode.encode()));
    f()
}

/// Runs `f` with this thread's parallel worker count forced to `workers`,
/// restoring the previous override afterwards (also on panic). Scoped to
/// the calling thread like [`with_mode`].
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(&WORKERS_OVERRIDE, WORKERS_OVERRIDE.replace(workers.max(1)));
    f()
}

/// A snapshot of the calling thread's execution overrides ([`with_mode`] /
/// [`with_workers`]), for replaying them on another thread.
///
/// The overrides are thread-local by design, but a service that accepts
/// work on one thread and simulates on a dedicated worker thread (the
/// async serving front end) must execute *as if* on the submitting
/// thread, or `with_mode(ExecMode::Serial, ..)` around the service would
/// silently not apply. Capture on the controlling thread, then wrap the
/// worker's processing in [`ExecContext::scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecContext {
    mode: u8,
    workers: usize,
}

impl ExecContext {
    /// Captures the current thread's override state (including "no
    /// override set", which leaves environment resolution intact).
    pub fn capture() -> ExecContext {
        ExecContext {
            mode: MODE_OVERRIDE.get(),
            workers: WORKERS_OVERRIDE.get(),
        }
    }

    /// Runs `f` with this snapshot's overrides in effect on the current
    /// thread, restoring the previous state afterwards (also on panic).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _mode = Restore(&MODE_OVERRIDE, MODE_OVERRIDE.replace(self.mode));
        let _workers = Restore(&WORKERS_OVERRIDE, WORKERS_OVERRIDE.replace(self.workers));
        f()
    }
}

/// The explicit worker-count override in effect on the calling thread,
/// if any: a [`with_workers`] scope wins over `GROW_THREADS` in the
/// environment; `None` means resolution would fall back to the hardware
/// thread count. Exposed so schedulers above the fan-out (the serving
/// layer's parallelism governor) can honor an enclosing override instead
/// of silently widening past it.
pub fn configured_workers() -> Option<usize> {
    match WORKERS_OVERRIDE.get() {
        0 => std::env::var("GROW_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0),
        n => Some(n),
    }
}

/// Worker-thread count for `tasks` tasks under [`ExecMode::Parallel`]:
/// an explicit override ([`with_workers`] or `GROW_THREADS`) wins —
/// including oversubscription — otherwise the hardware thread count,
/// never more than the task count. [`parallel_map`] sizes its fan-out
/// with it, and so does the serving layer's batch worker pool.
pub fn worker_count(tasks: usize) -> usize {
    let explicit = configured_workers();
    let hw = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    explicit.unwrap_or_else(hw).min(tasks)
}

/// Maps `f` over `items`, preserving order in the returned vector.
///
/// Under [`ExecMode::Parallel`] the items are processed by a pool of
/// scoped threads pulling from an atomic queue (dynamic load balancing —
/// cluster sizes are skewed on real graphs); each result is written to its
/// input's slot, so the output order — and therefore any order-dependent
/// merge the caller performs — is identical to the serial path.
///
/// `f` receives the item index alongside the item.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = match ExecMode::current() {
        ExecMode::Serial => 1,
        ExecMode::Parallel => worker_count(n),
    };
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panics: Vec<Mutex<Option<Box<dyn Any + Send>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let fault_ctx = FaultContext::capture();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                fault_ctx.scope(|| loop {
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("item slot poisoned")
                        .take()
                        .expect("each slot is taken exactly once");
                    // Capture the payload instead of letting the scope
                    // replace it with "a scoped thread panicked": the serve
                    // supervisor downcasts payloads (e.g. `SimFault`) to
                    // classify failures.
                    match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                        Err(payload) => {
                            *panics[i].lock().expect("panic slot poisoned") = Some(payload);
                            panicked.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                })
            });
        }
    });

    // Re-raise the lowest-index panic. Indices are claimed in increasing
    // order and a claimed task always runs, so the lowest recorded index is
    // the lowest panicking task overall — exactly where the serial leg
    // fails first.
    for slot in &panics {
        if let Some(payload) = slot.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// Shared state of a bounded plan/replay pipeline: producers claim item
/// indices, park results in `ready`, and throttle themselves against the
/// consumer's progress so at most `depth` results are in flight.
struct PipeState<R> {
    ready: Vec<Option<R>>,
    /// Next item index a producer may claim.
    next: usize,
    /// Number of results the consumer has taken (= index of the oldest
    /// outstanding item).
    consumed: usize,
    /// Set when either side panics so the other side stops waiting.
    dead: bool,
}

/// Marks the pipeline dead if dropped during a panic, waking the peers so
/// they stop waiting for a result that will never arrive.
struct PipePoison<'a, R> {
    state: &'a Mutex<PipeState<R>>,
    cv: &'a Condvar,
    armed: bool,
}

impl<R> PipePoison<'_, R> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<R> Drop for PipePoison<'_, R> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st.dead = true;
            self.cv.notify_all();
        }
    }
}

/// Runs a bounded-depth producer/consumer pipeline: `produce` plans item
/// `k+1` (on worker threads) while `consume` replays item `k` on the
/// calling thread, strictly in index order.
///
/// This is the overlap primitive behind the engines' plan/replay split:
/// the plan pass is pure (safe to run ahead, out of order, on any
/// thread), the replay pass owns the cycle-accurate machine state and
/// must observe plans in index order — which the consumer guarantees by
/// construction, so the result is bit-identical to the serial
/// interleaving `produce(0); consume(0); produce(1); ...` that runs under
/// [`ExecMode::Serial`] or a single worker.
///
/// `depth` bounds how far producers may run ahead of the consumer
/// (`0` = auto: worker count + 1), which bounds the number of planned-but
/// -unreplayed results alive at once.
///
/// # Panics
///
/// Propagates a panic from `produce` or `consume`.
pub fn bounded_pipeline<T, R, F, C>(items: Vec<T>, depth: usize, produce: F, mut consume: C)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    C: FnMut(usize, R),
{
    let n = items.len();
    let workers = match ExecMode::current() {
        ExecMode::Serial => 1,
        ExecMode::Parallel => worker_count(n),
    };
    if workers <= 1 || n <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            let r = produce(i, item);
            fault::trip_at(FaultSite::ExecHandoff, i as u64 + 1);
            consume(i, r);
        }
        return;
    }
    let depth = if depth == 0 { workers + 1 } else { depth };

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let state = Mutex::new(PipeState {
        ready: (0..n).map(|_| None).collect(),
        next: 0,
        consumed: 0,
        dead: false,
    });
    let cv = Condvar::new();
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
    let fault_ctx = FaultContext::capture();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                fault_ctx.scope(|| loop {
                    let i = {
                        let mut st = state.lock().expect("pipeline state poisoned");
                        loop {
                            if st.dead || st.next >= n {
                                return;
                            }
                            if st.next < st.consumed + depth {
                                break;
                            }
                            st = cv.wait(st).expect("pipeline state poisoned");
                        }
                        let i = st.next;
                        st.next += 1;
                        i
                    };
                    let item = slots[i]
                        .lock()
                        .expect("item slot poisoned")
                        .take()
                        .expect("each slot is taken exactly once");
                    // Capture the payload (rather than letting the scope
                    // discard it) so supervisors can downcast `SimFault`,
                    // and mark the pipeline dead so the consumer stops
                    // waiting for a result that will never arrive.
                    match catch_unwind(AssertUnwindSafe(|| produce(i, item))) {
                        Ok(r) => {
                            let mut st = state.lock().expect("pipeline state poisoned");
                            st.ready[i] = Some(r);
                            cv.notify_all();
                        }
                        Err(payload) => {
                            panics
                                .lock()
                                .expect("panic list poisoned")
                                .push((i, payload));
                            let mut st = state.lock().expect("pipeline state poisoned");
                            st.dead = true;
                            cv.notify_all();
                            return;
                        }
                    }
                })
            });
        }

        // Consume in index order on the calling thread. If `consume`
        // panics, the poison guard wakes the producers so the scope can
        // join them and propagate the panic instead of deadlocking.
        let poison = PipePoison {
            state: &state,
            cv: &cv,
            armed: true,
        };
        for i in 0..n {
            let r = {
                let mut st = state.lock().expect("pipeline state poisoned");
                loop {
                    if let Some(r) = st.ready[i].take() {
                        st.consumed = i + 1;
                        cv.notify_all();
                        break r;
                    }
                    if st.dead {
                        // A producer panicked; the payload is re-raised
                        // after the scope joins.
                        return;
                    }
                    st = cv.wait(st).expect("pipeline state poisoned");
                }
            };
            fault::trip_at(FaultSite::ExecHandoff, i as u64 + 1);
            consume(i, r);
        }
        poison.disarm();
    });

    resume_lowest(panics);
}

/// Re-raises the lowest-index captured producer panic, if any. Producers
/// claim indices in increasing order and a claimed item always runs, so
/// the lowest recorded index is where the serial leg would fail first.
fn resume_lowest(panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>) {
    let mut recorded = panics.into_inner().expect("panic list poisoned");
    recorded.sort_by_key(|(i, _)| *i);
    if let Some((_, payload)) = recorded.into_iter().next() {
        resume_unwind(payload);
    }
}

/// Like [`bounded_pipeline`] but with a *stateful* producer: `produce`
/// runs on a single dedicated thread, strictly in index order, so it may
/// carry mutable state from item to item (e.g. a cache model walked
/// sequentially). The consumer still replays in index order on the
/// calling thread, overlapped with production up to `depth` outstanding
/// results (`0` = auto).
///
/// Under [`ExecMode::Serial`] or a single worker this degrades to the
/// exact serial interleaving, so results are bit-identical by
/// construction.
///
/// # Panics
///
/// Propagates a panic from `produce` or `consume`.
pub fn bounded_pipeline_seq<T, R, F, C>(items: Vec<T>, depth: usize, mut produce: F, mut consume: C)
where
    T: Send,
    R: Send,
    F: FnMut(usize, T) -> R + Send,
    C: FnMut(usize, R),
{
    let n = items.len();
    let workers = match ExecMode::current() {
        ExecMode::Serial => 1,
        ExecMode::Parallel => worker_count(n),
    };
    if workers <= 1 || n <= 1 {
        for (i, item) in items.into_iter().enumerate() {
            let r = produce(i, item);
            fault::trip_at(FaultSite::ExecHandoff, i as u64 + 1);
            consume(i, r);
        }
        return;
    }
    let depth = if depth == 0 { 2 } else { depth };

    let state = Mutex::new(PipeState::<R> {
        ready: (0..n).map(|_| None).collect(),
        next: 0,
        consumed: 0,
        dead: false,
    });
    let cv = Condvar::new();
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
    let fault_ctx = FaultContext::capture();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            fault_ctx.scope(|| {
                for (i, item) in items.into_iter().enumerate() {
                    {
                        let mut st = state.lock().expect("pipeline state poisoned");
                        loop {
                            if st.dead {
                                return;
                            }
                            if i < st.consumed + depth {
                                break;
                            }
                            st = cv.wait(st).expect("pipeline state poisoned");
                        }
                    }
                    match catch_unwind(AssertUnwindSafe(|| produce(i, item))) {
                        Ok(r) => {
                            let mut st = state.lock().expect("pipeline state poisoned");
                            st.ready[i] = Some(r);
                            cv.notify_all();
                        }
                        Err(payload) => {
                            panics
                                .lock()
                                .expect("panic list poisoned")
                                .push((i, payload));
                            let mut st = state.lock().expect("pipeline state poisoned");
                            st.dead = true;
                            cv.notify_all();
                            return;
                        }
                    }
                }
            })
        });

        let poison = PipePoison {
            state: &state,
            cv: &cv,
            armed: true,
        };
        for i in 0..n {
            let r = {
                let mut st = state.lock().expect("pipeline state poisoned");
                loop {
                    if let Some(r) = st.ready[i].take() {
                        st.consumed = i + 1;
                        cv.notify_all();
                        break r;
                    }
                    if st.dead {
                        return;
                    }
                    st = cv.wait(st).expect("pipeline state poisoned");
                }
            };
            fault::trip_at(FaultSite::ExecHandoff, i as u64 + 1);
            consume(i, r);
        }
        poison.disarm();
    });

    resume_lowest(panics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..1000).collect::<Vec<i64>>(), |i, x| {
            assert_eq!(i as i64, x);
            x * x
        });
        assert_eq!(out, (0..1000).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn serial_mode_matches_parallel() {
        let items: Vec<u64> = (0..257).collect();
        let par = parallel_map(items.clone(), |_, x| x.wrapping_mul(0x9e3779b9) >> 7);
        let ser = with_mode(ExecMode::Serial, || {
            parallel_map(items, |_, x| x.wrapping_mul(0x9e3779b9) >> 7)
        });
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(vec![7u8], |i, x| x + i as u8), vec![7]);
    }

    #[test]
    fn with_mode_restores_previous_override() {
        with_mode(ExecMode::Serial, || {
            assert_eq!(ExecMode::current(), ExecMode::Serial);
            with_mode(ExecMode::Parallel, || {
                assert_eq!(ExecMode::current(), ExecMode::Parallel);
            });
            assert_eq!(ExecMode::current(), ExecMode::Serial);
        });
    }

    #[test]
    fn oversubscribed_workers_spawn_and_preserve_order() {
        // Forces real thread fan-out even on single-core machines.
        let out = with_workers(8, || {
            parallel_map((0..500).collect::<Vec<u32>>(), |_, x| {
                x.wrapping_mul(31) ^ 5
            })
        });
        assert_eq!(
            out,
            (0..500)
                .map(|x: u32| x.wrapping_mul(31) ^ 5)
                .collect::<Vec<u32>>()
        );
    }

    #[test]
    fn non_copy_items_move_through() {
        let items: Vec<String> = (0..64).map(|i| format!("task-{i}")).collect();
        let out = parallel_map(items, |_, s| s.len());
        assert!(out.iter().all(|&l| (6..=7).contains(&l)));
    }

    #[test]
    fn pipeline_consumes_in_order_and_matches_serial() {
        let items: Vec<u64> = (0..300).collect();
        let run = |mode: ExecMode| {
            with_mode(mode, || {
                with_workers(4, || {
                    let mut trace = Vec::new();
                    bounded_pipeline(
                        items.clone(),
                        3,
                        |i, x| x.wrapping_mul(0x9e3779b9) ^ i as u64,
                        |i, r| trace.push((i, r)),
                    );
                    trace
                })
            })
        };
        let par = run(ExecMode::Parallel);
        let ser = run(ExecMode::Serial);
        assert_eq!(par, ser);
        assert!(par.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert_eq!(par.len(), 300);
    }

    #[test]
    fn pipeline_respects_lookahead_depth() {
        use std::sync::atomic::AtomicUsize;
        let depth = 2usize;
        let consumed = AtomicUsize::new(0);
        let overshoot = AtomicUsize::new(0);
        with_workers(8, || {
            bounded_pipeline(
                (0..200usize).collect::<Vec<_>>(),
                depth,
                |i, _| {
                    // A producer may only hold item i while i < consumed +
                    // depth. The internal consumed index advances one step
                    // before the store below runs, so allow that lag.
                    let c = consumed.load(Ordering::SeqCst);
                    if i > c + depth {
                        overshoot.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                },
                |i, _| {
                    consumed.store(i + 1, Ordering::SeqCst);
                },
            );
        });
        assert_eq!(overshoot.load(Ordering::SeqCst), 0, "producers ran ahead");
    }

    #[test]
    fn pipeline_propagates_producer_panics() {
        let hit = std::panic::catch_unwind(|| {
            with_workers(4, || {
                bounded_pipeline(
                    (0..64usize).collect::<Vec<_>>(),
                    0,
                    |i, x| {
                        assert!(i != 17, "boom");
                        x
                    },
                    |_, _| {},
                );
            });
        });
        assert!(hit.is_err(), "panic in produce must surface to the caller");
    }

    #[test]
    fn pipeline_propagates_consumer_panics() {
        let hit = std::panic::catch_unwind(|| {
            with_workers(4, || {
                bounded_pipeline(
                    (0..64usize).collect::<Vec<_>>(),
                    1,
                    |_, x| x,
                    |i, _| assert!(i != 9, "boom"),
                );
            });
        });
        assert!(hit.is_err(), "panic in consume must surface to the caller");
    }

    #[test]
    fn sequential_pipeline_preserves_producer_state_order() {
        // The producer carries running state (a prefix sum) from item to
        // item: only strict in-order production on a single thread keeps
        // that correct, and the consumer must see the same order.
        let items: Vec<u64> = (1..=257).collect();
        let expect: Vec<u64> = items
            .iter()
            .scan(0u64, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        for mode in [ExecMode::Parallel, ExecMode::Serial] {
            let got = with_mode(mode, || {
                with_workers(4, || {
                    let mut acc = 0u64;
                    let mut out = Vec::new();
                    bounded_pipeline_seq(
                        items.clone(),
                        0,
                        move |_, x| {
                            acc += x;
                            acc
                        },
                        |_, r| out.push(r),
                    );
                    out
                })
            });
            assert_eq!(got, expect, "{mode:?}");
        }
    }

    #[test]
    fn pipeline_handles_empty_and_singleton() {
        bounded_pipeline(Vec::<u8>::new(), 0, |_, x| x, |_, _| unreachable!());
        let mut seen = Vec::new();
        bounded_pipeline(vec![41u8], 0, |_, x| x + 1, |_, r| seen.push(r));
        assert_eq!(seen, vec![42]);
        bounded_pipeline_seq(Vec::<u8>::new(), 0, |_, x| x, |_, _| unreachable!());
    }
}
