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
//! instead of rayon; the API surface is [`parallel_map`], which a future
//! rayon backend could replace without touching call sites. Within a
//! cluster, an engine plans and replays on the worker that runs it.
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
use std::sync::Mutex;

use crate::fault::FaultContext;

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
}
