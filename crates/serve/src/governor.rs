//! The two-level parallelism governor for the serving worker pool.
//!
//! A multi-worker [`AsyncService`](crate::AsyncService) — which also runs
//! every [`BatchService::run_batch`](crate::BatchService::run_batch) —
//! has two places to spend hardware threads: *outer* parallelism
//! (several jobs computing at once, one per pool worker) and *inner*
//! parallelism (one job fanning its own cluster simulation across
//! threads through `grow_sim::exec::parallel_map`). Spending both at once
//! oversubscribes the machine quadratically, so the governor picks
//! exactly one level per job, from the in-flight mix at the moment the
//! job is picked up:
//!
//! * **Contended queue** (another job running or waiting): the job-grain
//!   fan-out saturates the cores, so this job's inner fan-out is forced
//!   serial.
//! * **Lone job** (nothing else running or queued): outer parallelism is
//!   worthless, so the job keeps the full inner thread budget.
//!
//! The decision is a pure function of the queue snapshot and the thread
//! budget (hardware threads, overridden by `GROW_THREADS`) — no clocks,
//! no load averages — so a replayed queue makes identical choices, and
//! because every engine is bit-identical between its serial and parallel
//! paths, the choice can never change a report, only its wall time.

use grow_sim::exec::{with_mode, with_workers, ExecMode};

/// What the governor sees: the queue at the instant a worker picks up a
/// job, with the picked job already counted in [`running`](Self::running).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Submissions still waiting in the priority queues.
    pub queued: usize,
    /// Jobs being computed right now, including the one just picked up
    /// (so `running >= 1` whenever a decision is being made).
    pub running: usize,
}

impl QueueSnapshot {
    /// Total jobs the decision is arbitrating between.
    pub fn in_flight(&self) -> usize {
        self.queued + self.running
    }
}

/// The governor's verdict: how much inner (intra-job) parallelism the
/// picked job may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerBudget {
    /// Forced-serial inner fan-out — the outer (cross-job) level owns the
    /// cores.
    Serial,
    /// Full inner fan-out with this many worker threads — the job is
    /// alone, the inner level owns the cores.
    Threads(usize),
}

impl InnerBudget {
    /// Runs `f` under this budget: [`Serial`](Self::Serial) forces the
    /// calling thread's execution mode serial for the duration,
    /// [`Threads`](Self::Threads) pins the worker count. Either way the
    /// override is scoped and restored on exit (also on panic), and a
    /// session-level serial override (`GROW_SERIAL=1` or an enclosing
    /// `with_mode`) still wins — the budget widens nothing, it only
    /// narrows.
    pub fn apply<R>(self, f: impl FnOnce() -> R) -> R {
        match self {
            InnerBudget::Serial => with_mode(ExecMode::Serial, f),
            InnerBudget::Threads(n) => with_workers(n, f),
        }
    }
}

/// The effective inner-thread budget: an explicit `GROW_THREADS`-style
/// override wins — including oversubscription, which the determinism
/// tests rely on — otherwise the hardware thread count (minimum 1).
pub fn thread_budget(hardware_threads: usize, configured_threads: Option<usize>) -> usize {
    configured_threads
        .filter(|&n| n > 0)
        .unwrap_or(hardware_threads)
        .max(1)
}

/// Decides the picked job's inner-parallelism budget from the queue
/// snapshot and the thread budget. Pure and total: same inputs, same
/// verdict, on every machine and in every leg of the determinism matrix.
pub fn inner_budget(
    snapshot: QueueSnapshot,
    hardware_threads: usize,
    configured_threads: Option<usize>,
) -> InnerBudget {
    if snapshot.in_flight() > 1 {
        InnerBudget::Serial
    } else {
        InnerBudget::Threads(thread_budget(hardware_threads, configured_threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_job_keeps_the_full_inner_budget() {
        let lone = QueueSnapshot {
            queued: 0,
            running: 1,
        };
        assert_eq!(inner_budget(lone, 8, None), InnerBudget::Threads(8));
        assert_eq!(inner_budget(lone, 8, Some(3)), InnerBudget::Threads(3));
        assert_eq!(
            inner_budget(lone, 0, Some(0)),
            InnerBudget::Threads(1),
            "degenerate inputs clamp to one thread"
        );
    }

    #[test]
    fn any_contention_forces_the_inner_level_serial() {
        for snapshot in [
            QueueSnapshot {
                queued: 1,
                running: 1,
            },
            QueueSnapshot {
                queued: 0,
                running: 2,
            },
            QueueSnapshot {
                queued: 7,
                running: 4,
            },
        ] {
            assert_eq!(
                inner_budget(snapshot, 8, None),
                InnerBudget::Serial,
                "{snapshot:?}"
            );
        }
    }

    #[test]
    fn the_decision_is_pure_in_its_inputs() {
        let snapshot = QueueSnapshot {
            queued: 2,
            running: 1,
        };
        let first = inner_budget(snapshot, 16, Some(4));
        for _ in 0..10 {
            assert_eq!(inner_budget(snapshot, 16, Some(4)), first);
        }
    }

    #[test]
    fn apply_narrows_execution_for_the_scope_only() {
        use grow_sim::exec::{parallel_map, ExecContext};
        let before = ExecContext::capture();
        let under_serial = InnerBudget::Serial.apply(ExecContext::capture);
        let doubled = InnerBudget::Threads(2).apply(|| parallel_map(vec![1, 2, 3], |_, x| x * 2));
        assert_eq!(doubled, [2, 4, 6]);
        assert_eq!(ExecContext::capture(), before, "overrides restored");
        assert_ne!(under_serial, before, "serial override visible in scope");
    }
}
