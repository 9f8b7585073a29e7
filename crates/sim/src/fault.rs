//! Deterministic fault injection and cooperative cancellation.
//!
//! The serving layer around the simulator is where real-world failure
//! handling lives — but failure paths that can only be reached by real
//! crashes are failure paths that are never tested. This module makes
//! faults a *configuration input*: a [`FaultPlan`] names injection sites
//! threaded through the hot layers (DRAM transfer issue, a cluster's
//! plan→replay hand-off, store read/write, the serving worker itself, the
//! multi-PE scheduler dispatch) and
//! describes, per site, the op ordinal at which to inject and whether the
//! site reports an error ([`SimFault`]) or panics outright.
//!
//! # Determinism contract
//!
//! Injection decisions are **count-based, never clock-based**: a site
//! trips when its local operation counter reaches the spec's `nth` value
//! while the current retry attempt is within the spec's `attempts`
//! budget. Counters are owned by deterministic units — a [`Dram`]
//! instance counts its own transfers, each cluster's plan→replay
//! hand-off is its own op 1, a store scope counts its own reads/writes —
//! so the serial and parallel execution legs inject at exactly the same
//! operation, and a retried run whose specs have exhausted their
//! `attempts` budget is bit-identical to a fault-free run.
//!
//! The plan, the retry-attempt number, and the [`CancelToken`] are
//! thread-local (armed with [`with_plan`] / [`with_attempt`] /
//! [`with_cancel`]) and are replayed onto [`exec`](crate::exec) worker
//! threads via [`FaultContext`], mirroring
//! [`ExecContext`](crate::exec::ExecContext) — no global mutable state,
//! so concurrent jobs with different plans cannot perturb each other.
//!
//! Cancellation is *cooperative*: [`check_cancel`] is called at cluster
//! and layer boundaries and unwinds with [`SimFault::Cancelled`] when the
//! token has been tripped (or its deadline passed). Completed results are
//! never affected — a job either finishes bit-identically or does not
//! finish.
//!
//! [`Dram`]: crate::Dram

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Maximum number of [`FaultSpec`]s one [`FaultPlan`] can carry. A fixed
/// bound keeps the plan `Copy` (it travels inside engine configs and
/// thread-local cells); four independent sites per job is far more chaos
/// than any scenario needs.
pub const MAX_FAULT_SPECS: usize = 4;

/// A named injection point threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A DRAM transfer issue ([`Dram`](crate::Dram) counts its own
    /// transfers, so cluster-parallel legs inject identically).
    DramIssue,
    /// A cluster's plan→replay hand-off: tripped once per freshly
    /// planned cluster, after its plan pass and before its replay, always
    /// at ordinal 1 (each cluster is its own unit). A replay of a plan
    /// retained from an earlier layer or job has no hand-off and never
    /// trips it.
    ExecHandoff,
    /// A result-store entry read (ordinal counted per armed scope).
    StoreRead,
    /// A result-store entry write, tripped *between* the temporary-file
    /// write and the atomic rename — the torn-write simulator.
    StoreWrite,
    /// The serving worker itself: a supervisor-kill checked before a job
    /// runs. Never retried; exists to prove waiters survive worker death.
    /// The spec's `nth` selects *which* pool worker dies: worker `k` of N
    /// trips on `worker:…:k` when it picks the job up, so a single spec
    /// can target any member of a multi-worker pool.
    Worker,
    /// A multi-PE scheduler dispatch: tripped each time the end-to-end
    /// model hands a cluster to a processing element. The ordinal is the
    /// dispatch count within one simulation, identical in serial and
    /// parallel legs (the whole dispatch loop runs on one thread).
    Sched,
}

impl FaultSite {
    /// Every site, in spec-grammar order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::DramIssue,
        FaultSite::ExecHandoff,
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::Worker,
        FaultSite::Sched,
    ];

    /// The site's spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DramIssue => "dram",
            FaultSite::ExecHandoff => "exec",
            FaultSite::StoreRead => "store_read",
            FaultSite::StoreWrite => "store_write",
            FaultSite::Worker => "worker",
            FaultSite::Sched => "sched",
        }
    }

    /// Parses a spec-grammar name.
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::DramIssue => 0,
            FaultSite::ExecHandoff => 1,
            FaultSite::StoreRead => 2,
            FaultSite::StoreWrite => 3,
            FaultSite::Worker => 4,
            FaultSite::Sched => 5,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed site does when its spec trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Report a structured [`SimFault`] (sites whose signatures cannot
    /// return errors unwind with the fault as the panic payload, which
    /// the supervisor downcasts back into a structured error).
    Error,
    /// Panic with a plain message — the "arbitrary bug" simulator; the
    /// supervisor can only report it as a caught panic.
    Panic,
}

impl FaultAction {
    /// The action's spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
        }
    }

    /// Parses a spec-grammar name.
    pub fn parse(name: &str) -> Option<FaultAction> {
        match name {
            "error" => Some(FaultAction::Error),
            "panic" => Some(FaultAction::Panic),
            _ => None,
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injection rule: at `site`, on its `nth` operation, while the
/// retry attempt is at most `attempts`, perform `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: FaultSite,
    /// Error or panic.
    pub action: FaultAction,
    /// 1-based operation ordinal at the site.
    pub nth: u64,
    /// Inject while the current attempt number is `<= attempts`; an
    /// `attempts` below the supervisor's retry budget makes the fault
    /// *transient* — the retried run completes fault-free and
    /// bit-identical to the baseline.
    pub attempts: u64,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.site, self.action, self.nth, self.attempts
        )
    }
}

/// A failed [`FaultPlan::parse`], carrying the human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FaultParseError {}

/// A deterministic injection plan: up to [`MAX_FAULT_SPECS`] rules.
///
/// The textual grammar (the `fault=` registry value) is
/// `site:action:nth[:attempts]` specs joined by `+`, or `off`/`none` for
/// the empty plan:
///
/// ```
/// use grow_sim::fault::{FaultAction, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::parse("dram:error:3+store_write:panic:1:2").unwrap();
/// assert!(plan.is_armed());
/// assert_eq!(
///     plan.action_at(FaultSite::DramIssue, 3, 1),
///     Some(FaultAction::Error)
/// );
/// assert_eq!(plan.action_at(FaultSite::DramIssue, 3, 2), None, "transient");
/// assert!(FaultPlan::parse("off").unwrap().is_off());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: [Option<FaultSpec>; MAX_FAULT_SPECS],
}

impl FaultPlan {
    /// The empty (disarmed) plan — the default everywhere; leaves every
    /// report byte-identical to a build without fault support.
    pub const OFF: FaultPlan = FaultPlan {
        specs: [None; MAX_FAULT_SPECS],
    };

    /// A plan holding one spec.
    pub fn single(spec: FaultSpec) -> FaultPlan {
        let mut plan = FaultPlan::OFF;
        plan.specs[0] = Some(spec);
        plan
    }

    /// Appends a spec.
    ///
    /// # Errors
    ///
    /// Fails when the plan already holds [`MAX_FAULT_SPECS`] specs.
    pub fn push(&mut self, spec: FaultSpec) -> Result<(), FaultParseError> {
        match self.specs.iter_mut().find(|s| s.is_none()) {
            Some(slot) => {
                *slot = Some(spec);
                Ok(())
            }
            None => Err(FaultParseError(format!(
                "too many fault specs (max {MAX_FAULT_SPECS})"
            ))),
        }
    }

    /// The plan's specs, in declaration order.
    pub fn specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.specs.iter().filter_map(|s| *s)
    }

    /// True when the plan holds at least one spec.
    pub fn is_armed(&self) -> bool {
        self.specs.iter().any(|s| s.is_some())
    }

    /// True when the plan holds no specs.
    pub fn is_off(&self) -> bool {
        !self.is_armed()
    }

    /// Parses the `fault=` grammar (see the type docs).
    ///
    /// # Errors
    ///
    /// Reports the first malformed spec, a zero `nth`/`attempts`, or a
    /// spec count over [`MAX_FAULT_SPECS`].
    pub fn parse(value: &str) -> Result<FaultPlan, FaultParseError> {
        let value = value.trim();
        if value.eq_ignore_ascii_case("off") || value.eq_ignore_ascii_case("none") {
            return Ok(FaultPlan::OFF);
        }
        let mut plan = FaultPlan::OFF;
        for spec_text in value.split('+') {
            let mut parts = spec_text.split(':');
            let site = parts
                .next()
                .and_then(FaultSite::parse)
                .ok_or_else(|| bad_spec(spec_text, "unknown site"))?;
            let action = parts
                .next()
                .and_then(FaultAction::parse)
                .ok_or_else(|| bad_spec(spec_text, "unknown action"))?;
            let nth = match parts.next() {
                None => 1,
                Some(n) => parse_positive(spec_text, n)?,
            };
            let attempts = match parts.next() {
                None => 1,
                Some(n) => parse_positive(spec_text, n)?,
            };
            if parts.next().is_some() {
                return Err(bad_spec(spec_text, "trailing fields"));
            }
            plan.push(FaultSpec {
                site,
                action,
                nth,
                attempts,
            })?;
        }
        Ok(plan)
    }

    /// The canonical textual form ([`FaultPlan::parse`] round-trips it).
    pub fn render(&self) -> String {
        if self.is_off() {
            return "off".to_string();
        }
        let parts: Vec<String> = self.specs().map(|s| s.to_string()).collect();
        parts.join("+")
    }

    /// A seeded pseudo-random single-spec plan over `sites` — the chaos
    /// grid generator. Pure in `seed` (splitmix64), so a seeded soak is
    /// reproducible run to run and identical in serial and parallel legs.
    /// `max_attempts` bounds the generated spec's `attempts` field (use a
    /// value below the supervisor's retry budget to generate transient
    /// faults only).
    pub fn seeded(seed: u64, sites: &[FaultSite], max_nth: u64, max_attempts: u64) -> FaultPlan {
        assert!(!sites.is_empty(), "seeded plan needs at least one site");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let site = sites[(next() % sites.len() as u64) as usize];
        let action = if next() % 2 == 0 {
            FaultAction::Error
        } else {
            FaultAction::Panic
        };
        FaultPlan::single(FaultSpec {
            site,
            action,
            nth: 1 + next() % max_nth.max(1),
            attempts: 1 + next() % max_attempts.max(1),
        })
    }

    /// The action this plan takes at `site`, op `ordinal`, retry attempt
    /// `attempt` — the pure decision function every site consults.
    pub fn action_at(&self, site: FaultSite, ordinal: u64, attempt: u64) -> Option<FaultAction> {
        self.specs()
            .find(|s| s.site == site && s.nth == ordinal && attempt <= s.attempts)
            .map(|s| s.action)
    }
}

fn bad_spec(spec: &str, reason: &str) -> FaultParseError {
    FaultParseError(format!(
        "bad fault spec '{spec}' ({reason}; expected site:action[:nth[:attempts]], \
         sites: dram, exec, store_read, store_write, worker, sched; actions: error, panic)"
    ))
}

fn parse_positive(spec: &str, text: &str) -> Result<u64, FaultParseError> {
    match text.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(bad_spec(spec, "counts must be positive integers")),
    }
}

/// Why a cancelled job stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Requested,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CancelReason::Requested => "cancellation requested",
            CancelReason::DeadlineExceeded => "deadline exceeded",
        })
    }
}

/// The structured payload an injected or cancelled simulation unwinds
/// with. Supervisors downcast the panic payload to this type to
/// distinguish injected faults and cancellations from genuine bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// An injected fault from a [`FaultSpec`] with [`FaultAction::Error`].
    Injected {
        /// The site that tripped.
        site: FaultSite,
        /// The op ordinal it tripped at.
        op: u64,
    },
    /// A cooperative cancellation (see [`check_cancel`]).
    Cancelled {
        /// Why the token tripped.
        reason: CancelReason,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::Injected { site, op } => {
                write!(f, "injected fault at site '{site}' (op {op})")
            }
            SimFault::Cancelled {
                reason: CancelReason::Requested,
            } => f.write_str("cancelled by request"),
            SimFault::Cancelled {
                reason: CancelReason::DeadlineExceeded,
            } => f.write_str("cancelled: deadline exceeded"),
        }
    }
}

impl std::error::Error for SimFault {}

/// A shared cancellation flag (plus optional deadline) checked
/// cooperatively at cluster and layer boundaries. Cheap to clone through
/// an `Arc`; the serving layer hands one end to the submitter's ticket
/// and arms the other around the job's execution.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `deadline` passes. The wall
    /// clock is consulted only when a deadline is set, and only decides
    /// *whether* a job completes — never what a completed report
    /// contains — so the determinism contract is unaffected.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Trips the token; every subsequent boundary check unwinds.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True when [`cancel`](Self::cancel) has been called (does not
    /// consult the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The reason the token has tripped, if it has.
    pub fn state(&self) -> Option<CancelReason> {
        if self.is_cancelled() {
            return Some(CancelReason::Requested);
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }
}

thread_local! {
    /// Fast disarmed check: true iff `PLAN` holds at least one spec. Read
    /// on every site poke; the plan itself is only copied when armed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The armed plan of the current scope ([`with_plan`]).
    static PLAN: Cell<FaultPlan> = const { Cell::new(FaultPlan::OFF) };
    /// The 1-based retry attempt of the current scope ([`with_attempt`]).
    static ATTEMPT: Cell<u64> = const { Cell::new(1) };
    /// Per-site op counters of the current scope, reset by [`with_plan`]
    /// (used by the single-threaded store sites via [`check_scoped`]).
    static SCOPED_OPS: Cell<[u64; 6]> = const { Cell::new([0; 6]) };
    /// The cancel token of the current scope ([`with_cancel`]).
    static CANCEL: RefCell<Option<Arc<CancelToken>>> = const { RefCell::new(None) };
}

/// Process-wide count of injection decisions taken — telemetry only (the
/// chaos soak asserts a floor on it); never consulted by a decision, so
/// it cannot perturb determinism.
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Total injections performed by this process so far.
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Restores a thread-local [`Cell`] on drop (also on panic).
struct Restore<T: Copy + 'static>(&'static std::thread::LocalKey<Cell<T>>, T);

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

/// Restores the thread-local cancel token on drop (also on panic).
struct RestoreCancel(Option<Arc<CancelToken>>);

impl Drop for RestoreCancel {
    fn drop(&mut self) {
        CANCEL.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Runs `f` with `plan` armed on this thread (scope-local op counters
/// reset), restoring the previous plan and counters afterwards (also on
/// panic). Engines arm their configured plan around the layer loop;
/// the serving layer arms a job's plan around its store operations.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let _armed = Restore(&ARMED, ARMED.replace(plan.is_armed()));
    let _plan = Restore(&PLAN, PLAN.replace(plan));
    let _ops = Restore(&SCOPED_OPS, SCOPED_OPS.replace([0; 6]));
    f()
}

/// The plan armed on this thread ([`FaultPlan::OFF`] when none).
pub fn current_plan() -> FaultPlan {
    PLAN.get()
}

/// Runs `f` with the 1-based retry `attempt` number set on this thread,
/// restoring the previous value afterwards (also on panic).
pub fn with_attempt<R>(attempt: u64, f: impl FnOnce() -> R) -> R {
    let _attempt = Restore(&ATTEMPT, ATTEMPT.replace(attempt.max(1)));
    f()
}

/// The 1-based retry attempt in effect on this thread (1 when unset).
pub fn current_attempt() -> u64 {
    ATTEMPT.get()
}

/// Runs `f` with `token` installed as this thread's cancel token,
/// restoring the previous token afterwards (also on panic).
pub fn with_cancel<R>(token: Option<Arc<CancelToken>>, f: impl FnOnce() -> R) -> R {
    let _restore = RestoreCancel(CANCEL.with(|c| c.replace(token)));
    f()
}

/// The cancel token installed on this thread by [`with_cancel`], if any —
/// for handing the caller's token on to work that runs on other threads.
pub fn current_cancel() -> Option<Arc<CancelToken>> {
    CANCEL.with(|c| c.borrow().clone())
}

/// The cancel state of this thread's token, if one is armed and tripped.
/// Non-unwinding — supervisors probe this between retry attempts.
pub fn cancel_state() -> Option<CancelReason> {
    CANCEL.with(|c| c.borrow().as_ref().and_then(|t| t.state()))
}

/// Cooperative cancellation point: unwinds with [`SimFault::Cancelled`]
/// when this thread's token has tripped. Called at layer and cluster
/// boundaries by the shared pipeline harness; near-free when no token is
/// armed.
pub fn check_cancel() {
    if let Some(reason) = cancel_state() {
        std::panic::panic_any(SimFault::Cancelled { reason });
    }
}

/// A snapshot of this thread's fault state (plan, attempt, scoped
/// counters, cancel token) for replay on an [`exec`](crate::exec) worker
/// thread — the fault-layer counterpart of
/// [`ExecContext`](crate::exec::ExecContext).
#[derive(Debug, Clone)]
pub struct FaultContext {
    plan: FaultPlan,
    armed: bool,
    attempt: u64,
    scoped: [u64; 6],
    cancel: Option<Arc<CancelToken>>,
}

impl FaultContext {
    /// Captures the calling thread's fault state.
    pub fn capture() -> FaultContext {
        FaultContext {
            plan: PLAN.get(),
            armed: ARMED.get(),
            attempt: ATTEMPT.get(),
            scoped: SCOPED_OPS.get(),
            cancel: current_cancel(),
        }
    }

    /// Runs `f` with this snapshot in effect on the current thread,
    /// restoring the previous state afterwards (also on panic).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let _armed = Restore(&ARMED, ARMED.replace(self.armed));
        let _plan = Restore(&PLAN, PLAN.replace(self.plan));
        let _attempt = Restore(&ATTEMPT, ATTEMPT.replace(self.attempt));
        let _ops = Restore(&SCOPED_OPS, SCOPED_OPS.replace(self.scoped));
        let _cancel = RestoreCancel(CANCEL.with(|c| c.replace(self.cancel.clone())));
        f()
    }
}

/// The armed decision for (`site`, `ordinal`) on this thread. Counts the
/// injection when one is taken.
fn decide(site: FaultSite, ordinal: u64) -> Option<FaultAction> {
    let action = PLAN.get().action_at(site, ordinal, ATTEMPT.get())?;
    INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
    Some(action)
}

/// Site poke for callers that *can* return errors (the store): checks the
/// plan at the given op `ordinal`. [`FaultAction::Error`] comes back as
/// `Err`; [`FaultAction::Panic`] panics with a plain message.
#[inline]
pub fn check_at(site: FaultSite, ordinal: u64) -> Result<(), SimFault> {
    if !ARMED.get() {
        return Ok(());
    }
    match decide(site, ordinal) {
        None => Ok(()),
        Some(FaultAction::Error) => Err(SimFault::Injected { site, op: ordinal }),
        Some(FaultAction::Panic) => {
            panic!("injected panic at site '{site}' (op {ordinal})")
        }
    }
}

/// Site poke for hot paths whose signatures cannot return errors (DRAM
/// issue, plan→replay hand-off): like [`check_at`] but an injected *error*
/// unwinds with the structured [`SimFault`] payload, which the
/// supervisor downcasts back into an error. Near-free when disarmed (one
/// thread-local flag read).
#[inline]
pub fn trip_at(site: FaultSite, ordinal: u64) {
    if !ARMED.get() {
        return;
    }
    match decide(site, ordinal) {
        None => {}
        Some(FaultAction::Error) => std::panic::panic_any(SimFault::Injected { site, op: ordinal }),
        Some(FaultAction::Panic) => {
            panic!("injected panic at site '{site}' (op {ordinal})")
        }
    }
}

/// Like [`check_at`] with the ordinal taken from this scope's per-site
/// counter (incremented per call; reset by [`with_plan`]). For
/// single-threaded sites — the store — where "the job's nth store read"
/// is the natural unit.
pub fn check_scoped(site: FaultSite) -> Result<(), SimFault> {
    if !ARMED.get() {
        return Ok(());
    }
    let mut ops = SCOPED_OPS.get();
    ops[site.index()] += 1;
    let ordinal = ops[site.index()];
    SCOPED_OPS.set(ops);
    check_at(site, ordinal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_and_defaults() {
        let plan = FaultPlan::parse("dram:error:3+store_write:panic:1:2").unwrap();
        assert_eq!(plan.render(), "dram:error:3:1+store_write:panic:1:2");
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        let sched = FaultPlan::parse("sched:error:2").unwrap();
        assert_eq!(
            sched.action_at(FaultSite::Sched, 2, 1),
            Some(FaultAction::Error)
        );
        let shorthand = FaultPlan::parse("exec:panic").unwrap();
        assert_eq!(
            shorthand.specs().next().unwrap(),
            FaultSpec {
                site: FaultSite::ExecHandoff,
                action: FaultAction::Panic,
                nth: 1,
                attempts: 1
            }
        );
        for off in ["off", "none", "OFF", " none "] {
            assert!(FaultPlan::parse(off).unwrap().is_off(), "{off:?}");
        }
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "",
            "dram",
            "dram:boom",
            "nowhere:error",
            "dram:error:0",
            "dram:error:1:0",
            "dram:error:1:1:1",
            "dram:error:many",
            "dram:error+exec:panic+store_read:error+store_write:error+worker:panic",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn decision_is_count_and_attempt_based() {
        let plan = FaultPlan::parse("dram:error:2:2").unwrap();
        assert_eq!(plan.action_at(FaultSite::DramIssue, 1, 1), None);
        assert_eq!(
            plan.action_at(FaultSite::DramIssue, 2, 1),
            Some(FaultAction::Error)
        );
        assert_eq!(
            plan.action_at(FaultSite::DramIssue, 2, 2),
            Some(FaultAction::Error)
        );
        assert_eq!(plan.action_at(FaultSite::DramIssue, 2, 3), None);
        assert_eq!(plan.action_at(FaultSite::ExecHandoff, 2, 1), None);
    }

    #[test]
    fn disarmed_pokes_are_noops() {
        assert!(check_at(FaultSite::StoreRead, 1).is_ok());
        trip_at(FaultSite::DramIssue, 1);
        assert!(check_scoped(FaultSite::StoreWrite).is_ok());
    }

    #[test]
    fn armed_scope_trips_and_restores() {
        let plan = FaultPlan::parse("store_read:error:2").unwrap();
        with_plan(plan, || {
            assert!(check_scoped(FaultSite::StoreRead).is_ok(), "op 1");
            let fault = check_scoped(FaultSite::StoreRead).unwrap_err();
            assert_eq!(
                fault,
                SimFault::Injected {
                    site: FaultSite::StoreRead,
                    op: 2
                }
            );
            assert!(check_scoped(FaultSite::StoreRead).is_ok(), "op 3");
        });
        // Scope counters reset per arming, and the outer scope is clean.
        with_plan(plan, || {
            assert!(check_scoped(FaultSite::StoreRead).is_ok(), "fresh op 1");
        });
        assert!(check_scoped(FaultSite::StoreRead).is_ok());
    }

    #[test]
    fn attempts_make_faults_transient() {
        let plan = FaultPlan::parse("dram:error:1:2").unwrap();
        with_plan(plan, || {
            for attempt in 1..=2 {
                with_attempt(attempt, || {
                    let hit = std::panic::catch_unwind(|| trip_at(FaultSite::DramIssue, 1));
                    let payload = hit.expect_err("attempt within budget trips");
                    let fault = payload.downcast::<SimFault>().expect("structured payload");
                    assert_eq!(
                        *fault,
                        SimFault::Injected {
                            site: FaultSite::DramIssue,
                            op: 1
                        }
                    );
                });
            }
            with_attempt(3, || trip_at(FaultSite::DramIssue, 1));
        });
    }

    #[test]
    fn panic_action_unwinds_with_a_plain_message() {
        let plan = FaultPlan::parse("exec:panic:1").unwrap();
        let payload = with_plan(plan, || {
            std::panic::catch_unwind(|| trip_at(FaultSite::ExecHandoff, 1))
        })
        .expect_err("must trip");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("injected panic"), "{message}");
    }

    #[test]
    fn cancel_token_trips_checks() {
        let token = Arc::new(CancelToken::new());
        with_cancel(Some(Arc::clone(&token)), || {
            assert_eq!(cancel_state(), None);
            check_cancel();
            token.cancel();
            assert_eq!(cancel_state(), Some(CancelReason::Requested));
            let payload =
                std::panic::catch_unwind(check_cancel).expect_err("tripped token unwinds");
            let fault = payload.downcast::<SimFault>().expect("structured payload");
            assert_eq!(
                *fault,
                SimFault::Cancelled {
                    reason: CancelReason::Requested
                }
            );
        });
        check_cancel(); // token restored away: no unwind
    }

    #[test]
    fn deadline_tokens_report_the_deadline_reason() {
        let token = Arc::new(CancelToken::with_deadline(Instant::now()));
        assert_eq!(token.state(), Some(CancelReason::DeadlineExceeded));
        assert!(!token.is_cancelled(), "flag untouched by deadline");
    }

    #[test]
    fn context_replays_state_onto_another_scope() {
        let plan = FaultPlan::parse("dram:error:1").unwrap();
        let token = Arc::new(CancelToken::new());
        let ctx = with_plan(plan, || {
            with_attempt(2, || {
                with_cancel(Some(Arc::clone(&token)), FaultContext::capture)
            })
        });
        ctx.scope(|| {
            assert_eq!(current_plan(), plan);
            assert_eq!(current_attempt(), 2);
            token.cancel();
            assert_eq!(cancel_state(), Some(CancelReason::Requested));
        });
        assert!(current_plan().is_off(), "state restored");
        assert_eq!(cancel_state(), None);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let sites = [FaultSite::DramIssue, FaultSite::ExecHandoff];
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, &sites, 3, 2);
            assert_eq!(a, FaultPlan::seeded(seed, &sites, 3, 2));
            let spec = a.specs().next().unwrap();
            assert!(sites.contains(&spec.site));
            assert!((1..=3).contains(&spec.nth));
            assert!((1..=2).contains(&spec.attempts));
        }
        // The generator explores both actions and several ordinals.
        let specs: Vec<FaultSpec> = (0..64)
            .map(|s| FaultPlan::seeded(s, &sites, 3, 2).specs().next().unwrap())
            .collect();
        assert!(specs.iter().any(|s| s.action == FaultAction::Error));
        assert!(specs.iter().any(|s| s.action == FaultAction::Panic));
        assert!(specs.iter().any(|s| s.nth > 1));
    }
}
