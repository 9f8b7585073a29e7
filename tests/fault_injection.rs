//! The fault-injection battery: every engine × injection site yields a
//! clean [`JobError`] or a successfully retried result — never a hung
//! ticket, never a dead batch, never a divergent report.
//!
//! The properties under test:
//!
//! * a *transient* fault (its `attempts` bound below the retry budget)
//!   retries to a report **bit-identical** to the fault-free baseline,
//!   on every engine, at both hot sites (`dram`, and `sched` on an
//!   `exec=e2e` job), with both actions (`error`, `panic`);
//! * a *permanent* fault fails alone with the structured error matching
//!   its action ([`JobError::Injected`] / [`JobError::Panicked`]);
//! * injection is deterministic: a faulted fleet is bit-identical
//!   between `GROW_SERIAL=1`-style forced-serial and oversubscribed
//!   parallel execution;
//! * the store sites degrade gracefully: a torn write (`store_write`
//!   fault) orphans a tmp file that [`ResultStore::scrub`] reclaims, a
//!   `store_read` error quarantines and recomputes, a `store_read`
//!   panic fails that job as [`JobError::StoreCorrupt`];
//! * cancellation is cooperative and clean: a pre-cancelled scope or an
//!   expired deadline yields [`JobError::Cancelled`], cached results
//!   still deliver, and nothing is retried;
//! * a worker kill (the `worker` site) never surfaces as a panic to
//!   submitters: waiters get [`WaitError::ServiceDead`], later submits
//!   get [`SubmitError::ServiceDead`], and the shutdown report lists
//!   the casualties.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::quiet_injected_panics;
use grow::accel::registry::{self, RegistryError};
use grow::model::DatasetKey;
use grow::serve::{
    AsyncConfig, AsyncService, BatchService, JobError, JobSpec, ResultStore, SubmitError, WaitError,
};
use grow::sim::exec::{with_mode, with_workers, ExecMode};
use grow::sim::fault::{self, CancelReason, CancelToken, FaultSite};

fn spec() -> grow::model::DatasetSpec {
    DatasetKey::Cora.spec().scaled_to(300)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "grow_fault_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_engine_and_site_retries_transient_faults_to_the_baseline() {
    quiet_injected_panics();
    let mut service = BatchService::new();
    for engine in registry::ENGINE_NAMES {
        // The `sched` site only trips in the e2e dispatch loop.
        let job = JobSpec::new(spec(), 7, engine);
        for (site, job) in [
            ("dram", job.clone()),
            ("sched", job.with_override("exec", "e2e")),
        ] {
            let baseline = service.run_one(&job).outcome.expect("fault-free baseline");
            for action in ["error", "panic"] {
                // attempts=2 < the default retry budget of 3: the
                // fault fires on attempts 1 and 2, attempt 3 runs
                // fault-free and must reproduce the baseline.
                let fault = format!("{site}:{action}:1:2");
                let result = service.run_one(&job.clone().with_fault(&fault));
                let report = result
                    .outcome
                    .unwrap_or_else(|e| panic!("{engine} {fault}: {e}"));
                assert_eq!(report, baseline, "{engine} {fault}");
                assert!(!result.cache_hit, "{engine} {fault} genuinely re-ran");
            }
        }
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(
        stats.retries, 32,
        "every one of 16 faulted jobs fired twice"
    );
    assert!(stats.panics_caught >= 16, "panic actions were caught");
}

#[test]
fn permanent_faults_fail_alone_with_the_matching_error() {
    quiet_injected_panics();
    let mut service = BatchService::new();
    for engine in registry::ENGINE_NAMES {
        // attempts=99 >= the budget: every attempt fires, the job
        // fails cleanly after exhausting its 3 attempts.
        let injected =
            service.run_one(&JobSpec::new(spec(), 7, engine).with_fault("dram:error:1:99"));
        assert_eq!(
            injected.outcome,
            Err(JobError::Injected {
                site: FaultSite::DramIssue,
                attempts: 3,
            }),
            "{engine}"
        );
        let panicked =
            service.run_one(&JobSpec::new(spec(), 7, engine).with_fault("dram:panic:1:99"));
        match panicked.outcome {
            Err(JobError::Panicked { attempts: 3, .. }) => {}
            other => panic!("{engine}: expected a caught panic, got {other:?}"),
        }
    }
    // A failing job is never cached: the same spec re-fails afresh.
    let before = service.stats().simulations_run;
    let again = service.run_one(&JobSpec::new(spec(), 7, "grow").with_fault("dram:error:1:99"));
    assert!(again.outcome.is_err());
    assert!(service.stats().simulations_run > before);
}

#[test]
fn faulted_fleets_are_bit_identical_serial_vs_parallel() {
    quiet_injected_panics();
    // A mixed fleet where most jobs carry a transient fault; the
    // retried outcomes (and the one permanent failure) must not
    // depend on the execution mode.
    let mut jobs = Vec::new();
    for (i, engine) in registry::ENGINE_NAMES.iter().enumerate() {
        jobs.push(JobSpec::new(spec(), 7, engine));
        jobs.push(JobSpec::new(spec(), 7, engine).with_fault("dram:error:1:2"));
        jobs.push(
            JobSpec::new(spec(), 7, engine)
                .with_fault(["dram:panic:3:2", "dram:panic:2:1", "dram:error:2:2"][i % 3]),
        );
    }
    jobs.push(JobSpec::new(spec(), 7, "grow").with_fault("dram:error:1:99"));

    let run = |jobs: &[JobSpec]| {
        let mut service = BatchService::new();
        let results = service.run_batch(jobs);
        (results, service.stats().retries)
    };
    let (serial, serial_retries) = with_mode(ExecMode::Serial, || run(&jobs));
    let (parallel, parallel_retries) = with_workers(8, || run(&jobs));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.outcome, p.outcome, "job {} diverged", s.index);
    }
    // Every fault fired: two retries for each of the seven `attempts=2`
    // jobs and for the permanent failure, one for `dram:panic:2:1`.
    assert_eq!((serial_retries, parallel_retries), (17, 17));
    // The faulted copies converged to their fault-free twins.
    for chunk in serial.chunks(3).take(4) {
        let base = chunk[0].outcome.as_ref().expect("fault-free job");
        assert_eq!(chunk[1].outcome.as_ref().expect("transient"), base);
        assert_eq!(chunk[2].outcome.as_ref().expect("transient"), base);
    }
    assert!(serial.last().unwrap().outcome.is_err(), "permanent fault");
}

#[test]
fn torn_writes_orphan_a_tmp_file_that_scrub_reclaims() {
    let dir = temp_dir("torn");
    let store = ResultStore::open(&dir).expect("open store");
    let mut service = BatchService::new().with_store(store);
    // The store_write fault fires between the tmp write and the atomic
    // rename — exactly a crash mid-persist. The job itself succeeds.
    let result =
        service.run_one(&JobSpec::new(spec(), 7, "grow").with_fault("store_write:error:1"));
    assert!(
        result.outcome.is_ok(),
        "a torn write is a warning, not a failure"
    );

    let tmp_files = |dir: &std::path::Path| -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        e.path()
                            .extension()
                            .and_then(|x| x.to_str())
                            .is_some_and(|x| x.starts_with("tmp"))
                    })
                    .count()
            })
            .unwrap_or(0)
    };
    assert_eq!(tmp_files(&dir), 1, "the torn write left its tmp behind");

    let mut store = ResultStore::open(&dir).expect("reopen store");
    let scrub = store.scrub().expect("scrub");
    assert_eq!(scrub.tmp_removed, 1);
    assert_eq!(scrub.quarantined, 0);
    assert_eq!(tmp_files(&dir), 0, "scrub reclaimed the orphan");
    // A second scrub is a no-op: the store is healthy.
    assert_eq!(store.scrub().expect("rescrub").tmp_removed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_read_faults_quarantine_gracefully_or_fail_as_corrupt() {
    quiet_injected_panics();
    let dir = temp_dir("read");
    // First lifetime persists the entry under the faulted job's own
    // key (the fault override participates in the key, and a
    // store_read fault cannot fire on a cache miss).
    let job = JobSpec::new(spec(), 7, "gcnax").with_fault("store_read:error:1:99");
    let store = ResultStore::open(&dir).expect("open store");
    let baseline = BatchService::new()
        .with_store(store)
        .run_one(&job)
        .outcome
        .expect("first run computes");

    // Second lifetime hits the entry; the read fault degrades it to
    // a quarantine + miss and the job recomputes bit-identically.
    let store = ResultStore::open(&dir).expect("reopen store");
    let mut service = BatchService::new().with_store(store);
    let retried = service.run_one(&job);
    assert_eq!(retried.outcome.as_ref(), Ok(&baseline));
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e
                .path()
                .extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| x.starts_with("corrupt"))),
        "the unreadable entry was quarantined, not deleted"
    );

    // A store_read *panic* is the unrecoverable shape: the probe
    // panics, the supervisor catches it, and that job alone fails
    // as StoreCorrupt.
    let panic_job = JobSpec::new(spec(), 7, "gcnax").with_fault("store_read:panic:1:99");
    let store = ResultStore::open(&dir).expect("reopen store");
    let mut service = BatchService::new().with_store(store);
    assert!(
        service.run_one(&panic_job).outcome.is_ok(),
        "miss: computes"
    );
    let store = ResultStore::open(&dir).expect("reopen store");
    let mut service = BatchService::new().with_store(store);
    match service.run_one(&panic_job).outcome {
        Err(JobError::StoreCorrupt { .. }) => {}
        other => panic!("expected StoreCorrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_is_cooperative_and_never_retried() {
    // A pre-cancelled scope: the supervisor refuses to even start the
    // attempt, and the job reports Cancelled with zero retries.
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let mut service = BatchService::new();
    let result = fault::with_cancel(Some(Arc::clone(&token)), || {
        service.run_one(&JobSpec::new(spec(), 7, "grow"))
    });
    assert_eq!(
        result.outcome,
        Err(JobError::Cancelled {
            reason: CancelReason::Requested,
        })
    );
    let stats = service.stats();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.retries, 0, "cancellation is not a transient fault");

    // End to end: an already-expired deadline cancels deterministically
    // before the worker starts the attempt.
    let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
    let expired = service
        .submit_with_deadline(
            JobSpec::new(spec(), 7, "gamma"),
            grow::serve::Priority::Normal,
            Duration::ZERO,
        )
        .expect("admitted");
    let result = expired.wait().expect("worker alive");
    assert_eq!(
        result.outcome,
        Err(JobError::Cancelled {
            reason: CancelReason::DeadlineExceeded,
        })
    );

    // A completed result still delivers to a cancelled submitter: the
    // cache (warmed by a prior run) wins over the expired deadline.
    let warm = service
        .submit(JobSpec::new(spec(), 7, "grow"))
        .expect("admitted");
    let baseline = warm.wait().expect("worker alive").outcome.expect("runs");
    let cached = service
        .submit_with_deadline(
            JobSpec::new(spec(), 7, "grow"),
            grow::serve::Priority::Normal,
            Duration::ZERO,
        )
        .expect("admitted");
    let result = cached.wait().expect("worker alive");
    assert_eq!(
        result.outcome,
        Ok(baseline),
        "cancellation never un-completes"
    );
    assert!(result.cache_hit);
    service.finish();
}

#[test]
fn cancelled_batch_duplicates_share_one_run() {
    // Every job of a batch carries the caller's token, so a tripped token
    // cancels the duplicates of a key together: one run, two cancellations.
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let job = JobSpec::new(spec(), 7, "grow");
    let mut service = BatchService::new();
    let results = fault::with_cancel(Some(token), || service.run_batch(&[job.clone(), job]));
    let cancelled = Err(JobError::Cancelled {
        reason: CancelReason::Requested,
    });
    assert!(
        results.iter().all(|r| r.outcome == cancelled),
        "{results:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.simulations_run, 1, "exactly one computation per key");
    assert_eq!(stats.jobs_cancelled, 2);
    assert_eq!((stats.jobs_submitted, stats.jobs_failed), (2, 2));
}

#[test]
fn ticket_cancel_is_race_free_and_clean() {
    // Ticket::cancel races the worker by design; the property is that
    // the outcome is always one of exactly two clean shapes — a
    // completed report or a Cancelled error — never a hang or a panic.
    let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit(JobSpec::new(spec(), 7, registry::ENGINE_NAMES[i % 4]))
                .expect("admitted")
        })
        .collect();
    for ticket in &tickets[1..] {
        ticket.cancel();
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.wait().expect("worker alive");
        match (i, result.outcome) {
            (0, Ok(_)) => {}
            (0, other) => panic!("uncancelled job failed: {other:?}"),
            (
                _,
                Ok(_)
                | Err(JobError::Cancelled {
                    reason: CancelReason::Requested,
                }),
            ) => {}
            (_, other) => panic!("cancelled job {i}: unexpected {other:?}"),
        }
    }
    service.finish();
}

#[test]
fn worker_kill_surfaces_as_service_dead_never_a_panic() {
    quiet_injected_panics();
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: 16,
            session_capacity: None,
            workers: 1,
        },
    );
    // One healthy job, then the kill, then a bystander that may be
    // queued behind it (or rejected outright if the worker is
    // already dead — both are clean).
    let healthy = service
        .submit(JobSpec::new(spec(), 7, "grow"))
        .expect("admitted");
    let victim = service
        .submit(JobSpec::new(spec(), 7, "gcnax").with_fault("worker:panic:1"))
        .expect("admitted");
    let victim_id = victim.id();
    let bystander = service.submit(JobSpec::new(spec(), 7, "gamma"));

    assert_eq!(victim.wait().err(), Some(WaitError::ServiceDead));
    match bystander {
        Ok(ticket) => {
            // try_wait is a non-blocking snapshot: "still pending" is
            // legal for the instant the dying worker is still unwinding,
            // but it must never panic — and the blocking wait must then
            // observe the death.
            match ticket.try_wait() {
                Ok(None) | Err(WaitError::ServiceDead) => {}
                other => panic!("bystander try_wait: unexpected {other:?}"),
            }
            assert_eq!(ticket.wait().err(), Some(WaitError::ServiceDead));
        }
        Err(SubmitError::ServiceDead) => {}
        Err(other) => panic!("unexpected submit error: {other}"),
    }
    // The healthy job either completed before the kill or died with
    // the worker — never a poisoned panic out of wait().
    match healthy.wait() {
        Ok(result) => assert!(result.outcome.is_ok()),
        Err(WaitError::ServiceDead) => {}
    }

    // The dead service stays inert and non-panicking.
    assert!(service.worker_dead());
    assert_eq!(
        service.submit(JobSpec::new(spec(), 7, "grow")).err(),
        Some(SubmitError::ServiceDead)
    );
    let _ = service.completed_ids();
    let _ = service.stats();
    assert!(service.casualties().contains(&victim_id));

    let (_, report) = service.finish_report();
    assert!(report.worker_panicked);
    assert!(report.casualties.contains(&victim_id));
}

#[test]
fn worker_kill_under_run_batch_fails_the_lost_jobs_structurally() {
    quiet_injected_panics();
    // `run_batch` runs on a worker pool, so a `worker` fault kills a pool
    // worker. Under a serial scope the pool has one worker and picks jobs
    // in order: the clean job completes, the victim kills the worker, and
    // the bystander is lost with it. Every job still gets a result.
    let clean = JobSpec::new(spec(), 7, "grow");
    let jobs = [
        clean.clone(),
        JobSpec::new(spec(), 7, "gcnax").with_fault("worker:panic:1"),
        JobSpec::new(spec(), 7, "gamma"),
    ];
    let mut service = BatchService::new();
    let results = with_mode(ExecMode::Serial, || service.run_batch(&jobs));
    assert_eq!(results.len(), jobs.len());
    assert!(results[0].outcome.is_ok(), "{:?}", results[0].outcome);
    for lost in &results[1..] {
        assert_eq!(
            lost.outcome,
            Err(JobError::Panicked {
                message: WaitError::ServiceDead.to_string(),
                attempts: 1,
            }),
            "job {}",
            lost.index
        );
        assert_eq!(lost.key, jobs[lost.index].key());
    }
    let stats = service.stats();
    assert_eq!((stats.jobs_submitted, stats.jobs_failed), (3, 2));

    // The service came back warm: the clean job is now a cache hit.
    let again = with_mode(ExecMode::Serial, || service.run_one(&clean));
    assert!(again.cache_hit);
    assert_eq!(again.outcome, results[0].outcome);
}

#[test]
fn sched_faults_on_e2e_jobs_retry_to_the_baseline() {
    quiet_injected_panics();
    let mut service = BatchService::new();
    let e2e = |fault: Option<&str>| {
        let job = JobSpec::new(spec(), 13, "grow")
            .with_override("exec", "e2e")
            .with_override("pes", "4");
        match fault {
            Some(f) => job.with_fault(f),
            None => job,
        }
    };
    let baseline = service
        .run_one(&e2e(None))
        .outcome
        .expect("fault-free baseline");
    // Transient faults at the scheduler's dispatch hand-offs retry to
    // the exact baseline, with both actions.
    for action in ["error", "panic"] {
        let fault = format!("sched:{action}:1:2");
        let result = service.run_one(&e2e(Some(&fault)));
        let report = result.outcome.unwrap_or_else(|e| panic!("{fault}: {e}"));
        assert_eq!(report, baseline, "{fault}");
        assert!(!result.cache_hit, "{fault} genuinely re-ran");
    }
    // A permanent sched fault (attempts >= the budget) fails the e2e
    // job alone.
    let permanent = service.run_one(&e2e(Some("sched:error:1:99")));
    assert!(
        matches!(permanent.outcome, Err(JobError::Injected { .. })),
        "permanent sched fault surfaces structurally: {:?}",
        permanent.outcome
    );
    // Off the e2e path the sched site has no trip points: the fault
    // arms but never fires, and the report matches the fault-free run.
    // The post-hoc projection runs the same fluid loop inside the armed
    // run (when the report is finalized), so a firing would show only as
    // a retry or a caught panic, never in the retried report: neither
    // counter may move.
    let analytic = JobSpec::new(spec(), 13, "grow").with_pes(4);
    let clean = service.run_one(&analytic).outcome.expect("clean");
    let before = service.stats();
    let armed = service.run_one(&analytic.clone().with_fault("sched:panic:1"));
    assert!(!armed.cache_hit, "the armed job ran");
    assert_eq!(
        armed.outcome.expect("site never reached in analytic mode"),
        clean
    );
    let after = service.stats();
    assert_eq!(after.retries, before.retries, "the sched site fired");
    assert_eq!(after.panics_caught, before.panics_caught);
}

#[test]
fn one_worker_death_degrades_the_pool_but_not_the_service() {
    quiet_injected_panics();
    let workers = 3usize;
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: 64,
            session_capacity: None,
            workers,
        },
    );
    assert_eq!(service.workers_alive(), workers);
    // `worker:panic:2` kills pool worker 2 and only worker 2 — every
    // other worker serves the same spec unharmed. Feed poisoned jobs
    // until the victim picks one up and dies with it (bounded; in
    // practice the first couple of submissions suffice).
    let mut orphaned = 0usize;
    let mut attempts = 0u64;
    while service.workers_alive() == workers && attempts < 100 {
        attempts += 1;
        let bait = JobSpec::new(spec(), 30 + attempts, "gcnax").with_fault("worker:panic:2");
        if service.submit(bait).expect("admitted").wait().is_err() {
            orphaned += 1;
        }
    }
    assert_eq!(
        service.workers_alive(),
        workers - 1,
        "exactly the victim died"
    );
    assert!(
        !service.worker_dead(),
        "a degraded pool is not a dead service"
    );
    assert_eq!(service.casualties().len(), orphaned);
    // The degraded pool keeps serving — including the poisoned spec
    // itself, now that its designated victim is gone.
    let after = service
        .submit(JobSpec::new(spec(), 29, "gcnax").with_fault("worker:panic:2"))
        .expect("degraded pool still admits")
        .wait()
        .expect("a survivor serves it");
    assert!(after.outcome.is_ok());

    let (_, report) = service.finish_report();
    assert!(report.worker_panicked, "the death is reported at shutdown");
    assert_eq!(report.casualties.len(), orphaned);
}

#[test]
fn a_bad_dataset_recipe_fails_validation_alone() {
    // A zero-node recipe would panic while its workload is generated.
    // Staging rejects it first, so the job fails alone as Invalid without
    // instantiating anything (`batch.rs`'s
    // `a_panic_while_preparing_is_supervised` covers a preparation panic).
    let mut empty = spec();
    empty.nodes = 0;
    let bad = JobSpec::new(empty, 42, "grow");
    let failed = Err(JobError::Invalid(RegistryError::InvalidValue {
        key: "dataset.nodes".into(),
        value: "0".into(),
    }));
    let good = [
        JobSpec::new(spec(), 42, "grow"),
        JobSpec::new(spec(), 42, "gcnax"),
    ];

    // On a pool: no worker dies, and the pool serves the next job.
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            workers: 2,
            ..AsyncConfig::default()
        },
    );
    let lost = |e| panic!("the bad recipe killed a worker ({e})");
    let result = service.submit(bad.clone()).expect("admitted");
    assert_eq!(result.wait().unwrap_or_else(lost).outcome, failed);
    let result = service.submit(good[0].clone()).expect("admitted");
    assert_eq!(
        result.wait().unwrap_or_else(lost).outcome,
        common::run_unserved(&good[0])
    );
    assert_eq!(service.workers_alive(), 2);
    let (batch, report) = service.finish_report();
    assert!(!report.worker_panicked && report.casualties.is_empty());
    assert_eq!(
        batch.pooled_sessions(),
        1,
        "the failed recipe pools nothing"
    );
    assert_eq!(batch.stats().sessions_created, 1, "nor instantiates");

    // In a single-worker batch, the jobs after it still run.
    let jobs = [bad, good[0].clone(), good[1].clone()];
    let results = with_mode(ExecMode::Serial, || BatchService::new().run_batch(&jobs));
    assert_eq!(results[0].outcome, failed);
    common::assert_unserved_outcomes(&jobs[1..], &results[1..]);
}

#[test]
fn seeded_plans_are_reproducible() {
    // The chaos generator is pure in its seed: the same seed yields the
    // same plan, different seeds explore different shapes.
    let sites = [FaultSite::DramIssue, FaultSite::Sched];
    let a = fault::FaultPlan::seeded(9, &sites, 4, 2);
    let b = fault::FaultPlan::seeded(9, &sites, 4, 2);
    assert_eq!(a.render(), b.render());
    let distinct: std::collections::HashSet<String> = (0..32)
        .map(|s| fault::FaultPlan::seeded(s, &sites, 4, 2).render())
        .collect();
    assert!(distinct.len() > 4, "seeds explore the grid");
    // And every generated plan round-trips through the spec grammar.
    for seed in 0..32 {
        let plan = fault::FaultPlan::seeded(seed, &sites, 4, 2);
        assert_eq!(
            fault::FaultPlan::parse(&plan.render())
                .expect("round-trip")
                .render(),
            plan.render()
        );
    }
}
