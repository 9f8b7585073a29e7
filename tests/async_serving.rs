//! Acceptance tests for the always-on serving front end and the on-disk
//! result store.
//!
//! The load-bearing properties:
//!
//! * draining an `AsyncService` over the mixed fleet yields outcomes
//!   **bit-identical** to `BatchService::run_batch`, under a forced-serial
//!   scope and an oversubscribed 8-worker scope (each CI leg additionally
//!   runs the whole file under `GROW_SERIAL=1` or parallel);
//! * a *restarted* service pointed at the same store directory serves the
//!   entire fleet from disk — zero simulations in its lifetime — with the
//!   exact reports of the first lifetime, and prepares *new* keys on the
//!   stored workloads from their persisted partition assignments, with
//!   the reports of a fresh service, on one worker and on four;
//! * corrupt, truncated, or wrong-key store entries are quarantined and
//!   recomputed, never served;
//! * admission control rejects over-capacity submissions with a reason,
//!   and priority classes reorder completion;
//! * a failed job hands its error to its queued twins instead of
//!   recomputing it — except a cancellation, which stays with its own
//!   ticket.
//!
//! `run_batch` is itself submit-all + wait on the pool, so the fleet is
//! also checked against service-free runs of each job.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use common::{mixed_jobs, WORKERS};
use grow::accel::extensions::{run_with_aggregation, AggregationKind};
use grow::accel::{GrowEngine, PartitionStrategy};
use grow::model::DatasetKey;
use grow::serve::{
    AsyncConfig, AsyncService, BatchService, JobError, JobResult, JobSpec, Priority, ResultStore,
    SubmitError, Ticket,
};
use grow::sim::exec::{with_mode, with_workers, ExecMode};
use grow::sim::fault::CancelReason;

/// A fresh, collision-free store directory per test.
fn temp_store_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "grow-async-serving-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Submits every job, waits every ticket (submission order), returns the
/// drained results and the recovered inner service.
fn drain(service: AsyncService, jobs: &[JobSpec]) -> (Vec<JobResult>, BatchService) {
    let tickets: Vec<Ticket> = jobs
        .iter()
        .map(|job| service.submit(job.clone()).expect("under the bound"))
        .collect();
    let results: Vec<JobResult> = tickets
        .into_iter()
        .map(|t| t.wait().expect("worker alive"))
        .collect();
    (results, service.finish())
}

fn assert_same_outcomes(sync: &[JobResult], asynchronous: &[JobResult]) {
    assert_eq!(sync.len(), asynchronous.len());
    for (s, a) in sync.iter().zip(asynchronous) {
        assert_eq!(
            s.outcome, a.outcome,
            "job {} ({} on {}) diverged between run_batch and async drain",
            s.index, s.engine, s.dataset
        );
        assert_eq!(s.key, a.key);
    }
}

#[test]
fn async_drain_is_bit_identical_to_run_batch() {
    let jobs = mixed_jobs();
    let both = |jobs: &[JobSpec]| {
        let sync = BatchService::new().run_batch(jobs);
        let (asynchronous, batch) = drain(
            AsyncService::start(BatchService::new(), AsyncConfig::default()),
            jobs,
        );
        assert_eq!(batch.stats().simulations_run, jobs.len() as u64 - 1);
        (sync, asynchronous)
    };

    // The worker thread inherits the caller's scoped overrides, so both
    // execution shapes run under each mode.
    let (sync_serial, async_serial) = with_mode(ExecMode::Serial, || both(&jobs));
    let (sync_parallel, async_parallel) = with_workers(WORKERS, || both(&jobs));

    assert_same_outcomes(&sync_serial, &async_serial);
    assert_same_outcomes(&sync_parallel, &async_parallel);
    assert_same_outcomes(&async_serial, &async_parallel);
    common::assert_unserved_outcomes(&jobs, &async_parallel);

    // Async results carry the submission id as their index, in order.
    for (i, r) in async_parallel.iter().enumerate() {
        assert_eq!(r.index, i);
    }
}

/// A service on the result store at `dir`, drained by `workers` workers.
fn start_on_store(dir: &Path, workers: usize) -> AsyncService {
    let store = ResultStore::open(dir).expect("open store");
    AsyncService::start(
        BatchService::new().with_store(store),
        AsyncConfig {
            workers,
            ..AsyncConfig::default()
        },
    )
}

#[test]
fn restarted_service_serves_the_fleet_from_disk() {
    for workers in [1, 4] {
        serves_the_fleet_from_disk(workers);
    }
}

fn serves_the_fleet_from_disk(workers: usize) {
    let jobs = mixed_jobs();
    let dir = temp_store_dir();

    // Lifetime 1: compute everything, persisting each report.
    let (first, batch) = drain(start_on_store(&dir, workers), &jobs);
    let stats = batch.stats();
    assert_eq!(stats.simulations_run, jobs.len() as u64 - 1);
    assert_eq!(stats.store_hits, 0);
    let store = batch.store().expect("store attached");
    assert_eq!(
        store.stats().persisted,
        jobs.len() as u64 - 1,
        "every computed report persisted; the failed job never does"
    );
    assert_eq!(store.len(), jobs.len() - 1);

    // Lifetime 2: a *fresh* service on the same directory — the entire
    // fleet must be served from disk, bit-identically, without running a
    // single simulation.
    let (second, batch) = drain(start_on_store(&dir, workers), &jobs);
    let stats = batch.stats();
    assert_eq!(
        stats.simulations_run, 0,
        "{workers} workers: second lifetime computes nothing"
    );
    assert_eq!(stats.store_hits, jobs.len() as u64 - 1);
    assert_eq!(stats.sessions_created, 0, "no workload even instantiated");
    for (f, s) in first.iter().zip(&second) {
        assert_eq!(
            f.outcome, s.outcome,
            "{workers} workers: store round-trip must be exact"
        );
        if s.outcome.is_ok() {
            assert!(s.cache_hit, "store hits are cache hits");
            assert_eq!(s.wall_ms, None, "no simulation ran");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_service_prepares_new_keys_without_repartitioning() {
    for workers in [1, 4] {
        prepares_new_keys_without_repartitioning(workers);
    }
}

/// The first lifetime runs on one worker, the restarted one on `workers`.
fn prepares_new_keys_without_repartitioning(workers: usize) {
    let jobs = mixed_jobs();
    let dir = temp_store_dir();
    let (_, batch) = drain(start_on_store(&dir, 1), &jobs);
    assert_eq!(batch.stats().partitions_loaded, 0, "nothing stored yet");

    // New keys on both stored workloads, under both strategies: every
    // (workload, strategy) pair is prepared again in the restarted
    // lifetime, and each partitioned one must load its assignment.
    let cora = DatasetKey::Cora.spec().scaled_to(600);
    let pubmed = DatasetKey::Pubmed.spec().scaled_to(900);
    let mut new_keys = Vec::new();
    for spec in [cora, pubmed] {
        for strategy in [
            PartitionStrategy::None,
            PartitionStrategy::Multilevel { cluster_nodes: 150 },
        ] {
            let job = JobSpec::new(spec, 21, "grow").with_strategy(strategy);
            new_keys.push(job.clone().with_override("runahead", "8"));
            new_keys.push(job.with_override("exec", "e2e").with_pes(4));
        }
        new_keys.push(JobSpec::new(spec, 21, "gamma").with_override("fiber_cache_kb", "256"));
    }
    let (restarted, batch) =
        with_workers(WORKERS, || drain(start_on_store(&dir, workers), &new_keys));
    let stats = batch.stats();
    assert_eq!(stats.store_hits, 0, "every key is new");
    assert_eq!(stats.simulations_run, new_keys.len() as u64);
    assert_eq!(
        stats.preparations_run, 4,
        "{workers} workers: 2 workloads x 2 strategies"
    );
    assert_eq!(
        stats.partitions_loaded, 2,
        "{workers} workers: both partitioned preparations loaded, so no partitioner ran"
    );

    let (fresh, _) = drain(
        AsyncService::start(BatchService::new(), AsyncConfig::default()),
        &new_keys,
    );
    assert_same_outcomes(&fresh, &restarted);
    common::assert_unserved_outcomes(&new_keys, &restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_entries_are_quarantined_not_served() {
    let dir = temp_store_dir();
    let mut store = ResultStore::open(&dir).expect("open store");
    let spec = DatasetKey::Cora.spec().scaled_to(300);
    let job = JobSpec::new(spec, 9, "grow");
    let key = job.key();
    let report = BatchService::new()
        .run_one(&job)
        .outcome
        .expect("valid job");
    store.persist(&key, &report).expect("persist");

    // The round trip is exact before any tampering.
    assert_eq!(store.load(&key), Some(report.clone()));
    assert_eq!(store.stats().hits, 1);

    // A truncated entry (torn write survived a crash) is quarantined.
    let path = store.entry_path(&key);
    let text = std::fs::read_to_string(&path).expect("entry exists");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
    assert_eq!(store.load(&key), None, "truncated entry never served");
    assert_eq!(store.stats().quarantined, 1);
    assert!(store.is_empty(), "quarantined files are not live entries");

    // Foreign bytes under the right name are quarantined too.
    std::fs::write(&path, "grow-store v2\nkey nonsense\n").expect("write");
    assert_eq!(store.load(&key), None);
    assert_eq!(store.stats().quarantined, 2);

    // An entry copied under another key's file name fails key
    // verification — a hash collision or a mis-filed entry is never
    // trusted.
    store.persist(&key, &report).expect("persist again");
    let other = JobSpec::new(spec, 10, "grow").key();
    std::fs::copy(store.entry_path(&key), store.entry_path(&other)).expect("copy");
    assert_eq!(store.load(&other), None, "wrong-key entry never served");

    // The serving path recomputes after quarantine instead of failing:
    // the original key's entry is intact, the mis-filed one is gone.
    let mut service = BatchService::new().with_store(store);
    let served = service.run_one(&job);
    assert!(served.cache_hit, "intact entry still serves");
    assert_eq!(served.outcome.expect("served"), report);
    assert_eq!(service.stats().simulations_run, 0);

    // An edited counter that still parses fails the entry's checksum:
    // one cycle added to the first phase is quarantined by a scrub and
    // by a fresh service's load, which recomputes the true report.
    let text = std::fs::read_to_string(&path).expect("entry exists");
    let phase = text
        .lines()
        .find(|l| l.starts_with("phase "))
        .expect("phase");
    let mut tokens: Vec<String> = phase.split(' ').map(str::to_string).collect();
    let cycles: u64 = tokens[2].parse().expect("cycle count");
    tokens[2] = (cycles + 1).to_string();
    let edited = text.replacen(phase, &tokens.join(" "), 1);
    std::fs::write(&path, &edited).expect("edit");
    let mut store = ResultStore::open(&dir).expect("reopen store");
    assert_eq!(store.scrub().expect("scrub").quarantined, 1);
    std::fs::write(&path, &edited).expect("edit again");
    let mut service = BatchService::new().with_store(store);
    let recomputed = service.run_one(&job);
    assert!(!recomputed.cache_hit, "an edited entry is never served");
    assert_eq!(recomputed.outcome.expect("recomputed"), report);
    assert_eq!(service.stats().simulations_run, 1);
    assert_eq!(service.store().expect("attached").stats().quarantined, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_corruption_of_one_key_preserves_every_quarantine_file() {
    // Two successive corruptions of the same entry must yield two
    // *distinct* quarantine files: renaming over the first `.corrupt`
    // would silently destroy the evidence it exists to preserve.
    let dir = temp_store_dir();
    let mut store = ResultStore::open(&dir).expect("open store");
    let spec = DatasetKey::Cora.spec().scaled_to(300);
    let job = JobSpec::new(spec, 11, "grow");
    let key = job.key();
    let report = BatchService::new()
        .run_one(&job)
        .outcome
        .expect("valid job");

    let path = store.entry_path(&key);
    store.persist(&key, &report).expect("persist");
    std::fs::write(&path, "grow-store v2\nfirst corruption\n").expect("write");
    assert_eq!(store.load(&key), None);
    store.persist(&key, &report).expect("persist again");
    std::fs::write(&path, "grow-store v2\nsecond corruption\n").expect("write");
    assert_eq!(store.load(&key), None);
    assert_eq!(store.stats().quarantined, 2);

    let quarantined: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".corrupt"))
        .collect();
    assert_eq!(
        quarantined.len(),
        2,
        "each corruption keeps its own file: {quarantined:?}"
    );
    let bodies: Vec<String> = quarantined
        .iter()
        .map(|name| std::fs::read_to_string(dir.join(name)).expect("read quarantine"))
        .collect();
    assert!(
        bodies.iter().any(|b| b.contains("first corruption"))
            && bodies.iter().any(|b| b.contains("second corruption")),
        "both corrupted payloads survive for inspection"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_ticket_does_not_wedge_the_worker() {
    // A caller that abandons its Ticket before completion must not panic
    // or wedge the worker thread on the dead result channel: subsequent
    // submissions still run and complete normally.
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
    let abandoned = service
        .submit(JobSpec::new(spec, 60, "grow").with_strategy(strategy))
        .expect("admitted");
    let abandoned_id = abandoned.id();
    drop(abandoned);
    let kept = service
        .submit(JobSpec::new(spec, 61, "gcnax"))
        .expect("admitted");
    assert!(
        kept.wait().expect("worker alive").outcome.is_ok(),
        "worker survived the dead rx"
    );
    let completed = service.completed_ids();
    let batch = service.finish();
    assert!(
        completed.contains(&abandoned_id),
        "the abandoned job still ran to completion: {completed:?}"
    );
    assert_eq!(batch.stats().simulations_run, 2);
}

#[test]
fn finish_with_undrained_tickets_returns_the_warmed_service() {
    // finish() must drain the queue and hand back the warmed BatchService
    // even when tickets are still alive and unwaited at shutdown.
    let spec = DatasetKey::Cora.spec().scaled_to(300);
    let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
    let tickets: Vec<Ticket> = (0..3u64)
        .map(|seed| {
            service
                .submit(JobSpec::new(spec, seed, "gcnax"))
                .expect("admitted")
        })
        .collect();
    let batch = service.finish();
    assert_eq!(
        batch.stats().simulations_run,
        3,
        "finish drains the queue before joining the worker"
    );
    // The undrained tickets still resolve from the completed results.
    for t in tickets {
        assert!(t.wait().expect("worker alive").outcome.is_ok());
    }
}

#[test]
fn admission_control_rejects_over_capacity_submissions() {
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: 2,
            session_capacity: None,
            workers: 1,
        },
    );
    assert_eq!(service.queue_capacity(), 2);
    // Two admitted jobs fill the pending set (a job stays pending until
    // it completes, and these take milliseconds to simulate).
    let t1 = service
        .submit(JobSpec::new(spec, 1, "grow").with_strategy(strategy))
        .expect("first admitted");
    let t2 = service
        .submit(JobSpec::new(spec, 2, "gcnax"))
        .expect("second admitted");
    match service.submit(JobSpec::new(spec, 3, "gamma")) {
        Err(SubmitError::QueueFull { capacity, pending }) => {
            assert_eq!(capacity, 2);
            assert!(pending >= 1, "rejection reports the pending load");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Draining frees capacity; the resubmission is admitted and runs.
    assert!(t1.wait().expect("worker alive").outcome.is_ok());
    assert!(t2.wait().expect("worker alive").outcome.is_ok());
    let t3 = service
        .submit(JobSpec::new(spec, 3, "gamma"))
        .expect("admitted after drain");
    assert!(t3.wait().expect("worker alive").outcome.is_ok());
    let batch = service.finish();
    assert_eq!(batch.stats().simulations_run, 3);
}

#[test]
fn priority_classes_reorder_completion() {
    // The Low submission lands before the High one, so FIFO service would
    // complete Low first; the class order must complete High first. The
    // scenario is timing-sensitive in one narrow way — if the worker goes
    // idle in the microseconds between the two submits it picks Low
    // simply because nothing else is queued — so a racy run (possible on
    // an oversubscribed CI box) is retried; a genuine FIFO regression
    // fails every attempt deterministically.
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let mut last_order = Vec::new();
    for attempt in 0..3 {
        let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
        // The first submission occupies the worker for several
        // milliseconds while the Low and High submissions land.
        let occupy = service
            .submit(JobSpec::new(spec, 50, "grow").with_strategy(strategy))
            .expect("admitted");
        let low = service
            .submit_with(JobSpec::new(spec, 51, "gcnax"), Priority::Low)
            .expect("admitted");
        let high = service
            .submit_with(JobSpec::new(spec, 52, "matraptor"), Priority::High)
            .expect("admitted");
        let (low_id, high_id) = (low.id(), high.id());
        assert!(occupy.wait().expect("worker alive").outcome.is_ok());
        assert!(low.wait().expect("worker alive").outcome.is_ok());
        assert!(high.wait().expect("worker alive").outcome.is_ok());
        let order = service.completed_ids();
        service.finish();
        let pos = |id| order.iter().position(|&c| c == id).expect("completed");
        if pos(high_id) < pos(low_id) {
            return;
        }
        last_order = order;
        eprintln!("attempt {attempt}: worker went idle between submits; retrying");
    }
    panic!("High never overtook Low in the completion sequence: {last_order:?}");
}

#[test]
fn four_worker_drain_is_bit_identical_to_run_batch() {
    // The tentpole determinism claim: a 4-worker concurrent drain of the
    // mixed fleet returns exactly the reports of a synchronous
    // `run_batch`, under a forced-serial scope and an oversubscribed
    // parallel scope alike. Only completion order may differ.
    let jobs = mixed_jobs();
    let pooled = |jobs: &[JobSpec]| {
        let (results, batch) = drain(
            AsyncService::start(
                BatchService::new(),
                AsyncConfig {
                    workers: 4,
                    ..AsyncConfig::default()
                },
            ),
            jobs,
        );
        let stats = batch.stats();
        assert_eq!(
            stats.simulations_run,
            jobs.len() as u64 - 1,
            "the pool never double-computes a key"
        );
        assert!(
            stats.jobs_in_flight_peak >= 1,
            "the in-flight high-water mark is recorded"
        );
        results
    };

    let sync_serial = with_mode(ExecMode::Serial, || BatchService::new().run_batch(&jobs));
    let pooled_serial = with_mode(ExecMode::Serial, || pooled(&jobs));
    let pooled_parallel = with_workers(WORKERS, || pooled(&jobs));

    assert_same_outcomes(&sync_serial, &pooled_serial);
    assert_same_outcomes(&sync_serial, &pooled_parallel);

    // Async results carry the submission id as their index, in order.
    for (i, r) in pooled_parallel.iter().enumerate() {
        assert_eq!(r.index, i);
    }
}

#[test]
fn duplicate_keys_compute_once_under_a_worker_pool() {
    // Four same-key submissions on a four-worker pool: the running-set
    // exclusion must leave exactly one computation; the rest are served
    // as cache hits the moment it commits.
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let job = JobSpec::new(spec, 77, "grow")
        .with_strategy(PartitionStrategy::Multilevel { cluster_nodes: 150 });
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            workers: 4,
            ..AsyncConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| service.submit(job.clone()).expect("admitted"))
        .collect();
    let results: Vec<JobResult> = tickets
        .into_iter()
        .map(|t| t.wait().expect("pool alive"))
        .collect();
    let batch = service.finish();
    assert_eq!(
        batch.stats().simulations_run,
        1,
        "same-key submissions never compute twice"
    );
    for r in &results {
        assert_eq!(
            r.outcome, results[0].outcome,
            "every duplicate gets the report"
        );
    }
    assert!(
        results.iter().filter(|r| r.cache_hit).count() >= 3,
        "the duplicates are cache hits"
    );
}

#[test]
fn admission_control_holds_under_a_worker_pool() {
    // QueueFull accounting with several workers: pending counts queued
    // plus in-flight, so a full pool rejects exactly as a busy single
    // worker does, and draining frees the capacity back.
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: 3,
            session_capacity: None,
            workers: 4,
        },
    );
    let tickets: Vec<Ticket> = (0..3u64)
        .map(|seed| {
            service
                .submit(JobSpec::new(spec, seed, "grow").with_strategy(strategy))
                .expect("admitted")
        })
        .collect();
    match service.submit(JobSpec::new(spec, 9, "gamma")) {
        Err(SubmitError::QueueFull { capacity, pending }) => {
            assert_eq!(capacity, 3);
            assert!(pending >= 1, "rejection reports the pending load");
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    for t in tickets {
        assert!(t.wait().expect("pool alive").outcome.is_ok());
    }
    let t = service
        .submit(JobSpec::new(spec, 9, "gamma"))
        .expect("admitted after drain");
    assert!(t.wait().expect("pool alive").outcome.is_ok());
    assert_eq!(service.pending(), 0, "accounting returns to zero");
    let batch = service.finish();
    assert_eq!(batch.stats().simulations_run, 4);
}

#[test]
fn priority_classes_reorder_completion_under_a_worker_pool() {
    // With every worker occupied, the next free worker must take the
    // queued High submission before the earlier-queued Low one. Same
    // narrow timing sensitivity (and the same retry) as the
    // single-worker variant above.
    let spec = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let mut last_order = Vec::new();
    for attempt in 0..3 {
        let service = AsyncService::start(
            BatchService::new(),
            AsyncConfig {
                workers: 2,
                ..AsyncConfig::default()
            },
        );
        let occupy: Vec<Ticket> = (0..2u64)
            .map(|seed| {
                service
                    .submit(JobSpec::new(spec, 40 + seed, "grow").with_strategy(strategy))
                    .expect("admitted")
            })
            .collect();
        let low = service
            .submit_with(JobSpec::new(spec, 51, "gcnax"), Priority::Low)
            .expect("admitted");
        let high = service
            .submit_with(JobSpec::new(spec, 52, "matraptor"), Priority::High)
            .expect("admitted");
        let (low_id, high_id) = (low.id(), high.id());
        for t in occupy {
            assert!(t.wait().expect("pool alive").outcome.is_ok());
        }
        assert!(low.wait().expect("pool alive").outcome.is_ok());
        assert!(high.wait().expect("pool alive").outcome.is_ok());
        let order = service.completed_ids();
        service.finish();
        let pos = |id| order.iter().position(|&c| c == id).expect("completed");
        if pos(high_id) < pos(low_id) {
            return;
        }
        last_order = order;
        eprintln!("attempt {attempt}: a worker went idle between submits; retrying");
    }
    panic!("High never overtook Low on the pool: {last_order:?}");
}

#[test]
fn plan_cache_shares_plans_across_jobs_and_stays_bit_identical() {
    // Three jobs on one session: two grow configurations share the
    // "grow" plan family (the second must hit), gcnax lives in its own
    // family. Single-job batches fix the request order, so the counters
    // are exact in both CI legs.
    let spec = DatasetKey::Cora.spec().scaled_to(600);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let grow = JobSpec::new(spec, 33, "grow").with_strategy(strategy);
    let gcnax = JobSpec::new(spec, 33, "gcnax").with_strategy(strategy);
    let runahead = grow.clone().with_override("runahead", "8");

    let mut warm = BatchService::new();
    let warm_grow = warm.run_batch(std::slice::from_ref(&grow));
    let warm_gcnax = warm.run_batch(std::slice::from_ref(&gcnax));
    let warm_runahead = warm.run_batch(std::slice::from_ref(&runahead));
    assert_eq!(
        warm.stats().plan_cache_hits,
        1,
        "the runahead variant replays the shared grow plan"
    );
    assert_eq!(warm.plan_cache().misses(), 2, "one entry per plan family");
    assert_eq!(warm.plan_cache().len(), 2);

    // Cold references: isolated services, nothing shared. The replayed
    // plan must be indistinguishable from a fresh plan pass.
    for (warmed, job) in [
        (&warm_grow, &grow),
        (&warm_gcnax, &gcnax),
        (&warm_runahead, &runahead),
    ] {
        let cold = BatchService::new().run_batch(std::slice::from_ref(job));
        assert_eq!(
            warmed[0].outcome, cold[0].outcome,
            "{}: shared-plan report diverged from an isolated run",
            job.engine
        );
    }

    // Eviction: with room for one entry, the gcnax insert evicts the
    // grow plans, so the runahead variant misses where it hit above —
    // and still computes the identical report.
    let mut tiny = BatchService::new().with_plan_cache_capacity(1);
    let tiny_grow = tiny.run_batch(std::slice::from_ref(&grow));
    tiny.run_batch(std::slice::from_ref(&gcnax));
    let tiny_runahead = tiny.run_batch(std::slice::from_ref(&runahead));
    assert_eq!(
        tiny.stats().plan_cache_hits,
        0,
        "capacity 1 evicts before reuse"
    );
    assert_eq!(tiny.plan_cache().misses(), 3);
    assert_eq!(tiny.plan_cache().len(), 1, "the bound holds");
    assert_eq!(tiny_grow[0].outcome, warm_grow[0].outcome);
    assert_eq!(tiny_runahead[0].outcome, warm_runahead[0].outcome);

    // reset_stats clears the live counters with the rest.
    warm.reset_stats();
    assert_eq!(warm.stats().plan_cache_hits, 0);
    assert_eq!(warm.plan_cache().misses(), 0);
}

#[test]
fn a_sampled_aggregation_run_leaves_the_plan_cache_clean() {
    // A sampled SAGE run swaps the adjacency of a pooled preparation's
    // copy. Its plans must not land in the pool's plan cache, where a
    // later GROW job on the same workload would replay them.
    let spec = DatasetKey::Pubmed.spec().scaled_to(800);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 200 };
    let gcnax = JobSpec::new(spec, 3, "gcnax").with_strategy(strategy);
    let grow = JobSpec::new(spec, 3, "grow").with_strategy(strategy);
    let mut service = BatchService::new();
    assert!(service.run_one(&gcnax).outcome.is_ok());
    let prepared = service
        .session_for(&gcnax)
        .and_then(|session| session.get_prepared(strategy))
        .expect("the served job pooled its preparation");
    run_with_aggregation(
        &GrowEngine::default(),
        &prepared,
        AggregationKind::SageMean { sample: Some(2) },
    );
    assert_eq!(
        service.run_one(&grow).outcome,
        common::run_unserved(&grow),
        "the served GROW job replayed the sampled adjacency's plans"
    );
}

#[test]
fn async_config_bounds_the_session_pool() {
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: 16,
            session_capacity: Some(1),
            workers: 1,
        },
    );
    for seed in 0..3u64 {
        let job = JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), seed, "gcnax");
        assert!(service
            .submit(job)
            .expect("admitted")
            .wait()
            .expect("worker alive")
            .outcome
            .is_ok());
    }
    let batch = service.finish();
    assert_eq!(batch.pooled_sessions(), 1, "pool bounded by the config");
    assert_eq!(batch.session_capacity(), Some(1));
    assert_eq!(batch.stats().sessions_created, 3);
    assert_eq!(batch.stats().sessions_evicted, 2);
}

#[test]
fn failed_twins_share_one_run_on_a_worker_pool() {
    // Two submissions of a permanently failing job on a two-worker pool:
    // the twin parks behind the running key, then takes the first run's
    // error instead of recomputing it — one run per key, as for a cached
    // success. The twin must be queued before the first run fails (a few
    // milliseconds), so a run where the submitting thread stalls that
    // long is retried; a pool that recomputes failed twins fails every
    // attempt.
    let job = JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), 3, "gamma")
        .with_fault("dram:panic:1:99");
    let mut last = None;
    for attempt in 0..3 {
        let service = AsyncService::start(
            BatchService::new(),
            AsyncConfig {
                workers: 2,
                ..AsyncConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..2)
            .map(|_| service.submit(job.clone()).expect("admitted"))
            .collect();
        let results: Vec<JobResult> = tickets
            .into_iter()
            .map(|t| t.wait().expect("pool alive"))
            .collect();
        let stats = service.finish().stats();
        assert!(
            matches!(results[0].outcome, Err(JobError::Panicked { .. })),
            "injected panics surface as Panicked: {:?}",
            results[0].outcome
        );
        assert_eq!(results[0].outcome, results[1].outcome);
        assert!(!results[1].cache_hit, "a shared failure is not a cache hit");
        assert_eq!((stats.jobs_submitted, stats.jobs_failed), (2, 2));
        if stats.simulations_run == 1 {
            assert_eq!(stats.panics_caught, 3, "one run of three attempts");
            return;
        }
        last = Some((stats.simulations_run, stats.panics_caught));
        eprintln!("attempt {attempt}: the first run failed before its twin was queued; retrying");
    }
    panic!("failed twins recomputed on every attempt (simulations, panics): {last:?}");
}

#[test]
fn a_cancelled_job_leaves_its_twin_to_run_itself() {
    // Cancellation belongs to one ticket's token: the expired job fails
    // as Cancelled, and its twin, whose token is live, computes.
    let job = JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), 3, "gamma");
    let service = AsyncService::start(BatchService::new(), AsyncConfig::default());
    let expired = service
        .submit_with_deadline(job.clone(), Priority::Normal, Duration::ZERO)
        .expect("admitted");
    let twin = service.submit(job).expect("admitted");
    assert_eq!(
        expired.wait().expect("worker alive").outcome,
        Err(JobError::Cancelled {
            reason: CancelReason::DeadlineExceeded,
        })
    );
    let twin = twin.wait().expect("worker alive");
    assert!(twin.outcome.is_ok(), "{:?}", twin.outcome);
    assert!(!twin.cache_hit, "the twin really ran");
    let stats = service.finish().stats();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.simulations_run, 2);
}
