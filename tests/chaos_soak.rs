//! The supervised-serving chaos soak. An 18-job mixed fleet on a
//! store-backed `AsyncService` runs once fault-free, then three more
//! rounds under a cycling grid of transient `fault=` injections (DRAM
//! issue, scheduler dispatch, store read/write; `error` and `panic`
//! actions), then the first faulted round once more. Each round is a
//! new service lifetime on the same store, so the replayed round finds
//! the keys its first run persisted, and its `store_read` spec fires on
//! a real entry. Checked at one worker and again at four, each on a
//! fresh store:
//!
//! * every part of every grid spec fires on a fleet job that reaches its
//!   site, so no spec is a silent no-op;
//! * the fault-free round reports exactly what a service-free run of
//!   each job does;
//! * in every faulted round each ticket resolves, no worker dies, every
//!   job succeeds after its retries, and every report matches the
//!   fault-free round bit for bit;
//! * on the pool, a `worker:panic:k` kill takes out exactly one worker,
//!   every submission it orphans is a casualty, and the re-served fleet
//!   still matches the fault-free round;
//! * at least 50 faults fire, and the store scrubber reclaims the tmp
//!   files that the torn `store_write` faults left behind.
//!
//! The soak runs under the caller's execution mode, so each CI leg
//! checks it with and without `GROW_SERIAL=1`. It is a single test
//! because `fault::injected_total()` is process-wide: a concurrent test
//! in this binary would add its own faults to the count.

mod common;

use std::collections::HashSet;
use std::path::Path;

use grow::accel::registry::ENGINE_NAMES;
use grow::accel::{PartitionStrategy, RunReport, SchedulerKind};
use grow::model::DatasetKey;
use grow::serve::{
    AsyncConfig, AsyncService, BatchService, JobResult, JobSpec, Priority, ResultStore, Ticket,
};
use grow::sim::exec::{with_mode, ExecMode};
use grow::sim::fault;

/// Transient specs only: every `attempts` bound sits below the default
/// retry budget (3), `store_write` faults are warning-only, and a
/// `store_read` fault degrades to a cache miss, so each faulted job
/// still retries to a fault-free final attempt. The `sched` site only
/// has trip points in the e2e dispatch loop, so it fires on the two
/// `exec=e2e` jobs and arms harmlessly elsewhere. The `store_read` spec
/// writes its entry intact, so the replayed round reads it back. The
/// permanent shapes are covered by `fault_injection.rs`.
const FAULT_GRID: [&str; 11] = [
    "dram:error:1:2",
    "dram:panic:1:2",
    "dram:error:3:2",
    "dram:panic:3:2",
    "sched:error:1:2",
    "sched:panic:1:2",
    "dram:error:2:2",
    "dram:error:4:1",
    "dram:panic:2:2+store_write:error:1",
    "store_write:panic:1",
    "store_read:error:1+dram:error:1:2",
];

/// Faulted rounds after the fault-free one.
const ROUNDS: usize = 3;

/// The pool worker that the degradation phase kills.
const VICTIM: usize = 2;

/// The chaos fleet, 18 jobs on Cora@1000 with seed 42: three
/// configurations per registry engine (unpartitioned, default multilevel,
/// 256-node multilevel) plus six extras (an 8-PE work-stealing run, two
/// GROW config overrides, two end-to-end jobs and a 4-PE GAMMA run)
/// across all three priority classes. The default multilevel grain
/// leaves Cora@1000 in one cluster, so the 256-node jobs are the fleet's
/// multi-cluster partition.
fn fleet() -> Vec<(JobSpec, Priority)> {
    let spec = DatasetKey::Cora.spec().scaled_to(1000);
    let multilevel = PartitionStrategy::multilevel_default();
    let fine = PartitionStrategy::Multilevel { cluster_nodes: 256 };
    let job = |engine: &str| JobSpec::new(spec, 42, engine);
    let mut jobs = Vec::new();
    for name in ENGINE_NAMES {
        for strategy in [PartitionStrategy::None, multilevel] {
            jobs.push((job(name).with_strategy(strategy), Priority::Normal));
        }
        jobs.push((job(name).with_strategy(fine), Priority::Low));
    }
    let grow = job("grow").with_strategy(multilevel);
    jobs.extend([
        (
            grow.clone()
                .with_scheduler(SchedulerKind::WorkStealing)
                .with_pes(8),
            Priority::High,
        ),
        (grow.clone().with_override("runahead", "8"), Priority::High),
        (grow.with_override("hdn_cache_kb", "64"), Priority::Normal),
        (job("grow").with_override("exec", "e2e"), Priority::Normal),
        (job("gcnax").with_override("exec", "e2e"), Priority::Low),
        (job("gamma").with_pes(4), Priority::Normal),
    ]);
    assert_eq!(jobs.len(), 18, "the chaos fleet is 18 jobs");
    let keys: HashSet<_> = jobs.iter().map(|(job, _)| job.key()).collect();
    assert_eq!(keys.len(), jobs.len(), "every fleet job has its own key");
    jobs
}

/// A service on the result store at `dir`, with room for four pooled
/// sessions.
fn start(dir: &Path, workers: usize) -> AsyncService {
    let store = ResultStore::open(dir).expect("open chaos store");
    AsyncService::start(
        BatchService::new().with_store(store),
        AsyncConfig {
            queue_capacity: 64,
            session_capacity: Some(4),
            workers,
        },
    )
}

fn submit_all(service: &AsyncService, jobs: &[(JobSpec, Priority)]) -> Vec<Ticket> {
    jobs.iter()
        .map(|(job, priority)| {
            service
                .submit_with(job.clone(), *priority)
                .expect("fleet fits the admission bound")
        })
        .collect()
}

/// Runs each part of each grid spec (the `+`-joined specs split) on the
/// fleet's `exec=e2e` GROW job, which reaches every site the grid names,
/// and checks that the part fired. Each part is served serially, twice,
/// by two service lifetimes on one fresh store, so a `store_read` part
/// meets the entry the first lifetime persisted. A site change that
/// turns a part into a no-op fails here instead of silently thinning
/// the soak.
fn every_grid_spec_fires(jobs: &[(JobSpec, Priority)]) {
    let e2e_grow = jobs
        .iter()
        .map(|(job, _)| job)
        .find(|job| job.engine == "grow" && job.overrides.iter().any(|o| o == "exec=e2e"))
        .expect("the fleet has an e2e GROW job");
    let dir = std::env::temp_dir().join(format!("grow-chaos-fires-{}", std::process::id()));
    for part in FAULT_GRID.iter().flat_map(|spec| spec.split('+')) {
        let _ = std::fs::remove_dir_all(&dir);
        let job = e2e_grow.clone().with_fault(part);
        let before = fault::injected_total();
        for _ in 0..2 {
            let store = ResultStore::open(&dir).expect("open store");
            let mut service = BatchService::new().with_store(store);
            let result = with_mode(ExecMode::Serial, || service.run_one(&job));
            assert!(result.outcome.is_ok(), "{part}: {:?}", result.outcome);
        }
        assert!(fault::injected_total() > before, "{part} never fired");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One soak on a `workers`-sized pool and a fresh store.
fn soak(workers: usize) {
    let jobs = fleet();
    let dir =
        std::env::temp_dir().join(format!("grow-chaos-soak-{}-{workers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let injected_before = fault::injected_total();

    let mut baseline: Vec<RunReport> = Vec::new();
    // The last lifetime replays round 1 on the store its first run left.
    for (lifetime, round) in (0..=ROUNDS).chain([1]).enumerate() {
        let replay = lifetime > ROUNDS;
        let context = format!("{workers} workers, lifetime {lifetime} (round {round})");
        // Round 0 is fault-free; later rounds cycle each job through the
        // grid, offset by round, so every job sees three fault shapes.
        let round_jobs: Vec<(JobSpec, Priority)> = jobs
            .iter()
            .enumerate()
            .map(|(i, (job, priority))| match round {
                0 => (job.clone(), *priority),
                _ => {
                    let spec = FAULT_GRID[(i + round - 1) % FAULT_GRID.len()];
                    (job.clone().with_fault(spec), *priority)
                }
            })
            .collect();
        let service = start(&dir, workers);
        let results: Vec<JobResult> = submit_all(&service, &round_jobs)
            .into_iter()
            .map(|t| {
                t.wait()
                    .unwrap_or_else(|e| panic!("{context}: wedged ticket ({e})"))
            })
            .collect();
        let (batch, shutdown) = service.finish_report();
        assert!(
            !shutdown.worker_panicked && shutdown.casualties.is_empty(),
            "{context}: a worker died ({} casualties)",
            shutdown.casualties.len()
        );
        if replay {
            // Only the store_read fault quarantines an entry here: the
            // soak corrupts nothing on disk.
            let store = batch.store().expect("store attached").stats();
            assert!(
                batch.stats().store_hits > 0 && store.quarantined > 0,
                "{context}: no store_read fault met a persisted key ({store:?})"
            );
        }
        let failed: Vec<String> = results
            .iter()
            .filter_map(|r| {
                let e = r.outcome.as_ref().err()?;
                Some(format!("job {} ({}): {e}", r.index, r.engine))
            })
            .collect();
        assert!(failed.is_empty(), "{context}: jobs failed: {failed:#?}");

        if round == 0 {
            let specs: Vec<JobSpec> = jobs.iter().map(|(job, _)| job.clone()).collect();
            common::assert_unserved_outcomes(&specs, &results);
            baseline = results.iter().filter_map(|r| r.report().cloned()).collect();
        } else {
            for (r, first) in results.iter().zip(&baseline) {
                assert_eq!(
                    r.report(),
                    Some(first),
                    "{context}: job {} ({}) diverged from the fault-free round",
                    r.index,
                    r.engine
                );
            }
        }
    }
    if workers >= 2 {
        degrade(&dir, workers, &jobs, &baseline);
    }

    let injected = fault::injected_total() - injected_before;
    assert!(
        injected >= 50,
        "{workers} workers: only {injected} faults injected (floor: 50)"
    );
    // Every torn `store_write` left a `*.tmp*` file beside the entries.
    let scrub = ResultStore::open(&dir)
        .expect("reopen chaos store")
        .scrub()
        .expect("scrub chaos store");
    assert!(
        scrub.tmp_removed > 0,
        "{workers} workers: scrub found no orphaned tmp files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pool-degradation phase. Every fleet job carries
/// `worker:panic:VICTIM`, which kills that pool worker the moment it
/// picks one up, while every other worker serves the same jobs unharmed.
/// The service must degrade to the survivors, record each orphaned
/// submission as a casualty, re-serve the orphans, and still match the
/// fault-free round bit for bit.
fn degrade(dir: &Path, workers: usize, jobs: &[(JobSpec, Priority)], baseline: &[RunReport]) {
    let kill = format!("worker:panic:{VICTIM}");
    let poisoned: Vec<(JobSpec, Priority)> = jobs
        .iter()
        .map(|(job, priority)| (job.clone().with_fault(&kill), *priority))
        .collect();
    let service = start(dir, workers);
    let mut results: Vec<Option<JobResult>> = submit_all(&service, &poisoned)
        .into_iter()
        .map(|t| t.wait().ok())
        .collect();
    let orphaned = results.iter().filter(|r| r.is_none()).count();
    // The victim may have sat out the whole drain; feed it poisoned work
    // until it bites (bounded; one or two pickups in practice).
    let mut baits = 0;
    let mut bait_casualties = 0;
    while service.workers_alive() == workers && baits < 100 {
        baits += 1;
        let bait = jobs[baits % jobs.len()].0.clone().with_fault(&kill);
        if service.submit(bait).expect("admitted").wait().is_err() {
            bait_casualties += 1;
        }
    }
    assert_eq!(
        service.workers_alive(),
        workers - 1,
        "exactly the victim died"
    );
    // Re-serve the orphans; with the victim dead the kill spec is inert.
    for (slot, (job, priority)) in results.iter_mut().zip(&poisoned) {
        if slot.is_none() {
            let result = service
                .submit_with(job.clone(), *priority)
                .expect("degraded pool still admits")
                .wait()
                .expect("survivors keep serving");
            *slot = Some(result);
        }
    }
    let (_, shutdown) = service.finish_report();
    assert!(
        shutdown.worker_panicked,
        "the death is reported at shutdown"
    );
    assert_eq!(
        shutdown.casualties.len(),
        orphaned + bait_casualties,
        "every orphan and every bait the victim took is a casualty"
    );
    for (i, (r, first)) in results.iter().zip(baseline).enumerate() {
        assert_eq!(
            r.as_ref().and_then(JobResult::report),
            Some(first),
            "degraded pool: job {i} diverged from the fault-free round"
        );
    }
}

#[test]
fn chaos_soak_reproduces_the_fault_free_fleet_at_one_and_four_workers() {
    common::quiet_injected_panics();
    every_grid_spec_fires(&fleet());
    soak(1);
    soak(4);
}
