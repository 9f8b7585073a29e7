//! Acceptance and concurrency tests for the `grow_serve` batch layer.
//!
//! The two load-bearing properties:
//!
//! * a mixed batch (all four engines, multiple partition strategies,
//!   overrides, an intentionally invalid job) completes with per-job
//!   statuses and reports **bit-identical** between a forced-serial run
//!   and an oversubscribed 8-worker run;
//! * duplicate job keys are computed exactly once — the result cache
//!   serves every repeat, under parallel execution too.
//!
//! `run_batch` runs on the `AsyncService` worker pool, so the mixed batch
//! is also checked against service-free runs of each job.

mod common;

use common::{mixed_jobs, WORKERS};
use grow::accel::registry::RegistryError;
use grow::accel::{PartitionStrategy, SchedulerKind};
use grow::model::DatasetKey;
use grow::serve::{scheduler_grid_jobs, BatchService, JobError, JobResult, JobSpec};
use grow::sim::exec::{with_mode, with_workers, ExecMode};

fn outcomes(results: &[JobResult]) -> Vec<&Result<grow::accel::RunReport, JobError>> {
    results.iter().map(|r| &r.outcome).collect()
}

#[test]
fn mixed_batch_is_bit_identical_serial_vs_parallel() {
    let jobs = mixed_jobs();
    let serial = with_mode(ExecMode::Serial, || BatchService::new().run_batch(&jobs));
    let parallel = with_workers(WORKERS, || BatchService::new().run_batch(&jobs));

    assert_eq!(serial.len(), jobs.len());
    assert_eq!(parallel.len(), jobs.len());
    // Every job has a status, in submission order, under both modes.
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.index, i);
        assert_eq!(p.index, i);
        assert_eq!(
            s.outcome, p.outcome,
            "job {i} ({} on {}) diverged between serial and parallel",
            s.engine, s.dataset
        );
    }
    // The invalid job failed with the documented error; everything else ran.
    let failures: Vec<usize> = serial
        .iter()
        .filter(|r| r.outcome.is_err())
        .map(|r| r.index)
        .collect();
    assert_eq!(failures, [jobs.len() - 1]);
    assert_eq!(
        serial.last().unwrap().outcome,
        Err(JobError::Invalid(RegistryError::UnknownEngine(
            "npu".into()
        )))
    );
    // And every outcome equals a run of the job with no service at all.
    common::assert_unserved_outcomes(&jobs, &serial);
}

#[test]
fn repeated_parallel_batches_are_stable() {
    // Thread scheduling varies between runs; batch results must not.
    let jobs = mixed_jobs();
    let first = with_workers(WORKERS, || BatchService::new().run_batch(&jobs));
    for _ in 0..2 {
        let again = with_workers(WORKERS, || BatchService::new().run_batch(&jobs));
        assert_eq!(outcomes(&first), outcomes(&again));
    }
}

#[test]
fn duplicate_keys_compute_once_under_parallel_execution() {
    let spec = DatasetKey::Citeseer.spec().scaled_to(700);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let coarse = PartitionStrategy::Multilevel { cluster_nodes: 350 };
    // 12 jobs, but only 3 distinct keys (engine case and override order
    // do not affect the key), on three strategies of one fresh workload,
    // so the pool's workers race to prepare them.
    let a = JobSpec::new(spec, 4, "grow").with_strategy(strategy);
    let a_alias = JobSpec::new(spec, 4, "GROW").with_strategy(strategy);
    let b = JobSpec::new(spec, 4, "gcnax");
    let c = JobSpec::new(spec, 4, "grow")
        .with_strategy(coarse)
        .with_override("runahead", "4")
        .with_override("hdn_cache_kb", "128");
    let c_alias = JobSpec::new(spec, 4, "grow")
        .with_strategy(coarse)
        .with_override("hdn_cache_kb", "128")
        .with_override("runahead", "4");
    let batch = vec![
        a.clone(),
        b.clone(),
        c.clone(),
        a_alias.clone(),
        c_alias.clone(),
        a.clone(),
        b.clone(),
        c.clone(),
        a_alias,
        c_alias,
        a.clone(),
        b.clone(),
    ];

    let (parallel_results, stats) = with_workers(WORKERS, || {
        let mut service = BatchService::new();
        let results = service.run_batch(&batch);
        (results, service.stats())
    });
    assert_eq!(
        stats.simulations_run, 3,
        "exactly one computation per distinct key"
    );
    assert_eq!(stats.cache_hits, batch.len() as u64 - 3);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.sessions_created, 1, "one workload recipe");
    assert_eq!(stats.preparations_run, 3, "three distinct strategies");

    // The non-computing duplicates are flagged as cache hits and carry
    // the exact report of their key's one computation.
    let computed: Vec<usize> = parallel_results
        .iter()
        .filter(|r| !r.cache_hit)
        .map(|r| r.index)
        .collect();
    assert_eq!(computed, [0, 1, 2]);
    for r in &parallel_results {
        let original = &parallel_results[match r.index {
            i if batch[i].key() == batch[0].key() => 0,
            i if batch[i].key() == batch[1].key() => 1,
            _ => 2,
        }];
        assert_eq!(r.outcome, original.outcome, "job {}", r.index);
    }

    // Bit-identical to a forced-serial service run.
    let serial_results = with_mode(ExecMode::Serial, || BatchService::new().run_batch(&batch));
    assert_eq!(outcomes(&parallel_results), outcomes(&serial_results));
}

#[test]
fn scheduler_axis_flows_through_the_batch_service() {
    // The figure24-style sweep: one engine, the scheduler × PE grid, plus
    // one job with a bogus scheduler — which must fail alone with the
    // dedicated error while the whole grid still runs.
    let spec = DatasetKey::Cora.spec().scaled_to(600);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };
    let mut jobs = scheduler_grid_jobs(&[spec], 21, "grow", strategy, &SchedulerKind::ALL, &[2, 8]);
    jobs.push(
        JobSpec::new(spec, 21, "grow")
            .with_strategy(strategy)
            .with_override("scheduler", "bogus"),
    );

    let mut service = BatchService::new();
    let results = with_workers(WORKERS, || service.run_batch(&jobs));
    assert_eq!(
        results.last().unwrap().outcome,
        Err(JobError::Invalid(RegistryError::UnknownScheduler(
            "bogus".into()
        )))
    );
    assert_eq!(service.stats().jobs_failed, 1);
    assert_eq!(service.stats().simulations_run, 8, "the grid all ran");

    // Scheduling is post-hoc: every grid report carries identical phase
    // counters and differs only in its multi-PE summary; at each PE count
    // work-stealing's makespan never exceeds round-robin's.
    let reports: Vec<_> = results[..8]
        .iter()
        .map(|r| r.report().expect("grid jobs are valid"))
        .collect();
    for r in &reports {
        assert_eq!(r.layers, reports[0].layers, "phase counters shifted");
    }
    for pes_group in reports.chunks(4) {
        let summary = |i: usize| pes_group[i].multi_pe.as_ref().expect("summary");
        assert_eq!(
            [
                summary(0).scheduler,
                summary(1).scheduler,
                summary(2).scheduler,
                summary(3).scheduler
            ],
            ["rr", "lpt", "ws", "ca"]
        );
        assert!(
            summary(2).makespan <= summary(0).makespan * (1.0 + 1e-9),
            "ws {} vs rr {}",
            summary(2).makespan,
            summary(0).makespan
        );
    }

    // And the whole scheduler batch is mode-invariant.
    let serial = with_mode(ExecMode::Serial, || BatchService::new().run_batch(&jobs));
    assert_eq!(outcomes(&results), outcomes(&serial));
}

#[test]
fn cache_persists_across_batches() {
    let jobs = mixed_jobs();
    let mut service = BatchService::new();
    let first = with_workers(WORKERS, || service.run_batch(&jobs));
    let sims_after_first = service.stats().simulations_run;
    assert_eq!(
        sims_after_first,
        jobs.len() as u64 - 1,
        "one job is invalid"
    );

    let second = with_workers(WORKERS, || service.run_batch(&jobs));
    assert_eq!(
        service.stats().simulations_run,
        sims_after_first,
        "resubmission is pure cache"
    );
    assert!(second
        .iter()
        .filter(|r| r.outcome.is_ok())
        .all(|r| r.cache_hit));
    assert_eq!(outcomes(&first), outcomes(&second));
}
