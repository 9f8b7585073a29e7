//! The three benchmark workloads. Each is a closed loop driven from this
//! process through `grow_serve`'s public front end (`BatchService` and
//! `AsyncService`), with at most two client threads. A workload runs in
//! rounds, each a set-up and a timed phase, until the timed phases add up
//! to the requested run length.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use grow_core::registry::ENGINE_NAMES;
use grow_core::{PartitionStrategy, RunReport};
use grow_model::{DatasetKey, DatasetSpec, GcnWorkload};
use grow_serve::{
    AsyncConfig, AsyncService, BatchService, JobResult, JobSpec, ResultStore, ServiceStats,
};
use grow_sim::exec::{with_mode, ExecMode};

use crate::trace::Recorder;

/// Seed whose report digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Set-ups timed per cold_reddit round; `setup_s` is their median.
const COLD_SETUPS_PER_ROUND: usize = 4;

/// First service lifetimes run by restart_mixed's first round, each from
/// an empty store; `setup_s` is their median.
const RESTART_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold paper-default GROW job on Reddit@10k against a freshly
    /// started service with an empty store: graph generation and
    /// partitioning dominate, and the job is over the plan cache's reuse
    /// gate.
    ColdReddit,
    /// A 44-job design-space sweep over all four engines on the Yelp
    /// surrogate, after warm-up: simulation, the plan cache and multi-PE
    /// composition do the work; graph and partition do none.
    SweepYelp,
    /// A restarted service re-serving a persisted Pubmed/Flickr fleet from
    /// its store, interleaved with new keys that re-prepare sessions: the
    /// only workload that reads the store.
    RestartMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_reddit" => Some(Workload::ColdReddit),
            "sweep_yelp" => Some(Workload::SweepYelp),
            "restart_mixed" => Some(Workload::RestartMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdReddit => "cold_reddit",
            Workload::SweepYelp => "sweep_yelp",
            Workload::RestartMixed => "restart_mixed",
        }
    }

    /// Client threads of the closed loop, and worker threads of the
    /// service they submit to.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdReddit => 1,
            Workload::SweepYelp | Workload::RestartMixed => 2,
        }
    }

    /// The (dataset, seed, strategies) preparations the workload's jobs
    /// need; the traced run times each crate's calls on exactly these.
    pub fn preparations(self, seed: u64) -> Vec<(DatasetSpec, u64, Vec<PartitionStrategy>)> {
        let ml = PartitionStrategy::multilevel_default();
        match self {
            Workload::ColdReddit => vec![(reddit(), seed, vec![ml])],
            Workload::SweepYelp => vec![(yelp(), seed, vec![ml, PartitionStrategy::None])],
            Workload::RestartMixed => [pubmed(), flickr()]
                .into_iter()
                .map(|spec| (spec, seed, vec![ml, PartitionStrategy::None]))
                .collect(),
        }
    }
}

fn reddit() -> DatasetSpec {
    DatasetKey::Reddit.spec().scaled_to(10_000)
}

fn yelp() -> DatasetSpec {
    DatasetKey::Yelp.spec()
}

fn pubmed() -> DatasetSpec {
    DatasetKey::Pubmed.spec()
}

fn flickr() -> DatasetSpec {
    DatasetKey::Flickr.spec()
}

/// One job as the client saw it.
pub struct Observed {
    /// Position in the round's job list.
    pub index: usize,
    /// Submit-to-result wall time.
    pub latency_s: f64,
    /// The result, or why none arrived (refused or lost submission).
    pub outcome: Result<JobResult, String>,
}

impl Observed {
    pub fn report(&self) -> Option<&RunReport> {
        self.outcome.as_ref().ok().and_then(JobResult::report)
    }

    /// Simulation wall seconds, for jobs that ran one.
    pub fn sim_s(&self) -> Option<f64> {
        self.outcome.as_ref().ok()?.wall_ms.map(|ms| ms / 1e3)
    }
}

/// What one round measured.
pub struct Round {
    /// Set-up times taken in this round (none when the round reuses an
    /// earlier round's set-up).
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    pub jobs: Vec<JobSpec>,
    /// One entry per job, in job-list order.
    pub observed: Vec<Observed>,
    /// Service counters of the timed phase.
    pub stats: ServiceStats,
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// The MAC count each job's report must show.
    pub expected_macs: Vec<u64>,
    /// Correctness failures found inside the round.
    pub problems: Vec<String>,
    /// Peak resident memory of the process during the round.
    pub peak_rss_mib: f64,
}

/// Peak resident memory since the last [`reset_peak_rss`], from
/// `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    match kib {
        Some(kib) => kib / 1024.0,
        None => {
            eprintln!("error: peak resident memory (VmHWM) is unavailable on this host");
            std::process::exit(1)
        }
    }
}

/// Restarts the kernel's peak-RSS tracking at the current resident size,
/// so each round reports its own peak. Where the kernel refuses, the peak
/// stays the process's lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs a workload's rounds and keeps what rounds share.
pub struct Runner<'a> {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    rec: &'a Recorder,
    /// restart_mixed: the first lifetime's reports by key, once its store
    /// has been persisted under `dir`.
    first_life: Option<HashMap<String, RunReport>>,
}

impl<'a> Runner<'a> {
    pub fn new(workload: Workload, seed: u64, dir: &Path, rec: &'a Recorder) -> Self {
        Runner {
            workload,
            seed,
            dir: dir.to_path_buf(),
            rec,
            first_life: None,
        }
    }

    /// Runs one round: set-up, then the timed phase.
    pub fn round(&mut self) -> Round {
        let span = self.rec.id();
        let start = Instant::now();
        reset_peak_rss();
        let mut round = match self.workload {
            Workload::ColdReddit => self.cold_reddit(span),
            Workload::SweepYelp => self.sweep_yelp(span),
            Workload::RestartMixed => self.restart_mixed(span),
        };
        round.peak_rss_mib = peak_rss_mib();
        self.rec
            .record(span, None, "round", None, start, Instant::now());
        round
    }

    /// Starts `batch` behind an async front end with one worker per client.
    ///
    /// With two clients the workers start inside a serial execution scope,
    /// so every job computes inner-serially. Left to the governor, a job
    /// picked up in the moment the other worker happens to be idle keeps
    /// the full inner fan-out for its whole run; which jobs win that race
    /// changes from run to run, and it split GROW's latencies into a fast
    /// and a slow group whose mix moved `miss_p50_s` by up to 30%.
    fn start(&self, batch: BatchService) -> AsyncService {
        let config = AsyncConfig {
            queue_capacity: 256,
            session_capacity: None,
            workers: self.workload.clients(),
        };
        if self.workload.clients() > 1 {
            with_mode(ExecMode::Serial, || AsyncService::start(batch, config))
        } else {
            AsyncService::start(batch, config)
        }
    }

    /// Set-up: a fresh service warmed by one small job, then given an
    /// empty store, so the cold job runs in a warm process.
    fn cold_reddit(&mut self, parent: u64) -> Round {
        let jobs = vec![JobSpec::new(reddit(), self.seed, "grow")
            .with_strategy(PartitionStrategy::multilevel_default())];
        let warmup = [JobSpec::new(DatasetKey::Cora.spec(), self.seed, "grow")
            .with_strategy(PartitionStrategy::multilevel_default())];
        let store_dir = self.dir.join("cold-store");
        let mut setup_s = Vec::new();
        let mut problems = Vec::new();
        let mut service = None;
        for _ in 0..COLD_SETUPS_PER_ROUND {
            if let Some(previous) = service.take() {
                drop(AsyncService::finish(previous));
            }
            let _ = std::fs::remove_dir_all(&store_dir);
            let id = self.rec.id();
            let t = Instant::now();
            let mut batch = BatchService::new();
            if let Some(e) = batch.run_batch(&warmup)[0].outcome.as_ref().err() {
                problems.push(format!("warm-up job failed: {e}"));
            }
            batch.reset_stats();
            batch.set_store(open_store(&store_dir));
            service = Some(self.start(batch));
            setup_s.push(t.elapsed().as_secs_f64());
            self.rec
                .record(id, Some(parent), "setup", None, t, Instant::now());
        }
        let service = service.expect("at least one set-up");

        let (observed, wall_s) =
            closed_loop(&service, &jobs, self.workload.clients(), self.rec, parent);
        let batch = service.finish();
        let round = finish_round(setup_s, wall_s, jobs, observed, &batch, problems);
        drop(batch);
        let _ = std::fs::remove_dir_all(&store_dir);
        round
    }

    fn sweep_yelp(&mut self, parent: u64) -> Round {
        let id = self.rec.id();
        let t = Instant::now();
        let mut batch = BatchService::new();
        let warm = batch.run_batch(&sweep_warmup(self.seed));
        batch.reset_stats();
        let service = self.start(batch);
        let setup_s = vec![t.elapsed().as_secs_f64()];
        self.rec
            .record(id, Some(parent), "setup", None, t, Instant::now());
        let mut problems: Vec<String> = warm
            .iter()
            .filter_map(|r| r.outcome.as_ref().err())
            .map(|e| format!("warm-up job failed: {e}"))
            .collect();

        let jobs = sweep_jobs(self.seed);
        let (observed, wall_s) =
            closed_loop(&service, &jobs, self.workload.clients(), self.rec, parent);
        let batch = service.finish();
        if batch.stats().sessions_created != 0 || batch.stats().preparations_run != 0 {
            problems.push("the sweep prepared a workload after warm-up".to_string());
        }
        finish_round(setup_s, wall_s, jobs, observed, &batch, problems)
    }

    /// The first round runs the first lifetime [`RESTART_SETUPS`] times,
    /// each persisting its fleet to an empty store, and keeps the last
    /// store; every round restarts a fresh service on a copy of that store.
    fn restart_mixed(&mut self, parent: u64) -> Round {
        let snapshot = self.dir.join("first-life");
        let first_jobs = restart_first_life(self.seed);
        let mut setup_s = Vec::new();
        let mut problems = Vec::new();
        let lifetimes = if self.first_life.is_none() {
            RESTART_SETUPS
        } else {
            0
        };
        for _ in 0..lifetimes {
            let _ = std::fs::remove_dir_all(&snapshot);
            let id = self.rec.id();
            let t = Instant::now();
            let first = self.start(BatchService::new().with_store(open_store(&snapshot)));
            let (observed, _) = closed_loop(
                &first,
                &first_jobs,
                self.workload.clients(),
                &Recorder::new(false),
                id,
            );
            drop(first.finish());
            setup_s.push(t.elapsed().as_secs_f64());
            self.rec
                .record(id, Some(parent), "setup", None, t, Instant::now());
            let mut reports = HashMap::new();
            for (job, o) in first_jobs.iter().zip(&observed) {
                match o.report() {
                    Some(report) => {
                        reports.insert(job.key().as_str().to_string(), report.clone());
                    }
                    None => problems.push(format!("first-life job {} failed", o.index)),
                }
            }
            if self
                .first_life
                .as_ref()
                .is_some_and(|prev| *prev != reports)
            {
                problems.push("first lifetimes computed different reports".to_string());
            }
            self.first_life = Some(reports);
        }

        let store_dir = self.dir.join("restart-store");
        if let Err(e) = copy_dir(&snapshot, &store_dir) {
            eprintln!("error: cannot copy the first-life store: {e}");
            std::process::exit(1);
        }
        // Every first-life key once, alternating with the new keys.
        let mut jobs = Vec::new();
        let mut old = first_jobs.into_iter();
        let mut new = restart_new_keys(self.seed).into_iter();
        loop {
            match (old.next(), new.next()) {
                (None, None) => break,
                (a, b) => jobs.extend(a.into_iter().chain(b)),
            }
        }

        let service = self.start(BatchService::new().with_store(open_store(&store_dir)));
        let (observed, wall_s) =
            closed_loop(&service, &jobs, self.workload.clients(), self.rec, parent);
        let batch = service.finish();
        let first_life = self.first_life.as_ref().expect("persisted above");
        for (job, o) in jobs.iter().zip(&observed) {
            if let (Some(first), Some(now)) = (first_life.get(job.key().as_str()), o.report()) {
                if first != now {
                    problems.push(format!("job {}: store served a different report", o.index));
                }
            }
        }
        let round = finish_round(setup_s, wall_s, jobs, observed, &batch, problems);
        drop(batch);
        let _ = std::fs::remove_dir_all(&store_dir);
        round
    }
}

fn open_store(dir: &Path) -> ResultStore {
    ResultStore::open(dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open result store {}: {e}", dir.display());
        std::process::exit(1)
    })
}

/// Replaces `to` with a copy of the flat directory `from`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// A closed loop: `clients` threads each submit the next unclaimed job and
/// wait for its result before taking another. Returns the observations in
/// job-list order and the loop's wall time.
fn closed_loop(
    service: &AsyncService,
    jobs: &[JobSpec],
    clients: usize,
    rec: &Recorder,
    parent: u64,
) -> (Vec<Observed>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut observed: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        let id = rec.id();
                        let t0 = Instant::now();
                        let outcome = service
                            .submit(job.clone())
                            .map_err(|e| format!("refused: {e}"))
                            .and_then(|ticket| ticket.wait().map_err(|e| e.to_string()));
                        let t1 = Instant::now();
                        rec.record(id, Some(parent), "serve.job", Some(index as u64), t0, t1);
                        mine.push(Observed {
                            index,
                            latency_s: (t1 - t0).as_secs_f64(),
                            outcome,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    observed.sort_by_key(|o| o.index);
    (observed, wall_s)
}

/// MACs a report on `w` must count: every scalar-vector operation of
/// `GcnWorkload::total_scalar_vector_ops` issues one MAC per output
/// feature of its layer.
fn expected_macs(w: &GcnWorkload) -> u64 {
    let a_nnz = (w.graph.directed_edges() + w.graph.nodes()) as u64;
    w.layers
        .iter()
        .map(|l| (l.x_nnz() as u64 + a_nnz) * l.f_out as u64)
        .sum()
}

/// Builds the round from a finished service: counters, and the expected
/// MAC count of every job's workload (read from the pooled session, or
/// instantiated when the round never pooled that workload).
fn finish_round(
    setup_s: Vec<f64>,
    wall_s: f64,
    jobs: Vec<JobSpec>,
    observed: Vec<Observed>,
    batch: &BatchService,
    problems: Vec<String>,
) -> Round {
    let mut instantiated: HashMap<String, u64> = HashMap::new();
    let expected_macs = jobs
        .iter()
        .map(|job| match batch.session_for(job) {
            Some(session) => expected_macs(session.workload()),
            None => *instantiated
                .entry(format!("{:?}|{}", job.dataset, job.seed))
                .or_insert_with(|| expected_macs(&job.dataset.instantiate(job.seed))),
        })
        .collect();
    Round {
        setup_s,
        wall_s,
        jobs,
        observed,
        stats: batch.stats(),
        plan_hits: batch.plan_cache().hits(),
        plan_misses: batch.plan_cache().misses(),
        expected_macs,
        problems,
        peak_rss_mib: 0.0,
    }
}

/// Warm-up jobs of the sweep: the paper-default configuration of each
/// engine. They instantiate the Yelp session and prepare both strategies
/// the sweep uses; none of their keys is in the sweep.
fn sweep_warmup(seed: u64) -> Vec<JobSpec> {
    let ml = PartitionStrategy::multilevel_default();
    ENGINE_NAMES
        .iter()
        .map(|&engine| {
            let job = JobSpec::new(yelp(), seed, engine);
            if engine == "grow" {
                job.with_strategy(ml)
            } else {
                job
            }
        })
        .collect()
}

/// The design-space sweep: 44 distinct keys over all four engines. Like
/// the paper's sweeps it varies GROW's knobs (32 keys) and visits the
/// baselines at a few points (12 keys). The baselines simulate several
/// times faster than GROW, so the misses' latencies form two groups; with
/// GROW the large majority, their median falls inside GROW's dense middle
/// (its multi-PE keys) rather than in the gap between the groups, where
/// it would flip from run to run.
fn sweep_jobs(seed: u64) -> Vec<JobSpec> {
    let spec = yelp();
    let ml = PartitionStrategy::multilevel_default();
    let grow = || JobSpec::new(spec, seed, "grow").with_strategy(ml);
    let mut jobs = Vec::new();
    for runahead in ["2", "4", "8", "32"] {
        for kb in ["128", "256", "1024"] {
            jobs.push(
                grow()
                    .with_override("runahead", runahead)
                    .with_override("hdn_cache_kb", kb),
            );
        }
    }
    for pes in [2, 4, 8, 16] {
        for scheduler in ["rr", "lpt", "ws", "ca"] {
            jobs.push(
                grow()
                    .with_override("exec", "e2e")
                    .with_pes(pes)
                    .with_override("scheduler", scheduler),
            );
        }
    }
    for scheduler in ["rr", "lpt", "ws", "ca"] {
        jobs.push(
            grow()
                .with_override("exec", "e2e")
                .with_pes(4)
                .with_channels(4)
                .with_banks(8)
                .with_override("scheduler", scheduler),
        );
    }
    for rows in ["64", "512"] {
        jobs.push(JobSpec::new(spec, seed, "gcnax").with_override("tile_rows", rows));
    }
    for kb in ["128", "2048"] {
        jobs.push(JobSpec::new(spec, seed, "gamma").with_override("fiber_cache_kb", kb));
    }
    for factor in ["0.5", "2"] {
        jobs.push(JobSpec::new(spec, seed, "matraptor").with_override("merge_factor", factor));
    }
    for engine in ["gcnax", "gamma", "matraptor"] {
        for pes in [2, 4] {
            jobs.push(
                JobSpec::new(spec, seed, engine)
                    .with_override("exec", "e2e")
                    .with_pes(pes),
            );
        }
    }
    jobs
}

/// Keys of the first service lifetime: per dataset, every engine's
/// paper default plus one variant each.
fn restart_first_life(seed: u64) -> Vec<JobSpec> {
    let ml = PartitionStrategy::multilevel_default();
    let mut jobs = Vec::new();
    for spec in [pubmed(), flickr()] {
        let job = |engine: &str| JobSpec::new(spec, seed, engine);
        jobs.extend([
            job("grow").with_strategy(ml),
            job("grow"),
            job("gcnax"),
            job("gamma"),
            job("matraptor"),
            job("grow").with_strategy(ml).with_override("runahead", "8"),
            job("grow")
                .with_strategy(ml)
                .with_override("scheduler", "ws")
                .with_pes(4),
            job("gcnax").with_override("tile_rows", "64"),
            job("gamma").with_override("fiber_cache_kb", "256"),
            job("matraptor").with_override("merge_factor", "0.5"),
        ]);
    }
    jobs
}

/// Keys new to the second lifetime: 5 on Pubmed and 15 on Flickr, so the
/// median miss falls inside one dataset's cluster of latencies rather than
/// between the two.
fn restart_new_keys(seed: u64) -> Vec<JobSpec> {
    let ml = PartitionStrategy::multilevel_default();
    let job = |spec: DatasetSpec, engine: &str| JobSpec::new(spec, seed, engine);
    let e2e = |spec: DatasetSpec, engine: &str| {
        job(spec, engine).with_override("exec", "e2e").with_pes(4)
    };
    let (pubmed, flickr) = (pubmed(), flickr());
    vec![
        e2e(pubmed, "grow").with_strategy(ml),
        job(pubmed, "grow")
            .with_strategy(ml)
            .with_override("hdn_cache_kb", "256"),
        e2e(pubmed, "gcnax"),
        e2e(pubmed, "gamma"),
        job(pubmed, "gamma").with_override("fiber_cache_kb", "1024"),
        e2e(flickr, "grow").with_strategy(ml),
        job(flickr, "grow")
            .with_strategy(ml)
            .with_override("hdn_cache_kb", "256"),
        job(flickr, "grow")
            .with_strategy(ml)
            .with_override("hdn_cache_kb", "128"),
        job(flickr, "grow")
            .with_strategy(ml)
            .with_override("runahead", "4"),
        job(flickr, "grow")
            .with_strategy(ml)
            .with_override("runahead", "32"),
        e2e(flickr, "grow")
            .with_strategy(ml)
            .with_override("scheduler", "lpt"),
        job(flickr, "grow")
            .with_strategy(ml)
            .with_override("exec", "e2e")
            .with_pes(2),
        e2e(flickr, "gcnax"),
        e2e(flickr, "gamma"),
        e2e(flickr, "matraptor"),
        job(flickr, "gcnax").with_override("tile_rows", "256"),
        job(flickr, "gcnax").with_override("tile_rows", "32"),
        job(flickr, "gamma").with_override("fiber_cache_kb", "1024"),
        job(flickr, "gamma").with_override("fiber_cache_kb", "64"),
        job(flickr, "matraptor").with_override("merge_factor", "2"),
    ]
}
