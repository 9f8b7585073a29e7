//! Concurrent-serving bench: wall-clock of draining the 18-job mixed
//! fleet (the `chaos` soak's fleet shape) through `AsyncService`, swept
//! across worker-pool sizes {1, 2, 4}. Every pool size is asserted
//! bit-identical to service-free runs of the same jobs (a fresh
//! `SimSession` per job, no pool, no caches) before its timing is
//! trusted — the pool only changes wall time and completion order, never
//! a report. Run with:
//!
//! ```text
//! cargo bench -p grow-bench --bench serving_throughput -- \
//!     [--quick] [--iters N] [--out DIR] [--baseline results/BENCH_serving.json]
//! ```
//!
//! Results land in `<out>/BENCH_serving.json` with a fixed key order
//! (rows sorted by worker count), the same deterministic-diff protocol
//! as `BENCH_parallel.json`; `--quick` (the CI smoke mode) writes
//! `BENCH_serving_smoke.json` on a smaller graph instead, so a smoke run
//! never clobbers the committed full-scale baseline. Passing
//! `--baseline` reports the one-worker-total speedup against a previous
//! run's JSON.
//!
//! Each timed drain starts from a fresh `BatchService` (no result store,
//! cold result cache), so every iteration pays the full prepare+simulate
//! cost — the thing the worker pool actually parallelizes. On a
//! single-core box the sweep degenerates (the numbers carry no scaling
//! signal) and the artifact is marked `"degenerate_single_core": true`.
//! Setting `GROW_THREADS` above the hardware thread count is rejected up
//! front, exactly as in the parallel-scaling bench.

use std::path::PathBuf;

use grow_bench::{json, timing};
use grow_core::registry::{self, ENGINE_NAMES};
use grow_core::{PartitionStrategy, RunReport};
use grow_model::DatasetKey;
use grow_serve::{AsyncConfig, AsyncService, BatchService, JobSpec, SimSession, Ticket};

/// The chaos fleet shape: three configurations per registry engine
/// (unpartitioned, multilevel, row-sharded), plus six mixed extras —
/// scheduler/PE variants, config overrides, and two end-to-end jobs.
fn fleet(spec: grow_model::DatasetSpec, seed: u64) -> Vec<JobSpec> {
    let multilevel = PartitionStrategy::multilevel_default();
    let mut jobs: Vec<JobSpec> = Vec::new();
    for name in ENGINE_NAMES {
        for strategy in [PartitionStrategy::None, multilevel] {
            jobs.push(JobSpec::new(spec, seed, name).with_strategy(strategy));
        }
        jobs.push(JobSpec::new(spec, seed, name).with_override("shard_rows", "64"));
    }
    jobs.push(
        JobSpec::new(spec, seed, "grow")
            .with_strategy(multilevel)
            .with_scheduler(grow_core::SchedulerKind::WorkStealing)
            .with_pes(8),
    );
    jobs.push(
        JobSpec::new(spec, seed, "grow")
            .with_strategy(multilevel)
            .with_override("runahead", "8"),
    );
    jobs.push(
        JobSpec::new(spec, seed, "grow")
            .with_strategy(multilevel)
            .with_override("hdn_cache_kb", "64"),
    );
    jobs.push(JobSpec::new(spec, seed, "grow").with_override("exec", "e2e"));
    jobs.push(JobSpec::new(spec, seed, "gcnax").with_override("exec", "e2e"));
    jobs.push(JobSpec::new(spec, seed, "gamma").with_pes(4));
    assert_eq!(jobs.len(), 18, "the serving fleet is 18 jobs");
    jobs
}

/// One job with no service at all: a fresh session, the job's HDN list
/// length, the engine built from its parsed overrides.
fn run_unserved(job: &JobSpec) -> RunReport {
    let parsed = registry::parse_overrides(&job.overrides).expect("fleet overrides parse");
    let overrides: Vec<(&str, &str)> = parsed
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let mut session = SimSession::from_spec(job.dataset, job.seed);
    session.set_hdn_id_entries(job.hdn_id_entries);
    session
        .run_with(&job.engine, &overrides, job.strategy)
        .expect("the serving fleet must be all-green")
}

/// One cold drain: fresh service, submit the whole fleet, wait every
/// ticket in submission order, shut down. Returns the results.
fn drain(jobs: &[JobSpec], workers: usize) -> Vec<grow_serve::JobResult> {
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            queue_capacity: jobs.len().max(1),
            session_capacity: None,
            workers,
        },
    );
    let tickets: Vec<Ticket> = jobs
        .iter()
        .map(|job| service.submit(job.clone()).expect("fleet fits the bound"))
        .collect();
    let results = tickets
        .into_iter()
        .map(|t| t.wait().expect("worker pool alive"))
        .collect();
    drop(service.finish());
    results
}

struct Cell {
    workers: usize,
    min_ms: f64,
    mean_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut baseline: Option<PathBuf> = None;
    let mut iters = 10u32;
    let mut quick = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // Cargo appends `--bench` when invoking harness=false benches.
            "--bench" => {}
            "--quick" => {
                quick = true;
                iters = 3;
            }
            "--iters" => iters = it.next().and_then(|v| v.parse().ok()).expect("--iters N"),
            "--out" => out_dir = PathBuf::from(it.next().expect("--out DIR")),
            "--baseline" => baseline = Some(PathBuf::from(it.next().expect("--baseline FILE"))),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if hw == 1 {
        eprintln!(
            "warning: only 1 hardware thread is available — the worker-pool \
             sweep degenerates and contains no concurrency signal. The \
             output is marked \"degenerate_single_core\": true."
        );
    }
    // Fail fast on an oversubscribed environment, exactly as the
    // parallel-scaling bench does: the committed artifact must never be
    // produced by a thrashing run.
    if let Ok(v) = std::env::var("GROW_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n > hw => {
                eprintln!(
                    "error: GROW_THREADS={n} exceeds the {hw} available hardware \
                     thread(s); an oversubscribed run does not measure serving \
                     throughput. Unset GROW_THREADS or set it to at most {hw}."
                );
                std::process::exit(2);
            }
            Ok(_) => {}
            Err(_) => {
                eprintln!("error: GROW_THREADS='{v}' is not a positive integer");
                std::process::exit(2);
            }
        }
    }

    let nodes = if quick { 800 } else { 4_000 };
    let spec = DatasetKey::Pubmed.spec().scaled_to(nodes);
    let jobs = fleet(spec, 42);
    let worker_sweep = [1usize, 2, 4];

    // The reference: every job run on its own, with no service. Every
    // drain must reproduce it bit for bit before it is timed.
    eprintln!(
        "[setup] service-free reference runs of {} jobs ...",
        jobs.len()
    );
    let reference: Vec<RunReport> = jobs.iter().map(run_unserved).collect();

    println!(
        "fleet: {} jobs on pubmed @{nodes} seed 42; {} hardware thread(s); \
         workers sweep {worker_sweep:?}\n",
        jobs.len(),
        hw
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9}  ({iters} iters)",
        "workers", "min ms", "mean ms", "speedup"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &workers in &worker_sweep {
        // The timing is only meaningful if this pool size computes the
        // same thing: every report must match its service-free run bit
        // for bit (plan-cache sharing and worker interleaving included).
        let drained = drain(&jobs, workers);
        for ((r, reference), job) in drained.iter().zip(&reference).zip(&jobs) {
            assert_eq!(
                r.report(),
                Some(reference),
                "workers={workers}: report for job {} ({}) diverged from its \
                 service-free run",
                r.index,
                job.engine
            );
        }
        let timed = timing::sample(iters, || {
            std::hint::black_box(drain(&jobs, workers));
        });
        let one_worker_min = cells.first().map_or(timed.min_ns, |c| c.min_ms * 1e6);
        println!(
            "{workers:>8} {:>12.3} {:>12.3} {:>8.2}x",
            timed.min_ns / 1e6,
            timed.mean_ns / 1e6,
            one_worker_min / timed.min_ns
        );
        cells.push(Cell {
            workers,
            min_ms: timed.min_ns / 1e6,
            mean_ms: timed.mean_ns / 1e6,
        });
    }
    cells.sort_by_key(|c| c.workers);
    let one_worker_min_ms = cells
        .iter()
        .find(|c| c.workers == 1)
        .expect("sweep includes 1")
        .min_ms;
    let peak = cells.last().expect("non-empty sweep");
    let peak_speedup = one_worker_min_ms / peak.min_ms;
    println!(
        "\n1-worker fleet drain {one_worker_min_ms:.3} ms; {}-worker {:.3} ms \
         -> {peak_speedup:.2}x",
        peak.workers, peak.min_ms
    );

    let baseline_total = baseline.as_ref().and_then(|path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("warning: could not read baseline {}: {e}", path.display()))
            .ok()?;
        extract_number(&text, "one_worker_min_ms")
    });
    if let Some(base_ms) = baseline_total {
        println!(
            "baseline 1-worker drain {base_ms:.3} ms -> speedup {:.2}x",
            base_ms / one_worker_min_ms
        );
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            json::object(&[
                ("workers", json::uint(c.workers as u64)),
                ("min_ms", json::number(c.min_ms)),
                ("mean_ms", json::number(c.mean_ms)),
                (
                    "speedup_vs_one_worker",
                    json::number(one_worker_min_ms / c.min_ms),
                ),
            ])
        })
        .collect();
    let doc = json::object(&[
        (
            "grid",
            json::string(&format!(
                "concurrent-serving: 18-job fleet, pubmed @{nodes} seed 42, \
                 workers sweep"
            )),
        ),
        ("iters", json::uint(iters as u64)),
        ("hw_threads", json::uint(hw as u64)),
        ("degenerate_single_core", json::boolean(hw == 1)),
        (
            "workers",
            json::array(worker_sweep.iter().map(|&w| json::uint(w as u64)).collect()),
        ),
        ("rows", json::array(rows)),
        ("one_worker_min_ms", json::number(one_worker_min_ms)),
        ("peak_min_ms", json::number(peak.min_ms)),
        ("peak_speedup", json::number(peak_speedup)),
        (
            "baseline_one_worker_min_ms",
            baseline_total.map_or_else(|| "null".to_string(), json::number),
        ),
        (
            "speedup_vs_baseline",
            baseline_total.map_or_else(
                || "null".to_string(),
                |b| json::number(b / one_worker_min_ms),
            ),
        ),
    ]);
    // Quick smoke runs get their own file: the tracked BENCH_serving.json
    // holds full-scale numbers only.
    let file = if quick {
        "BENCH_serving_smoke.json"
    } else {
        "BENCH_serving.json"
    };
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(out_dir.join(file), doc))
    {
        eprintln!("warning: could not write {file}: {e}");
    }
}

/// Pulls a top-level numeric field out of a BENCH_serving.json document
/// (the workspace builds offline, so no JSON parser crate; the file format
/// is our own and the field is a bare number).
fn extract_number(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
