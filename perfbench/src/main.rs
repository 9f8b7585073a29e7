//! End-to-end benchmark of the GROW serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_reddit|sweep_yelp|restart_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs` and `README.md`) in rounds until
//! the timed phases add up to `--seconds`, checks every report, and prints
//! as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The traced run
//! also writes its spans to `.bench_out/spans-<workload>-seed<n>.jsonl`.
//! Host times are wall-clock seconds; `sim.*` metrics are simulated counts
//! from a model that is not validated against hardware.

mod probe;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use grow_core::registry::ENGINE_NAMES;
use grow_serve::ServiceStats;
use stats::{fnv1a, median, quantile};
use trace::Recorder;
use workloads::{Observed, Round, Runner, Workload, DEFAULT_SEED};

/// Digests of every report's `(total_cycles, dram_bytes, mac_ops)` on the
/// default seed, one `<workload> <seed> <digest>` line each.
const DIGESTS: &str = include_str!("../digests.txt");

/// A run stops starting rounds once another would likely end past this.
const RUN_BUDGET_S: f64 = 150.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!(
        "error: {message}\nusage: perfbench --workload <cold_reddit|sweep_yelp|restart_mixed> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Hardware threads, after refusing a `GROW_THREADS` that oversubscribes
/// them: an oversubscribed run does not measure the serving stack.
fn hardware_threads() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Ok(v) = std::env::var("GROW_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n > hw => {
                eprintln!(
                    "error: GROW_THREADS={n} exceeds the {hw} available hardware thread(s); \
                     unset it or set it to at most {hw}"
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
    hw
}

/// FNV-1a digest of every report's `(total_cycles, dram_bytes, mac_ops)`
/// in job-list order; `None` when a job has no report.
fn digest(round: &Round) -> Option<u64> {
    let mut bytes = Vec::new();
    for o in &round.observed {
        let r = o.report()?;
        for v in [r.total_cycles(), r.dram_bytes(), r.mac_ops()] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    Some(fnv1a(&bytes))
}

fn recorded_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (name, s, d) = (f.next()?, f.next()?, f.next()?);
        (name == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())?
    })
}

/// The correctness gate: every job succeeded, every report's MAC count
/// equals its workload's scalar-vector operations times their output
/// widths, rounds agree, and on
/// the default seed the digest matches the recorded one.
fn gate(args: &Args, rounds: &[Round]) -> Vec<String> {
    let mut problems = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        problems.extend(round.problems.iter().map(|p| format!("round {r}: {p}")));
        for o in &round.observed {
            match o.outcome.as_ref().map(|res| &res.outcome) {
                Err(e) => problems.push(format!("round {r} job {}: {e}", o.index)),
                Ok(Err(e)) => problems.push(format!("round {r} job {}: {e}", o.index)),
                Ok(Ok(report)) if report.mac_ops() != round.expected_macs[o.index] => problems
                    .push(format!(
                        "round {r} job {}: mac_ops {} != the workload's {}",
                        o.index,
                        report.mac_ops(),
                        round.expected_macs[o.index]
                    )),
                Ok(Ok(_)) => {}
            }
        }
    }
    let digests: Vec<Option<u64>> = rounds.iter().map(digest).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        problems.push("rounds produced different reports".to_string());
    }
    if let Some(d) = digests[0] {
        println!("digest {} {} {d:#018x}", args.workload.name(), args.seed);
        if args.seed == DEFAULT_SEED {
            match recorded_digest(args.workload, args.seed) {
                Some(want) if want == d => {}
                Some(want) => problems.push(format!(
                    "digest {d:#018x} != recorded {want:#018x} for the default seed"
                )),
                None => problems.push("no digest recorded for the default seed".to_string()),
            }
        }
    }
    problems
}

struct Metrics(String);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(
            self.0,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
}

fn main() {
    let args = parse_args();
    let hw = hardware_threads();
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let rec = Recorder::new(args.trace);
    println!(
        "workload {} seed {} seconds {} trace {} hw_threads {hw} clients {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.clients()
    );

    let run_start = Instant::now();
    let mut runner = Runner::new(args.workload, args.seed, &dir, &rec);
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed_s = 0.0;
    let mut longest_round_s: f64 = 0.0;
    while timed_s < args.seconds {
        let t = Instant::now();
        let round = runner.round();
        longest_round_s = longest_round_s.max(t.elapsed().as_secs_f64());
        timed_s += round.wall_s;
        eprintln!(
            "round {}: setup {:.6} s, timed {:.3} s, {} jobs",
            rounds.len(),
            median(round.setup_s.clone()),
            round.wall_s,
            round.jobs.len()
        );
        rounds.push(round);
        if run_start.elapsed().as_secs_f64() + longest_round_s > RUN_BUDGET_S {
            break;
        }
    }

    let mut problems = gate(&args, &rounds);
    let attempted: usize = rounds.iter().map(|r| r.observed.len()).sum();
    let failed = rounds
        .iter()
        .flat_map(|r| &r.observed)
        .filter(|o| o.report().is_none())
        .count();
    let misses: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.observed)
        .filter(|o| o.sim_s().is_some())
        .map(|o| o.latency_s)
        .collect();
    // Over the whole run: the host's speed drifts in spells longer than a
    // round, and a total averages over them where a median over rounds
    // would jump from one spell's rate to another's.
    let jobs_per_s = (attempted - failed) as f64 / timed_s;
    println!(
        "rounds {} attempted {attempted} failed {failed} failed_frac {} \
         misses {} (the miss_p50_s samples)",
        rounds.len(),
        failed as f64 / attempted as f64,
        misses.len()
    );

    let mut m = Metrics(String::new());
    if !args.trace {
        let setups: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        println!("setup_s over {} set-ups", setups.len());
        m.put("setup_s", median(setups), "s");
        m.put("jobs_per_s", jobs_per_s, "1/s");
        m.put("miss_p50_s", quantile(misses, 0.5), "s");
    } else {
        per_layer(
            &args,
            &rounds,
            jobs_per_s,
            timed_s,
            &dir,
            &rec,
            &mut m,
            &mut problems,
        );
        let spans = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"hw_threads\":{hw},\"rounds\":{}}}",
            args.workload.name(),
            args.seed,
            rounds.len()
        );
        if let Err(e) = rec.write_jsonl(&spans, &header) {
            problems.push(format!("cannot write {}: {e}", spans.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.0
    );
    if !correct {
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    rounds: &[Round],
    jobs_per_s: f64,
    timed_s: f64,
    dir: &std::path::Path,
    rec: &Recorder,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    m.put("trace.jobs_per_s", jobs_per_s, "1/s");
    m.put("trace.overhead_frac", rec.cost_s() / timed_s, "ratio");
    m.put(
        "host.peak_rss_mib",
        median(rounds.iter().map(|r| r.peak_rss_mib).collect()),
        "MiB",
    );

    let stages = probe::stages(args.workload, args.seed, rec).unwrap_or_else(|e| {
        problems.push(e);
        probe::StageTimes::default()
    });
    m.put("graph.generate_s", stages.generate_s, "s");
    m.put("model.features_s", stages.features_s, "s");
    m.put("partition.multilevel_s", stages.multilevel_s, "s");
    m.put("partition.relabel_s", stages.relabel_s, "s");
    m.put("partition.hdn_lists_s", stages.hdn_lists_s, "s");
    m.put("core.prepare_s", stages.prepare_s, "s");
    m.put("core.prepare_self_s", stages.prepare_self_s, "s");

    fn of_engine<'r>(r: &'r Round, engine: &'r str) -> impl Iterator<Item = &'r Observed> {
        r.observed
            .iter()
            .filter(move |o| r.jobs[o.index].engine == engine)
    }
    for engine in ENGINE_NAMES {
        let sim_s = median(
            rounds
                .iter()
                .map(|r| of_engine(r, engine).filter_map(Observed::sim_s).sum())
                .collect(),
        );
        let (all_s, all_macs) = rounds
            .iter()
            .flat_map(|r| of_engine(r, engine))
            .filter_map(|o| Some((o.sim_s()?, o.report()?.mac_ops())))
            .fold((0.0, 0u64), |(s, n), (ds, dn)| (s + ds, n + dn));
        let ns_per_mac = if all_macs == 0 {
            0.0
        } else {
            all_s * 1e9 / all_macs as f64
        };
        m.put(&format!("core.{engine}.sim_s"), sim_s, "s");
        m.put(&format!("core.{engine}.ns_per_mac"), ns_per_mac, "ns/MAC");
    }

    let per_round =
        |f: &dyn Fn(&Round) -> u64| median(rounds.iter().map(|r| f(r) as f64).collect());
    let hits = per_round(&|r| r.plan_hits);
    let misses = per_round(&|r| r.plan_misses);
    m.put("core.plan_cache.hits", hits, "count");
    m.put("core.plan_cache.misses", misses, "count");
    let lookups = hits + misses;
    m.put(
        "core.plan_cache.hit_ratio",
        if lookups == 0.0 { 0.0 } else { hits / lookups },
        "ratio",
    );

    let non_sim: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.observed)
        .filter_map(|o| Some(o.latency_s - o.sim_s()?))
        .collect();
    m.put("serve.non_sim_p50_s", quantile(non_sim, 0.5), "s");

    let store = probe::store(&rounds[0], dir, rec).unwrap_or_else(|e| {
        problems.push(e);
        probe::StoreTimes::default()
    });
    m.put("serve.store.load_s", store.load_s, "s");
    m.put("serve.store.persist_s", store.persist_s, "s");
    m.put("serve.store.bytes", store.bytes as f64, "bytes");

    type Count = fn(&ServiceStats) -> u64;
    let counts: [(&str, Count); 7] = [
        ("serve.simulations_run", |s| s.simulations_run),
        ("serve.preparations_run", |s| s.preparations_run),
        ("serve.sessions_created", |s| s.sessions_created),
        ("serve.store_hits", |s| s.store_hits),
        ("serve.cache_hits", |s| s.cache_hits),
        ("serve.jobs_in_flight_peak", |s| s.jobs_in_flight_peak),
        ("serve.retries", |s| s.retries),
    ];
    for (name, count) in counts {
        m.put(name, per_round(&|r| count(&r.stats)), "count");
    }

    // Simulated counts are identical in every round (the gate checks the
    // digest), so the first round stands for all.
    let first = &rounds[0];
    let mut grow_cache = grow_sim::CacheStats::default();
    for engine in ENGINE_NAMES {
        let (mut cycles, mut dram) = (0u64, 0u64);
        for o in &first.observed {
            if first.jobs[o.index].engine != engine {
                continue;
            }
            if let Some(r) = o.report() {
                cycles += r.total_cycles();
                dram += r.dram_bytes();
                if engine == "grow" {
                    grow_cache.merge(&r.aggregation_cache());
                }
            }
        }
        m.put(&format!("sim.{engine}.cycles"), cycles as f64, "sim_cycles");
        m.put(
            &format!("sim.{engine}.dram_bytes"),
            dram as f64,
            "sim_bytes",
        );
    }
    m.put(
        "sim.grow.hdn_hit_ratio",
        grow_cache.hit_rate().unwrap_or(0.0),
        "ratio",
    );
}
