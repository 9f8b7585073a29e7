//! Parallel-scaling bench: wall-clock of every registry engine on a
//! partitioned Reddit-scale workload, swept across worker-thread counts
//! (the `GROW_THREADS` axis), against a forced-serial reference. Every
//! parallel leg is asserted bit-identical to the serial report before its
//! timing is trusted. Run with:
//!
//! ```text
//! cargo bench -p grow-bench --bench parallel_speedup -- \
//!     [--quick] [--iters N] [--out DIR] [--baseline results/BENCH_parallel.json]
//! ```
//!
//! Results land in `<out>/BENCH_parallel.json` with a fixed key order
//! (rows sorted by engine then thread count), so two runs diff line by
//! line; `--quick` (the CI smoke mode) writes
//! `BENCH_parallel_smoke.json` on a smaller graph instead, so a smoke run
//! never clobbers the committed full-scale baseline. Passing `--baseline`
//! reports the serial-total speedup against a previous run's JSON; the
//! bench reads that file's `serial_total_min_ms` before the sweep and
//! exits 2 if it cannot. A relative `--out` or `--baseline` path is taken
//! from the workspace root, as `--out`'s default is, whatever directory
//! `cargo bench` runs the bench in. A missing or malformed flag value
//! exits 2 as well.
//!
//! Setting `GROW_THREADS` above the hardware thread count is rejected up
//! front: an oversubscribed sweep measures scheduler thrash, not scaling,
//! and the committed artifact must never be produced by one.

use std::path::PathBuf;

use grow_bench::{json, timing};
use grow_core::registry::{engine_by_name, ENGINE_NAMES};
use grow_core::{prepare, PartitionStrategy, HDN_ID_ENTRIES};
use grow_model::DatasetKey;
use grow_sim::exec::{with_mode, with_workers, ExecMode};

struct Cell {
    engine: &'static str,
    threads: usize,
    min_ms: f64,
    mean_ms: f64,
    serial_min_ms: f64,
}

/// Prints `message` and exits 2, the bench's usage-error status.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// `path`, taken from the workspace root when it is relative: `cargo
/// bench` runs the bench in its package directory, not where it was
/// invoked.
fn from_workspace_root(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = from_workspace_root("results");
    let mut baseline: Option<PathBuf> = None;
    let mut iters = 10u32;
    let mut quick = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |usage: &str| {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value ({arg} {usage})")))
        };
        match arg.as_str() {
            // Cargo appends `--bench` when invoking harness=false benches.
            "--bench" => {}
            "--quick" => {
                quick = true;
                iters = 3;
            }
            "--iters" => {
                let v = value("N");
                iters = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    usage_error(&format!("--iters '{v}' is not a positive integer"))
                });
            }
            "--out" => out_dir = from_workspace_root(&value("DIR")),
            "--baseline" => baseline = Some(from_workspace_root(&value("FILE"))),
            other => usage_error(&format!("unknown flag '{other}'")),
        }
    }
    // Read the baseline before the sweep: a path that does not hold a
    // previous run's total fails now, not after minutes of timing.
    let baseline_total = baseline.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            usage_error(&format!("cannot read baseline {}: {e}", path.display()))
        });
        extract_number(&text, "serial_total_min_ms").unwrap_or_else(|| {
            usage_error(&format!(
                "baseline {} has no numeric serial_total_min_ms",
                path.display()
            ))
        })
    });

    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single-core box can only produce a degenerate {1}-thread "sweep":
    // the numbers are real wall-clock but say nothing about scaling, so
    // warn loudly and mark the artifact instead of emitting a curve that
    // reads like a scaling result.
    if hw == 1 {
        eprintln!(
            "warning: only 1 hardware thread is available — the sweep \
             degenerates to a single-threaded measurement and contains no \
             parallel-scaling signal. The output is marked \
             \"degenerate_single_core\": true."
        );
    }
    // Fail fast on an oversubscribed environment: with more workers than
    // cores the sweep times scheduler thrash, not parallel scaling.
    if let Ok(v) = std::env::var("GROW_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n > hw => {
                eprintln!(
                    "error: GROW_THREADS={n} exceeds the {hw} available hardware \
                     thread(s); an oversubscribed run does not measure parallel \
                     scaling. Unset GROW_THREADS or set it to at most {hw}."
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
    // The sweep axis: powers of two up to the hardware thread count, plus
    // the hardware count itself (== {1} on a single-core box).
    let mut threads: Vec<usize> = Vec::new();
    let mut t = 1;
    while t <= hw {
        threads.push(t);
        t *= 2;
    }
    if *threads.last().expect("at least one thread") != hw {
        threads.push(hw);
    }

    // A Reddit-like spec with enough clusters (~40 at full scale) for the
    // fan-out to matter; the quick CI smoke leg shrinks the graph so the
    // bench binary is exercised end to end without the generation cost.
    let nodes = if quick { 10_000 } else { 40_000 };
    let spec = DatasetKey::Reddit.spec().scaled_to(nodes);
    eprintln!("[setup] generating {} nodes ...", spec.nodes);
    let workload = spec.instantiate(42);
    eprintln!("[setup] partitioning ...");
    let p = prepare(
        &workload,
        PartitionStrategy::Multilevel {
            cluster_nodes: 1024,
        },
        HDN_ID_ENTRIES,
    );
    println!(
        "workload: {} nodes, {} clusters; {} hardware thread(s); sweep {threads:?}\n",
        p.nodes,
        p.clusters.len(),
        hw
    );
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>9}  ({iters} iters)",
        "engine", "threads", "serial ms", "min ms", "speedup"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for name in ENGINE_NAMES {
        let engine = engine_by_name(name).expect("registered engine");
        let serial_report = with_mode(ExecMode::Serial, || engine.run(&p));
        let serial = with_mode(ExecMode::Serial, || {
            timing::sample(iters, || {
                std::hint::black_box(engine.run(&p));
            })
        });
        for &t in &threads {
            // The timing is only meaningful if this leg computes the same
            // thing: every thread count must reproduce the serial report
            // bit for bit.
            let report = with_workers(t, || with_mode(ExecMode::Parallel, || engine.run(&p)));
            assert_eq!(
                report, serial_report,
                "{name}: {t}-thread report diverged from serial"
            );
            let timed = with_workers(t, || {
                with_mode(ExecMode::Parallel, || {
                    timing::sample(iters, || {
                        std::hint::black_box(engine.run(&p));
                    })
                })
            });
            println!(
                "{:<12} {:>8} {:>12.3} {:>12.3} {:>8.2}x",
                engine.name(),
                t,
                serial.min_ns / 1e6,
                timed.min_ns / 1e6,
                serial.min_ns / timed.min_ns
            );
            cells.push(Cell {
                engine: engine.name(),
                threads: t,
                min_ms: timed.min_ns / 1e6,
                mean_ms: timed.mean_ns / 1e6,
                serial_min_ms: serial.min_ns / 1e6,
            });
        }
    }
    // Fixed row order regardless of measurement order: engine, threads.
    cells.sort_by(|a, b| (a.engine, a.threads).cmp(&(b.engine, b.threads)));
    let serial_total_min_ms: f64 = cells
        .iter()
        .filter(|c| c.threads == 1)
        .map(|c| c.serial_min_ms)
        .sum();
    let max_threads = *threads.last().expect("at least one thread");
    let peak_total_min_ms: f64 = cells
        .iter()
        .filter(|c| c.threads == max_threads)
        .map(|c| c.min_ms)
        .sum();
    println!("\nserial total (sum of per-engine min): {serial_total_min_ms:.3} ms");
    println!(
        "{max_threads}-thread total {peak_total_min_ms:.3} ms -> scaling {:.2}x",
        serial_total_min_ms / peak_total_min_ms
    );

    if let Some(base_ms) = baseline_total {
        println!(
            "baseline serial total {base_ms:.3} ms -> speedup {:.2}x",
            base_ms / serial_total_min_ms
        );
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            json::object(&[
                ("engine", json::string(c.engine)),
                ("threads", json::uint(c.threads as u64)),
                ("min_ms", json::number(c.min_ms)),
                ("mean_ms", json::number(c.mean_ms)),
                ("serial_min_ms", json::number(c.serial_min_ms)),
                (
                    "speedup_vs_serial",
                    json::number(c.serial_min_ms / c.min_ms),
                ),
            ])
        })
        .collect();
    let doc = json::object(&[
        (
            "grid",
            json::string(&format!(
                "parallel-scaling: reddit @{nodes} seed 42, multilevel 1024, \
                 threads sweep"
            )),
        ),
        ("iters", json::uint(iters as u64)),
        ("hw_threads", json::uint(hw as u64)),
        ("degenerate_single_core", json::boolean(hw == 1)),
        (
            "threads",
            json::array(threads.iter().map(|&t| json::uint(t as u64)).collect()),
        ),
        ("rows", json::array(rows)),
        ("serial_total_min_ms", json::number(serial_total_min_ms)),
        ("peak_total_min_ms", json::number(peak_total_min_ms)),
        (
            "baseline_serial_total_min_ms",
            baseline_total.map_or_else(|| "null".to_string(), json::number),
        ),
        (
            "speedup_vs_baseline",
            baseline_total.map_or_else(
                || "null".to_string(),
                |b| json::number(b / serial_total_min_ms),
            ),
        ),
    ]);
    // Quick smoke runs get their own file: the tracked BENCH_parallel.json
    // holds full-scale numbers only.
    let file = if quick {
        "BENCH_parallel_smoke.json"
    } else {
        "BENCH_parallel.json"
    };
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(out_dir.join(file), doc))
    {
        eprintln!("warning: could not write {file}: {e}");
    }
}

/// Pulls a top-level numeric field out of a BENCH_parallel.json document
/// (the workspace builds offline, so no JSON parser crate; the file format
/// is our own and the field is a bare number).
fn extract_number(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
