//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section VII) plus the Section IV characterization.
//!
//! Usage:
//!
//! ```text
//! experiments [--seed N] [--datasets a,b,c] [--max-nodes N] [--full]
//!             [--channels N] [--banks N] [--out DIR] <ids...>
//! experiments all
//! ```
//!
//! `--channels`/`--banks` select the banked memory topology for the
//! end-to-end experiments (`figure24`); the default `1 1` is the uniform
//! fluid pipe. A malformed, missing or out-of-range flag value — a
//! `--channels` or `--banks` count the engine registry would reject, a
//! zero `--max-nodes` — prints a message and exits 2 before anything
//! runs, as an unknown experiment id or dataset does.
//!
//! Experiment ids: `table1 fig2 fig3 fig5 fig6 fig7 fig11 fig14 fig17
//! fig18 fig19 fig20 fig21 fig22 table4 fig24 figure24 fig25a fig25b
//! fig26 replacement nonpowerlaw preprocessing extensions engines sweep`
//! (`figure24` is the scheduler-axis extension of `fig24`, executed in
//! the end-to-end multi-PE mode: all four engines × rr/lpt/ws/ca cluster
//! scheduling × 1–16 PEs with `exec=e2e`, summarized — per-layer multi-PE
//! breakdowns included — into `results/BENCH_figure24.json`). Each
//! prints an aligned table and writes `results/<id>.csv` plus a
//! machine-readable `results/<id>.json`; a run summary with per-experiment
//! wall-clock times lands in `results/BENCH_experiments.json` for
//! cross-PR perf tracking.
//!
//! Every engine experiment is defined as *data*: a list of
//! `grow_serve::JobSpec`s whose `key=value` overrides name the
//! configuration under study (`hdn_caching=false`, `runahead=1`,
//! `dram_gbps=64`, `replacement=lru`, ...), run in one call on the
//! invocation's one `BatchService`. Its session pool generates and
//! partitions each dataset once per invocation, its report cache
//! simulates a configuration that several figures share once, and each
//! call fans its jobs across worker threads. The characterization
//! figures read each workload and its prepared forms from the same
//! pooled sessions. Only the R-MAT `nonpowerlaw` study (its graph is not
//! a dataset recipe), the `preprocessing` timer, `fig14`'s 8-way
//! visualization partition and the `table4` area model stay off the job
//! path. `--max-nodes` caps the `nonpowerlaw` graphs too: each of its
//! 2^13-, 2^15- and 2^16-node points shrinks to the largest power of two
//! within the cap, and never below 2^4 nodes.

use std::num::NonZeroUsize;
use std::path::PathBuf;

use grow_bench::{cell, Context, Table};
use grow_core::experiments::{self, geomean};
use grow_core::registry::{self, ENGINE_NAMES};
use grow_core::{
    multi_pe, Accelerator, GcnaxEngine, GrowConfig, GrowEngine, PartitionStrategy, RunReport,
    SchedulerKind,
};
use grow_energy::{ActivityCounts, GCNAX_AREA_40NM, TECH_SCALE_65_TO_40};
use grow_graph::stats;
use grow_model::DatasetKey;
use grow_partition::{multilevel_partition, ClusterLayout, MultilevelConfig};
use grow_serve::{JobSpec, SimSession};
use grow_sparse::analysis::{self, FIG5A_BOUNDS, FIG5B_BOUNDS};
use grow_sparse::RowMajorSparse;

/// Prints `message` and exits 2, the status of every usage error.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The value following `flag`, parsed, or a usage error naming the
/// `expected` form.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>, expected: &str) -> T {
    let value = value.unwrap_or_else(|| usage_error(&format!("{flag} needs a value ({expected})")));
    value.parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "invalid value '{value}' for {flag} (expected {expected})"
        ))
    })
}

fn main() {
    let mut ctx = Context::new(DatasetKey::ALL.to_vec(), 42);
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => ctx.seed = flag_value(&arg, it.next(), "an unsigned integer"),
            "--datasets" => {
                let list: String = flag_value(&arg, it.next(), "a,b,c");
                ctx.keys = list
                    .split(',')
                    .map(|name| {
                        DatasetKey::parse(name)
                            .unwrap_or_else(|| usage_error(&format!("unknown dataset '{name}'")))
                    })
                    .collect();
            }
            "--max-nodes" => {
                let cap: NonZeroUsize = flag_value(&arg, it.next(), "a positive node count");
                ctx.max_nodes = Some(cap.get());
            }
            "--full" => ctx.full_scale = true,
            "--channels" | "--banks" => {
                let value: String = flag_value(&arg, it.next(), "a positive count");
                // The registry's own bounds, which every job applies.
                if let Err(e) = registry::engine_from_overrides("grow", &[(&arg[2..], &value)]) {
                    usage_error(&format!("{arg}: {e}"));
                }
                let count = value.parse().expect("the registry parsed it");
                match arg.as_str() {
                    "--channels" => ctx.channels = count,
                    _ => ctx.banks = count,
                }
            }
            "--out" => out_dir = PathBuf::from(flag_value::<String>(&arg, it.next(), "DIR")),
            "--help" | "-h" => {
                eprintln!("see crate docs: experiments [flags] <ids...> | all");
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        usage_error("no experiment ids given; try `all`");
    }
    let all_ids = [
        "table1",
        "fig2",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig11",
        "fig14",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "table4",
        "fig24",
        "figure24",
        "fig25a",
        "fig25b",
        "fig26",
        "replacement",
        "nonpowerlaw",
        "preprocessing",
        "extensions",
        "engines",
        "sweep",
    ];
    if ids.len() == 1 && ids[0] == "all" {
        ids = all_ids.iter().map(|s| s.to_string()).collect();
    }
    if let Some(other) = ids.iter().find(|id| !all_ids.contains(&id.as_str())) {
        usage_error(&format!(
            "unknown experiment '{other}' (known: {})",
            all_ids.join(" ")
        ));
    }

    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in &ids {
        let started = std::time::Instant::now();
        let table = match id.as_str() {
            "table1" => table1(&mut ctx),
            "fig2" => fig2(&mut ctx),
            "fig3" => fig3(&mut ctx),
            "fig5" => fig5(&mut ctx),
            "fig6" => fig6(&mut ctx),
            "fig7" => fig7(&mut ctx),
            "fig11" => fig11(&mut ctx),
            "fig14" => fig14(&mut ctx),
            "fig17" => fig17(&mut ctx),
            "fig18" => fig18(&mut ctx),
            "fig19" => fig19(&mut ctx),
            "fig20" => fig20(&mut ctx),
            "fig21" => fig21(&mut ctx),
            "fig22" => fig22(&mut ctx),
            "table4" => table4(),
            "fig24" => fig24(&mut ctx),
            "figure24" => figure24(&mut ctx, &out_dir),
            "fig25a" => fig25a(&mut ctx),
            "fig25b" => fig25b(&mut ctx),
            "fig26" => fig26(&mut ctx),
            "replacement" => replacement(&mut ctx),
            "nonpowerlaw" => nonpowerlaw(&ctx),
            "preprocessing" => preprocessing(&mut ctx),
            "extensions" => extensions(&mut ctx),
            "engines" => engines(&mut ctx),
            "sweep" => sweep(&mut ctx),
            _ => unreachable!("ids are checked against all_ids"),
        };
        timings.push((id.clone(), started.elapsed().as_secs_f64() * 1e3));
        println!("{}", table.render());
        if let Err(e) = table.write_csv(&out_dir) {
            eprintln!("warning: could not write {}: {e}", table.name());
        }
        if let Err(e) = table.write_json(&out_dir) {
            eprintln!("warning: could not write {} json: {e}", table.name());
        }
    }
    write_bench_summary(&out_dir, ctx.seed, &timings);
}

/// Writes `BENCH_experiments.json`: per-experiment wall-clock times of this
/// run, so successive PRs accumulate a perf trajectory of the simulator
/// itself.
fn write_bench_summary(out_dir: &std::path::Path, seed: u64, timings: &[(String, f64)]) {
    use grow_bench::json;
    let entries: Vec<String> = timings
        .iter()
        .map(|(id, ms)| json::object(&[("id", json::string(id)), ("wall_ms", json::number(*ms))]))
        .collect();
    let total_ms: f64 = timings.iter().map(|(_, ms)| ms).sum();
    let doc = json::object(&[
        ("seed", json::uint(seed)),
        (
            "threads",
            json::string(&std::env::var("GROW_THREADS").unwrap_or_default()),
        ),
        (
            "serial",
            json::string(&std::env::var("GROW_SERIAL").unwrap_or_default()),
        ),
        ("total_wall_ms", json::number(total_ms)),
        ("experiments", json::array(entries)),
    ]);
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("BENCH_experiments.json"), doc))
    {
        eprintln!("warning: could not write BENCH_experiments.json: {e}");
    }
}

/// The original node order: the baselines and GROW without graph
/// partitioning (G.P.).
const NO_GP: PartitionStrategy = PartitionStrategy::None;

/// Table III's multilevel graph partitioning: GROW with G.P.
const GP: PartitionStrategy = PartitionStrategy::multilevel_default();

/// Runs a figure's job list on the invocation's service in one batch:
/// `dataset_jobs` builds each dataset's jobs from `job(engine, strategy)`,
/// the engine's default job on the dataset, adding the overrides under
/// study. Returns each dataset's reports in job order. Flags are validated
/// before any experiment runs, so a failed job is a bug in the harness.
fn run<const N: usize>(
    ctx: &mut Context,
    id: &str,
    dataset_jobs: impl Fn(&dyn Fn(&str, PartitionStrategy) -> JobSpec) -> [JobSpec; N],
) -> Vec<(DatasetKey, [RunReport; N])> {
    let shared = &*ctx;
    let jobs: Vec<JobSpec> = (0..ctx.len())
        .flat_map(|i| {
            dataset_jobs(&|engine, strategy| {
                JobSpec::new(shared.spec(i), shared.seed, engine).with_strategy(strategy)
            })
        })
        .collect();
    eprintln!("[run] {id}: {} jobs", jobs.len());
    let mut reports = ctx.service.run_batch(&jobs).into_iter().map(|result| {
        result
            .outcome
            .unwrap_or_else(|e| panic!("{id}: {} on {}: {e}", result.engine, result.dataset))
    });
    let mut next = |_| reports.next().expect("N reports per dataset");
    ctx.keys
        .iter()
        .map(|&key| (key, std::array::from_fn(&mut next)))
        .collect()
}

/// Dataset `i`'s pooled session — its workload and prepared forms,
/// shared with every job on the dataset, whatever its engine —
/// instantiated on first use.
fn session(ctx: &mut Context, i: usize) -> &SimSession {
    let job = JobSpec::new(ctx.spec(i), ctx.seed, "grow");
    ctx.service.session(&job)
}

/// The comparison of Figures 17, 18, 20 and 22: GCNAX, GROW without and
/// GROW with graph partitioning, each at its default configuration.
fn comparison(ctx: &mut Context, id: &str) -> Vec<(DatasetKey, [RunReport; 3])> {
    run(ctx, id, |job| {
        [job("gcnax", NO_GP), job("grow", NO_GP), job("grow", GP)]
    })
}

/// The aggregation phases' HDN cache hit rate (0 when nothing probed).
fn hit_rate(report: &RunReport) -> f64 {
    report.aggregation_cache().hit_rate().unwrap_or(0.0)
}

/// All four registry engines on every selected dataset, GROW on its
/// partitioned workload and the baselines on the original node order
/// (Section VI's setup).
fn engines(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "engines",
        &[
            "dataset",
            "engine",
            "cycles",
            "DRAM MiB",
            "MACs",
            "agg hit rate",
        ],
    );
    let reports = run(ctx, "engines", |job| {
        ENGINE_NAMES.map(|name| job(name, if name == "grow" { GP } else { NO_GP }))
    });
    for (key, reports) in reports {
        for r in &reports {
            t.row(&[
                key.name().into(),
                r.engine.into(),
                cell::count(r.total_cycles()),
                cell::mib(r.dram_bytes()),
                cell::count(r.mac_ops()),
                cell::percent(hit_rate(r)),
            ]);
        }
    }
    t
}

/// The full dataset × engine × partition grid through the batch service
/// in one call: results come back in submission order with per-job
/// status, simulation wall-clock, and cache provenance.
fn sweep(ctx: &mut Context) -> Table {
    use grow_serve::grid_jobs;
    let strategies = [NO_GP, GP];
    let partition_label = |s: PartitionStrategy| match s {
        PartitionStrategy::None => "none".to_string(),
        PartitionStrategy::Multilevel { cluster_nodes } => format!("multilevel/{cluster_nodes}"),
    };
    let specs: Vec<_> = (0..ctx.len()).map(|i| ctx.spec(i)).collect();
    let jobs = grid_jobs(&specs, ctx.seed, &ENGINE_NAMES, &strategies);
    eprintln!(
        "[run] sweep: {} datasets x {} engines x {} partitions = {} jobs",
        specs.len(),
        ENGINE_NAMES.len(),
        strategies.len(),
        jobs.len()
    );
    let results = ctx.service.run_batch(&jobs);
    let mut t = Table::new(
        "sweep",
        &[
            "dataset",
            "engine",
            "partition",
            "status",
            "cycles",
            "DRAM MiB",
            "sim ms",
        ],
    );
    for result in &results {
        let partition = partition_label(jobs[result.index].strategy);
        match &result.outcome {
            Ok(r) => t.row(&[
                result.dataset.into(),
                result.engine.clone(),
                partition,
                if result.cache_hit {
                    "ok (cached)"
                } else {
                    "ok"
                }
                .into(),
                cell::count(r.total_cycles()),
                cell::mib(r.dram_bytes()),
                result
                    .wall_ms
                    .map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}")),
            ]),
            Err(e) => t.row(&[
                result.dataset.into(),
                result.engine.clone(),
                partition,
                format!("error: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    let stats = ctx.service.stats();
    eprintln!(
        "[run] sweep: {} simulations, {} preparations, {} pooled sessions",
        stats.simulations_run,
        stats.preparations_run,
        ctx.service.pooled_sessions()
    );
    t
}

fn table1(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "table1",
        &[
            "dataset",
            "nodes",
            "edges",
            "avg-deg",
            "deg(paper)",
            "density-A",
            "X0-density",
            "X1-density",
            "alpha",
        ],
    );
    for i in 0..ctx.len() {
        let workload = session(ctx, i).workload();
        let g = &workload.graph;
        let spec = &workload.spec;
        let alpha = stats::power_law_alpha(g, (g.avg_degree() as usize).max(2))
            .map(|a| format!("{a:.2}"))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            spec.key.name().into(),
            g.nodes().to_string(),
            cell::count(g.directed_edges() as u64),
            format!("{:.1}", g.avg_degree()),
            format!("{:.1}", spec.avg_degree),
            format!("{:.2e}", g.adjacency_density()),
            cell::percent(workload.layers[0].x.density()),
            cell::percent(workload.layers[1].x.density()),
            alpha,
        ]);
    }
    t
}

fn fig2(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig2",
        &["dataset", "MACs A(XW)", "MACs (AX)W", "(AX)W / A(XW)"],
    );
    for i in 0..ctx.len() {
        let name = ctx.keys[i].name();
        let session = session(ctx, i);
        let l = &session.workload().layers[0];
        let base = session.prepared(NO_GP);
        let counts = analysis::gcn_mac_counts(&base.adjacency, &l.x.view(), l.f_out);
        t.row(&[
            name.into(),
            cell::count(counts.a_xw),
            cell::count(counts.ax_w),
            cell::ratio(counts.ratio()),
        ]);
    }
    t
}

fn fig3(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig3",
        &[
            "dataset",
            "density-A",
            "density-X0",
            "density-X1",
            "density-XW",
            "density-W",
        ],
    );
    for i in 0..ctx.len() {
        let name = ctx.keys[i].name();
        let session = session(ctx, i);
        let layers = &session.workload().layers;
        t.row(&[
            name.into(),
            format!("{:.2e}", session.prepared(NO_GP).adjacency.density()),
            cell::percent(layers[0].x.density()),
            cell::percent(layers[1].x.density()),
            cell::percent(1.0), // XW is dense (Figure 3(b))
            cell::percent(1.0), // W is dense (Table I)
        ]);
    }
    t
}

fn fig5(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig5",
        &["dataset", "matrix", "1", "2", "3~8", "bucket4", ">last"],
    );
    for i in 0..ctx.len() {
        let name = ctx.keys[i].name();
        let session = session(ctx, i);
        let a_hist = analysis::tile_nnz_histogram(
            &RowMajorSparse::Pattern(&session.prepared(NO_GP).adjacency),
            128,
            128,
            FIG5A_BOUNDS,
        );
        let x = session.workload().layers[0].x.view();
        let x_hist = analysis::tile_nnz_histogram(&x, 128, 128, FIG5B_BOUNDS);
        for (label, hist) in [("A", a_hist), ("X", x_hist)] {
            let f = hist.fractions();
            t.row(&[
                name.into(),
                label.into(),
                cell::percent(f[0]),
                cell::percent(f[1]),
                cell::percent(f[2]),
                format!("{} {}", hist.bucket_label(3), cell::percent(f[3])),
                cell::percent(f[4]),
            ]);
        }
    }
    t
}

fn fig6(ctx: &mut Context) -> Table {
    let mut t = Table::new("fig6", &["dataset", "util-A (agg)", "util-X (comb)"]);
    for (key, [r]) in run(ctx, "fig6", |job| [job("gcnax", NO_GP)]) {
        let agg_util: Vec<f64> = r
            .layers
            .iter()
            .filter_map(|l| {
                l.aggregation
                    .traffic
                    .utilization(grow_sim::TrafficClass::LhsSparse)
            })
            .collect();
        let comb_util: Vec<f64> = r
            .layers
            .iter()
            .filter_map(|l| {
                l.combination
                    .traffic
                    .utilization(grow_sim::TrafficClass::LhsSparse)
            })
            .collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        t.row(&[
            key.name().into(),
            cell::percent(avg(&agg_util)),
            cell::percent(avg(&comb_util)),
        ]);
    }
    t
}

fn fig7(ctx: &mut Context) -> Table {
    let mut t = Table::new("fig7", &["dataset", "aggregation", "combination"]);
    for (key, [r]) in run(ctx, "fig7", |job| [job("gcnax", NO_GP)]) {
        let agg = r.aggregation_cycles() as f64;
        let total = r.total_cycles() as f64;
        t.row(&[
            key.name().into(),
            cell::percent(agg / total),
            cell::percent(1.0 - agg / total),
        ]);
    }
    t
}

fn fig11(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig11",
        &["dataset", "deg>=bin", "nodes", "top4096-coverage"],
    );
    for i in 0..ctx.len() {
        if ctx.keys[i] != DatasetKey::Reddit && ctx.len() > 1 {
            continue;
        }
        let name = ctx.keys[i].name();
        let graph = &session(ctx, i).workload().graph;
        let coverage = stats::top_k_edge_coverage(graph, 4096);
        for (bin, count) in stats::degree_histogram_log2(graph) {
            t.row(&[
                name.into(),
                bin.to_string(),
                count.to_string(),
                cell::percent(coverage),
            ]);
        }
    }
    t
}

fn fig14(ctx: &mut Context) -> Table {
    // Block-density map after 8-way partitioning (the paper's
    // visualization grain), printed as per-block densities.
    let mut t = Table::new(
        "fig14",
        &["dataset", "block-row", "densities (x1e-3, 8 cols)"],
    );
    for i in 0..ctx.len() {
        if !matches!(
            ctx.keys[i],
            DatasetKey::Reddit | DatasetKey::Yelp | DatasetKey::Pokec | DatasetKey::Amazon
        ) && ctx.len() > 1
        {
            continue;
        }
        let name = ctx.keys[i].name();
        let g = &session(ctx, i).workload().graph;
        let p = multilevel_partition(g, 8, &MultilevelConfig::default());
        let layout = ClusterLayout::from_partitioning(&p);
        let rg = layout.relabel(g);
        let ranges = layout.ranges().to_vec();
        let adj = rg.into_adjacency();
        // Count nnz per block.
        let k = ranges.len();
        let mut counts = vec![vec![0u64; k]; k];
        let block_of = |node: usize| ranges.iter().position(|r| r.contains(&node)).unwrap_or(0);
        for (bi, range) in ranges.iter().enumerate() {
            for r in range.clone() {
                for &c in adj.row_indices(r) {
                    counts[bi][block_of(c as usize)] += 1;
                }
            }
        }
        for (bi, row) in counts.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(bj, &nnz)| {
                    let area = (ranges[bi].len() * ranges[bj].len()) as f64;
                    format!("{:5.2}", 1e3 * nnz as f64 / area)
                })
                .collect();
            t.row(&[name.into(), bi.to_string(), cells.join(" ")]);
        }
    }
    t
}

fn fig17(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig17",
        &["dataset", "hit-rate w/o G.P.", "hit-rate with G.P."],
    );
    for (key, [_, no_gp, gp]) in comparison(ctx, "fig17") {
        t.row(&[
            key.name().into(),
            cell::percent(hit_rate(&no_gp)),
            cell::percent(hit_rate(&gp)),
        ]);
    }
    t
}

fn fig18(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig18",
        &[
            "dataset",
            "GCNAX",
            "GROW w/o G.P.",
            "GROW with G.P.",
            "GCNAX MiB",
            "GROW MiB",
        ],
    );
    let mut ratios = Vec::new();
    for (key, [gcnax, no_gp, gp]) in comparison(ctx, "fig18") {
        // DRAM traffic normalized to GCNAX (lower is better).
        let traffic = |r: &RunReport| r.dram_bytes() as f64 / gcnax.dram_bytes() as f64;
        ratios.push(1.0 / traffic(&gp));
        t.row(&[
            key.name().into(),
            "1.00".into(),
            cell::ratio(traffic(&no_gp)),
            cell::ratio(traffic(&gp)),
            cell::mib(gcnax.dram_bytes()),
            cell::mib(gp.dram_bytes()),
        ]);
    }
    t.row(&[
        "geomean-reduction".into(),
        "".into(),
        "".into(),
        cell::ratio(geomean(ratios)),
        "".into(),
        "".into(),
    ]);
    t
}

fn fig19(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig19",
        &[
            "dataset",
            "no-cache",
            "w/ HDN caching",
            "w/ HDN caching + G.P.",
        ],
    );
    let reports = run(ctx, "fig19", |job| {
        [
            job("grow", NO_GP).with_override("hdn_caching", "false"),
            job("grow", NO_GP),
            job("grow", GP),
        ]
    });
    for (key, [no_cache, cache, cache_gp]) in reports {
        // Normalized to no-cache, reported as reduction factors (higher is
        // better, as in Figure 19).
        let reduction = |r: &RunReport| no_cache.dram_bytes() as f64 / r.dram_bytes() as f64;
        t.row(&[
            key.name().into(),
            "1.00".into(),
            cell::ratio(reduction(&cache)),
            cell::ratio(reduction(&cache_gp)),
        ]);
    }
    t
}

fn fig20(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig20",
        &[
            "dataset",
            "speedup w/o G.P.",
            "speedup with G.P.",
            "GCNAX agg%",
            "GROW agg%",
        ],
    );
    let mut speedups = Vec::new();
    for (key, [gcnax, no_gp, gp]) in comparison(ctx, "fig20") {
        let speedup = |r: &RunReport| gcnax.total_cycles() as f64 / r.total_cycles() as f64;
        let agg_share = |r: &RunReport| r.aggregation_cycles() as f64 / r.total_cycles() as f64;
        speedups.push(speedup(&gp));
        t.row(&[
            key.name().into(),
            cell::ratio(speedup(&no_gp)),
            cell::ratio(speedup(&gp)),
            cell::percent(agg_share(&gcnax)),
            cell::percent(agg_share(&gp)),
        ]);
    }
    t.row(&[
        "geomean".into(),
        "".into(),
        cell::ratio(geomean(speedups)),
        "".into(),
        "".into(),
    ]);
    t
}

fn fig21(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig21",
        &[
            "dataset",
            "HDN cache only",
            "+ runahead",
            "+ graph partition",
        ],
    );
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    // GROW's mechanisms applied one by one: the row-stationary dataflow
    // with the HDN cache (runahead degree 1), plus runahead execution,
    // plus graph partitioning.
    let reports = run(ctx, "fig21", |job| {
        [
            job("gcnax", NO_GP),
            job("grow", NO_GP).with_override("runahead", "1"),
            job("grow", NO_GP),
            job("grow", GP),
        ]
    });
    for (key, [gcnax, hdn_only, runahead, full]) in reports {
        let speedup = |r: &RunReport| gcnax.total_cycles() as f64 / r.total_cycles() as f64;
        let steps = [speedup(&hdn_only), speedup(&runahead), speedup(&full)];
        a.push(steps[0]);
        b.push(steps[1]);
        c.push(steps[2]);
        t.row(&[
            key.name().into(),
            cell::ratio(steps[0]),
            cell::ratio(steps[1]),
            cell::ratio(steps[2]),
        ]);
    }
    t.row(&[
        "geomean".into(),
        cell::ratio(geomean(a)),
        cell::ratio(geomean(b)),
        cell::ratio(geomean(c)),
    ]);
    t
}

fn fig22(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig22",
        &[
            "dataset",
            "config",
            "MAC",
            "RF",
            "SRAM",
            "DRAM",
            "leak",
            "total (norm GCNAX)",
        ],
    );
    let mut effs = Vec::new();
    let gcnax_sram = GcnaxEngine::default().sram_kb();
    let grow_sram = GrowEngine::default().sram_kb();
    for (key, [gcnax, no_gp, gp]) in comparison(ctx, "fig22") {
        let base = grow_energy::estimate(&gcnax.activity(gcnax_sram)).total();
        for (config, report, sram) in [
            ("GCNAX", &gcnax, gcnax_sram),
            ("GROW w/o G.P.", &no_gp, grow_sram),
            ("GROW with G.P.", &gp, grow_sram),
        ] {
            let counts: ActivityCounts = report.activity(sram);
            let e = grow_energy::estimate(&counts);
            let frac = e.fractions();
            t.row(&[
                key.name().into(),
                config.into(),
                cell::percent(frac[0]),
                cell::percent(frac[1]),
                cell::percent(frac[2]),
                cell::percent(frac[3]),
                cell::percent(frac[4]),
                cell::ratio(e.total() / base),
            ]);
            if config == "GROW with G.P." {
                effs.push(base / e.total());
            }
        }
    }
    t.row(&[
        "geomean-efficiency".into(),
        "GROW vs GCNAX".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        cell::ratio(geomean(effs)),
    ]);
    t
}

fn table4() -> Table {
    let grow65 = grow_energy::grow_default_65nm();
    let grow40 = grow65.scaled(TECH_SCALE_65_TO_40);
    let mut t = Table::new(
        "table4",
        &["component", "40nm est (mm2)", "65nm meas (mm2)"],
    );
    for ((name, a65), (_, a40)) in grow65.components.iter().zip(&grow40.components) {
        t.row(&[(*name).into(), format!("{a40:.3}"), format!("{a65:.3}")]);
    }
    t.row(&[
        "Total".into(),
        format!("{:.3}", grow40.total()),
        format!("{:.3}", grow65.total()),
    ]);
    t.row(&[
        "GCNAX total".into(),
        format!("{GCNAX_AREA_40NM:.2}"),
        "-".into(),
    ]);
    t
}

/// The scheduler-axis extension of Figure 24, executed *end-to-end*: all
/// four engines × every scheduler (`rr`/`lpt`/`ws`/`ca`) × 1–16 PEs,
/// dispatched through the batch service with `exec=e2e` so the multi-PE
/// contention model runs inside the execution loop and the reported cycle
/// counts are the multi-PE truth. Each cell reports the end-to-end
/// cycles, the speedup over round-robin at the same PE count, and the
/// load-imbalance ratio; the machine-readable summary in
/// `<out>/BENCH_figure24.json` additionally carries every cell's
/// per-layer, per-phase multi-PE record (makespan, cluster time and per-PE
/// busy cycles).
fn figure24(ctx: &mut Context, out_dir: &std::path::Path) -> Table {
    use grow_core::ExecModelKind;
    use grow_serve::scheduler_grid_jobs;
    let pe_counts = [1usize, 2, 4, 8, 16];
    let specs: Vec<_> = (0..ctx.len()).map(|i| ctx.spec(i)).collect();
    // Finer clusters than the Table III default so every dataset has
    // real scheduling freedom (the default 4096-node grain leaves small
    // surrogates as a handful of clusters that any policy assigns alike).
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 256 };
    let mut jobs = Vec::new();
    for engine in ENGINE_NAMES {
        jobs.extend(
            scheduler_grid_jobs(
                &specs,
                ctx.seed,
                engine,
                strategy,
                &SchedulerKind::ALL,
                &pe_counts,
            )
            .into_iter()
            .map(|job| {
                job.with_exec_model(ExecModelKind::EndToEnd)
                    .with_channels(ctx.channels)
                    .with_banks(ctx.banks)
            }),
        );
    }
    eprintln!(
        "[run] figure24 (exec=e2e, channels={} banks={}): {} datasets x {} engines x {} PE counts x {} schedulers = {} jobs",
        ctx.channels,
        ctx.banks,
        specs.len(),
        ENGINE_NAMES.len(),
        pe_counts.len(),
        SchedulerKind::ALL.len(),
        jobs.len()
    );
    let results = ctx.service.run_batch(&jobs);

    // Round-robin baselines per (dataset, engine, pes) for the speedup
    // column — under e2e the makespan IS the end-to-end cycle count.
    let mut rr_cycles: std::collections::HashMap<(&str, &str, usize), f64> =
        std::collections::HashMap::new();
    for result in &results {
        let report = result.report().expect("registered engines and schedulers");
        let summary = report.multi_pe.as_ref().expect("summary attached");
        if summary.scheduler == "rr" {
            rr_cycles.insert(
                (result.dataset, report.engine, summary.pes),
                summary.makespan,
            );
        }
    }

    let mut t = Table::new(
        "figure24",
        &[
            "dataset",
            "engine",
            "pes",
            "scheduler",
            "cycles",
            "speedup-vs-rr",
            "imbalance",
        ],
    );
    let mut json_rows = Vec::new();
    for result in &results {
        let report = result.report().expect("validated jobs");
        let summary = report.multi_pe.as_ref().expect("summary attached");
        let rr = rr_cycles[&(result.dataset, report.engine, summary.pes)];
        let speedup = if summary.makespan > 0.0 {
            rr / summary.makespan
        } else {
            1.0
        };
        t.row(&[
            result.dataset.into(),
            report.engine.into(),
            summary.pes.to_string(),
            summary.scheduler.into(),
            cell::count(report.total_cycles()),
            cell::ratio(speedup),
            cell::ratio(summary.imbalance),
        ]);
        let layers: Vec<String> = report
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let phase = |name: &str, phase: &grow_core::PhaseReport| {
                    let pe = phase.pe.as_ref().expect("e2e runs carry per-PE busy times");
                    grow_bench::json::object(&[
                        ("phase", grow_bench::json::string(name)),
                        ("makespan", grow_bench::json::number(pe.makespan)),
                        ("cluster_time", grow_bench::json::number(pe.cluster_time)),
                        (
                            "per_pe_busy",
                            grow_bench::json::array(
                                pe.per_pe_busy
                                    .iter()
                                    .map(|&b| grow_bench::json::number(b))
                                    .collect(),
                            ),
                        ),
                    ])
                };
                grow_bench::json::object(&[
                    ("layer", grow_bench::json::uint(li as u64)),
                    ("combination", phase("combination", &layer.combination)),
                    ("aggregation", phase("aggregation", &layer.aggregation)),
                ])
            })
            .collect();
        json_rows.push(grow_bench::json::object(&[
            ("dataset", grow_bench::json::string(result.dataset)),
            ("engine", grow_bench::json::string(report.engine)),
            ("pes", grow_bench::json::uint(summary.pes as u64)),
            ("scheduler", grow_bench::json::string(summary.scheduler)),
            ("exec", grow_bench::json::string(report.exec)),
            ("cycles", grow_bench::json::uint(report.total_cycles())),
            ("imbalance", grow_bench::json::number(summary.imbalance)),
            ("speedup_vs_rr", grow_bench::json::number(speedup)),
            ("layers", grow_bench::json::array(layers)),
        ]));
    }
    let doc = grow_bench::json::object(&[
        ("source", grow_bench::json::string("experiments")),
        ("exec", grow_bench::json::string("e2e")),
        ("seed", grow_bench::json::uint(ctx.seed)),
        ("channels", grow_bench::json::uint(ctx.channels as u64)),
        ("banks", grow_bench::json::uint(ctx.banks as u64)),
        ("rows", grow_bench::json::array(json_rows)),
    ]);
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("BENCH_figure24.json"), doc))
    {
        eprintln!("warning: could not write BENCH_figure24.json: {e}");
    }
    t
}

fn fig24(ctx: &mut Context) -> Table {
    let pes = [1usize, 2, 4, 8, 16];
    let mut t = Table::new(
        "fig24",
        &["dataset", "1 PE", "2 PE", "4 PE", "8 PE", "16 PE"],
    );
    // The partitioned GROW run's cluster profiles, with bandwidth
    // proportional to the PE count.
    for (key, [report]) in run(ctx, "fig24", |job| [job("grow", GP)]) {
        let curve = multi_pe::scaling_curve(
            &report.cluster_profiles(),
            &pes,
            GrowConfig::default().dram_bytes_per_cycle,
            SchedulerKind::RoundRobin,
        );
        let mut cells = vec![key.name().to_string()];
        cells.extend(curve.iter().map(|p| cell::ratio(p.normalized_throughput)));
        t.row(&cells);
    }
    t
}

fn fig25a(ctx: &mut Context) -> Table {
    let degrees = [1usize, 2, 4, 8, 16, 32];
    let mut t = Table::new(
        "fig25a",
        &[
            "dataset", "1-way", "2-way", "4-way", "8-way", "16-way", "32-way",
        ],
    );
    // Cycles at each runahead degree (with as many LDN table entries), on
    // the partitioned workload.
    let reports = run(ctx, "fig25a", |job| {
        degrees.map(|d| {
            job("grow", GP)
                .with_override("runahead", &d.to_string())
                .with_override("ldn_entries", &d.to_string())
        })
    });
    for (key, reports) in reports {
        let base = reports[0].total_cycles() as f64;
        let mut cells = vec![key.name().to_string()];
        cells.extend(
            reports
                .iter()
                .map(|r| cell::ratio(base / r.total_cycles() as f64)),
        );
        t.row(&cells);
    }
    t
}

fn fig25b(ctx: &mut Context) -> Table {
    let bws = [16.0, 32.0, 64.0, 128.0, 256.0];
    let mut t = Table::new(
        "fig25b",
        &[
            "dataset", "engine", "16GB/s", "32GB/s", "64GB/s", "128GB/s", "256GB/s",
        ],
    );
    // GROW (with G.P.) at each bandwidth, then GCNAX.
    let reports = run(ctx, "fig25b", |job| -> [JobSpec; 10] {
        std::array::from_fn(|k| {
            let (engine, strategy) = [("grow", GP), ("gcnax", NO_GP)][k / bws.len()];
            job(engine, strategy).with_override("dram_gbps", &bws[k % bws.len()].to_string())
        })
    });
    for (key, reports) in reports {
        let (grow, gcnax) = reports.split_at(bws.len());
        for (engine, points) in [("GROW", grow), ("GCNAX", gcnax)] {
            // Normalized to each engine's own 64 GB/s point (the paper's
            // presentation).
            let base = points[2].total_cycles() as f64;
            let mut cells = vec![key.name().to_string(), engine.into()];
            cells.extend(
                points
                    .iter()
                    .map(|r| cell::ratio(base / r.total_cycles() as f64)),
            );
            t.row(&cells);
        }
    }
    t
}

fn fig26(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig26",
        &[
            "dataset",
            "GCNAX",
            "MatRaptor",
            "GAMMA",
            "GROW",
            "traffic vs MatRaptor",
            "traffic vs GAMMA",
        ],
    );
    let (mut s_mat, mut s_gam, mut t_mat, mut t_gam) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let reports = run(ctx, "fig26", |job| {
        [
            job("gcnax", NO_GP),
            job("matraptor", NO_GP),
            job("gamma", NO_GP),
            job("grow", GP),
        ]
    });
    for (key, [gcnax, matraptor, gamma, grow]) in reports {
        let speedup = |r: &RunReport| r.total_cycles() as f64 / grow.total_cycles() as f64;
        let traffic = |r: &RunReport| r.dram_bytes() as f64 / grow.dram_bytes() as f64;
        s_mat.push(speedup(&matraptor));
        s_gam.push(speedup(&gamma));
        t_mat.push(traffic(&matraptor));
        t_gam.push(traffic(&gamma));
        t.row(&[
            key.name().into(),
            cell::ratio(speedup(&gcnax)),
            cell::ratio(speedup(&matraptor)),
            cell::ratio(speedup(&gamma)),
            "1.00".into(),
            cell::ratio(traffic(&matraptor)),
            cell::ratio(traffic(&gamma)),
        ]);
    }
    t.row(&[
        "geomean (GROW speedup over)".into(),
        "".into(),
        cell::ratio(geomean(s_mat)),
        cell::ratio(geomean(s_gam)),
        "".into(),
        cell::ratio(geomean(t_mat)),
        cell::ratio(geomean(t_gam)),
    ]);
    t
}

fn extensions(ctx: &mut Context) -> Table {
    // Section VIII: advanced aggregation functions on the same dataflow.
    use grow_core::extensions::{run_with_aggregation, AggregationKind};
    let variants: [(&str, AggregationKind); 5] = [
        ("gcn-sum", AggregationKind::GcnSum),
        (
            "sage-mean-25",
            AggregationKind::SageMean { sample: Some(25) },
        ),
        (
            "sage-pool-25",
            AggregationKind::SagePool { sample: Some(25) },
        ),
        ("gin", AggregationKind::Gin),
        ("gat", AggregationKind::Gat),
    ];
    let engine = GrowEngine::default();
    let mut t = Table::new(
        "extensions",
        &[
            "dataset",
            "aggregator",
            "cycles",
            "vs gcn-sum",
            "area overhead",
        ],
    );
    // The plain GCN sum is the default GROW job on the partitioned form.
    let bases = run(ctx, "extensions", |job| [job("grow", GP)]);
    for (i, (key, [base])) in bases.into_iter().enumerate() {
        eprintln!("[run] {}: aggregator variants", key.name());
        let partitioned = session(ctx, i).prepared(GP);
        for (name, kind) in variants {
            let r = match kind {
                AggregationKind::GcnSum => base.clone(),
                _ => run_with_aggregation(&engine, &partitioned, kind),
            };
            t.row(&[
                key.name().into(),
                name.into(),
                cell::count(r.total_cycles()),
                cell::ratio(r.total_cycles() as f64 / base.total_cycles() as f64),
                cell::percent(kind.area_overhead_fraction()),
            ]);
        }
    }
    t
}

fn nonpowerlaw(ctx: &Context) -> Table {
    // Section VIII discussion: uniform R-MAT graphs at a few scales, each
    // capped at the largest power of two within `--max-nodes` and never
    // below the 16 nodes every dataset spec keeps.
    let max_scale = ctx.max_nodes.map_or(u32::MAX, |cap| cap.ilog2().max(4));
    let mut t = Table::new(
        "nonpowerlaw",
        &["nodes", "avg-deg", "hit-rate", "speedup vs GCNAX"],
    );
    for (scale, deg) in [(13u32, 8.0f64), (15, 12.0), (16, 20.0)] {
        let scale = scale.min(max_scale);
        eprintln!("[run] non-power-law R-MAT scale {scale}");
        let s = experiments::non_power_law_study(scale, deg, 77);
        t.row(&[
            (1usize << scale).to_string(),
            format!("{deg:.0}"),
            cell::percent(s.hit_rate),
            cell::ratio(s.speedup),
        ]);
    }
    t
}

fn preprocessing(ctx: &mut Context) -> Table {
    // Section V-C: one-time graph preprocessing cost, amortized over all
    // future inference runs.
    let mut t = Table::new(
        "preprocessing",
        &["dataset", "nodes", "edges", "partition-time"],
    );
    for i in 0..ctx.len() {
        let workload = session(ctx, i).workload();
        let d = experiments::preprocessing_cost(workload);
        t.row(&[
            workload.spec.key.name().into(),
            workload.graph.nodes().to_string(),
            cell::count(workload.graph.directed_edges() as u64),
            format!("{:.2?}", d),
        ]);
    }
    t
}

fn replacement(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "replacement",
        &[
            "dataset",
            "pinned cycles",
            "LRU cycles",
            "pinned hit",
            "LRU hit",
            "pinned speedup",
        ],
    );
    // The paper's pinned HDN policy against demand-filled LRU
    // replacement, both on the partitioned workload.
    let reports = run(ctx, "replacement", |job| {
        [
            job("grow", GP),
            job("grow", GP).with_override("replacement", "lru"),
        ]
    });
    for (key, [pinned, lru]) in reports {
        t.row(&[
            key.name().into(),
            cell::count(pinned.total_cycles()),
            cell::count(lru.total_cycles()),
            cell::percent(hit_rate(&pinned)),
            cell::percent(hit_rate(&lru)),
            cell::ratio(lru.total_cycles() as f64 / pinned.total_cycles() as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_share_one_pooled_session_per_dataset() {
        let mut ctx = Context::new(vec![DatasetKey::Cora, DatasetKey::Citeseer], 3);
        ctx.max_nodes = Some(300);
        assert_eq!(table1(&mut ctx).len(), 2);
        assert_eq!(fig17(&mut ctx).len(), 2);
        assert_eq!(engines(&mut ctx).len(), 8);
        assert_eq!(ctx.service.pooled_sessions(), 2);
        assert_eq!(ctx.service.stats().sessions_created, 2);
    }
}
