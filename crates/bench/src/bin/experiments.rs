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
//! fluid pipe.
//!
//! Experiment ids: `table1 fig2 fig3 fig5 fig6 fig7 fig11 fig14 fig17
//! fig18 fig19 fig20 fig21 fig22 table4 fig24 figure24 fig25a fig25b
//! fig26 replacement nonpowerlaw preprocessing extensions engines sweep`
//! (`figure24` is the scheduler-axis extension of `fig24`, executed in
//! the end-to-end multi-PE mode: all four engines × rr/lpt/ws/ca cluster
//! scheduling × 1–16 PEs with `exec=e2e`, dispatched through the batch
//! service and summarized — per-layer multi-PE breakdowns included —
//! into `results/BENCH_figure24.json`). Each
//! prints an aligned table and writes `results/<id>.csv` plus a
//! machine-readable `results/<id>.json`; a run summary with per-experiment
//! wall-clock times lands in `results/BENCH_experiments.json` for
//! cross-PR perf tracking.
//!
//! The registry-driven experiments (`engines`, `sweep`) are defined as
//! *data* — lists of `grow_serve::JobSpec`s dispatched through one
//! `BatchService` call, which deduplicates workload preparation and fans
//! the simulations across worker threads.

use std::path::PathBuf;

use grow_bench::{cell, Context, Table};
use grow_core::experiments::{self, geomean, TrafficAblation};
use grow_core::{Accelerator, GcnaxEngine, GrowConfig, GrowEngine};
use grow_energy::{ActivityCounts, AreaModel, EnergyModel, GCNAX_AREA_40NM, TECH_SCALE_65_TO_40};
use grow_graph::stats;
use grow_model::DatasetKey;
use grow_partition::{multilevel_partition, ClusterLayout, MultilevelConfig};
use grow_serve::BatchService;
use grow_sparse::analysis::{self, FIG5A_BOUNDS, FIG5B_BOUNDS};
use grow_sparse::RowMajorSparse;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut keys: Vec<DatasetKey> = DatasetKey::ALL.to_vec();
    let mut max_nodes: Option<usize> = None;
    let mut full = false;
    let mut channels = 1usize;
    let mut banks = 1usize;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--datasets" => {
                let list = it.next().expect("--datasets a,b,c");
                keys = list
                    .split(',')
                    .map(|name| {
                        DatasetKey::parse(name).unwrap_or_else(|| {
                            eprintln!("unknown dataset '{name}'");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--max-nodes" => {
                max_nodes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-nodes N"),
                )
            }
            "--full" => full = true,
            "--channels" => {
                channels = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--channels N")
            }
            "--banks" => banks = it.next().and_then(|v| v.parse().ok()).expect("--banks N"),
            "--out" => out_dir = PathBuf::from(it.next().expect("--out DIR")),
            "--help" | "-h" => {
                eprintln!("see crate docs: experiments [flags] <ids...> | all");
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no experiment ids given; try `all`");
        std::process::exit(2);
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

    let mut ctx = Context::new(keys, seed);
    ctx.max_nodes = max_nodes;
    ctx.full_scale = full;
    ctx.channels = channels.max(1);
    ctx.banks = banks.max(1);
    // One batch service for the whole invocation: the registry-driven
    // experiments share pooled sessions and cached reports (running
    // `engines sweep` prepares each workload once, not twice).
    let mut service = BatchService::new();

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
            "figure24" => figure24(&ctx, &mut service, &out_dir),
            "fig25a" => fig25a(&mut ctx),
            "fig25b" => fig25b(&mut ctx),
            "fig26" => fig26(&mut ctx),
            "replacement" => replacement(&mut ctx),
            "nonpowerlaw" => nonpowerlaw(),
            "preprocessing" => preprocessing(&mut ctx),
            "extensions" => extensions(&mut ctx),
            "engines" => engines(&ctx, &mut service),
            "sweep" => sweep(&ctx, &mut service),
            other => {
                eprintln!(
                    "unknown experiment '{other}' (known: {})",
                    all_ids.join(" ")
                );
                std::process::exit(2);
            }
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
    write_bench_summary(&out_dir, seed, &timings);
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

/// All four registry engines on every selected dataset, dispatched as one
/// `grow_serve` batch: the sweep definition is a job list, preparation is
/// shared per dataset through the session pool, and the fleet fans across
/// worker threads.
fn engines(ctx: &Context, service: &mut BatchService) -> Table {
    use grow_core::registry::ENGINE_NAMES;
    use grow_core::PartitionStrategy;
    use grow_serve::JobSpec;
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
    let mut jobs = Vec::new();
    for i in 0..ctx.len() {
        let spec = ctx.spec(i);
        for name in ENGINE_NAMES {
            // GROW runs on its partitioned workload, baselines on the
            // original node order (Section VI's setup).
            let strategy = if name == "grow" {
                PartitionStrategy::multilevel_default()
            } else {
                PartitionStrategy::None
            };
            jobs.push(JobSpec::new(spec, ctx.seed, name).with_strategy(strategy));
        }
    }
    eprintln!("[run] engines: one batch of {} jobs", jobs.len());
    for result in service.run_batch(&jobs) {
        let r = result
            .outcome
            .expect("registered engines with default configs");
        t.row(&[
            result.dataset.into(),
            r.engine.into(),
            cell::count(r.total_cycles()),
            cell::mib(r.dram_bytes()),
            cell::count(r.mac_ops()),
            cell::percent(r.aggregation_cache().hit_rate().unwrap_or(0.0)),
        ]);
    }
    t
}

/// The full dataset × engine × partition grid through the batch service
/// in one call: results come back in submission order with per-job
/// status, simulation wall-clock, and cache provenance.
fn sweep(ctx: &Context, service: &mut BatchService) -> Table {
    use grow_core::registry::ENGINE_NAMES;
    use grow_core::PartitionStrategy;
    use grow_serve::grid_jobs;
    let strategies = [
        PartitionStrategy::None,
        PartitionStrategy::multilevel_default(),
        PartitionStrategy::LabelPropagation {
            cluster_nodes: 4096,
        },
    ];
    let partition_label = |s: PartitionStrategy| match s {
        PartitionStrategy::None => "none".to_string(),
        PartitionStrategy::Multilevel { cluster_nodes } => format!("multilevel/{cluster_nodes}"),
        PartitionStrategy::LabelPropagation { cluster_nodes } => {
            format!("label-prop/{cluster_nodes}")
        }
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
    let results = service.run_batch(&jobs);
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
    let stats = service.stats();
    eprintln!(
        "[run] sweep: {} simulations, {} preparations, {} pooled sessions",
        stats.simulations_run,
        stats.preparations_run,
        service.pooled_sessions()
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
        let eval = ctx.eval(i);
        let g = &eval.workload.graph;
        let spec = &eval.workload.spec;
        let alpha = stats::power_law_alpha(g, (g.avg_degree() as usize).max(2))
            .map(|a| format!("{a:.2}"))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            eval.key.name().into(),
            g.nodes().to_string(),
            cell::count(g.directed_edges() as u64),
            format!("{:.1}", g.avg_degree()),
            format!("{:.1}", spec.avg_degree),
            format!("{:.2e}", g.adjacency_density()),
            cell::percent(eval.workload.layers[0].x.density()),
            cell::percent(eval.workload.layers[1].x.density()),
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
        let eval = ctx.eval(i);
        let l = &eval.workload.layers[0];
        let counts = analysis::gcn_mac_counts(&eval.base.adjacency, &l.x.view(), l.f_out);
        t.row(&[
            eval.key.name().into(),
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
        let eval = ctx.eval(i);
        t.row(&[
            eval.key.name().into(),
            format!("{:.2e}", eval.base.adjacency.density()),
            cell::percent(eval.workload.layers[0].x.density()),
            cell::percent(eval.workload.layers[1].x.density()),
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
        let eval = ctx.eval(i);
        let a_hist = analysis::tile_nnz_histogram(
            &RowMajorSparse::Pattern(&eval.base.adjacency),
            128,
            128,
            FIG5A_BOUNDS,
        );
        let x_hist =
            analysis::tile_nnz_histogram(&eval.workload.layers[0].x.view(), 128, 128, FIG5B_BOUNDS);
        for (label, hist) in [("A", a_hist), ("X", x_hist)] {
            let f = hist.fractions();
            t.row(&[
                eval.key.name().into(),
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        let r = GcnaxEngine::default().run(&eval.base);
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
            eval.key.name().into(),
            cell::percent(avg(&agg_util)),
            cell::percent(avg(&comb_util)),
        ]);
    }
    t
}

fn fig7(ctx: &mut Context) -> Table {
    let mut t = Table::new("fig7", &["dataset", "aggregation", "combination"]);
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        let r = GcnaxEngine::default().run(&eval.base);
        let agg = r.aggregation_cycles() as f64;
        let total = r.total_cycles() as f64;
        t.row(&[
            eval.key.name().into(),
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
        let eval = ctx.eval(i);
        let coverage = stats::top_k_edge_coverage(&eval.workload.graph, 4096);
        for (bin, count) in stats::degree_histogram_log2(&eval.workload.graph) {
            t.row(&[
                eval.key.name().into(),
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
        let eval = ctx.eval(i);
        let g = &eval.workload.graph;
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
            t.row(&[eval.key.name().into(), bi.to_string(), cells.join(" ")]);
        }
    }
    t
}

fn fig17(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig17",
        &["dataset", "hit-rate w/o G.P.", "hit-rate with G.P."],
    );
    for i in 0..ctx.len() {
        let row = ctx.speedup_row(i);
        let (no_gp, gp) = row.hit_rates();
        t.row(&[row.dataset.into(), cell::percent(no_gp), cell::percent(gp)]);
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
    for i in 0..ctx.len() {
        let row = ctx.speedup_row(i);
        ratios.push(1.0 / row.traffic_ratio_gp());
        t.row(&[
            row.dataset.into(),
            "1.00".into(),
            cell::ratio(row.traffic_ratio_no_gp()),
            cell::ratio(row.traffic_ratio_gp()),
            cell::mib(row.gcnax.dram_bytes()),
            cell::mib(row.grow_gp.dram_bytes()),
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: traffic ablation", eval.key.name());
        let TrafficAblation {
            no_cache,
            cache,
            cache_gp,
        } = experiments::traffic_ablation(eval, &GrowConfig::default());
        // Normalized to no-cache, reported as reduction factors (higher is
        // better, as in Figure 19).
        t.row(&[
            eval.key.name().into(),
            "1.00".into(),
            cell::ratio(no_cache as f64 / cache as f64),
            cell::ratio(no_cache as f64 / cache_gp as f64),
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
    for i in 0..ctx.len() {
        let row = ctx.speedup_row(i);
        speedups.push(row.speedup_gp());
        let gcnax_agg = row.gcnax.aggregation_cycles() as f64 / row.gcnax.total_cycles() as f64;
        let grow_agg = row.grow_gp.aggregation_cycles() as f64 / row.grow_gp.total_cycles() as f64;
        t.row(&[
            row.dataset.into(),
            cell::ratio(row.speedup_no_gp()),
            cell::ratio(row.speedup_gp()),
            cell::percent(gcnax_agg),
            cell::percent(grow_agg),
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: cumulative ablation", eval.key.name());
        let abl = experiments::speedup_ablation(eval, &GrowConfig::default());
        a.push(abl.hdn_only);
        b.push(abl.plus_runahead);
        c.push(abl.plus_partitioning);
        t.row(&[
            eval.key.name().into(),
            cell::ratio(abl.hdn_only),
            cell::ratio(abl.plus_runahead),
            cell::ratio(abl.plus_partitioning),
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
    let model = EnergyModel::default();
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
    for i in 0..ctx.len() {
        let row = ctx.speedup_row(i).clone();
        let gcnax_sram = GcnaxEngine::default().sram_kb();
        let grow_sram = GrowEngine::default().sram_kb();
        let base = model.estimate(&row.gcnax.activity(gcnax_sram)).total();
        for (config, report, sram) in [
            ("GCNAX", &row.gcnax, gcnax_sram),
            ("GROW w/o G.P.", &row.grow_no_gp, grow_sram),
            ("GROW with G.P.", &row.grow_gp, grow_sram),
        ] {
            let counts: ActivityCounts = report.activity(sram);
            let e = model.estimate(&counts);
            let frac = e.fractions();
            t.row(&[
                row.dataset.into(),
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
    let model = AreaModel::default();
    let grow65 = model.grow_default_65nm();
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
fn figure24(ctx: &Context, service: &mut BatchService, out_dir: &std::path::Path) -> Table {
    use grow_core::registry::ENGINE_NAMES;
    use grow_core::{ExecModelKind, PartitionStrategy};
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
                &grow_core::SchedulerKind::ALL,
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
        grow_core::SchedulerKind::ALL.len(),
        jobs.len()
    );
    let results = service.run_batch(&jobs);

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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: PE scaling", eval.key.name());
        let curve = experiments::pe_scaling(eval, &pes);
        let mut cells = vec![eval.key.name().to_string()];
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: runahead sweep", eval.key.name());
        let sweep = experiments::runahead_sweep(eval, &degrees);
        let base = sweep[0].1 as f64;
        let mut cells = vec![eval.key.name().to_string()];
        cells.extend(sweep.iter().map(|&(_, cyc)| cell::ratio(base / cyc as f64)));
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: bandwidth sweep", eval.key.name());
        let pts = experiments::bandwidth_sweep(eval, &bws);
        // Normalized to each engine's own 64 GB/s point (the paper's
        // presentation).
        let grow_base = pts[2].grow_cycles as f64;
        let gcnax_base = pts[2].gcnax_cycles as f64;
        let mut grow_cells = vec![eval.key.name().to_string(), "GROW".into()];
        grow_cells.extend(
            pts.iter()
                .map(|p| cell::ratio(grow_base / p.grow_cycles as f64)),
        );
        t.row(&grow_cells);
        let mut gcnax_cells = vec![eval.key.name().to_string(), "GCNAX".into()];
        gcnax_cells.extend(
            pts.iter()
                .map(|p| cell::ratio(gcnax_base / p.gcnax_cycles as f64)),
        );
        t.row(&gcnax_cells);
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: MatRaptor/GAMMA comparison", eval.key.name());
        let c = experiments::spsp_comparison(eval);
        let grow = c.grow.total_cycles() as f64;
        let speedup = |r: &grow_core::RunReport| r.total_cycles() as f64 / grow;
        let traffic = |r: &grow_core::RunReport| r.dram_bytes() as f64 / c.grow.dram_bytes() as f64;
        s_mat.push(speedup(&c.matraptor));
        s_gam.push(speedup(&c.gamma));
        t_mat.push(traffic(&c.matraptor));
        t_gam.push(traffic(&c.gamma));
        t.row(&[
            eval.key.name().into(),
            cell::ratio(speedup(&c.gcnax)),
            cell::ratio(speedup(&c.matraptor)),
            cell::ratio(speedup(&c.gamma)),
            "1.00".into(),
            cell::ratio(traffic(&c.matraptor)),
            cell::ratio(traffic(&c.gamma)),
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: aggregator variants", eval.key.name());
        let base = run_with_aggregation(&engine, &eval.partitioned, AggregationKind::GcnSum);
        for (name, kind) in variants {
            let r = run_with_aggregation(&engine, &eval.partitioned, kind);
            t.row(&[
                eval.key.name().into(),
                name.into(),
                cell::count(r.total_cycles()),
                cell::ratio(r.total_cycles() as f64 / base.total_cycles() as f64),
                cell::percent(kind.area_overhead_fraction()),
            ]);
        }
    }
    t
}

fn nonpowerlaw() -> Table {
    // Section VIII discussion: uniform R-MAT graphs at a few scales.
    let mut t = Table::new(
        "nonpowerlaw",
        &["nodes", "avg-deg", "hit-rate", "speedup vs GCNAX"],
    );
    for (scale, deg) in [(13u32, 8.0f64), (15, 12.0), (16, 20.0)] {
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
        let eval = ctx.eval(i);
        let d = experiments::preprocessing_cost(&eval.workload);
        t.row(&[
            eval.key.name().into(),
            eval.workload.graph.nodes().to_string(),
            cell::count(eval.workload.graph.directed_edges() as u64),
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
    for i in 0..ctx.len() {
        let eval = ctx.eval(i);
        eprintln!("[run] {}: replacement policy study", eval.key.name());
        let s = experiments::replacement_study(eval);
        t.row(&[
            eval.key.name().into(),
            cell::count(s.pinned_cycles),
            cell::count(s.lru_cycles),
            cell::percent(s.pinned_hit_rate),
            cell::percent(s.lru_hit_rate),
            cell::ratio(s.lru_cycles as f64 / s.pinned_cycles as f64),
        ]);
    }
    t
}
