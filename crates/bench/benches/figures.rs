//! Wall-clock benches: one entry per paper table/figure, exercising the
//! exact code path that regenerates it at a CI-friendly scale.
//!
//! These measure the *simulator's* wall-clock cost; the simulated results
//! themselves (the paper's numbers) come from the `experiments` binary,
//! which runs the same functions at full surrogate scale.
//!
//! The offline build has no crates.io access, so this is a hand-rolled
//! `harness = false` bench instead of Criterion: each entry is warmed up
//! once, then timed over a fixed iteration count, reporting the mean and
//! minimum per-iteration time. Run with `cargo bench -p grow-bench`.
//! Set `BENCH_JSON=path.json` to also write machine-readable results.

use std::hint::black_box;

use grow_bench::timing::{self, Timing};
use grow_core::experiments::{self, DatasetEval};
use grow_core::{
    Accelerator, GammaEngine, GcnaxEngine, GrowConfig, GrowEngine, MatRaptorEngine, SchedulerKind,
};
use grow_model::DatasetKey;
use grow_sparse::analysis::{self, FIG5A_BOUNDS};
use grow_sparse::RowMajorSparse;

struct BenchResult {
    name: &'static str,
    timing: Timing,
}

fn bench(name: &'static str, iters: u32, f: impl FnMut()) -> BenchResult {
    let timing = timing::sample(iters, f);
    println!(
        "{name:<40} {:>12.1} us/iter (min {:>12.1} us, {iters} iters)",
        timing.mean_ns / 1e3,
        timing.min_ns / 1e3
    );
    BenchResult { name, timing }
}

fn bench_eval() -> DatasetEval {
    DatasetEval::from_spec(DatasetKey::Pubmed.spec().scaled_to(4000), 42)
}

fn main() {
    let eval = bench_eval();
    let mut results = Vec::new();

    results.push(bench("table1_dataset_generation", 10, || {
        let spec = DatasetKey::Cora.spec().scaled_to(1000);
        black_box(spec.instantiate(7).graph.directed_edges());
    }));

    results.push(bench("fig2_mac_counts", 20, || {
        let l = &eval.workload.layers[0];
        black_box(analysis::gcn_mac_counts(
            &eval.base.adjacency,
            &l.x.view(),
            l.f_out,
        ));
    }));

    results.push(bench("fig5_tile_histogram", 20, || {
        black_box(analysis::tile_nnz_histogram(
            &RowMajorSparse::Pattern(&eval.base.adjacency),
            128,
            128,
            FIG5A_BOUNDS,
        ));
    }));

    let gcnax = GcnaxEngine::default();
    results.push(bench("fig6_fig7_gcnax_run", 10, || {
        black_box(gcnax.run(&eval.base).total_cycles());
    }));

    let grow = GrowEngine::default();
    results.push(bench("fig17_grow_without_partitioning", 10, || {
        black_box(grow.run(&eval.base).total_cycles());
    }));
    results.push(bench("fig17_grow_with_partitioning", 10, || {
        black_box(grow.run(&eval.partitioned).total_cycles());
    }));

    results.push(bench("fig19_traffic_ablation", 5, || {
        black_box(experiments::traffic_ablation(&eval, &GrowConfig::default()));
    }));

    let profiles = GrowEngine::default()
        .run(&eval.partitioned)
        .cluster_profiles();
    results.push(bench("fig24_multi_pe_fluid", 20, || {
        black_box(grow_core::multi_pe::simulate(
            &profiles,
            16,
            128.0,
            SchedulerKind::RoundRobin,
        ));
    }));

    let runahead4 = GrowEngine::new(GrowConfig {
        runahead: 4,
        ldn_entries: 4,
        ..GrowConfig::default()
    });
    results.push(bench("fig25a_runahead_point", 10, || {
        black_box(runahead4.run(&eval.partitioned).total_cycles());
    }));

    let mat = MatRaptorEngine::default();
    let gamma = GammaEngine::default();
    results.push(bench("fig26_matraptor", 10, || {
        black_box(mat.run(&eval.base).total_cycles());
    }));
    results.push(bench("fig26_gamma", 10, || {
        black_box(gamma.run(&eval.base).total_cycles());
    }));

    let w = DatasetKey::Pubmed.spec().scaled_to(4000).instantiate(42);
    results.push(bench("fig13_partition_preprocessing", 5, || {
        black_box(grow_core::prepare(
            &w,
            grow_core::PartitionStrategy::Multilevel { cluster_nodes: 512 },
            4096,
        ));
    }));

    if let Ok(path) = std::env::var("BENCH_JSON") {
        let mut rows = Vec::new();
        for r in &results {
            rows.push(grow_bench::json::object(&[
                ("name", grow_bench::json::string(r.name)),
                ("iters", grow_bench::json::uint(r.timing.iters as u64)),
                ("mean_ns", grow_bench::json::number(r.timing.mean_ns)),
                ("min_ns", grow_bench::json::number(r.timing.min_ns)),
            ]));
        }
        let doc = grow_bench::json::array(rows);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}
