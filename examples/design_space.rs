//! Architectural design-space exploration with the GROW model: sweep the
//! HDN cache capacity and the runahead degree, and report how cycles,
//! traffic, and estimated area trade off.
//!
//! This reproduces the *kind* of study Sections VII-F/G perform (PE count,
//! runahead degree, bandwidth) and shows how a downstream user would
//! evaluate their own configuration before committing to RTL. The sweep
//! is defined as *data* — a list of `grow_serve::JobSpec`s — and runs as
//! one batch: the workload is instantiated and partitioned once, shared
//! by all 15 configurations, and the simulations fan across threads.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use grow::accel::PartitionStrategy;
use grow::energy::{grow_65nm, TECH_SCALE_65_TO_40};
use grow::model::DatasetKey;
use grow::serve::{BatchService, JobSpec};

fn main() {
    let spec = DatasetKey::Flickr.spec().scaled_to(20_000);

    // The sweep, as pure data: the same strings a CLI flag or a config
    // file would carry.
    let points: Vec<(u64, usize)> = [64u64, 128, 256, 512, 1024]
        .into_iter()
        .flat_map(|cache_kb| [1usize, 4, 16].map(|runahead| (cache_kb, runahead)))
        .collect();
    let jobs: Vec<JobSpec> = points
        .iter()
        .map(|&(cache_kb, runahead)| {
            JobSpec::new(spec, 5, "grow")
                .with_strategy(PartitionStrategy::multilevel_default())
                .with_override("hdn_cache_kb", &cache_kb.to_string())
                .with_override("runahead", &runahead.to_string())
                .with_override("ldn_entries", &runahead.to_string())
        })
        .collect();

    let mut service = BatchService::new();
    let results = service.run_batch(&jobs);
    let stats = service.stats();
    println!(
        "batch: {} jobs, {} simulations, {} workload preparation(s)",
        stats.jobs_submitted, stats.simulations_run, stats.preparations_run
    );
    println!(
        "\n{:>10} {:>9} {:>12} {:>12} {:>10} {:>9}",
        "cache", "runahead", "cycles", "DRAM MiB", "hit rate", "mm2@40nm"
    );

    let mut best: Option<(f64, String)> = None;
    for (&(cache_kb, runahead), result) in points.iter().zip(&results) {
        let report = result.report().expect("valid overrides");
        let area = grow_65nm(cache_kb as f64)
            .scaled(TECH_SCALE_65_TO_40)
            .total();
        let cycles = report.total_cycles();
        let hit = report.aggregation_cache().hit_rate().unwrap_or(0.0);
        println!(
            "{:>8}KB {:>9} {:>12} {:>12.1} {:>9.1}% {:>9.3}",
            cache_kb,
            runahead,
            cycles,
            report.dram_bytes() as f64 / (1 << 20) as f64,
            100.0 * hit,
            area
        );
        // A simple perf/area figure of merit (Section VII-E reports
        // performance per mm2).
        let merit = 1.0 / (cycles as f64 * area);
        let label = format!("{cache_kb} KB cache, {runahead}-way runahead");
        if best.as_ref().is_none_or(|(m, _)| merit > *m) {
            best = Some((merit, label));
        }
    }
    let (_, label) = best.expect("sweep is non-empty");
    println!("\nbest performance/mm2 in this sweep: {label}");
    println!("(the paper's Table III point is 512 KB / 16-way)");
}
