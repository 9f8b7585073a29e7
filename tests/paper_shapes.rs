//! The headline shapes of the paper's evaluation figures, asserted on
//! small workloads. Each test runs the configurations its figure's job
//! list in the `experiments` binary runs, through `SimSession::run_with`
//! with the same `key=value` overrides, so a change to the models that
//! bends a figure's shape fails here before it reaches a results table.

use grow::accel::multi_pe::scaling_curve;
use grow::accel::{GrowConfig, PartitionStrategy, RunReport, SchedulerKind};
use grow::model::DatasetKey;
use grow::session::SimSession;

const NONE: PartitionStrategy = PartitionStrategy::None;

fn gp() -> PartitionStrategy {
    PartitionStrategy::multilevel_default()
}

/// Pubmed at 1,500 nodes, seed 7: the workload of most shape tests.
fn small_session() -> SimSession {
    SimSession::from_spec(DatasetKey::Pubmed.spec().scaled_to(1500), 7)
}

fn run(
    session: &SimSession,
    engine: &str,
    overrides: &[(&str, &str)],
    strategy: PartitionStrategy,
) -> RunReport {
    session
        .run_with(engine, overrides, strategy)
        .unwrap_or_else(|e| panic!("{engine} {overrides:?}: {e}"))
}

fn hit_rate(report: &RunReport) -> f64 {
    report.aggregation_cache().hit_rate().unwrap_or(0.0)
}

#[test]
fn speedup_row_shows_grow_winning() {
    // Figures 17 and 20. Paper regime: XW must exceed GCNAX's 512 KB
    // dense buffer (n * 16 * 8 B > 512 KB => n > 4096) and the adjacency
    // must be tile-sparse; tiny resident workloads legitimately favor
    // GCNAX.
    let mut spec = DatasetKey::Pubmed.spec().scaled_to(6000);
    spec.avg_degree = 4.0;
    let session = SimSession::from_spec(spec, 7);
    let gcnax = run(&session, "gcnax", &[], NONE);
    let no_gp = run(&session, "grow", &[], NONE);
    let with_gp = run(&session, "grow", &[], gp());
    let speedup = gcnax.total_cycles() as f64 / with_gp.total_cycles() as f64;
    assert!(speedup > 1.0, "speedup {speedup}");
    let (no_gp, with_gp) = (hit_rate(&no_gp), hit_rate(&with_gp));
    assert!(
        with_gp >= no_gp * 0.8,
        "partitioning hit rate {with_gp} vs {no_gp}"
    );
}

#[test]
fn traffic_ablation_is_monotone() {
    // Figure 19: caching reduces traffic, partitioning reduces it more
    // (on community-structured graphs).
    let session = small_session();
    let no_cache = run(&session, "grow", &[("hdn_caching", "false")], NONE).dram_bytes();
    let cache = run(&session, "grow", &[], NONE).dram_bytes();
    let cache_gp = run(&session, "grow", &[], gp()).dram_bytes();
    assert!(no_cache > cache, "{no_cache} vs {cache}");
    assert!(cache >= cache_gp, "{cache} vs {cache_gp}");
}

#[test]
fn ablation_steps_improve() {
    // Figure 21: speedup over GCNAX as GROW's mechanisms are applied one
    // by one.
    let session = small_session();
    let cycles = |engine, overrides: &[(&str, &str)], strategy| {
        run(&session, engine, overrides, strategy).total_cycles() as f64
    };
    let gcnax = cycles("gcnax", &[], NONE);
    let hdn_only = gcnax / cycles("grow", &[("runahead", "1")], NONE);
    let plus_runahead = gcnax / cycles("grow", &[], NONE);
    let plus_partitioning = gcnax / cycles("grow", &[], gp());
    assert!(
        plus_runahead >= hdn_only * 0.95,
        "{hdn_only} -> {plus_runahead}"
    );
    assert!(
        plus_partitioning >= plus_runahead * 0.9,
        "{plus_runahead} -> {plus_partitioning}"
    );
}

#[test]
fn bandwidth_sweep_monotone_for_gcnax() {
    // Figure 25(b): GCNAX is highly bandwidth-sensitive.
    let session = small_session();
    let cycles: Vec<u64> = ["16", "64", "256"]
        .iter()
        .map(|&gbps| run(&session, "gcnax", &[("dram_gbps", gbps)], NONE).total_cycles())
        .collect();
    assert!(cycles[0] > cycles[1], "{cycles:?}");
    assert!(cycles[1] >= cycles[2], "{cycles:?}");
}

#[test]
fn spsp_comparison_ranks_engines() {
    // Figure 26: GROW > GAMMA > MatRaptor. At this toy scale both
    // sparse-sparse engines can be compute-bound (cycle tie), but the
    // fiber cache must still strictly separate their traffic.
    let session = small_session();
    let matraptor = run(&session, "matraptor", &[], NONE);
    let gamma = run(&session, "gamma", &[], NONE);
    let grow = run(&session, "grow", &[], gp());
    assert!(grow.total_cycles() < gamma.total_cycles());
    assert!(gamma.total_cycles() <= matraptor.total_cycles());
    assert!(gamma.dram_bytes() < matraptor.dram_bytes());
    assert!(grow.dram_bytes() < gamma.dram_bytes());
}

#[test]
fn pe_scaling_improves_throughput() {
    // Figure 24. Use fine-grained clusters so the small test workload
    // actually has parallelism to distribute (the default 4096-node
    // clusters leave a 2500-node graph as a single cluster).
    let session = SimSession::from_spec(DatasetKey::Pubmed.spec().scaled_to(2500), 7);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 200 };
    let report = run(&session, "grow", &[], strategy);
    let curve = scaling_curve(
        &report.cluster_profiles(),
        &[1, 4, 16],
        GrowConfig::default().dram.bytes_per_cycle,
        SchedulerKind::RoundRobin,
    );
    assert!((curve[0].normalized_throughput - 1.0).abs() < 1e-9);
    assert!(curve[1].normalized_throughput > 2.0, "{curve:?}");
    assert!(
        curve[2].normalized_throughput > curve[1].normalized_throughput,
        "{curve:?}"
    );
}

#[test]
fn replacement_study_reports_both_policies() {
    // Section VIII: the pinned HDN policy against demand-filled LRU.
    let session = small_session();
    let pinned = run(&session, "grow", &[], gp());
    let lru = run(&session, "grow", &[("replacement", "lru")], gp());
    assert!(pinned.total_cycles() > 0 && lru.total_cycles() > 0);
    assert!(hit_rate(&pinned) > 0.0);
}
