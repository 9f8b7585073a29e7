//! The parallel cluster path must be bit-identical to a forced serial run
//! for every engine: cycles, traffic (useful and fetched, per class),
//! cache hit/miss counts, SRAM access counts, and per-cluster profiles.
//!
//! This is the contract that makes the thread fan-out safe to keep on by
//! default: clusters are simulated in isolated contexts and merged in
//! cluster order, so scheduling cannot leak into the results.

use grow::accel::{
    prepare, Accelerator, GammaEngine, GcnaxEngine, GrowConfig, GrowEngine, MatRaptorEngine,
    PartitionStrategy, PreparedWorkload, ReplacementPolicy,
};
use grow::model::DatasetKey;
use grow::sim::exec::{with_mode, with_workers, ExecMode};

/// Worker count forced on the parallel side: oversubscribed relative to
/// small CI machines so threads genuinely interleave.
const WORKERS: usize = 4;

fn multi_cluster_workload() -> PreparedWorkload {
    let w = DatasetKey::Pubmed.spec().scaled_to(4000).instantiate(11);
    let p = prepare(
        &w,
        PartitionStrategy::Multilevel { cluster_nodes: 300 },
        4096,
    );
    assert!(
        p.clusters.len() >= 8,
        "need many clusters: got {}",
        p.clusters.len()
    );
    p
}

#[test]
fn all_four_engines_parallel_equals_serial() {
    let p = multi_cluster_workload();
    let engines: Vec<Box<dyn Accelerator>> = vec![
        Box::new(GrowEngine::default()),
        Box::new(GcnaxEngine::default()),
        Box::new(MatRaptorEngine::default()),
        Box::new(GammaEngine::default()),
    ];
    for engine in engines {
        let parallel = with_workers(WORKERS, || engine.run(&p.clone()));
        let serial = with_mode(ExecMode::Serial, || engine.run(&p.clone()));
        // RunReport derives PartialEq over every counter it carries —
        // cycles, per-class traffic, cache stats, SRAM accesses, cluster
        // profiles — so this single assert covers the whole report.
        assert_eq!(
            parallel,
            serial,
            "{} diverged under parallel execution",
            engine.name()
        );
    }
}

#[test]
fn grow_variants_parallel_equals_serial() {
    // Exercise the paths with extra per-cluster state: LRU replacement and
    // disabled caching.
    let p = multi_cluster_workload();
    for config in [
        GrowConfig {
            replacement: ReplacementPolicy::Lru,
            ..GrowConfig::default()
        },
        GrowConfig {
            hdn_caching: false,
            ..GrowConfig::default()
        },
        GrowConfig {
            runahead: 1,
            hdn_cache_bytes: 4 * 1024,
            ..GrowConfig::default()
        },
    ] {
        let engine = GrowEngine::new(config);
        let parallel = with_workers(WORKERS, || engine.run(&p.clone()));
        let serial = with_mode(ExecMode::Serial, || engine.run(&p.clone()));
        assert_eq!(parallel, serial, "config {config:?}");
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Thread scheduling varies between runs; results must not. Force the
    // worker count so this exercises real fan-out even on one core.
    let p = multi_cluster_workload();
    let engine = GrowEngine::default();
    let first = with_workers(WORKERS, || engine.run(&p.clone()));
    for _ in 0..4 {
        assert_eq!(with_workers(WORKERS, || engine.run(&p.clone())), first);
    }
}

#[test]
fn cluster_profiles_keep_cluster_order() {
    let p = multi_cluster_workload();
    let engine = GrowEngine::default();
    let parallel = with_workers(WORKERS, || engine.run(&p.clone()));
    let serial = with_mode(ExecMode::Serial, || engine.run(&p.clone()));
    let pp = parallel.cluster_profiles();
    let sp = serial.cluster_profiles();
    assert_eq!(pp.len(), sp.len());
    assert_eq!(pp, sp, "profiles must merge in cluster order");
    // Both phases of both layers contribute one profile per cluster.
    assert_eq!(pp.len(), 4 * p.clusters.len());
}
