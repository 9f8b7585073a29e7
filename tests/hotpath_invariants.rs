//! Hot-path regression battery for the zero-allocation simulator core:
//! the optimized engines (dense epoch-tagged caches, pooled scratch,
//! plan/replay with cross-layer plan retention) must stay invariant
//! across the engine × scheduler × partition grid under every execution
//! mode. The committed golden snapshots themselves are checked by
//! `golden_reports.rs`.

use grow::accel::registry::{self, ENGINE_NAMES};
use grow::accel::{prepare, PartitionStrategy, RunReport};
use grow::model::DatasetKey;
use grow::sim::exec::{with_mode, with_workers, ExecMode};

fn run_with(
    engine: &str,
    overrides: &[(&str, &str)],
    p: &grow::accel::PreparedWorkload,
) -> RunReport {
    registry::engine_from_overrides(engine, overrides)
        .expect("registered engine")
        .run(p)
}

#[test]
fn seeded_sweep_is_mode_invariant() {
    // Engine × scheduler × partition sweep across seeds: for every cell,
    // the report must be identical between (a) serial and oversubscribed
    // parallel execution and (b) repeated runs (scratch pools must not
    // leak state between runs).
    let partitions = [
        PartitionStrategy::None,
        PartitionStrategy::Multilevel { cluster_nodes: 120 },
    ];
    for seed in [3u64, 11] {
        let workload = DatasetKey::Citeseer.spec().scaled_to(360).instantiate(seed);
        for strategy in partitions {
            let prepared = prepare(&workload, strategy, 4096);
            for engine in ENGINE_NAMES {
                for scheduler in ["rr", "ws"] {
                    let overrides = [("scheduler", scheduler), ("pes", "4")];
                    let run = || run_with(engine, &overrides, &prepared.clone());
                    let base = run();
                    let parallel = with_workers(4, run);
                    let serial = with_mode(ExecMode::Serial, run);
                    assert_eq!(base, parallel, "{engine}/{scheduler}/{strategy:?}/{seed}");
                    assert_eq!(base, serial, "{engine}/{scheduler}/{strategy:?}/{seed}");
                }
            }
        }
    }
}
