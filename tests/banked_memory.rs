//! Property battery for the banked memory-channel model under `exec=e2e`
//! (the `channels=` / `banks=` registry keys).
//!
//! The load-bearing properties:
//!
//! * the uniform topology (`channels=1 banks=1`, explicitly spelled out)
//!   reproduces every committed `tests/golden/*_e2e.snap` byte-for-byte —
//!   the banked model is a strict generalization of the fluid pipe;
//! * at a fixed aggregate bandwidth, makespan is monotone non-increasing
//!   in both channel count and bank count (more conflict domains or more
//!   banks never slow a workload down);
//! * busy-cycle conservation survives banking: each phase's per-PE busy
//!   cycles sum to its total in-system cluster time;
//! * banked runs are bit-identical between forced-serial and
//!   oversubscribed-parallel execution scopes;
//! * under contention (4 PEs on a banked topology), the channel-affinity
//!   `ca` scheduler beats round-robin on at least one golden workload.

use grow::accel::registry::{self, ENGINE_NAMES};
use grow::accel::{prepare, PartitionStrategy, PreparedWorkload, RunReport};
use grow::model::DatasetSpec;

mod common;
use common::{cases, golden_path, render_e2e_grid};

fn prepared(spec: DatasetSpec, seed: u64) -> PreparedWorkload {
    let workload = spec.instantiate(seed);
    prepare(
        &workload,
        PartitionStrategy::Multilevel { cluster_nodes: 100 },
        4096,
    )
}

fn run_banked(
    engine: &str,
    prepared: &PreparedWorkload,
    scheduler: &str,
    pes: usize,
    channels: usize,
    banks: usize,
) -> RunReport {
    registry::engine_from_overrides(
        engine,
        &[
            ("exec", "e2e"),
            ("scheduler", scheduler),
            ("pes", &pes.to_string()),
            ("channels", &channels.to_string()),
            ("banks", &banks.to_string()),
        ],
    )
    .expect("registered engine, scheduler, and topology")
    .run(prepared)
}

#[test]
fn uniform_topology_reproduces_committed_e2e_snapshots() {
    // The same grid `golden_reports.rs` renders, but with the topology
    // keys explicitly set to the uniform pipe. There is deliberately NO
    // bless path: `channels=1 banks=1` must be the fluid model, bit for
    // bit, against the bytes already committed.
    for (case, spec, seed) in cases() {
        let uniform = [("channels", "1"), ("banks", "1")];
        let mut out = String::new();
        render_e2e_grid(&prepared(spec, seed), &["1", "4"], &uniform, "", &mut out);
        let expected = std::fs::read_to_string(golden_path(&format!("{case}_e2e")))
            .expect("committed golden snapshot exists");
        assert_eq!(
            out, expected,
            "{case}: channels=1 banks=1 diverged from the committed fluid-model snapshot"
        );
    }
}

#[test]
fn makespan_is_monotone_in_channels_and_banks() {
    let (_, spec, seed) = cases()[1];
    let prepared = prepared(spec, seed);
    for scheduler in ["rr", "ca"] {
        // Doubling channels at fixed banks never slows the run down...
        let mut prev = u64::MAX;
        for channels in [1usize, 2, 4, 8, 16] {
            let total = run_banked("grow", &prepared, scheduler, 4, channels, 8).total_cycles();
            assert!(
                total <= prev,
                "{scheduler}: channels={channels} regressed ({total} > {prev})"
            );
            prev = total;
        }
        // ...and neither does doubling banks at fixed channels.
        let mut prev = u64::MAX;
        for banks in [1usize, 2, 4, 8] {
            let total = run_banked("grow", &prepared, scheduler, 4, 4, banks).total_cycles();
            assert!(
                total <= prev,
                "{scheduler}: banks={banks} regressed ({total} > {prev})"
            );
            prev = total;
        }
    }
}

#[test]
fn busy_cycle_conservation_holds_under_banking() {
    // Every cluster occupies exactly one PE while executing, stalls
    // included: each phase's per-PE busy cycles must sum to its total
    // in-system cluster time.
    for (case, spec, seed) in cases() {
        let prepared = prepared(spec, seed);
        for engine in ENGINE_NAMES {
            let report = run_banked(engine, &prepared, "ca", 4, 4, 8);
            assert!(report.multi_pe.is_some(), "{case}/{engine}");
            for layer in &report.layers {
                for phase in [&layer.combination, &layer.aggregation] {
                    let pe = phase.pe.as_ref().expect("e2e per-PE busy times");
                    let busy: f64 = pe.per_pe_busy.iter().sum();
                    let rel = (busy - pe.cluster_time).abs() / pe.cluster_time.max(1.0);
                    assert!(
                        rel < 1e-9,
                        "{case}/{engine}: busy {} != cluster_time {}",
                        busy,
                        pe.cluster_time
                    );
                    let bound = pe.makespan * pe.per_pe_busy.len() as f64 * (1.0 + 1e-12);
                    assert!(
                        busy <= bound,
                        "{case}/{engine}: busy exceeds the fleet time"
                    );
                }
            }
        }
    }
}

#[test]
fn banked_runs_are_execution_mode_invariant() {
    use grow::sim::exec::{with_mode, with_workers, ExecMode};
    let (_, spec, seed) = cases()[0];
    let prepared = prepared(spec, seed);
    for engine in ENGINE_NAMES {
        let run = || run_banked(engine, &prepared.clone(), "ca", 4, 4, 8);
        let serial = with_mode(ExecMode::Serial, run);
        let parallel = with_workers(8, run);
        assert_eq!(
            serial, parallel,
            "{engine}: banked run diverged across scopes"
        );
    }
}

#[test]
fn channel_affinity_beats_round_robin_under_contention() {
    // The tentpole's payoff: on a banked topology with real contention
    // (4 PEs sharing 4 channels x 8 banks), steering memory-bound
    // clusters away from each other's home channels must win on at least
    // one committed golden workload.
    let mut wins = 0usize;
    for (case, spec, seed) in cases() {
        let prepared = prepared(spec, seed);
        let rr = run_banked("grow", &prepared, "rr", 4, 4, 8).total_cycles();
        let ca = run_banked("grow", &prepared, "ca", 4, 4, 8).total_cycles();
        if ca < rr {
            wins += 1;
        }
        // ca must never lose outright to rr on these workloads.
        assert!(
            ca <= rr,
            "{case}: ca ({ca}) lost to rr ({rr}) under contention"
        );
    }
    assert!(
        wins >= 1,
        "ca never strictly beat rr on any golden workload"
    );
}
