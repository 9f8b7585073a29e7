//! Property battery for the end-to-end multi-PE execution model
//! (`exec=e2e`), at the engine level:
//!
//! * with one PE, an end-to-end run is bit-identical to the post-hoc
//!   composition — every counter the golden snapshots render;
//! * per-PE busy cycles and per-cluster in-system cycles are two
//!   groupings of the same time, phase by phase (conservation);
//! * the end-to-end makespan is monotonically non-increasing in the PE
//!   count on seeded engine sweeps, for every engine × scheduler;
//! * `e2e` reports are bit-identical between `GROW_SERIAL=1` and
//!   oversubscribed parallel execution;
//! * the legacy summary attached to an `e2e` report describes the report
//!   itself (makespan == total cycles), and the per-layer breakdown is
//!   complete and well-formed.

use grow::accel::registry::{self, ENGINE_NAMES};
use grow::accel::schedule::SCHEDULER_NAMES;
use grow::accel::{prepare, PartitionStrategy, PreparedWorkload, RunReport};
use grow::sim::exec::{with_mode, with_workers, ExecMode};

mod common;
use common::{cases, render};

fn workloads() -> Vec<(&'static str, PreparedWorkload)> {
    cases()
        .into_iter()
        .map(|(name, spec, seed)| {
            let workload = spec.instantiate(seed);
            let prepared = prepare(
                &workload,
                PartitionStrategy::Multilevel { cluster_nodes: 100 },
                4096,
            );
            (name, prepared)
        })
        .collect()
}

fn run(engine: &str, overrides: &[(&str, &str)], prepared: &PreparedWorkload) -> RunReport {
    registry::engine_from_overrides(engine, overrides)
        .expect("registered engine and overrides")
        .run(prepared)
}

fn rendered(report: &RunReport) -> String {
    let mut out = String::new();
    render(report, &mut out);
    out
}

#[test]
fn single_pe_e2e_is_bit_identical_to_post_hoc() {
    // The tentpole equivalence: `exec=e2e pes=1` renders the exact same
    // counters as the default post-hoc composition, for every engine and
    // scheduler (with one PE nothing contends; the calibrated fluid
    // durations collapse to the detailed sequential timeline).
    for (name, prepared) in workloads() {
        for engine in ENGINE_NAMES {
            let post_hoc = run(engine, &[], &prepared);
            for scheduler in SCHEDULER_NAMES {
                let e2e = run(
                    engine,
                    &[("exec", "e2e"), ("scheduler", scheduler)],
                    &prepared,
                );
                assert_eq!(
                    rendered(&post_hoc),
                    rendered(&e2e),
                    "{name}/{engine}/{scheduler}: 1-PE e2e diverged from post-hoc"
                );
                assert_eq!(e2e.total_cycles(), post_hoc.total_cycles());
                assert_eq!(e2e.exec, "e2e");
                assert_eq!(post_hoc.exec, "post_hoc");
            }
        }
    }
}

#[test]
fn per_pe_busy_cycles_are_conserved_phase_by_phase() {
    for (name, prepared) in workloads() {
        for engine in ENGINE_NAMES {
            for pes in ["2", "4", "8"] {
                let report = run(
                    engine,
                    &[("exec", "e2e"), ("scheduler", "ws"), ("pes", pes)],
                    &prepared,
                );
                for (li, layer) in report.layers.iter().enumerate() {
                    for (phase, phase_report) in [
                        ("combination", &layer.combination),
                        ("aggregation", &layer.aggregation),
                    ] {
                        let pe = phase_report.pe.as_ref().expect("e2e per-PE busy times");
                        let summary = report.multi_pe.as_ref().expect("summary attached");
                        assert_eq!(pe.per_pe_busy.len(), summary.pes);
                        let busy: f64 = pe.per_pe_busy.iter().sum();
                        let rel = (busy - pe.cluster_time).abs() / busy.max(1.0);
                        assert!(
                            rel < 1e-9,
                            "{name}/{engine}/pes={pes} layer {li} {phase}: \
                             busy {busy} vs cluster time {}",
                            pe.cluster_time
                        );
                        // No PE can be busy longer than the phase ran.
                        for &b in &pe.per_pe_busy {
                            assert!(b <= pe.makespan * (1.0 + 1e-9));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn e2e_makespan_is_monotone_in_pes() {
    for (name, prepared) in workloads() {
        for engine in ENGINE_NAMES {
            for scheduler in SCHEDULER_NAMES {
                let mut prev = u64::MAX;
                for pes in ["1", "2", "4", "8", "16"] {
                    let total = run(
                        engine,
                        &[("exec", "e2e"), ("scheduler", scheduler), ("pes", pes)],
                        &prepared,
                    )
                    .total_cycles();
                    assert!(
                        total <= prev,
                        "{name}/{engine}/{scheduler}: pes={pes} slower ({total} > {prev})"
                    );
                    prev = total;
                }
            }
        }
    }
}

#[test]
fn multi_pe_execution_genuinely_changes_phase_counters() {
    // The whole point of the mode: with real concurrency the per-phase
    // cycle counts shrink (these workloads have enough clusters for 4 PEs
    // to matter), while scheduling-invariant counters stay untouched.
    for (name, prepared) in workloads() {
        for engine in ENGINE_NAMES {
            let one = run(engine, &[("exec", "e2e")], &prepared);
            let four = run(engine, &[("exec", "e2e"), ("pes", "4")], &prepared);
            assert!(
                four.total_cycles() < one.total_cycles(),
                "{name}/{engine}: 4 PEs {} vs 1 PE {}",
                four.total_cycles(),
                one.total_cycles()
            );
            assert_eq!(four.mac_ops(), one.mac_ops(), "work is PE-invariant");
            assert_eq!(
                four.dram_bytes(),
                one.dram_bytes(),
                "traffic is PE-invariant"
            );
        }
    }
}

#[test]
fn e2e_summary_describes_the_report() {
    for (_, prepared) in workloads() {
        for engine in ENGINE_NAMES {
            let report = run(
                engine,
                &[("exec", "e2e"), ("scheduler", "ca"), ("pes", "4")],
                &prepared,
            );
            let summary = report.multi_pe.as_ref().expect("summary attached");
            assert_eq!(summary.scheduler, "ca");
            assert_eq!(summary.pes, 4);
            assert_eq!(summary.per_pe_busy.len(), 4);
            assert!(
                (summary.makespan - report.total_cycles() as f64).abs() < 1e-9,
                "the e2e summary makespan is the report's cycle count"
            );
            assert!(summary.imbalance >= 1.0 - 1e-12);
        }
    }
}

#[test]
fn e2e_reports_are_execution_mode_invariant() {
    // The acceptance bar: e2e runs — breakdowns, summaries, every counter
    // — must be bit-identical between forced-serial and oversubscribed
    // parallel execution, for every engine and scheduler.
    for (name, prepared) in workloads().into_iter().take(1) {
        for engine in ENGINE_NAMES {
            for scheduler in SCHEDULER_NAMES {
                let overrides = [("exec", "e2e"), ("scheduler", scheduler), ("pes", "4")];
                let fresh = || run(engine, &overrides, &prepared.clone());
                let serial = with_mode(ExecMode::Serial, fresh);
                let parallel = with_workers(8, fresh);
                assert_eq!(serial, parallel, "{name}/{engine}/{scheduler}");
            }
        }
    }
}

#[test]
fn e2e_composes_with_the_lru_study() {
    // The serial LRU replacement study still runs under e2e (its
    // per-cluster timelines feed the composition).
    let (_, prepared) = workloads().remove(0);
    let lru = run(
        "grow",
        &[("exec", "e2e"), ("pes", "4"), ("replacement", "lru")],
        &prepared,
    );
    assert!(lru.total_cycles() > 0);
    assert!(lru.multi_pe.is_some());
    assert!(lru
        .layers
        .iter()
        .all(|l| l.combination.pe.is_some() && l.aggregation.pe.is_some()));
}
