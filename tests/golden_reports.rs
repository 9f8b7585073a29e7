//! Golden-report regression suite: every engine's full [`RunReport`] —
//! cycles, MAC counts, per-class DRAM traffic, cache statistics, SRAM
//! accesses, cluster profiles — on two small fixed-seed workloads,
//! asserted field-by-field against committed snapshots.
//!
//! This locks the modeled numbers down: a refactor that silently shifts
//! any counter of any engine fails here with a readable diff. Snapshots
//! are deterministic by construction (integer counters only, and the
//! parallel cluster path is bit-identical to serial).
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! GROW_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! and commit the updated `tests/golden/*.snap` files together with the
//! change that shifted the numbers.

use std::fmt::Write as _;

use grow::accel::registry::{self, ENGINE_NAMES};
use grow::accel::{prepare, PartitionStrategy, PreparedWorkload};
use grow::model::DatasetSpec;

mod common;
use common::{cases, golden_path, render, render_e2e_grid};

/// One workload's partitioned preparation, so there are real clusters to
/// assign to PEs.
fn partitioned(spec: DatasetSpec, seed: u64) -> PreparedWorkload {
    prepare(
        &spec.instantiate(seed),
        PartitionStrategy::Multilevel { cluster_nodes: 100 },
        4096,
    )
}

/// Builds the snapshot text for one workload: all four engines on both
/// prepared forms (original order and partitioned).
fn snapshot(spec: DatasetSpec, seed: u64) -> String {
    let workload = spec.instantiate(seed);
    let strategies = [
        PartitionStrategy::None,
        PartitionStrategy::Multilevel { cluster_nodes: 100 },
    ];
    let mut out = String::new();
    for strategy in strategies {
        let prepared = prepare(&workload, strategy, 4096);
        for name in ENGINE_NAMES {
            let report = registry::run_named(name, &prepared).expect("registered engine");
            let _ = writeln!(out, "== engine={} strategy={strategy:?} ==", report.engine);
            render(&report, &mut out);
        }
    }
    out
}

#[test]
fn reports_match_committed_snapshots() {
    for (case, spec, seed) in cases() {
        assert_snapshot(case, &snapshot(spec, seed));
    }
}

#[test]
fn single_pe_e2e_reproduces_committed_snapshots() {
    // The exec-model equivalence at golden strength: rendering the same
    // grid under `exec=e2e` (1 PE) must reproduce the committed snapshot
    // bytes — there is deliberately NO bless path here.
    for (case, spec, seed) in cases() {
        let workload = spec.instantiate(seed);
        let strategies = [
            PartitionStrategy::None,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
        ];
        let mut out = String::new();
        for strategy in strategies {
            let prepared = prepare(&workload, strategy, 4096);
            for name in ENGINE_NAMES {
                let report = registry::engine_from_overrides(name, &[("exec", "e2e")])
                    .expect("registered engine")
                    .run(&prepared);
                let _ = writeln!(out, "== engine={} strategy={strategy:?} ==", report.engine);
                render(&report, &mut out);
            }
        }
        let expected =
            std::fs::read_to_string(golden_path(case)).expect("committed golden snapshot exists");
        assert_eq!(
            out, expected,
            "{case}: a 1-PE e2e run diverged from the committed post-hoc snapshot"
        );
    }
}

#[test]
fn snapshots_are_execution_mode_invariant() {
    // The golden files are valid under any thread count: the parallel
    // cluster path is bit-identical to serial, so the snapshot rendering
    // must be too.
    use grow::sim::exec::{with_mode, with_workers, ExecMode};
    let (_, spec, seed) = cases()[0];
    let serial = with_mode(ExecMode::Serial, || snapshot(spec, seed));
    let parallel = with_workers(4, || snapshot(spec, seed));
    assert_eq!(serial, parallel);
}

/// Builds the scheduler-grid snapshot for one workload: every engine's
/// multi-PE summary under every scheduler at 1 and 4 PEs, on the
/// partitioned preparation (so there are real clusters to assign). f64
/// fields are rendered with `{}` — Rust's shortest-roundtrip formatting —
/// so the text is exact: any last-ulp drift in the fluid model fails the
/// snapshot.
fn scheduler_snapshot(spec: DatasetSpec, seed: u64) -> String {
    // Pinned to the schedulers this snapshot was committed with; policies
    // added later (`ca`) are locked by the e2e grid snapshots instead, so
    // the historical files stay byte-for-byte valid.
    const LEGACY_SCHEDULERS: [&str; 3] = ["rr", "lpt", "ws"];
    let prepared = partitioned(spec, seed);
    let mut out = String::new();
    for name in ENGINE_NAMES {
        for scheduler in LEGACY_SCHEDULERS {
            for pes in ["1", "4"] {
                let report = registry::engine_from_overrides(
                    name,
                    &[("scheduler", scheduler), ("pes", pes)],
                )
                .expect("registered engine and scheduler")
                .run(&prepared);
                let s = report.multi_pe.expect("summary attached");
                let busy: Vec<String> = s.per_pe_busy.iter().map(|b| format!("{b}")).collect();
                let _ = writeln!(
                    out,
                    "engine={} scheduler={} pes={} makespan={} imbalance={} busy=[{}]",
                    report.engine,
                    s.scheduler,
                    s.pes,
                    s.makespan,
                    s.imbalance,
                    busy.join(" ")
                );
            }
        }
    }
    out
}

#[test]
fn scheduler_grid_matches_committed_snapshots() {
    for (case, spec, seed) in cases() {
        assert_snapshot(&format!("{case}_sched"), &scheduler_snapshot(spec, seed));
    }
}

/// Compares `actual` against the committed `tests/golden/<name>.snap`,
/// pointing at the first differing line, or writes it there under
/// `GROW_BLESS=1`.
fn assert_snapshot(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GROW_BLESS").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `GROW_BLESS=1 cargo test --test golden_reports` to create it",
            path.display()
        )
    });
    if actual != expected {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        let detail = match mismatch {
            Some((n, (e, a))) => {
                format!(
                    "first differing line {}:\n  expected: {e}\n  actual:   {a}",
                    n + 1
                )
            }
            None => "line counts differ".to_string(),
        };
        panic!(
            "{name}: modeled numbers shifted from the committed snapshot \
             ({}).\n{detail}\n\
             If the change is intentional, re-bless with \
             `GROW_BLESS=1 cargo test --test golden_reports` and commit \
             the updated snapshot.",
            path.display()
        );
    }
}

#[test]
fn e2e_grid_matches_committed_snapshots() {
    // Every engine × every scheduler (`ca` included) at 1 and 4 PEs on the
    // default uniform pipe.
    for (case, spec, seed) in cases() {
        let mut actual = String::new();
        render_e2e_grid(&partitioned(spec, seed), &["1", "4"], &[], "", &mut actual);
        assert_snapshot(&format!("{case}_e2e"), &actual);
    }
}

#[test]
fn banked_grid_matches_committed_snapshots() {
    // The banked contention model and the channel-affinity `ca` pick,
    // pinned byte for byte: a contended multi-channel topology and a
    // single channel with banks (where `ca` degenerates to its uniform
    // class-balancing order).
    for (case, spec, seed) in cases() {
        let prepared = partitioned(spec, seed);
        let mut actual = String::new();
        for (channels, banks) in [("4", "8"), ("1", "8")] {
            let extra = [("channels", channels), ("banks", banks)];
            let label = format!(" channels={channels} banks={banks}");
            render_e2e_grid(&prepared, &["2", "8"], &extra, &label, &mut actual);
        }
        assert_snapshot(&format!("{case}_banked"), &actual);
    }
}

#[test]
fn lru_study_matches_committed_snapshots() {
    // The Section VIII demand-filled LRU study, which shares its HDN cache
    // across clusters: at the Table III capacity and at 4 KB (where rows
    // really get evicted), under the post-hoc model and end to end on 4
    // PEs. The last line of each run pins the energy model's fleet
    // counters.
    let modes: [&[(&str, &str)]; 2] = [&[], &[("exec", "e2e"), ("pes", "4")]];
    for (case, spec, seed) in cases() {
        let workload = spec.instantiate(seed);
        let mut out = String::new();
        for strategy in [
            PartitionStrategy::None,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
        ] {
            let prepared = prepare(&workload, strategy, 4096);
            for kb in ["512", "4"] {
                for mode in modes {
                    let mut overrides = vec![("replacement", "lru"), ("hdn_cache_kb", kb)];
                    overrides.extend_from_slice(mode);
                    let engine = registry::engine_from_overrides("grow", &overrides)
                        .expect("registered engine and keys");
                    let report = engine.run(&prepared);
                    let pes = report.multi_pe.as_ref().expect("summary attached").pes;
                    let _ = writeln!(
                        out,
                        "== engine={} strategy={strategy:?} replacement=lru hdn_cache_kb={kb} \
                         exec={} pes={pes} ==",
                        report.engine, report.exec
                    );
                    render(&report, &mut out);
                    let a = report.activity(engine.sram_kb());
                    let _ = writeln!(
                        out,
                        "activity cycles={} pe_busy_cycles={} pe_idle_cycles={}",
                        a.cycles, a.pe_busy_cycles, a.pe_idle_cycles
                    );
                }
            }
        }
        assert_snapshot(&format!("{case}_lru"), &out);
    }
}

#[test]
fn work_stealing_path_is_execution_mode_invariant() {
    // The ws summary is computed from cluster profiles that the parallel
    // cluster fan-out produced; the whole report — summary included —
    // must be bit-identical between a forced-serial run and an
    // oversubscribed parallel run.
    use grow::sim::exec::{with_mode, with_workers, ExecMode};
    let (_, spec, seed) = cases()[1];
    let prepared = partitioned(spec, seed);
    for engine in ENGINE_NAMES {
        let run = || {
            registry::engine_from_overrides(engine, &[("scheduler", "ws"), ("pes", "8")])
                .expect("registered engine")
                .run(&prepared.clone())
        };
        let serial = with_mode(ExecMode::Serial, run);
        let parallel = with_workers(8, run);
        assert_eq!(serial, parallel, "{engine}: ws path diverged");
        assert_eq!(serial.multi_pe.as_ref().expect("summary").scheduler, "ws");
    }
}
