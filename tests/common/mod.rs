//! Helpers shared by the golden-snapshot suites (`golden_reports.rs`,
//! `hotpath_invariants.rs`, `banked_memory.rs`), the exec-model battery
//! (`exec_model.rs`), the serving suites (`batch_serving.rs`,
//! `async_serving.rs`), the fault suites (`fault_injection.rs`,
//! `chaos_soak.rs`) and the store suites (`partition_store.rs`,
//! `report_store.rs`): the fixed-seed workloads, the snapshot file
//! layout, the field-by-field report and e2e-grid rendering, the mixed
//! serving fleet, a service-free job runner, the injected-panic filter,
//! and the store's entry seal. The snapshot suites compare against the
//! same committed `tests/golden/*.snap` bytes, so the rendering lives
//! here exactly once.
//!
//! Not every test binary uses every helper; unused-item lints are
//! silenced per item rather than forcing each binary to import all of
//! them.
#![allow(dead_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

use grow::accel::registry::{self, ENGINE_NAMES};
use grow::accel::schedule::SCHEDULER_NAMES;
use grow::accel::{PartitionStrategy, PreparedWorkload, RunReport, SchedulerKind};
use grow::model::{DatasetKey, DatasetSpec};
use grow::serve::{JobError, JobResult, JobSpec, SimSession};
use grow::sim::{fault, TrafficClass};

/// The two fixed-seed golden workloads: a Cora-scale citation graph and a
/// Pubmed-scale one (distinct feature shapes and densities).
pub fn cases() -> [(&'static str, DatasetSpec, u64); 2] {
    [
        ("cora_400_s3", DatasetKey::Cora.spec().scaled_to(400), 3),
        ("pubmed_600_s7", DatasetKey::Pubmed.spec().scaled_to(600), 7),
    ]
}

/// Path of a committed golden snapshot.
pub fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{case}.snap"))
}

/// Renders every field of a [`RunReport`] deterministically, one counter
/// per token, so snapshot diffs point at the exact field that moved.
pub fn render(report: &RunReport, out: &mut String) {
    for (li, layer) in report.layers.iter().enumerate() {
        for phase in [&layer.combination, &layer.aggregation] {
            let _ = writeln!(
                out,
                "layer={li} phase={:?} cycles={} compute_busy={} mac_ops={} \
                 sram_reads_8b={} sram_writes_8b={}",
                phase.kind,
                phase.cycles,
                phase.compute_busy,
                phase.mac_ops,
                phase.sram_reads_8b,
                phase.sram_writes_8b
            );
            for class in TrafficClass::ALL {
                let _ = writeln!(
                    out,
                    "  traffic {} useful={} fetched={} requests={}",
                    class.label(),
                    phase.traffic.useful_bytes(class),
                    phase.traffic.fetched_bytes(class),
                    phase.traffic.requests(class)
                );
            }
            let _ = writeln!(
                out,
                "  cache hits={} misses={} fills={}",
                phase.cache.hits, phase.cache.misses, phase.cache.fills
            );
            let profiles: Vec<String> = phase
                .cluster_profiles
                .iter()
                .map(|p| format!("({},{})", p.compute_cycles, p.mem_bytes))
                .collect();
            let _ = writeln!(out, "  cluster_profiles=[{}]", profiles.join(" "));
        }
    }
}

/// Renders the end-to-end grid of one prepared workload: every engine ×
/// every scheduler at each of `pes_counts` under `exec=e2e` plus the
/// `extra` overrides, with each phase's per-PE busy times rendered field
/// by field and `label` appended to each header. f64 fields use
/// `{}` — shortest-roundtrip formatting — so any last-ulp drift in the
/// calibrated fluid model fails the snapshot.
pub fn render_e2e_grid(
    prepared: &PreparedWorkload,
    pes_counts: &[&str],
    extra: &[(&str, &str)],
    label: &str,
    out: &mut String,
) {
    for name in ENGINE_NAMES {
        for scheduler in SCHEDULER_NAMES {
            for &pes in pes_counts {
                let mut overrides = vec![("exec", "e2e"), ("scheduler", scheduler), ("pes", pes)];
                overrides.extend_from_slice(extra);
                let report = registry::engine_from_overrides(name, &overrides)
                    .expect("registered engine, scheduler and topology")
                    .run(prepared);
                assert!(report.multi_pe.is_some(), "e2e attaches the summary");
                let _ = writeln!(
                    out,
                    "== engine={} scheduler={scheduler} pes={pes}{label} total={} ==",
                    report.engine,
                    report.total_cycles()
                );
                for (li, layer) in report.layers.iter().enumerate() {
                    for phase in [&layer.combination, &layer.aggregation] {
                        let pe = phase.pe.as_ref().expect("e2e per-PE busy times");
                        let busy: Vec<String> =
                            pe.per_pe_busy.iter().map(|b| format!("{b}")).collect();
                        let _ = writeln!(
                            out,
                            "layer={li} phase={:?} cycles={} makespan={} cluster_time={} busy=[{}]",
                            phase.kind,
                            phase.cycles,
                            pe.makespan,
                            pe.cluster_time,
                            busy.join(" ")
                        );
                    }
                }
            }
        }
    }
}

/// Runs one job with no service at all — a fresh session, the job's HDN
/// list length, the engine built from its parsed overrides — as the
/// reference the serving executor is checked against. A bad recipe,
/// engine name or override fails as [`JobError::Invalid`], like a served
/// job.
pub fn run_unserved(job: &JobSpec) -> Result<RunReport, JobError> {
    let parsed = registry::parse_overrides(&job.overrides)?;
    let overrides: Vec<(&str, &str)> = parsed
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let mut session = SimSession::from_spec(job.dataset, job.seed)?;
    session.set_hdn_id_entries(job.hdn_id_entries);
    Ok(session.run_with(&job.engine, &overrides, job.strategy)?)
}

/// Asserts that every served result's outcome equals [`run_unserved`] of
/// its job (`results` in `jobs` order).
pub fn assert_unserved_outcomes(jobs: &[JobSpec], results: &[JobResult]) {
    for (job, r) in jobs.iter().zip(results) {
        let which = format!("job {} ({} on {})", r.index, r.engine, r.dataset);
        assert_eq!(
            r.outcome,
            run_unserved(job),
            "{which} differs from its service-free run"
        );
    }
}

/// Installs (once, process-wide) a panic hook that silences *injected*
/// panics only — they are caught and retried by the supervisor, and
/// their backtraces would otherwise flood the test output. Genuine
/// panics (including test assertion failures) still print normally.
pub fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload.downcast_ref::<fault::SimFault>().is_some()
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.starts_with("injected "))
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with("injected "));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// Oversubscribed worker count (the in-code equivalent of
/// `GROW_THREADS=8`), so threads genuinely interleave even on small CI
/// machines.
pub const WORKERS: usize = 8;

/// The mixed fleet of the serving suites, 19 jobs: 2 datasets x 4
/// engines x 2 partition strategies, an override variant, a multi-PE
/// scheduler variant, and one invalid job.
pub fn mixed_jobs() -> Vec<JobSpec> {
    let cora = DatasetKey::Cora.spec().scaled_to(600);
    let pubmed = DatasetKey::Pubmed.spec().scaled_to(900);
    let strategies = [
        PartitionStrategy::None,
        PartitionStrategy::Multilevel { cluster_nodes: 150 },
    ];
    let mut jobs = Vec::new();
    for spec in [cora, pubmed] {
        for engine in ["grow", "gcnax", "matraptor", "gamma"] {
            for strategy in strategies {
                jobs.push(JobSpec::new(spec, 21, engine).with_strategy(strategy));
            }
        }
    }
    jobs.push(
        JobSpec::new(cora, 21, "grow")
            .with_strategy(strategies[1])
            .with_override("hdn_cache_kb", "64")
            .with_override("runahead", "4"),
    );
    // The multi-PE scheduler axis rides through the same override path.
    jobs.push(
        JobSpec::new(cora, 21, "grow")
            .with_strategy(strategies[1])
            .with_scheduler(SchedulerKind::WorkStealing)
            .with_pes(8),
    );
    // The intentionally invalid job: fails alone, not the batch.
    jobs.push(JobSpec::new(pubmed, 21, "npu"));
    assert!(jobs.len() >= 16, "acceptance floor: {} jobs", jobs.len());
    jobs
}

/// The lines of a sealed store entry, without its final `checksum` line.
pub fn body_lines(entry: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(entry).expect("entries are text");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.pop();
    lines
}

/// `lines` as a store entry, sealed with the store's checksum (FNV-1a
/// over every byte before the `checksum` line), so an edited entry
/// reaches the checks behind the checksum.
pub fn seal(lines: &[String]) -> Vec<u8> {
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let checksum = body.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{body}checksum {checksum:016x}\n").into_bytes()
}
