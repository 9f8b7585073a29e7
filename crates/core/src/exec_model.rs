//! The execution-model layer: how per-cluster timelines become per-phase
//! cycle counts.
//!
//! Every engine simulates its clusters in isolated contexts (the shared
//! [`pipeline`](crate::pipeline) harness); this module decides what the
//! resulting fragments *mean*:
//!
//! * [`ExecModelKind::PostHoc`] (default) — the original single-PE
//!   semantics: a phase's cycle count is the sequential composition of its
//!   prologue and per-cluster makespans, and the configured multi-PE
//!   arrangement is a *projection* computed afterwards from the
//!   per-cluster profiles ([`crate::schedule::summarize`]). Scheduling can
//!   never change a phase counter.
//! * [`ExecModelKind::EndToEnd`] (`exec=e2e`) — `pes=N` is a real
//!   execution mode: each phase's clusters are dispatched by the
//!   configured [`SchedulerKind`](crate::SchedulerKind) onto `N` virtual
//!   PEs that contend for the memory system under water-filling bandwidth
//!   sharing ([`multi_pe::simulate_e2e`]), and the resulting makespan *is*
//!   the phase's cycle count. The channel/bank topology
//!   ([`MemTopology`](grow_sim::MemTopology), registry keys `channels=` /
//!   `banks=`) adds per-request bank-conflict stalls; the default `1x1`
//!   charges none. Combination and aggregation timelines compose with
//!   inter-phase (and inter-layer) sync barriers: a phase's cluster
//!   fan-out starts only after the previous phase — and any serial
//!   prologue — has fully drained. Each phase carries its per-PE busy
//!   breakdown ([`PhasePeBusy`], in [`PhaseReport::pe`]).
//!
//! The end-to-end fluid durations are calibrated against the detailed
//! per-cluster timelines (see [`multi_pe::simulate_e2e`]), which yields
//! the load-bearing equivalence the golden suites assert: **a 1-PE
//! end-to-end run is bit-identical to the post-hoc composition** — same
//! cycles, same traffic, same everything the snapshots render. With
//! `pes > 1` the phase counters genuinely change (that is the point), and
//! determinism still holds: the composition runs over fragments merged in
//! cluster order, so `GROW_SERIAL=1` and parallel execution agree
//! bit-identically.

use crate::multi_pe;
use crate::report::PhasePeBusy;
use crate::schedule::{self, MultiPeConfig};
use crate::{MultiPeSummary, PhaseKind, PhaseReport, RunReport};

/// Canonical execution-model names, in registry order (`exec=` values).
pub const EXEC_MODEL_NAMES: [&str; 2] = ["post_hoc", "e2e"];

/// Which execution model composes per-cluster timelines into phase cycle
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecModelKind {
    /// Single-PE sequential composition; multi-PE as a post-hoc
    /// projection (the legacy semantics, and the default).
    #[default]
    PostHoc,
    /// End-to-end multi-PE composition: the scheduler and the fluid
    /// contention model run inside the execution loop, per phase.
    EndToEnd,
}

impl ExecModelKind {
    /// Every execution model, in [`EXEC_MODEL_NAMES`] order.
    pub const ALL: [ExecModelKind; 2] = [ExecModelKind::PostHoc, ExecModelKind::EndToEnd];

    /// Parses a (case-insensitive) execution-model name. Accepts the
    /// canonical names plus spelled-out aliases.
    pub fn parse(name: &str) -> Option<ExecModelKind> {
        match name.to_ascii_lowercase().as_str() {
            "post_hoc" | "post-hoc" | "posthoc" => Some(ExecModelKind::PostHoc),
            "e2e" | "end_to_end" | "end-to-end" | "endtoend" => Some(ExecModelKind::EndToEnd),
            _ => None,
        }
    }

    /// The canonical [`EXEC_MODEL_NAMES`] entry of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            ExecModelKind::PostHoc => "post_hoc",
            ExecModelKind::EndToEnd => "e2e",
        }
    }
}

/// One engine run's execution model: the configured multi-PE arrangement
/// plus the engine's channel bandwidth, built once per
/// [`Accelerator::run`](crate::Accelerator::run) and threaded through the
/// [`pipeline`](crate::pipeline) so every phase composes its cluster
/// fragments the same way.
#[derive(Debug, Clone, Copy)]
pub struct ExecModel {
    cfg: MultiPeConfig,
    bytes_per_cycle: f64,
}

impl ExecModel {
    /// Builds the execution model for one run: `cfg` names the PE count,
    /// scheduler, model kind, and channel/bank topology, and each PE's
    /// average share of the channel is `bytes_per_cycle`, the engine's
    /// bandwidth (total bandwidth scales with `pes`, per Section VII-F).
    /// The banked contention model charges Table III's fixed request
    /// overhead per access-granularity line.
    pub fn new(cfg: MultiPeConfig, bytes_per_cycle: f64) -> Self {
        ExecModel {
            cfg,
            bytes_per_cycle,
        }
    }

    /// Composes one phase's per-cluster fragments into a single
    /// [`PhaseReport`].
    ///
    /// Counters that scheduling cannot change — traffic, cache, SRAM, MAC
    /// and compute-busy totals, cluster profiles — merge in cluster order
    /// under either model. Each fragment's profile is stamped with the
    /// fragment's detailed makespan ([`crate::ClusterProfile::cycles`]);
    /// the cycle count is then:
    ///
    /// * post-hoc, or end-to-end with one PE: the exact sequential sum of
    ///   fragment cycles (integer arithmetic — the 1-PE end-to-end path is
    ///   bit-identical to post-hoc *by construction*, not by rounding);
    /// * end-to-end with `pes > 1`: the calibrated fluid makespan of the
    ///   scheduler's dispatch over the fragments, rounded to whole cycles.
    ///
    /// End-to-end composition also attaches the phase's [`PhasePeBusy`].
    pub fn compose(&self, kind: PhaseKind, partials: Vec<PhaseReport>) -> PhaseReport {
        let mut merged = PhaseReport::new(kind);
        for mut partial in partials {
            let detailed = partial.cycles;
            for profile in &mut partial.cluster_profiles {
                profile.cycles = detailed;
            }
            merged.absorb_sequential(partial);
        }
        if self.cfg.exec == ExecModelKind::EndToEnd {
            let run = multi_pe::simulate_e2e(
                &merged.cluster_profiles,
                self.cfg.pes,
                self.bytes_per_cycle,
                self.cfg.scheduler,
                self.cfg.topology,
            );
            if self.cfg.pes > 1 {
                merged.cycles = run.makespan.round() as u64;
            }
            let fragment = PhasePeBusy {
                makespan: run.makespan,
                cluster_time: run.cluster_cycles.iter().sum(),
                per_pe_busy: run.per_pe_busy,
            };
            // A multi-pass phase (column-chunked combination) composes its
            // passes back to back; merge onto any breakdown already
            // accumulated the same way the caller absorbs the report.
            merged.pe = Some(fragment);
        }
        merged
    }

    /// Finalizes a run's report under this model: records the model name
    /// and attaches the multi-PE summary.
    ///
    /// * Post-hoc: the summary is the legacy Figure 24 projection over the
    ///   run's cluster profiles ([`schedule::summarize`]), bit-identical
    ///   to the pre-exec-model behavior.
    /// * End-to-end: the summary is *derived from* the phases'
    ///   [`PhasePeBusy`] records — its makespan is the report's actual
    ///   end-to-end cycle count and its per-PE busy times are the phase
    ///   records summed across the inter-phase barriers.
    pub fn finalize(&self, report: &mut RunReport) {
        report.exec = self.cfg.exec.name();
        match self.cfg.exec {
            ExecModelKind::PostHoc => {
                report.multi_pe =
                    Some(schedule::summarize(report, &self.cfg, self.bytes_per_cycle));
            }
            ExecModelKind::EndToEnd => {
                // Sum the phases' per-PE busy times in phase order (phases
                // are barrier-separated, so this is exactly the
                // composition the run performed).
                let mut per_pe_busy = vec![0.0f64; self.cfg.pes];
                let phases = report
                    .layers
                    .iter()
                    .flat_map(|l| [&l.combination, &l.aggregation]);
                for pe in phases.filter_map(|p| p.pe.as_ref()) {
                    for (slot, b) in per_pe_busy.iter_mut().zip(&pe.per_pe_busy) {
                        *slot += b;
                    }
                }
                report.multi_pe = Some(MultiPeSummary {
                    scheduler: self.cfg.scheduler.name(),
                    pes: self.cfg.pes,
                    makespan: report.total_cycles() as f64,
                    imbalance: multi_pe::imbalance(&per_pe_busy),
                    per_pe_busy,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SchedulerKind;
    use crate::ClusterProfile;

    /// A 32-byte-per-cycle channel.
    const BYTES_PER_CYCLE: f64 = 32.0;

    fn model(kind: ExecModelKind, pes: usize) -> ExecModel {
        ExecModel::new(
            MultiPeConfig {
                pes,
                scheduler: SchedulerKind::RoundRobin,
                exec: kind,
                ..MultiPeConfig::default()
            },
            BYTES_PER_CYCLE,
        )
    }

    fn fragment(cycles: u64, compute: u64, mem: u64) -> PhaseReport {
        let mut p = PhaseReport::new(PhaseKind::Aggregation);
        p.cycles = cycles;
        p.compute_busy = compute;
        p.mac_ops = compute;
        p.cluster_profiles.push(ClusterProfile {
            compute_cycles: compute,
            mem_bytes: mem,
            cycles: 0,
        });
        p
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in ExecModelKind::ALL {
            assert_eq!(ExecModelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            ExecModelKind::parse("End-To-End"),
            Some(ExecModelKind::EndToEnd)
        );
        assert_eq!(ExecModelKind::parse("bogus"), None);
        assert_eq!(ExecModelKind::ALL.len(), EXEC_MODEL_NAMES.len());
    }

    #[test]
    fn post_hoc_compose_is_the_sequential_sum() {
        let parts = vec![fragment(100, 40, 64), fragment(250, 10, 512)];
        let merged = model(ExecModelKind::PostHoc, 8).compose(PhaseKind::Aggregation, parts);
        assert_eq!(merged.cycles, 350);
        assert!(merged.pe.is_none());
        // Profiles are stamped with their fragment's detailed makespan.
        assert_eq!(merged.cluster_profiles[0].cycles, 100);
        assert_eq!(merged.cluster_profiles[1].cycles, 250);
    }

    #[test]
    fn single_pe_end_to_end_is_bit_identical_to_post_hoc() {
        let parts = || {
            vec![
                fragment(123, 40, 64),
                fragment(7, 1, 1),
                fragment(999, 2, 3),
            ]
        };
        let ph = model(ExecModelKind::PostHoc, 1).compose(PhaseKind::Aggregation, parts());
        let e2e = model(ExecModelKind::EndToEnd, 1).compose(PhaseKind::Aggregation, parts());
        assert_eq!(e2e.cycles, ph.cycles);
        assert_eq!(e2e.traffic, ph.traffic);
        assert_eq!(e2e.cluster_profiles, ph.cluster_profiles);
        let pe = e2e.pe.expect("end-to-end attaches the breakdown");
        assert_eq!(pe.per_pe_busy.len(), 1);
        assert!((pe.makespan - ph.cycles as f64).abs() < 1e-9);
    }

    #[test]
    fn multi_pe_end_to_end_shrinks_the_phase() {
        let parts = || (0..16).map(|_| fragment(1000, 900, 100)).collect();
        let one = model(ExecModelKind::EndToEnd, 1).compose(PhaseKind::Aggregation, parts());
        let four = model(ExecModelKind::EndToEnd, 4).compose(PhaseKind::Aggregation, parts());
        assert_eq!(one.cycles, 16_000);
        assert!(
            four.cycles < one.cycles,
            "four {} one {}",
            four.cycles,
            one.cycles
        );
        let pe = four.pe.expect("breakdown attached");
        assert_eq!(pe.per_pe_busy.len(), 4);
        let busy: f64 = pe.per_pe_busy.iter().sum();
        assert!((busy - pe.cluster_time).abs() / busy < 1e-9, "conservation");
    }

    #[test]
    fn banked_topology_reaches_the_composition() {
        use grow_sim::MemTopology;
        // Memory-bound fragments all homed on one banked channel: the
        // composed phase must stretch past the idealized uniform pipe.
        let parts = || (0..16).map(|_| fragment(1000, 10, 4000)).collect();
        let uniform = model(ExecModelKind::EndToEnd, 4).compose(PhaseKind::Aggregation, parts());
        let banked_cfg = MultiPeConfig {
            pes: 4,
            scheduler: SchedulerKind::RoundRobin,
            exec: ExecModelKind::EndToEnd,
            topology: MemTopology::new(1, 4),
        };
        let banked =
            ExecModel::new(banked_cfg, BYTES_PER_CYCLE).compose(PhaseKind::Aggregation, parts());
        assert!(
            banked.cycles > uniform.cycles,
            "banked {} vs uniform {}",
            banked.cycles,
            uniform.cycles
        );
        // The default topology is the uniform pipe, bit for bit.
        let default_cfg = MultiPeConfig {
            topology: MemTopology::default(),
            ..banked_cfg
        };
        let defaulted =
            ExecModel::new(default_cfg, BYTES_PER_CYCLE).compose(PhaseKind::Aggregation, parts());
        assert_eq!(defaulted, uniform);
    }

    #[test]
    fn finalize_post_hoc_matches_legacy_summarize() {
        use crate::{prepare, Accelerator, GrowEngine, PartitionStrategy};
        let w = grow_model::DatasetKey::Cora
            .spec()
            .scaled_to(300)
            .instantiate(3);
        let p = prepare(
            &w,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            4096,
        );
        let report = GrowEngine::default().run(&p);
        let cfg = MultiPeConfig::default();
        let expected = schedule::summarize(&report, &cfg, BYTES_PER_CYCLE);
        let mut finalized = report.clone();
        ExecModel::new(cfg, BYTES_PER_CYCLE).finalize(&mut finalized);
        assert_eq!(finalized.multi_pe, Some(expected));
        assert_eq!(finalized.exec, "post_hoc");
    }
}
