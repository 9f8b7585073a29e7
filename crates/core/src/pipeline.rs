//! The shared per-phase simulation harness all four engines run on.
//!
//! Every engine model used to hand-roll the same scaffolding: construct a
//! DRAM channel and a MAC array, walk the workload phase by phase, and
//! fold timing/traffic/cache counters into a [`PhaseReport`]. This module
//! centralizes that scaffolding and adds the cluster-parallel execution
//! path:
//!
//! * [`PhaseCtx`] — one simulation context (DRAM channel + MAC array +
//!   report under construction) for a phase prologue or a single cluster;
//! * [`run_clusters`] — fans independent per-cluster simulations across
//!   threads via [`grow_sim::exec`] and hands the partial reports, in
//!   cluster order, to the run's [`ExecModel`] for composition, so the
//!   result is bit-identical to a serial run (`GROW_SERIAL=1` /
//!   [`grow_sim::ExecMode::Serial`]);
//! * [`run_layers`] — the per-layer combination/aggregation loop shared by
//!   every engine's [`Accelerator::run`](crate::Accelerator::run).
//!
//! # Simulated-time semantics
//!
//! Clusters are simulated in isolated contexts whose clocks start at zero.
//! How the per-cluster timelines compose into a phase cycle count is the
//! [`ExecModel`]'s decision (see [`crate::exec_model`]): under the
//! default post-hoc model they compose *sequentially* — a phase's cycle
//! count is the sum of its prologue and per-cluster makespans, matching a
//! single PE processing clusters back to back through one FIFO memory
//! channel; under the end-to-end model (`exec=e2e`) the configured
//! scheduler dispatches the clusters onto N virtual PEs contending for
//! the shared channel, and the fluid makespan is the phase's cycle count.
//! Either way the cluster simulations are independent and therefore
//! parallelizable, and composition happens over the deterministic
//! cluster-ordered fragment list.

use std::ops::Range;

pub use grow_energy::MAC_LANES;
use grow_sim::{exec, fault, Cycle, Dram, DramConfig, FaultPlan, MacArray};
pub use grow_sim::{ScratchArena, ScratchGuard};

pub use crate::exec_model::{ExecModel, ExecModelKind};
use crate::{ClusterProfile, LayerReport, PhaseKind, PhaseReport, PreparedWorkload, RunReport};

/// One isolated simulation context: a DRAM channel, a MAC array, a local
/// clock, and the report being accumulated.
///
/// Engines drive the channel and the array directly (their access patterns
/// are what distinguishes them); the context owns construction and the
/// report-finalization bookkeeping that used to be duplicated per engine.
#[derive(Debug)]
pub struct PhaseCtx {
    /// The off-chip channel of this context.
    pub dram: Dram,
    /// The MAC vector unit of this context.
    pub mac: MacArray,
    /// The engine's local clock (the furthest completion event it has
    /// observed); folded into the final cycle count alongside the channel
    /// and array busy times.
    pub now: Cycle,
    /// The report under construction. `cycles`, `compute_busy`, `mac_ops`,
    /// and `traffic` are filled in by [`PhaseCtx::finish`]; engines add
    /// SRAM access counts and cache statistics as they go.
    pub report: PhaseReport,
}

impl PhaseCtx {
    /// Creates an idle context for one phase (or phase fragment).
    pub fn new(kind: PhaseKind, dram: DramConfig) -> Self {
        PhaseCtx {
            dram: Dram::new(dram),
            mac: MacArray::new(MAC_LANES),
            now: 0,
            report: PhaseReport::new(kind),
        }
    }

    /// Makespan of this context so far: the local clock, the channel, and
    /// the MAC array, whichever finishes last.
    pub fn makespan(&self) -> Cycle {
        self.now
            .max(self.mac.busy_until())
            .max(self.dram.busy_until())
    }

    /// Finalizes the context into its report (cycles, compute busy time,
    /// MAC count, traffic).
    pub fn finish(mut self) -> PhaseReport {
        self.report.cycles = self.makespan();
        self.report.compute_busy = self.mac.busy_cycles();
        self.report.mac_ops = self.mac.mac_ops();
        self.report.traffic = self.dram.stats().clone();
        self.report
    }

    /// Like [`PhaseCtx::finish`], additionally recording this context as
    /// one cluster's execution profile (the input of the multi-PE fluid
    /// model, Figure 24).
    pub fn finish_cluster(mut self) -> PhaseReport {
        self.report.cluster_profiles.push(ClusterProfile {
            compute_cycles: self.mac.busy_cycles(),
            mem_bytes: self.dram.stats().total_fetched(),
            // The detailed fragment makespan is stamped when the exec
            // model composes the fragments (`finish` runs after this).
            cycles: 0,
        });
        self.finish()
    }
}

/// Simulates `clusters` independently — in parallel when the execution
/// mode allows — and composes the per-cluster reports, in cluster order,
/// through `model` (sequential sum under post-hoc, scheduled multi-PE
/// fluid makespan under end-to-end). `sim` receives the cluster index and
/// row range and returns that cluster's finished [`PhaseReport`] (usually
/// via [`PhaseCtx::finish_cluster`]).
///
/// The zero-allocation engines check a reusable scratch value out of a
/// per-run [`ScratchArena`] inside `sim`, so cache residency tables,
/// runahead slots and plan buffers are built once per worker and recycled
/// across every cluster of every layer. The scratch a cluster receives
/// may have been used by *any* earlier cluster (on any thread), so `sim`
/// must re-initialize every piece of scratch state it consults (the
/// `reset` methods on the caches and tables exist for this); under that
/// contract the merged report is bit-identical to per-cluster
/// construction, in both serial and parallel execution.
pub fn run_clusters<F>(
    model: &ExecModel,
    kind: PhaseKind,
    clusters: &[Range<usize>],
    sim: F,
) -> PhaseReport
where
    F: Fn(usize, Range<usize>) -> PhaseReport + Sync,
{
    let partials = exec::parallel_map(clusters.to_vec(), |ci, cluster| {
        // Cooperative cancellation point: cheap, and placed at the cluster
        // boundary so a cancelled job never produces a partial report.
        fault::check_cancel();
        sim(ci, cluster)
    });
    model.compose(kind, partials)
}

/// The per-layer loop shared by every engine: maps each GCN layer to its
/// combination + aggregation reports and assembles the [`RunReport`].
///
/// Arms `fault_plan` (the engine config's `fault=` plan) on the calling
/// thread for the duration of the run — [`grow_sim::fault`] sites inside
/// the simulation consult it — and checks for cooperative cancellation at
/// every layer boundary. The default [`FaultPlan::OFF`] makes both a
/// no-op, leaving reports bit-identical to a build without fault support.
pub fn run_layers<F>(
    engine: &'static str,
    workload: &PreparedWorkload,
    fault_plan: FaultPlan,
    mut layer_fn: F,
) -> RunReport
where
    F: FnMut(&grow_model::LayerWorkload) -> LayerReport,
{
    fault::with_plan(fault_plan, || RunReport {
        engine,
        layers: workload
            .layers
            .iter()
            .map(|layer| {
                fault::check_cancel();
                layer_fn(layer)
            })
            .collect(),
        // Engines finalize the report through their ExecModel afterwards
        // (see `crate::exec_model::ExecModel::finalize`), which attaches
        // the multi-PE summary and records the model that ran.
        multi_pe: None,
        exec: ExecModelKind::PostHoc.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_sim::TrafficClass;

    fn post_hoc() -> ExecModel {
        ExecModel::with_dram(
            crate::schedule::MultiPeConfig::default(),
            DramConfig::default(),
        )
    }

    #[test]
    fn finish_folds_clock_channel_and_array() {
        let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, DramConfig::default());
        let done = ctx.dram.read(0, 64, TrafficClass::RhsRows);
        ctx.now = ctx.now.max(done);
        ctx.mac.scalar_vector(done, 64);
        let report = ctx.finish();
        assert!(report.cycles >= done, "latency tail retained");
        assert_eq!(report.mac_ops, 64);
        assert_eq!(report.traffic.fetched_bytes(TrafficClass::RhsRows), 64);
    }

    #[test]
    fn finish_cluster_records_profile() {
        let mut ctx = PhaseCtx::new(PhaseKind::Combination, DramConfig::default());
        ctx.dram.read(0, 100, TrafficClass::Weights);
        ctx.mac.scalar_vector(0, 32);
        let report = ctx.finish_cluster();
        assert_eq!(report.cluster_profiles.len(), 1);
        let p = report.cluster_profiles[0];
        assert_eq!(p.compute_cycles, 2);
        assert_eq!(p.mem_bytes, 128, "granularity-rounded");
    }

    #[test]
    fn run_clusters_merges_in_order() {
        let clusters = vec![0..10, 10..30, 30..35];
        let report = run_clusters(
            &post_hoc(),
            PhaseKind::Aggregation,
            &clusters,
            |ci, cluster| {
                let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, DramConfig::default());
                ctx.dram
                    .read(0, cluster.len() as u64 * 8, TrafficClass::RhsRows);
                ctx.report.sram_reads_8b = ci as u64;
                ctx.finish_cluster()
            },
        );
        assert_eq!(report.cluster_profiles.len(), 3);
        // Sequential composition: the cluster indices 0, 1, 2 sum up.
        assert_eq!(report.sram_reads_8b, 3);
        assert!(report.cluster_profiles[1].mem_bytes > report.cluster_profiles[2].mem_bytes);
    }

    #[test]
    fn parallel_and_serial_merges_are_identical() {
        let clusters: Vec<Range<usize>> = (0..32).map(|i| i * 10..(i + 1) * 10).collect();
        let sim = |_ci: usize, cluster: Range<usize>| {
            let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, DramConfig::default());
            for row in cluster {
                ctx.dram
                    .read(ctx.now, row as u64 % 200 + 1, TrafficClass::RhsRows);
                ctx.now = ctx.mac.scalar_vector(ctx.now, 16);
            }
            ctx.finish_cluster()
        };
        // Oversubscribe so threads really interleave, even on one core.
        let par = grow_sim::exec::with_workers(8, || {
            run_clusters(&post_hoc(), PhaseKind::Aggregation, &clusters, sim)
        });
        let ser = grow_sim::exec::with_mode(grow_sim::ExecMode::Serial, || {
            run_clusters(&post_hoc(), PhaseKind::Aggregation, &clusters, sim)
        });
        assert_eq!(par, ser);
    }
}
