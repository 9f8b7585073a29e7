use std::fmt;

use grow_energy::ActivityCounts;
use grow_sim::{CacheStats, Cycle, TrafficStats};

/// Which of the two GCN SpDeGEMM phases a report covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// `X * W` — the dense-ish combination GEMM.
    Combination,
    /// `A * (XW)` — the sparse aggregation GEMM that dominates runtime
    /// (Figure 7).
    Aggregation,
}

/// Per-cluster execution profile, used by the multi-PE fluid model of
/// Figure 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterProfile {
    /// MAC-array busy cycles contributed by this cluster.
    pub compute_cycles: u64,
    /// DRAM bytes moved by this cluster (granularity-rounded).
    pub mem_bytes: u64,
    /// End-to-end cycles of the cluster's *detailed* standalone simulation
    /// (the cluster alone on one PE with its full bandwidth share). Stamped
    /// by the pipeline when per-cluster fragments merge; the end-to-end
    /// execution model calibrates its fluid task durations against it so
    /// that a 1-PE run reproduces the detailed timeline exactly. Zero for
    /// hand-built profiles; the post-hoc projection ignores it.
    pub cycles: u64,
}

/// Summary of the multi-PE arrangement attached to every run.
///
/// Under the default post-hoc execution model this is the fluid model of
/// Figure 24 replayed over the run's per-cluster profiles — derived from,
/// never feeding back into, the per-phase counters: two runs that differ
/// only in scheduler have bit-identical [`RunReport::layers`] and differ
/// at most in this summary (the scheduler-invariance suite asserts exactly
/// that). Under the end-to-end model (`exec=e2e`) the summary is instead
/// *derived from* each phase's [`PhaseReport::pe`], whose makespans are
/// the report's actual cycle counts.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPeSummary {
    /// Canonical scheduler name (`rr`, `lpt`, `ws`, or `ca`).
    pub scheduler: &'static str,
    /// Number of PEs projected onto (1 = the paper's base configuration).
    pub pes: usize,
    /// Multi-PE makespan in cycles under the fluid model.
    pub makespan: f64,
    /// Load-imbalance ratio: busiest PE's busy cycles over the mean
    /// (1.0 = perfectly balanced, `pes` = one PE did everything).
    pub imbalance: f64,
    /// Cycles each PE spent executing clusters.
    pub per_pe_busy: Vec<f64>,
}

/// Per-PE accounting of one phase's cluster execution under the
/// end-to-end multi-PE execution model (`exec=e2e`): the configured PEs
/// worked this phase's clusters concurrently, contending for the shared
/// channel, and these are the resulting timelines. Phase fragments that
/// execute back to back (the column-chunk passes of a combination phase)
/// compose by [`PhasePeBusy::absorb_sequential`].
///
/// `None` under the post-hoc model, where the phase cycle count is the
/// plain sequential single-PE composition.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePeBusy {
    /// Makespan in cycles of the phase's cluster fan-out under the fluid
    /// contention model (excluding any serial prologue, which is part of
    /// [`PhaseReport::cycles`] but occupies every PE alike).
    pub makespan: f64,
    /// Cycles each PE spent with a cluster in execution.
    pub per_pe_busy: Vec<f64>,
    /// Sum of per-cluster in-system durations. Every executing cluster
    /// occupies exactly one PE, so this equals the summed per-PE busy time
    /// (the conservation law the exec-model property suite asserts).
    pub cluster_time: f64,
}

impl PhasePeBusy {
    /// Composes a fragment that executes *after* this one on the same PEs
    /// (an inter-pass barrier): makespans add, per-PE busy times add.
    pub fn absorb_sequential(&mut self, fragment: &PhasePeBusy) {
        self.makespan += fragment.makespan;
        if self.per_pe_busy.len() < fragment.per_pe_busy.len() {
            self.per_pe_busy.resize(fragment.per_pe_busy.len(), 0.0);
        }
        for (slot, b) in self.per_pe_busy.iter_mut().zip(&fragment.per_pe_busy) {
            *slot += b;
        }
        self.cluster_time += fragment.cluster_time;
    }
}

/// Timing/traffic/cache statistics of one SpDeGEMM phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// End-to-end cycles of the phase.
    pub cycles: Cycle,
    /// Cycles the MAC array was busy.
    pub compute_busy: u64,
    /// Multiply-accumulate operations executed.
    pub mac_ops: u64,
    /// Off-chip traffic, by class.
    pub traffic: TrafficStats,
    /// Row-cache statistics (zeros for engines without a cache).
    pub cache: CacheStats,
    /// 8-byte on-chip SRAM reads.
    pub sram_reads_8b: u64,
    /// 8-byte on-chip SRAM writes.
    pub sram_writes_8b: u64,
    /// Per-cluster profiles (every engine emits one per simulated
    /// cluster; the multi-PE model schedules over them).
    pub cluster_profiles: Vec<ClusterProfile>,
    /// Per-PE accounting when this phase was composed by the end-to-end
    /// multi-PE execution model; `None` under the post-hoc model.
    pub pe: Option<PhasePeBusy>,
}

impl PhaseReport {
    /// An empty report for `kind`.
    pub fn new(kind: PhaseKind) -> Self {
        PhaseReport {
            kind,
            cycles: 0,
            compute_busy: 0,
            mac_ops: 0,
            traffic: TrafficStats::new(),
            cache: CacheStats::default(),
            sram_reads_8b: 0,
            sram_writes_8b: 0,
            cluster_profiles: Vec::new(),
            pe: None,
        }
    }

    /// Total DRAM bytes moved (granularity-rounded).
    pub fn dram_bytes(&self) -> u64 {
        self.traffic.total_fetched()
    }

    /// Absorbs a phase fragment that executes *after* everything already
    /// accumulated: cycle counts add (the single PE processes fragments
    /// back to back), traffic/cache/SRAM counters sum, and cluster
    /// profiles append in order. This is the merge step of the parallel
    /// cluster path — folding per-cluster reports in cluster order makes
    /// the parallel result bit-identical to a serial run.
    pub fn absorb_sequential(&mut self, fragment: PhaseReport) {
        debug_assert_eq!(self.kind, fragment.kind, "fragments belong to one phase");
        self.cycles += fragment.cycles;
        self.compute_busy += fragment.compute_busy;
        self.mac_ops += fragment.mac_ops;
        self.traffic.merge(&fragment.traffic);
        self.cache.merge(&fragment.cache);
        self.sram_reads_8b += fragment.sram_reads_8b;
        self.sram_writes_8b += fragment.sram_writes_8b;
        self.cluster_profiles.extend(fragment.cluster_profiles);
        match (&mut self.pe, fragment.pe) {
            (Some(mine), Some(theirs)) => mine.absorb_sequential(&theirs),
            (mine @ None, theirs @ Some(_)) => *mine = theirs,
            _ => {}
        }
    }
}

/// Reports for the two phases of one GCN layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Combination (`X*W`) phase.
    pub combination: PhaseReport,
    /// Aggregation (`A*XW`) phase.
    pub aggregation: PhaseReport,
}

impl LayerReport {
    /// Cycles of both phases.
    pub fn cycles(&self) -> Cycle {
        self.combination.cycles + self.aggregation.cycles
    }
}

/// Full report of a 2-layer GCN inference run on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Engine name (paper figure labels).
    pub engine: &'static str,
    /// Per-layer reports.
    pub layers: Vec<LayerReport>,
    /// Multi-PE summary of this run (`None` only for hand-built reports;
    /// every engine attaches its configured summary).
    pub multi_pe: Option<MultiPeSummary>,
    /// Canonical name of the execution model that produced the cycle
    /// counts: `"post_hoc"` (single-PE timelines, multi-PE as a
    /// projection) or `"e2e"` (the multi-PE fluid composition *is* the
    /// per-phase cycle count).
    pub exec: &'static str,
}

impl RunReport {
    /// End-to-end inference cycles.
    pub fn total_cycles(&self) -> Cycle {
        self.layers.iter().map(LayerReport::cycles).sum()
    }

    /// Cycles spent in aggregation across layers (Figure 7/20(b)).
    pub fn aggregation_cycles(&self) -> Cycle {
        self.layers.iter().map(|l| l.aggregation.cycles).sum()
    }

    /// Cycles spent in combination across layers (Figure 7/20(b)).
    pub fn combination_cycles(&self) -> Cycle {
        self.layers.iter().map(|l| l.combination.cycles).sum()
    }

    /// Merged traffic statistics across phases and layers.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::new();
        for l in &self.layers {
            t.merge(&l.combination.traffic);
            t.merge(&l.aggregation.traffic);
        }
        t
    }

    /// Total DRAM bytes moved (Figure 18's metric).
    pub fn dram_bytes(&self) -> u64 {
        self.total_traffic().total_fetched()
    }

    /// Total MAC operations (must be engine-invariant for a workload).
    pub fn mac_ops(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.combination.mac_ops + l.aggregation.mac_ops)
            .sum()
    }

    /// Merged cache statistics (aggregation phases only, where the HDN
    /// cache operates — Figure 17's metric).
    pub fn aggregation_cache(&self) -> CacheStats {
        let mut c = CacheStats::default();
        for l in &self.layers {
            c.merge(&l.aggregation.cache);
        }
        c
    }

    /// Activity counts for the energy model (Figure 22), with the engine's
    /// total SRAM capacity supplied by the caller.
    ///
    /// For a multi-PE end-to-end run (`exec=e2e`, `pes > 1`) each phase's
    /// [`PhasePeBusy`] is folded into the fleet PE-cycle counters, so
    /// leakage charges every PE — busy *or idle* — for the full phase
    /// makespan rather than the single reference timeline. Single-PE and
    /// post-hoc runs leave those counters zero and the energy estimate is
    /// bit-identical to the pre-fleet behavior.
    pub fn activity(&self, sram_kb: f64) -> ActivityCounts {
        let mut a = ActivityCounts {
            sram_kb,
            ..ActivityCounts::default()
        };
        for l in &self.layers {
            for p in [&l.combination, &l.aggregation] {
                a.mac_ops += p.mac_ops;
                a.sram_reads_8b += p.sram_reads_8b;
                a.sram_writes_8b += p.sram_writes_8b;
                a.dram_bytes += p.traffic.total_fetched();
                if let Some(pe) = p.pe.as_ref().filter(|pe| pe.per_pe_busy.len() > 1) {
                    let busy: f64 = pe.per_pe_busy.iter().sum();
                    let fleet = pe.makespan * pe.per_pe_busy.len() as f64;
                    a.pe_busy_cycles += busy.round() as u64;
                    a.pe_idle_cycles += (fleet - busy).max(0.0).round() as u64;
                }
            }
        }
        // Three register-file touches per MAC (two operand reads, one
        // accumulator write), the usual vector-MAC bookkeeping.
        a.rf_accesses = 3 * a.mac_ops;
        a.cycles = self.total_cycles();
        a
    }

    /// Per-cluster profiles concatenated across layers (multi-PE model).
    pub fn cluster_profiles(&self) -> Vec<ClusterProfile> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend(l.combination.cluster_profiles.iter().copied());
            out.extend(l.aggregation.cluster_profiles.iter().copied());
        }
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cycles ({} aggregation / {} combination), {} DRAM bytes, {} MACs",
            self.engine,
            self.total_cycles(),
            self.aggregation_cycles(),
            self.combination_cycles(),
            self.dram_bytes(),
            self.mac_ops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(kind: PhaseKind, cycles: Cycle, macs: u64) -> PhaseReport {
        PhaseReport {
            cycles,
            mac_ops: macs,
            ..PhaseReport::new(kind)
        }
    }

    fn report() -> RunReport {
        RunReport {
            engine: "test",
            multi_pe: None,
            exec: "post_hoc",
            layers: vec![
                LayerReport {
                    combination: phase(PhaseKind::Combination, 10, 100),
                    aggregation: phase(PhaseKind::Aggregation, 40, 200),
                },
                LayerReport {
                    combination: phase(PhaseKind::Combination, 5, 50),
                    aggregation: phase(PhaseKind::Aggregation, 20, 80),
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_layers_and_phases() {
        let r = report();
        assert_eq!(r.total_cycles(), 75);
        assert_eq!(r.aggregation_cycles(), 60);
        assert_eq!(r.combination_cycles(), 15);
        assert_eq!(r.mac_ops(), 430);
    }

    #[test]
    fn activity_derives_rf_from_macs() {
        let a = report().activity(538.0);
        assert_eq!(a.mac_ops, 430);
        assert_eq!(a.rf_accesses, 3 * 430);
        assert_eq!(a.cycles, 75);
        assert_eq!(a.sram_kb, 538.0);
    }

    #[test]
    fn display_contains_engine_name() {
        assert!(format!("{}", report()).contains("test"));
    }
}
