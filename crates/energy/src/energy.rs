use std::fmt;

/// Activity counters produced by a simulator run, consumed by
/// [`estimate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActivityCounts {
    /// Multiply-accumulate operations executed.
    pub mac_ops: u64,
    /// Register-file accesses (operand reads/writes around the MAC array).
    pub rf_accesses: u64,
    /// 8-byte on-chip SRAM reads.
    pub sram_reads_8b: u64,
    /// 8-byte on-chip SRAM writes.
    pub sram_writes_8b: u64,
    /// Bytes transferred to/from DRAM (granularity-rounded, i.e. what the
    /// channel actually moved).
    pub dram_bytes: u64,
    /// Execution time in cycles (1 GHz clock), for leakage.
    pub cycles: u64,
    /// PE-cycles the multi-PE fleet spent executing clusters, summed over
    /// every PE (an end-to-end `pes=N` run reports up to `N * cycles`).
    /// Zero for single-PE and post-hoc runs.
    pub pe_busy_cycles: u64,
    /// PE-cycles the fleet sat idle inside phase makespans (powered but
    /// waiting for work or a phase barrier). Together with
    /// [`ActivityCounts::pe_busy_cycles`] this is the fleet's total
    /// powered time, which leakage charges in full: an idle PE leaks for
    /// the whole makespan. Zero for single-PE and post-hoc runs, which
    /// fall back to [`ActivityCounts::cycles`].
    pub pe_idle_cycles: u64,
    /// Total on-chip SRAM capacity in KB, for leakage.
    pub sram_kb: f64,
}

/// Energy broken down into the five categories of Figure 22, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MAC array dynamic energy.
    pub mac: f64,
    /// Register-file dynamic energy.
    pub rf: f64,
    /// On-chip SRAM dynamic energy.
    pub sram: f64,
    /// Off-chip DRAM dynamic energy.
    pub dram: f64,
    /// Static (leakage) energy over the execution time.
    pub leakage: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.mac + self.rf + self.sram + self.dram + self.leakage
    }

    /// Each category as a fraction of the total.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(f64::MIN_POSITIVE);
        [
            self.mac / t,
            self.rf / t,
            self.sram / t,
            self.dram / t,
            self.leakage / t,
        ]
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy: mac {:.3e} J, rf {:.3e} J, sram {:.3e} J, dram {:.3e} J, leak {:.3e} J \
             (total {:.3e} J)",
            self.mac,
            self.rf,
            self.sram,
            self.dram,
            self.leakage,
            self.total()
        )
    }
}

// Per-operation energy constants (Horowitz ISSCC'14-derived, 45 nm-class,
// matching the paper's methodology in Section VI).

/// Energy per 64-bit multiply-accumulate, picojoules. Horowitz reports
/// ~20 pJ for a 64-bit FP multiply and ~5 pJ for the add at 45 nm.
const MAC_PJ: f64 = 25.0;
/// Energy per register-file operand access, picojoules (small
/// flip-flop-based RF, ~1.5 pJ).
const RF_ACCESS_PJ: f64 = 1.5;
/// SRAM dynamic energy per 8-byte access: `SRAM_BASE_PJ + SRAM_SQRT_PJ *
/// sqrt(capacity_KB)`, a CACTI-style capacity fit (e.g. ~2.5 pJ at 12 KB,
/// ~35 pJ at 512 KB).
const SRAM_BASE_PJ: f64 = 2.0;
/// See [`SRAM_BASE_PJ`].
const SRAM_SQRT_PJ: f64 = 1.45;
/// Mean SRAM capacity (KB) used for the per-access fit; engines report
/// aggregate access counts, so the fit uses the weighted buffer size.
const SRAM_FIT_KB: f64 = 256.0;
/// DRAM energy per bit, picojoules (Horowitz: ~1.3–2.6 nJ per 64-bit
/// access => ~20–40 pJ/bit; we use the low end for modern LPDDR-class
/// parts).
const DRAM_PJ_PER_BIT: f64 = 20.0;
/// SRAM leakage power per KB, milliwatts (CACTI 45 nm leakage for the
/// multi-bank SRAM macros the paper synthesizes, ~0.05 mW/KB).
const SRAM_LEAK_MW_PER_KB: f64 = 0.05;
/// Fixed logic leakage (MAC array + control), milliwatts.
const LOGIC_LEAK_MW: f64 = 5.0;
/// Clock frequency in Hz (Table III: 1 GHz).
const CLOCK_HZ: f64 = 1.0e9;

/// SRAM dynamic energy per 8-byte access for a buffer of `kb` KB.
fn sram_access_pj(kb: f64) -> f64 {
    SRAM_BASE_PJ + SRAM_SQRT_PJ * kb.max(0.0).sqrt()
}

/// Estimates the Figure 22 energy breakdown for an activity profile.
pub fn estimate(counts: &ActivityCounts) -> EnergyBreakdown {
    const PJ: f64 = 1e-12;
    let mac = counts.mac_ops as f64 * MAC_PJ * PJ;
    let rf = counts.rf_accesses as f64 * RF_ACCESS_PJ * PJ;
    let sram_pj = sram_access_pj(SRAM_FIT_KB);
    let sram = (counts.sram_reads_8b + counts.sram_writes_8b) as f64 * sram_pj * PJ;
    let dram = counts.dram_bytes as f64 * 8.0 * DRAM_PJ_PER_BIT * PJ;
    // Leakage charges the fleet's full powered time when the run reports
    // per-PE accounting (every PE leaks for the whole makespan, idle or
    // not); otherwise the single reference timeline.
    let fleet_cycles = counts.pe_busy_cycles + counts.pe_idle_cycles;
    let leak_cycles = if fleet_cycles > 0 {
        fleet_cycles
    } else {
        counts.cycles
    };
    let seconds = leak_cycles as f64 / CLOCK_HZ;
    let leak_w = (counts.sram_kb * SRAM_LEAK_MW_PER_KB + LOGIC_LEAK_MW) * 1e-3;
    let leakage = leak_w * seconds;
    EnergyBreakdown {
        mac,
        rf,
        sram,
        dram,
        leakage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> ActivityCounts {
        ActivityCounts {
            mac_ops: 1_000,
            rf_accesses: 3_000,
            sram_reads_8b: 2_000,
            sram_writes_8b: 1_000,
            dram_bytes: 10_000,
            cycles: 1_000_000,
            sram_kb: 538.0,
            ..ActivityCounts::default()
        }
    }

    #[test]
    fn mac_energy_is_count_times_constant() {
        let e = estimate(&counts());
        assert!((e.mac - 1_000.0 * 25.0e-12).abs() < 1e-18);
    }

    #[test]
    fn dram_energy_per_bit() {
        let e = estimate(&counts());
        assert!((e.dram - 10_000.0 * 8.0 * 20.0e-12).abs() < 1e-15);
    }

    #[test]
    fn leakage_scales_with_time() {
        let mut c = counts();
        let e1 = estimate(&c);
        c.cycles *= 2;
        let e2 = estimate(&c);
        assert!((e2.leakage / e1.leakage - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sram_fit_grows_with_capacity() {
        assert!(sram_access_pj(512.0) > sram_access_pj(12.0));
        // Sanity band for the 512 KB HDN cache: tens of pJ.
        let pj = sram_access_pj(512.0);
        assert!((10.0..80.0).contains(&pj), "512 KB access energy {pj} pJ");
    }

    #[test]
    fn fractions_sum_to_one() {
        let e = estimate(&counts());
        let sum: f64 = e.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_dominates_compute_for_spdegemm_profiles() {
        // A profile shaped like aggregation: each MAC touches ~1 byte of
        // DRAM on average once caching fails.
        let c = ActivityCounts {
            mac_ops: 1_000_000,
            rf_accesses: 3_000_000,
            sram_reads_8b: 1_000_000,
            sram_writes_8b: 100_000,
            dram_bytes: 4_000_000,
            cycles: 2_000_000,
            sram_kb: 538.0,
            ..ActivityCounts::default()
        };
        let e = estimate(&c);
        assert!(e.dram > e.mac + e.rf, "{e}");
    }

    #[test]
    fn idle_pes_pay_leakage_for_the_full_makespan() {
        // A 4-PE fleet over a 1M-cycle makespan with 2.5M busy PE-cycles:
        // leakage must charge all 4M powered PE-cycles, not the 1M
        // reference timeline the legacy single-PE accounting saw.
        let mut c = counts();
        let single = estimate(&c);
        c.pe_busy_cycles = 2_500_000;
        c.pe_idle_cycles = 1_500_000;
        let fleet = estimate(&c);
        assert!((fleet.leakage / single.leakage - 4.0).abs() < 1e-12);
        // Dynamic categories are activity-based and unchanged.
        assert_eq!(fleet.mac, single.mac);
        assert_eq!(fleet.dram, single.dram);
    }

    #[test]
    fn zero_fleet_counters_keep_the_legacy_leakage() {
        let c = counts();
        assert_eq!(c.pe_busy_cycles, 0);
        assert_eq!(c.pe_idle_cycles, 0);
        let e = estimate(&c);
        let leak_w = (c.sram_kb * SRAM_LEAK_MW_PER_KB + LOGIC_LEAK_MW) * 1e-3;
        let expected = leak_w * c.cycles as f64 / CLOCK_HZ;
        assert!((e.leakage - expected).abs() < 1e-18);
    }
}
