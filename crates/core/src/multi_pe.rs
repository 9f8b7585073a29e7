//! Multi-PE scaling model (Figure 24 / Section VII-F).
//!
//! The paper sweeps GROW from 1 to 16 processing engines "with a
//! proportional increase in memory bandwidth"; each PE processes different
//! graph clusters, and because "different PEs exhibit different memory
//! intensive phases at different times", PEs opportunistically use more
//! than their average bandwidth share — producing super-linear speedups on
//! the large graphs.
//!
//! This module reproduces that mechanism with a fluid (processor-sharing)
//! co-simulation over the per-cluster execution profiles that the detailed
//! single-PE simulator emits: every cluster-task needs `compute_cycles` of
//! MAC time and `mem_bytes` of DRAM transfer (overlapped); at any instant
//! the memory-demanding PEs split the shared channel by water-filling,
//! while compute-bound PEs leave their share to others.
//!
//! Which PE runs which cluster is decided by a [`SchedulerKind`] — see
//! [`crate::schedule`] for the policies (`rr`, `lpt`, `ws`, `ca`). One
//! event loop serves two entry points: [`simulate`] is the uncalibrated
//! post-hoc projection on the uniform pipe, and [`simulate_e2e`] is the
//! calibrated, banked variant the end-to-end execution model
//! ([`crate::exec_model`]) composes phase cycle counts with. The uniform
//! `1x1` topology charges no bank conflict, so it is the idealized shared
//! pipe, bit for bit.

use grow_sim::{fault, MemTopology};

use crate::schedule::SchedulerKind;
use crate::ClusterProfile;

/// One point of the Figure 24 scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of processing engines (memory bandwidth scales with it).
    pub pes: usize,
    /// Makespan in cycles under the fluid model.
    pub cycles: f64,
    /// Throughput normalized to the 1-PE configuration.
    pub normalized_throughput: f64,
}

/// Full accounting of one fluid multi-PE simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPeRun {
    /// Canonical name of the scheduler that assigned clusters to PEs.
    pub scheduler: &'static str,
    /// Number of processing engines simulated.
    pub pes: usize,
    /// Makespan in cycles: when the last PE finishes its last cluster.
    pub makespan: f64,
    /// Cycles each PE spent with a cluster in execution (the rest of the
    /// makespan it sat idle waiting for work).
    pub per_pe_busy: Vec<f64>,
    /// In-system execution time of each cluster, indexed like the input
    /// profiles. Every cluster occupies exactly one PE while executing, so
    /// these sum to the total busy time (the conservation law the property
    /// suite asserts).
    pub cluster_cycles: Vec<f64>,
}

/// Load-imbalance ratio of per-PE busy times: busiest PE over mean PE
/// busy time. 1.0 means perfectly balanced; `per_pe_busy.len()` means one
/// PE did all the work. Defined as 1.0 for an empty fleet *and* for a
/// degenerate one whose busy total is not a positive finite number, so it
/// is never NaN: a fleet of zero-cycle clusters must not divide by 0.0,
/// and a NaN or infinite entry must not propagate through the division.
pub fn imbalance(per_pe_busy: &[f64]) -> f64 {
    let total: f64 = per_pe_busy.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return 1.0;
    }
    let max = per_pe_busy.iter().cloned().fold(0.0f64, f64::max);
    max * per_pe_busy.len() as f64 / total
}

/// Simulates `pes` PEs working through `profiles` with cluster-to-PE
/// assignment decided by `scheduler`, against a shared memory channel of
/// `pes * per_pe_bytes_per_cycle`: the uncalibrated post-hoc projection,
/// where each cluster-task runs for `max(C, M/a)` cycles at allocated
/// bandwidth `a` on the uniform pipe.
///
/// # Panics
///
/// Panics if `pes == 0` or the bandwidth is not positive.
pub fn simulate(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
) -> MultiPeRun {
    fluid(
        profiles,
        pes,
        per_pe_bytes_per_cycle,
        scheduler,
        false,
        MemTopology::default(),
    )
}

/// The end-to-end fluid co-simulation (`exec=e2e`): like [`simulate`],
/// but each cluster-task's duration is *calibrated against its detailed
/// standalone timeline* ([`ClusterProfile::cycles`]), and the memory
/// system is banked.
///
/// A task with detailed makespan `T`, MAC-busy `C`, and transfer `M` runs
/// for `max(C, M/a) + S` cycles at allocated bandwidth `a`, where
/// `S = T - max(C, M/B)` (with `B` the per-PE fair share) is the
/// serialization residue the overlap model cannot see — latency tails,
/// FIFO ordering, dependent stalls. At `a = B` the duration is exactly
/// `T`, so a 1-PE end-to-end run reproduces the detailed sequential
/// composition; at `a < B` memory-bound tasks stretch (contention) and at
/// `a > B` they shrink (borrowing idle bandwidth, the Section VII-F
/// super-linearity mechanism).
///
/// Clusters interleave across `topology.channels` by index, and each
/// memory-active task pays a per-request bank-conflict stall proportional
/// to how many other memory-active tasks share its home channel (amortized
/// over `topology.banks`; see [`MemTopology::conflict_penalty_per_byte`],
/// which reuses [`grow_sim::DRAM_REQUEST_OVERHEAD_CYCLES`]). With one PE no
/// two tasks are ever co-resident and no stall accrues; on the uniform
/// `1x1` topology the stall is zero by definition, which is the idealized
/// shared pipe the committed e2e golden snapshots model. The dispatcher
/// sees the topology, so `ca` steers memory-bound clusters by channel.
///
/// # Panics
///
/// Panics if `pes == 0` or the bandwidth is not positive.
pub fn simulate_e2e(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
    topology: MemTopology,
) -> MultiPeRun {
    fluid(
        profiles,
        pes,
        per_pe_bytes_per_cycle,
        scheduler,
        true,
        topology,
    )
}

/// The event loop behind both entry points. Between completion events the
/// live set is fixed, so the water-filled allocations and the conflict
/// stalls are constant and stepping to the earliest completion is exact.
///
/// Only the calibrated (end-to-end) loop is a `sched` fault site: the
/// post-hoc projection also runs inside a served job's armed plan (when
/// the run's report is finalized), and the `fault=` grammar documents
/// the site as `exec=e2e` dispatch only.
fn fluid(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
    calibrated: bool,
    topology: MemTopology,
) -> MultiPeRun {
    assert!(pes > 0, "at least one PE");
    assert!(per_pe_bytes_per_cycle > 0.0, "bandwidth must be positive");
    let total_bw = pes as f64 * per_pe_bytes_per_cycle;
    let mut dispatch = scheduler.dispatcher(profiles, pes, per_pe_bytes_per_cycle, topology);

    // Active task per PE: cluster index, compute total, mem total, serial
    // residue, fraction remaining, home channel.
    struct Task {
        idx: usize,
        c: f64,
        m: f64,
        s: f64,
        w: f64,
        channel: usize,
    }
    // The `sched` fault site counts cluster hand-offs to PEs; the whole
    // dispatch loop runs on one thread, so the ordinal is leg-identical.
    let mut dispatched: u64 = 0;
    let mut next_task = |p: usize| {
        let i = dispatch.next(p)?;
        dispatched += 1;
        if calibrated {
            fault::trip_at(fault::FaultSite::Sched, dispatched);
        }
        let c = profiles[i].compute_cycles as f64;
        let m = profiles[i].mem_bytes as f64;
        // Serial residue of the detailed timeline beyond the overlap
        // model's fair-share estimate (0 in the uncalibrated projection).
        let s = if calibrated {
            (profiles[i].cycles as f64 - c.max(m / per_pe_bytes_per_cycle)).max(0.0)
        } else {
            0.0
        };
        Some(Task {
            idx: i,
            c,
            m,
            s,
            w: 1.0,
            channel: topology.home_channel(i),
        })
    };
    let mut active: Vec<Option<Task>> = (0..pes).map(&mut next_task).collect();
    let mut busy = vec![0.0f64; pes];
    let mut cluster_cycles = vec![0.0f64; profiles.len()];

    // Per-event buffers, refilled at every completion event.
    let mut live: Vec<usize> = Vec::with_capacity(pes);
    let mut channel_load = vec![0usize; topology.channels];
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(pes);
    let mut alloc = vec![0.0f64; pes];
    let mut rates = vec![0.0f64; pes];
    let mut t = 0.0f64;
    loop {
        live.clear();
        live.extend((0..pes).filter(|&p| active[p].is_some()));
        if live.is_empty() {
            break;
        }
        // Memory-active co-residency per channel, and each task's demand:
        // the bandwidth at which it becomes compute-bound.
        channel_load.fill(0);
        order.clear();
        for &p in &live {
            let task = active[p].as_ref().expect("live");
            if task.m > 0.0 {
                channel_load[task.channel] += 1;
            }
            let demand = if task.c <= 0.0 {
                f64::INFINITY
            } else {
                task.m / task.c
            };
            order.push((demand, p));
        }
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite-ish demands"));

        // Water-fill the aggregate bandwidth (address interleaving lets any
        // stream draw on the whole channel array; conflicts, not peak
        // bandwidth, are per-channel).
        let mut remaining = total_bw;
        let mut left = order.len();
        for &(demand, p) in &order {
            let share = remaining / left as f64;
            let a = demand.min(share);
            alloc[p] = a;
            remaining -= a;
            left -= 1;
        }

        // Per-task completion rate and the next completion event.
        let mut dt = f64::INFINITY;
        for &p in &live {
            let task = active[p].as_ref().expect("live");
            let mem_time = if task.m <= 0.0 {
                0.0
            } else if alloc[p] <= 0.0 {
                f64::INFINITY
            } else {
                // Transfer time plus the expected bank-conflict stall for
                // sharing the home channel with `load - 1` other
                // memory-active tasks.
                let co_residents = channel_load[task.channel] - 1;
                task.m / alloc[p] + task.m * topology.conflict_penalty_per_byte(co_residents)
            };
            let duration = (task.c.max(mem_time) + task.s).max(1e-9);
            rates[p] = 1.0 / duration;
            dt = dt.min(task.w / rates[p]);
        }

        t += dt;
        for &p in &live {
            busy[p] += dt;
            let task = active[p].as_mut().expect("live");
            cluster_cycles[task.idx] += dt;
            task.w -= rates[p] * dt;
            if task.w <= 1e-9 {
                active[p] = next_task(p);
            }
        }
    }
    MultiPeRun {
        scheduler: scheduler.name(),
        pes,
        makespan: t,
        per_pe_busy: busy,
        cluster_cycles,
    }
}

/// Produces the Figure 24 scaling curve for the given PE counts under
/// `scheduler`, normalized to its own 1-PE makespan.
pub fn scaling_curve(
    profiles: &[ClusterProfile],
    pe_counts: &[usize],
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
) -> Vec<ScalingPoint> {
    let base = simulate(profiles, 1, per_pe_bytes_per_cycle, scheduler).makespan;
    pe_counts
        .iter()
        .map(|&pes| {
            let cycles = simulate(profiles, pes, per_pe_bytes_per_cycle, scheduler).makespan;
            ScalingPoint {
                pes,
                cycles,
                normalized_throughput: if cycles > 0.0 {
                    base / cycles
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(c: u64, m: u64) -> ClusterProfile {
        ClusterProfile {
            compute_cycles: c,
            mem_bytes: m,
            cycles: 0,
        }
    }

    #[test]
    fn single_pe_is_sum_of_maxima() {
        let profiles = [task(100, 50), task(10, 400)];
        // bw = 2 B/cycle: durations max(100, 25) = 100 and max(10, 200).
        let t = simulate(&profiles, 1, 2.0, SchedulerKind::RoundRobin).makespan;
        assert!((t - 300.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn scaling_is_at_least_near_linear_for_homogeneous_tasks() {
        let profiles: Vec<ClusterProfile> = (0..64).map(|_| task(100, 100)).collect();
        let curve = scaling_curve(&profiles, &[1, 2, 4, 8], 2.0, SchedulerKind::RoundRobin);
        for point in &curve[1..] {
            let eff = point.normalized_throughput / point.pes as f64;
            assert!(eff > 0.9, "pes {} efficiency {eff}", point.pes);
        }
    }

    #[test]
    fn heterogeneous_phases_scale_super_linearly() {
        // Compute-bound and memory-bound clusters interleaved so that at
        // any instant half the PEs need bandwidth and half do not: a single
        // PE wastes whichever resource the current cluster does not need,
        // while co-running PEs overlap them and memory-bound clusters
        // borrow idle bandwidth (Section VII-F's explanation of the
        // super-linear speedups). Task assignment is round-robin over 16
        // PEs, so tasks 0..16 are the PEs' first tasks and 16..32 their
        // second; give even PEs (compute, memory) and odd PEs the reverse.
        let first: Vec<ClusterProfile> = (0..16)
            .map(|p| {
                if p % 2 == 0 {
                    task(1000, 10)
                } else {
                    task(10, 1000)
                }
            })
            .collect();
        let second: Vec<ClusterProfile> = (0..16)
            .map(|p| {
                if p % 2 == 0 {
                    task(10, 1000)
                } else {
                    task(1000, 10)
                }
            })
            .collect();
        let profiles: Vec<ClusterProfile> = first.into_iter().chain(second).collect();
        let curve = scaling_curve(&profiles, &[16], 1.0, SchedulerKind::RoundRobin);
        let speedup = curve[0].normalized_throughput;
        assert!(
            speedup > 16.5,
            "expected super-linear scaling, got {speedup} at 16 PEs"
        );
    }

    #[test]
    fn zero_work_tasks_complete() {
        let profiles = [task(0, 0), task(5, 5)];
        let t = simulate(&profiles, 2, 1.0, SchedulerKind::RoundRobin).makespan;
        assert!(t.is_finite());
    }

    #[test]
    fn more_pes_never_slower() {
        let profiles: Vec<ClusterProfile> =
            (0..40).map(|i| task(50 + i * 3, 40 * (i % 5))).collect();
        let t1 = simulate(&profiles, 1, 4.0, SchedulerKind::RoundRobin).makespan;
        let t4 = simulate(&profiles, 4, 4.0, SchedulerKind::RoundRobin).makespan;
        let t16 = simulate(&profiles, 16, 4.0, SchedulerKind::RoundRobin).makespan;
        assert!(t4 <= t1 && t16 <= t4, "t1 {t1}, t4 {t4}, t16 {t16}");
    }

    #[test]
    fn curve_normalizes_to_one_pe() {
        let profiles = [task(10, 10), task(20, 5)];
        let curve = scaling_curve(&profiles, &[1], 1.0, SchedulerKind::RoundRobin);
        assert!((curve[0].normalized_throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn work_stealing_balances_a_skewed_tail() {
        // 3 giant clusters then 61 small ones on 4 PEs: round-robin gives
        // PE 3 only small clusters while PEs 0..3 serialize behind the
        // giants; work-stealing spreads the small ones over whoever is
        // free.
        let profiles: Vec<ClusterProfile> = (0..64)
            .map(|i| if i < 3 { task(10_000, 0) } else { task(100, 0) })
            .collect();
        let rr = simulate(&profiles, 4, 4.0, SchedulerKind::RoundRobin);
        let ws = simulate(&profiles, 4, 4.0, SchedulerKind::WorkStealing);
        let lpt = simulate(&profiles, 4, 4.0, SchedulerKind::StaticLpt);
        assert!(
            ws.makespan < rr.makespan,
            "ws {} vs rr {}",
            ws.makespan,
            rr.makespan
        );
        assert!(
            lpt.makespan < rr.makespan,
            "lpt {} vs rr {}",
            lpt.makespan,
            rr.makespan
        );
        assert!(imbalance(&ws.per_pe_busy) < imbalance(&rr.per_pe_busy));
    }

    #[test]
    fn imbalance_is_one_for_zero_busy_totals_and_nan() {
        // Regression: a non-empty fleet of zero-cycle clusters has a 0.0
        // busy total; `max * len / total` must not produce NaN.
        assert_eq!(imbalance(&[0.0; 4]), 1.0);
        // A poisoned busy vector must not propagate NaN either.
        assert_eq!(imbalance(&[f64::NAN, 1.0]), 1.0);
        assert_eq!(imbalance(&[f64::INFINITY, 1.0]), 1.0);
    }

    fn calibrated(c: u64, m: u64, bw: f64) -> ClusterProfile {
        // A plausible detailed timeline: overlap estimate + 10% residue.
        ClusterProfile {
            compute_cycles: c,
            mem_bytes: m,
            cycles: ((c as f64).max(m as f64 / bw) * 1.1) as u64,
        }
    }

    #[test]
    fn uniform_topology_charges_no_conflict() {
        // Zero-cycle profiles carry no calibration residue, so the
        // calibrated loop can differ from the projection only by conflict
        // stalls, and the uniform pipe must charge none.
        let profiles: Vec<ClusterProfile> =
            (0..32).map(|i| task(50 + 13 * i, 40 * (i % 7))).collect();
        for pes in [1usize, 3, 8] {
            for kind in SchedulerKind::ALL {
                let e2e = simulate_e2e(&profiles, pes, 4.0, kind, MemTopology::default());
                assert_eq!(
                    e2e,
                    simulate(&profiles, pes, 4.0, kind),
                    "pes={pes} scheduler={}",
                    kind.name()
                );
            }
        }
        // Two co-resident memory-only tasks split the pipe evenly and each
        // finishes at M / B, with no stall on top.
        let pair = [task(0, 400), task(0, 400)];
        let kind = SchedulerKind::RoundRobin;
        let run = simulate_e2e(&pair, 2, 4.0, kind, MemTopology::default());
        assert!((run.makespan - 100.0).abs() < 1e-9, "{}", run.makespan);
    }

    #[test]
    fn bank_conflicts_stretch_contended_memory_phases() {
        // Memory-bound tasks all homed on one channel: the banked model
        // must charge conflict stalls the idealized pipe does not.
        let profiles: Vec<ClusterProfile> = (0..16).map(|_| calibrated(10, 4000, 4.0)).collect();
        let uniform = MemTopology::default();
        let ideal = simulate_e2e(&profiles, 4, 4.0, SchedulerKind::RoundRobin, uniform);
        let banked = simulate_e2e(
            &profiles,
            4,
            4.0,
            SchedulerKind::RoundRobin,
            MemTopology::new(1, 8),
        );
        assert!(
            banked.makespan > ideal.makespan,
            "banked {} vs ideal {}",
            banked.makespan,
            ideal.makespan
        );
        // With one PE nothing is ever co-resident: no stall, identical run.
        let solo_ideal = simulate_e2e(&profiles, 1, 4.0, SchedulerKind::RoundRobin, uniform);
        let solo_banked = simulate_e2e(
            &profiles,
            1,
            4.0,
            SchedulerKind::RoundRobin,
            MemTopology::new(1, 8),
        );
        assert_eq!(solo_ideal, solo_banked);
    }

    #[test]
    fn more_channels_and_more_banks_never_slower() {
        let profiles = crate::schedule::power_law_profiles(96, 11);
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::ContentionAware] {
            let mut prev = f64::INFINITY;
            for channels in [1usize, 2, 4, 8, 16] {
                let run = simulate_e2e(&profiles, 8, 4.0, kind, MemTopology::new(channels, 8));
                assert!(
                    run.makespan <= prev * (1.0 + 1e-9),
                    "{}: channels={channels} slower ({} > {prev})",
                    kind.name(),
                    run.makespan
                );
                prev = run.makespan;
            }
            let mut prev = f64::INFINITY;
            for banks in [1usize, 2, 4, 8] {
                let run = simulate_e2e(&profiles, 8, 4.0, kind, MemTopology::new(4, banks));
                assert!(
                    run.makespan <= prev * (1.0 + 1e-9),
                    "{}: banks={banks} slower ({} > {prev})",
                    kind.name(),
                    run.makespan
                );
                prev = run.makespan;
            }
        }
    }

    #[test]
    fn busy_cycle_conservation_holds_under_banking() {
        let profiles = crate::schedule::power_law_profiles(64, 5);
        let run = simulate_e2e(
            &profiles,
            4,
            4.0,
            SchedulerKind::ContentionAware,
            MemTopology::new(4, 8),
        );
        let busy: f64 = run.per_pe_busy.iter().sum();
        let cluster: f64 = run.cluster_cycles.iter().sum();
        assert!((busy - cluster).abs() / busy.max(1.0) < 1e-9);
        for &b in &run.per_pe_busy {
            assert!(b <= run.makespan * (1.0 + 1e-9));
        }
    }

    #[test]
    fn imbalance_is_one_when_balanced() {
        let profiles: Vec<ClusterProfile> = (0..8).map(|_| task(100, 0)).collect();
        let run = simulate(&profiles, 4, 4.0, SchedulerKind::RoundRobin);
        let ratio = imbalance(&run.per_pe_busy);
        assert!((ratio - 1.0).abs() < 1e-9, "{ratio}");
        assert_eq!(imbalance(&[]), 1.0);
    }
}
