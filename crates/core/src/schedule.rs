//! Pluggable cluster-to-PE scheduling (the Figure 24 multi-PE axis).
//!
//! The fluid multi-PE model in [`crate::multi_pe`] works through a list of
//! per-cluster execution profiles on `pes` processing engines sharing one
//! memory channel. *Which* PE runs *which* cluster used to be hard-coded
//! round-robin; this module turns the assignment into a pluggable policy:
//!
//! * [`SchedulerKind::RoundRobin`] (`rr`) — static interleaving
//!   (`cluster i` on `PE i % pes`), the paper's implicit baseline;
//! * [`SchedulerKind::StaticLpt`] (`lpt`) — longest-processing-time bin
//!   packing over per-cluster standalone cycle estimates (the classic
//!   4/3-approximation), in the spirit of Accel-GCN's degree-sorted
//!   workload balancing;
//! * [`SchedulerKind::WorkStealing`] (`ws`) — event-driven greedy
//!   dispatch: whenever a PE finishes its cluster it pulls the heaviest
//!   pending one, with deterministic tie-breaking by cluster index;
//! * [`SchedulerKind::ContentionAware`] (`ca`) — like work-stealing, but
//!   the pending pool is split into memory-bound and compute-bound
//!   clusters and each dispatch tops up whichever class is
//!   under-represented among the clusters in execution — mixing the
//!   classes keeps part of the fleet off the shared channel at any
//!   instant. On a banked topology it also steers memory-bound clusters
//!   toward the least-contended channel.
//!
//! [`SchedulerKind::dispatcher`] builds each policy's per-simulation
//! [`Dispatcher`].
//!
//! Schedulers are dispatched by name through [`SchedulerKind`] — the value
//! set of the registry-wide `scheduler=rr|lpt|ws|ca` override — and every
//! engine carries a [`MultiPeConfig`] whose summary lands on the final
//! [`RunReport`](crate::RunReport). Under the default post-hoc execution
//! model scheduling is strictly *post-hoc* over the per-cluster profiles:
//! it can never change modeled work or traffic, only the multi-PE
//! makespan and per-PE utilization (the scheduler-invariance test battery
//! locks this in). Under the end-to-end model
//! ([`crate::exec_model`], `exec=e2e`) the same schedulers run *inside*
//! the execution loop and the resulting makespans are the per-phase cycle
//! counts themselves.

use std::collections::VecDeque;

use grow_sim::MemTopology;

use crate::multi_pe;
use crate::{ClusterProfile, MultiPeSummary, RunReport};

/// Canonical scheduler names, in registry order (`scheduler=` values).
pub const SCHEDULER_NAMES: [&str; 4] = ["rr", "lpt", "ws", "ca"];

/// Which cluster-to-PE scheduling policy the multi-PE model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Static round-robin interleaving (the paper's implicit baseline).
    #[default]
    RoundRobin,
    /// Static longest-processing-time bin packing.
    StaticLpt,
    /// Dynamic work-stealing (greedy event-driven dispatch).
    WorkStealing,
    /// Contention-aware dispatch: interleaves memory-bound and
    /// compute-bound clusters across the PEs.
    ContentionAware,
}

impl SchedulerKind {
    /// Every scheduler, in [`SCHEDULER_NAMES`] order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::StaticLpt,
        SchedulerKind::WorkStealing,
        SchedulerKind::ContentionAware,
    ];

    /// Parses a (case-insensitive) scheduler name. Accepts the canonical
    /// short names plus their spelled-out aliases.
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        match name.to_ascii_lowercase().as_str() {
            "rr" | "roundrobin" | "round-robin" => Some(SchedulerKind::RoundRobin),
            "lpt" | "static-lpt" | "staticlpt" => Some(SchedulerKind::StaticLpt),
            "ws" | "workstealing" | "work-stealing" => Some(SchedulerKind::WorkStealing),
            "ca" | "contention-aware" | "contentionaware" => Some(SchedulerKind::ContentionAware),
            _ => None,
        }
    }

    /// The canonical [`SCHEDULER_NAMES`] entry of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::StaticLpt => "lpt",
            SchedulerKind::WorkStealing => "ws",
            SchedulerKind::ContentionAware => "ca",
        }
    }

    /// Builds the dispatch state for one simulation of `profiles` on `pes`
    /// PEs, each entitled to `per_pe_bytes_per_cycle` of the memory system
    /// on average (the static policies and the classes use it for their
    /// standalone cycle estimates), with clusters homed on the channels of
    /// `topology`. Only `ca` reads the topology; on one channel it
    /// dispatches exactly as on the uniform pipe.
    pub fn dispatcher(
        &self,
        profiles: &[ClusterProfile],
        pes: usize,
        per_pe_bytes_per_cycle: f64,
        topology: MemTopology,
    ) -> Dispatcher {
        let weight: Vec<f64> = profiles
            .iter()
            .map(|p| standalone_cycles(p, per_pe_bytes_per_cycle))
            .collect();
        Dispatcher(match self {
            SchedulerKind::RoundRobin => {
                let mut queues = vec![VecDeque::new(); pes];
                for i in 0..profiles.len() {
                    queues[i % pes].push_back(i);
                }
                Policy::PerPe(queues)
            }
            SchedulerKind::StaticLpt => {
                let mut queues = vec![VecDeque::new(); pes];
                let mut loads = vec![0.0f64; pes];
                for i in heaviest_first((0..profiles.len()).collect(), &weight) {
                    let target = (0..pes)
                        .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite loads"))
                        .expect("at least one PE");
                    queues[target].push_back(i);
                    loads[target] += weight[i];
                }
                Policy::PerPe(queues)
            }
            SchedulerKind::WorkStealing => {
                Policy::Shared(heaviest_first((0..profiles.len()).collect(), &weight).into())
            }
            SchedulerKind::ContentionAware => Policy::ChannelAffinity(ChannelAffinity::new(
                profiles,
                weight,
                pes,
                per_pe_bytes_per_cycle,
                topology,
            )),
        })
    }
}

/// Per-simulation dispatch state, built by [`SchedulerKind::dispatcher`]
/// and queried by the fluid model every time a PE needs its next cluster.
/// Static policies precompute per-PE queues; dynamic policies decide at
/// dispatch time.
pub struct Dispatcher(Policy);

enum Policy {
    /// `rr` and `lpt`: one precomputed queue of cluster indices per PE.
    PerPe(Vec<VecDeque<usize>>),
    /// `ws`: one shared heaviest-first queue that any PE pulls from.
    Shared(VecDeque<usize>),
    /// `ca`: class balancing with channel-affinity placement.
    ChannelAffinity(ChannelAffinity),
}

impl Dispatcher {
    /// The next cluster index PE `pe` should execute, or `None` when the
    /// policy has no further work for it. Called once per PE at simulation
    /// start and again whenever that PE completes a cluster; completion
    /// ties are resolved in PE-index order by the fluid model, so dispatch
    /// is deterministic.
    pub fn next(&mut self, pe: usize) -> Option<usize> {
        match &mut self.0 {
            Policy::PerPe(queues) => queues[pe].pop_front(),
            Policy::Shared(pending) => pending.pop_front(),
            Policy::ChannelAffinity(ca) => ca.next(pe),
        }
    }
}

/// The standalone cycle estimate the policies order by: the cluster alone
/// on one PE with its fair bandwidth share (compute and transfer
/// overlapped).
fn standalone_cycles(p: &ClusterProfile, per_pe_bytes_per_cycle: f64) -> f64 {
    let mem = p.mem_bytes as f64 / per_pe_bytes_per_cycle;
    (p.compute_cycles as f64).max(mem)
}

/// `clusters` (in ascending index order) sorted by decreasing `weight`;
/// the sort is stable, so equal estimates keep ascending cluster index.
fn heaviest_first(mut clusters: Vec<usize>, weight: &[f64]) -> Vec<usize> {
    clusters.sort_by(|&a, &b| weight[b].partial_cmp(&weight[a]).expect("finite estimates"));
    clusters
}

/// Contention-aware dispatch (`ca`): like `ws`, whichever PE finishes
/// first pulls the next pending cluster — but the pending pool is split
/// into *memory-bound* clusters (bandwidth demand `mem_bytes /
/// compute_cycles` above the per-PE fair share) and *compute-bound* ones,
/// each ordered heaviest-first, and each dispatch hands out the class that
/// is under-represented among the clusters in execution. Mixing the
/// classes keeps part of the fleet off the shared channel at any instant,
/// which greedy heaviest-first dispatch misses when it lines several
/// memory-bound clusters up (the documented `ws`-loses-to-`rr`
/// contention-alignment cases).
///
/// A memory-bound dispatch also places the cluster: the candidate whose
/// home channel has the fewest in-flight memory-bound clusters wins (which
/// spreads the fleet across the channels); among equals, one homed on the
/// PE's previous channel (prefetch-friendly row reuse); then the
/// heaviest-first order. Every candidate on one channel ties on both
/// criteria, so the pool is kept as one heaviest-first queue per home
/// channel and a pick compares channel heads. On one channel that is the
/// queue head — plain class balancing.
struct ChannelAffinity {
    /// Pending memory-bound clusters per home channel, each queue in
    /// heaviest-first order, as `(rank in the global heaviest-first
    /// order, cluster)`.
    mem: Vec<VecDeque<(usize, usize)>>,
    /// Pending compute-bound clusters, heaviest-first (ties by index).
    compute: VecDeque<usize>,
    /// Standalone cycle estimate per cluster (head-to-head tie-breaks).
    weight: Vec<f64>,
    topology: MemTopology,
    /// Class and home channel of each PE's in-execution cluster
    /// (`Some((true, ch))` = memory-bound on channel `ch`).
    running: Vec<Option<(bool, usize)>>,
    /// In-execution memory-bound clusters per channel, and in total.
    mem_on: Vec<usize>,
    mem_running: usize,
    compute_running: usize,
    /// Home channel of each PE's previous cluster.
    last_channel: Vec<Option<usize>>,
}

impl ChannelAffinity {
    fn new(
        profiles: &[ClusterProfile],
        weight: Vec<f64>,
        pes: usize,
        per_pe_bytes_per_cycle: f64,
        topology: MemTopology,
    ) -> Self {
        // Memory-bound: the cluster wants more than its fair bandwidth
        // share while computing (demand mem_bytes/compute_cycles > B).
        let (mem_pool, compute): (Vec<usize>, Vec<usize>) = (0..profiles.len()).partition(|&i| {
            profiles[i].mem_bytes as f64
                > profiles[i].compute_cycles as f64 * per_pe_bytes_per_cycle
        });
        let mut mem = vec![VecDeque::new(); topology.channels];
        for (rank, cluster) in heaviest_first(mem_pool, &weight).into_iter().enumerate() {
            mem[topology.home_channel(cluster)].push_back((rank, cluster));
        }
        ChannelAffinity {
            mem,
            compute: heaviest_first(compute, &weight).into(),
            weight,
            topology,
            running: vec![None; pes],
            mem_on: vec![0; topology.channels],
            mem_running: 0,
            compute_running: 0,
            last_channel: vec![None; pes],
        }
    }

    fn next(&mut self, pe: usize) -> Option<usize> {
        // The PE asking has just finished (or not started) its cluster.
        match self.running[pe].take() {
            Some((true, ch)) => {
                self.mem_on[ch] -= 1;
                self.mem_running -= 1;
            }
            Some((false, _)) => self.compute_running -= 1,
            None => {}
        }
        // The heaviest pending memory-bound cluster heads one channel.
        let mem_head = self.mem.iter().filter_map(|q| q.front()).min();
        let pick_mem = match (mem_head, self.compute.front()) {
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
            (Some(&(_, m)), Some(&c)) => {
                if self.mem_running != self.compute_running {
                    // Top up the under-represented class.
                    self.mem_running < self.compute_running
                } else {
                    // Balanced mix: drain the heavier head first
                    // (LPT-style), ties toward the memory-bound side so
                    // transfers start as early as possible.
                    self.weight[m] >= self.weight[c]
                }
            }
        };
        let cluster = if pick_mem {
            let last = self.last_channel[pe];
            let (_, _, _, ch) = (0..self.mem.len())
                .filter_map(|ch| {
                    let &(rank, _) = self.mem[ch].front()?;
                    Some((self.mem_on[ch], usize::from(last != Some(ch)), rank, ch))
                })
                .min()
                .expect("a memory-bound cluster is pending");
            self.mem_on[ch] += 1;
            self.mem_running += 1;
            self.mem[ch].pop_front().expect("non-empty channel").1
        } else {
            self.compute_running += 1;
            self.compute
                .pop_front()
                .expect("a compute-bound cluster is pending")
        };
        let home = self.topology.home_channel(cluster);
        self.running[pe] = Some((pick_mem, home));
        self.last_channel[pe] = Some(home);
        Some(cluster)
    }
}

/// Multi-PE execution settings carried by every engine configuration: how
/// many PEs the run targets, which scheduler assigns clusters to them,
/// which execution model turns the per-cluster timelines into cycle
/// counts, and how the shared memory system is organized into channels
/// and banks. Registry overrides: `pes=N`, `scheduler=rr|lpt|ws|ca`,
/// `exec=post_hoc|e2e`, `channels=N`, `banks=N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiPeConfig {
    /// Processing engines (memory bandwidth scales proportionally).
    /// Default 1 — the paper's single-PE configuration.
    pub pes: usize,
    /// Cluster-to-PE scheduling policy.
    pub scheduler: SchedulerKind,
    /// Execution model: post-hoc projection (default) or end-to-end
    /// multi-PE composition (see [`crate::exec_model`]).
    pub exec: crate::exec_model::ExecModelKind,
    /// Channel/bank organization the end-to-end model contends on. The
    /// default `1x1` is the idealized shared pipe: it charges zero bank
    /// conflict. Any other topology charges conflict stalls between
    /// memory-active clusters homed on one channel. Ignored by the
    /// post-hoc projection, which always runs on the uniform pipe.
    pub topology: MemTopology,
}

impl Default for MultiPeConfig {
    fn default() -> Self {
        MultiPeConfig {
            pes: 1,
            scheduler: SchedulerKind::RoundRobin,
            exec: crate::exec_model::ExecModelKind::PostHoc,
            topology: MemTopology::default(),
        }
    }
}

/// Projects a finished engine report onto the configured multi-PE
/// arrangement: the fluid model runs the report's per-cluster profiles
/// through `cfg.scheduler` on `cfg.pes` PEs (total bandwidth
/// `pes * per_pe_bytes_per_cycle`) and the result is summarized for the
/// report. Pure post-processing — no phase counter changes.
pub fn summarize(
    report: &RunReport,
    cfg: &MultiPeConfig,
    per_pe_bytes_per_cycle: f64,
) -> MultiPeSummary {
    let profiles = report.cluster_profiles();
    let run = multi_pe::simulate(&profiles, cfg.pes, per_pe_bytes_per_cycle, cfg.scheduler);
    MultiPeSummary {
        scheduler: run.scheduler,
        pes: run.pes,
        makespan: run.makespan,
        imbalance: multi_pe::imbalance(&run.per_pe_busy),
        per_pe_busy: run.per_pe_busy,
    }
}

/// Generates a synthetic power-law cluster workload for scheduler studies:
/// `n` cluster profiles whose sizes follow a heavy-tailed (Pareto-like)
/// distribution, alternating between compute-bound and memory-bound
/// mixtures the way partitioned GCN clusters do. Deterministic in `seed`.
pub fn power_law_profiles(n: usize, seed: u64) -> Vec<ClusterProfile> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next_u64 = move || {
        // splitmix64 — self-contained so the core crate stays
        // dependency-free.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            // Pareto(alpha = 1.2) cluster size in [1, 4096] work units.
            let u = (next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let size = (1.0 / (1.0 - u).max(1e-9)).powf(1.0 / 1.2).min(4096.0);
            // Memory intensity: bytes moved per compute cycle, spanning
            // clearly compute-bound clusters to memory-bound ones that
            // oversubscribe a Table III-like per-PE bandwidth share.
            let intensity = 0.5 + 5.5 * ((next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            let compute = (size * 100.0) as u64 + 1;
            let mem_bytes = (compute as f64 * intensity) as u64 + 1;
            ClusterProfile {
                compute_cycles: compute,
                mem_bytes,
                // A plausible detailed standalone timeline for end-to-end
                // scheduler studies: the overlap estimate at a Table
                // III-like 4 B/cycle fair share plus a ~12% serialization
                // residue (latency tails, FIFO ordering).
                cycles: (compute.max(mem_bytes / 4) as f64 * 1.125) as u64,
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
    fn kind_round_trips_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            SchedulerKind::parse("WorkStealing"),
            Some(SchedulerKind::WorkStealing)
        );
        assert_eq!(
            SchedulerKind::parse("Round-Robin"),
            Some(SchedulerKind::RoundRobin)
        );
        assert_eq!(SchedulerKind::parse("bogus"), None);
        assert_eq!(SchedulerKind::ALL.len(), SCHEDULER_NAMES.len());
    }

    #[test]
    fn round_robin_interleaves() {
        let profiles: Vec<ClusterProfile> = (0..5).map(|i| task(i + 1, 0)).collect();
        let mut d = SchedulerKind::RoundRobin.dispatcher(&profiles, 2, 1.0, MemTopology::default());
        assert_eq!(d.next(0), Some(0));
        assert_eq!(d.next(1), Some(1));
        assert_eq!(d.next(0), Some(2));
        assert_eq!(d.next(1), Some(3));
        assert_eq!(d.next(1), None);
        assert_eq!(d.next(0), Some(4));
        assert_eq!(d.next(0), None);
    }

    #[test]
    fn lpt_packs_longest_first() {
        // Durations 10, 1, 1, 1, 9 on 2 PEs: LPT puts 10 alone on PE 0 and
        // the rest (9 + 1 + 1 + 1) on PE 1 until loads cross.
        let profiles = [task(10, 0), task(1, 0), task(1, 0), task(1, 0), task(9, 0)];
        let mut d = SchedulerKind::StaticLpt.dispatcher(&profiles, 2, 1.0, MemTopology::default());
        assert_eq!(d.next(0), Some(0), "longest cluster first on PE 0");
        assert_eq!(d.next(1), Some(4), "second longest on PE 1");
        // Unit tasks fill up the lighter bin first (9+1), then the load
        // tie at 10 breaks toward PE 0, then back to PE 1.
        assert_eq!(d.next(1), Some(1));
        assert_eq!(d.next(0), Some(2));
        assert_eq!(d.next(1), Some(3));
        assert_eq!(d.next(0), None);
    }

    #[test]
    fn work_stealing_hands_out_in_cluster_order() {
        let profiles: Vec<ClusterProfile> = (0..4).map(|_| task(1, 1)).collect();
        let mut d =
            SchedulerKind::WorkStealing.dispatcher(&profiles, 2, 1.0, MemTopology::default());
        // Any PE asking gets the lowest pending index.
        assert_eq!(d.next(1), Some(0));
        assert_eq!(d.next(0), Some(1));
        assert_eq!(d.next(1), Some(2));
        assert_eq!(d.next(1), Some(3));
        assert_eq!(d.next(0), None);
    }

    #[test]
    fn contention_aware_interleaves_classes() {
        // 2 memory-bound (0, 1) and 2 compute-bound (2, 3) clusters at
        // B = 4: dispatch must alternate the classes across the PEs.
        let profiles = [task(10, 4000), task(10, 2000), task(900, 40), task(800, 40)];
        let mut d =
            SchedulerKind::ContentionAware.dispatcher(&profiles, 2, 4.0, MemTopology::default());
        // Balanced (nothing running): heavier head wins, ties toward the
        // memory-bound side — cluster 0 (standalone 1000) over 2 (900).
        assert_eq!(d.next(0), Some(0), "heaviest memory-bound first");
        assert_eq!(d.next(1), Some(2), "then top up the compute side");
        // PE 0 finishes: one compute-bound still running, so it takes the
        // next memory-bound cluster, and so on.
        assert_eq!(d.next(0), Some(1));
        assert_eq!(d.next(1), Some(3));
        assert_eq!(d.next(0), None);
        assert_eq!(d.next(1), None);
    }

    #[test]
    fn contention_aware_splits_grouped_classes() {
        // All memory-bound clusters first in index order, equal standalone
        // estimates: heaviest-first (ws) and round-robin both line the
        // memory-bound clusters up against each other on the channel; ca
        // pairs each with a compute-bound cluster instead.
        let mut profiles: Vec<ClusterProfile> = Vec::new();
        profiles.extend((0..8).map(|_| task(10, 4000)));
        profiles.extend((0..8).map(|_| task(1000, 40)));
        for pes in [2usize, 4] {
            let rr = multi_pe::simulate(&profiles, pes, 4.0, SchedulerKind::RoundRobin);
            let ws = multi_pe::simulate(&profiles, pes, 4.0, SchedulerKind::WorkStealing);
            let ca = multi_pe::simulate(&profiles, pes, 4.0, SchedulerKind::ContentionAware);
            assert!(
                ca.makespan < 0.8 * rr.makespan && ca.makespan < 0.8 * ws.makespan,
                "pes={pes}: ca {} vs rr {} / ws {}",
                ca.makespan,
                rr.makespan,
                ws.makespan
            );
        }
    }

    #[test]
    fn power_law_profiles_are_deterministic_and_heavy_tailed() {
        let a = power_law_profiles(256, 9);
        let b = power_law_profiles(256, 9);
        assert_eq!(a, b, "seeded generation is deterministic");
        assert_ne!(a, power_law_profiles(256, 10), "seed matters");
        let max = a.iter().map(|p| p.compute_cycles).max().unwrap();
        let mean = a.iter().map(|p| p.compute_cycles).sum::<u64>() as f64 / a.len() as f64;
        assert!(
            max as f64 > 5.0 * mean,
            "heavy tail expected: max {max} vs mean {mean}"
        );
    }

    #[test]
    fn summarize_matches_direct_simulation() {
        use crate::{prepare, Accelerator, GrowEngine, PartitionStrategy};
        let w = grow_model::DatasetKey::Cora
            .spec()
            .scaled_to(400)
            .instantiate(3);
        let p = prepare(
            &w,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            4096,
        );
        let report = GrowEngine::default().run(&p);
        let cfg = MultiPeConfig {
            pes: 4,
            scheduler: SchedulerKind::WorkStealing,
            ..MultiPeConfig::default()
        };
        let summary = summarize(&report, &cfg, 32.0);
        let direct = multi_pe::simulate(&report.cluster_profiles(), 4, 32.0, cfg.scheduler);
        assert_eq!(summary.makespan, direct.makespan);
        assert_eq!(summary.per_pe_busy, direct.per_pe_busy);
        assert_eq!(summary.scheduler, "ws");
        assert_eq!(summary.pes, 4);
    }

    /// Reference `ca` dispatch for one channel: class balancing that always
    /// takes the head of one heaviest-first memory-bound queue.
    struct ClassedQueues {
        mem: VecDeque<usize>,
        compute: VecDeque<usize>,
        weight: Vec<f64>,
        running: Vec<Option<bool>>,
    }

    impl ClassedQueues {
        fn new(profiles: &[ClusterProfile], pes: usize, per_pe_bytes_per_cycle: f64) -> Self {
            let (mem, compute, weight) = scan_pools(profiles, per_pe_bytes_per_cycle);
            ClassedQueues {
                mem: mem.into(),
                compute: compute.into(),
                weight,
                running: vec![None; pes],
            }
        }

        fn next(&mut self, pe: usize) -> Option<usize> {
            self.running[pe] = None;
            let mem_running = self.running.iter().flatten().filter(|&&m| m).count();
            let compute_running = self.running.iter().flatten().count() - mem_running;
            let pick_mem = match (self.mem.front(), self.compute.front()) {
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
                (Some(&m), Some(&c)) => {
                    if mem_running != compute_running {
                        mem_running < compute_running
                    } else {
                        self.weight[m] >= self.weight[c]
                    }
                }
            };
            let next = if pick_mem {
                self.mem.pop_front()
            } else {
                self.compute.pop_front()
            };
            if next.is_some() {
                self.running[pe] = Some(pick_mem);
            }
            next
        }
    }

    /// Reference `ca` dispatch on any topology: every memory-bound pick
    /// scans the whole pending pool for the least-conflicted candidate.
    struct AffinityClassedQueues {
        mem: VecDeque<usize>,
        compute: VecDeque<usize>,
        weight: Vec<f64>,
        home: Vec<usize>,
        running: Vec<Option<(bool, usize)>>,
        last_channel: Vec<Option<usize>>,
    }

    impl AffinityClassedQueues {
        fn new(
            profiles: &[ClusterProfile],
            pes: usize,
            per_pe_bytes_per_cycle: f64,
            topology: MemTopology,
        ) -> Self {
            let (mem, compute, weight) = scan_pools(profiles, per_pe_bytes_per_cycle);
            AffinityClassedQueues {
                mem: mem.into(),
                compute: compute.into(),
                weight,
                home: (0..profiles.len())
                    .map(|i| topology.home_channel(i))
                    .collect(),
                running: vec![None; pes],
                last_channel: vec![None; pes],
            }
        }

        fn next(&mut self, pe: usize) -> Option<usize> {
            self.running[pe] = None;
            let mem_running = self
                .running
                .iter()
                .flatten()
                .filter(|&&(is_mem, _)| is_mem)
                .count();
            let compute_running = self.running.iter().flatten().count() - mem_running;
            let pick_mem = match (self.mem.front(), self.compute.front()) {
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
                (Some(&m), Some(&c)) => {
                    if mem_running != compute_running {
                        mem_running < compute_running
                    } else {
                        self.weight[m] >= self.weight[c]
                    }
                }
            };
            let next = if pick_mem {
                let conflicts = |cluster: usize| {
                    self.running
                        .iter()
                        .flatten()
                        .filter(|&&(is_mem, ch)| is_mem && ch == self.home[cluster])
                        .count()
                };
                let best = self
                    .mem
                    .iter()
                    .enumerate()
                    .min_by_key(|&(pos, &cluster)| {
                        let affinity_miss =
                            usize::from(self.last_channel[pe] != Some(self.home[cluster]));
                        (conflicts(cluster), affinity_miss, pos)
                    })
                    .map(|(pos, _)| pos)
                    .expect("front checked non-empty");
                self.mem.remove(best)
            } else {
                self.compute.pop_front()
            };
            if let Some(cluster) = next {
                self.running[pe] = Some((pick_mem, self.home[cluster]));
                self.last_channel[pe] = Some(self.home[cluster]);
            }
            next
        }
    }

    /// The oracles' own pool split: filter by class in index order, then a
    /// stable heaviest-first sort of each class.
    fn scan_pools(
        profiles: &[ClusterProfile],
        per_pe_bytes_per_cycle: f64,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let weight: Vec<f64> = profiles
            .iter()
            .map(|p| standalone_cycles(p, per_pe_bytes_per_cycle))
            .collect();
        let is_mem = |p: &ClusterProfile| {
            p.mem_bytes as f64 > p.compute_cycles as f64 * per_pe_bytes_per_cycle
        };
        let mut mem: Vec<usize> = (0..profiles.len())
            .filter(|&i| is_mem(&profiles[i]))
            .collect();
        let mut compute: Vec<usize> = (0..profiles.len())
            .filter(|&i| !is_mem(&profiles[i]))
            .collect();
        mem.sort_by(|&a, &b| weight[b].partial_cmp(&weight[a]).expect("finite estimates"));
        compute.sort_by(|&a, &b| weight[b].partial_cmp(&weight[a]).expect("finite estimates"));
        (mem, compute, weight)
    }

    #[test]
    fn channel_indexed_ca_pick_matches_the_scanning_oracles() {
        // Random completion orders: each step a seeded random PE asks for
        // work, as if its cluster had just finished, until the pools run
        // dry.
        let topologies = [(1, 1), (1, 8), (2, 1), (3, 4), (4, 8), (16, 2)];
        let mut state = 0x5eed_u64;
        let mut next_u64 = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (n, seed) in [(1usize, 1u64), (17, 2), (96, 3), (257, 4)] {
            let profiles = power_law_profiles(n, seed);
            for (channels, banks) in topologies {
                let topology = MemTopology::new(channels, banks);
                for pes in [1usize, 2, 3, 4, 8, 16] {
                    let kind = SchedulerKind::ContentionAware;
                    let mut indexed = kind.dispatcher(&profiles, pes, 4.0, topology);
                    let mut scan = AffinityClassedQueues::new(&profiles, pes, 4.0, topology);
                    let mut uniform =
                        (channels == 1).then(|| ClassedQueues::new(&profiles, pes, 4.0));
                    let mut handed = 0usize;
                    loop {
                        let pe = (next_u64() % pes as u64) as usize;
                        let got = indexed.next(pe);
                        let at = format!("n={n} {channels}x{banks} pes={pes} step {handed}");
                        assert_eq!(got, scan.next(pe), "scan oracle, {at}");
                        if let Some(uniform) = uniform.as_mut() {
                            assert_eq!(got, uniform.next(pe), "uniform oracle, {at}");
                        }
                        if got.is_none() {
                            break;
                        }
                        handed += 1;
                    }
                    assert_eq!(handed, n, "every cluster dispatched exactly once");
                }
            }
        }
    }
}
