//! The GROW accelerator model (Section V of the paper).
//!
//! GROW executes both GCN phases on one unified row-stationary SpDeGEMM
//! engine (Figure 8): a 16-lane MAC vector unit, an I-BUF for the CSR
//! stream of the sparse LHS, an I-BUF_dense split into the HDN cache and a
//! CAM-based HDN ID list, an O-BUF for in-flight output rows, and a DMA
//! unit. Aggregation walks the adjacency rows (Gustavson's algorithm,
//! Figure 9(b)); each non-zero's column is looked up in the HDN ID list —
//! hits read the pinned RHS row from the HDN cache, misses allocate
//! LDN/LHS-ID table entries and run ahead across up to `runahead` output
//! rows (Figures 15/16).
//!
//! Clusters are simulated independently through the shared
//! [`pipeline`](crate::pipeline) harness — in parallel across threads,
//! merged deterministically in cluster order — drawing their per-cluster
//! state (HDN cache, runahead tables, window, probe plans) from a
//! [`ScratchArena`] so the steady-state simulation allocates nothing.
//!
//! # The aggregation hot path: plan, then replay
//!
//! Because the pinned HDN set is fixed for a whole cluster (loaded once in
//! the prologue, never mutated by probes), each non-zero's hit/miss
//! outcome is a pure per-row function of the adjacency and the pinned set.
//! The cluster simulation therefore runs in two phases:
//!
//! 1. **Plan** (data-parallel): walk each row's column slice once and emit
//!    a compact probe plan — runs of consecutive hits collapsed to one
//!    entry, misses recorded individually in order. Pure per-row work,
//!    which is what allows *intra-cluster row-range sharding*: clusters
//!    larger than [`GrowConfig::shard_rows`] split into deterministic row
//!    ranges fanned across threads, and the ordered concatenation of the
//!    shard plans is — by construction — the plan an unsharded walk
//!    produces.
//! 2. **Replay** (sequential): drive the cycle-accurate machinery (FIFO
//!    channel, MAC array, runahead tables, in-order retirement window)
//!    over the plan. A run of `h` hits issues as one
//!    `scalar_vector_bulk(now, f, h)`, which is arithmetically identical
//!    to `h` back-to-back `scalar_vector` calls — `now` cannot change
//!    between consecutive hits — so the replay is bit-identical to the
//!    original per-probe loop while doing per-*event* rather than
//!    per-nonzero work on the (dominant) hit traffic.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use grow_sim::{
    CacheStats, Cycle, Dram, DramConfig, FaultPlan, IssueOutcome, LruRowCache, MacArray,
    PinnedRowCache, RunaheadTables, ScratchArena, TrafficClass, Waiter, ELEMENT_BYTES,
    HDN_ID_BYTES, INDEX_BYTES,
};
use grow_sparse::{CsrPattern, RowMajorSparse};

use crate::exec_model::ExecModel;
use crate::pipeline::{self, PhaseCtx};
use crate::plan::{self, PlanBuffer, ShardRows, ShardSpec};
use crate::{Accelerator, LayerReport, PhaseKind, PhaseReport, PreparedWorkload, RunReport};

/// HDN cache replacement policy (the Section VIII discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Statically pin the per-cluster top-N high-degree nodes (the paper's
    /// proposal, found to yield "the most robust speedups").
    Pinned,
    /// Demand-filled LRU (the alternative the paper rejects). The demand
    /// cache persists across cluster boundaries — it has no hardware
    /// reason to flush the way the pinned set is swapped — so this mode
    /// simulates clusters serially instead of in parallel.
    Lru,
}

/// GROW configuration (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowConfig {
    /// MAC lanes (Table III: 16 MACs, 64-bit).
    pub mac_lanes: usize,
    /// HDN cache capacity in bytes (Table III: 512 KB).
    pub hdn_cache_bytes: u64,
    /// HDN ID list entries (Table III: 12 KB at 3 B/entry = 4096).
    pub hdn_id_entries: usize,
    /// I-BUF_sparse capacity in bytes (Table III: 12 KB).
    pub ibuf_sparse_bytes: u64,
    /// O-BUF_dense capacity in bytes (Table III: 2 KB).
    pub obuf_bytes: u64,
    /// Runahead execution degree: output rows concurrently in flight
    /// (Table III: 16).
    pub runahead: usize,
    /// LDN table entries (Section V-D: M = 16).
    pub ldn_entries: usize,
    /// LHS-ID table entries (Section V-D: N = 64).
    pub lhs_id_entries: usize,
    /// Off-chip memory parameters (Table III: 128 GB/s).
    pub dram: DramConfig,
    /// Enables HDN caching (disable to reproduce the "GROW w/o HDN
    /// caching" bar of Figure 19).
    pub hdn_caching: bool,
    /// Replacement policy of the HDN cache.
    pub replacement: ReplacementPolicy,
    /// Intra-cluster row-range sharding of the aggregation probe-plan
    /// pass: clusters with more rows than the (fixed or auto-derived)
    /// threshold split into threshold-row ranges fanned across worker
    /// threads. The merged result is bit-identical to an unsharded run at
    /// any setting — this is purely a simulator-throughput knob for huge
    /// clusters (e.g. Reddit's 4096-node grain).
    pub shard_rows: ShardRows,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
    /// Deterministic fault-injection plan (the uniform `fault=` override;
    /// [`FaultPlan::OFF`] — the default — leaves reports bit-identical to
    /// a build without fault support).
    pub fault: FaultPlan,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            mac_lanes: 16,
            hdn_cache_bytes: 512 * 1024,
            hdn_id_entries: 4096,
            ibuf_sparse_bytes: 12 * 1024,
            obuf_bytes: 2 * 1024,
            runahead: 16,
            ldn_entries: 16,
            lhs_id_entries: 64,
            dram: DramConfig::default(),
            hdn_caching: true,
            replacement: ReplacementPolicy::Pinned,
            shard_rows: ShardRows::Off,
            multi_pe: crate::schedule::MultiPeConfig::default(),
            fault: FaultPlan::OFF,
        }
    }
}

/// One step of a row's probe plan (plan-phase output, replay-phase input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanOp {
    /// A run of consecutive HDN-cache hits.
    Hits(u32),
    /// One cache-missing RHS row id, to be issued through the runahead
    /// tables.
    Miss(u32),
}

/// One row of the probe plan: its non-zero count and how many [`PlanOp`]s
/// belong to it in the flat op stream.
#[derive(Debug, Clone, Copy, Default)]
struct RowPlan {
    nnz: u32,
    ops: u32,
}

/// Reusable probe-plan buffers: the plan-phase output for one row range.
#[derive(Debug, Default)]
struct PlanBuf {
    rows: Vec<RowPlan>,
    ops: Vec<PlanOp>,
    hits: u64,
    misses: u64,
}

impl PlanBuffer for PlanBuf {
    fn clear(&mut self) {
        self.rows.clear();
        self.ops.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

impl PlanBuf {
    /// Ordered merge of a shard's plan onto this one.
    fn absorb(&mut self, shard: &PlanBuf) {
        self.rows.extend_from_slice(&shard.rows);
        self.ops.extend_from_slice(&shard.ops);
        self.hits += shard.hits;
        self.misses += shard.misses;
    }
}

/// A retained aggregation plan for one cluster, replayed by later layers
/// when the pinned set (keyed by its `take` prefix length) matches.
#[derive(Debug)]
struct CachedPlan {
    take: usize,
    plan: PlanBuf,
}

/// Builds the probe plan for `rows`: a pure per-row function of the
/// adjacency structure and the (immutable) pinned set, so any row-range
/// partition of a cluster concatenates to the same plan as one pass.
/// `pinned` is `None` when HDN caching is disabled — every non-zero is
/// then an uncached fetch and no probe statistics accrue.
fn plan_rows(
    adjacency: &CsrPattern,
    rows: Range<usize>,
    pinned: Option<&PinnedRowCache>,
    out: &mut PlanBuf,
) {
    for slice in adjacency.row_slices(rows) {
        let ops_before = out.ops.len();
        match pinned {
            Some(pinned) => {
                let mut run = 0u32;
                for &k in slice {
                    if pinned.peek(k) {
                        run += 1;
                    } else {
                        if run > 0 {
                            out.ops.push(PlanOp::Hits(run));
                            out.hits += run as u64;
                            run = 0;
                        }
                        out.ops.push(PlanOp::Miss(k));
                        out.misses += 1;
                    }
                }
                if run > 0 {
                    out.ops.push(PlanOp::Hits(run));
                    out.hits += run as u64;
                }
            }
            None => out.ops.extend(slice.iter().map(|&k| PlanOp::Miss(k))),
        }
        out.rows.push(RowPlan {
            nnz: slice.len() as u32,
            ops: (out.ops.len() - ops_before) as u32,
        });
    }
}

/// Per-worker scratch of the aggregation cluster path, recycled through a
/// [`ScratchArena`]: every field is fully re-initialized at cluster start
/// (`reset`/`clear`), never reconstructed.
#[derive(Debug, Default)]
struct GrowScratch {
    pinned: PinnedRowCache,
    tables: RunaheadTables,
    /// Zero-capacity stand-in for [`GrowEngine::drain_one`]'s LRU slot in
    /// the pinned/no-cache modes (never probed or filled there).
    lru_dummy: LruRowCache,
    window: VecDeque<u32>,
    pending: Vec<u32>,
    plan: PlanBuf,
}

/// The GROW accelerator timing model.
#[derive(Debug, Clone, Default)]
pub struct GrowEngine {
    config: GrowConfig,
}

impl GrowEngine {
    /// Creates an engine with an explicit configuration.
    pub fn new(config: GrowConfig) -> Self {
        GrowEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GrowConfig {
        &self.config
    }

    /// HDN cache capacity in RHS rows for an `f`-wide dense matrix.
    fn cache_rows(&self, f: usize) -> usize {
        (self.config.hdn_cache_bytes / (f as u64 * ELEMENT_BYTES)) as usize
    }

    /// Simulates the combination phase `X * W`. `W` (f_in x f_out) is
    /// pinned on-chip — every Table I configuration fits in the 512 KB
    /// I-BUF_dense; larger weight matrices are processed in column chunks.
    fn run_combination(
        &self,
        model: &ExecModel,
        x: &RowMajorSparse<'_>,
        f_out: usize,
        clusters: &[Range<usize>],
    ) -> PhaseReport {
        let cfg = &self.config;
        let f_in = x.cols();
        let mut phase = PhaseReport::new(PhaseKind::Combination);

        // Column-chunk W so each chunk fits in the dense buffer.
        let w_row_bytes = f_out as u64 * ELEMENT_BYTES;
        let w_bytes = f_in as u64 * w_row_bytes;
        let passes = w_bytes.div_ceil(cfg.hdn_cache_bytes).max(1) as usize;
        let chunk_f = f_out.div_ceil(passes);

        for pass in 0..passes {
            let this_f = chunk_f.min(f_out.saturating_sub(pass * chunk_f));
            if this_f == 0 {
                break;
            }
            // Prologue: preload the W chunk — contiguous when it is the
            // whole matrix, otherwise one strided read per W row.
            let mut pre = PhaseCtx::new(PhaseKind::Combination, cfg.dram, cfg.mac_lanes);
            pre.now = if passes == 1 {
                let done = pre.dram.read_stream(0, w_bytes, TrafficClass::Weights);
                pre.dram.round_burst(w_bytes, TrafficClass::Weights);
                done
            } else {
                pre.dram.read_many(
                    0,
                    f_in as u64,
                    this_f as u64 * ELEMENT_BYTES,
                    TrafficClass::Weights,
                )
            };
            pre.report.sram_writes_8b += f_in as u64 * this_f as u64;
            phase.absorb_sequential(pre.finish());

            // Stream X rows cluster by cluster; every non-zero hits the
            // on-chip W.
            let clustered =
                pipeline::run_clusters(model, PhaseKind::Combination, clusters, |_, cluster| {
                    let mut ctx = PhaseCtx::new(PhaseKind::Combination, cfg.dram, cfg.mac_lanes);
                    let mut burst = 0u64;
                    let mut total_nnz = 0u64;
                    for row in cluster {
                        let nnz = x.row_nnz(row) as u64;
                        if nnz == 0 {
                            continue;
                        }
                        let stream = nnz * (ELEMENT_BYTES + INDEX_BYTES) + INDEX_BYTES;
                        ctx.dram.read_stream(0, stream, TrafficClass::LhsSparse);
                        burst += stream;
                        total_nnz += nnz;
                        ctx.report.sram_reads_8b += nnz * (1 + this_f as u64); // X elem + W row
                        ctx.report.sram_writes_8b += nnz * this_f as u64; // O-BUF accumulate
                                                                          // Output row write-back for this chunk.
                        ctx.dram
                            .write(0, this_f as u64 * ELEMENT_BYTES, TrafficClass::Output);
                        ctx.report.sram_reads_8b += this_f as u64;
                    }
                    // All MAC issue gates are cycle 0 and the MAC array is
                    // pure integer state independent of the channel, so
                    // one merged bulk call is bit-exact versus the
                    // per-row calls it replaces.
                    ctx.mac.scalar_vector_bulk(0, this_f, total_nnz);
                    ctx.dram.round_burst(burst, TrafficClass::LhsSparse);
                    ctx.finish_cluster()
                });
            phase.absorb_sequential(clustered);
        }
        phase
    }

    /// Simulates the aggregation phase `A * XW` with HDN caching and
    /// multi-row-stationary runahead execution. Each cluster runs in its
    /// own context (prologue preload, runahead tables, window, cache) —
    /// they were already drained and re-pinned at cluster boundaries, which
    /// is exactly what makes them independent.
    fn run_aggregation(
        &self,
        model: &ExecModel,
        workload: &PreparedWorkload,
        f_out: usize,
        scratch: &ScratchArena<GrowScratch>,
        shard_pool: &ScratchArena<PlanBuf>,
        plan_store: Option<&[OnceLock<CachedPlan>]>,
    ) -> PhaseReport {
        let cfg = &self.config;

        if matches!(cfg.replacement, ReplacementPolicy::Lru) {
            // The demand-filled LRU study (Section VIII): a demand cache
            // has no hardware reason to flush at cluster boundaries the
            // way the pinned set is swapped, so the cache is shared across
            // clusters — which also means the clusters are *not*
            // independent and must run serially. Only the paper's default
            // pinned mode gets the parallel/planned path. (The end-to-end
            // model still composes the serially-simulated per-cluster
            // timelines; cross-cluster cache state is an approximation
            // this study accepts.)
            let n = workload.adjacency.rows();
            let mut lru = LruRowCache::new(self.cache_rows(f_out), n);
            let partials: Vec<PhaseReport> = workload
                .clusters
                .iter()
                .map(|cluster| {
                    self.aggregate_cluster_lru(workload, f_out, cluster.clone(), &mut lru)
                })
                .collect();
            return model.compose(PhaseKind::Aggregation, partials);
        }

        // Resolve the sharding spec once per phase (`auto` scans the
        // cluster-size statistics), not once per cluster.
        let spec = cfg.shard_rows.spec(workload);
        pipeline::run_clusters_scratched(
            model,
            PhaseKind::Aggregation,
            &workload.clusters,
            scratch,
            |s, ci, cluster| {
                let cell = plan_store.map(|store| &store[ci]);
                self.aggregate_cluster(workload, f_out, ci, cluster, spec, s, shard_pool, cell)
            },
        )
    }

    /// Simulates one cluster of the aggregation phase in an isolated
    /// context (pinned or no-cache modes): plan phase — sharded across
    /// (nnz-balanced) row ranges when the cluster exceeds the threshold,
    /// and produced *ahead* of the replay through a bounded-depth queue —
    /// then sequential cycle-accurate replay in range order. All working
    /// state comes from `scratch` and is recycled. When `cell` is given,
    /// the merged plan is retained there so later layers with the same
    /// pinned set replay it without re-planning.
    #[allow(clippy::too_many_arguments)]
    fn aggregate_cluster(
        &self,
        workload: &PreparedWorkload,
        f_out: usize,
        ci: usize,
        cluster: Range<usize>,
        spec: ShardSpec,
        scratch: &mut GrowScratch,
        shard_pool: &ScratchArena<PlanBuf>,
        cell: Option<&OnceLock<CachedPlan>>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let adjacency = &workload.adjacency;
        let n = adjacency.rows();
        let row_bytes = f_out as u64 * ELEMENT_BYTES;
        let f_words = f_out as u64;
        let cache_rows = self.cache_rows(f_out);

        let GrowScratch {
            pinned,
            tables,
            lru_dummy,
            window,
            pending,
            plan,
        } = scratch;
        tables.reset(cfg.ldn_entries, cfg.lhs_id_entries);
        window.clear();
        pending.clear();
        pending.resize(cluster.len(), 0);
        plan.clear();

        let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, cfg.dram, cfg.mac_lanes);

        // The pinned set — and therefore the probe plan — is a pure
        // function of the HDN list prefix actually pinned; its length
        // keys the cross-layer plan cache (`usize::MAX` = no caching, the
        // plan is then just the miss stream of the adjacency).
        let mut take_key = usize::MAX;
        if cfg.hdn_caching {
            pinned.reset(cache_rows, n);
            // Cluster prologue: fetch the HDN ID list, then pin the
            // corresponding RHS rows (Section V-C).
            let list = &workload.hdn_lists[ci];
            let take = list.len().min(cfg.hdn_id_entries).min(cache_rows);
            take_key = take;
            let ids = &list[..take];
            let id_done = ctx
                .dram
                .read(0, take as u64 * HDN_ID_BYTES, TrafficClass::HdnIdList);
            let fills = pinned.load(ids);
            let done =
                ctx.dram
                    .read_many(id_done, fills as u64, row_bytes, TrafficClass::RhsPreload);
            ctx.report.sram_writes_8b += fills as u64 * f_words;
            ctx.now = ctx.now.max(done);
        }

        // Replay: the cycle-accurate machinery consumes one shard's plan
        // at a time, strictly in range order — identical step for step to
        // a per-probe walk (hit runs issue as bulk MAC operations, which
        // is exact — see the module docs).
        let start = cluster.start;
        let mut burst = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut replay = |range: Range<usize>, buf: &PlanBuf, ctx: &mut PhaseCtx| {
            let mut op_cursor = 0usize;
            for (j, rp) in buf.rows.iter().enumerate() {
                let row = range.start + j;
                let i = row - start;
                // Window admission (in-order retirement).
                while window.len() >= cfg.runahead {
                    self.retire_ready(
                        window,
                        pending,
                        start,
                        ctx.now,
                        &mut ctx.dram,
                        f_out,
                        &mut ctx.report,
                    );
                    if window.len() < cfg.runahead {
                        break;
                    }
                    ctx.now = self.drain_one(
                        tables,
                        &mut ctx.mac,
                        pending,
                        start,
                        lru_dummy,
                        false,
                        ctx.now,
                        f_out,
                        &mut ctx.report,
                    );
                }

                // Stream this A row's CSR segment.
                let nnz = rp.nnz as u64;
                let stream = nnz * (ELEMENT_BYTES + INDEX_BYTES) + INDEX_BYTES;
                ctx.dram
                    .read_stream(ctx.now, stream, TrafficClass::LhsSparse);
                burst += stream;
                ctx.report.sram_writes_8b += stream.div_ceil(8);
                ctx.report.sram_reads_8b += stream.div_ceil(8);

                // Enter the window with an issue-in-progress token: stalls
                // while issuing this row's own non-zeros may drain some of
                // *its* waiters, so the pending counter must be live before
                // the first miss is registered (and the token keeps the row
                // from retiring before all its non-zeros are issued).
                window.push_back(row as u32);
                pending[i] = 1;
                for op in &buf.ops[op_cursor..op_cursor + rp.ops as usize] {
                    match *op {
                        PlanOp::Hits(count) => {
                            ctx.mac.scalar_vector_bulk(ctx.now, f_out, count as u64);
                            ctx.report.sram_reads_8b += count as u64 * f_words; // cached RHS rows
                            ctx.report.sram_writes_8b += count as u64 * f_words;
                            // O-BUF accumulate
                        }
                        PlanOp::Miss(k) => {
                            let waiter = Waiter {
                                output_row: row as u32,
                                lhs_value: 1.0,
                            };
                            loop {
                                match tables.issue(k, waiter) {
                                    IssueOutcome::Allocated => {
                                        let done = ctx.dram.read(
                                            ctx.now,
                                            row_bytes,
                                            TrafficClass::RhsRows,
                                        );
                                        tables.set_completion(k, done);
                                        pending[i] += 1;
                                        break;
                                    }
                                    IssueOutcome::Coalesced => {
                                        pending[i] += 1;
                                        break;
                                    }
                                    IssueOutcome::LdnFull | IssueOutcome::LhsFull => {
                                        ctx.now = self.drain_one(
                                            tables,
                                            &mut ctx.mac,
                                            pending,
                                            start,
                                            lru_dummy,
                                            false,
                                            ctx.now,
                                            f_out,
                                            &mut ctx.report,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                op_cursor += rp.ops as usize;
                // Release the issue token; the row can now retire once all
                // of its outstanding misses return.
                pending[i] -= 1;
                self.retire_ready(
                    window,
                    pending,
                    start,
                    ctx.now,
                    &mut ctx.dram,
                    f_out,
                    &mut ctx.report,
                );
            }
        };

        // Plan: a pure probe plan, either replayed from the layer-1 cache
        // (identical plan data, so identical replay) or produced fresh —
        // sharded across nnz-balanced row ranges and pipelined *ahead* of
        // the replay through the bounded-depth queue, whose ordered merge
        // concatenates to exactly the single-pass plan.
        let pinned_ref = cfg.hdn_caching.then_some(&*pinned);
        if let Some(cached) = cell.and_then(|c| c.get()).filter(|c| c.take == take_key) {
            replay(cluster.clone(), &cached.plan, &mut ctx);
            hits = cached.plan.hits;
            misses = cached.plan.misses;
        } else {
            let retain = cell.is_some();
            let ranges = plan::shard_ranges(Some(adjacency), cluster.clone(), spec, 1);
            plan::plan_replay(
                shard_pool,
                ranges,
                |range, buf| plan_rows(adjacency, range, pinned_ref, buf),
                |range, buf| {
                    replay(range, buf, &mut ctx);
                    hits += buf.hits;
                    misses += buf.misses;
                    if retain {
                        plan.absorb(buf);
                    }
                },
            );
            if let Some(cell) = cell {
                cell.set(CachedPlan {
                    take: take_key,
                    plan: std::mem::take(plan),
                })
                .ok();
            }
        }
        ctx.dram.round_burst(burst, TrafficClass::LhsSparse);

        // Drain the cluster before handing the channel to the next one.
        while !tables.is_empty() {
            ctx.now = self.drain_one(
                tables,
                &mut ctx.mac,
                pending,
                start,
                lru_dummy,
                false,
                ctx.now,
                f_out,
                &mut ctx.report,
            );
        }
        self.retire_ready(
            window,
            pending,
            start,
            ctx.now,
            &mut ctx.dram,
            f_out,
            &mut ctx.report,
        );
        debug_assert!(window.is_empty(), "all rows retire at cluster end");

        ctx.report.cache = if cfg.hdn_caching {
            CacheStats {
                hits,
                misses,
                fills: pinned.stats().fills,
            }
        } else {
            CacheStats::default()
        };
        ctx.finish_cluster()
    }

    /// Simulates one cluster under the demand-filled LRU replacement study
    /// (Section VIII). The caller passes the shared demand cache — probe
    /// outcomes depend on its evolving state, so this path stays a direct
    /// per-probe walk; the report's cache statistics are the cluster's
    /// delta.
    fn aggregate_cluster_lru(
        &self,
        workload: &PreparedWorkload,
        f_out: usize,
        cluster: Range<usize>,
        lru: &mut LruRowCache,
    ) -> PhaseReport {
        let cfg = &self.config;
        let adjacency = &workload.adjacency;
        let row_bytes = f_out as u64 * ELEMENT_BYTES;
        let f_words = f_out as u64;
        let lru_stats_before = *lru.stats();

        let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, cfg.dram, cfg.mac_lanes);
        let mut tables = RunaheadTables::new(cfg.ldn_entries, cfg.lhs_id_entries);

        // Multi-row window: rows retire in order (Figure 15's
        // head/tail). Pending counters are cluster-local, indexed from
        // the cluster's first row.
        let start = cluster.start;
        let mut window: VecDeque<u32> = VecDeque::with_capacity(cfg.runahead);
        let mut pending: Vec<u32> = vec![0; cluster.len()];

        let mut burst = 0u64;
        for (i, slice) in adjacency.row_slices(cluster.clone()).enumerate() {
            let row = start + i;
            while window.len() >= cfg.runahead {
                self.retire_ready(
                    &mut window,
                    &mut pending,
                    start,
                    ctx.now,
                    &mut ctx.dram,
                    f_out,
                    &mut ctx.report,
                );
                if window.len() < cfg.runahead {
                    break;
                }
                ctx.now = self.drain_one(
                    &mut tables,
                    &mut ctx.mac,
                    &mut pending,
                    start,
                    lru,
                    true,
                    ctx.now,
                    f_out,
                    &mut ctx.report,
                );
            }

            let nnz = slice.len() as u64;
            let stream = nnz * (ELEMENT_BYTES + INDEX_BYTES) + INDEX_BYTES;
            ctx.dram
                .read_stream(ctx.now, stream, TrafficClass::LhsSparse);
            burst += stream;
            ctx.report.sram_writes_8b += stream.div_ceil(8);
            ctx.report.sram_reads_8b += stream.div_ceil(8);

            window.push_back(row as u32);
            pending[i] = 1;
            for &k in slice {
                let hit = cfg.hdn_caching && lru.probe(k);
                if hit {
                    ctx.mac.scalar_vector(ctx.now, f_out);
                    ctx.report.sram_reads_8b += f_words; // cached RHS row
                    ctx.report.sram_writes_8b += f_words; // O-BUF accumulate
                } else {
                    let waiter = Waiter {
                        output_row: row as u32,
                        lhs_value: 1.0,
                    };
                    loop {
                        match tables.issue(k, waiter) {
                            IssueOutcome::Allocated => {
                                let done = ctx.dram.read(ctx.now, row_bytes, TrafficClass::RhsRows);
                                tables.set_completion(k, done);
                                pending[i] += 1;
                                break;
                            }
                            IssueOutcome::Coalesced => {
                                pending[i] += 1;
                                break;
                            }
                            IssueOutcome::LdnFull | IssueOutcome::LhsFull => {
                                ctx.now = self.drain_one(
                                    &mut tables,
                                    &mut ctx.mac,
                                    &mut pending,
                                    start,
                                    lru,
                                    true,
                                    ctx.now,
                                    f_out,
                                    &mut ctx.report,
                                );
                            }
                        }
                    }
                }
            }
            pending[i] -= 1;
            self.retire_ready(
                &mut window,
                &mut pending,
                start,
                ctx.now,
                &mut ctx.dram,
                f_out,
                &mut ctx.report,
            );
        }
        ctx.dram.round_burst(burst, TrafficClass::LhsSparse);

        while !tables.is_empty() {
            ctx.now = self.drain_one(
                &mut tables,
                &mut ctx.mac,
                &mut pending,
                start,
                lru,
                true,
                ctx.now,
                f_out,
                &mut ctx.report,
            );
        }
        self.retire_ready(
            &mut window,
            &mut pending,
            start,
            ctx.now,
            &mut ctx.dram,
            f_out,
            &mut ctx.report,
        );
        debug_assert!(window.is_empty(), "all rows retire at cluster end");

        let after = *lru.stats();
        ctx.report.cache = CacheStats {
            hits: after.hits - lru_stats_before.hits,
            misses: after.misses - lru_stats_before.misses,
            fills: after.fills - lru_stats_before.fills,
        };
        ctx.finish_cluster()
    }

    /// Services the earliest outstanding RHS-row fetch: advances time,
    /// fires the waiting MACs, and (under LRU) installs the row.
    #[allow(clippy::too_many_arguments)]
    fn drain_one(
        &self,
        tables: &mut RunaheadTables,
        mac: &mut MacArray,
        pending: &mut [u32],
        cluster_start: usize,
        lru: &mut LruRowCache,
        use_lru: bool,
        now: Cycle,
        f_out: usize,
        report: &mut PhaseReport,
    ) -> Cycle {
        let Some((done, rhs, waiters)) = tables.pop_earliest_slice() else {
            return now;
        };
        let now = now.max(done);
        for w in waiters {
            mac.scalar_vector(now, f_out);
            report.sram_writes_8b += f_out as u64; // O-BUF accumulate
            let slot = &mut pending[w.output_row as usize - cluster_start];
            *slot = slot.saturating_sub(1);
        }
        if use_lru && self.config.hdn_caching {
            lru.insert(rhs);
            report.sram_writes_8b += f_out as u64;
        }
        now
    }

    /// Retires completed rows from the window head, writing their output
    /// rows back to DRAM (in-order retirement per Figure 15).
    #[allow(clippy::too_many_arguments)]
    fn retire_ready(
        &self,
        window: &mut VecDeque<u32>,
        pending: &mut [u32],
        cluster_start: usize,
        now: Cycle,
        dram: &mut Dram,
        f_out: usize,
        report: &mut PhaseReport,
    ) {
        while let Some(&front) = window.front() {
            if pending[front as usize - cluster_start] > 0 {
                break;
            }
            window.pop_front();
            dram.write(now, f_out as u64 * ELEMENT_BYTES, TrafficClass::Output);
            report.sram_reads_8b += f_out as u64; // O-BUF drain
        }
    }
}

impl Accelerator for GrowEngine {
    fn name(&self) -> &'static str {
        "GROW"
    }

    fn run(&self, workload: &PreparedWorkload) -> RunReport {
        // One scratch pool (and one shard-plan pool) per run: per-cluster
        // state is cleared between clusters and layers, not dropped.
        let scratch: ScratchArena<GrowScratch> = ScratchArena::new();
        let shard_pool: ScratchArena<PlanBuf> = ScratchArena::new();
        // Cross-layer plan retention: the aggregation probe plan depends
        // only on the adjacency and the pinned HDN prefix, so runs replay
        // retained plans (keyed by the prefix length; a mismatch
        // re-plans). The LRU study has no plans to retain.
        let plan_slots = plan::plan_slots::<CachedPlan>(
            workload,
            "grow",
            !matches!(self.config.replacement, ReplacementPolicy::Lru),
            self.config.fault,
        );
        let plan_store = plan_slots.as_deref().map(Vec::as_slice);
        let model = ExecModel::with_dram(self.config.multi_pe, self.config.dram);
        let mut report = pipeline::run_layers(self.name(), workload, self.config.fault, |layer| {
            LayerReport {
                combination: self.run_combination(
                    &model,
                    &layer.x.view(),
                    layer.f_out,
                    &workload.clusters,
                ),
                aggregation: self.run_aggregation(
                    &model,
                    workload,
                    layer.f_out,
                    &scratch,
                    &shard_pool,
                    plan_store,
                ),
            }
        });
        model.finalize(&mut report);
        report
    }

    fn sram_kb(&self) -> f64 {
        (self.config.hdn_cache_bytes
            + self.config.ibuf_sparse_bytes
            + self.config.obuf_bytes
            + self.config.hdn_id_entries as u64 * HDN_ID_BYTES) as f64
            / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, PartitionStrategy};
    use grow_model::DatasetKey;

    fn prepared(nodes: usize, strategy: PartitionStrategy) -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(nodes).instantiate(3);
        prepare(&w, strategy, 4096)
    }

    #[test]
    fn run_produces_two_layers() {
        let p = prepared(500, PartitionStrategy::None);
        let r = GrowEngine::default().run(&p);
        assert_eq!(r.layers.len(), 2);
        assert!(r.total_cycles() > 0);
        assert!(r.dram_bytes() > 0);
    }

    #[test]
    fn mac_ops_match_workload_invariant() {
        // Combination: nnz(X) * f_out; aggregation: nnz(A) * f_out; summed
        // over both layers.
        let p = prepared(500, PartitionStrategy::None);
        let r = GrowEngine::default().run(&p);
        let a_nnz = p.adjacency.nnz() as u64;
        let expected: u64 = p
            .layers
            .iter()
            .map(|l| (l.x.nnz() as u64 + a_nnz) * l.f_out as u64)
            .sum();
        assert_eq!(r.mac_ops(), expected);
    }

    #[test]
    fn small_graph_cache_hit_rate_is_high() {
        // Section VII-A: for small graphs the HDN cache stashes nearly
        // everything (Cora hit rates ~80%+ even without partitioning).
        let p = prepared(400, PartitionStrategy::None);
        let r = GrowEngine::default().run(&p);
        let hr = r.aggregation_cache().hit_rate().unwrap();
        assert!(hr > 0.9, "hit rate {hr}");
    }

    #[test]
    fn hit_plus_miss_equals_adjacency_nnz() {
        let p = prepared(600, PartitionStrategy::None);
        let r = GrowEngine::default().run(&p);
        let c = r.aggregation_cache();
        assert_eq!(c.hits + c.misses, 2 * p.adjacency.nnz() as u64);
    }

    #[test]
    fn disabling_cache_increases_traffic() {
        let p = prepared(800, PartitionStrategy::None);
        let with = GrowEngine::default().run(&p);
        let without = GrowEngine::new(GrowConfig {
            hdn_caching: false,
            ..GrowConfig::default()
        })
        .run(&p);
        assert!(
            without.dram_bytes() > with.dram_bytes(),
            "no-cache {} vs cache {}",
            without.dram_bytes(),
            with.dram_bytes()
        );
        assert_eq!(
            without.mac_ops(),
            with.mac_ops(),
            "MACs are dataflow-invariant"
        );
    }

    #[test]
    fn runahead_reduces_cycles() {
        // Figure 25(a): 1-way vs 16-way runahead.
        let p = prepared(2000, PartitionStrategy::None);
        let narrow = GrowEngine::new(GrowConfig {
            runahead: 1,
            hdn_cache_bytes: 4 * 1024, // force misses
            hdn_id_entries: 32,
            ..GrowConfig::default()
        })
        .run(&p);
        let wide = GrowEngine::new(GrowConfig {
            runahead: 16,
            hdn_cache_bytes: 4 * 1024,
            hdn_id_entries: 32,
            ..GrowConfig::default()
        })
        .run(&p);
        assert!(
            wide.total_cycles() < narrow.total_cycles(),
            "16-way {} vs 1-way {}",
            wide.total_cycles(),
            narrow.total_cycles()
        );
    }

    #[test]
    fn output_traffic_is_exact() {
        let p = prepared(500, PartitionStrategy::None);
        let r = GrowEngine::default().run(&p);
        // Output: n rows per phase, f_out*8 useful bytes each, both phases
        // of both layers.
        let n = p.nodes as u64;
        let expected_useful: u64 = p.layers.iter().map(|l| 2 * n * l.f_out as u64 * 8).sum();
        assert_eq!(
            r.total_traffic().useful_bytes(TrafficClass::Output),
            expected_useful
        );
    }

    #[test]
    fn partitioned_run_covers_same_work() {
        let p0 = prepared(1500, PartitionStrategy::None);
        let p1 = prepared(1500, PartitionStrategy::Multilevel { cluster_nodes: 300 });
        let r0 = GrowEngine::default().run(&p0);
        let r1 = GrowEngine::default().run(&p1);
        assert_eq!(r0.mac_ops(), r1.mac_ops());
        let c0 = r0.aggregation_cache();
        let c1 = r1.aggregation_cache();
        assert_eq!(c0.hits + c0.misses, c1.hits + c1.misses);
    }

    #[test]
    fn lru_replacement_runs_and_reports() {
        let p = prepared(800, PartitionStrategy::None);
        let r = GrowEngine::new(GrowConfig {
            replacement: ReplacementPolicy::Lru,
            ..GrowConfig::default()
        })
        .run(&p);
        let c = r.aggregation_cache();
        assert!(c.hits + c.misses > 0);
        assert_eq!(
            r.total_traffic().fetched_bytes(TrafficClass::RhsPreload),
            0,
            "LRU mode does not preload"
        );
    }

    #[test]
    fn deterministic_runs() {
        let p = prepared(700, PartitionStrategy::None);
        let e = GrowEngine::default();
        assert_eq!(e.run(&p), e.run(&p));
    }

    #[test]
    fn parallel_clusters_match_serial_exactly() {
        // The headline property of the shared harness: fanning clusters
        // across threads must not change a single counter.
        let p = prepared(3000, PartitionStrategy::Multilevel { cluster_nodes: 250 });
        assert!(
            p.clusters.len() > 4,
            "needs real parallelism to be meaningful"
        );
        let e = GrowEngine::default();
        // Oversubscribe so threads really interleave, even on one core.
        let parallel = grow_sim::exec::with_workers(4, || e.run(&p));
        let serial = grow_sim::exec::with_mode(grow_sim::ExecMode::Serial, || e.run(&p));
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_unsharded() {
        // The shard_rows contract: splitting the probe-plan pass into row
        // ranges must not change a single counter, at any threshold, in
        // serial or parallel execution, with caching on or off.
        let p = prepared(2000, PartitionStrategy::None); // one 2000-row cluster
        for caching in [true, false] {
            let base = GrowEngine::new(GrowConfig {
                hdn_caching: caching,
                ..GrowConfig::default()
            })
            .run(&p);
            for shard_rows in [64, 257, 1000, 1999, 2000, 5000] {
                let cfg = GrowConfig {
                    hdn_caching: caching,
                    shard_rows: shard_rows.into(),
                    ..GrowConfig::default()
                };
                let e = GrowEngine::new(cfg);
                let sharded = grow_sim::exec::with_workers(4, || e.run(&p));
                assert_eq!(base, sharded, "caching={caching} shard_rows={shard_rows}");
                let serial = grow_sim::exec::with_mode(grow_sim::ExecMode::Serial, || e.run(&p));
                assert_eq!(base, serial, "serial shard caching={caching}");
            }
        }
    }

    #[test]
    fn sharding_composes_with_partitioned_clusters() {
        // Sharding inside clusters while clusters fan across threads.
        let p = prepared(2500, PartitionStrategy::Multilevel { cluster_nodes: 400 });
        let base = GrowEngine::default().run(&p);
        let sharded = GrowEngine::new(GrowConfig {
            shard_rows: ShardRows::Fixed(128),
            ..GrowConfig::default()
        })
        .run(&p);
        assert_eq!(base, sharded);
    }

    #[test]
    fn auto_sharding_is_bit_identical_and_derives_from_cluster_stats() {
        // One coarse 2000-row cluster: auto must turn sharding on, and —
        // like any threshold — must not change a single counter.
        let coarse = prepared(2000, PartitionStrategy::None);
        assert!(coarse.auto_shard_rows() > 0, "coarse grain shards");
        let base = GrowEngine::default().run(&coarse);
        let auto = GrowEngine::new(GrowConfig {
            shard_rows: ShardRows::Auto,
            ..GrowConfig::default()
        });
        assert_eq!(base, grow_sim::exec::with_workers(4, || auto.run(&coarse)));
        // Fine clusters already saturate the fan-out: auto stays off.
        let fine = prepared(1200, PartitionStrategy::Multilevel { cluster_nodes: 200 });
        assert_eq!(fine.auto_shard_rows(), 0, "fine grain leaves sharding off");
        assert_eq!(GrowEngine::default().run(&fine), auto.run(&fine));
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_runs() {
        // Back-to-back runs of one engine instance (fresh arenas per run)
        // and runs of different workloads through the same engine must not
        // influence each other.
        let small = prepared(500, PartitionStrategy::None);
        let big = prepared(1200, PartitionStrategy::Multilevel { cluster_nodes: 200 });
        let e = GrowEngine::default();
        let small_first = e.run(&small);
        let big_first = e.run(&big);
        assert_eq!(e.run(&small), small_first);
        assert_eq!(e.run(&big), big_first);
    }

    #[test]
    fn sram_capacity_matches_table3() {
        let kb = GrowEngine::default().sram_kb();
        assert!((kb - 538.0) < 1.0, "SRAM {kb} KB vs Table III's 538 KB");
    }

    #[test]
    fn request_overhead_ablation_favors_streaming() {
        // DESIGN.md §2.6: the per-request activation overhead penalizes
        // scattered fetches, not streams. Raising it must slow GROW less
        // (high hit rate => few random requests) than a cacheless GROW
        // (every non-zero is a random fetch).
        let p = prepared(2000, PartitionStrategy::None);
        let run = |overhead: u64, caching: bool| {
            let dram = grow_sim::DramConfig {
                request_overhead_cycles: overhead,
                ..grow_sim::DramConfig::default()
            };
            GrowEngine::new(GrowConfig {
                dram,
                hdn_caching: caching,
                ..GrowConfig::default()
            })
            .run(&p)
            .total_cycles() as f64
        };
        let cached_slowdown = run(48, true) / run(0, true);
        let uncached_slowdown = run(48, false) / run(0, false);
        assert!(
            uncached_slowdown > cached_slowdown,
            "cacheless {uncached_slowdown} vs cached {cached_slowdown}"
        );
    }
}
