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
//! 1. **Plan**: walk each row's column slice once and emit a compact probe
//!    plan — runs of consecutive hits collapsed to one entry, misses
//!    recorded individually in order — into the worker's scratch. A plan
//!    the run retains moves into its cluster's slot after its first
//!    replay, so later layers replay it without re-planning.
//! 2. **Replay** (sequential): drive the cycle-accurate machinery (FIFO
//!    channel, MAC array, runahead tables, in-order retirement window)
//!    over the plan. A run of `h` hits issues as one
//!    `scalar_vector_bulk(now, f, h)`, which is arithmetically identical
//!    to `h` back-to-back `scalar_vector` calls — `now` cannot change
//!    between consecutive hits — so the replay is bit-identical to the
//!    original per-probe loop while doing per-*event* rather than
//!    per-nonzero work on the (dominant) hit traffic.
//!
//! The Section VIII LRU study runs the same replay steps without a plan:
//! its demand-filled cache changes whenever a drain installs a row, so
//! each non-zero probes the cache as the replay reaches it.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use grow_sim::{
    fault, CacheStats, DramConfig, FaultPlan, IssueOutcome, LruRowCache, PinnedRowCache,
    RunaheadTables, ScratchArena, TrafficClass, Waiter, ELEMENT_BYTES, HDN_ID_BYTES, INDEX_BYTES,
};
use grow_sparse::{CsrPattern, RowMajorSparse};

use crate::exec_model::ExecModel;
use crate::pipeline::{self, PhaseCtx};
use crate::plan;
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

/// Reusable probe-plan buffers: the plan-phase output for one cluster.
#[derive(Debug, Default)]
struct PlanBuf {
    rows: Vec<RowPlan>,
    ops: Vec<PlanOp>,
}

/// A retained aggregation plan for one cluster, replayed by later layers
/// when the pinned set (keyed by its `take` prefix length) matches.
#[derive(Debug)]
struct CachedPlan {
    take: usize,
    plan: PlanBuf,
}

/// Builds the probe plan for `rows` into `out`, replacing its contents:
/// a pure per-row function of the adjacency structure and the
/// (immutable) pinned set. `pinned` is `None` when HDN caching is
/// disabled — every non-zero is then an uncached fetch.
fn plan_rows(
    adjacency: &CsrPattern,
    rows: Range<usize>,
    pinned: Option<&PinnedRowCache>,
    out: &mut PlanBuf,
) {
    out.rows.clear();
    out.ops.clear();
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
                            run = 0;
                        }
                        out.ops.push(PlanOp::Miss(k));
                    }
                }
                if run > 0 {
                    out.ops.push(PlanOp::Hits(run));
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
    window: VecDeque<u32>,
    pending: Vec<u32>,
    plan: PlanBuf,
}

/// The cycle-accurate replay of one aggregation cluster: the context it
/// simulates in, the runahead tables, the in-order retirement window
/// with its per-row pending counters, and — for the Section VIII study
/// only — the demand-filled LRU cache that installs each row a drain
/// returns. Probe outcomes accumulate in `ctx.report.cache`.
struct Replay<'a> {
    cfg: &'a GrowConfig,
    ctx: PhaseCtx,
    f_out: usize,
    /// First row of the cluster (`pending` is indexed from it).
    start: usize,
    tables: &'a mut RunaheadTables,
    window: &'a mut VecDeque<u32>,
    pending: &'a mut [u32],
    demand: Option<&'a mut LruRowCache>,
    /// Streamed LHS bytes, granularity-rounded once at cluster end.
    burst: u64,
}

impl Replay<'_> {
    /// Admits `row` into the window (draining fetches until the window
    /// head can retire) and streams its `nnz`-entry CSR segment.
    fn begin_row(&mut self, row: usize, nnz: u32) {
        while self.window.len() >= self.cfg.runahead {
            self.retire_ready();
            if self.window.len() < self.cfg.runahead {
                break;
            }
            self.drain_one();
        }
        let stream = nnz as u64 * (ELEMENT_BYTES + INDEX_BYTES) + INDEX_BYTES;
        self.ctx
            .dram
            .read_stream(self.ctx.now, stream, TrafficClass::LhsSparse);
        self.burst += stream;
        self.ctx.report.sram_writes_8b += stream.div_ceil(8);
        self.ctx.report.sram_reads_8b += stream.div_ceil(8);
        // Enter the window with an issue-in-progress token: stalls while
        // issuing this row's own non-zeros may drain some of *its*
        // waiters, so the pending counter must be live before the first
        // miss is registered (and the token keeps the row from retiring
        // before all its non-zeros are issued).
        self.window.push_back(row as u32);
        self.pending[row - self.start] = 1;
    }

    /// Probes the demand cache for RHS row `k` (always a miss without one).
    fn probe(&mut self, k: u32) -> bool {
        self.demand.as_deref_mut().is_some_and(|lru| lru.probe(k))
    }

    /// Issues `count` consecutive cache hits as one bulk MAC operation.
    fn hits(&mut self, count: u32) {
        let count = count as u64;
        let words = count * self.f_out as u64;
        self.ctx.report.cache.hits += count;
        self.ctx
            .mac
            .scalar_vector_bulk(self.ctx.now, self.f_out, count);
        self.ctx.report.sram_reads_8b += words; // cached RHS rows
        self.ctx.report.sram_writes_8b += words; // O-BUF accumulate
    }

    /// Issues a cache miss on RHS row `k` for output `row` through the
    /// runahead tables, draining fetches while they are full.
    fn miss(&mut self, row: usize, k: u32) {
        self.ctx.report.cache.misses += 1;
        let waiter = Waiter {
            output_row: row as u32,
            lhs_value: 1.0,
        };
        loop {
            match self.tables.issue(k, waiter) {
                IssueOutcome::Allocated => {
                    let row_bytes = self.f_out as u64 * ELEMENT_BYTES;
                    let done = self
                        .ctx
                        .dram
                        .read(self.ctx.now, row_bytes, TrafficClass::RhsRows);
                    self.tables.set_completion(k, done);
                    break;
                }
                IssueOutcome::Coalesced => break,
                IssueOutcome::LdnFull | IssueOutcome::LhsFull => self.drain_one(),
            }
        }
        self.pending[row - self.start] += 1;
    }

    /// Releases `row`'s issue token and retires whatever is ready.
    fn end_row(&mut self, row: usize) {
        self.pending[row - self.start] -= 1;
        self.retire_ready();
    }

    /// Replays the plan of the rows starting at `first`.
    fn plan(&mut self, first: usize, buf: &PlanBuf) {
        let mut ops = buf.ops.iter();
        for (j, rp) in buf.rows.iter().enumerate() {
            let row = first + j;
            self.begin_row(row, rp.nnz);
            for op in ops.by_ref().take(rp.ops as usize) {
                match *op {
                    PlanOp::Hits(count) => self.hits(count),
                    PlanOp::Miss(k) => self.miss(row, k),
                }
            }
            self.end_row(row);
        }
    }

    /// Services the earliest outstanding RHS-row fetch: advances time,
    /// fires the waiting MACs, and installs the row in the demand cache.
    fn drain_one(&mut self) {
        let Some((done, rhs, waiters)) = self.tables.pop_earliest_slice() else {
            return;
        };
        self.ctx.now = self.ctx.now.max(done);
        for w in waiters {
            self.ctx.mac.scalar_vector(self.ctx.now, self.f_out);
            self.ctx.report.sram_writes_8b += self.f_out as u64; // O-BUF accumulate
            let slot = &mut self.pending[w.output_row as usize - self.start];
            *slot = slot.saturating_sub(1);
        }
        if let Some(lru) = self.demand.as_deref_mut() {
            lru.insert(rhs);
            self.ctx.report.sram_writes_8b += self.f_out as u64;
        }
    }

    /// Retires completed rows from the window head, writing their output
    /// rows back to DRAM (in-order retirement per Figure 15).
    fn retire_ready(&mut self) {
        while let Some(&front) = self.window.front() {
            if self.pending[front as usize - self.start] > 0 {
                break;
            }
            self.window.pop_front();
            self.ctx.dram.write(
                self.ctx.now,
                self.f_out as u64 * ELEMENT_BYTES,
                TrafficClass::Output,
            );
            self.ctx.report.sram_reads_8b += self.f_out as u64; // O-BUF drain
        }
    }

    /// Drains the cluster before the channel passes to the next one and
    /// returns its context.
    fn finish(mut self) -> PhaseCtx {
        self.ctx
            .dram
            .round_burst(self.burst, TrafficClass::LhsSparse);
        while !self.tables.is_empty() {
            self.drain_one();
        }
        self.retire_ready();
        debug_assert!(self.window.is_empty(), "all rows retire at cluster end");
        self.ctx
    }
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
        plan_store: Option<&[OnceLock<CachedPlan>]>,
    ) -> PhaseReport {
        let cfg = &self.config;
        if cfg.replacement == ReplacementPolicy::Lru && cfg.hdn_caching {
            // The demand-filled LRU study (Section VIII): a demand cache
            // has no hardware reason to flush at cluster boundaries the
            // way the pinned set is swapped, so the cache is shared across
            // clusters — which also means the clusters are *not*
            // independent and must run serially, in cluster order. (The
            // end-to-end model still composes the serially-simulated
            // per-cluster timelines; cross-cluster cache state is an
            // approximation this study accepts.) Without caching there is
            // no shared cache, and the clusters take the path below.
            let mut lru = LruRowCache::new(self.cache_rows(f_out), workload.adjacency.rows());
            let mut s = scratch.checkout();
            let partials: Vec<PhaseReport> = workload
                .clusters
                .iter()
                .map(|cluster| {
                    // Cooperative cancellation at the cluster boundary, as
                    // in the parallel fan-out.
                    fault::check_cancel();
                    self.aggregate_cluster_demand(
                        &workload.adjacency,
                        f_out,
                        cluster.clone(),
                        &mut s,
                        &mut lru,
                    )
                })
                .collect();
            return model.compose(PhaseKind::Aggregation, partials);
        }

        pipeline::run_clusters(
            model,
            PhaseKind::Aggregation,
            &workload.clusters,
            |ci, cluster| {
                let cell = plan_store.map(|store| &store[ci]);
                let mut s = scratch.checkout();
                self.aggregate_cluster(workload, f_out, ci, cluster, &mut s, cell)
            },
        )
    }

    /// Simulates one cluster of the aggregation phase in an isolated
    /// context. The cluster prologue pins the HDN set (when caching is
    /// on), then the cluster's probe plan is built in `scratch` and
    /// replayed. All working state comes from `scratch` and is
    /// recycled. When `cell` is given, the plan moves there after its
    /// replay, so later layers with the same pinned set replay it without
    /// re-planning.
    fn aggregate_cluster(
        &self,
        workload: &PreparedWorkload,
        f_out: usize,
        ci: usize,
        cluster: Range<usize>,
        scratch: &mut GrowScratch,
        cell: Option<&OnceLock<CachedPlan>>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let adjacency = &workload.adjacency;
        let cache_rows = self.cache_rows(f_out);

        let GrowScratch {
            pinned,
            tables,
            window,
            pending,
            plan,
        } = scratch;
        tables.reset(cfg.ldn_entries, cfg.lhs_id_entries);
        window.clear();
        pending.clear();
        pending.resize(cluster.len(), 0);

        let mut ctx = PhaseCtx::new(PhaseKind::Aggregation, cfg.dram, cfg.mac_lanes);

        // The pinned set — and therefore the probe plan — is a pure
        // function of the HDN list prefix actually pinned; its length
        // keys the cross-layer plan cache (`usize::MAX` = no caching, the
        // plan is then just the miss stream of the adjacency).
        let mut take_key = usize::MAX;
        if cfg.hdn_caching {
            pinned.reset(cache_rows, adjacency.rows());
            // Cluster prologue: fetch the HDN ID list, then pin the
            // corresponding RHS rows (Section V-C).
            let list = &workload.hdn_lists[ci];
            let take = list.len().min(cfg.hdn_id_entries).min(cache_rows);
            take_key = take;
            let id_done = ctx
                .dram
                .read(0, take as u64 * HDN_ID_BYTES, TrafficClass::HdnIdList);
            let fills = pinned.load(&list[..take]);
            let row_bytes = f_out as u64 * ELEMENT_BYTES;
            let done =
                ctx.dram
                    .read_many(id_done, fills as u64, row_bytes, TrafficClass::RhsPreload);
            ctx.report.sram_writes_8b += fills as u64 * f_out as u64;
            ctx.now = ctx.now.max(done);
        }

        let mut replay = Replay {
            cfg,
            ctx,
            f_out,
            start: cluster.start,
            tables,
            window,
            pending,
            demand: None,
            burst: 0,
        };
        if let Some(cached) = cell.and_then(|c| c.get()).filter(|c| c.take == take_key) {
            // A retained plan is identical plan data, so identical replay.
            replay.plan(cluster.start, &cached.plan);
        } else {
            let pinned_ref = cfg.hdn_caching.then_some(&*pinned);
            plan_rows(adjacency, cluster.clone(), pinned_ref, plan);
            replay.plan(cluster.start, plan);
            if let Some(cell) = cell {
                cell.set(CachedPlan {
                    take: take_key,
                    plan: std::mem::take(plan),
                })
                .ok();
            }
        }
        let mut ctx = replay.finish();

        ctx.report.cache = if cfg.hdn_caching {
            CacheStats {
                fills: pinned.stats().fills,
                ..ctx.report.cache
            }
        } else {
            CacheStats::default()
        };
        ctx.finish_cluster()
    }

    /// Simulates one aggregation cluster of the LRU study on the shared
    /// demand cache `lru`. Every non-zero probes it as the replay reaches
    /// it, since a drain may install a row a later probe hits; probes
    /// move no clock, so a run of hits issues as one bulk operation just
    /// before the miss (or row end) that ends it.
    fn aggregate_cluster_demand(
        &self,
        adjacency: &CsrPattern,
        f_out: usize,
        cluster: Range<usize>,
        scratch: &mut GrowScratch,
        lru: &mut LruRowCache,
    ) -> PhaseReport {
        let cfg = &self.config;
        let GrowScratch {
            tables,
            window,
            pending,
            ..
        } = scratch;
        tables.reset(cfg.ldn_entries, cfg.lhs_id_entries);
        window.clear();
        pending.clear();
        pending.resize(cluster.len(), 0);

        let fills_before = lru.stats().fills;
        let mut replay = Replay {
            cfg,
            ctx: PhaseCtx::new(PhaseKind::Aggregation, cfg.dram, cfg.mac_lanes),
            f_out,
            start: cluster.start,
            tables,
            window,
            pending,
            demand: Some(&mut *lru),
            burst: 0,
        };
        for (j, slice) in adjacency.row_slices(cluster.clone()).enumerate() {
            let row = cluster.start + j;
            replay.begin_row(row, slice.len() as u32);
            let mut run = 0;
            for &k in slice {
                if replay.probe(k) {
                    run += 1;
                    continue;
                }
                if run > 0 {
                    replay.hits(std::mem::take(&mut run));
                }
                replay.miss(row, k);
            }
            if run > 0 {
                replay.hits(run);
            }
            replay.end_row(row);
        }
        let mut ctx = replay.finish();
        ctx.report.cache.fills = lru.stats().fills - fills_before;
        ctx.finish_cluster()
    }
}

impl Accelerator for GrowEngine {
    fn name(&self) -> &'static str {
        "GROW"
    }

    fn run(&self, workload: &PreparedWorkload) -> RunReport {
        // One scratch pool per run: per-cluster state is cleared between
        // clusters and layers, not dropped.
        let scratch: ScratchArena<GrowScratch> = ScratchArena::new();
        // Cross-layer plan retention: the aggregation probe plan depends
        // only on the adjacency and the pinned HDN prefix, so runs replay
        // retained plans (keyed by the prefix length; a mismatch
        // re-plans). The LRU study has no plans to retain.
        let plan_slots = plan::plan_slots::<CachedPlan>(
            workload,
            "grow",
            !matches!(self.config.replacement, ReplacementPolicy::Lru),
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
