//! Shared model of the row-wise-product sparse-*sparse* GEMM accelerators
//! (MatRaptor and GAMMA, compared against GROW in Section VII-H).
//!
//! Both use Gustavson's algorithm like GROW, but as generic sparse-sparse
//! engines they differ in exactly the three ways the paper identifies:
//!
//! 1. the RHS matrix is CSR-compressed, adding index metadata to every RHS
//!    row fetch ("additional indexing overheads as well as more memory
//!    traffic to fetch metadata associated with CSR");
//! 2. partial-sum merging hardware occupies the pipeline for every
//!    contribution ("a complicated and costly partial-sum merging process,
//!    which is entirely redundant for SpDeGEMM");
//! 3. caching: MatRaptor has none; GAMMA has a demand-filled LRU
//!    fiber cache "not optimized for the power-law distribution of graphs"
//!    (flushed at cluster boundaries, like every other per-cluster state).
//!
//! Like the other engines, the row walk runs cluster by cluster through
//! the shared [`pipeline`](crate::pipeline) harness, in parallel across
//! clusters — and, within a cluster, as a plan/replay pair through
//! [`plan`]: the row-accounting pass (per-row non-zero and hit counts)
//! is planned into the worker's scratch and spent by the cycle-accurate
//! replay. Three plan flavors exist: the cacheless walk
//! (every non-zero misses) records per-row CSR lengths; a fiber cache big
//! enough to never evict collapses LRU to first-touch (a
//! [`plan::StampSet`] walk, list-free); a genuinely evicting LRU walk
//! probes the real cache. The first two are pure functions of the
//! adjacency, so an aggregation phase files their plans under the family
//! `{name}:cacheless` or `{name}:first-touch` and later phases replay
//! them; an evicting walk names no family (see [`plan_family`]).

use std::ops::Range;
use std::sync::OnceLock;

use grow_sim::{
    CacheStats, LruRowCache, ScratchArena, TrafficClass, DRAM_BYTES_PER_CYCLE, DRAM_LATENCY_CYCLES,
    INDEX_BYTES,
};
use grow_sparse::RowMajorSparse;

use crate::exec_model::ExecModel;
use crate::pipeline::{self, PhaseCtx, MAC_LANES};
use crate::plan;
use crate::{LayerReport, PhaseKind, PhaseReport, PreparedWorkload, RunReport};

/// Per-worker scratch of the sparse-sparse cluster path: the fiber cache
/// (and its no-eviction first-touch shortcut), recycled through a
/// [`ScratchArena`] and epoch-reset at every cluster boundary (the flush
/// the module docs describe) instead of reallocated, and the cluster's
/// row plan.
#[derive(Debug, Default)]
struct SpSpScratch {
    cache: LruRowCache,
    stamp: plan::StampSet,
    /// The current cluster's row plan (moved out when retained).
    plan: RowCounts,
}

/// Bytes per element of a CSR-compressed row: value + column index.
const CSR_ELEM_BYTES: u64 = 8 + INDEX_BYTES;

/// The plan-pass output of the row walk over a cluster: per LHS row its
/// non-zero count and fiber-cache hit count. Everything the replay spends
/// (DRAM fetches, MAC/merge occupancy, SRAM counters, cache statistics)
/// is a function of these two numbers per row, in row order.
#[derive(Debug, Default)]
struct RowCounts {
    /// `(nnz, hits)` per LHS row of the cluster.
    rows: Vec<(u32, u32)>,
}

/// Fiber-cache capacity in RHS rows for an `f`-wide RHS.
fn cache_rows(params: &SpSpParams, f: usize) -> usize {
    (params.fiber_cache_bytes / (f as u64 * CSR_ELEM_BYTES)) as usize
}

/// The plan family of an aggregation phase at width `f` over an
/// `rhs_rows`-row RHS: which walk [`run_rows`] plans, when that walk is a
/// pure function of the adjacency (cacheless, or a fiber cache that never
/// evicts). An evicting LRU walk names none.
fn plan_family(params: &SpSpParams, f: usize, rhs_rows: usize) -> Option<String> {
    let walk = match cache_rows(params, f) {
        0 => "cacheless",
        rows if rows >= rhs_rows => "first-touch",
        _ => return None,
    };
    Some(format!("{}:{walk}", params.name))
}

/// Parameters of a row-wise sparse-sparse engine. Both engines run on
/// Table III's channel ([`DRAM_BYTES_PER_CYCLE`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpSpParams {
    pub name: &'static str,
    /// Fiber-cache capacity in bytes (0 = no cache, i.e. MatRaptor).
    pub fiber_cache_bytes: u64,
    /// Merge occupancy per scalar x vector contribution, as a multiple of
    /// the MAC occupancy (MatRaptor's sorting queues ~1.0; GAMMA's
    /// high-radix pipelined merger ~0.5).
    pub merge_factor: f64,
    /// Total on-chip SRAM in KB (for energy accounting).
    pub sram_kb: f64,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
}

pub(crate) fn run_spsp(params: &SpSpParams, workload: &PreparedWorkload) -> RunReport {
    let adjacency = RowMajorSparse::Pattern(&workload.adjacency);
    // One scratch pool per run: fiber caches are epoch-reset between
    // clusters and layers, never reallocated; row plans are recycled.
    let scratch: ScratchArena<SpSpScratch> = ScratchArena::new();
    let model = ExecModel::new(params.multi_pe, DRAM_BYTES_PER_CYCLE);
    let mut report = pipeline::run_layers(params.name, workload, |layer| {
        // The combination LHS changes per layer, so only aggregation
        // plans are kept.
        let family = plan_family(params, layer.f_out, workload.adjacency.cols());
        let agg_slots = plan::plan_slots::<RowCounts>(workload, family.as_deref());
        LayerReport {
            combination: run_phase(
                params,
                &model,
                PhaseKind::Combination,
                &layer.x.view(),
                layer.f_out,
                &workload.clusters,
                &scratch,
                None,
            ),
            aggregation: run_phase(
                params,
                &model,
                PhaseKind::Aggregation,
                &adjacency,
                layer.f_out,
                &workload.clusters,
                &scratch,
                agg_slots.as_deref().map(Vec::as_slice),
            ),
        }
    });
    model.finalize(&mut report);
    report
}

/// One SpDeGEMM phase executed as if both operands were sparse.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    params: &SpSpParams,
    model: &ExecModel,
    kind: PhaseKind,
    lhs: &RowMajorSparse<'_>,
    f: usize,
    clusters: &[Range<usize>],
    scratch: &ScratchArena<SpSpScratch>,
    slots: Option<&[OnceLock<RowCounts>]>,
) -> PhaseReport {
    pipeline::run_clusters(model, kind, clusters, |ci, cluster| {
        let slot = slots.map(|slots| &slots[ci]);
        let mut s = scratch.checkout();
        run_rows(params, kind, lhs, f, cluster, &mut s, slot)
    })
}

/// Simulates one cluster's rows in an isolated context: a sparse LHS's
/// row plan is replayed from `slot` or planned into `scratch` and
/// replayed (see [`plan::replay_or_plan`]).
fn run_rows(
    params: &SpSpParams,
    kind: PhaseKind,
    lhs: &RowMajorSparse<'_>,
    f: usize,
    rows: Range<usize>,
    scratch: &mut SpSpScratch,
    slot: Option<&OnceLock<RowCounts>>,
) -> PhaseReport {
    let mut ctx = PhaseCtx::new(kind, DRAM_BYTES_PER_CYCLE);

    // The RHS (dense in reality) is stored and fetched as CSR by these
    // engines: f elements of 12 bytes per row.
    let rhs_row_bytes = f as u64 * CSR_ELEM_BYTES;
    let cache_rows = cache_rows(params, f);
    let merge_cycles = ((f as f64 * params.merge_factor).ceil() as u64).div_ceil(MAC_LANES as u64);

    let rhs_class = match kind {
        PhaseKind::Combination => TrafficClass::Weights,
        PhaseKind::Aggregation => TrafficClass::RhsRows,
    };

    let row_count = rows.len() as u64;
    let mut lhs_burst = 0u64;
    match *lhs {
        RowMajorSparse::Dense { cols, .. } => {
            // Dense LHS rows touch RHS rows 0..cols sequentially. Under LRU
            // a cyclic sequential scan either fits entirely (all hits after
            // the first row) or thrashes (all misses) — handled in bulk.
            let fits = cache_rows >= cols;
            for (i, _row) in rows.clone().enumerate() {
                let nnz = cols as u64;
                lhs_burst += nnz * CSR_ELEM_BYTES + INDEX_BYTES;
                let (hits, misses) = if cache_rows == 0 || !fits || i == 0 {
                    (0, nnz)
                } else {
                    (nnz, 0)
                };
                record_row(
                    &mut ctx,
                    rhs_class,
                    f,
                    rhs_row_bytes,
                    merge_cycles,
                    hits,
                    misses,
                );
            }
            if row_count > 0 {
                if cache_rows > 0 && fits {
                    ctx.report.cache.hits += (row_count - 1) * cols as u64;
                    ctx.report.cache.misses += cols as u64;
                } else {
                    ctx.report.cache.misses += row_count * cols as u64;
                }
            }
        }
        RowMajorSparse::Pattern(p) => {
            let use_cache = cache_rows > 0;
            // A fiber cache big enough for the whole RHS never evicts:
            // recency becomes unobservable and hit/miss collapses to
            // first-touch per cluster.
            let no_evict = use_cache && cache_rows >= lhs.cols();

            let mut total_contrib = 0u64;
            let mut stats = CacheStats::default();
            // The replay pass: spends each planned row in row order.
            // `read_many` goes through the (f64-accumulating) DRAM channel
            // and must keep its original one-call-per-row sequence; the
            // MAC/merge occupancy is pure u64 accumulation at gate 0, so
            // it is summed here and issued once after the walk.
            let replay = |buf: &RowCounts| {
                for &(nnz, hits) in &buf.rows {
                    let nnz = nnz as u64;
                    let hits = hits as u64;
                    let misses = nnz - hits;
                    lhs_burst += nnz * CSR_ELEM_BYTES + INDEX_BYTES;
                    if misses > 0 {
                        ctx.dram.read_many(0, misses, rhs_row_bytes, rhs_class);
                        ctx.report.sram_writes_8b += misses * rhs_row_bytes.div_ceil(8);
                    }
                    if nnz > 0 {
                        ctx.report.sram_reads_8b += nnz * (1 + rhs_row_bytes.div_ceil(8));
                        ctx.report.sram_writes_8b += nnz * f as u64;
                    }
                    total_contrib += nnz;
                    stats.hits += hits;
                    stats.misses += misses;
                }
            };

            let SpSpScratch {
                cache,
                stamp,
                plan: buf,
            } = scratch;
            let walk = |plan: &mut RowCounts| {
                plan.rows.clear();
                if !use_cache {
                    // No fiber cache (MatRaptor): every non-zero is a miss
                    // and nothing is probed, so the plan is the per-row
                    // CSR lengths.
                    for slice in p.row_slices(rows.clone()) {
                        plan.rows.push((slice.len() as u32, 0));
                    }
                } else if no_evict {
                    // First-touch shortcut: same hit/miss outcome as the
                    // LRU walk, without maintaining the intrusive recency
                    // list.
                    stamp.reset(lhs.cols());
                    for slice in p.row_slices(rows.clone()) {
                        let mut hits = 0u32;
                        for &c in slice {
                            if !stamp.first_touch(c) {
                                hits += 1;
                            }
                        }
                        plan.rows.push((slice.len() as u32, hits));
                    }
                } else {
                    // Genuinely evicting LRU: every probe outcome depends
                    // on all prior probes (cluster-boundary flush via
                    // epoch reset).
                    cache.reset(cache_rows, lhs.cols());
                    for slice in p.row_slices(rows.clone()) {
                        let mut hits = 0u32;
                        for &c in slice {
                            if cache.probe(c) {
                                hits += 1;
                            } else {
                                cache.insert(c);
                            }
                        }
                        plan.rows.push((slice.len() as u32, hits));
                    }
                }
            };
            plan::replay_or_plan(slot, buf, walk, replay);

            ctx.mac.scalar_vector_bulk(0, f, total_contrib);
            ctx.mac.occupy(0, merge_cycles * total_contrib);
            if use_cache {
                // Demand insertion fills on every miss, so fills == misses
                // (exactly what `LruRowCache::stats` reports). The
                // cacheless path leaves the report's cache block untouched.
                stats.fills = stats.misses;
                ctx.report.cache.merge(&stats);
            }
        }
    }
    // The LHS CSR stream (C2SR in MatRaptor's terms) is contiguous.
    ctx.dram.read_stream(0, lhs_burst, TrafficClass::LhsSparse);
    ctx.dram.round_burst(lhs_burst, TrafficClass::LhsSparse);
    ctx.report.sram_reads_8b += lhs_burst.div_ceil(8);
    ctx.report.sram_writes_8b += lhs_burst.div_ceil(8);

    // Output written in compressed form (12 B/element) — these engines
    // produce sparse outputs even when the result is dense.
    let out_bytes = row_count * f as u64 * CSR_ELEM_BYTES;
    ctx.dram
        .write(ctx.mac.busy_until(), out_bytes, TrafficClass::Output);
    ctx.report.sram_reads_8b += out_bytes.div_ceil(8);

    let mut report = ctx.finish_cluster();
    report.cycles += DRAM_LATENCY_CYCLES;
    report
}

/// Accounts one LHS row's worth of RHS fetches, MACs, and merge occupancy.
fn record_row(
    ctx: &mut PhaseCtx,
    rhs_class: TrafficClass,
    f: usize,
    rhs_row_bytes: u64,
    merge_cycles: u64,
    hits: u64,
    misses: u64,
) {
    if misses > 0 {
        ctx.dram.read_many(0, misses, rhs_row_bytes, rhs_class);
        ctx.report.sram_writes_8b += misses * rhs_row_bytes.div_ceil(8);
    }
    let contributions = hits + misses;
    if contributions > 0 {
        ctx.mac.scalar_vector_bulk(0, f, contributions);
        ctx.mac.occupy(0, merge_cycles * contributions);
        ctx.report.sram_reads_8b += contributions * (1 + rhs_row_bytes.div_ceil(8));
        ctx.report.sram_writes_8b += contributions * f as u64;
    }
}

/// Implements [`Accelerator`] for a thin wrapper around [`SpSpParams`].
macro_rules! spsp_engine {
    ($engine:ident, $config:ident) => {
        impl Accelerator for $engine {
            fn name(&self) -> &'static str {
                self.params().name
            }

            fn run(&self, workload: &PreparedWorkload) -> RunReport {
                run_spsp(&self.params(), workload)
            }

            fn sram_kb(&self) -> f64 {
                self.params().sram_kb
            }
        }
    };
}
pub(crate) use spsp_engine;
