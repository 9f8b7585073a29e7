//! The GCNAX baseline (Li et al., HPCA 2021) — the state-of-the-art
//! SpDeGEMM GCN accelerator GROW compares against.
//!
//! GCNAX executes the same `A*(X*W)` order but with an *outer-product*
//! dataflow over 2D tiles (Figure 4 of the GROW paper): the sparse LHS is
//! pre-tiled into `Ti x Tk` CSC-compressed tiles; output is produced in
//! `Ti`-row strips held on-chip; for every non-zero column within a strip
//! the corresponding dense RHS row is fetched once and reused across the
//! strip (2D-tile locality). The model reproduces GCNAX's two
//! characteristic behaviors from Section IV:
//!
//! * each non-empty sparse tile is fetched at 64-byte granularity with its
//!   CSC column-pointer metadata, so nearly-empty aggregation tiles waste
//!   most of their DRAM transfer (Figures 5/6);
//! * on high-average-degree graphs (Reddit) the strip-level RHS reuse is
//!   substantial, which is why GCNAX beats GROW on Reddit's traffic
//!   (Section VII-A).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use grow_sim::{
    Cycle, DramConfig, FaultPlan, ScratchArena, TrafficClass, ELEMENT_BYTES, INDEX_BYTES,
};
use grow_sparse::RowMajorSparse;

use crate::exec_model::ExecModel;
use crate::pipeline::{self, PhaseCtx};
use crate::plan;
use crate::{Accelerator, LayerReport, PhaseKind, PhaseReport, PreparedWorkload, RunReport};

/// Per-worker scratch of the strip walk, recycled through a
/// [`ScratchArena`] instead of reallocated per cluster.
#[derive(Debug, Default)]
struct GcnaxScratch {
    /// The current cluster's strip plan (moved out when retained).
    plan: GcnaxPlan,
    /// Non-zeros per `Tk`-wide tile of the current strip (zeroed as the
    /// fetch loop consumes it, so it is all-zero again at strip end).
    tile_nnz: Vec<u32>,
    /// Distinct-column stamps: `stamp[col] == s` when `col` was first seen
    /// in the strip stamped `s`. Stamps are drawn from `next_stamp` and
    /// never reused (see [`GcnaxScratch::strip_stamp`]), so the array
    /// survives cluster and layer boundaries without clearing.
    stamp: Vec<u32>,
    next_stamp: u32,
    /// Outstanding tile fetches of the depth-limited dependent chain.
    in_flight: VecDeque<Cycle>,
}

impl GcnaxScratch {
    /// Sizes the buffers for a phase over a `k_dim`-column LHS. Stamps
    /// stay valid across calls with the same `k_dim`; a dimension change
    /// (combination vs aggregation) re-zeroes the array.
    fn prepare(&mut self, n_tiles_k: usize, k_dim: usize) {
        self.tile_nnz.clear();
        self.tile_nnz.resize(n_tiles_k, 0);
        if self.stamp.len() != k_dim {
            self.stamp.clear();
            self.stamp.resize(k_dim, 0);
            self.next_stamp = 0;
        }
    }

    /// A fresh stamp for one strip, strictly greater than every stamp in
    /// the array (re-zeroing on the — astronomically rare — wraparound).
    fn strip_stamp(&mut self) -> u32 {
        if self.next_stamp == u32::MAX {
            self.stamp.fill(0);
            self.next_stamp = 0;
        }
        self.next_stamp += 1;
        self.next_stamp
    }
}

/// One strip of a [`GcnaxPlan`]: the pure outcome of counting a
/// `tile_rows`-row strip's non-zeros.
#[derive(Debug, Clone, Copy)]
struct StripPlan {
    /// Total non-zeros of the strip.
    nnz: u64,
    /// Distinct non-zero columns of the strip (RHS rows to fetch).
    distinct: u64,
    /// Number of non-empty tiles; their payload non-zero counts occupy
    /// the next `tiles` entries of the plan's flat tile stream.
    tiles: u32,
}

/// The plan-pass output of GCNAX's strip counting over a cluster:
/// per-strip totals plus the flat stream of non-empty tile payloads, in
/// strip-then-tile order. A pure function of the LHS structure and tile
/// geometry, so the aggregation plan (over the layer-invariant
/// adjacency) is retained across layers.
#[derive(Debug, Default)]
struct GcnaxPlan {
    strips: Vec<StripPlan>,
    tiles: Vec<u32>,
}

/// GCNAX configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcnaxConfig {
    /// Tile height `Ti` (output strip rows).
    pub tile_rows: usize,
    /// Tile width `Tk` (inner-dimension span of one sparse tile).
    pub tile_cols: usize,
    /// MAC lanes (matched to GROW for iso-throughput comparison,
    /// Section VI).
    pub mac_lanes: usize,
    /// Dense-operand buffer capacity in bytes; a weight matrix that fits is
    /// fetched once, otherwise dense rows are re-fetched per strip.
    pub dense_buffer_bytes: u64,
    /// Outstanding sparse-tile fetches. GCNAX's tile walk is
    /// address-dependent (the next tile's RHS row list is known only after
    /// its CSC metadata arrives) and double-buffered rather than
    /// runahead-scheduled, so its memory-level parallelism is bounded —
    /// the contrast GROW's multi-row runahead execution exploits
    /// (Sections V-D and VII-C).
    pub tile_fetch_depth: usize,
    /// Off-chip memory parameters.
    pub dram: DramConfig,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
    /// Deterministic fault-injection plan (the uniform `fault=` override;
    /// off by default).
    pub fault: FaultPlan,
}

impl Default for GcnaxConfig {
    fn default() -> Self {
        GcnaxConfig {
            tile_rows: 128,
            tile_cols: 128,
            mac_lanes: 16,
            dense_buffer_bytes: 512 * 1024,
            // Two tile buffers (double buffering) — GCNAX prefetches the
            // next tile while computing the current one, nothing more.
            tile_fetch_depth: 2,
            dram: DramConfig::default(),
            multi_pe: crate::schedule::MultiPeConfig::default(),
            fault: FaultPlan::OFF,
        }
    }
}

/// Counts strip/tile occupancy for the cluster `rows` (the pure plan
/// pass) into `scratch.plan`, replacing its contents: per strip, the
/// non-zero total, distinct columns, and each non-empty tile's payload.
fn plan_strips(
    cfg: &GcnaxConfig,
    lhs: &RowMajorSparse<'_>,
    rows: Range<usize>,
    scratch: &mut GcnaxScratch,
) {
    let k_dim = lhs.cols();
    let n_tiles_k = k_dim.div_ceil(cfg.tile_cols);
    scratch.prepare(n_tiles_k, k_dim);
    scratch.plan.strips.clear();
    scratch.plan.tiles.clear();
    // Tile-index division strength-reduced to a shift for the (default)
    // power-of-two tile width.
    let tile_shift = cfg
        .tile_cols
        .is_power_of_two()
        .then(|| cfg.tile_cols.trailing_zeros());

    let mut row = rows.start;
    while row < rows.end {
        let strip_end = (row + cfg.tile_rows).min(rows.end);
        let strip_stamp = scratch.strip_stamp();
        let GcnaxScratch {
            plan: out,
            tile_nnz,
            stamp,
            ..
        } = &mut *scratch;
        let mut strip_nnz = 0u64;
        let mut distinct = 0u64;

        match *lhs {
            RowMajorSparse::Dense { cols, .. } => {
                // Fast path: every tile is full, every column distinct.
                strip_nnz = ((strip_end - row) * cols) as u64;
                distinct = cols as u64;
                for (t, slot) in tile_nnz.iter_mut().enumerate() {
                    let w = cfg.tile_cols.min(cols - t * cfg.tile_cols);
                    *slot = ((strip_end - row) * w) as u32;
                }
            }
            RowMajorSparse::Pattern(p) => {
                for slice in p.row_slices(row..strip_end) {
                    for &c in slice {
                        let t = match tile_shift {
                            Some(s) => c as usize >> s,
                            None => c as usize / cfg.tile_cols,
                        };
                        tile_nnz[t] += 1;
                        strip_nnz += 1;
                        if stamp[c as usize] != strip_stamp {
                            stamp[c as usize] = strip_stamp;
                            distinct += 1;
                        }
                    }
                }
            }
        }

        // Harvest the non-empty tiles in tile order (the order the fetch
        // chain walks them), re-zeroing the counters for the next strip.
        let before = out.tiles.len();
        for slot in tile_nnz.iter_mut() {
            if *slot > 0 {
                out.tiles.push(*slot);
                *slot = 0;
            }
        }
        out.strips.push(StripPlan {
            nnz: strip_nnz,
            distinct,
            tiles: (out.tiles.len() - before) as u32,
        });
        row = strip_end;
    }
}

/// The GCNAX accelerator timing model.
#[derive(Debug, Clone, Default)]
pub struct GcnaxEngine {
    config: GcnaxConfig,
}

/// Bytes of CSC metadata fetched with each sparse tile: one 16-bit
/// within-tile column pointer per tile column (plus one terminator).
fn tile_metadata_bytes(tile_cols: usize) -> u64 {
    2 * (tile_cols as u64 + 1)
}

impl GcnaxEngine {
    /// Creates an engine with an explicit configuration.
    pub fn new(config: GcnaxConfig) -> Self {
        GcnaxEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GcnaxConfig {
        &self.config
    }

    /// Simulates one SpDeGEMM phase `C[n x f] = LHS[n x k] * RHS[k x f]`.
    ///
    /// A resident RHS (small enough to pin on-chip for the whole phase —
    /// the weight matrix in combination) is preloaded once in a prologue;
    /// otherwise each strip fetches the RHS rows of its distinct non-zero
    /// columns. The strip walk runs cluster by cluster through the shared
    /// harness, in parallel across clusters.
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        &self,
        model: &ExecModel,
        kind: PhaseKind,
        lhs: &RowMajorSparse<'_>,
        f: usize,
        clusters: &[Range<usize>],
        scratch: &ScratchArena<GcnaxScratch>,
        store: Option<&[OnceLock<GcnaxPlan>]>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let mut phase = PhaseReport::new(kind);
        let rhs_bytes = lhs.cols() as u64 * f as u64 * ELEMENT_BYTES;
        let rhs_resident = rhs_bytes <= cfg.dense_buffer_bytes;

        if rhs_resident {
            // One-time weight preload (contiguous).
            let mut pre = PhaseCtx::new(kind, cfg.dram, cfg.mac_lanes);
            pre.now = pre.dram.read_stream(0, rhs_bytes, TrafficClass::Weights);
            pre.dram.round_burst(rhs_bytes, TrafficClass::Weights);
            pre.report.sram_writes_8b += rhs_bytes / 8;
            phase.absorb_sequential(pre.finish());
        }

        let clustered = pipeline::run_clusters(model, kind, clusters, |ci, cluster| {
            let cell = store.map(|st| &st[ci]);
            self.run_strips(
                kind,
                lhs,
                f,
                cluster,
                rhs_resident,
                &mut scratch.checkout(),
                cell,
            )
        });
        phase.absorb_sequential(clustered);
        phase
    }

    /// Walks one cluster's output strips in an isolated context: the pure
    /// strip-counting plan is built in `scratch` and replayed through the
    /// cycle machinery; when `cell` is given, the plan then moves there.
    /// When `cell` holds a plan retained from an earlier layer, the count
    /// pass is skipped entirely and the cached plan replays.
    #[allow(clippy::too_many_arguments)]
    fn run_strips(
        &self,
        kind: PhaseKind,
        lhs: &RowMajorSparse<'_>,
        f: usize,
        rows: Range<usize>,
        rhs_resident: bool,
        scratch: &mut GcnaxScratch,
        cell: Option<&OnceLock<GcnaxPlan>>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let mut ctx = PhaseCtx::new(kind, cfg.dram, cfg.mac_lanes);
        if let Some(plan) = cell.and_then(|c| c.get()) {
            let in_flight = &mut scratch.in_flight;
            self.replay_strips(kind, f, rows, rhs_resident, plan, in_flight, &mut ctx);
        } else {
            plan_strips(cfg, lhs, rows.clone(), scratch);
            let in_flight = &mut scratch.in_flight;
            self.replay_strips(
                kind,
                f,
                rows,
                rhs_resident,
                &scratch.plan,
                in_flight,
                &mut ctx,
            );
            if let Some(cell) = cell {
                cell.set(std::mem::take(&mut scratch.plan)).ok();
            }
        }
        ctx.finish_cluster()
    }

    /// Replays a cluster's strip plan over `rows` through the
    /// cycle-accurate fetch chain.
    #[allow(clippy::too_many_arguments)]
    fn replay_strips(
        &self,
        kind: PhaseKind,
        f: usize,
        rows: Range<usize>,
        rhs_resident: bool,
        buf: &GcnaxPlan,
        in_flight: &mut VecDeque<Cycle>,
        ctx: &mut PhaseCtx,
    ) {
        let cfg = &self.config;
        let row_bytes = f as u64 * ELEMENT_BYTES;

        // Fetch each strip's sparse tiles (CSC, 64 B granularity each —
        // the Figure 10(b) inefficiency) and their RHS rows. Tile fetches
        // form a depth-limited dependent chain: tile `i` cannot issue
        // before tile `i - depth` has returned (its CSC metadata steers
        // the walk), and a tile's RHS row fetches issue only once that
        // tile's metadata is on-chip. This bounded MLP is the structural
        // disadvantage against GROW's runahead.
        let meta = tile_metadata_bytes(cfg.tile_cols);
        let class = match kind {
            PhaseKind::Combination => TrafficClass::Weights,
            PhaseKind::Aggregation => TrafficClass::RhsRows,
        };
        let depth = cfg.tile_fetch_depth.max(1);

        // Double buffering: strip s+1's fetches start once strip s's
        // fetches have drained into the compute buffer; the FIFO channel
        // serializes the transfers themselves.
        let mut issue_at: Cycle = 0;
        let mut tile_cursor = 0usize;
        let mut row = rows.start;
        for sp in &buf.strips {
            let strip_end = (row + cfg.tile_rows).min(rows.end);
            let tiles = &buf.tiles[tile_cursor..tile_cursor + sp.tiles as usize];
            tile_cursor += sp.tiles as usize;

            in_flight.clear();
            let mut fetch_done = issue_at;
            let avg_rows_per_tile = if sp.distinct > 0 {
                sp.distinct as f64 / (sp.tiles as usize).max(1) as f64
            } else {
                0.0
            };
            let mut rows_remaining = sp.distinct;
            for &slot in tiles {
                let gate = if in_flight.len() >= depth {
                    in_flight.pop_front().expect("non-empty at capacity")
                } else {
                    issue_at
                };
                let payload = slot as u64 * (ELEMENT_BYTES + INDEX_BYTES);
                let tile_done =
                    ctx.dram
                        .read_with_overhead(gate, payload, meta, TrafficClass::LhsSparse);
                ctx.report.sram_writes_8b += (payload + meta).div_ceil(8);
                let mut done = tile_done;
                if !rhs_resident && rows_remaining > 0 {
                    // This tile's share of the strip's distinct RHS rows,
                    // issued once its column list is known.
                    let rows = (avg_rows_per_tile.round() as u64)
                        .min(rows_remaining)
                        .max(1);
                    rows_remaining -= rows;
                    done = ctx.dram.read_many(tile_done, rows, row_bytes, class);
                    ctx.report.sram_writes_8b += rows * f as u64;
                }
                in_flight.push_back(done);
                fetch_done = fetch_done.max(done);
            }
            if !rhs_resident && rows_remaining > 0 {
                fetch_done = fetch_done.max(ctx.dram.read_many(
                    fetch_done,
                    rows_remaining,
                    row_bytes,
                    class,
                ));
                ctx.report.sram_writes_8b += rows_remaining * f as u64;
            }

            // Compute the strip (outer product: every non-zero multiplies
            // an f-wide RHS row), double-buffered against the next strip's
            // fetches.
            let compute_done = ctx.mac.scalar_vector_bulk(fetch_done, f, sp.nnz);
            ctx.report.sram_reads_8b += sp.nnz * (1 + f as u64);
            ctx.report.sram_writes_8b += sp.nnz * f as u64;

            // Write the finished output strip back (contiguous).
            let out_bytes = ((strip_end - row) * f) as u64 * ELEMENT_BYTES;
            ctx.dram
                .write(compute_done, out_bytes, TrafficClass::Output);
            ctx.report.sram_reads_8b += out_bytes / 8;

            issue_at = fetch_done.max(issue_at);
            row = strip_end;
        }
    }
}

impl Accelerator for GcnaxEngine {
    fn name(&self) -> &'static str {
        "GCNAX"
    }

    fn run(&self, workload: &PreparedWorkload) -> RunReport {
        let adjacency = RowMajorSparse::Pattern(&workload.adjacency);
        // One scratch pool per run: strip counters and plan buffers are
        // recycled across clusters, phases, and layers.
        let scratch: ScratchArena<GcnaxScratch> = ScratchArena::new();
        // The aggregation plan is a pure function of the layer-invariant
        // adjacency, so runs replay retained plans. The family carries
        // the tile grain (the plan depends on it). The combination LHS
        // changes per layer, so no retention there.
        let agg_slots = plan::plan_slots::<GcnaxPlan>(
            workload,
            &format!("gcnax:{}x{}", self.config.tile_rows, self.config.tile_cols),
            true,
        );
        let agg_store = agg_slots.as_deref().map(Vec::as_slice);
        let model = ExecModel::with_dram(self.config.multi_pe, self.config.dram);
        let mut report = pipeline::run_layers(self.name(), workload, self.config.fault, |layer| {
            LayerReport {
                combination: self.run_phase(
                    &model,
                    PhaseKind::Combination,
                    &layer.x.view(),
                    layer.f_out,
                    &workload.clusters,
                    &scratch,
                    None,
                ),
                aggregation: self.run_phase(
                    &model,
                    PhaseKind::Aggregation,
                    &adjacency,
                    layer.f_out,
                    &workload.clusters,
                    &scratch,
                    agg_store,
                ),
            }
        });
        model.finalize(&mut report);
        report
    }

    fn sram_kb(&self) -> f64 {
        // GCNAX's on-chip storage (input tile buffers + dense buffer +
        // output strip buffer) is provisioned comparably to GROW
        // (Section VI: "provisioned with similar on-chip SRAM capacity").
        (self.config.dense_buffer_bytes as f64
            + (self.config.tile_rows * self.config.tile_cols) as f64 * 12.0
            + (self.config.tile_rows * 64) as f64 * ELEMENT_BYTES as f64)
            / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, PartitionStrategy, PreparedWorkload};
    use grow_model::DatasetKey;

    fn prepared(nodes: usize) -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(nodes).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn mac_ops_match_grow_invariant() {
        // Section VI: iso-computation comparison — GCNAX performs the same
        // MACs as GROW for the same workload.
        let p = prepared(600);
        let gcnax = GcnaxEngine::default().run(&p);
        let grow = crate::GrowEngine::default().run(&p);
        assert_eq!(gcnax.mac_ops(), grow.mac_ops());
    }

    #[test]
    fn sparse_tiles_waste_bandwidth() {
        // Figure 6: on a sparse adjacency, effective bandwidth utilization
        // of the A fetches is low (metadata + granularity rounding). Scale
        // matters: a node-scaled graph with preserved degree is *denser*
        // than the paper's, so force a paper-like tile density (a few nnz
        // per 128x128 tile) with a low-degree spec.
        let mut spec = DatasetKey::Pubmed.spec().scaled_to(6000);
        spec.avg_degree = 2.0;
        let w = spec.instantiate(3);
        let p = prepare(&w, PartitionStrategy::None, 4096);
        let r = GcnaxEngine::default().run(&p);
        let agg = &r.layers[0].aggregation.traffic;
        let util = agg.utilization(TrafficClass::LhsSparse).unwrap();
        assert!(util < 0.45, "A-fetch utilization {util} should be poor");
    }

    #[test]
    fn combination_utilization_is_higher_than_aggregation() {
        // Figure 6: X tiles are dense (black bars high), A tiles are not.
        let p = prepared(2000);
        let r = GcnaxEngine::default().run(&p);
        let comb = r.layers[1]
            .combination
            .traffic
            .utilization(TrafficClass::LhsSparse)
            .unwrap();
        let agg = r.layers[1]
            .aggregation
            .traffic
            .utilization(TrafficClass::LhsSparse)
            .unwrap();
        assert!(comb > agg, "combination {comb} vs aggregation {agg}");
    }

    #[test]
    fn weights_fetched_once_when_resident() {
        let p = prepared(500);
        let r = GcnaxEngine::default().run(&p);
        // Pubmed layer 1: W is 500x16x8 = 64 KB < 512 KB buffer.
        let useful = r.layers[0]
            .combination
            .traffic
            .useful_bytes(TrafficClass::Weights);
        assert_eq!(useful, 500 * 16 * 8);
    }

    #[test]
    fn strip_reuse_bounds_rhs_traffic() {
        // RHS fetches per strip are bounded by distinct columns, which is
        // at most the strip's nnz and at most k_dim. Shrink the dense
        // buffer so XW is not resident (at full scale it never is).
        let p = prepared(1000);
        let engine = GcnaxEngine::new(GcnaxConfig {
            dense_buffer_bytes: 16 * 1024,
            ..GcnaxConfig::default()
        });
        let r = engine.run(&p);
        let agg = &r.layers[0].aggregation;
        let rhs_rows_fetched = agg.traffic.requests(TrafficClass::RhsRows);
        let nnz = p.adjacency.nnz() as u64;
        assert!(rhs_rows_fetched <= nnz);
        assert!(rhs_rows_fetched > 0);
    }

    #[test]
    fn small_rhs_stays_resident() {
        // For graphs whose whole XW fits in the dense buffer (the small
        // Table I datasets), GCNAX holds it on-chip: no per-strip RHS row
        // fetches at all.
        let p = prepared(1000);
        let r = GcnaxEngine::default().run(&p);
        // Pubmed layer 1: XW is 1000 x 16 x 8 B = 128 KB < 512 KB.
        assert_eq!(
            r.layers[0]
                .aggregation
                .traffic
                .requests(TrafficClass::RhsRows),
            0
        );
    }

    #[test]
    fn deterministic() {
        let p = prepared(400);
        let e = GcnaxEngine::default();
        assert_eq!(e.run(&p), e.run(&p));
    }

    #[test]
    fn tile_fetch_depth_ablation() {
        // DESIGN.md §2.6: bounded tile-fetch parallelism is GCNAX's
        // structural disadvantage. More outstanding fetches must help
        // monotonically (and not change traffic, which is depth-invariant).
        let mut spec = DatasetKey::Pubmed.spec().scaled_to(6000);
        spec.avg_degree = 4.0;
        let w = spec.instantiate(3);
        let p = prepare(&w, PartitionStrategy::None, 4096);
        let run = |depth: usize| {
            GcnaxEngine::new(GcnaxConfig {
                tile_fetch_depth: depth,
                ..GcnaxConfig::default()
            })
            .run(&p)
        };
        let d1 = run(1);
        let d2 = run(2);
        let d8 = run(8);
        assert!(
            d1.total_cycles() >= d2.total_cycles(),
            "{} < {}",
            d1.total_cycles(),
            d2.total_cycles()
        );
        assert!(
            d2.total_cycles() >= d8.total_cycles(),
            "{} < {}",
            d2.total_cycles(),
            d8.total_cycles()
        );
        assert!(
            d1.total_cycles() > d8.total_cycles(),
            "depth must matter on sparse tiles"
        );
        assert_eq!(
            d1.dram_bytes(),
            d8.dram_bytes(),
            "traffic is depth-invariant"
        );
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-cluster range list is intentional
    fn dense_fast_path_matches_pattern_path() {
        // A fully dense X simulated via the Dense view must produce the
        // same traffic/compute as the equivalent explicit pattern.
        let cfg = GcnaxConfig::default();
        let engine = GcnaxEngine::new(cfg);
        let dense_view = RowMajorSparse::Dense {
            rows: 300,
            cols: 70,
        };
        let pattern = grow_sparse::CsrPattern::dense(300, 70);
        let pattern_view = RowMajorSparse::Pattern(&pattern);
        let arena = ScratchArena::new();
        let model = ExecModel::with_dram(cfg.multi_pe, cfg.dram);
        let a = engine.run_phase(
            &model,
            PhaseKind::Combination,
            &dense_view,
            16,
            &[0..300],
            &arena,
            None,
        );
        let b = engine.run_phase(
            &model,
            PhaseKind::Combination,
            &pattern_view,
            16,
            &[0..300],
            &arena,
            None,
        );
        assert_eq!(a.mac_ops, b.mac_ops);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.cycles, b.cycles);
    }
}
