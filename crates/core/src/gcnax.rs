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
//!
//! The tile width (128), the dense buffer (512 KB, iso-SRAM with GROW's
//! HDN cache) and the tile-fetch depth (2) are constants; [`GcnaxConfig`]
//! holds what the evaluation varies. A cluster's strip plan is a pure
//! function of its LHS structure and the tile grain, so every aggregation
//! phase files its plans under the family `gcnax:{tile_rows}x128` and
//! replays them at later layers, runs and jobs (see [`plan::plan_slots`]).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use grow_sim::{
    Cycle, ScratchArena, TrafficClass, DRAM_BYTES_PER_CYCLE, ELEMENT_BYTES, INDEX_BYTES,
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
    /// The current strip's distinct columns (reset once per strip).
    columns: plan::StampSet,
    /// Outstanding tile fetches of the depth-limited dependent chain.
    in_flight: VecDeque<Cycle>,
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

/// Tile width `Tk` (inner-dimension span of one sparse tile).
const TILE_COLS: usize = 128;
/// Bytes of CSC metadata fetched with each sparse tile: one 16-bit
/// within-tile column pointer per tile column (plus one terminator).
const TILE_METADATA_BYTES: u64 = 2 * (TILE_COLS as u64 + 1);

/// Dense-operand buffer capacity in bytes, iso-SRAM with GROW's HDN cache
/// (Section VI: "provisioned with similar on-chip SRAM capacity"); an RHS
/// that fits is fetched once, otherwise dense rows are re-fetched per
/// strip.
const DENSE_BUFFER_BYTES: u64 = grow_energy::HDN_CACHE_KB * 1024;
/// Outstanding sparse-tile fetches: two tile buffers (double buffering).
/// GCNAX's tile walk is address-dependent (the next tile's RHS row list is
/// known only after its CSC metadata arrives) and double-buffered rather
/// than runahead-scheduled, so its memory-level parallelism is bounded —
/// the contrast GROW's multi-row runahead execution exploits (Sections
/// V-D and VII-C).
const TILE_FETCH_DEPTH: usize = 2;

/// GCNAX configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcnaxConfig {
    /// Tile height `Ti` (output strip rows).
    pub tile_rows: usize,
    /// Off-chip bandwidth in bytes per cycle (Table III:
    /// [`DRAM_BYTES_PER_CYCLE`]; Figure 25b sweeps it).
    pub dram_bytes_per_cycle: f64,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
}

impl Default for GcnaxConfig {
    fn default() -> Self {
        GcnaxConfig {
            tile_rows: 128,
            dram_bytes_per_cycle: DRAM_BYTES_PER_CYCLE,
            multi_pe: crate::schedule::MultiPeConfig::default(),
        }
    }
}

/// Counts strip/tile occupancy for the cluster `rows` (the pure plan
/// pass) into `out`, replacing its contents: per strip, the non-zero
/// total, distinct columns, and each non-empty tile's payload.
/// `tile_nnz` and `columns` are the walk's scratch.
fn plan_strips(
    cfg: &GcnaxConfig,
    lhs: &RowMajorSparse<'_>,
    rows: Range<usize>,
    tile_nnz: &mut Vec<u32>,
    columns: &mut plan::StampSet,
    out: &mut GcnaxPlan,
) {
    let k_dim = lhs.cols();
    tile_nnz.clear();
    tile_nnz.resize(k_dim.div_ceil(TILE_COLS), 0);
    out.strips.clear();
    out.tiles.clear();

    let mut row = rows.start;
    while row < rows.end {
        let strip_end = (row + cfg.tile_rows).min(rows.end);
        let mut strip_nnz = 0u64;
        let mut distinct = 0u64;

        match *lhs {
            RowMajorSparse::Dense { cols, .. } => {
                // Fast path: every tile is full, every column distinct.
                strip_nnz = ((strip_end - row) * cols) as u64;
                distinct = cols as u64;
                for (t, slot) in tile_nnz.iter_mut().enumerate() {
                    let w = TILE_COLS.min(cols - t * TILE_COLS);
                    *slot = ((strip_end - row) * w) as u32;
                }
            }
            RowMajorSparse::Pattern(p) => {
                columns.reset(k_dim);
                for slice in p.row_slices(row..strip_end) {
                    for &c in slice {
                        tile_nnz[c as usize / TILE_COLS] += 1;
                        strip_nnz += 1;
                        distinct += u64::from(columns.first_touch(c));
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
        slots: Option<&[OnceLock<GcnaxPlan>]>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let mut phase = PhaseReport::new(kind);
        let rhs_bytes = lhs.cols() as u64 * f as u64 * ELEMENT_BYTES;
        let rhs_resident = rhs_bytes <= DENSE_BUFFER_BYTES;

        if rhs_resident {
            // One-time weight preload (contiguous).
            let mut pre = PhaseCtx::new(kind, cfg.dram_bytes_per_cycle);
            pre.now = pre.dram.read_stream(0, rhs_bytes, TrafficClass::Weights);
            pre.dram.round_burst(rhs_bytes, TrafficClass::Weights);
            pre.report.sram_writes_8b += rhs_bytes / 8;
            phase.absorb_sequential(pre.finish());
        }

        let clustered = pipeline::run_clusters(model, kind, clusters, |ci, cluster| {
            let slot = slots.map(|slots| &slots[ci]);
            self.run_strips(
                kind,
                lhs,
                f,
                cluster,
                rhs_resident,
                &mut scratch.checkout(),
                slot,
            )
        });
        phase.absorb_sequential(clustered);
        phase
    }

    /// Walks one cluster's output strips in an isolated context: the pure
    /// strip-counting plan is replayed from `slot` or built in `scratch`
    /// and replayed (see [`plan::replay_or_plan`]) through the cycle
    /// machinery.
    #[allow(clippy::too_many_arguments)]
    fn run_strips(
        &self,
        kind: PhaseKind,
        lhs: &RowMajorSparse<'_>,
        f: usize,
        rows: Range<usize>,
        rhs_resident: bool,
        scratch: &mut GcnaxScratch,
        slot: Option<&OnceLock<GcnaxPlan>>,
    ) -> PhaseReport {
        let cfg = &self.config;
        let mut ctx = PhaseCtx::new(kind, cfg.dram_bytes_per_cycle);
        let GcnaxScratch {
            plan: buf,
            tile_nnz,
            columns,
            in_flight,
        } = scratch;
        plan::replay_or_plan(
            slot,
            buf,
            |buf| plan_strips(cfg, lhs, rows.clone(), tile_nnz, columns, buf),
            |plan| self.replay_strips(kind, f, &rows, rhs_resident, plan, in_flight, &mut ctx),
        );
        ctx.finish_cluster()
    }

    /// Replays a cluster's strip plan over `rows` through the
    /// cycle-accurate fetch chain.
    #[allow(clippy::too_many_arguments)]
    fn replay_strips(
        &self,
        kind: PhaseKind,
        f: usize,
        rows: &Range<usize>,
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
        let class = match kind {
            PhaseKind::Combination => TrafficClass::Weights,
            PhaseKind::Aggregation => TrafficClass::RhsRows,
        };
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
                let gate = if in_flight.len() >= TILE_FETCH_DEPTH {
                    in_flight.pop_front().expect("non-empty at capacity")
                } else {
                    issue_at
                };
                let payload = slot as u64 * (ELEMENT_BYTES + INDEX_BYTES);
                let tile_done = ctx.dram.read_with_overhead(
                    gate,
                    payload,
                    TILE_METADATA_BYTES,
                    TrafficClass::LhsSparse,
                );
                ctx.report.sram_writes_8b += (payload + TILE_METADATA_BYTES).div_ceil(8);
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
        // The combination LHS changes per layer, so only aggregation
        // plans are kept.
        let family = format!("gcnax:{}x{TILE_COLS}", self.config.tile_rows);
        let model = ExecModel::new(self.config.multi_pe, self.config.dram_bytes_per_cycle);
        let mut report = pipeline::run_layers(self.name(), workload, |layer| {
            let agg_slots = plan::plan_slots::<GcnaxPlan>(workload, Some(&family));
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
                    agg_slots.as_deref().map(Vec::as_slice),
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
        (DENSE_BUFFER_BYTES as f64
            + (self.config.tile_rows * TILE_COLS) as f64 * 12.0
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
        // at most the strip's nnz and at most k_dim. Pubmed layer 1 at
        // 5,000 nodes: XW is 5000 x 16 x 8 B = 640 KB, over the 512 KB
        // dense buffer, so it is not resident (at full scale it never is).
        let p = prepared(5000);
        let r = GcnaxEngine::default().run(&p);
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
        assert_eq!(e.run(&p.clone()), e.run(&p.clone()));
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
        let model = ExecModel::new(cfg.multi_pe, cfg.dram_bytes_per_cycle);
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
