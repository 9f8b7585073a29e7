//! Advanced aggregation functions (the Section VIII discussion).
//!
//! The paper argues GROW's row-stationary dataflow extends beyond the
//! plain GCN sum-aggregator and sizes the extra hardware each variant
//! needs:
//!
//! * **SAGEConv** (mean / pool over sampled neighbors): the sampled node
//!   ID list drives the same row-wise fetches; mean runs on the MAC array
//!   as-is, pooling needs a vector *comparator* array (+1.4% area);
//! * **GIN**: "refactored into multiple consecutive W matrices so GROW is
//!   fully capable of supporting GIN as-is" — an extra dense combination
//!   pass (the MLP's second layer);
//! * **GAT**: attention adds per-edge MLP work on the MAC array plus a
//!   softmax unit (~16% of the MAC array => ~1.7% chip-wide area).

use grow_sim::{Dram, MacArray, TrafficClass, ELEMENT_BYTES, INDEX_BYTES};
use grow_sparse::CsrPattern;

use crate::pipeline::MAC_LANES;
use crate::{
    Accelerator, GrowEngine, LayerReport, PhaseKind, PhaseReport, PreparedWorkload, RunReport,
};

/// Which aggregation function the GCN layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationKind {
    /// The paper's default: normalized-sum aggregation (Equation 1).
    GcnSum,
    /// GraphSAGE mean aggregator over up to `sample` neighbors per node
    /// (`None` = all neighbors).
    SageMean {
        /// Neighbor sample size (GraphSAGE uses e.g. 25/10).
        sample: Option<usize>,
    },
    /// GraphSAGE max-pool aggregator (vector comparator array instead of
    /// MACs for the aggregation phase).
    SagePool {
        /// Neighbor sample size.
        sample: Option<usize>,
    },
    /// Graph Isomorphism Network: sum aggregation plus a 2-layer MLP.
    Gin,
    /// Graph attention: per-edge attention coefficients + softmax.
    Gat,
}

impl AggregationKind {
    /// Extra die area this aggregator needs, as a fraction of the default
    /// GROW design (Section VIII's estimates: pooling comparator array
    /// +1.4%, GAT softmax unit +1.7%, others none).
    pub fn area_overhead_fraction(&self) -> f64 {
        match self {
            AggregationKind::SagePool { .. } => 0.014,
            AggregationKind::Gat => 0.017,
            _ => 0.0,
        }
    }
}

/// Caps every adjacency row at `sample` entries (neighbor sampling:
/// GraphSAGE processes a fixed-size sampled neighborhood).
fn sample_adjacency(adjacency: &CsrPattern, sample: usize) -> CsrPattern {
    let mut indptr = Vec::with_capacity(adjacency.rows() + 1);
    let mut indices = Vec::new();
    indptr.push(0usize);
    for r in 0..adjacency.rows() {
        let row = adjacency.row_indices(r);
        let take = row.len().min(sample);
        // Deterministic prefix sample: for timing purposes only the count
        // and locality class matter, and the prefix preserves both.
        indices.extend_from_slice(&row[..take]);
        indptr.push(indices.len());
    }
    CsrPattern::from_raw(adjacency.rows(), adjacency.cols(), indptr, indices)
        .expect("sampled pattern is structurally valid")
}

/// Runs GROW with an advanced aggregation function and returns the full
/// report (plus any extra phases the aggregator needs).
///
/// The underlying dataflow is unchanged — that is the Section VIII claim
/// being modeled: sampling shrinks the aggregation phase, GIN appends a
/// dense combination pass, and GAT prepends a per-edge attention pass.
pub fn run_with_aggregation(
    engine: &GrowEngine,
    workload: &PreparedWorkload,
    kind: AggregationKind,
) -> RunReport {
    let sampled;
    let effective: &PreparedWorkload = match kind {
        AggregationKind::SageMean { sample: Some(s) }
        | AggregationKind::SagePool { sample: Some(s) } => {
            // A clone carries no plans, so the sampled copy neither
            // replays nor keeps the original adjacency's plans.
            let mut w = workload.clone();
            w.adjacency = sample_adjacency(&workload.adjacency, s);
            sampled = w;
            &sampled
        }
        _ => workload,
    };
    let mut report = engine.run(effective);

    match kind {
        AggregationKind::Gin => {
            // The GIN MLP's second layer: one extra dense GEMM
            // (n x f_out) * (f_out x f_out) per GCN layer, executed as a
            // combination pass on the same engine.
            for layer in &mut report.layers {
                let extra = gin_mlp_phase(engine, effective.nodes, layer_f_out(layer));
                merge_extra_phase(&mut layer.combination, extra);
            }
        }
        AggregationKind::Gat => {
            // Attention coefficients: per edge, two dot products of width
            // f_out on the MAC array plus a softmax pass per row on the
            // dedicated unit (off the critical MAC path).
            for layer in &mut report.layers {
                let extra = gat_attention_phase(engine, &effective.adjacency, layer_f_out(layer));
                merge_extra_phase(&mut layer.aggregation, extra);
            }
        }
        _ => {}
    }
    // GIN/GAT added phase work above; re-finalize through the engine's
    // execution model so the summary always describes the report it is
    // attached to (under either exec model).
    let config = engine.config();
    crate::exec_model::ExecModel::new(config.multi_pe, config.dram_bytes_per_cycle)
        .finalize(&mut report);
    report
}

fn layer_f_out(layer: &LayerReport) -> usize {
    // Recover f_out from the exact output-write accounting: useful output
    // bytes = rows * f_out * 8 per phase; mac ops per nnz = f_out. The
    // aggregation phase's MAC count / probe count gives it directly.
    let probes = layer.aggregation.cache.hits + layer.aggregation.cache.misses;
    layer
        .aggregation
        .mac_ops
        .checked_div(probes)
        .map_or(16, |f| f as usize)
}

fn gin_mlp_phase(engine: &GrowEngine, nodes: usize, f_out: usize) -> PhaseReport {
    let mut phase = PhaseReport::new(PhaseKind::Combination);
    let mut dram = Dram::new(engine.config().dram_bytes_per_cycle);
    let mut mac = MacArray::new(MAC_LANES);
    // Read the n x f_out intermediate back, multiply by the (on-chip)
    // f_out x f_out MLP weight, write the result.
    let bytes = nodes as u64 * f_out as u64 * ELEMENT_BYTES;
    dram.read_stream(0, bytes, TrafficClass::LhsSparse);
    dram.round_burst(bytes, TrafficClass::LhsSparse);
    dram.read_stream(
        0,
        (f_out * f_out) as u64 * ELEMENT_BYTES,
        TrafficClass::Weights,
    );
    mac.scalar_vector_bulk(0, f_out, nodes as u64 * f_out as u64);
    dram.write(mac.busy_until(), bytes, TrafficClass::Output);
    phase.cycles = mac.busy_until().max(dram.busy_until());
    phase.compute_busy = mac.busy_cycles();
    phase.mac_ops = mac.mac_ops();
    phase.traffic = dram.stats().clone();
    phase
}

fn gat_attention_phase(engine: &GrowEngine, adjacency: &CsrPattern, f_out: usize) -> PhaseReport {
    let mut phase = PhaseReport::new(PhaseKind::Aggregation);
    let mut dram = Dram::new(engine.config().dram_bytes_per_cycle);
    let mut mac = MacArray::new(MAC_LANES);
    let nnz = adjacency.nnz() as u64;
    // Per edge: a^T [W h_i || W h_j] — two f_out-wide dot products. The
    // h vectors are the same rows the aggregation pass streams, so no
    // extra RHS traffic beyond re-reading the edge list.
    let stream = nnz * (ELEMENT_BYTES + INDEX_BYTES);
    dram.read_stream(0, stream, TrafficClass::LhsSparse);
    dram.round_burst(stream, TrafficClass::LhsSparse);
    mac.scalar_vector_bulk(0, f_out, 2 * nnz);
    // Softmax normalization runs on the dedicated unit (Section VIII's
    // +16%-of-MAC-array block), pipelined with the MACs — it adds area,
    // not MAC-array cycles.
    phase.cycles = mac.busy_until().max(dram.busy_until());
    phase.compute_busy = mac.busy_cycles();
    phase.mac_ops = mac.mac_ops();
    phase.traffic = dram.stats().clone();
    phase
}

fn merge_extra_phase(into: &mut PhaseReport, extra: PhaseReport) {
    into.cycles += extra.cycles;
    into.compute_busy += extra.compute_busy;
    into.mac_ops += extra.mac_ops;
    into.traffic.merge(&extra.traffic);
    into.sram_reads_8b += extra.sram_reads_8b;
    into.sram_writes_8b += extra.sram_writes_8b;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, PartitionStrategy};
    use grow_model::DatasetKey;

    fn prepared() -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(800).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn area_overheads_match_section8() {
        assert_eq!(AggregationKind::GcnSum.area_overhead_fraction(), 0.0);
        assert_eq!(
            AggregationKind::SagePool { sample: None }.area_overhead_fraction(),
            0.014
        );
        assert_eq!(AggregationKind::Gat.area_overhead_fraction(), 0.017);
        assert_eq!(AggregationKind::Gin.area_overhead_fraction(), 0.0);
    }

    #[test]
    fn sage_sampling_caps_row_degree() {
        let p = prepared();
        let sampled = sample_adjacency(&p.adjacency, 5);
        assert!(
            (0..sampled.rows()).all(|r| sampled.row_nnz(r) <= 5),
            "sampling must cap neighborhood size"
        );
        assert!(sampled.nnz() < p.adjacency.nnz());
    }

    #[test]
    fn sage_mean_with_sampling_is_cheaper_than_full_gcn() {
        let p = prepared();
        let engine = GrowEngine::default();
        let full = run_with_aggregation(&engine, &p, AggregationKind::GcnSum);
        let sage = run_with_aggregation(&engine, &p, AggregationKind::SageMean { sample: Some(3) });
        assert!(sage.total_cycles() <= full.total_cycles());
        assert!(sage.mac_ops() < full.mac_ops());
    }

    #[test]
    fn gcn_sum_matches_plain_engine() {
        let p = prepared();
        let engine = GrowEngine::default();
        assert_eq!(
            run_with_aggregation(&engine, &p, AggregationKind::GcnSum),
            engine.run(&p)
        );
    }

    #[test]
    fn gin_adds_mlp_work() {
        let p = prepared();
        let engine = GrowEngine::default();
        let gcn = engine.run(&p);
        let gin = run_with_aggregation(&engine, &p, AggregationKind::Gin);
        assert!(gin.mac_ops() > gcn.mac_ops());
        assert!(gin.total_cycles() > gcn.total_cycles());
    }

    #[test]
    fn gat_adds_two_dot_products_per_edge() {
        let p = prepared();
        let engine = GrowEngine::default();
        let gcn = engine.run(&p);
        let gat = run_with_aggregation(&engine, &p, AggregationKind::Gat);
        let extra = gat.mac_ops() - gcn.mac_ops();
        // Two f_out-wide dot products per adjacency non-zero per layer.
        let expected: u64 = gcn
            .layers
            .iter()
            .map(|l| {
                let probes = l.aggregation.cache.hits + l.aggregation.cache.misses;
                2 * probes * (l.aggregation.mac_ops / probes.max(1))
            })
            .sum();
        assert_eq!(extra, expected);
    }
}
