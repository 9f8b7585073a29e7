//! The MatRaptor baseline (Srivastava et al., MICRO 2020): a row-wise
//! product sparse-sparse GEMM accelerator with no RHS caching.
//!
//! Section VII-H attributes GROW's 9.3x average speedup (and 18x average /
//! 46x maximum traffic reduction) over MatRaptor to three factors, all
//! modeled here: no cache means every non-zero re-fetches its RHS row
//! (catastrophic in combination, where the small dense `W` is re-fetched
//! per `X` non-zero), CSR-compressed RHS adds 50% metadata bytes, and
//! sorting-queue-based partial-sum merging occupies the pipeline.

use crate::spsp::{run_spsp, spsp_engine, SpSpParams};
use crate::{Accelerator, PreparedWorkload, RunReport};

/// MatRaptor configuration. The channel is Table III's
/// ([`grow_sim::DRAM_BYTES_PER_CYCLE`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatRaptorConfig {
    /// Merge occupancy relative to a MAC op (sorting queues: 1.0).
    pub merge_factor: f64,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
}

impl Default for MatRaptorConfig {
    fn default() -> Self {
        MatRaptorConfig {
            merge_factor: 1.0,
            multi_pe: crate::schedule::MultiPeConfig::default(),
        }
    }
}

/// The MatRaptor accelerator timing model.
#[derive(Debug, Clone, Default)]
pub struct MatRaptorEngine {
    config: MatRaptorConfig,
}

impl MatRaptorEngine {
    /// Creates an engine with an explicit configuration.
    pub fn new(config: MatRaptorConfig) -> Self {
        MatRaptorEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &MatRaptorConfig {
        &self.config
    }

    fn params(&self) -> SpSpParams {
        SpSpParams {
            name: "MatRaptor",
            fiber_cache_bytes: 0,
            merge_factor: self.config.merge_factor,
            // MatRaptor's on-chip storage is its sorting queue array
            // (~12 queues x a few KB) plus stream buffers.
            sram_kb: 64.0,
            multi_pe: self.config.multi_pe,
        }
    }
}

spsp_engine!(MatRaptorEngine, MatRaptorConfig);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, GrowEngine, PartitionStrategy};
    use grow_model::DatasetKey;
    use grow_sim::TrafficClass;

    fn prepared(nodes: usize) -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(nodes).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn no_cache_means_no_hits() {
        let p = prepared(600);
        let r = MatRaptorEngine::default().run(&p);
        for l in &r.layers {
            assert_eq!(l.aggregation.cache.hits, 0);
            assert_eq!(l.combination.cache.hits, 0);
        }
    }

    #[test]
    fn weight_refetch_dominates_combination() {
        // Without caching, every X non-zero fetches a W row from DRAM.
        let p = prepared(600);
        let r = MatRaptorEngine::default().run(&p);
        let comb = &r.layers[0].combination;
        let x_nnz = p.layers[0].x.nnz() as u64;
        assert_eq!(comb.traffic.requests(TrafficClass::Weights), x_nnz);
    }

    #[test]
    fn far_more_traffic_than_grow() {
        // Section VII-H: 18x average traffic reduction for GROW.
        let p = prepared(1000);
        let mat = MatRaptorEngine::default().run(&p);
        let grow = GrowEngine::default().run(&p);
        let ratio = mat.dram_bytes() as f64 / grow.dram_bytes() as f64;
        assert!(ratio > 4.0, "traffic ratio {ratio}");
        assert_eq!(
            mat.mac_ops(),
            grow.mac_ops(),
            "same MACs, different movement"
        );
    }

    #[test]
    fn merge_overhead_occupies_pipeline() {
        let p = prepared(400);
        let with_merge = MatRaptorEngine::default().run(&p);
        let without = MatRaptorEngine::new(MatRaptorConfig {
            merge_factor: 0.0,
            ..MatRaptorConfig::default()
        })
        .run(&p);
        assert!(
            with_merge.layers[0].aggregation.compute_busy
                > without.layers[0].aggregation.compute_busy
        );
    }

    #[test]
    fn deterministic() {
        let p = prepared(300);
        let e = MatRaptorEngine::default();
        assert_eq!(e.run(&p.clone()), e.run(&p.clone()));
    }
}
