//! The GAMMA baseline (Zhang et al., ASPLOS 2021): a Gustavson-dataflow
//! sparse-sparse GEMM accelerator with a demand-filled fiber cache.
//!
//! GAMMA is the strongest sparse-sparse comparator in Section VII-H (GROW
//! is 1.5x faster and moves 4x less data on average). The model captures
//! why the gap remains: the fiber cache is LRU-managed rather than
//! power-law-aware (no pinning of high-degree nodes, no partitioning-based
//! locality), the RHS is CSR-compressed (+50% bytes per row), and the
//! high-radix merger still occupies the pipeline (at half a MAC op per
//! contribution — it is pipelined, unlike MatRaptor's sorting queues).

use grow_sim::{DramConfig, FaultPlan};

use crate::spsp::{run_spsp, spsp_engine, SpSpParams};
use crate::{Accelerator, PreparedWorkload, RunReport};

/// GAMMA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaConfig {
    /// Off-chip memory parameters.
    pub dram: DramConfig,
    /// Fiber cache capacity in bytes (sized like GROW's HDN cache for an
    /// iso-SRAM comparison, per Section VI).
    pub fiber_cache_bytes: u64,
    /// Merge occupancy relative to a MAC op (pipelined high-radix merge:
    /// 0.5).
    pub merge_factor: f64,
    /// Multi-PE projection (Figure 24): PE count and cluster scheduler.
    pub multi_pe: crate::schedule::MultiPeConfig,
    /// Deterministic fault-injection plan (the uniform `fault=` override;
    /// off by default).
    pub fault: FaultPlan,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            dram: DramConfig::default(),
            fiber_cache_bytes: 512 * 1024,
            merge_factor: 0.5,
            multi_pe: crate::schedule::MultiPeConfig::default(),
            fault: FaultPlan::OFF,
        }
    }
}

/// The GAMMA accelerator timing model.
#[derive(Debug, Clone, Default)]
pub struct GammaEngine {
    config: GammaConfig,
}

impl GammaEngine {
    /// Creates an engine with an explicit configuration.
    pub fn new(config: GammaConfig) -> Self {
        GammaEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GammaConfig {
        &self.config
    }

    fn params(&self) -> SpSpParams {
        SpSpParams {
            name: "GAMMA",
            dram: self.config.dram,
            fiber_cache_bytes: self.config.fiber_cache_bytes,
            merge_factor: self.config.merge_factor,
            sram_kb: self.config.fiber_cache_bytes as f64 / 1024.0 + 32.0,
            multi_pe: self.config.multi_pe,
            fault: self.config.fault,
        }
    }
}

spsp_engine!(GammaEngine, GammaConfig);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, GrowEngine, MatRaptorEngine, PartitionStrategy};
    use grow_model::DatasetKey;

    fn prepared(nodes: usize) -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(nodes).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn fiber_cache_hits_reduce_traffic_vs_matraptor() {
        let p = prepared(1000);
        let gamma = GammaEngine::default().run(&p);
        let mat = MatRaptorEngine::default().run(&p);
        assert!(
            gamma.dram_bytes() < mat.dram_bytes(),
            "gamma {} vs matraptor {}",
            gamma.dram_bytes(),
            mat.dram_bytes()
        );
        let hits = gamma.aggregation_cache().hits;
        assert!(hits > 0, "fiber cache must capture some reuse");
    }

    #[test]
    fn grow_still_beats_gamma() {
        // Section VII-H: GROW is ~1.5x faster and moves ~4x less data.
        let p = prepared(2000);
        let gamma = GammaEngine::default().run(&p);
        let grow = GrowEngine::default().run(&p);
        assert!(grow.total_cycles() < gamma.total_cycles());
        assert!(grow.dram_bytes() < gamma.dram_bytes());
    }

    #[test]
    fn zero_capacity_degenerates_to_matraptor_traffic() {
        let p = prepared(500);
        let gamma = GammaEngine::new(GammaConfig {
            fiber_cache_bytes: 0,
            merge_factor: 1.0,
            ..GammaConfig::default()
        })
        .run(&p);
        let mat = MatRaptorEngine::default().run(&p);
        assert_eq!(gamma.dram_bytes(), mat.dram_bytes());
        assert_eq!(gamma.total_cycles(), mat.total_cycles());
    }

    #[test]
    fn deterministic() {
        let p = prepared(300);
        let e = GammaEngine::default();
        assert_eq!(e.run(&p.clone()), e.run(&p.clone()));
    }

    #[test]
    fn no_evict_fast_path_matches_lru_walk() {
        // When capacity >= universe the LRU never evicts, so the
        // first-touch stamp walk must agree with a barely-larger LRU
        // configuration probe for probe. Compare against a cache exactly
        // at the eviction boundary: one row fewer of capacity flips the
        // engine onto the real LRU path, so equal reports across the
        // boundary would not be guaranteed — instead check that the
        // boundary capacity (the smallest no-evict cache) and a huge one
        // report identical runs.
        let p = prepared(1500);
        let f = p.layers[0].f_out as u64;
        let boundary = GammaEngine::new(GammaConfig {
            // cache_rows = bytes / (f*12) == cols exactly.
            fiber_cache_bytes: p.adjacency.cols() as u64 * f * 12,
            ..GammaConfig::default()
        })
        .run(&p);
        let huge = GammaEngine::new(GammaConfig {
            fiber_cache_bytes: 1 << 30,
            ..GammaConfig::default()
        })
        .run(&p);
        // Aggregation hit/miss is capacity-independent once nothing
        // evicts: both report pure first-touch statistics.
        for (a, b) in boundary.layers.iter().zip(huge.layers.iter()) {
            assert_eq!(a.aggregation.cache, b.aggregation.cache);
        }
    }
}
