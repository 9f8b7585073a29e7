//! The experiment helpers that stay off the serving job path. Every
//! engine experiment of the paper's evaluation (Section VII and the
//! Section VIII replacement study) is a job list that the `experiments`
//! binary of `grow-bench` runs on one `grow_serve::BatchService`; what
//! remains here is the Section VIII non-power-law study (its R-MAT graph
//! is not a dataset recipe), the wall-clock cost of preprocessing, and
//! the geometric mean the figures average their ratios with.

use grow_model::{DatasetKey, GcnWorkload};

use crate::{prepare, Accelerator, GcnaxEngine, GrowEngine, PartitionStrategy, HDN_ID_ENTRIES};

/// The Section VIII non-power-law study: GROW vs GCNAX on a uniform
/// (Erdős–Rényi-like) graph, where HDN caching has no skew to exploit.
#[derive(Debug, Clone, Copy)]
pub struct NonPowerLawStudy {
    /// GROW cycles (with partitioning).
    pub grow_cycles: u64,
    /// GCNAX cycles.
    pub gcnax_cycles: u64,
    /// GROW's HDN hit rate on the uniform graph.
    pub hit_rate: f64,
    /// GROW speedup over GCNAX.
    pub speedup: f64,
}

/// Runs the non-power-law discussion experiment on a `2^scale`-node
/// uniform R-MAT graph with Pubmed-like feature dimensions.
///
/// Section VIII predicts "the effectiveness of GROW's HDN caching will be
/// reduced for non-power-law graphs" but expects row-stationary dataflow
/// plus runahead "to better hide latency than GCNAX, maintaining its
/// superiority".
pub fn non_power_law_study(scale: u32, avg_degree: f64, seed: u64) -> NonPowerLawStudy {
    use grow_graph::RmatGraphSpec;
    let graph = RmatGraphSpec::uniform(scale, avg_degree).generate(seed);
    let mut spec = DatasetKey::Pubmed.spec().scaled_to(graph.nodes());
    spec.avg_degree = avg_degree;
    let workload = GcnWorkload::with_graph(&spec, graph, seed);
    let base = prepare(&workload, PartitionStrategy::None, HDN_ID_ENTRIES);
    let partitioned = prepare(
        &workload,
        PartitionStrategy::Multilevel {
            cluster_nodes: (workload.graph.nodes() / 8).max(64),
        },
        HDN_ID_ENTRIES,
    );
    let grow = GrowEngine::default().run(&partitioned);
    let gcnax = GcnaxEngine::default().run(&base);
    NonPowerLawStudy {
        grow_cycles: grow.total_cycles(),
        gcnax_cycles: gcnax.total_cycles(),
        hit_rate: grow.aggregation_cache().hit_rate().unwrap_or(0.0),
        speedup: gcnax.total_cycles() as f64 / grow.total_cycles() as f64,
    }
}

/// Wall-clock cost of the one-time software preprocessing (Section V-C:
/// "tens of milliseconds to several tens of minutes depending on the
/// number of graph nodes").
pub fn preprocessing_cost(workload: &GcnWorkload) -> std::time::Duration {
    let start = std::time::Instant::now();
    let _ = prepare(
        workload,
        PartitionStrategy::multilevel_default(),
        HDN_ID_ENTRIES,
    );
    start.elapsed()
}

/// Geometric mean (the paper's "average" for ratios).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        count += 1;
    }
    if count == 0 {
        return 0.0;
    }
    (log_sum / count as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_power_law_hit_rate_is_depressed() {
        // Section VIII: without a heavy tail there is little for the HDN
        // cache to pin; the hit rate must fall well below the power-law
        // case, yet GROW should not collapse against GCNAX.
        // 2^13 nodes so the HDN cache (4096 rows at f_out = 16) cannot
        // simply pin the whole graph.
        let uniform = non_power_law_study(13, 8.0, 5);
        let power_law = {
            let workload = DatasetKey::Pubmed.spec().scaled_to(1500).instantiate(7);
            let partitioned = prepare(&workload, PartitionStrategy::multilevel_default(), 4096);
            let report = GrowEngine::default().run(&partitioned);
            report.aggregation_cache().hit_rate().unwrap_or(0.0)
        };
        assert!(
            uniform.hit_rate < power_law,
            "uniform {} vs power-law {power_law}",
            uniform.hit_rate
        );
        assert!(
            uniform.speedup > 0.5,
            "GROW should stay competitive: {uniform:?}"
        );
    }

    #[test]
    fn preprocessing_cost_is_measurable() {
        let w = DatasetKey::Pubmed.spec().scaled_to(1000).instantiate(3);
        let d = preprocessing_cost(&w);
        assert!(d.as_nanos() > 0);
        assert!(
            d.as_secs() < 60,
            "preprocessing should be fast at this scale"
        );
    }

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
