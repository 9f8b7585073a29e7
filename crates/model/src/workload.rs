use std::sync::Arc;

use grow_graph::Graph;

use crate::{DatasetSpec, FeatureMatrix};

/// One GCN layer's SpDeGEMM workload: the sparse LHS feature pattern and
/// the GEMM shapes.
///
/// Per the `A*(X*W)` execution order (Section II-B) a layer runs two
/// sparse-dense GEMMs back to back on the same engine:
/// *combination* `X[n x f_in] * W[f_in x f_out]`, then *aggregation*
/// `A[n x n] * XW[n x f_out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Sparsity pattern of the layer input features `X(l)`.
    pub x: FeatureMatrix,
    /// Input feature width `f_in`.
    pub f_in: usize,
    /// Output feature width `f_out`.
    pub f_out: usize,
}

impl LayerWorkload {
    /// Non-zeros of `X`, i.e. scalar x vector operations in combination.
    pub fn x_nnz(&self) -> usize {
        self.x.nnz()
    }
}

/// A complete 2-layer GCN inference workload over one dataset.
#[derive(Debug, Clone)]
pub struct GcnWorkload {
    /// The dataset specification this workload instantiates.
    pub spec: DatasetSpec,
    /// The (synthetic) graph.
    pub graph: Graph,
    /// Per-layer feature patterns and shapes (2 layers, per Table I's
    /// `in-hidden-out` feature lengths). Shared, not copied, by every
    /// preparation of the workload.
    pub layers: Arc<[LayerWorkload]>,
}

impl GcnWorkload {
    /// Generates the workload: graph plus `X(0)`/`X(1)` patterns with the
    /// Table I densities.
    pub fn from_spec(spec: &DatasetSpec, seed: u64) -> Self {
        let graph = spec.graph_spec().generate(seed);
        Self::with_graph(spec, graph, seed)
    }

    /// Builds the workload around an externally supplied graph (e.g. the
    /// non-power-law R-MAT graphs of the Section VIII discussion), using
    /// `spec` only for feature dimensions and densities.
    ///
    /// # Panics
    ///
    /// Panics if the graph's node count differs from `spec.nodes`.
    pub fn with_graph(spec: &DatasetSpec, graph: Graph, seed: u64) -> Self {
        assert_eq!(graph.nodes(), spec.nodes, "graph size must match the spec");
        let n = graph.nodes();
        let [f_in, hidden, f_out] = spec.feature_dims;
        let layers: Arc<[LayerWorkload]> = Arc::new([
            LayerWorkload {
                x: FeatureMatrix::synthesize(n, f_in, spec.x0_density, seed ^ 0x1001),
                f_in,
                f_out: hidden,
            },
            LayerWorkload {
                x: FeatureMatrix::synthesize(n, hidden, spec.x1_density, seed ^ 0x1002),
                f_in: hidden,
                f_out,
            },
        ]);
        GcnWorkload {
            spec: *spec,
            graph,
            layers,
        }
    }

    /// Total scalar x vector operations across both layers (combination
    /// `nnz(X(l))` + aggregation `nnz(A)` each) — the MAC-op invariant all
    /// engines must agree on.
    pub fn total_scalar_vector_ops(&self) -> u64 {
        let a_nnz = self.graph.directed_edges() as u64 + self.graph.nodes() as u64; // + self-loops
        self.layers.iter().map(|l| l.x_nnz() as u64 + a_nnz).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKey;

    #[test]
    fn cora_workload_shapes() {
        let w = DatasetKey::Cora.spec().instantiate(1);
        assert_eq!(w.graph.nodes(), 2708);
        assert_eq!(w.layers[0].f_in, 1433);
        assert_eq!(w.layers[0].f_out, 16);
        assert_eq!(w.layers[1].f_in, 16);
        assert_eq!(w.layers[1].f_out, 7);
        assert_eq!(w.layers[0].x.rows(), 2708);
    }

    #[test]
    fn layer_densities_follow_table1() {
        let w = DatasetKey::Pubmed.spec().instantiate(2);
        let d0 = w.layers[0].x.density();
        let d1 = w.layers[1].x.density();
        assert!((d0 - 0.100).abs() < 0.02, "X(0) density {d0}");
        assert!((d1 - 0.776).abs() < 0.05, "X(1) density {d1}");
    }

    #[test]
    fn dense_inputs_use_dense_representation() {
        let w = DatasetKey::Reddit.spec().scaled_to(2000).instantiate(3);
        assert!(matches!(w.layers[0].x, FeatureMatrix::Dense { .. }));
        assert!(matches!(w.layers[1].x, FeatureMatrix::Sparse(_)));
    }

    #[test]
    fn workload_is_deterministic() {
        let spec = DatasetKey::Cora.spec();
        let a = spec.instantiate(9);
        let b = spec.instantiate(9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.layers, b.layers);
    }

    #[test]
    fn scalar_vector_ops_counts_both_layers() {
        let w = DatasetKey::Cora.spec().instantiate(4);
        let a_nnz = (w.graph.directed_edges() + w.graph.nodes()) as u64;
        let expected = w.layers[0].x.nnz() as u64 + w.layers[1].x.nnz() as u64 + 2 * a_nnz;
        assert_eq!(w.total_scalar_vector_ops(), expected);
    }
}
