use std::ops::Range;
use std::sync::Arc;

use grow_graph::Graph;
use grow_model::{GcnWorkload, LayerWorkload};
use grow_partition::{
    hdn_lists, label_propagation_partition, multilevel_partition, ClusterLayout,
    LabelPropagationConfig, MultilevelConfig, Partitioning,
};
use grow_sparse::CsrPattern;

/// How to preprocess the adjacency matrix before simulation.
///
/// Partitioning is GROW's software preprocessing (Section V-C): a one-time
/// cost amortized over all inference runs, so it is not charged to the
/// simulated execution time. Baseline engines always run with
/// [`PartitionStrategy::None`] (original node order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// No partitioning: original node order, one cluster spanning the whole
    /// graph ("GROW w/o G.P." and all baselines).
    None,
    /// METIS-class multilevel partitioning into clusters of about
    /// `cluster_nodes` nodes, then cluster-sorted relabeling (Figure 13).
    Multilevel {
        /// Target nodes per cluster.
        cluster_nodes: usize,
    },
    /// Label-propagation clustering (faster preprocessing, slightly lower
    /// locality).
    LabelPropagation {
        /// Target nodes per cluster.
        cluster_nodes: usize,
    },
}

impl PartitionStrategy {
    /// The default clustering granularity used throughout the evaluation:
    /// clusters of ~4096 nodes, matching the 4096-entry HDN ID list of
    /// Table III.
    pub const fn multilevel_default() -> Self {
        PartitionStrategy::Multilevel {
            cluster_nodes: 4096,
        }
    }

    /// Number of parts this strategy splits a `nodes`-node graph into (1
    /// for [`PartitionStrategy::None`]). With one part the partitioners
    /// return the trivial assignment without running.
    pub fn parts(self, nodes: usize) -> usize {
        match self {
            PartitionStrategy::None => 1,
            PartitionStrategy::Multilevel { cluster_nodes }
            | PartitionStrategy::LabelPropagation { cluster_nodes } => {
                nodes.div_ceil(cluster_nodes.max(1)).max(1)
            }
        }
    }

    /// Canonical identity of the partitioner this strategy runs: the
    /// strategy plus the full configuration [`partition`] runs it with, or
    /// `None` for [`PartitionStrategy::None`]. Equal identities compute
    /// equal assignments on equal graphs, so a persisted assignment can
    /// be keyed by it.
    pub fn partitioner_key(self) -> Option<String> {
        match self {
            PartitionStrategy::None => None,
            PartitionStrategy::Multilevel { .. } => {
                Some(format!("{self:?}|{:?}", MultilevelConfig::default()))
            }
            PartitionStrategy::LabelPropagation { .. } => {
                Some(format!("{self:?}|{:?}", LabelPropagationConfig::default()))
            }
        }
    }
}

/// A workload after software preprocessing, ready for any engine.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Dataset name (for reports).
    pub name: &'static str,
    /// Number of graph nodes.
    pub nodes: usize,
    /// Pattern of the normalized adjacency matrix `A + I` (self-loops
    /// included, per the GCN normalization), relabeled by the partitioning
    /// permutation when one is used.
    pub adjacency: CsrPattern,
    /// Contiguous row ranges of the clusters (a single full-range cluster
    /// when unpartitioned).
    pub clusters: Vec<Range<usize>>,
    /// Per-cluster HDN ID lists, ranked by intra-cluster reference count,
    /// up to `hdn_id_entries` long. Engines take the prefix their cache
    /// capacity allows.
    pub hdn_lists: Vec<Vec<u32>>,
    /// The two GCN layers (feature patterns + shapes), shared with the
    /// workload and every other preparation of it.
    pub layers: Arc<[LayerWorkload]>,
    /// Intra-cluster edge fraction achieved by the preprocessing (1.0 when
    /// unpartitioned).
    pub intra_edge_fraction: f64,
    /// Cross-job plan-cache handle, scoped to this preparation's
    /// (dataset, partition) identity. `None` outside a serving session
    /// pool ([`prepare`] leaves it unset): engines then fall back to
    /// their per-run plan retention. The cache only shortcuts the plan
    /// pass — replay consumes identical plan data either way, so reports
    /// are bit-identical with or without it. Plans are keyed by this
    /// scope alone, so a copy whose adjacency, clusters or HDN lists
    /// change must not keep the stamped scope: set it to `None`.
    pub plan_cache: Option<crate::PlanCacheScope>,
}

impl PreparedWorkload {
    /// Non-zeros of the (normalized) adjacency.
    pub fn adjacency_nnz(&self) -> usize {
        self.adjacency.nnz()
    }
}

/// Builds the adjacency pattern `A + I` (neighbors plus a self-loop per
/// node) without materializing normalization values, which the timing
/// models do not need.
fn adjacency_with_self_loops(graph: &Graph) -> CsrPattern {
    let n = graph.nodes();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(graph.directed_edges() + n);
    indptr.push(0usize);
    for v in 0..n {
        let row = graph.neighbors(v);
        let self_id = v as u32;
        let pos = row.partition_point(|&c| c < self_id);
        indices.extend_from_slice(&row[..pos]);
        indices.push(self_id);
        indices.extend_from_slice(&row[pos..]);
        indptr.push(indices.len());
    }
    CsrPattern::from_raw(n, n, indptr, indices)
        .expect("adjacency with self-loops is structurally valid")
}

/// Runs the software preprocessing stack: (optionally) partition the graph,
/// relabel nodes cluster-by-cluster, and extract per-cluster HDN ID lists.
/// The two steps are [`partition`] and [`prepare_with`].
///
/// `hdn_id_entries` bounds the per-cluster list length (Table III: a 12 KB
/// list buffer = 4096 entries of 3 bytes).
pub fn prepare(
    workload: &GcnWorkload,
    strategy: PartitionStrategy,
    hdn_id_entries: usize,
) -> PreparedWorkload {
    let partitioning = partition(&workload.graph, strategy);
    prepare_with(workload, partitioning.as_ref(), hdn_id_entries)
}

/// The first step of [`prepare`]: runs the strategy's partitioner on
/// `graph` with its default configuration (`None` for
/// [`PartitionStrategy::None`]). This is the expensive step; its result is
/// all a later [`prepare_with`] needs to rebuild the preparation.
pub fn partition(graph: &Graph, strategy: PartitionStrategy) -> Option<Partitioning> {
    let parts = strategy.parts(graph.nodes());
    match strategy {
        PartitionStrategy::None => None,
        PartitionStrategy::Multilevel { .. } => Some(multilevel_partition(
            graph,
            parts,
            &MultilevelConfig::default(),
        )),
        PartitionStrategy::LabelPropagation { .. } => Some(label_propagation_partition(
            graph,
            parts,
            &LabelPropagationConfig::default(),
        )),
    }
}

/// The second step of [`prepare`]: derives the cluster layout, the
/// relabeled `A + I` pattern and the HDN lists from a partitioning of the
/// workload's graph, computed by [`partition`] or loaded from storage.
/// `None` keeps the original node order as one cluster.
///
/// # Panics
///
/// Panics if the partitioning's node count differs from the graph's.
pub fn prepare_with(
    workload: &GcnWorkload,
    partitioning: Option<&Partitioning>,
    hdn_id_entries: usize,
) -> PreparedWorkload {
    let graph = &workload.graph;
    let n = graph.nodes();
    let (layout, intra, relabeled) = match partitioning {
        None => (ClusterLayout::single(n), 1.0, None),
        Some(p) => {
            assert_eq!(p.nodes(), n, "partitioning must cover the graph");
            let layout = ClusterLayout::from_partitioning(p);
            let relabeled = layout.relabel(graph);
            (layout, p.intra_edge_fraction(graph), Some(relabeled))
        }
    };
    let adjacency = adjacency_with_self_loops(relabeled.as_ref().unwrap_or(graph));
    let clusters: Vec<Range<usize>> = layout.ranges().to_vec();
    let lists = hdn_lists(&adjacency, &clusters, hdn_id_entries);
    PreparedWorkload {
        name: workload.spec.key.name(),
        nodes: n,
        adjacency,
        clusters,
        hdn_lists: lists,
        layers: Arc::clone(&workload.layers),
        intra_edge_fraction: intra,
        plan_cache: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_model::DatasetKey;

    fn small() -> GcnWorkload {
        DatasetKey::Cora.spec().scaled_to(400).instantiate(11)
    }

    #[test]
    fn unpartitioned_has_single_cluster() {
        let p = prepare(&small(), PartitionStrategy::None, 4096);
        assert_eq!(p.clusters.len(), 1);
        assert_eq!(p.clusters[0], 0..400);
        assert_eq!(p.intra_edge_fraction, 1.0);
        assert_eq!(p.hdn_lists.len(), 1);
    }

    #[test]
    fn adjacency_includes_self_loops() {
        let w = small();
        let p = prepare(&w, PartitionStrategy::None, 4096);
        assert_eq!(
            p.adjacency.nnz(),
            w.graph.directed_edges() + w.graph.nodes()
        );
        for v in 0..10 {
            assert!(
                p.adjacency.row_indices(v).contains(&(v as u32)),
                "row {v} self-loop"
            );
        }
    }

    #[test]
    fn partitioned_clusters_cover_all_rows() {
        let p = prepare(
            &small(),
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            4096,
        );
        assert!(p.clusters.len() >= 3);
        let covered: usize = p.clusters.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 400);
        // Ranges are contiguous and ascending.
        let mut expect = 0;
        for r in &p.clusters {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
    }

    #[test]
    fn partitioning_improves_locality_metric() {
        let spec = DatasetKey::Pubmed.spec().scaled_to(3000);
        let w = spec.instantiate(13);
        let p = prepare(
            &w,
            PartitionStrategy::Multilevel { cluster_nodes: 400 },
            4096,
        );
        assert!(
            p.intra_edge_fraction > 0.4,
            "intra fraction {}",
            p.intra_edge_fraction
        );
    }

    #[test]
    fn hdn_lists_bounded_by_entry_count() {
        let p = prepare(&small(), PartitionStrategy::None, 16);
        assert!(p.hdn_lists[0].len() <= 16);
    }

    #[test]
    fn prepare_is_partition_then_prepare_with() {
        let w = small();
        for strategy in [
            PartitionStrategy::None,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            PartitionStrategy::LabelPropagation { cluster_nodes: 100 },
        ] {
            let direct = prepare(&w, strategy, 64);
            // An assignment rebuilt from its raw parts, as a store loads it.
            let reloaded = partition(&w.graph, strategy)
                .map(|p| Partitioning::new(p.assignment().to_vec(), p.parts()));
            let derived = prepare_with(&w, reloaded.as_ref(), 64);
            assert_eq!(derived.adjacency, direct.adjacency, "{strategy:?}");
            assert_eq!(derived.clusters, direct.clusters, "{strategy:?}");
            assert_eq!(derived.hdn_lists, direct.hdn_lists, "{strategy:?}");
            assert_eq!(derived.intra_edge_fraction, direct.intra_edge_fraction);
            assert!(Arc::ptr_eq(&derived.layers, &w.layers), "layers are shared");
        }
    }

    #[test]
    fn strategies_name_their_parts_and_partitioner() {
        let ml = PartitionStrategy::Multilevel { cluster_nodes: 100 };
        let lp = PartitionStrategy::LabelPropagation { cluster_nodes: 100 };
        assert_eq!(ml.parts(400), 4);
        assert_eq!(lp.parts(401), 5);
        assert_eq!(PartitionStrategy::None.parts(400), 1);
        assert_eq!(PartitionStrategy::multilevel_default().parts(0), 1);
        assert_eq!(PartitionStrategy::None.partitioner_key(), None);
        let (ml_key, lp_key) = (ml.partitioner_key().unwrap(), lp.partitioner_key().unwrap());
        assert_ne!(ml_key, lp_key);
        assert!(ml_key.contains("MultilevelConfig"), "{ml_key}");
        assert_ne!(
            Some(ml_key),
            PartitionStrategy::Multilevel { cluster_nodes: 101 }.partitioner_key()
        );
    }

    #[test]
    fn relabeling_preserves_nnz() {
        let w = small();
        let a = prepare(&w, PartitionStrategy::None, 64);
        let b = prepare(&w, PartitionStrategy::Multilevel { cluster_nodes: 100 }, 64);
        assert_eq!(a.adjacency.nnz(), b.adjacency.nnz());
    }
}
