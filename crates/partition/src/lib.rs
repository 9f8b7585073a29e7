//! Graph partitioning for GROW's locality preprocessing (Section V-C of the
//! paper).
//!
//! GROW preprocesses the adjacency matrix with a graph partitioning
//! algorithm (the paper uses METIS \[20\] / Graclus \[6\]) so that
//! "intra-cluster nodes have much larger number of edges than inter-cluster
//! nodes", then relabels nodes cluster-by-cluster (Figure 13) and extracts a
//! per-cluster top-N high-degree-node (HDN) ID list that the hardware
//! pins in the HDN cache while that cluster is being processed.
//!
//! This crate implements that software stack natively:
//!
//! * [`multilevel_partition`] — a METIS-class multilevel recursive-bisection
//!   partitioner (heavy-edge-matching coarsening, greedy-growing initial
//!   bisection, FM boundary refinement);
//! * [`ClusterLayout`] — the node relabeling + cluster ranges of Figure 13;
//! * [`hdn_lists`] — per-cluster HDN ID list extraction.
//!
//! # Example
//!
//! ```
//! use grow_graph::{CommunityGraphSpec, Graph};
//! use grow_partition::{multilevel_partition, ClusterLayout, MultilevelConfig};
//!
//! let spec = CommunityGraphSpec {
//!     nodes: 400, avg_degree: 8.0, communities: 4,
//!     intra_fraction: 0.9, power_law_exponent: 2.5, shuffle_fraction: 1.0,
//! };
//! let graph = spec.generate(1);
//! let parts = multilevel_partition(&graph, 4, &MultilevelConfig::default());
//! assert!(parts.intra_edge_fraction(&graph) > 0.5);
//! let layout = ClusterLayout::from_partitioning(&parts);
//! assert_eq!(layout.clusters(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hdn;
mod layout;
mod multilevel;
mod partitioning;

pub use hdn::hdn_lists;
pub use layout::ClusterLayout;
pub use multilevel::{multilevel_partition, MultilevelConfig};
pub use partitioning::Partitioning;
