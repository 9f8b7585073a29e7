use grow_graph::CommunityGraphSpec;

use crate::workload::GcnWorkload;

/// The eight graph datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKey {
    /// Cora citation network (2,708 nodes).
    Cora,
    /// Citeseer citation network (3,327 nodes).
    Citeseer,
    /// Pubmed citation network (19,717 nodes).
    Pubmed,
    /// Flickr image-relationship graph (89,250 nodes).
    Flickr,
    /// Reddit post-interaction graph (232,965 nodes, avg degree 493).
    Reddit,
    /// Yelp review graph (716,847 nodes).
    Yelp,
    /// Pokec social network (1,632,803 nodes).
    Pokec,
    /// Amazon co-purchase graph (2,449,029 nodes).
    Amazon,
}

impl DatasetKey {
    /// All datasets in Table I order (sorted by node count).
    pub const ALL: [DatasetKey; 8] = [
        DatasetKey::Cora,
        DatasetKey::Citeseer,
        DatasetKey::Pubmed,
        DatasetKey::Flickr,
        DatasetKey::Reddit,
        DatasetKey::Yelp,
        DatasetKey::Pokec,
        DatasetKey::Amazon,
    ];

    /// The small-scale datasets (the paper's "even mix" split).
    pub const SMALL: [DatasetKey; 4] = [
        DatasetKey::Cora,
        DatasetKey::Citeseer,
        DatasetKey::Pubmed,
        DatasetKey::Flickr,
    ];

    /// The large-scale datasets.
    pub const LARGE: [DatasetKey; 4] = [
        DatasetKey::Reddit,
        DatasetKey::Yelp,
        DatasetKey::Pokec,
        DatasetKey::Amazon,
    ];

    /// Lower-case dataset name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKey::Cora => "cora",
            DatasetKey::Citeseer => "citeseer",
            DatasetKey::Pubmed => "pubmed",
            DatasetKey::Flickr => "flickr",
            DatasetKey::Reddit => "reddit",
            DatasetKey::Yelp => "yelp",
            DatasetKey::Pokec => "pokec",
            DatasetKey::Amazon => "amazon",
        }
    }

    /// Parses a dataset name (case-insensitive).
    pub fn parse(name: &str) -> Option<DatasetKey> {
        DatasetKey::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// The default (simulation-scale) specification; see
    /// [`DatasetSpec::paper_scale`] for the unscaled variant.
    pub fn spec(self) -> DatasetSpec {
        // Table I rows. Large graphs are node-scaled (16x/8x/16x/16x, see
        // DESIGN.md §3-4) with average degree preserved; X(0)/X(1)
        // densities and feature dims are the paper's exactly.
        match self {
            DatasetKey::Cora => DatasetSpec {
                key: self,
                paper_nodes: 2_708,
                paper_edges: 13_264,
                nodes: 2_708,
                avg_degree: 4.90,
                feature_dims: [1433, 16, 7],
                x0_density: 0.0127,
                x1_density: 0.780,
                communities: 4,
                intra_fraction: 0.80,
                power_law_exponent: 2.6,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Citeseer => DatasetSpec {
                key: self,
                paper_nodes: 3_327,
                paper_edges: 12_431,
                nodes: 3_327,
                avg_degree: 3.74,
                feature_dims: [3703, 16, 6],
                x0_density: 0.0085,
                x1_density: 0.891,
                communities: 4,
                intra_fraction: 0.80,
                power_law_exponent: 2.7,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Pubmed => DatasetSpec {
                key: self,
                paper_nodes: 19_717,
                paper_edges: 108_365,
                nodes: 19_717,
                avg_degree: 5.50,
                feature_dims: [500, 16, 3],
                x0_density: 0.100,
                x1_density: 0.776,
                communities: 8,
                intra_fraction: 0.80,
                power_law_exponent: 2.5,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Flickr => DatasetSpec {
                key: self,
                paper_nodes: 89_250,
                paper_edges: 989_006,
                nodes: 89_250,
                avg_degree: 11.1,
                feature_dims: [500, 64, 7],
                x0_density: 0.464,
                x1_density: 0.772,
                communities: 24,
                intra_fraction: 0.80,
                power_law_exponent: 2.4,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Reddit => DatasetSpec {
                key: self,
                paper_nodes: 232_965,
                paper_edges: 114_848_857,
                nodes: 14_560,
                avg_degree: 493.0,
                feature_dims: [602, 64, 41],
                x0_density: 1.0,
                x1_density: 0.639,
                communities: 4,
                intra_fraction: 0.82,
                power_law_exponent: 2.2,
                // Real Reddit ships with a locality-correlated node
                // ordering (Figure 14(a) shows visible block structure
                // before any partitioning); a mostly-unshuffled ordering
                // preserves the 2D-tile locality that lets GCNAX win on
                // Reddit (Section VII-A).
                shuffle_fraction: 0.25,
            },
            DatasetKey::Yelp => DatasetSpec {
                key: self,
                paper_nodes: 716_847,
                paper_edges: 13_954_819,
                nodes: 89_605,
                avg_degree: 19.5,
                feature_dims: [300, 64, 100],
                x0_density: 1.0,
                x1_density: 0.772,
                communities: 36,
                intra_fraction: 0.86,
                power_law_exponent: 2.1,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Pokec => DatasetSpec {
                key: self,
                paper_nodes: 1_632_803,
                paper_edges: 46_236_731,
                nodes: 102_050,
                avg_degree: 28.3,
                feature_dims: [60, 64, 48],
                x0_density: 0.399,
                x1_density: 0.772,
                communities: 40,
                intra_fraction: 0.86,
                power_law_exponent: 2.1,
                shuffle_fraction: 1.0,
            },
            DatasetKey::Amazon => DatasetSpec {
                key: self,
                paper_nodes: 2_449_029,
                paper_edges: 126_167_309,
                nodes: 153_064,
                avg_degree: 51.5,
                feature_dims: [100, 64, 47],
                x0_density: 0.990,
                x1_density: 0.772,
                communities: 48,
                intra_fraction: 0.86,
                power_law_exponent: 2.1,
                shuffle_fraction: 1.0,
            },
        }
    }
}

/// One Table I row: graph shape, GCN feature dimensions, and input
/// densities, plus the synthetic-generator parameters of the surrogate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub key: DatasetKey,
    /// Node count reported in the paper.
    pub paper_nodes: usize,
    /// Edge count (directed adjacency non-zeros) reported in the paper.
    pub paper_edges: usize,
    /// Node count of the synthetic surrogate (scaled for the large graphs).
    pub nodes: usize,
    /// Average degree (Table I).
    pub avg_degree: f64,
    /// Feature dimensions `[input, hidden, output]` (Table I "Feature
    /// length", e.g. 1433-16-7 for Cora).
    pub feature_dims: [usize; 3],
    /// Density of the input feature matrix `X(0)` (Table I).
    pub x0_density: f64,
    /// Density of the layer-2 feature matrix `X(1)` (Table I).
    pub x1_density: f64,
    /// Planted community count of the surrogate generator.
    pub communities: usize,
    /// Intra-community edge-endpoint fraction of the surrogate generator.
    pub intra_fraction: f64,
    /// Power-law exponent of the surrogate degree distribution.
    pub power_law_exponent: f64,
    /// Fraction of node IDs shuffled (1.0 = ordering carries no locality).
    pub shuffle_fraction: f64,
}

impl DatasetSpec {
    /// Returns the spec with the paper's unscaled node count (`--full`
    /// runs; needs tens of GB of RAM and hours on the largest graphs).
    pub fn paper_scale(mut self) -> DatasetSpec {
        self.nodes = self.paper_nodes;
        self
    }

    /// Returns the spec scaled to approximately `nodes` nodes (community
    /// count scales along to keep cluster sizes stable).
    pub fn scaled_to(mut self, nodes: usize) -> DatasetSpec {
        let ratio = nodes as f64 / self.nodes as f64;
        self.nodes = nodes.max(16);
        self.communities = ((self.communities as f64 * ratio).round() as usize).max(2);
        self
    }

    /// Adjacency density `avg_degree / nodes` of the surrogate.
    pub fn adjacency_density(&self) -> f64 {
        self.avg_degree / self.nodes as f64
    }

    /// The generator specification for this dataset's graph.
    pub fn graph_spec(&self) -> CommunityGraphSpec {
        CommunityGraphSpec {
            nodes: self.nodes,
            avg_degree: self.avg_degree,
            communities: self.communities,
            intra_fraction: self.intra_fraction,
            power_law_exponent: self.power_law_exponent,
            shuffle_fraction: self.shuffle_fraction,
        }
    }

    /// The first field graph generation or feature synthesis would reject,
    /// with its value, or `None` for a recipe [`DatasetSpec::instantiate`]
    /// accepts: `nodes` must be at least 1, `communities` in `1..=nodes`,
    /// the fractions and densities in `[0, 1]`, `power_law_exponent` finite
    /// and above 1, `avg_degree` finite and non-negative, and every feature
    /// dimension at least 1. Sizes have no upper bound here.
    pub fn invalid_field(&self) -> Option<(&'static str, String)> {
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let (field, value) = if self.nodes == 0 {
            ("nodes", self.nodes.to_string())
        } else if !(1..=self.nodes).contains(&self.communities) {
            ("communities", self.communities.to_string())
        } else if !unit(self.intra_fraction) {
            ("intra_fraction", self.intra_fraction.to_string())
        } else if !unit(self.shuffle_fraction) {
            ("shuffle_fraction", self.shuffle_fraction.to_string())
        } else if !(self.power_law_exponent.is_finite() && self.power_law_exponent > 1.0) {
            ("power_law_exponent", self.power_law_exponent.to_string())
        } else if !(self.avg_degree.is_finite() && self.avg_degree >= 0.0) {
            ("avg_degree", self.avg_degree.to_string())
        } else if !unit(self.x0_density) {
            ("x0_density", self.x0_density.to_string())
        } else if !unit(self.x1_density) {
            ("x1_density", self.x1_density.to_string())
        } else if self.feature_dims.contains(&0) {
            ("feature_dims", format!("{:?}", self.feature_dims))
        } else {
            return None;
        };
        Some((field, value))
    }

    /// Generates the full 2-layer GCN workload (graph + feature patterns).
    pub fn instantiate(&self, seed: u64) -> GcnWorkload {
        GcnWorkload::from_spec(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_datasets_present() {
        assert_eq!(DatasetKey::ALL.len(), 8);
        let names: Vec<&str> = DatasetKey::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["cora", "citeseer", "pubmed", "flickr", "reddit", "yelp", "pokec", "amazon"]
        );
    }

    #[test]
    fn parse_round_trips() {
        for key in DatasetKey::ALL {
            assert_eq!(DatasetKey::parse(key.name()), Some(key));
        }
        assert_eq!(DatasetKey::parse("REDDIT"), Some(DatasetKey::Reddit));
        assert_eq!(DatasetKey::parse("imagenet"), None);
    }

    #[test]
    fn small_graphs_run_at_paper_scale() {
        for key in DatasetKey::SMALL {
            let s = key.spec();
            assert_eq!(s.nodes, s.paper_nodes, "{}", key.name());
        }
    }

    #[test]
    fn large_graphs_are_scaled_with_degree_preserved() {
        for key in DatasetKey::LARGE {
            let s = key.spec();
            assert!(s.nodes < s.paper_nodes, "{}", key.name());
            let paper_degree = s.paper_edges as f64 / s.paper_nodes as f64;
            assert!(
                (s.avg_degree - paper_degree).abs() / paper_degree < 0.02,
                "{}: spec degree {} vs paper {}",
                key.name(),
                s.avg_degree,
                paper_degree
            );
        }
    }

    #[test]
    fn table1_feature_dims() {
        assert_eq!(DatasetKey::Reddit.spec().feature_dims, [602, 64, 41]);
        assert_eq!(DatasetKey::Yelp.spec().feature_dims, [300, 64, 100]);
        assert_eq!(DatasetKey::Pokec.spec().feature_dims, [60, 64, 48]);
    }

    #[test]
    fn paper_scale_restores_counts() {
        let s = DatasetKey::Amazon.spec().paper_scale();
        assert_eq!(s.nodes, 2_449_029);
    }

    #[test]
    fn scaled_to_adjusts_communities() {
        let s = DatasetKey::Yelp.spec();
        let t = s.scaled_to(s.nodes / 4);
        assert!(t.communities < s.communities);
        assert!(t.communities >= 2);
    }

    #[test]
    fn density_ordering_matches_paper() {
        // Table I: A is orders of magnitude sparser than X for most
        // datasets; Reddit has the densest adjacency of the large graphs.
        let reddit = DatasetKey::Reddit.spec();
        let amazon = DatasetKey::Amazon.spec();
        assert!(reddit.adjacency_density() > amazon.adjacency_density());
        for key in DatasetKey::ALL {
            let s = key.spec();
            assert!(s.adjacency_density() < s.x1_density);
        }
    }
}
