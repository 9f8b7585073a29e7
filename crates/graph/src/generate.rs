use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Graph;

/// Specification of a community-structured power-law graph.
///
/// This is the generator used to stand in for the paper's SNAP/OGB/PyG
/// datasets (DESIGN.md §3). It plants `communities` node clusters, draws a
/// Zipf-like per-node weight sequence inside each cluster (so every cluster
/// has its own high-degree hubs, which is what GROW's *per-cluster* HDN
/// list exploits — Section V-C), and wires edges by weighted sampling:
/// a fraction `intra_fraction` of edge endpoints stay inside the source
/// community, the rest go anywhere. Finally a fraction `shuffle_fraction`
/// of node IDs is randomly permuted so the community structure is *not*
/// visible in the node ordering and must be re-discovered by graph
/// partitioning (Figure 13: partitioning is pure relabeling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityGraphSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Target average degree (directed edges per node, Table I convention).
    pub avg_degree: f64,
    /// Number of planted communities.
    pub communities: usize,
    /// Fraction of edge endpoints kept inside the source community
    /// (`0.0..=1.0`). Real social graphs sit around `0.6..0.9`.
    pub intra_fraction: f64,
    /// Power-law exponent `gamma` of the degree distribution (typically
    /// `2.1..3.0`; Figure 11 of the paper shows Reddit's heavy tail).
    pub power_law_exponent: f64,
    /// Fraction of node IDs shuffled after generation (`0.0` keeps the
    /// community-sorted ordering — real datasets such as Reddit ship with
    /// locality-correlated orderings; `1.0` destroys ordering locality
    /// entirely).
    pub shuffle_fraction: f64,
}

/// A generated graph together with its planted ground truth, for tests and
/// partitioner-quality evaluation.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    /// The generated graph (node IDs already shuffled per the spec).
    pub graph: Graph,
    /// Planted community of each node, indexed by final node ID.
    pub community: Vec<u32>,
}

impl CommunityGraphSpec {
    /// Generates the graph with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero nodes/communities, fractions
    /// outside `[0, 1]`, exponent `<= 1`).
    pub fn generate(&self, seed: u64) -> Graph {
        self.generate_detailed(seed).graph
    }

    /// Like [`CommunityGraphSpec::generate`] but also returns the planted
    /// community assignment.
    pub fn generate_detailed(&self, seed: u64) -> GeneratedGraph {
        assert!(self.nodes > 0, "graph must have nodes");
        assert!(self.communities > 0 && self.communities <= self.nodes);
        assert!((0.0..=1.0).contains(&self.intra_fraction));
        assert!((0.0..=1.0).contains(&self.shuffle_fraction));
        assert!(
            self.power_law_exponent > 1.0,
            "power-law exponent must exceed 1"
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.nodes;
        let k = self.communities;
        let target_undirected = ((n as f64 * self.avg_degree) / 2.0).round() as usize;

        // Community membership: contiguous blocks (pre-shuffle node IDs are
        // community-sorted; the shuffle below hides this).
        let bounds: Vec<usize> = (0..=k).map(|c| c * n / k).collect();
        let mut community = vec![0u32; n];
        for c in 0..k {
            community[bounds[c]..bounds[c + 1]].fill(c as u32);
        }

        // Zipf-like weights, restarting the rank inside each community so
        // every community has hubs. Capped so expected degrees stay
        // realizable (Chung-Lu style), then used for weighted endpoint
        // sampling via prefix sums.
        let alpha = 1.0 / (self.power_law_exponent - 1.0);
        let mut weights = vec![0.0f64; n];
        for c in 0..k {
            for (rank, node) in (bounds[c]..bounds[c + 1]).enumerate() {
                weights[node] = ((rank + 1) as f64).powf(-alpha);
            }
        }
        // Cap: expected degree of a node is ~ 2 * m * w / W. Limit hubs to
        // the smaller of 40x the average degree and ~35% of their community
        // (so intra-community sampling does not saturate).
        let min_comm = (1..=k)
            .map(|c| bounds[c] - bounds[c - 1])
            .min()
            .unwrap_or(n);
        let cap_degree = (40.0 * self.avg_degree)
            .min(0.35 * min_comm as f64 / self.intra_fraction.max(0.5))
            .max(self.avg_degree.max(2.0));
        for _ in 0..4 {
            let total: f64 = weights.iter().sum();
            let scale = 2.0 * target_undirected as f64 / total;
            let cap_w = cap_degree / scale;
            let mut changed = false;
            for w in &mut weights {
                if *w > cap_w {
                    *w = cap_w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Weighted samplers: global and per-community.
        let global = PrefixSampler::new(&weights);
        let comm: Vec<PrefixSampler> = (0..k)
            .map(|c| PrefixSampler::new(&weights[bounds[c]..bounds[c + 1]]))
            .collect();

        // Sample edges with dedup top-up rounds. The list stays sorted and
        // deduplicated; each round sorts only its own batch and merges it in.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut batch: Vec<(u32, u32)> = Vec::new();
        let mut rounds = 0;
        while edges.len() < target_undirected && rounds < 8 {
            let missing = target_undirected - edges.len();
            let draws = (missing as f64 * 1.1) as usize + 8;
            batch.reserve(draws);
            for _ in 0..draws {
                let u = global.sample(&mut rng);
                let v = if rng.random::<f64>() < self.intra_fraction {
                    let c = community[u] as usize;
                    bounds[c] + comm[c].sample(&mut rng)
                } else {
                    global.sample(&mut rng)
                };
                if u != v {
                    batch.push((u.min(v) as u32, u.max(v) as u32));
                }
            }
            merge_batch(&mut edges, &mut batch, n);
            rounds += 1;
        }
        edges.truncate(target_undirected);

        // Shuffle a fraction of node IDs (Fisher-Yates over a sampled subset).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let shuffled = ((n as f64) * self.shuffle_fraction).round() as usize;
        if shuffled > 1 {
            let mut subset: Vec<usize> = sample_indices(n, shuffled, &mut rng);
            subset.sort_unstable();
            // Shuffle the IDs occupying the chosen positions among themselves.
            let mut shuffled_ids: Vec<u32> = subset.iter().map(|&i| perm[i]).collect();
            for i in (1..shuffled_ids.len()).rev() {
                let j = rng.random_range(0..=i);
                shuffled_ids.swap(i, j);
            }
            for (pos, id) in subset.iter().zip(shuffled_ids) {
                perm[*pos] = id;
            }
        }

        for (u, v) in &mut edges {
            (*u, *v) = (perm[*u as usize], perm[*v as usize]);
        }
        let graph = Graph::from_edge_list(n, edges);
        let mut final_community = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            final_community[new as usize] = community[old];
        }
        GeneratedGraph {
            graph,
            community: final_community,
        }
    }
}

/// Specification of an R-MAT (recursive matrix) graph.
///
/// R-MAT with skewed quadrant probabilities produces power-law-ish graphs;
/// with `a = b = c = d = 0.25` it degenerates to Erdős–Rényi, which is the
/// "non-power-law graph" case discussed in Section VIII of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatGraphSpec {
    /// `log2` of the number of nodes.
    pub scale: u32,
    /// Target average degree.
    pub avg_degree: f64,
    /// Probability of the top-left quadrant (classic value 0.57).
    pub a: f64,
    /// Probability of the top-right quadrant (classic value 0.19).
    pub b: f64,
    /// Probability of the bottom-left quadrant (classic value 0.19).
    pub c: f64,
}

impl RmatGraphSpec {
    /// The classic Graph500 parameterization (a=0.57, b=c=0.19).
    pub fn graph500(scale: u32, avg_degree: f64) -> Self {
        RmatGraphSpec {
            scale,
            avg_degree,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A uniform (Erdős–Rényi-like) parameterization: no degree skew.
    pub fn uniform(scale: u32, avg_degree: f64) -> Self {
        RmatGraphSpec {
            scale,
            avg_degree,
            a: 0.25,
            b: 0.25,
            c: 0.25,
        }
    }

    /// Generates the graph with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the quadrant probabilities are invalid (`a + b + c > 1`).
    pub fn generate(&self, seed: u64) -> Graph {
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0);
        assert!(
            self.a + self.b + self.c <= 1.0 + 1e-12,
            "quadrant probabilities exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << self.scale;
        let target = ((n as f64 * self.avg_degree) / 2.0).round() as usize;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut batch: Vec<(u32, u32)> = Vec::new();
        let mut rounds = 0;
        while edges.len() < target && rounds < 8 {
            let missing = target - edges.len();
            for _ in 0..(missing + missing / 8 + 8) {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..self.scale {
                    let r: f64 = rng.random();
                    let (du, dv) = if r < self.a {
                        (0, 0)
                    } else if r < self.a + self.b {
                        (0, 1)
                    } else if r < self.a + self.b + self.c {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    u = (u << 1) | du;
                    v = (v << 1) | dv;
                }
                if u != v {
                    batch.push((u.min(v), u.max(v)));
                }
            }
            merge_batch(&mut edges, &mut batch, n);
            rounds += 1;
        }
        edges.truncate(target);
        Graph::from_edge_list(n, edges)
    }
}

/// Sorts and deduplicates `batch` (pairs `u < v < nodes`), then merges it
/// into the sorted, deduplicated `edges`, skipping pairs already there.
/// Leaves `batch` empty.
fn merge_batch(edges: &mut Vec<(u32, u32)>, batch: &mut Vec<(u32, u32)>, nodes: usize) {
    radix_sort_pairs(batch, nodes);
    batch.dedup();
    if edges.is_empty() {
        std::mem::swap(edges, batch);
        return;
    }
    // Merge from the back into the grown list, so every old pair is read
    // before its slot is written. Pairs already present leave a gap of
    // the same size below the merged tail, closed at the end.
    let old_len = edges.len();
    let merged_end = old_len + batch.len();
    edges.resize(merged_end, (0, 0));
    let (mut unread, mut write) = (old_len, merged_end);
    for &pair in batch.iter().rev() {
        while unread > 0 && edges[unread - 1] > pair {
            unread -= 1;
            write -= 1;
            edges[write] = edges[unread];
        }
        if unread > 0 && edges[unread - 1] == pair {
            continue;
        }
        write -= 1;
        edges[write] = pair;
    }
    if write > unread {
        edges.copy_within(write.., unread);
        edges.truncate(merged_end - (write - unread));
    }
    batch.clear();
}

/// Sorts pairs `(u, v)` with `u, v < nodes` by LSD radix passes over the
/// packed key `u * nodes + v`. The key is injective and orders exactly as
/// the pairs do, so the result equals `sort_unstable` on the pairs.
fn radix_sort_pairs(pairs: &mut Vec<(u32, u32)>, nodes: usize) {
    const DIGIT_BITS: u32 = 11;
    const BUCKETS: usize = 1 << DIGIT_BITS;
    let n = nodes as u64;
    let key = |&(u, v): &(u32, u32)| u64::from(u) * n + u64::from(v);
    let key_bits = u64::BITS - n.saturating_mul(n).saturating_sub(1).leading_zeros();
    let passes = key_bits.div_ceil(DIGIT_BITS) as usize;
    let mut counts = vec![[0usize; BUCKETS]; passes];
    for p in pairs.iter() {
        let k = key(p);
        for (pass, count) in counts.iter_mut().enumerate() {
            count[((k >> (pass as u32 * DIGIT_BITS)) as usize) & (BUCKETS - 1)] += 1;
        }
    }
    let mut scratch = vec![(0, 0); pairs.len()];
    for (pass, count) in counts.iter_mut().enumerate() {
        // A digit every key shares moves nothing.
        if count.contains(&pairs.len()) {
            continue;
        }
        let mut next = 0;
        for c in count.iter_mut() {
            let bucket = *c;
            *c = next;
            next += bucket;
        }
        let shift = pass as u32 * DIGIT_BITS;
        for p in pairs.iter() {
            let slot = &mut count[((key(p) >> shift) as usize) & (BUCKETS - 1)];
            scratch[*slot] = *p;
            *slot += 1;
        }
        std::mem::swap(pairs, &mut scratch);
    }
}

fn prefix_sums(weights: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(weights.len() + 1);
    out.push(0.0);
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        out.push(acc);
    }
    out
}

/// Samples an index proportionally to non-negative weights: a draw
/// `r` in `[0, 1)` picks the last index whose cumulative sum is at most
/// `r * total`.
///
/// A guide table over `B` (a power of two) equal slices of `r` narrows
/// the search. `r * B` is exact, so a draw's slice `⌊r·B⌋` is exact too;
/// and since `r * total` is monotone in `r`, the answer lies between the
/// partition points of the slice's two bounds, which the table stores.
/// Each draw therefore equals a binary search over the whole prefix.
struct PrefixSampler {
    prefix: Vec<f64>,
    /// `guide[b]`: the partition point of `(b / B) * total`, `b` in `0..=B`.
    guide: Vec<usize>,
}

impl PrefixSampler {
    fn new(weights: &[f64]) -> Self {
        let prefix = prefix_sums(weights);
        let total = *prefix.last().expect("non-empty prefix");
        let slices = weights.len().next_power_of_two();
        let guide = (0..=slices)
            .map(|b| {
                let bound = (b as f64 / slices as f64) * total;
                prefix.partition_point(|&p| p <= bound)
            })
            .collect();
        PrefixSampler { prefix, guide }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let r = rng.random::<f64>();
        let x = r * self.prefix[self.prefix.len() - 1];
        let slice = (r * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[slice], self.guide[slice + 1]);
        // partition_point: first index with prefix[i] > x, minus one.
        (lo + self.prefix[lo..hi].partition_point(|&p| p <= x)).clamp(1, self.prefix.len() - 1) - 1
    }
}

/// Samples `k` distinct indices from `0..n` (Floyd's algorithm).
fn sample_indices(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    use std::collections::HashSet;
    let mut chosen = HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nodes: usize, deg: f64) -> CommunityGraphSpec {
        CommunityGraphSpec {
            nodes,
            avg_degree: deg,
            communities: 8,
            intra_fraction: 0.8,
            power_law_exponent: 2.3,
            shuffle_fraction: 1.0,
        }
    }

    fn random_pairs(count: usize, nodes: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
        (0..count)
            .map(|_| {
                let u = rng.random_range(0..nodes as u32);
                let v = rng.random_range(0..nodes as u32);
                (u.min(v), u.max(v))
            })
            .collect()
    }

    /// The plain binary search the guide table narrows, kept as its
    /// oracle.
    fn sample_prefix(prefix: &[f64], rng: &mut StdRng) -> usize {
        let total = *prefix.last().expect("non-empty prefix");
        let x = rng.random::<f64>() * total;
        prefix
            .partition_point(|&p| p <= x)
            .clamp(1, prefix.len() - 1)
            - 1
    }

    #[test]
    fn guide_table_sampling_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(0x9d1e);
        for trial in 0..40 {
            let len = [1usize, 2, 3, 7, 64, 65, 1000, 4099][trial % 8];
            let weights: Vec<f64> = match trial % 4 {
                // Zipf-like, as the generator draws them.
                0 => (0..len).map(|r| ((r + 1) as f64).powf(-0.77)).collect(),
                // One dominant weight among tiny ones.
                1 => (0..len)
                    .map(|r| if r == len / 2 { 1e6 } else { 1e-3 })
                    .collect(),
                // Zero weights, which no draw may pick.
                2 => (0..len)
                    .map(|r| if r % 3 == 0 { 0.0 } else { 1.0 })
                    .collect(),
                _ => (0..len).map(|_| rng.random::<f64>() + 1e-9).collect(),
            };
            let sampler = PrefixSampler::new(&weights);
            let seed = rng.random::<u64>();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for draw in 0..2000 {
                assert_eq!(
                    sampler.sample(&mut a),
                    sample_prefix(&sampler.prefix, &mut b),
                    "trial {trial} draw {draw}"
                );
            }
        }
    }

    #[test]
    fn radix_sort_matches_sort_unstable() {
        let mut rng = StdRng::seed_from_u64(0x4ad1);
        for (trial, nodes) in [1usize, 2, 3, 45, 2048, 2049, 100_000, 1 << 22]
            .into_iter()
            .enumerate()
        {
            let mut pairs = random_pairs(rng.random_range(0..3000usize), nodes, &mut rng);
            // Pairs sharing a source share the key's upper digits, which
            // the sort skips.
            let hub = rng.random_range(0..nodes as u32);
            let mut hub_pairs: Vec<(u32, u32)> = (0..500)
                .map(|_| (hub, rng.random_range(hub..nodes as u32)))
                .collect();
            for pairs in [&mut pairs, &mut hub_pairs] {
                let mut expected = pairs.clone();
                expected.sort_unstable();
                radix_sort_pairs(pairs, nodes);
                assert_eq!(*pairs, expected, "trial {trial}: {nodes} nodes");
            }
        }
    }

    #[test]
    fn merge_batch_matches_resorting_the_whole_list() {
        let mut rng = StdRng::seed_from_u64(0x3e7);
        for trial in 0..48 {
            let nodes = [2usize, 3, 17, 300, 5000, 1 << 20][trial % 6];
            let mut merged = Vec::new();
            let mut resorted: Vec<(u32, u32)> = Vec::new();
            for round in 0..5 {
                let count = rng.random_range(0..1500usize);
                let mut batch = random_pairs(count, nodes, &mut rng);
                // The top-up the merge replaced: append, sort and dedup
                // the whole list.
                resorted.extend_from_slice(&batch);
                resorted.sort_unstable();
                resorted.dedup();
                merge_batch(&mut merged, &mut batch, nodes);
                assert!(batch.is_empty());
                assert_eq!(merged, resorted, "trial {trial} round {round}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(300, 6.0);
        assert_eq!(s.generate(7), s.generate(7));
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec(300, 6.0);
        assert_ne!(s.generate(7), s.generate(8));
    }

    #[test]
    fn average_degree_close_to_target() {
        let g = spec(2000, 10.0).generate(1);
        let d = g.avg_degree();
        assert!((d - 10.0).abs() < 1.5, "avg degree {d} too far from 10");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = spec(2000, 10.0).generate(1);
        let mut degrees: Vec<usize> = (0..g.nodes()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs should be far above average for a power-law graph.
        assert!(
            degrees[0] > 5 * 10,
            "max degree {} not hub-like",
            degrees[0]
        );
    }

    #[test]
    fn intra_fraction_keeps_edges_inside_communities() {
        let s = CommunityGraphSpec {
            shuffle_fraction: 0.0,
            ..spec(1000, 8.0)
        };
        let gen = s.generate_detailed(3);
        let mut intra = 0usize;
        let mut total = 0usize;
        for v in 0..gen.graph.nodes() {
            for &u in gen.graph.neighbors(v) {
                total += 1;
                if gen.community[v] == gen.community[u as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.65, "intra fraction {frac} too low");
    }

    #[test]
    fn shuffle_hides_community_ordering() {
        let base = CommunityGraphSpec {
            shuffle_fraction: 0.0,
            ..spec(1000, 8.0)
        };
        let shuf = CommunityGraphSpec {
            shuffle_fraction: 1.0,
            ..spec(1000, 8.0)
        };
        // With ordering intact, consecutive nodes share communities; after a
        // full shuffle they mostly do not.
        let same_community_runs = |g: &GeneratedGraph| {
            (1..g.community.len())
                .filter(|&i| g.community[i] == g.community[i - 1])
                .count()
        };
        let ordered = same_community_runs(&base.generate_detailed(5));
        let shuffled = same_community_runs(&shuf.generate_detailed(5));
        assert!(ordered > 900, "ordered runs = {ordered}");
        assert!(shuffled < 400, "shuffled runs = {shuffled}");
    }

    #[test]
    fn rmat_generates_power_law_like_graph() {
        let g = RmatGraphSpec::graph500(10, 8.0).generate(9);
        assert_eq!(g.nodes(), 1024);
        let max_deg = (0..g.nodes()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg > 40, "R-MAT hub degree {max_deg} too small");
    }

    #[test]
    fn rmat_uniform_has_flat_degrees() {
        let g = RmatGraphSpec::uniform(10, 8.0).generate(9);
        let max_deg = (0..g.nodes()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg < 30, "uniform R-MAT hub degree {max_deg} too large");
    }

    #[test]
    fn reproduces_target_edge_count_within_tolerance() {
        let g = spec(5000, 20.0).generate(11);
        let target = 5000 * 20 / 2;
        let got = g.undirected_edges();
        assert!(
            (got as f64) > 0.9 * target as f64 && (got as f64) <= 1.02 * target as f64,
            "edge count {got} vs target {target}"
        );
    }
}
