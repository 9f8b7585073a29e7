//! Randomized-input tests for graph construction, generation, and
//! normalization invariants.
//!
//! (Formerly proptest-based; the offline build has no crates.io access, so
//! cases are drawn from the workspace's own seeded PRNG instead — same
//! properties, deterministic case set.)

use grow_graph::{normalized_adjacency, CommunityGraphSpec, Graph, RmatGraphSpec};
use grow_sparse::{CooMatrix, CsrPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_spec(rng: &mut StdRng) -> (CommunityGraphSpec, u64) {
    (
        CommunityGraphSpec {
            nodes: rng.random_range(50usize..400),
            avg_degree: rng.random_range(2.0f64..14.0),
            communities: rng.random_range(2usize..8),
            intra_fraction: rng.random_range(0.5f64..0.95),
            power_law_exponent: rng.random_range(2.05f64..3.0),
            shuffle_fraction: rng.random_range(0.0f64..1.0),
        },
        rng.random_range(0u64..10_000),
    )
}

const CASES: usize = 24;

#[test]
fn generated_graphs_are_simple_and_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x61a1);
    for case in 0..CASES {
        let (spec, seed) = random_spec(&mut rng);
        let g = spec.generate(seed);
        assert_eq!(g.nodes(), spec.nodes, "case {case}");
        for v in 0..g.nodes() {
            let row = g.neighbors(v);
            // No self-loops, strictly sorted (implies no duplicates).
            assert!(row.iter().all(|&u| u as usize != v), "case {case} row {v}");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "case {case} row {v}");
            // Symmetry.
            for &u in row {
                assert!(
                    g.neighbors(u as usize).contains(&(v as u32)),
                    "case {case}: edge ({v}, {u}) missing its reverse"
                );
            }
        }
    }
}

#[test]
fn degree_sums_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0x61a2);
    for case in 0..CASES {
        let (spec, seed) = random_spec(&mut rng);
        let g = spec.generate(seed);
        let sum: usize = (0..g.nodes()).map(|v| g.degree(v)).sum();
        assert_eq!(sum, g.directed_edges(), "case {case}");
        assert_eq!(g.directed_edges(), 2 * g.undirected_edges(), "case {case}");
    }
}

#[test]
fn relabeling_is_an_isomorphism() {
    let mut rng = StdRng::seed_from_u64(0x61a3);
    for case in 0..CASES {
        let (spec, seed) = random_spec(&mut rng);
        let g = spec.generate(seed);
        let n = g.nodes();
        // Rotate node IDs by one.
        let perm: Vec<u32> = (0..n as u32).map(|v| (v + 1) % n as u32).collect();
        let r = g.relabel(&perm);
        assert_eq!(r.undirected_edges(), g.undirected_edges(), "case {case}");
        let mut degrees_a: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let mut degrees_b: Vec<usize> = (0..n).map(|v| r.degree(v)).collect();
        degrees_a.sort_unstable();
        degrees_b.sort_unstable();
        assert_eq!(degrees_a, degrees_b, "case {case}");
    }
}

#[test]
fn normalization_is_symmetric_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x61a4);
    for case in 0..CASES {
        let (spec, seed) = random_spec(&mut rng);
        let g = spec.generate(seed);
        let a = normalized_adjacency(&g);
        assert_eq!(a.nnz(), g.directed_edges() + g.nodes(), "case {case}");
        // Every value is in (0, 1] — each entry is 1/sqrt((d_u+1)(d_v+1)).
        assert!(
            a.values().iter().all(|&v| v > 0.0 && v <= 1.0),
            "case {case}"
        );
        // Symmetric values.
        let t = a.transpose();
        assert!(a.to_dense().approx_eq(&t.to_dense(), 1e-12), "case {case}");
    }
}

#[test]
fn rmat_respects_node_count() {
    let mut rng = StdRng::seed_from_u64(0x61a5);
    for case in 0..CASES {
        let scale = rng.random_range(6u32..11);
        let deg = rng.random_range(2.0f64..10.0);
        let seed = rng.random_range(0u64..1000);
        let g = RmatGraphSpec::graph500(scale, deg).generate(seed);
        assert_eq!(g.nodes(), 1usize << scale, "case {case}");
        assert!(g.undirected_edges() > 0, "case {case}");
    }
}

#[test]
fn from_edges_is_idempotent_under_duplication() {
    let mut rng = StdRng::seed_from_u64(0x61a6);
    for case in 0..CASES {
        let n = rng.random_range(4usize..40);
        let count = rng.random_range(0usize..80);
        let edges: Vec<(u32, u32)> = (0..count)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .collect();
        let once = Graph::from_edges(n, edges.iter().copied());
        let doubled = Graph::from_edges(n, edges.iter().chain(edges.iter()).copied());
        assert_eq!(once, doubled, "case {case}");
    }
}

/// A seeded edge list over `n` nodes with duplicates in both orientations
/// and self-loops. Endpoints come from the lower two thirds of the IDs, so
/// the rest are isolated nodes.
fn messy_edges(n: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    if n == 0 {
        return Vec::new();
    }
    let hi = (2 * n as u32).div_ceil(3);
    let count = rng.random_range(0..4 * n);
    let mut edges: Vec<(u32, u32)> = (0..count)
        .map(|_| (rng.random_range(0..hi), rng.random_range(0..hi)))
        .collect();
    let reversed: Vec<(u32, u32)> = edges[..count / 3].iter().map(|&(u, v)| (v, u)).collect();
    edges.extend(reversed);
    edges.extend_from_within(..count / 4);
    edges.extend((0..rng.random_range(0..4usize)).map(|_| {
        let v = rng.random_range(0..n as u32);
        (v, v)
    }));
    edges
}

/// Node counts for the differential cases: the 0- and 1-node graphs, then
/// random sizes.
fn case_nodes(case: usize, rng: &mut StdRng) -> usize {
    match case {
        0 | 1 => case,
        _ => rng.random_range(2usize..150),
    }
}

/// The construction `Graph::from_edges` replaced: both directions of every
/// non-loop edge into a COO matrix, converted to CSR (duplicates merged).
fn coo_pattern(n: usize, edges: &[(u32, u32)]) -> CsrPattern {
    let mut coo = CooMatrix::new(n, n);
    for &(u, v) in edges {
        if u != v {
            coo.push(u as usize, v as usize, 1.0).unwrap();
            coo.push(v as usize, u as usize, 1.0).unwrap();
        }
    }
    coo.to_csr().into_pattern()
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    perm
}

#[test]
fn from_edges_matches_the_coo_reference() {
    let mut rng = StdRng::seed_from_u64(0x61a7);
    for case in 0..4 * CASES {
        let n = case_nodes(case, &mut rng);
        let edges = messy_edges(n, &mut rng);
        let g = Graph::from_edges(n, edges.iter().copied());
        assert_eq!(g.adjacency(), &coo_pattern(n, &edges), "case {case}");
    }
}

#[test]
fn relabel_matches_permute_symmetric() {
    let mut rng = StdRng::seed_from_u64(0x61a8);
    for case in 0..4 * CASES {
        let n = case_nodes(case, &mut rng);
        let g = Graph::from_edges(n, messy_edges(n, &mut rng));
        let perm = random_permutation(n, &mut rng);
        let reference = g
            .adjacency()
            .clone()
            .with_unit_values()
            .permute_symmetric(&perm)
            .into_pattern();
        assert_eq!(g.relabel(&perm).adjacency(), &reference, "case {case}");
    }
    // Generated graphs too: power-law hubs and planted communities.
    for case in 0..CASES / 4 {
        let (spec, seed) = random_spec(&mut rng);
        let g = spec.generate(seed);
        let perm = random_permutation(g.nodes(), &mut rng);
        let reference = g
            .adjacency()
            .clone()
            .with_unit_values()
            .permute_symmetric(&perm)
            .into_pattern();
        assert_eq!(
            g.relabel(&perm).adjacency(),
            &reference,
            "generated case {case}"
        );
    }
}
