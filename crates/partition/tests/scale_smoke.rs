//! Release-mode scale smoke test: the partitioner must handle the largest
//! Table I surrogate sizes in single-digit seconds with useful quality.
//! Run with `cargo test --release -p grow-partition -- --ignored`.

use std::time::Instant;

use grow_graph::CommunityGraphSpec;
use grow_partition::{multilevel_partition, MultilevelConfig};

#[test]
#[ignore = "release-mode scale check; run explicitly"]
fn yelp_scale_partitioning_quality_and_speed() {
    let spec = CommunityGraphSpec {
        nodes: 89_605,
        avg_degree: 19.5,
        communities: 40,
        intra_fraction: 0.85,
        power_law_exponent: 2.4,
        shuffle_fraction: 1.0,
    };
    let t0 = Instant::now();
    let graph = spec.generate(42);
    let gen_time = t0.elapsed();

    let parts = graph.nodes().div_ceil(4096);
    let t1 = Instant::now();
    let ml = multilevel_partition(&graph, parts, &MultilevelConfig::default());
    let ml_time = t1.elapsed();
    let ml_frac = ml.intra_edge_fraction(&graph);

    eprintln!(
        "gen: {gen_time:?}; multilevel: {ml_time:?} (intra {ml_frac:.3}, balance {:.3})",
        ml.balance()
    );
    assert!(ml_frac > 0.5, "multilevel intra fraction {ml_frac} too low");
    assert!(ml_time.as_secs() < 60, "multilevel too slow: {ml_time:?}");
}
