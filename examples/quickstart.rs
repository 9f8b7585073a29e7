//! Quickstart: simulate GROW on a small citation-network workload and
//! print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use grow::accel::PartitionStrategy;
use grow::model::DatasetKey;
use grow::session::SimSession;

fn main() {
    // 1. Instantiate a Cora-like dataset (Table I row 1) at full scale:
    //    2,708 nodes, power-law degrees, 1433-16-7 feature dimensions.
    //    The session owns the workload and memoizes its prepared forms.
    let session = SimSession::from_spec(DatasetKey::Cora.spec(), 42).expect("valid recipe");
    println!("workload: {}", session.workload().graph);

    // 2. Software preprocessing (Section V-C): graph partitioning,
    //    cluster-sorted relabeling, per-cluster HDN ID lists.
    let partitioned = session.prepared(PartitionStrategy::multilevel_default());
    println!(
        "partitioned into {} clusters (intra-cluster edge fraction {:.1}%)",
        partitioned.clusters.len(),
        100.0 * partitioned.intra_edge_fraction
    );

    // 3. Simulate GROW and the GCNAX baseline, dispatched by name.
    let grow = session
        .run("grow", PartitionStrategy::multilevel_default())
        .expect("registered engine");
    let gcnax = session
        .run("gcnax", PartitionStrategy::None)
        .expect("registered engine");
    println!("\n{grow}");
    println!("{gcnax}");

    // 4. The paper's headline metrics.
    let speedup = gcnax.total_cycles() as f64 / grow.total_cycles() as f64;
    let traffic = gcnax.dram_bytes() as f64 / grow.dram_bytes() as f64;
    let hit_rate = grow.aggregation_cache().hit_rate().unwrap_or(0.0);
    println!("\nGROW vs GCNAX: {speedup:.2}x speedup, {traffic:.2}x less DRAM traffic");
    println!("HDN cache hit rate: {:.1}%", 100.0 * hit_rate);
}
