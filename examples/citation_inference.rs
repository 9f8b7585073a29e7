//! End-to-end GCN inference on a citation network: functional execution
//! (actual feature values through `X' = ReLU(A X W)`) cross-checked with
//! the accelerator timing models.
//!
//! This is the paper's motivating workload class (Cora/Citeseer/Pubmed are
//! citation graphs): classify papers into topics from bag-of-words
//! features plus the citation structure.
//!
//! ```text
//! cargo run --release --example citation_inference
//! ```

use grow::accel::{
    prepare, Accelerator, GcnaxEngine, GrowEngine, PartitionStrategy, HDN_ID_ENTRIES,
};
use grow::energy;
use grow::model::{reference, DatasetKey};

fn main() {
    // A Pubmed-like citation network, scaled so the functional pass stays
    // fast: the GCN still has the paper's 500-16-3 feature dimensions.
    let spec = DatasetKey::Pubmed.spec().scaled_to(4000);
    let workload = spec.instantiate(7);
    println!("citation graph: {}", workload.graph);

    // ---- functional inference (the values, not the cycles) -------------
    let weights = reference::random_weights(&workload, 1);
    let logits = reference::run_gcn(&workload, &weights, 1).expect("shapes match");
    println!(
        "inference output: {} nodes x {} classes",
        logits.rows(),
        logits.cols()
    );
    // Nodes get classified by their arg-max logit; show the distribution.
    let mut class_counts = vec![0usize; logits.cols()];
    for node in 0..logits.rows() {
        let row = logits.row(node);
        let best = (0..row.len())
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("finite"))
            .expect("at least one class");
        class_counts[best] += 1;
    }
    println!("predicted class distribution: {class_counts:?}");

    // ---- accelerator timing (the cycles, not the values) ---------------
    let base = prepare(&workload, PartitionStrategy::None, HDN_ID_ENTRIES);
    let partitioned = prepare(
        &workload,
        PartitionStrategy::multilevel_default(),
        HDN_ID_ENTRIES,
    );
    let grow = GrowEngine::default().run(&partitioned);
    let gcnax = GcnaxEngine::default().run(&base);

    println!("\nper-layer latency breakdown (cycles):");
    for (i, (g, x)) in grow.layers.iter().zip(&gcnax.layers).enumerate() {
        println!(
            "  layer {i}: GROW comb {:>10} agg {:>10} | GCNAX comb {:>10} agg {:>10}",
            g.combination.cycles, g.aggregation.cycles, x.combination.cycles, x.aggregation.cycles
        );
    }

    // ---- energy (Figure 22 methodology) ---------------------------------
    let grow_energy = energy::estimate(&grow.activity(GrowEngine::default().sram_kb()));
    let gcnax_energy = energy::estimate(&gcnax.activity(GcnaxEngine::default().sram_kb()));
    println!("\nGROW  {grow_energy}");
    println!("GCNAX {gcnax_energy}");
    println!(
        "\nGROW vs GCNAX: {:.2}x speedup, {:.2}x energy efficiency",
        gcnax.total_cycles() as f64 / grow.total_cycles() as f64,
        gcnax_energy.total() / grow_energy.total()
    );
}
