//! The Section VIII "aggregator zoo": run the same graph through GCN-sum,
//! GraphSAGE-mean/pool, GIN, and GAT aggregation on the GROW model, and
//! report cycles plus the extra die area each variant needs.
//!
//! ```text
//! cargo run --release --example aggregator_zoo
//! ```

use grow::accel::extensions::{run_with_aggregation, AggregationKind};
use grow::accel::{prepare, GrowEngine, PartitionStrategy, HDN_ID_ENTRIES};
use grow::energy::{grow_default_65nm, TECH_SCALE_65_TO_40};
use grow::model::DatasetKey;

fn main() {
    let workload = DatasetKey::Flickr.spec().scaled_to(20_000).instantiate(11);
    let prepared = prepare(
        &workload,
        PartitionStrategy::multilevel_default(),
        HDN_ID_ENTRIES,
    );
    let engine = GrowEngine::default();
    let base_area = grow_default_65nm().scaled(TECH_SCALE_65_TO_40).total();

    println!("workload: {}", workload.graph);
    println!(
        "\n{:<28} {:>12} {:>12} {:>10} {:>12}",
        "aggregator", "cycles", "MAC ops", "area mm2", "vs GCN-sum"
    );

    let variants: [(&str, AggregationKind); 5] = [
        ("GCN sum (paper default)", AggregationKind::GcnSum),
        (
            "SAGE mean (sample 25)",
            AggregationKind::SageMean { sample: Some(25) },
        ),
        (
            "SAGE pool (sample 25)",
            AggregationKind::SagePool { sample: Some(25) },
        ),
        ("GIN (2-layer MLP)", AggregationKind::Gin),
        ("GAT (attention)", AggregationKind::Gat),
    ];

    let baseline = run_with_aggregation(&engine, &prepared, AggregationKind::GcnSum);
    for (name, kind) in variants {
        let report = run_with_aggregation(&engine, &prepared, kind);
        let area = base_area * (1.0 + kind.area_overhead_fraction());
        println!(
            "{:<28} {:>12} {:>12} {:>10.3} {:>11.2}x",
            name,
            report.total_cycles(),
            report.mac_ops(),
            area,
            report.total_cycles() as f64 / baseline.total_cycles() as f64
        );
    }
    println!(
        "\narea overheads follow Section VIII: pooling comparator array +1.4%, \
         GAT softmax unit +1.7%; mean/GIN reuse the MAC array as-is."
    );
}
