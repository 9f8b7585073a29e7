//! Reproducibility: every stage of the pipeline is seeded and must be
//! bit-identical across repeated runs — the property that makes the
//! experiment harness's published numbers regenerable.

use grow::accel::{
    prepare, Accelerator, GammaEngine, GcnaxEngine, GrowEngine, MatRaptorEngine, PartitionStrategy,
};
use grow::model::DatasetKey;
use grow::session::SimSession;

#[test]
fn dataset_generation_is_seed_deterministic() {
    let spec = DatasetKey::Flickr.spec().scaled_to(2000);
    let a = spec.instantiate(123);
    let b = spec.instantiate(123);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.layers, b.layers);
    let c = spec.instantiate(124);
    assert_ne!(a.graph, c.graph, "different seeds must differ");
}

#[test]
fn preparation_is_deterministic() {
    let w = DatasetKey::Pubmed.spec().scaled_to(1000).instantiate(7);
    let p1 = prepare(&w, PartitionStrategy::multilevel_default(), 4096);
    let p2 = prepare(&w, PartitionStrategy::multilevel_default(), 4096);
    assert_eq!(p1.adjacency, p2.adjacency);
    assert_eq!(p1.clusters, p2.clusters);
    assert_eq!(p1.hdn_lists, p2.hdn_lists);
}

#[test]
fn every_engine_is_deterministic() {
    let w = DatasetKey::Pubmed.spec().scaled_to(800).instantiate(7);
    let p = prepare(&w, PartitionStrategy::multilevel_default(), 4096);
    let engines: Vec<Box<dyn Accelerator>> = vec![
        Box::new(GrowEngine::default()),
        Box::new(GcnaxEngine::default()),
        Box::new(MatRaptorEngine::default()),
        Box::new(GammaEngine::default()),
    ];
    for engine in engines {
        assert_eq!(engine.run(&p), engine.run(&p), "{}", engine.name());
    }
}

#[test]
fn session_runs_are_reproducible_end_to_end() {
    // Two sessions each generate, partition and simulate the recipe from
    // scratch.
    let spec = DatasetKey::Cora.spec().scaled_to(500);
    let run = || {
        SimSession::from_spec(spec, 31)
            .run("grow", PartitionStrategy::multilevel_default())
            .expect("registered engine")
    };
    assert_eq!(run(), run());
}
