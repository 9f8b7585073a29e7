//! Per-layer probes of the traced run: the benchmark times its own calls
//! into each crate's public functions on the workload's inputs, after the
//! timed phase so the probes never load it.

use std::path::Path;

use grow_core::{prepare, PartitionStrategy};
use grow_model::GcnWorkload;
use grow_partition::{hdn_lists, multilevel_partition, ClusterLayout, MultilevelConfig};
use grow_serve::ResultStore;

use crate::trace::Recorder;
use crate::workloads::{Round, Workload};

/// Host seconds per crate stage, summed over the workload's preparations.
#[derive(Debug, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub features_s: f64,
    pub multilevel_s: f64,
    pub relabel_s: f64,
    pub hdn_lists_s: f64,
    pub prepare_s: f64,
    /// `prepare` minus the standalone `multilevel_partition` on the same
    /// graph: normalization, relabeling and HDN extraction inside it.
    pub prepare_self_s: f64,
}

/// Times graph generation, feature synthesis, partitioning, relabeling,
/// HDN-list extraction and `prepare` on every preparation the workload
/// needs. Fails when a standalone stage disagrees with `prepare`.
pub fn stages(workload: Workload, seed: u64, rec: &Recorder) -> Result<StageTimes, String> {
    let root = rec.id();
    let start = std::time::Instant::now();
    let mut t = StageTimes::default();
    for (spec, seed, strategies) in workload.preparations(seed) {
        let (graph, s) = rec.time("graph.generate", Some(root), || {
            spec.graph_spec().generate(seed)
        });
        t.generate_s += s;
        let (gcn, s) = rec.time("model.features", Some(root), || {
            GcnWorkload::with_graph(&spec, graph, seed)
        });
        t.features_s += s;
        for strategy in strategies {
            // `prepare` runs first, as in a cold job; the standalone
            // stages after it then run on warm memory.
            let entries = grow_serve::JobSpec::new(spec, seed, "grow").hdn_id_entries;
            let (prepared, prepare_s) = rec.time("core.prepare", Some(root), || {
                prepare(&gcn, strategy, entries)
            });
            t.prepare_s += prepare_s;
            let mut multilevel_s = 0.0;
            if let PartitionStrategy::Multilevel { cluster_nodes } = strategy {
                let parts = gcn.graph.nodes().div_ceil(cluster_nodes).max(1);
                let (partitioning, s) = rec.time("partition.multilevel", Some(root), || {
                    multilevel_partition(&gcn.graph, parts, &MultilevelConfig::default())
                });
                multilevel_s = s;
                let layout = ClusterLayout::from_partitioning(&partitioning);
                if layout.ranges() != prepared.clusters.as_slice() {
                    return Err(format!(
                        "{}: standalone multilevel_partition disagrees with prepare",
                        spec.key.name()
                    ));
                }
                let (_, s) = rec.time("partition.relabel", Some(root), || {
                    layout.relabel(&gcn.graph)
                });
                t.relabel_s += s;
            }
            t.multilevel_s += multilevel_s;
            t.prepare_self_s += (prepare_s - multilevel_s).max(0.0);
            let (lists, s) = rec.time("partition.hdn_lists", Some(root), || {
                hdn_lists(&prepared.adjacency, &prepared.clusters, entries)
            });
            t.hdn_lists_s += s;
            if lists != prepared.hdn_lists {
                return Err(format!(
                    "{}: standalone hdn_lists disagrees with prepare",
                    spec.key.name()
                ));
            }
        }
    }
    rec.record(
        root,
        None,
        "probe.stages",
        None,
        start,
        std::time::Instant::now(),
    );
    Ok(t)
}

/// Store cost on the round's own keys and reports.
#[derive(Debug, Default)]
pub struct StoreTimes {
    pub load_s: f64,
    pub persist_s: f64,
    pub bytes: u64,
}

/// Persists every report of `round` into a scratch store, then loads each
/// back, timing every call. Fails when a loaded report differs.
pub fn store(round: &Round, dir: &Path, rec: &Recorder) -> Result<StoreTimes, String> {
    let root = rec.id();
    let start = std::time::Instant::now();
    let store_dir = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
    let mut t = StoreTimes::default();
    let pairs: Vec<_> = round
        .jobs
        .iter()
        .zip(&round.observed)
        .filter_map(|(job, o)| Some((job.key(), o.report()?)))
        .collect();
    for (key, report) in &pairs {
        let (written, s) = rec.time("serve.store.persist", Some(root), || {
            store.persist(key, report)
        });
        written.map_err(|e| format!("persist failed: {e}"))?;
        t.persist_s += s;
        t.bytes += std::fs::metadata(store.entry_path(key))
            .map_err(|e| e.to_string())?
            .len();
    }
    for (key, report) in &pairs {
        let (loaded, s) = rec.time("serve.store.load", Some(root), || store.load(key));
        t.load_s += s;
        if loaded.as_ref() != Some(*report) {
            return Err(format!("store round trip changed the report for {key}"));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    rec.record(
        root,
        None,
        "probe.store",
        None,
        start,
        std::time::Instant::now(),
    );
    Ok(t)
}
