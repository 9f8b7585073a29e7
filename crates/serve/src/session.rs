//! [`SimSession`] — the one-stop driver for simulating workloads on the
//! registered engines.
//!
//! A session owns one instantiated GCN workload and memoizes its prepared
//! (partitioned/relabeled) forms, which are by far the most expensive part
//! of an evaluation; engines are then dispatched by name through the
//! [`grow_core::registry`], so callers — benches, examples, services —
//! never touch engine types directly. The [`crate::batch`] service pools
//! sessions by workload key and shares them across jobs.
//!
//! ```
//! use grow_core::PartitionStrategy;
//! use grow_model::DatasetKey;
//! use grow_serve::session::SimSession;
//!
//! let mut session = SimSession::from_spec(DatasetKey::Cora.spec().scaled_to(400), 42);
//! let grow = session.run("grow", PartitionStrategy::multilevel_default()).unwrap();
//! let gcnax = session.run("gcnax", PartitionStrategy::None).unwrap();
//! assert_eq!(grow.mac_ops(), gcnax.mac_ops(), "same work, different movement");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use grow_core::registry::{self, RegistryError};
use grow_core::{
    partition, prepare_with, PartitionStrategy, PlanCache, PlanCacheScope, PreparedWorkload,
    RunReport,
};
use grow_model::{DatasetSpec, GcnWorkload};

use crate::store::{GraphFingerprint, ResultStore};

/// Default HDN ID list length (Table III: 12 KB at 3 B/entry).
pub const DEFAULT_HDN_ID_ENTRIES: usize = 4096;

/// How [`SimSession::prepare_stored`] came by a prepared form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Preparation {
    /// Already memoized: nothing ran.
    Memoized,
    /// Prepared here, running the strategy's partitioner (if any).
    Computed,
    /// Prepared here from an assignment loaded from the result store.
    Loaded,
}

/// A simulation session: one workload, memoized preprocessing, and
/// name-based engine dispatch.
#[derive(Debug)]
pub struct SimSession {
    workload: GcnWorkload,
    hdn_id_entries: usize,
    prepared: HashMap<PartitionStrategy, Arc<PreparedWorkload>>,
    plan_cache: Option<(Arc<PlanCache>, String)>,
}

impl SimSession {
    /// Creates a session over an already instantiated workload.
    pub fn new(workload: GcnWorkload) -> Self {
        SimSession {
            workload,
            hdn_id_entries: DEFAULT_HDN_ID_ENTRIES,
            prepared: HashMap::new(),
            plan_cache: None,
        }
    }

    /// Instantiates `spec` with `seed` and wraps it in a session.
    pub fn from_spec(spec: DatasetSpec, seed: u64) -> Self {
        Self::new(spec.instantiate(seed))
    }

    /// Overrides the per-cluster HDN ID list length (Table III: 4096).
    /// Clears any workloads already prepared with the previous value.
    pub fn set_hdn_id_entries(&mut self, entries: usize) {
        if entries != self.hdn_id_entries {
            self.hdn_id_entries = entries;
            self.prepared.clear();
        }
    }

    /// The per-cluster HDN ID list length in effect.
    pub fn hdn_id_entries(&self) -> usize {
        self.hdn_id_entries
    }

    /// Attaches a shared cross-job [`PlanCache`]: every workload this
    /// session prepares from now on carries a [`PlanCacheScope`] keyed
    /// `"{scope_prefix}|{strategy:?}"`, so engines share layer-invariant
    /// aggregation plans across jobs hitting the same prepared form.
    /// Clears any already-prepared workloads so stamps stay consistent.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>, scope_prefix: String) {
        self.prepared.clear();
        self.plan_cache = Some((cache, scope_prefix));
    }

    /// Stamps the session's plan-cache scope (if any) onto a freshly
    /// prepared workload and shares it behind an `Arc`, so in-flight
    /// jobs keep their prepared form alive across session eviction.
    fn stamp(&self, strategy: PartitionStrategy, mut p: PreparedWorkload) -> Arc<PreparedWorkload> {
        if let Some((cache, prefix)) = &self.plan_cache {
            p.plan_cache = Some(PlanCacheScope::new(
                Arc::clone(cache),
                format!("{prefix}|{strategy:?}"),
            ));
        }
        Arc::new(p)
    }

    /// The underlying workload.
    pub fn workload(&self) -> &GcnWorkload {
        &self.workload
    }

    /// Number of prepared forms currently memoized.
    pub fn prepared_count(&self) -> usize {
        self.prepared.len()
    }

    /// The prepared form of the workload under `strategy`, running the
    /// software preprocessing stack on first use and memoizing it.
    pub fn prepared(&mut self, strategy: PartitionStrategy) -> &PreparedWorkload {
        self.prepare_stored(strategy, None);
        self.prepared.get(&strategy).expect("just prepared")
    }

    /// The already-memoized prepared form for `strategy`, if any — the
    /// read-only lookup after a preparation.
    pub fn get_prepared(&self, strategy: PartitionStrategy) -> Option<&PreparedWorkload> {
        self.prepared.get(&strategy).map(Arc::as_ref)
    }

    /// Like [`Self::get_prepared`] but returning the shared handle — the
    /// serving layer clones it so a job can compute outside the session
    /// lock (and survive eviction of the session mid-flight).
    pub fn get_prepared_arc(&self, strategy: PartitionStrategy) -> Option<Arc<PreparedWorkload>> {
        self.prepared.get(&strategy).map(Arc::clone)
    }

    /// Prepares `strategy` unless it is memoized. With `stored` — a
    /// result store and the strategy's partition key — the assignment
    /// comes from the store's validated entry for that key when there is
    /// one, and a freshly computed assignment is persisted for the next
    /// lifetime. Either way the preparation is derived by
    /// [`prepare_with`], so it equals [`grow_core::prepare`]'s.
    pub(crate) fn prepare_stored(
        &mut self,
        strategy: PartitionStrategy,
        stored: Option<(&ResultStore, &str)>,
    ) -> Preparation {
        if self.prepared.contains_key(&strategy) {
            return Preparation::Memoized;
        }
        let graph = &self.workload.graph;
        let mut source = Preparation::Computed;
        let partitioning = match stored {
            None => partition(graph, strategy),
            Some((store, key)) => {
                let fingerprint = GraphFingerprint::of(&self.workload);
                let parts = strategy.parts(graph.nodes());
                match store.load_partition(key, &fingerprint, parts) {
                    Some(loaded) => {
                        source = Preparation::Loaded;
                        Some(loaded)
                    }
                    None => {
                        let computed = partition(graph, strategy);
                        if let Some(p) = &computed {
                            if let Err(e) = store.persist_partition(key, &fingerprint, p) {
                                eprintln!(
                                    "warning: result store partition write failed for {key}: {e}"
                                );
                            }
                        }
                        computed
                    }
                }
            }
        };
        let p = prepare_with(&self.workload, partitioning.as_ref(), self.hdn_id_entries);
        self.prepared.insert(strategy, self.stamp(strategy, p));
        source
    }

    /// Runs the named engine (default configuration) on the workload
    /// prepared with `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] if the engine name is unknown.
    pub fn run(
        &mut self,
        engine: &str,
        strategy: PartitionStrategy,
    ) -> Result<RunReport, RegistryError> {
        // Resolve the engine before preparing, so an unknown name fails
        // fast instead of after seconds of partitioning.
        let engine = registry::engine_by_name(engine)?;
        Ok(engine.run(self.prepared(strategy)))
    }

    /// Runs the named engine with key-value configuration overrides (see
    /// [`grow_core::registry::engine_from_overrides`] for the key set).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] for unknown names/keys or unparsable
    /// values.
    pub fn run_with(
        &mut self,
        engine: &str,
        overrides: &[(&str, &str)],
        strategy: PartitionStrategy,
    ) -> Result<RunReport, RegistryError> {
        let engine = registry::engine_from_overrides(engine, overrides)?;
        Ok(engine.run(self.prepared(strategy)))
    }

    /// Runs every registered engine in its paper-default configuration:
    /// GROW on the partitioned workload, the baselines on the original
    /// node order (Section VI's comparison setup). Reports come back in
    /// [`registry::ENGINE_NAMES`] order.
    pub fn compare_all(&mut self) -> Vec<RunReport> {
        registry::ENGINE_NAMES
            .iter()
            .map(|&name| {
                let strategy = if name == "grow" {
                    PartitionStrategy::multilevel_default()
                } else {
                    PartitionStrategy::None
                };
                self.run(name, strategy).expect("registry names resolve")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_core::prepare;
    use grow_model::DatasetKey;

    fn session() -> SimSession {
        SimSession::from_spec(DatasetKey::Pubmed.spec().scaled_to(500), 7)
    }

    #[test]
    fn run_matches_direct_engine_use() {
        use grow_core::{Accelerator, GrowEngine};
        let mut s = session();
        let via_session = s.run("grow", PartitionStrategy::None).unwrap();
        let direct = GrowEngine::default().run(&prepare(
            s.workload(),
            PartitionStrategy::None,
            DEFAULT_HDN_ID_ENTRIES,
        ));
        assert_eq!(via_session, direct);
    }

    #[test]
    fn preparation_is_memoized() {
        let mut s = session();
        let strategy = PartitionStrategy::Multilevel { cluster_nodes: 100 };
        let a = s.prepared(strategy).clusters.clone();
        let b = s.prepared(strategy).clusters.clone();
        assert_eq!(a, b);
        assert_eq!(s.prepared.len(), 1);
    }

    #[test]
    fn unknown_engine_fails_fast() {
        let mut s = session();
        assert!(s.run("npu", PartitionStrategy::None).is_err());
        assert!(s.prepared.is_empty(), "no preparation for unknown engines");
    }

    #[test]
    fn compare_all_covers_every_engine() {
        let mut s = session();
        let reports = s.compare_all();
        assert_eq!(reports.len(), 4);
        let names: Vec<&str> = reports.iter().map(|r| r.engine).collect();
        assert_eq!(names, ["GROW", "GCNAX", "MatRaptor", "GAMMA"]);
        // Iso-computation across the board.
        assert!(reports.windows(2).all(|w| w[0].mac_ops() == w[1].mac_ops()));
    }

    #[test]
    fn overrides_flow_through() {
        let mut s = session();
        let narrow = s
            .run_with("grow", &[("runahead", "1")], PartitionStrategy::None)
            .unwrap();
        let wide = s.run("grow", PartitionStrategy::None).unwrap();
        assert_eq!(narrow.mac_ops(), wide.mac_ops());
    }

    #[test]
    fn hdn_entries_change_invalidates_cache() {
        let mut s = session();
        s.prepared(PartitionStrategy::None);
        s.set_hdn_id_entries(16);
        assert!(s.prepared.is_empty());
        assert!(s.prepared(PartitionStrategy::None).hdn_lists[0].len() <= 16);
    }

    #[test]
    fn plan_cache_scope_is_stamped_on_prepared_workloads() {
        let mut s = session();
        assert!(s.prepared(PartitionStrategy::None).plan_cache.is_none());
        s.set_plan_cache(Arc::new(PlanCache::new(4)), "key".into());
        assert!(s.prepared.is_empty(), "attachment clears memoized forms");
        assert!(s.prepared(PartitionStrategy::None).plan_cache.is_some());
        let arc = s.get_prepared_arc(PartitionStrategy::None).unwrap();
        assert!(Arc::ptr_eq(
            &arc,
            &s.get_prepared_arc(PartitionStrategy::None).unwrap()
        ));
    }

    #[test]
    fn get_prepared_is_read_only() {
        let mut s = session();
        assert!(s.get_prepared(PartitionStrategy::None).is_none());
        s.prepared(PartitionStrategy::None);
        assert!(s.get_prepared(PartitionStrategy::None).is_some());
        assert_eq!(s.prepared_count(), 1);
    }
}
