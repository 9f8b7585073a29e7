//! [`SimSession`] — the one-stop driver for simulating workloads on the
//! registered engines.
//!
//! A session owns one instantiated GCN workload and memoizes its prepared
//! (partitioned/relabeled) forms, which are by far the most expensive part
//! of an evaluation; engines are then dispatched by name through the
//! [`grow_core::registry`], so callers — benches, examples, services —
//! never touch engine types directly. Each strategy's prepared form lives
//! in its own once-cell, so a session shared across threads prepares
//! each strategy exactly once while distinct strategies prepare at the
//! same time. A prepared form also keeps the aggregation plans engines
//! make on it (its [`PlanStore`]), so every later run on the form skips
//! the plan pass. The [`crate::batch`] service pools sessions by
//! workload key and shares them, with their forms and plans, across
//! jobs and workers.
//!
//! ```
//! use grow_core::PartitionStrategy;
//! use grow_model::DatasetKey;
//! use grow_serve::session::SimSession;
//!
//! let session = SimSession::from_spec(DatasetKey::Cora.spec().scaled_to(400), 42).unwrap();
//! let grow = session.run("grow", PartitionStrategy::multilevel_default()).unwrap();
//! let gcnax = session.run("gcnax", PartitionStrategy::None).unwrap();
//! assert_eq!(grow.mac_ops(), gcnax.mac_ops(), "same work, different movement");
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use grow_core::registry::{self, RegistryError};
use grow_core::{
    partition, prepare_with, PartitionStrategy, PlanCache, PlanStore, PreparedWorkload, RunReport,
    HDN_ID_ENTRIES,
};
use grow_model::{DatasetSpec, GcnWorkload};

use crate::store::{GraphFingerprint, ResultStore};

/// The counters a serving pool attaches to each of its sessions. The
/// work is counted where it runs, so the pool reads every count live,
/// however a session was reached (a job or [`crate::BatchService::session`]).
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Plan lookups of the sessions' prepared forms.
    pub(crate) plans: Arc<PlanCache>,
    /// Sessions instantiated.
    pub(crate) sessions_created: AtomicU64,
    /// (workload, strategy) preparations run.
    pub(crate) preparations_run: AtomicU64,
    /// Preparations whose partition assignment came from the store.
    pub(crate) partitions_loaded: AtomicU64,
}

/// Checks a dataset recipe before anything is built from it: the first
/// field [`DatasetSpec::invalid_field`] rejects fails as the key
/// `dataset.<field>`.
pub(crate) fn check_recipe(spec: &DatasetSpec) -> Result<(), RegistryError> {
    match spec.invalid_field() {
        Some((field, value)) => Err(RegistryError::InvalidValue {
            key: format!("dataset.{field}"),
            value,
        }),
        None => Ok(()),
    }
}

/// One strategy's prepared form, filled exactly once.
type PreparedCell = Arc<OnceLock<Arc<PreparedWorkload>>>;

/// A simulation session: one workload, memoized preprocessing, and
/// name-based engine dispatch.
#[derive(Debug)]
pub struct SimSession {
    workload: GcnWorkload,
    hdn_id_entries: usize,
    /// One once-cell per strategy. The map lock is held only to find or
    /// insert a cell, so distinct strategies prepare concurrently while
    /// callers racing on one strategy wait for its single preparation.
    prepared: Mutex<HashMap<PartitionStrategy, PreparedCell>>,
    counters: Option<Arc<PoolCounters>>,
}

impl SimSession {
    /// Creates a session over an already instantiated workload.
    pub fn new(workload: GcnWorkload) -> Self {
        SimSession {
            workload,
            hdn_id_entries: HDN_ID_ENTRIES,
            prepared: Mutex::default(),
            counters: None,
        }
    }

    /// Instantiates `spec` with `seed` and wraps it in a session.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::InvalidValue`] with the key
    /// `dataset.<field>` when [`DatasetSpec::invalid_field`] rejects the
    /// recipe; nothing is built then.
    pub fn from_spec(spec: DatasetSpec, seed: u64) -> Result<Self, RegistryError> {
        check_recipe(&spec)?;
        Ok(Self::new(spec.instantiate(seed)))
    }

    /// Overrides the per-cluster HDN ID list length (Table III:
    /// [`HDN_ID_ENTRIES`]).
    /// Clears any workloads already prepared with the previous value.
    pub fn set_hdn_id_entries(&mut self, entries: usize) {
        if entries != self.hdn_id_entries {
            self.hdn_id_entries = entries;
            self.cells().clear();
        }
    }

    /// The per-cluster HDN ID list length in effect.
    pub fn hdn_id_entries(&self) -> usize {
        self.hdn_id_entries
    }

    /// Attaches a serving pool's counters: every preparation this session
    /// runs from now on counts into them, and its prepared form carries
    /// a [`PlanStore`] whose lookups count into `counters.plans`. Clears
    /// any already-prepared workloads so every memoized form counts.
    pub(crate) fn count_into(&mut self, counters: Arc<PoolCounters>) {
        self.cells().clear();
        self.counters = Some(counters);
    }

    /// The per-strategy once-cells, locked. Every update under the lock
    /// is one map operation, so a poisoned lock still guards a valid map.
    fn cells(&self) -> MutexGuard<'_, HashMap<PartitionStrategy, PreparedCell>> {
        self.prepared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The underlying workload.
    pub fn workload(&self) -> &GcnWorkload {
        &self.workload
    }

    /// Number of prepared forms currently memoized.
    pub fn prepared_count(&self) -> usize {
        self.cells().values().filter(|c| c.get().is_some()).count()
    }

    /// The prepared form of the workload under `strategy`, running the
    /// software preprocessing stack on first use and memoizing it.
    pub fn prepared(&self, strategy: PartitionStrategy) -> Arc<PreparedWorkload> {
        self.prepare(strategy, None)
    }

    /// The already-memoized prepared form for `strategy`, if any — the
    /// read-only lookup after a preparation. The handle is shared, so it
    /// outlives the session.
    pub fn get_prepared(&self, strategy: PartitionStrategy) -> Option<Arc<PreparedWorkload>> {
        self.cells().get(&strategy)?.get().cloned()
    }

    /// The prepared form for `strategy`, prepared exactly once however
    /// many callers ask at the same time. With `stored` — a result store
    /// and the strategy's partition key — the assignment comes from the
    /// store's validated entry for that key when there is one, and a
    /// freshly computed assignment is persisted for the next lifetime.
    /// Either way the preparation is derived by [`prepare_with`], so it
    /// equals [`grow_core::prepare`]'s. A panicking preparation leaves
    /// the strategy unprepared, and the next caller runs it again.
    pub(crate) fn prepare(
        &self,
        strategy: PartitionStrategy,
        stored: Option<(&ResultStore, &str)>,
    ) -> Arc<PreparedWorkload> {
        // Clone the cell out so the map lock is released before preparing.
        let cell = Arc::clone(self.cells().entry(strategy).or_default());
        Arc::clone(cell.get_or_init(|| self.derive(strategy, stored)))
    }

    /// Runs the software preprocessing stack for `strategy` (see
    /// [`Self::prepare`]) and, once it completes, counts it into the
    /// attached pool counters, if any, as its plan store will count its
    /// plan lookups.
    fn derive(
        &self,
        strategy: PartitionStrategy,
        stored: Option<(&ResultStore, &str)>,
    ) -> Arc<PreparedWorkload> {
        let graph = &self.workload.graph;
        let mut loaded = false;
        let partitioning = match stored {
            None => partition(graph, strategy),
            Some((store, key)) => {
                let fingerprint = GraphFingerprint::of(&self.workload);
                let parts = strategy.parts(graph.nodes());
                match store.load_partition(key, &fingerprint, parts) {
                    Some(partitioning) => {
                        loaded = true;
                        Some(partitioning)
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
        let mut p = prepare_with(&self.workload, partitioning.as_ref(), self.hdn_id_entries);
        if let Some(counters) = &self.counters {
            p.plans = PlanStore::counting_into(Arc::clone(&counters.plans));
            counters.preparations_run.fetch_add(1, Ordering::Relaxed);
            counters
                .partitions_loaded
                .fetch_add(u64::from(loaded), Ordering::Relaxed);
        }
        Arc::new(p)
    }

    /// Runs the named engine (default configuration) on the workload
    /// prepared with `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] if the engine name is unknown.
    pub fn run(
        &self,
        engine: &str,
        strategy: PartitionStrategy,
    ) -> Result<RunReport, RegistryError> {
        // Resolve the engine before preparing, so an unknown name fails
        // fast instead of after seconds of partitioning.
        let engine = registry::engine_by_name(engine)?;
        Ok(engine.run(&self.prepared(strategy)))
    }

    /// Runs the named engine with key-value configuration overrides (see
    /// [`grow_core::registry::engine_from_overrides`] for the key set).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] for unknown names/keys or unparsable
    /// values.
    pub fn run_with(
        &self,
        engine: &str,
        overrides: &[(&str, &str)],
        strategy: PartitionStrategy,
    ) -> Result<RunReport, RegistryError> {
        let engine = registry::engine_from_overrides(engine, overrides)?;
        Ok(engine.run(&self.prepared(strategy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_core::prepare;
    use grow_model::DatasetKey;
    use std::sync::Barrier;

    fn session() -> SimSession {
        SimSession::from_spec(DatasetKey::Pubmed.spec().scaled_to(500), 7).unwrap()
    }

    #[test]
    fn run_matches_direct_engine_use() {
        use grow_core::{Accelerator, GrowEngine};
        let s = session();
        let via_session = s.run("grow", PartitionStrategy::None).unwrap();
        let direct = GrowEngine::default().run(&prepare(
            s.workload(),
            PartitionStrategy::None,
            HDN_ID_ENTRIES,
        ));
        assert_eq!(via_session, direct);
    }

    #[test]
    fn preparation_is_memoized() {
        let s = session();
        let strategy = PartitionStrategy::Multilevel { cluster_nodes: 100 };
        let a = s.prepared(strategy);
        let b = s.prepared(strategy);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(s.prepared_count(), 1);
    }

    #[test]
    fn racing_callers_prepare_each_strategy_once() {
        let mut s = session();
        let counters = Arc::new(PoolCounters::default());
        s.count_into(Arc::clone(&counters));
        let strategies = [
            PartitionStrategy::None,
            PartitionStrategy::Multilevel { cluster_nodes: 100 },
            PartitionStrategy::Multilevel { cluster_nodes: 150 },
        ];
        let (shared, start) = (&s, &Barrier::new(2 * strategies.len()));
        std::thread::scope(|scope| {
            for strategy in (0..2).flat_map(|_| strategies) {
                scope.spawn(move || {
                    start.wait();
                    shared.prepare(strategy, None)
                });
            }
        });
        assert_eq!(
            counters.preparations_run.load(Ordering::Relaxed),
            strategies.len() as u64,
            "one preparation per strategy"
        );
        assert_eq!(s.prepared_count(), strategies.len());
        for strategy in strategies {
            let direct = prepare(s.workload(), strategy, HDN_ID_ENTRIES);
            let memoized = s.prepared(strategy);
            assert_eq!(memoized.clusters, direct.clusters, "{strategy:?}");
            assert_eq!(memoized.hdn_lists, direct.hdn_lists, "{strategy:?}");
        }
    }

    #[test]
    fn unknown_engine_fails_fast() {
        let s = session();
        assert!(s.run("npu", PartitionStrategy::None).is_err());
        assert_eq!(s.prepared_count(), 0, "no preparation for unknown engines");
    }

    #[test]
    fn overrides_flow_through() {
        let s = session();
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
        assert_eq!(s.prepared_count(), 0);
        assert!(s.prepared(PartitionStrategy::None).hdn_lists[0].len() <= 16);
    }

    #[test]
    fn plan_lookups_count_into_the_attached_counters() {
        let mut s = session();
        s.prepared(PartitionStrategy::None);
        let counters = Arc::new(PoolCounters::default());
        s.count_into(Arc::clone(&counters));
        assert_eq!(s.prepared_count(), 0, "attachment clears memoized forms");
        let plans = &counters.plans;
        // One lookup per aggregation phase: Pubmed's two layers pin the
        // same cap, so layer 2 finds the family layer 1 inserted.
        let first = s.run("grow", PartitionStrategy::None).unwrap();
        assert_eq!((plans.hits(), plans.misses()), (1, 1));
        assert_eq!(s.run("grow", PartitionStrategy::None).unwrap(), first);
        s.run("gcnax", PartitionStrategy::None).unwrap();
        assert_eq!(
            (plans.hits(), plans.misses()),
            (4, 2),
            "a family's plans are found again; a new family is inserted"
        );
    }

    #[test]
    fn get_prepared_is_read_only() {
        let s = session();
        assert!(s.get_prepared(PartitionStrategy::None).is_none());
        assert_eq!(s.prepared_count(), 0, "a lookup prepares nothing");
        s.prepared(PartitionStrategy::None);
        assert!(s.get_prepared(PartitionStrategy::None).is_some());
        assert_eq!(s.prepared_count(), 1);
    }
}
