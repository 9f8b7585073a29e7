//! The workspace-wide plan/replay execution idiom.
//!
//! PR 4 split GROW's aggregation into a *plan* pass (a pure function of
//! the workload: which probes hit, which rows fetch) and a *replay* pass
//! (the cycle-accurate machinery consuming that plan in order). Every
//! engine now simulates a cluster the same way, in the spirit of
//! NeuraChip's decoupled "what will the memory system do" / "when does it
//! happen" stages: plan the whole cluster once into its worker's scratch,
//! then replay it. Clusters are the unit of parallelism; within one, plan
//! and replay run back to back on the worker that owns it.
//!
//! An aggregation plan is kept on the prepared form it plans, in the
//! form's [`PlanStore`], under a *family* that names everything else the
//! plan depends on (see [`plan_slots`]). One rule decides reuse: a phase
//! that names a family replays the plans kept under it, so later layers,
//! later runs and, through the serving pool's shared forms, later jobs
//! skip the plan pass ([`replay_or_plan`]); a phase whose plan is not a
//! pure function of the form names none and plans afresh. [`StampSet`]
//! is the plan-pass model of a demand cache that never evicts.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::PreparedWorkload;

/// Plan retention cap, in total plan entries per prepared form
/// (adjacency non-zeros plus per-row records). The aggregation plan is a
/// pure function of the form, so engines keep it at the first layer and
/// replay it at later ones, but only for forms small enough that the
/// retained plans stay cheap; bigger forms re-plan every layer. Purely a
/// memory/throughput knob: the replay consumes identical plan data
/// either way.
const PLAN_REUSE_MAX_OPS: usize = 1 << 22;

/// The form's per-cluster slots of plan `family`, or `None` when the
/// aggregation phase plans afresh: with no family (a plan that depends
/// on transient state, like an evicting LRU walk), or on forms over
/// [`PLAN_REUSE_MAX_OPS`]. Each engine names the family once per
/// aggregation phase from everything its plan depends on besides the
/// form (e.g. `grow:1024`, GROW's pinned-prefix cap at that layer's
/// width), so every later phase, run or served job naming it replays
/// each filled slot.
pub(crate) fn plan_slots<T: Send + Sync + 'static>(
    workload: &PreparedWorkload,
    family: Option<&str>,
) -> Option<Arc<Vec<OnceLock<T>>>> {
    let ops = workload.adjacency.nnz() + 2 * workload.adjacency.rows();
    let family = family.filter(|_| ops <= PLAN_REUSE_MAX_OPS)?;
    Some(workload.plans.slots(family, workload.clusters.len()))
}

/// One cluster's plan-then-replay step: replays the plan kept in `slot`
/// when it holds one; otherwise runs `plan` into the worker's scratch
/// `buf`, replays that and, given a slot, moves the plan into it for
/// every later replay.
pub(crate) fn replay_or_plan<P: Default>(
    slot: Option<&OnceLock<P>>,
    buf: &mut P,
    plan: impl FnOnce(&mut P),
    replay: impl FnOnce(&P),
) {
    if let Some(kept) = slot.and_then(OnceLock::get) {
        return replay(kept);
    }
    plan(buf);
    replay(buf);
    if let Some(slot) = slot {
        // A racing worker's plan for the slot is identical plan data.
        slot.set(std::mem::take(buf)).ok();
    }
}

/// The aggregation plans kept on one [`PreparedWorkload`]: per plan
/// family (the engine plus everything its plan depends on besides the
/// form, e.g. GROW's pinned-prefix cap or GCNAX's tile grain), one
/// `OnceLock` plan slot per cluster. GROW pins one HDN prefix per cluster
/// for the cluster's whole aggregation (Section V-C), so a family's plans
/// are a pure function of the form, and they live and die with it: a
/// serving pool that shares one form across jobs shares its plans too,
/// and evicting the form drops them.
///
/// A clone starts empty and counts nowhere, so a copy whose adjacency,
/// clusters or HDN lists change (GraphSAGE's sampled adjacency) can
/// neither replay the original's plans nor leave its own behind.
#[derive(Debug, Default)]
pub struct PlanStore {
    families: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    counters: Option<Arc<PlanCache>>,
}

impl PlanStore {
    /// An empty store whose lookups count into `counters`.
    pub fn counting_into(counters: Arc<PlanCache>) -> PlanStore {
        PlanStore {
            families: Mutex::default(),
            counters: Some(counters),
        }
    }

    /// `family`'s slot array: get-or-insert of `len` empty `OnceLock`s
    /// under one lock. A present family counts as a hit, an insert as a
    /// miss.
    fn slots<T: Send + Sync + 'static>(&self, family: &str, len: usize) -> Arc<Vec<OnceLock<T>>> {
        // Every update under the lock is one map operation, so a
        // poisoned lock still guards a valid map.
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let found = families
            .get(family)
            .and_then(|slots| Arc::clone(slots).downcast::<Vec<OnceLock<T>>>().ok());
        if let Some(counters) = &self.counters {
            let counter = if found.is_some() {
                &counters.hits
            } else {
                &counters.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        found.unwrap_or_else(|| {
            let slots = Arc::new((0..len).map(|_| OnceLock::new()).collect::<Vec<_>>());
            families.insert(family.to_owned(), Arc::clone(&slots) as _);
            slots
        })
    }
}

impl Clone for PlanStore {
    /// An empty store that counts nowhere (see the type docs).
    fn clone(&self) -> Self {
        PlanStore::default()
    }
}

/// Lookup counters shared by the [`PlanStore`]s of a serving pool's
/// prepared forms, one lookup per aggregation phase that names a plan
/// family: a lookup that finds its family counts a hit, one that inserts
/// it a miss. The totals are aggregate-deterministic: for a fixed job
/// set, misses equal the (form, family) pairs looked up and hits the
/// remaining lookups, whichever concurrent worker asked first.
#[derive(Debug, Default)]
pub struct PlanCache {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Lookups served by retained plans so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that inserted a fresh family so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Zeroes both counters.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// An epoch-stamped first-touch membership set over `0..universe`:
/// `first_touch(id)` is `true` exactly once per id per epoch. This is the
/// plan-pass model of any demand cache that never evicts (capacity ≥
/// universe): recency is unobservable, so hit/miss collapses to
/// first-touch and the intrusive LRU list bookkeeping can be skipped
/// entirely.
#[derive(Debug, Default)]
pub(crate) struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl StampSet {
    /// Empties the set (O(1) amortized: bumps the epoch; re-zeroes only
    /// on universe change or epoch wrap).
    pub(crate) fn reset(&mut self, universe: usize) {
        if self.stamp.len() != universe || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(universe, 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Inserts `id`, returning whether it was absent.
    pub(crate) fn first_touch(&mut self, id: u32) -> bool {
        let slot = &mut self.stamp[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_store_shares_a_family_and_counts_lookups() {
        let counters = Arc::new(PlanCache::default());
        let store = PlanStore::counting_into(Arc::clone(&counters));
        let grow = store.slots::<u32>("grow", 3);
        assert_eq!((counters.hits(), counters.misses()), (0, 1));
        let again = store.slots::<u32>("grow", 3);
        assert!(Arc::ptr_eq(&grow, &again), "a family shares its slots");
        assert_eq!((counters.hits(), counters.misses()), (1, 1));
        grow[0].set(7).unwrap();
        assert_eq!(again[0].get(), Some(&7), "shared storage");
        let gcnax = store.slots::<u32>("gcnax:32x16", 3);
        assert!(!Arc::ptr_eq(&grow, &gcnax), "families stay apart");
        assert_eq!((counters.hits(), counters.misses()), (1, 2));

        let clone = store.clone();
        assert_eq!(
            clone.slots::<u32>("grow", 3)[0].get(),
            None,
            "a clone is empty"
        );
        assert_eq!(
            (counters.hits(), counters.misses()),
            (1, 2),
            "and counts nowhere"
        );
        counters.reset_counters();
        assert_eq!((counters.hits(), counters.misses()), (0, 0));
        assert_eq!(store.slots::<u32>("grow", 3)[0].get(), Some(&7));
    }

    #[test]
    fn a_second_run_on_one_form_replays_its_retained_plans() {
        use crate::{
            prepare, Accelerator, GammaEngine, GcnaxEngine, GrowConfig, GrowEngine,
            MatRaptorEngine, PartitionStrategy,
        };
        let workload = grow_model::DatasetKey::Pubmed
            .spec()
            .scaled_to(1200)
            .instantiate(5);
        let strategy = PartitionStrategy::Multilevel { cluster_nodes: 200 };
        let base = prepare(&workload, strategy, 4096);
        assert!(base.clusters.len() > 1, "needs several clusters");
        // Pubmed's layers (16 and 3 wide) pin the same 4,096-row cap and
        // GAMMA's fiber cache holds the whole RHS at both widths, so each
        // engine plans both layers under one family.
        let engines: [(Box<dyn Accelerator>, &str); 5] = [
            (Box::new(GrowEngine::default()), "grow:4096"),
            (
                Box::new(GrowEngine::new(GrowConfig {
                    hdn_caching: false,
                    ..GrowConfig::default()
                })),
                "grow:uncached",
            ),
            (Box::new(GcnaxEngine::default()), "gcnax:128x128"),
            (Box::new(MatRaptorEngine::default()), "MatRaptor:cacheless"),
            (Box::new(GammaEngine::default()), "GAMMA:first-touch"),
        ];
        for (engine, family) in engines {
            let counters = Arc::new(PlanCache::default());
            let mut form = base.clone();
            form.plans = PlanStore::counting_into(Arc::clone(&counters));
            engine.run(&form);
            let replayed = engine.run(&form);
            assert_eq!(replayed, engine.run(&base.clone()), "{family}");
            // One lookup per aggregation phase: two layers, two runs.
            assert_eq!((counters.hits(), counters.misses()), (3, 1), "{family}");
            let families = form.plans.families.lock().unwrap();
            assert_eq!(families.keys().collect::<Vec<_>>(), [family]);
        }
    }

    #[test]
    fn layers_of_different_width_keep_one_family_each() {
        use crate::grow::PlanBuf;
        use crate::{prepare, Accelerator, GrowEngine, PartitionStrategy};
        // Flickr's layers are 64 and 7 wide: the 512 KB HDN cache pins
        // at most 1,024 rows at f=64 and the whole 4,096-entry list at
        // f=7, so the two aggregation phases plan under two families.
        let workload = grow_model::DatasetKey::Flickr
            .spec()
            .scaled_to(3000)
            .instantiate(5);
        let strategy = PartitionStrategy::Multilevel {
            cluster_nodes: 1000,
        };
        let base = prepare(&workload, strategy, 4096);
        let clusters = base.clusters.len();
        assert!(clusters > 1, "needs several clusters");
        assert!(
            base.hdn_lists.iter().all(|list| list.len() > 1024),
            "every cluster pins a longer prefix at the narrow layer"
        );
        let engine = GrowEngine::default();
        let form = base.clone();
        engine.run(&form);
        assert_eq!(form.plans.families.lock().unwrap().len(), 2);
        for family in ["grow:1024", "grow:4096"] {
            let slots = form.plans.slots::<PlanBuf>(family, clusters);
            let filled = slots.iter().filter(|slot| slot.get().is_some()).count();
            assert_eq!(filled, clusters, "{family}: every cluster's plan is kept");
        }
        assert_eq!(engine.run(&form), engine.run(&base.clone()));
    }

    #[test]
    fn stamp_set_first_touch_semantics() {
        let mut s = StampSet::default();
        s.reset(10);
        assert!(s.first_touch(3));
        assert!(!s.first_touch(3));
        assert!(s.first_touch(9));
        s.reset(10);
        assert!(s.first_touch(3), "reset empties the set");
        s.reset(4);
        assert!(s.first_touch(3), "universe change re-zeroes");
    }
}
