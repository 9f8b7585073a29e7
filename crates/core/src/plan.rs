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
//! A plan that is a pure function of the layer-invariant adjacency is
//! retained across layers (and, inside a serving pool, across jobs)
//! through [`plan_slots`] and [`PlanCache`], so later layers replay it
//! without re-planning. [`StampSet`] is the plan-pass model of a demand
//! cache that never evicts.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::PreparedWorkload;

/// Cross-layer plan retention cap, in total plan entries per workload
/// (adjacency non-zeros plus per-row records). The aggregation plan is a
/// pure function of the adjacency, so engines cache it at the first layer
/// and replay it at later ones — but only for workloads small enough that
/// the retained plans stay cheap; bigger runs re-plan every layer. Purely
/// a memory/throughput knob: the replay consumes identical plan data
/// either way.
const PLAN_REUSE_MAX_OPS: usize = 1 << 22;

/// The per-cluster aggregation plan slots one engine run reads and fills,
/// or `None` when the run plans every layer afresh. The first replay of a
/// cluster's fresh plan moves that plan out of the worker's scratch into
/// the cluster's slot. Runs on workloads over [`PLAN_REUSE_MAX_OPS`], or
/// with `eligible` false (the engine's own condition, e.g. GROW's LRU
/// study has no plans), get none. Inside a serving session pool the slots
/// are the cross-job [`PlanCache`]'s entry for `family`, so a later job
/// sharing the (dataset, partition) scope skips the plan pass even on its
/// first layer. Otherwise multi-layer runs get fresh local slots, so they
/// plan each cluster once and replay at later layers.
pub(crate) fn plan_slots<T: Send + Sync + 'static>(
    workload: &PreparedWorkload,
    family: &str,
    eligible: bool,
) -> Option<Arc<Vec<OnceLock<T>>>> {
    if !eligible || workload.adjacency.nnz() + 2 * workload.adjacency.rows() > PLAN_REUSE_MAX_OPS {
        return None;
    }
    match &workload.plan_cache {
        Some(scope) => Some(scope.slots(family, workload.clusters.len())),
        None => (workload.layers.len() > 1).then(|| {
            Arc::new(
                (0..workload.clusters.len())
                    .map(|_| OnceLock::new())
                    .collect(),
            )
        }),
    }
}

/// A capacity-bounded, session-pool-scoped cache of layer-invariant
/// aggregation plans — the cross-*job* generalization of the per-run
/// retention above. Each entry is one engine family's per-cluster plan
/// slot array (`Vec<OnceLock<T>>`), keyed like the result cache by the
/// (dataset, partition, engine-alignment) prefix that makes two jobs'
/// plans interchangeable. Jobs sharing a prefix skip the plan pass
/// entirely on every cluster whose slot is already populated.
///
/// Thread-safe: lookups take one short mutex hold (the map), then all
/// plan work happens lock-free through the returned `Arc`'d slots. Hit
/// and miss counters are aggregate-deterministic — for a fixed job set,
/// total hits equal total requests minus distinct keys, regardless of
/// which concurrent worker populated a slot first.
///
/// Eviction is LRU over whole entries with a deterministic `(last_use,
/// key)` tie-break; in-flight jobs keep their slot array alive through
/// the `Arc`, so eviction is always safe.
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

struct PlanCacheInner {
    entries: HashMap<String, PlanCacheEntry>,
    clock: u64,
}

struct PlanCacheEntry {
    slots: Arc<dyn Any + Send + Sync>,
    last_use: u64,
}

impl PlanCache {
    /// Default entry bound: enough for every (dataset, partition,
    /// engine-family) combination a realistic fleet mixes, small enough
    /// that retained plans stay far below one workload's footprint.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(PlanCacheInner {
                entries: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        // A panicked holder only ever poisons between pure map
        // operations; the map stays structurally sound.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The slot array for `key`, shared across every job that asks for
    /// the same key: get-or-insert of `len` empty `OnceLock`s. A
    /// pre-existing entry counts as a hit, an allocation as a miss.
    pub fn slots<T: Send + Sync + 'static>(
        &self,
        key: String,
        len: usize,
    ) -> Arc<Vec<OnceLock<T>>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&key) {
            if let Ok(slots) = Arc::clone(&entry.slots).downcast::<Vec<OnceLock<T>>>() {
                debug_assert_eq!(slots.len(), len, "len is part of the key");
                entry.last_use = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return slots;
            }
        }
        let slots: Arc<Vec<OnceLock<T>>> = Arc::new((0..len).map(|_| OnceLock::new()).collect());
        inner.entries.insert(
            key.clone(),
            PlanCacheEntry {
                slots: Arc::clone(&slots) as Arc<dyn Any + Send + Sync>,
                last_use: now,
            },
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        while inner.entries.len() > self.capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(k, e)| (e.last_use, (*k).clone()))
                .map(|(k, _)| k.clone())
                .expect("over-capacity cache has a victim besides the newest entry");
            inner.entries.remove(&victim);
        }
        slots
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests served by a pre-existing entry so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that allocated a fresh entry so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Zeroes the hit/miss counters (entries stay cached).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Drops every cached entry (counters keep counting — they describe
    /// the cache's lifetime, not its current contents). In-flight holders
    /// of a slot array keep it alive through their `Arc`.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }
}

impl Default for PlanCache {
    /// A cache bounded to [`PlanCache::DEFAULT_CAPACITY`] entries.
    fn default() -> Self {
        PlanCache::new(PlanCache::DEFAULT_CAPACITY)
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// A [`PlanCache`] handle pre-bound to one prepared workload's cache
/// scope — the (dataset, partition) prefix. Engines append their family
/// discriminator (engine name plus any plan-shaping config, e.g. GCNAX's
/// tile grain) and the slot count, so two engines or two tilings never
/// collide on a key.
#[derive(Clone)]
pub struct PlanCacheScope {
    cache: Arc<PlanCache>,
    scope: String,
}

impl PlanCacheScope {
    /// Binds `cache` to a workload `scope` prefix.
    pub fn new(cache: Arc<PlanCache>, scope: String) -> PlanCacheScope {
        PlanCacheScope { cache, scope }
    }

    /// The slot array for this scope's `family` discriminator.
    pub fn slots<T: Send + Sync + 'static>(
        &self,
        family: &str,
        len: usize,
    ) -> Arc<Vec<OnceLock<T>>> {
        self.cache
            .slots(format!("{}|{family}|{len}", self.scope), len)
    }
}

impl fmt::Debug for PlanCacheScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCacheScope")
            .field("scope", &self.scope)
            .field("cache", &self.cache)
            .finish()
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
    fn plan_cache_hits_misses_and_evicts_deterministically() {
        let cache = Arc::new(PlanCache::new(2));
        let a = cache.slots::<u32>("a".into(), 4);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let a2 = cache.slots::<u32>("a".into(), 4);
        assert!(Arc::ptr_eq(&a, &a2), "same key shares the slot array");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        a.first().unwrap().set(7).unwrap();
        assert_eq!(a2.first().unwrap().get(), Some(&7), "shared storage");

        let _b = cache.slots::<u32>("b".into(), 4);
        let _c = cache.slots::<u32>("c".into(), 4);
        assert_eq!(cache.len(), 2, "capacity bound holds");
        // "a" was the least recently used entry, so it was evicted; a
        // fresh request misses and re-allocates.
        let a3 = cache.slots::<u32>("a".into(), 4);
        assert!(!Arc::ptr_eq(&a, &a3), "evicted entry re-allocates");
        assert_eq!(a3.first().unwrap().get(), None);
        // The in-flight Arc kept the evicted array alive and intact.
        assert_eq!(a.first().unwrap().get(), Some(&7));

        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.len(), 2, "reset keeps entries");
    }

    #[test]
    fn plan_cache_scope_separates_families_and_scopes() {
        let cache = Arc::new(PlanCache::new(8));
        let s1 = PlanCacheScope::new(Arc::clone(&cache), "w1".into());
        let s2 = PlanCacheScope::new(Arc::clone(&cache), "w2".into());
        let grow = s1.slots::<u32>("grow", 3);
        let gcnax = s1.slots::<u32>("gcnax:32x16", 3);
        let other = s2.slots::<u32>("grow", 3);
        assert!(!Arc::ptr_eq(&grow, &gcnax), "families do not collide");
        assert!(!Arc::ptr_eq(&grow, &other), "scopes do not collide");
        assert!(Arc::ptr_eq(&grow, &s1.slots::<u32>("grow", 3)));
        assert_eq!(cache.len(), 3);
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
