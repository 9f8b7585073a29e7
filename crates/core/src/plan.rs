//! The workspace-wide plan/replay execution idiom.
//!
//! PR 4 split GROW's aggregation into a *plan* pass (a pure function of
//! the workload: which probes hit, which rows fetch) and a *replay* pass
//! (the cycle-accurate machinery consuming that plan in order). This
//! module generalizes the split into a reusable driver every engine
//! shares, in the spirit of NeuraChip's decoupled "what will the memory
//! system do" / "when does it happen" stages:
//!
//! * [`PlanBuffer`] — the plan-pass output contract: a clearable,
//!   poolable buffer whose ordered concatenation over row ranges equals
//!   the single-pass plan.
//! * [`shard_ranges`] — deterministic row-range shard boundaries, either
//!   fixed-size or *nnz-balanced* (degree-aware, à la Accel-GCN's
//!   warp-balanced row partitioning): cuts fall where the cumulative
//!   non-zero count crosses equal shares, so skewed rows do not serialize
//!   one shard. Boundaries optionally align to a strip grain (GCNAX's
//!   `tile_rows`).
//! * [`plan_replay`] / [`plan_replay_seq`] — the ordered-merge drivers:
//!   plan shards are produced ahead (in parallel for pure passes, on one
//!   dedicated thread for stateful scans) through a bounded-depth queue
//!   while the calling thread replays them strictly in range order. Under
//!   `GROW_SERIAL=1` (or one worker) this degrades to the exact serial
//!   interleaving, so results are bit-identical by construction.
//!
//! Two plan-pass classes exist and the drivers mirror them: *pure
//! per-row-range* passes (GROW's probe plan, GCNAX's strip counting,
//! MatRaptor's cacheless row accounting) shard AND overlap; *sequential
//! scans* (GAMMA's fiber-cache walk, whose per-probe outcome depends on
//! all prior probes) cannot shard but still overlap with replay via
//! [`plan_replay_seq`].

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use grow_sim::fault::FaultPlan;
use grow_sim::{exec, ScratchArena};
use grow_sparse::CsrPattern;

use crate::PreparedWorkload;

/// Intra-cluster row-range sharding threshold of the engines' plan
/// passes (the uniform `shard_rows=` override). Sharding is purely a
/// simulator-throughput knob: merged results are bit-identical to an
/// unsharded run at any setting, for every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardRows {
    /// No intra-cluster sharding (the default).
    #[default]
    Off,
    /// Shard clusters with more rows than this into ranges of this many
    /// rows.
    Fixed(usize),
    /// Derive the threshold from the prepared workload's cluster-size
    /// statistics ([`PreparedWorkload::auto_shard_rows`]): coarse-grained
    /// preparations (few huge clusters, e.g. Reddit's 4096-node grain)
    /// shard at roughly an eighth of the largest cluster; fine-grained
    /// ones, where the cluster fan-out already saturates the workers,
    /// leave sharding off. Auto shards are *nnz-balanced*: boundaries
    /// follow the degree distribution instead of fixed row counts.
    Auto,
}

impl ShardRows {
    /// The effective row threshold for `workload` (0 = sharding off).
    pub fn resolve(&self, workload: &PreparedWorkload) -> usize {
        match self {
            ShardRows::Off => 0,
            ShardRows::Fixed(rows) => *rows,
            ShardRows::Auto => workload.auto_shard_rows(),
        }
    }

    /// The full sharding specification for `workload`: the resolved
    /// threshold plus whether boundaries are nnz-balanced (`Auto`) or
    /// fixed-size (`Fixed`, the legacy encoding).
    pub fn spec(&self, workload: &PreparedWorkload) -> ShardSpec {
        ShardSpec {
            threshold: self.resolve(workload),
            balanced: matches!(self, ShardRows::Auto),
        }
    }
}

impl From<usize> for ShardRows {
    /// `0` disables sharding (the legacy encoding); any other value is a
    /// fixed threshold.
    fn from(rows: usize) -> Self {
        if rows == 0 {
            ShardRows::Off
        } else {
            ShardRows::Fixed(rows)
        }
    }
}

/// A resolved sharding policy: the row threshold (0 = off) and whether
/// shard boundaries balance non-zeros rather than rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Clusters with more rows than this split into shards.
    pub threshold: usize,
    /// Place boundaries where cumulative nnz crosses equal shares
    /// (degree-aware) instead of at fixed row counts.
    pub balanced: bool,
}

impl ShardSpec {
    /// Sharding disabled.
    pub const OFF: ShardSpec = ShardSpec {
        threshold: 0,
        balanced: false,
    };
}

/// A reusable plan-pass output buffer, pooled through a [`ScratchArena`].
/// The contract that makes sharding sound: planning row range `[a, b)`
/// into a cleared buffer, for any partition of a cluster into consecutive
/// ranges, concatenates (in range order) to exactly the plan a single
/// unsharded pass produces.
pub(crate) trait PlanBuffer: Default + Send {
    /// Resets to the empty state, retaining allocations.
    fn clear(&mut self);
}

/// Deterministic shard boundaries for `rows`: returns consecutive,
/// non-empty ranges covering `rows` exactly. One range when sharding is
/// off or the cluster is small enough.
///
/// With `spec.balanced` and a CSR `pattern`, cut points fall where the
/// cumulative non-zero count over `rows` crosses `k/n_shards` of the
/// range's total — a degree-aware partition that keeps shard *work*
/// (not row count) even under skew. Without a pattern (dense operands)
/// or with `balanced` off, cuts fall every `threshold` rows.
///
/// `align > 1` snaps every interior cut down to a multiple of `align`
/// rows from `rows.start` (GCNAX strips must not straddle shards).
pub(crate) fn shard_ranges(
    pattern: Option<&CsrPattern>,
    rows: Range<usize>,
    spec: ShardSpec,
    align: usize,
) -> Vec<Range<usize>> {
    let len = rows.len();
    if spec.threshold == 0 || len <= spec.threshold {
        return vec![rows];
    }
    let align = align.max(1);
    let n_shards = len.div_ceil(spec.threshold);
    let mut out = Vec::with_capacity(n_shards);
    let mut lo = rows.start;
    if let (true, Some(p)) = (spec.balanced, pattern) {
        let indptr = p.indptr();
        let base = indptr[rows.start];
        let total = indptr[rows.end] - base;
        for k in 1..n_shards {
            let target = base + (total as u128 * k as u128 / n_shards as u128) as usize;
            // First row boundary whose cumulative nnz reaches the target.
            let cut = rows.start
                + indptr[rows.start..=rows.end]
                    .partition_point(|&cum| cum < target)
                    .min(len);
            // Snap to the strip grain, keep cuts strictly increasing.
            let cut = rows.start + ((cut - rows.start) / align) * align;
            if cut > lo && cut < rows.end {
                out.push(lo..cut);
                lo = cut;
            }
        }
    } else {
        let step = spec.threshold.div_ceil(align) * align;
        while lo + step < rows.end {
            out.push(lo..lo + step);
            lo += step;
        }
    }
    out.push(lo..rows.end);
    out
}

/// Drives a *pure* plan pass over `ranges` overlapped with replay:
/// `produce` plans each range into a pooled buffer (in parallel, ahead of
/// the consumer through a bounded-depth queue) while `consume` replays
/// the buffers strictly in range order on the calling thread. The ordered
/// merge makes the result bit-identical to planning and replaying each
/// range back to back serially, which is what `GROW_SERIAL=1` does.
pub(crate) fn plan_replay<B, P, C>(
    pool: &ScratchArena<B>,
    ranges: Vec<Range<usize>>,
    produce: P,
    mut consume: C,
) where
    B: PlanBuffer,
    P: Fn(Range<usize>, &mut B) + Sync,
    C: FnMut(Range<usize>, &B),
{
    exec::bounded_pipeline(
        ranges,
        0,
        |_, range: Range<usize>| {
            let mut buf = pool.checkout();
            buf.clear();
            produce(range.clone(), &mut buf);
            (range, buf)
        },
        |_, (range, buf)| consume(range, &buf),
    );
}

/// Like [`plan_replay`] for *stateful* plan passes (e.g. a cache model
/// walked sequentially): `produce` runs on one dedicated thread, strictly
/// in range order, so it may carry mutable state across ranges; replay
/// still overlaps on the calling thread.
pub(crate) fn plan_replay_seq<B, P, C>(
    pool: &ScratchArena<B>,
    ranges: Vec<Range<usize>>,
    mut produce: P,
    mut consume: C,
) where
    B: PlanBuffer,
    P: FnMut(Range<usize>, &mut B) + Send,
    C: FnMut(Range<usize>, &B),
{
    exec::bounded_pipeline_seq(
        ranges,
        0,
        move |_, range: Range<usize>| {
            let mut buf = pool.checkout();
            buf.clear();
            produce(range.clone(), &mut buf);
            (range, buf)
        },
        |_, (range, buf)| consume(range, &buf),
    );
}

/// Cross-layer plan retention cap, in total plan entries per workload
/// (adjacency non-zeros plus per-row records). The aggregation plan is a
/// pure function of the adjacency, so engines cache it at the first layer
/// and replay it at later ones — but only for workloads small enough that
/// the retained plans stay cheap; bigger runs still get sharding and
/// overlap, just not retention. Purely a memory/throughput knob: the
/// replay consumes identical plan data either way.
const PLAN_REUSE_MAX_OPS: usize = 1 << 22;

/// The per-cluster aggregation plan slots one engine run reads and fills,
/// or `None` when the run plans every layer afresh. Runs on workloads
/// over [`PLAN_REUSE_MAX_OPS`], or with `eligible` false (the engine's
/// own condition, e.g. GROW's LRU study has no plans), get none. Inside
/// a serving session pool the slots are the cross-job [`PlanCache`]'s
/// entry for `family`, so a later job sharing the (dataset, partition)
/// scope skips the plan pass even on its first layer. Fault-injected
/// runs stay off the shared cache: replaying a neighbor job's plan would
/// skip this run's plan-pass trip points, making injection counts depend
/// on fleet warm state. Otherwise multi-layer runs get fresh local slots,
/// so they plan each cluster once and replay at later layers.
pub(crate) fn plan_slots<T: Send + Sync + 'static>(
    workload: &PreparedWorkload,
    family: &str,
    eligible: bool,
    fault: FaultPlan,
) -> Option<Arc<Vec<OnceLock<T>>>> {
    if !eligible || workload.adjacency.nnz() + 2 * workload.adjacency.rows() > PLAN_REUSE_MAX_OPS {
        return None;
    }
    match &workload.plan_cache {
        Some(scope) if fault.is_off() => Some(scope.slots(family, workload.clusters.len())),
        _ => (workload.layers.len() > 1).then(|| {
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
    use crate::{prepare, PartitionStrategy};
    use grow_model::DatasetKey;

    fn pattern(nodes: usize) -> CsrPattern {
        let w = DatasetKey::Pubmed.spec().scaled_to(nodes).instantiate(7);
        prepare(&w, PartitionStrategy::None, 4096).adjacency
    }

    fn check_cover(ranges: &[Range<usize>], rows: Range<usize>) {
        assert!(!ranges.is_empty());
        assert_eq!(ranges.first().unwrap().start, rows.start);
        assert_eq!(ranges.last().unwrap().end, rows.end);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "consecutive");
        }
        assert!(ranges.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn off_and_small_clusters_stay_whole() {
        let p = pattern(300);
        for spec in [
            ShardSpec::OFF,
            ShardSpec {
                threshold: 300,
                balanced: true,
            },
        ] {
            assert_eq!(shard_ranges(Some(&p), 0..300, spec, 1), vec![0..300]);
        }
    }

    #[test]
    fn fixed_ranges_cover_and_respect_alignment() {
        let spec = ShardSpec {
            threshold: 100,
            balanced: false,
        };
        let ranges = shard_ranges(None, 10..523, spec, 1);
        check_cover(&ranges, 10..523);
        assert!(ranges[..ranges.len() - 1].iter().all(|r| r.len() == 100));

        // Alignment rounds the step up to a strip multiple.
        let aligned = shard_ranges(None, 0..1000, spec, 128);
        check_cover(&aligned, 0..1000);
        for r in &aligned[..aligned.len() - 1] {
            assert_eq!(r.start % 128, 0);
            assert_eq!(r.end % 128, 0);
        }
    }

    #[test]
    fn balanced_ranges_cover_and_balance_nnz() {
        let p = pattern(1200);
        let rows = 0..p.rows();
        let spec = ShardSpec {
            threshold: 150,
            balanced: true,
        };
        let ranges = shard_ranges(Some(&p), rows.clone(), spec, 1);
        check_cover(&ranges, rows);
        // Each balanced shard's nnz stays within a sane factor of the
        // ideal share (skew permitting) — the point versus fixed cuts.
        let indptr = p.indptr();
        let total = p.nnz();
        let ideal = total as f64 / ranges.len() as f64;
        for r in &ranges {
            let nnz = indptr[r.end] - indptr[r.start];
            assert!(
                (nnz as f64) < 2.5 * ideal + 64.0,
                "shard {r:?} holds {nnz} of {total} nnz across {} shards",
                ranges.len()
            );
        }
    }

    #[test]
    fn balanced_ranges_align_to_strips() {
        let p = pattern(2000);
        let spec = ShardSpec {
            threshold: 256,
            balanced: true,
        };
        let ranges = shard_ranges(Some(&p), 0..2000, spec, 128);
        check_cover(&ranges, 0..2000);
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!((r.end) % 128, 0, "interior cut off the strip grain");
        }
    }

    #[test]
    fn balanced_ranges_handle_empty_rows() {
        // An all-empty range degenerates to one shard rather than
        // emitting empty ranges.
        let p = CsrPattern::empty(600, 600);
        let spec = ShardSpec {
            threshold: 100,
            balanced: true,
        };
        let ranges = shard_ranges(Some(&p), 0..600, spec, 1);
        check_cover(&ranges, 0..600);
    }

    #[test]
    fn auto_spec_is_balanced_fixed_is_not() {
        let w = DatasetKey::Pubmed.spec().scaled_to(2000).instantiate(3);
        let prepared = prepare(&w, PartitionStrategy::None, 4096);
        let auto = ShardRows::Auto.spec(&prepared);
        assert!(auto.balanced);
        assert_eq!(auto.threshold, prepared.auto_shard_rows());
        let fixed = ShardRows::Fixed(64).spec(&prepared);
        assert!(!fixed.balanced);
        assert_eq!(fixed.threshold, 64);
        assert_eq!(ShardRows::Off.spec(&prepared).threshold, 0);
    }

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

    #[test]
    fn drivers_merge_in_order_and_match_serial() {
        #[derive(Debug, Default)]
        struct Buf(Vec<usize>);
        impl PlanBuffer for Buf {
            fn clear(&mut self) {
                self.0.clear();
            }
        }
        let pool: ScratchArena<Buf> = ScratchArena::new();
        let ranges: Vec<Range<usize>> = (0..20).map(|i| i * 10..(i + 1) * 10).collect();
        let run = |seq: bool| {
            grow_sim::exec::with_workers(4, || {
                let mut out = Vec::new();
                let produce = |range: Range<usize>, buf: &mut Buf| buf.0.extend(range);
                let consume = |_: Range<usize>, buf: &Buf| out.extend_from_slice(&buf.0);
                if seq {
                    plan_replay_seq(&pool, ranges.clone(), produce, consume);
                } else {
                    plan_replay(&pool, ranges.clone(), produce, consume);
                }
                out
            })
        };
        let expect: Vec<usize> = (0..200).collect();
        assert_eq!(run(false), expect);
        assert_eq!(run(true), expect);
    }
}
