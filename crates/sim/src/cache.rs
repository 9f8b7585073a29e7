use std::fmt;

/// Hit/miss counters for a row cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probe hits.
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Rows installed by preloading (pinned fills) or demand insertion.
    pub fills: u64,
}

impl CacheStats {
    /// Hit rate over all probes; `None` before the first probe.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Merges another stats block into this one. Saturating: merged
    /// counters from many long runs clamp at `u64::MAX` instead of
    /// wrapping (a wrapped counter would silently report a *small* number).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.fills = self.fills.saturating_add(other.fills);
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} / misses {} (hit rate {:.1}%)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate().unwrap_or(0.0)
        )
    }
}

/// GROW's HDN cache: a scratchpad that pins a fixed set of row IDs.
///
/// The paper statically pins the per-cluster top-N high-degree nodes and
/// found this beats demand-based replacement ("statically pinning the
/// high-degree nodes within the cache yielded the most robust speedups",
/// Section VIII). Misses stream to the processing engine directly from
/// DRAM and are *not* installed.
///
/// Residency is a dense epoch-stamped table: `probe` is one array load and
/// compare, and [`PinnedRowCache::reset`] recycles the cache for the next
/// cluster in O(1) by bumping the epoch — no per-cluster reallocation, no
/// O(universe) clear. Engines keep one cache per worker for a whole run
/// and reset it at every cluster boundary.
///
/// ```
/// use grow_sim::PinnedRowCache;
///
/// let mut cache = PinnedRowCache::new(2, 10);
/// cache.load(&[3, 7, 9]); // capacity 2: only 3 and 7 fit
/// assert!(cache.probe(3));
/// assert!(!cache.probe(9));
/// assert_eq!(cache.stats().hits, 1);
///
/// // Recycle for the next cluster: stale residency from the previous
/// // epoch must miss.
/// cache.reset(2, 10);
/// assert!(!cache.probe(3));
/// ```
#[derive(Debug, Clone)]
pub struct PinnedRowCache {
    capacity_rows: usize,
    /// Current epoch; entries of `resident` are live only when they match.
    /// Always >= 1, so a zeroed table is empty.
    epoch: u32,
    /// id -> epoch stamp of the load that pinned it.
    resident: Vec<u32>,
    loaded: Vec<u32>,
    stats: CacheStats,
}

impl Default for PinnedRowCache {
    /// An empty zero-capacity cache over an empty universe; call
    /// [`PinnedRowCache::reset`] to size it before use.
    fn default() -> Self {
        PinnedRowCache::new(0, 0)
    }
}

impl PinnedRowCache {
    /// Creates a cache holding up to `capacity_rows` rows out of a universe
    /// of `universe` row IDs.
    pub fn new(capacity_rows: usize, universe: usize) -> Self {
        PinnedRowCache {
            capacity_rows,
            epoch: 1,
            resident: vec![0; universe],
            loaded: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Recycles the cache: as if freshly constructed with
    /// `new(capacity_rows, universe)`, but reusing the residency table.
    /// All prior residency and statistics are discarded in O(1) (the epoch
    /// advances, stale stamps stop matching); the table only reallocates
    /// when the universe grows.
    pub fn reset(&mut self, capacity_rows: usize, universe: usize) {
        self.capacity_rows = capacity_rows;
        if self.resident.len() != universe {
            self.resident.clear();
            self.resident.resize(universe, 0);
            self.epoch = 1;
        } else if self.epoch == u32::MAX {
            // Epoch exhausted: one O(universe) clear every 2^32 - 1 resets.
            self.resident.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.loaded.clear();
        self.stats = CacheStats::default();
    }

    /// Row capacity.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Replaces the pinned set with the first `capacity_rows` *distinct*
    /// IDs of `ids`, as happens at each cluster boundary. Returns how many
    /// rows were actually pinned — the number of preload fills the DMA
    /// must fetch.
    ///
    /// Duplicate IDs are pinned (and counted as fills) once, and do not
    /// consume capacity: the hardware list holds row IDs, and a repeated
    /// ID names the same cached row. (HDN lists produced by the
    /// preprocessing are already duplicate-free; this makes hand-built
    /// lists behave identically.)
    ///
    /// # Panics
    ///
    /// Panics if an ID is outside the universe.
    pub fn load(&mut self, ids: &[u32]) -> usize {
        for &id in &self.loaded {
            self.resident[id as usize] = 0;
        }
        self.loaded.clear();
        for &id in ids {
            if self.loaded.len() >= self.capacity_rows {
                break;
            }
            if self.resident[id as usize] != self.epoch {
                self.resident[id as usize] = self.epoch;
                self.loaded.push(id);
            }
        }
        self.stats.fills += self.loaded.len() as u64;
        self.loaded.len()
    }

    /// Number of rows currently pinned.
    pub fn resident_rows(&self) -> usize {
        self.loaded.len()
    }

    /// Probes for `id`, recording a hit or miss.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn probe(&mut self, id: u32) -> bool {
        let hit = self.resident[id as usize] == self.epoch;
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Checks residency without touching statistics.
    pub fn peek(&self, id: u32) -> bool {
        self.resident[id as usize] == self.epoch
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// A demand-filled LRU row cache.
///
/// Models GAMMA's fiber cache (Section VII-H: "GAMMA's fiber cache is not
/// optimized for the power-law distribution of graphs") and the
/// alternative eviction policies of the Section VIII discussion.
///
/// Lookup is a dense epoch-stamped slot table indexed by row ID — one
/// array load per probe instead of a `HashMap` walk — and
/// [`LruRowCache::reset`] recycles the cache for the next cluster without
/// reallocating (the epoch advances, stale table entries stop matching).
///
/// ```
/// use grow_sim::LruRowCache;
///
/// let mut cache = LruRowCache::new(2, 10);
/// assert!(!cache.probe(1));
/// cache.insert(1);
/// cache.insert(2);
/// cache.probe(1);      // touch 1 so 2 becomes LRU
/// cache.insert(3);     // evicts 2
/// assert!(cache.peek(1) && !cache.peek(2) && cache.peek(3));
/// ```
#[derive(Debug, Clone)]
pub struct LruRowCache {
    capacity_rows: usize,
    /// Current epoch; `table` entries are live only when they match.
    /// Always >= 1, so a zeroed table is empty.
    epoch: u32,
    /// id -> (epoch stamp, slot index in the intrusive list).
    table: Vec<(u32, u32)>,
    /// Slot storage: (id, prev, next); u32::MAX is the null link.
    slots: Vec<(u32, u32, u32)>,
    head: u32, // most recent
    tail: u32, // least recent
    stats: CacheStats,
}

const NIL: u32 = u32::MAX;

impl Default for LruRowCache {
    /// An empty zero-capacity cache over an empty universe; call
    /// [`LruRowCache::reset`] to size it before use.
    fn default() -> Self {
        LruRowCache::new(0, 0)
    }
}

impl LruRowCache {
    /// Creates an empty cache holding up to `capacity_rows` rows out of a
    /// universe of `universe` row IDs.
    pub fn new(capacity_rows: usize, universe: usize) -> Self {
        LruRowCache {
            capacity_rows,
            epoch: 1,
            table: vec![(0, 0); universe],
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Recycles the cache: as if freshly constructed with
    /// `new(capacity_rows, universe)`, but reusing the lookup table and
    /// slot storage. Prior residency and statistics are discarded in O(1)
    /// unless the universe changed or the epoch space is exhausted.
    pub fn reset(&mut self, capacity_rows: usize, universe: usize) {
        self.capacity_rows = capacity_rows;
        if self.table.len() != universe {
            self.table.clear();
            self.table.resize(universe, (0, 0));
            self.epoch = 1;
        } else if self.epoch == u32::MAX {
            self.table.fill((0, 0));
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats = CacheStats::default();
    }

    /// Row capacity.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Number of resident rows.
    pub fn resident_rows(&self) -> usize {
        self.slots.len()
    }

    /// The live slot index for `id`, if resident in the current epoch.
    #[inline]
    fn lookup(&self, id: u32) -> Option<u32> {
        let (epoch, slot) = self.table[id as usize];
        (epoch == self.epoch).then_some(slot)
    }

    /// Probes for `id`, recording a hit (and touching the entry) or a miss.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn probe(&mut self, id: u32) -> bool {
        if let Some(slot) = self.lookup(id) {
            self.stats.hits += 1;
            self.unlink(slot);
            self.push_front(slot);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Checks residency without touching statistics or recency.
    pub fn peek(&self, id: u32) -> bool {
        self.lookup(id).is_some()
    }

    /// Installs `id` as most-recently-used, evicting the LRU row if full.
    /// No-op if already resident (the entry is just touched).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn insert(&mut self, id: u32) {
        if self.capacity_rows == 0 {
            return;
        }
        if let Some(slot) = self.lookup(id) {
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        self.stats.fills += 1;
        let slot = if self.slots.len() >= self.capacity_rows {
            let victim = self.tail;
            let old_id = self.slots[victim as usize].0;
            self.table[old_id as usize].0 = 0; // dead epoch: never matches
            self.unlink(victim);
            self.slots[victim as usize].0 = id;
            victim
        } else {
            self.slots.push((id, NIL, NIL));
            (self.slots.len() - 1) as u32
        };
        self.table[id as usize] = (self.epoch, slot);
        self.push_front(slot);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn unlink(&mut self, slot: u32) {
        let (_, prev, next) = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].2 = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].1 = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot as usize].1 = NIL;
        self.slots[slot as usize].2 = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].1 = NIL;
        self.slots[slot as usize].2 = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].1 = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashSet, VecDeque};

    use super::*;
    use crate::Mix;

    /// The textbook LRU the slot table must agree with: a hash set of
    /// resident rows plus a recency list, least recent at the front.
    struct ListLru {
        capacity: usize,
        resident: HashSet<u32>,
        recency: VecDeque<u32>,
        stats: CacheStats,
    }

    impl ListLru {
        fn new(capacity: usize) -> Self {
            ListLru {
                capacity,
                resident: HashSet::new(),
                recency: VecDeque::new(),
                stats: CacheStats::default(),
            }
        }

        /// Moves `id` to the most recent end if it is resident.
        fn touch(&mut self, id: u32) -> bool {
            let at = self.recency.iter().position(|&r| r == id);
            if let Some(at) = at {
                self.recency.remove(at);
                self.recency.push_back(id);
            }
            at.is_some()
        }

        fn probe(&mut self, id: u32) -> bool {
            let hit = self.touch(id);
            *if hit {
                &mut self.stats.hits
            } else {
                &mut self.stats.misses
            } += 1;
            hit
        }

        fn insert(&mut self, id: u32) {
            if self.capacity == 0 || self.touch(id) {
                return;
            }
            self.stats.fills += 1;
            if self.recency.len() == self.capacity {
                let victim = self.recency.pop_front().expect("full");
                self.resident.remove(&victim);
            }
            self.resident.insert(id);
            self.recency.push_back(id);
        }
    }

    #[test]
    fn lru_cache_matches_the_list_oracle() {
        let mut evictions = 0;
        for seed in 0..200 {
            let mut rng = Mix(seed);
            // Capacity 0, 1, small, or at least the whole universe.
            let sizes = |rng: &mut Mix| {
                let universe = 1 + rng.below(40) as usize;
                let capacity = match rng.below(4) {
                    0 => 0,
                    1 => 1,
                    2 => 2 + rng.below(6) as usize,
                    _ => universe + rng.below(3) as usize,
                };
                (capacity, universe)
            };
            let (capacity, mut universe) = sizes(&mut rng);
            let mut fast = LruRowCache::new(capacity, universe);
            let mut oracle = ListLru::new(capacity);
            for step in 0..300 {
                let id = rng.below(universe as u64) as u32;
                match rng.below(20) {
                    0 => {
                        // A new cluster, on the same universe or another.
                        let (capacity, next) = sizes(&mut rng);
                        universe = if rng.below(2) == 0 { universe } else { next };
                        fast.reset(capacity, universe);
                        oracle = ListLru::new(capacity);
                    }
                    1..=6 => {
                        fast.insert(id);
                        oracle.insert(id);
                    }
                    op => {
                        let hit = fast.probe(id);
                        assert_eq!(hit, oracle.probe(id), "seed {seed} step {step}");
                        // Half the misses fill on demand, as GAMMA's walk does.
                        if !hit && op % 2 == 0 {
                            let full =
                                oracle.capacity > 0 && oracle.recency.len() == oracle.capacity;
                            evictions += usize::from(full);
                            fast.insert(id);
                            oracle.insert(id);
                        }
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_eq!(fast.stats(), &oracle.stats, "{at}");
                assert_eq!(fast.resident_rows(), oracle.recency.len(), "{at}");
                for row in 0..universe as u32 {
                    assert_eq!(
                        fast.peek(row),
                        oracle.resident.contains(&row),
                        "{at} row {row}"
                    );
                }
            }
        }
        assert!(evictions > 1000, "only {evictions} evictions");
    }

    #[test]
    fn pinned_cache_respects_capacity() {
        let mut c = PinnedRowCache::new(3, 100);
        assert_eq!(c.load(&[1, 2, 3, 4, 5]), 3);
        assert!(c.peek(3));
        assert!(!c.peek(4));
    }

    #[test]
    fn pinned_cache_reload_swaps_cluster_sets() {
        // Figure 13: cluster 0 pins {0,1,2}, cluster 1 pins {3,4,5}.
        let mut c = PinnedRowCache::new(3, 6);
        c.load(&[0, 1, 2]);
        assert!(c.probe(0) && c.probe(1) && c.probe(2));
        c.load(&[3, 4, 5]);
        assert!(!c.peek(0));
        assert!(c.probe(3) && c.probe(4) && c.probe(5));
        assert_eq!(c.stats().hits, 6);
        assert_eq!(c.stats().fills, 6);
    }

    #[test]
    fn pinned_cache_misses_are_not_installed() {
        let mut c = PinnedRowCache::new(2, 10);
        c.load(&[1]);
        assert!(!c.probe(5));
        assert!(!c.probe(5), "miss twice: streaming, not caching");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn pinned_cache_dedups_load_list() {
        let mut c = PinnedRowCache::new(4, 10);
        assert_eq!(c.load(&[7, 7, 8]), 2);
    }

    #[test]
    fn pinned_load_duplicates_fill_once_and_do_not_consume_capacity() {
        // Regression (load audit): a duplicate ID names the same cached
        // row, so it must neither double-count `fills` nor burn a
        // capacity slot that a later distinct ID could use.
        let mut c = PinnedRowCache::new(2, 10);
        assert_eq!(c.load(&[7, 7, 8, 9]), 2, "capacity counts distinct rows");
        assert!(
            c.peek(7) && c.peek(8),
            "8 gets the slot the duplicate freed"
        );
        assert!(!c.peek(9), "capacity still bounds the pinned set");
        assert_eq!(c.stats().fills, 2, "one DMA fill per distinct row");
    }

    #[test]
    fn pinned_reset_discards_prior_epoch_residency() {
        // The epoch-reset contract: residency pinned before a reset must
        // miss afterwards, even though the table was not rewritten.
        let mut c = PinnedRowCache::new(2, 8);
        c.load(&[3, 5]);
        assert!(c.probe(3));
        c.reset(2, 8);
        assert!(!c.probe(3), "stale residency from the prior epoch");
        assert!(!c.peek(5));
        assert_eq!(c.resident_rows(), 0);
        assert_eq!(
            *c.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                fills: 0
            },
            "reset clears statistics"
        );
        // And the recycled cache behaves exactly like a fresh one.
        assert_eq!(c.load(&[1, 2, 3]), 2);
        assert!(c.probe(1) && c.probe(2) && !c.peek(3));
    }

    #[test]
    fn pinned_reset_resizes_universe_and_capacity() {
        let mut c = PinnedRowCache::new(1, 4);
        c.load(&[2]);
        c.reset(3, 16);
        assert_eq!(c.capacity_rows(), 3);
        assert_eq!(c.load(&[15, 14, 2, 1]), 3);
        assert!(c.peek(15) && c.peek(2) && !c.peek(1));
    }

    #[test]
    fn figure12_hit_count() {
        // Figure 12 of the paper: node degrees (column counts) are
        // [5, 3, 3, 4, 4, 3]; pinning the top-3 nodes {0, 3, 4} yields
        // exactly 5 + 4 + 4 = 13 HDN cache hits over the six output rows.
        let rows: [&[u32]; 6] = [
            &[0, 2, 3, 4, 5],
            &[0, 1, 3, 4],
            &[0, 1, 3, 4],
            &[0, 2, 4, 5],
            &[0, 1, 3, 5],
            &[2],
        ];
        let mut c = PinnedRowCache::new(3, 6);
        c.load(&[0, 3, 4]);
        for row in rows {
            for &col in row {
                c.probe(col);
            }
        }
        assert_eq!(c.stats().hits, 13, "Figure 12 promises 13 hits");
    }

    #[test]
    fn figure13_hit_count_with_partitioning() {
        // Figure 13: after graph partitioning, pinning each cluster's own
        // nodes {0,1,2} then {3,4,5} yields 18 hits on the clustered
        // adjacency.
        let rows: [&[u32]; 6] = [
            &[0, 1, 2, 5],
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 5],
            &[1, 3, 4, 5],
            &[1, 3, 4, 5],
            &[0, 2, 3, 4, 5],
        ];
        let mut c = PinnedRowCache::new(3, 6);
        c.load(&[0, 1, 2]);
        for row in rows.iter().take(3) {
            for &col in *row {
                c.probe(col);
            }
        }
        c.load(&[3, 4, 5]);
        for row in rows.iter().skip(3) {
            for &col in *row {
                c.probe(col);
            }
        }
        assert_eq!(c.stats().hits, 18, "Figure 13 promises 18 hits");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruRowCache::new(2, 16);
        c.insert(1);
        c.insert(2);
        c.probe(1);
        c.insert(3);
        assert!(c.peek(1));
        assert!(!c.peek(2));
        assert!(c.peek(3));
        assert_eq!(c.resident_rows(), 2);
    }

    #[test]
    fn lru_insert_existing_is_touch() {
        let mut c = LruRowCache::new(2, 16);
        c.insert(1);
        c.insert(2);
        c.insert(1); // touch, no fill
        c.insert(3); // evicts 2
        assert!(c.peek(1) && c.peek(3) && !c.peek(2));
        assert_eq!(c.stats().fills, 3);
    }

    #[test]
    fn lru_zero_capacity_never_hits() {
        let mut c = LruRowCache::new(0, 16);
        c.insert(1);
        assert!(!c.probe(1));
        assert_eq!(c.resident_rows(), 0);
    }

    #[test]
    fn lru_heavy_churn_is_consistent() {
        let mut c = LruRowCache::new(8, 16);
        for i in 0..1000u32 {
            c.probe(i % 16);
            c.insert(i % 16);
        }
        assert_eq!(c.resident_rows(), 8);
        let resident: Vec<u32> = (0..16).filter(|&i| c.peek(i)).collect();
        assert_eq!(resident.len(), 8);
    }

    #[test]
    fn lru_reset_discards_prior_epoch_residency() {
        let mut c = LruRowCache::new(4, 16);
        c.insert(3);
        c.insert(9);
        assert!(c.probe(3));
        c.reset(4, 16);
        assert!(!c.peek(3) && !c.peek(9), "stale epoch must miss");
        assert!(!c.probe(9));
        assert_eq!(c.resident_rows(), 0);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 1);
        // Evicting after a reset must not resurrect pre-reset entries.
        for i in 0..6 {
            c.insert(i);
        }
        assert_eq!(c.resident_rows(), 4);
        assert!(c.peek(5) && c.peek(2) && !c.peek(1));
    }

    #[test]
    fn lru_reset_resizes_universe() {
        let mut c = LruRowCache::new(2, 4);
        c.insert(3);
        c.reset(2, 32);
        assert!(!c.peek(3));
        c.insert(31);
        assert!(c.probe(31));
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c = LruRowCache::new(4, 16);
        assert!(c.stats().hit_rate().is_none());
        c.insert(9);
        c.probe(9);
        c.probe(10);
        assert_eq!(c.stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn stats_hit_rate_edge_cases() {
        // Zero probes: undefined, not 0/0.
        assert!(CacheStats::default().hit_rate().is_none());
        // Fills alone do not constitute probes.
        let fills_only = CacheStats {
            fills: 10,
            ..CacheStats::default()
        };
        assert!(fills_only.hit_rate().is_none());
        // All-miss and all-hit extremes.
        let misses = CacheStats {
            misses: 4,
            ..CacheStats::default()
        };
        assert_eq!(misses.hit_rate(), Some(0.0));
        let hits = CacheStats {
            hits: 4,
            ..CacheStats::default()
        };
        assert_eq!(hits.hit_rate(), Some(1.0));
    }

    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let mut a = CacheStats {
            hits: u64::MAX - 1,
            misses: 5,
            fills: u64::MAX,
        };
        let b = CacheStats {
            hits: 10,
            misses: 7,
            fills: 1,
        };
        a.merge(&b);
        assert_eq!(a.hits, u64::MAX, "saturated, not wrapped");
        assert_eq!(a.misses, 12, "in-range counters still add exactly");
        assert_eq!(a.fills, u64::MAX);
    }
}
