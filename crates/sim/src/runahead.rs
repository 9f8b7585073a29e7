use std::collections::VecDeque;

use crate::Cycle;

/// One pending LHS non-zero waiting for an in-flight RHS row (an entry of
/// the LHS-ID table of Figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waiter {
    /// The O-BUF output row this non-zero accumulates into.
    pub output_row: u32,
    /// The LHS sparse value to multiply with the returning RHS row.
    pub lhs_value: f64,
}

/// Outcome of trying to issue an HDN-cache-missed RHS row request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// A new LDN-table entry was allocated in this slot; the caller must
    /// start the DRAM fetch and then record its completion on the slot
    /// with [`RunaheadTables::set_completion`].
    Allocated(usize),
    /// The row was already in flight; the waiter piggy-backs on the
    /// existing LDN entry (MSHR-style coalescing).
    Coalesced,
    /// The LDN table is full: runahead must stall until a fetch returns.
    LdnFull,
    /// The LHS-ID table is full: runahead must stall until a fetch returns.
    LhsFull,
}

/// One LDN-table slot: an RHS row in flight and its waiting LHS non-zeros.
#[derive(Debug, Clone, Default)]
struct Slot {
    rhs_row: u32,
    complete_at: Option<Cycle>,
    /// Reused across occupancies: cleared (not dropped) when the slot is
    /// re-allocated, so steady-state issue/drain traffic allocates nothing.
    waiters: Vec<Waiter>,
}

/// The runahead-execution bookkeeping of Section V-D: an `M`-entry LDN
/// table tracking HDN-cache-missed RHS rows in flight, and an `N`-entry
/// LHS-ID table holding the sparse values waiting on them (Figure 16;
/// defaults `M = 16`, `N = 64`).
///
/// Every operation costs O(1) in the table size. A row→slot index finds
/// the entry holding a row in one load, a free list supplies slots, and
/// the live entries wait in allocation order, so the earliest fetch is
/// at the head of the queue. The index grows to the largest row issued
/// and is kept across [`RunaheadTables::reset`], which clears only the
/// live rows' entries. Slot storage, waiter lists included, is recycled,
/// so steady-state operation performs no heap allocation.
///
/// # Completion order
///
/// The caller records each allocated slot's completion before its next
/// `issue` or `pop_earliest_slice`, and completions are nondecreasing in
/// allocation order. One [`Dram`](crate::Dram) channel guarantees this:
/// a fetch starts no earlier than the channel's last transfer ends. Debug
/// builds check the order as each completion is recorded.
///
/// ```
/// use grow_sim::{IssueOutcome, RunaheadTables, Waiter};
///
/// let mut t = RunaheadTables::new(16, 64);
/// let w = Waiter { output_row: 0, lhs_value: 1.5 };
/// let IssueOutcome::Allocated(slot) = t.issue(7, w) else {
///     panic!("a row not in flight allocates");
/// };
/// t.set_completion(slot, 120);
/// // Same row again from another output row: coalesced, no new fetch.
/// assert_eq!(t.issue(7, Waiter { output_row: 2, lhs_value: -0.5 }), IssueOutcome::Coalesced);
/// let (done, row, waiters) = t.pop_earliest_slice().unwrap();
/// assert_eq!((done, row, waiters.len()), (120, 7, 2));
/// ```
#[derive(Debug, Clone)]
pub struct RunaheadTables {
    ldn_capacity: usize,
    lhs_capacity: usize,
    slots: Vec<Slot>,
    /// RHS row -> 1 + the slot holding it while in flight; 0 otherwise.
    index: Vec<u32>,
    /// Slots not in flight.
    free: Vec<u32>,
    /// Slots in flight, in allocation order.
    queue: VecDeque<u32>,
    lhs_used: usize,
}

impl Default for RunaheadTables {
    /// Minimal 1/1-entry tables; call [`RunaheadTables::reset`] to size
    /// them before use.
    fn default() -> Self {
        RunaheadTables::new(1, 1)
    }
}

impl RunaheadTables {
    /// Creates empty tables with the given capacities (Table III defaults
    /// are 16 and 64).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(ldn_capacity: usize, lhs_capacity: usize) -> Self {
        assert!(
            ldn_capacity > 0 && lhs_capacity > 0,
            "table capacities must be positive"
        );
        RunaheadTables {
            ldn_capacity,
            lhs_capacity,
            slots: Vec::new(),
            index: Vec::new(),
            free: Vec::new(),
            queue: VecDeque::new(),
            lhs_used: 0,
        }
    }

    /// Recycles the tables: as if freshly constructed with
    /// `new(ldn_capacity, lhs_capacity)`, but reusing the slot storage,
    /// the waiter lists inside it and the row index.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn reset(&mut self, ldn_capacity: usize, lhs_capacity: usize) {
        assert!(
            ldn_capacity > 0 && lhs_capacity > 0,
            "table capacities must be positive"
        );
        self.ldn_capacity = ldn_capacity;
        self.lhs_capacity = lhs_capacity;
        for &i in &self.queue {
            self.index[self.slots[i as usize].rhs_row as usize] = 0;
        }
        self.free.extend(self.queue.drain(..));
        self.lhs_used = 0;
    }

    /// LDN-table entries currently allocated.
    pub fn ldn_used(&self) -> usize {
        self.queue.len()
    }

    /// LHS-ID-table entries currently allocated.
    pub fn lhs_used(&self) -> usize {
        self.lhs_used
    }

    /// True if no fetches are in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to register `waiter` for RHS row `rhs_row`.
    ///
    /// On [`IssueOutcome::Allocated`] the caller must perform the DRAM read
    /// and record its completion on the returned slot via
    /// [`RunaheadTables::set_completion`]. On `LdnFull`/`LhsFull` nothing
    /// is recorded; the caller should drain one completion
    /// ([`RunaheadTables::pop_earliest_slice`]) and retry.
    pub fn issue(&mut self, rhs_row: u32, waiter: Waiter) -> IssueOutcome {
        if self.lhs_used >= self.lhs_capacity {
            return IssueOutcome::LhsFull;
        }
        let r = rhs_row as usize;
        if r >= self.index.len() {
            self.index.resize(r + 1, 0);
        }
        if let Some(i) = self.index[r].checked_sub(1) {
            self.slots[i as usize].waiters.push(waiter);
            self.lhs_used += 1;
            return IssueOutcome::Coalesced;
        }
        if self.queue.len() >= self.ldn_capacity {
            return IssueOutcome::LdnFull;
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[i as usize];
        slot.rhs_row = rhs_row;
        slot.complete_at = None;
        slot.waiters.clear();
        slot.waiters.push(waiter);
        self.index[r] = i + 1;
        self.queue.push_back(i);
        self.lhs_used += 1;
        IssueOutcome::Allocated(i as usize)
    }

    /// Records the DRAM completion cycle of the entry just allocated in
    /// `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no fetch in flight or already has a
    /// completion time. Debug builds also panic if `slot` is not the
    /// newest entry or its completion precedes the previous entry's (see
    /// [Completion order](RunaheadTables#completion-order)).
    pub fn set_completion(&mut self, slot: usize, complete_at: Cycle) {
        let live = self
            .slots
            .get(slot)
            .is_some_and(|s| self.index[s.rhs_row as usize] as usize == slot + 1);
        assert!(live, "entry must be allocated");
        debug_assert!(
            self.records_in_order(slot, complete_at),
            "completions must be recorded in allocation order, nondecreasing"
        );
        let entry = &mut self.slots[slot];
        assert!(entry.complete_at.is_none(), "completion already set");
        entry.complete_at = Some(complete_at);
    }

    /// True if `slot` is the newest entry in flight and `complete_at` is
    /// no earlier than the completion of the entry allocated before it.
    fn records_in_order(&self, slot: usize, complete_at: Cycle) -> bool {
        let mut newest = self.queue.iter().rev();
        newest.next() == Some(&(slot as u32))
            && newest.next().is_none_or(|&prev| {
                self.slots[prev as usize]
                    .complete_at
                    .is_some_and(|done| done <= complete_at)
            })
    }

    /// Removes the in-flight row with the earliest completion and returns
    /// `(completion cycle, rhs row, waiters)`, borrowing the waiter list
    /// out of the recycled slot, so draining allocates nothing. Returns
    /// `None` when no fetch is in flight.
    ///
    /// The earliest entry is the oldest one. Ties on the completion cycle
    /// resolve to the smallest RHS row id among the equal-completion
    /// entries at the head of the queue (the same total order the paper's
    /// FIFO channel produces).
    ///
    /// # Panics
    ///
    /// Panics if the oldest entry has no completion recorded.
    pub fn pop_earliest_slice(&mut self) -> Option<(Cycle, u32, &[Waiter])> {
        let head = &self.slots[*self.queue.front()? as usize];
        let done = head.complete_at.expect("completion recorded before a pop");
        let (mut at, mut row) = (0, head.rhs_row);
        for (j, &i) in self.queue.iter().enumerate().skip(1) {
            let slot = &self.slots[i as usize];
            if slot.complete_at != Some(done) {
                break;
            }
            if slot.rhs_row < row {
                (at, row) = (j, slot.rhs_row);
            }
        }
        let i = self.queue.remove(at).expect("a queued slot") as usize;
        self.free.push(i as u32);
        self.index[row as usize] = 0;
        let slot = &self.slots[i];
        self.lhs_used -= slot.waiters.len();
        Some((done, row, &slot.waiters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(row: u32) -> Waiter {
        Waiter {
            output_row: row,
            lhs_value: 1.0,
        }
    }

    /// Issues `row` into a table with room and records `done` on its slot.
    fn fetch(t: &mut RunaheadTables, row: u32, waiter: Waiter, done: Cycle) {
        let IssueOutcome::Allocated(slot) = t.issue(row, waiter) else {
            panic!("row {row} must allocate");
        };
        t.set_completion(slot, done);
    }

    #[test]
    fn allocate_then_drain() {
        let mut t = RunaheadTables::new(4, 8);
        assert_eq!(t.issue(10, w(0)), IssueOutcome::Allocated(0));
        t.set_completion(0, 50);
        assert_eq!(t.ldn_used(), 1);
        let (done, row, waiters) = t.pop_earliest_slice().unwrap();
        assert_eq!((done, row), (50, 10));
        assert_eq!(waiters.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.lhs_used(), 0);
    }

    #[test]
    fn coalescing_shares_one_fetch() {
        // Figure 16's example: LDN nodes 1 and 2 miss; output rows 0, 2, 3
        // wait on them via three LHS-ID entries but only two LDN entries.
        let mut t = RunaheadTables::new(16, 64);
        fetch(&mut t, 1, w(0), 100);
        fetch(&mut t, 2, w(2), 110);
        assert_eq!(t.issue(1, w(3)), IssueOutcome::Coalesced);
        assert_eq!(t.ldn_used(), 2, "two LDN entries as in Figure 16");
        assert_eq!(t.lhs_used(), 3, "three LHS-ID entries as in Figure 16");
    }

    #[test]
    fn completions_drain_in_time_order() {
        // Row 2 was fetched first and returns first, although row 1 is
        // the smaller id: only equal completions fall back to row order.
        let mut t = RunaheadTables::new(4, 8);
        fetch(&mut t, 2, w(0), 150);
        fetch(&mut t, 1, w(1), 200);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 2);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 1);
        assert!(t.pop_earliest_slice().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn an_earlier_completion_after_a_later_one_is_rejected_in_debug() {
        let mut t = RunaheadTables::new(4, 8);
        fetch(&mut t, 1, w(0), 200);
        fetch(&mut t, 2, w(1), 150);
    }

    #[test]
    fn completion_ties_resolve_by_row_id() {
        let mut t = RunaheadTables::new(4, 8);
        fetch(&mut t, 9, w(0), 100);
        fetch(&mut t, 4, w(1), 100);
        fetch(&mut t, 2, w(2), 101);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 4, "smaller row id first");
        assert_eq!(t.pop_earliest_slice().unwrap().1, 9);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 2, "a later cycle waits");
    }

    #[test]
    fn ldn_capacity_blocks_new_rows() {
        let mut t = RunaheadTables::new(2, 8);
        fetch(&mut t, 1, w(0), 1);
        fetch(&mut t, 2, w(0), 2);
        assert_eq!(t.issue(3, w(0)), IssueOutcome::LdnFull);
        // Existing rows can still coalesce.
        assert_eq!(t.issue(1, w(1)), IssueOutcome::Coalesced);
    }

    #[test]
    fn lhs_capacity_blocks_everything() {
        let mut t = RunaheadTables::new(4, 2);
        fetch(&mut t, 1, w(0), 1);
        t.issue(1, w(1));
        assert_eq!(t.issue(1, w(2)), IssueOutcome::LhsFull);
        assert_eq!(t.issue(9, w(2)), IssueOutcome::LhsFull);
    }

    #[test]
    fn reset_recycles_slots_without_stale_state() {
        let mut t = RunaheadTables::new(2, 4);
        fetch(&mut t, 1, w(0), 10);
        fetch(&mut t, 2, w(1), 20);
        t.reset(3, 6);
        assert!(t.is_empty());
        assert_eq!(t.lhs_used(), 0);
        // Rows in flight before the reset are gone; re-issuing allocates.
        fetch(&mut t, 1, w(5), 9);
        let (done, row, waiters) = t.pop_earliest_slice().unwrap();
        assert_eq!((done, row), (9, 1));
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].output_row, 5, "no waiters from a prior epoch");
        assert!(
            t.pop_earliest_slice().is_none(),
            "row 2 left with the reset"
        );
    }

    #[test]
    #[should_panic(expected = "entry must be allocated")]
    fn completion_requires_allocation() {
        let mut t = RunaheadTables::new(2, 2);
        fetch(&mut t, 5, w(0), 10);
        t.pop_earliest_slice();
        // The slot's fetch has returned: it holds nothing in flight.
        t.set_completion(0, 20);
    }

    /// One entry in flight in [`ScanTables`].
    struct Entry {
        rhs_row: u32,
        complete_at: Option<Cycle>,
        waiters: Vec<Waiter>,
    }

    /// The scanning tables this module replaced, as a textbook model: the
    /// entries in flight in a list, every lookup a linear search, and a
    /// pop the minimum (completion, row) over the entries with a
    /// completion. Kept as the oracle for the indexed tables.
    struct ScanTables {
        ldn_capacity: usize,
        lhs_capacity: usize,
        entries: Vec<Entry>,
        lhs_used: usize,
    }

    impl ScanTables {
        fn new(ldn_capacity: usize, lhs_capacity: usize) -> Self {
            ScanTables {
                ldn_capacity,
                lhs_capacity,
                entries: Vec::new(),
                lhs_used: 0,
            }
        }

        fn find(&mut self, rhs_row: u32) -> Option<&mut Entry> {
            self.entries.iter_mut().find(|e| e.rhs_row == rhs_row)
        }

        /// As [`RunaheadTables::issue`], reporting an allocation as slot 0.
        fn issue(&mut self, rhs_row: u32, waiter: Waiter) -> IssueOutcome {
            if self.lhs_used >= self.lhs_capacity {
                return IssueOutcome::LhsFull;
            }
            let outcome = if let Some(entry) = self.find(rhs_row) {
                entry.waiters.push(waiter);
                IssueOutcome::Coalesced
            } else if self.entries.len() >= self.ldn_capacity {
                return IssueOutcome::LdnFull;
            } else {
                self.entries.push(Entry {
                    rhs_row,
                    complete_at: None,
                    waiters: vec![waiter],
                });
                IssueOutcome::Allocated(0)
            };
            self.lhs_used += 1;
            outcome
        }

        fn set_completion(&mut self, rhs_row: u32, complete_at: Cycle) {
            self.find(rhs_row)
                .expect("entry must be allocated")
                .complete_at = Some(complete_at);
        }

        fn pop_earliest(&mut self) -> Option<(Cycle, u32, Vec<Waiter>)> {
            let (done, row, i) = self
                .entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.complete_at.map(|done| (done, e.rhs_row, i)))
                .min()?;
            let entry = self.entries.remove(i);
            self.lhs_used -= entry.waiters.len();
            Some((done, row, entry.waiters))
        }
    }

    /// SplitMix64: a seeded stream for the property test below.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn indexed_tables_match_the_scanning_oracle() {
        // What the seeded sequences must have covered.
        let (mut coalesced, mut ldn_full, mut lhs_full) = (0, 0, 0);
        let (mut tied_pops, mut resets_in_flight) = (0, 0);
        for seed in 0..300 {
            let mut rng = Mix(seed);
            let caps = |rng: &mut Mix| (1 + rng.below(6) as usize, 1 + rng.below(12) as usize);
            let (ldn, lhs) = caps(&mut rng);
            let mut fast = RunaheadTables::new(ldn, lhs);
            let mut oracle = ScanTables::new(ldn, lhs);
            // Few distinct rows, so fetches coalesce; the clock advances
            // by 0, 1 or 2 per fetch, so completions tie.
            let rows = 1 + rng.below(24);
            let mut clock = 0;
            let mut last_pop = None;
            for step in 0..400u32 {
                match rng.below(16) {
                    0 => {
                        resets_in_flight += usize::from(!fast.is_empty());
                        let (ldn, lhs) = caps(&mut rng);
                        fast.reset(ldn, lhs);
                        oracle = ScanTables::new(ldn, lhs);
                        // A new cluster's channel starts over.
                        clock = rng.below(4);
                        last_pop = None;
                    }
                    1..=5 => {
                        let want = oracle.pop_earliest();
                        let got = fast
                            .pop_earliest_slice()
                            .map(|(done, row, waiters)| (done, row, waiters.to_vec()));
                        assert_eq!(got, want, "seed {seed} step {step}: pop");
                        if let Some((done, ..)) = want {
                            tied_pops += usize::from(last_pop == Some(done));
                            last_pop = Some(done);
                        }
                    }
                    _ => {
                        let row = rng.below(rows) as u32;
                        let waiter = Waiter {
                            output_row: step,
                            lhs_value: rng.below(1000) as f64,
                        };
                        let want = oracle.issue(row, waiter);
                        let got = fast.issue(row, waiter);
                        match (got, want) {
                            (IssueOutcome::Allocated(slot), IssueOutcome::Allocated(_)) => {
                                clock += rng.below(3);
                                fast.set_completion(slot, clock);
                                oracle.set_completion(row, clock);
                            }
                            _ => assert_eq!(got, want, "seed {seed} step {step}: issue"),
                        }
                        coalesced += usize::from(want == IssueOutcome::Coalesced);
                        ldn_full += usize::from(want == IssueOutcome::LdnFull);
                        lhs_full += usize::from(want == IssueOutcome::LhsFull);
                    }
                }
                assert_eq!(
                    fast.ldn_used(),
                    oracle.entries.len(),
                    "seed {seed} step {step}"
                );
                assert_eq!(fast.lhs_used(), oracle.lhs_used, "seed {seed} step {step}");
            }
        }
        let covered = [coalesced, ldn_full, lhs_full, tied_pops, resets_in_flight];
        assert!(covered.iter().all(|&n| n > 100), "coverage: {covered:?}");
    }
}
