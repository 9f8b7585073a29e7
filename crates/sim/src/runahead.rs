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
    /// A new LDN-table entry was allocated; the caller must start the DRAM
    /// fetch and then call [`RunaheadTables::set_completion`].
    Allocated,
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
    live: bool,
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
/// Like the hardware it models, the table is a handful of CAM slots:
/// lookups are a linear scan over at most `M` live entries (`M` is 16 in
/// Table III — far below the break-even point of any hashed index), and
/// slot storage — waiter lists included — is recycled, so steady-state
/// operation performs no heap allocation. [`RunaheadTables::reset`]
/// recycles the whole table for the next cluster.
///
/// ```
/// use grow_sim::{IssueOutcome, RunaheadTables, Waiter};
///
/// let mut t = RunaheadTables::new(16, 64);
/// let w = Waiter { output_row: 0, lhs_value: 1.5 };
/// assert_eq!(t.issue(7, w), IssueOutcome::Allocated);
/// t.set_completion(7, 120);
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
    live: usize,
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
            live: 0,
            lhs_used: 0,
        }
    }

    /// Recycles the tables: as if freshly constructed with
    /// `new(ldn_capacity, lhs_capacity)`, but reusing the slot storage and
    /// the waiter lists inside it.
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
        for slot in &mut self.slots {
            slot.live = false;
        }
        self.live = 0;
        self.lhs_used = 0;
    }

    /// LDN-table entries currently allocated.
    pub fn ldn_used(&self) -> usize {
        self.live
    }

    /// LHS-ID-table entries currently allocated.
    pub fn lhs_used(&self) -> usize {
        self.lhs_used
    }

    /// True if no fetches are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live slot index holding `rhs_row`, if any.
    #[inline]
    fn find(&self, rhs_row: u32) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.live && s.rhs_row == rhs_row)
    }

    /// Attempts to register `waiter` for RHS row `rhs_row`.
    ///
    /// On [`IssueOutcome::Allocated`] the caller must perform the DRAM read
    /// and report its completion via [`RunaheadTables::set_completion`].
    /// On `LdnFull`/`LhsFull` nothing is recorded; the caller should drain
    /// one completion ([`RunaheadTables::pop_earliest_slice`]) and retry.
    pub fn issue(&mut self, rhs_row: u32, waiter: Waiter) -> IssueOutcome {
        if self.lhs_used >= self.lhs_capacity {
            return IssueOutcome::LhsFull;
        }
        if let Some(i) = self.find(rhs_row) {
            self.slots[i].waiters.push(waiter);
            self.lhs_used += 1;
            return IssueOutcome::Coalesced;
        }
        if self.live >= self.ldn_capacity {
            return IssueOutcome::LdnFull;
        }
        let i = match self.slots.iter().position(|s| !s.live) {
            Some(i) => i,
            None => {
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[i];
        slot.rhs_row = rhs_row;
        slot.live = true;
        slot.complete_at = None;
        slot.waiters.clear();
        slot.waiters.push(waiter);
        self.live += 1;
        self.lhs_used += 1;
        IssueOutcome::Allocated
    }

    /// Records the DRAM completion cycle of a newly allocated entry.
    ///
    /// # Panics
    ///
    /// Panics if `rhs_row` has no allocated entry or already has a
    /// completion time.
    pub fn set_completion(&mut self, rhs_row: u32, complete_at: Cycle) {
        let i = self.find(rhs_row).expect("entry must be allocated");
        let slot = &mut self.slots[i];
        assert!(slot.complete_at.is_none(), "completion already set");
        slot.complete_at = Some(complete_at);
    }

    /// Removes the in-flight row with the earliest completion and returns
    /// `(completion cycle, rhs row, waiters)`, borrowing the waiter list
    /// out of the recycled slot, so draining allocates nothing. Returns
    /// `None` when no completed fetch is in flight.
    ///
    /// Ties on the completion cycle resolve to the smallest RHS row id
    /// (the same total order the paper's FIFO channel produces).
    pub fn pop_earliest_slice(&mut self) -> Option<(Cycle, u32, &[Waiter])> {
        let mut best: Option<(Cycle, u32, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.live {
                continue;
            }
            if let Some(done) = slot.complete_at {
                let key = (done, slot.rhs_row);
                if best.is_none_or(|(d, r, _)| key < (d, r)) {
                    best = Some((done, slot.rhs_row, i));
                }
            }
        }
        let (done, row, i) = best?;
        let slot = &mut self.slots[i];
        slot.live = false;
        self.live -= 1;
        self.lhs_used -= slot.waiters.len();
        Some((done, row, &self.slots[i].waiters))
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

    #[test]
    fn allocate_then_drain() {
        let mut t = RunaheadTables::new(4, 8);
        assert_eq!(t.issue(10, w(0)), IssueOutcome::Allocated);
        t.set_completion(10, 50);
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
        assert_eq!(t.issue(1, w(0)), IssueOutcome::Allocated);
        t.set_completion(1, 100);
        assert_eq!(t.issue(2, w(2)), IssueOutcome::Allocated);
        t.set_completion(2, 110);
        assert_eq!(t.issue(1, w(3)), IssueOutcome::Coalesced);
        assert_eq!(t.ldn_used(), 2, "two LDN entries as in Figure 16");
        assert_eq!(t.lhs_used(), 3, "three LHS-ID entries as in Figure 16");
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut t = RunaheadTables::new(4, 8);
        t.issue(1, w(0));
        t.set_completion(1, 200);
        t.issue(2, w(1));
        t.set_completion(2, 150);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 2);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 1);
        assert!(t.pop_earliest_slice().is_none());
    }

    #[test]
    fn completion_ties_resolve_by_row_id() {
        let mut t = RunaheadTables::new(4, 8);
        t.issue(9, w(0));
        t.set_completion(9, 100);
        t.issue(4, w(1));
        t.set_completion(4, 100);
        assert_eq!(t.pop_earliest_slice().unwrap().1, 4, "smaller row id first");
        assert_eq!(t.pop_earliest_slice().unwrap().1, 9);
    }

    #[test]
    fn ldn_capacity_blocks_new_rows() {
        let mut t = RunaheadTables::new(2, 8);
        t.issue(1, w(0));
        t.issue(2, w(0));
        assert_eq!(t.issue(3, w(0)), IssueOutcome::LdnFull);
        // Existing rows can still coalesce.
        assert_eq!(t.issue(1, w(1)), IssueOutcome::Coalesced);
    }

    #[test]
    fn lhs_capacity_blocks_everything() {
        let mut t = RunaheadTables::new(4, 2);
        t.issue(1, w(0));
        t.issue(1, w(1));
        assert_eq!(t.issue(1, w(2)), IssueOutcome::LhsFull);
        assert_eq!(t.issue(9, w(2)), IssueOutcome::LhsFull);
    }

    #[test]
    fn reset_recycles_slots_without_stale_state() {
        let mut t = RunaheadTables::new(2, 4);
        t.issue(1, w(0));
        t.issue(2, w(1));
        t.set_completion(1, 10);
        t.reset(3, 6);
        assert!(t.is_empty());
        assert_eq!(t.lhs_used(), 0);
        // Rows in flight before the reset are gone; re-issuing allocates.
        assert_eq!(t.issue(1, w(5)), IssueOutcome::Allocated);
        t.set_completion(1, 99);
        let (done, row, waiters) = t.pop_earliest_slice().unwrap();
        assert_eq!((done, row), (99, 1));
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].output_row, 5, "no waiters from a prior epoch");
    }

    #[test]
    #[should_panic(expected = "entry must be allocated")]
    fn completion_requires_allocation() {
        let mut t = RunaheadTables::new(2, 2);
        t.set_completion(5, 10);
    }
}
