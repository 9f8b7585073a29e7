use crate::Cycle;

/// The MAC vector unit of Table III: 16 lanes of 64-bit multiply-accumulate.
///
/// The key primitive of GROW's row-wise product is a scalar x vector
/// operation (Section VII-H): one LHS non-zero times an F-wide RHS row,
/// which occupies the array for `ceil(F / lanes)` cycles. The unit
/// serializes operations (one scalar x vector at a time) and tracks both
/// total MAC count (for the energy model) and busy cycles (for utilization).
///
/// ```
/// use grow_sim::MacArray;
///
/// let mut mac = MacArray::new(16);
/// let done = mac.scalar_vector(0, 64); // 64-wide row: 4 cycles
/// assert_eq!(done, 4);
/// assert_eq!(mac.mac_ops(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct MacArray {
    lanes: usize,
    busy_until: Cycle,
    busy_cycles: u64,
    mac_ops: u64,
}

impl MacArray {
    /// Creates an idle MAC array with `lanes` parallel MAC units.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "at least one MAC lane required");
        MacArray {
            lanes,
            busy_until: 0,
            busy_cycles: 0,
            mac_ops: 0,
        }
    }

    /// Cycles needed for one scalar x vector operation of `width` elements.
    pub fn cycles_for(&self, width: usize) -> Cycle {
        width.div_ceil(self.lanes) as Cycle
    }

    /// Executes one scalar x vector operation of `width` elements, starting
    /// no earlier than `ready`. Returns the completion cycle.
    pub fn scalar_vector(&mut self, ready: Cycle, width: usize) -> Cycle {
        let cycles = self.cycles_for(width);
        let start = self.busy_until.max(ready);
        self.busy_until = start + cycles;
        self.busy_cycles += cycles;
        self.mac_ops += width as u64;
        self.busy_until
    }

    /// Executes `count` back-to-back scalar x vector operations of `width`
    /// elements in one call (bulk accounting for rows whose operands are
    /// all on-chip). Returns the completion cycle of the last one.
    pub fn scalar_vector_bulk(&mut self, ready: Cycle, width: usize, count: u64) -> Cycle {
        if count == 0 {
            return self.busy_until.max(ready);
        }
        let cycles = self.cycles_for(width) * count;
        let start = self.busy_until.max(ready);
        self.busy_until = start + cycles;
        self.busy_cycles += cycles;
        self.mac_ops += width as u64 * count;
        self.busy_until
    }

    /// Occupies the array for `cycles` of non-MAC work (e.g. the
    /// partial-sum merging of the sparse-sparse baselines). Returns the
    /// completion cycle.
    pub fn occupy(&mut self, ready: Cycle, cycles: Cycle) -> Cycle {
        let start = self.busy_until.max(ready);
        self.busy_until = start + cycles;
        self.busy_cycles += cycles;
        self.busy_until
    }

    /// First cycle at which the array is free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Total multiply-accumulate operations executed.
    pub fn mac_ops(&self) -> u64 {
        self.mac_ops
    }

    /// Total cycles the array was occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_rounds_up_to_lane_multiples() {
        let mac = MacArray::new(16);
        assert_eq!(mac.cycles_for(16), 1);
        assert_eq!(mac.cycles_for(17), 2);
        assert_eq!(mac.cycles_for(41), 3); // Reddit's f_out = 41 (Table I)
        assert_eq!(mac.cycles_for(1), 1);
    }

    #[test]
    fn operations_serialize() {
        let mut mac = MacArray::new(16);
        assert_eq!(mac.scalar_vector(0, 32), 2);
        assert_eq!(mac.scalar_vector(0, 32), 4, "second op queues");
        assert_eq!(mac.scalar_vector(10, 16), 11, "idle gap respected");
    }

    #[test]
    fn counters_accumulate() {
        let mut mac = MacArray::new(8);
        mac.scalar_vector(0, 8);
        mac.scalar_vector(0, 24);
        assert_eq!(mac.mac_ops(), 32);
        assert_eq!(mac.busy_cycles(), 4);
    }

    #[test]
    fn bulk_matches_loop() {
        let mut a = MacArray::new(16);
        a.scalar_vector_bulk(3, 41, 7);
        let mut b = MacArray::new(16);
        let mut done = 0;
        for _ in 0..7 {
            done = b.scalar_vector(3, 41);
        }
        assert_eq!(a.busy_until(), done);
        assert_eq!(a.mac_ops(), b.mac_ops());
        assert_eq!(a.busy_cycles(), b.busy_cycles());
    }

    #[test]
    fn occupy_adds_non_mac_cycles() {
        let mut mac = MacArray::new(4);
        mac.occupy(0, 7);
        assert_eq!(mac.busy_cycles(), 7);
        assert_eq!(mac.mac_ops(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one MAC lane")]
    fn zero_lanes_rejected() {
        MacArray::new(0);
    }
}
