//! Degenerate- and extreme-configuration tests: the substrate must stay
//! well-defined (no panics, sane monotonic behavior) at the corners of the
//! design space that sweeps and ablations can reach.

use grow_sim::{
    Dram, IssueOutcome, LruRowCache, MacArray, PinnedRowCache, RunaheadTables, TrafficClass,
    Waiter, DRAM_BYTES_PER_CYCLE, DRAM_LATENCY_CYCLES, DRAM_REQUEST_OVERHEAD_CYCLES,
};

/// Fixed cycles every random read adds to its transfer: the channel
/// occupancy of the request, then the access latency.
const RANDOM_READ_TAX: u64 = DRAM_REQUEST_OVERHEAD_CYCLES + DRAM_LATENCY_CYCLES;

#[test]
fn one_byte_per_cycle_channel_works() {
    let mut d = Dram::new(1.0);
    let done = d.read(0, 64, TrafficClass::RhsRows);
    assert_eq!(done, 64 + RANDOM_READ_TAX);
}

#[test]
fn fractional_bandwidth_accumulates_exactly() {
    // 3 bytes/cycle with 64-byte lines: 10 lines = 640 bytes = 213.3
    // cycles of transfer on top of ten request overheads.
    let mut d = Dram::new(3.0);
    let mut last = 0;
    for _ in 0..10 {
        last = d.read(0, 64, TrafficClass::RhsRows);
    }
    let overheads = 10 * DRAM_REQUEST_OVERHEAD_CYCLES;
    let transfer = (640.0f64 / 3.0).ceil() as u64;
    assert_eq!(last, transfer + overheads + DRAM_LATENCY_CYCLES);
}

#[test]
fn streams_are_exempt_from_request_overhead() {
    // Same lines, same bytes: the random reads each hold the channel for
    // the request overhead on top of the transfer, the stream does not.
    let mut stream = Dram::new(64.0);
    let mut random = Dram::new(64.0);
    for _ in 0..10 {
        stream.read_stream(0, 64, TrafficClass::LhsSparse);
        random.read(0, 64, TrafficClass::LhsSparse);
    }
    assert_eq!(
        stream.busy_until(),
        10,
        "streaming pays pure bandwidth only"
    );
    assert_eq!(random.busy_until(), 10 * (1 + DRAM_REQUEST_OVERHEAD_CYCLES));
    assert_eq!(
        stream.stats().total_fetched(),
        random.stats().total_fetched()
    );
}

#[test]
#[should_panic(expected = "bandwidth must be positive")]
fn zero_bandwidth_rejected() {
    Dram::new(0.0);
}

#[test]
fn single_lane_mac_is_serial() {
    let mut mac = MacArray::new(1);
    let done = mac.scalar_vector_bulk(0, 64, 10);
    assert_eq!(done, 640);
}

#[test]
fn zero_capacity_pinned_cache_only_misses() {
    let mut c = PinnedRowCache::new(0, 100);
    assert_eq!(c.load(&[1, 2, 3]), 0);
    assert!(!c.probe(1));
    assert_eq!(c.stats().misses, 1);
    assert_eq!(c.stats().fills, 0);
}

#[test]
fn lru_capacity_one_behaves() {
    let mut c = LruRowCache::new(1, 16);
    c.insert(5);
    assert!(c.probe(5));
    c.insert(6);
    assert!(!c.peek(5));
    assert!(c.probe(6));
}

#[test]
fn runahead_tables_minimum_capacity() {
    let mut t = RunaheadTables::new(1, 1);
    let w = Waiter {
        output_row: 0,
        lhs_value: 1.0,
    };
    assert_eq!(t.issue(9, w), IssueOutcome::Allocated(0));
    t.set_completion(0, 5);
    // Both tables full now.
    assert_eq!(t.issue(9, w), IssueOutcome::LhsFull);
    assert_eq!(t.issue(8, w), IssueOutcome::LhsFull);
    let (done, row, waiters) = t.pop_earliest_slice().expect("one entry");
    assert_eq!((done, row, waiters.len()), (5, 9, 1));
    assert_eq!(
        t.issue(8, w),
        IssueOutcome::Allocated(0),
        "the slot is reused"
    );
}

#[test]
fn huge_request_counts_do_not_overflow_cycle_math() {
    let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
    let done = d.read_many(0, 50_000_000, 512, TrafficClass::RhsRows);
    assert!(done > 0);
    assert_eq!(d.stats().requests(TrafficClass::RhsRows), 50_000_000);
    assert_eq!(
        d.stats().fetched_bytes(TrafficClass::RhsRows),
        50_000_000 * 512
    );
}

#[test]
fn reads_complete_a_latency_after_their_transfer() {
    let mut d = Dram::new(64.0);
    assert_eq!(d.read(0, 64, TrafficClass::Weights), 1 + RANDOM_READ_TAX);
    // A stream read pays the latency but not the request overhead.
    let mut d = Dram::new(64.0);
    assert_eq!(
        d.read_stream(0, 64, TrafficClass::Weights),
        1 + DRAM_LATENCY_CYCLES
    );
}
