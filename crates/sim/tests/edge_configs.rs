//! Degenerate- and extreme-configuration tests: the substrate must stay
//! well-defined (no panics, sane monotonic behavior) at the corners of the
//! design space that sweeps and ablations can reach.

use grow_sim::{
    Dram, DramConfig, IssueOutcome, LruRowCache, MacArray, PinnedRowCache, RunaheadTables,
    TrafficClass, Waiter,
};

#[test]
fn one_byte_per_cycle_channel_works() {
    let cfg = DramConfig {
        bytes_per_cycle: 1.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 0,
    };
    let mut d = Dram::new(cfg);
    let done = d.read(0, 64, TrafficClass::RhsRows);
    assert_eq!(done, 64);
}

#[test]
fn fractional_bandwidth_accumulates_exactly() {
    // 3 bytes/cycle with 64-byte lines: 10 lines = 640 bytes = 213.3 cycles.
    let cfg = DramConfig {
        bytes_per_cycle: 3.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 0,
    };
    let mut d = Dram::new(cfg);
    let mut last = 0;
    for _ in 0..10 {
        last = d.read(0, 64, TrafficClass::RhsRows);
    }
    assert_eq!(last, (640.0f64 / 3.0).ceil() as u64);
}

#[test]
fn request_overhead_dominates_tiny_requests() {
    let base = DramConfig {
        bytes_per_cycle: 128.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 0,
    };
    let with_overhead = DramConfig {
        request_overhead_cycles: 20,
        ..base
    };
    let mut fast = Dram::new(base);
    let mut slow = Dram::new(with_overhead);
    for _ in 0..100 {
        fast.read(0, 64, TrafficClass::RhsRows);
        slow.read(0, 64, TrafficClass::RhsRows);
    }
    // Same bytes, very different channel occupancy.
    assert_eq!(fast.stats().total_fetched(), slow.stats().total_fetched());
    assert!(slow.busy_until() >= fast.busy_until() + 100 * 20);
}

#[test]
fn streams_are_exempt_from_request_overhead() {
    let cfg = DramConfig {
        bytes_per_cycle: 64.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 50,
    };
    let mut d = Dram::new(cfg);
    for _ in 0..10 {
        d.read_stream(0, 64, TrafficClass::LhsSparse);
    }
    assert_eq!(d.busy_until(), 10, "streaming pays pure bandwidth only");
}

#[test]
#[should_panic(expected = "bandwidth must be positive")]
fn zero_bandwidth_rejected() {
    Dram::new(DramConfig {
        bytes_per_cycle: 0.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 0,
    });
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
    let mut d = Dram::new(DramConfig::default());
    let done = d.read_many(0, 50_000_000, 512, TrafficClass::RhsRows);
    assert!(done > 0);
    assert_eq!(d.stats().requests(TrafficClass::RhsRows), 50_000_000);
    assert_eq!(
        d.stats().fetched_bytes(TrafficClass::RhsRows),
        50_000_000 * 512
    );
}

#[test]
fn zero_latency_reads_complete_at_transfer_end() {
    let cfg = DramConfig {
        bytes_per_cycle: 64.0,
        latency_cycles: 0,
        access_granularity: 64,
        request_overhead_cycles: 0,
    };
    let mut d = Dram::new(cfg);
    assert_eq!(d.read(0, 64, TrafficClass::Weights), 1);
}
