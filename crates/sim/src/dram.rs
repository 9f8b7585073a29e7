use std::fmt;

use crate::fault::{self, FaultSite};
use crate::Cycle;

/// Table III's off-chip bandwidth: 128 GB/s at the 1 GHz accelerator
/// clock, i.e. 128 bytes per cycle. GROW and GCNAX start from it and the
/// `dram_gbps=` key varies it (Figure 25b); MatRaptor and GAMMA always
/// run at it.
pub const DRAM_BYTES_PER_CYCLE: f64 = 128.0;

/// Minimum access granularity in bytes ("assuming a 64 byte minimum
/// access granularity memory system", Figure 6): random-access requests
/// are rounded up to a multiple of it.
pub const DRAM_ACCESS_GRANULARITY: u64 = 64;

/// Fixed access latency added after a read's channel transfer, in cycles:
/// row-hit-dominated DDR4/LPDDR-class timing at 1 GHz, and the point at
/// which a 16-entry LDN table saturates the channel (the Figure 25(a)
/// knee the paper reports at 8/16-way runahead).
pub const DRAM_LATENCY_CYCLES: Cycle = 60;

/// Channel-occupancy overhead per *random* request, in cycles: the
/// row-activation/bus-turnaround cost of scattered accesses, which is why
/// random 64-byte reads sustain only ~25-40% of peak DDR bandwidth.
/// Streaming bursts do not pay it. This is the second half of the paper's
/// "effective memory bandwidth utilization" story (Figure 6): sparse-tile
/// fetches waste bandwidth both by over-fetching and by breaking row
/// locality.
pub const DRAM_REQUEST_OVERHEAD_CYCLES: Cycle = 12;

/// Rounds `bytes` up to whole [`DRAM_ACCESS_GRANULARITY`] lines.
fn round_to_lines(bytes: u64) -> u64 {
    bytes.div_ceil(DRAM_ACCESS_GRANULARITY) * DRAM_ACCESS_GRANULARITY
}

/// Channel/bank organization of the off-chip memory system, used by the
/// end-to-end multi-PE model (`exec=e2e`) to replace the single shared
/// fluid pipe with banked channels.
///
/// Addresses interleave across `channels` at cluster granularity (cluster
/// `i`'s dominant traffic lands on channel `i % channels`), and within a
/// channel concurrent request streams conflict on its `banks` banks: each
/// co-resident memory-active stream adds an expected
/// `DRAM_REQUEST_OVERHEAD_CYCLES * (k - 1) / banks` stall per request (the
/// row-activation cost of ping-ponging rows between `k` streams, amortized
/// over the bank count — the same [`DRAM_REQUEST_OVERHEAD_CYCLES`] the
/// detailed single-channel FIFO charges for scattered accesses).
///
/// The default `1x1` topology is the idealized shared pipe: it charges no
/// conflict stall at all (see [`MemTopology::conflict_penalty_per_byte`]),
/// which is what the golden e2e snapshots are committed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemTopology {
    /// Independent memory channels the aggregate bandwidth is spread over.
    pub channels: usize,
    /// Banks per channel; conflicts amortize over this count.
    pub banks: usize,
}

impl Default for MemTopology {
    fn default() -> Self {
        MemTopology {
            channels: 1,
            banks: 1,
        }
    }
}

impl MemTopology {
    /// Builds a topology; both counts must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `banks == 0`.
    pub fn new(channels: usize, banks: usize) -> Self {
        assert!(channels > 0, "at least one channel");
        assert!(banks > 0, "at least one bank");
        MemTopology { channels, banks }
    }

    /// `true` for the `1x1` idealized shared pipe, which charges zero
    /// conflict stall.
    pub fn is_uniform(&self) -> bool {
        self.channels == 1 && self.banks == 1
    }

    /// Home channel of cluster `idx` under address interleaving.
    pub fn home_channel(&self, idx: usize) -> usize {
        idx % self.channels
    }

    /// Expected extra channel-occupancy cycles *per byte* for a stream
    /// sharing its home channel with `co_residents` other memory-active
    /// streams: one request per [`DRAM_ACCESS_GRANULARITY`] bytes, each
    /// paying `DRAM_REQUEST_OVERHEAD_CYCLES * co_residents / banks` of
    /// expected bank-conflict serialization. Zero when the stream has the
    /// channel to itself, and always zero on the uniform `1x1` topology,
    /// so adding the stall leaves the idealized pipe's transfer times
    /// bit-identical.
    pub fn conflict_penalty_per_byte(&self, co_residents: usize) -> f64 {
        if co_residents == 0 || self.is_uniform() {
            return 0.0;
        }
        let per_request =
            DRAM_REQUEST_OVERHEAD_CYCLES as f64 * co_residents as f64 / self.banks as f64;
        per_request / DRAM_ACCESS_GRANULARITY as f64
    }
}

/// Category of an off-chip transfer, used to break down traffic the way the
/// paper's figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// CSR/CSC stream of the sparse LHS matrix (`A` in aggregation, `X` in
    /// combination): values + indices + compression metadata.
    LhsSparse,
    /// Demand fetches of dense RHS rows (`XW` rows in aggregation).
    RhsRows,
    /// HDN-cache preload fills at cluster start (GROW only).
    RhsPreload,
    /// Weight matrix `W` fetches (combination RHS).
    Weights,
    /// HDN ID list fetches at cluster start (GROW only).
    HdnIdList,
    /// Output matrix write-back.
    Output,
    /// Partial-sum spill/merge traffic (sparse-sparse baselines only).
    PartialSums,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::LhsSparse,
        TrafficClass::RhsRows,
        TrafficClass::RhsPreload,
        TrafficClass::Weights,
        TrafficClass::HdnIdList,
        TrafficClass::Output,
        TrafficClass::PartialSums,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::LhsSparse => 0,
            TrafficClass::RhsRows => 1,
            TrafficClass::RhsPreload => 2,
            TrafficClass::Weights => 3,
            TrafficClass::HdnIdList => 4,
            TrafficClass::Output => 5,
            TrafficClass::PartialSums => 6,
        }
    }

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::LhsSparse => "lhs-sparse",
            TrafficClass::RhsRows => "rhs-rows",
            TrafficClass::RhsPreload => "rhs-preload",
            TrafficClass::Weights => "weights",
            TrafficClass::HdnIdList => "hdn-id-list",
            TrafficClass::Output => "output",
            TrafficClass::PartialSums => "partial-sums",
        }
    }
}

/// Per-class byte and request accounting.
///
/// `fetched` counts what actually crossed the channel (granularity-rounded);
/// `useful` counts the bytes the engine asked for. Their ratio is the
/// effective bandwidth utilization of Figure 6.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    fetched: [u64; 7],
    useful: [u64; 7],
    requests: [u64; 7],
}

impl TrafficStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes transferred over the channel for `class`.
    pub fn fetched_bytes(&self, class: TrafficClass) -> u64 {
        self.fetched[class.index()]
    }

    /// Bytes the engine actually needed for `class`.
    pub fn useful_bytes(&self, class: TrafficClass) -> u64 {
        self.useful[class.index()]
    }

    /// Number of requests issued for `class`.
    pub fn requests(&self, class: TrafficClass) -> u64 {
        self.requests[class.index()]
    }

    /// Total bytes transferred across all classes (reads + writes).
    pub fn total_fetched(&self) -> u64 {
        self.fetched.iter().sum()
    }

    /// `useful / fetched` for one class; `None` if nothing was fetched.
    pub fn utilization(&self, class: TrafficClass) -> Option<f64> {
        let f = self.fetched_bytes(class);
        if f == 0 {
            None
        } else {
            Some(self.useful_bytes(class) as f64 / f as f64)
        }
    }

    /// Accounts `requests` already-completed transfers of `class` moving
    /// `fetched` bytes over the channel, of which `useful` were asked for.
    /// This is the bulk form the serving layer's result store uses to
    /// reconstruct a report's traffic accounting from its serialized
    /// counters; the channel model itself records through [`Dram`].
    pub fn record_bulk(&mut self, class: TrafficClass, useful: u64, fetched: u64, requests: u64) {
        self.record_n(class, useful, fetched, requests);
    }

    /// Merges another stats block into this one (used by multi-phase runs).
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..7 {
            self.fetched[i] += other.fetched[i];
            self.useful[i] += other.useful[i];
            self.requests[i] += other.requests[i];
        }
    }

    fn record(&mut self, class: TrafficClass, useful: u64, fetched: u64) {
        self.record_n(class, useful, fetched, 1);
    }

    fn record_n(&mut self, class: TrafficClass, useful: u64, fetched: u64, requests: u64) {
        let i = class.index();
        self.useful[i] += useful;
        self.fetched[i] += fetched;
        self.requests[i] += requests;
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traffic (class: useful/fetched bytes):")?;
        for class in TrafficClass::ALL {
            if self.fetched_bytes(class) > 0 {
                writeln!(
                    f,
                    "  {:<12} {} / {} ({:.1}%)",
                    class.label(),
                    self.useful_bytes(class),
                    self.fetched_bytes(class),
                    100.0 * self.utilization(class).unwrap_or(0.0)
                )?;
            }
        }
        Ok(())
    }
}

/// A FIFO off-chip memory channel.
///
/// Requests occupy the channel back-to-back in issue order (bandwidth
/// model) and reads complete [`DRAM_LATENCY_CYCLES`] after their transfer
/// finishes.
/// This transaction-level model is what makes multi-million-edge graphs
/// simulable in seconds while preserving the bandwidth/latency behavior
/// the paper's figures measure.
#[derive(Debug, Clone)]
pub struct Dram {
    /// Sustained channel bandwidth in bytes per accelerator cycle.
    bytes_per_cycle: f64,
    /// Time at which the channel finishes its last accepted transfer.
    channel_free: f64,
    stats: TrafficStats,
    /// 1-based count of transfer issues, consulted by the `dram` fault
    /// injection site. Per-instance (each cluster simulation owns its own
    /// channel), so serial and parallel legs inject at the same transfer.
    fault_ops: u64,
}

impl Dram {
    /// Creates an idle channel of `bytes_per_cycle` bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        Dram {
            bytes_per_cycle,
            channel_free: 0.0,
            stats: TrafficStats::new(),
            fault_ops: 0,
        }
    }

    /// Issues a random-access read of `useful_bytes`; the transfer is
    /// rounded up to the access granularity. Returns the completion cycle.
    pub fn read(&mut self, now: Cycle, useful_bytes: u64, class: TrafficClass) -> Cycle {
        self.transfer_random(now, useful_bytes, round_to_lines(useful_bytes), class, true)
    }

    /// Issues a streaming read of `useful_bytes` that continues a
    /// contiguous burst (CSR streams): no per-request granularity rounding.
    /// The caller should account one final [`Dram::round_burst`] per burst.
    pub fn read_stream(&mut self, now: Cycle, useful_bytes: u64, class: TrafficClass) -> Cycle {
        self.transfer(now, useful_bytes, useful_bytes, class, true, 0)
    }

    /// Issues a random-access read of `useful_bytes` of payload plus
    /// `overhead_bytes` of format metadata (e.g. per-tile CSC column
    /// pointers). The whole transfer is granularity-rounded; only the
    /// payload counts as useful — this is how Figure 6's "effective
    /// memory bandwidth utilization" treats compression metadata.
    pub fn read_with_overhead(
        &mut self,
        now: Cycle,
        useful_bytes: u64,
        overhead_bytes: u64,
        class: TrafficClass,
    ) -> Cycle {
        let fetched = round_to_lines(useful_bytes + overhead_bytes);
        self.transfer_random(now, useful_bytes, fetched, class, true)
    }

    /// Issues `count` back-to-back random-access reads of `useful_each`
    /// bytes in one call (bulk preloads / uncached row streams). Returns
    /// the completion cycle of the *last* read.
    pub fn read_many(
        &mut self,
        now: Cycle,
        count: u64,
        useful_each: u64,
        class: TrafficClass,
    ) -> Cycle {
        if count == 0 {
            return now;
        }
        self.fault_ops += 1;
        fault::trip_at(FaultSite::DramIssue, self.fault_ops);
        let fetched_each = round_to_lines(useful_each);
        self.stats
            .record_n(class, useful_each * count, fetched_each * count, count);
        let start = self.channel_free.max(now as f64);
        let end = start
            + (fetched_each * count) as f64 / self.bytes_per_cycle
            + (DRAM_REQUEST_OVERHEAD_CYCLES * count) as f64;
        self.channel_free = end;
        (end + DRAM_LATENCY_CYCLES as f64).ceil() as Cycle
    }

    /// Charges the granularity rounding at the end of a streaming burst of
    /// `burst_useful_bytes` total (at most one extra line).
    pub fn round_burst(&mut self, burst_useful_bytes: u64, class: TrafficClass) {
        let slack = round_to_lines(burst_useful_bytes) - burst_useful_bytes;
        if slack > 0 {
            self.stats.record(class, 0, slack);
            self.channel_free += slack as f64 / self.bytes_per_cycle;
        }
    }

    /// Issues a (posted) write; returns the cycle at which the channel has
    /// accepted the data. Writes are granularity-rounded like reads.
    pub fn write(&mut self, now: Cycle, useful_bytes: u64, class: TrafficClass) -> Cycle {
        self.transfer(
            now,
            useful_bytes,
            round_to_lines(useful_bytes),
            class,
            false,
            0,
        )
    }

    fn transfer_random(
        &mut self,
        now: Cycle,
        useful: u64,
        fetched: u64,
        class: TrafficClass,
        is_read: bool,
    ) -> Cycle {
        self.transfer(
            now,
            useful,
            fetched,
            class,
            is_read,
            DRAM_REQUEST_OVERHEAD_CYCLES,
        )
    }

    fn transfer(
        &mut self,
        now: Cycle,
        useful: u64,
        fetched: u64,
        class: TrafficClass,
        is_read: bool,
        overhead: Cycle,
    ) -> Cycle {
        self.fault_ops += 1;
        fault::trip_at(FaultSite::DramIssue, self.fault_ops);
        self.stats.record(class, useful, fetched);
        let start = self.channel_free.max(now as f64);
        let end = start + fetched as f64 / self.bytes_per_cycle + overhead as f64;
        self.channel_free = end;
        let completion = if is_read {
            end + DRAM_LATENCY_CYCLES as f64
        } else {
            end
        };
        completion.ceil() as Cycle
    }

    /// First cycle at which the channel is idle again.
    pub fn busy_until(&self) -> Cycle {
        self.channel_free.ceil() as Cycle
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_default_is_the_uniform_pipe() {
        let t = MemTopology::default();
        assert!(t.is_uniform());
        assert_eq!(t, MemTopology::new(1, 1));
        assert!(!MemTopology::new(2, 1).is_uniform());
        assert!(!MemTopology::new(1, 8).is_uniform());
    }

    #[test]
    fn home_channel_interleaves() {
        let t = MemTopology::new(4, 8);
        assert_eq!(t.home_channel(0), 0);
        assert_eq!(t.home_channel(5), 1);
        assert_eq!(t.home_channel(7), 3);
    }

    #[test]
    fn conflict_penalty_amortizes_over_banks() {
        let t8 = MemTopology::new(4, 8);
        let t16 = MemTopology::new(4, 16);
        assert_eq!(t8.conflict_penalty_per_byte(0), 0.0, "alone: free");
        let p8 = t8.conflict_penalty_per_byte(3);
        let p16 = t16.conflict_penalty_per_byte(3);
        // 12-cycle request overhead per 64-byte line.
        assert!((p8 - 12.0 * 3.0 / 8.0 / 64.0).abs() < 1e-12, "{p8}");
        assert!((p8 / p16 - 2.0).abs() < 1e-12, "doubling banks halves it");
        // More co-residents, more stall.
        assert!(t8.conflict_penalty_per_byte(5) > p8);
        // The uniform pipe charges nothing, however crowded.
        let uniform = MemTopology::default();
        for co_residents in [0, 1, 3, 15] {
            assert_eq!(uniform.conflict_penalty_per_byte(co_residents), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_is_rejected() {
        let _ = MemTopology::new(0, 8);
    }

    #[test]
    fn read_rounds_to_granularity() {
        let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
        d.read(0, 1, TrafficClass::RhsRows);
        assert_eq!(d.stats().fetched_bytes(TrafficClass::RhsRows), 64);
        assert_eq!(d.stats().useful_bytes(TrafficClass::RhsRows), 1);
        let util = d.stats().utilization(TrafficClass::RhsRows).unwrap();
        assert!((util - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_serializes_transfers() {
        // 128 B/cycle: a 128-byte read occupies the channel for 1 cycle
        // plus the request overhead, and completes a latency later.
        let mut d = Dram::new(128.0);
        let c1 = d.read(0, 128, TrafficClass::RhsRows);
        let c2 = d.read(0, 128, TrafficClass::RhsRows);
        let occupancy = 1 + DRAM_REQUEST_OVERHEAD_CYCLES;
        assert_eq!(c1, occupancy + DRAM_LATENCY_CYCLES);
        assert_eq!(c2, c1 + occupancy, "second read queues behind the first");
    }

    #[test]
    fn idle_channel_starts_at_now() {
        let mut d = Dram::new(64.0);
        let c = d.read(100, 64, TrafficClass::LhsSparse);
        assert_eq!(
            c,
            100 + 1 + DRAM_REQUEST_OVERHEAD_CYCLES + DRAM_LATENCY_CYCLES
        );
    }

    #[test]
    fn stream_reads_do_not_round() {
        let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
        d.read_stream(0, 12, TrafficClass::LhsSparse);
        d.read_stream(0, 12, TrafficClass::LhsSparse);
        assert_eq!(d.stats().fetched_bytes(TrafficClass::LhsSparse), 24);
        d.round_burst(24, TrafficClass::LhsSparse);
        // 24 -> rounded to 64: 40 slack bytes charged.
        assert_eq!(d.stats().fetched_bytes(TrafficClass::LhsSparse), 64);
        assert_eq!(d.stats().useful_bytes(TrafficClass::LhsSparse), 24);
    }

    #[test]
    fn writes_do_not_pay_latency() {
        // Nor the request overhead: a posted write is accepted once its
        // line has crossed the channel.
        let mut d = Dram::new(64.0);
        let c = d.write(0, 64, TrafficClass::Output);
        assert_eq!(c, 1);
    }

    #[test]
    fn bandwidth_sweep_scales_transfer_time() {
        for (bw, transfer) in [(16.0, 4), (64.0, 1)] {
            let mut d = Dram::new(bw);
            let c = d.read(0, 64, TrafficClass::RhsRows);
            let expect = transfer + DRAM_REQUEST_OVERHEAD_CYCLES + DRAM_LATENCY_CYCLES;
            assert_eq!(c, expect, "bw {bw}");
        }
    }

    #[test]
    fn read_with_overhead_counts_metadata_as_waste() {
        // A 12-byte payload + 258 bytes of CSC colptr metadata: the whole
        // 270 bytes round to 320 fetched, but only 12 are useful — the
        // Figure 6 accounting for near-empty GCNAX tiles.
        let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
        d.read_with_overhead(0, 12, 258, TrafficClass::LhsSparse);
        assert_eq!(d.stats().fetched_bytes(TrafficClass::LhsSparse), 320);
        assert_eq!(d.stats().useful_bytes(TrafficClass::LhsSparse), 12);
        let util = d.stats().utilization(TrafficClass::LhsSparse).unwrap();
        assert!(util < 0.05, "utilization {util}");
    }

    #[test]
    fn read_many_matches_loop_of_reads() {
        let mut bulk = Dram::new(64.0);
        let done_bulk = bulk.read_many(0, 5, 100, TrafficClass::RhsPreload);
        let mut looped = Dram::new(64.0);
        let mut done_loop = 0;
        for _ in 0..5 {
            done_loop = looped.read(0, 100, TrafficClass::RhsPreload);
        }
        assert_eq!(done_bulk, done_loop);
        assert_eq!(bulk.stats(), looped.stats());
    }

    #[test]
    fn read_many_zero_count_is_noop() {
        let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
        assert_eq!(d.read_many(42, 0, 100, TrafficClass::Weights), 42);
        assert_eq!(d.stats().total_fetched(), 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Output, 10, 64);
        let mut b = TrafficStats::new();
        b.record(TrafficClass::Output, 5, 64);
        a.merge(&b);
        assert_eq!(a.useful_bytes(TrafficClass::Output), 15);
        assert_eq!(a.fetched_bytes(TrafficClass::Output), 128);
        assert_eq!(a.requests(TrafficClass::Output), 2);
    }

    #[test]
    fn display_lists_active_classes() {
        let mut d = Dram::new(DRAM_BYTES_PER_CYCLE);
        d.read(0, 64, TrafficClass::Weights);
        let text = format!("{}", d.stats());
        assert!(text.contains("weights"));
        assert!(!text.contains("partial-sums"));
    }
}
