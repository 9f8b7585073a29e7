//! Cycle-level simulation substrate shared by the GROW engine and all
//! baseline accelerator models (GCNAX, MatRaptor, GAMMA).
//!
//! The paper evaluates every design with a C++ cycle-level simulator
//! (Section VI). This crate is the Rust equivalent of that simulator's
//! common infrastructure:
//!
//! * [`Dram`] — a FIFO off-chip memory channel with configurable bandwidth
//!   and Table III's fixed timing ([`DRAM_LATENCY_CYCLES`],
//!   [`DRAM_ACCESS_GRANULARITY`], [`DRAM_REQUEST_OVERHEAD_CYCLES`]); it
//!   accounts *useful* vs *fetched* bytes per [`TrafficClass`], which is
//!   exactly the "effective memory bandwidth utilization" metric of
//!   Figure 6 and the traffic totals of Figures 18/19;
//! * [`MacArray`] — the 16-lane 64-bit MAC vector unit of Table III;
//! * [`PinnedRowCache`] — GROW's HDN cache (a scratchpad pinning the
//!   per-cluster top-N high-degree nodes, Section V-C);
//! * [`LruRowCache`] — a demand-filled LRU row cache, used by the GAMMA
//!   baseline's fiber cache and by the pinned-vs-LRU replacement ablation
//!   of Section VIII;
//! * [`RunaheadTables`] — the LDN table + LHS-ID table (MSHR-like)
//!   microarchitecture enabling multi-row-stationary runahead execution
//!   (Section V-D, Figures 15/16);
//! * [`exec`] — the deterministic parallel execution harness the engines
//!   use to fan independent per-cluster simulations across threads;
//! * [`fault`] — deterministic, count-based fault injection and
//!   cooperative cancellation threaded through the hot layers, so the
//!   serving stack's failure paths are testable without real crashes;
//! * [`scratch`] — checkout/return pools ([`ScratchArena`]) that let those
//!   workers recycle per-cluster state (caches, tables, plan buffers)
//!   instead of reallocating it for every cluster.
//!
//! # Example
//!
//! ```
//! use grow_sim::{Dram, TrafficClass, DRAM_BYTES_PER_CYCLE, DRAM_LATENCY_CYCLES};
//!
//! let mut dram = Dram::new(DRAM_BYTES_PER_CYCLE);
//! // A 12-byte useful read still transfers one 64-byte line.
//! let done = dram.read(0, 12, TrafficClass::LhsSparse);
//! assert!(done >= DRAM_LATENCY_CYCLES);
//! let stats = dram.stats();
//! assert_eq!(stats.fetched_bytes(TrafficClass::LhsSparse), 64);
//! assert_eq!(stats.useful_bytes(TrafficClass::LhsSparse), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod compute;
mod dram;
mod runahead;

pub mod exec;
pub mod fault;
pub mod scratch;

/// SplitMix64: the seeded stream of the crate's differential tests.
#[cfg(test)]
struct Mix(u64);

#[cfg(test)]
impl Mix {
    /// The next draw, reduced to `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

pub use cache::{CacheStats, LruRowCache, PinnedRowCache};
pub use compute::MacArray;
pub use dram::{
    Dram, MemTopology, TrafficClass, TrafficStats, DRAM_ACCESS_GRANULARITY, DRAM_BYTES_PER_CYCLE,
    DRAM_LATENCY_CYCLES, DRAM_REQUEST_OVERHEAD_CYCLES,
};
pub use exec::{parallel_map, ExecMode};
pub use fault::{
    CancelReason, CancelToken, FaultAction, FaultPlan, FaultSite, FaultSpec, SimFault,
};
pub use runahead::{IssueOutcome, RunaheadTables, Waiter};
pub use scratch::{ScratchArena, ScratchGuard};

/// Simulation time, in accelerator clock cycles (1 GHz per Section VI).
pub type Cycle = u64;

/// Size of one matrix element in bytes (64-bit MACs per Table III).
pub const ELEMENT_BYTES: u64 = 8;

/// Size of one column/row index in bytes (32-bit indices; a 3-byte packed
/// variant is used only for the HDN ID list, per Section V-C).
pub const INDEX_BYTES: u64 = 4;

/// Bytes per HDN ID list entry (the paper stores 4096 IDs in 12 KB = 3 B/ID).
pub const HDN_ID_BYTES: u64 = 3;
