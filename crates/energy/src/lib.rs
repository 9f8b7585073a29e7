//! Energy and area models for the GROW reproduction.
//!
//! The paper's methodology (Section VI):
//!
//! * **Energy** — "the energy model from \[15\]" (Horowitz, ISSCC 2014) for
//!   arithmetic and DRAM accesses, and CACTI \[16\] at 45 nm for on-chip
//!   SRAM dynamic energy and leakage. Synopsys/CACTI are not runnable
//!   offline, so [`estimate`] applies the published per-operation constants
//!   and a CACTI-style capacity fit (each documented where it is defined);
//!   Figure 22's breakdown categories (MAC / register file / SRAM / DRAM
//!   dynamic / leakage static) map 1:1 onto [`EnergyBreakdown`].
//! * **Area** — the paper reports RTL synthesis results in Table IV
//!   (65 nm measured, 40 nm estimated via quadratic technology scaling).
//!   [`grow_default_65nm`] reproduces that table, and [`grow_65nm`] sizes
//!   the one component the evaluation varies, the HDN cache.
//!
//! Table III's fixed PE sizes live here, once: [`MAC_LANES`],
//! [`IBUF_SPARSE_KB`], [`HDN_ID_ENTRIES`] and [`OBUF_KB`], plus the default
//! [`HDN_CACHE_KB`]. Table IV measures area at exactly these sizes, and the
//! engine models in `grow-core` reuse them.
//!
//! # Example
//!
//! ```
//! use grow_energy::ActivityCounts;
//!
//! let counts = ActivityCounts {
//!     mac_ops: 1_000_000,
//!     rf_accesses: 3_000_000,
//!     sram_reads_8b: 2_000_000,
//!     sram_writes_8b: 500_000,
//!     dram_bytes: 64_000_000,
//!     cycles: 1_000_000,
//!     sram_kb: 538.0,
//!     ..ActivityCounts::default()
//! };
//! let e = grow_energy::estimate(&counts);
//! assert!(e.dram > e.mac, "SpDeGEMM is memory-dominated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod energy;

pub use area::{
    grow_65nm, grow_default_65nm, AreaBreakdown, GCNAX_AREA_40NM, GROW_AREA_65NM,
    TECH_SCALE_65_TO_40,
};
pub use energy::{estimate, ActivityCounts, EnergyBreakdown};

/// MAC lanes of a PE's vector unit (Table III: 16 MACs, 64-bit). Section VI
/// compares GROW, GCNAX, MatRaptor and GAMMA at iso-throughput, so every
/// engine has this many lanes.
pub const MAC_LANES: usize = 16;

/// GROW's I-BUF_sparse capacity in KB (Table III).
pub const IBUF_SPARSE_KB: u64 = 12;

/// GROW's HDN ID list entries (Table III: 12 KB at 3 B per ID): the
/// longest prefix of a cluster's HDN list the prologue pins.
pub const HDN_ID_ENTRIES: usize = 4096;

/// GROW's O-BUF_dense capacity in KB (Table III).
pub const OBUF_KB: u64 = 2;

/// GROW's default HDN cache capacity in KB (Table III), the one PE size
/// the `hdn_cache_kb` override varies.
pub const HDN_CACHE_KB: u64 = 512;
