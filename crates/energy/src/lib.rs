//! Energy and area models for the GROW reproduction.
//!
//! The paper's methodology (Section VI):
//!
//! * **Energy** — "the energy model from \[15\]" (Horowitz, ISSCC 2014) for
//!   arithmetic and DRAM accesses, and CACTI \[16\] at 45 nm for on-chip
//!   SRAM dynamic energy and leakage. Synopsys/CACTI are not runnable
//!   offline, so [`EnergyModel`] encodes the published per-operation
//!   constants and a CACTI-style capacity fit (documented on each field);
//!   Figure 22's breakdown categories (MAC / register file / SRAM / DRAM
//!   dynamic / leakage static) map 1:1 onto [`EnergyBreakdown`].
//! * **Area** — the paper reports RTL synthesis results in Table IV
//!   (65 nm measured, 40 nm estimated via quadratic technology scaling).
//!   [`AreaModel`] reproduces that table and derives per-unit densities so
//!   non-default configurations (e.g. the comparator array of the
//!   Section VIII discussion) can be sized too.
//!
//! # Example
//!
//! ```
//! use grow_energy::{ActivityCounts, EnergyModel};
//!
//! let model = EnergyModel::default();
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
//! let e = model.estimate(&counts);
//! assert!(e.dram > e.mac, "SpDeGEMM is memory-dominated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod energy;

pub use area::{AreaBreakdown, AreaModel, GCNAX_AREA_40NM, GROW_AREA_65NM, TECH_SCALE_65_TO_40};
pub use energy::{ActivityCounts, EnergyBreakdown, EnergyModel};
