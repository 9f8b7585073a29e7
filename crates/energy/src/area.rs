use std::fmt;

use crate::HDN_CACHE_KB;

/// Quadratic technology-scaling factor from 65 nm to 40 nm: `(40/65)^2`.
///
/// The paper measures GROW at 65 nm and reports estimated 40 nm numbers
/// for comparison with GCNAX (Table IV): "we scale our area estimations
/// from our 65 nm results".
pub const TECH_SCALE_65_TO_40: f64 = (40.0 / 65.0) * (40.0 / 65.0);

/// The measured 65 nm component areas of Table IV, in mm², at Table III's
/// sizes: [`MAC_LANES`](crate::MAC_LANES) MACs, an
/// [`IBUF_SPARSE_KB`](crate::IBUF_SPARSE_KB) KB I-BUF_sparse, an
/// [`HDN_ID_ENTRIES`](crate::HDN_ID_ENTRIES)-entry HDN ID list, an
/// [`HDN_CACHE_KB`] KB HDN cache, an [`OBUF_KB`](crate::OBUF_KB) KB
/// O-BUF_dense, and other logic.
pub const GROW_AREA_65NM: [(&str, f64); 6] = [
    ("MAC array", 0.613),
    ("I-BUF_sparse", 0.319),
    ("HDN ID list", 1.112),
    ("HDN cache", 3.569),
    ("O-BUF_dense", 0.113),
    ("Others", 0.059),
];

/// GCNAX's reported total area at 40 nm, mm² (Table IV).
pub const GCNAX_AREA_40NM: f64 = 6.51;

/// A per-component area estimate, in mm².
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// `(component name, area in mm²)` pairs.
    pub components: Vec<(&'static str, f64)>,
}

impl AreaBreakdown {
    /// Total area in mm².
    pub fn total(&self) -> f64 {
        self.components.iter().map(|&(_, a)| a).sum()
    }

    /// Scales every component by `factor` (e.g. [`TECH_SCALE_65_TO_40`]).
    pub fn scaled(&self, factor: f64) -> AreaBreakdown {
        AreaBreakdown {
            components: self
                .components
                .iter()
                .map(|&(n, a)| (n, a * factor))
                .collect(),
        }
    }

    /// Area of a named component, if present.
    pub fn component(&self, name: &str) -> Option<f64> {
        self.components
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, a)| a)
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, area) in &self.components {
            writeln!(f, "  {name:<14} {area:8.3} mm2")?;
        }
        writeln!(f, "  {:<14} {:8.3} mm2", "Total", self.total())
    }
}

/// Area of a GROW PE at 65 nm with an `hdn_cache_kb` HDN cache.
///
/// Every other component has its Table III size, so its area is Table IV's
/// measurement. The HDN cache scales with its capacity at the density
/// Table IV measures for the 512 KB cache (3.569 mm², ~6.97 mm²/MB of banked
/// single-ported SRAM).
///
/// ```
/// let half = grow_energy::grow_65nm(256.0);
/// let full = grow_energy::grow_default_65nm();
/// assert!(half.total() < full.total());
/// ```
pub fn grow_65nm(hdn_cache_kb: f64) -> AreaBreakdown {
    let components = GROW_AREA_65NM
        .iter()
        .map(|&(name, mm2)| match name {
            "HDN cache" => (name, mm2 / HDN_CACHE_KB as f64 * hdn_cache_kb),
            _ => (name, mm2),
        })
        .collect();
    AreaBreakdown { components }
}

/// The Table III PE at 65 nm: reproduces the measured column of Table IV.
pub fn grow_default_65nm() -> AreaBreakdown {
    grow_65nm(HDN_CACHE_KB as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reproduces_table4_measured_column() {
        let area = grow_default_65nm();
        for (name, expected) in GROW_AREA_65NM {
            let got = area.component(name).expect("component present");
            assert!(
                (got - expected).abs() < 1e-9,
                "{name}: got {got}, Table IV says {expected}"
            );
        }
        assert!(
            (area.total() - 5.785).abs() < 1e-9,
            "total {}",
            area.total()
        );
    }

    #[test]
    fn scaling_reproduces_table4_estimated_column() {
        let area = grow_default_65nm().scaled(TECH_SCALE_65_TO_40);
        // Table IV estimated 40 nm numbers (rounded to 3 decimals in print).
        assert!((area.component("MAC array").unwrap() - 0.232).abs() < 2e-3);
        assert!((area.component("HDN cache").unwrap() - 1.352).abs() < 2e-3);
        assert!(
            (area.total() - 2.191).abs() < 1e-2,
            "total {}",
            area.total()
        );
    }

    #[test]
    fn grow_beats_gcnax_area_at_40nm() {
        let grow = grow_default_65nm().scaled(TECH_SCALE_65_TO_40);
        assert!(grow.total() < GCNAX_AREA_40NM);
    }

    #[test]
    fn sram_dominates_area() {
        // Section VII-E: "the majority of area is used by the on-chip SRAM
        // buffers (88%)".
        let area = grow_default_65nm();
        let sram: f64 = ["I-BUF_sparse", "HDN ID list", "HDN cache", "O-BUF_dense"]
            .iter()
            .map(|n| area.component(n).unwrap())
            .sum();
        let frac = sram / area.total();
        assert!((0.85..0.92).contains(&frac), "SRAM fraction {frac}");
    }

    #[test]
    fn comparator_array_overhead_band() {
        // Section VIII: a vector comparator array for SAGEConv pooling adds
        // ~1.4% area. A comparator lane is far smaller than a MAC lane;
        // sanity-check that a 16-lane comparator sized at ~13% of the MAC
        // array lands in that band.
        let base = grow_default_65nm().total();
        let comparator = 0.613 * 0.13;
        let overhead = comparator / base;
        assert!((0.010..0.020).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn custom_config_scales_linearly() {
        let half = grow_65nm(256.0);
        let full = grow_default_65nm();
        let cache = |a: &AreaBreakdown| a.component("HDN cache").unwrap();
        assert!((cache(&half) * 2.0 - cache(&full)).abs() < 1e-9);
        assert!(half.total() < full.total());
    }
}
