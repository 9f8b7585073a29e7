//! Benchmark-harness support: plain-text table rendering, CSV emission,
//! the shared experiment context used by the `experiments` binary, and
//! the timing helper of the `parallel_speedup` bench.
//!
//! The context holds the invocation's one [`BatchService`]: every engine
//! experiment is a job list run on it, and the characterization figures
//! read each workload and its prepared forms from its session pool, so a
//! dataset is generated and partitioned once per invocation and a report
//! that several figures share is simulated once.
//!
//! Results are written both to stdout (aligned tables mirroring the
//! paper's figures) and to `results/<experiment>.csv` for archival; no
//! external serialization crates are needed for either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use grow_model::{DatasetKey, DatasetSpec};
use grow_serve::BatchService;

/// A simple aligned table with CSV export.
///
/// ```
/// use grow_bench::Table;
///
/// let mut t = Table::new("demo", &["dataset", "speedup"]);
/// t.row(&["cora".into(), "2.31".into()]);
/// assert!(t.render().contains("cora"));
/// assert_eq!(t.to_csv(), "dataset,speedup\ncora,2.31\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given column headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The table name (used for the CSV file name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Serializes as CSV (header line + rows; cells containing commas are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV into `dir/<name>.csv` (directory created if needed).
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())
    }

    /// Serializes as JSON: an object with the table name and one object per
    /// row, keyed by column header. All cells stay strings — they are
    /// already formatted for presentation; downstream tooling parses the
    /// ones it needs.
    ///
    /// ```
    /// use grow_bench::Table;
    ///
    /// let mut t = Table::new("demo", &["dataset", "speedup"]);
    /// t.row(&["cora".into(), "2.31".into()]);
    /// assert_eq!(
    ///     t.to_json(),
    ///     "{\"name\":\"demo\",\"rows\":[{\"dataset\":\"cora\",\"speedup\":\"2.31\"}]}"
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<(&str, String)> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| (h.as_str(), json::string(c)))
                    .collect();
                json::object(&fields)
            })
            .collect();
        json::object(&[
            ("name", json::string(&self.name)),
            ("rows", json::array(rows)),
        ])
    }

    /// Writes the JSON into `dir/<name>.json` (directory created if needed).
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.json", self.name)), self.to_json())
    }
}

/// Minimal JSON construction (no external serialization crates in the
/// offline build). Values are pre-rendered strings produced by the helpers
/// here, composed into objects and arrays.
pub mod json {
    /// Escapes and quotes a string value.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders an unsigned integer exactly (no f64 round-trip — u64 values
    /// above 2^53 would lose precision through [`number`]).
    pub fn uint(v: u64) -> String {
        v.to_string()
    }

    /// Renders a boolean.
    pub fn boolean(v: bool) -> String {
        if v { "true" } else { "false" }.to_string()
    }

    /// Renders a finite number (JSON has no NaN/inf; those become `null`).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            // Integral values print without a trailing ".0" noise.
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        } else {
            "null".to_string()
        }
    }

    /// Composes pre-rendered values into an object.
    pub fn object(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Composes pre-rendered values into an array.
    pub fn array(items: Vec<String>) -> String {
        format!("[{}]", items.join(","))
    }
}

/// Numeric cell helpers used across experiment printers.
pub mod cell {
    /// Formats a ratio with two decimals (`"2.83"`).
    pub fn ratio(v: f64) -> String {
        format!("{v:.2}")
    }

    /// Formats a fraction as a percentage (`"79.1%"`).
    pub fn percent(v: f64) -> String {
        format!("{:.1}%", 100.0 * v)
    }

    /// Formats a byte count in mebibytes.
    pub fn mib(bytes: u64) -> String {
        format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
    }

    /// Formats a large count with engineering notation.
    pub fn count(v: u64) -> String {
        if v >= 1_000_000_000 {
            format!("{:.2}G", v as f64 / 1e9)
        } else if v >= 1_000_000 {
            format!("{:.2}M", v as f64 / 1e6)
        } else if v >= 10_000 {
            format!("{:.1}K", v as f64 / 1e3)
        } else {
            v.to_string()
        }
    }
}

/// Wall-clock measurement for the offline (no-Criterion) bench.
pub mod timing {
    use std::time::Instant;

    /// One benchmark entry's measurements, in nanoseconds per iteration.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Timing {
        /// Iterations measured (after the warm-up run).
        pub iters: u32,
        /// Mean time per iteration.
        pub mean_ns: f64,
        /// Fastest single iteration.
        pub min_ns: f64,
    }

    /// Runs `f` once to warm up, then `iters` timed times.
    pub fn sample(iters: u32, mut f: impl FnMut()) -> Timing {
        f(); // warm-up: keep the cold first run out of the measurements
        let mut min_ns = f64::INFINITY;
        let mut total_ns = 0.0;
        for _ in 0..iters.max(1) {
            let t0 = Instant::now();
            f();
            let ns = t0.elapsed().as_nanos() as f64;
            min_ns = min_ns.min(ns);
            total_ns += ns;
        }
        Timing {
            iters: iters.max(1),
            mean_ns: total_ns / iters.max(1) as f64,
            min_ns,
        }
    }
}

/// The shared experiment context: dataset selection, seed, scaling, the
/// banked topology of the end-to-end experiments, and the invocation's
/// one [`BatchService`], whose session pool and report cache every
/// experiment shares.
pub struct Context {
    /// Selected datasets.
    pub keys: Vec<DatasetKey>,
    /// Generation seed.
    pub seed: u64,
    /// Optional node-count override (CI-scale smoke runs).
    pub max_nodes: Option<usize>,
    /// Use the paper's unscaled node counts.
    pub full_scale: bool,
    /// Banked-memory channel count for the e2e experiments (`channels=`
    /// override; 1 = the uniform fluid pipe).
    pub channels: usize,
    /// Per-channel bank count for the e2e experiments (`banks=`
    /// override).
    pub banks: usize,
    /// The service every engine experiment runs its job list on: one
    /// pooled session per dataset, one cached report per job key.
    pub service: BatchService,
}

impl Context {
    /// Creates a context over the given datasets.
    pub fn new(keys: Vec<DatasetKey>, seed: u64) -> Self {
        Context {
            keys,
            seed,
            max_nodes: None,
            full_scale: false,
            channels: 1,
            banks: 1,
            service: BatchService::new(),
        }
    }

    /// The scaled [`DatasetSpec`] for dataset `i`: the recipe every job
    /// on the dataset carries.
    pub fn spec(&self, i: usize) -> DatasetSpec {
        let mut spec = self.keys[i].spec();
        if self.full_scale {
            spec = spec.paper_scale();
        }
        if let Some(cap) = self.max_nodes {
            if spec.nodes > cap {
                spec = spec.scaled_to(cap);
            }
        }
        spec
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no datasets were selected.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("x", &["a", "longer"]);
        t.row(&["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("== x =="));
        assert!(text.contains("longer"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["v,w".into()]);
        assert!(t.to_csv().contains("\"v,w\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn cells_format() {
        assert_eq!(cell::ratio(2.834), "2.83");
        assert_eq!(cell::percent(0.791), "79.1%");
        assert_eq!(cell::count(1234), "1234");
        assert_eq!(cell::count(2_500_000), "2.50M");
    }

    #[test]
    fn context_lazily_instantiates() {
        let mut ctx = Context::new(vec![DatasetKey::Cora], 1);
        ctx.max_nodes = Some(200);
        assert_eq!(ctx.service.pooled_sessions(), 0);
        let job = grow_serve::JobSpec::new(ctx.spec(0), ctx.seed, "grow");
        assert!(ctx.service.session(&job).workload().graph.nodes() <= 200);
        assert_eq!(ctx.service.stats().sessions_created, 1);
    }
}
