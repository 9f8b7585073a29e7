//! Engine registry: construct and run any accelerator model by name, with
//! configuration supplied as plain key-value overrides.
//!
//! This is the single entry point the bench harness, the examples, and
//! future serving layers drive engines through:
//!
//! ```
//! use grow_core::registry::{self, run_named};
//! use grow_core::{prepare, PartitionStrategy, HDN_ID_ENTRIES};
//! use grow_model::DatasetKey;
//!
//! let workload = DatasetKey::Cora.spec().scaled_to(300).instantiate(7);
//! let prepared = prepare(&workload, PartitionStrategy::None, HDN_ID_ENTRIES);
//! let report = run_named("grow", &prepared).unwrap();
//! assert_eq!(report.engine, "GROW");
//!
//! // Key-value overrides, e.g. straight from a CLI or a config file:
//! let engine = registry::engine_from_overrides(
//!     "grow",
//!     &[("hdn_cache_kb", "256"), ("runahead", "4")],
//! )
//! .unwrap();
//! assert!(engine.run(&prepared).total_cycles() > 0);
//! ```
//!
//! A key exists only where the evaluation varies a value (the README
//! tables the 30 engine/key pairs), and every typed config field has one;
//! what Table III fixes, such as the 16 MAC lanes
//! ([`MAC_LANES`](crate::pipeline::MAC_LANES)) or the DRAM timing
//! ([`grow_sim::DRAM_LATENCY_CYCLES`]), is a constant. A served job's
//! `fault=` plan is not an engine key: the job supervisor in `grow-serve`
//! parses it and arms it around the run.

use std::fmt;
use std::ops::RangeInclusive;

use crate::exec_model::{ExecModelKind, EXEC_MODEL_NAMES};
use crate::schedule::{MultiPeConfig, SchedulerKind, SCHEDULER_NAMES};
use crate::{
    Accelerator, GammaConfig, GammaEngine, GcnaxConfig, GcnaxEngine, GrowConfig, GrowEngine,
    MatRaptorConfig, MatRaptorEngine, PreparedWorkload, ReplacementPolicy, RunReport,
};

/// Canonical lower-case names of the registered engines, in the paper's
/// comparison order.
pub const ENGINE_NAMES: [&str; 4] = ["grow", "gcnax", "matraptor", "gamma"];

/// Largest value the `pes=` and `channels=` keys accept. The multi-PE
/// fluid loop and the scheduler dispatchers allocate per-PE and
/// per-channel state up front, so an unbounded count could abort the
/// whole process on one allocation; a larger value is an
/// [`RegistryError::InvalidValue`]. The largest count any test, golden
/// snapshot or experiment uses is 16.
pub const MAX_PES_OR_CHANNELS: usize = 1024;

/// Largest value the `*_kb` buffer keys (`hdn_cache_kb`,
/// `fiber_cache_kb`) accept: 2^40 KB (1 PiB). The byte count `kb * 1024`
/// then stays far inside `u64`, so neither it nor a sum of an engine's
/// buffer sizes can overflow; a larger value is an
/// [`RegistryError::InvalidValue`]. Table III's largest buffer is 512 KB.
pub const MAX_BUFFER_KB: u64 = 1 << 40;

/// Largest value the `tile_rows` key (GCNAX) accepts: 2^20. Strip bounds
/// are computed from it unchecked; a larger value is an
/// [`RegistryError::InvalidValue`]. The default tile is 128 x 128 and no
/// test, experiment or benchmark job uses more than 512.
pub const MAX_TILE_DIM: usize = 1 << 20;

/// Largest value the `merge_factor` key (MatRaptor only) accepts. The
/// factor scales merge cycles per output element, so it must also be
/// finite and non-negative; anything else is an
/// [`RegistryError::InvalidValue`]. MatRaptor's default is 1.0 (GAMMA's
/// merge factor is the constant 0.5) and no test, experiment or benchmark
/// job uses more than 2.
pub const MAX_MERGE_FACTOR: f64 = 1024.0;

/// Smallest value the `dram_gbps` key (GROW, GCNAX) accepts: 1 GB/s, one
/// byte per cycle at the 1 GHz clock. The channel divides every transfer
/// by the bandwidth, so at a tiny one (`1e-300`) the report's `u64` cycle
/// sums wrap; a smaller value, NaN or infinity is an
/// [`RegistryError::InvalidValue`]. Figure 25b's lowest point is 16 and no
/// test, experiment or benchmark job goes below 8.
pub const MIN_DRAM_GBPS: f64 = 1.0;

/// Errors from engine construction or dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The engine name is not one of [`ENGINE_NAMES`].
    UnknownEngine(String),
    /// The override key is not recognized by the named engine.
    UnknownKey {
        /// Engine that rejected the key.
        engine: &'static str,
        /// The offending key.
        key: String,
    },
    /// The override value did not parse for its key.
    InvalidValue {
        /// Key whose value failed to parse.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A textual override specification was not of the form `key=value`.
    MalformedOverride {
        /// The offending specification string.
        spec: String,
    },
    /// The `scheduler=` override named no registered scheduler (see
    /// [`SCHEDULER_NAMES`]).
    UnknownScheduler(String),
    /// The `exec=` override named no registered execution model (see
    /// [`EXEC_MODEL_NAMES`]).
    UnknownExecModel(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownEngine(name) => {
                write!(
                    f,
                    "unknown engine '{name}' (known: {})",
                    ENGINE_NAMES.join(", ")
                )
            }
            RegistryError::UnknownKey { engine, key } => {
                write!(f, "engine '{engine}' has no configuration key '{key}'")
            }
            RegistryError::InvalidValue { key, value } => {
                write!(f, "invalid value '{value}' for key '{key}'")
            }
            RegistryError::MalformedOverride { spec } => {
                write!(f, "malformed override '{spec}' (expected key=value)")
            }
            RegistryError::UnknownScheduler(name) => {
                write!(
                    f,
                    "unknown scheduler '{name}' (known: {})",
                    SCHEDULER_NAMES.join(", ")
                )
            }
            RegistryError::UnknownExecModel(name) => {
                write!(
                    f,
                    "unknown execution model '{name}' (known: {})",
                    EXEC_MODEL_NAMES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn invalid_value(key: &str, value: &str) -> RegistryError {
    RegistryError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    }
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, RegistryError> {
    value.parse().map_err(|_| invalid_value(key, value))
}

/// Parses a value that must lie in `range` (NaN lies in none). The
/// models divide by, allocate per, wait on or add up such values, so a
/// count of 0 or an unbounded size would panic, hang, abort or wrap
/// mid-run.
fn bounded<T>(key: &str, value: &str, range: RangeInclusive<T>) -> Result<T, RegistryError>
where
    T: std::str::FromStr + PartialOrd,
{
    let parsed = parse(key, value)?;
    if !range.contains(&parsed) {
        return Err(invalid_value(key, value));
    }
    Ok(parsed)
}

/// Parses a `*_kb` buffer size in `min_kb..=`[`MAX_BUFFER_KB`] into
/// bytes.
fn kb_bytes(key: &str, value: &str, min_kb: u64) -> Result<u64, RegistryError> {
    Ok(bounded(key, value, min_kb..=MAX_BUFFER_KB)? * 1024)
}

/// Applies the multi-PE keys shared by every engine (`pes=N`,
/// `scheduler=rr|lpt|ws|ca`, `exec=post_hoc|e2e`, and the banked-memory
/// topology `channels=N` / `banks=N`); returns `true` if `key` was one of
/// them. Counts must be positive, and `pes`/`channels` at most
/// [`MAX_PES_OR_CHANNELS`].
fn apply_schedule_key(
    cfg: &mut MultiPeConfig,
    key: &str,
    value: &str,
) -> Result<bool, RegistryError> {
    match key {
        "pes" => cfg.pes = bounded(key, value, 1..=MAX_PES_OR_CHANNELS)?,
        "channels" => cfg.topology.channels = bounded(key, value, 1..=MAX_PES_OR_CHANNELS)?,
        "banks" => cfg.topology.banks = bounded(key, value, 1..=usize::MAX)?,
        "scheduler" => {
            cfg.scheduler = SchedulerKind::parse(value)
                .ok_or_else(|| RegistryError::UnknownScheduler(value.to_string()))?;
        }
        "exec" => {
            cfg.exec = ExecModelKind::parse(value)
                .ok_or_else(|| RegistryError::UnknownExecModel(value.to_string()))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn grow_from(overrides: &[(&str, &str)]) -> Result<GrowEngine, RegistryError> {
    let mut cfg = GrowConfig::default();
    for &(key, value) in overrides {
        if apply_schedule_key(&mut cfg.multi_pe, key, value)? {
            continue;
        }
        match key {
            "dram_gbps" => {
                cfg.dram_bytes_per_cycle = bounded(key, value, MIN_DRAM_GBPS..=f64::MAX)?
            }
            "hdn_cache_kb" => cfg.hdn_cache_bytes = kb_bytes(key, value, 1)?,
            "runahead" => cfg.runahead = bounded(key, value, 1..=usize::MAX)?,
            "ldn_entries" => cfg.ldn_entries = bounded(key, value, 1..=usize::MAX)?,
            "hdn_caching" => cfg.hdn_caching = parse(key, value)?,
            "replacement" => {
                cfg.replacement = match value.to_ascii_lowercase().as_str() {
                    "pinned" => ReplacementPolicy::Pinned,
                    "lru" => ReplacementPolicy::Lru,
                    _ => return Err(invalid_value(key, value)),
                }
            }
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "grow",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GrowEngine::new(cfg))
}

fn gcnax_from(overrides: &[(&str, &str)]) -> Result<GcnaxEngine, RegistryError> {
    let mut cfg = GcnaxConfig::default();
    for &(key, value) in overrides {
        if apply_schedule_key(&mut cfg.multi_pe, key, value)? {
            continue;
        }
        match key {
            "dram_gbps" => {
                cfg.dram_bytes_per_cycle = bounded(key, value, MIN_DRAM_GBPS..=f64::MAX)?
            }
            "tile_rows" => cfg.tile_rows = bounded(key, value, 1..=MAX_TILE_DIM)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "gcnax",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GcnaxEngine::new(cfg))
}

fn matraptor_from(overrides: &[(&str, &str)]) -> Result<MatRaptorEngine, RegistryError> {
    let mut cfg = MatRaptorConfig::default();
    for &(key, value) in overrides {
        if apply_schedule_key(&mut cfg.multi_pe, key, value)? {
            continue;
        }
        match key {
            "merge_factor" => cfg.merge_factor = bounded(key, value, 0.0..=MAX_MERGE_FACTOR)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "matraptor",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(MatRaptorEngine::new(cfg))
}

fn gamma_from(overrides: &[(&str, &str)]) -> Result<GammaEngine, RegistryError> {
    let mut cfg = GammaConfig::default();
    for &(key, value) in overrides {
        if apply_schedule_key(&mut cfg.multi_pe, key, value)? {
            continue;
        }
        match key {
            "fiber_cache_kb" => cfg.fiber_cache_bytes = kb_bytes(key, value, 0)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "gamma",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GammaEngine::new(cfg))
}

/// Resolves `name` (case-insensitively) to its canonical [`ENGINE_NAMES`]
/// entry — the stable spelling job keys and caches should be built on.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn canonical_name(name: &str) -> Result<&'static str, RegistryError> {
    ENGINE_NAMES
        .iter()
        .copied()
        .find(|n| n.eq_ignore_ascii_case(name))
        .ok_or_else(|| RegistryError::UnknownEngine(name.to_string()))
}

/// Splits a textual `key=value` override into its parts, trimming
/// whitespace around both — the form CLI flags, config files, and
/// `grow_serve` job definitions carry overrides in.
///
/// # Errors
///
/// Returns [`RegistryError::MalformedOverride`] when `spec` has no `=`,
/// or an empty key or value.
pub fn parse_override(spec: &str) -> Result<(String, String), RegistryError> {
    match spec.split_once('=') {
        Some((key, value)) if !key.trim().is_empty() && !value.trim().is_empty() => {
            Ok((key.trim().to_string(), value.trim().to_string()))
        }
        _ => Err(RegistryError::MalformedOverride {
            spec: spec.to_string(),
        }),
    }
}

/// Parses a list of `key=value` specifications (see [`parse_override`]).
///
/// # Errors
///
/// Returns the first [`RegistryError::MalformedOverride`] encountered.
pub fn parse_overrides<S: AsRef<str>>(specs: &[S]) -> Result<Vec<(String, String)>, RegistryError> {
    specs.iter().map(|s| parse_override(s.as_ref())).collect()
}

/// Builds an engine by (case-insensitive) name with its default
/// configuration modified by `overrides`.
///
/// # Errors
///
/// Returns [`RegistryError`] for unknown names, unknown keys, or values
/// that fail to parse.
pub fn engine_from_overrides(
    name: &str,
    overrides: &[(&str, &str)],
) -> Result<Box<dyn Accelerator>, RegistryError> {
    match name.to_ascii_lowercase().as_str() {
        "grow" => Ok(Box::new(grow_from(overrides)?)),
        "gcnax" => Ok(Box::new(gcnax_from(overrides)?)),
        "matraptor" => Ok(Box::new(matraptor_from(overrides)?)),
        "gamma" => Ok(Box::new(gamma_from(overrides)?)),
        _ => Err(RegistryError::UnknownEngine(name.to_string())),
    }
}

/// Builds a default-configured engine by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn engine_by_name(name: &str) -> Result<Box<dyn Accelerator>, RegistryError> {
    engine_from_overrides(name, &[])
}

/// Runs the named engine (default configuration) on a prepared workload.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn run_named(name: &str, workload: &PreparedWorkload) -> Result<RunReport, RegistryError> {
    Ok(engine_by_name(name)?.run(workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, LayerReport, PartitionStrategy};
    use grow_model::DatasetKey;

    fn prepared() -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(400).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn all_names_resolve_and_run() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let report = run_named(name, &p).unwrap();
            assert!(report.total_cycles() > 0, "{name}");
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        assert_eq!(engine_by_name("GROW").unwrap().name(), "GROW");
        assert_eq!(engine_by_name("MatRaptor").unwrap().name(), "MatRaptor");
    }

    #[test]
    fn unknown_engine_is_reported() {
        let err = engine_by_name("tpu").err().expect("unknown engine");
        assert_eq!(err, RegistryError::UnknownEngine("tpu".into()));
        assert!(err.to_string().contains("grow"));
    }

    #[test]
    fn overrides_change_behavior() {
        let p = prepared();
        let slow = engine_from_overrides("grow", &[("dram_gbps", "8")])
            .unwrap()
            .run(&p);
        let fast = engine_from_overrides("grow", &[("dram_gbps", "256")])
            .unwrap()
            .run(&p);
        assert!(slow.total_cycles() > fast.total_cycles());
        assert_eq!(slow.mac_ops(), fast.mac_ops());
    }

    #[test]
    fn overrides_match_typed_config() {
        let p = prepared();
        let via_registry = engine_from_overrides(
            "grow",
            &[
                ("hdn_cache_kb", "64"),
                ("runahead", "4"),
                ("replacement", "lru"),
            ],
        )
        .unwrap()
        .run(&p);
        let typed = GrowEngine::new(GrowConfig {
            hdn_cache_bytes: 64 * 1024,
            runahead: 4,
            replacement: ReplacementPolicy::Lru,
            ..GrowConfig::default()
        })
        .run(&p);
        assert_eq!(via_registry, typed);
    }

    #[test]
    fn unknown_key_and_bad_value_are_reported() {
        assert_eq!(
            engine_from_overrides("gcnax", &[("runahead", "4")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownKey {
                engine: "gcnax",
                key: "runahead".into()
            }
        );
        assert_eq!(
            engine_from_overrides("grow", &[("runahead", "many")])
                .err()
                .expect("must fail"),
            RegistryError::InvalidValue {
                key: "runahead".into(),
                value: "many".into()
            }
        );
        assert_eq!(
            engine_from_overrides("grow", &[("replacement", "fifo")])
                .err()
                .expect("must fail"),
            RegistryError::InvalidValue {
                key: "replacement".into(),
                value: "fifo".into()
            }
        );
    }

    #[test]
    fn canonical_name_normalizes_case() {
        assert_eq!(canonical_name("GROW").unwrap(), "grow");
        assert_eq!(canonical_name("MatRaptor").unwrap(), "matraptor");
        assert_eq!(
            canonical_name("npu"),
            Err(RegistryError::UnknownEngine("npu".into()))
        );
    }

    #[test]
    fn parse_override_splits_and_trims() {
        assert_eq!(
            parse_override("runahead=4").unwrap(),
            ("runahead".into(), "4".into())
        );
        assert_eq!(
            parse_override(" hdn_cache_kb = 256 ").unwrap(),
            ("hdn_cache_kb".into(), "256".into())
        );
        // Values may themselves contain '=' (split at the first one).
        assert_eq!(parse_override("k=a=b").unwrap(), ("k".into(), "a=b".into()));
        for bad in ["runahead", "=4", "runahead=", " = ", ""] {
            assert_eq!(
                parse_override(bad),
                Err(RegistryError::MalformedOverride { spec: bad.into() }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_overrides_reports_first_malformed() {
        let specs = ["merge_factor=2".to_string(), "oops".to_string()];
        assert_eq!(
            parse_overrides(&specs),
            Err(RegistryError::MalformedOverride {
                spec: "oops".into()
            })
        );
        let good = ["a=1", "b=2"];
        assert_eq!(parse_overrides(&good).unwrap().len(), 2);
    }

    #[test]
    fn only_grow_and_gcnax_accept_dram_gbps() {
        for name in ENGINE_NAMES {
            let built = engine_from_overrides(name, &[("dram_gbps", "64")]);
            assert_eq!(built.is_ok(), ["grow", "gcnax"].contains(&name), "{name}");
        }
    }

    #[test]
    fn every_engine_accepts_shared_schedule_keys() {
        let p = prepared();
        for name in ENGINE_NAMES {
            for scheduler in crate::schedule::SCHEDULER_NAMES {
                let report = engine_from_overrides(name, &[("scheduler", scheduler), ("pes", "4")])
                    .unwrap_or_else(|e| panic!("{name}/{scheduler}: {e}"))
                    .run(&p);
                let summary = report.multi_pe.expect("summary attached");
                assert_eq!(summary.scheduler, scheduler);
                assert_eq!(summary.pes, 4);
                assert_eq!(summary.per_pe_busy.len(), 4);
            }
        }
    }

    #[test]
    fn scheduler_and_pes_overrides_are_validated() {
        assert_eq!(
            engine_from_overrides("grow", &[("scheduler", "bogus")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownScheduler("bogus".into())
        );
        let message = RegistryError::UnknownScheduler("bogus".into()).to_string();
        for name in crate::schedule::SCHEDULER_NAMES {
            assert!(message.contains(name), "{message}");
        }
        for bad_pes in ["0", "-3", "many"] {
            assert_eq!(
                engine_from_overrides("gamma", &[("pes", bad_pes)])
                    .err()
                    .expect("must fail"),
                RegistryError::InvalidValue {
                    key: "pes".into(),
                    value: bad_pes.into()
                },
                "{bad_pes}"
            );
        }
    }

    #[test]
    fn every_engine_accepts_banked_topology_keys() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let report = engine_from_overrides(
                name,
                &[
                    ("exec", "e2e"),
                    ("pes", "4"),
                    ("channels", "4"),
                    ("banks", "8"),
                ],
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run(&p);
            let per_pe = |l: &LayerReport| l.combination.pe.is_some() && l.aggregation.pe.is_some();
            assert!(report.multi_pe.is_some(), "{name}");
            assert!(report.layers.iter().all(per_pe), "{name}");
        }
    }

    #[test]
    fn banked_topology_overrides_are_validated() {
        for key in ["channels", "banks"] {
            for bad in ["0", "-3", "many"] {
                assert_eq!(
                    engine_from_overrides("grow", &[(key, bad)])
                        .err()
                        .expect("must fail"),
                    RegistryError::InvalidValue {
                        key: key.into(),
                        value: bad.into()
                    },
                    "{key}={bad}"
                );
            }
        }
    }

    #[test]
    fn scheduler_override_matches_typed_config() {
        let p = prepared();
        let via_registry = engine_from_overrides("grow", &[("scheduler", "ws"), ("pes", "8")])
            .unwrap()
            .run(&p);
        let typed = GrowEngine::new(GrowConfig {
            multi_pe: MultiPeConfig {
                pes: 8,
                scheduler: SchedulerKind::WorkStealing,
                ..MultiPeConfig::default()
            },
            ..GrowConfig::default()
        })
        .run(&p);
        assert_eq!(via_registry, typed);
    }

    #[test]
    fn exec_override_selects_the_execution_model() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let post_hoc = engine_from_overrides(name, &[("exec", "post_hoc")])
                .unwrap()
                .run(&p);
            assert_eq!(post_hoc.exec, "post_hoc");
            let e2e = engine_from_overrides(name, &[("exec", "e2e"), ("pes", "4")])
                .unwrap()
                .run(&p);
            assert_eq!(e2e.exec, "e2e", "{name}");
            let per_pe = |l: &LayerReport| l.combination.pe.is_some() && l.aggregation.pe.is_some();
            assert!(e2e.multi_pe.is_some(), "{name}");
            assert!(e2e.layers.iter().all(per_pe), "{name}");
            let post_hoc_pe =
                |l: &LayerReport| l.combination.pe.is_none() && l.aggregation.pe.is_none();
            assert!(post_hoc.layers.iter().all(post_hoc_pe), "{name}");
        }
        assert_eq!(
            engine_from_overrides("grow", &[("exec", "sideways")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownExecModel("sideways".into())
        );
        let message = RegistryError::UnknownExecModel("sideways".into()).to_string();
        for name in crate::exec_model::EXEC_MODEL_NAMES {
            assert!(message.contains(name), "{message}");
        }
    }
}
