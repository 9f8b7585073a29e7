//! Engine registry: construct and run any accelerator model by name, with
//! configuration supplied as plain key-value overrides.
//!
//! This is the single entry point the bench harness, the examples, and
//! future serving layers drive engines through:
//!
//! ```
//! use grow_core::registry::{self, run_named};
//! use grow_core::{prepare, PartitionStrategy};
//! use grow_model::DatasetKey;
//!
//! let workload = DatasetKey::Cora.spec().scaled_to(300).instantiate(7);
//! let prepared = prepare(&workload, PartitionStrategy::None, 4096);
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

use std::fmt;
use std::ops::RangeInclusive;

use grow_sim::{DramConfig, FaultPlan};

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

/// Largest value the `*_kb` buffer keys accept: 2^40 KB (1 PiB). The
/// byte count `kb * 1024` then stays far inside `u64`, so neither it nor
/// a sum of an engine's buffer sizes can overflow; a larger value is an
/// [`RegistryError::InvalidValue`]. Table III's largest buffer is 512 KB.
pub const MAX_BUFFER_KB: u64 = 1 << 40;

/// Largest value the `dram_latency_cycles` and
/// `dram_request_overhead_cycles` keys accept: 2^20 cycles per request.
/// Every transfer adds them to `u64` cycle counts, so an unbounded value
/// wraps the report; a larger value is an [`RegistryError::InvalidValue`].
/// The defaults are 60 and 12 cycles.
pub const MAX_DRAM_CYCLES: u64 = 1 << 20;

/// Largest value the `tile_rows` and `tile_cols` keys (GCNAX) accept:
/// 2^20. Strip bounds and tile metadata sizes are computed from them
/// unchecked; a larger value is an [`RegistryError::InvalidValue`]. The
/// default tile is 128 x 128 and no test, experiment or benchmark job
/// uses more than 512.
pub const MAX_TILE_DIM: usize = 1 << 20;

/// Largest value the `merge_factor` key (MatRaptor, GAMMA) accepts. The
/// factor scales merge cycles per output element, so it must also be
/// finite and non-negative; anything else is an
/// [`RegistryError::InvalidValue`]. The defaults are 1.0 and 0.5 and no
/// test, experiment or benchmark job uses more than 2.
pub const MAX_MERGE_FACTOR: f64 = 1024.0;

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

/// Applies the DRAM keys shared by every engine; returns `true` if `key`
/// was one of them. `dram_gbps` must be finite and positive: the channel
/// divides by it. The per-request cycle counts are bounded by
/// [`MAX_DRAM_CYCLES`].
fn apply_dram_key(dram: &mut DramConfig, key: &str, value: &str) -> Result<bool, RegistryError> {
    match key {
        "dram_gbps" => {
            let gbps: f64 = parse(key, value)?;
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(invalid_value(key, value));
            }
            dram.bytes_per_cycle = gbps;
        }
        "dram_latency_cycles" => dram.latency_cycles = bounded(key, value, 0..=MAX_DRAM_CYCLES)?,
        "dram_request_overhead_cycles" => {
            dram.request_overhead_cycles = bounded(key, value, 0..=MAX_DRAM_CYCLES)?
        }
        _ => return Ok(false),
    }
    Ok(true)
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

/// Applies the `fault=off|spec[+spec..]` deterministic fault-injection
/// key shared by every engine (spec grammar:
/// `site:action[:nth[:attempts]]`, see [`grow_sim::fault::FaultPlan`]);
/// returns `true` if `key` was it.
fn apply_fault_key(fault: &mut FaultPlan, key: &str, value: &str) -> Result<bool, RegistryError> {
    if key != "fault" {
        return Ok(false);
    }
    *fault = FaultPlan::parse(value).map_err(|_| invalid_value(key, value))?;
    Ok(true)
}

fn grow_from(overrides: &[(&str, &str)]) -> Result<GrowEngine, RegistryError> {
    let mut cfg = GrowConfig::default();
    for &(key, value) in overrides {
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = bounded(key, value, 1..=usize::MAX)?,
            "hdn_cache_kb" => cfg.hdn_cache_bytes = kb_bytes(key, value, 1)?,
            "hdn_id_entries" => cfg.hdn_id_entries = parse(key, value)?,
            "ibuf_sparse_kb" => cfg.ibuf_sparse_bytes = kb_bytes(key, value, 0)?,
            "obuf_kb" => cfg.obuf_bytes = kb_bytes(key, value, 0)?,
            "runahead" => cfg.runahead = bounded(key, value, 1..=usize::MAX)?,
            "ldn_entries" => cfg.ldn_entries = bounded(key, value, 1..=usize::MAX)?,
            "lhs_id_entries" => cfg.lhs_id_entries = bounded(key, value, 1..=usize::MAX)?,
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
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = bounded(key, value, 1..=usize::MAX)?,
            "tile_rows" => cfg.tile_rows = bounded(key, value, 1..=MAX_TILE_DIM)?,
            "tile_cols" => cfg.tile_cols = bounded(key, value, 1..=MAX_TILE_DIM)?,
            "dense_buffer_kb" => cfg.dense_buffer_bytes = kb_bytes(key, value, 0)?,
            "tile_fetch_depth" => cfg.tile_fetch_depth = parse(key, value)?,
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
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = bounded(key, value, 1..=usize::MAX)?,
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
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = bounded(key, value, 1..=usize::MAX)?,
            "fiber_cache_kb" => cfg.fiber_cache_bytes = kb_bytes(key, value, 0)?,
            "merge_factor" => cfg.merge_factor = bounded(key, value, 0.0..=MAX_MERGE_FACTOR)?,
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
        let specs = ["mac_lanes=32".to_string(), "oops".to_string()];
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
    fn every_engine_accepts_shared_dram_keys() {
        for name in ENGINE_NAMES {
            assert!(
                engine_from_overrides(name, &[("dram_gbps", "64"), ("mac_lanes", "32")]).is_ok(),
                "{name}"
            );
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
