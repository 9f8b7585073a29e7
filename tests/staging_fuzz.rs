//! Seeded fuzzing of what a served job carries as text or as a recipe:
//! its `key=value` override strings, `fault=` plans included, and its
//! `DatasetSpec`. Each case is mutated from a valid one, only toward an
//! invalid value or a small valid one (no resource budget bounds a valid
//! size yet), and runs through `registry::engine_from_overrides` and
//! through `BatchService::run_one`, which stages the job. The properties:
//!
//! * nothing panics: the registry returns, and a served job either runs
//!   or fails staging as `JobError::Invalid`, never as a caught panic;
//! * a case is rejected exactly when one of its mutations made it
//!   invalid, and the rejection names its input: an override's key and
//!   value, a spec that is not `key=value`, or `dataset.<field>`;
//! * the registry rejects the first bad override in order;
//! * a rejected job runs no simulation and builds no session;
//! * every `fault=` plan that parses re-parses from its rendering
//!   unchanged.

use grow::accel::registry::{self, RegistryError};
use grow::accel::PartitionStrategy;
use grow::model::{DatasetKey, DatasetSpec};
use grow::serve::{BatchService, JobError, JobSpec};
use grow::sim::fault::{FaultPlan, MAX_FAULT_SPECS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL: &[&str] = &registry::ENGINE_NAMES;

/// One registry key: the engines that accept it, small valid values, and
/// values each of those engines rejects. `banks`, `runahead` and
/// `ldn_entries` have no upper bound, so they get no large values.
struct Key {
    name: &'static str,
    engines: &'static [&'static str],
    valid: &'static [&'static str],
    invalid: &'static [&'static str],
}

const KEYS: [Key; 14] = [
    Key {
        name: "pes",
        engines: ALL,
        valid: &["1", "2", "4", "8", "+3", " 2 "],
        invalid: &["0", "-1", "1.5", "four", "1025", "18446744073709551616"],
    },
    Key {
        name: "channels",
        engines: ALL,
        valid: &["1", "2", "4"],
        invalid: &["0", "-2", "2.0", "1025", ""],
    },
    Key {
        name: "banks",
        engines: ALL,
        valid: &["1", "4", "8", "16"],
        invalid: &["0", "-8", "8.5", "eight"],
    },
    Key {
        name: "scheduler",
        engines: ALL,
        valid: &["rr", "lpt", "ws", "ca", "WS", "round-robin"],
        invalid: &["bogus", "r r", "fifo", "1"],
    },
    Key {
        name: "exec",
        engines: ALL,
        valid: &["post_hoc", "e2e", "E2E", "end-to-end"],
        invalid: &["sideways", "post hoc", "2e2"],
    },
    Key {
        name: "dram_gbps",
        engines: &["grow", "gcnax"],
        valid: &["1", "8", "16.5", "128", "1e3"],
        invalid: &["0", "0.5", "-1", "NaN", "inf", "1e-300", "1e400", "fast"],
    },
    Key {
        name: "hdn_cache_kb",
        engines: &["grow"],
        valid: &["1", "4", "64", "512"],
        invalid: &["0", "-4", "1.5", "1099511627777", "big"],
    },
    Key {
        name: "runahead",
        engines: &["grow"],
        valid: &["1", "2", "8", "16"],
        invalid: &["0", "-1", "2.5", "many"],
    },
    Key {
        name: "ldn_entries",
        engines: &["grow"],
        valid: &["1", "4", "16"],
        invalid: &["0", "-16", "x"],
    },
    Key {
        name: "hdn_caching",
        engines: &["grow"],
        valid: &["true", "false"],
        invalid: &["yes", "1", "TRUE", "off"],
    },
    Key {
        name: "replacement",
        engines: &["grow"],
        valid: &["pinned", "lru", "LRU"],
        invalid: &["fifo", "pin", "random"],
    },
    Key {
        name: "tile_rows",
        engines: &["gcnax"],
        valid: &["1", "16", "128", "256"],
        invalid: &["0", "-128", "1048577", "18446744073709551615", "wide"],
    },
    Key {
        name: "merge_factor",
        engines: &["matraptor"],
        valid: &["0", "0.5", "1", "2"],
        invalid: &["-1", "NaN", "inf", "1025", "1e400", "half"],
    },
    Key {
        name: "fiber_cache_kb",
        engines: &["gamma"],
        valid: &["0", "4", "64", "512"],
        invalid: &["-1", "1.5", "1099511627777", "all"],
    },
];

/// Keys no engine accepts: Table III constants, deleted knobs, and
/// spellings the registry does not fold.
const UNKNOWN: [&str; 7] = [
    "mac_lanes=16",
    "dram_latency_cycles=60",
    "tile_fetch_depth=2",
    "dense_buffer_kb=512",
    "shard_rows=64",
    "PES=2",
    "Runahead=4",
];

/// Specs that are not `key=value`.
const MALFORMED: [&str; 6] = ["pes", "=4", "runahead=", "", "==", " = "];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// One field of a fault spec: mostly a `good` token, now and then a `bad`
/// one, which clears `ok`.
fn field(
    rng: &mut StdRng,
    good: &[&'static str],
    bad: &[&'static str],
    ok: &mut bool,
) -> &'static str {
    if rng.random_range(0..6u32) == 0 {
        *ok = false;
        pick(rng, bad)
    } else {
        pick(rng, good)
    }
}

/// A mutated `fault=` plan and whether it parses. With `quiet`, every
/// spec names an ordinal no small job reaches, so a valid plan never
/// fires.
fn fault_plan(rng: &mut StdRng, quiet: bool) -> (String, bool) {
    if rng.random_range(0..8u32) == 0 {
        return (
            pick(rng, &["off", "none", "OFF", " None "]).to_string(),
            true,
        );
    }
    let specs = rng.random_range(1..=MAX_FAULT_SPECS + 2);
    let mut ok = specs <= MAX_FAULT_SPECS;
    let nths: &[&str] = if quiet {
        &["1000000", "9999999", "18446744073709551615"]
    } else {
        &["1", "2", "3", "1000000"]
    };
    let sites = ["dram", "sched", "store_read", "store_write", "worker"];
    let mut text = Vec::new();
    for _ in 0..specs {
        let mut parts = vec![
            field(
                rng,
                &sites,
                &["bogus", "exec", "DRAM", "", "dram "],
                &mut ok,
            ),
            field(rng, &["error", "panic"], &["boom", "Error", ""], &mut ok),
        ];
        // An omitted ordinal is 1, which fires.
        if quiet || rng.random::<bool>() {
            let bad = ["0", "-1", "x", "1.5", "", "18446744073709551616"];
            parts.push(field(rng, nths, &bad, &mut ok));
            if rng.random::<bool>() {
                parts.push(field(rng, &["1", "2", "99"], &["0", "y", ""], &mut ok));
                if rng.random_range(0..8u32) == 0 {
                    parts.push("1");
                    ok = false;
                }
            }
        }
        text.push(parts.join(":"));
    }
    (text.join("+"), ok)
}

/// One mutated override for `engine` and whether `engine` takes it. On
/// the registry path (`served == false`) `fault` is not a key.
fn override_spec(rng: &mut StdRng, engine: &str, served: bool) -> (String, bool) {
    match rng.random_range(0..20u32) {
        0 => (pick(rng, &MALFORMED).to_string(), false),
        1 => (pick(rng, &UNKNOWN).to_string(), false),
        2..=4 => {
            let (plan, ok) = fault_plan(rng, true);
            (format!("fault={plan}"), ok && served)
        }
        _ => {
            let key = &KEYS[rng.random_range(0..KEYS.len())];
            if rng.random_range(0..3u32) == 0 {
                (format!("{}={}", key.name, pick(rng, key.invalid)), false)
            } else {
                let ok = key.engines.contains(&engine);
                (format!("{}={}", key.name, pick(rng, key.valid)), ok)
            }
        }
    }
}

/// `base` with one field mutated toward an invalid value (`bad`) or a
/// small valid one. A valid node count can still leave the community
/// count above it.
fn mutate_recipe(rng: &mut StdRng, base: DatasetSpec, bad: bool) -> DatasetSpec {
    let mut s = base;
    let fraction = |rng: &mut StdRng| {
        if bad {
            pick(
                rng,
                &[-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            )
        } else {
            let inside = rng.random::<f64>();
            pick(rng, &[0.0, 1.0, inside])
        }
    };
    match rng.random_range(0..9u32) {
        0 => {
            s.nodes = if bad {
                0
            } else {
                rng.random_range(16usize..=160)
            }
        }
        1 => {
            s.communities = if bad {
                pick(rng, &[0, s.nodes + 1, usize::MAX])
            } else {
                rng.random_range(1..=s.nodes)
            }
        }
        2 => s.intra_fraction = fraction(rng),
        3 => s.shuffle_fraction = fraction(rng),
        4 => {
            s.power_law_exponent = if bad {
                pick(rng, &[1.0, 0.5, -2.0, f64::NAN, f64::INFINITY])
            } else {
                pick(rng, &[1.01, 1.5, 2.5, 4.0])
            }
        }
        5 => {
            s.avg_degree = if bad {
                pick(rng, &[-1.0, f64::NAN, f64::INFINITY])
            } else {
                pick(rng, &[0.0, 0.5, 2.0, 8.0])
            }
        }
        6 => s.x0_density = fraction(rng),
        7 => s.x1_density = fraction(rng),
        _ => {
            s.feature_dims[rng.random_range(0..3usize)] = if bad {
                0
            } else {
                rng.random_range(1usize..=64)
            }
        }
    }
    s
}

/// The index of the first override spec a registry error names, if it
/// names one of `specs`.
fn named_override(error: &RegistryError, engine: &str, specs: &[String]) -> Option<usize> {
    let parsed = |i: usize| registry::parse_override(&specs[i]).ok();
    let names = |i: usize| match (error, parsed(i)) {
        (RegistryError::MalformedOverride { spec }, _) => *spec == specs[i],
        (RegistryError::UnknownKey { engine: e, key }, Some((k, _))) => {
            registry::canonical_name(engine).is_ok_and(|c| c == *e) && *key == k
        }
        (RegistryError::InvalidValue { key, value }, Some(pair)) => {
            (key, value) == (&pair.0, &pair.1)
        }
        (RegistryError::UnknownScheduler(v), Some((k, value))) => k == "scheduler" && *v == value,
        (RegistryError::UnknownExecModel(v), Some((k, value))) => k == "exec" && *v == value,
        _ => false,
    };
    (0..specs.len()).find(|&i| names(i))
}

#[test]
fn mutated_overrides_fail_at_the_registry_as_structured_errors() {
    let mut rng = StdRng::seed_from_u64(2901);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..4000 {
        let engine = pick(&mut rng, ALL);
        let mut specs = Vec::new();
        let mut valid = true;
        for _ in 0..rng.random_range(0..=4usize) {
            let (spec, ok) = override_spec(&mut rng, engine, false);
            specs.push(spec);
            valid &= ok;
        }
        let pairs = registry::parse_overrides(&specs);
        let verdict = pairs.as_ref().map_err(Clone::clone).and_then(|pairs| {
            let borrowed: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            registry::engine_from_overrides(engine, &borrowed).map(|_| ())
        });
        assert_eq!(
            verdict.is_ok(),
            valid,
            "case {case}: {engine} {specs:?}: {verdict:?}"
        );
        let Err(error) = verdict else {
            accepted += 1;
            continue;
        };
        rejected += 1;
        let at = named_override(&error, engine, &specs)
            .unwrap_or_else(|| panic!("case {case}: {error:?} names none of {specs:?}"));
        // The first bad override fails: everything before it builds.
        let first = match &pairs {
            Err(_) => registry::parse_overrides(&specs[..at]).is_ok(),
            Ok(pairs) => {
                let borrowed: Vec<(&str, &str)> = pairs[..at]
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                registry::engine_from_overrides(engine, &borrowed).is_ok()
            }
        };
        assert!(
            first,
            "case {case}: {error:?} is not the first bad override of {specs:?}"
        );
    }
    assert!(
        accepted > 500 && rejected > 500,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn mutated_jobs_fail_staging_alone_and_run_nothing() {
    let mut rng = StdRng::seed_from_u64(2902);
    let base = DatasetKey::Cora.spec().scaled_to(120);
    let strategies = [
        PartitionStrategy::None,
        PartitionStrategy::Multilevel { cluster_nodes: 32 },
        PartitionStrategy::multilevel_default(),
    ];
    let mut service = BatchService::new();
    let (mut ran, mut rejected) = (0, 0);
    for case in 0..600 {
        let mut valid = true;
        let dataset = match rng.random_range(0..3u32) {
            0 => {
                let bad = rng.random::<bool>();
                let recipe = mutate_recipe(&mut rng, base, bad);
                assert!(!bad || recipe.invalid_field().is_some(), "{recipe:?}");
                valid &= recipe.invalid_field().is_none();
                recipe
            }
            _ => base,
        };
        let engine = match rng.random_range(0..24u32) {
            0 => {
                valid = false;
                pick(&mut rng, &["npu", ""])
            }
            1 => pick(&mut rng, &["GROW", "Gamma", "GcnAx"]),
            _ => pick(&mut rng, ALL),
        };
        let canonical = registry::canonical_name(engine).unwrap_or("grow");
        let mut job = JobSpec::new(dataset, 5, engine).with_strategy(pick(&mut rng, &strategies));
        for _ in 0..rng.random_range(0..=3usize) {
            let (spec, ok) = override_spec(&mut rng, canonical, true);
            job = job.with_override_spec(&spec);
            valid &= ok;
        }

        let before = service.stats();
        let result = service.run_one(&job);
        let after = service.stats();
        match &result.outcome {
            Ok(_) => {
                assert!(valid, "case {case}: an invalid job ran: {job:?}");
                ran += 1;
            }
            Err(JobError::Invalid(error)) => {
                assert!(
                    !valid,
                    "case {case}: a valid job failed staging with {error}: {job:?}"
                );
                let names_input = match (error, job.dataset.invalid_field()) {
                    (RegistryError::InvalidValue { key, value }, Some((field, bad))) => {
                        *key == format!("dataset.{field}") && *value == bad
                    }
                    (RegistryError::UnknownEngine(name), None) => *name == job.engine,
                    (error, None) => named_override(error, engine, &job.overrides).is_some(),
                    _ => false,
                };
                assert!(
                    names_input,
                    "case {case}: {error:?} names nothing in {job:?}"
                );
                assert_eq!(after.simulations_run, before.simulations_run, "case {case}");
                assert_eq!(
                    after.sessions_created, before.sessions_created,
                    "case {case}"
                );
                rejected += 1;
            }
            Err(other) => panic!("case {case}: {job:?} failed unstaged: {other}"),
        }
    }
    assert!(
        ran > 100 && rejected > 100,
        "{ran} ran, {rejected} rejected"
    );
}

#[test]
fn every_parsed_fault_plan_round_trips_through_its_rendering() {
    let mut rng = StdRng::seed_from_u64(2903);
    let mut parsed = 0;
    for case in 0..4000 {
        let quiet = rng.random::<bool>();
        let (text, ok) = fault_plan(&mut rng, quiet);
        match FaultPlan::parse(&text) {
            Ok(plan) => {
                assert!(ok, "case {case}: {text:?} parsed");
                assert_eq!(
                    FaultPlan::parse(&plan.render()),
                    Ok(plan),
                    "case {case}: {text:?}"
                );
                parsed += 1;
            }
            Err(e) => assert!(!ok, "case {case}: {text:?} failed: {e}"),
        }
    }
    assert!(parsed > 1000, "{parsed} plans parsed");
}
