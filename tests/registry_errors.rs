//! Error-path coverage for the registry and session entry points: every
//! documented failure mode surfaces as the matching [`RegistryError`] —
//! never a panic — through each layer (`registry`, `SimSession`, and the
//! `grow_serve` batch service).

use grow::accel::registry::{self, RegistryError};
use grow::accel::PartitionStrategy;
use grow::model::DatasetKey;
use grow::serve::{AsyncConfig, AsyncService, BatchService, JobError, JobSpec};
use grow::session::SimSession;

fn spec() -> grow::model::DatasetSpec {
    DatasetKey::Cora.spec().scaled_to(300)
}

#[test]
fn unknown_engine_is_an_error_everywhere() {
    let expected = RegistryError::UnknownEngine("npu".into());
    assert_eq!(
        registry::engine_by_name("npu").err(),
        Some(expected.clone())
    );
    assert_eq!(
        registry::canonical_name("npu").err(),
        Some(expected.clone())
    );
    // The engine name is checked before any override value.
    assert_eq!(
        registry::engine_from_overrides("npu", &[("merge_factor", "lots")]).err(),
        Some(expected.clone())
    );

    let workload = spec().instantiate(1);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    assert_eq!(
        registry::run_named("npu", &prepared).err(),
        Some(expected.clone())
    );

    let session = SimSession::from_spec(spec(), 1).expect("valid recipe");
    assert_eq!(
        session.run("npu", PartitionStrategy::None).err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown engine"
    );

    let result = BatchService::new().run_one(&JobSpec::new(spec(), 1, "npu"));
    assert_eq!(
        result.outcome.err(),
        Some(JobError::Invalid(expected.clone()))
    );
    // The message names the valid engines, so the error is actionable.
    let message = expected.to_string();
    for name in registry::ENGINE_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn unknown_key_and_invalid_value_are_reported_not_panicked() {
    let unknown_key = RegistryError::UnknownKey {
        engine: "matraptor",
        key: "runahead".into(),
    };
    assert_eq!(
        registry::engine_from_overrides("matraptor", &[("runahead", "4")]).err(),
        Some(unknown_key.clone())
    );
    let session = SimSession::from_spec(spec(), 2).expect("valid recipe");
    assert_eq!(
        session
            .run_with("matraptor", &[("runahead", "4")], PartitionStrategy::None)
            .err(),
        Some(unknown_key.clone())
    );
    let via_batch = BatchService::new()
        .run_one(&JobSpec::new(spec(), 2, "matraptor").with_override("runahead", "4"));
    assert_eq!(
        via_batch.outcome.err(),
        Some(JobError::Invalid(unknown_key))
    );
    // A key no engine has, such as `shard_rows`, is unknown everywhere.
    for engine in registry::ENGINE_NAMES {
        assert_eq!(
            registry::engine_from_overrides(engine, &[("shard_rows", "64")]).err(),
            Some(RegistryError::UnknownKey {
                engine,
                key: "shard_rows".into(),
            }),
            "{engine}"
        );
    }

    let invalid_value = RegistryError::InvalidValue {
        key: "merge_factor".into(),
        value: "lots".into(),
    };
    assert_eq!(
        registry::engine_from_overrides("matraptor", &[("merge_factor", "lots")]).err(),
        Some(invalid_value.clone())
    );
    let via_batch = BatchService::new()
        .run_one(&JobSpec::new(spec(), 2, "matraptor").with_override("merge_factor", "lots"));
    assert_eq!(
        via_batch.outcome.err(),
        Some(JobError::Invalid(invalid_value))
    );
}

/// Keys the named engines reject, each with the engines that would carry
/// its value: sizes Table III fixes (MAC lanes, GROW's HDN ID list, I-BUF,
/// O-BUF and LHS-ID table, GCNAX's tile width), typed fields only model
/// tests vary (GCNAX's dense buffer and tile-fetch depth, the DRAM
/// timing), and values no experiment varies on that engine (Figure 25b
/// sweeps bandwidth on GROW and GCNAX only; GAMMA's merge factor).
const REMOVED_KEYS: [(&str, &[&str]); 12] = [
    ("mac_lanes", &registry::ENGINE_NAMES),
    ("dram_latency_cycles", &registry::ENGINE_NAMES),
    ("dram_request_overhead_cycles", &registry::ENGINE_NAMES),
    ("hdn_id_entries", &["grow"]),
    ("ibuf_sparse_kb", &["grow"]),
    ("obuf_kb", &["grow"]),
    ("lhs_id_entries", &["grow"]),
    ("tile_cols", &["gcnax"]),
    ("dense_buffer_kb", &["gcnax"]),
    ("tile_fetch_depth", &["gcnax"]),
    ("dram_gbps", &["matraptor", "gamma"]),
    ("merge_factor", &["gamma"]),
];

#[test]
fn only_the_keys_the_evaluation_varies_configure_an_engine() {
    // Every key an experiment, example or perfbench job sets, and the
    // fault suites' `fault`, with a valid value and the engines that
    // accept it: 34 (engine, key) pairs. Every other engine rejects it.
    let every: &[&str] = &registry::ENGINE_NAMES;
    let kept: [(&str, &str, &[&str]); 15] = [
        ("dram_gbps", "64", &["grow", "gcnax"]),
        ("pes", "4", every),
        ("scheduler", "lpt", every),
        ("exec", "e2e", every),
        ("channels", "2", every),
        ("banks", "4", every),
        ("fault", "off", every),
        ("hdn_cache_kb", "256", &["grow"]),
        ("runahead", "4", &["grow"]),
        ("ldn_entries", "8", &["grow"]),
        ("hdn_caching", "false", &["grow"]),
        ("replacement", "lru", &["grow"]),
        ("tile_rows", "64", &["gcnax"]),
        ("merge_factor", "2", &["matraptor"]),
        ("fiber_cache_kb", "256", &["gamma"]),
    ];
    let pairs: usize = kept.iter().map(|(_, _, engines)| engines.len()).sum();
    assert_eq!(pairs, 34);
    for engine in registry::ENGINE_NAMES {
        for (key, value, engines) in kept {
            let built = registry::engine_from_overrides(engine, &[(key, value)]);
            if engines.contains(&engine) {
                assert!(built.is_ok(), "{engine}: {key}={value}");
            } else {
                assert_eq!(
                    built.err(),
                    Some(RegistryError::UnknownKey {
                        engine,
                        key: key.into()
                    }),
                    "{engine}: {key}"
                );
            }
        }
    }

    // The removed names are unknown on every engine that accepted them,
    // at the registry and as served jobs, which build no session.
    let removed: Vec<(&'static str, &str)> = REMOVED_KEYS
        .iter()
        .flat_map(|&(key, engines)| engines.iter().map(move |&engine| (engine, key)))
        .collect();
    assert_eq!(removed.len(), 22);
    let jobs: Vec<JobSpec> = removed
        .iter()
        .map(|&(engine, key)| JobSpec::new(spec(), 7, engine).with_override(key, "16"))
        .collect();
    let mut service = BatchService::new();
    let results = service.run_batch(&jobs);
    for (&(engine, key), result) in removed.iter().zip(&results) {
        let unknown = RegistryError::UnknownKey {
            engine,
            key: key.into(),
        };
        assert_eq!(
            registry::engine_from_overrides(engine, &[(key, "16")]).err(),
            Some(unknown.clone()),
            "{engine}: {key}"
        );
        assert_eq!(
            result.outcome.clone().err(),
            Some(JobError::Invalid(unknown)),
            "{engine}: {key}"
        );
    }
    assert_eq!(service.stats().simulations_run, 0);
    assert_eq!(service.pooled_sessions(), 0);
}

#[test]
fn a_rejected_dataset_field_fails_validation_without_a_session() {
    // A recipe field the graph generator or the feature synthesis would
    // reject fails its job, and an unserved session, as `dataset.<field>`
    // before any workload is built. The shipped recipes and an edgeless
    // graph stay valid.
    for key in DatasetKey::ALL {
        assert_eq!(key.spec().invalid_field(), None, "{}", key.name());
    }
    let with = |change: fn(&mut grow::model::DatasetSpec)| {
        let mut recipe = spec();
        change(&mut recipe);
        recipe
    };
    assert_eq!(with(|s| s.avg_degree = 0.0).invalid_field(), None);
    let cases = [
        (with(|s| s.nodes = 0), "nodes", "0"),
        (with(|s| s.communities = 0), "communities", "0"),
        (with(|s| s.communities = 301), "communities", "301"),
        (with(|s| s.intra_fraction = -0.1), "intra_fraction", "-0.1"),
        (with(|s| s.shuffle_fraction = 2.0), "shuffle_fraction", "2"),
        (
            with(|s| s.power_law_exponent = 1.0),
            "power_law_exponent",
            "1",
        ),
        (with(|s| s.avg_degree = f64::INFINITY), "avg_degree", "inf"),
        (with(|s| s.avg_degree = f64::NAN), "avg_degree", "NaN"),
        (with(|s| s.avg_degree = -3.0), "avg_degree", "-3"),
        (with(|s| s.x0_density = 1.5), "x0_density", "1.5"),
        (with(|s| s.x1_density = -3.0), "x1_density", "-3"),
        (
            with(|s| s.feature_dims[2] = 0),
            "feature_dims",
            "[1433, 16, 0]",
        ),
    ];
    let jobs: Vec<JobSpec> = cases
        .iter()
        .map(|&(recipe, _, _)| JobSpec::new(recipe, 8, "grow"))
        .collect();
    let mut service = BatchService::new();
    let results = service.run_batch(&jobs);
    for ((recipe, field, value), result) in cases.iter().zip(&results) {
        let invalid = RegistryError::InvalidValue {
            key: format!("dataset.{field}"),
            value: value.to_string(),
        };
        assert_eq!(
            SimSession::from_spec(*recipe, 8).err(),
            Some(invalid.clone()),
            "{field}"
        );
        assert_eq!(
            result.outcome.clone().err(),
            Some(JobError::Invalid(invalid)),
            "{field}"
        );
    }
    assert_eq!(service.stats().sessions_created, 0);
    assert_eq!(service.pooled_sessions(), 0);
}

#[test]
fn malformed_override_specs_are_rejected() {
    for bad in ["runahead", "=4", "runahead=", ""] {
        assert_eq!(
            registry::parse_override(bad).err(),
            Some(RegistryError::MalformedOverride { spec: bad.into() }),
            "{bad:?}"
        );
        let result =
            BatchService::new().run_one(&JobSpec::new(spec(), 3, "grow").with_override_spec(bad));
        assert_eq!(
            result.outcome.err(),
            Some(JobError::Invalid(RegistryError::MalformedOverride {
                spec: bad.into()
            })),
            "{bad:?}"
        );
    }
    // Values may contain '='; only the first one splits.
    assert_eq!(
        registry::parse_override("key=a=b").unwrap(),
        ("key".into(), "a=b".into())
    );
}

#[test]
fn unknown_scheduler_is_an_error_everywhere() {
    let expected = RegistryError::UnknownScheduler("bogus".into());
    for engine in registry::ENGINE_NAMES {
        assert_eq!(
            registry::engine_from_overrides(engine, &[("scheduler", "bogus")]).err(),
            Some(expected.clone()),
            "{engine}"
        );
    }

    let session = SimSession::from_spec(spec(), 4).expect("valid recipe");
    assert_eq!(
        session
            .run_with("grow", &[("scheduler", "bogus")], PartitionStrategy::None)
            .err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown scheduler"
    );

    // Through the batch service: the bad job fails alone, the valid
    // scheduler jobs around it still run.
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "ws"),
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "bogus"),
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "lpt"),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(results[1].outcome, Err(JobError::Invalid(expected.clone())));
    assert!(results[2].outcome.is_ok(), "later jobs unaffected");
    assert_eq!(service.stats().jobs_failed, 1);
    assert_eq!(service.stats().simulations_run, 2);

    // The message names the valid schedulers, so the error is actionable.
    let message = expected.to_string();
    for name in grow::accel::schedule::SCHEDULER_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn unknown_exec_model_is_an_error_everywhere() {
    let expected = RegistryError::UnknownExecModel("sideways".into());
    for engine in registry::ENGINE_NAMES {
        assert_eq!(
            registry::engine_from_overrides(engine, &[("exec", "sideways")]).err(),
            Some(expected.clone()),
            "{engine}"
        );
    }

    let session = SimSession::from_spec(spec(), 4).expect("valid recipe");
    assert_eq!(
        session
            .run_with("grow", &[("exec", "sideways")], PartitionStrategy::None)
            .err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown execution model"
    );

    // Through the batch service: the bad job fails alone, the valid
    // exec-model jobs around it still run.
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 4, "grow").with_override("exec", "e2e"),
        JobSpec::new(spec(), 4, "grow").with_override("exec", "sideways"),
        JobSpec::new(spec(), 4, "grow").with_override("exec", "post_hoc"),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(results[1].outcome, Err(JobError::Invalid(expected.clone())));
    assert!(results[2].outcome.is_ok(), "later jobs unaffected");

    // The message names the valid models, so the error is actionable.
    let message = expected.to_string();
    for name in grow::accel::exec_model::EXEC_MODEL_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn fault_is_uniform_across_engines() {
    // `fault=spec` is a shared key like `scheduler`: every engine
    // accepts it, a disarmed plan (`off`, or an ordinal that never
    // fires) leaves the report bit-identical to the baseline, and a
    // malformed spec surfaces as InvalidValue{key:"fault"} — not
    // UnknownKey — everywhere.
    let workload = spec().instantiate(11);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    for engine in registry::ENGINE_NAMES {
        let base = registry::run_named(engine, &prepared).unwrap();
        // `off`/`none` and a never-firing ordinal are all report-neutral.
        for value in ["off", "none", "dram:error:9999999"] {
            let faulted = registry::engine_from_overrides(engine, &[("fault", value)])
                .unwrap_or_else(|e| panic!("{engine} fault={value}: {e}"))
                .run(&prepared);
            assert_eq!(base, faulted, "{engine} fault={value}");
        }
        // A full multi-spec plan parses on every engine (validation is
        // engine-independent; firing behaviour is exercised elsewhere).
        assert!(
            registry::engine_from_overrides(engine, &[("fault", "dram:error:1:2+sched:panic:3")])
                .is_ok(),
            "{engine}"
        );
        for bad in [
            "dram:boom",
            "bogus:error",
            "dram",
            "dram:error:0",
            "dram:error:1:2:3",
            "exec:error:1",
            "",
        ] {
            assert_eq!(
                registry::engine_from_overrides(engine, &[("fault", bad)]).err(),
                Some(RegistryError::InvalidValue {
                    key: "fault".into(),
                    value: bad.into(),
                }),
                "{engine} fault={bad:?}"
            );
        }
    }

    // Through the batch service: a malformed fault spec fails validation
    // before any simulation runs, on every engine.
    let mut service = BatchService::new();
    let jobs: Vec<JobSpec> = registry::ENGINE_NAMES
        .iter()
        .map(|engine| JobSpec::new(spec(), 11, engine).with_fault("dram:sideways"))
        .collect();
    let results = service.run_batch(&jobs);
    for (result, engine) in results.iter().zip(registry::ENGINE_NAMES) {
        assert_eq!(
            result.outcome.clone().err(),
            Some(JobError::Invalid(RegistryError::InvalidValue {
                key: "fault".into(),
                value: "dram:sideways".into(),
            })),
            "{engine}"
        );
    }
    assert_eq!(service.stats().simulations_run, 0, "validation runs first");
}

#[test]
fn zero_pes_is_an_invalid_value_not_a_panic() {
    // Counts outside 1..=MAX_PES_OR_CHANNELS fail before anything runs:
    // per-PE and per-channel state is allocated up front, so a huge count
    // must not abort the process.
    let over = (registry::MAX_PES_OR_CHANNELS + 1).to_string();
    for key in ["pes", "channels"] {
        for value in ["0", over.as_str(), "1000000000"] {
            let expected = RegistryError::InvalidValue {
                key: key.into(),
                value: value.into(),
            };
            for engine in registry::ENGINE_NAMES {
                assert_eq!(
                    registry::engine_from_overrides(engine, &[("exec", "e2e"), (key, value)]).err(),
                    Some(expected.clone()),
                    "{engine}: {key}={value}"
                );
            }
        }
    }

    // Zero-sized hardware, a bandwidth below MIN_DRAM_GBPS and values
    // above the documented bounds fail at the registry too. Mid-run they
    // would panic, or worse: `runahead=0` spins a worker forever,
    // `tile_rows=0` grows a plan until the allocator aborts the process,
    // and a huge tile or a `1e-300` bandwidth wraps the report's `u64`
    // cycles, so those are only checked here.
    let u64_max = "18446744073709551615";
    let over_tile = (registry::MAX_TILE_DIM + 1).to_string();
    let over_merge = (registry::MAX_MERGE_FACTOR * 2.0).to_string();
    let cases: [(&[&str], &str, &[&str]); 6] = [
        (
            &["grow", "gcnax"],
            "dram_gbps",
            &["0", "-1", "NaN", "inf", "1e-300", "0.5"],
        ),
        (&["grow"], "runahead", &["0"]),
        (&["grow"], "ldn_entries", &["0"]),
        (&["grow"], "hdn_cache_kb", &["0"]),
        (&["gcnax"], "tile_rows", &["0", u64_max, &over_tile]),
        (
            &["matraptor"],
            "merge_factor",
            &["NaN", "-1", "inf", &over_merge],
        ),
    ];
    for (engines, key, values) in cases {
        for &engine in engines {
            for &value in values {
                assert_eq!(
                    registry::engine_from_overrides(engine, &[(key, value)]).err(),
                    Some(RegistryError::InvalidValue {
                        key: key.into(),
                        value: value.into(),
                    }),
                    "{engine}: {key}={value}"
                );
            }
        }
    }

    // A served job whose value would panic mid-run (and be retried as a
    // panic) fails validation as Invalid instead.
    for (engine, key, value) in [
        ("grow", "pes", "1000000000"),
        ("matraptor", "merge_factor", "-1"),
        ("grow", "hdn_cache_kb", "0"),
        ("grow", "dram_gbps", "1e-300"),
        ("gcnax", "dram_gbps", "1e-300"),
    ] {
        let result =
            BatchService::new().run_one(&JobSpec::new(spec(), 5, engine).with_override(key, value));
        assert_eq!(
            result.outcome.err(),
            Some(JobError::Invalid(RegistryError::InvalidValue {
                key: key.into(),
                value: value.into(),
            })),
            "{engine}: {key}={value}"
        );
    }

    // Zero stays valid where it means "no such buffer" or "no merge
    // cost", and each bound itself still runs.
    let workload = spec().instantiate(5);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    let max_tile = registry::MAX_TILE_DIM.to_string();
    let max_merge = registry::MAX_MERGE_FACTOR.to_string();
    let min_dram = registry::MIN_DRAM_GBPS.to_string();
    for (engine, key, value) in [
        ("gcnax", "tile_rows", max_tile.as_str()),
        ("matraptor", "merge_factor", &max_merge),
        ("matraptor", "merge_factor", "0"),
        ("gamma", "fiber_cache_kb", "0"),
        ("grow", "dram_gbps", &min_dram),
        ("gcnax", "dram_gbps", &min_dram),
    ] {
        let report = registry::engine_from_overrides(engine, &[(key, value)])
            .unwrap_or_else(|e| panic!("{engine}: {key}={value}: {e}"))
            .run(&prepared);
        assert!(report.total_cycles() > 0, "{engine}: {key}={value}");
    }
}

#[test]
fn an_over_large_kb_value_is_an_invalid_value_not_a_dead_worker() {
    // `*_kb` values become byte counts (`kb * 1024`), so every buffer key
    // caps them at MAX_BUFFER_KB; the cap itself still runs.
    let workload = spec().instantiate(5);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    let max = registry::MAX_BUFFER_KB.to_string();
    let over = (registry::MAX_BUFFER_KB + 1).to_string();
    for (engine, key) in [("grow", "hdn_cache_kb"), ("gamma", "fiber_cache_kb")] {
        assert_eq!(
            registry::engine_from_overrides(engine, &[(key, &over)]).err(),
            Some(RegistryError::InvalidValue {
                key: key.into(),
                value: over.clone(),
            }),
            "{engine}: {key}={over}"
        );
        let report = registry::engine_from_overrides(engine, &[(key, &max)])
            .unwrap_or_else(|e| panic!("{engine}: {key}={max}: {e}"))
            .run(&prepared);
        assert!(report.total_cycles() > 0, "{engine}: {key}={max}");
    }

    // 2^54 KB overflows `kb * 1024`. Served beside valid jobs on a
    // two-worker pool, it fails alone and both workers survive.
    let service = AsyncService::start(
        BatchService::new(),
        AsyncConfig {
            workers: 2,
            ..AsyncConfig::default()
        },
    );
    let ok = JobSpec::new(spec(), 5, "grow");
    let jobs = [
        ok.clone(),
        ok.clone()
            .with_override("hdn_cache_kb", "18014398509481984"),
        ok.with_override("runahead", "8"),
    ];
    let tickets: Vec<_> = jobs
        .iter()
        .map(|job| service.submit(job.clone()).expect("admitted"))
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("a worker delivers every result").outcome)
        .collect();
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    assert_eq!(
        outcomes[1].clone().err(),
        Some(JobError::Invalid(RegistryError::InvalidValue {
            key: "hdn_cache_kb".into(),
            value: "18014398509481984".into(),
        }))
    );
    assert_eq!(service.workers_alive(), 2);
    let (_, shutdown) = service.finish_report();
    assert!(!shutdown.worker_panicked && shutdown.casualties.is_empty());
}

#[test]
fn the_largest_pes_and_channels_run_on_every_engine() {
    let max = registry::MAX_PES_OR_CHANNELS.to_string();
    let workload = spec().instantiate(5);
    let strategy = PartitionStrategy::Multilevel { cluster_nodes: 100 };
    let prepared = grow::accel::prepare(&workload, strategy, 4096);
    for engine in registry::ENGINE_NAMES {
        let overrides = [("exec", "e2e"), ("pes", max.as_str()), ("channels", &max)];
        let report = registry::engine_from_overrides(engine, &overrides)
            .unwrap_or_else(|e| panic!("{engine}: {e}"))
            .run(&prepared);
        assert!(report.total_cycles() > 0, "{engine}");
        let summary = report.multi_pe.expect("summary attached");
        assert_eq!(summary.pes, registry::MAX_PES_OR_CHANNELS, "{engine}");
    }
}

#[test]
fn an_over_limit_job_fails_alone_in_a_served_batch() {
    let ok = JobSpec::new(spec(), 5, "grow").with_pes(4);
    let over = JobSpec::new(spec(), 5, "grow").with_pes(1_000_000_000);
    let mut service = BatchService::new();
    let results = service.run_batch(&[ok.clone(), over, ok.with_override("runahead", "8")]);
    assert_eq!(
        results[1].outcome.clone().err(),
        Some(JobError::Invalid(RegistryError::InvalidValue {
            key: "pes".into(),
            value: "1000000000".into(),
        }))
    );
    assert!(results[0].outcome.is_ok() && results[2].outcome.is_ok());
    assert_eq!(service.stats().jobs_failed, 1);
}

#[test]
fn every_error_displays_a_useful_message() {
    let errors: Vec<RegistryError> = vec![
        RegistryError::UnknownEngine("npu".into()),
        RegistryError::UnknownKey {
            engine: "grow",
            key: "warp_size".into(),
        },
        RegistryError::InvalidValue {
            key: "runahead".into(),
            value: "many".into(),
        },
        RegistryError::MalformedOverride {
            spec: "runahead".into(),
        },
        RegistryError::UnknownScheduler("bogus".into()),
        RegistryError::UnknownExecModel("sideways".into()),
    ];
    for e in errors {
        let text = e.to_string();
        assert!(!text.is_empty());
        // std::error::Error is implemented, so the errors compose with ?
        // and error-reporting crates.
        let as_dyn: &dyn std::error::Error = &e;
        assert_eq!(as_dyn.to_string(), text);
    }
}

#[test]
fn hdn_entry_changes_invalidate_without_panicking() {
    let mut session = SimSession::from_spec(spec(), 5).expect("valid recipe");
    let wide = session
        .run("grow", PartitionStrategy::None)
        .expect("registered engine");
    assert_eq!(session.prepared_count(), 1);

    // Shrinking the HDN ID list drops every memoized preparation and
    // re-prepares on demand with the new bound.
    session.set_hdn_id_entries(8);
    assert_eq!(session.prepared_count(), 0);
    let narrow = session
        .run("grow", PartitionStrategy::None)
        .expect("still runs after invalidation");
    assert_eq!(
        wide.mac_ops(),
        narrow.mac_ops(),
        "list length changes movement, not work"
    );
    assert!(
        session
            .get_prepared(PartitionStrategy::None)
            .expect("re-prepared")
            .hdn_lists[0]
            .len()
            <= 8
    );

    // Setting the same value again is a no-op, not an invalidation.
    session.set_hdn_id_entries(8);
    assert_eq!(session.prepared_count(), 1);
}

#[test]
fn batch_jobs_with_distinct_hdn_entries_get_distinct_sessions() {
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 6, "grow"),
        JobSpec::new(spec(), 6, "grow").with_hdn_id_entries(8),
    ]);
    assert!(results[0].outcome.is_ok() && results[1].outcome.is_ok());
    assert_ne!(results[0].key, results[1].key);
    assert_eq!(service.pooled_sessions(), 2);
    assert_eq!(service.stats().simulations_run, 2);
}
