//! Scenario spec tests: serde round-trips, validation rejections, and the
//! golden determinism guarantee (same scenario + seed ⇒ byte-identical
//! report JSON, independent of the planner thread budget).

use harl_repro::prelude::*;

fn smoke_scenario() -> Scenario {
    Scenario::new(WorkloadSpec::Ior(IorConfig {
        processes: 8,
        request_size: 256 * 1024,
        file_size: 64 << 20,
        op: OpKind::Read,
        order: AccessOrder::Random,
        seed: 42,
    }))
    .named("test-smoke")
    .with_seed(7)
}

#[test]
fn scenario_round_trips_through_json() {
    let scenarios = vec![
        smoke_scenario(),
        Scenario::new(WorkloadSpec::Btio(BtioConfig {
            grid: 64,
            steps: 2,
            ..BtioConfig::paper_default(16)
        }))
        .with_policy(PolicySpec::Fixed(64 * 1024))
        .with_cluster(ClusterSpec::Hybrid(HybridCluster {
            hservers: 4,
            sservers: 2,
            compute_nodes: Some(8),
            seed: Some(3),
        })),
        smoke_scenario()
            .with_policy(PolicySpec::Segment(1 << 20))
            .with_fault(FaultSpec {
                server: 6,
                slowdown: 2.5,
                from_s: 0.5,
                until_s: Some(1.5),
            })
            .with_threads(4),
        Scenario::new(WorkloadSpec::ReplayTrace("trace.jsonl".into()))
            .with_policy(PolicySpec::ServerLevel),
    ];
    for s in scenarios {
        let json = s.to_json_pretty();
        let back = Scenario::from_json(&json)
            .unwrap_or_else(|e| panic!("round-trip failed for {json}: {e}"));
        assert_eq!(back, s);
        // A second trip must be textually stable too.
        assert_eq!(back.to_json_pretty(), json);
    }
}

#[test]
fn scenario_defaults_apply_on_sparse_json() {
    // Only the workload is mandatory; everything else defaults.
    let json = r#"{"workload": {"Ior": {
        "processes": 2, "request_size": 65536, "file_size": 1048576,
        "op": "Read", "order": "Sequential", "seed": 1}}}"#;
    let s = Scenario::from_json(json).expect("sparse scenario parses");
    assert_eq!(s.cluster, ClusterSpec::Paper);
    assert_eq!(s.policy, PolicySpec::Harl);
    assert!(s.faults.is_empty());
    assert_eq!(s.seed, None);
    assert_eq!(s.threads, None);
}

#[test]
fn validation_rejects_impossible_scenarios() {
    let base = smoke_scenario();

    let cases: Vec<(Scenario, &str)> = vec![
        (
            base.clone()
                .with_cluster(ClusterSpec::Hybrid(HybridCluster {
                    hservers: 0,
                    sservers: 0,
                    compute_nodes: None,
                    seed: None,
                })),
            "at least one server",
        ),
        (
            Scenario::new(WorkloadSpec::Ior(IorConfig {
                processes: 0,
                request_size: 4096,
                file_size: 1 << 20,
                op: OpKind::Read,
                order: AccessOrder::Sequential,
                seed: 1,
            })),
            "at least one process",
        ),
        (
            Scenario::new(WorkloadSpec::Ior(IorConfig {
                processes: 1,
                request_size: 0,
                file_size: 1 << 20,
                op: OpKind::Read,
                order: AccessOrder::Sequential,
                seed: 1,
            })),
            "request_size",
        ),
        // 3 processes share 100,000 bytes: 33,333 each, less than one
        // 65,536-byte request.
        (
            Scenario::new(WorkloadSpec::Ior(IorConfig {
                processes: 3,
                request_size: 65_536,
                file_size: 100_000,
                op: OpKind::Read,
                order: AccessOrder::Sequential,
                seed: 1,
            })),
            "file_size 100000 gives each of 3 processes 33333 bytes",
        ),
        (
            Scenario::new(WorkloadSpec::Phased(PhasedConfig {
                phases: vec![
                    Phase::new(0, 1 << 20, 65_536, OpKind::Write),
                    Phase::new(1 << 20, 100_000, 65_536, OpKind::Read),
                ],
                processes: 3,
                seed: 1,
            })),
            "phase 1: len 100000 gives each of 3 processes 33333 bytes",
        ),
        (
            Scenario::new(WorkloadSpec::MultiRegionIor(MultiRegionIorConfig {
                regions: vec![(1 << 20, 65_536), (100_000, 65_536)],
                processes: 3,
                op: OpKind::Read,
                seed: 1,
            })),
            "region 1: len 100000 gives each of 3 processes 33333 bytes",
        ),
        (base.clone().with_policy(PolicySpec::Fixed(0)), "stripe"),
        // 8 servers × 2^62 bytes: the stripe group would wrap to 0.
        (
            base.clone().with_policy(PolicySpec::Fixed(1 << 62)),
            "overflows u64",
        ),
        (
            base.clone().with_fault(FaultSpec {
                server: 999,
                slowdown: 2.0,
                from_s: 0.0,
                until_s: None,
            }),
            "server 999",
        ),
        (
            base.clone().with_fault(FaultSpec {
                server: 0,
                slowdown: -1.0,
                from_s: 0.0,
                until_s: None,
            }),
            "slowdown",
        ),
        (
            base.clone().with_fault(FaultSpec {
                server: 0,
                slowdown: 2.0,
                from_s: 5.0,
                until_s: Some(1.0),
            }),
            "inverted",
        ),
        (base.clone().with_threads(0), "threads"),
        (
            Scenario::new(WorkloadSpec::ReplayTrace(String::new())),
            "trace file path",
        ),
        (
            Scenario::new(WorkloadSpec::Btio(BtioConfig::tiny(6))),
            "square number of processes, got 6",
        ),
        (
            Scenario::new(WorkloadSpec::Btio(BtioConfig {
                steps: 1,
                ..BtioConfig::tiny(4)
            })),
            "no dumps: steps 1 interval 2",
        ),
        (
            Scenario::new(WorkloadSpec::Btio(BtioConfig {
                write_interval: 0,
                ..BtioConfig::tiny(4)
            })),
            "no dumps",
        ),
        (
            Scenario {
                collective: Some(CollectiveConfig {
                    cb_buffer: 0,
                    ..CollectiveConfig::default()
                }),
                ..Scenario::new(WorkloadSpec::Btio(BtioConfig::tiny(4)))
            },
            "cb_buffer",
        ),
    ];
    for (scenario, needle) in cases {
        let err = scenario.validate().expect_err("must be rejected");
        assert!(
            err.contains(needle),
            "error {err:?} does not mention {needle:?}"
        );
        // `run` must refuse the same way.
        assert!(scenario.run(&SimContext::new()).is_err());
    }
}

#[test]
fn golden_determinism_across_runs_and_thread_budgets() {
    // The determinism contract behind the CI smoke stage: the same
    // scenario file and seed produce byte-identical report JSON on every
    // run, whatever the planner thread budget.
    let scenario = smoke_scenario();
    let golden = scenario
        .run(&SimContext::new())
        .expect("scenario runs")
        .to_json_pretty();
    for threads in [1usize, 4] {
        for _ in 0..2 {
            let json = scenario
                .clone()
                .with_threads(threads)
                .run(&SimContext::new())
                .expect("scenario runs")
                .to_json_pretty();
            assert_eq!(
                json, golden,
                "report JSON diverged at threads={threads} — determinism broken"
            );
        }
    }
}

#[test]
fn context_base_overrides_win() {
    let scenario = smoke_scenario().with_threads(8); // scenario says 8 threads, seed 7
    let base = SimContext::new().with_seed(99).with_threads(2);
    let ctx = scenario.context(&base);
    assert_eq!(ctx.seed, Some(99), "caller-pinned seed wins");
    assert_eq!(ctx.threads, Some(2), "caller-pinned threads win");

    let ctx = scenario.context(&SimContext::new());
    assert_eq!(ctx.seed, Some(7), "scenario seed applies when unpinned");
    assert_eq!(ctx.threads, Some(8));
}

#[test]
fn scenario_faults_reach_the_simulator() {
    // A permanent straggler on every server must strictly slow the run.
    let scenario = smoke_scenario();
    let healthy = scenario.run(&SimContext::new()).expect("healthy run");
    let mut degraded_spec = scenario.clone();
    for server in 0..degraded_spec.build_cluster().server_count() {
        degraded_spec = degraded_spec.with_fault(FaultSpec {
            server,
            slowdown: 8.0,
            from_s: 0.0,
            until_s: None,
        });
    }
    let degraded = degraded_spec.run(&SimContext::new()).expect("degraded run");
    assert!(
        degraded.makespan_ns > healthy.makespan_ns,
        "8x slowdown on every server must increase makespan ({} vs {})",
        degraded.makespan_ns,
        healthy.makespan_ns
    );
}

#[test]
fn report_round_trips_through_json() {
    let report = smoke_scenario().run(&SimContext::new()).expect("runs");
    let json = report.to_json_pretty();
    let back = ScenarioReport::from_json(&json).expect("parses");
    assert_eq!(back, report);
}

fn three_tier_scenario() -> Scenario {
    Scenario::new(WorkloadSpec::Ior(IorConfig {
        processes: 4,
        request_size: 256 * 1024,
        file_size: 16 << 20,
        op: OpKind::Read,
        order: AccessOrder::Sequential,
        seed: 42,
    }))
    .named("test-three-tier")
    .with_cluster(ClusterSpec::Tiered(TieredCluster {
        tiers: vec![
            TierSpec {
                count: 4,
                preset: "hdd-2015".into(),
            },
            TierSpec {
                count: 2,
                preset: "ssd-2015".into(),
            },
            TierSpec {
                count: 2,
                preset: "object-store".into(),
            },
        ],
        compute_nodes: None,
        seed: None,
    }))
    .with_policy(PolicySpec::Fixed(256 * 1024))
    .with_seed(7)
}

#[test]
fn tiered_cluster_round_trips_and_validates() {
    let scenario = three_tier_scenario();
    let json = scenario.to_json_pretty();
    let back = Scenario::from_json(&json).expect("tiered scenario parses");
    assert_eq!(back, scenario);
    scenario.validate().expect("tiered scenario is valid");

    // An unknown preset and an empty tier list are both rejected.
    let bad = scenario
        .clone()
        .with_cluster(ClusterSpec::Tiered(TieredCluster {
            tiers: vec![TierSpec {
                count: 2,
                preset: "floppy-1995".into(),
            }],
            compute_nodes: None,
            seed: None,
        }));
    let err = bad.validate().expect_err("unknown preset rejected");
    assert!(err.contains("floppy-1995"), "{err}");
    let empty = scenario.with_cluster(ClusterSpec::Tiered(TieredCluster {
        tiers: vec![],
        compute_nodes: None,
        seed: None,
    }));
    assert!(empty.validate().is_err(), "empty tier list rejected");
}

#[test]
fn priced_tier_reports_nonzero_dollar_cost() {
    let report = three_tier_scenario()
        .run(&SimContext::new())
        .expect("three-tier scenario runs");
    let usd = report.plan_cost_usd.expect("priced tier yields a bill");
    assert!(usd > 0.0, "object-store tier holds bytes, bill must be > 0");
    // The dollar field round-trips through the report JSON.
    let back = ScenarioReport::from_json(&report.to_json_pretty()).expect("parses");
    assert_eq!(back, report);
    // An all-free cluster omits the field entirely (golden compatibility).
    let free = smoke_scenario().run(&SimContext::new()).expect("runs");
    assert_eq!(free.plan_cost_usd, None);
    assert!(!free.to_json_pretty().contains("plan_cost_usd"));
}
