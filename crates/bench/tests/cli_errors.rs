//! `harl-cli` answers bad input a user supplies with a message and an
//! exit code, never a panic: exit 2 for bad flags, exit 1 for a bad file.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One 512 KiB read: enough trace for `plan` and `simulate` to start.
const TRACE: &str =
    "{\"rank\":0,\"fd\":0,\"op\":\"Read\",\"offset\":0,\"size\":524288,\"timestamp\":0}\n";

/// A directory holding `trace.jsonl` and `rst.json` (with `rst` as its
/// contents), private to one test: tests run in parallel.
fn inputs(test: &str, rst: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-cli-errors-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the input directory");
    std::fs::write(dir.join("trace.jsonl"), TRACE).expect("write the trace");
    std::fs::write(dir.join("rst.json"), rst).expect("write the RST");
    dir
}

/// Run `harl-cli` with `args`, check it exits with `code` and a message
/// but without a panic, and return its stderr.
fn expect_exit(args: &[&str], code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_harl-cli"))
        .args(args)
        .output()
        .expect("harl-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    stderr
}

fn simulate(dir: &Path, flags: &[&str], code: i32) -> String {
    let trace = dir.join("trace.jsonl");
    let rst = dir.join("rst.json");
    let mut args = vec!["simulate", trace.to_str().unwrap(), rst.to_str().unwrap()];
    args.extend_from_slice(flags);
    expect_exit(&args, code)
}

#[test]
fn rst_row_with_three_widths_on_two_classes_exits_1() {
    let dir = inputs(
        "three-widths",
        r#"{"entries": [{"offset": 0, "len": 1048576, "widths": [65536, 65536, 65536]}]}"#,
    );
    let stderr = simulate(&dir, &[], 1);
    assert!(stderr.contains("row 0"), "{stderr}");
    assert!(
        stderr.contains("one stripe width per server class"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rst_row_with_widths_only_on_an_empty_class_exits_1() {
    let dir = inputs(
        "empty-class",
        r#"{"entries": [{"offset": 0, "len": 1048576, "h": 0, "s": 65536}]}"#,
    );
    let stderr = simulate(&dir, &["--sservers", "0"], 1);
    assert!(stderr.contains("row 0"), "{stderr}");
    assert!(stderr.contains("no capacity"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_without_servers_is_a_usage_error() {
    let dir = inputs(
        "no-servers",
        r#"{"entries": [{"offset": 0, "len": 1048576, "h": 65536, "s": 65536}]}"#,
    );
    let none = ["--hservers", "0", "--sservers", "0"];
    simulate(&dir, &none, 2);
    let trace = dir.join("trace.jsonl");
    let mut plan = vec!["plan", trace.to_str().unwrap(), "--file-size", "1M"];
    plan.extend_from_slice(&none);
    expect_exit(&plan, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_or_overflowing_sizes_are_usage_errors() {
    let dir = inputs(
        "sizes",
        r#"{"entries": [{"offset": 0, "len": 1048576, "h": 65536, "s": 65536}]}"#,
    );
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().unwrap();
    for (cmd, flag, size) in [
        ("plan", "--file-size", "0"),
        // 2^34 GiB is 2^64 bytes: one past u64::MAX.
        ("plan", "--file-size", "17179869184G"),
        ("plan", "--region-size", "0"),
        ("trace-info", "--region-size", "0"),
    ] {
        let stderr = expect_exit(&[cmd, trace, flag, size], 2);
        assert!(stderr.contains(flag), "{cmd} {flag} {size}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_record_past_u64_exits_1() {
    let dir = inputs(
        "trace-overflow",
        r#"{"entries": [{"offset": 0, "len": 1048576, "h": 65536, "s": 65536}]}"#,
    );
    // offset + size is 2^64 + 64920: the record's extent wraps.
    let wrapping =
        "{\"rank\":0,\"fd\":0,\"op\":\"Read\",\"offset\":18446744073709551000,\"size\":65536,\"timestamp\":0}\n";
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, format!("{TRACE}{wrapping}")).expect("write the trace");
    let trace = trace.to_str().unwrap();
    let named =
        |stderr: &str| stderr.contains("trace.jsonl:2:") && stderr.contains("overflows u64");
    let stderr = simulate(&dir, &[], 1);
    assert!(named(&stderr), "simulate: {stderr}");
    for args in [
        vec!["trace-info", trace],
        vec!["plan", trace, "--file-size", "1M"],
    ] {
        let stderr = expect_exit(&args, 1);
        assert!(named(&stderr), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rst_row_past_u64_exits_1() {
    // Row 1 wraps to end at 5, where row 2 starts: it tiles only because
    // its end wrapped.
    let dir = inputs(
        "rst-overflow",
        r#"{"entries": [
            {"offset": 0, "len": 10, "h": 1, "s": 1},
            {"offset": 10, "len": 18446744073709551611, "h": 1, "s": 1},
            {"offset": 5, "len": 10, "h": 1, "s": 1}
        ]}"#,
    );
    let rst = dir.join("rst.json");
    let stderr = expect_exit(&["inspect", rst.to_str().unwrap()], 1);
    assert!(stderr.contains("row 1"), "{stderr}");
    assert!(stderr.contains("overflows u64"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixed_stripe_whose_group_overflows_exits_1() {
    // 8 servers × 2^62 bytes wraps the stripe group to 0.
    let dir = inputs("fixed-overflow", "{}");
    let smoke = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.json"),
    )
    .expect("read the smoke scenario");
    let scenario = smoke.replace(
        r#""policy": "Harl""#,
        r#""policy": {"Fixed": 4611686018427387904}"#,
    );
    assert_ne!(scenario, smoke, "the smoke scenario names its policy");
    let path = dir.join("scenario.json");
    std::fs::write(&path, scenario).expect("write the scenario");
    let stderr = expect_exit(&["run", "--scenario", path.to_str().unwrap()], 1);
    assert!(stderr.contains("overflows u64"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_for_huge_requests_keeps_groups_in_u64() {
    // One 2^62-byte read: R̄ is so large that most grid pairs' group
    // 6h + 2s would pass u64::MAX.
    let dir = inputs("plan-huge", "{}");
    let trace = dir.join("trace.jsonl");
    std::fs::write(
        &trace,
        "{\"rank\":0,\"fd\":0,\"op\":\"Read\",\"offset\":0,\"size\":4611686018427387904,\"timestamp\":0}\n",
    )
    .expect("write the trace");
    let rst = dir.join("rst.json");
    let out = Command::new(env!("CARGO_BIN_EXE_harl-cli"))
        .args([
            "plan",
            trace.to_str().unwrap(),
            "--out",
            rst.to_str().unwrap(),
        ])
        .output()
        .expect("harl-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let table = harl_core::RegionStripeTable::load_from_path(&rst).expect("load the plan");
    let cluster = harl_pfs::ClusterConfig::paper_default();
    for (i, e) in table.entries().iter().enumerate() {
        let layout = harl_pfs::FileLayout::try_for_classes(&cluster, e.widths());
        assert!(layout.is_ok(), "row {i} {:?}: {layout:?}", e.widths());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rst_row_whose_group_overflows_exits_1() {
    // 6h + 2s is about 1.9·10^19 bytes: past u64::MAX, so the group wraps.
    let dir = inputs(
        "group-overflow",
        r#"{"entries": [{"offset": 0, "len": 4611686018427387904,
            "h": 2341871806232657920, "s": 2485986994308513792}]}"#,
    );
    let stderr = simulate(&dir, &[], 1);
    assert!(stderr.contains("row 0"), "{stderr}");
    assert!(stderr.contains("overflows u64"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn impossible_serve_specs_exit_1() {
    use harl_repro::scenario::{ClusterSpec, HybridCluster, ServeSpec, TierSpec, TieredCluster};

    let dir = inputs("serve", "{}");
    let multiapp = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/multiapp.json"),
    )
    .expect("read the multiapp spec");
    let base: ServeSpec = serde_json::from_str(&multiapp).expect("parse the multiapp spec");
    let hybrid = |hservers, sservers, compute_nodes| {
        ClusterSpec::Hybrid(HybridCluster {
            hservers,
            sservers,
            compute_nodes,
            seed: None,
        })
    };
    let floppy = ClusterSpec::Tiered(TieredCluster {
        tiers: vec![TierSpec {
            count: 4,
            preset: "floppy".into(),
        }],
        compute_nodes: None,
        seed: None,
    });
    let edited = |edit: &dyn Fn(&mut ServeSpec)| {
        let mut spec = base.clone();
        edit(&mut spec);
        spec
    };
    // Each impossible spec, and a word its message must name.
    let cases = [
        (
            "at least one server",
            edited(&|s| s.cluster = hybrid(0, 0, None)),
        ),
        (
            "compute node",
            edited(&|s| s.cluster = hybrid(6, 2, Some(0))),
        ),
        ("floppy", edited(&|s| s.cluster = floppy.clone())),
        (
            "serve.optimizer.step",
            edited(&|s| s.serve.optimizer.step = 0),
        ),
        (
            "serve.online.optimizer.step",
            edited(&|s| s.serve.online.optimizer.step = 0),
        ),
        (
            "serve.division.fixed_region_size",
            edited(&|s| s.serve.division.fixed_region_size = 0),
        ),
        (
            "serve.online.drift_ratio",
            edited(&|s| s.serve.online.drift_ratio = 1.0),
        ),
        // A threshold that cannot grow repeats the same division every
        // round, so a huge `max_rounds` would spin.
        (
            "serve.division.initial_threshold_pct",
            edited(&|s| s.serve.division.initial_threshold_pct = 0.0),
        ),
        (
            "serve.division.threshold_growth",
            edited(&|s| s.serve.division.threshold_growth = 1.0),
        ),
        // An 8 MiB phase shared by 4,096 processes leaves each 2 KiB,
        // less than the smallest (4 KiB) request.
        ("traffic.processes", edited(&|s| s.traffic.processes = 4096)),
    ];
    for (i, (needle, spec)) in cases.iter().enumerate() {
        let path = dir.join(format!("serve-{i}.json"));
        std::fs::write(&path, spec.to_json_pretty()).expect("write the spec");
        let stderr = expect_exit(&["serve", "--scenario", path.to_str().unwrap()], 1);
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_on_a_file_too_small_for_one_request_per_process_exits_1() {
    use harl_repro::prelude::{
        AccessOrder, IorConfig, MultiRegionIorConfig, OpKind, Phase, PhasedConfig, Scenario,
        WorkloadSpec,
    };

    // 3 processes share 100,000 bytes: 33,333 each, less than one
    // 65,536-byte request.
    let dir = inputs("too-small", "{}");
    let ior = WorkloadSpec::Ior(IorConfig {
        processes: 3,
        request_size: 65_536,
        file_size: 100_000,
        op: OpKind::Read,
        order: AccessOrder::Sequential,
        seed: 1,
    });
    let phased = WorkloadSpec::Phased(PhasedConfig {
        phases: vec![Phase::new(0, 100_000, 65_536, OpKind::Write)],
        processes: 3,
        seed: 1,
    });
    let multi_region = WorkloadSpec::MultiRegionIor(MultiRegionIorConfig {
        regions: vec![(100_000, 65_536)],
        processes: 3,
        op: OpKind::Read,
        seed: 1,
    });
    for (i, workload) in [ior, phased, multi_region].into_iter().enumerate() {
        let path = dir.join(format!("scenario-{i}.json"));
        std::fs::write(&path, Scenario::new(workload).to_json_pretty())
            .expect("write the scenario");
        let stderr = expect_exit(&["run", "--scenario", path.to_str().unwrap()], 1);
        assert!(stderr.contains("33333 bytes"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_whose_simulated_time_overflows_exits_1() {
    use harl_repro::prelude::{AccessOrder, IorConfig, OpKind, Scenario, WorkloadSpec};

    // A 10^15× slowdown, or one 2^61-byte request, gives a service time
    // past u64::MAX nanoseconds; the clock must peg, not wrap into an
    // event scheduled before the current time.
    let dir = inputs("time-overflow", "{}");
    let smoke = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.json"),
    )
    .expect("read the smoke scenario");
    let slow = smoke.replace(r#""slowdown": 2.0"#, r#""slowdown": 1e15"#);
    assert_ne!(slow, smoke, "the smoke scenario has a 2x fault");
    let huge = Scenario::new(WorkloadSpec::Ior(IorConfig {
        processes: 1,
        request_size: 1 << 61,
        file_size: 1 << 62,
        op: OpKind::Read,
        order: AccessOrder::Sequential,
        seed: 1,
    }))
    .to_json_pretty();
    for (i, scenario) in [slow, huge].into_iter().enumerate() {
        let path = dir.join(format!("scenario-{i}.json"));
        std::fs::write(&path, scenario).expect("write the scenario");
        let stderr = expect_exit(&["run", "--scenario", path.to_str().unwrap()], 1);
        assert!(stderr.contains("simulated time overflowed"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_whose_simulated_time_overflows_exits_1() {
    // One 2^62-byte read striped over every server.
    let dir = inputs(
        "simulate-overflow",
        r#"{"entries": [{"offset": 0, "len": 4611686018427387904, "h": 65536, "s": 65536}]}"#,
    );
    std::fs::write(
        dir.join("trace.jsonl"),
        "{\"rank\":0,\"fd\":0,\"op\":\"Read\",\"offset\":0,\"size\":4611686018427387904,\"timestamp\":0}\n",
    )
    .expect("write the trace");
    let stderr = simulate(&dir, &[], 1);
    assert!(stderr.contains("simulated time overflowed"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
