//! Fault injection: HARL vs fixed striping on a degraded cluster.
//!
//! The paper's testbed has 6 HServers and 2 SServers; here one of the two
//! SServers (server index 6 — HServers come first) runs at quarter speed
//! for the whole run, the "permanent straggler" case. The fault plan is
//! injected through the [`SimContext`], so the *same* cluster config and
//! workload run both healthy and degraded — nothing about the experiment
//! changes except the context.
//!
//! Two observations fall out:
//!
//! 1. The *fixed* 64 KiB layout barely notices: under uniform striping
//!    the slow HServers pace every request anyway (the paper's Fig. 1(a)
//!    imbalance), so one SServer at quarter speed stays off the critical
//!    path.
//! 2. HARL is hit hard. Its plan — made from the *healthy* device
//!    profiles, before the fault is observable — deliberately shifts
//!    load onto the fast SServers, so the straggler sits exactly where
//!    HARL put the bytes and the healthy-cluster advantage inverts.
//!    This is the model-drift situation the on-line monitor exists for
//!    (see the `drift_monitor` example): the residuals between predicted
//!    and actual cost explode on the degraded servers and trigger a
//!    re-plan.
//!
//! ```sh
//! cargo run --release --example degraded_cluster
//! ```

use harl_repro::prelude::*;

fn run(ctx: &SimContext, label: &str, cluster: &ClusterConfig, workload: &Workload) {
    let model = MultiProfileModel::from_cluster_calibrated(cluster, &CalibrationConfig::default());
    let harl = HarlPolicy::new(model);
    let ccfg = CollectiveConfig::default();
    let (_, harl_report) = trace_plan_run(ctx, cluster, &harl, workload, &ccfg);
    let (_, fixed_report) =
        trace_plan_run(ctx, cluster, &FixedPolicy::new(64 * 1024), workload, &ccfg);
    let h = harl_report.throughput_mib_s();
    let f = fixed_report.throughput_mib_s();
    println!(
        "{label:<22} fixed-64K {f:>8.1} MiB/s   HARL {h:>8.1} MiB/s   ({:+.1}%)",
        100.0 * (h - f) / f
    );
}

fn main() {
    let cluster = ClusterConfig::paper_default();
    let workload = IorConfig::paper_default(OpKind::Read, 512 << 20).build();

    // Healthy baseline: the default context injects nothing.
    let healthy = SimContext::new();

    // Permanent straggler: SServer 0 (global index 6) at quarter speed
    // from t=0 forever.
    let straggler = Degradation {
        server: cluster.hserver_count(),
        from: SimNanos::ZERO,
        until: SimNanos::MAX,
        slowdown: 4.0,
    };
    let degraded = SimContext::new().with_fault(straggler);

    println!(
        "cluster: {} HServers + {} SServers; straggler = server {} at 4x service time\n",
        cluster.hserver_count(),
        cluster.sserver_count(),
        cluster.hserver_count()
    );
    run(&healthy, "healthy", &cluster, &workload);
    run(&degraded, "degraded (straggler)", &cluster, &workload);

    // The same experiment as a declarative scenario: the fault plan is
    // part of the spec, so `harl-cli run --scenario` reproduces it.
    let scenario = Scenario::new(WorkloadSpec::Ior(IorConfig::paper_default(
        OpKind::Read,
        512 << 20,
    )))
    .named("degraded-sserver")
    .with_fault(FaultSpec {
        server: cluster.hserver_count(),
        slowdown: 4.0,
        from_s: 0.0,
        until_s: None,
    });
    let report = scenario.run(&SimContext::new()).expect("scenario runs");
    println!(
        "\nsame fault via Scenario \"{}\": {:.1} MiB/s over {} regions",
        report.name, report.throughput_mib_s, report.regions
    );
}
