//! Quickstart: the whole HARL pipeline in one page.
//!
//! Builds the paper's default hybrid cluster (6 HServers + 2 SServers),
//! traces an IOR-like workload, plans a layout with HARL, and compares the
//! result against the traditional 64 KiB fixed-stripe default.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use harl_repro::prelude::*;

fn main() {
    // 1. The platform: the paper's testbed shape.
    let cluster = ClusterConfig::paper_default();
    println!(
        "cluster: {} HServers + {} SServers, {} compute nodes",
        cluster.hserver_count(),
        cluster.sserver_count(),
        cluster.compute_nodes
    );

    // 2. The application: IOR, 16 processes, 512 KiB random requests over a
    //    shared 1 GiB file (scaled down from the paper's 16 GiB).
    let workload = IorConfig::paper_default(OpKind::Read, GIB).build();

    // 3. Analysis Phase inputs: *measured* device parameters, exactly as
    //    the paper probes one file server of each kind.
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());

    // 4. Trace -> plan -> place -> run, under HARL and under the default.
    let ccfg = CollectiveConfig::default();
    let harl = HarlPolicy::new(model);
    let (rst, harl_report) = trace_plan_run(&SimContext::new(), &cluster, &harl, &workload, &ccfg);
    let (_, default_report) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * 1024),
        &workload,
        &ccfg,
    );

    println!("\nHARL region stripe table:");
    for (i, e) in rst.entries().iter().enumerate() {
        println!(
            "  region {i}: [{}, {}) h = {}, s = {}",
            ByteSize(e.offset),
            ByteSize(e.end()),
            ByteSize(e.h()),
            ByteSize(e.s())
        );
    }

    let h = harl_report.throughput_mib_s();
    let d = default_report.throughput_mib_s();
    println!("\ndefault 64K : {d:.1} MiB/s");
    println!("HARL        : {h:.1} MiB/s  ({:+.1}%)", 100.0 * (h - d) / d);

    // 5. Where did the imbalance go? (the paper's Fig. 1(a) view)
    println!("\nper-server busy time (normalised to fastest):");
    println!(
        "  default: {:?}",
        rounded(&default_report.normalized_server_times())
    );
    println!(
        "  HARL   : {:?}",
        rounded(&harl_report.normalized_server_times())
    );
}

fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 100.0).round() / 100.0).collect()
}
