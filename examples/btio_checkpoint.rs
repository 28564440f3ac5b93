//! BTIO-style checkpointing — the paper's scientific-application scenario.
//!
//! A block-tridiagonal solver dumps its solution array collectively every
//! few time steps and reads it back for verification (NAS BTIO, "full"
//! subtype). The middleware turns each collective dump into large
//! contiguous aggregator requests via two-phase I/O; HARL then lays the
//! checkpoint file out across the hybrid servers. The RST and R2F tables
//! are persisted next to the application, as in the paper (Sec. III-G).
//!
//! ```sh
//! cargo run --release --example btio_checkpoint
//! ```

use harl_repro::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();

    let mut cfg = BtioConfig::paper_default(16);
    cfg.grid = 52; // scaled-down grid; use 104 for the paper's 1.7 GB
    let workload = cfg.build();
    println!(
        "BTIO: grid {}^3, {} dumps of {}, total I/O {}",
        cfg.grid,
        cfg.dump_count(),
        ByteSize(cfg.dump_size()),
        ByteSize(cfg.total_io_bytes())
    );

    // What does the PFS actually see? Compare the application-level trace
    // with the post-collective (lowered) trace.
    let app_trace = collect_trace(&workload);
    let pfs_trace = collect_trace_lowered(&cluster, &workload, &ccfg);
    println!(
        "application issues {} requests (mean {}), the PFS sees {} (mean {})",
        app_trace.len(),
        ByteSize(app_trace.size_stats().mean() as u64),
        pfs_trace.len(),
        ByteSize(pfs_trace.size_stats().mean() as u64),
    );

    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let harl = HarlPolicy::new(model);
    let (rst, harl_report) = trace_plan_run(&SimContext::new(), &cluster, &harl, &workload, &ccfg);
    let (_, default_report) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * 1024),
        &workload,
        &ccfg,
    );

    let h = harl_report.throughput_mib_s();
    let d = default_report.throughput_mib_s();
    println!("\ndefault 64K : {d:.1} MiB/s");
    println!("HARL        : {h:.1} MiB/s  ({:+.1}%)", 100.0 * (h - d) / d);

    // Persist the layout artifacts like the paper does (loaded at
    // MPI_Init in later runs).
    let dir = std::env::temp_dir().join("harl-btio-example");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let rst_path = dir.join("checkpoint.rst.json");
    rst.save_to_path(&rst_path).expect("persist RST");
    println!("\nRST persisted to {}", rst_path.display());
    let reloaded = RegionStripeTable::load_from_path(&rst_path).expect("reload RST");
    assert_eq!(reloaded, rst);
    println!("reloaded RST matches ({} regions)", reloaded.len());
}
