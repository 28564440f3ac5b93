//! On-line drift detection — the paper's future work ("explore on-line
//! data layout and data migration methods") in action.
//!
//! An application is planned for 512 KiB requests; mid-life it switches to
//! a 128 KiB pattern. The monitor watches the live stream, confirms the
//! drift over consecutive windows, re-plans the affected region, and
//! quantifies the migration bill and its break-even point.
//!
//! ```sh
//! cargo run --release --example drift_monitor
//! ```

use harl_repro::harl::{OnlineConfig, OnlineMonitor};
use harl_repro::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());

    // Day 1: plan for the traced 512 KiB pattern.
    let old = IorConfig::paper_default(OpKind::Read, GIB).build();
    let old_trace = collect_trace_lowered(&cluster, &old, &ccfg);
    let rst = HarlPolicy::new(model.clone()).plan(&SimContext::new(), &old_trace, 16 * GIB);
    let e = &rst.entries()[0];
    println!(
        "planned for 512KiB requests: (h, s) = ({}, {})",
        ByteSize(e.h()),
        ByteSize(e.s())
    );

    // Day 30: the pattern drifts to 128 KiB requests.
    let new = IorConfig {
        processes: 16,
        request_size: 128 * KIB,
        file_size: GIB,
        op: OpKind::Read,
        order: AccessOrder::Random,
        seed: 99,
    }
    .build();
    let live = collect_trace_lowered(&cluster, &new, &ccfg);

    let mut monitor = OnlineMonitor::new(model, rst, vec![512 * KIB], OnlineConfig::default());
    let mut fired = 0;
    for (i, rec) in live.records().iter().enumerate() {
        for event in monitor.observe(*rec) {
            fired += 1;
            println!(
                "\nafter {} live requests: drift confirmed in region {}",
                i + 1,
                event.region
            );
            println!(
                "  planned avg {} -> observed avg {}",
                ByteSize(event.planned_avg),
                ByteSize(event.observed_avg)
            );
            println!(
                "  re-plan ({}, {}) -> ({}, {})",
                ByteSize(event.old[0]),
                ByteSize(event.old[1]),
                ByteSize(event.new[0]),
                ByteSize(event.new[1])
            );
            println!(
                "  migration: {} to re-stripe; saves {:.2} ms/request",
                ByteSize(event.migration_bytes),
                event.saving_per_request_s * 1e3
            );
            if let Some(n) = event.break_even_requests(400.0 * 1024.0 * 1024.0) {
                println!("  pays for itself after {n} requests at 400 MiB/s migration speed");
            }
        }
    }
    assert!(fired > 0, "drift should have been detected");
    let adapted = &monitor.current_rst().entries()[0];
    println!(
        "\nactive layout now: (h, s) = ({}, {})",
        ByteSize(adapted.h()),
        ByteSize(adapted.s())
    );
}
