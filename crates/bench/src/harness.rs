//! Shared experiment plumbing: scales, policy sets, measurement, tables.

use harl_core::{
    FixedPolicy, HarlPolicy, LayoutPolicy, MultiProfileModel, OptimizerConfig, RandomPolicy,
    RegionStripeTable,
};
use harl_devices::CalibrationConfig;
use harl_middleware::{trace_plan_run, CollectiveConfig, Workload};
use harl_pfs::{ClusterConfig, SimReport};
use harl_simcore::metrics::MemoryRecorder;
use harl_simcore::SimContext;
use serde::Serialize;
use std::sync::{Arc, OnceLock};

static GLOBAL_RECORDER: OnceLock<Arc<MemoryRecorder>> = OnceLock::new();
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

/// Pin the planner thread budget for every subsequent [`measure`] call
/// (the experiments binary's `--threads` flag). Results are byte-identical
/// at any setting — the planner merges its workers' results in a fixed
/// order and the simulator is single-threaded — so this is a wall-clock
/// knob, never a results knob. Idempotent like the recorder.
pub fn set_threads(threads: usize) {
    let _ = GLOBAL_THREADS.set(threads.max(1));
}

/// Install a process-wide in-memory recorder; every subsequent
/// [`measure`] call streams its metrics and request spans into it.
/// Idempotent: repeated calls return the same recorder.
pub fn install_recorder() -> Arc<MemoryRecorder> {
    GLOBAL_RECORDER
        .get_or_init(|| Arc::new(MemoryRecorder::new()))
        .clone()
}

/// The context [`measure`] runs under: carrying the installed recorder,
/// or a plain disabled-recorder context when [`install_recorder`] was
/// never called (the default, costing one `is_enabled()` virtual call per
/// instrumentation site).
pub fn context() -> SimContext {
    let ctx = match GLOBAL_RECORDER.get() {
        Some(r) => SimContext::recorded(r.clone()),
        None => SimContext::new(),
    };
    match GLOBAL_THREADS.get() {
        Some(&t) => ctx.with_threads(t),
        None => ctx,
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// IOR shared-file size.
    pub ior_file: u64,
    /// BTIO grid points per dimension.
    pub btio_grid: usize,
    /// Cap on requests per optimizer cost evaluation.
    pub opt_sample: usize,
}

impl Scale {
    /// Reduced sizes for quick runs (shape-identical to the paper scale).
    pub fn quick() -> Self {
        Scale {
            ior_file: 2 << 30,
            btio_grid: 52,
            opt_sample: 1024,
        }
    }

    /// The paper's sizes: 16 GiB IOR files, ≈1.7 GB BTIO I/O.
    pub fn paper() -> Self {
        Scale {
            ior_file: 16 << 30,
            btio_grid: 104,
            opt_sample: 4096,
        }
    }
}

/// One measured layout policy on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyOutcome {
    /// Policy label ("64K", "rand…", "HARL").
    pub label: String,
    /// Aggregate throughput in MiB/s (bytes moved / makespan).
    pub throughput_mib_s: f64,
    /// Makespan in seconds.
    pub makespan_s: f64,
    /// The chosen `(h, s)` of the plan's first region, for reporting.
    pub first_region: (u64, u64),
    /// Number of RST regions.
    pub regions: usize,
}

/// Build the paper's comparison set for a cluster: fixed stripes
/// {16K, 64K, 256K, 1M, 2M}, two random draws, and HARL driven by
/// *calibrated* device parameters (the Analysis Phase pipeline).
pub fn paper_policies(cluster: &ClusterConfig, scale: &Scale) -> Vec<Box<dyn LayoutPolicy>> {
    let mut policies: Vec<Box<dyn LayoutPolicy>> = Vec::new();
    for stripe in [16u64, 64, 256, 1024, 2048] {
        policies.push(Box::new(FixedPolicy::new(stripe * 1024)));
    }
    policies.push(Box::new(RandomPolicy::new(1)));
    policies.push(Box::new(RandomPolicy::new(2)));
    policies.push(Box::new(harl_policy(cluster, scale)));
    policies
}

/// HARL with the calibrated model for `cluster` at the given scale.
pub fn harl_policy(cluster: &ClusterConfig, scale: &Scale) -> HarlPolicy {
    let model = MultiProfileModel::from_cluster_calibrated(cluster, &CalibrationConfig::default());
    let mut policy = HarlPolicy::new(model);
    policy.optimizer = OptimizerConfig {
        max_requests_per_eval: scale.opt_sample,
        ..OptimizerConfig::default()
    };
    policy
}

/// Run one policy on one workload and summarise.
pub fn measure(
    cluster: &ClusterConfig,
    policy: &dyn LayoutPolicy,
    workload: &Workload,
) -> (PolicyOutcome, RegionStripeTable, SimReport) {
    let (rst, report) = trace_plan_run(
        &context(),
        cluster,
        policy,
        workload,
        &CollectiveConfig::default(),
    );
    let first = &rst.entries()[0];
    let outcome = PolicyOutcome {
        label: policy.label(),
        throughput_mib_s: report.throughput_mib_s(),
        makespan_s: report.makespan.as_secs_f64(),
        first_region: (first.h(), first.s()),
        regions: rst.len(),
    };
    (outcome, rst, report)
}

/// Percentage improvement of `new` over `old`.
pub fn improvement_pct(new: f64, old: f64) -> f64 {
    if old <= 0.0 {
        return 0.0;
    }
    100.0 * (new - old) / old
}

/// Render outcomes as an aligned text table with improvement vs. a
/// baseline label (the paper compares against the 64K default).
pub fn render_table(title: &str, outcomes: &[PolicyOutcome], baseline_label: &str) -> String {
    let baseline = outcomes
        .iter()
        .find(|o| o.label == baseline_label)
        .map(|o| o.throughput_mib_s);
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<14} {:>12} {:>10} {:>14} {:>8}\n",
        "layout", "MiB/s", "vs 64K", "(h, s) KiB", "regions"
    ));
    for o in outcomes {
        let vs = baseline
            .map(|b| format!("{:+.1}%", improvement_pct(o.throughput_mib_s, b)))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>10} {:>14} {:>8}\n",
            o.label,
            o.throughput_mib_s,
            vs,
            format!("({}, {})", o.first_region.0 / 1024, o.first_region.1 / 1024),
            o.regions
        ));
    }
    out
}

/// The best outcome by throughput (`None` on an empty slice).
pub fn best(outcomes: &[PolicyOutcome]) -> Option<&PolicyOutcome> {
    outcomes.iter().reduce(|a, b| {
        if b.throughput_mib_s > a.throughput_mib_s {
            b
        } else {
            a
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_devices::OpKind;
    use harl_workloads::IorConfig;

    #[test]
    fn measure_produces_sane_numbers() {
        let cluster = ClusterConfig::paper_default();
        let w = IorConfig {
            processes: 4,
            request_size: 512 * 1024,
            file_size: 64 << 20,
            op: OpKind::Read,
            order: harl_workloads::AccessOrder::Random,
            seed: 1,
        }
        .build();
        let policy = FixedPolicy::new(64 * 1024);
        let (outcome, rst, report) = measure(&cluster, &policy, &w);
        assert!(outcome.throughput_mib_s > 0.0);
        assert_eq!(rst.len(), 1);
        assert_eq!(report.bytes_read, 64 << 20);
    }

    #[test]
    fn improvement_math() {
        assert!((improvement_pct(150.0, 100.0) - 50.0).abs() < 1e-9);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn table_includes_all_rows() {
        let outcomes = vec![
            PolicyOutcome {
                label: "64K".into(),
                throughput_mib_s: 100.0,
                makespan_s: 1.0,
                first_region: (65536, 65536),
                regions: 1,
            },
            PolicyOutcome {
                label: "HARL".into(),
                throughput_mib_s: 170.0,
                makespan_s: 0.6,
                first_region: (32768, 163840),
                regions: 1,
            },
        ];
        let table = render_table("t", &outcomes, "64K");
        assert!(table.contains("64K"));
        assert!(table.contains("HARL"));
        assert!(table.contains("+70.0%"));
        assert_eq!(best(&outcomes).map(|o| o.label.as_str()), Some("HARL"));
    }
}
