//! One function per results figure of the paper.
//!
//! Every function prints nothing itself; it returns the rendered table and
//! a JSON value so callers (the `experiments` binary, tests) decide what
//! to do with them. Wall time is measured by `benchmark/`.

use crate::harness::{
    best, harl_policy, improvement_pct, measure, paper_policies, render_table, PolicyOutcome, Scale,
};
use harl_core::FixedPolicy;
use harl_devices::OpKind;
use harl_middleware::Workload;
use harl_pfs::ClusterConfig;
use harl_workloads::{AccessOrder, BtioConfig, IorConfig, MultiRegionIorConfig};
use serde_json::{json, Value};

/// An experiment's renderable result.
pub struct FigureResult {
    /// Human-readable table(s).
    pub text: String,
    /// Machine-readable record for `results/`.
    pub json: Value,
}

fn ior_workload(scale: &Scale, op: OpKind, processes: usize, request_size: u64) -> Workload {
    IorConfig {
        processes,
        request_size,
        file_size: scale.ior_file,
        op,
        order: AccessOrder::Random,
        seed: 0x10,
    }
    .build()
}

/// Fig. 1(a): per-server I/O time under the default 64 KiB fixed layout,
/// normalised to the fastest server. Servers 1–6 are HServers, 7–8
/// SServers; the paper measures ≈350 % on HServers.
pub fn fig1a(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let w = ior_workload(scale, OpKind::Read, 16, 512 * 1024);
    let policy = FixedPolicy::new(64 * 1024);
    let (_, _, report) = measure(&cluster, &policy, &w);
    let norm = report.normalized_server_times();

    let mut text = String::from("\n== Fig 1(a): normalised per-server I/O time, 64K default ==\n");
    for (i, v) in norm.iter().enumerate() {
        let kind = if i < 6 { "HServer" } else { "SServer" };
        text.push_str(&format!("server {} ({kind}): {:.2}x\n", i + 1, v));
    }
    let h_mean: f64 = norm[..6].iter().sum::<f64>() / 6.0;
    text.push_str(&format!(
        "mean HServer/SServer imbalance: {:.0}% (paper: ~350%)\n",
        100.0 * h_mean
    ));
    FigureResult {
        text,
        json: json!({"figure": "1a", "normalized_times": norm, "mean_hserver_pct": 100.0*h_mean}),
    }
}

/// Fig. 1(b): IOR throughput across request sizes × fixed stripe sizes —
/// the motivation that no single fixed stripe wins everywhere.
pub fn fig1b(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let request_sizes = [128u64, 512, 1024, 2048];
    let stripes = [16u64, 64, 256, 1024, 2048];
    let mut rows = Vec::new();
    let mut text =
        String::from("\n== Fig 1(b): read throughput (MiB/s), request size x stripe ==\n");
    text.push_str(&format!("{:<10}", "req\\stripe"));
    for s in stripes {
        text.push_str(&format!("{:>9}K", s));
    }
    text.push('\n');
    for rs in request_sizes {
        text.push_str(&format!("{:<10}", format!("{rs}K")));
        let mut row = Vec::new();
        for st in stripes {
            let w = ior_workload(scale, OpKind::Read, 16, rs * 1024);
            let policy = FixedPolicy::new(st * 1024);
            let (outcome, _, _) = measure(&cluster, &policy, &w);
            text.push_str(&format!("{:>10.0}", outcome.throughput_mib_s));
            row.push(outcome.throughput_mib_s);
        }
        text.push('\n');
        rows.push(row);
    }
    FigureResult {
        text,
        json: json!({"figure": "1b", "request_sizes_k": request_sizes, "stripes_k": stripes, "throughput": rows}),
    }
}

fn run_policy_set(
    cluster: &ClusterConfig,
    workload: &Workload,
    scale: &Scale,
) -> Vec<PolicyOutcome> {
    paper_policies(cluster, scale)
        .iter()
        .map(|p| measure(cluster, p.as_ref(), workload).0)
        .collect()
}

fn outcomes_json(outcomes: &[PolicyOutcome]) -> Value {
    serde_json::to_value(outcomes).unwrap_or(Value::Null)
}

/// Fig. 7: IOR read and write throughput across all layouts (the headline
/// comparison: fixed {16K..2M}, random, HARL).
pub fn fig7(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let w = ior_workload(scale, op, 16, 512 * 1024);
        let outcomes = run_policy_set(&cluster, &w, scale);
        text.push_str(&render_table(
            &format!("Fig 7 ({op}): IOR 16 procs, 512K requests"),
            &outcomes,
            "64K",
        ));
        let (Some(harl), Some(default)) =
            (outcomes.last(), outcomes.iter().find(|o| o.label == "64K"))
        else {
            continue; // run_policy_set always yields the full policy set
        };
        text.push_str(&format!(
            "HARL vs default 64K: {:+.1}%  (paper: {} {})\n",
            improvement_pct(harl.throughput_mib_s, default.throughput_mib_s),
            if op == OpKind::Read {
                "+73.4%"
            } else {
                "+176.7%"
            },
            "on their testbed",
        ));
        json_parts.insert(op.to_string(), outcomes_json(&outcomes));
    }
    json_parts.insert("figure".into(), json!("7"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Fig. 8: IOR throughput with 8/32/128/256 processes.
pub fn fig8(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let mut per_procs = serde_json::Map::new();
        for procs in [8usize, 32, 128, 256] {
            let w = ior_workload(scale, op, procs, 512 * 1024);
            let outcomes = run_policy_set(&cluster, &w, scale);
            text.push_str(&render_table(
                &format!("Fig 8 ({op}): {procs} processes"),
                &outcomes,
                "64K",
            ));
            per_procs.insert(procs.to_string(), outcomes_json(&outcomes));
        }
        json_parts.insert(op.to_string(), Value::Object(per_procs));
    }
    json_parts.insert("figure".into(), json!("8"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Fig. 9: IOR throughput with 128 KiB and 1024 KiB requests. At 128 KiB
/// the paper's optimum is `{0K, 64K}` — SServers only.
pub fn fig9(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let mut per_size = serde_json::Map::new();
        for req_k in [128u64, 1024] {
            let w = ior_workload(scale, op, 16, req_k * 1024);
            let outcomes = run_policy_set(&cluster, &w, scale);
            text.push_str(&render_table(
                &format!("Fig 9 ({op}): request size {req_k}K"),
                &outcomes,
                "64K",
            ));
            per_size.insert(req_k.to_string(), outcomes_json(&outcomes));
        }
        json_parts.insert(op.to_string(), Value::Object(per_size));
    }
    json_parts.insert("figure".into(), json!("9"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Fig. 10: server-ratio sweep — 7 HServers : 1 SServer and 2 : 6
/// (plus the default 6 : 2 for reference).
pub fn fig10(scale: &Scale) -> FigureResult {
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for (m, n) in [(7usize, 1usize), (6, 2), (2, 6)] {
        let cluster = ClusterConfig::hybrid(m, n);
        let mut per_op = serde_json::Map::new();
        for op in [OpKind::Read, OpKind::Write] {
            let w = ior_workload(scale, op, 16, 512 * 1024);
            let outcomes = run_policy_set(&cluster, &w, scale);
            text.push_str(&render_table(
                &format!("Fig 10 ({op}): {m} HServers : {n} SServers"),
                &outcomes,
                "64K",
            ));
            per_op.insert(op.to_string(), outcomes_json(&outcomes));
        }
        json_parts.insert(format!("{m}:{n}"), Value::Object(per_op));
    }
    json_parts.insert("figure".into(), json!("10"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Fig. 11: non-uniform workload — the modified four-region IOR. This is
/// where region-level layout (vs one layout for the whole file) matters.
pub fn fig11(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    // Scale the paper's 256M/1G/2G/4G regions down proportionally to the
    // configured IOR file size (paper total ≈ 7.25 GiB at 16 GiB scale).
    let factor = scale.ior_file as f64 / (16.0 * 1024.0 * 1024.0 * 1024.0);
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let w = MultiRegionIorConfig::paper_default(op, factor).build();
        let outcomes = run_policy_set(&cluster, &w, scale);
        text.push_str(&render_table(
            &format!("Fig 11 ({op}): four-region non-uniform IOR"),
            &outcomes,
            "64K",
        ));
        let harl_regions = outcomes.last().map_or(0, |o| o.regions);
        text.push_str(&format!("HARL regions: {harl_regions}\n"));
        json_parts.insert(op.to_string(), outcomes_json(&outcomes));
    }
    json_parts.insert("figure".into(), json!("11"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Fig. 12: BTIO (class-A-sized full subtype, collective I/O) with 4, 16
/// and 64 processes.
pub fn fig12(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let mut text = String::new();
    let mut json_parts = serde_json::Map::new();
    for procs in [4usize, 16, 64] {
        let mut cfg = BtioConfig::paper_default(procs);
        cfg.grid = scale.btio_grid;
        let w = cfg.build();
        let outcomes = run_policy_set(&cluster, &w, scale);
        text.push_str(&render_table(
            &format!("Fig 12: BTIO, {procs} processes"),
            &outcomes,
            "64K",
        ));
        json_parts.insert(procs.to_string(), outcomes_json(&outcomes));
    }
    json_parts.insert("figure".into(), json!("12"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Summary line used by the `all` subcommand: the headline HARL-vs-default
/// improvements.
pub fn headline(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let mut text = String::from("\n== Headline: HARL vs 64K default (IOR 16 procs, 512K) ==\n");
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let w = ior_workload(scale, op, 16, 512 * 1024);
        let harl = harl_policy(&cluster, scale);
        let (h_out, _, _) = measure(&cluster, &harl, &w);
        let (d_out, _, _) = measure(&cluster, &FixedPolicy::new(64 * 1024), &w);
        let imp = improvement_pct(h_out.throughput_mib_s, d_out.throughput_mib_s);
        text.push_str(&format!(
            "{op}: HARL {:.0} MiB/s vs default {:.0} MiB/s ({imp:+.1}%), HARL (h,s) = ({}, {}) KiB\n",
            h_out.throughput_mib_s,
            d_out.throughput_mib_s,
            h_out.first_region.0 / 1024,
            h_out.first_region.1 / 1024,
        ));
        json_parts.insert(
            op.to_string(),
            json!({"harl": h_out.throughput_mib_s, "default": d_out.throughput_mib_s, "improvement_pct": imp}),
        );
    }
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Quick structural sanity used by tests: HARL must beat the 64K default
/// on the headline configuration at any scale.
pub fn harl_beats_default(scale: &Scale, op: OpKind) -> (f64, f64) {
    let cluster = ClusterConfig::paper_default();
    let w = ior_workload(scale, op, 16, 512 * 1024);
    let harl = harl_policy(&cluster, scale);
    let (h_out, _, _) = measure(&cluster, &harl, &w);
    let (d_out, _, _) = measure(&cluster, &FixedPolicy::new(64 * 1024), &w);
    (h_out.throughput_mib_s, d_out.throughput_mib_s)
}

/// The reference to `best` keeps the helper exercised from this module.
pub fn best_label(outcomes: &[PolicyOutcome]) -> &str {
    best(outcomes).map_or("", |o| &o.label)
}
