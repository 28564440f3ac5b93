//! Ablations of the design choices DESIGN.md calls out.
//!
//! * [`abl_region`] — what does *region-level* adaptation buy over
//!   file-level and segment-level schemes? (2×2 grid: server-aware ×
//!   workload-aware.)
//! * [`abl_step`] — the grid-step precision/overhead dial of Algorithm 2.
//! * [`abl_model`] — calibrated vs ground-truth model parameters, and how
//!   often the paper's Fig. 5 case-(a) table diverges from exact geometry.
//! * [`abl_profiles`] — the K-profile future-work extension on a
//!   three-class cluster (HDD + SSD + NVMe).
//! * [`abl_straggler`] — fault injection: how healthy-calibration plans
//!   degrade when a server turns into a straggler.
//! * [`abl_multiapp`] — two applications sharing the cluster, each planned
//!   separately (the paper's Sec. IV-D discussion).

use crate::figures::FigureResult;
use crate::harness::{improvement_pct, measure, PolicyOutcome, Scale};
use harl_core::{
    case_a_params, CostKernel, FixedPolicy, HarlPolicy, LayoutPolicy, MultiProfileModel,
    MultiProfileOptimizer, OptimizerConfig, SegmentPolicy, ServerLevelPolicy, ServerLoads,
};
use harl_devices::{nvme_2020_preset, CalibrationConfig, OpKind};
use harl_middleware::collect_trace_lowered;
use harl_pfs::{simulate, ClientProgram, ClusterConfig, FileLayout, PhysRequest};
use harl_simcore::SimRng;
use harl_workloads::MultiRegionIorConfig;
use serde_json::{json, Value};

/// Region-awareness ablation on the non-uniform (Fig. 11-style) workload:
/// fixed (neither), segment-level (workload-aware only), server-level
/// (heterogeneity-aware only), HARL (both).
pub fn abl_region(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let factor = scale.ior_file as f64 / (16.0 * 1024.0 * 1024.0 * 1024.0);
    let opt = OptimizerConfig {
        max_requests_per_eval: scale.opt_sample,
        ..OptimizerConfig::default()
    };

    let policies: Vec<Box<dyn LayoutPolicy>> = vec![
        Box::new(FixedPolicy::new(64 * 1024)),
        Box::new(SegmentPolicy {
            model: model.clone(),
            segment_size: 64 << 20,
            optimizer: opt.clone(),
        }),
        Box::new(ServerLevelPolicy {
            model: model.clone(),
            optimizer: opt.clone(),
        }),
        Box::new({
            let mut p = HarlPolicy::new(model.clone());
            p.optimizer = opt.clone();
            p
        }),
    ];

    let mut text =
        String::from("\n== Ablation: region-level adaptation (non-uniform workload) ==\n");
    let mut json_parts = serde_json::Map::new();
    for op in [OpKind::Read, OpKind::Write] {
        let w = MultiRegionIorConfig::paper_default(op, factor).build();
        let outcomes: Vec<PolicyOutcome> = policies
            .iter()
            .map(|p| measure(&cluster, p.as_ref(), &w).0)
            .collect();
        let fixed = outcomes[0].throughput_mib_s;
        text.push_str(&format!("-- {op} --\n"));
        for o in &outcomes {
            text.push_str(&format!(
                "{:<14} {:>10.1} MiB/s  ({:+.1}% vs fixed)  regions={}\n",
                o.label,
                o.throughput_mib_s,
                improvement_pct(o.throughput_mib_s, fixed),
                o.regions
            ));
        }
        let harl = outcomes.last().map_or(0.0, |o| o.throughput_mib_s);
        let server_level = outcomes[2].throughput_mib_s;
        text.push_str(&format!(
            "region-level contribution on top of server-level: {:+.1}%\n",
            improvement_pct(harl, server_level)
        ));
        json_parts.insert(
            op.to_string(),
            serde_json::to_value(&outcomes).unwrap_or(Value::Null),
        );
    }
    json_parts.insert("figure".into(), json!("abl-region"));
    FigureResult {
        text,
        json: Value::Object(json_parts),
    }
}

/// Grid-step ablation: precision vs analysis cost of Algorithm 2.
// The wall-clock harness: `wall_s` is real planning time, reported beside
// the simulated results and never fed back into them.
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
pub fn abl_step(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let w = harl_workloads::IorConfig {
        processes: 16,
        request_size: 512 * 1024,
        file_size: scale.ior_file,
        op: OpKind::Read,
        order: harl_workloads::AccessOrder::Random,
        seed: 0x10,
    }
    .build();

    let mut text = String::from("\n== Ablation: Algorithm 2 grid step ==\n");
    let mut rows = Vec::new();
    for step_k in [4u64, 16, 64, 128] {
        let mut policy = HarlPolicy::new(model.clone());
        policy.optimizer = OptimizerConfig {
            step: step_k * 1024,
            max_requests_per_eval: scale.opt_sample,
            ..OptimizerConfig::default()
        };
        let started = std::time::Instant::now();
        let (outcome, _, _) = measure(&cluster, &policy, &w);
        let plan_wall = started.elapsed().as_secs_f64();
        text.push_str(&format!(
            "step {:>4}K: {:>7.1} MiB/s, (h, s) = ({}, {}) KiB, wall {:.2}s\n",
            step_k,
            outcome.throughput_mib_s,
            outcome.first_region.0 / 1024,
            outcome.first_region.1 / 1024,
            plan_wall
        ));
        rows.push(json!({
            "step_k": step_k,
            "throughput_mib_s": outcome.throughput_mib_s,
            "h": outcome.first_region.0,
            "s": outcome.first_region.1,
            "wall_s": plan_wall,
        }));
    }
    FigureResult {
        text,
        json: json!({"figure": "abl-step", "rows": rows}),
    }
}

/// Model-fidelity ablation: (a) HARL planned from calibrated vs
/// ground-truth parameters; (b) how often the paper's case-(a) table
/// matches exact geometry over random inputs.
pub fn abl_model(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::paper_default();
    let w = harl_workloads::IorConfig {
        processes: 16,
        request_size: 512 * 1024,
        file_size: scale.ior_file,
        op: OpKind::Read,
        order: harl_workloads::AccessOrder::Random,
        seed: 0x10,
    }
    .build();

    let truth = MultiProfileModel::from_cluster(&cluster);
    let calibrated =
        MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let (o_truth, _, _) = measure(&cluster, &HarlPolicy::new(truth.clone()), &w);
    let (o_cal, _, _) = measure(&cluster, &HarlPolicy::new(calibrated), &w);

    // Case-table agreement over random (offset, size, h, s) draws.
    let kernel = CostKernel::new(&truth);
    let mut rng = SimRng::new(0xAB1);
    let mut applicable = 0u64;
    let mut agree = 0u64;
    let trials = 20_000;
    for _ in 0..trials {
        let h = rng.uniform_u64(1, 64) * 4096;
        let s = rng.uniform_u64(1, 64) * 4096;
        let offset = rng.uniform_u64(0, 1 << 30);
        let size = rng.uniform_u64(1, 512) * 4096;
        if let Some(table) = case_a_params(offset, size, 6, h, 2, s) {
            applicable += 1;
            if table == ServerLoads::from_classes(&kernel.class_loads(offset, size, &[h, s])) {
                agree += 1;
            }
        }
    }
    let agree_pct = 100.0 * agree as f64 / applicable.max(1) as f64;

    let text = format!(
        "\n== Ablation: cost-model fidelity ==\n\
         HARL from ground-truth params: {:.1} MiB/s, (h, s) = ({}, {}) KiB\n\
         HARL from calibrated params:   {:.1} MiB/s, (h, s) = ({}, {}) KiB\n\
         (the Analysis Phase measurement loses essentially nothing)\n\
         Paper Fig. 5 case-(a) table vs exact geometry: {:.1}% agreement \
         over {} applicable random requests\n\
         (divergence is the documented n_b < n_e under-count; the optimizer \
         uses exact geometry)\n",
        o_truth.throughput_mib_s,
        o_truth.first_region.0 / 1024,
        o_truth.first_region.1 / 1024,
        o_cal.throughput_mib_s,
        o_cal.first_region.0 / 1024,
        o_cal.first_region.1 / 1024,
        agree_pct,
        applicable,
    );
    FigureResult {
        text,
        json: json!({
            "figure": "abl-model",
            "truth_mib_s": o_truth.throughput_mib_s,
            "calibrated_mib_s": o_cal.throughput_mib_s,
            "case_a_agreement_pct": agree_pct,
            "case_a_applicable": applicable,
        }),
    }
}

/// Multi-application ablation — the paper's Sec. IV-D discussion: two
/// applications with different patterns share the cluster, each planned
/// separately by HARL ("we may apply our method on different workloads
/// separately").
pub fn abl_multiapp(scale: &Scale) -> FigureResult {
    use harl_middleware::run_shared;
    let cluster = ClusterConfig::paper_default();
    let ccfg = harl_middleware::CollectiveConfig::default();
    let size = scale.ior_file / 4;

    let mk = |req: u64, seed: u64| {
        harl_workloads::IorConfig {
            processes: 8,
            request_size: req,
            file_size: size,
            op: OpKind::Read,
            order: harl_workloads::AccessOrder::Random,
            seed,
        }
        .build()
    };
    let app_big = mk(512 * 1024, 1);
    let app_small = mk(128 * 1024, 2);

    // Per-app plans (each from its own trace), vs the shared default.
    let harl = crate::harness::harl_policy(&cluster, scale);
    let plan = |w: &harl_middleware::Workload| {
        let trace = collect_trace_lowered(&cluster, w, &ccfg);
        harl.plan(&crate::harness::context(), &trace, w.extent().max(1))
    };
    let rst_big = plan(&app_big);
    let rst_small = plan(&app_small);
    let default_big = FixedPolicy::new(64 * 1024).plan(
        &crate::harness::context(),
        &harl_core::Trace::new(),
        size,
    );
    let default_small = default_big.clone();

    let shared_default = run_shared(
        &crate::harness::context(),
        &cluster,
        &[(&default_big, &app_big), (&default_small, &app_small)],
        &ccfg,
    );
    let shared_harl = run_shared(
        &crate::harness::context(),
        &cluster,
        &[(&rst_big, &app_big), (&rst_small, &app_small)],
        &ccfg,
    );

    let mut text = String::from(
        "
== Ablation: two applications sharing the cluster (Sec. IV-D) ==
",
    );
    let mut rows = Vec::new();
    for (label, report) in [
        ("default-64K", &shared_default),
        ("HARL-per-app", &shared_harl),
    ] {
        text.push_str(&format!(
            "{:<14} app1(512K): {:>7.1} MiB/s   app2(128K): {:>7.1} MiB/s   cluster: {:>7.1} MiB/s
",
            label,
            report.per_app[0].throughput_mib_s,
            report.per_app[1].throughput_mib_s,
            report.combined.throughput_mib_s(),
        ));
        rows.push(json!({
            "label": label,
            "app1_mib_s": report.per_app[0].throughput_mib_s,
            "app2_mib_s": report.per_app[1].throughput_mib_s,
            "cluster_mib_s": report.combined.throughput_mib_s(),
        }));
    }
    let gain = improvement_pct(
        shared_harl.combined.throughput_mib_s(),
        shared_default.combined.throughput_mib_s(),
    );
    text.push_str(&format!(
        "per-app HARL planning under contention: {gain:+.1}% cluster throughput
"
    ));
    FigureResult {
        text,
        json: json!({"figure": "abl-multiapp", "rows": rows}),
    }
}

/// Straggler-robustness ablation: HARL plans from a healthy calibration;
/// how do the plans degrade when one server turns into a straggler at run
/// time? (Fault injection via [`harl_pfs::Degradation`].)
pub fn abl_straggler(scale: &Scale) -> FigureResult {
    use harl_pfs::Degradation;
    let w = harl_workloads::IorConfig {
        processes: 16,
        request_size: 512 * 1024,
        file_size: scale.ior_file,
        op: OpKind::Read,
        order: harl_workloads::AccessOrder::Random,
        seed: 0x10,
    }
    .build();

    // Plan both layouts once, on the healthy cluster.
    let healthy = ClusterConfig::paper_default();
    let harl = crate::harness::harl_policy(&healthy, scale);
    let trace = collect_trace_lowered(&healthy, &w, &harl_middleware::CollectiveConfig::default());
    let harl_rst = harl.plan(&crate::harness::context(), &trace, w.extent().max(1));
    let default_rst =
        FixedPolicy::new(64 * 1024).plan(&crate::harness::context(), &trace, w.extent().max(1));

    let scenarios: Vec<(&str, ClusterConfig)> = vec![
        ("healthy", healthy.clone()),
        (
            "hserver#0 4x slow",
            ClusterConfig::paper_default().with_degradation(Degradation::permanent(0, 4.0)),
        ),
        (
            "sserver#6 4x slow",
            ClusterConfig::paper_default().with_degradation(Degradation::permanent(6, 4.0)),
        ),
    ];

    let mut text =
        String::from("\n== Ablation: straggler robustness (plans from healthy calibration) ==\n");
    text.push_str(&format!(
        "{:<20} {:>14} {:>14} {:>12}\n",
        "scenario", "default MiB/s", "HARL MiB/s", "HARL adv."
    ));
    let mut rows = Vec::new();
    for (label, cluster) in &scenarios {
        let d = harl_middleware::run_workload(
            &crate::harness::context(),
            cluster,
            &default_rst,
            &w,
            &harl_middleware::CollectiveConfig::default(),
        )
        .throughput_mib_s();
        let h = harl_middleware::run_workload(
            &crate::harness::context(),
            cluster,
            &harl_rst,
            &w,
            &harl_middleware::CollectiveConfig::default(),
        )
        .throughput_mib_s();
        text.push_str(&format!(
            "{:<20} {:>14.1} {:>14.1} {:>11.1}%\n",
            label,
            d,
            h,
            improvement_pct(h, d)
        ));
        rows.push(json!({"scenario": label, "default_mib_s": d, "harl_mib_s": h}));
    }
    text.push_str(
        "note: HARL concentrates bytes on SServers, so an SServer straggler\n\
         erodes its advantage far more than an HServer straggler — the\n\
         motivation for the on-line monitor (harl-core::online), which would\n\
         re-plan once the drifted service times are re-calibrated.\n",
    );
    FigureResult {
        text,
        json: json!({"figure": "abl-straggler", "rows": rows}),
    }
}

/// K-profile ablation: a three-class cluster (4 HDD + 2 SSD + 2 NVMe).
/// Compares fixed 64 KiB striping, the best two-class varied layout
/// (treating SSD and NVMe as one class), and the K-profile coordinate
/// descent with one width per class.
pub fn abl_profiles(scale: &Scale) -> FigureResult {
    let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
    let w = harl_workloads::IorConfig {
        processes: 16,
        request_size: 512 * 1024,
        file_size: scale.ior_file / 2,
        op: OpKind::Read,
        order: harl_workloads::AccessOrder::Random,
        seed: 0x10,
    }
    .build();
    let trace = collect_trace_lowered(&cluster, &w, &harl_middleware::CollectiveConfig::default());
    let sorted = trace.sorted_by_offset();
    let sample: Vec<(u64, u64, OpKind)> = sorted
        .iter()
        .step_by(sorted.len().div_ceil(scale.opt_sample).max(1))
        .map(|r| (r.offset, r.size, r.op))
        .collect();

    // Candidate layouts as per-class widths [hdd, ssd, nvme].
    let model = MultiProfileModel::from_cluster(&cluster);
    let optimizer = MultiProfileOptimizer::new(model.clone());
    let (k_widths, _) = optimizer.optimize(&sample, 512 * 1024);

    // Two-class approximation: SSD and NVMe share one width — optimise the
    // pair on a pseudo two-class model (SSD params for the fast class),
    // then apply that width to both fast classes.
    let pair_model = MultiProfileModel::new(
        &cluster.network,
        vec![
            (4, cluster.classes[0].profile.clone()),
            (4, cluster.classes[1].profile.clone()),
        ],
    );
    let reqs = harl_core::RegionRequests::new(&sorted, 0);
    let pair = harl_core::optimize_region(
        &crate::harness::context(),
        &pair_model,
        &reqs,
        512 * 1024,
        &OptimizerConfig {
            max_requests_per_eval: scale.opt_sample,
            ..OptimizerConfig::default()
        },
        0,
    );

    let layouts: Vec<(String, Vec<u64>)> = vec![
        ("fixed-64K".into(), vec![64 * 1024, 64 * 1024, 64 * 1024]),
        ("two-class".into(), vec![pair.h(), pair.s(), pair.s()]),
        ("k-profile".into(), k_widths.clone()),
    ];

    let mut text = String::from("\n== Ablation: K server profiles (4 HDD + 2 SSD + 2 NVMe) ==\n");
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for (label, widths) in &layouts {
        let mut pairs = Vec::new();
        let mut class_base = 0usize;
        for (class, &width) in cluster.classes.iter().zip(widths) {
            for sid in class_base..class_base + class.count {
                pairs.push((sid, width));
            }
            class_base += class.count;
        }
        let layout = FileLayout::custom(pairs);
        // Run the workload directly against the single custom file.
        let programs: Vec<ClientProgram> = w
            .ranks
            .iter()
            .map(|rank| {
                let mut p = ClientProgram::new();
                for step in &rank.steps {
                    if let harl_middleware::LogicalStep::Independent(reqs) = step {
                        for r in reqs {
                            p.push_request(PhysRequest {
                                file: 0,
                                op: r.op,
                                offset: r.offset,
                                size: r.size,
                            });
                        }
                    }
                }
                p
            })
            .collect();
        let report = simulate(&crate::harness::context(), &cluster, &[layout], &programs);
        let tput = report.throughput_mib_s();
        if label == "fixed-64K" {
            baseline = tput;
        }
        text.push_str(&format!(
            "{:<10} widths {:>4}/{:>4}/{:>4} KiB: {:>7.1} MiB/s ({:+.1}% vs fixed)\n",
            label,
            widths[0] / 1024,
            widths[1] / 1024,
            widths[2] / 1024,
            tput,
            improvement_pct(tput, baseline)
        ));
        rows.push(json!({"label": label, "widths": widths, "throughput_mib_s": tput}));
    }
    text.push_str(
        "note: when the K-profile descent loads the fastest class heavily, its\n\
         GbE NIC (not its device) becomes the bound — a contention effect the\n\
         max-decomposed cost model cannot see, so the two-class approximation\n\
         can win on NIC-bound configurations. Faster devices only pay off up\n\
         to the server's network rate.\n",
    );
    FigureResult {
        text,
        json: json!({"figure": "abl-profiles", "rows": rows}),
    }
}
