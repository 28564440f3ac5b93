//! Pipeline workloads: each job runs the paper's whole path through the
//! program's public API — trace collection with two-phase collective
//! lowering, HARL planning (Alg. 1 + Alg. 2), placement, middleware
//! translation and the PFS simulation.

use crate::checks::{self, Checks};
use crate::metrics::{self, Values};
use crate::stats::{median, Samples};
use crate::tally::{Lap, SpanLog, Tally};
use crate::workloads::PipelineInputs;
use harl_repro::middleware::{place, translate_workload, PlacedFile};
use harl_repro::pfs::ClientProgram;
use harl_repro::prelude::*;
use harl_repro::simcore::{registry, Phase, PhaseProfiler};
use std::sync::Arc;
use std::time::Instant;

/// The platform model as the paper's Analysis Phase builds it: every server
/// class and the network calibrated by probing the simulated devices.
pub fn calibrated_model(cluster: &ClusterConfig) -> MultiProfileModel {
    let cfg = CalibrationConfig::default();
    MultiProfileModel::new(
        &calibrate_network(&cluster.network, &cfg),
        cluster
            .classes
            .iter()
            .map(|c| (c.count, calibrate_storage(&c.profile, &cfg)))
            .collect(),
    )
}

/// A context for program calls with every thread budget pinned to 1.
pub fn plain_context() -> SimContext {
    SimContext::new().with_threads(1)
}

/// What one job leaves behind for checking, freed after its timing ends.
struct JobOutput {
    trace: Trace,
    placed: PlacedFile,
    programs: Vec<ClientProgram>,
    report: SimReport,
}

/// One job through every layer, each call closing a lap.
fn run_job(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    policy: &HarlPolicy,
    workload: &Workload,
    lap: &mut Lap<'_>,
) -> JobOutput {
    let ccfg = CollectiveConfig::default();
    let trace = collect_trace_lowered(cluster, workload, &ccfg);
    lap.mark("trace");
    let rst = policy.plan(ctx, &trace, workload.extent().max(1));
    lap.mark("plan");
    let placed = place(cluster, &rst, 0);
    lap.mark("place");
    let programs = translate_workload(ctx, cluster, &placed, workload, &ccfg);
    lap.mark("translate");
    let report = simulate(ctx, cluster, &placed.files, &programs);
    lap.mark("sim");
    JobOutput {
        trace,
        placed,
        programs,
        report,
    }
}

/// Program set-up: calibrate the model, build the policy, run one job.
fn set_up(inputs: &PipelineInputs) -> HarlPolicy {
    let mut policy = HarlPolicy::new(calibrated_model(&inputs.cluster));
    policy.optimizer.threads = 1;
    let warmup = inputs.warmup.build();
    let mut lap = Lap::start(None, 0);
    run_job(
        &plain_context(),
        &inputs.cluster,
        &policy,
        &warmup,
        &mut lap,
    );
    policy
}

/// Instrumentation of one traced pass.
struct Traced {
    tally: Arc<Tally>,
    profiler: Arc<PhaseProfiler>,
    log: SpanLog,
    values: Values,
}

/// Run `passes` passes over the job list, each after a fresh set-up. With
/// `trace`, passes alternate between plain and traced, and the per-layer
/// values come from the traced ones.
pub fn run(
    inputs: &PipelineInputs,
    passes: usize,
    trace: bool,
) -> (Values, Checks, Option<SpanLog>) {
    let n = inputs.jobs.len();
    let mut checks = Checks::default();
    let mut samples = Samples::new(n);
    let mut digests = Vec::with_capacity(n);
    let (mut bytes, mut makespan_s) = (0u64, 0.0f64);
    let mut traced_values: Vec<Values> = Vec::new();
    let mut first_log = None;
    for pass in 0..passes {
        let t = Instant::now();
        let policy = set_up(inputs);
        samples.setup(t.elapsed().as_secs_f64());

        let mut traced = (trace && pass % 2 == 1).then(|| Traced {
            tally: Arc::new(Tally::default()),
            profiler: Arc::new(PhaseProfiler::new()),
            log: SpanLog::default(),
            values: Values::new(),
        });
        let ctx = match &traced {
            Some(tr) => SimContext::recorded(tr.tally.clone()).with_threads(1),
            None => plain_context(),
        };
        let mut busy = 0.0;
        for (i, spec) in inputs.jobs.iter().enumerate() {
            let workload = spec.build();
            let op = (pass * n + i) as u64;
            let mut lap = Lap::start(traced.as_mut().map(|tr| &mut tr.log), op);
            let out = run_job(&ctx, &inputs.cluster, &policy, &workload, &mut lap);
            let latency = lap.finish("job");
            busy += latency;
            samples.latency(i, traced.is_some(), latency);

            let digest = checks::report_digest(&out.report);
            if pass == 0 {
                digests.push(digest);
                bytes += out.report.bytes_read + out.report.bytes_written;
                makespan_s += out.report.makespan.as_secs_f64();
            }
            checks.op(
                checks::rst_tiles(out.placed.rst.entries(), workload.extent().max(1))
                    .and_then(|()| checks::bytes_moved(&out.report, workload.total_bytes()))
                    .and_then(|()| {
                        if digest == digests[i] {
                            Ok(())
                        } else {
                            Err(format!(
                                "job {i}: report {digest:?} on pass {pass} differs from {:?}",
                                digests[i]
                            ))
                        }
                    }),
            );
            if let Some(tr) = traced.as_mut() {
                let v = &mut tr.values;
                *v.entry("trace.records").or_default() += out.trace.len() as f64;
                *v.entry("plan.regions").or_default() += out.placed.rst.len() as f64;
                *v.entry("translate.phys_requests").or_default() +=
                    out.programs
                        .iter()
                        .map(ClientProgram::request_count)
                        .sum::<usize>() as f64;
                *v.entry("pfs.imbalance").or_default() += out.report.imbalance() / n as f64;
                // The phase profiler times every engine event, which would
                // inflate the sim span; it runs on a replay of the
                // simulation after the job's span has closed.
                let profiled = SimContext::recorded(Arc::new(Tally::default()))
                    .with_threads(1)
                    .with_profiler(tr.profiler.clone());
                simulate(&profiled, &inputs.cluster, &out.placed.files, &out.programs);
            }
        }
        match traced {
            Some(tr) => {
                let (v, log) = tr.finish();
                traced_values.push(v);
                first_log.get_or_insert(log);
            }
            None => samples.plain_pass(busy),
        }
    }

    let mut values = samples.values();
    metrics::add_mean(&mut values, &traced_values);
    values.insert("harness.ops", n as f64);
    values.insert(
        "sim_mib_s",
        metrics::ratio(bytes as f64 / (1024.0 * 1024.0), makespan_s),
    );
    (values, checks, first_log)
}

impl Traced {
    /// The pass's layer values, and its spans.
    fn finish(self) -> (Values, SpanLog) {
        let Traced {
            tally: t,
            profiler: p,
            log,
            values: mut v,
        } = self;
        v.insert(
            "plan.candidates",
            t.counter(registry::HARL_OPTIMIZER_CANDIDATES.name) as f64,
        );
        v.insert(
            "sim.events",
            t.counter(registry::SIM_EVENTS_DISPATCHED.name) as f64,
        );
        v.insert(
            "sim.queue_depth_hwm",
            t.gauge(registry::SIM_QUEUE_DEPTH_HWM.name),
        );
        v.insert(
            "sim.queue_rebuilds",
            t.counter(registry::SIM_QUEUE_REBUILDS.name) as f64,
        );
        v.insert(
            "pfs.requests_completed",
            t.counter(registry::PFS_REQUESTS_COMPLETED.name) as f64,
        );
        let wait = t.histogram(registry::PFS_SERVER_QUEUE_WAIT_NS.name);
        v.insert(
            "pfs.queue_wait_p50_us",
            wait.quantile_upper_bound(0.5).unwrap_or(0) as f64 / 1e3,
        );
        for (name, phase) in [
            ("sim.dispatch_s", Phase::Dispatch),
            ("sim.device_service_s", Phase::DeviceService),
            ("sim.queue_drain_s", Phase::QueueDrain),
            ("sim.recorder_s", Phase::Recorder),
        ] {
            v.insert(name, p.phase_ns(phase) as f64 / 1e9);
        }
        let self_s = log.self_seconds();
        for (layer, key, _) in metrics::PIPELINE_LAYERS {
            v.insert(key, self_s.get(layer).copied().unwrap_or(0.0));
        }
        let span = log.op_seconds();
        v.insert("harness.op_span_s", span);
        v.insert(
            "harness.unattributed_share",
            metrics::ratio(self_s.get("job").copied().unwrap_or(0.0), span),
        );
        v.insert("plan.p50_ms", median(&log.layer_seconds("plan")) * 1e3);
        (v, log)
    }
}
