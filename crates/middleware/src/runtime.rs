//! The MPI-IO runtime: tracing, translation, and end-to-end execution.
//!
//! This module ties the pipeline of the paper's Fig. 3 together:
//!
//! * **Tracing Phase** — [`collect_trace`] records a workload's logical
//!   requests as a [`Trace`] (the IOSIG role).
//! * **Analysis Phase** — happens in `harl-core` ([`LayoutPolicy::plan`]).
//! * **Placing Phase** — [`run_workload`] materialises the RST
//!   ([`crate::placement::place`]), translates every logical request onto
//!   the per-region physical files (the modified `MPI_File_read/write` of
//!   Sec. III-G), lowers collective calls through two-phase I/O, and runs
//!   the discrete-event simulation.
//!
//! Every entry point takes a [`SimContext`] first: it carries the metrics
//! [`Recorder`], the seed and thread-budget
//! overrides, and any injected fault plan, so observability and experiment
//! control are orthogonal to the pipeline itself.

use crate::collective::{plan_collective, CollectiveConfig};
use crate::logical::{LogicalRequest, LogicalStep, RankProgram, Workload};
use crate::placement::{place, PlacedFile};
use harl_core::{LayoutPolicy, RegionStripeTable, Trace, TraceRecord};
use harl_pfs::{simulate, ClientProgram, ClusterConfig, PhysRequest, SimReport};
use harl_simcore::metrics::Recorder;
use harl_simcore::{registry, SimContext, SimNanos};

/// How collective calls appear in a collected trace.
enum Lowering<'a> {
    /// Record each rank's collective contributions verbatim.
    Identity,
    /// Lower collectives through two-phase I/O and record the aggregators'
    /// combined requests (what an MPI-IO-level tracer actually observes).
    TwoPhase {
        cluster: &'a ClusterConfig,
        ccfg: &'a CollectiveConfig,
    },
}

/// Tracing Phase: record the logical requests a workload will issue.
///
/// Timestamps are synthetic record-order counters, not issue order: every
/// rank's independent requests are recorded first and the collective
/// contributions after them. Region division uses only offsets, sizes and
/// operation types. Collective contributions are recorded verbatim
/// (identity lowering); use [`collect_trace_lowered`] for the
/// post-aggregation view.
pub fn collect_trace(workload: &Workload) -> Trace {
    collect_trace_with(workload, Lowering::Identity)
}

/// Tracing Phase at the PFS boundary: record the requests the middleware
/// actually issues, with collective calls lowered through two-phase I/O.
///
/// This is where IOSIG sits in the paper's stack (a pluggable MPI-IO
/// library): what it observes for a collective application like BTIO are
/// the *aggregators'* large contiguous requests, not each rank's tiny
/// strided contributions — and that is the pattern the layout must serve.
/// Timestamps are record-order counters, as in [`collect_trace`].
pub fn collect_trace_lowered(
    cluster: &ClusterConfig,
    workload: &Workload,
    ccfg: &CollectiveConfig,
) -> Trace {
    collect_trace_with(workload, Lowering::TwoPhase { cluster, ccfg })
}

/// Single implementation behind both trace collectors: independents pass
/// through unchanged, collectives go through the chosen [`Lowering`].
fn collect_trace_with(workload: &Workload, lowering: Lowering<'_>) -> Trace {
    let calls = match lowering {
        Lowering::Identity => Vec::new(),
        Lowering::TwoPhase { .. } => gather_collectives(workload),
    };
    let mut trace = Trace::new();
    let mut clock = 0u64;
    let record = |trace: &mut Trace, clock: &mut u64, rank: usize, r: &LogicalRequest| {
        trace.record(TraceRecord {
            rank: rank as u32,
            fd: 0,
            op: r.op,
            offset: r.offset,
            size: r.size,
            timestamp: SimNanos::from_nanos(*clock),
        });
        *clock += 1;
    };

    // Independent requests pass through unchanged under either lowering.
    for (rank, prog) in workload.ranks.iter().enumerate() {
        for step in &prog.steps {
            if let LogicalStep::Independent(reqs) = step {
                for r in reqs {
                    record(&mut trace, &mut clock, rank, r);
                }
            }
        }
    }
    match lowering {
        Lowering::Identity => {
            for (rank, prog) in workload.ranks.iter().enumerate() {
                for step in &prog.steps {
                    if let LogicalStep::Collective(reqs) = step {
                        for r in reqs {
                            record(&mut trace, &mut clock, rank, r);
                        }
                    }
                }
            }
        }
        Lowering::TwoPhase { cluster, ccfg } => {
            let aggregators = default_aggregators(cluster, workload.rank_count());
            for contributions in &calls {
                if let Some(plan) = plan_collective(contributions, &aggregators, ccfg) {
                    for (rank, reqs) in plan.aggregated.iter().enumerate() {
                        for r in reqs {
                            record(&mut trace, &mut clock, rank, r);
                        }
                    }
                }
            }
        }
    }
    trace
}

/// Every collective call's contributions, borrowed: `calls[k][r]` is rank
/// r's contribution to its k-th collective call. Walks each rank's steps
/// once, and allocates nothing for a workload without collective calls.
///
/// # Panics
/// Panics when ranks make different numbers of collective calls (a real
/// MPI job would deadlock).
fn gather_collectives(workload: &Workload) -> Vec<Vec<&[LogicalRequest]>> {
    let collectives = workload.validate_collectives();
    assert!(
        collectives.is_ok(),
        "collective call counts must match across ranks: {collectives:?}"
    );
    let n_calls = workload
        .ranks
        .first()
        .map_or(0, RankProgram::collective_calls);
    if n_calls == 0 {
        return Vec::new();
    }
    let mut calls: Vec<Vec<&[LogicalRequest]>> = (0..n_calls)
        .map(|_| Vec::with_capacity(workload.rank_count()))
        .collect();
    for prog in &workload.ranks {
        let contributions = prog.steps.iter().filter_map(|s| match s {
            LogicalStep::Collective(reqs) => Some(reqs.as_slice()),
            _ => None,
        });
        for (call, reqs) in calls.iter_mut().zip(contributions) {
            call.push(reqs);
        }
    }
    calls
}

/// Translate one logical request into physical per-region requests, with
/// routing observability when the context's recorder is enabled: counts
/// every routing decision per region (`mw.region.requests`,
/// `mw.region.bytes`) and the fan-out of each logical request
/// (`mw.request.fanout` — how many region pieces one call split into).
fn translate_request(
    placed: &PlacedFile,
    req: LogicalRequest,
    recorder: &dyn Recorder,
) -> Vec<PhysRequest> {
    let rec_on = recorder.is_enabled();
    if req.size == 0 {
        // Zero-byte requests still hit the MDS; route to the owning region.
        let region = placed.rst.region_of(req.offset);
        let entry = &placed.rst.entries()[region];
        if rec_on {
            let labels = [("region", region.to_string()), ("op", req.op.to_string())];
            recorder.counter_add(registry::MW_REGION_REQUESTS.name, &labels, 1);
            recorder.observe(
                registry::MW_REQUEST_FANOUT.name,
                &[("op", req.op.to_string())],
                1,
            );
        }
        return vec![PhysRequest {
            file: placed.r2f.file_of(region),
            op: req.op,
            offset: req.offset - entry.offset,
            size: 0,
        }];
    }
    let pieces = placed.rst.split_request(req.offset, req.size);
    if rec_on {
        recorder.observe(
            registry::MW_REQUEST_FANOUT.name,
            &[("op", req.op.to_string())],
            pieces.len() as u64,
        );
        for (region, _, len) in &pieces {
            let labels = [("region", region.to_string()), ("op", req.op.to_string())];
            recorder.counter_add(registry::MW_REGION_REQUESTS.name, &labels, 1);
            recorder.counter_add(registry::MW_REGION_BYTES.name, &labels, *len);
        }
    }
    pieces
        .into_iter()
        .map(|(region, rel_offset, len)| PhysRequest {
            file: placed.r2f.file_of(region),
            op: req.op,
            offset: rel_offset,
            size: len,
        })
        .collect()
}

/// Default aggregator choice: the first rank on each compute node.
fn default_aggregators(cluster: &ClusterConfig, ranks: usize) -> Vec<usize> {
    (0..ranks.min(cluster.compute_nodes)).collect()
}

/// Translate a whole workload into physical client programs.
///
/// Independent requests become synchronous per-request batches of their
/// region pieces. Collective calls are lowered through two-phase I/O:
/// exchange compute → barrier → aggregator I/O → barrier (every rank gets
/// the same barrier structure, so the simulation cannot deadlock).
///
/// When `ctx` carries an enabled recorder, every routing decision is
/// counted (see `translate_request`).
pub fn translate_workload(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    placed: &PlacedFile,
    workload: &Workload,
    ccfg: &CollectiveConfig,
) -> Vec<ClientProgram> {
    let recorder = ctx.recorder();
    let calls = gather_collectives(workload);
    let n_ranks = workload.rank_count();
    let aggregators = default_aggregators(cluster, n_ranks);
    let mut programs: Vec<ClientProgram> = vec![ClientProgram::new(); n_ranks];
    let collective_plans: Vec<_> = calls
        .iter()
        .map(|contributions| plan_collective(contributions, &aggregators, ccfg))
        .collect();

    for (rank, prog) in workload.ranks.iter().enumerate() {
        let out = &mut programs[rank];
        let mut next_collective = 0usize;
        for step in &prog.steps {
            match step {
                LogicalStep::Compute(d) => out.push_compute(*d),
                LogicalStep::Independent(reqs) => {
                    for req in reqs {
                        let phys = translate_request(placed, *req, recorder);
                        out.push_batch(phys);
                    }
                }
                LogicalStep::Collective(_) => {
                    let plan = &collective_plans[next_collective];
                    next_collective += 1;
                    match plan {
                        None => {
                            // Pure synchronisation: a single barrier.
                            out.push_barrier();
                        }
                        Some(plan) => {
                            let is_write = plan.op == harl_devices::OpKind::Write;
                            // Write: exchange first, then aggregate I/O.
                            if is_write && !plan.exchange[rank].is_zero() {
                                out.push_compute(plan.exchange[rank]);
                            }
                            out.push_barrier();
                            let mine: Vec<PhysRequest> = plan.aggregated[rank]
                                .iter()
                                .flat_map(|r| translate_request(placed, *r, recorder))
                                .collect();
                            if !mine.is_empty() {
                                out.push_batch(mine);
                            }
                            out.push_barrier();
                            // Read: data fans back out after the I/O.
                            if !is_write && !plan.exchange[rank].is_zero() {
                                out.push_compute(plan.exchange[rank]);
                            }
                        }
                    }
                }
            }
        }
    }
    programs
}

/// Placing Phase + execution: materialise `rst`, translate `workload`, and
/// simulate it on `cluster`.
///
/// With an enabled recorder on `ctx`, the planned per-region stripes land
/// as gauges (`mw.region.stripe_h` / `mw.region.stripe_s`), translation
/// records routing counters, and the simulation records per-server
/// histograms plus one span per request. Seed and fault overrides on `ctx`
/// apply to the simulation.
pub fn run_workload(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    rst: &RegionStripeTable,
    workload: &Workload,
    ccfg: &CollectiveConfig,
) -> SimReport {
    let recorder = ctx.recorder();
    if recorder.is_enabled() {
        for (region, entry) in rst.entries().iter().enumerate() {
            let labels = [("region", region.to_string())];
            if let [h, s] = entry.widths() {
                // Two-tier plans keep the paper's named gauges.
                recorder.gauge_set(registry::MW_REGION_STRIPE_H.name, &labels, *h as f64);
                recorder.gauge_set(registry::MW_REGION_STRIPE_S.name, &labels, *s as f64);
            } else {
                for (class, &w) in entry.widths().iter().enumerate() {
                    let labels = [("region", region.to_string()), ("class", class.to_string())];
                    recorder.gauge_set(registry::MW_REGION_STRIPE_WIDTH.name, &labels, w as f64);
                }
            }
            recorder.gauge_set(registry::MW_REGION_LEN.name, &labels, entry.len as f64);
        }
    }
    let placed = place(cluster, rst, 0);
    let programs = translate_workload(ctx, cluster, &placed, workload, ccfg);
    simulate(ctx, cluster, &placed.files, &programs)
}

/// The full paper pipeline for one workload: trace it, plan a layout with
/// `policy`, place it, run it. Returns the plan and the simulation report.
///
/// `ctx` threads through every phase: the planner obeys its thread budget,
/// the simulation obeys its seed/fault overrides, and an enabled recorder
/// observes tracing, planning, translation and execution.
pub fn trace_plan_run(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    policy: &dyn LayoutPolicy,
    workload: &Workload,
    ccfg: &CollectiveConfig,
) -> (RegionStripeTable, SimReport) {
    let trace = collect_trace_lowered(cluster, workload, ccfg);
    let recorder = ctx.recorder();
    if recorder.is_enabled() {
        recorder.counter_add(registry::MW_TRACE_RECORDS.name, &[], trace.len() as u64);
    }
    let file_size = workload.extent().max(1);
    let rst = policy.plan(ctx, &trace, file_size);
    let report = run_workload(ctx, cluster, &rst, workload, ccfg);
    (rst, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_core::{FixedPolicy, HarlPolicy, MultiProfileModel, RstEntry};
    use harl_simcore::metrics::NoopRecorder;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn ctx() -> SimContext {
        SimContext::new()
    }

    fn two_region_rst() -> RegionStripeTable {
        RegionStripeTable::new(vec![
            RstEntry::two(0, 4 * MB, 64 * KB, 64 * KB),
            RstEntry::two(4 * MB, 4 * MB, 0, 128 * KB),
        ])
    }

    #[test]
    fn trace_collection_covers_all_requests() {
        let mut w = Workload::with_ranks(2);
        w.ranks[0].push_request(LogicalRequest::write(0, KB));
        w.ranks[1].push_collective(vec![LogicalRequest::write(KB, KB)]);
        w.ranks[0].push_collective(vec![]);
        let trace = collect_trace(&w);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total_bytes(), (0, 2 * KB));
    }

    #[test]
    fn translation_splits_on_region_boundary() {
        let cluster = ClusterConfig::paper_default();
        let placed = place(&cluster, &two_region_rst(), 0);
        let phys = translate_request(
            &placed,
            LogicalRequest::read(4 * MB - KB, 2 * KB),
            &NoopRecorder,
        );
        assert_eq!(phys.len(), 2);
        assert_eq!(phys[0].file, 0);
        assert_eq!(phys[0].offset, 4 * MB - KB);
        assert_eq!(phys[0].size, KB);
        assert_eq!(phys[1].file, 1);
        assert_eq!(phys[1].offset, 0);
        assert_eq!(phys[1].size, KB);
    }

    #[test]
    fn zero_byte_request_routes_to_region() {
        let cluster = ClusterConfig::paper_default();
        let placed = place(&cluster, &two_region_rst(), 0);
        let phys = translate_request(&placed, LogicalRequest::read(5 * MB, 0), &NoopRecorder);
        assert_eq!(phys.len(), 1);
        assert_eq!(phys[0].file, 1);
        assert_eq!(phys[0].size, 0);
    }

    #[test]
    fn independent_workload_end_to_end() {
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(4);
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            for i in 0..4u64 {
                prog.push_request(LogicalRequest::write(
                    (r as u64 * 4 + i) * 512 * KB,
                    512 * KB,
                ));
            }
        }
        let report = run_workload(
            &ctx(),
            &cluster,
            &two_region_rst(),
            &w,
            &CollectiveConfig::default(),
        );
        assert_eq!(report.requests_completed, 16);
        assert_eq!(report.bytes_written, 8 * MB);
    }

    #[test]
    fn collective_workload_end_to_end() {
        let cluster = ClusterConfig::paper_default();
        // 4 ranks, each contributing an interleaved quarter of 8 MiB.
        let mut w = Workload::with_ranks(4);
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            let reqs: Vec<LogicalRequest> = (0..8u64)
                .map(|b| LogicalRequest::write((b * 4 + r as u64) * 256 * KB, 256 * KB))
                .collect();
            prog.push_collective(reqs);
        }
        let report = run_workload(
            &ctx(),
            &cluster,
            &two_region_rst(),
            &w,
            &CollectiveConfig::default(),
        );
        assert_eq!(report.bytes_written, 8 * MB);
        // Aggregators (≤ 4) issue the actual file requests.
        assert!(report.requests_completed >= 2);
    }

    #[test]
    fn collective_read_round_trips() {
        // Read collectives take the reverse path: barrier, aggregator I/O,
        // barrier, then the fan-out exchange. Bytes must balance and every
        // rank must pass both barriers.
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(4);
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            let reqs: Vec<LogicalRequest> = (0..8u64)
                .map(|b| LogicalRequest::read((b * 4 + r as u64) * 256 * KB, 256 * KB))
                .collect();
            prog.push_collective(reqs);
        }
        let rst = RegionStripeTable::single(8 * MB, 64 * KB, 64 * KB);
        let report = run_workload(&ctx(), &cluster, &rst, &w, &CollectiveConfig::default());
        assert_eq!(report.bytes_read, 8 * MB);
        assert_eq!(report.bytes_written, 0);
        assert!(report.read_latency.count() >= 2);
    }

    #[test]
    fn collective_beats_naive_strided_independent() {
        // The reason BTIO uses collective I/O: interleaved small blocks
        // as independent requests are far slower than two-phase.
        let cluster = ClusterConfig::paper_default();
        let rst = RegionStripeTable::single(64 * MB, 64 * KB, 64 * KB);
        let block = 64 * KB;
        let ranks = 4usize;
        let blocks = 32u64;
        let mut coll = Workload::with_ranks(ranks);
        let mut indep = Workload::with_ranks(ranks);
        for r in 0..ranks {
            let reqs: Vec<LogicalRequest> = (0..blocks)
                .map(|b| LogicalRequest::write((b * ranks as u64 + r as u64) * block, block))
                .collect();
            coll.ranks[r].push_collective(reqs.clone());
            for q in reqs {
                indep.ranks[r].push_request(q);
            }
        }
        let ccfg = CollectiveConfig::default();
        let rc = run_workload(&ctx(), &cluster, &rst, &coll, &ccfg);
        let ri = run_workload(&ctx(), &cluster, &rst, &indep, &ccfg);
        assert!(
            rc.makespan < ri.makespan,
            "collective {c} should beat independent {i}",
            c = rc.makespan,
            i = ri.makespan
        );
    }

    #[test]
    fn lowered_trace_matches_plain_on_independent_workloads() {
        // The two collectors are one implementation; on a workload with no
        // collectives they must produce identical traces.
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(3);
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            for i in 0..4u64 {
                prog.push_request(LogicalRequest::read(
                    (r as u64 * 4 + i) * 256 * KB,
                    256 * KB,
                ));
            }
        }
        let plain = collect_trace(&w);
        let lowered = collect_trace_lowered(&cluster, &w, &CollectiveConfig::default());
        assert_eq!(plain.records(), lowered.records());
    }

    #[test]
    fn recorded_run_counts_region_routing() {
        use harl_simcore::MemoryRecorder;
        use std::sync::Arc;
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(2);
        // Rank 0 stays inside region 0; rank 1 straddles the 4 MiB boundary.
        w.ranks[0].push_request(LogicalRequest::write(0, 512 * KB));
        w.ranks[1].push_request(LogicalRequest::write(4 * MB - KB, 2 * KB));
        let rec = Arc::new(MemoryRecorder::new());
        let report = run_workload(
            &SimContext::recorded(rec.clone()),
            &cluster,
            &two_region_rst(),
            &w,
            &CollectiveConfig::default(),
        );
        assert_eq!(report.requests_completed, 3, "straddler splits in two");
        let r0 = [("region", "0".to_string()), ("op", "write".to_string())];
        let r1 = [("region", "1".to_string()), ("op", "write".to_string())];
        assert_eq!(rec.counter_value("mw.region.requests", &r0), 2);
        assert_eq!(rec.counter_value("mw.region.requests", &r1), 1);
        assert_eq!(rec.counter_value("mw.region.bytes", &r1), KB);
        // Fan-out histogram: one single-piece request, one two-piece.
        let fanout = rec
            .histogram_snapshot("mw.request.fanout", &[("op", "write".to_string())])
            .unwrap();
        assert_eq!(fanout.count(), 2);
        assert_eq!(fanout.bucket_for(1), 1);
        assert_eq!(fanout.bucket_for(2), 1);
        // Planned stripes exported as gauges.
        assert_eq!(
            rec.gauge_value("mw.region.stripe_h", &[("region", "0".to_string())]),
            Some((64 * KB) as f64)
        );
        // The downstream simulation recorded spans through the same recorder.
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn trace_plan_run_with_harl() {
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(4);
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            for i in 0..4u64 {
                prog.push_request(LogicalRequest::read(
                    (r as u64 * 4 + i) * 512 * KB,
                    512 * KB,
                ));
            }
        }
        let policy = HarlPolicy::new(MultiProfileModel::from_cluster(&cluster));
        let (rst, report) =
            trace_plan_run(&ctx(), &cluster, &policy, &w, &CollectiveConfig::default());
        assert!(!rst.is_empty());
        assert_eq!(report.bytes_read, 8 * MB);

        // Sanity: HARL at least matches the 64K default on this workload.
        let fixed = FixedPolicy::new(64 * KB);
        let (_, fixed_report) =
            trace_plan_run(&ctx(), &cluster, &fixed, &w, &CollectiveConfig::default());
        assert!(
            report.makespan <= fixed_report.makespan,
            "HARL {h} worse than default {f}",
            h = report.makespan,
            f = fixed_report.makespan
        );
    }
}
