//! Exact work counts of the planner, the engine and the planning service
//! on fixed full-scale workloads.
//!
//! Every count here is deterministic simulation or planning state, so it
//! is pinned to one exact value and no clock is read. A count that moves
//! means the planner, the engine or the service now does different work
//! for the same input: explain the change, then update the pin. Wall time
//! is measured by the seeded benchmark in `benchmark/`, which reports it
//! beside its own per-layer work counts.

use harl_core::{
    divide_regions, optimize_region, HarlPolicy, LayoutPolicy, MultiProfileModel, OnlineConfig,
    OnlineMonitor, OptimizerConfig, RegionRequests, RegionStripeTable, RstEntry, Trace,
    TraceRecord,
};
use harl_devices::OpKind;
use harl_middleware::{collect_trace, PlanningService, ServeConfig};
use harl_pfs::{simulate, ClientProgram, ClusterConfig, FileLayout, PhysRequest};
use harl_simcore::{registry, MemoryRecorder, SimContext, SimNanos};
use harl_workloads::TrafficConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const KB: u64 = 1024;

/// The paper platform model every planning count is taken on.
fn paper_model() -> MultiProfileModel {
    MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
}

fn read(offset: u64, size: u64) -> TraceRecord {
    TraceRecord {
        rank: 0,
        fd: 0,
        op: OpKind::Read,
        offset,
        size,
        timestamp: SimNanos::ZERO,
    }
}

/// Candidates Algorithm 2 scored in regions `0..regions`, as recorded.
fn candidates(memory: &MemoryRecorder, regions: usize) -> u64 {
    (0..regions)
        .map(|i| {
            let labels = [("region", i.to_string())];
            memory.counter_value(registry::HARL_OPTIMIZER_CANDIDATES.name, &labels)
        })
        .sum()
}

#[test]
fn planning_candidate_counts() {
    let model = paper_model();
    let cfg = OptimizerConfig {
        threads: 1,
        ..OptimizerConfig::default()
    };

    // One grid search over 4,096 uniform 512 KiB reads.
    let records: Vec<_> = (0..4096).map(|i| read(i * 512 * KB, 512 * KB)).collect();
    let memory = Arc::new(MemoryRecorder::new());
    let ctx = SimContext::recorded(memory.clone());
    let choice = optimize_region(
        &ctx,
        &model,
        &RegionRequests::new(&records, 0),
        512 * KB,
        &cfg,
        0,
    );
    assert!(choice.cost.is_finite());
    assert_eq!(candidates(&memory, 1), 8386);

    // A 64-phase whole file, 256 requests per phase. Adjacent phase sizes
    // differ by at least 2x (the cycle wrap included), so Algorithm 1
    // splits at every phase boundary.
    let sizes = [128, 1024, 192, 896, 256, 768, 320, 640].map(|k| k * KB);
    let mut records = Vec::new();
    let mut file_size = 0;
    for phase in 0..64 {
        let size = sizes[phase % sizes.len()];
        records.extend((0..256).map(|i| read(file_size + i * size, size)));
        file_size += 256 * size;
    }
    let trace = Trace::from_records(records);
    let mut policy = HarlPolicy::new(model.clone());
    policy.division.fixed_region_size = file_size / 64;
    policy.optimizer.threads = 1;
    let regions = divide_regions(&trace.sorted_by_offset(), file_size, &policy.division);
    assert_eq!(regions.len(), 64);
    let memory = Arc::new(MemoryRecorder::new());
    let rst = policy.plan(&SimContext::recorded(memory.clone()), &trace, file_size);
    assert!(!rst.entries().is_empty());
    assert_eq!(candidates(&memory, 64), 243_136);

    // Sixty-four 64 MiB regions planned for 512 KiB reads, then 32 rounds
    // of 128 KiB reads over every region: each region drifts and re-plans
    // exactly once.
    let region_len = 64 << 20;
    let rst = RegionStripeTable::new(
        (0..64)
            .map(|i| RstEntry::two(i * region_len, region_len, 32 * KB, 160 * KB))
            .collect(),
    );
    let base = OnlineConfig::default();
    let online = OnlineConfig {
        // The window is global: four requests per region.
        window: 64 * 4,
        optimizer: OptimizerConfig {
            threads: 1,
            ..base.optimizer
        },
        ..base
    };
    let mut monitor = OnlineMonitor::new(model, rst, vec![512 * KB; 64], online);
    let mut replanned = Vec::new();
    let mut requests = 0;
    for round in 0..32 {
        for region in 0..64 {
            let offset = region * region_len + (round * 128 * KB) % region_len;
            replanned.extend(
                monitor
                    .observe(read(offset, 128 * KB))
                    .iter()
                    .map(|e| e.region),
            );
            requests += 1;
        }
    }
    assert_eq!(requests, 2048);
    assert_eq!(replanned.len(), 64);
    assert_eq!(replanned.iter().collect::<BTreeSet<_>>().len(), 64);
}

#[test]
fn engine_event_counts() {
    // Events per request: a read is StartStep, MdsDone, DiskFanout and
    // ReqDone plus DiskDone and ReturnAtClient per sub-request
    // (4 + 2·subs); a write is StartStep, MdsDone and ReqDone plus
    // ArriveServerNic, ArriveDisk and DiskDone per sub-request
    // (3 + 3·subs). Each client adds one final StartStep.
    //
    // (op, servers, clients, requests per client, events dispatched,
    //  makespan ns).
    let tiers = [
        (OpKind::Read, 8, 64, 96, 122_944, 12_679_855_544),
        (OpKind::Read, 256, 16, 96, 792_592, 12_888_405_484),
        (OpKind::Read, 1024, 4, 96, 787_972, 25_838_004_240),
        (OpKind::Read, 4096, 8, 102, 6_687_944, 109_595_701_024),
        (OpKind::Write, 64, 32, 48, 299_552, 3_681_788_651),
    ];
    const STRIPE: u64 = 64 * KB;
    for (op, servers, clients, per_client, events, makespan) in tiers {
        // 3:1 HServers to SServers, the paper testbed's 6 + 2 ratio.
        let cluster = ClusterConfig::hybrid(servers - servers / 4, servers / 4);
        let file = FileLayout::fixed(&cluster, STRIPE);
        // Each request covers one whole stripe round, so it fans out to
        // every server; each client works through its own slice of the
        // file in order.
        let round = STRIPE * servers as u64;
        let progs: Vec<_> = (0..clients)
            .map(|c| {
                let mut p = ClientProgram::new();
                for i in 0..per_client {
                    let offset = (c * per_client + i) * round;
                    p.push_request(match op {
                        OpKind::Read => PhysRequest::read(0, offset, round),
                        OpKind::Write => PhysRequest::write(0, offset, round),
                    });
                }
                p
            })
            .collect();
        let memory = Arc::new(MemoryRecorder::new());
        let report = simulate(
            &SimContext::recorded(memory.clone()),
            &cluster,
            &[file],
            &progs,
        );
        let tier = format!("{op} on {servers} servers");
        let requests = clients * per_client;
        let subs = servers as u64;
        let per_request = match op {
            OpKind::Read => 4 + 2 * subs,
            OpKind::Write => 3 + 3 * subs,
        };
        assert_eq!(events, requests * per_request + clients, "{tier}");
        let dispatched = memory.counter_value(registry::SIM_EVENTS_DISPATCHED.name, &[]);
        assert_eq!(dispatched, events, "{tier}");
        assert_eq!(report.makespan.as_nanos(), makespan, "{tier}");
        assert_eq!(report.requests_completed, requests, "{tier}");
        assert_eq!(report.servers.len(), servers);
        for s in &report.servers {
            assert!(s.bytes > 0, "{tier}: server {} moved no bytes", s.id);
        }
    }
}

#[test]
fn serve_counts() {
    // (tenants, templates, drift %, submissions, regions planned,
    //  plan-cache hits, stale, misses) with default cache capacities.
    let tiers = [
        (16, 4, 0, 256, 4, 252, 0, 4),
        (256, 16, 10, 384, 17, 367, 0, 17),
        (2048, 32, 20, 512, 18, 494, 0, 18),
    ];
    for (tenants, templates, drift_pct, submissions, planned, hits, stale, misses) in tiers {
        let traffic = TrafficConfig {
            tenants,
            templates,
            drift_pct,
            ticks: 4,
            arrivals_per_tick: submissions / 4,
            ..TrafficConfig::default()
        };
        let mut svc = PlanningService::new(paper_model(), ServeConfig::default());
        let mut traces = BTreeMap::new();
        let ctx = SimContext::new();
        for job in traffic.jobs() {
            let key = (job.template, job.drifted);
            let (trace, file_size) = traces.entry(key).or_insert_with(|| {
                let (workload, file_size) = traffic.build_workload(&job);
                (collect_trace(&workload), file_size)
            });
            let ticket = svc.submit(&ctx, job.tenant, trace, *file_size);
            assert!(!ticket.rst.is_empty());
        }
        let stats = svc.stats();
        let counts = (
            stats.submits,
            stats.regions_reused,
            stats.regions_planned,
            stats.cache.hits,
            stats.cache.stale,
            stats.cache.misses,
        );
        assert_eq!(
            counts,
            (submissions as u64, 0, planned, hits, stale, misses),
            "{tenants} tenants: (submits, reused, planned, hits, stale, misses)"
        );
        // Every region a miss or stale refresh considers is looked up in
        // the region pool, so its hits and misses are the reuse split.
        assert_eq!(
            stats.region_pool,
            (stats.regions_reused, stats.regions_planned),
            "{tenants} tenants: region pool (hits, misses)"
        );
    }
}
