//! The planning service's region reuse is exact: a service with the
//! default capacities and one with `region_cache_capacity: 0` hand out the
//! same plans, the same adaptations and the same tick outcomes under any
//! interleaving of submissions, served-request feedback and ticks.
//!
//! The second service never reuses a region result, so it is the oracle:
//! every region it answers is a fresh Algorithm 2 search.

use harl_core::{
    divide_regions, MultiProfileModel, OnlineConfig, OptimizerConfig, RegionDivisionConfig,
    TraceRecord,
};
use harl_devices::OpKind;
use harl_middleware::{collect_trace, PlanOutcome, PlanningService, ServeConfig};
use harl_pfs::ClusterConfig;
use harl_simcore::{SimContext, SimNanos};
use harl_workloads::{TrafficConfig, TrafficJob};
use proptest::prelude::*;
use std::collections::BTreeMap;

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;

/// Service tuning shared by both services: 4 MiB regions split every
/// phase, a coarse grid keeps each case quick, and a short, impatient
/// monitor window lets drift fire within a single burst.
fn config(region_cache_capacity: usize) -> ServeConfig {
    let optimizer = OptimizerConfig {
        max_grid_points: 32,
        max_requests_per_eval: 256,
        ..OptimizerConfig::default()
    };
    ServeConfig {
        region_cache_capacity,
        division: RegionDivisionConfig {
            fixed_region_size: 4 * MB,
            ..RegionDivisionConfig::default()
        },
        optimizer: optimizer.clone(),
        online: OnlineConfig {
            window: 16,
            patience: 1,
            optimizer: OptimizerConfig {
                threads: 1,
                ..optimizer
            },
            ..OnlineConfig::default()
        },
        ..ServeConfig::default()
    }
}

prop_compose! {
    /// A small fleet: a few tenants over a few templates (BTIO dumps
    /// included once there are four), at a phase area of 4 or 8 MiB.
    fn fleet()(
        tenants in 1usize..7,
        templates in 1usize..6,
        processes in 1usize..6,
        big in any::<bool>(),
        seed in any::<u64>(),
    ) -> TrafficConfig {
        TrafficConfig {
            tenants,
            templates,
            processes,
            base_bytes: if big { 8 * MB } else { 4 * MB },
            seed,
            ..TrafficConfig::default()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ops: 0–2 submit tenant `a` (drifted when `b` is odd), 3–4 stream a
    /// burst of `b`-sized requests at tenant `a`, 5 ticks.
    #[test]
    fn region_pool_matches_a_service_without_one(
        traffic in fleet(),
        ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..40),
        threads in 1usize..3,
    ) {
        let model = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
        let mut pooled = PlanningService::new(model.clone(), config(ServeConfig::default().region_cache_capacity));
        let mut cold = PlanningService::new(model, config(0));
        let division = config(0).division;
        let ctx = SimContext::new().with_threads(threads);
        let mut traces = BTreeMap::new();
        let mut file_sizes = BTreeMap::new();
        for &(kind, a, b) in &ops {
            let tenant = a % traffic.tenants as u64;
            match kind {
                0..=2 => {
                    let template = tenant as usize % traffic.templates;
                    let job = TrafficJob { tick: 0, tenant, template, drifted: b % 2 == 1 };
                    let (trace, file_size, regions) = traces
                        .entry((template, job.drifted))
                        .or_insert_with(|| {
                            let (workload, file_size) = traffic.build_workload(&job);
                            let trace = collect_trace(&workload);
                            let regions =
                                divide_regions(&trace.sorted_by_offset(), file_size, &division).len();
                            (trace, file_size, regions)
                        });
                    file_sizes.insert(tenant, *file_size);
                    let got = pooled.submit(&ctx, tenant, trace, *file_size);
                    let want = cold.submit(&ctx, tenant, trace, *file_size);
                    prop_assert_eq!(got.outcome, want.outcome);
                    prop_assert_eq!(&got.rst, &want.rst);
                    prop_assert_eq!(want.reused_regions, 0, "the oracle reuses nothing");
                    for t in [&got, &want] {
                        let considered = t.reused_regions + t.planned_regions;
                        if t.outcome == PlanOutcome::CacheHit {
                            prop_assert_eq!(considered, 0);
                        } else {
                            prop_assert_eq!(considered, *regions, "{:?}", t.outcome);
                        }
                    }
                }
                3 | 4 => {
                    let size = [4 * KB, 16 * KB, 64 * KB, MB][(b % 4) as usize];
                    let base = file_sizes
                        .get(&tenant)
                        .map_or(0, |&f| (b >> 8) % f / size * size);
                    for i in 0..24u64 {
                        let rec = TraceRecord {
                            rank: 0,
                            fd: 0,
                            op: if (b >> 2) % 2 == 0 { OpKind::Read } else { OpKind::Write },
                            offset: base + (i % 16) * size,
                            size,
                            timestamp: SimNanos::from_nanos(i),
                        };
                        let latency = if (b >> 3) % 2 == 0 { 0.5 } else { 1e-4 };
                        prop_assert_eq!(
                            pooled.observe_served(tenant, rec, latency),
                            cold.observe_served(tenant, rec, latency)
                        );
                    }
                }
                _ => prop_assert_eq!(pooled.tick(&ctx), cold.tick(&ctx)),
            }
        }
        prop_assert_eq!(pooled.tick(&ctx), cold.tick(&ctx));
        let (got, want) = (pooled.stats(), cold.stats());
        prop_assert_eq!(got.cache, want.cache);
        prop_assert_eq!(
            (got.batch_enqueued, got.batch_applied, got.batch_coalesced, got.adaptations),
            (want.batch_enqueued, want.batch_applied, want.batch_coalesced, want.adaptations)
        );
        prop_assert_eq!(
            got.regions_reused + got.regions_planned,
            want.regions_reused + want.regions_planned
        );
    }
}
