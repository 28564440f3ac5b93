//! The multi-tenant planning service — `multiapp.rs` promoted from a test
//! fixture into a long-running front-end.
//!
//! Many concurrent applications (tenants) submit traces for their own
//! logical files and receive RST/R2F layouts. Three performance layers sit
//! between a submission and a grid search, each deterministic (see
//! `harl_core::cache`):
//!
//! 1. **Plan cache** — submissions are fingerprinted
//!    ([`harl_core::fingerprint`]); a fingerprint hit returns the cached
//!    whole-file plan without touching the optimizer. Eviction is LRU by
//!    the service's logical clock, capacity from [`ServeConfig`].
//!    Matching at this tier is *approximate* workload matching: the
//!    fingerprint is deliberately lossy (bucketed size histogram, 5%
//!    write buckets, grid-rounded averages), so resubmitting the same
//!    trace always hits and returns the identical plan, but two
//!    *different* traces that bucket identically share one cached plan,
//!    which need not equal what planning the second trace from scratch
//!    would have produced.
//! 2. **Region pool** — on a miss (or a stale hit after online
//!    adaptation), every region is looked up in one cross-tenant pool of
//!    per-region grid results; only regions whose exact search input is
//!    not there re-run Algorithm 2. Unlike tier 1, reuse here is
//!    bit-identical to the uncached computation by construction — the
//!    region key is the exact grid-search input.
//! 3. **Batched RST updates** — online-drift adaptations from concurrent
//!    tenants are enqueued, then coalesced (last-writer-wins per tenant ×
//!    region) and applied in canonical order once per service tick
//!    ([`PlanningService::tick`]), so served-table churn is O(dirty
//!    regions), not O(tenants × regions).
//!
//! The service is part of the deterministic data path: no wall clock, no
//! map-iteration nondeterminism (every map is a `BTreeMap`), and the same
//! submission sequence replays bit-identically at any thread count.
//! Wall-clock latency accounting therefore lives in the seeded benchmark
//! (`benchmark/`, the `serve_fleet` workload), never here.

// Index/iteration hygiene, ratcheted to deny: the batching and merge
// paths in this module are exactly where an indexed loop can silently
// reorder a deterministic merge.
#![deny(
    clippy::explicit_iter_loop,
    clippy::explicit_into_iter_loop,
    clippy::needless_range_loop,
    clippy::range_plus_one,
    clippy::range_minus_one
)]

use harl_core::{
    fingerprint_sorted, plan_file, CacheLookup, CacheStats, MultiProfileModel, OnlineConfig,
    OnlineMonitor, OptimizerConfig, PlanCache, RegionDivisionConfig, RegionPlanCache,
    RegionStripeTable, Trace, TraceRecord, WorkloadFingerprint,
};
use harl_simcore::{registry, SimContext};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Service tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Whole-plan cache capacity (plans; 0 disables plan caching).
    pub plan_cache_capacity: usize,
    /// Cross-tenant per-region grid-result pool capacity. 0 disables
    /// incremental re-planning entirely (every region of every miss and
    /// stale refresh is searched, and no region key is computed): the cold
    /// baseline to time a warm service against.
    pub region_cache_capacity: usize,
    /// Algorithm 1 tuning shared by fingerprinting and planning (the two
    /// must agree, or fingerprint regions would not match plan regions).
    pub division: RegionDivisionConfig,
    /// Algorithm 2 tuning.
    pub optimizer: OptimizerConfig,
    /// Per-tenant online-drift monitoring.
    pub online: OnlineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            plan_cache_capacity: 256,
            region_cache_capacity: 4096,
            division: RegionDivisionConfig::default(),
            optimizer: OptimizerConfig::default(),
            online: OnlineConfig::default(),
        }
    }
}

/// How a submission was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanOutcome {
    /// Whole plan served from the cache.
    CacheHit,
    /// A cached plan existed but was invalidated by online adaptation;
    /// re-planned through the region pool.
    StaleRefresh,
    /// No cached plan; planned through the region pool.
    Miss,
}

impl PlanOutcome {
    fn label(self) -> &'static str {
        match self {
            PlanOutcome::CacheHit => "hit",
            PlanOutcome::StaleRefresh => "stale",
            PlanOutcome::Miss => "miss",
        }
    }
}

/// The service's answer to one submission.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTicket {
    /// The layout to place the tenant's file with.
    pub rst: RegionStripeTable,
    /// How the plan was produced.
    pub outcome: PlanOutcome,
    /// Regions answered from the region pool (0 on a cache hit: no region
    /// was even considered).
    pub reused_regions: usize,
    /// Regions whose grid search ran.
    pub planned_regions: usize,
}

/// One tenant's resident state.
#[derive(Debug)]
struct Tenant {
    /// The layout the tenant is currently served with (updated only at
    /// tick boundaries — the batched-apply semantic).
    rst: RegionStripeTable,
    /// Fingerprint of the workload the layout was planned for.
    fingerprint: WorkloadFingerprint,
    /// Drift monitor over the live stream.
    monitor: OnlineMonitor,
}

/// One tick's coalesced `(region, widths)` batch for a single tenant, in
/// ascending region order (the canonical apply order).
type RegionUpdates = Vec<(usize, Vec<u64>)>;

/// A pending per-region width update awaiting the next tick.
#[derive(Debug, Clone)]
struct PendingUpdate {
    tenant: u64,
    region: usize,
    widths: Vec<u64>,
    seq: u64,
}

/// Counters the service accumulates (all deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Plan submissions served.
    pub submits: u64,
    /// Ticks executed.
    pub ticks: u64,
    /// Plan-cache accounting.
    pub cache: CacheStats,
    /// Plans currently cached.
    pub cache_len: usize,
    /// Regions answered from the region pool across all submissions.
    pub regions_reused: u64,
    /// Regions whose grid search ran across all submissions.
    pub regions_planned: u64,
    /// Region-pool `(hits, misses)`. Every region a miss or stale refresh
    /// considers is looked up in the pool, so while it is enabled this
    /// repeats `(regions_reused, regions_planned)`.
    pub region_pool: (u64, u64),
    /// Adaptation updates enqueued by online drift.
    pub batch_enqueued: u64,
    /// Updates actually applied to served tables at ticks.
    pub batch_applied: u64,
    /// Updates coalesced away before apply: superseded by a later write
    /// to the same cell, no-ops, or retired because a re-plan replaced
    /// the tenant's table (and with it the region geometry they indexed).
    pub batch_coalesced: u64,
    /// Adaptation events observed.
    pub adaptations: u64,
    /// Tenants resident.
    pub tenants: usize,
}

/// Outcome of one tick's batched apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// Updates pending when the tick started.
    pub enqueued: usize,
    /// Region rows actually rewritten.
    pub applied: usize,
    /// Updates coalesced away.
    pub coalesced: usize,
}

/// The long-running planning front-end behind `harl-cli serve`.
pub struct PlanningService {
    model: MultiProfileModel,
    cfg: ServeConfig,
    cache: PlanCache,
    region_cache: RegionPlanCache,
    tenants: BTreeMap<u64, Tenant>,
    pending: Vec<PendingUpdate>,
    seq: u64,
    submits: u64,
    ticks: u64,
    regions_reused: u64,
    regions_planned: u64,
    batch_enqueued: u64,
    batch_applied: u64,
    batch_coalesced: u64,
    adaptations: u64,
    recorded_evictions: u64,
}

impl std::fmt::Debug for PlanningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanningService")
            .field("cfg", &self.cfg)
            .field("tenants", &self.tenants.len())
            .field("cached_plans", &self.cache.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl PlanningService {
    /// A service planning against one platform model.
    pub fn new(model: MultiProfileModel, cfg: ServeConfig) -> Self {
        let cache = PlanCache::new(cfg.plan_cache_capacity);
        let region_cache = RegionPlanCache::new(cfg.region_cache_capacity);
        PlanningService {
            model,
            cfg,
            cache,
            region_cache,
            tenants: BTreeMap::new(),
            pending: Vec::new(),
            seq: 0,
            submits: 0,
            ticks: 0,
            regions_reused: 0,
            regions_planned: 0,
            batch_enqueued: 0,
            batch_applied: 0,
            batch_coalesced: 0,
            adaptations: 0,
            recorded_evictions: 0,
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submits: self.submits,
            ticks: self.ticks,
            cache: self.cache.stats(),
            cache_len: self.cache.len(),
            regions_reused: self.regions_reused,
            regions_planned: self.regions_planned,
            region_pool: self.region_cache.stats(),
            batch_enqueued: self.batch_enqueued,
            batch_applied: self.batch_applied,
            batch_coalesced: self.batch_coalesced,
            adaptations: self.adaptations,
            tenants: self.tenants.len(),
        }
    }

    /// The layout a tenant is currently served with.
    pub fn tenant_rst(&self, tenant: u64) -> Option<&RegionStripeTable> {
        self.tenants.get(&tenant).map(|t| &t.rst)
    }

    /// Submit one tenant's trace for planning.
    ///
    /// Fingerprint → cache lookup → (on miss/stale) a plan through the
    /// region pool. Adopting the returned layout replaces the tenant's
    /// monitored state unless the submission is a cache hit of the
    /// workload the tenant already runs (then the live monitor — drift
    /// evidence included — is kept).
    pub fn submit(
        &mut self,
        ctx: &SimContext,
        tenant: u64,
        trace: &Trace,
        file_size: u64,
    ) -> PlanTicket {
        let sorted = trace.sorted_by_offset();
        let fp = fingerprint_sorted(&sorted, file_size, &self.cfg.division, &self.model);
        self.submits += 1;
        let ticket = match self.cache.lookup(&fp) {
            CacheLookup::Hit(rst) => {
                let keep = self
                    .tenants
                    .get(&tenant)
                    .is_some_and(|t| t.fingerprint == fp);
                let rst = if keep {
                    // Same tenant, same workload: keep the live monitor
                    // (its drift evidence) and the served table as-is.
                    self.tenants[&tenant].rst.clone()
                } else {
                    self.install_tenant(ctx, tenant, fp, &rst, &sorted);
                    rst
                };
                PlanTicket {
                    rst,
                    outcome: PlanOutcome::CacheHit,
                    reused_regions: 0,
                    planned_regions: 0,
                }
            }
            CacheLookup::Stale => self.plan_submission(
                ctx,
                tenant,
                fp,
                &sorted,
                file_size,
                PlanOutcome::StaleRefresh,
            ),
            CacheLookup::Miss => {
                self.plan_submission(ctx, tenant, fp, &sorted, file_size, PlanOutcome::Miss)
            }
        };
        self.regions_reused += ticket.reused_regions as u64;
        self.regions_planned += ticket.planned_regions as u64;
        self.record_submit(ctx, &ticket);
        ticket
    }

    /// The miss/stale path: plan through the region pool, then cache and
    /// adopt the result.
    fn plan_submission(
        &mut self,
        ctx: &SimContext,
        tenant: u64,
        fp: WorkloadFingerprint,
        sorted: &[TraceRecord],
        file_size: u64,
        outcome: PlanOutcome,
    ) -> PlanTicket {
        let pool = (self.cfg.region_cache_capacity > 0).then_some(&mut self.region_cache);
        let planned = plan_file(
            ctx,
            &self.model,
            sorted,
            file_size,
            &self.cfg.division,
            &self.cfg.optimizer,
            pool,
        );
        self.cache.insert(fp.clone(), planned.rst.clone());
        self.install_tenant(ctx, tenant, fp, &planned.rst, sorted);
        PlanTicket {
            rst: planned.rst,
            outcome,
            reused_regions: planned.reused,
            planned_regions: planned.planned,
        }
    }

    /// Adopt a plan for a tenant: served table and a fresh monitor.
    fn install_tenant(
        &mut self,
        ctx: &SimContext,
        tenant: u64,
        fp: WorkloadFingerprint,
        rst: &RegionStripeTable,
        sorted: &[TraceRecord],
    ) {
        // A new plan replaces the tenant's table (and monitor) wholesale:
        // queued width updates were computed against the *old* table's
        // region geometry, so applying them to the new one at the next
        // tick would rewrite the wrong rows — or index past the end if
        // the new plan merged to fewer regions. Retire them as coalesced
        // (superseded before apply).
        let before = self.pending.len();
        self.pending.retain(|u| u.tenant != tenant);
        self.batch_coalesced += (before - self.pending.len()) as u64;
        let planned_avg = planned_averages(rst, sorted);
        let monitor = OnlineMonitor::new(
            self.model.clone(),
            rst.clone(),
            planned_avg,
            self.cfg.online.clone(),
        )
        .with_context(ctx);
        self.tenants.insert(
            tenant,
            Tenant {
                rst: rst.clone(),
                fingerprint: fp,
                monitor,
            },
        );
    }

    /// Feed one served request (with its observed latency, seconds) into
    /// the tenant's drift monitor. Confirmed adaptations are *enqueued*
    /// for the next [`tick`](Self::tick), not applied to the served table
    /// immediately. Returns how many updates were enqueued.
    pub fn observe_served(&mut self, tenant: u64, rec: TraceRecord, actual_s: f64) -> usize {
        let Some(t) = self.tenants.get_mut(&tenant) else {
            return 0;
        };
        let events = t.monitor.observe_served(rec, actual_s);
        let n = events.len();
        for event in events {
            self.seq += 1;
            self.pending.push(PendingUpdate {
                tenant,
                region: event.region,
                widths: event.new,
                seq: self.seq,
            });
        }
        self.adaptations += n as u64;
        self.batch_enqueued += n as u64;
        n
    }

    /// Close one service tick: coalesce all pending per-region updates
    /// (last writer wins per tenant × region), apply each tenant's batch
    /// in canonical `(tenant, region)` order, and invalidate the cached
    /// plan of each tenant whose served table actually changed (a batch
    /// of pure no-ops leaves the cached plan accurate, hence valid).
    pub fn tick(&mut self, ctx: &SimContext) -> TickReport {
        self.ticks += 1;
        let mut batch = std::mem::take(&mut self.pending);
        let enqueued = batch.len();
        batch.sort_by_key(|u| (u.tenant, u.region, u.seq));
        // Last writer wins per (tenant, region): the BTreeMap insert of
        // each successive seq overwrites its predecessor.
        let mut winners: BTreeMap<(u64, usize), Vec<u64>> = BTreeMap::new();
        for update in batch {
            winners.insert((update.tenant, update.region), update.widths);
        }
        let mut per_tenant: BTreeMap<u64, RegionUpdates> = BTreeMap::new();
        for ((tenant, region), widths) in winners {
            per_tenant.entry(tenant).or_default().push((region, widths));
        }
        let mut applied = 0usize;
        for (tenant, updates) in per_tenant {
            let Some(t) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            // Defence in depth: install_tenant purges a re-planned
            // tenant's queue, so every surviving region index should be
            // in range for the served table — but an out-of-range index
            // must degrade to a dropped update, never an apply_batch
            // panic or a rewrite of an unrelated region.
            let regions = t.rst.entries().len();
            let in_range: RegionUpdates = updates
                .into_iter()
                .filter(|(region, _)| *region < regions)
                .collect();
            let rewritten = t.rst.apply_batch(&in_range);
            if rewritten > 0 {
                // The tenant's served layout no longer matches the plan
                // its fingerprint cached.
                self.cache.invalidate(&t.fingerprint);
            }
            applied += rewritten;
        }
        let coalesced = enqueued - applied;
        self.batch_applied += applied as u64;
        self.batch_coalesced += coalesced as u64;
        if ctx.recorder().is_enabled() {
            let r = ctx.recorder();
            r.counter_add(registry::MW_SERVE_TICKS.name, &[], 1);
            r.counter_add(registry::MW_SERVE_BATCH_APPLIED.name, &[], applied as u64);
            r.counter_add(
                registry::MW_SERVE_BATCH_COALESCED.name,
                &[],
                coalesced as u64,
            );
        }
        TickReport {
            enqueued,
            applied,
            coalesced,
        }
    }

    /// Emit the per-submission metrics (recorder-gated).
    fn record_submit(&mut self, ctx: &SimContext, ticket: &PlanTicket) {
        if !ctx.recorder().is_enabled() {
            return;
        }
        let r = ctx.recorder();
        let labels = [("outcome", ticket.outcome.label().to_string())];
        r.counter_add(registry::MW_SERVE_PLANS.name, &labels, 1);
        let cache_metric = match ticket.outcome {
            PlanOutcome::CacheHit => registry::HARL_CACHE_HITS,
            PlanOutcome::StaleRefresh => registry::HARL_CACHE_STALE,
            PlanOutcome::Miss => registry::HARL_CACHE_MISSES,
        };
        r.counter_add(cache_metric.name, &[], 1);
        if ticket.reused_regions > 0 {
            r.counter_add(
                registry::MW_SERVE_REGIONS_REUSED.name,
                &[],
                ticket.reused_regions as u64,
            );
        }
        if ticket.planned_regions > 0 {
            r.counter_add(
                registry::MW_SERVE_REGIONS_PLANNED.name,
                &[],
                ticket.planned_regions as u64,
            );
        }
        let evictions = self.cache.stats().evictions;
        if evictions > self.recorded_evictions {
            r.counter_add(
                registry::HARL_CACHE_EVICTIONS.name,
                &[],
                evictions - self.recorded_evictions,
            );
            self.recorded_evictions = evictions;
        }
        r.gauge_set(registry::HARL_CACHE_SIZE.name, &[], self.cache.len() as f64);
        r.gauge_set(
            registry::MW_SERVE_TENANTS.name,
            &[],
            self.tenants.len() as f64,
        );
    }
}

/// Mean request size per merged RST region (what each region's layout was
/// planned for) — the monitor's `planned_avg`. Idle regions get 0; the
/// monitor clamps to ≥ 1 at comparison time.
fn planned_averages(rst: &RegionStripeTable, sorted: &[TraceRecord]) -> Vec<u64> {
    rst.entries()
        .iter()
        .map(|entry| {
            let lo = sorted.partition_point(|r| r.offset < entry.offset);
            let hi = sorted.partition_point(|r| r.offset < entry.end());
            let segment = &sorted[lo..hi];
            if segment.is_empty() {
                0
            } else {
                (segment.iter().map(|r| r.size).sum::<u64>() / segment.len() as u64).max(1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::collect_trace;
    use harl_core::{HarlPolicy, LayoutPolicy};
    use harl_devices::OpKind;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn service() -> PlanningService {
        PlanningService::new(model(), ServeConfig::default())
    }

    fn phased_trace(seed: u64) -> (Trace, u64) {
        let mut records = Vec::new();
        for phase in 0..4u64 {
            let base = phase * 16 * MB;
            let size = ((phase + seed) % 3 + 1) * 128 * KB;
            for i in 0..24u64 {
                records.push(TraceRecord {
                    rank: (i % 4) as u32,
                    fd: 0,
                    op: if phase % 2 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    offset: base + i * size,
                    size,
                    timestamp: SimNanos::from_nanos(phase * 1000 + i),
                });
            }
        }
        (Trace::from_records(records), 4 * 16 * MB)
    }

    #[test]
    fn first_submit_misses_then_identical_resubmit_hits() {
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        let first = svc.submit(&ctx, 1, &trace, size);
        assert_eq!(first.outcome, PlanOutcome::Miss);
        let second = svc.submit(&ctx, 1, &trace, size);
        assert_eq!(second.outcome, PlanOutcome::CacheHit);
        assert_eq!(second.rst, first.rst, "hit must be bit-identical");
        let stats = svc.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    }

    #[test]
    fn cache_hit_matches_direct_policy_plan() {
        // The serve path (fingerprint + cache + plan_file) must hand
        // out exactly what HarlPolicy::plan computes for the same inputs.
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(1);
        let ticket = svc.submit(&ctx, 7, &trace, size);
        let direct = HarlPolicy::new(model()).plan(&ctx, &trace, size);
        assert_eq!(ticket.rst, direct);
        let hit = svc.submit(&ctx, 8, &trace, size);
        assert_eq!(hit.rst, direct);
    }

    #[test]
    fn tenants_sharing_a_workload_share_the_plan() {
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        svc.submit(&ctx, 1, &trace, size);
        let other = svc.submit(&ctx, 2, &trace, size);
        assert_eq!(other.outcome, PlanOutcome::CacheHit);
        assert_eq!(svc.stats().tenants, 2);
    }

    #[test]
    fn adaptation_invalidates_and_stale_refresh_reuses_regions() {
        let mut svc = PlanningService::new(
            model(),
            ServeConfig {
                online: OnlineConfig {
                    window: 32,
                    patience: 1,
                    ..OnlineConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        let first = svc.submit(&ctx, 1, &trace, size);
        // Drive drift: small requests into the first region, far off the
        // planned average, with punishing latencies.
        let mut enqueued = 0;
        for i in 0..64u64 {
            enqueued += svc.observe_served(
                1,
                TraceRecord {
                    rank: 0,
                    fd: 0,
                    op: OpKind::Read,
                    offset: (i % 16) * 4 * KB,
                    size: 4 * KB,
                    timestamp: SimNanos::from_nanos(i),
                },
                0.5,
            );
        }
        assert!(enqueued > 0, "drift should enqueue at least one update");
        let report = svc.tick(&ctx);
        assert!(report.applied > 0);
        // The tenant's served table diverged from the plan.
        assert_ne!(svc.tenant_rst(1), Some(&first.rst));
        // Resubmitting the original workload now sees a stale entry and
        // finds every region in the pool.
        let refresh = svc.submit(&ctx, 1, &trace, size);
        assert_eq!(refresh.outcome, PlanOutcome::StaleRefresh);
        assert_eq!(refresh.rst, first.rst, "same workload, same plan");
        assert_eq!(refresh.planned_regions, 0, "all regions recycled");
        assert!(refresh.reused_regions > 0);
    }

    #[test]
    fn replan_purges_stale_pending_updates() {
        // A drifted tenant that re-submits (a different workload) before
        // the next tick gets a fresh table; the updates still queued
        // against the old table must be retired, not applied to the new
        // one.
        let mut svc = PlanningService::new(
            model(),
            ServeConfig {
                online: OnlineConfig {
                    window: 32,
                    patience: 1,
                    ..OnlineConfig::default()
                },
                ..ServeConfig::default()
            },
        );
        let ctx = SimContext::new();
        let (trace_a, size_a) = phased_trace(0);
        svc.submit(&ctx, 1, &trace_a, size_a);
        let mut enqueued = 0;
        for i in 0..64u64 {
            enqueued += svc.observe_served(
                1,
                TraceRecord {
                    rank: 0,
                    fd: 0,
                    op: OpKind::Read,
                    offset: (i % 16) * 4 * KB,
                    size: 4 * KB,
                    timestamp: SimNanos::from_nanos(i),
                },
                0.5,
            );
        }
        assert!(enqueued > 0, "drift should enqueue at least one update");
        // Re-submit a different workload before the tick: new fingerprint,
        // new plan, new table — the queued updates are now meaningless.
        let (trace_b, size_b) = phased_trace(1);
        let fresh = svc.submit(&ctx, 1, &trace_b, size_b);
        assert!(svc.pending.is_empty(), "re-install must purge the queue");
        let report = svc.tick(&ctx);
        assert_eq!(report.applied, 0, "no stale update may reach the table");
        assert_eq!(svc.tenant_rst(1), Some(&fresh.rst));
        let stats = svc.stats();
        assert_eq!(
            stats.batch_enqueued,
            stats.batch_applied + stats.batch_coalesced,
            "purged updates must be accounted as coalesced"
        );
    }

    #[test]
    fn tick_drops_out_of_range_region_updates() {
        // Even if a stale index slips past the install-time purge, tick
        // must drop it (counted as coalesced), not panic or rewrite an
        // unrelated region.
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        let first = svc.submit(&ctx, 1, &trace, size);
        svc.seq += 1;
        let seq = svc.seq;
        svc.pending.push(PendingUpdate {
            tenant: 1,
            region: 999,
            widths: vec![64 * KB; 2],
            seq,
        });
        let report = svc.tick(&ctx);
        assert_eq!((report.applied, report.coalesced), (0, 1));
        assert_eq!(svc.tenant_rst(1), Some(&first.rst));
    }

    #[test]
    fn noop_tick_keeps_cached_plan_valid() {
        // A batch of pure no-ops leaves the served table equal to the
        // cached plan, so the next identical submission must still hit.
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        svc.submit(&ctx, 1, &trace, size);
        let current = svc
            .tenant_rst(1)
            .map(|r| r.entries()[0].widths().to_vec())
            .unwrap_or_default();
        svc.seq += 1;
        let seq = svc.seq;
        svc.pending.push(PendingUpdate {
            tenant: 1,
            region: 0,
            widths: current,
            seq,
        });
        let report = svc.tick(&ctx);
        assert_eq!(report.applied, 0);
        let again = svc.submit(&ctx, 1, &trace, size);
        assert_eq!(again.outcome, PlanOutcome::CacheHit);
    }

    #[test]
    fn tick_coalesces_duplicate_updates_last_writer_wins() {
        let mut svc = service();
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        svc.submit(&ctx, 1, &trace, size);
        let classes = svc.tenant_rst(1).map(|r| r.classes()).unwrap_or(2);
        // Enqueue three updates for the same region by hand; only the last
        // may be applied.
        for w in [64 * KB, 128 * KB, 256 * KB] {
            svc.seq += 1;
            let seq = svc.seq;
            svc.pending.push(PendingUpdate {
                tenant: 1,
                region: 0,
                widths: vec![w; classes],
                seq,
            });
        }
        let report = svc.tick(&ctx);
        assert_eq!(report.enqueued, 3);
        assert_eq!(report.applied, 1);
        assert_eq!(report.coalesced, 2);
        let rst = svc.tenant_rst(1).expect("tenant placed");
        assert_eq!(rst.entries()[0].widths(), &vec![256 * KB; classes][..]);
    }

    #[test]
    fn zero_capacity_service_never_hits() {
        let mut svc = PlanningService::new(
            model(),
            ServeConfig {
                plan_cache_capacity: 0,
                region_cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let ctx = SimContext::new();
        let (trace, size) = phased_trace(0);
        for _ in 0..3 {
            let t = svc.submit(&ctx, 1, &trace, size);
            assert_eq!(t.outcome, PlanOutcome::Miss);
            assert_eq!(t.reused_regions, 0, "the region pool is off");
        }
        assert_eq!(svc.stats().cache.hits, 0);
    }

    #[test]
    fn service_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let mut svc = service();
            let ctx = SimContext::new().with_threads(threads);
            let cfg = harl_workloads_free_traffic();
            let mut outcomes = Vec::new();
            for (tenant, trace, size) in &cfg {
                let t = svc.submit(&ctx, *tenant, trace, *size);
                outcomes.push((t.outcome, t.rst));
            }
            (outcomes, svc.stats())
        };
        let (ref_outcomes, ref_stats) = run(1);
        for threads in [2, 8] {
            let (outcomes, stats) = run(threads);
            assert_eq!(outcomes, ref_outcomes, "{threads} threads diverged");
            assert_eq!(stats, ref_stats);
        }
    }

    /// A small deterministic submission mix (avoids a dev-dependency on
    /// harl-workloads: middleware sits below it in the crate graph).
    fn harl_workloads_free_traffic() -> Vec<(u64, Trace, u64)> {
        let mut subs = Vec::new();
        for tenant in 0..6u64 {
            let (trace, size) = phased_trace(tenant % 3);
            subs.push((tenant, trace, size));
        }
        subs
    }

    #[test]
    fn btio_style_collective_trace_plans_fine() {
        // The service is plan-only: collective workloads trace through
        // collect_trace (identity lowering) and plan like any other.
        let mut svc = service();
        let ctx = SimContext::new();
        let w = harl_workloads_stub_btio();
        let trace = collect_trace(&w);
        let size = w.extent().max(1);
        let t = svc.submit(&ctx, 9, &trace, size);
        assert!(!t.rst.is_empty());
        assert_eq!(t.rst.file_size(), size);
    }

    /// Minimal collective workload (again avoiding an upward dependency).
    fn harl_workloads_stub_btio() -> crate::logical::Workload {
        let mut w = crate::logical::Workload::with_ranks(4);
        for (rank, prog) in w.ranks.iter_mut().enumerate() {
            prog.push_collective(vec![crate::logical::LogicalRequest {
                op: OpKind::Write,
                offset: rank as u64 * MB,
                size: MB,
            }]);
        }
        w
    }
}
