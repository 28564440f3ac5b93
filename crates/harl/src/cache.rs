//! Plan caching and incremental re-planning.
//!
//! [`plan_file`] is the one whole-file planning path (Algorithm 1, then
//! Algorithm 2 per region, then the RST merge), behind both
//! [`crate::policy::HarlPolicy`] and the planning service. Two caches sit
//! in front of it:
//!
//! 1. [`RegionPlanCache`] — a pool of per-region search results keyed by
//!    [`RegionPlanKey`], the region's exact search input. Given a pool,
//!    `plan_file` looks every region up before the search and banks every
//!    region's result after it. A hit is bit-identical to the search it
//!    skips. Without a pool no key is computed.
//! 2. [`PlanCache`] — whole-plan memoisation keyed by
//!    [`WorkloadFingerprint`], with deterministic LRU eviction (logical
//!    clock, ties broken by fingerprint order) and hit/miss/stale
//!    accounting. The fingerprint is a lossy digest (log-bucketed counts,
//!    5% write buckets, grid-rounded averages): equal traces always produce
//!    equal fingerprints, so a resubmission hit is bit-identical to
//!    re-planning that trace, but two *different* traces can bucket
//!    identically and then share the first submitter's plan — approximate
//!    workload matching by design, trading exactness for fleet-wide reuse.
//!
//! The safety argument for bitwise equality covers the region pool only,
//! and it is structural, not statistical: a [`RegionPlanKey`] is the
//! *exact* input of one `optimize_region` call — the deterministic stride
//! sample of the region's requests (region-relative offsets, sizes, ops),
//! the average request size, and the grid geometry (`step`,
//! `max_grid_points`). `optimize_region` is a pure function of those
//! inputs plus the model, so replaying a cached result can never differ
//! from recomputing it. Thread budgets are deliberately excluded from the
//! key: a region's search runs on one thread whatever the budget. Caches
//! are scoped to one cost model — callers mixing models must segregate
//! caches (the fingerprint's class tags enforce this at the [`PlanCache`]
//! tier).

// Index/iteration hygiene, ratcheted to deny: cache reuse must replay
// regions in canonical order, and an indexed loop is where an off-by-one
// would silently change which cached result a region receives.
#![deny(
    clippy::explicit_iter_loop,
    clippy::explicit_into_iter_loop,
    clippy::needless_range_loop,
    clippy::range_plus_one,
    clippy::range_minus_one
)]

use crate::fingerprint::WorkloadFingerprint;
use crate::multiprofile::MultiProfileModel;
use crate::optimizer::{optimize_region, LayoutChoice, OptimizerConfig, RegionRequests};
use crate::region::{divide_regions, Region, RegionDivisionConfig};
use crate::rst::{RegionStripeTable, RstEntry};
use crate::trace::TraceRecord;
use harl_devices::OpKind;
use harl_simcore::SimContext;
use std::collections::BTreeMap;

/// One sampled request as the optimizer sees it (region-relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SampledReq {
    /// Offset relative to the region start.
    pub offset: u64,
    /// Request size in bytes.
    pub size: u64,
    /// Whether the request is a write.
    pub write: bool,
}

/// The exact input of one per-region grid search — the region-cache key.
///
/// Equal keys guarantee `optimize_region` would return the identical
/// [`LayoutChoice`]; see the module docs for the argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionPlanKey {
    /// Average request size handed to Algorithm 2 (sets `R̄`).
    pub avg_request_size: u64,
    /// Grid step of the search.
    pub step: u64,
    /// Grid-point cap per axis (together with `step` fixes the effective
    /// step).
    pub max_grid_points: usize,
    /// The deterministic stride sample the cost evaluation runs on.
    pub sample: Vec<SampledReq>,
}

/// Build the [`RegionPlanKey`] for one region's grid search.
fn region_plan_key(
    reqs: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
) -> RegionPlanKey {
    RegionPlanKey {
        avg_request_size,
        step: cfg.step,
        max_grid_points: cfg.max_grid_points,
        sample: reqs
            .sample(cfg.max_requests_per_eval)
            .into_iter()
            .map(|(offset, size, op)| SampledReq {
                offset,
                size,
                write: op == OpKind::Write,
            })
            .collect(),
    }
}

/// The result of planning one file.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFile {
    /// The merged region stripe table (what `HarlPolicy::plan` returns).
    pub rst: RegionStripeTable,
    /// Regions answered from the pool.
    pub reused: usize,
    /// Regions whose search ran.
    pub planned: usize,
}

/// Plan a whole file: Algorithm 1 region division, Algorithm 2 per-region
/// width search (fanned out across the thread budget), RST assembly and
/// adjacent-row merge.
///
/// `sorted` must be offset-sorted (from
/// [`crate::trace::Trace::sorted_by_offset`]). With a `pool`, every
/// region's [`RegionPlanKey`] is looked up in region order before the
/// fan-out, so the pool's LRU clock moves the same way at any thread
/// count; a hit skips the region's search, and every region's result is
/// banked afterwards. The table is bit-identical with or without a pool.
pub fn plan_file(
    ctx: &SimContext,
    model: &MultiProfileModel,
    sorted: &[TraceRecord],
    file_size: u64,
    division: &RegionDivisionConfig,
    optimizer: &OptimizerConfig,
    mut pool: Option<&mut RegionPlanCache>,
) -> PlannedFile {
    let regions = divide_regions(sorted, file_size, division);
    let requests = |region: &Region| {
        RegionRequests::new(
            &sorted[region.first_request..region.last_request],
            region.offset,
        )
    };
    let lookups: Vec<(RegionPlanKey, Option<LayoutChoice>)> = match pool.as_deref_mut() {
        Some(pool) => regions
            .iter()
            .map(|region| {
                let key = region_plan_key(&requests(region), region.avg_request_size, optimizer);
                let hit = pool.get(&key);
                (key, hit)
            })
            .collect(),
        None => Vec::new(),
    };
    let reused = lookups.iter().filter(|(_, hit)| hit.is_some()).count();
    // One thread budget for the whole plan (the context override, else the
    // caller's config), spent on the region fan-out; each region's result
    // lands in its own slot, so the table is identical for every budget.
    let threads = ctx.threads_or(optimizer.threads);
    let choices = crate::optimizer::fan_out(regions.len(), threads, |i| {
        if let Some((_, Some(choice))) = lookups.get(i) {
            return choice.clone();
        }
        let region = &regions[i];
        optimize_region(
            ctx,
            model,
            &requests(region),
            region.avg_request_size,
            optimizer,
            i,
        )
    });
    if let Some(pool) = pool {
        // Banking a reused key again refreshes its recency.
        for ((key, _), choice) in lookups.into_iter().zip(&choices) {
            pool.insert(key, choice.clone());
        }
    }
    let entries = regions
        .iter()
        .zip(choices)
        .map(|(region, choice)| RstEntry::new(region.offset, region.len(), choice.widths))
        .collect();
    let mut table = RegionStripeTable::new(entries);
    table.merge_adjacent();
    PlannedFile {
        rst: table,
        reused,
        planned: regions.len() - reused,
    }
}

/// Hit/miss accounting for a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an invalidated entry.
    pub stale: u64,
    /// Entries evicted by the LRU.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all lookups, 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a [`PlanCache::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A live plan; use it as-is.
    Hit(RegionStripeTable),
    /// An invalidated plan, removed from the cache on the way out.
    Stale,
    /// Nothing cached for this fingerprint.
    Miss,
}

#[derive(Debug, Clone)]
struct PlanSlot {
    rst: RegionStripeTable,
    last_used: u64,
    stale: bool,
}

/// Whole-plan memoisation keyed by [`WorkloadFingerprint`].
///
/// Eviction is least-recently-used by a logical clock that advances once
/// per lookup/insert (no wall time — the cache is part of the
/// deterministic data path); clock ties are impossible, but the backing
/// `BTreeMap` additionally fixes iteration order so behaviour is
/// reproducible even under replay.
#[derive(Debug, Clone)]
pub struct PlanCache {
    entries: BTreeMap<WorkloadFingerprint, PlanSlot>,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans. Capacity 0 turns
    /// the cache off: every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cached plans currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a fingerprint, updating recency and counters.
    pub fn lookup(&mut self, fp: &WorkloadFingerprint) -> CacheLookup {
        self.clock += 1;
        match self.entries.get_mut(fp) {
            Some(slot) if !slot.stale => {
                slot.last_used = self.clock;
                self.stats.hits += 1;
                CacheLookup::Hit(slot.rst.clone())
            }
            Some(_) => {
                self.stats.stale += 1;
                // Remove on the way out: the caller re-plans and re-inserts.
                self.entries.remove(fp);
                CacheLookup::Stale
            }
            None => {
                self.stats.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Insert (or refresh) a plan, evicting LRU entries past capacity.
    pub fn insert(&mut self, fp: WorkloadFingerprint, rst: RegionStripeTable) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.insert(
            fp,
            PlanSlot {
                rst,
                last_used: clock,
                stale: false,
            },
        );
        while self.entries.len() > self.capacity {
            // Deterministic victim: smallest (last_used, fingerprint).
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| (a.1.last_used, a.0).cmp(&(b.1.last_used, b.0)))
                .map(|(fp, _)| fp.clone());
            let Some(victim) = victim else { break };
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Mark a fingerprint's plan stale (its layout was adapted online).
    /// Returns whether a live entry was invalidated.
    pub fn invalidate(&mut self, fp: &WorkloadFingerprint) -> bool {
        match self.entries.get_mut(fp) {
            Some(slot) if !slot.stale => {
                slot.stale = true;
                true
            }
            _ => false,
        }
    }
}

/// Pool of per-region grid results keyed by exact search input,
/// LRU-bounded like [`PlanCache`]; the planning service shares one across
/// tenants.
#[derive(Debug, Clone)]
pub struct RegionPlanCache {
    entries: BTreeMap<RegionPlanKey, (LayoutChoice, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RegionPlanCache {
    /// An empty pool holding at most `capacity` grid results; capacity 0
    /// disables it.
    pub fn new(capacity: usize) -> Self {
        RegionPlanCache {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cached grid results currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Look up one region's grid result, bumping recency on a hit.
    pub fn get(&mut self, key: &RegionPlanKey) -> Option<LayoutChoice> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some((choice, last_used)) => {
                *last_used = self.clock;
                self.hits += 1;
                Some(choice.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert one grid result, evicting LRU entries past capacity.
    pub fn insert(&mut self, key: RegionPlanKey, choice: LayoutChoice) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.insert(key, (choice, clock));
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| (a.1 .1, a.0).cmp(&(b.1 .1, b.0)))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            self.entries.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_sorted;
    use crate::policy::{HarlPolicy, LayoutPolicy};
    use crate::trace::Trace;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn multi_phase_trace() -> (Trace, u64) {
        let mut records = Vec::new();
        for phase in 0..6u64 {
            let base = phase * 16 * MB;
            let size = (phase % 3 + 1) * 128 * KB;
            for i in 0..32u64 {
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
        (Trace::from_records(records), 6 * 16 * MB)
    }

    fn division() -> RegionDivisionConfig {
        RegionDivisionConfig {
            fixed_region_size: 4 * MB,
            ..RegionDivisionConfig::default()
        }
    }

    #[test]
    fn cold_plan_matches_policy_plan() {
        let (trace, file_size) = multi_phase_trace();
        let mut policy = HarlPolicy::new(model());
        policy.division = division();
        let via_policy = policy.plan(&SimContext::new(), &trace, file_size);
        let sorted = trace.sorted_by_offset();
        let cold = plan_file(
            &SimContext::new(),
            &policy.model,
            &sorted,
            file_size,
            &policy.division,
            &policy.optimizer,
            None,
        );
        assert_eq!(cold.rst, via_policy);
        assert_eq!(cold.reused, 0);
    }

    #[test]
    fn empty_pool_is_bit_identical_to_cold() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let cfg = OptimizerConfig::default();
        let ctx = SimContext::new();
        let cold = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, None);
        let mut pool = RegionPlanCache::new(64);
        let warm = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, Some(&mut pool));
        assert_eq!(warm.rst, cold.rst);
        assert_eq!(warm.reused, 0);
        assert_eq!(warm.planned, cold.planned);
        assert_eq!(pool.stats(), (0, cold.planned as u64));
    }

    #[test]
    fn warmed_pool_skips_every_search_and_matches() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let cfg = OptimizerConfig::default();
        let ctx = SimContext::new();
        let cold = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, None);
        let mut pool = RegionPlanCache::new(64);
        plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, Some(&mut pool));
        let second = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, Some(&mut pool));
        assert_eq!(second.rst, cold.rst);
        assert_eq!(second.planned, 0, "every region should come from the pool");
        assert_eq!(second.reused, cold.planned);
    }

    #[test]
    fn plan_cache_hit_returns_bit_identical_plan() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let fp = fingerprint_sorted(&sorted, file_size, &div, &m);
        let cold = plan_file(
            &SimContext::new(),
            &m,
            &sorted,
            file_size,
            &div,
            &OptimizerConfig::default(),
            None,
        );
        let mut cache = PlanCache::new(8);
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        cache.insert(fp.clone(), cold.rst.clone());
        match cache.lookup(&fp) {
            CacheLookup::Hit(rst) => assert_eq!(rst, cold.rst),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = |size: u64| {
            let records: Vec<_> = (0..8)
                .map(|i| TraceRecord {
                    rank: 0,
                    fd: 0,
                    op: OpKind::Read,
                    offset: i * size,
                    size,
                    timestamp: SimNanos::ZERO,
                })
                .collect();
            fingerprint_sorted(&records, 8 * size, &div, &m)
        };
        let plan = RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]);
        let mut cache = PlanCache::new(2);
        let (a, b, c) = (fp(64 * KB), fp(128 * KB), fp(256 * KB));
        cache.insert(a.clone(), plan.clone());
        cache.insert(b.clone(), plan.clone());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(matches!(cache.lookup(&a), CacheLookup::Hit(_)));
        cache.insert(c.clone(), plan.clone());
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(&a), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&b), CacheLookup::Miss));
        assert!(matches!(cache.lookup(&c), CacheLookup::Hit(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = fingerprint_sorted(&[], MB, &div, &m);
        let mut cache = PlanCache::new(0);
        cache.insert(
            fp.clone(),
            RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]),
        );
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidated_entry_surfaces_as_stale_once() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = fingerprint_sorted(&[], MB, &div, &m);
        let mut cache = PlanCache::new(4);
        cache.insert(
            fp.clone(),
            RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]),
        );
        assert!(cache.invalidate(&fp));
        assert!(!cache.invalidate(&fp), "double invalidation is a no-op");
        assert_eq!(cache.lookup(&fp), CacheLookup::Stale);
        assert!(matches!(cache.lookup(&fp), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.stale, stats.misses), (1, 1));
    }

    #[test]
    fn region_cache_round_trips_and_evicts() {
        let mut pool = RegionPlanCache::new(2);
        let key = |avg: u64| RegionPlanKey {
            avg_request_size: avg,
            step: 4096,
            max_grid_points: 128,
            sample: vec![SampledReq {
                offset: 0,
                size: avg,
                write: false,
            }],
        };
        let choice = |w: u64| LayoutChoice {
            widths: vec![w, w],
            cost: 1.0,
        };
        pool.insert(key(1), choice(4096));
        pool.insert(key(2), choice(8192));
        assert_eq!(pool.get(&key(1)), Some(choice(4096)));
        pool.insert(key(3), choice(12288));
        // key(2) was least recently used.
        assert_eq!(pool.get(&key(2)), None);
        assert_eq!(pool.get(&key(3)), Some(choice(12288)));
        assert_eq!(pool.len(), 2);
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (2, 1));
    }
}
