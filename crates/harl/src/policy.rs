//! Layout policies: everything the paper's evaluation compares.
//!
//! A policy turns `(trace, file size, platform model)` into a
//! [`RegionStripeTable`] — the complete description of how the logical file
//! is laid out. Policies are class-count generic: each one plans per-class
//! stripe widths in `ClusterConfig::classes` order (the paper's two-tier
//! `(h, s)` pair is the `K = 2` case). Implemented policies:
//!
//! * [`FixedPolicy`] — the traditional scheme: one region, identical stripe
//!   size on every server ("64K" etc. in the paper's figures).
//! * [`RandomPolicy`] — the paper's "randomly-chosen stripe" strategy: a
//!   seeded random width per class from the grid.
//! * [`SegmentPolicy`] — the segment-level baseline of \[10\]: fixed-size
//!   regions, per-region *uniform* stripe chosen by the cost model
//!   (workload-aware but heterogeneity-blind).
//! * [`HarlPolicy`] — the paper's contribution: Algorithm 1 region
//!   division + Algorithm 2 per-region width optimisation + RST merge.

use crate::model::CostKernel;
use crate::multiprofile::MultiProfileModel;
use crate::optimizer::{optimize_region, OptimizerConfig, RegionRequests};
use crate::region::RegionDivisionConfig;
use crate::rst::{RegionStripeTable, RstEntry};
use crate::trace::Trace;
use harl_simcore::{SimContext, SimRng};
use serde::{Deserialize, Serialize};

/// A data-layout policy: produces the RST describing a file's placement.
pub trait LayoutPolicy {
    /// Decide the layout for a file of `file_size` bytes given its trace.
    ///
    /// The [`SimContext`] supplies the metrics recorder for the planner's
    /// instrumentation and (when set) the thread-budget override applied
    /// on top of the policy's own [`OptimizerConfig::threads`].
    fn plan(&self, ctx: &SimContext, trace: &Trace, file_size: u64) -> RegionStripeTable;

    /// Short label for reports ("64K", "random#1", "HARL", …).
    fn label(&self) -> String;
}

/// Traditional fixed-size striping over all servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedPolicy {
    /// The stripe size used on every server.
    pub stripe: u64,
    /// Number of server classes the table spans.
    pub classes: usize,
}

impl FixedPolicy {
    /// A two-tier fixed layout with the given stripe.
    pub fn new(stripe: u64) -> Self {
        FixedPolicy::uniform(stripe, 2)
    }

    /// A fixed layout with the given stripe across `classes` classes.
    pub fn uniform(stripe: u64, classes: usize) -> Self {
        assert!(stripe > 0, "fixed stripe must be positive");
        assert!(classes > 0, "fixed layout needs at least one class");
        FixedPolicy { stripe, classes }
    }
}

impl LayoutPolicy for FixedPolicy {
    fn plan(&self, _ctx: &SimContext, _trace: &Trace, file_size: u64) -> RegionStripeTable {
        RegionStripeTable::uniform(file_size, vec![self.stripe; self.classes])
    }

    fn label(&self) -> String {
        format!("{}K", self.stripe / 1024)
    }
}

/// Randomly chosen stripe sizes (the paper's second baseline).
///
/// Draws one width per class independently from the 4 KiB grid within
/// `[min_stripe, max_stripe]`, deterministic per seed. At `K = 2` the
/// draw order is `h` then `s`, matching the original two-tier policy
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomPolicy {
    /// RNG seed (different seeds give the figures' "random#i" variants).
    pub seed: u64,
    /// Smallest stripe the draw may pick.
    pub min_stripe: u64,
    /// Largest stripe the draw may pick.
    pub max_stripe: u64,
    /// Grid step for the draw.
    pub step: u64,
    /// Number of server classes to draw widths for.
    pub classes: usize,
}

impl RandomPolicy {
    /// A two-tier random policy over the paper's stripe range
    /// (16 KiB – 2 MiB).
    pub fn new(seed: u64) -> Self {
        RandomPolicy::for_classes(seed, 2)
    }

    /// A random policy drawing one width per class.
    pub fn for_classes(seed: u64, classes: usize) -> Self {
        assert!(classes > 0, "random layout needs at least one class");
        RandomPolicy {
            seed,
            min_stripe: 16 * 1024,
            max_stripe: 2 * 1024 * 1024,
            step: 4 * 1024,
            classes,
        }
    }

    /// The widths this policy draws (exposed for reporting).
    pub fn draw_widths(&self) -> Vec<u64> {
        let mut rng = SimRng::derived(self.seed, "random-policy");
        let lo = self.min_stripe / self.step;
        let hi = self.max_stripe / self.step;
        (0..self.classes)
            .map(|_| rng.uniform_u64(lo, hi) * self.step)
            .collect()
    }

    /// The two-tier pair this policy draws — `draw_widths()` truncated to
    /// the first two classes (reporting shorthand).
    pub fn draw(&self) -> (u64, u64) {
        let w = self.draw_widths();
        (
            w.first().copied().unwrap_or(0),
            w.get(1).copied().unwrap_or(0),
        )
    }
}

impl LayoutPolicy for RandomPolicy {
    fn plan(&self, _ctx: &SimContext, _trace: &Trace, file_size: u64) -> RegionStripeTable {
        RegionStripeTable::uniform(file_size, self.draw_widths())
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self
            .draw_widths()
            .iter()
            .map(|w| format!("{}K", w / 1024))
            .collect();
        format!("rand{}", parts.join("-"))
    }
}

/// Segment-level baseline \[10\]: fixed-size regions, per-region uniform
/// stripe picked by the cost model — adapts to the workload but treats all
/// servers as identical.
#[derive(Debug, Clone)]
pub struct SegmentPolicy {
    /// Platform model (used with uniform-width candidates only).
    pub model: MultiProfileModel,
    /// Segment (region) size, e.g. 64 MiB.
    pub segment_size: u64,
    /// Grid configuration.
    pub optimizer: OptimizerConfig,
}

impl LayoutPolicy for SegmentPolicy {
    fn plan(&self, _ctx: &SimContext, trace: &Trace, file_size: u64) -> RegionStripeTable {
        let sorted = trace.sorted_by_offset();
        let classes = self.model.class_count();
        let kernel = CostKernel::new(&self.model);
        let mut entries = Vec::new();
        let mut offset = 0u64;
        while offset < file_size {
            let len = self.segment_size.min(file_size - offset);
            // Requests falling in this segment.
            let lo = sorted.partition_point(|r| r.offset < offset);
            let hi = sorted.partition_point(|r| r.offset < offset + len);
            let segment = &sorted[lo..hi];
            let avg = if segment.is_empty() {
                64 * 1024
            } else {
                (segment.iter().map(|r| r.size).sum::<u64>() / segment.len() as u64).max(1)
            };
            // Uniform-stripe search: the same width on every class.
            let step = self.optimizer.step;
            let r_bar = avg.max(step).div_ceil(step) * step;
            let reqs = RegionRequests::new(segment, offset);
            let cap = self.optimizer.max_requests_per_eval;
            let mut best: Option<(u64, f64)> = None;
            for k in (step..=r_bar).step_by(step as usize) {
                let cost = reqs.cost_of_widths(&kernel, &vec![k; classes], cap);
                best = Some(match best {
                    None => (k, cost),
                    Some(b) if cost < b.1 => (k, cost),
                    Some(b) => b,
                });
            }
            // `step..=r_bar` holds at least `step` (r_bar >= step), so the
            // grid always yields a candidate; the fallback is unreachable.
            let (stripe, _) = best.unwrap_or((step, 0.0));
            entries.push(RstEntry::new(offset, len, vec![stripe; classes]));
            offset += len;
        }
        let mut table = RegionStripeTable::new(entries);
        table.merge_adjacent();
        table
    }

    fn label(&self) -> String {
        format!("segment{}M", self.segment_size >> 20)
    }
}

/// Server-level adaptive baseline \[22\]: one width vector for the *whole
/// file* — heterogeneity-aware but blind to workload changes along the
/// file. Equivalent to HARL with a single region; the gap between the two
/// is exactly what region-level adaptation buys (the abl-region ablation).
#[derive(Debug, Clone)]
pub struct ServerLevelPolicy {
    /// Platform model.
    pub model: MultiProfileModel,
    /// Grid configuration.
    pub optimizer: OptimizerConfig,
}

impl ServerLevelPolicy {
    /// Server-level policy with default optimizer settings.
    pub fn new(model: MultiProfileModel) -> Self {
        ServerLevelPolicy {
            model,
            optimizer: OptimizerConfig::default(),
        }
    }
}

impl LayoutPolicy for ServerLevelPolicy {
    fn plan(&self, ctx: &SimContext, trace: &Trace, file_size: u64) -> RegionStripeTable {
        let sorted = trace.sorted_by_offset();
        let avg = if sorted.is_empty() {
            64 * 1024
        } else {
            (sorted.iter().map(|r| r.size).sum::<u64>() / sorted.len() as u64).max(1)
        };
        let reqs = RegionRequests::new(&sorted, 0);
        let choice = optimize_region(ctx, &self.model, &reqs, avg, &self.optimizer, 0);
        RegionStripeTable::uniform(file_size, choice.widths)
    }

    fn label(&self) -> String {
        "server-level".to_string()
    }
}

/// The paper's HARL scheme.
#[derive(Debug, Clone)]
pub struct HarlPolicy {
    /// Platform model (ideally calibrated — see
    /// [`MultiProfileModel::from_cluster_calibrated`]).
    pub model: MultiProfileModel,
    /// Region-division tuning (Algorithm 1).
    pub division: RegionDivisionConfig,
    /// Grid-search tuning (Algorithm 2).
    pub optimizer: OptimizerConfig,
}

impl HarlPolicy {
    /// HARL with default tuning for the given model.
    pub fn new(model: MultiProfileModel) -> Self {
        HarlPolicy {
            model,
            division: RegionDivisionConfig::default(),
            optimizer: OptimizerConfig::default(),
        }
    }
}

impl LayoutPolicy for HarlPolicy {
    fn plan(&self, ctx: &SimContext, trace: &Trace, file_size: u64) -> RegionStripeTable {
        let sorted = trace.sorted_by_offset();
        // The shared whole-file pipeline, without a pool: no fingerprint
        // and no region key is computed.
        crate::cache::plan_file(
            ctx,
            &self.model,
            &sorted,
            file_size,
            &self.division,
            &self.optimizer,
            None,
        )
        .rst
    }

    fn label(&self) -> String {
        "HARL".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use harl_devices::OpKind;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn uniform_trace(n: u64, size: u64, op: OpKind) -> Trace {
        Trace::from_records(
            (0..n)
                .map(|i| TraceRecord {
                    rank: (i % 16) as u32,
                    fd: 0,
                    op,
                    offset: i * size,
                    size,
                    timestamp: SimNanos::ZERO,
                })
                .collect(),
        )
    }

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    #[test]
    fn fixed_policy_single_region() {
        let t = uniform_trace(8, 512 * KB, OpKind::Read);
        let rst = FixedPolicy::new(64 * KB).plan(&SimContext::new(), &t, 16 * MB);
        assert_eq!(rst.len(), 1);
        assert_eq!(rst.entries()[0].h(), 64 * KB);
        assert_eq!(rst.entries()[0].s(), 64 * KB);
        assert_eq!(FixedPolicy::new(64 * KB).label(), "64K");
    }

    #[test]
    fn fixed_policy_spans_any_class_count() {
        let t = Trace::new();
        let rst = FixedPolicy::uniform(64 * KB, 3).plan(&SimContext::new(), &t, 16 * MB);
        assert_eq!(rst.entries()[0].widths(), &[64 * KB, 64 * KB, 64 * KB]);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let t = Trace::new();
        let a = RandomPolicy::new(7).plan(&SimContext::new(), &t, MB);
        let b = RandomPolicy::new(7).plan(&SimContext::new(), &t, MB);
        assert_eq!(a, b);
        let c = RandomPolicy::new(8).plan(&SimContext::new(), &t, MB);
        assert!(
            a.entries()[0].h() != c.entries()[0].h() || a.entries()[0].s() != c.entries()[0].s(),
            "different seeds should (almost surely) differ"
        );
    }

    #[test]
    fn random_policy_respects_range() {
        for seed in 0..50 {
            let (h, s) = RandomPolicy::new(seed).draw();
            assert!((16 * KB..=2 * MB).contains(&h));
            assert!((16 * KB..=2 * MB).contains(&s));
            assert_eq!(h % (4 * KB), 0);
            assert_eq!(s % (4 * KB), 0);
        }
    }

    #[test]
    fn random_policy_widths_prefix_matches_two_tier_draw() {
        // A K-class draw starts with the exact same RNG sequence as the
        // two-tier draw: existing seeds keep their (h, s) pair.
        for seed in 0..20 {
            let (h, s) = RandomPolicy::new(seed).draw();
            let w = RandomPolicy::for_classes(seed, 3).draw_widths();
            assert_eq!((w[0], w[1]), (h, s), "seed {seed}");
            assert!((16 * KB..=2 * MB).contains(&w[2]));
        }
    }

    #[test]
    fn harl_uniform_workload_yields_one_region() {
        let t = uniform_trace(128, 512 * KB, OpKind::Read);
        let policy = HarlPolicy::new(model());
        let rst = policy.plan(&SimContext::new(), &t, 128 * 512 * KB);
        assert_eq!(rst.len(), 1, "uniform workload should merge to 1 region");
        let e = &rst.entries()[0];
        assert!(e.s() > e.h(), "SServers must get the larger stripe");
    }

    #[test]
    fn harl_multiphase_workload_yields_distinct_regions() {
        // Two phases: small requests then large requests.
        let mut records = Vec::new();
        for i in 0..64u64 {
            records.push(TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i * 128 * KB,
                size: 128 * KB,
                timestamp: SimNanos::ZERO,
            });
        }
        let boundary = 64 * 128 * KB;
        for i in 0..64u64 {
            records.push(TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: boundary + i * MB,
                size: MB,
                timestamp: SimNanos::ZERO,
            });
        }
        let file_size = boundary + 64 * MB;
        let mut policy = HarlPolicy::new(model());
        policy.division.fixed_region_size = 4 * MB;
        let rst = policy.plan(&SimContext::new(), &Trace::from_records(records), file_size);
        assert!(rst.len() >= 2, "expected per-phase regions, got {rst:?}");
        // The small-request phase should leans toward SServers more than
        // the large-request phase (smaller or zero h).
        let first = &rst.entries()[0];
        let last = rst.entries().last().unwrap();
        assert!(
            first.h() < last.h() || first.s() < last.s(),
            "phases should get different layouts: {first:?} vs {last:?}"
        );
    }

    #[test]
    fn harl_plan_deterministic_across_thread_counts() {
        // Region-level fan-out must never change the planned table: a
        // multi-phase trace (several regions) planned with 1, 2, 3 and 8
        // threads yields bit-identical entries.
        let mut records = Vec::new();
        for phase in 0..8u64 {
            let base = phase * 16 * MB;
            let size = (phase % 4 + 1) * 128 * KB;
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
        let trace = Trace::from_records(records);
        let file_size = 8 * 16 * MB;
        let mut policy = HarlPolicy::new(model());
        policy.division.fixed_region_size = 4 * MB;
        policy.optimizer.threads = 1;
        let reference = policy.plan(&SimContext::new(), &trace, file_size);
        assert!(reference.len() > 1, "test needs several regions");
        for threads in [2, 3, 8] {
            policy.optimizer.threads = threads;
            let got = policy.plan(&SimContext::new(), &trace, file_size);
            assert_eq!(
                got.entries(),
                reference.entries(),
                "plan changed with {threads} threads"
            );
        }
    }

    #[test]
    fn harl_beats_fixed_under_its_own_model() {
        // Internal consistency: HARL's plan must cost no more than any
        // fixed plan under the cost model it optimised against.
        let m = model();
        let t = uniform_trace(64, 512 * KB, OpKind::Read);
        let file_size = 64 * 512 * KB;
        let harl = HarlPolicy::new(m.clone()).plan(&SimContext::new(), &t, file_size);
        let he = &harl.entries()[0];
        let sorted = t.sorted_by_offset();
        let kernel = CostKernel::new(&m);
        let harl_cost: f64 = sorted
            .iter()
            .map(|r| kernel.request_cost(r.offset, r.size, r.op, he.widths()))
            .sum();
        for stripe in [16 * KB, 64 * KB, 256 * KB, MB] {
            let fixed_cost: f64 = sorted
                .iter()
                .map(|r| kernel.request_cost(r.offset, r.size, r.op, &[stripe, stripe]))
                .sum();
            assert!(
                harl_cost <= fixed_cost + 1e-12,
                "HARL cost {harl_cost} beaten by fixed {stripe}: {fixed_cost}"
            );
        }
    }

    #[test]
    fn segment_policy_uniform_stripes() {
        let t = uniform_trace(64, 512 * KB, OpKind::Read);
        let policy = SegmentPolicy {
            model: model(),
            segment_size: 8 * MB,
            optimizer: OptimizerConfig {
                threads: 1,
                ..OptimizerConfig::default()
            },
        };
        let rst = policy.plan(&SimContext::new(), &t, 32 * MB);
        for e in rst.entries() {
            assert_eq!(e.h(), e.s(), "segment-level layout is heterogeneity-blind");
        }
        assert_eq!(rst.file_size(), 32 * MB);
    }

    #[test]
    fn server_level_is_single_region_varied() {
        let mut records = Vec::new();
        for i in 0..32u64 {
            records.push(TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i * 128 * KB,
                size: 128 * KB,
                timestamp: SimNanos::ZERO,
            });
        }
        let boundary = 32 * 128 * KB;
        for i in 0..32u64 {
            records.push(TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: boundary + i * MB,
                size: MB,
                timestamp: SimNanos::ZERO,
            });
        }
        let trace = Trace::from_records(records);
        let rst =
            ServerLevelPolicy::new(model()).plan(&SimContext::new(), &trace, boundary + 32 * MB);
        // One region for the whole file, but stripes differ per class.
        assert_eq!(rst.len(), 1);
        let e = &rst.entries()[0];
        assert!(e.s() > e.h(), "server-level must still favour SServers");
    }

    #[test]
    fn labels() {
        assert_eq!(HarlPolicy::new(model()).label(), "HARL");
        let seg = SegmentPolicy {
            model: model(),
            segment_size: 64 * MB,
            optimizer: OptimizerConfig::default(),
        };
        assert_eq!(seg.label(), "segment64M");
    }
}
