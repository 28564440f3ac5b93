//! SServer space balancing — the paper's Sec. IV-D discussion.
//!
//! HARL deliberately over-weights SServers, so a small SSD pool can fill
//! up. The paper's answer: *"we could use a data migration method to
//! balance the storage space by moving data from SServers to HServers, so
//! the remaining available space on SServers can be guaranteed for new
//! incoming requests."*
//!
//! [`SpaceBalancer`] implements that: given a planned RST and the SServer
//! capacity budget, it projects per-class space usage and, if SServers
//! would overflow, re-plans the *least-hurt* regions under a constrained
//! optimizer (the same Algorithm 2 grid, restricted to candidates whose
//! SServer share fits) — regions are picked in order of smallest predicted
//! cost increase per byte reclaimed, which is a migration plan in the
//! "move data from SServers to HServers" sense.
//!
//! The balancer is two-tier by design: it takes a `K = 2`
//! [`MultiProfileModel`] (class 0 the HServers, class 1 the SServers) and
//! rejects any other class count.

use crate::model::CostKernel;
use crate::multiprofile::MultiProfileModel;
use crate::optimizer::{OptimizerConfig, RegionRequests};
use crate::rst::{RegionStripeTable, RstEntry};
use crate::trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Result of a balancing pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BalanceOutcome {
    /// The adjusted table.
    pub rst: RegionStripeTable,
    /// Projected SServer bytes before balancing.
    pub sserver_bytes_before: u64,
    /// Projected SServer bytes after balancing.
    pub sserver_bytes_after: u64,
    /// Regions whose stripes were adjusted.
    pub regions_adjusted: usize,
    /// Relative predicted cost increase across adjusted regions (0.0 when
    /// nothing moved).
    pub cost_increase_frac: f64,
}

/// A constrained two-tier candidate (the balancer is inherently two-tier:
/// it moves bytes from the SServer class to the HServer class).
#[derive(Debug, Clone, Copy)]
struct ConstrainedChoice {
    h: u64,
    s: u64,
    cost: f64,
}

/// SServer share of one region's bytes under `(h, s)` on an (M, N) cluster.
fn sserver_fraction(m: usize, h: u64, n: usize, s: u64) -> f64 {
    let total = m as u64 * h + n as u64 * s;
    if total == 0 {
        return 0.0;
    }
    (n as u64 * s) as f64 / total as f64
}

/// The `(M, N)` HServer and SServer counts of a two-tier model.
///
/// # Panics
/// Panics unless the model has exactly two classes.
fn tiers(model: &MultiProfileModel) -> (usize, usize) {
    assert_eq!(
        model.class_count(),
        2,
        "space balancing needs a two-class (HServer, SServer) model"
    );
    (model.classes[0].count, model.classes[1].count)
}

/// Projected SServer bytes of a whole RST.
///
/// # Panics
/// Panics unless `model` has exactly two classes.
pub fn projected_sserver_bytes(model: &MultiProfileModel, rst: &RegionStripeTable) -> u64 {
    let (m, n) = tiers(model);
    rst.entries()
        .iter()
        .map(|e| (e.len as f64 * sserver_fraction(m, e.h(), n, e.s())) as u64)
        .sum()
}

/// The space balancer.
#[derive(Debug, Clone)]
pub struct SpaceBalancer {
    /// Platform model used for re-planning; two classes (HServers, then
    /// SServers).
    pub model: MultiProfileModel,
    /// Total bytes the SServer pool may hold for this file.
    pub sserver_capacity: u64,
    /// Optimizer settings for the constrained re-plan.
    pub optimizer: OptimizerConfig,
}

impl SpaceBalancer {
    /// Best `(h, s)` for a region whose SServer share must not exceed
    /// `max_frac`. Returns `None` if no candidate satisfies the bound
    /// (cannot happen for `max_frac >= 0` when M > 0 thanks to the
    /// `(R̄, 0)` extreme).
    fn constrained_choice(
        &self,
        kernel: &CostKernel,
        requests: &RegionRequests<'_>,
        avg: u64,
        max_frac: f64,
    ) -> Option<ConstrainedChoice> {
        let (m, n) = tiers(&self.model);
        let step = self.optimizer.effective_step(avg.max(1));
        let r_bar = avg.max(step).div_ceil(step) * step;
        let mut best: Option<ConstrainedChoice> = None;
        let mut consider = |h: u64, s: u64| {
            if m as u64 * h + n as u64 * s == 0 {
                return;
            }
            if sserver_fraction(m, h, n, s) > max_frac + 1e-12 {
                return;
            }
            let cost =
                requests.cost_of_widths(kernel, &[h, s], self.optimizer.max_requests_per_eval);
            let cand = ConstrainedChoice { h, s, cost };
            best = Some(match best.take() {
                None => cand,
                Some(b)
                    if cand.cost < b.cost
                        || (cand.cost == b.cost && (cand.h, cand.s) > (b.h, b.s)) =>
                {
                    cand
                }
                Some(b) => b,
            });
        };
        let mut h = 0;
        while h <= r_bar {
            let mut s = h + step;
            while s <= r_bar + step {
                if n > 0 {
                    consider(h, s);
                }
                s += step;
            }
            h += step;
        }
        if m > 0 {
            consider(r_bar, 0);
        }
        best
    }

    /// Balance `rst` so projected SServer usage fits the capacity.
    ///
    /// `sorted` is the offset-sorted trace the plan was built from (used to
    /// re-cost regions). Regions are re-planned greedily in order of least
    /// cost-increase per SServer byte reclaimed until the budget holds.
    ///
    /// # Panics
    /// Panics unless the model has exactly two classes: a third class
    /// would be neither moved from nor moved to.
    pub fn balance(&self, rst: &RegionStripeTable, sorted: &[TraceRecord]) -> BalanceOutcome {
        let (m, n) = tiers(&self.model);
        let before = projected_sserver_bytes(&self.model, rst);
        if before <= self.sserver_capacity {
            return BalanceOutcome {
                rst: rst.clone(),
                sserver_bytes_before: before,
                sserver_bytes_after: before,
                regions_adjusted: 0,
                cost_increase_frac: 0.0,
            };
        }

        // Iteratively re-plan the region with the best reclaim-per-cost
        // under a halved SServer share bound until the budget holds or
        // nothing more can be reclaimed.
        let mut entries: Vec<RstEntry> = rst.entries().to_vec();
        let mut adjusted = vec![false; entries.len()];
        let mut old_cost_total = crate::fold::OrderedSum::new();
        let mut new_cost_total = crate::fold::OrderedSum::new();
        let mut current = before;
        let kernel = CostKernel::new(&self.model);

        // Precompute per-region request slices.
        let slices: Vec<(usize, usize)> = entries
            .iter()
            .map(|e| {
                let lo = sorted.partition_point(|r| r.offset < e.offset);
                let hi = sorted.partition_point(|r| r.offset < e.end());
                (lo, hi)
            })
            .collect();

        while current > self.sserver_capacity {
            let mut best_idx: Option<usize> = None;
            let mut best_score = f64::NEG_INFINITY;
            let mut best_plan: Option<(ConstrainedChoice, f64, u64)> = None;
            for (i, e) in entries.iter().enumerate() {
                if adjusted[i] {
                    continue;
                }
                let cur_frac = sserver_fraction(m, e.h(), n, e.s());
                if cur_frac == 0.0 {
                    continue;
                }
                let (lo, hi) = slices[i];
                let reqs = RegionRequests::new(&sorted[lo..hi], e.offset);
                let avg = if hi > lo {
                    (sorted[lo..hi].iter().map(|r| r.size).sum::<u64>() / (hi - lo) as u64).max(1)
                } else {
                    e.h().max(e.s())
                };
                let old_cost = reqs.cost_of_widths(
                    &kernel,
                    &[e.h(), e.s()],
                    self.optimizer.max_requests_per_eval,
                );
                let Some(plan) = self.constrained_choice(&kernel, &reqs, avg, cur_frac / 2.0)
                else {
                    continue;
                };
                let new_frac = sserver_fraction(m, plan.h, n, plan.s);
                let reclaimed = ((cur_frac - new_frac).max(0.0) * e.len as f64) as u64;
                if reclaimed == 0 {
                    continue;
                }
                let cost_delta = (plan.cost - old_cost).max(0.0);
                let score = reclaimed as f64 / (cost_delta + 1e-12);
                if score > best_score {
                    best_score = score;
                    best_idx = Some(i);
                    best_plan = Some((plan, old_cost, reclaimed));
                }
            }
            let (Some(i), Some((plan, old_cost, reclaimed))) = (best_idx, best_plan) else {
                break; // nothing left to reclaim
            };
            entries[i] = RstEntry::two(entries[i].offset, entries[i].len, plan.h, plan.s);
            adjusted[i] = true;
            old_cost_total.add(old_cost);
            new_cost_total.add(plan.cost);
            current = current.saturating_sub(reclaimed);
        }

        let regions_adjusted = adjusted.iter().filter(|&&a| a).count();
        let mut new_rst = RegionStripeTable::new(entries);
        new_rst.merge_adjacent();
        let after = projected_sserver_bytes(&self.model, &new_rst);
        BalanceOutcome {
            rst: new_rst,
            sserver_bytes_before: before,
            sserver_bytes_after: after,
            regions_adjusted,
            cost_increase_frac: if old_cost_total.value() > 0.0 {
                (new_cost_total.value() - old_cost_total.value()) / old_cost_total.value()
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_devices::OpKind;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn trace(n: u64, size: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i * size,
                size,
                timestamp: SimNanos::ZERO,
            })
            .collect()
    }

    fn ssd_heavy_rst(file_size: u64) -> RegionStripeTable {
        RegionStripeTable::single(file_size, 32 * KB, 160 * KB)
    }

    #[test]
    fn fraction_math() {
        assert!((sserver_fraction(6, 32 * KB, 2, 160 * KB) - 320.0 / 512.0).abs() < 1e-12);
        assert_eq!(sserver_fraction(6, 64 * KB, 2, 0), 0.0);
        assert_eq!(sserver_fraction(0, 0, 2, 64 * KB), 1.0);
    }

    #[test]
    fn projection_matches_fraction() {
        let rst = ssd_heavy_rst(512 * MB);
        let bytes = projected_sserver_bytes(&model(), &rst);
        let expect = (512.0 * MB as f64 * 320.0 / 512.0) as u64;
        assert_eq!(bytes, expect);
    }

    #[test]
    fn within_budget_is_untouched() {
        let rst = ssd_heavy_rst(512 * MB);
        let balancer = SpaceBalancer {
            model: model(),
            sserver_capacity: u64::MAX,
            optimizer: OptimizerConfig {
                threads: 1,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(64, 512 * KB));
        assert_eq!(out.regions_adjusted, 0);
        assert_eq!(out.rst, rst);
        assert_eq!(out.cost_increase_frac, 0.0);
    }

    #[test]
    fn over_budget_reclaims_space() {
        let rst = ssd_heavy_rst(512 * MB);
        let m = model();
        let before = projected_sserver_bytes(&m, &rst);
        let budget = before / 2;
        let balancer = SpaceBalancer {
            model: m.clone(),
            sserver_capacity: budget,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 64,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(64, 512 * KB));
        assert!(out.regions_adjusted >= 1);
        assert!(
            out.sserver_bytes_after < before,
            "no space reclaimed: {} -> {}",
            out.sserver_bytes_before,
            out.sserver_bytes_after
        );
        // Balancing trades space for cost: predicted cost must not decrease
        // (else the original plan was not optimal).
        assert!(out.cost_increase_frac >= 0.0);
    }

    #[test]
    fn multi_region_balancing_adjusts_some_regions() {
        let m = model();
        let mut records = trace(32, 2 * MB);
        let boundary = 32 * 2 * MB;
        records.extend((0..32u64).map(|i| TraceRecord {
            rank: 0,
            fd: 0,
            op: OpKind::Read,
            offset: boundary + i * 128 * KB,
            size: 128 * KB,
            timestamp: SimNanos::ZERO,
        }));
        let rst = RegionStripeTable::new(vec![
            RstEntry::two(0, boundary, 64 * KB, 832 * KB),
            RstEntry::two(boundary, 32 * 128 * KB, 0, 64 * KB),
        ]);
        let before = projected_sserver_bytes(&m, &rst);
        let balancer = SpaceBalancer {
            model: m,
            sserver_capacity: before * 3 / 4,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 32,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &records);
        assert!(out.sserver_bytes_after < before);
        assert!(out.regions_adjusted >= 1);
    }

    #[test]
    fn impossible_budget_degrades_gracefully() {
        // Capacity zero: balancer pushes as much as it can toward HServers
        // and stops rather than looping forever.
        let rst = ssd_heavy_rst(64 * MB);
        let balancer = SpaceBalancer {
            model: model(),
            sserver_capacity: 0,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 16,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(16, 512 * KB));
        assert!(out.sserver_bytes_after <= out.sserver_bytes_before);
    }

    #[test]
    #[should_panic(expected = "two-class")]
    fn three_class_model_rejected() {
        let cluster =
            ClusterConfig::hybrid(4, 2).with_extra_class(2, harl_devices::nvme_2020_preset());
        let balancer = SpaceBalancer {
            model: MultiProfileModel::from_cluster(&cluster),
            sserver_capacity: 0,
            optimizer: OptimizerConfig::default(),
        };
        let rst = RegionStripeTable::uniform(64 * MB, vec![32 * KB, 160 * KB, 256 * KB]);
        balancer.balance(&rst, &trace(16, 512 * KB));
    }

    #[test]
    #[should_panic(expected = "two-class")]
    fn three_class_projection_rejected() {
        let cluster =
            ClusterConfig::hybrid(4, 2).with_extra_class(2, harl_devices::nvme_2020_preset());
        let rst = RegionStripeTable::uniform(64 * MB, vec![32 * KB, 160 * KB, 256 * KB]);
        projected_sserver_bytes(&MultiProfileModel::from_cluster(&cluster), &rst);
    }
}
