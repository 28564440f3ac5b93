//! On-line layout adaptation — the paper's closing future work: *"explore
//! on-line data layout and data migration methods to make heterogeneous
//! I/O systems more intelligent and efficient."*
//!
//! HARL is an off-line scheme: it assumes later runs repeat the traced
//! pattern. When the pattern drifts (a new input deck, a different reader)
//! the planned stripes go stale. [`OnlineMonitor`] watches the live
//! request stream in fixed-size windows and, per RST region, compares the
//! observed average request size against the size the plan was optimised
//! for. Sustained drift (several consecutive windows beyond a ratio
//! threshold) triggers a re-plan of that region on the window's requests,
//! and the monitor reports an [`AdaptationEvent`] with the new per-class
//! widths plus the estimated migration bill (the region's bytes must be
//! re-striped) so a policy layer can decide whether the remaining horizon
//! amortises it.
//!
//! Each confirmed re-plan searches the window's requests. The regions
//! confirmed in one window are searched concurrently under
//! [`OptimizerConfig::threads`], one region per worker at a time.

use crate::model::CostKernel;
use crate::multiprofile::MultiProfileModel;
use crate::optimizer::{fan_out, optimize_region, OptimizerConfig, RegionRequests};
use crate::rst::RegionStripeTable;
use crate::trace::TraceRecord;
use harl_simcore::{registry, OnlineStats, SimContext};
use serde::{Deserialize, Serialize};

/// Monitor tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Requests per observation window.
    pub window: usize,
    /// Drift threshold as a size ratio (observed/planned or its inverse);
    /// 2.0 means "twice or half the planned request size".
    pub drift_ratio: f64,
    /// Consecutive drifted windows required before re-planning.
    pub patience: usize,
    /// Model-drift threshold on the cost residual: a window counts as
    /// drifted when the mean |actual − predicted| latency (fed through
    /// [`OnlineMonitor::observe_served`]) exceeds this multiple of the mean
    /// predicted cost. Only applies when served latencies are reported.
    pub residual_ratio: f64,
    /// Optimizer settings for re-planning.
    pub optimizer: OptimizerConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: 256,
            drift_ratio: 2.0,
            patience: 2,
            residual_ratio: 1.0,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 512,
                ..OptimizerConfig::default()
            },
        }
    }
}

/// A recommended adaptation for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationEvent {
    /// Index of the drifted region in the RST.
    pub region: usize,
    /// The per-class widths the region currently uses.
    pub old: Vec<u64>,
    /// The re-planned per-class widths.
    pub new: Vec<u64>,
    /// Observed average request size that triggered the re-plan.
    pub observed_avg: u64,
    /// Request size the region was planned for.
    pub planned_avg: u64,
    /// Bytes that must be re-striped to adopt the new layout.
    pub migration_bytes: u64,
    /// Predicted per-request saving under the new layout (seconds).
    pub saving_per_request_s: f64,
}

impl AdaptationEvent {
    /// Requests after which the migration pays for itself, given an
    /// estimated migration throughput (bytes/second). `None` if the
    /// re-plan predicts no saving.
    pub fn break_even_requests(&self, migration_bytes_per_s: f64) -> Option<u64> {
        if self.saving_per_request_s <= 0.0 || migration_bytes_per_s <= 0.0 {
            return None;
        }
        let migration_s = self.migration_bytes as f64 / migration_bytes_per_s;
        Some((migration_s / self.saving_per_request_s).ceil() as u64)
    }
}

/// Per-region drift state.
#[derive(Debug, Clone, Default)]
struct RegionState {
    drifted_windows: usize,
    window_stats: OnlineStats,
    window_requests: Vec<TraceRecord>,
    /// Signed cost residuals (actual − predicted, seconds) this window.
    residual: OnlineStats,
    /// Model-predicted request costs (seconds) this window.
    predicted: OnlineStats,
}

impl RegionState {
    fn reset_window(&mut self) {
        self.window_stats = OnlineStats::new();
        self.window_requests.clear();
        self.residual = OnlineStats::new();
        self.predicted = OnlineStats::new();
    }
}

/// The on-line monitor. Feed it the live stream via
/// [`observe`](Self::observe) (sizes only) or
/// [`observe_served`](Self::observe_served) (sizes plus served latency,
/// enabling model-drift detection); it returns adaptation events as drift
/// is confirmed.
pub struct OnlineMonitor {
    model: MultiProfileModel,
    /// `model`'s cost kernel, for predictions and re-plan savings.
    kernel: CostKernel,
    rst: RegionStripeTable,
    /// The per-region average request size the current plan assumed.
    planned_avg: Vec<u64>,
    cfg: OnlineConfig,
    regions: Vec<RegionState>,
    seen_in_window: usize,
    ctx: SimContext,
}

impl std::fmt::Debug for OnlineMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineMonitor")
            .field("model", &self.model)
            .field("rst", &self.rst)
            .field("planned_avg", &self.planned_avg)
            .field("cfg", &self.cfg)
            .field("regions", &self.regions)
            .field("seen_in_window", &self.seen_in_window)
            .finish_non_exhaustive()
    }
}

impl OnlineMonitor {
    /// Start monitoring a placed file.
    ///
    /// `planned_avg[i]` is the average request size region `i` was
    /// optimised for (from Algorithm 1's `A_reg`); if unknown, pass the
    /// observed averages of the original trace.
    pub fn new(
        model: MultiProfileModel,
        rst: RegionStripeTable,
        planned_avg: Vec<u64>,
        cfg: OnlineConfig,
    ) -> Self {
        assert_eq!(
            planned_avg.len(),
            rst.len(),
            "one planned average per region"
        );
        assert!(cfg.window > 0, "window must be positive");
        assert!(cfg.drift_ratio > 1.0, "drift ratio must exceed 1.0");
        let regions = (0..rst.len()).map(|_| RegionState::default()).collect();
        OnlineMonitor {
            kernel: CostKernel::new(&model),
            model,
            rst,
            planned_avg,
            cfg,
            regions,
            seen_in_window: 0,
            ctx: SimContext::new(),
        }
    }

    /// Attach a [`SimContext`]. Residuals, drift histograms and adaptation
    /// counters are emitted through its recorder (the default context is
    /// silent), and a context thread override caps the re-plan fan-out.
    pub fn with_context(mut self, ctx: &SimContext) -> Self {
        self.ctx = ctx.clone();
        self
    }

    /// The table the monitor currently considers active (updated as
    /// adaptations fire).
    pub fn current_rst(&self) -> &RegionStripeTable {
        &self.rst
    }

    /// Observe one live request. Returns adaptation events (usually none;
    /// at window boundaries possibly one per drifted region).
    pub fn observe(&mut self, rec: TraceRecord) -> Vec<AdaptationEvent> {
        let region = self.rst.region_of(rec.offset);
        let state = &mut self.regions[region];
        state.window_stats.push(rec.size as f64);
        state.window_requests.push(rec);
        self.seen_in_window += 1;
        if self.seen_in_window < self.cfg.window {
            return Vec::new();
        }
        self.close_window()
    }

    /// Observe one live request together with its served latency (seconds).
    ///
    /// On top of [`observe`](Self::observe)'s size-drift tracking, this
    /// compares the served latency against the Sec. III-D cost model's
    /// prediction for the region's current widths. The signed
    /// residual `actual − predicted` feeds a per-region drift statistic: a
    /// window whose mean residual magnitude exceeds
    /// `residual_ratio × mean predicted cost` counts as drifted even when
    /// request sizes still match the plan — catching model staleness
    /// (device slowdown, contention) that size statistics cannot see.
    pub fn observe_served(&mut self, rec: TraceRecord, actual_s: f64) -> Vec<AdaptationEvent> {
        let region = self.rst.region_of(rec.offset);
        let predicted = {
            let entry = &self.rst.entries()[region];
            self.kernel.request_cost(
                rec.offset.saturating_sub(entry.offset),
                rec.size,
                rec.op,
                entry.widths(),
            )
        };
        let residual = actual_s - predicted;
        {
            let state = &mut self.regions[region];
            state.residual.push(residual);
            state.predicted.push(predicted);
        }
        if self.ctx.recorder().is_enabled() {
            let labels = [("region", region.to_string())];
            self.ctx.recorder().observe_f64(
                registry::HARL_MODEL_RESIDUAL_S.name,
                &labels,
                residual,
            );
            self.ctx.recorder().observe(
                registry::HARL_MODEL_RESIDUAL_ABS_NS.name,
                &labels,
                (residual.abs() * 1e9) as u64,
            );
        }
        self.observe(rec)
    }

    /// Close the current window: evaluate drift per region and re-plan the
    /// regions whose patience ran out.
    ///
    /// Drift bookkeeping is a sequential pass (it mutates per-region
    /// state), but the expensive part — Algorithm 2 on each confirmed
    /// region — is independent per region, so the confirmed regions are
    /// re-planned concurrently under the [`OptimizerConfig::threads`]
    /// budget and their results applied back in region order, keeping the
    /// event list and the adopted table identical for every thread count.
    fn close_window(&mut self) -> Vec<AdaptationEvent> {
        self.seen_in_window = 0;
        // Pass 1 (sequential, mutates monitor state): decide which regions'
        // patience ran out and collect their re-plan inputs.
        struct ReplanJob {
            region: usize,
            entry: crate::rst::RstEntry,
            sorted: Vec<TraceRecord>,
            observed_avg: u64,
            planned: u64,
        }
        let mut jobs: Vec<ReplanJob> = Vec::new();
        for region in 0..self.regions.len() {
            let observed = {
                let state = &self.regions[region];
                if state.window_stats.count() == 0 {
                    // No traffic: decay the drift counter.
                    None
                } else {
                    Some(state.window_stats.mean().max(1.0) as u64)
                }
            };
            let Some(observed_avg) = observed else {
                self.regions[region].drifted_windows = 0;
                continue;
            };
            let planned = self.planned_avg[region].max(1);
            let ratio = observed_avg as f64 / planned as f64;
            let size_drift = ratio > self.cfg.drift_ratio || ratio < 1.0 / self.cfg.drift_ratio;
            let state = &mut self.regions[region];
            // Model drift: served latencies systematically off-prediction
            // (requires enough observe_served samples to trust the mean).
            let residual_drift = state.residual.count() >= 8
                && state.predicted.mean() > 0.0
                && state.residual.mean().abs() > self.cfg.residual_ratio * state.predicted.mean();
            if !(size_drift || residual_drift) {
                state.drifted_windows = 0;
                state.reset_window();
                continue;
            }
            state.drifted_windows += 1;
            if state.drifted_windows < self.cfg.patience {
                // Keep accumulating evidence (and requests for re-planning).
                continue;
            }
            // Confirmed drift: queue this region for re-planning on the
            // observed stream.
            let entry = self.rst.entries()[region].clone();
            let requests = std::mem::take(&mut state.window_requests);
            state.reset_window();
            state.drifted_windows = 0;

            let mut sorted = requests;
            sorted.sort_by_key(|r| r.offset);
            jobs.push(ReplanJob {
                region,
                entry,
                sorted,
                observed_avg,
                planned,
            });
        }

        // Pass 2: Algorithm 2 on each confirmed region, fanned out across
        // the thread budget (each region's search runs on one thread).
        let threads = self.ctx.threads_or(self.cfg.optimizer.threads);
        let (model, kernel, cfg) = (&self.model, &self.kernel, &self.cfg.optimizer);
        let ctx = &self.ctx;
        let outcomes = fan_out(jobs.len(), threads, |i| {
            let job = &jobs[i];
            let reqs = RegionRequests::new(&job.sorted, job.entry.offset);
            let choice = optimize_region(ctx, model, &reqs, job.observed_avg, cfg, job.region);
            // Predicted per-request saving under the new widths.
            let old_cost =
                reqs.cost_of_widths(kernel, job.entry.widths(), cfg.max_requests_per_eval);
            let new_cost = reqs.cost_of_widths(kernel, &choice.widths, cfg.max_requests_per_eval);
            (choice, old_cost, new_cost)
        });

        // Pass 3 (sequential, region order): adopt the new layouts.
        let mut events = Vec::new();
        for (job, (choice, old_cost, new_cost)) in jobs.iter().zip(outcomes) {
            if choice.widths.as_slice() == job.entry.widths() {
                // Same layout still optimal; just update expectations.
                self.planned_avg[job.region] = job.observed_avg;
                continue;
            }
            let n = job.sorted.len().max(1) as f64;
            let event = AdaptationEvent {
                region: job.region,
                old: job.entry.widths().to_vec(),
                new: choice.widths.clone(),
                observed_avg: job.observed_avg,
                planned_avg: job.planned,
                migration_bytes: job.entry.len,
                saving_per_request_s: (old_cost - new_cost).max(0.0) / n,
            };
            // Adopt the new layout in the active table.
            self.rst.set_region_widths(job.region, choice.widths);
            self.planned_avg[job.region] = job.observed_avg;
            if self.ctx.recorder().is_enabled() {
                self.ctx.recorder().counter_add(
                    registry::HARL_ONLINE_ADAPTATIONS.name,
                    &[("region", job.region.to_string())],
                    1,
                );
            }
            events.push(event);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_devices::OpKind;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn monitor(planned_size: u64) -> OnlineMonitor {
        let rst = RegionStripeTable::single(1 << 30, 32 * KB, 160 * KB);
        OnlineMonitor::new(
            model(),
            rst,
            vec![planned_size],
            OnlineConfig {
                window: 32,
                patience: 2,
                ..OnlineConfig::default()
            },
        )
    }

    fn rec(offset: u64, size: u64) -> TraceRecord {
        TraceRecord {
            rank: 0,
            fd: 0,
            op: OpKind::Read,
            offset,
            size,
            timestamp: SimNanos::ZERO,
        }
    }

    #[test]
    fn stable_stream_never_adapts() {
        let mut m = monitor(512 * KB);
        for i in 0..512u64 {
            let events = m.observe(rec(i * 512 * KB % (1 << 30), 512 * KB));
            assert!(events.is_empty(), "false positive at request {i}");
        }
    }

    #[test]
    fn sustained_drift_triggers_replan() {
        // Planned for 512 KiB; the stream shifts to 128 KiB requests, whose
        // optimum is SServer-only ({0, 64K}).
        let mut m = monitor(512 * KB);
        let mut events = Vec::new();
        for i in 0..256u64 {
            events.extend(m.observe(rec((i * 128 * KB) % (1 << 30), 128 * KB)));
        }
        assert_eq!(events.len(), 1, "exactly one adaptation expected");
        let e = &events[0];
        assert_eq!(e.old, vec![32 * KB, 160 * KB]);
        assert_eq!(e.new, vec![0, 64 * KB]);
        assert_eq!(e.planned_avg, 512 * KB);
        assert!(e.saving_per_request_s > 0.0);
        // The active table now carries the new widths.
        let entry = &m.current_rst().entries()[0];
        assert_eq!((entry.h(), entry.s()), (0, 64 * KB));
    }

    #[test]
    fn patience_absorbs_single_window_blips() {
        let mut m = monitor(512 * KB);
        // One drifted window (32 small requests), then back to normal.
        for i in 0..32u64 {
            assert!(m.observe(rec(i * 128 * KB, 128 * KB)).is_empty());
        }
        for i in 0..256u64 {
            let events = m.observe(rec(i * 512 * KB % (1 << 30), 512 * KB));
            assert!(events.is_empty(), "blip should not trigger adaptation");
        }
    }

    #[test]
    fn adapted_monitor_does_not_refire_on_same_pattern() {
        let mut m = monitor(512 * KB);
        let mut total_events = 0;
        for i in 0..512u64 {
            total_events += m.observe(rec((i * 128 * KB) % (1 << 30), 128 * KB)).len();
        }
        assert_eq!(total_events, 1, "one drift, one adaptation");
    }

    #[test]
    fn break_even_math() {
        let e = AdaptationEvent {
            region: 0,
            old: vec![32 * KB, 160 * KB],
            new: vec![0, 64 * KB],
            observed_avg: 128 * KB,
            planned_avg: 512 * KB,
            migration_bytes: 1 << 30,
            saving_per_request_s: 1e-3,
        };
        // 1 GiB at 512 MiB/s = 2 s migration; 2 s / 1 ms = 2000 requests.
        let n = e.break_even_requests(512.0 * 1024.0 * 1024.0).unwrap();
        assert_eq!(n, 2000);
        let never = AdaptationEvent {
            saving_per_request_s: 0.0,
            ..e
        };
        assert_eq!(never.break_even_requests(1e9), None);
    }

    #[test]
    fn multi_region_monitor_targets_the_drifted_region() {
        let rst = crate::rst::RegionStripeTable::new(vec![
            crate::rst::RstEntry::two(0, 512 << 20, 32 * KB, 160 * KB),
            crate::rst::RstEntry::two(512 << 20, 512 << 20, 32 * KB, 160 * KB),
        ]);
        let mut m = OnlineMonitor::new(
            model(),
            rst,
            vec![512 * KB, 512 * KB],
            OnlineConfig {
                window: 64,
                patience: 2,
                ..OnlineConfig::default()
            },
        );
        // Region 0 stays at 512 KiB; region 1 drifts to 128 KiB.
        let mut events = Vec::new();
        for i in 0..512u64 {
            events.extend(m.observe(rec((i * 512 * KB) % (512 << 20), 512 * KB)));
            events.extend(m.observe(rec((512 << 20) + (i * 128 * KB) % (256 << 20), 128 * KB)));
        }
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| e.region == 1),
            "only region 1 drifted"
        );
        let entries = m.current_rst().entries();
        assert_eq!((entries[0].h(), entries[0].s()), (32 * KB, 160 * KB));
        assert_eq!((entries[1].h(), entries[1].s()), (0, 64 * KB));
    }

    #[test]
    fn replan_deterministic_across_thread_counts() {
        // Both regions drift in the same window, so close_window fans the
        // two re-plans out; the events and the adopted table must match
        // the single-threaded run exactly.
        let run = |threads: usize| {
            let rst = crate::rst::RegionStripeTable::new(vec![
                crate::rst::RstEntry::two(0, 512 << 20, 32 * KB, 160 * KB),
                crate::rst::RstEntry::two(512 << 20, 512 << 20, 32 * KB, 160 * KB),
            ]);
            let mut cfg = OnlineConfig {
                window: 64,
                patience: 2,
                ..OnlineConfig::default()
            };
            cfg.optimizer.threads = threads;
            let mut m = OnlineMonitor::new(model(), rst, vec![512 * KB, 512 * KB], cfg);
            let mut events = Vec::new();
            for i in 0..512u64 {
                events.extend(m.observe(rec((i * 128 * KB) % (256 << 20), 128 * KB)));
                events.extend(m.observe(rec((512 << 20) + (i * 64 * KB) % (128 << 20), 64 * KB)));
            }
            (events, m.current_rst().entries().to_vec())
        };
        let (ref_events, ref_entries) = run(1);
        assert!(!ref_events.is_empty(), "test needs at least one re-plan");
        for threads in [2, 4] {
            let (events, entries) = run(threads);
            assert_eq!(events, ref_events, "events changed with {threads} threads");
            assert_eq!(entries, ref_entries);
        }
    }

    #[test]
    fn repeat_drift_pattern_replans_regions_alike() {
        // Region 0 drifts first; region 1 then drifts with the *same*
        // region-relative pattern, so its re-plan must pick the same
        // widths.
        let rst = crate::rst::RegionStripeTable::new(vec![
            crate::rst::RstEntry::two(0, 512 << 20, 32 * KB, 160 * KB),
            crate::rst::RstEntry::two(512 << 20, 512 << 20, 32 * KB, 160 * KB),
        ]);
        let cfg = OnlineConfig {
            window: 64,
            patience: 1,
            ..OnlineConfig::default()
        };
        let mut m = OnlineMonitor::new(model(), rst, vec![512 * KB, 512 * KB], cfg);
        let mut events = Vec::new();
        for i in 0..64u64 {
            events.extend(m.observe(rec((i % 32) * 128 * KB, 128 * KB)));
        }
        for i in 0..64u64 {
            events.extend(m.observe(rec((512 << 20) + (i % 32) * 128 * KB, 128 * KB)));
        }
        assert_eq!(events.len(), 2, "both regions should adapt");
        assert_eq!(events[0].new, events[1].new);
        let entries = m.current_rst().entries();
        assert_eq!(entries[0].widths(), entries[1].widths());
    }

    #[test]
    fn residual_drift_triggers_replan_without_size_drift() {
        use harl_simcore::MemoryRecorder;
        // Planned avg matches the live stream (no size drift), but the
        // initial layout is suboptimal for it and the served latencies are
        // far above prediction — only the residual path can catch this.
        let rst = RegionStripeTable::single(1 << 30, 32 * KB, 160 * KB);
        let recorder = std::sync::Arc::new(MemoryRecorder::new());
        let mut m = OnlineMonitor::new(
            model(),
            rst,
            vec![128 * KB],
            OnlineConfig {
                window: 32,
                patience: 2,
                ..OnlineConfig::default()
            },
        )
        .with_context(&SimContext::recorded(recorder.clone()));
        let mut events = Vec::new();
        for i in 0..128u64 {
            events.extend(m.observe_served(rec((i * 128 * KB) % (1 << 30), 128 * KB), 0.5));
        }
        assert!(!events.is_empty(), "model drift should force a re-plan");
        assert_eq!(events[0].old, vec![32 * KB, 160 * KB]);
        assert_eq!(events[0].new, vec![0, 64 * KB]);
        let labels = [("region", "0".to_string())];
        assert!(recorder.counter_value(registry::HARL_ONLINE_ADAPTATIONS.name, &labels) >= 1);
        let summary = recorder
            .summary_snapshot("harl.model.residual_s", &labels)
            .expect("residual summary recorded");
        assert!(summary.count() >= 32);
        assert!(summary.mean() > 0.0, "served slower than predicted");
        let hist = recorder
            .histogram_snapshot(registry::HARL_MODEL_RESIDUAL_ABS_NS.name, &labels)
            .expect("residual histogram recorded");
        assert_eq!(hist.count(), summary.count());
    }

    #[test]
    fn accurate_model_never_flags_residual_drift() {
        // Same suboptimal-layout setup, but served latency equals the
        // prediction exactly: without model error there is no drift signal,
        // so the monitor must stay quiet.
        let reference = CostKernel::new(&model());
        let rst = RegionStripeTable::single(1 << 30, 32 * KB, 160 * KB);
        let mut m = OnlineMonitor::new(
            model(),
            rst,
            vec![128 * KB],
            OnlineConfig {
                window: 32,
                patience: 2,
                ..OnlineConfig::default()
            },
        );
        for i in 0..256u64 {
            let offset = (i * 128 * KB) % (1 << 30);
            let predicted =
                reference.request_cost(offset, 128 * KB, OpKind::Read, &[32 * KB, 160 * KB]);
            let events = m.observe_served(rec(offset, 128 * KB), predicted);
            assert!(events.is_empty(), "accurate predictions must not drift");
        }
    }

    #[test]
    #[should_panic(expected = "one planned average per region")]
    fn mismatched_planned_avg_rejected() {
        OnlineMonitor::new(
            model(),
            RegionStripeTable::single(1024, 4 * KB, 8 * KB),
            vec![],
            OnlineConfig::default(),
        );
    }
}
