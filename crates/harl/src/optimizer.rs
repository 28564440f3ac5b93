//! Region stripe-size determination — the paper's Algorithm 2, for any
//! class count.
//!
//! [`optimize_region`] dispatches on the model's class count: `K = 2` runs
//! the paper's exhaustive grid below (bit-identical to the original
//! two-tier optimizer); `K ≥ 3` runs the deterministic coordinate descent
//! of [`crate::multiprofile::MultiProfileOptimizer`] under the same
//! configuration. The rest of this doc describes the `K = 2` grid.
//!
//! For each region, grid-search the stripe pair `(h, s)` in `step` (4 KiB)
//! increments, summing the cost-model prediction over the region's
//! requests, and keep the cheapest pair. Bounds follow the paper: `h` runs
//! from 0 (no data on HServers — the Fig. 9 optimum) to the region's
//! average request size `R̄`, and `s` from `h + step` upward ("s starts
//! from a size which is larger than h because this configuration can lead
//! to load balance among heterogeneous servers"). Two deviations, both
//! documented in DESIGN.md:
//!
//! * the paper's loop leaves `h = R̄` with an empty `s` range; we extend
//!   `s` to one step past `R̄` so that configuration is actually evaluated,
//!   and also evaluate the "single HServer" extreme `(R̄, 0)` the text
//!   calls out;
//! * region cost may be evaluated over an evenly-strided sample of at most
//!   `max_requests_per_eval` requests to bound off-line analysis time (the
//!   paper bounds it by running off-line; the sample is deterministic).
//!
//! One region's grid runs on one thread; ties break toward the
//! lexicographically *largest* `(h, s)` (see `pick_better`: fewer stripe
//! fragments, and the paper's Fig. 9 optima). The thread budget,
//! [`OptimizerConfig::threads`], goes to the *regions*: whole-file planning
//! ([`crate::cache::plan_file`]) and on-line re-planning
//! ([`crate::online::OnlineMonitor`]) search regions concurrently (see
//! `fan_out`), each into its own slot, so results are identical no matter
//! how many threads run.
//!
//! Three hot-path optimizations keep each candidate cheap without changing
//! the result:
//!
//! * **weighted folding** — request cost depends on the offset only
//!   through `offset mod group` (the layout repeats every
//!   `M·h + N·s` bytes), so per candidate the sample collapses to unique
//!   `(offset mod group, size, op)` keys with multiplicities; uniform
//!   IOR-style regions fold thousands of requests into a handful of
//!   weighted evaluations;
//! * **a per-request cost floor** — [`CostKernel::request_floor`] bounds a
//!   request's price from below at every offset, priced once per
//!   candidate for each distinct `(size, op)` in the sample. The incumbent
//!   settles within a few candidates, and most later ones cost more in
//!   floor alone, so they are dropped before or soon after their first
//!   residue is priced;
//! * **one pruning test** — a candidate is dropped once its running sum
//!   plus the floor of the requests it has not priced yet exceeds the
//!   incumbent's cost times `1 + δ` (see `SampleRuns`). The margin `δ`
//!   covers the fold's rounding, so a dropped candidate's full sum is
//!   strictly above the incumbent's: it could neither win nor tie, and
//!   the winner and its exact summation order are unchanged.
//!
//! The `K ≥ 3` descent folds through the same strided runs and prunes by
//! the same test, and also remembers the width vectors it has scored. It
//! replays each run's residue costs in sample order rather than weighting
//! them by multiplicity, so its sums are exactly per-request sums; the
//! grid keeps its weighted sums. The two orders round differently, and
//! each search's results are pinned to its own (see
//! [`crate::multiprofile`] and DESIGN.md Appendix B).

use crate::cast::{u64_to_usize, usize_to_u64};
use crate::model::CostKernel;
use crate::multiprofile::{MultiProfileModel, MultiProfileOptimizer};
use crate::trace::TraceRecord;
use harl_devices::OpKind;
use harl_simcore::{registry, SimContext};
use serde::{Deserialize, Serialize};

/// Optimizer tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Grid step (paper: 4 KiB; "finer step values result in more precise
    /// h and s values, but with increased cost calculation overhead").
    pub step: u64,
    /// Upper bound on grid points per axis. For large `R̄` (e.g. the
    /// multi-MiB requests collective I/O produces) a fixed 4 KiB step would
    /// explode the grid; the effective step is raised to keep at most this
    /// many points per axis — the same precision/overhead dial the paper
    /// assigns to the user's choice of step.
    pub max_grid_points: usize,
    /// Cap on requests per cost evaluation (deterministic stride sample).
    pub max_requests_per_eval: usize,
    /// Worker threads for the region fan-out of whole-file planning and
    /// on-line re-planning (1 = sequential). Each region's search runs on
    /// one thread.
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            step: 4 * 1024,
            max_grid_points: 128,
            max_requests_per_eval: 4096,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl OptimizerConfig {
    /// The step actually used for a region with average request size `avg`:
    /// the configured step, raised so the axis has at most
    /// `max_grid_points` points.
    pub fn effective_step(&self, avg: u64) -> u64 {
        effective_step(self.step, self.max_grid_points, avg)
    }
}

/// `step` raised to a multiple of itself so that `avg` spans at most
/// `max_grid_points` steps — the one grid-step rule of both searches.
pub(crate) fn effective_step(step: u64, max_grid_points: usize, avg: u64) -> u64 {
    let min_step = avg.div_ceil(usize_to_u64(max_grid_points.max(1)));
    let steps_needed = min_step.div_ceil(step).max(1);
    step * steps_needed
}

/// The chosen per-class stripe widths for one region, with the predicted
/// cost — what [`optimize_region`] returns for any class count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutChoice {
    /// Stripe width per server class, in `ClusterConfig::classes` order.
    pub widths: Vec<u64>,
    /// Summed model cost of the (sampled) region requests, seconds.
    pub cost: f64,
}

impl LayoutChoice {
    /// Stripe width of one class (0 past the vector's end).
    #[inline]
    pub fn width(&self, class: usize) -> u64 {
        self.widths.get(class).copied().unwrap_or(0)
    }

    /// HServer stripe size — `widths[0]` (two-tier reporting shorthand).
    #[inline]
    pub fn h(&self) -> u64 {
        self.width(0)
    }

    /// SServer stripe size — `widths[1]` (two-tier reporting shorthand).
    #[inline]
    pub fn s(&self) -> u64 {
        self.width(1)
    }
}

/// A grid candidate of the `K = 2` exhaustive search (internal; the public
/// result type is [`LayoutChoice`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StripeChoice {
    h: u64,
    s: u64,
    cost: f64,
}

/// A borrowed view of a region's requests with offsets made
/// region-relative (each region maps to its own physical file, so request
/// offsets inside it start from the region origin — paper Sec. III-G).
pub struct RegionRequests<'a> {
    records: &'a [TraceRecord],
    region_offset: u64,
}

impl<'a> RegionRequests<'a> {
    /// Wrap the offset-sorted records of one region.
    pub fn new(records: &'a [TraceRecord], region_offset: u64) -> Self {
        RegionRequests {
            records,
            region_offset,
        }
    }

    /// Model cost of this region under per-class widths, summed over the
    /// (sampled) requests — exposed for baseline policies that search a
    /// restricted candidate set.
    pub fn cost_of_widths(&self, kernel: &CostKernel, widths: &[u64], cap: usize) -> f64 {
        crate::fold::sum_f64(
            self.sample(cap)
                .iter()
                .map(|&(o, r, op)| kernel.request_cost(o, r, op, widths)),
        )
    }

    /// Deterministic stride sample of at most `cap` requests.
    pub(crate) fn sample(&self, cap: usize) -> Vec<(u64, u64, OpKind)> {
        let n = self.records.len();
        let stride = n.div_ceil(cap.max(1)).max(1);
        self.records
            .iter()
            .step_by(stride)
            .map(|r| (r.offset.saturating_sub(self.region_offset), r.size, r.op))
            .collect()
    }
}

/// Candidate `(h, s)` pairs for a given `R̄`, per Algorithm 2's loops plus
/// the two extremes, keeping only pairs whose stripe group `M·h + N·s` is
/// non-empty and fits in `u64`.
fn candidates(avg: u64, step: u64, m: usize, n: usize) -> Vec<(u64, u64)> {
    let r_bar = avg.max(step).div_ceil(step) * step; // round up to the grid
    let mut out = Vec::new();
    if m == 0 {
        // No HServers: only the h = 0 column is meaningful.
        for s in (step..=r_bar).step_by(u64_to_usize(step)) {
            out.push((0, s));
        }
        return out;
    }
    for h in (0..=r_bar).step_by(u64_to_usize(step)) {
        let mut s = h + step;
        while s <= r_bar + step {
            // s > h per the paper's load-balance argument; the +step slack
            // makes h = R̄ evaluable (see module docs).
            if n > 0 {
                out.push((h, s));
            }
            s += step;
        }
    }
    if m > 0 {
        // The "single HServer" extreme: all data on HServers at width R̄.
        out.push((r_bar, 0));
    }
    // Drop pairs whose group is empty or overflows on this cluster.
    let group = |h: u64, s: u64| {
        usize_to_u64(m)
            .checked_mul(h)?
            .checked_add(usize_to_u64(n).checked_mul(s)?)
    };
    out.retain(|&(h, s)| group(h, s).is_some_and(|g| g > 0));
    out
}

/// Run Algorithm 2 for one region — the single layout-planning entry
/// point, dispatching on the model's class count.
///
/// * `K = 2` — the paper's exhaustive `(h, s)` grid, bit-identical to the
///   pre-generalisation optimizer (fig7-golden-guarded): ties break to the
///   largest `(h, s)` (see `pick_better`).
/// * `K ≥ 3` — deterministic coordinate descent
///   ([`MultiProfileOptimizer`]), sharing the step / grid-point / sample
///   budget of the same [`OptimizerConfig`].
///
/// `avg_request_size` is the region's `R̄` from Algorithm 1.
///
/// When the context's recorder is enabled, the search additionally records
/// the winning widths and their predicted cost under the `region` label
/// (`harl.optimizer.*`; at `K = 2` the grid size too). The per-request
/// predicted cost (`harl.model.predicted_request_cost_s`) is the
/// "predicted" side of the model-drift residual tracked by
/// [`crate::online::OnlineMonitor`]. Callers that plan a single region
/// (baseline policies, benches) pass `region = 0`.
pub fn optimize_region(
    ctx: &SimContext,
    model: &MultiProfileModel,
    requests: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
    region: usize,
) -> LayoutChoice {
    let recorder = ctx.recorder();
    if !recorder.is_enabled() {
        return optimize_region_sampled(model, requests, avg_request_size, cfg).0;
    }
    let start = std::time::Instant::now();
    let (choice, sampled, scored) = optimize_region_sampled(model, requests, avg_request_size, cfg);
    let wall = start.elapsed();
    let labels = [("region", region.to_string())];
    recorder.counter_add(registry::HARL_OPTIMIZER_CANDIDATES.name, &labels, scored);
    if model.class_count() == 2 {
        recorder.gauge_set(
            registry::HARL_OPTIMIZER_STRIPE_H.name,
            &labels,
            choice.h() as f64,
        );
        recorder.gauge_set(
            registry::HARL_OPTIMIZER_STRIPE_S.name,
            &labels,
            choice.s() as f64,
        );
    } else {
        for (class, &w) in choice.widths.iter().enumerate() {
            recorder.gauge_set(
                registry::HARL_OPTIMIZER_STRIPE_WIDTH.name,
                &[("region", region.to_string()), ("class", class.to_string())],
                w as f64,
            );
        }
    }
    recorder.observe_f64(
        registry::HARL_OPTIMIZER_PREDICTED_COST_S.name,
        &labels,
        choice.cost,
    );
    recorder.observe_f64(
        registry::HARL_OPTIMIZER_PLAN_WALL_S.name,
        &labels,
        wall.as_secs_f64(),
    );
    if sampled > 0 {
        recorder.observe_f64(
            registry::HARL_MODEL_PREDICTED_REQUEST_COST_S.name,
            &labels,
            choice.cost / sampled as f64,
        );
    }
    choice
}

/// [`optimize_region`] that also returns how many requests the evaluation
/// sampled, so callers that need the count (e.g. for per-request metrics)
/// don't have to re-materialise the sample, and how many candidates it
/// scored (grid pairs at `K = 2`, width vectors the descent visited
/// beyond).
fn optimize_region_sampled(
    model: &MultiProfileModel,
    requests: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
) -> (LayoutChoice, usize, u64) {
    assert!(cfg.step > 0, "grid step must be positive");
    if model.class_count() != 2 {
        let sample = requests.sample(cfg.max_requests_per_eval);
        let sampled = sample.len();
        let opt = MultiProfileOptimizer {
            model: model.clone(),
            step: cfg.step,
            max_grid_points: cfg.max_grid_points,
            max_sweeps: 16,
        };
        let (widths, cost, scored) = opt.optimize_counted(&sample, avg_request_size);
        return (LayoutChoice { widths, cost }, sampled, scored);
    }
    let (m, n) = (model.classes[0].count, model.classes[1].count);
    let step = cfg.effective_step(avg_request_size.max(1));
    let sample = requests.sample(cfg.max_requests_per_eval);
    let cands = candidates(avg_request_size, step, m, n);
    assert!(
        !cands.is_empty(),
        "no stripe candidates (cluster has no servers?)"
    );
    let scored = usize_to_u64(cands.len());
    // An empty region (no requests) has zero cost everywhere; fall back to
    // a balanced default: the fixed stripe at R̄ (or one step).
    if sample.is_empty() {
        let w = avg_request_size.max(step).div_ceil(step) * step;
        return (
            LayoutChoice {
                widths: vec![if m > 0 { w } else { 0 }, if n > 0 { w } else { 0 }],
                cost: 0.0,
            },
            0,
            scored,
        );
    }

    let best = best_of(&CostKernel::new(model), &SampleRuns::new(&sample), &cands);
    (
        LayoutChoice {
            widths: vec![best.h, best.s],
            cost: best.cost,
        },
        sample.len(),
        scored,
    )
}

/// A maximal strided run of the sample: `count` requests of one `size`
/// and `op` at offsets `o0 + j·d` for `j = 0..count`.
///
/// Request cost depends on the offset only through `offset mod group`, and
/// the residues of an arithmetic progression mod `G` cycle with period
/// `P = G / gcd(d, G)` — so a run needs at most `min(P, count)` cost
/// evaluations per candidate, with no per-request work: the grid weights
/// them by exact multiplicities, the `K ≥ 3` descent replays them in
/// sample order. Uniform regions are one long run; irregular samples
/// decompose into short runs, where a length-1 run reproduces the plain
/// per-request evaluation bit for bit.
pub(crate) struct StridedRun {
    pub(crate) o0: u64,
    pub(crate) d: u64,
    pub(crate) size: u64,
    pub(crate) op: OpKind,
    pub(crate) count: usize,
    /// Index of the run's `(size, op)` in [`SampleRuns`]' shapes.
    pub(crate) shape: usize,
}

/// Greedy decomposition of the sample into maximal strided runs, in
/// sample order: expanding the runs one after another reproduces the
/// sample exactly.
///
/// A run only ever steps forward (`d ≥ 0`) and ends rather than step past
/// `u64::MAX`, so `d mod G` is the true stride residue; a descending pair
/// starts a new run.
pub(crate) fn strided_runs(sample: &[(u64, u64, OpKind)]) -> Vec<StridedRun> {
    let mut runs: Vec<StridedRun> = Vec::new();
    for &(o, r, op) in sample {
        if let Some(run) = runs.last_mut() {
            if run.size == r && run.op == op {
                if run.count == 1 && o >= run.o0 {
                    run.d = o - run.o0;
                    run.count = 2;
                    continue;
                }
                let next = usize_to_u64(run.count)
                    .checked_mul(run.d)
                    .and_then(|span| run.o0.checked_add(span));
                if run.count > 1 && next == Some(o) {
                    run.count += 1;
                    continue;
                }
            }
        }
        runs.push(StridedRun {
            o0: o,
            d: 0,
            size: r,
            op,
            count: 1,
            shape: 0,
        });
    }
    runs
}

/// The sample as both searches walk it: its strided runs in sample order,
/// each tagged with its distinct `(size, op)` shape, and the margin of
/// the one pruning test.
///
/// A width vector is dropped once its running sum, plus the cost floor of
/// the requests it has not priced yet, exceeds `bound · (1 + δ)`. Every
/// request costs at least its floor, so the vector's full sum would exceed
/// the bound too, and it could neither win nor tie. The floor is priced
/// once per shape ([`CostKernel::request_floor`]) and summed over the runs
/// back to front.
///
/// `δ = 4·(n + 2)·ε` for an `n`-request sample (`ε` = `f64::EPSILON`)
/// covers the rounding that separates the test from the full sum: the rest
/// of the fold adds at most `n` more terms, each rounding by at most `ε/2`
/// of the running sum, and the floor's suffix sum over at most `n` runs
/// rounds too (DESIGN.md Appendix B). A dropped vector's exact sum is
/// therefore strictly above the bound.
pub(crate) struct SampleRuns {
    pub(crate) runs: Vec<StridedRun>,
    /// The distinct `(size, op)` shapes, sorted.
    shapes: Vec<(u64, OpKind)>,
    /// `1 + δ`.
    slack: f64,
}

impl SampleRuns {
    pub(crate) fn new(sample: &[(u64, u64, OpKind)]) -> Self {
        let mut runs = strided_runs(sample);
        let key = |&(size, op): &(u64, OpKind)| (size, op == OpKind::Write);
        let mut shapes: Vec<(u64, OpKind)> = runs.iter().map(|r| (r.size, r.op)).collect();
        shapes.sort_by_key(key);
        shapes.dedup();
        for run in &mut runs {
            let at = shapes.binary_search_by_key(&key(&(run.size, run.op)), key);
            run.shape = at.unwrap_or_default();
        }
        SampleRuns {
            runs,
            shapes,
            slack: 1.0 + 4.0 * (sample.len() + 2) as f64 * f64::EPSILON,
        }
    }

    /// The pruning threshold against incumbent `bound`: a vector whose
    /// running sum plus remaining floor exceeds it is dropped.
    pub(crate) fn limit(&self, bound: f64) -> f64 {
        bound * self.slack
    }

    /// Fill `after[i]` with the floor of every request in runs `i..` under
    /// `widths` (`runs.len() + 1` entries, the last zero), pricing each
    /// shape's floor once into `shape_floors`.
    pub(crate) fn floors_after(
        &self,
        kernel: &CostKernel,
        group: u64,
        widths: &[u64],
        shape_floors: &mut Vec<f64>,
        after: &mut Vec<f64>,
    ) {
        shape_floors.clear();
        shape_floors.extend(
            self.shapes
                .iter()
                .map(|&(size, op)| kernel.floor_in_group(group, size, op, widths)),
        );
        after.clear();
        after.resize(self.runs.len() + 1, 0.0);
        for (i, run) in self.runs.iter().enumerate().rev() {
            after[i] = run.count as f64 * shape_floors[run.shape] + after[i + 1];
        }
    }
}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn best_of(kernel: &CostKernel, walk: &SampleRuns, cands: &[(u64, u64)]) -> StripeChoice {
    let mut best = StripeChoice {
        h: 0,
        s: 0,
        cost: f64::INFINITY,
    };
    let (mut shape_floors, mut after) = (Vec::new(), Vec::new());
    'cands: for &(h, s) in cands {
        let widths = [h, s];
        let group = kernel.group(&widths);
        walk.floors_after(kernel, group, &widths, &mut shape_floors, &mut after);
        let limit = walk.limit(best.cost);
        if after[0] > limit {
            continue; // cannot win, even on the tie-break
        }
        let mut cost = crate::fold::OrderedSum::new();
        for (i, run) in walk.runs.iter().enumerate() {
            let d = run.d % group;
            let period = if d == 0 {
                1
            } else {
                u64_to_usize(group / gcd(d, group))
            };
            let n = run.count;
            // Residue j of the cycle appears ⌈n/P⌉ times for j < n mod P
            // and ⌊n/P⌋ after; with P > n the first n residues appear once.
            let (whole, extra) = (n / period, n % period);
            let mut r = run.o0 % group;
            for j in 0..period.min(n) {
                let mult = if period <= n {
                    (whole + usize::from(j < extra)) as f64
                } else {
                    1.0
                };
                cost.add(mult * kernel.cost_in_group(group, r, run.size, run.op, &widths));
                // The run's requests that residues 0..=j do not cover.
                let left = n - (j + 1) * whole - (j + 1).min(extra);
                let rest = left as f64 * shape_floors[run.shape] + after[i + 1];
                if cost.value() + rest > limit {
                    continue 'cands; // cannot win, even on the tie-break
                }
                r += d;
                if r >= group {
                    r -= group;
                }
            }
        }
        best = pick_better(
            best,
            StripeChoice {
                h,
                s,
                cost: cost.value(),
            },
        );
    }
    best
}

/// Deterministic comparison: strictly lower cost wins; ties break to the
/// lexicographically *larger* `(h, s)`.
///
/// Ties are common: the model aggregates per-server bytes, so all stripe
/// sizes that split a request identically across servers cost the same
/// (e.g. every `s ∈ {4K..64K}` for a 128 KiB request on two SServers).
/// Preferring the larger stripe means fewer stripe fragments and less
/// metadata — and matches the paper's reported optima (Fig. 9's
/// `{0, 64K}` rather than `{0, 4K}`).
// Exact comparison on purpose: a tolerance here would make the winner
// depend on evaluation order.
#[allow(clippy::float_cmp)]
fn pick_better(a: StripeChoice, b: StripeChoice) -> StripeChoice {
    if b.cost < a.cost || (b.cost == a.cost && (b.h, b.s) > (a.h, a.s)) {
        b
    } else {
        a
    }
}

/// Compute `f(0..count)` across up to `threads` scoped workers, returning
/// results in index order.
///
/// The region-level fan-out used by [`crate::cache::plan_file`] and
/// [`crate::online::OnlineMonitor`]: regions are independent, so planning
/// them concurrently is coarse-grained and cache-friendly. Each index
/// writes into its own slot, so the output (and therefore the planned
/// layout) is identical for every thread count.
pub(crate) fn fan_out<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let chunk = count.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|ci| {
                let f = &f;
                scope.spawn(move || {
                    let lo = ci * chunk;
                    let hi = count.min(lo + chunk);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        // Joining in spawn order keeps results index-ordered; a worker
        // panic is re-raised on the caller as thread::scope would.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    // Tests assert exact values: outputs are deterministic by design.
    #![allow(clippy::float_cmp)]

    use super::*;
    use harl_devices::{
        hdd_2015_preset, nvme_2020_preset, ssd_2015_preset, NetworkProfile, OpKind,
    };
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;
    use proptest::prelude::*;

    const KB: u64 = 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn recs(n: usize, size: u64, op: OpKind) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op,
                offset: i as u64 * size,
                size,
                timestamp: SimNanos::ZERO,
            })
            .collect()
    }

    #[test]
    fn read_512k_prefers_small_h_large_s() {
        // The paper's headline result: optimal read layout on 6H+2S at
        // 512 KiB requests is ~{32K, 160K} — h well below 64K, s well above.
        let m = model();
        let trace = recs(64, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig::default();
        let choice = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &cfg, 0);
        assert!(
            choice.h() > 0 && choice.h() <= 64 * KB,
            "h = {} out of expected band",
            choice.h()
        );
        assert!(
            choice.s() >= 96 * KB,
            "s = {} should be far larger than h",
            choice.s()
        );
        assert!(choice.s() > choice.h());
    }

    #[test]
    fn small_requests_go_ssd_only() {
        // Fig. 9: 128 KiB requests ⇒ {0, 64K}.
        let m = model();
        let trace = recs(64, 128 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            128 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(choice.h(), 0, "expected SServer-only, got {choice:?}");
        assert_eq!(choice.s(), 64 * KB);
    }

    #[test]
    fn write_optimum_differs_from_read() {
        let m = model();
        let reads = recs(64, 512 * KB, OpKind::Read);
        let writes = recs(64, 512 * KB, OpKind::Write);
        let r = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&reads, 0),
            512 * KB,
            &OptimizerConfig::default(),
            0,
        );
        let w = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&writes, 0),
            512 * KB,
            &OptimizerConfig::default(),
            0,
        );
        // SServer writes are slower, so the write optimum shifts load back
        // toward HServers (s_w <= s_r) — as in the paper ({36K,148K} vs
        // {32K,160K}).
        assert!(w.s() <= r.s(), "write s {} vs read s {}", w.s(), r.s());
        assert!(w.h() >= r.h(), "write h {} vs read h {}", w.h(), r.h());
    }

    /// The grid with no pruning at all: every candidate's full weighted
    /// fold, the same arithmetic as `best_of`, and the winner picked by
    /// `pick_better` over the whole grid. The search must match it exactly.
    fn unpruned_grid(
        m: &MultiProfileModel,
        records: &[TraceRecord],
        avg: u64,
        cfg: &OptimizerConfig,
    ) -> LayoutChoice {
        let kernel = CostKernel::new(m);
        let step = cfg.effective_step(avg.max(1));
        let sample = RegionRequests::new(records, 0).sample(cfg.max_requests_per_eval);
        let runs = strided_runs(&sample);
        let unpruned = |(h, s): (u64, u64)| {
            let widths = [h, s];
            let group = kernel.group(&widths);
            let mut cost = crate::fold::OrderedSum::new();
            for run in &runs {
                let d = run.d % group;
                let period = if d == 0 {
                    1
                } else {
                    u64_to_usize(group / gcd(d, group))
                };
                let n = run.count;
                let (whole, extra) = (n / period, n % period);
                let mut r = run.o0 % group;
                for j in 0..period.min(n) {
                    let mult = if period <= n {
                        (whole + usize::from(j < extra)) as f64
                    } else {
                        1.0
                    };
                    cost.add(mult * kernel.cost_in_group(group, r, run.size, run.op, &widths));
                    r += d;
                    if r >= group {
                        r -= group;
                    }
                }
            }
            StripeChoice {
                h,
                s,
                cost: cost.value(),
            }
        };
        let none = StripeChoice {
            h: 0,
            s: 0,
            cost: f64::INFINITY,
        };
        let (mc, nc) = (m.classes[0].count, m.classes[1].count);
        let best = candidates(avg, step, mc, nc)
            .into_iter()
            .map(unpruned)
            .fold(none, pick_better);
        LayoutChoice {
            widths: vec![best.h, best.s],
            cost: best.cost,
        }
    }

    /// `optimize_region` picks the unpruned grid's widths at its cost bits.
    fn assert_matches_unpruned(
        m: &MultiProfileModel,
        records: &[TraceRecord],
        avg: u64,
        cfg: &OptimizerConfig,
    ) {
        let want = unpruned_grid(m, records, avg, cfg);
        let got = optimize_region(
            &SimContext::new(),
            m,
            &RegionRequests::new(records, 0),
            avg,
            cfg,
            0,
        );
        assert_eq!(got.widths, want.widths);
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "{} vs {}",
            got.cost,
            want.cost
        );
    }

    #[test]
    fn chosen_pair_is_grid_optimal() {
        // The optimizer's pick is exactly the unpruned grid's on a small
        // grid: same pair, same cost bits.
        let m = model();
        let trace = recs(16, 64 * KB, OpKind::Read);
        let cfg = OptimizerConfig {
            step: 16 * KB,
            max_grid_points: 128,
            max_requests_per_eval: 16,
            threads: 1,
        };
        assert_matches_unpruned(&m, &trace, 64 * KB, &cfg);
    }

    prop_compose! {
        /// Tie-heavy regions: 1–3 phases of small requests (at most one
        /// 4 KiB grid stripe, or a few) or paper-sized ones, reads and
        /// writes mixed, strided or scattered, in sorted, reversed or
        /// shuffled order.
        fn tie_heavy_region()(
            phases in prop::collection::vec(
                (0usize..8, 1u64..24, any::<bool>(), any::<bool>()),
                1..4,
            ),
            order in 0usize..3,
            seed in any::<u64>(),
        ) -> Vec<TraceRecord> {
            let mut rng = seed;
            let mut next = || {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                rng >> 33
            };
            let mut base = 0u64;
            let mut sample = Vec::new();
            for &(size, count, strided, read) in &phases {
                let size = [1, 4, 4, 8, 16, 100, 128, 512][size] * KB;
                let op = if read { OpKind::Read } else { OpKind::Write };
                for j in 0..count {
                    let offset = if strided { j * size } else { next() % (count * 16) * 4 * KB };
                    sample.push((base + offset, size, op));
                }
                base += count * size.max(64 * KB);
            }
            match order {
                0 => sample.sort_by_key(|&(o, _, _)| o),
                1 => sample.sort_by_key(|&(o, _, _)| std::cmp::Reverse(o)),
                _ => {
                    for i in (1..sample.len()).rev() {
                        let j = u64_to_usize(next() % usize_to_u64(i + 1));
                        sample.swap(i, j);
                    }
                }
            }
            sample
                .into_iter()
                .map(|(offset, size, op)| TraceRecord {
                    rank: 0,
                    fd: 0,
                    op,
                    offset,
                    size,
                    timestamp: SimNanos::ZERO,
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Folding and pruning change nothing: the grid picks the unpruned
        /// grid's pair at its cost bits, on regions where many pairs tie
        /// exactly.
        #[test]
        fn grid_matches_unpruned_oracle(
            records in tie_heavy_region(),
            grid in 0usize..3,
            capped in any::<bool>(),
        ) {
            let avg = records.iter().map(|r| r.size).sum::<u64>() / records.len() as u64;
            let cfg = OptimizerConfig {
                step: 4 * KB,
                max_grid_points: [16, 32, 64][grid],
                max_requests_per_eval: if capped { 7 } else { records.len() },
                threads: 1,
            };
            assert_matches_unpruned(&model(), &records, avg, &cfg);
        }
    }

    #[test]
    fn region_relative_offsets_used() {
        // Same requests shifted by a region offset must optimise the same.
        let m = model();
        let base = recs(32, 256 * KB, OpKind::Read);
        let shifted: Vec<TraceRecord> = base
            .iter()
            .map(|r| TraceRecord {
                offset: r.offset + 512 * 1024 * 1024,
                ..*r
            })
            .collect();
        let a = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&base, 0),
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        let b = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&shifted, 512 * 1024 * 1024),
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(a.widths, b.widths);
        assert!((a.cost - b.cost).abs() < 1e-12);
    }

    #[test]
    fn empty_region_gets_balanced_default() {
        let m = model();
        let reqs = RegionRequests::new(&[], 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            128 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(choice.widths, vec![128 * KB, 128 * KB]);
        assert_eq!(choice.cost, 0.0);
    }

    #[test]
    fn sampling_cap_changes_cost_not_choice() {
        let m = model();
        let trace = recs(1000, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let full = OptimizerConfig {
            max_requests_per_eval: 1000,
            threads: 1,
            ..OptimizerConfig::default()
        };
        let sampled = OptimizerConfig {
            max_requests_per_eval: 50,
            threads: 1,
            ..OptimizerConfig::default()
        };
        let a = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &full, 0);
        let b = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &sampled, 0);
        assert_eq!(a.widths, b.widths, "uniform workload: same optimum");
    }

    #[test]
    fn candidates_include_extremes() {
        let c = candidates(64 * KB, 16 * KB, 6, 2);
        assert!(c.contains(&(0, 16 * KB)), "SServer-only start");
        assert!(c.contains(&(64 * KB, 0)), "single-HServer extreme");
        assert!(c.contains(&(64 * KB, 64 * KB + 16 * KB)), "h = R̄ evaluable");
        // s always strictly greater than h except the (R̄, 0) extreme.
        assert!(c.iter().all(|&(h, s)| s > h || s == 0));
    }

    #[test]
    fn candidates_drop_groups_that_overflow() {
        // R̄ = 2^62 on 6 + 2 servers: the grid's step is 2^55, and every
        // kept pair's group 6h + 2s must fit in u64.
        let avg = 1u64 << 62;
        let step = OptimizerConfig::default().effective_step(avg);
        let c = candidates(avg, step, 6, 2);
        let fits =
            |&(h, s): &(u64, u64)| 6 * u128::from(h) + 2 * u128::from(s) <= u128::from(u64::MAX);
        assert!(!c.is_empty());
        assert!(c.iter().all(fits), "{c:?}");
        // The unfiltered grid holds pairs that wrap, e.g. (R̄, 0).
        assert!(!fits(&(avg, 0)));
    }

    #[test]
    fn recorded_context_matches_plain_and_times_the_plan() {
        let m = model();
        let trace = recs(64, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig {
            threads: 1,
            ..OptimizerConfig::default()
        };
        let recorder = std::sync::Arc::new(harl_simcore::MemoryRecorder::new());
        let ctx = SimContext::recorded(recorder.clone());
        let recorded = optimize_region(&ctx, &m, &reqs, 512 * KB, &cfg, 3);
        let plain = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &cfg, 0);
        assert_eq!(recorded, plain);
        let labels = [("region", "3".to_string())];
        let wall = recorder
            .summary_snapshot("harl.optimizer.plan_wall_s", &labels)
            .expect("plan wall time recorded");
        assert_eq!(wall.count(), 1);
        assert!(wall.mean() > 0.0);
        let per_request = recorder
            .summary_snapshot(registry::HARL_MODEL_PREDICTED_REQUEST_COST_S.name, &labels)
            .expect("per-request predicted cost recorded");
        assert!((per_request.mean() - plain.cost / 64.0).abs() < 1e-12);
    }

    /// Expand runs back into requests, in order.
    fn expand(runs: &[StridedRun]) -> Vec<(u64, u64, OpKind)> {
        runs.iter()
            .flat_map(|run| {
                (0..usize_to_u64(run.count)).map(move |j| (run.o0 + j * run.d, run.size, run.op))
            })
            .collect()
    }

    proptest! {
        /// Expanding every run reproduces the sample exactly, whatever its
        /// order: runs never step backwards or past `u64::MAX`.
        #[test]
        fn strided_runs_expand_to_the_sample(
            requests in prop::collection::vec((0u64..16, any::<bool>(), 1u64..3, any::<bool>()), 0..48),
            stride in 0usize..3,
            order in 0usize..3,
        ) {
            // Offsets on a stride grid, some of them counted down from
            // u64::MAX so that extending a run would overflow.
            let stride = [1, 4 * KB, 200 * KB][stride];
            let mut sample: Vec<(u64, u64, OpKind)> = requests
                .iter()
                .map(|&(k, high, r, read)| {
                    let o = if high { u64::MAX - k * stride } else { k * stride };
                    (o, r * KB, if read { OpKind::Read } else { OpKind::Write })
                })
                .collect();
            match order {
                0 => sample.sort_by_key(|&(o, _, _)| o),
                1 => sample.sort_by_key(|&(o, _, _)| std::cmp::Reverse(o)),
                _ => {}
            }
            prop_assert_eq!(expand(&strided_runs(&sample)), sample);
        }
    }

    #[test]
    fn reversed_sample_plans_like_sorted() {
        // A descending pair must not form a run: its stride would wrap
        // mod 2⁶⁴, and a wrapped stride's residue mod G is wrong unless
        // G is a power of two.
        let m = model();
        let sorted = recs(12, 200 * KB, OpKind::Read);
        let reversed: Vec<TraceRecord> = sorted.iter().rev().copied().collect();
        let plan = |records: &[TraceRecord]| {
            optimize_region(
                &SimContext::new(),
                &m,
                &RegionRequests::new(records, 0),
                200 * KB,
                &OptimizerConfig {
                    threads: 1,
                    ..OptimizerConfig::default()
                },
                0,
            )
        };
        let (a, b) = (plan(&sorted), plan(&reversed));
        assert_eq!(a.widths, vec![0, 100 * KB]);
        assert_eq!(b.widths, a.widths);
        // One weighted run (12 × cost) against twelve single runs summed.
        assert!((b.cost - a.cost).abs() <= 1e-12 * a.cost);
        // Both orders pick exactly what the unpruned grid picks.
        let cfg = OptimizerConfig::default();
        assert_matches_unpruned(&m, &sorted, 200 * KB, &cfg);
        assert_matches_unpruned(&m, &reversed, 200 * KB, &cfg);
    }

    #[test]
    fn candidates_counter_covers_every_class_count() {
        let trace = recs(32, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig {
            threads: 1,
            ..OptimizerConfig::default()
        };
        let labels = [("region", "0".to_string())];
        let counted = |m: &MultiProfileModel| {
            let recorder = std::sync::Arc::new(harl_simcore::MemoryRecorder::new());
            let ctx = SimContext::recorded(recorder.clone());
            let choice = optimize_region(&ctx, m, &reqs, 512 * KB, &cfg, 0);
            assert_eq!(
                choice,
                optimize_region(&SimContext::new(), m, &reqs, 512 * KB, &cfg, 0)
            );
            recorder.counter_value(registry::HARL_OPTIMIZER_CANDIDATES.name, &labels)
        };
        // K = 2: the grid's size.
        let pair = model();
        let grid = candidates(512 * KB, cfg.effective_step(512 * KB), 6, 2);
        assert_eq!(counted(&pair), usize_to_u64(grid.len()));
        // K = 3: every width vector the descent scored.
        let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
        let three = MultiProfileModel::from_cluster(&cluster);
        let opt = MultiProfileOptimizer::new(three.clone());
        let (_, _, scored) =
            opt.optimize_counted(&reqs.sample(cfg.max_requests_per_eval), 512 * KB);
        assert!(scored > 0);
        assert_eq!(counted(&three), scored);
    }

    #[test]
    fn hserver_only_cluster_still_works() {
        let m = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(4, hdd_2015_preset()), (0, ssd_2015_preset())],
        );
        let trace = recs(16, 256 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert!(choice.h() > 0);
        assert!(choice.cost.is_finite());
    }
}
