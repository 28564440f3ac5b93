//! File region division — the paper's Algorithm 1.
//!
//! Walking the offset-sorted request list, the algorithm keeps a running
//! coefficient of variation (CV) of request sizes. While each new request
//! leaves the CV within `threshold` percent of the previous value the
//! region grows; a bigger jump ends the region at that request and starts a
//! new one. CV is "very sensitive to changes in the average request size",
//! which is what detects where the application's I/O behaviour changes.
//!
//! Sec. III-C's guard against over-fragmentation is also implemented: if
//! the CV pass produces more regions than a fixed-size division (default
//! 64 MiB chunks) would, the threshold is raised for another round, which
//! "loosens the algorithm's sensitivity" until the region count (and hence
//! metadata overhead) is acceptable. The rounds do not re-run the pass from
//! scratch: every round shares the walk up to its first split, and a round
//! that has already started too many regions stops early, so a division
//! walks the trace about once however many rounds it takes.

use crate::trace::TraceRecord;
use harl_simcore::{ByteSize, OnlineStats};
use serde::{Deserialize, Serialize};

/// One region of the logical file: a contiguous byte range whose requests
/// share similar I/O characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// First byte of the region.
    pub offset: u64,
    /// One past the last byte (the next region's offset, or the file end).
    pub end: u64,
    /// Average request size observed in the region (the paper's `A_reg`,
    /// the `R̄` input of Algorithm 2).
    pub avg_request_size: u64,
    /// Index range `[first, last)` of the region's requests in the
    /// offset-sorted trace.
    pub first_request: usize,
    /// One past the last request index.
    pub last_request: usize,
}

impl Region {
    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.offset
    }

    /// True for a zero-length region (never produced by division).
    pub fn is_empty(&self) -> bool {
        self.end == self.offset
    }

    /// Number of requests the region serves.
    pub fn request_count(&self) -> usize {
        self.last_request - self.first_request
    }
}

/// Tuning knobs for region division.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionDivisionConfig {
    /// Initial CV-change threshold in percent (paper: 100 %).
    pub initial_threshold_pct: f64,
    /// Multiplier applied to the threshold on each tightening round.
    pub threshold_growth: f64,
    /// Fixed-region size used to bound the region count (paper cites the
    /// segment-level scheme's fixed chunks, e.g. 64 MiB).
    pub fixed_region_size: u64,
    /// Hard cap on tightening rounds (the threshold grows geometrically, so
    /// a handful of rounds is always enough).
    pub max_rounds: usize,
}

impl Default for RegionDivisionConfig {
    fn default() -> Self {
        RegionDivisionConfig {
            initial_threshold_pct: 100.0,
            threshold_growth: 2.0,
            fixed_region_size: 64 * 1024 * 1024,
            max_rounds: 24,
        }
    }
}

/// Relative CV change in percent.
///
/// The paper's expression `100·|cv_new − cv_prev| / cv_prev` divides by
/// zero whenever a region starts (cv_prev = 0, which happens after every
/// split). An infinite result would split on *any* size change regardless
/// of the threshold, making the Sec. III-C threshold adaptation powerless.
/// We floor the denominator at a 1 % CV so the change stays finite and the
/// threshold keeps control: a uniform region followed by a different size
/// still produces a huge (but finite) change and splits at the default
/// threshold, while adaptation can raise the threshold past it when the
/// division over-fragments.
#[inline]
fn cv_change_pct(cv_prev: f64, cv_new: f64) -> f64 {
    const CV_FLOOR: f64 = 0.01;
    100.0 * (cv_new - cv_prev).abs() / cv_prev.max(CV_FLOOR)
}

/// Grow an open region over `sorted[from..]`: `stats` takes each request
/// until one moves the CV by `threshold_pct` percent or more from
/// `cv_prev`, the CV before it joined. Returns that request's index, or
/// `sorted.len()` when none does. The request ends the region inclusively
/// (per the paper: the logged average includes it and the next region
/// starts after it), so it stays in `stats` while `cv_prev` keeps the CV
/// it was tested against.
// Out of line and on local copies, so the loop keeps its state in
// registers: inlined into `divide_regions` it spilled the state to the
// stack and walked about 15 % slower than the pass it replaced.
#[inline(never)]
fn grow(
    sorted: &[TraceRecord],
    from: usize,
    threshold_pct: f64,
    stats: &mut OnlineStats,
    cv_prev: &mut f64,
) -> usize {
    let (mut grown, mut cv) = (stats.clone(), *cv_prev);
    let mut at = from;
    for rec in &sorted[from..] {
        grown.push(rec.size as f64);
        let cv_new = grown.cv();
        if cv_change_pct(cv, cv_new) < threshold_pct {
            cv = cv_new;
            at += 1;
        } else {
            break;
        }
    }
    (*stats, *cv_prev) = (grown, cv);
    at
}

/// Finish one pass of Algorithm 1 at `threshold_pct` whose first region
/// `first` ends at request `split` (at the end of the trace when `split`
/// is past it), writing the regions the pass returns into `regions`.
///
/// The first region is anchored to offset 0 and each region runs to the
/// next one's offset, the last to the file end (`file_size` bounds it even
/// when requests stop short). A region whose successor starts at the same
/// offset would be empty (overlapping requests can split there), so it is
/// merged away as it closes: the pass returns one region per distinct
/// start offset. That count only grows, so the pass returns false as soon
/// as it has started more than `limit` regions.
fn finish_pass(
    sorted: &[TraceRecord],
    file_size: u64,
    threshold_pct: f64,
    first: OnlineStats,
    split: usize,
    limit: usize,
    regions: &mut Vec<Region>,
) -> bool {
    regions.clear();
    let (mut stats, mut start, mut at, mut offset) = (first, 0, split, 0);
    loop {
        // `stats` holds the open region at `offset`, `sorted[start..=at]`.
        let last_request = (at + 1).min(sorted.len());
        let next = sorted.get(last_request).map(|rec| rec.offset);
        if next != Some(offset) {
            regions.push(Region {
                offset,
                end: next.unwrap_or(file_size.max(offset + 1)),
                avg_request_size: stats.mean().round() as u64,
                first_request: start,
                last_request,
            });
        }
        let Some(next) = next else {
            return true;
        };
        if regions.len() >= limit {
            return false;
        }
        (stats, start, offset) = (OnlineStats::new(), last_request, next);
        at = grow(sorted, start, threshold_pct, &mut stats, &mut 0.0);
    }
}

/// Full Algorithm 1 with the Sec. III-C threshold adaptation.
///
/// Returns regions tiling `[0, file_size)`. An empty trace yields a single
/// region covering the file with `avg_request_size == 0`.
///
/// Round `r` divides at `initial_threshold_pct · threshold_growth^r`. The
/// first round whose regions fit the fixed-size bound wins, and round
/// `max_rounds` wins whatever it divides. The rounds share one walk: every
/// pass grows the same first region until its first split, and a higher
/// threshold splits no earlier, so each round resumes the first region
/// where the previous round split it (a lower or NaN threshold starts it
/// afresh). Every round but the last stops once it has started more
/// regions than the bound allows.
pub fn divide_regions(
    sorted: &[TraceRecord],
    file_size: u64,
    cfg: &RegionDivisionConfig,
) -> Vec<Region> {
    assert!(file_size > 0, "cannot divide an empty file");
    debug_assert!(
        sorted.windows(2).all(|w| w[0].offset <= w[1].offset),
        "trace must be offset-sorted"
    );
    if sorted.is_empty() {
        return vec![Region {
            offset: 0,
            end: file_size,
            avg_request_size: 0,
            first_request: 0,
            last_request: 0,
        }];
    }

    // The fixed-size division the paper bounds against.
    let max_regions = file_size.div_ceil(cfg.fixed_region_size).max(1) as usize;

    let mut threshold = cfg.initial_threshold_pct;
    let (mut first, mut cv_prev) = (OnlineStats::new(), 0.0);
    let mut split = grow(sorted, 0, threshold, &mut first, &mut cv_prev);
    let mut regions = Vec::new();
    let mut round = 0;
    loop {
        let limit = if round == cfg.max_rounds {
            usize::MAX
        } else {
            max_regions
        };
        if finish_pass(
            sorted,
            file_size,
            threshold,
            first.clone(),
            split,
            limit,
            &mut regions,
        ) {
            return regions;
        }
        let grown_at = threshold;
        threshold *= cfg.threshold_growth;
        round += 1;
        if threshold.is_nan() || threshold < grown_at {
            // A lower threshold may split the first region sooner.
            (first, cv_prev) = (OnlineStats::new(), 0.0);
            split = grow(sorted, 0, threshold, &mut first, &mut cv_prev);
        } else if cv_change_pct(cv_prev, first.cv()) < threshold {
            // The request that ended the first region joins it now (a pass
            // without a split fits the bound, so one did end it).
            cv_prev = first.cv();
            split = grow(sorted, split + 1, threshold, &mut first, &mut cv_prev);
        }
    }
}

/// Check that regions tile `[0, file_size)` without gaps or overlaps.
/// Used by tests and by the placement layer's validation.
pub fn regions_tile_file(regions: &[Region], file_size: u64) -> bool {
    if regions.is_empty() {
        return false;
    }
    if regions[0].offset != 0 {
        return false;
    }
    for w in regions.windows(2) {
        if w[0].end != w[1].offset {
            return false;
        }
    }
    regions.last().is_some_and(|r| r.end == file_size)
}

/// Pretty one-line summary of a region list, for reports.
pub fn summarize_regions(regions: &[Region]) -> String {
    let mut out = String::new();
    for (i, r) in regions.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "#{i}[{}..{}) avg={}",
            ByteSize(r.offset),
            ByteSize(r.end),
            ByteSize(r.avg_request_size)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_devices::OpKind;
    use harl_simcore::SimNanos;

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

    /// A trace with `n` requests of `size` bytes tiling from `start`.
    fn uniform_run(start: u64, n: u64, size: u64) -> Vec<TraceRecord> {
        (0..n).map(|i| rec(start + i * size, size)).collect()
    }

    #[test]
    fn uniform_trace_is_one_region() {
        let trace = uniform_run(0, 100, 512 * 1024);
        let file_size = 100 * 512 * 1024;
        let regions = divide_regions(&trace, file_size, &RegionDivisionConfig::default());
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].offset, 0);
        assert_eq!(regions[0].end, file_size);
        assert_eq!(regions[0].avg_request_size, 512 * 1024);
        assert!(regions_tile_file(&regions, file_size));
    }

    #[test]
    fn two_phase_trace_splits() {
        // 64 small requests then 64 large ones: the CV jump at the phase
        // boundary must produce (at least) two regions, split near the
        // boundary offset.
        let mut trace = uniform_run(0, 64, 64 * 1024);
        let boundary = 64 * 64 * 1024;
        trace.extend(uniform_run(boundary, 64, 1024 * 1024));
        let file_size = boundary + 64 * 1024 * 1024;
        let cfg = RegionDivisionConfig {
            fixed_region_size: 1024 * 1024, // allow plenty of regions
            ..RegionDivisionConfig::default()
        };
        let regions = divide_regions(&trace, file_size, &cfg);
        assert!(regions.len() >= 2, "expected a split, got {regions:?}");
        assert!(regions_tile_file(&regions, file_size));
        // Some region boundary lies within one request of the phase change.
        assert!(
            regions
                .iter()
                .any(|r| r.offset.abs_diff(boundary) <= 1024 * 1024),
            "no boundary near the phase change: {}",
            summarize_regions(&regions)
        );
    }

    #[test]
    fn four_phase_trace_gets_four_regions() {
        // The Fig. 11 workload shape: four areas with distinct sizes.
        let sizes = [128 * 1024u64, 512 * 1024, 1024 * 1024, 256 * 1024];
        let mut trace = Vec::new();
        let mut off = 0u64;
        for &sz in &sizes {
            trace.extend(uniform_run(off, 64, sz));
            off += 64 * sz;
        }
        let cfg = RegionDivisionConfig {
            fixed_region_size: 16 * 1024 * 1024,
            ..RegionDivisionConfig::default()
        };
        let regions = divide_regions(&trace, off, &cfg);
        assert!(
            (2..=8).contains(&regions.len()),
            "expected about four regions: {}",
            summarize_regions(&regions)
        );
        assert!(regions_tile_file(&regions, off));
    }

    #[test]
    fn threshold_adaptation_bounds_region_count() {
        // Alternating sizes produce constant CV jumps; without adaptation
        // the pass would create ~one region per request. The bound must
        // hold regardless.
        let mut trace = Vec::new();
        for i in 0..256u64 {
            let size = if i % 2 == 0 { 4 * 1024 } else { 1024 * 1024 };
            trace.push(rec(i * 1024 * 1024, size));
        }
        let file_size = 256 * 1024 * 1024;
        let cfg = RegionDivisionConfig::default(); // 64 MiB fixed regions => max 4
        let regions = divide_regions(&trace, file_size, &cfg);
        assert!(
            regions.len() <= 4,
            "adaptation failed: {} regions",
            regions.len()
        );
        assert!(regions_tile_file(&regions, file_size));
    }

    #[test]
    fn empty_trace_single_default_region() {
        let regions = divide_regions(&[], 1024, &RegionDivisionConfig::default());
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].avg_request_size, 0);
        assert!(regions_tile_file(&regions, 1024));
    }

    #[test]
    fn single_request_single_region() {
        let trace = vec![rec(100, 50)];
        let regions = divide_regions(&trace, 1000, &RegionDivisionConfig::default());
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].offset, 0);
        assert_eq!(regions[0].end, 1000);
        assert_eq!(regions[0].avg_request_size, 50);
    }

    #[test]
    fn request_indices_partition_trace() {
        let mut trace = uniform_run(0, 32, 8 * 1024);
        trace.extend(uniform_run(32 * 8 * 1024, 32, 2 * 1024 * 1024));
        let file_size = 32 * 8 * 1024 + 32 * 2 * 1024 * 1024;
        let cfg = RegionDivisionConfig {
            fixed_region_size: 1024 * 1024,
            ..RegionDivisionConfig::default()
        };
        let regions = divide_regions(&trace, file_size, &cfg);
        assert_eq!(regions[0].first_request, 0);
        for w in regions.windows(2) {
            assert_eq!(w[0].last_request, w[1].first_request);
        }
        assert_eq!(regions.last().unwrap().last_request, trace.len());
    }

    #[test]
    fn cv_change_conventions() {
        assert_eq!(cv_change_pct(0.0, 0.0), 0.0);
        // Degenerate start: finite but far above any sane threshold.
        assert!((cv_change_pct(0.0, 0.5) - 5000.0).abs() < 1e-9);
        assert!((cv_change_pct(0.5, 0.75) - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty file")]
    fn zero_file_size_rejected() {
        divide_regions(&[], 0, &RegionDivisionConfig::default());
    }
}
