//! Algorithm 1 oracle: `divide_regions` returns exactly the regions of the
//! plain multi-pass loop (one full CV pass per threshold round, the
//! Sec. III-C adaptation re-running it until the region count fits), for
//! any offset-sorted trace and any `RegionDivisionConfig`.

use harl_core::{divide_regions, Region, RegionDivisionConfig, Trace, TraceRecord};
use harl_devices::OpKind;
use harl_simcore::{OnlineStats, SimNanos};
use proptest::prelude::*;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

// ---------------------------------------------------------------------------
// The oracle: Algorithm 1 as one full pass per threshold round.
// ---------------------------------------------------------------------------

fn cv_change_pct(cv_prev: f64, cv_new: f64) -> f64 {
    const CV_FLOOR: f64 = 0.01;
    100.0 * (cv_new - cv_prev).abs() / cv_prev.max(CV_FLOOR)
}

/// One pass of Algorithm 1 at a fixed threshold.
fn divide_once(sorted: &[TraceRecord], file_size: u64, threshold_pct: f64) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    let mut stats = OnlineStats::new(); // running avg/std of the open region
    let mut cv_prev = 0.0;
    let mut reg_init = 0usize;

    for (i, rec) in sorted.iter().enumerate() {
        stats.push(rec.size as f64);
        let cv_new = stats.cv();
        if cv_change_pct(cv_prev, cv_new) < threshold_pct {
            cv_prev = cv_new;
        } else {
            // Close the region at request i (inclusive, per the paper: the
            // logged average includes r_i and the next region starts at
            // i + 1).
            let offset = sorted[reg_init].offset;
            regions.push(Region {
                offset,
                end: 0, // patched below once the next region's start is known
                avg_request_size: stats.mean().round() as u64,
                first_request: reg_init,
                last_request: i + 1,
            });
            stats = OnlineStats::new();
            cv_prev = 0.0;
            reg_init = i + 1;
        }
    }
    // Emit the final open region (implicit in the paper's pseudocode).
    if reg_init < sorted.len() {
        regions.push(Region {
            offset: sorted[reg_init].offset,
            end: 0,
            avg_request_size: stats.mean().round() as u64,
            first_request: reg_init,
            last_request: sorted.len(),
        });
    }

    // Patch region ends: each region runs to the next region's offset; the
    // last one to the file end. The first region is anchored to offset 0 so
    // the regions tile the whole file.
    if let Some(first) = regions.first_mut() {
        first.offset = 0;
    }
    let n = regions.len();
    for i in 0..n {
        regions[i].end = if i + 1 < n {
            regions[i + 1].offset
        } else {
            file_size.max(regions[i].offset + 1)
        };
    }
    // Offset collisions (several regions starting at the same offset, which
    // can happen when overlapping requests trigger splits) produce empty
    // regions; merge them away.
    regions.retain(|r| !r.is_empty());
    regions
}

/// Full Algorithm 1 with the Sec. III-C threshold adaptation, and the
/// number of passes it ran.
fn oracle(
    sorted: &[TraceRecord],
    file_size: u64,
    cfg: &RegionDivisionConfig,
) -> (Vec<Region>, usize) {
    assert!(file_size > 0, "cannot divide an empty file");
    if sorted.is_empty() {
        let only = Region {
            offset: 0,
            end: file_size,
            avg_request_size: 0,
            first_request: 0,
            last_request: 0,
        };
        return (vec![only], 0);
    }

    // The fixed-size division the paper bounds against.
    let max_regions = file_size.div_ceil(cfg.fixed_region_size).max(1) as usize;

    let mut threshold = cfg.initial_threshold_pct;
    let mut best = divide_once(sorted, file_size, threshold);
    let mut passes = 1;
    for _ in 0..cfg.max_rounds {
        if best.len() <= max_regions {
            break;
        }
        threshold *= cfg.threshold_growth;
        best = divide_once(sorted, file_size, threshold);
        passes += 1;
    }
    (best, passes)
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Request sizes a phased trace cycles through.
const PHASE_SIZES: [u64; 8] = [
    16 * KIB,
    32 * KIB,
    64 * KIB,
    128 * KIB,
    256 * KIB,
    512 * KIB,
    MIB,
    2 * MIB,
];

fn rec(rank: u32, offset: u64, size: u64) -> TraceRecord {
    TraceRecord {
        rank,
        fd: 0,
        op: OpKind::Read,
        offset,
        size,
        timestamp: SimNanos::ZERO,
    }
}

prop_compose! {
    /// An offset-sorted trace of 0–600 records and a file size below, at
    /// or above its extent. Sizes are random, or phased (a new size every
    /// `phase_len` records, with random outliers); some are zero. Offsets
    /// repeat in runs, the first `at_zero` records sit at offset 0, and
    /// the steps between runs range from one byte to overlapping and
    /// contiguous requests.
    fn sorted_trace()(
        draws in prop::collection::vec((0u64..8, 0u64..16, 0u64..4 * MIB), 0..601),
        phased in any::<bool>(),
        (phase_len, rotation) in (1usize..120, 0usize..8),
        at_zero in 0usize..6,
        (file_rule, extra) in (0u8..3, 0u64..256 * MIB),
    ) -> (Vec<TraceRecord>, u64) {
        let mut records = Vec::with_capacity(draws.len());
        let (mut offset, mut prev_size) = (0u64, 0u64);
        for (i, &(step, size_class, raw)) in draws.iter().enumerate() {
            let size = match (size_class, phased) {
                (0, _) => 0,
                (1, true) | (_, false) => 1 + raw % (64 << size_class),
                (_, true) => PHASE_SIZES[(i / phase_len + rotation) * 3 % PHASE_SIZES.len()],
            };
            if i >= at_zero {
                offset += match step {
                    0..=2 => 0,
                    3 => 1,
                    4 => raw % (4 * KIB),
                    _ => prev_size,
                };
            }
            records.push(rec((i % 4) as u32, offset, size));
            prev_size = size;
        }
        let extent = records.iter().map(|r| r.offset + r.size).max().unwrap_or(0);
        let file_size = match file_rule {
            0 => extent / 2,
            1 => extent,
            _ => extent + 1 + extra,
        }
        .max(1);
        (records, file_size)
    }
}

prop_compose! {
    /// A division config from the grid the oracle is checked on:
    /// growth below 1, equal to 1 and NaN, zero and NaN thresholds, and
    /// fixed regions from one byte (never over-fragmented) to 64 MiB.
    fn division()(
        (fixed, rounds, growth, initial) in (0usize..4, 0usize..4, 0usize..6, 0usize..5),
    ) -> RegionDivisionConfig {
        RegionDivisionConfig {
            fixed_region_size: [1, 4 * KIB, MIB, 64 * MIB][fixed],
            max_rounds: [0, 1, 3, 24][rounds],
            threshold_growth: [0.5, 1.0, 1.5, 2.0, 3.0, f64::NAN][growth],
            initial_threshold_pct: [0.0, 1.0, 100.0, 1e4, f64::NAN][initial],
        }
    }
}

/// A `serve_fleet`-shaped trace: `phases` phases of 8 MiB, each split
/// over 4 ranks that issue their 2 MiB segment in requests of one size,
/// rank-interleaved as a collector sees them, then offset-sorted.
fn fleet_trace(phases: usize, rotation: usize, drifted: bool) -> Vec<TraceRecord> {
    let mut trace = Trace::new();
    for p in 0..phases {
        let mut size = PHASE_SIZES[(rotation + 3 * p) % PHASE_SIZES.len()];
        if drifted && p + 1 == phases {
            size = if size < 2 * MIB { size * 2 } else { size / 2 };
        }
        let segment = 2 * MIB;
        for block in 0..segment / size {
            for rank in 0..4u32 {
                let base = p as u64 * 8 * MIB + u64::from(rank) * segment;
                trace.record(rec(rank, base + block * size, size));
            }
        }
    }
    trace.sorted_by_offset()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `divide_regions` returns the multi-pass oracle's regions, every
    /// field equal, for random traces and configs.
    #[test]
    fn division_matches_multi_pass_oracle(
        (sorted, file_size) in sorted_trace(),
        cfg in division(),
    ) {
        let (expected, _) = oracle(&sorted, file_size, &cfg);
        prop_assert_eq!(divide_regions(&sorted, file_size, &cfg), expected);
    }
}

/// Multi-phase `serve_fleet` traces in files of 64 MiB or less allow one
/// region, so the default config needs 6–9 passes; the single-phase ones
/// settle in one. Every shape matches the oracle, drifted or not.
#[test]
fn fleet_shapes_match_multi_pass_oracle() {
    let cfg = RegionDivisionConfig::default();
    let mut most_passes = 0;
    for phases in 1..=6 {
        for rotation in 0..PHASE_SIZES.len() {
            for drifted in [false, true] {
                let sorted = fleet_trace(phases, rotation, drifted);
                let file_size = phases as u64 * 8 * MIB;
                let (expected, passes) = oracle(&sorted, file_size, &cfg);
                assert_eq!(
                    divide_regions(&sorted, file_size, &cfg),
                    expected,
                    "{phases} phases, rotation {rotation}, drifted {drifted}"
                );
                assert_eq!(expected.len(), 1);
                if phases == 1 {
                    assert_eq!(passes, 1);
                } else {
                    assert!(
                        (6..=9).contains(&passes),
                        "{phases} phases: {passes} passes"
                    );
                }
                most_passes = most_passes.max(passes);
            }
        }
    }
    assert_eq!(most_passes, 9);
}
