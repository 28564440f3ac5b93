//! Canonical workload fingerprints — the plan-cache key.
//!
//! A [`WorkloadFingerprint`] is a small, fully deterministic digest of
//! everything Algorithm 1 + Algorithm 2 actually *react to* in a trace:
//! the request-size histogram (power-of-two buckets, log-bucketed counts),
//! the read/write operation mix, the per-region CV signature produced by
//! the paper's region division, and the cluster/class shape of the cost
//! model. Two traces with equal fingerprints land in the same plan-cache
//! slot; the buckets are coarse enough that re-runs of the same job (same
//! generator, same seed) collide, while a drifted phase — a request-size
//! shift, a read/write flip, a new hot region — moves at least one bucket
//! and misses.
//!
//! Everything in the fingerprint is integral: no floats, no pointers, no
//! iteration-order dependence. The struct derives `Ord`, so it can key a
//! `BTreeMap` (deterministic cache iteration), and its serialized JSON is
//! byte-identical across thread counts and platforms — pinned by test.

use crate::multiprofile::MultiProfileModel;
use crate::region::{divide_regions, RegionDivisionConfig};
use crate::trace::TraceRecord;
use harl_devices::OpKind;
use harl_simcore::OnlineStats;
use serde::{Deserialize, Serialize};

/// Fingerprint format version; bump when the digest definition changes so
/// stale caches can never alias new ones.
pub const FINGERPRINT_VERSION: u32 = 1;

/// Width of the write-percentage buckets (percent).
const WRITE_PCT_BUCKET: u64 = 5;

/// Grid the per-region average request size is quantised to (bytes).
/// Matches the optimizer's default 4 KiB stripe grid: averages that the
/// grid search cannot distinguish share a bucket.
const AVG_SIZE_GRID: u64 = 4096;

/// Width of the per-region CV buckets, in hundredths. The region division
/// itself splits on CV thresholds ≥ 1.0, so tenth-of-a-CV buckets are well
/// below anything the planner can react to.
const CV_CENTI_BUCKET: u64 = 10;

/// One occupied power-of-two bucket of the request-size histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HistBucket {
    /// `floor(log2(size))` of the sizes in this bucket (0 for size 0).
    pub size_log2: u32,
    /// `floor(log2(count))` of the bucket's population — the count only
    /// matters at order-of-magnitude granularity.
    pub count_log2: u32,
}

/// The digest of one region from Algorithm 1's division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionSignature {
    /// Region start offset (exact — layout geometry is part of the plan).
    pub offset: u64,
    /// Region length in bytes (exact).
    pub len: u64,
    /// Average request size rounded up to the 4 KiB optimizer grid.
    pub avg_bucket: u64,
    /// Coefficient of variation of request sizes, bucketed to tenths.
    pub cv_bucket: u64,
    /// `floor(log2(request count))` (0 for an idle region).
    pub requests_log2: u32,
    /// Write share of the region's requests, bucketed to 5%.
    pub write_pct_bucket: u32,
}

/// The digest of one server class of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassShape {
    /// Servers in the class.
    pub count: u64,
    /// FNV-1a tag over the class's read/write `OpParams` bit patterns: any
    /// recalibration changes the tag and therefore the fingerprint.
    pub params_tag: u64,
}

/// Canonical digest of a `(trace, file size, cluster model)` triple.
///
/// Integral fields only; derives `Ord` for deterministic `BTreeMap` keys
/// and serde for byte-stable JSON (see [`WorkloadFingerprint::canonical_json`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkloadFingerprint {
    /// Digest format version ([`FINGERPRINT_VERSION`]).
    pub version: u32,
    /// Exact logical file size — a cached RST tiles exactly this extent.
    pub file_size: u64,
    /// Occupied request-size histogram buckets, ascending by size.
    pub hist: Vec<HistBucket>,
    /// Overall write share of the trace, bucketed to 5%.
    pub write_pct_bucket: u32,
    /// Per-region signatures in offset order (Algorithm 1's division).
    pub regions: Vec<RegionSignature>,
    /// Server-class shapes in `ClusterConfig::classes` order.
    pub classes: Vec<ClassShape>,
    /// FNV-1a tag over the network term of the cost model.
    pub network_tag: u64,
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fnv1a_f64s(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn log2_floor(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros()
    }
}

fn write_pct_bucket(writes: u64, total: u64) -> u32 {
    if total == 0 {
        return 0;
    }
    let pct = writes * 100 / total;
    u32::try_from(pct / WRITE_PCT_BUCKET * WRITE_PCT_BUCKET).unwrap_or(100)
}

impl ClassShape {
    fn of(class: &crate::multiprofile::ClassParams) -> ClassShape {
        ClassShape {
            count: class.count as u64,
            params_tag: fnv1a_f64s(&[
                class.read.alpha_min_s,
                class.read.alpha_max_s,
                class.read.beta_s_per_byte,
                class.write.alpha_min_s,
                class.write.alpha_max_s,
                class.write.beta_s_per_byte,
            ]),
        }
    }
}

/// Fingerprint a trace that is already sorted by offset (the planner's
/// canonical order, from [`crate::trace::Trace::sorted_by_offset`]).
///
/// The division config is the same one the planner will use, so the
/// fingerprint's region signatures correspond one-to-one with the regions
/// Algorithm 2 would optimise (pre-merge).
pub fn fingerprint_sorted(
    sorted: &[TraceRecord],
    file_size: u64,
    division: &RegionDivisionConfig,
    model: &MultiProfileModel,
) -> WorkloadFingerprint {
    // Request-size histogram: occupied power-of-two buckets with
    // log-bucketed counts, ascending.
    let mut by_size_log2: Vec<u64> = Vec::new();
    let mut writes = 0u64;
    for rec in sorted {
        let b = log2_floor(rec.size) as usize;
        if by_size_log2.len() <= b {
            by_size_log2.resize(b + 1, 0);
        }
        by_size_log2[b] += 1;
        if rec.op == OpKind::Write {
            writes += 1;
        }
    }
    let hist = by_size_log2
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(size_log2, &count)| HistBucket {
            size_log2: u32::try_from(size_log2).unwrap_or(u32::MAX),
            count_log2: log2_floor(count),
        })
        .collect();

    // Per-region signatures from the exact division the planner uses.
    let regions = divide_regions(sorted, file_size, division)
        .iter()
        .map(|region| {
            let records = &sorted[region.first_request..region.last_request];
            let mut stats = OnlineStats::new();
            let mut region_writes = 0u64;
            for rec in records {
                stats.push(rec.size as f64);
                if rec.op == OpKind::Write {
                    region_writes += 1;
                }
            }
            let cv_centi = (stats.cv() * 100.0).clamp(0.0, 1e9) as u64;
            RegionSignature {
                offset: region.offset,
                len: region.len(),
                avg_bucket: region
                    .avg_request_size
                    .div_ceil(AVG_SIZE_GRID)
                    .saturating_mul(AVG_SIZE_GRID),
                cv_bucket: cv_centi / CV_CENTI_BUCKET,
                requests_log2: log2_floor(records.len() as u64),
                write_pct_bucket: write_pct_bucket(region_writes, records.len() as u64),
            }
        })
        .collect();

    WorkloadFingerprint {
        version: FINGERPRINT_VERSION,
        file_size,
        hist,
        write_pct_bucket: write_pct_bucket(writes, sorted.len() as u64),
        regions,
        classes: model.classes.iter().map(ClassShape::of).collect(),
        network_tag: fnv1a_f64s(&[model.t_s_per_byte]),
    }
}

impl WorkloadFingerprint {
    /// The canonical serialized form — stable bytes for equal fingerprints,
    /// used by the determinism tests and available to external cache tiers.
    pub fn canonical_json(&self) -> String {
        // The vendored serializer is infallible (in-memory value tree).
        serde_json::to_string(self).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn rec(offset: u64, size: u64, op: OpKind) -> TraceRecord {
        TraceRecord {
            rank: 0,
            fd: 0,
            op,
            offset,
            size,
            timestamp: SimNanos::ZERO,
        }
    }

    fn phase_trace() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for i in 0..64u64 {
            records.push(rec(i * 128 * KB, 128 * KB, OpKind::Read));
        }
        let boundary = 64 * 128 * KB;
        for i in 0..64u64 {
            records.push(rec(boundary + i * MB, MB, OpKind::Write));
        }
        records
    }

    #[test]
    fn identical_traces_share_a_fingerprint() {
        let sorted = phase_trace();
        let div = RegionDivisionConfig::default();
        let a = fingerprint_sorted(&sorted, 128 * MB, &div, &model());
        let b = fingerprint_sorted(&sorted, 128 * MB, &div, &model());
        assert_eq!(a, b);
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn file_size_is_part_of_the_key() {
        let sorted = phase_trace();
        let div = RegionDivisionConfig::default();
        let a = fingerprint_sorted(&sorted, 128 * MB, &div, &model());
        let b = fingerprint_sorted(&sorted, 256 * MB, &div, &model());
        assert_ne!(a, b);
    }

    #[test]
    fn size_shift_moves_a_bucket() {
        let div = RegionDivisionConfig::default();
        let base: Vec<_> = (0..64)
            .map(|i| rec(i * 256 * KB, 256 * KB, OpKind::Read))
            .collect();
        let shifted: Vec<_> = (0..64)
            .map(|i| rec(i * 256 * KB, 512 * KB, OpKind::Read))
            .collect();
        let a = fingerprint_sorted(&base, 16 * MB, &div, &model());
        let b = fingerprint_sorted(&shifted, 16 * MB, &div, &model());
        assert_ne!(a, b, "doubled request size must change the fingerprint");
    }

    #[test]
    fn op_mix_flip_changes_the_fingerprint() {
        let div = RegionDivisionConfig::default();
        let reads: Vec<_> = (0..64)
            .map(|i| rec(i * 256 * KB, 256 * KB, OpKind::Read))
            .collect();
        let writes: Vec<_> = (0..64)
            .map(|i| rec(i * 256 * KB, 256 * KB, OpKind::Write))
            .collect();
        let a = fingerprint_sorted(&reads, 16 * MB, &div, &model());
        let b = fingerprint_sorted(&writes, 16 * MB, &div, &model());
        assert_ne!(a, b);
    }

    #[test]
    fn model_recalibration_changes_the_fingerprint() {
        let div = RegionDivisionConfig::default();
        let sorted = phase_trace();
        let a = fingerprint_sorted(&sorted, 128 * MB, &div, &model());
        let mut slower = model();
        slower.classes[0].read.beta_s_per_byte *= 2.0;
        let b = fingerprint_sorted(&sorted, 128 * MB, &div, &slower);
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_orders_deterministically() {
        // Ord is required for BTreeMap keys; sanity-check reflexivity and
        // a stable ordering between two distinct fingerprints.
        let div = RegionDivisionConfig::default();
        let sorted = phase_trace();
        let a = fingerprint_sorted(&sorted, 128 * MB, &div, &model());
        let b = fingerprint_sorted(&sorted, 256 * MB, &div, &model());
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    #[test]
    fn empty_trace_fingerprints() {
        let div = RegionDivisionConfig::default();
        let fp = fingerprint_sorted(&[], 16 * MB, &div, &model());
        assert!(fp.hist.is_empty());
        assert_eq!(fp.write_pct_bucket, 0);
        assert_eq!(fp.regions.len(), 1, "empty trace still has one region");
    }
}
