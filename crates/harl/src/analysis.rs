//! Trace pattern analysis.
//!
//! The paper leans on the observation that *"many data-intensive
//! applications have predictable I/O patterns"* (Sec. III-A). This module
//! quantifies a trace's pattern — read/write mix, request-size
//! distribution, sequentiality per rank, size histogram — both for
//! operator-facing reports (the `harl-cli trace-info` command) and for
//! sanity checks before trusting a trace to drive placement.

use crate::cast::f64_to_u64;
use crate::region::Region;
use crate::trace::{Trace, TraceRecord};
use harl_devices::OpKind;
use harl_simcore::{ByteSize, Histogram, OnlineStats};
use serde::{Deserialize, Serialize};

/// Summary statistics of one trace (or one region's slice of it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of requests.
    pub requests: usize,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Fraction of requests that are reads (0..=1).
    pub read_fraction: f64,
    /// Mean request size in bytes.
    pub mean_size: f64,
    /// Coefficient of variation of request sizes (Algorithm 1's signal).
    pub size_cv: f64,
    /// Smallest request.
    pub min_size: u64,
    /// Largest request.
    pub max_size: u64,
    /// Highest byte touched (exclusive).
    pub extent: u64,
    /// Fraction of per-rank consecutive requests that continue exactly
    /// where the previous one ended (1.0 = fully sequential streams,
    /// ~0.0 = random).
    pub sequentiality: f64,
    /// Number of distinct ranks issuing requests.
    pub ranks: usize,
}

impl TraceSummary {
    /// A coarse classification string for reports.
    pub fn pattern_label(&self) -> &'static str {
        match (self.sequentiality > 0.5, self.size_cv < 0.25) {
            (true, true) => "sequential/uniform",
            (true, false) => "sequential/mixed-size",
            (false, true) => "random/uniform",
            (false, false) => "random/mixed-size",
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "{} requests ({:.0}% reads), sizes {}..{} (mean {}, cv {:.2}), \
             extent {}, sequentiality {:.0}%, {} ranks => {}",
            self.requests,
            self.read_fraction * 100.0,
            ByteSize(self.min_size),
            ByteSize(self.max_size),
            ByteSize(f64_to_u64(self.mean_size)),
            self.size_cv,
            ByteSize(self.extent),
            self.sequentiality * 100.0,
            self.ranks,
            self.pattern_label()
        )
    }
}

/// Summarise a set of records (not necessarily sorted).
///
/// Single pass over the records: per-rank sequentiality state lives in a
/// hash map keyed by rank, so cost is O(records) rather than the
/// O(records × ranks) of re-scanning the slice once per rank.
pub fn summarize_records(records: &[TraceRecord]) -> TraceSummary {
    let mut sizes = OnlineStats::new();
    let mut bytes_read = 0;
    let mut bytes_written = 0;
    let mut reads = 0usize;
    let mut min_size = u64::MAX;
    let mut max_size = 0;
    let mut extent = 0;
    // Sequentiality: per rank, in record order (collection order is issue
    // order), how often does a request continue the previous one? The map
    // holds each rank's expected next offset (end of its last request).
    let mut next_per_rank: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let mut continuations = 0usize;
    let mut pairs = 0usize;
    for r in records {
        sizes.push(r.size as f64);
        match r.op {
            OpKind::Read => {
                bytes_read += r.size;
                reads += 1;
            }
            OpKind::Write => bytes_written += r.size,
        }
        min_size = min_size.min(r.size);
        max_size = max_size.max(r.size);
        extent = extent.max(r.offset + r.size);
        if let Some(next) = next_per_rank.insert(r.rank, r.offset + r.size) {
            pairs += 1;
            if next == r.offset {
                continuations += 1;
            }
        }
    }
    let ranks = next_per_rank.len();

    TraceSummary {
        requests: records.len(),
        bytes_read,
        bytes_written,
        read_fraction: if records.is_empty() {
            0.0
        } else {
            reads as f64 / records.len() as f64
        },
        mean_size: sizes.mean(),
        size_cv: sizes.cv(),
        min_size: if records.is_empty() { 0 } else { min_size },
        max_size,
        extent,
        sequentiality: if pairs == 0 {
            0.0
        } else {
            continuations as f64 / pairs as f64
        },
        ranks,
    }
}

/// Summarise a whole trace.
pub fn summarize(trace: &Trace) -> TraceSummary {
    summarize_records(trace.records())
}

/// Per-region summaries given an Algorithm 1 division of the offset-sorted
/// trace.
pub fn summarize_regions(sorted: &[TraceRecord], regions: &[Region]) -> Vec<TraceSummary> {
    regions
        .iter()
        .map(|r| summarize_records(&sorted[r.first_request..r.last_request]))
        .collect()
}

/// Power-of-two request-size histogram of a trace.
pub fn size_histogram(trace: &Trace) -> Histogram {
    let mut h = Histogram::new();
    for r in trace.records() {
        h.record(r.size);
    }
    h
}

#[cfg(test)]
mod tests {
    // Tests assert exact values: outputs are deterministic by design.
    #![allow(clippy::float_cmp)]

    use super::*;
    use harl_simcore::SimNanos;

    fn rec(rank: u32, offset: u64, size: u64, op: OpKind) -> TraceRecord {
        TraceRecord {
            rank,
            fd: 0,
            op,
            offset,
            size,
            timestamp: SimNanos::ZERO,
        }
    }

    #[test]
    fn empty_trace_summary() {
        let s = summarize(&Trace::new());
        assert_eq!(s.requests, 0);
        assert_eq!(s.read_fraction, 0.0);
        assert_eq!(s.sequentiality, 0.0);
        assert_eq!(s.min_size, 0);
    }

    #[test]
    fn sequential_stream_detected() {
        let recs: Vec<_> = (0..32)
            .map(|i| rec(0, i * 4096, 4096, OpKind::Read))
            .collect();
        let s = summarize_records(&recs);
        assert_eq!(s.sequentiality, 1.0);
        assert_eq!(s.pattern_label(), "sequential/uniform");
        assert_eq!(s.ranks, 1);
        assert_eq!(s.extent, 32 * 4096);
    }

    #[test]
    fn interleaved_ranks_are_sequential_per_rank() {
        // Two ranks interleave in time but each streams sequentially.
        let mut recs = Vec::new();
        for i in 0..16u64 {
            recs.push(rec(0, i * 4096, 4096, OpKind::Read));
            recs.push(rec(1, (1 << 20) + i * 4096, 4096, OpKind::Read));
        }
        let s = summarize_records(&recs);
        assert_eq!(s.sequentiality, 1.0, "per-rank view must see the streams");
        assert_eq!(s.ranks, 2);
    }

    #[test]
    fn random_pattern_detected() {
        let offsets = [9u64, 2, 7, 1, 5, 3, 8, 0, 6, 4];
        let recs: Vec<_> = offsets
            .iter()
            .map(|&o| rec(0, o << 20, 4096, OpKind::Write))
            .collect();
        let s = summarize_records(&recs);
        assert!(s.sequentiality < 0.2);
        assert_eq!(s.pattern_label(), "random/uniform");
        assert_eq!(s.read_fraction, 0.0);
    }

    #[test]
    fn mixed_sizes_raise_cv() {
        let recs = vec![
            rec(0, 0, 4096, OpKind::Read),
            rec(0, 4096, 2 << 20, OpKind::Read),
            rec(0, (2 << 20) + 4096, 4096, OpKind::Read),
        ];
        let s = summarize_records(&recs);
        assert!(s.size_cv > 0.5);
        assert!(s.pattern_label().ends_with("mixed-size"));
        assert_eq!(s.min_size, 4096);
        assert_eq!(s.max_size, 2 << 20);
    }

    #[test]
    fn per_region_summaries_follow_division() {
        use crate::region::{divide_regions, RegionDivisionConfig};
        let mut records: Vec<_> = (0..64)
            .map(|i| rec(0, i * 64 * 1024, 64 * 1024, OpKind::Read))
            .collect();
        let boundary = 64 * 64 * 1024;
        records.extend((0..64).map(|i| rec(0, boundary + i * (1 << 20), 1 << 20, OpKind::Read)));
        let cfg = RegionDivisionConfig {
            fixed_region_size: 1 << 20,
            ..RegionDivisionConfig::default()
        };
        let regions = divide_regions(&records, boundary + 64 * (1 << 20), &cfg);
        let summaries = summarize_regions(&records, &regions);
        assert_eq!(summaries.len(), regions.len());
        let total: usize = summaries.iter().map(|s| s.requests).sum();
        assert_eq!(total, records.len());
    }

    #[test]
    fn histogram_buckets_sizes() {
        let trace = Trace::from_records(vec![
            rec(0, 0, 4096, OpKind::Read),
            rec(0, 0, 4096, OpKind::Read),
            rec(0, 0, 1 << 20, OpKind::Read),
        ]);
        let h = size_histogram(&trace);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_for(4096), 2);
        assert_eq!(h.bucket_for(1 << 20), 1);
    }

    #[test]
    fn render_is_informative() {
        let recs: Vec<_> = (0..4)
            .map(|i| rec(0, i * 4096, 4096, OpKind::Read))
            .collect();
        let line = summarize_records(&recs).render();
        assert!(line.contains("4 requests"));
        assert!(line.contains("100% reads"));
        assert!(line.contains("sequential/uniform"));
    }
}
