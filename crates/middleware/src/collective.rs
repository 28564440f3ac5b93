//! Two-phase collective I/O (ROMIO-style), used by BTIO's
//! `MPI_File_write_all`/`read_all`.
//!
//! When all ranks enter a collective call, the middleware:
//!
//! 1. computes the union extent of everyone's requests and partitions it
//!    into contiguous *file domains*, one per aggregator (one aggregator
//!    per compute node, as ROMIO defaults to);
//! 2. ships each rank's data to the aggregator owning it (the *exchange
//!    phase* — charged as local time proportional to the bytes a rank
//!    contributes, since the exchange crosses the same client NICs);
//! 3. has each aggregator issue large contiguous file requests over its
//!    domain, chunked by the collective buffer size (ROMIO's `cb_buffer`,
//!    4 MiB by default).
//!
//! The result is the classic collective-I/O effect: many small strided
//! requests become a few large contiguous ones. The transformation output
//! is expressed as logical steps (exchange compute + barrier + aggregator
//! I/O + barrier) which the [`crate::runtime`] translates onto physical
//! region files.

use crate::logical::LogicalRequest;
use harl_devices::OpKind;
use harl_simcore::SimNanos;
use serde::{Deserialize, Serialize};

/// Collective-I/O tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveConfig {
    /// Aggregator chunk size (ROMIO `cb_buffer_size`; default 4 MiB).
    pub cb_buffer: u64,
    /// Per-byte cost of the exchange phase in seconds (client network).
    pub exchange_s_per_byte: f64,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            cb_buffer: 4 * 1024 * 1024,
            exchange_s_per_byte: 4e-9,
        }
    }
}

/// The plan for one matched collective call.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectivePlan {
    /// Per-rank exchange time (phase 2 of two-phase I/O).
    pub exchange: Vec<SimNanos>,
    /// Per-rank aggregated file requests (empty for non-aggregators).
    pub aggregated: Vec<Vec<LogicalRequest>>,
    /// The operation of this call.
    pub op: OpKind,
}

/// Merge intervals into the sorted list of disjoint, non-touching
/// intervals that covers their union.
///
/// A stable sort by start finds the already-sorted per-rank runs and
/// merges them instead of sorting from scratch. The order among equal
/// starts does not matter: the sweep keeps the larger end either way, and
/// the union alone determines the result.
fn coalesce(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_by_key(|&(lo, _)| lo);
    intervals.dedup_by(|next, last| {
        let overlaps = next.0 <= last.1;
        if overlaps {
            last.1 = last.1.max(next.1);
        }
        overlaps
    });
    intervals
}

/// Build the two-phase plan for one collective call.
///
/// `contributions[r]` is rank r's request list, owned or borrowed; all
/// non-empty contributions must share one [`OpKind`] (MPI collectives are
/// single-direction). `aggregators` is the list of rank ids acting as
/// aggregators (typically one per node). Returns `None` for a call where
/// nobody contributes data (a pure synchronisation point).
///
/// # Panics
/// Panics on an empty aggregator list, a zero `cb_buffer` or a call that
/// mixes reads and writes.
pub fn plan_collective<C: AsRef<[LogicalRequest]>>(
    contributions: &[C],
    aggregators: &[usize],
    cfg: &CollectiveConfig,
) -> Option<CollectivePlan> {
    assert!(!aggregators.is_empty(), "need at least one aggregator");
    assert!(cfg.cb_buffer > 0, "cb_buffer must be > 0 bytes");
    let mut requests = contributions.iter().flat_map(AsRef::as_ref).peekable();
    let op = requests.peek()?.op;

    // Union extent and covered intervals.
    let n_requests = contributions.iter().map(|c| c.as_ref().len()).sum();
    let mut intervals = Vec::with_capacity(n_requests);
    for r in requests {
        assert!(r.op == op, "mixed read/write in one collective call");
        if r.size > 0 {
            intervals.push((r.offset, r.offset + r.size));
        }
    }
    let covered = coalesce(intervals);
    let (lo, hi) = match (covered.first(), covered.last()) {
        (Some(first), Some(last)) => (first.0, last.1),
        _ => return None,
    };

    // Contiguous file domains, one per aggregator, sliced from the extent.
    let n_agg = aggregators.len() as u64;
    let span = hi - lo;
    let domain = span.div_ceil(n_agg).max(1);

    // Exchange cost: every rank ships the bytes it contributes.
    let exchange: Vec<SimNanos> = contributions
        .iter()
        .map(|reqs| {
            let bytes: u64 = reqs.as_ref().iter().map(|r| r.size).sum();
            SimNanos::from_secs_f64(bytes as f64 * cfg.exchange_s_per_byte)
        })
        .collect();

    // Aggregator requests: covered intervals clipped to the domain, then
    // chunked by cb_buffer.
    let mut aggregated: Vec<Vec<LogicalRequest>> = vec![Vec::new(); contributions.len()];
    for (k, &agg_rank) in aggregators.iter().enumerate() {
        let d_lo = lo + k as u64 * domain;
        let d_hi = (d_lo + domain).min(hi);
        if d_lo >= d_hi {
            continue;
        }
        let out = &mut aggregated[agg_rank];
        for &(c_lo, c_hi) in &covered {
            let s = c_lo.max(d_lo);
            let e = c_hi.min(d_hi);
            let mut pos = s;
            while pos < e {
                let len = cfg.cb_buffer.min(e - pos);
                out.push(LogicalRequest {
                    op,
                    offset: pos,
                    size: len,
                });
                pos += len;
            }
        }
    }

    Some(CollectivePlan {
        exchange,
        aggregated,
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::{FnStrategy, TestRng};

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    /// Reference planner: copies every request, sorts the intervals from
    /// scratch with `sort_unstable`, then coalesces. [`plan_collective`]
    /// must return the same plan.
    fn plan_collective_oracle(
        contributions: &[Vec<LogicalRequest>],
        aggregators: &[usize],
        cfg: &CollectiveConfig,
    ) -> Option<CollectivePlan> {
        let all: Vec<LogicalRequest> = contributions.iter().flatten().copied().collect();
        let op = all.first()?.op;
        assert!(all.iter().all(|r| r.op == op), "mixed read/write");
        let mut intervals: Vec<(u64, u64)> = all
            .iter()
            .filter(|r| r.size > 0)
            .map(|r| (r.offset, r.offset + r.size))
            .collect();
        intervals.sort_unstable();
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in intervals {
            match covered.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => covered.push((lo, hi)),
            }
        }
        let (lo, hi) = (covered.first()?.0, covered.last()?.1);
        let domain = (hi - lo).div_ceil(aggregators.len() as u64).max(1);
        let exchange = contributions
            .iter()
            .map(|reqs| {
                let bytes: u64 = reqs.iter().map(|r| r.size).sum();
                SimNanos::from_secs_f64(bytes as f64 * cfg.exchange_s_per_byte)
            })
            .collect();
        let mut aggregated = vec![Vec::new(); contributions.len()];
        for (k, &agg_rank) in aggregators.iter().enumerate() {
            let d_lo = lo + k as u64 * domain;
            let d_hi = (d_lo + domain).min(hi);
            for &(c_lo, c_hi) in &covered {
                let e = c_hi.min(d_hi);
                let mut pos = c_lo.max(d_lo);
                while pos < e {
                    let len = cfg.cb_buffer.min(e - pos);
                    aggregated[agg_rank].push(LogicalRequest {
                        op,
                        offset: pos,
                        size: len,
                    });
                    pos += len;
                }
            }
        }
        Some(CollectivePlan {
            exchange,
            aggregated,
            op,
        })
    }

    type Call = (Vec<Vec<LogicalRequest>>, Vec<usize>, CollectiveConfig);

    /// Fisher–Yates shuffle driven by the property's generator.
    fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, (0..=i).generate(rng));
        }
    }

    /// One random collective call: 1–17 ranks of 0–12 requests, each
    /// rank's list sorted or shuffled, a shuffled aggregator subset that
    /// need not include rank 0, and any `cb_buffer` from 1 byte to 4 MiB.
    fn arb_call() -> impl Strategy<Value = Call> {
        FnStrategy(|rng: &mut TestRng| {
            let ranks = (1usize..=17).generate(rng);
            let cb_buffer = (1u64..=4 * MB).generate(rng);
            let op = if any::<bool>().generate(rng) {
                OpKind::Write
            } else {
                OpKind::Read
            };
            // A grid up to 8x finer or coarser than the buffer, so requests
            // overlap, touch and nest while the chunk count stays small.
            let shift = (0u32..=3).generate(rng);
            let cell = if any::<bool>().generate(rng) {
                cb_buffer << shift
            } else {
                (cb_buffer >> shift).max(1)
            };
            let contributions = (0..ranks)
                .map(|_| {
                    let mut reqs: Vec<LogicalRequest> = (0..(0usize..=12).generate(rng))
                        .map(|_| {
                            let anywhere = (0u64..1 << 40).generate(rng);
                            let (offset, size) = match (0u8..4).generate(rng) {
                                0 | 1 => (
                                    (0u64..48).generate(rng) * cell,
                                    (0u64..=4).generate(rng) * cell,
                                ),
                                2 => (anywhere, (0..=3 * cb_buffer).generate(rng)),
                                _ => (anywhere, 0),
                            };
                            LogicalRequest { op, offset, size }
                        })
                        .collect();
                    if any::<bool>().generate(rng) {
                        reqs.sort_by_key(|r| r.offset);
                    } else {
                        shuffle(&mut reqs, rng);
                    }
                    reqs
                })
                .collect();
            let mut aggregators: Vec<usize> =
                (0..ranks).filter(|_| any::<bool>().generate(rng)).collect();
            if aggregators.is_empty() {
                aggregators.push((0..ranks).generate(rng));
            }
            shuffle(&mut aggregators, rng);
            let cfg = CollectiveConfig {
                cb_buffer,
                ..CollectiveConfig::default()
            };
            (contributions, aggregators, cfg)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every plan equals the oracle's, whatever the rank order,
        /// overlaps, aggregator subset or buffer size.
        #[test]
        fn plan_matches_copy_and_sort_oracle((contributions, aggregators, cfg) in arb_call()) {
            let expected = plan_collective_oracle(&contributions, &aggregators, &cfg);
            let borrowed: Vec<&[LogicalRequest]> =
                contributions.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(plan_collective(&borrowed, &aggregators, &cfg), expected.clone());
            prop_assert_eq!(plan_collective(&contributions, &aggregators, &cfg), expected);
        }
    }

    /// BTIO-like strided contributions: rank r owns every n-th block.
    fn strided(ranks: usize, block: u64, blocks_per_rank: usize) -> Vec<Vec<LogicalRequest>> {
        (0..ranks)
            .map(|r| {
                (0..blocks_per_rank)
                    .map(|b| LogicalRequest::write((b * ranks + r) as u64 * block, block))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn coalesce_merges_touching() {
        let merged = coalesce(vec![(10, 20), (0, 10), (30, 40), (15, 25)]);
        assert_eq!(merged, vec![(0, 25), (30, 40)]);
    }

    #[test]
    fn strided_writes_become_contiguous() {
        // 4 ranks × 64 blocks of 64 KiB interleaved: fully covering 16 MiB.
        let contributions = strided(4, 64 * KB, 64);
        let plan = plan_collective(&contributions, &[0, 1], &CollectiveConfig::default()).unwrap();
        let total: u64 = plan.aggregated.iter().flatten().map(|r| r.size).sum();
        assert_eq!(total, 16 * MB, "aggregation conserves bytes");
        // Each aggregator issues 8 MiB as two 4 MiB chunks.
        assert_eq!(plan.aggregated[0].len(), 2);
        assert_eq!(plan.aggregated[1].len(), 2);
        assert!(plan.aggregated[2].is_empty());
        // Chunks are contiguous and in order.
        for reqs in &plan.aggregated {
            for w in reqs.windows(2) {
                assert_eq!(w[0].offset + w[0].size, w[1].offset);
            }
        }
    }

    #[test]
    fn gaps_are_not_fabricated() {
        // Two disjoint covered areas: the hole must not be read/written.
        let contributions = vec![
            vec![LogicalRequest::read(0, MB)],
            vec![LogicalRequest::read(8 * MB, MB)],
        ];
        let plan = plan_collective(&contributions, &[0], &CollectiveConfig::default()).unwrap();
        let total: u64 = plan.aggregated[0].iter().map(|r| r.size).sum();
        assert_eq!(total, 2 * MB);
        assert!(plan.aggregated[0]
            .iter()
            .all(|r| r.offset + r.size <= MB || r.offset >= 8 * MB));
    }

    #[test]
    fn exchange_proportional_to_contribution() {
        let contributions = vec![
            vec![LogicalRequest::write(0, 2 * MB)],
            vec![LogicalRequest::write(2 * MB, MB)],
            vec![],
        ];
        let plan = plan_collective(&contributions, &[0], &CollectiveConfig::default()).unwrap();
        assert_eq!(plan.exchange[0], plan.exchange[1] * 2);
        assert_eq!(plan.exchange[2], SimNanos::ZERO);
    }

    #[test]
    fn empty_call_is_none() {
        let contributions: Vec<Vec<LogicalRequest>> = vec![vec![], vec![]];
        assert!(plan_collective(&contributions, &[0], &CollectiveConfig::default()).is_none());
    }

    #[test]
    #[should_panic(expected = "cb_buffer must be > 0")]
    fn zero_cb_buffer_rejected() {
        // A zero buffer would never advance the chunking loop.
        let contributions = vec![vec![LogicalRequest::write(0, KB)]];
        let cfg = CollectiveConfig {
            cb_buffer: 0,
            ..CollectiveConfig::default()
        };
        plan_collective(&contributions, &[0], &cfg);
    }

    #[test]
    #[should_panic(expected = "mixed read/write")]
    fn mixed_ops_rejected() {
        let contributions = vec![
            vec![LogicalRequest::read(0, KB)],
            vec![LogicalRequest::write(KB, KB)],
        ];
        plan_collective(&contributions, &[0], &CollectiveConfig::default());
    }
}
