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
use std::borrow::Cow;

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

/// The intervals of a rank's non-empty requests, in list order.
fn intervals(reqs: &[LogicalRequest]) -> impl Iterator<Item = (u64, u64)> + '_ {
    reqs.iter()
        .filter(|r| r.size > 0)
        .map(|r| (r.offset, r.offset + r.size))
}

/// Merge two start-ordered interval sequences into the sorted list of
/// disjoint, non-touching intervals that covers their union, coalescing
/// overlapping and touching intervals as it writes.
fn merge(
    mut a: impl Iterator<Item = (u64, u64)>,
    mut b: impl Iterator<Item = (u64, u64)>,
    capacity: usize,
) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(capacity);
    let (mut x, mut y) = (a.next(), b.next());
    while let Some((lo, hi)) = match (x, y) {
        (Some(p), Some(q)) if q.0 < p.0 => {
            y = b.next();
            Some(q)
        }
        (Some(p), _) => {
            x = a.next();
            Some(p)
        }
        (None, q) => {
            y = b.next();
            q
        }
    } {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// The union of the ranks' offset-ordered runs, merged pairwise in a
/// balanced tree, as the sorted list of disjoint, non-touching intervals.
///
/// The union's maximal components do not depend on the merge order, so
/// any tree gives the list a sort of every interval would. Each of the
/// ⌈log₂ P⌉ levels reads at most n intervals, and coalescing shrinks the
/// runs of tiled views (BTIO's) level by level.
fn union(runs: &[Cow<'_, [LogicalRequest]>]) -> Vec<(u64, u64)> {
    match runs {
        [] => Vec::new(),
        [a] => merge(intervals(a), intervals(&[]), a.len()),
        [a, b] => merge(intervals(a), intervals(b), a.len() + b.len()),
        _ => {
            let (left, right) = runs.split_at(runs.len() / 2);
            let (left, right) = (union(left), union(right));
            let capacity = left.len() + right.len();
            merge(left.into_iter(), right.into_iter(), capacity)
        }
    }
}

/// Build the two-phase plan for one collective call.
///
/// `contributions[r]` is rank r's request list, owned or borrowed; all
/// non-empty contributions must share one [`OpKind`] (MPI collectives are
/// single-direction). `aggregators` is the list of rank ids acting as
/// aggregators (typically one per node). Returns `None` for a call where
/// nobody contributes data (a pure synchronisation point).
///
/// Each rank's list is expected in offset order, as every MPI file view
/// gives it (a filetype's displacements must be monotonically
/// non-decreasing); empty requests may sit anywhere. A rank out of order
/// is lowered from a sorted copy of its own list. The ranks' runs are
/// then merged pairwise, so the union of n intervals from P ranks costs
/// O(n log P), plus the sort of any out-of-order rank.
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
    let op = contributions.iter().flat_map(AsRef::as_ref).next()?.op;

    // One pass per rank: check the op, sum the bytes it ships in the
    // exchange and test whether its non-empty requests run in offset order.
    let mut exchange: Vec<SimNanos> = Vec::with_capacity(contributions.len());
    let mut runs: Vec<Cow<'_, [LogicalRequest]>> = Vec::with_capacity(contributions.len());
    for reqs in contributions {
        let reqs = reqs.as_ref();
        let (mut bytes, mut last, mut ordered) = (0u64, 0u64, true);
        for r in reqs {
            assert!(r.op == op, "mixed read/write in one collective call");
            bytes += r.size;
            if r.size > 0 {
                ordered &= r.offset >= last;
                last = r.offset;
            }
        }
        exchange.push(SimNanos::from_secs_f64(
            bytes as f64 * cfg.exchange_s_per_byte,
        ));
        runs.push(if ordered {
            Cow::Borrowed(reqs)
        } else {
            let mut sorted = reqs.to_vec();
            sorted.sort_unstable_by_key(|r| r.offset);
            Cow::Owned(sorted)
        });
    }

    // Union extent and covered intervals.
    let covered = union(&runs);
    let (lo, hi) = match (covered.first(), covered.last()) {
        (Some(first), Some(last)) => (first.0, last.1),
        _ => return None,
    };

    // Contiguous file domains, one per aggregator, sliced from the extent.
    let n_agg = aggregators.len() as u64;
    let span = hi - lo;
    let domain = span.div_ceil(n_agg).max(1);

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

    /// Scattered contributions: 0–12 requests per rank on a grid up to 8x
    /// finer or coarser than `cb_buffer`, so requests overlap, touch and
    /// nest while the chunk count stays small, plus arbitrary and empty
    /// ones; each rank's list sorted or shuffled.
    fn scattered(
        rng: &mut TestRng,
        ranks: usize,
        op: OpKind,
        cb_buffer: u64,
    ) -> Vec<Vec<LogicalRequest>> {
        let shift = (0u32..=3).generate(rng);
        let cell = if any::<bool>().generate(rng) {
            cb_buffer << shift
        } else {
            (cb_buffer >> shift).max(1)
        };
        (0..ranks)
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
            .collect()
    }

    /// First and one-past-last item of part `k` when `n` items are split
    /// into `parts` blocks, the first `n % parts` one item longer.
    fn block(n: u64, parts: u64, k: u64) -> (u64, u64) {
        let lo = k * (n / parts) + k.min(n % parts);
        (lo, lo + n / parts + u64::from(k < n % parts))
    }

    /// One BTIO dump: a `side`² process grid (side 1–8) over a `grid`³
    /// array of `cell`-byte cells, each block a sorted nested-strided run
    /// of one request per (z, y) row, so neighbouring blocks' runs touch
    /// across ranks. Blocks go to ranks in order, reversed or shuffled;
    /// some sorted runs carry empty requests, at their neighbour's offset
    /// or anywhere; and one rank may be out of order.
    fn btio_dump(rng: &mut TestRng, op: OpKind) -> (Vec<Vec<LogicalRequest>>, u64) {
        let side = (1u64..=8).generate(rng);
        let grid = (1u64..=20).generate(rng);
        let cell = (1u64..=64).generate(rng);
        let base = (0u64..1 << 40).generate(rng);
        let mut owner: Vec<u64> = (0..side * side).collect();
        match (0u8..3).generate(rng) {
            0 => {}
            1 => owner.reverse(),
            _ => shuffle(&mut owner, rng),
        }
        let mut contributions: Vec<Vec<LogicalRequest>> = owner
            .iter()
            .map(|&b| {
                let (x0, x1) = block(grid, side, b % side);
                let (y0, y1) = block(grid, side, b / side);
                let mut reqs = Vec::new();
                for z in 0..grid {
                    for y in y0..y1 {
                        let offset = base + ((z * grid + y) * grid + x0) * cell;
                        reqs.push(LogicalRequest {
                            op,
                            offset,
                            size: (x1 - x0) * cell,
                        });
                    }
                }
                if any::<bool>().generate(rng) {
                    for _ in 0..(1usize..=4).generate(rng) {
                        let at = (0..=reqs.len()).generate(rng);
                        let offset = match reqs.get(at) {
                            Some(r) if any::<bool>().generate(rng) => r.offset,
                            _ => (0u64..1 << 40).generate(rng),
                        };
                        reqs.insert(
                            at,
                            LogicalRequest {
                                op,
                                offset,
                                size: 0,
                            },
                        );
                    }
                }
                reqs
            })
            .collect();
        if any::<bool>().generate(rng) {
            let r = (0..contributions.len()).generate(rng);
            shuffle(&mut contributions[r], rng);
        }
        // Up to 256 chunks across the dump, down to one.
        let total = grid * grid * grid * cell;
        let cb_buffer = (total.div_ceil(256)..=2 * total).generate(rng);
        (contributions, cb_buffer)
    }

    /// One random collective call: either a BTIO dump on a 1–8 side
    /// process grid (up to 64 ranks) or 1–64 ranks of scattered requests,
    /// a shuffled aggregator subset that need not include rank 0, and any
    /// `cb_buffer` from 1 byte to 4 MiB for the scattered ones.
    fn arb_call() -> impl Strategy<Value = Call> {
        FnStrategy(|rng: &mut TestRng| {
            let op = if any::<bool>().generate(rng) {
                OpKind::Write
            } else {
                OpKind::Read
            };
            let (contributions, cb_buffer) = if any::<bool>().generate(rng) {
                btio_dump(rng, op)
            } else {
                let ranks = (1usize..=64).generate(rng);
                let cb_buffer = (1u64..=4 * MB).generate(rng);
                (scattered(rng, ranks, op, cb_buffer), cb_buffer)
            };
            let ranks = contributions.len();
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
    fn union_merges_touching_runs() {
        // One interval per rank, out of order across the ranks.
        let runs: Vec<Cow<'_, [LogicalRequest]>> = [(10, 20), (0, 10), (30, 40), (15, 25)]
            .into_iter()
            .map(|(lo, hi)| Cow::Owned(vec![LogicalRequest::write(lo, hi - lo)]))
            .collect();
        assert_eq!(union(&runs), vec![(0, 25), (30, 40)]);
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
