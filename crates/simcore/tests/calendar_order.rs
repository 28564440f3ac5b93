//! Property tests: the bucketed calendar timeline pops in exactly the
//! order the engine's old `BinaryHeap` produced — ascending `(at, seq)`
//! with `seq` the schedule-call order.
//!
//! Two generators cover the queue's distinct regimes: a static schedule
//! (everything pushed up front, mixing same-timestamp bursts, dense
//! clusters and far-future outliers that must route through the overflow
//! heap) and a dynamic schedule whose handler keeps scheduling follow-ups
//! mid-run, including zero-delay events that land in the *current* bucket
//! while it is being drained — the side-heap path.

use harl_simcore::{Engine, SimNanos};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Expand a generated spec into concrete times: `mode` selects a burst
/// (repeat the previous time exactly), a dense near-origin cluster, a
/// steady advance, or a far-future outlier beyond any initial window.
fn times_from(spec: &[(u8, u64)]) -> Vec<u64> {
    let mut last = 0u64;
    spec.iter()
        .map(|&(mode, raw)| {
            let t = match mode {
                0 => last,
                1 => raw % 1_000,
                2 => last.saturating_add(raw % 100_000),
                _ => raw % (1 << 36),
            };
            last = t;
            t
        })
        .collect()
}

/// Pseudorandom but deterministic follow-up delay for the dynamic test:
/// a quarter of follow-ups are zero-delay (current-bucket insertions),
/// the rest spread from sub-bucket to multi-window jumps.
fn follow_up_delay(id: usize) -> u64 {
    let h = (id as u64 ^ 0xD6E8_FEB8_6659_FD93).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match h % 4 {
        0 => 0,
        1 => h % 7,
        2 => h % 50_000,
        _ => h % (1 << 30),
    }
}

proptest! {
    /// Static schedules: pop order equals a stable sort by time (stable =
    /// insertion order breaks ties, which is what the old heap's
    /// `(at, seq)` key did).
    #[test]
    fn static_schedule_pops_like_the_reference_heap(
        spec in prop::collection::vec((0u8..4, 0u64..(1 << 62)), 1..512),
    ) {
        let times = times_from(&spec);
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimNanos(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        engine.run(|_, now, id| popped.push((now.as_nanos(), id)));

        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort_by_key(|&(t, i)| (t, i));
        prop_assert_eq!(popped, reference);
    }

    /// Dynamic schedules: every pop may schedule a follow-up, including
    /// zero-delay ones into the bucket currently being drained. The
    /// reference is a plain `BinaryHeap` over `(at, seq)` running the
    /// same deterministic rule.
    #[test]
    fn dynamic_schedule_matches_reference_heap(
        spec in prop::collection::vec((0u8..4, 0u64..(1 << 36)), 1..128),
        extra in 0usize..512,
    ) {
        let times = times_from(&spec);

        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimNanos(t), i);
        }
        let mut budget = extra;
        let mut next_id = times.len();
        let mut popped: Vec<(u64, usize)> = Vec::new();
        engine.run(|sched, now, id| {
            popped.push((now.as_nanos(), id));
            if budget > 0 {
                budget -= 1;
                sched.schedule(now + SimNanos(follow_up_delay(id)), next_id);
                next_id += 1;
            }
        });

        // Reference: ids double as sequence numbers because both runs
        // schedule in the same order.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| Reverse((t, i)))
            .collect();
        let mut budget = extra;
        let mut next_id = times.len();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        while let Some(Reverse((at, id))) = heap.pop() {
            reference.push((at, id));
            if budget > 0 {
                budget -= 1;
                heap.push(Reverse((at + follow_up_delay(id), next_id)));
                next_id += 1;
            }
        }
        prop_assert_eq!(popped, reference);
    }
}

/// Regression test for the cursor anchor in `CalendarQueue::rebuild`.
/// A geometry review fires while the only standing event is a
/// far-future outlier. Were `rebuild` to anchor the cursor at the
/// earliest pending key, the cursor would jump to the outlier's bucket,
/// and the handler's next follow-up (100 ns after the popped event) would
/// land in a bucket below it, tripping `debug_assert!(b == self.base)` in
/// `CalendarQueue::place`. `rebuild` anchors at the pop time that
/// triggered the review instead, so the chain runs to completion.
#[test]
fn rebuild_anchors_the_cursor_at_the_review_pop_time() {
    let mut engine: Engine<u32> = Engine::new();
    // One far-future outlier that is the only pending event at review time.
    engine.schedule(SimNanos(1_000_000_000_000), 1);
    // Chain driver: each pop schedules the next 100 ns later, so pops
    // accumulate while the standing queue stays at exactly one event.
    engine.schedule(SimNanos::ZERO, 0);
    let mut hops: u64 = 0;
    engine.run(|sched, now, ev| {
        if ev == 0 && hops < 40_000 {
            hops += 1;
            sched.schedule(now + SimNanos(100), 0);
        }
    });
    assert_eq!(hops, 40_000);
}
