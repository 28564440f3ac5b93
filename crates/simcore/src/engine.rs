//! Generic discrete-event engine.
//!
//! The engine owns a priority queue of `(time, sequence, event)` entries and
//! delivers them, earliest first, to a handler. Ties in time break on
//! insertion order, which keeps simulations deterministic even when many
//! events share a timestamp (common with zero-latency hops).
//!
//! The handler receives a [`Scheduler`] so it can schedule follow-up events
//! while one is being processed — the usual DES pattern:
//!
//! ```
//! use harl_simcore::{Engine, SimNanos};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32), Done }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimNanos::ZERO, Ev::Ping(0));
//! let mut pings = 0;
//! engine.run(|sched, now, ev| match ev {
//!     Ev::Ping(n) if n < 3 => {
//!         pings += 1;
//!         sched.schedule(now + SimNanos::from_millis(1), Ev::Ping(n + 1));
//!     }
//!     Ev::Ping(_) => { sched.schedule(now, Ev::Done); }
//!     Ev::Done => {}
//! });
//! assert_eq!(pings, 3);
//! assert_eq!(engine.now(), SimNanos::from_millis(3));
//! ```

use crate::calendar::CalendarQueue;
use crate::profiler::{Phase, PhaseProfiler};
use crate::registry;
use crate::time::SimNanos;

/// Identifier of a scheduled event, in insertion order.
///
/// Exposed mainly for debugging and for tests that assert determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// The scheduling half of the engine, passed to event handlers.
///
/// Split out from [`Engine`] so a handler can schedule new events while the
/// engine is mid-dispatch without aliasing the queue it is draining.
///
/// Pending events live in a `CalendarQueue` (`crate::calendar`) — a
/// bucketed timeline with
/// arena-allocated payload slots — which pops in exactly the ascending
/// `(time, insertion sequence)` order the original `BinaryHeap` engine
/// produced, at `O(1)` per operation on the hot path.
pub struct Scheduler<E> {
    queue: CalendarQueue<E>,
    next_seq: u64,
    now: SimNanos,
    queue_hwm: usize,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            queue: CalendarQueue::new(),
            next_seq: 0,
            now: SimNanos::ZERO,
            queue_hwm: 0,
        }
    }

    /// Schedule `event` at absolute simulated time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a DES must never travel backwards;
    /// such a call is always a bug in the caller's time arithmetic.
    pub fn schedule(&mut self, at: SimNanos, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, event);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
        EventId(seq)
    }

    /// Schedule `event` `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimNanos, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// The current simulated time (the timestamp of the event being
    /// dispatched, or the last one dispatched).
    #[inline]
    pub fn now(&self) -> SimNanos {
        self.now
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The deepest the event queue has ever been (high-water mark).
    #[inline]
    pub fn queue_depth_hwm(&self) -> usize {
        self.queue_hwm
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimNanos, E)> {
        self.queue.pop()
    }
}

/// A discrete-event engine over events of type `E`.
pub struct Engine<E> {
    sched: Scheduler<E>,
    dispatched: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
            dispatched: 0,
        }
    }

    /// Schedule an event before the simulation starts (or between runs).
    pub fn schedule(&mut self, at: SimNanos, event: E) -> EventId {
        self.sched.schedule(at, event)
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimNanos {
        self.sched.now()
    }

    /// Total number of events dispatched so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The deepest the event queue has ever been (high-water mark).
    #[inline]
    pub fn queue_depth_hwm(&self) -> usize {
        self.sched.queue_depth_hwm()
    }

    /// Report engine-level observability (events dispatched, queue-depth
    /// high-water mark) into `recorder`. Call after a run completes.
    pub fn record_metrics(&self, recorder: &dyn crate::metrics::Recorder) {
        if !recorder.is_enabled() {
            return;
        }
        recorder.counter_add(registry::SIM_EVENTS_DISPATCHED.name, &[], self.dispatched);
        recorder.gauge_max(
            registry::SIM_QUEUE_DEPTH_HWM.name,
            &[],
            self.queue_depth_hwm() as f64,
        );
        recorder.counter_add(
            registry::SIM_QUEUE_REBUILDS.name,
            &[],
            self.sched.queue.rebuilds(),
        );
    }

    /// Run until the queue is empty, delivering each event to `handler`.
    ///
    /// The handler may schedule further events through the provided
    /// [`Scheduler`]; the run ends when no events remain.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Scheduler<E>, SimNanos, E),
    {
        while let Some((at, event)) = self.sched.pop() {
            debug_assert!(at >= self.sched.now, "event queue went backwards");
            self.sched.now = at;
            self.dispatched += 1;
            handler(&mut self.sched, at, event);
        }
    }

    /// Like [`Engine::run`], but bills heap pops and loop bookkeeping to
    /// the profiler's `Dispatch` bucket.
    ///
    /// Handler wall time is attributed by the handler itself: the PFS
    /// simulator opens `DeviceService` / `QueueDrain` / `Recorder` scopes
    /// per event kind, and their self-times subtract from nothing here
    /// because the handler runs outside the dispatch scope. Simulated time
    /// and event order are identical to an unprofiled run — the profiler
    /// only reads wall clocks, never sim state.
    pub fn run_profiled<F>(&mut self, prof: &PhaseProfiler, mut handler: F)
    where
        F: FnMut(&mut Scheduler<E>, SimNanos, E),
    {
        loop {
            let popped = {
                let _dispatch = prof.scope(Phase::Dispatch);
                self.sched.pop()
            };
            let Some((at, event)) = popped else {
                break;
            };
            debug_assert!(at >= self.sched.now, "event queue went backwards");
            self.sched.now = at;
            self.dispatched += 1;
            handler(&mut self.sched, at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    enum Ev {
        A,
        B,
        C(u32),
    }

    #[test]
    fn delivers_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule(SimNanos(30), Ev::C(3));
        eng.schedule(SimNanos(10), Ev::A);
        eng.schedule(SimNanos(20), Ev::B);
        let mut order = vec![];
        eng.run(|_, now, ev| order.push((now.as_nanos(), ev)));
        assert_eq!(order, vec![(10, Ev::A), (20, Ev::B), (30, Ev::C(3))]);
    }

    #[test]
    fn ties_break_on_insertion_order() {
        let mut eng = Engine::new();
        for i in 0..100 {
            eng.schedule(SimNanos(42), Ev::C(i));
        }
        let mut seen = vec![];
        eng.run(|_, _, ev| {
            if let Ev::C(i) = ev {
                seen.push(i);
            }
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_chains() {
        let mut eng = Engine::new();
        eng.schedule(SimNanos::ZERO, Ev::C(0));
        let mut count = 0u32;
        eng.run(|sched, now, ev| {
            if let Ev::C(n) = ev {
                count += 1;
                if n < 9 {
                    sched.schedule(now + SimNanos(5), Ev::C(n + 1));
                }
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimNanos(45));
        assert_eq!(eng.dispatched(), 10);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule(SimNanos(100), Ev::A);
        eng.run(|sched, _, _| {
            sched.schedule(SimNanos(50), Ev::B);
        });
    }

    #[test]
    fn queue_hwm_tracks_deepest_point() {
        let mut eng = Engine::new();
        for i in 0..5u64 {
            eng.schedule(SimNanos(i), Ev::A);
        }
        assert_eq!(eng.queue_depth_hwm(), 5);
        eng.run(|_, _, _| {});
        // Draining does not lower the mark.
        assert_eq!(eng.queue_depth_hwm(), 5);
        let rec = crate::metrics::MemoryRecorder::new();
        eng.record_metrics(&rec);
        assert_eq!(
            rec.counter_value(registry::SIM_EVENTS_DISPATCHED.name, &[]),
            5
        );
        assert_eq!(
            rec.gauge_value(registry::SIM_QUEUE_DEPTH_HWM.name, &[]),
            Some(5.0)
        );
    }

    #[test]
    fn run_profiled_matches_plain_run() {
        let build = || {
            let mut eng = Engine::new();
            eng.schedule(SimNanos::ZERO, Ev::C(0));
            eng
        };
        let handler = |sched: &mut Scheduler<Ev>, now: SimNanos, ev: Ev| {
            if let Ev::C(n) = ev {
                if n < 9 {
                    sched.schedule(now + SimNanos(5), Ev::C(n + 1));
                }
            }
        };
        let mut plain = build();
        plain.run(handler);
        let prof = PhaseProfiler::new();
        let mut profiled = build();
        profiled.run_profiled(&prof, handler);
        // Profiling must not perturb simulated time or event counts.
        assert_eq!(profiled.now(), plain.now());
        assert_eq!(profiled.dispatched(), plain.dispatched());
        assert!(prof.phase_ns(Phase::Dispatch) > 0);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut eng = Engine::new();
        eng.schedule(SimNanos(100), Ev::A);
        let mut fired_at = None;
        eng.run(|sched, _, ev| match ev {
            Ev::A => {
                sched.schedule_after(SimNanos(11), Ev::B);
            }
            Ev::B => fired_at = Some(sched.now()),
            _ => {}
        });
        assert_eq!(fired_at, Some(SimNanos(111)));
    }
}
