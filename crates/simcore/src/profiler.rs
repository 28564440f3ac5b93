//! Phase profiler: attributes engine wall time to coarse buckets.
//!
//! A simulation run spends its wall-clock time in a handful of places —
//! popping the event heap, modelling device service, draining completions,
//! and feeding the metrics recorder. Knowing the split is the first step of
//! any engine-scaling work: a run that is 60% recorder overhead needs a
//! different fix than one that is 60% heap churn.
//!
//! The profiler is a set of [`Phase`] buckets accumulating self-time
//! nanoseconds. A scope guard ([`PhaseProfiler::scope`]) times a region with
//! two `Instant::now()` calls; nested scopes subtract their elapsed time
//! from the enclosing scope, so each bucket reports *self* time and the
//! buckets sum to (at most) the instrumented wall time without double
//! counting.
//!
//! Wall-clock readings are inherently nondeterministic, so the profiler is
//! observation-only: nothing in the simulation may branch on its values.
//! The module therefore lifts the `crates/clippy.toml` wall-clock bans,
//! the same audited exception as the planner's `plan_wall_s`. Buckets are
//! relaxed atomics so the profiler can sit behind an `Arc` in
//! [`SimContext`](crate::SimContext) without locking; the engine itself is
//! single-threaded, where relaxed counters are exact.

// The profiler measures real engine wall time by design; its readings
// never feed simulated time or a layout decision.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::metrics::Recorder;
use crate::registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The wall-time buckets a simulation run is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-queue pop and engine loop bookkeeping.
    Dispatch = 0,
    /// Handlers modelling device/network service (disk, NIC, MDS).
    DeviceService = 1,
    /// Handlers draining completions and client control flow.
    QueueDrain = 2,
    /// Time spent inside recorder instrumentation blocks.
    Recorder = 3,
}

const PHASES: usize = 4;

impl Phase {
    /// All phases, in bucket order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Dispatch,
        Phase::DeviceService,
        Phase::QueueDrain,
        Phase::Recorder,
    ];

    /// Stable lowercase label (used in reports).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::DeviceService => "device_service",
            Phase::QueueDrain => "queue_drain",
            Phase::Recorder => "recorder",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Phase::Dispatch => registry::SIM_PROFILE_DISPATCH_S.name,
            Phase::DeviceService => registry::SIM_PROFILE_DEVICE_SERVICE_S.name,
            Phase::QueueDrain => registry::SIM_PROFILE_QUEUE_DRAIN_S.name,
            Phase::Recorder => registry::SIM_PROFILE_RECORDER_S.name,
        }
    }
}

/// Accumulates self-time per [`Phase`] across a run.
///
/// ```
/// use harl_simcore::profiler::{Phase, PhaseProfiler};
///
/// let prof = PhaseProfiler::new();
/// {
///     let _outer = prof.scope(Phase::DeviceService);
///     // ... service modelling ...
///     let _inner = prof.scope(Phase::Recorder);
///     // ... recorder calls: billed to Recorder, not DeviceService ...
/// }
/// let ns = prof.snapshot_ns();
/// assert_eq!(ns.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    buckets: [AtomicU64; PHASES],
    /// Cumulative nanoseconds of *closed* scopes, used by enclosing guards
    /// to subtract nested time. Monotone within one thread.
    nested: AtomicU64,
}

impl PhaseProfiler {
    /// A profiler with all buckets at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a timing scope for `phase`; time accrues when the guard drops.
    ///
    /// Nested scopes are subtracted from the enclosing scope, so buckets
    /// hold self time. Exact on one thread (the engine's case); with
    /// concurrent scopes the subtraction is approximate, never negative.
    pub fn scope(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            prof: self,
            phase,
            start: Instant::now(),
            nested_at_start: self.nested.load(Ordering::Relaxed),
        }
    }

    /// Total self-time nanoseconds accumulated in `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.buckets[phase as usize].load(Ordering::Relaxed)
    }

    /// `(label, self-time ns)` for every phase, in bucket order.
    pub fn snapshot_ns(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL
            .iter()
            .map(|&p| (p.label(), self.phase_ns(p)))
            .collect()
    }

    /// Sum of all buckets (total instrumented wall time, ns).
    pub fn total_ns(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_ns(p)).sum()
    }

    /// Report each bucket as a `sim.profile.*_s` gauge into `recorder`.
    pub fn record_metrics(&self, recorder: &dyn Recorder) {
        if !recorder.is_enabled() {
            return;
        }
        for &phase in &Phase::ALL {
            let secs = self.phase_ns(phase) as f64 / 1e9;
            recorder.gauge_set(phase.metric(), &[], secs);
        }
    }
}

/// Guard returned by [`PhaseProfiler::scope`]; bills elapsed self time to
/// its phase on drop.
pub struct PhaseGuard<'a> {
    prof: &'a PhaseProfiler,
    phase: Phase,
    start: Instant,
    nested_at_start: u64,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        let nested_now = self.prof.nested.load(Ordering::Relaxed);
        let nested_inside = nested_now.saturating_sub(self.nested_at_start);
        let self_ns = elapsed.saturating_sub(nested_inside);
        self.prof.buckets[self.phase as usize].fetch_add(self_ns, Ordering::Relaxed);
        // This scope's full elapsed time becomes "nested" from the point of
        // view of whatever scope encloses it.
        self.prof.nested.store(
            self.nested_at_start.saturating_add(elapsed),
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MemoryRecorder;

    #[test]
    fn buckets_start_empty() {
        let prof = PhaseProfiler::new();
        assert_eq!(prof.total_ns(), 0);
        for &p in &Phase::ALL {
            assert_eq!(prof.phase_ns(p), 0);
        }
    }

    #[test]
    fn scope_accrues_time_to_its_phase() {
        let prof = PhaseProfiler::new();
        {
            let _g = prof.scope(Phase::Dispatch);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        assert!(prof.phase_ns(Phase::Dispatch) > 0);
        assert_eq!(prof.phase_ns(Phase::Recorder), 0);
    }

    /// Sum `0..steps` one opaque step at a time, so the work cannot be
    /// folded away.
    fn burn(steps: u64) -> u64 {
        (0..steps).map(std::hint::black_box).sum()
    }

    #[test]
    fn nested_scope_is_subtracted_from_outer() {
        let prof = PhaseProfiler::new();
        {
            let _outer = prof.scope(Phase::DeviceService);
            {
                let _inner = prof.scope(Phase::Recorder);
                // Burn noticeably more time inside than outside. Each step
                // goes through black_box: an optimised build would fold a
                // plain range sum to a constant and burn nothing.
                burn(200_000);
            }
        }
        let outer = prof.phase_ns(Phase::DeviceService);
        let inner = prof.phase_ns(Phase::Recorder);
        assert!(inner > 0);
        // Self-time accounting: outer must not absorb the inner burn.
        assert!(
            outer < inner,
            "outer self-time {outer}ns should be tiny next to nested {inner}ns"
        );
    }

    #[test]
    fn sequential_nested_scopes_all_subtract() {
        let prof = PhaseProfiler::new();
        {
            let _outer = prof.scope(Phase::QueueDrain);
            for _ in 0..3 {
                let _inner = prof.scope(Phase::Recorder);
                burn(50_000);
            }
        }
        let outer = prof.phase_ns(Phase::QueueDrain);
        let inner = prof.phase_ns(Phase::Recorder);
        assert!(outer < inner);
    }

    #[test]
    fn snapshot_labels_are_stable() {
        let prof = PhaseProfiler::new();
        let labels: Vec<_> = prof.snapshot_ns().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec!["dispatch", "device_service", "queue_drain", "recorder"]
        );
    }

    #[test]
    fn record_metrics_writes_profile_gauges() {
        let prof = PhaseProfiler::new();
        {
            let _g = prof.scope(Phase::Dispatch);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let rec = MemoryRecorder::new();
        prof.record_metrics(&rec);
        let g = rec.gauge_value(crate::registry::SIM_PROFILE_DISPATCH_S.name, &[]);
        assert!(g.is_some_and(|v| v >= 0.0));
    }
}
