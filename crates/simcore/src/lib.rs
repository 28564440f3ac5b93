//! # harl-simcore — discrete-event simulation engine
//!
//! The foundation of the HARL reproduction: a small, deterministic
//! discrete-event simulation (DES) kernel used by the hybrid parallel file
//! system simulator in `harl-pfs`.
//!
//! Everything in the simulation is expressed in terms of three ideas:
//!
//! * **[`SimNanos`]** — simulated time with nanosecond resolution, stored as
//!   a `u64` so event ordering is exact (no floating-point ties).
//! * **[`Engine`]** — a generic event queue: events of a user-chosen type are
//!   scheduled at absolute times and delivered in `(time, insertion order)`
//!   order to a handler closure.
//! * **[`Timeline`]** — a FIFO resource (a disk, a NIC, a metadata server)
//!   that serialises work: a job arriving at time `t` with service demand
//!   `d` starts at `max(t, next_free)` and occupies the resource for `d`.
//!
//! Determinism is a hard requirement (experiments must be reproducible), so
//! randomness goes through [`rng::SimRng`], a seeded generator with cheap
//! stream splitting: every server, client and workload derives an
//! independent stream from one master seed.

// missing_docs / rust_2018_idioms come from [workspace.lints], which also
// warn on todo!/unimplemented!. Library code must not panic: the cfg_attr
// tier denies the other four panic lints; unit tests compile under
// cfg(test) and stay exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub(crate) mod calendar;
pub mod context;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod profiler;
pub mod registry;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod units;

pub use context::SimContext;
pub use engine::{Engine, EventId, Scheduler};
pub use faults::{slowdown_at, Degradation};
pub use metrics::{MemoryRecorder, NoopRecorder, Recorder, SpanHop, SpanRecord};
pub use profiler::{Phase, PhaseProfiler};
pub use registry::{MetricDef, MetricKind, Unit};
pub use rng::SimRng;
pub use stats::{coefficient_of_variation, Histogram, OnlineStats};
pub use time::SimNanos;
pub use timeline::Timeline;
pub use units::{throughput_mib_s, ByteSize, GIB, KIB, MIB};
