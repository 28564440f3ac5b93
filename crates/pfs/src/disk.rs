//! Per-server disk state and the one operation that books it.
//!
//! A disk grant depends only on its own server's earlier sub-requests:
//! [`disk_acquire`] draws from the server's own RNG stream and books the
//! server's own [`Timeline`], reading nothing else that changes during a
//! run. That is why the simulator can serve a read's sub-requests one
//! after another in sub order and get the same grants however the
//! servers' work interleaves.

use crate::cluster::ClusterConfig;
use crate::faults::{slowdown_at, Degradation};
use crate::report::BusyBuckets;
use harl_devices::OpKind;
use harl_simcore::timeline::Grant;
use harl_simcore::{Histogram, SimNanos, SimRng, Timeline};

/// Width of the per-server utilisation buckets in reports.
const BUSY_BUCKET_WIDTH: SimNanos = SimNanos(100_000_000); // 100 ms
/// Most buckets a series grows to (the last bucket absorbs longer runs).
/// A series holds only the buckets its server's grants reach, so a run
/// pays for its own length, not for this cap.
const BUSY_BUCKETS: usize = 1024;

/// Disk-side state of one server. The server's NIC timeline lives in the
/// simulator beside the client NICs.
pub(crate) struct ServerDisk {
    pub disk: Timeline,
    rng: SimRng,
    pub bytes: u64,
    pub busy_series: BusyBuckets,
    /// Local queue-wait/service histograms, merged into the recorder once
    /// at the end of the run. Recording into a local [`Histogram`] is
    /// alloc- and lock-free, which keeps the recorded hot path within a
    /// few percent of the silent one.
    pub queue_wait: Histogram,
    pub service: Histogram,
}

impl ServerDisk {
    pub(crate) fn new(id: usize, seed: u64) -> Self {
        ServerDisk {
            disk: Timeline::new(),
            rng: SimRng::derived(seed, &format!("server-{id}")),
            bytes: 0,
            busy_series: BusyBuckets::new(BUSY_BUCKET_WIDTH, BUSY_BUCKETS),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
        }
    }
}

/// Read-only context for pricing a sub-request on any server.
pub(crate) struct DiskEnv<'a> {
    pub cluster: &'a ClusterConfig,
    pub degradations: &'a [Degradation],
    pub rec_on: bool,
}

/// Serve one sub-request at one server's disk: service-time draw, fault
/// slowdown, FIFO booking, and per-server accounting. It touches only `d`
/// and the read-only `env`.
#[inline]
pub(crate) fn disk_acquire(
    d: &mut ServerDisk,
    env: &DiskEnv<'_>,
    server: usize,
    now: SimNanos,
    z: u64,
    op: OpKind,
) -> Grant {
    let mut service = env
        .cluster
        .profile_of(server)
        .service_time(op, z, &mut d.rng);
    // Injected stragglers/degradation windows (crate::faults), from the
    // cluster schedule and the context's fault plan.
    let slow = slowdown_at(env.degradations, server, now);
    if slow != 1.0 {
        service = SimNanos::from_secs_f64(service.as_secs_f64() * slow);
    }
    let grant = d.disk.acquire(now, service);
    d.bytes += z;
    d.busy_series.record(grant.start, grant.end);
    if env.rec_on {
        d.queue_wait.record(grant.queued.as_nanos());
        d.service.record((grant.end - grant.start).as_nanos());
    }
    grant
}
