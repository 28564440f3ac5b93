//! The event-driven hybrid-PFS simulator.
//!
//! Client programs run against a set of striped files on a cluster of
//! heterogeneous servers. Every file request goes through the stages a real
//! PFS request goes through:
//!
//! ```text
//! client ──MDS lookup──▶ split into per-server sub-requests
//!   write:  client NIC ▷ server NIC ▷ disk ▷ (ack)
//!   read :  (request msg) ▷ disk ▷ server NIC ▷ client NIC
//! ```
//!
//! Every box is a FIFO [`Timeline`] resource, so contention (many clients
//! hammering one SServer, aggregators sharing a node NIC) emerges naturally.
//! The request completes when its last sub-request completes; a synchronous
//! client then issues its next request — exactly IOR's behaviour.
//!
//! Engine work scales with resource hops, not sub-requests: each hop is
//! one event, and a sub-request's last hop retires it in place. Only the
//! last one schedules the request's single `ReqDone` event. Per request
//! that is `4 + 2·subs` events for a read and `3 + 3·subs` for a write,
//! and each client adds one final `StartStep`.
//!
//! The simulator deliberately models *more* than the paper's analytical
//! cost model (queueing, per-message latency): the model is an
//! approximation of this system just as it is an approximation of the
//! authors' real cluster.

use crate::cluster::ClusterConfig;
use crate::disk::{disk_acquire, DiskEnv, ServerDisk};
use crate::layout::FileLayout;
use crate::report::{ServerReport, SimReport};
use crate::request::{ClientProgram, FileId, Step};
use harl_devices::OpKind;
use harl_simcore::metrics::{SpanHop, SpanRecord};
use harl_simcore::{registry, Engine, OnlineStats, Phase, SimContext, SimNanos, Timeline};

/// Everything a payload event needs to move one sub-request through the
/// pipeline without touching the request table: the owning request, the
/// target server, the client's node NIC, the transfer size, and the
/// direction. Request state (`reqs`) is only consulted at fan-out and at
/// a sub-request's last hop, which retires it — the hops in between run
/// on this 24-byte capsule, which spares two dependent cache misses per
/// device hop at cluster scale.
#[derive(Debug, Clone, Copy)]
struct SubRef {
    req: u32,
    server: u32,
    node: u32,
    z: u64,
    op: OpKind,
}

/// Events of the PFS simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Client begins its next program step.
    StartStep { client: u32 },
    /// MDS lookup finished: a write splits into per-server sub-requests,
    /// a read sends its request messages (see [`Ev::DiskFanout`]).
    MdsDone { req: u32 },
    /// Read request messages reached every server: split the read and
    /// serve its disk arrivals in one pass, in sub order. All sub-requests
    /// of a read arrive at the same instant (`mds grant + latency`), so
    /// one batched event is observationally identical to the per-sub
    /// events it replaces.
    DiskFanout { req: u32 },
    /// Write payload for one sub-request reached the server's NIC queue.
    ArriveServerNic(SubRef),
    /// Sub-request reached the storage device queue (write path; reads
    /// arrive via [`Ev::DiskFanout`]).
    ArriveDisk(SubRef),
    /// Storage device finished serving the sub-request. A write's last
    /// hop: its acknowledgement retires the sub-request here.
    DiskDone(SubRef),
    /// Read payload arrived back at the client's NIC queue: a read's last
    /// hop, which retires the sub-request.
    ReturnAtClient(SubRef),
    /// Every sub-request of the request is complete at the client.
    ///
    /// Only the hop that retires a request's last sub-request schedules
    /// it, at the time that sub-request finishes. That is the request's
    /// latest finish because finish times never decrease in the order the
    /// last hops run: a read's come from one client NIC [`Timeline`]
    /// acquired in pop order, and a write's are a `DiskDone` pop time
    /// plus the network latency. So no sub-request needs a completion
    /// event of its own.
    ReqDone { req: u32 },
    /// Compute phase finished.
    ComputeDone { client: u32 },
    /// Flight-recorder sampling tick (only scheduled when
    /// `ctx.sample_interval` is set and the recorder is enabled).
    Sample,
}

/// Which profiler bucket an event's handler bills to. Sub-requests moving
/// through device queues are `DeviceService`; client control flow and
/// completion accounting are `QueueDrain`; sampling ticks are pure
/// recorder work.
fn phase_of(ev: &Ev) -> Phase {
    match ev {
        Ev::MdsDone { .. }
        | Ev::DiskFanout { .. }
        | Ev::ArriveServerNic(_)
        | Ev::ArriveDisk(_)
        | Ev::DiskDone(_)
        | Ev::ReturnAtClient(_) => Phase::DeviceService,
        Ev::StartStep { .. } | Ev::ComputeDone { .. } | Ev::ReqDone { .. } => Phase::QueueDrain,
        Ev::Sample => Phase::Recorder,
    }
}

/// Memoised payload-transfer time: `z * t_s_per_byte` as [`SimNanos`].
/// Striped workloads send the same `z` through three NIC hops per
/// sub-request, so a one-entry cache removes nearly every float round-trip.
#[inline]
fn nic_service(t_s_per_byte: f64, memo: &mut (u64, SimNanos), z: u64) -> SimNanos {
    if memo.0 != z {
        *memo = (z, SimNanos::from_secs_f64(z as f64 * t_s_per_byte));
    }
    memo.1
}

struct ReqState {
    client: usize,
    op: OpKind,
    size: u64,
    file: FileId,
    offset: u64,
    /// Sub-requests not yet retired by their last hop.
    pending: usize,
    issued: SimNanos,
    /// Lifecycle hops, collected only when a recorder is enabled.
    hops: Vec<SpanHop>,
}

impl ReqState {
    /// Retire one sub-request; true when it was the request's last.
    #[inline]
    fn retire_sub(&mut self) -> bool {
        debug_assert!(self.pending > 0, "sub-request retired twice");
        self.pending -= 1;
        self.pending == 0
    }
}

struct ClientState {
    next_step: usize,
    batch_pending: usize,
    finished_at: SimNanos,
}

/// Run `programs` against `files` on `cluster` and report the outcome.
///
/// `files[i]` is the layout of [`FileId`] `i`; every request must reference
/// a valid file id (panics otherwise — that is a harness bug, not a
/// simulated failure).
///
/// The [`SimContext`] carries the cross-cutting state:
///
/// * **Observability** — with an enabled recorder, the run emits per-server
///   queue-wait and service-time histograms (`pfs.server.queue_wait_ns` /
///   `pfs.server.service_ns`, labelled by server id and device kind),
///   request counters, engine-level metrics, and one [`SpanRecord`] per
///   completed request capturing its lifecycle (issue → queue → service →
///   complete, per hop). With the default no-op recorder every
///   instrumentation site short-circuits on one boolean, so a silent
///   context costs nothing measurable.
/// * **Seed** — `ctx.seed` (when set) overrides `cluster.seed` for the
///   per-server device RNG streams.
/// * **Faults** — `ctx.faults` windows apply *in addition to*
///   `cluster.degradations` (overlapping windows multiply).
/// * **Sampling** — with `ctx.sample_interval` set (and a recorder
///   enabled), a sampling tick fires every interval of simulated time and
///   records three time-series per server: `pfs.server.queue_depth`
///   (sub-requests in flight at the device), `pfs.server.util`
///   (device busy fraction over the last window, exact — derived from the
///   analytic [`Timeline`]), and `pfs.server.inflight_bytes`. Samples read
///   state but never change it, so makespans and reports are identical
///   with sampling on or off, and the sampled values are a pure function
///   of the scenario and seed — same seed + interval ⇒ byte-identical
///   series.
/// * **Profiling** — with `ctx.profiler()` attached, the run is driven by
///   [`Engine::run_profiled`] and each handler bills its wall time to a
///   [`Phase`] bucket (recorder work is carved out into its own bucket by
///   nested scopes).
pub fn simulate(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    files: &[FileLayout],
    programs: &[ClientProgram],
) -> SimReport {
    let recorder = ctx.recorder();
    let rec_on = recorder.is_enabled();
    // Span assembly (label formatting) and per-hop queueing detail are
    // the expensive parts of the instrumented path; recorders opt out of
    // them independently (see `TraceDetail`).
    let rec_spans = rec_on && recorder.wants_spans();
    let rec_hops = rec_on && recorder.wants_hops();
    let prof = ctx.profiler();
    let seed = ctx.seed_or(cluster.seed);
    let degradations: Vec<crate::faults::Degradation> = cluster
        .degradations
        .iter()
        .chain(ctx.faults.iter())
        .copied()
        .collect();
    let n_servers = cluster.server_count();
    let mut disks: Vec<ServerDisk> = (0..n_servers).map(|id| ServerDisk::new(id, seed)).collect();
    let mut server_nics: Vec<Timeline> = (0..n_servers).map(|_| Timeline::new()).collect();
    let mut client_nics: Vec<Timeline> = (0..cluster.compute_nodes)
        .map(|_| Timeline::new())
        .collect();
    let mut mds = Timeline::new();
    let env = DiskEnv {
        cluster,
        degradations: &degradations,
        rec_on,
    };

    let mut clients: Vec<ClientState> = programs
        .iter()
        .map(|_| ClientState {
            next_step: 0,
            batch_pending: 0,
            finished_at: SimNanos::ZERO,
        })
        .collect();

    // Barrier bookkeeping: barriers are matched by occurrence index, and
    // every client participates in every barrier. `barrier_waiting[g]` holds
    // the clients parked at barrier generation g.
    let total_clients = programs.len();
    let mut barrier_waiting: Vec<Vec<usize>> = Vec::new();
    let mut client_barrier_gen: Vec<usize> = vec![0; total_clients];

    let mut reqs: Vec<ReqState> = Vec::new();
    let mut read_latency = OnlineStats::new();
    let mut write_latency = OnlineStats::new();
    let mut bytes_read = 0u64;
    let mut bytes_written = 0u64;
    let mut completed = 0u64;
    let mut last_completion = SimNanos::ZERO;

    let net = cluster.network;
    let latency = SimNanos::from_secs_f64(net.latency_s);

    // Flight-recorder sampling state: in-flight work is tracked by the
    // event handlers (exactly, not estimated), and per-window utilisation
    // falls out of the Timeline analytically — at sample time `t` every
    // arrival so far is `<= t`, so any booked busy time beyond `t` is the
    // contiguous run ending at `next_free`, and busy-up-to-t is
    // `busy_time - (next_free - t)`.
    let sample_dt = ctx.sample_interval.filter(|_| rec_on);
    let sampling = sample_dt.is_some();
    // Request counters batched out of the hot loop: indexed by op
    // (read = 0, write = 1), flushed once after the run.
    let mut issued_by_op = [0u64; 2];
    let mut completed_by_op = [0u64; 2];
    let op_index = |op: OpKind| usize::from(op == OpKind::Write);
    let mut inflight_subs: Vec<u64> = vec![0; n_servers];
    let mut inflight_bytes: Vec<u64> = vec![0; n_servers];
    let mut prev_busy: Vec<SimNanos> = vec![SimNanos::ZERO; n_servers];
    let mut last_sample = SimNanos::ZERO;

    let mut engine: Engine<Ev> = Engine::new();
    for c in 0..programs.len() {
        engine.schedule(SimNanos::ZERO, Ev::StartStep { client: c as u32 });
    }
    if let Some(dt) = sample_dt {
        engine.schedule(dt, Ev::Sample);
    }

    let mut nic_memo: (u64, SimNanos) = (u64::MAX, SimNanos::ZERO);

    let handler = |sched: &mut harl_simcore::Scheduler<Ev>, now: SimNanos, ev: Ev| {
        let _phase = prof.map(|p| p.scope(phase_of(&ev)));
        match ev {
            Ev::StartStep { client } => {
                let ci = client as usize;
                let state = &mut clients[ci];
                match programs[ci].steps.get(state.next_step) {
                    None => {
                        state.finished_at = now;
                    }
                    Some(Step::Compute(d)) => {
                        state.next_step += 1;
                        sched.schedule(now + *d, Ev::ComputeDone { client });
                    }
                    Some(Step::Barrier) => {
                        state.next_step += 1;
                        let gen = client_barrier_gen[ci];
                        client_barrier_gen[ci] += 1;
                        if barrier_waiting.len() <= gen {
                            barrier_waiting.resize_with(gen + 1, Vec::new);
                        }
                        barrier_waiting[gen].push(ci);
                        if barrier_waiting[gen].len() == total_clients {
                            // Last arrival releases everyone.
                            for c in barrier_waiting[gen].drain(..) {
                                sched.schedule(now, Ev::StartStep { client: c as u32 });
                            }
                        }
                    }
                    Some(Step::Io(batch)) => {
                        state.next_step += 1;
                        state.batch_pending = batch.len();
                        for pr in batch {
                            assert!(
                                pr.file < files.len(),
                                "request targets unknown file {}",
                                pr.file
                            );
                            let req = reqs.len() as u32;
                            reqs.push(ReqState {
                                client: ci,
                                op: pr.op,
                                size: pr.size,
                                file: pr.file,
                                offset: pr.offset,
                                pending: 0,
                                issued: now,
                                hops: Vec::new(),
                            });
                            let grant = mds.acquire(now, cluster.mds_service);
                            if rec_on {
                                let _rec = prof.map(|p| p.scope(Phase::Recorder));
                                issued_by_op[op_index(pr.op)] += 1;
                                if rec_hops {
                                    reqs[req as usize].hops.push(SpanHop {
                                        stage: "mds",
                                        server: None,
                                        arrive: now.as_nanos(),
                                        start: grant.start.as_nanos(),
                                        end: grant.end.as_nanos(),
                                    });
                                }
                            }
                            sched.schedule(grant.end, Ev::MdsDone { req });
                        }
                    }
                }
            }
            Ev::ComputeDone { client } => {
                sched.schedule(now, Ev::StartStep { client });
            }
            Ev::MdsDone { req } => {
                let ri = req as usize;
                let (file, offset, size, op, client) = {
                    let r = &reqs[ri];
                    (r.file, r.offset, r.size, r.op, r.client)
                };
                if size == 0 {
                    // Zero-byte request: completes at the MDS.
                    sched.schedule(now, Ev::ReqDone { req });
                    return;
                }
                match op {
                    OpKind::Write => {
                        let subs = files[file].split(offset, size);
                        reqs[ri].pending = subs.len();
                        let node = cluster.node_of(client) as u32;
                        // Payload leaves through the client NIC, serialised
                        // with the client's other outbound sub-requests.
                        for &(server, z) in &subs {
                            let service = nic_service(net.t_s_per_byte, &mut nic_memo, z) + latency;
                            let grant = client_nics[node as usize].acquire(now, service);
                            if rec_hops {
                                reqs[ri].hops.push(SpanHop {
                                    stage: "client_nic",
                                    server: None,
                                    arrive: now.as_nanos(),
                                    start: grant.start.as_nanos(),
                                    end: grant.end.as_nanos(),
                                });
                            }
                            sched.schedule(
                                grant.end,
                                Ev::ArriveServerNic(SubRef {
                                    req,
                                    server: server as u32,
                                    node,
                                    z,
                                    op,
                                }),
                            );
                        }
                    }
                    OpKind::Read => {
                        // The read request messages are tiny (latency
                        // only) and reach every server at the same
                        // instant: one batched fanout event.
                        sched.schedule(now + latency, Ev::DiskFanout { req });
                    }
                }
            }
            Ev::DiskFanout { req } => {
                let ri = req as usize;
                let (file, offset, size, op, node) = {
                    let r = &reqs[ri];
                    let node = cluster.node_of(r.client) as u32;
                    (r.file, r.offset, r.size, r.op, node)
                };
                let subs = files[file].split(offset, size);
                reqs[ri].pending = subs.len();
                for &(server, z) in &subs {
                    let grant = disk_acquire(&mut disks[server], &env, server, now, z, op);
                    if sampling {
                        inflight_subs[server] += 1;
                        inflight_bytes[server] += z;
                    }
                    if rec_hops {
                        reqs[ri].hops.push(SpanHop {
                            stage: "disk",
                            server: Some(server),
                            arrive: now.as_nanos(),
                            start: grant.start.as_nanos(),
                            end: grant.end.as_nanos(),
                        });
                    }
                    sched.schedule(
                        grant.end,
                        Ev::DiskDone(SubRef {
                            req,
                            server: server as u32,
                            node,
                            z,
                            op,
                        }),
                    );
                }
            }
            Ev::ArriveServerNic(sr) => {
                let service = nic_service(net.t_s_per_byte, &mut nic_memo, sr.z);
                let grant = server_nics[sr.server as usize].acquire(now, service);
                if rec_hops {
                    reqs[sr.req as usize].hops.push(SpanHop {
                        stage: "server_nic",
                        server: Some(sr.server as usize),
                        arrive: now.as_nanos(),
                        start: grant.start.as_nanos(),
                        end: grant.end.as_nanos(),
                    });
                }
                sched.schedule(grant.end, Ev::ArriveDisk(sr));
            }
            Ev::ArriveDisk(sr) => {
                let server = sr.server as usize;
                let grant = disk_acquire(&mut disks[server], &env, server, now, sr.z, sr.op);
                if sampling {
                    inflight_subs[server] += 1;
                    inflight_bytes[server] += sr.z;
                }
                if rec_hops {
                    reqs[sr.req as usize].hops.push(SpanHop {
                        stage: "disk",
                        server: Some(server),
                        arrive: now.as_nanos(),
                        start: grant.start.as_nanos(),
                        end: grant.end.as_nanos(),
                    });
                }
                sched.schedule(grant.end, Ev::DiskDone(sr));
            }
            Ev::DiskDone(sr) => {
                let server = sr.server as usize;
                if sampling {
                    inflight_subs[server] -= 1;
                    inflight_bytes[server] -= sr.z;
                }
                match sr.op {
                    OpKind::Write => {
                        // Acknowledgement back to the client: latency only.
                        if reqs[sr.req as usize].retire_sub() {
                            sched.schedule(now + latency, Ev::ReqDone { req: sr.req });
                        }
                    }
                    OpKind::Read => {
                        let service = nic_service(net.t_s_per_byte, &mut nic_memo, sr.z);
                        let grant = server_nics[server].acquire(now, service);
                        if rec_hops {
                            reqs[sr.req as usize].hops.push(SpanHop {
                                stage: "server_nic",
                                server: Some(server),
                                arrive: now.as_nanos(),
                                start: grant.start.as_nanos(),
                                end: grant.end.as_nanos(),
                            });
                        }
                        sched.schedule(grant.end + latency, Ev::ReturnAtClient(sr));
                    }
                }
            }
            Ev::ReturnAtClient(sr) => {
                let service = nic_service(net.t_s_per_byte, &mut nic_memo, sr.z);
                let grant = client_nics[sr.node as usize].acquire(now, service);
                if rec_hops {
                    reqs[sr.req as usize].hops.push(SpanHop {
                        stage: "client_nic",
                        server: None,
                        arrive: now.as_nanos(),
                        start: grant.start.as_nanos(),
                        end: grant.end.as_nanos(),
                    });
                }
                if reqs[sr.req as usize].retire_sub() {
                    sched.schedule(grant.end, Ev::ReqDone { req: sr.req });
                }
            }
            Ev::ReqDone { req } => {
                let ri = req as usize;
                if rec_on {
                    let _rec = prof.map(|p| p.scope(Phase::Recorder));
                    completed_by_op[op_index(reqs[ri].op)] += 1;
                }
                if rec_spans {
                    let _rec = prof.map(|p| p.scope(Phase::Recorder));
                    let hops = std::mem::take(&mut reqs[ri].hops);
                    let r = &reqs[ri];
                    recorder.span(SpanRecord {
                        id: req as u64,
                        kind: "request",
                        labels: vec![
                            ("client", r.client.to_string()),
                            ("op", r.op.to_string()),
                            ("file", r.file.to_string()),
                            ("size", r.size.to_string()),
                            ("offset", r.offset.to_string()),
                        ],
                        issued: r.issued.as_nanos(),
                        completed: now.as_nanos(),
                        hops,
                    });
                }
                let r = &reqs[ri];
                let lat = (now - r.issued).as_secs_f64();
                match r.op {
                    OpKind::Read => {
                        read_latency.push(lat);
                        bytes_read += r.size;
                    }
                    OpKind::Write => {
                        write_latency.push(lat);
                        bytes_written += r.size;
                    }
                }
                completed += 1;
                last_completion = last_completion.max(now);
                let client = r.client;
                let c = &mut clients[client];
                c.batch_pending -= 1;
                if c.batch_pending == 0 {
                    sched.schedule(
                        now,
                        Ev::StartStep {
                            client: client as u32,
                        },
                    );
                }
            }
            Ev::Sample => {
                // Read-only: sampling must not perturb the simulation. The
                // tick re-arms itself only while real work remains queued, so
                // it never extends the run past the last completion.
                let window = now - last_sample;
                for (id, s) in disks.iter().enumerate() {
                    let labels = [
                        ("server", id.to_string()),
                        ("kind", cluster.profile_of(id).kind.to_string()),
                    ];
                    let next_free = s.disk.next_free();
                    let booked = s.disk.busy_time();
                    let busy_to_now = if next_free > now {
                        booked - (next_free - now)
                    } else {
                        booked
                    };
                    let window_busy = busy_to_now - prev_busy[id];
                    prev_busy[id] = busy_to_now;
                    let util = if window.is_zero() {
                        0.0
                    } else {
                        window_busy.as_nanos() as f64 / window.as_nanos() as f64
                    };
                    let t = now.as_nanos();
                    recorder.series_point(
                        registry::PFS_SERVER_QUEUE_DEPTH.name,
                        &labels,
                        t,
                        inflight_subs[id] as f64,
                    );
                    recorder.series_point(registry::PFS_SERVER_UTIL.name, &labels, t, util);
                    recorder.series_point(
                        registry::PFS_SERVER_INFLIGHT_BYTES.name,
                        &labels,
                        t,
                        inflight_bytes[id] as f64,
                    );
                }
                last_sample = now;
                if sched.pending() > 0 {
                    if let Some(dt) = sample_dt {
                        sched.schedule(now + dt, Ev::Sample);
                    }
                }
            }
        }
    };
    match prof {
        Some(p) => engine.run_profiled(p, handler),
        None => engine.run(handler),
    }

    if rec_on {
        engine.record_metrics(recorder);
        for (op, i) in [(OpKind::Read, 0usize), (OpKind::Write, 1)] {
            if issued_by_op[i] > 0 {
                recorder.counter_add(
                    registry::PFS_REQUESTS_ISSUED.name,
                    &[("op", op.to_string())],
                    issued_by_op[i],
                );
            }
            if completed_by_op[i] > 0 {
                recorder.counter_add(
                    registry::PFS_REQUESTS_COMPLETED.name,
                    &[("op", op.to_string())],
                    completed_by_op[i],
                );
            }
        }
        for (id, s) in disks.iter().enumerate() {
            let labels = [
                ("server", id.to_string()),
                ("kind", cluster.profile_of(id).kind.to_string()),
            ];
            recorder.counter_add(registry::PFS_SERVER_BYTES.name, &labels, s.bytes);
            recorder.counter_add(
                registry::PFS_SERVER_SUB_REQUESTS.name,
                &labels,
                s.disk.jobs_served(),
            );
            recorder.merge_histogram(
                registry::PFS_SERVER_QUEUE_WAIT_NS.name,
                &labels,
                &s.queue_wait,
            );
            recorder.merge_histogram(registry::PFS_SERVER_SERVICE_NS.name, &labels, &s.service);
        }
        if let Some(p) = prof {
            p.record_metrics(recorder);
        }
    }

    let stuck: Vec<usize> = barrier_waiting.iter().flatten().copied().collect();
    assert!(
        stuck.is_empty(),
        "collective deadlock: clients {stuck:?} never released from a barrier \
         (programs disagree on barrier counts)"
    );

    let server_reports = disks
        .into_iter()
        .enumerate()
        .map(|(id, s)| ServerReport {
            id,
            kind: cluster.profile_of(id).kind,
            disk_busy: s.disk.busy_time(),
            nic_busy: server_nics[id].busy_time(),
            disk_jobs: s.disk.jobs_served(),
            disk_queued: s.disk.total_queued(),
            bytes: s.bytes,
            busy_series: s.busy_series,
        })
        .collect();

    SimReport {
        makespan: last_completion.max(
            clients
                .iter()
                .map(|c| c.finished_at)
                .max()
                .unwrap_or(SimNanos::ZERO),
        ),
        bytes_read,
        bytes_written,
        read_latency,
        write_latency,
        servers: server_reports,
        requests_completed: completed,
        client_finish: clients.iter().map(|c| c.finished_at).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PhysRequest;
    use harl_devices::NetworkProfile;
    use harl_simcore::Histogram;

    fn one_file_cluster(stripe: u64) -> (ClusterConfig, Vec<FileLayout>) {
        let cluster = ClusterConfig::paper_default();
        let file = FileLayout::fixed(&cluster, stripe);
        (cluster, vec![file])
    }

    /// [`simulate`] under a silent default context.
    fn run(cluster: &ClusterConfig, files: &[FileLayout], programs: &[ClientProgram]) -> SimReport {
        simulate(&SimContext::new(), cluster, files, programs)
    }

    fn sync_program(reqs: Vec<PhysRequest>) -> ClientProgram {
        let mut p = ClientProgram::new();
        for r in reqs {
            p.push_request(r);
        }
        p
    }

    #[test]
    fn single_request_completes() {
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs = vec![sync_program(vec![PhysRequest::read(0, 0, 512 * 1024)])];
        let report = run(&cluster, &files, &programs);
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.bytes_read, 512 * 1024);
        assert_eq!(report.bytes_written, 0);
        assert!(!report.makespan.is_zero());
        // Every server got one 64 KiB sub-request.
        for s in &report.servers {
            assert_eq!(s.disk_jobs, 1);
            assert_eq!(s.bytes, 64 * 1024);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (cluster, files) = one_file_cluster(64 * 1024);
        let mk = || {
            (0..4)
                .map(|c| {
                    sync_program(
                        (0..8)
                            .map(|i| PhysRequest::write(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                            .collect(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = run(&cluster, &files, &mk());
        let b = run(&cluster, &files, &mk());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.bytes_written, b.bytes_written);
        for (x, y) in a.servers.iter().zip(&b.servers) {
            assert_eq!(x.disk_busy, y.disk_busy);
        }
    }

    #[test]
    fn hservers_busier_than_sservers_under_fixed_stripe() {
        // The Fig. 1(a) phenomenon: equal stripes load HDDs ~3.5x longer.
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..16u64)
                        .map(|i| PhysRequest::read(0, (c * 16 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let report = run(&cluster, &files, &programs);
        let norm = report.normalized_server_times();
        // Servers 0-5 are HDDs, 6-7 SSDs.
        let h_avg: f64 = norm[..6].iter().sum::<f64>() / 6.0;
        let s_avg: f64 = norm[6..].iter().sum::<f64>() / 2.0;
        assert!(
            h_avg / s_avg > 2.5,
            "expected HServers >=2.5x busier, got {h_avg:.2} vs {s_avg:.2}"
        );
    }

    #[test]
    fn balanced_varied_stripe_reduces_imbalance() {
        // The paper's configuration: 16 processes — storage-bound, so the
        // layout matters (with very few clients the node NICs dominate).
        let cluster = ClusterConfig::paper_default();
        let fixed = vec![FileLayout::fixed(&cluster, 64 * 1024)];
        let varied = vec![FileLayout::for_classes(&cluster, &[32 * 1024, 160 * 1024])];
        let programs: Vec<_> = (0..16)
            .map(|c| {
                sync_program(
                    (0..16u64)
                        .map(|i| PhysRequest::read(0, (c * 16 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let rf = run(&cluster, &fixed, &programs);
        let rv = run(&cluster, &varied, &programs);
        assert!(
            rv.imbalance() < rf.imbalance(),
            "varied stripes should balance load: {} vs {}",
            rv.imbalance(),
            rf.imbalance()
        );
        assert!(
            rv.makespan < rf.makespan,
            "balanced layout should finish sooner: varied {v} vs fixed {f}",
            v = rv.makespan,
            f = rf.makespan
        );
    }

    #[test]
    fn write_slower_than_read_on_ssd_only_layout() {
        let cluster = ClusterConfig::paper_default();
        let files = vec![FileLayout::for_classes(&cluster, &[0, 64 * 1024])];
        let reads = vec![sync_program(
            (0..16u64)
                .map(|i| PhysRequest::read(0, i * 128 * 1024, 128 * 1024))
                .collect(),
        )];
        let writes = vec![sync_program(
            (0..16u64)
                .map(|i| PhysRequest::write(0, i * 128 * 1024, 128 * 1024))
                .collect(),
        )];
        let rr = run(&cluster, &files, &reads);
        let rw = run(&cluster, &files, &writes);
        assert!(rw.makespan > rr.makespan, "SSD writes must be slower");
    }

    #[test]
    fn zero_byte_request_is_fine() {
        let (cluster, files) = one_file_cluster(4096);
        let programs = vec![sync_program(vec![PhysRequest::read(0, 0, 0)])];
        let report = run(&cluster, &files, &programs);
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.bytes_read, 0);
    }

    #[test]
    fn compute_phases_delay_io() {
        let (cluster, files) = one_file_cluster(4096);
        let mut p = ClientProgram::new();
        p.push_compute(SimNanos::from_secs(1));
        p.push_request(PhysRequest::write(0, 0, 4096));
        let report = run(&cluster, &files, &[p]);
        assert!(report.makespan > SimNanos::from_secs(1));
        assert!(
            (report.write_latency.mean()) < 0.1,
            "latency excludes compute"
        );
    }

    #[test]
    fn batch_runs_concurrently() {
        // 8 requests as one batch should finish far faster than 8 issued
        // synchronously back to back (they overlap at distinct servers).
        let cluster =
            ClusterConfig::paper_default().with_network(NetworkProfile::infinitely_fast());
        let files = vec![FileLayout::fixed(&cluster, 64 * 1024)];
        // One 64 KiB stripe per server: request i lands on server i.
        let reqs: Vec<_> = (0..8u64)
            .map(|i| PhysRequest::read(0, i * 64 * 1024, 64 * 1024))
            .collect();
        let mut batch_prog = ClientProgram::new();
        batch_prog.push_batch(reqs.clone());
        let sync_prog = sync_program(reqs);
        let rb = run(&cluster, &files, &[batch_prog]);
        let rs = run(&cluster, &files, &[sync_prog]);
        assert!(
            rb.makespan.as_nanos() * 3 < rs.makespan.as_nanos() * 2,
            "batch {b} vs sync {s}",
            b = rb.makespan,
            s = rs.makespan
        );
    }

    #[test]
    fn empty_program_finishes_at_zero() {
        let (cluster, files) = one_file_cluster(4096);
        let report = run(&cluster, &files, &[ClientProgram::new()]);
        assert_eq!(report.requests_completed, 0);
        assert_eq!(report.makespan, SimNanos::ZERO);
    }

    #[test]
    fn barrier_synchronises_clients() {
        let (cluster, files) = one_file_cluster(4096);
        // Client 0 computes 10 ms then hits a barrier; client 1 barriers
        // immediately and then does I/O. Its I/O cannot start before 10 ms.
        let mut p0 = ClientProgram::new();
        p0.push_compute(SimNanos::from_millis(10));
        p0.push_barrier();
        let mut p1 = ClientProgram::new();
        p1.push_barrier();
        p1.push_request(PhysRequest::read(0, 0, 4096));
        let report = run(&cluster, &files, &[p0, p1]);
        assert!(report.makespan > SimNanos::from_millis(10));
        assert_eq!(report.requests_completed, 1);
    }

    #[test]
    fn repeated_barriers_match_by_index() {
        let (cluster, files) = one_file_cluster(4096);
        let mk = |work: u64| {
            let mut p = ClientProgram::new();
            for _ in 0..5 {
                p.push_compute(SimNanos::from_millis(work));
                p.push_barrier();
            }
            p
        };
        // Slowest client paces every round: 5 x 7 ms.
        let report = run(&cluster, &files, &[mk(1), mk(7), mk(3)]);
        assert_eq!(report.client_finish.len(), 3);
        let end = report.client_finish.iter().max().unwrap();
        assert_eq!(*end, SimNanos::from_millis(35));
    }

    #[test]
    #[should_panic(expected = "collective deadlock")]
    fn mismatched_barriers_deadlock() {
        let (cluster, files) = one_file_cluster(4096);
        let mut p0 = ClientProgram::new();
        p0.push_barrier();
        let p1 = ClientProgram::new();
        run(&cluster, &files, &[p0, p1]);
    }

    #[test]
    #[should_panic(expected = "unknown file")]
    fn unknown_file_panics() {
        let (cluster, files) = one_file_cluster(4096);
        let programs = vec![sync_program(vec![PhysRequest::read(9, 0, 10)])];
        run(&cluster, &files, &programs);
    }

    #[test]
    fn busy_series_totals_match_disk_busy() {
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::read(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let report = run(&cluster, &files, &programs);
        for s in &report.servers {
            assert_eq!(
                s.busy_series.total(),
                s.disk_busy,
                "series must account for every busy nanosecond on server {}",
                s.id
            );
        }
    }

    #[test]
    fn recorded_run_captures_spans_and_histograms() {
        use harl_simcore::MemoryRecorder;
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs = vec![sync_program(vec![
            PhysRequest::read(0, 0, 512 * 1024),
            PhysRequest::write(0, 512 * 1024, 512 * 1024),
        ])];
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        let report = simulate(
            &SimContext::recorded(rec.clone()),
            &cluster,
            &files,
            &programs,
        );
        assert_eq!(report.requests_completed, 2);
        // One span per request, each with an MDS hop plus per-sub disk hops.
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert!(span.hops.iter().any(|h| h.stage == "mds"));
            assert_eq!(
                span.hops.iter().filter(|h| h.stage == "disk").count(),
                8,
                "one disk hop per sub-request"
            );
            assert!(span.completed >= span.issued);
            for h in &span.hops {
                assert!(h.arrive <= h.start && h.start <= h.end);
            }
        }
        // Per-server service histograms saw one sub-request per op each.
        for s in &report.servers {
            let labels = [("server", s.id.to_string()), ("kind", s.kind.to_string())];
            let h = rec
                .histogram_snapshot("pfs.server.service_ns", &labels)
                .expect("service histogram per server");
            assert_eq!(h.count(), 2);
        }
        assert_eq!(
            rec.counter_value("pfs.requests.completed", &[("op", "read".to_string())]),
            1
        );
        assert_eq!(
            rec.counter_value("pfs.requests.issued", &[("op", "write".to_string())]),
            1
        );
        // Engine-level metrics arrived too.
        assert!(rec.counter_value("sim.events.dispatched", &[]) > 0);
        assert!(rec.gauge_value("sim.queue_depth.hwm", &[]).unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn recorded_run_matches_plain_run() {
        use harl_simcore::MemoryRecorder;
        // Instrumentation must not perturb simulated time.
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::write(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let plain = run(&cluster, &files, &programs);
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        let recorded = simulate(
            &SimContext::recorded(rec.clone()),
            &cluster,
            &files,
            &programs,
        );
        assert_eq!(plain.makespan, recorded.makespan);
        assert_eq!(plain.bytes_written, recorded.bytes_written);
        assert_eq!(rec.spans().len(), 32);
    }

    #[test]
    fn metrics_only_run_keeps_metrics_sheds_tracing() {
        use harl_simcore::metrics::{MemoryRecorder, TraceDetail};
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs = vec![sync_program(vec![
            PhysRequest::read(0, 0, 512 * 1024),
            PhysRequest::write(0, 512 * 1024, 512 * 1024),
        ])];
        let full = std::sync::Arc::new(MemoryRecorder::new());
        let full_report = simulate(
            &SimContext::recorded(full.clone()),
            &cluster,
            &files,
            &programs,
        );
        let lean = std::sync::Arc::new(MemoryRecorder::metrics_only());
        let lean_report = simulate(
            &SimContext::recorded(lean.clone()),
            &cluster,
            &files,
            &programs,
        );
        // Shedding tracing must not perturb simulated time...
        assert_eq!(full_report.makespan, lean_report.makespan);
        // ...or any metric family: counters, histograms, engine gauges.
        assert!(lean.spans().is_empty());
        assert_eq!(
            lean.counter_value("pfs.requests.completed", &[("op", "read".to_string())]),
            full.counter_value("pfs.requests.completed", &[("op", "read".to_string())]),
        );
        for s in &full_report.servers {
            let labels = [("server", s.id.to_string()), ("kind", s.kind.to_string())];
            let fh = full.histogram_snapshot("pfs.server.service_ns", &labels);
            let lh = lean.histogram_snapshot("pfs.server.service_ns", &labels);
            assert_eq!(
                fh.as_ref().map(Histogram::count),
                lh.as_ref().map(Histogram::count)
            );
        }
        assert_eq!(
            lean.counter_value("sim.events.dispatched", &[]),
            full.counter_value("sim.events.dispatched", &[]),
        );

        // The middle tier keeps one span per request but no hop detail.
        let spans_only = std::sync::Arc::new(MemoryRecorder::with_detail(TraceDetail::Spans));
        simulate(
            &SimContext::recorded(spans_only.clone()),
            &cluster,
            &files,
            &programs,
        );
        let spans = spans_only.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.hops.is_empty()));
    }

    #[test]
    fn sampled_run_matches_unsampled_run() {
        use harl_simcore::MemoryRecorder;
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::write(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let plain = run(&cluster, &files, &programs);
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        let ctx = SimContext::recorded(rec.clone()).with_sample_interval(SimNanos::from_millis(5));
        let sampled = simulate(&ctx, &cluster, &files, &programs);
        // Sampling is read-only: makespan and per-server loads unchanged.
        assert_eq!(plain.makespan, sampled.makespan);
        for (a, b) in plain.servers.iter().zip(&sampled.servers) {
            assert_eq!(a.disk_busy, b.disk_busy);
        }
        // And every server produced the three time-series.
        let labels = [
            ("server", "0".to_string()),
            ("kind", cluster.profile_of(0).kind.to_string()),
        ];
        let depth = rec
            .series_points("pfs.server.queue_depth", &labels)
            .expect("queue depth series");
        assert!(!depth.is_empty());
        let util = rec
            .series_points("pfs.server.util", &labels)
            .expect("util series");
        assert_eq!(depth.len(), util.len());
        // Sample timestamps advance by exactly the interval.
        for w in util.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 5_000_000);
        }
        // Utilisation is a fraction of the window.
        for &(_, u) in &util {
            assert!((0.0..=1.0).contains(&u), "util {u} out of range");
        }
        assert!(rec
            .series_points("pfs.server.inflight_bytes", &labels)
            .is_some());
    }

    #[test]
    fn sampling_is_deterministic_across_thread_counts() {
        use harl_simcore::MemoryRecorder;
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::read(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let sample = |threads: usize| {
            let rec = std::sync::Arc::new(MemoryRecorder::new());
            let ctx = SimContext::recorded(rec.clone())
                .with_seed(42)
                .with_threads(threads)
                .with_sample_interval(SimNanos::from_millis(2));
            simulate(&ctx, &cluster, &files, &programs);
            let labels = [
                ("server", "3".to_string()),
                ("kind", cluster.profile_of(3).kind.to_string()),
            ];
            (
                rec.series_points("pfs.server.queue_depth", &labels),
                rec.series_points("pfs.server.util", &labels),
                rec.series_points("pfs.server.inflight_bytes", &labels),
            )
        };
        // Same seed + interval => bit-identical series, thread count moot.
        assert_eq!(sample(1), sample(8));
    }

    #[test]
    fn profiled_run_attributes_time_and_matches_plain() {
        use harl_simcore::{MemoryRecorder, PhaseProfiler};
        use std::sync::Arc;
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs: Vec<_> = (0..4)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::write(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let plain = run(&cluster, &files, &programs);
        let rec = Arc::new(MemoryRecorder::new());
        let prof = Arc::new(PhaseProfiler::new());
        let ctx = SimContext::recorded(rec.clone()).with_profiler(prof.clone());
        let profiled = simulate(&ctx, &cluster, &files, &programs);
        assert_eq!(plain.makespan, profiled.makespan);
        // Wall time landed in the dispatch and handler buckets, and the
        // profile gauges were exported at the end of the run.
        assert!(prof.phase_ns(Phase::Dispatch) > 0);
        assert!(prof.phase_ns(Phase::DeviceService) > 0);
        assert!(prof.phase_ns(Phase::QueueDrain) > 0);
        assert!(prof.phase_ns(Phase::Recorder) > 0);
        assert!(rec.gauge_value("sim.profile.dispatch_s", &[]).is_some());
    }

    #[test]
    fn straggler_slows_the_run() {
        use crate::faults::Degradation;
        let base = ClusterConfig::paper_default();
        let degraded =
            ClusterConfig::paper_default().with_degradation(Degradation::permanent(0, 8.0));
        let files_a = vec![FileLayout::fixed(&base, 64 * 1024)];
        let files_b = vec![FileLayout::fixed(&degraded, 64 * 1024)];
        let programs: Vec<_> = (0..8)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::read(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let healthy = run(&base, &files_a, &programs);
        let hurt = run(&degraded, &files_b, &programs);
        assert!(
            hurt.makespan.as_nanos() > healthy.makespan.as_nanos() * 3,
            "8x straggler on the critical HServer should dominate: {} vs {}",
            hurt.makespan,
            healthy.makespan
        );
        // The straggler's own busy time grows; others' stay equal.
        assert!(hurt.servers[0].disk_busy > healthy.servers[0].disk_busy * 7);
        assert_eq!(hurt.servers[3].disk_busy, healthy.servers[3].disk_busy);
    }

    #[test]
    fn context_faults_match_cluster_degradations() {
        use crate::faults::Degradation;
        // Injecting the straggler through the SimContext fault plan must
        // behave exactly like baking it into the cluster config.
        let base = ClusterConfig::paper_default();
        let baked = ClusterConfig::paper_default().with_degradation(Degradation::permanent(0, 8.0));
        let files = vec![FileLayout::fixed(&base, 64 * 1024)];
        let programs: Vec<_> = (0..8)
            .map(|c| {
                sync_program(
                    (0..8u64)
                        .map(|i| PhysRequest::read(0, (c * 8 + i) * 512 * 1024, 512 * 1024))
                        .collect(),
                )
            })
            .collect();
        let via_cluster = run(&baked, &files, &programs);
        let ctx = SimContext::new().with_fault(Degradation::permanent(0, 8.0));
        let via_ctx = simulate(&ctx, &base, &files, &programs);
        assert_eq!(via_cluster.makespan, via_ctx.makespan);
        assert_eq!(
            via_cluster.servers[0].disk_busy,
            via_ctx.servers[0].disk_busy
        );
        // And both overlapping (cluster + ctx) multiply.
        let both = simulate(&ctx, &baked, &files, &programs);
        assert!(both.makespan > via_ctx.makespan);
    }

    #[test]
    fn context_seed_overrides_cluster_seed() {
        let (cluster, files) = one_file_cluster(64 * 1024);
        let programs = vec![sync_program(
            (0..8u64)
                .map(|i| PhysRequest::read(0, i * 512 * 1024, 512 * 1024))
                .collect(),
        )];
        let reseeded = ClusterConfig::paper_default().with_seed(7);
        let a = simulate(&SimContext::new().with_seed(7), &cluster, &files, &programs);
        let b = run(&reseeded, &files, &programs);
        assert_eq!(
            a.makespan, b.makespan,
            "ctx seed must act like cluster seed"
        );
    }

    #[test]
    fn transient_window_only_affects_its_span() {
        use crate::faults::Degradation;
        // Degradation window entirely after the workload completes: no
        // effect at all.
        let base = ClusterConfig::paper_default();
        let late = ClusterConfig::paper_default().with_degradation(Degradation {
            server: 0,
            from: SimNanos::from_secs(3600),
            until: SimNanos::MAX,
            slowdown: 100.0,
        });
        let files = vec![FileLayout::fixed(&base, 64 * 1024)];
        let programs = vec![sync_program(vec![PhysRequest::read(0, 0, 512 * 1024)])];
        let a = run(&base, &files, &programs);
        let b = run(&late, &files, &programs);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn mds_serialises_lookups() {
        // 100 zero-latency clients hitting the MDS at t=0 must serialise:
        // makespan >= 100 * mds_service even with free network/storage.
        let mut cluster =
            ClusterConfig::paper_default().with_network(NetworkProfile::infinitely_fast());
        cluster.mds_service = SimNanos::from_micros(100);
        let files = vec![FileLayout::fixed(&cluster, 4096)];
        let programs: Vec<_> = (0..100)
            .map(|i| sync_program(vec![PhysRequest::read(0, i * 4096, 1)]))
            .collect();
        let report = run(&cluster, &files, &programs);
        assert!(report.makespan >= SimNanos::from_micros(100) * 100);
    }
}
