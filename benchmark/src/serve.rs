//! The planning-service workload: one client submitting plans for a fleet
//! of tenants in a closed loop, ticking the service every
//! `arrivals_per_tick` submissions and feeding drifted tenants' served
//! requests back through `observe_served`, as `ServeSpec::run` does.

use crate::checks::{self, Checks};
use crate::metrics::{self, Values};
use crate::pipeline::{calibrated_model, plain_context};
use crate::stats::{percentile, sorted, Samples};
use crate::tally::{Lap, SpanLog};
use crate::workloads::{Arrival, ServeInputs};
use harl_repro::middleware::{PlanTicket, ServeStats};
use harl_repro::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Service tuning: the default capacities, every optimizer on one thread.
fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.optimizer.threads = 1;
    cfg.online.optimizer.threads = 1;
    cfg
}

/// Handle the `seq`-th arrival of a pass: close the previous tick when one
/// is due, submit, and on drift stream the tenant's off-plan requests back.
/// Returns the ticket and the submission's own latency in seconds.
fn arrive(
    svc: &mut PlanningService,
    ctx: &SimContext,
    inputs: &ServeInputs,
    seq: usize,
    a: Arrival,
    lap: &mut Lap<'_>,
) -> (PlanTicket, f64) {
    if seq > 0 && seq.is_multiple_of(inputs.arrivals_per_tick) {
        svc.tick(ctx);
        lap.mark("tick");
    }
    let tenant = &inputs.tenants[&(a.tenant, a.drifted)];
    let ticket = svc.submit(ctx, a.tenant, &tenant.trace, tenant.file_size);
    let latency = lap.mark("submit");
    if a.drifted {
        for i in 0..inputs.drift_burst {
            let rec = TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: (i % 16) * 4096,
                size: 4096,
                timestamp: SimNanos::from_nanos(i),
            };
            svc.observe_served(a.tenant, rec, 0.5);
        }
        lap.mark("observe");
    }
    (ticket, latency)
}

fn outcome_index(o: PlanOutcome) -> usize {
    match o {
        PlanOutcome::CacheHit => 0,
        PlanOutcome::StaleRefresh => 1,
        PlanOutcome::Miss => 2,
    }
}

fn hash_ticket(h: &mut DefaultHasher, t: &PlanTicket) {
    outcome_index(t.outcome).hash(h);
    for e in t.rst.entries() {
        (e.offset, e.len, e.widths()).hash(h);
    }
}

/// Counter deltas of the timed part of a pass.
fn stats_values(v: &mut Values, before: &ServeStats, after: &ServeStats) {
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let lookups = d(
        before.region_pool.0 + before.region_pool.1,
        after.region_pool.0 + after.region_pool.1,
    );
    for (k, x) in [
        (
            "serve.regions_reused",
            d(before.regions_reused, after.regions_reused),
        ),
        (
            "serve.regions_planned",
            d(before.regions_planned, after.regions_planned),
        ),
        ("serve.region_pool_lookups", lookups),
        (
            "serve.region_pool_hit_rate",
            metrics::ratio(d(before.region_pool.0, after.region_pool.0), lookups),
        ),
        (
            "serve.cache_evictions",
            d(before.cache.evictions, after.cache.evictions),
        ),
        (
            "serve.batch_enqueued",
            d(before.batch_enqueued, after.batch_enqueued),
        ),
        (
            "serve.batch_applied",
            d(before.batch_applied, after.batch_applied),
        ),
        (
            "serve.batch_coalesced",
            d(before.batch_coalesced, after.batch_coalesced),
        ),
        (
            "serve.adaptations",
            d(before.adaptations, after.adaptations),
        ),
    ] {
        v.insert(k, x);
    }
}

/// Run `passes` passes, each with a fresh service warmed up by the
/// warm-up arrivals, then the timed arrivals. With `trace`, passes
/// alternate between plain and traced.
pub fn run(inputs: &ServeInputs, passes: usize, trace: bool) -> (Values, Checks, Option<SpanLog>) {
    let n = inputs.timed.len();
    let warm = inputs.warmup.len();
    let mut checks = Checks::default();
    let mut samples = Samples::new(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut served = BTreeMap::new();
    let mut first_digest = None;
    let mut traced_values: Vec<Values> = Vec::new();
    let mut first_log = None;
    let ctx = plain_context();
    for pass in 0..passes {
        let t = Instant::now();
        let mut svc = PlanningService::new(calibrated_model(&inputs.cluster), serve_config());
        let mut counts = [0u64; 3];
        for (seq, &a) in inputs.warmup.iter().enumerate() {
            let (ticket, _) = arrive(&mut svc, &ctx, inputs, seq, a, &mut Lap::start(None, 0));
            counts[outcome_index(ticket.outcome)] += 1;
        }
        samples.setup(t.elapsed().as_secs_f64());

        let traced = trace && pass % 2 == 1;
        let mut log = traced.then(SpanLog::default);
        let before = svc.stats();
        let mut digest = DefaultHasher::new();
        let mut busy = 0.0;
        for (i, &a) in inputs.timed.iter().enumerate() {
            let op = (pass * n + i) as u64;
            let mut lap = Lap::start(log.as_mut(), op);
            let (ticket, latency) = arrive(&mut svc, &ctx, inputs, warm + i, a, &mut lap);
            busy += lap.finish("arrival");
            samples.latency(i, traced, latency);
            let file_size = inputs.tenants[&(a.tenant, a.drifted)].file_size;
            checks.op(checks::rst_tiles(ticket.rst.entries(), file_size));
            counts[outcome_index(ticket.outcome)] += 1;
            hash_ticket(&mut digest, &ticket);
            if pass == 0 {
                outcomes.push(ticket.outcome);
                served.insert((a.tenant, a.drifted), ticket.rst);
            }
        }
        svc.tick(&ctx);
        let after = svc.stats();
        checks.fail_on(if counts.iter().sum::<u64>() == after.submits {
            Ok(())
        } else {
            Err(format!(
                "outcomes {counts:?} do not sum to {} submits",
                after.submits
            ))
        });
        checks.fail_on(
            if after.batch_applied + after.batch_coalesced == after.batch_enqueued {
                Ok(())
            } else {
                Err(format!(
                    "batched updates: {} applied + {} coalesced != {} enqueued",
                    after.batch_applied, after.batch_coalesced, after.batch_enqueued
                ))
            },
        );
        let digest = digest.finish();
        checks.fail_on(match first_digest.replace(digest) {
            Some(first) if first != digest => {
                Err(format!("pass {pass} served different plans than pass 0"))
            }
            _ => Ok(()),
        });

        match log {
            Some(log) => {
                let mut v = Values::new();
                stats_values(&mut v, &before, &after);
                let self_s = log.self_seconds();
                for (layer, key) in [
                    ("submit", "serve.submit_self_s"),
                    ("observe", "serve.observe_self_s"),
                    ("tick", "serve.tick_self_s"),
                ] {
                    v.insert(key, self_s.get(layer).copied().unwrap_or(0.0));
                }
                let span = log.op_seconds();
                v.insert("harness.op_span_s", span);
                v.insert(
                    "harness.unattributed_share",
                    metrics::ratio(self_s.get("arrival").copied().unwrap_or(0.0), span),
                );
                traced_values.push(v);
                first_log.get_or_insert(log);
            }
            None => samples.plain_pass(busy),
        }
    }

    let mut values = samples.values();
    metrics::add_mean(&mut values, &traced_values);
    values.insert("serve.submits", n as f64);
    values.insert("harness.ops", n as f64);
    let per_submit = samples.op_medians();
    for (rate, p50, outcome, scale) in [
        (
            "serve.hit_rate",
            "serve.hit_p50_us",
            PlanOutcome::CacheHit,
            1e6,
        ),
        (
            "serve.stale_rate",
            "serve.stale_p50_us",
            PlanOutcome::StaleRefresh,
            1e6,
        ),
        (
            "serve.miss_rate",
            "serve.miss_p50_ms",
            PlanOutcome::Miss,
            1e3,
        ),
    ] {
        let of_kind = sorted(
            per_submit
                .iter()
                .zip(&outcomes)
                .filter(|(_, &o)| o == outcome)
                .map(|(&l, _)| l),
        );
        values.insert(rate, metrics::ratio(of_kind.len() as f64, n as f64));
        values.insert(p50, percentile(&of_kind, 0.5) * scale);
    }
    values.insert("sim_mib_s", served_throughput(inputs, &served, &mut checks));
    (values, checks, first_log)
}

/// Simulated MiB/s of the plans as served, after the timing ends: each
/// `(tenant, drift)` workload runs on the last plan the first pass handed
/// out for it. Also checks that every such plan moves the workload's bytes.
fn served_throughput(
    inputs: &ServeInputs,
    served: &BTreeMap<(u64, bool), RegionStripeTable>,
    checks: &mut Checks,
) -> f64 {
    let ctx = plain_context();
    let (mut bytes, mut makespan_s) = (0u64, 0.0f64);
    for (key, rst) in served {
        let workload = inputs.tenants[key].job.build();
        let report = run_workload(
            &ctx,
            &inputs.cluster,
            rst,
            &workload,
            &CollectiveConfig::default(),
        );
        checks.fail_on(checks::bytes_moved(&report, workload.total_bytes()));
        bytes += report.bytes_read + report.bytes_written;
        makespan_s += report.makespan.as_secs_f64();
    }
    metrics::ratio(bytes as f64 / (1024.0 * 1024.0), makespan_s)
}
