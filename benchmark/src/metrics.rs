//! The metrics the benchmark reports, their units, and the result line.

use crate::checks::Checks;
use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;

/// Metric values by name. Runners fill in what they measure; names they
/// do not measure read as 0.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics, `(name, unit)`, measured with tracing off. An
/// operation is one job (pipeline workloads) or one plan submission
/// (`serve_fleet`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_mib_s", "MiB/s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, from the traced passes of a
/// `--trace 1` run. Times and counts are per pass.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("harness.ops", "count"),
    ("harness.op_span_s", "s"),
    ("harness.unattributed_share", "ratio"),
    ("harness.trace_overhead_pct", "%"),
    ("trace.self_s", "s"),
    ("trace.share", "ratio"),
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("plan.self_s", "s"),
    ("plan.share", "ratio"),
    ("plan.p50_ms", "ms"),
    ("plan.regions", "count"),
    ("plan.candidates", "count"),
    ("plan.ns_per_candidate", "ns"),
    ("place.self_s", "s"),
    ("place.share", "ratio"),
    ("translate.self_s", "s"),
    ("translate.share", "ratio"),
    ("translate.phys_requests", "count"),
    ("translate.ns_per_request", "ns"),
    ("sim.self_s", "s"),
    ("sim.share", "ratio"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.dispatch_s", "s"),
    ("sim.device_service_s", "s"),
    ("sim.queue_drain_s", "s"),
    ("sim.recorder_s", "s"),
    ("sim.queue_depth_hwm", "count"),
    ("sim.queue_rebuilds", "count"),
    ("pfs.imbalance", "ratio"),
    ("pfs.queue_wait_p50_us", "us"),
    ("pfs.requests_completed", "count"),
    ("serve.submits", "count"),
    ("serve.submit_self_s", "s"),
    ("serve.observe_self_s", "s"),
    ("serve.tick_self_s", "s"),
    ("serve.hit_p50_us", "us"),
    ("serve.stale_p50_us", "us"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.stale_rate", "ratio"),
    ("serve.miss_rate", "ratio"),
    ("serve.regions_reused", "count"),
    ("serve.regions_planned", "count"),
    ("serve.region_pool_lookups", "count"),
    ("serve.region_pool_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.batch_enqueued", "count"),
    ("serve.batch_applied", "count"),
    ("serve.batch_coalesced", "count"),
    ("serve.adaptations", "count"),
    ("host.user_cpu_s", "s"),
    ("host.sys_cpu_s", "s"),
    ("host.sys_share", "ratio"),
    ("host.cpu_s", "s"),
];

/// Pipeline layers in call order: `(span name, self-time metric, share
/// metric)`.
pub const PIPELINE_LAYERS: [(&str, &str, &str); 5] = [
    ("trace", "trace.self_s", "trace.share"),
    ("plan", "plan.self_s", "plan.share"),
    ("place", "place.self_s", "place.share"),
    ("translate", "translate.self_s", "translate.share"),
    ("sim", "sim.self_s", "sim.share"),
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Add to `values` the mean over `passes` of each per-pass value.
pub fn add_mean(values: &mut Values, passes: &[Values]) {
    let count = passes.len() as f64;
    for pass in passes {
        for (&k, &x) in pass {
            *values.entry(k).or_default() += x / count;
        }
    }
}

/// Fill in the per-layer shares and per-unit costs from the raw values.
pub fn derive_ratios(v: &mut Values) {
    let get = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
    let span = get(v, "harness.op_span_s");
    for (_, self_s, share) in PIPELINE_LAYERS {
        v.insert(share, ratio(get(v, self_s), span));
    }
    for (per_unit, self_s, count) in [
        ("trace.ns_per_record", "trace.self_s", "trace.records"),
        ("plan.ns_per_candidate", "plan.self_s", "plan.candidates"),
        (
            "translate.ns_per_request",
            "translate.self_s",
            "translate.phys_requests",
        ),
        ("sim.ns_per_event", "sim.self_s", "sim.events"),
    ] {
        v.insert(per_unit, ratio(get(v, self_s) * 1e9, get(v, count)));
    }
    let (user, sys) = (get(v, "host.user_cpu_s"), get(v, "host.sys_cpu_s"));
    v.insert("host.cpu_s", user + sys);
    v.insert("host.sys_share", ratio(sys, user + sys));
}

/// User and system CPU seconds this process has used so far, from
/// `/proc/self/stat` (Linux; `None` elsewhere).
pub fn cpu_seconds() -> Option<(f64, f64)> {
    // Linux reports both in USER_HZ ticks, fixed at 100 per second.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let user: f64 = rest.next()?.parse().ok()?;
    let sys: f64 = rest.next()?.parse().ok()?;
    Some((user / TICKS_PER_S, sys / TICKS_PER_S))
}

/// `(name, value, unit)` for every metric of `table`, in table order.
pub fn select(
    table: &[(&'static str, &'static str)],
    v: &Values,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = v.get(name).copied().unwrap_or(0.0);
            (name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect()
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut by_name = Map::new();
    for &(name, value, unit) in metrics {
        let mut m = Map::new();
        m.insert("value".into(), Value::Number(Number::F64(value)));
        m.insert("unit".into(), Value::String(unit.into()));
        by_name.insert(name.into(), Value::Object(m));
    }
    let mut doc = Map::new();
    doc.insert("correct".into(), Value::Bool(checks.failed == 0));
    doc.insert(
        "attempted".into(),
        Value::Number(Number::U64(checks.attempted)),
    );
    doc.insert("failed".into(), Value::Number(Number::U64(checks.failed)));
    doc.insert("metrics".into(), Value::Object(by_name));
    // The vendored serialiser is infallible.
    serde_json::to_string(&Value::Object(doc)).unwrap_or_default()
}
