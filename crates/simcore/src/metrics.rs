//! Workspace-wide observability: labelled metrics and per-request spans.
//!
//! Every layer of the stack (engine, PFS simulator, middleware, HARL
//! planner) reports into a [`Recorder`]:
//!
//! * **Counters** — monotonically increasing totals (events dispatched,
//!   requests routed to a region, bytes landed on a server).
//! * **Gauges** — last-value or high-water-mark readings (queue depth HWM,
//!   a region's planned stripe sizes).
//! * **Histograms** — power-of-two bucketed distributions of `u64` values
//!   (per-server queue-wait and service-time in nanoseconds), backed by
//!   [`crate::stats::Histogram`].
//! * **Summaries** — Welford accumulators of `f64` observations where sign
//!   and magnitude both matter (predicted-vs-actual cost residuals).
//! * **Spans** — one record per simulated request capturing its lifecycle
//!   (issue → queue → service → complete) as per-hop sim-time intervals.
//! * **Series** — sampled `(sim-time, value)` time-series (per-server queue
//!   depth, utilisation, in-flight bytes), captured at a configurable
//!   sim-time interval by the flight recorder and therefore exactly
//!   reproducible: same seed and interval ⇒ byte-identical samples.
//!
//! Metric names are never spelled inline: every name is a typed constant in
//! [`crate::registry`], enforced by the `metric-registry` lint rule.
//!
//! Metrics are identified by a name plus a small label set (`server`,
//! `kind`, `region`, …), so one metric name covers a whole family of
//! series, Prometheus-style.
//!
//! The default recorder is [`NoopRecorder`], which ignores everything.
//! Instrumented code guards the (cheap but not free) label formatting with
//! [`Recorder::is_enabled`], so a disabled recorder costs one virtual call
//! per site at most — verified by the `costmodel`/`optimizer` benches in
//! `harl-bench`.
//!
//! [`MemoryRecorder`] accumulates everything in memory and serialises it as
//! JSONL (one self-describing JSON object per line — see
//! [`MemoryRecorder::write_jsonl`]) or as Chrome trace-event JSON
//! ([`MemoryRecorder::write_chrome_trace`], loadable in `chrome://tracing`
//! or Perfetto).

use crate::stats::{Histogram, OnlineStats};
use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// A borrowed label set, as passed by instrumentation sites.
///
/// Keys are static strings; values are formatted at the call site (guarded
/// by [`Recorder::is_enabled`] so the formatting is skipped when disabled).
pub type Labels<'a> = [(&'static str, String)];

/// One hop of a request's lifecycle: a visit to one FIFO resource.
///
/// `start - arrive` is the queueing delay at the resource, `end - start`
/// the service time. All timestamps are simulated nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanHop {
    /// Which resource the hop visited (`"mds"`, `"disk"`, `"server_nic"`, …).
    pub stage: &'static str,
    /// Server index for per-server resources, `None` for shared ones.
    pub server: Option<usize>,
    /// Arrival at the resource queue (sim ns).
    pub arrive: u64,
    /// Service start (sim ns, `>= arrive`).
    pub start: u64,
    /// Service completion (sim ns, `>= start`).
    pub end: u64,
}

impl SpanHop {
    /// Time spent queueing before service (ns).
    pub fn queue_ns(&self) -> u64 {
        self.start.saturating_sub(self.arrive)
    }

    /// Time spent in service (ns).
    pub fn service_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The recorded lifecycle of one request: issue → hops → completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request identifier, unique within one simulation run.
    pub id: u64,
    /// Span family (`"request"` for PFS file requests).
    pub kind: &'static str,
    /// Descriptive labels (client, op, file, size, …).
    pub labels: Vec<(&'static str, String)>,
    /// When the request was issued by its client (sim ns).
    pub issued: u64,
    /// When the last sub-request completed (sim ns).
    pub completed: u64,
    /// Resource visits, in the order they were granted.
    pub hops: Vec<SpanHop>,
}

impl SpanRecord {
    /// End-to-end latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed.saturating_sub(self.issued)
    }
}

/// Sink for metrics and spans, threaded through every simulation layer.
///
/// Implementations must be thread-safe: the optimizer records from worker
/// threads. All methods take `&self`.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Instrumentation sites use this
    /// to skip label formatting entirely when recording is off.
    fn is_enabled(&self) -> bool;

    /// Add `delta` to the counter `name{labels}`.
    fn counter_add(&self, name: &'static str, labels: &Labels<'_>, delta: u64);

    /// Set the gauge `name{labels}` to `value` (last write wins).
    fn gauge_set(&self, name: &'static str, labels: &Labels<'_>, value: f64);

    /// Raise the gauge `name{labels}` to `value` if it is higher than the
    /// current reading (high-water mark semantics).
    fn gauge_max(&self, name: &'static str, labels: &Labels<'_>, value: f64);

    /// Record `value` into the power-of-two histogram `name{labels}`.
    fn observe(&self, name: &'static str, labels: &Labels<'_>, value: u64);

    /// Record a signed/fractional observation into the Welford summary
    /// `name{labels}` (used for model residuals).
    fn observe_f64(&self, name: &'static str, labels: &Labels<'_>, value: f64);

    /// Merge a locally-accumulated histogram into `name{labels}` in one
    /// call — equivalent to [`Recorder::observe`]-ing every value it holds.
    ///
    /// Hot loops (the PFS disk path) keep an alloc-free local [`Histogram`]
    /// per server and flush it once at the end of the run, so the per-event
    /// recorder cost stays off the critical path. Default: drops the data;
    /// recorders that keep histograms must override.
    fn merge_histogram(&self, name: &'static str, labels: &Labels<'_>, hist: &Histogram) {
        let _ = (name, labels, hist);
    }

    /// Record one sampled time-series point: `name{labels}` had `value` at
    /// simulated time `t_ns`. Default: drops the point; recorders that keep
    /// series must override.
    fn series_point(&self, name: &'static str, labels: &Labels<'_>, t_ns: u64, value: f64) {
        let _ = (name, labels, t_ns, value);
    }

    /// Record one completed request span.
    fn span(&self, span: SpanRecord);

    /// Whether this recorder keeps request spans. Instrumentation sites
    /// use this to skip span assembly (label formatting, hop collection)
    /// entirely when spans would be dropped anyway. Default: spans are
    /// kept whenever the recorder is enabled.
    fn wants_spans(&self) -> bool {
        self.is_enabled()
    }

    /// Whether this recorder keeps per-hop span detail
    /// ([`SpanRecord::hops`]). Hop collection is the most expensive part
    /// of the instrumented hot path (several pushes per sub-request), so
    /// recorders can keep spans while shedding hops. Default: follows
    /// [`Recorder::wants_spans`].
    fn wants_hops(&self) -> bool {
        self.wants_spans()
    }
}

/// The default recorder: drops everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn counter_add(&self, _: &'static str, _: &Labels<'_>, _: u64) {}
    fn gauge_set(&self, _: &'static str, _: &Labels<'_>, _: f64) {}
    fn gauge_max(&self, _: &'static str, _: &Labels<'_>, _: f64) {}
    fn observe(&self, _: &'static str, _: &Labels<'_>, _: u64) {}
    fn observe_f64(&self, _: &'static str, _: &Labels<'_>, _: f64) {}
    fn span(&self, _: SpanRecord) {}
}

/// A shared no-op recorder for default arguments.
pub static NOOP: NoopRecorder = NoopRecorder;

/// A fully-qualified series key: metric name plus sorted labels.
type SeriesKey = (&'static str, Vec<(&'static str, String)>);

fn series_key(name: &'static str, labels: &Labels<'_>) -> SeriesKey {
    let mut owned: Vec<(&'static str, String)> =
        labels.iter().map(|(k, v)| (*k, v.clone())).collect();
    owned.sort_by(|a, b| a.0.cmp(b.0));
    (name, owned)
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
    summaries: BTreeMap<SeriesKey, OnlineStats>,
    series: BTreeMap<SeriesKey, Vec<(u64, f64)>>,
    spans: Vec<SpanRecord>,
}

/// How much tracing detail a [`MemoryRecorder`] keeps alongside metrics.
///
/// Metrics (counters, gauges, histograms, summaries, series) are always
/// kept; the tiers only govern the request-tracing side, which is the
/// expensive part of the instrumented hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceDetail {
    /// Metrics only: spans are dropped, span assembly is skipped at the
    /// instrumentation sites. The cheapest recorded mode; `benchmark/`
    /// reports what recording costs as `sim.recorder_s`.
    Metrics,
    /// Metrics plus one [`SpanRecord`] per request, without per-hop
    /// detail.
    Spans,
    /// Everything, including per-hop queueing detail on every span (the
    /// Chrome-trace flight-recorder mode).
    #[default]
    Hops,
}

/// A [`Recorder`] that accumulates everything in memory for later export.
#[derive(Default)]
pub struct MemoryRecorder {
    inner: Mutex<Registry>,
    detail: TraceDetail,
}

impl MemoryRecorder {
    /// An empty recorder keeping full detail ([`TraceDetail::Hops`]).
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// An empty recorder at the given tracing detail.
    pub fn with_detail(detail: TraceDetail) -> Self {
        MemoryRecorder {
            inner: Mutex::default(),
            detail,
        }
    }

    /// An empty recorder keeping metrics but no spans
    /// ([`TraceDetail::Metrics`]).
    pub fn metrics_only() -> Self {
        MemoryRecorder::with_detail(TraceDetail::Metrics)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        // A panicking recorder thread must not silence everyone else's data.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current value of a counter (0 if never written).
    pub fn counter_value(&self, name: &'static str, labels: &Labels<'_>) -> u64 {
        self.lock()
            .counters
            .get(&series_key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge, if written.
    pub fn gauge_value(&self, name: &'static str, labels: &Labels<'_>) -> Option<f64> {
        self.lock().gauges.get(&series_key(name, labels)).copied()
    }

    /// Snapshot of a histogram series, if written.
    pub fn histogram_snapshot(&self, name: &'static str, labels: &Labels<'_>) -> Option<Histogram> {
        self.lock()
            .histograms
            .get(&series_key(name, labels))
            .cloned()
    }

    /// Snapshot of an `f64` summary series, if written.
    pub fn summary_snapshot(&self, name: &'static str, labels: &Labels<'_>) -> Option<OnlineStats> {
        self.lock()
            .summaries
            .get(&series_key(name, labels))
            .cloned()
    }

    /// All recorded spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Sampled `(sim-time ns, value)` points of a time-series, if written.
    pub fn series_points(
        &self,
        name: &'static str,
        labels: &Labels<'_>,
    ) -> Option<Vec<(u64, f64)>> {
        self.lock().series.get(&series_key(name, labels)).cloned()
    }

    /// Number of distinct metric series recorded (all types).
    pub fn series_count(&self) -> usize {
        let r = self.lock();
        r.counters.len() + r.gauges.len() + r.histograms.len() + r.summaries.len() + r.series.len()
    }

    fn labels_value(labels: &[(&'static str, String)]) -> Value {
        let mut map = Map::new();
        for (k, v) in labels {
            map.insert((*k).to_string(), Value::String(v.clone()));
        }
        Value::Object(map)
    }

    fn line(
        kind: &str,
        name: &str,
        labels: &[(&'static str, String)],
        extra: Vec<(&str, Value)>,
    ) -> Value {
        let mut map = Map::new();
        map.insert("type".to_string(), Value::String(kind.to_string()));
        map.insert("name".to_string(), Value::String(name.to_string()));
        map.insert("labels".to_string(), Self::labels_value(labels));
        for (k, v) in extra {
            map.insert(k.to_string(), v);
        }
        Value::Object(map)
    }

    fn span_value(span: &SpanRecord) -> Value {
        let mut map = Map::new();
        map.insert("type".to_string(), Value::String("span".to_string()));
        map.insert("kind".to_string(), Value::String(span.kind.to_string()));
        map.insert("id".to_string(), Value::Number(Number::U64(span.id)));
        map.insert("labels".to_string(), Self::labels_value(&span.labels));
        map.insert(
            "issued_ns".to_string(),
            Value::Number(Number::U64(span.issued)),
        );
        map.insert(
            "completed_ns".to_string(),
            Value::Number(Number::U64(span.completed)),
        );
        map.insert(
            "latency_ns".to_string(),
            Value::Number(Number::U64(span.latency_ns())),
        );
        let hops: Vec<Value> = span
            .hops
            .iter()
            .map(|h| {
                let mut hm = Map::new();
                hm.insert("stage".to_string(), Value::String(h.stage.to_string()));
                if let Some(s) = h.server {
                    hm.insert("server".to_string(), Value::Number(Number::U64(s as u64)));
                }
                hm.insert(
                    "arrive_ns".to_string(),
                    Value::Number(Number::U64(h.arrive)),
                );
                hm.insert(
                    "queue_ns".to_string(),
                    Value::Number(Number::U64(h.queue_ns())),
                );
                hm.insert(
                    "service_ns".to_string(),
                    Value::Number(Number::U64(h.service_ns())),
                );
                Value::Object(hm)
            })
            .collect();
        map.insert("hops".to_string(), Value::Array(hops));
        Value::Object(map)
    }

    /// Write everything as JSONL: one self-describing JSON object per line.
    ///
    /// Line shapes (`type` discriminates): `counter` (`value`), `gauge`
    /// (`value`), `histogram` (`count`, `p50`/`p95`/`p99` upper bounds,
    /// `buckets` as `[upper_bound, count]` pairs), `summary` (`count`,
    /// `mean`, `std_dev`, `min`, `max`), `series` (`points` as
    /// `[t_ns, value]` pairs in sample order), `span` (lifecycle with
    /// per-hop `queue_ns`/`service_ns`).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let r = self.lock();
        for ((name, labels), value) in &r.counters {
            let line = Self::line(
                "counter",
                name,
                labels,
                vec![("value", Value::Number(Number::U64(*value)))],
            );
            writeln!(w, "{}", serde_json::to_string(&line)?)?;
        }
        for ((name, labels), value) in &r.gauges {
            let line = Self::line(
                "gauge",
                name,
                labels,
                vec![("value", Value::Number(Number::F64(*value)))],
            );
            writeln!(w, "{}", serde_json::to_string(&line)?)?;
        }
        for ((name, labels), hist) in &r.histograms {
            let buckets: Vec<Value> = hist
                .nonzero_buckets()
                .map(|(ub, c)| {
                    Value::Array(vec![
                        Value::Number(Number::U64(ub)),
                        Value::Number(Number::U64(c)),
                    ])
                })
                .collect();
            let q = |p: f64| match hist.quantile_upper_bound(p) {
                Some(v) => Value::Number(Number::U64(v)),
                None => Value::Null,
            };
            let line = Self::line(
                "histogram",
                name,
                labels,
                vec![
                    ("count", Value::Number(Number::U64(hist.count()))),
                    ("p50", q(0.5)),
                    ("p95", q(0.95)),
                    ("p99", q(0.99)),
                    ("buckets", Value::Array(buckets)),
                ],
            );
            writeln!(w, "{}", serde_json::to_string(&line)?)?;
        }
        for ((name, labels), stats) in &r.summaries {
            let line = Self::line(
                "summary",
                name,
                labels,
                vec![
                    ("count", Value::Number(Number::U64(stats.count()))),
                    ("mean", Value::Number(Number::F64(stats.mean()))),
                    ("std_dev", Value::Number(Number::F64(stats.std_dev()))),
                    (
                        "min",
                        Value::Number(Number::F64(stats.min().unwrap_or(0.0))),
                    ),
                    (
                        "max",
                        Value::Number(Number::F64(stats.max().unwrap_or(0.0))),
                    ),
                ],
            );
            writeln!(w, "{}", serde_json::to_string(&line)?)?;
        }
        for ((name, labels), points) in &r.series {
            let pts: Vec<Value> = points
                .iter()
                .map(|&(t, v)| {
                    Value::Array(vec![
                        Value::Number(Number::U64(t)),
                        Value::Number(Number::F64(v)),
                    ])
                })
                .collect();
            let line = Self::line(
                "series",
                name,
                labels,
                vec![
                    ("points", Value::Array(pts)),
                    ("count", Value::Number(Number::U64(points.len() as u64))),
                ],
            );
            writeln!(w, "{}", serde_json::to_string(&line)?)?;
        }
        for span in &r.spans {
            writeln!(w, "{}", serde_json::to_string(&Self::span_value(span))?)?;
        }
        Ok(())
    }

    /// Write recorded spans in Chrome trace-event format (the JSON object
    /// form with a `traceEvents` array), loadable in `chrome://tracing` or
    /// Perfetto. One complete (`ph: "X"`) event per hop; `tid` is the server
    /// index (or 0 for shared resources), timestamps are microseconds of
    /// simulated time. Sampled time-series become counter (`ph: "C"`)
    /// events, which the trace viewers render as stacked area charts.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let r = self.lock();
        let mut events: Vec<Value> = Vec::new();
        for ((name, labels), points) in &r.series {
            // Per-server series carry a `server` label; surface it in the
            // track name so each server gets its own counter track.
            let track = labels
                .iter()
                .find(|(k, _)| *k == "server")
                .map(|(_, v)| format!("{name}[{v}]"))
                .unwrap_or_else(|| (*name).to_string());
            for &(t_ns, value) in points {
                let mut ev = Map::new();
                ev.insert("name".to_string(), Value::String(track.clone()));
                ev.insert("ph".to_string(), Value::String("C".to_string()));
                ev.insert(
                    "ts".to_string(),
                    Value::Number(Number::F64(t_ns as f64 / 1000.0)),
                );
                ev.insert("pid".to_string(), Value::Number(Number::U64(0)));
                let mut args = Map::new();
                args.insert("value".to_string(), Value::Number(Number::F64(value)));
                ev.insert("args".to_string(), Value::Object(args));
                events.push(Value::Object(ev));
            }
        }
        for span in &r.spans {
            for hop in &span.hops {
                let mut ev = Map::new();
                ev.insert(
                    "name".to_string(),
                    Value::String(format!("{}:{}", span.kind, hop.stage)),
                );
                ev.insert("cat".to_string(), Value::String(span.kind.to_string()));
                ev.insert("ph".to_string(), Value::String("X".to_string()));
                ev.insert(
                    "ts".to_string(),
                    Value::Number(Number::F64(hop.start as f64 / 1000.0)),
                );
                ev.insert(
                    "dur".to_string(),
                    Value::Number(Number::F64(hop.service_ns() as f64 / 1000.0)),
                );
                ev.insert("pid".to_string(), Value::Number(Number::U64(0)));
                ev.insert(
                    "tid".to_string(),
                    Value::Number(Number::U64(hop.server.unwrap_or(0) as u64)),
                );
                let mut args = Map::new();
                args.insert("id".to_string(), Value::Number(Number::U64(span.id)));
                args.insert(
                    "queue_ns".to_string(),
                    Value::Number(Number::U64(hop.queue_ns())),
                );
                for (k, v) in &span.labels {
                    args.insert((*k).to_string(), Value::String(v.clone()));
                }
                ev.insert("args".to_string(), Value::Object(args));
                events.push(Value::Object(ev));
            }
        }
        let mut doc = Map::new();
        doc.insert("traceEvents".to_string(), Value::Array(events));
        doc.insert(
            "displayTimeUnit".to_string(),
            Value::String("ms".to_string()),
        );
        write!(w, "{}", serde_json::to_string(&Value::Object(doc))?)
    }
}

impl Recorder for MemoryRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, labels: &Labels<'_>, delta: u64) {
        *self
            .lock()
            .counters
            .entry(series_key(name, labels))
            .or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        self.lock().gauges.insert(series_key(name, labels), value);
    }

    fn gauge_max(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        let mut r = self.lock();
        let slot = r
            .gauges
            .entry(series_key(name, labels))
            .or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    fn observe(&self, name: &'static str, labels: &Labels<'_>, value: u64) {
        self.lock()
            .histograms
            .entry(series_key(name, labels))
            .or_default()
            .record(value);
    }

    fn observe_f64(&self, name: &'static str, labels: &Labels<'_>, value: f64) {
        self.lock()
            .summaries
            .entry(series_key(name, labels))
            .or_default()
            .push(value);
    }

    fn merge_histogram(&self, name: &'static str, labels: &Labels<'_>, hist: &Histogram) {
        self.lock()
            .histograms
            .entry(series_key(name, labels))
            .or_default()
            .merge(hist);
    }

    fn series_point(&self, name: &'static str, labels: &Labels<'_>, t_ns: u64, value: f64) {
        self.lock()
            .series
            .entry(series_key(name, labels))
            .or_default()
            .push((t_ns, value));
    }

    fn span(&self, span: SpanRecord) {
        if self.detail == TraceDetail::Metrics {
            return;
        }
        self.lock().spans.push(span);
    }

    fn wants_spans(&self) -> bool {
        self.detail != TraceDetail::Metrics
    }

    fn wants_hops(&self) -> bool {
        self.detail == TraceDetail::Hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(server: usize) -> Vec<(&'static str, String)> {
        vec![("server", server.to_string())]
    }

    #[test]
    fn noop_is_disabled_and_silent() {
        let r = NoopRecorder;
        assert!(!r.is_enabled());
        r.counter_add("x", &[], 5);
        r.observe("y", &labels(1), 9);
        r.span(SpanRecord {
            id: 0,
            kind: "request",
            labels: vec![],
            issued: 0,
            completed: 1,
            hops: vec![],
        });
    }

    #[test]
    fn counters_accumulate_per_series() {
        let r = MemoryRecorder::new();
        r.counter_add("reqs", &labels(0), 2);
        r.counter_add("reqs", &labels(0), 3);
        r.counter_add("reqs", &labels(1), 7);
        assert_eq!(r.counter_value("reqs", &labels(0)), 5);
        assert_eq!(r.counter_value("reqs", &labels(1)), 7);
        assert_eq!(r.counter_value("reqs", &labels(9)), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = MemoryRecorder::new();
        let ab: Vec<(&'static str, String)> = vec![("a", "1".to_string()), ("b", "2".to_string())];
        let ba: Vec<(&'static str, String)> = vec![("b", "2".to_string()), ("a", "1".to_string())];
        r.counter_add("x", &ab, 1);
        r.counter_add("x", &ba, 1);
        assert_eq!(r.counter_value("x", &ab), 2);
    }

    #[test]
    fn gauge_max_keeps_high_water_mark() {
        let r = MemoryRecorder::new();
        r.gauge_max("depth", &[], 4.0);
        r.gauge_max("depth", &[], 9.0);
        r.gauge_max("depth", &[], 6.0);
        assert_eq!(r.gauge_value("depth", &[]), Some(9.0));
        r.gauge_set("depth", &[], 1.0);
        assert_eq!(r.gauge_value("depth", &[]), Some(1.0));
    }

    #[test]
    fn histogram_and_summary_series() {
        let r = MemoryRecorder::new();
        for v in [1u64, 2, 1024] {
            r.observe("lat", &labels(3), v);
        }
        let h = r.histogram_snapshot("lat", &labels(3)).unwrap();
        assert_eq!(h.count(), 3);
        r.observe_f64("resid", &[], -0.5);
        r.observe_f64("resid", &[], 0.5);
        let s = r.summary_snapshot("resid", &[]).unwrap();
        assert_eq!(s.count(), 2);
        assert!(s.mean().abs() < 1e-12);
    }

    #[test]
    fn span_hop_deltas() {
        let hop = SpanHop {
            stage: "disk",
            server: Some(2),
            arrive: 100,
            start: 150,
            end: 400,
        };
        assert_eq!(hop.queue_ns(), 50);
        assert_eq!(hop.service_ns(), 250);
        let span = SpanRecord {
            id: 7,
            kind: "request",
            labels: vec![("op", "read".to_string())],
            issued: 90,
            completed: 400,
            hops: vec![hop],
        };
        assert_eq!(span.latency_ns(), 310);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let r = MemoryRecorder::new();
        r.counter_add("events", &[], 42);
        r.gauge_set("hwm", &[], 12.0);
        r.observe("wait", &labels(0), 4096);
        r.observe_f64("resid", &labels(0), 0.25);
        r.span(SpanRecord {
            id: 1,
            kind: "request",
            labels: vec![("op", "write".to_string())],
            issued: 0,
            completed: 500,
            hops: vec![SpanHop {
                stage: "disk",
                server: Some(0),
                arrive: 10,
                start: 20,
                end: 480,
            }],
        });
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let mut kinds = Vec::new();
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("each line is valid JSON");
            let obj = match v {
                Value::Object(m) => m,
                other => panic!("line is not an object: {other:?}"),
            };
            kinds.push(match obj.get("type") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("missing type: {other:?}"),
            });
        }
        kinds.sort();
        assert_eq!(kinds, ["counter", "gauge", "histogram", "span", "summary"]);
    }

    #[test]
    fn merge_histogram_equals_pointwise_observe() {
        let merged = MemoryRecorder::new();
        let pointwise = MemoryRecorder::new();
        let mut local = Histogram::new();
        for v in [3u64, 9, 1024, 0, 77] {
            local.record(v);
            pointwise.observe("wait", &labels(2), v);
        }
        merged.merge_histogram("wait", &labels(2), &local);
        let a = merged.histogram_snapshot("wait", &labels(2)).unwrap();
        let b = pointwise.histogram_snapshot("wait", &labels(2)).unwrap();
        assert_eq!(a.count(), b.count());
        assert_eq!(
            a.nonzero_buckets().collect::<Vec<_>>(),
            b.nonzero_buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn series_points_keep_sample_order() {
        let r = MemoryRecorder::new();
        r.series_point("depth", &labels(1), 100, 2.0);
        r.series_point("depth", &labels(1), 200, 5.0);
        r.series_point("depth", &labels(2), 100, 1.0);
        assert_eq!(
            r.series_points("depth", &labels(1)),
            Some(vec![(100, 2.0), (200, 5.0)])
        );
        assert_eq!(r.series_points("depth", &labels(9)), None);
        assert_eq!(r.series_count(), 2);
    }

    #[test]
    fn series_jsonl_and_chrome_counter_events() {
        let r = MemoryRecorder::new();
        r.series_point("util", &labels(3), 1_000_000, 0.5);
        r.series_point("util", &labels(3), 2_000_000, 0.75);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let obj = match v {
            Value::Object(m) => m,
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(obj.get("type"), Some(&Value::String("series".to_string())));
        let points = match obj.get("points") {
            Some(Value::Array(a)) => a,
            other => panic!("missing points: {other:?}"),
        };
        assert_eq!(points.len(), 2);

        let mut buf = Vec::new();
        r.write_chrome_trace(&mut buf).unwrap();
        let v: Value = serde_json::from_str(&String::from_utf8(buf).unwrap()).unwrap();
        let events = match &v {
            Value::Object(m) => match m.get("traceEvents") {
                Some(Value::Array(a)) => a,
                other => panic!("missing traceEvents: {other:?}"),
            },
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        let first = match &events[0] {
            Value::Object(m) => m,
            other => panic!("event not object: {other:?}"),
        };
        assert_eq!(first.get("ph"), Some(&Value::String("C".to_string())));
        assert_eq!(
            first.get("name"),
            Some(&Value::String("util[3]".to_string()))
        );
    }

    #[test]
    fn default_trait_bodies_drop_series_and_histograms() {
        // NoopRecorder inherits the default no-op bodies; exercising them
        // pins the API shape for custom recorders.
        let r = NoopRecorder;
        r.series_point("x", &[], 1, 1.0);
        r.merge_histogram("y", &[], &Histogram::new());
    }

    #[test]
    fn trace_detail_tiers_gate_spans_and_hops() {
        let span = || SpanRecord {
            id: 1,
            kind: "request",
            labels: vec![],
            issued: 0,
            completed: 10,
            hops: vec![],
        };

        let full = MemoryRecorder::new();
        assert!(full.wants_spans() && full.wants_hops());

        let spans_only = MemoryRecorder::with_detail(TraceDetail::Spans);
        assert!(spans_only.wants_spans() && !spans_only.wants_hops());
        spans_only.span(span());
        assert_eq!(spans_only.spans().len(), 1);

        // Metrics mode drops spans even if one is handed over, and still
        // keeps every metric family.
        let lean = MemoryRecorder::metrics_only();
        assert!(!lean.wants_spans() && !lean.wants_hops());
        lean.span(span());
        assert!(lean.spans().is_empty());
        lean.counter_add("sim.events.dispatched", &[], 2);
        assert_eq!(lean.counter_value("sim.events.dispatched", &[]), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let r = MemoryRecorder::new();
        r.span(SpanRecord {
            id: 1,
            kind: "request",
            labels: vec![("op", "read".to_string())],
            issued: 0,
            completed: 3000,
            hops: vec![
                SpanHop {
                    stage: "mds",
                    server: None,
                    arrive: 0,
                    start: 0,
                    end: 1000,
                },
                SpanHop {
                    stage: "disk",
                    server: Some(5),
                    arrive: 1000,
                    start: 1500,
                    end: 3000,
                },
            ],
        });
        let mut buf = Vec::new();
        r.write_chrome_trace(&mut buf).unwrap();
        let v: Value = serde_json::from_str(&String::from_utf8(buf).unwrap()).unwrap();
        let events = match &v {
            Value::Object(m) => match m.get("traceEvents") {
                Some(Value::Array(a)) => a,
                other => panic!("missing traceEvents: {other:?}"),
            },
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        // The disk hop lands on tid 5 with the queue delay in args.
        let disk = match &events[1] {
            Value::Object(m) => m,
            other => panic!("event not object: {other:?}"),
        };
        assert_eq!(disk.get("tid"), Some(&Value::Number(Number::U64(5))));
    }

    // Sharing the recorder across threads is the point of the test; the
    // assertion reads per-thread counters, not arrival order.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = MemoryRecorder::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("n", &[("t", t.to_string())], 1);
                    }
                });
            }
        });
        let total: u64 = (0..4)
            .map(|t| r.counter_value("n", &[("t", t.to_string())]))
            .sum();
        assert_eq!(total, 4000);
    }
}
