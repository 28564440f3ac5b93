//! Per-layer attribution from outside the program.
//!
//! [`Lap`] times each layer call of an operation; with a [`SpanLog`]
//! attached it also keeps one span per operation and per layer call, all
//! sharing the operation's id, for self times and a Chrome trace. [`Tally`]
//! is a [`Recorder`] that totals the program's own instrumentation (counts
//! of candidates, events, requests) by metric name across label sets.

use harl_repro::simcore::metrics::Labels;
use harl_repro::simcore::{Histogram, Recorder, SpanRecord};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One timed interval: a whole operation or one layer call inside it.
#[derive(Debug)]
pub struct Span {
    /// The operation this interval belongs to.
    pub op: u64,
    /// Operation kind (`job`, `arrival`) or layer name.
    pub name: &'static str,
    /// Whether this is the operation's own span rather than a layer call.
    pub is_op: bool,
    /// Start of the interval.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Self time per span name, in seconds: a layer call's whole length,
    /// and an operation's length minus the layer calls inside it.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut op_kind: BTreeMap<u64, &'static str> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.is_op) {
            op_kind.insert(s.op, s.name);
            *out.entry(s.name).or_default() += s.seconds();
        }
        for s in self.spans.iter().filter(|s| !s.is_op) {
            *out.entry(s.name).or_default() += s.seconds();
            if let Some(kind) = op_kind.get(&s.op) {
                *out.entry(kind).or_default() -= s.seconds();
            }
        }
        out
    }

    /// Total length of the operation spans, in seconds.
    pub fn op_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.is_op)
            .map(Span::seconds)
            .sum()
    }

    /// Layer-call lengths of one layer, in seconds, in recording order.
    pub fn layer_seconds(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| !s.is_op && s.name == layer)
            .map(Span::seconds)
            .collect()
    }

    /// Write the spans of the first `max_ops` operations as Chrome trace
    /// events (`chrome://tracing`, Perfetto), in microseconds of wall time.
    pub fn write_chrome_trace(&self, w: &mut impl Write, max_ops: usize) -> io::Result<()> {
        let mut ops: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.is_op)
            .map(|s| s.op)
            .collect();
        ops.truncate(max_ops);
        let last = ops.last().copied();
        let events: Vec<Value> = self
            .spans
            .iter()
            .filter(|s| last.is_some_and(|l| s.op <= l))
            .map(|s| {
                json!({
                    "name": s.name,
                    "cat": if s.is_op { "op" } else { "layer" },
                    "ph": "X",
                    "ts": (s.start - self.origin).as_secs_f64() * 1e6,
                    "dur": s.seconds() * 1e6,
                    "pid": 0u64,
                    "tid": 0u64,
                    "args": json!({ "op": s.op }),
                })
            })
            .collect();
        let doc = json!({ "traceEvents": events, "displayTimeUnit": "ms" });
        // The vendored serialiser is infallible.
        w.write_all(serde_json::to_string(&doc).unwrap_or_default().as_bytes())
    }
}

/// Times the layer calls of one operation.
pub struct Lap<'a> {
    log: Option<&'a mut SpanLog>,
    op: u64,
    start: Instant,
    last: Instant,
}

impl<'a> Lap<'a> {
    /// Start timing operation `op`; spans go to `log` when one is given.
    pub fn start(log: Option<&'a mut SpanLog>, op: u64) -> Self {
        let now = Instant::now();
        Lap {
            log,
            op,
            start: now,
            last: now,
        }
    }

    /// Close the interval since the previous mark as a call of `layer`;
    /// returns its length in seconds.
    pub fn mark(&mut self, layer: &'static str) -> f64 {
        let now = Instant::now();
        let start = std::mem::replace(&mut self.last, now);
        self.push(layer, false, start, now)
    }

    /// Close the operation's own span, named `kind`; returns its length in
    /// seconds.
    pub fn finish(mut self, kind: &'static str) -> f64 {
        let start = self.start;
        self.push(kind, true, start, Instant::now())
    }

    fn push(&mut self, name: &'static str, is_op: bool, start: Instant, end: Instant) -> f64 {
        if let Some(log) = self.log.as_deref_mut() {
            log.spans.push(Span {
                op: self.op,
                name,
                is_op,
                start,
                end,
            });
        }
        (end - start).as_secs_f64()
    }
}

/// The program's metrics, summed over label sets. Gauges keep their
/// highest reading; summaries and request spans are dropped.
#[derive(Debug, Default)]
pub struct Tally {
    inner: Mutex<Totals>,
}

#[derive(Debug, Default)]
struct Totals {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Tally {
    fn totals(&self) -> MutexGuard<'_, Totals> {
        self.inner
            .lock()
            .expect("a thread panicked while recording metrics")
    }

    /// Total of counter `name` over all label sets.
    pub fn counter(&self, name: &str) -> u64 {
        self.totals().counters.get(name).copied().unwrap_or(0)
    }

    /// Highest reading of gauge `name`, 0 if never set.
    pub fn gauge(&self, name: &str) -> f64 {
        self.totals().gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram `name` merged over all label sets.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.totals()
            .histograms
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    fn raise(&self, name: &'static str, value: f64) {
        let mut t = self.totals();
        let g = t.gauges.entry(name).or_insert(value);
        *g = g.max(value);
    }
}

impl Recorder for Tally {
    fn is_enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, _: &Labels<'_>, delta: u64) {
        *self.totals().counters.entry(name).or_default() += delta;
    }

    fn gauge_set(&self, name: &'static str, _: &Labels<'_>, value: f64) {
        self.raise(name, value);
    }

    fn gauge_max(&self, name: &'static str, _: &Labels<'_>, value: f64) {
        self.raise(name, value);
    }

    fn observe(&self, name: &'static str, _: &Labels<'_>, value: u64) {
        self.totals()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn observe_f64(&self, _: &'static str, _: &Labels<'_>, _: f64) {}

    fn merge_histogram(&self, name: &'static str, _: &Labels<'_>, hist: &Histogram) {
        self.totals()
            .histograms
            .entry(name)
            .or_default()
            .merge(hist);
    }

    fn span(&self, _: SpanRecord) {}

    fn wants_spans(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_layer_calls_from_their_operation() {
        let mut log = SpanLog::default();
        let mut lap = Lap::start(Some(&mut log), 3);
        std::hint::black_box((0..10_000u64).sum::<u64>());
        let layer = lap.mark("plan");
        let op = lap.finish("job");
        assert!(op >= layer);
        let self_s = log.self_seconds();
        assert!((self_s["plan"] - layer).abs() < 1e-12);
        assert!((self_s["job"] - (op - layer)).abs() < 1e-12);
        assert_eq!(log.layer_seconds("plan").len(), 1);
        let mut out = Vec::new();
        log.write_chrome_trace(&mut out, 10)
            .expect("in-memory write");
        let doc: Value = serde_json::from_str(&String::from_utf8_lossy(&out)).expect("valid JSON");
        assert_eq!(doc["traceEvents"].as_array().map(Vec::len), Some(2));
    }

    #[test]
    fn tally_sums_over_labels() {
        let t = Tally::default();
        t.counter_add("c", &[("region", "0".into())], 2);
        t.counter_add("c", &[("region", "1".into())], 3);
        t.gauge_set("g", &[], 4.0);
        t.gauge_max("g", &[], 1.0);
        t.observe("h", &[("server", "0".into())], 10);
        t.observe("h", &[("server", "1".into())], 10);
        assert_eq!(t.counter("c"), 5);
        assert_eq!(t.gauge("g"), 4.0);
        assert_eq!(t.histogram("h").count(), 2);
        assert!(!t.wants_spans() && !t.wants_hops());
    }
}
