//! Simulation output: everything the paper's figures are computed from —
//! plus [`MetricsSummary`], which distils a flight-recorder JSONL dump back
//! into a per-server table (`harl-cli report`).

use crate::cluster::ServerId;
use harl_devices::DeviceKind;
use harl_simcore::{registry, throughput_mib_s, OnlineStats, SimNanos};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fixed-width busy-time buckets: `buckets[i]` is how much of bucket i's
/// wall-clock window the device spent serving. Gives a utilisation
/// time-series without storing per-grant history.
///
/// The series is sized to the run: `buckets` grows only up to the last
/// bucket a recorded interval touches, and never past `cap`. A bucket
/// past the end of `buckets` saw no service, so readers treat it as idle
/// (see [`utilisation_through`](Self::utilisation_through)).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BusyBuckets {
    /// Bucket width.
    pub width: SimNanos,
    /// Most buckets the series grows to; the last absorbs overflow.
    pub cap: usize,
    /// Busy time accumulated per bucket, through the last one touched.
    pub buckets: Vec<SimNanos>,
}

impl BusyBuckets {
    /// New, empty series of buckets `width` wide, at most `cap` of them.
    pub fn new(width: SimNanos, cap: usize) -> Self {
        assert!(!width.is_zero() && cap > 0, "degenerate bucket config");
        BusyBuckets {
            width,
            cap,
            buckets: Vec::new(),
        }
    }

    /// Record a service interval `[start, end)`.
    pub fn record(&mut self, start: SimNanos, end: SimNanos) {
        let w = self.width.as_nanos();
        let last = self.cap - 1;
        let mut pos = start.as_nanos();
        let end = end.as_nanos();
        if pos >= end {
            return;
        }
        let touched = ((end - 1) / w).min(last as u64) as usize + 1;
        if self.buckets.len() < touched {
            self.buckets.resize(touched, SimNanos::ZERO);
        }
        while pos < end {
            let idx = ((pos / w) as usize).min(last);
            let bucket_end = if idx == last {
                end
            } else {
                ((pos / w) + 1) * w
            };
            let chunk = bucket_end.min(end) - pos;
            self.buckets[idx] += SimNanos(chunk);
            pos += chunk;
        }
    }

    /// Utilisation fraction per recorded bucket (the last bucket of a
    /// full series may exceed 1.0 since it absorbs overflow).
    pub fn utilisation(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.buckets
            .iter()
            .map(|b| if w > 0.0 { b.as_secs_f64() / w } else { 0.0 })
            .collect()
    }

    /// Utilisation of every bucket from time 0 through the one holding
    /// `t` (at most `cap` buckets), with the buckets the series never
    /// reached read as idle.
    pub fn utilisation_through(&self, t: SimNanos) -> Vec<f64> {
        let n = (t.as_nanos() / self.width.as_nanos() + 1).min(self.cap as u64) as usize;
        let mut util = self.utilisation();
        util.resize(n, 0.0);
        util
    }

    /// Total recorded busy time.
    pub fn total(&self) -> SimNanos {
        self.buckets.iter().copied().sum()
    }
}

/// Per-server accounting over one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    /// Server id.
    pub id: ServerId,
    /// Device class (HDD ⇒ HServer, SSD ⇒ SServer).
    pub kind: DeviceKind,
    /// Total time the storage device spent serving sub-requests — the
    /// "I/O time of each server" plotted in the paper's Fig. 1(a).
    pub disk_busy: SimNanos,
    /// Total time the server's NIC spent moving payload.
    pub nic_busy: SimNanos,
    /// Sub-requests served by the device.
    pub disk_jobs: u64,
    /// Total queueing delay at the device.
    pub disk_queued: SimNanos,
    /// Bytes served by the device.
    pub bytes: u64,
    /// Busy-time series (fixed-width buckets through the last one the
    /// device was busy in; the last bucket of a full series absorbs any
    /// overflow past the configured horizon).
    pub busy_series: BusyBuckets,
}

/// Full result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Time of the last completion event.
    pub makespan: SimNanos,
    /// Total bytes read by clients.
    pub bytes_read: u64,
    /// Total bytes written by clients.
    pub bytes_written: u64,
    /// Distribution of read-request latencies (seconds).
    pub read_latency: OnlineStats,
    /// Distribution of write-request latencies (seconds).
    pub write_latency: OnlineStats,
    /// Per-server accounting.
    pub servers: Vec<ServerReport>,
    /// Number of file requests completed.
    pub requests_completed: u64,
    /// When each client finished its program.
    pub client_finish: Vec<SimNanos>,
}

impl SimReport {
    /// Aggregate throughput: all bytes moved over the makespan, MiB/s —
    /// the quantity the paper's throughput figures report.
    pub fn throughput_mib_s(&self) -> f64 {
        throughput_mib_s(self.bytes_read + self.bytes_written, self.makespan)
    }

    /// Per-server disk busy times normalised to the minimum — exactly the
    /// presentation of the paper's Fig. 1(a). Servers that served nothing
    /// report 0.
    pub fn normalized_server_times(&self) -> Vec<f64> {
        let min = self
            .servers
            .iter()
            .map(|s| s.disk_busy)
            .filter(|t| !t.is_zero())
            .min()
            .unwrap_or(SimNanos::ZERO);
        if min.is_zero() {
            return self.servers.iter().map(|_| 0.0).collect();
        }
        self.servers
            .iter()
            .map(|s| s.disk_busy.as_secs_f64() / min.as_secs_f64())
            .collect()
    }

    /// Ratio of the busiest to the least-busy active server — the load
    /// imbalance HARL is designed to remove.
    pub fn imbalance(&self) -> f64 {
        let norm = self.normalized_server_times();
        norm.iter().cloned().fold(0.0_f64, f64::max)
    }
}

/// Per-server aggregates distilled from a metrics JSONL dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRow {
    /// Device kind label (`"hdd"` / `"ssd"`), as recorded.
    pub kind: String,
    /// Sub-requests the device served (`pfs.server.sub_requests`).
    pub sub_requests: u64,
    /// Bytes the device served (`pfs.server.bytes`).
    pub bytes: u64,
    /// Median queueing delay upper bound, ns (`pfs.server.queue_wait_ns`).
    pub queue_p50_ns: Option<u64>,
    /// 99th-percentile queueing delay upper bound, ns.
    pub queue_p99_ns: Option<u64>,
    /// Median device service time upper bound, ns (`pfs.server.service_ns`).
    pub service_p50_ns: Option<u64>,
    /// Mean of the sampled utilisation series (`pfs.server.util`), if the
    /// run sampled.
    pub mean_util: Option<f64>,
    /// Peak of the sampled queue-depth series (`pfs.server.queue_depth`).
    pub peak_queue_depth: Option<f64>,
}

/// A metrics JSONL dump parsed into the per-server utilization/queue
/// summary that `harl-cli report` renders.
///
/// The parser is forgiving by design: it keeps whatever `pfs.server.*` /
/// `sim.*` lines it recognises and ignores everything else, so a dump from
/// a richer run (middleware metrics, spans, profiler gauges) still renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// One row per server id.
    pub rows: BTreeMap<usize, MetricsRow>,
    /// Engine events dispatched (`sim.events.dispatched`), if present.
    pub events_dispatched: Option<u64>,
    /// Event-queue depth high-water mark (`sim.queue_depth.hwm`).
    pub queue_depth_hwm: Option<u64>,
    /// File requests issued, summed over `op` labels.
    pub requests_issued: u64,
    /// File requests completed, summed over `op` labels.
    pub requests_completed: u64,
    /// Number of span lines in the dump.
    pub spans: u64,
    /// Wall-time phase profile `(label, seconds)`, if the run profiled.
    pub profile: Vec<(String, f64)>,
}

impl MetricsSummary {
    /// Parse a metrics JSONL dump (as written by
    /// [`harl_simcore::MemoryRecorder::write_jsonl`]).
    ///
    /// Fails only on lines that are not valid JSON objects or that lack a
    /// `type` — unknown metric names are skipped, not rejected.
    pub fn parse(jsonl: &str) -> Result<MetricsSummary, String> {
        let mut out = MetricsSummary::default();
        for (idx, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| format!("metrics line {}: invalid JSON: {e}", idx + 1))?;
            let ty = v
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metrics line {}: missing \"type\"", idx + 1))?;
            if ty == "span" {
                out.spans += 1;
                continue;
            }
            let Some(name) = v.get("name").and_then(Value::as_str) else {
                continue;
            };
            out.absorb(ty, name, &v);
        }
        Ok(out)
    }

    fn absorb(&mut self, ty: &str, name: &str, v: &Value) {
        // Engine-level lines carry no server label.
        if name == registry::SIM_EVENTS_DISPATCHED.name {
            self.events_dispatched = v.get("value").and_then(Value::as_u64);
            return;
        }
        if name == registry::SIM_QUEUE_DEPTH_HWM.name {
            self.queue_depth_hwm = v.get("value").and_then(Value::as_f64).map(|x| x as u64);
            return;
        }
        if name == registry::PFS_REQUESTS_ISSUED.name {
            self.requests_issued += v.get("value").and_then(Value::as_u64).unwrap_or(0);
            return;
        }
        if name == registry::PFS_REQUESTS_COMPLETED.name {
            self.requests_completed += v.get("value").and_then(Value::as_u64).unwrap_or(0);
            return;
        }
        if let Some(rest) = name.strip_prefix("sim.profile.") {
            if let Some(secs) = v.get("value").and_then(Value::as_f64) {
                let label = rest.strip_suffix("_s").unwrap_or(rest).to_string();
                self.profile.push((label, secs));
            }
            return;
        }

        // Everything else of interest is per-server.
        let labels = v.get("labels");
        let Some(server) = labels
            .and_then(|l| l.get("server"))
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<usize>().ok())
        else {
            return;
        };
        let row = self.rows.entry(server).or_default();
        if let Some(kind) = labels.and_then(|l| l.get("kind")).and_then(Value::as_str) {
            row.kind = kind.to_string();
        }
        let quantile = |q: &str| v.get(q).and_then(Value::as_u64);
        if name == registry::PFS_SERVER_SUB_REQUESTS.name {
            row.sub_requests = v.get("value").and_then(Value::as_u64).unwrap_or(0);
        } else if name == registry::PFS_SERVER_BYTES.name {
            row.bytes = v.get("value").and_then(Value::as_u64).unwrap_or(0);
        } else if name == registry::PFS_SERVER_QUEUE_WAIT_NS.name && ty == "histogram" {
            row.queue_p50_ns = quantile("p50");
            row.queue_p99_ns = quantile("p99");
        } else if name == registry::PFS_SERVER_SERVICE_NS.name && ty == "histogram" {
            row.service_p50_ns = quantile("p50");
        } else if name == registry::PFS_SERVER_UTIL.name && ty == "series" {
            if let Some(points) = v.get("points").and_then(Value::as_array) {
                let vals: Vec<f64> = points.iter().filter_map(|p| p[1].as_f64()).collect();
                if !vals.is_empty() {
                    row.mean_util = Some(vals.iter().sum::<f64>() / vals.len() as f64);
                }
            }
        } else if name == registry::PFS_SERVER_QUEUE_DEPTH.name && ty == "series" {
            if let Some(points) = v.get("points").and_then(Value::as_array) {
                row.peak_queue_depth = points
                    .iter()
                    .filter_map(|p| p[1].as_f64())
                    .fold(None, |acc: Option<f64>, x| {
                        Some(acc.map_or(x, |a| a.max(x)))
                    });
            }
        }
    }

    /// Render the summary as a fixed-width text table.
    ///
    /// The output is a pure function of the parsed dump (no wall-clock or
    /// locale input), so renderings of a deterministic run golden-diff
    /// byte-for-byte.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let fmt_opt_u64 = |x: Option<u64>| x.map_or("-".to_string(), |v| v.to_string());
        let fmt_util = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
        let fmt_depth = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.0}"));
        let _ = writeln!(
            s,
            "requests: {} issued, {} completed; spans: {}",
            self.requests_issued, self.requests_completed, self.spans
        );
        if let Some(ev) = self.events_dispatched {
            let _ = writeln!(
                s,
                "engine: {} events dispatched, queue depth hwm {}",
                ev,
                fmt_opt_u64(self.queue_depth_hwm)
            );
        }
        let _ = writeln!(
            s,
            "{:>6} {:>5} {:>10} {:>14} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "server",
            "kind",
            "subreqs",
            "bytes",
            "q_wait_p50",
            "q_wait_p99",
            "service_p50",
            "util",
            "peak_q"
        );
        for (id, row) in &self.rows {
            let _ = writeln!(
                s,
                "{:>6} {:>5} {:>10} {:>14} {:>12} {:>12} {:>12} {:>8} {:>8}",
                id,
                row.kind,
                row.sub_requests,
                row.bytes,
                fmt_opt_u64(row.queue_p50_ns),
                fmt_opt_u64(row.queue_p99_ns),
                fmt_opt_u64(row.service_p50_ns),
                fmt_util(row.mean_util),
                fmt_depth(row.peak_queue_depth),
            );
        }
        if !self.profile.is_empty() {
            let _ = writeln!(s, "phase profile (wall time):");
            for (label, secs) in &self.profile {
                let _ = writeln!(s, "  {label:<16} {secs:.6}s");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_busy(times_ms: &[u64]) -> SimReport {
        // (series unused by these tests)
        SimReport {
            makespan: SimNanos::from_secs(1),
            bytes_read: 1024 * 1024,
            bytes_written: 0,
            read_latency: OnlineStats::new(),
            write_latency: OnlineStats::new(),
            servers: times_ms
                .iter()
                .enumerate()
                .map(|(i, &ms)| ServerReport {
                    id: i,
                    kind: DeviceKind::Hdd,
                    disk_busy: SimNanos::from_millis(ms),
                    nic_busy: SimNanos::ZERO,
                    disk_jobs: 1,
                    disk_queued: SimNanos::ZERO,
                    bytes: 0,
                    busy_series: BusyBuckets::new(SimNanos::from_millis(100), 4),
                })
                .collect(),
            requests_completed: 1,
            client_finish: vec![],
        }
    }

    #[test]
    fn busy_buckets_split_across_boundaries() {
        let mut b = BusyBuckets::new(SimNanos(100), 4);
        b.record(SimNanos(50), SimNanos(250));
        assert_eq!(b.buckets[0], SimNanos(50));
        assert_eq!(b.buckets[1], SimNanos(100));
        assert_eq!(b.buckets[2], SimNanos(50));
        assert_eq!(b.total(), SimNanos(200));
        let u = b.utilisation();
        assert!((u[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_buckets_overflow_goes_to_last() {
        let mut b = BusyBuckets::new(SimNanos(100), 2);
        b.record(SimNanos(500), SimNanos(700));
        assert_eq!(b.buckets[1], SimNanos(200));
        assert_eq!(b.total(), SimNanos(200));
    }

    #[test]
    fn busy_buckets_straddle_into_overflow() {
        // An interval that starts in range and runs far past the series end
        // must land its in-range part normally and absorb the whole tail in
        // the last bucket as one chunk (no per-width iteration past the end).
        let mut b = BusyBuckets::new(SimNanos(100), 3);
        b.record(SimNanos(150), SimNanos(1_000));
        assert_eq!(b.buckets[0], SimNanos::ZERO);
        assert_eq!(b.buckets[1], SimNanos(50)); // [150, 200)
        assert_eq!(b.buckets[2], SimNanos(800)); // [200, 1000) absorbed
        assert_eq!(b.total(), SimNanos(850));
        // The overflow bucket's utilisation is allowed to exceed 1.0.
        let u = b.utilisation();
        assert!((u[2] - 8.0).abs() < 1e-12);
        assert!(u[0] == 0.0 && (u[1] - 0.5).abs() < 1e-12);
        // Repeated overflow keeps accumulating in the same bucket.
        b.record(SimNanos(2_000), SimNanos(2_100));
        assert_eq!(b.buckets[2], SimNanos(900));
    }

    #[test]
    fn busy_buckets_grow_only_to_the_last_touched_bucket() {
        let mut b = BusyBuckets::new(SimNanos(100), 1024);
        assert!(b.buckets.is_empty());
        // An empty interval touches nothing.
        b.record(SimNanos(70), SimNanos(70));
        assert!(b.buckets.is_empty());
        // [50, 200) ends exactly on a boundary: buckets 0 and 1 only.
        b.record(SimNanos(50), SimNanos(200));
        assert_eq!(b.buckets, vec![SimNanos(50), SimNanos(100)]);
        assert_eq!(b.total(), SimNanos(150));
        // A run ending at t = 450 reads buckets 2..=4 as idle.
        assert_eq!(
            b.utilisation_through(SimNanos(450)),
            vec![0.5, 1.0, 0.0, 0.0, 0.0]
        );
        // Past the cap, the series stops at `cap` buckets.
        assert_eq!(b.utilisation_through(SimNanos(1 << 40)).len(), 1024);
        b.record(SimNanos(1 << 40), SimNanos((1 << 40) + 7));
        assert_eq!(b.buckets.len(), 1024);
        assert_eq!(b.buckets[1023], SimNanos(7));
    }

    #[test]
    #[should_panic(expected = "degenerate bucket")]
    fn zero_width_rejected() {
        BusyBuckets::new(SimNanos::ZERO, 4);
    }

    #[test]
    fn throughput_simple() {
        let r = report_with_busy(&[1]);
        assert!((r.throughput_mib_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalisation_vs_min() {
        let r = report_with_busy(&[350, 100, 200]);
        let n = r.normalized_server_times();
        assert!((n[0] - 3.5).abs() < 1e-9);
        assert!((n[1] - 1.0).abs() < 1e-9);
        assert!((r.imbalance() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn idle_servers_ignored_for_min() {
        let r = report_with_busy(&[0, 100, 300]);
        let n = r.normalized_server_times();
        assert_eq!(n[0], 0.0);
        assert!((n[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_idle_is_zeroes() {
        let r = report_with_busy(&[0, 0]);
        assert_eq!(r.normalized_server_times(), vec![0.0, 0.0]);
        assert_eq!(r.imbalance(), 0.0);
    }

    fn sample_jsonl() -> String {
        [
            r#"{"type":"counter","name":"pfs.requests.issued","labels":{"op":"read"},"value":3}"#,
            r#"{"type":"counter","name":"pfs.requests.issued","labels":{"op":"write"},"value":2}"#,
            r#"{"type":"counter","name":"pfs.requests.completed","labels":{"op":"read"},"value":3}"#,
            r#"{"type":"counter","name":"pfs.requests.completed","labels":{"op":"write"},"value":2}"#,
            r#"{"type":"counter","name":"sim.events.dispatched","labels":{},"value":120}"#,
            r#"{"type":"gauge","name":"sim.queue_depth.hwm","labels":{},"value":9.0}"#,
            r#"{"type":"counter","name":"pfs.server.sub_requests","labels":{"server":"0","kind":"hdd"},"value":40}"#,
            r#"{"type":"counter","name":"pfs.server.bytes","labels":{"server":"0","kind":"hdd"},"value":262144}"#,
            r#"{"type":"histogram","name":"pfs.server.queue_wait_ns","labels":{"server":"0","kind":"hdd"},"count":40,"p50":4095,"p95":65535,"p99":131071,"buckets":[[4095,30],[131071,10]]}"#,
            r#"{"type":"histogram","name":"pfs.server.service_ns","labels":{"server":"0","kind":"hdd"},"count":40,"p50":8191,"p95":16383,"p99":16383,"buckets":[[8191,40]]}"#,
            r#"{"type":"series","name":"pfs.server.util","labels":{"server":"0","kind":"hdd"},"points":[[5000000,0.5],[10000000,1.0]],"count":2}"#,
            r#"{"type":"series","name":"pfs.server.queue_depth","labels":{"server":"0","kind":"hdd"},"points":[[5000000,3.0],[10000000,7.0]],"count":2}"#,
            r#"{"type":"counter","name":"pfs.server.sub_requests","labels":{"server":"1","kind":"ssd"},"value":8}"#,
            r#"{"type":"span","kind":"request","id":0,"labels":{},"issued_ns":0,"completed_ns":10,"latency_ns":10,"hops":[]}"#,
        ]
        .join("\n")
    }

    #[test]
    fn metrics_summary_parses_jsonl() {
        let s = MetricsSummary::parse(&sample_jsonl()).expect("parses");
        assert_eq!(s.requests_issued, 5);
        assert_eq!(s.requests_completed, 5);
        assert_eq!(s.events_dispatched, Some(120));
        assert_eq!(s.queue_depth_hwm, Some(9));
        assert_eq!(s.spans, 1);
        assert_eq!(s.rows.len(), 2);
        let r0 = &s.rows[&0];
        assert_eq!(r0.kind, "hdd");
        assert_eq!(r0.sub_requests, 40);
        assert_eq!(r0.bytes, 262144);
        assert_eq!(r0.queue_p50_ns, Some(4095));
        assert_eq!(r0.queue_p99_ns, Some(131071));
        assert_eq!(r0.service_p50_ns, Some(8191));
        assert_eq!(r0.mean_util, Some(0.75));
        assert_eq!(r0.peak_queue_depth, Some(7.0));
        let r1 = &s.rows[&1];
        assert_eq!(r1.sub_requests, 8);
        assert_eq!(r1.mean_util, None, "server 1 was never sampled");
    }

    #[test]
    fn metrics_summary_render_is_stable() {
        let s = MetricsSummary::parse(&sample_jsonl()).expect("parses");
        let text = s.render();
        assert!(text.contains("requests: 5 issued, 5 completed; spans: 1"));
        assert!(text.contains("engine: 120 events dispatched, queue depth hwm 9"));
        assert!(text.contains("hdd"));
        assert!(text.contains("75.0%"));
        // Rendering twice yields identical bytes (golden-diffable).
        assert_eq!(text, s.render());
    }

    #[test]
    fn metrics_summary_rejects_garbage_lines() {
        assert!(MetricsSummary::parse("not json").is_err());
        assert!(MetricsSummary::parse(r#"{"no_type":1}"#).is_err());
        // Unknown-but-well-formed lines are skipped, blank lines ignored.
        let ok = MetricsSummary::parse(
            "\n{\"type\":\"counter\",\"name\":\"mw.region.requests\",\"labels\":{\"region\":\"0\"},\"value\":4}\n",
        )
        .expect("forgiving");
        assert_eq!(ok.rows.len(), 0);
    }

    #[test]
    fn metrics_summary_profile_lines() {
        let jsonl = r#"{"type":"gauge","name":"sim.profile.dispatch_s","labels":{},"value":0.25}"#;
        let s = MetricsSummary::parse(jsonl).expect("parses");
        assert_eq!(s.profile, vec![("dispatch".to_string(), 0.25)]);
        assert!(s.render().contains("phase profile"));
        assert!(s.render().contains("dispatch"));
    }
}
