//! I/O trace collection — the stand-in for the paper's IOSIG tool.
//!
//! From Sec. III-B: the trace collector records *"process ID, MPI rank,
//! file descriptor, type of operation, offset, request size, and time
//! stamp"* during the application's first run, then *"sorts all file read
//! and write requests in ascending order in terms of their offsets"* to
//! feed region division.
//!
//! [`TraceRecord`] is one such tuple, [`Trace`] the collected set with the
//! offset-sorted view and JSON-lines persistence (the paper stores its
//! artifacts next to the application; we do the same).

use harl_devices::OpKind;
use harl_simcore::{OnlineStats, SimNanos};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// One recorded file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// MPI rank (doubles as process id in the simulation).
    pub rank: u32,
    /// File descriptor — distinguishes files when an application opens
    /// several; region division runs per file.
    pub fd: u32,
    /// Read or write.
    pub op: OpKind,
    /// Byte offset of the request within the logical file.
    pub offset: u64,
    /// Request size in bytes.
    pub size: u64,
    /// Simulated time at which the request was issued.
    pub timestamp: SimNanos,
}

/// A collected I/O trace for one logical file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build from records (kept in the given order until sorted).
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// Record one operation.
    pub fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    /// All records in collection order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The offset-sorted view the analysis phase consumes (paper III-B).
    ///
    /// Sorting is stable, so requests at equal offsets keep issue order.
    pub fn sorted_by_offset(&self) -> Vec<TraceRecord> {
        let mut v = self.records.clone();
        v.sort_by_key(|r| r.offset);
        v
    }

    /// Largest byte touched by any request (exclusive), i.e. the file size
    /// implied by the trace. 0 for an empty trace.
    pub fn extent(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.offset + r.size)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes moved, `(read, written)`.
    pub fn total_bytes(&self) -> (u64, u64) {
        let mut read = 0;
        let mut written = 0;
        for r in &self.records {
            match r.op {
                OpKind::Read => read += r.size,
                OpKind::Write => written += r.size,
            }
        }
        (read, written)
    }

    /// Distribution of request sizes.
    pub fn size_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for r in &self.records {
            s.push(r.size as f64);
        }
        s
    }

    /// Persist as JSON lines (one record per line).
    pub fn save<W: Write>(&self, w: W) -> std::io::Result<()> {
        let mut w = BufWriter::new(w);
        for rec in &self.records {
            serde_json::to_writer(&mut w, rec)?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Load from JSON lines; blank lines are skipped. A line that does
    /// not parse, or whose `offset + size` overflows u64, fails the load
    /// with an error naming the line.
    pub fn load<R: Read>(r: R) -> std::io::Result<Self> {
        let mut records = Vec::new();
        for (idx, line) in BufReader::new(r).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec = parse_line(&line).map_err(|reason| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {reason}", idx + 1),
                )
            })?;
            records.push(rec);
        }
        Ok(Trace { records })
    }

    /// Persist to a file path.
    pub fn save_to_path(&self, path: &Path) -> std::io::Result<()> {
        self.save(std::fs::File::create(path)?)
    }

    /// Load from a file path; parse failures and records whose
    /// `offset + size` overflows u64 report the file, the offending line,
    /// and the reason.
    pub fn load_from_path(path: &Path) -> Result<Self, crate::errors::LoadError> {
        use crate::errors::LoadError;
        let data = std::fs::read_to_string(path)
            .map_err(|e| LoadError::whole_file(path, format!("cannot read file: {e}")))?;
        let mut records = Vec::new();
        for (idx, line) in data.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = parse_line(line).map_err(|reason| LoadError {
                path: path.to_path_buf(),
                line: Some(idx + 1),
                reason,
            })?;
            records.push(rec);
        }
        Ok(Trace { records })
    }
}

/// Parse one JSON-lines record. A request whose extent runs past the end
/// of a u64 offset has no place in any file, so it is rejected here rather
/// than wrapping in every extent sum downstream.
fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let rec: TraceRecord = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if rec.offset.checked_add(rec.size).is_none() {
        return Err(format!(
            "offset {} + size {} overflows u64",
            rec.offset, rec.size
        ));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(offset: u64, size: u64, op: OpKind) -> TraceRecord {
        TraceRecord {
            rank: 0,
            fd: 3,
            op,
            offset,
            size,
            timestamp: SimNanos::ZERO,
        }
    }

    #[test]
    fn sorted_view_is_by_offset() {
        let t = Trace::from_records(vec![
            rec(300, 10, OpKind::Read),
            rec(100, 10, OpKind::Write),
            rec(200, 10, OpKind::Read),
        ]);
        let sorted = t.sorted_by_offset();
        let offsets: Vec<u64> = sorted.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![100, 200, 300]);
        // Original order preserved.
        assert_eq!(t.records()[0].offset, 300);
    }

    #[test]
    fn sort_is_stable_at_equal_offsets() {
        let mut a = rec(100, 10, OpKind::Read);
        a.rank = 1;
        let mut b = rec(100, 20, OpKind::Write);
        b.rank = 2;
        let t = Trace::from_records(vec![a, b]);
        let sorted = t.sorted_by_offset();
        assert_eq!(sorted[0].rank, 1);
        assert_eq!(sorted[1].rank, 2);
    }

    #[test]
    fn extent_and_bytes() {
        let t = Trace::from_records(vec![
            rec(0, 100, OpKind::Read),
            rec(500, 100, OpKind::Write),
        ]);
        assert_eq!(t.extent(), 600);
        assert_eq!(t.total_bytes(), (100, 100));
        assert_eq!(Trace::new().extent(), 0);
    }

    #[test]
    fn size_stats() {
        let t = Trace::from_records(vec![rec(0, 100, OpKind::Read), rec(0, 300, OpKind::Read)]);
        let s = t.size_stats();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::from_records(vec![
            rec(0, 4096, OpKind::Write),
            rec(4096, 8192, OpKind::Read),
        ]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn load_skips_blank_lines() {
        let data = b"\n\n";
        let t = Trace::load(&data[..]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn load_rejects_garbage() {
        let data = b"not json\n";
        assert!(Trace::load(&data[..]).is_err());
    }

    #[test]
    fn load_rejects_an_extent_past_u64_naming_its_line() {
        let mut last = rec(u64::MAX - 65_535, 65_535, OpKind::Read);
        let t = Trace::from_records(vec![rec(0, 4096, OpKind::Read), last]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        // Ending exactly at u64::MAX still fits.
        assert_eq!(Trace::load(&buf[..]).unwrap(), t);

        last.size += 1;
        let t = Trace::from_records(vec![rec(0, 4096, OpKind::Read), last]);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let err = Trace::load(&buf[..]).unwrap_err().to_string();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains("overflows u64"), "{err}");

        let path =
            std::env::temp_dir().join(format!("harl-trace-overflow-{}.jsonl", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let err = Trace::load_from_path(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("overflows u64"), "{}", err.reason);
    }
}
