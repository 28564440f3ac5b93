//! Correctness checks on the program's outputs.
//!
//! Every timed operation is checked after its timing ends. An operation
//! that fails any check counts as failed; `failed / attempted` is the
//! benchmark's error rate.

use harl_repro::prelude::*;

/// Failure accounting for one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed at least one check.
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Account one operation whose checks returned `outcome`.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        self.fail_on(outcome);
    }

    /// Record a failed check that belongs to an already-counted
    /// operation or to a whole pass (counted as one more failure).
    pub fn fail_on(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// `failed / attempted`, 0 when nothing ran.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The RST rows tile `[0, file_size)` exactly, and every row stores data.
pub fn rst_tiles(entries: &[RstEntry], file_size: u64) -> Result<(), String> {
    let mut next = 0u64;
    for (i, e) in entries.iter().enumerate() {
        if e.offset != next {
            return Err(format!("RST row {i} starts at {} not {next}", e.offset));
        }
        if e.len == 0 || e.widths().iter().all(|&w| w == 0) {
            return Err(format!("RST row {i} is empty"));
        }
        next = e.end();
    }
    if next != file_size {
        return Err(format!(
            "RST covers {next} bytes of a {file_size}-byte file"
        ));
    }
    Ok(())
}

/// The simulation moved exactly the bytes the workload asked for.
pub fn bytes_moved(report: &SimReport, expected: (u64, u64)) -> Result<(), String> {
    let moved = (report.bytes_read, report.bytes_written);
    if moved == expected {
        Ok(())
    } else {
        Err(format!(
            "simulated (read, written) {moved:?} but the workload asked for {expected:?}"
        ))
    }
}

/// The parts of a simulation report that must repeat bit for bit when
/// the same job runs again.
pub fn report_digest(report: &SimReport) -> (u64, u64, u64, u64) {
    (
        report.makespan.as_nanos(),
        report.bytes_read,
        report.bytes_written,
        report.requests_completed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_repro::simcore::OnlineStats;

    const MIB: u64 = 1 << 20;

    fn report(read: u64, written: u64) -> SimReport {
        SimReport {
            makespan: SimNanos::ZERO,
            bytes_read: read,
            bytes_written: written,
            read_latency: OnlineStats::new(),
            write_latency: OnlineStats::new(),
            servers: Vec::new(),
            requests_completed: 0,
            client_finish: Vec::new(),
        }
    }

    #[test]
    fn a_sound_job_passes() {
        let rst = RegionStripeTable::new(vec![
            RstEntry::two(0, 4 * MIB, 64 << 10, 64 << 10),
            RstEntry::two(4 * MIB, 4 * MIB, 0, 128 << 10),
        ]);
        let mut checks = Checks::default();
        checks.op(rst_tiles(rst.entries(), 8 * MIB));
        checks.op(bytes_moved(&report(8 * MIB, 0), (8 * MIB, 0)));
        assert_eq!(checks.failed, 0);
        assert_eq!(checks.error_rate(), 0.0);
    }

    #[test]
    fn corrupted_rst_and_short_report_raise_the_error_rate() {
        let gapped = [
            RstEntry::two(0, 4 * MIB, 64 << 10, 64 << 10),
            RstEntry::two(5 * MIB, 3 * MIB, 64 << 10, 64 << 10),
        ];
        let short = [RstEntry::two(0, 4 * MIB, 64 << 10, 64 << 10)];
        let empty = [RstEntry::two(0, 8 * MIB, 0, 0)];
        let mut checks = Checks::default();
        checks.op(rst_tiles(&gapped, 8 * MIB));
        checks.op(rst_tiles(&short, 8 * MIB));
        checks.op(rst_tiles(&empty, 8 * MIB));
        checks.op(bytes_moved(&report(8 * MIB - 1, 0), (8 * MIB, 0)));
        checks.op(Ok(()));
        assert_eq!((checks.attempted, checks.failed), (5, 4));
        assert!(checks.error_rate() > 0.0);
        assert!(checks.first_failure.is_some_and(|w| w.contains("row 1")));
    }
}
