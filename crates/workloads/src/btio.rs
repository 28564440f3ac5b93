//! BTIO-like workload (NAS Parallel Benchmarks BT, I/O subtype "full").
//!
//! BTIO solves the 3-D compressible Navier–Stokes equations with a
//! block-tridiagonal scheme and, every `write_interval` time steps,
//! collectively appends the full solution array (5 doubles per grid cell)
//! to a shared file; after the time loop, the file is read back for
//! verification. The "full" subtype uses MPI collective I/O
//! (`MPI_File_write_all`), which is where two-phase optimisation matters:
//! each rank's contribution is a *nested-strided* pattern of short runs.
//!
//! Decomposition: the official BT uses a square process grid (P must be a
//! perfect square) over a diagonal cell decomposition. We reproduce the
//! resulting *file access pattern* with a 2-D block decomposition of the
//! (x, y) plane: rank (i, j) owns `x ∈ [x0, x1)` × `y ∈ [y0, y1)` for all
//! z, so each dump contributes `grid × ny_local` runs of `nx_local` cells —
//! the same many-short-runs shape that makes BTIO hard on a PFS.
//!
//! Sizing: the paper reports "Class A, full subtype … writes and reads a
//! total size of 1.69 GB". We size the default grid/steps to hit that
//! total (grid 104³ × 40 B/cell ≈ 45 MiB per dump, 20 dumps ⇒ ≈0.88 GiB
//! written and the same read back ≈ 1.76 GB total, the closest divisible
//! geometry).

use harl_devices::OpKind;
use harl_middleware::{LogicalRequest, Workload};
use harl_simcore::SimNanos;
use serde::{Deserialize, Serialize};

/// Bytes per grid cell: 5 solution components × 8-byte doubles.
pub const BYTES_PER_CELL: u64 = 40;

/// Configuration of one BTIO run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BtioConfig {
    /// Grid points per dimension (the solution array is `grid³` cells).
    pub grid: usize,
    /// Number of time steps.
    pub steps: usize,
    /// Dump the solution every this many steps (BTIO's `wr_interval`).
    pub write_interval: usize,
    /// Number of processes; must be a perfect square (BTIO requirement).
    pub processes: usize,
    /// Computation time per time step (0 to measure pure I/O, as the
    /// paper's aggregate-I/O-throughput numbers do).
    pub compute_per_step: SimNanos,
}

impl BtioConfig {
    /// The paper's workload: class-A-labelled full-subtype run totalling
    /// ≈1.7 GB of file I/O (see module docs), at the given process count
    /// (4, 16 or 64 in the paper).
    pub fn paper_default(processes: usize) -> Self {
        BtioConfig {
            grid: 104,
            steps: 40,
            write_interval: 2,
            processes,
            compute_per_step: SimNanos::ZERO,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(processes: usize) -> Self {
        BtioConfig {
            grid: 16,
            steps: 4,
            write_interval: 2,
            processes,
            compute_per_step: SimNanos::ZERO,
        }
    }

    /// Size of one solution dump in bytes.
    pub fn dump_size(&self) -> u64 {
        (self.grid as u64).pow(3) * BYTES_PER_CELL
    }

    /// Number of dumps over the run.
    pub fn dump_count(&self) -> usize {
        self.steps / self.write_interval
    }

    /// Final output file size.
    pub fn file_size(&self) -> u64 {
        self.dump_size() * self.dump_count() as u64
    }

    /// Total bytes moved (writes + verification read-back).
    pub fn total_io_bytes(&self) -> u64 {
        2 * self.file_size()
    }

    /// The block-distributed interval `[lo, hi)` of `n` items over `parts`
    /// parts for part `k` (first `n % parts` parts get one extra).
    fn block(n: usize, parts: usize, k: usize) -> (usize, usize) {
        let base = n / parts;
        let extra = n % parts;
        let lo = k * base + k.min(extra);
        let hi = lo + base + usize::from(k < extra);
        (lo, hi)
    }

    /// One rank's contribution to a dump at file offset `dump_base`.
    fn rank_requests(&self, rank: usize, dump_base: u64, op: OpKind) -> Vec<LogicalRequest> {
        let side = (self.processes as f64).sqrt() as usize;
        let (pi, pj) = (rank % side, rank / side);
        let n = self.grid;
        let (x0, x1) = Self::block(n, side, pi);
        let (y0, y1) = Self::block(n, side, pj);
        let mut reqs = Vec::with_capacity(n * (y1 - y0));
        for z in 0..n {
            for y in y0..y1 {
                let cell_index = (z * n + y) * n + x0;
                let offset = dump_base + cell_index as u64 * BYTES_PER_CELL;
                let size = (x1 - x0) as u64 * BYTES_PER_CELL;
                reqs.push(LogicalRequest { op, offset, size });
            }
        }
        reqs
    }

    /// Check the preconditions of [`BtioConfig::build`]: `processes` is a
    /// positive perfect square and the step/interval combination produces
    /// at least one dump.
    pub fn check(&self) -> Result<(), String> {
        let side = (self.processes as f64).sqrt() as usize;
        if side == 0 || side * side != self.processes {
            return Err(format!(
                "BTIO requires a square number of processes, got {}",
                self.processes
            ));
        }
        if self.write_interval == 0 || self.dump_count() == 0 {
            return Err(format!(
                "no dumps: steps {} interval {}",
                self.steps, self.write_interval
            ));
        }
        Ok(())
    }

    /// Generate the workload: the interleaved compute/collective-write time
    /// loop, then the collective verification read.
    ///
    /// # Panics
    /// Panics when [`BtioConfig::check`] fails.
    pub fn build(&self) -> Workload {
        let checked = self.check();
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());

        let mut workload = Workload::with_ranks(self.processes);
        for step in 1..=self.steps {
            let is_dump = step % self.write_interval == 0;
            for (rank, prog) in workload.ranks.iter_mut().enumerate() {
                if !self.compute_per_step.is_zero() {
                    prog.push_compute(self.compute_per_step);
                }
                if is_dump {
                    let dump_index = (step / self.write_interval - 1) as u64;
                    let base = dump_index * self.dump_size();
                    prog.push_collective(self.rank_requests(rank, base, OpKind::Write));
                }
            }
        }
        // Verification read-back of the whole file, dump by dump.
        for dump in 0..self.dump_count() as u64 {
            let base = dump * self.dump_size();
            for (rank, prog) in workload.ranks.iter_mut().enumerate() {
                prog.push_collective(self.rank_requests(rank, base, OpKind::Read));
            }
        }
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_totals_about_1_7_gb() {
        let cfg = BtioConfig::paper_default(16);
        let total = cfg.total_io_bytes() as f64 / 1e9;
        assert!(
            (1.5..2.0).contains(&total),
            "total I/O {total:.2} GB should approximate the paper's 1.69 GB"
        );
    }

    #[test]
    fn bytes_conserved_across_ranks() {
        let cfg = BtioConfig::tiny(4);
        let w = cfg.build();
        let (read, written) = w.total_bytes();
        assert_eq!(written, cfg.file_size());
        assert_eq!(read, cfg.file_size());
        assert_eq!(w.extent(), cfg.file_size());
    }

    #[test]
    fn dump_partition_is_exact_and_disjoint() {
        // Every cell of one dump is written exactly once across ranks.
        let cfg = BtioConfig::tiny(4);
        let mut covered = vec![false; cfg.dump_size() as usize / BYTES_PER_CELL as usize];
        for rank in 0..4 {
            for req in cfg.rank_requests(rank, 0, OpKind::Write) {
                let first = (req.offset / BYTES_PER_CELL) as usize;
                let cells = (req.size / BYTES_PER_CELL) as usize;
                for (c, slot) in covered.iter_mut().enumerate().skip(first).take(cells) {
                    assert!(!slot.to_owned(), "cell {c} written twice");
                    *slot = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "dump not fully covered");
    }

    #[test]
    fn runs_are_nested_strided() {
        // Rank 0 of a 4-process run owns half of each row plane: its run
        // length is nx_local cells and runs repeat every grid cells.
        let cfg = BtioConfig::tiny(4);
        let reqs = cfg.rank_requests(0, 0, OpKind::Write);
        assert_eq!(reqs.len(), cfg.grid * cfg.grid / 2);
        let run = reqs[0].size;
        assert_eq!(run, (cfg.grid as u64 / 2) * BYTES_PER_CELL);
        assert_eq!(
            reqs[1].offset - reqs[0].offset,
            cfg.grid as u64 * BYTES_PER_CELL
        );
    }

    #[test]
    fn collective_calls_match_across_ranks() {
        let w = BtioConfig::tiny(9).build();
        assert!(w.validate_collectives().is_ok());
        assert_eq!(
            w.ranks[0].collective_calls(),
            BtioConfig::tiny(9).dump_count() * 2
        );
    }

    #[test]
    fn uneven_grid_split_still_covers() {
        // grid 10 over 9 processes (side 3): blocks of 4/3/3.
        let cfg = BtioConfig {
            grid: 10,
            steps: 2,
            write_interval: 2,
            processes: 9,
            compute_per_step: SimNanos::ZERO,
        };
        let w = cfg.build();
        let (_, written) = w.total_bytes();
        assert_eq!(written, cfg.file_size());
    }

    #[test]
    #[should_panic(expected = "square number")]
    fn non_square_process_count_rejected() {
        BtioConfig::tiny(6).build();
    }

    #[test]
    fn compute_steps_included_when_configured() {
        let mut cfg = BtioConfig::tiny(4);
        cfg.compute_per_step = SimNanos::from_millis(10);
        let w = cfg.build();
        let computes = w.ranks[0]
            .steps
            .iter()
            .filter(|s| matches!(s, harl_middleware::LogicalStep::Compute(_)))
            .count();
        assert_eq!(computes, cfg.steps);
    }
}
