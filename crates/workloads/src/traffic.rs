//! Replayable multi-tenant traffic: heavy-tailed arrivals of IOR, BTIO
//! and phased jobs for the planning service.
//!
//! Real cloud PFS front-ends see many small concurrent tenants whose
//! workloads *repeat* (the same application resubmitted) and occasionally
//! *drift* (a new input deck changes one phase). [`TrafficConfig`]
//! captures that shape deterministically: a seeded arrival schedule of
//! [`TrafficJob`]s, where tenant popularity is heavy-tailed (min-of-three
//! uniform draws — low tenant ids dominate, a long tail of rare ones),
//! each tenant runs one home template, and a coin per arrival mutates the
//! template's final phase (drift). Everything is a pure function of the
//! config: the same seed replays the exact same fleet, so plan-cache hit
//! rates and service benchmarks are reproducible bit for bit.

use crate::btio::BtioConfig;
use crate::ior::{AccessOrder, IorConfig};
use crate::phased::{Phase, PhasedConfig};
use harl_devices::OpKind;
use harl_middleware::Workload;
use harl_simcore::SimRng;
use serde::{Deserialize, Serialize};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;
/// Floor of a template phase's file area.
const MIN_PHASE_AREA: u64 = 4 * MB;
/// Floor of a phased template's request size.
const MIN_REQUEST: u64 = 4 * KB;

/// A deterministic multi-tenant traffic specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Distinct tenants (files) in the fleet.
    pub tenants: usize,
    /// Service ticks the schedule spans.
    pub ticks: usize,
    /// Plan submissions arriving per tick.
    pub arrivals_per_tick: usize,
    /// Distinct job templates; tenant `t` runs template `t % templates`.
    pub templates: usize,
    /// Percent chance (0–100) that an arrival drifts its template's final
    /// phase (doubled request size) — the incremental re-plan trigger.
    pub drift_pct: u64,
    /// Processes per job.
    pub processes: usize,
    /// File area per template phase (floor 4 MiB).
    pub base_bytes: u64,
    /// Master seed; every draw derives from it.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 16,
            ticks: 8,
            arrivals_per_tick: 4,
            templates: 4,
            drift_pct: 0,
            processes: 4,
            base_bytes: 8 * MB,
            seed: 0x07EA_FF1C,
        }
    }
}

/// One plan submission in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficJob {
    /// Service tick the job arrives in.
    pub tick: usize,
    /// Submitting tenant (also selects the file and the home template).
    pub tenant: u64,
    /// Job template index.
    pub template: usize,
    /// Whether this arrival drifts the template's final phase.
    pub drifted: bool,
}

impl TrafficConfig {
    /// The full deterministic arrival schedule, in (tick, arrival) order.
    pub fn jobs(&self) -> Vec<TrafficJob> {
        assert!(self.tenants > 0, "need at least one tenant");
        assert!(self.templates > 0, "need at least one template");
        let mut out = Vec::with_capacity(self.ticks * self.arrivals_per_tick);
        for tick in 0..self.ticks {
            let mut rng = SimRng::derived(self.seed, &format!("traffic-tick-{tick}"));
            for _ in 0..self.arrivals_per_tick {
                // Heavy tail: min of three uniform draws skews the mass
                // onto low tenant ids (P(tenant = t) ∝ roughly (1 - t/N)²).
                let hi = self.tenants as u64 - 1;
                let tenant = rng
                    .uniform_u64(0, hi)
                    .min(rng.uniform_u64(0, hi))
                    .min(rng.uniform_u64(0, hi));
                let template = (tenant as usize) % self.templates;
                // BTIO templates are collective dumps with a fixed
                // geometry; they never drift.
                let drifted =
                    rng.uniform_u64(0, 99) < self.drift_pct && template % BTIO_EVERY != BTIO_SLOT;
                out.push(TrafficJob {
                    tick,
                    tenant,
                    template,
                    drifted,
                });
            }
        }
        out
    }

    /// Fails when a phased template cannot give each process one request.
    /// [`build_workload`](Self::build_workload) raises the phase area to
    /// at least 4 MiB and the request size to at least 4 KiB, so more than
    /// `area / 4 KiB` processes leave each a share below the smallest
    /// request (and the phased generator would panic).
    pub fn check_processes(&self) -> Result<(), String> {
        let area = self.base_bytes.max(MIN_PHASE_AREA);
        let share = area / self.processes.max(1) as u64;
        if share < MIN_REQUEST {
            return Err(format!(
                "traffic.processes {} share a {area}-byte phase at {share} bytes each, \
                 less than one {MIN_REQUEST}-byte request (at most {} processes)",
                self.processes,
                area / MIN_REQUEST
            ));
        }
        Ok(())
    }

    /// Materialise one job: the workload its tenant submits plus the
    /// logical file size to plan for. Pure in `(self, job.template,
    /// job.drifted)` — re-arrivals of the same template replay the exact
    /// same trace (that is what makes plan caching pay).
    ///
    /// Drift only touches the *final* phase of a phased template (request
    /// size doubled) and leaves the file size alone, so a drifted arrival
    /// changes the tail regions' fingerprint buckets while every earlier
    /// region keeps its exact per-region search key — the incremental
    /// re-plan sweet spot.
    pub fn build_workload(&self, job: &TrafficJob) -> (Workload, u64) {
        let t = job.template;
        let unit = self.base_bytes.max(MIN_PHASE_AREA);
        let processes = self.processes.max(1);
        if t % BTIO_EVERY == BTIO_SLOT {
            // Collective BTIO-style dump (plan-only traffic: the tracing
            // phase records the per-rank requests as issued).
            let side = (1..=8).rev().find(|s| s * s <= processes).unwrap_or(1);
            let w = BtioConfig::tiny(side * side).build();
            let size = w.extent().max(1);
            return (w, size);
        }
        if t % 3 == 1 {
            // Single-phase IOR job.
            let rs = if job.drifted { 512 * KB } else { 256 * KB };
            let file_size = (2 * unit).max(processes as u64 * rs);
            let cfg = IorConfig {
                processes,
                request_size: rs,
                file_size,
                op: if t.is_multiple_of(2) {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                order: AccessOrder::Sequential,
                seed: self.seed ^ t as u64,
            };
            return (cfg.build(), file_size);
        }
        // Multi-phase template: 2–4 phases of varying size and op mix.
        let nphases = 2 + t % 3;
        let segment = unit / processes as u64;
        let mut phases = Vec::with_capacity(nphases);
        for p in 0..nphases {
            let mut rs = (64 * KB) << ((t + p) % 4);
            if job.drifted && p == nphases - 1 {
                rs *= 2;
            }
            // Every process must fit at least one request in its segment.
            rs = rs.min(segment.max(MIN_REQUEST));
            let op = if (t + p).is_multiple_of(2) {
                OpKind::Read
            } else {
                OpKind::Write
            };
            phases.push(Phase::new(p as u64 * unit, unit, rs, op));
        }
        let span = nphases as u64 * unit;
        let cfg = PhasedConfig {
            phases,
            processes,
            seed: self.seed ^ (t as u64).rotate_left(17),
        };
        let w = cfg.build();
        let size = span.max(w.extent());
        (w, size)
    }
}

/// Every `BTIO_EVERY`-th template starting at `BTIO_SLOT` is a BTIO dump.
const BTIO_EVERY: usize = 7;
const BTIO_SLOT: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_replayable() {
        let cfg = TrafficConfig {
            tenants: 32,
            ticks: 4,
            arrivals_per_tick: 8,
            drift_pct: 25,
            ..TrafficConfig::default()
        };
        let a = cfg.jobs();
        let b = cfg.jobs();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|j| (j.tenant as usize) < 32));
    }

    #[test]
    fn arrivals_are_heavy_tailed() {
        let cfg = TrafficConfig {
            tenants: 64,
            ticks: 64,
            arrivals_per_tick: 8,
            ..TrafficConfig::default()
        };
        let jobs = cfg.jobs();
        let low: usize = jobs.iter().filter(|j| j.tenant < 16).count();
        assert!(
            low * 2 > jobs.len(),
            "bottom quartile of tenant ids should carry most arrivals \
             ({low}/{} went low)",
            jobs.len()
        );
    }

    #[test]
    fn workloads_replay_identically_per_template() {
        let cfg = TrafficConfig::default();
        for template in 0..8 {
            let job = TrafficJob {
                tick: 0,
                tenant: template as u64,
                template,
                drifted: false,
            };
            let later = TrafficJob { tick: 5, ..job };
            let (a, sa) = cfg.build_workload(&job);
            let (b, sb) = cfg.build_workload(&later);
            assert_eq!(sa, sb);
            assert_eq!(
                harl_middleware::collect_trace(&a).records(),
                harl_middleware::collect_trace(&b).records(),
                "template {template} must replay bit-identically"
            );
        }
    }

    #[test]
    fn drift_changes_only_the_tail_of_phased_templates() {
        let cfg = TrafficConfig::default();
        let base = TrafficJob {
            tick: 0,
            tenant: 0,
            template: 0,
            drifted: false,
        };
        let drifted = TrafficJob {
            drifted: true,
            ..base
        };
        let (wa, sa) = cfg.build_workload(&base);
        let (wb, sb) = cfg.build_workload(&drifted);
        assert_eq!(sa, sb, "drift must not change the file size");
        let ta = harl_middleware::collect_trace(&wa);
        let tb = harl_middleware::collect_trace(&wb);
        assert_ne!(ta.records(), tb.records(), "drift must change the trace");
        // Everything before the final phase is untouched.
        let span = sa;
        let nphases = 2; // template 0: 2 + 0 % 3
        let tail_start = (nphases - 1) as u64 * (span / nphases as u64);
        let head = |t: &harl_core::Trace| {
            let mut v: Vec<_> = t
                .records()
                .iter()
                .filter(|r| r.offset < tail_start)
                .map(|r| (r.offset, r.size, r.op == OpKind::Write))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(head(&ta), head(&tb), "pre-tail phases must be identical");
    }

    #[test]
    fn process_check_matches_what_builds() {
        // A 4 MiB floor area over 4 KiB requests holds 1,024 processes.
        for (base_bytes, most) in [(MB, 1024), (8 * MB, 2048)] {
            let at = |processes| TrafficConfig {
                processes,
                base_bytes,
                ..TrafficConfig::default()
            };
            assert_eq!(at(most).check_processes(), Ok(()));
            let err = at(most + 1).check_processes().unwrap_err();
            assert!(err.contains("traffic.processes"), "{err}");
            let job = TrafficJob {
                tick: 0,
                tenant: 0,
                template: 0,
                drifted: true,
            };
            let (w, size) = at(most).build_workload(&job);
            assert!(size >= w.extent());
        }
    }

    #[test]
    fn every_template_builds_without_panicking() {
        let cfg = TrafficConfig {
            processes: 9,
            ..TrafficConfig::default()
        };
        for template in 0..16 {
            for drifted in [false, true] {
                let job = TrafficJob {
                    tick: 0,
                    tenant: 0,
                    template,
                    drifted,
                };
                let (w, size) = cfg.build_workload(&job);
                assert!(size >= w.extent());
                assert!(w.extent() > 0);
            }
        }
    }
}
