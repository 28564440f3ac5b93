//! The five workloads and their seeded input generators.
//!
//! Every input is a pure function of `(workload, seed)`. Job mixes are
//! stratified: each seed gets the same number of jobs of every class and
//! draws only their order and fine parameters (access order, grid size,
//! template shapes, device streams), so a metric moves between seeds far
//! less than between versions of the program. Where job classes differ in
//! cost, their shares keep the median and the 90th percentile inside a
//! class rather than on the gap between two, where a small shift in either
//! class would move them a lot. The program sees only the generated inputs.

use harl_repro::harl::OnlineConfig;
use harl_repro::prelude::*;
use harl_repro::simcore::SimRng;
use std::collections::BTreeMap;

/// Workload names, in the order the all-workloads run executes them.
pub const NAMES: [&str; 5] = [
    "ior_paper",
    "k3_phased",
    "btio_collective",
    "wide_cluster",
    "serve_fleet",
];

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// One pipeline job, kept as its configuration: the built workloads of a
/// BTIO job list would hold gigabytes, so each is built just before it runs.
#[derive(Debug)]
pub enum JobSpec {
    /// An IOR run.
    Ior(IorConfig),
    /// A phased run.
    Phased(PhasedConfig),
    /// A BTIO run.
    Btio(BtioConfig),
}

impl JobSpec {
    /// The job's logical workload.
    pub fn build(&self) -> Workload {
        match self {
            JobSpec::Ior(c) => c.build(),
            JobSpec::Phased(c) => c.build(),
            JobSpec::Btio(c) => c.build(),
        }
    }
}

/// Inputs of a workload that runs every job through the whole pipeline.
#[derive(Debug)]
pub struct PipelineInputs {
    /// The simulated cluster the jobs plan for and run on.
    pub cluster: ClusterConfig,
    /// The job run once during set-up, before timing starts.
    pub warmup: JobSpec,
    /// The timed jobs, run in order on every pass.
    pub jobs: Vec<JobSpec>,
}

/// One plan submission of the serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Submitting tenant.
    pub tenant: u64,
    /// Whether the tenant's last phase drifted (request size changed).
    pub drifted: bool,
}

/// Inputs of the multi-tenant planning-service workload.
#[derive(Debug)]
pub struct ServeInputs {
    /// The cluster the service plans for.
    pub cluster: ClusterConfig,
    /// Arrivals replayed during set-up to fill the service's caches.
    pub warmup: Vec<Arrival>,
    /// Timed arrivals, replayed after the warm-up on every pass.
    pub timed: Vec<Arrival>,
    /// Submissions per service tick.
    pub arrivals_per_tick: usize,
    /// Served requests a drifted tenant reports after its submission:
    /// small off-plan reads with punishing latencies.
    pub drift_burst: u64,
    /// Each `(tenant, drifted)` pair's workload, trace and file size.
    pub tenants: BTreeMap<(u64, bool), TenantInput>,
}

/// What one tenant submits.
#[derive(Debug)]
pub struct TenantInput {
    /// The tenant's job.
    pub job: PhasedConfig,
    /// Its collected trace, as the tenant's tracer hands it to the service.
    pub trace: Trace,
    /// The logical file size to plan for.
    pub file_size: u64,
}

/// The generated inputs of one workload.
#[derive(Debug)]
pub enum Inputs {
    /// Trace → plan → place → translate → simulate per job.
    Pipeline(PipelineInputs),
    /// Planning-service submissions.
    Serve(ServeInputs),
}

/// Generate `name`'s inputs for `seed`, with job and submission counts
/// divided by `divisor` (1 for the benchmark itself; tests run shorter).
/// `None` for an unknown workload name.
pub fn generate(name: &str, seed: u64, divisor: usize) -> Option<Inputs> {
    let mut rng = SimRng::derived(seed, name);
    let div = divisor.max(1);
    let inputs = match name {
        "ior_paper" => Inputs::Pipeline(ior_paper(&mut rng, div)),
        "k3_phased" => Inputs::Pipeline(k3_phased(&mut rng, div)),
        "btio_collective" => Inputs::Pipeline(btio_collective(&mut rng, div)),
        "wide_cluster" => Inputs::Pipeline(wide_cluster(&mut rng, div)),
        "serve_fleet" => Inputs::Serve(serve_fleet(&mut rng, div)),
        _ => return None,
    };
    Some(inputs)
}

/// `classes` repeated `per_class` times each, in seeded order.
fn stratified<T: Clone>(rng: &mut SimRng, classes: &[T], per_class: usize) -> Vec<T> {
    let mut out: Vec<T> = classes
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.clone(), per_class))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// The paper's headline (Fig. 7): IOR with 16 processes on a 1 GiB shared
/// file in random order, 6 HServers + 2 SServers. Request sizes cover
/// both of Fig. 9's regimes (SServer-only and mixed layouts), reads and
/// writes alike. Loads the K = 2 exhaustive grid and a narrow, deep
/// engine run.
fn ior_paper(rng: &mut SimRng, div: usize) -> PipelineInputs {
    let ior = |rng: &mut SimRng, (request_size, op): (u64, OpKind)| {
        JobSpec::Ior(IorConfig {
            processes: 16,
            request_size,
            file_size: GIB,
            op,
            order: AccessOrder::Random,
            seed: rng.next_u64(),
        })
    };
    let classes: Vec<(u64, OpKind)> = [128 * KIB, 512 * KIB, MIB]
        .into_iter()
        .flat_map(|rs| [(rs, OpKind::Read), (rs, OpKind::Write)])
        .collect();
    let warmup = ior(rng, (512 * KIB, OpKind::Read));
    let jobs = stratified(rng, &classes, (67 / div).max(1))
        .into_iter()
        .map(|class| ior(rng, class))
        .collect();
    PipelineInputs {
        cluster: ClusterConfig::paper_default().with_seed(rng.next_u64()),
        warmup,
        jobs,
    }
}

/// K = 3 planning on 4 HDD + 2 SSD + 2 NVMe servers: 12 phases of 16 MiB,
/// 8 processes, each phase with its own request size and direction. Loads
/// the K ≥ 3 coordinate-descent planner.
fn k3_phased(rng: &mut SimRng, div: usize) -> PipelineInputs {
    const SIZES: [u64; 5] = [64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB];
    // Every job moves the same bytes in the same request sizes, half read
    // and half written; a seed draws only the order of its phases.
    let sizes: Vec<u64> = SIZES.iter().cycle().take(12).copied().collect();
    let job = |rng: &mut SimRng| {
        let mut sizes = sizes.clone();
        rng.shuffle(&mut sizes);
        let ops = stratified(rng, &[OpKind::Read, OpKind::Write], 6);
        let phases = (0..12u64)
            .zip(sizes.into_iter().zip(ops))
            .map(|(p, (size, op))| Phase::new(p * 16 * MIB, 16 * MIB, size, op))
            .collect();
        JobSpec::Phased(PhasedConfig {
            phases,
            processes: 8,
            seed: rng.next_u64(),
        })
    };
    let warmup = job(rng);
    let jobs = (0..(100 / div).max(2)).map(|_| job(rng)).collect();
    PipelineInputs {
        cluster: ClusterConfig::hybrid(4, 2)
            .with_extra_class(2, nvme_2020_preset())
            .with_seed(rng.next_u64()),
        warmup,
        jobs,
    }
}

/// BTIO (5 dumps written, then read back) with 4, 9 and 16 processes on
/// 6H + 2S. Two-phase collective lowering dominates: the trace and
/// translate layers each lower every collective call.
fn btio_collective(rng: &mut SimRng, div: usize) -> PipelineInputs {
    let btio = |rng: &mut SimRng, processes: usize| {
        JobSpec::Btio(BtioConfig {
            grid: 100 + rng.uniform_u64(0, 8) as usize,
            steps: 10,
            write_interval: 2,
            processes,
            compute_per_step: SimNanos::from_micros(rng.uniform_u64(0, 2000)),
        })
    };
    let warmup = btio(rng, 9);
    let jobs = stratified(rng, &[4usize, 9, 16], (36 / div).max(1))
        .into_iter()
        .map(|p| btio(rng, p))
        .collect();
    PipelineInputs {
        cluster: ClusterConfig::paper_default().with_seed(rng.next_u64()),
        warmup,
        jobs,
    }
}

/// 192 HServers + 64 SServers, IOR with 64 processes, 4 MiB requests and a
/// 2 GiB file, two reads to every write. Loads the engine: every request
/// fans out across dozens of servers. Write jobs take about a quarter
/// longer than reads, so the median falls among the reads and the 90th
/// percentile among the writes; an even split would put the median on the
/// gap between the two.
fn wide_cluster(rng: &mut SimRng, div: usize) -> PipelineInputs {
    let ior = |rng: &mut SimRng, op: OpKind| {
        JobSpec::Ior(IorConfig {
            processes: 64,
            request_size: 4 * MIB,
            file_size: 2 * GIB,
            op,
            order: AccessOrder::Random,
            seed: rng.next_u64(),
        })
    };
    let warmup = ior(rng, OpKind::Read);
    let jobs = (0..(480 / div).max(2))
        .map(|i| {
            let op = if i % 3 == 2 {
                OpKind::Write
            } else {
                OpKind::Read
            };
            ior(rng, op)
        })
        .collect();
    PipelineInputs {
        cluster: ClusterConfig::hybrid(192, 64)
            .with_compute_nodes(64)
            .with_seed(rng.next_u64()),
        warmup,
        jobs,
    }
}

/// Tenants in the fleet.
const TENANTS: u64 = 1024;

/// A fleet of 1024 tenants, each with its own phased template, submitting
/// with heavy-tailed popularity; 20% of arrivals drift their last phase.
/// More distinct traces than the plan cache holds, while the hot tenants
/// fit in it, so hits, stale refreshes, misses and cross-tenant region
/// reuse all occur.
fn serve_fleet(rng: &mut SimRng, div: usize) -> ServeInputs {
    const SIZES: [u64; 8] = [
        16 * KIB,
        32 * KIB,
        64 * KIB,
        128 * KIB,
        256 * KIB,
        512 * KIB,
        MIB,
        2 * MIB,
    ];
    const PROCESSES: usize = 4;
    // Template shapes are dealt by tenant id, so every popularity band
    // holds the same mix of phase counts and request sizes; a seed picks
    // the size rotation, each phase's direction and the arrivals.
    let rotation = rng.uniform_u64(0, 7) as usize;
    let templates: Vec<Vec<(u64, OpKind)>> = (0..TENANTS as usize)
        .map(|t| {
            (0..1 + t % 6)
                .map(|p| {
                    let op = if rng.uniform_u64(0, 1) == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    };
                    (SIZES[(t / 6 + rotation + 3 * p) % SIZES.len()], op)
                })
                .collect()
        })
        .collect();
    let arrival = |rng: &mut SimRng| {
        // Minimum of three uniform draws: low tenant ids dominate.
        let tenant = (0..3)
            .map(|_| rng.uniform_u64(0, TENANTS - 1))
            .min()
            .unwrap_or(0);
        Arrival {
            tenant,
            drifted: rng.uniform_u64(0, 99) < 20,
        }
    };
    let warmup: Vec<Arrival> = (0..4096 / div).map(|_| arrival(rng)).collect();
    let timed: Vec<Arrival> = (0..(72_000 / div).max(64)).map(|_| arrival(rng)).collect();
    let mut tenants = BTreeMap::new();
    for a in warmup.iter().chain(&timed) {
        tenants.entry((a.tenant, a.drifted)).or_insert_with(|| {
            let template = &templates[a.tenant as usize];
            let last = template.len() - 1;
            let phases = template
                .iter()
                .enumerate()
                .map(|(p, &(size, op))| {
                    // Drift doubles the last phase's request size, or halves
                    // it where doubling would not fit a process's segment.
                    let size = match (a.drifted && p == last, size < 2 * MIB) {
                        (false, _) => size,
                        (true, true) => size * 2,
                        (true, false) => size / 2,
                    };
                    Phase::new(p as u64 * 8 * MIB, 8 * MIB, size, op)
                })
                .collect();
            let job = PhasedConfig {
                phases,
                processes: PROCESSES,
                seed: a.tenant,
            };
            let workload = job.build();
            TenantInput {
                trace: collect_trace(&workload),
                file_size: template.len() as u64 * 8 * MIB,
                job,
            }
        });
    }
    ServeInputs {
        cluster: ClusterConfig::paper_default().with_seed(rng.next_u64()),
        warmup,
        timed,
        arrivals_per_tick: 64,
        // Enough to close two windows of the service's drift monitor.
        drift_burst: 2 * OnlineConfig::default().window as u64,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A comparable digest of every generated input.
    fn digest(inputs: &Inputs) -> String {
        match inputs {
            Inputs::Pipeline(p) => format!("{:?}|{:?}", p.warmup, p.jobs),
            Inputs::Serve(s) => format!(
                "{:?}|{:?}|{:?}",
                s.warmup,
                s.timed,
                s.tenants.values().map(|t| &t.job).collect::<Vec<_>>()
            ),
        }
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        for name in NAMES {
            let a = generate(name, 7, 50).map(|i| digest(&i));
            let b = generate(name, 7, 50).map(|i| digest(&i));
            let c = generate(name, 8, 50).map(|i| digest(&i));
            assert!(a.is_some(), "{name} must generate");
            assert_eq!(a, b, "{name}: one seed must give one input");
            assert_ne!(a, c, "{name}: seeds must give different inputs");
        }
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(generate("nope", 1, 1).is_none());
    }

    #[test]
    fn job_mixes_are_stratified() {
        let count = |seed| {
            let Some(Inputs::Pipeline(p)) = generate("ior_paper", seed, 1) else {
                return BTreeMap::new();
            };
            let mut classes = BTreeMap::new();
            for job in &p.jobs {
                if let JobSpec::Ior(c) = job {
                    *classes
                        .entry((c.request_size, c.op == OpKind::Write))
                        .or_insert(0) += 1;
                }
            }
            classes
        };
        assert_eq!(count(1), count(2));
        assert_eq!(count(1).len(), 6);
    }
}
