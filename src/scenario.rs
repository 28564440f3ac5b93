//! Declarative experiment scenarios: one JSON file describes the cluster,
//! the workload, the layout policy, a fault schedule and the determinism
//! knobs, and [`Scenario::run`] executes the full paper pipeline
//! (trace → plan → place → simulate) under a [`SimContext`].
//!
//! The spec is the single entry point the CLI (`harl-cli run --scenario`),
//! the smoke stage of `ci.sh` and programmatic callers share, so an
//! experiment is reproducible from one committed file:
//!
//! ```
//! use harl_repro::scenario::{Scenario, WorkloadSpec, PolicySpec};
//! use harl_repro::prelude::*;
//!
//! let s = Scenario::new(WorkloadSpec::Ior(IorConfig::paper_default(
//!         OpKind::Read, 64 << 20)))
//!     .named("doc-example")
//!     .with_policy(PolicySpec::Fixed(64 * 1024))
//!     .with_seed(7);
//! let report = s.run(&SimContext::new()).unwrap();
//! assert!(report.throughput_mib_s > 0.0);
//! ```
//!
//! Scenarios round-trip through JSON ([`Scenario::to_json_pretty`] /
//! [`Scenario::from_json`]) and are validated before running: a file that
//! parses but describes an impossible experiment (zero-size requests, a
//! fault on a server that does not exist, …) is rejected with a reason.

use harl_core::errors::LoadError;
use harl_core::{
    FixedPolicy, HarlPolicy, LayoutPolicy, MultiProfileModel, RandomPolicy, RegionStripeTable,
    SegmentPolicy, ServerLevelPolicy, Trace, TraceRecord,
};
use harl_devices::{
    hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset, OpKind, StorageProfile,
};
use harl_middleware::{
    collect_trace, trace_plan_run, CollectiveConfig, PlanOutcome, PlanningService, ServeConfig,
    Workload,
};
use harl_pfs::{ClusterConfig, ServerClass, SimReport};
use harl_simcore::{registry, Degradation, SimContext, SimNanos};
use harl_workloads::{
    replay, BtioConfig, IorConfig, MultiRegionIorConfig, PhasedConfig, TrafficConfig,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The cluster a scenario runs on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum ClusterSpec {
    /// The paper's testbed: 6 HServers + 2 SServers (JSON: `"Paper"`).
    #[default]
    Paper,
    /// A hybrid cluster with the paper's device presets but custom counts
    /// (JSON: `{"Hybrid": {...}}`).
    Hybrid(HybridCluster),
    /// A fully explicit [`ClusterConfig`] (JSON: `{"Explicit": {...}}`).
    Explicit(ClusterConfig),
    /// A cluster of named device-preset tiers, any class count
    /// (JSON: `{"Tiered": {"tiers": [{"count": 4, "preset": "hdd-2015"}, ...]}}`).
    Tiered(TieredCluster),
}

impl ClusterSpec {
    /// Check the cluster can be built: at least one server and one
    /// compute node, and every named preset known.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Paper => {}
            Self::Hybrid(h) => {
                if h.hservers + h.sservers == 0 {
                    return Err("cluster must have at least one server".into());
                }
                if h.compute_nodes == Some(0) {
                    return Err("cluster must have at least one compute node".into());
                }
            }
            Self::Explicit(c) => {
                if c.server_count() == 0 {
                    return Err("cluster must have at least one server".into());
                }
                if c.compute_nodes == 0 {
                    return Err("cluster must have at least one compute node".into());
                }
            }
            Self::Tiered(t) => {
                if t.tiers.iter().map(|c| c.count).sum::<usize>() == 0 {
                    return Err("cluster must have at least one server".into());
                }
                if t.compute_nodes == Some(0) {
                    return Err("cluster must have at least one compute node".into());
                }
                for tier in &t.tiers {
                    tier.profile()?;
                }
            }
        }
        Ok(())
    }

    /// Materialise the cluster.
    ///
    /// # Panics
    /// Panics on a spec [`Self::validate`] rejects.
    pub fn build(&self) -> ClusterConfig {
        match self {
            Self::Paper => ClusterConfig::paper_default(),
            Self::Hybrid(h) => {
                let mut c = ClusterConfig::hybrid(h.hservers, h.sservers);
                if let Some(nodes) = h.compute_nodes {
                    c = c.with_compute_nodes(nodes);
                }
                if let Some(seed) = h.seed {
                    c = c.with_seed(seed);
                }
                c
            }
            Self::Explicit(c) => c.clone(),
            Self::Tiered(t) => {
                let classes = t
                    .tiers
                    .iter()
                    .map(|tier| {
                        // Documented precondition: validate() resolves every
                        // preset first, so an unknown name cannot reach here
                        // through the JSON entry points.
                        #[allow(clippy::panic)]
                        let profile = match tier.profile() {
                            Ok(p) => p,
                            Err(reason) => panic!("{reason}"),
                        };
                        ServerClass {
                            count: tier.count,
                            profile,
                        }
                    })
                    .collect();
                let mut c = ClusterConfig::tiered(classes);
                if let Some(nodes) = t.compute_nodes {
                    c = c.with_compute_nodes(nodes);
                }
                if let Some(seed) = t.seed {
                    c = c.with_seed(seed);
                }
                c
            }
        }
    }
}

/// Geometry knobs for [`ClusterSpec::Hybrid`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridCluster {
    /// Number of HDD-backed HServers.
    pub hservers: usize,
    /// Number of SSD-backed SServers.
    pub sservers: usize,
    /// Compute nodes (defaults to the paper's count when omitted).
    #[serde(default)]
    pub compute_nodes: Option<usize>,
    /// Base RNG seed baked into the cluster (the scenario-level `seed`
    /// field overrides this at run time).
    #[serde(default)]
    pub seed: Option<u64>,
}

/// Geometry knobs for [`ClusterSpec::Tiered`]: server classes in id order,
/// each resolved from a named device preset. This is how three-tier (and
/// K-tier) clusters are expressed from JSON without spelling out full
/// device profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieredCluster {
    /// Server classes in server-id order.
    pub tiers: Vec<TierSpec>,
    /// Compute nodes (defaults to the paper's count when omitted).
    #[serde(default)]
    pub compute_nodes: Option<usize>,
    /// Base RNG seed baked into the cluster (the scenario-level `seed`
    /// field overrides this at run time).
    #[serde(default)]
    pub seed: Option<u64>,
}

/// One server class of a [`ClusterSpec::Tiered`] cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Number of servers in this class.
    pub count: usize,
    /// Device preset name: `"hdd-2015"`, `"ssd-2015"`, `"nvme-2020"` or
    /// `"object-store"` (the priced cloud tier).
    pub preset: String,
}

impl TierSpec {
    /// Resolve the preset name to a device profile.
    pub fn profile(&self) -> Result<StorageProfile, String> {
        match self.preset.as_str() {
            "hdd-2015" => Ok(hdd_2015_preset()),
            "ssd-2015" => Ok(ssd_2015_preset()),
            "nvme-2020" => Ok(nvme_2020_preset()),
            "object-store" => Ok(object_store_preset()),
            other => Err(format!(
                "unknown device preset {other:?} \
                 (expected hdd-2015, ssd-2015, nvme-2020 or object-store)"
            )),
        }
    }
}

/// The application driving I/O.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// IOR-style uniform requests (JSON: `{"Ior": {...}}`).
    Ior(IorConfig),
    /// IOR with per-region request sizes — the paper's Fig. 11 workload.
    MultiRegionIor(MultiRegionIorConfig),
    /// NAS BTIO-style collective checkpointing.
    Btio(BtioConfig),
    /// Explicit multi-phase workload.
    Phased(PhasedConfig),
    /// Replay a trace file previously saved with
    /// [`Trace::save_to_path`](harl_core::Trace::save_to_path).
    ReplayTrace(String),
}

/// The layout policy under test.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Traditional fixed striping with this stripe size on every server
    /// (JSON: `{"Fixed": 65536}`).
    Fixed(u64),
    /// Random per-region stripes drawn from this seed.
    Random(u64),
    /// Segment-level optimisation with this segment size (`h == s`).
    Segment(u64),
    /// Server-level: one optimised `(h, s)` pair for the whole file.
    ServerLevel,
    /// The paper's contribution: region-level HARL (JSON: `"Harl"`).
    #[default]
    Harl,
}

impl PolicySpec {
    /// Stable label used in reports.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Fixed(stripe) => format!("fixed-{stripe}"),
            PolicySpec::Random(_) => "random".into(),
            PolicySpec::Segment(size) => format!("segment-{size}"),
            PolicySpec::ServerLevel => "server-level".into(),
            PolicySpec::Harl => "harl".into(),
        }
    }
}

/// One injected server degradation, in human units (seconds, multiplier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Server index (0-based, HServers first).
    pub server: usize,
    /// Service-time multiplier while active (2.0 = half speed).
    pub slowdown: f64,
    /// Start of the window in simulated seconds (default 0).
    #[serde(default)]
    pub from_s: f64,
    /// End of the window in simulated seconds; `None` = permanent.
    #[serde(default)]
    pub until_s: Option<f64>,
}

impl FaultSpec {
    fn to_degradation(&self) -> Degradation {
        Degradation {
            server: self.server,
            from: SimNanos::from_secs_f64(self.from_s),
            until: self.until_s.map_or(SimNanos::MAX, SimNanos::from_secs_f64),
            slowdown: self.slowdown,
        }
    }
}

/// A complete, serialisable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name, echoed into the report.
    #[serde(default)]
    pub name: String,
    /// The cluster (default: the paper's testbed).
    #[serde(default)]
    pub cluster: ClusterSpec,
    /// The workload — the only mandatory field.
    pub workload: WorkloadSpec,
    /// The layout policy (default: HARL).
    #[serde(default)]
    pub policy: PolicySpec,
    /// Injected server degradations, on top of any the cluster bakes in.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
    /// Master RNG seed override (default: the cluster's own seed).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Planner thread budget override (default: the policy's own).
    #[serde(default)]
    pub threads: Option<usize>,
    /// Collective-I/O tuning (default: ROMIO-like defaults).
    #[serde(default)]
    pub collective: Option<CollectiveConfig>,
}

impl Scenario {
    /// A scenario running `workload` under HARL on the paper's cluster.
    pub fn new(workload: WorkloadSpec) -> Self {
        Scenario {
            name: String::new(),
            cluster: ClusterSpec::default(),
            workload,
            policy: PolicySpec::default(),
            faults: Vec::new(),
            seed: None,
            threads: None,
            collective: None,
        }
    }

    /// Set the name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Set the cluster.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Set the policy.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Add one fault to the schedule.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Set the master seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Set the planner thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Serialise as pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        // The vendored serialiser is infallible; Err is unreachable.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse from JSON and validate.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let s: Scenario = serde_json::from_str(json).map_err(|e| e.to_string())?;
        s.validate()?;
        Ok(s)
    }

    /// Load from a JSON file and validate, with descriptive errors.
    pub fn from_path(path: &Path) -> Result<Self, LoadError> {
        let s: Scenario = harl_core::errors::read_json(path)?;
        s.validate()
            .map_err(|reason| LoadError::whole_file(path, reason))?;
        Ok(s)
    }

    /// Check the scenario describes a runnable experiment.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        match &self.workload {
            WorkloadSpec::Ior(c) => {
                if c.processes == 0 {
                    return Err("Ior workload needs at least one process".into());
                }
                if c.request_size == 0 {
                    return Err("Ior request_size must be > 0".into());
                }
                check_share("Ior file_size", c.file_size, c.processes, c.request_size)?;
            }
            WorkloadSpec::MultiRegionIor(c) => {
                if c.processes == 0 {
                    return Err("MultiRegionIor workload needs at least one process".into());
                }
                if c.regions.is_empty() {
                    return Err("MultiRegionIor needs at least one region".into());
                }
                if c.regions.iter().any(|&(len, req)| len == 0 || req == 0) {
                    return Err(
                        "MultiRegionIor regions need non-zero length and request size".into(),
                    );
                }
                for (i, &(len, request_size)) in c.regions.iter().enumerate() {
                    let what = format!("MultiRegionIor region {i}: len");
                    check_share(&what, len, c.processes, request_size)?;
                }
            }
            WorkloadSpec::Btio(c) => {
                if c.processes == 0 || c.grid == 0 || c.steps == 0 {
                    return Err("Btio needs non-zero processes, grid and steps".into());
                }
                c.check()?;
            }
            WorkloadSpec::Phased(c) => {
                if c.processes == 0 {
                    return Err("Phased workload needs at least one process".into());
                }
                if c.phases.is_empty() {
                    return Err("Phased workload needs at least one phase".into());
                }
                if c.phases.iter().any(|p| p.request_size == 0) {
                    return Err("Phased phases need non-zero request sizes".into());
                }
                for (i, p) in c.phases.iter().enumerate() {
                    let what = format!("Phased phase {i}: len");
                    check_share(&what, p.len, c.processes, p.request_size)?;
                }
            }
            WorkloadSpec::ReplayTrace(path) => {
                if path.is_empty() {
                    return Err("ReplayTrace needs a trace file path".into());
                }
            }
        }
        let servers = self.build_cluster().server_count();
        match self.policy {
            PolicySpec::Fixed(0) => return Err("Fixed policy stripe must be > 0".into()),
            PolicySpec::Fixed(stripe) if stripe.checked_mul(servers as u64).is_none() => {
                return Err(format!(
                    "Fixed policy stripe {stripe} on {servers} servers overflows u64: \
                     the stripe group must fit in u64"
                ))
            }
            PolicySpec::Segment(0) => return Err("Segment policy segment must be > 0".into()),
            _ => {}
        }
        for (i, f) in self.faults.iter().enumerate() {
            if f.server >= servers {
                return Err(format!(
                    "fault {i} targets server {} but the cluster has {servers}",
                    f.server
                ));
            }
            if !(f.slowdown > 0.0 && f.slowdown.is_finite()) {
                return Err(format!("fault {i} slowdown must be finite and > 0"));
            }
            if let Some(until) = f.until_s {
                if until <= f.from_s {
                    return Err(format!("fault {i} window is empty or inverted"));
                }
            }
        }
        if self.threads == Some(0) {
            return Err("threads must be >= 1 when set".into());
        }
        if self.collective.is_some_and(|c| c.cb_buffer == 0) {
            return Err("collective cb_buffer must be > 0 bytes".into());
        }
        Ok(())
    }

    /// Materialise the cluster.
    pub fn build_cluster(&self) -> ClusterConfig {
        self.cluster.build()
    }

    /// Materialise the workload (replay scenarios read their trace here).
    pub fn build_workload(&self) -> Result<Workload, String> {
        Ok(match &self.workload {
            WorkloadSpec::Ior(c) => c.build(),
            WorkloadSpec::MultiRegionIor(c) => c.build(),
            WorkloadSpec::Btio(c) => c.build(),
            WorkloadSpec::Phased(c) => c.build(),
            WorkloadSpec::ReplayTrace(path) => {
                let trace = Trace::load_from_path(Path::new(path)).map_err(|e| e.to_string())?;
                replay(&trace)
            }
        })
    }

    /// Materialise the layout policy for `cluster`.
    pub fn build_policy(&self, cluster: &ClusterConfig) -> Box<dyn LayoutPolicy> {
        let model = || MultiProfileModel::from_cluster(cluster);
        let classes = cluster.classes.len();
        match self.policy {
            PolicySpec::Fixed(stripe) => Box::new(FixedPolicy::uniform(stripe, classes)),
            PolicySpec::Random(seed) => Box::new(RandomPolicy::for_classes(seed, classes)),
            PolicySpec::Segment(segment_size) => Box::new(SegmentPolicy {
                model: model(),
                segment_size,
                optimizer: Default::default(),
            }),
            PolicySpec::ServerLevel => Box::new(ServerLevelPolicy::new(model())),
            PolicySpec::Harl => Box::new(HarlPolicy::new(model())),
        }
    }

    /// Fold the scenario's determinism knobs and fault plan into `base`.
    ///
    /// Explicit settings on `base` win over the scenario's (a caller that
    /// pins a seed keeps it); scenario faults are appended to the base
    /// plan.
    pub fn context(&self, base: &SimContext) -> SimContext {
        let mut ctx = base.clone();
        if ctx.seed.is_none() {
            ctx.seed = self.seed;
        }
        if ctx.threads.is_none() {
            ctx.threads = self.threads;
        }
        ctx.faults
            .extend(self.faults.iter().map(FaultSpec::to_degradation));
        ctx
    }

    /// Run the full pipeline and summarise the outcome.
    ///
    /// The report is deterministic: the same scenario and seed produce
    /// byte-identical JSON, independent of the thread budget. A run whose
    /// simulated clock saturates at `SimNanos::MAX` is an error.
    pub fn run(&self, base: &SimContext) -> Result<ScenarioReport, String> {
        self.validate()?;
        let cluster = self.build_cluster();
        let workload = self.build_workload()?;
        let policy = self.build_policy(&cluster);
        let ccfg = self.collective.unwrap_or_default();
        let ctx = self.context(base);
        let (rst, report) = trace_plan_run(&ctx, &cluster, policy.as_ref(), &workload, &ccfg);
        if report.makespan == SimNanos::MAX {
            return Err(format!(
                "simulated time overflowed: the makespan reached the u64 limit of {} ns, \
                 so a service time in this scenario is too large to simulate",
                u64::MAX
            ));
        }
        let plan_cost_usd = plan_dollar_cost(&cluster, &rst, &report);
        if let Some(usd) = plan_cost_usd {
            let recorder = ctx.recorder();
            if recorder.is_enabled() {
                recorder.gauge_set(registry::HARL_PLAN_COST_USD.name, &[], usd);
            }
        }
        Ok(ScenarioReport {
            name: self.name.clone(),
            policy: self.policy.label(),
            seed: ctx.seed_or(cluster.seed),
            regions: rst.len(),
            file_size: rst.file_size(),
            makespan_ns: report.makespan.as_nanos(),
            throughput_mib_s: report.throughput_mib_s(),
            bytes_read: report.bytes_read,
            bytes_written: report.bytes_written,
            requests_completed: report.requests_completed,
            plan_cost_usd,
            rst,
        })
    }
}

/// Fails when `len` bytes shared by `processes` leave each less than one
/// `request_size`-byte request (such a share issues nothing, or panics in
/// the generator); `what` names the extent in the message.
fn check_share(what: &str, len: u64, processes: usize, request_size: u64) -> Result<(), String> {
    let share = len / processes as u64;
    if share < request_size {
        return Err(format!(
            "{what} {len} gives each of {processes} processes {share} bytes, \
             less than one {request_size}-byte request"
        ));
    }
    Ok(())
}

/// One month's dollar cost of holding and serving the planned layout, or
/// `None` when every tier is free (the paper's on-prem two-tier setup).
///
/// Capacity rent charges each priced server for the bytes the RST maps
/// onto it (`usd_per_gb_month`, held for one month); request fees charge
/// each priced server's simulated sub-requests at the GET/PUT price, with
/// the read/write split taken from the workload's byte totals. See
/// DESIGN.md Appendix G for the break-even arithmetic.
fn plan_dollar_cost(
    cluster: &ClusterConfig,
    rst: &RegionStripeTable,
    report: &SimReport,
) -> Option<f64> {
    if cluster.classes.iter().all(|c| c.profile.cost.is_free()) {
        return None;
    }
    let stored = harl_middleware::bytes_per_server(cluster, rst, rst.file_size());
    let total_io = report.bytes_read + report.bytes_written;
    let read_frac = if total_io == 0 {
        0.0
    } else {
        report.bytes_read as f64 / total_io as f64
    };
    const GB: f64 = 1_000_000_000.0;
    let mut usd = 0.0;
    for (idx, class) in cluster.classes.iter().enumerate() {
        let cost = &class.profile.cost;
        if cost.is_free() {
            continue;
        }
        for sid in cluster.class_servers(idx) {
            usd += stored.get(sid).copied().unwrap_or(0) as f64 / GB * cost.usd_per_gb_month;
            let jobs = report.servers.get(sid).map_or(0, |s| s.disk_jobs) as f64;
            usd += jobs * read_frac * cost.usd_per_get;
            usd += jobs * (1.0 - read_frac) * cost.usd_per_put;
        }
    }
    Some(usd)
}

/// Deterministic summary of one scenario run.
///
/// Serialisation is hand-written: `plan_cost_usd` is omitted when `None`,
/// so reports from all-free clusters stay byte-identical to the pre-pricing
/// format (and to `scenarios/smoke.golden.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name, echoed from the spec.
    pub name: String,
    /// Policy label (see [`PolicySpec::label`]).
    pub policy: String,
    /// The seed the simulation actually used.
    pub seed: u64,
    /// Number of RST regions planned.
    pub regions: usize,
    /// Logical file size covered by the RST.
    pub file_size: u64,
    /// Simulated makespan in nanoseconds.
    pub makespan_ns: u64,
    /// End-to-end throughput.
    pub throughput_mib_s: f64,
    /// Bytes read by the workload.
    pub bytes_read: u64,
    /// Bytes written by the workload.
    pub bytes_written: u64,
    /// Physical requests completed by the PFS.
    pub requests_completed: u64,
    /// One month's dollar cost of the plan on priced tiers; `None` when
    /// every tier is free. See [`CostProfile`](harl_devices::CostProfile).
    pub plan_cost_usd: Option<f64>,
    /// The planned layout itself.
    pub rst: RegionStripeTable,
}

impl Serialize for ScenarioReport {
    fn serialize(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("name".to_string(), self.name.serialize());
        map.insert("policy".to_string(), self.policy.serialize());
        map.insert("seed".to_string(), self.seed.serialize());
        map.insert("regions".to_string(), self.regions.serialize());
        map.insert("file_size".to_string(), self.file_size.serialize());
        map.insert("makespan_ns".to_string(), self.makespan_ns.serialize());
        map.insert(
            "throughput_mib_s".to_string(),
            self.throughput_mib_s.serialize(),
        );
        map.insert("bytes_read".to_string(), self.bytes_read.serialize());
        map.insert("bytes_written".to_string(), self.bytes_written.serialize());
        map.insert(
            "requests_completed".to_string(),
            self.requests_completed.serialize(),
        );
        if let Some(usd) = self.plan_cost_usd {
            map.insert("plan_cost_usd".to_string(), usd.serialize());
        }
        map.insert("rst".to_string(), self.rst.serialize());
        serde::Value::Object(map)
    }
}

impl Deserialize for ScenarioReport {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "ScenarioReport"))?;
        let field = |name: &'static str| -> Result<&serde::Value, serde::Error> {
            map.get(name)
                .ok_or_else(|| serde::Error::missing_field(name, "ScenarioReport"))
        };
        Ok(ScenarioReport {
            name: String::deserialize(field("name")?)?,
            policy: String::deserialize(field("policy")?)?,
            seed: u64::deserialize(field("seed")?)?,
            regions: usize::deserialize(field("regions")?)?,
            file_size: u64::deserialize(field("file_size")?)?,
            makespan_ns: u64::deserialize(field("makespan_ns")?)?,
            throughput_mib_s: f64::deserialize(field("throughput_mib_s")?)?,
            bytes_read: u64::deserialize(field("bytes_read")?)?,
            bytes_written: u64::deserialize(field("bytes_written")?)?,
            requests_completed: u64::deserialize(field("requests_completed")?)?,
            plan_cost_usd: match map.get("plan_cost_usd") {
                Some(v) => Some(f64::deserialize(v)?),
                None => None,
            },
            rst: RegionStripeTable::deserialize(field("rst")?)?,
        })
    }
}

impl ScenarioReport {
    /// Serialise as pretty JSON (the CLI/CI output format).
    pub fn to_json_pretty(&self) -> String {
        // The vendored serialiser is infallible; Err is unreachable.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// A multi-tenant planning-service experiment: seeded heavy-tailed
/// traffic ([`TrafficConfig`]) replayed through a
/// [`PlanningService`], one spec file per fleet. This is what
/// `harl-cli serve --scenario` runs and what
/// `scenarios/multiapp.json` pins in CI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSpec {
    /// Human-readable name, echoed into the report.
    #[serde(default)]
    pub name: String,
    /// The cluster whose model the service plans against (default: the
    /// paper's testbed).
    #[serde(default)]
    pub cluster: ClusterSpec,
    /// The arrival schedule — the only mandatory field.
    pub traffic: TrafficConfig,
    /// Service tuning (cache capacities, division/optimizer/online).
    #[serde(default)]
    pub serve: ServeConfig,
    /// Planner thread budget override.
    #[serde(default)]
    pub threads: Option<usize>,
}

impl ServeSpec {
    /// A spec running `traffic` with default service tuning on the
    /// paper's cluster.
    pub fn new(traffic: TrafficConfig) -> Self {
        ServeSpec {
            name: String::new(),
            cluster: ClusterSpec::default(),
            traffic,
            serve: ServeConfig::default(),
            threads: None,
        }
    }

    /// Serialise as pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        // The vendored serialiser is infallible; Err is unreachable.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse from JSON and validate.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let s: ServeSpec = serde_json::from_str(json).map_err(|e| e.to_string())?;
        s.validate()?;
        Ok(s)
    }

    /// Load from a JSON file and validate, with descriptive errors.
    pub fn from_path(path: &Path) -> Result<Self, LoadError> {
        let s: ServeSpec = harl_core::errors::read_json(path)?;
        s.validate()
            .map_err(|reason| LoadError::whole_file(path, reason))?;
        Ok(s)
    }

    /// Check the spec describes a runnable fleet.
    pub fn validate(&self) -> Result<(), String> {
        if self.traffic.tenants == 0 {
            return Err("traffic needs at least one tenant".into());
        }
        if self.traffic.templates == 0 {
            return Err("traffic needs at least one template".into());
        }
        if self.traffic.processes == 0 {
            return Err("traffic needs at least one process per job".into());
        }
        self.traffic.check_processes()?;
        if self.traffic.drift_pct > 100 {
            return Err("drift_pct is a percentage (0-100)".into());
        }
        self.cluster.validate()?;
        let serve = &self.serve;
        if serve.optimizer.step == 0 {
            return Err("serve.optimizer.step must be > 0 bytes".into());
        }
        if serve.online.optimizer.step == 0 {
            return Err("serve.online.optimizer.step must be > 0 bytes".into());
        }
        if serve.division.fixed_region_size == 0 {
            return Err("serve.division.fixed_region_size must be > 0 bytes".into());
        }
        // A threshold that cannot grow would repeat the same over-fragmented
        // division for every one of `max_rounds` rounds.
        let initial = serve.division.initial_threshold_pct;
        if !initial.is_finite() || initial <= 0.0 {
            return Err("serve.division.initial_threshold_pct must be finite and > 0".into());
        }
        let growth = serve.division.threshold_growth;
        if !growth.is_finite() || growth <= 1.0 {
            return Err("serve.division.threshold_growth must be finite and exceed 1".into());
        }
        if serve.online.window == 0 {
            return Err("online window must be positive".into());
        }
        let drift = serve.online.drift_ratio;
        if drift.is_nan() || drift <= 1.0 {
            return Err("serve.online.drift_ratio must exceed 1".into());
        }
        Ok(())
    }

    /// Build the cluster the service models.
    pub fn build_cluster(&self) -> ClusterConfig {
        self.cluster.build()
    }

    /// Replay the full arrival schedule through a fresh service.
    ///
    /// Deterministic: the same spec produces a byte-identical report at
    /// any thread budget. Drifted arrivals additionally stream a probe of
    /// off-plan requests through the tenant's monitor so the online path
    /// (adaptation → batched tick apply → stale refresh) is exercised.
    pub fn run(&self, base: &SimContext) -> Result<ServeReport, String> {
        self.validate()?;
        let cluster = self.build_cluster();
        let model = MultiProfileModel::from_cluster(&cluster);
        let mut svc = PlanningService::new(model, self.serve.clone());
        let mut ctx = base.clone();
        if ctx.threads.is_none() {
            ctx.threads = self.threads;
        }
        let jobs = self.traffic.jobs();
        let (mut hit, mut stale, mut miss) = (0u64, 0u64, 0u64);
        let mut current_tick = 0usize;
        for job in &jobs {
            while current_tick < job.tick {
                svc.tick(&ctx);
                current_tick += 1;
            }
            let (workload, file_size) = self.traffic.build_workload(job);
            let trace = collect_trace(&workload);
            let ticket = svc.submit(&ctx, job.tenant, &trace, file_size);
            match ticket.outcome {
                PlanOutcome::CacheHit => hit += 1,
                PlanOutcome::StaleRefresh => stale += 1,
                PlanOutcome::Miss => miss += 1,
            }
            if job.drifted {
                // Observed behaviour diverging from plan: a burst of small
                // off-plan requests with punishing latencies. Enough to
                // close two monitor windows.
                for i in 0..(2 * self.serve.online.window as u64) {
                    svc.observe_served(
                        job.tenant,
                        TraceRecord {
                            rank: 0,
                            fd: 0,
                            op: OpKind::Read,
                            offset: (i % 16) * 4096,
                            size: 4096,
                            timestamp: SimNanos::from_nanos(i),
                        },
                        0.5,
                    );
                }
            }
        }
        // Close the final tick so every pending update lands.
        svc.tick(&ctx);
        let stats = svc.stats();
        Ok(ServeReport {
            name: self.name.clone(),
            jobs: jobs.len() as u64,
            tenants: stats.tenants as u64,
            plans_hit: hit,
            plans_stale: stale,
            plans_miss: miss,
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            cache_stale: stats.cache.stale,
            cache_evictions: stats.cache.evictions,
            cache_hit_rate: stats.cache.hit_rate(),
            regions_reused: stats.regions_reused,
            regions_planned: stats.regions_planned,
            adaptations: stats.adaptations,
            batch_enqueued: stats.batch_enqueued,
            batch_applied: stats.batch_applied,
            batch_coalesced: stats.batch_coalesced,
            ticks: stats.ticks,
        })
    }
}

/// Deterministic summary of one [`ServeSpec`] replay. Golden-diffed in CI
/// (`scenarios/multiapp.golden.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Spec name, echoed.
    pub name: String,
    /// Plan submissions replayed.
    pub jobs: u64,
    /// Tenants resident when the replay finished.
    pub tenants: u64,
    /// Submissions answered straight from the plan cache.
    pub plans_hit: u64,
    /// Submissions that refreshed a stale (adapted-over) cached plan.
    pub plans_stale: u64,
    /// Submissions planned from scratch (with region-level reuse).
    pub plans_miss: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache stale lookups.
    pub cache_stale: u64,
    /// Plans evicted by LRU pressure.
    pub cache_evictions: u64,
    /// hits / (hits + misses + stale).
    pub cache_hit_rate: f64,
    /// Regions answered from the region pool.
    pub regions_reused: u64,
    /// Regions whose grid search ran.
    pub regions_planned: u64,
    /// Online-drift adaptation events.
    pub adaptations: u64,
    /// Width updates enqueued by adaptations.
    pub batch_enqueued: u64,
    /// Width updates applied at ticks.
    pub batch_applied: u64,
    /// Updates coalesced away before apply.
    pub batch_coalesced: u64,
    /// Service ticks executed.
    pub ticks: u64,
}

impl ServeReport {
    /// Serialise as pretty JSON (the CLI/CI output format).
    pub fn to_json_pretty(&self) -> String {
        // The vendored serialiser is infallible; Err is unreachable.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}
