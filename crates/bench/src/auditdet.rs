//! Runtime determinism auditor — `harl-cli audit-determinism`.
//!
//! The static analyzer (harl-lint) bans the *patterns* that break
//! bit-determinism; this module audits the *property* itself: it re-runs
//! the pinned scenarios at several thread budgets and two seeds, hashes
//! every artifact a run produces (the report JSON and the recorded
//! metrics JSONL), and fails on any byte difference across thread
//! budgets. For the default seed it additionally byte-compares the
//! report against the committed golden, so golden drift and thread-count
//! sensitivity are caught by one command. Every report must also hold
//! its invariants (`check_run`, `check_serve`) on every seed and thread
//! budget.
//!
//! Wall-clock series (`harl.optimizer.plan_wall_s`, `sim.profile.*`) are
//! the audited exceptions to determinism — they measure real machine
//! time — so the metrics hash is taken over the JSONL with those lines
//! removed.
//!
//! Artifact hashing is FNV-1a 64: dependency-free, stable across
//! platforms, and streamable (hashing chunk-by-chunk equals hashing the
//! concatenation — pinned by a proptest below).

use harl_repro::scenario::{Scenario, ScenarioReport, ServeReport, ServeSpec};
use harl_simcore::metrics::MemoryRecorder;
use harl_simcore::{SimContext, SimNanos};
use std::path::Path;
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 hasher: feeding bytes in any chunking produces
/// the same digest as one shot over the concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Drop wall-clock metric lines from a metrics JSONL dump: those series
/// measure real machine time by design (they carry the same audited
/// exception in `lint.allow.toml`) and must not poison the artifact hash.
pub fn strip_wall_metrics(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if line.contains("harl.optimizer.plan_wall_s") || line.contains("sim.profile.") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The artifacts one run produces, ready for hashing.
struct Artifact {
    /// The report as pretty JSON plus trailing newline (the exact bytes
    /// `harl-cli run --out` writes, so golden comparison is byte-level).
    report_json: String,
    /// Recorded metrics JSONL with wall-clock series stripped.
    metrics: String,
}

impl Artifact {
    fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(self.report_json.as_bytes());
        // Domain separator between the two artifacts.
        h.update(&[0]);
        h.update(self.metrics.as_bytes());
        h.finish()
    }
}

/// Which CLI pipeline a scenario file drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaseKind {
    /// `harl-cli run` — trace → plan → simulate ([`Scenario`]).
    Run,
    /// `harl-cli serve` — multi-tenant planning service ([`ServeSpec`]).
    Serve,
}

struct Case {
    name: &'static str,
    kind: CaseKind,
    scenario: &'static str,
    golden: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "smoke",
        kind: CaseKind::Run,
        scenario: "scenarios/smoke.json",
        golden: "scenarios/smoke.golden.json",
    },
    Case {
        name: "three_tier",
        kind: CaseKind::Run,
        scenario: "scenarios/three_tier.json",
        golden: "scenarios/three_tier.golden.json",
    },
    Case {
        name: "multiapp",
        kind: CaseKind::Serve,
        scenario: "scenarios/multiapp.json",
        golden: "scenarios/multiapp.golden.json",
    },
    Case {
        name: "btio",
        kind: CaseKind::Run,
        scenario: "scenarios/btio.json",
        golden: "scenarios/btio.golden.json",
    },
    // 256 servers and a 16 KiB stripe: every 4 MiB read fans out to all
    // of them, the only golden whose fan-outs are that wide.
    Case {
        name: "wide",
        kind: CaseKind::Run,
        scenario: "scenarios/wide.json",
        golden: "scenarios/wide.golden.json",
    },
    // The same fan-out as writes: the one golden whose write completions
    // are that wide (btio's nine writers are the other write path).
    Case {
        name: "wide_write",
        kind: CaseKind::Run,
        scenario: "scenarios/wide_write.json",
        golden: "scenarios/wide_write.golden.json",
    },
];

/// The alternate seed every case is re-audited under (the default seed is
/// whatever the scenario file pins).
pub const ALT_SEED: u64 = 0x0005_EED2;

/// Outcome of one audit, ready for rendering and exit-code decisions.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// One human-readable line per (case, seed) row.
    pub lines: Vec<String>,
    /// Human-readable descriptions of every failed check.
    pub failures: Vec<String>,
    /// Runs executed (cases × seeds × thread budgets).
    pub runs: usize,
}

impl AuditReport {
    /// True when every hash agreed and every golden matched.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the audit as a human-readable block.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str(&format!(
                "audit-determinism: {} run(s), all artifacts byte-identical across thread budgets\n",
                self.runs
            ));
        } else {
            for f in &self.failures {
                out.push_str(&format!("audit-determinism FAIL: {f}\n"));
            }
        }
        out
    }
}

/// A run report's invariant: a priced plan (only `three_tier` has
/// priced tiers) costs more than nothing.
fn check_run(report: &ScenarioReport) -> Result<(), String> {
    match report.plan_cost_usd {
        Some(usd) if usd <= 0.0 => Err(format!("plan_cost_usd is {usd}, not positive")),
        _ => Ok(()),
    }
}

/// A serve report's invariants: every job is a hit, a stale refresh or a
/// miss; every enqueued width update is applied or coalesced; and the
/// replay hits its plan cache.
fn check_serve(report: &ServeReport) -> Result<(), String> {
    let ServeReport {
        jobs,
        plans_hit,
        plans_stale,
        plans_miss,
        batch_enqueued,
        batch_applied,
        batch_coalesced,
        cache_hit_rate,
        ..
    } = *report;
    if plans_hit + plans_stale + plans_miss != jobs {
        return Err(format!(
            "plans hit {plans_hit} + stale {plans_stale} + miss {plans_miss} != {jobs} jobs"
        ));
    }
    if batch_applied + batch_coalesced != batch_enqueued {
        return Err(format!(
            "batch applied {batch_applied} + coalesced {batch_coalesced} != \
             {batch_enqueued} enqueued"
        ));
    }
    if cache_hit_rate <= 0.0 {
        return Err("the replay never hit its plan cache".to_string());
    }
    Ok(())
}

fn run_case(
    root: &Path,
    case: &Case,
    seed: Option<u64>,
    threads: usize,
) -> Result<Artifact, String> {
    let path = root.join(case.scenario);
    let memory = Arc::new(MemoryRecorder::new());
    let report_json = match case.kind {
        CaseKind::Run => {
            let scenario = Scenario::from_path(&path).map_err(|e| e.to_string())?;
            let mut ctx = SimContext::recorded(memory.clone())
                .with_threads(threads)
                .with_sample_interval(SimNanos::from_secs_f64(1e-3));
            if let Some(s) = seed {
                ctx = ctx.with_seed(s);
            }
            let report = scenario.run(&ctx)?;
            check_run(&report)?;
            report.to_json_pretty() + "\n"
        }
        CaseKind::Serve => {
            let mut spec = ServeSpec::from_path(&path).map_err(|e| e.to_string())?;
            if let Some(s) = seed {
                spec.traffic.seed = s;
            }
            let ctx = SimContext::recorded(memory.clone()).with_threads(threads);
            let report = spec.run(&ctx)?;
            check_serve(&report)?;
            report.to_json_pretty() + "\n"
        }
    };
    let mut buf = Vec::new();
    memory
        .write_jsonl(&mut buf)
        .map_err(|e| format!("metrics serialisation: {e}"))?;
    let jsonl = String::from_utf8(buf).map_err(|e| format!("metrics not UTF-8: {e}"))?;
    Ok(Artifact {
        report_json,
        metrics: strip_wall_metrics(&jsonl),
    })
}

/// Audit one (case, seed) row at every thread budget: all runs must hash
/// identically, and the default-seed report must match the golden bytes.
fn audit_row(
    root: &Path,
    case: &Case,
    seed: Option<u64>,
    threads: &[usize],
    report: &mut AuditReport,
) {
    let seed_label = match seed {
        None => "default".to_string(),
        Some(s) => format!("{s:#x}"),
    };
    let mut hashes: Vec<(usize, u64)> = Vec::new();
    let mut first: Option<Artifact> = None;
    for &t in threads {
        match run_case(root, case, seed, t) {
            Ok(art) => {
                hashes.push((t, art.hash()));
                if first.is_none() {
                    first = Some(art);
                }
                report.runs += 1;
            }
            Err(e) => {
                report
                    .failures
                    .push(format!("{} seed={seed_label} threads={t}: {e}", case.name));
                return;
            }
        }
    }
    let agreed = hashes.iter().all(|&(_, h)| h == hashes[0].1);
    if !agreed {
        let detail: Vec<String> = hashes
            .iter()
            .map(|(t, h)| format!("threads={t} hash={h:#018x}"))
            .collect();
        report.failures.push(format!(
            "{} seed={seed_label}: artifacts differ across thread budgets ({})",
            case.name,
            detail.join(", ")
        ));
    }
    let mut golden_note = String::new();
    if seed.is_none() {
        match std::fs::read_to_string(root.join(case.golden)) {
            Ok(golden) => {
                let matches = first.as_ref().is_some_and(|a| a.report_json == golden);
                if matches {
                    golden_note = ", golden ok".to_string();
                } else {
                    report.failures.push(format!(
                        "{} seed={seed_label}: report differs from {}",
                        case.name, case.golden
                    ));
                }
            }
            Err(e) => report
                .failures
                .push(format!("{}: cannot read {}: {e}", case.name, case.golden)),
        }
    }
    let tlist: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    report.lines.push(format!(
        "{:<10} seed={:<9} threads {{{}}} hash={:#018x}{}",
        case.name,
        seed_label,
        tlist.join(","),
        hashes[0].1,
        golden_note
    ));
}

/// Run the determinism audit from `root` (the repo checkout holding
/// `scenarios/`): every pinned scenario at thread budgets {1, 2, 8}, under
/// the scenario's own seed and under [`ALT_SEED`].
pub fn run_audit(root: &Path) -> AuditReport {
    let mut report = AuditReport::default();
    for case in CASES {
        for seed in [None, Some(ALT_SEED)] {
            audit_row(root, case, seed, &[1, 2, 8], &mut report);
        }
    }
    report
}

/// `root` for in-tree tests: the workspace checkout.
#[cfg(test)]
fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors: the empty string hashes to
        // the offset basis; "a" and "foobar" are the classic checks.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn strip_wall_metrics_drops_only_wall_series() {
        let jsonl = "{\"name\":\"pfs.server.bytes\",\"v\":1}\n\
                     {\"name\":\"harl.optimizer.plan_wall_s\",\"v\":0.2}\n\
                     {\"name\":\"sim.profile.dispatch_s\",\"v\":0.1}\n\
                     {\"name\":\"sim.events.dispatched\",\"v\":9}\n";
        let kept = strip_wall_metrics(jsonl);
        assert!(kept.contains("pfs.server.bytes"));
        assert!(kept.contains("sim.events.dispatched"));
        assert!(!kept.contains("plan_wall_s"));
        assert!(!kept.contains("sim.profile."));
    }

    #[test]
    fn artifact_hash_separates_report_and_metrics() {
        // Moving a byte across the report/metrics boundary must change
        // the digest: the domain separator is load-bearing.
        let a = Artifact {
            report_json: "ab".into(),
            metrics: "c".into(),
        };
        let b = Artifact {
            report_json: "a".into(),
            metrics: "bc".into(),
        };
        assert_ne!(a.hash(), b.hash());
    }

    proptest! {
        /// Chunked updates hash identically to one shot — the property
        /// that makes streaming artifact hashing sound.
        #[test]
        fn fnv64_is_chunking_invariant(
            data in prop::collection::vec(any::<u8>(), 0..256),
            cuts in prop::collection::vec(any::<u16>(), 0..8),
        ) {
            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            bounds.push(0);
            bounds.push(data.len());
            bounds.sort_unstable();
            let mut h = Fnv64::new();
            for w in bounds.windows(2) {
                h.update(&data[w[0]..w[1]]);
            }
            prop_assert_eq!(h.finish(), fnv64(&data));
        }
    }

    #[test]
    fn report_invariants_reject_broken_reports() {
        let root = workspace_root();
        let golden = |name: &str| {
            std::fs::read_to_string(root.join(format!("scenarios/{name}.golden.json")))
                .expect("golden is readable")
        };
        let mut run = ScenarioReport::from_json(&golden("three_tier")).expect("run report");
        assert!(run.plan_cost_usd.is_some_and(|usd| usd > 0.0));
        assert_eq!(check_run(&run), Ok(()));
        run.plan_cost_usd = Some(0.0);
        assert!(check_run(&run).is_err());
        run.plan_cost_usd = None;
        assert_eq!(check_run(&run), Ok(()));

        let serve = ServeReport::from_json(&golden("multiapp")).expect("serve report");
        assert_eq!(check_serve(&serve), Ok(()));
        let broken = [
            ServeReport {
                plans_hit: serve.plans_hit + 1,
                ..serve.clone()
            },
            ServeReport {
                batch_applied: serve.batch_applied + 1,
                ..serve.clone()
            },
            ServeReport {
                cache_hit_rate: 0.0,
                ..serve.clone()
            },
        ];
        for report in &broken {
            assert!(check_serve(report).is_err(), "{report:?}");
        }
    }

    /// End-to-end: the smoke scenario's artifacts are byte-identical at
    /// 1 and 2 planner threads and the report matches the golden.
    #[test]
    fn smoke_artifacts_are_thread_invariant() {
        let root = workspace_root();
        let case = &CASES[0];
        assert_eq!(case.name, "smoke");
        let mut report = AuditReport::default();
        audit_row(&root, case, None, &[1, 2], &mut report);
        assert!(report.is_clean(), "{:?}", report.failures);
        assert_eq!(report.runs, 2);
    }
}
