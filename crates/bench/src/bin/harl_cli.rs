//! `harl-cli` — operate on HARL's on-disk artifacts.
//!
//! The paper's implementation stores trace files, the RST and the R2F next
//! to the application. This tool inspects and produces those artifacts:
//!
//! ```text
//! harl-cli trace-info  <trace.jsonl>
//! harl-cli plan        <trace.jsonl> --file-size BYTES [--hservers M]
//!                      [--sservers N] [--out rst.json] [--region-size B]
//! harl-cli inspect     <rst.json>
//! harl-cli simulate    <trace.jsonl> <rst.json> [--hservers M] [--sservers N]
//!                      [--metrics-out metrics.jsonl] [--trace-out trace.json]
//!                      [--sample-ms MS]
//! harl-cli report      <metrics.jsonl>
//! harl-cli run --scenario scenario.json [--out report.json] [--seed S]
//!              [--threads T] [--metrics-out metrics.jsonl] [--sample-ms MS]
//! harl-cli serve --scenario serve.json [--out report.json] [--threads T]
//!              [--metrics-out metrics.jsonl]
//! harl-cli audit-determinism [--root DIR]
//! ```
//!
//! Sizes accept suffixes `K`, `M`, `G` (binary) and must be positive.
//!
//! `--metrics-out` records the simulation (per-server queue-wait and
//! service-time histograms, per-region routing counters, per-region
//! predicted-vs-actual cost residuals, request spans) and writes it as
//! JSONL; `--trace-out` writes the request spans as a Chrome trace-event
//! file for `chrome://tracing` / Perfetto. `--sample-ms` additionally
//! samples per-server queue depth, utilisation and in-flight bytes every
//! MS simulated milliseconds (it needs `--metrics-out` or `--trace-out`
//! to have somewhere to land). `report` renders a recorded metrics JSONL
//! back into a per-server utilisation / queue summary.

// Bin-crate panic hygiene (ratcheted to deny in PR 8): failures exit
// with a message, never a backtrace.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use harl_core::{
    divide_regions, size_histogram, summarize, summarize_records, CostKernel, HarlPolicy,
    LayoutPolicy, MultiProfileModel, RegionDivisionConfig, RegionStripeTable, Trace,
};
use harl_devices::{CalibrationConfig, OpKind};
use harl_middleware::{run_workload, CollectiveConfig};
use harl_pfs::{ClusterConfig, FileLayout};
use harl_repro::scenario::{Scenario, ServeSpec};
use harl_simcore::metrics::{MemoryRecorder, Recorder};
use harl_simcore::{registry, ByteSize, SimContext, SimNanos};
use harl_workloads::replay;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  harl-cli trace-info <trace.jsonl>\n  harl-cli plan <trace.jsonl> \
         --file-size BYTES [--hservers M] [--sservers N] [--out rst.json] [--region-size B]\n  \
         harl-cli inspect <rst.json>\n  harl-cli simulate <trace.jsonl> <rst.json> \
         [--hservers M] [--sservers N] [--metrics-out metrics.jsonl] [--trace-out trace.json] \
         [--sample-ms MS]\n  \
         harl-cli report <metrics.jsonl>\n  \
         harl-cli run --scenario scenario.json [--out report.json] [--seed S] [--threads T] \
         [--metrics-out metrics.jsonl] [--sample-ms MS]\n  \
         harl-cli serve --scenario serve.json [--out report.json] [--threads T] \
         [--metrics-out metrics.jsonl]\n  \
         harl-cli audit-determinism [--root DIR]"
    );
    std::process::exit(2);
}

/// Parse "64K" / "16M" / "2G" / plain bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1024u64),
        'M' | 'm' => (&s[..s.len() - 1], 1 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// The value of `--file-size` or `--region-size`: a positive size that
/// fits in a `u64`; anything else is a usage error.
fn size_flag(flag: &str, value: Option<&String>) -> u64 {
    match value.and_then(|v| parse_size(v)) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} takes a positive size below 16 EiB, such as 512K, 16M or 2G");
            usage()
        }
    }
}

struct Opts {
    positional: Vec<String>,
    file_size: Option<u64>,
    hservers: usize,
    sservers: usize,
    out: Option<PathBuf>,
    region_size: Option<u64>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    threads: Option<usize>,
    scenario: Option<PathBuf>,
    seed: Option<u64>,
    root: Option<PathBuf>,
    sample_ms: Option<f64>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        positional: Vec::new(),
        file_size: None,
        hservers: 6,
        sservers: 2,
        out: None,
        region_size: None,
        metrics_out: None,
        trace_out: None,
        threads: None,
        scenario: None,
        seed: None,
        root: None,
        sample_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--file-size" => opts.file_size = Some(size_flag(arg, it.next())),
            "--hservers" => {
                opts.hservers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--sservers" => {
                opts.sservers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => opts.out = it.next().map(PathBuf::from),
            "--metrics-out" => {
                opts.metrics_out = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--trace-out" => {
                opts.trace_out = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--threads" => {
                opts.threads = it.next().and_then(|v| v.parse().ok());
                if opts.threads.is_none() {
                    usage();
                }
            }
            "--scenario" => {
                opts.scenario = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage()))
            }
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok());
                if opts.seed.is_none() {
                    usage();
                }
            }
            "--root" => opts.root = Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            "--sample-ms" => {
                opts.sample_ms = it.next().and_then(|v| v.parse().ok());
                match opts.sample_ms {
                    Some(ms) if ms > 0.0 && ms.is_finite() => {}
                    _ => usage(),
                }
            }
            "--region-size" => opts.region_size = Some(size_flag(arg, it.next())),
            other if other.starts_with("--") => usage(),
            other => opts.positional.push(other.to_string()),
        }
    }
    opts
}

fn load_trace(path: &str) -> Trace {
    Trace::load_from_path(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read trace {path}: {e}");
        std::process::exit(1);
    })
}

fn load_rst(path: &str) -> RegionStripeTable {
    RegionStripeTable::load_from_path(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read RST {path}: {e}");
        std::process::exit(1);
    })
}

/// The `--hservers`/`--sservers` cluster; one with no servers at all is a
/// usage error.
fn cli_cluster(opts: &Opts) -> ClusterConfig {
    if opts.hservers == 0 && opts.sservers == 0 {
        eprintln!("--hservers and --sservers cannot both be 0");
        usage();
    }
    ClusterConfig::hybrid(opts.hservers, opts.sservers)
}

fn cmd_trace_info(opts: &Opts) {
    let [path] = opts.positional.as_slice() else {
        usage()
    };
    let trace = load_trace(path);
    let summary = summarize(&trace);
    println!("{}", summary.render());
    println!("\nrequest-size histogram:");
    for (upper, count) in size_histogram(&trace).nonzero_buckets() {
        println!("  <= {:>10}: {count}", ByteSize(upper + 1).to_string());
    }
    // Show what Algorithm 1 would do.
    let sorted = trace.sorted_by_offset();
    let file_size = opts.file_size.unwrap_or_else(|| trace.extent().max(1));
    let mut cfg = RegionDivisionConfig::default();
    if let Some(rs) = opts.region_size {
        cfg.fixed_region_size = rs;
    }
    let regions = divide_regions(&sorted, file_size, &cfg);
    println!("\nAlgorithm 1 division ({} region(s)):", regions.len());
    for (i, (region, summary)) in regions
        .iter()
        .zip(harl_core::analysis::summarize_regions(&sorted, &regions))
        .enumerate()
    {
        println!(
            "  region {i} [{}, {}): {}",
            ByteSize(region.offset),
            ByteSize(region.end),
            summary.render()
        );
    }
}

fn cmd_plan(opts: &Opts) {
    let [path] = opts.positional.as_slice() else {
        usage()
    };
    let trace = load_trace(path);
    let file_size = opts.file_size.unwrap_or_else(|| trace.extent().max(1));
    let cluster = cli_cluster(opts);
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let mut policy = HarlPolicy::new(model);
    if let Some(rs) = opts.region_size {
        policy.division.fixed_region_size = rs;
    }
    let rst = policy.plan(&SimContext::new(), &trace, file_size);
    print_rst(&rst);
    if let Some(out) = &opts.out {
        rst.save_to_path(out).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        });
        println!("wrote {}", out.display());
    }
}

fn print_rst(rst: &RegionStripeTable) {
    let widths_heading = "widths (one per class)";
    println!(
        "{:<8} {:>14} {:>14}  {widths_heading}",
        "region", "offset", "length"
    );
    for (i, e) in rst.entries().iter().enumerate() {
        let widths = e
            .widths()
            .iter()
            .map(|&w| format!("{:>10}", ByteSize(w).to_string()))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<8} {:>14} {:>14}  {}",
            i,
            ByteSize(e.offset).to_string(),
            ByteSize(e.len).to_string(),
            widths
        );
    }
}

fn cmd_inspect(opts: &Opts) {
    let [path] = opts.positional.as_slice() else {
        usage()
    };
    let rst = load_rst(path);
    print_rst(&rst);
    println!("file size: {}", ByteSize(rst.file_size()));
}

/// Per-region predicted-vs-actual cost residuals, from the recorded
/// request spans: each span carries its region file, in-region offset,
/// size and op, so the Sec. III-D model can be replayed against the
/// observed end-to-end latency (the model-drift signal of Eqs. 1–8).
fn record_residuals(recorder: &MemoryRecorder, kernel: &CostKernel, rst: &RegionStripeTable) {
    let label_of = |span: &harl_simcore::SpanRecord, key: &str| {
        span.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    for span in recorder.spans() {
        let Ok(region) = label_of(&span, "file").parse::<usize>() else {
            continue;
        };
        let Some(entry) = rst.entries().get(region) else {
            continue;
        };
        let (Ok(offset), Ok(size)) = (
            label_of(&span, "offset").parse::<u64>(),
            label_of(&span, "size").parse::<u64>(),
        ) else {
            continue;
        };
        let op = if label_of(&span, "op") == "write" {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let predicted = kernel.request_cost(offset, size, op, entry.widths());
        let actual = span.latency_ns() as f64 / 1e9;
        let residual = actual - predicted;
        let labels = [("region", region.to_string())];
        recorder.observe_f64(registry::HARL_MODEL_RESIDUAL_S.name, &labels, residual);
        recorder.observe(
            registry::HARL_MODEL_RESIDUAL_ABS_NS.name,
            &labels,
            (residual.abs() * 1e9) as u64,
        );
    }
}

fn cmd_simulate(opts: &Opts) {
    let [trace_path, rst_path] = opts.positional.as_slice() else {
        usage()
    };
    let trace = load_trace(trace_path);
    let rst = load_rst(rst_path);
    let cluster = cli_cluster(opts);
    for (i, entry) in rst.entries().iter().enumerate() {
        if let Err(reason) = FileLayout::try_for_classes(&cluster, entry.widths()) {
            eprintln!("RST {rst_path} row {i} does not fit the cluster: {reason}");
            std::process::exit(1);
        }
    }
    let workload = replay(&trace);
    let recording = opts.metrics_out.is_some() || opts.trace_out.is_some();
    let memory = Arc::new(MemoryRecorder::new());
    let mut ctx = if recording {
        SimContext::recorded(memory.clone())
    } else {
        SimContext::new()
    };
    if let Some(ms) = opts.sample_ms {
        ctx = ctx.with_sample_interval(SimNanos::from_secs_f64(ms / 1e3));
    }
    let report = run_workload(
        &ctx,
        &cluster,
        &rst,
        &workload,
        &CollectiveConfig::default(),
    );
    if report.makespan == SimNanos::MAX {
        eprintln!(
            "simulated time overflowed: the makespan reached the u64 limit of {} ns, \
             so a service time in this replay is too large to simulate",
            u64::MAX
        );
        std::process::exit(1);
    }
    if recording {
        let model =
            MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
        record_residuals(&memory, &CostKernel::new(&model), &rst);
    }
    if let Some(path) = &opts.metrics_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        });
        memory
            .write_jsonl(&mut BufWriter::new(file))
            .unwrap_or_else(|e| {
                eprintln!("cannot write metrics JSONL: {e}");
                std::process::exit(1);
            });
        println!(
            "wrote {} metric series to {}",
            memory.series_count(),
            path.display()
        );
    }
    if let Some(path) = &opts.trace_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        });
        memory
            .write_chrome_trace(&mut BufWriter::new(file))
            .unwrap_or_else(|e| {
                eprintln!("cannot write Chrome trace: {e}");
                std::process::exit(1);
            });
        println!("wrote {} spans to {}", memory.spans().len(), path.display());
    }
    println!(
        "replayed {} requests: {:.1} MiB/s over {}",
        report.requests_completed,
        report.throughput_mib_s(),
        report.makespan
    );
    println!(
        "per-server busy (normalised): {:?}",
        report
            .normalized_server_times()
            .iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    let summary = summarize_records(trace.records());
    println!("trace pattern: {}", summary.pattern_label());

    // A coarse utilisation sparkline per server over the run.
    let blocks = [' ', '.', ':', '-', '=', '#'];
    for s in &report.servers {
        let line: String = s
            .busy_series
            .utilisation_through(report.makespan)
            .iter()
            .map(|&u| blocks[((u.min(1.0)) * (blocks.len() - 1) as f64).round() as usize])
            .collect();
        println!("server {:>2} busy |{line}|", s.id);
    }
}

fn cmd_report(opts: &Opts) {
    let [path] = opts.positional.as_slice() else {
        usage()
    };
    let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let summary = harl_pfs::MetricsSummary::parse(&jsonl).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    print!("{}", summary.render());
}

fn cmd_run(opts: &Opts) {
    if !opts.positional.is_empty() {
        usage();
    }
    let Some(path) = &opts.scenario else { usage() };
    let scenario = Scenario::from_path(path).unwrap_or_else(|e| {
        eprintln!("cannot load scenario: {e}");
        std::process::exit(1);
    });
    let memory = Arc::new(MemoryRecorder::new());
    let mut ctx = if opts.metrics_out.is_some() {
        SimContext::recorded(memory.clone())
    } else {
        SimContext::new()
    };
    if let Some(seed) = opts.seed {
        ctx = ctx.with_seed(seed);
    }
    if let Some(threads) = opts.threads {
        ctx = ctx.with_threads(threads);
    }
    if let Some(ms) = opts.sample_ms {
        ctx = ctx.with_sample_interval(SimNanos::from_secs_f64(ms / 1e3));
    }
    let report = scenario.run(&ctx).unwrap_or_else(|e| {
        eprintln!("scenario failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &opts.metrics_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        });
        memory
            .write_jsonl(&mut BufWriter::new(file))
            .unwrap_or_else(|e| {
                eprintln!("cannot write metrics JSONL: {e}");
                std::process::exit(1);
            });
        println!(
            "wrote {} metric series to {}",
            memory.series_count(),
            path.display()
        );
    }
    let json = report.to_json_pretty();
    match &opts.out {
        Some(out) => {
            std::fs::write(out, json + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", out.display());
                std::process::exit(1);
            });
            println!(
                "{}: {} regions, {:.1} MiB/s — wrote {}",
                report.policy,
                report.regions,
                report.throughput_mib_s,
                out.display()
            );
        }
        None => println!("{json}"),
    }
}

fn cmd_serve(opts: &Opts) {
    if !opts.positional.is_empty() {
        usage();
    }
    let Some(path) = &opts.scenario else { usage() };
    let spec = ServeSpec::from_path(path).unwrap_or_else(|e| {
        eprintln!("cannot load serve spec: {e}");
        std::process::exit(1);
    });
    let memory = Arc::new(MemoryRecorder::new());
    let mut ctx = if opts.metrics_out.is_some() {
        SimContext::recorded(memory.clone())
    } else {
        SimContext::new()
    };
    if let Some(threads) = opts.threads {
        ctx = ctx.with_threads(threads);
    }
    let report = spec.run(&ctx).unwrap_or_else(|e| {
        eprintln!("serve replay failed: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &opts.metrics_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(1);
        });
        memory
            .write_jsonl(&mut BufWriter::new(file))
            .unwrap_or_else(|e| {
                eprintln!("cannot write metrics JSONL: {e}");
                std::process::exit(1);
            });
        println!(
            "wrote {} metric series to {}",
            memory.series_count(),
            path.display()
        );
    }
    let json = report.to_json_pretty();
    match &opts.out {
        Some(out) => {
            std::fs::write(out, json + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", out.display());
                std::process::exit(1);
            });
            println!(
                "{} jobs over {} tenants: {:.0}% cache hits, {} adaptations — wrote {}",
                report.jobs,
                report.tenants,
                report.cache_hit_rate * 100.0,
                report.adaptations,
                out.display()
            );
        }
        None => println!("{json}"),
    }
}

fn cmd_audit_determinism(opts: &Opts) {
    if !opts.positional.is_empty() {
        usage();
    }
    let root = opts.root.clone().unwrap_or_else(|| PathBuf::from("."));
    let report = harl_bench::auditdet::run_audit(&root);
    print!("{}", report.render_human());
    if !report.is_clean() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let opts = parse_opts(rest);
    match cmd.as_str() {
        "trace-info" => cmd_trace_info(&opts),
        "plan" => cmd_plan(&opts),
        "inspect" => cmd_inspect(&opts),
        "simulate" => cmd_simulate(&opts),
        "report" => cmd_report(&opts),
        "run" => cmd_run(&opts),
        "serve" => cmd_serve(&opts),
        "audit-determinism" => cmd_audit_determinism(&opts),
        _ => usage(),
    }
}
