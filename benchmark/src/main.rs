//! Seeded end-to-end benchmark of the HARL pipeline, with per-layer
//! attribution measured from outside the program.
//!
//! ```text
//! harl-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]
//! harl-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! One workload prints each metric as `workload metric value unit`, then a
//! JSON result line (`correct`, `attempted`, `failed`, `metrics`). Without
//! `--workload` every workload runs, each in a fresh process so peak heap
//! and allocator state do not carry over. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones; `--trace-out DIR`
//! also writes `DIR/<workload>.trace.json` (Chrome trace events) and
//! `DIR/<workload>.layers.json`. The exit code is non-zero when a
//! correctness check fails.

mod alloc;
mod checks;
mod compare;
mod metrics;
mod pipeline;
mod serve;
mod stats;
mod tally;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: harl-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out DIR]\n       \
                     harl-benchmark compare A.jsonl B.jsonl";

/// Operations whose spans go into a Chrome trace (the viewers slow down
/// past a few tens of thousands of events).
const TRACE_OPS: usize = 2000;

/// Seconds one pass over a workload's operations takes on the reference
/// machine (2 vCPUs); job lists are sized to it. A run makes
/// `--seconds / PASS_SECONDS` passes, so every run of one `--seconds`
/// makes the same number whatever the machine's speed, and each
/// operation's latency is always the median of the same number of passes.
const PASS_SECONDS: f64 = 5.0;

/// Fewest passes: the cross-pass check needs two, and a traced run needs a
/// plain and a traced pass.
const MIN_PASSES: usize = 2;

fn passes(seconds: f64) -> usize {
    ((seconds / PASS_SECONDS).round() as usize).max(MIN_PASSES)
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name) {
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(name.to_string());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    match parse(&argv) {
        Ok(args) => match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_all(&args),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, each in a child process of this executable.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.trace_out {
            cmd.arg("--trace-out").arg(dir);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(inputs) = workloads::generate(name, args.seed, 1) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    let cpu_before = metrics::cpu_seconds();
    let heap_base = alloc::reset_peak();
    let passes = passes(args.seconds);
    let (mut values, checks, log) = match &inputs {
        workloads::Inputs::Pipeline(p) => pipeline::run(p, passes, args.trace),
        workloads::Inputs::Serve(s) => serve::run(s, passes, args.trace),
    };
    values.insert(
        "peak_heap_mib",
        alloc::peak().saturating_sub(heap_base) as f64 / (1024.0 * 1024.0),
    );
    if let (Some(before), Some(after)) = (cpu_before, metrics::cpu_seconds()) {
        values.insert("host.user_cpu_s", after.0 - before.0);
        values.insert("host.sys_cpu_s", after.1 - before.1);
    }
    metrics::derive_ratios(&mut values);
    let table: &[_] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let selected = metrics::select(table, &values);
    for (metric, value, unit) in &selected {
        println!("{name} {metric} {value} {unit}");
    }
    if let Some(why) = &checks.first_failure {
        eprintln!(
            "{name}: {} of {} operations failed (error rate {}); first: {why}",
            checks.failed,
            checks.attempted,
            checks.error_rate()
        );
    }
    let result = metrics::result_line(&checks, &selected);
    if let (Some(dir), Some(log)) = (&args.trace_out, &log) {
        if let Err(e) = write_trace(dir, name, log, &result) {
            eprintln!("cannot write traces to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(dir: &Path, name: &str, log: &tally::SpanLog, layers: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut trace = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{name}.trace.json")),
    )?);
    log.write_chrome_trace(&mut trace, TRACE_OPS)?;
    std::io::Write::flush(&mut trace)?;
    std::fs::write(dir.join(format!("{name}.layers.json")), layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared() -> Value {
        let text =
            std::fs::read_to_string(compare::BENCHMARK_JSON).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .into_iter()
            .flatten()
            .map(|m| {
                let field = |f: &str| m[f].as_str().unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_names_are_declared_in_benchmark_json() {
        let doc = declared();
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, workloads::NAMES.map(String::from));
        for (key, table) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                names(&doc, key),
                printed,
                "{key} differs from BENCHMARK.json"
            );
        }
        for name in workloads::NAMES
            .iter()
            .chain(metrics::END_TO_END.iter().map(|(n, _)| n))
            .chain(metrics::PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(well_formed(name), "{name} is not a well-formed name");
        }
    }

    #[test]
    fn arguments_parse_and_reject_mistakes() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload k3_phased --seed 9 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("k3_phased"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert_eq!(passes(a.seconds), 2);
        assert_eq!(passes(15.0), 3);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad} should be rejected");
        }
    }

    /// Every workload at 1/50 of its length, with one plain and one traced
    /// pass: no check fails, and every value a runner reports is declared.
    #[test]
    fn every_workload_runs_short_without_errors() {
        let declared: Vec<&str> = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for name in workloads::NAMES {
            let inputs = workloads::generate(name, 3, 50).expect("known workload");
            let (values, checks, log) = match &inputs {
                workloads::Inputs::Pipeline(p) => pipeline::run(p, 2, true),
                workloads::Inputs::Serve(s) => serve::run(s, 2, true),
            };
            assert!(checks.attempted > 0, "{name} checked nothing");
            assert_eq!(
                checks.error_rate(),
                0.0,
                "{name}: {:?}",
                checks.first_failure
            );
            assert!(log.is_some(), "{name} kept no spans");
            for key in values.keys() {
                assert!(declared.contains(key), "{name} reports undeclared {key}");
            }
            for metric in [
                "setup_s",
                "op_p50_ms",
                "op_p90_ms",
                "ops_per_s",
                "sim_mib_s",
            ] {
                assert!(values[metric] > 0.0, "{name}: {metric} is not positive");
            }
        }
    }
}
