//! `compare A B`: judge the runs in result file B against those in A, using
//! the bounds `BENCHMARK.json` fixes for the end-to-end metrics.
//!
//! Each file holds one JSON object per line, as `run.sh` writes them:
//! `{"set", "workload", "seed", "trace", "result"}` where `result` is the
//! benchmark's result line. Every (metric, workload) row prints both
//! sides' median and quartiles and, for end-to-end metrics, a verdict:
//!
//! * `unresolved` — either side's spread (quartile distance over median)
//!   exceeds the bound, unless every run of B beats every run of A;
//! * `regressed` / `improved` — B's median is worse / better than A's by
//!   more than the bound;
//! * `unchanged` — otherwise.
//!
//! Per-layer rows have no bound and print `-`. The exit code is non-zero
//! when a row regressed.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Where the bounds live: the repository root, next to this package.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of A's median.
    pub bound: f64,
}

/// How B compares with A on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartile distance over the median; 0 for fewer than two values.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Judge B's runs against A's under `rule`.
pub fn verdict(a: &[f64], b: &[f64], rule: Bound) -> Verdict {
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread(a).max(spread(b)) > rule.bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse = if rule.higher_is_better {
        -change
    } else {
        change
    };
    if worse > rule.bound {
        Verdict::Regressed
    } else if -worse > rule.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, metric) -> values` of every run in a result file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = run["workload"].as_str().unwrap_or_default();
        let metrics = run["result"]["metrics"]
            .as_object()
            .ok_or_else(|| format!("{path}:{}: no result metrics", i + 1))?;
        for (name, m) in metrics.iter() {
            if let Some(v) = m["value"].as_f64() {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

fn read_bounds() -> Result<BTreeMap<String, Bound>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let mut bounds = BTreeMap::new();
    for m in doc["end_to_end"].as_array().into_iter().flatten() {
        if let (Some(name), Some(bound)) = (m["name"].as_str(), m["bound"].as_f64()) {
            let higher_is_better = m["better"].as_str() == Some("higher");
            bounds.insert(
                name.to_string(),
                Bound {
                    higher_is_better,
                    bound,
                },
            );
        }
    }
    Ok(bounds)
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{:.6} [{q1:.6}, {q3:.6}]", median(values)),
        None => format!("{:.6}", median(values)),
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let [a_path, b_path] = argv else {
        eprintln!("usage: harl-benchmark compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b, bounds) = match (read_runs(a_path), read_runs(b_path), read_bounds()) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<16} {:<28} {:>36} {:>36} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "bound"
    );
    let mut regressed = false;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if ma != 0.0 {
            (mb - ma) / ma.abs() * 100.0
        } else {
            0.0
        };
        let worst_spread = spread(va).max(spread(vb)) * 100.0;
        let (bound, label) = match bounds.get(metric) {
            Some(&rule) => {
                let v = verdict(va, vb, rule);
                regressed |= v == Verdict::Regressed;
                (format!("{:.1}%", rule.bound * 100.0), v.label())
            }
            None => ("-".to_string(), "-"),
        };
        println!(
            "{workload:<16} {metric:<28} {:>36} {:>36} {change:>+8.2}% {worst_spread:>6.2}% {bound:>7}  {label}",
            summary(va),
            summary(vb),
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        higher_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1, 10.2, 10.25], LOWER),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], LOWER),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], LOWER),
            Verdict::Improved
        );
        let noisy = [5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(verdict(&a, &noisy, LOWER), Verdict::Unresolved);
        // A wide spread still reads improved when every run of B wins.
        assert_eq!(verdict(&noisy, &[1.0, 2.0, 4.0], LOWER), Verdict::Improved);
        let higher = Bound {
            higher_is_better: true,
            ..LOWER
        };
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], higher),
            Verdict::Regressed
        );
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let bounds = read_bounds().expect("BENCHMARK.json parses");
        for (name, _) in crate::metrics::END_TO_END {
            assert!(bounds.contains_key(name), "{name} has no bound");
        }
        assert!(bounds.values().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
