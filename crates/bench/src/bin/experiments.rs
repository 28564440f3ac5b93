//! Experiment driver: regenerates every results figure of the paper.
//!
//! ```text
//! experiments [--paper] [--out DIR] [--metrics-out FILE] [--trace-out FILE]
//!             [--threads T]
//!             <fig1a|fig1b|fig7|fig8|fig9|fig10|fig11|fig12|headline|all>
//! ```
//!
//! `--threads` sets the planner's thread budget (the simulator is
//! single-threaded); every figure is byte-identical at any setting, so it
//! only changes wall-clock time.
//!
//! `--paper` runs at the paper's full sizes (16 GiB IOR files, ≈1.7 GB
//! BTIO); the default quick scale is shape-identical. Tables print to
//! stdout; JSON records land in `--out` (default `results/`).
//!
//! `--metrics-out` installs the in-memory recorder for every measured run
//! and dumps the aggregated series (per-server latency histograms,
//! per-region routing counters, request spans, …) as JSONL when the suite
//! finishes; `--trace-out` additionally writes the request spans in Chrome
//! trace-event format (load into `chrome://tracing` or Perfetto).

// Bin-crate panic hygiene (ratcheted to deny in PR 8): failures exit
// with a message, never a backtrace.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use harl_bench::{
    abl_model, abl_multiapp, abl_profiles, abl_region, abl_step, abl_straggler, fig10, fig11,
    fig12, fig1a, fig1b, fig7, fig8, fig9, headline, install_recorder, Scale,
};
use std::io::BufWriter;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--paper] [--out DIR] [--metrics-out FILE] [--trace-out FILE] \
         [--threads T] \
         <fig1a|fig1b|fig7|fig8|fig9|fig10|fig11|fig12|headline|\
         abl-region|abl-step|abl-model|abl-profiles|abl-straggler|abl-multiapp|all|ablations>"
    );
    std::process::exit(2);
}

/// Print an I/O error and exit with a failure status (bin-crate error
/// handling: no panics, a clean message instead of a backtrace).
fn die(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {err}");
    std::process::exit(1);
}

fn main() {
    let mut scale = Scale::quick();
    let mut out_dir = PathBuf::from("results");
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--threads" => {
                let t = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                harl_bench::harness::set_threads(t);
            }
            "--help" | "-h" => usage(),
            name => targets.push(name.to_string()),
        }
    }
    let recorder = if metrics_out.is_some() || trace_out.is_some() {
        Some(install_recorder())
    } else {
        None
    };
    if targets.is_empty() {
        usage();
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "fig1a",
            "fig1b",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "headline",
            "abl-region",
            "abl-step",
            "abl-model",
            "abl-profiles",
            "abl-straggler",
            "abl-multiapp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    } else if targets.iter().any(|t| t == "ablations") {
        targets = [
            "abl-region",
            "abl-step",
            "abl-model",
            "abl-profiles",
            "abl-straggler",
            "abl-multiapp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}", out_dir.display()), e));
    for target in &targets {
        // The progress line reports each target's wall time; it never
        // reaches a result file.
        #[allow(clippy::disallowed_types, clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let result = match target.as_str() {
            "fig1a" => fig1a(&scale),
            "fig1b" => fig1b(&scale),
            "fig7" => fig7(&scale),
            "fig8" => fig8(&scale),
            "fig9" => fig9(&scale),
            "fig10" => fig10(&scale),
            "fig11" => fig11(&scale),
            "fig12" => fig12(&scale),
            "headline" => headline(&scale),
            "abl-region" => abl_region(&scale),
            "abl-step" => abl_step(&scale),
            "abl-model" => abl_model(&scale),
            "abl-profiles" => abl_profiles(&scale),
            "abl-straggler" => abl_straggler(&scale),
            "abl-multiapp" => abl_multiapp(&scale),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        };
        print!("{}", result.text);
        let path = out_dir.join(format!("{target}.json"));
        let text = serde_json::to_string_pretty(&result.json)
            .unwrap_or_else(|e| die("cannot serialise result JSON", e));
        std::fs::write(&path, text)
            .unwrap_or_else(|e| die(&format!("cannot write {}", path.display()), e));
        #[allow(clippy::disallowed_methods)]
        let wall_s = started.elapsed().as_secs_f64();
        println!("[{target}: {wall_s:.1}s, wrote {}]", path.display());
    }

    if let Some(recorder) = recorder {
        if let Some(path) = &metrics_out {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create {}", path.display()), e));
            let mut w = BufWriter::new(file);
            recorder
                .write_jsonl(&mut w)
                .unwrap_or_else(|e| die("cannot write metrics JSONL", e));
            println!(
                "[metrics: {} series -> {}]",
                recorder.series_count(),
                path.display()
            );
        }
        if let Some(path) = &trace_out {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create {}", path.display()), e));
            let mut w = BufWriter::new(file);
            recorder
                .write_chrome_trace(&mut w)
                .unwrap_or_else(|e| die("cannot write Chrome trace", e));
            println!(
                "[trace: {} spans -> {}]",
                recorder.spans().len(),
                path.display()
            );
        }
    }
}
