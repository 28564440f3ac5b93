//! The `harl-lint` binary: lint the workspace, print findings, exit
//! non-zero on any violation. See DESIGN.md Appendix D.

// Bin-crate panic hygiene: failures exit with a message, never a
// backtrace. Mirrors the library tier (see lib.rs).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
harl-lint: project-specific static analysis for the HARL workspace

USAGE:
    harl-lint [--root PATH]

OPTIONS:
    --root PATH     workspace root to scan (default: .)
    -h, --help      this help

EXIT STATUS:
    0  clean
    1  at least one finding
    2  usage or I/O error
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => match argv.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    match harl_lint::run(&root) {
        Ok(report) => {
            print!("{}", harl_lint::render_human(&report));
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("harl-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("harl-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
