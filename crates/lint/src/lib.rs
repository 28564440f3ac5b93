//! `harl-lint`: project-specific static analysis for the HARL workspace.
//!
//! Clippy owns panic, cast and float-comparison hygiene, and
//! `crates/clippy.toml` bans wall clocks, ambient environment reads, hash
//! containers and thread or channel merges by type (DESIGN.md Appendix D,
//! "Four lint tiers"). What neither clippy nor the compiler can check are
//! this project's conventions: a pinned `f64` accumulation order in the
//! cost model (Sec. III-D, Eqs. 1–8), one calling convention and one
//! metric registry. This crate is a two-pass semantic analyzer (still no
//! parser crate, no dependencies): pass 1 segments the token stream into a
//! lightweight item/module graph (`graph`), pass 2 runs the token rules
//! (`rules`) and the graph-aware semantic rule (`semantic`) described in
//! DESIGN.md Appendix D:
//!
//! | rule | scope | meaning |
//! |------|-------|---------|
//! | `simcontext-first` | everywhere | `&SimContext` is the first non-self arg |
//! | `metric-registry` | everywhere but `registry.rs` | no quoted metric names at Recorder calls |
//! | `float-accumulation` | `crates/harl` (minus `fold.rs`) | f64 accumulation via `harl::fold` helpers |
//!
//! There is no allowlist: every finding fails the run.

// missing_docs / rust_2018_idioms come from [workspace.lints]. The lint
// must not panic on the code it checks; unit tests compile under
// cfg(test) and stay exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod graph;
pub mod lexer;
pub mod rules;
pub mod semantic;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of the `rules::RULE_*` constants).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

/// Result of a lint run over the workspace.
#[derive(Debug)]
pub struct Report {
    /// All findings; any one fails the run.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Model/optimizer code held to fixed-order float accumulation
/// (`harl::fold`). The fold helpers themselves implement the pinned-order
/// loops the rule pushes everyone else towards, so `fold.rs` is the one
/// file out of scope.
const FLOAT_ACC_SCOPE: &str = "crates/harl/src/";

/// Run every applicable rule on one file's source. Public so the fixture
/// tests can aim rules at synthetic paths.
///
/// Two passes: the item graph is built once (`graph::Graph::build`), the
/// token rules and the graph-aware semantic rule then share its
/// `#[cfg(test)]` mask.
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    let toks = lexer::lex(source);
    let graph = graph::Graph::build(&toks);
    let mask = graph.test_mask();
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    if path.starts_with(FLOAT_ACC_SCOPE) && !path.ends_with("fold.rs") {
        semantic::float_accumulation(path, &toks, &mask, &lines, &graph, &mut out);
    }
    rules::simcontext_first(path, &toks, &mask, &lines, &mut out);
    if !path.ends_with("registry.rs") {
        rules::metric_registry(path, &toks, &mask, &lines, &mut out);
    }
    out
}

/// Directory names never descended into: build output, vendored
/// dependencies, and per-crate test/bench/fixture trees (integration
/// tests and benches are exempt from the rules, like `#[cfg(test)]`).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut batch: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("while walking {}: {e}", dir.display()))?;
        batch.push(entry.path());
    }
    // Deterministic scan order regardless of filesystem enumeration.
    batch.sort();
    for path in batch {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    let mut tops_found = 0usize;
    for top in ["crates", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            tops_found += 1;
            walk(&dir, &mut files)?;
        }
    }
    // A root with none of the source trees is a mistyped --root, not a
    // clean workspace — scanning nothing must not pass CI.
    if tops_found == 0 {
        return Err(format!(
            "{}: no crates/, src/ or examples/ directory — is this the workspace root?",
            root.display()
        ));
    }

    let mut findings = Vec::new();
    let files_scanned = files.len();
    for file in files {
        let source = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &source));
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Human-readable report, one block per finding plus a summary line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let (id, doc) = rules::rule_doc(&f.rule);
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", f.snippet);
        }
        let _ = writeln!(out, "    = {id}: {doc}");
    }
    let _ = writeln!(
        out,
        "harl-lint: {} file(s) scanned, {} violation(s)",
        report.files_scanned,
        report.findings.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_doc_id() {
        let mut seen = std::collections::BTreeSet::new();
        for &rule in rules::RULES {
            let (id, doc) = rules::rule_doc(rule);
            assert!(id.starts_with("HL"), "{rule}: id {id}");
            assert_ne!(id, "HL999", "{rule} is missing a dedicated id");
            assert!(doc.starts_with("DESIGN.md#"), "{rule}: doc {doc}");
            assert!(seen.insert(id), "duplicate doc id {id}");
        }
    }
}
