//! Self-check: the shipped workspace must be lint-clean. harl-lint has no
//! allowlist, so a PR that introduces a violation fails `cargo test` as
//! well as ci.sh.
//!
//! Panic, cast and float-comparison hygiene and the determinism bans
//! belong to clippy, so this file also pins the attributes and the
//! `crates/clippy.toml` entries that enforce them: a tier that quietly
//! loses a lint would otherwise go unnoticed.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn workspace_is_lint_clean() {
    let report = harl_lint::run(&workspace_root()).expect("lint runs");
    let violations: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk looks truncated: {} files",
        report.files_scanned
    );
}

/// Every `.clippy.toml`/`clippy.toml` below `dir`.
fn clippy_configs(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("crates/ is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            clippy_configs(&path, found);
        } else if path
            .file_name()
            .is_some_and(|n| n == "clippy.toml" || n == ".clippy.toml")
        {
            found.push(path);
        }
    }
}

#[test]
fn clippy_config_bans_every_determinism_hazard() {
    let config = read("crates/clippy.toml");
    let (types, methods) = config
        .split_once("disallowed-methods")
        .expect("crates/clippy.toml has a disallowed-methods list");
    assert!(types.contains("disallowed-types"), "{config}");
    let entries = |section: &str, paths: &[&str]| {
        for path in paths {
            let line = section
                .lines()
                .find(|l| l.contains(&format!("path = \"{path}\"")))
                .unwrap_or_else(|| panic!("crates/clippy.toml does not ban `{path}`"));
            assert!(line.contains("reason = \""), "`{path}` has no reason");
        }
    };
    entries(
        types,
        &[
            "std::time::Instant",
            "std::time::SystemTime",
            "std::collections::HashMap",
            "std::collections::HashSet",
        ],
    );
    entries(
        methods,
        &[
            "std::time::Instant::now",
            "std::time::Instant::elapsed",
            "std::time::SystemTime::now",
            "std::time::SystemTime::elapsed",
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::Builder::spawn",
            "std::thread::Builder::spawn_scoped",
            "std::sync::mpsc::channel",
            "std::sync::mpsc::sync_channel",
        ],
    );
    // Clippy reads the nearest config, so a crate-local one would silently
    // lift every ban for that crate.
    let mut configs = Vec::new();
    clippy_configs(&workspace_root().join("crates"), &mut configs);
    assert_eq!(
        configs,
        [workspace_root().join("crates/clippy.toml")],
        "only crates/clippy.toml may configure clippy below crates/"
    );
}

#[test]
fn library_crates_deny_every_panic_lint() {
    for krate in [
        "harl",
        "simcore",
        "pfs",
        "middleware",
        "workloads",
        "devices",
    ] {
        let src = read(&format!("crates/{krate}/src/lib.rs"));
        let start = src
            .find("#![cfg_attr(")
            .unwrap_or_else(|| panic!("{krate}: no crate-level cfg_attr tier"));
        let attr = &src[start..start + src[start..].find(")]").expect("attribute closes")];
        assert!(
            attr.contains("not(test)") && attr.contains("deny("),
            "{krate}: {attr}"
        );
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable"] {
            assert!(
                attr.contains(&format!("clippy::{lint}")),
                "{krate}/src/lib.rs does not deny clippy::{lint}:\n{attr}"
            );
        }
    }
}

#[test]
fn cost_model_modules_carry_every_numeric_lint() {
    let src = read("crates/harl/src/lib.rs");
    for module in ["analysis", "model", "optimizer"] {
        let decl = format!("pub mod {module};");
        let before = &src[..src.find(&decl).expect("module is declared")];
        // The `#[warn(…)]` must sit directly on the declaration.
        let attr = &before[before.rfind("#[warn(").expect("module has a warn tier")..];
        assert!(
            !attr.contains(';') && attr.trim_end().ends_with(")]"),
            "{module}: the warn tier is not attached to `{decl}`"
        );
        for lint in [
            "float_cmp",
            "cast_possible_truncation",
            "cast_possible_wrap",
            "cast_sign_loss",
            "cast_lossless",
        ] {
            assert!(
                attr.contains(&format!("clippy::{lint}")),
                "`{decl}` is missing clippy::{lint}:\n{attr}"
            );
        }
    }
}
