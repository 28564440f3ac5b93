//! Self-check: the shipped workspace must be lint-clean under its own
//! allowlist, and the allowlist must carry no stale entries. This is the
//! ratchet: a PR that reintroduces a violation (or fixes one without
//! pruning its allow entry) fails `cargo test` as well as ci.sh.
//!
//! Panic, cast and float-comparison hygiene belong to clippy, so this file
//! also pins the attributes that enforce them: a tier that quietly loses a
//! lint would otherwise go unnoticed.

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
    let root = workspace_root();
    let report = harl_lint::run(&root, &root.join("lint.allow.toml")).expect("lint runs");
    let violations: Vec<String> = report
        .violations()
        .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations.join("\n")
    );
    // The two documented wall-clock exceptions (DESIGN.md Appendix D) and
    // nothing else; growing this list is a reviewed decision, not a
    // drive-by.
    assert_eq!(
        report.allow_entries, 2,
        "allowlist should hold exactly the two documented exceptions"
    );
    assert!(
        report.findings.iter().filter(|f| f.allowed).count() >= 2,
        "every allow entry should match at least one finding"
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk looks truncated: {} files",
        report.files_scanned
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
