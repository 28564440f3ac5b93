//! Self-check: the shipped workspace must be lint-clean under its own
//! allowlist, and the allowlist must carry no stale entries. This is the
//! ratchet: a PR that reintroduces a violation (or fixes one without
//! pruning its allow entry) fails `cargo test` as well as ci.sh.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
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
    // The eight documented exceptions (DESIGN.md Appendix D) and nothing
    // else; growing this list is a reviewed decision, not a drive-by.
    assert_eq!(
        report.allow_entries, 8,
        "allowlist should hold exactly the eight documented exceptions"
    );
    assert!(
        report.findings.iter().filter(|f| f.allowed).count() >= 8,
        "every allow entry should match at least one finding"
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk looks truncated: {} files",
        report.files_scanned
    );
}
