//! Fixture corpus: every rule must both fire on its trigger snippet and
//! stay quiet on its counter-example. Fixtures live in `tests/fixtures/`
//! and are never compiled — they are data for the token scanner — so they
//! may freely contain the constructs the rules ban.

use harl_lint::scan_source;
use std::fs;
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Scan a fixture as if it lived at `path` (scoping is path-based) and
/// return the rule names of all findings.
fn rules_at(path: &str, name: &str) -> Vec<String> {
    scan_source(path, &fixture(name))
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

fn count(rules: &[String], rule: &str) -> usize {
    rules.iter().filter(|r| *r == rule).count()
}

// A path outside the float-accumulation scope.
const LIB_PATH: &str = "crates/middleware/src/fixture.rs";

#[test]
fn simcontext_first_fires() {
    let rules = rules_at(LIB_PATH, "simcontext_fire.rs");
    assert_eq!(count(&rules, "simcontext-first"), 2, "{rules:?}");
}

#[test]
fn simcontext_first_stays_quiet() {
    let rules = rules_at(LIB_PATH, "simcontext_quiet.rs");
    assert_eq!(count(&rules, "simcontext-first"), 0, "{rules:?}");
}

#[test]
fn metric_registry_fires() {
    let rules = rules_at(LIB_PATH, "metric_fire.rs");
    // sim./pfs./mw. writes, a series point, and a read-side counter_value.
    assert_eq!(count(&rules, "metric-registry"), 5, "{rules:?}");
}

#[test]
fn metric_registry_stays_quiet() {
    let rules = rules_at(LIB_PATH, "metric_quiet.rs");
    assert_eq!(count(&rules, "metric-registry"), 0, "{rules:?}");
}

#[test]
fn metric_registry_skips_the_registry_itself() {
    // registry.rs is where the literals are supposed to live.
    let rules = rules_at("crates/simcore/src/registry.rs", "metric_fire.rs");
    assert_eq!(count(&rules, "metric-registry"), 0, "{rules:?}");
}

#[test]
fn findings_carry_location_and_snippet() {
    let findings = scan_source(LIB_PATH, &fixture("metric_fire.rs"));
    let f = findings
        .iter()
        .find(|f| f.rule == "metric-registry")
        .expect("metric-registry finding");
    assert_eq!(f.path, LIB_PATH);
    assert_eq!(f.line, 5);
    assert!(f.snippet.contains("sim.events.dispatched"), "{}", f.snippet);
}

// A path inside the float-accumulation scope (crates/harl/src/, any file
// but fold.rs itself).
const FLOAT_PATH: &str = "crates/harl/src/fixture.rs";

#[test]
fn float_accumulation_fires() {
    let rules = rules_at(FLOAT_PATH, "float_acc_fire.rs");
    // `+=` in a loop, a `sum::<f64>()` turbofish, a `let …: f64` sum, and
    // a tail-position sum in a `-> f64` fn.
    assert_eq!(count(&rules, "float-accumulation"), 4, "{rules:?}");
}

#[test]
fn float_accumulation_stays_quiet() {
    let rules = rules_at(FLOAT_PATH, "float_acc_quiet.rs");
    assert_eq!(count(&rules, "float-accumulation"), 0, "{rules:?}");
}

#[test]
fn float_accumulation_is_scoped_to_model_code() {
    // The same triggers outside crates/harl/src/ are out of scope, and
    // fold.rs itself (which defines the helpers) is exempt.
    let rules = rules_at(LIB_PATH, "float_acc_fire.rs");
    assert_eq!(count(&rules, "float-accumulation"), 0, "{rules:?}");
    let rules = rules_at("crates/harl/src/fold.rs", "float_acc_fire.rs");
    assert_eq!(count(&rules, "float-accumulation"), 0, "{rules:?}");
}

#[test]
fn cfg_test_mask_silences_semantic_rules() {
    // Triggers inside a `#[cfg(test)]` impl and a nested mod under
    // `#[cfg(test)] mod tests` are masked; the one unmasked trigger at
    // the bottom of the fixture still fires.
    let findings = scan_source(FLOAT_PATH, &fixture("cfg_mask_quiet.rs"));
    let lines: Vec<usize> = findings
        .iter()
        .filter(|f| f.rule == "float-accumulation")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [30], "{findings:?}");
}
