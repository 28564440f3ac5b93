//! The lint rules, each a pure function over a token stream.
//!
//! Every rule has the same shape: given a repo-relative path, the tokens,
//! the `#[cfg(test)]` mask, and the raw source lines, it appends
//! [`Finding`]s. Which rules run on which files is decided by the caller
//! (see [`crate::scan_source`]); rules themselves are scope-free so the
//! fixture tests can aim any rule at any snippet.

use crate::graph::fn_signature;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Rule name used in findings; see [`simcontext_first`].
pub const RULE_SIMCONTEXT: &str = "simcontext-first";
/// See [`metric_registry`].
pub const RULE_METRIC: &str = "metric-registry";
/// See [`crate::semantic::float_accumulation`].
pub const RULE_FLOAT_ACC: &str = "float-accumulation";

/// Every rule harl-lint runs.
pub const RULES: &[&str] = &[RULE_SIMCONTEXT, RULE_METRIC, RULE_FLOAT_ACC];

/// Stable rule id and documentation anchor for a rule name, printed on
/// each finding's trailing `= HLnnn: …` line so a report links straight
/// to the rationale.
pub fn rule_doc(rule: &str) -> (&'static str, &'static str) {
    match rule {
        // HL000–HL004, HL006 and HL008–HL010 are retired; ids are never
        // reused.
        RULE_SIMCONTEXT => ("HL005", "DESIGN.md#rules-and-scopes"),
        RULE_METRIC => ("HL007", "DESIGN.md#rules-and-scopes"),
        RULE_FLOAT_ACC => ("HL011", "DESIGN.md#rules-and-scopes"),
        _ => (
            "HL999",
            "DESIGN.md#appendix-d-harl-lint-project-specific-static-analysis",
        ),
    }
}

pub(crate) fn push(
    out: &mut Vec<Finding>,
    rule: &str,
    path: &str,
    line: usize,
    message: String,
    lines: &[&str],
) {
    let snippet = lines
        .get(line.saturating_sub(1))
        .map_or(String::new(), |l| l.trim().to_string());
    out.push(Finding {
        rule: rule.to_string(),
        path: path.to_string(),
        line,
        message,
        snippet,
    });
}

/// **simcontext-first** — a `fn` that takes `&SimContext` takes it as the
/// first non-`self` parameter. One calling convention everywhere: the
/// context always leads, mirroring how `optimize_region`, the policies,
/// and the runtime already read.
pub fn simcontext_first(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident || toks[i].text != "fn" {
            i += 1;
            continue;
        }
        // `fn` in a pointer type (`fn(usize) -> T`) has no name; skip.
        let Some(sig) = fn_signature(toks, i, toks.len()) else {
            i += 1;
            continue;
        };
        let mut non_self_idx = 0usize;
        for &(lo, hi) in &sig.params {
            let slice = &toks[lo..hi];
            if slice.iter().any(|t| t.text == "self") {
                continue;
            }
            if slice.iter().any(|t| t.text == "SimContext") && non_self_idx > 0 {
                push(
                    out,
                    RULE_SIMCONTEXT,
                    path,
                    toks[i].line,
                    format!(
                        "`fn {}` takes &SimContext as parameter {} — the context is always the \
                         first non-self argument",
                        toks[i + 1].text,
                        non_self_idx + 1
                    ),
                    lines,
                );
                break;
            }
            non_self_idx += 1;
        }
        i = sig.close.max(i + 1);
    }
}

/// `Recorder`/`MemoryRecorder` methods whose first argument is a metric
/// name (write side and read side alike).
const RECORDER_METHODS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "gauge_max",
    "observe",
    "observe_f64",
    "merge_histogram",
    "series_point",
    "counter_value",
    "gauge_value",
    "histogram_snapshot",
    "summary_snapshot",
    "series_points",
];

/// Metric-name namespaces owned by `simcore::registry`.
const METRIC_PREFIXES: &[&str] = &["sim.", "pfs.", "mw.", "harl."];

/// **metric-registry** — metric names handed to `Recorder` methods come
/// from the typed constants in `simcore::registry`, never from quoted
/// literals. Fires on a `"sim.*"` / `"pfs.*"` / `"mw.*"` / `"harl.*"`
/// string literal appearing as the first argument of a Recorder-method
/// call. Literals elsewhere — schema tags like `"harl.bench.sim.v1"`
/// passed to `json!`, doc strings, match arms — are untouched; only the
/// Recorder call boundary is policed. The caller keeps `registry.rs`
/// itself out of scope: that is where the literals are supposed to live.
pub fn metric_registry(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || !RECORDER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        if arg.kind != TokKind::Str {
            continue;
        }
        let name = arg.text.trim_matches('"');
        if METRIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
            push(
                out,
                RULE_METRIC,
                path,
                arg.line,
                format!(
                    "metric name {} is a quoted literal at a `{}` call; use the typed constant \
                     from simcore::registry (`registry::<METRIC>.name`)",
                    arg.text, t.text
                ),
                lines,
            );
        }
    }
}
