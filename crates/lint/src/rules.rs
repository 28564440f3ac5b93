//! The lint rules, each a pure function over a token stream.
//!
//! Every rule has the same shape: given a repo-relative path, the tokens,
//! the `#[cfg(test)]` mask, and the raw source lines, it appends
//! [`Finding`]s. Which rules run on which files is decided by the caller
//! (see the scope tables in `lib.rs`); rules themselves are scope-free so
//! the fixture tests can aim any rule at any snippet.

use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Rule names, used in findings and in `lint.allow.toml` entries.
pub const RULE_DETERMINISM: &str = "determinism";
/// See [`panic_hygiene`].
pub const RULE_PANIC: &str = "panic-hygiene";
/// See [`cast_hygiene`].
pub const RULE_CAST: &str = "cast-hygiene";
/// See [`float_eq`].
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// See [`simcontext_first`].
pub const RULE_SIMCONTEXT: &str = "simcontext-first";
/// See [`recorded_twins`].
pub const RULE_RECORDED: &str = "recorded-twins";
/// See [`metric_registry`].
pub const RULE_METRIC: &str = "metric-registry";
/// See [`crate::semantic::map_iteration_order`].
pub const RULE_MAP_ITER: &str = "map-iteration-order";
/// See [`crate::semantic::unordered_parallel_merge`].
pub const RULE_PAR_MERGE: &str = "unordered-parallel-merge";
/// See [`crate::semantic::float_accumulation`].
pub const RULE_FLOAT_ACC: &str = "float-accumulation";
/// Emitted by the allowlist pass for entries that match nothing.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// Stable rule id and documentation anchor for a rule name, surfaced as
/// the `id`/`doc` fields of `--json` findings so CI annotations can link
/// straight to the rationale.
pub fn rule_doc(rule: &str) -> (&'static str, &'static str) {
    match rule {
        RULE_DETERMINISM => ("HL001", "DESIGN.md#rules-and-scopes"),
        RULE_PANIC => ("HL002", "DESIGN.md#rules-and-scopes"),
        RULE_CAST => ("HL003", "DESIGN.md#rules-and-scopes"),
        RULE_FLOAT_EQ => ("HL004", "DESIGN.md#rules-and-scopes"),
        RULE_SIMCONTEXT => ("HL005", "DESIGN.md#rules-and-scopes"),
        RULE_RECORDED => ("HL006", "DESIGN.md#rules-and-scopes"),
        RULE_METRIC => ("HL007", "DESIGN.md#rules-and-scopes"),
        // HL008 (two-tier-hygiene) is retired and its id is not reused.
        RULE_MAP_ITER => ("HL009", "DESIGN.md#rules-and-scopes"),
        RULE_PAR_MERGE => ("HL010", "DESIGN.md#rules-and-scopes"),
        RULE_FLOAT_ACC => ("HL011", "DESIGN.md#rules-and-scopes"),
        RULE_STALE_ALLOW => ("HL000", "DESIGN.md#the-allowlist-ratchet"),
        _ => (
            "HL999",
            "DESIGN.md#appendix-d-harl-lint-project-specific-static-analysis",
        ),
    }
}

/// Integer types whose `as` casts the cost-model rule flags.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "usize", "isize",
];

/// Identifiers that, next to `==`/`!=`, mark a float comparison in the
/// cost-model files. A heuristic: the token scanner has no types, so it
/// recognises the model's known `f64` field/local names;
/// `clippy::float_cmp` on the same modules is the type-aware backstop.
const FLOAT_NAMES: &[&str] = &["cost", "best_cost", "wall_s", "predicted", "residual"];

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
        allowed: false,
    });
}

/// **determinism** — no wall-clock or ambient entropy in simulated-time
/// code. Flags `Instant`, `SystemTime`, `UNIX_EPOCH`, `std::env::var*`,
/// and `thread_rng`/`from_entropy`. Simulations must depend only on the
/// `Scenario` and the seed; wall-clock metric sites (e.g. `plan_wall_s`)
/// go in `lint.allow.toml` with a justification.
pub fn determinism(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => push(
                out,
                RULE_DETERMINISM,
                path,
                t.line,
                format!(
                    "wall-clock `{}` in simulated-time code; use simcore::time, or allowlist a \
                     metrics-only site",
                    t.text
                ),
                lines,
            ),
            "thread_rng" | "from_entropy" => push(
                out,
                RULE_DETERMINISM,
                path,
                t.line,
                format!(
                    "ambient entropy `{}`; derive randomness from the scenario seed",
                    t.text
                ),
                lines,
            ),
            "env"
                if toks.get(i + 1).is_some_and(|n| n.text == "::")
                    && toks.get(i + 2).is_some_and(|n| {
                        matches!(n.text.as_str(), "var" | "var_os" | "vars" | "vars_os")
                    }) =>
            {
                push(
                    out,
                    RULE_DETERMINISM,
                    path,
                    t.line,
                    "environment lookup in simulated-time code; thread configuration through \
                     the Scenario instead"
                        .to_string(),
                    lines,
                );
            }
            _ => {}
        }
    }
}

/// **panic-hygiene** — no `.unwrap()`, `.expect(…)`, `panic!`, `todo!`,
/// `unimplemented!`, or `unreachable!` in library code outside
/// `#[cfg(test)]`. `assert!`/`debug_assert!` are fine: stating an
/// invariant is different from silently converting an `Option`/`Result`
/// into a crash.
pub fn panic_hygiene(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        match t.text.as_str() {
            "unwrap" | "expect"
                if next == Some("(")
                    && i > 0
                    && toks[i - 1].text == "."
                    && toks[i - 1].kind == TokKind::Punct =>
            {
                push(
                    out,
                    RULE_PANIC,
                    path,
                    t.line,
                    format!(
                        "`.{}()` in library code; return a typed error (LoadError) or restructure \
                         so the failure case cannot exist",
                        t.text
                    ),
                    lines,
                );
            }
            "panic" | "todo" | "unimplemented" | "unreachable" if next == Some("!") => {
                push(
                    out,
                    RULE_PANIC,
                    path,
                    t.line,
                    format!(
                        "`{}!` in library code; only documented-precondition sites may keep it, \
                         via lint.allow.toml",
                        t.text
                    ),
                    lines,
                );
            }
            _ => {}
        }
    }
}

/// **cast-hygiene** — no bare `as <integer type>` in the cost-model files.
/// Integer narrowing/sign casts silently wrap; the model routes every
/// conversion through the audited helpers in `harl::cast` (lossless or
/// explicitly saturating). `as f64` is exempt: byte quantities stay below
/// 2^53, where `f64` is exact.
pub fn cast_hygiene(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        if let Some(target) = toks.get(i + 1) {
            if target.kind == TokKind::Ident && INT_TYPES.contains(&target.text.as_str()) {
                push(
                    out,
                    RULE_CAST,
                    path,
                    t.line,
                    format!(
                        "bare `as {}` in cost-model code; use the audited harl::cast helpers",
                        target.text
                    ),
                    lines,
                );
            }
        }
    }
}

/// **float-eq** — no `==`/`!=` on floats in the cost-model files. Exact
/// float comparison is almost always a bug in numeric code; the one
/// legitimate site (the optimizer's deterministic tie-break) is
/// allowlisted. Detection is lexical: a float literal, or a known `f64`
/// name (`cost`, …), adjacent to the operator.
pub fn float_eq(path: &str, toks: &[Tok], mask: &[bool], lines: &[&str], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let prev_floaty = i > 0 && floaty(&toks[i - 1]);
        // Walk the postfix chain on the right (`a.cost`, `x.0.frac`) to its
        // last identifier.
        let right = last_of_postfix_chain(toks, i + 1);
        let next_floaty = right.is_some_and(floaty);
        if prev_floaty || next_floaty {
            push(
                out,
                RULE_FLOAT_EQ,
                path,
                t.line,
                format!(
                    "float `{}` comparison in cost-model code; compare with a tolerance or \
                     restructure (exact tie-breaks need an allowlist entry)",
                    t.text
                ),
                lines,
            );
        }
    }
}

fn floaty(t: &Tok) -> bool {
    t.is_float_literal() || (t.kind == TokKind::Ident && FLOAT_NAMES.contains(&t.text.as_str()))
}

/// Resolve `a`, `a.b.c`, or `a.0.b` starting at `toks[at]` to its final
/// member token, stopping before any call parentheses.
fn last_of_postfix_chain(toks: &[Tok], at: usize) -> Option<&Tok> {
    let first = toks.get(at)?;
    if first.kind != TokKind::Ident && first.kind != TokKind::Num {
        return Some(first);
    }
    let mut last = first;
    let mut j = at + 1;
    while j + 1 < toks.len() && toks[j].text == "." && toks[j].kind == TokKind::Punct {
        let member = &toks[j + 1];
        if member.kind != TokKind::Ident && member.kind != TokKind::Num {
            break;
        }
        last = member;
        j += 2;
    }
    Some(last)
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
        let Some(name) = toks.get(i + 1) else { break };
        if name.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        // Skip generic parameters, minding fused `>>` from nested generics
        // (`->` and `=>` are fused tokens and never miscount).
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 0i64;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "(") {
            i += 1;
            continue;
        }
        // Split the parameter list at top-level commas.
        let open = j;
        let close = matching_paren(toks, open);
        let mut params: Vec<(usize, usize)> = Vec::new();
        let mut start = open + 1;
        let mut dp = 0i64;
        for (k, tok) in toks.iter().enumerate().take(close).skip(open + 1) {
            match tok.text.as_str() {
                "(" | "[" | "{" => dp += 1,
                ")" | "]" | "}" => dp -= 1,
                "," if dp == 0 => {
                    params.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
        if start < close {
            params.push((start, close));
        }
        let mut non_self_idx = 0usize;
        for (lo, hi) in params {
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
                        name.text,
                        non_self_idx + 1
                    ),
                    lines,
                );
                break;
            }
            non_self_idx += 1;
        }
        i = close.max(i + 1);
    }
}

fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
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

/// **recorded-twins** — no identifier ending in `_recorded`. PR 3 folded
/// the `run_*`/`run_*_recorded` twin APIs into context-carrying single
/// entry points; this keeps the twins from creeping back.
pub fn recorded_twins(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident || !t.text.ends_with("_recorded") {
            continue;
        }
        push(
            out,
            RULE_RECORDED,
            path,
            t.line,
            format!(
                "`{}` resurrects the *_recorded twin convention; pass a SimContext (with its \
                 recorder) to the one entry point instead",
                t.text
            ),
            lines,
        );
    }
}
