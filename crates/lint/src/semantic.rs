//! Pass 2 of the semantic analyzer: rules that need the item graph.
//!
//! These rules reason per-function — "which bindings in this `fn` are hash
//! containers", "is this `+=` inside a loop", "does this function return
//! `f64`" — which the flat token rules in [`crate::rules`] cannot express.
//! Like pass 1 they are heuristics over the token stream, tuned to the
//! shapes that actually occur in this workspace and pinned by the fixture
//! corpus in `crates/lint/tests`; clippy remains the type-aware backstop.
//!
//! | id | rule | hazard |
//! |----|------|--------|
//! | HL009 | `map-iteration-order` | iterating `HashMap`/`HashSet` into an output path |
//! | HL010 | `unordered-parallel-merge` | merging parallel worker results in arrival order |
//! | HL011 | `float-accumulation` | unpinned `f64` accumulation order in model code |

use std::collections::BTreeSet;

use crate::graph::{fn_signature, matching_brace, matching_paren, Graph};
use crate::lexer::{Tok, TokKind};
use crate::rules::{push, RULE_FLOAT_ACC, RULE_MAP_ITER, RULE_PAR_MERGE};
use crate::Finding;

/// A `for`/`while`/`loop` construct inside a function body:
/// `kw` is the loop keyword, `open..=close` its body braces.
struct LoopSpan {
    kw: usize,
    open: usize,
    close: usize,
}

/// All loop constructs in `toks[lo..hi]`, in source order. Nested loops
/// each get their own span. `for<'a>` higher-ranked bounds are skipped.
fn loop_spans(toks: &[Tok], lo: usize, hi: usize) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            if t.text == "for" && toks.get(j + 1).is_some_and(|n| n.text == "<") {
                j += 1;
                continue;
            }
            let mut parens = 0i64;
            let mut brackets = 0i64;
            let mut k = j + 1;
            while k < hi {
                match toks[k].text.as_str() {
                    "(" => parens += 1,
                    ")" => parens -= 1,
                    "[" => brackets += 1,
                    "]" => brackets -= 1,
                    "{" if parens <= 0 && brackets <= 0 => {
                        out.push(LoopSpan {
                            kw: j,
                            open: k,
                            close: matching_brace(toks, k, hi),
                        });
                        break;
                    }
                    ";" if parens <= 0 && brackets <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
        }
        j += 1;
    }
    out
}

/// Index into `loops` of the innermost loop whose span contains `pos`
/// (header and body alike — a `rx.recv()` in a `while let` condition
/// belongs to that `while`).
fn innermost_containing(loops: &[LoopSpan], pos: usize) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.kw <= pos && pos <= l.close)
        .max_by_key(|(_, l)| l.kw)
        .map(|(i, _)| i)
}

/// Bounds `[start, end)` of the statement containing `toks[at]`, clamped
/// to `lo..hi`. Stops at `;` and at block braces at the statement's own
/// nesting depth; statements containing block expressions degrade to a
/// truncated span, which only ever makes the rules quieter.
fn stmt_bounds(toks: &[Tok], at: usize, lo: usize, hi: usize) -> (usize, usize) {
    let mut depth = 0i64;
    let mut s = at;
    while s > lo {
        match toks[s - 1].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        s -= 1;
    }
    let mut depth = 0i64;
    let mut e = at;
    while e < hi {
        match toks[e].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        e += 1;
    }
    (s, e)
}

/// True when the signature between the parameter close-paren and the body
/// open-brace declares a bare `-> f64` return.
fn returns_f64(toks: &[Tok], sig_close: usize, body_open: usize) -> bool {
    (sig_close..body_open.saturating_sub(1))
        .any(|k| toks[k].text == "->" && toks.get(k + 1).is_some_and(|t| t.text == "f64"))
}

/// The declared name of a parameter slice: the first identifier followed
/// by `:` (skipping `mut` and reference sigils).
fn param_name(slice: &[Tok]) -> Option<String> {
    for (k, t) in slice.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text != "mut"
            && slice.get(k + 1).is_some_and(|n| n.text == ":")
        {
            return Some(t.text.clone());
        }
    }
    None
}

/// Local `let` bindings in `toks[lo..hi]` whose initialising statement
/// matches `pred`, mapped to the bound name. Tuple/struct patterns are
/// skipped (no single name to track).
fn bindings_matching(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    pred: impl Fn(&[Tok]) -> bool,
) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut j = lo;
    while j < hi {
        if toks[j].kind == TokKind::Ident && toks[j].text == "let" {
            let (_, e) = stmt_bounds(toks, j, lo, hi);
            let stmt = &toks[j..e.min(hi)];
            let mut at = j + 1;
            if toks.get(at).is_some_and(|t| t.text == "mut") {
                at += 1;
            }
            if let Some(name) = toks.get(at) {
                if name.kind == TokKind::Ident && pred(stmt) {
                    names.insert(name.text.clone());
                }
            }
            j = e.min(hi).max(j + 1);
        } else {
            j += 1;
        }
    }
    names
}

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Identifiers whose presence in the same statement makes hash-map
/// iteration order-safe: the result is sorted, rehomed into an ordered
/// container, or reduced by an order-insensitive aggregate.
fn order_safe_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && (t.text.starts_with("sort")
            || t.text.starts_with("min")
            || t.text.starts_with("max")
            || matches!(
                t.text.as_str(),
                "BTreeMap"
                    | "BTreeSet"
                    | "count"
                    | "len"
                    | "is_empty"
                    | "sum"
                    | "product"
                    | "all"
                    | "any"
            ))
}

/// **map-iteration-order** (HL009) — in determinism-scope crates, a
/// `HashMap`/`HashSet` local or parameter must not be iterated unless the
/// result flows through a `sort`/`BTreeMap`/order-insensitive aggregate in
/// the same statement (or the collected binding is sorted immediately
/// after). Hash iteration order varies run-to-run with the hasher seed and
/// silently breaks byte-identical reports. Audited sites carry a
/// `// lint: audited-order` marker on the flagged line and a matching
/// `lint.allow.toml` entry.
pub fn map_iteration_order(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    graph: &Graph,
    out: &mut Vec<Finding>,
) {
    for f in graph.fns().filter(|f| !f.cfg_test) {
        let Some((blo, bhi)) = f.body else { continue };
        if mask.get(f.kw).copied().unwrap_or(false) {
            continue;
        }
        let hashy_stmt = |stmt: &[Tok]| {
            stmt.iter()
                .any(|t| t.text == "HashMap" || t.text == "HashSet")
        };
        let mut hashy = bindings_matching(toks, blo + 1, bhi, hashy_stmt);
        if let Some(sig) = fn_signature(toks, f.kw, blo) {
            for &(lo, hi) in &sig.params {
                let slice = &toks[lo..hi];
                if hashy_stmt(slice) {
                    if let Some(name) = param_name(slice) {
                        hashy.insert(name);
                    }
                }
            }
        }
        if hashy.is_empty() {
            continue;
        }
        let mut seen_lines = BTreeSet::new();
        // `for pat in expr { … }` over a hash container.
        for l in loop_spans(toks, blo + 1, bhi) {
            if toks[l.kw].text != "for" {
                continue;
            }
            let Some(in_pos) = (l.kw + 1..l.open).find(|&k| toks[k].text == "in") else {
                continue;
            };
            let expr = &toks[in_pos + 1..l.open];
            let iterates_hashy = expr
                .iter()
                .any(|t| t.kind == TokKind::Ident && hashy.contains(&t.text));
            if iterates_hashy
                && !expr.iter().any(order_safe_ident)
                && seen_lines.insert(toks[l.kw].line)
            {
                push(
                    out,
                    RULE_MAP_ITER,
                    path,
                    toks[l.kw].line,
                    "iterating a HashMap/HashSet in determinism-scope code: hash order varies \
                     run-to-run; sort the entries (or use a BTreeMap) before anything \
                     order-dependent, or mark an audited site with `// lint: audited-order`"
                        .to_string(),
                    lines,
                );
            }
        }
        // Method-chain iteration: `m.iter()…`, `m.keys()…`, ….
        for j in blo + 1..bhi {
            let t = &toks[j];
            if t.kind != TokKind::Ident
                || !ITER_METHODS.contains(&t.text.as_str())
                || toks.get(j + 1).is_none_or(|n| n.text != "(")
                || j < 2
                || toks[j - 1].text != "."
                || !(toks[j - 2].kind == TokKind::Ident && hashy.contains(&toks[j - 2].text))
            {
                continue;
            }
            let (s, e) = stmt_bounds(toks, j, blo + 1, bhi);
            if toks[s..e].iter().any(order_safe_ident) {
                continue;
            }
            // `let v: Vec<_> = m.iter()…collect();` followed by `v.sort…()`
            // is the canonical fix — look one statement ahead.
            if toks[s].text == "let" {
                let mut at = s + 1;
                if toks.get(at).is_some_and(|n| n.text == "mut") {
                    at += 1;
                }
                if let Some(name) = toks.get(at) {
                    let bound = name.text.clone();
                    let sorted_after = (e..(e + 48).min(bhi)).any(|k| {
                        toks[k].text == bound
                            && toks.get(k + 1).is_some_and(|n| n.text == ".")
                            && toks.get(k + 2).is_some_and(|n| n.text.starts_with("sort"))
                    });
                    if sorted_after {
                        continue;
                    }
                }
            }
            if seen_lines.insert(t.line) {
                push(
                    out,
                    RULE_MAP_ITER,
                    path,
                    t.line,
                    format!(
                        "`.{}()` on a HashMap/HashSet in determinism-scope code: hash order \
                         varies run-to-run; sort before emission (or use a BTreeMap), or mark an \
                         audited site with `// lint: audited-order`",
                        t.text
                    ),
                    lines,
                );
            }
        }
    }
}

/// Receiver calls that drain a channel.
const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout"];
/// Appending merges whose result order is the arrival order.
const APPEND_METHODS: &[&str] = &["push", "extend", "append"];

fn has_indexed_store(toks: &[Tok], lo: usize, hi: usize) -> bool {
    (lo..hi.saturating_sub(1)).any(|k| toks[k].text == "]" && toks[k + 1].text == "=")
}

/// **unordered-parallel-merge** (HL010) — a loop that drains an mpsc
/// channel must not append the received results to a collection: arrival
/// order depends on thread scheduling. Canonical-order merges are quiet —
/// either an indexed store (`grants[i] = g`, which puts each result in
/// its own slot like the `harl/optimizer.rs` grid workers do) or a sort
/// immediately after the loop. The same applies to scoped-thread workers
/// appending to a shared locked collection. An audited site carries
/// `// lint: audited-order` plus an allowlist entry.
pub fn unordered_parallel_merge(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    graph: &Graph,
    out: &mut Vec<Finding>,
) {
    for f in graph.fns().filter(|f| !f.cfg_test) {
        let Some((blo, bhi)) = f.body else { continue };
        if mask.get(f.kw).copied().unwrap_or(false) {
            continue;
        }
        let loops = loop_spans(toks, blo + 1, bhi);
        let mut merge_loops = BTreeSet::new();
        for j in blo + 1..bhi {
            if toks[j].kind == TokKind::Ident
                && RECV_METHODS.contains(&toks[j].text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.text == "(")
                && j > 0
                && toks[j - 1].text == "."
            {
                if let Some(li) = innermost_containing(&loops, j) {
                    merge_loops.insert(li);
                }
            }
        }
        for li in merge_loops {
            let l = &loops[li];
            if has_indexed_store(toks, l.open + 1, l.close) {
                continue;
            }
            let sorted_after = (l.close + 1..(l.close + 48).min(bhi))
                .any(|k| toks[k].kind == TokKind::Ident && toks[k].text.starts_with("sort"));
            if sorted_after {
                continue;
            }
            for k in l.open + 1..l.close {
                if toks[k].kind == TokKind::Ident
                    && APPEND_METHODS.contains(&toks[k].text.as_str())
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                    && toks[k - 1].text == "."
                {
                    push(
                        out,
                        RULE_PAR_MERGE,
                        path,
                        toks[k].line,
                        format!(
                            "`.{}()` inside a channel-draining loop merges worker results in \
                             arrival order; merge in canonical key order (indexed store, or sort \
                             after the loop), or mark an audited site with \
                             `// lint: audited-order`",
                            toks[k].text
                        ),
                        lines,
                    );
                }
            }
        }
        // Scoped-thread shape: a spawned closure appending to a shared
        // collection under a lock publishes in scheduling order.
        for j in blo + 1..bhi {
            if toks[j].text != "spawn" || toks.get(j + 1).is_none_or(|n| n.text != "(") {
                continue;
            }
            let close = matching_paren(toks, j + 1);
            let locky = (j + 2..close).any(|k| {
                matches!(toks[k].text.as_str(), "lock" | "try_lock")
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
            });
            if !locky || has_indexed_store(toks, j + 2, close) {
                continue;
            }
            for k in j + 2..close {
                if toks[k].kind == TokKind::Ident
                    && APPEND_METHODS.contains(&toks[k].text.as_str())
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                    && toks[k - 1].text == "."
                {
                    push(
                        out,
                        RULE_PAR_MERGE,
                        path,
                        toks[k].line,
                        format!(
                            "`.{}()` on a locked shared collection from a spawned worker \
                             publishes in scheduling order; collect per-worker and merge in \
                             canonical key order on the owning thread",
                            toks[k].text
                        ),
                        lines,
                    );
                }
            }
        }
    }
}

/// **float-accumulation** (HL011) — in model/optimizer code, `f64`
/// accumulation must go through the fixed-order helpers in `harl::fold`:
/// a bare `x += …` on an `f64` local inside a loop, or an `.sum()` whose
/// element type is `f64` (turbofish, `let …: f64` annotation, or tail
/// expression of a `-> f64` function), leaves the accumulation order
/// implicit. Today's order happens to be deterministic, but any future
/// chunking/parallelising of the surrounding iterator silently changes the
/// result bits; `fold::sum_f64`/`fold::OrderedSum` pin it structurally.
pub fn float_accumulation(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    lines: &[&str],
    graph: &Graph,
    out: &mut Vec<Finding>,
) {
    for f in graph.fns().filter(|f| !f.cfg_test) {
        let Some((blo, bhi)) = f.body else { continue };
        if mask.get(f.kw).copied().unwrap_or(false) {
            continue;
        }
        let floaty = bindings_matching(toks, blo + 1, bhi, |stmt| {
            stmt.iter().any(|t| t.text == "f64" || t.is_float_literal())
        });
        let loops = loop_spans(toks, blo + 1, bhi);
        let sig = fn_signature(toks, f.kw, blo);
        let ret_f64 = sig
            .as_ref()
            .is_some_and(|s| returns_f64(toks, s.close, blo));
        for j in blo + 1..bhi {
            let t = &toks[j];
            if t.text == "+=" && t.kind == TokKind::Punct {
                let lhs_floaty = toks
                    .get(j - 1)
                    .is_some_and(|p| p.kind == TokKind::Ident && floaty.contains(&p.text));
                if lhs_floaty && innermost_containing(&loops, j).is_some() {
                    push(
                        out,
                        RULE_FLOAT_ACC,
                        path,
                        t.line,
                        format!(
                            "`{} += …` accumulates f64 in a loop with implicit order; use \
                             harl::fold::OrderedSum (or fold::sum_f64 over an iterator) to pin \
                             the accumulation order",
                            toks[j - 1].text
                        ),
                        lines,
                    );
                }
            }
            if t.kind == TokKind::Ident && t.text == "sum" && j > 0 && toks[j - 1].text == "." {
                let turbo_f64 = toks.get(j + 1).is_some_and(|n| n.text == "::")
                    && toks.get(j + 2).is_some_and(|n| n.text == "<")
                    && toks.get(j + 3).is_some_and(|n| n.text == "f64");
                let call_paren = if turbo_f64 { j + 5 } else { j + 1 };
                if toks.get(call_paren).is_none_or(|n| n.text != "(") {
                    continue;
                }
                let (s, _) = stmt_bounds(toks, j, blo + 1, bhi);
                let annotated_f64 = toks[s].text == "let" && {
                    let eq = (s..j).find(|&k| toks[k].text == "=").unwrap_or(j);
                    toks[s..eq].iter().any(|t| t.text == "f64")
                };
                let tail_f64 = ret_f64
                    && toks.get(call_paren + 1).is_some_and(|n| n.text == ")")
                    && call_paren + 2 == bhi;
                if turbo_f64 || annotated_f64 || tail_f64 {
                    push(
                        out,
                        RULE_FLOAT_ACC,
                        path,
                        t.line,
                        "`.sum()` over f64 leaves the accumulation order implicit; use \
                         harl::fold::sum_f64(iter) so the fixed left-to-right order is explicit"
                            .to_string(),
                        lines,
                    );
                }
            }
        }
    }
}
