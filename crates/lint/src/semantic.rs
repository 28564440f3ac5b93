//! Pass 2 of the semantic analyzer: the rule that needs the item graph.
//!
//! HL011 `float-accumulation` (unpinned `f64` accumulation order in model
//! code) reasons per function — "which bindings in this `fn` are floats",
//! "is this `+=` inside a loop", "does this function return `f64`" — which
//! the flat token rules in [`crate::rules`] cannot express. Like pass 1 it
//! is a heuristic over the token stream, tuned to the shapes that actually
//! occur in this workspace and pinned by the fixture corpus in
//! `crates/lint/tests`.

use std::collections::BTreeSet;

use crate::graph::{fn_signature, matching_brace, Graph};
use crate::lexer::{Tok, TokKind};
use crate::rules::{push, RULE_FLOAT_ACC};
use crate::Finding;

/// A `for`/`while`/`loop` construct inside a function body:
/// `kw` is the loop keyword, `close` its body's closing brace.
struct LoopSpan {
    kw: usize,
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
/// (header and body alike).
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
