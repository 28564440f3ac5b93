//! Pass 1 of the semantic analyzer: a lightweight item/module graph.
//!
//! The token stream from [`crate::lexer`] is segmented into a flat list of
//! [`Item`]s — functions, modules, impl blocks, `use` declarations, and
//! friends — each carrying its token span, body span, and an inherited
//! `#[cfg(test)]` flag. This is deliberately *not* a Rust parser: it
//! recognises just enough structure (attributes → visibility → modifiers →
//! item keyword → body braces or `;`) for the pass-2 rules to reason about
//! "which function am I in", "is this code test-only", and "what does this
//! function's signature say". Anything it cannot classify degrades to
//! [`ItemKind::Other`] with a best-effort span; the graph never fails.
//!
//! The graph fixes the two blind spots of the old flat `test_mask` scan:
//! `cfg(test)` now *inherits* through nested `mod` blocks and applies to
//! `impl` items (and everything inside them), because masking is computed
//! per item with the parent's flag threaded through the recursion.

use crate::lexer::{Tok, TokKind};

/// What kind of item a graph node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` — the unit the pass-2 rules iterate over.
    Fn,
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `impl … { … }`
    Impl,
    /// `trait … { … }`
    Trait,
    /// `struct` / `enum` / `union` type definitions.
    TypeDef,
    /// `use …;`
    Use,
    /// `const` / `static` items.
    Const,
    /// `type X = …;`
    TypeAlias,
    /// `extern "C" { … }` blocks.
    ExternBlock,
    /// `macro_rules!` definitions and item-level macro invocations.
    Macro,
    /// Anything the segmenter could not classify.
    Other,
}

/// One item in the graph, with token-index spans into the lexed stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item classification.
    pub kind: ItemKind,
    /// Declared name (`fn name`, `mod name`, …); empty for `impl`, `use`,
    /// extern blocks and macro invocations.
    pub name: String,
    /// Index of the first token of the item (its first attribute, or the
    /// visibility/keyword when unattributed).
    pub start: usize,
    /// Index of the item keyword token (`fn`, `mod`, `impl`, …).
    pub kw: usize,
    /// Token indices of the body braces `(open, close)`, inclusive, when
    /// the item is brace-terminated.
    pub body: Option<(usize, usize)>,
    /// One past the last token of the item.
    pub end: usize,
    /// 1-based source line of the item keyword.
    pub line: usize,
    /// True when the item (or any enclosing `mod`/`impl`) is gated on
    /// `#[cfg(test)]` (or carries `#[test]` itself).
    pub cfg_test: bool,
    /// Nesting depth: 0 for file-level items, +1 per enclosing
    /// `mod`/`impl`/`trait`/extern block.
    pub depth: usize,
}

/// The item graph for one source file.
#[derive(Debug)]
pub struct Graph {
    /// All items, in source order (parents before their children).
    pub items: Vec<Item>,
    n_tokens: usize,
}

impl Graph {
    /// Segment `toks` into the item graph.
    pub fn build(toks: &[Tok]) -> Graph {
        let mut items = Vec::new();
        parse_items(toks, 0, toks.len(), false, 0, &mut items);
        Graph {
            items,
            n_tokens: toks.len(),
        }
    }

    /// All `fn` items, production and test alike.
    pub fn fns(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|it| it.kind == ItemKind::Fn)
    }

    /// Token mask parallel to the lexed stream: `true` marks tokens that
    /// belong to a `#[cfg(test)]`-gated item (directly or by inheritance
    /// through enclosing `mod`/`impl` blocks).
    pub fn test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.n_tokens];
        for it in &self.items {
            if it.cfg_test {
                for m in mask
                    .iter_mut()
                    .take(it.end.min(self.n_tokens))
                    .skip(it.start)
                {
                    *m = true;
                }
            }
        }
        mask
    }
}

/// Item-leading modifier keywords (between visibility and the item
/// keyword). `const` and `extern` double as item keywords and are handled
/// by lookahead in the segmenter.
const MODIFIERS: &[&str] = &["default", "unsafe", "async"];

/// Segment `toks[start..end]` into items, recursing into `mod`/`impl`/
/// `trait`/extern bodies. `inherited_test` is true inside a
/// `#[cfg(test)]`-gated ancestor.
fn parse_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    mut inherited_test: bool,
    depth: usize,
    out: &mut Vec<Item>,
) {
    let mut i = start;
    while i < end {
        // Stray separators left over from conservative extent detection.
        if toks[i].kind == TokKind::Punct && matches!(toks[i].text.as_str(), ";" | ",") {
            i += 1;
            continue;
        }
        let item_start = i;
        let mut own_test = false;
        // Attributes. Inner `#![cfg(test)]` gates the whole remaining
        // scope; other inner attributes are skipped.
        loop {
            if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
                if attr_is_test(toks, i + 2) {
                    own_test = true;
                }
                i = skip_balanced(toks, i + 1, end, "[", "]");
            } else if toks[i].text == "#"
                && toks.get(i + 1).is_some_and(|t| t.text == "!")
                && toks.get(i + 2).is_some_and(|t| t.text == "[")
            {
                if attr_is_test(toks, i + 3) {
                    inherited_test = true;
                    // The gate covers everything from here to scope end.
                    out.push(Item {
                        kind: ItemKind::Other,
                        name: String::new(),
                        start: item_start,
                        kw: i,
                        body: None,
                        end,
                        line: toks[i].line,
                        cfg_test: true,
                        depth,
                    });
                }
                i = skip_balanced(toks, i + 2, end, "[", "]");
            } else {
                break;
            }
            if i >= end {
                return;
            }
        }
        // Visibility: `pub`, `pub(crate)`, `pub(in path)`.
        if toks[i].text == "pub" {
            i += 1;
            if i < end && toks[i].text == "(" {
                i = skip_balanced(toks, i, end, "(", ")");
            }
        }
        // Modifiers, plus the `const fn` / `extern "C" fn` lookahead forms.
        while i < end {
            let t = toks[i].text.as_str();
            if MODIFIERS.contains(&t)
                || (t == "const" && toks.get(i + 1).is_some_and(|n| n.text == "fn"))
            {
                i += 1;
            } else if t == "extern" && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Str) {
                // `extern "C" fn` modifier or `extern "C" { … }` block; only
                // step past the pair when a `fn` follows, otherwise leave
                // `extern` as the item keyword.
                if toks.get(i + 2).is_some_and(|n| n.text == "fn") {
                    i += 2;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if i >= end {
            return;
        }
        let kw = i;
        let cfg_test = inherited_test || own_test;
        let (kind, name) = classify(toks, kw, end);
        let (body, item_end) = item_extent(toks, kw, end);
        out.push(Item {
            kind,
            name,
            start: item_start,
            kw,
            body,
            end: item_end,
            line: toks[kw].line,
            cfg_test,
            depth,
        });
        if let Some((open, close)) = body {
            if matches!(
                kind,
                ItemKind::Mod | ItemKind::Impl | ItemKind::Trait | ItemKind::ExternBlock
            ) && close > open + 1
            {
                parse_items(toks, open + 1, close, cfg_test, depth + 1, out);
            }
        }
        i = item_end.max(i + 1);
    }
}

/// Classify the item starting at the keyword token `kw`.
fn classify(toks: &[Tok], kw: usize, end: usize) -> (ItemKind, String) {
    let next_ident = |from: usize| -> String {
        toks.get(from)
            .filter(|t| t.kind == TokKind::Ident && from < end)
            .map(|t| t.text.clone())
            .unwrap_or_default()
    };
    match toks[kw].text.as_str() {
        "fn" => (ItemKind::Fn, next_ident(kw + 1)),
        "mod" => (ItemKind::Mod, next_ident(kw + 1)),
        "impl" => (ItemKind::Impl, String::new()),
        "trait" => (ItemKind::Trait, next_ident(kw + 1)),
        "struct" | "enum" | "union" => (ItemKind::TypeDef, next_ident(kw + 1)),
        "use" => (ItemKind::Use, String::new()),
        "const" | "static" => (ItemKind::Const, next_ident(kw + 1)),
        "type" => (ItemKind::TypeAlias, next_ident(kw + 1)),
        "extern" => (ItemKind::ExternBlock, String::new()),
        "macro_rules" => (ItemKind::Macro, next_ident(kw + 2)),
        _ if toks.get(kw + 1).is_some_and(|t| t.text == "!") => (ItemKind::Macro, String::new()),
        _ => (ItemKind::Other, String::new()),
    }
}

/// Find the extent of the item whose keyword is at `from`: the matching
/// `}` of the first brace block opened at paren/bracket depth zero, or the
/// first `;` at depth zero. Returns `(body, one_past_end)`.
fn item_extent(toks: &[Tok], from: usize, end: usize) -> (Option<(usize, usize)>, usize) {
    let mut parens = 0i64;
    let mut brackets = 0i64;
    let mut j = from;
    while j < end {
        match toks[j].text.as_str() {
            "(" => parens += 1,
            ")" => parens -= 1,
            "[" => brackets += 1,
            "]" => brackets -= 1,
            "{" if parens <= 0 && brackets <= 0 => {
                let close = matching_brace(toks, j, end);
                return (Some((j, close)), (close + 1).min(end));
            }
            ";" if parens <= 0 && brackets <= 0 => return (None, j + 1),
            _ => {}
        }
        j += 1;
    }
    (None, end)
}

/// Index of the `}` matching the `{` at `open` (or `end - 1` when
/// unbalanced — malformed input degrades, never panics).
pub(crate) fn matching_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    skip_balanced(toks, open, end, "{", "}").saturating_sub(1)
}

/// Index of the `)` matching the `(` at `open`, by the same rule.
pub(crate) fn matching_paren(toks: &[Tok], open: usize) -> usize {
    skip_balanced(toks, open, toks.len(), "(", ")").saturating_sub(1)
}

/// A function signature: top-level parameter slices plus the parenthesis
/// span, for name extraction and return-type scanning.
pub(crate) struct Sig {
    pub(crate) params: Vec<(usize, usize)>,
    pub(crate) close: usize,
}

/// The signature of the `fn` whose keyword is at `kw`, or `None` when it
/// has no name or no parameter list before `limit`.
pub(crate) fn fn_signature(toks: &[Tok], kw: usize, limit: usize) -> Option<Sig> {
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let mut j = kw + 2;
    // Skip generic parameters, minding fused `>>` from nested generics
    // (`->` and `=>` are fused tokens and never miscount).
    if toks.get(j).is_some_and(|t| t.text == "<") {
        let mut depth = 0i64;
        while j < limit {
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
        return None;
    }
    // Split the parameter list at top-level commas.
    let open = j;
    let close = matching_paren(toks, open);
    let mut params = Vec::new();
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
    Some(Sig { params, close })
}

/// Given the first token *inside* an attribute's brackets, decide whether
/// the attribute gates test-only code: `#[test]`, `#[cfg(test)]`, and
/// `cfg(...)` lists that mention `test` outside a `not(…)` (e.g.
/// `cfg(all(test, unix))` — over-masking is the safe direction for lint).
fn attr_is_test(toks: &[Tok], at: usize) -> bool {
    let Some(head) = toks.get(at) else {
        return false;
    };
    if head.text == "test" && toks.get(at + 1).is_some_and(|t| t.text == "]") {
        return true;
    }
    if head.text != "cfg" || toks.get(at + 1).is_none_or(|t| t.text != "(") {
        return false;
    }
    let mut depth = 0i64;
    let mut j = at + 1;
    let mut saw_test = false;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "not" => return false,
            "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    saw_test
}

/// Given `open` at `toks[at]`, return the index just past its matching
/// `close`, bounded by `end`.
fn skip_balanced(toks: &[Tok], at: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i64;
    let mut j = at;
    while j < end {
        if toks[j].text == open {
            depth += 1;
        } else if toks[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(src: &str) -> Graph {
        Graph::build(&lex(src))
    }

    #[test]
    fn file_level_items_are_segmented() {
        let g = graph_of(
            "use std::collections::HashMap;\n\
             pub struct S { x: u64 }\n\
             pub fn f(x: u64) -> u64 { x + 1 }\n\
             const K: usize = 3;\n",
        );
        let kinds: Vec<ItemKind> = g.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::TypeDef,
                ItemKind::Fn,
                ItemKind::Const
            ]
        );
        let f = g.fns().next().unwrap();
        assert_eq!(f.name, "f");
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_and_mod_bodies_are_recursed() {
        let g = graph_of(
            "impl Foo {\n    pub fn a(&self) {}\n    fn b() {}\n}\n\
             mod inner { pub fn c() {} }\n",
        );
        let fns: Vec<&str> = g.fns().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, vec!["a", "b", "c"]);
        assert!(g.fns().all(|f| f.depth == 1));
    }

    #[test]
    fn cfg_test_inherits_through_nested_mods() {
        let g = graph_of(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n    mod nested {\n        fn helper() {}\n    }\n\
                 fn t() {}\n}\n",
        );
        for f in g.fns() {
            if f.name == "prod" {
                assert!(!f.cfg_test, "prod must stay unmasked");
            } else {
                assert!(f.cfg_test, "fn {} must inherit cfg(test)", f.name);
            }
        }
    }

    #[test]
    fn cfg_test_applies_to_impl_items() {
        let g = graph_of(
            "struct Foo;\n\
             #[cfg(test)]\nimpl Foo {\n    fn only_in_tests(&self) {}\n}\n\
             impl Foo {\n    fn in_prod(&self) {}\n}\n",
        );
        let test_fn = g.fns().find(|f| f.name == "only_in_tests").unwrap();
        let prod_fn = g.fns().find(|f| f.name == "in_prod").unwrap();
        assert!(test_fn.cfg_test);
        assert!(!prod_fn.cfg_test);
    }

    #[test]
    fn test_attribute_masks_bare_test_fns() {
        let g = graph_of("#[test]\nfn t() {}\nfn prod() {}\n");
        assert!(g.fns().find(|f| f.name == "t").unwrap().cfg_test);
        assert!(!g.fns().find(|f| f.name == "prod").unwrap().cfg_test);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let g = graph_of("#[cfg(not(test))]\nfn prod() {}\n");
        assert!(!g.fns().next().unwrap().cfg_test);
    }

    #[test]
    fn inner_cfg_test_gates_the_rest_of_the_scope() {
        let g = graph_of("mod tests {\n    #![cfg(test)]\n    fn t() {}\n}\nfn prod() {}\n");
        assert!(g.fns().find(|f| f.name == "t").unwrap().cfg_test);
        assert!(!g.fns().find(|f| f.name == "prod").unwrap().cfg_test);
    }

    #[test]
    fn const_struct_literal_does_not_swallow_the_next_item() {
        let g = graph_of("const X: Foo = Foo { a: 1 };\nfn after() {}\n");
        assert!(g.fns().any(|f| f.name == "after"));
    }

    #[test]
    fn mask_covers_attr_through_body() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn prod() {}\n";
        let toks = lex(src);
        let mask = Graph::build(&toks).test_mask();
        let unwrap_at = toks.iter().position(|t| t.text == "unwrap").unwrap();
        let prod_at = toks.iter().position(|t| t.text == "prod").unwrap();
        assert!(mask[unwrap_at]);
        assert!(!mask[prod_at]);
    }
}
