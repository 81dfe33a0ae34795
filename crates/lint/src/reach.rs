//! Rule `pub-reach`: the one workspace-level rule.
//!
//! rustc's `dead_code` lint never fires on a `pub` item, so public surface
//! that no program calls survives every build. This pass indexes every
//! identifier that non-test code names, then reports each `pub` item of a
//! library crate whose name no *other* file names. It is lexical: names are
//! matched, not resolved, so a collision (`new`, `len`) counts as a
//! reference and the rule under-reports rather than over-reports.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::rules::{FileClass, RawFinding, PUB_REACH};

/// Crates whose `pub` items are not checked: the measurement layer (its
/// library is retired with the record benches) and this linter.
const EXEMPT_CRATES: &[&str] = &["bench", "lint"];
/// Item keywords the rule checks.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Where a file's identifiers count as callers: library and binary
/// sources, examples and bench harnesses; never tests or vendored code.
fn is_caller(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts[0] == "vendor" || parts.contains(&"tests") {
        return false;
    }
    (parts[0] == "crates" && parts.get(2) == Some(&"src"))
        || parts.contains(&"examples")
        || parts.contains(&"benches")
}

/// Whether a file's `pub` items are checked: library sources of a
/// non-exempt crate (`crates/<name>/src/`, binaries under `src/bin/` aside).
fn defines_library_items(class: &FileClass) -> bool {
    let parts: Vec<&str> = class.rel.split('/').collect();
    parts[0] == "crates"
        && parts.get(2) == Some(&"src")
        && parts.get(3) != Some(&"bin")
        && !class
            .crate_name
            .as_deref()
            .is_some_and(|c| EXEMPT_CRATES.contains(&c))
}

/// One `pub` item definition.
struct Item {
    kind: &'static str,
    name: String,
    line: u32,
    /// Identifiers in the item's signature (a fn's parameters, return type
    /// and bounds; a type's fields or variants; a const's type).
    signature: BTreeSet<String>,
}

/// Runs the rule over every file of the workspace. Returns, per finding,
/// the index of its file in `files`.
pub fn pub_reach(files: &[(FileClass, FileContext)]) -> Vec<(usize, RawFinding)> {
    // name -> files whose non-test code names it.
    let mut refs: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (fi, (class, ctx)) in files.iter().enumerate() {
        if !is_caller(&class.rel) {
            continue;
        }
        let reexport = pub_use_mask(&ctx.code);
        for (ti, t) in ctx.code.iter().enumerate() {
            if t.kind == TokKind::Ident && !reexport[ti] && !ctx.is_test_line(t.line) {
                refs.entry(t.text.as_str()).or_default().insert(fi);
            }
        }
    }
    let mut out = Vec::new();
    for (fi, (class, ctx)) in files.iter().enumerate() {
        if !defines_library_items(class) {
            continue;
        }
        let items = pub_items(ctx);
        let named_elsewhere = |name: &str| {
            refs.get(name)
                .is_some_and(|fs| fs.iter().any(|&other| other != fi))
        };
        let mut reached: Vec<bool> = items.iter().map(|it| named_elsewhere(&it.name)).collect();
        // A type named in a reached item's signature, or in a trait impl of
        // a reached type (an iterator's `Item`), is reached with it.
        let impls = trait_impls(ctx);
        let edges: Vec<(&str, &BTreeSet<String>)> = items
            .iter()
            .map(|it| (it.name.as_str(), &it.signature))
            .chain(impls.iter().map(|(ty, sig)| (ty.as_str(), sig)))
            .collect();
        let mut grew = true;
        while grew {
            grew = false;
            for (owner, sig) in &edges {
                if !items
                    .iter()
                    .zip(&reached)
                    .any(|(it, &r)| r && it.name == *owner)
                {
                    continue;
                }
                for (j, it) in items.iter().enumerate() {
                    if !reached[j] && sig.contains(&it.name) {
                        reached[j] = true;
                        grew = true;
                    }
                }
            }
        }
        for (it, _) in items.iter().zip(&reached).filter(|(_, &r)| !r) {
            out.push((
                fi,
                RawFinding {
                    rule: PUB_REACH,
                    line: it.line,
                    message: format!(
                        "`pub {} {}` is named by no non-test code outside this file; \
delete it, narrow it to pub(crate) or private, or move it under #[cfg(test)]",
                        it.kind, it.name
                    ),
                },
            ));
        }
    }
    out
}

/// Per code token: part of a `pub use` (any visibility) re-export.
fn pub_use_mask(code: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("pub") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_punct('(')) {
                j = skip_group(code, j);
            }
            if code.get(j).is_some_and(|t| t.is_ident("use")) {
                while j < code.len() && !code[j].is_punct(';') {
                    j += 1;
                }
                mask[i..j.min(code.len())]
                    .iter_mut()
                    .for_each(|m| *m = true);
                i = j;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Every plain-`pub` item of `ctx` outside `#[cfg(test)]` code.
fn pub_items(ctx: &FileContext) -> Vec<Item> {
    let code = &ctx.code;
    let mut items = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("pub") || ctx.is_test_line(t.line) {
            continue;
        }
        // `pub(crate)`, `pub(super)`: already narrowed.
        let mut j = i + 1;
        loop {
            match code.get(j).map(|t| t.text.as_str()) {
                Some("unsafe" | "async" | "extern") => j += 1,
                Some("const") if code.get(j + 1).is_some_and(|n| n.is_ident("fn")) => j += 1,
                _ if code.get(j).is_some_and(|t| t.kind == TokKind::Str) => j += 1,
                _ => break,
            }
        }
        let Some(kind) = code
            .get(j)
            .filter(|k| k.kind == TokKind::Ident)
            .and_then(|k| ITEM_KINDS.iter().find(|&&kind| k.text == kind))
        else {
            continue;
        };
        let Some(name) = code.get(j + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        let end = signature_end(code, j + 2, kind);
        let signature = code[j + 2..end]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        items.push(Item {
            kind,
            name: name.text.clone(),
            line: t.line,
            signature,
        });
    }
    items
}

/// Every `impl <Trait> for <Type>` block outside `#[cfg(test)]` code: the
/// type's name and the identifiers of the block's associated types and
/// fn signatures.
fn trait_impls(ctx: &FileContext) -> Vec<(String, BTreeSet<String>)> {
    let code = &ctx.code;
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("impl") || ctx.is_test_line(t.line) {
            continue;
        }
        let Some(open) =
            (i + 1..code.len()).find(|&j| code[j].is_punct('{') || code[j].is_punct(';'))
        else {
            continue;
        };
        let Some(ty) = (i + 1..open)
            .find(|&j| code[j].is_ident("for"))
            .and_then(|f| {
                (f + 1..open).find(|&j| code[j].kind == TokKind::Ident && code[j].text != "mut")
            })
        else {
            continue;
        };
        let close = skip_group(code, open);
        let mut sig = BTreeSet::new();
        let mut j = open + 1;
        while j < close {
            if code[j].is_ident("fn") || code[j].is_ident("type") {
                let from = (j + 2).min(code.len());
                let end = signature_end(code, from, "fn");
                sig.extend(
                    code[from..end]
                        .iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone()),
                );
                j = end;
                if code.get(j).is_some_and(|t| t.is_punct('{')) {
                    j = skip_group(code, j);
                    continue;
                }
            }
            j += 1;
        }
        out.push((code[ty].text.clone(), sig));
    }
    out
}

/// One past the last signature token of an item whose name ends at
/// `start`: a fn stops at its body, a struct, enum or trait runs through
/// its body, and a const, static or type alias runs to its `;`.
fn signature_end(code: &[Tok], start: usize, kind: &str) -> usize {
    let mut nest = 0usize;
    let mut j = start;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest = nest.saturating_sub(1);
        } else if nest == 0 && t.is_punct(';') {
            return j;
        } else if nest == 0 && t.is_punct('{') {
            return match kind {
                "fn" => j,
                "const" | "static" | "type" => {
                    j = skip_group(code, j);
                    continue;
                }
                _ => skip_group(code, j),
            };
        }
        j += 1;
    }
    code.len()
}

/// One past the token closing the bracket group that opens at `open`.
fn skip_group(code: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<(&'static str, String)> {
        pub_items(&FileContext::new(src))
            .into_iter()
            .map(|it| (it.kind, it.name))
            .collect()
    }

    #[test]
    fn finds_plain_pub_items_only() {
        let src = "\
pub fn a() {}
pub(crate) fn b() {}
pub const fn c() {}
pub const D: u32 = 1;
pub unsafe fn e() {}
pub struct F { pub x: u32 }
pub mod g {}
pub use g::*;
fn h() {}
#[cfg(test)]
pub fn i() {}
";
        assert_eq!(
            items(src),
            vec![
                ("fn", "a".to_string()),
                ("fn", "c".to_string()),
                ("const", "D".to_string()),
                ("fn", "e".to_string()),
                ("struct", "F".to_string()),
            ]
        );
    }

    #[test]
    fn signature_stops_at_a_fn_body_and_spans_a_struct_body() {
        let ctx = FileContext::new(
            "pub fn f(a: A) -> B where C: D { E }\npub struct S { x: X }\npub const K: [T; 2] = V;\n",
        );
        let its = pub_items(&ctx);
        let sig = |i: usize| its[i].signature.iter().cloned().collect::<Vec<_>>();
        assert_eq!(sig(0), ["A", "B", "C", "D", "a", "where"]);
        assert_eq!(sig(1), ["X", "x"]);
        assert_eq!(sig(2), ["T", "V"]);
    }

    #[test]
    fn trait_impls_yield_associated_types_and_survive_truncation() {
        let ctx = FileContext::new("impl Iterator for Walk { type Item = Step; fn next(&mut self) -> Option<Step> { None } }");
        let impls = trait_impls(&ctx);
        assert_eq!(impls.len(), 1);
        assert_eq!(impls[0].0, "Walk");
        assert!(impls[0].1.contains("Step"));
        for src in [
            "impl A for B { fn",
            "impl A for B { type",
            "pub fn",
            "pub use a",
        ] {
            let ctx = FileContext::new(src);
            let _ = (trait_impls(&ctx), pub_items(&ctx), pub_use_mask(&ctx.code));
        }
    }

    #[test]
    fn pub_use_statements_are_masked() {
        let ctx = FileContext::new("pub use a::{B, C};\npub(crate) use d::E;\nuse f::G;\n");
        let mask = pub_use_mask(&ctx.code);
        let named: Vec<&str> = ctx
            .code
            .iter()
            .zip(&mask)
            .filter(|(t, &m)| !m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert_eq!(named, ["use", "f", "G"]);
    }
}
