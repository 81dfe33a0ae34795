//! Structural context on top of the raw token stream.
//!
//! Rules need three structural facts the flat lexer cannot answer:
//! which lines sit inside `#[cfg(test)]` items (test code is exempt from
//! most rules), which function encloses a token (the precision-width rule
//! keys off `*_bytes` function names), and which lines carry code at all
//! (waiver comments attach to the next code line).

use crate::lexer::{lex, Tok, TokKind};

/// Token stream plus derived structure for one source file.
pub struct FileContext {
    /// Non-comment tokens in source order.
    pub code: Vec<Tok>,
    /// Comment tokens in source order.
    pub comments: Vec<Tok>,
    /// Raw source lines (index 0 = line 1).
    pub lines: Vec<String>,
    /// Per line (1-indexed via `line - 1`): inside a `#[cfg(test)]` item.
    test_lines: Vec<bool>,
    /// Per line: carries at least one non-comment token.
    code_lines: Vec<bool>,
    /// Per code-token index: name of the innermost enclosing `fn`, or "".
    fn_names: Vec<String>,
}

impl FileContext {
    /// Lexes and analyzes `src`.
    pub fn new(src: &str) -> Self {
        let toks = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let n_lines = lines.len().max(1);
        let mut code = Vec::new();
        let mut comments = Vec::new();
        for t in toks {
            if t.kind == TokKind::Comment {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let mut code_lines = vec![false; n_lines];
        for t in &code {
            if let Some(slot) = code_lines.get_mut(t.line as usize - 1) {
                *slot = true;
            }
        }
        let test_lines = mark_cfg_test_lines(&code, n_lines);
        let fn_names = enclosing_fn_names(&code);
        FileContext {
            code,
            comments,
            lines,
            test_lines,
            code_lines,
            fn_names,
        }
    }

    /// Whether `line` (1-indexed) is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// Whether `line` (1-indexed) carries any non-comment token.
    pub fn line_has_code(&self, line: u32) -> bool {
        self.code_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// Name of the innermost function enclosing code token `i`, or "".
    pub fn enclosing_fn(&self, i: usize) -> &str {
        self.fn_names.get(i).map(|s| s.as_str()).unwrap_or("")
    }

    /// Raw text of `line` (1-indexed), or "".
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// Every module this file declares at its top level without a body
    /// (`mod name;`, the module's own file), with whether the declaration
    /// is test code (`#[cfg(test)] mod name;`).
    pub(crate) fn module_decls(&self) -> Vec<(&str, bool)> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        for (i, t) in self.code.iter().enumerate() {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_ident("mod") {
                if let [name, semi, ..] = &self.code[i + 1..] {
                    if name.kind == TokKind::Ident && semi.is_punct(';') {
                        out.push((name.text.as_str(), self.is_test_line(t.line)));
                    }
                }
            }
        }
        out
    }

    /// Marks every line as test code: the file is a module its parent
    /// declares `#[cfg(test)] mod name;`.
    pub(crate) fn mark_test_file(&mut self) {
        self.test_lines.iter_mut().for_each(|t| *t = true);
    }

    /// Per line (index 0 = line 1): covered by a code token, a multi-line
    /// string's inner lines included.
    pub(crate) fn code_coverage(&self) -> Vec<bool> {
        let mut covered = vec![false; self.lines.len()];
        for t in &self.code {
            let last = t.line as usize + t.text.matches('\n').count();
            for slot in covered.iter_mut().take(last).skip(t.line as usize - 1) {
                *slot = true;
            }
        }
        covered
    }
}

/// Marks every line belonging to an item annotated `#[cfg(test)]` (or any
/// `cfg(...)` whose argument list mentions `test`, e.g. `all(test, unix)`).
///
/// The region runs from the attribute to the matching close brace of the
/// item's body — this covers `mod tests { ... }` as well as a directly
/// annotated `fn`/`impl`. Brace-less items (a `use` ending in `;`) mark
/// only their own lines.
fn mark_cfg_test_lines(code: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut marked = vec![false; n_lines];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('['))
            && code.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && code.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            // Scan the cfg argument list for the `test` predicate.
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut has_test = false;
            while j < code.len() && depth > 0 {
                if code[j].is_punct('(') {
                    depth += 1;
                } else if code[j].is_punct(')') {
                    depth -= 1;
                } else if code[j].is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            // Expect the closing `]` of the attribute.
            if has_test && code.get(j).is_some_and(|t| t.is_punct(']')) {
                let start_line = code[i].line;
                let end_line = item_end_line(code, j + 1);
                for l in start_line..=end_line {
                    if let Some(slot) = marked.get_mut(l as usize - 1) {
                        *slot = true;
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    marked
}

/// The last line of the item starting at code token `start`: the matching
/// close brace of its first body brace, or the first top-level `;`.
fn item_end_line(code: &[Tok], start: usize) -> u32 {
    let mut depth = 0usize;
    for t in &code[start.min(code.len())..] {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return t.line;
            }
        } else if t.is_punct(';') && depth == 0 {
            return t.line;
        }
    }
    code.last().map(|t| t.line).unwrap_or(1)
}

/// For each code token, the name of the innermost enclosing `fn`.
fn enclosing_fn_names(code: &[Tok]) -> Vec<String> {
    let mut names = Vec::with_capacity(code.len());
    // Stack of (fn name, brace depth its body opened at).
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    // Paren/bracket nesting, so the `;` in `[u8; 3]` is not an item end.
    let mut nest = 0usize;
    // A `fn` whose name has been seen but whose body `{` has not.
    let mut pending: Option<String> = None;
    for (i, t) in code.iter().enumerate() {
        names.push(stack.last().map(|(n, _)| n.clone()).unwrap_or_default());
        match &t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = code.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending = Some(name.text.clone());
                    }
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') => nest += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nest = nest.saturating_sub(1),
            TokKind::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            TokKind::Punct('}') => {
                if stack.last().is_some_and(|&(_, d)| d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') if nest == 0 => {
                // Body-less declaration (trait method signature).
                pending = None;
            }
            _ => {}
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
use std::x;

pub fn state_bytes(a: usize) -> usize {
    a * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check() {
        assert_eq!(state_bytes(1), 4);
    }
}
";

    #[test]
    fn cfg_test_region_covers_the_mod() {
        let ctx = FileContext::new(SRC);
        assert!(!ctx.is_test_line(3));
        assert!(!ctx.is_test_line(4));
        assert!(ctx.is_test_line(7));
        assert!(ctx.is_test_line(8));
        assert!(ctx.is_test_line(13));
        assert!(ctx.is_test_line(15));
    }

    #[test]
    fn enclosing_fn_tracks_names() {
        let ctx = FileContext::new(SRC);
        let star = ctx
            .code
            .iter()
            .position(|t| t.is_punct('*'))
            .expect("star token");
        assert_eq!(ctx.enclosing_fn(star), "state_bytes");
        let use_tok = ctx
            .code
            .iter()
            .position(|t| t.is_ident("use"))
            .expect("use token");
        assert_eq!(ctx.enclosing_fn(use_tok), "");
    }

    #[test]
    fn cfg_all_with_test_counts() {
        let src = "#[cfg(all(test, unix))]\nmod t { fn f() {} }\nfn g() {}\n";
        let ctx = FileContext::new(src);
        assert!(ctx.is_test_line(1));
        assert!(ctx.is_test_line(2));
        assert!(!ctx.is_test_line(3));
    }

    #[test]
    fn cfg_not_test_is_ignored() {
        let src = "#[cfg(unix)]\nmod t { fn f() {} }\n";
        let ctx = FileContext::new(src);
        assert!(!ctx.is_test_line(2));
    }

    #[test]
    fn module_decls_carry_their_test_flag() {
        // `d` is declared inside an inline module: its file is not a
        // sibling of this one, so it is not listed.
        let src = "mod a;\n#[cfg(test)]\nmod b;\nmod c {}\n#[cfg(test)]\nmod tests { mod d; }\npub mod e;\n";
        let ctx = FileContext::new(src);
        assert_eq!(
            ctx.module_decls(),
            [("a", false), ("b", true), ("e", false)]
        );
    }

    #[test]
    fn code_coverage_spans_multi_line_strings_and_skips_comments() {
        let src = "let s = \"a\n\nb\";\n// note\n/* block\n */\nfn f() {}\n";
        let cov = FileContext::new(src).code_coverage();
        assert_eq!(cov, [true, true, true, false, false, false, true]);
    }

    #[test]
    fn code_lines_exclude_comment_only_lines() {
        let src = "// comment only\nlet x = 1;\n";
        let ctx = FileContext::new(src);
        assert!(!ctx.line_has_code(1));
        assert!(ctx.line_has_code(2));
    }
}
