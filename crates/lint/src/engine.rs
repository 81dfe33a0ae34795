//! Workspace walking, waiver matching, and report assembly.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::context::FileContext;
use crate::rules::{self, FileClass, RawFinding, UNUSED_WAIVER, WAIVER_SYNTAX};
use crate::{reach, waiver};

/// One reported finding, after waiver matching.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-oriented description of the hazard.
    pub message: String,
    /// `Some(justification)` when an inline waiver covers this finding.
    pub waived: Option<String>,
}

/// One `unsafe` site in the workspace-wide audit inventory.
#[derive(Debug, Clone)]
pub struct AuditEntry {
    pub file: String,
    pub line: u32,
    pub enclosing_fn: String,
    pub safety: Option<String>,
}

/// The result of linting a workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings (waived ones included — the waiver trail is part of
    /// the report), sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every `unsafe` occurrence, waived or not, sorted by (file, line).
    pub unsafe_sites: Vec<AuditEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a waiver — the ones that fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Number of unwaived findings.
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }
}

/// Lints every `.rs` file under `root`, honouring inline waivers.
///
/// Skipped subtrees: `target`, `.git`, and any directory named `fixtures`
/// (the linter's own test corpus is made of seeded violations).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
        files.push((
            FileClass::from_rel(&rel_to_slash(rel)),
            FileContext::new(&src),
        ));
    }
    mark_test_modules(&mut files);
    let mut raw: Vec<Vec<RawFinding>> = vec![Vec::new(); files.len()];
    for (fi, f) in reach::pub_reach(&files) {
        raw[fi].push(f);
    }
    let mut report = Report::default();
    for ((class, ctx), extra) in files.iter().zip(raw) {
        lint_file(class, ctx, extra, &mut report);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .unsafe_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Lints one in-memory file with the per-file rules, appending to
/// `report`. Exposed for tests; `pub-reach` needs the whole workspace.
pub fn lint_source(rel: &str, src: &str, report: &mut Report) {
    lint_file(
        &FileClass::from_rel(rel),
        &FileContext::new(src),
        Vec::new(),
        report,
    );
}

/// Runs the per-file rules, then matches every finding of the file (the
/// workspace pass's `extra` ones too) against its waivers.
fn lint_file(class: &FileClass, ctx: &FileContext, extra: Vec<RawFinding>, report: &mut Report) {
    let rel = class.rel.as_str();
    let (mut raw, sites) = rules::check_file(class, ctx);
    raw.extend(extra);
    let (waivers, malformed) = waiver::parse_waivers(ctx);

    let mut used = vec![false; waivers.len()];
    for f in raw {
        let matched = waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.rule == f.rule && w.target_line == f.line);
        let waived = matched.map(|(wi, w)| {
            used[wi] = true;
            w.justification.clone()
        });
        report.findings.push(Finding {
            rule: f.rule.to_string(),
            file: rel.to_string(),
            line: f.line,
            message: f.message,
            waived,
        });
    }
    for m in malformed {
        report.findings.push(Finding {
            rule: WAIVER_SYNTAX.to_string(),
            file: rel.to_string(),
            line: m.line,
            message: m.reason,
            waived: None,
        });
    }
    for (wi, w) in waivers.iter().enumerate() {
        if !used[wi] {
            report.findings.push(Finding {
                rule: UNUSED_WAIVER.to_string(),
                file: rel.to_string(),
                line: w.comment_line,
                message: format!(
                    "waiver for `{}` matches no finding on line {}; remove or move it",
                    w.rule, w.target_line
                ),
                waived: None,
            });
        }
    }
    for s in sites {
        report.unsafe_sites.push(AuditEntry {
            file: rel.to_string(),
            line: s.line,
            enclosing_fn: s.enclosing_fn,
            safety: s.safety,
        });
    }
    report.files_scanned += 1;
}

/// Marks as test code, whole, every file of `files` that its parent
/// declares `#[cfg(test)] mod name;`, and every module file below one:
/// `#[cfg(test)]` on a body-less `mod` covers only that line of the parent.
fn mark_test_modules(files: &mut [(FileClass, FileContext)]) {
    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (class, _))| (class.rel.as_str(), i))
        .collect();
    let children = |fi: usize, tests_only: bool| -> Vec<usize> {
        let (class, ctx) = &files[fi];
        ctx.module_decls()
            .into_iter()
            .filter(|&(_, test)| test || !tests_only)
            .filter_map(|(name, _)| module_file(&index, &class.rel, name))
            .collect()
    };
    let mut stack: Vec<usize> = (0..files.len()).flat_map(|fi| children(fi, true)).collect();
    let mut test_files = BTreeSet::new();
    while let Some(fi) = stack.pop() {
        if test_files.insert(fi) {
            stack.extend(children(fi, false));
        }
    }
    for fi in test_files {
        files[fi].1.mark_test_file();
    }
}

/// The file of module `name` declared in `parent` (both `/`-separated):
/// `<dir>/name.rs` or `<dir>/name/mod.rs`, where `<dir>` is the parent's
/// directory for a `mod.rs` or a crate root (`lib.rs`, `main.rs`, a file
/// directly under `bin/`, `tests/`, `examples/` or `benches/`) and the
/// parent's path without `.rs` otherwise.
fn module_file(index: &BTreeMap<&str, usize>, parent: &str, name: &str) -> Option<usize> {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    let owns_dir = matches!(file, "lib.rs" | "main.rs" | "mod.rs")
        || matches!(
            dir.rsplit('/').next(),
            Some("bin" | "tests" | "examples" | "benches")
        );
    let base = if owns_dir {
        dir
    } else {
        parent.strip_suffix(".rs")?
    };
    let prefix = if base.is_empty() {
        String::new()
    } else {
        format!("{base}/")
    };
    [
        format!("{prefix}{name}.rs"),
        format!("{prefix}{name}/mod.rs"),
    ]
    .iter()
    .find_map(|rel| index.get(rel.as_str()).copied())
}

/// The source-size census of the `.rs` files under `dirs`: the lines
/// outside test code, and how many of those carry code (neither blank nor
/// only comment). Test code is what the rules see as such: `#[cfg(test)]`
/// items, and the files declared `#[cfg(test)] mod name;`.
pub fn census(dirs: &[PathBuf]) -> Result<(usize, usize), String> {
    let mut files = Vec::new();
    for dir in dirs {
        let mut rels = Vec::new();
        collect_rs_files(dir, dir, &mut rels)?;
        for rel in rels {
            let path = dir.join(rel);
            let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((
                FileClass::from_rel(&rel_to_slash(&path)),
                FileContext::new(&src),
            ));
        }
    }
    mark_test_modules(&mut files);
    let (mut lines, mut code) = (0, 0);
    for (_, ctx) in &files {
        for (i, covered) in ctx.code_coverage().into_iter().enumerate() {
            if !ctx.is_test_line(i as u32 + 1) {
                lines += 1;
                code += usize::from(covered);
            }
        }
    }
    Ok((lines, code))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_to_slash(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the UNSAFE_AUDIT.md inventory for a report. Byte-deterministic
/// so CI can regenerate and diff.
pub fn render_unsafe_audit(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# Unsafe audit\n\n");
    out.push_str("<!-- Generated by `cargo run -p inerf_lint -- --write-unsafe-audit`. -->\n");
    out.push_str("<!-- Do not edit by hand; CI regenerates and diffs this file. -->\n\n");
    out.push_str(
        "Workspace policy: every first-party crate is `#![forbid(unsafe_code)]`\n\
except `inerf_simd`, which cannot be: a `#[target_feature]` function is\n\
`unsafe` to call, and its AVX2 dispatch frame is that call. `unsafe` can\n\
therefore appear only there and in the vendored dependency stand-ins.\n\
Each site must carry a `// SAFETY:` justification (lint rule\n\
`unsafe-audit`); the full inventory is below.\n\n",
    );
    if report.unsafe_sites.is_empty() {
        out.push_str("No `unsafe` sites in the workspace.\n");
        return out;
    }
    out.push_str("| location | enclosing item | SAFETY justification |\n");
    out.push_str("|---|---|---|\n");
    for s in &report.unsafe_sites {
        let item = if s.enclosing_fn.is_empty() {
            "(item level)".to_string()
        } else {
            format!("`fn {}`", s.enclosing_fn)
        };
        let safety = match &s.safety {
            Some(text) => excerpt(text, 160),
            None => "**MISSING**".to_string(),
        };
        out.push_str(&format!(
            "| `{}:{}` | {} | {} |\n",
            s.file, s.line, item, safety
        ));
    }
    out.push_str(&format!(
        "\n{} `unsafe` site(s) in the workspace.\n",
        report.unsafe_sites.len()
    ));
    out
}

/// First `max` characters of `text`, on char boundaries, `...`-terminated
/// when truncated; pipes escaped so the Markdown table stays a table.
fn excerpt(text: &str, max: usize) -> String {
    let clean = text.replace('|', "\\|");
    let mut s: String = clean.chars().take(max).collect();
    if clean.chars().count() > max {
        s.push_str("...");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_matching_rule_only() {
        let src = "\
// inerf-lint: allow(hash-order) -- membership only, order never observed
use std::collections::HashMap;
use std::collections::HashSet;
";
        let mut report = Report::default();
        lint_source("crates/dram/src/x.rs", src, &mut report);
        let unwaived: Vec<_> = report.unwaived().collect();
        assert_eq!(unwaived.len(), 1, "{unwaived:?}");
        assert_eq!(unwaived[0].line, 3);
        let waived: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.waived.is_some())
            .collect();
        assert_eq!(waived.len(), 1);
        assert_eq!(
            waived[0].waived.as_deref(),
            Some("membership only, order never observed")
        );
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "// inerf-lint: allow(hash-order) -- nothing here\nfn f() {}\n";
        let mut report = Report::default();
        lint_source("crates/dram/src/x.rs", src, &mut report);
        assert_eq!(report.unwaived_count(), 1);
        assert_eq!(report.findings[0].rule, UNUSED_WAIVER);
    }

    #[test]
    fn module_files_follow_the_crate_root_and_submodule_layouts() {
        let rels = [
            "crates/a/src/lib.rs",
            "crates/a/src/util.rs",
            "crates/a/src/util/deep.rs",
            "crates/a/src/net/mod.rs",
            "crates/a/src/bin/tool/main.rs",
            "crates/a/src/bin/tool/args.rs",
            "crates/a/src/bin/flags.rs",
        ];
        let index: BTreeMap<&str, usize> = rels.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        let find = |parent: &str, name: &str| module_file(&index, parent, name);
        assert_eq!(find("crates/a/src/lib.rs", "util"), Some(1));
        assert_eq!(find("crates/a/src/util.rs", "deep"), Some(2));
        assert_eq!(find("crates/a/src/lib.rs", "net"), Some(3));
        assert_eq!(find("crates/a/src/bin/tool/main.rs", "args"), Some(5));
        assert_eq!(find("crates/a/src/bin/single.rs", "flags"), Some(6));
        assert_eq!(find("crates/a/src/lib.rs", "deep"), None);
        assert_eq!(find("crates/a/src/net/mod.rs", "util"), None);
    }

    #[test]
    fn a_test_module_file_and_its_own_modules_are_test_code() {
        let mut files: Vec<(FileClass, FileContext)> = [
            (
                "crates/a/src/lib.rs",
                "mod lib_code;\n#[cfg(test)]\nmod support;\n",
            ),
            ("crates/a/src/lib_code.rs", "pub fn f() {}\n"),
            ("crates/a/src/support.rs", "mod inner;\npub fn g() {}\n"),
            ("crates/a/src/support/inner.rs", "pub fn h() {}\n"),
        ]
        .into_iter()
        .map(|(rel, src)| (FileClass::from_rel(rel), FileContext::new(src)))
        .collect();
        mark_test_modules(&mut files);
        let test: Vec<bool> = files.iter().map(|(_, ctx)| ctx.is_test_line(1)).collect();
        assert_eq!(test, [false, false, true, true]);
    }

    #[test]
    fn audit_renders_missing_and_present_safety() {
        let mut report = Report::default();
        report.unsafe_sites.push(AuditEntry {
            file: "a.rs".into(),
            line: 3,
            enclosing_fn: "f".into(),
            safety: Some("the scope outlives the borrow".into()),
        });
        report.unsafe_sites.push(AuditEntry {
            file: "b.rs".into(),
            line: 9,
            enclosing_fn: String::new(),
            safety: None,
        });
        let md = render_unsafe_audit(&report);
        assert!(md.contains("`a.rs:3` | `fn f` | the scope outlives the borrow"));
        assert!(md.contains("**MISSING**"));
        assert!(md.contains("2 `unsafe` site(s)"));
    }
}
