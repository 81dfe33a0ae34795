//! Workspace walking, waiver matching, and report assembly.

use std::fs;
use std::path::{Path, PathBuf};

use crate::context::FileContext;
use crate::rules::{self, FileClass, UNUSED_WAIVER, WAIVER_SYNTAX};
use crate::waiver;

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
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in &files {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("{}: {e}", rel.display()))?;
        let rel_str = rel_to_slash(rel);
        lint_source(&rel_str, &src, &mut report);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .unsafe_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Lints one in-memory file, appending to `report`. Exposed for tests.
pub fn lint_source(rel: &str, src: &str, report: &mut Report) {
    let class = FileClass::from_rel(rel);
    let ctx = FileContext::new(src);
    let (raw, sites) = rules::check_file(&class, &ctx);
    let (waivers, malformed) = waiver::parse_waivers(&ctx);

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
