//! End-to-end tests of the `inerf-lint` binary: exit codes, formats,
//! `--explain`, `--list-rules` and the audit staleness check.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inerf-lint"))
        .args(args)
        .output()
        .expect("inerf-lint binary must run")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no exit code")
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture_root("clean");
    let out = run(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 unwaived finding(s), 0 waived, 1 file(s) scanned"));
}

#[test]
fn seeded_tree_exits_one_and_lists_findings() {
    let root = fixture_root("ws");
    let out = run(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("crates/dram/src/order.rs:3: [hash-order]"));
    assert!(text.contains("25 unwaived finding(s), 11 waived, 15 file(s) scanned"));
    // Waived findings are only listed under --verbose.
    assert!(!text.contains("waived: fixture:"));
}

#[test]
fn verbose_lists_waived_findings_with_justifications() {
    let root = fixture_root("ws");
    let out = run(&["--root", root.to_str().expect("utf-8 path"), "--verbose"]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("waived: fixture: membership probe, order never observed"));
}

#[test]
fn json_format_reports_summary_and_waivers() {
    let root = fixture_root("ws");
    let out = run(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format=json",
    ]);
    assert_eq!(code(&out), 1);
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains(
        "\"summary\": {\"files_scanned\": 15, \"findings\": 36, \"waived\": 11, \
\"unwaived\": 25, \"unsafe_sites\": 2}"
    ));
    assert!(json.contains("\"rule\": \"unsafe-audit\""));
    assert!(json.contains("\"waived\": \"fixture: caller guarantees Some\""));
    // Space-separated --format works too.
    let out2 = run(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    assert_eq!(code(&out2), 1);
    assert_eq!(out.stdout, out2.stdout);
}

#[test]
fn explain_documents_each_rule() {
    for rule in [
        "hash-order",
        "wall-clock",
        "unsafe-audit",
        "entry-width",
        "panic-path",
        "vendor-isolation",
        "simd-lane",
        "pub-reach",
        "waiver-syntax",
        "unused-waiver",
    ] {
        let out = run(&["--explain", rule]);
        assert_eq!(code(&out), 0, "--explain {rule}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(rule), "--explain {rule} must name the rule");
        assert!(
            text.contains(&format!("allow({rule})")),
            "--explain {rule} must show the waiver template"
        );
    }
}

#[test]
fn list_rules_covers_the_catalogue() {
    let out = run(&["--list-rules"]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "hash-order",
        "wall-clock",
        "unsafe-audit",
        "entry-width",
        "pub-reach",
    ] {
        assert!(text.contains(rule), "missing {rule} in --list-rules");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(code(&run(&["--explain", "no-such-rule"])), 2);
    assert_eq!(code(&run(&["--frobnicate"])), 2);
    assert_eq!(code(&run(&["--root"])), 2);
    assert_eq!(code(&run(&["--census"])), 2);
    let missing = fixture_root("does-not-exist");
    assert_eq!(
        code(&run(&["--root", missing.to_str().expect("utf-8 path")])),
        2
    );
}

/// The `reach` corpus's two crates: 82 lines outside test code, 44 of them
/// code. `alpha`'s lib.rs stops at its `#[cfg(test)] mod tests` (40 / 21);
/// shapes.rs is all library (33 / 18); `beta`'s lib.rs loses the two lines
/// of its `#[cfg(test)] mod support;` (9 / 5), and support.rs, test code as
/// a whole, counts nothing (a line-based cut would count it 7 / 3).
#[test]
fn census_counts_library_lines_only() {
    let crates = fixture_root("reach").join("crates");
    let [alpha, beta] = ["alpha/src", "beta/src"].map(|d| crates.join(d));
    let out = run(&[
        "--census",
        alpha.to_str().expect("utf-8 path"),
        beta.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "82 44\n");
}

#[test]
fn check_unsafe_audit_detects_staleness() {
    // Run against a throwaway copy of the clean corpus so the committed
    // fixture tree stays pristine.
    let src = fixture_root("clean");
    let dir = std::env::temp_dir().join(format!("inerf-lint-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&src, &dir);
    let root = dir.to_str().expect("utf-8 path");

    // No committed audit at all: the check is an I/O error (exit 2).
    assert_eq!(code(&run(&["--check-unsafe-audit", "--root", root])), 2);

    // Freshly written audit passes.
    assert_eq!(code(&run(&["--write-unsafe-audit", "--root", root])), 0);
    assert_eq!(code(&run(&["--check-unsafe-audit", "--root", root])), 0);

    // A drifted audit fails the check.
    let audit = dir.join("UNSAFE_AUDIT.md");
    std::fs::write(&audit, "# Unsafe audit\n\nstale\n").expect("write stale audit");
    assert_eq!(code(&run(&["--check-unsafe-audit", "--root", root])), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_tree(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create temp dir");
    for entry in std::fs::read_dir(src).expect("read fixture dir") {
        let entry = entry.expect("fixture dir entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy fixture file");
        }
    }
}
