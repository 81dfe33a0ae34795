//! The linter against its seeded fixture corpus: every rule must fire on
//! exactly the planted violations, honour exactly the planted waivers, and
//! inventory exactly the planted `unsafe` sites.
//!
//! The corpus lives in `tests/fixtures/ws` (a miniature workspace layout);
//! the real workspace walk skips any directory named `fixtures`, so these
//! seeded violations never leak into the self-scan.

use std::path::PathBuf;

use inerf_lint::{lint_workspace, render_unsafe_audit, Report};

// inerf-lint: allow(vendor-isolation) -- test data: a path inside the fixture corpus, not a reach into the real vendored tree
const FAKE_VENDOR_FILE: &str = "vendor/fake/src/lib.rs";

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Report {
    lint_workspace(&fixture_root(name)).expect("fixture corpus must lint without I/O errors")
}

/// `(file, line, rule, waived)` for every finding, in report order.
fn tuples(report: &Report) -> Vec<(String, u32, String, bool)> {
    report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.clone(), f.waived.is_some()))
        .collect()
}

#[test]
fn corpus_findings_are_exactly_the_seeded_ones() {
    let report = lint_fixture("ws");
    let expect: Vec<(&str, u32, &str, bool)> = vec![
        ("crates/accel/src/lanes.rs", 3, "simd-lane", false),
        ("crates/accel/src/lanes.rs", 6, "simd-lane", false),
        ("crates/accel/src/lanes.rs", 9, "simd-lane", false),
        ("crates/accel/src/lanes.rs", 14, "simd-lane", true),
        ("crates/accel/src/lanes.rs", 21, "simd-lane", false),
        ("crates/core/src/clock.rs", 6, "wall-clock", false),
        ("crates/core/src/clock.rs", 12, "wall-clock", true),
        ("crates/dram/src/order.rs", 3, "hash-order", false),
        ("crates/dram/src/order.rs", 11, "hash-order", true),
        ("crates/dram/src/order.rs", 17, "hash-order", false),
        ("crates/dram/src/order.rs", 21, "hash-order", false),
        ("crates/encoding/src/widths.rs", 16, "entry-width", false),
        ("crates/encoding/src/widths.rs", 21, "entry-width", true),
        ("crates/encoding/src/widths.rs", 25, "entry-width", false),
        ("crates/encoding/src/widths.rs", 29, "entry-width", false),
        ("crates/encoding/src/widths.rs", 37, "panic-path", false),
        ("crates/encoding/src/widths.rs", 42, "panic-path", true),
        ("crates/mlp/src/waivers.rs", 3, "waiver-syntax", false),
        ("crates/mlp/src/waivers.rs", 8, "unused-waiver", false),
        ("crates/mlp/src/waivers.rs", 13, "waiver-syntax", false),
        ("crates/snapshot/src/io.rs", 4, "panic-path", false),
        ("crates/snapshot/src/io.rs", 9, "panic-path", true),
        ("crates/trainer/src/model.rs", 5, "panic-path", false),
        ("crates/trainer/src/model.rs", 10, "panic-path", true),
        ("crates/trainer/src/occupancy.rs", 5, "panic-path", false),
        ("crates/trainer/src/occupancy.rs", 10, "panic-path", true),
        ("crates/trainer/src/render.rs", 6, "panic-path", false),
        ("crates/trainer/src/render.rs", 11, "panic-path", true),
        (
            "crates/trainer/src/train/checkpoint.rs",
            6,
            "panic-path",
            false,
        ),
        (
            "crates/trainer/src/train/checkpoint.rs",
            11,
            "panic-path",
            true,
        ),
        (
            "crates/trainer/src/vendorref.rs",
            4,
            "vendor-isolation",
            false,
        ),
        (
            "crates/trainer/src/vendorref.rs",
            7,
            "vendor-isolation",
            false,
        ),
        (
            "crates/trainer/src/vendorref.rs",
            11,
            "vendor-isolation",
            true,
        ),
        (
            "crates/trainer/src/vendorref.rs",
            14,
            "vendor-isolation",
            false,
        ),
        (
            "crates/trainer/src/vendorref.rs",
            29,
            "vendor-isolation",
            false,
        ),
        (FAKE_VENDOR_FILE, 13, "unsafe-audit", false),
    ];
    let got = tuples(&report);
    let want: Vec<(String, u32, String, bool)> = expect
        .into_iter()
        .map(|(f, l, r, w)| (f.to_string(), l, r.to_string(), w))
        .collect();
    assert_eq!(got, want, "fixture findings drifted from the seeded corpus");
    assert_eq!(report.files_scanned, 15);
    assert_eq!(report.unwaived_count(), 25);
}

#[test]
fn waiver_justifications_are_recorded() {
    let report = lint_fixture("ws");
    let justifications: Vec<&str> = report
        .findings
        .iter()
        .filter_map(|f| f.waived.as_deref())
        .collect();
    assert_eq!(
        justifications,
        vec![
            "fixture: feature probe pending port to inerf_simd",
            "fixture: host timestamp for a log line only",
            "fixture: membership probe, order never observed",
            "fixture: literal is a register count, not a width",
            "fixture: caller guarantees Some",
            "fixture: caller validated the length",
            "fixture: the engine sizes the ring first",
            "fixture: the sweep writes one density per cell",
            "fixture: the engine pushes one cut per span",
            "fixture: the caller checked the tag list",
            "fixture: stand-in extension pending README row",
        ]
    );
}

#[test]
fn unsafe_inventory_lists_both_seeded_sites() {
    let report = lint_fixture("ws");
    assert_eq!(report.unsafe_sites.len(), 2);
    let bare = &report.unsafe_sites[0];
    assert_eq!(
        (bare.file.as_str(), bare.line, bare.enclosing_fn.as_str()),
        (FAKE_VENDOR_FILE, 13, "raw_read")
    );
    assert!(bare.safety.is_none());
    let justified = &report.unsafe_sites[1];
    assert_eq!(
        (
            justified.file.as_str(),
            justified.line,
            justified.enclosing_fn.as_str()
        ),
        (FAKE_VENDOR_FILE, 20, "checked_read")
    );
    let text = justified.safety.as_deref().expect("SAFETY text captured");
    assert!(
        text.starts_with("`p` is derived from a live shared reference"),
        "joined SAFETY text: {text}"
    );
    assert!(
        text.contains("valid for reads"),
        "multi-line SAFETY comment must be joined: {text}"
    );

    let audit = render_unsafe_audit(&report);
    assert!(audit.contains(&format!(
        "| `{FAKE_VENDOR_FILE}:13` | `fn raw_read` | **MISSING** |"
    )));
    assert!(audit.contains(&format!("`{FAKE_VENDOR_FILE}:20` | `fn checked_read` |")));
    assert!(audit.contains("2 `unsafe` site(s) in the workspace."));
}

#[test]
fn clean_corpus_is_clean() {
    let report = lint_fixture("clean");
    assert_eq!(report.findings.len(), 0, "{:?}", report.findings);
    assert_eq!(report.unwaived_count(), 0);
    assert_eq!(report.files_scanned, 1);
    assert!(report.unsafe_sites.is_empty());
}

#[test]
fn tricky_lexer_file_yields_no_findings() {
    let report = lint_fixture("ws");
    let geom: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/geom/"))
        .collect();
    assert!(
        geom.is_empty(),
        "strings/comments/raw strings must be inert: {geom:?}"
    );
    let bench: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/bench/"))
        .collect();
    assert!(
        bench.is_empty(),
        "crates/bench is wall-clock-exempt: {bench:?}"
    );
}
