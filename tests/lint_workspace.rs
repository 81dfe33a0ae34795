//! The workspace linting itself: `inerf-lint` must report zero unwaived
//! findings over the whole tree, and the committed `UNSAFE_AUDIT.md` must
//! match what the linter would regenerate.
//!
//! This is the tier-1 integration of the static pass: `cargo test -q`
//! fails the moment an unwaived hazard (or a stale audit) lands, without
//! anyone having to remember to run the binary.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // This test is wired into crates/core, so the manifest dir is
    // crates/core and the workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root must resolve")
}

#[test]
fn workspace_has_no_unwaived_findings() {
    let root = workspace_root();
    let report = inerf_lint::lint_workspace(&root).expect("workspace must lint");
    let offenders: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        offenders.is_empty(),
        "unwaived lint findings (waive with `// inerf-lint: allow(<rule>) -- <why>` \
or fix; see `cargo run -p inerf_lint -- --explain <rule>`):\n{}",
        offenders.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "workspace scan saw only {} files; the walk is broken",
        report.files_scanned
    );
}

#[test]
fn committed_unsafe_audit_is_current() {
    let root = workspace_root();
    let (_, regenerated) = inerf_lint::lint_and_audit(&root).expect("workspace must lint");
    let committed = std::fs::read_to_string(root.join(inerf_lint::UNSAFE_AUDIT_FILE))
        .expect("UNSAFE_AUDIT.md must be committed at the workspace root");
    assert_eq!(
        committed, regenerated,
        "UNSAFE_AUDIT.md is stale; regenerate with \
`cargo run -p inerf_lint -- --write-unsafe-audit`"
    );
}

/// The freshness check above passes a PR that adds ten sites and
/// regenerates the file; this one makes growing the surface a deliberate
/// edit of the list. `""` is an item-level site (an `unsafe fn`). Paths are
/// spelled by component: `vendor-isolation` flags a string literal that
/// reaches into the vendored tree, and naming a file is not reaching.
#[test]
fn unsafe_inventory_is_exactly_the_three_known_sites() {
    let report = inerf_lint::lint_workspace(&workspace_root()).expect("workspace must lint");
    let sites: Vec<(Vec<&str>, &str)> = report
        .unsafe_sites
        .iter()
        .map(|s| (s.file.split('/').collect(), s.enclosing_fn.as_str()))
        .collect();
    let lib_rs = |tree, krate| vec![tree, krate, "src", "lib.rs"];
    assert_eq!(
        sites,
        [
            (lib_rs("crates", "simd"), "vectorize"), // the call into the AVX2 frame
            (lib_rs("crates", "simd"), ""),          // `unsafe fn frame_avx2`
            (lib_rs("vendor", "rayon"), "spawn"),    // scoped-job lifetime erasure
        ]
    );
}

#[test]
fn every_waiver_in_the_tree_is_justified() {
    let root = workspace_root();
    let report = inerf_lint::lint_workspace(&root).expect("workspace must lint");
    for f in &report.findings {
        if let Some(j) = &f.waived {
            assert!(
                j.len() >= 10,
                "{}:{}: waiver justification too thin to audit: {j:?}",
                f.file,
                f.line
            );
        }
    }
}
