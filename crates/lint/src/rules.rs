//! The rule set.
//!
//! Every rule is a pure function over one file's [`FileContext`] plus its
//! workspace classification ([`FileClass`]); rules never do I/O. Each is
//! grounded in an invariant this repository's results rest on — see
//! `--explain <rule>` (or DESIGN.md, "Static analysis") for the full
//! story of each.

use crate::context::FileContext;
use crate::lexer::TokKind;

/// Where a file sits in the workspace — computed from its relative path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Under the vendored stand-in tree.
    pub vendor: bool,
    /// `Some("encoding")` for `crates/encoding/...`.
    pub crate_name: Option<String>,
    /// Under a `tests/` or `benches/` directory (integration tests and
    /// benchmark harnesses), or under `examples/`.
    pub test_path: bool,
}

impl FileClass {
    /// Classifies a `/`-separated workspace-relative path.
    pub fn from_rel(rel: &str) -> Self {
        let parts: Vec<&str> = rel.split('/').collect();
        let vendor = parts.first() == Some(&"vendor");
        let crate_name = if parts.first() == Some(&"crates") {
            parts.get(1).map(|s| s.to_string())
        } else {
            None
        };
        let test_path = parts
            .iter()
            .any(|&p| p == "tests" || p == "benches" || p == "examples");
        FileClass {
            rel: rel.to_string(),
            vendor,
            crate_name,
            test_path,
        }
    }

    fn crate_is(&self, names: &[&str]) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| names.contains(&c))
    }
}

/// One rule violation, before waiver matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// One `unsafe` occurrence, for the generated audit inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
    /// Innermost enclosing function, or "" at item level.
    pub enclosing_fn: String,
    /// The `SAFETY:` justification found above the site, if any.
    pub safety: Option<String>,
}

/// Static description of one rule, for `--explain` and the docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

pub const HASH_ORDER: &str = "hash-order";
pub const WALL_CLOCK: &str = "wall-clock";
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
pub const ENTRY_WIDTH: &str = "entry-width";
pub const PANIC_PATH: &str = "panic-path";
pub const VENDOR_ISOLATION: &str = "vendor-isolation";
pub const SIMD_LANE: &str = "simd-lane";
pub const PUB_REACH: &str = "pub-reach";
pub const WAIVER_SYNTAX: &str = "waiver-syntax";
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// Every rule the linter knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: HASH_ORDER,
        summary: "no std HashMap/HashSet: RandomState iteration order varies per process",
        explain: "Bitwise determinism at any thread count (PR 2) and bit-identical \
streamed-vs-buffered DRAM statistics (PR 3) are pinned by golden-bit tests. Iterating a \
std::collections::HashMap or HashSet visits entries in RandomState order, which differs \
per process, so any statistic or trace folded out of such an iteration silently varies \
between runs. The rule flags every HashMap/HashSet mention (tests included: a \
flaky golden-bit test is as bad as a flaky result). Use BTreeMap/BTreeSet, or waive \
sites that only insert and look up and never observe order.",
    },
    RuleInfo {
        id: WALL_CLOCK,
        summary: "no Instant::now/SystemTime outside crates/bench, benches and tests",
        explain: "Simulated time is the product here: DRAM cycle counts and energy come \
from the bank-timeline model, never from the host clock. A wall-clock read in library \
code is either dead weight or — worse — a nondeterministic input to something the \
golden-bit tests pin. Wall-clock timing belongs in crates/bench, benches/, tests/ and \
examples/, which measure the *host* cost of running the models. Waive measurement-only \
sites elsewhere (e.g. an experiment reporting its own runtime).",
    },
    RuleInfo {
        id: UNSAFE_AUDIT,
        summary: "every `unsafe` needs a `// SAFETY:` justification and is inventoried",
        explain: "Every first-party crate is #![forbid(unsafe_code)] except inerf_simd, \
which cannot be: calling a #[target_feature] function is unsafe, and its AVX2 dispatch \
frame is that call. The tree holds three sites: the frame and its detection-guarded \
call in crates/simd, and one lifetime-erasure transmute in the rayon stand-in's scoped \
pool. Each unsafe block/fn/impl must carry a `// SAFETY:` comment in \
the lines directly above it. The full inventory is generated into UNSAFE_AUDIT.md \
(`inerf-lint --write-unsafe-audit`), and CI fails if the committed inventory is stale, \
so a new unsafe block cannot land unaudited.",
    },
    RuleInfo {
        id: ENTRY_WIDTH,
        summary: "entry byte-widths flow through EntryLayout/Precision, not literals",
        explain: "PR 4 threaded the table-entry byte width end-to-end: EntryLayout \
parameterizes row geometry and the workload::*_at functions parameterize sizes by \
Precision. A hardcoded `* 4`/`* 8` in byte arithmetic, or a literal entry width passed \
to EntryLayout::new/with_entry_bytes, re-freezes the width at one precision and \
silently unravels that threading (f32 tables would be modeled at fp16 widths). The \
rule covers non-test code of the encoding, accel and dram crates; byte-size \
multiplications by a literal 4 or 8 are flagged when the line or enclosing function \
deals in bytes. The EntryLayout definition site (crates/encoding/src/requests.rs) is \
the one allowed home for such literals.",
    },
    RuleInfo {
        id: PANIC_PATH,
        summary: "no unwrap()/expect() in library code of the hot-path and snapshot crates",
        explain: "The encoding, mlp, dram, accel and render crates sit on the training \
hot path, as do the trainer's model (crates/trainer/src/model.rs), its training step \
(crates/trainer/src/train.rs) and its occupancy grid (crates/trainer/src/occupancy.rs), \
and the trainer's inference render engine (crates/trainer/src/render.rs) on the \
evaluation hot path; a panic there takes down a whole training, rendering or \
co-simulation run. The trainer's checkpoint codec (crates/trainer/src/train/checkpoint.rs) \
is in scope for both reasons: every save streams from it, and a resume decodes \
untrusted bytes through it. The snapshot crate is in scope too: its contract is that corrupt \
bytes, torn writes and failed I/O surface as typed SnapshotError values, which the \
fault-injection sweep pins at every kill point and for every flipped bit. Library code \
in that scope must not call .unwrap() or .expect(): return a Result, restructure so \
the invariant is type-enforced, or waive a genuinely infallible site with a \
justification stating *why* it cannot fail. Test code is exempt — panics are how tests \
report.",
    },
    RuleInfo {
        id: VENDOR_ISOLATION,
        summary: "first-party code uses only the documented stand-in APIs",
        explain: "The vendored dependency stand-ins promise only the API subset listed \
in their README's table; the swap-back to real crates.io releases relies on nothing \
else being touched. The rule flags first-party paths into any vendored crate whose \
first segment is outside that documented surface, and any literal path that reaches \
into the vendored tree (#[path], include!). If a new API is genuinely needed, extend \
the stand-in, document it in the README table, and add it to the allowlist in the same \
change.",
    },
    RuleInfo {
        id: SIMD_LANE,
        summary: "no raw std::arch/intrinsics outside crates/simd",
        explain: "Every SIMD backend must produce bitwise-identical results, and that \
guarantee is enforced at exactly one choke point: crates/simd, whose f32x8 lane tests \
pin each backend against the portable reference and whose madd documents the \
two-rounding (non-FMA) contract. A raw std::arch/core::arch path, a `_mm*` intrinsic, \
a #[target_feature] attribute, or an is_x86_feature_detected! probe anywhere else \
creates lane code with no such pin — its results can drift between machines without \
any test noticing. Write kernels against inerf_simd::f32x8 and vectorize(); if an \
operation is missing, add it to crates/simd together with its lane tests.",
    },
    RuleInfo {
        id: PUB_REACH,
        summary: "every pub item of a library crate is named by non-test code in another file",
        explain: "rustc's dead_code lint never fires on a pub item, so public surface that \
no program calls survives every build and every review. This rule indexes the identifiers \
that non-test code names: library and binary sources under crates/*/src, examples/ and \
benches/. It does not count tests/ directories, #[cfg(test)] items, comments (so \
doc-tests and intra-doc links neither), or `pub use` re-export statements. A plain-pub \
fn, struct, enum, trait, const, static or type alias in a library crate (every crate \
but bench, whose library the record benches retire, and this linter) is a finding when \
no other file names it. A type named in the signature of a reached item of the same file \
(a fn's parameters, return type and bounds; a type's fields or variants) counts as \
reached with it. Matching is by name, not by resolved path: a name defined or used \
anywhere else in the workspace, such as `new` or `len`, counts as a reference, so the \
rule under-reports and never sees a method only its own file calls if another type \
shares its name. Fix a finding by deleting the item, narrowing it to pub(crate) or \
private (then delete what dead_code reports), or moving it under #[cfg(test)] when only \
the crate's unit tests use it. Waive only test support that another crate's tests \
need, naming that test.",
    },
    RuleInfo {
        id: WAIVER_SYNTAX,
        summary: "waiver comments must parse and carry a justification",
        explain: "A waiver is `// inerf-lint: allow(<rule>) -- <justification>` trailing \
the offending line or on its own line directly above it. The justification after `--` \
is mandatory and is recorded in the report: an allow without a reason is \
indistinguishable from a silenced regression. This finding fires on waiver-shaped \
comments that fail to parse; it cannot itself be waived.",
    },
    RuleInfo {
        id: UNUSED_WAIVER,
        summary: "waivers that match no finding must be removed",
        explain: "A waiver that no longer suppresses anything is stale: either the \
hazard was fixed (delete the waiver) or the code moved and the waiver silently stopped \
covering it (move the waiver). Stale allows are how invariants rot, so unused waivers \
are findings; this rule cannot itself be waived.",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose library code must not panic: the training/co-simulation
/// hot path, and the snapshot crate, whose errors are typed values.
const HOT_PATH_CRATES: &[&str] = &["encoding", "mlp", "dram", "accel", "render", "snapshot"];
/// Individual hot-path files in crates that are otherwise exempt: the
/// trainer's inference render engine sits on the evaluation hot path, and
/// its model, training step and occupancy grid (per-sample filter,
/// periodic refresh sweep) on the training one; its checkpoint codec
/// streams every save and decodes untrusted bytes on resume. The rest of
/// the trainer crate (setup, reporting) does not.
const HOT_PATH_FILES: &[&str] = &[
    "crates/trainer/src/model.rs",
    "crates/trainer/src/occupancy.rs",
    "crates/trainer/src/render.rs",
    "crates/trainer/src/train.rs",
    "crates/trainer/src/train/checkpoint.rs",
];
/// Crates the entry-width rule covers (where byte widths become addresses
/// and traffic).
const WIDTH_CRATES: &[&str] = &["encoding", "accel", "dram"];
/// The one file allowed to own entry-byte literals: the EntryLayout /
/// ENTRY_BYTES definition site.
const WIDTH_DEFINITION_FILE: &str = "crates/encoding/src/requests.rs";
/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit.
const SAFETY_LOOKBACK: u32 = 8;

/// Documented API surface of each vendored stand-in (first path segment
/// after the crate name) — the table in the vendored README, as code.
const VENDOR_API: &[(&str, &[&str])] = &[
    ("serde", &["Serialize"]),
    (
        "serde_json",
        &["to_string", "to_string_pretty", "Value", "Error", "Result"],
    ),
    ("rand", &["Rng", "SeedableRng", "rngs", "seq", "prelude"]),
    ("proptest", &["prelude", "collection", "proptest"]),
    ("rayon", &["ThreadPool", "ThreadPoolBuilder", "Scope"]),
];

/// Runs every rule over one file. Returns the findings plus the file's
/// `unsafe` inventory (for UNSAFE_AUDIT.md).
pub fn check_file(class: &FileClass, ctx: &FileContext) -> (Vec<RawFinding>, Vec<UnsafeSite>) {
    let mut out = Vec::new();
    let mut sites = Vec::new();
    hash_order(class, ctx, &mut out);
    wall_clock(class, ctx, &mut out);
    unsafe_audit(class, ctx, &mut out, &mut sites);
    entry_width(class, ctx, &mut out);
    panic_path(class, ctx, &mut out);
    vendor_isolation(class, ctx, &mut out);
    simd_lane(class, ctx, &mut out);
    // One finding per (rule, line): `HashMap::<K,V>::new()` should read as
    // one hazard, not two.
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    (out, sites)
}

/// Rule 1a: hash-order.
fn hash_order(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    if class.vendor {
        return;
    }
    for t in &ctx.code {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(RawFinding {
                rule: HASH_ORDER,
                line: t.line,
                message: format!(
                    "`{}` has per-process iteration order (RandomState); \
use BTreeMap/BTreeSet, or waive if order is never observed",
                    t.text
                ),
            });
        }
    }
}

/// Rule 1b: wall-clock.
fn wall_clock(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    if class.vendor || class.test_path || class.crate_is(&["bench"]) {
        return;
    }
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" => {
                ctx.code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && ctx.code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && ctx.code.get(i + 3).is_some_and(|a| a.is_ident("now"))
            }
            "SystemTime" => true,
            _ => false,
        };
        if flagged {
            out.push(RawFinding {
                rule: WALL_CLOCK,
                line: t.line,
                message: format!(
                    "`{}` reads the host clock; simulated stats must not depend on it \
(wall-clock timing belongs in crates/bench, benches/ or tests/)",
                    t.text
                ),
            });
        }
    }
}

/// Rule 2: unsafe-audit. Scans *everything*, vendored code included.
fn unsafe_audit(
    _class: &FileClass,
    ctx: &FileContext,
    out: &mut Vec<RawFinding>,
    sites: &mut Vec<UnsafeSite>,
) {
    for (i, t) in ctx.code.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let safety = safety_comment_above(ctx, t.line);
        if safety.is_none() {
            out.push(RawFinding {
                rule: UNSAFE_AUDIT,
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` justification in the lines above"
                    .to_string(),
            });
        }
        sites.push(UnsafeSite {
            line: t.line,
            enclosing_fn: ctx.enclosing_fn(i).to_string(),
            safety,
        });
    }
}

/// The `SAFETY:` comment block ending within [`SAFETY_LOOKBACK`] lines
/// above `line`, joined into one string.
fn safety_comment_above(ctx: &FileContext, line: u32) -> Option<String> {
    let lo = line.saturating_sub(SAFETY_LOOKBACK);
    let mut start = None;
    for (ci, c) in ctx.comments.iter().enumerate() {
        if c.line >= lo && c.line <= line && c.text.contains("SAFETY:") {
            start = Some(ci);
            break;
        }
    }
    let start = start?;
    // Collect the contiguous comment block from the SAFETY line down.
    let mut text = Vec::new();
    let mut prev_line = None;
    for c in &ctx.comments[start..] {
        if c.line > line {
            break;
        }
        if let Some(p) = prev_line {
            if c.line > p + 1 {
                break;
            }
        }
        prev_line = Some(c.line);
        text.push(
            c.text
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim()
                .to_string(),
        );
    }
    let joined = text.join(" ");
    let after = joined.find("SAFETY:").map(|i| i + "SAFETY:".len())?;
    Some(joined[after..].trim().to_string())
}

/// Rule 3: entry-width.
fn entry_width(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    if class.vendor
        || class.test_path
        || !class.crate_is(WIDTH_CRATES)
        || class.rel == WIDTH_DEFINITION_FILE
    {
        return;
    }
    let is_width_lit = |i: usize| {
        ctx.code
            .get(i)
            .and_then(|t| t.int_value())
            .is_some_and(|v| v == 4 || v == 8)
    };
    let byte_context = |i: usize, line: u32| {
        ctx.enclosing_fn(i).to_ascii_lowercase().contains("byte")
            || ctx.line_text(line).to_ascii_lowercase().contains("byte")
    };
    for (i, t) in ctx.code.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        // `* 4`, `* 8`, `4 *`, `8 *` in byte-flavoured context.
        if t.is_punct('*') {
            for j in [i + 1, i.wrapping_sub(1)] {
                if j < ctx.code.len() && is_width_lit(j) && byte_context(j, ctx.code[j].line) {
                    out.push(RawFinding {
                        rule: ENTRY_WIDTH,
                        line: ctx.code[j].line,
                        message: format!(
                            "byte-size arithmetic with a literal `{}`; widths must flow \
through EntryLayout / Precision::bytes_per_param",
                            ctx.code[j].text
                        ),
                    });
                }
            }
        }
        // `EntryLayout::new(<literal>)` / `.with_entry_bytes(<literal>)`.
        let hardcoded = (t.is_ident("EntryLayout")
            && ctx.code.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && ctx.code.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && ctx.code.get(i + 3).is_some_and(|a| a.is_ident("new"))
            && ctx.code.get(i + 4).is_some_and(|a| a.is_punct('('))
            && ctx
                .code
                .get(i + 5)
                .is_some_and(|a| matches!(a.kind, TokKind::Num(_))))
            || (t.is_ident("with_entry_bytes")
                && ctx.code.get(i + 1).is_some_and(|a| a.is_punct('('))
                && ctx
                    .code
                    .get(i + 2)
                    .is_some_and(|a| matches!(a.kind, TokKind::Num(_))));
        if hardcoded {
            out.push(RawFinding {
                rule: ENTRY_WIDTH,
                line: t.line,
                message: "hardcoded entry width; derive it from the model's Precision \
(e.g. grid.entry_bytes(precision))"
                    .to_string(),
            });
        }
    }
}

/// Rule 4: panic-path.
fn panic_path(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    let hot = class.crate_is(HOT_PATH_CRATES) || HOT_PATH_FILES.contains(&class.rel.as_str());
    if class.vendor || class.test_path || !hot {
        return;
    }
    for (i, t) in ctx.code.iter().enumerate() {
        if !(t.is_ident("unwrap") || t.is_ident("expect")) || ctx.is_test_line(t.line) {
            continue;
        }
        let is_method_call = i > 0
            && ctx.code[i - 1].is_punct('.')
            && ctx.code.get(i + 1).is_some_and(|a| a.is_punct('('));
        if is_method_call {
            out.push(RawFinding {
                rule: PANIC_PATH,
                line: t.line,
                message: format!(
                    "`.{}()` can panic in library code that must not; return a Result or \
waive with the reason it is infallible",
                    t.text
                ),
            });
        }
    }
}

/// Rule 5: vendor-isolation.
fn vendor_isolation(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    if class.vendor {
        return;
    }
    let needle = format!("{}{}", "vendor", '/');
    for t in &ctx.code {
        if t.kind == TokKind::Str && t.text.contains(&needle) {
            out.push(RawFinding {
                rule: VENDOR_ISOLATION,
                line: t.line,
                message: "literal path into the vendored tree; depend on the crate's \
documented API instead"
                    .to_string(),
            });
        }
    }
    for (i, t) in ctx.code.iter().enumerate() {
        let Some((_, allowed)) = VENDOR_API
            .iter()
            .find(|(name, _)| t.is_ident(name))
            .copied()
        else {
            continue;
        };
        if !(ctx.code.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && ctx.code.get(i + 2).is_some_and(|a| a.is_punct(':')))
        {
            continue;
        }
        for (seg_line, seg) in first_path_segments(ctx, i + 3) {
            if !allowed.contains(&seg.as_str()) {
                out.push(RawFinding {
                    rule: VENDOR_ISOLATION,
                    line: seg_line,
                    message: format!(
                        "`{}::{}` is not part of the documented stand-in API \
(see the vendored README table); extend the stand-in and its docs instead",
                        t.text, seg
                    ),
                });
            }
        }
    }
}

/// Rule 6: simd-lane. Applies everywhere outside the vendored tree and
/// crates/simd itself, tests included — unpinned lane code in a test can
/// green-light results that diverge across machines.
fn simd_lane(class: &FileClass, ctx: &FileContext, out: &mut Vec<RawFinding>) {
    if class.vendor || class.crate_is(&["simd"]) {
        return;
    }
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let flagged = if t.text == "std" || t.text == "core" {
            ctx.code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && ctx.code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && ctx.code.get(i + 3).is_some_and(|a| a.is_ident("arch"))
        } else {
            t.text.starts_with("_mm")
                || t.text == "target_feature"
                || t.text == "is_x86_feature_detected"
        };
        if flagged {
            out.push(RawFinding {
                rule: SIMD_LANE,
                line: t.line,
                message: format!(
                    "`{}` is raw lane/feature code outside crates/simd; go through \
inerf_simd::f32x8 + vectorize() so the backend stays bitwise-pinned",
                    t.text
                ),
            });
        }
    }
}

/// First path segments following `crate::` at code index `i`: either the
/// single ident there, or — for a `{...}` group — every ident that opens
/// a group entry (`rand::{rngs::SmallRng, Rng}` yields `rngs` and `Rng`).
fn first_path_segments(ctx: &FileContext, i: usize) -> Vec<(u32, String)> {
    let mut segs = Vec::new();
    match ctx.code.get(i) {
        Some(t) if t.kind == TokKind::Ident => segs.push((t.line, t.text.clone())),
        Some(t) if t.is_punct('{') => {
            let mut depth = 1usize;
            let mut expect_segment = true;
            let mut j = i + 1;
            while let Some(t) = ctx.code.get(j) {
                match &t.kind {
                    TokKind::Punct('{') => {
                        depth += 1;
                        expect_segment = false;
                    }
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Punct(',') if depth == 1 => expect_segment = true,
                    TokKind::Ident if depth == 1 && expect_segment => {
                        if t.text != "self" {
                            segs.push((t.line, t.text.clone()));
                        }
                        expect_segment = false;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {}
    }
    segs
}
