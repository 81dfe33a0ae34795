//! `inerf-lint` — CLI driver for the workspace invariant linter.
//!
//! ```text
//! inerf-lint [--root <dir>] [--format=text|json] [--verbose]
//! inerf-lint --explain <rule>
//! inerf-lint --list-rules
//! inerf-lint --write-unsafe-audit [--root <dir>]
//! inerf-lint --check-unsafe-audit [--root <dir>]
//! inerf-lint --census <dir>...
//! ```
//!
//! Exit codes: 0 = clean, 1 = unwaived findings (or stale audit),
//! 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use inerf_lint::{
    census, lint_and_audit, render_json, render_text, rule_info, RULES, UNSAFE_AUDIT_FILE,
};

struct Args {
    root: PathBuf,
    format: Format,
    verbose: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

#[derive(PartialEq)]
enum Mode {
    Lint,
    Explain(String),
    ListRules,
    WriteAudit,
    CheckAudit,
    Census(Vec<PathBuf>),
}

fn usage() -> String {
    "usage: inerf-lint [--root <dir>] [--format=text|json] [--verbose]\n\
     \x20      inerf-lint --explain <rule> | --list-rules\n\
     \x20      inerf-lint --write-unsafe-audit | --check-unsafe-audit [--root <dir>]\n\
     \x20      inerf-lint --census <dir>...\n"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        format: Format::Text,
        verbose: false,
        mode: Mode::Lint,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--format=text" => args.format = Format::Text,
            "--format=json" => args.format = Format::Json,
            "--format" => {
                let v = it.next().ok_or("--format needs text|json")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--verbose" | "-v" => args.verbose = true,
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a rule id")?;
                args.mode = Mode::Explain(rule);
            }
            "--list-rules" => args.mode = Mode::ListRules,
            "--write-unsafe-audit" => args.mode = Mode::WriteAudit,
            "--check-unsafe-audit" => args.mode = Mode::CheckAudit,
            "--census" => {
                let dirs: Vec<PathBuf> = it.by_ref().map(PathBuf::from).collect();
                if dirs.is_empty() {
                    return Err("--census needs at least one directory".to_string());
                }
                args.mode = Mode::Census(dirs);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Temp-then-rename write, so a crash mid-write cannot leave a torn
/// `UNSAFE_AUDIT.md` for `--check-unsafe-audit` to compare against.
/// Local copy of `inerf_snapshot::atomic_write_file` — the lint binary
/// stays free of workspace dependencies by design (see Cargo.toml).
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.flush()?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Prints to stdout, ignoring write failures: Rust ignores SIGPIPE, so a
/// closed pipe (`inerf-lint --explain foo | head`) would otherwise turn
/// into a `println!` panic. The exit code stays meaningful either way.
fn emit(text: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("inerf-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    match &args.mode {
        Mode::ListRules => {
            for r in RULES {
                emit(&format!("{:16} {}\n", r.id, r.summary));
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Explain(rule) => match rule_info(rule) {
            Some(info) => {
                emit(&format!("{} — {}\n\n", info.id, info.summary));
                emit(&format!("{}\n", wrap(info.explain, 78)));
                emit(&format!(
                    "\nWaive a specific site with:\n  \
// inerf-lint: allow({}) -- <why this site is sound>\n",
                    info.id
                ));
                Ok(ExitCode::SUCCESS)
            }
            None => Err(format!(
                "unknown rule `{rule}`; try --list-rules for the catalogue"
            )),
        },
        Mode::Census(dirs) => {
            let (lines, code) = census(dirs)?;
            emit(&format!("{lines} {code}\n"));
            Ok(ExitCode::SUCCESS)
        }
        Mode::Lint => {
            let (report, _) = lint_and_audit(&args.root)?;
            match args.format {
                Format::Text => emit(&render_text(&report, args.verbose)),
                Format::Json => emit(&render_json(&report)),
            }
            if report.unwaived_count() == 0 {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        Mode::WriteAudit => {
            let (_, audit) = lint_and_audit(&args.root)?;
            let path = args.root.join(UNSAFE_AUDIT_FILE);
            atomic_write(&path, audit.as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            emit(&format!("wrote {}\n", path.display()));
            Ok(ExitCode::SUCCESS)
        }
        Mode::CheckAudit => {
            let (_, audit) = lint_and_audit(&args.root)?;
            let path = args.root.join(UNSAFE_AUDIT_FILE);
            let committed =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if committed == audit {
                emit(&format!("{UNSAFE_AUDIT_FILE} is up to date\n"));
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!(
                    "{UNSAFE_AUDIT_FILE} is stale; regenerate with \
`cargo run -p inerf_lint -- --write-unsafe-audit`"
                );
                Ok(ExitCode::from(1))
            }
        }
    }
}

/// Greedy word wrap for `--explain` prose.
fn wrap(text: &str, width: usize) -> String {
    let mut out = String::new();
    let mut col = 0usize;
    for word in text.split_whitespace() {
        if col > 0 && col + 1 + word.len() > width {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out
}
