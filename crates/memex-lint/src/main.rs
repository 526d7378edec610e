//! CLI for memex-lint.
//!
//! ```text
//! cargo run -p memex-lint                     # human-readable report
//! cargo run -p memex-lint -- --format github  # ::error annotations (CI)
//! ```
//!
//! Exit codes: 0 no findings, 1 any finding, 2 usage / configuration /
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use memex_lint::config::Config;
use memex_lint::{scan, Scan};

/// Escape a value for a GitHub workflow-command *message* position.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\n', "%0A")
        .replace('\r', "%0D")
}

/// Escape a value for a workflow-command *property* position, where `,`
/// and `:` are also structural.
fn gh_escape_prop(s: &str) -> String {
    gh_escape(s).replace(',', "%2C").replace(':', "%3A")
}

/// Render the findings as GitHub Actions workflow commands: one
/// `::error file=…,line=…` each (annotated inline on the PR).
fn render_github(scan: &Scan) -> String {
    let mut out = String::new();
    for f in &scan.findings {
        out.push_str(&format!(
            "::error file={},line={},title=memex-lint[{}]::{} (in {})\n",
            gh_escape_prop(&f.file),
            f.line,
            gh_escape_prop(f.rule.name()),
            gh_escape(&f.message),
            gh_escape(&f.function),
        ));
    }
    out
}

/// Walk up from the current directory to the first `LINT.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("LINT.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("memex-lint: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut github = false;
    let mut want_format = false;
    for arg in std::env::args().skip(1) {
        if want_format {
            want_format = false;
            match arg.as_str() {
                "github" => github = true,
                "text" => github = false,
                other => return fail(&format!("unknown format {other:?} (github|text)")),
            }
            continue;
        }
        match arg.as_str() {
            "--format" => want_format = true,
            "--help" | "-h" => {
                println!(
                    "memex-lint: lexical static analysis of the workspace's src/ trees.\n\
                     Three rule families: panic-freedom, lock order, metric catalog.\n\
                     Any finding fails the run (exit 1); there is no baseline and no\n\
                     allow list.\n\n\
                     usage: memex-lint [--format github|text]\n\n\
                     Configuration lives in LINT.toml at the workspace root; the rule\n\
                     reference, and what this linter does not check, in docs/LINT.md."
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    if want_format {
        return fail("--format requires a value (github|text)");
    }

    let Some(root) = find_root() else {
        return fail("no LINT.toml found walking up from the current directory");
    };
    let lint_toml = root.join("LINT.toml");
    let config_text = match std::fs::read_to_string(&lint_toml) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {}: {e}", lint_toml.display())),
    };
    let cfg = match Config::parse(&config_text) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let scanned = match scan(&root, &cfg) {
        Ok(s) => s,
        Err(e) => return fail(&format!("scanning workspace: {e}")),
    };

    if github {
        print!("{}", render_github(&scanned));
    } else {
        for f in &scanned.findings {
            println!("{f}");
        }
    }
    println!(
        "memex-lint: {} files scanned, {} findings",
        scanned.files_scanned,
        scanned.findings.len(),
    );
    if scanned.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
