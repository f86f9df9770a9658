//! `nc-lint`: a workspace static-analysis pass enforcing the
//! serving/determinism/locking contracts.
//!
//! The repo's load-bearing guarantees — panic-free branch-free serving,
//! bit-identical determinism of training and retraining, and the
//! one-write-lock epoch-swap protocol — are encoded here as
//! machine-checked rules over the workspace's own source. The pass is
//! deterministic, std-only (no `syn`; a hand-rolled lexer + token
//! matcher, matching the offline-shim constraint), and runs as a CI
//! gate: `cargo run -p nc-lint` exits non-zero with file:line
//! diagnostics on any violation.
//!
//! See [`rules`] for the contract rules, [`pragma`] for the
//! `nc-lint: allow(rule, reason = "...")` / `nc-lint: kernel` pragma
//! system, and [`config::LintConfig::workspace`] for the checked-in
//! domain configuration.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod structure;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::LintConfig;
use pragma::Pragmas;
use report::{Report, Violation};
use rules::FileCtx;
use structure::Structure;

/// Lint one file's source. Returns the surviving violations (contract
/// findings not covered by an allow, plus pragma meta-violations) and
/// the file's pragma counts via the returned [`FileOutcome`].
pub fn lint_source(rel: &str, src: &str, cfg: &LintConfig) -> FileOutcome {
    let lexed = lexer::lex(src);
    let st = Structure::build(&lexed.tokens);
    let (mut pragmas, mut viols) = pragma::collect(&lexed, &st, &rules::RULES, rel);
    let ctx = FileCtx { rel, lexed: &lexed, st: &st, pragmas: &pragmas, cfg };
    let raw = rules::run_all(&ctx);
    let allows = pragmas.allows.len();
    let kernels = pragmas.kernel_fns.len();
    viols.extend(apply_allows(raw, &mut pragmas));
    // Unused allows are violations themselves: stale pragmas rot.
    for a in &pragmas.allows {
        for (ri, used) in a.used.iter().enumerate() {
            if !used {
                viols.push(Violation {
                    rule: "unused-allow",
                    file: rel.to_string(),
                    line: a.line,
                    msg: format!(
                        "allow(`{}`) suppresses nothing — remove the stale pragma",
                        a.rules[ri]
                    ),
                });
            }
        }
    }
    FileOutcome { violations: viols, allows, kernels }
}

/// Per-file lint result.
#[derive(Debug)]
pub struct FileOutcome {
    /// Surviving violations.
    pub violations: Vec<Violation>,
    /// Number of allow pragmas in the file (used or not).
    pub allows: usize,
    /// Number of kernel pragmas in the file.
    pub kernels: usize,
}

/// Filter raw findings through the allow pragmas, marking each allow's
/// per-rule used flags.
fn apply_allows(raw: Vec<Violation>, pragmas: &mut Pragmas) -> Vec<Violation> {
    raw.into_iter()
        .filter(|v| {
            let mut suppressed = false;
            for a in pragmas.allows.iter_mut() {
                if v.line < a.scope.0 || v.line > a.scope.1 {
                    continue;
                }
                if let Some(ri) = a.rules.iter().position(|r| r == v.rule) {
                    a.used[ri] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect()
}

/// Lint the whole workspace rooted at `root`: every `.rs` file under
/// `src/` and `crates/*/src/`, in sorted order for deterministic
/// output. Vendored shims (`shims/`) are external-API reimplementations
/// and are not subject to the workspace contracts.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> =
            fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for d in dirs {
            let s = d.join("src");
            if s.is_dir() {
                collect_rs(&s, &mut files)?;
            }
        }
    }
    files.sort();
    let mut report = Report::default();
    for f in &files {
        let srctext = fs::read_to_string(f)?;
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        let out = lint_source(&rel, &srctext, cfg);
        report.violations.extend(out.violations);
        report.allows += out.allows;
        report.kernels += out.kernels;
        report.files += 1;
    }
    report.sort();
    Ok(report)
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::Domain;

    fn serving_cfg() -> LintConfig {
        let mut cfg = LintConfig::workspace();
        cfg.serving = Domain::new(&["fix.rs"]);
        cfg.taxonomy = Domain::new(&["fix.rs"]);
        cfg
    }

    #[test]
    fn allow_suppresses_and_is_marked_used() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    // nc-lint: allow(no-panic-in-serving, reason = "test scaffold")
    x.unwrap()
}
"#;
        let out = lint_source("fix.rs", src, &serving_cfg());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.allows, 1);
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = r#"
// nc-lint: allow(no-panic-in-serving, reason = "nothing here panics")
fn fine() {}
"#;
        let out = lint_source("fix.rs", src, &serving_cfg());
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, "unused-allow");
    }

    #[test]
    fn multi_rule_allow_tracks_each_rule() {
        // assert_eq! in a pub unit fn trips both rule 1 and rule 5; one
        // combined allow covers both and neither is unused.
        let src = r#"
pub fn check(a: usize, b: usize) {
    // nc-lint: allow(no-panic-in-serving, error-taxonomy, reason = "documented length guard")
    assert_eq!(a, b);
}
"#;
        let out = lint_source("fix.rs", src, &serving_cfg());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
