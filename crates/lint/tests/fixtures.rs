//! Fixture-based tests: one positive (`bad.rs`) and one negative
//! (`ok.rs`) fixture per rule under `tests/fixtures/<rule>/`. The
//! fixture config maps each rule's domain to its fixture directory, so
//! every rule fires only on its own fixtures.

use std::fs;
use std::path::Path;

use nc_lint::config::{Domain, LintConfig};
use nc_lint::report::Violation;

fn fixture_cfg() -> LintConfig {
    let mut cfg = LintConfig::workspace();
    cfg.serving = Domain::new(&["no_panic_in_serving/"]);
    cfg.determinism = Domain::new(&["determinism_purity/"]);
    cfg.taxonomy = Domain::new(&["error_taxonomy/"]);
    cfg
}

fn lint_fixture(rel: &str) -> Vec<Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    nc_lint::lint_source(rel, &src, &fixture_cfg()).violations
}

fn assert_all_rule(viols: &[Violation], rule: &str, expected: usize) {
    assert_eq!(viols.len(), expected, "{rule}: {viols:#?}");
    for v in viols {
        assert_eq!(v.rule, rule, "{v}");
        assert!(v.line > 0, "diagnostics carry a line: {v}");
    }
}

#[test]
fn no_panic_in_serving_fixtures() {
    let bad = lint_fixture("no_panic_in_serving/bad.rs");
    assert_all_rule(&bad, "no-panic-in-serving", 4);
    // unwrap, panic!, indexing, expect — each on its own line.
    assert!(bad.iter().any(|v| v.msg.contains(".unwrap()")));
    assert!(bad.iter().any(|v| v.msg.contains("panic!")));
    assert!(bad.iter().any(|v| v.msg.contains("slice indexing")));
    assert!(bad.iter().any(|v| v.msg.contains(".expect()")));
    assert_all_rule(&lint_fixture("no_panic_in_serving/ok.rs"), "", 0);
}

#[test]
fn no_alloc_in_kernels_fixtures() {
    let bad = lint_fixture("no_alloc_in_kernels/bad.rs");
    assert_all_rule(&bad, "no-alloc-in-kernels", 3);
    assert!(bad.iter().any(|v| v.msg.contains("`.to_vec()`")));
    assert!(bad.iter().any(|v| v.msg.contains("`Vec::`")));
    assert!(bad.iter().any(|v| v.msg.contains("`format!`")));
    assert_all_rule(&lint_fixture("no_alloc_in_kernels/ok.rs"), "", 0);
}

#[test]
fn determinism_purity_fixtures() {
    let bad = lint_fixture("determinism_purity/bad.rs");
    assert_all_rule(&bad, "determinism-purity", 3);
    assert_all_rule(&lint_fixture("determinism_purity/ok.rs"), "", 0);
}

#[test]
fn lock_discipline_fixtures() {
    let bad = lint_fixture("lock_discipline/bad.rs");
    assert_all_rule(&bad, "lock-discipline", 3);
    assert!(bad.iter().any(|v| v.msg.contains("train_to_tree")));
    assert!(bad.iter().any(|v| v.msg.contains("`retrain(..)`")), "the retrain seam");
    assert!(bad.iter().any(|v| v.msg.contains("not reentrant")));
    assert_all_rule(&lint_fixture("lock_discipline/ok.rs"), "", 0);
}

#[test]
fn error_taxonomy_fixtures() {
    let bad = lint_fixture("error_taxonomy/bad.rs");
    assert_all_rule(&bad, "error-taxonomy", 1);
    assert!(bad[0].msg.contains("configure"));
    assert_all_rule(&lint_fixture("error_taxonomy/ok.rs"), "", 0);
}
