//! Self-check: the real workspace lints clean, the pragma counts are
//! pinned (so any new allow or kernel shows up in review as a test
//! diff), and seeding a violation into real source is caught with a
//! file:line diagnostic.

use std::fs;
use std::path::PathBuf;

use nc_lint::config::LintConfig;

/// Pinned count of allow pragmas in the workspace. If you add one,
/// bump this — the diff is the review hook.
const PINNED_ALLOWS: usize = 14;
/// Pinned count of kernel-marked functions.
const PINNED_KERNELS: usize = 30;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_lints_clean() {
    let report = nc_lint::lint_workspace(&workspace_root(), &LintConfig::workspace()).unwrap();
    assert!(report.files > 50, "walker should see the whole workspace, saw {}", report.files);
    assert!(report.violations.is_empty(), "workspace must lint clean:\n{}", report.render_text());
    assert_eq!(
        report.allows, PINNED_ALLOWS,
        "allow pragma count changed — review the new/removed pragmas and re-pin"
    );
    assert_eq!(
        report.kernels, PINNED_KERNELS,
        "kernel count changed — review the new/removed kernel marks and re-pin"
    );
}

#[test]
fn seeded_violation_in_real_source_is_caught() {
    // Append a violating fn to the real serving module and assert the
    // rule fires with the right file and a plausible line.
    let path = workspace_root().join("crates/dtree/src/flat.rs");
    let src = fs::read_to_string(&path).unwrap();
    let lines = src.lines().count() as u32;
    let seeded = format!(
        "{src}\nimpl FlatTree {{\n    pub fn bad(&self) -> u32 {{\n        \
         *self.children.first().unwrap()\n    }}\n}}\n"
    );
    let out = nc_lint::lint_source("crates/dtree/src/flat.rs", &seeded, &LintConfig::workspace());
    let hit = out
        .violations
        .iter()
        .find(|v| v.rule == "no-panic-in-serving")
        .expect("seeded unwrap must be caught");
    assert_eq!(hit.file, "crates/dtree/src/flat.rs");
    assert!(hit.line > lines, "diagnostic points into the seeded code: {hit}");
}

#[test]
fn seeded_determinism_violation_is_caught() {
    // The lifecycle worker is inside the domain like the rest of core.
    for rel in ["crates/core/src/vecenv.rs", "crates/core/src/lifecycle.rs"] {
        let src = fs::read_to_string(workspace_root().join(rel)).unwrap();
        let seeded =
            format!("{src}\nfn sneak_clock() -> std::time::Instant {{ Instant::now() }}\n");
        let out = nc_lint::lint_source(rel, &seeded, &LintConfig::workspace());
        assert!(
            out.violations.iter().any(|v| v.rule == "determinism-purity"),
            "{rel}: {:#?}",
            out.violations
        );
    }
}
