//! Per-domain lint configuration.
//!
//! Each contract rule applies to a *domain*: a set of workspace-relative
//! path prefixes. [`LintConfig::workspace`] is the checked-in
//! configuration for this repository; fixture tests build their own
//! configs pointing at synthetic paths.

/// A set of files described by path prefixes. Paths are
/// workspace-relative with `/` separators; a prefix of
/// `crates/core/src/` covers the whole directory, a full file path
/// covers exactly that file.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    /// Prefixes a file must match one of.
    pub include: Vec<String>,
}

impl Domain {
    /// Build a domain from a prefix list.
    pub fn new(include: &[&str]) -> Domain {
        Domain { include: include.iter().map(|s| s.to_string()).collect() }
    }

    /// True when `rel` (workspace-relative, `/`-separated) is in the
    /// domain.
    pub fn contains(&self, rel: &str) -> bool {
        self.include.iter().any(|p| rel.starts_with(p.as_str()))
    }
}

/// The full lint configuration: rule domains plus the lock protocol.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files covered by `no-panic-in-serving` (the hot serving domain).
    pub serving: Domain,
    /// Files covered by `determinism-purity`.
    pub determinism: Domain,
    /// Files covered by `error-taxonomy`.
    pub taxonomy: Domain,
    /// Lock receiver names participating in `lock-discipline`, in
    /// declared acquisition order (acquiring an earlier lock while a
    /// later one is held is a violation). Only these names are
    /// analysed, so unrelated `.write()` methods (e.g. `fs::write`,
    /// `io::Write`) never false-positive.
    pub lock_order: Vec<String>,
    /// Function names that must never be called while a `.write()`
    /// guard on any configured lock is in scope (the trainer/retrain
    /// entry points — training happens *before* the publish lock —
    /// including `retrain`, the lifecycle worker's retrain seam, which
    /// the worker calls as a plain `retrain(..)`).
    pub forbidden_under_write: Vec<String>,
}

impl LintConfig {
    /// The checked-in configuration for this workspace. Domains mirror
    /// the contracts established by earlier PRs:
    ///
    /// * serving: the branch-free epoch-swap serving path
    ///   (`dtree::{flat, serve, store}`) must be panic-free;
    ///   `dtree::{wal, storage}` ride along because appends run inline
    ///   under the admission write lock — a panicking durability layer
    ///   would take the serving path down with it.
    /// * determinism: all of `core` (training, the lifecycle worker,
    ///   persistence), `rl`, `nn` and `dtree` must not read wall clocks
    ///   or ambient randomness; the lifecycle worker counts polls, not
    ///   time, and callers time the serving path themselves.
    /// * taxonomy: `dtree` and `core` public APIs report failures as
    ///   typed errors, not panics.
    /// * locks: `state` (the `ClassifierHandle` epoch-swap lock) is the
    ///   only declared lock; retrain entry points are forbidden under
    ///   its write guard.
    pub fn workspace() -> LintConfig {
        LintConfig {
            serving: Domain::new(&[
                "crates/dtree/src/flat.rs",
                "crates/dtree/src/serve.rs",
                "crates/dtree/src/store.rs",
                "crates/dtree/src/wal.rs",
                "crates/dtree/src/storage.rs",
            ]),
            determinism: Domain::new(&[
                "crates/core/src/",
                "crates/rl/src/",
                "crates/nn/src/",
                "crates/dtree/src/",
            ]),
            taxonomy: Domain::new(&["crates/dtree/src/", "crates/core/src/"]),
            lock_order: vec!["state".to_string()],
            forbidden_under_write: vec![
                "train".to_string(),
                "train_to_tree".to_string(),
                "retrain_snapshot".to_string(),
                "retrain".to_string(),
                "poll".to_string(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_prefix_matching() {
        let d = Domain::new(&["crates/core/src/", "crates/nn/src/matrix.rs"]);
        assert!(d.contains("crates/core/src/env.rs"));
        assert!(d.contains("crates/core/src/lifecycle.rs"));
        assert!(d.contains("crates/nn/src/matrix.rs"), "a full path covers that file");
        assert!(!d.contains("crates/nn/src/lib.rs"));
        assert!(!d.contains("crates/rl/src/ppo.rs"));
    }

    #[test]
    fn workspace_config_shape() {
        let c = LintConfig::workspace();
        assert!(c.serving.contains("crates/dtree/src/flat.rs"));
        assert!(!c.serving.contains("crates/dtree/src/tree.rs"));
        assert!(c.serving.contains("crates/dtree/src/wal.rs"));
        assert!(c.serving.contains("crates/dtree/src/storage.rs"), "WAL appends call it");
        assert!(c.determinism.contains("crates/rl/src/ppo.rs"));
        assert!(c.determinism.contains("crates/core/src/lifecycle.rs"), "no file is exempt");
        assert!(c.determinism.contains("crates/dtree/src/serve.rs"), "serving reads no clock");
        assert_eq!(c.lock_order, ["state"]);
        let seam = "retrain".to_string();
        assert!(c.forbidden_under_write.contains(&seam), "the worker's retrain seam");
    }
}
