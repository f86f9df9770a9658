//! Metric registry, correctness tally, and the run's output.
//!
//! The names and units here are the contract with `BENCHMARK.json`:
//! an untraced run prints every end-to-end metric, a traced run every
//! per-layer metric, and a self-test checks that both lists match the
//! file.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("serve_mpps", "Mpkt/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("update_per_s", "1/s"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("recover_ms", "ms"),
    ("train_steps_per_s", "1/s"),
    ("tree_time", "accesses"),
    ("tree_bytes_per_rule", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Timings are medians over the
/// spans of that name unless the name says otherwise; a layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("classbench.generate_rules.ms", "ms"),
    ("classbench.generate_trace.ms", "ms"),
    ("core.trainer.train.ms", "ms"),
    ("core.trainer.step.ms", "ms"),
    ("core.trainer.step.calls", "count"),
    ("core.vecenv.collect.us_per_step", "us"),
    ("core.env.episodes", "count"),
    ("core.env.steps", "count"),
    ("nn.policy_value.infer.us_per_row", "us"),
    ("rl.ppo.update.ms", "ms"),
    ("rl.ppo.update.epochs", "count"),
    ("dtree.flat.compile.ms", "ms"),
    ("dtree.flat.classify_batch.ns_per_pkt", "ns"),
    ("dtree.flat.nodes", "count"),
    ("dtree.flat.resident_bytes", "bytes"),
    ("dtree.serve.snapshot.classify_batch.ns_per_pkt", "ns"),
    ("dtree.serve.snapshot.overlay_len.mean", "count"),
    ("dtree.serve.snapshot.overlay_len.max", "count"),
    ("dtree.serve.handle.snapshot.us.p50", "us"),
    ("dtree.serve.handle.snapshot.us.p99", "us"),
    ("dtree.serve.handle.snapshot.refetches", "count"),
    ("dtree.serve.insert.us.p50", "us"),
    ("dtree.serve.insert.us.p99", "us"),
    ("dtree.serve.insert.calls", "count"),
    ("dtree.serve.delete.us.p50", "us"),
    ("dtree.serve.delete.us.p99", "us"),
    ("dtree.serve.delete.calls", "count"),
    ("dtree.serve.rebuild.us.p50", "us"),
    ("dtree.serve.rebuild.us.p99", "us"),
    ("dtree.serve.rebuild.calls", "count"),
    ("dtree.serve.rejected", "count"),
    ("dtree.serve.attempts", "count"),
    ("dtree.wal.records", "count"),
    ("dtree.wal.bytes", "bytes"),
    ("core.persist.update_per_s", "1/s"),
    ("core.persist.update.us.p99", "us"),
    ("core.persist.checkpoint.ms", "ms"),
    ("core.persist.checkpoint.calls", "count"),
    ("core.persist.read_checkpoint.ms", "ms"),
    ("dtree.wal.read_wal.ms", "ms"),
    ("core.persist.recover.ms", "ms"),
    ("core.persist.recover.replayed", "count"),
    ("core.persist.recover.spot_checked", "count"),
    ("self_ms.classbench", "ms"),
    ("self_ms.core.trainer", "ms"),
    ("self_ms.core.vecenv", "ms"),
    ("self_ms.nn", "ms"),
    ("self_ms.rl", "ms"),
    ("self_ms.dtree.flat", "ms"),
    ("self_ms.dtree.serve", "ms"),
    ("self_ms.dtree.wal", "ms"),
    ("self_ms.core.persist", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Layers whose self time is reported, matched as span-name prefixes
/// (longest first, so `core.trainer` never claims `core.vecenv`).
pub const LAYERS: &[&str] = &[
    "core.persist",
    "core.trainer",
    "core.vecenv",
    "dtree.serve",
    "dtree.flat",
    "dtree.wal",
    "classbench",
    "bench",
    "nn",
    "rl",
];

/// The layer a span name belongs to.
pub fn layer_of(span: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .copied()
        .find(|l| span.strip_prefix(l).is_some_and(|rest| rest.is_empty() || rest.starts_with('.')))
}

/// Tally of verified outputs: every check outside the timed windows
/// adds to `attempted`, every mismatch to `failed`.
#[derive(Debug, Default)]
pub struct Check {
    /// Outputs verified.
    pub attempted: u64,
    /// Outputs that disagreed with their oracle.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Check {
    /// Record `n` verified outputs of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// Record one pass/fail output.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok), what);
    }

    /// True when nothing failed: the run may exit 0.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Set `name`, which must be a registered metric.
    ///
    /// # Panics
    /// Panics on an unregistered name (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Add to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.get(name).unwrap_or(0.0) + value;
        self.set(name, v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Render the output's `metrics` object: every per-layer metric
    /// when `traced`, else every end-to-end metric. Per-layer metrics
    /// never set read 0 (the layer was not called).
    ///
    /// # Panics
    /// Panics when an end-to-end metric is missing or not finite.
    pub fn to_json(&self, traced: bool) -> String {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = registry
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// A finite float as a JSON number with every digit Rust keeps.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The last line of the run: `correct`, `attempted`, `failed` and the
/// metrics (per-layer when `traced`, else end-to-end).
pub fn result_line(check: &Check, metrics: &Metrics, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.passed(),
        check.attempted.max(1),
        check.failed,
        metrics.to_json(traced)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16);
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn every_self_time_metric_names_a_layer() {
        for layer in LAYERS {
            let name = format!("self_ms.{layer}");
            assert!(unit_of(&name).is_some(), "{name} is not registered");
        }
        assert_eq!(layer_of("core.trainer.step"), Some("core.trainer"));
        assert_eq!(layer_of("core.vecenv.collect"), Some("core.vecenv"));
        assert_eq!(layer_of("dtree.serve.handle.snapshot"), Some("dtree.serve"));
        assert_eq!(layer_of("nn.policy_value.infer"), Some("nn"));
        assert_eq!(layer_of("nnx.foo"), None);
    }

    #[test]
    fn result_line_reports_failures() {
        let mut check = Check::default();
        check.add(10, 0, String::new);
        check.expect(false, || "boom".to_string());
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = result_line(&check, &m, false);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,"),
            "{line}"
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(check.notes, vec!["boom".to_string()]);
    }

    #[test]
    fn per_layer_defaults_to_zero_but_end_to_end_must_be_set() {
        let m = Metrics::default();
        assert!(m.to_json(true).contains("\"trace.overhead_frac\": {\"value\": 0.0"));
        let missing = std::panic::catch_unwind(|| Metrics::default().to_json(false));
        assert!(missing.is_err());
    }
}
