//! The JSON emitters' shared harness: environment knobs, one best-of-N
//! timer, and a [`Report`] that writes every `BENCH_<name>.json` in
//! one layout and turns a failed correctness check into a non-zero
//! exit.
//!
//! Each emitter (`bench_train`, `bench_build`, `bench_lifecycle`,
//! `bench_recovery`, `bench_sweep`) builds its rows with
//! [`serde_json::json!`] and hands them to a [`Report`]. The file keeps
//! one top-level key per line and one row per line: `bench_gate`
//! matches rows by position, and a fresh file diffs line by line
//! against its committed baseline.

use serde_json::{Map, Serialize, Value};
use std::time::Instant;

/// The environment variable `name` parsed as `T`, or `default` when it
/// is unset or does not parse.
pub fn knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Call `run` `reps` times (at least once) and keep the fastest call by
/// work per second, where `work` counts what one call did (env-steps,
/// builds, passes). Returns that call's output and its wall-clock
/// seconds. Benchmark hosts are noisy, and the fastest call is the
/// best estimator of the code's own cost.
pub fn best_of<T>(reps: usize, mut run: impl FnMut() -> T, work: impl Fn(&T) -> usize) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = run();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        if best.as_ref().is_none_or(|(b, s)| work(&out) as f64 / secs > work(b) as f64 / s) {
            best = Some((out, secs));
        }
    }
    best.expect("at least one rep")
}

/// Time `f` (which processes `work_items` items per call) with an
/// adaptive pass count filling roughly `target_ms` per trial, and
/// return `(ns/item, M items/s)` of the fastest of three trials.
pub fn measure_ns<F: FnMut()>(work_items: usize, target_ms: u64, mut f: F) -> (f64, f64) {
    // Warm-up + calibration pass.
    let start = Instant::now();
    f();
    let once = start.elapsed();
    let passes =
        ((target_ms as u128 * 1_000_000) / once.as_nanos().max(1)).clamp(1, 100_000) as usize;
    let ((), secs) = best_of(3, || (0..passes).for_each(|_| f()), |_| 1);
    let ns = secs * 1e9 / (work_items * passes) as f64;
    (ns, 1e3 / ns)
}

/// One emitter's JSON document plus the correctness checks that gate
/// its numbers.
pub struct Report {
    name: &'static str,
    doc: Map,
    failures: Vec<String>,
}

impl Report {
    /// A report for `BENCH_<name>.json`: schema `bench_<name>/v1`, then
    /// `config` (the setup `bench_gate` requires to match, compared as
    /// an ordered list of keys and values).
    pub fn new(name: &'static str, config: Value) -> Self {
        let mut doc = Map::new();
        doc.insert("schema", Value::String(format!("bench_{name}/v1")));
        doc.insert("config", config);
        Report { name, doc, failures: Vec::new() }
    }

    /// Set top-level `key` (a row array, an object or a scalar). Keys
    /// are written in the order they are first set.
    pub fn set(&mut self, key: &str, value: impl Serialize) {
        self.doc.insert(key, serde_json::to_value(&value).expect("a benchmark value serialises"));
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// Checks failed so far.
    pub fn failures(&self) -> usize {
        self.failures.len()
    }

    /// The document's text: one top-level key per line, one row of a
    /// row array per line. A non-finite float is written as `null`.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.doc.iter().enumerate() {
            let body = match value {
                Value::Array(rows) if !rows.is_empty() => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("    {}", inline(r))).collect();
                    format!("[\n{}\n  ]", rows.join(",\n"))
                }
                other => inline(other),
            };
            let comma = if i + 1 < self.doc.len() { "," } else { "" };
            out.push_str(&format!("  {}: {body}{comma}\n", text(key.as_str())));
        }
        out.push_str("}\n");
        out
    }

    /// Write the report to `NC_BENCH_OUT` (default `BENCH_<name>.json`),
    /// then exit with status 1 if any check failed: the numbers are
    /// written for inspection but never outlive correctness.
    pub fn finish(self) {
        let path = knob("NC_BENCH_OUT", format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render()).expect("write benchmark JSON");
        eprintln!("wrote {path}");
        if !self.failures.is_empty() {
            for f in &self.failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// `value` on one line, spaced like `{"key": 1, "list": [1, 2]}`.
fn inline(value: &Value) -> String {
    match value {
        Value::Array(items) => {
            format!("[{}]", items.iter().map(inline).collect::<Vec<_>>().join(", "))
        }
        Value::Object(map) => {
            let fields: Vec<String> =
                map.iter().map(|(k, v)| format!("{}: {}", text(k.as_str()), inline(v))).collect();
            format!("{{{}}}", fields.join(", "))
        }
        scalar => text(scalar),
    }
}

/// The shim's compact JSON text of a scalar or a key.
fn text<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("a JSON scalar serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Number};

    fn sample() -> Report {
        let mut r = Report::new("demo", json!({"size": 300, "churn": 0.25, "targets": [0, 128]}));
        r.set(
            "rows",
            vec![
                json!({"path": "serial", "envs": 1, "secs": 0.5699, "steps_per_sec": 7018.9}),
                json!({"path": "vec\"env", "envs": 8, "secs": 1.5e-7, "steps_per_sec": -2}),
            ],
        );
        r.set("empty", Vec::<Value>::new());
        r.set("speedup", 1.577);
        r.set("serve", json!({"verified": 4096, "ok": true, "note": Value::Null}));
        r
    }

    #[test]
    fn rendered_text_parses_back_to_the_document() {
        let r = sample();
        let back: Value = serde_json::from_str(&r.render()).unwrap();
        assert_eq!(back, Value::Object(r.doc.clone()));
        assert_eq!(back["schema"].as_str(), Some("bench_demo/v1"));
    }

    #[test]
    fn keys_keep_their_insertion_order() {
        let back: Value = serde_json::from_str(&sample().render()).unwrap();
        let keys =
            |v: &Value| v.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&back), ["schema", "config", "rows", "empty", "speedup", "serve"]);
        assert_eq!(keys(&back["config"]), ["size", "churn", "targets"]);
        assert_eq!(keys(&back["rows"][0]), ["path", "envs", "secs", "steps_per_sec"]);
    }

    #[test]
    fn one_top_level_key_and_one_row_per_line() {
        let r = sample();
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.first(), Some(&"{"));
        assert_eq!(lines.last(), Some(&"}"));
        assert_eq!(lines[1], r#"  "schema": "bench_demo/v1","#);
        assert_eq!(lines[2], r#"  "config": {"size": 300, "churn": 0.25, "targets": [0, 128]},"#);
        assert_eq!(lines[3], r#"  "rows": ["#);
        for (i, line) in lines[4..6].iter().enumerate() {
            let row: Value = serde_json::from_str(line.trim().trim_end_matches(',')).unwrap();
            assert_eq!(row, r.doc.get("rows").unwrap()[i], "{line}");
        }
        assert_eq!(
            &lines[6..],
            [
                "  ],",
                r#"  "empty": [],"#,
                r#"  "speedup": 1.577,"#,
                r#"  "serve": {"verified": 4096, "ok": true, "note": null}"#,
                "}"
            ]
        );
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let mut r = Report::new("demo", json!({}));
        r.set("train", json!({"best_objective": f64::INFINITY, "loss": f64::NAN}));
        r.set("raw", Value::Number(Number::Float(f64::NEG_INFINITY)));
        let back: Value = serde_json::from_str(&r.render()).unwrap();
        assert!(back["train"]["best_objective"].is_null());
        assert!(back["train"]["loss"].is_null());
        assert!(back["raw"].is_null());
    }
}
