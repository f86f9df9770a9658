//! `bench_gate` — throughput-regression tripwire for the benchmark
//! emitters' JSON artifacts.
//!
//! ```text
//! bench_gate <committed-baseline.json> <fresh.json>
//! ```
//!
//! Scans every top-level array of row objects in the baseline (e.g.
//! `collect` in `BENCH_train.json`, `phases` in `BENCH_lifecycle.json`)
//! and, for each row carrying one of the gated metrics
//! (`steps_per_sec`, `episodes_per_sec`, `mpps`) or tree columns
//! (`time`, `max_depth`, `nodes`, `trace_hash`), compares the fresh
//! run's matching row (same position and identity fields). The gate
//! **fails** (exit 1) when any fresh metric drops below
//! `NC_GATE_MIN_RATIO` (default `0.8`, i.e. a >20% regression) of the
//! committed baseline, or when any tree column differs from it at all:
//! the trees are deterministic, so a changed tree is never noise.
//!
//! Absolute throughput only compares like with like, so:
//!
//! * the two files' `config` objects (minus `hw_threads`, which
//!   describes the machine) must be equal key for key, in order; any
//!   drift **fails** (exit 1) rather than silently disarming the gate
//!   — regenerate the baseline or restore the emitter's setup;
//! * a missing or unparseable baseline file **skips** the gate (first
//!   run of a new emitter).
//!
//! This is a tripwire, not a precision instrument: CI runners vary,
//! and the 20% tolerance absorbs normal noise while still catching
//! the step-function regressions that matter (an accidentally
//! quadratic assignment loop, a lost memoization).

use serde_json::Value;

/// The per-row throughput metrics worth gating. `mpps` covers the
/// serving-side rows: `bench_lifecycle` phases (Mpps sustained in every
/// lifecycle phase, including *during* a background retrain) and
/// `bench_sweep` cells and per-family medians.
const METRICS: [&str; 3] = ["steps_per_sec", "episodes_per_sec", "mpps"];

/// The per-row tree columns a fresh run must reproduce exactly: the
/// built trees' shape and the traced classification results.
const TREE_COLUMNS: [&str; 4] = ["time", "max_depth", "nodes", "trace_hash"];

/// Identity fields used to label a row in failure messages. The
/// `family`/`size`/`seed`/`skew` axes identify `bench_sweep` matrix
/// cells and per-family summary rows.
const ID_FIELDS: [&str; 10] =
    ["path", "algo", "hidden", "workers", "envs", "phase", "family", "size", "seed", "skew"];

fn scalar(v: &Value) -> String {
    if let Some(s) = v.as_str() {
        s.to_string()
    } else if let Some(u) = v.as_u64() {
        u.to_string()
    } else {
        serde_json::to_string(v).expect("a parsed value serialises")
    }
}

fn row_label(row: &Value) -> String {
    let mut parts = Vec::new();
    for f in ID_FIELDS {
        let v = &row[f];
        if !v.is_null() {
            parts.push(format!("{f}={}", scalar(v)));
        }
    }
    parts.join(" ")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        std::process::exit(2);
    }
    let min_ratio: f64 = nc_bench::emit::knob("NC_GATE_MIN_RATIO", 0.8);

    let baseline = match std::fs::read_to_string(&args[1]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: no baseline at {} ({e}); skipping gate", args[1]);
            return;
        }
    };
    let fresh = std::fs::read_to_string(&args[2]).expect("fresh benchmark JSON exists");
    // An empty or unparseable baseline (e.g. a botched `git show`
    // redirect) means "no baseline", not "fail CI".
    let baseline: Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_gate: baseline {} does not parse ({e}); skipping gate", args[1]);
            return;
        }
    };
    let fresh: Value = serde_json::from_str(&fresh).expect("fresh JSON parses");

    // Compare scale knobs only: `hw_threads` *describes* the machine
    // rather than configuring the benchmark, and gating across machines
    // is exactly this tool's job.
    let scale_config = |v: &Value| -> Vec<(String, Value)> {
        v["config"]
            .as_object()
            .map(|m| m.iter().filter(|(k, _)| k != "hw_threads").cloned().collect::<Vec<_>>())
            .unwrap_or_default()
    };
    if scale_config(&baseline) != scale_config(&fresh) {
        eprintln!(
            "bench_gate: config drift between {} and {}: {} vs {}; regenerate the baseline or \
             restore the emitter's setup",
            args[1],
            args[2],
            serde_json::to_string(&baseline["config"]).expect("a parsed value serialises"),
            serde_json::to_string(&fresh["config"]).expect("a parsed value serialises")
        );
        std::process::exit(1);
    }

    let Some(obj) = baseline.as_object() else {
        eprintln!("bench_gate: baseline is not an object; skipping");
        return;
    };
    let mut checked = 0usize;
    let mut failures = 0usize;
    let mut columns = 0usize;
    let mut changed = 0usize;
    for (key, val) in obj.iter() {
        let Some(rows) = val.as_array() else { continue };
        for (i, row) in rows.iter().enumerate() {
            if METRICS.iter().chain(&TREE_COLUMNS).all(|f| row[*f].is_null()) {
                continue;
            }
            let fresh_row = &fresh[key.as_str()][i];
            // Rows must still describe the same measurement.
            for f in ID_FIELDS {
                assert_eq!(
                    row[f], fresh_row[f],
                    "row identity drift at {key}[{i}].{f} — regenerate the baseline"
                );
            }
            for metric in METRICS {
                let Some(base) = row[metric].as_f64() else { continue };
                let got = fresh_row[metric].as_f64().unwrap_or(0.0);
                let ratio = if base > 0.0 { got / base } else { 1.0 };
                checked += 1;
                let verdict = if ratio < min_ratio {
                    failures += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                eprintln!(
                    "{key}[{i}] {:<28} {metric:>16}: {got:>10.1} vs baseline {base:>10.1} \
                     ({ratio:>5.2}x)  {verdict}",
                    row_label(row)
                );
            }
            for column in TREE_COLUMNS {
                let base = &row[column];
                if base.is_null() {
                    continue;
                }
                columns += 1;
                if fresh_row[column] != *base {
                    changed += 1;
                    eprintln!(
                        "{key}[{i}] {:<28} {column:>16}: {} vs baseline {}  CHANGED",
                        row_label(row),
                        scalar(&fresh_row[column]),
                        scalar(base)
                    );
                }
            }
        }
    }
    eprintln!(
        "bench_gate: {checked} metrics checked, {failures} below {min_ratio:.2}x of baseline; \
         {columns} tree columns checked, {changed} changed"
    );
    if failures > 0 || changed > 0 {
        std::process::exit(1);
    }
}
