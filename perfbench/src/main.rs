//! `perfbench --workload <serve|train> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, writes its record (identity, every timing
//! series, metrics) and, when traced, its spans next to the binary
//! under `perfbench-out/`, and prints the result as the last line of
//! standard output. Exits non-zero when any output failed verification.

use perfbench::report::result_line;
use perfbench::setup::Scale;
use perfbench::{run, Options, RunOutput, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <serve|train> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        traced.ok_or("--trace is required")?,
    ))
}

/// `perfbench-out/` beside the executable: inside the build directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?.join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's record: what its inputs were, every series with its
/// summary (and raw samples of the short ones), and the metrics.
fn write_record(path: &Path, out: &RunOutput, traced: bool) -> std::io::Result<()> {
    let identity: Vec<String> =
        out.identity.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let series: Vec<String> = out
        .series
        .iter()
        .map(|(name, summary, raw)| {
            let raw: Vec<String> = raw.iter().map(|v| v.to_string()).collect();
            format!(
                "    {{\"name\": {}, \"summary\": {}, \"raw\": [{}]}}",
                json_str(name),
                summary.to_json(),
                raw.join(", ")
            )
        })
        .collect();
    let notes: Vec<String> = out.check.notes.iter().map(|n| json_str(n)).collect();
    let record = format!(
        "{{\n  \"identity\": {{{}}},\n  \"series\": [\n{}\n  ],\n  \"failures\": [{}],\n  \"result\": {}\n}}\n",
        identity.join(", "),
        series.join(",\n"),
        notes.join(", "),
        result_line(&out.check, &out.metrics, traced)
    );
    std::fs::write(path, record)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = match out_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stem = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(traced));
    let opts = Options {
        workload,
        seed,
        seconds,
        traced,
        work_dir: out_dir.join(format!("work-{stem}-{}", std::process::id())),
        scale: Scale::full(),
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    for (k, v) in &out.identity {
        eprintln!("identity {k} = {v}");
    }
    for (name, s, _) in &out.series {
        let tail = s.tail.map_or_else(|| "-".to_string(), |(p, v)| format!("p{p} {v:.4}"));
        let p99 = s.p99.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        eprintln!(
            "series {name}: n {} median {:.4} q1 {:.4} q3 {:.4} p99 {p99} tail {tail}",
            s.n, s.median, s.q1, s.q3
        );
    }
    for note in &out.check.notes {
        eprintln!("FAILED: {note}");
    }
    eprintln!(
        "verified {} outputs, {} failed (failed_frac {})",
        out.check.attempted,
        out.check.failed,
        out.check.failed as f64 / out.check.attempted.max(1) as f64
    );
    let record = out_dir.join(format!("{stem}.json"));
    if let Err(e) = write_record(&record, &out, traced) {
        eprintln!("perfbench: write {}: {e}", record.display());
        return ExitCode::from(1);
    }
    if traced {
        let spans = out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = out.spans.write_jsonl(&spans) {
            eprintln!("perfbench: write {}: {e}", spans.display());
            return ExitCode::from(1);
        }
        eprintln!("spans: {}", spans.display());
    }
    eprintln!("record: {}", record.display());
    println!("{}", result_line(&out.check, &out.metrics, traced));
    if out.check.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
