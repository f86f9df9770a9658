//! `bench_classify` — machine-readable serving-path benchmark.
//!
//! Measures lookup throughput of every serving path (arena tree,
//! scalar compiled `FlatTree`, batched wavefront, sharded multi-core
//! engine) over each baseline algorithm's tree, verifies all paths
//! against the linear-scan ground truth, and writes the numbers as
//! JSON so the perf trajectory of the serving path is tracked in CI
//! from PR to PR.
//!
//! Scale is controlled by environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_BENCH_SIZE` | rules in the classifier | 1000 |
//! | `NC_BENCH_TRACE` | packets in the trace | 4096 |
//! | `NC_BENCH_THREADS` | comma list of engine thread counts | `1,2,4,8` |
//! | `NC_BENCH_ALGOS` | comma list of baselines | all four |
//! | `NC_BENCH_MS` | target measure time per row (ms) | 200 |
//! | `NC_BENCH_OUT` | output path | `BENCH_classify.json` |
//!
//! CI runs it with a tiny config as a smoke check; the defaults are
//! ACL-1k rules and a 4096-packet trace.

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{run_engine, ClassifierHandle, EngineConfig, RebuildPolicy};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One measured row of the report.
struct Row {
    algo: String,
    path: String,
    threads: usize,
    ns_per_packet: f64,
    mpps: f64,
}

/// Time one whole-trace classification pass: the shared adaptive
/// fastest-of-three harness (see [`nc_bench::measure_ns`]).
fn measure<F: FnMut()>(trace_len: usize, target_ms: u64, f: F) -> (f64, f64) {
    nc_bench::measure_ns(trace_len, target_ms, f)
}

fn main() {
    let size = env_usize("NC_BENCH_SIZE", 1000);
    let trace_len = env_usize("NC_BENCH_TRACE", 4096);
    let target_ms = env_usize("NC_BENCH_MS", 200) as u64;
    let out_path =
        std::env::var("NC_BENCH_OUT").unwrap_or_else(|_| "BENCH_classify.json".to_string());
    let threads: Vec<usize> = std::env::var("NC_BENCH_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let algos: Vec<String> = match std::env::var("NC_BENCH_ALGOS") {
        Ok(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        Err(_) => nc_bench::BASELINE_NAMES.iter().map(|s| s.to_string()).collect(),
    };

    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(trace_len).with_seed(2));
    let truth: Vec<_> = trace.iter().map(|p| rules.classify(p)).collect();
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "bench_classify: acl/{size} rules, {} packets, {hw_threads} hardware thread(s)",
        trace.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = 0usize;
    for name in &algos {
        let tree = nc_bench::build_baseline(name, &rules);
        let snap = ClassifierHandle::new(tree.clone(), RebuildPolicy::never()).snapshot();
        let flat = snap.flat();

        // Correctness gates: every serving path must equal the linear
        // scan before its throughput is worth reporting.
        let mut batch = vec![None; trace.len()];
        flat.classify_batch(&trace, &mut batch);
        for (i, p) in trace.iter().enumerate() {
            let scalar = flat.classify(p);
            if scalar != truth[i] || batch[i] != scalar || tree.classify(p) != truth[i] {
                eprintln!("MISMATCH {name} at {p}");
                failures += 1;
            }
        }

        let (ns, mpps) = measure(trace.len(), target_ms, || {
            for p in &trace {
                std::hint::black_box(tree.classify(p));
            }
        });
        rows.push(Row {
            algo: name.clone(),
            path: "tree".into(),
            threads: 1,
            ns_per_packet: ns,
            mpps,
        });

        let (ns, mpps) = measure(trace.len(), target_ms, || {
            for p in &trace {
                std::hint::black_box(flat.classify(p));
            }
        });
        rows.push(Row {
            algo: name.clone(),
            path: "flat".into(),
            threads: 1,
            ns_per_packet: ns,
            mpps,
        });

        let mut out = vec![None; trace.len()];
        let (ns, mpps) = measure(trace.len(), target_ms, || {
            flat.classify_batch(&trace, &mut out);
            std::hint::black_box(&out);
        });
        rows.push(Row {
            algo: name.clone(),
            path: "flat_batch".into(),
            threads: 1,
            ns_per_packet: ns,
            mpps,
        });

        for &t in &threads {
            // One calibration run sizes the timed pass count.
            let (_, probe) = run_engine(&snap, &trace, EngineConfig::new(t));
            let passes = ((target_ms as f64 / 1e3 * probe.packets_per_sec) / trace.len() as f64)
                .clamp(1.0, 100_000.0) as usize;
            let (engine_out, report) =
                run_engine(&snap, &trace, EngineConfig::new(t).with_passes(passes));
            if engine_out != batch {
                eprintln!("MISMATCH {name} engine({t}) vs batch");
                failures += 1;
            }
            rows.push(Row {
                algo: name.clone(),
                path: "engine".into(),
                threads: t,
                ns_per_packet: 1e9 / report.packets_per_sec,
                mpps: report.packets_per_sec / 1e6,
            });
        }
    }

    for r in &rows {
        eprintln!(
            "{:<10} {:<11} {:>2}t  {:>8.1} ns/pkt  {:>8.2} Mpps",
            r.algo, r.path, r.threads, r.ns_per_packet, r.mpps
        );
    }

    // Hand-rolled JSON: flat structure, no string escapes needed.
    let mut json = String::from("{\n  \"schema\": \"bench_classify/v1\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"family\": \"acl\", \"size\": {size}, \"trace\": {}, \"rule_seed\": 1, \
         \"trace_seed\": 2, \"hw_threads\": {hw_threads}}},\n",
        trace.len()
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algo\": \"{}\", \"path\": \"{}\", \"threads\": {}, \"ns_per_packet\": \
             {:.2}, \"mpps\": {:.3}}}{}\n",
            r.algo,
            r.path,
            r.threads,
            r.ns_per_packet,
            r.mpps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");

    if failures > 0 {
        eprintln!("{failures} correctness failures — numbers are not trustworthy");
        std::process::exit(1);
    }
}
