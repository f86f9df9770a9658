//! `bench_train` — machine-readable training-pipeline benchmark.
//!
//! Measures the actor-learner pipeline end to end and writes
//! `BENCH_train.json` so the training-path trajectory is tracked in CI
//! alongside `BENCH_classify.json` / `BENCH_updates.json`:
//!
//! 1. **Rollout collection throughput** (env-steps/sec) under a frozen
//!    random policy of the vectorised collector (`neurocuts::VecEnv`:
//!    lockstep envs, one batched matrix-matrix forward per step): the
//!    *serial* row runs one env slot, so one episode at a time with a
//!    one-row forward per decision, against N slots at 1 and N workers.
//! 2. **A full training run** (`Trainer`, the vectorised collector +
//!    PPO), reporting steps/sec and the best objective.
//! 3. **The train → compile → serve hand-off**: the trained tree is
//!    compiled to a serving snapshot, verified packet-for-packet against the
//!    linear-scan ground truth (any mismatch exits non-zero — the
//!    numbers must never outlive correctness), and pushed through the
//!    sharded serving engine for an end-to-end Mpps figure.
//! 4. **Quality vs hand-tuned baselines**: depth/time, nodes, and
//!    bytes-per-rule against HiCuts and EffiCuts on the same rules.
//!
//! Scale is controlled by environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_BENCH_SIZE` | rules in the classifier | 300 |
//! | `NC_BENCH_TIMESTEPS` | RL timesteps for the training run | 6000 |
//! | `NC_BENCH_SAMPLES` | env-steps per collection measurement | 4000 |
//! | `NC_BENCH_ENVS` | lockstep environments in the collector | 8 |
//! | `NC_BENCH_WORKERS` | worker threads for the parallel row | hw threads |
//! | `NC_BENCH_HIDDEN` | policy hidden width for the collection rows | 512 |
//! | `NC_BENCH_TRACE` | packets for serve verification | 4096 |
//! | `NC_BENCH_OUT` | output path | `BENCH_train.json` |
//!
//! The collection rows default to the paper's production model width
//! (`[512, 512]`, Table 1) rather than the quick `small()` training
//! config: batching policy inference pays off in proportion to the
//! network width (each weight matrix is streamed once per *batch*
//! instead of once per observation, and on multi-core hosts the
//! lockstep rounds split across workers). `NC_BENCH_HIDDEN=64` shows
//! the opposite regime, where the env-side tree mutation dominates and
//! interleaving N tree arenas on one core can cost up to ~10% — the
//! single-core floor, not the scaling ceiling.

use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{run_engine, ClassifierHandle, DecisionTree, EngineConfig, RebuildPolicy, TreeStats};
use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, Trainer, VecEnv};
use nn::{NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One measured collection row.
struct CollectRow {
    path: &'static str,
    envs: usize,
    workers: usize,
    env_steps: usize,
    secs: f64,
    steps_per_sec: f64,
}

/// Best-of-`reps` measurement of one collection mode (the box the
/// benchmark runs on is noisy; the fastest rep is the best estimator
/// of the code's actual cost).
fn measure_collect(reps: usize, mut run: impl FnMut() -> usize) -> (usize, f64, f64) {
    let mut best: Option<(usize, f64)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let steps = run();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        if best.is_none_or(|(s, t)| steps as f64 / secs > s as f64 / t) {
            best = Some((steps, secs));
        }
    }
    let (steps, secs) = best.expect("at least one rep");
    (steps, secs, steps as f64 / secs)
}

fn tree_row(algo: &str, stats: &TreeStats) -> String {
    format!(
        "{{\"algo\": \"{algo}\", \"time\": {}, \"max_depth\": {}, \"nodes\": {}, \
         \"bytes\": {}, \"bytes_per_rule\": {:.1}}}",
        stats.time, stats.max_depth, stats.nodes, stats.bytes, stats.bytes_per_rule
    )
}

fn main() {
    let size = env_usize("NC_BENCH_SIZE", 300);
    let timesteps = env_usize("NC_BENCH_TIMESTEPS", 6000);
    let samples = env_usize("NC_BENCH_SAMPLES", 4000);
    let num_envs = env_usize("NC_BENCH_ENVS", 8).max(1);
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = env_usize("NC_BENCH_WORKERS", hw_threads).max(1);
    let hidden = env_usize("NC_BENCH_HIDDEN", 512);
    let trace_len = env_usize("NC_BENCH_TRACE", 4096);
    let out_path = std::env::var("NC_BENCH_OUT").unwrap_or_else(|_| "BENCH_train.json".to_string());

    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(trace_len).with_seed(2));
    eprintln!(
        "bench_train: acl/{size} rules, {samples} steps/collection ([{hidden}, {hidden}] \
         policy), {num_envs} envs, {workers} workers, {timesteps} train timesteps, \
         {hw_threads} hardware thread(s)"
    );

    // Collection throughput under a frozen random policy. The policy
    // size matches the training config below so the comparison is the
    // one the trainer actually experiences.
    let cfg = NeuroCutsConfig::small(timesteps.max(1000));
    let env = NeuroCutsEnv::new(rules.clone(), cfg.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let net = PolicyValueNet::new(
        NetConfig {
            obs_dim: env.encoder.obs_dim(),
            dim_actions: env.action_space.dim_actions(),
            num_actions: env.action_space.num_actions(),
            hidden: [hidden, hidden],
        },
        &mut rng,
    );

    let mut rows: Vec<CollectRow> = Vec::new();
    {
        let env = env.clone();
        let (steps, secs, sps) = measure_collect(3, || {
            env.reset_best();
            VecEnv::new(env.clone(), 1, 10).collect(&net, samples, 1).len()
        });
        rows.push(CollectRow {
            path: "serial",
            envs: 1,
            workers: 1,
            env_steps: steps,
            secs,
            steps_per_sec: sps,
        });
    }
    for w in [1, workers] {
        let env = env.clone();
        let (steps, secs, sps) = measure_collect(3, || {
            env.reset_best();
            VecEnv::new(env.clone(), num_envs, 10).collect(&net, samples, w).len()
        });
        rows.push(CollectRow {
            path: "vecenv",
            envs: num_envs,
            workers: w,
            env_steps: steps,
            secs,
            steps_per_sec: sps,
        });
        if workers == 1 {
            break; // one hardware thread: the two rows would be identical
        }
    }
    for r in &rows {
        eprintln!(
            "{:<8} envs {:>2}  workers {:>2}  {:>7} steps in {:>6.2}s  {:>9.0} steps/s",
            r.path, r.envs, r.workers, r.env_steps, r.secs, r.steps_per_sec
        );
    }
    let serial_sps = rows[0].steps_per_sec;
    let best_parallel_sps = rows[1..].iter().map(|r| r.steps_per_sec).fold(0.0f64, f64::max);
    eprintln!(
        "vectorised/serial collection speedup: {:.2}x",
        best_parallel_sps / serial_sps.max(1e-9)
    );

    // Full training run: the production path (vecenv + PPO).
    let mut train_cfg = cfg.clone();
    train_cfg.num_envs = num_envs;
    train_cfg.workers = workers;
    let mut trainer = Trainer::new(rules.clone(), train_cfg).expect("trainable rule set");
    let train_start = Instant::now();
    let report = trainer.train().expect("training makes progress");
    let train_secs = train_start.elapsed().as_secs_f64().max(1e-9);
    let train_sps = report.timesteps as f64 / train_secs;
    let (tree, stats) = match report.best {
        Some(b) => (b.tree, b.stats),
        None => trainer.greedy_tree(),
    };
    let best_objective = report.history.last().map_or(f64::INFINITY, |h| h.best_objective);
    eprintln!(
        "trained {} steps in {:.2}s ({:.0} steps/s, {} iterations), best tree: {stats}",
        report.timesteps,
        train_secs,
        train_sps,
        report.history.len()
    );

    // Train → compile → serve: verify, then measure the engine.
    let snap = ClassifierHandle::new(DecisionTree::clone(&tree), RebuildPolicy::never()).snapshot();
    let mut mismatches = 0usize;
    for p in &trace {
        let got = snap.flat().classify_checked(&tree, p).expect("fresh compile is never stale");
        if got != rules.classify(p) {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("MISMATCH: trained tree diverged from the linear scan on {mismatches} packets");
    } else {
        eprintln!("trained tree verified against the linear scan on {} packets", trace.len());
    }
    let (_, engine) = run_engine(&snap, &trace, EngineConfig::new(hw_threads).with_passes(8));
    eprintln!(
        "serving engine {:>2}t  {:>10.0} pkts/s ({:.2} Mpps)",
        engine.threads,
        engine.packets_per_sec,
        engine.packets_per_sec / 1e6
    );

    // Quality vs the hand-tuned baselines on the same rules.
    let hicuts = TreeStats::compute(&nc_bench::build_baseline("HiCuts", &rules));
    let efficuts = TreeStats::compute(&nc_bench::build_baseline("EffiCuts", &rules));
    eprintln!(
        "NeuroCuts depth {} vs HiCuts {} / EffiCuts {}",
        stats.max_depth, hicuts.max_depth, efficuts.max_depth
    );

    // Hand-rolled JSON: flat structure, no string escapes needed.
    let mut json = String::from("{\n  \"schema\": \"bench_train/v1\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"family\": \"acl\", \"size\": {size}, \"samples\": {samples}, \
         \"envs\": {num_envs}, \"workers\": {workers}, \"timesteps\": {timesteps}, \
         \"trace\": {}, \"hw_threads\": {hw_threads}, \"rule_seed\": 1, \"trace_seed\": 2}},\n",
        trace.len()
    ));
    json.push_str("  \"collect\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"envs\": {}, \"workers\": {}, \"env_steps\": {}, \
             \"secs\": {:.4}, \"steps_per_sec\": {:.1}}}{}\n",
            r.path,
            r.envs,
            r.workers,
            r.env_steps,
            r.secs,
            r.steps_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"collect_speedup\": {:.3},\n",
        best_parallel_sps / serial_sps.max(1e-9)
    ));
    json.push_str(&format!(
        "  \"train\": {{\"timesteps\": {}, \"iterations\": {}, \"secs\": {:.3}, \
         \"steps_per_sec\": {:.1}, \"best_objective\": {:.3}}},\n",
        report.timesteps,
        report.history.len(),
        train_secs,
        train_sps,
        if best_objective.is_finite() { best_objective } else { -1.0 }
    ));
    json.push_str(&format!(
        "  \"serve\": {{\"verified_packets\": {}, \"mismatches\": {mismatches}, \
         \"engine_threads\": {}, \"engine_pkts_per_sec\": {:.0}}},\n",
        trace.len(),
        engine.threads,
        engine.packets_per_sec
    ));
    json.push_str(&format!(
        "  \"trees\": [\n    {},\n    {},\n    {}\n  ]\n}}\n",
        tree_row("NeuroCuts", &stats),
        tree_row("HiCuts", &hicuts),
        tree_row("EffiCuts", &efficuts)
    ));
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");

    if mismatches > 0 {
        eprintln!("correctness failure — numbers are not trustworthy");
        std::process::exit(1);
    }
}
